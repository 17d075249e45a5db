//! Binary encoding of structural-ID lists, and the string fallback for
//! backends without binary values.
//!
//! LUI / 2LUPI entries store, per (key, document), the *sorted* list of
//! `(pre, post, depth)` identifiers "compressed (encoded) … in a single
//! DynamoDB value" (paper Section 8.2). The encoding here is
//! delta-varint: `pre` is delta-encoded against the previous ID (the list
//! is sorted by `pre`), `post` and `depth` are plain varints. Sorted order
//! is preserved through encode/decode, so the holistic twig join consumes
//! look-up results without sorting (Section 5.3).
//!
//! SimpleDB cannot hold binary values, so the same bytes are base64-coded
//! and chunked into ≤ 1 KB string values — the storage and request
//! amplification the paper's Tables 7–8 measure.

use amada_xml::StructuralId;

// ---------------------------------------------------------------------------
// varint (LEB128)
// ---------------------------------------------------------------------------

/// Appends a LEB128 varint.
pub fn write_varint(mut v: u32, out: &mut Vec<u8>) {
    loop {
        let byte = (v & 0x7f) as u8;
        v >>= 7;
        if v == 0 {
            out.push(byte);
            return;
        }
        out.push(byte | 0x80);
    }
}

/// Reads a LEB128 varint; advances `pos`.
#[inline]
pub fn read_varint(bytes: &[u8], pos: &mut usize) -> Option<u32> {
    // Single-byte fast path: deltas and depths are almost always < 128.
    let byte = *bytes.get(*pos)?;
    *pos += 1;
    if byte & 0x80 == 0 {
        return Some(byte as u32);
    }
    let mut v: u32 = (byte & 0x7f) as u32;
    let mut shift = 7;
    loop {
        let byte = *bytes.get(*pos)?;
        *pos += 1;
        // The fifth byte may only carry the top 4 bits of a u32; anything
        // larger is malformed rather than silently truncated.
        if shift == 28 && byte & 0x70 != 0 {
            return None;
        }
        v |= ((byte & 0x7f) as u32) << shift;
        if byte & 0x80 == 0 {
            return Some(v);
        }
        shift += 7;
        if shift >= 35 {
            return None; // malformed
        }
    }
}

/// Skips one LEB128 varint, enforcing exactly the constraints of
/// [`read_varint`] (truncation, overlong and u32-overflow rejection)
/// without computing the value.
#[inline]
fn skip_varint(bytes: &[u8], pos: &mut usize) -> Option<()> {
    let byte = *bytes.get(*pos)?;
    *pos += 1;
    if byte & 0x80 == 0 {
        return Some(());
    }
    let mut shift = 7;
    loop {
        let byte = *bytes.get(*pos)?;
        *pos += 1;
        if shift == 28 && byte & 0x70 != 0 {
            return None;
        }
        if byte & 0x80 == 0 {
            return Some(());
        }
        shift += 7;
        if shift >= 35 {
            return None;
        }
    }
}

// ---------------------------------------------------------------------------
// ID-list codec
// ---------------------------------------------------------------------------

/// Appends one ID as a (delta-pre, post, depth) varint triple.
fn write_id(prev_pre: u32, id: &StructuralId, out: &mut Vec<u8>) {
    write_varint(id.pre - prev_pre, out);
    write_varint(id.post, out);
    write_varint(id.depth, out);
}

/// Bytes [`write_varint`] emits for `v`.
fn varint_len(v: u32) -> usize {
    (32 - (v | 1).leading_zeros() as usize).div_ceil(7)
}

/// Length of [`encode_ids`]' output, without encoding.
pub fn encoded_ids_len(ids: &[StructuralId]) -> usize {
    let mut prev_pre = 0u32;
    let mut len = 0;
    for id in ids {
        len += varint_len(id.pre - prev_pre) + varint_len(id.post) + varint_len(id.depth);
        prev_pre = id.pre;
    }
    len
}

/// Encodes a `pre`-sorted ID list. Panics in debug builds if unsorted.
pub fn encode_ids(ids: &[StructuralId]) -> Vec<u8> {
    debug_assert!(
        ids.windows(2).all(|w| w[0].pre <= w[1].pre),
        "ID list must be pre-sorted"
    );
    let mut out = Vec::with_capacity(encoded_ids_len(ids));
    let mut prev_pre = 0u32;
    for id in ids {
        write_id(prev_pre, id, &mut out);
        prev_pre = id.pre;
    }
    out
}

/// Decodes an ID list; `None` on malformed input.
pub fn decode_ids(bytes: &[u8]) -> Option<Vec<StructuralId>> {
    let mut ids = Vec::new();
    let mut pos = 0;
    let mut prev_pre = 0u32;
    while pos < bytes.len() {
        let dpre = read_varint(bytes, &mut pos)?;
        let post = read_varint(bytes, &mut pos)?;
        let depth = read_varint(bytes, &mut pos)?;
        prev_pre += dpre;
        ids.push(StructuralId::new(prev_pre, post, depth));
    }
    Some(ids)
}

/// Splits a `pre`-sorted ID list into chunks whose *encoded* size does not
/// exceed `max_bytes`, preserving order, and hands each to `emit`; the
/// chunks are encoded one after another into `chunk`, whose buffer a
/// caller reuses. Each chunk re-anchors its delta encoding, so chunks
/// decode independently.
pub fn for_each_id_chunk(
    ids: &[StructuralId],
    max_bytes: usize,
    chunk: &mut Vec<u8>,
    mut emit: impl FnMut(&[u8]),
) {
    assert!(max_bytes >= 15, "chunk limit must fit at least one ID");
    chunk.clear();
    let mut prev_pre = 0u32;
    for id in ids {
        let start = chunk.len();
        write_id(prev_pre, id, chunk);
        if chunk.len() > max_bytes && start > 0 {
            emit(&chunk[..start]);
            chunk.clear();
            // Re-anchor the delta for a self-contained chunk.
            write_id(0, id, chunk);
        }
        prev_pre = id.pre;
    }
    if !chunk.is_empty() {
        emit(chunk);
    }
}

/// The chunks of [`for_each_id_chunk`], collected.
pub fn encode_ids_chunked(ids: &[StructuralId], max_bytes: usize) -> Vec<Vec<u8>> {
    let mut chunks = Vec::new();
    for_each_id_chunk(ids, max_bytes, &mut Vec::new(), |chunk| {
        chunks.push(chunk.to_vec())
    });
    chunks
}

// ---------------------------------------------------------------------------
// Block format
// ---------------------------------------------------------------------------
//
// Long ID lists decoded end-to-end dominate LUI / 2LUPI lookup time, yet a
// twig join only ever inspects the sub-ranges of each list that can
// structurally intersect the other streams. The block layer splits a list
// into fixed-size runs of [`BLOCK_IDS`] identifiers and keeps, per block, a
// `max_pre` skip pointer plus the byte range of its varint body. A lazy
// cursor then *gallops* across block headers and decodes only the blocks a
// join actually lands in.
//
// [`BlockList`] is in-memory only: built by skip-scanning the flat wire
// bytes fetched from a store (no stored-format change; stored bytes still
// drive per-item billing and must stay byte-identical). A look-up refills
// one list per stream from each candidate document's chunks.

/// Number of IDs per block. 128 keeps a block's decoded form (1.5 KiB)
/// well inside L1 while making header overhead (~2–6 bytes per block)
/// negligible next to the ~3-byte-per-ID body.
pub const BLOCK_IDS: usize = 128;

/// Per-block metadata: delta anchor, skip pointer, and body byte range.
#[derive(Debug, Clone, Copy)]
struct BlockMeta {
    /// `pre` of the last ID before this block; the first ID's delta is
    /// relative to it. 0 at every chunk boundary (chunks re-anchor).
    anchor_pre: u32,
    /// Largest `pre` in the block (the list is pre-sorted, so this is the
    /// last ID's `pre`). The skip pointer: a probe for `pre >= p` can
    /// bypass every block with `max_pre < p` without decoding it.
    max_pre: u32,
    /// Byte range of the block body within `BlockList::body`.
    start: u32,
    end: u32,
    /// Number of IDs in the block (≤ `BLOCK_IDS`).
    count: u32,
}

/// A block-structured view of one `pre`-sorted ID list.
///
/// Holds the raw varint body plus per-block skip metadata; decoding is
/// deferred to [`BlockCursor`], which touches only the blocks a lookup
/// intersects.
#[derive(Debug, Clone, Default)]
pub struct BlockList {
    body: Vec<u8>,
    blocks: Vec<BlockMeta>,
    len: usize,
}

impl BlockList {
    /// Builds a block list from one flat [`encode_ids`] buffer.
    /// `None` on malformed input (same rejection rules as [`decode_ids`]).
    pub fn from_flat(bytes: &[u8]) -> Option<BlockList> {
        let mut list = BlockList::default();
        list.push_chunk(bytes).then_some(list)
    }

    /// Builds a block list from the self-anchored chunks produced by
    /// [`encode_ids_chunked`] (each chunk restarts its delta from 0, so a
    /// block boundary is forced at every chunk boundary). Malformed chunks
    /// are skipped, mirroring the per-chunk tolerance of the flat decode
    /// path in the store layer.
    pub fn from_chunks<'a>(chunks: impl IntoIterator<Item = &'a [u8]>) -> BlockList {
        let mut list = BlockList::default();
        for chunk in chunks {
            list.push_chunk(chunk);
        }
        list
    }

    /// Empties the list, keeping its buffers.
    pub(crate) fn clear(&mut self) {
        self.body.clear();
        self.blocks.clear();
        self.len = 0;
    }

    /// Appends one self-anchored chunk; a malformed one (same rejection
    /// rules as [`decode_ids`]) leaves the list as it was: `false`.
    pub(crate) fn push_chunk(&mut self, chunk: &[u8]) -> bool {
        let (body_len, blocks_len, ids_len) = (self.body.len(), self.blocks.len(), self.len);
        let appended = self.append_chunk(chunk).is_some();
        if !appended {
            self.body.truncate(body_len);
            self.blocks.truncate(blocks_len);
            self.len = ids_len;
        }
        appended
    }

    /// Total number of IDs across all blocks.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True iff the list holds no IDs.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Fully decodes the list (block order = `pre` order).
    pub fn decode_all(&self) -> Vec<StructuralId> {
        let mut ids = Vec::with_capacity(self.len);
        for meta in &self.blocks {
            decode_block(&self.body, meta, &mut ids);
        }
        ids
    }

    /// A lazy cursor over a copy of the list, positioned at the first ID.
    pub fn cursor(&self) -> BlockCursor {
        let mut cur = BlockCursor::default();
        cur.refill(|list| list.clone_from(self));
        cur
    }

    /// Scans one self-anchored chunk, appending its bytes and block
    /// metadata. `None` (with partial state; caller rolls back) on
    /// malformed input.
    fn append_chunk(&mut self, bytes: &[u8]) -> Option<()> {
        let base = self.body.len();
        self.body.extend_from_slice(bytes);
        let mut pos = 0usize;
        let mut prev_pre = 0u32;
        while pos < bytes.len() {
            let start = pos;
            let anchor = prev_pre;
            let mut count = 0u32;
            while pos < bytes.len() && (count as usize) < BLOCK_IDS {
                let dpre = read_varint(bytes, &mut pos)?;
                skip_varint(bytes, &mut pos)?;
                skip_varint(bytes, &mut pos)?;
                prev_pre = prev_pre.checked_add(dpre)?;
                count += 1;
            }
            self.blocks.push(BlockMeta {
                anchor_pre: anchor,
                max_pre: prev_pre,
                start: (base + start) as u32,
                end: (base + pos) as u32,
                count,
            });
            self.len += count as usize;
        }
        Some(())
    }
}

/// Decodes one block body into `out`. The body was validated at
/// construction time, so decoding cannot fail.
fn decode_block(body: &[u8], meta: &BlockMeta, out: &mut Vec<StructuralId>) {
    let bytes = &body[meta.start as usize..meta.end as usize];
    let mut pos = 0usize;
    let mut prev_pre = meta.anchor_pre;
    for _ in 0..meta.count {
        let dpre = read_varint(bytes, &mut pos).expect("block body validated at construction");
        let post = read_varint(bytes, &mut pos).expect("block body validated at construction");
        let depth = read_varint(bytes, &mut pos).expect("block body validated at construction");
        prev_pre += dpre;
        out.push(StructuralId::new(prev_pre, post, depth));
    }
}

/// A lazy, forward-only cursor over the [`BlockList`] it holds.
///
/// Only the block under the cursor is ever decoded (into a reusable
/// buffer); `skip_to_pre` gallops over block headers via `max_pre`, so a
/// selective probe touches `O(log n)` headers and decodes a single block.
#[derive(Debug, Default)]
pub struct BlockCursor {
    list: BlockList,
    /// Current block index; `list.blocks.len()` once exhausted.
    block: usize,
    /// Decoded IDs of the current block.
    buf: Vec<StructuralId>,
    /// Position within `buf`.
    pos: usize,
}

impl BlockCursor {
    /// Lets `fill` rewrite the cursor's list, then points at its first ID,
    /// keeping every buffer: a look-up walks one cursor per stream over
    /// every candidate document.
    pub fn refill(&mut self, fill: impl FnOnce(&mut BlockList)) {
        fill(&mut self.list);
        self.block = 0;
        self.load_block();
    }

    /// The ID under the cursor, or `None` when exhausted.
    #[inline]
    pub fn peek(&self) -> Option<StructuralId> {
        self.buf.get(self.pos).copied()
    }

    /// Moves past the current ID.
    pub fn advance(&mut self) {
        self.pos += 1;
        if self.pos >= self.buf.len() {
            self.block += 1;
            self.load_block();
        }
    }

    /// Positions the cursor at the first remaining ID with `pre >=
    /// min_pre`, galloping over whole blocks via their `max_pre` skip
    /// pointers. Never moves backwards.
    pub fn skip_to_pre(&mut self, min_pre: u32) {
        let Some(cur) = self.buf.get(self.pos) else {
            return; // exhausted
        };
        if cur.pre >= min_pre {
            return;
        }
        if self.list.blocks[self.block].max_pre >= min_pre {
            // Target is inside the already-decoded block: binary search.
            self.pos += self.buf[self.pos..].partition_point(|id| id.pre < min_pre);
            return;
        }
        // Gallop over the block headers after the current block.
        let rest = &self.list.blocks[self.block + 1..];
        let mut probe = 1usize;
        while probe < rest.len() && rest[probe].max_pre < min_pre {
            probe *= 2;
        }
        let lo = probe / 2;
        let hi = probe.min(rest.len());
        let off = lo + rest[lo..hi].partition_point(|m| m.max_pre < min_pre);
        self.block += 1 + off;
        self.load_block();
        if !self.buf.is_empty() {
            self.pos = self.buf.partition_point(|id| id.pre < min_pre);
        }
    }

    /// Exhausts the cursor.
    pub fn skip_to_end(&mut self) {
        self.block = self.list.blocks.len();
        self.buf.clear();
        self.pos = 0;
    }

    /// Rewinds to the first ID. The first block is decoded again only if
    /// the cursor has left it.
    pub fn reset(&mut self) {
        if self.block == 0 {
            self.pos = 0;
        } else {
            self.block = 0;
            self.load_block();
        }
    }

    /// Decodes the block at `self.block` into `buf` (empty if exhausted).
    fn load_block(&mut self) {
        self.buf.clear();
        self.pos = 0;
        if let Some(meta) = self.list.blocks.get(self.block) {
            decode_block(&self.list.body, meta, &mut self.buf);
        }
    }
}

impl amada_pattern::TwigStream<()> for BlockCursor {
    #[inline]
    fn peek(&self) -> Option<(StructuralId, ())> {
        BlockCursor::peek(self).map(|id| (id, ()))
    }

    fn advance(&mut self) {
        BlockCursor::advance(self);
    }

    fn skip_to_pre(&mut self, min_pre: u32) {
        BlockCursor::skip_to_pre(self, min_pre);
    }

    fn skip_to_end(&mut self) {
        BlockCursor::skip_to_end(self);
    }

    fn reset(&mut self) {
        BlockCursor::reset(self);
    }
}

// ---------------------------------------------------------------------------
// base64 (for string-only backends)
// ---------------------------------------------------------------------------

const B64: &[u8; 64] = b"ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789+/";

/// Standard base64 without padding-stripping (RFC 4648).
pub fn base64_encode(data: &[u8]) -> String {
    let mut out = String::with_capacity(data.len().div_ceil(3) * 4);
    for chunk in data.chunks(3) {
        let b = [
            chunk[0],
            *chunk.get(1).unwrap_or(&0),
            *chunk.get(2).unwrap_or(&0),
        ];
        let n = ((b[0] as u32) << 16) | ((b[1] as u32) << 8) | b[2] as u32;
        out.push(B64[(n >> 18) as usize & 63] as char);
        out.push(B64[(n >> 12) as usize & 63] as char);
        out.push(if chunk.len() > 1 {
            B64[(n >> 6) as usize & 63] as char
        } else {
            '='
        });
        out.push(if chunk.len() > 2 {
            B64[n as usize & 63] as char
        } else {
            '='
        });
    }
    out
}

/// Decodes base64; `None` on malformed input.
pub fn base64_decode(s: &str) -> Option<Vec<u8>> {
    fn val(c: u8) -> Option<u32> {
        match c {
            b'A'..=b'Z' => Some((c - b'A') as u32),
            b'a'..=b'z' => Some((c - b'a' + 26) as u32),
            b'0'..=b'9' => Some((c - b'0' + 52) as u32),
            b'+' => Some(62),
            b'/' => Some(63),
            _ => None,
        }
    }
    let bytes = s.as_bytes();
    if !bytes.len().is_multiple_of(4) {
        return None;
    }
    let mut out = Vec::with_capacity(bytes.len() / 4 * 3);
    for chunk in bytes.chunks(4) {
        let pad = chunk.iter().rev().take_while(|&&c| c == b'=').count();
        if pad > 2 {
            return None;
        }
        let mut n: u32 = 0;
        for (i, &c) in chunk.iter().enumerate() {
            let v = if c == b'=' && i >= 4 - pad {
                0
            } else {
                val(c)?
            };
            n = (n << 6) | v;
        }
        out.push((n >> 16) as u8);
        if pad < 2 {
            out.push((n >> 8) as u8);
        }
        if pad < 1 {
            out.push(n as u8);
        }
    }
    Some(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ids(raw: &[(u32, u32, u32)]) -> Vec<StructuralId> {
        raw.iter()
            .map(|&(p, q, d)| StructuralId::new(p, q, d))
            .collect()
    }

    #[test]
    fn ids_round_trip() {
        let list = ids(&[(1, 10, 1), (3, 3, 2), (6, 8, 3), (1000, 999, 17)]);
        let enc = encode_ids(&list);
        assert_eq!(decode_ids(&enc).unwrap(), list);
    }

    #[test]
    fn empty_list() {
        assert!(encode_ids(&[]).is_empty());
        assert_eq!(decode_ids(&[]).unwrap(), vec![]);
    }

    #[test]
    fn encoding_is_compact() {
        // Sequential IDs with small deltas: ≈3 bytes each vs 12 raw.
        let list: Vec<StructuralId> = (1..=1000).map(|i| StructuralId::new(i, i, 3)).collect();
        let enc = encode_ids(&list);
        assert!(enc.len() < 4500, "encoded {} bytes", enc.len());
    }

    #[test]
    fn malformed_input_is_rejected() {
        assert!(decode_ids(&[0x80]).is_none()); // truncated varint
        assert!(decode_ids(&[0x01]).is_none()); // missing post/depth
        assert!(decode_ids(&[0xff, 0xff, 0xff, 0xff, 0xff, 0xff]).is_none()); // overlong
                                                                              // A 5-byte varint whose top bits exceed u32 must be rejected, not
                                                                              // silently truncated.
        let mut pos = 0;
        assert_eq!(read_varint(&[0xff, 0xff, 0xff, 0xff, 0x1f], &mut pos), None);
        pos = 0;
        assert_eq!(
            read_varint(&[0xff, 0xff, 0xff, 0xff, 0x0f], &mut pos),
            Some(u32::MAX)
        );
    }

    #[test]
    fn chunked_encoding_decodes_to_same_list() {
        let list: Vec<StructuralId> = (1..=500)
            .map(|i| StructuralId::new(i * 3, i * 2, (i % 9) + 1))
            .collect();
        let chunks = encode_ids_chunked(&list, 64);
        assert!(chunks.len() > 1);
        assert!(chunks.iter().all(|c| c.len() <= 64));
        let decoded: Vec<StructuralId> =
            chunks.iter().flat_map(|c| decode_ids(c).unwrap()).collect();
        assert_eq!(decoded, list);
    }

    #[test]
    fn chunks_preserve_global_sort_order() {
        let list: Vec<StructuralId> = (1..=300).map(|i| StructuralId::new(i * 7, i, 2)).collect();
        let chunks = encode_ids_chunked(&list, 32);
        let decoded: Vec<StructuralId> =
            chunks.iter().flat_map(|c| decode_ids(c).unwrap()).collect();
        assert!(decoded.windows(2).all(|w| w[0].pre < w[1].pre));
    }

    #[test]
    fn base64_round_trip() {
        for data in [&b""[..], b"f", b"fo", b"foo", b"foob", b"fooba", b"foobar"] {
            let enc = base64_encode(data);
            assert_eq!(base64_decode(&enc).unwrap(), data);
        }
        assert_eq!(base64_encode(b"foobar"), "Zm9vYmFy");
        assert_eq!(base64_encode(b"foob"), "Zm9vYg==");
    }

    #[test]
    fn base64_rejects_garbage() {
        assert!(base64_decode("a").is_none());
        assert!(base64_decode("!!!!").is_none());
    }

    #[test]
    fn varint_boundaries() {
        for v in [0u32, 1, 127, 128, 16383, 16384, u32::MAX] {
            let mut buf = Vec::new();
            write_varint(v, &mut buf);
            let mut pos = 0;
            assert_eq!(read_varint(&buf, &mut pos), Some(v));
            assert_eq!(pos, buf.len());
        }
    }

    #[test]
    fn skip_varint_matches_read_varint() {
        // skip must accept/reject and advance exactly like read.
        let cases: &[&[u8]] = &[
            &[0x00],
            &[0x7f],
            &[0xff, 0x01],
            &[0xff, 0xff, 0xff, 0xff, 0x0f],
            &[0xff, 0xff, 0xff, 0xff, 0x1f],       // overflow: reject
            &[0xff, 0xff, 0xff, 0xff, 0xff, 0x01], // overlong: reject
            &[0x80],                               // truncated: reject
        ];
        for bytes in cases {
            let (mut p1, mut p2) = (0usize, 0usize);
            let read = read_varint(bytes, &mut p1);
            let skip = skip_varint(bytes, &mut p2);
            assert_eq!(read.is_some(), skip.is_some(), "{bytes:?}");
            if read.is_some() {
                assert_eq!(p1, p2, "{bytes:?}");
            }
        }
    }

    #[test]
    fn block_list_from_flat_matches_decode_ids() {
        let list: Vec<StructuralId> = (0..777u32)
            .map(|i| StructuralId::new(i * 5 + 1, i + 1, (i % 6) + 1))
            .collect();
        let flat = encode_ids(&list);
        let bl = BlockList::from_flat(&flat).unwrap();
        assert_eq!(bl.len(), list.len());
        assert_eq!(bl.decode_all(), decode_ids(&flat).unwrap());
        assert!(BlockList::from_flat(&[0x80]).is_none());
    }

    #[test]
    fn block_list_from_chunks_skips_malformed_chunks() {
        let list: Vec<StructuralId> = (1..=400).map(|i| StructuralId::new(i * 2, i, 3)).collect();
        let chunks = encode_ids_chunked(&list, 64);
        let bl = BlockList::from_chunks(chunks.iter().map(Vec::as_slice));
        assert_eq!(bl.decode_all(), list);
        // A malformed chunk is dropped; the rest survive (chunks are
        // self-anchored), mirroring the flat per-chunk decode path.
        let mut mixed: Vec<&[u8]> = chunks.iter().map(Vec::as_slice).collect();
        let junk: &[u8] = &[0x80];
        mixed.insert(1, junk);
        let bl = BlockList::from_chunks(mixed);
        assert_eq!(bl.decode_all(), list);
    }

    #[test]
    fn cursor_walk_and_skip() {
        let list: Vec<StructuralId> = (0..1000u32)
            .map(|i| StructuralId::new(i * 7 + 3, i + 1, 4))
            .collect();
        let bl = BlockList::from_flat(&encode_ids(&list)).unwrap();
        // Full walk equals the list.
        let mut cur = bl.cursor();
        let mut walked = Vec::new();
        while let Some(id) = cur.peek() {
            walked.push(id);
            cur.advance();
        }
        assert_eq!(walked, list);
        // Skips land on the first ID with pre >= target, monotonically.
        let mut cur = bl.cursor();
        for target in [0u32, 3, 4, 700, 701, 3500, 6996, 6997, 10_000] {
            cur.skip_to_pre(target);
            let expect = list.iter().find(|id| id.pre >= target).copied();
            assert_eq!(cur.peek(), expect, "target {target}");
        }
        cur.reset();
        assert_eq!(cur.peek(), Some(list[0]));
        cur.skip_to_end();
        assert_eq!(cur.peek(), None);
    }

    /// Seeded property test: adversarial lists round-trip identically
    /// through the flat codec and every [`BlockList`] construction path, and cursors agree with a reference scan.
    #[test]
    fn block_codec_property_equivalence() {
        use amada_rng::StdRng;
        for seed in 0..40u64 {
            let mut rng = StdRng::seed_from_u64(0xB10C + seed);
            let list = random_adversarial_list(&mut rng);
            let flat = encode_ids(&list);
            assert_eq!(decode_ids(&flat).unwrap(), list, "seed {seed}");
            let from_flat = BlockList::from_flat(&flat).unwrap();
            assert_eq!(from_flat.decode_all(), list, "seed {seed}");
            assert_eq!(from_flat.len(), list.len(), "seed {seed}");
            let chunks = encode_ids_chunked(&list, rng.gen_range(15..200usize));
            let from_chunks = BlockList::from_chunks(chunks.iter().map(Vec::as_slice));
            assert_eq!(from_chunks.decode_all(), list, "seed {seed}");
            // Random monotone skip/advance sequence vs a reference scan
            // over the plain list, on each construction path.
            for bl in [&from_flat, &from_chunks] {
                let mut cur = bl.cursor();
                let mut ref_pos = 0usize;
                let mut target = 0u32;
                for _ in 0..60 {
                    if rng.gen_bool(0.5) {
                        target = target.saturating_add(rng.gen_range(0..1200u32));
                        cur.skip_to_pre(target);
                        while ref_pos < list.len() && list[ref_pos].pre < target {
                            ref_pos += 1;
                        }
                    } else if ref_pos < list.len() {
                        cur.advance();
                        ref_pos += 1;
                    }
                    assert_eq!(cur.peek(), list.get(ref_pos).copied(), "seed {seed}");
                }
            }
        }
    }

    fn random_adversarial_list(rng: &mut amada_rng::StdRng) -> Vec<StructuralId> {
        let shape = rng.gen_range(0..6u32);
        let n: usize = match shape {
            0 => 0,
            1 => 1,
            _ => rng.gen_range(2..900usize),
        };
        let mut pre = 0u32;
        let mut list = Vec::with_capacity(n);
        for _ in 0..n {
            // dense (delta 1), clustered, or sparse jumps — plus repeated
            // pre (the same node feeding several query levels is legal).
            let delta = match shape {
                2 => 1,
                3 => rng.gen_range(0..3u32),
                _ => rng.gen_range(1..50_000u32),
            };
            pre = pre.saturating_add(delta.max(if pre == 0 { 1 } else { 0 }));
            list.push(StructuralId::new(
                pre,
                rng.gen_range(0..u32::MAX),
                rng.gen_range(1..64u32),
            ));
        }
        if shape == 5 && !list.is_empty() {
            // Pin the tail at the extreme: max-u32 pre.
            list.last_mut().unwrap().pre = u32::MAX;
        }
        list
    }
}
