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

/// Reads one ID written by [`write_id`] after `prev_pre`; `None` on
/// malformed input, a `pre` past `u32::MAX` included.
fn read_id(bytes: &[u8], pos: &mut usize, prev_pre: u32) -> Option<StructuralId> {
    let pre = prev_pre.checked_add(read_varint(bytes, pos)?)?;
    Some(StructuralId::new(
        pre,
        read_varint(bytes, pos)?,
        read_varint(bytes, pos)?,
    ))
}

/// Decodes an ID list; `None` on malformed input.
pub fn decode_ids(bytes: &[u8]) -> Option<Vec<StructuralId>> {
    let mut ids = Vec::new();
    decode_ids_into(bytes, &mut ids)?;
    Some(ids.into_iter().map(|(id, ())| id).collect())
}

/// Decodes an ID list onto the end of `out`, in the form the twig join
/// reads; `None` on malformed input, which leaves `out` as it was.
pub fn decode_ids_into(bytes: &[u8], out: &mut Vec<(StructuralId, ())>) -> Option<()> {
    let start = out.len();
    let (mut pos, mut prev_pre) = (0, 0u32);
    while pos < bytes.len() {
        let Some(id) = read_id(bytes, &mut pos, prev_pre) else {
            out.truncate(start);
            return None;
        };
        prev_pre = id.pre;
        out.push((id, ()));
    }
    Some(())
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

    /// The chunks of [`for_each_id_chunk`], collected.
    fn encode_ids_chunked(ids: &[StructuralId], max_bytes: usize) -> Vec<Vec<u8>> {
        let mut chunks = Vec::new();
        for_each_id_chunk(ids, max_bytes, &mut Vec::new(), |chunk| {
            chunks.push(chunk.to_vec())
        });
        chunks
    }

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
    fn a_malformed_list_appends_nothing() {
        let list = ids(&[(1, 10, 1), (3, 3, 2), (6, 8, 1)]);
        let first = (StructuralId::new(0, 0, 0), ());
        let mut out = vec![first];
        assert_eq!(decode_ids_into(&encode_ids(&list), &mut out), Some(()));
        assert_eq!(out.len(), 4);
        // A valid ID followed by a truncated one: the whole list is refused.
        let mut bad = encode_ids(&list[..1]);
        bad.push(0x80);
        out.truncate(1);
        assert_eq!(decode_ids_into(&bad, &mut out), None);
        assert_eq!(out, [first]);
        // A delta that carries `pre` past u32::MAX is malformed too.
        let mut over = encode_ids(&ids(&[(u32::MAX, 1, 1)]));
        write_varint(1, &mut over);
        write_varint(1, &mut over);
        write_varint(1, &mut over);
        assert_eq!(decode_ids(&over), None);
    }

    /// Seeded property test: adversarial lists round-trip identically
    /// through the flat codec and through its chunks.
    #[test]
    fn adversarial_lists_round_trip_flat_and_chunked() {
        use amada_rng::StdRng;
        for seed in 0..40u64 {
            let mut rng = StdRng::seed_from_u64(0xB10C + seed);
            let list = random_adversarial_list(&mut rng);
            assert_eq!(decode_ids(&encode_ids(&list)).unwrap(), list, "seed {seed}");
            let chunks = encode_ids_chunked(&list, rng.gen_range(15..200usize));
            let decoded: Vec<StructuralId> =
                chunks.iter().flat_map(|c| decode_ids(c).unwrap()).collect();
            assert_eq!(decoded, list, "seed {seed}");
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
