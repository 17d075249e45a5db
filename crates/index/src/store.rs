//! Mapping index entries onto key-value items, per backend.
//!
//! Paper Section 6: an entry becomes one or more items whose hash key is
//! the entry key and whose range key is a UUID that keeps different
//! documents' items apart under it — here derived from what the item is
//! ([`UuidGen`]), so a re-indexed document overwrites its own; the document
//! URI becomes the attribute name and the entry values the attribute values.
//!
//! Encoding differs by backend capability:
//!
//! * **DynamoDB** — paths are native string values; ID lists are a single
//!   compressed *binary* value (split across items only past the 64 KB
//!   item cap);
//! * **SimpleDB** — no binary values and a 1 KB value cap, so both paths
//!   and ID lists are serialized to a byte blob, base64-coded, and chunked
//!   into ≤ 1 KB string values spread over as many items as needed — the
//!   request/storage amplification behind the paper's Tables 7–8.
//!
//! Chunk order is preserved by prefixing range keys with a zero-padded
//! sequence number, so a plain `get` returns chunks in order per document.

use crate::codec::{
    base64_decode, base64_encode, decode_ids, encode_ids, for_each_id_chunk, BlockList,
};
use crate::strategy::{IndexEntry, Payload};
use amada_cloud::{content_hash, KvItem, KvProfile, KvValue};
use amada_xml::StructuralId;
use std::borrow::Cow;
use std::collections::BTreeMap;
use std::sync::Arc;

/// Names a document's items by what they are — document URI, entry table,
/// entry key, chunk number — never by their position in the document: a
/// version that keeps a key puts it over the item the last version wrote,
/// and a replace leaves stale only the keys the new version lost.
#[derive(Debug, Clone)]
pub struct UuidGen {
    /// Hash of the document URI.
    seed: u64,
}

/// splitmix64's output function over `h + v`, a bijection of `h` for every
/// `v`: chained, components stay ordered and cannot cancel as XOR-ed hashes
/// could, and two documents' keys collide only if their URI hashes do.
fn mix(h: u64, v: u64) -> u64 {
    let mut z = h.wrapping_add(v).wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Writes the low `out.len()` digits of `v` in `radix`, zero-padded.
fn write_digits(out: &mut [u8], mut v: u64, radix: u64) {
    for digit in out.iter_mut().rev() {
        *digit = b"0123456789abcdef"[(v % radix) as usize];
        v /= radix;
    }
}

impl UuidGen {
    /// Seeds the generator from a document URI.
    pub fn for_document(uri: &str) -> UuidGen {
        UuidGen {
            seed: content_hash(uri.as_bytes()),
        }
    }

    /// Chunk sequence numbers the fixed-width range-key prefix can order.
    ///
    /// Past this bound `{seq:06}` would widen to seven digits and sort
    /// *before* the six-digit prefixes (`"1000000-…" < "999999-…"`), so
    /// chunk reassembly would silently interleave. Widening the prefix is
    /// not an option either — item sizes (and therefore billed bytes)
    /// depend on the range-key length — so the generator hard-errors
    /// instead. One entry would need > 10⁶ chunks (≈ 1 GB on SimpleDB) to
    /// get here, far past any per-document payload the pipeline produces.
    pub const MAX_CHUNK_SEQ: usize = 1_000_000;

    /// The range key of `entry`'s chunk number `seq`, `{seq:06}-{uuid}`: the
    /// UUID-shaped token (`8-4-4-4-12` hex digits) is the URI seed mixed with
    /// the entry's table, its key and `seq`, written digit by digit.
    fn range_key(&self, entry: &IndexEntry, seq: usize) -> [u8; RANGE_KEY_BYTES] {
        assert!(
            seq < Self::MAX_CHUNK_SEQ,
            "range-key sequence {seq} overflows the six-digit prefix"
        );
        let table = mix(self.seed, content_hash(entry.table.as_bytes()));
        let a = mix(mix(table, content_hash(entry.key.as_bytes())), seq as u64);
        let b = mix(a, 0);
        let mut key = [b'-'; RANGE_KEY_BYTES];
        write_digits(&mut key[..6], seq as u64, 10);
        let out = &mut key[7..];
        write_digits(&mut out[..8], a >> 32, 16);
        write_digits(&mut out[9..13], a >> 16, 16);
        write_digits(&mut out[14..18], a, 16);
        write_digits(&mut out[19..23], b >> 48, 16);
        write_digits(&mut out[24..36], b, 16);
        key
    }
}

/// A range key as the string it is.
fn key_str(key: &[u8; RANGE_KEY_BYTES]) -> &str {
    std::str::from_utf8(key).expect("decimal and hex digits and dashes")
}

/// Length of every range key: six sequence digits, a dash, a UUID.
const RANGE_KEY_BYTES: usize = 6 + 1 + 36;

/// Base64 chunk size: the largest multiple of 4 not exceeding the 1 KB
/// SimpleDB value cap, so chunks concatenate into valid base64.
const B64_CHUNK: usize = 1024;

/// Prefix marking a blob-encoded path list stored on a binary-capable
/// backend (used when a single path exceeds the per-item budget). `\x01`
/// cannot start a data path (paths start with `/`).
const BLOB_MARKER: &str = "\u{1}b64\u{1}";

/// Slack reserved per item for store bookkeeping when computing budgets.
const ITEM_SLACK: usize = 128;

/// Encodes one extracted entry into store items for the given backend
/// (`&mut`: the signature `benchmark/` calls; the generator steps nothing).
pub fn encode_entry(entry: &IndexEntry, profile: &KvProfile, uuids: &mut UuidGen) -> Vec<KvItem> {
    let mut items = Vec::with_capacity(1);
    encode_entry_into(entry, profile, &mut Vec::new(), uuids, &mut items, None);
    items
}

/// What an item stores, told without making it: 128 bits over its values'
/// kinds, lengths and bytes, in order — two mixing lanes, because "the store
/// already holds this" is more than one 64-bit hash can vouch for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ValueId(u64, u64);

impl ValueId {
    fn of<'v>(values: impl Iterator<Item = KvValue<'v>>) -> ValueId {
        let mut id = ValueId(0, 0x9E37_79B9_7F4A_7C15);
        let mut word = |w: u64| id = ValueId(mix(id.0, w), mix(id.1, w.rotate_left(32)));
        for v in values {
            // Kind and length first: a short last word is then unambiguous.
            word((v.len() as u64) << 1 | u64::from(v.is_binary()));
            for chunk in v.as_bytes().chunks(8) {
                let mut w = [0; 8];
                w[..chunk.len()].copy_from_slice(chunk);
                word(u64::from_le_bytes(w));
            }
        }
        id
    }
}

/// Asked of an item's range key and value before it is made: `false` skips it.
pub type Only<'a> = &'a mut dyn FnMut(&str, ValueId) -> bool;

/// Cuts `entry`'s values into items named by `uuids` and appends them to
/// `items` (the loader encodes a whole document, its ID lists through one
/// `scratch` buffer) — all of them, or the ones `only` lets through. An
/// item shares its hash key and attribute name with the entry; what it
/// allocates is its block, which the entry's values are written straight
/// into.
pub fn encode_entry_into(
    entry: &IndexEntry,
    profile: &KvProfile,
    scratch: &mut Vec<u8>,
    uuids: &UuidGen,
    items: &mut Vec<KvItem>,
    only: Option<Only<'_>>,
) {
    let fixed = entry.key.len() + RANGE_KEY_BYTES + entry.uri.len() + ITEM_SLACK;
    let budget = profile.max_item_bytes.saturating_sub(fixed).max(256);
    let mut cut = Cut {
        entry,
        uuids,
        items,
        only,
        budget,
        max_values: profile.max_attrs_per_item,
        seq: 0,
    };
    match &entry.payload {
        Payload::Presence => cut.items_of(std::iter::once(KvValue::S(""))),
        Payload::Paths(paths)
            if profile.supports_binary && paths.iter().all(|p| p.len() <= budget) =>
        {
            cut.items_of(paths.iter().map(|p| KvValue::S(p)))
        }
        Payload::Paths(paths) => {
            // Either a string-only backend, or a single path exceeds
            // what one item can hold: fall back to the newline-joined
            // blob, chunked into in-budget string values. On a
            // binary-capable backend the first chunk carries a marker so
            // the decoder can tell blob chunks from native path values.
            let marker = if profile.supports_binary {
                BLOB_MARKER
            } else {
                ""
            };
            let text = format!("{marker}{}", base64_encode(paths.join("\n").as_bytes()));
            cut.items_of(blob_values(&text, marker.len()))
        }
        // A chunk closes when the next ID would overflow the budget, and
        // the next chunk starts with that ID, anchored anew: no two
        // chunks fit one item, so each is cut on its own.
        Payload::Ids(ids) if profile.supports_binary => {
            for_each_id_chunk(ids, budget, scratch, |chunk| {
                cut.items_of(std::iter::once(KvValue::B(chunk)))
            })
        }
        Payload::Ids(ids) => cut.items_of(blob_values(&base64_encode(&encode_ids(ids)), 0)),
    }
}

/// Where an entry's values become items.
struct Cut<'a, 'o> {
    entry: &'a IndexEntry,
    uuids: &'a UuidGen,
    items: &'a mut Vec<KvItem>,
    only: Option<Only<'o>>,
    budget: usize,
    max_values: usize,
    /// Items cut so far: the next one's chunk sequence number.
    seq: usize,
}

impl Cut<'_, '_> {
    /// Groups `values` into items within the backend's item budget and
    /// attribute-count limit. An item takes values until it is full —
    /// counted from their lengths, before its block is made; the common
    /// entry fits one item.
    fn items_of<'v>(&mut self, mut values: impl Iterator<Item = KvValue<'v>> + Clone) {
        loop {
            let (mut count, mut bytes) = (0usize, 0usize);
            for v in values.clone() {
                if count > 0 && (bytes + v.len() > self.budget || count >= self.max_values) {
                    break;
                }
                count += 1;
                bytes += v.len();
            }
            if count == 0 {
                return;
            }
            let name = self.uuids.range_key(self.entry, self.seq);
            let item = || values.clone().take(count);
            if (self.only.as_mut()).is_none_or(|only| only(key_str(&name), ValueId::of(item()))) {
                let (key, uri) = (self.entry.key.clone(), self.entry.uri.clone());
                self.items
                    .push(KvItem::new(key, key_str(&name), uri, item()));
            }
            self.seq += 1;
            values.nth(count - 1);
        }
    }
}

/// The string values a blob is stored as: its base64 `text` in chunks of
/// [`B64_CHUNK`], the first one longer by the marker `text` starts with.
fn blob_values(text: &str, marker_len: usize) -> impl Iterator<Item = KvValue<'_>> + Clone {
    let head = (marker_len + B64_CHUNK).min(text.len());
    let tail = (head..text.len())
        .step_by(B64_CHUNK)
        .map(move |at| &text[at..(at + B64_CHUNK).min(text.len())]);
    std::iter::once(&text[..head]).chain(tail).map(KvValue::S)
}

/// One fetched item as the decoders see it: the document URI it is named
/// after, its range key, the item.
type Row<'a> = (&'a Arc<str>, &'a str, &'a KvItem);

/// The fetched items, ordered by document URI and, per document, by range
/// key (i.e. chunk sequence): each document's rows are one run of the
/// vector, and its URI is the `Arc<str>` the items hold.
fn rows_by_uri(items: &[KvItem]) -> Vec<Row<'_>> {
    let mut rows: Vec<Row<'_>> = items
        .iter()
        .map(|item| (&item.uri, item.range_key(), item))
        .collect();
    rows.sort_by(|a, b| (a.0, a.1).cmp(&(b.0, b.1)));
    rows
}

/// The runs of [`rows_by_uri`]: one per document, URIs ascending.
fn documents<'r, 'a>(rows: &'r [Row<'a>]) -> impl Iterator<Item = &'r [Row<'a>]> {
    rows.chunk_by(|a, b| a.0 == b.0)
}

/// Every value of a document's rows, in chunk order.
fn values<'r, 'a>(rows: &'r [Row<'a>]) -> impl Iterator<Item = KvValue<'a>> + 'r {
    rows.iter().flat_map(|&(_, _, item)| item.values())
}

/// Decodes LU presence items into the document URIs, ascending.
pub fn decode_presence_uris(items: &[KvItem]) -> Vec<Arc<str>> {
    documents(&rows_by_uri(items))
        .map(|rows| rows[0].0.clone())
        .collect()
}

/// Decodes LUP items into per-URI path lists; a path is borrowed from
/// its item wherever the item stores it as a value of its own.
pub fn decode_path_lists<'a>(
    items: &'a [KvItem],
    profile: &KvProfile,
) -> BTreeMap<Arc<str>, Vec<Cow<'a, str>>> {
    documents(&rows_by_uri(items))
        .map(|rows| {
            let is_marked_blob = matches!(
                rows[0].2.values().next(),
                Some(KvValue::S(s)) if s.starts_with(BLOB_MARKER)
            );
            let paths: Vec<Cow<'a, str>> = if profile.supports_binary && !is_marked_blob {
                values(rows)
                    .filter_map(|v| match v {
                        KvValue::S(s) => Some(Cow::Borrowed(s)),
                        KvValue::B(_) => None,
                    })
                    .collect()
            } else {
                let blob = reassemble_blob(rows);
                if blob.is_empty() {
                    Vec::new()
                } else {
                    String::from_utf8_lossy(&blob)
                        .split('\n')
                        .map(|p| Cow::Owned(p.to_string()))
                        .collect()
                }
            };
            (rows[0].0.clone(), paths)
        })
        .collect()
}

/// Decodes LUI items into per-URI, `pre`-sorted ID lists.
pub fn decode_id_lists(
    items: &[KvItem],
    profile: &KvProfile,
) -> BTreeMap<Arc<str>, Vec<StructuralId>> {
    documents(&rows_by_uri(items))
        .map(|rows| {
            let ids: Vec<StructuralId> = if profile.supports_binary {
                values(rows)
                    .filter_map(|v| match v {
                        KvValue::B(b) => decode_ids(b),
                        KvValue::S(_) => None,
                    })
                    .flatten()
                    .collect()
            } else {
                decode_ids(&reassemble_blob(rows)).unwrap_or_default()
            };
            (rows[0].0.clone(), ids)
        })
        .collect()
}

/// Decodes LUI items into per-URI block-structured postings.
///
/// Same grouping and per-chunk tolerance as [`decode_id_lists`] (a
/// malformed binary chunk is dropped, a malformed string blob yields an
/// empty list), but the IDs stay in their wire bytes behind
/// [`BlockList`] skip metadata: the twig join decodes only the blocks it
/// lands in.
pub fn decode_id_postings(items: &[KvItem], profile: &KvProfile) -> BTreeMap<Arc<str>, BlockList> {
    documents(&rows_by_uri(items))
        .map(|rows| {
            let list = if profile.supports_binary {
                BlockList::from_chunks(values(rows).filter_map(|v| match v {
                    KvValue::B(b) => Some(b),
                    KvValue::S(_) => None,
                }))
            } else {
                BlockList::from_flat(&reassemble_blob(rows)).unwrap_or_default()
            };
            (rows[0].0.clone(), list)
        })
        .collect()
}

/// The blob a chunk sequence's string values spell in base64 (less the
/// marker a binary-capable backend's first chunk carries).
fn reassemble_blob(rows: &[Row<'_>]) -> Vec<u8> {
    let mut b64 = String::new();
    for v in values(rows) {
        if let KvValue::S(s) = v {
            b64.push_str(s.strip_prefix(BLOB_MARKER).unwrap_or(s));
        }
    }
    base64_decode(&b64).unwrap_or_default()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::strategy::TABLE_MAIN;
    use amada_cloud::{DynamoDb, KvStore, SimpleDb};

    fn dynamo_profile() -> KvProfile {
        DynamoDb::default().profile()
    }

    fn simple_profile() -> KvProfile {
        SimpleDb::default().profile()
    }

    fn entry(payload: Payload) -> IndexEntry {
        IndexEntry {
            table: TABLE_MAIN,
            key: "ename".into(),
            uri: "doc.xml".into(),
            payload,
        }
    }

    fn ids(n: u32) -> Vec<StructuralId> {
        (1..=n)
            .map(|i| StructuralId::new(i * 2, i * 2 - 1, (i % 7) + 1))
            .collect()
    }

    fn named(key: &str) -> IndexEntry {
        IndexEntry {
            key: key.into(),
            ..entry(Payload::Presence)
        }
    }

    fn range_key(uuids: &UuidGen, entry: &IndexEntry, seq: usize) -> String {
        key_str(&uuids.range_key(entry, seq)).to_string()
    }

    #[test]
    fn range_keys_name_uri_table_key_and_chunk_and_nothing_else() {
        let doc = UuidGen::for_document("doc.xml");
        let ename = named("ename");
        let key = range_key(&doc, &ename, 0);
        assert_eq!(key.len(), 6 + 1 + 36);
        // Stateless: asking again, or of another generator of the same
        // URI, after any number of other keys, names the same item.
        let _ = range_key(&doc, &named("wgold"), 3);
        assert_eq!(key, range_key(&doc, &ename, 0));
        assert_eq!(key, range_key(&UuidGen::for_document("doc.xml"), &ename, 0));
        // Each of the four components moves the UUID.
        let uuid = |k: &str| k[7..].to_string();
        let other_table = IndexEntry {
            table: crate::strategy::TABLE_PATH,
            ..named("ename")
        };
        for other in [
            range_key(&UuidGen::for_document("other.xml"), &ename, 0),
            range_key(&doc, &other_table, 0),
            range_key(&doc, &named("wgold"), 0),
            range_key(&doc, &ename, 1),
        ] {
            assert_ne!(uuid(&key), uuid(&other));
        }
        // Swapped components do not cancel: (table, key) is ordered.
        let swapped = IndexEntry {
            table: "ename",
            ..named(TABLE_MAIN)
        };
        assert_ne!(uuid(&key), uuid(&range_key(&doc, &swapped, 0)));
    }

    #[test]
    fn range_keys_order_lexicographically_up_to_the_cap() {
        let g = UuidGen::for_document("doc.xml");
        let e = named("ename");
        let penultimate = range_key(&g, &e, UuidGen::MAX_CHUNK_SEQ - 2);
        let last = range_key(&g, &e, UuidGen::MAX_CHUNK_SEQ - 1);
        assert!(
            penultimate < last,
            "chunk order must follow sequence order at the edge"
        );
        assert_eq!(last.len(), 6 + 1 + 36);
    }

    /// The digit-by-digit writer emits byte for byte what `format!` makes
    /// of the same two words.
    #[test]
    fn range_key_writer_matches_the_format_reference() {
        for i in 0..250 {
            let uuids = UuidGen::for_document(&format!("auctions/doc{i}.xml"));
            let e = named(&format!("wword{i}"));
            for seq in [0, 1, 42, 999_999] {
                let table = mix(uuids.seed, content_hash(e.table.as_bytes()));
                let a = mix(mix(table, content_hash(e.key.as_bytes())), seq as u64);
                let b = mix(a, 0);
                let reference = format!(
                    "{seq:06}-{:08x}-{:04x}-{:04x}-{:04x}-{:012x}",
                    (a >> 32) as u32,
                    (a >> 16) as u16,
                    a as u16,
                    (b >> 48) as u16,
                    b & 0xffff_ffff_ffff
                );
                assert_eq!(range_key(&uuids, &e, seq), reference);
            }
        }
    }

    #[test]
    #[should_panic(expected = "range-key sequence")]
    fn range_key_hard_errors_past_the_sequence_cap() {
        let g = UuidGen::for_document("doc.xml");
        let _ = range_key(&g, &named("ename"), UuidGen::MAX_CHUNK_SEQ);
    }

    /// Asked about every item, the encoder names exactly the items it makes
    /// unasked, in chunk order, on both backends and for chunked entries —
    /// and makes only the ones let through, which it told apart by value.
    #[test]
    fn asked_first_the_encoder_names_every_item_and_makes_the_wanted_ones() {
        let deep = format!("/e{}", "a/e".repeat(40_000));
        let payloads = [
            Payload::Presence,
            Payload::Paths(vec!["/ea/eb".into(), "/ea/ec/ed".into()]),
            Payload::Paths(vec!["/ea/eb".into(), deep]),
            Payload::Ids(ids(100)),
            Payload::Ids(ids(40_000)),
        ];
        for profile in [dynamo_profile(), simple_profile()] {
            for payload in &payloads {
                let e = entry(payload.clone());
                let mut uuids = UuidGen::for_document("doc.xml");
                let items = encode_entry(&e, &profile, &mut uuids);
                let made: Vec<&str> = items.iter().map(KvItem::range_key).collect();
                assert!(made.windows(2).all(|w| w[0] < w[1]), "chunk order");
                let (mut asked, mut odd) = (Vec::new(), Vec::new());
                let mut every_other = |k: &str, v: ValueId| {
                    asked.push((k.to_string(), v));
                    asked.len() % 2 == 1
                };
                let only: Only<'_> = &mut every_other;
                encode_entry_into(&e, &profile, &mut Vec::new(), &uuids, &mut odd, Some(only));
                let names: Vec<&str> = asked.iter().map(|(k, _)| k.as_str()).collect();
                assert_eq!(names, made, "{}", profile.name);
                let wanted: Vec<&KvItem> = items.iter().step_by(2).collect();
                assert_eq!(odd.iter().collect::<Vec<_>>(), wanted, "{}", profile.name);
                // Told apart by value: as many distinct identities as
                // distinct value lists.
                let mut same_id = 0;
                let mut same_values = 0;
                for (i, a) in items.iter().enumerate() {
                    for (j, b) in items.iter().enumerate().skip(i + 1) {
                        same_id += usize::from(asked[i].1 == asked[j].1);
                        same_values += usize::from(a.values().eq(b.values()));
                    }
                }
                assert_eq!(same_id, same_values, "{}", profile.name);
            }
        }
    }

    #[test]
    fn a_value_identity_tells_kind_length_order_and_bytes() {
        let id = |values: &[KvValue<'_>]| ValueId::of(values.iter().copied());
        let base = id(&[KvValue::S("/ea/eb"), KvValue::S("/ea/ec")]);
        assert_eq!(base, id(&[KvValue::S("/ea/eb"), KvValue::S("/ea/ec")]));
        for other in [
            id(&[KvValue::S("/ea/ec"), KvValue::S("/ea/eb")]),
            id(&[KvValue::S("/ea/eb/ea/ec")]),
            id(&[KvValue::S("/ea/eb"), KvValue::S("/ea/e")]),
            id(&[KvValue::S("/ea/eb"), KvValue::B(b"/ea/ec")]),
            id(&[KvValue::S("/ea/eb")]),
            id(&[]),
        ] {
            assert_ne!(base, other);
        }
        // A short last word is not its zero-padded self.
        assert_ne!(id(&[KvValue::B(b"ab")]), id(&[KvValue::B(b"ab\0")]));
        assert_ne!(id(&[KvValue::S("")]), id(&[]));
    }

    #[test]
    fn dynamo_ids_fit_one_binary_value() {
        let mut uuids = UuidGen::for_document("doc.xml");
        let items = encode_entry(
            &entry(Payload::Ids(ids(100))),
            &dynamo_profile(),
            &mut uuids,
        );
        assert_eq!(items.len(), 1);
        assert_eq!(items[0].value_count(), 1);
        assert!(items[0].values().all(|v| v.is_binary()));
        let decoded = decode_id_lists(&items, &dynamo_profile());
        assert_eq!(decoded["doc.xml"], ids(100));
    }

    #[test]
    fn simpledb_ids_chunk_into_string_values() {
        let mut uuids = UuidGen::for_document("doc.xml");
        let list = ids(5000); // ~20 KB encoded → many 1 KB chunks
        let items = encode_entry(
            &entry(Payload::Ids(list.clone())),
            &simple_profile(),
            &mut uuids,
        );
        assert!(!items.is_empty());
        let total_values: usize = items.iter().map(KvItem::value_count).sum();
        assert!(
            total_values > 10,
            "expected many chunks, got {total_values}"
        );
        for item in &items {
            for v in item.values() {
                assert!(!v.is_binary());
                assert!(v.len() <= 1024);
            }
        }
        let decoded = decode_id_lists(&items, &simple_profile());
        assert_eq!(decoded["doc.xml"], list);
    }

    #[test]
    fn simpledb_amplifies_item_count_vs_dynamo() {
        let list = ids(60_000); // ~240 KB encoded
        let mut u1 = UuidGen::for_document("doc.xml");
        let mut u2 = UuidGen::for_document("doc.xml");
        let d = encode_entry(
            &entry(Payload::Ids(list.clone())),
            &dynamo_profile(),
            &mut u1,
        );
        let s = encode_entry(&entry(Payload::Ids(list)), &simple_profile(), &mut u2);
        let d_values: usize = d.iter().map(KvItem::value_count).sum();
        let s_values: usize = s.iter().map(KvItem::value_count).sum();
        assert!(
            s_values > 20 * d_values,
            "SimpleDB values {s_values} vs DynamoDB values {d_values}"
        );
    }

    #[test]
    fn paths_native_on_dynamo_blob_on_simpledb() {
        let paths = vec!["/ea/eb".to_string(), "/ea/ec/ed".to_string()];
        let mut u1 = UuidGen::for_document("doc.xml");
        let d = encode_entry(
            &entry(Payload::Paths(paths.clone())),
            &dynamo_profile(),
            &mut u1,
        );
        assert_eq!(d[0].value_count(), 2);
        let decoded = decode_path_lists(&d, &dynamo_profile());
        assert_eq!(decoded["doc.xml"], paths);

        let mut u2 = UuidGen::for_document("doc.xml");
        let s = encode_entry(
            &entry(Payload::Paths(paths.clone())),
            &simple_profile(),
            &mut u2,
        );
        let decoded = decode_path_lists(&s, &simple_profile());
        assert_eq!(decoded["doc.xml"], paths);
    }

    #[test]
    fn oversized_native_path_falls_back_to_marked_blob() {
        // One path longer than the DynamoDB item budget: the entry must
        // still store and decode losslessly (and every item stays legal).
        let deep = format!("/e{}", "a/e".repeat(40_000));
        let paths = vec!["/ea/eb".to_string(), deep.clone()];
        let mut uuids = UuidGen::for_document("doc.xml");
        let items = encode_entry(
            &entry(Payload::Paths(paths.clone())),
            &dynamo_profile(),
            &mut uuids,
        );
        for i in &items {
            assert!(
                i.byte_size() <= dynamo_profile().max_item_bytes,
                "{}",
                i.byte_size()
            );
        }
        let decoded = decode_path_lists(&items, &dynamo_profile());
        assert_eq!(decoded["doc.xml"], paths);
    }

    #[test]
    fn presence_round_trip_multiple_documents() {
        let mut items = Vec::new();
        for uri in ["b.xml", "a.xml"] {
            let mut uuids = UuidGen::for_document(uri);
            let e = IndexEntry {
                table: TABLE_MAIN,
                key: "ename".into(),
                uri: uri.into(),
                payload: Payload::Presence,
            };
            items.extend(encode_entry(&e, &dynamo_profile(), &mut uuids));
        }
        assert_eq!(
            decode_presence_uris(&items),
            ["a.xml".into(), "b.xml".into()]
        );
    }

    #[test]
    fn round_trip_through_real_stores() {
        use amada_cloud::SimTime;
        for (mut store, profile) in [
            (
                Box::new(DynamoDb::default()) as Box<dyn KvStore>,
                dynamo_profile(),
            ),
            (
                Box::new(SimpleDb::default()) as Box<dyn KvStore>,
                simple_profile(),
            ),
        ] {
            store.ensure_table(TABLE_MAIN);
            let list = ids(2000);
            let mut uuids = UuidGen::for_document("doc.xml");
            let items = encode_entry(&entry(Payload::Ids(list.clone())), &profile, &mut uuids);
            for batch in items.chunks(profile.batch_put_limit) {
                store
                    .batch_put(SimTime::ZERO, TABLE_MAIN, batch.to_vec())
                    .unwrap();
            }
            let (fetched, _) = store.get(SimTime::ZERO, TABLE_MAIN, "ename").unwrap();
            let decoded = decode_id_lists(&fetched, &profile);
            assert_eq!(decoded["doc.xml"], list, "backend {}", profile.name);
        }
    }

    #[test]
    fn large_id_lists_split_across_dynamo_items() {
        // >64 KB encoded must produce multiple items, all within limits.
        let list = ids(40_000);
        let mut uuids = UuidGen::for_document("doc.xml");
        let items = encode_entry(
            &entry(Payload::Ids(list.clone())),
            &dynamo_profile(),
            &mut uuids,
        );
        assert!(items.len() > 1);
        for i in &items {
            assert!(i.byte_size() <= dynamo_profile().max_item_bytes);
        }
        let decoded = decode_id_lists(&items, &dynamo_profile());
        assert_eq!(decoded["doc.xml"], list);
    }
}
