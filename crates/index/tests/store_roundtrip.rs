//! Seeded property tests for the store codec: `encode_entry` →
//! (optionally a real backend) → `decode_*` must be lossless for every
//! payload shape, on both backend profiles, including profiles with
//! shrunken `max_item_bytes` / `max_attrs_per_item` budgets that force
//! aggressive chunking. Until now only the integration paths exercised
//! these combinations. And for the block an item is stored as: any range
//! key and value list round-trips, and the header's sizes are the values'.

use amada_cloud::kv::ItemTable;
use amada_cloud::{KvBackend, KvItem, KvProfile, KvStore, KvValue, SimTime};
use amada_index::store::{decode_id_lists, decode_path_lists, decode_presence_uris, encode_entry};
use amada_index::{IndexEntry, Payload, UuidGen, TABLE_MAIN};
use amada_rng::StdRng;
use amada_xml::StructuralId;
use std::collections::BTreeMap;

/// The two real profiles plus shrunken-budget variants of each.
fn profiles_under_test() -> Vec<KvProfile> {
    let base = [KvBackend::Dynamo, KvBackend::Simple].map(|b| b.profile());
    let mut out = Vec::new();
    for p in base {
        out.push(p);
        for max_item_bytes in [640, 1500, 4096] {
            for max_attrs_per_item in [1, 3, 64] {
                let mut q = p;
                q.max_item_bytes = max_item_bytes;
                q.max_attrs_per_item = max_attrs_per_item;
                out.push(q);
            }
        }
    }
    out
}

fn random_label(rng: &mut StdRng, max_len: usize) -> String {
    const ALPHABET: &[u8] = b"abcdefghijklmnopqrstuvwxyz0123456789_";
    let len = rng.gen_range(1..=max_len);
    (0..len)
        .map(|_| ALPHABET[rng.gen_range(0..ALPHABET.len())] as char)
        .collect()
}

/// A data path like the extractor produces: `/`-joined labels, never
/// containing `\n` (the blob separator) — occasionally deep enough to
/// overflow a per-item budget and force the marked-blob fallback.
fn random_path(rng: &mut StdRng) -> String {
    let comps = if rng.gen_bool(0.05) {
        rng.gen_range(100..400usize)
    } else {
        rng.gen_range(1..=8usize)
    };
    let mut p = String::new();
    for _ in 0..comps {
        p.push('/');
        p.push('e');
        p.push_str(&random_label(rng, 10));
    }
    p
}

fn random_ids(rng: &mut StdRng) -> Vec<StructuralId> {
    let n = rng.gen_range(1..=1500usize);
    let mut pre = 0u32;
    (0..n)
        .map(|_| {
            // Pre-sorted, as the extractor guarantees; gaps exercise the
            // delta varints across 1- to 5-byte widths.
            pre = pre.saturating_add(rng.gen_range(1..=100_000u32));
            StructuralId::new(pre, rng.next_u64() as u32, rng.gen_range(1..=64u32))
        })
        .collect()
}

fn random_payload(rng: &mut StdRng) -> Payload {
    match rng.gen_range(0..4u32) {
        0 => Payload::Presence,
        1 => Payload::Paths(
            (0..rng.gen_range(1..=40usize))
                .map(|_| random_path(rng))
                .collect(),
        ),
        _ => Payload::Ids(random_ids(rng)),
    }
}

fn round_trips(entry: &IndexEntry, profile: &KvProfile) -> Result<(), String> {
    let mut uuids = UuidGen::for_document(&entry.uri);
    let items = encode_entry(entry, profile, &mut uuids);
    for item in &items {
        if item.value_count() > profile.max_attrs_per_item {
            return Err(format!(
                "item holds {} values, profile allows {}",
                item.value_count(),
                profile.max_attrs_per_item
            ));
        }
    }
    let ok = match &entry.payload {
        Payload::Presence => decode_presence_uris(&items) == [entry.uri.clone()],
        Payload::Paths(paths) => decode_path_lists(&items, profile)
            .get(&entry.uri)
            .is_some_and(|decoded| decoded == paths),
        Payload::Ids(ids) => decode_id_lists(&items, profile).get(&*entry.uri) == Some(ids),
    };
    if ok {
        Ok(())
    } else {
        Err("decoded payload differs from the encoded one".to_string())
    }
}

#[test]
fn random_payloads_round_trip_across_profiles_and_budgets() {
    let profiles = profiles_under_test();
    let mut rng = StdRng::seed_from_u64(0x0C0D_EC01);
    for case in 0..400 {
        let entry = IndexEntry {
            table: TABLE_MAIN,
            key: format!("e{}", random_label(&mut rng, 24)).into(),
            uri: format!("{}.xml", random_label(&mut rng, 16)).into(),
            payload: random_payload(&mut rng),
        };
        let profile = profiles[rng.gen_range(0..profiles.len())];
        if let Err(why) = round_trips(&entry, &profile) {
            panic!(
                "case {case}: {why}\n  profile {} (item {} B, {} attrs)\n  key {:?} uri {:?} payload {:?}",
                profile.name,
                profile.max_item_bytes,
                profile.max_attrs_per_item,
                entry.key,
                entry.uri,
                kind(&entry.payload),
            );
        }
    }
}

#[test]
fn random_payloads_round_trip_through_real_stores() {
    let mut rng = StdRng::seed_from_u64(0x5704_43ED);
    for case in 0..60 {
        let entry = IndexEntry {
            table: TABLE_MAIN,
            key: format!("e{}", random_label(&mut rng, 16)).into(),
            uri: format!("{}.xml", random_label(&mut rng, 12)).into(),
            payload: random_payload(&mut rng),
        };
        for mut store in [KvStore::default(), KvStore::new(KvBackend::Simple)] {
            let profile = store.profile();
            store.ensure_table(TABLE_MAIN);
            let mut uuids = UuidGen::for_document(&entry.uri);
            let items = encode_entry(&entry, &profile, &mut uuids);
            for batch in items.chunks(profile.batch_put_limit.max(1)) {
                store
                    .batch_put(SimTime::ZERO, TABLE_MAIN, batch.to_vec())
                    .unwrap();
            }
            let (fetched, _) = store.get(SimTime::ZERO, TABLE_MAIN, &entry.key).unwrap();
            let ok = match &entry.payload {
                Payload::Presence => decode_presence_uris(&fetched) == [entry.uri.clone()],
                Payload::Paths(paths) => decode_path_lists(&fetched, &profile)
                    .get(&entry.uri)
                    .is_some_and(|decoded| decoded == paths),
                Payload::Ids(ids) => {
                    decode_id_lists(&fetched, &profile).get(&*entry.uri) == Some(ids)
                }
            };
            assert!(
                ok,
                "case {case}: {} store round-trip lost the {} payload for key {:?}",
                profile.name,
                kind(&entry.payload),
                entry.key
            );
        }
    }
}

fn kind(p: &Payload) -> &'static str {
    match p {
        Payload::Presence => "presence",
        Payload::Paths(_) => "paths",
        Payload::Ids(_) => "ids",
    }
}

/// What `encode_entry` makes of 1 500 random entries under the shrunken
/// budgets — every range key, value and cut between items — digested:
/// `tests/item_layout.rs` pins the workload's one-item entries, this pins
/// the many-item ones. The digest was last taken when range keys became
/// name-based; item count and item bytes are the parent's, unmoved.
#[test]
fn many_item_encodings_are_pinned() {
    let profiles = profiles_under_test();
    let mut rng = StdRng::seed_from_u64(0x00D1_6E57);
    let mut bytes: Vec<u8> = Vec::new();
    let mut field = |tag: u8, data: &[u8]| {
        bytes.push(tag);
        bytes.extend_from_slice(&(data.len() as u64).to_le_bytes());
        bytes.extend_from_slice(data);
    };
    let (mut entries, mut items, mut item_bytes) = (0, 0, 0);
    for _ in 0..1500 {
        let entry = IndexEntry {
            table: TABLE_MAIN,
            key: format!("e{}", random_label(&mut rng, 24)).into(),
            uri: format!("{}.xml", random_label(&mut rng, 16)).into(),
            payload: random_payload(&mut rng),
        };
        let profile = profiles[rng.gen_range(0..profiles.len())];
        let mut uuids = UuidGen::for_document(&entry.uri);
        entries += 1;
        for item in encode_entry(&entry, &profile, &mut uuids) {
            items += 1;
            item_bytes += item.byte_size();
            field(b'h', item.hash_key.as_bytes());
            field(b'r', item.range_key().as_bytes());
            field(b'a', item.uri.as_bytes());
            for value in item.values() {
                match value {
                    KvValue::S(s) => field(b's', s.as_bytes()),
                    KvValue::B(b) => field(b'b', b),
                }
            }
        }
    }
    assert_eq!((entries, items, item_bytes), (1500, 7290, 7_471_653));
    assert_eq!(amada_cloud::content_hash(&bytes), 0x82ae_5537_d38a_2e93);
}

/// A generated value: a string, or `Err` a binary one.
type Value = Result<String, Vec<u8>>;

fn view(value: &Value) -> KvValue<'_> {
    match value {
        Ok(s) => KvValue::S(s),
        Err(b) => KvValue::B(b),
    }
}

/// Empty, non-ASCII, short random and — rarely — 64 KB values, of both kinds.
fn random_value(rng: &mut StdRng) -> Value {
    let bytes = match rng.gen_range(0..40u32) {
        0 => 64 * 1024,
        1..=9 => 0,
        _ => rng.gen_range(1..=48usize),
    };
    match rng.gen_range(0..3u32) {
        0 => Err((0..bytes).map(|_| rng.next_u64() as u8).collect()),
        1 => Ok("päth/日本"
            .chars()
            .cycle()
            .take(bytes.div_ceil(2))
            .collect()),
        _ => Ok(random_label(rng, bytes.max(1))[..bytes.min(1)].repeat(bytes)),
    }
}

#[test]
fn a_block_round_trips_any_range_key_and_values_and_orders_by_the_key() {
    // The item table keeps a range key's first 16 bytes inline: keys
    // shorter than that, exactly that, tying on it, and not ASCII.
    const PREFIX: &str = "0123456789abcdef";
    let mut rng = StdRng::seed_from_u64(0xB10C_0001);
    let mut table = ItemTable::default();
    let mut expected: BTreeMap<String, Vec<Value>> = BTreeMap::new();
    for case in 0..400 {
        let range = match rng.gen_range(0..4u32) {
            0 => PREFIX[..rng.gen_range(0..=16usize)].to_string(),
            1 => format!("{PREFIX}{}", random_label(&mut rng, 3)),
            2 => format!("{}\0{}", &PREFIX[..8], random_label(&mut rng, 12)),
            _ => format!("é{}", random_label(&mut rng, 40)),
        };
        let count = *rng.choose(&[0usize, 1, 1, 2, 3, 7, 256]);
        let values: Vec<Value> = (0..count).map(|_| random_value(&mut rng)).collect();
        let item = KvItem::new(
            "hash".into(),
            &range,
            "doc.xml".into(),
            values.iter().map(view),
        );
        assert_eq!(item.range_key(), range, "case {case}");
        let views: Vec<KvValue> = values.iter().map(view).collect();
        assert!(item.values().eq(views.iter().copied()), "case {case}");
        assert_eq!(item.value_count(), count, "case {case}");
        let payload: usize = views.iter().map(KvValue::len).sum();
        let size = "hash".len() + range.len() + "doc.xml".len() + payload;
        assert_eq!(item.byte_size(), size, "case {case}");
        // Same key, same item out; a stored range key is replaced whole.
        let replaced = table.put(item.clone()).is_some();
        assert_eq!(
            replaced,
            expected.insert(range, values).is_some(),
            "case {case}"
        );
    }
    // Plain byte order of the range keys — `String`'s own.
    let stored: Vec<KvItem> = table.rows("hash").collect();
    assert!(stored
        .iter()
        .map(KvItem::range_key)
        .eq(expected.keys().map(String::as_str)));
    for (item, values) in stored.iter().zip(expected.values()) {
        assert!(item.values().eq(values.iter().map(view)));
    }
    assert!(
        (100..400).contains(&expected.len()),
        "some keys were replaced"
    );
}
