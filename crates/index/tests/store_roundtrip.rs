//! Seeded property tests for the store codec: `encode_entry` →
//! (optionally a real backend) → `decode_*` must be lossless for every
//! payload shape, on both backend profiles, including profiles with
//! shrunken `max_item_bytes` / `max_attrs_per_item` budgets that force
//! aggressive chunking. Until now only the integration paths exercised
//! these combinations.

use amada_cloud::{DynamoDb, KvProfile, KvStore, SimTime, SimpleDb};
use amada_index::store::{decode_id_lists, decode_path_lists, decode_presence_uris, encode_entry};
use amada_index::{IndexEntry, Payload, UuidGen, TABLE_MAIN};
use amada_rng::StdRng;
use amada_xml::StructuralId;

/// The two real profiles plus shrunken-budget variants of each.
fn profiles_under_test() -> Vec<KvProfile> {
    let base = [DynamoDb::default().profile(), SimpleDb::default().profile()];
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
        if item.attrs[0].1.len() > profile.max_attrs_per_item {
            return Err(format!(
                "item holds {} values, profile allows {}",
                item.attrs[0].1.len(),
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
        for (mut store, profile) in [
            (
                Box::new(DynamoDb::default()) as Box<dyn KvStore>,
                DynamoDb::default().profile(),
            ),
            (
                Box::new(SimpleDb::default()) as Box<dyn KvStore>,
                SimpleDb::default().profile(),
            ),
        ] {
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
