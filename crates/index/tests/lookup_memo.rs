//! The look-up memo (`ExtractCache`'s fourth): a look-up over the very
//! items the last look-up of its pattern read answers from the memo, and
//! from nothing else.
//!
//! * a warm look-up equals a cold one field for field, on random corpora
//!   and random patterns, under every strategy and on both backends;
//! * a put, a replacement (equal bytes, a new block) or a delete under one
//!   fetched key turns exactly the look-ups that read the key into misses,
//!   and each miss equals a cold look-up;
//! * two stores with different content under the same keys, alternating
//!   on one pattern, never receive each other's outcome;
//! * `clear()` empties the memo.
//!
//! The memo is process-wide and these tests read its counters, so they run
//! one at a time, and this binary holds no other test.

mod common;

use amada_cloud::{KvBackend, KvItem, KvStore, SimTime};
use amada_index::{
    extract, index_documents, lookup_pattern_in, write_entries, ExtractCache, ExtractOptions,
    LookupOutcome, Strategy, WriteSet,
};
use amada_pattern::{parse_pattern, TreePattern};
use amada_rng::StdRng;
use amada_xml::Document;
use common::{corpus, gen_pattern};
use std::sync::{Arc, Mutex};

static SERIAL: Mutex<()> = Mutex::new(());

fn serial() -> std::sync::MutexGuard<'static, ()> {
    SERIAL
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner())
}

fn backends() -> [KvBackend; 2] {
    [KvBackend::Dynamo, KvBackend::Simple]
}

/// Everything a look-up reports.
type Fields = (Vec<Arc<str>>, u64, u64, SimTime);

fn fields(o: LookupOutcome) -> Fields {
    (o.uris, o.entries_processed, o.get_ops, o.ready_at)
}

fn lookup(store: &mut KvStore, strategy: Strategy, pattern: &TreePattern) -> Fields {
    let opts = ExtractOptions::default();
    fields(lookup_pattern_in(store, SimTime::ZERO, strategy, opts, pattern).expect("tables exist"))
}

/// The memo's `[hits, misses]` since `before`.
fn since(before: [u64; 2]) -> [u64; 2] {
    let [hits, misses] = ExtractCache::shared().lookup_stats();
    [hits - before[0], misses - before[1]]
}

/// Two stores built by the same writes of the same blocks, at the same
/// times: what two warehouses sharing the cache's write sets hold.
fn twins(backend: KvBackend, docs: &[Document], strategy: Strategy) -> [KvStore; 2] {
    let mut stores = [KvStore::new(backend), KvStore::new(backend)];
    let profile = stores[0].profile();
    for store in &mut stores {
        for table in strategy.tables() {
            store.ensure_table(table);
        }
    }
    let mut t = [SimTime::ZERO; 2];
    for d in docs {
        let set = WriteSet::encode(
            &extract(d, strategy, ExtractOptions::default()),
            &profile,
            d.uri(),
        );
        for (store, t) in stores.iter_mut().zip(&mut t) {
            *t = write_entries(store, *t, &set).expect("writes fit").1;
        }
    }
    stores
}

#[test]
fn a_warm_lookup_equals_a_cold_one() {
    let _serial = serial();
    let (mut hits, mut cases_with_candidates) = (0, 0);
    for case in 0..64u64 {
        let mut rng = StdRng::seed_from_u64(0x4E40_0000 + case);
        let docs = corpus(rng.gen_range(0..8u64));
        let pattern = gen_pattern(&mut rng);
        for backend in backends() {
            for strategy in Strategy::ALL {
                let [mut cold_store, mut warm_store] = twins(backend, &docs, strategy);
                ExtractCache::shared().clear();
                let before = ExtractCache::shared().lookup_stats();
                let cold = lookup(&mut cold_store, strategy, &pattern);
                let [cold_hits, probes] = since(before);
                let before = ExtractCache::shared().lookup_stats();
                let warm = lookup(&mut warm_store, strategy, &pattern);
                let what = format!("case {case}, {} / {strategy}", backend.profile().name);
                assert_eq!(cold_hits, 0, "{what}: a cleared memo has nothing to hit");
                assert_eq!(since(before), [probes, 0], "{what}: the warm look-up hits");
                assert_eq!(warm, cold, "{what}\n{pattern:?}");
                hits += probes;
                cases_with_candidates += u64::from(!cold.0.is_empty());
            }
        }
    }
    // 64 cases × 4 strategies × 2 backends, 2LUPI's ID phase among them.
    assert!(hits > 512, "{hits} hits");
    assert!(
        cases_with_candidates > 64,
        "{cases_with_candidates} with candidates"
    );
}

const PAINTING: &str = "//painting[/name{val}]";
const SCULPTURE: &str = "//sculpture[/year{val}]";

fn gallery() -> Vec<Document> {
    let doc = |uri: &str, xml: &str| Document::parse_str(uri, xml).expect("test XML parses");
    vec![
        doc(
            "lion.xml",
            "<painting><name>Lion Hunt</name><year>1854</year></painting>",
        ),
        doc(
            "raft.xml",
            "<painting><name>The Raft</name><year>1819</year></painting>",
        ),
        doc(
            "david.xml",
            "<sculpture><name>David</name><year>1504</year></sculpture>",
        ),
        doc(
            "thinker.xml",
            "<sculpture><name>Thinker</name><year>1880</year></sculpture>",
        ),
    ]
}

/// `lion.xml`'s first stored item under `key` in `table`.
fn lions_item(store: &KvStore, table: &str, key: &str) -> KvItem {
    let items = store.peek_all().into_iter();
    let mut under =
        items.filter(|(t, item)| t == table && &*item.hash_key == key && &*item.uri == "lion.xml");
    under.next().expect("the key holds an item of lion.xml").1
}

/// Writes `mutation` under `key` in `table`: a new document's item, an
/// item of `lion.xml` rewritten with its own bytes (a new block), or one
/// deleted — under 2LUPI's path table, `R₁` loses the painting while the
/// ID table stays as it was.
fn mutate(store: &mut KvStore, table: &str, key: &str, mutation: &str) {
    let item = lions_item(store, table, key);
    let at = SimTime::ZERO;
    let values: Vec<_> = item.values().collect();
    let rewritten = |range_key: &str, uri: &str| {
        KvItem::new(
            item.hash_key.clone(),
            range_key,
            uri.into(),
            values.iter().cloned(),
        )
    };
    let written = match mutation {
        "put" => store.batch_put(at, table, vec![rewritten("zz-new", "zz.xml")]),
        "replace" => store.batch_put(at, table, vec![rewritten(item.range_key(), &item.uri)]),
        _ => {
            let keys = [(key.to_string(), item.range_key().to_string())];
            store.batch_delete(at, table, &keys)
        }
    };
    written.expect("the store takes the write");
}

#[test]
fn a_write_under_a_fetched_key_misses_only_the_lookups_that_read_it() {
    let _serial = serial();
    let (reads, other) = (
        parse_pattern(PAINTING).unwrap(),
        parse_pattern(SCULPTURE).unwrap(),
    );
    // `ename` feeds the painting pattern under every strategy (LUP's and
    // 2LUPI's terminal, LU's and LUI's stream); the sculpture pattern
    // never reads it.
    for backend in backends() {
        for strategy in Strategy::ALL {
            for &table in strategy.tables() {
                for mutation in ["put", "replace", "delete"] {
                    let what = format!(
                        "{} / {strategy}: {mutation} in {table}",
                        backend.profile().name
                    );
                    // Both twins make the same calls at the same times; after
                    // the write, the memo is warm for the first and cleared
                    // for the second.
                    let mut twins = twins(backend, &gallery(), strategy);
                    let mut runs: Vec<[Fields; 2]> = Vec::new();
                    for (i, store) in twins.iter_mut().enumerate() {
                        ExtractCache::shared().clear();
                        let warmed = [&reads, &other].map(|p| lookup(store, strategy, p));
                        mutate(store, table, "ename", mutation);
                        if i == 1 {
                            ExtractCache::shared().clear();
                        }
                        let before = ExtractCache::shared().lookup_stats();
                        let read = lookup(store, strategy, &reads);
                        let [read_hits, read_misses] = since(before);
                        let before = ExtractCache::shared().lookup_stats();
                        let untouched = lookup(store, strategy, &other);
                        let [other_hits, other_misses] = since(before);
                        if i == 0 {
                            assert!(read_misses >= 1, "{what}: a look-up of the key misses");
                            assert_eq!(other_misses, 0, "{what}: the other look-up hits");
                            assert!(other_hits >= 1, "{what}");
                        } else {
                            assert_eq!(read_hits + other_hits, 0, "{what}: cold");
                        }
                        assert_eq!((&untouched.0, untouched.1), (&warmed[1].0, warmed[1].1));
                        runs.push([read, untouched]);
                    }
                    assert_eq!(
                        runs[0], runs[1],
                        "{what}: warm-memo look-ups equal cold ones"
                    );
                }
            }
        }
    }
}

#[test]
fn stores_with_other_content_under_one_pattern_never_share_an_outcome() {
    let _serial = serial();
    let pattern = parse_pattern(PAINTING).unwrap();
    // The same URIs and keys; the second store holds other documents'
    // bytes under them.
    let docs = gallery();
    let shifted: Vec<Document> = (0..docs.len())
        .map(|i| {
            let xml = docs[(i + 1) % docs.len()].to_xml();
            Document::parse_str(docs[i].uri(), &xml).expect("re-parses")
        })
        .collect();
    assert!(docs.iter().zip(&shifted).all(|(a, b)| a.uri() == b.uri()));
    for backend in backends() {
        for strategy in Strategy::ALL {
            let opts = ExtractOptions::default();
            let mut stores = [&docs, &shifted].map(|docs| {
                let mut store = KvStore::new(backend);
                index_documents(&mut store, docs, strategy, opts);
                store
            });
            ExtractCache::shared().clear();
            let before = ExtractCache::shared().lookup_stats();
            let first = stores.each_mut().map(|s| lookup(s, strategy, &pattern));
            assert_ne!(
                first[0].0, first[1].0,
                "{strategy}: the stores answer differently"
            );
            for _ in 0..3 {
                for (store, first) in stores.iter_mut().zip(&first) {
                    let got = lookup(store, strategy, &pattern);
                    assert_eq!((&got.0, got.1), (&first.0, first.1), "{strategy}");
                }
            }
            assert_eq!(
                since(before)[0],
                0,
                "{strategy}: no look-up hit the other store's entry"
            );
        }
    }
}

#[test]
fn clear_empties_the_memo() {
    let _serial = serial();
    let pattern = parse_pattern(PAINTING).unwrap();
    for strategy in Strategy::ALL {
        let mut store = KvStore::default();
        index_documents(&mut store, &gallery(), strategy, ExtractOptions::default());
        ExtractCache::shared().clear();
        let before = ExtractCache::shared().lookup_stats();
        let first = lookup(&mut store, strategy, &pattern);
        let [_, probes] = since(before);
        assert!(probes >= 1, "{strategy}");
        let before = ExtractCache::shared().lookup_stats();
        let warm = lookup(&mut store, strategy, &pattern);
        assert_eq!(since(before), [probes, 0], "{strategy}: warm");
        ExtractCache::shared().clear();
        let before = ExtractCache::shared().lookup_stats();
        let cleared = lookup(&mut store, strategy, &pattern);
        assert_eq!(since(before), [0, probes], "{strategy}: after clear()");
        assert_eq!((&first.0, first.1), (&warm.0, warm.1));
        assert_eq!((&first.0, first.1), (&cleared.0, cleared.1));
    }
}
