//! Host parallelism and host memos must be invisible in virtual time: the
//! parallel cache-prewarm stage only moves host work earlier and the
//! evaluation memo only skips host work, so every simulated outcome —
//! index-build reports, virtual times, costs, query results — must be
//! identical with prewarming on, off, under any host thread count, and
//! with the cache emptied before every query.
//!
//! Reports don't implement `PartialEq` (they carry many float-valued cost
//! fields that should be *bit*-identical here, not approximately equal),
//! so the comparison goes through their exhaustive `Debug` rendering.

use amada_cloud::{KvBackend, KvItem, KvStore, KvTuning, SimTime};
use amada_core::{Warehouse, WarehouseConfig};
use amada_index::store::encode_entry;
use amada_index::{extract, write_entries, ExtractCache, ExtractOptions, Strategy, UuidGen};
use amada_xmark::{generate_corpus, CorpusConfig};
use amada_xml::Document;

fn corpus() -> Vec<(String, String)> {
    let cfg = CorpusConfig {
        seed: 0x00AB_1DE5,
        num_documents: 16,
        target_doc_bytes: 1000,
    };
    generate_corpus(&cfg)
        .into_iter()
        .map(|d| (d.uri, d.xml))
        .collect()
}

/// Builds the index and runs part of the workload, returning the Debug
/// renderings of every report produced along the way; `cold` empties the
/// process-wide cache before every query, so each one parses and
/// evaluates every candidate afresh on the host.
fn run(strategy: Strategy, prewarm: bool, cold: bool) -> Vec<String> {
    let mut cfg = WarehouseConfig::with_strategy(strategy);
    cfg.host.prewarm = prewarm;
    let mut w = Warehouse::new(cfg);
    w.upload_documents(corpus());
    let mut out = vec![format!("{:?}", w.build_index())];
    for q in amada_xmark::workload().iter().take(4) {
        if cold {
            w.cache().clear();
        }
        out.push(format!("{:?}", w.run_query(q)));
    }
    out
}

#[test]
fn prewarm_and_thread_count_do_not_change_virtual_outcomes() {
    // One test function on purpose: it manipulates the process-wide
    // AMADA_THREADS variable, which concurrent tests would race on.
    for strategy in Strategy::ALL {
        let baseline = run(strategy, false, false);
        // The baseline filled the evaluation memo: this side runs warm.
        let warm = run(strategy, true, false);
        assert_eq!(warm, baseline, "{strategy:?}: prewarm on vs off");
        assert_eq!(
            run(strategy, true, true),
            warm,
            "{strategy:?}: evaluation memo cold vs warm"
        );

        std::env::set_var("AMADA_THREADS", "1");
        let one_thread = run(strategy, true, false);
        std::env::set_var("AMADA_THREADS", "7");
        let seven_threads = run(strategy, true, false);
        std::env::remove_var("AMADA_THREADS");
        assert_eq!(one_thread, baseline, "{strategy:?}: 1 host thread");
        assert_eq!(seven_threads, baseline, "{strategy:?}: 7 host threads");
    }
}

/// The process-wide memo keys a write set by its store's profile as well:
/// LUI and 2LUPI builds of one corpus, interleaved across DynamoDB,
/// SimpleDB and DynamoDB with string values forced, each store what the
/// same build stores on a cache of its own, and what the encoder makes of a
/// fresh extraction.
#[test]
fn the_process_wide_memo_keeps_store_profiles_apart() {
    let docs = corpus();
    let opts = ExtractOptions::default();
    let strings = KvTuning {
        force_string_values: true,
        ..KvTuning::NONE
    };
    let stores = [
        (KvBackend::default(), KvTuning::NONE),
        (KvBackend::Simple, KvTuning::NONE),
        (KvBackend::default(), strings),
    ];
    for strategy in [Strategy::Lui, Strategy::TwoLupi, Strategy::Lui] {
        for (backend, tuning) in stores {
            let mut cfg = WarehouseConfig::with_strategy(strategy);
            (cfg.backend, cfg.kv_tuning) = (backend, tuning);
            let mut w = Warehouse::new(cfg);
            w.upload_documents(corpus());
            w.build_index();
            let built = w.world().kv.peek_all();
            let profile = w.world().kv.profile();
            let what = format!("{strategy} on {} ({tuning:?})", profile.name);

            let own = ExtractCache::default();
            let mut kv = KvStore::open(backend, tuning);
            for table in strategy.tables() {
                kv.ensure_table(table);
            }
            let mut t = SimTime::ZERO;
            let mut encoded: Vec<(String, KvItem)> = Vec::new();
            for (uri, xml) in &docs {
                let set = (own.write_set(uri, xml.as_bytes(), strategy, opts, &profile))
                    .expect("generated documents parse");
                t = (write_entries(&mut kv, t, &set))
                    .expect("generated documents fit the store")
                    .1;
                let doc = Document::parse_str(uri, xml).expect("generated documents parse");
                let mut uuids = UuidGen::for_document(uri);
                for e in extract(&doc, strategy, opts) {
                    let items = encode_entry(&e, &profile, &mut uuids);
                    encoded.extend(items.into_iter().map(|i| (e.table.to_string(), i)));
                }
            }
            assert_eq!(built, kv.peek_all(), "{what}: as on a cache of its own");
            encoded.sort_by(|(ta, a), (tb, b)| {
                (ta, &a.hash_key, a.range_key()).cmp(&(tb, &b.hash_key, b.range_key()))
            });
            assert_eq!(built, encoded, "{what}: as encoded from a fresh extraction");
        }
    }
}
