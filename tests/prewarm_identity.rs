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

use amada_core::{Warehouse, WarehouseConfig};
use amada_index::Strategy;
use amada_xmark::{generate_corpus, CorpusConfig};

fn corpus() -> Vec<(String, String)> {
    let cfg = CorpusConfig {
        seed: 0x00AB_1DE5,
        num_documents: 16,
        target_doc_bytes: 1000,
        ..Default::default()
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
