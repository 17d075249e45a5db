//! The advisor's ranking is deterministic: ascending projected total, equal
//! totals in label order, and the same ranking to the picodollar at any
//! `AMADA_THREADS` and from any host thread.

use amada::warehouse::{advise, FamilyLoad, Horizon, PlanEstimate, WarehouseConfig};
use amada::xmark::{generate_corpus, workload_query, CorpusConfig};

fn sample(documents: usize) -> Vec<(String, String)> {
    let cfg = CorpusConfig {
        num_documents: documents,
        target_doc_bytes: 1200,
        ..Default::default()
    };
    generate_corpus(&cfg)
        .into_iter()
        .map(|d| (d.uri, d.xml))
        .collect()
}

fn ranked(documents: usize, queries: &[&str], expected_runs: u32) -> Vec<PlanEstimate> {
    let workload: Vec<FamilyLoad> = queries
        .iter()
        .map(|name| FamilyLoad {
            query: workload_query(name).expect("a workload query"),
            arrivals: 1,
        })
        .collect();
    let horizon = Horizon {
        expected_runs,
        months: 1.0,
    };
    let base = WarehouseConfig::default();
    advise(&sample(documents), &workload, &[], &horizon, &base)
        .expect("the generated sample is well-formed")
}

/// What a ranking comes down to: each layout's label and total.
fn outcome(ranked: &[PlanEstimate]) -> Vec<(&'static str, u128)> {
    (ranked.iter())
        .map(|e| (e.label(), e.projected_total.pico()))
        .collect()
}

#[test]
fn equal_totals_rank_in_label_order_across_threads() {
    // One test function on purpose: it sets the process-wide
    // AMADA_THREADS, which concurrent tests would race on.
    std::env::set_var("AMADA_THREADS", "1");
    let here = outcome(&ranked(25, &["q1", "q6"], 500));
    std::env::set_var("AMADA_THREADS", "2");
    assert_eq!(outcome(&ranked(25, &["q1", "q6"], 500)), here, "2 threads");
    std::env::remove_var("AMADA_THREADS");
    let handles: Vec<_> = (0..4)
        .map(|_| std::thread::spawn(|| outcome(&ranked(25, &["q1", "q6"], 500))))
        .collect();
    for h in handles {
        assert_eq!(h.join().unwrap(), here, "another host thread");
    }
    assert_eq!(here.len(), 5);
    assert!(here
        .windows(2)
        .all(|w| (w[0].1, w[0].0) <= (w[1].1, w[1].0)));

    // Equal totals rank in label order: on a sample of no documents and a
    // workload of no queries the scan layout deploys for nothing, and each
    // indexed layout pays the same launch of the loader pool.
    let empty = outcome(&ranked(0, &[], 500));
    assert_eq!(empty[0], ("scan", 0));
    let launch = empty[1].1;
    assert!(launch > 0);
    let labels = ["2LUPI", "LU", "LUI", "LUP"];
    assert_eq!(empty[1..], labels.map(|label| (label, launch)));

    // A cheaper total still outranks the label order: at one run the scan
    // layout leads although `scan` sorts last.
    let cold = outcome(&ranked(25, &["q1"], 1));
    assert_eq!(cold[0].0, "scan");
    assert!(cold[0].1 < cold[1].1);
}
