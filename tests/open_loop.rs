//! The open-loop front end's contract:
//!
//! 1. **Empty schedules terminate** — an open-loop run with zero arrivals
//!    or an empty workload still closes the query queue and returns (the
//!    processors' receive loop would otherwise poll forever).
//! 2. **Seeded determinism** — the arrival process is a pure function of
//!    its seed, and two identical open-loop runs produce identical
//!    reports.
//! 3. **The storm is shaped** — arrivals are time-ordered, complete, and
//!    Zipf-skewed toward the head of the workload.

use amada::index::Strategy;
use amada::pattern::Query;
use amada::warehouse::{ArrivalProcess, Warehouse, WarehouseConfig};
use amada::xmark::{generate_corpus, workload, CorpusConfig};

fn corpus() -> Vec<(String, String)> {
    let cfg = CorpusConfig {
        seed: 0x0B5E55ED,
        num_documents: 16,
        target_doc_bytes: 900,
    };
    generate_corpus(&cfg)
        .into_iter()
        .map(|d| (d.uri, d.xml))
        .collect()
}

fn queries() -> Vec<Query> {
    workload().into_iter().take(4).collect()
}

fn built() -> Warehouse {
    let mut w = Warehouse::new(WarehouseConfig::with_strategy(Strategy::Lup));
    w.upload_documents(corpus());
    w.build_index();
    w
}

#[test]
fn zero_bursts_still_close_the_query_queue() {
    let mut w = built();
    let process = ArrivalProcess::steady(1, 0, 1.0);
    let report = w.run_workload_open_loop(&queries(), &process);
    assert!(report.executions.is_empty());
    // The warehouse is still usable afterwards: the queue was closed, not
    // wedged, and a normal run completes.
    let report = w.run_workload(&queries(), 1);
    assert_eq!(report.executions.len(), queries().len());
}

#[test]
fn an_empty_workload_still_closes_the_query_queue() {
    let mut w = built();
    // Arrivals with no query to pick release nothing.
    let process = ArrivalProcess::steady(3, 6, 1.0);
    let report = w.run_workload_open_loop(&[], &process);
    assert!(report.executions.is_empty());
    let report = w.run_workload(&[], 5);
    assert!(report.executions.is_empty());
    let report = w.run_workload(&queries(), 1);
    assert_eq!(report.executions.len(), queries().len());
}

#[test]
fn a_zero_arrival_open_loop_run_terminates() {
    let mut w = built();
    let process = ArrivalProcess::steady(7, 0, 2.0);
    let report = w.run_workload_open_loop(&queries(), &process);
    assert!(report.executions.is_empty());
    // The open-loop sender inherited the empty-schedule close.
    let report = w.run_workload(&queries(), 1);
    assert_eq!(report.executions.len(), queries().len());
}

#[test]
fn open_loop_runs_are_deterministic() {
    let queries = queries();
    let mut process = ArrivalProcess::steady(0xA3ADA, 40, 5.0);
    process.zipf_exponent = 1.1;

    let run = || {
        let mut w = built();
        let r = w.run_workload_open_loop(&queries, &process);
        let names: Vec<String> = r.executions.iter().map(|e| e.name.clone()).collect();
        (names, r.total_time, r.cost.total())
    };
    assert_eq!(run(), run());
}

#[test]
fn every_arrival_executes_exactly_once_under_unique_names() {
    let queries = queries();
    let process = ArrivalProcess::steady(3, 25, 4.0);
    let mut w = built();
    let report = w.run_workload_open_loop(&queries, &process);
    assert_eq!(report.executions.len(), 25);
    let mut names: Vec<&str> = report.executions.iter().map(|e| e.name.as_str()).collect();
    names.sort_unstable();
    names.dedup();
    assert_eq!(names.len(), 25, "arrival names are unique");
    assert_eq!(report.redelivered, 0);
}

#[test]
fn the_arrival_process_is_seeded_ordered_and_skewed() {
    let mut process = ArrivalProcess::steady(11, 400, 8.0);
    process.zipf_exponent = 1.3;
    let a = process.offsets(4);
    let b = process.offsets(4);
    assert_eq!(a, b, "offsets are a pure function of the seed");
    assert_eq!(a.len(), 400);
    assert!(a.windows(2).all(|w| w[0].0 <= w[1].0), "time-ordered");
    // Zipf head: rank 0 must be drawn more than any other rank.
    let mut counts = [0usize; 4];
    for &(_, q) in &a {
        counts[q] += 1;
    }
    assert!(
        (1..4).all(|r| counts[0] > counts[r]),
        "rank 0 dominates: {counts:?}"
    );
    // A different seed reshuffles the storm.
    let mut other = process.clone();
    other.seed = 12;
    assert_ne!(other.offsets(4), a);
}
