//! Provider portability (paper Table 1): prices are billing-only. The same
//! architecture re-priced — here the paper's AWS table with every rate
//! scaled — answers identically on the same virtual timeline, and only the
//! bill changes.

use amada::cloud::{Money, PriceTable, SimDuration};
use amada::index::Strategy;
use amada::warehouse::{Warehouse, WarehouseConfig};
use amada::xmark::{generate_corpus, workload_query, CorpusConfig};
use std::sync::Arc;

fn corpus() -> Vec<(String, String)> {
    let cfg = CorpusConfig {
        num_documents: 20,
        target_doc_bytes: 1200,
        ..Default::default()
    };
    generate_corpus(&cfg)
        .into_iter()
        .map(|d| (d.uri, d.xml))
        .collect()
}

/// The paper's table with every rate at `numer / denom` of its price.
fn aws_scaled(numer: u64, denom: u64) -> PriceTable {
    let p = PriceTable::aws_singapore_2012();
    let s = |m: Money| m.scaled(numer, denom);
    PriceTable {
        st_month_gb: s(p.st_month_gb),
        st_put: s(p.st_put),
        st_get: s(p.st_get),
        idx_month_gb: s(p.idx_month_gb),
        idx_put: s(p.idx_put),
        idx_get: s(p.idx_get),
        vm_hour_large: s(p.vm_hour_large),
        vm_hour_xlarge: s(p.vm_hour_xlarge),
        qs_request: s(p.qs_request),
        egress_gb: s(p.egress_gb),
    }
}

/// Each query's answers, sorted.
type Answers = Vec<Vec<Vec<Arc<str>>>>;

/// Build LUI under `prices`, then run q1 and q3: the virtual times (build
/// first), each query's sorted answers, the build bill and the queries' bill.
fn run_on(prices: PriceTable) -> (Vec<SimDuration>, Answers, Money, Money) {
    let mut cfg = WarehouseConfig::with_strategy(Strategy::Lui);
    cfg.prices = prices;
    let mut w = Warehouse::new(cfg);
    w.upload_documents(corpus());
    let b = w.build_index();
    let (mut times, mut rows) = (vec![b.total_time], Vec::new());
    let mut query_cost = Money::ZERO;
    for name in ["q1", "q3"] {
        let run = w.run_query(&workload_query(name).unwrap());
        times.push(run.exec.response_time);
        query_cost += run.cost.total();
        let mut answers: Vec<Vec<_>> = (run.exec.results.into_iter()).map(|t| t.columns).collect();
        answers.sort();
        rows.push(answers);
    }
    (times, rows, b.cost.total(), query_cost)
}

#[test]
fn provider_swap_does_not_change_virtual_timing() {
    // Prices are billing-only: the discrete-event timeline is identical.
    let (aws_times, ..) = run_on(PriceTable::aws_singapore_2012());
    let (times, ..) = run_on(aws_scaled(3, 2));
    assert_eq!(aws_times, times);
}

#[test]
fn same_architecture_prices_on_three_providers() {
    // Three price points of one table: identical answers everywhere, only
    // the bill changes, and it moves with the rates.
    let (_, aws_rows, aws_build, aws_query) = run_on(PriceTable::aws_singapore_2012());
    let (_, dear_rows, dear_build, dear_query) = run_on(aws_scaled(3, 2));
    let (_, cheap_rows, cheap_build, cheap_query) = run_on(aws_scaled(1, 2));
    assert_eq!(aws_rows, dear_rows);
    assert_eq!(aws_rows, cheap_rows);
    assert!(aws_rows.iter().any(|answers| !answers.is_empty()));
    assert!(cheap_build > Money::ZERO && cheap_query > Money::ZERO);
    assert!(cheap_build < aws_build && aws_build < dear_build);
    assert!(cheap_query < aws_query && aws_query < dear_query);
}
