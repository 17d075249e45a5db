//! Provider portability (paper Table 1): the same architecture runs — and
//! bills — against Google Cloud and Windows Azure price books by swapping
//! the price table, with no other change.

use amada::cloud::PriceTable;
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

fn run_on(prices: PriceTable) -> (f64, f64, Vec<Vec<Arc<str>>>) {
    let mut cfg = WarehouseConfig::with_strategy(Strategy::Lup);
    cfg.prices = prices;
    let mut w = Warehouse::new(cfg);
    w.upload_documents(corpus());
    let build = w.build_index();
    let q = workload_query("q6").unwrap();
    let run = w.run_query(&q);
    let mut rows: Vec<Vec<_>> = run.exec.results.into_iter().map(|t| t.columns).collect();
    rows.sort();
    (
        build.cost.total().dollars(),
        run.cost.total().dollars(),
        rows,
    )
}

#[test]
fn same_architecture_prices_on_three_providers() {
    let (aws_build, aws_query, aws_rows) = run_on(PriceTable::aws_singapore_2012());
    let (g_build, g_query, g_rows) = run_on(PriceTable::google_cloud_2012());
    let (az_build, az_query, az_rows) = run_on(PriceTable::windows_azure_2012());
    // Identical answers everywhere — only the bill changes.
    assert_eq!(aws_rows, g_rows);
    assert_eq!(aws_rows, az_rows);
    assert!(aws_build > 0.0 && g_build > 0.0 && az_build > 0.0);
    assert!(aws_query > 0.0 && g_query > 0.0 && az_query > 0.0);
    // The bills genuinely differ (different price points).
    assert_ne!(aws_build.to_bits(), g_build.to_bits());
    assert_ne!(aws_build.to_bits(), az_build.to_bits());
}

#[test]
fn provider_swap_does_not_change_virtual_timing() {
    // Prices are billing-only: the discrete-event timeline is identical.
    let time_on = |prices: PriceTable| {
        let mut cfg = WarehouseConfig::with_strategy(Strategy::Lui);
        cfg.prices = prices;
        let mut w = Warehouse::new(cfg);
        w.upload_documents(corpus());
        let b = w.build_index();
        let q = workload_query("q3").unwrap();
        (b.total_time, w.run_query(&q).exec.response_time)
    };
    assert_eq!(
        time_on(PriceTable::aws_singapore_2012()),
        time_on(PriceTable::windows_azure_2012())
    );
}
