//! Cross-check: the symbolic Section 7.3 cost formulas against the
//! charges metered live by the simulated services — the validation the
//! paper performs in Section 8.3.

use amada::cloud::{Money, PRICES};
use amada::index::Strategy;
use amada::warehouse::{cost, Warehouse, WarehouseConfig};
use amada::xmark::{generate_corpus, workload_query, CorpusConfig};

fn corpus(n: usize) -> Vec<(String, String)> {
    let cfg = CorpusConfig {
        num_documents: n,
        target_doc_bytes: 1500,
        ..Default::default()
    };
    generate_corpus(&cfg)
        .into_iter()
        .map(|d| (d.uri, d.xml))
        .collect()
}

fn close(a: Money, b: Money, tolerance: f64, what: &str) {
    let (a, b) = (a.dollars(), b.dollars());
    let rel = (a - b).abs() / b.max(1e-15);
    assert!(
        rel < tolerance,
        "{what}: formula {a} vs metered {b} (rel {rel:.4})"
    );
}

/// The instance ledger reconciles: per-instance billed windows sum exactly
/// into the EC2 total and into the cost report's instance charge.
fn ec2_ledger_reconciles(w: &Warehouse) {
    let world = w.world();
    let summed: Money = (world.ec2.records().iter())
        .map(|r| world.ec2.record_cost(r))
        .sum();
    assert_eq!(summed, world.ec2.total_cost());
    assert_eq!(summed, world.cost_report().ec2);
}

#[test]
fn upload_cost_matches_formula_exactly() {
    let docs = corpus(30);
    let mut w = Warehouse::new(WarehouseConfig::with_strategy(Strategy::Lu));
    let up = w.upload_documents(docs);
    assert_eq!(up.cost, cost::upload_documents(30));
}

#[test]
fn indexing_cost_matches_formula() {
    let docs = corpus(40);
    for strategy in [Strategy::Lu, Strategy::TwoLupi] {
        let mut w = Warehouse::new(WarehouseConfig::with_strategy(strategy));
        let before_kv = w.world().kv.stats().put_ops;
        let up = w.upload_documents(docs.iter().map(|(u, x)| (u.clone(), x.clone())));
        let report = w.build_index();
        let put_ops = w.world().kv.stats().put_ops - before_kv;
        let formula = cost::index_building(
            40,
            put_ops,
            report.total_time,
            report.instances as u64,
            report.itype,
        );
        // The formula has no idle-poll queue requests and bills every
        // instance for the exact wall window; the metered run includes
        // polls and per-instance drain jitter. They must agree within a
        // few percent.
        close(
            formula,
            report.cost.total() + up.cost,
            0.05,
            &format!("ci$ {strategy}"),
        );
        // The index-store component is exact by construction.
        assert_eq!(report.cost.kv, PRICES.idx_put * put_ops);
        ec2_ledger_reconciles(&w);
    }
}

#[test]
fn indexed_query_cost_matches_formula() {
    let docs = corpus(40);
    let mut w = Warehouse::new(WarehouseConfig::with_strategy(Strategy::Lui));
    w.upload_documents(docs);
    w.build_index();
    let q = workload_query("q4").unwrap();
    let run = w.run_query(&q);
    let formula = cost::query_indexed(
        run.exec.result_bytes,
        run.exec.index_get_ops,
        run.exec.docs_fetched as u64,
        run.exec.response_time,
        amada::cloud::InstanceType::Large,
    );
    // The formula idealizes: exactly 6 queue requests and instance time
    // equal to the processing time. The metered run adds the final empty
    // poll that detects queue drain and the front-end's enqueue window —
    // a fixed few-microdollar overhead that fades as queries grow.
    close(formula, run.cost.total(), 0.10, "cq$ indexed");
    // Component identities.
    assert_eq!(run.cost.kv, PRICES.idx_get * run.exec.index_get_ops);
    assert_eq!(
        run.cost.egress,
        PRICES.egress_gb.per_gb(run.exec.result_bytes)
    );
    // The loader pool's eight instances and the query pool's one.
    assert_eq!(w.world().ec2.records().len(), 9);
    ec2_ledger_reconciles(&w);
}

#[test]
fn scan_query_cost_matches_formula() {
    let docs = corpus(40);
    let mut w = Warehouse::new(WarehouseConfig::with_strategy(Strategy::Lu));
    w.upload_documents(docs);
    w.build_index();
    let q = workload_query("q7").unwrap();
    let run = w.run_query_no_index(&q);
    let formula = cost::query_no_index(
        run.exec.result_bytes,
        40,
        run.exec.response_time,
        amada::cloud::InstanceType::Large,
    );
    close(formula, run.cost.total(), 0.10, "cq$ no-index");
    assert_eq!(
        run.cost.kv,
        Money::ZERO,
        "a scan never touches the index store"
    );
}

#[test]
fn storage_cost_matches_formula_exactly() {
    let docs = corpus(40);
    let mut w = Warehouse::new(WarehouseConfig::with_strategy(Strategy::Lup));
    w.upload_documents(docs);
    w.build_index();
    let kv = w.world().kv.stats();
    let expected = cost::monthly_storage(w.world().s3.stats().stored_bytes, kv.stored_bytes());
    assert_eq!(w.storage_cost().total(), expected);
}
