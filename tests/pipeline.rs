//! Cross-crate integration tests: the full warehouse pipeline, across
//! strategies and key-value backends, checked against direct in-memory
//! evaluation of the same corpus.

use amada::cloud::{KvBackend, SimpleDbConfig};
use amada::index::Strategy;
use amada::pattern::evaluate_query_on_documents;
use amada::warehouse::{Warehouse, WarehouseConfig};
use amada::xmark::{generate_corpus, workload, CorpusConfig};
use amada::xml::Document;
use std::sync::Arc;

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

/// Ground truth: evaluate a query directly on the parsed corpus.
fn direct_results(docs: &[(String, String)], q: &amada::pattern::Query) -> Vec<Vec<Arc<str>>> {
    let parsed: Vec<Document> = docs
        .iter()
        .map(|(u, x)| Document::parse_str(u.clone(), x).unwrap())
        .collect();
    let refs: Vec<&Document> = parsed.iter().collect();
    let (res, _) = evaluate_query_on_documents(q, refs.iter().copied());
    let mut rows: Vec<Vec<_>> = res.into_iter().map(|t| t.columns).collect();
    rows.sort();
    rows
}

#[test]
fn warehouse_results_match_direct_evaluation_for_all_strategies() {
    let docs = corpus(40);
    for strategy in Strategy::ALL {
        let mut w = Warehouse::new(WarehouseConfig::with_strategy(strategy));
        w.upload_documents(docs.iter().map(|(u, x)| (u.clone(), x.clone())));
        w.build_index();
        for q in workload() {
            let expected = direct_results(&docs, &q);
            let run = w.run_query(&q);
            let mut got: Vec<Vec<_>> = run.exec.results.into_iter().map(|t| t.columns).collect();
            got.sort();
            assert_eq!(got, expected, "query {:?} under {strategy}", q.name);
        }
    }
}

#[test]
fn warehouse_works_on_simpledb_backend() {
    let docs = corpus(25);
    for strategy in [Strategy::Lu, Strategy::Lui] {
        let mut cfg = WarehouseConfig::with_strategy(strategy);
        cfg.backend = KvBackend::Simple(SimpleDbConfig::default());
        let mut w = Warehouse::new(cfg);
        w.upload_documents(docs.iter().map(|(u, x)| (u.clone(), x.clone())));
        let build = w.build_index();
        assert_eq!(build.documents, 25);
        for q in workload().into_iter().take(4) {
            let expected = direct_results(&docs, &q);
            let run = w.run_query(&q);
            let mut got: Vec<Vec<_>> = run.exec.results.into_iter().map(|t| t.columns).collect();
            got.sort();
            assert_eq!(got, expected, "query {:?} on SimpleDB/{strategy}", q.name);
        }
    }
}

#[test]
fn fulltext_free_index_still_answers_contains_queries() {
    // Without word keys the look-up is less precise (falls back to label
    // keys) but evaluation still filters exactly.
    let docs = corpus(30);
    let mut cfg = WarehouseConfig::with_strategy(Strategy::Lup);
    cfg.extract = amada::index::ExtractOptions { index_words: false };
    let mut w = Warehouse::new(cfg);
    w.upload_documents(docs.iter().map(|(u, x)| (u.clone(), x.clone())));
    w.build_index();
    let q3 = amada::xmark::workload_query("q3").unwrap();
    let expected = direct_results(&docs, &q3);
    let run = w.run_query(&q3);
    let mut got: Vec<Vec<_>> = run.exec.results.into_iter().map(|t| t.columns).collect();
    got.sort();
    assert_eq!(got, expected);
}

#[test]
fn no_index_baseline_matches_direct_evaluation() {
    let docs = corpus(30);
    let mut w = Warehouse::new(WarehouseConfig::with_strategy(Strategy::Lu));
    w.upload_documents(docs.iter().map(|(u, x)| (u.clone(), x.clone())));
    w.build_index();
    for q in workload().into_iter().take(5) {
        let expected = direct_results(&docs, &q);
        let run = w.run_query_no_index(&q);
        let mut got: Vec<Vec<_>> = run.exec.results.into_iter().map(|t| t.columns).collect();
        got.sort();
        assert_eq!(got, expected, "query {:?} without index", q.name);
    }
}

#[test]
fn virtual_time_is_deterministic_across_runs() {
    let docs = corpus(20);
    let run = || {
        let mut w = Warehouse::new(WarehouseConfig::with_strategy(Strategy::TwoLupi));
        w.upload_documents(docs.iter().map(|(u, x)| (u.clone(), x.clone())));
        let b = w.build_index();
        let q = amada::xmark::workload_query("q4").unwrap();
        let r = w.run_query(&q);
        (b.total_time, r.exec.response_time, r.cost.total())
    };
    assert_eq!(run(), run(), "simulation must be bit-for-bit reproducible");
}
