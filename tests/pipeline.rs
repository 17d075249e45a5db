//! Cross-crate integration tests: the full warehouse pipeline, across
//! strategies and key-value backends, checked against direct in-memory
//! evaluation of the same corpus.

use amada::cloud::KvBackend;
use amada::index::Strategy;
use amada::pattern::{evaluate_query_on_documents, parse_query, Query};
use amada::warehouse::{CostedQuery, Warehouse, WarehouseConfig};
use amada::xmark::{generate_corpus, workload, CorpusConfig};
use amada::xml::Document;
use std::collections::BTreeSet;
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
        cfg.backend = KvBackend::Simple;
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

/// `queries` over `docs` on every access path `docs_with_results` is
/// counted on — the four indexes and the scan — each run labelled.
fn on_every_access_path(
    docs: &[(String, String)],
    queries: &[Query],
) -> Vec<(String, CostedQuery)> {
    let mut runs = Vec::new();
    for path in Strategy::ALL.into_iter().map(Some).chain([None]) {
        let strategy = path.unwrap_or(Strategy::Lu);
        let mut w = Warehouse::new(WarehouseConfig::with_strategy(strategy));
        w.upload_documents(docs.iter().cloned());
        w.build_index();
        for q in queries {
            let run = match path {
                Some(_) => w.run_query(q),
                None => w.run_query_no_index(q),
            };
            runs.push((format!("{:?} under {path:?}", q.name), run));
        }
    }
    runs
}

#[test]
fn documents_with_results_are_counted_once_on_every_access_path() {
    for (label, run) in on_every_access_path(&corpus(20), &workload()) {
        let reference: BTreeSet<&str> = (run.exec.results.iter())
            .flat_map(|r| r.uris.iter().map(|u| &**u))
            .collect();
        assert_eq!(run.exec.docs_with_results, reference.len(), "{label}");
    }
}

/// Picodollars of a printed `Money` (`$D.F`, up to twelve decimals).
fn pico_of(printed: &str) -> u128 {
    let (dollars, frac) = printed.trim_start_matches('$').split_once('.').unwrap();
    format!("{dollars}{frac:0<12}").parse().unwrap()
}

/// `explain analyze` reads every value off the execution and its bill: on
/// all ten queries, under each strategy and the scan, its counts are the
/// execution's and its per-service charges are the query's and sum to the
/// total it prints.
#[test]
fn explain_analyze_reports_the_execution_and_its_bill() {
    for (label, run) in on_every_access_path(&corpus(20), &workload()) {
        let (e, c) = (&run.exec, &run.cost);
        let form = run.to_string();
        let mut lines = form.lines();
        let path = e.strategy.map_or("scan", Strategy::name);
        let header = format!("explain analyze {} [{path}]", e.name);
        assert_eq!(lines.next(), Some(&*header), "{label}");
        let rows: Vec<(String, String)> = lines
            .map(|l| {
                let (name, value) = l.trim().rsplit_once(' ').unwrap();
                (name.trim().to_string(), value.to_string())
            })
            .collect();
        let value = |name: &str| &rows.iter().find(|(n, _)| n == name).unwrap().1;
        let counts = [
            ("index gets", e.index_get_ops),
            ("doc IDs from index", e.docs_from_index as u64),
            ("documents fetched", e.docs_fetched as u64),
            ("with results", e.docs_with_results as u64),
            ("result bytes", e.result_bytes),
        ];
        for (name, count) in counts {
            assert_eq!(
                value(name).parse::<u64>().unwrap(),
                count,
                "{label}: {name}"
            );
        }
        let charges = [
            ("index store", c.kv),
            ("file store", c.s3),
            ("instances", c.ec2),
            ("queues", c.sqs),
            ("egress", c.egress),
        ];
        let mut sum = 0;
        for (name, charge) in charges {
            assert_eq!(pico_of(value(name)), charge.pico(), "{label}: {name}");
            sum += pico_of(value(name));
        }
        assert_eq!(sum, pico_of(value("total")), "{label}");
        assert_eq!(sum, c.total().pico(), "{label}");
        assert_eq!(rows.len(), counts.len() + charges.len() + 1, "{label}");
    }
}

#[test]
fn a_self_join_counts_its_one_document_once() {
    let docs = [(
        "d.xml".to_string(),
        "<painting><name>Olympia</name><year>1863</year></painting>".to_string(),
    )];
    let q = parse_query("//painting[/name{val as $n}, /year{val}]; //painting[/name{val as $n}]")
        .unwrap();
    for (label, run) in on_every_access_path(&docs, &[q]) {
        let rows: Vec<_> = run.exec.results.iter().map(|r| &r.uris[..]).collect();
        assert_eq!(rows, [["d.xml".into(), "d.xml".into()]], "{label}");
        assert_eq!(run.exec.docs_with_results, 1, "{label}");
    }
}
