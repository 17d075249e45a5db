//! Pins on the single indexing/arrival path for what used to be "the
//! other path": the global tables over prefixed URIs, the no-index
//! baseline, retraction order, and the closed batch as the one-burst
//! schedule.

use amada::cloud::{ServiceKind, Span};
use amada::index::Strategy;
use amada::pattern::{parse_query, Query};
use amada::warehouse::{ArrivalProcess, Warehouse, WarehouseConfig, WorkloadReport};
use amada::xmark::workload;
use std::sync::Arc;

/// A tiny corpus whose URIs carry partition-looking prefixes.
const DOCS: [(&str, &str); 3] = [
    (
        "hot/a.xml",
        "<painting><name>Lion Hunt</name><year>1854</year></painting>",
    ),
    ("cold/b.xml", "<sculpture><name>Lion</name></sculpture>"),
    ("c.xml", "<painting><name>Raft</name></painting>"),
];

fn named(text: &str, name: &str) -> Query {
    let mut q = parse_query(text).unwrap();
    q.name = Some(name.into());
    q
}

/// A recording warehouse indexing under `strategy`, `DOCS` uploaded.
fn recording(strategy: Strategy) -> Warehouse {
    let mut cfg = WarehouseConfig::with_strategy(strategy);
    cfg.host.record = true;
    let mut w = Warehouse::new(cfg);
    w.upload_documents(DOCS);
    w
}

fn count(spans: &[Span], service: ServiceKind, op: &str) -> usize {
    spans
        .iter()
        .filter(|s| s.service == service && s.op == op)
        .count()
}

/// A warehouse ignores URI prefixes: `hot/a.xml` lands in the global
/// tables (no `@`-suffixed per-prefix table), indexed queries pay no corpus
/// LIST, and the bill is pinned to the picodollar (first captured from an
/// earlier, separate path; regenerated only with the read path's clock).
#[test]
fn flat_plan_keeps_prefixed_uris_in_the_global_tables() {
    let q = named("//painting[/name{contains(Hunt)}]", "hunt");
    let pinned: [(Strategy, u128); 4] = [
        (Strategy::Lu, 185_793_073),
        (Strategy::Lup, 185_725_956),
        (Strategy::Lui, 185_793_073),
        (Strategy::TwoLupi, 190_450_284),
    ];
    for (strategy, pico) in pinned {
        let mut w = recording(strategy);
        w.build_index();
        let tables: Vec<String> = w
            .world()
            .kv
            .peek_all()
            .into_iter()
            .map(|(t, _)| t)
            .collect();
        assert!(!tables.is_empty(), "{strategy}");
        assert!(
            tables.iter().all(|t| !t.contains('@')),
            "{strategy}: {tables:?}"
        );
        let before = w.spans().len();
        let run = w.run_query(&q);
        assert_eq!(run.exec.results.len(), 1, "{strategy}");
        assert_eq!(count(&w.spans()[before..], ServiceKind::S3, "list"), 0);
        assert_eq!(w.total_cost().total().pico(), pico, "{strategy}");
    }
}

/// The no-index baseline has no look-up phase whatever the warehouse
/// holds: no `lookup_get`/`plan` actor spans, no index gets, exactly one
/// corpus LIST per query.
#[test]
fn no_index_queries_skip_the_lookup_phase() {
    let q = named("//painting[/name]", "paintings");
    let unbuilt = recording(Strategy::Lup);
    let mut built = recording(Strategy::Lup);
    built.build_index();
    for (label, mut w) in [("unbuilt", unbuilt), ("built", built)] {
        let before = w.spans().len();
        let run = w.run_query_no_index(&q);
        let spans = &w.spans()[before..];
        assert_eq!(run.exec.results.len(), 2, "{label}");
        assert_eq!(run.exec.strategy, None, "{label}");
        assert_eq!(run.exec.index_get_ops, 0, "{label}");
        assert_eq!(run.exec.docs_from_index, 0, "{label}");
        assert_eq!(run.exec.docs_fetched, DOCS.len(), "{label}");
        assert_eq!(count(spans, ServiceKind::Actor, "lookup_get"), 0, "{label}");
        assert_eq!(count(spans, ServiceKind::Actor, "plan"), 0, "{label}");
        assert_eq!(count(spans, ServiceKind::S3, "list"), 1, "{label}");
    }
}

/// A flat 2LUPI replace retracts its stale keys in the strategy's own
/// table order: `amada-index-path` first, `amada-index-id` second. Spans
/// carry no table name, so the replaced version hangs its doomed keys
/// under a long element name: every stale path item repeats that name
/// in its stored path, the ID items hold a few bytes — the path table's
/// delete is the one that frees more write units.
#[test]
fn flat_two_lupi_retracts_the_path_table_first() {
    let wrapper = "w".repeat(200);
    // A URI of its own: the process-wide parse cache is keyed by URI, and
    // the other tests hold different bytes under the corpus URIs.
    let uri = "hot/churned.xml";
    let old = format!("<r><kept>y</kept><{wrapper}><gone>x</gone></{wrapper}></r>");
    let mut w = recording(Strategy::TwoLupi);
    w.upload_documents([(uri, old.as_str())]);
    w.build_index();
    w.upload_documents([(uri, "<r><kept>y</kept></r>")]);
    let before = w.spans().len();
    let build = w.build_index();
    assert!(build.retracted_items > 0);
    let deletes: Vec<f64> = w.spans()[before..]
        .iter()
        .filter(|s| s.service == ServiceKind::Kv && s.op == "batch_delete")
        .map(|s| s.units)
        .collect();
    assert_eq!(deletes.len(), 2, "one delete batch per 2LUPI table");
    assert!(
        deletes[0] > 1.5 * deletes[1],
        "path-table delete must come first: {deletes:?}"
    );
}

/// The closed batch is the one-burst schedule: the front end sends it
/// before the engine starts, and a sender actor releasing the same queries
/// inside the engine gets the same answers — every open-loop arrival
/// `q#n` answers exactly what the closed batch's `q` answers.
#[test]
fn a_closed_batch_is_a_one_burst_schedule() {
    let mut queries: Vec<Query> = workload().into_iter().take(3).collect();
    queries.push(parse_query("//painting[/name{val}]").unwrap());
    let answers = |report: WorkloadReport| -> Vec<(String, Vec<Vec<Arc<str>>>)> {
        let mut out: Vec<_> = report
            .executions
            .into_iter()
            .map(|e| (e.name, e.results.into_iter().map(|r| r.columns).collect()))
            .collect();
        out.sort();
        out
    };
    let built = || {
        let mut w = recording(Strategy::Lup);
        w.build_index();
        w
    };
    let batch = answers(built().run_workload(&queries, 2));
    assert_eq!(batch.len(), 8);
    // The unnamed query is numbered by its place in the schedule.
    assert!(batch.iter().any(|(name, _)| name == "query-3"));
    assert!(batch.iter().any(|(name, _)| name == "query-7"));
    let answer_of = |name: &str| {
        let mut of = batch.iter().filter(|(n, _)| n == name).map(|(_, a)| a);
        let first = of
            .next()
            .unwrap_or_else(|| panic!("{name} is not in the batch"));
        assert!(of.all(|a| a == first), "{name} answers one way");
        first
    };

    let process = ArrivalProcess::steady(0xB0257, 16, 4.0);
    let timed = answers(built().run_workload_open_loop(&queries, &process));
    assert_eq!(timed.len(), 16);
    let mut drawn = Vec::new();
    for (arrival, answer) in &timed {
        let (name, _seq) = arrival.split_once('#').expect("an arrival is named q#n");
        assert_eq!(answer, answer_of(name), "{arrival}");
        drawn.push(name);
    }
    drawn.sort_unstable();
    drawn.dedup();
    assert_eq!(drawn.len(), queries.len(), "every query arrived: {drawn:?}");
}
