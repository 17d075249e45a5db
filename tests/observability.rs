//! The observability layer's contract, end to end:
//!
//! 1. **Identity** — recording only *watches* the simulation: a run with
//!    the recorder on is bit-identical (reports, virtual times, bills) to
//!    the same run with it off.
//! 2. **Ledger reconciliation** — the spans are an independent view of
//!    the same requests the billing counters meter, so summing span
//!    charges per service reproduces the ledger's cost report exactly
//!    (to within per-span rounding for the one volume-priced service).
//! 3. **Phase reconciliation** — the actor spans recorded during query
//!    processing carry exactly the Figure 9b/9c phase decomposition the
//!    query reports already expose.
//! 4. **Export** — the Chrome trace emitted from a real run is valid JSON
//!    and carries the expected lanes and events.

use amada::cloud::{Money, Outcome, Phase, ServiceKind, SimDuration, Span};
use amada::index::Strategy;
use amada::obs::{chrome_trace, summarize, validate_json, Attribution};
use amada::warehouse::{Warehouse, WarehouseConfig, WorkloadReport};
use amada::xmark::{generate_corpus, CorpusConfig};

fn corpus() -> Vec<(String, String)> {
    let cfg = CorpusConfig {
        seed: 0x0B5E_2BED,
        num_documents: 14,
        target_doc_bytes: 1100,
    };
    generate_corpus(&cfg)
        .into_iter()
        .map(|d| (d.uri, d.xml))
        .collect()
}

/// Uploads, builds and runs part of the workload; returns the warehouse
/// plus the Debug renderings of every report produced along the way.
fn run(record: bool) -> (Warehouse, WorkloadReport, Vec<String>) {
    let mut cfg = WarehouseConfig::with_strategy(Strategy::Lup);
    cfg.host.record = record;
    let mut w = Warehouse::new(cfg);
    w.upload_documents(corpus());
    let mut out = vec![format!("{:?}", w.build_index())];
    let queries: Vec<_> = amada::xmark::workload().into_iter().take(5).collect();
    let report = w.run_workload(&queries, 1);
    out.push(format!("{:?}", report));
    out.push(format!("{:?}", w.world().cost_report()));
    (w, report, out)
}

#[test]
fn recording_is_observation_only() {
    let (off_w, _, off) = run(false);
    let (on_w, _, on) = run(true);
    assert_eq!(off, on, "recorder-on run diverged from recorder-off run");
    assert_eq!(off_w.spans().len(), 0, "off recorder must collect nothing");
    assert!(on_w.spans().len() > 100, "on recorder must collect the run");
}

#[test]
fn span_billing_reconciles_with_the_ledger() {
    let (w, _, _) = run(true);
    let spans = w.spans();
    let world = w.world();

    // The per-service reconciliation (kv/s3/sqs exact, egress to within
    // per-span rounding, actor unbilled) lives in the shared invariant
    // registry so `repro check` exercises the same predicate.
    if let Err(e) = amada_check::invariants::ledger_matches_spans(&spans, world) {
        panic!("span billing vs ledger: {e}");
    }

    // Attribution is lossless: the phase decomposition sums back to the
    // total span charge.
    let a = Attribution::attribute(&spans);
    assert!(a.phases_sum_to_total());
    assert_eq!(
        a.total,
        spans.iter().map(|s| s.billed).sum::<Money>(),
        "attribution total vs raw span sum"
    );
    for phase in [Phase::Upload, Phase::Build, Phase::Query] {
        assert!(a.phase(phase) > Money::ZERO, "no cost in {}", phase.label());
    }
}

#[test]
fn actor_spans_reconcile_with_phase_decomposition() {
    let (w, report, _) = run(true);
    let spans = w.spans();

    let total_for = |op: &str| -> SimDuration {
        spans
            .iter()
            .filter(|s| s.service == ServiceKind::Actor && s.op == op)
            .map(Span::duration)
            .fold(SimDuration::ZERO, |a, d| a + d)
    };
    let sum_phases = |f: fn(&amada::warehouse::QueryPhases) -> SimDuration| -> SimDuration {
        report
            .executions
            .iter()
            .map(|e| f(&e.phases))
            .fold(SimDuration::ZERO, |a, d| a + d)
    };

    assert_eq!(total_for("lookup_get"), sum_phases(|p| p.lookup_get));
    assert_eq!(total_for("plan"), sum_phases(|p| p.plan));
    assert_eq!(total_for("transfer_eval"), sum_phases(|p| p.transfer_eval));

    // Every query-phase span carries the query it served, so per-query
    // duration roll-ups are possible (Figures 9b/9c per query).
    assert!(spans
        .iter()
        .filter(|s| s.service == ServiceKind::Actor && s.op == "lookup_get")
        .all(|s| s.ctx.query.is_some()));
}

#[test]
fn exported_trace_is_valid_chrome_json() {
    let (w, _, _) = run(true);
    let spans = w.spans();
    let world = w.world();
    let json = chrome_trace(&spans, world.ec2.records());
    validate_json(&json).expect("trace must be valid JSON");
    assert!(json.contains("\"traceEvents\""));
    assert!(
        json.contains("\"name\":\"loader 0\""),
        "loader lane missing"
    );
    assert!(json.contains("\"cat\":\"ec2\""), "ec2 lanes missing");

    // The summary roll-up sees every span the trace serialised.
    let rows = summarize(&spans);
    let total: u64 = rows.iter().map(|r| r.count).sum();
    assert_eq!(total as usize, spans.len());
    // Empty SQS polls are recorded (billed, no payload) and visible.
    assert!(spans
        .iter()
        .any(|s| s.service == ServiceKind::Sqs && s.outcome == Outcome::Missing));
}
