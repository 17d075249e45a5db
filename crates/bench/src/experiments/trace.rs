//! The trace artifact (beyond the paper's figures): the full pipeline —
//! upload, index build, query workload — with the span recorder on,
//! exported as a Chrome trace-event JSON file plus summary tables.
//!
//! Recording is observation-only (the run is bit-identical to a
//! recorder-off run; `tests/observability.rs` asserts it), so the trace is
//! a faithful timeline of exactly the run the other artifacts measure:
//! every billed service call, throttle and actor phase as a lane-per-actor
//! span, every span priced under the run's price table. The tables printed
//! alongside are the roll-ups `amada-obs` derives from the same spans: a
//! service × operation summary, the Figure 12-style cost attribution by
//! warehouse phase, and a per-service saturation series in one-second
//! virtual-time buckets.

use crate::{build_warehouse, corpus, workload, Outcome, Scale, TextTable};
use amada_cloud::{ServiceKind, SimDuration, Span};
use amada_core::WarehouseConfig;
use amada_index::Strategy;
use amada_obs::{
    chrome_trace, render_summary, summarize, validate_json, Attribution, ServiceSeries,
};

/// File the Chrome trace is exported to (working directory).
pub const TRACE_PATH: &str = "TRACE_repro.json";

/// Width of the saturation-series buckets (virtual time).
pub const BUCKET_WIDTH: SimDuration = SimDuration::from_secs(1);

/// Runs the recorded pipeline and returns `(outcome, trace JSON)` without
/// touching the filesystem (tests call this directly). The headline
/// numbers are the spans recorded and the non-empty series buckets.
pub fn trace_parts(scale: &Scale) -> (Outcome, String) {
    let docs = corpus(scale);
    let queries = workload();
    let mut cfg = WarehouseConfig::with_strategy(Strategy::Lup);
    cfg.host.record = true;
    let (mut w, build) = build_warehouse(cfg, &docs);
    let run = w.run_workload(&queries, scale.workload_repeats);

    let spans = w.spans();
    let world = w.world();
    let json = chrome_trace(&spans, world.ec2.records(), &world.prices);
    validate_json(&json).expect("exported trace must be valid JSON");

    let mut body = String::new();
    body.push_str(&format!(
        "{} spans over {:.3}s of virtual time (build {:.3}s + workload {:.3}s)\n\n",
        spans.len(),
        (build.total_time + run.total_time).as_secs_f64(),
        build.total_time.as_secs_f64(),
        run.total_time.as_secs_f64(),
    ));
    body.push_str("-- service x operation summary --\n");
    body.push_str(&render_summary(&summarize(&spans)));
    body.push_str("\n-- billed cost by phase and service --\n");
    body.push_str(&Attribution::attribute(&spans).render_by_phase());
    body.push_str("\n-- saturation series (1s virtual-time buckets) --\n");
    let (series, buckets) = series_table(&spans);
    body.push_str(&series.to_string());
    let numbers = vec![
        ("spans", spans.len() as f64),
        ("series_buckets", buckets as f64),
    ];
    (Outcome { body, numbers }, json)
}

/// The trace artifact: runs the recorded pipeline, writes [`TRACE_PATH`],
/// and returns the summary tables.
pub fn trace(scale: &Scale) -> Outcome {
    let (mut outcome, json) = trace_parts(scale);
    let body = &mut outcome.body;
    match std::fs::write(TRACE_PATH, &json) {
        Ok(()) => body.push_str(&format!(
            "\nwrote {TRACE_PATH} ({} bytes) - open in chrome://tracing or Perfetto\n",
            json.len()
        )),
        Err(e) => body.push_str(&format!("\nwarning: could not write {TRACE_PATH}: {e}\n")),
    }
    outcome
}

/// Per-service series roll-up — bucket counts, peak request rate, peak
/// utilization and worst throttle rate — and the non-empty buckets across
/// all the series.
fn series_table(spans: &[Span]) -> (TextTable, usize) {
    let mut t = TextTable::new([
        "Service",
        "Buckets",
        "Requests",
        "Peak req/bucket",
        "Peak in-flight",
        "Peak util",
        "Peak throttle",
    ]);
    let mut non_empty = 0;
    for svc in ServiceKind::ALL {
        let s = ServiceSeries::build(spans, svc, BUCKET_WIDTH);
        if s.buckets.is_empty() {
            continue;
        }
        let busy = s
            .buckets
            .iter()
            .filter(|b| b.requests > 0 || b.in_flight > 0);
        non_empty += busy.count();
        let peak_req = s.buckets.iter().map(|b| b.requests).max().unwrap_or(0);
        let peak_inflight = s.buckets.iter().map(|b| b.in_flight).max().unwrap_or(0);
        let peak_util = (0..s.buckets.len())
            .map(|i| s.utilization(i))
            .fold(0.0f64, f64::max);
        let peak_throttle = (0..s.buckets.len())
            .map(|i| s.throttle_rate(i))
            .fold(0.0f64, f64::max);
        t.row([
            svc.label().to_string(),
            s.buckets.len().to_string(),
            s.total_requests().to_string(),
            peak_req.to_string(),
            peak_inflight.to_string(),
            format!("{peak_util:.3}"),
            format!("{peak_throttle:.3}"),
        ]);
    }
    (t, non_empty)
}

#[cfg(test)]
mod tests {
    use super::*;
    use amada_cloud::{Money, Phase};

    #[test]
    fn trace_artifact_is_valid_and_attributed() {
        let scale = Scale::tiny();
        let (outcome, json) = trace_parts(&scale);
        validate_json(&json).expect("trace JSON validates");
        assert!(json.contains("\"traceEvents\""));
        assert!(outcome.body.contains("service x operation summary"));
        assert!(outcome.number("spans").unwrap() > 0.0);
        assert!(outcome.number("series_buckets").unwrap() > 0.0);

        // The pipeline touches every phase the warehouse tags; attribution
        // must see money in upload, build and query.
        let docs = corpus(&scale);
        let queries = workload();
        let mut cfg = WarehouseConfig::with_strategy(Strategy::Lup);
        cfg.host.record = true;
        let (mut w, _) = build_warehouse(cfg, &docs);
        let _ = w.run_workload(&queries, scale.workload_repeats);
        let a = Attribution::attribute(&w.spans());
        assert!(a.phases_sum_to_total());
        for phase in [Phase::Upload, Phase::Build, Phase::Query] {
            assert!(
                a.phase(phase) > Money::ZERO,
                "phase {} attributed no cost",
                phase.label()
            );
        }
        assert!(!a.by_query.is_empty(), "per-query attribution is empty");
    }
}
