//! # amada-obs
//!
//! Analyses over the span stream recorded by `amada_cloud::obs`: the
//! simulator produces raw spans (one per service call, throttle, retry
//! and actor phase, keyed to the virtual clock); this crate derives the
//! paper-facing views from them:
//!
//! * [`series`] — per-service time-series in fixed virtual-time buckets
//!   (request rate, consumed capacity units, utilization, throttle rate,
//!   in-flight depth) — the saturation view of the paper's Figure 10;
//! * [`attrib`] — cost attribution: billed money decomposed by warehouse
//!   phase, by query and by service, in the style of Figure 12;
//! * [`trace`] — a Chrome trace-event JSON exporter (open in
//!   `chrome://tracing` / Perfetto), one lane per actor;
//! * [`summary`] — service × operation roll-up tables for reports;
//! * [`json`] — a hand-rolled JSON syntax validator so exported traces
//!   can be self-checked without external dependencies.
//!
//! Everything here is a pure function of the recorded spans: the crate
//! never touches the simulation, so analyses can run after the fact, on
//! spans from any run.

pub mod attrib;
pub mod json;
pub mod latency;
pub mod series;
pub mod summary;
pub mod trace;

pub use attrib::Attribution;
pub use json::validate_json;
pub use latency::{query_latencies, LatencySummary};
pub use series::{Bucket, ServiceSeries};
pub use summary::{render_summary, summarize, OpSummary};
pub use trace::chrome_trace;
