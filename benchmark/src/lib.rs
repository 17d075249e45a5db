//! # amada-benchmark
//!
//! The repository's end-to-end benchmark: five workloads driven through
//! the real `Warehouse`, reported on two clocks — the *virtual* clock
//! (simulated seconds and picodollars, the paper's own metrics) and the
//! *host* clock (the wall time the Rust code spends) — with per-layer
//! attribution measured entirely from outside the program. See
//! `README.md` beside this crate for the metric definitions and the claim
//! protocol, and `spec.rs` for the tables `BENCHMARK.json` is made from.

pub mod harness;
pub mod host;
pub mod inputs;
pub mod json;
pub mod orchestrate;
pub mod replay;
pub mod report;
pub mod spec;
pub mod stats;
pub mod workloads;
