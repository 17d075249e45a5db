//! # amada-bench
//!
//! The reproduction harness: one module per table / figure of the paper's
//! evaluation (Section 8), regenerating the same rows and series over the
//! simulated cloud, and one [`registry`] row per artifact from which the
//! `repro` binary derives everything it does with it.
//!
//! Run everything with
//!
//! ```text
//! cargo run -p amada-bench --release --bin repro -- all
//! ```
//!
//! or a single artifact with e.g. `repro table4`, `repro fig9 --scale 2`.
//!
//! ## Scale
//!
//! The paper's corpus is 20 000 XMark documents totalling 40 GB on real
//! AWS hardware; the default reproduction scale is 1/10 the documents at
//! 1/250 the bytes each (2 000 documents × 8 KB ≈ 17 MB), which preserves
//! every *relative* effect the paper reports (strategy orderings,
//! index/no-index gaps, crossover points) while `repro all` runs in
//! minutes. `--scale N` multiplies the document count.

pub mod experiments;
pub mod registry;
pub mod scale;
pub mod table;

pub use registry::Outcome;
pub use scale::Scale;
pub use table::TextTable;

use amada_core::{IndexBuildReport, Warehouse, WarehouseConfig};
use amada_index::Strategy;

/// Generates the experiment corpus for a scale.
pub fn corpus(scale: &Scale) -> Vec<(String, String)> {
    amada_xmark::generate_corpus(&scale.corpus_config())
        .into_iter()
        .map(|d| (d.uri, d.xml))
        .collect()
}

/// The ten workload queries (paper Section 8.2).
pub use amada_xmark::workload;

/// Builds a warehouse over `docs` with the given configuration, returning
/// it together with the index-build report.
pub fn build_warehouse(
    cfg: WarehouseConfig,
    docs: &[(String, String)],
) -> (Warehouse, IndexBuildReport) {
    let mut w = Warehouse::new(cfg);
    w.upload_documents(docs.iter().map(|(u, x)| (u.clone(), x.clone())));
    let report = w.build_index();
    (w, report)
}

/// Convenience: a default-config warehouse with one strategy and the
/// paper's 8-large loader pool.
pub fn strategy_warehouse(
    strategy: Strategy,
    docs: &[(String, String)],
) -> (Warehouse, IndexBuildReport) {
    build_warehouse(WarehouseConfig::with_strategy(strategy), docs)
}

/// Formats a byte count as mebibytes with two decimals.
pub fn mb(bytes: u64) -> String {
    format!("{:.2}", bytes as f64 / (1024.0 * 1024.0))
}
