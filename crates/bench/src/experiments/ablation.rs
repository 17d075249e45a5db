//! Ablation study (beyond the paper's artifacts): what the paper's two
//! highlighted engineering choices are worth, measured by switching each
//! off.
//!
//! * **binary ID encoding** — Section 8.4: "DynamoDB allows storing
//!   arbitrary binary objects as values, a feature we exploited in order
//!   to efficiently encode our index data"; the ablation forces the
//!   base64 / 1 KB-chunk string fallback on DynamoDB.
//! * **batched writes** — Section 8.1: "we batched the documents in order
//!   to minimize the number of calls"; the ablation writes one item per
//!   API request.
//! * **2LUPI semijoin pre-filtering** — Section 5.4's reduction step; the
//!   ablation is plain LUI (same answers, no path-table pre-filter), so
//!   the LUI row doubles as this comparison.

use crate::{build_warehouse, corpus, Scale, TextTable};
use amada_cloud::KvTuning;
use amada_core::WarehouseConfig;
use amada_index::Strategy;

/// One ablation row.
#[derive(Debug, Clone)]
pub struct AblationRow {
    /// Configuration label.
    pub label: &'static str,
    /// Index build wall time (seconds).
    pub build_secs: f64,
    /// Index build cost (dollars).
    pub build_cost: f64,
    /// Store API requests issued while building.
    pub api_requests: u64,
    /// Stored index bytes (raw + overhead).
    pub stored_mb: f64,
    /// Mean workload query response (seconds).
    pub query_secs: f64,
}

/// Runs the ablations on the LUI strategy (the one whose encoding the
/// choices affect most).
pub fn ablation_rows(scale: &Scale) -> Vec<AblationRow> {
    let docs = corpus(scale);
    let queries = crate::workload();
    let configs: [(&'static str, KvTuning); 3] = [
        ("LUI (binary + batched)", KvTuning::NONE),
        (
            "LUI, string-encoded IDs",
            KvTuning {
                force_string_values: true,
                disable_batching: false,
            },
        ),
        (
            "LUI, unbatched writes",
            KvTuning {
                force_string_values: false,
                disable_batching: true,
            },
        ),
    ];
    let mut rows = Vec::new();
    for (label, tuning) in configs {
        let mut cfg = WarehouseConfig::with_strategy(Strategy::Lui);
        cfg.kv_tuning = tuning;
        let (mut w, build) = build_warehouse(cfg, &docs);
        let api_requests = w.world().kv.stats().api_requests;
        let mut query_secs = 0.0;
        for q in &queries {
            query_secs += w.run_query(q).exec.response_time.as_secs_f64();
        }
        rows.push(AblationRow {
            label,
            build_secs: build.total_time.as_secs_f64(),
            build_cost: build.cost.total().dollars(),
            api_requests,
            stored_mb: w.world().kv.stats().stored_bytes() as f64 / (1024.0 * 1024.0),
            query_secs: query_secs / queries.len() as f64,
        });
    }
    rows
}

/// Renders the ablation table.
pub fn ablation(scale: &Scale) -> TextTable {
    let mut t = TextTable::new([
        "Configuration",
        "Build time (s)",
        "Build cost ($)",
        "API requests",
        "Index stored (MB)",
        "Mean query (s)",
    ]);
    for r in ablation_rows(scale) {
        t.row([
            r.label.to_string(),
            format!("{:.2}", r.build_secs),
            format!("{:.6}", r.build_cost),
            r.api_requests.to_string(),
            format!("{:.2}", r.stored_mb),
            format!("{:.3}", r.query_secs),
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn both_choices_pay_off() {
        let rows = ablation_rows(&Scale::tiny());
        let base = &rows[0];
        let strings = &rows[1];
        let unbatched = &rows[2];
        // String encoding stores more bytes and must not be faster.
        assert!(strings.stored_mb > base.stored_mb);
        assert!(strings.build_secs >= base.build_secs * 0.99);
        // Unbatched writes cost far more API calls and more time.
        assert!(unbatched.api_requests > 5 * base.api_requests);
        assert!(unbatched.build_secs > base.build_secs);
        // Answers stay correct either way (query times comparable order).
        assert!(strings.query_secs > 0.0 && unbatched.query_secs > 0.0);
    }
}
