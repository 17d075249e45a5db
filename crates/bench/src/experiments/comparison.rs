//! Tables 7 and 8: comparison with the paper's preliminary system \[8\],
//! which stored the index in SimpleDB instead of DynamoDB. Per MB of XML
//! data: indexing speed and cost (Table 7, including monthly storage per
//! GB) and query-processing speed and cost (Table 8).

use crate::{build_warehouse, corpus, Scale, TextTable};
use amada_cloud::{InstanceType, KvBackend};
use amada_core::{Pool, WarehouseConfig};
use amada_index::Strategy;
use std::collections::HashMap;

/// Per-(backend, strategy) measurements.
#[derive(Debug, Clone, Copy)]
pub struct BackendRow {
    /// Indexing time, milliseconds per MB of XML.
    pub index_ms_per_mb: f64,
    /// Indexing cost, dollars per MB of XML.
    pub index_cost_per_mb: f64,
    /// Index monthly storage, dollars per GB of XML.
    pub storage_per_gb_month: f64,
    /// Workload time, milliseconds per MB of XML.
    pub query_ms_per_mb: f64,
    /// Workload cost, dollars per MB of XML.
    pub query_cost_per_mb: f64,
}

/// The full comparison grid.
pub struct ComparisonSuite {
    /// `(backend label, strategy)` → measurements.
    pub rows: HashMap<(&'static str, Strategy), BackendRow>,
}

/// Runs both backends across all strategies — eight independent
/// warehouses, run concurrently across host threads (each owns its own
/// simulated cloud and virtual clock).
pub fn comparison_suite(scale: &Scale) -> ComparisonSuite {
    let docs = corpus(scale);
    let corpus_bytes: u64 = docs.iter().map(|(_, x)| x.len() as u64).sum();
    let corpus_mb = corpus_bytes as f64 / (1024.0 * 1024.0);
    let queries = crate::workload();
    let units: Vec<(&'static str, KvBackend, Strategy)> = [
        ("SimpleDB [8]", KvBackend::Simple),
        ("DynamoDB (this work)", KvBackend::Dynamo),
    ]
    .into_iter()
    .flat_map(|(label, backend)| Strategy::ALL.map(|s| (label, backend, s)))
    .collect();
    let rows: HashMap<(&'static str, Strategy), BackendRow> = amada_par::par_run(
        units
            .into_iter()
            .map(|(label, backend, strategy)| {
                let docs = &docs;
                let queries = &queries;
                move || {
                    let mut cfg = WarehouseConfig::with_strategy(strategy);
                    cfg.backend = backend;
                    cfg.query_pool = Pool::new(1, InstanceType::Large);
                    let (mut w, build) = build_warehouse(cfg, docs);
                    let run = w.run_workload(queries, 1);
                    let storage = w.storage_cost().index_store;
                    (
                        (label, strategy),
                        BackendRow {
                            index_ms_per_mb: build.total_time.as_secs_f64() * 1000.0 / corpus_mb,
                            index_cost_per_mb: build.cost.total().dollars() / corpus_mb,
                            storage_per_gb_month: storage.dollars()
                                / (corpus_bytes as f64 / 1_000_000_000.0),
                            query_ms_per_mb: run.total_time.as_secs_f64() * 1000.0 / corpus_mb,
                            query_cost_per_mb: run.cost.total().dollars() / corpus_mb,
                        },
                    )
                }
            })
            .collect(),
    )
    .into_iter()
    .collect();
    ComparisonSuite { rows }
}

const BACKENDS: [&str; 2] = ["SimpleDB [8]", "DynamoDB (this work)"];

/// Paper Table 7: indexing speed and cost per MB of XML, per backend,
/// plus the monthly index storage cost per GB of XML.
pub fn table7(suite: &ComparisonSuite) -> TextTable {
    let mut t = TextTable::new([
        "Strategy",
        "Backend",
        "Indexing speed (ms/MB)",
        "Indexing cost ($/MB)",
        "Index storage ($/GB/month)",
    ]);
    for s in Strategy::ALL {
        for b in BACKENDS {
            let r = &suite.rows[&(b, s)];
            t.row([
                s.name().to_string(),
                b.to_string(),
                format!("{:.1}", r.index_ms_per_mb),
                format!("{:.6}", r.index_cost_per_mb),
                format!("{:.4}", r.storage_per_gb_month),
            ]);
        }
    }
    t
}

/// Paper Table 8: query-processing speed and cost per MB of XML, per
/// backend.
pub fn table8(suite: &ComparisonSuite) -> TextTable {
    let mut t = TextTable::new([
        "Strategy",
        "Backend",
        "Query speed (ms/MB)",
        "Query cost ($/MB)",
    ]);
    for s in Strategy::ALL {
        for b in BACKENDS {
            let r = &suite.rows[&(b, s)];
            t.row([
                s.name().to_string(),
                b.to_string(),
                format!("{:.2}", r.query_ms_per_mb),
                format!("{:.8}", r.query_cost_per_mb),
            ]);
        }
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dynamodb_beats_simpledb_on_speed_and_cost() {
        let suite = comparison_suite(&Scale::tiny());
        for s in Strategy::ALL {
            let sdb = &suite.rows[&("SimpleDB [8]", s)];
            let ddb = &suite.rows[&("DynamoDB (this work)", s)];
            // Table 7 shape: indexing one-to-two orders of magnitude
            // faster on DynamoDB; we require at least 5x at tiny scale.
            assert!(
                sdb.index_ms_per_mb > 5.0 * ddb.index_ms_per_mb,
                "{s}: {} vs {}",
                sdb.index_ms_per_mb,
                ddb.index_ms_per_mb
            );
            // Table 8 shape: querying several times faster.
            assert!(
                sdb.query_ms_per_mb > 1.5 * ddb.query_ms_per_mb,
                "{s}: query {} vs {}",
                sdb.query_ms_per_mb,
                ddb.query_ms_per_mb
            );
            // Indexing cost is higher on SimpleDB (more billed operations
            // from value chunking, more instance time).
            assert!(sdb.index_cost_per_mb > ddb.index_cost_per_mb, "{s}");
        }
        assert_eq!(table7(&suite).len(), 8);
        assert_eq!(table8(&suite).len(), 8);
    }
}
