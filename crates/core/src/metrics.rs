//! Report types produced by the warehouse — the raw material of every
//! table and figure in the paper's evaluation section.

use amada_cloud::{CostReport, InstanceType, SimDuration, StorageCost};
use amada_index::Strategy;
use amada_pattern::JoinedTuple;
use std::fmt;

/// Outcome of building the index over the uploaded corpus (Tables 4 and 6,
/// Figures 7 and 8).
#[derive(Debug, Clone)]
pub struct IndexBuildReport {
    /// Strategy used.
    pub strategy: Strategy,
    /// Loader pool size and flavor.
    pub instances: usize,
    /// Loader instance flavor.
    pub itype: InstanceType,
    /// Documents indexed.
    pub documents: u64,
    /// Corpus size in bytes.
    pub corpus_bytes: u64,
    /// Index entries extracted.
    pub entries: u64,
    /// Store items written.
    pub items: u64,
    /// Items the store already held, value and all: not written, not billed.
    pub unchanged_items: u64,
    /// Raw entry bytes (`sr(D, I)`).
    pub entry_bytes: u64,
    /// Average per-core time spent extracting entries (Table 4 column
    /// "average extraction time").
    pub avg_extraction_time: SimDuration,
    /// Average per-core time spent waiting on index-store writes
    /// (Table 4 column "average uploading time").
    pub avg_upload_time: SimDuration,
    /// Stale index items deleted by update retraction during this build
    /// (zero for a churn-free corpus).
    pub retracted_items: u64,
    /// Wall-clock time of the whole indexing phase (Table 4 "total").
    pub total_time: SimDuration,
    /// Charges for the phase, decomposed by service (Table 6).
    pub cost: CostReport,
    /// Raw index bytes stored (`sr(D, I)`), from the store's accounting.
    pub index_raw_bytes: u64,
    /// Store overhead bytes (`ovh(D, I)`).
    pub index_overhead_bytes: u64,
    /// Monthly storage charges after the build (Figure 8).
    pub storage: StorageCost,
    /// Billed requests the services throttled during the build (each was
    /// retried; zero in a fault-free run).
    pub throttled_requests: u64,
    /// Visibility-lease renewals issued by the loader cores.
    pub lease_renewals: u64,
    /// Task messages redelivered after a lease expired (crashed or
    /// abandoning consumer).
    pub redelivered: u64,
}

/// Timing decomposition of one query execution (Figures 9b / 9c): the
/// three phases the paper charts per query and strategy.
#[derive(Debug, Clone, Copy, Default)]
pub struct QueryPhases {
    /// "Lookup – DynamoDB Get": issuing index gets and waiting for them.
    pub lookup_get: SimDuration,
    /// "Lookup – Plan execution": intersections, path filtering, ID joins.
    pub plan: SimDuration,
    /// "S3 documents transfer and results extraction": fetching candidate
    /// documents and evaluating the query on them, pipelined on the
    /// instance's cores, then joining and materializing the results.
    pub transfer_eval: SimDuration,
}

/// Outcome of one query execution (Table 5, Figures 9–13).
#[derive(Debug, Clone)]
pub struct QueryExecution {
    /// Query name (e.g. `q4`).
    pub name: String,
    /// Whether an index was used (`None` = the no-index baseline).
    pub strategy: Option<Strategy>,
    /// Response time perceived at the query processor: message retrieved →
    /// message deleted (the paper's measurement convention, Section 7.1).
    pub response_time: SimDuration,
    /// Phase decomposition.
    pub phases: QueryPhases,
    /// Document IDs returned by index look-up, summed over tree patterns
    /// (Table 5 "# Doc. IDs from index").
    pub docs_from_index: usize,
    /// Distinct documents actually fetched from the file store.
    pub docs_fetched: usize,
    /// Documents that contain query results (Table 5 "# Docs. w. results").
    pub docs_with_results: usize,
    /// Materialized result tuples.
    pub results: Vec<JoinedTuple>,
    /// Result size in bytes (`|r(q)|`).
    pub result_bytes: u64,
    /// Billed index get operations (`|op(q, D, I)|`).
    pub index_get_ops: u64,
}

/// The result object a query materializes: a line per result tuple, its
/// columns tab-separated. These are the bytes stored in the file store,
/// egressed to the front end and counted as `|r(q)|`.
pub(crate) fn result_payload(results: &[JoinedTuple]) -> String {
    let mut payload = String::new();
    for r in results {
        for (i, column) in r.columns.iter().enumerate() {
            if i > 0 {
                payload.push('\t');
            }
            payload.push_str(column);
        }
        payload.push('\n');
    }
    payload
}

/// A query execution together with its isolated cost delta (Figures 11–12).
#[derive(Debug, Clone)]
pub struct CostedQuery {
    /// The execution.
    pub exec: QueryExecution,
    /// Charges attributable to this query, by service.
    pub cost: CostReport,
}

/// `explain analyze` of the executed query: the index that answered it (or
/// `scan`), what its look-up and fetch phase counted, and what each service
/// charged, every value read off the execution and its bill.
impl fmt::Display for CostedQuery {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let (e, c) = (&self.exec, &self.cost);
        let path = e.strategy.map_or("scan", Strategy::name);
        writeln!(f, "explain analyze {} [{path}]", e.name)?;
        let total = c.total();
        let rows: [(&str, &dyn fmt::Display); 11] = [
            ("index gets", &e.index_get_ops),
            ("doc IDs from index", &e.docs_from_index),
            ("documents fetched", &e.docs_fetched),
            ("with results", &e.docs_with_results),
            ("result bytes", &e.result_bytes),
            ("index store", &c.kv),
            ("file store", &c.s3),
            ("instances", &c.ec2),
            ("queues", &c.sqs),
            ("egress", &c.egress),
            ("total", &total),
        ];
        for (label, value) in rows {
            writeln!(f, "  {label:<20}{value}")?;
        }
        Ok(())
    }
}

/// Outcome of a (possibly repeated) workload run (Figure 10).
#[derive(Debug, Clone)]
pub struct WorkloadReport {
    /// Per-query executions, in completion order.
    pub executions: Vec<QueryExecution>,
    /// Wall-clock time of the whole run.
    pub total_time: SimDuration,
    /// Charges for the run.
    pub cost: CostReport,
    /// Billed requests the services throttled during the run.
    pub throttled_requests: u64,
    /// Visibility-lease renewals issued by the query processors.
    pub lease_renewals: u64,
    /// Query messages redelivered after a lease expired.
    pub redelivered: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn query_phases_default_to_zero() {
        let p = QueryPhases::default();
        assert_eq!(p.lookup_get, SimDuration::ZERO);
        assert_eq!(p.plan, SimDuration::ZERO);
    }
}
