//! Warehouse configuration.

use crate::retry::RetryPolicy;
use amada_cloud::{FaultConfig, InstanceType, KvBackend, KvTuning, Phase, SimDuration};
use amada_index::{ExtractOptions, Strategy};

/// S3 bucket holding the XML documents.
pub const DOC_BUCKET: &str = "amada-documents";
/// S3 bucket holding materialized query results.
pub const RESULT_BUCKET: &str = "amada-results";
/// Queue carrying document-loading requests (architecture step 3).
pub const LOADER_QUEUE: &str = "amada-loader-requests";
/// Queue carrying query requests (step 8).
pub const QUERY_QUEUE: &str = "amada-query-requests";
/// Queue carrying query responses (step 15).
pub const RESPONSE_QUEUE: &str = "amada-query-responses";
/// Queue receiving messages that exceeded `RetryPolicy::max_receives`
/// deliveries without being completed (poison messages / repeated
/// abandonment) instead of recirculating forever.
pub const DEAD_LETTER_QUEUE: &str = "amada-dead-letter";
/// How long a module core waits before it receives again — after an empty
/// receive on an open queue, or after abandoning a task to redelivery.
pub const POLL_INTERVAL: SimDuration = SimDuration::from_millis(100);

/// What is fixed about a module, whichever core runs it.
#[derive(Debug, Clone, Copy)]
pub struct Module {
    /// The task queue its cores consume.
    pub queue: &'static str,
    /// Its instances' span lane (the `kind` of their [`amada_cloud::ActorTag`]).
    pub kind: &'static str,
    /// The phase its work is attributed to.
    pub phase: Phase,
    /// Stream-derivation tag of its cores' jitter generators, so loader
    /// and query cores draw from independent streams under one master
    /// seed.
    pub(crate) rng_tag: u64,
}

/// The indexing module (architecture steps 4–6).
pub const LOADER: Module = Module {
    queue: LOADER_QUEUE,
    kind: "loader",
    phase: Phase::Build,
    rng_tag: 0x10AD_0000,
};

/// The query-processor module (architecture steps 9–15).
pub const QUERY: Module = Module {
    queue: QUERY_QUEUE,
    kind: "query",
    phase: Phase::Query,
    rng_tag: 0x9E4F_0000,
};

/// An instance pool: how many virtual machines of which flavor run a
/// module.
#[derive(Debug, Clone, Copy)]
pub struct Pool {
    /// Number of instances.
    pub count: usize,
    /// Instance flavor.
    pub itype: InstanceType,
}

impl Pool {
    /// A pool of `count` instances of `itype`.
    pub const fn new(count: usize, itype: InstanceType) -> Pool {
        Pool { count, itype }
    }
}

/// Instances running the indexing module: the paper's 8 large (Section
/// 8.1, Table 4).
pub const LOADER_POOL: Pool = Pool::new(8, InstanceType::Large);

/// Host-side execution knobs. Everything here shapes only the *wall
/// clock* of the simulation host; no field can change virtual times,
/// costs, or any emitted number (asserted by the
/// `prewarm_identity` tests).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HostConfig {
    /// Parse and extract all stored documents across all host cores
    /// before the discrete-event engine runs, so loader and query steps
    /// become cache hits. Thread count comes from `AMADA_THREADS` or the
    /// machine's available parallelism.
    pub prewarm: bool,
    /// Record every service call, throttle and actor phase as a virtual-
    /// time span (`amada_cloud::obs`). Off by default; recording only
    /// *observes* — virtual times, bills and results stay bit-identical
    /// (asserted by the observability identity test), which is why this
    /// knob lives in `HostConfig`.
    pub record: bool,
}

impl Default for HostConfig {
    fn default() -> Self {
        HostConfig {
            prewarm: true,
            record: false,
        }
    }
}

/// Full warehouse configuration.
#[derive(Debug, Clone)]
pub struct WarehouseConfig {
    /// Indexing strategy (paper Table 2): the loader indexes every
    /// document under it in the global tables, whatever prefix a URI
    /// carries, and an indexed query looks it up (the no-index baseline
    /// scans the corpus instead).
    pub strategy: Strategy,
    /// Extraction options (full-text on/off).
    pub extract: ExtractOptions,
    /// Index-store backend (DynamoDB, or SimpleDB for the \[8\] baseline).
    pub backend: KvBackend,
    /// Ablation switches on the index store (binary values, batching).
    pub kv_tuning: KvTuning,
    /// Instances running the query processor (paper: 1 unless stated).
    pub query_pool: Pool,
    /// SQS visibility timeout for task leases. A module core renews its
    /// lease at the half-life while it works (the paper's Section 3
    /// crash-detection contract: a crashed core stops renewing, and the
    /// message is redelivered). Long by default so a healthy task
    /// finishes within half the window and issues no renewals — billing
    /// then counts exactly the receive + delete per message the paper's
    /// cost formulas assume.
    pub visibility: SimDuration,
    /// Seeded transient-fault injection for the simulated services.
    /// Off by default; the identity tests pin that a default `faults`
    /// leaves every virtual time and cost bit-identical to a world with
    /// no fault subsystem at all.
    pub faults: FaultConfig,
    /// How modules and the front end retry throttled requests.
    pub retry: RetryPolicy,
    /// Host-side (wall-clock only) execution knobs.
    pub host: HostConfig,
}

impl Default for WarehouseConfig {
    fn default() -> Self {
        WarehouseConfig {
            strategy: Strategy::Lu,
            extract: ExtractOptions::default(),
            backend: KvBackend::default(),
            kv_tuning: KvTuning::NONE,
            query_pool: Pool::new(1, InstanceType::Large),
            visibility: SimDuration::from_secs(4 * 3600),
            faults: FaultConfig::default(),
            retry: RetryPolicy::default(),
            host: HostConfig::default(),
        }
    }
}

impl WarehouseConfig {
    /// Convenience: the default configuration with a given strategy.
    pub fn with_strategy(strategy: Strategy) -> WarehouseConfig {
        WarehouseConfig {
            strategy,
            ..Default::default()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper_setup() {
        let c = WarehouseConfig::default();
        assert_eq!(LOADER_POOL.count, 8);
        assert_eq!(LOADER_POOL.itype, InstanceType::Large);
        assert_eq!(c.query_pool.count, 1);
    }
}
