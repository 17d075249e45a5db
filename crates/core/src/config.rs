//! Warehouse configuration.

use crate::retry::RetryPolicy;
use amada_cloud::{
    BillingGranularity, FaultConfig, InstanceType, KvBackend, KvTuning, Phase, PriceTable,
    SimDuration, WorkModel,
};
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
    pub fn new(count: usize, itype: InstanceType) -> Pool {
        Pool { count, itype }
    }
}

/// Queue-depth autoscaling policy for the query-processor pool. With
/// `None` in the config the warehouse launches the static pool of
/// [`Pool::count`] instances up front; `Some(policy)` puts an
/// [`crate::autoscale::AutoscaleController`] in charge of the same
/// instance launcher:
/// every `sample_interval` it issues a *billed* SQS depth probe and
/// resizes the pool toward `ceil(depth / backlog_per_instance)`, clamped
/// to `min..=max`. Scale-out launches instances whose billing starts at
/// the decision instant but whose cores only begin work `boot_latency`
/// later (you pay for the boot, as on real EC2); scale-in drains the
/// newest instances gracefully — they finish the messages they hold a
/// lease on, then [`amada_cloud::Ec2::stop`] freezes their billing
/// window.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AutoscalePolicy {
    /// Pool floor (≥ 1): instances provisioned up-front and never drained.
    pub min: usize,
    /// Pool ceiling.
    pub max: usize,
    /// Time between queue-depth samples (each sample is a billed SQS
    /// request).
    pub sample_interval: SimDuration,
    /// Backlog one instance is expected to absorb; the controller targets
    /// `ceil(depth / backlog_per_instance)` instances.
    pub backlog_per_instance: usize,
    /// Modeled instance boot latency: a scaled-out instance is billed
    /// from the scaling decision but its cores start polling only after
    /// this delay.
    pub boot_latency: SimDuration,
}

impl Default for AutoscalePolicy {
    fn default() -> Self {
        AutoscalePolicy {
            min: 1,
            max: 8,
            sample_interval: SimDuration::from_secs(5),
            backlog_per_instance: 4,
            boot_latency: SimDuration::from_secs(30),
        }
    }
}

impl AutoscalePolicy {
    /// Pool size the policy wants for a sampled queue depth.
    pub fn desired(&self, depth: usize) -> usize {
        depth
            .div_ceil(self.backlog_per_instance.max(1))
            .clamp(self.min, self.max)
    }

    /// Panics on a nonsensical policy (zero floor or inverted bounds).
    pub fn validate(&self) {
        assert!(self.min >= 1, "autoscale floor must keep one instance");
        assert!(self.min <= self.max, "autoscale min must not exceed max");
        assert!(
            self.sample_interval > SimDuration::ZERO,
            "autoscale sample interval must advance time"
        );
    }
}

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
    /// Indexing strategy (paper Table 2). The warehouse starts under its
    /// flat plan — the whole corpus in the global tables, whatever prefix
    /// a URI carries; [`crate::Warehouse::apply_plan`] switches from there.
    pub strategy: Strategy,
    /// Extraction options (full-text on/off).
    pub extract: ExtractOptions,
    /// Index-store backend (DynamoDB, or SimpleDB for the \[8\] baseline).
    pub backend: KvBackend,
    /// Ablation switches on the index store (binary values, batching).
    pub kv_tuning: KvTuning,
    /// Instances running the indexing module (paper: 8 large).
    pub loader_pool: Pool,
    /// Instances running the query processor (paper: 1 unless stated).
    pub query_pool: Pool,
    /// Queue-depth autoscaling for the query-processor pool; `None` (the
    /// default) runs the static pool. The loader pool is always static.
    pub query_autoscale: Option<AutoscalePolicy>,
    /// EC2 billing granularity: fractional hours (the paper's formulas,
    /// default) or per started hour (real 2012 EC2 invoicing).
    pub ec2_billing: BillingGranularity,
    /// Provider price table (paper Table 3 by default).
    pub prices: PriceTable,
    /// Compute work model.
    pub work: WorkModel,
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
    /// Shard plan for the index store: `None` (the default) keeps the
    /// single table-level queue, bit-identically to the unsharded build.
    /// A sharded plan changes service times and throttle exposure only —
    /// never answers or billed units.
    pub shard_plan: Option<amada_cloud::ShardPlan>,
}

impl Default for WarehouseConfig {
    fn default() -> Self {
        WarehouseConfig {
            strategy: Strategy::Lu,
            extract: ExtractOptions::default(),
            backend: KvBackend::default(),
            kv_tuning: KvTuning::NONE,
            loader_pool: Pool::new(8, InstanceType::Large),
            query_pool: Pool::new(1, InstanceType::Large),
            query_autoscale: None,
            ec2_billing: BillingGranularity::Fractional,
            prices: PriceTable::default(),
            work: WorkModel::default(),
            visibility: SimDuration::from_secs(4 * 3600),
            faults: FaultConfig::default(),
            retry: RetryPolicy::default(),
            host: HostConfig::default(),
            shard_plan: None,
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
        assert_eq!(c.loader_pool.count, 8);
        assert_eq!(c.loader_pool.itype, InstanceType::Large);
        assert_eq!(c.query_pool.count, 1);
        // Elasticity and started-hour billing are opt-in: the defaults
        // must reproduce the paper's static-pool, fractional-hour setup.
        assert!(c.query_autoscale.is_none());
        assert_eq!(c.ec2_billing, BillingGranularity::Fractional);
    }

    #[test]
    fn autoscale_policy_targets_backlog_per_instance() {
        let p = AutoscalePolicy {
            min: 1,
            max: 8,
            backlog_per_instance: 4,
            ..Default::default()
        };
        p.validate();
        assert_eq!(p.desired(0), 1, "empty queue holds the floor");
        assert_eq!(p.desired(4), 1);
        assert_eq!(p.desired(5), 2, "round up: 5 messages need 2 instances");
        assert_eq!(p.desired(32), 8);
        assert_eq!(p.desired(10_000), 8, "ceiling clamps");
    }

    #[test]
    #[should_panic(expected = "floor")]
    fn zero_floor_policy_is_rejected() {
        AutoscalePolicy {
            min: 0,
            ..Default::default()
        }
        .validate();
    }
}
