//! # amada-cloud
//!
//! A from-scratch simulation of the commercial-cloud substrate the paper
//! deploys on (Amazon Web Services, Section 6), sufficient for every
//! behaviour the warehouse and its cost model depend on:
//!
//! * [`s3`] — the file store (documents and query results);
//! * [`dynamodb`] — the key-value index store: composite keys,
//!   multi-valued attributes, binary values, batch APIs, provisioned
//!   throughput with saturation;
//! * [`simpledb`] — the older key-value store used by the paper's \[8\]
//!   baseline: string-only ≤ 1 KB values, slower service;
//! * [`sqs`] — queues with visibility timeouts (at-least-once delivery,
//!   the architecture's crash-tolerance mechanism);
//! * [`ec2`] — virtual instances (large / extra-large) with fractional
//!   hourly billing;
//! * [`sim`] — the discrete-event engine gluing actors (instance cores)
//!   to services over a deterministic virtual clock;
//! * [`workmodel`] — converts real measured work metrics into virtual
//!   compute durations;
//! * [`pricing`] / [`money`] — the paper's Table 3 price constants and
//!   exact picodollar arithmetic;
//! * [`obs`] — an off-by-default span recorder keyed to the virtual
//!   clock (service calls, throttles, actor phases) feeding the
//!   `amada-obs` analysis crate.
//!
//! Everything is deterministic: no wall-clock time, no host randomness.

pub mod clock;
pub mod dynamodb;
pub mod ec2;
pub mod fault;
pub mod kv;
pub mod money;
pub mod obs;
pub mod pricing;
pub mod s3;
pub mod service;
pub mod shard;
pub mod sim;
pub mod simpledb;
pub mod sqs;
pub mod store;
pub mod tuning;
pub mod workmodel;

pub use clock::{SimDuration, SimTime};
pub use dynamodb::{DynamoConfig, DynamoDb};
pub use ec2::{BillingGranularity, Ec2, InstanceId, InstanceRecord};
pub use fault::{FaultConfig, FaultInjector, RetryAfter};
pub use kv::{KvError, KvField, KvItem, KvProfile, KvStats, KvStore, KvValue};
pub use money::Money;
pub use obs::{ActorTag, Ctx, Outcome, Phase, Recorder, ServiceKind, Span};
pub use pricing::{InstanceType, PriceTable};
pub use s3::{content_hash, Blob, ObjectPredicate, S3Error, S3Stats, S3};
pub use shard::ShardPlan;
pub use sim::{Actor, CostReport, CostSnapshot, Engine, KvBackend, StepResult, StorageCost, World};
pub use simpledb::{SimpleDb, SimpleDbConfig};
pub use sqs::{Message, Sqs, SqsError, SqsStats};
pub use tuning::KvTuning;
pub use workmodel::WorkModel;
