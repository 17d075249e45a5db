//! # amada-core
//!
//! The end-to-end warehouse of the paper's Figure 1: a front end, an
//! indexing module and a query-processor module running on simulated cloud
//! instances, glued by queues, storing documents in a file store and the
//! index in a key-value store — plus the Section 7 monetary cost model,
//! the index amortization analysis (Figure 13), and the index advisor
//! sketched as future work in the paper's conclusion.

pub mod actors;
pub mod adaptive;
pub mod amortization;
pub mod arrival;
pub mod config;
pub mod cost;
mod fetch;
pub mod metrics;
pub mod retry;
pub mod warehouse;

pub use actors::RetractionRegistry;
pub use adaptive::{advise, AdviseError, FamilyLoad, Horizon, PlanEstimate};
pub use amortization::{Amortization, AmortizationPoint};
pub use arrival::{ArrivalProcess, ArrivalSender};
pub use config::{Module, Pool, WarehouseConfig, LOADER, LOADER_POOL, QUERY};
pub use config::{
    DEAD_LETTER_QUEUE, DOC_BUCKET, LOADER_QUEUE, QUERY_QUEUE, RESPONSE_QUEUE, RESULT_BUCKET,
};
pub use metrics::{CostedQuery, IndexBuildReport, QueryExecution, QueryPhases, WorkloadReport};
pub use retry::{Lease, RetryPolicy};
pub use warehouse::{DeleteReport, UploadReport, Warehouse};
