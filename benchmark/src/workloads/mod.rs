//! The five workloads. Each stresses different layers; for every layer an
//! optimisation could touch, one workload exercises it and another
//! bypasses it (see `spec::WORKLOADS` for why each exists).

pub mod churn;
pub mod ingest;
pub mod query;
pub mod storm;
