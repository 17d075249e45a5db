//! One module per evaluation artifact (table / figure) of the paper.

pub mod ablation;
pub mod advise;
pub mod amortize;
pub mod churn;
pub mod comparison;
pub mod elastic;
pub mod fault;
pub mod indexing;
pub mod pushdown;
pub mod querying;
pub mod scaling;
pub mod shard;
pub mod trace;
