//! One module per evaluation artifact (table / figure) of the paper.

pub mod ablation;
pub mod amortize;
pub mod churn;
pub mod comparison;
pub mod fault;
pub mod indexing;
pub mod querying;
pub mod scaling;
pub mod trace;
