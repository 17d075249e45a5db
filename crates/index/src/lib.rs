//! # amada-index
//!
//! The paper's four cloud indexing strategies (Section 5) and everything
//! around them:
//!
//! * [`key`] — the `key(n)` encoding (`e‖label`, `a‖name`,
//!   `a‖name value`, `w‖word`) and `inPath(n)` path encoding;
//! * [`strategy`] — the extraction functions of Table 2 (LU, LUP, LUI,
//!   2LUPI), with or without full-text word keys;
//! * [`codec`] — delta-varint compression of structural-ID lists, plus the
//!   base64 / 1 KB-chunk fallback for string-only stores;
//! * [`store`] — mapping entries onto key-value items (UUID range keys,
//!   per-backend encoding, chunk ordering);
//! * [`loadutil`] — the document write plan (entries → batched puts,
//!   stale keys → batched deletes) and its sequential and key-only uses;
//! * [`lookup`] — the per-strategy look-up planners, including the LUP
//!   query-path matcher and the 2LUPI semijoin + ID twig join plan of the
//!   paper's Figure 5;
//! * [`explain`] — textual look-up plans (the Figure 5 outline, for every
//!   strategy);
//! * [`pushdown`] — the wire-serializable scan predicate behind the
//!   LUP-PD strategy (storage-side post-filtering, the S3-Select analog).

pub mod cache;
pub mod codec;
pub mod explain;
pub mod key;
pub mod loadutil;
pub mod lookup;
pub mod parallel;
pub mod partition;
pub mod pushdown;
pub mod shard;
pub mod store;
pub mod strategy;

pub use cache::{content_hash, CacheStats, Content, ExtractCache};
pub use explain::explain;
pub use loadutil::{
    delete_batches, entry_item_keys, placed_item_keys, plan_document, retract_keys, stale_keys,
    write_entries, DocIndexing, Held, ItemKey, WritePlan,
};
pub use lookup::{lookup_pattern_in, lookup_query, LookupOutcome, QueryLookup};
pub use parallel::{prewarm, PrewarmReport};
pub use partition::{
    index_documents, index_documents_mixed, lookup_mixed, merge_fan_out, partition_of, MixedPlan,
    Placement,
};
pub use pushdown::{decode_tuples, encode_tuples, ScanPredicate};
pub use shard::{hottest_keys, key_frequencies, skew_aware_plan};
pub use store::{UuidGen, ValueId};
pub use strategy::{extract, ExtractOptions, IndexEntry, Payload, Strategy};
pub use strategy::{TABLE_ID, TABLE_MAIN, TABLE_PATH};
