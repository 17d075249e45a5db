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
//! * [`loadutil`] — a document version's write set (entries → items, once)
//!   and its write plan (items → batched puts, stale keys → batched
//!   deletes), with its sequential and key-only uses;
//! * [`lookup`] — the per-strategy look-up planners, including the LUP
//!   query-path matcher and the 2LUPI semijoin + ID twig join plan of the
//!   paper's Figure 5.

pub mod cache;
pub mod codec;
pub mod key;
pub mod loadutil;
pub mod lookup;
pub mod parallel;
pub mod store;
pub mod strategy;

pub use cache::{content_hash, CacheStats, Content, Evaluation, ExtractCache, PatternProbe};
pub use loadutil::{
    entry_item_keys, index_documents, plan_document, retract_keys, stale_keys, write_entries,
    DocIndexing, Held, ItemKey, WritePlan, WriteSet,
};
pub use lookup::{lookup_pattern_in, lookup_query, LookupOutcome, QueryLookup};
pub use parallel::{prewarm, prewarm_for, PrewarmReport};
pub use store::UuidGen;
pub use strategy::{extract, ExtractOptions, IndexEntry, Payload, Strategy};
pub use strategy::{TABLE_ID, TABLE_MAIN, TABLE_PATH};
