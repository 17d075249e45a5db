//! # amada-xmark
//!
//! Deterministic synthetic corpora for the warehouse experiments:
//!
//! * [`gen`] — an XMark-style auction-site document generator with the
//!   paper's two heterogeneity transforms (restructured paths; sparse
//!   optional children) and corpus-global entity identifiers so that value
//!   joins span documents;
//! * [`museum`] — the paintings/museums running example of the paper's
//!   Figures 2–3;
//! * [`workload`](mod@workload) — the ten-query experimental workload of
//!   Section 8.2;
//! * [`words`] — the fixed vocabulary and marker words with controlled
//!   document frequencies.
//!
//! Everything is seeded and reproducible: document `i` depends only on
//! `(seed, i)`, so corpus prefixes are stable — a property the Figure 7
//! scaling experiment relies on.

pub mod gen;
pub mod museum;
pub mod words;
pub mod workload;

pub use gen::{
    doc_uri, generate_corpus, generate_document, kind_for, variant_for, CorpusConfig, DocKind,
    DocVariant, GeneratedDoc,
};
pub use museum::{delacroix_xml, figure2_queries, generate_gallery, manet_xml, GalleryDoc};
pub use workload::{workload, workload_query, workload_texts};
