//! # amada-xml
//!
//! A self-contained XML substrate for the AMADA cloud warehouse: a
//! from-scratch, single-pass XML parser, an arena document tree annotated
//! with *(pre, post, depth)* structural identifiers, a serializer, and the
//! word tokenizer used by the full-text index keys.
//!
//! The structural identifiers follow Al-Khalifa et al. (ICDE 2002), as used
//! by the paper (Section 5, "Notations"): for two nodes `n1`, `n2`,
//!
//! * `n1` is an **ancestor** of `n2` iff `n1.pre < n2.pre` and
//!   `n1.post > n2.post`;
//! * `n1` is additionally the **parent** of `n2` iff `n1.depth + 1 == n2.depth`.
//!
//! Documents are immutable after parsing; all query processing and index
//! extraction in the other crates works off this representation.
//!
//! ## Example
//!
//! ```
//! use amada_xml::Document;
//!
//! let doc = Document::parse_str(
//!     "delacroix.xml",
//!     r#"<painting id="1854-1"><name>The Lion Hunt</name></painting>"#,
//! ).unwrap();
//! let root = doc.root();
//! assert_eq!(doc.name(root), Some("painting"));
//! assert_eq!(doc.string_value(root), "The Lion Hunt");
//! ```

pub mod error;
pub mod interner;
pub mod node;
pub mod parser;
pub mod serialize;
pub mod sid;
pub mod tree;
pub mod words;

pub use error::{XmlError, XmlErrorKind};
pub use interner::{Fnv, Interner, Sym};
pub use node::{NodeData, NodeId, NodeKind};
pub use sid::StructuralId;
pub use tree::Document;
pub use words::{contains_word, for_each_word, tokenize};

// Parsed documents are shared across host threads (the warehouse's
// parallel cache-prewarm stage); keep that guaranteed at compile time.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<Document>();
    assert_send_sync::<Interner>();
};
