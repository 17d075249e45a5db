//! # amada-pattern
//!
//! The paper's query language (Section 4) — *value joins over tree
//! patterns* — together with two single-document evaluators and the
//! cross-document value-join executor:
//!
//! * [`ast`] — patterns, axes, predicates, output annotations, queries;
//! * [`parser`] — a concrete textual grammar for the paper's graphical
//!   notation (Figure 2);
//! * [`eval`] — a naive backtracking evaluator (correctness oracle) and
//!   tuple materialization (`val` = string value, `cont` = subtree);
//! * `stream` — the galloping skip (exponential probe + binary search)
//!   the join reads its `pre`-sorted input slices with;
//! * [`twig`] — the holistic twig join over *(pre, post, depth)* streams
//!   (PathStack + path-solution merging), generic over stream payloads so
//!   the index look-up layer can run it on bare ID lists, and built once
//!   per pattern ([`TwigEvaluator`]) to be run on every candidate document;
//! * [`valuejoin`] — joining per-pattern tuple sets into query results.
//!
//! ## Example
//!
//! ```
//! use amada_pattern::{parse_query, evaluate_query_on_documents};
//! use amada_xml::Document;
//!
//! let doc = Document::parse_str(
//!     "delacroix.xml",
//!     r#"<painting id="1854-1"><name>The Lion Hunt</name>
//!        <painter><name><first>Eugene</first><last>Delacroix</last></name></painter>
//!        </painting>"#,
//! ).unwrap();
//! let q = parse_query("//painting[/name{val}, //painter[/name{val}]]").unwrap();
//! let (results, _stats) = evaluate_query_on_documents(&q, [&doc]);
//! assert_eq!(results[0].columns, ["The Lion Hunt".into(), "EugeneDelacroix".into()]);
//! ```

pub mod ast;
pub mod eval;
pub mod parser;
mod stream;
pub mod twig;
pub mod valuejoin;

pub use ast::{Axis, Bound, NodeTest, Output, PatternNode, Predicate, Query, TreePattern};
pub use eval::{naive_matches, EvalStats, Tuple};
pub use parser::{parse_pattern, parse_query, ParseError};
pub use twig::{evaluate_pattern_twig, TwigEvaluator, TwigJoin, TwigShape};
pub use valuejoin::{join_pattern_results, JoinedTuple};

use amada_xml::Document;

/// Evaluates a full (possibly multi-pattern) query over a set of documents
/// using the twig-join evaluator, then applies the value joins.
///
/// This is the "standard XML query evaluation" capability the warehouse's
/// query-processor module runs on the documents selected by the index
/// look-up (architecture step 11).
pub fn evaluate_query_on_documents<'a>(
    query: &Query,
    docs: impl IntoIterator<Item = &'a Document> + Clone,
) -> (Vec<JoinedTuple>, EvalStats) {
    let mut stats = EvalStats::default();
    let per_pattern: Vec<Vec<Tuple>> = query
        .patterns
        .iter()
        .map(|p| {
            let mut evaluator = TwigEvaluator::new(p);
            let mut tuples = Vec::new();
            for d in docs.clone() {
                let (t, s) = evaluator.evaluate(d);
                stats.merge(s);
                tuples.extend(t);
            }
            tuples
        })
        .collect();
    let joined = join_pattern_results(query, &per_pattern);
    (joined, stats)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn end_to_end_single_pattern() {
        let doc = Document::parse_str(
            "d.xml",
            "<painting><name>Olympia</name><year>1863</year></painting>",
        )
        .unwrap();
        let q = parse_query("//painting[/name{val}, /year{val}]").unwrap();
        let (res, stats) = evaluate_query_on_documents(&q, [&doc]);
        assert_eq!(res.len(), 1);
        assert_eq!(res[0].columns, ["Olympia".into(), "1863".into()]);
        assert_eq!(stats.tuples, 1);
    }

    #[test]
    fn end_to_end_value_join() {
        let a = Document::parse_str("a.xml", "<a><k>1</k><v>left</v></a>").unwrap();
        let b = Document::parse_str("b.xml", "<b><k>1</k><v>right</v></b>").unwrap();
        let q = parse_query("//a[/k{val as $k}, /v{val}]; //b[/k{val as $k}, /v{val}]").unwrap();
        let (res, _) = evaluate_query_on_documents(&q, [&a, &b]);
        assert_eq!(res.len(), 1);
        let cells = ["1".into(), "left".into(), "1".into(), "right".into()];
        assert_eq!(res[0].columns, cells);
    }
}
