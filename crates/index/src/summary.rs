//! Data summaries and selectivity estimation — the paper's future work,
//! implemented.
//!
//! Section 8.5 concludes that the cases where LUI / 2LUPI beat LU / LUP
//! "can be statically detected by using data summaries and some
//! statistical information. We postpone this study to future work."; the
//! conclusion (Section 9) promises an "index advisor tool". This module
//! supplies the machinery:
//!
//! * [`PathSummary`] — a DataGuide-style structural summary (the paper's
//!   citation \[13\], Goldman & Widom): a trie of all label paths in the
//!   corpus with node- and document-frequencies, plus word document
//!   frequencies;
//! * selectivity estimation for tree patterns: per query path, the exact
//!   document frequency from the summary; per pattern, an
//!   independence-assumption combination — an upper bound on what the LUP
//!   look-up can achieve;
//! * [`PathSummary::recommend`] — the per-query strategy hint of
//!   Section 8.5: fine-granularity (ID-based) strategies pay off when the
//!   pattern is multi-branched and the predicted *co-occurrence gap*
//!   (documents matching every path separately but not the twig) is
//!   large.
//!
//! The summary is tiny compared to the corpus (one trie node per distinct
//! path) and can be maintained incrementally at indexing time.

use crate::key;
use crate::lookup::{query_paths, QueryPath};
use crate::strategy::ExtractOptions;
use amada_pattern::{Axis, TreePattern};
use amada_xml::{for_each_word, Document, NodeKind};
use std::collections::{HashMap, HashSet};

/// One node of the path trie.
#[derive(Debug, Clone, Default)]
struct SummaryNode {
    /// Children by encoded label key (`e‖label` / `a‖name`).
    children: HashMap<String, usize>,
    /// Total node instances reaching this path.
    instances: u64,
    /// Bitmap of documents containing this path (bit = document number in
    /// summarization order); unions across trie nodes give exact document
    /// frequencies for `//` query paths matching several data paths.
    doc_bits: Vec<u64>,
}

impl SummaryNode {
    fn mark(&mut self, doc: u64) {
        let (block, bit) = ((doc / 64) as usize, doc % 64);
        if self.doc_bits.len() <= block {
            self.doc_bits.resize(block + 1, 0);
        }
        self.doc_bits[block] |= 1 << bit;
    }
}

/// A DataGuide-style corpus summary with document frequencies.
#[derive(Debug, Clone, Default)]
pub struct PathSummary {
    nodes: Vec<SummaryNode>,
    /// Word → number of documents whose text contains it.
    word_docs: HashMap<String, u64>,
    /// Attribute value key (`a‖name value`) → document frequency.
    attr_value_docs: HashMap<String, u64>,
    /// Documents summarized.
    documents: u64,
}

impl PathSummary {
    /// An empty summary.
    pub fn new() -> PathSummary {
        PathSummary {
            nodes: vec![SummaryNode::default()],
            ..Default::default()
        }
    }

    /// Builds a summary over a document collection.
    pub fn build<'a>(docs: impl IntoIterator<Item = &'a Document>) -> PathSummary {
        let mut s = PathSummary::new();
        for d in docs {
            s.add_document(d);
        }
        s
    }

    /// Incorporates one document (incremental, like the index itself).
    pub fn add_document(&mut self, doc: &Document) {
        let doc_id = self.documents;
        self.documents += 1;
        let mut seen_words: HashSet<String> = HashSet::new();
        let mut seen_values: HashSet<String> = HashSet::new();
        // Map each document node to its trie node, walking top-down
        // (document order guarantees parents precede children).
        let mut trie_of: Vec<usize> = vec![0; doc.node_count()];
        for n in doc.all_nodes() {
            let parent_trie = doc.parent(n).map_or(0, |p| trie_of[p.index()]);
            match doc.kind(n) {
                NodeKind::Element | NodeKind::Attribute => {
                    let k = key::node_key(doc, n).expect("named node");
                    let idx = self.child(parent_trie, &k);
                    trie_of[n.index()] = idx;
                    self.nodes[idx].instances += 1;
                    self.nodes[idx].mark(doc_id);
                    if doc.kind(n) == NodeKind::Attribute {
                        let vk = key::attribute_value_key(
                            doc.name(n).expect("named"),
                            doc.value(n).unwrap_or_default(),
                        );
                        if seen_values.insert(vk.clone()) {
                            *self.attr_value_docs.entry(vk).or_default() += 1;
                        }
                    }
                }
                NodeKind::Text => {
                    trie_of[n.index()] = parent_trie;
                    let word_docs = &mut self.word_docs;
                    for_each_word(doc.value(n).unwrap_or_default(), |w| {
                        // Allocate only for first sightings; repeats hit
                        // the `contains` check with a borrowed word.
                        if !seen_words.contains(w) {
                            seen_words.insert(w.to_string());
                            *word_docs.entry(w.to_string()).or_default() += 1;
                        }
                    });
                }
            }
        }
    }

    fn child(&mut self, parent: usize, key: &str) -> usize {
        if let Some(&c) = self.nodes[parent].children.get(key) {
            return c;
        }
        let idx = self.nodes.len();
        self.nodes.push(SummaryNode::default());
        self.nodes[parent].children.insert(key.to_string(), idx);
        idx
    }

    /// Documents summarized.
    pub fn documents(&self) -> u64 {
        self.documents
    }

    /// Distinct label paths in the corpus (trie size minus the root) —
    /// the DataGuide's size.
    pub fn distinct_paths(&self) -> usize {
        self.nodes.len() - 1
    }

    /// Document frequency of one query path (`/`, `//` steps over
    /// encoded keys; word / attribute-value terminals consult the
    /// dedicated frequency maps, scaled by the structural prefix).
    pub fn path_doc_frequency(&self, qp: &QueryPath) -> u64 {
        // Split a terminal word / attribute-value step off the path.
        let (structural, terminal): (&[(Axis, String)], Option<&String>) = match qp.last() {
            Some((_, k)) if k.starts_with(key::WORD_PREFIX) => (&qp[..qp.len() - 1], Some(k)),
            Some((_, k)) if k.starts_with(key::ATTRIBUTE_PREFIX) && k.contains(' ') => {
                (&qp[..qp.len() - 1], Some(k))
            }
            _ => (qp.as_slice(), None),
        };
        let structural_df = self.structural_df(structural);
        match terminal {
            None => structural_df,
            Some(k) => {
                let value_df = if let Some(word) = k.strip_prefix(key::WORD_PREFIX) {
                    self.word_docs.get(word).copied().unwrap_or(0)
                } else {
                    self.attr_value_docs.get(k).copied().unwrap_or(0)
                };
                // Independence between the structural prefix and the value:
                // df ≈ N × P(prefix) × P(value).
                if self.documents == 0 {
                    0
                } else {
                    ((structural_df as f64 / self.documents as f64) * value_df as f64).ceil() as u64
                }
            }
        }
    }

    /// Document frequency of a structural path, by trie matching.
    fn structural_df(&self, qp: &[(Axis, String)]) -> u64 {
        if qp.is_empty() {
            return self.documents;
        }
        let mut matched: HashSet<usize> = HashSet::new();
        self.match_path(0, qp, 0, &mut matched);
        // Exact union of the matched paths' document sets.
        let mut union: Vec<u64> = Vec::new();
        for &n in &matched {
            let bits = &self.nodes[n].doc_bits;
            if union.len() < bits.len() {
                union.resize(bits.len(), 0);
            }
            for (u, b) in union.iter_mut().zip(bits) {
                *u |= b;
            }
        }
        union.iter().map(|b| b.count_ones() as u64).sum()
    }

    /// Collects trie nodes matching the full query path starting under
    /// `trie` at query step `qi`.
    fn match_path(&self, trie: usize, qp: &[(Axis, String)], qi: usize, out: &mut HashSet<usize>) {
        if qi == qp.len() {
            out.insert(trie);
            return;
        }
        let (axis, ref k) = qp[qi];
        match axis {
            Axis::Child => {
                if let Some(&c) = self.nodes[trie].children.get(k) {
                    self.match_path(c, qp, qi + 1, out);
                }
            }
            Axis::Descendant => {
                // Any depth: DFS over the trie.
                let mut stack = vec![trie];
                while let Some(t) = stack.pop() {
                    for (ck, &c) in &self.nodes[t].children {
                        if ck == k {
                            self.match_path(c, qp, qi + 1, out);
                        }
                        stack.push(c);
                    }
                }
            }
        }
    }

    /// Estimated number of documents a LUP look-up returns for `pattern`:
    /// the per-path document frequencies combined under independence.
    /// This is an estimate of the *path-level* candidate count; the true
    /// twig count is smaller when branches rarely co-occur.
    pub fn estimate_lup_docs(&self, pattern: &TreePattern, opts: ExtractOptions) -> f64 {
        if self.documents == 0 {
            return 0.0;
        }
        let n = self.documents as f64;
        let mut p = 1.0f64;
        for qp in query_paths(pattern, opts) {
            p *= self.path_doc_frequency(&qp) as f64 / n;
        }
        n * p
    }

    /// The Section 8.5 hint: should this query use a fine-granularity
    /// (ID-based) strategy?
    ///
    /// "cases for which LUI and 2LUPI strategies behave better are those
    /// in which query tree patterns are multi-branched, highly selective
    /// and evaluated over a document set where most of the documents only
    /// match linear paths of the query."
    pub fn recommend(&self, pattern: &TreePattern, opts: ExtractOptions) -> StrategyHint {
        let paths = query_paths(pattern, opts);
        let branches = paths.len();
        let est = self.estimate_lup_docs(pattern, opts);
        let n = self.documents.max(1) as f64;
        let min_path_df = paths
            .iter()
            .map(|qp| self.path_doc_frequency(qp))
            .min()
            .unwrap_or(0) as f64;
        // Co-occurrence gap: how much smaller the independence estimate is
        // than the most selective single path — a proxy for how much twig
        // filtering (LUI) can remove beyond path filtering (LUP).
        let gap = if min_path_df > 0.0 {
            1.0 - est / min_path_df
        } else {
            0.0
        };
        let fine = branches > 1 && est / n <= 0.3 && gap > 0.3;
        StrategyHint {
            branches,
            estimated_lup_docs: est,
            estimated_selectivity: est / n,
            cooccurrence_gap: gap,
            use_fine_granularity: fine,
        }
    }
}

/// The advisor's per-query structural hint.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StrategyHint {
    /// Number of root-to-leaf query paths (branches).
    pub branches: usize,
    /// Estimated documents a path-level (LUP) look-up returns.
    pub estimated_lup_docs: f64,
    /// The estimate as a fraction of the corpus.
    pub estimated_selectivity: f64,
    /// Predicted fraction of path-level candidates that twig filtering
    /// would additionally remove (0 = none, →1 = most).
    pub cooccurrence_gap: f64,
    /// True when the Section 8.5 criteria point at LUI / 2LUPI.
    pub use_fine_granularity: bool,
}

#[cfg(test)]
mod tests {
    use super::*;
    use amada_pattern::parse_pattern;

    fn docs() -> Vec<Document> {
        vec![
            Document::parse_str(
                "a.xml",
                "<painting id=\"1\"><name>The Lion Hunt</name>\
                 <painter><name><last>Delacroix</last></name></painter></painting>",
            )
            .unwrap(),
            Document::parse_str(
                "b.xml",
                "<painting id=\"2\"><name>Olympia</name>\
                 <painter><name><last>Manet</last></name></painter></painting>",
            )
            .unwrap(),
            Document::parse_str("c.xml", "<museum><name>Louvre</name></museum>").unwrap(),
        ]
    }

    fn qp(text: &str) -> QueryPath {
        let p = parse_pattern(text).unwrap();
        query_paths(&p, ExtractOptions::default()).remove(0)
    }

    #[test]
    fn exact_path_document_frequencies() {
        let parsed = docs();
        let s = PathSummary::build(parsed.iter());
        assert_eq!(s.documents(), 3);
        assert_eq!(s.path_doc_frequency(&qp("//painting[/name]")), 2);
        assert_eq!(s.path_doc_frequency(&qp("//name")), 3);
        assert_eq!(s.path_doc_frequency(&qp("//painting[//last]")), 2);
        assert_eq!(s.path_doc_frequency(&qp("//museum[/name]")), 1);
        assert_eq!(s.path_doc_frequency(&qp("/painting[/name]")), 2);
        // Anchored at the root, museum/last matches nothing.
        assert_eq!(s.path_doc_frequency(&qp("//museum[/last]")), 0);
        assert_eq!(s.path_doc_frequency(&qp("//nonexistent")), 0);
    }

    #[test]
    fn word_and_attribute_value_frequencies() {
        let parsed = docs();
        let s = PathSummary::build(parsed.iter());
        // One document mentions "lion"; word path scales the prefix.
        let lion = s.path_doc_frequency(&qp("//painting[/name{contains(Lion)}]"));
        assert_eq!(lion, 1);
        let id1 = s.path_doc_frequency(&qp("//painting[/@id{=\"1\"}]"));
        assert_eq!(id1, 1);
    }

    #[test]
    fn dataguide_is_compact() {
        let parsed = docs();
        let s = PathSummary::build(parsed.iter());
        // Distinct paths: painting, painting/@id, painting/name,
        // painting/painter, painting/painter/name,
        // painting/painter/name/last, museum, museum/name = 8.
        assert_eq!(s.distinct_paths(), 8);
    }

    #[test]
    fn independence_estimate_upper_bounds_selective_twigs() {
        let parsed = docs();
        let s = PathSummary::build(parsed.iter());
        let p = parse_pattern("//painting[/name, //painter[/name[/last]]]").unwrap();
        let est = s.estimate_lup_docs(&p, ExtractOptions::default());
        // Both paths hold in the same 2 documents: estimate 2 × (2/3) ≈ 1.33.
        assert!(est > 1.0 && est < 2.0, "{est}");
    }

    #[test]
    fn recommend_flags_branched_selective_patterns() {
        // A corpus where name and mailbox exist in most documents but
        // rarely under the same item: the sparse-variant situation.
        let mut xml_docs = Vec::new();
        for i in 0..20 {
            let body = if i % 10 == 0 {
                // both under one item (rare)
                "<item><name>gold ring</name><mailbox><mail/></mailbox></item>".to_string()
            } else if i % 2 == 0 {
                "<item><name>gold ring</name></item><item><mailbox><mail/></mailbox></item>"
                    .to_string()
            } else {
                "<item><name>plain</name></item>".to_string()
            };
            xml_docs.push(
                Document::parse_str(format!("d{i}.xml"), &format!("<site>{body}</site>")).unwrap(),
            );
        }
        let s = PathSummary::build(xml_docs.iter());
        let branched = parse_pattern("//item[/name{contains(gold)}, /mailbox[/mail]]").unwrap();
        let hint = s.recommend(&branched, ExtractOptions::default());
        assert!(hint.branches >= 2);
        assert!(hint.use_fine_granularity, "{hint:?}");
        // A linear pattern never wants ID granularity.
        let linear = parse_pattern("//item[/name]").unwrap();
        let hint = s.recommend(&linear, ExtractOptions::default());
        assert!(!hint.use_fine_granularity, "{hint:?}");
    }

    #[test]
    fn per_query_hints_cover_the_workload() {
        let cfg = amada_xmark::CorpusConfig {
            num_documents: 25,
            target_doc_bytes: 1200,
            ..Default::default()
        };
        let sample: Vec<Document> = amada_xmark::generate_corpus(&cfg)
            .into_iter()
            .map(|d| Document::parse_str(d.uri, &d.xml).unwrap())
            .collect();
        let s = PathSummary::build(sample.iter());
        let workload = amada_xmark::workload();
        assert_eq!(workload.len(), 10);
        // Every pattern of every query receives a hint with a sane
        // selectivity estimate.
        let hints: Vec<Vec<StrategyHint>> = workload
            .iter()
            .map(|q| {
                let patterns = q.patterns.iter();
                patterns
                    .map(|p| s.recommend(p, ExtractOptions::default()))
                    .collect()
            })
            .collect();
        for (q, pattern_hints) in workload.iter().zip(&hints) {
            assert!(!pattern_hints.is_empty(), "{:?}", q.name);
            for h in pattern_hints {
                assert!(h.estimated_selectivity >= 0.0 && h.estimated_selectivity <= 1.0);
                assert!(h.branches >= 1);
            }
        }
        // q1 is a two-branch point query: its estimate must be far more
        // selective than the linear bulk of the corpus.
        let q1 = &hints[0][0];
        assert!(q1.estimated_selectivity < 0.1, "{q1:?}");
    }

    #[test]
    fn incremental_build_matches_batch_build() {
        let parsed = docs();
        let batch = PathSummary::build(parsed.iter());
        let mut inc = PathSummary::new();
        for d in &parsed {
            inc.add_document(d);
        }
        assert_eq!(batch.documents(), inc.documents());
        assert_eq!(batch.distinct_paths(), inc.distinct_paths());
        assert_eq!(
            batch.path_doc_frequency(&qp("//painting[/name]")),
            inc.path_doc_frequency(&qp("//painting[/name]"))
        );
    }

    #[test]
    fn empty_summary_is_sane() {
        let s = PathSummary::new();
        assert_eq!(s.documents(), 0);
        assert_eq!(s.path_doc_frequency(&qp("//a")), 0);
        let p = parse_pattern("//a[/b]").unwrap();
        assert_eq!(s.estimate_lup_docs(&p, ExtractOptions::default()), 0.0);
    }
}
