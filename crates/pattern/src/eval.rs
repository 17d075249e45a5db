//! Pattern evaluation over a single document: shared types, the naive
//! backtracking evaluator (used as a correctness oracle and for tiny
//! documents), and tuple materialization.
//!
//! Both evaluators ([`naive_matches`] and
//! [`crate::twig::evaluate_pattern_twig`]) enumerate *embeddings* — maps
//! from pattern nodes to document nodes respecting labels, edges and
//! predicates — and then project them onto the annotated nodes, returning
//! the same deduplicated tuple set.

use crate::ast::{Axis, NodeTest, Output, PatternNode, TreePattern};
use amada_xml::{Document, NodeId};
use std::collections::HashMap;
use std::hash::{BuildHasher, BuildHasherDefault, DefaultHasher, Hash, Hasher, RandomState};
use std::sync::{Arc, OnceLock};

/// One result tuple of a tree pattern on one document.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Tuple {
    /// URI of the document the tuple came from.
    pub uri: Arc<str>,
    /// Output column values (preorder of pattern nodes; annotation order
    /// within a node). `val` columns hold string values, `cont` columns
    /// hold serialized subtrees. Shared: a joined row points at them.
    pub columns: Vec<Arc<str>>,
    /// Join-variable bindings `(var, value)`, in first-appearance order of
    /// the variable within this pattern.
    pub joins: Vec<(String, String)>,
    /// The keyed hash of `uri` and `columns`, taken once, as the tuple is
    /// made: the value join dedups rows by their tuples' digests.
    digest: u64,
}

impl Tuple {
    /// A tuple of `uri`'s document; its digest is taken here.
    pub fn new(uri: Arc<str>, columns: Vec<Arc<str>>, joins: Vec<(String, String)>) -> Tuple {
        let digest = digest(uri_state(&uri), columns.iter().map(|c| &**c));
        Tuple {
            uri,
            columns,
            joins,
            digest,
        }
    }

    /// Total size in bytes of the materialized columns (used for the
    /// paper's `|r(q)|` result-size metric).
    pub fn byte_size(&self) -> usize {
        self.columns.iter().map(|c| c.len()).sum()
    }

    /// The keyed hash of the tuple's URI and cells: equal tuples have equal
    /// digests in one process, wherever they were made.
    pub fn digest(&self) -> u64 {
        self.digest
    }
}

/// The digest hasher after a document's URI, under the one key of the
/// process: document text comes from outside the program, so it cannot aim
/// at collisions.
fn uri_state(uri: &str) -> DefaultHasher {
    static KEY: OnceLock<RandomState> = OnceLock::new();
    let mut h = KEY.get_or_init(RandomState::new).build_hasher();
    uri.hash(&mut h);
    h
}

/// A tuple's digest: its cells hashed on from its URI's state.
fn digest<'c>(mut h: DefaultHasher, cells: impl Iterator<Item = &'c str>) -> u64 {
    cells.for_each(|c| c.hash(&mut h));
    h.finish()
}

/// Counters describing the work an evaluation performed; these feed the
/// cloud work model (virtual compute time).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EvalStats {
    /// Document nodes considered as candidates for some pattern node.
    pub candidates: u64,
    /// Full embeddings enumerated (before deduplication).
    pub embeddings: u64,
    /// Distinct output tuples produced.
    pub tuples: u64,
}

impl EvalStats {
    /// Accumulates another stats record into `self`.
    pub fn merge(&mut self, other: EvalStats) {
        self.candidates += other.candidates;
        self.embeddings += other.embeddings;
        self.tuples += other.tuples;
    }
}

/// The node value a predicate sees / a `val` annotation returns: attribute
/// value for attribute nodes, concatenated descendant text for elements.
pub fn node_value(doc: &Document, n: NodeId) -> String {
    doc.string_value(n)
}

/// Candidate document nodes for one pattern node (label + predicate match),
/// in document order.
pub fn candidates(doc: &Document, pnode: &PatternNode, stats: &mut EvalStats) -> Vec<NodeId> {
    let base: &[NodeId] = match &pnode.test {
        NodeTest::Element(l) => doc.elements_named(l),
        NodeTest::Attribute(l) => doc.attributes_named(l),
    };
    stats.candidates += base.len() as u64;
    match &pnode.predicate {
        None => base.to_vec(),
        Some(p) => base
            .iter()
            .copied()
            .filter(|&n| match doc.value(n) {
                // Attributes (and text) carry their value directly — no
                // string-value concatenation needed.
                Some(v) => p.matches(v),
                None => p.matches(&node_value(doc, n)),
            })
            .collect(),
    }
}

/// Checks the structural relation required by `axis` between a candidate
/// parent `a` and candidate child `d`.
#[inline]
pub fn axis_ok(doc: &Document, axis: Axis, a: NodeId, d: NodeId) -> bool {
    let (sa, sd) = (doc.sid(a), doc.sid(d));
    match axis {
        Axis::Child => sa.is_parent_of(&sd),
        Axis::Descendant => sa.is_ancestor_of(&sd),
    }
}

/// Enumerates all embeddings of `pattern` into `doc` by backtracking.
/// Each embedding maps pattern node `i` to `result[i]`.
pub fn naive_embeddings(doc: &Document, pattern: &TreePattern) -> (Vec<Vec<NodeId>>, EvalStats) {
    let mut stats = EvalStats::default();
    let mut out = Vec::new();
    let roots = candidates(doc, &pattern.nodes[0], &mut stats);
    for r in roots {
        // Root axis: `/` anchors at the document root element.
        if pattern.nodes[0].axis == Axis::Child && r != doc.root() {
            continue;
        }
        let mut assignment = vec![NodeId(u32::MAX); pattern.len()];
        assignment[0] = r;
        extend(doc, pattern, &mut assignment, &mut out, &mut stats);
    }
    stats.embeddings = out.len() as u64;
    (out, stats)
}

fn extend(
    doc: &Document,
    pattern: &TreePattern,
    assignment: &mut Vec<NodeId>,
    out: &mut Vec<Vec<NodeId>>,
    stats: &mut EvalStats,
) {
    // Find the next unassigned pattern node in preorder; because children
    // have larger indices than parents, a simple scan works.
    let next = (0..pattern.len()).find(|&i| assignment[i] == NodeId(u32::MAX));
    let Some(next) = next else {
        out.push(assignment.clone());
        return;
    };
    let parent_p = pattern.nodes[next].parent.expect("non-root has a parent");
    let parent_d = assignment[parent_p];
    for cand in candidates(doc, &pattern.nodes[next], stats) {
        if axis_ok(doc, pattern.nodes[next].axis, parent_d, cand) {
            assignment[next] = cand;
            extend(doc, pattern, assignment, out, stats);
            assignment[next] = NodeId(u32::MAX);
        }
    }
}

/// Keeps the first occurrence of each item of a sequence, told only the
/// items' hashes: no item is copied to be remembered.
#[derive(Debug, Default)]
pub(crate) struct FirstSeen {
    /// Hash → the last kept item with it…
    last: HashMap<u64, u32, BuildHasherDefault<PassThrough>>,
    /// …and per kept item, the kept item before it with the same hash.
    chain: Vec<Option<u32>>,
}

impl FirstSeen {
    pub(crate) fn clear(&mut self) {
        self.last.clear();
        self.chain.clear();
    }

    /// Keeps the item hashing to `hash` — as number `kept so far` — unless
    /// it is the `same` as an earlier kept one; says whether it was kept.
    pub(crate) fn insert(&mut self, hash: u64, same: impl Fn(usize) -> bool) -> bool {
        let mut at = self.last.get(&hash).copied();
        while let Some(i) = at {
            if same(i as usize) {
                return false;
            }
            at = self.chain[i as usize];
        }
        let before = self.last.insert(hash, self.chain.len() as u32);
        self.chain.push(before);
        true
    }
}

/// [`FirstSeen`]'s keys are keyed hashes already: the map uses them as
/// they are instead of hashing them a second time.
#[derive(Default)]
struct PassThrough(u64);

impl Hasher for PassThrough {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        bytes
            .iter()
            .for_each(|&b| self.0 = self.0.rotate_left(8) ^ u64::from(b));
    }

    fn write_u64(&mut self, v: u64) {
        self.0 = v;
    }
}

/// The output side of a pattern, prepared once: which pattern node and
/// annotation feeds each result column, plus the scratch a projection
/// reuses from one embedding (and one document) to the next. A value is
/// written into the scratch first and copied into a tuple cell only when
/// its tuple turns out to be new.
#[derive(Debug)]
pub(crate) struct Materializer<'p> {
    /// One `(pattern node, annotation)` per result column (preorder of
    /// pattern nodes; annotation order within a node).
    columns: Vec<(usize, &'p Output)>,
    /// The tuple being built: its column values back to back…
    text: String,
    /// …and where each one ends.
    ends: Vec<usize>,
    seen: FirstSeen,
}

impl<'p> Materializer<'p> {
    pub(crate) fn new(pattern: &'p TreePattern) -> Materializer<'p> {
        let nodes = pattern.nodes.iter().enumerate();
        Materializer {
            columns: nodes
                .flat_map(|(i, n)| n.outputs.iter().map(move |o| (i, o)))
                .collect(),
            text: String::new(),
            ends: Vec::new(),
            seen: FirstSeen::default(),
        }
    }

    /// Projects the embeddings of one document (each a map from pattern
    /// node to document node) onto the annotated nodes, materializes
    /// column values and join keys, and keeps the first occurrence of
    /// each tuple, in order — told apart by digest, which each kept tuple
    /// carries.
    pub(crate) fn run<E: Fn(usize) -> NodeId>(
        &mut self,
        doc: &Document,
        embeddings: impl Iterator<Item = E>,
    ) -> Vec<Tuple> {
        self.seen.clear();
        let uri = doc.shared_uri();
        let state = uri_state(uri);
        let mut out: Vec<Tuple> = Vec::new();
        for emb in embeddings {
            self.text.clear();
            self.ends.clear();
            for &(node, output) in &self.columns {
                match output {
                    Output::Val { .. } => doc.push_string_value(emb(node), &mut self.text),
                    Output::Cont => doc.push_subtree(emb(node), &mut self.text),
                }
                self.ends.push(self.text.len());
            }
            // The scratch split at `ends`: the tuple's columns.
            let (text, ends) = (&self.text, &self.ends);
            let start = |c: usize| c.checked_sub(1).map_or(0, |before| ends[before]);
            let cells = (0..ends.len()).map(|c| &text[start(c)..ends[c]]);
            // Equal columns imply equal join keys: a key is a copy of its
            // column.
            let hash = digest(state.clone(), cells.clone());
            let same = |i: usize| cells.clone().eq(out[i].columns.iter().map(|c| &**c));
            if !self.seen.insert(hash, same) {
                continue;
            }
            let mut joins = Vec::new();
            for (&(_, output), cell) in self.columns.iter().zip(cells.clone()) {
                if let Output::Val {
                    join_var: Some(var),
                } = output
                {
                    joins.push((var.clone(), cell.to_string()));
                }
            }
            out.push(Tuple {
                uri: uri.clone(),
                columns: cells.map(Arc::from).collect(),
                joins,
                digest: hash,
            });
        }
        out
    }
}

/// Projects embeddings onto annotated nodes, materializes column values and
/// join keys, and deduplicates.
pub fn materialize(
    doc: &Document,
    pattern: &TreePattern,
    embeddings: &[Vec<NodeId>],
) -> Vec<Tuple> {
    Materializer::new(pattern).run(doc, embeddings.iter().map(|emb| move |i: usize| emb[i]))
}

/// Evaluates a pattern on a document with the naive evaluator.
pub fn naive_matches(doc: &Document, pattern: &TreePattern) -> (Vec<Tuple>, EvalStats) {
    let (embs, mut stats) = naive_embeddings(doc, pattern);
    let tuples = materialize(doc, pattern, &embs);
    stats.tuples = tuples.len() as u64;
    (tuples, stats)
}

/// True iff the pattern has at least one embedding in the document.
/// (Used to count the paper's Table 5 "documents with results".)
pub fn naive_has_match(doc: &Document, pattern: &TreePattern) -> bool {
    !naive_embeddings(doc, pattern).0.is_empty()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_pattern;
    use amada_rng::StdRng;

    const DELACROIX: &str = "<painting id=\"1854-1\">\
        <name>The Lion Hunt</name>\
        <painter><name><first>Eugene</first><last>Delacroix</last></name></painter>\
        </painting>";

    fn doc() -> Document {
        Document::parse_str("delacroix.xml", DELACROIX).unwrap()
    }

    #[test]
    fn q1_two_name_columns() {
        let d = doc();
        let p = parse_pattern("//painting[/name{val}, //painter[/name{val}]]").unwrap();
        let (tuples, stats) = naive_matches(&d, &p);
        assert_eq!(tuples.len(), 1);
        assert_eq!(
            tuples[0].columns,
            ["The Lion Hunt".into(), "EugeneDelacroix".into()]
        );
        assert!(stats.candidates > 0);
        assert_eq!(stats.tuples, 1);
    }

    #[test]
    fn child_vs_descendant_edges() {
        let d = doc();
        // painting/name: only the direct child qualifies.
        let child = parse_pattern("//painting[/name{val}]").unwrap();
        let (t, _) = naive_matches(&d, &child);
        assert_eq!(t.len(), 1);
        assert_eq!(t[0].columns, ["The Lion Hunt".into()]);
        // painting//name: both names qualify.
        let desc = parse_pattern("//painting[//name{val}]").unwrap();
        let (t, _) = naive_matches(&d, &desc);
        assert_eq!(t.len(), 2);
    }

    #[test]
    fn root_axis_child_anchors_at_document_root() {
        let d = doc();
        let anchored = parse_pattern("/painting[/name{val}]").unwrap();
        assert_eq!(naive_matches(&d, &anchored).0.len(), 1);
        let wrong = parse_pattern("/name{val}").unwrap();
        assert_eq!(naive_matches(&d, &wrong).0.len(), 0);
        let floating = parse_pattern("//name{val}").unwrap();
        assert_eq!(naive_matches(&d, &floating).0.len(), 2);
    }

    #[test]
    fn attribute_nodes_and_values() {
        let d = doc();
        let p = parse_pattern("//painting[/@id{val}]").unwrap();
        let (t, _) = naive_matches(&d, &p);
        assert_eq!(t.len(), 1);
        assert_eq!(t[0].columns, ["1854-1".into()]);
    }

    #[test]
    fn predicates_filter() {
        let d = doc();
        let hit = parse_pattern("//painting[/name{contains(Lion)}, //painter[/name[/last{val}]]]")
            .unwrap();
        let (t, _) = naive_matches(&d, &hit);
        assert_eq!(t.len(), 1);
        assert_eq!(t[0].columns, ["Delacroix".into()]);
        let miss = parse_pattern("//painting[/name{contains(Tiger)}]").unwrap();
        assert!(naive_matches(&d, &miss).0.is_empty());
    }

    #[test]
    fn cont_returns_subtree() {
        let d = doc();
        let p = parse_pattern("//painter[/name{cont}]").unwrap();
        let (t, _) = naive_matches(&d, &p);
        assert_eq!(
            t[0].columns,
            ["<name><first>Eugene</first><last>Delacroix</last></name>".into()]
        );
    }

    #[test]
    fn join_vars_are_captured() {
        let d = doc();
        let q =
            crate::parser::parse_query("//painting[/@id{val as $x}]; //painting[/@id{val as $x}]")
                .unwrap();
        let (t, _) = naive_matches(&d, &q.patterns[0]);
        assert_eq!(t[0].joins, [("x".to_string(), "1854-1".to_string())]);
    }

    #[test]
    fn duplicate_tuples_are_deduplicated() {
        // Two identical <name> children produce one identical tuple each;
        // after dedup only one remains.
        let d = Document::parse_str("t.xml", "<a><name>x</name><name>x</name></a>").unwrap();
        let p = parse_pattern("//a[/name{val}]").unwrap();
        let (t, stats) = naive_matches(&d, &p);
        assert_eq!(t.len(), 1);
        assert_eq!(stats.embeddings, 2);
    }

    #[test]
    fn first_seen_keeps_distinct_items_under_one_hash_in_order() {
        let mut seen = FirstSeen::default();
        let mut kept: Vec<&str> = Vec::new();
        for item in ["a", "b", "a", "c", "b", "d", "a"] {
            // One forced hash: only equality tells the items apart.
            if seen.insert(7, |i| kept[i] == item) {
                kept.push(item);
            }
        }
        assert_eq!(kept, ["a", "b", "c", "d"]);
    }

    #[test]
    fn has_match_is_consistent() {
        let d = doc();
        let p = parse_pattern("//painting[/year]").unwrap();
        assert!(!naive_has_match(&d, &p));
        let p = parse_pattern("//painting[/name]").unwrap();
        assert!(naive_has_match(&d, &p));
    }

    // ---- Seeded reference property ----------------------------------------
    //
    // The benchmark's oracle, `repro check` and `naive_matches` all go
    // through `materialize`, so nothing independent checks it. The body it
    // had before the read path's allocation diet stays here as the
    // reference: same tuples, same first-occurrence order.

    /// `materialize` as first written: every tuple's `(columns, joins)`
    /// cloned into a `HashSet` to remember it.
    fn materialize_reference(
        doc: &Document,
        pattern: &TreePattern,
        embeddings: &[Vec<NodeId>],
    ) -> Vec<Tuple> {
        let uri: Arc<str> = doc.uri().into();
        let mut seen = std::collections::HashSet::new();
        let mut out = Vec::new();
        for emb in embeddings {
            let mut columns = Vec::with_capacity(pattern.arity());
            let mut joins = Vec::new();
            for (i, n) in pattern.nodes.iter().enumerate() {
                for o in &n.outputs {
                    match o {
                        Output::Val { join_var } => {
                            let v = node_value(doc, emb[i]);
                            if let Some(var) = join_var {
                                joins.push((var.clone(), v.clone()));
                            }
                            columns.push(v);
                        }
                        Output::Cont => columns.push(doc.serialize_subtree(emb[i])),
                    }
                }
            }
            let t = Tuple::new(
                uri.clone(),
                columns.into_iter().map(Arc::from).collect(),
                joins,
            );
            if seen.insert((t.columns.clone(), t.joins.clone())) {
                out.push(t);
            }
        }
        out
    }

    const LABELS: &[&str] = &["a", "b"];
    const WORDS: &[&str] = &["lion", "hunt"];

    /// Random document over a small vocabulary (repeated values, so
    /// distinct embeddings project onto equal tuples).
    fn gen_doc(rng: &mut StdRng) -> String {
        fn elem(rng: &mut StdRng, depth: u32) -> String {
            let label = *rng.choose(LABELS);
            let attr = if rng.gen_bool(0.5) {
                format!(" k=\"{}\"", rng.choose(WORDS))
            } else {
                String::new()
            };
            if depth == 0 {
                return format!("<{label}{attr}>{}</{label}>", rng.choose(WORDS));
            }
            let kids: String = (0..rng.gen_range(1..4usize))
                .map(|_| {
                    if rng.gen_bool(0.7) {
                        elem(rng, depth - 1)
                    } else {
                        rng.choose(WORDS).to_string()
                    }
                })
                .collect();
            format!("<{label}{attr}>{kids}</{label}>")
        }
        elem(rng, 3)
    }

    /// Random pattern of 1–4 element nodes (attribute leaves now and
    /// then), each with 0–2 outputs drawn from `val`, `val as $x|$y` (so a
    /// variable may repeat inside the pattern) and `cont`.
    fn gen_pattern(rng: &mut StdRng) -> TreePattern {
        let n = rng.gen_range(1..5usize);
        let mut nodes: Vec<PatternNode> = Vec::new();
        for i in 0..n {
            // An attribute cannot have children: hang the node off the
            // root (never an attribute) instead.
            let parent = (i > 0).then(|| {
                let p = rng.gen_range(0..i);
                if nodes[p].test.is_attribute() {
                    0
                } else {
                    p
                }
            });
            let test = if i > 0 && rng.gen_bool(0.25) {
                NodeTest::Attribute("k".into())
            } else {
                NodeTest::Element(rng.choose(LABELS).to_string())
            };
            let outputs = (0..rng.gen_range(0..3usize))
                .map(|_| match rng.gen_range(0..4u32) {
                    0 => Output::Cont,
                    1 => Output::Val { join_var: None },
                    2 => Output::Val {
                        join_var: Some("x".into()),
                    },
                    _ => Output::Val {
                        join_var: Some("y".into()),
                    },
                })
                .collect();
            if let Some(p) = parent {
                nodes[p].children.push(i);
            }
            nodes.push(PatternNode {
                test,
                axis: if rng.gen_bool(0.8) {
                    Axis::Descendant
                } else {
                    Axis::Child
                },
                parent,
                children: Vec::new(),
                outputs,
                predicate: None,
            });
        }
        TreePattern { nodes }
    }

    #[test]
    fn materialize_equals_its_reference_in_order() {
        let mut with_duplicates = 0;
        for case in 0..512u64 {
            let mut rng = StdRng::seed_from_u64(0x3A7E_0000 + case);
            let xml = gen_doc(&mut rng);
            let pattern = gen_pattern(&mut rng);
            let doc = Document::parse_str("prop.xml", &xml).unwrap();
            let (mut embeddings, _) = naive_embeddings(&doc, &pattern);
            // Now and then the same embeddings twice over: duplicates far
            // apart, not only adjacent ones.
            if rng.gen_bool(0.25) {
                embeddings.extend(embeddings.clone());
            }
            let reference = materialize_reference(&doc, &pattern, &embeddings);
            with_duplicates += usize::from(reference.len() < embeddings.len());
            assert_eq!(
                materialize(&doc, &pattern, &embeddings),
                reference,
                "case {case}: pattern {pattern:?} on {xml}"
            );
        }
        assert!(
            with_duplicates > 150,
            "the cases must exercise dedup: {with_duplicates}"
        );
    }
}
