//! Holistic twig join over streams of *(pre, post, depth)* identifiers.
//!
//! This implements the PathStack / path-merge variant of the holistic twig
//! join of Bruno, Koudas & Srivastava (SIGMOD 2002) — the algorithm the
//! paper plugs its LUI / 2LUPI look-ups into (Section 5.3): each query node
//! consumes a stream of structural IDs *sorted by `pre`* (the index keeps
//! them sorted exactly so these joins need no sort operator), root-to-leaf
//! path solutions are produced with the chained-stack encoding, and path
//! solutions are then merge-joined on their shared prefix nodes into full
//! twig matches.
//!
//! The join is generic over a per-ID payload `T`:
//!
//! * document evaluation uses `T = NodeId` (to materialize values),
//! * index-lookup document selection uses `T = ()` (only existence and the
//!   IDs themselves matter).
//!
//! A query runs the same twig over many documents, so the join is a value
//! built once per shape ([`TwigJoin`]; [`TwigEvaluator`] adds a pattern's
//! streams and output plan) whose paths, stacks, path solutions and merged
//! assignments are flat buffers reused from one document to the next.
//!
//! Parent–child edges are handled by relaxing them to ancestor–descendant
//! during stack construction and filtering on `depth` at solution-expansion
//! time; this enumerates a superset of chains and keeps exactly the valid
//! ones, which is correct (if not always optimal — the same trade-off the
//! original paper makes for child axes).

use crate::ast::{Axis, NodeTest, PatternNode, TreePattern};
use crate::eval::{EvalStats, Materializer, Tuple};
use crate::stream::{SliceStream, TwigStream};
use amada_xml::{Document, NodeId, StructuralId};

/// The shape of a twig: a rooted tree of query nodes with edge axes.
/// Node 0 is the root; `parent[0]` is `None`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TwigShape {
    /// Parent index per node (`None` for the root).
    pub parent: Vec<Option<usize>>,
    /// The axis of the edge from `parent[i]` to `i`; `axis[0]` is the root
    /// axis and is *not* interpreted by the join (callers pre-filter the
    /// root stream when the root must anchor at the document root).
    pub axis: Vec<Axis>,
    /// Children per node.
    pub children: Vec<Vec<usize>>,
}

impl TwigShape {
    /// Builds the shape of a [`TreePattern`] (labels and predicates are the
    /// caller's concern — they determine the streams, not the shape).
    pub fn from_pattern(p: &TreePattern) -> TwigShape {
        TwigShape {
            parent: p.nodes.iter().map(|n| n.parent).collect(),
            axis: p.nodes.iter().map(|n| n.axis).collect(),
            children: p.nodes.iter().map(|n| n.children.clone()).collect(),
        }
    }

    /// Number of query nodes.
    pub fn len(&self) -> usize {
        self.parent.len()
    }

    /// True when the shape has no nodes.
    pub fn is_empty(&self) -> bool {
        self.parent.is_empty()
    }

    /// Root-to-leaf node paths.
    pub fn paths(&self) -> Vec<Vec<usize>> {
        let mut out = Vec::new();
        let mut cur = Vec::new();
        self.walk(0, &mut cur, &mut out);
        out
    }

    fn walk(&self, n: usize, cur: &mut Vec<usize>, out: &mut Vec<Vec<usize>>) {
        cur.push(n);
        if self.children[n].is_empty() {
            out.push(cur.clone());
        } else {
            for &c in &self.children[n] {
                self.walk(c, cur, out);
            }
        }
        cur.pop();
    }
}

/// One stream element: a structural ID and its payload.
type Elem<T> = (StructuralId, T);

/// The holistic twig join of one shape, built once and run on any number
/// of stream sets (one per document): its scratch is emptied, not freed,
/// between runs.
#[derive(Debug)]
pub struct TwigJoin<T> {
    shape: TwigShape,
    /// Root-to-leaf paths, in the shape's preorder: the nodes a path shares
    /// with the earlier ones are the prefix it shares with the one before.
    paths: Vec<Vec<usize>>,
    /// PathStack stacks, one per path level: `(sid, payload,
    /// pointer-to-top-of-parent-stack)`.
    stacks: Vec<Vec<(StructuralId, T, isize)>>,
    /// The chain [`expand`] is building, leaf first.
    chain: Vec<Elem<T>>,
    /// Solutions of the path in hand, back to back, root first.
    sols: Vec<Elem<T>>,
    /// Assignments over the paths merged so far, `shape.len()` elements
    /// each, indexed by query node (a node no merged path covers yet
    /// holds a filler).
    rows: Vec<Elem<T>>,
    /// The merge's output, swapped with `rows`.
    merged: Vec<Elem<T>>,
    /// Row numbers ordered by merge key.
    order: Vec<u32>,
}

impl<T: Copy> TwigJoin<T> {
    /// Prepares the join of `shape`.
    pub fn new(shape: TwigShape) -> TwigJoin<T> {
        let paths = shape.paths();
        TwigJoin {
            stacks: vec![Vec::new(); paths.iter().map(Vec::len).max().unwrap_or(0)],
            shape,
            paths,
            chain: Vec::new(),
            sols: Vec::new(),
            rows: Vec::new(),
            merged: Vec::new(),
            order: Vec::new(),
        }
    }

    /// Runs the join with galloping stream advance. `streams[i]` is the
    /// candidate stream for query node `i`, sorted by `pre` (document
    /// order). Returns the number of distinct assignments of query nodes
    /// to stream elements satisfying all edges; [`TwigJoin::matches`]
    /// reads them until the next run.
    pub fn join<S: TwigStream<T>>(&mut self, streams: &mut [S]) -> usize {
        let n = self.shape.len();
        assert_eq!(n, streams.len(), "one stream per query node");
        self.rows.clear();
        // Empty stream on any node: no solutions.
        for s in streams.iter_mut() {
            s.reset();
        }
        if streams.iter().any(|s| s.peek().is_none()) {
            return 0;
        }
        // One row covering no node yet (any element fills it): the first
        // path shares nothing with it, so each of its solutions becomes a
        // row; the later paths merge on the nodes they share.
        let filler = streams[0].peek().expect("no stream is empty");
        self.rows.resize(n, filler);
        for p in 0..self.paths.len() {
            self.path_stack(p, streams);
            self.merge(p);
            if self.rows.is_empty() {
                return 0;
            }
        }
        self.rows.len() / n
    }

    /// PathStack over root-to-leaf path number `p` with galloping stream
    /// advance. Leaves the solutions in `sols`, back to back, each aligned
    /// with the path (root first).
    ///
    /// Produces exactly the solutions of the element-at-a-time variant, in the
    /// same order: skipping only drops elements that can never appear in a
    /// chain, and while stacks may retain entries the reference run would have
    /// popped, solution expansion applies exact structural checks, and a
    /// retained entry that would have been popped at a skipped element can
    /// never be an ancestor of anything arriving after it.
    fn path_stack<S: TwigStream<T>>(&mut self, p: usize, streams: &mut [S]) {
        let (shape, path) = (&self.shape, &self.paths[p][..]);
        let (chain, sols) = (&mut self.chain, &mut self.sols);
        let k = path.len();
        for &q in path {
            streams[q].reset();
        }
        let stacks = &mut self.stacks[..k];
        for st in stacks.iter_mut() {
            st.clear();
        }
        sols.clear();

        loop {
            // Galloping skips: while a level's parent stack is empty, nothing
            // can be pushed at this level before the parent stream's head is,
            // and any future parent-level element has `pre >=` that head's
            // `pre` while an ancestor needs strictly smaller `pre` — so every
            // element at this level with `pre <=` the head's can never gain an
            // ancestor and is skipped (whole blocks at a time for block
            // cursors). An exhausted parent stream with an empty parent stack
            // kills the level outright; iterating root-to-leaf propagates
            // death down the path in one pass.
            for level in 1..k {
                if !stacks[level - 1].is_empty() {
                    continue;
                }
                match streams[path[level - 1]].peek() {
                    None => streams[path[level]].skip_to_end(),
                    Some((psid, _)) => match psid.pre.checked_add(1) {
                        Some(after) => streams[path[level]].skip_to_pre(after),
                        None => streams[path[level]].skip_to_end(),
                    },
                }
            }

            // qmin: the path level whose stream's next element has minimal pre.
            let mut qmin: Option<(usize, StructuralId, T)> = None;
            for (level, &q) in path.iter().enumerate() {
                if let Some((sid, payload)) = streams[q].peek() {
                    // Ties (same document node feeding several query nodes) go
                    // to the level closest to the root, so ancestors are pushed
                    // before their descendants arrive.
                    if qmin.is_none_or(|(_, m, _)| sid.pre < m.pre) {
                        qmin = Some((level, sid, payload));
                    }
                }
            }
            let Some((level, next, payload)) = qmin else {
                break;
            };
            streams[path[level]].advance();

            // Pop, from every stack, elements that end before the incoming
            // element starts (disjoint predecessors — they can never be
            // ancestors of it or of anything arriving later). Elements equal to
            // `next` (the same document node feeding another query level) must
            // stay: `precedes` is false for them.
            for st in stacks.iter_mut() {
                while st.last().is_some_and(|(sid, _, _)| sid.precedes(&next)) {
                    st.pop();
                }
            }

            // Push only when the parent chain is alive.
            if level == 0 || !stacks[level - 1].is_empty() {
                let ptr = if level == 0 {
                    -1
                } else {
                    stacks[level - 1].len() as isize - 1
                };
                if level == k - 1 {
                    // Leaf: expand solutions immediately; no need to push.
                    expand(
                        shape,
                        path,
                        stacks,
                        (next, payload, ptr),
                        level,
                        chain,
                        sols,
                    );
                } else {
                    stacks[level].push((next, payload, ptr));
                }
            }
        }
    }

    /// Joins the assignments merged so far (`rows`) with the solutions of
    /// path number `p` on the nodes both cover — the prefix the path shares
    /// with the one before — leaving the result in `rows`: per solution in
    /// order, every agreeing row in row order, which is the order a hash join
    /// probing with the solutions emits. Rows are found by sorting their
    /// numbers on the shared nodes' `pre`s, so no key is ever built.
    fn merge(&mut self, p: usize) {
        let (n, path, rows) = (self.shape.len(), &self.paths[p][..], &self.rows);
        let before = p.checked_sub(1).map_or(&[][..], |b| &self.paths[b][..]);
        let shared = path.iter().zip(before).take_while(|(a, b)| a == b).count();
        let row_key = |r: u32| {
            let row = &rows[r as usize * n..][..n];
            path[..shared].iter().map(move |&q| row[q].0.pre)
        };
        self.order.clear();
        self.order.extend(0..(rows.len() / n) as u32);
        self.order
            .sort_unstable_by(|&a, &b| row_key(a).cmp(row_key(b)).then(a.cmp(&b)));
        self.merged.clear();
        for sol in self.sols.chunks_exact(path.len()) {
            let key = || sol[..shared].iter().map(|e| e.0.pre);
            let first = self.order.partition_point(|&r| row_key(r).lt(key()));
            for &r in self.order[first..]
                .iter()
                .take_while(|&&r| row_key(r).eq(key()))
            {
                let base = self.merged.len();
                self.merged.extend_from_slice(&rows[r as usize * n..][..n]);
                // The shared nodes keep the row's elements; the path fills in
                // the nodes it is the first to cover.
                for (&q, &elem) in path.iter().zip(sol).skip(shared) {
                    self.merged[base + q] = elem;
                }
            }
        }
        std::mem::swap(&mut self.rows, &mut self.merged);
    }

    /// The assignments the last [`TwigJoin::join`] found, in the order the
    /// join produced them, each indexed like the shape's nodes.
    pub fn matches(&self) -> std::slice::ChunksExact<'_, Elem<T>> {
        self.rows.chunks_exact(self.shape.len().max(1))
    }
}

/// Expands the chained-stack encoding into explicit path solutions ending
/// at `elem` (which sits at `level`), filtering parent–child edges by the
/// structural-ID parent test. `chain` holds the elements chosen so far,
/// leaf first; a chain that reaches the root is appended to `out` root
/// first.
fn expand<T: Copy>(
    shape: &TwigShape,
    path: &[usize],
    stacks: &[Vec<(StructuralId, T, isize)>],
    elem: (StructuralId, T, isize),
    level: usize,
    chain: &mut Vec<Elem<T>>,
    out: &mut Vec<Elem<T>>,
) {
    chain.push((elem.0, elem.1));
    if level == 0 {
        out.extend(chain.iter().rev());
    } else {
        let axis = shape.axis[path[level]];
        for &cand in &stacks[level - 1][..=elem.2 as usize] {
            let ok = match axis {
                Axis::Descendant => cand.0.is_ancestor_of(&elem.0),
                Axis::Child => cand.0.is_parent_of(&elem.0),
            };
            if ok {
                expand(shape, path, stacks, cand, level - 1, chain, out);
            }
        }
    }
    chain.pop();
}

// ---------------------------------------------------------------------------
// Document-level evaluation through the twig join.
// ---------------------------------------------------------------------------

/// The document nodes bearing a pattern node's label, in document order.
fn postings<'d>(doc: &'d Document, pnode: &PatternNode) -> &'d [NodeId] {
    match &pnode.test {
        NodeTest::Element(l) => doc.elements_named(l),
        NodeTest::Attribute(l) => doc.attributes_named(l),
    }
}

/// Counts every pattern node's label postings into `stats.candidates` —
/// the evaluation's billed work, whatever happens next — and says whether
/// every node has any.
fn count_postings(doc: &Document, pattern: &TreePattern, stats: &mut EvalStats) -> bool {
    let mut all_present = true;
    for pn in &pattern.nodes {
        let base = postings(doc, pn);
        stats.candidates += base.len() as u64;
        all_present &= !base.is_empty();
    }
    all_present
}

/// A tree pattern prepared for evaluation on many documents: the twig
/// join of its shape, one reusable candidate stream per pattern node and
/// the output plan. The query core builds one per pattern after parsing
/// the query and calls it per candidate document.
#[derive(Debug)]
pub struct TwigEvaluator<'p> {
    pattern: &'p TreePattern,
    join: TwigJoin<NodeId>,
    /// Per pattern node, its candidates on the document in hand.
    streams: Vec<Vec<Elem<NodeId>>>,
    /// The string value a predicate is being tested on.
    value: String,
    materializer: Materializer<'p>,
}

impl<'p> TwigEvaluator<'p> {
    /// Prepares `pattern` for evaluation.
    pub fn new(pattern: &'p TreePattern) -> TwigEvaluator<'p> {
        TwigEvaluator {
            pattern,
            join: TwigJoin::new(TwigShape::from_pattern(pattern)),
            streams: vec![Vec::new(); pattern.len()],
            value: String::new(),
            materializer: Materializer::new(pattern),
        }
    }

    /// Evaluates the pattern on `doc`; equivalent to
    /// [`crate::eval::naive_matches`] (property-tested).
    pub fn evaluate(&mut self, doc: &Document) -> (Vec<Tuple>, EvalStats) {
        let mut stats = EvalStats::default();
        if !self.fill_streams(doc, &mut stats) {
            return (Vec::new(), stats);
        }
        // Payload = document node, to materialize values from.
        let mut cursors: Vec<SliceStream<'_, NodeId>> =
            self.streams.iter().map(|v| SliceStream::new(v)).collect();
        stats.embeddings = self.join.join(&mut cursors) as u64;
        let embeddings = self.join.matches().map(|row| move |i: usize| row[i].1);
        let tuples = self.materializer.run(doc, embeddings);
        stats.tuples = tuples.len() as u64;
        (tuples, stats)
    }

    /// Builds every pattern node's candidate stream (label + predicate
    /// match, in document order); `false` as soon as one is empty, and
    /// before anything is copied if the document lacks a label.
    fn fill_streams(&mut self, doc: &Document, stats: &mut EvalStats) -> bool {
        if !count_postings(doc, self.pattern, stats) {
            return false;
        }
        for (i, (pn, stream)) in self.pattern.nodes.iter().zip(&mut self.streams).enumerate() {
            // Root axis: `/` anchors at the document root element.
            let anchored = i == 0 && pn.axis == Axis::Child;
            stream.clear();
            for &n in postings(doc, pn) {
                if anchored && n != doc.root() {
                    continue;
                }
                if let Some(p) = &pn.predicate {
                    let holds = match doc.value(n) {
                        // Attributes (and text) carry their value directly — no
                        // string-value concatenation needed.
                        Some(v) => p.matches(v),
                        None => {
                            self.value.clear();
                            doc.push_string_value(n, &mut self.value);
                            p.matches(&self.value)
                        }
                    };
                    if !holds {
                        continue;
                    }
                }
                stream.push((doc.sid(n), n));
            }
            if stream.is_empty() {
                return false;
            }
        }
        true
    }
}

/// Evaluates a tree pattern on one document using the holistic twig join:
/// builds the pattern's [`TwigEvaluator`] and calls it once — unless the
/// document lacks one of the pattern's labels, which is known before
/// anything is built.
pub fn evaluate_pattern_twig(doc: &Document, pattern: &TreePattern) -> (Vec<Tuple>, EvalStats) {
    let mut stats = EvalStats::default();
    if !count_postings(doc, pattern, &mut stats) {
        return (Vec::new(), stats);
    }
    TwigEvaluator::new(pattern).evaluate(doc)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::{NodeTest, Output, PatternNode, Predicate};
    use crate::eval::naive_matches;
    use crate::parser::parse_pattern;
    use amada_rng::StdRng;
    use amada_xml::Document;
    use std::collections::{HashMap, HashSet};

    const DELACROIX: &str = "<painting id=\"1854-1\">\
        <name>The Lion Hunt</name>\
        <painter><name><first>Eugene</first><last>Delacroix</last></name></painter>\
        </painting>";

    fn assert_same_as_naive(xml: &str, pattern_text: &str) {
        let doc = Document::parse_str("t.xml", xml).unwrap();
        let p = parse_pattern(pattern_text).unwrap();
        let (naive, _) = naive_matches(&doc, &p);
        let (twig, _) = evaluate_pattern_twig(&doc, &p);
        let a: HashSet<_> = naive.into_iter().collect();
        let b: HashSet<_> = twig.into_iter().collect();
        assert_eq!(a, b, "pattern {pattern_text} on {xml}");
    }

    #[test]
    fn matches_naive_on_figure3() {
        for p in [
            "//painting[/name{val}, //painter[/name{val}]]",
            "//painting[//name{val}]",
            "//name{val}",
            "/painting[/@id{val}]",
            "//painter[/name[/first{val}, /last{val}]]",
            "//painting[/name{contains(Lion)}, //painter[/name[/last{val}]]]",
        ] {
            assert_same_as_naive(DELACROIX, p);
        }
    }

    #[test]
    fn matches_naive_on_recursive_document() {
        // Recursive nesting exercises the stack encoding: a//b with
        // multiple stacked ancestors.
        let xml = "<a><b v=\"1\"><a><b v=\"2\"><b v=\"3\"/></b></a></b></a>";
        for p in [
            "//a[//b{cont}]",
            "//a[/b{val}]",
            "//b[//b{cont}]",
            "//a[//a[//b{val}]]",
            "//b[/@v{val}]",
        ] {
            assert_same_as_naive(xml, p);
        }
    }

    #[test]
    fn branching_twig_merges_paths() {
        let xml = "<lib><book><title>A</title><year>2000</year></book>\
                   <book><title>B</title><year>2001</year></book></lib>";
        assert_same_as_naive(xml, "//book[/title{val}, /year{val}]");
        assert_same_as_naive(xml, "//lib[//title{val}, //year{val}]");
    }

    #[test]
    fn empty_stream_short_circuits() {
        let doc = Document::parse_str("t.xml", DELACROIX).unwrap();
        let p = parse_pattern("//painting[/nonexistent]").unwrap();
        let (t, stats) = evaluate_pattern_twig(&doc, &p);
        assert!(t.is_empty());
        assert_eq!(stats.embeddings, 0);
    }

    #[test]
    fn a_pattern_without_outputs_still_says_whether_it_matches() {
        let doc = Document::parse_str("t.xml", DELACROIX).unwrap();
        for (p, expect) in [
            ("//painting[/name]", true),
            ("//painting[/year]", false),
            ("//painter[/name[/last{=Delacroix}]]", true),
            ("//painter[/name[/last{=Manet}]]", false),
        ] {
            let pat = parse_pattern(p).unwrap();
            assert_eq!(
                !evaluate_pattern_twig(&doc, &pat).0.is_empty(),
                expect,
                "{p}"
            );
        }
    }

    #[test]
    fn single_node_pattern() {
        let doc = Document::parse_str("t.xml", DELACROIX).unwrap();
        let p = parse_pattern("//name{val}").unwrap();
        let (t, _) = evaluate_pattern_twig(&doc, &p);
        assert_eq!(t.len(), 2);
    }

    #[test]
    fn shape_paths() {
        let p = parse_pattern("//a[/b[/c, //d], /e]").unwrap();
        let shape = TwigShape::from_pattern(&p);
        let paths = shape.paths();
        assert_eq!(paths.len(), 3);
        assert_eq!(paths[0], [0, 1, 2]);
        assert_eq!(paths[1], [0, 1, 3]);
        assert_eq!(paths[2], [0, 4]);
    }

    // ---- Seeded equivalence properties -----------------------------------
    //
    // The galloping join against the element-at-a-time reference join, and
    // the twig evaluator against the naive backtracking evaluator, on
    // random documents, shapes and patterns over one small vocabulary.
    // Cases derive deterministically from `(fixed master seed, case index)`
    // via `amada-rng`, so failures reproduce exactly.

    /// A full twig match: one `(StructuralId, T)` per query node, indexed
    /// like the shape's nodes.
    type Assignment<T> = Vec<(StructuralId, T)>;

    /// A partial assignment: `None` for query nodes not yet covered.
    type Sparse<T> = Vec<Option<(StructuralId, T)>>;

    /// One run of a fresh [`TwigJoin`] over in-memory streams: every match.
    fn holistic_twig_join<T: Copy>(
        shape: &TwigShape,
        streams: &[Vec<(StructuralId, T)>],
    ) -> Vec<Assignment<T>> {
        let mut s: Vec<SliceStream<'_, T>> = streams.iter().map(|v| SliceStream::new(v)).collect();
        let mut join = TwigJoin::new(shape.clone());
        join.join(&mut s);
        join.matches().map(<[_]>::to_vec).collect()
    }

    /// Solution expansion as first written: one vector per path solution.
    fn expand<T: Copy>(
        shape: &TwigShape,
        path: &[usize],
        stacks: &[Vec<(StructuralId, T, isize)>],
        elem: (StructuralId, T, isize),
        level: usize,
        out: &mut Vec<Vec<(StructuralId, T)>>,
    ) {
        // Build chains bottom-up; `partial` holds (sid, payload) leaf-first.
        fn rec<T: Copy>(
            shape: &TwigShape,
            path: &[usize],
            stacks: &[Vec<(StructuralId, T, isize)>],
            elem: (StructuralId, T, isize),
            level: usize,
            partial: &mut Vec<(StructuralId, T)>,
            out: &mut Vec<Vec<(StructuralId, T)>>,
        ) {
            partial.push((elem.0, elem.1));
            if level == 0 {
                let mut sol = partial.clone();
                sol.reverse();
                out.push(sol);
            } else {
                let q = path[level];
                let axis = shape.axis[q];
                for idx in 0..=elem.2 {
                    let cand = stacks[level - 1][idx as usize];
                    let ok = match axis {
                        Axis::Descendant => cand.0.is_ancestor_of(&elem.0),
                        Axis::Child => cand.0.is_parent_of(&elem.0),
                    };
                    if ok {
                        rec(shape, path, stacks, cand, level - 1, partial, out);
                    }
                }
            }
            partial.pop();
        }
        let mut partial = Vec::with_capacity(path.len());
        rec(shape, path, stacks, elem, level, &mut partial, out);
    }

    /// The path merge as first written: a hash join of two sparse
    /// assignment sets on their shared (assigned-in-both) query nodes,
    /// one key vector per row.
    fn merge_assignments<T: Copy>(
        n: usize,
        left: Vec<Sparse<T>>,
        right: Vec<Sparse<T>>,
    ) -> Vec<Sparse<T>> {
        // Shared nodes: assigned in both sides (same for every row by
        // construction — sides are unions of whole paths).
        let shared: Vec<usize> = (0..n)
            .filter(|&i| left[0][i].is_some() && right[0][i].is_some())
            .collect();
        let key = |a: &Sparse<T>| -> Vec<u32> {
            shared
                .iter()
                .map(|&i| a[i].expect("shared node assigned").0.pre)
                .collect()
        };
        let mut table: HashMap<Vec<u32>, Vec<usize>> = HashMap::new();
        for (i, l) in left.iter().enumerate() {
            table.entry(key(l)).or_default().push(i);
        }
        let mut out = Vec::new();
        for r in &right {
            if let Some(ls) = table.get(&key(r)) {
                for &li in ls {
                    let mut merged = left[li].clone();
                    for i in 0..n {
                        if merged[i].is_none() {
                            merged[i] = r[i];
                        }
                    }
                    out.push(merged);
                }
            }
        }
        out
    }

    /// The original element-at-a-time join, on the original vector-per-row
    /// representation: the reference the galloping, flat-buffered join is
    /// compared against.
    fn holistic_twig_join_linear<T: Copy>(
        shape: &TwigShape,
        streams: &[Vec<(StructuralId, T)>],
    ) -> Vec<Assignment<T>> {
        assert_eq!(shape.len(), streams.len(), "one stream per query node");
        // Empty stream on any node: no solutions.
        if streams.iter().any(Vec::is_empty) {
            return Vec::new();
        }
        let paths = shape.paths();
        let mut acc: Option<Vec<Sparse<T>>> = None;
        for path in &paths {
            let sols = path_stack_linear(shape, streams, path);
            if sols.is_empty() {
                return Vec::new();
            }
            // Convert path solutions into sparse assignments.
            let sparse: Vec<Sparse<T>> = sols
                .into_iter()
                .map(|sol| {
                    let mut a = vec![None; shape.len()];
                    for (k, &qi) in path.iter().enumerate() {
                        a[qi] = Some(sol[k]);
                    }
                    a
                })
                .collect();
            acc = Some(match acc {
                None => sparse,
                Some(prev) => merge_assignments(shape.len(), prev, sparse),
            });
            if acc.as_ref().is_some_and(Vec::is_empty) {
                return Vec::new();
            }
        }
        acc.unwrap_or_default()
            .into_iter()
            .map(|a| {
                a.into_iter()
                    .map(|x| x.expect("all nodes assigned"))
                    .collect()
            })
            .collect()
    }

    /// Element-at-a-time PathStack over one root-to-leaf path. Returns
    /// solutions aligned with `path` (root first).
    fn path_stack_linear<T: Copy>(
        shape: &TwigShape,
        streams: &[Vec<(StructuralId, T)>],
        path: &[usize],
    ) -> Vec<Vec<(StructuralId, T)>> {
        let k = path.len();
        // Per path-level stacks: (sid, payload, pointer-to-top-of-parent-stack).
        let mut stacks: Vec<Vec<(StructuralId, T, isize)>> = vec![Vec::new(); k];
        let mut cursors = vec![0usize; k];
        let mut solutions = Vec::new();

        loop {
            // qmin: the path level whose stream's next element has minimal pre.
            let mut qmin: Option<usize> = None;
            for (level, &q) in path.iter().enumerate() {
                if cursors[level] < streams[q].len() {
                    let pre = streams[q][cursors[level]].0.pre;
                    // Ties (same document node feeding several query nodes) go
                    // to the level closest to the root, so ancestors are pushed
                    // before their descendants arrive.
                    if qmin.is_none_or(|m| pre < streams[path[m]][cursors[m]].0.pre) {
                        qmin = Some(level);
                    }
                }
            }
            let Some(level) = qmin else { break };
            let q = path[level];
            let (next, payload) = streams[q][cursors[level]];
            cursors[level] += 1;

            // Pop, from every stack, elements that end before the incoming
            // element starts (disjoint predecessors — they can never be
            // ancestors of it or of anything arriving later). Elements equal to
            // `next` (the same document node feeding another query level) must
            // stay: `precedes` is false for them.
            for st in stacks.iter_mut() {
                while st.last().is_some_and(|(sid, _, _)| sid.precedes(&next)) {
                    st.pop();
                }
            }

            // Push only when the parent chain is alive.
            if level == 0 || !stacks[level - 1].is_empty() {
                let ptr = if level == 0 {
                    -1
                } else {
                    stacks[level - 1].len() as isize - 1
                };
                if level == k - 1 {
                    // Leaf: expand solutions immediately; no need to push.
                    expand(
                        shape,
                        path,
                        &stacks,
                        (next, payload, ptr),
                        level,
                        &mut solutions,
                    );
                } else {
                    stacks[level].push((next, payload, ptr));
                }
            }
        }
        solutions
    }

    const LABELS: &[&str] = &["a", "b", "c", "d"];
    const WORDS: &[&str] = &["lion", "hunt", "olympia", "sun"];

    /// Random document over the small vocabulary, rendered directly to XML.
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
            let kids: String = (0..rng.gen_range(0..4usize))
                .map(|_| {
                    if rng.gen_bool(0.5) {
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

    /// Random pattern over the same vocabulary: a flat spec per node
    /// (label, axis, parent choice, predicate?, output?, attribute?),
    /// retried until no attribute node has children.
    fn gen_pattern(rng: &mut StdRng) -> TreePattern {
        loop {
            let n = rng.gen_range(1..5usize);
            let mut nodes: Vec<PatternNode> = Vec::new();
            for i in 0..n {
                let label = *rng.choose(LABELS);
                let desc = rng.gen_bool(0.5);
                let pchoice = rng.gen_range(0..=255u8) as usize;
                let pred = if rng.gen_bool(0.5) {
                    let w = *rng.choose(WORDS);
                    Some(if rng.gen_bool(0.5) {
                        Predicate::Contains(w.into())
                    } else {
                        Predicate::Eq(w.into())
                    })
                } else {
                    None
                };
                let out = rng.gen_bool(0.5);
                let parent = if i == 0 { None } else { Some(pchoice % i) };
                // Attribute leaf nodes use name "k"; elements use the label.
                let is_attr = rng.gen_bool(0.5) && i > 0;
                let test = if is_attr {
                    NodeTest::Attribute("k".into())
                } else {
                    NodeTest::Element(label.to_string())
                };
                let axis = if desc { Axis::Descendant } else { Axis::Child };
                let outputs = if out || i == 0 {
                    vec![Output::Val { join_var: None }]
                } else {
                    vec![]
                };
                if let Some(p) = parent {
                    nodes[p].children.push(i);
                }
                nodes.push(PatternNode {
                    test,
                    axis,
                    parent,
                    children: Vec::new(),
                    outputs,
                    predicate: pred,
                });
            }
            let pattern = TreePattern { nodes };
            // Attributes cannot have children.
            if pattern
                .nodes
                .iter()
                .all(|n| !n.test.is_attribute() || n.children.is_empty())
            {
                return pattern;
            }
        }
    }

    /// Random twig shape: a rooted tree of up to 5 nodes with random axes.
    fn gen_shape(rng: &mut StdRng) -> TwigShape {
        let n = rng.gen_range(1..6usize);
        let mut shape = TwigShape {
            parent: vec![None],
            axis: vec![Axis::Descendant],
            children: vec![Vec::new()],
        };
        for i in 1..n {
            let p = rng.gen_range(0..i);
            shape.parent.push(Some(p));
            shape.axis.push(if rng.gen_bool(0.5) {
                Axis::Descendant
            } else {
                Axis::Child
            });
            shape.children.push(Vec::new());
            shape.children[p].push(i);
        }
        shape
    }

    /// Per-node candidate streams drawn from a real document's label postings
    /// (genuine ancestor structure, so matches exist), occasionally replaced
    /// by an empty or synthetic sparse stream to hit the exhaustion paths.
    fn gen_streams(rng: &mut StdRng, doc: &Document, n: usize) -> Vec<Vec<(StructuralId, u32)>> {
        (0..n)
            .map(|i| {
                if rng.gen_bool(0.1) {
                    return Vec::new();
                }
                let label = *rng.choose(LABELS);
                doc.elements_named(label)
                    .iter()
                    .map(|&node| (doc.sid(node), i as u32))
                    .collect()
            })
            .collect()
    }

    /// The galloping join must return exactly what the element-at-a-time
    /// linear reference join returns — same assignments, same order.
    #[test]
    fn galloping_equals_linear() {
        for case in 0..512u64 {
            let mut rng = StdRng::seed_from_u64(0x6a11_0000 + case);
            let xml = gen_doc(&mut rng);
            let doc = Document::parse_str("prop.xml", &xml).unwrap();
            let shape = gen_shape(&mut rng);
            let streams = gen_streams(&mut rng, &doc, shape.len());
            let linear = holistic_twig_join_linear(&shape, &streams);
            let gallop = holistic_twig_join(&shape, &streams);
            assert_eq!(
                linear, gallop,
                "case {case}: shape {shape:?} streams {streams:?} on {xml}"
            );
        }
    }

    #[test]
    fn twig_equals_naive() {
        for case in 0..512u64 {
            let mut rng = StdRng::seed_from_u64(0x7716_0000 + case);
            let xml = gen_doc(&mut rng);
            let pattern = gen_pattern(&mut rng);
            let doc = Document::parse_str("prop.xml", &xml).unwrap();
            let (naive, _) = naive_matches(&doc, &pattern);
            let (twig, _) = evaluate_pattern_twig(&doc, &pattern);
            let a: HashSet<_> = naive.into_iter().collect();
            let b: HashSet<_> = twig.into_iter().collect();
            assert_eq!(a, b, "case {case}: pattern {pattern:?} on {xml}");
        }
    }
}
