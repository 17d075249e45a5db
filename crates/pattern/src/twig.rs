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
//! Parent–child edges are handled by relaxing them to ancestor–descendant
//! during stack construction and filtering on `depth` at solution-expansion
//! time; this enumerates a superset of chains and keeps exactly the valid
//! ones, which is correct (if not always optimal — the same trade-off the
//! original paper makes for child axes).

use crate::ast::{Axis, TreePattern};
use crate::eval::{candidates, materialize, EvalStats, Tuple};
use crate::stream::{SliceStream, TwigStream};
use amada_xml::{Document, NodeId, StructuralId};
use std::collections::HashMap;

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

/// A full twig match: one `(StructuralId, T)` per query node, indexed like
/// the shape's nodes.
pub type Assignment<T> = Vec<(StructuralId, T)>;

/// A partial assignment: `None` for query nodes not yet covered.
type Sparse<T> = Vec<Option<(StructuralId, T)>>;

/// Runs the holistic twig join with galloping stream advance.
///
/// `streams[i]` is the candidate stream for query node `i`, sorted by `pre`
/// (document order). Returns every distinct assignment of query nodes to
/// stream elements satisfying all edges.
pub fn holistic_twig_join<T: Copy>(
    shape: &TwigShape,
    streams: &[Vec<(StructuralId, T)>],
) -> Vec<Assignment<T>> {
    let mut s: Vec<SliceStream<'_, T>> = streams.iter().map(|v| SliceStream::new(v)).collect();
    join_streams_inner(shape, &mut s, false)
}

/// Like [`holistic_twig_join`] but stops as soon as one match is found.
/// Used for index-side document selection, where only existence matters.
pub fn twig_has_match<T: Copy>(shape: &TwigShape, streams: &[Vec<(StructuralId, T)>]) -> bool {
    let mut s: Vec<SliceStream<'_, T>> = streams.iter().map(|v| SliceStream::new(v)).collect();
    !join_streams_inner(shape, &mut s, true).is_empty()
}

/// [`holistic_twig_join`] over arbitrary [`TwigStream`]s — e.g. lazy block
/// cursors that decode postings on demand.
pub fn holistic_twig_join_streams<T: Copy, S: TwigStream<T>>(
    shape: &TwigShape,
    streams: &mut [S],
) -> Vec<Assignment<T>> {
    join_streams_inner(shape, streams, false)
}

/// Existence check over arbitrary [`TwigStream`]s.
pub fn twig_streams_have_match<T: Copy, S: TwigStream<T>>(
    shape: &TwigShape,
    streams: &mut [S],
) -> bool {
    !join_streams_inner(shape, streams, true).is_empty()
}

fn join_streams_inner<T: Copy, S: TwigStream<T>>(
    shape: &TwigShape,
    streams: &mut [S],
    early_exit: bool,
) -> Vec<Assignment<T>> {
    assert_eq!(shape.len(), streams.len(), "one stream per query node");
    // Empty stream on any node: no solutions.
    for s in streams.iter_mut() {
        s.reset();
    }
    if streams.iter().any(|s| s.peek().is_none()) {
        return Vec::new();
    }
    let paths = shape.paths();
    let mut acc: Option<Vec<Sparse<T>>> = None;
    for path in &paths {
        let sols = path_stack_streams(shape, streams, path);
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
        if early_exit && paths.len() == 1 {
            break;
        }
    }
    let mut out: Vec<Assignment<T>> = acc
        .unwrap_or_default()
        .into_iter()
        .map(|a| {
            a.into_iter()
                .map(|x| x.expect("all nodes assigned"))
                .collect()
        })
        .collect();
    if early_exit {
        out.truncate(1);
    }
    out
}

/// PathStack over one root-to-leaf path with galloping stream advance.
/// Returns solutions aligned with `path` (root first).
///
/// Produces exactly the solutions of the element-at-a-time variant, in the
/// same order: skipping only drops elements that can never appear in a
/// chain, and while stacks may retain entries the reference run would have
/// popped, solution expansion applies exact structural checks, and a
/// retained entry that would have been popped at a skipped element can
/// never be an ancestor of anything arriving after it.
fn path_stack_streams<T: Copy, S: TwigStream<T>>(
    shape: &TwigShape,
    streams: &mut [S],
    path: &[usize],
) -> Vec<Vec<(StructuralId, T)>> {
    let k = path.len();
    for &q in path {
        streams[q].reset();
    }
    // Per path-level stacks: (sid, payload, pointer-to-top-of-parent-stack).
    let mut stacks: Vec<Vec<(StructuralId, T, isize)>> = vec![Vec::new(); k];
    let mut solutions = Vec::new();

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
                    Some(p) => streams[path[level]].skip_to_pre(p),
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

/// Expands the chained-stack encoding into explicit path solutions ending
/// at `elem` (which sits at `level`), filtering parent–child edges by the
/// structural-ID parent test.
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

/// Hash-joins two sparse assignment sets on their shared (assigned-in-both)
/// query nodes.
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

// ---------------------------------------------------------------------------
// Document-level evaluation through the twig join.
// ---------------------------------------------------------------------------

/// Evaluates a tree pattern on a document using the holistic twig join;
/// equivalent to [`crate::eval::naive_matches`] (property-tested).
pub fn evaluate_pattern_twig(doc: &Document, pattern: &TreePattern) -> (Vec<Tuple>, EvalStats) {
    let (assignments, mut stats) = twig_embeddings(doc, pattern);
    let tuples = materialize(doc, pattern, &assignments);
    stats.tuples = tuples.len() as u64;
    (tuples, stats)
}

/// Enumerates embeddings via the twig join (payload = document node).
pub fn twig_embeddings(doc: &Document, pattern: &TreePattern) -> (Vec<Vec<NodeId>>, EvalStats) {
    let mut stats = EvalStats::default();
    let shape = TwigShape::from_pattern(pattern);
    let mut streams: Vec<Vec<(StructuralId, NodeId)>> = Vec::with_capacity(pattern.len());
    for (i, pn) in pattern.nodes.iter().enumerate() {
        let mut s: Vec<(StructuralId, NodeId)> = candidates(doc, pn, &mut stats)
            .into_iter()
            .map(|n| (doc.sid(n), n))
            .collect();
        if i == 0 && pn.axis == Axis::Child {
            s.retain(|(_, n)| *n == doc.root());
        }
        streams.push(s);
    }
    let sols = holistic_twig_join(&shape, &streams);
    stats.embeddings = sols.len() as u64;
    let embeddings = sols
        .into_iter()
        .map(|a| a.into_iter().map(|(_, n)| n).collect())
        .collect();
    (embeddings, stats)
}

/// Existence check via the twig join.
pub fn twig_doc_has_match(doc: &Document, pattern: &TreePattern) -> bool {
    let mut stats = EvalStats::default();
    let shape = TwigShape::from_pattern(pattern);
    let mut streams: Vec<Vec<(StructuralId, ())>> = Vec::with_capacity(pattern.len());
    for (i, pn) in pattern.nodes.iter().enumerate() {
        let mut s: Vec<(StructuralId, ())> = candidates(doc, pn, &mut stats)
            .into_iter()
            .map(|n| (doc.sid(n), ()))
            .collect();
        if i == 0 && pn.axis == Axis::Child {
            s.retain(|(sid, _)| sid.depth == 1);
        }
        streams.push(s);
    }
    twig_has_match(&shape, &streams)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::{NodeTest, Output, PatternNode, Predicate};
    use crate::eval::naive_matches;
    use crate::parser::parse_pattern;
    use amada_rng::StdRng;
    use amada_xml::Document;
    use std::collections::HashSet;

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
    fn has_match_agrees_with_eval() {
        let doc = Document::parse_str("t.xml", DELACROIX).unwrap();
        for (p, expect) in [
            ("//painting[/name]", true),
            ("//painting[/year]", false),
            ("//painter[/name[/last{=Delacroix}]]", true),
            ("//painter[/name[/last{=Manet}]]", false),
        ] {
            let pat = parse_pattern(p).unwrap();
            assert_eq!(twig_doc_has_match(&doc, &pat), expect, "{p}");
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

    /// The original element-at-a-time join: the reference the galloping
    /// join is compared against.
    fn holistic_twig_join_linear<T: Copy>(
        shape: &TwigShape,
        streams: &[Vec<(StructuralId, T)>],
    ) -> Vec<Assignment<T>> {
        join_inner_linear(shape, streams, false)
    }

    /// Existence check via the element-at-a-time reference join.
    fn twig_has_match_linear<T: Copy>(
        shape: &TwigShape,
        streams: &[Vec<(StructuralId, T)>],
    ) -> bool {
        !join_inner_linear(shape, streams, true).is_empty()
    }

    fn join_inner_linear<T: Copy>(
        shape: &TwigShape,
        streams: &[Vec<(StructuralId, T)>],
        early_exit: bool,
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
            if early_exit && paths.len() == 1 {
                break;
            }
        }
        let mut out: Vec<Assignment<T>> = acc
            .unwrap_or_default()
            .into_iter()
            .map(|a| {
                a.into_iter()
                    .map(|x| x.expect("all nodes assigned"))
                    .collect()
            })
            .collect();
        if early_exit {
            out.truncate(1);
        }
        out
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
    /// linear reference join returns — same assignments, same order — and
    /// the early-exit existence checks must agree with both.
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
            assert_eq!(
                twig_has_match_linear(&shape, &streams),
                !linear.is_empty(),
                "case {case}"
            );
            assert_eq!(
                twig_has_match(&shape, &streams),
                !linear.is_empty(),
                "case {case}"
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
