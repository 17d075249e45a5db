//! Value joins across tree patterns (Section 5.5 of the paper).
//!
//! "Since one tree pattern only matches one XML document, a query
//! consisting of several tree patterns connected by a value join needs to
//! be answered by combining tree pattern query results from different
//! documents. […] evaluate first each tree pattern individually […]; then,
//! apply the value joins on the tree pattern results thus obtained."
//!
//! [`join_pattern_results`] implements exactly that second phase: it takes,
//! for each pattern of a [`Query`], the union of its tuples over all
//! evaluated documents, and hash-joins them on the shared join variables.

use crate::ast::Query;
use crate::eval::{FirstSeen, Tuple};
use std::hash::{BuildHasher, Hash, Hasher, RandomState};
use std::sync::Arc;

/// A joined result tuple of a multi-pattern query.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct JoinedTuple {
    /// The documents that contributed (one per pattern, in pattern order;
    /// duplicates possible when patterns matched the same document).
    pub uris: Vec<Arc<str>>,
    /// Concatenated output columns, pattern by pattern: the cells of the
    /// joined tuples, shared with them.
    pub columns: Vec<Arc<str>>,
}

impl JoinedTuple {
    /// Total byte size of materialized columns (the paper's `|r(q)|`).
    pub fn byte_size(&self) -> usize {
        self.columns.iter().map(|c| c.len()).sum()
    }
}

/// Joins per-pattern tuple sets into final query results.
///
/// `per_pattern[i]` must hold the tuples of `query.patterns[i]` (across all
/// relevant documents). Patterns are joined left to right; two tuples are
/// compatible when they agree on every join variable they share. Patterns
/// without shared variables combine by cartesian product (not used by the
/// paper's workload, but well-defined). Joined tuples come out in the
/// order a hash join probing with each pattern's tuples emits them, the
/// first occurrence of each kept.
///
/// The join runs over the tuples where they are, owned or borrowed: a joined
/// row is one tuple *number* per pattern, keys are compared as `&str`, a
/// distinct row is told by its tuples' digests, and a result shares its
/// tuples' cells — no cell is copied or hashed again.
pub fn join_pattern_results<T: std::borrow::Borrow<Tuple>>(
    query: &Query,
    per_pattern: &[Vec<T>],
) -> Vec<JoinedTuple> {
    assert_eq!(
        query.patterns.len(),
        per_pattern.len(),
        "one tuple set per pattern"
    );
    // A variable bound at two sites *within one pattern* is itself an
    // equality constraint; tuples whose sites disagree are not results.
    let consistent = |t: &Tuple| {
        t.joins.iter().all(|(var, val)| {
            t.joins
                .iter()
                .filter(|(v2, _)| v2 == var)
                .all(|(_, v)| v == val)
        })
    };
    fn value_of<'t>(t: &'t Tuple, var: &str) -> &'t str {
        let bound = t.joins.iter().find(|(v, _)| v == var);
        &bound
            .expect("every tuple of a pattern binds its variables")
            .1
    }
    let hasher = RandomState::new();
    // Accumulated rows: `width` tuple numbers each (one per pattern joined
    // so far), back to back. Before the first pattern: one empty row.
    let mut rows: Vec<u32> = Vec::new();
    let mut count = 1usize;
    let mut next: Vec<u32> = Vec::new();
    // The variables the accumulated side binds, each with the first
    // pattern binding it. (Each pattern binds the same variable set in
    // every tuple, so its first tuple is representative.)
    let mut bound: Vec<(&str, usize)> = Vec::new();
    // (key hash, row number), sorted: the probe side of the hash join.
    let mut order: Vec<(u64, u32)> = Vec::new();
    for (width, tuples) in per_pattern.iter().enumerate() {
        let vars = tuples.first().map_or(&[][..], |t| &t.borrow().joins[..]);
        // Shared variables between the accumulated side and this pattern:
        // bound on both sides.
        let shared: Vec<(&str, usize)> = bound
            .iter()
            .copied()
            .filter(|(var, _)| vars.iter().any(|(v, _)| v == var))
            .collect();
        let row_value = |r: u32, var: &str, pattern: usize| -> &str {
            let t = rows[r as usize * width + pattern];
            value_of(per_pattern[pattern][t as usize].borrow(), var)
        };
        let hash_of = |values: &mut dyn Iterator<Item = &str>| {
            let mut h = hasher.build_hasher();
            values.for_each(|v| v.hash(&mut h));
            h.finish()
        };
        // Hash join on the shared variables (cartesian when none shared).
        order.clear();
        order.extend((0..count as u32).map(|r| {
            let key = hash_of(&mut shared.iter().map(|&(var, p)| row_value(r, var, p)));
            (key, r)
        }));
        order.sort_unstable();
        next.clear();
        count = 0;
        let tuples = tuples.iter().map(T::borrow);
        for (ti, t) in tuples.enumerate().filter(|(_, t)| consistent(t)) {
            let key = hash_of(&mut shared.iter().map(|&(var, _)| value_of(t, var)));
            let first = order.partition_point(|&(k, _)| k < key);
            for &(_, r) in order[first..].iter().take_while(|&&(k, _)| k == key) {
                if shared
                    .iter()
                    .all(|&(var, p)| row_value(r, var, p) == value_of(t, var))
                {
                    next.extend_from_slice(&rows[r as usize * width..][..width]);
                    next.push(ti as u32);
                    count += 1;
                }
            }
        }
        std::mem::swap(&mut rows, &mut next);
        if count == 0 {
            return Vec::new();
        }
        for (var, _) in vars {
            if !bound.iter().any(|(v, _)| v == var) {
                bound.push((var, width));
            }
        }
    }
    // Emit each distinct row once. The tuples' digests are keyed hashes
    // already: a row's key folds them in order.
    let width = per_pattern.len();
    let mut seen = FirstSeen::default();
    let mut out: Vec<JoinedTuple> = Vec::new();
    for r in 0..count {
        let row = &rows[r * width..][..width];
        let tuples = || (row.iter().zip(per_pattern)).map(|(&t, of)| of[t as usize].borrow());
        let columns = || tuples().flat_map(|t| t.columns.iter());
        let fold = |h: u64, t: &Tuple| (h ^ t.digest()).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        let same =
            |i: usize| tuples().map(|t| &t.uri).eq(&out[i].uris) && columns().eq(&out[i].columns);
        if seen.insert(tuples().fold(0, fold), same) {
            // Sized up front: a flattened iterator cannot tell its length.
            let mut cells = Vec::with_capacity(tuples().map(|t| t.columns.len()).sum());
            cells.extend(columns().cloned());
            out.push(JoinedTuple {
                uris: tuples().map(|t| t.uri.clone()).collect(),
                columns: cells,
            });
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eval::naive_matches;
    use crate::parser::parse_query;
    use amada_rng::StdRng;
    use amada_xml::Document;

    fn tuples_for(query: &Query, docs: &[&Document]) -> Vec<Vec<Tuple>> {
        query
            .patterns
            .iter()
            .map(|p| docs.iter().flat_map(|d| naive_matches(d, p).0).collect())
            .collect()
    }

    #[test]
    fn q5_style_join_across_documents() {
        // A museum document referencing paintings by id, and two painting
        // documents — the shape of the paper's q5.
        let museum = Document::parse_str(
            "museum.xml",
            "<museum><name>Louvre</name>\
             <painting id=\"1854-1\"/><painting id=\"1863-1\"/></museum>",
        )
        .unwrap();
        let delacroix = Document::parse_str(
            "delacroix.xml",
            "<painting id=\"1854-1\"><painter><name><last>Delacroix</last></name></painter></painting>",
        )
        .unwrap();
        let manet = Document::parse_str(
            "manet.xml",
            "<painting id=\"1863-1\"><painter><name><last>Manet</last></name></painter></painting>",
        )
        .unwrap();
        let q = parse_query(
            "//museum[/name{val}, //painting[/@id{val as $p}]]; \
             //painting[/@id{val as $p}, //painter[/name[/last{=Delacroix}]]]",
        )
        .unwrap();
        let per_pattern = tuples_for(&q, &[&museum, &delacroix, &manet]);
        let joined = join_pattern_results(&q, &per_pattern);
        assert_eq!(joined.len(), 1);
        assert_eq!(
            joined[0].columns,
            ["Louvre".into(), "1854-1".into(), "1854-1".into()]
        );
        assert_eq!(joined[0].uris.len(), 2);
        assert_eq!(&*joined[0].uris[0], "museum.xml");
        assert_eq!(&*joined[0].uris[1], "delacroix.xml");
    }

    #[test]
    fn join_with_no_matches_is_empty() {
        let d = Document::parse_str("a.xml", "<a><x>1</x></a>").unwrap();
        let q = parse_query("//a[/x{val as $v}]; //b[/y{val as $v}]").unwrap();
        let per_pattern = tuples_for(&q, &[&d]);
        assert!(join_pattern_results(&q, &per_pattern).is_empty());
    }

    #[test]
    fn self_join_within_one_document() {
        let d = Document::parse_str(
            "p.xml",
            "<ps><p><id>1</id><ref>2</ref></p><p><id>2</id><ref>1</ref></p></ps>",
        )
        .unwrap();
        let q = parse_query("//p[/id{val}, /ref{val as $r}]; //p[/id{val as $r}]").unwrap();
        let per_pattern = tuples_for(&q, &[&d]);
        let joined = join_pattern_results(&q, &per_pattern);
        // (1,2)⋈(2) and (2,1)⋈(1).
        assert_eq!(joined.len(), 2);
    }

    #[test]
    fn three_way_join_chains_variables() {
        let a = Document::parse_str("a.xml", "<a><k>7</k></a>").unwrap();
        let b = Document::parse_str("b.xml", "<b><k>7</k><m>9</m></b>").unwrap();
        let c = Document::parse_str("c.xml", "<c><m>9</m><out>win</out></c>").unwrap();
        let q = parse_query(
            "//a[/k{val as $k}]; //b[/k{val as $k}, /m{val as $m}]; //c[/m{val as $m}, /out{val}]",
        )
        .unwrap();
        let per_pattern = tuples_for(&q, &[&a, &b, &c]);
        let joined = join_pattern_results(&q, &per_pattern);
        assert_eq!(joined.len(), 1);
        assert_eq!(joined[0].columns.last(), Some(&"win".into()));
    }

    #[test]
    fn intra_pattern_variable_reuse_is_an_equality_constraint() {
        // $v appears at two sites of the same pattern: only tuples whose
        // two values agree survive.
        let d = Document::parse_str(
            "a.xml",
            "<r><p><x>1</x><y>1</y></p><p><x>2</x><y>3</y></p></r>",
        )
        .unwrap();
        let q = parse_query("//p[/x{val as $v}, /y{val as $v}]");
        // The parser requires ≥2 uses, which this satisfies within one
        // pattern.
        let q = q.unwrap();
        let per_pattern = tuples_for(&q, &[&d]);
        let joined = join_pattern_results(&q, &per_pattern);
        assert_eq!(joined.len(), 1);
        assert_eq!(joined[0].columns, ["1".into(), "1".into()]);
    }

    #[test]
    fn duplicate_joined_tuples_are_deduplicated() {
        let a = Document::parse_str("a.xml", "<a><k>1</k><k>1</k></a>").unwrap();
        let b = Document::parse_str("b.xml", "<b><k>1</k></b>").unwrap();
        let q = parse_query("//a[/k{val as $k}]; //b[/k{val as $k}]").unwrap();
        let per_pattern = tuples_for(&q, &[&a, &b]);
        // Pattern 1 dedups its two identical tuples already; the join
        // result is a single tuple either way.
        let joined = join_pattern_results(&q, &per_pattern);
        assert_eq!(joined.len(), 1);
    }

    // ---- Seeded reference property ----------------------------------------
    //
    // The benchmark's oracle, `repro check` and every evaluator end in
    // `join_pattern_results`, so nothing independent checks it. The body it
    // had before the read path's allocation diet stays here as the
    // reference: same joined tuples, same first-occurrence order.

    /// `join_pattern_results` as first written: a `HashMap<String, String>`
    /// of bindings per accumulated row, the accumulated columns cloned at
    /// every pattern, each `JoinedTuple` cloned again to deduplicate.
    fn join_pattern_results_reference(
        query: &Query,
        per_pattern: &[Vec<Tuple>],
    ) -> Vec<JoinedTuple> {
        assert_eq!(
            query.patterns.len(),
            per_pattern.len(),
            "one tuple set per pattern"
        );
        let consistent = |t: &&Tuple| {
            t.joins.iter().all(|(var, val)| {
                t.joins
                    .iter()
                    .filter(|(v2, _)| v2 == var)
                    .all(|(_, v)| v == val)
            })
        };
        struct Acc {
            uris: Vec<Arc<str>>,
            columns: Vec<Arc<str>>,
            bindings: std::collections::HashMap<String, String>,
        }
        let mut acc: Vec<Acc> = vec![Acc {
            uris: Vec::new(),
            columns: Vec::new(),
            bindings: std::collections::HashMap::new(),
        }];
        for tuples in per_pattern {
            let shared: Vec<&String> = tuples
                .first()
                .map(|t| {
                    t.joins
                        .iter()
                        .map(|(var, _)| var)
                        .filter(|var| acc.first().is_some_and(|a| a.bindings.contains_key(*var)))
                        .collect()
                })
                .unwrap_or_default();
            let key_of_acc = |a: &Acc| -> Vec<String> {
                shared.iter().map(|v| a.bindings[*v].clone()).collect()
            };
            let key_of_tuple = |t: &Tuple| -> Vec<String> {
                shared
                    .iter()
                    .map(|v| {
                        t.joins
                            .iter()
                            .find(|(var, _)| var == *v)
                            .map(|(_, val)| val.clone())
                            .expect("shared variable bound by tuple")
                    })
                    .collect()
            };
            let mut table: std::collections::HashMap<Vec<String>, Vec<usize>> = Default::default();
            for (i, a) in acc.iter().enumerate() {
                table.entry(key_of_acc(a)).or_default().push(i);
            }
            let mut next: Vec<Acc> = Vec::new();
            for t in tuples.iter().filter(consistent) {
                let Some(matches) = table.get(&key_of_tuple(t)) else {
                    continue;
                };
                for &ai in matches {
                    let a = &acc[ai];
                    let mut bindings = a.bindings.clone();
                    for (var, val) in &t.joins {
                        bindings.insert(var.clone(), val.clone());
                    }
                    let mut uris = a.uris.clone();
                    uris.push(t.uri.clone());
                    let mut columns = a.columns.clone();
                    columns.extend(t.columns.iter().cloned());
                    next.push(Acc {
                        uris,
                        columns,
                        bindings,
                    });
                }
            }
            acc = next;
            if acc.is_empty() {
                return Vec::new();
            }
        }
        let mut seen = std::collections::HashSet::new();
        acc.into_iter()
            .map(|a| JoinedTuple {
                uris: a.uris,
                columns: a.columns,
            })
            .filter(|t| seen.insert(t.clone()))
            .collect()
    }

    const VARS: &[&str] = &["x", "y", "z"];
    const VALUES: &[&str] = &["1", "2", "lion"];
    const URIS: &[&str] = &["a.xml", "b.xml", "c.xml"];

    /// 1–3 patterns' tuple sets over a three-value vocabulary. Each
    /// pattern binds 0–3 variables drawn with replacement (so a variable
    /// may repeat inside a pattern, agreeing or not) and every tuple of a
    /// pattern binds the same list, as `materialize` guarantees; a side is
    /// empty now and then, and tuples are repeated.
    fn gen_case(rng: &mut StdRng) -> (Query, Vec<Vec<Tuple>>) {
        let n = rng.gen_range(1..4usize);
        let per_pattern = (0..n)
            .map(|_| {
                let vars: Vec<&str> = (0..rng.gen_range(0..4usize))
                    .map(|_| *rng.choose(VARS))
                    .collect();
                let extra = rng.gen_range(0..3usize);
                let count = if rng.gen_bool(0.1) {
                    0
                } else {
                    rng.gen_range(1..7usize)
                };
                let mut tuples: Vec<Tuple> = Vec::new();
                for _ in 0..count {
                    if !tuples.is_empty() && rng.gen_bool(0.2) {
                        tuples.push(rng.choose(&tuples).clone());
                        continue;
                    }
                    let joins: Vec<(String, String)> = vars
                        .iter()
                        .map(|v| (v.to_string(), rng.choose(VALUES).to_string()))
                        .collect();
                    let columns = joins
                        .iter()
                        .map(|(_, val)| val.as_str().into())
                        .chain((0..extra).map(|_| (*rng.choose(VALUES)).into()))
                        .collect();
                    tuples.push(Tuple::new((*rng.choose(URIS)).into(), columns, joins));
                }
                tuples
            })
            .collect();
        let query = Query {
            patterns: (0..n)
                .map(|_| crate::parser::parse_pattern("//a").unwrap())
                .collect(),
            name: None,
        };
        (query, per_pattern)
    }

    #[test]
    fn join_equals_its_reference_in_order() {
        let (mut non_empty, mut deduplicated) = (0, 0);
        for case in 0..512u64 {
            let mut rng = StdRng::seed_from_u64(0x7A1E_0000 + case);
            let (query, per_pattern) = gen_case(&mut rng);
            let reference = join_pattern_results_reference(&query, &per_pattern);
            non_empty += usize::from(!reference.is_empty());
            let product: usize = per_pattern.iter().map(Vec::len).product();
            deduplicated += usize::from(!reference.is_empty() && reference.len() < product);
            assert_eq!(
                join_pattern_results(&query, &per_pattern),
                reference,
                "case {case}: {per_pattern:?}"
            );
        }
        assert!(non_empty > 150, "the cases must produce joined tuples");
        assert!(deduplicated > 50, "the cases must exercise dedup");
    }
}
