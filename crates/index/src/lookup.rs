//! Index look-up: from a query to the set of candidate documents,
//! per strategy (paper Sections 5.1–5.5).
//!
//! * **LU** — get every key mentioned by the query, intersect the URI sets.
//! * **LUP** — for each root-to-leaf *query path*, get the terminal key,
//!   keep URIs owning a stored data path that matches the query path
//!   (`(/|//)a₁(/|//)a₂…`), intersect across query paths.
//! * **LUI** — get the ID lists of every query key and run the holistic
//!   twig join per candidate document; exact for single-pattern queries.
//! * **2LUPI** — LUP look-up on the path table first, producing `R₁(URI)`;
//!   then the LUI twig join on the ID table *reduced* to `R₁` (the
//!   semijoin pre-filtering of the paper's Figure 5). Returns the same
//!   URIs as LUI.
//!
//! Range predicates are ignored during look-up and applied during query
//! evaluation (the two-step strategy of Section 5.5: "range look-ups in
//! key-value stores usually imply a full scan, which is very expensive").
//! Value joins are handled per tree pattern: each pattern is looked up
//! independently and evaluated independently; the join runs on the tuple
//! results (Section 5.5).
//!
//! URIs are the `Arc<str>` the fetched items already hold, from
//! `batch_get` to the [`LookupOutcome`]: candidate sets are ascending
//! vectors of them, intersected by merging.

use crate::codec::{BlockCursor, BlockList};
use crate::key;
use crate::partition::Placement;
use crate::store::{decode_id_postings, decode_path_lists, decode_presence_uris};
use crate::strategy::{ExtractOptions, Strategy, TABLE_ID, TABLE_MAIN, TABLE_PATH};
use amada_cloud::{KvError, KvItem, KvStore, SimTime};
use amada_pattern::{Axis, Predicate, Query, TreePattern, TwigJoin, TwigShape, TwigStream};
use amada_xml::{tokenize, StructuralId};
use std::sync::Arc;

/// The result of looking up one tree pattern.
#[derive(Debug, Clone, Default)]
pub struct LookupOutcome {
    /// Candidate document URIs, sorted.
    pub uris: Vec<Arc<str>>,
    /// Index entries (URIs, paths or IDs) processed by the look-up plan —
    /// the work metric for the "plan execution" phase of Figure 9b/9c.
    pub entries_processed: u64,
    /// Billed get operations issued.
    pub get_ops: u64,
    /// Virtual time at which the last index response arrived.
    pub ready_at: SimTime,
}

/// The result of looking up a whole (possibly multi-pattern) query.
#[derive(Debug, Clone, Default)]
pub struct QueryLookup {
    /// Per-pattern outcomes, in pattern order.
    pub per_pattern: Vec<LookupOutcome>,
    /// Union of candidate URIs across patterns, sorted and deduplicated.
    pub uris: Vec<Arc<str>>,
    /// Sum of per-pattern candidate counts — the paper's Table 5 counts
    /// ("for queries featuring value joins, Table 5 sums the numbers of
    /// document IDs retrieved for each tree pattern").
    pub total_doc_ids: usize,
}

impl QueryLookup {
    /// The look-up of a query whose patterns had these outcomes.
    pub fn of(per_pattern: Vec<LookupOutcome>) -> QueryLookup {
        let mut uris: Vec<Arc<str>> = per_pattern
            .iter()
            .flat_map(|o| o.uris.iter().cloned())
            .collect();
        // One pattern's candidates are already in order: a linear pass.
        uris.sort_unstable();
        uris.dedup();
        let total_doc_ids = per_pattern.iter().map(|o| o.uris.len()).sum();
        QueryLookup {
            per_pattern,
            uris,
            total_doc_ids,
        }
    }

    /// Total entries processed across patterns.
    pub fn entries_processed(&self) -> u64 {
        self.per_pattern.iter().map(|p| p.entries_processed).sum()
    }

    /// Total billed gets across patterns.
    pub fn get_ops(&self) -> u64 {
        self.per_pattern.iter().map(|p| p.get_ops).sum()
    }

    /// Virtual completion time of the slowest pattern chain.
    pub fn ready_at(&self) -> SimTime {
        self.per_pattern
            .iter()
            .map(|p| p.ready_at)
            .max()
            .unwrap_or(SimTime::ZERO)
    }
}

/// Looks up a full query the paper's way — one strategy over the global
/// tables — each tree pattern independently (Section 5.5).
pub fn lookup_query(
    store: &mut dyn KvStore,
    now: SimTime,
    strategy: Strategy,
    opts: ExtractOptions,
    query: &Query,
) -> Result<QueryLookup, KvError> {
    let mut per_pattern = Vec::with_capacity(query.patterns.len());
    let mut t = now;
    for p in &query.patterns {
        let outcome = lookup_pattern_in(store, t, Placement::root(strategy), opts, p)?;
        t = outcome.ready_at;
        per_pattern.push(outcome);
    }
    Ok(QueryLookup::of(per_pattern))
}

/// Looks up a single tree pattern with a placement's strategy against
/// its tables (the global ones, or one partition's under a mixed plan).
pub fn lookup_pattern_in(
    store: &mut dyn KvStore,
    now: SimTime,
    placement: Placement<'_>,
    opts: ExtractOptions,
    pattern: &TreePattern,
) -> Result<LookupOutcome, KvError> {
    let table = |base| placement.table(base);
    match placement.strategy {
        Strategy::Lu => lookup_lu(store, now, opts, pattern, table(TABLE_MAIN)),
        // LUP-PD narrows candidates exactly like LUP; only the fetch side
        // differs (the query core scans candidates server-side instead of
        // GET-ing them).
        Strategy::Lup | Strategy::LupPd => lookup_lup(store, now, opts, pattern, table(TABLE_MAIN)),
        Strategy::Lui => lookup_lui(store, now, opts, pattern, table(TABLE_MAIN), None),
        Strategy::TwoLupi => {
            // Phase 1: LUP on the path table → R1(URI).
            let r1 = lookup_lup(store, now, opts, pattern, table(TABLE_PATH))?;
            if r1.uris.is_empty() {
                return Ok(r1);
            }
            // Phase 2: ID twig join reduced to R1.
            let id = table(TABLE_ID);
            let mut r2 = lookup_lui(store, r1.ready_at, opts, pattern, id, Some(&r1.uris))?;
            r2.entries_processed += r1.entries_processed;
            r2.get_ops += r1.get_ops;
            Ok(r2)
        }
    }
}

// ---------------------------------------------------------------------------
// Key derivation
// ---------------------------------------------------------------------------

/// The look-up keys of one pattern node.
#[derive(Debug, Clone)]
pub struct NodeKeys {
    /// Pattern node index.
    pub node: usize,
    /// `e‖label`, `a‖name`, or `a‖name value` (attribute equality).
    pub main_key: String,
    /// `w‖word` keys from an element's equality / containment predicate.
    pub word_keys: Vec<String>,
}

/// Derives the look-up keys for every pattern node (Section 5.1: "all node
/// names, attribute and element string values are extracted from the
/// query"). Range predicates contribute no keys (two-step strategy).
pub fn pattern_keys(pattern: &TreePattern, opts: ExtractOptions) -> Vec<NodeKeys> {
    pattern
        .nodes
        .iter()
        .enumerate()
        .map(|(i, n)| {
            let label = n.test.label();
            let (main_key, words): (String, Vec<String>) = if n.test.is_attribute() {
                match &n.predicate {
                    Some(Predicate::Eq(c)) => (key::attribute_value_key(label, c), vec![]),
                    _ => (key::attribute_key(label), vec![]),
                }
            } else {
                let words = if !opts.index_words {
                    vec![]
                } else {
                    match &n.predicate {
                        Some(Predicate::Eq(c)) => tokenize(c),
                        Some(Predicate::Contains(w)) => tokenize(w),
                        _ => vec![],
                    }
                };
                (key::element_key(label), words)
            };
            NodeKeys {
                node: i,
                main_key,
                word_keys: words.iter().map(|w| key::word_key(w)).collect(),
            }
        })
        .collect()
}

// ---------------------------------------------------------------------------
// Shared fetching
// ---------------------------------------------------------------------------

/// What [`fetch_keys`] fetched.
struct Fetched {
    /// The distinct keys asked for, ascending.
    keys: Vec<String>,
    /// Their items: each key's one run, keys ascending.
    items: Vec<KvItem>,
    /// When the last response arrived.
    ready_at: SimTime,
    /// Billed get operations.
    get_ops: u64,
}

impl Fetched {
    /// The items under `key`.
    fn of(&self, key: &str) -> &[KvItem] {
        let rest = &self.items[self.items.partition_point(|i| &*i.hash_key < key)..];
        &rest[..rest.partition_point(|i| &*i.hash_key == key)]
    }

    /// Position of `key` among the distinct keys.
    fn position(&self, key: &str) -> usize {
        let at = self.keys.binary_search_by(|k| k.as_str().cmp(key));
        at.expect("every look-up key was fetched")
    }

    /// The outcome of the look-up these fetches served.
    fn outcome(self, uris: Vec<Arc<str>>, entries_processed: u64) -> LookupOutcome {
        LookupOutcome {
            uris,
            entries_processed,
            get_ops: self.get_ops,
            ready_at: self.ready_at,
        }
    }
}

/// Fetches all `keys` (deduplicated) with batch gets.
fn fetch_keys(
    store: &mut dyn KvStore,
    now: SimTime,
    table: &str,
    mut keys: Vec<String>,
) -> Result<Fetched, KvError> {
    keys.sort_unstable();
    keys.dedup();
    let limit = store.profile().batch_get_limit.max(1);
    let mut items: Vec<KvItem> = Vec::new();
    let mut t = now;
    let ops_before = store.stats().get_ops;
    for chunk in keys.chunks(limit) {
        // A batch get answers key by key, in the order asked.
        let (batch, ready) = store.batch_get(t, table, chunk)?;
        t = ready;
        if items.is_empty() {
            items = batch;
        } else {
            items.extend(batch);
        }
    }
    debug_assert!(items.is_sorted_by(|a, b| a.hash_key <= b.hash_key));
    // Billed get operations, as the backend itself accounts them (capacity
    // units on DynamoDB, key look-ups on SimpleDB) — the cost model's
    // `|op(q, D, I)|`.
    let get_ops = store.stats().get_ops - ops_before;
    Ok(Fetched {
        keys,
        items,
        ready_at: t,
        get_ops,
    })
}

/// Narrows `result` (`None`: every document) to the URIs `next` lists too,
/// by merging — both are ascending. True when no document is left.
fn narrow<'a>(
    result: &mut Option<Vec<Arc<str>>>,
    next: impl Iterator<Item = &'a Arc<str>>,
) -> bool {
    let mut next = next.peekable();
    match result {
        None => *result = Some(next.cloned().collect()),
        Some(kept) => kept.retain(|uri| {
            while next.next_if(|o| *o < uri).is_some() {}
            next.peek().is_some_and(|o| *o == uri)
        }),
    }
    result.as_ref().is_some_and(Vec::is_empty)
}

// ---------------------------------------------------------------------------
// LU
// ---------------------------------------------------------------------------

fn lookup_lu(
    store: &mut dyn KvStore,
    now: SimTime,
    opts: ExtractOptions,
    pattern: &TreePattern,
    table: &str,
) -> Result<LookupOutcome, KvError> {
    let keys: Vec<String> = pattern_keys(pattern, opts)
        .into_iter()
        .flat_map(|nk| std::iter::once(nk.main_key).chain(nk.word_keys))
        .collect();
    let fetched = fetch_keys(store, now, table, keys)?;
    let mut entries = 0u64;
    let mut result: Option<Vec<Arc<str>>> = None;
    for key in &fetched.keys {
        let uris = decode_presence_uris(fetched.of(key));
        entries += uris.len() as u64;
        if narrow(&mut result, uris.iter()) {
            break;
        }
    }
    Ok(fetched.outcome(result.unwrap_or_default(), entries))
}

// ---------------------------------------------------------------------------
// LUP
// ---------------------------------------------------------------------------

/// A query path: `(axis, key)` steps from the root down (Section 5.2).
pub type QueryPath = Vec<(Axis, String)>;

/// Builds the root-to-leaf query paths of a pattern, extending leaves by
/// their predicate word / attribute-value keys, as the paper's q2 path
/// extends `year` by its equality constant `1854` — except that the word
/// step is `//`, not `/`: the predicate value is the subtree's
/// concatenated text, so the word's text node may sit below intervening
/// elements.
pub fn query_paths(pattern: &TreePattern, opts: ExtractOptions) -> Vec<QueryPath> {
    let node_keys = pattern_keys(pattern, opts);
    let mut out = Vec::new();
    for path in pattern.root_to_leaf_paths() {
        let base: QueryPath = path
            .iter()
            .map(|&(axis, n)| (axis, node_keys[n].main_key.clone()))
            .collect();
        let (_, leaf) = *path.last().expect("paths are non-empty");
        let words = &node_keys[leaf].word_keys;
        if words.is_empty() {
            out.push(base);
        } else {
            // One query path per predicate word, each extended by the word
            // key as a *descendant* step: an element predicate evaluates
            // against the concatenated text of the whole subtree, so the
            // word's text node may sit under any descendant element, and
            // extraction stores the word under that deeper path.
            for w in words {
                let mut p = base.clone();
                p.push((Axis::Descendant, w.clone()));
                out.push(p);
            }
        }
        // Word predicates on inner nodes also become query paths of their
        // own (root-to-node extended by the word).
        for &(_, n) in &path[..path.len().saturating_sub(1)] {
            for w in &node_keys[n].word_keys {
                let mut p: QueryPath = path
                    .iter()
                    .take_while(|&&(_, x)| x != n)
                    .map(|&(axis, x)| (axis, node_keys[x].main_key.clone()))
                    .collect();
                p.push((pattern.nodes[n].axis, node_keys[n].main_key.clone()));
                p.push((Axis::Descendant, w.clone()));
                out.push(p);
            }
        }
    }
    out.sort();
    out.dedup();
    out
}

/// Tests whether a stored data path (e.g. `/esite/eregions/eitem/ename`)
/// matches a query path, respecting `/` vs `//` steps. The match is
/// anchored: the last query step must map to the last data component, and
/// a leading `/` step must map to the first.
pub fn data_path_matches(query: &[(Axis, String)], data: &str) -> bool {
    path_matches(query, data, &mut Vec::new())
}

/// [`data_path_matches`], in a scratch vector the caller keeps across data
/// paths. The query path is a chain automaton — state `s` means "the first
/// `s` steps are matched" — run over the data path's components with the
/// set of live states in `live`: linear in steps × components whatever the
/// path (adversarial descendant chains, `//a//a//a…` against `/a/a/…/b`,
/// make a backtracking matcher exponential).
fn path_matches(query: &[(Axis, String)], data: &str, live: &mut Vec<bool>) -> bool {
    let steps = query.len();
    live.clear();
    live.resize(steps + 1, false);
    live[0] = true;
    for comp in data.split('/').filter(|c| !c.is_empty()) {
        // The final state has no step left to consume a component.
        live[steps] = false;
        // Downwards, so a state's survival is settled before the state
        // below advances into it.
        for s in (0..steps).rev() {
            if !live[s] {
                continue;
            }
            let (axis, key) = &query[s];
            // A `//` step may let the component pass; a `/` step must
            // take it.
            live[s] = *axis == Axis::Descendant;
            if key == comp {
                live[s + 1] = true;
            }
        }
    }
    live[steps]
}

fn lookup_lup(
    store: &mut dyn KvStore,
    now: SimTime,
    opts: ExtractOptions,
    pattern: &TreePattern,
    table: &str,
) -> Result<LookupOutcome, KvError> {
    let paths = query_paths(pattern, opts);
    fn terminal(qp: &QueryPath) -> &str {
        &qp.last().expect("non-empty").1
    }
    let terminals: Vec<String> = paths.iter().map(|qp| terminal(qp).to_string()).collect();
    let fetched = fetch_keys(store, now, table, terminals)?;
    let profile = store.profile();
    // Decode each distinct terminal key once; several query paths may share
    // a terminal (e.g. two branches ending in the same label).
    let decoded: Vec<_> = fetched
        .keys
        .iter()
        .map(|k| decode_path_lists(fetched.of(k), &profile))
        .collect();
    let entries = decoded
        .iter()
        .flat_map(|lists| lists.values())
        .map(|paths| paths.len() as u64)
        .sum();
    let mut result: Option<Vec<Arc<str>>> = None;
    let mut live = Vec::new();
    for qp in &paths {
        let matching = decoded[fetched.position(terminal(qp))]
            .iter()
            .filter(|(_, data)| data.iter().any(|dp| path_matches(qp, dp, &mut live)))
            .map(|(uri, _)| uri);
        if narrow(&mut result, matching) {
            break;
        }
    }
    Ok(fetched.outcome(result.unwrap_or_default(), entries))
}

// ---------------------------------------------------------------------------
// LUI (and the ID phase of 2LUPI)
// ---------------------------------------------------------------------------

fn lookup_lui(
    store: &mut dyn KvStore,
    now: SimTime,
    opts: ExtractOptions,
    pattern: &TreePattern,
    table: &str,
    reduce_to: Option<&[Arc<str>]>,
) -> Result<LookupOutcome, KvError> {
    let node_keys = pattern_keys(pattern, opts);
    // The twig run over index streams: base pattern nodes plus one extra
    // child node per predicate word (its stream is the word key's IDs).
    let mut shape = TwigShape::from_pattern(pattern);
    // stream_keys[i] = the key feeding twig node i.
    let mut stream_keys: Vec<&str> = node_keys.iter().map(|nk| &*nk.main_key).collect();
    for nk in &node_keys {
        for w in &nk.word_keys {
            let idx = shape.parent.len();
            shape.parent.push(Some(nk.node));
            // Descendant, not child: the word's text node may live under a
            // descendant element of the constrained one (an element
            // predicate evaluates the whole subtree's text), and the word
            // stream holds the text node's structural ID.
            shape.axis.push(Axis::Descendant);
            shape.children.push(Vec::new());
            shape.children[nk.node].push(idx);
            stream_keys.push(w);
        }
    }
    let keys = stream_keys.iter().map(|k| k.to_string()).collect();
    let fetched = fetch_keys(store, now, table, keys)?;
    let profile = store.profile();
    // Group each distinct key's wire bytes once, as `lookup_lup` does: a
    // pattern with repeated labels feeds several twig nodes from the same
    // key, and regrouping would double-count `entries_processed`. The IDs
    // stay block-compressed; only the blocks the join lands in are decoded.
    let decoded: Vec<_> = fetched
        .keys
        .iter()
        .map(|k| decode_id_postings(fetched.of(k), &profile))
        .collect();
    let entries = decoded
        .iter()
        .flat_map(|lists| lists.values())
        .map(|list| list.len() as u64)
        .sum();
    // One join, one cursor per stream and one walk over each stream's
    // documents (URIs ascending) serve every candidate.
    let mut join: TwigJoin<()> = TwigJoin::new(shape);
    let root_is_anchored = pattern.nodes[0].axis == Axis::Child;
    let mut walks: Vec<_> = stream_keys
        .iter()
        .map(|k| decoded[fetched.position(k)].iter().peekable())
        .collect();
    let unopened = BlockList::default();
    let mut streams: Vec<LuiStream<'_>> = (0..walks.len())
        .map(|i| LuiStream {
            cur: unopened.cursor(),
            depth1_only: root_is_anchored && i == 0,
        })
        .collect();
    // Candidate URIs: documents contributing IDs to *every* stream,
    // optionally reduced by the 2LUPI semijoin set. Per candidate, run
    // the holistic twig join on lazy cursors over its posting lists.
    let candidates: Box<dyn Iterator<Item = &Arc<str>>> = match reduce_to {
        Some(reduce_to) => Box::new(reduce_to.iter()),
        None => Box::new(decoded[fetched.position(stream_keys[0])].keys()),
    };
    let mut uris = Vec::new();
    for uri in candidates {
        let in_every_stream = walks.iter_mut().zip(&mut streams).all(|(walk, stream)| {
            while walk.next_if(|(u, _)| *u < uri).is_some() {}
            walk.next_if(|(u, _)| *u == uri)
                .map(|(_, list)| stream.cur.open(list))
                .is_some()
        });
        if in_every_stream && join.join(&mut streams) > 0 {
            uris.push(uri.clone());
        }
    }
    Ok(fetched.outcome(uris, entries))
}

/// [`TwigStream`] over a lazy block cursor, optionally restricted to
/// depth-1 IDs — the anchored-root case (`/label`), where the old path
/// materialized the list and `retain`ed document roots.
struct LuiStream<'a> {
    cur: BlockCursor<'a>,
    depth1_only: bool,
}

impl LuiStream<'_> {
    /// Re-establishes the depth-1 invariant after any repositioning.
    fn settle(&mut self) {
        if self.depth1_only {
            while let Some(id) = self.cur.peek() {
                if id.depth == 1 {
                    break;
                }
                self.cur.advance();
            }
        }
    }
}

impl TwigStream<()> for LuiStream<'_> {
    #[inline]
    fn peek(&self) -> Option<(StructuralId, ())> {
        self.cur.peek().map(|id| (id, ()))
    }

    fn advance(&mut self) {
        self.cur.advance();
        self.settle();
    }

    fn skip_to_pre(&mut self, min_pre: u32) {
        self.cur.skip_to_pre(min_pre);
        self.settle();
    }

    fn skip_to_end(&mut self) {
        self.cur.skip_to_end();
    }

    fn reset(&mut self) {
        self.cur.reset();
        self.settle();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::partition::index_documents;
    use crate::store::decode_id_lists;
    use amada_cloud::{DynamoDb, KvStore};
    use amada_pattern::parse_pattern;
    use amada_xml::Document;
    use std::collections::BTreeSet;

    fn docs() -> Vec<Document> {
        vec![
            Document::parse_str(
                "delacroix.xml",
                "<painting id=\"1854-1\"><name>The Lion Hunt</name>\
                 <painter><name><first>Eugene</first><last>Delacroix</last></name></painter>\
                 </painting>",
            )
            .unwrap(),
            Document::parse_str(
                "manet.xml",
                "<painting id=\"1863-1\"><name>Olympia</name>\
                 <painter><name><first>Edouard</first><last>Manet</last></name></painter>\
                 </painting>",
            )
            .unwrap(),
            // A document with the same labels under a different structure:
            // a LU false positive that LUP must filter out for child paths.
            Document::parse_str(
                "weird.xml",
                "<painting id=\"x-1\"><meta><name>Storm</name></meta>\
                 <painter><name><first>A</first><last>B</last></name></painter></painting>",
            )
            .unwrap(),
            // Labels present but never under one painting: a LUP false
            // positive (paths exist) that the LUI twig join must filter.
            Document::parse_str(
                "split.xml",
                "<gallery><painting id=\"y-1\"><name>Sun</name></painting>\
                 <painting id=\"y-2\"><painter><name><first>C</first><last>D</last></name>\
                 </painter></painting></gallery>",
            )
            .unwrap(),
        ]
    }

    fn store_with(strategy: Strategy) -> Box<dyn KvStore> {
        let mut store: Box<dyn KvStore> = Box::new(DynamoDb::default());
        index_documents(store.as_mut(), &docs(), strategy, ExtractOptions::default());
        store
    }

    fn run(strategy: Strategy, pattern: &str) -> Vec<String> {
        let mut store = store_with(strategy);
        let p = parse_pattern(pattern).unwrap();
        lookup_pattern_in(
            store.as_mut(),
            SimTime::ZERO,
            Placement::root(strategy),
            ExtractOptions::default(),
            &p,
        )
        .unwrap()
        .uris
        .iter()
        .map(|u| u.to_string())
        .collect()
    }

    const Q1_LIKE: &str = "//painting[/name{val}, //painter[/name{val}]]";

    #[test]
    fn lu_returns_label_superset() {
        let uris = run(Strategy::Lu, Q1_LIKE);
        // All four documents contain the labels painting, name, painter.
        assert_eq!(uris.len(), 4);
    }

    #[test]
    fn lup_filters_structural_mismatches() {
        let uris = run(Strategy::Lup, Q1_LIKE);
        // weird.xml has no painting/name *child* path; split.xml has both
        // paths (painting/name on y-1) so LUP keeps it.
        assert_eq!(uris, ["delacroix.xml", "manet.xml", "split.xml"]);
    }

    #[test]
    fn lui_filters_non_cooccurring_twigs() {
        let uris = run(Strategy::Lui, Q1_LIKE);
        // split.xml's name and painter live under different paintings.
        assert_eq!(uris, ["delacroix.xml", "manet.xml"]);
    }

    #[test]
    fn two_lupi_equals_lui() {
        for pattern in [
            Q1_LIKE,
            "//painting[/name{contains(Lion)}]",
            "//painting[/@id{=\"1863-1\"}]",
            "//painter[/name[/first{val}, /last{val}]]",
        ] {
            let lui = run(Strategy::Lui, pattern);
            let lupi = run(Strategy::TwoLupi, pattern);
            assert_eq!(lui, lupi, "pattern {pattern}");
        }
    }

    #[test]
    fn containment_chain_lu_lup_lui() {
        // The paper's Table 5 invariant: LU ⊇ LUP ⊇ LUI.
        for pattern in [
            Q1_LIKE,
            "//painting[/name{val}]",
            "//painting[/name{contains(Hunt)}, //painter[/name[/last{val}]]]",
        ] {
            let lu: BTreeSet<_> = run(Strategy::Lu, pattern).into_iter().collect();
            let lup: BTreeSet<_> = run(Strategy::Lup, pattern).into_iter().collect();
            let lui: BTreeSet<_> = run(Strategy::Lui, pattern).into_iter().collect();
            assert!(lup.is_subset(&lu), "{pattern}");
            assert!(lui.is_subset(&lup), "{pattern}");
        }
    }

    #[test]
    fn attribute_equality_is_selective() {
        let uris = run(Strategy::Lu, "//painting[/@id{=\"1863-1\"}, /name{val}]");
        assert_eq!(uris, ["manet.xml"]);
    }

    #[test]
    fn word_lookup_q3_style() {
        let uris = run(
            Strategy::Lui,
            "//painting[/name{contains(Lion)}, //painter[/name[/last{val}]]]",
        );
        assert_eq!(uris, ["delacroix.xml"]);
    }

    #[test]
    fn range_predicates_are_ignored_at_lookup() {
        // Section 5.5 two-step strategy: the range must not restrict the
        // look-up, only the labels do.
        let with_range = run(Strategy::Lui, "//painting[/@id{val}, /name{1<val<=2}]");
        let without = run(Strategy::Lui, "//painting[/@id{val}, /name{val}]");
        assert_eq!(with_range, without);
    }

    #[test]
    fn query_paths_extend_predicates() {
        let p = parse_pattern("//painting[//description, /year{=\"1854\"}]").unwrap();
        let qps = query_paths(&p, ExtractOptions::default());
        let rendered: Vec<String> = qps
            .iter()
            .map(|qp| {
                qp.iter()
                    .map(|(a, k)| format!("{}{}", if *a == Axis::Child { "/" } else { "//" }, k))
                    .collect::<String>()
            })
            .collect();
        assert!(
            rendered.contains(&"//epainting//edescription".to_string()),
            "{rendered:?}"
        );
        assert!(
            rendered.contains(&"//epainting/eyear//w1854".to_string()),
            "{rendered:?}"
        );
    }

    #[test]
    fn data_path_matching() {
        let q = |s: &str| {
            // Tiny helper: parse "//ea/eb" into a QueryPath.
            let mut out: QueryPath = Vec::new();
            let mut rest = s;
            while !rest.is_empty() {
                let (axis, after) = if let Some(r) = rest.strip_prefix("//") {
                    (Axis::Descendant, r)
                } else if let Some(r) = rest.strip_prefix('/') {
                    (Axis::Child, r)
                } else {
                    panic!("bad path {s}");
                };
                let end = after.find('/').unwrap_or(after.len());
                out.push((axis, after[..end].to_string()));
                rest = &after[end..];
            }
            out
        };
        assert!(data_path_matches(
            &q("//eitem/ename"),
            "/esite/eregions/eitem/ename"
        ));
        assert!(!data_path_matches(
            &q("//eitem/ename"),
            "/esite/eitem/einfo/ename"
        ));
        assert!(data_path_matches(
            &q("//eitem//ename"),
            "/esite/eitem/einfo/ename"
        ));
        assert!(data_path_matches(&q("/ea/eb"), "/ea/eb"));
        assert!(!data_path_matches(&q("/eb"), "/ea/eb"));
        // The query must consume the whole data path tail.
        assert!(!data_path_matches(&q("//ea"), "/ea/eb"));
    }

    #[test]
    fn repeated_label_entries_are_counted_once() {
        // Both patterns read the same distinct key set {epainting, ename,
        // epainter}; the repeated `name` node feeds a second twig stream
        // from the same key and must not re-count its decoded entries
        // (the Figure 9b/9c plan-execution work metric).
        let repeated = parse_pattern("//painting[/name, //painter[/name]]").unwrap();
        let id_keys = ["epainting", "ename", "epainter"]; // distinct, name once
        let sum_ids = |store: &mut dyn KvStore, table: &str, keys: &[&str]| -> u64 {
            let profile = store.profile();
            keys.iter()
                .map(|k| {
                    let (items, _) = store.get(SimTime::ZERO, table, k).unwrap();
                    decode_id_lists(&items, &profile)
                        .values()
                        .map(|v| v.len() as u64)
                        .sum::<u64>()
                })
                .sum()
        };
        let run = |store: &mut dyn KvStore, strategy: Strategy| {
            lookup_pattern_in(
                store,
                SimTime::ZERO,
                Placement::root(strategy),
                ExtractOptions::default(),
                &repeated,
            )
            .unwrap()
            .entries_processed
        };

        let mut store = store_with(Strategy::Lui);
        let expected = sum_ids(store.as_mut(), TABLE_MAIN, &id_keys);
        assert_eq!(run(store.as_mut(), Strategy::Lui), expected);

        // 2LUPI adds its path phase: both query paths end in `name`, so the
        // path table contributes the single distinct terminal `ename`.
        let mut store = store_with(Strategy::TwoLupi);
        let profile = store.profile();
        let (items, _) = store.get(SimTime::ZERO, TABLE_PATH, "ename").unwrap();
        let path_entries: u64 = decode_path_lists(&items, &profile)
            .values()
            .map(|v| v.len() as u64)
            .sum();
        let expected = path_entries + sum_ids(store.as_mut(), TABLE_ID, &id_keys);
        assert_eq!(run(store.as_mut(), Strategy::TwoLupi), expected);
    }

    #[test]
    fn adversarial_descendant_chain_matches_without_backtracking() {
        // `//a` × 18 against `/a/a/…/a/b` (300 components): the naive
        // backtracking matcher explores C(300, 18) interleavings and never
        // terminates; the memoized matcher is polynomial.
        let chain: QueryPath = (0..18)
            .map(|_| (Axis::Descendant, "ea".to_string()))
            .collect();
        let mut data = "/ea".repeat(300);
        data.push_str("/eb");
        let started = std::time::Instant::now();
        // Fails only at the very end of every interleaving: the worst case.
        assert!(!data_path_matches(&chain, &data));
        let mut matching = chain.clone();
        matching.push((Axis::Descendant, "eb".to_string()));
        assert!(data_path_matches(&matching, &data));
        assert!(
            started.elapsed() < std::time::Duration::from_secs(5),
            "data_path_matches backtracked exponentially"
        );
    }

    #[test]
    fn missing_key_short_circuits_to_empty() {
        let mut store = store_with(Strategy::Lu);
        let p = parse_pattern("//nonexistent[/name]").unwrap();
        let out = lookup_pattern_in(
            store.as_mut(),
            SimTime::ZERO,
            Placement::root(Strategy::Lu),
            ExtractOptions::default(),
            &p,
        )
        .unwrap();
        assert!(out.uris.is_empty());
        assert!(out.get_ops > 0);
    }

    #[test]
    fn multi_pattern_lookup_sums_counts() {
        let mut store = store_with(Strategy::Lui);
        let q = amada_pattern::parse_query(
            "//painting[/@id{val as $p}]; //painting[/@id{val as $p}, //painter]",
        )
        .unwrap();
        let out = lookup_query(
            store.as_mut(),
            SimTime::ZERO,
            Strategy::Lui,
            ExtractOptions::default(),
            &q,
        )
        .unwrap();
        assert_eq!(out.per_pattern.len(), 2);
        assert_eq!(
            out.total_doc_ids,
            out.per_pattern[0].uris.len() + out.per_pattern[1].uris.len()
        );
        assert!(out.ready_at() > SimTime::ZERO);
    }
}
