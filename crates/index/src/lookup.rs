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

use crate::codec::{BlockCursor, BlockList};
use crate::key;
use crate::store::{decode_id_postings, decode_path_lists, decode_presence_uris};
use crate::strategy::{ExtractOptions, Strategy, TABLE_ID, TABLE_MAIN, TABLE_PATH};
use amada_cloud::{KvError, KvItem, KvStore, SimTime};
use amada_pattern::twig::{twig_streams_have_match, TwigShape};
use amada_pattern::{Axis, Predicate, Query, TreePattern, TwigStream};
use amada_xml::{tokenize, StructuralId};
use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::sync::Arc;

/// The result of looking up one tree pattern.
#[derive(Debug, Clone, Default)]
pub struct LookupOutcome {
    /// Candidate document URIs, sorted.
    pub uris: Vec<String>,
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
    pub uris: Vec<String>,
    /// Sum of per-pattern candidate counts — the paper's Table 5 counts
    /// ("for queries featuring value joins, Table 5 sums the numbers of
    /// document IDs retrieved for each tree pattern").
    pub total_doc_ids: usize,
}

impl QueryLookup {
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

/// Looks up a full query: each tree pattern independently (Section 5.5).
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
        let outcome = lookup_pattern(store, t, strategy, opts, p)?;
        t = outcome.ready_at;
        per_pattern.push(outcome);
    }
    let mut uris: Vec<String> = per_pattern
        .iter()
        .flat_map(|o| o.uris.iter().cloned())
        .collect();
    uris.sort();
    uris.dedup();
    let total = per_pattern.iter().map(|o| o.uris.len()).sum();
    Ok(QueryLookup {
        per_pattern,
        uris,
        total_doc_ids: total,
    })
}

/// The physical tables a strategy's look-up reads. Defaults to the
/// global table constants; per-partition routing ([`crate::partition`])
/// points them at a partition's own tables instead.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StrategyTables {
    /// Single-table strategies (LU / LUP / LUI / LUP-PD).
    pub main: &'static str,
    /// 2LUPI path sub-index.
    pub path: &'static str,
    /// 2LUPI ID sub-index.
    pub id: &'static str,
}

impl Default for StrategyTables {
    fn default() -> Self {
        StrategyTables {
            main: TABLE_MAIN,
            path: TABLE_PATH,
            id: TABLE_ID,
        }
    }
}

/// Looks up a single tree pattern.
pub fn lookup_pattern(
    store: &mut dyn KvStore,
    now: SimTime,
    strategy: Strategy,
    opts: ExtractOptions,
    pattern: &TreePattern,
) -> Result<LookupOutcome, KvError> {
    lookup_pattern_in(
        store,
        now,
        strategy,
        opts,
        pattern,
        StrategyTables::default(),
    )
}

/// Looks up a single tree pattern against an explicit table set (the
/// default tables, or one partition's tables under a mixed plan).
pub fn lookup_pattern_in(
    store: &mut dyn KvStore,
    now: SimTime,
    strategy: Strategy,
    opts: ExtractOptions,
    pattern: &TreePattern,
    tables: StrategyTables,
) -> Result<LookupOutcome, KvError> {
    match strategy {
        Strategy::Lu => lookup_lu(store, now, opts, pattern, tables.main),
        // LUP-PD narrows candidates exactly like LUP; only the fetch side
        // differs (the query core scans candidates server-side instead of
        // GET-ing them).
        Strategy::Lup | Strategy::LupPd => lookup_lup(store, now, opts, pattern, tables.main),
        Strategy::Lui => lookup_lui(store, now, opts, pattern, tables.main, None),
        Strategy::TwoLupi => {
            // Phase 1: LUP on the path table → R1(URI).
            let r1 = lookup_lup(store, now, opts, pattern, tables.path)?;
            if r1.uris.is_empty() {
                return Ok(r1);
            }
            let reduce: BTreeSet<String> = r1.uris.iter().cloned().collect();
            // Phase 2: ID twig join reduced to R1.
            let mut r2 = lookup_lui(store, r1.ready_at, opts, pattern, tables.id, Some(&reduce))?;
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

/// Items grouped per hash key, the completion time, and the billed gets.
type Fetched = (HashMap<Arc<str>, Vec<KvItem>>, SimTime, u64);

/// Fetches all `keys` (deduplicated) with batch gets, returning items
/// grouped per key and the completion time.
fn fetch_keys(
    store: &mut dyn KvStore,
    now: SimTime,
    table: &str,
    keys: &[String],
) -> Result<Fetched, KvError> {
    let mut unique: Vec<String> = keys.to_vec();
    unique.sort();
    unique.dedup();
    let limit = store.profile().batch_get_limit.max(1);
    let mut by_key: HashMap<Arc<str>, Vec<KvItem>> = HashMap::new();
    let mut t = now;
    let ops_before = store.stats().get_ops;
    for chunk in unique.chunks(limit) {
        let (items, ready) = store.batch_get(t, table, chunk)?;
        t = ready;
        for item in items {
            by_key.entry(item.hash_key.clone()).or_default().push(item);
        }
    }
    // Billed get operations, as the backend itself accounts them (capacity
    // units on DynamoDB, key look-ups on SimpleDB) — the cost model's
    // `|op(q, D, I)|`.
    let ops = store.stats().get_ops - ops_before;
    Ok((by_key, t, ops))
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
    let node_keys = pattern_keys(pattern, opts);
    let keys: Vec<String> = node_keys
        .iter()
        .flat_map(|nk| std::iter::once(nk.main_key.clone()).chain(nk.word_keys.iter().cloned()))
        .collect();
    let (by_key, ready_at, get_ops) = fetch_keys(store, now, table, &keys)?;
    let mut entries = 0u64;
    let mut result: Option<BTreeSet<String>> = None;
    let mut sorted_keys: Vec<&String> = keys.iter().collect();
    sorted_keys.sort();
    sorted_keys.dedup();
    for k in sorted_keys {
        let uris: BTreeSet<String> = by_key
            .get(k.as_str())
            .map(|items| decode_presence_uris(items).into_iter().collect())
            .unwrap_or_default();
        entries += uris.len() as u64;
        result = Some(match result {
            None => uris,
            Some(prev) => prev.intersection(&uris).cloned().collect(),
        });
        if result.as_ref().is_some_and(BTreeSet::is_empty) {
            break;
        }
    }
    Ok(LookupOutcome {
        uris: result.unwrap_or_default().into_iter().collect(),
        entries_processed: entries,
        get_ops,
        ready_at,
    })
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
    let comps: Vec<&str> = data.split('/').filter(|c| !c.is_empty()).collect();
    // Memoized over `(qi, ci)`: without it, adversarial descendant chains
    // (`//a//a//a…` against `/a/a/…/b`) backtrack exponentially, since the
    // same suffix pair is re-explored once per way of reaching it.
    const UNKNOWN: u8 = 0;
    const NO: u8 = 1;
    const YES: u8 = 2;
    let mut memo = vec![UNKNOWN; (query.len() + 1) * (comps.len() + 1)];
    fn rec(
        query: &[(Axis, String)],
        comps: &[&str],
        qi: usize,
        ci: usize,
        memo: &mut [u8],
    ) -> bool {
        let slot = qi * (comps.len() + 1) + ci;
        match memo[slot] {
            NO => return false,
            YES => return true,
            _ => {}
        }
        let matched = if qi == query.len() {
            ci == comps.len()
        } else {
            let (axis, ref k) = query[qi];
            match axis {
                Axis::Child => {
                    comps.get(ci) == Some(&k.as_str()) && rec(query, comps, qi + 1, ci + 1, memo)
                }
                Axis::Descendant => (ci..comps.len())
                    .any(|j| comps[j] == k.as_str() && rec(query, comps, qi + 1, j + 1, memo)),
            }
        };
        memo[slot] = if matched { YES } else { NO };
        matched
    }
    // The final component must be consumed exactly; `rec` enforces both.
    rec(query, &comps, 0, 0, &mut memo)
}

fn lookup_lup(
    store: &mut dyn KvStore,
    now: SimTime,
    opts: ExtractOptions,
    pattern: &TreePattern,
    table: &str,
) -> Result<LookupOutcome, KvError> {
    let paths = query_paths(pattern, opts);
    let terminal_keys: Vec<String> = paths
        .iter()
        .map(|p| p.last().expect("non-empty").1.clone())
        .collect();
    let (by_key, ready_at, get_ops) = fetch_keys(store, now, table, &terminal_keys)?;
    let profile = store.profile();
    // Decode each distinct terminal key once; several query paths may share
    // a terminal (e.g. two branches ending in the same label).
    let mut decoded: HashMap<&String, BTreeMap<String, Vec<String>>> = HashMap::new();
    let mut entries = 0u64;
    for terminal in paths.iter().map(|qp| &qp.last().expect("non-empty").1) {
        if !decoded.contains_key(terminal) {
            let map = by_key
                .get(terminal.as_str())
                .map(|items| decode_path_lists(items, &profile))
                .unwrap_or_default();
            entries += map.values().map(|v| v.len() as u64).sum::<u64>();
            decoded.insert(terminal, map);
        }
    }
    let mut result: Option<BTreeSet<String>> = None;
    for qp in &paths {
        let terminal = &qp.last().expect("non-empty").1;
        let mut uris = BTreeSet::new();
        for (uri, data_paths) in &decoded[terminal] {
            if data_paths.iter().any(|dp| data_path_matches(qp, dp)) {
                uris.insert(uri.clone());
            }
        }
        result = Some(match result {
            None => uris,
            Some(prev) => prev.intersection(&uris).cloned().collect(),
        });
        if result.as_ref().is_some_and(BTreeSet::is_empty) {
            break;
        }
    }
    Ok(LookupOutcome {
        uris: result.unwrap_or_default().into_iter().collect(),
        entries_processed: entries,
        get_ops,
        ready_at,
    })
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
    reduce_to: Option<&BTreeSet<String>>,
) -> Result<LookupOutcome, KvError> {
    let node_keys = pattern_keys(pattern, opts);
    // The twig run over index streams: base pattern nodes plus one extra
    // child node per predicate word (its stream is the word key's IDs).
    let mut shape = TwigShape::from_pattern(pattern);
    // stream_keys[i] = the key feeding twig node i.
    let mut stream_keys: Vec<String> = node_keys.iter().map(|nk| nk.main_key.clone()).collect();
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
            stream_keys.push(w.clone());
        }
    }
    let (by_key, ready_at, get_ops) = fetch_keys(store, now, table, &stream_keys)?;
    let profile = store.profile();
    // Group each distinct key's wire bytes once, as `lookup_lup` does: a
    // pattern with repeated labels feeds several twig nodes from the same
    // key, and regrouping would double-count `entries_processed`. The IDs
    // stay block-compressed; only the blocks the join lands in are decoded.
    let mut memo: HashMap<&String, BTreeMap<String, BlockList>> = HashMap::new();
    let mut entries = 0u64;
    for k in &stream_keys {
        if !memo.contains_key(k) {
            let map = by_key
                .get(k.as_str())
                .map(|items| decode_id_postings(items, &profile))
                .unwrap_or_default();
            entries += map.values().map(|v| v.len() as u64).sum::<u64>();
            memo.insert(k, map);
        }
    }
    // Per-stream view: stream i reads the postings of its key.
    let decoded: Vec<&BTreeMap<String, BlockList>> = stream_keys.iter().map(|k| &memo[k]).collect();
    // Candidate URIs: documents contributing IDs to *every* stream,
    // optionally reduced by the 2LUPI semijoin set.
    let mut candidates: Option<BTreeSet<String>> = reduce_to.cloned();
    for map in &decoded {
        let uris: BTreeSet<String> = map.keys().cloned().collect();
        candidates = Some(match candidates {
            None => uris,
            Some(prev) => prev.intersection(&uris).cloned().collect(),
        });
    }
    let candidates = candidates.unwrap_or_default();
    // Per candidate document, run the holistic twig join on lazy cursors
    // over its posting lists.
    let root_is_anchored = pattern.nodes[0].axis == Axis::Child;
    let mut uris = Vec::new();
    for uri in candidates {
        let mut streams: Vec<LuiStream<'_>> = Vec::with_capacity(stream_keys.len());
        let mut ok = true;
        for (i, map) in decoded.iter().enumerate() {
            let Some(list) = map.get(&uri) else {
                ok = false;
                break;
            };
            streams.push(LuiStream {
                cur: list.cursor(),
                depth1_only: root_is_anchored && i == 0,
            });
        }
        if !ok {
            continue;
        }
        if twig_streams_have_match(&shape, &mut streams) {
            uris.push(uri);
        }
    }
    Ok(LookupOutcome {
        uris,
        entries_processed: entries,
        get_ops,
        ready_at,
    })
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
    use crate::loadutil::index_documents;
    use crate::store::decode_id_lists;
    use amada_cloud::{DynamoDb, KvStore};
    use amada_pattern::parse_pattern;
    use amada_xml::Document;

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
        lookup_pattern(
            store.as_mut(),
            SimTime::ZERO,
            strategy,
            ExtractOptions::default(),
            &p,
        )
        .unwrap()
        .uris
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
            lookup_pattern(
                store,
                SimTime::ZERO,
                strategy,
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
        let out = lookup_pattern(
            store.as_mut(),
            SimTime::ZERO,
            Strategy::Lu,
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
