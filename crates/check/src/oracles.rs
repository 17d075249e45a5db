//! The differential oracles, applied to one generated [`Case`].
//!
//! Every oracle compares two independent computations of the same fact:
//! index-assisted answers vs. the no-index scan, the twig join vs. the
//! naive evaluator, a decoded payload vs. the encoded one. A mismatch is
//! a [`Violation`] carrying enough detail to read the failure without
//! re-running anything.

use crate::gen::{final_docs, Case, ChurnOp};
use crate::invariants;
use crate::Mutation;
use amada_cloud::{KvBackend, KvError, KvItem, KvProfile, KvStore, KvValue, SimTime};
use amada_core::{Warehouse, WarehouseConfig, DOC_BUCKET};
use amada_index::lookup::{data_path_matches, lui_twig, pattern_keys, query_paths, QueryPath};
use amada_index::store::{decode_id_lists, decode_path_lists, decode_presence_uris, encode_entry};
use amada_index::{
    extract, index_documents, lookup_pattern_in, lookup_query, ExtractOptions, IndexEntry, Payload,
    Strategy, UuidGen, WriteSet, TABLE_ID, TABLE_MAIN, TABLE_PATH,
};
use amada_pattern::twig::evaluate_pattern_twig;
use amada_pattern::{
    join_pattern_results, naive_matches, parse_query, Axis, Query, TreePattern, Tuple, TwigJoin,
};
use amada_xml::{Document, StructuralId};
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;
use std::sync::Arc;

/// One oracle violation: which oracle, and a self-contained account.
#[derive(Debug, Clone)]
pub struct Violation {
    /// Oracle name (`answers`, `containment`, `lookup`, `twig-vs-naive`,
    /// `round-trip`, `billing`, `isolation`).
    pub oracle: &'static str,
    /// What disagreed, with the per-strategy outputs involved.
    pub detail: String,
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{}] {}", self.oracle, self.detail)
    }
}

fn violation(oracle: &'static str, detail: String) -> Violation {
    Violation { oracle, detail }
}

/// Runs every oracle against the case (the billing oracle only when
/// `billing` is set — it spins up whole warehouse pipelines).
pub fn check_case(case: &Case, mutation: Mutation, billing: bool) -> Result<(), Violation> {
    let docs = parse_docs(case);
    let query = parse_query(&case.query)
        .map_err(|e| violation("answers", format!("query does not parse: {e:?}")))?;
    let opts = ExtractOptions {
        index_words: case.index_words,
    };

    oracle_twig_vs_naive(&docs, &query)?;

    // Ground truth: the no-index scan evaluates every pattern on every
    // document.
    let truth_tuples: Vec<Vec<Tuple>> = query
        .patterns
        .iter()
        .map(|p| eval_pattern(&docs, None, p))
        .collect();
    let truth = canon_joined(&join_pattern_results(&query, &truth_tuples));

    for backend in backends() {
        let candidates =
            strategy_candidates(&docs, &query, opts, backend, mutation).map_err(|e| {
                violation(
                    "answers",
                    format!("{} look-up failed: {e:?}", backend.profile().name),
                )
            })?;
        oracle_containment(backend, &query, &candidates)?;
        oracle_lookup_reference(backend, &docs, &query, opts)?;
        oracle_answers(backend, &docs, &query, &truth, &candidates)?;
    }

    oracle_round_trip(&docs, opts)?;

    if !case.churn.is_empty() {
        oracle_churn(case, &query, mutation)?;
    }

    if billing {
        invariants::billing_oracle(case, &query).map_err(|d| violation("billing", d))?;
        let mut cfg = WarehouseConfig::with_strategy(crate::case_strategy(case.index));
        cfg.extract = opts;
        invariants::isolation_oracle(&case.docs, &cfg, std::slice::from_ref(&query))
            .map_err(|d| violation("isolation", d))?;
    }
    Ok(())
}

fn parse_docs(case: &Case) -> Vec<Document> {
    case.docs
        .iter()
        .map(|(uri, xml)| Document::parse_str(uri.clone(), xml).expect("case XML must parse"))
        .collect()
}

// ---------------------------------------------------------------------------
// Oracle C — twig join ≡ naive evaluator, per document and pattern
// ---------------------------------------------------------------------------

fn oracle_twig_vs_naive(docs: &[Document], query: &Query) -> Result<(), Violation> {
    for (pi, pattern) in query.patterns.iter().enumerate() {
        for doc in docs {
            let naive = canon_tuples(&naive_matches(doc, pattern).0);
            let twig = canon_tuples(&evaluate_pattern_twig(doc, pattern).0);
            if naive != twig {
                return Err(violation(
                    "twig-vs-naive",
                    format!(
                        "pattern {pi} on {}: naive {naive:?} vs twig {twig:?}",
                        doc.uri()
                    ),
                ));
            }
        }
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// Per-strategy candidate sets
// ---------------------------------------------------------------------------

/// The two services the paper experiments with.
fn backends() -> [KvBackend; 2] {
    [KvBackend::Dynamo, KvBackend::Simple]
}

/// Per-pattern candidate URI sets, per strategy (Strategy::ALL order).
type Candidates = Vec<Vec<BTreeSet<String>>>;

fn strategy_candidates(
    docs: &[Document],
    query: &Query,
    opts: ExtractOptions,
    backend: KvBackend,
    mutation: Mutation,
) -> Result<Candidates, KvError> {
    let mut out = Vec::with_capacity(Strategy::ALL.len());
    for strategy in Strategy::ALL {
        let mut store = KvStore::new(backend);
        index_documents(&mut store, docs, strategy, opts);
        let per_pattern: Vec<BTreeSet<String>> =
            if strategy == Strategy::Lup && mutation == Mutation::SkipLupPathFilter {
                query
                    .patterns
                    .iter()
                    .map(|p| lup_candidates_without_path_filter(&mut store, opts, p))
                    .collect::<Result<_, _>>()?
            } else {
                lookup_query(&mut store, SimTime::ZERO, strategy, opts, query)?
                    .per_pattern
                    .into_iter()
                    .map(|o| o.uris.iter().map(|u| u.to_string()).collect())
                    .collect()
            };
        out.push(per_pattern);
    }
    Ok(out)
}

/// The injected `SkipLupPathFilter` bug: LUP candidates are every URI
/// owning the *terminal key* of each query path, with `data_path_matches`
/// never consulted — the structural filter of Section 5.2 is gone.
fn lup_candidates_without_path_filter(
    store: &mut KvStore,
    opts: ExtractOptions,
    pattern: &TreePattern,
) -> Result<BTreeSet<String>, KvError> {
    let profile: KvProfile = store.profile();
    let mut result: Option<BTreeSet<String>> = None;
    for qp in query_paths(pattern, opts) {
        let terminal = &qp.last().expect("query paths are non-empty").1;
        let (items, _) = store.get(SimTime::ZERO, TABLE_MAIN, terminal)?;
        let uris: BTreeSet<String> = decode_path_lists(&items, &profile)
            .keys()
            .map(|u| u.to_string())
            .collect();
        result = Some(match result {
            None => uris,
            Some(prev) => prev.intersection(&uris).cloned().collect(),
        });
    }
    Ok(result.unwrap_or_default())
}

// ---------------------------------------------------------------------------
// Oracle B — candidate containment LU ⊇ LUP ⊇ LUI = 2LUPI (Table 5)
// ---------------------------------------------------------------------------

fn oracle_containment(
    backend: KvBackend,
    query: &Query,
    candidates: &Candidates,
) -> Result<(), Violation> {
    let [lu, lup, lui, two] = [
        &candidates[0],
        &candidates[1],
        &candidates[2],
        &candidates[3],
    ];
    for pi in 0..query.patterns.len() {
        let chain: [(&str, &BTreeSet<String>, &str, &BTreeSet<String>); 2] = [
            ("LU", &lu[pi], "LUP", &lup[pi]),
            ("LUP", &lup[pi], "LUI", &lui[pi]),
        ];
        for (big_name, big, small_name, small) in chain {
            if !small.is_subset(big) {
                let extra: Vec<&String> = small.difference(big).collect();
                return Err(violation(
                    "containment",
                    format!(
                        "{}, pattern {pi}: {small_name} ⊄ {big_name}; {small_name} has {extra:?} \
                         that {big_name} lacks\n{}",
                        backend.profile().name,
                        render_candidates(pi, lu, lup, lui, two),
                    ),
                ));
            }
        }
        if lui[pi] != two[pi] {
            return Err(violation(
                "containment",
                format!(
                    "{}, pattern {pi}: LUI ≠ 2LUPI\n{}",
                    backend.profile().name,
                    render_candidates(pi, lu, lup, lui, two),
                ),
            ));
        }
    }
    Ok(())
}

fn render_candidates(
    pi: usize,
    lu: &[BTreeSet<String>],
    lup: &[BTreeSet<String>],
    lui: &[BTreeSet<String>],
    two: &[BTreeSet<String>],
) -> String {
    format!(
        "  LU    {:?}\n  LUP   {:?}\n  LUI   {:?}\n  2LUPI {:?}",
        lu[pi], lup[pi], lui[pi], two[pi]
    )
}

// ---------------------------------------------------------------------------
// Oracle B, by reference — each look-up equals one that decodes in full
// ---------------------------------------------------------------------------

/// Every strategy's [`lookup_pattern_in`] outcome — candidates, entries
/// processed, billed gets — equals [`reference_lookup`]'s, on a store that
/// also holds what a build never writes, so the read rules are checked
/// too: a malformed ID chunk after the first document's own (DynamoDB
/// skips the chunk; on SimpleDB it spoils the blob, an empty list) and a
/// document whose path list is a blob (marked, on DynamoDB).
fn oracle_lookup_reference(
    backend: KvBackend,
    docs: &[Document],
    query: &Query,
    opts: ExtractOptions,
) -> Result<(), Violation> {
    let fail = |e: KvError| violation("lookup", format!("{}: {e:?}", backend.profile().name));
    for strategy in Strategy::ALL {
        let mut store = KvStore::new(backend);
        index_documents(&mut store, docs, strategy, opts);
        for (pi, pattern) in query.patterns.iter().enumerate() {
            plant(&mut store, strategy, docs, pattern, opts).map_err(fail)?;
            let got = lookup_pattern_in(&mut store, SimTime::ZERO, strategy, opts, pattern);
            let got = got
                .map(|o| (o.uris, o.entries_processed, o.get_ops))
                .map_err(fail)?;
            let want = reference_lookup(&mut store, strategy, opts, pattern).map_err(fail)?;
            if got != want {
                let (name, strategy) = (backend.profile().name, strategy.name());
                let detail = format!("{name} / {strategy}, pattern {pi}: {got:?} vs {want:?}");
                return Err(violation("lookup", detail));
            }
        }
    }
    Ok(())
}

/// Puts [`oracle_lookup_reference`]'s two planted items under `pattern`'s
/// keys in `strategy`'s tables.
fn plant(
    store: &mut KvStore,
    strategy: Strategy,
    docs: &[Document],
    pattern: &TreePattern,
    opts: ExtractOptions,
) -> Result<(), KvError> {
    let (profile, uri) = (store.profile(), docs.first().map_or("", Document::uri));
    let (ids, paths) = tables(strategy);
    if let Some(table) = ids {
        let junk = if profile.supports_binary {
            KvValue::B(&[0x80])
        } else {
            KvValue::S("!")
        };
        let key = pattern_keys(pattern, opts).swap_remove(0).main_key;
        let item = KvItem::new(key.into(), "999999-planted", uri.into(), [junk].into_iter());
        store.batch_put(SimTime::ZERO, table, vec![item])?;
    }
    let (Some(table), Some(qp)) = (paths, query_paths(pattern, opts).pop()) else {
        return Ok(());
    };
    // The query path written out, and a path past an item's budget.
    let paths = vec![
        qp.iter().map(|(_, k)| format!("/{k}")).collect(),
        format!("/e{}", "a".repeat(1 << 16)),
    ];
    let (uri, key) = ("planted.xml", terminal(&qp).into());
    let entry = IndexEntry {
        table,
        key,
        uri: uri.into(),
        payload: Payload::Paths(paths),
    };
    let items = encode_entry(&entry, &profile, &mut UuidGen::for_document(uri));
    (items.chunks(profile.batch_put_limit)).try_for_each(|batch| {
        store
            .batch_put(SimTime::ZERO, table, batch.to_vec())
            .map(drop)
    })
}

/// The tables `strategy`'s look-up reads ID lists and path lists from.
fn tables(strategy: Strategy) -> (Option<&'static str>, Option<&'static str>) {
    match strategy {
        Strategy::Lu => (None, None),
        Strategy::Lup => (None, Some(TABLE_MAIN)),
        Strategy::Lui => (Some(TABLE_MAIN), None),
        Strategy::TwoLupi => (Some(TABLE_ID), Some(TABLE_PATH)),
    }
}

fn terminal(qp: &QueryPath) -> &str {
    qp.last().map_or("", |(_, key)| key)
}

/// One pattern's look-up the long way: each key got on its own, every list
/// decoded in full ([`decode_presence_uris`], [`decode_path_lists`],
/// [`decode_id_lists`]), a [`TwigJoin`] over each candidate's lists.
fn reference_lookup(
    store: &mut KvStore,
    strategy: Strategy,
    opts: ExtractOptions,
    pattern: &TreePattern,
) -> Result<(Vec<Arc<str>>, u64, u64), KvError> {
    let (profile, before) = (store.profile(), store.stats().get_ops);
    let (mut result, mut entries) = (None, 0);
    if strategy == Strategy::Lu {
        let keys = pattern_keys(pattern, opts).into_iter();
        let keys = keys.flat_map(|nk| [vec![nk.main_key], nk.word_keys].concat());
        for items in got(store, TABLE_MAIN, keys)?.values() {
            let uris = decode_presence_uris(items);
            entries += uris.len() as u64;
            if intersect(&mut result, uris.into_iter().collect()) {
                break;
            }
        }
    }
    let (ids, paths) = tables(strategy);
    if let Some(table) = paths {
        let paths = query_paths(pattern, opts);
        let items = got(
            store,
            table,
            paths.iter().map(|qp| terminal(qp).to_string()),
        )?;
        let lists: BTreeMap<_, _> = (items.iter())
            .map(|(k, items)| (k.as_str(), decode_path_lists(items, &profile)))
            .collect();
        entries += lists
            .values()
            .flat_map(|l| l.values())
            .map(|p| p.len() as u64)
            .sum::<u64>();
        for qp in &paths {
            let owners = lists[terminal(qp)].iter();
            let owners = owners.filter(|(_, data)| data.iter().any(|dp| data_path_matches(qp, dp)));
            if intersect(&mut result, owners.map(|(uri, _)| uri.clone()).collect()) {
                break;
            }
        }
    }
    // 2LUPI joins only what its path phase left, if anything.
    if let Some(table) = ids.filter(|_| result.as_ref().is_none_or(|r| !r.is_empty())) {
        let (shape, keys) = lui_twig(pattern, opts);
        let items = got(store, table, keys.clone())?;
        let lists: BTreeMap<_, _> = (items.iter())
            .map(|(k, items)| (k.as_str(), decode_id_lists(items, &profile)))
            .collect();
        entries += lists
            .values()
            .flat_map(|l| l.values())
            .map(|i| i.len() as u64)
            .sum::<u64>();
        let candidates = result.take();
        let candidates = candidates.unwrap_or_else(|| lists[&*keys[0]].keys().cloned().collect());
        let anchored = pattern.nodes[0].axis == Axis::Child;
        let mut join = TwigJoin::new(shape);
        let mut matches = |uri: &Arc<str>| {
            // Each stream's IDs in the document, an anchored root's at depth 1.
            let streams: Option<Vec<Vec<(StructuralId, ())>>> = (keys.iter().enumerate())
                .map(|(i, k)| {
                    let ids = lists[&**k].get(uri)?.iter();
                    let ids = ids.filter(|id| i > 0 || !anchored || id.depth == 1);
                    Some(ids.map(|&id| (id, ())).collect())
                })
                .collect();
            streams.is_some_and(|s| join.join(&s) > 0)
        };
        result = Some(candidates.into_iter().filter(|uri| matches(uri)).collect());
    }
    let uris = result.unwrap_or_default().into_iter().collect();
    Ok((uris, entries, store.stats().get_ops - before))
}

/// Each distinct key's items, got one key at a time.
fn got(
    store: &mut KvStore,
    table: &str,
    keys: impl IntoIterator<Item = String>,
) -> Result<BTreeMap<String, Vec<KvItem>>, KvError> {
    let keys: BTreeSet<String> = keys.into_iter().collect();
    let get = |k: String| Ok((k.clone(), store.get(SimTime::ZERO, table, &k)?.0));
    keys.into_iter().map(get).collect()
}

/// Narrows `result` (`None`: every document) to `next`; true when empty.
fn intersect(result: &mut Option<BTreeSet<Arc<str>>>, next: BTreeSet<Arc<str>>) -> bool {
    let kept = result.take().map_or(next.clone(), |prev| &prev & &next);
    result.insert(kept).is_empty()
}

// ---------------------------------------------------------------------------
// Oracle A — answers identical to the no-index scan
// ---------------------------------------------------------------------------

fn eval_pattern(docs: &[Document], only: Option<&BTreeSet<String>>, p: &TreePattern) -> Vec<Tuple> {
    docs.iter()
        .filter(|d| only.is_none_or(|set| set.contains(d.uri())))
        .flat_map(|d| naive_matches(d, p).0)
        .collect()
}

fn oracle_answers(
    backend: KvBackend,
    docs: &[Document],
    query: &Query,
    truth: &[String],
    candidates: &Candidates,
) -> Result<(), Violation> {
    for (si, strategy) in Strategy::ALL.iter().enumerate() {
        let per_pattern: Vec<Vec<Tuple>> = query
            .patterns
            .iter()
            .enumerate()
            .map(|(pi, p)| eval_pattern(docs, Some(&candidates[si][pi]), p))
            .collect();
        let answers = canon_joined(&join_pattern_results(query, &per_pattern));
        if answers != truth {
            return Err(violation(
                "answers",
                format!(
                    "{} / {}: strategy answers differ from the no-index scan\n  \
                     no-index: {truth:?}\n  {}: {answers:?}\n  candidates: {:?}",
                    backend.profile().name,
                    strategy.name(),
                    strategy.name(),
                    candidates[si],
                ),
            ));
        }
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// Oracle F — churn convergence: replayed mutations ≡ a fresh build
// ---------------------------------------------------------------------------

/// Replays the case's churn script against a live warehouse — initial
/// corpus uploaded and indexed, then re-uploads / deletes / mid-sequence
/// builds in order, then a final build — and demands convergence with a
/// fresh warehouse of the surviving corpus: byte-identical index items,
/// byte-identical file store, equal accounting, and query answers equal
/// to the no-index scan of the survivors.
fn oracle_churn(case: &Case, query: &Query, mutation: Mutation) -> Result<(), Violation> {
    let strategy = crate::case_strategy(case.index);
    let mk = || {
        let mut cfg = WarehouseConfig::with_strategy(strategy);
        cfg.extract = ExtractOptions {
            index_words: case.index_words,
        };
        Warehouse::new(cfg)
    };
    // The injected bugs. `DropRetractions`: pending retractions vanish
    // before every build, so stale entries survive any replace.
    // `VouchForKeptKeys`: every registry entry holds the stored version's
    // write set alone, so a value that changed is never written and a key
    // only an earlier version has is never deleted.
    let build = |w: &mut Warehouse| {
        if mutation == Mutation::DropRetractions {
            w.retraction_registry().borrow_mut().clear();
        }
        if mutation == Mutation::VouchForKeptKeys {
            let (registry, profile) = (w.retraction_registry(), w.world().kv.profile());
            for (uri, bytes) in w.world().s3.peek_all(DOC_BUCKET) {
                let mut registry = registry.borrow_mut();
                let Some(held) = registry.get_mut(&uri) else {
                    continue;
                };
                let doc = Document::parse(&*uri, &bytes).expect("uploaded documents parse");
                let entries = extract(&doc, strategy, w.config().extract);
                *held = vec![Arc::new(WriteSet::encode(&entries, &profile, &uri))];
            }
        }
        w.build_index();
    };

    let mut churned = mk();
    churned.upload_documents(case.docs.clone());
    build(&mut churned);
    for op in &case.churn {
        match op {
            ChurnOp::Upload { uri, xml } => {
                churned.upload_documents([(uri.clone(), xml.clone())]);
            }
            ChurnOp::Delete { uri } => {
                churned.delete_documents([uri.clone()]);
            }
            ChurnOp::Build => build(&mut churned),
        }
    }
    build(&mut churned);

    let survivors = final_docs(&case.docs, &case.churn);
    let mut fresh = mk();
    fresh.upload_documents(survivors.clone());
    fresh.build_index();

    let ctx = || format!("{} after {:?}", strategy.name(), case.churn);
    let (churned_kv, fresh_kv) = (churned.world().kv.peek_all(), fresh.world().kv.peek_all());
    if churned_kv != fresh_kv {
        let stale: Vec<_> = churned_kv
            .iter()
            .filter(|i| !fresh_kv.contains(i))
            .collect();
        let missing: Vec<_> = fresh_kv
            .iter()
            .filter(|i| !churned_kv.contains(i))
            .collect();
        return Err(violation(
            "churn",
            format!(
                "{}: churned index differs from a fresh build of the survivors\n  \
                 stale (churned only): {stale:?}\n  missing (fresh only): {missing:?}",
                ctx()
            ),
        ));
    }
    if churned.world().s3.peek_all(DOC_BUCKET) != fresh.world().s3.peek_all(DOC_BUCKET) {
        return Err(violation(
            "churn",
            format!("{}: churned file store differs from the survivors", ctx()),
        ));
    }
    if churned.corpus_bytes() != fresh.corpus_bytes()
        || churned.storage_cost() != fresh.storage_cost()
    {
        return Err(violation(
            "churn",
            format!(
                "{}: accounting diverged — {} vs {} corpus bytes, {:?} vs {:?} storage",
                ctx(),
                churned.corpus_bytes(),
                fresh.corpus_bytes(),
                churned.storage_cost(),
                fresh.storage_cost(),
            ),
        ));
    }

    // Answers on the churned warehouse must equal the no-index scan of
    // the surviving corpus — a stale candidate that slips through would
    // resurface retracted content here.
    let docs: Vec<Document> = survivors
        .iter()
        .map(|(uri, xml)| Document::parse_str(uri.clone(), xml).expect("survivors parse"))
        .collect();
    let truth_tuples: Vec<Vec<Tuple>> = query
        .patterns
        .iter()
        .map(|p| eval_pattern(&docs, None, p))
        .collect();
    let truth = canon_joined(&join_pattern_results(query, &truth_tuples));
    let answers = canon_joined(&churned.run_query(query).exec.results);
    if answers != truth {
        return Err(violation(
            "churn",
            format!(
                "{}: churned answers differ from the survivors' no-index scan\n  \
                 no-index: {truth:?}\n  churned:  {answers:?}",
                ctx()
            ),
        ));
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// Oracle D — store round-trip on every extracted entry
// ---------------------------------------------------------------------------

fn oracle_round_trip(docs: &[Document], opts: ExtractOptions) -> Result<(), Violation> {
    let profiles = backends().map(|backend| backend.profile());
    for strategy in Strategy::ALL {
        for doc in docs {
            for entry in extract(doc, strategy, opts) {
                for profile in &profiles {
                    let mut uuids = UuidGen::for_document(&entry.uri);
                    let items = encode_entry(&entry, profile, &mut uuids);
                    let ok = match &entry.payload {
                        Payload::Presence => decode_presence_uris(&items) == [entry.uri.clone()],
                        Payload::Paths(paths) => decode_path_lists(&items, profile)
                            .get(&entry.uri)
                            .is_some_and(|decoded| decoded == paths),
                        Payload::Ids(ids) => {
                            decode_id_lists(&items, profile).get(&*entry.uri) == Some(ids)
                        }
                    };
                    if !ok {
                        return Err(violation(
                            "round-trip",
                            format!(
                                "{} profile, strategy {}, doc {}: entry key {:?} did not \
                                 survive encode→decode ({} items)",
                                profile.name,
                                strategy.name(),
                                doc.uri(),
                                entry.key,
                                items.len(),
                            ),
                        ));
                    }
                }
            }
        }
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// Canonical renderings (sorted, multiplicity-preserving)
// ---------------------------------------------------------------------------

/// Canonical multiset rendering of per-pattern tuples.
pub fn canon_tuples(tuples: &[Tuple]) -> Vec<String> {
    let mut v: Vec<String> = tuples
        .iter()
        .map(|t| format!("{}|{:?}|{:?}", t.uri, t.columns, t.joins))
        .collect();
    v.sort();
    v
}

/// Canonical multiset rendering of joined query results.
pub fn canon_joined(results: &[amada_pattern::JoinedTuple]) -> Vec<String> {
    let mut v: Vec<String> = results
        .iter()
        .map(|t| {
            let uris: Vec<&str> = t.uris.iter().map(|u| u.as_ref()).collect();
            format!("{uris:?}|{:?}", t.columns)
        })
        .collect();
    v.sort();
    v
}
