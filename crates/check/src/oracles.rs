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
use amada_cloud::ObjectPredicate;
use amada_cloud::{
    DynamoConfig, DynamoDb, KvBackend, KvError, KvProfile, KvStore, KvTuning, SimTime, SimpleDb,
    SimpleDbConfig,
};
use amada_core::{Warehouse, WarehouseConfig, DOC_BUCKET};
use amada_index::lookup::query_paths;
use amada_index::store::{
    decode_id_lists, decode_id_postings, decode_path_lists, decode_presence_uris, encode_entry,
};
use amada_index::{
    decode_tuples, extract, index_documents, index_documents_mixed, key_frequencies, lookup_mixed,
    lookup_query, placed_item_keys, skew_aware_plan, ExtractOptions, MixedPlan, Payload, Placement,
    ScanPredicate, Strategy, UuidGen, TABLE_MAIN,
};
use amada_pattern::twig::evaluate_pattern_twig;
use amada_pattern::{join_pattern_results, naive_matches, parse_query, Query, TreePattern, Tuple};
use amada_xml::Document;
use std::collections::BTreeSet;
use std::fmt;
use std::sync::Arc;

/// One oracle violation: which oracle, and a self-contained account.
#[derive(Debug, Clone)]
pub struct Violation {
    /// Oracle name (`answers`, `containment`, `twig-vs-naive`,
    /// `round-trip`, `sharding`, `billing`, `isolation`).
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

    for backend in Backend::ALL {
        let candidates =
            strategy_candidates(&docs, &query, opts, backend, mutation).map_err(|e| {
                violation(
                    "answers",
                    format!("{} look-up failed: {e:?}", backend.name()),
                )
            })?;
        oracle_containment(backend, &query, &candidates)?;
        oracle_answers(backend, &docs, &query, &truth, &candidates)?;
        oracle_pushdown_answers(backend, case, &docs, &query, opts, &truth)?;
    }

    oracle_round_trip(&docs, opts)?;
    oracle_sharding(&docs, &query, opts)?;
    oracle_mixed(case, &query, opts)?;

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

/// The two backend profiles the paper experiments with.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Backend {
    Dynamo,
    Simple,
}

impl Backend {
    pub const ALL: [Backend; 2] = [Backend::Dynamo, Backend::Simple];

    fn name(self) -> &'static str {
        match self {
            Backend::Dynamo => "DynamoDB",
            Backend::Simple => "SimpleDB",
        }
    }

    fn store(self) -> Box<dyn KvStore> {
        let backend = match self {
            Backend::Dynamo => KvBackend::Dynamo(DynamoConfig::default()),
            Backend::Simple => KvBackend::Simple(SimpleDbConfig::default()),
        };
        backend.open(KvTuning::NONE)
    }
}

/// Per-pattern candidate URI sets, per strategy (Strategy::ALL order).
type Candidates = Vec<Vec<BTreeSet<String>>>;

fn strategy_candidates(
    docs: &[Document],
    query: &Query,
    opts: ExtractOptions,
    backend: Backend,
    mutation: Mutation,
) -> Result<Candidates, KvError> {
    let mut out = Vec::with_capacity(Strategy::ALL.len());
    for strategy in Strategy::ALL {
        let mut store = backend.store();
        index_documents(store.as_mut(), docs, strategy, opts);
        let per_pattern: Vec<BTreeSet<String>> =
            if strategy == Strategy::Lup && mutation == Mutation::SkipLupPathFilter {
                query
                    .patterns
                    .iter()
                    .map(|p| lup_candidates_without_path_filter(store.as_mut(), opts, p))
                    .collect::<Result<_, _>>()?
            } else {
                lookup_query(store.as_mut(), SimTime::ZERO, strategy, opts, query)?
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
    store: &mut dyn KvStore,
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
    backend: Backend,
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
                        backend.name(),
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
                    backend.name(),
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
// Oracle A — answers identical to the no-index scan
// ---------------------------------------------------------------------------

fn eval_pattern(docs: &[Document], only: Option<&BTreeSet<String>>, p: &TreePattern) -> Vec<Tuple> {
    docs.iter()
        .filter(|d| only.is_none_or(|set| set.contains(d.uri())))
        .flat_map(|d| naive_matches(d, p).0)
        .collect()
}

fn oracle_answers(
    backend: Backend,
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
                    backend.name(),
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
// Oracle A, strategy #5 — pushdown answers identical to the no-index scan
// ---------------------------------------------------------------------------

/// LUP-PD: candidates from the index under [`Strategy::LupPd`], residual
/// evaluation pushed to storage — each candidate is filtered by the
/// wire-round-tripped [`ScanPredicate`] (exactly what the simulated store
/// runs) and only the decoded tuples join. The answers must still equal
/// the no-index scan.
fn oracle_pushdown_answers(
    backend: Backend,
    case: &Case,
    docs: &[Document],
    query: &Query,
    opts: ExtractOptions,
    truth: &[String],
) -> Result<(), Violation> {
    let mut store = backend.store();
    index_documents(store.as_mut(), docs, Strategy::LupPd, opts);
    let lookup = lookup_query(store.as_mut(), SimTime::ZERO, Strategy::LupPd, opts, query)
        .map_err(|e| {
            violation(
                "answers",
                format!("{} LUP-PD look-up failed: {e:?}", backend.name()),
            )
        })?;
    let per_pattern: Vec<Vec<Tuple>> = query
        .patterns
        .iter()
        .zip(lookup.per_pattern)
        .map(|(p, outcome)| {
            let pred = ScanPredicate::from_wire(ScanPredicate::compile(p).wire())
                .expect("compiled predicates round-trip their wire form");
            let mut tuples = Vec::new();
            for uri in &outcome.uris {
                let (_, xml) = case
                    .docs
                    .iter()
                    .find(|(u, _)| **u == **uri)
                    .expect("candidate URIs come from the corpus");
                tuples.extend(
                    decode_tuples(&pred.filter(xml.as_bytes()), uri)
                        .expect("store-encoded scan results decode"),
                );
            }
            tuples
        })
        .collect();
    let answers = canon_joined(&join_pattern_results(query, &per_pattern));
    if answers != truth {
        return Err(violation(
            "answers",
            format!(
                "{} / LUP-PD: pushdown answers differ from the no-index scan\n  \
                 no-index: {truth:?}\n  LUP-PD: {answers:?}",
                backend.name(),
            ),
        ));
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
    // `VouchForKeptKeys`: every key the registry holds that the stored
    // version still has is recorded as holding that version's value, so
    // a value that changed is never written.
    let build = |w: &mut Warehouse| {
        if mutation == Mutation::DropRetractions {
            w.retraction_registry().borrow_mut().clear();
        }
        if mutation == Mutation::VouchForKeptKeys {
            let (registry, profile) = (w.retraction_registry(), w.world().kv.profile());
            let root = Some(Placement::root(strategy));
            for (uri, bytes) in w.world().s3.peek_all(DOC_BUCKET) {
                let mut registry = registry.borrow_mut();
                let Some(held) = registry.get_mut(&uri) else {
                    continue;
                };
                let doc = Document::parse(&*uri, &bytes).expect("uploaded documents parse");
                let entries = extract(&doc, strategy, w.config().extract);
                for (key, value) in placed_item_keys(&entries, root, &profile, &uri) {
                    held.items.entry(key).and_modify(|held| *held = Some(value));
                }
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
    let profiles = [DynamoDb::default().profile(), SimpleDb::default().profile()];
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
                                && decode_id_postings(&items, profile)
                                    .get(&*entry.uri)
                                    .is_some_and(|l| l.decode_all() == *ids)
                                && block_layer_agrees(ids)
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

/// The block layer over the same ID list agrees with the flat codec: a
/// [`BlockList`] built from the flat bytes, or from the self-anchored
/// chunks the store splits long lists into — the two formats look-ups
/// actually read — replays the list in full through its lazy cursor.
fn block_layer_agrees(ids: &[amada_xml::StructuralId]) -> bool {
    use amada_index::codec::{encode_ids, encode_ids_chunked, BlockList};
    let from_flat = match BlockList::from_flat(&encode_ids(ids)) {
        Some(l) => l,
        None => return false,
    };
    let chunks = encode_ids_chunked(ids, 64);
    let from_chunks = BlockList::from_chunks(chunks.iter().map(Vec::as_slice));
    for list in [&from_flat, &from_chunks] {
        if list.len() != ids.len() || list.decode_all() != ids {
            return false;
        }
        let mut cur = list.cursor();
        for &id in ids {
            if cur.peek() != Some(id) {
                return false;
            }
            cur.advance();
        }
        if cur.peek().is_some() {
            return false;
        }
    }
    true
}

// ---------------------------------------------------------------------------
// Oracle S — sharding is invisible to contents, bills and answers
// ---------------------------------------------------------------------------

/// Indexes the case twice on DynamoDB — unsharded vs. a skew-aware plan
/// derived from the case's own key frequencies — and demands identical
/// stored items, identical billed units, and identical look-up answers
/// with identical billed gets. Sharding may only move *waiting*, never
/// what is stored, answered or billed.
fn oracle_sharding(
    docs: &[Document],
    query: &Query,
    opts: ExtractOptions,
) -> Result<(), Violation> {
    let strategy = Strategy::Lup;
    let entries: Vec<_> = docs
        .iter()
        .flat_map(|d| extract(d, strategy, opts))
        .collect();
    let freqs = key_frequencies(&entries);
    if freqs.is_empty() {
        return Ok(());
    }
    let plan = skew_aware_plan(&freqs, 4, 2);

    let mut plain: Box<dyn KvStore> = Box::new(DynamoDb::default());
    index_documents(plain.as_mut(), docs, strategy, opts);
    let mut sharded: Box<dyn KvStore> = Box::new(DynamoDb::default());
    sharded.set_shard_plan(plan);
    index_documents(sharded.as_mut(), docs, strategy, opts);

    if plain.peek_all() != sharded.peek_all() {
        return Err(violation(
            "sharding",
            "sharded index contents differ from the unsharded build".to_string(),
        ));
    }
    if plain.stats() != sharded.stats() {
        return Err(violation(
            "sharding",
            format!(
                "sharded bills diverge: unsharded {:?} vs sharded {:?}",
                plain.stats(),
                sharded.stats()
            ),
        ));
    }

    let a = lookup_query(plain.as_mut(), SimTime::ZERO, strategy, opts, query)
        .map_err(|e| violation("sharding", format!("unsharded look-up failed: {e:?}")))?;
    let b = lookup_query(sharded.as_mut(), SimTime::ZERO, strategy, opts, query)
        .map_err(|e| violation("sharding", format!("sharded look-up failed: {e:?}")))?;
    if a.uris != b.uris {
        return Err(violation(
            "sharding",
            format!(
                "sharded answers diverge: unsharded {:?} vs sharded {:?}",
                a.uris, b.uris
            ),
        ));
    }
    if a.get_ops() != b.get_ops() {
        return Err(violation(
            "sharding",
            format!(
                "sharded look-up bills diverge: {} vs {} billed gets",
                a.get_ops(),
                b.get_ops()
            ),
        ));
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// Oracle M — a mixed plan ≡ its per-partition single-strategy parts
// ---------------------------------------------------------------------------

/// Re-homes the case's documents into three partitions (`hot/`, `cold/`
/// and the root), routes them with a plan that exercises all three plan
/// behaviors — an explicit heavy index (`hot` → 2LUPI), an explicit scan
/// (`cold` → index nothing) and the default (root → LUP) — and demands,
/// on both backends:
///
/// 1. the mixed look-up's per-pattern candidates equal the *union* of
///    each partition's own single-strategy look-up (scan partitions
///    contributing every document), and
/// 2. the answers evaluated over those candidates equal the no-index
///    scan of the re-homed corpus.
///
/// This is the correctness contract behind the adaptive advisor's plan
/// migrations: splitting a corpus across per-partition strategies must
/// never change what a query answers.
fn oracle_mixed(case: &Case, query: &Query, opts: ExtractOptions) -> Result<(), Violation> {
    const PARTS: [&str; 3] = ["hot", "cold", ""];
    let rehomed: Vec<Document> = case
        .docs
        .iter()
        .enumerate()
        .map(|(i, (uri, xml))| {
            let p = PARTS[i % PARTS.len()];
            let uri = if p.is_empty() {
                uri.clone()
            } else {
                format!("{p}/{uri}")
            };
            Document::parse_str(uri, xml).expect("re-homed case XML parses")
        })
        .collect();
    let plan = MixedPlan::uniform(Some(Strategy::Lup))
        .with("hot", Some(Strategy::TwoLupi))
        .with("cold", None);
    let corpus: Vec<Arc<str>> = rehomed.iter().map(|d| d.shared_uri().clone()).collect();

    // Truth: the no-index scan of the re-homed corpus.
    let truth_tuples: Vec<Vec<Tuple>> = query
        .patterns
        .iter()
        .map(|p| eval_pattern(&rehomed, None, p))
        .collect();
    let truth = canon_joined(&join_pattern_results(query, &truth_tuples));

    for backend in Backend::ALL {
        let mut store = backend.store();
        index_documents_mixed(store.as_mut(), &rehomed, &plan, opts);
        let catalog: std::collections::BTreeSet<String> = corpus
            .iter()
            .map(|u| amada_index::partition_of(u).to_string())
            .collect();
        // Fully indexed plans must answer from the catalog alone — the
        // warehouse skips the billed corpus LIST for them, so hand the
        // oracle's look-up the same inputs that path gets.
        let listing: &[Arc<str>] = if plan.fully_indexed() { &[] } else { &corpus };
        let mixed = lookup_mixed(
            store.as_mut(),
            SimTime::ZERO,
            &plan,
            opts,
            query,
            listing,
            &catalog,
        )
        .map_err(|e| {
            violation(
                "mixed",
                format!("{} mixed look-up failed: {e:?}", backend.name()),
            )
        })?;

        // Per-partition single-strategy look-ups, unioned.
        let mut unions: Vec<BTreeSet<String>> = vec![BTreeSet::new(); query.patterns.len()];
        for part in PARTS {
            let members: Vec<Document> = rehomed
                .iter()
                .filter(|d| amada_index::partition_of(d.uri()) == part)
                .cloned()
                .collect();
            if members.is_empty() {
                continue;
            }
            match plan.strategy_of(part) {
                Some(s) => {
                    let mut solo = backend.store();
                    index_documents(solo.as_mut(), &members, s, opts);
                    let lk = lookup_query(solo.as_mut(), SimTime::ZERO, s, opts, query).map_err(
                        |e| {
                            violation(
                                "mixed",
                                format!(
                                    "{} solo {} look-up failed for partition {part:?}: {e:?}",
                                    backend.name(),
                                    s.name()
                                ),
                            )
                        },
                    )?;
                    for (pi, o) in lk.per_pattern.into_iter().enumerate() {
                        unions[pi].extend(o.uris.iter().map(|u| u.to_string()));
                    }
                }
                None => {
                    for u in unions.iter_mut() {
                        u.extend(members.iter().map(|d| d.uri().to_string()));
                    }
                }
            }
        }
        for (pi, union) in unions.iter().enumerate() {
            let got: BTreeSet<String> = (mixed.per_pattern[pi].uris.iter())
                .map(|u| u.to_string())
                .collect();
            if &got != union {
                return Err(violation(
                    "mixed",
                    format!(
                        "{}, pattern {pi}: mixed candidates differ from the per-partition \
                         union\n  mixed: {got:?}\n  union: {union:?}",
                        backend.name(),
                    ),
                ));
            }
        }

        // Answers over the mixed candidates equal the no-index scan.
        let per_pattern: Vec<Vec<Tuple>> = query
            .patterns
            .iter()
            .zip(&mixed.per_pattern)
            .map(|(p, o)| {
                let set: BTreeSet<String> = o.uris.iter().map(|u| u.to_string()).collect();
                eval_pattern(&rehomed, Some(&set), p)
            })
            .collect();
        let answers = canon_joined(&join_pattern_results(query, &per_pattern));
        if answers != truth {
            return Err(violation(
                "mixed",
                format!(
                    "{}: mixed-plan answers differ from the no-index scan\n  \
                     no-index: {truth:?}\n  mixed: {answers:?}",
                    backend.name(),
                ),
            ));
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
