//! Per-partition strategy routing — the physical layer under an
//! operator-chosen mixed plan.
//!
//! The paper picks *one* of LU/LUP/LUI/2LUPI for the whole corpus.
//! Production workloads are heterogeneous: a hot, selectively-queried
//! partition wants the ID-granularity index, a cold scan-heavy partition
//! wants the cheapest path index — or no index at all. A [`MixedPlan`]
//! assigns every *partition* (the URI's directory prefix) its own
//! strategy, or `None` for "index nothing, scan", and answers the one
//! routing question — which strategy indexes this document, into whose
//! tables — as a [`Placement`] ([`MixedPlan::placement`]).
//!
//! Physically, each indexed partition owns its own tables —
//! `amada-index@hot`, `amada-index-path@hot`, … — named from the global
//! table constants by [`Placement::table`]. Separate tables are not an
//! implementation convenience: LU, LUP and LUI all write the *same* main
//! table with incompatible payload encodings, so two partitions on
//! different single-table strategies must not share it; and per-table
//! stats give per-partition storage accounting for free. Table names stay
//! `&'static str` (the type every store API and [`crate::ItemKey`] use)
//! via a process-wide interner.
//!
//! Look-ups under a mixed plan union per-partition look-ups: each indexed
//! partition answers with its own strategy against its own tables, and
//! every document of an unindexed partition is a candidate (the no-index
//! scan, scoped to that partition). [`lookup_mixed`] returns the same
//! [`QueryLookup`] shape as the single-strategy path, so everything
//! downstream (fetch, evaluate, join, bill) is unchanged.
//!
//! The paper's own layout is the **flat** plan ([`MixedPlan::flat`]): one
//! strategy (or none) for the whole corpus, every URI placed in the root
//! partition's global tables *whatever its prefix*. That is not
//! [`MixedPlan::uniform`], which gives `hot/doc.xml` its own
//! `amada-index@hot` tables. The warehouse always runs under a plan; it
//! starts under the flat one of its configured strategy.
//!
//! LUP-PD is deliberately not routable per partition: its *fetch* side
//! (storage-side scans instead of GETs) is a per-query-core decision, so
//! only a flat plan may carry it.

use crate::loadutil::{write_entries, DocIndexing, WriteSet};
use crate::lookup::{lookup_pattern_in, LookupOutcome, QueryLookup};
use crate::strategy::{extract, ExtractOptions, Strategy};
use amada_cloud::{KvError, KvStore, SimTime};
use amada_pattern::Query;
use amada_xml::Document;
use std::collections::{BTreeMap, BTreeSet};
use std::sync::{Arc, Mutex, OnceLock};

/// The partition a document belongs to: its URI's directory prefix
/// (`hot/doc3.xml` → `hot`), or the root partition `""` for a bare name.
/// Deterministic and derivable from the URI alone, so the loader, the
/// query processor and host-side retraction replay all agree without
/// consulting any shared state.
pub fn partition_of(uri: &str) -> &str {
    uri.split_once('/').map_or("", |(p, _)| p)
}

/// Interns a table name, returning the `&'static str` every store API
/// expects. Idempotent: the same name always returns the same pointer.
fn interned(name: String) -> &'static str {
    static POOL: OnceLock<Mutex<BTreeSet<&'static str>>> = OnceLock::new();
    let mut pool = POOL
        .get_or_init(|| Mutex::new(BTreeSet::new()))
        .lock()
        .expect("table interner poisoned");
    if let Some(&s) = pool.get(name.as_str()) {
        return s;
    }
    let leaked: &'static str = Box::leak(name.into_boxed_str());
    pool.insert(leaked);
    leaked
}

/// Where a plan puts one document: the strategy that indexes it and the
/// partition whose tables hold its entries. Everything that routes —
/// the loader's writes, the front end's key replay, a look-up, a
/// migration's "did this document move" — routes by this pair.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Placement<'a> {
    /// The strategy that extracts and looks up the document.
    pub strategy: Strategy,
    /// The partition whose tables hold its entries (`""`: the root).
    pub partition: &'a str,
}

impl Placement<'_> {
    /// The paper's placement: `strategy` over the global tables.
    pub const fn root(strategy: Strategy) -> Placement<'static> {
        Placement {
            strategy,
            partition: "",
        }
    }

    /// The physical table behind a global one: `amada-index@hot` for
    /// `amada-index` in partition `hot`. The root partition keeps the
    /// global name, so a plan that assigns only the root partition is
    /// physically identical to the paper's single-strategy layout.
    pub fn table(&self, base: &'static str) -> &'static str {
        if self.partition.is_empty() {
            base
        } else {
            interned(format!("{base}@{}", self.partition))
        }
    }
}

/// A per-partition strategy assignment: named partitions map to a
/// strategy or to `None` ("index nothing, scan"); unnamed partitions fall
/// back to the plan's default.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MixedPlan {
    assignments: BTreeMap<String, Option<Strategy>>,
    default: Option<Strategy>,
    /// A flat plan has one partition: URI prefixes do not route.
    flat: bool,
}

impl MixedPlan {
    /// A plan whose every partition uses `default`, each in its own
    /// tables.
    pub fn uniform(default: Option<Strategy>) -> MixedPlan {
        assert_ne!(
            default,
            Some(Strategy::LupPd),
            "LUP-PD is a per-query-core fetch strategy, not routable per partition"
        );
        MixedPlan {
            assignments: BTreeMap::new(),
            default,
            flat: false,
        }
    }

    /// The paper's layout: the whole corpus in the root partition's
    /// global tables under one `strategy` — `None` indexes nothing, so
    /// every query scans the corpus (the no-index baseline).
    pub fn flat(strategy: Option<Strategy>) -> MixedPlan {
        MixedPlan {
            assignments: BTreeMap::new(),
            default: strategy,
            flat: true,
        }
    }

    /// The partition this plan routes a document to: its URI's directory
    /// prefix, or always the root partition under a flat plan.
    pub fn partition_of<'a>(&self, uri: &'a str) -> &'a str {
        if self.flat {
            ""
        } else {
            partition_of(uri)
        }
    }

    /// Where this plan puts a document; `None` when it indexes nothing
    /// for it (the document's partition is scanned).
    pub fn placement<'a>(&self, uri: &'a str) -> Option<Placement<'a>> {
        let partition = self.partition_of(uri);
        let strategy = self.strategy_of(partition)?;
        Some(Placement {
            strategy,
            partition,
        })
    }

    /// Assigns a partition its strategy (builder form).
    pub fn with(mut self, partition: &str, strategy: Option<Strategy>) -> MixedPlan {
        self.assign(partition, strategy);
        self
    }

    /// Assigns a partition its strategy.
    pub fn assign(&mut self, partition: &str, strategy: Option<Strategy>) {
        assert!(!self.flat, "a flat plan has no partitions to assign");
        assert_ne!(
            strategy,
            Some(Strategy::LupPd),
            "LUP-PD is a per-query-core fetch strategy, not routable per partition"
        );
        self.assignments.insert(partition.to_string(), strategy);
    }

    /// The strategy of a partition.
    pub fn strategy_of(&self, partition: &str) -> Option<Strategy> {
        self.assignments
            .get(partition)
            .copied()
            .unwrap_or(self.default)
    }

    /// The default strategy of unnamed partitions.
    pub fn default_strategy(&self) -> Option<Strategy> {
        self.default
    }

    /// The named partition assignments, in partition order.
    pub fn assignments(&self) -> &BTreeMap<String, Option<Strategy>> {
        &self.assignments
    }

    /// Whether every route — named partitions and the default — carries
    /// an index. A fully indexed plan can never send a query to the scan
    /// path, so look-ups need no corpus listing to scope scan partitions.
    pub fn fully_indexed(&self) -> bool {
        self.default.is_some() && self.assignments.values().all(Option::is_some)
    }

    /// The distinct strategies any partition indexes with (for cache
    /// prewarming); empty when the plan indexes nothing.
    pub fn indexed_strategies(&self) -> BTreeSet<Strategy> {
        self.assignments
            .values()
            .copied()
            .chain([self.default])
            .flatten()
            .collect()
    }
}

/// Indexes a document set under a routing plan, sequentially (host-side
/// convenience for the oracles and tests; the warehouse's loader pool
/// places each document the same way and bursts its writes). Documents
/// the plan indexes nothing for contribute nothing to the store.
pub fn index_documents_mixed(
    store: &mut dyn KvStore,
    docs: &[Document],
    plan: &MixedPlan,
    opts: ExtractOptions,
) -> DocIndexing {
    let mut total = DocIndexing::default();
    let mut t = SimTime::ZERO;
    for d in docs {
        let Some(placement) = plan.placement(d.uri()) else {
            continue;
        };
        let entries = extract(d, placement.strategy, opts);
        let set = WriteSet::encode(&entries, &store.profile(), d.uri());
        let (m, ready) =
            write_entries(store, t, placement, &set).expect("mixed indexing must succeed");
        t = ready;
        total.entries += m.entries;
        total.items += m.items;
        total.batches += m.batches;
    }
    total
}

/// Indexes a document set the paper's way — one strategy, the global
/// tables: [`index_documents_mixed`] under the flat plan.
pub fn index_documents(
    store: &mut dyn KvStore,
    docs: &[Document],
    strategy: Strategy,
    opts: ExtractOptions,
) -> DocIndexing {
    index_documents_mixed(store, docs, &MixedPlan::flat(Some(strategy)), opts)
}

/// One pattern's fan-out, merged. Partitions are independent tables, so
/// their look-ups for one pattern are issued *concurrently* in virtual
/// time: every one of `answers` started at `start`, and the pattern is
/// ready when the slowest responds (round-trip latencies overlap; only
/// the per-request service overheads serialise through the shared front
/// door). Billed gets and processed entries sum; the candidates are the
/// `scanned` partitions' documents — candidates for every pattern, the
/// no-index scan scoped to those partitions — and every answer's, sorted.
/// The first answer that failed fails the fan-out.
fn merge_fan_out<E>(
    start: SimTime,
    scanned: &[Arc<str>],
    answers: impl IntoIterator<Item = Result<LookupOutcome, E>>,
) -> Result<LookupOutcome, E> {
    let mut merged = LookupOutcome {
        uris: scanned.to_vec(),
        ready_at: start,
        ..Default::default()
    };
    for answer in answers {
        let answer = answer?;
        merged.ready_at = merged.ready_at.max(answer.ready_at);
        merged.entries_processed += answer.entries_processed;
        merged.get_ops += answer.get_ops;
        merged.uris.extend(answer.uris);
    }
    // One sorted source (the flat plan, a whole-corpus scan) is already
    // in order, which makes this a linear pass.
    merged.uris.sort_unstable();
    merged.uris.dedup();
    Ok(merged)
}

/// Looks up a full query under a routing plan — the one look-up entry
/// point: a flat plan is the paper's single-strategy look-up over the
/// global tables ([`crate::lookup_query`]), a plan that indexes nothing
/// issues no store call at all. Each indexed partition answers with its
/// own placement and every pattern's answers are merged by
/// [`merge_fan_out`]; each pattern starts when the one before it is
/// ready. `corpus_uris` is the document
/// listing; it determines which documents the scan partitions
/// contribute. `catalog` names the partitions the front end knows exist
/// without consulting the listing — the warehouse's own upload records,
/// free host-side metadata like the plan itself. A fully indexed plan
/// places every document under an index and never needs the
/// per-document listing, so its caller can pass an empty `corpus_uris`
/// (skipping the billed LIST) as long as the catalog covers every
/// partition that holds documents; a plan with scan partitions still
/// needs the listing to enumerate their documents.
pub fn lookup_mixed(
    store: &mut dyn KvStore,
    now: SimTime,
    plan: &MixedPlan,
    opts: ExtractOptions,
    query: &Query,
    corpus_uris: &[Arc<str>],
    catalog: &BTreeSet<String>,
) -> Result<QueryLookup, KvError> {
    // Catalog partitions exist even when the listing (or their slice of
    // it) is empty; a listed document is placed or scanned.
    let mut indexed: BTreeMap<&str, Placement<'_>> = BTreeMap::new();
    for partition in catalog {
        if let Some(strategy) = plan.strategy_of(partition) {
            let placement = Placement {
                strategy,
                partition,
            };
            indexed.insert(partition, placement);
        }
    }
    let mut scanned: Vec<Arc<str>> = Vec::new();
    for uri in corpus_uris {
        match plan.placement(uri) {
            Some(placement) => {
                indexed.insert(placement.partition, placement);
            }
            None => scanned.push(uri.clone()),
        }
    }
    // A partition's tables may be empty (nothing indexed yet) but must
    // exist for the look-up to run.
    for placement in indexed.values() {
        for base in placement.strategy.tables() {
            store.ensure_table(placement.table(base));
        }
    }

    let mut per_pattern = Vec::with_capacity(query.patterns.len());
    let mut t = now;
    for p in &query.patterns {
        let answers = indexed
            .values()
            .map(|&placement| lookup_pattern_in(store, t, placement, opts, p));
        let merged = merge_fan_out(t, &scanned, answers)?;
        t = merged.ready_at;
        per_pattern.push(merged);
    }
    Ok(QueryLookup::of(per_pattern))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::strategy::{TABLE_MAIN, TABLE_PATH};
    use amada_cloud::DynamoDb;
    use amada_pattern::parse_query;

    fn docs() -> Vec<Document> {
        [
            ("hot/a.xml", "<painting><name>Lion Hunt</name></painting>"),
            ("hot/b.xml", "<painting><name>Tiger Hunt</name></painting>"),
            ("cold/c.xml", "<sculpture><name>Lion</name></sculpture>"),
            ("d.xml", "<painting><name>Raft</name></painting>"),
        ]
        .into_iter()
        .map(|(u, x)| Document::parse_str(u, x).unwrap())
        .collect()
    }

    #[test]
    fn partition_is_the_directory_prefix() {
        assert_eq!(partition_of("hot/a.xml"), "hot");
        assert_eq!(partition_of("hot/sub/a.xml"), "hot");
        assert_eq!(partition_of("a.xml"), "");
    }

    #[test]
    fn partition_tables_intern_to_stable_statics() {
        let hot = Placement {
            strategy: Strategy::TwoLupi,
            partition: "hot",
        };
        let (a, b) = (hot.table(TABLE_MAIN), hot.table(TABLE_MAIN));
        assert_eq!(a, "amada-index@hot");
        assert!(std::ptr::eq(a, b), "same partition, same static");
        assert_eq!(hot.table(TABLE_PATH), "amada-index-path@hot");
        // The root partition keeps the paper's global layout.
        let root = Placement::root(Strategy::Lu);
        assert!(std::ptr::eq(root.table(TABLE_MAIN), TABLE_MAIN));
    }

    #[test]
    fn plans_route_by_partition_with_a_default() {
        let plan = MixedPlan::uniform(Some(Strategy::Lup))
            .with("hot", Some(Strategy::TwoLupi))
            .with("cold", None);
        let route = |plan: &MixedPlan, uri| plan.placement(uri).map(|p| p.strategy);
        assert_eq!(route(&plan, "hot/a.xml"), Some(Strategy::TwoLupi));
        assert_eq!(route(&plan, "cold/c.xml"), None);
        assert_eq!(route(&plan, "d.xml"), Some(Strategy::Lup));
        assert_eq!(route(&plan, "other/e.xml"), Some(Strategy::Lup));
        assert_eq!(
            plan.indexed_strategies(),
            BTreeSet::from([Strategy::Lup, Strategy::TwoLupi])
        );
        // A flat plan ignores prefixes; a uniform one does not.
        let flat = MixedPlan::flat(Some(Strategy::Lup));
        assert_eq!(flat.partition_of("hot/a.xml"), "");
        assert_eq!(
            flat.placement("hot/a.xml"),
            Some(Placement::root(Strategy::Lup))
        );
        let uniform = MixedPlan::uniform(Some(Strategy::Lup));
        assert_eq!(uniform.partition_of("hot/a.xml"), "hot");
        assert_eq!(uniform.placement("hot/a.xml").unwrap().partition, "hot");
        assert_ne!(flat, uniform);
    }

    #[test]
    #[should_panic(expected = "LUP-PD")]
    fn pushdown_is_not_routable() {
        let _ = MixedPlan::uniform(None).with("hot", Some(Strategy::LupPd));
    }

    #[test]
    fn mixed_lookup_unions_indexed_partitions_and_scan_partitions() {
        let docs = docs();
        let plan = MixedPlan::uniform(Some(Strategy::Lu))
            .with("hot", Some(Strategy::TwoLupi))
            .with("cold", None);
        let mut store = DynamoDb::default();
        let m = index_documents_mixed(&mut store, &docs, &plan, ExtractOptions::default());
        assert!(m.items > 0);
        // Entries landed in partition tables, not the global ones for
        // the named partitions.
        let tables: BTreeSet<String> = store.peek_all().into_iter().map(|(t, _)| t).collect();
        assert!(tables.contains("amada-index-path@hot"), "{tables:?}");
        assert!(tables.contains("amada-index"), "root partition: {tables:?}");
        assert!(!tables.iter().any(|t| t.contains("@cold")), "{tables:?}");

        let corpus: Vec<Arc<str>> = docs.iter().map(|d| d.shared_uri().clone()).collect();
        let q = parse_query("//painting[/name{contains(Hunt)}]").unwrap();
        let lookup = lookup_mixed(
            &mut store,
            SimTime::ZERO,
            &plan,
            ExtractOptions::default(),
            &q,
            &corpus,
            &BTreeSet::new(),
        )
        .unwrap();
        // The hot partition answers precisely; the cold partition's doc
        // is a scan candidate regardless of content; the root partition's
        // LU index contributes nothing for a non-matching doc... but LU
        // keys only prune per-key, so d.xml (painting+name, no "hunt"
        // word match) is pruned by the word key.
        assert_eq!(
            lookup.uris,
            ["cold/c.xml".into(), "hot/a.xml".into(), "hot/b.xml".into()],
            "per-partition union"
        );
        assert!(lookup.get_ops() > 0);
    }

    #[test]
    fn mixed_lookup_fans_partitions_out_concurrently() {
        // Three indexed partitions answer one pattern. Their round-trip
        // latencies overlap, so the three-partition plan's ready time must
        // be far below three chained single-partition look-ups — only the
        // per-request service overheads serialise.
        let docs: Vec<Document> = [
            ("a/x.xml", "<painting><name>Lion Hunt</name></painting>"),
            ("b/y.xml", "<painting><name>Tiger Hunt</name></painting>"),
            ("c/z.xml", "<painting><name>Raft</name></painting>"),
        ]
        .into_iter()
        .map(|(u, x)| Document::parse_str(u, x).unwrap())
        .collect();
        let opts = ExtractOptions::default();
        let q = parse_query("//painting[/name]").unwrap();
        let corpus: Vec<Arc<str>> = docs.iter().map(|d| d.shared_uri().clone()).collect();

        let plan = MixedPlan::uniform(Some(Strategy::Lu));
        let mut store = DynamoDb::default();
        index_documents_mixed(&mut store, &docs, &plan, opts);
        let fanned = lookup_mixed(
            &mut store,
            SimTime::ZERO,
            &plan,
            opts,
            &q,
            &corpus,
            &BTreeSet::new(),
        )
        .unwrap();

        let solo_docs = vec![docs[0].clone()];
        let solo_corpus = vec![corpus[0].clone()];
        let mut solo_store = DynamoDb::default();
        index_documents_mixed(&mut solo_store, &solo_docs, &plan, opts);
        let solo = lookup_mixed(
            &mut solo_store,
            SimTime::ZERO,
            &plan,
            opts,
            &q,
            &solo_corpus,
            &BTreeSet::new(),
        )
        .unwrap();

        let fanned_at = fanned.per_pattern[0].ready_at;
        let solo_at = solo.per_pattern[0].ready_at;
        assert!(fanned_at >= solo_at, "three partitions cannot beat one");
        // Well under 2x a single partition (chaining would be ~3x).
        assert!(
            fanned_at.micros() < 2 * solo_at.micros(),
            "fan-out must overlap latencies: {} vs solo {}",
            fanned_at.micros(),
            solo_at.micros()
        );
    }

    #[test]
    fn mixed_lookup_on_a_uniform_root_plan_matches_the_single_strategy_path() {
        let docs: Vec<Document> = [
            ("a.xml", "<painting><name>Lion Hunt</name></painting>"),
            ("b.xml", "<sculpture><name>Lion</name></sculpture>"),
        ]
        .into_iter()
        .map(|(u, x)| Document::parse_str(u, x).unwrap())
        .collect();
        let opts = ExtractOptions::default();
        for strategy in Strategy::ALL {
            let plan = MixedPlan::uniform(Some(strategy));
            let mut mixed = DynamoDb::default();
            index_documents_mixed(&mut mixed, &docs, &plan, opts);
            let mut plain = DynamoDb::default();
            index_documents(&mut plain, &docs, strategy, opts);
            assert_eq!(mixed.peek_all(), plain.peek_all(), "{strategy:?}");

            let corpus: Vec<Arc<str>> = docs.iter().map(|d| d.shared_uri().clone()).collect();
            let q = parse_query("//painting[/name]").unwrap();
            let a = lookup_mixed(
                &mut mixed,
                SimTime::ZERO,
                &plan,
                opts,
                &q,
                &corpus,
                &BTreeSet::new(),
            )
            .unwrap();
            let b = crate::lookup_query(&mut plain, SimTime::ZERO, strategy, opts, &q).unwrap();
            assert_eq!(a.uris, b.uris, "{strategy:?}");
            assert_eq!(a.get_ops(), b.get_ops(), "{strategy:?}");
        }
    }
}
