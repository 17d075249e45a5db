//! The index advisor — the paper's stated future work ("the development of
//! a platform and index advisor tool, which based on the expected dataset
//! and workload, estimates an application's performance and cost and picks
//! the best indexing strategy to use", Section 9), driven by live
//! attribution.
//!
//! One estimator scores an arbitrary [`MixedPlan`] — every partition its
//! own strategy, or none; the paper's single-strategy deployment is the
//! plan with one partition — **without running a deployment**:
//!
//! * exact operation counts come from *host-side micro-execution* — the
//!   candidate plan's index is actually built into a scratch index
//!   store — the deployment's own backend and tuning, opened as
//!   [`crate::Warehouse::new`] opens it — with
//!   [`index-layer write path`](amada_index::partition)
//!   semantics, and each workload query is actually looked up against it,
//!   so `|op(D, I)|`, `|op(q, D, I)|`, `s(D, I)`, `|D_q|` and `|r(q)|`
//!   are measured, not guessed;
//! * virtual durations come from the same service-time and
//!   [`WorkModel`](amada_cloud::WorkModel) conversions the simulated
//!   warehouse charges, serialized on one core and divided across the
//!   configured pool;
//! * money comes from the Section 7.3 formulas ([`CostModel`]);
//! * the *workload* — which queries run, how often, against which
//!   partitions — comes from live [`Attribution`] data recorded by the
//!   running warehouse ([`observed_families`]), so the advisor adapts as
//!   traffic drifts.
//!
//! What micro-execution deliberately leaves out: queue contention between
//! pool cores, SQS round-trip latencies, and commit-path retries. Those
//! are second-order for cost (the bill is dominated by operation counts
//! and compute time, both exact here), which is why the estimates carry a
//! stated tolerance — [`ESTIMATE_TOLERANCE`] — against measured
//! deployments, pinned by this module's tests.
//!
//! The planner ([`advise_adaptive`]) searches per-partition assignments
//! (exhaustively for few partitions, coordinate descent beyond that),
//! always including the five uniform layouts, and enforces the declared
//! constraints: a monthly storage **budget** and an optional mean
//! **response SLO**. The cheapest plan over the horizon that satisfies
//! both wins; an unmeetable constraint set degrades toward "index
//! nothing" deterministically. [`crate::Warehouse::apply_plan`] then
//! migrates a live deployment to the chosen plan incrementally. The
//! paper's own question — which one strategy, if any — is the same call
//! over a sample with one partition; a cold or heavily churning workload
//! is honestly advised not to index at all.

use crate::config::WarehouseConfig;
use crate::cost::CostModel;
use crate::metrics::result_payload;
use amada_cloud::{KvError, KvStore, Money, SimDuration, SimTime, S3};
use amada_index::{
    extract, lookup_pattern_in, merge_fan_out, partition_of, placed_item_keys, write_entries,
    LookupOutcome, MixedPlan, Placement, QueryLookup, Strategy,
};
use amada_obs::Attribution;
use amada_pattern::{evaluate_pattern_twig, join_pattern_results, Query, Tuple};
use amada_xml::{Document, XmlError};
use std::cell::RefCell;
use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::rc::Rc;
use std::sync::Arc;

/// Stated relative tolerance of the micro-execution estimates against a
/// measured deployment: build-phase, per-run and maintenance costs each
/// agree within this fraction (storage agrees near-exactly — both sides
/// count the same stored bytes). The maintenance bound holds once a churn
/// round replaces at least as many documents as the loader pool has
/// cores: a deployment bills every loader instance for the whole rebuild
/// phase, the estimate a perfectly balanced pool, so a smaller round is
/// under-estimated. `estimates_track_measured_deployments` pins both
/// sides of that regime.
pub const ESTIMATE_TOLERANCE: f64 = 0.20;

/// Why the advisor could not price a sample. Every micro-execution must
/// succeed for a ranking to mean anything: a candidate that could not be
/// priced fails the request, it is never a silently cheaper plan.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AdviseError {
    /// The sample document at this URI is not well-formed XML.
    Parse(String, XmlError),
    /// The stored object at this URI is not UTF-8 text.
    NotUtf8(String),
    /// The index store rejected the entries of the sample document at
    /// this URI (a key or an item over the deployment's store limits).
    Store(String, KvError),
    /// The index store rejected the look-up of the query of this name.
    Lookup(String, KvError),
}

impl std::fmt::Display for AdviseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::Parse(uri, error) => write!(f, "document {uri} does not parse: {error}"),
            Self::NotUtf8(uri) => write!(f, "stored object {uri} is not UTF-8"),
            Self::Store(uri, error) => write!(f, "document {uri} cannot be indexed: {error}"),
            Self::Lookup(query, error) => write!(f, "query {query} cannot be looked up: {error}"),
        }
    }
}

impl std::error::Error for AdviseError {}

/// One query family's observed load: the query and how many arrivals per
/// observation window the attribution stream recorded for it.
#[derive(Debug, Clone)]
pub struct FamilyLoad {
    /// The query (from the workload catalog).
    pub query: Query,
    /// Arrivals per window (each one costs a full execution per run).
    pub arrivals: u64,
}

/// Distills recorded attribution into per-family load: open-loop arrival
/// names collapse onto their base query
/// ([`Attribution::query_families`]), and each family is matched to the
/// catalog query of the same name. Families with no catalog entry are
/// skipped (the advisor cannot re-plan a query it cannot parse); catalog
/// queries with no observed arrivals simply carry no weight.
pub fn observed_families(attr: &Attribution, catalog: &[Query]) -> Vec<FamilyLoad> {
    attr.query_families()
        .into_iter()
        .filter_map(|(name, fc)| {
            let query = catalog.iter().find(|q| q.name.as_deref() == Some(&name))?;
            Some(FamilyLoad {
                query: query.clone(),
                arrivals: fc.arrivals,
            })
        })
        .collect()
}

/// One partition's declared churn per workload run — traffic, like
/// [`FamilyLoad::arrivals`], not a knob.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Churn {
    /// Documents replaced.
    pub documents: u64,
    /// The share of a replaced version's index items its next version
    /// holds no key for, `0.0..=1.0`: a range key names its entry, so only
    /// these are billed a delete.
    pub dropped: f64,
    /// The share of the next version's items a rebuild writes (new key or
    /// changed value; the rest is not billed), in [`Strategy::ALL`] order.
    pub rewritten: [f64; 4],
}

impl Churn {
    /// Measures both over `(uri, replaced xml, next xml)` versions. A key is
    /// kept or dropped whatever a strategy stores under it, so the presence
    /// index's keys stand for every strategy's `dropped` — but not for
    /// `rewritten`: what is stored under a kept key decides that.
    pub fn measured<'a>(
        documents: u64,
        versions: impl IntoIterator<Item = (&'a str, &'a str, &'a str)>,
        base: &WarehouseConfig,
    ) -> Result<Churn, AdviseError> {
        let profile = base.backend.clone().open(base.kv_tuning).profile();
        let (mut dropped, mut held) = (0usize, 0usize);
        let (mut written, mut stored) = ([0usize; 4], [0usize; 4]);
        for (uri, replaced, next) in versions {
            let parse = |xml| {
                Document::parse_str(uri, xml).map_err(|e| AdviseError::Parse(uri.to_string(), e))
            };
            let (replaced, next) = (parse(replaced)?, parse(next)?);
            for (at, strategy) in Strategy::ALL.into_iter().enumerate() {
                let items = |doc| -> HashMap<_, _> {
                    let entries = extract(doc, strategy, base.extract);
                    HashMap::from_iter(placed_item_keys(&entries, None, &profile, uri))
                };
                let (old, new) = (items(&replaced), items(&next));
                written[at] += new.iter().filter(|(k, v)| old.get(*k) != Some(*v)).count();
                stored[at] += new.len();
                if strategy == Strategy::Lu {
                    dropped += old.keys().filter(|k| !new.contains_key(*k)).count();
                    held += old.len();
                }
            }
        }
        let share = |part: usize, of: usize| part as f64 / of.max(1) as f64;
        Ok(Churn {
            documents,
            dropped: share(dropped, held),
            rewritten: std::array::from_fn(|at| share(written[at], stored[at])),
        })
    }
}

/// The projection horizon and the operator's constraints.
#[derive(Debug, Clone, Copy)]
pub struct Horizon {
    /// Workload runs expected over the horizon (each run executes every
    /// family `arrivals` times).
    pub expected_runs: u32,
    /// Storage horizon in months.
    pub months: f64,
    /// Monthly storage ceiling (file store + index store), if declared.
    pub budget_per_month: Option<Money>,
    /// Mean-response ceiling in seconds, if declared. Without it the
    /// dollars-optimal plan can be an index-nothing layout whose queries
    /// scan whole partitions — cheap (no index storage, churn-free
    /// maintenance) but orders of magnitude slower. The SLO excludes
    /// such plans: the advisor recommends the cheapest candidate whose
    /// *estimated* arrival-weighted mean response stays at or under the
    /// ceiling.
    pub response_slo: Option<f64>,
}

/// Cost projection for one candidate plan.
#[derive(Debug, Clone)]
pub struct PlanEstimate {
    /// The plan.
    pub plan: MixedPlan,
    /// Human-readable assignment, e.g. `hot=2LUPI,cold=scan,/=LUP`
    /// (uniform plans render as `uniform:LUP`, flat ones as `flat:LUP`).
    /// Doubles as the deterministic tie-break key.
    pub label: String,
    /// Build-phase bill (`ci$` minus the upload term every candidate pays
    /// identically): index puts, document fetches, loader compute, task
    /// messaging.
    pub build_cost: Money,
    /// Monthly storage (file store + index store).
    pub storage_per_month: Money,
    /// One workload run: every family, weighted by its arrivals.
    pub run_cost: Money,
    /// Index get operations one workload run issues.
    pub index_get_ops: u64,
    /// Size of the result object one execution of each workload family
    /// materializes (`|r(q)|`), in workload order.
    pub result_bytes: Vec<u64>,
    /// Index maintenance per run at the declared churn: stale-entry
    /// retraction plus re-indexing of the replaced documents. Unindexed
    /// partitions churn free.
    pub maintenance_per_run: Money,
    /// Arrival-weighted mean response time (seconds).
    pub mean_response_secs: f64,
    /// `build + runs × (run + maintenance) + months × storage`.
    pub projected_total: Money,
}

impl PlanEstimate {
    /// Whether the plan's monthly storage fits a budget.
    pub fn within_budget(&self, budget: Money) -> bool {
        self.storage_per_month <= budget
    }

    /// Whether the plan's estimated mean response meets a declared SLO.
    pub fn meets_slo(&self, slo_secs: f64) -> bool {
        self.mean_response_secs <= slo_secs
    }

    /// Whether the plan satisfies every constraint the horizon declares.
    pub fn satisfies(&self, horizon: &Horizon) -> bool {
        horizon
            .budget_per_month
            .is_none_or(|b| self.within_budget(b))
            && horizon.response_slo.is_none_or(|s| self.meets_slo(s))
    }
}

/// The adaptive advisor's output.
#[derive(Debug, Clone)]
pub struct AdaptiveAdvice {
    /// The recommended plan: cheapest over the horizon among candidates
    /// whose monthly storage fits the budget (the overall cheapest when no
    /// budget is declared).
    pub chosen: PlanEstimate,
    /// The five uniform layouts plus the best mixed plan, ranked by
    /// ascending projected total (ties in label order) — the
    /// adaptive-vs-static comparison table.
    pub ranked: Vec<PlanEstimate>,
    /// The declared budget, echoed.
    pub budget_per_month: Option<Money>,
    /// Whether `chosen` actually satisfies every declared constraint
    /// (monthly budget and response SLO). `false` when no searched plan
    /// fits them all — the advisor then recommends the minimal-storage
    /// layout anyway and reports the miss.
    pub budget_met: bool,
}

/// Per-partition strategy candidates, in documented tie-break order:
/// cheapest-to-store first within the indexed ones, "index nothing" last
/// so equal-cost ties prefer the simpler indexed layout only when it
/// actually pays.
const PARTITION_CANDIDATES: [Option<Strategy>; 5] = [
    Some(Strategy::Lu),
    Some(Strategy::Lup),
    Some(Strategy::Lui),
    Some(Strategy::TwoLupi),
    None,
];

fn strategy_label(s: Option<Strategy>) -> &'static str {
    s.map_or("scan", Strategy::name)
}

/// The flat fallback strategy for partitions outside the sample: the
/// deployment's configured strategy, with the non-routable pushdown
/// variant degraded to its underlying LUP layout.
fn routable_default(base: &WarehouseConfig) -> Strategy {
    match base.strategy {
        Strategy::LupPd => Strategy::Lup,
        s => s,
    }
}

/// One partition's micro-build under one strategy (or none): its own
/// scratch store and the loader-side numbers every candidate plan that
/// makes this `(partition, strategy)` choice shares. Candidates are
/// *combinations* of these pairs — with `P` partitions and `S` strategy
/// options the search scores `S^P` plans but only ever performs `P × S`
/// builds, because index tables are per-partition (entries are
/// retargeted), so a partition's build and look-ups are identical in
/// every plan that assigns it the same strategy.
struct PartitionBuild {
    /// The partition's own scratch index (empty for "scan").
    kv: RefCell<Box<dyn KvStore>>,
    /// Virtual end of the build — look-ups start here.
    built_at: SimTime,
    /// Index put operations.
    puts: u64,
    /// Bytes stored in the partition's index tables.
    stored_bytes: u64,
    /// Loader serial time (fetch + parse + extract + write) for the
    /// partition's documents.
    serial: SimDuration,
    /// Per-document `(index puts, loader serial)`, for the churn math.
    per_doc: BTreeMap<String, (u64, SimDuration)>,
}

/// The scenario state every plan scored against it shares: parsed sample
/// documents, the partition each one routes to, their micro-measured
/// fetch latencies, the cost model, and the memoized
/// per-`(partition, strategy)` micro-executions every scored candidate
/// composes from.
struct Scenario<'a> {
    /// `(uri, partition)` in sample order: the partition under the routing
    /// of the plans this scenario scores ([`MixedPlan::partition_of`] of a
    /// flat plan, the free [`partition_of`] otherwise), fixed at
    /// construction because the memos below are keyed by partition.
    uris: Vec<(String, String)>,
    docs: BTreeMap<String, Document>,
    doc_bytes: BTreeMap<String, u64>,
    fetch: BTreeMap<String, SimDuration>,
    corpus_bytes: u64,
    base: &'a WarehouseConfig,
    cost: CostModel,
    /// `(partition, strategy label)` → micro-build.
    builds: RefCell<BTreeMap<(String, &'static str), Rc<PartitionBuild>>>,
    /// `(partition, strategy label, workload family index)` → per-pattern
    /// look-up outcomes, each as if issued at [`SimTime::ZERO`].
    lookups: RefCell<LookupMemo>,
    /// `(family index, pattern index, uri)` → twig tuples and candidate
    /// count. Strategy-independent: the index only decides *which*
    /// documents get evaluated.
    evals: RefCell<EvalMemo>,
}

type LookupMemo = BTreeMap<(String, &'static str, usize), Rc<Vec<LookupOutcome>>>;
type EvalMemo = BTreeMap<(usize, usize, String), Rc<(Vec<Tuple>, u64)>>;

impl<'a> Scenario<'a> {
    fn new(
        sample: &[(String, String)],
        base: &'a WarehouseConfig,
        route: impl Fn(&str) -> &str,
    ) -> Result<Scenario<'a>, AdviseError> {
        let mut s3 = S3::new();
        s3.create_bucket("sample");
        let mut uris = Vec::with_capacity(sample.len());
        let mut docs = BTreeMap::new();
        let mut doc_bytes = BTreeMap::new();
        let mut fetch = BTreeMap::new();
        let mut corpus_bytes = 0u64;
        let mut t = SimTime::ZERO;
        for (uri, xml) in sample {
            let doc = Document::parse_str(uri.clone(), xml)
                .map_err(|e| AdviseError::Parse(uri.clone(), e))?;
            t = s3
                .put(t, "sample", uri, xml.clone().into_bytes())
                .expect("scratch bucket exists");
            // Micro-measure the fetch latency each loader / query core
            // will pay for this document, with the same service-time
            // model the simulation charges (uncontended).
            let (bytes, ready) = s3.get(t, "sample", uri).expect("just stored");
            fetch.insert(uri.clone(), ready - t);
            t = ready;
            corpus_bytes += bytes.len() as u64;
            doc_bytes.insert(uri.clone(), bytes.len() as u64);
            uris.push((uri.clone(), route(uri).to_string()));
            docs.insert(uri.clone(), doc);
        }
        Ok(Scenario {
            uris,
            docs,
            doc_bytes,
            fetch,
            corpus_bytes,
            base,
            cost: CostModel::new(base.prices.clone()),
            builds: RefCell::new(BTreeMap::new()),
            lookups: RefCell::new(BTreeMap::new()),
            evals: RefCell::new(BTreeMap::new()),
        })
    }

    /// The distinct partitions of the sample, in name order.
    fn partitions(&self) -> Vec<String> {
        let set: BTreeSet<&String> = self.uris.iter().map(|(_, p)| p).collect();
        set.into_iter().cloned().collect()
    }

    fn label_of(&self, plan: &MixedPlan) -> String {
        if plan.assignments().is_empty() {
            let flat = *plan == MixedPlan::flat(plan.default_strategy());
            let layout = if flat { "flat" } else { "uniform" };
            return format!("{layout}:{}", strategy_label(plan.default_strategy()));
        }
        let parts: Vec<String> = plan
            .assignments()
            .iter()
            .map(|(p, s)| {
                let name = if p.is_empty() { "/" } else { p };
                format!("{name}={}", strategy_label(*s))
            })
            .collect();
        parts.join(",")
    }

    /// The VM bill for `serial` compute, perfectly balanced across a
    /// pool: rate × serial ÷ cores, independent of the instance count.
    fn vm(&self, serial: SimDuration, itype: amada_cloud::InstanceType, cores: usize) -> Money {
        self.cost
            .prices
            .vm_hour(itype)
            .per_hour(serial.micros() / cores as u64)
    }

    /// Micro-builds one partition under one strategy choice (memoized):
    /// every document flows through the loader (fetch + parse) even when
    /// the partition indexes nothing; indexed partitions also extract and
    /// write their entries into the partition's own scratch store.
    fn partition_build(
        &self,
        partition: &str,
        strategy: Option<Strategy>,
    ) -> Result<Rc<PartitionBuild>, AdviseError> {
        let key = (partition.to_string(), strategy_label(strategy));
        if let Some(b) = self.builds.borrow().get(&key) {
            return Ok(b.clone());
        }
        let work = &self.base.work;
        let lecu = self.base.loader_pool.itype.ecu_per_core();
        let placement = strategy.map(|strategy| Placement {
            strategy,
            partition,
        });
        let mut kv = self.base.backend.clone().open(self.base.kv_tuning);
        let mut t = SimTime::ZERO;
        let mut serial = SimDuration::ZERO;
        let mut puts = 0u64;
        let mut per_doc = BTreeMap::new();
        for (uri, _) in self.uris.iter().filter(|(_, p)| p == partition) {
            let mut serial_doc = self.fetch[uri] + work.parse(self.doc_bytes[uri], lecu);
            let mut doc_puts = 0u64;
            if let Some(placement) = placement {
                let entries = extract(&self.docs[uri], placement.strategy, self.base.extract);
                let entry_bytes: u64 = entries.iter().map(|e| e.raw_bytes() as u64).sum();
                serial_doc += work.extract(entry_bytes, lecu);
                let before = kv.stats().put_ops;
                let (_m, ready) = write_entries(kv.as_mut(), t, placement, &entries, uri)
                    .map_err(|e| AdviseError::Store(uri.clone(), e))?;
                serial_doc += ready - t;
                t = ready;
                doc_puts = kv.stats().put_ops - before;
                puts += doc_puts;
            }
            serial += serial_doc;
            per_doc.insert(uri.clone(), (doc_puts, serial_doc));
        }
        let b = Rc::new(PartitionBuild {
            puts,
            stored_bytes: kv.stats().stored_bytes(),
            built_at: t,
            kv: RefCell::new(kv),
            serial,
            per_doc,
        });
        self.builds.borrow_mut().insert(key, b.clone());
        Ok(b)
    }

    /// One family's per-pattern look-ups against one indexed partition
    /// (memoized): exactly what [`amada_index::lookup_mixed`] issues for
    /// that partition when it fans each pattern out, measured against the
    /// partition's own scratch index.
    fn partition_lookup(
        &self,
        partition: &str,
        strategy: Strategy,
        fam_idx: usize,
        query: &Query,
    ) -> Result<Rc<Vec<LookupOutcome>>, AdviseError> {
        let key = (
            partition.to_string(),
            strategy_label(Some(strategy)),
            fam_idx,
        );
        if let Some(l) = self.lookups.borrow().get(&key) {
            return Ok(l.clone());
        }
        let build = self.partition_build(partition, Some(strategy))?;
        let mut kv = build.kv.borrow_mut();
        let placement = Placement {
            strategy,
            partition,
        };
        let t0 = build.built_at;
        let name = query.name.clone().unwrap_or_default();
        let out = query
            .patterns
            .iter()
            .map(|p| {
                let o = lookup_pattern_in(kv.as_mut(), t0, placement, self.base.extract, p)
                    .map_err(|e| AdviseError::Lookup(name.clone(), e))?;
                Ok(LookupOutcome {
                    ready_at: SimTime::ZERO + (o.ready_at.max(t0) - t0),
                    ..o
                })
            })
            .collect::<Result<Vec<LookupOutcome>, AdviseError>>()?;
        let out = Rc::new(out);
        self.lookups.borrow_mut().insert(key, out.clone());
        Ok(out)
    }

    /// One pattern's twig evaluation on one document (memoized). The
    /// result is strategy-independent — the plan only decides *which*
    /// documents are candidates.
    fn eval_doc(
        &self,
        fam_idx: usize,
        pat_idx: usize,
        uri: &str,
        query: &Query,
    ) -> Rc<(Vec<Tuple>, u64)> {
        let key = (fam_idx, pat_idx, uri.to_string());
        if let Some(e) = self.evals.borrow().get(&key) {
            return e.clone();
        }
        let (tuples, stats) = evaluate_pattern_twig(&self.docs[uri], &query.patterns[pat_idx]);
        let e = Rc::new((tuples, stats.candidates));
        self.evals.borrow_mut().insert(key, e.clone());
        e
    }

    /// Scores one candidate plan by composing the memoized per-partition
    /// micro-executions (see the module docs for exactly what is measured
    /// and what is modeled). Composition is the runtime's own:
    /// [`merge_fan_out`] merges each pattern's per-partition look-ups as
    /// [`amada_index::lookup_mixed`] does.
    fn estimate(
        &self,
        plan: &MixedPlan,
        workload: &[FamilyLoad],
        churn: &BTreeMap<String, Churn>,
        horizon: &Horizon,
    ) -> Result<PlanEstimate, AdviseError> {
        let work = &self.base.work;
        let lpool = self.base.loader_pool;
        let lcores = lpool.itype.cores();
        let qitype = self.base.query_pool.itype;
        let (qcores, qecu) = (qitype.cores(), qitype.ecu_per_core());
        let assigned: Vec<(String, Option<Strategy>)> = self
            .partitions()
            .into_iter()
            .map(|p| {
                let s = plan.strategy_of(&p);
                (p, s)
            })
            .collect();

        // ---- Build + storage: sum the per-partition micro-builds. ----
        let mut put_ops_total = 0u64;
        let mut serial_build = SimDuration::ZERO;
        let mut stored_bytes = 0u64;
        for (p, s) in &assigned {
            let b = self.partition_build(p, *s)?;
            put_ops_total += b.puts;
            serial_build += b.serial;
            stored_bytes += b.stored_bytes;
        }
        let n_docs = self.uris.len() as u64;
        let build_cost = self.cost.prices.idx_put * put_ops_total
            + self.cost.prices.st_get * n_docs
            + self.vm(serial_build, lpool.itype, lcores)
            + self.cost.prices.qs_request * (2 * n_docs);
        let storage_per_month = self.cost.monthly_storage(self.corpus_bytes, stored_bytes);

        // Scan partitions contribute every document to every pattern.
        let scanned: Vec<Arc<str>> = self
            .uris
            .iter()
            .filter(|(_, p)| plan.strategy_of(p).is_none())
            .map(|(uri, _)| Arc::from(uri.as_str()))
            .collect();

        // ---- Queries: compose each family from the per-partition
        // look-ups and the memoized twig evaluations. ----
        let mut run_cost = Money::ZERO;
        let mut index_get_ops = 0u64;
        let mut result_sizes = Vec::with_capacity(workload.len());
        let mut response_weighted = 0.0f64;
        let mut arrivals_total = 0u64;
        for (fam_idx, fam) in workload.iter().enumerate() {
            let npat = fam.query.patterns.len();
            let indexed: Vec<Rc<Vec<LookupOutcome>>> = assigned
                .iter()
                .filter_map(|(p, s)| s.map(|s| self.partition_lookup(p, s, fam_idx, &fam.query)))
                .collect::<Result<_, _>>()?;
            let mut lookup_get = SimDuration::ZERO;
            let mut looked_up = Vec::with_capacity(npat);
            for i in 0..npat {
                let answers = indexed.iter().map(|part| Ok(part[i].clone()));
                let merged: LookupOutcome = merge_fan_out(SimTime::ZERO, &scanned, answers)?;
                lookup_get += merged.ready_at - SimTime::ZERO;
                looked_up.push(merged);
            }
            let lookup = QueryLookup::of(looked_up);
            let get_ops = lookup.get_ops();
            let plan_time = work.plan(lookup.entries_processed(), qecu);
            // Transfer + evaluate, serialized then divided across cores —
            // the same accounting as the query processor.
            let mut serial = SimDuration::ZERO;
            for uri in &lookup.uris {
                serial += self.fetch[&**uri] + work.parse(self.doc_bytes[&**uri], qecu);
            }
            let mut per_pattern: Vec<Vec<Tuple>> = Vec::with_capacity(npat);
            for (i, candidates) in lookup.per_pattern.iter().enumerate() {
                let mut tuples = Vec::new();
                for uri in &candidates.uris {
                    let ev = self.eval_doc(fam_idx, i, uri, &fam.query);
                    serial += work.eval(ev.1, qecu);
                    tuples.extend(ev.0.iter().cloned());
                }
                per_pattern.push(tuples);
            }
            let tuple_count: u64 = per_pattern.iter().map(|v| v.len() as u64).sum();
            let results = join_pattern_results(&fam.query, &per_pattern);
            serial += work.plan(tuple_count, qecu);
            let result_bytes = result_payload(&results).len() as u64;
            serial += work.materialize(result_bytes, qecu);
            let wall = SimDuration::from_micros(serial.micros() / qcores as u64);
            let ptq = lookup_get + plan_time + wall;
            let fetched = lookup.uris.len() as u64;
            let per_query = self
                .cost
                .query_indexed(result_bytes, get_ops, fetched, ptq, qitype);
            run_cost += per_query * fam.arrivals;
            result_sizes.push(result_bytes);
            index_get_ops += get_ops * fam.arrivals;
            response_weighted += ptq.as_secs_f64() * fam.arrivals as f64;
            arrivals_total += fam.arrivals;
        }
        let mean_response_secs = if arrivals_total == 0 {
            0.0
        } else {
            response_weighted / arrivals_total as f64
        };

        // ---- Maintenance: per run, the declared churn re-indexes its
        // documents wherever the partition is indexed: the rewritten share
        // of the next version's entries put (a kept item of unchanged value
        // is left alone), the dropped share retracted, both index writes. ----
        let mut maintenance = Money::ZERO;
        for (partition, churn) in churn {
            let strategy = plan.strategy_of(partition);
            let build = self.partition_build(partition, strategy)?;
            let members = self.uris.iter().filter(|(_, p)| p == partition);
            let at = Strategy::ALL.iter().position(|s| Some(*s) == strategy);
            let written = at.map_or(1.0, |at| churn.rewritten[at]) + churn.dropped;
            let written_ppm = (written * 1e6).round() as u64;
            for (uri, _) in members.take(churn.documents as usize) {
                let (puts, serial_doc) = build.per_doc[uri];
                if puts == 0 {
                    continue; // unindexed partitions churn free
                }
                let rewrite = self.cost.prices.idx_put * puts;
                maintenance += rewrite.scaled(written_ppm, 1_000_000)
                    + self.cost.prices.st_get
                    + self.cost.prices.qs_request * 2
                    + self.vm(serial_doc, lpool.itype, lcores);
            }
        }

        let projected_total = build_cost
            + (run_cost + maintenance) * horizon.expected_runs as u64
            + months_scaled(storage_per_month, horizon.months);
        Ok(PlanEstimate {
            label: self.label_of(plan),
            plan: plan.clone(),
            build_cost,
            storage_per_month,
            run_cost,
            index_get_ops,
            result_bytes: result_sizes,
            maintenance_per_run: maintenance,
            mean_response_secs,
            projected_total,
        })
    }
}

/// Scales a monthly charge to a fractional-month horizon exactly: the
/// horizon resolves to micro-months and applies with round-half-up
/// integer scaling ([`Money::scaled`]), so a horizon billed in N slices
/// sums within a pico per slice of the aggregate. (Scaling through an
/// `f64` cast truncated and drifted above ~2⁵³ pico — ~$9k/month.)
fn months_scaled(per_month: Money, months: f64) -> Money {
    assert!(
        months >= 0.0 && months.is_finite(),
        "months must be non-negative: {months}"
    );
    per_month.scaled((months * 1e6).round() as u64, 1_000_000)
}

/// Scores one plan against a sample and weighted workload without running
/// a deployment; `churn` names partitions as the plan routes them (a flat
/// plan has only the root partition `""`). See the module docs for the
/// method and [`ESTIMATE_TOLERANCE`] for the accuracy contract.
pub fn estimate_plan(
    sample: &[(String, String)],
    plan: &MixedPlan,
    workload: &[FamilyLoad],
    churn: &BTreeMap<String, Churn>,
    horizon: &Horizon,
    base: &WarehouseConfig,
) -> Result<PlanEstimate, AdviseError> {
    Scenario::new(sample, base, |uri| plan.partition_of(uri))?
        .estimate(plan, workload, churn, horizon)
}

/// The ranking key: ascending projected total, ties in label order.
fn rank(e: &PlanEstimate) -> (Money, &str) {
    (e.projected_total, e.label.as_str())
}

/// Runs the adaptive advisor: searches per-partition strategy assignments
/// for the cheapest plan over the horizon whose monthly storage fits the
/// budget.
///
/// * `sample` — representative documents `(uri, xml)`, partitioned by URI
///   prefix;
/// * `workload` — the observed query families with arrival weights
///   (typically [`observed_families`] over live attribution);
/// * `churn` — per partition, the documents replaced per workload run and
///   the share of keys a next version drops;
/// * `horizon` — runs, months and the optional monthly budget;
/// * `base` — deployment parameters (pools, prices, work model).
///
/// With ≤ 4 partitions the assignment space is searched exhaustively
/// (5^P plans), so the chosen plan is a true argmin and can only tie or
/// beat every uniform layout; beyond that, deterministic coordinate
/// descent from the best uniform layout refines one partition at a time.
pub fn advise_adaptive(
    sample: &[(String, String)],
    workload: &[FamilyLoad],
    churn: &BTreeMap<String, Churn>,
    horizon: &Horizon,
    base: &WarehouseConfig,
) -> Result<AdaptiveAdvice, AdviseError> {
    let scenario = Scenario::new(sample, base, partition_of)?;
    let partitions = scenario.partitions();
    let default = routable_default(base);
    let score = |plan: &MixedPlan| scenario.estimate(plan, workload, churn, horizon);

    // The five uniform layouts always compete (and seed the search).
    let mut uniform: Vec<PlanEstimate> = PARTITION_CANDIDATES
        .iter()
        .map(|&s| score(&MixedPlan::uniform(s)))
        .collect::<Result<_, _>>()?;

    let assemble = |assignment: &[Option<Strategy>]| {
        let mut plan = MixedPlan::uniform(Some(default));
        for (p, &s) in partitions.iter().zip(assignment) {
            plan.assign(p, s);
        }
        plan
    };

    // Every scored candidate competes twice: for the unconstrained
    // optimum, and for the cheapest plan satisfying the declared
    // constraints (monthly budget, response SLO). Tracking both across
    // the *whole* search means the constrained answer is a true argmin
    // over the searched space, not a fallback to uniform layouts.
    fn consider(est: &PlanEstimate, slot: &mut Option<PlanEstimate>) {
        match slot {
            Some(b) if rank(est) >= rank(b) => {}
            _ => *slot = Some(est.clone()),
        }
    }
    let mut best: Option<PlanEstimate> = None;
    let mut fitting: Option<PlanEstimate> = None;
    let weigh = |est: &PlanEstimate,
                 best: &mut Option<PlanEstimate>,
                 fitting: &mut Option<PlanEstimate>| {
        if est.satisfies(horizon) {
            consider(est, fitting);
        }
        consider(est, best);
    };
    for u in &uniform {
        weigh(u, &mut best, &mut fitting);
    }
    if partitions.len() <= 4 {
        // Exhaustive: every per-partition assignment.
        let n = PARTITION_CANDIDATES.len().pow(partitions.len() as u32);
        for mut code in 0..n {
            let assignment: Vec<Option<Strategy>> = (0..partitions.len())
                .map(|_| {
                    let s = PARTITION_CANDIDATES[code % PARTITION_CANDIDATES.len()];
                    code /= PARTITION_CANDIDATES.len();
                    s
                })
                .collect();
            weigh(&score(&assemble(&assignment))?, &mut best, &mut fitting);
        }
    } else {
        // Coordinate descent from the best uniform layout.
        let seed = uniform
            .iter()
            .min_by_key(|e| rank(e))
            .expect("five uniform candidates")
            .plan
            .clone();
        let mut assignment: Vec<Option<Strategy>> =
            partitions.iter().map(|p| seed.strategy_of(p)).collect();
        let mut current = score(&assemble(&assignment))?;
        weigh(&current, &mut best, &mut fitting);
        loop {
            let mut improved = false;
            for i in 0..partitions.len() {
                for &cand in &PARTITION_CANDIDATES {
                    if cand == assignment[i] {
                        continue;
                    }
                    let mut trial = assignment.clone();
                    trial[i] = cand;
                    let est = score(&assemble(&trial))?;
                    weigh(&est, &mut best, &mut fitting);
                    if rank(&est) < rank(&current) {
                        assignment = trial;
                        current = est;
                        improved = true;
                    }
                }
            }
            if !improved {
                break;
            }
        }
    }
    let best = best.expect("at least one candidate plan");

    // Constraints: cheapest searched candidate satisfying the monthly
    // budget and the response SLO (with none declared every candidate
    // satisfies vacuously, so this is the unconstrained argmin). The
    // uniform scan layout is the storage floor, so an unmeetable set of
    // constraints degrades there deterministically.
    let (chosen, budget_met) = match fitting {
        Some(est) => (est, true),
        None => {
            let floor = uniform
                .iter()
                .find(|e| e.plan.default_strategy().is_none())
                .expect("uniform scan candidate")
                .clone();
            (floor, false)
        }
    };

    uniform.push(chosen.clone());
    uniform.push(best);
    uniform.sort_by(|a, b| rank(a).cmp(&rank(b)));
    uniform.dedup_by(|a, b| a.label == b.label);
    Ok(AdaptiveAdvice {
        chosen,
        ranked: uniform,
        budget_per_month: horizon.budget_per_month,
        budget_met,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::warehouse::Warehouse;
    use amada_xmark::{generate_corpus, workload_query, CorpusConfig};

    /// A heterogeneous corpus: a hot partition (selectively queried), a
    /// cold partition (only ever scanned) and a churning partition
    /// (replaced between runs), equally sized.
    fn sample() -> Vec<(String, String)> {
        sample_seeded(CorpusConfig::default().seed)
    }

    fn sample_seeded(seed: u64) -> Vec<(String, String)> {
        let cfg = CorpusConfig {
            seed,
            num_documents: 18,
            target_doc_bytes: 1500,
            ..Default::default()
        };
        generate_corpus(&cfg)
            .into_iter()
            .enumerate()
            .map(|(i, d)| {
                let prefix = ["hot/", "cold/", "churn/"][i % 3];
                (format!("{prefix}{}", d.uri), d.xml)
            })
            .collect()
    }

    /// Hot-skewed workload: the selective point query dominates arrivals,
    /// the low-selectivity scan query trickles in.
    fn workload() -> Vec<FamilyLoad> {
        vec![
            FamilyLoad {
                query: workload_query("q1").unwrap(),
                arrivals: 6,
            },
            FamilyLoad {
                query: workload_query("q6").unwrap(),
                arrivals: 1,
            },
        ]
    }

    fn horizon(runs: u32, budget: Option<Money>) -> Horizon {
        Horizon {
            expected_runs: runs,
            months: 1.0,
            budget_per_month: budget,
            response_slo: None,
        }
    }

    fn rel_diff(a: Money, b: Money) -> f64 {
        let (a, b) = (a.dollars(), b.dollars());
        if a == 0.0 && b == 0.0 {
            0.0
        } else {
            (a - b).abs() / a.max(b)
        }
    }

    /// `documents` replaced per run, dropping the share of keys the
    /// sample's next versions (the same slots under another seed — what
    /// [`measured`] uploads) drop.
    fn regenerated(documents: u64) -> Churn {
        let (old, next) = (sample(), sample_seeded(0xC0DE));
        let versions = old
            .iter()
            .zip(&next)
            .map(|((uri, old), (_, next))| (uri.as_str(), old.as_str(), next.as_str()));
        Churn::measured(documents, versions, &WarehouseConfig::default()).unwrap()
    }

    /// One measured deployment: build-phase bill, monthly storage, one
    /// arrival-weighted workload run with the index gets it issued, and
    /// the rebuild bill of one churn round.
    struct Measured {
        build: Money,
        storage: Money,
        run: Money,
        index_get_ops: u64,
        /// Per workload family, its first execution's `result_bytes`.
        result_bytes: Vec<u64>,
        maintenance: Money,
    }

    /// Measures a real deployment of `plan` on `base` end to end, `churn`
    /// read as the estimator reads it (per partition, the first so many
    /// documents in sample order). A flat plan is deployed the way every
    /// flat deployment is: the strategy configured, no plan applied.
    fn measured(
        base: &WarehouseConfig,
        plan: &MixedPlan,
        workload: &[FamilyLoad],
        churn: &BTreeMap<String, Churn>,
    ) -> Measured {
        let mut cfg = base.clone();
        let flat = *plan == MixedPlan::flat(plan.default_strategy());
        cfg.strategy = match flat {
            true => plan.default_strategy().expect("an indexed flat plan"),
            false => routable_default(&cfg),
        };
        let mut w = Warehouse::new(cfg);
        if !flat {
            w.apply_plan(plan.clone());
        }
        w.upload_documents(sample());
        let build = w.build_index().cost.total();
        let storage = w.storage_cost().total();
        let mut run = Money::ZERO;
        let mut index_get_ops = 0;
        let mut result_bytes = Vec::new();
        for fam in workload {
            for arrival in 0..fam.arrivals {
                let r = w.run_query(&fam.query);
                run += r.cost.total();
                index_get_ops += r.exec.index_get_ops;
                if arrival == 0 {
                    result_bytes.push(r.exec.result_bytes);
                }
            }
        }
        // New versions of the churned documents (the same slots under
        // another seed), then the incremental rebuild alone: retraction
        // deletes, re-indexing writes, loader time and fetches — not the
        // upload, which an unindexed deployment pays identically.
        let mut remaining = churn.clone();
        w.upload_documents(sample_seeded(0xC0DE).into_iter().filter(|(uri, _)| {
            match remaining.get_mut(plan.partition_of(uri)) {
                Some(left) if left.documents > 0 => {
                    left.documents -= 1;
                    true
                }
                _ => false,
            }
        }));
        let maintenance = w.build_index().cost.total();
        Measured {
            build,
            storage,
            run,
            index_get_ops,
            result_bytes,
            maintenance,
        }
    }

    /// The accuracy contract: micro-execution estimates agree with a
    /// measured simulation within [`ESTIMATE_TOLERANCE`] on the build,
    /// per-run and maintenance bills, storage (exact op-for-op on both
    /// sides) agrees within 2%, and the index gets of a run are exact.
    /// Checked for a uniform layout, a genuinely mixed one and the flat
    /// layout over the same prefixed URIs — one partition, a third of the
    /// uniform layout's look-ups. The churn round replaces the whole
    /// sample, 18 documents for the default loader pool's 16 cores; the
    /// last assertion pins the other side of that regime.
    #[test]
    fn estimates_track_measured_deployments() {
        let base = WarehouseConfig::default();
        let workload = workload();
        let whole = |plan: &MixedPlan| {
            let mut churn = BTreeMap::new();
            for (uri, _) in sample() {
                churn
                    .entry(plan.partition_of(&uri).to_string())
                    .or_insert(regenerated(0))
                    .documents += 1;
            }
            churn
        };
        let dropped = regenerated(0).dropped;
        assert!(0.0 < dropped && dropped < 1.0, "{dropped}");
        let plans = [
            (MixedPlan::uniform(Some(Strategy::Lup)), "uniform:LUP"),
            (
                MixedPlan::uniform(Some(Strategy::TwoLupi))
                    .with("cold", None)
                    .with("churn", Some(Strategy::Lu)),
                "churn=LU,cold=scan",
            ),
            (MixedPlan::flat(Some(Strategy::Lup)), "flat:LUP"),
        ];
        let mut gets = Vec::new();
        for (plan, label) in &plans {
            let churn = whole(plan);
            let est = estimate_plan(
                &sample(),
                plan,
                &workload,
                &churn,
                &horizon(10, None),
                &base,
            )
            .unwrap();
            assert_eq!(est.label, *label);
            let m = measured(&base, plan, &workload, &churn);
            assert!(
                rel_diff(est.storage_per_month, m.storage) <= 0.02,
                "{label}: storage est {} vs measured {}",
                est.storage_per_month,
                m.storage
            );
            for (what, est, measured) in [
                ("build", est.build_cost, m.build),
                ("run", est.run_cost, m.run),
                ("maintenance", est.maintenance_per_run, m.maintenance),
            ] {
                assert!(
                    rel_diff(est, measured) <= ESTIMATE_TOLERANCE,
                    "{label}: {what} est {est} vs measured {measured}"
                );
            }
            assert_eq!(est.index_get_ops, m.index_get_ops, "{label}");
            // One function states the result payload for both sides.
            assert_eq!(est.result_bytes, m.result_bytes, "{label}");
            assert!(est.result_bytes.iter().any(|&b| b > 0), "{label}");
            gets.push(est.index_get_ops);
        }
        assert_eq!(gets[0], 3 * gets[2], "three partitions, three look-ups");

        // The other side of the regime: a round smaller than the loader
        // pool is under-estimated beyond the tolerance, because the
        // deployment bills every loader instance for the whole rebuild
        // phase while the estimate bills only the cores the work fills.
        let (plan, label) = &plans[0];
        let few = BTreeMap::from([("hot".to_string(), regenerated(2))]);
        let est = estimate_plan(&sample(), plan, &[], &few, &horizon(10, None), &base).unwrap();
        let m = measured(&base, plan, &[], &few);
        assert!(
            est.maintenance_per_run < m.maintenance
                && rel_diff(est.maintenance_per_run, m.maintenance) > ESTIMATE_TOLERANCE,
            "{label}: two-document round est {} vs measured {}",
            est.maintenance_per_run,
            m.maintenance
        );
    }

    /// The scratch index is the deployment's own store, so the storage
    /// estimate follows the measured deployment wherever the service
    /// takes it — and the default DynamoDB's estimate, which is what
    /// every deployment used to be priced on, misses both. A string-only
    /// DynamoDB stores more (ID lists become base64 chunks under the same
    /// 100 B per item); SimpleDB stores *less* on a sample this small,
    /// where one-value items pay 45 B of overhead instead of 100 B.
    #[test]
    fn estimates_price_the_deployments_own_store() {
        let workload = workload();
        let plan = MixedPlan::uniform(Some(Strategy::TwoLupi)).with("cold", None);
        let estimate = |base: &WarehouseConfig| {
            let horizon = horizon(10, None);
            estimate_plan(
                &sample(),
                &plan,
                &workload,
                &BTreeMap::new(),
                &horizon,
                base,
            )
            .unwrap()
            .storage_per_month
        };
        let on_default = estimate(&WarehouseConfig::default());
        let simple = WarehouseConfig {
            backend: amada_cloud::KvBackend::Simple(Default::default()),
            ..WarehouseConfig::default()
        };
        let mut strings = WarehouseConfig::default();
        strings.kv_tuning.force_string_values = true;
        for (name, base) in [("SimpleDB", &simple), ("string-only DynamoDB", &strings)] {
            let est = estimate(base);
            let storage = measured(base, &plan, &workload, &BTreeMap::new()).storage;
            assert!(
                rel_diff(est, storage) <= 0.02,
                "{name}: storage est {est} vs measured {storage}"
            );
            assert!(
                rel_diff(on_default, storage) > 0.02,
                "{name}: default DynamoDB's {on_default} vs measured {storage}"
            );
        }
        assert!(estimate(&strings) > on_default);
        assert!(estimate(&simple) < on_default);
    }

    /// With ≤ 4 partitions the search is exhaustive, so the chosen plan
    /// ties or beats every uniform layout by construction — and on this
    /// heterogeneous workload (hot selective traffic, cold scans, a
    /// churning partition) it must *strictly* beat all five: uniformly
    /// heavy indexes overpay on the cold and churning partitions, uniform
    /// scan overpays on the hot traffic.
    #[test]
    fn adaptive_plan_beats_every_uniform_layout() {
        let mut churn = BTreeMap::new();
        churn.insert("churn".to_string(), regenerated(6));
        let advice = advise_adaptive(
            &sample(),
            &workload(),
            &churn,
            &horizon(200, None),
            &WarehouseConfig::default(),
        )
        .unwrap();
        let uniforms: Vec<&PlanEstimate> = advice
            .ranked
            .iter()
            .filter(|e| e.label.starts_with("uniform:"))
            .collect();
        assert_eq!(uniforms.len(), 5, "{:?}", advice.ranked.len());
        for u in &uniforms {
            assert!(
                advice.chosen.projected_total < u.projected_total,
                "chosen {} ({}) vs {} ({})",
                advice.chosen.label,
                advice.chosen.projected_total,
                u.label,
                u.projected_total
            );
        }
        // The winner is genuinely mixed: it indexes the hot partition and
        // declines to keep a full-price index on the churning one.
        let plan = &advice.chosen.plan;
        assert!(plan.strategy_of("hot").is_some(), "{}", advice.chosen.label);
        assert_ne!(
            plan.strategy_of("churn"),
            plan.strategy_of("hot"),
            "churn should not carry the hot partition's index: {}",
            advice.chosen.label
        );
        assert!(advice.budget_met);
        // Determinism: advising twice yields the same plan and numbers.
        let again = advise_adaptive(
            &sample(),
            &workload(),
            &churn,
            &horizon(200, None),
            &WarehouseConfig::default(),
        )
        .unwrap();
        assert_eq!(again.chosen.label, advice.chosen.label);
        assert_eq!(again.chosen.projected_total, advice.chosen.projected_total);
    }

    /// The budget constraint binds: a ceiling below the unconstrained
    /// winner's storage forces a cheaper-to-store plan, and a ceiling
    /// below even the scan layout's (the data itself) is reported unmet
    /// while still recommending the storage floor.
    #[test]
    fn budget_constrains_the_choice() {
        let base = WarehouseConfig::default();
        let churn = BTreeMap::new();
        let free =
            advise_adaptive(&sample(), &workload(), &churn, &horizon(200, None), &base).unwrap();
        assert!(free.budget_met);
        let scan_storage = free
            .ranked
            .iter()
            .find(|e| e.label == "uniform:scan")
            .unwrap()
            .storage_per_month;
        assert!(
            free.chosen.storage_per_month > scan_storage,
            "the unconstrained winner should hold an index"
        );
        // A budget between the scan floor and the winner's appetite.
        let budget = scan_storage
            + (free.chosen.storage_per_month.saturating_sub(scan_storage)).scaled(1, 2);
        let capped = advise_adaptive(
            &sample(),
            &workload(),
            &churn,
            &horizon(200, Some(budget)),
            &base,
        )
        .unwrap();
        assert!(capped.budget_met);
        assert!(capped.chosen.within_budget(budget));
        assert!(
            capped.chosen.projected_total >= free.chosen.projected_total,
            "a binding budget cannot make the horizon cheaper"
        );
        // An impossible budget: even the data alone exceeds it.
        let impossible = advise_adaptive(
            &sample(),
            &workload(),
            &churn,
            &horizon(200, Some(Money::ZERO)),
            &base,
        )
        .unwrap();
        assert!(!impossible.budget_met);
        assert_eq!(impossible.chosen.label, "uniform:scan");
    }

    /// The response SLO binds: without one the dollars-optimal plan may
    /// leave partitions unindexed (scan-heavy but cheap); a declared
    /// ceiling excludes those candidates, so the chosen plan estimates at
    /// or under the SLO even when a slower plan projects cheaper. An
    /// unmeetable SLO is reported honestly.
    #[test]
    fn response_slo_constrains_the_choice() {
        let base = WarehouseConfig::default();
        let churn = BTreeMap::new();
        let free =
            advise_adaptive(&sample(), &workload(), &churn, &horizon(200, None), &base).unwrap();
        // A ceiling just under the unconstrained winner's estimate forces
        // a faster plan (or reports the miss) — never a silent violation.
        let slo = free.chosen.mean_response_secs * 0.99;
        let mut h = horizon(200, None);
        h.response_slo = Some(slo);
        let capped = advise_adaptive(&sample(), &workload(), &churn, &h, &base).unwrap();
        if capped.budget_met {
            assert!(
                capped.chosen.meets_slo(slo),
                "chosen {} estimates {:.4}s over the {:.4}s SLO",
                capped.chosen.label,
                capped.chosen.mean_response_secs,
                slo
            );
            assert!(
                capped.chosen.projected_total >= free.chosen.projected_total,
                "a binding SLO cannot make the horizon cheaper"
            );
        }
        // An impossible SLO: nothing answers in zero seconds.
        let mut h = horizon(200, None);
        h.response_slo = Some(0.0);
        let impossible = advise_adaptive(&sample(), &workload(), &churn, &h, &base).unwrap();
        assert!(!impossible.budget_met);
        assert_eq!(impossible.chosen.label, "uniform:scan");
    }

    /// Attribution-to-workload glue: open-loop arrival names collapse to
    /// families, arrivals are counted, and only catalog queries survive.
    #[test]
    fn observed_families_collapse_arrivals_and_match_the_catalog() {
        use amada_cloud::{Ctx, Phase, ServiceKind, Span};
        let span = |q: &str| {
            let ctx = Ctx {
                phase: Phase::Query,
                query: Some(q.into()),
                doc: None,
                actor: None,
            };
            Span::new(ServiceKind::Kv, "get", SimTime::ZERO, SimTime(1), &ctx)
                .billed(Money::from_pico(5))
        };
        let spans = vec![
            span("q1#0"),
            span("q1#1"),
            span("q1#1"),
            span("q6#0"),
            span("mystery#0"),
        ];
        let attr = Attribution::attribute(&spans);
        let catalog = vec![workload_query("q1").unwrap(), workload_query("q6").unwrap()];
        let families = observed_families(&attr, &catalog);
        assert_eq!(families.len(), 2, "the unknown family is skipped");
        assert_eq!(families[0].query.name.as_deref(), Some("q1"));
        assert_eq!(families[0].arrivals, 2, "arrivals, not spans");
        assert_eq!(families[1].query.name.as_deref(), Some("q6"));
        assert_eq!(families[1].arrivals, 1);
    }

    /// The paper's own question — one strategy, or none, for the whole
    /// corpus — asked of the same advisor: a sample with one partition,
    /// every query arriving once per run, a fraction of the sample
    /// replaced per run.
    fn static_sample() -> Vec<(String, String)> {
        let cfg = CorpusConfig {
            num_documents: 25,
            target_doc_bytes: 1200,
            ..Default::default()
        };
        generate_corpus(&cfg)
            .into_iter()
            .map(|d| (d.uri, d.xml))
            .collect()
    }

    fn advise_static(queries: &[&str], runs: u32, churn_per_run: f64) -> AdaptiveAdvice {
        let sample = static_sample();
        let workload: Vec<FamilyLoad> = queries
            .iter()
            .map(|n| FamilyLoad {
                query: workload_query(n).unwrap(),
                arrivals: 1,
            })
            .collect();
        let replaced = (sample.len() as f64 * churn_per_run).ceil() as u64;
        let churn = BTreeMap::from([(String::new(), regenerated(replaced))]);
        advise_adaptive(
            &sample,
            &workload,
            &churn,
            &horizon(runs, None),
            &WarehouseConfig::default(),
        )
        .unwrap()
    }

    /// The uniform rows of a ranking, in rank order.
    fn uniform_rows(advice: &AdaptiveAdvice) -> Vec<&PlanEstimate> {
        advice
            .ranked
            .iter()
            .filter(|e| e.label.starts_with("uniform:"))
            .collect()
    }

    fn indexing_pays_off(advice: &AdaptiveAdvice) -> bool {
        advice.chosen.plan.strategy_of("").is_some()
    }

    #[test]
    fn the_ranking_covers_every_uniform_layout_and_scan() {
        let advice = advise_static(&["q1", "q6"], 500, 0.0);
        // Four paper strategies + the no-index candidate.
        let uniforms = uniform_rows(&advice);
        assert_eq!(uniforms.len(), 5);
        let scans: Vec<_> = uniforms
            .iter()
            .filter(|e| e.plan.default_strategy().is_none())
            .collect();
        assert_eq!(scans.len(), 1);
        // Ranking is ascending in projected total, and the choice leads it.
        for w in advice.ranked.windows(2) {
            assert!(w[0].projected_total <= w[1].projected_total);
        }
        assert_eq!(advice.chosen.label, advice.ranked[0].label);
        // Over enough runs, indexing must beat scanning (the sample corpus
        // is tiny, so break-even needs many more runs than at real scale).
        assert!(indexing_pays_off(&advice));
        // The scan row is the no-index baseline: no look-ups, no index
        // bytes stored, nothing to maintain — its documents still pass
        // through the loader, which is all its build phase bills.
        let scan = scans[0];
        assert_eq!(scan.label, "uniform:scan");
        assert_eq!(scan.index_get_ops, 0);
        assert_eq!(scan.maintenance_per_run, Money::ZERO);
        let corpus_bytes = static_sample().iter().map(|(_, x)| x.len() as u64).sum();
        assert_eq!(
            scan.storage_per_month,
            CostModel::default().monthly_storage(corpus_bytes, 0)
        );
        assert_eq!(
            scan.projected_total,
            scan.build_cost + scan.run_cost * 500 + scan.storage_per_month
        );
        for e in &uniforms {
            assert!(scan.build_cost <= e.build_cost, "{}", e.label);
        }
    }

    #[test]
    fn cold_workloads_are_advised_not_to_index() {
        // One expected run over a tiny corpus: the build cost can never be
        // amortized, so the honest recommendation is "index nothing".
        let advice = advise_static(&["q1"], 1, 0.0);
        assert!(!indexing_pays_off(&advice), "{}", advice.chosen.label);
        assert_eq!(advice.chosen.plan.strategy_of(""), None);
    }

    #[test]
    fn heavy_churn_flips_the_advice_to_index_nothing() {
        // Enough runs that indexing pays on a static corpus...
        let calm = advise_static(&["q1", "q6"], 500, 0.0);
        assert!(indexing_pays_off(&calm));
        // ...but with the whole corpus replaced between runs, every run's
        // savings are spent re-indexing, and scanning wins the horizon.
        let stormy = advise_static(&["q1", "q6"], 500, 1.0);
        assert!(!indexing_pays_off(&stormy), "{}", stormy.chosen.label);
        // Maintenance is billed to indexed candidates only, and a calm
        // horizon charges none at all.
        for e in &stormy.ranked {
            assert_eq!(
                e.maintenance_per_run > Money::ZERO,
                e.plan.strategy_of("").is_some(),
                "{}",
                e.label
            );
        }
        for e in &calm.ranked {
            assert_eq!(e.maintenance_per_run, Money::ZERO, "{}", e.label);
        }
    }

    #[test]
    fn heavier_indexes_cost_more_to_build() {
        let advice = advise_static(&["q2"], 10, 0.0);
        let by = |label: &str| {
            let row = advice.ranked.iter().find(|e| e.label == label);
            row.unwrap_or_else(|| panic!("no {label} row")).build_cost
        };
        assert!(by("uniform:LU") < by("uniform:LUP"));
        assert!(by("uniform:LUP") < by("uniform:2LUPI"));
    }

    /// Equal totals rank in label order — the one documented tie-break.
    /// On a one-partition sample the searched assignment `/=S` is the
    /// uniform layout `uniform:S` under another name, so the winner ties
    /// with a uniform row to the picodollar: `/` sorts first, the choice
    /// is the searched plan, and the same ranking comes back on every run
    /// and from every host thread (the same bar as the sharding identity
    /// tests).
    #[test]
    fn equal_totals_rank_in_label_order_across_threads() {
        let labels = |advice: &AdaptiveAdvice| -> Vec<String> {
            advice.ranked.iter().map(|e| e.label.clone()).collect()
        };
        let here = advise_static(&["q1", "q6"], 500, 0.0);
        assert_eq!(here.ranked.len(), 6, "{:?}", labels(&here));
        let (first, second) = (&here.ranked[0], &here.ranked[1]);
        assert_eq!(first.projected_total, second.projected_total);
        assert_eq!(second.label, first.label.replacen("/=", "uniform:", 1));
        assert!(first.label.starts_with("/="), "{}", first.label);
        assert_eq!(here.chosen.label, first.label);
        let handles: Vec<_> = (0..4)
            .map(|_| std::thread::spawn(move || advise_static(&["q1", "q6"], 500, 0.0)))
            .collect();
        for h in handles {
            let there = h.join().unwrap();
            assert_eq!(labels(&there), labels(&here));
            assert_eq!(there.chosen.label, here.chosen.label);
        }
        // A cheaper total still outranks the label order: at one run the
        // scan layout leads although `uniform:scan` sorts last.
        let cold = advise_static(&["q1"], 1, 0.0);
        assert_eq!(cold.ranked[0].label, "/=scan");
        assert_eq!(cold.ranked[1].label, "uniform:scan");
        assert!(cold.ranked[1].projected_total < cold.ranked[2].projected_total);
    }

    #[test]
    fn months_scaling_is_exact_above_f64_precision() {
        // ~$9k/month storage crosses 2^53 pico, where the old f64 cast
        // truncated low bits.
        let storage = Money::from_pico((1u128 << 53) + 7);
        assert_eq!(months_scaled(storage, 1.0), storage);
        // Twelve monthly charges equal one annual charge exactly.
        assert_eq!(months_scaled(storage, 12.0), storage * 12);
        // Property: a horizon billed in N fractional-month slices sums
        // within 1 pico per slice of the aggregate charge (slices that
        // micro-months represent exactly; round-half-up bounds each
        // slice's rounding error by half a pico).
        for n in [2u64, 4, 5, 8, 10, 16, 1000] {
            let slice = months_scaled(storage, 1.0 / n as f64);
            let drift = (slice * n).signed_diff(storage).unsigned_abs();
            assert!(drift <= n as u128, "{n} slices drift {drift} pico");
        }
    }

    /// A sample the advisor cannot price is a typed error naming the
    /// document, never a panic and never a ranking without the candidates
    /// that failed: truncated XML fails the parse, an element name over
    /// the index store's key limit fails every indexed candidate's
    /// micro-build (the scan candidate alone would have "won").
    #[test]
    fn malformed_sample_reports_a_typed_error_instead_of_panicking() {
        let workload = vec![FamilyLoad {
            query: workload_query("q1").unwrap(),
            arrivals: 1,
        }];
        let churn = BTreeMap::new();
        let base = WarehouseConfig::default();
        let advice_for = |docs: &[(String, String)]| {
            advise_adaptive(docs, &workload, &churn, &horizon(10, None), &base)
        };
        let long_name = "n".repeat(3 * 1024);
        let poisons = [
            ("broken.xml", "<open><unclosed>".to_string()),
            ("longname.xml", format!("<{long_name}>x</{long_name}>")),
        ];
        for (uri, xml) in poisons {
            let mut docs = static_sample();
            docs.insert(1, (uri.into(), xml));
            let err = advice_for(&docs).unwrap_err();
            assert!(err.to_string().contains(uri), "{err}");
            match (uri, &err) {
                ("broken.xml", AdviseError::Parse(named, _))
                | ("longname.xml", AdviseError::Store(named, _)) => {
                    assert_eq!(named, uri)
                }
                _ => panic!("{uri}: unexpected {err:?}"),
            }
            // Scoring one plan reports the same error.
            let plan = MixedPlan::flat(Some(Strategy::Lup));
            let one = estimate_plan(&docs, &plan, &workload, &churn, &horizon(10, None), &base);
            assert_eq!(one.unwrap_err(), err);
        }
        // An over-long name in a *query* is only ever read, never stored:
        // the look-up finds nothing and the advice stands.
        let mut poison_query = amada_pattern::parse_query(&format!("//{long_name}")).unwrap();
        poison_query.name = Some("poison".into());
        let families = [FamilyLoad {
            query: poison_query,
            arrivals: 1,
        }];
        let advice = advise_adaptive(
            &static_sample(),
            &families,
            &churn,
            &horizon(10, None),
            &base,
        );
        assert!(advice.is_ok(), "{advice:?}");
        // A clean sample still succeeds.
        assert!(advice_for(&static_sample()).is_ok());
    }
}
