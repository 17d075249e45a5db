//! The index advisor — the paper's stated future work ("the development of
//! a platform and index advisor tool, which based on the expected dataset
//! and workload, estimates an application's performance and cost and picks
//! the best indexing strategy to use", Section 9).
//!
//! [`advise`] scores the five flat layouts — LU, LUP, LUI, 2LUPI and no
//! index at all (scan), each over the whole corpus — for a sample of the
//! corpus, a weighted workload and a declared churn, and ranks them by
//! their projected cost over a horizon, **without running a deployment**:
//!
//! * exact operation counts come from *host-side micro-execution* — the
//!   layout's index is actually built into a scratch index store — the
//!   deployment's own backend and tuning, opened as
//!   [`crate::Warehouse::new`] opens it — with the loader's write path, and
//!   each workload query is actually looked up against it, so
//!   `|op(D, I)|`, `|op(q, D, I)|`, `s(D, I)`, `|D_q|` and `|r(q)|` are
//!   measured, not guessed;
//! * virtual durations come from the same service-time and
//!   [`WorkModel`](amada_cloud::WorkModel) conversions the simulated
//!   warehouse charges: a query's reads run on the query processor's own
//!   fetch clock, loader work is serialized on one core and divided
//!   across the configured pool;
//! * money comes from the Section 7.3 formulas ([`CostModel`]).
//!
//! What micro-execution deliberately leaves out: queue contention between
//! pool cores, SQS round-trip latencies, and commit-path retries. Those
//! are second-order for cost (the bill is dominated by operation counts
//! and compute time, both exact here), which is why the estimates carry a
//! stated tolerance — [`ESTIMATE_TOLERANCE`] — against measured
//! deployments, pinned by this module's tests.
//!
//! A cold or heavily churning workload is honestly advised not to index
//! at all. The advice is whole-corpus, like the warehouse it advises: a
//! warehouse indexes every document under its one configured strategy
//! (`WarehouseConfig::strategy`) in the global tables, and its no-index
//! baseline scans the corpus.

use crate::config::WarehouseConfig;
use crate::cost::CostModel;
use crate::fetch::fetch_timeline;
use crate::metrics::result_payload;
use amada_cloud::{Blob, KvError, KvStore, Money, SimDuration, SimTime, S3};
use amada_index::{
    extract, lookup_pattern_in, placed_item_keys, plan_document, write_entries, Evaluation,
    ExtractCache, Held, LookupOutcome, PatternProbe, QueryLookup, Strategy, WriteSet,
};
use amada_pattern::{join_pattern_results, Query, Tuple};
use amada_xml::{Document, XmlError};
use std::collections::BTreeMap;
use std::convert::Infallible;
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
/// succeed for a ranking to mean anything: a layout that could not be
/// priced fails the request, it is never a silently cheaper choice.
#[derive(Debug, Clone, PartialEq)]
pub enum AdviseError {
    /// The sample document at this URI is not well-formed XML.
    Parse(String, XmlError),
    /// The index store rejected the entries of the sample document at
    /// this URI (a key or an item over the deployment's store limits).
    Store(String, KvError),
    /// The index store rejected the look-up of the query of this name.
    Lookup(String, KvError),
    /// The horizon's months are negative, NaN or infinite.
    Horizon(f64),
}

impl std::fmt::Display for AdviseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::Parse(uri, error) => write!(f, "document {uri} does not parse: {error}"),
            Self::Store(uri, error) => write!(f, "document {uri} cannot be indexed: {error}"),
            Self::Lookup(query, error) => write!(f, "query {query} cannot be looked up: {error}"),
            Self::Horizon(months) => {
                write!(
                    f,
                    "a horizon of {months} months is not a finite, non-negative length"
                )
            }
        }
    }
}

impl std::error::Error for AdviseError {}

/// One query family's load: the query and how many times one workload
/// run executes it.
#[derive(Debug, Clone)]
pub struct FamilyLoad {
    /// The query (from the workload catalog).
    pub query: Query,
    /// Executions per workload run.
    pub arrivals: u64,
}

/// The sample's declared churn per workload run — traffic, like
/// [`FamilyLoad::arrivals`], not a knob. The default replaces nothing.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
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
    /// Measures both over `(uri, replaced xml, next xml)` versions: the write
    /// plan of the next version against what the replaced one stored. A key
    /// is kept or dropped whatever a strategy stores under it, so the
    /// presence index's deletes stand for every strategy's `dropped` — but
    /// not for `rewritten`: what is stored under a kept key decides that.
    pub fn measured<'a>(
        documents: u64,
        versions: impl IntoIterator<Item = (&'a str, &'a str, &'a str)>,
        base: &WarehouseConfig,
    ) -> Result<Churn, AdviseError> {
        let profile = base.backend.clone().open(base.kv_tuning).profile();
        let (mut dropped, mut held) = (0u64, 0u64);
        let (mut written, mut stored) = ([0u64; 4], [0u64; 4]);
        for (uri, replaced, next) in versions {
            let parse = |xml| {
                Document::parse_str(uri, xml).map_err(|e| AdviseError::Parse(uri.to_string(), e))
            };
            let (replaced, next) = (parse(replaced)?, parse(next)?);
            for (at, strategy) in Strategy::ALL.into_iter().enumerate() {
                let set_of =
                    |doc| WriteSet::encode(&extract(doc, strategy, base.extract), &profile, uri);
                let mut old = Held::default();
                let recorded = placed_item_keys(&set_of(&replaced));
                old.items
                    .extend(recorded.into_iter().map(|(key, v)| (key, Some(v))));
                let plan = plan_document(&set_of(&next), &profile, Some(&mut old))
                    .map_err(|e| AdviseError::Store(uri.to_string(), e))?;
                written[at] += plan.items();
                stored[at] += plan.items() + plan.unchanged;
                if strategy == Strategy::Lu {
                    let deleted = plan.deletes.iter().map(|(_, keys)| keys.len() as u64);
                    dropped += deleted.sum::<u64>();
                    held += old.items.len() as u64;
                }
            }
        }
        let share = |part: u64, of: u64| part as f64 / of.max(1) as f64;
        Ok(Churn {
            documents,
            dropped: share(dropped, held),
            rewritten: std::array::from_fn(|at| share(written[at], stored[at])),
        })
    }
}

/// The projection horizon.
#[derive(Debug, Clone, Copy)]
pub struct Horizon {
    /// Workload runs expected over the horizon (each run executes every
    /// family `arrivals` times).
    pub expected_runs: u32,
    /// Storage horizon in months: finite and non-negative, or the advisor
    /// answers [`AdviseError::Horizon`].
    pub months: f64,
}

/// Cost projection for one layout.
#[derive(Debug, Clone)]
pub struct PlanEstimate {
    /// The strategy indexing the whole corpus, `None` for no index.
    pub strategy: Option<Strategy>,
    /// Build-phase bill (`ci$` minus the upload term every layout pays
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
    /// retraction plus re-indexing of the replaced documents. The scan
    /// layout churns free.
    pub maintenance_per_run: Money,
    /// `build + runs × (run + maintenance) + months × storage`.
    pub projected_total: Money,
}

impl PlanEstimate {
    /// The layout's name: its strategy's, or `scan`. Doubles as the
    /// deterministic tie-break key of [`advise`]'s ranking.
    pub fn label(&self) -> &'static str {
        self.strategy.map_or("scan", Strategy::name)
    }
}

/// One layout's micro-build over the whole sample: its scratch index store
/// and the loader-side numbers.
struct Build {
    /// The layout's scratch index (empty for "scan").
    kv: Box<dyn KvStore>,
    /// Virtual end of the build — look-ups start here.
    built_at: SimTime,
    /// Index put operations.
    puts: u64,
    /// Bytes stored in the index tables.
    stored_bytes: u64,
    /// Loader serial time (fetch + parse + extract + write) for the
    /// sample.
    serial: SimDuration,
    /// Per document, in sample order, `(index puts, loader serial)`, for
    /// the churn math.
    per_doc: Vec<(u64, SimDuration)>,
}

/// The scenario state every layout scored against it shares: stored sample
/// documents (parsed, extracted and evaluated through [`ExtractCache`], as
/// loaders and query cores are), their micro-measured fetch latencies, the
/// horizon and the cost model.
struct Scenario<'a> {
    /// The sample's URIs, in sample order.
    uris: Vec<String>,
    blobs: BTreeMap<String, Arc<Blob>>,
    fetch: BTreeMap<String, SimDuration>,
    /// The file store's latency, the tail of each fetch.
    latency: SimDuration,
    corpus_bytes: u64,
    base: &'a WarehouseConfig,
    horizon: Horizon,
    cost: CostModel,
}

impl<'a> Scenario<'a> {
    fn new(
        sample: &[(String, String)],
        horizon: &Horizon,
        base: &'a WarehouseConfig,
    ) -> Result<Scenario<'a>, AdviseError> {
        if !(horizon.months >= 0.0 && horizon.months.is_finite()) {
            return Err(AdviseError::Horizon(horizon.months));
        }
        let mut s3 = S3::new();
        s3.create_bucket("sample");
        let mut uris = Vec::with_capacity(sample.len());
        let mut blobs = BTreeMap::new();
        let mut fetch = BTreeMap::new();
        let mut corpus_bytes = 0u64;
        let mut t = SimTime::ZERO;
        for (uri, xml) in sample {
            (ExtractCache::shared().try_parsed(uri, xml.as_bytes()))
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
            blobs.insert(uri.clone(), bytes);
            uris.push(uri.clone());
        }
        Ok(Scenario {
            uris,
            blobs,
            fetch,
            latency: s3.latency(),
            corpus_bytes,
            base,
            horizon: *horizon,
            cost: CostModel::new(base.prices.clone()),
        })
    }

    /// The VM bill for `serial` compute, perfectly balanced across a
    /// pool: rate × serial ÷ cores, independent of the instance count.
    fn vm(&self, serial: SimDuration, itype: amada_cloud::InstanceType, cores: usize) -> Money {
        self.cost
            .prices
            .vm_hour(itype)
            .per_hour(serial.micros() / cores as u64)
    }

    /// Micro-builds the sample under one strategy (or none): every
    /// document flows through the loader (fetch + parse) even when the
    /// layout indexes nothing; an indexed layout also extracts and writes
    /// its entries into the global tables of its own scratch store.
    fn build(&self, strategy: Option<Strategy>) -> Result<Build, AdviseError> {
        let work = &self.base.work;
        let lecu = self.base.loader_pool.itype.ecu_per_core();
        let mut kv = self.base.backend.clone().open(self.base.kv_tuning);
        let mut t = SimTime::ZERO;
        let mut serial = SimDuration::ZERO;
        let mut puts = 0u64;
        let mut per_doc = Vec::with_capacity(self.uris.len());
        for uri in &self.uris {
            let blob = &self.blobs[uri];
            let mut serial_doc = self.fetch[uri] + work.parse(blob.len() as u64, lecu);
            let mut doc_puts = 0u64;
            if let Some(strategy) = strategy {
                let (opts, profile) = (self.base.extract, kv.profile());
                let set = (ExtractCache::shared())
                    .write_set(uri, blob, strategy, opts, &profile)
                    .map_err(|e| AdviseError::Parse(uri.clone(), e))?;
                serial_doc += work.extract(set.raw_bytes, lecu);
                let before = kv.stats().put_ops;
                let (_m, ready) = write_entries(kv.as_mut(), t, &set)
                    .map_err(|e| AdviseError::Store(uri.clone(), e))?;
                serial_doc += ready - t;
                t = ready;
                doc_puts = kv.stats().put_ops - before;
                puts += doc_puts;
            }
            serial += serial_doc;
            per_doc.push((doc_puts, serial_doc));
        }
        Ok(Build {
            puts,
            stored_bytes: kv.stats().stored_bytes(),
            built_at: t,
            kv,
            serial,
            per_doc,
        })
    }

    /// One query's per-pattern look-ups, each issued when the build ended
    /// and timed as if from [`SimTime::ZERO`]: against the layout's
    /// scratch index, or — for the scan — every sample document a
    /// candidate of every pattern, with no store call.
    fn lookup(
        &self,
        build: &mut Build,
        strategy: Option<Strategy>,
        query: &Query,
    ) -> Result<Vec<LookupOutcome>, AdviseError> {
        let Some(strategy) = strategy else {
            let mut uris: Vec<Arc<str>> = self.uris.iter().map(|u| Arc::from(u.as_str())).collect();
            uris.sort_unstable();
            uris.dedup();
            let scan = LookupOutcome {
                uris,
                ..Default::default()
            };
            return Ok(vec![scan; query.patterns.len()]);
        };
        let t0 = build.built_at;
        let name = query.name.clone().unwrap_or_default();
        (query.patterns.iter())
            .map(|p| {
                let o = lookup_pattern_in(build.kv.as_mut(), t0, strategy, self.base.extract, p)
                    .map_err(|e| AdviseError::Lookup(name.clone(), e))?;
                Ok(LookupOutcome {
                    ready_at: SimTime::ZERO + (o.ready_at.max(t0) - t0),
                    ..o
                })
            })
            .collect()
    }

    /// Scores one layout (see the module docs for exactly what is measured
    /// and what is modeled).
    fn estimate(
        &self,
        strategy: Option<Strategy>,
        workload: &[FamilyLoad],
        churn: &Churn,
    ) -> Result<PlanEstimate, AdviseError> {
        let work = &self.base.work;
        let lpool = self.base.loader_pool;
        let lcores = lpool.itype.cores();
        let qitype = self.base.query_pool.itype;
        let (qcores, qecu) = (qitype.cores(), qitype.ecu_per_core());

        // ---- Build + storage. ----
        let mut build = self.build(strategy)?;
        let n_docs = self.uris.len() as u64;
        let build_cost = self.cost.prices.idx_put * build.puts
            + self.cost.prices.st_get * n_docs
            + self.vm(build.serial, lpool.itype, lcores)
            + self.cost.prices.qs_request * (2 * n_docs);
        let storage_per_month = self
            .cost
            .monthly_storage(self.corpus_bytes, build.stored_bytes);

        // ---- Queries: each family's look-ups and the memoized twig
        // evaluations of its candidates. ----
        let mut run_cost = Money::ZERO;
        let mut index_get_ops = 0u64;
        let mut result_sizes = Vec::with_capacity(workload.len());
        for fam in workload {
            let npat = fam.query.patterns.len();
            let looked_up = self.lookup(&mut build, strategy, &fam.query)?;
            let mut lookup_get = SimDuration::ZERO;
            for o in &looked_up {
                lookup_get += o.ready_at - SimTime::ZERO;
            }
            let lookup = QueryLookup::of(looked_up);
            let get_ops = lookup.get_ops();
            let plan_time = work.plan(lookup.entries_processed(), qecu);
            // Transfer + evaluate on the query processor's clock, over the
            // measured fetches; then the join, divided across the cores.
            let mut per_pattern: Vec<Vec<Arc<Evaluation>>> = vec![Vec::new(); npat];
            let mut probes: Vec<_> = fam.query.patterns.iter().map(PatternProbe::new).collect();
            let (start, reads) = (SimTime::ZERO, lookup.uris.len());
            let Ok(fetched) = fetch_timeline(start, qcores, self.latency, reads, |i, at| {
                let (uri, blob) = (&lookup.uris[i], &self.blobs[&*lookup.uris[i]]);
                let mut compute = work.parse(blob.len() as u64, qecu);
                for (p, candidates) in lookup.per_pattern.iter().enumerate() {
                    if candidates.uris.binary_search(uri).is_ok() {
                        let evaluated = ExtractCache::shared().evaluated(uri, blob, &mut probes[p]);
                        compute += work.eval(evaluated.1.candidates, qecu);
                        per_pattern[p].push(evaluated);
                    }
                }
                Ok::<_, Infallible>((at + self.fetch[&**uri], compute))
            });
            let per_pattern: Vec<Vec<&Tuple>> = (per_pattern.iter())
                .map(|evaluated| evaluated.iter().flat_map(|e| &e.0).collect())
                .collect();
            let tuple_count: u64 = per_pattern.iter().map(|v| v.len() as u64).sum();
            let results = join_pattern_results(&fam.query, &per_pattern);
            let result_bytes = result_payload(&results).len() as u64;
            let join = work.plan(tuple_count, qecu) + work.materialize(result_bytes, qecu);
            let wall = (fetched - start) + SimDuration::from_micros(join.micros() / qcores as u64);
            let ptq = lookup_get + plan_time + wall;
            let fetched = lookup.uris.len() as u64;
            let per_query = self
                .cost
                .query_indexed(result_bytes, get_ops, fetched, ptq, qitype);
            run_cost += per_query * fam.arrivals;
            result_sizes.push(result_bytes);
            index_get_ops += get_ops * fam.arrivals;
        }

        // ---- Maintenance: per run, the declared churn re-indexes the
        // first `churn.documents` sample documents: the rewritten share of
        // the next version's entries put (a kept item of unchanged value
        // is left alone), the dropped share retracted, both index
        // writes. ----
        let at = Strategy::ALL.iter().position(|s| Some(*s) == strategy);
        let written = at.map_or(1.0, |at| churn.rewritten[at]) + churn.dropped;
        let written_ppm = (written * 1e6).round() as u64;
        let mut maintenance = Money::ZERO;
        for &(puts, serial_doc) in build.per_doc.iter().take(churn.documents as usize) {
            if puts == 0 {
                continue; // the scan layout churns free
            }
            let rewrite = self.cost.prices.idx_put * puts;
            maintenance += rewrite.scaled(written_ppm, 1_000_000)
                + self.cost.prices.st_get
                + self.cost.prices.qs_request * 2
                + self.vm(serial_doc, lpool.itype, lcores);
        }

        let projected_total = build_cost
            + (run_cost + maintenance) * self.horizon.expected_runs as u64
            + months_scaled(storage_per_month, self.horizon.months);
        Ok(PlanEstimate {
            strategy,
            build_cost,
            storage_per_month,
            run_cost,
            index_get_ops,
            result_bytes: result_sizes,
            maintenance_per_run: maintenance,
            projected_total,
        })
    }
}

/// Scales a monthly charge to a fractional-month horizon exactly: the
/// horizon resolves to micro-months and applies with round-half-up
/// integer scaling ([`Money::scaled`]), so a horizon billed in N slices
/// sums within a pico per slice of the aggregate. (Scaling through an
/// `f64` cast truncated and drifted above ~2⁵³ pico — ~$9k/month.)
/// `months` is finite and non-negative: [`Scenario::new`] checked it.
fn months_scaled(per_month: Money, months: f64) -> Money {
    per_month.scaled((months * 1e6).round() as u64, 1_000_000)
}

/// Scores one layout — `strategy` over the whole corpus, `None` for no
/// index — against a sample and weighted workload without running a
/// deployment. See the module docs for the method and
/// [`ESTIMATE_TOLERANCE`] for the accuracy contract.
pub fn estimate_plan(
    sample: &[(String, String)],
    strategy: Option<Strategy>,
    workload: &[FamilyLoad],
    churn: &Churn,
    horizon: &Horizon,
    base: &WarehouseConfig,
) -> Result<PlanEstimate, AdviseError> {
    Scenario::new(sample, horizon, base)?.estimate(strategy, workload, churn)
}

/// Runs the advisor: scores the five flat layouts — [`Strategy::ALL`],
/// then no index — and returns them ranked by ascending projected total,
/// ties in label order, so the recommendation comes first.
///
/// * `sample` — representative documents `(uri, xml)`;
/// * `workload` — the query families with their executions per run;
/// * `churn` — the sample documents replaced per workload run and the
///   shares of their items a next version drops and rewrites;
/// * `horizon` — runs and months;
/// * `base` — deployment parameters (pools, prices, store, work model).
pub fn advise(
    sample: &[(String, String)],
    workload: &[FamilyLoad],
    churn: &Churn,
    horizon: &Horizon,
    base: &WarehouseConfig,
) -> Result<Vec<PlanEstimate>, AdviseError> {
    let scenario = Scenario::new(sample, horizon, base)?;
    let layouts = Strategy::ALL.into_iter().map(Some).chain([None]);
    let mut ranked = layouts
        .map(|s| scenario.estimate(s, workload, churn))
        .collect::<Result<Vec<_>, _>>()?;
    ranked.sort_by_key(|e| (e.projected_total, e.label()));
    Ok(ranked)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::warehouse::Warehouse;
    use amada_xmark::{generate_corpus, workload_query, CorpusConfig};

    /// Eighteen documents under three URI prefixes; every layout indexes
    /// them all in the global tables.
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

    /// Selective traffic dominates: the point query arrives six times a
    /// run, the low-selectivity query once.
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

    fn horizon(runs: u32) -> Horizon {
        Horizon {
            expected_runs: runs,
            months: 1.0,
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

    /// Measures a real deployment of `strategy` on `base` end to end,
    /// `churn` read as the estimator reads it (the first so many documents
    /// in sample order).
    fn measured(
        base: &WarehouseConfig,
        strategy: Strategy,
        workload: &[FamilyLoad],
        churn: &Churn,
    ) -> Measured {
        let mut cfg = base.clone();
        cfg.strategy = strategy;
        let mut w = Warehouse::new(cfg);
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
        let churned = sample_seeded(0xC0DE)
            .into_iter()
            .take(churn.documents as usize);
        w.upload_documents(churned);
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
    /// The churn round replaces the whole sample, 18 documents for the
    /// default loader pool's 16 cores; the last assertion pins the other
    /// side of that regime.
    #[test]
    fn estimates_track_measured_deployments() {
        let base = WarehouseConfig::default();
        let workload = workload();
        let dropped = regenerated(0).dropped;
        assert!(0.0 < dropped && dropped < 1.0, "{dropped}");
        let strategy = Strategy::Lup;
        let whole = regenerated(sample().len() as u64);
        let est = estimate_plan(
            &sample(),
            Some(strategy),
            &workload,
            &whole,
            &horizon(10),
            &base,
        )
        .unwrap();
        assert_eq!(est.label(), "LUP");
        let m = measured(&base, strategy, &workload, &whole);
        assert!(
            rel_diff(est.storage_per_month, m.storage) <= 0.02,
            "storage est {} vs measured {}",
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
                "{what} est {est} vs measured {measured}"
            );
        }
        assert_eq!(est.index_get_ops, m.index_get_ops);
        // One function states the result payload for both sides.
        assert_eq!(est.result_bytes, m.result_bytes);
        assert!(est.result_bytes.iter().any(|&b| b > 0));

        // The other side of the regime: a round smaller than the loader
        // pool is under-estimated beyond the tolerance, because the
        // deployment bills every loader instance for the whole rebuild
        // phase while the estimate bills only the cores the work fills.
        let few = regenerated(2);
        let est = estimate_plan(&sample(), Some(strategy), &[], &few, &horizon(10), &base);
        let est = est.unwrap().maintenance_per_run;
        let m = measured(&base, strategy, &[], &few).maintenance;
        assert!(
            est < m && rel_diff(est, m) > ESTIMATE_TOLERANCE,
            "two-document round est {est} vs measured {m}"
        );
    }

    /// The scratch index is the deployment's own store, so the storage
    /// estimate follows the measured deployment wherever the service
    /// takes it — and the default DynamoDB's estimate misses both. A
    /// string-only DynamoDB stores more (ID lists become base64 chunks
    /// under the same 100 B per item); SimpleDB stores *less* on a sample
    /// this small, where one-value items pay 45 B of overhead instead of
    /// 100 B.
    #[test]
    fn estimates_price_the_deployments_own_store() {
        let workload = workload();
        let strategy = Strategy::TwoLupi;
        let estimate = |base: &WarehouseConfig| {
            let churn = Churn::default();
            estimate_plan(
                &sample(),
                Some(strategy),
                &workload,
                &churn,
                &horizon(10),
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
            let storage = measured(base, strategy, &workload, &Churn::default()).storage;
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

    /// The paper's own question — one strategy, or none, for the whole
    /// corpus — over a sample of bare URIs, every query arriving once per
    /// run, a fraction of the sample replaced per run.
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

    fn advise_static(queries: &[&str], runs: u32, churn_per_run: f64) -> Vec<PlanEstimate> {
        let sample = static_sample();
        let workload: Vec<FamilyLoad> = queries
            .iter()
            .map(|n| FamilyLoad {
                query: workload_query(n).unwrap(),
                arrivals: 1,
            })
            .collect();
        let replaced = (sample.len() as f64 * churn_per_run).ceil() as u64;
        let churn = regenerated(replaced);
        let base = WarehouseConfig::default();
        advise(&sample, &workload, &churn, &horizon(runs), &base).unwrap()
    }

    fn indexing_pays_off(ranked: &[PlanEstimate]) -> bool {
        ranked[0].strategy.is_some()
    }

    #[test]
    fn the_ranking_covers_every_uniform_layout_and_scan() {
        let ranked = advise_static(&["q1", "q6"], 500, 0.0);
        // Four paper strategies + the no-index layout.
        assert_eq!(ranked.len(), 5);
        let scans: Vec<_> = ranked.iter().filter(|e| e.strategy.is_none()).collect();
        assert_eq!(scans.len(), 1);
        // Ranking is ascending in projected total; the choice leads it.
        for w in ranked.windows(2) {
            assert!(w[0].projected_total <= w[1].projected_total);
        }
        // Over enough runs, indexing must beat scanning (the sample corpus
        // is tiny, so break-even needs many more runs than at real scale).
        assert!(indexing_pays_off(&ranked));
        // The scan row is the no-index baseline: no look-ups, no index
        // bytes stored, nothing to maintain — its documents still pass
        // through the loader, which is all its build phase bills.
        let scan = scans[0];
        assert_eq!(scan.label(), "scan");
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
        for e in &ranked {
            assert!(scan.build_cost <= e.build_cost, "{}", e.label());
        }
    }

    #[test]
    fn cold_workloads_are_advised_not_to_index() {
        // One expected run over a tiny corpus: the build cost can never be
        // amortized, so the honest recommendation is "index nothing".
        let ranked = advise_static(&["q1"], 1, 0.0);
        assert!(!indexing_pays_off(&ranked), "{}", ranked[0].label());
        assert_eq!(ranked[0].strategy, None);
    }

    #[test]
    fn heavy_churn_flips_the_advice_to_index_nothing() {
        // Enough runs that indexing pays on a static corpus...
        let calm = advise_static(&["q1", "q6"], 500, 0.0);
        assert!(indexing_pays_off(&calm));
        // ...but with the whole corpus replaced between runs, every run's
        // savings are spent re-indexing, and scanning wins the horizon.
        let stormy = advise_static(&["q1", "q6"], 500, 1.0);
        assert!(!indexing_pays_off(&stormy), "{}", stormy[0].label());
        // Maintenance is billed to indexed layouts only, and a calm
        // horizon charges none at all.
        for e in &stormy {
            assert_eq!(
                e.maintenance_per_run > Money::ZERO,
                e.strategy.is_some(),
                "{}",
                e.label()
            );
        }
        for e in &calm {
            assert_eq!(e.maintenance_per_run, Money::ZERO, "{}", e.label());
        }
    }

    #[test]
    fn heavier_indexes_cost_more_to_build() {
        let ranked = advise_static(&["q2"], 10, 0.0);
        let by = |label: &str| {
            let row = ranked.iter().find(|e| e.label() == label);
            row.unwrap_or_else(|| panic!("no {label} row")).build_cost
        };
        assert!(by("LU") < by("LUP"));
        assert!(by("LUP") < by("2LUPI"));
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

    /// A horizon no bill can be scaled to — negative, NaN or infinite
    /// months — is a typed error from both entry points, never a panic;
    /// zero months prices no storage at all.
    #[test]
    fn an_absurd_horizon_is_a_typed_error_instead_of_a_panic() {
        let (sample, workload, churn) = (static_sample(), workload(), Churn::default());
        let base = WarehouseConfig::default();
        for months in [-1.0, f64::NAN, f64::INFINITY] {
            let horizon = Horizon {
                expected_runs: 10,
                months,
            };
            let err = advise(&sample, &workload, &churn, &horizon, &base).unwrap_err();
            assert!(matches!(err, AdviseError::Horizon(m) if m.to_bits() == months.to_bits()));
            assert!(err.to_string().contains(&months.to_string()), "{err}");
            let one = estimate_plan(&sample, None, &workload, &churn, &horizon, &base);
            assert!(matches!(one, Err(AdviseError::Horizon(_))), "{one:?}");
        }
        let none = Horizon {
            expected_runs: 10,
            months: 0.0,
        };
        let scan = estimate_plan(&sample, None, &workload, &churn, &none, &base).unwrap();
        assert_eq!(scan.projected_total, scan.build_cost + scan.run_cost * 10);
    }

    /// A sample the advisor cannot price is a typed error naming the
    /// document, never a panic and never a ranking without the layouts
    /// that failed: truncated XML fails the parse, an element name over
    /// the index store's key limit fails every indexed layout's
    /// micro-build (the scan layout alone would have "won").
    #[test]
    fn malformed_sample_reports_a_typed_error_instead_of_panicking() {
        let workload = vec![FamilyLoad {
            query: workload_query("q1").unwrap(),
            arrivals: 1,
        }];
        let churn = Churn::default();
        let base = WarehouseConfig::default();
        let advice_for =
            |docs: &[(String, String)]| advise(docs, &workload, &churn, &horizon(10), &base);
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
            // Scoring one layout reports the same error.
            let lup = Some(Strategy::Lup);
            let one = estimate_plan(&docs, lup, &workload, &churn, &horizon(10), &base);
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
        let advice = advise(&static_sample(), &families, &churn, &horizon(10), &base);
        assert!(advice.is_ok(), "{advice:?}");
        // A clean sample still succeeds.
        assert!(advice_for(&static_sample()).is_ok());
    }
}
