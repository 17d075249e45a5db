//! The index advisor — the paper's stated future work ("the development of
//! a platform and index advisor tool, which based on the expected dataset
//! and workload, estimates an application's performance and cost and picks
//! the best indexing strategy to use", Section 9).
//!
//! [`advise`] scores the five flat layouts — LU, LUP, LUI, 2LUPI and no
//! index at all (scan), each over the whole corpus — for a sample of the
//! corpus, a weighted workload and the next versions of the sample
//! documents one workload run replaces, and ranks them by their projected
//! cost over a horizon. It prices a layout by deploying it on the sample:
//! a [`Warehouse`] on the caller's configuration uploads the sample, builds
//! the layout's index, runs each query family once and rebuilds after the
//! replaced versions, and the projection is what that deployment was
//! billed. There is no second model of the warehouse to drift from it.
//!
//! A cold or heavily churning workload is honestly advised not to index
//! at all. The advice is whole-corpus, like the warehouse it advises: a
//! warehouse indexes every document under its one configured strategy
//! (`WarehouseConfig::strategy`) in the global tables, and its no-index
//! baseline scans the corpus.

use crate::config::WarehouseConfig;
use crate::warehouse::Warehouse;
use amada_cloud::{KvError, Money};
use amada_index::{plan_document, ExtractCache, Strategy};
use amada_pattern::Query;
use amada_xml::XmlError;

/// Why the advisor could not price a sample. A document the deployment's
/// loader would dead-letter fails the request: a layout that could not be
/// priced is never a silently cheaper choice.
#[derive(Debug, Clone, PartialEq)]
pub enum AdviseError {
    /// The sample document (or replaced version) at this URI is not
    /// well-formed XML.
    Parse(String, XmlError),
    /// The index store cannot hold the entries of the sample document (or
    /// replaced version) at this URI (a key or an item over the
    /// deployment's store limits).
    Store(String, KvError),
    /// The horizon's months are negative, NaN or infinite.
    Horizon(f64),
}

impl std::fmt::Display for AdviseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::Parse(uri, error) => write!(f, "document {uri} does not parse: {error}"),
            Self::Store(uri, error) => write!(f, "document {uri} cannot be indexed: {error}"),
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
    /// What building the sample's index billed (`ci$` minus the upload
    /// term every layout pays identically): index puts, document fetches,
    /// the loader pool, task messaging. The scan layout builds nothing.
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
    /// Index maintenance per run: what rebuilding after the replaced
    /// versions billed (stale-entry retraction plus re-indexing). The scan
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

/// Scales a monthly charge to a fractional-month horizon exactly: the
/// horizon resolves to micro-months and applies with round-half-up
/// integer scaling ([`Money::scaled`]), so a horizon billed in N slices
/// sums within a pico per slice of the aggregate. (Scaling through an
/// `f64` cast truncated and drifted above ~2⁵³ pico — ~$9k/month.)
/// `months` is finite and non-negative: [`estimate_plan`] checked it.
fn months_scaled(per_month: Money, months: f64) -> Money {
    per_month.scaled((months * 1e6).round() as u64, 1_000_000)
}

/// What the deployment's loader would dead-letter, as a typed error naming
/// the document: bytes that are not XML and, for an indexed layout, a write
/// plan over the store's limits — asked of the memo the loader reads, just
/// before the upload, so the loader finds it warm.
fn check(
    docs: &[(String, String)],
    strategy: Option<Strategy>,
    w: &Warehouse,
) -> Result<(), AdviseError> {
    let (cache, profile) = (ExtractCache::shared(), w.world().kv.profile());
    for (uri, xml) in docs {
        let parse = |e| AdviseError::Parse(uri.clone(), e);
        cache.try_parsed(uri, xml.as_bytes()).map_err(parse)?;
        if let Some(strategy) = strategy {
            let opts = w.config().extract;
            let set = cache.write_set(uri, xml.as_bytes(), strategy, opts, &profile);
            let set = set.map_err(parse)?;
            plan_document(&set, &profile, &[]).map_err(|e| AdviseError::Store(uri.clone(), e))?;
        }
    }
    Ok(())
}

/// Scores one layout — `strategy` over the whole corpus, `None` for no
/// index — by deploying it on `base`: uploads the sample, builds the index
/// (not for the scan layout), reads the monthly storage, runs each family
/// once and bills it `arrivals` times, then uploads the `replaced`
/// versions and bills the rebuild. Each batch is checked before its upload.
fn estimate_plan(
    sample: &[(String, String)],
    strategy: Option<Strategy>,
    workload: &[FamilyLoad],
    replaced: &[(String, String)],
    horizon: &Horizon,
    base: &WarehouseConfig,
) -> Result<PlanEstimate, AdviseError> {
    if !(horizon.months >= 0.0 && horizon.months.is_finite()) {
        return Err(AdviseError::Horizon(horizon.months));
    }
    let mut cfg = base.clone();
    cfg.strategy = strategy.unwrap_or(cfg.strategy);
    let mut w = Warehouse::new(cfg);
    check(sample, strategy, &w)?;
    w.upload_documents(sample.iter().cloned());
    let build_cost = match strategy {
        Some(_) => w.build_index().cost.total(),
        None => Money::ZERO,
    };
    let storage_per_month = w.storage_cost().total();
    let (mut run_cost, mut index_get_ops) = (Money::ZERO, 0);
    let mut result_bytes = Vec::with_capacity(workload.len());
    for fam in workload {
        let r = match strategy {
            Some(_) => w.run_query(&fam.query),
            None => w.run_query_no_index(&fam.query),
        };
        run_cost += r.cost.total() * fam.arrivals;
        index_get_ops += r.exec.index_get_ops * fam.arrivals;
        result_bytes.push(r.exec.result_bytes);
    }
    check(replaced, strategy, &w)?;
    let maintenance_per_run = match strategy {
        Some(_) if !replaced.is_empty() => {
            w.upload_documents(replaced.iter().cloned());
            w.build_index().cost.total()
        }
        _ => Money::ZERO,
    };
    let projected_total = build_cost
        + (run_cost + maintenance_per_run) * horizon.expected_runs as u64
        + months_scaled(storage_per_month, horizon.months);
    Ok(PlanEstimate {
        strategy,
        build_cost,
        storage_per_month,
        run_cost,
        index_get_ops,
        result_bytes,
        maintenance_per_run,
        projected_total,
    })
}

/// Runs the advisor: scores the five flat layouts — [`Strategy::ALL`],
/// then no index — and returns them ranked by ascending projected total,
/// ties in label order, so the recommendation comes first.
///
/// * `sample` — representative documents `(uri, xml)`;
/// * `workload` — the query families with their executions per run;
/// * `replaced` — the next versions `(uri, xml)` of the sample documents
///   one workload run replaces (`&[]` for none);
/// * `horizon` — runs and months;
/// * `base` — deployment parameters (query pool, store, extraction, faults,
///   retries); every layout is deployed on it with its own strategy.
pub fn advise(
    sample: &[(String, String)],
    workload: &[FamilyLoad],
    replaced: &[(String, String)],
    horizon: &Horizon,
    base: &WarehouseConfig,
) -> Result<Vec<PlanEstimate>, AdviseError> {
    // The deployments share only the thread-safe memo, so they run side
    // by side; gathered in layout order, the first error is the one a
    // sequential run would meet first.
    let layouts: Vec<Option<Strategy>> =
        Strategy::ALL.into_iter().map(Some).chain([None]).collect();
    let mut ranked = amada_par::par_map(&layouts, |_, &s| {
        estimate_plan(sample, s, workload, replaced, horizon, base)
    })
    .into_iter()
    .collect::<Result<Vec<_>, _>>()?;
    ranked.sort_by_key(|e| (e.projected_total, e.label()));
    Ok(ranked)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost;
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

    /// The next versions of the first `documents` sample documents: the
    /// same slots under another seed.
    fn regenerated(documents: usize) -> Vec<(String, String)> {
        sample_seeded(0xC0DE).into_iter().take(documents).collect()
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
    /// then rebuilds after the `replaced` versions.
    fn measured(
        base: &WarehouseConfig,
        strategy: Strategy,
        workload: &[FamilyLoad],
        replaced: &[(String, String)],
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
        w.upload_documents(replaced.iter().cloned());
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

    /// The projection is the deployment's bill: build, per-run,
    /// maintenance and storage agree with a measured deployment to the
    /// picodollar, as do the index gets of a run — both when the churn
    /// round replaces the whole sample and in a two-document round, fewer
    /// documents than the default loader pool has cores.
    #[test]
    fn estimates_track_measured_deployments() {
        let base = WarehouseConfig::default();
        let workload = workload();
        let strategy = Strategy::Lup;
        let whole = regenerated(sample().len());
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
        for (what, est, measured) in [
            ("storage", est.storage_per_month, m.storage),
            ("build", est.build_cost, m.build),
            ("run", est.run_cost, m.run),
            ("maintenance", est.maintenance_per_run, m.maintenance),
        ] {
            assert_eq!(est, measured, "{what}");
        }
        assert_eq!(est.index_get_ops, m.index_get_ops);
        // One function states the result payload for both sides.
        assert_eq!(est.result_bytes, m.result_bytes);
        assert!(est.result_bytes.iter().any(|&b| b > 0));

        // A round smaller than the loader pool: the deployment bills every
        // loader instance for the whole rebuild phase, and so does the
        // projection.
        let few = regenerated(2);
        let est = estimate_plan(&sample(), Some(strategy), &[], &few, &horizon(10), &base);
        let est = est.unwrap().maintenance_per_run;
        let m = measured(&base, strategy, &[], &few).maintenance;
        assert!(est > Money::ZERO);
        assert_eq!(est, m, "two-document round");
    }

    /// The deployment's own store prices the storage, so the estimate
    /// follows the measured deployment wherever the service takes it — and
    /// the default DynamoDB's estimate misses both. A
    /// string-only DynamoDB stores more (ID lists become base64 chunks
    /// under the same 100 B per item); SimpleDB stores *less* on a sample
    /// this small, where one-value items pay 45 B of overhead instead of
    /// 100 B.
    #[test]
    fn estimates_price_the_deployments_own_store() {
        let workload = workload();
        let strategy = Strategy::TwoLupi;
        let estimate = |base: &WarehouseConfig| {
            estimate_plan(
                &sample(),
                Some(strategy),
                &workload,
                &[],
                &horizon(10),
                base,
            )
            .unwrap()
            .storage_per_month
        };
        let on_default = estimate(&WarehouseConfig::default());
        let simple = WarehouseConfig {
            backend: amada_cloud::KvBackend::Simple,
            ..WarehouseConfig::default()
        };
        let mut strings = WarehouseConfig::default();
        strings.kv_tuning.force_string_values = true;
        for (name, base) in [("SimpleDB", &simple), ("string-only DynamoDB", &strings)] {
            let est = estimate(base);
            let storage = measured(base, strategy, &workload, &[]).storage;
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
        static_sample_seeded(CorpusConfig::default().seed)
    }

    fn static_sample_seeded(seed: u64) -> Vec<(String, String)> {
        let cfg = CorpusConfig {
            seed,
            num_documents: 25,
            target_doc_bytes: 1200,
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
        let replaced = (sample.len() as f64 * churn_per_run).ceil() as usize;
        let next = static_sample_seeded(0xC0DE);
        let replaced = &next[..replaced];
        let base = WarehouseConfig::default();
        advise(&sample, &workload, replaced, &horizon(runs), &base).unwrap()
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
        // The scan row is the no-index baseline: nothing built, no
        // look-ups, no index bytes stored, nothing to maintain.
        let scan = scans[0];
        assert_eq!(scan.label(), "scan");
        assert_eq!(scan.index_get_ops, 0);
        assert_eq!(scan.maintenance_per_run, Money::ZERO);
        let corpus_bytes = static_sample().iter().map(|(_, x)| x.len() as u64).sum();
        assert_eq!(
            scan.storage_per_month,
            cost::monthly_storage(corpus_bytes, 0)
        );
        assert_eq!(
            scan.projected_total,
            scan.build_cost + scan.run_cost * 500 + scan.storage_per_month
        );
        assert_eq!(scan.build_cost, Money::ZERO);
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
        let (sample, workload) = (static_sample(), workload());
        let base = WarehouseConfig::default();
        for months in [-1.0, f64::NAN, f64::INFINITY] {
            let horizon = Horizon {
                expected_runs: 10,
                months,
            };
            let err = advise(&sample, &workload, &[], &horizon, &base).unwrap_err();
            assert!(matches!(err, AdviseError::Horizon(m) if m.to_bits() == months.to_bits()));
            assert!(err.to_string().contains(&months.to_string()), "{err}");
            let one = estimate_plan(&sample, None, &workload, &[], &horizon, &base);
            assert!(matches!(one, Err(AdviseError::Horizon(_))), "{one:?}");
        }
        let none = Horizon {
            expected_runs: 10,
            months: 0.0,
        };
        let scan = estimate_plan(&sample, None, &workload, &[], &none, &base).unwrap();
        assert_eq!(scan.projected_total, scan.build_cost + scan.run_cost * 10);
    }

    /// A sample the advisor cannot price is a typed error naming the
    /// document, never a panic and never a ranking without the layouts
    /// that failed: truncated XML fails the parse — in the sample or in a
    /// replaced version — and an element name over the index store's key
    /// limit fails every indexed layout (the scan layout alone would have
    /// "won"). The deployment's loader would dead-letter each of them.
    #[test]
    fn malformed_sample_reports_a_typed_error_instead_of_panicking() {
        let workload = vec![FamilyLoad {
            query: workload_query("q1").unwrap(),
            arrivals: 1,
        }];
        let base = WarehouseConfig::default();
        let advice_for = |docs: &[(String, String)], replaced: &[(String, String)]| {
            advise(docs, &workload, replaced, &horizon(10), &base)
        };
        let long_name = "n".repeat(3 * 1024);
        let poisons = [
            ("broken.xml", "<open><unclosed>".to_string()),
            ("longname.xml", format!("<{long_name}>x</{long_name}>")),
        ];
        for (uri, xml) in poisons {
            let mut docs = static_sample();
            docs.insert(1, (uri.into(), xml));
            let err = advice_for(&docs, &[]).unwrap_err();
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
            let one = estimate_plan(&docs, lup, &workload, &[], &horizon(10), &base);
            assert_eq!(one.unwrap_err(), err);
        }
        // A truncated next version of a well-formed sample document.
        let sample = static_sample();
        let (uri, xml) = &sample[3];
        let replaced = [(uri.clone(), xml[..xml.len() / 2].to_string())];
        let err = advice_for(&sample, &replaced).unwrap_err();
        assert!(
            matches!(&err, AdviseError::Parse(named, _) if named == uri),
            "{err:?}"
        );
        // An over-long name in a *query* is only ever read, never stored:
        // the look-up finds nothing and the advice stands.
        let mut poison_query = amada_pattern::parse_query(&format!("//{long_name}")).unwrap();
        poison_query.name = Some("poison".into());
        let families = [FamilyLoad {
            query: poison_query,
            arrivals: 1,
        }];
        let advice = advise(&static_sample(), &families, &[], &horizon(10), &base);
        assert!(advice.is_ok(), "{advice:?}");
        // A clean sample still succeeds.
        assert!(advice_for(&static_sample(), &[]).is_ok());
    }
}
