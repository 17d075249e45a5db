//! The adaptive-advisor experiment (`repro advise`, beyond the paper):
//! the ROADMAP's cost-based advisor, closed end to end.
//!
//! Six deployments serve the same heterogeneous six-month horizon (one
//! workload round per month). The corpus is partitioned by what the
//! documents *are* (the generator's document kinds): `people/` holds the
//! person-rooted documents, `items/` the item-heavy bulk whose postings a
//! uniform index would still decode on every person query, and `auc/` the
//! auction feeds — fully replaced by churn every month. The workload
//! **drifts** mid-horizon: for the first three months an auction season
//! is on and the Zipf-skewed open-loop storm mixes the two person twigs
//! (`q6` hot, `q7` warm) with the auction twig `q5`; from month three the
//! season ends and only the person queries remain.
//!
//! * five **static** layouts — the four uniform index strategies plus
//!   the no-index scan — are fixed for the whole horizon;
//! * one **adaptive** deployment starts on the plan the advisor
//!   ([`amada_core::advise_adaptive`]) recommends for the *declared*
//!   season workload, under a monthly storage budget (chosen to exclude
//!   the heavyweight uniform-2LUPI layout) and a mean-response SLO
//!   (which excludes the cheap-but-scan-heavy "index nothing" plans the
//!   dollars-only optimum would pick). It records its own spans and
//!   re-advises monthly from live attribution
//!   ([`amada_core::Warehouse::readvise`]), each time after the month's
//!   churn upload, so that a migration it orders **piggybacks on the churn
//!   rebuild already queued** — no second message, no second key sweep
//!   ([`amada_core::Warehouse::apply_plan`]). It orders none: the plan
//!   that is cheapest while the season lasts is cheapest after it, and
//!   every month — the one the auction traffic vanishes from the
//!   observation window included — confirms it for free.
//!
//! The economics the advisor has to discover: `people/` is always hot and
//! selectively queried, so the precise ID-granularity index pays for
//! itself there; `items/` matches no query, so anything beyond the
//! cheapest presence index is wasted storage and decode ballast; `auc/`
//! is replaced every month, and a rebuild writes only the items whose
//! value changed — under the presence index a feed's new keys, under a
//! path or ID index nearly all of it — so what the season's auction query
//! saves on a precise index is less than the churn then costs, and the
//! presence index answers the season's mix inside the SLO.
//!
//! Every deployment pays the same bills on the same meter: initial index
//! build, per-month query charges, churn maintenance (incremental
//! rebuild + stale-entry retraction, the adaptive row's re-advises and
//! migrations included), and storage billed monthly at each
//! end-of-month footprint. The initial corpus upload is identical
//! everywhere and excluded, which also keeps the measured totals
//! directly comparable to the advisor's projections
//! (`build + runs × (run + maintenance) + months × storage`, upload-free
//! by construction).
//!
//! The tests pin the headline: the adaptive deployment lands strictly
//! cheapest over the horizon, inside the SLO and faster than the cheapest
//! static layout; the SLO demonstrably rejected a cheaper-but-slower
//! plan; no cadence re-advise migrated a document, and the deploy-time
//! projections agree with the measured static deployments within 8 % on
//! the horizon total.

use crate::{corpus, Outcome, Scale, TextTable};
use amada_cloud::{Money, SimDuration};
use amada_core::{
    advise_adaptive, AdaptiveAdvice, ArrivalProcess, Churn, FamilyLoad, Horizon, Warehouse,
    WarehouseConfig,
};
use amada_index::{MixedPlan, Strategy};
use amada_pattern::Query;
use amada_xmark::{generate_document, kind_for, workload_query, DocKind};
use std::collections::BTreeMap;

/// Workload rounds in the horizon — one per month. Each round releases
/// the same seeded open-loop storm; between rounds the churning partition
/// is replaced and the adaptive deployment re-advises.
pub const ROUNDS: usize = 6;

/// The auction season covers rounds `0..DRIFT_AT`; from `DRIFT_AT` on,
/// the auction query disappears from the storm.
pub const DRIFT_AT: usize = 3;

/// The declared mean-response SLO (seconds). Without it the
/// dollars-optimal plan leaves the rarely-queried partitions unindexed
/// and every arrival scans them — cheaper on storage and maintenance,
/// several times slower on response.
pub const RESPONSE_SLO_SECS: f64 = 0.30;

/// The four uniform index strategies measured as static rows (the
/// non-routable LUP-PD variant competes in `repro pushdown`, not here).
pub const STATICS: [Strategy; 4] = [
    Strategy::Lu,
    Strategy::Lup,
    Strategy::Lui,
    Strategy::TwoLupi,
];

/// The storm: gentle (no bursts, no diurnal swing, high base rate so
/// idle-poll time is negligible) but Zipf-skewed, so rank-0 `q6`
/// dominates arrivals and the tail queries trickle in.
fn storm() -> ArrivalProcess {
    ArrivalProcess {
        seed: 0xAD_515E,
        arrivals: 90,
        base_rate_per_sec: 40.0,
        diurnal_amplitude: 0.0,
        diurnal_period: SimDuration::from_secs(60),
        burst_every: SimDuration::from_secs(3600),
        burst_len: SimDuration::from_secs(1),
        burst_factor: 1.0,
        zipf_exponent: 1.1,
    }
}

/// The full query catalog: the two person twigs plus the auction twig.
/// Re-advises match observed families against this.
fn catalog() -> Vec<Query> {
    vec![
        workload_query("q6").expect("q6 exists"),
        workload_query("q5").expect("q5 exists"),
        workload_query("q7").expect("q7 exists"),
    ]
}

/// The storm catalog of one round: in season the auction query rides
/// mid-rank; after the drift only the person queries remain.
fn round_catalog(round: usize) -> Vec<Query> {
    let mut queries = catalog();
    if round >= DRIFT_AT {
        queries.retain(|q| q.name.as_deref() != Some("q5"));
    }
    queries
}

/// The workload the operator declares at deploy time: the season mix,
/// weighted roughly as the Zipf storm will spread its arrivals. The
/// cadence re-advises replace this declaration with *observed* families.
fn declared_families() -> Vec<FamilyLoad> {
    let fam = |name: &str, arrivals: u64| FamilyLoad {
        query: workload_query(name).expect("catalog query exists"),
        arrivals,
    };
    vec![fam("q6", 46), fam("q5", 33), fam("q7", 11)]
}

/// The partition a generated document belongs to, by its kind: the
/// person-rooted documents (the mixed-kind documents carry person
/// sections too, so they route with the people), the item-heavy bulk,
/// and the churning auction feeds.
fn partition_prefix(slot: usize) -> &'static str {
    match kind_for(slot) {
        DocKind::People | DocKind::Mixed => "people/",
        DocKind::Items => "items/",
        DocKind::OpenAuctions | DocKind::ClosedAuctions => "auc/",
    }
}

/// The corpus, re-homed into the three kind-derived partitions.
fn partitioned_corpus(scale: &Scale) -> Vec<(String, String)> {
    corpus(scale)
        .into_iter()
        .enumerate()
        .map(|(i, (uri, xml))| (format!("{}{uri}", partition_prefix(i)), xml))
        .collect()
}

/// `(original corpus slot, uri)` of the documents replaced each round:
/// the whole auction partition (a monthly feed fully superseded between
/// rounds).
fn churn_victims(docs: &[(String, String)]) -> Vec<(usize, String)> {
    docs.iter()
        .enumerate()
        .filter(|(_, (uri, _))| uri.starts_with("auc/"))
        .map(|(i, (uri, _))| (i, uri.clone()))
        .collect()
}

/// One churn round's `(uri, xml)` replacements: the victims' slots
/// regenerated under a round-specific seed (so every replaced document
/// truly changes), under the same URIs. Uploaded, their rebuild rides the
/// next `build_index` — which lets a re-advise issued *after* the upload
/// piggyback its migration on the queued rebuild.
fn churn_versions<'a>(
    scale: &Scale,
    victims: &'a [(usize, String)],
    round: usize,
) -> impl Iterator<Item = (String, String)> + 'a {
    let mut cc = scale.corpus_config();
    cc.seed = scale.seed ^ (round as u64).wrapping_mul(0x9E37_79B9) ^ 0xAD_115E;
    victims
        .iter()
        .map(move |(i, uri)| (uri.clone(), generate_document(&cc, *i).xml))
}

/// One measured deployment.
#[derive(Debug, Clone)]
pub struct AdviseRow {
    /// Row label (`static LUP`, `no index`, `adaptive`).
    pub label: String,
    /// The plan in force at the end of the horizon.
    pub plan: String,
    /// Initial index build.
    pub build: Money,
    /// All query charges across the rounds.
    pub queries: Money,
    /// All churn maintenance (and, for the adaptive row, the re-advises
    /// and migration).
    pub maintenance: Money,
    /// Monthly storage at the end-of-horizon footprint (what the budget
    /// judges).
    pub storage_per_month: Money,
    /// Storage billed over the horizon: the sum of the end-of-month
    /// footprints, one per round.
    pub storage_billed: Money,
    /// Mean response time across every arrival of every round (seconds).
    pub mean_response: f64,
    /// `build + queries + maintenance + storage_billed`.
    pub total: Money,
}

/// Everything the artifact and its tests need from one run.
#[derive(Debug, Clone)]
pub struct AdviseOutcome {
    /// Five static rows then the adaptive row.
    pub rows: Vec<AdviseRow>,
    /// The declared monthly storage budget (just below the uniform-2LUPI
    /// footprint, so the heaviest layout is inadmissible).
    pub budget: Money,
    /// The deploy-time advice for the declared season workload (ranked
    /// projections included) — the plan the adaptive row starts on.
    pub advice: AdaptiveAdvice,
    /// Documents migrated by each monthly cadence re-advise, in order.
    pub cadence_migrations: Vec<u64>,
}

/// Runs one deployment — an empty warehouse, its starting plan applied —
/// through the whole horizon. `readvise` — the declared churn and the
/// horizon with its budget and SLO — makes it the monthly re-advising one.
fn run_deployment(
    label: &str,
    mut w: Warehouse,
    scale: &Scale,
    docs: &[(String, String)],
    victims: &[(usize, String)],
    readvise: Option<(&BTreeMap<String, Churn>, &Horizon)>,
) -> (AdviseRow, Vec<u64>) {
    let process = storm();
    w.upload_documents(docs.iter().cloned());
    let build = w.build_index().cost.total();
    let mut queries = Money::ZERO;
    let mut maintenance = Money::ZERO;
    let mut storage_billed = Money::ZERO;
    let mut responses: Vec<f64> = Vec::new();
    let mut cadence: Vec<u64> = Vec::new();
    for round in 0..ROUNDS {
        let cat = round_catalog(round);
        let rep = w.run_workload_open_loop(&cat, &process);
        queries += rep.cost.total();
        responses.extend(rep.executions.iter().map(|e| e.response_time.as_secs_f64()));
        // The month ends here: bill its storage at the current footprint.
        storage_billed += w.storage_cost().total();
        if round + 1 < ROUNDS {
            let before = w.total_cost().total();
            w.upload_documents(churn_versions(scale, victims, round));
            if let Some((churn, horizon)) = readvise {
                // The monthly cadence, deliberately *after* the churn
                // upload: a migration the re-advise orders piggybacks on
                // the rebuild already queued for the churned documents.
                // Each window is one month of observed traffic; the
                // horizon the advisor prices is the deployment's own.
                let readvice = w
                    .readvise(&catalog(), churn, horizon)
                    .expect("corpus parses");
                cadence.push(readvice.migrated);
            }
            w.build_index();
            maintenance += w.total_cost().total().saturating_sub(before);
        }
    }
    let storage_per_month = w.storage_cost().total();
    let total = build + queries + maintenance + storage_billed;
    let mean_response = responses.iter().sum::<f64>() / responses.len().max(1) as f64;
    let p = w.routing_plan();
    let plan = if p.assignments().is_empty() {
        format!(
            "uniform:{}",
            p.default_strategy().map_or("scan", Strategy::name)
        )
    } else {
        let parts: Vec<String> = p
            .assignments()
            .iter()
            .map(|(part, s)| format!("{part}={}", s.map_or("scan", Strategy::name)))
            .collect();
        parts.join(",")
    };
    let row = AdviseRow {
        label: label.to_string(),
        plan,
        build,
        queries,
        maintenance,
        storage_per_month,
        storage_billed,
        mean_response,
        total,
    };
    (row, cadence)
}

/// Runs all six deployments over the same corpus, storms and churn
/// sequence, then the adaptive one under the derived constraints.
pub fn advise_outcome(scale: &Scale) -> AdviseOutcome {
    let docs = partitioned_corpus(scale);
    let victims = churn_victims(&docs);

    let mut rows = Vec::new();
    for s in STATICS {
        let (row, _) = run_deployment(
            &format!("static {}", s.name()),
            Warehouse::new(WarehouseConfig::with_strategy(s)),
            scale,
            &docs,
            &victims,
            None,
        );
        rows.push(row);
    }
    let mut scan = Warehouse::new(WarehouseConfig::with_strategy(Strategy::Lup));
    scan.apply_plan(MixedPlan::uniform(None));
    let (row, _) = run_deployment("no index", scan, scale, &docs, &victims, None);
    rows.push(row);

    // The declared budget: just below the uniform-2LUPI footprint, so
    // the most storage-hungry static layout is not admissible and the
    // advisor must find a cheaper-to-store plan that still wins.
    let two_lupi = rows
        .iter()
        .find(|r| r.plan == "uniform:2LUPI")
        .expect("the 2LUPI static row ran")
        .storage_per_month;
    let budget = two_lupi.scaled(99, 100);

    // Deploy-time advice: the operator declares the season workload, the
    // expected monthly churn, the horizon and both constraints; the
    // advisor picks the starting plan (host-side analysis, nothing
    // billed). The adaptive deployment then *starts* on that plan.
    let base = WarehouseConfig::with_strategy(Strategy::Lu);
    // The declared churn: the whole auction partition a month, dropping
    // the share of keys the first round's feeds drop.
    let next: Vec<(String, String)> = churn_versions(scale, &victims, 0).collect();
    let versions = victims
        .iter()
        .zip(&next)
        .map(|((i, uri), (_, next))| (uri.as_str(), docs[*i].1.as_str(), next.as_str()));
    let monthly = Churn::measured(victims.len() as u64, versions, &base)
        .expect("the generated corpus is well-formed");
    let churn = BTreeMap::from([("auc".to_string(), monthly)]);
    let horizon = Horizon {
        expected_runs: ROUNDS as u32,
        months: ROUNDS as f64,
        budget_per_month: Some(budget),
        response_slo: Some(RESPONSE_SLO_SECS),
    };
    let advice = advise_adaptive(&docs, &declared_families(), &churn, &horizon, &base)
        .expect("the generated corpus is well-formed");

    let mut adaptive_cfg = WarehouseConfig::with_strategy(Strategy::Lu);
    adaptive_cfg.host.record = true;
    let mut adaptive = Warehouse::new(adaptive_cfg);
    adaptive.apply_plan(advice.chosen.plan.clone());
    let (row, cadence_migrations) = run_deployment(
        "adaptive",
        adaptive,
        scale,
        &docs,
        &victims,
        Some((&churn, &horizon)),
    );
    rows.push(row);

    AdviseOutcome {
        rows,
        budget,
        advice,
        cadence_migrations,
    }
}

/// The `repro advise` artifact. Headline numbers: horizon totals
/// (micro-dollars) and mean response times (µs) of the adaptive deployment
/// and of the best static one on each axis, the documents the drift
/// re-advise migrated, those all the *confirming* re-advises migrated
/// (0 at steady state), and whether the chosen plan met the declared
/// constraints (1/0).
pub fn advise(scale: &Scale) -> Outcome {
    let o = advise_outcome(scale);
    let (adaptive, statics) = o.rows.split_last().expect("six rows");
    let best_total = statics.iter().map(|r| r.total).min();
    let best_response = statics
        .iter()
        .map(|r| r.mean_response)
        .fold(f64::INFINITY, f64::min);
    let drift_migrated = o.cadence_migrations.iter().copied().max().unwrap_or(0);
    let confirm_migrated = o.cadence_migrations.iter().sum::<u64>() - drift_migrated;
    Outcome {
        body: render(&o).to_string(),
        numbers: vec![
            ("rounds", ROUNDS as f64),
            ("adaptive_total_udollars", adaptive.total.dollars() * 1e6),
            (
                "best_static_total_udollars",
                best_total.expect("five static rows").dollars() * 1e6,
            ),
            ("adaptive_mean_response_us", adaptive.mean_response * 1e6),
            ("best_static_mean_response_us", best_response * 1e6),
            ("migrated_docs", drift_migrated as f64),
            ("confirm_migrated_docs", confirm_migrated as f64),
            ("budget_met", f64::from(u8::from(o.advice.budget_met))),
        ],
    }
}

/// Renders already-computed rows.
pub fn render(o: &AdviseOutcome) -> TextTable {
    let mut t = TextTable::new([
        "deployment",
        "plan in force",
        "build ($)",
        "queries ($)",
        "maint ($)",
        "storage 6mo ($)",
        "mean resp (s)",
        "in budget",
        "total ($)",
    ]);
    for r in &o.rows {
        let fits_budget = r.storage_per_month <= o.budget;
        t.row([
            r.label.clone(),
            r.plan.clone(),
            format!("${:.6}", r.build.dollars()),
            format!("${:.6}", r.queries.dollars()),
            format!("${:.6}", r.maintenance.dollars()),
            format!("${:.6}", r.storage_billed.dollars()),
            format!("{:.3}", r.mean_response),
            if fits_budget { "yes" } else { "NO" }.to_string(),
            format!("${:.6}", r.total.dollars()),
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Relative tolerance of the advisor's projected horizon totals
    /// against the measured static deployments (0.010–0.043 measured at
    /// the pinned scale; the per-component bound is
    /// [`amada_core::ESTIMATE_TOLERANCE`]). Still wider than the adaptive
    /// plan's 3.0 % win over the best static layout: that win is
    /// certified by the *measured* rows, not by this bound.
    const TOTAL_TOLERANCE: f64 = 0.08;

    /// The pinned scale: three times tiny's document count at the default
    /// scale's ~8 KB documents — enough corpus that index payload sizes
    /// and posting-decode ballast (what separates the strategies) dominate
    /// per-item constants.
    fn pinned_scale() -> Scale {
        Scale {
            doc_bytes: Scale::default_scale().doc_bytes,
            docs: 180,
            ..Scale::tiny()
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

    /// The headline inequalities: the adaptive deployment is strictly
    /// cheapest over the horizon at a mean response time inside the SLO
    /// and below the cheapest static layout's; the budget excludes uniform
    /// 2LUPI yet the chosen plan meets it; the SLO demonstrably rejected a
    /// cheaper-but-slower plan; every cadence step, the drift month's
    /// included, confirmed the plan for free; and the advisor's
    /// projections agree with the measured static deployments within the
    /// stated tolerance.
    #[test]
    fn adaptive_plan_beats_every_static_deployment() {
        let o = advise_outcome(&pinned_scale());
        assert_eq!(o.rows.len(), STATICS.len() + 2);
        let adaptive = o.rows.last().unwrap();
        assert_eq!(adaptive.label, "adaptive");
        let statics = &o.rows[..o.rows.len() - 1];

        // Dollars against every static layout; time against the SLO and
        // the runner-up on dollars. (The uniform path and ID layouts answer
        // the season's auction query faster: the advisor buys dollars with
        // response time down to the SLO, not below it.)
        for s in statics {
            assert!(
                adaptive.total < s.total,
                "adaptive {} (${:.6}) must undercut {} (${:.6})",
                adaptive.plan,
                adaptive.total.dollars(),
                s.label,
                s.total.dollars()
            );
        }
        assert!(adaptive.mean_response <= RESPONSE_SLO_SECS);
        let runner_up = statics.iter().min_by_key(|s| s.total).unwrap();
        assert!(
            adaptive.mean_response <= runner_up.mean_response,
            "adaptive response {:.4}s vs {} {:.4}s",
            adaptive.mean_response,
            runner_up.label,
            runner_up.mean_response
        );

        // The plan in force is genuinely mixed: the churning partition sits
        // below the hot one's index.
        assert!(
            adaptive.plan.contains('='),
            "expected a per-partition plan, got {}",
            adaptive.plan
        );

        // The budget binds: uniform 2LUPI is inadmissible, the chosen
        // plan fits, and the advisor reported its constraints met.
        let two_lupi = statics.iter().find(|r| r.plan == "uniform:2LUPI").unwrap();
        assert!(
            two_lupi.storage_per_month > o.budget,
            "the budget must exclude 2LUPI"
        );
        assert!(adaptive.storage_per_month <= o.budget);
        assert!(o.advice.budget_met);
        assert!(o.advice.chosen.within_budget(o.budget));

        // The SLO binds: the unconstrained dollars-optimum in the ranked
        // table is cheaper than the chosen plan but misses the SLO — the
        // advisor refused to buy dollars with response time.
        assert!(o.advice.chosen.meets_slo(RESPONSE_SLO_SECS));
        let unconstrained = o
            .advice
            .ranked
            .iter()
            .min_by_key(|e| e.projected_total)
            .expect("ranked projections");
        assert!(
            unconstrained.projected_total < o.advice.chosen.projected_total
                && !unconstrained.meets_slo(RESPONSE_SLO_SECS),
            "the SLO should have rejected a cheaper-but-slower plan, \
             unconstrained {} ({:.4}s) vs chosen {} ({:.4}s)",
            unconstrained.label,
            unconstrained.mean_response_secs,
            o.advice.chosen.label,
            o.advice.chosen.mean_response_secs
        );

        // One cadence re-advise per month boundary, and each of them — with
        // the season's traffic in its window or without — confirmed the
        // plan in force: nothing migrated, nothing billed for it.
        assert_eq!(o.cadence_migrations, [0; ROUNDS - 1]);
        assert_eq!(adaptive.plan, o.advice.chosen.label);

        // The advisor's projections for the uniform layouts track the
        // measured static deployments: indexed storage near-exactly,
        // horizon totals within the stated tolerance. The scan layout's
        // storage is excluded from the tight pin: the measured footprint
        // includes materialized query results the estimator does not
        // model — negligible against any index, dominant against none.
        for r in statics {
            let est = o
                .advice
                .ranked
                .iter()
                .find(|e| e.label == r.plan)
                .unwrap_or_else(|| panic!("no projection for {}", r.plan));
            if r.plan != "uniform:scan" {
                assert!(
                    rel_diff(est.storage_per_month, r.storage_per_month) <= 0.05,
                    "{}: storage projection {} vs measured {}",
                    r.plan,
                    est.storage_per_month,
                    r.storage_per_month
                );
            }
            assert!(
                rel_diff(est.projected_total, r.total) <= TOTAL_TOLERANCE,
                "{}: projected {} vs measured {}",
                r.plan,
                est.projected_total,
                r.total
            );
        }
    }

    /// Bit-for-bit determinism of the whole experiment (at the cheap
    /// scale — the property is scale-independent).
    #[test]
    fn same_scale_same_table() {
        let scale = Scale::tiny();
        let a = render(&advise_outcome(&scale));
        let b = render(&advise_outcome(&scale));
        assert_eq!(a.to_string(), b.to_string());
    }
}
