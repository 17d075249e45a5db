//! The document-churn experiment (beyond the paper's figures): Figure 13
//! extended to a corpus that keeps changing.
//!
//! Figure 13 asks how many workload runs it takes for an index to pay for
//! itself on a *static* corpus. Under churn the question inverts: each
//! workload run is now accompanied by a churn round replacing a fraction
//! of the documents, and every replaced document costs an incremental
//! index maintenance bill — the loader re-fetches the new version, writes
//! the index items whose key is new or whose value changed and retracts
//! the old version's stale entries (billed deletes on DynamoDB, free on
//! S3). The no-index scan pays none of that: new
//! versions simply overwrite their objects.
//!
//! The sweep raises the churn rate from 0% to 100% of the corpus per
//! workload run and reports, per strategy, the maintenance bill and the
//! *net* benefit per run (query savings − maintenance). The tests pin the
//! crossover: every strategy's net is positive on the static corpus and
//! negative at full churn, so somewhere in between the index stops paying
//! — and the advisor ([`amada_core::advise`]), which deploys each layout on
//! the same corpus and rebuilds it after the round's own new versions,
//! flips its recommendation to the "index nothing" layout.

use crate::{corpus, strategy_warehouse, Outcome, Scale, TextTable};
use amada_cloud::{InstanceType, Money};
use amada_core::{advise, FamilyLoad, Horizon, Pool, WarehouseConfig};
use amada_index::Strategy;
use amada_xmark::generate_document;

/// Churn rates swept: percent of the corpus replaced per workload run.
pub const RATES: [u64; 6] = [0, 5, 10, 25, 50, 100];

/// Advisor horizon: enough workload runs that indexing clearly pays on
/// the static corpus, so any "index nothing" verdict is churn's doing.
const ADVISOR_RUNS: u32 = 500;

/// One sweep point: every strategy's maintenance bill and net benefit
/// per workload run at this churn rate.
#[derive(Debug, Clone)]
pub struct ChurnRow {
    /// Percent of the corpus replaced per workload run.
    pub rate_pct: u64,
    /// Documents that rate replaces.
    pub replaced: usize,
    /// `(strategy name, maintenance $, net picodollars)` in
    /// [`Strategy::ALL`] order; net = query savings − maintenance, signed
    /// because maintenance overtakes the savings along the sweep.
    pub per_strategy: Vec<(&'static str, Money, i128)>,
    /// Items of the replaced documents this round's maintenance left as
    /// the store held them — written by no one, billed to no one — in
    /// [`Strategy::ALL`] order.
    pub unchanged: Vec<u64>,
    /// Stale index items this round's maintenance retracted, all
    /// strategies together.
    pub retracted: u64,
    /// The strategy with the best positive net, or `"none"` when every
    /// index loses money per run at this rate.
    pub best: &'static str,
    /// What the advisor recommends at this churn rate (`"none"` for the
    /// index-nothing candidate).
    pub advisor: &'static str,
}

/// Runs the sweep. Each strategy keeps one warehouse alive across the
/// whole sweep: its query savings are measured once on the fresh corpus,
/// then every rate applies one churn round (replace + incremental
/// rebuild) and bills it. Last, a twentieth of the corpus is replaced
/// once more and then re-uploaded unchanged: the second value is what that
/// identical re-upload retracted and what it wrote, all strategies
/// together — nothing and nothing, while a range key names its entry and
/// not its place in the document and a rebuild writes what changed.
pub fn churn_rows(scale: &Scale) -> (Vec<ChurnRow>, [u64; 2]) {
    let docs = corpus(scale);
    let queries = crate::workload();

    // Per strategy: a live warehouse and its per-run query savings.
    let mut fleet = Vec::new();
    for strategy in Strategy::ALL {
        let (mut w, _) = strategy_warehouse(strategy, &docs);
        w.set_query_pool(Pool::new(1, InstanceType::Large));
        let indexed = w.run_workload(&queries, 1).cost.total();
        let baseline = w.run_workload_no_index(&queries, 1).cost.total();
        fleet.push((strategy, w, baseline.signed_diff(indexed)));
    }

    // The advisor prices the same trade on the same corpus.
    let families: Vec<FamilyLoad> = queries
        .iter()
        .cloned()
        .map(|query| FamilyLoad { query, arrivals: 1 })
        .collect();

    // New versions: the same document slots regenerated under a
    // round-specific seed, so every replaced document truly changes and
    // the keys it lost go stale.
    let versions_of = |round: usize| {
        let mut cc = scale.corpus_config();
        cc.seed = scale.seed ^ (round as u64).wrapping_mul(0x9E37_79B9) ^ 0xC0DE;
        move |i: usize| generate_document(&cc, i).xml
    };
    let mut rows = Vec::new();
    for (round, &rate_pct) in RATES.iter().enumerate() {
        let replaced = (docs.len() as u64 * rate_pct).div_ceil(100) as usize;
        let next = versions_of(round);
        let versions: Vec<(String, String)> = (docs.iter().take(replaced).enumerate())
            .map(|(i, (uri, _))| (uri.clone(), next(i)))
            .collect();
        let mut per_strategy = Vec::new();
        let mut unchanged = Vec::new();
        let mut retracted = 0u64;
        for (strategy, w, benefit) in fleet.iter_mut() {
            let maintenance = if replaced == 0 {
                unchanged.push(0);
                Money::ZERO
            } else {
                w.upload_documents(versions.iter().cloned());
                let report = w.build_index();
                unchanged.push(report.unchanged_items);
                retracted += report.retracted_items;
                report.cost.total()
            };
            per_strategy.push((
                strategy.name(),
                maintenance,
                *benefit - maintenance.pico() as i128,
            ));
        }
        let best = per_strategy
            .iter()
            .filter(|(_, _, net)| *net > 0)
            .max_by_key(|(_, _, net)| *net)
            .map_or("none", |(name, _, _)| name);
        // The advisor is told the traffic: the round's own versions.
        let horizon = Horizon {
            expected_runs: ADVISOR_RUNS,
            months: 1.0,
        };
        let base = WarehouseConfig::default();
        let ranked = advise(&docs, &families, &versions, &horizon, &base)
            .expect("the generated sample is well-formed and within the store's limits");
        let advisor = ranked[0].strategy.map_or("none", Strategy::name);
        rows.push(ChurnRow {
            rate_pct,
            replaced,
            per_strategy,
            unchanged,
            retracted,
            best,
            advisor,
        });
    }

    let next = versions_of(RATES.len());
    let again = || {
        let some = docs.iter().take(docs.len().div_ceil(20)).enumerate();
        some.map(|(i, (uri, _))| (uri.clone(), next(i)))
    };
    let mut identical = [0; 2];
    for (_, w, _) in fleet.iter_mut() {
        w.upload_documents(again());
        w.build_index();
        w.upload_documents(again());
        let report = w.build_index();
        identical[0] += report.retracted_items;
        identical[1] += report.items;
    }
    (rows, identical)
}

/// The rendered sweep with its headline numbers: points run, strategies
/// whose net benefit flipped negative within the sweep, stale items
/// retracted across all maintenance rounds, and the first churn rate
/// (percent) at which the advisor picked "index nothing" (0 when it never
/// did), and the items the closing identical re-upload retracted and
/// wrote (CI fails the smoke run unless both are 0).
pub fn outcome(rows: &[ChurnRow], [identical_retracted, identical_written]: [u64; 2]) -> Outcome {
    let flips = (0..Strategy::ALL.len())
        .filter(|&si| {
            rows.first().is_some_and(|r| r.per_strategy[si].2 > 0)
                && rows.last().is_some_and(|r| r.per_strategy[si].2 <= 0)
        })
        .count();
    // Rate 0 can't flip (the advisor charges no maintenance there), so a
    // flip always reports a non-zero rate.
    let advisor_flip = rows
        .iter()
        .find(|r| r.advisor == "none")
        .map_or(0, |r| r.rate_pct.max(1));
    let retracted: u64 = rows.iter().map(|r| r.retracted).sum();
    Outcome {
        body: render(rows).to_string(),
        numbers: vec![
            ("sweep_points", rows.len() as f64),
            ("strategy_flips", flips as f64),
            ("retracted_items", retracted as f64),
            ("advisor_flip_pct", advisor_flip as f64),
            ("identical_reupload_retracted", identical_retracted as f64),
            ("identical_reupload_written", identical_written as f64),
        ],
    }
}

/// The `repro churn` artifact.
pub fn churn(scale: &Scale) -> Outcome {
    let (rows, identical) = churn_rows(scale);
    outcome(&rows, identical)
}

/// Renders already-computed rows.
pub fn render(rows: &[ChurnRow]) -> TextTable {
    let mut t = TextTable::new([
        "churn %/run",
        "replaced",
        "LU net ($)",
        "LUP net ($)",
        "LUI net ($)",
        "2LUPI net ($)",
        "LUP maint ($)",
        "unchanged items",
        "best",
        "advisor",
    ]);
    for r in rows {
        let net = |i: usize| format!("{:+.4}", r.per_strategy[i].2 as f64 / 1e12);
        t.row([
            r.rate_pct.to_string(),
            r.replaced.to_string(),
            net(0),
            net(1),
            net(2),
            net(3),
            format!("${:.4}", r.per_strategy[1].1.dollars()),
            // In the net columns' order.
            r.unchanged
                .iter()
                .map(u64::to_string)
                .collect::<Vec<_>>()
                .join("/"),
            r.best.to_string(),
            r.advisor.to_string(),
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Twice tiny's documents: at tiny itself the measured nets at 25 %
    /// are within a tenth of a millidollar of zero, and which side of it an
    /// estimate falls on says nothing.
    #[test]
    fn every_strategy_crosses_over_and_the_advisor_flips() {
        let (rows, identical) = churn_rows(&Scale::tiny().scaled(2.0));
        assert_eq!(rows.len(), RATES.len());
        let (first, last) = (&rows[0], rows.last().unwrap());

        // Static corpus: no maintenance, every index saves money per run,
        // and both the measurement and the advisor pick an index.
        assert_eq!(first.replaced, 0);
        for (name, maint, net) in &first.per_strategy {
            assert_eq!(*maint, Money::ZERO, "{name}");
            assert!(*net > 0, "{name} must save money on a static corpus");
        }
        assert_ne!(first.best, "none");
        assert_ne!(first.advisor, "none", "{first:?}");

        // Full churn: re-indexing the whole corpus every run costs more
        // than any strategy's query savings — indexing is a net loss and
        // the advisor agrees.
        for (name, maint, net) in &last.per_strategy {
            assert!(*maint > Money::ZERO, "{name}");
            assert!(*net < 0, "{name} must lose money at 100% churn");
        }
        assert_eq!(last.best, "none");
        assert_eq!(last.advisor, "none", "{last:?}");

        // Maintenance only grows with the churn rate, so each strategy's
        // net crosses zero exactly once: the crossover is well defined
        // and every strategy has one inside the sweep.
        for (si, strategy) in Strategy::ALL.iter().enumerate() {
            for w in rows.windows(2) {
                assert!(
                    w[0].per_strategy[si].1 <= w[1].per_strategy[si].1,
                    "{}: maintenance must be monotone in the churn rate",
                    strategy.name()
                );
            }
        }
        // A rebuild writes what changed: of every strategy's replaced
        // documents some items stay as they are, most of them under LU —
        // a presence item has no value to change — and an identical
        // re-upload neither retracts nor writes.
        for r in &rows[1..] {
            assert!(r.unchanged.iter().all(|&n| n > 0), "{r:?}");
            assert_eq!(r.unchanged.iter().max(), r.unchanged.first(), "{r:?}");
        }
        assert_eq!(
            identical,
            [0, 0],
            "an identical re-upload [retracts, writes]"
        );
        let outcome = outcome(&rows, identical);
        assert_eq!(outcome.number("identical_reupload_written"), Some(0.0));
        assert_eq!(outcome.number("sweep_points"), Some(RATES.len() as f64));
        assert_eq!(
            outcome.number("strategy_flips"),
            Some(Strategy::ALL.len() as f64)
        );
        assert!(outcome.number("retracted_items").unwrap() > 0.0);
        // The advisor, told how many documents a round replaces and the
        // share of keys they drop, flips inside the measured bracket:
        // after the last rate at which some index still pays, no later
        // than the first at which none does.
        let flip = outcome.number("advisor_flip_pct").unwrap() as u64;
        let still_pays = rows.iter().rfind(|r| r.best != "none").unwrap().rate_pct;
        let none_pays = rows.iter().find(|r| r.best == "none").unwrap().rate_pct;
        assert!(
            still_pays < flip && flip <= none_pays,
            "the advisor flips at {flip} %, the measurement in ({still_pays}, {none_pays}] %"
        );
    }

    #[test]
    fn same_scale_same_table() {
        let scale = Scale::tiny();
        let a = render(&churn_rows(&scale).0);
        let b = render(&churn_rows(&scale).0);
        assert_eq!(a.to_string(), b.to_string());
    }
}
