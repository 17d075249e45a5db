//! The computation-pushdown experiment (beyond the paper's figures):
//! storage-side filtering (the S3-Select analog) vs. shipping whole
//! documents, swept across predicate selectivity.
//!
//! The paper's four strategies all answer the residual part of a query —
//! whatever the index cannot resolve — by GETting every candidate
//! document and parsing + evaluating it on an EC2 instance. The LUP-PD
//! strategy instead pushes the compiled pattern into the store, which
//! bills per GB *scanned* plus egress on the *filtered* result bytes
//! only. The trade is selectivity-dependent: scanning is cheaper than
//! parsing per byte, but every matching tuple comes back as billed
//! egress, so pushdown wins when few bytes match and loses once the
//! result volume outgrows the parse savings.
//!
//! The sweep holds the candidate set fixed — the knob is a numeric range
//! bound on `open_auction/initial` (uniform in 5.00–100.00), and range
//! predicates contribute no look-up keys, so every strategy fetches the
//! same documents at every point and only the residual-filter economics
//! move. The `cont` output on the auction description makes matching
//! tuples carry real payload, so the egress side of the trade is
//! visible. The tests pin the crossover at the tiny scale: LUP-PD strictly
//! cheapest at the most selective bound, beaten by plain LUP at the least
//! selective one; at the default 8 KB scale plain LUP undercuts LUP-PD at
//! every bound (EXPERIMENTS.md).

use crate::{corpus, mb, strategy_warehouse, Outcome, Scale, TextTable};
use amada_cloud::{Money, SimDuration};
use amada_index::Strategy;
use amada_pattern::{parse_query, Query};

/// Upper bounds on `initial` swept low to high. Initial prices are
/// uniform in 5.00–100.00, so these land at ≈ 0 / 25 / 50 / 75 / 100 %
/// of the auctions.
pub const BOUNDS: [&str; 5] = ["5", "29", "53", "77", "101"];

/// The five competitors, in column order: the four paper strategies and
/// the pushdown variant.
pub const STRATEGIES: [Strategy; 5] = [
    Strategy::Lu,
    Strategy::Lup,
    Strategy::Lui,
    Strategy::TwoLupi,
    Strategy::LupPd,
];

/// The sweep query for one bound: candidates are every document holding
/// open auctions (the labels alone decide that), and the range predicate
/// plus the `cont` output are the residual work under sweep.
fn sweep_query(bound: &str) -> Query {
    let text = format!(
        "//open_auction[//description[/text{{cont}}], //initial{{\"0\"<val<=\"{bound}\"}}]"
    );
    let mut q = parse_query(&text).expect("sweep query parses");
    q.name = Some(format!("initial<={bound}"));
    q
}

/// One sweep point: every strategy's bill for the same query.
#[derive(Debug, Clone)]
pub struct PushdownRow {
    /// The `initial <= bound` sweep knob.
    pub bound: &'static str,
    /// Result tuples (identical across strategies; the selectivity).
    pub results: usize,
    /// Bytes the LUP-PD run scanned server-side.
    pub scanned: u64,
    /// Filtered bytes the LUP-PD scans returned.
    pub returned: u64,
    /// `(strategy name, response time, total $)` in [`STRATEGIES`] order.
    pub per_strategy: Vec<(&'static str, SimDuration, Money)>,
    /// Name of the cheapest strategy at this point.
    pub cheapest: &'static str,
}

/// Runs the sweep: five warehouses share one corpus, each bound runs the
/// same query on all of them.
pub fn pushdown_rows(scale: &Scale) -> Vec<PushdownRow> {
    let docs = corpus(scale);
    let mut warehouses: Vec<_> = STRATEGIES
        .iter()
        .map(|&s| (s, strategy_warehouse(s, &docs).0))
        .collect();
    let mut rows = Vec::new();
    for bound in BOUNDS {
        let q = sweep_query(bound);
        let mut per_strategy = Vec::new();
        let (mut results, mut scanned, mut returned) = (0usize, 0u64, 0u64);
        for (s, w) in warehouses.iter_mut() {
            let before = w.world().s3.stats();
            let r = w.run_query(&q);
            if *s == Strategy::LupPd {
                let after = w.world().s3.stats();
                results = r.exec.results.len();
                scanned = after.bytes_scanned - before.bytes_scanned;
                returned = after.scan_returned_bytes - before.scan_returned_bytes;
            }
            per_strategy.push((s.name(), r.exec.response_time, r.cost.total()));
        }
        let cheapest = per_strategy
            .iter()
            .min_by_key(|(_, _, total)| *total)
            .expect("five strategies ran")
            .0;
        rows.push(PushdownRow {
            bound,
            results,
            scanned,
            returned,
            per_strategy,
            cheapest,
        });
    }
    rows
}

/// The `repro pushdown` artifact; the headline numbers are the sweep's
/// totals: points run, points where LUP-PD was strictly cheapest, bytes
/// the store scanned and filtered bytes it returned (billed as egress).
pub fn pushdown(scale: &Scale) -> Outcome {
    let rows = pushdown_rows(scale);
    let wins = rows.iter().filter(|r| r.cheapest == Strategy::LupPd.name());
    let scanned: u64 = rows.iter().map(|r| r.scanned).sum();
    let returned: u64 = rows.iter().map(|r| r.returned).sum();
    Outcome {
        body: render(&rows).to_string(),
        numbers: vec![
            ("sweep_points", rows.len() as f64),
            ("pushdown_wins", wins.count() as f64),
            ("bytes_scanned", scanned as f64),
            ("bytes_returned", returned as f64),
        ],
    }
}

/// Renders already-computed rows.
pub fn render(rows: &[PushdownRow]) -> TextTable {
    let mut t = TextTable::new([
        "initial <=",
        "results",
        "scanned (MB)",
        "returned (MB)",
        "LU ($)",
        "LUP ($)",
        "LUI ($)",
        "2LUPI ($)",
        "LUP-PD ($)",
        "LUP (s)",
        "LUP-PD (s)",
        "cheapest",
    ]);
    for r in rows {
        let dollars = |i: usize| format!("${:.6}", r.per_strategy[i].2.dollars());
        t.row([
            r.bound.to_string(),
            r.results.to_string(),
            mb(r.scanned),
            mb(r.returned),
            dollars(0),
            dollars(1),
            dollars(2),
            dollars(3),
            dollars(4),
            format!("{:.3}", r.per_strategy[1].1.as_secs_f64()),
            format!("{:.3}", r.per_strategy[4].1.as_secs_f64()),
            r.cheapest.to_string(),
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pushdown_wins_at_low_selectivity_and_loses_at_high() {
        let rows = pushdown_rows(&Scale::tiny());
        assert_eq!(rows.len(), BOUNDS.len());
        let (first, last) = (&rows[0], rows.last().unwrap());
        // The bound only loosens along the sweep, so results grow while
        // the candidate set (hence the scanned volume) never moves.
        for w in rows.windows(2) {
            assert!(w[0].results <= w[1].results, "{w:?}");
            assert_eq!(w[0].scanned, w[1].scanned);
            assert!(w[0].returned <= w[1].returned);
        }
        assert!(first.results < last.results, "the sweep must open up");
        assert!(first.returned < last.returned);
        assert!(last.scanned > 0);
        // Answers agree across strategies at every point: they all see the
        // same candidates, so the result count is strategy-independent and
        // already asserted identical through the correctness oracles; here
        // every row carries all five bills for the same tuples.
        for r in &rows {
            assert_eq!(r.per_strategy.len(), STRATEGIES.len());
        }
        // The headline crossover. At the selective end almost nothing
        // comes back, so scanning beats shipping + parsing; at the open
        // end every matching description is billed egress and plain LUP
        // is cheaper again.
        assert_eq!(first.cheapest, "LUP-PD", "{first:?}");
        assert_ne!(last.cheapest, "LUP-PD", "{last:?}");
        let (lup, pd) = (last.per_strategy[1].2, last.per_strategy[4].2);
        assert!(lup < pd, "LUP {lup} must undercut LUP-PD {pd} at 100%");
    }

    #[test]
    fn same_scale_same_table() {
        let scale = Scale::tiny();
        let a = render(&pushdown_rows(&scale));
        let b = render(&pushdown_rows(&scale));
        assert_eq!(a.to_string(), b.to_string());
    }
}
