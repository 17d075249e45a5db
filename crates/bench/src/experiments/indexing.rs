//! Indexing experiments: Table 4 (indexing times), Figure 7 (indexing
//! time vs. data size), Figure 8 (index size and monthly storage cost),
//! Table 6 (indexing monetary costs by service).

use crate::{build_warehouse, corpus, mb, strategy_warehouse, Scale, TextTable};
use amada_core::{IndexBuildReport, WarehouseConfig};
use amada_index::{ExtractOptions, Strategy};

/// The four per-strategy index builds every indexing artifact reads from,
/// with and without full-text word keys.
pub struct IndexingSuite {
    /// `(strategy, report)` with full-text indexing.
    pub full_text: Vec<(Strategy, IndexBuildReport)>,
    /// `(strategy, report)` without word keys.
    pub no_words: Vec<(Strategy, IndexBuildReport)>,
}

/// Builds the index once per strategy (and once more without keywords).
/// The eight builds are independent warehouses (each owns its own
/// simulated cloud and virtual clock), so they run concurrently across
/// host threads; reports come back in deterministic strategy order.
pub fn indexing_suite(scale: &Scale) -> IndexingSuite {
    let docs = corpus(scale);
    let units: Vec<(Strategy, bool)> = Strategy::ALL
        .iter()
        .map(|&s| (s, true))
        .chain(Strategy::ALL.iter().map(|&s| (s, false)))
        .collect();
    let mut reports = amada_par::par_run(
        units
            .iter()
            .map(|&(s, full)| {
                let docs = &docs;
                move || {
                    let mut cfg = WarehouseConfig::with_strategy(s);
                    cfg.extract = ExtractOptions { index_words: full };
                    (s, build_warehouse(cfg, docs).1)
                }
            })
            .collect(),
    );
    let no_words = reports.split_off(Strategy::ALL.len());
    IndexingSuite {
        full_text: reports,
        no_words,
    }
}

/// Paper Table 4: per-strategy average extraction time, average uploading
/// time and total indexing time on the 8-large loader pool.
pub fn table4(suite: &IndexingSuite) -> TextTable {
    let mut t = TextTable::new([
        "Indexing strategy",
        "Avg extraction time",
        "Avg uploading time",
        "Total time",
    ]);
    for (s, r) in &suite.full_text {
        t.row([
            s.name().to_string(),
            r.avg_extraction_time.to_string(),
            r.avg_upload_time.to_string(),
            r.total_time.to_string(),
        ]);
    }
    t
}

/// Paper Figure 7: total indexing time as the corpus grows (25 % steps) —
/// the paper's linear-scaling result.
pub fn fig7(scale: &Scale) -> TextTable {
    let docs = corpus(scale);
    // 4 quarters × 4 strategies: 16 independent warehouses, run
    // concurrently; the table is assembled in deterministic order after.
    let units: Vec<(usize, Strategy)> = (1..=4)
        .flat_map(|quarter| Strategy::ALL.iter().map(move |&s| (quarter, s)))
        .collect();
    let times = amada_par::par_run(
        units
            .iter()
            .map(|&(quarter, s)| {
                let prefix = &docs[..docs.len() * quarter / 4];
                move || strategy_warehouse(s, prefix).1.total_time
            })
            .collect(),
    );
    let mut t = TextTable::new(["Documents size (MB)", "LU", "LUP", "LUI", "2LUPI"]);
    // `units` is quarter-major: one chunk of times per row.
    for (quarter, times) in (1..=4).zip(times.chunks(Strategy::ALL.len())) {
        let n = docs.len() * quarter / 4;
        let bytes: u64 = docs[..n].iter().map(|(_, x)| x.len() as u64).sum();
        let mut cells = vec![mb(bytes)];
        cells.extend(times.iter().map(|t| format!("{:.1}s", t.as_secs_f64())));
        t.row(cells);
    }
    t
}

/// Paper Figure 8: index size (content + store overhead) against the XML
/// size, and the monthly storage cost, with and without full-text keys.
pub fn fig8(suite: &IndexingSuite) -> TextTable {
    let mut t = TextTable::new([
        "Variant / strategy",
        "XML data (MB)",
        "Index content (MB)",
        "Store overhead (MB)",
        "Storage cost ($/month)",
    ]);
    for (label, reports) in [
        ("full-text", &suite.full_text),
        ("no keywords", &suite.no_words),
    ] {
        for (s, r) in reports.iter() {
            t.row([
                format!("{label} {}", s.name()),
                mb(r.corpus_bytes),
                mb(r.index_raw_bytes),
                mb(r.index_overhead_bytes),
                format!("{:.6}", r.storage.total().dollars()),
            ]);
        }
    }
    t
}

/// Paper Table 6: indexing monetary cost per strategy, decomposed across
/// services (DynamoDB / EC2 / S3 + SQS / total).
pub fn table6(suite: &IndexingSuite) -> TextTable {
    let mut t = TextTable::new(["Indexing strategy", "DynamoDB", "EC2", "S3 + SQS", "Total"]);
    for (s, r) in &suite.full_text {
        let c = &r.cost;
        t.row([
            s.name().to_string(),
            format!("${:.6}", c.kv.dollars()),
            format!("${:.6}", c.ec2.dollars()),
            format!("${:.6}", (c.s3 + c.sqs).dollars()),
            format!("${:.6}", c.total().dollars()),
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    fn suite() -> IndexingSuite {
        indexing_suite(&Scale::tiny())
    }

    #[test]
    fn table4_shape_lu_fastest_2lupi_slowest() {
        let s = suite();
        let time = |st: Strategy| {
            s.full_text
                .iter()
                .find(|(x, _)| *x == st)
                .unwrap()
                .1
                .total_time
        };
        assert!(time(Strategy::Lu) < time(Strategy::Lup), "LU < LUP");
        assert!(time(Strategy::Lu) < time(Strategy::Lui), "LU < LUI");
        assert!(time(Strategy::Lup) < time(Strategy::TwoLupi), "LUP < 2LUPI");
        assert!(time(Strategy::Lui) < time(Strategy::TwoLupi), "LUI < 2LUPI");
        assert_eq!(table4(&s).len(), 4);
    }

    #[test]
    fn fig8_shape_index_size_order_and_fulltext_blowup() {
        let s = suite();
        let size = |reports: &[(Strategy, amada_core::IndexBuildReport)], st: Strategy| {
            reports
                .iter()
                .find(|(x, _)| *x == st)
                .unwrap()
                .1
                .index_raw_bytes
        };
        // LU < LUI < LUP < 2LUPI in index content (paper Figure 8: LUP and
        // 2LUPI are the larger indexes; LUI is smaller than LUP because
        // IDs are more compact than paths).
        assert!(size(&s.full_text, Strategy::Lu) < size(&s.full_text, Strategy::Lui));
        assert!(size(&s.full_text, Strategy::Lui) < size(&s.full_text, Strategy::Lup));
        assert!(size(&s.full_text, Strategy::Lup) < size(&s.full_text, Strategy::TwoLupi));
        // Full-text indexes are much larger than keyword-free ones.
        for st in Strategy::ALL {
            assert!(size(&s.full_text, st) > size(&s.no_words, st), "{st}");
        }
    }

    #[test]
    fn table6_shape_kv_dominates_and_orders_match_paper() {
        let s = suite();
        let cost = |st: Strategy| s.full_text.iter().find(|(x, _)| *x == st).unwrap().1.cost;
        // Cheapest LU, costliest 2LUPI (paper Table 6).
        assert!(cost(Strategy::Lu).total() < cost(Strategy::Lup).total());
        assert!(cost(Strategy::Lup).total() < cost(Strategy::TwoLupi).total());
        assert!(cost(Strategy::Lu).total() < cost(Strategy::Lui).total());
    }

    #[test]
    fn fig7_is_monotone_in_corpus_size() {
        let table = fig7(&Scale::tiny());
        assert_eq!(table.len(), 4);
    }
}
