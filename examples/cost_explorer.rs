//! Cost what-if explorer: the Section 7 cost model applied symbolically,
//! `explain analyze` of the value-join queries, and the index advisor (the
//! paper's future-work tool).
//!
//! ```text
//! cargo run --release --example cost_explorer
//! ```

use amada::cloud::{InstanceType, SimDuration};
use amada::index::Strategy;
use amada::warehouse::{advise, cost, FamilyLoad, Horizon, Warehouse, WarehouseConfig};
use amada::xmark::{generate_corpus, workload, workload_query, CorpusConfig};

fn main() {
    // ----- 1. The paper's own scenario, through the symbolic cost cost::
    // 20 000 documents, 40 GB, LUP index ≈ 55 GB with full text.
    println!("== Section 7 cost model, paper-scale inputs ==");
    println!(
        "upload 20 000 documents:        {}",
        cost::upload_documents(20_000)
    );
    let ci = cost::index_building(
        20_000,
        140_000_000, // billed write units for a ~55 GB index
        SimDuration::from_secs(4 * 3600 + 25 * 60),
        8,
        InstanceType::Large,
    );
    println!("build LUP index (8 L, 4h25):    {ci}");
    println!(
        "store 40 GB data + 55 GB index: {} / month",
        cost::monthly_storage(40_000_000_000, 55_000_000_000)
    );
    println!(
        "selective query, indexed:       {}",
        cost::query_indexed(
            500_000,
            100,
            350,
            SimDuration::from_secs(12),
            InstanceType::Large
        )
    );
    println!(
        "same query, full scan:          {}",
        cost::query_no_index(
            500_000,
            20_000,
            SimDuration::from_secs(1800),
            InstanceType::Large
        )
    );

    // ----- 2. `explain analyze` of the value-join queries on `repro`'s
    // default corpus: one LUI warehouse, the no-index scan beside it.
    println!("\n== explain analyze q8-q10: LUI and the scan, 2 000 x 8 KB documents ==");
    let corpus_cfg = CorpusConfig {
        num_documents: 2000,
        target_doc_bytes: 8192,
        ..Default::default()
    };
    let mut w = Warehouse::new(WarehouseConfig::with_strategy(Strategy::Lui));
    w.upload_documents(
        generate_corpus(&corpus_cfg)
            .into_iter()
            .map(|d| (d.uri, d.xml)),
    );
    w.build_index();
    for name in ["q8", "q9", "q10"] {
        let q = workload_query(name).expect("the workload names q8-q10");
        print!("{}{}", w.run_query(&q), w.run_query_no_index(&q));
    }

    // ----- 3. The index advisor on a live sample.
    println!("\n== Index advisor (paper Section 9 future work) ==");
    let sample_cfg = CorpusConfig {
        num_documents: 120,
        ..Default::default()
    };
    let sample: Vec<(String, String)> = generate_corpus(&sample_cfg)
        .into_iter()
        .map(|d| (d.uri, d.xml))
        .collect();
    let queries = workload();
    // The paper's question — one strategy, or none, for the whole corpus:
    // every query once per run, no churn.
    let families: Vec<FamilyLoad> = queries
        .iter()
        .map(|q| FamilyLoad {
            query: q.clone(),
            arrivals: 1,
        })
        .collect();
    for expected_runs in [5u32, 500] {
        let horizon = Horizon {
            expected_runs,
            months: 1.0,
        };
        let ranked = advise(
            &sample,
            &families,
            &[],
            &horizon,
            &WarehouseConfig::default(),
        )
        .expect("sample corpus parses and fits the store's limits");
        println!("\nexpected workload runs: {expected_runs}");
        println!(
            "  {:<14} {:>14} {:>14} {:>14} {:>14}",
            "layout", "build", "$/run", "storage/mo", "projected"
        );
        for e in &ranked {
            println!(
                "  {:<14} {:>14} {:>14} {:>14} {:>14}",
                e.label(),
                e.build_cost.to_string(),
                e.run_cost.to_string(),
                e.storage_per_month.to_string(),
                e.projected_total.to_string(),
            );
        }
        println!(
            "  advised: {} -> indexing {}",
            ranked[0].label(),
            if ranked[0].strategy.is_some() {
                "pays off"
            } else {
                "does not pay off yet"
            }
        );
    }

    // ----- 4. The same advisor asked the per-query question (the paper's
    // Section 8.5: which queries want the ID-granularity strategies): the
    // same sample, a workload of that one family.
    println!("\n== Per-query advice (one-family workloads, 500 runs) ==");
    let horizon = Horizon {
        expected_runs: 500,
        months: 1.0,
    };
    for q in queries {
        let name = q.name.clone().unwrap_or_default();
        let family = [FamilyLoad {
            query: q,
            arrivals: 1,
        }];
        let ranked = advise(&sample, &family, &[], &horizon, &WarehouseConfig::default())
            .expect("sample corpus parses and fits the store's limits");
        let scan = ranked
            .iter()
            .find(|e| e.strategy.is_none())
            .expect("the unindexed layout always competes");
        println!(
            "  {name:<4} advised: {:<8} {} / run (scan: {} / run), projected {}",
            ranked[0].label(),
            ranked[0].run_cost,
            scan.run_cost,
            ranked[0].projected_total,
        );
    }
}
