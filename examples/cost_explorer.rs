//! Cost what-if explorer: the Section 7 cost model applied symbolically,
//! the index advisor (the paper's future-work tool), and provider
//! portability (Table 1: the same architecture priced on AWS, Google
//! Cloud and Windows Azure).
//!
//! ```text
//! cargo run --release --example cost_explorer
//! ```

use amada::cloud::{InstanceType, PriceTable, SimDuration};
use amada::index::{explain, ExtractOptions, Strategy};
use amada::warehouse::{advise_adaptive, CostModel, FamilyLoad, Horizon, WarehouseConfig};
use amada::xmark::{generate_corpus, workload, workload_query, CorpusConfig};
use std::collections::BTreeMap;

fn main() {
    // ----- 1. The paper's own scenario, through the symbolic cost model.
    // 20 000 documents, 40 GB, LUP index ≈ 55 GB with full text.
    let model = CostModel::default();
    println!("== Section 7 cost model, paper-scale inputs ==");
    println!(
        "upload 20 000 documents:        {}",
        model.upload_documents(20_000)
    );
    let ci = model.index_building(
        20_000,
        140_000_000, // billed write units for a ~55 GB index
        SimDuration::from_secs(4 * 3600 + 25 * 60),
        8,
        InstanceType::Large,
    );
    println!("build LUP index (8 L, 4h25):    {ci}");
    println!(
        "store 40 GB data + 55 GB index: {} / month",
        model.monthly_storage(40_000_000_000, 55_000_000_000)
    );
    println!(
        "selective query, indexed:       {}",
        model.query_indexed(
            500_000,
            100,
            350,
            SimDuration::from_secs(12),
            InstanceType::Large
        )
    );
    println!(
        "same query, full scan:          {}",
        model.query_no_index(
            500_000,
            20_000,
            SimDuration::from_secs(1800),
            InstanceType::Large
        )
    );

    // ----- 2. Provider portability (paper Table 1).
    println!("\n== Same workload, different providers ==");
    for prices in [
        PriceTable::aws_singapore_2012(),
        PriceTable::google_cloud_2012(),
        PriceTable::windows_azure_2012(),
    ] {
        let m = CostModel::new(prices);
        println!(
            "{:<28} storage {} / month, indexed query {}",
            m.prices.provider,
            m.monthly_storage(40_000_000_000, 55_000_000_000),
            m.query_indexed(
                500_000,
                100,
                350,
                SimDuration::from_secs(12),
                InstanceType::Large
            ),
        );
    }

    // ----- 3. Look-up plans (the paper's Figure 5, for each strategy).
    println!("\n== Look-up plans for q2 ==");
    let q2 = workload_query("q2").expect("q2 exists");
    for s in Strategy::ALL {
        println!("{}", explain(s, &q2, ExtractOptions::default()));
    }

    // ----- 4. The index advisor on a live sample.
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
    // The paper's question — one strategy, or none, for the whole corpus —
    // is the advisor asked about a sample with one partition: every query
    // once per run, no churn, no constraints.
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
            budget_per_month: None,
            response_slo: None,
        };
        let advice = advise_adaptive(
            &sample,
            &families,
            &BTreeMap::new(),
            &horizon,
            &WarehouseConfig::default(),
        )
        .expect("sample corpus parses and fits the store's limits");
        println!("\nexpected workload runs: {expected_runs}");
        println!(
            "  {:<14} {:>14} {:>14} {:>14} {:>14}",
            "layout", "build", "$/run", "storage/mo", "projected"
        );
        // With one partition the searched winner (`/=LUI`) is a uniform
        // layout under another name; print the uniform rows only.
        let uniform = advice
            .ranked
            .iter()
            .filter(|e| e.plan.assignments().is_empty());
        for e in uniform {
            println!(
                "  {:<14} {:>14} {:>14} {:>14} {:>14}",
                e.label,
                e.build_cost.to_string(),
                e.run_cost.to_string(),
                e.storage_per_month.to_string(),
                e.projected_total.to_string(),
            );
        }
        println!(
            "  advised: {} -> indexing {}",
            advice.chosen.label,
            if advice.chosen.plan.strategy_of("").is_some() {
                "pays off"
            } else {
                "does not pay off yet"
            }
        );
    }

    // ----- 5. The same advisor asked the per-query question (the paper's
    // Section 8.5: which queries want the ID-granularity strategies): the
    // same one-partition sample, a workload of that one family.
    println!("\n== Per-query advice (one-family workloads, 500 runs) ==");
    let horizon = Horizon {
        expected_runs: 500,
        months: 1.0,
        budget_per_month: None,
        response_slo: None,
    };
    for q in queries {
        let name = q.name.clone().unwrap_or_default();
        let family = [FamilyLoad {
            query: q,
            arrivals: 1,
        }];
        let advice = advise_adaptive(
            &sample,
            &family,
            &BTreeMap::new(),
            &horizon,
            &WarehouseConfig::default(),
        )
        .expect("sample corpus parses and fits the store's limits");
        let scan = advice
            .ranked
            .iter()
            .find(|e| e.plan.assignments().is_empty() && e.plan.default_strategy().is_none())
            .expect("the unindexed layout always competes");
        println!(
            "  {name:<4} advised: {:<8} {} / run (scan: {} / run), projected {}",
            advice.chosen.label,
            advice.chosen.run_cost,
            scan.run_cost,
            advice.chosen.projected_total,
        );
    }
}
