//! Above four partitions the advisor stops enumerating assignments and
//! refines the best uniform layout one partition at a time. A
//! five-partition sample takes that branch: its choice must never be
//! dearer than the best uniform layout, must not depend on the host's
//! thread count, and — partitions owning disjoint tables — must give the
//! first four partitions what the exhaustive search gives them alone.

use amada::index::partition_of;
use amada::warehouse::{
    advise_adaptive, AdaptiveAdvice, Churn, FamilyLoad, Horizon, WarehouseConfig,
};
use amada::xmark::{generate_corpus, workload_query, CorpusConfig};
use std::collections::BTreeMap;

const PARTITIONS: [&str; 5] = ["a", "b", "c", "d", "e"];

/// Three documents in each of five partitions (q1's pinned document,
/// `xmark00006`, lands in `b`).
fn sample() -> Vec<(String, String)> {
    let cfg = CorpusConfig {
        num_documents: 15,
        target_doc_bytes: 1200,
        ..Default::default()
    };
    generate_corpus(&cfg)
        .into_iter()
        .enumerate()
        .map(|(i, d)| (format!("{}/{}", PARTITIONS[i % 5], d.uri), d.xml))
        .collect()
}

fn advise(sample: &[(String, String)]) -> AdaptiveAdvice {
    // Selective traffic dominates, a low-selectivity query trickles in,
    // and partition `c` is replaced between runs, no key kept.
    let workload = [("q1", 6), ("q6", 1)].map(|(name, arrivals)| FamilyLoad {
        query: workload_query(name).expect("a workload query"),
        arrivals,
    });
    let replaced = Churn {
        documents: 3,
        dropped: 1.0,
        rewritten: [1.0; 4],
    };
    let churn = BTreeMap::from([("c".to_string(), replaced)]);
    let horizon = Horizon {
        expected_runs: 200,
        months: 1.0,
        budget_per_month: None,
        response_slo: None,
    };
    advise_adaptive(
        sample,
        &workload,
        &churn,
        &horizon,
        &WarehouseConfig::default(),
    )
    .expect("the generated sample is well-formed")
}

/// What an advice comes down to: the chosen label and total, and the
/// ranked labels.
fn outcome(advice: &AdaptiveAdvice) -> (String, u128, Vec<String>) {
    (
        advice.chosen.label.clone(),
        advice.chosen.projected_total.pico(),
        advice.ranked.iter().map(|e| e.label.clone()).collect(),
    )
}

#[test]
fn five_partitions_descend_to_the_exhaustive_choice() {
    // One test function on purpose: it sets the process-wide
    // AMADA_THREADS, which concurrent tests would race on.
    let five = sample();
    let four: Vec<(String, String)> = five
        .iter()
        .filter(|(uri, _)| partition_of(uri) != "e")
        .cloned()
        .collect();
    assert_eq!((five.len(), four.len()), (15, 12));

    std::env::set_var("AMADA_THREADS", "1");
    let descended = advise(&five);
    let exhaustive = advise(&four);
    std::env::set_var("AMADA_THREADS", "2");
    assert_eq!(outcome(&advise(&five)), outcome(&descended), "2 threads");
    std::env::remove_var("AMADA_THREADS");

    // Never dearer than the best uniform layout (all five compete).
    let uniforms: Vec<_> = descended
        .ranked
        .iter()
        .filter(|e| e.label.starts_with("uniform:"))
        .collect();
    assert_eq!(uniforms.len(), 5);
    for u in uniforms {
        assert!(
            descended.chosen.projected_total <= u.projected_total,
            "{} ({}) is dearer than {} ({})",
            descended.chosen.label,
            descended.chosen.projected_total,
            u.label,
            u.projected_total
        );
    }
    assert!(descended.budget_met);
    // The descent moved off its uniform seed: the plan is mixed.
    let plan = &descended.chosen.plan;
    assert_eq!(plan.assignments().len(), 5, "{}", descended.chosen.label);
    assert_ne!(plan.strategy_of("b"), plan.strategy_of("c"));

    // On the first four partitions, the true argmin over all 5^4
    // assignments of the four-partition sample.
    for partition in &PARTITIONS[..4] {
        assert_eq!(
            plan.strategy_of(partition),
            exhaustive.chosen.plan.strategy_of(partition),
            "{partition}: descent {} vs exhaustive {}",
            descended.chosen.label,
            exhaustive.chosen.label
        );
    }
}
