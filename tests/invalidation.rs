//! The read path keeps state between queries — the partition catalog, the
//! "parses are warm" flag — so stale state is a way to be wrong that the
//! per-query rebuild never had. One warehouse lives through every kind of
//! mutation with queries in between (each query re-populates the hoisted
//! state the next mutation must drop), and after each one it must answer
//! and bill exactly like a fresh warehouse built from the same final
//! state.
//!
//! One test function on purpose (like `prewarm_identity.rs`): it sets the
//! process-wide `AMADA_THREADS`, which concurrent tests would race on.

use amada::cloud::{ServiceKind, Span};
use amada::index::{partition_of, MixedPlan, Strategy};
use amada::pattern::{parse_query, Query};
use amada::warehouse::{Warehouse, WarehouseConfig};
use std::collections::{BTreeMap, BTreeSet};

fn queries() -> Vec<Query> {
    [
        ("names", "//painting[/name{val}]"),
        ("hunts", "//painting[/name{contains(Hunt)}, /year{val}]"),
        ("statues", "//sculpture[/name{val}]"),
        (
            "same-year",
            "//painting[/name{val}, /year{val as $y}]; //sculpture[/name{val}, /year{val as $y}]",
        ),
    ]
    .into_iter()
    .map(|(name, text)| {
        let mut q = parse_query(text).expect("test queries parse");
        q.name = Some(name.into());
        q
    })
    .collect()
}

fn warehouse(plan: &Option<MixedPlan>) -> Warehouse {
    let mut cfg = WarehouseConfig::with_strategy(Strategy::Lup);
    cfg.host.record = true;
    let mut w = Warehouse::new(cfg);
    if let Some(plan) = plan {
        w.apply_plan(plan.clone());
    }
    w
}

fn batch_gets(spans: &[Span]) -> usize {
    spans
        .iter()
        .filter(|s| s.service == ServiceKind::Kv && s.op == "batch_get")
        .count()
}

/// `w` has lived through mutations and queries; a fresh warehouse is
/// built from `state` under `plan`. Both must agree on everything a query
/// reports and costs, with and without the index.
fn assert_like_fresh(
    w: &mut Warehouse,
    state: &BTreeMap<String, String>,
    plan: &Option<MixedPlan>,
    after: &str,
) {
    let mut fresh = warehouse(plan);
    fresh.upload_documents(state.clone());
    fresh.build_index();

    // The catalog lists exactly the partitions holding documents.
    let routing = w.routing_plan();
    let live: BTreeSet<String> = state
        .keys()
        .map(|uri| routing.partition_of(uri).to_string())
        .collect();
    assert_eq!(*w.partition_catalog(), live, "catalog after {after}");

    for q in queries() {
        let name = q.name.clone().unwrap();
        for indexed in [true, false] {
            let run = |w: &mut Warehouse| {
                let spans_before = w.spans().len();
                let out = if indexed {
                    w.run_query(&q)
                } else {
                    w.run_query_no_index(&q)
                };
                (out, batch_gets(&w.spans()[spans_before..]))
            };
            let (lived, lived_gets) = run(w);
            let (new, new_gets) = run(&mut fresh);
            let what = format!("{name} (indexed: {indexed}) after {after}");
            assert_eq!(lived.exec.results, new.exec.results, "answers of {what}");
            assert_eq!(lived.cost, new.cost, "bill of {what}");
            assert_eq!(
                (
                    lived.exec.response_time,
                    lived.exec.docs_fetched,
                    lived.exec.index_get_ops
                ),
                (
                    new.exec.response_time,
                    new.exec.docs_fetched,
                    new.exec.index_get_ops
                ),
                "execution of {what}"
            );
            // No look-up goes to a partition that holds nothing.
            assert_eq!(lived_gets, new_gets, "batch gets of {what}");
        }
    }
}

#[test]
fn every_mutation_drops_the_hoisted_read_path_state() {
    let painting = |name: &str, year: u32| {
        format!("<painting><name>{name}</name><year>{year}</year></painting>")
    };
    let sculpture = |name: &str, year: u32| {
        format!("<sculpture><name>{name}</name><year>{year}</year></sculpture>")
    };
    // Fully indexed: no query may fall back on a corpus listing.
    let by_partition =
        Some(MixedPlan::uniform(Some(Strategy::Lup)).with("hot", Some(Strategy::TwoLupi)));
    let all_lui = Some(MixedPlan::uniform(Some(Strategy::Lui)));
    for threads in ["1", "2"] {
        std::env::set_var("AMADA_THREADS", threads);
        let mut plan = by_partition.clone();
        let mut w = warehouse(&plan);
        let mut state: BTreeMap<String, String> = BTreeMap::from([
            ("hot/lion.xml".into(), painting("Lion Hunt", 1854)),
            ("hot/tiger.xml".into(), painting("Tiger Hunt", 1854)),
            ("cold/david.xml".into(), sculpture("David", 1504)),
            ("raft.xml".into(), painting("The Raft", 1819)),
        ]);
        w.upload_documents(state.clone());
        w.build_index();
        assert_like_fresh(&mut w, &state, &plan, "the first build");

        // A new document, in a partition of its own.
        let uri = "new/thinker.xml".to_string();
        state.insert(uri.clone(), sculpture("The Thinker", 1854));
        w.upload_documents([(uri.clone(), state[&uri].clone())]);
        w.build_index();
        assert_like_fresh(&mut w, &state, &plan, "an upload");

        // The same URI, different bytes.
        let uri = "hot/lion.xml".to_string();
        state.insert(uri.clone(), painting("Lion at Rest", 1504));
        w.upload_documents([(uri.clone(), state[&uri].clone())]);
        w.build_index();
        assert_like_fresh(&mut w, &state, &plan, "a replace");

        // The last document of its partition goes…
        let uri = "cold/david.xml".to_string();
        let david = state.remove(&uri).unwrap();
        assert_eq!(partition_of(&uri), "cold");
        assert_eq!(w.delete_documents([uri.clone()]).documents, 1);
        assert!(!w.partition_catalog().contains("cold"));
        assert_like_fresh(&mut w, &state, &plan, "a delete");

        // …and comes back.
        state.insert(uri.clone(), david.clone());
        w.upload_documents([(uri, david)]);
        w.build_index();
        assert_like_fresh(&mut w, &state, &plan, "a re-upload");

        // Another routing plan, then the flat one: partitions move tables,
        // then stop existing.
        for next in [all_lui.clone(), None] {
            plan = next;
            let flat = MixedPlan::flat(Some(Strategy::Lup));
            assert!(w.apply_plan(plan.clone().unwrap_or(flat)) > 0);
            w.build_index();
            assert_like_fresh(&mut w, &state, &plan, "a plan switch");
        }
    }
    std::env::remove_var("AMADA_THREADS");
}
