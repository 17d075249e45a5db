//! Document-churn integration tests: arbitrary upload/replace/delete
//! interleavings must keep the warehouse accounting reconciled with the
//! live file store, and churn under injected faults (throttles, crashed
//! deletes, mid-replace loader crashes) must converge to the exact same
//! index bytes as a fault-free run — at strictly higher cost.

use amada::cloud::{FaultConfig, SimDuration};
use amada::index::Strategy;
use amada::warehouse::{Warehouse, WarehouseConfig};
use amada_core::actors::{DocCache, LoaderCore, LoaderTotals, Worker};
use amada_core::{DOC_BUCKET, LOADER, LOADER_QUEUE};
use amada_rng::StdRng;
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::rc::Rc;

fn doc_xml(id: u64, version: u64) -> String {
    // Content varies with the version so replaces genuinely change keys;
    // tag names rotate so different documents share some index keys.
    format!(
        "<item><name>doc {id} v{version}</name><tag{}>x</tag{}>{}</item>",
        id % 5,
        id % 5,
        "<pad>filler</pad>".repeat((version % 3) as usize)
    )
}

/// Satellite: `corpus_bytes`, `documents()` and `storage_cost` reconcile
/// exactly with the live S3 inventory after arbitrary churn, and the
/// index equals a fresh build of whatever survived.
#[test]
fn accounting_reconciles_after_arbitrary_churn() {
    for seed in [1u64, 2, 3] {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut w = Warehouse::new(WarehouseConfig::with_strategy(Strategy::Lup));
        let mut live: BTreeMap<String, String> = BTreeMap::new();
        let mut next_id = 0u64;
        let mut version = 0u64;
        for _ in 0..40 {
            version += 1;
            match rng.gen_range(0u64..5) {
                // Upload a fresh document.
                0 | 1 => {
                    let uri = format!("doc{next_id}.xml");
                    next_id += 1;
                    let xml = doc_xml(next_id, version);
                    live.insert(uri.clone(), xml.clone());
                    w.upload_documents([(uri, xml)]);
                }
                // Replace a random live document (new or identical body).
                2 => {
                    if live.is_empty() {
                        continue;
                    }
                    let uris: Vec<&String> = live.keys().collect();
                    let uri = uris[rng.gen_range(0..uris.len() as u64) as usize].clone();
                    let id = rng.gen_range(0..next_id.max(1));
                    let xml = doc_xml(id, version);
                    live.insert(uri.clone(), xml.clone());
                    w.upload_documents([(uri, xml)]);
                }
                // Delete a random live document.
                3 => {
                    if live.is_empty() {
                        continue;
                    }
                    let uris: Vec<&String> = live.keys().collect();
                    let uri = uris[rng.gen_range(0..uris.len() as u64) as usize].clone();
                    live.remove(&uri);
                    w.delete_documents([uri]);
                }
                // Drain the loader queue.
                _ => {
                    w.build_index();
                }
            }
        }
        w.build_index();

        // The S3 inventory is the ground truth.
        let inventory = w.world().s3.peek_all(DOC_BUCKET);
        let mut listed: Vec<&str> = w.documents().iter().map(|s| s.as_str()).collect();
        listed.sort_unstable();
        let stored: Vec<&str> = inventory.iter().map(|(u, _)| u.as_str()).collect();
        assert_eq!(listed, stored, "seed {seed}: documents() vs S3 listing");
        let stored_bytes: u64 = inventory.iter().map(|(_, b)| b.len() as u64).sum();
        assert_eq!(
            w.corpus_bytes(),
            stored_bytes,
            "seed {seed}: corpus_bytes vs S3 inventory"
        );

        // A fresh warehouse of the surviving corpus stores the same
        // bytes, charges the same monthly rate, and builds the exact
        // same index.
        let mut fresh = Warehouse::new(WarehouseConfig::with_strategy(Strategy::Lup));
        fresh.upload_documents(live.clone());
        fresh.build_index();
        assert_eq!(w.corpus_bytes(), fresh.corpus_bytes(), "seed {seed}");
        assert_eq!(w.storage_cost(), fresh.storage_cost(), "seed {seed}");
        assert_eq!(
            w.world().kv.peek_all(),
            fresh.world().kv.peek_all(),
            "seed {seed}: churned index differs from fresh build"
        );
    }
}

/// Satellite: churn under injected throttles — including throttled
/// S3 DELETEs and throttled index retraction — converges to the exact
/// index and inventory of the fault-free run, at strictly higher cost.
#[test]
fn throttled_churn_converges_at_higher_cost() {
    let run = |rate: f64| {
        let mut cfg = WarehouseConfig::with_strategy(Strategy::Lup);
        cfg.faults = FaultConfig {
            seed: 0xFA117,
            s3_rate: rate,
            kv_rate: rate,
            sqs_rate: rate,
        };
        let mut w = Warehouse::new(cfg);
        let docs: Vec<(String, String)> = (0..10)
            .map(|i| (format!("doc{i}.xml"), doc_xml(i, 0)))
            .collect();
        w.upload_documents(docs);
        w.build_index();
        // Replace four documents (shrinks and grows), delete three.
        w.upload_documents((0..4).map(|i| (format!("doc{i}.xml"), doc_xml(i + 20, 1))));
        w.build_index();
        w.delete_documents((4..7).map(|i| format!("doc{i}.xml")));
        w
    };
    let clean = run(0.0);
    let faulty = run(0.08);
    let s3 = faulty.world().s3.stats();
    let kv = faulty.world().kv.stats();
    assert!(
        s3.throttled + kv.throttled > 0,
        "8% fault rate must throttle something"
    );
    assert_eq!(
        faulty.world().kv.peek_all(),
        clean.world().kv.peek_all(),
        "throttled churn must converge to the fault-free index"
    );
    assert_eq!(
        faulty.world().s3.peek_all(DOC_BUCKET),
        clean.world().s3.peek_all(DOC_BUCKET)
    );
    assert_eq!(faulty.corpus_bytes(), clean.corpus_bytes());
    assert!(
        faulty.total_cost().total() > clean.total_cost().total(),
        "every throttled retry is billed: faulty {} vs clean {}",
        faulty.total_cost().total(),
        clean.total_cost().total()
    );
}

/// Tentpole invariant: a loader that crashes *mid-replace* — after
/// writing some new-version batches, or mid-retraction — is recovered by
/// redelivery, and the index converges to exactly the fault-free bytes:
/// either the old or the new version is visible at every instant, never
/// an interleaving that survives.
#[test]
fn mid_replace_crash_converges_to_the_new_version() {
    let mut cfg = WarehouseConfig::with_strategy(Strategy::Lup);
    cfg.visibility = SimDuration::from_secs(30);
    let v1: Vec<(String, String)> = (0..6)
        .map(|i| (format!("doc{i}.xml"), doc_xml(i, 0)))
        .collect();
    let v2: Vec<(String, String)> = (0..6)
        .map(|i| (format!("doc{i}.xml"), doc_xml(i + 40, 1)))
        .collect();

    let mut w = Warehouse::new(cfg.clone());
    w.upload_documents(v1.clone());
    w.build_index();
    let clean_old = w.world().kv.peek_all();
    w.upload_documents(v2.clone());

    // Rebuild with a hand-built pool: one core crashes after its first
    // index batch (mid-replace — new items partly written, stale items
    // not yet deleted), a healthy core picks up the redelivery.
    let totals = Rc::new(RefCell::new(LoaderTotals::default()));
    let cache: DocCache = w.cache().clone();
    let registry = w.retraction_registry();
    let plan = w.routing_plan();
    let start = w.now();
    let engine = w.engine_mut();
    engine.world.sqs.close(LOADER_QUEUE);
    let mk = |engine: &mut amada::cloud::Engine, idx: u64| {
        let instance = engine.world.ec2.launch(cfg.loader_pool.itype, start);
        LoaderCore::new(
            &cfg,
            Worker::new(&cfg, LOADER, instance, idx, None),
            plan.clone(),
            registry.clone(),
            totals.clone(),
            cache.clone(),
        )
    };
    let mut crashing = mk(engine, 1);
    crashing.crash_after_batches = Some(1);
    engine.spawn(Box::new(crashing), start);
    let healthy = mk(engine, 2);
    engine.spawn(Box::new(healthy), start);
    engine.run();
    engine.world.sqs.open(LOADER_QUEUE);
    assert!(
        engine.world.sqs.stats().redelivered >= 1,
        "the crash must lose a lease"
    );
    let crashed_index = engine.world.kv.peek_all();
    let crashed_put_ops = engine.world.kv.stats().put_ops;

    // The fault-free run of the same churn.
    let mut clean = Warehouse::new(cfg.clone());
    clean.upload_documents(v1);
    clean.build_index();
    clean.upload_documents(v2.clone());
    clean.build_index();
    let clean_index = clean.world().kv.peek_all();
    assert_ne!(clean_index, clean_old, "the replace must change the index");
    assert_eq!(
        crashed_index, clean_index,
        "mid-replace crash must converge to the new version, byte-identical"
    );
    assert!(
        crashed_put_ops > clean.world().kv.stats().put_ops,
        "recovery rewrites idempotently — visible as extra billed writes"
    );

    // And both equal a fresh build of v2 alone: no v1 leftovers at all.
    let mut fresh = Warehouse::new(cfg);
    fresh.upload_documents(v2);
    fresh.build_index();
    assert_eq!(clean_index, fresh.world().kv.peek_all());
}

/// A version that is replaced before any loader ran was never indexed:
/// the registry already holds what the last *indexed* version left, and
/// recording the unindexed one's keys too would bill a delete per key that
/// is not there. Two replaces between builds cost the build what the one
/// from the indexed version to the final one costs — also when the first
/// replace re-uploads the indexed bytes unchanged. (The baseline uploads
/// the final version twice: every upload queues a loader message, and two
/// cores working one document's two messages at once each retract.)
#[test]
fn a_version_replaced_before_it_was_indexed_leaves_nothing_to_retract() {
    let xml = |id: u64, v: usize| format!("<item><v{v}>only{v}</v{v}><name>doc {id}</name></item>");
    let docs = move |v: usize| (0..6u64).map(move |i| (format!("doc{i}.xml"), xml(i, v)));
    // v0 indexed, then two uploads and the build under test.
    let build = |uploads: [usize; 2]| {
        let mut w = Warehouse::new(WarehouseConfig::with_strategy(Strategy::Lup));
        w.upload_documents(docs(0));
        w.build_index();
        for v in uploads {
            w.upload_documents(docs(v));
        }
        let report = w.build_index();
        (w, report)
    };
    let (direct, v0_to_v2) = build([2, 2]);
    assert!(v0_to_v2.retracted_items > 0, "v0's own keys go");
    let mut fresh = Warehouse::new(WarehouseConfig::with_strategy(Strategy::Lup));
    fresh.upload_documents(docs(2));
    fresh.build_index();
    assert_eq!(direct.world().kv.peek_all(), fresh.world().kv.peek_all());
    for uploads in [[1, 2], [0, 2]] {
        let (w, report) = build(uploads);
        assert_eq!(
            (report.retracted_items, report.cost),
            (v0_to_v2.retracted_items, v0_to_v2.cost),
            "{uploads:?}: retracts what v0 → v2 alone retracts"
        );
        assert_eq!(w.world().kv.peek_all(), fresh.world().kv.peek_all());
    }
}
