//! Document-churn integration tests: arbitrary upload/replace/delete
//! interleavings must keep the warehouse accounting reconciled with the
//! live file store, and churn under injected faults (throttles, crashed
//! deletes, mid-replace loader crashes) must converge to the exact same
//! index bytes as a fault-free run — at strictly higher cost.

use amada::cloud::{FaultConfig, Money, SimDuration};
use amada::index::Strategy;
use amada::pattern::{evaluate_query_on_documents, parse_query};
use amada::warehouse::{Warehouse, WarehouseConfig};
use amada::xml::Document;
use amada_core::actors::{LoaderCore, LoaderTotals, Worker};
use amada_core::{DEAD_LETTER_QUEUE, DOC_BUCKET, LOADER, LOADER_POOL, LOADER_QUEUE};
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

/// The host's evaluation memo lives and dies with a stored version: after a
/// document is replaced under its URI, the next query answers what direct
/// evaluation of the new bytes answers. (That the new version is a memo miss
/// is counted in `tests/prewarm_pending.rs`, a binary of its own.)
#[test]
fn a_replaced_document_is_evaluated_afresh() {
    let query = parse_query("//item[/name{val}]").expect("parses");
    let sorted = |rows: Vec<amada::pattern::JoinedTuple>| {
        let mut rows: Vec<Vec<_>> = rows.into_iter().map(|t| t.columns).collect();
        rows.sort();
        rows
    };
    let oracle = |live: &BTreeMap<String, String>| {
        let docs = live
            .iter()
            .map(|(uri, xml)| Document::parse_str(uri.clone(), xml));
        let docs: Vec<Document> = docs.collect::<Result<_, _>>().expect("well-formed");
        sorted(evaluate_query_on_documents(&query, docs.iter()).0)
    };
    let mut live: BTreeMap<String, String> = (0..4u64)
        .map(|id| (format!("memo-doc{id}.xml"), doc_xml(id, 1)))
        .collect();
    let mut w = Warehouse::new(WarehouseConfig::with_strategy(Strategy::Lup));
    w.upload_documents(live.clone());
    w.build_index();
    assert_eq!(sorted(w.run_query(&query).exec.results), oracle(&live));
    let replaced = ("memo-doc0.xml".to_string(), doc_xml(0, 2));
    live.insert(replaced.0.clone(), replaced.1.clone());
    w.upload_documents([replaced]);
    w.build_index();
    assert_eq!(sorted(w.run_query(&query).exec.results), oracle(&live));
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
            rate,
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
    run_crashing_pool(&mut w, &cfg, 1, true);
    let engine = w.engine_mut();
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

/// A document of some thirty keys — two put batches — whose index values,
/// not only its keys, follow `shape`: shape 1 wraps the fields, so every
/// path and identifier under a kept key changes; shape 2 is shape 1 with a
/// field more.
fn shaped(id: u64, shape: usize) -> String {
    let facets: String = (0..28).map(|j| format!("<f{j}>x</f{j}>")).collect();
    let fields = format!("<name>painting {id}</name><year>1854</year>{facets}");
    match shape {
        0 => format!("<item>{fields}</item>"),
        1 => format!("<item><wrap>{fields}</wrap></item>"),
        _ => format!("<item><wrap>{fields}</wrap><sold>yes</sold></item>"),
    }
}

fn shaped_docs(shape: usize) -> impl Iterator<Item = (String, String)> {
    (0..6u64).map(move |i| (format!("doc{i}.xml"), shaped(i, shape)))
}

/// A warehouse with shape 0 of the six documents indexed.
fn indexed(strategy: Strategy) -> Warehouse {
    let mut w = Warehouse::new(WarehouseConfig::with_strategy(strategy));
    w.upload_documents(shaped_docs(0));
    w.build_index();
    w
}

fn fresh_index(strategy: Strategy, shape: usize) -> Vec<(String, amada::cloud::KvItem)> {
    let mut fresh = Warehouse::new(WarehouseConfig::with_strategy(strategy));
    fresh.upload_documents(shaped_docs(shape));
    fresh.build_index();
    fresh.world().kv.peek_all()
}

/// A rebuild writes what changed: re-uploading indexed documents byte for
/// byte consumes no write capacity at all — no put, no delete — and the
/// index stays what it was.
#[test]
fn an_identical_re_upload_bills_no_write_unit() {
    for strategy in Strategy::ALL {
        let mut w = indexed(strategy);
        let (index, kv) = (w.world().kv.peek_all(), w.world().kv.stats());
        w.upload_documents(shaped_docs(0));
        let report = w.build_index();
        assert_eq!(report.documents, 6, "{strategy}: every message is worked");
        assert_eq!((report.items, report.retracted_items), (0, 0), "{strategy}");
        assert_eq!(report.unchanged_items as usize, index.len(), "{strategy}");
        assert_eq!(
            w.world().kv.stats(),
            kv,
            "{strategy}: not a unit, not a call"
        );
        assert_eq!(w.world().kv.peek_all(), index, "{strategy}");
        assert!(w.retraction_registry().borrow().is_empty(), "{strategy}");
    }
}

/// Skips are taken against the last *indexed* version. Shape 0 is indexed,
/// shapes 1 and 2 are uploaded before one build: shape 2 keeps shape 1's
/// values under every key they share, but the store holds shape 0's, so the
/// build writes exactly what going from 0 to 2 directly writes — and ends
/// on a fresh build's bytes.
#[test]
fn skips_are_taken_against_the_last_indexed_version() {
    for strategy in Strategy::ALL {
        let build = |uploads: [usize; 2]| {
            let mut w = indexed(strategy);
            for shape in uploads {
                w.upload_documents(shaped_docs(shape));
            }
            let report = w.build_index();
            (w, report)
        };
        let (direct, from_0) = build([2, 2]);
        let (via_1, report) = build([1, 2]);
        assert_eq!(
            (report.items, report.unchanged_items, report.retracted_items),
            (from_0.items, from_0.unchanged_items, from_0.retracted_items),
            "{strategy}"
        );
        assert_eq!(report.cost, from_0.cost, "{strategy}");
        // Wrapping the fields moves every identifier; a path or a
        // presence mark it leaves alone is skipped.
        assert_eq!(report.unchanged_items > 0, strategy != Strategy::Lui);
        let fresh = fresh_index(strategy, 2);
        assert_eq!(via_1.world().kv.peek_all(), fresh, "{strategy}");
        assert_eq!(direct.world().kv.peek_all(), fresh, "{strategy}");
    }
}

/// Runs the loader queue dry on a hand-built pool sharing the warehouse's
/// registry: a core that crashes after `crash_after` index batches and,
/// if asked for, a healthy one beside it.
fn run_crashing_pool(w: &mut Warehouse, cfg: &WarehouseConfig, crash_after: u64, healthy: bool) {
    let totals = Rc::new(RefCell::new(LoaderTotals::default()));
    let (registry, start) = (w.retraction_registry(), w.now());
    let engine = w.engine_mut();
    engine.world.sqs.close(LOADER_QUEUE);
    for idx in 1..=1 + u64::from(healthy) {
        let instance = engine.world.ec2.launch(LOADER_POOL.itype, start);
        let worker = Worker::new(cfg, LOADER, instance, idx);
        let registry = registry.clone();
        let mut core = LoaderCore::new(cfg, worker, registry, totals.clone());
        core.crash_after_batches = (idx == 1).then_some(crash_after);
        engine.spawn(Box::new(core), start);
    }
    engine.run();
    engine.world.sqs.open(LOADER_QUEUE);
}

/// A loader that crashes mid-upload of a replaced document leaves the
/// registry entry in place, holding the version it planned beside the
/// indexed one; the redelivered message re-plans against both and the
/// index converges on a fresh build's bytes — under throttling, at the
/// chaos matrix's seeds, wherever in the burst the crash falls.
#[test]
fn a_crashed_replace_converges_on_redelivery_at_the_chaos_seeds() {
    for seed in [1_025_299u64, 42, 7777] {
        for (strategy, crash_after) in Strategy::ALL.into_iter().zip([1, 2, 3, 4]) {
            let mut cfg = WarehouseConfig::with_strategy(strategy);
            cfg.visibility = SimDuration::from_secs(30);
            cfg.faults = FaultConfig { seed, rate: 0.05 };
            let mut w = Warehouse::new(cfg.clone());
            w.upload_documents(shaped_docs(0));
            w.build_index();
            w.upload_documents(shaped_docs(2));
            run_crashing_pool(&mut w, &cfg, crash_after, true);
            let what = format!("{strategy}, seed {seed}, crash after {crash_after}");
            assert!(w.world().sqs.stats().redelivered >= 1, "{what}");
            assert_eq!(w.world().kv.peek_all(), fresh_index(strategy, 2), "{what}");
            assert!(w.retraction_registry().borrow().is_empty(), "{what}");
        }
    }
}

/// The crash nobody redelivers in time: the pool's only core dies having
/// written shape 1 over shape 0, and before the message comes back the
/// documents return to shape 0. The registry still holds shape 0, the
/// indexed version — and beside it shape 1, whose plan went out, so the
/// rebuild rewrites every key the two versions disagree on and deletes the
/// keys shape 1 alone has: a wrong skip would keep shape 1's paths, a
/// missing key its `wrap` entries.
#[test]
fn a_crashed_replace_then_the_old_bytes_again_skips_nothing_it_cannot_vouch_for() {
    for strategy in Strategy::ALL {
        for crash_after in [1, 2] {
            let cfg = WarehouseConfig::with_strategy(strategy);
            let mut w = indexed(strategy);
            w.upload_documents(shaped_docs(1));
            run_crashing_pool(&mut w, &cfg, crash_after, false);
            let what = format!("{strategy}, crash after {crash_after}");
            assert_ne!(w.world().kv.peek_all(), fresh_index(strategy, 0), "{what}");
            w.upload_documents(shaped_docs(0));
            let report = w.build_index();
            assert_eq!(w.world().kv.peek_all(), fresh_index(strategy, 0), "{what}");
            // What the crashed core never reached is still vouched for.
            assert!(report.unchanged_items > 0, "{what}");
            assert!(w.retraction_registry().borrow().is_empty(), "{what}");
        }
    }
}

/// The same crash among the deletes: the only core dies going from shape 2
/// to shape 0, with some of the keys shape 2 alone holds deleted (2LUPI plans
/// a delete batch per table), and the documents return to shape 2. Shape 0,
/// held beside shape 2, lacks those keys, so the rebuild puts them back as
/// it puts a key a plan may have overwritten: a wrong skip would leave the
/// index without them — for good, when the crashed message is parked
/// instead of delivered a second time (a second delivery finds no entry and
/// rewrites everything).
#[test]
fn a_crash_among_the_deletes_then_the_old_bytes_again_puts_the_deleted_keys_back() {
    for strategy in Strategy::ALL {
        for crash_after in 1..=6 {
            let mut cfg = WarehouseConfig::with_strategy(strategy);
            cfg.retry.max_receives = 1;
            cfg.visibility = SimDuration::from_secs(30);
            let mut w = Warehouse::new(cfg.clone());
            w.upload_documents(shaped_docs(2));
            w.build_index();
            w.upload_documents(shaped_docs(0));
            run_crashing_pool(&mut w, &cfg, crash_after, false);
            let what = format!("{strategy}, crash after {crash_after}");
            assert_ne!(w.world().kv.peek_all(), fresh_index(strategy, 2), "{what}");
            w.upload_documents(shaped_docs(2));
            w.build_index();
            assert_eq!(w.world().kv.peek_all(), fresh_index(strategy, 2), "{what}");
        }
    }
}

/// Shape 0 with its fields twice: the same keys, and under LUI a new value
/// for each — every identifier list grows, and the root's post-order rank
/// moves.
fn doubled_docs() -> impl Iterator<Item = (String, String)> {
    shaped_docs(0).map(|(uri, xml)| {
        let fields = &xml["<item>".len()..xml.len() - "</item>".len()];
        (uri, format!("<item>{fields}{fields}</item>"))
    })
}

/// A re-upload that keeps every key and changes every value writes each
/// item over the one of the same key and deletes nothing.
#[test]
fn a_re_upload_in_place_rewrites_every_item_whose_value_differs() {
    let mut w = indexed(Strategy::Lui);
    let before = w.world().kv.peek_all();
    w.upload_documents(doubled_docs());
    let report = w.build_index();
    let after = w.world().kv.peek_all();
    let mut fresh = Warehouse::new(WarehouseConfig::with_strategy(Strategy::Lui));
    fresh.upload_documents(doubled_docs());
    fresh.build_index();
    assert_eq!(after, fresh.world().kv.peek_all());
    assert_eq!(after.len(), before.len(), "the same keys");
    let rewritten = before.iter().zip(&after).filter(|(b, a)| b != a).count();
    assert_eq!(rewritten, after.len(), "every identifier list changed");
    assert_eq!(
        (
            report.items as usize,
            report.unchanged_items,
            report.retracted_items
        ),
        (rewritten, 0, 0)
    );
    // And back to the first version: the same again.
    w.upload_documents(shaped_docs(0));
    let report = w.build_index();
    assert_eq!(
        (report.items as usize, report.unchanged_items),
        (rewritten, 0)
    );
    assert_eq!(w.world().kv.peek_all(), before);
}

/// A parked message leaves its registry entry — what the store may hold for
/// the document is still worth knowing — but no rebuild queued: a build
/// with nothing queued builds nothing, and the document's next upload sends
/// it a message of its own.
#[test]
fn a_re_upload_rebuilds_a_document_whose_message_was_parked() {
    let mut cfg = WarehouseConfig::with_strategy(Strategy::Lu);
    cfg.retry.max_receives = 1;
    cfg.visibility = SimDuration::from_secs(30);
    let mut w = Warehouse::new(cfg.clone());
    w.upload_documents(shaped_docs(0));
    w.build_index();
    w.upload_documents(shaped_docs(2));
    // The first document's one batch lands, the core dies with the second
    // document planned, and that one's second delivery is one too many.
    run_crashing_pool(&mut w, &cfg, 1, false);
    assert_eq!(w.build_index().documents, 4);
    assert_eq!(w.world().sqs.len(DEAD_LETTER_QUEUE).unwrap(), 1);
    assert_eq!(w.retraction_registry().borrow().len(), 1);
    // Nothing queued, nothing built (and nothing prewarmed: see
    // `tests/prewarm_pending.rs`, whose binary reads the process-wide
    // cache's counters with no other test probing the cache).
    assert_eq!(w.build_index().documents, 0);

    w.upload_documents(shaped_docs(2));
    assert_eq!(w.world().sqs.len(LOADER_QUEUE).unwrap(), 6);
    assert_eq!(w.build_index().documents, 6);
    assert_eq!(w.world().kv.peek_all(), fresh_index(Strategy::Lu, 2));
    assert!(w.retraction_registry().borrow().is_empty());
}

/// The build after a delete commits the message that finds its document
/// gone, and leaves nothing behind: no item, no registry entry.
fn commits_into_an_empty_index(w: &mut Warehouse, what: &str) {
    assert_eq!(w.build_index().documents, 0, "{what}");
    assert!(w.world().sqs.is_empty(LOADER_QUEUE).unwrap(), "{what}");
    assert!(w.world().kv.peek_all().is_empty(), "{what}");
    assert!(w.retraction_registry().borrow().is_empty(), "{what}");
}

fn uris(docs: impl Iterator<Item = (String, String)>) -> impl Iterator<Item = String> {
    docs.map(|(uri, _)| uri)
}

/// A delete is a plan of no entries against what the store may hold, and a
/// version no loader planned holds nothing: an upload deleted before any
/// build deletes no key and bills no write unit.
#[test]
fn deleting_an_upload_no_loader_planned_bills_nothing() {
    for strategy in [Strategy::Lu, Strategy::TwoLupi] {
        let mut w = Warehouse::new(WarehouseConfig::with_strategy(strategy));
        w.upload_documents(shaped_docs(0));
        let put_ops = w.world().kv.stats().put_ops;
        let report = w.delete_documents(uris(shaped_docs(0)));
        assert_eq!(report.documents, 6, "{strategy}");
        assert_eq!(
            (report.index_items_removed, report.cost),
            (0, Money::ZERO),
            "{strategy}"
        );
        assert_eq!(w.world().kv.stats().put_ops, put_ops, "{strategy}");
        commits_into_an_empty_index(&mut w, &strategy.to_string());
    }
}

/// A replace still queued holds nothing of its own: deleting the document
/// deletes what the indexed version stored, not the keys the queued one
/// adds, and bills what deleting the indexed version with nothing queued
/// bills.
#[test]
fn deleting_a_queued_replace_deletes_what_the_indexed_version_stored() {
    for strategy in [Strategy::Lu, Strategy::TwoLupi] {
        let mut twin = indexed(strategy);
        let expected = twin.delete_documents(uris(shaped_docs(0)));
        assert!(expected.index_items_removed > 0, "{strategy}");
        let mut w = indexed(strategy);
        w.upload_documents(shaped_docs(2));
        let report = w.delete_documents(uris(shaped_docs(0)));
        assert_eq!(
            (report.index_items_removed, report.cost),
            (expected.index_items_removed, expected.cost),
            "{strategy}"
        );
        commits_into_an_empty_index(&mut w, &strategy.to_string());
    }
}

/// A version the store's limits refuse is parked with nothing written, and
/// the registry entry does not hold it: the next version's rebuild plans
/// against the indexed version alone, so it deletes no key that only the
/// refused version has and rewrites none the two disagree on. Shape 0 of one
/// document is indexed, shape 0 with an element name over the hash-key
/// limit is refused and parked, then shape 1 is built: the index is a fresh
/// build of shape 1, and the rebuild's counts and write units are pinned.
#[test]
fn a_refused_version_then_a_well_formed_one_rebuilds_against_both() {
    let doc = |xml: String| [("doc0.xml".to_string(), xml)];
    let name = "n".repeat(3000);
    let over_limit = shaped(0, 0).replace("</item>", &format!("<{name}/></item>"));
    // (items, unchanged_items, retracted_items, put_ops, dead letters)
    for (strategy, pinned) in [
        (Strategy::Lu, (1, 35, 0, 1, 1)),
        (Strategy::TwoLupi, (71, 1, 0, 71, 1)),
    ] {
        let mut w = Warehouse::new(WarehouseConfig::with_strategy(strategy));
        w.upload_documents(doc(shaped(0, 0)));
        w.build_index();
        let (index, kv) = (w.world().kv.peek_all(), w.world().kv.stats());
        w.upload_documents(doc(over_limit.clone()));
        w.build_index();
        assert_eq!(
            w.world().kv.peek_all(),
            index,
            "{strategy}: nothing written"
        );
        assert_eq!(
            w.world().kv.stats(),
            kv,
            "{strategy}: not a unit, not a call"
        );
        w.upload_documents(doc(shaped(0, 1)));
        let report = w.build_index();
        let mut fresh = Warehouse::new(WarehouseConfig::with_strategy(strategy));
        fresh.upload_documents(doc(shaped(0, 1)));
        fresh.build_index();
        assert_eq!(
            w.world().kv.peek_all(),
            fresh.world().kv.peek_all(),
            "{strategy}"
        );
        assert_eq!(
            (
                report.items,
                report.unchanged_items,
                report.retracted_items,
                w.world().kv.stats().put_ops - kv.put_ops,
                w.world().sqs.len(DEAD_LETTER_QUEUE).unwrap(),
            ),
            pinned,
            "{strategy}"
        );
        assert!(w.retraction_registry().borrow().is_empty(), "{strategy}");
    }
}
