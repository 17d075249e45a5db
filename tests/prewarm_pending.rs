//! The host cache works on what a warehouse works on: `build_index`
//! prewarms what is queued, not what is stored or remembered, so the host
//! work of a rebuild follows the documents it rebuilds, however many the
//! warehouse holds; and a query evaluates afresh only the versions it has
//! not evaluated. (Its own binary: it reads the process-wide cache's
//! counters, one test at a time.)

use amada_cloud::SimDuration;
use amada_core::actors::{LoaderCore, LoaderTotals, Worker};
use amada_core::{
    Warehouse, WarehouseConfig, DEAD_LETTER_QUEUE, LOADER, LOADER_POOL, LOADER_QUEUE,
};
use amada_index::Strategy;
use amada_pattern::parse_query;
use amada_xmark::{generate_corpus, CorpusConfig};
use std::cell::RefCell;
use std::rc::Rc;
use std::sync::{Mutex, MutexGuard};

/// Held by every test here, so no other test's probes move the counters.
fn counters() -> MutexGuard<'static, ()> {
    static COUNTERS: Mutex<()> = Mutex::new(());
    COUNTERS
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner())
}

fn corpus(seed: u64) -> Vec<(String, String)> {
    let cfg = CorpusConfig {
        seed,
        num_documents: 40,
        target_doc_bytes: 1000,
    };
    generate_corpus(&cfg)
        .into_iter()
        .map(|d| (d.uri, d.xml))
        .collect()
}

#[test]
fn a_one_document_rebuild_extracts_one_document() {
    let _counters = counters();
    let mut w = Warehouse::new(WarehouseConfig::with_strategy(Strategy::Lup));
    w.upload_documents(corpus(1));
    assert_eq!(w.build_index().documents, 40);

    // Nothing queued: a build probes nothing.
    w.cache().clear();
    let idle = w.cache_stats();
    assert_eq!(w.build_index().documents, 0);
    assert_eq!(w.cache_stats(), idle, "an empty build touches no document");

    // One document replaced, on a cold cache: the upload replays the
    // version it overwrites, the build extracts the one it queued.
    let replacement = corpus(2).swap_remove(7);
    w.upload_documents([replacement]);
    let queued = w.cache_stats();
    assert_eq!(queued.extract_misses - idle.extract_misses, 1);
    let report = w.build_index();
    assert_eq!(report.documents, 1);
    let built = w.cache_stats();
    assert_eq!(
        (
            built.extract_misses - queued.extract_misses,
            built.parse_misses - queued.parse_misses
        ),
        (1, 1),
        "of 40 stored documents the build extracts the queued one"
    );

    // The explicit prewarm still covers the whole store.
    assert_eq!(w.prewarm().documents, 40);
}

/// Six documents of two put batches each, in one of two shapes.
fn two_batch_docs(shape: usize) -> impl Iterator<Item = (String, String)> {
    (0..6u64).map(move |i| {
        let facets: String = (0..28).map(|j| format!("<f{j}>x</f{j}>")).collect();
        let fields = format!("<name>painting {i}</name>{facets}");
        let xml = match shape {
            0 => format!("<item>{fields}</item>"),
            _ => format!("<item><wrap>{fields}</wrap></item>"),
        };
        (format!("doc{i}.xml"), xml)
    })
}

/// A parked message leaves its retraction-registry entry but no rebuild
/// queued: a build asks the queue what to prewarm, not the registry, and so
/// prewarms nothing.
#[test]
fn a_parked_message_leaves_nothing_to_prewarm() {
    let _counters = counters();
    let mut cfg = WarehouseConfig::with_strategy(Strategy::Lu);
    cfg.retry.max_receives = 1;
    cfg.visibility = SimDuration::from_secs(30);
    let mut w = Warehouse::new(cfg.clone());
    w.upload_documents(two_batch_docs(0));
    w.build_index();
    w.upload_documents(two_batch_docs(1));

    // One loader core that dies after its first index batch, with its
    // document's message on its one allowed delivery.
    let totals = Rc::new(RefCell::new(LoaderTotals::default()));
    let (registry, start) = (w.retraction_registry(), w.now());
    let engine = w.engine_mut();
    engine.world.sqs.close(LOADER_QUEUE);
    let instance = engine.world.ec2.launch(LOADER_POOL.itype, start);
    let worker = Worker::new(&cfg, LOADER, instance, 1);
    let mut core = LoaderCore::new(&cfg, worker, registry, totals);
    core.crash_after_batches = Some(1);
    engine.spawn(Box::new(core), start);
    engine.run();
    engine.world.sqs.open(LOADER_QUEUE);

    w.build_index();
    assert_eq!(w.world().sqs.len(DEAD_LETTER_QUEUE).unwrap(), 1);
    assert_eq!(w.retraction_registry().borrow().len(), 1);
    assert!(w.world().sqs.is_empty(LOADER_QUEUE).unwrap());
    w.cache().clear();
    let idle = w.cache_stats();
    assert_eq!(w.build_index().documents, 0);
    assert_eq!(w.cache_stats(), idle, "nothing queued, nothing prewarmed");
}

/// The evaluation memo is keyed by version: after one of four documents is
/// replaced, the same query hits the memo for the three it evaluated and
/// misses for the new bytes alone.
#[test]
fn a_replaced_document_alone_misses_the_evaluation_memo() {
    let _counters = counters();
    let query = parse_query("//item[/name{val}]").expect("parses");
    let doc = |id: u64, version: u64| {
        let xml = format!("<item><name>doc {id} v{version}</name></item>");
        (format!("memo-doc{id}.xml"), xml)
    };
    let mut w = Warehouse::new(WarehouseConfig::with_strategy(Strategy::Lup));
    w.upload_documents((0..4).map(|id| doc(id, 1)));
    w.build_index();
    assert_eq!(w.run_query(&query).exec.results.len(), 4);
    let [hits, misses] = w.cache().eval_stats();
    w.upload_documents([doc(0, 2)]);
    w.build_index();
    assert_eq!(w.run_query(&query).exec.results.len(), 4);
    let [hits_after, misses_after] = w.cache().eval_stats();
    assert_eq!((hits_after - hits, misses_after - misses), (3, 1));
}
