//! Fault-tolerance integration tests: the architecture's claim (paper
//! Section 3) that a crashed virtual instance loses its message lease and
//! another instance takes the job over, so the pipeline completes anyway.

use amada::cloud::{SimDuration, SimTime};
use amada::index::Strategy;
use amada::warehouse::{Warehouse, WarehouseConfig};
use amada::xmark::{generate_corpus, workload_query, CorpusConfig};
use amada_core::actors::{LoaderCore, LoaderTotals, QueryCore, Worker};
use amada_core::{LOADER, LOADER_POOL, LOADER_QUEUE, QUERY, QUERY_QUEUE};
use std::cell::RefCell;
use std::rc::Rc;

fn corpus(n: usize) -> Vec<(String, String)> {
    let cfg = CorpusConfig {
        num_documents: n,
        target_doc_bytes: 1200,
        ..Default::default()
    };
    generate_corpus(&cfg)
        .into_iter()
        .map(|d| (d.uri, d.xml))
        .collect()
}

/// A loader core that crashes after two documents does not lose work: its
/// leased message reappears after the visibility timeout and a healthy
/// core indexes it, so the index ends up complete and correct.
#[test]
fn loader_crash_is_recovered_through_lease_expiry() {
    let mut cfg = WarehouseConfig::with_strategy(Strategy::Lup);
    cfg.visibility = SimDuration::from_secs(30);
    let docs = corpus(12);
    let mut w = Warehouse::new(cfg.clone());
    w.upload_documents(docs.iter().map(|(u, x)| (u.clone(), x.clone())));

    // Hand-build the loader pool: one crashing core, one healthy core.
    let totals = Rc::new(RefCell::new(LoaderTotals::default()));
    let registry = w.retraction_registry();
    let start = w.now();
    let engine = w.engine_mut();
    engine.world.sqs.close(LOADER_QUEUE);
    let mk = |engine: &mut amada::cloud::Engine, crash: Option<u32>, idx: u64| {
        let instance = engine.world.ec2.launch(LOADER_POOL.itype, start);
        let mut core = LoaderCore::new(
            &cfg,
            Worker::new(&cfg, LOADER, instance, idx),
            registry.clone(),
            totals.clone(),
        );
        core.worker.crash_after = crash;
        core
    };
    let crashing = mk(engine, Some(2), 1);
    let crashed_instance = crashing.worker.instance;
    engine.spawn(Box::new(crashing), start);
    let healthy = mk(engine, None, 2);
    engine.spawn(Box::new(healthy), start);
    engine.run();
    engine.world.sqs.open(LOADER_QUEUE);

    // Every message was eventually processed and at least one was
    // redelivered after the crashed lease expired.
    assert!(engine.world.sqs.is_empty(LOADER_QUEUE).unwrap());
    assert!(engine.world.sqs.stats().redelivered >= 1);
    assert_eq!(totals.borrow().docs, 12);
    // The crashed instance is billed past its launch: its uptime covers
    // the documents it did finish *and* the final receive that it died
    // holding (the receive is a served request the provider charges for).
    assert!(
        engine.world.ec2.record(crashed_instance).uptime() > SimDuration::ZERO,
        "crashed instance uptime must cover its served requests"
    );

    // The index is correct despite the crash (redelivery is idempotent:
    // range keys are deterministic per document).
    let q = workload_query("q6").unwrap();
    let with_crash = w.run_query(&q).exec.results.len();
    let mut clean = Warehouse::new(WarehouseConfig::with_strategy(Strategy::Lup));
    clean.upload_documents(docs.iter().map(|(u, x)| (u.clone(), x.clone())));
    clean.build_index();
    let without_crash = clean.run_query(&q).exec.results.len();
    assert_eq!(with_crash, without_crash);
}

/// A crashed query processor likewise loses its lease; a healthy one
/// answers the query.
#[test]
fn query_processor_crash_is_recovered() {
    let mut cfg = WarehouseConfig::with_strategy(Strategy::Lu);
    cfg.visibility = SimDuration::from_secs(30);
    let docs = corpus(10);
    let mut w = Warehouse::new(cfg.clone());
    w.upload_documents(docs.iter().map(|(u, x)| (u.clone(), x.clone())));
    w.build_index();

    // q1 targets item-6-0, which exists in every corpus of ≥ 7 documents.
    let q = workload_query("q1").unwrap();
    let start = w.now();
    let executions = Rc::new(RefCell::new(Vec::new()));
    let strategy = Some(w.config().strategy);
    let engine = w.engine_mut();
    let t = engine
        .world
        .sqs
        .send(start, QUERY_QUEUE, format!("q1\n{q}"))
        .unwrap();
    engine.world.sqs.close(QUERY_QUEUE);
    let mk = |engine: &mut amada::cloud::Engine, crash: Option<u32>, idx: u64| {
        let instance = engine.world.ec2.launch(cfg.query_pool.itype, t);
        let mut core = QueryCore::new(
            &cfg,
            Worker::new(&cfg, QUERY, instance, idx),
            strategy,
            executions.clone(),
        );
        core.worker.crash_after = crash;
        core
    };
    // The crashing processor receives the message first (spawned first).
    let crashing = mk(engine, Some(0), 1);
    let crashed_instance = crashing.worker.instance;
    engine.spawn(Box::new(crashing), t);
    let healthy = mk(engine, None, 2);
    engine.spawn(Box::new(healthy), t + SimDuration::from_millis(1));
    let end = engine.run();
    engine.world.sqs.open(QUERY_QUEUE);

    assert_eq!(executions.borrow().len(), 1, "the healthy core answered");
    assert!(engine.world.sqs.stats().redelivered >= 1);
    // Recovery took at least the visibility timeout.
    assert!(end >= SimTime::ZERO + SimDuration::from_secs(30));
    assert!(!executions.borrow()[0].results.is_empty());
    // Billing regression: this instance's only act was the receive it
    // crashed on; before the fix its uptime was zero and the receive went
    // unbilled.
    assert!(
        engine.world.ec2.record(crashed_instance).uptime() > SimDuration::ZERO,
        "a crash after one receive still bills that receive's uptime"
    );
}
