//! Integration tests for the transient-fault subsystem: deterministic
//! injection, retry/backoff, lease renewal, mid-task crash recovery, and
//! the faults-off identity guarantee.

use amada::cloud::{FaultConfig, InstanceType, Money, SimDuration, Sqs, SqsError};
use amada::index::Strategy;
use amada::warehouse::{Warehouse, WarehouseConfig};
use amada::xmark::{generate_corpus, workload, workload_query, CorpusConfig};
use amada_core::actors::{DocCache, LoaderCore, LoaderTotals, Worker};
use amada_core::config::LOADER;
use amada_core::{IndexBuildReport, WorkloadReport, DEAD_LETTER_QUEUE, LOADER_QUEUE};
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

fn upload(w: &mut Warehouse, docs: &[(String, String)]) {
    w.upload_documents(docs.iter().map(|(u, x)| (u.clone(), x.clone())));
}

/// The fault seed: `AMADA_FAULT_SEED` when set (the CI chaos matrix sets
/// it), a fixed default otherwise.
fn fault_seed() -> u64 {
    std::env::var("AMADA_FAULT_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(0xFA117)
}

fn faulty_config(rate: f64) -> WarehouseConfig {
    let mut cfg = WarehouseConfig::with_strategy(Strategy::Lup);
    cfg.faults = FaultConfig {
        seed: fault_seed(),
        s3_rate: rate,
        kv_rate: rate,
        sqs_rate: rate,
    };
    cfg
}

/// Regression for the missing-renewal bug: a task that takes *longer than
/// the visibility timeout* used to lose its lease mid-work and be handed
/// to a second core, double-processing the document. Working cores now
/// renew at the lease half-life, so slow tasks finish exactly once.
#[test]
fn tasks_longer_than_visibility_are_not_redelivered() {
    let mut cfg = WarehouseConfig::with_strategy(Strategy::Lu);
    // Parsing a ~1.2 KB document takes ~0.3 ECU-seconds under this
    // model — far longer than the 200 ms visibility window.
    cfg.work.parse_mb_per_ecu_sec = 0.002;
    cfg.visibility = SimDuration::from_millis(200);
    cfg.loader_pool = amada_core::Pool::new(2, InstanceType::Large);
    let docs = corpus(8);
    let mut w = Warehouse::new(cfg);
    upload(&mut w, &docs);
    let report = w.build_index();
    assert_eq!(report.documents, 8, "each document indexed exactly once");
    assert_eq!(report.redelivered, 0, "leases were renewed, not lost");
    assert!(
        report.lease_renewals > 0,
        "slow tasks must have issued renewals"
    );
    // The pipeline still answers correctly (q1 targets item-6-0, present
    // in every corpus of ≥ 7 documents).
    let q = workload_query("q1").unwrap();
    assert!(!w.run_query(&q).exec.results.is_empty());
}

/// A loader that crashes *mid-upload* — after writing some but not all of
/// a document's index batches — is recovered by redelivery, and because
/// range keys are deterministic per document, the rewrite leaves the index
/// byte-identical to a never-crashed build.
#[test]
fn mid_upload_crash_rewrites_the_index_idempotently() {
    let cfg = WarehouseConfig::with_strategy(Strategy::Lup);
    let mut vis_cfg = cfg.clone();
    vis_cfg.visibility = SimDuration::from_secs(30);
    let docs = corpus(8);
    let mut w = Warehouse::new(vis_cfg.clone());
    upload(&mut w, &docs);

    let totals = Rc::new(RefCell::new(LoaderTotals::default()));
    let cache: DocCache = amada_index::ExtractCache::shared();
    let (plan, registry) = (w.routing_plan(), w.retraction_registry());
    let start = w.now();
    let engine = w.engine_mut();
    engine.world.sqs.close(LOADER_QUEUE);
    let mk = |engine: &mut amada::cloud::Engine, idx: u64| {
        let instance = engine.world.ec2.launch(vis_cfg.loader_pool.itype, start);
        LoaderCore::new(
            &vis_cfg,
            Worker::new(&vis_cfg, LOADER, instance, idx, None),
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
        "the crash lost a lease"
    );
    assert_eq!(totals.borrow().docs, 8, "every document eventually indexed");
    let crashed_index = engine.world.kv.peek_all();

    // A clean build of the same corpus.
    let mut clean = Warehouse::new(cfg);
    upload(&mut clean, &docs);
    let report = clean.build_index();
    assert_eq!(report.documents, 8);
    let clean_index = clean.world().kv.peek_all();

    assert_eq!(
        crashed_index, clean_index,
        "redelivery after a mid-upload crash must leave the index \
         byte-identical to a clean build"
    );
}

/// Unknown-queue operations are consistent typed errors across the whole
/// SQS surface — and bill nothing (the request never reaches a queue).
#[test]
fn unknown_queue_is_a_typed_error_and_bills_nothing() {
    use amada::cloud::SimTime;
    let mut sqs = Sqs::new();
    let t = SimTime::ZERO;
    assert!(matches!(
        sqs.send(t, "ghost", "m"),
        Err(SqsError::NoSuchQueue(q)) if q == "ghost"
    ));
    assert!(matches!(
        sqs.receive(t, "ghost", SimDuration::from_secs(1)),
        Err(SqsError::NoSuchQueue(_))
    ));
    assert!(matches!(
        sqs.delete(t, "ghost", 0),
        Err(SqsError::NoSuchQueue(_))
    ));
    assert!(matches!(
        sqs.renew_lease(t, "ghost", 0, SimDuration::from_secs(1)),
        Err(SqsError::NoSuchQueue(_))
    ));
    assert!(matches!(
        sqs.drained("ghost"),
        Err(SqsError::NoSuchQueue(_))
    ));
    assert!(matches!(sqs.len("ghost"), Err(SqsError::NoSuchQueue(_))));
    assert!(matches!(
        sqs.is_empty("ghost"),
        Err(SqsError::NoSuchQueue(_))
    ));
    assert_eq!(sqs.stats().requests, 0, "failed routing is not billed");
}

/// One fault seed fixes the entire schedule: two identical runs under
/// injection produce bit-identical times, costs and counters.
#[test]
fn same_fault_seed_is_bit_reproducible() {
    let run = || {
        let docs = corpus(10);
        let mut w = Warehouse::new(faulty_config(0.05));
        upload(&mut w, &docs);
        let build = w.build_index();
        let q = workload_query("q2").unwrap();
        let query = w.run_query(&q);
        (
            build.total_time,
            build.cost.total(),
            build.throttled_requests,
            query.exec.response_time,
            query.cost.total(),
            format!("{:?}", query.exec.results),
        )
    };
    assert_eq!(run(), run());
}

/// A warehouse with the fault subsystem configured but all rates zero is
/// bit-identical to the default (faults-off) warehouse: the injectors
/// draw no randomness and add no requests.
#[test]
fn zero_rate_faults_are_bit_identical_to_no_faults() {
    let docs = corpus(10);
    let run = |cfg: WarehouseConfig| {
        let mut w = Warehouse::new(cfg);
        upload(&mut w, &docs);
        let build = w.build_index();
        let q = workload_query("q4").unwrap();
        let query = w.run_query(&q);
        (
            build.total_time,
            build.cost.total(),
            build.items,
            query.exec.response_time,
            query.cost.total(),
        )
    };
    let mut zero_rate = WarehouseConfig::with_strategy(Strategy::Lup);
    zero_rate.faults = FaultConfig {
        seed: 0xDEAD_BEEF, // a seed alone must change nothing
        ..FaultConfig::default()
    };
    let baseline = run(WarehouseConfig::with_strategy(Strategy::Lup));
    assert_eq!(run(zero_rate), baseline);
}

/// Under injected faults the pipeline still produces exactly the right
/// answers — and the resilience is visible in the ledger: throttled
/// requests were billed and retried, so the run costs strictly more than
/// the fault-free one.
#[test]
fn faulty_pipeline_is_correct_and_costs_more() {
    let docs = corpus(12);
    let queries = ["q1", "q4", "q6"];

    let mut clean = Warehouse::new(WarehouseConfig::with_strategy(Strategy::Lup));
    upload(&mut clean, &docs);
    let clean_build = clean.build_index();
    assert_eq!(clean_build.throttled_requests, 0);
    assert_eq!(clean_build.lease_renewals, 0, "fast tasks never renew");

    let mut faulty = Warehouse::new(faulty_config(0.05));
    upload(&mut faulty, &docs);
    let faulty_build = faulty.build_index();

    assert_eq!(faulty_build.documents, clean_build.documents);
    assert_eq!(faulty_build.items, clean_build.items, "same index contents");
    assert!(
        faulty_build.throttled_requests > 0,
        "5% faults must throttle"
    );
    // At any seed the stores, whose request count the work fixes, charge
    // strictly more. The whole bill also holds instance hours and idle
    // polls, which follow a makespan that backoff jitter can shorten (at
    // the chaos matrix's seed 1025299 it does: $0.000516484359 against a
    // clean $0.000520262497), so the total is compared at the fixed seed.
    assert!(
        faulty_build.cost.kv + faulty_build.cost.s3 > clean_build.cost.kv + clean_build.cost.s3,
        "the stores bill every retry: faulty {} vs clean {}",
        faulty_build.cost,
        clean_build.cost
    );
    if std::env::var_os("AMADA_FAULT_SEED").is_none() {
        assert!(
            faulty_build.cost.total() > clean_build.cost.total(),
            "every retry is a billed request: faulty {} vs clean {}",
            faulty_build.cost.total(),
            clean_build.cost.total()
        );
    }

    for name in queries {
        let q = workload_query(name).unwrap();
        let a = clean.run_query(&q);
        let b = faulty.run_query(&q);
        let mut ra = a.exec.results.clone();
        let mut rb = b.exec.results.clone();
        ra.sort_by(|x, y| x.columns.cmp(&y.columns));
        rb.sort_by(|x, y| x.columns.cmp(&y.columns));
        assert_eq!(ra, rb, "{name}: faults must not change answers");
    }
}

/// Pushdown under injected faults: a throttled scan is billed like any
/// other request but is *stateless* — it moves no bytes and leaves no
/// partial result behind — so the LUP-PD pipeline retries its way to
/// answers byte-identical to the fault-free run, paying strictly more
/// for the re-billed requests along the way.
#[test]
fn throttled_scans_are_billed_stateless_and_answers_identical() {
    let docs = corpus(12);
    let queries = ["q2", "q4", "q5"];

    let mut clean = Warehouse::new(WarehouseConfig::with_strategy(Strategy::LupPd));
    upload(&mut clean, &docs);
    clean.build_index();

    let mut cfg = faulty_config(0.08);
    cfg.strategy = Strategy::LupPd;
    let mut faulty = Warehouse::new(cfg);
    upload(&mut faulty, &docs);
    faulty.build_index();

    // Deltas from here on isolate the query phase (the builds above also
    // touch S3, and the faulty build gets throttled on its own).
    let clean_scans_before = clean.world().s3.stats().scan_requests;
    let faulty_scans_before = faulty.world().s3.stats().scan_requests;
    let faulty_bytes_before = faulty.world().s3.stats().bytes_scanned;
    let clean_bytes_before = clean.world().s3.stats().bytes_scanned;
    let throttled_before = faulty.world().s3.stats().throttled;

    // Enough rounds that some scan is throttled under any seed the chaos
    // matrix uses (three queries scan six candidates between them).
    let (mut clean_cost, mut faulty_cost) = (Money::ZERO, Money::ZERO);
    for name in queries.iter().cycle().take(25 * queries.len()) {
        let q = workload_query(name).unwrap();
        let a = clean.run_query(&q);
        let b = faulty.run_query(&q);
        clean_cost += a.cost.total();
        faulty_cost += b.cost.total();
        let mut ra = a.exec.results.clone();
        let mut rb = b.exec.results.clone();
        ra.sort_by(|x, y| x.columns.cmp(&y.columns));
        rb.sort_by(|x, y| x.columns.cmp(&y.columns));
        assert_eq!(ra, rb, "{name}: faults must not change pushdown answers");
    }

    let clean_scans = clean.world().s3.stats().scan_requests - clean_scans_before;
    let faulty_scans = faulty.world().s3.stats().scan_requests - faulty_scans_before;
    let throttled = faulty.world().s3.stats().throttled - throttled_before;
    assert!(clean_scans > 0, "LUP-PD queries must answer through scans");
    assert!(throttled > 0, "8% faults must throttle mid-query");
    // Every throttle is re-billed as a fresh scan request, so the faulty
    // run issues strictly more of them than the fault-free run (the
    // throttled counter also covers the per-query result GET, hence <=).
    assert!(
        faulty_scans > clean_scans,
        "retried scans must be re-billed: {faulty_scans} vs {clean_scans}"
    );
    assert!(faulty_scans - clean_scans <= throttled);
    // Stateless: a throttle meters no scanned volume — only successful
    // scans do, and a (rare) abandoned-and-retried query can only rescan,
    // never partially scan.
    let clean_bytes = clean.world().s3.stats().bytes_scanned - clean_bytes_before;
    let faulty_bytes = faulty.world().s3.stats().bytes_scanned - faulty_bytes_before;
    assert!(faulty_bytes >= clean_bytes);
    assert!(
        faulty_cost > clean_cost,
        "billed throttles must surface in the bill: faulty {faulty_cost} vs clean {clean_cost}"
    );
}

/// The seed the give-up digests below were captured at (also
/// [`fault_seed`]'s default).
const PINNED_SEED: u64 = 0xFA117;

/// `(throttle rate, max_attempts, max_receives)`: budgets small enough,
/// against rates high enough, that pre-commit operations exhaust their
/// retries and abandon their tasks, and abandoned messages run out of
/// deliveries and are dead-lettered. The first row redelivers but parks
/// nothing; the last dead-letters on the first redelivery.
const GIVE_UP_CASES: [(f64, u32, u32); 3] = [(0.3, 1, 5), (0.5, 1, 2), (0.4, 2, 1)];

const GIVE_UP_STRATEGIES: [Strategy; 3] = [Strategy::Lup, Strategy::LupPd, Strategy::TwoLupi];

/// Both reports of each case x strategy at [`PINNED_SEED`], in
/// [`give_up_digest`]'s rendering, captured from the tree this test was
/// introduced against: the abandon and dead-letter branches' jitter draws
/// are pinned like every other one.
const GIVE_UP_DIGESTS: [[&str; 3]; 3] = [
    [
        "build 8304179us 8853773421p thr=540 ren=0 red=17 docs=24 dead=0 | workload 11509764us 1761012644p thr=139 ren=0 red=11 done=20 dead=0",
        "build 8304179us 8853773421p thr=540 ren=0 red=17 docs=24 dead=0 | workload 11503733us 1761680114p thr=139 ren=0 red=11 done=20 dead=0",
        "build 10333782us 11805264178p thr=735 ren=0 red=54 docs=15 dead=9 | workload 11157737us 1617096550p thr=115 ren=0 red=12 done=19 dead=1",
    ],
    [
        "build 4427740us 4919041330p thr=562 ren=0 red=33 docs=10 dead=14 | workload 9412416us 1661561398p thr=220 ren=0 red=12 done=17 dead=3",
        "build 4427740us 4919041330p thr=562 ren=0 red=33 docs=10 dead=14 | workload 9409735us 1662064888p thr=220 ren=0 red=12 done=17 dead=3",
        "build 4460652us 5010488178p thr=578 ren=0 red=40 docs=6 dead=18 | workload 9362191us 1508200706p thr=206 ren=0 red=12 done=15 dead=5",
    ],
    [
        "build 2534000us 2985655554p thr=248 ren=0 red=10 docs=14 dead=10 | workload 5121129us 1218705841p thr=133 ren=0 red=1 done=19 dead=1",
        "build 2534000us 2985655554p thr=248 ren=0 red=10 docs=14 dead=10 | workload 5115976us 1219225003p thr=133 ren=0 red=1 done=19 dead=1",
        "build 2626402us 3248610402p thr=263 ren=0 red=16 docs=8 dead=16 | workload 6772983us 1117627274p thr=133 ren=0 red=6 done=14 dead=6",
    ],
];

/// Everything in the two reports that a moved jitter draw, a lost message
/// or an extra request would change.
fn give_up_digest(
    build: &IndexBuildReport,
    dead_docs: usize,
    run: &WorkloadReport,
    dead_queries: usize,
) -> String {
    format!(
        "build {}us {}p thr={} ren={} red={} docs={} dead={} | workload {}us {}p thr={} ren={} red={} done={} dead={}",
        build.total_time.micros(),
        build.cost.total().pico(),
        build.throttled_requests,
        build.lease_renewals,
        build.redelivered,
        build.documents,
        dead_docs,
        run.total_time.micros(),
        run.cost.total().pico(),
        run.throttled_requests,
        run.lease_renewals,
        run.redelivered,
        run.executions.len(),
        dead_queries,
    )
}

/// Every answer of a workload run, as `(query name, sorted result rows)`,
/// sorted: what was answered, however the arrivals were interleaved.
fn sorted_answers(run: &WorkloadReport) -> Vec<(String, Vec<Vec<String>>)> {
    let mut answers: Vec<_> = run
        .executions
        .iter()
        .map(|e| {
            let mut rows: Vec<Vec<String>> = e.results.iter().map(|r| r.columns.to_vec()).collect();
            rows.sort();
            (e.name.clone(), rows)
        })
        .collect();
    answers.sort();
    answers
}

/// The give-up branches: a pre-commit operation past `max_attempts`
/// abandons its task to redelivery, and a message past `max_receives` is
/// parked on the dead-letter queue. Under any fault seed messages are
/// conserved — every document is indexed or dead-lettered, every arrival
/// answered once or dead-lettered — and whatever completed is exactly what
/// a fault-free warehouse holds and answers.
#[test]
fn exhausted_budgets_abandon_and_dead_letter_but_conserve_every_message() {
    let docs = corpus(24);
    let queries: Vec<_> = workload().into_iter().take(5).collect();
    let arrivals = queries.len() * 4;
    let mut seeds = vec![fault_seed()];
    if seeds[0] != PINNED_SEED {
        seeds.push(PINNED_SEED);
    }
    for (s, strategy) in GIVE_UP_STRATEGIES.into_iter().enumerate() {
        let mut clean = Warehouse::new(WarehouseConfig::with_strategy(strategy));
        upload(&mut clean, &docs);
        assert_eq!(clean.build_index().documents, 24);
        let clean_index = clean.world().kv.peek_all();
        let clean_answers = sorted_answers(&clean.run_workload(&queries, 4));

        for &seed in &seeds {
            for (c, (rate, max_attempts, max_receives)) in GIVE_UP_CASES.into_iter().enumerate() {
                let row = format!(
                    "{strategy} rate {rate} max_attempts {max_attempts} \
                     max_receives {max_receives} seed {seed:#x}"
                );
                let mut cfg = faulty_config(rate);
                cfg.faults.seed = seed;
                cfg.strategy = strategy;
                cfg.visibility = SimDuration::from_secs(2);
                cfg.retry.max_attempts = max_attempts;
                cfg.retry.max_receives = max_receives;
                let mut w = Warehouse::new(cfg);
                upload(&mut w, &docs);
                let dead = |w: &Warehouse| w.world().sqs.len(DEAD_LETTER_QUEUE).unwrap();

                let build = w.build_index();
                let dead_docs = dead(&w);
                assert_eq!(
                    build.documents as usize + dead_docs,
                    docs.len(),
                    "{row}: every document is indexed once or dead-lettered"
                );
                assert!(build.redelivered > 0, "{row}: loaders abandoned tasks");
                if dead_docs == 0 {
                    assert_eq!(
                        w.world().kv.peek_all(),
                        clean_index,
                        "{row}: abandoned and redelivered builds rewrite the same items"
                    );
                }

                let run = w.run_workload(&queries, 4);
                let dead_queries = dead(&w) - dead_docs;
                assert_eq!(
                    run.executions.len() + dead_queries,
                    arrivals,
                    "{row}: every arrival is answered once or dead-lettered"
                );
                assert!(run.redelivered > 0, "{row}: processors abandoned tasks");
                if dead_docs == 0 && dead_queries == 0 {
                    assert_eq!(
                        sorted_answers(&run),
                        clean_answers,
                        "{row}: abandoned and redelivered queries answer the same"
                    );
                }

                if seed == PINNED_SEED {
                    assert_eq!(
                        give_up_digest(&build, dead_docs, &run, dead_queries),
                        GIVE_UP_DIGESTS[c][s],
                        "{row}: a virtual microsecond, a picodollar or a counter moved"
                    );
                }
            }
        }
    }
}
