//! Pins on the single routing/arrival path for what used to be "the
//! other path": the flat plan over prefixed URIs, the no-index baseline,
//! flat retraction order, the closed batch as the one-burst schedule, and
//! a mixed plan from its stored bytes to its delete batches.

use amada::cloud::{
    content_hash, FaultInjector, KvBackend, KvError, KvField, KvItem, KvProfile, KvStats, KvStore,
    KvTuning, KvValue, Recorder, ServiceKind, ShardPlan, SimTime, Span,
};
use amada::index::{MixedPlan, Strategy};
use amada::pattern::{parse_query, Query};
use amada::warehouse::{ArrivalProcess, Warehouse, WarehouseConfig, WorkloadReport};
use amada::xmark::{generate_corpus, workload, workload_query, CorpusConfig};
use std::sync::{Arc, Mutex};

/// A tiny corpus whose URIs carry partition-looking prefixes.
const DOCS: [(&str, &str); 3] = [
    (
        "hot/a.xml",
        "<painting><name>Lion Hunt</name><year>1854</year></painting>",
    ),
    ("cold/b.xml", "<sculpture><name>Lion</name></sculpture>"),
    ("c.xml", "<painting><name>Raft</name></painting>"),
];

fn named(text: &str, name: &str) -> Query {
    let mut q = parse_query(text).unwrap();
    q.name = Some(name.into());
    q
}

/// An empty recording warehouse under `plan` (`None`: the flat plan of
/// `strategy`).
fn deployed(strategy: Strategy, plan: Option<MixedPlan>) -> Warehouse {
    let mut cfg = WarehouseConfig::with_strategy(strategy);
    cfg.host.record = true;
    let mut w = Warehouse::new(cfg);
    if let Some(plan) = plan {
        w.apply_plan(plan);
    }
    w
}

/// Switches a live warehouse to `plan`; returns the documents migrating.
fn replan(w: &mut Warehouse, plan: MixedPlan) -> u64 {
    w.apply_plan(plan)
}

fn recording(strategy: Strategy, plan: Option<MixedPlan>) -> Warehouse {
    let mut w = deployed(strategy, plan);
    w.upload_documents(DOCS);
    w
}

fn count(spans: &[Span], service: ServiceKind, op: &str) -> usize {
    spans
        .iter()
        .filter(|s| s.service == service && s.op == op)
        .count()
}

/// A flat warehouse ignores URI prefixes: `hot/a.xml` lands in the global
/// tables (not `amada-index@hot`), indexed queries pay no corpus LIST, and
/// the bill is pinned to the picodollar (first captured from the separate
/// flat path this replaced; regenerated only with the read path's clock).
#[test]
fn flat_plan_keeps_prefixed_uris_in_the_global_tables() {
    let q = named("//painting[/name{contains(Hunt)}]", "hunt");
    let pinned: [(Strategy, u128); 4] = [
        (Strategy::Lu, 185_793_073),
        (Strategy::Lup, 185_725_956),
        (Strategy::Lui, 185_793_073),
        (Strategy::TwoLupi, 190_450_284),
    ];
    for (strategy, pico) in pinned {
        let mut w = recording(strategy, None);
        w.build_index();
        let tables: Vec<String> = w
            .world()
            .kv
            .peek_all()
            .into_iter()
            .map(|(t, _)| t)
            .collect();
        assert!(!tables.is_empty(), "{strategy}");
        assert!(
            tables.iter().all(|t| !t.contains('@')),
            "{strategy}: {tables:?}"
        );
        let before = w.spans().len();
        let run = w.run_query(&q);
        assert_eq!(run.exec.results.len(), 1, "{strategy}");
        assert_eq!(count(&w.spans()[before..], ServiceKind::S3, "list"), 0);
        assert_eq!(w.total_cost().total().pico(), pico, "{strategy}");
    }
}

/// The no-index baseline has no look-up phase whatever the warehouse
/// holds: no `lookup_get`/`plan` actor spans, no index gets, exactly one
/// corpus LIST per query.
#[test]
fn no_index_queries_skip_the_lookup_phase() {
    let q = named("//painting[/name]", "paintings");
    let mixed = MixedPlan::uniform(Some(Strategy::Lup)).with("cold", None);
    let unbuilt = recording(Strategy::Lup, None);
    let mut built = recording(Strategy::Lup, None);
    built.build_index();
    let mut routed = recording(Strategy::Lup, Some(mixed));
    routed.build_index();
    for (label, mut w) in [("unbuilt", unbuilt), ("built", built), ("mixed", routed)] {
        let before = w.spans().len();
        let run = w.run_query_no_index(&q);
        let spans = &w.spans()[before..];
        assert_eq!(run.exec.results.len(), 2, "{label}");
        assert_eq!(run.exec.strategy, None, "{label}");
        assert_eq!(run.exec.index_get_ops, 0, "{label}");
        assert_eq!(run.exec.docs_from_index, 0, "{label}");
        assert_eq!(run.exec.docs_fetched, DOCS.len(), "{label}");
        assert_eq!(count(spans, ServiceKind::Actor, "lookup_get"), 0, "{label}");
        assert_eq!(count(spans, ServiceKind::Actor, "plan"), 0, "{label}");
        assert_eq!(count(spans, ServiceKind::S3, "list"), 1, "{label}");
    }
}

/// A flat 2LUPI replace retracts its stale keys in the strategy's own
/// table order: `amada-index-path` first, `amada-index-id` second. Spans
/// carry no table name, so the replaced version hangs its doomed keys
/// under a long element name: every stale path item repeats that name
/// in its stored path, the ID items hold a few bytes — the path table's
/// delete is the one that frees more write units.
#[test]
fn flat_two_lupi_retracts_the_path_table_first() {
    let wrapper = "w".repeat(200);
    // A URI of its own: the process-wide parse cache is keyed by URI, and
    // the other tests hold different bytes under the corpus URIs.
    let uri = "hot/churned.xml";
    let old = format!("<r><kept>y</kept><{wrapper}><gone>x</gone></{wrapper}></r>");
    let mut w = recording(Strategy::TwoLupi, None);
    w.upload_documents([(uri, old.as_str())]);
    w.build_index();
    w.upload_documents([(uri, "<r><kept>y</kept></r>")]);
    let before = w.spans().len();
    let build = w.build_index();
    assert!(build.retracted_items > 0);
    let deletes: Vec<f64> = w.spans()[before..]
        .iter()
        .filter(|s| s.service == ServiceKind::Kv && s.op == "batch_delete")
        .map(|s| s.units)
        .collect();
    assert_eq!(deletes.len(), 2, "one delete batch per 2LUPI table");
    assert!(
        deletes[0] > 1.5 * deletes[1],
        "path-table delete must come first: {deletes:?}"
    );
}

/// The closed batch is the one-burst schedule: the front end sends it
/// before the engine starts, and a sender actor releasing the same queries
/// inside the engine gets the same answers — every open-loop arrival
/// `q#n` answers exactly what the closed batch's `q` answers.
#[test]
fn a_closed_batch_is_a_one_burst_schedule() {
    let mut queries: Vec<Query> = workload().into_iter().take(3).collect();
    queries.push(parse_query("//painting[/name{val}]").unwrap());
    let answers = |report: WorkloadReport| -> Vec<(String, Vec<Vec<Arc<str>>>)> {
        let mut out: Vec<_> = report
            .executions
            .into_iter()
            .map(|e| (e.name, e.results.into_iter().map(|r| r.columns).collect()))
            .collect();
        out.sort();
        out
    };
    let built = || {
        let mut w = recording(Strategy::Lup, None);
        w.build_index();
        w
    };
    let batch = answers(built().run_workload(&queries, 2));
    assert_eq!(batch.len(), 8);
    // The unnamed query is numbered by its place in the schedule.
    assert!(batch.iter().any(|(name, _)| name == "query-3"));
    assert!(batch.iter().any(|(name, _)| name == "query-7"));
    let answer_of = |name: &str| {
        let mut of = batch.iter().filter(|(n, _)| n == name).map(|(_, a)| a);
        let first = of
            .next()
            .unwrap_or_else(|| panic!("{name} is not in the batch"));
        assert!(of.all(|a| a == first), "{name} answers one way");
        first
    };

    let process = ArrivalProcess::steady(0xB0257, 16, 4.0);
    let timed = answers(built().run_workload_open_loop(&queries, &process));
    assert_eq!(timed.len(), 16);
    let mut drawn = Vec::new();
    for (arrival, answer) in &timed {
        let (name, _seq) = arrival.split_once('#').expect("an arrival is named q#n");
        assert_eq!(answer, answer_of(name), "{arrival}");
        drawn.push(name);
    }
    drawn.sort_unstable();
    drawn.dedup();
    assert_eq!(drawn.len(), queries.len(), "every query arrived: {drawn:?}");
}

/// One `batch_delete` call as the index store received it.
type DeleteBatch = (String, Vec<(String, String)>);

/// The warehouse's own index store, with every `batch_delete` it is asked
/// for written down first: spans carry neither table nor keys.
struct DeleteLog {
    inner: Box<dyn KvStore>,
    log: Arc<Mutex<Vec<DeleteBatch>>>,
}

impl KvStore for DeleteLog {
    fn profile(&self) -> KvProfile {
        self.inner.profile()
    }
    fn ensure_table(&mut self, table: &str) {
        self.inner.ensure_table(table)
    }
    fn batch_put(
        &mut self,
        now: SimTime,
        table: &str,
        items: Vec<KvItem>,
    ) -> Result<SimTime, KvError> {
        self.inner.batch_put(now, table, items)
    }
    fn batch_delete(
        &mut self,
        now: SimTime,
        table: &str,
        keys: &[(String, String)],
    ) -> Result<SimTime, KvError> {
        let mut log = self.log.lock().unwrap();
        log.push((table.to_string(), keys.to_vec()));
        self.inner.batch_delete(now, table, keys)
    }
    fn get(
        &mut self,
        now: SimTime,
        table: &str,
        hash_key: &str,
    ) -> Result<(Vec<KvItem>, SimTime), KvError> {
        self.inner.get(now, table, hash_key)
    }
    fn batch_get(
        &mut self,
        now: SimTime,
        table: &str,
        hash_keys: &[String],
    ) -> Result<(Vec<KvItem>, SimTime), KvError> {
        self.inner.batch_get(now, table, hash_keys)
    }
    fn stats(&self) -> KvStats {
        self.inner.stats()
    }
    fn set_faults(&mut self, faults: FaultInjector) {
        self.inner.set_faults(faults)
    }
    fn set_recorder(&mut self, recorder: Recorder) {
        self.inner.set_recorder(recorder)
    }
    fn faults_active(&self) -> bool {
        self.inner.faults_active()
    }
    fn set_shard_plan(&mut self, plan: ShardPlan) {
        self.inner.set_shard_plan(plan)
    }
    fn peek_all(&self) -> Vec<(String, KvItem)> {
        self.inner.peek_all()
    }
}

/// FNV-1a over length-prefixed, tagged fields.
#[derive(Default)]
struct Digest(Vec<u8>);

impl Digest {
    fn field(&mut self, tag: u8, data: &[u8]) {
        self.0.push(tag);
        self.0.extend_from_slice(&(data.len() as u64).to_le_bytes());
        self.0.extend_from_slice(data);
    }

    fn finish(&self) -> u64 {
        content_hash(&self.0)
    }
}

/// Every stored item in `peek_all()` order, *with its table name*; then
/// how many there are and the bytes they are stored in — the parent's,
/// when only range-key bytes move.
fn index_digest(w: &Warehouse) -> (u64, usize, u64) {
    let mut d = Digest::default();
    let stored = w.world().kv.peek_all();
    for (table, item) in &stored {
        d.field(b't', table.as_bytes());
        d.field(b'h', item.hash_key.as_bytes());
        d.field(b'r', item.range_key().as_bytes());
        d.field(b'u', item.uri.as_bytes());
        for f in item.fields() {
            match f {
                KvField::Attr(name) => d.field(b'a', name.as_bytes()),
                KvField::Value(KvValue::S(s)) => d.field(b's', s.as_bytes()),
                KvField::Value(KvValue::B(b)) => d.field(b'b', b),
            }
        }
    }
    let bytes = w.world().kv.stats().stored_bytes();
    (d.finish(), stored.len(), bytes)
}

/// The delete batches in issue order: table, then every key.
fn delete_digest(batches: &[DeleteBatch]) -> u64 {
    let mut d = Digest::default();
    for (table, keys) in batches {
        d.field(b't', table.as_bytes());
        for (hash, range) in keys {
            d.field(b'h', hash.as_bytes());
            d.field(b'r', range.as_bytes());
        }
    }
    d.finish()
}

/// The tables a run of delete batches names, in order, with how many
/// batches and keys each run of one table holds.
fn delete_runs(batches: &[DeleteBatch]) -> Vec<(&str, usize, usize)> {
    let mut runs: Vec<(&str, usize, usize)> = Vec::new();
    for (table, keys) in batches {
        match runs.last_mut() {
            Some((t, n, k)) if *t == table => {
                *n += 1;
                *k += keys.len();
            }
            _ => runs.push((table, 1, keys.len())),
        }
    }
    runs
}

/// 30 generated documents, ten under each of `people/`, `items/`, `auc/`.
fn partitioned_corpus(target_doc_bytes: usize) -> Vec<(String, String)> {
    let cfg = CorpusConfig {
        num_documents: 30,
        target_doc_bytes,
        ..Default::default()
    };
    generate_corpus(&cfg)
        .into_iter()
        .enumerate()
        .map(|(i, d)| {
            let prefix = ["people/", "items/", "auc/"][i % 3];
            (format!("{prefix}{}", d.uri), d.xml)
        })
        .collect()
}

/// A mixed plan end to end, pinned: which bytes land in which table, what
/// three queries ask of the index, fetch, take and cost, and which
/// `(table, keys)` delete batches a churn round and a plan switch issue,
/// in which order. `item_layout` and `read_path_golden` pin the flat plans.
/// The order of the churn round's delete batches follows the loader cores'
/// timing: it moves with what a rebuild writes, the 92 keys they name, the
/// item counts, the stored bytes and the query pins do not.
#[test]
fn a_mixed_plan_is_pinned_from_stored_bytes_to_delete_batches() {
    let plan = MixedPlan::uniform(Some(Strategy::Lup))
        .with("people", Some(Strategy::Lui))
        .with("items", Some(Strategy::Lu))
        .with("auc", None);
    let mut w = deployed(Strategy::Lup, Some(plan));
    let log: Arc<Mutex<Vec<DeleteBatch>>> = Arc::default();
    let kv = &mut w.engine_mut().world.kv;
    let placeholder = KvBackend::default().open(KvTuning::NONE);
    let inner = std::mem::replace(kv, placeholder);
    *kv = Box::new(DeleteLog {
        inner,
        log: log.clone(),
    });

    w.upload_documents(partitioned_corpus(1500));
    let build = w.build_index();
    assert_eq!((build.documents, build.items), (30, 2_021));
    assert!(
        log.lock().unwrap().is_empty(),
        "a first build deletes nothing"
    );
    let tables: Vec<String> = w
        .world()
        .kv
        .peek_all()
        .into_iter()
        .map(|(t, _)| t)
        .collect::<std::collections::BTreeSet<_>>()
        .into_iter()
        .collect();
    assert_eq!(tables, ["amada-index@items", "amada-index@people"]);
    assert_eq!(
        index_digest(&w),
        (0xbef1_8cc9_5860_d685, 2_021, 349_684),
        "{:#018x}",
        index_digest(&w).0
    );

    // (index gets, documents fetched, response µs, bill in picodollars)
    type Pinned = (u64, usize, u64, u128);
    let pinned: [(&str, Pinned); 3] = [
        ("q5", (10, 12, 62_634, 41_517_339)),
        ("q6", (12, 10, 59_638, 38_972_033)),
        ("q7", (14, 12, 62_778, 41_550_829)),
    ];
    for (name, expected) in pinned {
        let run = w.run_query(&workload_query(name).unwrap());
        let got = (
            run.exec.index_get_ops,
            run.exec.docs_fetched,
            run.exec.response_time.micros(),
            run.cost.total().pico(),
        );
        assert_eq!(got, expected, "{name}");
    }

    // Churn: the first five documents shrink (the same slots of a smaller
    // corpus); only the indexed partitions' ones leave stale keys, and
    // only for the keys they lost — 92 deletes, 2 021 − 92 items left.
    w.upload_documents(partitioned_corpus(700).into_iter().take(5));
    let build = w.build_index();
    let churned = std::mem::take(&mut *log.lock().unwrap());
    assert_eq!(build.documents, 5);
    assert_eq!(
        build.retracted_items,
        churned
            .iter()
            .map(|(_, keys)| keys.len() as u64)
            .sum::<u64>()
    );
    assert_eq!(
        delete_runs(&churned),
        [("amada-index@items", 2, 23), ("amada-index@people", 3, 69)]
    );
    assert_eq!(
        delete_digest(&churned),
        0xf3c0_058e_7ac6_242c,
        "{:#018x}",
        delete_digest(&churned)
    );
    assert_eq!(
        index_digest(&w),
        (0xf4ad_25f4_5bae_e20b, 1_929, 333_451),
        "{:#018x}",
        index_digest(&w).0
    );

    // A plan switch that moves every partition: people LUI → LU in place,
    // items dropped, auc indexed for the first time.
    let moved = replan(
        &mut w,
        MixedPlan::uniform(Some(Strategy::Lup))
            .with("people", Some(Strategy::Lu))
            .with("items", None)
            .with("auc", Some(Strategy::Lui)),
    );
    assert_eq!(moved, 30);
    let build = w.build_index();
    let switched = std::mem::take(&mut *log.lock().unwrap());
    assert_eq!(build.documents, 30);
    assert_eq!(
        build.retracted_items,
        switched
            .iter()
            .map(|(_, keys)| keys.len() as u64)
            .sum::<u64>()
    );
    // LUI and LU name the same keys for documents this small, so the
    // people rewrite overwrites in place and only `items` is retracted.
    assert_eq!(delete_runs(&switched), [("amada-index@items", 41, 968)]);
    assert_eq!(
        delete_digest(&switched),
        0xca78_223e_c027_83e0,
        "{:#018x}",
        delete_digest(&switched)
    );
    assert_eq!(
        index_digest(&w),
        (0x6b62_4502_ceea_5ec8, 1_815, 312_119),
        "{:#018x}",
        index_digest(&w).0
    );
}
