//! The warehouse façade: the full architecture of the paper's Figure 1,
//! steps 1–18, over the simulated cloud.

use crate::actors::{LoaderCore, QueryCore, RetractionRegistry, Worker};
use crate::arrival::{ArrivalProcess, ArrivalSender};
use crate::config::{
    Module, Pool, WarehouseConfig, DEAD_LETTER_QUEUE, DOC_BUCKET, LOADER, LOADER_POOL,
    LOADER_QUEUE, QUERY, QUERY_QUEUE, RESPONSE_QUEUE, RESULT_BUCKET,
};
use crate::metrics::{CostedQuery, IndexBuildReport, WorkloadReport};
use crate::retry::{put_object, Retry};
use amada_cloud::{
    Actor, ActorTag, Blob, CostReport, CostSnapshot, Engine, InstanceId, Money, Phase, SimDuration,
    SimTime, Span, StorageCost, World,
};
use amada_index::{plan_document, CacheStats, ExtractCache, PrewarmReport, Strategy, WriteSet};
use amada_pattern::Query;
use std::cell::RefCell;
use std::collections::{BTreeSet, VecDeque};
use std::rc::Rc;

/// A cloud-hosted XML warehouse (one simulated deployment).
pub struct Warehouse {
    cfg: WarehouseConfig,
    engine: Engine,
    doc_uris: Vec<String>,
    corpus_bytes: u64,
    /// The front end's span lane (one logical front-end machine).
    frontend: ActorTag,
    /// The front end's throttle handling: one client, so linear backoff
    /// and no jitter; every call it retries, it retries until it succeeds.
    retry: Retry,
    /// What the index store may hold for every URI whose rebuild has been
    /// queued and has not completed, shared with the loader cores (see
    /// [`RetractionRegistry`]).
    retractions: RetractionRegistry,
    /// Read-path state kept from one query to the next, dropped by an
    /// upload or a delete: whether the parse cache has been probed for
    /// every stored document. The flag only spares the probe pass: a query
    /// core parses whatever the cache no longer holds, so a neighbour
    /// evicting an entry costs host time, never an answer.
    parses_warm: bool,
}

/// A workload's `(send at, query name, message body)` arrival schedule.
type Schedule = VecDeque<(SimTime, String, String)>;

/// One arrival of `q` at `at`. An unnamed query is called
/// `query-{ordinal}`; `seq` makes the name unique per arrival
/// (`{query}#{seq}`), so per-arrival latency can be read back from spans
/// even when the same query is drawn many times.
fn arrival(
    at: SimTime,
    q: &Query,
    ordinal: usize,
    seq: Option<usize>,
) -> (SimTime, String, String) {
    let mut name = q.name.clone().unwrap_or_else(|| format!("query-{ordinal}"));
    if let Some(seq) = seq {
        name = format!("{name}#{seq}");
    }
    let body = format!("{name}\n{q}");
    (at, name, body)
}

/// Fault-visibility deltas since a snapshot: (throttled billed requests
/// across all services, lease renewals, redeliveries).
fn fault_deltas(world: &World, before: &CostSnapshot) -> (u64, u64, u64) {
    let s3 = world.s3.stats();
    let kv = world.kv.stats();
    let sqs = world.sqs.stats();
    (
        (s3.throttled - before.s3.throttled)
            + (kv.throttled - before.kv.throttled)
            + (sqs.throttled - before.sqs.throttled),
        sqs.renewals - before.sqs.renewals,
        sqs.redelivered - before.sqs.redelivered,
    )
}

/// Outcome of uploading a batch of documents (front-end steps 1–3).
#[derive(Debug, Clone, Copy)]
pub struct UploadReport {
    /// Documents uploaded.
    pub documents: u64,
    /// Bytes uploaded.
    pub bytes: u64,
    /// Charges for the upload (the paper's `ud$(D)`).
    pub cost: Money,
}

/// Outcome of deleting documents (front-end churn maintenance).
#[derive(Debug, Clone, Copy)]
pub struct DeleteReport {
    /// Documents actually removed (URIs that were stored).
    pub documents: u64,
    /// Stored bytes freed.
    pub bytes: u64,
    /// Index item keys deleted: every key the store may hold for any
    /// version of the removed documents.
    pub index_items_removed: u64,
    /// Charges for the deletion: S3 DELETEs are free, so this is the
    /// index-store write capacity the retraction consumed.
    pub cost: Money,
}

impl Warehouse {
    /// Provisions a warehouse: buckets, queues and the index tables of its
    /// strategy.
    pub fn new(cfg: WarehouseConfig) -> Warehouse {
        let mut world = World::open(cfg.backend, cfg.kv_tuning);
        world.s3.create_bucket(DOC_BUCKET);
        world.s3.create_bucket(RESULT_BUCKET);
        world.sqs.create_queue(LOADER_QUEUE);
        world.sqs.create_queue(QUERY_QUEUE);
        world.sqs.create_queue(RESPONSE_QUEUE);
        world.sqs.create_queue(DEAD_LETTER_QUEUE);
        for table in cfg.strategy.tables() {
            world.kv.ensure_table(table);
        }
        world.install_faults(&cfg.faults);
        if cfg.host.record {
            world.enable_recording();
        }
        Warehouse {
            retry: Retry::new(cfg.retry, None),
            cfg,
            engine: Engine::new(world),
            doc_uris: Vec::new(),
            corpus_bytes: 0,
            frontend: ActorTag {
                kind: "frontend",
                instance: 0,
            },
            retractions: Rc::default(),
            parses_warm: false,
        }
    }

    /// The configuration in force.
    pub fn config(&self) -> &WarehouseConfig {
        &self.cfg
    }

    /// Reconfigures the query-processor pool (the experiments vary
    /// instance count and flavor between runs; the index is unaffected).
    pub fn set_query_pool(&mut self, pool: crate::config::Pool) {
        self.cfg.query_pool = pool;
    }

    /// The simulated cloud (for inspection and cost reporting).
    pub fn world(&self) -> &World {
        &self.engine.world
    }

    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        self.engine.now()
    }

    /// URIs of all uploaded documents.
    pub fn documents(&self) -> &[String] {
        &self.doc_uris
    }

    /// Tags the front end's next requests: the spans they record carry
    /// its lane plus the phase, query and document in hand.
    fn tag_frontend(&self, phase: Phase, query: Option<&str>, doc: Option<&str>) {
        self.engine.world.obs.with_ctx(|c| {
            c.phase = phase;
            c.query = query.map(Into::into);
            c.doc = doc.map(Into::into);
            c.actor = Some(self.frontend);
        });
    }

    /// Total corpus size in bytes (`s(D)`).
    pub fn corpus_bytes(&self) -> u64 {
        self.corpus_bytes
    }

    /// Front end, steps 1–3: store each document in the file store and
    /// enqueue a loading request. May be called repeatedly — the warehouse
    /// is incremental; follow each batch with [`Warehouse::build_index`].
    ///
    /// Re-uploading an existing URI replaces the stored document and
    /// re-indexes it (a range key names its entry, so a key the new
    /// version keeps is overwritten in place). Index entries for keys that
    /// no longer occur in the new version *are* retracted: the front end
    /// records the replaced version's write set before overwriting the
    /// object, and the loader deletes the stale keys right after writing
    /// the new version — so a shrunk re-upload stops billing look-ups and
    /// document GETs for its removed keys as soon as the next
    /// [`Warehouse::build_index`] completes. See also
    /// [`Warehouse::delete_documents`].
    pub fn upload_documents<I, S>(&mut self, docs: I) -> UploadReport
    where
        I: IntoIterator<Item = (S, S)>,
        S: Into<String>,
    {
        self.parses_warm = false;
        let before = self.engine.world.snapshot();
        let mut t = self.engine.now();
        let mut n = 0u64;
        let mut bytes = 0u64;
        for (uri, xml) in docs {
            let (uri, xml) = (uri.into(), xml.into());
            let body = xml.into_bytes();
            bytes += body.len() as u64;
            self.tag_frontend(Phase::Upload, None, Some(&uri));
            // Re-uploading an existing URI replaces the object: record
            // what the replaced version has in the index *before* the
            // overwrite destroys the only copy of its bytes, account for
            // the replaced bytes, and keep the URI listed once.
            let replaced = self.engine.world.s3.peek(DOC_BUCKET, &uri);
            self.mark_pending(&uri, replaced.as_deref());
            let s3 = &mut self.engine.world.s3;
            t = put_object(s3, &mut self.retry, t, DOC_BUCKET, &uri, body);
            t = self.enqueue_load(t, &uri);
            match replaced {
                Some(old) => self.corpus_bytes -= old.len() as u64,
                None => self.doc_uris.push(uri),
            }
            n += 1;
        }
        self.corpus_bytes += bytes;
        self.engine.world.obs.with_ctx(|c| *c = Default::default());
        let cost = self.engine.world.cost_since(&before).total();
        UploadReport {
            documents: n,
            bytes,
            cost,
        }
    }

    /// Front end, step 3: enqueues a loading request for `uri` at `t`.
    /// Returns when the send completed.
    fn enqueue_load(&mut self, t: SimTime, uri: &str) -> SimTime {
        let what = format_args!("front-end send to {LOADER_QUEUE}");
        self.retry.until_ok(t, what, |t| {
            self.engine.world.sqs.send(t, LOADER_QUEUE, uri)
        })
    }

    /// Readies `uri`'s registry entry for a loader's or a delete's plan: the
    /// first since its last completed rebuild records what the index holds,
    /// the write set `cfg.strategy` makes of the `stored` bytes (host-side,
    /// memoized — no requests, no virtual time) — an empty one when nothing
    /// is stored or its bytes are not XML.
    fn mark_pending(&self, uri: &str, stored: Option<&Blob>) {
        let mut registry = self.retractions.borrow_mut();
        if registry.contains_key(uri) {
            return;
        }
        let (strategy, opts) = (self.cfg.strategy, self.cfg.extract);
        let profile = self.engine.world.kv.profile();
        let set = stored
            .map(|bytes| ExtractCache::shared().write_set(uri, bytes, strategy, opts, &profile));
        let set = set.and_then(Result::ok).unwrap_or_default();
        registry.insert(uri.to_string(), vec![set]);
    }

    /// The documents a loader message is out for, by a host-side look at
    /// the queue: a parked message leaves its registry entry, not this.
    fn queued_loads(&self) -> BTreeSet<String> {
        let bodies = self.engine.world.sqs.bodies(LOADER_QUEUE);
        let bodies = bodies.expect("module queues exist");
        bodies.map(String::from).collect()
    }

    /// Front end, churn maintenance: removes documents from the file
    /// store and retracts their index entries. The S3 DELETEs are free
    /// requests (real S3 bills nothing for them); the index retraction
    /// consumes write capacity like any other delete. Unknown URIs are
    /// skipped. A delete is a plan of no entries against the URI's registry
    /// entry, readied as for a replace: it deletes what the store may hold
    /// for any version — nothing for one no loader planned — so deleting a
    /// document is safe at any point of the upload → build cycle, and a
    /// loader message that later finds the object gone simply commits.
    pub fn delete_documents<I, S>(&mut self, uris: I) -> DeleteReport
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        self.parses_warm = false;
        let before = self.engine.world.snapshot();
        let mut t = self.engine.now();
        let mut bytes = 0u64;
        let mut removed = 0u64;
        let mut gone: BTreeSet<String> = BTreeSet::new();
        let profile = self.engine.world.kv.profile();
        for uri in uris {
            let uri: String = uri.into();
            self.tag_frontend(Phase::Upload, None, Some(&uri));
            let stored = self.engine.world.s3.peek(DOC_BUCKET, &uri);
            self.mark_pending(&uri, stored.as_deref());
            let held = self.retractions.borrow_mut().remove(&uri);
            let held = held.as_deref().unwrap_or_default();
            let plan = plan_document(&WriteSet::default(), &profile, held);
            let deletes = plan.expect("a plan of no entries makes no item").deletes;
            if let Some(old) = stored {
                bytes += old.len() as u64;
                self.corpus_bytes -= old.len() as u64;
                let what = format_args!("front-end delete of {DOC_BUCKET}/{uri}");
                t = self.retry.until_ok(t, what, |t| {
                    self.engine.world.s3.delete(t, DOC_BUCKET, &uri)
                });
                gone.insert(uri);
            }
            for (table, chunk) in deletes {
                removed += chunk.len() as u64;
                // Deletes are idempotent at the store, so an over-retry
                // only costs money.
                let what = format_args!("front-end delete from table {table}");
                t = self.retry.until_ok(t, what, |t| {
                    self.engine.world.kv.batch_delete(t, table, &chunk)
                });
            }
        }
        self.engine.world.obs.with_ctx(|c| *c = Default::default());
        // One pass over the listing however many documents went.
        self.doc_uris.retain(|u| !gone.contains(u));
        DeleteReport {
            documents: gone.len() as u64,
            bytes,
            index_items_removed: removed,
            cost: self.engine.world.cost_since(&before).total(),
        }
    }

    /// Parses and extracts every stored document across all host cores,
    /// filling the host cache so the engine's loader steps become cache
    /// hits. Wall-clock only: reads the file store without billing and
    /// advances no virtual time — the engine still charges each core the
    /// full parse + extract cost at its own virtual arrival time.
    /// Idempotent; called automatically by [`Warehouse::build_index`] and
    /// the query paths when `cfg.host.prewarm` is set.
    pub fn prewarm(&self) -> PrewarmReport {
        self.prewarm_extractions(self.engine.world.s3.peek_all(DOC_BUCKET))
    }

    /// [`Warehouse::prewarm`] over `docs` only.
    fn prewarm_extractions(&self, docs: Vec<(String, std::sync::Arc<Blob>)>) -> PrewarmReport {
        let combos = [(self.cfg.strategy, self.cfg.extract)];
        let profile = self.engine.world.kv.profile();
        amada_index::prewarm_for(ExtractCache::shared(), &docs, &combos, &profile)
    }

    /// Like [`Warehouse::prewarm`] but parses only — what the query path
    /// needs (it evaluates patterns on parsed trees, never extracts).
    pub fn prewarm_parses(&self) -> PrewarmReport {
        let docs = self.engine.world.s3.peek_all(DOC_BUCKET);
        let profile = self.engine.world.kv.profile();
        amada_index::prewarm_for(ExtractCache::shared(), &docs, &[], &profile)
    }

    /// Host-cache effectiveness counters (wall-clock diagnostics).
    pub fn cache_stats(&self) -> CacheStats {
        ExtractCache::shared().stats()
    }

    /// Runs one module phase to completion, for either module: launches
    /// `pool.count` instances over the module's queue, each running
    /// `actors` cores, runs the engine dry, and releases the instances.
    /// Returns what the cores left in their shared sink and the phase's
    /// end time.
    ///
    /// `core` builds one actor per call from the configuration, the
    /// module's queue [`Worker`] it embeds and the sink. Cores are
    /// numbered in launch order; the number derives a core's backoff
    /// jitter.
    fn run_pool<S: Default>(
        &mut self,
        module: Module,
        pool: Pool,
        actors: usize,
        core: impl Fn(&WarehouseConfig, Worker, Rc<RefCell<S>>) -> Box<dyn Actor>,
    ) -> (S, SimTime) {
        let start = self.engine.now();
        let first_instance = self.engine.world.ec2.records().len();
        let sink: Rc<RefCell<S>> = Rc::default();
        let mut next_core = 0;
        for _ in 0..pool.count {
            let instance = self.engine.world.ec2.launch(pool.itype, start);
            for _ in 0..actors {
                let worker = Worker::new(&self.cfg, module, instance, next_core);
                self.engine
                    .spawn(core(&self.cfg, worker, sink.clone()), start);
                next_core += 1;
            }
        }
        let end = self.engine.run();
        // Instances are released when the whole phase completes (the
        // paper's `VM$_h × t_idx` bills the pool for the phase).
        for i in first_instance..first_instance + pool.count {
            self.engine.world.ec2.extend(InstanceId(i), end);
        }
        self.engine.world.sqs.open(module.queue);
        (sink.take(), end)
    }

    /// Runs the indexing module over everything currently queued
    /// (steps 4–6), with the configured (static) loader pool.
    pub fn build_index(&mut self) -> IndexBuildReport {
        if self.cfg.host.prewarm {
            // What is queued, not what is stored: a one-document rebuild
            // extracts one document (in URI order, as the store lists them).
            let (s3, queued) = (&self.engine.world.s3, self.queued_loads());
            let stored = |uri: String| s3.peek(DOC_BUCKET, &uri).map(|bytes| (uri, bytes));
            self.prewarm_extractions(queued.into_iter().filter_map(stored).collect());
        }
        let before = self.engine.world.snapshot();
        let start = self.engine.now();
        self.engine.world.sqs.close(LOADER_QUEUE);
        let pool = LOADER_POOL;
        let retractions = self.retractions.clone();
        let core = move |cfg: &WarehouseConfig, worker, totals| -> Box<dyn Actor> {
            Box::new(LoaderCore::new(cfg, worker, retractions.clone(), totals))
        };
        let (totals, end) = self.run_pool(LOADER, pool, pool.itype.cores(), core);
        let cost = self.engine.world.cost_since(&before);
        let (throttled_requests, lease_renewals, redelivered) =
            fault_deltas(&self.engine.world, &before);
        let kv_after = self.engine.world.kv.stats();
        // Averages are per core *that did work*: a corpus smaller than
        // the pool leaves cores idle, and dividing by the configured
        // count would understate the per-worker times the paper's
        // Table 4 reports. Round half-up — truncation biased every
        // average down by up to a microsecond.
        let workers = totals.active_cores.max(1);
        let per_core =
            |sum_micros: u64| SimDuration::from_micros((sum_micros + workers / 2) / workers);
        IndexBuildReport {
            strategy: self.cfg.strategy,
            instances: pool.count,
            itype: pool.itype,
            documents: totals.docs,
            corpus_bytes: self.corpus_bytes,
            entries: totals.entries,
            items: totals.items,
            unchanged_items: totals.unchanged_items,
            entry_bytes: totals.entry_bytes,
            avg_extraction_time: per_core(totals.extraction_micros),
            avg_upload_time: per_core(totals.upload_micros),
            retracted_items: totals.retracted_items,
            total_time: end - start,
            cost,
            // Saturating: a churn build that retracts more than it writes
            // shrinks the index, and a negative delta reports as zero.
            index_raw_bytes: kv_after.raw_bytes.saturating_sub(before.kv.raw_bytes),
            index_overhead_bytes: kv_after
                .overhead_bytes
                .saturating_sub(before.kv.overhead_bytes),
            storage: self.engine.world.storage_cost_per_month(),
            throttled_requests,
            lease_renewals,
            redelivered,
        }
    }

    /// Runs one query through the full pipeline (steps 7–18) on the
    /// configured query pool, using the index.
    pub fn run_query(&mut self, query: &Query) -> CostedQuery {
        self.run_one(query, Some(self.cfg.strategy))
    }

    /// Runs one query without any index: the processor fetches and
    /// evaluates the entire corpus (the paper's no-index baseline).
    pub fn run_query_no_index(&mut self, query: &Query) -> CostedQuery {
        self.run_one(query, None)
    }

    fn run_one(&mut self, query: &Query, strategy: Option<Strategy>) -> CostedQuery {
        let before = self.engine.world.snapshot();
        let schedule = self.closed_batch(std::slice::from_ref(query), 1);
        let report = self.run_batch(schedule, false, strategy);
        let mut executions = report.executions;
        assert_eq!(executions.len(), 1, "one query in, one execution out");
        CostedQuery {
            exec: executions.remove(0),
            cost: self.engine.world.cost_since(&before),
        }
    }

    /// The paper's closed batch: all `queries × repeats` messages due
    /// now, in round-robin order (q1…qn, q1…qn, …).
    fn closed_batch(&self, queries: &[Query], repeats: usize) -> Schedule {
        let at = self.engine.now();
        let mut schedule = Schedule::new();
        for _ in 0..repeats {
            for q in queries {
                schedule.push_back(arrival(at, q, schedule.len(), None));
            }
        }
        schedule
    }

    /// Runs a workload of queries, each repeated `repeats` times
    /// (sent in round-robin order: q1…qn, q1…qn, …), across the query
    /// pool. Used for the paper's Figure 10 scaling experiment.
    pub fn run_workload(&mut self, queries: &[Query], repeats: usize) -> WorkloadReport {
        let schedule = self.closed_batch(queries, repeats);
        self.run_batch(schedule, false, Some(self.cfg.strategy))
    }

    /// Like [`Warehouse::run_workload`] but without any index.
    pub fn run_workload_no_index(&mut self, queries: &[Query], repeats: usize) -> WorkloadReport {
        let schedule = self.closed_batch(queries, repeats);
        self.run_batch(schedule, false, None)
    }

    /// Releases queries open-loop from a seeded [`ArrivalProcess`]: each
    /// arrival Zipf-picks a query and is sent at its scheduled instant
    /// regardless of completions, so backlog under saturation is real.
    /// Arrival names are `{query}#{seq}` — unique per arrival, so
    /// recorded spans give exact per-arrival virtual latencies.
    pub fn run_workload_open_loop(
        &mut self,
        queries: &[Query],
        process: &ArrivalProcess,
    ) -> WorkloadReport {
        let start = self.engine.now();
        let schedule = process
            .offsets(queries.len())
            .into_iter()
            .enumerate()
            .map(|(seq, (offset, idx))| arrival(start + offset, &queries[idx], idx, Some(seq)))
            .collect();
        self.run_batch(schedule, true, Some(self.cfg.strategy))
    }

    /// Runs one workload: the front end enqueues `schedule` (steps 7–8) —
    /// `timed` inside the engine, each message at its scheduled instant;
    /// otherwise as the paper's closed batch, all of it before the engine
    /// starts — and the query pool answers it from `strategy`'s index, or
    /// by scanning the corpus (`None`).
    fn run_batch(
        &mut self,
        schedule: Schedule,
        timed: bool,
        strategy: Option<Strategy>,
    ) -> WorkloadReport {
        if self.cfg.host.prewarm && !self.parses_warm {
            // Queries parse candidate documents; after an indexed build
            // these are already cached, and the no-index baseline (which
            // fetches the whole corpus) benefits the most.
            self.prewarm_parses();
            self.parses_warm = true;
        }
        let before = self.engine.world.snapshot();
        let start = self.engine.now();
        let sender = ArrivalSender::new(QUERY_QUEUE, schedule, self.cfg.retry, self.frontend);
        if timed {
            let first = sender.first_send().unwrap_or(start);
            self.engine.spawn(Box::new(sender), first);
        } else {
            sender.send_all(start, &mut self.engine.world);
        }
        // Steps 9–15: the query-processor pool, one actor per instance.
        let no_documents = self.doc_uris.is_empty();
        let core = move |cfg: &WarehouseConfig, worker, executions| -> Box<dyn Actor> {
            let mut core = QueryCore::new(cfg, worker, strategy, executions);
            core.no_documents = no_documents;
            Box::new(core)
        };
        let (executions, end) = self.run_pool(QUERY, self.cfg.query_pool, 1, core);
        // Front end, steps 16–18: fetch each response, download the
        // results out of the cloud.
        self.tag_frontend(Phase::Frontend, None, None);
        let mut t = end;
        let (world, retry, visibility) =
            (&mut self.engine.world, &mut self.retry, self.cfg.visibility);
        loop {
            let what = format_args!("front-end receive from {RESPONSE_QUEUE}");
            let (msg, t2) = retry.until_ok(t, what, |t| {
                world.sqs.receive(t, RESPONSE_QUEUE, visibility)
            });
            let Some(msg) = msg else { break };
            let what = format_args!("front-end get of {RESULT_BUCKET}/{}", msg.body);
            let (data, t3) =
                retry.until_ok(t2, what, |t| world.s3.get(t, RESULT_BUCKET, &msg.body));
            world.egress(t3, data.len() as u64);
            let what = format_args!("front-end delete from {RESPONSE_QUEUE}");
            t = retry.until_ok(t3, what, |t| world.sqs.delete(t, RESPONSE_QUEUE, msg.id));
        }
        self.engine.world.obs.with_ctx(|c| *c = Default::default());
        let (throttled_requests, lease_renewals, redelivered) =
            fault_deltas(&self.engine.world, &before);
        WorkloadReport {
            executions,
            total_time: end - start,
            cost: self.engine.world.cost_since(&before),
            throttled_requests,
            lease_renewals,
            redelivered,
        }
    }

    /// Monthly storage charges for the current warehouse contents
    /// (`st$_m(D, I)`).
    pub fn storage_cost(&self) -> StorageCost {
        self.engine.world.storage_cost_per_month()
    }

    /// Charges accumulated since provisioning.
    pub fn total_cost(&self) -> CostReport {
        self.engine.world.cost_report()
    }

    /// Every span recorded so far (empty unless `cfg.host.record` was
    /// set when the warehouse was provisioned).
    pub fn spans(&self) -> std::sync::Arc<Vec<Span>> {
        self.engine.world.obs.spans()
    }

    /// Test access to the engine (fault injection, custom actors).
    pub fn engine_mut(&mut self) -> &mut Engine {
        &mut self.engine
    }

    /// The process-wide host cache, [`ExtractCache::shared`].
    pub fn cache(&self) -> &'static ExtractCache {
        ExtractCache::shared()
    }

    /// The shared retraction registry (test access — custom loader actors
    /// must share it to participate in update retraction).
    pub fn retraction_registry(&self) -> RetractionRegistry {
        self.retractions.clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use amada_index::Strategy;
    use amada_xmark::{generate_corpus, workload_query, CorpusConfig};

    fn small_corpus() -> Vec<(String, String)> {
        let cfg = CorpusConfig {
            num_documents: 30,
            target_doc_bytes: 1200,
            ..Default::default()
        };
        generate_corpus(&cfg)
            .into_iter()
            .map(|d| (d.uri, d.xml))
            .collect()
    }

    fn warehouse(strategy: Strategy) -> Warehouse {
        let mut w = Warehouse::new(WarehouseConfig::with_strategy(strategy));
        let up = w.upload_documents(small_corpus());
        assert_eq!(up.documents, 30);
        assert!(up.cost > Money::ZERO);
        w
    }

    #[test]
    fn build_index_processes_every_document() {
        let mut w = warehouse(Strategy::Lu);
        let report = w.build_index();
        assert_eq!(report.documents, 30);
        assert!(report.entries > 0);
        assert!(report.total_time > SimDuration::ZERO);
        assert!(report.cost.total() > Money::ZERO);
        assert!(report.index_raw_bytes > 0);
        // The loader queue is drained.
        assert!(w.world().sqs.is_empty(LOADER_QUEUE).unwrap());
    }

    #[test]
    fn indexed_query_round_trip() {
        let mut w = warehouse(Strategy::Lup);
        w.build_index();
        let q = workload_query("q2").unwrap();
        let run = w.run_query(&q);
        assert_eq!(run.exec.name, "q2");
        assert!(!run.exec.results.is_empty());
        assert!(run.exec.docs_from_index > 0);
        assert!(run.exec.docs_fetched <= 30);
        assert!(run.exec.response_time > SimDuration::ZERO);
        assert!(run.cost.total() > Money::ZERO);
        // Results were egressed.
        assert!(w.world().egress_bytes > 0);
    }

    #[test]
    fn indexed_results_equal_no_index_results() {
        for strategy in Strategy::ALL {
            let mut w = warehouse(strategy);
            w.build_index();
            for qname in ["q1", "q3", "q4", "q8"] {
                let q = workload_query(qname).unwrap();
                let with = w.run_query(&q);
                let without = w.run_query_no_index(&q);
                let mut a = with.exec.results.clone();
                let mut b = without.exec.results.clone();
                a.sort_by(|x, y| x.columns.cmp(&y.columns));
                b.sort_by(|x, y| x.columns.cmp(&y.columns));
                assert_eq!(a, b, "{qname} under {strategy}");
            }
        }
    }

    #[test]
    fn index_reduces_time_and_cost() {
        let mut w = warehouse(Strategy::Lup);
        w.build_index();
        let q = workload_query("q1").unwrap();
        let with = w.run_query(&q);
        let without = w.run_query_no_index(&q);
        assert!(
            with.exec.response_time < without.exec.response_time,
            "indexed {} vs baseline {}",
            with.exec.response_time,
            without.exec.response_time
        );
        assert!(with.cost.total() < without.cost.total());
        assert!(with.exec.docs_fetched < without.exec.docs_fetched);
    }

    #[test]
    fn workload_runs_on_multiple_instances() {
        let mut cfg = WarehouseConfig::with_strategy(Strategy::Lu);
        cfg.query_pool.count = 4;
        let mut w = Warehouse::new(cfg);
        w.upload_documents(small_corpus());
        w.build_index();
        let queries: Vec<_> = ["q2", "q4", "q6"]
            .iter()
            .map(|n| workload_query(n).unwrap())
            .collect();
        let report = w.run_workload(&queries, 2);
        assert_eq!(report.executions.len(), 6);
        assert!(report.total_time > SimDuration::ZERO);
    }

    #[test]
    fn more_instances_reduce_workload_time() {
        let run = |instances: usize| {
            let mut cfg = WarehouseConfig::with_strategy(Strategy::Lu);
            cfg.query_pool.count = instances;
            let mut w = Warehouse::new(cfg);
            w.upload_documents(small_corpus());
            w.build_index();
            let queries: Vec<_> = ["q2", "q5", "q6", "q7"]
                .iter()
                .map(|n| workload_query(n).unwrap())
                .collect();
            w.run_workload(&queries, 4).total_time
        };
        let one = run(1);
        let four = run(4);
        assert!(
            four.micros() * 2 < one.micros(),
            "4 instances {four} vs 1 instance {one}"
        );
    }

    /// Regression for the pre-retraction behavior this comment block used
    /// to document: a shrunk re-upload left the removed keys' entries in
    /// the index, so every later query for them billed a look-up *and* a
    /// document GET just to filter a false positive. Retraction removes
    /// the entries at rebuild time; the stale key stops billing entirely.
    #[test]
    fn shrunk_reupload_stops_billing_for_removed_keys() {
        use amada_pattern::parse_query;
        let mut w = Warehouse::new(WarehouseConfig::with_strategy(Strategy::Lu));
        w.upload_documents([
            ("a.xml", "<r><gone>x</gone><kept>y</kept></r>"),
            ("b.xml", "<r><kept>z</kept></r>"),
        ]);
        w.build_index();
        let mut q = parse_query("//r[/gone{val}]").unwrap();
        q.name = Some("gone".into());
        let before = w.run_query(&q);
        assert_eq!(before.exec.docs_from_index, 1);
        assert_eq!(before.exec.docs_fetched, 1);
        assert_eq!(before.exec.results.len(), 1);
        // Shrink a.xml: <gone> disappears; the rebuild retracts its keys.
        w.upload_documents([("a.xml", "<r><kept>y</kept></r>")]);
        let build = w.build_index();
        assert!(build.retracted_items > 0, "the shrink must retract items");
        let after = w.run_query(&q);
        assert_eq!(after.exec.docs_from_index, 0, "no look-up hits");
        assert_eq!(after.exec.docs_fetched, 0, "no GETs for removed keys");
        assert!(after.exec.results.is_empty());
    }

    /// The churned index must be *byte-identical* to a fresh build of the
    /// final corpus — replaces retract exactly their stale keys, nothing
    /// more, nothing less.
    #[test]
    fn reupload_retraction_matches_a_fresh_build() {
        for strategy in Strategy::ALL {
            let docs = small_corpus();
            let mut churned = Warehouse::new(WarehouseConfig::with_strategy(strategy));
            churned.upload_documents(docs.clone());
            churned.build_index();
            // Replace a third of the corpus with shrunk/grown versions:
            // swap contents pairwise so keys genuinely change.
            let replaced: Vec<(String, String)> = (0..10)
                .map(|i| (docs[i].0.clone(), docs[(i + 10) % 20].1.clone()))
                .collect();
            churned.upload_documents(replaced.clone());
            churned.build_index();

            let mut fresh = Warehouse::new(WarehouseConfig::with_strategy(strategy));
            let mut final_docs = docs;
            for (uri, xml) in &replaced {
                final_docs.iter_mut().find(|(u, _)| u == uri).unwrap().1 = xml.clone();
            }
            fresh.upload_documents(final_docs);
            fresh.build_index();
            assert_eq!(
                churned.world().kv.peek_all(),
                fresh.world().kv.peek_all(),
                "{strategy}: churned index != fresh build"
            );
            assert_eq!(churned.corpus_bytes(), fresh.corpus_bytes());
        }
    }

    #[test]
    fn deleting_documents_cleans_index_and_accounting() {
        let mut w = warehouse(Strategy::Lup);
        w.build_index();
        let victims: Vec<String> = w.documents()[..10].to_vec();
        let del = w.delete_documents(victims.clone());
        assert_eq!(del.documents, 10);
        assert!(del.index_items_removed > 0);
        assert!(del.bytes > 0);
        assert!(del.cost > Money::ZERO, "index retraction bills write units");
        assert_eq!(w.documents().len(), 20);
        // S3 DELETEs are themselves free requests.
        assert_eq!(w.world().s3.stats().delete_requests, 10);
        // Inventory reconciles: corpus bytes equal the stored bytes.
        let stored: u64 = w
            .world()
            .s3
            .peek_all(DOC_BUCKET)
            .iter()
            .map(|(_, b)| b.len() as u64)
            .sum();
        assert_eq!(w.corpus_bytes(), stored);
        // The index is byte-identical to a fresh build of the survivors.
        let survivors: Vec<(String, String)> = small_corpus()
            .into_iter()
            .filter(|(u, _)| !victims.contains(u))
            .collect();
        let mut fresh = Warehouse::new(WarehouseConfig::with_strategy(Strategy::Lup));
        fresh.upload_documents(survivors);
        fresh.build_index();
        assert_eq!(w.world().kv.peek_all(), fresh.world().kv.peek_all());
    }

    /// Deleting a document whose loader message is still queued: the
    /// loader finds the object gone and simply commits; the front end
    /// already retracted the index entries at delete time.
    #[test]
    fn delete_before_build_leaves_no_trace() {
        let mut w = Warehouse::new(WarehouseConfig::with_strategy(Strategy::Lui));
        w.upload_documents([("a.xml", "<r><x>1</x></r>"), ("b.xml", "<r><y>2</y></r>")]);
        w.delete_documents(["a.xml"]);
        let build = w.build_index();
        assert_eq!(build.documents, 1, "only b.xml is left to index");
        assert!(w.world().sqs.is_empty(LOADER_QUEUE).unwrap());
        assert_eq!(w.documents(), ["b.xml"]);
        let mut fresh = Warehouse::new(WarehouseConfig::with_strategy(Strategy::Lui));
        fresh.upload_documents([("b.xml", "<r><y>2</y></r>")]);
        fresh.build_index();
        assert_eq!(w.world().kv.peek_all(), fresh.world().kv.peek_all());
    }

    /// Delete-then-re-add under the same URI: the re-added version is
    /// indexed cleanly, with no leftovers from the deleted incarnation.
    #[test]
    fn delete_then_readd_same_uri() {
        let mut w = Warehouse::new(WarehouseConfig::with_strategy(Strategy::TwoLupi));
        w.upload_documents([("d.xml", "<r><old>x</old></r>")]);
        w.build_index();
        w.delete_documents(["d.xml"]);
        w.upload_documents([("d.xml", "<r><new>y</new></r>")]);
        w.build_index();
        assert_eq!(w.documents(), ["d.xml"]);
        let mut fresh = Warehouse::new(WarehouseConfig::with_strategy(Strategy::TwoLupi));
        fresh.upload_documents([("d.xml", "<r><new>y</new></r>")]);
        fresh.build_index();
        assert_eq!(w.world().kv.peek_all(), fresh.world().kv.peek_all());
        // Deleting an unknown URI is a harmless no-op.
        let nop = w.delete_documents(["ghost.xml"]);
        assert_eq!(nop.documents, 0);
        assert_eq!(nop.index_items_removed, 0);
    }

    #[test]
    fn incremental_uploads_extend_the_index() {
        let mut w = warehouse(Strategy::Lui);
        w.build_index();
        let q = workload_query("q6").unwrap();
        let before = w.run_query(&q).exec.results.len();
        // Add 10 more documents and re-index incrementally.
        let cfg = CorpusConfig {
            num_documents: 40,
            target_doc_bytes: 1200,
            ..Default::default()
        };
        let extra: Vec<(String, String)> = generate_corpus(&cfg)
            .into_iter()
            .skip(30)
            .map(|d| (d.uri, d.xml))
            .collect();
        w.upload_documents(extra);
        let r = w.build_index();
        assert_eq!(r.documents, 10);
        let after = w.run_query(&q).exec.results.len();
        assert!(after >= before);
    }
}
