//! The warehouse façade: the full architecture of the paper's Figure 1,
//! steps 1–18, over the simulated cloud.

use crate::actors::{DocCache, LoaderCore, QueryCore, RetractionRegistry, Worker};
use crate::autoscale::{
    ArrivalProcess, ArrivalSender, AutoscaleController, DrainSignal, Launcher, ScaleEvent,
    ScaleEvents,
};
use crate::config::{
    AutoscalePolicy, Module, Pool, WarehouseConfig, DEAD_LETTER_QUEUE, DOC_BUCKET, LOADER,
    LOADER_QUEUE, QUERY, QUERY_QUEUE, RESPONSE_QUEUE, RESULT_BUCKET,
};
use crate::metrics::{CostedQuery, IndexBuildReport, WorkloadReport};
use crate::retry::{put_object, Retry};
use amada_cloud::{
    Actor, ActorTag, Blob, CostReport, CostSnapshot, Engine, InstanceId, Money, Phase, ServiceKind,
    SimDuration, SimTime, Span, StorageCost, World,
};
use amada_index::{
    delete_batches, placed_item_keys, CacheStats, ExtractCache, ItemKey, MixedPlan, PrewarmReport,
    Strategy, ValueId,
};
use amada_pattern::Query;
use std::cell::{OnceCell, RefCell};
use std::collections::{BTreeSet, VecDeque};
use std::rc::Rc;

/// A cloud-hosted XML warehouse (one simulated deployment).
pub struct Warehouse {
    cfg: WarehouseConfig,
    engine: Engine,
    cache: DocCache,
    doc_uris: Vec<String>,
    corpus_bytes: u64,
    /// The front end's span lane (one logical front-end machine).
    frontend: ActorTag,
    /// The front end's throttle handling: one client, so linear backoff
    /// and no jitter; every call it retries, it retries until it succeeds.
    retry: Retry,
    /// Autoscale controllers spawned so far (numbers their span lanes).
    controllers: usize,
    /// What the index store holds for every URI whose rebuild has been
    /// queued and has not completed, shared with the loader cores (see
    /// [`RetractionRegistry`]).
    retractions: RetractionRegistry,
    /// The routing plan in force, shared with the module cores: the flat
    /// plan of `cfg.strategy` until [`Warehouse::apply_plan`] changes it.
    plan: Rc<MixedPlan>,
    /// Recorded-span index of the last [`Warehouse::readvise`]: each
    /// cadence step advises from the traffic observed *since the
    /// previous one* (the observation window), so a drifting workload
    /// re-plans from what changed, not a stale average.
    advise_span_base: usize,
    /// Read-path state kept from one query to the next and dropped by
    /// [`Warehouse::corpus_changed`]: the partition catalog…
    catalog: OnceCell<Rc<BTreeSet<String>>>,
    /// …and whether the parse cache has been probed for every stored
    /// document. The flag only spares the probe pass: a query core parses
    /// whatever the cache no longer holds, so a neighbour evicting an
    /// entry costs host time, never an answer.
    parses_warm: bool,
}

/// Outcome of one [`Warehouse::readvise`] cadence step.
#[derive(Debug, Clone)]
pub struct Readvice {
    /// The adaptive advisor's full output (chosen plan, ranked
    /// comparison table, budget verdict).
    pub advice: crate::adaptive::AdaptiveAdvice,
    /// Documents re-enqueued to migrate to the chosen plan (0 when the
    /// recommendation confirms the current placement).
    pub migrated: u64,
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
    /// Index item keys retracted (including keys of replaced versions
    /// that were still awaiting retraction).
    pub index_items_removed: u64,
    /// Charges for the deletion: S3 DELETEs are free, so this is the
    /// index-store write capacity the retraction consumed.
    pub cost: Money,
}

impl Warehouse {
    /// Provisions a warehouse: buckets and queues (an index table exists
    /// from the first call that names it).
    pub fn new(cfg: WarehouseConfig) -> Warehouse {
        let mut world = World::open(cfg.backend.clone(), cfg.kv_tuning);
        world.prices = cfg.prices.clone();
        world.work = cfg.work.clone();
        world.ec2.set_granularity(cfg.ec2_billing);
        world.s3.create_bucket(DOC_BUCKET);
        world.s3.create_bucket(RESULT_BUCKET);
        world.sqs.create_queue(LOADER_QUEUE);
        world.sqs.create_queue(QUERY_QUEUE);
        world.sqs.create_queue(RESPONSE_QUEUE);
        world.sqs.create_queue(DEAD_LETTER_QUEUE);
        if let Some(plan) = &cfg.shard_plan {
            world.kv.set_shard_plan(plan.clone());
        }
        world.install_faults(&cfg.faults);
        if cfg.host.record {
            world.enable_recording();
        }
        Warehouse {
            retry: Retry::new(cfg.retry, None),
            // The paper's layout; under `MixedPlan::uniform` a URI's prefix
            // would route it out of the global tables.
            plan: Rc::new(MixedPlan::flat(Some(cfg.strategy))),
            cfg,
            engine: Engine::new(world),
            cache: ExtractCache::shared(),
            doc_uris: Vec::new(),
            corpus_bytes: 0,
            frontend: ActorTag {
                kind: "frontend",
                instance: 0,
            },
            controllers: 0,
            retractions: Rc::default(),
            advise_span_base: 0,
            catalog: OnceCell::new(),
            parses_warm: false,
        }
    }

    /// Drops the state the read path derived from the stored documents and
    /// their routing: called by upload, delete and plan switch.
    fn corpus_changed(&mut self) {
        self.catalog.take();
        self.parses_warm = false;
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

    /// Re-partitions the index store for subsequent runs: `Some(plan)`
    /// gives every table per-shard provisioned capacity routed by hash
    /// key, `None` restores the single table-level queue. Contents,
    /// answers and billed units are unaffected — only queueing changes.
    pub fn set_shard_plan(&mut self, plan: Option<amada_cloud::ShardPlan>) {
        self.engine
            .world
            .kv
            .set_shard_plan(plan.clone().unwrap_or_else(amada_cloud::ShardPlan::single));
        self.cfg.shard_plan = plan;
    }

    /// Switches queue-depth autoscaling of the query-processor pool on
    /// (`Some(policy)`) or off (`None`) for subsequent workload runs.
    pub fn set_query_autoscale(&mut self, policy: Option<AutoscalePolicy>) {
        self.cfg.query_autoscale = policy;
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

    /// The partitions currently holding live documents — the front end's
    /// own catalog, derived from its upload records (no cloud call). A
    /// fully indexed plan's query processors fan their look-ups out over
    /// this instead of paying the billed per-query corpus LIST. Public
    /// for tests that hand-build query processors.
    pub fn partition_catalog(&self) -> Rc<BTreeSet<String>> {
        let catalog = self.catalog.get_or_init(|| {
            let partitions = self.doc_uris.iter().map(|u| self.plan.partition_of(u));
            Rc::new(partitions.map(String::from).collect())
        });
        catalog.clone()
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
    /// records the replaced version's item keys before overwriting the
    /// object, and the loader deletes the stale ones right after writing
    /// the new version — so a shrunk re-upload stops billing look-ups and
    /// document GETs for its removed keys as soon as the next
    /// [`Warehouse::build_index`] completes. See also
    /// [`Warehouse::delete_documents`].
    pub fn upload_documents<I, S>(&mut self, docs: I) -> UploadReport
    where
        I: IntoIterator<Item = (S, S)>,
        S: Into<String>,
    {
        self.corpus_changed();
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
            self.mark_pending(&self.plan, &uri, replaced.as_deref());
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

    /// Readies `uri`'s registry entry for a loader message. The first since
    /// its last completed rebuild records what the index holds for it: the
    /// items `plan` (the one in force; [`Warehouse::apply_plan`]'s *old* one)
    /// derives from the `stored` bytes, each with its value. A later one
    /// finds a version no loader finished, whose keys would be billed deletes
    /// of nothing — unless one started: the store may hold any, value unknown.
    fn mark_pending(&self, plan: &MixedPlan, uri: &str, stored: Option<&Blob>) {
        let mut registry = self.retractions.borrow_mut();
        let first = !registry.contains_key(uri);
        let held = registry.entry(uri.to_string()).or_default();
        if first || std::mem::take(&mut held.attempted) {
            for (key, value) in self.item_keys_under(plan, uri, stored) {
                held.items.entry(key).or_insert(first.then_some(value));
            }
        }
    }

    /// The documents a loader message is out for, by a host-side look at
    /// the queue: a parked message leaves its registry entry, not this.
    fn queued_loads(&self) -> BTreeSet<String> {
        let bodies = self.engine.world.sqs.bodies(LOADER_QUEUE);
        let bodies = bodies.expect("module queues exist");
        bodies.map(String::from).collect()
    }

    /// The index items a routing plan derives for this document content
    /// (host-side replay of the loader's deterministic encoding — no
    /// requests, no virtual time): none when nothing is stored or the plan
    /// indexes nothing for the document.
    fn item_keys_under(
        &self,
        plan: &MixedPlan,
        uri: &str,
        stored: Option<&Blob>,
    ) -> Vec<(ItemKey, ValueId)> {
        let Some((bytes, placement)) = stored.zip(plan.placement(uri)) else {
            return Vec::new();
        };
        let (strategy, opts) = (placement.strategy, self.cfg.extract);
        let (_doc, entries) = self.cache.extracted(uri, bytes, strategy, opts);
        let profile = self.engine.world.kv.profile();
        placed_item_keys(&entries, Some(placement), &profile, uri)
    }

    /// Front end, churn maintenance: removes documents from the file
    /// store and retracts their index entries. The S3 DELETEs are free
    /// requests (real S3 bills nothing for them); the index retraction
    /// consumes write capacity like any other delete. Unknown URIs are
    /// skipped. Retraction covers the current version's keys *plus* any
    /// keys of replaced versions still awaiting retraction, so deleting a
    /// document is safe at any point of the upload → build cycle — a
    /// loader message that later finds the object gone simply commits
    /// (the front end already cleaned the index).
    pub fn delete_documents<I, S>(&mut self, uris: I) -> DeleteReport
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        self.corpus_changed();
        let before = self.engine.world.snapshot();
        let mut t = self.engine.now();
        let mut bytes = 0u64;
        let mut removed = 0u64;
        let mut gone: BTreeSet<String> = BTreeSet::new();
        for uri in uris {
            let uri: String = uri.into();
            self.tag_frontend(Phase::Upload, None, Some(&uri));
            // Everything any version of this document may still hold in
            // the index: pending retractions from earlier replaces, plus
            // the stored version's keys.
            let held = self.retractions.borrow_mut().remove(&uri);
            let mut keys = held.map_or_else(BTreeSet::new, |h| h.items.into_keys().collect());
            if let Some(old) = self.engine.world.s3.peek(DOC_BUCKET, &uri) {
                let stored = self.item_keys_under(&self.plan, &uri, Some(&old));
                keys.extend(stored.into_iter().map(|(key, _)| key));
                bytes += old.len() as u64;
                self.corpus_bytes -= old.len() as u64;
                let what = format_args!("front-end delete of {DOC_BUCKET}/{uri}");
                t = self.retry.until_ok(t, what, |t| {
                    self.engine.world.s3.delete(t, DOC_BUCKET, &uri)
                });
                gone.insert(uri);
            }
            removed += keys.len() as u64;
            let limit = self.engine.world.kv.profile().batch_put_limit;
            for (table, chunk) in delete_batches(keys, limit) {
                self.engine.world.kv.ensure_table(table);
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

    /// Front end, plan maintenance: switches the warehouse to a new
    /// routing plan *incrementally* — the one way to change the plan, and
    /// free on an empty warehouse ([`MixedPlan::flat`] of the configured
    /// strategy restores the paper's layout). Every stored document whose
    /// [`amada_index::Placement`] — strategy or partition tables — changes
    /// has its current placement's item keys recorded in the retraction
    /// registry and its loading message re-enqueued; the next
    /// [`Warehouse::build_index`] rewrites those documents under the new
    /// plan and then deletes the old entries (write-new-then-delete-stale,
    /// the exact machinery churn replaces use, so a crash mid-migration
    /// retries idempotently on redelivery). Documents whose placement is
    /// unchanged are not touched, re-sent or re-billed — the root
    /// partition of a mixed plan is physically the flat plan's — and
    /// documents that already have a rebuild pending (an unprocessed
    /// loader message — churn, typically) piggyback on it, since the
    /// loader reads the plan at processing time. Returns the number of
    /// documents migrating (piggybacked ones included).
    pub fn apply_plan(&mut self, plan: MixedPlan) -> u64 {
        let (old_plan, new) = (self.plan.clone(), Rc::new(plan));
        let mut migrated = 0u64;
        let mut t = self.engine.now();
        let (uris, queued) = (self.doc_uris.clone(), self.queued_loads());
        for uri in uris {
            if old_plan.placement(&uri) == new.placement(&uri) {
                continue;
            }
            let Some(bytes) = self.engine.world.s3.peek(DOC_BUCKET, &uri) else {
                continue;
            };
            // Record the old placement's items *before* the switch makes
            // them unreachable. A rebuild already queued (churn, typically)
            // runs under the *new* placement — the loader reads the routing
            // plan at processing time — so no second message, no second key
            // sweep: re-planning a churning partition with its churn is
            // nearly free.
            migrated += 1;
            self.mark_pending(&old_plan, &uri, Some(&bytes));
            if queued.contains(&uri) {
                continue;
            }
            self.tag_frontend(Phase::Build, None, Some(&uri));
            t = self.enqueue_load(t, &uri);
        }
        self.engine.world.obs.with_ctx(|c| *c = Default::default());
        self.plan = new;
        self.corpus_changed();
        migrated
    }

    /// The routing plan in force, as shared with the module cores
    /// (custom actors must share it to route like the pool).
    pub fn routing_plan(&self) -> Rc<MixedPlan> {
        self.plan.clone()
    }

    /// Front end, adaptive switching: re-advises from **live
    /// attribution** and migrates to the recommendation incrementally —
    /// the cadence step of the adaptive advisor (call it periodically;
    /// each call is host-side analysis plus only the migration's own
    /// billed writes).
    ///
    /// The observed workload comes from the warehouse's recorded spans
    /// ([`amada_obs::Attribution::query_families`] collapses open-loop
    /// arrival names onto their base query), so `cfg.host.record` must be
    /// on for traffic to register — with recording off the advisor sees a
    /// scan-only future and honestly recommends not indexing. Each call
    /// reads only the spans recorded *since the previous call* (the
    /// observation window), so `horizon.expected_runs` means "windows
    /// like the one just observed" and a drifting workload re-plans from
    /// what changed. The sample is the live corpus itself (host-side
    /// peek, free). The chosen plan is applied via
    /// [`Warehouse::apply_plan`]: only documents whose placement changes
    /// are re-enqueued, so a re-advise that confirms the current plan
    /// migrates nothing and costs nothing. A stored document the advisor
    /// cannot price fails the call with the typed error; the plan in
    /// force and the observation window are left as they were.
    pub fn readvise(
        &mut self,
        catalog: &[Query],
        churn: &std::collections::BTreeMap<String, crate::adaptive::Churn>,
        horizon: &crate::adaptive::Horizon,
    ) -> Result<Readvice, crate::adaptive::AdviseError> {
        let spans = self.spans();
        let base = self.advise_span_base.min(spans.len());
        let attr = amada_obs::Attribution::attribute(&spans[base..]);
        let families = crate::adaptive::observed_families(&attr, catalog);
        let sample = self
            .engine
            .world
            .s3
            .peek_all(DOC_BUCKET)
            .into_iter()
            .map(|(uri, bytes)| match String::from_utf8(bytes.to_vec()) {
                Ok(xml) => Ok((uri, xml)),
                Err(_) => Err(crate::adaptive::AdviseError::NotUtf8(uri)),
            })
            .collect::<Result<Vec<(String, String)>, _>>()?;
        let advice =
            crate::adaptive::advise_adaptive(&sample, &families, churn, horizon, &self.cfg)?;
        self.advise_span_base = spans.len();
        let migrated = self.apply_plan(advice.chosen.plan.clone());
        Ok(Readvice { advice, migrated })
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
        let combos: Vec<(Strategy, amada_index::ExtractOptions)> = self
            .plan
            .indexed_strategies()
            .into_iter()
            .map(|s| (s, self.cfg.extract))
            .collect();
        amada_index::parallel::prewarm(&self.cache, &docs, &combos)
    }

    /// Like [`Warehouse::prewarm`] but parses only — what the query path
    /// needs (it evaluates patterns on parsed trees, never extracts).
    pub fn prewarm_parses(&self) -> PrewarmReport {
        let docs = self.engine.world.s3.peek_all(DOC_BUCKET);
        amada_index::parallel::prewarm(&self.cache, &docs, &[])
    }

    /// Host-cache effectiveness counters (wall-clock diagnostics).
    pub fn cache_stats(&self) -> CacheStats {
        self.cache.stats()
    }

    /// Runs one module phase to completion, for either module: provisions
    /// `pool` over the module's queue — `pool.count` instances up front,
    /// or an [`AutoscaleController`] resizing it when `autoscale` is set —
    /// runs the engine dry, and releases the instances. Returns what the
    /// cores left in their shared sink, the phase's end time, the
    /// instances it used and the autoscaler's decisions.
    ///
    /// Static or elastic, an instance comes from the one launcher: it is
    /// launched at the decision time, its boot is recorded as a span on
    /// its own lane, and its `actors` cores are scheduled at
    /// `launch + boot` through the engine's deferred-spawn queue. `core`
    /// builds one actor per call from the configuration, the module's
    /// queue [`Worker`] it embeds and the sink; cores are numbered in
    /// launch order whether the pool is static or elastic, so a
    /// `min == max` autoscaled pool draws the same backoff jitter as a
    /// static one. Only an elastic pool's members hold a drain signal — a
    /// static instance is billed to the end of its phase — and a member is
    /// its instance's one actor: it stops the instance as it exits.
    fn run_pool<S: Default + std::fmt::Debug + 'static>(
        &mut self,
        module: Module,
        pool: Pool,
        actors: usize,
        autoscale: Option<AutoscalePolicy>,
        core: impl Fn(&WarehouseConfig, Worker, Rc<RefCell<S>>) -> Box<dyn Actor> + 'static,
    ) -> (S, SimTime, usize, Vec<ScaleEvent>) {
        assert!(autoscale.is_none() || actors == 1, "one actor per member");
        let start = self.engine.now();
        let first_instance = self.engine.world.ec2.records().len();
        let sink: Rc<RefCell<S>> = Rc::default();
        let scale_events: ScaleEvents = Rc::default();
        let (cfg, core_sink, mut next_core) = (self.cfg.clone(), sink.clone(), 0u64);
        let mut launcher: Launcher<'static> = Box::new(
            move |world: &mut World, t: SimTime, boot: SimDuration, drain: Option<DrainSignal>| {
                let instance = world.ec2.launch(pool.itype, t);
                if boot > SimDuration::ZERO {
                    world.obs.with_ctx(|c| {
                        c.actor = Some(ActorTag {
                            kind: module.kind,
                            instance: instance.0,
                        });
                    });
                    world
                        .obs
                        .record(|_, ctx| Span::new(ServiceKind::Actor, "boot", t, t + boot, ctx));
                }
                for _ in 0..actors {
                    let worker = Worker::new(&cfg, module, instance, next_core, drain.clone());
                    world.spawn_actor(t + boot, core(&cfg, worker, core_sink.clone()));
                    next_core += 1;
                }
                instance
            },
        );
        match autoscale {
            None => {
                for _ in 0..pool.count {
                    launcher(&mut self.engine.world, start, SimDuration::ZERO, None);
                }
                drop(launcher);
            }
            Some(policy) => {
                let tag = ActorTag {
                    kind: "autoscaler",
                    instance: self.controllers,
                };
                self.controllers += 1;
                let mut ctrl = AutoscaleController::new(
                    module,
                    policy,
                    tag,
                    self.cfg.retry,
                    launcher,
                    scale_events.clone(),
                );
                ctrl.provision(&mut self.engine.world, start);
                self.engine
                    .spawn(Box::new(ctrl), start + policy.sample_interval);
            }
        }
        let end = self.engine.run();
        // Instances are released when the whole phase completes (the
        // paper's `VM$_h × t_idx` bills the pool for the phase); stopped
        // scale-in victims keep their frozen windows.
        let instances = self.engine.world.ec2.records().len();
        for i in first_instance..instances {
            self.engine.world.ec2.extend(InstanceId(i), end);
        }
        self.engine.world.sqs.open(module.queue);
        let gone = "the engine ran dry: cores, controller and launcher are gone";
        (
            Rc::try_unwrap(sink).expect(gone).into_inner(),
            end,
            instances - first_instance,
            Rc::try_unwrap(scale_events).expect(gone).into_inner(),
        )
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
        let pool = self.cfg.loader_pool;
        let (plan, retractions, cache) = (
            self.plan.clone(),
            self.retractions.clone(),
            self.cache.clone(),
        );
        let core = move |cfg: &WarehouseConfig, worker, totals| -> Box<dyn Actor> {
            Box::new(LoaderCore::new(
                cfg,
                worker,
                plan.clone(),
                retractions.clone(),
                totals,
                cache.clone(),
            ))
        };
        let (totals, end, instances, _) =
            self.run_pool(LOADER, pool, pool.itype.cores(), None, core);
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
            instances,
            itype: self.cfg.loader_pool.itype,
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
        self.run_one(query, self.plan.clone())
    }

    /// Runs one query without any index: the processor fetches and
    /// evaluates the entire corpus (the paper's no-index baseline).
    pub fn run_query_no_index(&mut self, query: &Query) -> CostedQuery {
        self.run_one(query, Rc::new(MixedPlan::flat(None)))
    }

    fn run_one(&mut self, query: &Query, plan: Rc<MixedPlan>) -> CostedQuery {
        let before = self.engine.world.snapshot();
        let schedule = self.bursts(std::slice::from_ref(query), 1, 1, SimDuration::ZERO);
        let report = self.run_batch(schedule, false, plan);
        let mut executions = report.executions;
        assert_eq!(executions.len(), 1, "one query in, one execution out");
        CostedQuery {
            exec: executions.remove(0),
            cost: self.engine.world.cost_since(&before),
        }
    }

    /// The schedule of `bursts` copies of the workload released `gap`
    /// apart, each burst sending all `queries × repeats` messages (in
    /// round-robin order: q1…qn, q1…qn, …) at its instant. The paper's
    /// closed batch is the one-burst schedule.
    fn bursts(
        &self,
        queries: &[Query],
        repeats: usize,
        bursts: usize,
        gap: SimDuration,
    ) -> Schedule {
        let start = self.engine.now();
        let mut schedule = Schedule::new();
        for b in 0..bursts {
            let at = start + SimDuration::from_micros(gap.micros() * b as u64);
            for _ in 0..repeats {
                for q in queries {
                    schedule.push_back(arrival(at, q, schedule.len(), None));
                }
            }
        }
        schedule
    }

    /// Runs a workload of queries, each repeated `repeats` times
    /// (sent in round-robin order: q1…qn, q1…qn, …), across the query
    /// pool. Used for the paper's Figure 10 scaling experiment.
    pub fn run_workload(&mut self, queries: &[Query], repeats: usize) -> WorkloadReport {
        let schedule = self.bursts(queries, repeats, 1, SimDuration::ZERO);
        self.run_batch(schedule, false, self.plan.clone())
    }

    /// Like [`Warehouse::run_workload`] but without any index.
    pub fn run_workload_no_index(&mut self, queries: &[Query], repeats: usize) -> WorkloadReport {
        let schedule = self.bursts(queries, repeats, 1, SimDuration::ZERO);
        self.run_batch(schedule, false, Rc::new(MixedPlan::flat(None)))
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
        self.run_batch(schedule, true, self.plan.clone())
    }

    /// Runs `bursts` copies of the workload, released `gap` apart: each
    /// burst sends all `queries × repeats` messages back-to-back at its
    /// scheduled instant, and the queue closes after the last burst. This
    /// is the bursty-traffic scenario of the `repro scale` experiment — a
    /// static pool idle-polls (billed) through the gaps, an autoscaled
    /// one grows into each burst and drains back to its floor.
    pub fn run_workload_bursts(
        &mut self,
        queries: &[Query],
        repeats: usize,
        bursts: usize,
        gap: SimDuration,
    ) -> WorkloadReport {
        let schedule = self.bursts(queries, repeats, bursts, gap);
        self.run_batch(schedule, true, self.plan.clone())
    }

    /// Runs one workload: the front end enqueues `schedule` (steps 7–8) —
    /// `timed` inside the engine, each message at its scheduled instant;
    /// otherwise as the paper's closed batch, all of it before the engine
    /// starts — and the query pool answers it under `plan`.
    fn run_batch(
        &mut self,
        schedule: Schedule,
        timed: bool,
        plan: Rc<MixedPlan>,
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
        // Steps 9–15: the query-processor pool — static, or elastic when
        // `cfg.query_autoscale` is set. One actor per instance, so the
        // drain signal counts one core.
        let (partitions, cache) = (self.partition_catalog(), self.cache.clone());
        let core = move |cfg: &WarehouseConfig, worker, executions| -> Box<dyn Actor> {
            let (plan, partitions, cache) = (plan.clone(), partitions.clone(), cache.clone());
            Box::new(QueryCore::new(
                cfg, worker, plan, partitions, executions, cache,
            ))
        };
        let (pool, autoscale) = (self.cfg.query_pool, self.cfg.query_autoscale);
        let (executions, end, _, scale_events) = self.run_pool(QUERY, pool, 1, autoscale, core);
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
            scale_events,
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

    /// Shared host-side parse cache.
    pub fn cache(&self) -> &DocCache {
        &self.cache
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
        for strategy in Strategy::ALL.into_iter().chain([Strategy::LupPd]) {
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
    fn pushdown_queries_scan_instead_of_fetching() {
        let q = workload_query("q2").unwrap();
        let mut lup = warehouse(Strategy::Lup);
        lup.build_index();
        let lup_run = lup.run_query(&q);
        let mut pd = warehouse(Strategy::LupPd);
        pd.build_index();
        let gets_before = pd.world().s3.stats().get_requests;
        let pd_run = pd.run_query(&q);
        // Same candidates from the same index, same answers…
        assert_eq!(pd_run.exec.results, lup_run.exec.results);
        assert!(!pd_run.exec.results.is_empty());
        assert_eq!(pd_run.exec.docs_from_index, lup_run.exec.docs_from_index);
        // …but the documents themselves never travel: the query issued
        // scans, not GETs (the remaining GET is the front end collecting
        // the result object).
        let s3 = pd.world().s3.stats();
        assert!(s3.scan_requests > 0);
        assert!(s3.bytes_scanned > 0);
        assert!(s3.scan_returned_bytes < s3.bytes_scanned);
        assert_eq!(s3.get_requests - gets_before, 1);
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
        for strategy in Strategy::ALL.into_iter().chain([Strategy::LupPd]) {
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

    /// The partitioned corpus for mixed-plan tests: a third of the
    /// documents in `hot/`, a third in `cold/`, a third in the root.
    fn partitioned_corpus() -> Vec<(String, String)> {
        small_corpus()
            .into_iter()
            .enumerate()
            .map(|(i, (uri, xml))| (format!("{}{uri}", ["hot/", "cold/", ""][i % 3]), xml))
            .collect()
    }

    fn mixed_plan() -> amada_index::MixedPlan {
        amada_index::MixedPlan::uniform(Some(Strategy::Lup))
            .with("hot", Some(Strategy::TwoLupi))
            .with("cold", None)
    }

    /// An empty warehouse configured with `strategy`, switched to `plan`.
    fn planned(strategy: Strategy, plan: amada_index::MixedPlan) -> Warehouse {
        let mut w = Warehouse::new(WarehouseConfig::with_strategy(strategy));
        assert_eq!(w.apply_plan(plan), 0, "an empty warehouse migrates nothing");
        w
    }

    #[test]
    fn mixed_plan_answers_match_the_no_index_baseline() {
        let mut w = planned(Strategy::Lup, mixed_plan());
        w.upload_documents(partitioned_corpus());
        let build = w.build_index();
        assert!(build.items > 0);
        // The hot partition got its own tables; the cold one got none.
        let tables: std::collections::BTreeSet<String> = w
            .world()
            .kv
            .peek_all()
            .into_iter()
            .map(|(t, _)| t)
            .collect();
        assert!(tables.iter().any(|t| t.ends_with("@hot")), "{tables:?}");
        assert!(!tables.iter().any(|t| t.ends_with("@cold")), "{tables:?}");
        for qname in ["q1", "q2", "q4", "q8"] {
            let q = workload_query(qname).unwrap();
            let with = w.run_query(&q);
            let without = w.run_query_no_index(&q);
            let mut a = with.exec.results.clone();
            let mut b = without.exec.results.clone();
            a.sort_by(|x, y| x.columns.cmp(&y.columns));
            b.sort_by(|x, y| x.columns.cmp(&y.columns));
            assert_eq!(a, b, "{qname} under the mixed plan");
        }
    }

    /// A *fully indexed* plan skips the billed per-query corpus LIST and
    /// fans its look-ups out over the front end's partition catalog
    /// instead. Regression: the catalog must cover partitions the plan
    /// does not name (routed via the default) — deriving the fan-out from
    /// the (skipped) listing used to return zero candidates everywhere.
    #[test]
    fn fully_indexed_plan_answers_without_a_corpus_listing() {
        // Named hot/cold partitions plus the unnamed root partition,
        // which only the catalog knows about.
        let plan = amada_index::MixedPlan::uniform(Some(Strategy::Lu))
            .with("hot", Some(Strategy::TwoLupi))
            .with("cold", Some(Strategy::Lui));
        assert!(plan.fully_indexed());
        let mut w = planned(Strategy::Lup, plan);
        w.upload_documents(partitioned_corpus());
        w.build_index();
        for qname in ["q1", "q4", "q6"] {
            let q = workload_query(qname).unwrap();
            let lists_before = w.world().s3.stats().get_requests;
            let with = w.run_query(&q);
            assert!(
                with.exec.docs_from_index > 0 || with.exec.results.is_empty(),
                "{qname}: candidates come from the index, not a scan"
            );
            // The only get-class S3 requests are the candidate fetches
            // plus the front end retrieving the one result object — no
            // corpus LIST rode along.
            assert_eq!(
                w.world().s3.stats().get_requests - lists_before,
                with.exec.docs_fetched as u64 + 1,
                "{qname}: a fully indexed plan pays no corpus LIST"
            );
            let without = w.run_query_no_index(&q);
            let mut a = with.exec.results.clone();
            let mut b = without.exec.results.clone();
            a.sort_by(|x, y| x.columns.cmp(&y.columns));
            b.sort_by(|x, y| x.columns.cmp(&y.columns));
            assert_eq!(a, b, "{qname} under the fully indexed plan");
            assert!(!a.is_empty() || qname != "q1", "q1 has a known answer");
        }
    }

    /// Switching plans migrates incrementally, and the migrated index is
    /// *byte-identical* to a fresh build under the target plan — in both
    /// directions (flat → mixed → flat).
    #[test]
    fn plan_migration_matches_a_fresh_build() {
        let mut migrated = Warehouse::new(WarehouseConfig::with_strategy(Strategy::Lu));
        migrated.upload_documents(partitioned_corpus());
        migrated.build_index();
        let moved = migrated.apply_plan(mixed_plan());
        assert!(moved > 0, "every placement changed");
        let build = migrated.build_index();
        assert!(
            build.retracted_items > 0,
            "migration must retract the old placement"
        );
        let mut fresh = planned(Strategy::Lu, mixed_plan());
        fresh.upload_documents(partitioned_corpus());
        fresh.build_index();
        assert_eq!(
            migrated.world().kv.peek_all(),
            fresh.world().kv.peek_all(),
            "migrated mixed index != fresh mixed build"
        );
        // And back: the configured strategy's flat plan restores the
        // paper's layout.
        migrated.apply_plan(amada_index::MixedPlan::flat(Some(Strategy::Lu)));
        migrated.build_index();
        let mut flat = Warehouse::new(WarehouseConfig::with_strategy(Strategy::Lu));
        flat.upload_documents(partitioned_corpus());
        flat.build_index();
        assert_eq!(
            migrated.world().kv.peek_all(),
            flat.world().kv.peek_all(),
            "unmigrated index != flat build"
        );
    }

    /// A plan change ordered while documents are already queued for
    /// rebuild (churn upload and re-advise in the same maintenance
    /// window) piggybacks on the pending loader messages: the loader
    /// reads the new plan at processing time, so nothing is enqueued or
    /// rebuilt twice. Cheaper than migrating eagerly before the churn —
    /// and still byte-identical to a fresh build of the final state.
    #[test]
    fn plan_change_piggybacks_on_pending_rebuilds() {
        let plan_a =
            amada_index::MixedPlan::uniform(Some(Strategy::Lup)).with("hot", Some(Strategy::Lui));
        let plan_b =
            amada_index::MixedPlan::uniform(Some(Strategy::Lup)).with("hot", Some(Strategy::Lu));
        // The churn round: every hot document replaced with new content
        // (its neighbour's, which parses and differs).
        let originals = partitioned_corpus();
        let replacements: Vec<(String, String)> = originals
            .iter()
            .enumerate()
            .filter(|(_, (uri, _))| uri.starts_with("hot/"))
            .map(|(i, (uri, _))| (uri.clone(), originals[(i + 1) % originals.len()].1.clone()))
            .collect();
        assert!(!replacements.is_empty());

        // Piggybacked: upload the churn, then switch plans while those
        // rebuilds are still queued, then process the queue once.
        let mut piggy = planned(Strategy::Lup, plan_a.clone());
        piggy.upload_documents(originals.clone());
        piggy.build_index();
        piggy.upload_documents(replacements.clone());
        assert_eq!(
            piggy.apply_plan(plan_b.clone()),
            replacements.len() as u64,
            "every hot document's placement changed"
        );
        let report = piggy.build_index();
        assert!(
            report.retracted_items > 0,
            "the old LUI placement must be retracted"
        );

        // Eager: migrate first (its own rebuild), then pay the churn
        // rebuild on top — two queue round-trips per hot document.
        let mut eager = planned(Strategy::Lup, plan_a);
        eager.upload_documents(originals.clone());
        eager.build_index();
        eager.apply_plan(plan_b.clone());
        eager.build_index();
        eager.upload_documents(replacements.clone());
        eager.build_index();

        // Same final state, byte for byte, as building the final corpus
        // from scratch under the target plan…
        let mut final_docs: std::collections::BTreeMap<String, String> =
            originals.into_iter().collect();
        final_docs.extend(replacements);
        let mut fresh = planned(Strategy::Lup, plan_b);
        fresh.upload_documents(final_docs);
        fresh.build_index();
        assert_eq!(piggy.world().kv.peek_all(), fresh.world().kv.peek_all());
        assert_eq!(eager.world().kv.peek_all(), fresh.world().kv.peek_all());
        // …and the piggybacked path is strictly cheaper.
        assert!(
            piggy.total_cost().total() < eager.total_cost().total(),
            "piggyback {} vs eager {}",
            piggy.total_cost().total(),
            eager.total_cost().total()
        );
    }

    /// Re-applying the current plan is free: nothing is placed
    /// differently, so nothing is enqueued or retracted.
    #[test]
    fn reapplying_the_same_plan_migrates_nothing() {
        let mut w = planned(Strategy::Lup, mixed_plan());
        w.upload_documents(partitioned_corpus());
        w.build_index();
        assert_eq!(w.apply_plan(mixed_plan()), 0);
        // A flat warehouse adopting the uniform root plan is also free:
        // the root partition keeps the global tables.
        let mut flat = Warehouse::new(WarehouseConfig::with_strategy(Strategy::Lup));
        flat.upload_documents(small_corpus());
        flat.build_index();
        assert_eq!(
            flat.apply_plan(amada_index::MixedPlan::uniform(Some(Strategy::Lup))),
            0
        );
    }

    /// The adaptive cadence: a recording warehouse serves live traffic,
    /// re-advises from its own attribution, migrates to the chosen plan
    /// incrementally — and a second re-advise under the same traffic
    /// confirms the plan (migrates nothing), so the cadence is cheap at
    /// steady state.
    #[test]
    fn readvising_from_live_attribution_converges() {
        let mut cfg = WarehouseConfig::with_strategy(Strategy::Lup);
        cfg.host.record = true;
        let mut w = Warehouse::new(cfg);
        w.upload_documents(partitioned_corpus());
        w.build_index();
        // Live traffic: the selective query, repeatedly.
        let catalog = vec![workload_query("q1").unwrap(), workload_query("q6").unwrap()];
        for _ in 0..4 {
            w.run_query(&catalog[0]);
        }
        w.run_query(&catalog[1]);
        let churn = std::collections::BTreeMap::new();
        let horizon = crate::adaptive::Horizon {
            expected_runs: 200,
            months: 1.0,
            budget_per_month: None,
            response_slo: None,
        };
        let first = w.readvise(&catalog, &churn, &horizon).unwrap();
        // The observed families reflect the traffic actually served.
        assert!(first.advice.budget_met);
        assert!(!first.advice.ranked.is_empty());
        assert_eq!(
            *w.routing_plan(),
            first.advice.chosen.plan,
            "the chosen plan is in force"
        );
        // Apply the migration, then serve the same traffic profile in
        // the next observation window.
        if first.migrated > 0 {
            w.build_index();
        }
        for _ in 0..4 {
            w.run_query(&catalog[0]);
        }
        w.run_query(&catalog[1]);
        // Steady state: an unchanged traffic window re-advises to the
        // same plan and migrates nothing.
        let second = w.readvise(&catalog, &churn, &horizon).unwrap();
        assert_eq!(second.advice.chosen.label, first.advice.chosen.label);
        assert_eq!(second.migrated, 0, "confirming the plan is free");
        // Answers survived the migration.
        let q = &catalog[0];
        let mut with = w.run_query(q).exec.results;
        let mut without = w.run_query_no_index(q).exec.results;
        with.sort_by(|x, y| x.columns.cmp(&y.columns));
        without.sort_by(|x, y| x.columns.cmp(&y.columns));
        assert_eq!(with, without, "answers unchanged after migration");
    }

    /// A stored object the advisor cannot price — truncated XML, bytes
    /// that are not UTF-8, an element name over the index store's key
    /// limit — fails the re-advise with a typed error naming the object;
    /// the plan in force and the observation window stay as they were,
    /// so the same call succeeds once the object is gone.
    #[test]
    fn readvise_reports_a_poison_object_instead_of_panicking() {
        use crate::adaptive::AdviseError;
        let long_name = "n".repeat(3 * 1024);
        let poisons: [(&str, Vec<u8>); 3] = [
            ("hot/truncated.xml", b"<open><unclosed>".to_vec()),
            ("hot/binary.xml", vec![b'<', b'a', 0xff, 0xfe, b'>']),
            (
                "hot/longname.xml",
                format!("<{long_name}>x</{long_name}>").into_bytes(),
            ),
        ];
        let catalog = vec![workload_query("q1").unwrap()];
        let churn = std::collections::BTreeMap::new();
        let horizon = crate::adaptive::Horizon {
            expected_runs: 200,
            months: 1.0,
            budget_per_month: None,
            response_slo: None,
        };
        for (uri, bytes) in poisons {
            let mut cfg = WarehouseConfig::with_strategy(Strategy::Lup);
            cfg.host.record = true;
            let mut w = Warehouse::new(cfg);
            w.upload_documents(partitioned_corpus());
            w.build_index();
            w.run_query(&catalog[0]);
            let t = w.engine.now();
            w.engine.world.s3.put(t, DOC_BUCKET, uri, bytes).unwrap();
            let err = w.readvise(&catalog, &churn, &horizon).unwrap_err();
            assert!(err.to_string().contains(uri), "{err}");
            match (uri, &err) {
                ("hot/truncated.xml", AdviseError::Parse(..))
                | ("hot/binary.xml", AdviseError::NotUtf8(_))
                | ("hot/longname.xml", AdviseError::Store(..)) => {}
                _ => panic!("{uri}: unexpected {err:?}"),
            }
            let configured = amada_index::MixedPlan::flat(Some(Strategy::Lup));
            assert_eq!(*w.routing_plan(), configured, "{uri}: no plan was applied");
            // The window was not consumed: with the object gone the same
            // call sees the query that ran before the failure.
            w.engine.world.s3.delete(t, DOC_BUCKET, uri).unwrap();
            let advice = w.readvise(&catalog, &churn, &horizon).unwrap().advice;
            assert!(advice.chosen.run_cost > Money::ZERO, "{uri}");
        }
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
