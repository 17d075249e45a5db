//! The warehouse's module programs, as discrete-event actors.
//!
//! * [`Worker`] — what both programs are before they do anything with a
//!   message, written once: the core's place in its pool, its module's
//!   queue, span lane and phase ([`Module`]), its throttle handling
//!   ([`Retry`]) and `Worker::receive`, the single receive step — stop
//!   if drained, receive, back off if throttled, exit or poll if empty,
//!   crash if told to, dead-letter a poison message, else lease it. Each
//!   core embeds one and adds what it does *with* a message.
//! * [`LoaderCore`] — one per core of each indexing-module instance
//!   (architecture steps 4–6): lease a document message, fetch the
//!   document from the file store, extract index entries, issue the calls
//!   of their write plan ([`amada_index::plan_document`] — which items, in
//!   which tables and batches, which stale keys after them: the format's
//!   own crate says that, not this one), delete the message. The core is
//!   a state machine issuing **one index-store call per engine step**, so
//!   that concurrent cores interleave their writes at their true virtual
//!   arrival times and the store's provisioned-throughput queue sees the
//!   real concurrency (this is what makes the multi-instance indexing of
//!   Table 4 / Figure 10 behave like the paper's).
//! * [`QueryCore`] — one per query-processor instance (steps 9–15): lease
//!   a query message, look the query up in the index, fetch the candidate
//!   documents, evaluate, store results, respond. The paper treats one
//!   query as an atomic unit of processing on one instance, with
//!   intra-machine parallelism from multi-threading; the model reflects
//!   that by dividing the transfer + evaluation phase across the
//!   instance's cores. A query issues only a handful of index gets, so it
//!   executes in a single step; the residual arrival-order skew across
//!   concurrent query instances is bounded by those few calls.
//!
//! Fault tolerance follows the paper's Section 3 contract. A working core
//! renews the visibility lease on the message that started its task
//! ([`Lease`], at the lease half-life); a core configured to "crash"
//! (`crash_after`, or mid-upload via `crash_after_batches`) simply stops
//! stepping, its renewals stop, and after the visibility timeout the
//! message reappears for another core. Transient service throttles
//! (`amada_cloud::fault`) are retried with capped exponential backoff and
//! deterministic jitter; a *pre-commit* operation that exhausts its retry
//! budget ([`Retry::again`] returns `None`) abandons the task to
//! redelivery, while commit operations retry without bound
//! ([`Retry::until_ok`]) so each task completes exactly once. A message
//! delivered more than `RetryPolicy::max_receives` times is dead-lettered.
//! Every retry is a billed request. An instance is billed up to each of
//! its cores' next wake-up: it is up — working, backing off or polling —
//! until then.

use crate::autoscale::DrainSignal;
use crate::config::{
    Module, WarehouseConfig, DOC_BUCKET, LOADER_QUEUE, POLL_INTERVAL, QUERY_QUEUE, RESPONSE_QUEUE,
    RESULT_BUCKET,
};
use crate::metrics::{result_payload, QueryExecution, QueryPhases};
use crate::retry::{dead_letter, put_object, Lease, Retry};
use amada_cloud::{
    Actor, ActorTag, InstanceId, KvError, KvItem, RetryAfter, S3Error, ServiceKind, SimDuration,
    SimTime, Span, SqsError, StepResult, World,
};
use amada_index::{
    decode_tuples, lookup_mixed, plan_document, ExtractCache, ExtractOptions, Held, IndexEntry,
    MixedPlan, ScanPredicate, Strategy,
};
use amada_pattern::{join_pattern_results, parse_query, Query, Tuple, TwigEvaluator};
use amada_rng::StdRng;
use amada_xml::Document;
use std::cell::RefCell;
use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::rc::Rc;
use std::sync::Arc;

/// Host-side cache of parsed documents and memoized extraction results,
/// keyed by URI and content hash (the stored object's ETag), so that
/// re-uploading a changed document under the same URI is re-parsed
/// (virtual time still charges every parse and extraction — cloud
/// instances are stateless across tasks; the cache only spares the
/// simulation host). Sharded and `Send + Sync`: the warehouse prewarms it
/// across all host cores before the single-threaded engine runs.
pub type DocCache = Arc<ExtractCache>;

/// What the index store holds for every URI whose rebuild is pending. The
/// front end makes the entry — an empty one for a new document — with the
/// first loader message it queues since the URI's last completed rebuild,
/// recording the stored version's index items *before* overwriting the
/// object (the loader only ever sees the current bytes): recorded once,
/// from a fully indexed version, and from then on only voided. The loader
/// plans the current version against it, rewrites what changed, deletes
/// what the version lost and drops the entry when the last call has
/// landed. A crash, an abandon or a parked message leaves it in place, so
/// the next message re-plans against it — rewrites and deletes are
/// idempotent, making the whole scheme exactly-once without tombstones.
pub type RetractionRegistry = Rc<RefCell<BTreeMap<String, Held>>>;

/// Aggregated loader-side totals (shared across all loader cores).
#[derive(Debug, Default)]
pub struct LoaderTotals {
    /// Documents indexed.
    pub docs: u64,
    /// Entries extracted.
    pub entries: u64,
    /// Items written.
    pub items: u64,
    /// Items left as the store held them.
    pub unchanged_items: u64,
    /// Raw entry bytes.
    pub entry_bytes: u64,
    /// Cores that actually received at least one document (the divisor
    /// for the report's per-core averages; can be smaller than the
    /// configured pool when the corpus is smaller than the pool).
    pub active_cores: u64,
    /// Summed per-core extraction (parse + extract) time, microseconds.
    pub extraction_micros: u64,
    /// Summed per-core index-upload wait time, microseconds.
    pub upload_micros: u64,
    /// Stale index items deleted by update retraction.
    pub retracted_items: u64,
}

/// The queue worker inside every module core: the paper's Section 3
/// contract — a task starts from a leased queue message — and what can
/// happen before there is a task.
pub struct Worker {
    /// The instance this core belongs to (for uptime billing).
    pub instance: InstanceId,
    module: Module,
    /// Message lease duration.
    visibility: SimDuration,
    /// Throttle handling: the policy, the core's own jitter stream and
    /// the consecutive-throttle count of the operation in hand.
    retry: Retry,
    /// Fault injection: crash (stop deleting leases) after this many
    /// messages.
    pub crash_after: Option<u32>,
    /// Messages leased for processing so far.
    processed: u32,
    /// The autoscaler's drain signal (`None` in a static pool). A draining
    /// member finishes its leased message, then exits instead of
    /// receiving again and freezes its instance's billing window.
    drain: Option<DrainSignal>,
}

impl Worker {
    /// Core number `idx`, in launch order, of `module`'s pool, running on
    /// `instance`. `idx` derives the core's backoff-jitter stream, so
    /// concurrent retries decorrelate — and core *k* draws the same
    /// stream whether it was provisioned up-front or launched mid-run by
    /// the autoscaler.
    pub fn new(
        cfg: &WarehouseConfig,
        module: Module,
        instance: InstanceId,
        idx: u64,
        drain: Option<DrainSignal>,
    ) -> Worker {
        let rng = StdRng::seed_from_u64(cfg.faults.seed ^ (module.rng_tag + idx));
        Worker {
            instance,
            module,
            visibility: cfg.visibility,
            retry: Retry::new(cfg.retry, Some(rng)),
            crash_after: None,
            processed: 0,
            drain,
        }
    }

    /// Tags the spans of the step that begins: the module's phase, the
    /// core's lane and the document in hand.
    fn tag(&self, world: &World, doc: Option<&str>) {
        world.obs.with_ctx(|c| {
            c.phase = self.module.phase;
            c.query = None;
            c.doc = doc.map(Into::into);
            c.actor = Some(ActorTag {
                kind: self.module.kind,
                instance: self.instance.0,
            });
        });
    }

    /// The single receive step (architecture steps 4 and 9): the leased
    /// message — its lease, its body and the receive's response time — or
    /// the step result of a core that has no task to start.
    fn receive(
        &mut self,
        now: SimTime,
        world: &mut World,
    ) -> Result<(Lease, String, SimTime), StepResult> {
        // A scale-in victim stops *receiving*; it only gets here once any
        // leased message is fully processed, so draining never abandons a
        // lease.
        if self.drain.as_ref().is_some_and(|d| d.is_draining()) {
            return Err(self.exit(world, now));
        }
        let queue = self.module.queue;
        let (msg, t) = match world.sqs.receive(now, queue, self.visibility) {
            Ok(out) => out,
            Err(SqsError::Throttled { available_at }) => {
                return Err(StepResult::NextAt(self.retry.again_capped(available_at)));
            }
            Err(e) => panic!("module queues exist: {e}"),
        };
        self.retry.reset();
        let Some(msg) = msg else {
            if world.sqs.drained(queue).expect("module queues exist") {
                return Err(self.exit(world, t));
            }
            return Err(StepResult::NextAt(t + POLL_INTERVAL));
        };
        if self.crash_after.is_some_and(|n| self.processed >= n) {
            // Simulated crash after lease acquisition: the message is
            // neither processed nor deleted; SQS will redeliver it. The
            // instance was up for the receive — bill it.
            world.ec2.extend(self.instance, t);
            world
                .obs
                .record(|_, ctx| Span::new(ServiceKind::Actor, "crash", now, t, ctx));
            return Err(StepResult::Done);
        }
        if msg.receive_count > self.retry.policy.max_receives {
            let t = dead_letter(&mut world.sqs, &mut self.retry, t, queue, msg.id, &msg.body);
            return Err(StepResult::NextAt(t));
        }
        self.processed += 1;
        let lease = Lease::new(queue, msg.id, self.visibility, now);
        Ok((lease, msg.body, t))
    }

    /// Exits the core: an elastic pool's member — its instance's one
    /// actor — stops the instance, freezing the billing window; a static
    /// one just bills its uptime.
    fn exit(&self, world: &mut World, t: SimTime) -> StepResult {
        match self.drain {
            Some(_) => world.ec2.stop(self.instance, t),
            None => world.ec2.extend(self.instance, t),
        }
        StepResult::Done
    }

    /// Ends a step: bills the instance up to the core's next wake-up.
    fn billed(&self, world: &mut World, result: StepResult) -> StepResult {
        if let StepResult::NextAt(t) = result {
            world.ec2.extend(self.instance, t);
        }
        result
    }
}

/// A document's index writes in flight: the new version's item batches
/// first, then the replaced version's stale-key deletes.
struct Upload {
    lease: Lease,
    uri: String,
    batches: VecDeque<(&'static str, Vec<KvItem>)>,
    /// Stale-key delete batches to issue once the writes land
    /// (non-empty only when the document replaced an indexed version).
    deletes: VecDeque<(&'static str, Vec<(String, String)>)>,
    entries: u64,
    items: u64,
    unchanged: u64,
    entry_bytes: u64,
}

/// How a burst of index-store calls ended.
enum Burst {
    /// Every batch was acknowledged, the last one at this time.
    Done(SimTime),
    /// A batch was throttled: resubmit the remaining ones at this time.
    Retry(SimTime),
    /// The core crashed mid-burst or abandoned the task; its step result.
    Dropped(StepResult),
}

/// What a loader core is doing between steps.
enum LoaderState {
    /// About to poll the task queue.
    Idle,
    /// Fetching the leased document from the file store (separated from
    /// `Idle` so a throttled fetch can retry without re-receiving).
    Fetching { lease: Lease, uri: String },
    /// Writing the current document's item batches.
    Uploading(Upload),
    /// New items written; deleting the replaced version's stale items
    /// (write-new-then-delete-stale keeps every key readable throughout).
    Retracting(Upload),
    /// All batches written; deleting the task message.
    Finishing { lease: Lease },
}

/// One core of an indexing-module instance.
pub struct LoaderCore {
    /// The queue worker this core is.
    pub worker: Worker,
    /// The core's compute rating.
    pub ecu: f64,
    /// Extraction options.
    pub opts: ExtractOptions,
    /// Shared totals.
    pub totals: Rc<RefCell<LoaderTotals>>,
    /// Host document cache.
    pub cache: DocCache,
    /// Fault injection: crash *mid-upload*, after writing this many index
    /// batches (across all documents) — the already-written batches stay
    /// in the store, the message lease expires, and the document is
    /// redelivered to another core.
    pub crash_after_batches: Option<u64>,
    /// Index batches (puts *and* stale-key deletes) written so far by
    /// this core.
    pub batches_written: u64,
    /// What the store holds for every pending URI, shared with the front
    /// end (nothing for a new document: a cold build plans against that).
    pub retractions: RetractionRegistry,
    /// The routing plan in force, read per document at processing time
    /// ([`MixedPlan::placement`]).
    pub plan: Rc<MixedPlan>,
    state: LoaderState,
    /// Whether this core has received a document yet (first receipt
    /// increments `LoaderTotals::active_cores`).
    worked: bool,
}

impl LoaderCore {
    /// Creates an idle core of the loader pool `cfg` describes around
    /// `worker`, a [`crate::config::LOADER`] one — the one place a loader core is built.
    /// The handles are shared with the warehouse front end and the pool's
    /// other cores.
    pub fn new(
        cfg: &WarehouseConfig,
        worker: Worker,
        plan: Rc<MixedPlan>,
        retractions: RetractionRegistry,
        totals: Rc<RefCell<LoaderTotals>>,
        cache: DocCache,
    ) -> LoaderCore {
        LoaderCore {
            worker,
            ecu: cfg.loader_pool.itype.ecu_per_core(),
            opts: cfg.extract,
            totals,
            cache,
            crash_after_batches: None,
            batches_written: 0,
            retractions,
            plan,
            state: LoaderState::Idle,
            worked: false,
        }
    }

    /// Step 4: receive from the task queue; on a message, move to
    /// [`LoaderState::Fetching`].
    fn step_idle(&mut self, now: SimTime, world: &mut World) -> StepResult {
        let (lease, uri, t) = match self.worker.receive(now, world) {
            Ok(leased) => leased,
            Err(result) => return result,
        };
        if !self.worked {
            self.worked = true;
            self.totals.borrow_mut().active_cores += 1;
        }
        self.state = LoaderState::Fetching { lease, uri };
        StepResult::NextAt(t)
    }

    /// Step 5 plus extraction: fetch the document, charge its parse and
    /// extraction, plan its index-store calls.
    fn step_fetching(
        &mut self,
        now: SimTime,
        world: &mut World,
        mut lease: Lease,
        uri: String,
    ) -> StepResult {
        lease.keep_alive(&mut world.sqs, now);
        let (bytes, t) = match world.s3.get(now, DOC_BUCKET, &uri) {
            Ok(out) => out,
            Err(S3Error::SlowDown { available_at }) => {
                let Some(resume) = self.worker.retry.again(available_at) else {
                    // Abandon: the core is `Idle` again and the lease goes
                    // with `lease`; the message expires and is redelivered
                    // to (possibly) another core.
                    return StepResult::NextAt(available_at + POLL_INTERVAL);
                };
                lease.keep_alive(&mut world.sqs, resume);
                self.state = LoaderState::Fetching { lease, uri };
                return StepResult::NextAt(resume);
            }
            Err(S3Error::NoSuchKey { .. }) => {
                // The document was deleted after this message was
                // enqueued; the front end retracted its index entries at
                // delete time. Nothing is left to index — commit the
                // message (the GET miss was still a billed request).
                self.worker.retry.reset();
                self.state = LoaderState::Finishing { lease };
                return StepResult::NextAt(now);
            }
            Err(e) => panic!("loader messages reference stored documents: {e}"),
        };
        self.worker.retry.reset();
        // The document's placement picks the strategy that extracts it and
        // the tables its entries land in. A plan that indexes nothing for
        // it leaves an empty extraction whose only effect is retracting
        // whatever an earlier placement left behind for this URI.
        let placement = self.plan.placement(&uri);
        // Parse, extract (memoized on the host after the prewarm stage;
        // virtually charged in full either way); the entries stay borrowed
        // from the cache.
        let cached = placement.map(|p| self.cache.extracted(&uri, &bytes, p.strategy, self.opts).1);
        let entries: &[IndexEntry] = cached.as_ref().map_or(&[], |cached| cached);
        let entry_bytes: u64 = entries.iter().map(|e| e.raw_bytes() as u64).sum();
        let mut t = t;
        if cached.is_some() {
            let extraction = world.work.parse(bytes.len() as u64, self.ecu)
                + world.work.extract(entry_bytes, self.ecu);
            let fetched_at = t;
            t = t + extraction;
            world.obs.record(|_, ctx| {
                Span::new(ServiceKind::Actor, "extract", fetched_at, t, ctx)
                    .bytes(bytes.len() as u64)
            });
            self.totals.borrow_mut().extraction_micros += extraction.micros();
        }
        // The puts of what is new or changed and the deletes of what the
        // replaced version held and this one does not, planned against the
        // registry entry. It stays until the last call has landed, so a
        // crash or abandon re-plans on redelivery (idempotently). A document
        // the store's limits cannot hold (an entry key over the hash-key
        // limit) will not fit then either: its message is parked at once.
        let profile = world.kv.profile();
        let mut pending = self.retractions.borrow_mut();
        let planned = plan_document(entries, placement, &profile, &uri, pending.get_mut(&uri));
        drop(pending);
        let Ok(plan) = planned else {
            let retry = &mut self.worker.retry;
            let t = dead_letter(&mut world.sqs, retry, t, LOADER_QUEUE, lease.msg_id, &uri);
            return StepResult::NextAt(t);
        };
        for table in &plan.tables {
            world.kv.ensure_table(table);
        }
        lease.keep_alive(&mut world.sqs, t);
        self.state = LoaderState::Uploading(Upload {
            lease,
            uri,
            entries: entries.len() as u64,
            items: plan.items(),
            unchanged: plan.unchanged,
            entry_bytes,
            batches: plan.puts,
            deletes: plan.deletes,
        });
        StepResult::NextAt(t)
    }

    /// Submits the `pending` index-store batches *at once* at `now` (the
    /// paper's uploader is multi-threaded per instance, so batch calls
    /// are in flight concurrently); the store's capacity queue serializes
    /// them, and the burst is done when the last acknowledgement arrives.
    /// Submitting at one arrival time also keeps concurrent cores' calls
    /// interleaved at their true virtual times. `submit` issues the
    /// front batch, which stays queued until it is acknowledged: a
    /// throttle pauses the burst, and the remaining batches are
    /// resubmitted after backoff — or, past the retry budget, abandoned to
    /// redelivery (rewrites and deletes are idempotent: deterministic
    /// range keys). So is a call the store rejects, which a write plan
    /// rules out: the message recirculates to the dead-letter queue.
    fn burst<B>(
        &mut self,
        now: SimTime,
        world: &mut World,
        lease: &mut Lease,
        pending: &mut VecDeque<(&'static str, B)>,
        mut submit: impl FnMut(&mut World, &'static str, &mut B) -> Result<SimTime, KvError>,
    ) -> Burst {
        lease.keep_alive(&mut world.sqs, now);
        let mut last = now;
        while let Some((table, batch)) = pending.front_mut() {
            if self
                .crash_after_batches
                .is_some_and(|n| self.batches_written >= n)
            {
                // Mid-upload crash: the batches already written stay in
                // the store; the lease expires and the document is
                // redelivered. Bill the uptime this step consumed.
                world.ec2.extend(self.worker.instance, last);
                world
                    .obs
                    .record(|_, ctx| Span::new(ServiceKind::Actor, "crash", now, last, ctx));
                return Burst::Dropped(StepResult::Done);
            }
            match submit(world, table, batch) {
                Ok(done) => {
                    pending.pop_front();
                    self.batches_written += 1;
                    last = last.max(done);
                }
                Err(e) => {
                    let mut totals = self.totals.borrow_mut();
                    let throttled = e.retry_after();
                    let available_at = throttled.unwrap_or(last);
                    let Some(resume) = throttled.and_then(|at| self.worker.retry.again(at)) else {
                        totals.upload_micros += (last.max(available_at) - now).micros();
                        let again = available_at + POLL_INTERVAL;
                        return Burst::Dropped(StepResult::NextAt(again));
                    };
                    totals.upload_micros += (resume - now).micros();
                    lease.keep_alive(&mut world.sqs, resume);
                    return Burst::Retry(resume);
                }
            }
        }
        self.worker.retry.reset();
        self.totals.borrow_mut().upload_micros += (last - now).micros();
        Burst::Done(last)
    }

    /// Step 6: write the document's remaining item batches in one burst.
    fn step_uploading(&mut self, now: SimTime, world: &mut World, mut up: Upload) -> StepResult {
        let retryable = world.kv.faults_active();
        let put = |world: &mut World, table, batch: &mut Vec<KvItem>| {
            // Keep a retry copy only when the store can actually throttle:
            // fault-free runs move the batch without copying.
            let items = match retryable {
                true => batch.clone(),
                false => std::mem::take(batch),
            };
            world.kv.batch_put(now, table, items)
        };
        let last = match self.burst(now, world, &mut up.lease, &mut up.batches, put) {
            Burst::Done(last) => last,
            Burst::Retry(resume) => {
                self.state = LoaderState::Uploading(up);
                return StepResult::NextAt(resume);
            }
            Burst::Dropped(result) => return result,
        };
        world.obs.record(|_, ctx| {
            Span::new(ServiceKind::Actor, "upload", now, last, ctx).bytes(up.entry_bytes)
        });
        let mut tot = self.totals.borrow_mut();
        tot.docs += 1;
        tot.entries += up.entries;
        tot.items += up.items;
        tot.unchanged_items += up.unchanged;
        tot.entry_bytes += up.entry_bytes;
        drop(tot);
        up.lease.keep_alive(&mut world.sqs, last);
        self.state = if up.deletes.is_empty() {
            self.retractions.borrow_mut().remove(&up.uri);
            LoaderState::Finishing { lease: up.lease }
        } else {
            LoaderState::Retracting(up)
        };
        StepResult::NextAt(last)
    }

    /// Retraction: delete the replaced version's stale items, with the
    /// same burst-submit / throttle-backoff / abandon discipline as the
    /// writes. Runs strictly *after* the new version's items landed, so
    /// every key stays readable throughout; the registry entry is cleared
    /// only once every delete succeeded, so a crash (`crash_after_batches`
    /// also counts delete batches) or abandon retries the retraction on
    /// redelivery: the redelivered message recomputes and reissues the
    /// remaining deletes (reissuing completed ones would be harmless too
    /// — deletes are idempotent).
    fn step_retracting(&mut self, now: SimTime, world: &mut World, mut up: Upload) -> StepResult {
        let mut removed = 0u64;
        let delete = |world: &mut World, table, keys: &mut Vec<(String, String)>| {
            let done = world.kv.batch_delete(now, table, keys);
            removed += done.as_ref().map_or(0, |_| keys.len() as u64);
            done
        };
        let outcome = self.burst(now, world, &mut up.lease, &mut up.deletes, delete);
        self.totals.borrow_mut().retracted_items += removed;
        let last = match outcome {
            Burst::Done(last) => last,
            Burst::Retry(resume) => {
                self.state = LoaderState::Retracting(up);
                return StepResult::NextAt(resume);
            }
            Burst::Dropped(result) => return result,
        };
        self.retractions.borrow_mut().remove(&up.uri);
        world
            .obs
            .record(|_, ctx| Span::new(ServiceKind::Actor, "retract", now, last, ctx));
        up.lease.keep_alive(&mut world.sqs, last);
        self.state = LoaderState::Finishing { lease: up.lease };
        StepResult::NextAt(last)
    }

    /// Commit: delete the task message (unbounded retry — the document is
    /// fully indexed; losing the delete would cause a duplicate rewrite).
    fn step_finishing(&mut self, now: SimTime, world: &mut World, mut lease: Lease) -> StepResult {
        lease.keep_alive(&mut world.sqs, now);
        let what = format_args!("delete from {LOADER_QUEUE}");
        let t = self.worker.retry.until_ok(now, what, |t| {
            world.sqs.delete(t, LOADER_QUEUE, lease.msg_id)
        });
        StepResult::NextAt(t)
    }
}

impl Actor for LoaderCore {
    fn step(&mut self, now: SimTime, world: &mut World) -> StepResult {
        // `Idle` unless the stage in hand says otherwise: a finished,
        // abandoned or crashed task leaves nothing to put back.
        let state = std::mem::replace(&mut self.state, LoaderState::Idle);
        let doc = match &state {
            LoaderState::Fetching { uri, .. }
            | LoaderState::Uploading(Upload { uri, .. })
            | LoaderState::Retracting(Upload { uri, .. }) => Some(uri.as_str()),
            _ => None,
        };
        self.worker.tag(world, doc);
        let result = match state {
            LoaderState::Idle => self.step_idle(now, world),
            LoaderState::Fetching { lease, uri } => self.step_fetching(now, world, lease, uri),
            LoaderState::Uploading(up) => self.step_uploading(now, world, up),
            LoaderState::Retracting(up) => self.step_retracting(now, world, up),
            LoaderState::Finishing { lease } => self.step_finishing(now, world, lease),
        };
        self.worker.billed(world, result)
    }
}

/// A query-processor instance (the whole instance: the transfer/eval phase
/// is divided across its cores, per the paper's intra-machine
/// parallelism).
pub struct QueryCore {
    /// The queue worker this processor is. It holds no lease between
    /// steps, so a draining one exits at its next wake-up — the query it
    /// was mid-way through (if any) was completed within the previous
    /// step.
    pub worker: Worker,
    /// Cores on the instance.
    pub cores: usize,
    /// Compute rating per core.
    pub ecu: f64,
    /// What executions report: the configured strategy when the plan
    /// indexes anything, `None` when every query scans the whole corpus.
    /// `Some(LupPd)` also switches the fetch phase to storage-side scans.
    pub strategy: Option<Strategy>,
    /// The routing plan: look-ups union each indexed partition's
    /// own-strategy answer with partition-scoped scans of the unindexed
    /// ones. The no-index baseline is the flat plan that indexes nothing.
    pub plan: Rc<MixedPlan>,
    /// The front end's partition catalog — every partition holding live
    /// documents, known from its own upload records (free host-side
    /// metadata, like the plan). A fully indexed plan fans its look-ups
    /// out over these instead of paying the billed corpus LIST.
    pub partitions: Rc<BTreeSet<String>>,
    /// Extraction options (must match how the index was built).
    pub opts: ExtractOptions,
    /// Host document cache.
    pub cache: DocCache,
    /// Completed executions (shared with the warehouse).
    pub executions: Rc<RefCell<Vec<QueryExecution>>>,
}

impl QueryCore {
    /// Creates a processor of the query pool `cfg` describes around
    /// `worker`, a [`crate::config::QUERY`] one — the one place a query core is built,
    /// whether the pool is static or elastic.
    pub fn new(
        cfg: &WarehouseConfig,
        worker: Worker,
        plan: Rc<MixedPlan>,
        partitions: Rc<BTreeSet<String>>,
        executions: Rc<RefCell<Vec<QueryExecution>>>,
        cache: DocCache,
    ) -> QueryCore {
        QueryCore {
            worker,
            cores: cfg.query_pool.itype.cores(),
            ecu: cfg.query_pool.itype.ecu_per_core(),
            strategy: (!plan.indexed_strategies().is_empty()).then_some(cfg.strategy),
            plan,
            partitions,
            opts: cfg.extract,
            cache,
            executions,
        }
    }

    /// Reads one candidate document (a GET, or a storage-side scan) issued
    /// at `t`, retrying `SlowDown` throttles with backoff. The waits and
    /// the response time are added to `serial` — retry waits are serial
    /// work like the transfers they delay. `Err(resume time)` when the
    /// retry budget is exhausted (the caller abandons the task).
    fn read_candidate<T>(
        &mut self,
        t: SimTime,
        serial: &mut SimDuration,
        mut read: impl FnMut() -> Result<(T, SimTime), S3Error>,
    ) -> Result<T, SimTime> {
        let (payload, resp) = loop {
            match read() {
                Ok(out) => break out,
                Err(S3Error::SlowDown { available_at }) => {
                    let resume = self.worker.retry.again(available_at);
                    *serial += resume.ok_or(available_at)? - t;
                }
                Err(e) => panic!("candidate documents exist: {e}"),
            }
        };
        self.worker.retry.reset();
        *serial += resp - t;
        Ok(payload)
    }

    /// Executes one query message. Returns `Ok(completion time)`, or
    /// `Err(resume time)` when a pre-commit retry budget was exhausted and
    /// the task was abandoned (no execution recorded; the lease expires
    /// and the message is redelivered).
    fn process(
        &mut self,
        body: &str,
        t0: SimTime,
        world: &mut World,
        lease: &mut Lease,
    ) -> Result<SimTime, SimTime> {
        let (name, text) = body
            .split_once('\n')
            .expect("query messages carry name\\nquery");
        let query: Query = parse_query(text).expect("stored queries are well-formed");
        world.obs.with_ctx(|c| c.query = Some(name.into()));

        // Phase 1+2: index look-up and plan execution (step 10–12).
        let mut phases = QueryPhases::default();
        let mut docs_from_index = 0usize;
        let mut t = t0;
        let get_ops_before = world.kv.stats().get_ops;
        // The corpus listing enumerates the scan partitions' documents.
        // `list` is never throttled but is billed like a GET (LIST-class
        // request), so a fully indexed plan — which can never route a
        // query to the scan path — skips it entirely instead of paying
        // one billed request per arrival for a listing it would throw
        // away; its look-ups fan out over the partition catalog instead.
        let corpus = if self.plan.fully_indexed() {
            Vec::new()
        } else {
            world
                .s3
                .list(t, DOC_BUCKET)
                .expect("document bucket exists")
        };
        // A throttle aborts the look-up mid-flight; the whole look-up is
        // retried (every aborted get stays billed).
        let lookup = loop {
            match lookup_mixed(
                world.kv.as_mut(),
                t,
                &self.plan,
                self.opts,
                &query,
                &corpus,
                &self.partitions,
            ) {
                Ok(lookup) => break lookup,
                Err(KvError::Throttled { available_at }) => {
                    t = self.worker.retry.again(available_at).ok_or(available_at)?;
                    lease.keep_alive(&mut world.sqs, t);
                }
                Err(e) => panic!("index look-up succeeds: {e}"),
            }
        };
        self.worker.retry.reset();
        // A plan that indexes nothing has no look-up phase to report: no
        // store call was made, every pattern is evaluated on every
        // document, and no time passed.
        if self.strategy.is_some() {
            let t_get = lookup.ready_at();
            phases.lookup_get = t_get - t;
            let plan = world.work.plan(lookup.entries_processed(), self.ecu);
            phases.plan = plan;
            let t_lookup = t;
            world
                .obs
                .record(|_, ctx| Span::new(ServiceKind::Actor, "lookup_get", t_lookup, t_get, ctx));
            world
                .obs
                .record(|_, ctx| Span::new(ServiceKind::Actor, "plan", t_get, t_get + plan, ctx));
            t = t_get + plan;
            docs_from_index = lookup.total_doc_ids;
        }
        // `|op(q, D, I)|` counts billed ops, throttled retries included.
        let index_get_ops = world.kv.stats().get_ops - get_ops_before;

        // Phase 3: transfer candidate documents and evaluate (steps 13–14).
        // Work is accumulated serially and divided across the cores;
        // retry waits are serial work like the transfers they delay.
        let mut serial = SimDuration::ZERO;
        let mut per_pattern: Vec<Vec<Tuple>> = Vec::with_capacity(query.patterns.len());
        if self.strategy == Some(Strategy::LupPd) {
            // Pushdown: the post-filter runs *inside* the store. Each
            // candidate is scanned (per pattern — the predicate differs),
            // only the matching tuples travel back, and the instance never
            // parses or evaluates the document — that work is what the
            // per-GB scan charge buys.
            for (p, candidates) in query.patterns.iter().zip(&lookup.per_pattern) {
                // Compiling round-trips the predicate through its wire
                // form once per pattern, exactly what ships to the store.
                let pred = ScanPredicate::compile(p);
                let mut tuples = Vec::new();
                for uri in &candidates.uris {
                    let bytes = self.read_candidate(t, &mut serial, || {
                        world.s3.scan(t, DOC_BUCKET, uri, &pred)
                    })?;
                    tuples.extend(
                        decode_tuples(&bytes, uri).expect("store-encoded scan results decode"),
                    );
                }
                per_pattern.push(tuples);
            }
        } else {
            // `lookup.uris` lists, in order, every document any pattern
            // is evaluated on: each is fetched once, by the first pattern
            // that names it.
            let slot = |uri| {
                lookup
                    .uris
                    .binary_search(uri)
                    .expect("every candidate is listed")
            };
            let mut docs: Vec<Option<Arc<Document>>> = vec![None; lookup.uris.len()];
            for uri in lookup.per_pattern.iter().flat_map(|o| &o.uris) {
                let at = slot(uri);
                if docs[at].is_none() {
                    let bytes =
                        self.read_candidate(t, &mut serial, || world.s3.get(t, DOC_BUCKET, uri))?;
                    serial += world.work.parse(bytes.len() as u64, self.ecu);
                    docs[at] = Some(self.cache.parsed(uri, &bytes));
                }
            }
            for (p, candidates) in query.patterns.iter().zip(&lookup.per_pattern) {
                let mut evaluator = TwigEvaluator::new(p);
                let mut tuples = Vec::new();
                for uri in &candidates.uris {
                    let doc = docs[slot(uri)]
                        .as_ref()
                        .expect("every candidate was fetched");
                    let (t_p, stats) = evaluator.evaluate(doc);
                    serial += world.work.eval(stats.candidates, self.ecu);
                    tuples.extend(t_p);
                }
                per_pattern.push(tuples);
            }
        }
        let tuple_count: u64 = per_pattern.iter().map(|v| v.len() as u64).sum();
        let results = join_pattern_results(&query, &per_pattern);
        serial += world.work.plan(tuple_count, self.ecu);
        let payload = result_payload(&results);
        let result_bytes = payload.len() as u64;
        serial += world.work.materialize(result_bytes, self.ecu);
        let wall = SimDuration::from_micros(serial.micros() / self.cores as u64);
        phases.transfer_eval = wall;
        let t_eval = t;
        world.obs.record(|_, ctx| {
            Span::new(
                ServiceKind::Actor,
                "transfer_eval",
                t_eval,
                t_eval + wall,
                ctx,
            )
            .bytes(result_bytes)
        });
        t = t + wall;
        lease.keep_alive(&mut world.sqs, t);

        // Step 14–15: store results, respond, delete the task message.
        // These are the commit: the work is done, so every operation
        // retries without bound — completing twice (via redelivery) would
        // duplicate the response, whereas extra retries only cost money.
        let msg_id = lease.msg_id;
        let retry = &mut self.worker.retry;
        let result_key = format!("{name}-{msg_id}.results");
        let body = payload.into_bytes();
        let t = put_object(&mut world.s3, retry, t, RESULT_BUCKET, &result_key, body);
        let t = retry.until_ok(t, format_args!("send to {RESPONSE_QUEUE}"), |t| {
            world.sqs.send(t, RESPONSE_QUEUE, result_key.clone())
        });
        let t_done = retry.until_ok(t, format_args!("delete from {QUERY_QUEUE}"), |t| {
            world.sqs.delete(t, QUERY_QUEUE, msg_id)
        });

        let docs_with_results: BTreeSet<&str> = results
            .iter()
            .flat_map(|r| r.uris.iter().map(|u| &**u))
            .collect();
        self.executions.borrow_mut().push(QueryExecution {
            name: name.to_string(),
            strategy: self.strategy,
            response_time: t_done - t0,
            phases,
            docs_from_index,
            docs_fetched: lookup.uris.len(),
            docs_with_results: docs_with_results.len(),
            result_bytes,
            results,
            index_get_ops,
        });
        Ok(t_done)
    }
}

impl Actor for QueryCore {
    fn step(&mut self, now: SimTime, world: &mut World) -> StepResult {
        self.worker.tag(world, None);
        let result = match self.worker.receive(now, world) {
            Ok((mut lease, body, t)) => match self.process(&body, t, world, &mut lease) {
                Ok(t_done) => StepResult::NextAt(t_done),
                // Abandoned: the lease expires on its own and the message
                // is redelivered (to this instance or another).
                Err(available_at) => StepResult::NextAt(available_at + POLL_INTERVAL),
            },
            Err(result) => result,
        };
        self.worker.billed(world, result)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{DEAD_LETTER_QUEUE, LOADER, QUERY};
    use amada_cloud::{InstanceType, KvBackend};

    /// A bare world holding the queues a worker touches, and core 0 of
    /// `module` on a fresh instance: a member of an elastic pool or of a
    /// static one.
    fn worker(cfg: &WarehouseConfig, module: Module, elastic: bool) -> (World, Worker) {
        let mut world = World::new(KvBackend::default());
        for queue in [LOADER.queue, QUERY.queue, DEAD_LETTER_QUEUE] {
            world.sqs.create_queue(queue);
        }
        let instance = world.ec2.launch(InstanceType::Large, SimTime::ZERO);
        let drain = elastic.then(DrainSignal::default);
        (world, Worker::new(cfg, module, instance, 0, drain))
    }

    /// Every shape of pool member the warehouse launches: only the query
    /// pool can be elastic.
    fn members() -> [(Module, bool); 3] {
        [(LOADER, false), (QUERY, false), (QUERY, true)]
    }

    #[test]
    fn an_empty_queue_is_polled_while_open_and_left_once_closed() {
        let cfg = WarehouseConfig::default();
        for (module, elastic) in members() {
            let (mut world, mut w) = worker(&cfg, module, elastic);
            let Err(StepResult::NextAt(again)) = w.receive(SimTime::ZERO, &mut world) else {
                panic!("{}: an open, empty queue is polled again", module.kind);
            };
            assert!(again > SimTime::ZERO + POLL_INTERVAL);
            world.sqs.close(module.queue);
            assert!(matches!(
                w.receive(again, &mut world),
                Err(StepResult::Done)
            ));
            assert_eq!(world.sqs.stats().requests, 2, "both receives were served");
            // Billed through the last receive; only a drained member's
            // window is frozen there, a static one rides to the phase's end.
            assert!(world.ec2.record(w.instance).end > again);
            assert_eq!(world.ec2.is_stopped(w.instance), elastic, "{}", module.kind);
        }
    }

    #[test]
    fn a_draining_member_exits_without_receiving() {
        let cfg = WarehouseConfig::default();
        let (mut world, mut w) = worker(&cfg, QUERY, true);
        world.sqs.send(SimTime::ZERO, QUERY.queue, "m").unwrap();
        w.drain.as_ref().expect("elastic").drain();
        let at = SimTime(5_000_000);
        assert!(matches!(w.receive(at, &mut world), Err(StepResult::Done)));
        assert_eq!(world.sqs.stats().requests, 1, "the send and nothing else");
        assert!(world.ec2.is_stopped(w.instance));
        assert_eq!(world.ec2.record(w.instance).end, at);
    }

    #[test]
    fn a_crash_leaves_the_message_leased() {
        let cfg = WarehouseConfig::default();
        for (module, elastic) in members() {
            let (mut world, mut w) = worker(&cfg, module, elastic);
            let sent = world.sqs.send(SimTime::ZERO, module.queue, "m").unwrap();
            w.crash_after = Some(0);
            assert!(matches!(w.receive(sent, &mut world), Err(StepResult::Done)));
            assert_eq!(w.processed, 0);
            assert!(
                world.ec2.record(w.instance).end > sent,
                "the receive is billed"
            );
            assert!(!world.ec2.is_stopped(w.instance), "a crash is not a drain");
            // Neither deleted nor visible: only lease expiry frees it.
            assert_eq!(world.sqs.len(module.queue).unwrap(), 1);
            let within = sent + SimDuration::from_secs(60);
            let (msg, _) = world
                .sqs
                .receive(within, module.queue, cfg.visibility)
                .unwrap();
            assert!(msg.is_none());
            let after = sent + cfg.visibility + SimDuration::from_secs(60);
            let (msg, _) = world
                .sqs
                .receive(after, module.queue, cfg.visibility)
                .unwrap();
            assert_eq!(msg.expect("redelivered").receive_count, 2);
        }
    }

    #[test]
    fn a_message_past_its_deliveries_is_parked_on_the_dead_letter_queue() {
        let mut cfg = WarehouseConfig::default();
        cfg.retry.max_receives = 1;
        for (module, elastic) in members() {
            let (mut world, mut w) = worker(&cfg, module, elastic);
            let sent = world
                .sqs
                .send(SimTime::ZERO, module.queue, "poison")
                .unwrap();
            // The first delivery is a task; its holder never commits it.
            let (lease, body, t) = w.receive(sent, &mut world).ok().expect("first delivery");
            assert_eq!(
                (lease.queue, body.as_str(), w.processed),
                (module.queue, "poison", 1)
            );
            let expired = t + cfg.visibility;
            let Err(StepResult::NextAt(parked)) = w.receive(expired, &mut world) else {
                panic!("{}: the second delivery is one too many", module.kind);
            };
            assert!(parked > expired);
            assert_eq!(w.processed, 1, "a parked message is not a task");
            assert_eq!(world.sqs.len(module.queue).unwrap(), 0);
            let (msg, _) = world
                .sqs
                .receive(parked, DEAD_LETTER_QUEUE, cfg.visibility)
                .unwrap();
            assert_eq!(msg.expect("parked").body, "poison");
        }
    }
}
