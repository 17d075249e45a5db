//! The warehouse's module programs, as discrete-event actors.
//!
//! * [`LoaderCore`] — one per core of each indexing-module instance
//!   (architecture steps 4–6): lease a document message, fetch the
//!   document from the file store, extract index entries, batch-write them
//!   to the index store, delete the message. The core is a state machine
//!   issuing **one index-store call per engine step**, so that concurrent
//!   cores interleave their writes at their true virtual arrival times and
//!   the store's provisioned-throughput queue sees the real concurrency
//!   (this is what makes the multi-instance indexing of Table 4 /
//!   Figure 10 behave like the paper's).
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
//! budget abandons the task to redelivery, while commit operations retry
//! without bound so each task completes exactly once. A message delivered
//! more than `RetryPolicy::max_receives` times is dead-lettered. Every
//! retry is a billed request.

use crate::autoscale::DrainSignal;
use crate::config::{
    WarehouseConfig, DOC_BUCKET, LOADER_QUEUE, QUERY_QUEUE, RESPONSE_QUEUE, RESULT_BUCKET,
};
use crate::metrics::{QueryExecution, QueryPhases};
use crate::retry::{dead_letter, put_object, until_ok, Backoff, Lease, RetryPolicy};
use amada_cloud::{
    Actor, ActorTag, InstanceId, KvError, KvItem, Phase, S3Error, ServiceKind, SimDuration,
    SimTime, Span, SqsError, StepResult, World,
};
use amada_index::{
    decode_tuples, delete_batches, into_batches, lookup_mixed, partition_tables, routed_entries,
    store::{encode_entry_into, UuidGen},
    ExtractCache, ExtractOptions, ItemKey, MixedPlan, ScanPredicate, Strategy,
};
use amada_pattern::{join_pattern_results, parse_query, Query, Tuple, TwigEvaluator};
use amada_rng::StdRng;
use amada_xml::Document;
use std::cell::RefCell;
use std::collections::{BTreeSet, HashMap, HashSet, VecDeque};
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

/// Stream-derivation tags for the per-core jitter RNGs, so loader and
/// query cores draw from independent streams under one master seed. Core
/// *k* of a pool derives the same stream whether it was provisioned
/// up-front or launched mid-run by the autoscaler.
const LOADER_RNG_TAG: u64 = 0x10AD_0000;
const QUERY_RNG_TAG: u64 = 0x9E4F_0000;

/// Item keys of *replaced or deleted* document versions, pending index
/// retraction, keyed by URI. The front end records a version's keys here
/// *before* overwriting the object (the loader only ever sees the current
/// bytes); the loader deletes `recorded − current` after rewriting a
/// churned document and then clears the entry. Entries survive crashes
/// and abandons untouched, so a redelivered message retries the same
/// retraction — deletes are idempotent, making the whole scheme
/// exactly-once without tombstones. Per-URI sets are unioned across
/// repeated replaces, so no intermediate version can leak entries.
pub type RetractionRegistry = Rc<RefCell<HashMap<String, BTreeSet<ItemKey>>>>;

/// Aggregated loader-side totals (shared across all loader cores).
#[derive(Debug, Default)]
pub struct LoaderTotals {
    /// Documents indexed.
    pub docs: u64,
    /// Entries extracted.
    pub entries: u64,
    /// Items written.
    pub items: u64,
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

/// Exits a module core: an autoscaled member reports to its drain signal
/// (the last core out freezes the instance's billing window — a query
/// instance has exactly one actor); a static one just bills its uptime.
fn exit(
    drain: &Option<DrainSignal>,
    instance: InstanceId,
    world: &mut World,
    t: SimTime,
) -> StepResult {
    match drain {
        Some(d) => d.core_exited(world, t),
        None => world.ec2.extend(instance, t),
    }
    StepResult::Done
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
    /// The instance this core belongs to (for uptime billing).
    pub instance: InstanceId,
    /// The core's compute rating.
    pub ecu: f64,
    /// Extraction options.
    pub opts: ExtractOptions,
    /// Shared totals.
    pub totals: Rc<RefCell<LoaderTotals>>,
    /// Host document cache.
    pub cache: DocCache,
    /// Message lease duration.
    pub visibility: SimDuration,
    /// Idle poll interval.
    pub poll: SimDuration,
    /// Retry/backoff/dead-letter policy.
    pub policy: RetryPolicy,
    /// Fault injection: crash (stop deleting leases) after this many
    /// messages.
    pub crash_after: Option<u32>,
    /// Fault injection: crash *mid-upload*, after writing this many index
    /// batches (across all documents) — the already-written batches stay
    /// in the store, the message lease expires, and the document is
    /// redelivered to another core.
    pub crash_after_batches: Option<u64>,
    /// Index batches (puts *and* stale-key deletes) written so far by
    /// this core.
    pub batches_written: u64,
    /// Pending retractions shared with the warehouse front end (empty for
    /// a static corpus, so churn-free builds take the exact same path).
    pub retractions: RetractionRegistry,
    /// The routing plan: each document's partition picks the strategy
    /// that extracts it and the tables its entries land in; a partition
    /// assigned `None` indexes nothing (its documents are answered by
    /// partition-scoped scans). The paper's single-strategy layout is the
    /// flat plan — one partition, the global tables.
    pub plan: Rc<MixedPlan>,
    /// Messages fully processed so far.
    pub processed: u32,
    /// Autoscaling drain signal shared with the instance's other cores
    /// (`None` for a static pool). A draining core finishes its leased
    /// message, then exits instead of polling again; the last core out
    /// freezes the instance's billing window.
    pub drain: Option<DrainSignal>,
    state: LoaderState,
    /// Whether this core has received a document yet (first receipt
    /// increments `LoaderTotals::active_cores`).
    worked: bool,
    /// Backoff-jitter stream (only drawn from when a retry happens, so
    /// fault-free runs consume no randomness).
    rng: StdRng,
    /// Consecutive throttles of the current operation.
    attempt: u32,
}

impl LoaderCore {
    /// Creates idle core number `idx` of the loader pool `cfg` describes,
    /// running on `instance` — the one place a loader core is built,
    /// whether the pool is static or elastic. `idx` derives the core's
    /// backoff-jitter stream, so concurrent retries decorrelate. The
    /// handles are shared with the warehouse front end and the pool's
    /// other cores.
    pub fn new(
        cfg: &WarehouseConfig,
        instance: InstanceId,
        idx: u64,
        plan: Rc<MixedPlan>,
        retractions: RetractionRegistry,
        totals: Rc<RefCell<LoaderTotals>>,
        cache: DocCache,
    ) -> LoaderCore {
        LoaderCore {
            instance,
            ecu: cfg.loader_pool.itype.ecu_per_core(),
            opts: cfg.extract,
            totals,
            cache,
            visibility: cfg.visibility,
            poll: cfg.poll_interval,
            policy: cfg.retry,
            crash_after: None,
            crash_after_batches: None,
            batches_written: 0,
            retractions,
            plan,
            processed: 0,
            drain: None,
            state: LoaderState::Idle,
            worked: false,
            rng: StdRng::seed_from_u64(cfg.faults.seed ^ (LOADER_RNG_TAG + idx)),
            attempt: 0,
        }
    }

    /// Step 4: poll the task queue; on a message, lease it and move to
    /// [`LoaderState::Fetching`].
    fn step_idle(&mut self, now: SimTime, world: &mut World) -> StepResult {
        // A scale-in victim stops *receiving*; it only reaches Idle once
        // any leased message is fully processed, so draining never
        // abandons a lease.
        if self.drain.as_ref().is_some_and(|d| d.is_draining()) {
            return exit(&self.drain, self.instance, world, now);
        }
        let (msg, t) = match world.sqs.receive(now, LOADER_QUEUE, self.visibility) {
            Ok(out) => out,
            Err(SqsError::Throttled { available_at }) => {
                self.attempt = (self.attempt + 1).min(self.policy.max_attempts);
                return StepResult::NextAt(
                    available_at + self.policy.backoff(self.attempt, &mut self.rng),
                );
            }
            Err(e) => panic!("loader queue exists: {e}"),
        };
        self.attempt = 0;
        let Some(msg) = msg else {
            if world
                .sqs
                .drained(LOADER_QUEUE)
                .expect("loader queue exists")
            {
                return exit(&self.drain, self.instance, world, t);
            }
            world.ec2.extend(self.instance, t);
            return StepResult::NextAt(t + self.poll);
        };
        if self.crash_after.is_some_and(|n| self.processed >= n) {
            // Simulated crash after lease acquisition: the message is
            // neither processed nor deleted; SQS will redeliver it. The
            // instance was up for the receive — bill it.
            world.ec2.extend(self.instance, t);
            world
                .obs
                .record(|_, ctx| Span::new(ServiceKind::Actor, "crash", now, t, ctx));
            return StepResult::Done;
        }
        if msg.receive_count > self.policy.max_receives {
            let t = dead_letter(
                &mut world.sqs,
                &self.policy,
                &mut self.rng,
                t,
                LOADER_QUEUE,
                msg,
            );
            return StepResult::NextAt(t);
        }
        self.processed += 1;
        if !self.worked {
            self.worked = true;
            self.totals.borrow_mut().active_cores += 1;
        }
        self.state = LoaderState::Fetching {
            lease: Lease::new(LOADER_QUEUE, msg.id, self.visibility, now),
            uri: msg.body,
        };
        StepResult::NextAt(t)
    }

    /// Step 5 plus extraction: fetch and parse the document, extract and
    /// encode the entries, batch them for upload.
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
                self.attempt += 1;
                if self.attempt > self.policy.max_attempts {
                    // Abandon: drop the lease; the message expires and is
                    // redelivered to (possibly) another core.
                    self.attempt = 0;
                    self.state = LoaderState::Idle;
                    return StepResult::NextAt(available_at + self.poll);
                }
                let resume = available_at + self.policy.backoff(self.attempt, &mut self.rng);
                lease.keep_alive(&mut world.sqs, resume);
                self.state = LoaderState::Fetching { lease, uri };
                return StepResult::NextAt(resume);
            }
            Err(S3Error::NoSuchKey { .. }) => {
                // The document was deleted after this message was
                // enqueued; the front end retracted its index entries at
                // delete time. Nothing is left to index — commit the
                // message (the GET miss was still a billed request).
                self.attempt = 0;
                self.state = LoaderState::Finishing { lease };
                return StepResult::NextAt(now);
            }
            Err(e) => panic!("loader messages reference stored documents: {e}"),
        };
        self.attempt = 0;
        // The document's partition picks the strategy. A partition
        // assigned `None` indexes nothing — an empty extraction whose only
        // effect is retracting whatever an earlier placement left behind
        // for this URI.
        let partition = self.plan.partition_of(&uri);
        let routed = self.plan.strategy_of(partition);
        // The placement's own tables, in the strategy's order.
        let mut tables = routed.map_or_else(Vec::new, |s| partition_tables(s, partition));
        let profile = world.kv.profile();
        let mut batches = VecDeque::new();
        let mut entry_count = 0u64;
        let mut items = 0u64;
        let mut entry_bytes = 0u64;
        let mut t = t;
        if let Some(strategy) = routed {
            // Parse, extract, encode (memoized on the host after the
            // prewarm stage; virtually charged in full either way).
            let (_doc, cached) = self.cache.extracted(&uri, &bytes, strategy, self.opts);
            // Root-partition entries stay borrowed from the cache (no
            // copy on the paper's path); other partitions' entries are
            // routed into the partition's own tables.
            let entries = routed_entries(&cached, partition);
            entry_count = entries.len() as u64;
            entry_bytes = entries.iter().map(|e| e.raw_bytes() as u64).sum();
            let extraction = world.work.parse(bytes.len() as u64, self.ecu)
                + world.work.extract(entry_bytes, self.ecu);
            let fetched_at = t;
            t = t + extraction;
            world.obs.record(|_, ctx| {
                Span::new(ServiceKind::Actor, "extract", fetched_at, t, ctx)
                    .bytes(bytes.len() as u64)
            });
            self.totals.borrow_mut().extraction_micros += extraction.micros();
            // Every entry is encoded straight into its table's vector and
            // the vectors are cut into batches by moving: from here to the
            // store an item is never copied.
            let mut uuids = UuidGen::for_document(&uri);
            let mut per_table: Vec<(&'static str, Vec<KvItem>)> =
                tables.iter().map(|&table| (table, Vec::new())).collect();
            for e in entries.iter() {
                if let Some((_, table_items)) = per_table.iter_mut().find(|(t, _)| *t == e.table) {
                    encode_entry_into(e, &profile, &mut uuids, table_items);
                }
            }
            for (table, table_items) in per_table {
                items += table_items.len() as u64;
                batches
                    .extend(into_batches(table_items, profile.batch_put_limit).map(|b| (table, b)));
            }
        }
        // If this URI replaced an indexed version, the keys its old
        // versions held but the current one does not must be deleted
        // after the writes land. The registry entry stays in place until
        // the deletes complete, so a crash or abandon retries them on
        // redelivery (idempotently).
        let mut deletes = VecDeque::new();
        let stale: Vec<ItemKey> = match self.retractions.borrow().get(&uri) {
            None => Vec::new(),
            Some(old) => {
                // Borrowed keys of what was just encoded: only the stale
                // keys are copied out of the registry.
                let fresh: HashSet<(&str, &str, &str)> = batches
                    .iter()
                    .flat_map(|(table, batch)| {
                        batch
                            .iter()
                            .map(move |item| (*table, &*item.hash_key, &*item.range_key))
                    })
                    .collect();
                old.iter()
                    .filter(|(table, hash, range)| !fresh.contains(&(*table, hash, range)))
                    .cloned()
                    .collect()
            }
        };
        if stale.is_empty() {
            // An identical or purely-growing rewrite leaves nothing to
            // retract; drop the registry entry now.
            self.retractions.borrow_mut().remove(&uri);
        } else {
            // The placement's own tables come first, in the strategy's
            // order; a plan switch strands stale keys in the *previous*
            // placement's tables, covered after them in name order.
            let mut batches = delete_batches(stale, profile.batch_put_limit);
            batches.sort_by_key(|(table, _)| {
                let own = tables.iter().position(|t| t == table);
                own.unwrap_or(usize::MAX)
            });
            for (table, _) in &batches {
                if !tables.contains(table) {
                    tables.push(table);
                }
            }
            deletes = batches.into();
        }
        // A write may target a partition table no one created yet (unnamed
        // partitions fall back to the default strategy at write time);
        // ensuring is a free, idempotent host-side call.
        for table in tables {
            world.kv.ensure_table(table);
        }
        lease.keep_alive(&mut world.sqs, t);
        self.state = LoaderState::Uploading(Upload {
            lease,
            uri,
            batches,
            deletes,
            entries: entry_count,
            items,
            entry_bytes,
        });
        StepResult::NextAt(t)
    }

    /// Submits the `pending` index-store batches *at once* at `now` (the
    /// paper's uploader is multi-threaded per instance, so batch calls
    /// are in flight concurrently); the store's capacity queue serializes
    /// them, and the burst is done when the last acknowledgement arrives.
    /// Submitting at one arrival time also keeps concurrent cores' calls
    /// interleaved at their true virtual times. `submit` issues one
    /// batch, handing it back with the retry time when throttled: that
    /// pauses the burst, and the remaining batches are resubmitted after
    /// backoff — or, past the retry budget, abandoned to redelivery
    /// (rewrites and deletes are idempotent: deterministic range keys).
    fn burst<B>(
        &mut self,
        now: SimTime,
        world: &mut World,
        lease: &mut Lease,
        pending: &mut VecDeque<(&'static str, B)>,
        mut submit: impl FnMut(&mut World, &'static str, B) -> Result<SimTime, (B, SimTime)>,
    ) -> Burst {
        lease.keep_alive(&mut world.sqs, now);
        let mut last = now;
        while let Some((table, batch)) = pending.pop_front() {
            if self
                .crash_after_batches
                .is_some_and(|n| self.batches_written >= n)
            {
                // Mid-upload crash: the batches already written stay in
                // the store; the lease expires and the document is
                // redelivered. Bill the uptime this step consumed.
                world.ec2.extend(self.instance, last);
                world
                    .obs
                    .record(|_, ctx| Span::new(ServiceKind::Actor, "crash", now, last, ctx));
                return Burst::Dropped(StepResult::Done);
            }
            match submit(world, table, batch) {
                Ok(done) => {
                    self.batches_written += 1;
                    last = last.max(done);
                }
                Err((batch, available_at)) => {
                    pending.push_front((table, batch));
                    self.attempt += 1;
                    let mut totals = self.totals.borrow_mut();
                    if self.attempt > self.policy.max_attempts {
                        self.attempt = 0;
                        totals.upload_micros += (last.max(available_at) - now).micros();
                        return Burst::Dropped(StepResult::NextAt(available_at + self.poll));
                    }
                    let resume = available_at + self.policy.backoff(self.attempt, &mut self.rng);
                    totals.upload_micros += (resume - now).micros();
                    lease.keep_alive(&mut world.sqs, resume);
                    return Burst::Retry(resume);
                }
            }
        }
        self.attempt = 0;
        self.totals.borrow_mut().upload_micros += (last - now).micros();
        Burst::Done(last)
    }

    /// Step 6: write the document's remaining item batches in one burst.
    fn step_uploading(&mut self, now: SimTime, world: &mut World, mut up: Upload) -> StepResult {
        let retryable = world.kv.faults_active();
        let put = |world: &mut World, table, batch: Vec<KvItem>| {
            if !retryable {
                // Fault-free runs move the batch without copying.
                let done = world.kv.batch_put(now, table, batch);
                return Ok(done.expect("index entries fit the store limits"));
            }
            // Keep a retry copy only when the store can actually throttle.
            match world.kv.batch_put(now, table, batch.clone()) {
                Err(KvError::Throttled { available_at }) => Err((batch, available_at)),
                other => Ok(other.expect("index entries fit the store limits")),
            }
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
        tot.entry_bytes += up.entry_bytes;
        drop(tot);
        up.lease.keep_alive(&mut world.sqs, last);
        self.state = if up.deletes.is_empty() {
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
        let delete = |world: &mut World, table, keys: Vec<(String, String)>| match world
            .kv
            .batch_delete(now, table, &keys)
        {
            Err(KvError::Throttled { available_at }) => Err((keys, available_at)),
            other => {
                removed += keys.len() as u64;
                Ok(other.expect("stale-key deletes fit the store limits"))
            }
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
        let t = until_ok(
            &self.policy,
            Backoff::Jittered(&mut self.rng),
            now,
            format_args!("delete from {LOADER_QUEUE}"),
            |t| world.sqs.delete(t, LOADER_QUEUE, lease.msg_id),
        );
        self.state = LoaderState::Idle;
        StepResult::NextAt(t)
    }
}

impl Actor for LoaderCore {
    fn step(&mut self, now: SimTime, world: &mut World) -> StepResult {
        let state = std::mem::replace(&mut self.state, LoaderState::Idle);
        world.obs.with_ctx(|c| {
            c.phase = Phase::Build;
            c.query = None;
            c.doc = match &state {
                LoaderState::Fetching { uri, .. }
                | LoaderState::Uploading(Upload { uri, .. })
                | LoaderState::Retracting(Upload { uri, .. }) => Some(uri.as_str().into()),
                _ => None,
            };
            c.actor = Some(ActorTag {
                kind: "loader",
                instance: self.instance.0,
            });
        });
        let result = match state {
            LoaderState::Idle => self.step_idle(now, world),
            LoaderState::Fetching { lease, uri } => self.step_fetching(now, world, lease, uri),
            LoaderState::Uploading(up) => self.step_uploading(now, world, up),
            LoaderState::Retracting(up) => self.step_retracting(now, world, up),
            LoaderState::Finishing { lease } => self.step_finishing(now, world, lease),
        };
        if let StepResult::NextAt(t) = result {
            world.ec2.extend(self.instance, t);
        }
        result
    }
}

/// A query-processor instance (the whole instance: the transfer/eval phase
/// is divided across its cores, per the paper's intra-machine
/// parallelism).
pub struct QueryCore {
    /// The instance (for uptime billing).
    pub instance: InstanceId,
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
    /// Message lease duration.
    pub visibility: SimDuration,
    /// Idle poll interval.
    pub poll: SimDuration,
    /// Completed executions (shared with the warehouse).
    pub executions: Rc<RefCell<Vec<QueryExecution>>>,
    /// Retry/backoff/dead-letter policy.
    pub policy: RetryPolicy,
    /// Backoff-jitter stream (only drawn from on a retry).
    pub rng: StdRng,
    /// Fault injection: crash after this many messages.
    pub crash_after: Option<u32>,
    /// Messages fully processed so far.
    pub processed: u32,
    /// Consecutive throttles of the current operation.
    pub attempt: u32,
    /// Autoscaling drain signal (`None` for a static pool). A query
    /// processor holds no lease between steps, so a draining one exits at
    /// its next wake-up — the query it was mid-way through (if any) was
    /// completed within the previous step.
    pub drain: Option<DrainSignal>,
}

impl QueryCore {
    /// Creates processor number `idx` of the query pool `cfg` describes,
    /// running on `instance` — the one place a query core is built,
    /// whether the pool is static or elastic. `idx` derives the
    /// backoff-jitter stream.
    pub fn new(
        cfg: &WarehouseConfig,
        instance: InstanceId,
        idx: u64,
        plan: Rc<MixedPlan>,
        partitions: Rc<BTreeSet<String>>,
        executions: Rc<RefCell<Vec<QueryExecution>>>,
        cache: DocCache,
    ) -> QueryCore {
        QueryCore {
            instance,
            cores: cfg.query_pool.itype.cores(),
            ecu: cfg.query_pool.itype.ecu_per_core(),
            strategy: (!plan.indexed_strategies().is_empty()).then_some(cfg.strategy),
            plan,
            partitions,
            opts: cfg.extract,
            cache,
            visibility: cfg.visibility,
            poll: cfg.poll_interval,
            executions,
            policy: cfg.retry,
            rng: StdRng::seed_from_u64(cfg.faults.seed ^ (QUERY_RNG_TAG + idx)),
            crash_after: None,
            processed: 0,
            attempt: 0,
            drain: None,
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
                    self.attempt += 1;
                    if self.attempt > self.policy.max_attempts {
                        self.attempt = 0;
                        return Err(available_at);
                    }
                    *serial +=
                        (available_at - t) + self.policy.backoff(self.attempt, &mut self.rng);
                }
                Err(e) => panic!("candidate documents exist: {e}"),
            }
        };
        self.attempt = 0;
        *serial += resp - t;
        Ok(payload)
    }

    /// Executes one query message. Returns `Ok(completion time)`, or
    /// `Err(resume time)` when a pre-commit retry budget was exhausted and
    /// the task was abandoned (no execution recorded; the lease expires
    /// and the message is redelivered).
    fn process(
        &mut self,
        msg_id: u64,
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
                    self.attempt += 1;
                    if self.attempt > self.policy.max_attempts {
                        self.attempt = 0;
                        return Err(available_at);
                    }
                    let resume = available_at + self.policy.backoff(self.attempt, &mut self.rng);
                    lease.keep_alive(&mut world.sqs, resume);
                    t = resume;
                }
                Err(e) => panic!("index look-up succeeds: {e}"),
            }
        };
        self.attempt = 0;
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
        // `|r(q)|` is the size of the materialized result object — the
        // same bytes stored in the file store and later egressed.
        let mut payload = String::new();
        for r in &results {
            for (i, column) in r.columns.iter().enumerate() {
                if i > 0 {
                    payload.push('\t');
                }
                payload.push_str(column);
            }
            payload.push('\n');
        }
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
        let result_key = format!("{name}-{msg_id}.results");
        let t = put_object(
            &mut world.s3,
            &self.policy,
            Backoff::Jittered(&mut self.rng),
            t,
            RESULT_BUCKET,
            &result_key,
            payload.into_bytes(),
        );
        let t = until_ok(
            &self.policy,
            Backoff::Jittered(&mut self.rng),
            t,
            format_args!("send to {RESPONSE_QUEUE}"),
            |t| world.sqs.send(t, RESPONSE_QUEUE, result_key.clone()),
        );
        let t_done = until_ok(
            &self.policy,
            Backoff::Jittered(&mut self.rng),
            t,
            format_args!("delete from {QUERY_QUEUE}"),
            |t| world.sqs.delete(t, QUERY_QUEUE, msg_id),
        );

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
        world.obs.with_ctx(|c| {
            c.phase = Phase::Query;
            c.query = None;
            c.doc = None;
            c.actor = Some(ActorTag {
                kind: "query",
                instance: self.instance.0,
            });
        });
        if self.drain.as_ref().is_some_and(|d| d.is_draining()) {
            return exit(&self.drain, self.instance, world, now);
        }
        let (msg, t) = match world.sqs.receive(now, QUERY_QUEUE, self.visibility) {
            Ok(out) => out,
            Err(SqsError::Throttled { available_at }) => {
                self.attempt = (self.attempt + 1).min(self.policy.max_attempts);
                let resume = available_at + self.policy.backoff(self.attempt, &mut self.rng);
                world.ec2.extend(self.instance, available_at);
                return StepResult::NextAt(resume);
            }
            Err(e) => panic!("query queue exists: {e}"),
        };
        self.attempt = 0;
        let Some(msg) = msg else {
            if world.sqs.drained(QUERY_QUEUE).expect("query queue exists") {
                return exit(&self.drain, self.instance, world, t);
            }
            world.ec2.extend(self.instance, t);
            return StepResult::NextAt(t + self.poll);
        };
        if self.crash_after.is_some_and(|n| self.processed >= n) {
            // The instance was up for the final receive — bill it.
            world.ec2.extend(self.instance, t);
            world
                .obs
                .record(|_, ctx| Span::new(ServiceKind::Actor, "crash", now, t, ctx));
            return StepResult::Done;
        }
        if msg.receive_count > self.policy.max_receives {
            let t = dead_letter(
                &mut world.sqs,
                &self.policy,
                &mut self.rng,
                t,
                QUERY_QUEUE,
                msg,
            );
            world.ec2.extend(self.instance, t);
            return StepResult::NextAt(t);
        }
        self.processed += 1;
        let mut lease = Lease::new(QUERY_QUEUE, msg.id, self.visibility, now);
        match self.process(msg.id, &msg.body, t, world, &mut lease) {
            Ok(t_done) => {
                world.ec2.extend(self.instance, t_done);
                StepResult::NextAt(t_done)
            }
            Err(resume) => {
                // Abandoned: the lease expires on its own and the message
                // is redelivered (to this instance or another).
                let resume = resume + self.poll;
                world.ec2.extend(self.instance, resume);
                StepResult::NextAt(resume)
            }
        }
    }
}
