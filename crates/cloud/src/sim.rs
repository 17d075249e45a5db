//! The discrete-event engine and the simulated cloud [`World`].
//!
//! Actors (one per virtual instance core, plus the front end) execute
//! sequential, blocking programs against the world's services. Each
//! [`Actor::step`] call performs the actor's next operation — a service
//! call or a block of virtual compute — and returns the virtual time at
//! which the actor is ready for its next step. The engine wakes actors in
//! global time order, so service queueing and contention are consistent
//! across all actors.
//!
//! One deliberate relaxation: state mutation happens when an operation
//! *starts*, while its completion time is modelled by the service; an
//! actor observing the store between those instants could see the write
//! "early". The warehouse's phases never race on the same keys (loading
//! and querying are separate phases, and index items are written under
//! fresh UUID range keys), so this cannot change results — only simplify
//! the engine.

use crate::clock::SimTime;
use crate::dynamodb::{DynamoConfig, DynamoDb};
use crate::ec2::Ec2;
use crate::fault::FaultConfig;
use crate::kv::{KvStats, KvStore};
use crate::money::Money;
use crate::obs::{Recorder, ServiceKind, Span};
use crate::pricing::PriceTable;
use crate::s3::{S3Stats, S3};
use crate::simpledb::{SimpleDb, SimpleDbConfig};
use crate::sqs::{Sqs, SqsStats};
use crate::tuning::KvTuning;
use crate::workmodel::WorkModel;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Which key-value backend hosts the index store.
#[derive(Debug, Clone)]
pub enum KvBackend {
    /// DynamoDB (this paper's system).
    Dynamo(DynamoConfig),
    /// SimpleDB (the baseline of \[8\], Tables 7–8).
    Simple(SimpleDbConfig),
}

impl Default for KvBackend {
    fn default() -> Self {
        KvBackend::Dynamo(DynamoConfig::default())
    }
}

impl KvBackend {
    /// Opens the index store this backend describes, with `tuning`'s
    /// capabilities withheld — the one way a store is opened.
    pub fn open(self, tuning: KvTuning) -> Box<dyn KvStore> {
        match self {
            KvBackend::Dynamo(cfg) => Box::new(DynamoDb::open(cfg, tuning)),
            KvBackend::Simple(cfg) => Box::new(SimpleDb::open(cfg, tuning)),
        }
    }
}

/// The simulated cloud: every service plus pricing and the work model.
pub struct World {
    /// File store.
    pub s3: S3,
    /// Index store (DynamoDB or SimpleDB).
    pub kv: Box<dyn KvStore>,
    /// Queue service.
    pub sqs: Sqs,
    /// Instance registry.
    pub ec2: Ec2,
    /// Compute work model.
    pub work: WorkModel,
    /// Provider price table.
    pub prices: PriceTable,
    /// Bytes transferred out of the cloud (billed `egress$_GB`).
    pub egress_bytes: u64,
    /// Span recorder (off unless [`World::enable_recording`] was called);
    /// the services hold clones sharing the same buffer.
    pub obs: Recorder,
    /// Actors queued by [`World::spawn_actor`] from inside a step; the
    /// engine adopts them before the next wake-up.
    pending_spawns: Vec<(SimTime, Box<dyn Actor>)>,
}

impl World {
    /// Creates a world with the given index backend and default pricing
    /// (the paper's Table 3).
    pub fn new(backend: KvBackend) -> World {
        World::open(backend, KvTuning::NONE)
    }

    /// [`World::new`] with `tuning`'s capabilities withheld from the
    /// index store.
    pub fn open(backend: KvBackend, tuning: KvTuning) -> World {
        World {
            s3: S3::new(),
            kv: backend.open(tuning),
            sqs: Sqs::new(),
            ec2: Ec2::new(),
            work: WorkModel::default(),
            prices: PriceTable::default(),
            egress_bytes: 0,
            obs: Recorder::off(),
            pending_spawns: Vec::new(),
        }
    }

    /// Queues an actor for the engine to adopt, first woken at `at`.
    ///
    /// Actors only see `&mut World` during a step, not the engine, so this
    /// is how one actor launches another mid-run (an autoscaler booting a
    /// new instance's cores). The engine drains the queue in FIFO order
    /// after every step, so spawn order is deterministic.
    pub fn spawn_actor(&mut self, at: SimTime, actor: Box<dyn Actor>) {
        self.pending_spawns.push((at, actor));
    }

    /// Turns on span recording: every subsequent service call, throttle
    /// and actor phase is recorded against the current price table. Must
    /// be called after `prices` is set — the recorder bills spans under a
    /// snapshot of the table taken here.
    pub fn enable_recording(&mut self) {
        let rec = Recorder::enabled(self.prices.clone());
        self.s3.set_recorder(rec.clone());
        self.kv.set_recorder(rec.clone());
        self.sqs.set_recorder(rec.clone());
        self.obs = rec;
    }

    /// Records `bytes` leaving the cloud at `now` (query results returned
    /// to the user — the paper's `egress$_GB × |r(q)|` term).
    pub fn egress(&mut self, now: SimTime, bytes: u64) {
        self.egress_bytes += bytes;
        self.obs.record(|p, ctx| {
            Span::new(ServiceKind::Egress, "egress", now, now, ctx)
                .bytes(bytes)
                .billed(p.egress_gb.per_gb(bytes))
        });
    }

    /// Installs the per-service fault injectors derived from `cfg`. With
    /// the default (all-off) config this leaves the world bit-identical to
    /// one that never heard of fault injection: inactive injectors draw no
    /// randomness and fail no requests.
    pub fn install_faults(&mut self, cfg: &FaultConfig) {
        self.s3.set_faults(cfg.s3_injector());
        self.kv.set_faults(cfg.kv_injector());
        self.sqs.set_faults(cfg.sqs_injector());
    }

    /// Captures the current billing counters (for per-phase cost deltas).
    pub fn snapshot(&self) -> CostSnapshot {
        CostSnapshot {
            s3: self.s3.stats(),
            kv: self.kv.stats(),
            sqs: self.sqs.stats(),
            egress_bytes: self.egress_bytes,
            ec2_cost: self.ec2.total_cost(&self.prices),
        }
    }

    /// Charges accumulated since `since` (an empty snapshot charges
    /// everything since world creation).
    pub fn cost_since(&self, since: &CostSnapshot) -> CostReport {
        let s3 = self.s3.stats();
        let kv = self.kv.stats();
        let sqs = self.sqs.stats();
        let p = &self.prices;
        let s3_cost = p.st_put * (s3.put_requests - since.s3.put_requests)
            + p.st_get * (s3.get_requests - since.s3.get_requests)
            + p.st_get * (s3.scan_requests - since.s3.scan_requests)
            + p.st_scan_gb
                .per_gb(s3.bytes_scanned - since.s3.bytes_scanned);
        let kv_cost = p.idx_put * (kv.put_ops - since.kv.put_ops)
            + p.idx_get * (kv.get_ops - since.kv.get_ops);
        let sqs_cost = p.qs_request * (sqs.requests - since.sqs.requests);
        let egress_cost = p.egress_gb.per_gb(self.egress_bytes - since.egress_bytes)
            + p.egress_gb
                .per_gb(s3.scan_returned_bytes - since.s3.scan_returned_bytes);
        let ec2_cost = self.ec2.total_cost(p) - since.ec2_cost;
        CostReport {
            s3: s3_cost,
            kv: kv_cost,
            ec2: ec2_cost,
            sqs: sqs_cost,
            egress: egress_cost,
        }
    }

    /// Total charges since world creation.
    pub fn cost_report(&self) -> CostReport {
        self.cost_since(&CostSnapshot::default())
    }

    /// Monthly storage charge for the current contents: the paper's
    /// `st$_m(D, I) = ST$_{m,GB} × s(D) + IDX$_{m,GB} × s(D, I)`.
    pub fn storage_cost_per_month(&self) -> StorageCost {
        StorageCost {
            file_store: self.prices.st_month_gb.per_gb(self.s3.stats().stored_bytes),
            index_store: self
                .prices
                .idx_month_gb
                .per_gb(self.kv.stats().stored_bytes()),
        }
    }
}

/// A point-in-time capture of billing counters.
#[derive(Debug, Clone, Default)]
pub struct CostSnapshot {
    /// File-store counters.
    pub s3: S3Stats,
    /// Index-store counters.
    pub kv: KvStats,
    /// Queue counters.
    pub sqs: SqsStats,
    /// Egress bytes so far.
    pub egress_bytes: u64,
    /// EC2 charges so far.
    pub ec2_cost: Money,
}

/// Charges decomposed by service — the decomposition of the paper's
/// Figure 12 (DynamoDB / S3 / EC2 / SQS / AWSDown).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CostReport {
    /// File-store request charges.
    pub s3: Money,
    /// Index-store operation charges.
    pub kv: Money,
    /// Virtual-instance charges.
    pub ec2: Money,
    /// Queue-service charges.
    pub sqs: Money,
    /// Out-of-cloud transfer charges ("AWSDown").
    pub egress: Money,
}

impl CostReport {
    /// Sum of all components.
    pub fn total(&self) -> Money {
        self.s3 + self.kv + self.ec2 + self.sqs + self.egress
    }
}

impl std::fmt::Display for CostReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} (index store {}, file store {}, instances {}, queues {}, egress {})",
            self.total(),
            self.kv,
            self.s3,
            self.ec2,
            self.sqs,
            self.egress
        )
    }
}

/// Monthly storage charges (paper Section 7.3, `st$_m`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StorageCost {
    /// `ST$_{m,GB} × s(D)`.
    pub file_store: Money,
    /// `IDX$_{m,GB} × s(D, I)`.
    pub index_store: Money,
}

impl StorageCost {
    /// Total monthly storage charge.
    pub fn total(&self) -> Money {
        self.file_store + self.index_store
    }
}

impl std::fmt::Display for StorageCost {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}/month (files {}, index {})",
            self.total(),
            self.file_store,
            self.index_store
        )
    }
}

/// What an actor does when woken.
pub enum StepResult {
    /// The actor's current operation completes at this time; wake it then.
    NextAt(SimTime),
    /// The actor has finished; remove it.
    Done,
}

/// A sequential program running in the simulation (one instance core, or
/// the front end).
pub trait Actor {
    /// Performs the actor's next operation against the world at virtual
    /// time `now`.
    fn step(&mut self, now: SimTime, world: &mut World) -> StepResult;
}

/// The discrete-event engine.
pub struct Engine {
    /// The simulated cloud.
    pub world: World,
    heap: BinaryHeap<Reverse<(u64, u64, usize)>>,
    actors: Vec<Option<Box<dyn Actor>>>,
    seq: u64,
    now: SimTime,
}

impl Engine {
    /// Creates an engine over a world.
    pub fn new(world: World) -> Engine {
        Engine {
            world,
            heap: BinaryHeap::new(),
            actors: Vec::new(),
            seq: 0,
            now: SimTime::ZERO,
        }
    }

    /// Adds an actor, first woken at `at`.
    pub fn spawn(&mut self, actor: Box<dyn Actor>, at: SimTime) {
        let idx = self.actors.len();
        self.actors.push(Some(actor));
        self.heap.push(Reverse((at.micros(), self.seq, idx)));
        self.seq += 1;
    }

    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Adopts actors queued on the world by [`World::spawn_actor`]
    /// (in FIFO order, for determinism).
    fn adopt_pending(&mut self) {
        if self.world.pending_spawns.is_empty() {
            return;
        }
        for (at, actor) in std::mem::take(&mut self.world.pending_spawns) {
            debug_assert!(at >= self.now, "spawns cannot travel back in time");
            self.spawn(actor, at);
        }
    }

    /// Runs until no actor has a pending wake-up; returns the final
    /// virtual time.
    pub fn run(&mut self) -> SimTime {
        self.adopt_pending();
        while let Some(Reverse((t, _, idx))) = self.heap.pop() {
            self.now = SimTime(t);
            let Some(actor) = self.actors[idx].as_mut() else {
                continue;
            };
            match actor.step(self.now, &mut self.world) {
                StepResult::NextAt(next) => {
                    debug_assert!(next >= self.now, "actors cannot travel back in time");
                    self.heap.push(Reverse((next.micros(), self.seq, idx)));
                    self.seq += 1;
                }
                StepResult::Done => {
                    self.actors[idx] = None;
                }
            }
            self.adopt_pending();
        }
        // Every actor has finished: their slots go, so an engine that runs
        // one pool per query does not carry a slot per query ever run.
        self.actors.clear();
        self.now
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clock::SimDuration;

    /// An actor that performs `n` compute steps of 1 s each.
    struct Ticker {
        remaining: u32,
        log: std::rc::Rc<std::cell::RefCell<Vec<(u64, &'static str)>>>,
        name: &'static str,
    }

    impl Actor for Ticker {
        fn step(&mut self, now: SimTime, _world: &mut World) -> StepResult {
            self.log.borrow_mut().push((now.micros(), self.name));
            if self.remaining == 0 {
                return StepResult::Done;
            }
            self.remaining -= 1;
            StepResult::NextAt(now + SimDuration::from_secs(1))
        }
    }

    #[test]
    fn actors_interleave_in_time_order() {
        let log = std::rc::Rc::new(std::cell::RefCell::new(Vec::new()));
        let mut eng = Engine::new(World::new(KvBackend::default()));
        eng.spawn(
            Box::new(Ticker {
                remaining: 2,
                log: log.clone(),
                name: "a",
            }),
            SimTime::ZERO,
        );
        eng.spawn(
            Box::new(Ticker {
                remaining: 1,
                log: log.clone(),
                name: "b",
            }),
            SimTime(500_000),
        );
        let end = eng.run();
        assert_eq!(end.micros(), 2_000_000);
        let events = log.borrow().clone();
        assert_eq!(
            events,
            vec![
                (0, "a"),
                (500_000, "b"),
                (1_000_000, "a"),
                (1_500_000, "b"),
                (2_000_000, "a"),
            ]
        );
    }

    /// An actor that spawns a [`Ticker`] mid-run through the world.
    struct Spawner {
        at: SimTime,
        log: std::rc::Rc<std::cell::RefCell<Vec<(u64, &'static str)>>>,
    }

    impl Actor for Spawner {
        fn step(&mut self, _now: SimTime, world: &mut World) -> StepResult {
            world.spawn_actor(
                self.at,
                Box::new(Ticker {
                    remaining: 1,
                    log: self.log.clone(),
                    name: "spawned",
                }),
            );
            StepResult::Done
        }
    }

    #[test]
    fn actors_can_spawn_actors_mid_run() {
        let log = std::rc::Rc::new(std::cell::RefCell::new(Vec::new()));
        let mut eng = Engine::new(World::new(KvBackend::default()));
        eng.spawn(
            Box::new(Spawner {
                at: SimTime(2_500_000),
                log: log.clone(),
            }),
            SimTime(1_000_000),
        );
        eng.spawn(
            Box::new(Ticker {
                remaining: 3,
                log: log.clone(),
                name: "a",
            }),
            SimTime::ZERO,
        );
        let end = eng.run();
        assert_eq!(end.micros(), 3_500_000);
        let events = log.borrow().clone();
        assert_eq!(
            events,
            vec![
                (0, "a"),
                (1_000_000, "a"),
                (2_000_000, "a"),
                (2_500_000, "spawned"),
                (3_000_000, "a"),
                (3_500_000, "spawned"),
            ]
        );
    }

    #[test]
    fn cost_report_reflects_service_usage() {
        let mut world = World::new(KvBackend::default());
        world.s3.create_bucket("b");
        world
            .s3
            .put(SimTime::ZERO, "b", "k", vec![0; 1000])
            .unwrap();
        world.sqs.create_queue("q");
        world.sqs.send(SimTime::ZERO, "q", "m").unwrap();
        world.egress(SimTime::ZERO, 1_000_000_000);
        let report = world.cost_report();
        assert_eq!(report.s3, world.prices.st_put);
        assert_eq!(report.sqs, world.prices.qs_request);
        assert_eq!(report.egress, world.prices.egress_gb);
        assert_eq!(report.kv, Money::ZERO);
        assert_eq!(report.total(), report.s3 + report.sqs + report.egress);
    }

    #[test]
    fn snapshots_isolate_phases() {
        let mut world = World::new(KvBackend::default());
        world.s3.create_bucket("b");
        world.s3.put(SimTime::ZERO, "b", "k", vec![0; 10]).unwrap();
        let snap = world.snapshot();
        world.s3.put(SimTime::ZERO, "b", "k2", vec![0; 10]).unwrap();
        world.s3.put(SimTime::ZERO, "b", "k3", vec![0; 10]).unwrap();
        let delta = world.cost_since(&snap);
        assert_eq!(delta.s3, world.prices.st_put * 2);
    }

    /// Satellite property: every byte-moving S3 op prices exactly from
    /// its counters — the ledger's byte-based charges equal the
    /// `per_gb`-priced counters to round-half-up pico precision, under
    /// any interleaving of puts, gets, scans, egress and throttles.
    #[test]
    fn ledger_transfer_charges_equal_per_gb_priced_counters_exactly() {
        struct TakeHalf;
        impl crate::s3::ObjectPredicate for TakeHalf {
            fn filter(&self, bytes: &[u8]) -> Vec<u8> {
                bytes[..bytes.len() / 2].to_vec()
            }
        }
        let mut world = World::new(KvBackend::default());
        world.s3.create_bucket("b");
        // A seeded xorshift drives the op mix; the property must hold for
        // any interleaving.
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        let mut rand = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for round in 0u64..200 {
            let key = format!("k{}", rand() % 17);
            let size = (rand() % 50_000) as usize + 1;
            match rand() % 4 {
                0 => drop(world.s3.put(SimTime(round), "b", &key, vec![0; size])),
                1 => drop(world.s3.get(SimTime(round), "b", &key)),
                2 => drop(world.s3.scan(SimTime(round), "b", &key, &TakeHalf)),
                _ => world.egress(SimTime(round), rand() % 100_000),
            }
            if round == 100 {
                world.install_faults(&FaultConfig {
                    seed: 7,
                    s3_rate: 0.3,
                    ..FaultConfig::default()
                });
            }
        }
        let st = world.s3.stats();
        assert!(st.scan_requests > 0 && st.get_requests > 0 && st.throttled > 0);
        let p = world.prices.clone();
        let report = world.cost_report();
        assert_eq!(
            report.s3.pico(),
            (p.st_put * st.put_requests
                + p.st_get * (st.get_requests + st.scan_requests)
                + p.st_scan_gb.per_gb(st.bytes_scanned))
            .pico()
        );
        assert_eq!(
            report.egress.pico(),
            (p.egress_gb.per_gb(world.egress_bytes) + p.egress_gb.per_gb(st.scan_returned_bytes))
                .pico()
        );
        // In a scan-only world every byte that left the store was scan
        // output, so the egress side of the bill prices `bytes_out`
        // itself, exactly.
        let mut scans = World::new(KvBackend::default());
        scans.s3.create_bucket("b");
        for i in 0u64..40 {
            let key = format!("k{i}");
            scans
                .s3
                .put(
                    SimTime(i),
                    "b",
                    &key,
                    vec![0; 1 + (i as usize * 7919) % 9999],
                )
                .unwrap();
        }
        let before = scans.snapshot();
        for i in 0u64..40 {
            scans
                .s3
                .scan(SimTime(100 + i), "b", &format!("k{i}"), &TakeHalf)
                .unwrap();
        }
        let st = scans.s3.stats();
        let delta_out = st.bytes_out - before.s3.bytes_out;
        assert_eq!(delta_out, st.scan_returned_bytes);
        assert_eq!(
            scans.cost_since(&before).egress.pico(),
            p.egress_gb.per_gb(delta_out).pico()
        );
    }

    #[test]
    fn reports_display_readably() {
        let world = World::new(KvBackend::default());
        let r = world.cost_report();
        assert!(r.to_string().contains("index store"));
        assert!(world
            .storage_cost_per_month()
            .to_string()
            .contains("/month"));
    }

    #[test]
    fn storage_cost_uses_stored_bytes() {
        let mut world = World::new(KvBackend::default());
        world.s3.create_bucket("b");
        world
            .s3
            .put(SimTime::ZERO, "b", "k", vec![0; 2_000_000_000])
            .unwrap();
        let st = world.storage_cost_per_month();
        // 2 GB × $0.125 = exactly $0.25, compared in picodollars.
        assert_eq!(st.file_store.pico(), 250_000_000_000);
        assert_eq!(st.index_store, Money::ZERO);
        assert_eq!(st.total(), st.file_store);
    }
}
