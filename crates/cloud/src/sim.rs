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
//! "early". No query observes such a write, since loading and querying
//! are separate phases; and within a load, an index item's range key names
//! its document (URI hash, table, entry key, chunk), so loaders of
//! different documents never write the same key — a rebuild overwrites
//! only the keys its own document keeps. The relaxation simplifies the
//! engine without changing results.

use crate::clock::SimTime;
use crate::ec2::Ec2;
use crate::fault::FaultConfig;
use crate::kv::KvStats;
use crate::money::Money;
use crate::obs::{Recorder, ServiceKind, Span};
use crate::pricing::PRICES;
use crate::s3::{S3Stats, S3};
use crate::sqs::{Sqs, SqsStats};
use crate::store::{KvBackend, KvStore};
use crate::tuning::KvTuning;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// The simulated cloud: every service, the egress meter and the recorder.
pub struct World {
    /// File store.
    pub s3: S3,
    /// Index store (DynamoDB or SimpleDB).
    pub kv: KvStore,
    /// Queue service.
    pub sqs: Sqs,
    /// Instance registry.
    pub ec2: Ec2,
    /// Bytes transferred out of the cloud (billed `egress$_GB`).
    pub egress_bytes: u64,
    /// Span recorder (off unless [`World::enable_recording`] was called);
    /// the services hold clones sharing the same buffer.
    pub obs: Recorder,
}

impl World {
    /// Creates a world with the given index backend.
    pub fn new(backend: KvBackend) -> World {
        World::open(backend, KvTuning::NONE)
    }

    /// [`World::new`] with `tuning`'s capabilities withheld from the
    /// index store.
    pub fn open(backend: KvBackend, tuning: KvTuning) -> World {
        World {
            s3: S3::new(),
            kv: KvStore::open(backend, tuning),
            sqs: Sqs::new(),
            ec2: Ec2::new(),
            egress_bytes: 0,
            obs: Recorder::off(),
        }
    }

    /// Turns on span recording: every subsequent service call, throttle
    /// and actor phase is recorded.
    pub fn enable_recording(&mut self) {
        let rec = Recorder::enabled();
        self.s3.set_recorder(rec.clone());
        self.kv.set_recorder(rec.clone());
        self.sqs.set_recorder(rec.clone());
        self.obs = rec;
    }

    /// Records `bytes` leaving the cloud at `now` (query results returned
    /// to the user — the paper's `egress$_GB × |r(q)|` term).
    pub fn egress(&mut self, now: SimTime, bytes: u64) {
        self.egress_bytes += bytes;
        self.obs.record(|ctx| {
            Span::new(ServiceKind::Egress, "egress", now, now, ctx)
                .bytes(bytes)
                .billed(PRICES.egress_gb.per_gb(bytes))
        });
    }

    /// Installs the per-service fault injectors derived from `cfg`. With
    /// the default (all-off) config this leaves the world bit-identical to
    /// one that never heard of fault injection: inactive injectors draw no
    /// randomness and fail no requests.
    pub fn install_faults(&mut self, cfg: &FaultConfig) {
        let [s3, kv, sqs] = cfg.injectors();
        self.s3.set_faults(s3);
        self.kv.set_faults(kv);
        self.sqs.set_faults(sqs);
    }

    /// Captures the current billing counters (for per-phase cost deltas).
    pub fn snapshot(&self) -> CostSnapshot {
        CostSnapshot {
            s3: self.s3.stats(),
            kv: self.kv.stats(),
            sqs: self.sqs.stats(),
            egress_bytes: self.egress_bytes,
            ec2_cost: self.ec2.total_cost(),
        }
    }

    /// Charges accumulated since `since` (an empty snapshot charges
    /// everything since world creation).
    pub fn cost_since(&self, since: &CostSnapshot) -> CostReport {
        let s3 = self.s3.stats();
        let kv = self.kv.stats();
        let sqs = self.sqs.stats();
        let p = &PRICES;
        let s3_cost = p.st_put * (s3.put_requests - since.s3.put_requests)
            + p.st_get * (s3.get_requests - since.s3.get_requests);
        let kv_cost = p.idx_put * (kv.put_ops - since.kv.put_ops)
            + p.idx_get * (kv.get_ops - since.kv.get_ops);
        let sqs_cost = p.qs_request * (sqs.requests - since.sqs.requests);
        let egress_cost = p.egress_gb.per_gb(self.egress_bytes - since.egress_bytes);
        let ec2_cost = self.ec2.total_cost() - since.ec2_cost;
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
            file_store: PRICES.st_month_gb.per_gb(self.s3.stats().stored_bytes),
            index_store: PRICES.idx_month_gb.per_gb(self.kv.stats().stored_bytes()),
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

    /// Runs until no actor has a pending wake-up; returns the final
    /// virtual time.
    pub fn run(&mut self) -> SimTime {
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
        assert_eq!(report.s3, PRICES.st_put);
        assert_eq!(report.sqs, PRICES.qs_request);
        assert_eq!(report.egress, PRICES.egress_gb);
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
        assert_eq!(delta.s3, PRICES.st_put * 2);
    }

    /// Every byte-moving op prices exactly from its counters: the
    /// ledger's charges equal the counters priced per request and
    /// `per_gb`, to round-half-up pico precision, under any interleaving
    /// of puts, gets, egress and throttles.
    #[test]
    fn ledger_transfer_charges_equal_per_gb_priced_counters_exactly() {
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
            match rand() % 3 {
                0 => drop(world.s3.put(SimTime(round), "b", &key, vec![0; size])),
                1 => drop(world.s3.get(SimTime(round), "b", &key)),
                _ => world.egress(SimTime(round), rand() % 100_000),
            }
            if round == 100 {
                world.install_faults(&FaultConfig { seed: 7, rate: 0.3 });
            }
        }
        let st = world.s3.stats();
        assert!(st.get_requests > 0 && st.throttled > 0);
        let p = PRICES;
        let report = world.cost_report();
        assert_eq!(
            report.s3.pico(),
            (p.st_put * st.put_requests + p.st_get * st.get_requests).pico()
        );
        assert_eq!(
            report.egress.pico(),
            p.egress_gb.per_gb(world.egress_bytes).pico()
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
