//! Queue-depth autoscaling for the warehouse's query-processor pool.
//!
//! The paper provisions fixed pools per experiment and bills
//! `VM$_h × t_phase`; a deployed warehouse serving bursty traffic must
//! instead grow and shrink the pool that answers it at runtime (the
//! loader pool, which works through a closed queue, stays static).
//! [`AutoscaleController`] is a control-plane actor (it runs on
//! the front end — no EC2 instance of its own) that every
//! `sample_interval`:
//!
//! 1. issues a **billed** SQS depth probe ([`amada_cloud::Sqs::depth`]) —
//!    sampling the backlog costs real requests, and those requests land
//!    in the cost ledger and the span recorder like any other;
//! 2. computes the desired pool size
//!    `ceil(depth / backlog_per_instance)`, clamped to the policy's
//!    `min..=max`;
//! 3. **scales out** by launching instances whose billing window opens at
//!    the decision instant while their cores start polling only
//!    `boot_latency` later (you pay for the boot, as on real EC2); or
//! 4. **scales in** by draining the newest instances: a drained member
//!    finishes the message it holds a lease on, stops receiving, and as
//!    it exits freezes its instance's billing window with
//!    [`amada_cloud::Ec2::stop`] — so a scale-in victim is billed
//!    launch → last useful work, not to the end of the phase.
//!
//! Everything is deterministic: the controller is an ordinary engine
//! actor woken at virtual times, new cores are adopted through the
//! engine's FIFO spawn queue, and scale-in picks victims in LIFO launch
//! order. A static pool is the same launcher called `count` times up
//! front with no controller, so a `min == max` elastic pool executes
//! exactly like the static pool of that size — asserted by
//! `tests/autoscale.rs`.
//!
//! Correctness under drain leans entirely on the queue's at-least-once
//! contract: a drained core never abandons a lease (it completes the
//! in-flight message first), and a core that dies mid-lease anyway — a
//! crash racing the drain — simply stops renewing, so the message
//! reappears and another member processes it exactly once.

use crate::config::{AutoscalePolicy, Module};
use crate::retry::{Retry, RetryPolicy};
use amada_cloud::{
    Actor, ActorTag, InstanceId, Phase, ServiceKind, SimDuration, SimTime, Span, SqsError,
    StepResult, World,
};
use std::cell::{Cell, RefCell};
use std::collections::VecDeque;
use std::rc::Rc;

/// The controller's handle on one elastic pool member: the autoscaler
/// flips it to *draining*; the member polls it between tasks, exits
/// instead of receiving again and stops its instance, so the billing
/// window is frozen at its final useful instant.
#[derive(Debug, Clone, Default)]
pub struct DrainSignal(Rc<Cell<bool>>);

impl DrainSignal {
    /// Asks the member to stop receiving new work. A leased message is
    /// finished first — draining never abandons a lease.
    pub fn drain(&self) {
        self.0.set(true);
    }

    /// True once [`DrainSignal::drain`] was called.
    pub fn is_draining(&self) -> bool {
        self.0.get()
    }
}

/// Which way a scaling action went.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ScaleDirection {
    /// A new instance was launched.
    Out,
    /// An instance was told to drain.
    In,
}

/// One autoscaler decision, for reports and the `repro scale` artifact.
#[derive(Debug, Clone, Copy)]
pub struct ScaleEvent {
    /// When the decision was made (the depth sample's response time).
    pub at: SimTime,
    /// Out (launch) or in (drain).
    pub direction: ScaleDirection,
    /// The instance launched or drained.
    pub instance: InstanceId,
    /// The sampled queue depth that triggered the decision.
    pub depth: usize,
    /// Active (non-draining) pool size after the action.
    pub pool_size: usize,
}

/// Scaling decisions shared between a controller and the warehouse.
pub type ScaleEvents = Rc<RefCell<Vec<ScaleEvent>>>;

/// Launches one pool instance and its core actors: called with the world,
/// the launch time, the boot latency (zero for an up-front pool) and the
/// drain signal its cores watch (none in a static pool), it must bill the
/// instance from the launch time, schedule the cores at `launch + boot`,
/// and return the instance.
pub type Launcher<'a> =
    Box<dyn FnMut(&mut World, SimTime, SimDuration, Option<DrainSignal>) -> InstanceId + 'a>;

/// The deterministic, virtual-time autoscaling controller (one per
/// elastic pool per phase). See the module docs for the control loop.
pub struct AutoscaleController<'a> {
    /// The module whose queue it samples and whose pool it resizes.
    module: Module,
    policy: AutoscalePolicy,
    tag: ActorTag,
    /// Throttle handling of the depth probe.
    retry: Retry,
    launcher: Launcher<'a>,
    /// Active (non-draining) members, in launch order; scale-in drains
    /// from the back (newest first).
    members: Vec<(InstanceId, DrainSignal)>,
    events: ScaleEvents,
}

impl<'a> AutoscaleController<'a> {
    /// A controller of `module`'s pool with no members yet; call
    /// [`AutoscaleController::provision`] before spawning it.
    pub fn new(
        module: Module,
        policy: AutoscalePolicy,
        tag: ActorTag,
        retry: RetryPolicy,
        launcher: Launcher<'a>,
        events: ScaleEvents,
    ) -> AutoscaleController<'a> {
        policy.validate();
        AutoscaleController {
            module,
            policy,
            tag,
            retry: Retry::new(retry, None),
            launcher,
            members: Vec::new(),
            events,
        }
    }

    /// Launches the `min` pool up-front (no boot latency — like a static
    /// pool, the floor is provisioned before the phase starts).
    pub fn provision(&mut self, world: &mut World, now: SimTime) {
        for _ in 0..self.policy.min {
            self.launch(world, now, SimDuration::ZERO);
        }
    }

    /// Launches one member and keeps its drain signal.
    fn launch(&mut self, world: &mut World, t: SimTime, boot: SimDuration) -> InstanceId {
        let signal = DrainSignal::default();
        let instance = (self.launcher)(world, t, boot, Some(signal.clone()));
        self.members.push((instance, signal));
        instance
    }

    /// Active (non-draining) pool size.
    pub fn pool_size(&self) -> usize {
        self.members.len()
    }

    fn record_event(&self, world: &mut World, event: ScaleEvent) {
        // The launcher tags boot spans with the new instance's lane;
        // re-assert the controller's own lane for the decision span.
        world.obs.with_ctx(|c| c.actor = Some(self.tag));
        self.events.borrow_mut().push(event);
        let op = match event.direction {
            ScaleDirection::Out => "scale-out",
            ScaleDirection::In => "scale-in",
        };
        world.obs.record(|_, ctx| {
            Span::new(ServiceKind::Actor, op, event.at, event.at, ctx).units(event.depth as f64)
        });
    }
}

impl Actor for AutoscaleController<'_> {
    fn step(&mut self, now: SimTime, world: &mut World) -> StepResult {
        world.obs.with_ctx(|c| {
            c.phase = self.module.phase;
            c.query = None;
            c.doc = None;
            c.actor = Some(self.tag);
        });
        // The members exit by themselves once the queue is drained (same
        // unbilled host probe the static pools use); the controller's job
        // is over then too.
        let queue = self.module.queue;
        if world.sqs.drained(queue).expect("pool queue exists") {
            return StepResult::Done;
        }
        let (depth, t) = match world.sqs.depth(now, queue) {
            Ok(out) => out,
            Err(SqsError::Throttled { available_at }) => {
                return StepResult::NextAt(self.retry.again_capped(available_at));
            }
            Err(e) => panic!("pool queue exists: {e}"),
        };
        self.retry.reset();
        let desired = self.policy.desired(depth);
        while self.members.len() != desired {
            let (direction, instance) = if self.members.len() < desired {
                let boot = self.policy.boot_latency;
                (ScaleDirection::Out, self.launch(world, t, boot))
            } else {
                let (instance, signal) = self.members.pop().expect("len > desired >= min >= 1");
                signal.drain();
                (ScaleDirection::In, instance)
            };
            self.record_event(
                world,
                ScaleEvent {
                    at: t,
                    direction,
                    instance,
                    depth,
                    pool_size: self.members.len(),
                },
            );
        }
        StepResult::NextAt(t + self.policy.sample_interval)
    }
}

/// The front end's one traffic sender: releases a prepared
/// `(send at, query name, message body)` schedule and closes the queue
/// after the last send so the pool (and its controller) can wind down.
/// As an engine actor it sends each message at its scheduled instant —
/// timed bursts, an open-loop [`ArrivalProcess`] — regardless of
/// completions; [`ArrivalSender::send_all`] is the paper's closed batch,
/// the whole schedule sent before the engine starts.
pub struct ArrivalSender {
    queue: &'static str,
    /// `(send at, query name, message body)`, in send order.
    pending: VecDeque<(SimTime, String, String)>,
    retry: Retry,
    tag: ActorTag,
}

impl ArrivalSender {
    /// A sender for a prepared schedule (must be non-decreasing in time).
    pub fn new(
        queue: &'static str,
        pending: VecDeque<(SimTime, String, String)>,
        retry: RetryPolicy,
        tag: ActorTag,
    ) -> ArrivalSender {
        ArrivalSender {
            queue,
            pending,
            retry: Retry::new(retry, None),
            tag,
        }
    }

    /// When the first message is due (spawn the actor there).
    pub fn first_send(&self) -> Option<SimTime> {
        self.pending.front().map(|(at, _, _)| *at)
    }

    /// Sends the next message at `now` and returns when the send
    /// completed. A spent schedule (zero bursts, an empty workload, or
    /// the wake-up after the last send) closes the queue instead, so
    /// consumers stop polling rather than wait forever, and returns
    /// `None`.
    fn send_next(&mut self, now: SimTime, world: &mut World) -> Option<SimTime> {
        let Some((_, name, body)) = self.pending.pop_front() else {
            world.sqs.close(self.queue);
            return None;
        };
        // Tagged per query so Figure-12-style attribution charges each
        // query its own request.
        world.obs.with_ctx(|c| {
            c.phase = Phase::Query;
            c.query = Some(name.into());
            c.doc = None;
            c.actor = Some(self.tag);
        });
        let (queue, what) = (self.queue, format_args!("front-end send to {}", self.queue));
        let send = |t| world.sqs.send(t, queue, body.clone());
        Some(self.retry.until_ok(now, what, send))
    }

    /// The closed batch: sends the whole schedule back-to-back from
    /// `now`, ignoring the scheduled instants, and closes the queue.
    pub fn send_all(mut self, now: SimTime, world: &mut World) {
        let mut t = now;
        while let Some(done) = self.send_next(t, world) {
            t = done;
        }
    }
}

impl Actor for ArrivalSender {
    fn step(&mut self, now: SimTime, world: &mut World) -> StepResult {
        match self.send_next(now, world) {
            // The next message waits for its instant; after the last one,
            // one more wake-up closes the queue when that send completed.
            Some(t) => StepResult::NextAt(self.pending.front().map_or(t, |(at, _, _)| t.max(*at))),
            None => StepResult::Done,
        }
    }
}

/// A seeded open-loop arrival process: inter-arrival gaps are exponential
/// around a time-varying rate (diurnal sinusoid × periodic burst factor),
/// and each arrival picks its query by a Zipf draw over the workload —
/// the hot-key skew that drives one index shard much harder than the
/// rest. Open-loop means the release times are fixed up-front: arrivals
/// never wait for completions, so queue growth under saturation is real,
/// not throttled by the sender.
///
/// Everything is derived from `seed` through the project RNG — no host
/// randomness, no wall clock — so a process generates the identical
/// schedule on every run and every thread count.
#[derive(Debug, Clone)]
pub struct ArrivalProcess {
    /// RNG seed for gaps and query picks.
    pub seed: u64,
    /// Total arrivals to release.
    pub arrivals: usize,
    /// Mean arrival rate (queries/sec) before modulation.
    pub base_rate_per_sec: f64,
    /// Diurnal swing as a fraction of the base rate (`0.0..=1.0`); the
    /// instantaneous rate is `base · (1 + amplitude · sin(2πt/period))`.
    pub diurnal_amplitude: f64,
    /// Period of the diurnal sinusoid.
    pub diurnal_period: SimDuration,
    /// A burst starts every `burst_every` of virtual time…
    pub burst_every: SimDuration,
    /// …lasts `burst_len`…
    pub burst_len: SimDuration,
    /// …and multiplies the instantaneous rate while it lasts.
    pub burst_factor: f64,
    /// Zipf exponent of the query pick (0 = uniform; ≥ 1 concentrates
    /// almost all arrivals on the first queries).
    pub zipf_exponent: f64,
}

impl ArrivalProcess {
    /// A steady process: no diurnal swing, no bursts, uniform picks.
    pub fn steady(seed: u64, arrivals: usize, rate_per_sec: f64) -> ArrivalProcess {
        ArrivalProcess {
            seed,
            arrivals,
            base_rate_per_sec: rate_per_sec,
            diurnal_amplitude: 0.0,
            diurnal_period: amada_cloud::SimDuration::from_secs(3600),
            burst_every: amada_cloud::SimDuration::from_secs(3600),
            burst_len: amada_cloud::SimDuration::ZERO,
            burst_factor: 1.0,
            zipf_exponent: 0.0,
        }
    }

    /// The instantaneous arrival rate at offset `t` from the start.
    pub fn rate_at(&self, t: amada_cloud::SimDuration) -> f64 {
        let secs = t.as_secs_f64();
        let diurnal = 1.0
            + self.diurnal_amplitude
                * (2.0 * std::f64::consts::PI * secs / self.diurnal_period.as_secs_f64()).sin();
        let in_burst = self.burst_len > amada_cloud::SimDuration::ZERO
            && t.micros() % self.burst_every.micros().max(1) < self.burst_len.micros();
        let burst = if in_burst { self.burst_factor } else { 1.0 };
        (self.base_rate_per_sec * diurnal * burst).max(1e-9)
    }

    /// The seeded schedule: `arrivals` pairs of (offset from start, index
    /// of the picked query in a workload of `queries` entries), in
    /// arrival order. Gaps are exponential at the rate current when each
    /// gap starts; picks are Zipf over `0..queries`.
    pub fn offsets(&self, queries: usize) -> Vec<(amada_cloud::SimDuration, usize)> {
        assert!(queries > 0, "an arrival process needs a workload");
        let mut rng = amada_rng::StdRng::seed_from_u64(self.seed);
        // Zipf CDF over query ranks (uniform when the exponent is 0).
        let weights: Vec<f64> = (0..queries)
            .map(|i| 1.0 / ((i + 1) as f64).powf(self.zipf_exponent))
            .collect();
        let total: f64 = weights.iter().sum();
        let mut cdf = Vec::with_capacity(queries);
        let mut acc = 0.0;
        for w in &weights {
            acc += w / total;
            cdf.push(acc);
        }
        let mut out = Vec::with_capacity(self.arrivals);
        let mut t_micros: u64 = 0;
        for _ in 0..self.arrivals {
            let rate = self.rate_at(amada_cloud::SimDuration::from_micros(t_micros));
            let u = rng.next_f64();
            let gap_secs = -(1.0 - u).ln() / rate;
            t_micros += (gap_secs * 1e6) as u64;
            let pick = rng.next_f64();
            let idx = cdf.partition_point(|&c| c < pick).min(queries - 1);
            out.push((amada_cloud::SimDuration::from_micros(t_micros), idx));
        }
        out
    }
}
