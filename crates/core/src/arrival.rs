//! The front end's query traffic: the one sender that releases a
//! prepared schedule into the query queue, and the seeded open-loop
//! arrival process that schedules a storm.

use crate::retry::{Retry, RetryPolicy};
use amada_cloud::{Actor, ActorTag, Phase, SimDuration, SimTime, StepResult, World};
use std::collections::VecDeque;

/// The front end's one traffic sender: releases a prepared
/// `(send at, query name, message body)` schedule and closes the queue
/// after the last send so the pool can wind down. As an engine actor it
/// sends each message of an open-loop [`ArrivalProcess`] at its scheduled
/// instant, regardless of completions; [`ArrivalSender::send_all`] is the
/// paper's closed batch, the whole schedule sent before the engine starts.
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
    /// completed. A spent schedule (zero arrivals, an empty workload, or
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
/// so a few hot queries reach the shared key-value read lane far more
/// often than the rest. Open-loop means the release times are fixed
/// up-front: arrivals never wait for completions, so queue growth under
/// saturation is real, not throttled by the sender.
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
    /// gap starts; picks are Zipf over `0..queries`. An empty workload
    /// has no query to pick, so it releases nothing.
    pub fn offsets(&self, queries: usize) -> Vec<(amada_cloud::SimDuration, usize)> {
        if queries == 0 {
            return Vec::new();
        }
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
            // A near-zero rate makes a gap of ~10^15 µs: the schedule
            // saturates at the end of time rather than wrapping.
            t_micros = t_micros.saturating_add((gap_secs * 1e6) as u64);
            let pick = rng.next_f64();
            let idx = cdf.partition_point(|&c| c < pick).min(queries - 1);
            out.push((amada_cloud::SimDuration::from_micros(t_micros), idx));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_near_zero_rate_saturates_the_schedule_instead_of_overflowing() {
        let offsets = ArrivalProcess::steady(7, 100_000, 0.0).offsets(1);
        assert_eq!(offsets.len(), 100_000);
        assert!(offsets.windows(2).all(|w| w[0].0 <= w[1].0));
        let last = offsets.last().map(|(t, _)| t.micros());
        assert_eq!(last, Some(u64::MAX));
    }
}
