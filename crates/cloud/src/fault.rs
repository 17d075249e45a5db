//! Deterministic transient-fault injection for the simulated services.
//!
//! Real cloud services fail transiently all the time: DynamoDB returns
//! `ProvisionedThroughputExceededException`, S3 returns `503 SlowDown`,
//! SQS throttles bursts. The paper's architecture (Section 3) and cost
//! model (Section 7) both assume clients retry — and that every attempt,
//! failed or not, is a billed request. This module makes those failures
//! representable without giving up the simulation's bit-reproducibility:
//! each service draws from its own seeded [`amada_rng::StdRng`] stream, so
//! a `(seed, rate)` pair maps to exactly one fault schedule, on any host,
//! at any thread count (the engine is single-threaded; service calls
//! happen in one deterministic order).
//!
//! The faults-off contract is strict: a [`FaultInjector`] with rate zero
//! never draws from its generator, so a world configured with
//! [`FaultConfig::default()`] is *bit-identical* to one predating fault
//! injection — no extra RNG state, requests, or virtual time anywhere.

use crate::SimTime;
use amada_rng::StdRng;

/// A service error that may be a throttle.
pub trait RetryAfter {
    /// When the failure response of a throttled request — retryable, and
    /// billed all the same — reaches the caller; `None` for every error
    /// that retrying cannot cure.
    fn retry_after(&self) -> Option<SimTime>;
}

/// The transient-fault rate every service throttles at, plus the master
/// seed deriving each service's own fault stream. `Default` is off.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultConfig {
    /// Master seed; each service derives its own independent stream.
    pub seed: u64,
    /// Probability that a request is throttled: an S3 put/get (503
    /// SlowDown), an index-store operation (ProvisionedThroughputExceeded),
    /// an SQS send/receive/delete/renew.
    pub rate: f64,
}

impl Default for FaultConfig {
    fn default() -> Self {
        FaultConfig {
            seed: 0xFA17,
            rate: 0.0,
        }
    }
}

/// Stream-derivation tags, one per service, so the services' fault
/// streams are mutually independent even under one master seed.
const S3_TAG: u64 = 0x5353_3300;
const KV_TAG: u64 = 0x4B56_5300;
const SQS_TAG: u64 = 0x5351_5300;

impl FaultConfig {
    /// The injectors of the file store, the index store and the queue
    /// service, in that order: one rate, each on its own stream.
    pub(crate) fn injectors(&self) -> [FaultInjector; 3] {
        [S3_TAG, KV_TAG, SQS_TAG].map(|tag| FaultInjector::new(self.rate, self.seed ^ tag))
    }
}

/// A per-service Bernoulli fault source.
///
/// Rates are clamped to `[0, 0.95]`: retry loops terminate almost surely
/// only when success has positive probability, and no realistic chaos
/// experiment throttles more than 95% of requests.
#[derive(Debug, Clone)]
pub struct FaultInjector {
    rate: f64,
    rng: StdRng,
}

impl FaultInjector {
    /// An injector throttling each request with probability `rate`.
    pub fn new(rate: f64, seed: u64) -> FaultInjector {
        FaultInjector {
            rate: rate.clamp(0.0, 0.95),
            rng: StdRng::seed_from_u64(seed),
        }
    }

    /// An injector that never fires (the default service state).
    pub fn off() -> FaultInjector {
        FaultInjector::new(0.0, 0)
    }

    /// True when this injector can ever fire.
    pub fn is_active(&self) -> bool {
        self.rate > 0.0
    }

    /// Decides whether the next request is throttled. An inactive
    /// injector returns `false` *without drawing*, so faults-off runs
    /// consume no randomness and stay bit-identical to a world that has
    /// no injector at all.
    pub fn roll(&mut self) -> bool {
        self.rate > 0.0 && self.rng.gen_bool(self.rate)
    }
}

impl Default for FaultInjector {
    fn default() -> Self {
        FaultInjector::off()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn off_injector_never_fires_and_never_draws() {
        let mut a = FaultInjector::off();
        for _ in 0..100 {
            assert!(!a.roll());
        }
        // Same internal stream as a fresh injector: no draws happened.
        let mut b = FaultInjector::new(1.0, 0);
        let mut c = FaultInjector::new(1.0, 0);
        a.rate = 0.95;
        a.rng = StdRng::seed_from_u64(0);
        for _ in 0..10 {
            assert_eq!(a.roll(), b.roll());
            let _ = c.roll();
        }
    }

    #[test]
    fn same_seed_same_schedule() {
        let mut a = FaultInjector::new(0.3, 42);
        let mut b = FaultInjector::new(0.3, 42);
        let sa: Vec<bool> = (0..200).map(|_| a.roll()).collect();
        let sb: Vec<bool> = (0..200).map(|_| b.roll()).collect();
        assert_eq!(sa, sb);
        assert!(sa.iter().any(|&f| f), "a 30% rate fires within 200 rolls");
        assert!(!sa.iter().all(|&f| f), "and does not always fire");
    }

    #[test]
    fn services_get_independent_streams() {
        let streams = FaultConfig { seed: 7, rate: 0.5 }
            .injectors()
            .map(|mut injector| (0..64).map(|_| injector.roll()).collect::<Vec<_>>());
        for (i, a) in streams.iter().enumerate() {
            for b in &streams[i + 1..] {
                assert_ne!(a, b, "per-service streams must differ");
            }
        }
    }

    #[test]
    fn default_config_is_off() {
        let active = |cfg: FaultConfig| cfg.injectors().map(|i| i.is_active());
        assert_eq!(active(FaultConfig::default()), [false; 3]);
        assert_eq!(active(FaultConfig { seed: 1, rate: 0.1 }), [true; 3]);
    }

    #[test]
    fn rates_are_clamped() {
        let mut always = FaultInjector::new(5.0, 1);
        // Clamped to 0.95, so "always" still occasionally succeeds.
        let rolls: Vec<bool> = (0..500).map(|_| always.roll()).collect();
        assert!(rolls.iter().any(|&f| !f));
        let mut never = FaultInjector::new(-1.0, 1);
        assert!(!never.roll());
    }
}
