//! Retry policy, backoff and lease renewal for the warehouse modules.
//!
//! The simulated services can throttle any billed request (see
//! `amada_cloud::fault`); this module is how the warehouse survives it,
//! the way the paper's AWS clients do:
//!
//! * **capped exponential backoff with deterministic jitter** for the
//!   module cores ([`RetryPolicy::backoff`]) — jitter comes from each
//!   core's own seeded `amada_rng::StdRng`, so a fault seed maps to
//!   exactly one retry schedule and runs stay bit-reproducible;
//! * **linear backoff without jitter** for the single-threaded front end
//!   ([`RetryPolicy::backoff_linear`]) — one client needs no
//!   decorrelation, and drawing no randomness keeps the front end's
//!   faults-off path trivially identical to the pre-fault code;
//! * **lease renewal while working** ([`Lease`]) — the paper's Section 3
//!   crash-detection contract: a healthy module renews the visibility
//!   lease on the message that started its task, a crashed one stops, and
//!   the message reappears for another instance. Renewals fire at the
//!   lease's half-life, so a task shorter than half the visibility window
//!   issues none — which is why fault-free runs bill exactly the
//!   receive + delete per message that the Section 7 cost formulas assume;
//! * **dead-lettering** after [`RetryPolicy::max_receives`] deliveries —
//!   a message that keeps killing its consumers (or keeps being abandoned)
//!   is moved aside instead of poisoning the queue forever.
//!
//! Every retry is a billed request: resilience shows up in the cost
//! ledger as real dollars, which is the point of the fault experiment.

use crate::config::DEAD_LETTER_QUEUE;
use amada_cloud::{Message, RetryAfter, SimDuration, SimTime, Sqs, SqsError, S3};
use amada_rng::StdRng;
use std::fmt;

/// How a warehouse component behaves when a service throttles it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RetryPolicy {
    /// Retries before a *pre-commit* operation abandons its task (the
    /// message lease then expires and the task is redelivered). Commit
    /// operations — deletes, result puts, response sends — retry without
    /// bound so a task completes exactly once; `max_attempts` still caps
    /// their backoff growth.
    pub max_attempts: u32,
    /// First backoff step.
    pub base_backoff: SimDuration,
    /// Backoff ceiling.
    pub max_backoff: SimDuration,
    /// Deliveries after which a message is dead-lettered instead of
    /// processed.
    pub max_receives: u32,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_attempts: 8,
            base_backoff: SimDuration::from_millis(50),
            max_backoff: SimDuration::from_secs(5),
            max_receives: 5,
        }
    }
}

impl RetryPolicy {
    /// Backoff before retry number `attempt` (1-based): capped exponential
    /// with equal-jitter — half the window fixed, half drawn from `rng` —
    /// so concurrent cores retrying the same saturated service
    /// decorrelate deterministically.
    pub fn backoff(&self, attempt: u32, rng: &mut StdRng) -> SimDuration {
        let exp = self.uncapped(attempt);
        let half = exp.micros() / 2;
        SimDuration::from_micros((half + rng.gen_range(0..=half)).max(1))
    }

    /// Jitter-free linear backoff (`base × attempt`, capped) for the
    /// single-threaded front end, which has nobody to decorrelate from.
    pub fn backoff_linear(&self, attempt: u32) -> SimDuration {
        let linear = self
            .base_backoff
            .micros()
            .saturating_mul(attempt.max(1) as u64);
        SimDuration::from_micros(linear.min(self.max_backoff.micros()).max(1))
    }

    fn uncapped(&self, attempt: u32) -> SimDuration {
        let shift = attempt.clamp(1, 21) - 1; // 2^20 × base already dwarfs any cap
        let exp = self.base_backoff.micros().saturating_mul(1 << shift);
        SimDuration::from_micros(exp.min(self.max_backoff.micros()).max(2))
    }
}

/// A held visibility lease on a queue message, renewed at its half-life.
///
/// The engine wakes an actor only at operation boundaries, so renewals are
/// issued *retroactively*: at each wake-up the holder calls
/// [`Lease::keep_alive`] with the time it has reached, and every renewal
/// scheduled before that time is sent at its scheduled instant. Engine
/// steps are atomic, so no competitor can observe the window between the
/// scheduled time and the call — the message is continuously protected as
/// long as the holder keeps stepping (lease expiry is exclusive, so a
/// renewal landing exactly at the deadline still holds it).
#[derive(Debug)]
pub struct Lease {
    /// The queue holding the message.
    pub queue: &'static str,
    /// The leased message.
    pub msg_id: u64,
    /// Lease duration granted by each receive/renewal.
    pub visibility: SimDuration,
    next_renewal: SimTime,
}

impl Lease {
    /// A lease acquired by a `receive` at `acquired_at`.
    pub fn new(
        queue: &'static str,
        msg_id: u64,
        visibility: SimDuration,
        acquired_at: SimTime,
    ) -> Lease {
        Lease {
            queue,
            msg_id,
            visibility,
            next_renewal: acquired_at + Self::half_life(visibility),
        }
    }

    fn half_life(visibility: SimDuration) -> SimDuration {
        SimDuration::from_micros((visibility.micros() / 2).max(1))
    }

    /// Issues every renewal scheduled up to `reached` (the virtual time
    /// the holder's current operation completes at). Returns how many were
    /// sent. A throttled renewal is billed but does not extend the lease;
    /// the half-life schedule leaves a full half-window of slack, so one
    /// missed renewal never loses the lease.
    pub fn keep_alive(&mut self, sqs: &mut Sqs, reached: SimTime) -> u64 {
        let mut issued = 0;
        while self.next_renewal < reached {
            let at = self.next_renewal;
            match sqs.renew_lease(at, self.queue, self.msg_id, self.visibility) {
                Ok(_) | Err(SqsError::Throttled { .. }) => {}
                Err(e) => panic!("lease renewal on {}: {e}", self.queue),
            }
            issued += 1;
            self.next_renewal = at + Self::half_life(self.visibility);
        }
        issued
    }
}

/// Which backoff schedule a caller waits on between attempts.
pub enum Backoff<'a> {
    /// [`RetryPolicy::backoff`], jittered from the module core's own
    /// generator.
    Jittered(&'a mut StdRng),
    /// [`RetryPolicy::backoff_linear`], for the front end.
    Linear,
}

/// Issues `call` at `now` and again after every throttle — resuming at
/// the failure response plus backoff — until it succeeds, and returns
/// what it returned. For commit-side and front-end operations, which
/// retry without bound (see [`RetryPolicy::max_attempts`] for why; it
/// still caps the backoff growth). Any other error means the caller's
/// own set-up is broken (the queue, bucket or table it names exists):
/// panics with `what`.
pub fn until_ok<T, E: RetryAfter + fmt::Display>(
    policy: &RetryPolicy,
    mut backoff: Backoff<'_>,
    now: SimTime,
    what: fmt::Arguments<'_>,
    mut call: impl FnMut(SimTime) -> Result<T, E>,
) -> T {
    let mut t = now;
    let mut attempt = 0u32;
    loop {
        let error = match call(t) {
            Ok(out) => return out,
            Err(e) => e,
        };
        let Some(available_at) = error.retry_after() else {
            panic!("{what}: {error}");
        };
        attempt = (attempt + 1).min(policy.max_attempts);
        t = available_at
            + match &mut backoff {
                Backoff::Jittered(rng) => policy.backoff(attempt, rng),
                Backoff::Linear => policy.backoff_linear(attempt),
            };
    }
}

/// Parks a poison message — delivered more than
/// [`RetryPolicy::max_receives`] times, every previous holder having died
/// or abandoned it — on the dead-letter queue instead of recirculating
/// it. Returns the completion time.
pub fn dead_letter(
    sqs: &mut Sqs,
    policy: &RetryPolicy,
    rng: &mut StdRng,
    now: SimTime,
    queue: &str,
    msg: Message,
) -> SimTime {
    let t = until_ok(
        policy,
        Backoff::Jittered(rng),
        now,
        format_args!("send to {DEAD_LETTER_QUEUE}"),
        |t| sqs.send(t, DEAD_LETTER_QUEUE, msg.body.clone()),
    );
    until_ok(
        policy,
        Backoff::Jittered(rng),
        t,
        format_args!("delete from {queue}"),
        |t| sqs.delete(t, queue, msg.id),
    )
}

/// Object upload, by the front end or as a module's commit: retried
/// until it succeeds. Keeps a retry copy of the payload only when the
/// store can actually throttle.
pub fn put_object(
    s3: &mut S3,
    policy: &RetryPolicy,
    backoff: Backoff<'_>,
    now: SimTime,
    bucket: &str,
    key: &str,
    body: Vec<u8>,
) -> SimTime {
    let what = format_args!("put of {bucket}/{key}");
    if !s3.faults_active() {
        return s3
            .put(now, bucket, key, body)
            .unwrap_or_else(|e| panic!("{what}: {e}"));
    }
    until_ok(policy, backoff, now, what, |t| {
        s3.put(t, bucket, key, body.clone())
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backoff_grows_exponentially_then_caps() {
        let p = RetryPolicy::default();
        let mut rng = StdRng::seed_from_u64(1);
        // Equal-jitter: backoff(n) ∈ [exp/2, exp] for exp = min(base·2ⁿ⁻¹, cap).
        for attempt in 1..=12 {
            let exp = (p.base_backoff.micros() << (attempt - 1)).min(p.max_backoff.micros());
            let b = p.backoff(attempt as u32, &mut rng).micros();
            assert!(b >= exp / 2 && b <= exp, "attempt {attempt}: {b} vs {exp}");
        }
        // Huge attempt numbers must not overflow and stay capped.
        let b = p.backoff(10_000, &mut rng);
        assert!(b.micros() >= p.max_backoff.micros() / 2 && b <= p.max_backoff);
    }

    #[test]
    fn backoff_is_deterministic_per_seed() {
        let p = RetryPolicy::default();
        let mut a = StdRng::seed_from_u64(5);
        let mut b = StdRng::seed_from_u64(5);
        for attempt in 1..=20 {
            assert_eq!(p.backoff(attempt, &mut a), p.backoff(attempt, &mut b));
        }
    }

    #[test]
    fn linear_backoff_needs_no_rng() {
        let p = RetryPolicy::default();
        assert_eq!(p.backoff_linear(1), p.base_backoff);
        assert_eq!(p.backoff_linear(2).micros(), 2 * p.base_backoff.micros());
        assert_eq!(p.backoff_linear(1_000_000), p.max_backoff);
    }

    #[test]
    fn lease_renews_at_half_life_only_when_needed() {
        let mut sqs = Sqs::new();
        sqs.create_queue("q");
        sqs.send(SimTime::ZERO, "q", "m").unwrap();
        let vis = SimDuration::from_secs(10);
        let (msg, t) = sqs.receive(SimTime::ZERO, "q", vis).unwrap();
        let mut lease = Lease::new("q", msg.unwrap().id, vis, SimTime::ZERO);
        // A short task never renews.
        assert_eq!(lease.keep_alive(&mut sqs, t + SimDuration::from_secs(3)), 0);
        assert_eq!(sqs.stats().renewals, 0);
        // Reaching 12 s crosses the 5 s and 10 s renewal marks.
        assert_eq!(
            lease.keep_alive(&mut sqs, SimTime::ZERO + SimDuration::from_secs(12)),
            2
        );
        assert_eq!(sqs.stats().renewals, 2);
        // The message stayed protected the whole time: renewal at 10 s
        // holds it until 20 s.
        let (race, _) = sqs
            .receive(SimTime::ZERO + SimDuration::from_secs(19), "q", vis)
            .unwrap();
        assert!(race.is_none());
        assert_eq!(sqs.stats().redelivered, 0);
    }

    #[test]
    fn commit_helpers_retry_until_success() {
        use amada_cloud::FaultInjector;
        let p = RetryPolicy::default();
        let mut rng = StdRng::seed_from_u64(3);
        let mut sqs = Sqs::new();
        sqs.create_queue("q");
        sqs.set_faults(FaultInjector::new(0.9, 77));
        let what = format_args!("queue q exists");
        let t = until_ok(&p, Backoff::Jittered(&mut rng), SimTime::ZERO, what, |t| {
            sqs.send(t, "q", "m")
        });
        assert_eq!(sqs.stats().sent, 1);
        assert!(sqs.stats().requests >= 1);
        let (msg, t) = until_ok(&p, Backoff::Linear, t, what, |t| {
            sqs.receive(t, "q", SimDuration::from_secs(30))
        });
        let id = msg.expect("sent message is delivered").id;
        until_ok(&p, Backoff::Jittered(&mut rng), t, what, |t| {
            sqs.delete(t, "q", id)
        });
        assert_eq!(sqs.len("q").unwrap(), 0);
        // Each throttle was billed on top of the successful requests.
        assert_eq!(
            sqs.stats().requests,
            3 + sqs.stats().throttled,
            "every retry is a billed request"
        );
    }
}
