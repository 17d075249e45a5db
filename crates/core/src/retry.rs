//! Retry policy, the throttle step and lease renewal for the warehouse
//! modules.
//!
//! The simulated services can throttle any billed request (see
//! `amada_cloud::fault`); this module is how the warehouse survives it,
//! the way the paper's AWS clients do. "Count the throttle, pick the
//! backoff, resume or give up" is written once, as [`Retry`]: one client's
//! [`RetryPolicy`], its backoff schedule and the consecutive-throttle
//! count of the operation it has in hand.
//!
//! * The schedule is **capped exponential backoff with deterministic
//!   jitter** for the module cores — jitter comes from each core's own
//!   seeded `amada_rng::StdRng`, so a fault seed maps to exactly one retry
//!   schedule and runs stay bit-reproducible — and **linear backoff
//!   without jitter** for the single-threaded front end, its arrival
//!   sender and the autoscaler: one client needs no decorrelation, and
//!   drawing no randomness keeps the front end's faults-off path trivially
//!   identical to the pre-fault code.
//! * Four verbs. [`Retry::again`] is the *pre-commit* step: it names the
//!   resume time, or — past [`RetryPolicy::max_attempts`] — gives up
//!   without drawing anything, and the caller abandons its task to
//!   redelivery. [`Retry::again_capped`] never gives up (the budget only
//!   caps the backoff growth): a poll has no task to abandon.
//!   [`Retry::reset`] ends an operation. [`Retry::until_ok`] is the loop
//!   over the capped step for *commit* and front-end operations, which
//!   must complete exactly once.
//! * **Lease renewal while working** ([`Lease`]) — the paper's Section 3
//!   crash-detection contract: a healthy module renews the visibility
//!   lease on the message that started its task, a crashed one stops, and
//!   the message reappears for another instance. Renewals fire at the
//!   lease's half-life, so a task shorter than half the visibility window
//!   issues none — which is why fault-free runs bill exactly the
//!   receive + delete per message that the Section 7 cost formulas assume.
//! * **Dead-lettering** ([`dead_letter`]) after
//!   [`RetryPolicy::max_receives`] deliveries — a message that keeps
//!   killing its consumers (or keeps being abandoned) is moved aside
//!   instead of poisoning the queue forever.
//!
//! Every retry is a billed request: resilience shows up in the cost
//! ledger as real dollars, which is the point of the fault experiment.

use crate::config::DEAD_LETTER_QUEUE;
use amada_cloud::{RetryAfter, SimDuration, SimTime, Sqs, SqsError, S3};
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

/// One client's throttle handling: its policy, its backoff schedule and
/// how many times in a row the operation in hand has been throttled.
#[derive(Debug)]
pub struct Retry {
    pub(crate) policy: RetryPolicy,
    /// A module core's own jitter stream (only drawn from when a retry
    /// happens, so fault-free runs consume no randomness); `None` waits
    /// on the jitter-free linear schedule.
    jitter: Option<StdRng>,
    /// Consecutive throttles of the current operation.
    attempt: u32,
}

impl Retry {
    /// A client that has not been throttled yet: a module core with its
    /// `jitter` stream, or the front end and its control plane with none.
    pub fn new(policy: RetryPolicy, jitter: Option<StdRng>) -> Retry {
        Retry {
            policy,
            jitter,
            attempt: 0,
        }
    }

    /// The wait before retry number `self.attempt` (1-based).
    fn backoff(&mut self) -> SimDuration {
        let (base, cap) = (
            self.policy.base_backoff.micros(),
            self.policy.max_backoff.micros(),
        );
        let Some(rng) = &mut self.jitter else {
            // Linear (`base × attempt`, capped): the single-threaded front
            // end has nobody to decorrelate from.
            let linear = base.saturating_mul(self.attempt.max(1) as u64);
            return SimDuration::from_micros(linear.min(cap).max(1));
        };
        // Capped exponential with equal-jitter — half the window fixed,
        // half drawn — so concurrent cores retrying the same saturated
        // service decorrelate deterministically.
        let shift = self.attempt.clamp(1, 21) - 1; // 2^20 × base already dwarfs any cap
        let half = base.saturating_mul(1 << shift).min(cap).max(2) / 2;
        SimDuration::from_micros((half + rng.gen_range(0..=half)).max(1))
    }

    /// A *pre-commit* operation was throttled, its failure response
    /// arriving at `available_at`: when to issue it again. `None` once the
    /// budget is spent — the count starts over, nothing is drawn, and the
    /// caller abandons its task (the message lease then expires and the
    /// task is redelivered).
    pub fn again(&mut self, available_at: SimTime) -> Option<SimTime> {
        self.attempt += 1;
        if self.attempt > self.policy.max_attempts {
            self.attempt = 0;
            return None;
        }
        Some(available_at + self.backoff())
    }

    /// Like [`Retry::again`] for an operation that never gives up — a
    /// poll, a commit: the budget only caps the backoff growth.
    pub fn again_capped(&mut self, available_at: SimTime) -> SimTime {
        self.attempt = (self.attempt + 1).min(self.policy.max_attempts);
        available_at + self.backoff()
    }

    /// The operation went through: the next one starts a fresh count.
    pub fn reset(&mut self) {
        self.attempt = 0;
    }

    /// Issues `call` at `now` and again after every throttle — resuming
    /// at [`Retry::again_capped`] — until it succeeds, and returns what it
    /// returned. For commit-side and front-end operations, which retry
    /// without bound (see [`RetryPolicy::max_attempts`] for why). Any
    /// other error means the caller's own set-up is broken (the queue,
    /// bucket or table it names exists): panics with `what`.
    pub fn until_ok<T, E: RetryAfter + fmt::Display>(
        &mut self,
        now: SimTime,
        what: fmt::Arguments<'_>,
        mut call: impl FnMut(SimTime) -> Result<T, E>,
    ) -> T {
        debug_assert_eq!(self.attempt, 0, "{what}: begun mid-operation");
        let mut t = now;
        loop {
            let error = match call(t) {
                Ok(out) => {
                    self.reset();
                    return out;
                }
                Err(e) => e,
            };
            let Some(available_at) = error.retry_after() else {
                panic!("{what}: {error}");
            };
            t = self.again_capped(available_at);
        }
    }
}

/// Parks a poison message — delivered more than
/// [`RetryPolicy::max_receives`] times, every previous holder having died
/// or abandoned it, or naming a document the index store's limits cannot
/// hold — on the dead-letter queue instead of recirculating it. Returns
/// the completion time.
pub fn dead_letter(
    sqs: &mut Sqs,
    retry: &mut Retry,
    now: SimTime,
    queue: &str,
    msg_id: u64,
    body: &str,
) -> SimTime {
    let what = format_args!("send to {DEAD_LETTER_QUEUE}");
    let t = retry.until_ok(now, what, |t| {
        sqs.send(t, DEAD_LETTER_QUEUE, body.to_string())
    });
    retry.until_ok(t, format_args!("delete from {queue}"), |t| {
        sqs.delete(t, queue, msg_id)
    })
}

/// Object upload, by the front end or as a module's commit: retried
/// until it succeeds. Keeps a retry copy of the payload only when the
/// store can actually throttle.
pub fn put_object(
    s3: &mut S3,
    retry: &mut Retry,
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
    retry.until_ok(now, what, |t| s3.put(t, bucket, key, body.clone()))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The wait before retry number `attempt`, on `retry`'s schedule.
    fn backoff(retry: &mut Retry, attempt: u32) -> SimDuration {
        retry.attempt = attempt;
        retry.backoff()
    }

    #[test]
    fn backoff_grows_exponentially_then_caps() {
        let p = RetryPolicy::default();
        let mut retry = Retry::new(p, Some(StdRng::seed_from_u64(1)));
        // Equal-jitter: backoff(n) ∈ [exp/2, exp] for exp = min(base·2ⁿ⁻¹, cap).
        for attempt in 1..=12 {
            let exp = (p.base_backoff.micros() << (attempt - 1)).min(p.max_backoff.micros());
            let b = backoff(&mut retry, attempt).micros();
            assert!(b >= exp / 2 && b <= exp, "attempt {attempt}: {b} vs {exp}");
        }
        // Huge attempt numbers must not overflow and stay capped.
        let b = backoff(&mut retry, 10_000);
        assert!(b.micros() >= p.max_backoff.micros() / 2 && b <= p.max_backoff);
    }

    #[test]
    fn backoff_is_deterministic_per_seed() {
        let p = RetryPolicy::default();
        let mut a = Retry::new(p, Some(StdRng::seed_from_u64(5)));
        let mut b = Retry::new(p, Some(StdRng::seed_from_u64(5)));
        for attempt in 1..=20 {
            assert_eq!(backoff(&mut a, attempt), backoff(&mut b, attempt));
        }
    }

    #[test]
    fn linear_backoff_needs_no_rng() {
        let p = RetryPolicy::default();
        let mut retry = Retry::new(p, None);
        assert_eq!(backoff(&mut retry, 1), p.base_backoff);
        assert_eq!(backoff(&mut retry, 2).micros(), 2 * p.base_backoff.micros());
        assert_eq!(backoff(&mut retry, 1_000_000), p.max_backoff);
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
    fn again_spends_the_budget_then_gives_up_without_drawing_and_starts_over() {
        let p = RetryPolicy {
            max_attempts: 3,
            ..RetryPolicy::default()
        };
        let mut retry = Retry::new(p, Some(StdRng::seed_from_u64(9)));
        let at = SimTime(1_000_000);
        for round in 0..2 {
            for attempt in 1..=3 {
                let exp = p.base_backoff.micros() << (attempt - 1);
                let wait = (retry.again(at).expect("within the budget") - at).micros();
                assert!(
                    wait >= exp / 2 && wait <= exp,
                    "round {round} attempt {attempt}: {wait} vs {exp}"
                );
            }
            let mut before = retry.jitter.clone().expect("jittered");
            assert_eq!(retry.again(at), None, "round {round}: budget spent");
            let mut after = retry.jitter.clone().expect("jittered");
            assert_eq!(
                before.next_u64(),
                after.next_u64(),
                "giving up draws nothing"
            );
        }
    }

    #[test]
    fn a_zero_budget_gives_up_on_the_first_throttle() {
        let p = RetryPolicy {
            max_attempts: 0,
            ..RetryPolicy::default()
        };
        let at = SimTime(7);
        assert_eq!(Retry::new(p, None).again(at), None);
        assert_eq!(
            Retry::new(p, Some(StdRng::seed_from_u64(1))).again(at),
            None
        );
        // The capped step still waits: the budget bounds growth, not life.
        assert_eq!(Retry::new(p, None).again_capped(at), at + p.base_backoff);
    }

    #[test]
    fn until_ok_resumes_where_the_capped_step_says() {
        let p = RetryPolicy::default();
        let lag = SimDuration::from_millis(10);
        // More throttles than `max_attempts`, so the cap is reached.
        let throttles = p.max_attempts as usize + 4;
        for linear in [false, true] {
            let fresh = || Retry::new(p, (!linear).then(|| StdRng::seed_from_u64(5)));
            let mut by_hand = fresh();
            let mut expected = vec![SimTime::ZERO];
            for _ in 0..throttles {
                let issued = *expected.last().expect("non-empty");
                expected.push(by_hand.again_capped(issued + lag));
            }
            let mut looped = fresh();
            let mut issued = Vec::new();
            let done = looped.until_ok(SimTime::ZERO, format_args!("test"), |t| {
                issued.push(t);
                match issued.len() > throttles {
                    true => Ok(t),
                    false => Err(SqsError::Throttled {
                        available_at: t + lag,
                    }),
                }
            });
            assert_eq!(issued, expected, "linear {linear}");
            assert_eq!(done, expected[throttles]);
            // Success ended the operation: the next one counts from one.
            by_hand.reset();
            assert_eq!(looped.again(done), by_hand.again(done));
        }
    }

    #[test]
    fn commit_helpers_retry_until_success() {
        use amada_cloud::FaultInjector;
        let p = RetryPolicy::default();
        let mut core = Retry::new(p, Some(StdRng::seed_from_u64(3)));
        let mut frontend = Retry::new(p, None);
        let mut sqs = Sqs::new();
        sqs.create_queue("q");
        sqs.set_faults(FaultInjector::new(0.9, 77));
        let what = format_args!("queue q exists");
        let t = core.until_ok(SimTime::ZERO, what, |t| sqs.send(t, "q", "m"));
        assert_eq!(sqs.stats().sent, 1);
        assert!(sqs.stats().requests >= 1);
        let (msg, t) =
            frontend.until_ok(t, what, |t| sqs.receive(t, "q", SimDuration::from_secs(30)));
        let id = msg.expect("sent message is delivered").id;
        core.until_ok(t, what, |t| sqs.delete(t, "q", id));
        assert_eq!(sqs.len("q").unwrap(), 0);
        // Each throttle was billed on top of the successful requests.
        assert_eq!(
            sqs.stats().requests,
            3 + sqs.stats().throttled,
            "every retry is a billed request"
        );
    }
}
