//! The simulated message-queue service (Amazon SQS in the paper).
//!
//! SQS ties the warehouse modules together (architecture Figure 1) and is
//! the fault-tolerance mechanism: "if an instance fails to renew its lease
//! on the message which had caused a task to start, the message becomes
//! available again and another virtual instance will take over the job"
//! (Section 3). The model therefore implements *visibility timeouts*:
//! `receive` hides a message for a lease period rather than removing it;
//! only an explicit `delete` removes it; an expired lease makes the
//! message deliverable again (at-least-once semantics).
//!
//! Every billable operation returns `Result<_, SqsError>`: an unknown
//! queue is a typed [`SqsError::NoSuchQueue`] (uniformly — including the
//! read-only `drained`/`len` probes, which used to report `false`/`0`
//! silently), and an installed [`FaultInjector`] may throttle any billed
//! request with [`SqsError::Throttled`]. Throttled requests are still
//! billed — retries show up in the cost ledger, as the paper's
//! per-request pricing implies.

use crate::clock::{SimDuration, SimTime};
use crate::fault::FaultInjector;
use crate::obs::{Outcome, Recorder, ServiceKind, Span};
use crate::pricing::PRICES;
use std::collections::{BTreeMap, HashMap};
use std::fmt;

/// A queued message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Message {
    /// Unique receipt handle (per queue).
    pub id: u64,
    /// Payload (the warehouse sends document URIs / query texts).
    pub body: String,
    /// How many times the message has been received (1 on first delivery).
    pub receive_count: u32,
}

/// Errors from the queue service.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SqsError {
    /// Operation on a queue that was never created.
    NoSuchQueue(String),
    /// The request was throttled (retryable); the failure response
    /// arrives at `available_at`. The request was still billed.
    Throttled {
        /// When the caller learns about the failure.
        available_at: SimTime,
    },
}

impl fmt::Display for SqsError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SqsError::NoSuchQueue(q) => write!(f, "no such queue: {q}"),
            SqsError::Throttled { available_at } => {
                write!(f, "request throttled (response at {:?})", available_at)
            }
        }
    }
}

impl std::error::Error for SqsError {}

impl crate::fault::RetryAfter for SqsError {
    fn retry_after(&self) -> Option<SimTime> {
        match self {
            SqsError::Throttled { available_at } => Some(*available_at),
            _ => None,
        }
    }
}

#[derive(Debug, Clone)]
struct Stored {
    body: String,
    /// Invisible until this time (lease), if any.
    invisible_until: Option<SimTime>,
    receive_count: u32,
}

/// Usage counters (every API call is billed `QS$`).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SqsStats {
    /// Total API requests: send, receive (including empty receives),
    /// delete, lease renewals — and throttled attempts, which are billed
    /// like any other request.
    pub requests: u64,
    /// Messages sent.
    pub sent: u64,
    /// Messages delivered (receives that returned a message).
    pub delivered: u64,
    /// Messages redelivered after a lease expiry.
    pub redelivered: u64,
    /// Lease renewals issued.
    pub renewals: u64,
    /// Requests rejected by the fault injector (each one billed).
    pub throttled: u64,
}

/// The simulated queue service.
pub struct Sqs {
    queues: HashMap<String, Queue>,
    stats: SqsStats,
    latency: SimDuration,
    faults: FaultInjector,
    obs: Recorder,
}

#[derive(Default)]
struct Queue {
    /// The messages in the queue, visible or leased, by id: ids are
    /// handed out in send order, so this is also FIFO order.
    messages: BTreeMap<u64, Stored>,
    next_id: u64,
    closed: bool,
}

impl Sqs {
    /// Creates the service with a default 4 ms request latency and no
    /// fault injection.
    pub fn new() -> Sqs {
        Sqs {
            queues: HashMap::new(),
            stats: SqsStats::default(),
            latency: SimDuration::from_millis(4),
            faults: FaultInjector::off(),
            obs: Recorder::off(),
        }
    }

    /// Installs a fault injector (replacing any previous one).
    pub fn set_faults(&mut self, faults: FaultInjector) {
        self.faults = faults;
    }

    /// Installs a span recorder (replacing any previous one).
    pub fn set_recorder(&mut self, obs: Recorder) {
        self.obs = obs;
    }

    /// Creates a queue (idempotent).
    pub fn create_queue(&mut self, name: &str) {
        self.queues.entry(name.to_string()).or_default();
    }

    fn queue_mut(&mut self, name: &str) -> Result<&mut Queue, SqsError> {
        self.queues
            .get_mut(name)
            .ok_or_else(|| SqsError::NoSuchQueue(name.to_string()))
    }

    fn queue(&self, name: &str) -> Result<&Queue, SqsError> {
        self.queues
            .get(name)
            .ok_or_else(|| SqsError::NoSuchQueue(name.to_string()))
    }

    /// Bills one request and rolls the fault injector; on a throttle the
    /// error response arrives after the usual request latency.
    fn billed_request(&mut self, now: SimTime, op: &'static str) -> Result<(), SqsError> {
        self.stats.requests += 1;
        if self.faults.roll() {
            self.stats.throttled += 1;
            let available_at = now + self.latency;
            self.obs.record(|ctx| {
                Span::new(ServiceKind::Sqs, op, now, available_at, ctx)
                    .billed(PRICES.qs_request)
                    .outcome(Outcome::Throttled)
            });
            return Err(SqsError::Throttled { available_at });
        }
        Ok(())
    }

    /// Records the span of a successfully served request (`Ok` outcome,
    /// one `QS$` charge, response at `now + latency`).
    fn record_ok(&self, now: SimTime, op: &'static str, bytes: u64) {
        self.obs.record(|ctx| {
            Span::new(ServiceKind::Sqs, op, now, now + self.latency, ctx)
                .bytes(bytes)
                .billed(PRICES.qs_request)
        });
    }

    /// Sends a message; returns the virtual completion time.
    pub fn send(
        &mut self,
        now: SimTime,
        queue: &str,
        body: impl Into<String>,
    ) -> Result<SimTime, SqsError> {
        self.queue(queue)?;
        self.billed_request(now, "send")?;
        self.stats.sent += 1;
        let latency = self.latency;
        let body: String = body.into();
        let body_len = body.len() as u64;
        let q = self.queue_mut(queue)?;
        assert!(!q.closed, "send on closed queue {queue}");
        let id = q.next_id;
        q.next_id += 1;
        let stored = Stored {
            body,
            invisible_until: None,
            receive_count: 0,
        };
        q.messages.insert(id, stored);
        self.record_ok(now, "send", body_len);
        Ok(now + latency)
    }

    /// Receives one message, leasing it for `visibility`. Returns `None`
    /// when no message is currently visible (still a billed request).
    #[allow(clippy::type_complexity)]
    pub fn receive(
        &mut self,
        now: SimTime,
        queue: &str,
        visibility: SimDuration,
    ) -> Result<(Option<Message>, SimTime), SqsError> {
        self.queue(queue)?;
        self.billed_request(now, "receive")?;
        let latency = self.latency;
        let q = self.queue_mut(queue)?;
        // Expiry is exclusive: a lease set (or renewed) to expire at `t`
        // still protects the message to an observer at exactly `t`, so a
        // renewal and a concurrent poll at the same instant cannot race the
        // message away from its healthy holder.
        let found =
            (q.messages.iter_mut()).find(|(_, m)| m.invisible_until.is_none_or(|t| t < now));
        let msg = found.map(|(&id, m)| {
            m.invisible_until = Some(now + visibility);
            m.receive_count += 1;
            Message {
                id,
                body: m.body.clone(),
                receive_count: m.receive_count,
            }
        });
        if let Some(m) = &msg {
            self.stats.delivered += 1;
            if m.receive_count > 1 {
                self.stats.redelivered += 1;
            }
        }
        // An empty receive is a billed request too; spans mark it Missing
        // so empty-poll cost shows up in the attribution tables.
        self.obs.record(|ctx| {
            let mut span = Span::new(ServiceKind::Sqs, "receive", now, now + latency, ctx)
                .billed(PRICES.qs_request);
            match &msg {
                Some(m) => span.bytes = m.body.len() as u64,
                None => span.outcome = Outcome::Missing,
            }
            span
        });
        Ok((msg, now + latency))
    }

    /// Deletes a received message by id (completes its processing).
    ///
    /// Model simplification: deletion is by message id, without real SQS's
    /// per-receive receipt handles — a consumer whose lease already
    /// expired could still delete the message out from under the new
    /// holder. The warehouse's crashed actors never act again, so the
    /// pipeline cannot trigger this; callers building other topologies
    /// should not rely on delete-after-expiry being rejected.
    pub fn delete(&mut self, now: SimTime, queue: &str, id: u64) -> Result<SimTime, SqsError> {
        self.queue(queue)?;
        self.billed_request(now, "delete")?;
        let latency = self.latency;
        let q = self.queue_mut(queue)?;
        q.messages.remove(&id);
        self.record_ok(now, "delete", 0);
        Ok(now + latency)
    }

    /// Renews the lease on a message (the paper's crash-detection
    /// mechanism: a healthy instance renews; a crashed one does not).
    pub fn renew_lease(
        &mut self,
        now: SimTime,
        queue: &str,
        id: u64,
        visibility: SimDuration,
    ) -> Result<SimTime, SqsError> {
        self.queue(queue)?;
        self.billed_request(now, "renew")?;
        self.stats.renewals += 1;
        let latency = self.latency;
        let q = self.queue_mut(queue)?;
        if let Some(m) = q.messages.get_mut(&id) {
            m.invisible_until = Some(now + visibility);
        }
        self.record_ok(now, "renew", 0);
        Ok(now + latency)
    }

    /// Marks the queue as complete: consumers seeing it empty may stop.
    /// (An orchestration convenience, not an SQS API call; not billed and
    /// never throttled.)
    pub fn close(&mut self, queue: &str) {
        self.queues
            .get_mut(queue)
            .unwrap_or_else(|| panic!("no such queue: {queue}"))
            .closed = true;
    }

    /// Reopens a closed queue for a new work phase.
    pub fn open(&mut self, queue: &str) {
        self.queues
            .get_mut(queue)
            .unwrap_or_else(|| panic!("no such queue: {queue}"))
            .closed = false;
    }

    /// True when the queue is closed and has no messages left (visible or
    /// leased). Unbilled host-side probe; errors on an unknown queue like
    /// every other operation.
    pub fn drained(&self, queue: &str) -> Result<bool, SqsError> {
        let q = self.queue(queue)?;
        Ok(q.closed && q.messages.is_empty())
    }

    /// Number of messages currently in the queue (visible or leased).
    pub fn len(&self, queue: &str) -> Result<usize, SqsError> {
        Ok(self.queue(queue)?.messages.len())
    }

    /// The bodies of the messages currently in the queue (visible or
    /// leased), oldest first. Unbilled host-side probe, like [`Sqs::len`].
    pub fn bodies(&self, queue: &str) -> Result<impl Iterator<Item = &str>, SqsError> {
        Ok(self
            .queue(queue)?
            .messages
            .values()
            .map(|m| m.body.as_str()))
    }

    /// True if the queue holds no messages.
    pub fn is_empty(&self, queue: &str) -> Result<bool, SqsError> {
        Ok(self.len(queue)? == 0)
    }

    /// Usage counters.
    pub fn stats(&self) -> SqsStats {
        self.stats
    }
}

impl Default for Sqs {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::FaultInjector;

    const VIS: SimDuration = SimDuration::from_secs(30);

    #[test]
    fn send_receive_delete_lifecycle() {
        let mut sqs = Sqs::new();
        sqs.create_queue("loader");
        let t = sqs.send(SimTime::ZERO, "loader", "doc1.xml").unwrap();
        let (msg, t) = sqs.receive(t, "loader", VIS).unwrap();
        let msg = msg.unwrap();
        assert_eq!(msg.body, "doc1.xml");
        assert_eq!(msg.receive_count, 1);
        sqs.delete(t, "loader", msg.id).unwrap();
        assert!(sqs.is_empty("loader").unwrap());
        assert_eq!(sqs.stats().requests, 3);
    }

    #[test]
    fn bodies_lists_what_is_in_the_queue_leased_or_not_and_bills_nothing() {
        let mut sqs = Sqs::new();
        sqs.create_queue("loader");
        for doc in ["a.xml", "b.xml", "c.xml"] {
            sqs.send(SimTime::ZERO, "loader", doc).unwrap();
        }
        let (leased, t) = sqs.receive(SimTime::ZERO, "loader", VIS).unwrap();
        sqs.delete(t, "loader", leased.unwrap().id).unwrap();
        sqs.receive(t, "loader", VIS).unwrap();
        let billed = sqs.stats();
        let live: Vec<&str> = sqs.bodies("loader").unwrap().collect();
        assert_eq!(live, ["b.xml", "c.xml"]);
        assert_eq!(sqs.stats(), billed);
        assert!(sqs.bodies("nope").is_err());
    }

    #[test]
    fn unknown_queue_is_a_typed_error_everywhere() {
        let mut sqs = Sqs::new();
        let missing = |e: SqsError| matches!(e, SqsError::NoSuchQueue(ref q) if q == "nope");
        assert!(missing(sqs.send(SimTime::ZERO, "nope", "m").unwrap_err()));
        assert!(missing(
            sqs.receive(SimTime::ZERO, "nope", VIS).unwrap_err()
        ));
        assert!(missing(sqs.delete(SimTime::ZERO, "nope", 0).unwrap_err()));
        assert!(missing(
            sqs.renew_lease(SimTime::ZERO, "nope", 0, VIS).unwrap_err()
        ));
        assert!(missing(sqs.drained("nope").unwrap_err()));
        assert!(missing(sqs.len("nope").unwrap_err()));
        assert!(missing(sqs.is_empty("nope").unwrap_err()));
        // Nothing was billed for requests that never reached a queue.
        assert_eq!(sqs.stats().requests, 0);
    }

    #[test]
    fn throttled_requests_are_billed_and_carry_response_time() {
        let mut sqs = Sqs::new();
        sqs.create_queue("q");
        sqs.set_faults(FaultInjector::new(1.0, 3)); // clamped to 0.95
        let mut throttles = 0;
        let mut sends = 0;
        for _ in 0..50 {
            match sqs.send(SimTime(1000), "q", "m") {
                Ok(_) => sends += 1,
                Err(SqsError::Throttled { available_at }) => {
                    assert_eq!(available_at, SimTime(1000) + SimDuration::from_millis(4));
                    throttles += 1;
                }
                Err(e) => panic!("unexpected {e}"),
            }
        }
        assert!(throttles > 0, "a 95% rate throttles within 50 calls");
        let st = sqs.stats();
        assert_eq!(st.requests, 50, "throttled attempts are billed");
        assert_eq!(st.throttled, throttles);
        assert_eq!(st.sent, sends);
    }

    #[test]
    fn leased_message_is_invisible_until_timeout() {
        let mut sqs = Sqs::new();
        sqs.create_queue("q");
        sqs.send(SimTime::ZERO, "q", "m").unwrap();
        let (m1, _) = sqs.receive(SimTime(10), "q", VIS).unwrap();
        assert!(m1.is_some());
        // Within the lease: invisible.
        let (m2, _) = sqs.receive(SimTime(20), "q", VIS).unwrap();
        assert!(m2.is_none());
        // After the lease expires (no delete — simulated crash):
        // redelivered. Expiry is exclusive, so strictly after the deadline.
        let after = SimTime(11) + VIS;
        let (m3, _) = sqs.receive(after, "q", VIS).unwrap();
        let m3 = m3.unwrap();
        assert_eq!(m3.receive_count, 2);
        assert_eq!(sqs.stats().redelivered, 1);
    }

    #[test]
    fn renew_extends_lease() {
        let mut sqs = Sqs::new();
        sqs.create_queue("q");
        sqs.send(SimTime::ZERO, "q", "m").unwrap();
        let (m, _) = sqs.receive(SimTime::ZERO, "q", VIS).unwrap();
        let id = m.unwrap().id;
        sqs.renew_lease(SimTime(29_000_000), "q", id, VIS).unwrap();
        assert_eq!(sqs.stats().renewals, 1);
        // The original lease would have expired at t=30 s; renewal pushed
        // it to t=59 s.
        let (m2, _) = sqs.receive(SimTime(31_000_000), "q", VIS).unwrap();
        assert!(m2.is_none());
        let (m3, _) = sqs.receive(SimTime(60_000_000), "q", VIS).unwrap();
        assert!(m3.is_some());
    }

    #[test]
    fn lease_expiry_is_exclusive() {
        // At the exact expiry instant the holder is still protected, so a
        // same-instant renewal cannot lose a race with another consumer.
        let mut sqs = Sqs::new();
        sqs.create_queue("q");
        sqs.send(SimTime::ZERO, "q", "m").unwrap();
        let (m, _) = sqs.receive(SimTime::ZERO, "q", VIS).unwrap();
        let id = m.unwrap().id;
        let deadline = SimTime::ZERO + VIS;
        let (race, _) = sqs.receive(deadline, "q", VIS).unwrap();
        assert!(
            race.is_none(),
            "message must stay protected at the deadline"
        );
        sqs.renew_lease(deadline, "q", id, VIS).unwrap();
        let (race, _) = sqs
            .receive(deadline + SimDuration::from_micros(1), "q", VIS)
            .unwrap();
        assert!(race.is_none(), "renewal at the deadline holds the lease");
    }

    #[test]
    fn close_and_drained() {
        let mut sqs = Sqs::new();
        sqs.create_queue("q");
        sqs.send(SimTime::ZERO, "q", "m").unwrap();
        sqs.close("q");
        assert!(!sqs.drained("q").unwrap());
        let (m, _) = sqs.receive(SimTime::ZERO, "q", VIS).unwrap();
        sqs.delete(SimTime::ZERO, "q", m.unwrap().id).unwrap();
        assert!(sqs.drained("q").unwrap());
    }

    #[test]
    fn empty_receive_is_still_billed() {
        let mut sqs = Sqs::new();
        sqs.create_queue("q");
        let (m, _) = sqs.receive(SimTime::ZERO, "q", VIS).unwrap();
        assert!(m.is_none());
        assert_eq!(sqs.stats().requests, 1);
    }

    #[test]
    fn fifo_order_for_visible_messages() {
        let mut sqs = Sqs::new();
        sqs.create_queue("q");
        sqs.send(SimTime::ZERO, "q", "first").unwrap();
        sqs.send(SimTime::ZERO, "q", "second").unwrap();
        let (a, _) = sqs.receive(SimTime::ZERO, "q", VIS).unwrap();
        let (b, _) = sqs.receive(SimTime::ZERO, "q", VIS).unwrap();
        assert_eq!(a.unwrap().body, "first");
        assert_eq!(b.unwrap().body, "second");
    }
}
