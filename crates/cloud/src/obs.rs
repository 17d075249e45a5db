//! Virtual-time observability: a structured event recorder over the
//! simulated cloud.
//!
//! Every billed service call, throttle, retry and actor phase becomes a
//! [`Span`] keyed to the virtual clock: `(service, op, start, end, busy,
//! bytes, capacity units, billed Money, outcome, context)`. The recorder
//! is **off by default** and follows the same contract as the fault
//! injector's zero-rate mode: a disabled recorder is a `None` and every
//! hook is a no-op, so recording can never change virtual outcomes,
//! service times or bills — it only *watches* them (identity-tested in
//! `tests/observability.rs`).
//!
//! Billed amounts are computed inside the recorder from a [`PriceTable`]
//! snapshot taken when recording was enabled; the services stay
//! price-ignorant and keep reporting raw counters to the cost model, so
//! the ledger and the spans are two independent views of the same
//! requests — which is what makes the span/ledger reconciliation tests
//! meaningful.
//!
//! Context tags ([`Ctx`]) are set by whichever actor is currently being
//! stepped (the engine is single-threaded, so the "current context" is
//! well-defined); spans recorded during that step inherit the tag. This is
//! what lets `amada-obs` decompose cost per build phase, per query and per
//! document, in the style of the paper's Figures 9b/9c and 12.

use crate::clock::{SimDuration, SimTime};
use crate::money::Money;
use crate::pricing::PriceTable;
use std::sync::{Arc, Mutex};

/// Which simulated service a span belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum ServiceKind {
    /// The file store (S3).
    S3,
    /// The index store (DynamoDB or SimpleDB).
    Kv,
    /// The queue service (SQS).
    Sqs,
    /// Virtual instances (EC2) — derived from instance records at export.
    Ec2,
    /// Data leaving the cloud (the "AWSDown" component).
    Egress,
    /// Actor-level phases (not a billed service; spans carry no charge).
    Actor,
}

impl ServiceKind {
    /// All kinds, in report order.
    pub const ALL: [ServiceKind; 6] = [
        ServiceKind::S3,
        ServiceKind::Kv,
        ServiceKind::Sqs,
        ServiceKind::Ec2,
        ServiceKind::Egress,
        ServiceKind::Actor,
    ];

    /// Short label for tables and trace categories.
    pub fn label(self) -> &'static str {
        match self {
            ServiceKind::S3 => "s3",
            ServiceKind::Kv => "kv",
            ServiceKind::Sqs => "sqs",
            ServiceKind::Ec2 => "ec2",
            ServiceKind::Egress => "egress",
            ServiceKind::Actor => "actor",
        }
    }
}

/// How a recorded request ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Outcome {
    /// Served normally.
    #[default]
    Ok,
    /// Rejected by the fault injector (billed, no data moved).
    Throttled,
    /// Served but the object did not exist (billed, no data moved).
    Missing,
}

impl Outcome {
    /// Short label for tables and trace arguments.
    pub fn label(self) -> &'static str {
        match self {
            Outcome::Ok => "ok",
            Outcome::Throttled => "throttled",
            Outcome::Missing => "missing",
        }
    }
}

/// The warehouse phase a request was issued from.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub enum Phase {
    /// Outside any tagged phase.
    #[default]
    Other,
    /// Front-end document upload (steps 1–3).
    Upload,
    /// Index building (steps 4–6).
    Build,
    /// Query processing (steps 9–15).
    Query,
    /// Front-end result retrieval (steps 16–18).
    Frontend,
}

impl Phase {
    /// All phases, in report order.
    pub const ALL: [Phase; 5] = [
        Phase::Upload,
        Phase::Build,
        Phase::Query,
        Phase::Frontend,
        Phase::Other,
    ];

    /// Short label for tables and trace arguments.
    pub fn label(self) -> &'static str {
        match self {
            Phase::Other => "other",
            Phase::Upload => "upload",
            Phase::Build => "build",
            Phase::Query => "query",
            Phase::Frontend => "frontend",
        }
    }
}

/// Which actor issued a request (for trace lanes).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ActorTag {
    /// Actor family: `"loader"`, `"query"`, `"frontend"`.
    pub kind: &'static str,
    /// Instance index within the registry (lane id in the trace).
    pub instance: usize,
}

/// The context tag attached to every span recorded while it is current.
#[derive(Debug, Clone, Default)]
pub struct Ctx {
    /// Warehouse phase.
    pub phase: Phase,
    /// Query name, while a query is being processed.
    pub query: Option<Arc<str>>,
    /// Document URI, while a document is being uploaded or indexed.
    pub doc: Option<Arc<str>>,
    /// The issuing actor.
    pub actor: Option<ActorTag>,
}

/// One recorded event: a service call, throttle, or actor phase.
#[derive(Debug, Clone)]
pub struct Span {
    /// Service the event belongs to.
    pub service: ServiceKind,
    /// Operation name (`"put"`, `"receive"`, `"lookup_get"`, …).
    pub op: &'static str,
    /// Virtual time the request was issued.
    pub start: SimTime,
    /// Virtual time the response (or failure) was available.
    pub end: SimTime,
    /// Service-queue busy time consumed (zero for unqueued/actor spans).
    pub busy: SimDuration,
    /// Payload bytes moved.
    pub bytes: u64,
    /// Capacity units consumed (the fractional service-time model).
    pub units: f64,
    /// What this request was billed, under the recorder's price table.
    pub billed: Money,
    /// How the request ended.
    pub outcome: Outcome,
    /// Index-store shard that served the request, when the store is
    /// sharded and the shard is determined (`None` otherwise — unsharded
    /// stores, non-KV services, multi-shard batch throttles).
    pub shard: Option<usize>,
    /// Context current when the span was recorded.
    pub ctx: Ctx,
}

impl Span {
    /// A span with no payload, no charge and an `Ok` outcome; chain the
    /// builder methods for the rest.
    pub fn new(
        service: ServiceKind,
        op: &'static str,
        start: SimTime,
        end: SimTime,
        ctx: &Ctx,
    ) -> Span {
        Span {
            service,
            op,
            start,
            end,
            busy: SimDuration::ZERO,
            bytes: 0,
            units: 0.0,
            billed: Money::ZERO,
            outcome: Outcome::Ok,
            shard: None,
            ctx: ctx.clone(),
        }
    }

    /// Sets the bytes moved.
    pub fn bytes(mut self, bytes: u64) -> Span {
        self.bytes = bytes;
        self
    }

    /// Sets the capacity units consumed.
    pub fn units(mut self, units: f64) -> Span {
        self.units = units;
        self
    }

    /// Sets the billed amount.
    pub fn billed(mut self, billed: Money) -> Span {
        self.billed = billed;
        self
    }

    /// Sets the service busy time.
    pub fn busy(mut self, busy: SimDuration) -> Span {
        self.busy = busy;
        self
    }

    /// Sets the outcome.
    pub fn outcome(mut self, outcome: Outcome) -> Span {
        self.outcome = outcome;
        self
    }

    /// Tags the span with the index-store shard that served it.
    pub fn shard(mut self, shard: Option<usize>) -> Span {
        self.shard = shard;
        self
    }

    /// Span duration (`end − start`).
    pub fn duration(&self) -> SimDuration {
        self.end - self.start
    }
}

#[derive(Debug)]
struct Inner {
    spans: Arc<Vec<Span>>,
    ctx: Ctx,
    prices: PriceTable,
}

/// The span recorder handed to every service.
///
/// Cloning is cheap and shares the underlying buffer (the `World` installs
/// clones of one recorder into each service). The disabled recorder is a
/// `None`: every method returns immediately without locking, allocating or
/// observing anything, so a world that never enables recording is
/// bit-identical to one built before this module existed.
#[derive(Debug, Clone, Default)]
pub struct Recorder(Option<Arc<Mutex<Inner>>>);

impl Recorder {
    /// The disabled recorder (the default everywhere).
    pub fn off() -> Recorder {
        Recorder(None)
    }

    /// An enabled recorder billing spans under `prices`.
    pub fn enabled(prices: PriceTable) -> Recorder {
        Recorder(Some(Arc::new(Mutex::new(Inner {
            spans: Arc::default(),
            ctx: Ctx::default(),
            prices,
        }))))
    }

    /// True when spans are being collected.
    pub fn is_on(&self) -> bool {
        self.0.is_some()
    }

    /// Records the span built by `f`, which receives the price table and
    /// the current context. No-op (and `f` never runs) when disabled —
    /// instrumentation sites pay only an `Option` check.
    pub fn record(&self, f: impl FnOnce(&PriceTable, &Ctx) -> Span) {
        if let Some(inner) = &self.0 {
            let mut g = inner.lock().expect("recorder lock");
            let span = f(&g.prices, &g.ctx);
            Arc::make_mut(&mut g.spans).push(span);
        }
    }

    /// Mutates the current context (no-op when disabled). Actors call this
    /// at the top of each engine step so the spans their service calls
    /// produce carry the right phase/query/document tags.
    pub fn with_ctx(&self, f: impl FnOnce(&mut Ctx)) {
        if let Some(inner) = &self.0 {
            f(&mut inner.lock().expect("recorder lock").ctx);
        }
    }

    /// Every span recorded so far (empty when disabled): a snapshot sharing
    /// the buffer, which a span recorded while it is held copies first.
    pub fn spans(&self) -> Arc<Vec<Span>> {
        match &self.0 {
            Some(inner) => inner.lock().expect("recorder lock").spans.clone(),
            None => Arc::default(),
        }
    }

    /// Number of spans recorded so far.
    pub fn span_count(&self) -> usize {
        match &self.0 {
            Some(inner) => inner.lock().expect("recorder lock").spans.len(),
            None => 0,
        }
    }

    /// The price table spans are billed under (the default table when
    /// disabled).
    pub fn prices(&self) -> PriceTable {
        match &self.0 {
            Some(inner) => inner.lock().expect("recorder lock").prices.clone(),
            None => PriceTable::default(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_recorder_never_runs_the_closure() {
        let rec = Recorder::off();
        assert!(!rec.is_on());
        rec.record(|_, _| unreachable!("off recorder must not build spans"));
        rec.with_ctx(|_| unreachable!("off recorder has no context"));
        assert_eq!(rec.span_count(), 0);
        assert!(rec.spans().is_empty());
    }

    #[test]
    fn clones_share_the_span_buffer() {
        let a = Recorder::enabled(PriceTable::default());
        let b = a.clone();
        b.record(|p, ctx| {
            Span::new(ServiceKind::S3, "put", SimTime::ZERO, SimTime(12), ctx)
                .bytes(42)
                .billed(p.st_put)
        });
        assert_eq!(a.span_count(), 1);
        let spans = a.spans();
        assert_eq!(spans[0].bytes, 42);
        assert_eq!(spans[0].billed, PriceTable::default().st_put);
        assert_eq!(spans[0].duration(), SimDuration::from_micros(12));
    }

    #[test]
    fn a_snapshot_shares_the_buffer_and_never_changes() {
        let rec = Recorder::enabled(PriceTable::default());
        let put = |at| {
            rec.record(|_, ctx| Span::new(ServiceKind::S3, "put", SimTime(at), SimTime(at), ctx))
        };
        put(1);
        // Two snapshots with nothing recorded in between are one buffer…
        let (first, again) = (rec.spans(), rec.spans());
        assert!(Arc::ptr_eq(&first, &again));
        drop(again);
        // …a span recorded while one is held leaves it as it was…
        put(2);
        assert_eq!((first.len(), rec.span_count()), (1, 2));
        drop(first);
        // …and with none held, recording appends in place.
        let before = rec.spans().as_ptr();
        put(3);
        assert_eq!(rec.spans().as_ptr(), before);
        assert_eq!(rec.spans().len(), 3);
    }

    #[test]
    fn context_tags_apply_to_later_spans_only() {
        let rec = Recorder::enabled(PriceTable::default());
        rec.record(|_, ctx| Span::new(ServiceKind::Sqs, "send", SimTime::ZERO, SimTime(1), ctx));
        rec.with_ctx(|c| {
            c.phase = Phase::Query;
            c.query = Some("q7".into());
        });
        rec.record(|_, ctx| Span::new(ServiceKind::Kv, "get", SimTime(1), SimTime(2), ctx));
        let spans = rec.spans();
        assert_eq!(spans[0].ctx.phase, Phase::Other);
        assert!(spans[0].ctx.query.is_none());
        assert_eq!(spans[1].ctx.phase, Phase::Query);
        assert_eq!(spans[1].ctx.query.as_deref(), Some("q7"));
    }
}
