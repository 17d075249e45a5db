//! Per-query virtual-latency extraction and exact percentiles.
//!
//! Every span recorded while a query is being processed carries the
//! query's name in its context tag ([`amada_cloud::Ctx::query`]); a
//! query's virtual latency is the wall of its span envelope — first
//! tagged span start to last tagged span end. Open-loop runs give every
//! arrival a unique name (`{query}#{seq}`), so the envelope is exact per
//! arrival even when the same query text is drawn thousands of times.
//!
//! Percentiles are **exact** (nearest-rank over the full sorted sample),
//! not a streaming sketch: the sample is the recorded run itself, so
//! there is nothing to approximate — p99 of 10 000 arrivals is the
//! 9 900th smallest latency, reproducibly.

use amada_cloud::{SimDuration, Span};
use std::collections::BTreeMap;

/// Virtual latency of every named query in span order of first
/// appearance: `(query name, last tagged end − first tagged start)`.
/// Untagged spans (uploads, front-end collection, actor housekeeping)
/// contribute nothing.
pub fn query_latencies(spans: &[Span]) -> Vec<(String, SimDuration)> {
    // Envelope per name; BTreeMap iteration would sort by name, so track
    // first-appearance order separately for a stable, run-ordered report.
    let mut envelopes: BTreeMap<&str, (amada_cloud::SimTime, amada_cloud::SimTime)> =
        BTreeMap::new();
    let mut order: Vec<&str> = Vec::new();
    for s in spans {
        let Some(name) = s.ctx.query.as_deref() else {
            continue;
        };
        match envelopes.get_mut(name) {
            Some((start, end)) => {
                *start = (*start).min(s.start);
                *end = (*end).max(s.end);
            }
            None => {
                envelopes.insert(name, (s.start, s.end));
                order.push(name);
            }
        }
    }
    order
        .into_iter()
        .map(|name| {
            let (start, end) = envelopes[name];
            (name.to_string(), end - start)
        })
        .collect()
}

/// Exact nearest-rank percentiles over a latency sample.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LatencySummary {
    /// Sample size.
    pub count: usize,
    /// Median (50th percentile, nearest rank).
    pub p50: SimDuration,
    /// 95th percentile.
    pub p95: SimDuration,
    /// 99th percentile.
    pub p99: SimDuration,
    /// Largest latency in the sample.
    pub max: SimDuration,
}

impl LatencySummary {
    /// Summarizes a sample; zero everywhere for an empty one.
    pub fn from_durations(mut sample: Vec<SimDuration>) -> LatencySummary {
        sample.sort();
        let pick = |p: f64| -> SimDuration {
            if sample.is_empty() {
                return SimDuration::ZERO;
            }
            // Nearest rank: the ⌈p·n⌉-th smallest value (1-indexed).
            let rank = ((p * sample.len() as f64).ceil() as usize).clamp(1, sample.len());
            sample[rank - 1]
        };
        LatencySummary {
            count: sample.len(),
            p50: pick(0.50),
            p95: pick(0.95),
            p99: pick(0.99),
            max: sample.last().copied().unwrap_or(SimDuration::ZERO),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use amada_cloud::{Ctx, ServiceKind, SimTime};

    fn tagged(name: &str, start: u64, end: u64) -> Span {
        let ctx = Ctx {
            query: Some(name.into()),
            ..Ctx::default()
        };
        Span::new(ServiceKind::Kv, "get", SimTime(start), SimTime(end), &ctx)
    }

    #[test]
    fn latency_is_the_span_envelope_per_name() {
        let spans = vec![
            tagged("q1#0", 100, 150),
            Span::new(
                ServiceKind::Sqs,
                "receive",
                SimTime(0),
                SimTime(999),
                &Ctx::default(),
            ),
            tagged("q1#0", 300, 420),
            tagged("q2#1", 200, 230),
        ];
        let lat = query_latencies(&spans);
        assert_eq!(
            lat,
            vec![
                ("q1#0".to_string(), SimDuration::from_micros(320)),
                ("q2#1".to_string(), SimDuration::from_micros(30)),
            ]
        );
    }

    #[test]
    fn percentiles_are_exact_nearest_rank() {
        // 1..=100 µs: p50 = 50, p95 = 95, p99 = 99, max = 100.
        let sample: Vec<SimDuration> = (1..=100).map(SimDuration::from_micros).collect();
        let s = LatencySummary::from_durations(sample);
        assert_eq!(s.count, 100);
        assert_eq!(s.p50, SimDuration::from_micros(50));
        assert_eq!(s.p95, SimDuration::from_micros(95));
        assert_eq!(s.p99, SimDuration::from_micros(99));
        assert_eq!(s.max, SimDuration::from_micros(100));
        // A single sample is every percentile.
        let one = LatencySummary::from_durations(vec![SimDuration::from_micros(7)]);
        assert_eq!(one.p50, SimDuration::from_micros(7));
        assert_eq!(one.p99, SimDuration::from_micros(7));
    }

    #[test]
    fn empty_sample_is_all_zero() {
        let s = LatencySummary::from_durations(Vec::new());
        assert_eq!(s.count, 0);
        assert_eq!(s.p99, SimDuration::ZERO);
        assert_eq!(s.max, SimDuration::ZERO);
    }
}
