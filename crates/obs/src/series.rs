//! Per-service time-series in fixed virtual-time buckets.
//!
//! The derived signals are the ones the paper reads off its service-level
//! plots: request and throttle rates and consumed capacity units per
//! bucket (Figure 10's DynamoDB saturation is a capacity-unit series
//! pinned at the provisioned rate), service busy time as a utilization
//! fraction, and in-flight depth (how many requests overlap the bucket —
//! the queueing view of saturation).

use amada_cloud::{Money, ServiceKind, SimDuration, Span};

/// Aggregates for one `[start, start + width)` window of virtual time.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Bucket {
    /// Requests *starting* in this bucket.
    pub requests: u64,
    /// Throttled requests starting in this bucket.
    pub throttled: u64,
    /// Capacity units consumed by requests starting in this bucket.
    pub units: f64,
    /// Payload bytes moved by requests starting in this bucket.
    pub bytes: u64,
    /// Service busy time charged by requests starting in this bucket.
    pub busy: SimDuration,
    /// Money billed to requests starting in this bucket.
    pub billed: Money,
    /// Spans (from this service) whose `[start, end)` overlaps the
    /// bucket — the in-flight/queue-depth signal. A span ending exactly
    /// on a bucket boundary is *not* in flight in the bucket that starts
    /// there.
    pub in_flight: u64,
    /// Single-server busy time actually *spent* inside this bucket's
    /// window: span busy times are serialized one after another (a
    /// single server works on one request at a time) and the resulting
    /// disjoint intervals are clipped to the bucket. By construction at
    /// most `width` fits — unlike `busy`, which attributes a request's
    /// whole busy time to its submission bucket.
    pub busy_spread: SimDuration,
}

/// A fixed-width bucketed series for one service.
#[derive(Debug, Clone)]
pub struct ServiceSeries {
    /// The service the series describes.
    pub service: ServiceKind,
    /// Bucket width (virtual time).
    pub width: SimDuration,
    /// Buckets from virtual time zero, contiguous.
    pub buckets: Vec<Bucket>,
}

impl ServiceSeries {
    /// Buckets `spans` of `service` into windows of `width`. The series
    /// always starts at virtual time zero and extends to cover the last
    /// span end; an empty span set yields an empty series.
    pub fn build(spans: &[Span], service: ServiceKind, width: SimDuration) -> ServiceSeries {
        assert!(width > SimDuration::ZERO, "bucket width must be positive");
        let w = width.micros();
        let mine: Vec<&Span> = spans.iter().filter(|s| s.service == service).collect();
        // Cover every span's start bucket and its half-open occupancy
        // `[start, end)`: a span ending exactly on a boundary needs no
        // bucket beyond that boundary (the old `horizon/w + 1` minted a
        // trailing always-empty bucket there).
        let n = mine
            .iter()
            .map(|s| ((s.start.micros() / w + 1).max(s.end.micros().div_ceil(w))) as usize)
            .max()
            .unwrap_or(0);
        let mut buckets = vec![Bucket::default(); n];
        for s in &mine {
            let first = (s.start.micros() / w) as usize;
            let b = &mut buckets[first];
            b.requests += 1;
            if s.outcome == amada_cloud::Outcome::Throttled {
                b.throttled += 1;
            }
            b.units += s.units;
            b.bytes += s.bytes;
            b.busy += s.busy;
            b.billed += s.billed;
            // Half-open occupancy: a span ending exactly on a bucket
            // boundary is not in flight in the bucket that starts there
            // (a zero-length span still occupies its start bucket).
            let last = if s.end > s.start {
                ((s.end.micros() - 1) / w) as usize
            } else {
                first
            };
            for bucket in buckets.iter_mut().take(last + 1).skip(first) {
                bucket.in_flight += 1;
            }
        }
        // Single-server spread of busy time: serialize the spans' busy
        // periods in start order (the server works on one request at a
        // time) and clip each resulting disjoint interval to the buckets
        // it crosses. Busy time pushed past the series horizon by
        // queueing is dropped, keeping the signal within the window.
        let mut by_start: Vec<&&Span> = mine.iter().collect();
        by_start.sort_by_key(|s| (s.start, s.end));
        let mut cursor: u64 = 0;
        for s in by_start {
            let busy_start = cursor.max(s.start.micros());
            let busy_end = busy_start + s.busy.micros();
            cursor = busy_end;
            let mut lo = busy_start;
            while lo < busy_end {
                let bucket = (lo / w) as usize;
                if bucket >= buckets.len() {
                    break;
                }
                let hi = busy_end.min((bucket as u64 + 1) * w);
                buckets[bucket].busy_spread += SimDuration::from_micros(hi - lo);
                lo = hi;
            }
        }
        ServiceSeries {
            service,
            width,
            buckets,
        }
    }

    /// Busy time over bucket width — the utilization fraction of bucket
    /// `i` (can exceed 1.0 when requests submitted in one bucket keep the
    /// server busy into later ones; the series attributes busy time to
    /// the submission bucket). For a bounded single-server signal read
    /// [`Bucket::busy_spread`].
    pub fn utilization(&self, i: usize) -> f64 {
        self.buckets[i].busy.micros() as f64 / self.width.micros() as f64
    }

    /// Fraction of bucket `i`'s requests that were throttled (0.0 for an
    /// idle bucket).
    pub fn throttle_rate(&self, i: usize) -> f64 {
        let b = &self.buckets[i];
        if b.requests == 0 {
            0.0
        } else {
            b.throttled as f64 / b.requests as f64
        }
    }

    /// Total requests across the series.
    pub fn total_requests(&self) -> u64 {
        self.buckets.iter().map(|b| b.requests).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use amada_cloud::{Ctx, Outcome, SimTime};

    fn span(service: ServiceKind, start: u64, end: u64) -> Span {
        Span::new(service, "op", SimTime(start), SimTime(end), &Ctx::default())
    }

    #[test]
    fn spans_land_in_their_start_bucket() {
        let width = SimDuration::from_micros(100);
        let spans = vec![
            span(ServiceKind::Kv, 0, 10).units(2.0).bytes(5),
            span(ServiceKind::Kv, 150, 160).units(1.0),
            span(ServiceKind::S3, 0, 10), // other service: excluded
        ];
        let s = ServiceSeries::build(&spans, ServiceKind::Kv, width);
        assert_eq!(s.buckets.len(), 2);
        assert_eq!(s.buckets[0].requests, 1);
        assert_eq!(s.buckets[0].units, 2.0);
        assert_eq!(s.buckets[0].bytes, 5);
        assert_eq!(s.buckets[1].requests, 1);
        assert_eq!(s.total_requests(), 2);
    }

    #[test]
    fn in_flight_counts_every_overlapped_bucket() {
        let width = SimDuration::from_micros(100);
        // One long request spanning buckets 0..=2, one short in bucket 2.
        let spans = vec![
            span(ServiceKind::Sqs, 50, 250),
            span(ServiceKind::Sqs, 210, 220),
        ];
        let s = ServiceSeries::build(&spans, ServiceKind::Sqs, width);
        assert_eq!(s.buckets.len(), 3);
        assert_eq!(s.buckets[0].in_flight, 1);
        assert_eq!(s.buckets[1].in_flight, 1);
        assert_eq!(s.buckets[2].in_flight, 2);
        // But each request is only counted once for rates.
        assert_eq!(s.buckets[2].requests, 1);
    }

    #[test]
    fn throttle_rate_and_utilization() {
        let width = SimDuration::from_micros(1000);
        let spans = vec![
            span(ServiceKind::Kv, 0, 10).busy(SimDuration::from_micros(500)),
            span(ServiceKind::Kv, 10, 20).outcome(Outcome::Throttled),
        ];
        let s = ServiceSeries::build(&spans, ServiceKind::Kv, width);
        assert_eq!(s.throttle_rate(0), 0.5);
        assert_eq!(s.utilization(0), 0.5);
    }

    #[test]
    fn empty_series() {
        let s = ServiceSeries::build(&[], ServiceKind::Ec2, SimDuration::from_secs(1));
        assert!(s.buckets.is_empty());
        assert_eq!(s.total_requests(), 0);
    }

    #[test]
    fn a_span_ending_on_a_boundary_mints_no_trailing_bucket() {
        let width = SimDuration::from_micros(100);
        // Ends exactly at 200 = bucket boundary: two buckets, not three.
        let spans = vec![span(ServiceKind::Kv, 50, 200)];
        let s = ServiceSeries::build(&spans, ServiceKind::Kv, width);
        assert_eq!(s.buckets.len(), 2);
        assert_eq!(s.buckets[0].in_flight, 1);
        assert_eq!(s.buckets[1].in_flight, 1);
        // One microsecond later and the third bucket is real.
        let spans = vec![span(ServiceKind::Kv, 50, 201)];
        let s = ServiceSeries::build(&spans, ServiceKind::Kv, width);
        assert_eq!(s.buckets.len(), 3);
        assert_eq!(s.buckets[2].in_flight, 1);
    }

    #[test]
    fn boundary_spans_are_not_double_counted_in_flight() {
        let width = SimDuration::from_micros(100);
        // Ends exactly at 100: in flight in bucket 0 only. The second
        // span keeps the series two buckets long.
        let spans = vec![
            span(ServiceKind::Kv, 0, 100),
            span(ServiceKind::Kv, 150, 160),
        ];
        let s = ServiceSeries::build(&spans, ServiceKind::Kv, width);
        assert_eq!(s.buckets.len(), 2);
        assert_eq!(s.buckets[0].in_flight, 1);
        assert_eq!(s.buckets[1].in_flight, 1, "only the second span");
    }

    #[test]
    fn zero_duration_spans_occupy_their_start_bucket() {
        let width = SimDuration::from_micros(100);
        let spans = vec![span(ServiceKind::Actor, 100, 100)];
        let s = ServiceSeries::build(&spans, ServiceKind::Actor, width);
        assert_eq!(s.buckets.len(), 2, "start bucket 1 must exist");
        assert_eq!(s.buckets[1].requests, 1);
        assert_eq!(s.buckets[1].in_flight, 1);
        assert_eq!(s.buckets[0].in_flight, 0);
    }

    #[test]
    fn spread_utilization_is_bounded_by_one_under_saturation() {
        let width = SimDuration::from_micros(100);
        // Ten requests all submitted in bucket 0, each with 80 µs of
        // busy time: 8× oversubscribed. The naive utilization explodes;
        // the single-server spread serializes the work across buckets
        // and never exceeds 1.0 in any of them.
        let spans: Vec<Span> = (0..10)
            .map(|i| span(ServiceKind::Kv, i, 900).busy(SimDuration::from_micros(80)))
            .collect();
        let s = ServiceSeries::build(&spans, ServiceKind::Kv, width);
        assert!(s.utilization(0) > 1.0, "naive view overshoots by design");
        for (i, b) in s.buckets.iter().enumerate() {
            assert!(b.busy_spread <= width, "bucket {i}: {:?}", b.busy_spread);
        }
        // The early buckets are fully busy (back-to-back work).
        assert_eq!(s.buckets[0].busy_spread, width);
        assert_eq!(s.buckets[1].busy_spread, width);
        // Total spread busy time within the window never exceeds the
        // serialized total (here 800 µs fits entirely).
        let total: u64 = s.buckets.iter().map(|b| b.busy_spread.micros()).sum();
        assert_eq!(total, 800);
    }

    #[test]
    fn spread_busy_past_the_horizon_is_dropped() {
        let width = SimDuration::from_micros(100);
        // 250 µs of busy time on a span whose series ends at bucket 1:
        // the overflow past 200 µs is dropped, not misattributed.
        let spans = vec![span(ServiceKind::Kv, 0, 150).busy(SimDuration::from_micros(250))];
        let s = ServiceSeries::build(&spans, ServiceKind::Kv, width);
        assert_eq!(s.buckets.len(), 2);
        assert_eq!(s.buckets[0].busy_spread.micros(), 100);
        assert_eq!(s.buckets[1].busy_spread.micros(), 100);
    }
}
