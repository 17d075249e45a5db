//! The simulated file store (Amazon S3 in the paper's deployment).
//!
//! S3's role in the architecture is simple: a durable, highly-available
//! blob store holding whole XML documents and query results. It scales
//! horizontally, so requests are *not* queued against a global capacity;
//! each request pays a latency floor plus transfer time at a per-connection
//! bandwidth (paper Section 6 notes bucket count does not affect
//! performance, so one namespace is as good as many). The queue is the
//! client's connection: a request holds it for the `busy` time its span
//! records (request overhead plus transfer), and its [`S3::latency`] does
//! not, so a client sends its next request on the connection while the
//! previous response is still on its way.

use crate::clock::{SimDuration, SimTime};
use crate::fault::FaultInjector;
use crate::money::Money;
use crate::obs::{Outcome, Recorder, ServiceKind, Span};
use crate::pricing::PRICES;
use crate::service::ServiceQueue;
use std::collections::HashMap;
use std::fmt;
use std::sync::{Arc, OnceLock};

/// Errors from the file store.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum S3Error {
    /// `get` of an object that does not exist.
    NoSuchKey { bucket: String, key: String },
    /// Operation on a bucket that was never created.
    NoSuchBucket(String),
    /// `503 SlowDown` — the request was throttled (retryable); the failure
    /// response arrives at `available_at`. The request was still billed.
    SlowDown {
        /// When the caller learns about the failure.
        available_at: SimTime,
    },
}

impl fmt::Display for S3Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            S3Error::NoSuchKey { bucket, key } => write!(f, "no such key: {bucket}/{key}"),
            S3Error::NoSuchBucket(b) => write!(f, "no such bucket: {b}"),
            S3Error::SlowDown { available_at } => {
                write!(f, "503 SlowDown (response at {:?})", available_at)
            }
        }
    }
}

impl std::error::Error for S3Error {}

impl crate::fault::RetryAfter for S3Error {
    fn retry_after(&self) -> Option<SimTime> {
        match self {
            S3Error::SlowDown { available_at } => Some(*available_at),
            _ => None,
        }
    }
}

/// FNV-1a over `bytes` — the cheap, deterministic content hash behind
/// object ETags and cache validation.
pub fn content_hash(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h
}

/// A stored object: its bytes plus their [`content_hash`] (S3's ETag),
/// computed when first asked for and kept, so a holder validates a host-side
/// cache entry without rehashing and a query's result object is never hashed.
#[derive(Debug, Clone)]
pub struct Blob {
    bytes: Vec<u8>,
    etag: OnceLock<u64>,
}

impl Blob {
    /// Wraps `bytes`; their hash waits for [`Blob::etag`].
    pub fn new(bytes: Vec<u8>) -> Blob {
        Blob {
            bytes,
            etag: OnceLock::new(),
        }
    }

    /// The content hash of the bytes.
    pub fn etag(&self) -> u64 {
        *self.etag.get_or_init(|| content_hash(&self.bytes))
    }
}

/// The ETag is a function of the bytes, so equality is theirs alone.
impl PartialEq for Blob {
    fn eq(&self, other: &Blob) -> bool {
        self.bytes == other.bytes
    }
}

impl Eq for Blob {}

impl std::ops::Deref for Blob {
    type Target = Vec<u8>;

    fn deref(&self) -> &Vec<u8> {
        &self.bytes
    }
}

/// Usage counters (feed the `ST*` components of the cost model).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct S3Stats {
    /// Put requests (billed `STput$` each).
    pub put_requests: u64,
    /// Get requests (billed `STget$` each).
    pub get_requests: u64,
    /// Server-side scan requests. Nothing increments it: the store has
    /// no scan. It stays for readers that sum every request kind.
    pub scan_requests: u64,
    /// Bytes uploaded.
    pub bytes_in: u64,
    /// Bytes downloaded.
    pub bytes_out: u64,
    /// Bytes currently stored (the `s(D)` of the storage cost).
    pub stored_bytes: u64,
    /// Delete requests. Counted for observability but billed nothing:
    /// S3 DELETEs are free of request charges.
    pub delete_requests: u64,
    /// Requests rejected with `SlowDown` by the fault injector (each one
    /// billed as a request but moving no data).
    pub throttled: u64,
}

/// A bucket's objects, and their sorted keys while no key came or went
/// since the last listing sorted them.
#[derive(Default)]
struct Bucket {
    /// Object keys are shared: a listing hands out the store's own.
    objects: HashMap<Arc<str>, Arc<Blob>>,
    listing: Option<Vec<Arc<str>>>,
}

/// The simulated file store.
pub struct S3 {
    buckets: HashMap<String, Bucket>,
    stats: S3Stats,
    transfer: ServiceQueue,
    faults: FaultInjector,
    obs: Recorder,
}

impl S3 {
    /// Creates a store with default service parameters: 12 ms request
    /// latency, 25 MB/s per-connection transfer.
    pub fn new() -> S3 {
        S3 {
            buckets: HashMap::new(),
            stats: S3Stats::default(),
            transfer: ServiceQueue::new(
                SimDuration::from_millis(3),
                25.0 * 1024.0 * 1024.0,
                SimDuration::from_millis(12),
            ),
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

    /// True when a fault injector with a non-zero rate is installed
    /// (lets callers skip keeping retry copies of payloads otherwise).
    pub fn faults_active(&self) -> bool {
        self.faults.is_active()
    }

    /// The request latency: the tail of every response that no longer
    /// holds the client's connection.
    pub fn latency(&self) -> SimDuration {
        self.transfer.latency
    }

    /// The single admission step of a data-plane request. An unknown
    /// bucket is a client-side error: it bills nothing, counts nothing and
    /// draws nothing from the fault stream. Otherwise the request is
    /// counted (`count` picks its counter) and the fault injector rolled;
    /// a throttled request moved no payload, its error response arrives
    /// after the request-latency floor and it bills `throttled_bill` — what
    /// a request of its kind costs (nothing for a DELETE).
    fn admit(
        &mut self,
        now: SimTime,
        bucket: &str,
        op: &'static str,
        count: fn(&mut S3Stats) -> &mut u64,
        throttled_bill: Money,
    ) -> Result<(), S3Error> {
        if !self.buckets.contains_key(bucket) {
            return Err(S3Error::NoSuchBucket(bucket.to_string()));
        }
        *count(&mut self.stats) += 1;
        if self.faults.roll() {
            self.stats.throttled += 1;
            let available_at = now + self.transfer.latency;
            self.obs.record(|ctx| {
                Span::new(ServiceKind::S3, op, now, available_at, ctx)
                    .billed(throttled_bill)
                    .outcome(Outcome::Throttled)
            });
            return Err(S3Error::SlowDown { available_at });
        }
        Ok(())
    }

    /// Creates a bucket (idempotent).
    pub fn create_bucket(&mut self, name: &str) {
        self.buckets.entry(name.to_string()).or_default();
    }

    /// Stores an object, replacing any previous version.
    pub fn put(
        &mut self,
        now: SimTime,
        bucket: &str,
        key: &str,
        data: Vec<u8>,
    ) -> Result<SimTime, S3Error> {
        self.admit(now, bucket, "put", |s| &mut s.put_requests, PRICES.st_put)?;
        let b = self.buckets.get_mut(bucket).expect("checked by admit");
        let len = data.len() as u64;
        self.stats.bytes_in += len;
        match b.objects.insert(key.into(), Arc::new(Blob::new(data))) {
            Some(old) => self.stats.stored_bytes -= old.len() as u64,
            None => b.listing = None,
        }
        self.stats.stored_bytes += len;
        let ready = self.transfer.serve_unqueued(now, len as f64);
        let busy = self.transfer.service_time(len as f64);
        self.obs.record(|ctx| {
            Span::new(ServiceKind::S3, "put", now, ready, ctx)
                .bytes(len)
                .busy(busy)
                .billed(PRICES.st_put)
        });
        Ok(ready)
    }

    /// Deletes an object. S3 DELETE requests are free of request charges,
    /// so the span carries a zero bill; the storage saving shows up in
    /// `stored_bytes` (and therefore in the monthly storage cost). Like
    /// real S3 (which answers 204 whether or not the key exists), deleting
    /// a missing key is an idempotent success — the property retries and
    /// redeliveries lean on. Throttles still happen: a delete is a
    /// data-plane request and the injector treats it like any other.
    pub fn delete(&mut self, now: SimTime, bucket: &str, key: &str) -> Result<SimTime, S3Error> {
        self.admit(
            now,
            bucket,
            "delete",
            |s| &mut s.delete_requests,
            Money::ZERO,
        )?;
        let b = self.buckets.get_mut(bucket).expect("checked by admit");
        let removed = b.objects.remove(key);
        if let Some(old) = &removed {
            self.stats.stored_bytes -= old.len() as u64;
            b.listing = None;
        }
        let end = now + self.transfer.latency;
        self.obs.record(|ctx| {
            let span = Span::new(ServiceKind::S3, "delete", now, end, ctx);
            match &removed {
                Some(old) => span.bytes(old.len() as u64),
                None => span.outcome(Outcome::Missing),
            }
        });
        Ok(end)
    }

    /// Retrieves an object (shared, zero-copy for the simulation host).
    ///
    /// A `NoSuchKey` miss is still a billed GET — real S3 charges for the
    /// request whether or not the object exists. Only `NoSuchBucket` is
    /// free, mirroring SQS's unbilled `NoSuchQueue`: a misconfigured
    /// endpoint is a client-side error, a missing object is a served
    /// request.
    pub fn get(
        &mut self,
        now: SimTime,
        bucket: &str,
        key: &str,
    ) -> Result<(Arc<Blob>, SimTime), S3Error> {
        self.admit(now, bucket, "get", |s| &mut s.get_requests, PRICES.st_get)?;
        let b = self.buckets.get(bucket).expect("checked by admit");
        let Some(data) = b.objects.get(key).cloned() else {
            let end = now + self.transfer.latency;
            self.obs.record(|ctx| {
                Span::new(ServiceKind::S3, "get", now, end, ctx)
                    .billed(PRICES.st_get)
                    .outcome(Outcome::Missing)
            });
            return Err(S3Error::NoSuchKey {
                bucket: bucket.into(),
                key: key.into(),
            });
        };
        let len = data.len() as u64;
        self.stats.bytes_out += len;
        let ready = self.transfer.serve_unqueued(now, len as f64);
        let busy = self.transfer.service_time(len as f64);
        self.obs.record(|ctx| {
            Span::new(ServiceKind::S3, "get", now, ready, ctx)
                .bytes(len)
                .busy(busy)
                .billed(PRICES.st_get)
        });
        Ok((data, ready))
    }

    /// Lists the keys of a bucket, in sorted order. Billed as one get-class
    /// request (AWS prices LIST like GET). `now` stamps the request in the
    /// span recorder; the listing itself advances no virtual time.
    pub fn list(&mut self, now: SimTime, bucket: &str) -> Result<Vec<Arc<str>>, S3Error> {
        let b = self
            .buckets
            .get_mut(bucket)
            .ok_or_else(|| S3Error::NoSuchBucket(bucket.to_string()))?;
        let keys = (b.listing.get_or_insert_with(|| {
            let mut keys: Vec<Arc<str>> = b.objects.keys().cloned().collect();
            keys.sort_unstable();
            keys
        }))
        .clone();
        self.stats.get_requests += 1;
        let end = now + self.transfer.latency;
        self.obs
            .record(|ctx| Span::new(ServiceKind::S3, "list", now, end, ctx).billed(PRICES.st_get));
        Ok(keys)
    }

    /// Host-side snapshot of a bucket's objects, in key order. No request
    /// is billed and no virtual time passes — this exists for the host's
    /// cache-prewarm stage, which must not perturb the simulation.
    pub fn peek_all(&self, bucket: &str) -> Vec<(String, Arc<Blob>)> {
        let Some(b) = self.buckets.get(bucket).map(|b| &b.objects) else {
            return Vec::new();
        };
        let mut objects: Vec<(String, Arc<Blob>)> =
            b.iter().map(|(k, v)| (k.to_string(), v.clone())).collect();
        objects.sort_by(|(a, _), (b, _)| a.cmp(b));
        objects
    }

    /// Host-side snapshot of one object (shared, zero-copy). No request
    /// is billed and no virtual time passes — the front end uses this to
    /// capture the *old* version of a document before a replace or delete
    /// destroys it, so stale index entries stay derivable.
    pub fn peek(&self, bucket: &str, key: &str) -> Option<Arc<Blob>> {
        self.buckets.get(bucket)?.objects.get(key).cloned()
    }

    /// Usage counters.
    pub fn stats(&self) -> S3Stats {
        self.stats
    }
}

impl Default for S3 {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn put_get_round_trip() {
        let mut s3 = S3::new();
        s3.create_bucket("docs");
        let t1 = s3
            .put(SimTime::ZERO, "docs", "a.xml", b"<a/>".to_vec())
            .unwrap();
        assert!(t1 > SimTime::ZERO);
        let (data, t2) = s3.get(t1, "docs", "a.xml").unwrap();
        assert_eq!(&**data, b"<a/>");
        assert!(t2 > t1);
    }

    #[test]
    fn missing_objects_and_buckets_error() {
        let mut s3 = S3::new();
        assert!(matches!(
            s3.get(SimTime::ZERO, "nope", "k"),
            Err(S3Error::NoSuchBucket(_))
        ));
        s3.create_bucket("b");
        assert!(matches!(
            s3.get(SimTime::ZERO, "b", "k"),
            Err(S3Error::NoSuchKey { .. })
        ));
    }

    #[test]
    fn missing_key_gets_are_billed_missing_buckets_are_not() {
        let mut s3 = S3::new();
        s3.create_bucket("b");
        // NoSuchKey is a served (and billed) request that moves no data.
        assert!(matches!(
            s3.get(SimTime::ZERO, "b", "ghost"),
            Err(S3Error::NoSuchKey { .. })
        ));
        assert_eq!(s3.stats().get_requests, 1);
        assert_eq!(s3.stats().bytes_out, 0);
        // NoSuchBucket never reaches the service: nothing is billed,
        // mirroring SQS's unbilled NoSuchQueue contract.
        assert!(matches!(
            s3.get(SimTime::ZERO, "nope", "k"),
            Err(S3Error::NoSuchBucket(_))
        ));
        assert_eq!(s3.stats().get_requests, 1);
    }

    #[test]
    fn replacement_keeps_storage_accounting_consistent() {
        let mut s3 = S3::new();
        s3.create_bucket("b");
        s3.put(SimTime::ZERO, "b", "k", vec![0; 100]).unwrap();
        s3.put(SimTime::ZERO, "b", "k", vec![0; 40]).unwrap();
        let st = s3.stats();
        assert_eq!(st.stored_bytes, 40);
        assert_eq!(st.bytes_in, 140);
        assert_eq!(st.put_requests, 2);
    }

    #[test]
    fn list_is_sorted() {
        let mut s3 = S3::new();
        s3.create_bucket("b");
        s3.put(SimTime::ZERO, "b", "z", vec![]).unwrap();
        s3.put(SimTime::ZERO, "b", "a", vec![]).unwrap();
        assert_eq!(
            s3.list(SimTime::ZERO, "b").unwrap(),
            ["a".into(), "z".into()]
        );
    }

    #[test]
    fn the_listing_is_sorted_once_per_key_that_comes_or_goes() {
        let mut s3 = S3::new();
        s3.create_bucket("b");
        let list = |s3: &mut S3| s3.list(SimTime::ZERO, "b").unwrap();
        let cached = |s3: &S3| s3.buckets["b"].listing.clone();
        for key in ["m", "z", "a"] {
            s3.put(SimTime::ZERO, "b", key, vec![1]).unwrap();
        }
        assert_eq!(cached(&s3), None);
        assert_eq!(list(&mut s3), ["a".into(), "m".into(), "z".into()]);
        let first = cached(&s3).unwrap();
        // An overwrite keeps the listing, down to its shared keys.
        s3.put(SimTime::ZERO, "b", "m", vec![2, 2]).unwrap();
        let kept = cached(&s3).unwrap();
        assert!(first.iter().zip(&kept).all(|(a, b)| Arc::ptr_eq(a, b)));
        assert_eq!(list(&mut s3), first);
        // A new key and a delete each drop it; the next listing sees them.
        s3.put(SimTime::ZERO, "b", "c", vec![]).unwrap();
        assert_eq!(cached(&s3), None);
        assert_eq!(
            list(&mut s3),
            ["a".into(), "c".into(), "m".into(), "z".into()]
        );
        s3.delete(SimTime::ZERO, "b", "m").unwrap();
        assert_eq!(cached(&s3), None);
        assert_eq!(list(&mut s3), ["a".into(), "c".into(), "z".into()]);
        assert_eq!(s3.stats().get_requests, 4, "every listing is billed");
    }

    #[test]
    fn listing_an_unknown_bucket_is_an_unbilled_error() {
        let mut s3 = S3::new();
        assert_eq!(
            s3.list(SimTime::ZERO, "nope"),
            Err(S3Error::NoSuchBucket("nope".into()))
        );
        assert_eq!(s3.stats(), S3Stats::default());
    }

    #[test]
    fn the_etag_is_the_content_hash_computed_on_demand() {
        let blob = Blob::new(b"<a>x</a>".to_vec());
        assert_eq!(blob.etag.get(), None);
        let copy = blob.clone();
        assert_eq!(blob.etag(), content_hash(b"<a>x</a>"));
        assert_eq!(blob.clone().etag(), blob.etag());
        assert_eq!(
            copy.etag.get(),
            None,
            "a copy made before the hash has none"
        );
        assert_eq!(copy.etag(), blob.etag());
        // Equality is the bytes', whether or not either side was hashed.
        assert_eq!(blob, Blob::new(b"<a>x</a>".to_vec()));
        assert_ne!(blob, Blob::new(b"<a>y</a>".to_vec()));
    }

    #[test]
    fn a_result_object_is_never_hashed() {
        let mut s3 = S3::new();
        s3.create_bucket("results");
        s3.put(SimTime::ZERO, "results", "q-1.results", b"rows".to_vec())
            .unwrap();
        let (object, _) = s3.get(SimTime::ZERO, "results", "q-1.results").unwrap();
        assert_eq!(object.etag.get(), None);
        assert_eq!(s3.peek("results", "q-1.results").unwrap().etag.get(), None);
    }

    #[test]
    fn throttled_requests_are_billed_but_move_no_data() {
        use crate::fault::FaultInjector;
        let mut s3 = S3::new();
        s3.create_bucket("b");
        s3.put(SimTime::ZERO, "b", "k", vec![0; 1024]).unwrap();
        let clean = s3.stats();
        s3.set_faults(FaultInjector::new(1.0, 9)); // clamped to 0.95
        let mut throttles = 0;
        for _ in 0..50 {
            match s3.get(SimTime(777), "b", "k") {
                Ok(_) => {}
                Err(S3Error::SlowDown { available_at }) => {
                    assert!(available_at > SimTime(777));
                    throttles += 1;
                }
                Err(e) => panic!("unexpected {e}"),
            }
        }
        assert!(throttles > 0, "a 95% rate throttles within 50 calls");
        let st = s3.stats();
        assert_eq!(st.get_requests, clean.get_requests + 50);
        assert_eq!(st.throttled, throttles);
        // Only the successful gets transferred bytes.
        assert_eq!(st.bytes_out, (50 - throttles) * 1024);
    }

    #[test]
    fn delete_frees_storage_and_bills_nothing() {
        let mut s3 = S3::new();
        s3.create_bucket("b");
        s3.put(SimTime::ZERO, "b", "k", vec![0; 100]).unwrap();
        assert_eq!(s3.stats().stored_bytes, 100);
        let done = s3.delete(SimTime(5), "b", "k").unwrap();
        assert!(done > SimTime(5));
        let st = s3.stats();
        assert_eq!(st.stored_bytes, 0);
        assert_eq!(st.delete_requests, 1);
        // Deletes never count toward the billed request classes.
        assert_eq!(st.put_requests, 1);
        assert_eq!(st.get_requests, 0);
        assert!(s3.peek("b", "k").is_none());
    }

    #[test]
    fn deleting_a_missing_key_is_an_idempotent_success() {
        let mut s3 = S3::new();
        s3.create_bucket("b");
        s3.delete(SimTime::ZERO, "b", "ghost").unwrap();
        s3.delete(SimTime::ZERO, "b", "ghost").unwrap();
        assert_eq!(s3.stats().delete_requests, 2);
        assert_eq!(s3.stats().stored_bytes, 0);
        // An unknown bucket is still a client-side error.
        assert!(matches!(
            s3.delete(SimTime::ZERO, "nope", "k"),
            Err(S3Error::NoSuchBucket(_))
        ));
        assert_eq!(s3.stats().delete_requests, 2);
    }

    #[test]
    fn every_request_kind_is_admitted_by_the_same_step() {
        use crate::fault::FaultInjector;
        type Call = fn(&mut S3, &str) -> Option<S3Error>;
        let calls: [(&str, Call, Money); 3] = [
            (
                "put",
                |s3, b| s3.put(SimTime(5), b, "k", vec![1]).err(),
                PRICES.st_put,
            ),
            (
                "get",
                |s3, b| s3.get(SimTime(5), b, "k").err(),
                PRICES.st_get,
            ),
            (
                "delete",
                |s3, b| s3.delete(SimTime(5), b, "k").err(),
                Money::ZERO,
            ),
        ];
        for (op, call, throttled_bill) in calls {
            let mut s3 = S3::new();
            s3.create_bucket("b");
            s3.set_faults(FaultInjector::new(1.0, 9)); // clamped to 0.95
            s3.set_recorder(Recorder::enabled());
            // An unknown bucket bills nothing, counts nothing and draws
            // nothing from the fault stream…
            for _ in 0..20 {
                assert!(matches!(
                    call(&mut s3, "nope"),
                    Some(S3Error::NoSuchBucket(_))
                ));
            }
            assert_eq!(s3.stats(), S3Stats::default(), "{op}");
            assert_eq!(s3.obs.span_count(), 0, "{op}");
            // …so the known bucket's requests meet the stream from its start.
            let mut stream = FaultInjector::new(1.0, 9);
            let mut throttles = 0;
            for i in 0..30 {
                let throttled = matches!(call(&mut s3, "b"), Some(S3Error::SlowDown { .. }));
                assert_eq!(throttled, stream.roll(), "{op} request {i}");
                throttles += throttled as u64;
            }
            assert!(throttles > 0, "{op}: a 95% rate throttles within 30 calls");
            let st = s3.stats();
            assert_eq!(st.throttled, throttles, "{op}");
            let counted = st.put_requests + st.get_requests + st.delete_requests;
            assert_eq!(counted, 30, "{op}: throttled requests are counted too");
            let spans = s3.obs.spans();
            let throttled: Vec<&Span> = spans
                .iter()
                .filter(|s| s.outcome == Outcome::Throttled)
                .collect();
            assert_eq!(throttled.len() as u64, throttles, "{op}");
            for span in throttled {
                assert_eq!((span.service, span.op), (ServiceKind::S3, op));
                assert_eq!(span.billed, throttled_bill, "{op}");
                assert_eq!(span.end, SimTime(5) + s3.transfer.latency, "{op}");
                assert_eq!(span.bytes, 0, "{op}");
            }
        }
    }

    #[test]
    fn throttled_deletes_leave_the_object_in_place() {
        use crate::fault::FaultInjector;
        let mut s3 = S3::new();
        s3.create_bucket("b");
        s3.put(SimTime::ZERO, "b", "k", vec![0; 64]).unwrap();
        s3.set_faults(FaultInjector::new(1.0, 9)); // clamped to 0.95
        let mut throttles = 0;
        for _ in 0..50 {
            match s3.delete(SimTime(777), "b", "k") {
                Ok(_) => {}
                Err(S3Error::SlowDown { available_at }) => {
                    assert!(available_at > SimTime(777));
                    throttles += 1;
                }
                Err(e) => panic!("unexpected {e}"),
            }
        }
        assert!(throttles > 0, "a 95% rate throttles within 50 calls");
        let st = s3.stats();
        assert_eq!(st.delete_requests, 50);
        assert_eq!(st.throttled, throttles);
        // At least one of the 50 attempts got through.
        assert!(s3.peek("b", "k").is_none());
    }

    #[test]
    fn transfer_time_scales_with_size() {
        let mut s3 = S3::new();
        s3.create_bucket("b");
        let small = s3.put(SimTime::ZERO, "b", "s", vec![0; 1024]).unwrap();
        let large = s3
            .put(SimTime::ZERO, "b", "l", vec![0; 50 * 1024 * 1024])
            .unwrap();
        assert!(large.micros() > small.micros());
        // 50 MB at 25 MB/s ≈ 2 s.
        assert!((large.as_secs_f64() - 2.0).abs() < 0.1);
    }
}
