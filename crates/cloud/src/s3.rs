//! The simulated file store (Amazon S3 in the paper's deployment).
//!
//! S3's role in the architecture is simple: a durable, highly-available
//! blob store holding whole XML documents and query results. It scales
//! horizontally, so requests are *not* queued against a global capacity;
//! each request pays a latency floor plus transfer time at a per-connection
//! bandwidth (paper Section 6 notes bucket count does not affect
//! performance, so one namespace is as good as many).

use crate::clock::{SimDuration, SimTime};
use crate::fault::FaultInjector;
use crate::money::Money;
use crate::obs::{Outcome, Recorder, ServiceKind, Span};
use crate::pricing::PriceTable;
use crate::service::ServiceQueue;
use std::collections::HashMap;
use std::fmt;
use std::sync::Arc;

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
/// object ETags, cache validation and shard routing.
pub fn content_hash(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h
}

/// A stored object: its bytes plus their [`content_hash`], computed once
/// when the object is stored (S3's ETag). Whoever holds the object can
/// validate a host-side cache entry against it without rehashing.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Blob {
    bytes: Vec<u8>,
    etag: u64,
}

impl Blob {
    /// Wraps `bytes`, hashing them once.
    pub fn new(bytes: Vec<u8>) -> Blob {
        let etag = content_hash(&bytes);
        Blob { bytes, etag }
    }

    /// The content hash of the bytes.
    pub fn etag(&self) -> u64 {
        self.etag
    }
}

impl std::ops::Deref for Blob {
    type Target = Vec<u8>;

    fn deref(&self) -> &Vec<u8> {
        &self.bytes
    }
}

/// A compiled predicate the store can evaluate server-side (the
/// S3-Select analog). The store stays format-agnostic: it hands the
/// predicate the raw object bytes and ships back whatever bytes the
/// predicate filters out of them.
pub trait ObjectPredicate {
    /// Evaluates against the raw object bytes, returning the filtered
    /// result bytes (empty when nothing matches).
    fn filter(&self, bytes: &[u8]) -> Vec<u8>;
}

/// Server-side scan rate: storage-local filtering runs at storage
/// bandwidth, well above the 25 MB/s per-connection transfer pipe.
const SCAN_BYTES_PER_SEC: f64 = 100.0 * 1024.0 * 1024.0;

/// Usage counters (feed the `ST*` components of the cost model).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct S3Stats {
    /// Put requests (billed `STput$` each).
    pub put_requests: u64,
    /// Get requests (billed `STget$` each).
    pub get_requests: u64,
    /// Server-side scan requests (billed `STget$` each, plus
    /// `STscan$_{GB}` on the bytes scanned).
    pub scan_requests: u64,
    /// Bytes uploaded.
    pub bytes_in: u64,
    /// Bytes downloaded.
    pub bytes_out: u64,
    /// Object bytes scanned server-side (billed `STscan$_{GB}`).
    pub bytes_scanned: u64,
    /// Filtered bytes scans returned (billed `egress$_{GB}`; also
    /// counted in `bytes_out` — they leave the storage tier).
    pub scan_returned_bytes: u64,
    /// Bytes currently stored (the `s(D)` of the storage cost).
    pub stored_bytes: u64,
    /// Delete requests. Counted for observability but billed nothing:
    /// S3 DELETEs are free of request charges.
    pub delete_requests: u64,
    /// Requests rejected with `SlowDown` by the fault injector (each one
    /// billed as a request but moving no data).
    pub throttled: u64,
}

/// The simulated file store.
pub struct S3 {
    /// Object keys are shared: a listing hands out the store's own.
    buckets: HashMap<String, HashMap<Arc<str>, Arc<Blob>>>,
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
        throttled_bill: fn(&PriceTable) -> Money,
    ) -> Result<(), S3Error> {
        if !self.buckets.contains_key(bucket) {
            return Err(S3Error::NoSuchBucket(bucket.to_string()));
        }
        *count(&mut self.stats) += 1;
        if self.faults.roll() {
            self.stats.throttled += 1;
            let available_at = now + self.transfer.latency;
            self.obs.record(|p, ctx| {
                Span::new(ServiceKind::S3, op, now, available_at, ctx)
                    .billed(throttled_bill(p))
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
        self.admit(now, bucket, "put", |s| &mut s.put_requests, |p| p.st_put)?;
        let b = self.buckets.get_mut(bucket).expect("checked by admit");
        let len = data.len() as u64;
        self.stats.bytes_in += len;
        if let Some(old) = b.insert(key.into(), Arc::new(Blob::new(data))) {
            self.stats.stored_bytes -= old.len() as u64;
        }
        self.stats.stored_bytes += len;
        let ready = self.transfer.serve_unqueued(now, len as f64);
        let busy = self.transfer.service_time(len as f64);
        self.obs.record(|p, ctx| {
            Span::new(ServiceKind::S3, "put", now, ready, ctx)
                .bytes(len)
                .busy(busy)
                .billed(p.st_put)
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
            |_| Money::ZERO,
        )?;
        let b = self.buckets.get_mut(bucket).expect("checked by admit");
        let removed = b.remove(key);
        if let Some(old) = &removed {
            self.stats.stored_bytes -= old.len() as u64;
        }
        let end = now + self.transfer.latency;
        self.obs.record(|_p, ctx| {
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
        self.admit(now, bucket, "get", |s| &mut s.get_requests, |p| p.st_get)?;
        let b = self.buckets.get(bucket).expect("checked by admit");
        let Some(data) = b.get(key).cloned() else {
            let end = now + self.transfer.latency;
            self.obs.record(|p, ctx| {
                Span::new(ServiceKind::S3, "get", now, end, ctx)
                    .billed(p.st_get)
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
        self.obs.record(|p, ctx| {
            Span::new(ServiceKind::S3, "get", now, ready, ctx)
                .bytes(len)
                .busy(busy)
                .billed(p.st_get)
        });
        Ok((data, ready))
    }

    /// Evaluates `predicate` server-side against a stored object (the
    /// S3-Select analog): the whole object is scanned where it lives and
    /// only the filtered result bytes travel back. Billed like a GET per
    /// request, plus `st_scan_gb` per GB *scanned*, plus `egress_gb` on
    /// the *returned* bytes (which also count toward `bytes_out`). A
    /// missing key is a billed request that scans nothing, like a missing
    /// GET; a throttled scan is billed, stateless, and moves no bytes.
    pub fn scan(
        &mut self,
        now: SimTime,
        bucket: &str,
        key: &str,
        predicate: &dyn ObjectPredicate,
    ) -> Result<(Vec<u8>, SimTime), S3Error> {
        self.admit(now, bucket, "scan", |s| &mut s.scan_requests, |p| p.st_get)?;
        let b = self.buckets.get(bucket).expect("checked by admit");
        let Some(data) = b.get(key).cloned() else {
            let end = now + self.transfer.latency;
            self.obs.record(|p, ctx| {
                Span::new(ServiceKind::S3, "scan", now, end, ctx)
                    .billed(p.st_get)
                    .outcome(Outcome::Missing)
            });
            return Err(S3Error::NoSuchKey {
                bucket: bucket.into(),
                key: key.into(),
            });
        };
        let scanned = data.len() as u64;
        let result = predicate.filter(&data);
        let returned = result.len() as u64;
        self.stats.bytes_scanned += scanned;
        self.stats.scan_returned_bytes += returned;
        self.stats.bytes_out += returned;
        // Server-side filtering at storage bandwidth, then the filtered
        // bytes ride the same per-connection pipe a GET uses.
        let scan_time = SimDuration::from_secs_f64(scanned as f64 / SCAN_BYTES_PER_SEC);
        let busy = scan_time + self.transfer.service_time(returned as f64);
        let ready = now + busy + self.transfer.latency;
        self.obs.record(|p, ctx| {
            Span::new(ServiceKind::S3, "scan", now, ready, ctx)
                .bytes(returned)
                .units(scanned as f64)
                .busy(busy)
                .billed(p.st_get + p.st_scan_gb.per_gb(scanned))
        });
        self.obs.record(|p, ctx| {
            Span::new(ServiceKind::Egress, "scan_return", now, ready, ctx)
                .bytes(returned)
                .billed(p.egress_gb.per_gb(returned))
        });
        Ok((result, ready))
    }

    /// Lists the keys of a bucket, in sorted order. Billed as one get-class
    /// request (AWS prices LIST like GET). `now` stamps the request in the
    /// span recorder; the listing itself advances no virtual time.
    pub fn list(&mut self, now: SimTime, bucket: &str) -> Result<Vec<Arc<str>>, S3Error> {
        let b = self
            .buckets
            .get(bucket)
            .ok_or_else(|| S3Error::NoSuchBucket(bucket.to_string()))?;
        let mut keys: Vec<Arc<str>> = b.keys().cloned().collect();
        keys.sort_unstable();
        self.stats.get_requests += 1;
        let end = now + self.transfer.latency;
        self.obs
            .record(|p, ctx| Span::new(ServiceKind::S3, "list", now, end, ctx).billed(p.st_get));
        Ok(keys)
    }

    /// Host-side snapshot of a bucket's objects, in key order. No request
    /// is billed and no virtual time passes — this exists for the host's
    /// cache-prewarm stage, which must not perturb the simulation.
    pub fn peek_all(&self, bucket: &str) -> Vec<(String, Arc<Blob>)> {
        let Some(b) = self.buckets.get(bucket) else {
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
        self.buckets.get(bucket)?.get(key).cloned()
    }

    /// True if the object exists.
    pub fn exists(&self, bucket: &str, key: &str) -> bool {
        self.buckets
            .get(bucket)
            .is_some_and(|b| b.contains_key(key))
    }

    /// Size in bytes of an object, if present.
    pub fn object_size(&self, bucket: &str, key: &str) -> Option<u64> {
        self.buckets.get(bucket)?.get(key).map(|o| o.len() as u64)
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

    /// A byte-level predicate for the tests: keeps the lines containing a
    /// needle.
    struct Needle(&'static str);
    impl ObjectPredicate for Needle {
        fn filter(&self, bytes: &[u8]) -> Vec<u8> {
            let text = std::str::from_utf8(bytes).unwrap_or("");
            let mut out = Vec::new();
            for line in text.lines().filter(|l| l.contains(self.0)) {
                out.extend_from_slice(line.as_bytes());
                out.push(b'\n');
            }
            out
        }
    }

    #[test]
    fn scan_returns_filtered_bytes_and_accounts_them() {
        let mut s3 = S3::new();
        s3.create_bucket("b");
        let body = b"red apple\ngreen pear\nred cherry\n".to_vec();
        let len = body.len() as u64;
        s3.put(SimTime::ZERO, "b", "k", body).unwrap();
        let (result, ready) = s3.scan(SimTime(500), "b", "k", &Needle("red")).unwrap();
        assert_eq!(result, b"red apple\nred cherry\n");
        assert!(ready > SimTime(500));
        let st = s3.stats();
        assert_eq!(st.scan_requests, 1);
        assert_eq!(st.get_requests, 0, "scans are counted apart from gets");
        assert_eq!(st.bytes_scanned, len, "the whole object is scanned");
        assert_eq!(st.scan_returned_bytes, result.len() as u64);
        assert_eq!(
            st.bytes_out,
            result.len() as u64,
            "only the filtered bytes leave the store"
        );
    }

    #[test]
    fn throttled_scans_are_billed_but_stateless() {
        use crate::fault::FaultInjector;
        let mut s3 = S3::new();
        s3.create_bucket("b");
        s3.put(SimTime::ZERO, "b", "k", vec![b'x'; 1024]).unwrap();
        s3.set_faults(FaultInjector::new(1.0, 9)); // clamped to 0.95
        let mut throttles = 0;
        let mut served = 0;
        for _ in 0..50 {
            match s3.scan(SimTime(777), "b", "k", &Needle("x")) {
                Ok(_) => served += 1,
                Err(S3Error::SlowDown { available_at }) => {
                    assert!(available_at > SimTime(777));
                    throttles += 1;
                }
                Err(e) => panic!("unexpected {e}"),
            }
        }
        assert!(throttles > 0, "a 95% rate throttles within 50 calls");
        let st = s3.stats();
        assert_eq!(st.scan_requests, 50, "throttled scans are still billed");
        assert_eq!(st.throttled, throttles);
        // Only the served scans touched or moved bytes.
        assert_eq!(st.bytes_scanned, served * 1024);
        assert_eq!(st.scan_returned_bytes, served * 1025);
        assert_eq!(st.bytes_out, served * 1025);
    }

    #[test]
    fn scanning_a_missing_key_is_a_billed_request_that_moves_nothing() {
        let mut s3 = S3::new();
        s3.create_bucket("b");
        assert!(matches!(
            s3.scan(SimTime::ZERO, "b", "ghost", &Needle("x")),
            Err(S3Error::NoSuchKey { .. })
        ));
        let st = s3.stats();
        assert_eq!(st.scan_requests, 1);
        assert_eq!(st.bytes_scanned, 0);
        assert_eq!(st.bytes_out, 0);
        // And an unknown bucket never reaches the service.
        assert!(matches!(
            s3.scan(SimTime::ZERO, "nope", "k", &Needle("x")),
            Err(S3Error::NoSuchBucket(_))
        ));
        assert_eq!(s3.stats().scan_requests, 1);
    }

    #[test]
    fn selective_scans_respond_faster_than_gets() {
        // 50 MB scanned at 100 MB/s with an empty result beats the same
        // object GET at 25 MB/s.
        let mut s3 = S3::new();
        s3.create_bucket("b");
        s3.put(SimTime::ZERO, "b", "big", vec![b'y'; 50 * 1024 * 1024])
            .unwrap();
        let (result, scan_done) = s3.scan(SimTime::ZERO, "b", "big", &Needle("z")).unwrap();
        assert!(result.is_empty());
        let (_, get_done) = s3.get(SimTime::ZERO, "b", "big").unwrap();
        assert!(
            scan_done.micros() < get_done.micros(),
            "scan {scan_done:?} vs get {get_done:?}"
        );
        // ~0.5 s of server-side scanning dominates the scan response.
        assert!((scan_done.as_secs_f64() - 0.5).abs() < 0.1);
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
        assert!(!s3.exists("b", "k"));
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
        let prices = PriceTable::default();
        type Call = fn(&mut S3, &str) -> Option<S3Error>;
        let calls: [(&str, Call, Money); 4] = [
            (
                "put",
                |s3, b| s3.put(SimTime(5), b, "k", vec![1]).err(),
                prices.st_put,
            ),
            (
                "get",
                |s3, b| s3.get(SimTime(5), b, "k").err(),
                prices.st_get,
            ),
            (
                "scan",
                |s3, b| s3.scan(SimTime(5), b, "k", &Needle("x")).err(),
                prices.st_get,
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
            s3.set_recorder(Recorder::enabled(prices.clone()));
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
            let counted = st.put_requests + st.get_requests + st.scan_requests + st.delete_requests;
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
        assert!(!s3.exists("b", "k"));
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
