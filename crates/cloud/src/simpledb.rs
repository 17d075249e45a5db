//! SimpleDB — the index backend of the paper's preliminary work \[8\],
//! kept as a baseline for the Tables 7–8 comparison — the
//! [`KvBackend::Simple`](crate::store::KvBackend::Simple) service of the one
//! [`KvStore`](crate::store::KvStore). Its two handicaps relative to
//! DynamoDB, which the paper identifies as the source of its 1–2
//! order-of-magnitude disadvantage (Section 8.4): **string-only values of
//! at most 1 KB**, so the index layer must base64-encode ID lists and
//! chunk them into many small values (and therefore many more items and
//! requests); and **lower throughput and higher per-request latency**
//! ("DynamoDB has a shorter response time and can handle more concurrent
//! requests than SimpleDB"). The numbers are the SimpleDB column of the
//! table in [`crate::kv`].

use crate::clock::SimDuration;
use crate::kv::KvProfile;
use crate::service::ServiceQueue;
use crate::store::{Footprint, Lanes, Meter};

/// Storage overhead billed per attribute-value pair (45 bytes per name
/// plus per value, per the SimpleDB pricing formula).
pub const ATTR_OVERHEAD_BYTES: u64 = 45;

// Roughly 1/20 of DynamoDB's rates, with a longer overhead and latency,
// producing the one-to-two order-of-magnitude indexing gap the paper
// measured (its Table 7: 196 ms/MB vs 7491 ms/MB for LU).
/// Aggregate write throughput, bytes per second.
const WRITE_BYTES_PER_SEC: f64 = 384.0 * 1024.0;
/// Aggregate read throughput, bytes per second.
const READ_BYTES_PER_SEC: f64 = 1536.0 * 1024.0;
/// Fixed share of the lane one request occupies.
const REQUEST_OVERHEAD: SimDuration = SimDuration::from_millis(4);
/// Per-request latency.
const LATENCY: SimDuration = SimDuration::from_millis(60);

/// SimpleDB's limits and capabilities.
pub const PROFILE: KvProfile = KvProfile {
    name: "SimpleDB",
    supports_binary: false,
    max_value_bytes: 1024,
    max_item_bytes: 1024 * 256,
    max_attrs_per_item: 256,
    max_hash_key_bytes: 1024,
    max_range_key_bytes: usize::MAX,
    batch_put_limit: 25,
    // No native batch get; one key per request.
    batch_get_limit: 1,
};

pub(crate) fn lanes() -> Lanes {
    let lane = |bytes_per_sec| ServiceQueue::new(REQUEST_OVERHEAD, bytes_per_sec, LATENCY);
    Lanes {
        writes: lane(WRITE_BYTES_PER_SEC),
        reads: lane(READ_BYTES_PER_SEC),
    }
}

/// Box-usage billing scales with the attribute-value pairs written, not
/// the item count — the billing-side half of the Tables 7–8
/// amplification (chunked values each pay their way), as does storage
/// overhead ([`ATTR_OVERHEAD_BYTES`] each). Service time is by the byte.
pub(crate) fn written(item: Footprint) -> Meter {
    Meter {
        service: item.bytes as f64,
        billed: item.values as u64,
    }
}

pub(crate) fn read(bytes: usize) -> Meter {
    Meter {
        service: bytes as f64,
        billed: 1,
    }
}

#[cfg(test)]
mod tests {
    use crate::clock::SimTime;
    use crate::kv::{KvError, KvItem, KvValue};
    use crate::store::{KvBackend, KvStore};

    fn simpledb() -> KvStore {
        KvStore::new(KvBackend::Simple)
    }

    fn item(hash: &str, range: &str, val: KvValue) -> KvItem {
        KvItem::new(hash.into(), range, "doc.xml".into(), [val].into_iter())
    }

    #[test]
    fn rejects_binary_values() {
        let mut db = simpledb();
        db.ensure_table("t");
        let err = db
            .batch_put(SimTime::ZERO, "t", vec![item("k", "r", KvValue::B(&[1]))])
            .unwrap_err();
        assert_eq!(err, KvError::BinaryNotSupported);
    }

    #[test]
    fn rejects_values_over_1kb() {
        let mut db = simpledb();
        db.ensure_table("t");
        let err = db
            .batch_put(
                SimTime::ZERO,
                "t",
                vec![item("k", "r", KvValue::S(&"x".repeat(1025)))],
            )
            .unwrap_err();
        assert!(matches!(err, KvError::ValueTooLarge { limit: 1024, .. }));
    }

    #[test]
    fn rejects_too_many_attribute_values() {
        let mut db = simpledb();
        db.ensure_table("t");
        let vals = std::iter::repeat_n(KvValue::S("v"), 257);
        let it = KvItem::new("k".into(), "r", "a".into(), vals);
        let err = db.batch_put(SimTime::ZERO, "t", vec![it]).unwrap_err();
        assert!(matches!(err, KvError::TooManyAttributes { limit: 256, .. }));
    }

    #[test]
    fn slower_than_dynamodb_for_equal_work() {
        let mut sdb = simpledb();
        let mut ddb = KvStore::default();
        sdb.ensure_table("t");
        ddb.ensure_table("t");
        let mk = |i: usize| item("k", &format!("r{i}"), KvValue::S(&"x".repeat(500)));
        let mut t_s = SimTime::ZERO;
        let mut t_d = SimTime::ZERO;
        for i in 0..200 {
            t_s = sdb.batch_put(SimTime::ZERO, "t", vec![mk(i)]).unwrap();
            t_d = ddb.batch_put(SimTime::ZERO, "t", vec![mk(i)]).unwrap();
        }
        assert!(
            t_s.micros() > 10 * t_d.micros(),
            "SimpleDB {} vs DynamoDB {}",
            t_s.as_secs_f64(),
            t_d.as_secs_f64()
        );
    }

    #[test]
    fn batch_get_issues_sequential_requests() {
        let mut db = simpledb();
        db.ensure_table("t");
        db.batch_put(SimTime::ZERO, "t", vec![item("a", "r", KvValue::S(""))])
            .unwrap();
        db.batch_put(SimTime::ZERO, "t", vec![item("b", "r", KvValue::S(""))])
            .unwrap();
        let before = db.stats().api_requests;
        let (_, _) = db
            .batch_get(SimTime::ZERO, "t", &["a".to_string(), "b".to_string()])
            .unwrap();
        assert_eq!(db.stats().api_requests, before + 2);
    }
}
