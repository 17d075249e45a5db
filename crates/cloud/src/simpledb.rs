//! SimpleDB — the index backend of the paper's preliminary work \[8\],
//! kept as a baseline for the Tables 7–8 comparison — as a [`Service`]
//! description of the one [`Store`]. Its two handicaps relative to
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
use crate::store::{Footprint, Lanes, Meter, Service, Store};

/// Storage overhead billed per attribute-value pair (45 bytes per name
/// plus per value, per the SimpleDB pricing formula).
pub const ATTR_OVERHEAD_BYTES: u64 = 45;

/// Service-rate parameters.
#[derive(Debug, Clone)]
pub struct SimpleDbConfig {
    /// Aggregate write throughput, bytes/second.
    pub write_bytes_per_sec: f64,
    /// Aggregate read throughput, bytes/second.
    pub read_bytes_per_sec: f64,
    /// Per-request latency.
    pub latency: SimDuration,
}

impl Default for SimpleDbConfig {
    fn default() -> Self {
        // Roughly 1/20 of the DynamoDB defaults, with 5× the latency —
        // producing the one-to-two order-of-magnitude indexing gap the
        // paper measured (its Table 7: 196 ms/MB vs 7491 ms/MB for LU).
        SimpleDbConfig {
            write_bytes_per_sec: 384.0 * 1024.0,
            read_bytes_per_sec: 1536.0 * 1024.0,
            latency: SimDuration::from_millis(60),
        }
    }
}

/// The simulated SimpleDB service.
pub type SimpleDb = Store<Simple>;

/// SimpleDB, described.
pub struct Simple;

impl Service for Simple {
    type Config = SimpleDbConfig;

    const PROFILE: KvProfile = KvProfile {
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
    const BATCH_GET_IS_ONE_REQUEST: bool = false;
    const SPANS_REPORT_BILLED_UNITS: bool = true;

    fn lanes(config: &SimpleDbConfig) -> Lanes {
        let lane = |bytes_per_sec| {
            ServiceQueue::new(SimDuration::from_millis(4), bytes_per_sec, config.latency)
        };
        Lanes {
            writes: lane(config.write_bytes_per_sec),
            reads: lane(config.read_bytes_per_sec),
        }
    }

    /// Box-usage billing scales with the attribute-value pairs written,
    /// not the item count — the billing-side half of the Tables 7–8
    /// amplification (chunked values each pay their way). Service time
    /// is by the byte.
    fn written(item: Footprint) -> Meter {
        Meter {
            service: item.bytes as f64,
            billed: item.values as u64,
        }
    }

    fn read(bytes: usize) -> Meter {
        Meter {
            service: bytes as f64,
            billed: 1,
        }
    }

    fn overhead(item: Footprint) -> u64 {
        ATTR_OVERHEAD_BYTES * item.values as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clock::SimTime;
    use crate::kv::{KvError, KvItem, KvStore, KvValue};

    fn item(hash: &str, range: &str, val: KvValue) -> KvItem {
        KvItem::new(hash.into(), range, "doc.xml".into(), [val].into_iter())
    }

    #[test]
    fn rejects_binary_values() {
        let mut db = SimpleDb::default();
        db.ensure_table("t");
        let err = db
            .batch_put(SimTime::ZERO, "t", vec![item("k", "r", KvValue::B(&[1]))])
            .unwrap_err();
        assert_eq!(err, KvError::BinaryNotSupported);
    }

    #[test]
    fn rejects_values_over_1kb() {
        let mut db = SimpleDb::default();
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
        let mut db = SimpleDb::default();
        db.ensure_table("t");
        let vals = std::iter::repeat_n(KvValue::S("v"), 257);
        let it = KvItem::new("k".into(), "r", "a".into(), vals);
        let err = db.batch_put(SimTime::ZERO, "t", vec![it]).unwrap_err();
        assert!(matches!(err, KvError::TooManyAttributes { limit: 256, .. }));
    }

    #[test]
    fn slower_than_dynamodb_for_equal_work() {
        use crate::dynamodb::DynamoDb;
        use crate::kv::KvStore as _;
        let mut sdb = SimpleDb::default();
        let mut ddb = DynamoDb::default();
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
        let mut db = SimpleDb::default();
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
