//! The simulated SimpleDB key-value store — the index backend of the
//! paper's preliminary work \[8\], kept as a baseline for the Tables 7–8
//! comparison.
//!
//! The two modelled handicaps relative to DynamoDB, which the paper
//! identifies as the source of its 1–2 order-of-magnitude disadvantage
//! (Section 8.4):
//!
//! * **string-only attribute values of at most 1 KB** — structural-ID
//!   lists cannot be stored as compact binary blobs; the index layer must
//!   base64-encode and chunk them into many small values (and therefore
//!   many more items and requests);
//! * **lower throughput and higher per-request latency** — SimpleDB
//!   processes requests more slowly and tolerates much less concurrency
//!   (the paper: "DynamoDB has a shorter response time and can handle more
//!   concurrent requests than SimpleDB").

use crate::clock::{SimDuration, SimTime};
use crate::fault::FaultInjector;
use crate::kv::{peek_tables, throttle, ItemTable, KvError, KvItem, KvProfile, KvStats, KvStore};
use crate::obs::{Recorder, ServiceKind, Span};
use crate::service::ServiceQueue;
use std::collections::HashMap;

/// Maximum attribute-value size (strings only).
pub const MAX_VALUE_BYTES: usize = 1024;
/// Maximum attribute-value pairs per item.
pub const MAX_ATTRS_PER_ITEM: usize = 256;
/// Items per batch put.
pub const BATCH_PUT_LIMIT: usize = 25;
/// SimpleDB has no batch get; one key per request.
pub const BATCH_GET_LIMIT: usize = 1;
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
pub struct SimpleDb {
    domains: HashMap<String, ItemTable>,
    stats: KvStats,
    writes: ServiceQueue,
    reads: ServiceQueue,
    faults: FaultInjector,
    obs: Recorder,
}

impl SimpleDb {
    /// Creates a store with the given service parameters.
    pub fn new(config: SimpleDbConfig) -> SimpleDb {
        SimpleDb {
            domains: HashMap::new(),
            stats: KvStats::default(),
            writes: ServiceQueue::new(
                SimDuration::from_millis(4),
                config.write_bytes_per_sec,
                config.latency,
            ),
            reads: ServiceQueue::new(
                SimDuration::from_millis(4),
                config.read_bytes_per_sec,
                config.latency,
            ),
            faults: FaultInjector::off(),
            obs: Recorder::off(),
        }
    }

    /// Rolls the fault injector ([`crate::kv::throttle`]); a throttled
    /// attempt is SimpleDB's `ServiceUnavailable`.
    fn maybe_throttle(&mut self, now: SimTime, is_write: bool) -> Result<(), KvError> {
        let queue = if is_write { &self.writes } else { &self.reads };
        let available_at = now + queue.latency;
        throttle(
            &mut self.faults,
            &mut self.stats,
            &self.obs,
            (now, available_at),
            is_write,
            None,
        )
    }

    fn validate(&self, item: &KvItem) -> Result<(), KvError> {
        let attr_count: usize = item.attrs.iter().map(|(_, vs)| vs.len()).sum();
        if attr_count > MAX_ATTRS_PER_ITEM {
            return Err(KvError::TooManyAttributes {
                limit: MAX_ATTRS_PER_ITEM,
                got: attr_count,
            });
        }
        for (_, vs) in item.attrs.iter() {
            for v in vs {
                if v.is_binary() {
                    return Err(KvError::BinaryNotSupported);
                }
                if v.len() > MAX_VALUE_BYTES {
                    return Err(KvError::ValueTooLarge {
                        limit: MAX_VALUE_BYTES,
                        got: v.len(),
                    });
                }
            }
        }
        if item.hash_key.len() > MAX_VALUE_BYTES {
            return Err(KvError::KeyTooLarge {
                limit: MAX_VALUE_BYTES,
                got: item.hash_key.len(),
            });
        }
        Ok(())
    }
}

impl Default for SimpleDb {
    fn default() -> Self {
        Self::new(SimpleDbConfig::default())
    }
}

impl KvStore for SimpleDb {
    fn profile(&self) -> KvProfile {
        KvProfile {
            name: "SimpleDB",
            supports_binary: false,
            max_value_bytes: MAX_VALUE_BYTES,
            max_item_bytes: MAX_VALUE_BYTES * MAX_ATTRS_PER_ITEM,
            max_attrs_per_item: MAX_ATTRS_PER_ITEM,
            batch_put_limit: BATCH_PUT_LIMIT,
            batch_get_limit: BATCH_GET_LIMIT,
        }
    }

    fn ensure_table(&mut self, table: &str) {
        self.domains.entry(table.to_string()).or_default();
    }

    fn batch_put(
        &mut self,
        now: SimTime,
        table: &str,
        items: Vec<KvItem>,
    ) -> Result<SimTime, KvError> {
        if items.len() > BATCH_PUT_LIMIT {
            return Err(KvError::BatchTooLarge {
                limit: BATCH_PUT_LIMIT,
                got: items.len(),
            });
        }
        for item in &items {
            self.validate(item)?;
        }
        if !self.domains.contains_key(table) {
            return Err(KvError::NoSuchTable(table.to_string()));
        }
        self.maybe_throttle(now, true)?;
        let d = self.domains.get_mut(table).expect("checked above");
        let mut bytes = 0usize;
        let mut total_attr_values = 0u64;
        let mut raw_delta: i64 = 0;
        let mut ovh_delta: i64 = 0;
        for item in items {
            bytes += item.byte_size();
            let size = item.byte_size() as i64;
            let attr_values: i64 = item
                .attrs
                .iter()
                .map(|(_, vs)| vs.len() as i64)
                .sum::<i64>();
            total_attr_values += attr_values as u64;
            if let Some(old) = d.put(item) {
                raw_delta -= old.byte_size() as i64;
                ovh_delta -= ATTR_OVERHEAD_BYTES as i64
                    * old.attrs.iter().map(|(_, vs)| vs.len() as i64).sum::<i64>();
            }
            raw_delta += size;
            ovh_delta += ATTR_OVERHEAD_BYTES as i64 * attr_values;
        }
        self.stats.raw_bytes = (self.stats.raw_bytes as i64 + raw_delta) as u64;
        self.stats.overhead_bytes = (self.stats.overhead_bytes as i64 + ovh_delta) as u64;
        // SimpleDB's box-usage billing scales with the attribute-value
        // pairs written, not the item count — the billing-side half of the
        // Tables 7–8 amplification (chunked values each pay their way).
        self.stats.put_ops += total_attr_values;
        self.stats.api_requests += 1;
        let ready = self.writes.serve(now, bytes as f64);
        self.obs.record(|p, ctx| {
            Span::new(ServiceKind::Kv, "batch_put", now, ready, ctx)
                .bytes(bytes as u64)
                .units(total_attr_values as f64)
                .busy(self.writes.service_time(bytes as f64))
                .billed(p.idx_put * total_attr_values)
        });
        Ok(ready)
    }

    fn batch_delete(
        &mut self,
        now: SimTime,
        table: &str,
        keys: &[(String, String)],
    ) -> Result<SimTime, KvError> {
        if keys.len() > BATCH_PUT_LIMIT {
            return Err(KvError::BatchTooLarge {
                limit: BATCH_PUT_LIMIT,
                got: keys.len(),
            });
        }
        if !self.domains.contains_key(table) {
            return Err(KvError::NoSuchTable(table.to_string()));
        }
        self.maybe_throttle(now, true)?;
        let d = self.domains.get_mut(table).expect("checked above");
        let mut bytes = 0usize;
        let mut billed = 0u64;
        let mut raw_delta: i64 = 0;
        let mut ovh_delta: i64 = 0;
        for (hash, range) in keys {
            let removed = d.remove(hash, range);
            // DeleteAttributes box usage scales with the attribute-value
            // pairs removed, mirroring batch_put; an absent key still
            // bills the one-operation minimum, keeping retried deletes
            // idempotent but never free.
            match &removed {
                Some(old) => {
                    let attr_values: i64 =
                        old.attrs.iter().map(|(_, vs)| vs.len() as i64).sum::<i64>();
                    bytes += old.byte_size();
                    raw_delta -= old.byte_size() as i64;
                    ovh_delta -= ATTR_OVERHEAD_BYTES as i64 * attr_values;
                    billed += (attr_values as u64).max(1);
                }
                None => billed += 1,
            }
        }
        self.stats.raw_bytes = (self.stats.raw_bytes as i64 + raw_delta) as u64;
        self.stats.overhead_bytes = (self.stats.overhead_bytes as i64 + ovh_delta) as u64;
        self.stats.put_ops += billed;
        self.stats.api_requests += 1;
        let ready = self.writes.serve(now, bytes as f64);
        self.obs.record(|p, ctx| {
            Span::new(ServiceKind::Kv, "batch_delete", now, ready, ctx)
                .units(billed as f64)
                .busy(self.writes.service_time(bytes as f64))
                .billed(p.idx_put * billed)
        });
        Ok(ready)
    }

    fn get(
        &mut self,
        now: SimTime,
        table: &str,
        hash_key: &str,
    ) -> Result<(Vec<KvItem>, SimTime), KvError> {
        if !self.domains.contains_key(table) {
            return Err(KvError::NoSuchTable(table.to_string()));
        }
        self.maybe_throttle(now, false)?;
        let d = self.domains.get(table).expect("checked above");
        let items: Vec<KvItem> = d.rows(hash_key).collect();
        let bytes: usize = items.iter().map(KvItem::byte_size).sum();
        self.stats.get_ops += 1;
        self.stats.api_requests += 1;
        self.stats.bytes_read += bytes as u64;
        let ready = self.reads.serve(now, bytes as f64);
        self.obs.record(|p, ctx| {
            Span::new(ServiceKind::Kv, "get", now, ready, ctx)
                .bytes(bytes as u64)
                .units(1.0)
                .busy(self.reads.service_time(bytes as f64))
                .billed(p.idx_get)
        });
        Ok((items, ready))
    }

    fn batch_get(
        &mut self,
        now: SimTime,
        table: &str,
        hash_keys: &[String],
    ) -> Result<(Vec<KvItem>, SimTime), KvError> {
        // No native batch get: issue sequential gets.
        let mut items = Vec::new();
        let mut ready = now;
        for k in hash_keys {
            let (mut batch, t) = self.get(ready, table, k)?;
            items.append(&mut batch);
            ready = t;
        }
        Ok((items, ready))
    }

    fn stats(&self) -> KvStats {
        self.stats
    }

    fn set_faults(&mut self, faults: FaultInjector) {
        self.faults = faults;
    }

    fn set_recorder(&mut self, recorder: Recorder) {
        self.obs = recorder;
    }

    fn faults_active(&self) -> bool {
        self.faults.is_active()
    }

    fn peek_all(&self) -> Vec<(String, KvItem)> {
        peek_tables(&self.domains)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kv::KvValue;

    fn item(hash: &str, range: &str, val: KvValue) -> KvItem {
        KvItem {
            hash_key: hash.into(),
            range_key: range.into(),
            attrs: [("doc.xml".into(), vec![val])].into(),
        }
    }

    #[test]
    fn rejects_binary_values() {
        let mut db = SimpleDb::default();
        db.ensure_table("t");
        let err = db
            .batch_put(
                SimTime::ZERO,
                "t",
                vec![item("k", "r", KvValue::B(vec![1]))],
            )
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
                vec![item("k", "r", KvValue::S("x".repeat(1025)))],
            )
            .unwrap_err();
        assert!(matches!(err, KvError::ValueTooLarge { limit: 1024, .. }));
    }

    #[test]
    fn rejects_too_many_attribute_values() {
        let mut db = SimpleDb::default();
        db.ensure_table("t");
        let vals: Vec<KvValue> = (0..257).map(|i| KvValue::S(format!("v{i}"))).collect();
        let it = KvItem {
            hash_key: "k".into(),
            range_key: "r".into(),
            attrs: [("a".into(), vals)].into(),
        };
        let err = db.batch_put(SimTime::ZERO, "t", vec![it]).unwrap_err();
        assert!(matches!(err, KvError::TooManyAttributes { limit: 256, .. }));
    }

    #[test]
    fn accepts_and_returns_string_values() {
        let mut db = SimpleDb::default();
        db.ensure_table("t");
        db.batch_put(
            SimTime::ZERO,
            "t",
            vec![item("ename", "r1", KvValue::S("p1".into()))],
        )
        .unwrap();
        db.batch_put(
            SimTime::ZERO,
            "t",
            vec![item("ename", "r2", KvValue::S("p2".into()))],
        )
        .unwrap();
        let (items, _) = db.get(SimTime::ZERO, "t", "ename").unwrap();
        assert_eq!(items.len(), 2);
    }

    #[test]
    fn slower_than_dynamodb_for_equal_work() {
        use crate::dynamodb::DynamoDb;
        use crate::kv::KvStore as _;
        let mut sdb = SimpleDb::default();
        let mut ddb = DynamoDb::default();
        sdb.ensure_table("t");
        ddb.ensure_table("t");
        let mk = |i: usize| item("k", &format!("r{i}"), KvValue::S("x".repeat(500)));
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
        db.batch_put(
            SimTime::ZERO,
            "t",
            vec![item("a", "r", KvValue::S(String::new()))],
        )
        .unwrap();
        db.batch_put(
            SimTime::ZERO,
            "t",
            vec![item("b", "r", KvValue::S(String::new()))],
        )
        .unwrap();
        let before = db.stats().api_requests;
        let (_, _) = db
            .batch_get(SimTime::ZERO, "t", &["a".to_string(), "b".to_string()])
            .unwrap();
        assert_eq!(db.stats().api_requests, before + 2);
    }

    #[test]
    fn throttled_requests_are_billed_but_store_nothing() {
        let mut db = SimpleDb::default();
        db.ensure_table("t");
        db.set_faults(FaultInjector::new(1.0, 13)); // clamped to 0.95
        let mut throttles = 0;
        for i in 0..50 {
            match db.batch_put(
                SimTime(99),
                "t",
                vec![item("k", &format!("r{i}"), KvValue::S(String::new()))],
            ) {
                Ok(_) => {}
                Err(KvError::Throttled { available_at }) => {
                    assert!(available_at > SimTime(99));
                    throttles += 1;
                }
                Err(e) => panic!("unexpected {e}"),
            }
        }
        assert!(throttles > 0, "a 95% rate throttles within 50 calls");
        let st = db.stats();
        assert_eq!(st.throttled, throttles);
        assert_eq!(st.api_requests, 50);
        assert_eq!(db.peek_all().len(), 50 - throttles as usize);
    }

    #[test]
    fn delete_bills_per_attribute_value_and_frees_overhead() {
        let mut db = SimpleDb::default();
        db.ensure_table("t");
        let it = KvItem {
            hash_key: "k".into(),
            range_key: "r".into(),
            attrs: [(
                "a".into(),
                vec![KvValue::S("1".into()), KvValue::S("2".into())],
            )]
            .into(),
        };
        db.batch_put(SimTime::ZERO, "t", vec![it]).unwrap();
        let before = db.stats();
        assert_eq!(before.put_ops, 2);
        assert_eq!(before.overhead_bytes, 2 * ATTR_OVERHEAD_BYTES);
        db.batch_delete(SimTime::ZERO, "t", &[("k".into(), "r".into())])
            .unwrap();
        let st = db.stats();
        assert_eq!(st.put_ops, 4, "two attribute-values billed to remove");
        assert_eq!(st.raw_bytes, 0);
        assert_eq!(st.overhead_bytes, 0);
        assert!(db.peek_all().is_empty());
        // A missing key bills the one-operation minimum and stays a success.
        db.batch_delete(SimTime::ZERO, "t", &[("k".into(), "r".into())])
            .unwrap();
        assert_eq!(db.stats().put_ops, 5);
    }

    #[test]
    fn storage_overhead_is_per_attribute_value() {
        let mut db = SimpleDb::default();
        db.ensure_table("t");
        let it = KvItem {
            hash_key: "k".into(),
            range_key: "r".into(),
            attrs: [(
                "a".into(),
                vec![KvValue::S("1".into()), KvValue::S("2".into())],
            )]
            .into(),
        };
        db.batch_put(SimTime::ZERO, "t", vec![it]).unwrap();
        assert_eq!(db.stats().overhead_bytes, 2 * ATTR_OVERHEAD_BYTES);
    }
}
