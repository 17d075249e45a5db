//! The simulated DynamoDB key-value store (paper Section 6).
//!
//! Modelled behaviour, matching the aspects the paper's indexing relies on:
//!
//! * tables of items, composite hash + range primary key, items ≤ 64 KB,
//!   hash key ≤ 2 KB, range key ≤ 1 KB;
//! * multi-valued attributes whose values may be **binary** (the feature
//!   the paper exploits "to store compressed (encoded) sets of IDs in a
//!   single DynamoDB value");
//! * `get(T, k)` returns all items with hash key `k`; `batchGet` covers
//!   100 keys per API call; `put` replaces wholesale; `batchPut` writes
//!   25 items per call;
//! * *provisioned throughput*: reads and writes consume capacity units
//!   (1 write unit per KB written, 1 read unit per 4 KB read) served by a
//!   rate-limited queue — the source of the saturation visible in the
//!   paper's Figure 10;
//! * a fixed per-item storage overhead (DynamoDB bills 100 bytes of index
//!   overhead per item), the paper's `ovh(D, I)` — "noticeable, especially
//!   if keywords are not indexed", because small items pay it relatively
//!   more.

use crate::clock::{SimDuration, SimTime};
use crate::fault::FaultInjector;
#[cfg(test)]
use crate::kv::KvValue;
use crate::kv::{peek_tables, throttle, ItemTable, KvError, KvItem, KvProfile, KvStats, KvStore};
use crate::obs::{Recorder, ServiceKind, Span};
use crate::service::ServiceQueue;
use crate::shard::ShardPlan;
use std::collections::{BTreeMap, HashMap};

/// Per-item storage overhead billed by DynamoDB.
pub const ITEM_OVERHEAD_BYTES: u64 = 100;
/// Maximum item size.
pub const MAX_ITEM_BYTES: usize = 64 * 1024;
/// Maximum hash-key size.
pub const MAX_HASH_KEY_BYTES: usize = 2048;
/// Maximum range-key size.
pub const MAX_RANGE_KEY_BYTES: usize = 1024;
/// Items per batch put.
pub const BATCH_PUT_LIMIT: usize = 25;
/// Keys per batch get.
pub const BATCH_GET_LIMIT: usize = 100;

/// Provisioned-throughput and latency parameters.
#[derive(Debug, Clone)]
pub struct DynamoConfig {
    /// Write capacity units per second (1 unit = 1 KB written).
    pub write_units_per_sec: f64,
    /// Read capacity units per second (1 unit = 4 KB read,
    /// eventually-consistent reads count half).
    pub read_units_per_sec: f64,
    /// Per-request latency.
    pub latency: SimDuration,
}

impl Default for DynamoConfig {
    fn default() -> Self {
        DynamoConfig {
            write_units_per_sec: 10_000.0,
            read_units_per_sec: 20_000.0,
            latency: SimDuration::from_millis(8),
        }
    }
}

/// The write/read service queues of one provisioned shard: an
/// independent slice of throughput at the configured per-shard rates.
#[derive(Debug, Clone)]
struct ShardLanes {
    writes: ServiceQueue,
    reads: ServiceQueue,
}

impl ShardLanes {
    fn new(config: &DynamoConfig) -> ShardLanes {
        ShardLanes {
            writes: ServiceQueue::new(
                SimDuration::from_micros(300),
                config.write_units_per_sec,
                config.latency,
            ),
            reads: ServiceQueue::new(
                SimDuration::from_micros(300),
                config.read_units_per_sec,
                config.latency,
            ),
        }
    }
}

/// Per-shard aggregation of one batch request's subset: service-time
/// units, billed capacity units, and payload bytes.
#[derive(Debug, Clone, Copy, Default)]
struct ShardAgg {
    units: f64,
    billed: u64,
    bytes: u64,
}

/// The simulated DynamoDB service.
pub struct DynamoDb {
    tables: HashMap<String, ItemTable>,
    stats: KvStats,
    writes: ServiceQueue,
    reads: ServiceQueue,
    faults: FaultInjector,
    obs: Recorder,
    config: DynamoConfig,
    /// Shard routing. [`ShardPlan::single`] (the default) keeps the
    /// service-wide `writes`/`reads` queues above serving every request —
    /// the unsharded store, byte-identical to the pre-sharding build.
    plan: ShardPlan,
    /// Per-table shard lanes, `plan.shards()` per table; populated only
    /// while the plan is sharded.
    lanes: HashMap<String, Vec<ShardLanes>>,
}

impl DynamoDb {
    /// Creates a store with the given provisioning.
    pub fn new(config: DynamoConfig) -> DynamoDb {
        DynamoDb {
            tables: HashMap::new(),
            stats: KvStats::default(),
            writes: ServiceQueue::new(
                SimDuration::from_micros(300),
                config.write_units_per_sec,
                config.latency,
            ),
            reads: ServiceQueue::new(
                SimDuration::from_micros(300),
                config.read_units_per_sec,
                config.latency,
            ),
            faults: FaultInjector::off(),
            obs: Recorder::off(),
            config,
            plan: ShardPlan::single(),
            lanes: HashMap::new(),
        }
    }

    /// The shard plan in force.
    pub fn shard_plan(&self) -> &ShardPlan {
        &self.plan
    }

    /// Makes sure `table` has one lane pair per shard of the current plan.
    fn ensure_lanes(&mut self, table: &str) {
        if self.plan.is_sharded() && !self.lanes.contains_key(table) {
            let lanes = (0..self.plan.shards())
                .map(|_| ShardLanes::new(&self.config))
                .collect();
            self.lanes.insert(table.to_string(), lanes);
        }
    }

    /// The shard to tag a request's spans with: the one shard every key
    /// routes to, `None` when the batch fans out (or the store is
    /// unsharded).
    fn shard_hint<'a>(&self, mut hash_keys: impl Iterator<Item = &'a str>) -> Option<usize> {
        if !self.plan.is_sharded() {
            return None;
        }
        let first = self.plan.route(hash_keys.next()?);
        hash_keys
            .all(|k| self.plan.route(k) == first)
            .then_some(first)
    }

    /// Adds one item's (or key's) service units, billed units and bytes
    /// to its shard's share of the request. The sums over all shards
    /// equal the unsharded aggregates exactly (the fractional unit models
    /// decompose per item / per key), which is what keeps sharded billing
    /// byte-identical.
    fn add_share(
        plan: &ShardPlan,
        groups: &mut BTreeMap<usize, ShardAgg>,
        hash_key: &str,
        (units, billed, bytes): (f64, u64, u64),
    ) {
        if plan.is_sharded() {
            let agg = groups.entry(plan.route(hash_key)).or_default();
            agg.units += units;
            agg.billed += billed;
            agg.bytes += bytes;
        }
    }

    /// Rolls the fault injector for a request that reached the service
    /// ([`crate::kv::throttle`]). `shard` tags the throttle span when the
    /// rejected request resolves to one shard, so hot shards are visible
    /// in the throttle series.
    fn maybe_throttle(
        &mut self,
        now: SimTime,
        is_write: bool,
        shard: Option<usize>,
    ) -> Result<(), KvError> {
        let queue = if is_write { &self.writes } else { &self.reads };
        let available_at = now + queue.latency;
        throttle(
            &mut self.faults,
            &mut self.stats,
            &self.obs,
            (now, available_at),
            is_write,
            shard,
        )
    }

    /// Serves one batch's shard groups: each touched shard's write (or
    /// read) lane serves its subset as one request, and the batch
    /// completes when the slowest shard responds. One span per shard,
    /// tagged.
    fn serve_shards(
        &mut self,
        now: SimTime,
        table: &str,
        op: &'static str,
        is_write: bool,
        groups: &BTreeMap<usize, ShardAgg>,
    ) -> SimTime {
        let lanes = self.lanes.get_mut(table).expect("ensure_lanes ran");
        let mut ready = now;
        for (&s, agg) in groups {
            let lane = if is_write {
                &mut lanes[s].writes
            } else {
                &mut lanes[s].reads
            };
            let done = lane.serve(now, agg.units);
            ready = ready.max(done);
            let busy = lane.service_time(agg.units);
            let (units, billed, bytes) = (agg.units, agg.billed, agg.bytes);
            self.obs.record(|p, ctx| {
                let price = if is_write { p.idx_put } else { p.idx_get };
                Span::new(ServiceKind::Kv, op, now, done, ctx)
                    .bytes(bytes)
                    .units(units)
                    .busy(busy)
                    .billed(price * billed)
                    .shard(Some(s))
            });
        }
        ready
    }

    /// Write capacity consumed by one item: a fixed per-item processing
    /// share plus its size in KB. (Real DynamoDB *bills* ceil(KB) per
    /// item; for service *time* the fractional-byte model matches the
    /// paper's observation that DynamoDB throughput was the indexing
    /// bottleneck — upload time tracks index bytes, with a per-item
    /// floor.)
    fn write_units(item_bytes: usize) -> f64 {
        0.05 + item_bytes as f64 / 1024.0
    }

    /// Read capacity consumed: a per-request share plus size in 4 KB
    /// units, halved for eventually-consistent reads (what index look-ups
    /// use).
    fn read_units(bytes: usize) -> f64 {
        0.25 + bytes as f64 / 4096.0 / 2.0
    }

    /// Checks the key and item limits; returns the item's size.
    fn validate(item: &KvItem) -> Result<usize, KvError> {
        if item.hash_key.len() > MAX_HASH_KEY_BYTES {
            return Err(KvError::KeyTooLarge {
                limit: MAX_HASH_KEY_BYTES,
                got: item.hash_key.len(),
            });
        }
        if item.range_key.len() > MAX_RANGE_KEY_BYTES {
            return Err(KvError::KeyTooLarge {
                limit: MAX_RANGE_KEY_BYTES,
                got: item.range_key.len(),
            });
        }
        let size = item.byte_size();
        if size > MAX_ITEM_BYTES {
            return Err(KvError::ItemTooLarge {
                limit: MAX_ITEM_BYTES,
                got: size,
            });
        }
        Ok(size)
    }

    /// One read request for all items under `hash_keys` (a `get` is the
    /// one-key case), recorded as `op`.
    fn read<K: AsRef<str>>(
        &mut self,
        now: SimTime,
        table: &str,
        op: &'static str,
        hash_keys: &[K],
    ) -> Result<(Vec<KvItem>, SimTime), KvError> {
        if !self.tables.contains_key(table) {
            return Err(KvError::NoSuchTable(table.to_string()));
        }
        let hint = self.shard_hint(hash_keys.iter().map(AsRef::as_ref));
        self.maybe_throttle(now, false, hint)?;
        let t = self.tables.get(table).expect("checked above");
        let mut items = Vec::new();
        let mut bytes = 0usize;
        let mut billed_units = 0u64;
        let mut groups = BTreeMap::new();
        for k in hash_keys {
            let first = items.len();
            items.extend(t.rows(k.as_ref()));
            // Billed read capacity rounds up *per key* (min 1 unit), so a
            // batch get bills exactly what the same keys fetched one by
            // one would — batching saves API round trips, not capacity.
            let key_bytes: usize = items[first..].iter().map(KvItem::byte_size).sum();
            let key_billed = (Self::read_units(key_bytes).ceil() as u64).max(1);
            bytes += key_bytes;
            billed_units += key_billed;
            // The aggregate service units below decompose exactly per
            // key — read_units(B) + 0.25·(k−1) = Σ_k read_units(b_k) —
            // so routing each key's share to its shard conserves both
            // total service time and billed capacity.
            let share = (Self::read_units(key_bytes), key_billed, key_bytes as u64);
            Self::add_share(&self.plan, &mut groups, k.as_ref(), share);
        }
        // Service time keeps the fractional aggregate: one request's worth
        // of overhead plus a per-key share plus volume.
        let units = Self::read_units(bytes) + 0.25 * (hash_keys.len().saturating_sub(1)) as f64;
        self.stats.get_ops += billed_units;
        self.stats.api_requests += 1;
        self.stats.bytes_read += bytes as u64;
        let ready = if !groups.is_empty() {
            self.ensure_lanes(table);
            self.serve_shards(now, table, op, false, &groups)
        } else {
            let ready = self.reads.serve(now, units);
            self.obs.record(|p, ctx| {
                Span::new(ServiceKind::Kv, op, now, ready, ctx)
                    .bytes(bytes as u64)
                    .units(units)
                    .busy(self.reads.service_time(units))
                    .billed(p.idx_get * billed_units)
            });
            ready
        };
        Ok((items, ready))
    }

    fn table_mut(&mut self, table: &str) -> Result<&mut ItemTable, KvError> {
        self.tables
            .get_mut(table)
            .ok_or_else(|| KvError::NoSuchTable(table.to_string()))
    }
}

impl Default for DynamoDb {
    fn default() -> Self {
        Self::new(DynamoConfig::default())
    }
}

impl KvStore for DynamoDb {
    fn profile(&self) -> KvProfile {
        KvProfile {
            name: "DynamoDB",
            supports_binary: true,
            max_value_bytes: MAX_ITEM_BYTES, // bounded by the item cap
            max_item_bytes: MAX_ITEM_BYTES,
            max_attrs_per_item: usize::MAX,
            batch_put_limit: BATCH_PUT_LIMIT,
            batch_get_limit: BATCH_GET_LIMIT,
        }
    }

    fn ensure_table(&mut self, table: &str) {
        self.tables.entry(table.to_string()).or_default();
        self.ensure_lanes(table);
    }

    fn set_shard_plan(&mut self, plan: ShardPlan) {
        self.plan = plan;
        self.lanes.clear();
        if self.plan.is_sharded() {
            let tables: Vec<String> = self.tables.keys().cloned().collect();
            for t in tables {
                self.ensure_lanes(&t);
            }
        }
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
        let mut units = 0.0;
        let mut billed_units = 0u64;
        let mut bytes_written = 0u64;
        let mut groups = BTreeMap::new();
        for item in &items {
            let size = Self::validate(item)?;
            bytes_written += size as u64;
            let item_units = Self::write_units(size);
            units += item_units;
            // Billed capacity rounds up *per item* (min 1 unit), as real
            // DynamoDB does: batching packs items into one API round trip
            // but never changes the provisioned capacity they consume.
            let item_billed = (item_units.ceil() as u64).max(1);
            billed_units += item_billed;
            let share = (item_units, item_billed, size as u64);
            Self::add_share(&self.plan, &mut groups, &item.hash_key, share);
        }
        let hint = self.shard_hint(items.iter().map(|item| &*item.hash_key));
        self.maybe_throttle(now, true, hint)?;
        let t = self.table_mut(table)?;
        let mut raw_delta: i64 = 0;
        let mut ovh_delta: i64 = 0;
        for item in items {
            let size = item.byte_size() as i64;
            if let Some(old) = t.put(item) {
                raw_delta -= old.byte_size() as i64;
                ovh_delta -= ITEM_OVERHEAD_BYTES as i64;
            }
            raw_delta += size;
            ovh_delta += ITEM_OVERHEAD_BYTES as i64;
        }
        self.stats.raw_bytes = (self.stats.raw_bytes as i64 + raw_delta) as u64;
        self.stats.overhead_bytes = (self.stats.overhead_bytes as i64 + ovh_delta) as u64;
        // DynamoDB bills by provisioned *write capacity units*, which is
        // what the cost model's `IDXput$ × |op(D, I)|` term multiplies —
        // the paper's Table 6 / Figure 12 DynamoDB charges track data
        // volume, not request counts. Service *time* keeps the fractional
        // aggregate so throughput still tracks index bytes (Figure 10).
        self.stats.put_ops += billed_units;
        self.stats.api_requests += 1;
        let ready = if self.plan.is_sharded() {
            self.ensure_lanes(table);
            self.serve_shards(now, table, "batch_put", true, &groups)
        } else {
            let ready = self.writes.serve(now, units);
            self.obs.record(|p, ctx| {
                Span::new(ServiceKind::Kv, "batch_put", now, ready, ctx)
                    .bytes(bytes_written)
                    .units(units)
                    .busy(self.writes.service_time(units))
                    .billed(p.idx_put * billed_units)
            });
            ready
        };
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
        if !self.tables.contains_key(table) {
            return Err(KvError::NoSuchTable(table.to_string()));
        }
        let hint = self.shard_hint(keys.iter().map(|(hash, _)| hash.as_str()));
        self.maybe_throttle(now, true, hint)?;
        let mut units = 0.0;
        let mut billed_units = 0u64;
        let mut raw_delta: i64 = 0;
        let mut ovh_delta: i64 = 0;
        let mut groups = BTreeMap::new();
        let t = self.tables.get_mut(table).expect("checked above");
        for (hash, range) in keys {
            let removed = t.remove(hash, range);
            // DeleteItem consumes write capacity sized by the *deleted*
            // item — and a delete of a nonexistent item still consumes
            // one write unit, which is what keeps retried deletes billed
            // (and idempotent) rather than free no-ops.
            let item_units = match &removed {
                Some(old) => {
                    let size = old.byte_size();
                    raw_delta -= size as i64;
                    ovh_delta -= ITEM_OVERHEAD_BYTES as i64;
                    Self::write_units(size)
                }
                None => Self::write_units(0),
            };
            units += item_units;
            let item_billed = (item_units.ceil() as u64).max(1);
            billed_units += item_billed;
            Self::add_share(&self.plan, &mut groups, hash, (item_units, item_billed, 0));
        }
        self.stats.raw_bytes = (self.stats.raw_bytes as i64 + raw_delta) as u64;
        self.stats.overhead_bytes = (self.stats.overhead_bytes as i64 + ovh_delta) as u64;
        self.stats.put_ops += billed_units;
        self.stats.api_requests += 1;
        let ready = if groups.is_empty() {
            let ready = self.writes.serve(now, units);
            self.obs.record(|p, ctx| {
                Span::new(ServiceKind::Kv, "batch_delete", now, ready, ctx)
                    .units(units)
                    .busy(self.writes.service_time(units))
                    .billed(p.idx_put * billed_units)
            });
            ready
        } else {
            self.ensure_lanes(table);
            self.serve_shards(now, table, "batch_delete", true, &groups)
        };
        Ok(ready)
    }

    fn get(
        &mut self,
        now: SimTime,
        table: &str,
        hash_key: &str,
    ) -> Result<(Vec<KvItem>, SimTime), KvError> {
        self.read(now, table, "get", &[hash_key])
    }

    fn batch_get(
        &mut self,
        now: SimTime,
        table: &str,
        hash_keys: &[String],
    ) -> Result<(Vec<KvItem>, SimTime), KvError> {
        if hash_keys.len() > BATCH_GET_LIMIT {
            return Err(KvError::BatchTooLarge {
                limit: BATCH_GET_LIMIT,
                got: hash_keys.len(),
            });
        }
        self.read(now, table, "batch_get", hash_keys)
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
        peek_tables(&self.tables)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn item(hash: &str, range: &str, uri: &str, val: KvValue) -> KvItem {
        KvItem {
            hash_key: hash.into(),
            range_key: range.into(),
            attrs: [(uri.into(), vec![val])].into(),
        }
    }

    #[test]
    fn put_then_get_by_hash_key() {
        let mut db = DynamoDb::default();
        db.ensure_table("idx");
        db.batch_put(
            SimTime::ZERO,
            "idx",
            vec![
                item("ename", "u1", "delacroix.xml", KvValue::S(String::new())),
                item("ename", "u2", "manet.xml", KvValue::S(String::new())),
                item("aid", "u3", "delacroix.xml", KvValue::S(String::new())),
            ],
        )
        .unwrap();
        let (items, _) = db.get(SimTime::ZERO, "idx", "ename").unwrap();
        assert_eq!(items.len(), 2);
        let (items, _) = db.get(SimTime::ZERO, "idx", "missing").unwrap();
        assert!(items.is_empty());
    }

    #[test]
    fn same_primary_key_replaces() {
        let mut db = DynamoDb::default();
        db.ensure_table("t");
        db.batch_put(
            SimTime::ZERO,
            "t",
            vec![item("k", "r", "a", KvValue::S("1".into()))],
        )
        .unwrap();
        db.batch_put(
            SimTime::ZERO,
            "t",
            vec![item("k", "r", "b", KvValue::S("22".into()))],
        )
        .unwrap();
        let (items, _) = db.get(SimTime::ZERO, "t", "k").unwrap();
        assert_eq!(items.len(), 1);
        assert_eq!(&*items[0].attrs[0].0, "b");
        // Storage reflects only the replacement item (+ one overhead).
        let st = db.stats();
        assert_eq!(st.raw_bytes, items[0].byte_size() as u64);
        assert_eq!(st.overhead_bytes, ITEM_OVERHEAD_BYTES);
    }

    #[test]
    fn binary_values_are_supported() {
        let mut db = DynamoDb::default();
        db.ensure_table("t");
        db.batch_put(
            SimTime::ZERO,
            "t",
            vec![item("k", "r", "doc", KvValue::B(vec![1, 2, 3]))],
        )
        .unwrap();
        let (items, _) = db.get(SimTime::ZERO, "t", "k").unwrap();
        assert!(items[0].attrs[0].1[0].is_binary());
    }

    #[test]
    fn limits_are_enforced() {
        let mut db = DynamoDb::default();
        db.ensure_table("t");
        // Oversized item.
        let big = item("k", "r", "doc", KvValue::B(vec![0; MAX_ITEM_BYTES + 1]));
        assert!(matches!(
            db.batch_put(SimTime::ZERO, "t", vec![big]),
            Err(KvError::ItemTooLarge { .. })
        ));
        // Oversized hash key.
        let long_key = item(&"k".repeat(3000), "r", "doc", KvValue::S(String::new()));
        assert!(matches!(
            db.batch_put(SimTime::ZERO, "t", vec![long_key]),
            Err(KvError::KeyTooLarge { .. })
        ));
        // Oversized batch.
        let many = (0..26)
            .map(|i| item("k", &format!("r{i}"), "doc", KvValue::S(String::new())))
            .collect();
        assert!(matches!(
            db.batch_put(SimTime::ZERO, "t", many),
            Err(KvError::BatchTooLarge { .. })
        ));
        // Missing table.
        assert!(matches!(
            db.get(SimTime::ZERO, "nope", "k"),
            Err(KvError::NoSuchTable(_))
        ));
    }

    #[test]
    fn billing_counts_capacity_units_not_batches() {
        let mut db = DynamoDb::default();
        db.ensure_table("t");
        let items: Vec<KvItem> = (0..25)
            .map(|i| item("k", &format!("r{i}"), "doc", KvValue::S(String::new())))
            .collect();
        db.batch_put(SimTime::ZERO, "t", items).unwrap();
        let st = db.stats();
        // 25 small items each bill the 1-unit per-item minimum, in one
        // API request.
        assert_eq!(st.put_ops, 25);
        assert_eq!(st.api_requests, 1);
        // A single 8 KB item bills by volume: ceil(0.05 + 8) = 9 units.
        let mut db2 = DynamoDb::default();
        db2.ensure_table("t");
        db2.batch_put(
            SimTime::ZERO,
            "t",
            vec![item("k", "r", "doc", KvValue::B(vec![0; 8192]))],
        )
        .unwrap();
        assert_eq!(db2.stats().put_ops, 9);
    }

    #[test]
    fn batching_never_changes_billed_write_units() {
        // The same 25 items, uploaded as one batch and one by one, must
        // consume identical billed capacity — batching may only save API
        // round trips. Mix sizes so several per-item ceils are fractional.
        let items: Vec<KvItem> = (0..25)
            .map(|i| {
                item(
                    "k",
                    &format!("r{i}"),
                    "doc",
                    KvValue::B(vec![0; (i * 700) % 9000]),
                )
            })
            .collect();
        let mut batched = DynamoDb::default();
        batched.ensure_table("t");
        batched
            .batch_put(SimTime::ZERO, "t", items.clone())
            .unwrap();
        let mut single = DynamoDb::default();
        single.ensure_table("t");
        for it in items {
            single.batch_put(SimTime::ZERO, "t", vec![it]).unwrap();
        }
        assert_eq!(batched.stats().put_ops, single.stats().put_ops);
        assert_eq!(batched.stats().api_requests, 1);
        assert_eq!(single.stats().api_requests, 25);
    }

    #[test]
    fn batching_never_changes_billed_read_units() {
        let mut db = DynamoDb::default();
        db.ensure_table("t");
        for i in 0..10 {
            db.batch_put(
                SimTime::ZERO,
                "t",
                vec![item(
                    &format!("k{i}"),
                    "r",
                    "d",
                    KvValue::B(vec![0; (i * 1500) % 12_000]),
                )],
            )
            .unwrap();
        }
        let keys: Vec<String> = (0..10).map(|i| format!("k{i}")).collect();
        let before = db.stats();
        db.batch_get(SimTime::ZERO, "t", &keys).unwrap();
        let batched_units = db.stats().get_ops - before.get_ops;
        let mid = db.stats();
        for k in &keys {
            db.get(SimTime::ZERO, "t", k).unwrap();
        }
        let single_units = db.stats().get_ops - mid.get_ops;
        assert_eq!(batched_units, single_units);
    }

    #[test]
    fn delete_bills_write_units_and_frees_storage() {
        let mut db = DynamoDb::default();
        db.ensure_table("t");
        // An 8 KB item bills ceil(0.05 + 8) = 9 units to write — and the
        // same 9 units to delete (DeleteItem is billed by the size of the
        // removed item).
        db.batch_put(
            SimTime::ZERO,
            "t",
            vec![item("k", "r", "doc", KvValue::B(vec![0; 8192]))],
        )
        .unwrap();
        let st = db.stats();
        assert_eq!(st.put_ops, 9);
        assert!(st.raw_bytes > 0);
        assert_eq!(st.overhead_bytes, ITEM_OVERHEAD_BYTES);
        let done = db
            .batch_delete(SimTime(3), "t", &[("k".into(), "r".into())])
            .unwrap();
        assert!(done > SimTime(3));
        let st = db.stats();
        assert_eq!(st.put_ops, 18, "delete bills like the put did");
        assert_eq!(st.raw_bytes, 0);
        assert_eq!(st.overhead_bytes, 0);
        assert!(db.peek_all().is_empty());
    }

    #[test]
    fn deleting_a_missing_key_bills_the_minimum_and_is_idempotent() {
        let mut db = DynamoDb::default();
        db.ensure_table("t");
        db.batch_delete(SimTime::ZERO, "t", &[("k".into(), "r".into())])
            .unwrap();
        db.batch_delete(SimTime::ZERO, "t", &[("k".into(), "r".into())])
            .unwrap();
        let st = db.stats();
        assert_eq!(st.put_ops, 2, "each attempt bills one write unit");
        assert_eq!(st.api_requests, 2);
        assert_eq!(st.raw_bytes, 0);
        assert_eq!(st.overhead_bytes, 0);
        // Limits still apply.
        let many: Vec<(String, String)> = (0..26).map(|i| ("k".into(), format!("r{i}"))).collect();
        assert!(matches!(
            db.batch_delete(SimTime::ZERO, "t", &many),
            Err(KvError::BatchTooLarge { .. })
        ));
        assert!(matches!(
            db.batch_delete(SimTime::ZERO, "nope", &[("k".into(), "r".into())]),
            Err(KvError::NoSuchTable(_))
        ));
    }

    #[test]
    fn throttled_deletes_leave_items_in_place() {
        let mut db = DynamoDb::default();
        db.ensure_table("t");
        db.batch_put(
            SimTime::ZERO,
            "t",
            vec![item("k", "r", "d", KvValue::S(String::new()))],
        )
        .unwrap();
        db.set_faults(FaultInjector::new(1.0, 17)); // clamped to 0.95
        let mut throttles = 0;
        for _ in 0..50 {
            match db.batch_delete(SimTime(55), "t", &[("k".into(), "r".into())]) {
                Ok(_) => {}
                Err(KvError::Throttled { available_at }) => {
                    assert!(available_at > SimTime(55));
                    throttles += 1;
                }
                Err(e) => panic!("unexpected {e}"),
            }
        }
        assert!(throttles > 0, "a 95% rate throttles within 50 calls");
        assert_eq!(db.stats().throttled, throttles);
        assert!(db.peek_all().is_empty(), "a non-throttled attempt landed");
    }

    #[test]
    fn saturation_grows_completion_times() {
        // A provisioned write rate of 100 units/s given 1000 small items
        // must take roughly a second (capacity + per-request overhead).
        let mut db = DynamoDb::new(DynamoConfig {
            write_units_per_sec: 100.0,
            ..Default::default()
        });
        db.ensure_table("t");
        let mut last = SimTime::ZERO;
        for i in 0..1000 {
            last = db
                .batch_put(
                    SimTime::ZERO,
                    "t",
                    vec![item("k", &format!("r{i}"), "d", KvValue::S(String::new()))],
                )
                .unwrap();
        }
        assert!(last.as_secs_f64() > 0.8, "took {}", last.as_secs_f64());
        // Larger items consume proportionally more capacity.
        let mut db2 = DynamoDb::new(DynamoConfig {
            write_units_per_sec: 100.0,
            ..Default::default()
        });
        db2.ensure_table("t");
        let mut last2 = SimTime::ZERO;
        for i in 0..1000 {
            last2 = db2
                .batch_put(
                    SimTime::ZERO,
                    "t",
                    vec![item("k", &format!("r{i}"), "d", KvValue::B(vec![0; 2048]))],
                )
                .unwrap();
        }
        assert!(last2.micros() > 5 * last.micros());
    }

    #[test]
    fn throttled_requests_bill_a_unit_and_leave_data_untouched() {
        let mut db = DynamoDb::default();
        db.ensure_table("t");
        db.set_faults(FaultInjector::new(1.0, 11)); // clamped to 0.95
        let mut throttles = 0;
        for i in 0..50 {
            match db.batch_put(
                SimTime(55),
                "t",
                vec![item("k", &format!("r{i}"), "d", KvValue::S(String::new()))],
            ) {
                Ok(_) => {}
                Err(KvError::Throttled { available_at }) => {
                    assert!(available_at > SimTime(55));
                    throttles += 1;
                }
                Err(e) => panic!("unexpected {e}"),
            }
        }
        assert!(throttles > 0, "a 95% rate throttles within 50 calls");
        let st = db.stats();
        assert_eq!(st.throttled, throttles);
        assert_eq!(st.api_requests, 50);
        // Only the successful puts landed.
        assert_eq!(db.peek_all().len(), 50 - throttles as usize);
    }

    #[test]
    fn peek_all_is_sorted_and_free() {
        let mut db = DynamoDb::default();
        db.ensure_table("t");
        db.batch_put(
            SimTime::ZERO,
            "t",
            vec![
                item("b", "r", "d", KvValue::S(String::new())),
                item("a", "r2", "d", KvValue::S(String::new())),
                item("a", "r1", "d", KvValue::S(String::new())),
            ],
        )
        .unwrap();
        let before = db.stats();
        let all = db.peek_all();
        assert_eq!(db.stats(), before, "peek_all must not bill anything");
        let keys: Vec<(String, String)> = all
            .iter()
            .map(|(_, i)| (i.hash_key.to_string(), i.range_key.to_string()))
            .collect();
        assert_eq!(
            keys,
            vec![
                ("a".into(), "r1".into()),
                ("a".into(), "r2".into()),
                ("b".into(), "r".into()),
            ]
        );
    }

    #[test]
    fn batch_get_covers_many_keys_in_one_request() {
        let mut db = DynamoDb::default();
        db.ensure_table("t");
        for i in 0..5 {
            db.batch_put(
                SimTime::ZERO,
                "t",
                vec![item(&format!("k{i}"), "r", "d", KvValue::S(String::new()))],
            )
            .unwrap();
        }
        let keys: Vec<String> = (0..5).map(|i| format!("k{i}")).collect();
        let before = db.stats().api_requests;
        let (items, _) = db.batch_get(SimTime::ZERO, "t", &keys).unwrap();
        assert_eq!(items.len(), 5);
        assert_eq!(db.stats().api_requests, before + 1);
        // Five near-empty keys each bill the 1-unit per-key minimum.
        assert_eq!(db.stats().get_ops, 5);
    }

    /// A deterministic pseudo-random byte count for property-style tests
    /// (no host randomness allowed in the simulation crates).
    fn mix(seed: u64, i: u64) -> usize {
        let mut x = seed
            .wrapping_mul(0x9e37_79b9_7f4a_7c15)
            .wrapping_add(i.wrapping_mul(0xbf58_476d_1ce4_e5b9));
        x ^= x >> 31;
        x = x.wrapping_mul(0x94d0_49bb_1331_11eb);
        x ^= x >> 29;
        (x % 10_000) as usize
    }

    #[test]
    fn batch_get_billing_is_partition_invariant() {
        // Property: however a key set is partitioned into batch_get
        // calls, the billed read units are identical — the per-key ceil
        // (min 1) makes billing a pure per-key function. This pins the
        // audited `read_units(bytes) + 0.25·(keys−1)` aggregate as the
        // *service-time* side only; billing never uses it.
        for seed in 0..4u64 {
            let populate = |db: &mut DynamoDb| {
                db.ensure_table("t");
                for i in 0..12u64 {
                    db.batch_put(
                        SimTime::ZERO,
                        "t",
                        vec![item(
                            &format!("k{i}"),
                            "r",
                            "d",
                            KvValue::B(vec![0; mix(seed, i)]),
                        )],
                    )
                    .unwrap();
                }
            };
            let keys: Vec<String> = (0..12).map(|i| format!("k{i}")).collect();
            // One call with all keys.
            let mut whole = DynamoDb::default();
            populate(&mut whole);
            let base = whole.stats().get_ops;
            whole.batch_get(SimTime::ZERO, "t", &keys).unwrap();
            let whole_units = whole.stats().get_ops - base;
            // A seed-dependent split into two uneven calls.
            let cut = 1 + mix(seed, 99) % 10;
            let mut split = DynamoDb::default();
            populate(&mut split);
            let base = split.stats().get_ops;
            split.batch_get(SimTime::ZERO, "t", &keys[..cut]).unwrap();
            split.batch_get(SimTime::ZERO, "t", &keys[cut..]).unwrap();
            assert_eq!(split.stats().get_ops - base, whole_units, "seed {seed}");
            // Fully unbatched singles.
            let mut singles = DynamoDb::default();
            populate(&mut singles);
            let base = singles.stats().get_ops;
            for k in &keys {
                singles.get(SimTime::ZERO, "t", k).unwrap();
            }
            assert_eq!(singles.stats().get_ops - base, whole_units, "seed {seed}");
        }
    }

    #[test]
    fn batch_get_service_units_decompose_per_key() {
        // The audited service-time aggregate read_units(B) + 0.25·(k−1)
        // equals the sum of per-key fractional units Σ (0.25 + b_k/8192)
        // exactly — the identity the sharded store relies on to split a
        // batch across shards without changing total service demand.
        for k in [1usize, 2, 7, 100] {
            let total_bytes: usize = (0..k).map(|i| mix(7, i as u64)).sum();
            let aggregate = DynamoDb::read_units(total_bytes) + 0.25 * (k.saturating_sub(1)) as f64;
            let per_key: f64 = (0..k).map(|i| DynamoDb::read_units(mix(7, i as u64))).sum();
            assert!(
                (aggregate - per_key).abs() < 1e-9,
                "k={k}: {aggregate} vs {per_key}"
            );
        }
    }

    fn shard_fixture(plan: ShardPlan) -> DynamoDb {
        let mut db = DynamoDb::default();
        db.set_shard_plan(plan);
        db.ensure_table("t");
        db
    }

    #[test]
    fn sharding_preserves_contents_billing_and_answers() {
        let items: Vec<KvItem> = (0..20)
            .map(|i| {
                item(
                    &format!("k{}", i % 7),
                    &format!("r{i}"),
                    "d",
                    KvValue::B(vec![0; mix(3, i)]),
                )
            })
            .collect();
        let mut flat = shard_fixture(ShardPlan::single());
        let mut sharded = shard_fixture(ShardPlan::with_hot_keys(3, ["k0", "k1"]));
        for chunk in items.chunks(5) {
            flat.batch_put(SimTime::ZERO, "t", chunk.to_vec()).unwrap();
            sharded
                .batch_put(SimTime::ZERO, "t", chunk.to_vec())
                .unwrap();
        }
        let keys: Vec<String> = (0..7).map(|i| format!("k{i}")).collect();
        let (a, _) = flat.batch_get(SimTime::ZERO, "t", &keys).unwrap();
        let (b, _) = sharded.batch_get(SimTime::ZERO, "t", &keys).unwrap();
        assert_eq!(a, b, "answers are routing-independent");
        flat.batch_delete(SimTime::ZERO, "t", &[("k0".into(), "r0".into())])
            .unwrap();
        sharded
            .batch_delete(SimTime::ZERO, "t", &[("k0".into(), "r0".into())])
            .unwrap();
        assert_eq!(flat.stats(), sharded.stats(), "billing is plan-blind");
        assert_eq!(flat.peek_all(), sharded.peek_all());
    }

    #[test]
    fn sharded_spans_carry_shard_ids() {
        use crate::pricing::PriceTable;
        let mut db = shard_fixture(ShardPlan::with_hot_keys(2, ["hot"]));
        let rec = Recorder::enabled(PriceTable::default());
        db.set_recorder(rec.clone());
        db.batch_put(
            SimTime::ZERO,
            "t",
            vec![
                item("hot", "r1", "d", KvValue::S(String::new())),
                item("cold-a", "r2", "d", KvValue::S(String::new())),
            ],
        )
        .unwrap();
        db.get(SimTime::ZERO, "t", "hot").unwrap();
        let spans = rec.spans();
        let put_shards: Vec<Option<usize>> = spans
            .iter()
            .filter(|s| s.op == "batch_put")
            .map(|s| s.shard)
            .collect();
        assert_eq!(put_shards.len(), 2, "one span per touched shard");
        assert!(put_shards.contains(&Some(2)), "hot key owns shard 2");
        let get_span = spans.iter().find(|s| s.op == "get").unwrap();
        assert_eq!(get_span.shard, Some(2));
        // Unsharded spans stay untagged.
        let mut flat = DynamoDb::default();
        flat.ensure_table("t");
        let rec2 = Recorder::enabled(PriceTable::default());
        flat.set_recorder(rec2.clone());
        flat.batch_put(
            SimTime::ZERO,
            "t",
            vec![item("k", "r", "d", KvValue::S(String::new()))],
        )
        .unwrap();
        assert!(rec2.spans().iter().all(|s| s.shard.is_none()));
    }

    #[test]
    fn a_hot_shard_saturates_alone() {
        // 100 writes to the hot key and 1 to a cold key: the hot shard's
        // queue stretches while the cold shard answers at first-request
        // speed — per-shard provisioning isolates the victim.
        let cfg = DynamoConfig {
            write_units_per_sec: 100.0,
            ..Default::default()
        };
        let mut db = DynamoDb::new(cfg);
        db.set_shard_plan(ShardPlan::with_hot_keys(1, ["hot"]));
        db.ensure_table("t");
        let mut hot_done = SimTime::ZERO;
        for i in 0..100 {
            hot_done = db
                .batch_put(
                    SimTime::ZERO,
                    "t",
                    vec![item(
                        "hot",
                        &format!("r{i}"),
                        "d",
                        KvValue::B(vec![0; 2048]),
                    )],
                )
                .unwrap();
        }
        let cold_done = db
            .batch_put(
                SimTime::ZERO,
                "t",
                vec![item("cold", "r", "d", KvValue::B(vec![0; 2048]))],
            )
            .unwrap();
        assert!(
            hot_done.micros() > 10 * cold_done.micros(),
            "hot {hot_done:?} vs cold {cold_done:?}"
        );
    }

    #[test]
    fn throttles_on_a_sharded_store_tag_the_routed_shard() {
        use crate::pricing::PriceTable;
        let mut db = shard_fixture(ShardPlan::with_hot_keys(1, ["hot"]));
        let rec = Recorder::enabled(PriceTable::default());
        db.set_recorder(rec.clone());
        db.set_faults(FaultInjector::new(1.0, 5)); // clamped to 0.95
        let mut tagged = 0;
        for _ in 0..50 {
            if db.get(SimTime::ZERO, "t", "hot").is_err() {
                tagged += 1;
            }
        }
        assert!(tagged > 0);
        let throttle_shards: Vec<Option<usize>> = rec
            .spans()
            .iter()
            .filter(|s| s.outcome == crate::Outcome::Throttled)
            .map(|s| s.shard)
            .collect();
        assert_eq!(throttle_shards.len() as u64, tagged);
        assert!(throttle_shards.iter().all(|&s| s == Some(1)));
    }
}
