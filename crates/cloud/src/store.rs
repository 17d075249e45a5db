//! The one key-value index store.
//!
//! DynamoDB and SimpleDB hold the same tables ([`ItemTable`]) behind the
//! same API and take every request through the same steps; what differs
//! is the *service* — its limits, what it bills, how fast it serves — and
//! [`KvBackend`] is all that names one: a variant per service, its
//! numbers constants of the service's module. [`KvStore`] is the one
//! store, opened on a backend. Every request, on either backend, runs
//!
//! ```text
//! batch limit → item limits → table exists → fault roll
//!   → change the table → account stored bytes → meter → serve on a lane → span
//! ```
//!
//! in that order, so a request the service would reject is rejected
//! before it can be throttled (it bills nothing and draws nothing from
//! the fault stream), and a throttled request has touched no data.

use crate::clock::SimTime;
use crate::dynamodb;
use crate::fault::FaultInjector;
use crate::kv::{ItemTable, KvError, KvItem, KvProfile, KvStats};
use crate::money::Money;
use crate::obs::{Outcome, Recorder, ServiceKind, Span};
use crate::pricing::PRICES;
use crate::service::ServiceQueue;
use crate::simpledb;
use crate::tuning::KvTuning;
use std::collections::HashMap;

/// What the services measure an item by: its payload size and how many
/// attribute values it carries. The default is the item that is not
/// there (what a delete of an absent key removes).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct Footprint {
    /// [`KvItem::byte_size`].
    pub bytes: usize,
    /// Attribute values over all attribute names.
    pub values: usize,
}

impl Footprint {
    fn of(item: &KvItem) -> Footprint {
        Footprint {
            bytes: item.byte_size(),
            values: item.value_count(),
        }
    }
}

/// What one item written, or one hash key read, costs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct Meter {
    /// Units of the lane's rate this occupies the service for. Stays
    /// fractional: service *time* tracks volume (the paper's Figure 10
    /// saturation), whatever the bill rounds to.
    pub service: f64,
    /// Units billed (`IDXput$` / `IDXget$` each).
    pub billed: u64,
}

/// A write queue and a read queue: the service as a whole, shared by
/// every table of the store.
#[derive(Debug, Clone)]
pub(crate) struct Lanes {
    /// Serves `batch_put` and `batch_delete`.
    pub writes: ServiceQueue,
    /// Serves `get` and `batch_get`.
    pub reads: ServiceQueue,
}

/// Which side of a service a request is on: the lane it queues on, the
/// price of its units, the counters its units and bytes go to, and the op
/// a throttled request is recorded as (whatever it was).
struct Dir {
    lane: fn(&mut Lanes) -> &mut ServiceQueue,
    price: Money,
    billed_ops: fn(&mut KvStats) -> &mut u64,
    count_bytes: fn(&mut KvStats, u64),
    throttled_op: &'static str,
}

const WRITE: Dir = Dir {
    lane: |lanes| &mut lanes.writes,
    price: PRICES.idx_put,
    billed_ops: |stats| &mut stats.put_ops,
    count_bytes: |_, _| {},
    throttled_op: "put",
};

const READ: Dir = Dir {
    lane: |lanes| &mut lanes.reads,
    price: PRICES.idx_get,
    billed_ops: |stats| &mut stats.get_ops,
    count_bytes: |stats, bytes| stats.bytes_read += bytes,
    throttled_op: "get",
};

/// Which key-value service hosts the index store: the one description of
/// a service. The table in [`crate::kv`] lists both side by side.
#[derive(Debug, Clone, Copy, Default)]
pub enum KvBackend {
    /// DynamoDB (this paper's system).
    #[default]
    Dynamo,
    /// SimpleDB (the baseline of \[8\], Tables 7–8).
    Simple,
}

impl KvBackend {
    /// Limits and capabilities, before a [`KvTuning`] narrows them.
    pub fn profile(&self) -> KvProfile {
        match self {
            KvBackend::Dynamo => dynamodb::PROFILE,
            KvBackend::Simple => simpledb::PROFILE,
        }
    }

    /// Idle lanes at the service's rates.
    fn lanes(&self) -> Lanes {
        match self {
            KvBackend::Dynamo => dynamodb::lanes(),
            KvBackend::Simple => simpledb::lanes(),
        }
    }

    /// One item written. A delete is metered as the write of what it
    /// removed.
    fn written(&self, item: Footprint) -> Meter {
        match self {
            KvBackend::Dynamo => dynamodb::written(item),
            KvBackend::Simple => simpledb::written(item),
        }
    }

    /// One hash key read, `bytes` of items under it.
    fn read(&self, bytes: usize) -> Meter {
        match self {
            KvBackend::Dynamo => dynamodb::read(bytes),
            KvBackend::Simple => simpledb::read(bytes),
        }
    }

    /// Storage overhead billed for one stored item (the paper's
    /// `ovh(D, I)` is the sum over stored items).
    fn overhead(&self, item: Footprint) -> u64 {
        match self {
            KvBackend::Dynamo => dynamodb::ITEM_OVERHEAD_BYTES,
            KvBackend::Simple => simpledb::ATTR_OVERHEAD_BYTES * item.values as u64,
        }
    }

    /// Whether `batch_get` is one request over up to `batch_get_limit`
    /// keys; otherwise it is sequential `get`s.
    fn batch_get_is_one_request(&self) -> bool {
        matches!(self, KvBackend::Dynamo)
    }

    /// Whether a span's `units` are the billed units; otherwise they are
    /// the service units (capacity consumed).
    fn spans_report_billed_units(&self) -> bool {
        matches!(self, KvBackend::Simple)
    }
}

/// What one request asks of its lane — service units, billed units and
/// bytes moved, metered per item and per key — plus the change in stored
/// bytes it caused, under the rules of `backend`.
struct Demand {
    backend: KvBackend,
    service: f64,
    billed: u64,
    bytes: u64,
    raw_delta: i64,
    overhead_delta: i64,
}

impl Demand {
    fn add(&mut self, meter: Meter, bytes: usize) {
        self.service += meter.service;
        self.billed += meter.billed;
        self.bytes += bytes as u64;
    }

    /// Counts `item` into (`sign` 1) or out of (`sign` −1) storage.
    fn stock(&mut self, sign: i64, item: Footprint) {
        self.raw_delta += sign * item.bytes as i64;
        self.overhead_delta += sign * self.backend.overhead(item) as i64;
    }
}

/// The simulated index store, on either service.
pub struct KvStore {
    backend: KvBackend,
    profile: KvProfile,
    tables: HashMap<String, ItemTable>,
    stats: KvStats,
    faults: FaultInjector,
    obs: Recorder,
    /// The service-wide lanes: they serve every request of every table.
    service: Lanes,
}

impl KvStore {
    /// A store with the service's full profile.
    pub fn new(backend: impl Into<KvBackend>) -> KvStore {
        KvStore::open(backend.into(), KvTuning::NONE)
    }

    /// A store whose profile — advertised *and* enforced — is the
    /// service's narrowed by `tuning`.
    pub fn open(backend: KvBackend, tuning: KvTuning) -> KvStore {
        KvStore {
            service: backend.lanes(),
            profile: tuning.narrow(backend.profile()),
            backend,
            tables: HashMap::new(),
            stats: KvStats::default(),
            faults: FaultInjector::off(),
            obs: Recorder::off(),
        }
    }

    fn check_batch(got: usize, limit: usize) -> Result<(), KvError> {
        if got > limit {
            return Err(KvError::BatchTooLarge { limit, got });
        }
        Ok(())
    }

    /// One request against `table`, from the table look-up on: `body`
    /// changes or reads the table and adds what that costs to the
    /// request's [`Demand`]; everything around it is the same for every
    /// operation of every service.
    fn request<R>(
        &mut self,
        now: SimTime,
        table: &str,
        (op, dir): (&'static str, &Dir),
        body: impl FnOnce(&mut ItemTable, &mut Demand) -> R,
    ) -> Result<(R, SimTime), KvError> {
        let Some(t) = self.tables.get_mut(table) else {
            return Err(KvError::NoSuchTable(table.to_string()));
        };
        if self.faults.roll() {
            // A throttled attempt bills one unit (the minimum charge for
            // a rejected request) and one API round trip, moves no data,
            // and its failure response arrives after the request latency.
            let available_at = now + (dir.lane)(&mut self.service).latency;
            self.stats.throttled += 1;
            self.stats.api_requests += 1;
            *(dir.billed_ops)(&mut self.stats) += 1;
            self.obs.record(|ctx| {
                Span::new(ServiceKind::Kv, dir.throttled_op, now, available_at, ctx)
                    .units(1.0)
                    .billed(dir.price)
                    .outcome(Outcome::Throttled)
            });
            return Err(KvError::Throttled { available_at });
        }
        let mut demand = Demand {
            backend: self.backend,
            service: 0.0,
            billed: 0,
            bytes: 0,
            raw_delta: 0,
            overhead_delta: 0,
        };
        let out = body(t, &mut demand);
        self.stats
            .adjust_stored(demand.raw_delta, demand.overhead_delta);
        self.stats.api_requests += 1;
        let lane = (dir.lane)(&mut self.service);
        let done = lane.serve(now, demand.service);
        *(dir.billed_ops)(&mut self.stats) += demand.billed;
        (dir.count_bytes)(&mut self.stats, demand.bytes);
        self.obs.record(|ctx| {
            let units = if demand.backend.spans_report_billed_units() {
                demand.billed as f64
            } else {
                demand.service
            };
            Span::new(ServiceKind::Kv, op, now, done, ctx)
                .bytes(demand.bytes)
                .units(units)
                .busy(lane.service_time(demand.service))
                .billed(dir.price * demand.billed)
        });
        Ok((out, done))
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
        self.request(now, table, (op, &READ), |t, demand| {
            let mut items = Vec::new();
            for k in hash_keys {
                let first = items.len();
                items.extend(t.rows(k.as_ref()));
                // Metered per key, so a batch get bills exactly what the
                // same keys fetched one by one would — batching saves API
                // round trips, not capacity.
                let key_bytes: usize = items[first..].iter().map(KvItem::byte_size).sum();
                demand.add(demand.backend.read(key_bytes), key_bytes);
            }
            // A k-key read occupies the lane for `read(B) + read(0)·(k−1)`
            // units, B its bytes: its whole volume plus an empty key's
            // worth for every key after the first. That equals the sum of
            // the per-key units up to floating-point association, and a
            // lane's clock is built from these bits, so this is the one
            // rule.
            demand.service = demand.backend.read(demand.bytes as usize).service
                + demand.backend.read(0).service * hash_keys.len().saturating_sub(1) as f64;
            items
        })
    }

    /// Limits and capabilities, as narrowed by the tuning the store was
    /// opened with — what the store advertises is what it enforces.
    pub fn profile(&self) -> KvProfile {
        self.profile
    }

    /// Creates a table if it does not exist: provisioning, a free,
    /// idempotent host-side call. A request against a table never
    /// created is [`KvError::NoSuchTable`].
    pub fn ensure_table(&mut self, table: &str) {
        if !self.tables.contains_key(table) {
            self.tables.insert(table.to_string(), ItemTable::default());
        }
    }

    /// Writes up to `batch_put_limit` items in one API call; an item with
    /// an existing (hash, range) key is replaced wholesale (paper
    /// Section 6). Returns the virtual completion time.
    pub fn batch_put(
        &mut self,
        now: SimTime,
        table: &str,
        items: Vec<KvItem>,
    ) -> Result<SimTime, KvError> {
        Self::check_batch(items.len(), self.profile.batch_put_limit)?;
        for item in &items {
            self.profile.check(item)?;
        }
        let ((), ready) = self.request(now, table, ("batch_put", &WRITE), |t, demand| {
            for item in items {
                let new = Footprint::of(&item);
                demand.add(demand.backend.written(new), new.bytes);
                demand.stock(1, new);
                // An item with an existing (hash, range) key is replaced
                // wholesale: the old item's bytes are no longer stored.
                if let Some(old) = t.put(item) {
                    demand.stock(-1, Footprint::of(&old));
                }
            }
        })?;
        Ok(ready)
    }

    /// Deletes items by full `(hash, range)` primary key, up to
    /// `batch_put_limit` keys per API call (deletes ride the write path
    /// and consume write capacity, exactly like real DynamoDB's
    /// `DeleteItem`). A delete bills as the write of the item it removed
    /// did, and at least one unit — also when the key does not exist.
    /// Deleting an absent key is an idempotent success — the property
    /// that makes retraction retries and queue redeliveries safe without
    /// tombstones. Returns the virtual completion time.
    pub fn batch_delete(
        &mut self,
        now: SimTime,
        table: &str,
        keys: &[(String, String)],
    ) -> Result<SimTime, KvError> {
        // Deletes ride the write path: same batch limit, same lane.
        Self::check_batch(keys.len(), self.profile.batch_put_limit)?;
        let ((), ready) = self.request(now, table, ("batch_delete", &WRITE), |t, demand| {
            for (hash, range) in keys {
                let removed = t.remove(hash, range).map(|old| Footprint::of(&old));
                // A delete is billed by what it removed, as the write of
                // that item was — and a delete of an absent key still
                // bills one unit, which is what keeps retried deletes
                // billed (and idempotent) rather than free no-ops.
                let mut meter = demand.backend.written(removed.unwrap_or_default());
                meter.billed = meter.billed.max(1);
                demand.add(meter, 0);
                if let Some(old) = removed {
                    demand.stock(-1, old);
                }
            }
        })?;
        Ok(ready)
    }

    /// Retrieves all items with the given hash key.
    pub fn get(
        &mut self,
        now: SimTime,
        table: &str,
        hash_key: &str,
    ) -> Result<(Vec<KvItem>, SimTime), KvError> {
        self.read(now, table, "get", &[hash_key])
    }

    /// Retrieves all items for up to `batch_get_limit` hash keys in one
    /// API call (sequential `get`s on a service without one). Results are
    /// concatenated in key order.
    pub fn batch_get(
        &mut self,
        now: SimTime,
        table: &str,
        hash_keys: &[String],
    ) -> Result<(Vec<KvItem>, SimTime), KvError> {
        if self.backend.batch_get_is_one_request() {
            Self::check_batch(hash_keys.len(), self.profile.batch_get_limit)?;
            return self.read(now, table, "batch_get", hash_keys);
        }
        let mut items = Vec::new();
        let mut ready = now;
        for k in hash_keys {
            let (mut batch, t) = self.get(ready, table, k)?;
            items.append(&mut batch);
            ready = t;
        }
        Ok((items, ready))
    }

    /// Usage counters.
    pub fn stats(&self) -> KvStats {
        self.stats
    }

    /// Installs a fault injector: subsequent operations may fail with
    /// [`KvError::Throttled`].
    pub fn set_faults(&mut self, faults: FaultInjector) {
        self.faults = faults;
    }

    /// Installs a span recorder: subsequent operations are recorded as
    /// [`crate::obs::Span`]s.
    pub fn set_recorder(&mut self, recorder: Recorder) {
        self.obs = recorder;
    }

    /// True when a fault injector is installed and active — callers that
    /// must hand over owned data (e.g. `batch_put` payloads) use this to
    /// decide whether to keep a retry copy.
    pub fn faults_active(&self) -> bool {
        self.faults.is_active()
    }

    /// Host-side snapshot of every item in every table, sorted by
    /// `(table, hash_key, range_key)`. No request is billed and no
    /// virtual time passes — this exists for tests that compare whole
    /// index contents byte-for-byte.
    pub fn peek_all(&self) -> Vec<(String, KvItem)> {
        let mut names: Vec<&String> = self.tables.keys().collect();
        names.sort();
        let mut out = Vec::new();
        for name in names {
            out.extend(self.tables[name].all().map(|i| (name.clone(), i)));
        }
        out
    }
}

impl Default for KvStore {
    fn default() -> Self {
        KvStore::new(KvBackend::default())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clock::SimDuration;
    use crate::dynamodb::ITEM_OVERHEAD_BYTES;
    use crate::kv::KvValue;
    use crate::simpledb::ATTR_OVERHEAD_BYTES;
    use amada_rng::StdRng;

    const STRINGS: KvTuning = KvTuning {
        force_string_values: true,
        disable_batching: false,
    };
    const UNBATCHED: KvTuning = KvTuning {
        force_string_values: false,
        disable_batching: true,
    };

    /// One way of opening a store, and what the service it opens bills
    /// for [`probe`]: units to write it (and so to delete it) and bytes
    /// of storage overhead.
    struct Opening {
        name: &'static str,
        store: KvStore,
        probe_units: u64,
        probe_overhead: u64,
    }

    /// Every opening of `tests/store_golden.rs`, table "t" created.
    fn openings() -> Vec<Opening> {
        // ⌈0.05 + 3.0 KB⌉ capacity units and 100 B for the item, against
        // one operation and 45 B for each of its three values.
        let on_dynamo = (4, ITEM_OVERHEAD_BYTES);
        let on_simple = (3, 3 * ATTR_OVERHEAD_BYTES);
        [
            (
                "dynamodb",
                KvStore::open(KvBackend::Dynamo, KvTuning::NONE),
                on_dynamo,
            ),
            (
                "simpledb",
                KvStore::open(KvBackend::Simple, KvTuning::NONE),
                on_simple,
            ),
            (
                "dynamodb-strings",
                KvStore::open(KvBackend::Dynamo, STRINGS),
                on_dynamo,
            ),
            (
                "dynamodb-unbatched",
                KvStore::open(KvBackend::Dynamo, UNBATCHED),
                on_dynamo,
            ),
        ]
        .into_iter()
        .map(|(name, mut store, (probe_units, probe_overhead))| {
            store.ensure_table("t");
            Opening {
                name,
                store,
                probe_units,
                probe_overhead,
            }
        })
        .collect()
    }

    fn item(hash: &str, range: &str, uri: &str, values: &[&str]) -> KvItem {
        let values = values.iter().map(|v| KvValue::S(v));
        KvItem::new(hash.into(), range, uri.into(), values)
    }

    /// A 3 KB item of three values that every opening stores.
    fn probe() -> KvItem {
        let kb = "x".repeat(1020);
        item("k", "r", "doc.xml", &[&kb, &kb, &kb])
    }

    fn key(hash: &str, range: &str) -> (String, String) {
        (hash.to_string(), range.to_string())
    }

    /// Puts `items` one request each (every opening's batch limit allows it).
    fn put_each(store: &mut KvStore, items: Vec<KvItem>) {
        for it in items {
            store.batch_put(SimTime::ZERO, "t", vec![it]).unwrap();
        }
    }

    #[test]
    fn put_then_get_by_hash_key() {
        for Opening {
            name, mut store, ..
        } in openings()
        {
            put_each(
                &mut store,
                vec![
                    item("ename", "u1", "delacroix.xml", &[""]),
                    item("ename", "u2", "manet.xml", &["p2"]),
                    item("aid", "u3", "delacroix.xml", &[""]),
                ],
            );
            let (items, ready) = store.get(SimTime(5), "t", "ename").unwrap();
            assert_eq!(items.len(), 2, "{name}");
            assert_eq!(&*items[1].uri, "manet.xml", "{name}");
            assert!(ready > SimTime(5), "{name}");
            let (items, _) = store.get(SimTime::ZERO, "t", "missing").unwrap();
            assert!(items.is_empty(), "{name}");
        }
    }

    #[test]
    fn an_idle_store_answers_at_the_service_tables_figures() {
        // Per service, the "lane rate", "lane overhead per request" and
        // "latency" rows of the table in `crate::kv`, and its "service
        // unit" row as the units one item written or one key read takes.
        type Units = fn(f64) -> f64;
        let rows: [(KvBackend, f64, f64, u64, u64, Units, Units); 2] = [
            (
                KvBackend::Dynamo,
                10_000.0,
                20_000.0,
                300,
                8_000,
                |bytes| 0.05 + bytes / 1024.0,
                |bytes| 0.25 + bytes / 8192.0,
            ),
            (
                KvBackend::Simple,
                384.0 * 1024.0,
                1536.0 * 1024.0,
                4_000,
                60_000,
                |bytes| bytes,
                |bytes| bytes,
            ),
        ];
        for (backend, write_rate, read_rate, overhead_us, latency_us, written, read) in rows {
            let mut store = KvStore::new(backend);
            store.ensure_table("t");
            // 60 values of 1 000 B: large enough that a rate off by a
            // tenth of a percent moves a completion by a microsecond.
            let value = "x".repeat(1000);
            let it = item("ename", "u1", "delacroix.xml", &[value.as_str(); 60]);
            let bytes = it.byte_size() as f64;
            // `overhead + units/rate + latency`, the service time rounded
            // up to a microsecond.
            let at = |units: f64, rate: f64| {
                SimTime::ZERO
                    + SimDuration::from_micros(overhead_us)
                    + SimDuration::from_secs_f64(units / rate)
                    + SimDuration::from_micros(latency_us)
            };
            let put = store.batch_put(SimTime::ZERO, "t", vec![it]).unwrap();
            assert_eq!(put, at(written(bytes), write_rate), "{backend:?} put");
            let (_, got) = store.get(SimTime::ZERO, "t", "ename").unwrap();
            assert_eq!(got, at(read(bytes), read_rate), "{backend:?} get");
        }
    }

    #[test]
    fn same_primary_key_replaces_wholesale() {
        for Opening {
            name,
            mut store,
            probe_overhead,
            ..
        } in openings()
        {
            put_each(
                &mut store,
                vec![item("k", "r", "a", &["1", "2", "3", "4"]), probe()],
            );
            let (items, _) = store.get(SimTime::ZERO, "t", "k").unwrap();
            assert_eq!(items, vec![probe()], "{name}");
            // Storage reflects only the replacement item and its overhead.
            let st = store.stats();
            assert_eq!(st.raw_bytes, probe().byte_size() as u64, "{name}");
            assert_eq!(st.overhead_bytes, probe_overhead, "{name}");
        }
    }

    #[test]
    fn delete_bills_like_the_write_and_frees_storage() {
        for Opening {
            name,
            mut store,
            probe_units,
            probe_overhead,
        } in openings()
        {
            put_each(&mut store, vec![probe()]);
            let st = store.stats();
            assert_eq!(st.put_ops, probe_units, "{name}");
            assert_eq!(st.raw_bytes, probe().byte_size() as u64, "{name}");
            assert_eq!(st.overhead_bytes, probe_overhead, "{name}");
            let done = store
                .batch_delete(SimTime(3), "t", &[key("k", "r")])
                .unwrap();
            assert!(done > SimTime(3), "{name}");
            let st = store.stats();
            assert_eq!(st.put_ops, 2 * probe_units, "{name}: billed as the put");
            assert_eq!((st.raw_bytes, st.overhead_bytes), (0, 0), "{name}");
            assert_eq!(st.api_requests, 2, "{name}");
            assert!(store.peek_all().is_empty(), "{name}");
        }
    }

    #[test]
    fn deleting_an_absent_key_is_a_billed_idempotent_success() {
        for Opening {
            name, mut store, ..
        } in openings()
        {
            put_each(&mut store, vec![probe()]);
            let before = store.stats();
            for _ in 0..2 {
                store
                    .batch_delete(SimTime::ZERO, "t", &[key("k", "other")])
                    .unwrap();
                store
                    .batch_delete(SimTime::ZERO, "t", &[key("nobody", "r")])
                    .unwrap();
            }
            let st = store.stats();
            assert_eq!(st.put_ops, before.put_ops + 4, "{name}: one unit each");
            assert_eq!(st.api_requests, before.api_requests + 4, "{name}");
            assert_eq!(st.stored_bytes(), before.stored_bytes(), "{name}");
            assert_eq!(store.peek_all().len(), 1, "{name}");
        }
    }

    #[test]
    fn batch_limits_and_missing_tables_are_errors() {
        for Opening {
            name, mut store, ..
        } in openings()
        {
            let p = store.profile();
            let over = p.batch_put_limit + 1;
            let many = (0..over)
                .map(|i| item("k", &format!("r{i}"), "d", &[""]))
                .collect();
            assert_eq!(
                store.batch_put(SimTime::ZERO, "t", many),
                Err(KvError::BatchTooLarge {
                    limit: p.batch_put_limit,
                    got: over
                }),
                "{name}"
            );
            let many: Vec<_> = (0..over).map(|i| key("k", &format!("r{i}"))).collect();
            assert_eq!(
                store.batch_delete(SimTime::ZERO, "t", &many),
                Err(KvError::BatchTooLarge {
                    limit: p.batch_put_limit,
                    got: over
                }),
                "{name}"
            );
            let missing = Err(KvError::NoSuchTable("nope".into()));
            assert_eq!(
                store.batch_put(SimTime::ZERO, "nope", vec![probe()]),
                missing,
                "{name}"
            );
            assert_eq!(
                store.batch_delete(SimTime::ZERO, "nope", &[key("k", "r")]),
                missing,
                "{name}"
            );
            assert_eq!(
                store.get(SimTime::ZERO, "nope", "k").map(|_| SimTime::ZERO),
                missing,
                "{name}"
            );
            assert_eq!(
                store
                    .batch_get(SimTime::ZERO, "nope", &["k".to_string()])
                    .map(|_| SimTime::ZERO),
                missing,
                "{name}"
            );
            assert_eq!(store.stats(), KvStats::default(), "{name}: all free");
        }
    }

    #[test]
    fn a_missing_table_is_reported_before_the_fault_roll() {
        for (
            Opening {
                name, mut store, ..
            },
            mut fresh,
        ) in openings().into_iter().zip(openings())
        {
            store.set_faults(FaultInjector::new(1.0, 3)); // clamped to 0.95
            for _ in 0..50 {
                assert_eq!(
                    store.batch_put(SimTime::ZERO, "nope", vec![probe()]),
                    Err(KvError::NoSuchTable("nope".into())),
                    "{name}"
                );
            }
            assert_eq!(store.stats(), KvStats::default(), "{name}: bills nothing");
            // The fault stream is where it started: the first request
            // that does reach a table meets the same roll either way.
            fresh.store.set_faults(FaultInjector::new(1.0, 3));
            for _ in 0..20 {
                assert_eq!(
                    store.batch_put(SimTime::ZERO, "t", vec![probe()]),
                    fresh.store.batch_put(SimTime::ZERO, "t", vec![probe()]),
                    "{name}"
                );
            }
        }
    }

    #[test]
    fn a_throttled_request_bills_one_unit_and_touches_nothing() {
        type Request = fn(&mut KvStore, usize) -> Result<SimTime, KvError>;
        let requests: [(&str, &Dir, Request); 4] = [
            ("put", &WRITE, |s, i| {
                s.batch_put(
                    SimTime(55),
                    "t",
                    vec![item("k", &format!("r{i}"), "d", &[""])],
                )
            }),
            ("delete", &WRITE, |s, _| {
                s.batch_delete(SimTime(55), "t", &[key("k", "r")])
            }),
            ("get", &READ, |s, _| {
                s.get(SimTime(55), "t", "k").map(|(_, t)| t)
            }),
            ("batch_get", &READ, |s, _| {
                s.batch_get(SimTime(55), "t", &["k".to_string()])
                    .map(|(_, t)| t)
            }),
        ];
        for (kind, dir, request) in requests {
            for Opening {
                name, mut store, ..
            } in openings()
            {
                put_each(&mut store, vec![probe()]);
                store.set_faults(FaultInjector::new(1.0, 11)); // clamped to 0.95
                assert!(store.faults_active());
                let (mut throttles, mut served) = (0, 0);
                for i in 0..50 {
                    let before = (store.stats(), store.peek_all());
                    let result = request(&mut store, i);
                    let mut st = store.stats();
                    assert_eq!(st.api_requests, before.0.api_requests + 1, "{name} {kind}");
                    match result {
                        Ok(_) => served += 1,
                        Err(KvError::Throttled { available_at }) => {
                            assert!(available_at > SimTime(55), "{name} {kind}");
                            throttles += 1;
                            // One unit, one round trip, and nothing else.
                            assert_eq!(st.throttled, before.0.throttled + 1);
                            st.throttled -= 1;
                            st.api_requests -= 1;
                            *(dir.billed_ops)(&mut st) -= 1;
                            assert_eq!(st, before.0, "{name} {kind}");
                            assert_eq!(store.peek_all(), before.1, "{name} {kind}");
                        }
                        Err(e) => panic!("{name} {kind}: unexpected {e}"),
                    }
                }
                assert!(throttles > 0, "{name} {kind}: 95% throttles within 50");
                assert!(served > 0, "{name} {kind}: seed 11 lets one through");
                assert_eq!(store.stats().throttled, throttles, "{name} {kind}");
                // Only the requests that were served took effect.
                let expected = match kind {
                    "put" => 1 + served,
                    "delete" => 0,
                    _ => 1,
                };
                assert_eq!(store.peek_all().len(), expected, "{name} {kind}");
            }
        }
    }

    #[test]
    fn peek_all_is_sorted_and_free() {
        for Opening {
            name, mut store, ..
        } in openings()
        {
            store.ensure_table("s");
            put_each(
                &mut store,
                vec![
                    item("b", "r", "d", &[""]),
                    item("a", "r2", "d", &[""]),
                    item("a", "r1", "d", &[""]),
                ],
            );
            store
                .batch_put(SimTime::ZERO, "s", vec![item("z", "r", "d", &[""])])
                .unwrap();
            let before = store.stats();
            let all = store.peek_all();
            assert_eq!(store.stats(), before, "{name}: peek_all bills nothing");
            let keys: Vec<(&str, &str, &str)> = all
                .iter()
                .map(|(t, i)| (t.as_str(), &*i.hash_key, i.range_key()))
                .collect();
            assert_eq!(
                keys,
                [
                    ("s", "z", "r"),
                    ("t", "a", "r1"),
                    ("t", "a", "r2"),
                    ("t", "b", "r")
                ],
                "{name}"
            );
        }
    }

    #[test]
    fn stored_bytes_are_the_stored_items() {
        // Property: after any op sequence, on both services under every
        // tuning, `raw_bytes` is the summed size of what `peek_all` shows
        // and `overhead_bytes` is the service's rule over the same items.
        let tunings = [KvTuning::NONE, STRINGS, UNBATCHED];
        for seed in 0..6u64 {
            let backends = [KvBackend::Dynamo, KvBackend::Simple];
            for (backend, tuning) in backends.into_iter().flat_map(|b| tunings.map(|t| (b, t))) {
                let mut store = KvStore::open(backend, tuning);
                let name = store.profile().name;
                let per_value = name == "SimpleDB";
                store.ensure_table("t");
                store.set_faults(FaultInjector::new(0.2, seed));
                let mut rng = StdRng::seed_from_u64(seed);
                for _ in 0..200 {
                    let n = rng.gen_range(1..=store.profile().batch_put_limit.min(4));
                    if rng.gen_bool(0.6) {
                        let items = (0..n)
                            .map(|_| {
                                let values: Vec<String> = (0..rng.gen_range(0..4usize))
                                    .map(|_| "v".repeat(rng.gen_range(0..1500usize)))
                                    .collect();
                                let values: Vec<&str> = values.iter().map(String::as_str).collect();
                                item(
                                    &format!("k{}", rng.gen_range(0..4u32)),
                                    &format!("r{}", rng.gen_range(0..4u32)),
                                    "d",
                                    &values,
                                )
                            })
                            .collect();
                        // Throttled or rejected (a value over a string-only
                        // store's 1 KB): either way nothing is stored.
                        let _ = store.batch_put(SimTime::ZERO, "t", items);
                    } else {
                        let keys: Vec<_> = (0..n)
                            .map(|_| {
                                key(
                                    &format!("k{}", rng.gen_range(0..5u32)),
                                    &format!("r{}", rng.gen_range(0..5u32)),
                                )
                            })
                            .collect();
                        let _ = store.batch_delete(SimTime::ZERO, "t", &keys);
                    }
                    let all = store.peek_all();
                    let raw: usize = all.iter().map(|(_, i)| i.byte_size()).sum();
                    let overhead: u64 = all
                        .iter()
                        .map(|(_, i)| match per_value {
                            true => ATTR_OVERHEAD_BYTES * Footprint::of(i).values as u64,
                            false => ITEM_OVERHEAD_BYTES,
                        })
                        .sum();
                    let st = store.stats();
                    assert_eq!(st.raw_bytes, raw as u64, "{name} {tuning:?} seed {seed}");
                    assert_eq!(st.overhead_bytes, overhead, "{name} {tuning:?} seed {seed}");
                }
                assert!(
                    !store.peek_all().is_empty(),
                    "{name} {tuning:?} seed {seed}"
                );
            }
        }
    }

    #[test]
    #[should_panic(expected = "stored bytes cover every stored item")]
    fn freeing_more_than_is_stored_is_a_bug_not_a_wrap() {
        let mut stats = KvStats::default();
        stats.adjust_stored(10, 100);
        stats.adjust_stored(-11, -100);
    }
}
