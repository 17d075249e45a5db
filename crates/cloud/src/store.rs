//! The one key-value index store.
//!
//! DynamoDB and SimpleDB hold the same tables ([`ItemTable`]) behind the
//! same API and take every request through the same steps; what differs
//! is the *service* — its limits, what it bills, how fast it serves —
//! and that is all a backend is here: a [`Service`] description plugged
//! into [`Store`]. Every request, on either backend, runs
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
use crate::fault::FaultInjector;
use crate::kv::{ItemTable, KvError, KvItem, KvProfile, KvStats, KvStore};
use crate::money::Money;
use crate::obs::{Outcome, Recorder, ServiceKind, Span};
use crate::pricing::PriceTable;
use crate::service::ServiceQueue;
use crate::shard::ShardPlan;
use crate::tuning::KvTuning;
use std::collections::{BTreeMap, HashMap};

/// What the services measure an item by: its payload size and how many
/// attribute values it carries. The default is the item that is not
/// there (what a delete of an absent key removes).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Footprint {
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
pub struct Meter {
    /// Units of the lane's rate this occupies the service for. Stays
    /// fractional: service *time* tracks volume (the paper's Figure 10
    /// saturation), whatever the bill rounds to.
    pub service: f64,
    /// Units billed (`IDXput$` / `IDXget$` each).
    pub billed: u64,
}

/// A write queue and a read queue: the service as a whole, or one
/// provisioned shard of one table.
#[derive(Debug, Clone)]
pub struct Lanes {
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
    price: fn(&PriceTable) -> Money,
    billed_ops: fn(&mut KvStats) -> &mut u64,
    count_bytes: fn(&mut KvStats, u64),
    throttled_op: &'static str,
}

const WRITE: Dir = Dir {
    lane: |lanes| &mut lanes.writes,
    price: |p| p.idx_put,
    billed_ops: |stats| &mut stats.put_ops,
    count_bytes: |_, _| {},
    throttled_op: "put",
};

const READ: Dir = Dir {
    lane: |lanes| &mut lanes.reads,
    price: |p| p.idx_get,
    billed_ops: |stats| &mut stats.get_ops,
    count_bytes: |stats, bytes| stats.bytes_read += bytes,
    throttled_op: "get",
};

/// A key-value service, described: everything [`Store`] needs to know to
/// behave as that service. The table in [`crate::kv`] lists both
/// descriptions side by side.
pub trait Service: Send + 'static {
    /// Throughput and latency parameters.
    type Config: Default + Send;
    /// Limits and capabilities, before a [`KvTuning`] narrows them.
    const PROFILE: KvProfile;
    /// Whether `batch_get` is one request over up to
    /// `PROFILE.batch_get_limit` keys; otherwise it is sequential `get`s.
    const BATCH_GET_IS_ONE_REQUEST: bool;
    /// Whether a span's `units` are the billed units; otherwise they are
    /// the service units (capacity consumed).
    const SPANS_REPORT_BILLED_UNITS: bool;
    /// Idle lanes at `config`'s rates.
    fn lanes(config: &Self::Config) -> Lanes;
    /// One item written. A delete is metered as the write of what it
    /// removed.
    fn written(item: Footprint) -> Meter;
    /// One hash key read, `bytes` of items under it.
    fn read(bytes: usize) -> Meter;
    /// Storage overhead billed for one stored item (the paper's
    /// `ovh(D, I)` is the sum over stored items).
    fn overhead(item: Footprint) -> u64;
}

/// One lane's part of a request.
#[derive(Debug, Clone, Copy, Default)]
struct Share {
    service: f64,
    billed: u64,
    bytes: u64,
}

/// What one request asks of the service, by the lane that serves it, plus
/// the change in stored bytes it caused. Metering is per item and per
/// key, so the shares of a sharded request sum to exactly what the
/// unsharded request bills — a shard plan moves queueing, never money.
struct Demand<'p> {
    plan: &'p ShardPlan,
    /// The whole request, while the plan is a single shard.
    whole: Share,
    /// Per shard, while it is not.
    by_shard: BTreeMap<usize, Share>,
    raw_delta: i64,
    overhead_delta: i64,
}

impl Demand<'_> {
    fn add(&mut self, hash_key: &str, meter: Meter, bytes: usize) {
        let share = if self.plan.is_sharded() {
            self.by_shard.entry(self.plan.route(hash_key)).or_default()
        } else {
            &mut self.whole
        };
        share.service += meter.service;
        share.billed += meter.billed;
        share.bytes += bytes as u64;
    }

    /// Counts `item` into (`sign` 1) or out of (`sign` −1) storage.
    fn stock<S: Service>(&mut self, sign: i64, item: Footprint) {
        self.raw_delta += sign * item.bytes as i64;
        self.overhead_delta += sign * S::overhead(item) as i64;
    }
}

struct Table {
    items: ItemTable,
    /// One pair of lanes per shard while the plan is sharded, else none.
    shards: Vec<Lanes>,
}

/// The simulated index store of service `S`.
pub struct Store<S: Service> {
    config: S::Config,
    profile: KvProfile,
    tables: HashMap<String, Table>,
    stats: KvStats,
    faults: FaultInjector,
    obs: Recorder,
    /// The service-wide lanes: they serve every request while the plan is
    /// [`ShardPlan::single`], and none while it is sharded.
    service: Lanes,
    plan: ShardPlan,
}

impl<S: Service> Store<S> {
    /// A store with the service's full profile.
    pub fn new(config: S::Config) -> Store<S> {
        Store::open(config, KvTuning::NONE)
    }

    /// A store whose profile — advertised *and* enforced — is the
    /// service's narrowed by `tuning`.
    pub fn open(config: S::Config, tuning: KvTuning) -> Store<S> {
        Store {
            service: S::lanes(&config),
            config,
            profile: tuning.narrow(S::PROFILE),
            tables: HashMap::new(),
            stats: KvStats::default(),
            faults: FaultInjector::off(),
            obs: Recorder::off(),
            plan: ShardPlan::single(),
        }
    }

    fn shard_lanes(&self) -> Vec<Lanes> {
        let shards = if self.plan.is_sharded() {
            self.plan.shards()
        } else {
            0
        };
        (0..shards).map(|_| S::lanes(&self.config)).collect()
    }

    fn check_batch(got: usize, limit: usize) -> Result<(), KvError> {
        if got > limit {
            return Err(KvError::BatchTooLarge { limit, got });
        }
        Ok(())
    }

    /// The shard to tag a throttle span with: the one shard every key
    /// routes to, `None` when the batch fans out (or the store is
    /// unsharded, or cannot throttle) — so hot shards are visible in the
    /// throttle series.
    fn shard_hint<'k>(&self, mut hash_keys: impl Iterator<Item = &'k str>) -> Option<usize> {
        if !self.plan.is_sharded() || !self.faults.is_active() {
            return None;
        }
        let first = self.plan.route(hash_keys.next()?);
        hash_keys
            .all(|k| self.plan.route(k) == first)
            .then_some(first)
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
        shard_hint: Option<usize>,
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
            self.obs.record(|p, ctx| {
                Span::new(ServiceKind::Kv, dir.throttled_op, now, available_at, ctx)
                    .units(1.0)
                    .billed((dir.price)(p))
                    .outcome(Outcome::Throttled)
                    .shard(shard_hint)
            });
            return Err(KvError::Throttled { available_at });
        }
        let mut demand = Demand {
            plan: &self.plan,
            whole: Share::default(),
            by_shard: BTreeMap::new(),
            raw_delta: 0,
            overhead_delta: 0,
        };
        let out = body(&mut t.items, &mut demand);
        self.stats
            .adjust_stored(demand.raw_delta, demand.overhead_delta);
        self.stats.api_requests += 1;
        // Each touched lane serves its share as one request; the request
        // completes when the slowest lane responds. One span per lane.
        let whole = (!self.plan.is_sharded()).then_some((None, demand.whole));
        let by_shard = demand
            .by_shard
            .into_iter()
            .map(|(s, share)| (Some(s), share));
        let mut ready = now;
        for (shard, share) in whole.into_iter().chain(by_shard) {
            let lane = (dir.lane)(match shard {
                None => &mut self.service,
                Some(s) => &mut t.shards[s],
            });
            let done = lane.serve(now, share.service);
            ready = ready.max(done);
            *(dir.billed_ops)(&mut self.stats) += share.billed;
            (dir.count_bytes)(&mut self.stats, share.bytes);
            self.obs.record(|p, ctx| {
                let units = if S::SPANS_REPORT_BILLED_UNITS {
                    share.billed as f64
                } else {
                    share.service
                };
                Span::new(ServiceKind::Kv, op, now, done, ctx)
                    .bytes(share.bytes)
                    .units(units)
                    .busy(lane.service_time(share.service))
                    .billed((dir.price)(p) * share.billed)
                    .shard(shard)
            });
        }
        Ok((out, ready))
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
        let keys = hash_keys.iter().map(AsRef::as_ref);
        let hint = self.shard_hint(keys.clone());
        self.request(now, table, (op, &READ), hint, |t, demand| {
            let mut items = Vec::new();
            for k in keys {
                let first = items.len();
                items.extend(t.rows(k));
                // Metered per key, so a batch get bills exactly what the
                // same keys fetched one by one would — batching saves API
                // round trips, not capacity.
                let key_bytes: usize = items[first..].iter().map(KvItem::byte_size).sum();
                demand.add(k, S::read(key_bytes), key_bytes);
            }
            if !demand.plan.is_sharded() {
                // The service-wide lane serves the request as its whole
                // volume plus a per-key share — an empty key's worth —
                // for every key after the first. That equals the sum of
                // the per-key units (which is what lets a shard plan
                // split a batch without changing total service demand),
                // but only up to floating-point association, and a lane's
                // clock is built from these bits.
                let per_key = S::read(0).service;
                demand.whole.service = S::read(demand.whole.bytes as usize).service
                    + per_key * hash_keys.len().saturating_sub(1) as f64;
            }
            items
        })
    }
}

impl<S: Service> Default for Store<S> {
    fn default() -> Self {
        Store::new(S::Config::default())
    }
}

impl<S: Service> KvStore for Store<S> {
    fn profile(&self) -> KvProfile {
        self.profile
    }

    fn ensure_table(&mut self, table: &str) {
        if !self.tables.contains_key(table) {
            let t = Table {
                items: ItemTable::default(),
                shards: self.shard_lanes(),
            };
            self.tables.insert(table.to_string(), t);
        }
    }

    fn set_shard_plan(&mut self, plan: ShardPlan) {
        self.plan = plan;
        let lanes = self.shard_lanes();
        for t in self.tables.values_mut() {
            t.shards = lanes.clone();
        }
    }

    fn batch_put(
        &mut self,
        now: SimTime,
        table: &str,
        items: Vec<KvItem>,
    ) -> Result<SimTime, KvError> {
        Self::check_batch(items.len(), self.profile.batch_put_limit)?;
        for item in &items {
            self.profile.check(item)?;
        }
        let hint = self.shard_hint(items.iter().map(|item| &*item.hash_key));
        let ((), ready) = self.request(now, table, ("batch_put", &WRITE), hint, |t, demand| {
            for item in items {
                let new = Footprint::of(&item);
                demand.add(&item.hash_key, S::written(new), new.bytes);
                demand.stock::<S>(1, new);
                // An item with an existing (hash, range) key is replaced
                // wholesale: the old item's bytes are no longer stored.
                if let Some(old) = t.put(item) {
                    demand.stock::<S>(-1, Footprint::of(&old));
                }
            }
        })?;
        Ok(ready)
    }

    fn batch_delete(
        &mut self,
        now: SimTime,
        table: &str,
        keys: &[(String, String)],
    ) -> Result<SimTime, KvError> {
        // Deletes ride the write path: same batch limit, same lane.
        Self::check_batch(keys.len(), self.profile.batch_put_limit)?;
        let hint = self.shard_hint(keys.iter().map(|(hash, _)| hash.as_str()));
        let ((), ready) =
            self.request(now, table, ("batch_delete", &WRITE), hint, |t, demand| {
                for (hash, range) in keys {
                    let removed = t.remove(hash, range).map(|old| Footprint::of(&old));
                    // A delete is billed by what it removed, as the write
                    // of that item was — and a delete of an absent key
                    // still bills one unit, which is what keeps retried
                    // deletes billed (and idempotent) rather than free
                    // no-ops.
                    let mut meter = S::written(removed.unwrap_or_default());
                    meter.billed = meter.billed.max(1);
                    demand.add(hash, meter, 0);
                    if let Some(old) = removed {
                        demand.stock::<S>(-1, old);
                    }
                }
            })?;
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
        if S::BATCH_GET_IS_ONE_REQUEST {
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
        let mut names: Vec<&String> = self.tables.keys().collect();
        names.sort();
        let mut out = Vec::new();
        for name in names {
            out.extend(self.tables[name].items.all().map(|i| (name.clone(), i)));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dynamodb::{DynamoConfig, ITEM_OVERHEAD_BYTES};
    use crate::kv::KvValue;
    use crate::sim::KvBackend;
    use crate::simpledb::{SimpleDbConfig, ATTR_OVERHEAD_BYTES};
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
        store: Box<dyn KvStore>,
        probe_units: u64,
        probe_overhead: u64,
    }

    /// Every opening of `tests/store_golden.rs`, table "t" created.
    fn openings() -> Vec<Opening> {
        let dynamo = || KvBackend::Dynamo(DynamoConfig::default());
        let simple = || KvBackend::Simple(SimpleDbConfig::default());
        let mut sharded = dynamo().open(KvTuning::NONE);
        sharded.set_shard_plan(ShardPlan::with_hot_keys(2, ["k"]));
        // ⌈0.05 + 3.0 KB⌉ capacity units and 100 B for the item, against
        // one operation and 45 B for each of its three values.
        let on_dynamo = (4, ITEM_OVERHEAD_BYTES);
        let on_simple = (3, 3 * ATTR_OVERHEAD_BYTES);
        [
            ("dynamodb", dynamo().open(KvTuning::NONE), on_dynamo),
            ("dynamodb-sharded", sharded, on_dynamo),
            ("simpledb", simple().open(KvTuning::NONE), on_simple),
            ("dynamodb-strings", dynamo().open(STRINGS), on_dynamo),
            ("dynamodb-unbatched", dynamo().open(UNBATCHED), on_dynamo),
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
    fn put_each(store: &mut dyn KvStore, items: Vec<KvItem>) {
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
                store.as_mut(),
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
    fn same_primary_key_replaces_wholesale() {
        for Opening {
            name,
            mut store,
            probe_overhead,
            ..
        } in openings()
        {
            put_each(
                store.as_mut(),
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
            put_each(store.as_mut(), vec![probe()]);
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
            put_each(store.as_mut(), vec![probe()]);
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
        type Request = fn(&mut dyn KvStore, usize) -> Result<SimTime, KvError>;
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
                put_each(store.as_mut(), vec![probe()]);
                store.set_faults(FaultInjector::new(1.0, 11)); // clamped to 0.95
                assert!(store.faults_active());
                let (mut throttles, mut served) = (0, 0);
                for i in 0..50 {
                    let before = (store.stats(), store.peek_all());
                    let result = request(store.as_mut(), i);
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
                store.as_mut(),
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
            let backends = [
                KvBackend::Dynamo(DynamoConfig::default()),
                KvBackend::Simple(SimpleDbConfig::default()),
            ];
            for (backend, tuning) in backends
                .into_iter()
                .flat_map(|b| tunings.map(|t| (b.clone(), t)))
            {
                let mut store = backend.open(tuning);
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
