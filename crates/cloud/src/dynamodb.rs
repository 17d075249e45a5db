//! DynamoDB (paper Section 6), as a [`Service`] description of the one
//! [`Store`]: composite-key items of up to 64 KB whose values may be
//! **binary** (the feature the paper exploits "to store compressed
//! (encoded) sets of IDs in a single DynamoDB value"), batch APIs, and
//! *provisioned throughput* — reads and writes consume capacity units
//! served by a rate-limited queue, the source of the saturation visible
//! in the paper's Figure 10. The numbers are the DynamoDB column of the
//! table in [`crate::kv`].

use crate::clock::SimDuration;
use crate::kv::KvProfile;
use crate::service::ServiceQueue;
use crate::store::{Footprint, Lanes, Meter, Service, Store};

/// Per-item storage overhead billed by DynamoDB.
pub const ITEM_OVERHEAD_BYTES: u64 = 100;

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

/// `units` of capacity, fractional for the lane and rounded up (min 1)
/// for the bill.
fn capacity(units: f64) -> Meter {
    Meter {
        service: units,
        billed: (units.ceil() as u64).max(1),
    }
}

/// The simulated DynamoDB service.
pub type DynamoDb = Store<Dynamo>;

/// DynamoDB, described.
pub struct Dynamo;

impl Service for Dynamo {
    type Config = DynamoConfig;

    const PROFILE: KvProfile = KvProfile {
        name: "DynamoDB",
        supports_binary: true,
        max_value_bytes: 64 * 1024, // bounded by the item cap
        max_item_bytes: 64 * 1024,
        max_attrs_per_item: usize::MAX,
        max_hash_key_bytes: 2048,
        max_range_key_bytes: 1024,
        batch_put_limit: 25,
        batch_get_limit: 100,
    };
    const BATCH_GET_IS_ONE_REQUEST: bool = true;
    const SPANS_REPORT_BILLED_UNITS: bool = false;

    /// Each lane is an independent slice of provisioned throughput at
    /// the configured rates.
    fn lanes(config: &DynamoConfig) -> Lanes {
        let lane = |units_per_sec| {
            ServiceQueue::new(SimDuration::from_micros(300), units_per_sec, config.latency)
        };
        Lanes {
            writes: lane(config.write_units_per_sec),
            reads: lane(config.read_units_per_sec),
        }
    }

    /// Write capacity consumed by one item: a fixed per-item processing
    /// share plus its size in KB. For service *time* the fractional-byte
    /// model matches the paper's observation that DynamoDB throughput
    /// was the indexing bottleneck — upload time tracks index bytes, with
    /// a per-item floor (Figure 10).
    ///
    /// DynamoDB *bills* provisioned write capacity units, which is what
    /// the cost model's `IDXput$ × |op(D, I)|` term multiplies — the
    /// paper's Table 6 / Figure 12 DynamoDB charges track data volume,
    /// not request counts. Billed capacity rounds up *per item* (min 1
    /// unit), as real DynamoDB does: batching packs items into one API
    /// round trip but never changes the provisioned capacity they
    /// consume.
    fn written(item: Footprint) -> Meter {
        capacity(0.05 + item.bytes as f64 / 1024.0)
    }

    /// Read capacity consumed by one key: a per-key share plus size in
    /// 4 KB units, halved for eventually-consistent reads (what index
    /// look-ups use). Billed read capacity rounds up *per key* (min 1
    /// unit).
    fn read(bytes: usize) -> Meter {
        capacity(0.25 + bytes as f64 / 4096.0 / 2.0)
    }

    /// A fixed 100 bytes of index overhead per item — the paper's
    /// `ovh(D, I)`, "noticeable, especially if keywords are not
    /// indexed", because small items pay it relatively more.
    fn overhead(_item: Footprint) -> u64 {
        ITEM_OVERHEAD_BYTES
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clock::SimTime;
    use crate::fault::FaultInjector;
    use crate::kv::{KvError, KvItem, KvStore, KvValue};
    use crate::obs::Recorder;
    use crate::shard::ShardPlan;

    fn item(hash: &str, range: &str, uri: &str, val: KvValue) -> KvItem {
        KvItem::new(hash.into(), range, uri.into(), [val].into_iter())
    }

    #[test]
    fn binary_values_are_supported() {
        let mut db = DynamoDb::default();
        db.ensure_table("t");
        db.batch_put(
            SimTime::ZERO,
            "t",
            vec![item("k", "r", "doc", KvValue::B(&[1, 2, 3]))],
        )
        .unwrap();
        let (items, _) = db.get(SimTime::ZERO, "t", "k").unwrap();
        assert!(items[0].values().all(|v| v.is_binary()));
    }

    #[test]
    fn limits_are_enforced() {
        let mut db = DynamoDb::default();
        db.ensure_table("t");
        // Oversized item.
        let big = item(
            "k",
            "r",
            "doc",
            KvValue::B(&vec![0; Dynamo::PROFILE.max_item_bytes + 1]),
        );
        assert!(matches!(
            db.batch_put(SimTime::ZERO, "t", vec![big]),
            Err(KvError::ItemTooLarge { .. })
        ));
        // Oversized hash key.
        let long_key = item(&"k".repeat(3000), "r", "doc", KvValue::S(""));
        assert!(matches!(
            db.batch_put(SimTime::ZERO, "t", vec![long_key]),
            Err(KvError::KeyTooLarge { .. })
        ));
        // Oversized batch.
        let many = (0..26)
            .map(|i| item("k", &format!("r{i}"), "doc", KvValue::S("")))
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
            .map(|i| item("k", &format!("r{i}"), "doc", KvValue::S("")))
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
            vec![item("k", "r", "doc", KvValue::B(&vec![0; 8192]))],
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
                    KvValue::B(&vec![0; (i * 700) % 9000]),
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
                    KvValue::B(&vec![0; (i * 1500) % 12_000]),
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
                    vec![item("k", &format!("r{i}"), "d", KvValue::S(""))],
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
                    vec![item("k", &format!("r{i}"), "d", KvValue::B(&vec![0; 2048]))],
                )
                .unwrap();
        }
        assert!(last2.micros() > 5 * last.micros());
    }

    #[test]
    fn batch_get_covers_many_keys_in_one_request() {
        let mut db = DynamoDb::default();
        db.ensure_table("t");
        for i in 0..5 {
            db.batch_put(
                SimTime::ZERO,
                "t",
                vec![item(&format!("k{i}"), "r", "d", KvValue::S(""))],
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
                            KvValue::B(&vec![0; mix(seed, i)]),
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
            let aggregate = Dynamo::read(total_bytes).service + 0.25 * (k.saturating_sub(1)) as f64;
            let per_key: f64 = (0..k).map(|i| Dynamo::read(mix(7, i as u64)).service).sum();
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
                    KvValue::B(&vec![0; mix(3, i)]),
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
                item("hot", "r1", "d", KvValue::S("")),
                item("cold-a", "r2", "d", KvValue::S("")),
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
            vec![item("k", "r", "d", KvValue::S(""))],
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
                        KvValue::B(&vec![0; 2048]),
                    )],
                )
                .unwrap();
        }
        let cold_done = db
            .batch_put(
                SimTime::ZERO,
                "t",
                vec![item("cold", "r", "d", KvValue::B(&vec![0; 2048]))],
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
