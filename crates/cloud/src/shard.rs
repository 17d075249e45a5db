//! Hash-partitioned shard routing for the key-value index store.
//!
//! Real DynamoDB splits a table into partitions, each with its own slice
//! of the provisioned throughput; a hot hash key saturates *its*
//! partition long before the table's aggregate capacity is reached. The
//! [`ShardPlan`] models that: every table is split into N independently
//! provisioned shards, items are routed by hash key, and a *skew-aware*
//! plan (built by `amada-index`) can pin known-hot hash keys (e.g.
//! high-frequency element labels) to dedicated shards while the cold
//! tail is hash-partitioned across the rest.
//!
//! Routing is a pure function of the hash key and the plan — no host
//! state, no randomness — so the same plan gives the same assignment on
//! every run and every thread count. Sharding changes only *where* a
//! request queues (service times, throttle exposure); what is billed is
//! decided per item / per key exactly as in the unsharded store, so a
//! faults-off run bills byte-identical capacity with any plan.

use crate::s3::content_hash;
use std::collections::BTreeMap;

/// How a table's hash-key space is partitioned into provisioned shards.
///
/// Shard ids `0..cold_shards` are the hash-partitioned cold tail; ids
/// `cold_shards..shards()` are dedicated hot-key shards, one per pinned
/// key. The default ([`ShardPlan::single`]) is one shard and no hot keys
/// — the unsharded table.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardPlan {
    cold_shards: usize,
    hot: BTreeMap<String, usize>,
}

impl Default for ShardPlan {
    fn default() -> Self {
        ShardPlan::single()
    }
}

impl ShardPlan {
    /// The unsharded table: one shard, no hot keys.
    pub fn single() -> ShardPlan {
        ShardPlan::hashed(1)
    }

    /// `cold_shards` hash-partitioned shards, no hot keys.
    ///
    /// # Panics
    /// Panics when `cold_shards` is zero.
    pub fn hashed(cold_shards: usize) -> ShardPlan {
        assert!(cold_shards >= 1, "a plan needs at least one shard");
        ShardPlan {
            cold_shards,
            hot: BTreeMap::new(),
        }
    }

    /// `cold_shards` hash-partitioned shards plus one dedicated shard per
    /// hot key, assigned in iteration order (duplicates are ignored).
    pub fn with_hot_keys<I, S>(cold_shards: usize, hot_keys: I) -> ShardPlan
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        let mut plan = ShardPlan::hashed(cold_shards);
        for key in hot_keys {
            let key = key.into();
            let next = plan.cold_shards + plan.hot.len();
            plan.hot.entry(key).or_insert(next);
        }
        plan
    }

    /// Total shard count (cold + dedicated hot shards).
    pub fn shards(&self) -> usize {
        self.cold_shards + self.hot.len()
    }

    /// Cold (hash-partitioned) shard count.
    pub fn cold_shards(&self) -> usize {
        self.cold_shards
    }

    /// The pinned hot keys with their dedicated shard ids, in key order.
    pub fn hot_keys(&self) -> impl Iterator<Item = (&str, usize)> {
        self.hot.iter().map(|(k, &s)| (k.as_str(), s))
    }

    /// True when routing can actually separate traffic (more than one
    /// shard). A single-shard plan is the unsharded store.
    pub fn is_sharded(&self) -> bool {
        self.shards() > 1
    }

    /// The shard serving `hash_key`: its dedicated shard when pinned hot,
    /// otherwise FNV-1a over the cold shards. Pure and deterministic.
    pub fn route(&self, hash_key: &str) -> usize {
        match self.hot.get(hash_key) {
            Some(&shard) => shard,
            None => (content_hash(hash_key.as_bytes()) % self.cold_shards as u64) as usize,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_plan_routes_everything_to_shard_zero() {
        let p = ShardPlan::single();
        assert_eq!(p.shards(), 1);
        assert!(!p.is_sharded());
        for key in ["", "ename", "w‖cloud", "a‖id 42"] {
            assert_eq!(p.route(key), 0);
        }
    }

    #[test]
    fn hot_keys_get_dedicated_shards_after_the_cold_range() {
        let p = ShardPlan::with_hot_keys(2, ["ename", "person"]);
        assert_eq!(p.shards(), 4);
        assert!(p.is_sharded());
        let hot: Vec<usize> = [p.route("ename"), p.route("person")].into();
        assert!(hot.iter().all(|&s| s >= 2), "hot shards sit after cold");
        assert_ne!(hot[0], hot[1], "each hot key owns its shard");
        // Cold keys stay in the cold range.
        for key in ["aid", "w‖auction", "zzz"] {
            assert!(p.route(key) < 2, "{key} must hash into a cold shard");
        }
    }

    #[test]
    fn duplicate_hot_keys_are_ignored() {
        let p = ShardPlan::with_hot_keys(1, ["k", "k", "j"]);
        assert_eq!(p.shards(), 3);
        assert_eq!(p.route("k"), 1);
        assert_eq!(p.route("j"), 2);
    }

    #[test]
    fn routing_is_deterministic_and_total() {
        let p = ShardPlan::with_hot_keys(4, ["hot"]);
        for key in ["a", "b", "c", "hot", "ename", ""] {
            let first = p.route(key);
            assert!(first < p.shards());
            for _ in 0..10 {
                assert_eq!(p.route(key), first);
            }
        }
        // A clone routes identically (the plan is pure data).
        let q = p.clone();
        for key in ["a", "hot", "w‖x"] {
            assert_eq!(p.route(key), q.route(key));
        }
    }

    #[test]
    #[should_panic(expected = "at least one shard")]
    fn zero_shards_is_rejected() {
        ShardPlan::hashed(0);
    }
}
