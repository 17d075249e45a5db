//! Skew-aware shard planning for the key-value index store.
//!
//! Index hash keys are wildly skewed: a handful of element labels
//! (`e‖item`, `e‖name`, …) account for most postings and therefore most
//! read/write capacity, while the long tail of attribute-value and word
//! keys is individually cold. Hash partitioning alone lands every
//! high-frequency label on *some* shard and saturates it — the classic
//! hot-partition problem of real DynamoDB tables.
//!
//! This module turns observed key frequencies (counted from extracted
//! [`IndexEntry`]s, or from any recorded access log) into a
//! [`ShardPlan`]: the hottest keys are pinned to dedicated shards, the
//! cold tail is FNV-hashed across the rest. Planning is pure data →
//! data — same corpus and shard counts give the same plan on every run
//! and every thread count, which is what the determinism tests pin.

use crate::strategy::IndexEntry;
use amada_cloud::ShardPlan;
use std::collections::BTreeMap;

/// Hash-key frequency census over a set of extracted index entries.
///
/// `BTreeMap` so iteration (and therefore planning) is key-ordered and
/// deterministic regardless of extraction order.
pub fn key_frequencies(entries: &[IndexEntry]) -> BTreeMap<String, u64> {
    let mut freqs: BTreeMap<String, u64> = BTreeMap::new();
    for e in entries {
        *freqs.entry(e.key.to_string()).or_default() += 1;
    }
    freqs
}

/// The `hot_shards` hottest hash keys, by descending frequency with key
/// order breaking ties — the pinning order of [`skew_aware_plan`].
pub fn hottest_keys(freqs: &BTreeMap<String, u64>, hot_shards: usize) -> Vec<String> {
    let mut ranked: Vec<(&String, u64)> = freqs.iter().map(|(k, &n)| (k, n)).collect();
    ranked.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(b.0)));
    ranked
        .into_iter()
        .take(hot_shards)
        .map(|(k, _)| k.clone())
        .collect()
}

/// Builds a skew-aware [`ShardPlan`]: `total_shards` shards, of which up
/// to `hot_shards` are dedicated to the highest-frequency hash keys and
/// the remainder hash-partition the cold tail.
///
/// When there are fewer distinct keys than requested hot shards the
/// spare shards fold back into the cold range, so the plan always has
/// exactly `total_shards` shards.
///
/// # Panics
/// Panics when `hot_shards >= total_shards` (at least one cold shard
/// must remain to receive the tail) or `total_shards` is zero.
pub fn skew_aware_plan(
    freqs: &BTreeMap<String, u64>,
    total_shards: usize,
    hot_shards: usize,
) -> ShardPlan {
    assert!(total_shards >= 1, "a plan needs at least one shard");
    assert!(
        hot_shards < total_shards,
        "the cold tail needs at least one shard"
    );
    let hot = hottest_keys(freqs, hot_shards);
    ShardPlan::with_hot_keys(total_shards - hot.len(), hot)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::strategy::{extract, ExtractOptions, Strategy};
    use amada_xml::Document;

    fn corpus_entries() -> Vec<IndexEntry> {
        let doc = Document::parse_str(
            "site.xml",
            "<site><people><person id=\"p0\"><name>Ada</name></person>\
             <person id=\"p1\"><name>Bob</name></person></people></site>",
        )
        .expect("corpus parses");
        extract(&doc, Strategy::Lu, ExtractOptions { index_words: false })
    }

    #[test]
    fn frequencies_count_every_entry_keyed() {
        let entries = corpus_entries();
        let freqs = key_frequencies(&entries);
        let total: u64 = freqs.values().sum();
        assert_eq!(total, entries.len() as u64);
        // LU emits one entry per (key, document): both `person` elements
        // collapse into one `eperson` posting for this single document,
        // while the two distinct attribute-value keys stay separate.
        assert_eq!(freqs.get("eperson"), Some(&1));
        assert_eq!(freqs.get("aid p0"), Some(&1));
        assert_eq!(freqs.get("aid p1"), Some(&1));
    }

    #[test]
    fn hottest_keys_rank_by_count_then_key() {
        let mut freqs = BTreeMap::new();
        freqs.insert("b".to_string(), 5u64);
        freqs.insert("a".to_string(), 5);
        freqs.insert("z".to_string(), 9);
        freqs.insert("cold".to_string(), 1);
        assert_eq!(hottest_keys(&freqs, 3), vec!["z", "a", "b"]);
    }

    #[test]
    fn plan_pins_hot_keys_and_keeps_total_shard_count() {
        let entries = corpus_entries();
        let freqs = key_frequencies(&entries);
        let plan = skew_aware_plan(&freqs, 4, 2);
        assert_eq!(plan.shards(), 4);
        assert_eq!(plan.cold_shards(), 2);
        let pinned: Vec<&str> = plan.hot_keys().map(|(k, _)| k).collect();
        assert_eq!(pinned.len(), 2);
        for k in &pinned {
            assert!(freqs.contains_key(*k), "{k} must come from the corpus");
            assert!(plan.route(k) >= 2, "hot keys route past the cold range");
        }
    }

    #[test]
    fn fewer_keys_than_hot_shards_folds_back_to_cold() {
        let mut freqs = BTreeMap::new();
        freqs.insert("only".to_string(), 3u64);
        let plan = skew_aware_plan(&freqs, 5, 3);
        assert_eq!(plan.shards(), 5);
        assert_eq!(plan.cold_shards(), 4);
    }

    #[test]
    fn planning_is_deterministic() {
        let entries = corpus_entries();
        let freqs = key_frequencies(&entries);
        let a = skew_aware_plan(&freqs, 6, 3);
        for _ in 0..5 {
            let again = key_frequencies(&corpus_entries());
            assert_eq!(skew_aware_plan(&again, 6, 3), a);
        }
    }

    #[test]
    #[should_panic(expected = "cold tail")]
    fn all_hot_is_rejected() {
        skew_aware_plan(&BTreeMap::new(), 2, 2);
    }
}
