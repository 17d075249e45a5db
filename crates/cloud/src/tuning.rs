//! Ablation tunings for the key-value store.
//!
//! The paper attributes much of its improvement over \[8\] to two concrete
//! engineering choices (Sections 8.1 / 8.4):
//!
//! * storing ID sets as **binary** values ("DynamoDB allows storing
//!   arbitrary binary objects as values, a feature we exploited in order
//!   to efficiently encode our index data");
//! * **batching** writes ("we batched the documents in order to minimize
//!   the number of calls needed to load the index into DynamoDB").
//!
//! A [`KvTuning`] switches either choice off *without* changing the
//! service, by narrowing the [`KvProfile`] a store is opened with; the
//! store enforces the narrowed profile and the index layer encodes
//! against it, so entries transparently fall back to base64-chunked
//! strings / single-item writes. The ablation experiment measures what
//! each choice is worth.

use crate::kv::KvProfile;

/// Which capabilities to withhold from a store when it is opened.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct KvTuning {
    /// Pretend binary values are unsupported (forces the base64 string
    /// encoding of ID lists even on DynamoDB).
    pub force_string_values: bool,
    /// Advertise a batch size of 1 (every item becomes its own API call).
    pub disable_batching: bool,
}

impl KvTuning {
    /// No capability withheld.
    pub const NONE: KvTuning = KvTuning {
        force_string_values: false,
        disable_batching: false,
    };

    /// `profile` with the withheld capabilities taken out.
    pub fn narrow(&self, mut profile: KvProfile) -> KvProfile {
        if self.force_string_values {
            profile.supports_binary = false;
            // String payloads must respect a per-value cap for chunking;
            // reuse the SimpleDB-era 1 KB granularity.
            profile.max_value_bytes = profile.max_value_bytes.min(1024);
        }
        if self.disable_batching {
            profile.batch_put_limit = 1;
        }
        profile
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clock::SimTime;
    use crate::kv::{KvError, KvItem, KvValue};
    use crate::store::{KvBackend, KvStore};

    fn tuned(tuning: KvTuning) -> KvStore {
        KvStore::open(KvBackend::default(), tuning)
    }

    fn one(hash: &str, range: &str, value: KvValue) -> KvItem {
        KvItem::new(hash.into(), range, "d".into(), [value].into_iter())
    }

    fn item(i: usize) -> KvItem {
        one("k", &format!("r{i}"), KvValue::S(""))
    }

    #[test]
    fn string_tuning_narrows_profile_only() {
        let t = tuned(KvTuning {
            force_string_values: true,
            disable_batching: false,
        });
        let p = t.profile();
        assert!(!p.supports_binary);
        assert_eq!(p.max_value_bytes, 1024);
        assert_eq!(p.batch_put_limit, 25);
    }

    #[test]
    fn unbatched_tuning_enforces_single_item_puts() {
        let mut t = tuned(KvTuning {
            force_string_values: false,
            disable_batching: true,
        });
        t.ensure_table("t");
        assert_eq!(t.profile().batch_put_limit, 1);
        assert!(matches!(
            t.batch_put(SimTime::ZERO, "t", vec![item(0), item(1)]),
            Err(KvError::BatchTooLarge { limit: 1, .. })
        ));
        t.batch_put(SimTime::ZERO, "t", vec![item(0)]).unwrap();
        let (items, _) = t.get(SimTime::ZERO, "t", "k").unwrap();
        assert_eq!(items.len(), 1);
    }

    #[test]
    fn string_tuning_enforces_the_narrowed_profile() {
        let mut t = tuned(KvTuning {
            force_string_values: true,
            disable_batching: false,
        });
        t.ensure_table("t");
        let bin = one("k", "r", KvValue::B(&[1]));
        assert!(matches!(
            t.batch_put(SimTime::ZERO, "t", vec![bin]),
            Err(KvError::BinaryNotSupported)
        ));
        let long = one("k", "r", KvValue::S(&"x".repeat(2000)));
        assert!(matches!(
            t.batch_put(SimTime::ZERO, "t", vec![long]),
            Err(KvError::ValueTooLarge { .. })
        ));
    }

    #[test]
    fn unbatched_tuning_limits_deletes_too() {
        let mut t = tuned(KvTuning {
            force_string_values: false,
            disable_batching: true,
        });
        t.ensure_table("t");
        t.batch_put(SimTime::ZERO, "t", vec![item(0)]).unwrap();
        t.batch_put(SimTime::ZERO, "t", vec![item(1)]).unwrap();
        assert!(matches!(
            t.batch_delete(
                SimTime::ZERO,
                "t",
                &[("k".into(), "r0".into()), ("k".into(), "r1".into())]
            ),
            Err(KvError::BatchTooLarge { limit: 1, .. })
        ));
        t.batch_delete(SimTime::ZERO, "t", &[("k".into(), "r0".into())])
            .unwrap();
        let (items, _) = t.get(SimTime::ZERO, "t", "k").unwrap();
        assert_eq!(items.len(), 1);
    }

    #[test]
    fn noop_tuning_is_transparent() {
        let mut t = tuned(KvTuning::NONE);
        t.ensure_table("t");
        t.batch_put(SimTime::ZERO, "t", vec![item(0), item(1)])
            .unwrap();
        assert_eq!(t.stats().api_requests, 1);
        assert!(t.profile().supports_binary);
    }
}
