//! Ablation adapters for the key-value store.
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
//! These adapters switch either choice off *without* changing the store
//! itself, by narrowing the advertised [`KvProfile`]; the index layer
//! encodes against the profile, so entries transparently fall back to
//! base64-chunked strings / single-item writes. The ablation experiment
//! measures what each choice is worth.

use crate::clock::SimTime;
use crate::kv::{KvError, KvItem, KvProfile, KvStats, KvStore};

/// Which capabilities to withhold from the wrapped store.
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

    /// True when any capability is withheld.
    pub fn is_active(&self) -> bool {
        self.force_string_values || self.disable_batching
    }
}

/// A [`KvStore`] wrapper that narrows the advertised profile per a
/// [`KvTuning`].
pub struct TunedKvStore {
    inner: Box<dyn KvStore>,
    tuning: KvTuning,
}

impl TunedKvStore {
    /// Wraps `inner`; a no-op tuning is allowed (and free).
    pub fn new(inner: Box<dyn KvStore>, tuning: KvTuning) -> TunedKvStore {
        TunedKvStore { inner, tuning }
    }
}

impl KvStore for TunedKvStore {
    fn profile(&self) -> KvProfile {
        let mut p = self.inner.profile();
        if self.tuning.force_string_values {
            p.supports_binary = false;
            // String payloads must respect a per-value cap for chunking;
            // reuse the SimpleDB-era 1 KB granularity.
            p.max_value_bytes = p.max_value_bytes.min(1024);
        }
        if self.tuning.disable_batching {
            p.batch_put_limit = 1;
        }
        p
    }

    fn ensure_table(&mut self, table: &str) {
        self.inner.ensure_table(table);
    }

    fn batch_put(
        &mut self,
        now: SimTime,
        table: &str,
        items: Vec<KvItem>,
    ) -> Result<SimTime, KvError> {
        if self.tuning.disable_batching && items.len() > 1 {
            return Err(KvError::BatchTooLarge {
                limit: 1,
                got: items.len(),
            });
        }
        if self.tuning.force_string_values {
            let profile = self.profile();
            for item in &items {
                for (_, vs) in item.attrs.iter() {
                    for v in vs {
                        if v.is_binary() {
                            return Err(KvError::BinaryNotSupported);
                        }
                        if v.len() > profile.max_value_bytes {
                            return Err(KvError::ValueTooLarge {
                                limit: profile.max_value_bytes,
                                got: v.len(),
                            });
                        }
                    }
                }
            }
        }
        self.inner.batch_put(now, table, items)
    }

    fn batch_delete(
        &mut self,
        now: SimTime,
        table: &str,
        keys: &[(String, String)],
    ) -> Result<SimTime, KvError> {
        if self.tuning.disable_batching && keys.len() > 1 {
            return Err(KvError::BatchTooLarge {
                limit: 1,
                got: keys.len(),
            });
        }
        self.inner.batch_delete(now, table, keys)
    }

    fn get(
        &mut self,
        now: SimTime,
        table: &str,
        hash_key: &str,
    ) -> Result<(Vec<KvItem>, SimTime), KvError> {
        self.inner.get(now, table, hash_key)
    }

    fn batch_get(
        &mut self,
        now: SimTime,
        table: &str,
        hash_keys: &[String],
    ) -> Result<(Vec<KvItem>, SimTime), KvError> {
        self.inner.batch_get(now, table, hash_keys)
    }

    fn stats(&self) -> KvStats {
        self.inner.stats()
    }

    fn set_faults(&mut self, faults: crate::fault::FaultInjector) {
        self.inner.set_faults(faults);
    }

    fn set_recorder(&mut self, recorder: crate::obs::Recorder) {
        self.inner.set_recorder(recorder);
    }

    fn faults_active(&self) -> bool {
        self.inner.faults_active()
    }

    fn set_shard_plan(&mut self, plan: crate::shard::ShardPlan) {
        self.inner.set_shard_plan(plan);
    }

    fn peek_all(&self) -> Vec<(String, KvItem)> {
        self.inner.peek_all()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dynamodb::DynamoDb;
    use crate::kv::KvValue;

    fn item(i: usize) -> KvItem {
        KvItem {
            hash_key: "k".into(),
            range_key: format!("r{i}").into(),
            attrs: [("d".into(), vec![KvValue::S(String::new())])].into(),
        }
    }

    #[test]
    fn string_tuning_narrows_profile_only() {
        let t = TunedKvStore::new(
            Box::new(DynamoDb::default()),
            KvTuning {
                force_string_values: true,
                disable_batching: false,
            },
        );
        let p = t.profile();
        assert!(!p.supports_binary);
        assert_eq!(p.max_value_bytes, 1024);
        assert_eq!(p.batch_put_limit, 25);
    }

    #[test]
    fn unbatched_tuning_enforces_single_item_puts() {
        let mut t = TunedKvStore::new(
            Box::new(DynamoDb::default()),
            KvTuning {
                force_string_values: false,
                disable_batching: true,
            },
        );
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
        let mut t = TunedKvStore::new(
            Box::new(DynamoDb::default()),
            KvTuning {
                force_string_values: true,
                disable_batching: false,
            },
        );
        t.ensure_table("t");
        let bin = KvItem {
            hash_key: "k".into(),
            range_key: "r".into(),
            attrs: [("d".into(), vec![KvValue::B(vec![1])])].into(),
        };
        assert!(matches!(
            t.batch_put(SimTime::ZERO, "t", vec![bin]),
            Err(KvError::BinaryNotSupported)
        ));
        let long = KvItem {
            hash_key: "k".into(),
            range_key: "r".into(),
            attrs: [("d".into(), vec![KvValue::S("x".repeat(2000))])].into(),
        };
        assert!(matches!(
            t.batch_put(SimTime::ZERO, "t", vec![long]),
            Err(KvError::ValueTooLarge { .. })
        ));
    }

    #[test]
    fn unbatched_tuning_limits_deletes_too() {
        let mut t = TunedKvStore::new(
            Box::new(DynamoDb::default()),
            KvTuning {
                force_string_values: false,
                disable_batching: true,
            },
        );
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
        let mut t = TunedKvStore::new(Box::new(DynamoDb::default()), KvTuning::NONE);
        t.ensure_table("t");
        t.batch_put(SimTime::ZERO, "t", vec![item(0), item(1)])
            .unwrap();
        assert_eq!(t.stats().api_requests, 1);
        assert!(t.profile().supports_binary);
    }
}
