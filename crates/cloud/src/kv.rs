//! The key-value store abstraction behind the index store.
//!
//! The paper's index runs on Amazon DynamoDB (current work) or Amazon
//! SimpleDB (the \[8\] baseline it compares against in Tables 7–8). Both
//! expose the same *shape* of API — tables of items addressed by a
//! composite hash + range key, carrying named multi-valued attributes,
//! with `get`/`put`/`batchGet`/`batchPut` operations (paper Section 6,
//! Figure 6) — but differ in limits that matter a great deal to the index
//! encodings:
//!
//! | | DynamoDB | SimpleDB |
//! |---|---|---|
//! | value type | string **or binary** | string only |
//! | max value  | 64 KB (the item cap)  | 1 KB |
//! | max item   | 64 KB                 | 256 attribute-values of 1 KB |
//! | max key    | hash 2 KB, range 1 KB | hash 1 KB |
//! | batch put / delete | 25 items      | 25 items |
//! | batch get  | 100 keys, one request | one key per request: sequential `get`s |
//! | write bills | capacity units: ⌈0.05 + KB⌉ per item, min 1 | one per attribute-value written |
//! | delete bills | as the write of the removed item, min 1 — also for an absent key | the same |
//! | read bills | capacity units: ⌈0.25 + KB/8⌉ per hash key, min 1 | one per hash key |
//! | a throttled request bills | 1 | 1 |
//! | storage overhead | 100 B per item   | 45 B per attribute-value |
//! | service unit | capacity unit, fractional (0.05 + KB written, 0.25 + KB/8 read) | byte |
//! | span `units` | service units         | billed units |
//! | lane rate (default) | 10 000 write / 20 000 read units/s | 384 KB/s write, 1 536 KB/s read |
//! | lane overhead per request | 300 µs    | 4 ms |
//! | latency (default) | 8 ms             | 60 ms |
//!
//! The binary-value capability is what lets the DynamoDB backend store the
//! compressed structural-ID lists that make LUI/2LUPI competitive
//! (Section 8.4 credits exactly this for the 1–2 order-of-magnitude
//! speedup over \[8\]). Each column is one [`crate::store::Service`]
//! description ([`crate::dynamodb::Dynamo`], [`crate::simpledb::Simple`]);
//! the store they describe is written once, in [`crate::store`].

use crate::clock::SimTime;
use crate::fault::FaultInjector;
use crate::obs::Recorder;
use crate::shard::ShardPlan;
use std::borrow::Borrow;
use std::collections::btree_map::Entry;
use std::collections::{BTreeMap, HashMap};
use std::fmt;
use std::sync::Arc;

/// A value stored under an attribute name.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum KvValue {
    /// A UTF-8 string value.
    S(String),
    /// A binary value (DynamoDB only).
    B(Vec<u8>),
}

impl KvValue {
    /// Payload size in bytes.
    pub fn len(&self) -> usize {
        match self {
            KvValue::S(s) => s.len(),
            KvValue::B(b) => b.len(),
        }
    }

    /// True when the payload is empty (the paper's ε value).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// True for binary values.
    pub fn is_binary(&self) -> bool {
        matches!(self, KvValue::B(_))
    }
}

/// One item: a composite primary key plus named multi-valued attributes
/// (paper Figure 6). Immutable and shared: the keys, the attribute names
/// and the attribute list are reference-counted, so the store, every
/// `get` result and the extraction that produced the hash key all hold
/// the same bytes, and a clone is three counter bumps.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct KvItem {
    /// Hash key (the index entry key, e.g. `ename`).
    pub hash_key: Arc<str>,
    /// Range key (a UUID at indexing time, so concurrent writers never
    /// overwrite each other — Section 6).
    pub range_key: Arc<str>,
    /// `(attribute name, values)` pairs; for index entries the attribute
    /// name is a document URI.
    pub attrs: KvAttrs,
}

/// An item's shared `(attribute name, values)` list.
pub type KvAttrs = Arc<[(Arc<str>, Vec<KvValue>)]>;

impl KvItem {
    /// Total payload size: keys + attribute names + attribute values.
    pub fn byte_size(&self) -> usize {
        self.hash_key.len()
            + self.range_key.len()
            + self
                .attrs
                .iter()
                .map(|(n, vs)| n.len() + vs.iter().map(KvValue::len).sum::<usize>())
                .sum::<usize>()
    }
}

/// A range key as the item table orders it: the key's first bytes sit
/// inline, so the comparisons of an insert read the tree's own nodes
/// instead of chasing every row's key pointer. Zero-padded prefix order,
/// ties broken by the whole key (the derived order), *is* the key's byte
/// order — which is what lets a row be found by `&str`.
#[derive(PartialEq, Eq, PartialOrd, Ord)]
struct RangeKey {
    prefix: [u8; 16],
    key: Arc<str>,
}

impl RangeKey {
    fn new(key: Arc<str>) -> RangeKey {
        let mut prefix = [0; 16];
        let head = &key.as_bytes()[..key.len().min(16)];
        prefix[..head.len()].copy_from_slice(head);
        RangeKey { prefix, key }
    }
}

impl Borrow<str> for RangeKey {
    fn borrow(&self) -> &str {
        &self.key
    }
}

/// The items of one table — hash key → range key → attributes, rows in
/// range-key order. Both services keep their tables in this; they differ
/// in limits, billing and service times, not in what a table is. A row
/// keeps only what is its own (range key, attributes): every row of a
/// hash key shares the table's one copy of that key, and storing an item
/// allocates nothing.
#[derive(Default)]
pub struct ItemTable {
    rows: HashMap<Arc<str>, BTreeMap<RangeKey, KvAttrs>>,
}

impl ItemTable {
    /// Stores `item`; returns the item with the same `(hash, range)` key
    /// it replaced.
    pub fn put(&mut self, item: KvItem) -> Option<KvItem> {
        let KvItem {
            hash_key,
            range_key,
            attrs,
        } = item;
        let Some(rows) = self.rows.get_mut(&*hash_key) else {
            let row = (RangeKey::new(range_key), attrs);
            self.rows.insert(hash_key, BTreeMap::from([row]));
            return None;
        };
        match rows.entry(RangeKey::new(range_key)) {
            Entry::Vacant(slot) => {
                slot.insert(attrs);
                None
            }
            Entry::Occupied(mut slot) => Some(KvItem {
                hash_key,
                range_key: slot.key().key.clone(),
                attrs: slot.insert(attrs),
            }),
        }
    }

    /// Removes and returns the item under `(hash, range)`.
    pub fn remove(&mut self, hash: &str, range: &str) -> Option<KvItem> {
        let rows = self.rows.get_mut(hash)?;
        let (range_key, attrs) = rows.remove_entry(range)?;
        let hash_key = if rows.is_empty() {
            self.rows.remove_entry(hash)?.0
        } else {
            self.rows.get_key_value(hash)?.0.clone()
        };
        Some(KvItem {
            hash_key,
            range_key: range_key.key,
            attrs,
        })
    }

    /// The items under `hash`, in range-key order.
    pub fn rows(&self, hash: &str) -> impl Iterator<Item = KvItem> + '_ {
        self.rows
            .get_key_value(hash)
            .into_iter()
            .flat_map(|(hash_key, rows)| {
                rows.iter().map(move |(range_key, attrs)| KvItem {
                    hash_key: hash_key.clone(),
                    range_key: range_key.key.clone(),
                    attrs: attrs.clone(),
                })
            })
    }

    /// Every item, sorted by `(hash_key, range_key)`.
    pub fn all(&self) -> impl Iterator<Item = KvItem> + '_ {
        let mut hashes: Vec<&Arc<str>> = self.rows.keys().collect();
        hashes.sort();
        hashes.into_iter().flat_map(|hash| self.rows(hash))
    }
}

/// Static capabilities and limits of a key-value backend.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct KvProfile {
    /// Service name for reports.
    pub name: &'static str,
    /// Whether binary attribute values are supported.
    pub supports_binary: bool,
    /// Maximum size of one attribute value.
    pub max_value_bytes: usize,
    /// Maximum size of one item.
    pub max_item_bytes: usize,
    /// Maximum attribute-value pairs per item.
    pub max_attrs_per_item: usize,
    /// Maximum size of a hash key.
    pub max_hash_key_bytes: usize,
    /// Maximum size of a range key.
    pub max_range_key_bytes: usize,
    /// Items per `batch_put` call, and keys per `batch_delete` call.
    pub batch_put_limit: usize,
    /// Keys per `batch_get` call.
    pub batch_get_limit: usize,
}

/// Usage counters read by the cost model. `put_ops` / `get_ops` follow the
/// paper's metrics `|op(D, I)|` and `|op(q, D, I)|`: item-granularity puts
/// and key-granularity gets (batching reduces *time*, not billed
/// operations).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct KvStats {
    /// Billed write operations (`IDXput$` each): write *capacity units*
    /// for DynamoDB (its billing is volume-based — which is what makes the
    /// paper's Table 6 DynamoDB charges track index size), attribute-value
    /// pairs for SimpleDB (box usage scales with attribute count).
    pub put_ops: u64,
    /// Billed read operations (`IDXget$` each): read capacity units for
    /// DynamoDB (the paper's Figure 12 DynamoDB charges "reflect the
    /// amount of data extracted for each strategy from the index"),
    /// key look-ups for SimpleDB.
    pub get_ops: u64,
    /// API round trips (informational; batching shrinks this).
    pub api_requests: u64,
    /// Bytes of user data currently stored (the paper's `sr(D, I)`).
    pub raw_bytes: u64,
    /// Store-internal overhead bytes (the paper's `ovh(D, I)`).
    pub overhead_bytes: u64,
    /// Bytes returned by gets.
    pub bytes_read: u64,
    /// Requests rejected by the fault injector
    /// (ProvisionedThroughputExceeded); each one bills a capacity unit
    /// and an API request but moves no data.
    pub throttled: u64,
}

impl KvStats {
    /// Total stored size `s(D, I) = sr + ovh` (paper Section 7.1).
    pub fn stored_bytes(&self) -> u64 {
        self.raw_bytes + self.overhead_bytes
    }

    /// Applies one request's change in stored bytes. `raw_bytes` is the
    /// summed size of the items in the store and `overhead_bytes` the
    /// service's overhead rule over the same items, so a request can take
    /// away at most what is there.
    ///
    /// # Panics
    /// Panics if a counter would go below zero: the store freed bytes it
    /// never counted, and carrying on would bill ~2⁶⁴ bytes of storage.
    pub fn adjust_stored(&mut self, raw_delta: i64, overhead_delta: i64) {
        let apply = |bytes: u64, delta: i64| {
            bytes
                .checked_add_signed(delta)
                .expect("stored bytes cover every stored item")
        };
        self.raw_bytes = apply(self.raw_bytes, raw_delta);
        self.overhead_bytes = apply(self.overhead_bytes, overhead_delta);
    }
}

/// Errors surfaced by the key-value backends.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum KvError {
    /// A value exceeds the backend's per-value limit.
    ValueTooLarge { limit: usize, got: usize },
    /// An item exceeds the backend's per-item limit.
    ItemTooLarge { limit: usize, got: usize },
    /// Too many attribute-value pairs on one item.
    TooManyAttributes { limit: usize, got: usize },
    /// Binary value sent to a string-only backend.
    BinaryNotSupported,
    /// Batch size exceeds the API limit.
    BatchTooLarge { limit: usize, got: usize },
    /// Hash or range key exceeds its limit.
    KeyTooLarge { limit: usize, got: usize },
    /// Operation against a table that was never created.
    NoSuchTable(String),
    /// Provisioned throughput exceeded — the request was throttled
    /// (retryable); the failure response arrives at `available_at`. The
    /// request was still billed.
    Throttled {
        /// When the caller learns about the failure.
        available_at: SimTime,
    },
}

impl fmt::Display for KvError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            KvError::ValueTooLarge { limit, got } => {
                write!(f, "value of {got} bytes exceeds the {limit}-byte limit")
            }
            KvError::ItemTooLarge { limit, got } => {
                write!(f, "item of {got} bytes exceeds the {limit}-byte limit")
            }
            KvError::TooManyAttributes { limit, got } => {
                write!(f, "{got} attribute-values exceed the limit of {limit}")
            }
            KvError::BinaryNotSupported => {
                write!(f, "this store does not support binary values")
            }
            KvError::BatchTooLarge { limit, got } => {
                write!(f, "batch of {got} exceeds the limit of {limit}")
            }
            KvError::KeyTooLarge { limit, got } => {
                write!(f, "key of {got} bytes exceeds the {limit}-byte limit")
            }
            KvError::NoSuchTable(t) => write!(f, "no such table: {t}"),
            KvError::Throttled { available_at } => {
                write!(
                    f,
                    "provisioned throughput exceeded (response at {:?})",
                    available_at
                )
            }
        }
    }
}

impl std::error::Error for KvError {}

impl crate::fault::RetryAfter for KvError {
    fn retry_after(&self) -> Option<SimTime> {
        match self {
            KvError::Throttled { available_at } => Some(*available_at),
            _ => None,
        }
    }
}

/// The index-store interface the warehouse codes against; implemented by
/// [`crate::store::Store`], for every service.
pub trait KvStore: Send {
    /// Limits and capabilities, as narrowed by the tuning the store was
    /// opened with — what the store advertises is what it enforces.
    fn profile(&self) -> KvProfile;

    /// Creates a table if it does not exist.
    fn ensure_table(&mut self, table: &str);

    /// Writes up to `batch_put_limit` items in one API call; an item with
    /// an existing (hash, range) key is replaced wholesale (paper
    /// Section 6). Returns the virtual completion time.
    fn batch_put(
        &mut self,
        now: SimTime,
        table: &str,
        items: Vec<KvItem>,
    ) -> Result<SimTime, KvError>;

    /// Deletes items by full `(hash, range)` primary key, up to
    /// `batch_put_limit` keys per API call (deletes ride the write path
    /// and consume write capacity, exactly like real DynamoDB's
    /// `DeleteItem`). A delete bills as the write of the item it removed
    /// did, and at least one unit — also when the key does not exist.
    /// Deleting an absent key is an idempotent success — the property
    /// that makes retraction retries and queue redeliveries safe without
    /// tombstones. Returns the virtual completion time.
    fn batch_delete(
        &mut self,
        now: SimTime,
        table: &str,
        keys: &[(String, String)],
    ) -> Result<SimTime, KvError>;

    /// Retrieves all items with the given hash key.
    fn get(
        &mut self,
        now: SimTime,
        table: &str,
        hash_key: &str,
    ) -> Result<(Vec<KvItem>, SimTime), KvError>;

    /// Retrieves all items for up to `batch_get_limit` hash keys in one
    /// API call. Results are concatenated in key order.
    fn batch_get(
        &mut self,
        now: SimTime,
        table: &str,
        hash_keys: &[String],
    ) -> Result<(Vec<KvItem>, SimTime), KvError>;

    /// Usage counters.
    fn stats(&self) -> KvStats;

    /// Installs a fault injector: subsequent operations may fail with
    /// [`KvError::Throttled`].
    fn set_faults(&mut self, faults: FaultInjector);

    /// Installs a span recorder: subsequent operations are recorded as
    /// [`crate::obs::Span`]s.
    fn set_recorder(&mut self, recorder: Recorder);

    /// True when a fault injector is installed and active — callers that
    /// must hand over owned data (e.g. `batch_put` payloads) use this to
    /// decide whether to keep a retry copy.
    fn faults_active(&self) -> bool;

    /// Installs a shard plan: subsequent operations queue on per-shard
    /// lanes, `plan.shards()` per table, routed by hash key
    /// ([`ShardPlan::single`] restores the one service-wide pair).
    /// Billing is identical either way, only service times differ.
    fn set_shard_plan(&mut self, plan: ShardPlan);

    /// Host-side snapshot of every item in every table, sorted by
    /// `(table, hash_key, range_key)`. No request is billed and no
    /// virtual time passes — this exists for tests that compare whole
    /// index contents byte-for-byte.
    fn peek_all(&self) -> Vec<(String, KvItem)>;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn item_byte_size_counts_everything() {
        let item = KvItem {
            hash_key: "ename".into(), // 5
            range_key: "u1".into(),   // 2
            attrs: [(
                "doc.xml".into(),                                        // 7
                vec![KvValue::S("x".into()), KvValue::B(vec![1, 2, 3])], // 1 + 3
            )]
            .into(),
        };
        assert_eq!(item.byte_size(), 5 + 2 + 7 + 1 + 3);
    }

    fn row(hash: &str, range: &str, value: &str) -> KvItem {
        KvItem {
            hash_key: hash.into(),
            range_key: range.into(),
            attrs: [("d".into(), vec![KvValue::S(value.into())])].into(),
        }
    }

    #[test]
    fn item_table_orders_rows_by_whole_range_key() {
        // Keys shorter than the inline prefix, keys that tie on it, and
        // embedded NULs: rows come back in plain byte order.
        let mut keys = vec![
            "r10",
            "r1",
            "r2",
            "r",
            "r\0",
            "0123456789abcdef",
            "0123456789abcdef-b",
            "0123456789abcdef-a",
            "0123456789abcde",
            "",
        ];
        let mut table = ItemTable::default();
        for k in &keys {
            assert!(table.put(row("h", k, "v")).is_none());
        }
        keys.sort_unstable();
        let stored: Vec<KvItem> = table.rows("h").collect();
        let ranges: Vec<&str> = stored.iter().map(|i| &*i.range_key).collect();
        assert_eq!(ranges, keys);
        assert!(table.rows("other").next().is_none());
    }

    #[test]
    fn item_table_replaces_and_removes_by_full_key() {
        let mut table = ItemTable::default();
        table.put(row("h", "0123456789abcdef-a", "1"));
        table.put(row("h", "0123456789abcdef-b", "2"));
        let old = table.put(row("h", "0123456789abcdef-a", "3")).unwrap();
        assert_eq!(old, row("h", "0123456789abcdef-a", "1"));
        assert_eq!(table.rows("h").count(), 2);
        assert!(table.remove("h", "0123456789abcdef").is_none());
        assert!(table.remove("x", "0123456789abcdef-a").is_none());
        let gone = table.remove("h", "0123456789abcdef-a").unwrap();
        assert_eq!(gone, row("h", "0123456789abcdef-a", "3"));
        assert_eq!(
            table.remove("h", "0123456789abcdef-b"),
            Some(row("h", "0123456789abcdef-b", "2"))
        );
        // The last row takes the hash key with it.
        assert!(table.rows.is_empty());
    }

    #[test]
    fn value_helpers() {
        assert!(KvValue::B(vec![]).is_empty());
        assert!(KvValue::B(vec![0]).is_binary());
        assert!(!KvValue::S("x".into()).is_binary());
        assert_eq!(KvValue::S("abc".into()).len(), 3);
    }

    #[test]
    fn errors_display() {
        let e = KvError::ValueTooLarge {
            limit: 1024,
            got: 2048,
        };
        assert!(e.to_string().contains("1024"));
    }
}
