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
use std::cmp::Ordering;
use std::collections::{BTreeSet, HashMap};
use std::fmt;
use std::sync::Arc;

/// A value stored under an attribute name, borrowed from the item that
/// holds it or from what an item is being built from.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum KvValue<'a> {
    /// A UTF-8 string value.
    S(&'a str),
    /// A binary value (DynamoDB only).
    B(&'a [u8]),
}

impl KvValue<'_> {
    /// The payload's bytes.
    pub fn as_bytes(&self) -> &[u8] {
        match self {
            KvValue::S(s) => s.as_bytes(),
            KvValue::B(b) => b,
        }
    }

    /// Payload size in bytes.
    pub fn len(&self) -> usize {
        self.as_bytes().len()
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

/// One field of an item's block, in stored order: a value of the current
/// attribute, or the name that starts a further one. An index item has one
/// attribute — [`KvItem::uri`] names it — and so only values.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KvField<'a> {
    /// The name of a further attribute; the values after it are its own.
    Attr(&'a str),
    /// A value of the attribute named last.
    Value(KvValue<'a>),
}

impl<'a> KvField<'a> {
    fn tagged(&self) -> (u8, &'a [u8]) {
        match self {
            KvField::Value(KvValue::S(s)) => (TAG_S, s.as_bytes()),
            KvField::Value(KvValue::B(b)) => (TAG_B, b),
            KvField::Attr(name) => (TAG_ATTR, name.as_bytes()),
        }
    }
}

/// Bytes of a block's header: range-key length, value count and payload
/// size (values and further attribute names), a little-endian `u32` each.
const HEADER: usize = 12;
/// Bytes in front of a field's own: its tag, then its length as a
/// little-endian `u32`.
const FIELD: usize = 5;
const TAG_S: u8 = 0;
const TAG_B: u8 = 1;
const TAG_ATTR: u8 = 2;

fn len32(len: usize) -> [u8; 4] {
    u32::try_from(len)
        .expect("an item field is shorter than 4 GB")
        .to_le_bytes()
}

/// The `word`-th `u32` of a block's header.
fn header(block: &[u8], word: usize) -> usize {
    let bytes = block[4 * word..][..4].try_into().expect("four bytes");
    u32::from_le_bytes(bytes) as usize
}

/// The range key a block starts with, after its header.
fn range_of(block: &[u8]) -> &[u8] {
    &block[HEADER..HEADER + header(block, 0)]
}

/// One item: a composite primary key plus named multi-valued attributes
/// (paper Figure 6). Immutable and shared: beside the hash key and the
/// name of its first attribute — the document URI, for an index item —
/// which it shares with the extraction that produced them, an item is
/// *one* reference-counted block: a header (range-key length, value
/// count, payload size), the range key, then every value as tag, length,
/// bytes. The store, every `get` result and a retry copy hold the same
/// block, a clone is three counter bumps, and the sizes the services bill
/// by are read off the header.
#[derive(Clone, PartialEq, Eq)]
pub struct KvItem {
    /// Hash key (the index entry key, e.g. `ename`).
    pub hash_key: Arc<str>,
    /// Name of the item's first attribute; for index entries, the
    /// document URI.
    pub uri: Arc<str>,
    block: Arc<[u8]>,
}

impl KvItem {
    /// The item `(hash_key, range_key)` whose one attribute, `uri`, holds
    /// `values`. The range key is a UUID at indexing time, so concurrent
    /// writers never overwrite each other (Section 6).
    pub fn new<'v>(
        hash_key: Arc<str>,
        range_key: &str,
        uri: Arc<str>,
        values: impl Iterator<Item = KvValue<'v>> + Clone,
    ) -> KvItem {
        KvItem::from_fields(hash_key, range_key, uri, values.map(KvField::Value))
    }

    /// [`KvItem::new`] for an item that may carry further attributes. The
    /// block is sized from a first pass over `fields` and written by a
    /// second: one allocation, and both passes must yield the same.
    pub fn from_fields<'v>(
        hash_key: Arc<str>,
        range_key: &str,
        uri: Arc<str>,
        fields: impl Iterator<Item = KvField<'v>> + Clone,
    ) -> KvItem {
        let (mut count, mut values, mut payload) = (0, 0, 0);
        for field in fields.clone() {
            count += 1;
            values += usize::from(matches!(field, KvField::Value(_)));
            payload += field.tagged().1.len();
        }
        let size = HEADER + range_key.len() + FIELD * count + payload;
        let mut block: Arc<[u8]> = std::iter::repeat_n(0, size).collect();
        let mut rest = Arc::get_mut(&mut block).expect("a new block is not shared");
        let mut write = |bytes: &[u8]| {
            let (head, tail) = std::mem::take(&mut rest).split_at_mut(bytes.len());
            head.copy_from_slice(bytes);
            rest = tail;
        };
        for len in [range_key.len(), values, payload] {
            write(&len32(len));
        }
        write(range_key.as_bytes());
        for field in fields {
            let (tag, bytes) = field.tagged();
            write(&[tag]);
            write(&len32(bytes.len()));
            write(bytes);
        }
        KvItem {
            hash_key,
            uri,
            block,
        }
    }

    /// Range key.
    pub fn range_key(&self) -> &str {
        std::str::from_utf8(range_of(&self.block)).expect("written from a str")
    }

    /// Attribute values over all attribute names.
    pub fn value_count(&self) -> usize {
        header(&self.block, 1)
    }

    /// Total payload size: keys + attribute names + attribute values.
    pub fn byte_size(&self) -> usize {
        self.hash_key.len() + self.uri.len() + header(&self.block, 0) + header(&self.block, 2)
    }

    /// The one borrowing iterator over the block: its fields, in stored
    /// order.
    pub fn fields(&self) -> impl Iterator<Item = KvField<'_>> {
        let mut rest = &self.block[HEADER + header(&self.block, 0)..];
        std::iter::from_fn(move || {
            let ([tag, len @ ..], tail) = rest.split_first_chunk::<FIELD>()?;
            let (bytes, tail) = tail.split_at(u32::from_le_bytes(*len) as usize);
            rest = tail;
            let text = || std::str::from_utf8(bytes).expect("written from a str");
            Some(match *tag {
                TAG_B => KvField::Value(KvValue::B(bytes)),
                TAG_S => KvField::Value(KvValue::S(text())),
                _ => KvField::Attr(text()),
            })
        })
    }

    /// Every value, in stored order (of an index item: the URI's values).
    pub fn values(&self) -> impl Iterator<Item = KvValue<'_>> {
        self.fields().filter_map(|field| match field {
            KvField::Value(value) => Some(value),
            KvField::Attr(_) => None,
        })
    }
}

impl fmt::Debug for KvItem {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("KvItem")
            .field("hash_key", &self.hash_key)
            .field("range_key", &self.range_key())
            .field("uri", &self.uri)
            .field("fields", &self.fields().collect::<Vec<_>>())
            .finish()
    }
}

/// A stored item as the item table orders it: by range key. The key's
/// first bytes sit inline, so the comparisons of an insert read the
/// tree's own nodes instead of chasing every row's block pointer.
/// Zero-padded prefix order, ties broken by the whole key, *is* the key's
/// byte order — which is what lets a row be found by the key's bytes.
struct Row {
    prefix: [u8; 16],
    block: Arc<[u8]>,
    uri: Arc<str>,
}

impl Row {
    fn new(block: Arc<[u8]>, uri: Arc<str>) -> Row {
        let mut prefix = [0; 16];
        let range = range_of(&block);
        let head = &range[..range.len().min(16)];
        prefix[..head.len()].copy_from_slice(head);
        Row { prefix, block, uri }
    }

    fn item(&self, hash_key: &Arc<str>) -> KvItem {
        KvItem {
            hash_key: hash_key.clone(),
            uri: self.uri.clone(),
            block: self.block.clone(),
        }
    }
}

impl Ord for Row {
    fn cmp(&self, other: &Row) -> Ordering {
        let by_prefix = self.prefix.cmp(&other.prefix);
        by_prefix.then_with(|| range_of(&self.block).cmp(range_of(&other.block)))
    }
}

impl PartialOrd for Row {
    fn partial_cmp(&self, other: &Row) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl PartialEq for Row {
    fn eq(&self, other: &Row) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}

impl Eq for Row {}

impl Borrow<[u8]> for Row {
    fn borrow(&self) -> &[u8] {
        range_of(&self.block)
    }
}

/// The items of one table — hash key → rows in range-key order. Both
/// services keep their tables in this; they differ in limits, billing and
/// service times, not in what a table is. A row keeps only what is its
/// own (its block) and the URI it shares: every row of a hash key shares
/// the table's one copy of that key, and storing an item allocates
/// nothing.
#[derive(Default)]
pub struct ItemTable {
    rows: HashMap<Arc<str>, BTreeSet<Row>>,
}

impl ItemTable {
    /// Stores `item`; returns the item with the same `(hash, range)` key
    /// it replaced.
    pub fn put(&mut self, item: KvItem) -> Option<KvItem> {
        let row = Row::new(item.block, item.uri);
        let Some(rows) = self.rows.get_mut(&*item.hash_key) else {
            self.rows.insert(item.hash_key, BTreeSet::from([row]));
            return None;
        };
        rows.replace(row).map(|old| old.item(&item.hash_key))
    }

    /// Removes and returns the item under `(hash, range)`.
    pub fn remove(&mut self, hash: &str, range: &str) -> Option<KvItem> {
        let rows = self.rows.get_mut(hash)?;
        let row = rows.take(range.as_bytes())?;
        let hash_key = if rows.is_empty() {
            self.rows.remove_entry(hash)?.0
        } else {
            self.rows.get_key_value(hash)?.0.clone()
        };
        Some(row.item(&hash_key))
    }

    /// The items under `hash`, in range-key order.
    pub fn rows(&self, hash: &str) -> impl Iterator<Item = KvItem> + '_ {
        self.rows
            .get_key_value(hash)
            .into_iter()
            .flat_map(|(hash_key, rows)| rows.iter().map(move |row| row.item(hash_key)))
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

impl KvProfile {
    /// Checks `item` against these limits — what a store opened with them
    /// enforces on every put, and what a write plan checks before it
    /// promises one. The sizes are the block header's; the values are
    /// walked only where a single one could still break a limit.
    pub fn check(&self, item: &KvItem) -> Result<(), KvError> {
        let range = header(&item.block, 0);
        for (got, limit) in [
            (item.hash_key.len(), self.max_hash_key_bytes),
            (range, self.max_range_key_bytes),
        ] {
            if got > limit {
                return Err(KvError::KeyTooLarge { limit, got });
            }
        }
        let (bytes, values) = (item.byte_size(), item.value_count());
        if bytes > self.max_item_bytes {
            return Err(KvError::ItemTooLarge {
                limit: self.max_item_bytes,
                got: bytes,
            });
        }
        if values > self.max_attrs_per_item {
            return Err(KvError::TooManyAttributes {
                limit: self.max_attrs_per_item,
                got: values,
            });
        }
        if self.supports_binary && bytes <= self.max_value_bytes {
            return Ok(());
        }
        for value in item.values() {
            if value.is_binary() && !self.supports_binary {
                return Err(KvError::BinaryNotSupported);
            }
            if value.len() > self.max_value_bytes {
                return Err(KvError::ValueTooLarge {
                    limit: self.max_value_bytes,
                    got: value.len(),
                });
            }
        }
        Ok(())
    }
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
        // Keys of 5 and 2 bytes, a 7-byte name, values of 1 and 3 bytes.
        let values = [KvValue::S("x"), KvValue::B(&[1, 2, 3])];
        let item = KvItem::new("ename".into(), "u1", "doc.xml".into(), values.into_iter());
        assert_eq!(item.byte_size(), 5 + 2 + 7 + 1 + 3);
        assert_eq!(item.value_count(), 2);
        assert_eq!(item.values().collect::<Vec<_>>(), values);
    }

    fn row(hash: &str, range: &str, value: &str) -> KvItem {
        KvItem::new(
            hash.into(),
            range,
            "d".into(),
            [KvValue::S(value)].into_iter(),
        )
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
        let ranges: Vec<&str> = stored.iter().map(|i| i.range_key()).collect();
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
        assert!(KvValue::B(&[]).is_empty());
        assert!(KvValue::B(&[0]).is_binary());
        assert!(!KvValue::S("x").is_binary());
        assert_eq!(KvValue::S("abc").len(), 3);
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
