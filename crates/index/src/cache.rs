//! Thread-safe host-side cache of parsed documents, extraction results,
//! twig evaluations and index look-ups.
//!
//! The discrete-event simulation charges *virtual* time for every parse,
//! extraction and evaluation a cloud instance performs — instances are
//! stateless across tasks, exactly as in the paper. The *host* running the
//! simulation, however, sees the same document parsed, extracted and
//! evaluated once per strategy, query, experiment and repetition; this cache
//! spares that redundant wall-clock work without touching a single
//! virtual-time charge.
//!
//! Design:
//!
//! * **Sharded.** `SHARDS` independent `Mutex<HashMap>` shards keyed by a
//!   hash of the URI, so the parallel prewarm stage
//!   ([`crate::parallel::prewarm`]) and any future concurrent consumers
//!   do not serialize on one lock.
//! * **Three memos per document.** Each document entry holds the parse
//!   (the [`Document`], or the [`XmlError`]: a bad version is parsed once
//!   too), the [`WriteSet`] per `(Strategy, ExtractOptions, KvProfile)` and
//!   the twig evaluation per tree pattern ([`PatternProbe`]) — a loader
//!   core's CPU-heavy step becomes two map probes, a query core's one.
//! * **Shared with the store.** A write set is encoded right after
//!   extraction, whose entries are then dropped; the loader puts clones of
//!   its items, so the store and the cache share each item's block, and
//!   every distinct entry key is one `Arc<str>` across documents.
//! * **Content-addressed.** An entry is identified by *(URI, content
//!   hash)*, never by URI alone: every probe names the hash of the bytes
//!   in hand and a cached parse or extraction of other bytes is a miss.
//!   Two live warehouses holding different documents under one URI
//!   therefore never see each other's parses. Stored objects keep their
//!   hash ([`amada_cloud::Blob::etag`], computed at the first probe), so a
//!   later probe from inside the warehouse touches no bytes; loose bytes are
//!   hashed on the spot ([`Content`]). One version per URI is resident:
//!   a probe for other bytes replaces it, memos and all. A [`PatternProbe`]
//!   adopts the memo's `Arc` of its pattern and then matches by pointer.
//! * **A fourth memo, of look-ups.** Beside the documents, one entry per
//!   look-up key — (table, look-up step LU / LUP / LUI, options, store
//!   profile, pattern) — holds the outcome of the last look-up under that
//!   key and clones of the items it was computed from (for 2LUPI's ID
//!   phase, also the `R₁` it was reduced to). A look-up still fetches, and
//!   is billed for, every item; a hit needs the same items in the same
//!   order, block for block ([`KvItem::same_block`]). A write that changes
//!   an item replaces its block and a delete removes it, so any change to
//!   what a look-up reads is a miss; the held clones keep a block from
//!   being freed and its address reused. A miss replaces the key's entry;
//!   `clear()` empties the memo.

use crate::loadutil::WriteSet;
use crate::strategy::{extract, ExtractOptions, IndexEntry, Strategy};
use amada_cloud::{dynamodb, Blob, KvItem, KvProfile};
use amada_pattern::{EvalStats, TreePattern, Tuple, TwigEvaluator};
use amada_xml::{Document, Fnv, XmlError};
use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasher, BuildHasherDefault, DefaultHasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Shard count. A small power of two: the prewarm stage runs one task per
/// document across `num_cpus` threads, so a few dozen shards keep
/// contention negligible.
const SHARDS: usize = 32;

pub use amada_cloud::content_hash;

/// The profile the default-profile forms ([`ExtractCache::extracted`],
/// [`crate::prewarm`]) encode for: DynamoDB's, the paper's backend.
pub(crate) const DYNAMODB: &KvProfile = &dynamodb::PROFILE;

/// Document bytes that know their content hash.
pub trait Content {
    /// The document bytes.
    fn bytes(&self) -> &[u8];

    /// Their [`content_hash`]; computed here unless the value carries it.
    fn hash(&self) -> u64 {
        content_hash(self.bytes())
    }
}

impl Content for [u8] {
    fn bytes(&self) -> &[u8] {
        self
    }
}

impl Content for Vec<u8> {
    fn bytes(&self) -> &[u8] {
        self
    }
}

impl Content for Blob {
    fn bytes(&self) -> &[u8] {
        self
    }

    fn hash(&self) -> u64 {
        self.etag()
    }
}

impl<T: Content + ?Sized> Content for Arc<T> {
    fn bytes(&self) -> &[u8] {
        (**self).bytes()
    }

    fn hash(&self) -> u64 {
        (**self).hash()
    }
}

/// FNV-1a over the URI, used only to pick a shard.
fn shard_of(uri: &str) -> usize {
    (content_hash(uri.as_bytes()) as usize) % SHARDS
}

/// A pattern's tuples on one document version and the work it took.
pub type Evaluation = (Vec<Tuple>, EvalStats);

/// A memoized evaluation: the pattern's hash, the pattern, its evaluation.
type MemoEntry = (u64, Arc<TreePattern>, Arc<Evaluation>);

/// What a write set was encoded from and for.
type SetKey = (Strategy, ExtractOptions, KvProfile);

/// One cached document: its content hash, its parse (or why it has none),
/// and its memoized write set per [`SetKey`] and evaluation per (pattern
/// hash, pattern).
struct DocEntry {
    hash: u64,
    doc: Result<Arc<Document>, XmlError>,
    sets: Vec<(SetKey, Arc<WriteSet>)>,
    evals: Vec<MemoEntry>,
}

/// URI → the resident version's parse, write sets and evaluations.
type Shard = HashMap<String, DocEntry>;

/// A query pattern hashed once for the evaluation memo; a miss makes its evaluator once.
pub struct PatternProbe<'p> {
    pattern: &'p TreePattern,
    hash: u64,
    /// The memo's `Arc` of the pattern: adopted from the first entry that
    /// matches structurally, or made by the first miss before one did.
    shared: Option<Arc<TreePattern>>,
    evaluator: Option<TwigEvaluator<'p>>,
}

impl<'p> PatternProbe<'p> {
    /// Prepares `pattern` for probing.
    pub fn new(pattern: &'p TreePattern) -> PatternProbe<'p> {
        PatternProbe {
            hash: BuildHasherDefault::<DefaultHasher>::default().hash_one(pattern),
            pattern,
            shared: None,
            evaluator: None,
        }
    }
}

/// `probe`'s evaluation in `evals`: the entry holding the `Arc` the probe
/// adopted, else one whose pattern equals the probe's, whose `Arc` the
/// probe then adopts if it holds none yet.
fn memo_of<'e>(evals: &'e [MemoEntry], probe: &mut PatternProbe) -> Option<&'e Arc<Evaluation>> {
    let adopted = |p: &Arc<TreePattern>| probe.shared.as_ref().is_some_and(|s| Arc::ptr_eq(s, p));
    let (_, pattern, ev) = (evals.iter())
        .find(|(h, p, _)| adopted(p) || (*h == probe.hash && **p == *probe.pattern))?;
    probe.shared.get_or_insert_with(|| pattern.clone());
    Some(ev)
}

/// Which look-up an outcome is of: LU's, LUP's (2LUPI's path phase too)
/// or LUI's (2LUPI's ID phase too).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub(crate) enum LookupStep {
    Lu,
    Lup,
    Lui,
}

/// What a look-up's outcome is a function of, beside the items it read:
/// the table, the step, the options and profile its keys and lists are
/// read under, and the pattern.
pub(crate) struct LookupKey<'p> {
    pub table: &'static str,
    pub step: LookupStep,
    pub opts: ExtractOptions,
    pub profile: KvProfile,
    pub pattern: &'p TreePattern,
}

impl LookupKey<'_> {
    fn hash(&self) -> u64 {
        let key = (
            self.table,
            self.step,
            self.opts,
            self.profile.name,
            self.pattern,
        );
        BuildHasherDefault::<DefaultHasher>::default().hash_one(key)
    }

    fn is_of(&self, e: &LookupEntry) -> bool {
        (self.table, self.step, self.opts, self.profile) == (e.table, e.step, e.opts, e.profile)
            && *self.pattern == e.pattern
    }
}

/// A memoized look-up: its key, the items it read in the order fetched,
/// the `R₁` it was reduced to (2LUPI's ID phase), and what it found.
struct LookupEntry {
    table: &'static str,
    step: LookupStep,
    opts: ExtractOptions,
    profile: KvProfile,
    pattern: TreePattern,
    items: Vec<KvItem>,
    reduced_to: Option<Box<[Arc<str>]>>,
    uris: Vec<Arc<str>>,
    entries_processed: u64,
}

/// Look-up key hash → the entries under it, one per key.
type LookupMemo = HashMap<u64, Vec<Arc<LookupEntry>>>;

/// Cumulative cache statistics (monotonic counters).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Probes answered from the cache without parsing (evaluation probes too).
    pub parse_hits: u64,
    /// Probes that had to parse.
    pub parse_misses: u64,
    /// Extraction (write-set) probes answered from the memo.
    pub extract_hits: u64,
    /// Extraction probes that had to run the extractor and the encoder.
    pub extract_misses: u64,
}

impl CacheStats {
    /// Hit fraction over all probes, `None` before the first probe.
    pub fn hit_rate(&self) -> Option<f64> {
        let hits = self.parse_hits + self.extract_hits;
        let total = hits + self.parse_misses + self.extract_misses;
        (total > 0).then(|| hits as f64 / total as f64)
    }
}

/// A sharded, `Send + Sync` cache of parsed documents, write sets and
/// evaluations. Cheap to clone the handle via [`Arc`].
pub struct ExtractCache {
    shards: Box<[Mutex<Shard>; SHARDS]>,
    /// Every entry key a cached write set's items name, once.
    keys: Mutex<HashSet<Arc<str>, BuildHasherDefault<Fnv>>>,
    lookups: Mutex<LookupMemo>,
    stats: [AtomicU64; 6],
    lookup_stats: [AtomicU64; 2],
}

impl Default for ExtractCache {
    fn default() -> Self {
        ExtractCache {
            shards: Box::new(std::array::from_fn(|_| Mutex::new(Shard::default()))),
            keys: Mutex::default(),
            lookups: Mutex::default(),
            stats: std::array::from_fn(|_| AtomicU64::new(0)),
            lookup_stats: std::array::from_fn(|_| AtomicU64::new(0)),
        }
    }
}

impl std::fmt::Debug for ExtractCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ExtractCache")
            .field("stats", &self.stats())
            .finish()
    }
}

impl ExtractCache {
    /// The **process-wide** cache: every warehouse, look-up and advisor
    /// in the process uses it, so a harness that builds many warehouses
    /// over the same corpus (e.g. `repro table4`, one warehouse per
    /// strategy) parses each document once and extracts once per
    /// `(strategy, opts)` — not once per warehouse. Safe because entries
    /// are validated by content hash on every probe: a URI re-uploaded
    /// with different bytes simply misses and replaces the stale entry.
    /// Tests that need isolated statistics use [`ExtractCache::default`]
    /// directly.
    pub fn shared() -> &'static ExtractCache {
        static PROCESS: std::sync::OnceLock<ExtractCache> = std::sync::OnceLock::new();
        PROCESS.get_or_init(ExtractCache::default)
    }

    fn bump(&self, i: usize) {
        self.stats[i].fetch_add(1, Ordering::Relaxed);
    }

    /// This cache's statistics.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            parse_hits: self.stats[0].load(Ordering::Relaxed),
            parse_misses: self.stats[1].load(Ordering::Relaxed),
            extract_hits: self.stats[2].load(Ordering::Relaxed),
            extract_misses: self.stats[3].load(Ordering::Relaxed),
        }
    }

    /// The evaluation memo's `[hits, misses]` ([`CacheStats`] is built by name).
    pub fn eval_stats(&self) -> [u64; 2] {
        [4, 5].map(|i| self.stats[i].load(Ordering::Relaxed))
    }

    /// The look-up memo's `[hits, misses]`.
    pub fn lookup_stats(&self) -> [u64; 2] {
        self.lookup_stats
            .each_ref()
            .map(|n| n.load(Ordering::Relaxed))
    }

    /// Notes that `bytes` are now the content of `uri`: a cached parse of
    /// other bytes is dropped here rather than lingering until the next
    /// probe. Returns the content hash.
    pub fn note_upload<C: Content + ?Sized>(&self, uri: &str, bytes: &C) -> u64 {
        let hash = bytes.hash();
        let mut shard = self.shards[shard_of(uri)].lock().unwrap();
        if shard.get(uri).is_some_and(|e| e.hash != hash) {
            shard.remove(uri);
        }
        hash
    }

    /// The parsed form of `uri`/`bytes`, from cache when the resident
    /// version has the same content; `None` when they are not XML.
    pub fn parsed<C: Content + ?Sized>(&self, uri: &str, bytes: &C) -> Option<Arc<Document>> {
        self.try_parsed_at(uri, bytes.bytes(), bytes.hash()).ok()
    }

    /// [`Self::parsed`], with the parse error of bytes that are not XML (a
    /// failed parse is memoized like a success).
    pub fn try_parsed(&self, uri: &str, bytes: &[u8]) -> Result<Arc<Document>, XmlError> {
        self.try_parsed_at(uri, bytes, content_hash(bytes))
    }

    fn resident<T>(&self, uri: &str, hash: u64, f: impl FnOnce(&mut DocEntry) -> T) -> Option<T> {
        let mut shard = self.shards[shard_of(uri)].lock().unwrap();
        shard.get_mut(uri).filter(|e| e.hash == hash).map(f)
    }

    fn try_parsed_at(&self, uri: &str, bytes: &[u8], hash: u64) -> Result<Arc<Document>, XmlError> {
        if let Some(doc) = self.resident(uri, hash, |e| e.doc.clone()) {
            self.bump(0);
            return doc;
        }
        self.bump(1);
        // Parse outside the lock: this is the expensive part, and the
        // prewarm stage runs it concurrently across shard-colliding URIs.
        let doc = Document::parse(uri, bytes).map(Arc::new);
        self.shards[shard_of(uri)].lock().unwrap().insert(
            uri.to_string(),
            DocEntry {
                hash,
                doc: doc.clone(),
                sets: Vec::new(),
                evals: Vec::new(),
            },
        );
        doc
    }

    /// The write set of `uri`/`bytes` under `(strategy, opts)` for a store
    /// of `profile`, memoized with its parse: a miss extracts, encodes and
    /// drops the entries; the parse error of bytes that are not XML.
    pub fn write_set<C: Content + ?Sized>(
        &self,
        uri: &str,
        bytes: &C,
        strategy: Strategy,
        opts: ExtractOptions,
        profile: &KvProfile,
    ) -> Result<Arc<WriteSet>, XmlError> {
        let hash = bytes.hash();
        let doc = self.try_parsed_at(uri, bytes.bytes(), hash)?;
        let key = (strategy, opts, *profile);
        let set_of = |e: &DocEntry| Some(e.sets.iter().find(|(k, _)| *k == key)?.1.clone());
        if let Some(Some(set)) = self.resident(uri, hash, |e| set_of(e)) {
            self.bump(2);
            return Ok(set);
        }
        self.bump(3);
        // Extract and encode outside the lock, then publish. Two threads
        // may race on one key; both make identical items (encoding is
        // deterministic), and the first published is the one kept.
        let mut entries = extract(&doc, strategy, opts);
        self.share_keys(&mut entries);
        let set = Arc::new(WriteSet::encode(&entries, profile, uri));
        let publish = |e: &mut DocEntry| match set_of(e) {
            Some(first) => first,
            None => {
                e.sets.push((key, set.clone()));
                set.clone()
            }
        };
        Ok(self.resident(uri, hash, publish).unwrap_or(set))
    }

    /// [`Self::write_set`] for DynamoDB, `None` for bytes that are not XML.
    pub fn extracted<C: Content + ?Sized>(
        &self,
        uri: &str,
        bytes: &C,
        strategy: Strategy,
        opts: ExtractOptions,
    ) -> Option<Arc<WriteSet>> {
        self.write_set(uri, bytes, strategy, opts, DYNAMODB).ok()
    }

    /// Points every entry's key at the cache's one `Arc<str>` of it.
    fn share_keys(&self, entries: &mut [IndexEntry]) {
        let mut keys = self.keys.lock().unwrap();
        for e in entries {
            match keys.get(&*e.key) {
                Some(key) => e.key = key.clone(),
                None => _ = keys.insert(e.key.clone()),
            }
        }
    }

    /// `probe`'s pattern on `uri`'s `blob`, memoized with that version; a parse
    /// probe too. A miss evaluates outside the lock, as `write_set` extracts;
    /// bytes that are not XML hold no tuples.
    pub fn evaluated(&self, uri: &str, blob: &Blob, probe: &mut PatternProbe) -> Arc<Evaluation> {
        let hash = blob.etag();
        if let Some(Some(ev)) = self.resident(uri, hash, |e| memo_of(&e.evals, probe).cloned()) {
            self.bump(0);
            self.bump(4);
            return ev;
        }
        self.bump(5);
        let p = probe.pattern;
        let ev = Arc::new(match self.try_parsed_at(uri, blob, hash) {
            Ok(doc) => (probe.evaluator)
                .get_or_insert_with(|| TwigEvaluator::new(p))
                .evaluate(&doc),
            Err(_) => Evaluation::default(),
        });
        let pattern = probe.shared.get_or_insert_with(|| Arc::new(p.clone()));
        let entry = (probe.hash, pattern.clone(), ev.clone());
        // A probe that raced this one may have published the same tuples.
        let mut fresh = |e: &DocEntry| memo_of(&e.evals, probe).is_none();
        self.resident(uri, hash, |e| fresh(e).then(|| e.evals.push(entry)));
        ev
    }

    /// The memoized `(uris, entries_processed)` of the look-up `key` over
    /// `items`, fetched in this order, reduced to `reduced_to`; `None`
    /// (a miss) unless the last look-up under `key` read these very blocks.
    pub(crate) fn looked_up(
        &self,
        key: &LookupKey,
        items: &[KvItem],
        reduced_to: Option<&[Arc<str>]>,
    ) -> Option<(Vec<Arc<str>>, u64)> {
        let entry = (self.lookups.lock().unwrap().get(&key.hash()))
            .and_then(|bucket| bucket.iter().find(|e| key.is_of(e)).cloned());
        // Compared outside the lock; `Arc<str>`'s `==` tries the pointer first.
        let hit = entry.filter(|e| {
            e.reduced_to.as_deref() == reduced_to
                && e.items.len() == items.len()
                && e.items.iter().zip(items).all(|(a, b)| a.same_block(b))
        });
        self.lookup_stats[usize::from(hit.is_none())].fetch_add(1, Ordering::Relaxed);
        hit.map(|e| (e.uris.clone(), e.entries_processed))
    }

    /// Files what the look-up `key` found over `items` (in the order
    /// fetched) as the key's one entry, replacing the one before.
    pub(crate) fn memoize_lookup(
        &self,
        key: &LookupKey,
        items: Vec<KvItem>,
        reduced_to: Option<&[Arc<str>]>,
        (uris, entries_processed): (&[Arc<str>], u64),
    ) {
        let entry = Arc::new(LookupEntry {
            table: key.table,
            step: key.step,
            opts: key.opts,
            profile: key.profile,
            pattern: key.pattern.clone(),
            items,
            reduced_to: reduced_to.map(Box::from),
            uris: uris.to_vec(),
            entries_processed,
        });
        let mut memo = self.lookups.lock().unwrap();
        let bucket = memo.entry(key.hash()).or_default();
        match bucket.iter_mut().find(|e| key.is_of(e)) {
            Some(resident) => *resident = entry,
            None => bucket.push(entry),
        }
    }

    /// Number of cached documents.
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| s.lock().unwrap().len()).sum()
    }

    /// True when no document is cached.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Drops every cached parse, write set, shared key, evaluation and
    /// look-up.
    pub fn clear(&self) {
        for shard in self.shards.iter() {
            shard.lock().unwrap().clear();
        }
        self.keys.lock().unwrap().clear();
        self.lookups.lock().unwrap().clear();
    }
}

// The whole point: the cache is shareable across host threads.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<ExtractCache>();
};

#[cfg(test)]
mod tests {
    use super::*;

    const XML_A: &[u8] = b"<a><b>x</b></a>";
    const XML_B: &[u8] = b"<a><c>y</c></a>";

    /// A write set's items with their keys, in set order.
    fn items(set: &WriteSet) -> Vec<(crate::ItemKey, amada_cloud::KvItem)> {
        set.placed()
            .map(|(key, item)| (key, item.clone()))
            .collect()
    }

    /// What encoding a fresh extraction of `xml` makes.
    fn direct(xml: &[u8], strategy: Strategy, profile: &KvProfile) -> WriteSet {
        let doc = Document::parse("d.xml", xml).unwrap();
        let entries = extract(&doc, strategy, ExtractOptions::default());
        WriteSet::encode(&entries, profile, "d.xml")
    }

    #[test]
    fn parse_probe_hits_after_miss() {
        let cache = ExtractCache::default();
        cache.note_upload("d.xml", XML_A);
        let d1 = cache.parsed("d.xml", XML_A).unwrap();
        let d2 = cache.parsed("d.xml", XML_A).unwrap();
        assert!(Arc::ptr_eq(&d1, &d2));
        let s = cache.stats();
        assert_eq!((s.parse_hits, s.parse_misses), (1, 1));
    }

    #[test]
    fn a_failed_parse_is_memoized_and_holds_nothing() {
        use amada_pattern::parse_pattern;
        let cache = ExtractCache::default();
        for bad in [&b"<a><b>x</a>"[..], b"\xff\xfe<a/>", b""] {
            let blob = Blob::new(bad.to_vec());
            let error = cache.try_parsed("bad.xml", bad).unwrap_err();
            assert_eq!(cache.try_parsed("bad.xml", bad).err(), Some(error.clone()));
            assert!(cache.parsed("bad.xml", &blob).is_none());
            let set = cache.write_set(
                "bad.xml",
                bad,
                Strategy::Lu,
                ExtractOptions::default(),
                DYNAMODB,
            );
            assert_eq!(set.err(), Some(error));
            assert!(cache
                .extracted("bad.xml", bad, Strategy::Lup, ExtractOptions::default())
                .is_none());
            let p = parse_pattern("//a[/b{val}]").unwrap();
            assert!(cache
                .evaluated("bad.xml", &blob, &mut PatternProbe::new(&p))
                .0
                .is_empty());
        }
        // Each version parsed once; every other probe hit its error.
        let s = cache.stats();
        assert_eq!((s.parse_misses, s.parse_hits), (3, 15));
        assert_eq!((s.extract_hits, s.extract_misses), (0, 0));
    }

    #[test]
    fn reupload_invalidates_cached_parse() {
        let cache = ExtractCache::default();
        cache.note_upload("d.xml", XML_A);
        let d1 = cache.parsed("d.xml", XML_A).unwrap();
        cache.note_upload("d.xml", XML_B);
        let d2 = cache.parsed("d.xml", XML_B).unwrap();
        assert!(!Arc::ptr_eq(&d1, &d2));
        assert_eq!(d2.elements_named("c").len(), 1);
    }

    #[test]
    fn a_write_set_is_memoized_per_strategy_options_and_profile() {
        let cache = ExtractCache::default();
        cache.note_upload("d.xml", XML_A);
        let opts = ExtractOptions::default();
        let e1 = cache.extracted("d.xml", XML_A, Strategy::Lu, opts).unwrap();
        let e2 = cache
            .write_set("d.xml", XML_A, Strategy::Lu, opts, DYNAMODB)
            .unwrap();
        assert!(Arc::ptr_eq(&e1, &e2));
        let e3 = cache
            .extracted("d.xml", XML_A, Strategy::Lup, opts)
            .unwrap();
        assert!(!Arc::ptr_eq(&e1, &e3));
        let no_words = ExtractOptions { index_words: false };
        let e4 = cache
            .extracted("d.xml", XML_A, Strategy::Lu, no_words)
            .unwrap();
        assert!(!Arc::ptr_eq(&e1, &e4));
        let simple = amada_cloud::simpledb::PROFILE;
        let e5 = cache
            .write_set("d.xml", XML_A, Strategy::Lu, opts, &simple)
            .unwrap();
        assert!(!Arc::ptr_eq(&e1, &e5));
        let s = cache.stats();
        assert_eq!((s.extract_hits, s.extract_misses), (1, 4));
    }

    #[test]
    fn a_memoized_write_set_is_the_encoding_of_a_fresh_extraction() {
        let cache = ExtractCache::default();
        let simple = amada_cloud::simpledb::PROFILE;
        for profile in [DYNAMODB, &simple] {
            for strategy in Strategy::ALL {
                let opts = ExtractOptions::default();
                let set = cache
                    .write_set("d.xml", XML_A, strategy, opts, profile)
                    .unwrap();
                let fresh = direct(XML_A, strategy, profile);
                assert_eq!(items(&set), items(&fresh), "{strategy} on {}", profile.name);
                assert_eq!(
                    (set.entries, set.raw_bytes),
                    (fresh.entries, fresh.raw_bytes)
                );
            }
        }
    }

    #[test]
    fn documents_share_one_arc_of_each_key() {
        let cache = ExtractCache::default();
        let opts = ExtractOptions::default();
        let a = cache
            .extracted("a.xml", XML_A, Strategy::Lup, opts)
            .unwrap();
        let b = cache
            .extracted("b.xml", &b"<r><b>z</b></r>"[..], Strategy::Lui, opts)
            .unwrap();
        let key_of = |set: &WriteSet, key: &str| {
            let (_, item) = set.placed().find(|(k, _)| k.1 == key).unwrap();
            item.hash_key.clone()
        };
        assert!(Arc::ptr_eq(&key_of(&a, "eb"), &key_of(&b, "eb")));
        cache.clear();
        assert!(cache.keys.lock().unwrap().is_empty());
    }

    #[test]
    fn one_uri_two_contents_never_cross() {
        // Two warehouses holding different bytes under one URI share this
        // cache; however their probes interleave, each gets a parse and a
        // write set of *its own* bytes — with or without a carried hash.
        let cache = ExtractCache::default();
        let opts = ExtractOptions::default();
        let (a, b) = (Blob::new(XML_A.to_vec()), Blob::new(XML_B.to_vec()));
        cache.note_upload("d.xml", &a);
        for _ in 0..3 {
            let ea = cache.extracted("d.xml", &a, Strategy::Lu, opts).unwrap();
            let eb = cache.extracted("d.xml", XML_B, Strategy::Lu, opts).unwrap();
            assert_eq!(items(&ea), items(&direct(XML_A, Strategy::Lu, DYNAMODB)));
            assert_eq!(items(&eb), items(&direct(XML_B, Strategy::Lu, DYNAMODB)));
            let parsed = cache.parsed("d.xml", &b).unwrap();
            assert_eq!(parsed.elements_named("c").len(), 1);
        }
        assert_eq!(cache.len(), 1, "one resident version per URI");
    }

    #[test]
    fn evaluation_is_memoized_per_pattern_with_the_resident_version() {
        use amada_pattern::{evaluate_pattern_twig, parse_pattern};
        let cache = ExtractCache::default();
        let (b, c) = (
            parse_pattern("//a[/b{val}]").unwrap(),
            parse_pattern("//a[/c{val}]").unwrap(),
        );
        let (a, b_xml) = (Blob::new(XML_A.to_vec()), Blob::new(XML_B.to_vec()));
        let e1 = cache.evaluated("d.xml", &a, &mut PatternProbe::new(&b));
        // An equal pattern of another query finds the same evaluation.
        let again = b.clone();
        let e2 = cache.evaluated("d.xml", &a, &mut PatternProbe::new(&again));
        assert!(Arc::ptr_eq(&e1, &e2));
        assert_eq!(
            *e1,
            evaluate_pattern_twig(&cache.parsed("d.xml", XML_A).unwrap(), &b)
        );
        assert!(cache
            .evaluated("d.xml", &a, &mut PatternProbe::new(&c))
            .0
            .is_empty());
        // Other bytes under the URI: their own evaluation, never the old one.
        cache.note_upload("d.xml", XML_B);
        let e4 = cache.evaluated("d.xml", &b_xml, &mut PatternProbe::new(&c));
        assert_eq!(e4.0[0].columns, ["y".into()]);
        cache.clear();
        let e5 = cache.evaluated("d.xml", &b_xml, &mut PatternProbe::new(&c));
        assert!(!Arc::ptr_eq(&e4, &e5) && e4 == e5);
        assert_eq!(cache.eval_stats(), [1, 4]);
        // Every evaluation probe is a parse probe too; only misses of a
        // version not resident parse.
        let s = cache.stats();
        assert_eq!((s.parse_hits, s.parse_misses), (3, 3));
    }

    /// The `Arc` of `uri`'s memo entry for `pattern`.
    fn memo_arc(cache: &ExtractCache, uri: &str, pattern: &TreePattern) -> Arc<TreePattern> {
        let shard = cache.shards[shard_of(uri)].lock().unwrap();
        let evals = &shard[uri].evals;
        let (_, p, _) = evals.iter().find(|(_, p, _)| **p == *pattern).unwrap();
        p.clone()
    }

    #[test]
    fn a_probe_adopts_the_memos_arc_and_then_matches_by_pointer() {
        use amada_pattern::parse_pattern;
        let cache = ExtractCache::default();
        let p = parse_pattern("//a[/b{val}]").unwrap();
        let docs = [
            Blob::new(XML_A.to_vec()),
            Blob::new(b"<a><b>z</b></a>".to_vec()),
        ];
        let mut filler = PatternProbe::new(&p);
        for (i, blob) in docs.iter().enumerate() {
            cache.evaluated(&format!("d{i}.xml"), blob, &mut filler);
        }
        let filled = filler.shared.clone().unwrap();
        assert!(Arc::ptr_eq(&memo_arc(&cache, "d1.xml", &p), &filled));
        // Another query's equal pattern: structural on its first hit, then
        // the entry's own `Arc`, which the second document's entry shares.
        let again = p.clone();
        let mut probe = PatternProbe::new(&again);
        assert!(probe.shared.is_none());
        cache.evaluated("d0.xml", &docs[0], &mut probe);
        assert!(Arc::ptr_eq(probe.shared.as_ref().unwrap(), &filled));
        cache.evaluated("d1.xml", &docs[1], &mut probe);
        assert!(Arc::ptr_eq(probe.shared.as_ref().unwrap(), &filled));
        assert_eq!(cache.eval_stats(), [2, 2]);
    }

    #[test]
    fn a_miss_after_adoption_publishes_the_adopted_arc() {
        use amada_pattern::parse_pattern;
        let cache = ExtractCache::default();
        let p = parse_pattern("//a[/b{val}]").unwrap();
        let (a, b) = (Blob::new(XML_A.to_vec()), Blob::new(XML_B.to_vec()));
        let mut filler = PatternProbe::new(&p);
        cache.evaluated("d0.xml", &a, &mut filler);
        let again = p.clone();
        let mut probe = PatternProbe::new(&again);
        cache.evaluated("d0.xml", &a, &mut probe);
        let adopted = probe.shared.clone().unwrap();
        cache.evaluated("d1.xml", &b, &mut probe);
        assert_eq!(cache.eval_stats(), [1, 2]);
        assert!(Arc::ptr_eq(&memo_arc(&cache, "d1.xml", &p), &adopted));
        assert!(Arc::ptr_eq(&adopted, filler.shared.as_ref().unwrap()));
    }

    #[test]
    fn entries_under_distinct_arcs_of_one_pattern_still_hit() {
        use amada_pattern::parse_pattern;
        let cache = ExtractCache::default();
        let p = parse_pattern("//a[/b{val}]").unwrap();
        let (a, b) = (Blob::new(XML_A.to_vec()), Blob::new(XML_B.to_vec()));
        // Two probes, two `Arc`s of one pattern, one document each.
        cache.evaluated("d0.xml", &a, &mut PatternProbe::new(&p));
        cache.evaluated("d1.xml", &b, &mut PatternProbe::new(&p));
        let (arc0, arc1) = (
            memo_arc(&cache, "d0.xml", &p),
            memo_arc(&cache, "d1.xml", &p),
        );
        assert!(!Arc::ptr_eq(&arc0, &arc1));
        let mut probe = PatternProbe::new(&p);
        let e0 = cache.evaluated("d0.xml", &a, &mut probe);
        let e1 = cache.evaluated("d1.xml", &b, &mut probe);
        assert_eq!(
            cache.eval_stats(),
            [2, 2],
            "both hit, the second structurally"
        );
        assert!(
            Arc::ptr_eq(probe.shared.as_ref().unwrap(), &arc0),
            "the first adoption stays"
        );
        assert_eq!((e0.0.len(), e1.0.len()), (1, 0));
    }

    #[test]
    fn unequal_patterns_under_one_hash_never_match() {
        use amada_pattern::parse_pattern;
        let cache = ExtractCache::default();
        let (b, c) = (
            parse_pattern("//a[/b{val}]").unwrap(),
            parse_pattern("//a[/c{val}]").unwrap(),
        );
        let a = Blob::new(XML_A.to_vec());
        let eb = cache.evaluated("d.xml", &a, &mut PatternProbe::new(&b));
        let forged = PatternProbe::new(&b).hash;
        let mut probe = PatternProbe {
            hash: forged,
            ..PatternProbe::new(&c)
        };
        let ec = cache.evaluated("d.xml", &a, &mut probe);
        assert!(ec.0.is_empty() && eb.0.len() == 1);
        assert!(cache.evaluated("d.xml", &a, &mut probe).0.is_empty());
        assert_eq!(
            cache.eval_stats(),
            [1, 2],
            "a miss, then the probe's own entry"
        );
        assert_eq!(cache.evaluated("d.xml", &a, &mut PatternProbe::new(&b)), eb);
    }

    #[test]
    fn equal_tuples_get_equal_digests_wherever_they_are_made() {
        use amada_pattern::{naive_matches, parse_pattern};
        let xml = b"<a><b>x</b><b>y</b><b>x</b></a>";
        let p = parse_pattern("//a[/b{val}]").unwrap();
        let cache = ExtractCache::default();
        let evaluated = |uri: &str| {
            let blob = Blob::new(xml.to_vec());
            cache.evaluated(uri, &blob, &mut PatternProbe::new(&p))
        };
        let memo = evaluated("d.xml");
        let naive = naive_matches(&cache.parsed("d.xml", &xml[..]).unwrap(), &p).0;
        let digests = |tuples: &[Tuple]| tuples.iter().map(Tuple::digest).collect::<Vec<_>>();
        assert_eq!(memo.0.len(), 2);
        assert_eq!(digests(&memo.0), digests(&naive));
        assert_ne!(memo.0[0].digest(), memo.0[1].digest());
        // The URI is part of what a digest tells.
        assert_ne!(digests(&memo.0), digests(&evaluated("e.xml").0));
    }

    #[test]
    fn concurrent_probes_agree() {
        let cache = ExtractCache::shared();
        let uris: Vec<String> = (0..64).map(|i| format!("doc{i}.xml")).collect();
        let xml: Vec<Vec<u8>> = (0..64)
            .map(|i| format!("<a><b>{i}</b></a>").into_bytes())
            .collect();
        let results = amada_par::par_map_with(8, &uris, |i, uri| {
            let e = cache.extracted(uri, &xml[i], Strategy::Lui, ExtractOptions::default());
            e.unwrap().entries
        });
        // Re-probe sequentially: identical answers, all from cache.
        for (i, uri) in uris.iter().enumerate() {
            let e = cache.extracted(uri, &xml[i], Strategy::Lui, ExtractOptions::default());
            assert_eq!(e.unwrap().entries, results[i]);
        }
    }
}
