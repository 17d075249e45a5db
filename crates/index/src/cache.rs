//! Thread-safe host-side cache of parsed documents and extraction
//! results.
//!
//! The discrete-event simulation charges *virtual* time for every parse
//! and extraction a cloud instance performs — instances are stateless
//! across tasks, exactly as in the paper. The *host* running the
//! simulation, however, sees the same document parsed and extracted once
//! per strategy, per experiment, per repetition; this cache spares that
//! redundant wall-clock work without touching a single virtual-time
//! charge.
//!
//! Design:
//!
//! * **Sharded.** `SHARDS` independent `Mutex<HashMap>` shards keyed by a
//!   hash of the URI, so the parallel prewarm stage
//!   ([`crate::parallel::prewarm`]) and any future concurrent consumers
//!   do not serialize on one lock.
//! * **Two-level memoization.** Each document entry holds the parsed
//!   [`Document`] *and* the extraction output per `(Strategy,
//!   ExtractOptions)` — a loader core's entire CPU-heavy step becomes two
//!   map probes.
//! * **Content-addressed.** An entry is identified by *(URI, content
//!   hash)*, never by URI alone: every probe names the hash of the bytes
//!   in hand and a cached parse or extraction of other bytes is a miss.
//!   Two live warehouses holding different documents under one URI
//!   therefore never see each other's parses. Stored objects carry their
//!   hash ([`amada_cloud::Blob::etag`], computed once in `S3::put`), so a
//!   probe from inside the warehouse touches no bytes; loose bytes are
//!   hashed on the spot ([`Content`]). One version per URI is resident:
//!   a probe for other bytes replaces it.

use crate::strategy::{extract, ExtractOptions, IndexEntry, Strategy};
use amada_cloud::Blob;
use amada_xml::Document;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Shard count. A small power of two: the prewarm stage runs one task per
/// document across `num_cpus` threads, so a few dozen shards keep
/// contention negligible.
const SHARDS: usize = 32;

pub use amada_cloud::content_hash;

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

/// One cached document: the content hash it was parsed from, the parsed
/// tree, and the memoized extraction per strategy/options.
struct DocEntry {
    hash: u64,
    doc: Arc<Document>,
    extracts: HashMap<(Strategy, ExtractOptions), Arc<Vec<IndexEntry>>>,
}

/// URI → the resident version's parse + extractions.
type Shard = HashMap<String, DocEntry>;

/// Cumulative cache statistics (monotonic counters).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Probes answered from the cache without parsing.
    pub parse_hits: u64,
    /// Probes that had to parse.
    pub parse_misses: u64,
    /// Extraction probes answered from the memo.
    pub extract_hits: u64,
    /// Extraction probes that had to run the extractor.
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

/// A sharded, `Send + Sync` cache of parsed documents and their
/// extraction results. Cheap to clone the handle via [`Arc`].
pub struct ExtractCache {
    shards: Box<[Mutex<Shard>; SHARDS]>,
    stats: [AtomicU64; 4],
}

impl Default for ExtractCache {
    fn default() -> Self {
        ExtractCache {
            shards: Box::new(std::array::from_fn(|_| Mutex::new(Shard::default()))),
            stats: std::array::from_fn(|_| AtomicU64::new(0)),
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
    /// The process-wide cache every [`shared`](Self::shared) caller gets a
    /// handle to.
    fn process_cache() -> &'static Arc<ExtractCache> {
        static PROCESS: std::sync::OnceLock<Arc<ExtractCache>> = std::sync::OnceLock::new();
        PROCESS.get_or_init(|| Arc::new(ExtractCache::default()))
    }

    /// A handle to the **process-wide** cache. Every warehouse in the
    /// process shares it, so a harness that builds many warehouses over
    /// the same corpus (e.g. `repro table4`, one warehouse per strategy)
    /// parses each document once and extracts once per `(strategy, opts)`
    /// — not once per warehouse. Safe because entries are validated by
    /// content hash on every probe: a URI re-uploaded with different
    /// bytes simply misses and replaces the stale entry. Tests that need
    /// isolated statistics use [`ExtractCache::default`] directly.
    pub fn shared() -> Arc<ExtractCache> {
        Arc::clone(Self::process_cache())
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
    /// version has the same content.
    ///
    /// # Panics
    /// Panics if `bytes` are not well-formed XML (stored documents always
    /// are; the warehouse validated them on the way in).
    pub fn parsed<C: Content + ?Sized>(&self, uri: &str, bytes: &C) -> Arc<Document> {
        self.parsed_at(uri, bytes.bytes(), bytes.hash())
    }

    fn parsed_at(&self, uri: &str, bytes: &[u8], hash: u64) -> Arc<Document> {
        let shard = &self.shards[shard_of(uri)];
        let cached = shard
            .lock()
            .unwrap()
            .get(uri)
            .filter(|e| e.hash == hash)
            .map(|e| e.doc.clone());
        if let Some(doc) = cached {
            self.bump(0);
            return doc;
        }
        self.bump(1);
        // Parse outside the lock: this is the expensive part, and the
        // prewarm stage runs it concurrently across shard-colliding URIs.
        let doc = Arc::new(Document::parse(uri, bytes).expect("stored documents are well-formed"));
        shard.lock().unwrap().insert(
            uri.to_string(),
            DocEntry {
                hash,
                doc: doc.clone(),
                extracts: HashMap::new(),
            },
        );
        doc
    }

    /// The parsed form *and* the extraction output of `uri`/`bytes` under
    /// `(strategy, opts)`, both memoized.
    pub fn extracted<C: Content + ?Sized>(
        &self,
        uri: &str,
        bytes: &C,
        strategy: Strategy,
        opts: ExtractOptions,
    ) -> (Arc<Document>, Arc<Vec<IndexEntry>>) {
        let hash = bytes.hash();
        let doc = self.parsed_at(uri, bytes.bytes(), hash);
        let shard = &self.shards[shard_of(uri)];
        // The resident version may have been replaced since `parsed_at`
        // (another warehouse, other bytes, same URI): its memo is not ours.
        let cached = shard
            .lock()
            .unwrap()
            .get(uri)
            .filter(|e| e.hash == hash)
            .and_then(|e| e.extracts.get(&(strategy, opts)).cloned());
        if let Some(entries) = cached {
            self.bump(2);
            return (doc, entries);
        }
        self.bump(3);
        // Extract outside the lock, then publish. Two threads may race to
        // extract the same key; both produce identical output (extraction
        // is deterministic), so last-write-wins is correct.
        let entries = Arc::new(extract(&doc, strategy, opts));
        if let Some(e) = shard.lock().unwrap().get_mut(uri) {
            if e.hash == hash {
                e.extracts.insert((strategy, opts), entries.clone());
            }
        }
        (doc, entries)
    }

    /// Number of cached documents.
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| s.lock().unwrap().len()).sum()
    }

    /// True when no document is cached.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Drops every cached parse and extraction.
    pub fn clear(&self) {
        for shard in self.shards.iter() {
            shard.lock().unwrap().clear();
        }
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

    #[test]
    fn parse_probe_hits_after_miss() {
        let cache = ExtractCache::default();
        cache.note_upload("d.xml", XML_A);
        let d1 = cache.parsed("d.xml", XML_A);
        let d2 = cache.parsed("d.xml", XML_A);
        assert!(Arc::ptr_eq(&d1, &d2));
        let s = cache.stats();
        assert_eq!((s.parse_hits, s.parse_misses), (1, 1));
    }

    #[test]
    fn reupload_invalidates_cached_parse() {
        let cache = ExtractCache::default();
        cache.note_upload("d.xml", XML_A);
        let d1 = cache.parsed("d.xml", XML_A);
        cache.note_upload("d.xml", XML_B);
        let d2 = cache.parsed("d.xml", XML_B);
        assert!(!Arc::ptr_eq(&d1, &d2));
        assert_eq!(d2.elements_named("c").len(), 1);
    }

    #[test]
    fn extraction_is_memoized_per_strategy_and_opts() {
        let cache = ExtractCache::default();
        cache.note_upload("d.xml", XML_A);
        let (_, e1) = cache.extracted("d.xml", XML_A, Strategy::Lu, ExtractOptions::default());
        let (_, e2) = cache.extracted("d.xml", XML_A, Strategy::Lu, ExtractOptions::default());
        assert!(Arc::ptr_eq(&e1, &e2));
        let (_, e3) = cache.extracted("d.xml", XML_A, Strategy::Lup, ExtractOptions::default());
        assert!(!Arc::ptr_eq(&e1, &e3));
        let no_words = ExtractOptions { index_words: false };
        let (_, e4) = cache.extracted("d.xml", XML_A, Strategy::Lu, no_words);
        assert!(!Arc::ptr_eq(&e1, &e4));
        let s = cache.stats();
        assert_eq!((s.extract_hits, s.extract_misses), (1, 3));
    }

    #[test]
    fn memoized_extraction_equals_direct_extraction() {
        let cache = ExtractCache::default();
        for strategy in Strategy::ALL {
            let (doc, entries) =
                cache.extracted("d.xml", XML_A, strategy, ExtractOptions::default());
            let direct = extract(&doc, strategy, ExtractOptions::default());
            assert_eq!(*entries, direct, "{strategy}");
        }
    }

    #[test]
    fn one_uri_two_contents_never_cross() {
        // Two warehouses holding different bytes under one URI share this
        // cache; however their probes interleave, each gets a parse and an
        // extraction of *its own* bytes — with or without a carried hash.
        let cache = ExtractCache::default();
        let opts = ExtractOptions::default();
        let (a, b) = (Blob::new(XML_A.to_vec()), Blob::new(XML_B.to_vec()));
        cache.note_upload("d.xml", &a);
        for _ in 0..3 {
            let (da, ea) = cache.extracted("d.xml", &a, Strategy::Lu, opts);
            let (db, eb) = cache.extracted("d.xml", XML_B, Strategy::Lu, opts);
            assert_eq!(da.elements_named("b").len(), 1);
            assert_eq!(db.elements_named("c").len(), 1);
            assert_eq!(*ea, extract(&da, Strategy::Lu, opts));
            assert_eq!(*eb, extract(&db, Strategy::Lu, opts));
            assert_eq!(cache.parsed("d.xml", &b).elements_named("c").len(), 1);
        }
        assert_eq!(cache.len(), 1, "one resident version per URI");
    }

    #[test]
    fn concurrent_probes_agree() {
        let cache = ExtractCache::shared();
        let uris: Vec<String> = (0..64).map(|i| format!("doc{i}.xml")).collect();
        let xml: Vec<Vec<u8>> = (0..64)
            .map(|i| format!("<a><b>{i}</b></a>").into_bytes())
            .collect();
        let results = amada_par::par_map_with(8, &uris, |i, uri| {
            let (_, e) = cache.extracted(uri, &xml[i], Strategy::Lui, ExtractOptions::default());
            e.len()
        });
        // Re-probe sequentially: identical answers, all from cache.
        for (i, uri) in uris.iter().enumerate() {
            let (_, e) = cache.extracted(uri, &xml[i], Strategy::Lui, ExtractOptions::default());
            assert_eq!(e.len(), results[i]);
        }
    }
}
