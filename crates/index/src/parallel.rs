//! Parallel prewarming of the host-side extraction cache.
//!
//! The discrete-event engine is single-threaded by design (virtual time
//! is a global total order), so by the time `LoaderCore`s start stepping,
//! every parse and extraction the corpus needs should already be sitting
//! in the [`ExtractCache`]. This module performs that work up front
//! across all host cores: one task per document, dynamically balanced
//! (document sizes vary), entirely free of virtual-time side effects —
//! the engine still charges each core the full parse + extract cost at
//! its own virtual arrival time.

use crate::cache::{Content, ExtractCache};
use crate::strategy::{ExtractOptions, Strategy};

/// What one prewarm pass did.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PrewarmReport {
    /// Documents visited.
    pub documents: usize,
    /// Bytes of XML parsed (or re-validated from cache).
    pub bytes: u64,
    /// `(doc, strategy, opts)` extraction combinations visited.
    pub extractions: usize,
    /// Host threads used.
    pub threads: usize,
}

/// Parses every `(uri, bytes)` document and runs extraction for every
/// `(strategy, opts)` combination, filling `cache` across all host
/// cores. Idempotent: combinations already cached are validated and
/// skipped at memo-probe cost.
///
/// Pass an empty `combos` slice to prewarm parses only (useful for the
/// query path, which parses candidate documents but never extracts).
pub fn prewarm<B: Content + Sync>(
    cache: &ExtractCache,
    docs: &[(String, B)],
    combos: &[(Strategy, ExtractOptions)],
) -> PrewarmReport {
    let threads = amada_par::num_threads();
    let per_doc = amada_par::par_map_with(threads, docs, |_, (uri, bytes)| {
        if combos.is_empty() {
            cache.parsed(uri, bytes);
        }
        for &(strategy, opts) in combos {
            cache.extracted(uri, bytes, strategy, opts);
        }
        bytes.bytes().len() as u64
    });
    PrewarmReport {
        documents: docs.len(),
        bytes: per_doc.iter().sum(),
        extractions: docs.len() * combos.len(),
        threads,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::strategy::extract;

    fn docs() -> Vec<(String, Vec<u8>)> {
        (0..40)
            .map(|i| {
                (
                    format!("d{i}.xml"),
                    format!("<a><b k=\"v{i}\">text {i}</b></a>").into_bytes(),
                )
            })
            .collect()
    }

    #[test]
    fn prewarm_fills_the_cache() {
        let cache = ExtractCache::default();
        let docs = docs();
        let combos = [(Strategy::Lu, ExtractOptions::default())];
        let report = prewarm(&cache, &docs, &combos);
        assert_eq!(report.documents, 40);
        assert_eq!(report.extractions, 40);
        assert!(report.bytes > 0);
        assert_eq!(cache.len(), 40);
        // Every subsequent probe is a hit.
        let before = cache.stats();
        for (uri, bytes) in &docs {
            cache.extracted(uri, bytes, Strategy::Lu, ExtractOptions::default());
        }
        let after = cache.stats();
        assert_eq!(after.parse_misses, before.parse_misses);
        assert_eq!(after.extract_misses, before.extract_misses);
        assert_eq!(after.extract_hits, before.extract_hits + 40);
    }

    #[test]
    fn prewarm_is_idempotent() {
        let cache = ExtractCache::default();
        let docs = docs();
        let combos = [(Strategy::TwoLupi, ExtractOptions::default())];
        prewarm(&cache, &docs, &combos);
        let misses_after_first = cache.stats().extract_misses;
        prewarm(&cache, &docs, &combos);
        assert_eq!(cache.stats().extract_misses, misses_after_first);
    }

    #[test]
    fn prewarmed_extraction_matches_direct() {
        let cache = ExtractCache::default();
        let docs = docs();
        let combos: Vec<(Strategy, ExtractOptions)> = Strategy::ALL
            .into_iter()
            .map(|s| (s, ExtractOptions::default()))
            .collect();
        prewarm(&cache, &docs, &combos);
        for (uri, bytes) in &docs {
            for &(strategy, opts) in &combos {
                let (doc, entries) = cache.extracted(uri, bytes, strategy, opts);
                assert_eq!(*entries, extract(&doc, strategy, opts));
            }
        }
    }

    #[test]
    fn empty_combos_prewarms_parses_only() {
        let cache = ExtractCache::default();
        let docs = docs();
        let report = prewarm(&cache, &docs, &[]);
        assert_eq!(report.extractions, 0);
        assert_eq!(cache.len(), 40);
        assert_eq!(cache.stats().extract_misses, 0);
    }
}
