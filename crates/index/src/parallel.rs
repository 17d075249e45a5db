//! Parallel prewarming of the host-side extraction cache.
//!
//! The discrete-event engine is single-threaded by design (virtual time
//! is a global total order), so by the time `LoaderCore`s start stepping,
//! every parse and write set the corpus needs should already be sitting
//! in the [`ExtractCache`]. This module performs that work up front
//! across all host cores: one task per document, dynamically balanced
//! (document sizes vary), entirely free of virtual-time side effects —
//! the engine still charges each core the full parse + extract cost at
//! its own virtual arrival time.

use crate::cache::{Content, ExtractCache, DYNAMODB};
use crate::strategy::{ExtractOptions, Strategy};
use amada_cloud::KvProfile;

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

/// [`prewarm_for`] a DynamoDB store.
pub fn prewarm<B: Content + Sync>(
    cache: &ExtractCache,
    docs: &[(String, B)],
    combos: &[(Strategy, ExtractOptions)],
) -> PrewarmReport {
    prewarm_for(cache, docs, combos, DYNAMODB)
}

/// Parses every `(uri, bytes)` document and makes its write set for every
/// `(strategy, opts)` combination and a store of `profile`, filling `cache`
/// across all host cores. Idempotent: combinations already cached are
/// validated and skipped at memo-probe cost, and so is a document that is
/// not XML once its parse has failed (its loader parks it).
///
/// Pass an empty `combos` slice to prewarm parses only (useful for the
/// query path, which parses candidate documents but never extracts).
pub fn prewarm_for<B: Content + Sync>(
    cache: &ExtractCache,
    docs: &[(String, B)],
    combos: &[(Strategy, ExtractOptions)],
    profile: &KvProfile,
) -> PrewarmReport {
    let threads = amada_par::num_threads();
    let per_doc = amada_par::par_map_with(threads, docs, |_, (uri, bytes)| {
        if combos.is_empty() {
            cache.parsed(uri, bytes);
        }
        for &(strategy, opts) in combos {
            _ = cache.write_set(uri, bytes, strategy, opts, profile);
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
    use crate::loadutil::WriteSet;
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
            let doc = amada_xml::Document::parse(uri, bytes).unwrap();
            for &(strategy, opts) in &combos {
                let set = cache.extracted(uri, bytes, strategy, opts).unwrap();
                let fresh = WriteSet::encode(&extract(&doc, strategy, opts), DYNAMODB, uri);
                let items = |set: &WriteSet| -> Vec<(crate::ItemKey, amada_cloud::KvItem)> {
                    set.placed()
                        .map(|(key, item)| (key, item.clone()))
                        .collect()
                };
                assert_eq!(items(&set), items(&fresh));
            }
        }
    }

    #[test]
    fn a_document_that_is_not_xml_is_parsed_once_and_skipped() {
        let cache = ExtractCache::default();
        let mut docs = docs();
        docs.push(("bad.xml".into(), b"<a><b>x</a>".to_vec()));
        let combos: Vec<(Strategy, ExtractOptions)> = Strategy::ALL
            .into_iter()
            .map(|s| (s, ExtractOptions::default()))
            .collect();
        let report = prewarm(&cache, &docs, &combos);
        assert_eq!(report.documents, 41);
        let s = cache.stats();
        assert_eq!((s.parse_misses, s.extract_misses), (41, 160));
        assert!(cache.try_parsed("bad.xml", b"<a><b>x</a>").is_err());
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
