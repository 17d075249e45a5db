//! `build_index` prewarms what is queued, not what is stored: the host
//! work of a rebuild follows the documents it rebuilds, however many the
//! warehouse holds. (One test, its own binary: it reads the process-wide
//! cache's counters.)

use amada_core::{Warehouse, WarehouseConfig};
use amada_index::Strategy;
use amada_xmark::{generate_corpus, CorpusConfig};

fn corpus(seed: u64) -> Vec<(String, String)> {
    let cfg = CorpusConfig {
        seed,
        num_documents: 40,
        target_doc_bytes: 1000,
        ..Default::default()
    };
    generate_corpus(&cfg)
        .into_iter()
        .map(|d| (d.uri, d.xml))
        .collect()
}

#[test]
fn a_one_document_rebuild_extracts_one_document() {
    let mut w = Warehouse::new(WarehouseConfig::with_strategy(Strategy::Lup));
    w.upload_documents(corpus(1));
    assert_eq!(w.build_index().documents, 40);

    // Nothing queued: a build probes nothing.
    w.cache().clear();
    let idle = w.cache_stats();
    assert_eq!(w.build_index().documents, 0);
    assert_eq!(w.cache_stats(), idle, "an empty build touches no document");

    // One document replaced, on a cold cache: the upload replays the
    // version it overwrites, the build extracts the one it queued.
    let replacement = corpus(2).swap_remove(7);
    w.upload_documents([replacement]);
    let queued = w.cache_stats();
    assert_eq!(queued.extract_misses - idle.extract_misses, 1);
    let report = w.build_index();
    assert_eq!(report.documents, 1);
    let built = w.cache_stats();
    assert_eq!(
        (
            built.extract_misses - queued.extract_misses,
            built.parse_misses - queued.parse_misses
        ),
        (1, 1),
        "of 40 stored documents the build extracts the queued one"
    );

    // The explicit prewarm still covers the whole store.
    assert_eq!(w.prewarm().documents, 40);
}
