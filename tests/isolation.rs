//! Two live warehouses never see each other. The extraction cache is
//! process-wide, so two warehouses holding different bytes under the same
//! URIs used to hand each other parses, extractions and retraction key
//! sets; its entries are now identified by (URI, content hash).

use amada::index::Strategy;
use amada::warehouse::WarehouseConfig;
use amada::xmark::{generate_corpus, workload, CorpusConfig};
use amada_check::invariants::isolation_oracle;

/// Colliding URIs, different bytes, uploads/builds/replaces/queries in
/// lock-step on two threads: each warehouse's `peek_all()` and every
/// answer equal its own fresh single-warehouse build.
#[test]
fn neighbours_with_colliding_uris_match_their_own_fresh_builds() {
    let docs: Vec<(String, String)> = generate_corpus(&CorpusConfig {
        num_documents: 24,
        target_doc_bytes: 2048,
        ..Default::default()
    })
    .into_iter()
    .map(|d| (d.uri, d.xml))
    .collect();
    let queries = workload();
    for strategy in [Strategy::Lup, Strategy::TwoLupi] {
        isolation_oracle(&docs, &WarehouseConfig::with_strategy(strategy), &queries)
            .unwrap_or_else(|why| panic!("{strategy}: {why}"));
    }
}
