//! One look-up chain: `lookup_query`, the paper's single-strategy look-up,
//! answers on generated cases exactly what the per-pattern chain answers —
//! candidates, billed gets, processed entries and ready times, pattern by
//! pattern — for every strategy on both backends. The chain is kept here as
//! the reference: each pattern's `lookup_pattern_in` starts when the one
//! before is ready.

use amada_check::generate_case;
use amada_cloud::{KvBackend, KvError, KvStore, SimTime};
use amada_index::{
    index_documents, lookup_pattern_in, lookup_query, ExtractOptions, QueryLookup, Strategy,
};
use amada_pattern::{parse_query, Query};
use amada_xml::Document;

/// The reference chain: each pattern looked up over the global tables
/// when the one before is ready.
fn reference_chain(
    store: &mut KvStore,
    strategy: Strategy,
    opts: ExtractOptions,
    query: &Query,
) -> Result<QueryLookup, KvError> {
    let mut per_pattern = Vec::with_capacity(query.patterns.len());
    let mut t = SimTime::ZERO;
    for p in &query.patterns {
        let outcome = lookup_pattern_in(store, t, strategy, opts, p)?;
        t = outcome.ready_at;
        per_pattern.push(outcome);
    }
    Ok(QueryLookup::of(per_pattern))
}

#[test]
fn lookup_query_answers_what_the_per_pattern_chain_answered() {
    for index in 0..40 {
        let case = generate_case(0x100C_C4A1, index);
        let docs: Vec<Document> = (case.docs.iter())
            .map(|(uri, xml)| Document::parse_str(uri.clone(), xml).unwrap())
            .collect();
        let query = parse_query(&case.query).unwrap();
        let opts = ExtractOptions {
            index_words: case.index_words,
        };
        for strategy in Strategy::ALL {
            // Two stores built alike: a look-up moves a store's queues.
            let stores = || [KvStore::default(), KvStore::new(KvBackend::Simple)];
            for (mut chain, mut flat) in stores().into_iter().zip(stores()) {
                let what = format!("case {index}, {strategy} on {}", chain.profile().name);
                index_documents(&mut chain, &docs, strategy, opts);
                index_documents(&mut flat, &docs, strategy, opts);
                let a = reference_chain(&mut chain, strategy, opts, &query).unwrap();
                let b = lookup_query(&mut flat, SimTime::ZERO, strategy, opts, &query);
                let b = b.unwrap();
                assert_eq!(a.per_pattern.len(), b.per_pattern.len(), "{what}");
                for (a, b) in a.per_pattern.iter().zip(&b.per_pattern) {
                    assert_eq!(a.uris, b.uris, "{what}");
                    assert_eq!(a.get_ops, b.get_ops, "{what}");
                    assert_eq!(a.entries_processed, b.entries_processed, "{what}");
                    assert_eq!(a.ready_at, b.ready_at, "{what}");
                }
                assert_eq!(
                    (a.uris, a.total_doc_ids),
                    (b.uris, b.total_doc_ids),
                    "{what}"
                );
                assert_eq!(chain.stats(), flat.stats(), "{what}");
            }
        }
    }
}
