//! A document the index store's limits cannot hold is parked, not a panic.
//!
//! An element name of 3 KB makes an entry key over DynamoDB's 2 KB hash
//! key. `plan_document` says so as a typed error before any call is
//! issued; the loader parks the document's message on the dead-letter
//! queue and carries on with the rest of the corpus.

use amada::index::Strategy;
use amada::warehouse::{Warehouse, WarehouseConfig};
use amada::xmark::{generate_corpus, workload, CorpusConfig};
use amada_core::DEAD_LETTER_QUEUE;

/// The index, the sorted answers of the ten workload queries and the
/// dead-letter queue's length after indexing `docs` under `strategy`.
fn indexed_and_answered(
    strategy: Strategy,
    docs: &[(String, String)],
) -> (String, Vec<Vec<Vec<String>>>, usize) {
    let mut w = Warehouse::new(WarehouseConfig::with_strategy(strategy));
    w.upload_documents(docs.iter().cloned());
    assert_eq!(w.build_index().documents, 20, "{strategy}");
    let answers = workload()
        .iter()
        .map(|q| {
            let mut rows: Vec<Vec<String>> = w
                .run_query(q)
                .exec
                .results
                .iter()
                .map(|r| r.columns.to_vec())
                .collect();
            rows.sort();
            rows
        })
        .collect();
    let index = format!("{:?}", w.world().kv.peek_all());
    let dead = w.world().sqs.len(DEAD_LETTER_QUEUE).unwrap();
    (index, answers, dead)
}

/// One test function on purpose: it manipulates the process-wide
/// `AMADA_THREADS` variable, which concurrent tests would race on.
#[test]
fn a_document_over_the_key_limit_is_dead_lettered_and_the_build_carries_on() {
    let docs: Vec<(String, String)> = generate_corpus(&CorpusConfig {
        num_documents: 20,
        target_doc_bytes: 1200,
        ..Default::default()
    })
    .into_iter()
    .map(|d| (d.uri, d.xml))
    .collect();
    let name = "n".repeat(3000);
    let poison = format!("<site><{name} id=\"p\">gold</{name}></site>");
    let mut poisoned = docs.clone();
    poisoned.insert(7, ("auctions/poison.xml".to_string(), poison));

    for threads in ["1", "2", "8"] {
        std::env::set_var("AMADA_THREADS", threads);
        for strategy in Strategy::ALL.into_iter().chain([Strategy::LupPd]) {
            let (index, answers, dead) = indexed_and_answered(strategy, &docs);
            assert_eq!(dead, 0, "{strategy}");
            assert!(
                answers.iter().any(|rows| !rows.is_empty()),
                "{strategy}: the workload finds something"
            );
            let with_poison = indexed_and_answered(strategy, &poisoned);
            assert_eq!(
                with_poison,
                (index, answers, 1),
                "{strategy} at {threads} host threads: 20 documents indexed and answered as \
                 without the 21st, which is parked"
            );
        }
    }
    std::env::remove_var("AMADA_THREADS");
}
