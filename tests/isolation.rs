//! Two live warehouses never see each other. The extraction cache is
//! process-wide, so two warehouses holding different bytes under the same
//! URIs used to hand each other parses, extractions and retraction key
//! sets; its entries are now identified by (URI, content hash).

use amada::index::Strategy;
use amada::pattern::evaluate_query_on_documents;
use amada::warehouse::{Warehouse, WarehouseConfig};
use amada::xmark::{generate_corpus, workload, CorpusConfig};
use amada::xml::Document;
use amada_check::invariants::isolation_oracle;
use amada_check::oracles::canon_joined;

fn corpus() -> Vec<(String, String)> {
    generate_corpus(&CorpusConfig {
        num_documents: 24,
        target_doc_bytes: 2048,
        ..Default::default()
    })
    .into_iter()
    .map(|d| (d.uri, d.xml))
    .collect()
}

/// Colliding URIs, different bytes, uploads/builds/replaces/queries in
/// lock-step on two threads: each warehouse's `peek_all()` and every
/// answer equal its own fresh single-warehouse build.
#[test]
fn neighbours_with_colliding_uris_match_their_own_fresh_builds() {
    let docs = corpus();
    let queries = workload();
    for strategy in Strategy::ALL {
        isolation_oracle(&docs, &WarehouseConfig::with_strategy(strategy), &queries)
            .unwrap_or_else(|why| panic!("{strategy}: {why}"));
    }
}

/// The evaluation memo is content-addressed like the parse: two warehouses
/// holding different bytes under one URI query in lock-step on two threads
/// — indexed and scanning, three rounds, so either may fill the memo
/// first — and every answer is direct evaluation over its own bytes.
#[test]
fn neighbours_never_receive_each_others_tuples() {
    let (docs, queries) = (corpus(), workload());
    let shifted = |k: usize| -> Vec<(String, String)> {
        (0..docs.len())
            .map(|i| (docs[i].0.clone(), docs[(i + k) % docs.len()].1.clone()))
            .collect()
    };
    let direct = |k: usize| -> Vec<Vec<String>> {
        let parsed = shifted(k)
            .into_iter()
            .map(|(uri, xml)| Document::parse_str(uri, &xml));
        let parsed: Vec<Document> = parsed.collect::<Result<_, _>>().expect("XMark parses");
        let answer = |q| canon_joined(&evaluate_query_on_documents(q, parsed.iter()).0);
        queries.iter().map(answer).collect()
    };
    let step = std::sync::Barrier::new(2);
    // Answers are collected, not asserted, on the threads: a panic there
    // would leave the other one waiting at the barrier.
    let neighbour = |k: usize| -> Vec<Vec<String>> {
        let mut w = Warehouse::new(WarehouseConfig::with_strategy(Strategy::Lup));
        w.upload_documents(shifted(k));
        w.build_index();
        let mut answers = Vec::new();
        for _ in 0..3 {
            for q in &queries {
                step.wait();
                answers.push(canon_joined(&w.run_query(q).exec.results));
                step.wait();
                answers.push(canon_joined(&w.run_query_no_index(q).exec.results));
            }
        }
        answers
    };
    let lived = std::thread::scope(|s| {
        let other = s.spawn(|| neighbour(1));
        [neighbour(0), other.join().expect("neighbour thread")]
    });
    assert_ne!(
        direct(0),
        direct(1),
        "the neighbours' bytes answer differently"
    );
    for (k, answers) in lived.into_iter().enumerate() {
        let own = direct(k);
        for (i, got) in answers.iter().enumerate() {
            let q = (i / 2) % queries.len();
            assert_eq!(
                *got, own[q],
                "warehouse {k}, {:?}, answer {i}",
                queries[q].name
            );
        }
    }
}
