//! A query message the processor cannot read is parked, not a panic.
//!
//! A query message carries `name\nquery`. A body without the `name\n`
//! line, or whose query does not parse, goes to the dead-letter queue at
//! once; the processor carries on with the rest of the queue.

use amada::pattern::parse_query;
use amada::warehouse::{Warehouse, WarehouseConfig};
use amada::xmark::{generate_corpus, workload, CorpusConfig};
use amada_core::{DEAD_LETTER_QUEUE, QUERY_QUEUE};
use std::sync::Arc;

/// A body with no `name\n` line and one whose query does not parse.
const POISON: [&str; 2] = ["//painting[/name]", "q-bad\n//painting[/name{contains("];

/// Each workload query's name and sorted answer rows.
type Answers = Vec<(String, Vec<Vec<Arc<str>>>)>;

/// Each workload query's sorted answer rows, in name order, and the
/// dead-lettered bodies after the ten queries run with `poison` sent raw
/// to the query queue ahead of them.
fn answered(docs: &[(String, String)], poison: &[&str]) -> (Answers, Vec<String>) {
    let mut w = Warehouse::new(WarehouseConfig::default());
    w.upload_documents(docs.iter().cloned());
    w.build_index();
    let now = w.now();
    for body in poison {
        let sqs = &mut w.engine_mut().world.sqs;
        sqs.send(now, QUERY_QUEUE, body.to_string())
            .expect("the query queue exists");
    }
    let run = w.run_workload(&workload(), 1);
    let mut answers: Vec<_> = run
        .executions
        .iter()
        .map(|e| {
            let mut rows: Vec<Vec<_>> = e.results.iter().map(|r| r.columns.to_vec()).collect();
            rows.sort();
            (e.name.clone(), rows)
        })
        .collect();
    answers.sort();
    let dead = w
        .world()
        .sqs
        .bodies(DEAD_LETTER_QUEUE)
        .expect("the dead-letter queue exists");
    (answers, dead.map(str::to_string).collect())
}

/// One test function on purpose: it manipulates the process-wide
/// `AMADA_THREADS` variable, which concurrent tests would race on.
#[test]
fn malformed_query_messages_are_dead_lettered_and_the_processor_carries_on() {
    assert!(parse_query(POISON[1].split_once('\n').expect("a name line").1).is_err());
    let docs: Vec<(String, String)> = generate_corpus(&CorpusConfig {
        num_documents: 20,
        target_doc_bytes: 1200,
        ..Default::default()
    })
    .into_iter()
    .map(|d| (d.uri, d.xml))
    .collect();
    for threads in ["1", "8"] {
        std::env::set_var("AMADA_THREADS", threads);
        let (answers, dead) = answered(&docs, &[]);
        assert_eq!(answers.len(), 10);
        assert!(dead.is_empty());
        assert_eq!(
            answered(&docs, &POISON),
            (answers, POISON.map(String::from).to_vec()),
            "at {threads} host threads: the ten answers as without the poison, which is parked"
        );
    }
    std::env::remove_var("AMADA_THREADS");
}
