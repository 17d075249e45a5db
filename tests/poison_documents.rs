//! A stored document that is not XML is parked, not a panic.
//!
//! A truncated element, bytes that are not UTF-8 and an empty document are
//! stored beside a generated corpus. The build's prewarm skips them (their
//! failed parse is memoized), each one's loader message goes to the
//! dead-letter queue once, the index holds exactly what it holds without
//! them, and every workload query — indexed and scanning — answers as
//! without them. Re-uploading a poison URI as well-formed XML indexes it.

use amada::index::Strategy;
use amada::warehouse::{Warehouse, WarehouseConfig};
use amada::xmark::{generate_corpus, workload, CorpusConfig};
use amada_core::{DEAD_LETTER_QUEUE, DOC_BUCKET, LOADER_QUEUE};
use std::sync::Arc;

/// `(uri, bytes)` of each poison document.
const POISON: [(&str, &[u8]); 3] = [
    ("poison/truncated.xml", b"<a><b>x</a>"),
    ("poison/bytes.xml", b"<a>\xff\xfe</a>"),
    ("poison/empty.xml", b""),
];

/// Each workload query's sorted answer rows.
type Answers = Vec<Vec<Vec<Arc<str>>>>;

/// What a warehouse says after a build: its index, its indexed and its
/// scanning answers, its dead-lettered bodies (sorted).
type Outcome = (String, Answers, Answers, Vec<String>);

fn rows(results: &[amada::pattern::JoinedTuple]) -> Vec<Vec<Arc<str>>> {
    let mut rows: Vec<Vec<_>> = results.iter().map(|r| r.columns.to_vec()).collect();
    rows.sort();
    rows
}

/// Stores `poison` through the front end — or, for bytes a `String` cannot
/// hold, straight into the file store with a loader message of its own.
fn store_poison(w: &mut Warehouse) {
    for (uri, bytes) in POISON {
        match std::str::from_utf8(bytes) {
            Ok(xml) => {
                w.upload_documents([(uri.to_string(), xml.to_string())]);
            }
            Err(_) => {
                let now = w.now();
                let world = &mut w.engine_mut().world;
                let t = (world.s3.put(now, DOC_BUCKET, uri, bytes.to_vec()))
                    .expect("the document bucket exists");
                (world.sqs.send(t, LOADER_QUEUE, uri.to_string()))
                    .expect("the loader queue exists");
            }
        }
    }
}

/// Builds `strategy`'s index over `docs`, with the poison stored among
/// them or not, and answers the ten workload queries both ways.
fn built(strategy: Strategy, docs: &[(String, String)], poisoned: bool) -> (Warehouse, Outcome) {
    let mut w = Warehouse::new(WarehouseConfig::with_strategy(strategy));
    let (head, tail) = docs.split_at(docs.len() / 2);
    w.upload_documents(head.iter().cloned());
    if poisoned {
        store_poison(&mut w);
    }
    w.upload_documents(tail.iter().cloned());
    assert_eq!(w.build_index().documents, docs.len() as u64, "{strategy}");
    let queries = workload();
    let indexed = queries
        .iter()
        .map(|q| rows(&w.run_query(q).exec.results))
        .collect();
    let scanned = queries
        .iter()
        .map(|q| rows(&w.run_query_no_index(q).exec.results))
        .collect();
    let index = format!("{:?}", w.world().kv.peek_all());
    let dead = dead_letters(&w);
    (w, (index, indexed, scanned, dead))
}

fn dead_letters(w: &Warehouse) -> Vec<String> {
    let bodies = w.world().sqs.bodies(DEAD_LETTER_QUEUE);
    let mut dead: Vec<String> = bodies
        .expect("the dead-letter queue exists")
        .map(String::from)
        .collect();
    dead.sort();
    dead
}

/// One test function on purpose: it manipulates the process-wide
/// `AMADA_THREADS` variable, which concurrent tests would race on.
#[test]
fn documents_that_are_not_xml_are_dead_lettered_and_the_warehouse_carries_on() {
    let docs: Vec<(String, String)> = generate_corpus(&CorpusConfig {
        num_documents: 20,
        target_doc_bytes: 1200,
        ..Default::default()
    })
    .into_iter()
    .map(|d| (d.uri, d.xml))
    .collect();
    let mut parked: Vec<String> = POISON.iter().map(|(uri, _)| uri.to_string()).collect();
    parked.sort();
    for threads in ["1", "2"] {
        std::env::set_var("AMADA_THREADS", threads);
        for strategy in Strategy::ALL {
            let what = format!("{strategy} at {threads} host threads");
            let (_, clean) = built(strategy, &docs, false);
            assert!(clean.3.is_empty(), "{what}");
            assert!(
                clean.1.iter().any(|rows| !rows.is_empty()),
                "{what}: the workload finds something"
            );
            let (mut w, poisoned) = built(strategy, &docs, true);
            let expected = (clean.0, clean.1, clean.2, parked.clone());
            assert_eq!(
                poisoned, expected,
                "{what}: the corpus indexed and answered as without the poison, which is parked"
            );

            // Well-formed at last: the URI is indexed like any other.
            let (uri, _) = POISON[0];
            w.upload_documents([(uri.to_string(), "<a><b>x</b></a>".to_string())]);
            assert_eq!(w.build_index().documents, 1, "{what}");
            let index = w.world().kv.peek_all();
            assert!(index.iter().any(|(_, item)| &*item.uri == uri), "{what}");
            assert_eq!(dead_letters(&w), parked, "{what}: each poison parked once");
        }
    }
    std::env::remove_var("AMADA_THREADS");
}
