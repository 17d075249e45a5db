//! An indexed query on a warehouse that holds no live document has
//! nothing to look up: it sends no index request, lists nothing and
//! answers nothing. Two states reach that point — a fresh warehouse, and
//! one whose every document was uploaded, indexed and deleted (its index
//! tables exist, empty). In both, the answer, the phases, the billed gets
//! and the bill are pinned, for every strategy.

use amada::index::Strategy;
use amada::pattern::{parse_query, Query};
use amada::warehouse::{Warehouse, WarehouseConfig};

fn query() -> Query {
    let mut q = parse_query("//painting[/name{val}, /year{val}]").expect("the query parses");
    q.name = Some("paintings".into());
    q
}

/// One indexed query on `w`, summarized: the answer, the phases, the
/// billed index gets, and what the run added to the billing counters and
/// the bill.
fn indexed_query(w: &mut Warehouse) -> String {
    let before = w.world().snapshot();
    let run = w.run_query(&query());
    let after = w.world().snapshot();
    let exec = &run.exec;
    format!(
        "results={:?} strategy={:?} response_time={:?} phases={:?} index_get_ops={} docs_fetched={} \
         kv_get_ops={} kv_api_requests={} kv_bytes_read={} s3_get_requests={} s3_put_requests={} \
         cost={:?}",
        exec.results,
        exec.strategy,
        exec.response_time,
        exec.phases,
        exec.index_get_ops,
        exec.docs_fetched,
        after.kv.get_ops - before.kv.get_ops,
        after.kv.api_requests - before.kv.api_requests,
        after.kv.bytes_read - before.kv.bytes_read,
        after.s3.get_requests - before.s3.get_requests,
        after.s3.put_requests - before.s3.put_requests,
        run.cost,
    )
}

fn fresh(strategy: Strategy) -> Warehouse {
    Warehouse::new(WarehouseConfig::with_strategy(strategy))
}

/// A warehouse whose every document was uploaded, indexed and deleted.
fn emptied(strategy: Strategy) -> Warehouse {
    let mut w = fresh(strategy);
    let docs = [
        (
            "lion.xml",
            "<painting><name>Lion Hunt</name><year>1854</year></painting>",
        ),
        (
            "raft.xml",
            "<painting><name>The Raft</name><year>1819</year></painting>",
        ),
    ];
    w.upload_documents(docs);
    w.build_index();
    let removed = w.delete_documents(docs.map(|(uri, _)| uri));
    assert_eq!(removed.documents, 2);
    assert!(
        removed.index_items_removed > 0,
        "{strategy}: the build indexed"
    );
    assert!(w.documents().is_empty());
    w
}

#[test]
fn an_indexed_query_on_no_live_document_sends_no_look_up() {
    for strategy in Strategy::ALL {
        for (state, mut w) in [("fresh", fresh(strategy)), ("emptied", emptied(strategy))] {
            let summary = indexed_query(&mut w);
            let expected = format!(
                "results=[] strategy=Some({strategy:?}) response_time=SimDuration(23000) phases=QueryPhases {{ lookup_get: \
                 SimDuration(0), plan: SimDuration(0), transfer_eval: SimDuration(0) }} \
                 index_get_ops=0 docs_fetched=0 kv_get_ops=0 kv_api_requests=0 kv_bytes_read=0 \
                 s3_get_requests=1 s3_put_requests=1 cost={COST}"
            );
            assert_eq!(summary, expected, "{strategy} on a {state} warehouse");
        }
    }
}

/// The bill of one query that looks up nothing: the query pool's queue
/// traffic and uptime, the empty result object's PUT and its GET by the
/// front end.
const COST: &str = "CostReport { s3: Money(12100000), kv: Money(0), ec2: Money(2927778), \
                    sqs: Money(8000000), egress: Money(0) }";
