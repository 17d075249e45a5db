//! Golden transcript of the read path: the paper's ten workload queries
//! through `run_query` under LU, LUP, LUI and 2LUPI and through
//! `run_query_no_index`, on the 40-document default corpus. Per execution
//! it pins a digest of `results` *in order* (result bytes feed
//! `materialize`, the S3 put and egress, so order is part of the answer),
//! `result_bytes`, `docs_fetched`, `index_get_ops`, the response time and
//! the bill in picodollars.
//!
//! `tests/golden/read_path.txt` was captured from the String-keyed,
//! clone-per-hop read path this file was introduced against and is not
//! edited by the rewrite it guards. A diff means an answer, a virtual
//! microsecond or a picodollar moved.

use amada::cloud::content_hash;
use amada::index::Strategy;
use amada::warehouse::{CostedQuery, Warehouse, WarehouseConfig};
use amada::xmark::{generate_corpus, workload, CorpusConfig};
use std::fmt::Write;

/// FNV digest of the result tuples in order: every URI and every column,
/// each closed by a byte no XML text contains, tuples closed by another.
fn digest(run: &CostedQuery) -> u64 {
    let mut bytes = Vec::new();
    for t in &run.exec.results {
        for uri in &t.uris {
            bytes.extend_from_slice(uri.as_bytes());
            bytes.push(0xFF);
        }
        bytes.push(0xFE);
        for c in &t.columns {
            bytes.extend_from_slice(c.as_bytes());
            bytes.push(0xFF);
        }
        bytes.push(0xFD);
    }
    content_hash(&bytes)
}

fn transcript() -> String {
    let docs: Vec<(String, String)> = generate_corpus(&CorpusConfig {
        num_documents: 40,
        ..Default::default()
    })
    .into_iter()
    .map(|d| (d.uri, d.xml))
    .collect();
    let queries = workload();
    let mut out = String::new();
    let mut line = |label: &str, run: CostedQuery| {
        let e = &run.exec;
        writeln!(
            out,
            "{label} {}: results={} digest={:016x} result_bytes={} docs_fetched={} \
             index_get_ops={} response_us={} bill_pico={}",
            e.name,
            e.results.len(),
            digest(&run),
            e.result_bytes,
            e.docs_fetched,
            e.index_get_ops,
            e.response_time.micros(),
            run.cost.total().pico(),
        )
        .expect("writing to a String");
    };
    for strategy in Strategy::ALL {
        let mut w = Warehouse::new(WarehouseConfig::with_strategy(strategy));
        w.upload_documents(docs.clone());
        w.build_index();
        for q in &queries {
            line(&strategy.to_string(), w.run_query(q));
        }
        if strategy == Strategy::Lu {
            for q in &queries {
                line("none", w.run_query_no_index(q));
            }
        }
    }
    out
}

#[test]
fn ten_queries_by_five_access_paths_match_the_golden() {
    let expected = include_str!("golden/read_path.txt");
    let actual = transcript();
    if actual != expected {
        let line = actual
            .lines()
            .zip(expected.lines())
            .position(|(a, e)| a != e)
            .unwrap_or_else(|| actual.lines().count().min(expected.lines().count()));
        panic!(
            "read path differs from tests/golden/read_path.txt at line {}:\n  got:      {:?}\n  \
             expected: {:?}\nfull transcript:\n{actual}",
            line + 1,
            actual.lines().nth(line),
            expected.lines().nth(line),
        );
    }
}
