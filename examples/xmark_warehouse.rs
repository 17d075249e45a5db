//! The paper's experimental setting in miniature: an XMark corpus
//! warehoused in the cloud, the ten-query workload (Section 8.2), and a
//! side-by-side of response time and monetary cost with and without the
//! index — the headline claim of the paper ("indexing can reduce
//! processing time by up to two orders of magnitude and costs by one
//! order of magnitude").
//!
//! ```text
//! cargo run --release --example xmark_warehouse [docs] [strategy]
//! ```

use amada::index::Strategy;
use amada::warehouse::{Warehouse, WarehouseConfig};
use amada::xmark::{generate_corpus, workload, CorpusConfig};

fn main() {
    let mut args = std::env::args().skip(1);
    let docs: usize = args.next().and_then(|a| a.parse().ok()).unwrap_or(500);
    let strategy = match args.next() {
        None => Strategy::Lup,
        Some(name) => Strategy::parse(&name).unwrap_or_else(|| {
            let valid: Vec<&str> = Strategy::ALL.map(Strategy::name).to_vec();
            eprintln!(
                "unknown strategy '{name}'; valid names: {}",
                valid.join(", ")
            );
            std::process::exit(2);
        }),
    };

    let corpus_cfg = CorpusConfig {
        num_documents: docs,
        ..Default::default()
    };
    let corpus = generate_corpus(&corpus_cfg);
    let bytes: usize = corpus.iter().map(|d| d.xml.len()).sum();
    println!(
        "corpus: {docs} XMark documents, {:.2} MB; strategy {strategy}",
        bytes as f64 / 1048576.0
    );

    let mut w = Warehouse::new(WarehouseConfig::with_strategy(strategy));
    w.upload_documents(corpus.into_iter().map(|d| (d.uri, d.xml)));
    let build = w.build_index();
    println!(
        "index build on {} large instances: {} entries, total {} (extract {}, upload {}), charged {}",
        build.instances,
        build.entries,
        build.total_time,
        build.avg_extraction_time,
        build.avg_upload_time,
        build.cost.total()
    );
    println!(
        "monthly storage: data {} + index {}",
        w.storage_cost().file_store,
        w.storage_cost().index_store
    );

    println!(
        "\n{:<5} {:>12} {:>12} {:>8} {:>13} {:>13} {:>8} {:>8}",
        "query", "t-indexed", "t-scan", "speedup", "$-indexed", "$-scan", "saving", "results"
    );
    let mut total_indexed = 0.0;
    let mut total_scan = 0.0;
    for q in workload() {
        let with = w.run_query(&q);
        let without = w.run_query_no_index(&q);
        let ti = with.exec.response_time.as_secs_f64();
        let ts = without.exec.response_time.as_secs_f64();
        let ci = with.cost.total().dollars();
        let cs = without.cost.total().dollars();
        total_indexed += ci;
        total_scan += cs;
        println!(
            "{:<5} {:>11.3}s {:>11.3}s {:>7.1}x {:>13.8} {:>13.8} {:>7.1}% {:>8}",
            q.name.as_deref().unwrap(),
            ti,
            ts,
            ts / ti,
            ci,
            cs,
            100.0 * (1.0 - ci / cs),
            with.exec.results.len(),
        );
    }
    println!(
        "\nworkload total: ${total_indexed:.6} indexed vs ${total_scan:.6} scanning \
         ({:.1}% saved)",
        100.0 * (1.0 - total_indexed / total_scan)
    );
}
