//! The paper's running example at corpus scale: a gallery of painting
//! documents plus museum documents referencing them (Figures 2–3),
//! comparing all four indexing strategies on the five Figure 2 queries —
//! including q5, the value join between museums and paintings.
//!
//! ```text
//! cargo run --example museum_catalog
//! ```

use amada::index::Strategy;
use amada::warehouse::{Warehouse, WarehouseConfig};
use amada::xmark::{figure2_queries, generate_gallery};
use amada_pattern::parse_query;

fn main() {
    // A deterministic gallery: 300 paintings across six painters, plus
    // 5 museum documents referencing paintings by @id.
    let gallery = generate_gallery(42, 300, 5);
    println!(
        "gallery: {} documents ({} bytes)",
        gallery.len(),
        gallery.iter().map(|d| d.xml.len()).sum::<usize>()
    );

    println!(
        "\n{:<6} {:>10} {:>12} {:>12} {:>10} {:>12}",
        "query", "strategy", "candidates", "fetched", "results", "cost"
    );
    for strategy in Strategy::ALL {
        let mut w = Warehouse::new(WarehouseConfig::with_strategy(strategy));
        w.upload_documents(gallery.iter().map(|d| (d.uri.clone(), d.xml.clone())));
        let build = w.build_index();

        for (name, text) in figure2_queries() {
            let mut q = parse_query(text).expect("figure 2 queries parse");
            q.name = Some(name.to_string());
            let run = w.run_query(&q);
            println!(
                "{:<6} {:>10} {:>12} {:>12} {:>10} {:>12}",
                name,
                strategy.name(),
                run.exec.docs_from_index,
                run.exec.docs_fetched,
                run.exec.results.len(),
                run.cost.total().to_string(),
            );
        }
        println!(
            "{:<6} {:>10} build: {} entries, {}, charged {}\n",
            "--",
            strategy.name(),
            build.entries,
            build.total_time,
            build.cost.total()
        );
    }

    // Show q5's actual join results once (strategy-independent).
    let mut w = Warehouse::new(WarehouseConfig::with_strategy(Strategy::Lui));
    w.upload_documents(gallery.iter().map(|d| (d.uri.clone(), d.xml.clone())));
    w.build_index();
    let (name, text) = figure2_queries()[4];
    let mut q5 = parse_query(text).unwrap();
    q5.name = Some(name.into());
    let run = w.run_query(&q5);
    println!(
        "museums exposing paintings by Delacroix ({} joined tuples):",
        run.exec.results.len()
    );
    let mut museums: Vec<&str> = run.exec.results.iter().map(|t| &*t.columns[0]).collect();
    museums.sort();
    museums.dedup();
    for m in museums {
        println!("  {m}");
    }
}
