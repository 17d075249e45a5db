//! Quickstart: store two XML documents in the cloud warehouse, index
//! them, and run a tree-pattern query — the paper's Figure 3 documents
//! and a Figure 2 query, end to end.
//!
//! ```text
//! cargo run --example quickstart
//! ```

use amada::index::Strategy;
use amada::warehouse::{Warehouse, WarehouseConfig};
use amada::xmark::{delacroix_xml, manet_xml};
use amada_pattern::parse_query;

fn main() {
    // 1. Provision a warehouse using the LUP (Label-URI-Path) strategy —
    //    the paper's best all-round performer.
    let mut warehouse = Warehouse::new(WarehouseConfig::with_strategy(Strategy::Lup));

    // 2. Upload the two documents of the paper's Figure 3. Each upload
    //    stores the file in the (simulated) S3 bucket and enqueues an
    //    indexing request.
    let upload = warehouse.upload_documents([
        ("delacroix.xml", delacroix_xml()),
        ("manet.xml", manet_xml()),
    ]);
    println!(
        "uploaded {} documents ({} bytes) for {}",
        upload.documents, upload.bytes, upload.cost
    );

    // 3. Build the index: 8 large EC2 instances drain the loader queue,
    //    extract `key(n) -> (URI, paths)` entries and batch-write them to
    //    DynamoDB.
    let build = warehouse.build_index();
    println!(
        "indexed {} entries in {} (virtual), charged {}",
        build.entries,
        build.total_time,
        build.cost.total()
    );

    // 4. Ask for painters of paintings whose name contains "Lion"
    //    (the paper's q3).
    let q3 = {
        let mut q =
            parse_query("//painting[/name{contains(Lion)}, //painter[/name[/last{val}]]]").unwrap();
        q.name = Some("q3".into());
        q
    };
    let run = warehouse.run_query(&q3);
    println!(
        "q3: {} candidate document(s) from the index, {} fetched, {} result(s) in {} for {}",
        run.exec.docs_from_index,
        run.exec.docs_fetched,
        run.exec.results.len(),
        run.exec.response_time,
        run.cost.total(),
    );
    for tuple in &run.exec.results {
        println!("  painter: {}", tuple.columns.join(", "));
    }
    assert_eq!(run.exec.results[0].columns, ["Delacroix".into()]);

    // 5. What would this warehouse cost to keep for a month?
    let storage = warehouse.storage_cost();
    println!(
        "monthly storage: files {} + index {} = {}",
        storage.file_store,
        storage.index_store,
        storage.total()
    );
}
