//! Incremental-warehouse integration tests: adding documents in batches
//! and replacing a document under its existing URI.

use amada::index::Strategy;
use amada::warehouse::{Warehouse, WarehouseConfig};
use amada_pattern::parse_query;

#[test]
fn replacing_a_document_updates_answers_and_accounting() {
    let mut w = Warehouse::new(WarehouseConfig::with_strategy(Strategy::Lup));
    w.upload_documents([
        (
            "p.xml",
            "<painting><name>Olympia</name><year>1863</year></painting>",
        ),
        (
            "q.xml",
            "<painting><name>The Lion Hunt</name><year>1854</year></painting>",
        ),
    ]);
    w.build_index();
    let by_year = |w: &mut Warehouse, year: &str| {
        let q = parse_query(&format!("//painting[/name{{val}}, /year{{={year}}}]")).unwrap();
        let mut q = q;
        q.name = Some(format!("year-{year}"));
        w.run_query(&q).exec.results.len()
    };
    assert_eq!(by_year(&mut w, "1863"), 1);

    // Replace p.xml: Olympia's year is corrected; the document count and
    // corpus bytes must reflect the replacement, not a duplicate.
    let docs_before = w.documents().len();
    w.upload_documents([(
        "p.xml",
        "<painting><name>Olympia</name><year>1865</year></painting>",
    )]);
    w.build_index();
    assert_eq!(w.documents().len(), docs_before, "no duplicate URI listing");
    let stored = |uri| {
        let blob = w.world().s3.peek(amada_core::DOC_BUCKET, uri);
        blob.map(|b| b.len() as u64).unwrap()
    };
    assert_eq!(
        w.corpus_bytes(),
        stored("p.xml") + stored("q.xml"),
        "corpus bytes equal the stored bytes after replacement"
    );
    // The new content answers, and the rebuild retracted the stale 1863
    // entry — the old year's look-up touches nothing in the index.
    assert_eq!(by_year(&mut w, "1865"), 1);
    assert_eq!(by_year(&mut w, "1863"), 0);
}

#[test]
fn batched_uploads_accumulate() {
    let mut w = Warehouse::new(WarehouseConfig::with_strategy(Strategy::Lui));
    for i in 0..3 {
        w.upload_documents([(
            format!("doc{i}.xml"),
            format!("<item><name>thing {i}</name></item>"),
        )]);
        let r = w.build_index();
        assert_eq!(r.documents, 1);
    }
    assert_eq!(w.documents().len(), 3);
    let mut q = parse_query("//item[/name{val}]").unwrap();
    q.name = Some("all".into());
    assert_eq!(w.run_query(&q).exec.results.len(), 3);
}
