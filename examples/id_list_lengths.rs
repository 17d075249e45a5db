//! How long LUI's per-document ID lists run on the benchmark's corpus
//! (500 documents, seed `0xA3ADA`) at 8 KB and at 64 KB per document: one
//! (key, document) list per extracted entry, with its mean and largest
//! length and the share of lists, and of IDs, in lists of over 128 IDs.
//!
//! ```text
//! cargo run --release --example id_list_lengths
//! ```

use amada::index::{extract, ExtractOptions, Payload, Strategy};
use amada::xmark::{generate_corpus, CorpusConfig};
use amada::xml::Document;

fn main() {
    println!("| document size | per-document lists | mean IDs | max IDs | lists over 128 IDs | their share of IDs |");
    println!("|---|---|---|---|---|---|");
    for target_doc_bytes in [8192, 65536] {
        let cfg = CorpusConfig {
            seed: 0xA3ADA,
            num_documents: 500,
            target_doc_bytes,
        };
        let mut lens = Vec::new();
        for d in generate_corpus(&cfg) {
            let doc = Document::parse_str(d.uri, &d.xml).expect("the generator writes XML");
            for entry in extract(&doc, Strategy::Lui, ExtractOptions::default()) {
                if let Payload::Ids(ids) = entry.payload {
                    lens.push(ids.len());
                }
            }
        }
        let (lists, ids) = (lens.len(), lens.iter().sum::<usize>());
        let long: Vec<usize> = lens.iter().copied().filter(|&n| n > 128).collect();
        let pct = |part: usize, whole: usize| 100.0 * part as f64 / whole as f64;
        println!(
            "| {target_doc_bytes} B | {lists} | {:.1} | {} | {:.2} % | {:.1} % |",
            ids as f64 / lists as f64,
            lens.iter().max().unwrap_or(&0),
            pct(long.len(), lists),
            pct(long.iter().sum(), ids),
        );
    }
}
