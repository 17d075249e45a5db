//! Microbenchmarks of the warehouse's hot kernels: XML parsing, holistic
//! twig joins, index extraction per strategy, the structural-ID codec,
//! key-value store operations, and index look-ups.
//!
//! These measure *host* performance of the real algorithms (the
//! discrete-event simulation charges virtual time separately).
//!
//! The harness is self-contained (the build environment cannot fetch
//! criterion): each benchmark is auto-calibrated to run for at least
//! ~100 ms and reports the mean time per iteration. Run with
//!
//! ```text
//! cargo bench -p amada-bench
//! ```

use amada_cloud::{DynamoDb, KvStore, SimTime};
use amada_index::{extract, lookup_pattern, ExtractOptions, Strategy};
use amada_pattern::{evaluate_pattern_twig, naive_matches, parse_pattern};
use amada_xmark::{generate_document, CorpusConfig};
use amada_xml::{Document, StructuralId};
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Runs `f` repeatedly for at least `MIN_RUN`, after a short warm-up, and
/// prints the mean wall time per iteration (plus optional throughput).
fn bench(group: &str, name: &str, bytes_per_iter: Option<u64>, mut f: impl FnMut()) {
    const WARMUP: Duration = Duration::from_millis(20);
    const MIN_RUN: Duration = Duration::from_millis(100);
    let start = Instant::now();
    let mut warm_iters: u64 = 0;
    while start.elapsed() < WARMUP {
        f();
        warm_iters += 1;
    }
    // Estimate a batch size from the warm-up rate, then time whole batches
    // until the total run is long enough.
    let per_iter = WARMUP.as_secs_f64() / warm_iters.max(1) as f64;
    let batch = ((0.01 / per_iter.max(1e-9)) as u64).clamp(1, 1_000_000);
    let mut iters: u64 = 0;
    let timed = Instant::now();
    while timed.elapsed() < MIN_RUN {
        for _ in 0..batch {
            f();
        }
        iters += batch;
    }
    let per = timed.elapsed().as_secs_f64() / iters as f64;
    let rate = match bytes_per_iter {
        Some(b) => format!("  {:8.1} MiB/s", b as f64 / per / (1024.0 * 1024.0)),
        None => String::new(),
    };
    println!("{group:<18} {name:<24} {:>12}/iter{rate}", fmt_time(per));
}

fn fmt_time(secs: f64) -> String {
    if secs < 1e-6 {
        format!("{:.1} ns", secs * 1e9)
    } else if secs < 1e-3 {
        format!("{:.2} us", secs * 1e6)
    } else if secs < 1.0 {
        format!("{:.2} ms", secs * 1e3)
    } else {
        format!("{secs:.3} s")
    }
}

fn corpus_doc(bytes: usize) -> (String, String) {
    let cfg = CorpusConfig {
        num_documents: 50,
        target_doc_bytes: bytes,
        ..Default::default()
    };
    let d = generate_document(&cfg, 7); // a Standard-variant document
    (d.uri, d.xml)
}

fn bench_parser() {
    for kb in [2usize, 8, 32] {
        let (uri, xml) = corpus_doc(kb * 1024);
        bench(
            "xml-parse",
            &format!("{kb}KB"),
            Some(xml.len() as u64),
            || {
                black_box(Document::parse_str(uri.clone(), black_box(&xml)).unwrap());
            },
        );
    }
}

fn bench_twig_join() {
    let (uri, xml) = corpus_doc(32 * 1024);
    let doc = Document::parse_str(uri, &xml).unwrap();
    let patterns = [
        ("linear", "//item[/name{val}]"),
        (
            "branching",
            "//item[/name{val}, /payment{val}, //mailbox[/mail[/from{val}]]]",
        ),
        (
            "predicated",
            "//open_auction[/initial{val}, //bidder[/increase{\"10\"<val<=\"50\"}]]",
        ),
    ];
    for (name, text) in patterns {
        let p = parse_pattern(text).unwrap();
        bench("twig-join", &format!("holistic/{name}"), None, || {
            black_box(evaluate_pattern_twig(black_box(&doc), black_box(&p)));
        });
        bench("twig-join", &format!("naive/{name}"), None, || {
            black_box(naive_matches(black_box(&doc), black_box(&p)));
        });
    }
    // Stream-level advance at corpus-scale list lengths: the galloping
    // join vs. the element-at-a-time linear reference, on a selective
    // anchor (100 entries) over a dense descendant stream (~10k entries).
    // 98% of the descendant stream lies outside anchor subtrees — the
    // shape where skipping in binary-searched runs pays off.
    use amada_pattern::twig::{holistic_twig_join, holistic_twig_join_linear, TwigShape};
    let p = parse_pattern("//category[//text{val}]").unwrap();
    let shape = TwigShape::from_pattern(&p);
    let mut anchors = Vec::new();
    let mut texts = Vec::new();
    for pre in 0..10_000u32 {
        if pre % 100 == 0 {
            anchors.push((StructuralId::new(pre, pre + 2, 2), ()));
        } else {
            // Inside an anchor subtree only for the entry right after it.
            texts.push((StructuralId::new(pre, pre, 3), ()));
        }
    }
    let streams = vec![anchors, texts];
    bench("twig-join", "streams/gallop", None, || {
        black_box(holistic_twig_join(black_box(&shape), black_box(&streams)).len());
    });
    bench("twig-join", "streams/linear", None, || {
        black_box(holistic_twig_join_linear(black_box(&shape), black_box(&streams)).len());
    });
}

fn bench_extraction() {
    let (uri, xml) = corpus_doc(32 * 1024);
    let len = xml.len() as u64;
    let doc = Document::parse_str(uri, &xml).unwrap();
    for s in Strategy::ALL {
        bench("index-extract", s.name(), Some(len), || {
            black_box(extract(black_box(&doc), s, ExtractOptions::default()));
        });
    }
}

fn bench_id_codec() {
    let ids: Vec<StructuralId> = (1..=10_000)
        .map(|i| StructuralId::new(i * 3, i * 2, (i % 12) + 1))
        .collect();
    let encoded = amada_index::codec::encode_ids(&ids);
    bench("id-codec", "encode-10k", None, || {
        black_box(amada_index::codec::encode_ids(black_box(&ids)));
    });
    bench("id-codec", "decode-10k", None, || {
        black_box(amada_index::codec::decode_ids(black_box(&encoded)).unwrap());
    });
}

fn bench_tokenize() {
    // All text content of a 32 KB document, tokenized the streaming way
    // (`for_each_word`, zero allocations) and the collecting way
    // (`tokenize`, one `String` per word) — the before/after of the
    // word-level hot path.
    let (uri, xml) = corpus_doc(32 * 1024);
    let doc = Document::parse_str(uri, &xml).unwrap();
    let texts: Vec<&str> = doc.all_nodes().filter_map(|n| doc.value(n)).collect();
    let bytes: u64 = texts.iter().map(|t| t.len() as u64).sum();
    bench("tokenize", "streaming", Some(bytes), || {
        let mut n = 0usize;
        for t in &texts {
            amada_xml::for_each_word(black_box(t), |w| n += w.len());
        }
        black_box(n);
    });
    bench("tokenize", "collecting", Some(bytes), || {
        for t in &texts {
            black_box(amada_xml::tokenize(black_box(t)));
        }
    });
}

fn bench_kv_store() {
    {
        let mut db = DynamoDb::default();
        db.ensure_table("t");
        let mut i = 0u64;
        bench("dynamodb-host-ops", "batch_put-25", None, || {
            let items: Vec<amada_cloud::KvItem> = (0..25)
                .map(|k| amada_cloud::KvItem {
                    hash_key: format!("key{}", k % 7).into(),
                    range_key: format!("r{i}-{k}").into(),
                    attrs: [("doc.xml".into(), vec![amada_cloud::KvValue::S("v".into())])].into(),
                })
                .collect();
            i += 1;
            black_box(db.batch_put(SimTime::ZERO, "t", items).unwrap());
        });
    }
    {
        let mut db = DynamoDb::default();
        db.ensure_table("t");
        for i in 0..200 {
            db.batch_put(
                SimTime::ZERO,
                "t",
                vec![amada_cloud::KvItem {
                    hash_key: "ename".into(),
                    range_key: format!("r{i}").into(),
                    attrs: [(
                        format!("doc{i}.xml").into(),
                        vec![amada_cloud::KvValue::S(String::new())],
                    )]
                    .into(),
                }],
            )
            .unwrap();
        }
        bench("dynamodb-host-ops", "get-hot-key", None, || {
            black_box(
                db.get(SimTime::ZERO, "t", black_box("ename"))
                    .unwrap()
                    .0
                    .len(),
            );
        });
    }
}

fn bench_lookup() {
    // A 50-document indexed corpus per strategy; measure look-up host time.
    let cfg = CorpusConfig {
        num_documents: 50,
        target_doc_bytes: 4096,
        ..Default::default()
    };
    let docs: Vec<Document> = (0..cfg.num_documents)
        .map(|i| {
            let d = generate_document(&cfg, i);
            Document::parse_str(d.uri, &d.xml).unwrap()
        })
        .collect();
    let pattern =
        parse_pattern("//item[/name{contains(gold)}, //mailbox[/mail[/from{val}]]]").unwrap();
    for s in Strategy::ALL {
        let mut store: Box<dyn KvStore> = Box::new(DynamoDb::default());
        amada_index::index_documents(store.as_mut(), &docs, s, ExtractOptions::default());
        bench("index-lookup", s.name(), None, || {
            black_box(
                lookup_pattern(
                    store.as_mut(),
                    SimTime::ZERO,
                    s,
                    ExtractOptions::default(),
                    black_box(&pattern),
                )
                .unwrap()
                .uris
                .len(),
            );
        });
    }
}

fn main() {
    println!("{:<18} {:<24} {:>17}", "group", "benchmark", "mean");
    bench_parser();
    bench_tokenize();
    bench_twig_join();
    bench_extraction();
    bench_id_codec();
    bench_kv_store();
    bench_lookup();
}
