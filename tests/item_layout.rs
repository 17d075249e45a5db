//! The stored index is a byte-level contract: range keys, item sizes,
//! `peek_all()` order and values feed every virtual second and picodollar.
//! These digests were taken at the commit before items became shared,
//! reference-counted values (PR 14); any representation change that moves
//! a stored byte moves them.

use amada::cloud::{content_hash, KvField, KvValue};
use amada::index::Strategy;
use amada::warehouse::{Warehouse, WarehouseConfig};
use amada::xmark::{generate_corpus, CorpusConfig};

/// FNV-1a over every item of `peek_all()`, in its order: table, keys,
/// attribute names and tagged values, each length-prefixed.
fn index_digest(w: &Warehouse) -> u64 {
    let mut bytes = Vec::new();
    let mut field = |tag: u8, data: &[u8]| {
        bytes.push(tag);
        bytes.extend_from_slice(&(data.len() as u64).to_le_bytes());
        bytes.extend_from_slice(data);
    };
    for (table, item) in w.world().kv.peek_all() {
        field(b't', table.as_bytes());
        field(b'h', item.hash_key.as_bytes());
        field(b'r', item.range_key().as_bytes());
        field(b'a', item.uri.as_bytes());
        for f in item.fields() {
            match f {
                KvField::Attr(name) => field(b'a', name.as_bytes()),
                KvField::Value(KvValue::S(s)) => field(b's', s.as_bytes()),
                KvField::Value(KvValue::B(b)) => field(b'b', b),
            }
        }
    }
    content_hash(&bytes)
}

/// The CI smoke corpus (`repro table4 --docs 50`): seed `0xA3ADA`, 50
/// documents of about 8 KB.
#[test]
fn stored_index_bytes_are_pinned_per_strategy() {
    let docs: Vec<(String, String)> = generate_corpus(&CorpusConfig {
        seed: 0xA3ADA,
        num_documents: 50,
        target_doc_bytes: 8192,
        ..Default::default()
    })
    .into_iter()
    .map(|d| (d.uri, d.xml))
    .collect();
    let pinned = [
        (Strategy::Lu, 0xeafa_1b27_5c31_a9fcu64),
        (Strategy::Lup, 0x9c7b_84a0_3044_f5e6),
        (Strategy::Lui, 0xdde6_d390_eb2a_e8cc),
        (Strategy::TwoLupi, 0x36ab_2dee_c4c5_c39b),
    ];
    for (strategy, digest) in pinned {
        let mut w = Warehouse::new(WarehouseConfig::with_strategy(strategy));
        w.upload_documents(docs.clone());
        let report = w.build_index();
        assert_eq!(
            index_digest(&w),
            digest,
            "{strategy}: {:#018x} over {} items",
            index_digest(&w),
            report.items
        );
    }
}
