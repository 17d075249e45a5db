//! The stored index is a byte-level contract: range keys, item sizes,
//! `peek_all()` order and values feed every virtual second and picodollar.
//! Any representation change that moves a stored byte moves these digests.
//! They were last taken when range keys became name-based (PR 23): the
//! item counts and stored bytes beside them are the parent's, unmoved —
//! only range-key bytes, and with them the order under a hash key, changed.

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
    })
    .into_iter()
    .map(|d| (d.uri, d.xml))
    .collect();
    // (digest, items, stored bytes)
    let pinned = [
        (Strategy::Lu, (0x1607_9fb0_15b2_7066u64, 12_595, 2_070_575)),
        (Strategy::Lup, (0x0fb3_5e1e_8d3c_0e92, 12_595, 3_066_623)),
        (Strategy::Lui, (0xc771_3144_3a20_3e5e, 12_595, 2_263_273)),
        (
            Strategy::TwoLupi,
            (0xa4a0_7fd1_86d8_5adf, 25_190, 5_329_896),
        ),
    ];
    for (strategy, expected) in pinned {
        let mut w = Warehouse::new(WarehouseConfig::with_strategy(strategy));
        w.upload_documents(docs.clone());
        let report = w.build_index();
        let stored = w.world().kv.stats().stored_bytes();
        assert_eq!(
            (index_digest(&w), report.items, stored),
            expected,
            "{strategy}: {:#018x}",
            index_digest(&w)
        );
    }
}
