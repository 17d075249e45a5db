//! A range key names its item — document URI, entry table, entry key,
//! chunk number — and nothing about where the item fell in its document's
//! entry stream. Two properties follow and are held here: within a build no
//! two items share a primary key, and a replaced version deletes exactly
//! the `(table, key, chunk)` triples its successor lacks — and writes
//! exactly the items whose key is new or whose value changed.

use amada::cloud::{dynamodb, simpledb, KvItem, KvProfile};
use amada::index::store::encode_entry;
use amada::index::{
    extract, plan_document, ExtractOptions, IndexEntry, Strategy, UuidGen, WriteSet,
};
use amada::xmark::{generate_corpus, CorpusConfig};
use amada::xml::Document;
use amada_check::{case_strategy, generate_case, ChurnOp};
use std::collections::{BTreeMap, BTreeSet, HashSet};
use std::sync::Arc;

fn profiles() -> [KvProfile; 2] {
    [dynamodb::PROFILE, simpledb::PROFILE]
}

/// The benchmark's corpus: 500 documents of about 8 KB, seed `0xA3ADA`,
/// under both stores' limits and under three values an item, which chunks
/// the longer path lists (ID lists this short fit one value; `store.rs`'s
/// and `store_roundtrip`'s tests chunk those).
#[test]
fn no_two_items_of_a_build_share_a_primary_key() {
    let docs: Vec<Document> = generate_corpus(&CorpusConfig {
        seed: 0xA3ADA,
        num_documents: 500,
        target_doc_bytes: 8192,
    })
    .into_iter()
    .map(|d| Document::parse_str(&d.uri, &d.xml).expect("generated documents parse"))
    .collect();
    for strategy in Strategy::ALL {
        let per_doc: Vec<Vec<IndexEntry>> = docs
            .iter()
            .map(|d| extract(d, strategy, ExtractOptions::default()))
            .collect();
        let small = profiles().map(|p| KvProfile {
            max_attrs_per_item: 3,
            ..p
        });
        for profile in profiles().into_iter().chain(small) {
            let mut seen: HashSet<(&'static str, String, String)> = HashSet::new();
            let mut chunked = 0usize;
            for (doc, entries) in docs.iter().zip(&per_doc) {
                let set = WriteSet::encode(entries, &profile, doc.uri());
                let plan =
                    plan_document(&set, &profile, &[]).expect("the corpus fits the store's limits");
                chunked += (plan.items() as usize).saturating_sub(entries.len());
                for (table, batch) in &plan.puts {
                    for item in batch {
                        let key = (*table, item.hash_key.to_string(), item.range_key().into());
                        assert!(
                            seen.insert(key),
                            "{strategy} on {}: {} stores ({table}, {}, {}) twice",
                            profile.name,
                            doc.uri(),
                            item.hash_key,
                            item.range_key()
                        );
                    }
                }
            }
            // 8 KB documents chunk nothing under the stores' own limits;
            // three values an item chunks every longer native path list.
            let paths = !matches!(strategy, Strategy::Lu | Strategy::Lui);
            assert_eq!(
                chunked > 0,
                paths && profile.supports_binary && profile.max_attrs_per_item == 3,
                "{strategy} on {}: {chunked} items beyond one per entry",
                profile.name
            );
        }
    }
}

/// `(table, key, chunk)` of every item a version stores, counted from the
/// encoder's items and not from their range keys.
fn triples(
    entries: &[IndexEntry],
    profile: &KvProfile,
    uri: &str,
) -> BTreeSet<(&'static str, String, usize)> {
    let mut uuids = UuidGen::for_document(uri);
    entries
        .iter()
        .flat_map(|e| {
            let chunks = encode_entry(e, profile, &mut uuids).len();
            (0..chunks).map(move |seq| (e.table, e.key.to_string(), seq))
        })
        .collect()
}

/// Every item a version stores, by `(table, hash key, range key)`: the
/// encoder's own items, made in full.
fn items_by_key(
    entries: &[IndexEntry],
    profile: &KvProfile,
    uri: &str,
) -> BTreeMap<(&'static str, String, String), KvItem> {
    let mut uuids = UuidGen::for_document(uri);
    let items = entries.iter().flat_map(|e| {
        let made = encode_entry(e, profile, &mut uuids);
        made.into_iter().map(|i| {
            (
                (e.table, i.hash_key.to_string(), i.range_key().to_string()),
                i,
            )
        })
    });
    items.collect()
}

/// amada-check's churn scripts re-upload documents grown, shrunk and
/// byte-identical: whatever the version before, the plan of the next one
/// deletes the triples it lacks, each once, and no other key; it puts the
/// items whose key is new or whose stored bytes differ, and an item the
/// store already holds is in neither queue.
#[test]
fn a_replace_deletes_exactly_the_triples_the_new_version_lacks() {
    let (mut grown, mut shrunk, mut identical) = (0, 0, 0);
    let mut unchanged_items = 0;
    for seed in [1u64, 2, 3] {
        for index in 0..70 {
            let case = generate_case(seed, index);
            let strategy = case_strategy(index);
            let opts = ExtractOptions {
                index_words: case.index_words,
            };
            let mut live: BTreeMap<String, String> = case.docs.iter().cloned().collect();
            for op in &case.churn {
                let (uri, xml) = match op {
                    ChurnOp::Upload { uri, xml } => (uri, xml),
                    ChurnOp::Delete { uri } => {
                        live.remove(uri);
                        continue;
                    }
                    ChurnOp::Build => continue,
                };
                let Some(old_xml) = live.insert(uri.clone(), xml.clone()) else {
                    continue;
                };
                let entries = |xml: &str| {
                    let doc = Document::parse_str(uri, xml).expect("generated documents parse");
                    extract(&doc, strategy, opts)
                };
                let (old, new) = (entries(&old_xml), entries(xml));
                for profile in profiles() {
                    let what = format!("seed {seed} case {index} {uri} on {}", profile.name);
                    let held = [&old, &new].map(|e| Arc::new(WriteSet::encode(e, &profile, uri)));
                    let new_set = &held[1];
                    let plan = plan_document(new_set, &profile, &held[..1])
                        .expect("generated documents fit the store's limits");
                    let (before, after) = (
                        items_by_key(&old, &profile, uri),
                        items_by_key(&new, &profile, uri),
                    );
                    let put: BTreeMap<_, _> = plan
                        .puts
                        .iter()
                        .flat_map(|(table, batch)| batch.iter().map(move |i| (*table, i)))
                        .map(|(t, i)| ((t, i.hash_key.to_string(), i.range_key().to_string()), i))
                        .collect();
                    let turned_over: BTreeMap<_, _> = after
                        .iter()
                        .filter(|(key, item)| before.get(*key) != Some(*item))
                        .map(|(key, item)| (key.clone(), item))
                        .collect();
                    assert_eq!(put, turned_over, "{what}: puts = new or changed");
                    assert_eq!(plan.items() as usize, put.len(), "{what}: each once");
                    assert_eq!(
                        plan.unchanged as usize,
                        after.len() - turned_over.len(),
                        "{what}: the rest is left alone"
                    );
                    // Once the plan went out, the store may hold either
                    // version: a redelivered message re-plans against both,
                    // and plans the same calls.
                    let again = plan_document(new_set, &profile, &held)
                        .expect("generated documents fit the store's limits");
                    assert_eq!(again.puts, plan.puts, "{what}: a redelivery");
                    assert_eq!(again.deletes, plan.deletes, "{what}: a redelivery");
                    assert_eq!(again.unchanged, plan.unchanged, "{what}: a redelivery");
                    unchanged_items += plan.unchanged;
                    let deleted: Vec<(&'static str, String, usize)> = plan
                        .deletes
                        .iter()
                        .flat_map(|(table, keys)| {
                            keys.iter().map(|(hash, range)| {
                                let seq = range[..6].parse().expect("a six-digit chunk number");
                                (*table, hash.clone(), seq)
                            })
                        })
                        .collect();
                    let lost: BTreeSet<_> = triples(&old, &profile, uri)
                        .difference(&triples(&new, &profile, uri))
                        .cloned()
                        .collect();
                    assert_eq!(deleted.len(), lost.len(), "{what}: each once");
                    assert_eq!(BTreeSet::from_iter(deleted), lost, "{what}");
                    if *xml == old_xml {
                        assert!(plan.deletes.is_empty(), "{what}: identical");
                        assert!(plan.puts.is_empty(), "{what}: identical");
                    }
                }
                identical += usize::from(*xml == old_xml);
                grown += usize::from(xml.len() > old_xml.len() && xml.contains(&old_xml));
                shrunk += usize::from(xml.len() < old_xml.len());
            }
        }
    }
    assert!(
        grown > 0 && shrunk > 0 && identical > 0 && unchanged_items > 0,
        "{grown} grown, {shrunk} shrunk, {identical} identical re-uploads, \
         {unchanged_items} items left alone"
    );
}
