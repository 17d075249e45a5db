//! Property tests for the look-up planners: on random corpora and random
//! patterns over the XMark vocabulary,
//!
//! * candidate sets are contained as LU ⊇ LUP ⊇ LUI = 2LUPI (the paper's
//!   Table 5 invariant), and
//! * no strategy ever loses a document that actually matches
//!   (no false negatives — look-ups are conservative by design);
//!
//! and, on one fixed corpus of long ID lists on both backends, LUI and
//! 2LUPI find exactly the documents that match.
//!
//! Cases derive deterministically from `(fixed master seed, case index)`
//! via `amada-rng`, so failures reproduce exactly.

mod common;

use amada_cloud::{KvBackend, KvStore, SimTime};
use amada_index::{
    index_documents, lookup_pattern_in, ExtractOptions, Strategy as IndexStrategy, TABLE_ID,
    TABLE_MAIN,
};
use amada_pattern::eval::naive_has_match;
use amada_pattern::parse_pattern;
use amada_rng::StdRng;
use amada_xml::Document;
use common::{corpus, gen_pattern};
use std::collections::BTreeSet;

#[test]
fn containment_and_no_false_negatives() {
    for case in 0..48u64 {
        let mut rng = StdRng::seed_from_u64(0x100C_0000 + case);
        let seed = rng.gen_range(0..8u64);
        let pattern = gen_pattern(&mut rng);
        let docs = corpus(seed);
        let opts = ExtractOptions::default();
        let mut per_strategy: Vec<BTreeSet<String>> = Vec::new();
        for s in IndexStrategy::ALL {
            let mut store = KvStore::default();
            index_documents(&mut store, &docs, s, opts);
            let out = lookup_pattern_in(&mut store, SimTime::ZERO, s, opts, &pattern).unwrap();
            per_strategy.push(out.uris.iter().map(|u| u.to_string()).collect());
        }
        let (lu, lup, lui, lupi) = (
            &per_strategy[0],
            &per_strategy[1],
            &per_strategy[2],
            &per_strategy[3],
        );
        assert!(lup.is_subset(lu), "case {case}: LUP ⊆ LU\n{pattern:?}");
        assert!(lui.is_subset(lup), "case {case}: LUI ⊆ LUP\n{pattern:?}");
        assert_eq!(lui, lupi, "case {case}: LUI = 2LUPI");
        // No false negatives anywhere.
        for d in &docs {
            if naive_has_match(d, &pattern) {
                for (s, set) in IndexStrategy::ALL.iter().zip(&per_strategy) {
                    assert!(
                        set.contains(d.uri()),
                        "case {case}: {s} dropped matching document {}\npattern {pattern:?}",
                        d.uri()
                    );
                }
            }
        }
    }
}

/// Documents whose `name` lists run to tens of thousands of IDs — split
/// over several items on both backends — against an anchored-root pattern
/// whose one match sits after them:
///
/// * `match-at-end`: only the last `item` has both children;
/// * `split-children`: the same labels and paths, no `item` with both, so
///   LUP keeps it and only the twig join drops it;
/// * `inner-site`: the `item` with both children is under an inner `site`,
///   which an anchored root must not join from;
/// * `short`: a one-item match beside the long lists.
#[test]
fn long_lists_find_exactly_the_matching_documents() {
    let names = format!(
        "<item>{}</item><item><payment/></item>",
        "<name/>".repeat(50_000)
    );
    let both = "<item><name/><payment/></item>";
    let docs: Vec<Document> = [
        ("match-at-end.xml", format!("<site>{names}{both}</site>")),
        ("split-children.xml", format!("<site>{names}</site>")),
        (
            "inner-site.xml",
            format!("<site>{names}<x><site>{both}</site></x></site>"),
        ),
        ("short.xml", format!("<site>{both}</site>")),
    ]
    .into_iter()
    .map(|(uri, xml)| Document::parse_str(uri, &xml).unwrap())
    .collect();
    let pattern = parse_pattern("/site[/item[/name, /payment]]").unwrap();
    let expected: Vec<String> = (docs.iter())
        .filter(|d| naive_has_match(d, &pattern))
        .map(|d| d.uri().to_string())
        .collect();
    assert_eq!(expected, ["match-at-end.xml", "short.xml"]);
    let opts = ExtractOptions::default();
    for backend in [KvBackend::Dynamo, KvBackend::Simple] {
        for (s, table) in [
            (IndexStrategy::Lui, TABLE_MAIN),
            (IndexStrategy::TwoLupi, TABLE_ID),
        ] {
            let mut store = KvStore::new(backend);
            index_documents(&mut store, &docs, s, opts);
            let (items, _) = store.get(SimTime::ZERO, table, "ename").unwrap();
            for uri in ["match-at-end.xml", "split-children.xml", "inner-site.xml"] {
                let held = items.iter().filter(|i| &*i.uri == uri).count();
                assert!(held > 1, "{backend:?} {s}: {uri}'s names fit one item");
            }
            let out = lookup_pattern_in(&mut store, SimTime::ZERO, s, opts, &pattern).unwrap();
            let found: Vec<String> = out.uris.iter().map(|u| u.to_string()).collect();
            assert_eq!(found, expected, "{backend:?} {s}");
        }
    }
}
