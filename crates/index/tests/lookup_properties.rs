//! Property tests for the look-up planners: on random corpora and random
//! patterns over the XMark vocabulary,
//!
//! * candidate sets are contained as LU ⊇ LUP ⊇ LUI = 2LUPI (the paper's
//!   Table 5 invariant), and
//! * no strategy ever loses a document that actually matches
//!   (no false negatives — look-ups are conservative by design).
//!
//! Cases derive deterministically from `(fixed master seed, case index)`
//! via `amada-rng`, so failures reproduce exactly.

use amada_cloud::{DynamoDb, KvStore, SimTime};
use amada_index::{
    index_documents, lookup_pattern_in, ExtractOptions, Placement, Strategy as IndexStrategy,
};
use amada_pattern::ast::{Axis, NodeTest, Output, PatternNode, Predicate, TreePattern};
use amada_pattern::eval::naive_has_match;
use amada_rng::StdRng;
use amada_xmark::{generate_document, CorpusConfig};
use amada_xml::Document;
use std::collections::BTreeSet;

/// Labels and words that actually occur in the generated corpus, plus a
/// few that do not (to exercise empty-key paths).
const LABELS: &[&str] = &[
    "site",
    "regions",
    "item",
    "name",
    "payment",
    "description",
    "mailbox",
    "mail",
    "from",
    "person",
    "profile",
    "age",
    "open_auction",
    "bidder",
    "increase",
    "closed_auction",
    "price",
    "nonexistent",
];
const ATTRS: &[&str] = &["id", "person", "item", "category"];
const WORDS: &[&str] = &[
    "gold",
    "dragon",
    "shipment",
    "creditcard",
    "regular",
    "zzzz",
];

/// Random pattern over the XMark vocabulary: a flat spec per node
/// (label, axis, parent choice, weighted predicate, weighted attribute),
/// retried until no attribute node has children.
fn gen_pattern(rng: &mut StdRng) -> TreePattern {
    loop {
        let n = rng.gen_range(1..5usize);
        let mut nodes: Vec<PatternNode> = Vec::new();
        for i in 0..n {
            let label = *rng.choose(LABELS);
            let desc = rng.gen_bool(0.5);
            let pchoice = rng.gen_range(0..=255u8) as usize;
            let pred = if rng.gen_bool(0.3) {
                let w = *rng.choose(WORDS);
                Some(if rng.gen_bool(0.5) {
                    Predicate::Contains(w.into())
                } else {
                    Predicate::Eq(w.into())
                })
            } else {
                None
            };
            let is_attr = rng.gen_bool(0.25);
            let attr = *rng.choose(ATTRS);
            let parent = if i == 0 { None } else { Some(pchoice % i) };
            let attr_ok = is_attr && i > 0;
            let test = if attr_ok {
                NodeTest::Attribute(attr.to_string())
            } else {
                NodeTest::Element(label.to_string())
            };
            if let Some(p) = parent {
                nodes[p].children.push(i);
            }
            nodes.push(PatternNode {
                test,
                axis: if desc { Axis::Descendant } else { Axis::Child },
                parent,
                children: Vec::new(),
                outputs: vec![Output::Val { join_var: None }],
                predicate: if attr_ok { None } else { pred },
            });
        }
        let pattern = TreePattern { nodes };
        // Attributes cannot have children.
        if pattern
            .nodes
            .iter()
            .all(|n| !n.test.is_attribute() || n.children.is_empty())
        {
            return pattern;
        }
    }
}

fn corpus(seed: u64) -> Vec<Document> {
    let cfg = CorpusConfig {
        seed,
        num_documents: 12,
        target_doc_bytes: 1200,
        ..Default::default()
    };
    (0..cfg.num_documents)
        .map(|i| {
            let d = generate_document(&cfg, i);
            Document::parse_str(d.uri, &d.xml).unwrap()
        })
        .collect()
}

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
            let mut store: Box<dyn KvStore> = Box::new(DynamoDb::default());
            index_documents(store.as_mut(), &docs, s, opts);
            let out = lookup_pattern_in(
                store.as_mut(),
                SimTime::ZERO,
                Placement::root(s),
                opts,
                &pattern,
            )
            .unwrap();
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
