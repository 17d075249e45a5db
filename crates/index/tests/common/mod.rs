//! Random patterns over the XMark vocabulary and small random XMark
//! corpora, shared by the look-up property tests.

use amada_pattern::ast::{Axis, NodeTest, Output, PatternNode, Predicate, TreePattern};
use amada_rng::StdRng;
use amada_xmark::{generate_document, CorpusConfig};
use amada_xml::Document;

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
pub fn gen_pattern(rng: &mut StdRng) -> TreePattern {
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

pub fn corpus(seed: u64) -> Vec<Document> {
    let cfg = CorpusConfig {
        seed,
        num_documents: 12,
        target_doc_bytes: 1200,
    };
    (0..cfg.num_documents)
        .map(|i| {
            let d = generate_document(&cfg, i);
            Document::parse_str(d.uri, &d.xml).unwrap()
        })
        .collect()
}
