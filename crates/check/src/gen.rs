//! Seeded case generation: randomized corpora (xmark fragments plus
//! adversarial shapes) and randomized queries over the corpus vocabulary.
//!
//! Everything derives deterministically from `(seed, case index)`, so a
//! reproducer's seed pair regenerates the identical case.

use amada_pattern::{
    parse_query, Axis, Bound, NodeTest, Output, PatternNode, Predicate, Query, TreePattern,
};
use amada_rng::StdRng;
use amada_xmark::{generate_document, CorpusConfig};
use amada_xml::{tokenize, Document, NodeKind};

/// One churn operation, applied to the warehouse after the initial
/// corpus is uploaded and indexed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ChurnOp {
    /// (Re-)upload `uri` with `xml`: a grown, shrunk or byte-identical
    /// replacement — or a fresh document under a previously deleted URI.
    Upload { uri: String, xml: String },
    /// Delete `uri` from the warehouse.
    Delete { uri: String },
    /// Drain the loader queue (an index build) mid-sequence.
    Build,
}

/// One generated check case: a corpus, a query text (both of which
/// re-parse deterministically) and an optional churn script.
#[derive(Debug, Clone)]
pub struct Case {
    /// Master seed the case derives from.
    pub seed: u64,
    /// Case index under the seed.
    pub index: usize,
    /// `(uri, xml)` corpus documents.
    pub docs: Vec<(String, String)>,
    /// Churn script applied after the initial corpus is indexed.
    pub churn: Vec<ChurnOp>,
    /// Canonical query text (round-trips through the parser).
    pub query: String,
    /// Whether full-text word keys are extracted and used.
    pub index_words: bool,
}

/// Generates the case for `(seed, index)`.
pub fn generate_case(seed: u64, index: usize) -> Case {
    let mut rng = StdRng::seed_from_u64(
        seed ^ (index as u64)
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .wrapping_add(0xA3ADA),
    );
    let docs = gen_docs(&mut rng, index);
    let churn = gen_churn(&mut rng, &docs);
    // Queries draw from both the initial and the post-churn corpus, so
    // look-ups target retracted content as often as surviving content.
    let mut union = docs.clone();
    union.extend(final_docs(&docs, &churn));
    let vocab = Vocab::collect(&union);
    let query = gen_query(&mut rng, &vocab);
    Case {
        seed,
        index,
        docs,
        churn,
        query,
        index_words: rng.gen_bool(0.8),
    }
}

/// The corpus that survives a case's churn script: replacements applied
/// in place, deletions removed, re-adds appended.
pub fn final_docs(docs: &[(String, String)], churn: &[ChurnOp]) -> Vec<(String, String)> {
    let mut out: Vec<(String, String)> = docs.to_vec();
    for op in churn {
        match op {
            ChurnOp::Upload { uri, xml } => match out.iter_mut().find(|(u, _)| u == uri) {
                Some(slot) => slot.1 = xml.clone(),
                None => out.push((uri.clone(), xml.clone())),
            },
            ChurnOp::Delete { uri } => out.retain(|(u, _)| u != uri),
            ChurnOp::Build => {}
        }
    }
    out
}

// ---------------------------------------------------------------------------
// Corpus generation
// ---------------------------------------------------------------------------

const ELEMENT_POOL: &[&str] = &["a", "b", "c", "item", "name", "entry", "note"];
const ATTR_POOL: &[&str] = &["id", "ref", "lang"];
const TEXT_POOL: &[&str] = &[
    "",
    "alpha",
    "beta gamma",
    "Olympia 1863",
    "Žluťoučký kůň",
    "naïve café",
    "東京 大阪",
    "price 42",
    "x",
];

fn gen_docs(rng: &mut StdRng, case_index: usize) -> Vec<(String, String)> {
    let n = rng.gen_range(1..=5usize);
    (0..n)
        .map(|i| {
            let uri = format!("case{case_index}-doc{i}.xml");
            let xml = if rng.gen_bool(0.4) {
                // A real xmark fragment, at a small target size.
                let cfg = CorpusConfig {
                    seed: rng.next_u64(),
                    num_documents: 64,
                    target_doc_bytes: rng.gen_range(300..1500usize),
                };
                generate_document(&cfg, rng.gen_range(0..64usize)).xml
            } else {
                gen_adversarial(rng)
            };
            (uri, xml)
        })
        .collect()
}

/// A churn script over the generated corpus: the mutation kinds that
/// have historically hidden stale-index bugs — grown, shrunk and
/// byte-identical re-uploads, deletes, and delete-then-re-add under the
/// same URI — interleaved with mid-sequence index builds.
fn gen_churn(rng: &mut StdRng, docs: &[(String, String)]) -> Vec<ChurnOp> {
    if rng.gen_bool(0.5) {
        return Vec::new();
    }
    let mut ops = Vec::new();
    for _ in 0..rng.gen_range(1..=3usize) {
        let (uri, xml) = rng.choose(docs).clone();
        match rng.gen_range(0..5u32) {
            // Grown: the old content survives under a new root, plus new
            // keys — retraction must remove nothing that still exists.
            0 => ops.push(ChurnOp::Upload {
                uri,
                xml: format!("<r>{xml}<grown><name>beta gamma</name></grown></r>"),
            }),
            // Shrunk: almost every old key goes stale at once.
            1 => ops.push(ChurnOp::Upload {
                uri,
                xml: "<item><name>alpha</name></item>".to_string(),
            }),
            // Byte-identical: a replace that must retract nothing.
            2 => ops.push(ChurnOp::Upload { uri, xml }),
            3 => ops.push(ChurnOp::Delete { uri }),
            // Delete, then re-add different content under the same URI —
            // sometimes with a build (and its retraction) in between.
            _ => {
                ops.push(ChurnOp::Delete { uri: uri.clone() });
                if rng.gen_bool(0.5) {
                    ops.push(ChurnOp::Build);
                }
                let xml = gen_adversarial(rng);
                ops.push(ChurnOp::Upload { uri, xml });
            }
        }
        if rng.gen_bool(0.3) {
            ops.push(ChurnOp::Build);
        }
    }
    ops
}

/// An adversarial document: deep recursion, repeated labels, empty / huge
/// text, unicode words — the shapes the xmark workload never exercises.
fn gen_adversarial(rng: &mut StdRng) -> String {
    let mut xml = String::new();
    match rng.gen_range(0..3u32) {
        // A deep chain of (often repeated) labels.
        0 => {
            let depth = rng.gen_range(8..=28usize);
            let labels: Vec<&str> = (0..depth)
                .map(|_| {
                    if rng.gen_bool(0.6) {
                        ELEMENT_POOL[0]
                    } else {
                        *rng.choose(ELEMENT_POOL)
                    }
                })
                .collect();
            for l in &labels {
                xml.push('<');
                xml.push_str(l);
                xml.push('>');
            }
            xml.push_str(gen_text(rng).as_str());
            for l in labels.iter().rev() {
                xml.push_str("</");
                xml.push_str(l);
                xml.push('>');
            }
        }
        // A bushy tree with repeated sibling labels and attributes.
        1 => {
            let max_depth = rng.gen_range(2..=4usize);
            gen_elem(rng, max_depth, &mut xml);
        }
        // Text-focused: shallow, with empty / huge / unicode values.
        _ => {
            xml.push_str("<entry>");
            for _ in 0..rng.gen_range(1..=6usize) {
                let label = *rng.choose(ELEMENT_POOL);
                xml.push('<');
                xml.push_str(label);
                if rng.gen_bool(0.3) {
                    xml.push_str(&format!(" {}=\"{}\"", rng.choose(ATTR_POOL), gen_attr(rng)));
                }
                xml.push('>');
                xml.push_str(gen_text(rng).as_str());
                xml.push_str("</");
                xml.push_str(label);
                xml.push('>');
            }
            xml.push_str("</entry>");
        }
    }
    xml
}

fn gen_elem(rng: &mut StdRng, depth: usize, out: &mut String) {
    let label = *rng.choose(ELEMENT_POOL);
    out.push('<');
    out.push_str(label);
    for a in ATTR_POOL {
        if rng.gen_bool(0.25) {
            out.push_str(&format!(" {a}=\"{}\"", gen_attr(rng)));
        }
    }
    out.push('>');
    if depth == 0 {
        out.push_str(gen_text(rng).as_str());
    } else {
        for _ in 0..rng.gen_range(1..=4usize) {
            if rng.gen_bool(0.2) {
                out.push_str(gen_text(rng).as_str());
            } else {
                gen_elem(rng, depth - 1, out);
            }
        }
    }
    out.push_str("</");
    out.push_str(label);
    out.push('>');
}

fn gen_text(rng: &mut StdRng) -> String {
    if rng.gen_bool(0.08) {
        // Huge text: overflows the SimpleDB value cap and the 512-byte
        // key-value truncation when used as an equality constant.
        let unit = *rng.choose(&["lorem ipsum dolor ", "kůň 東京 "]);
        unit.repeat(rng.gen_range(40..160usize))
    } else {
        (*rng.choose(TEXT_POOL)).to_string()
    }
}

fn gen_attr(rng: &mut StdRng) -> String {
    if rng.gen_bool(0.1) {
        format!("v{}", "x".repeat(rng.gen_range(500..700usize)))
    } else {
        (*rng.choose(&["1863-1", "r7", "en", "naïve", "42", "y-2"])).to_string()
    }
}

// ---------------------------------------------------------------------------
// Vocabulary: what the corpus actually contains
// ---------------------------------------------------------------------------

/// Labels and values harvested from the generated corpus, from which
/// queries draw so look-ups actually hit.
struct Vocab {
    elements: Vec<String>,
    attributes: Vec<String>,
    attr_values: Vec<String>,
    texts: Vec<String>,
    words: Vec<String>,
}

/// Characters that would need escaping inside the query grammar's quoted
/// strings; constants containing them are simply not drawn.
fn safe_const(s: &str) -> bool {
    !s.is_empty()
        && s.len() <= 48
        && !s
            .chars()
            .any(|c| c.is_control() || matches!(c, '"' | '{' | '}' | '[' | ']' | '$' | ';' | ','))
}

fn safe_label(s: &str) -> bool {
    !s.is_empty()
        && s.chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '-'))
}

impl Vocab {
    fn collect(docs: &[(String, String)]) -> Vocab {
        let mut v = Vocab {
            elements: Vec::new(),
            attributes: Vec::new(),
            attr_values: Vec::new(),
            texts: Vec::new(),
            words: Vec::new(),
        };
        for (uri, xml) in docs {
            let doc = Document::parse_str(uri.clone(), xml).expect("generated XML must parse");
            for id in doc.all_nodes() {
                match doc.kind(id) {
                    NodeKind::Element => {
                        if let Some(n) = doc.name(id) {
                            if safe_label(n) {
                                push_capped(&mut v.elements, n.to_string(), 64);
                            }
                        }
                    }
                    NodeKind::Attribute => {
                        if let Some(n) = doc.name(id) {
                            if safe_label(n) {
                                push_capped(&mut v.attributes, n.to_string(), 16);
                            }
                        }
                        if let Some(val) = doc.value(id) {
                            if safe_const(val) {
                                push_capped(&mut v.attr_values, val.to_string(), 32);
                            }
                        }
                    }
                    NodeKind::Text => {
                        if let Some(val) = doc.value(id) {
                            if safe_const(val) {
                                push_capped(&mut v.texts, val.to_string(), 32);
                            }
                            for w in tokenize(val).into_iter().take(4) {
                                if safe_const(&w) {
                                    push_capped(&mut v.words, w, 48);
                                }
                            }
                        }
                    }
                }
            }
        }
        if v.elements.is_empty() {
            v.elements.push("a".to_string());
        }
        v
    }
}

fn push_capped(v: &mut Vec<String>, s: String, cap: usize) {
    if v.len() < cap && !v.contains(&s) {
        v.push(s);
    }
}

// ---------------------------------------------------------------------------
// Query generation
// ---------------------------------------------------------------------------

/// Labels deliberately absent from the corpus: empty look-ups must also
/// agree across strategies.
const PHANTOM_LABELS: &[&str] = &["zzz", "phantom", "nosuch"];

fn gen_query(rng: &mut StdRng, vocab: &Vocab) -> String {
    let npatterns = if rng.gen_bool(0.2) { 2 } else { 1 };
    let mut patterns: Vec<TreePattern> = (0..npatterns).map(|_| gen_pattern(rng, vocab)).collect();
    if npatterns == 2 {
        // Tie the patterns with a value join (the paper's dashed lines).
        for p in patterns.iter_mut() {
            let site = rng.gen_range(0..p.nodes.len());
            p.nodes[site].outputs.push(Output::Val {
                join_var: Some("j".to_string()),
            });
        }
    } else if rng.gen_bool(0.1) {
        // A within-pattern repeated variable is an equality constraint.
        let p = &mut patterns[0];
        if p.nodes.len() >= 2 {
            for site in [0, p.nodes.len() - 1] {
                p.nodes[site].outputs.push(Output::Val {
                    join_var: Some("s".to_string()),
                });
            }
        }
    }
    let query = Query {
        patterns,
        name: None,
    };
    let text = query.to_string();
    // The canonical text must re-parse; a failure here is a generator (or
    // parser round-trip) bug and aborts the run loudly.
    match parse_query(&text) {
        Ok(_) => text,
        Err(e) => panic!("generated query does not re-parse: {text}\n  {e:?}"),
    }
}

fn pick_element(rng: &mut StdRng, vocab: &Vocab) -> String {
    if rng.gen_bool(0.88) {
        rng.choose(&vocab.elements).clone()
    } else {
        (*rng.choose(PHANTOM_LABELS)).to_string()
    }
}

fn gen_pattern(rng: &mut StdRng, vocab: &Vocab) -> TreePattern {
    let n = rng.gen_range(1..=5usize);
    let root_axis = if rng.gen_bool(0.75) {
        Axis::Descendant
    } else {
        Axis::Child
    };
    let mut nodes = vec![PatternNode {
        test: NodeTest::Element(pick_element(rng, vocab)),
        axis: root_axis,
        parent: None,
        children: Vec::new(),
        outputs: Vec::new(),
        predicate: None,
    }];
    for _ in 1..n {
        let parents: Vec<usize> = (0..nodes.len())
            .filter(|&i| !nodes[i].test.is_attribute())
            .collect();
        let parent = *rng.choose(&parents);
        let as_attribute = rng.gen_bool(0.2) && !vocab.attributes.is_empty();
        let (test, axis) = if as_attribute {
            (
                NodeTest::Attribute(rng.choose(&vocab.attributes).clone()),
                Axis::Child,
            )
        } else {
            (
                NodeTest::Element(pick_element(rng, vocab)),
                if rng.gen_bool(0.5) {
                    Axis::Child
                } else {
                    Axis::Descendant
                },
            )
        };
        let idx = nodes.len();
        nodes[parent].children.push(idx);
        nodes.push(PatternNode {
            test,
            axis,
            parent: Some(parent),
            children: Vec::new(),
            outputs: Vec::new(),
            predicate: None,
        });
    }
    for node in nodes.iter_mut() {
        let is_attr = node.test.is_attribute();
        if rng.gen_bool(0.35) {
            node.predicate = Some(gen_predicate(rng, vocab, is_attr));
        }
        if rng.gen_bool(0.3) {
            node.outputs.push(Output::Val { join_var: None });
        }
        if rng.gen_bool(0.08) && !is_attr {
            node.outputs.push(Output::Cont);
        }
    }
    TreePattern { nodes }
}

fn gen_predicate(rng: &mut StdRng, vocab: &Vocab, is_attribute: bool) -> Predicate {
    let pick = |rng: &mut StdRng, pool: &[String], fallback: &str| -> String {
        if pool.is_empty() {
            fallback.to_string()
        } else {
            rng.choose(pool).clone()
        }
    };
    if is_attribute {
        if rng.gen_bool(0.7) {
            Predicate::Eq(pick(rng, &vocab.attr_values, "1863-1"))
        } else {
            gen_range(rng, &vocab.attr_values)
        }
    } else {
        match rng.gen_range(0..3u32) {
            0 => Predicate::Eq(pick(rng, &vocab.texts, "alpha")),
            1 => Predicate::Contains(pick(rng, &vocab.words, "alpha")),
            _ => gen_range(rng, &vocab.texts),
        }
    }
}

fn gen_range(rng: &mut StdRng, pool: &[String]) -> Predicate {
    let bound = |rng: &mut StdRng, pool: &[String]| -> Bound {
        let value = if !pool.is_empty() && rng.gen_bool(0.7) {
            rng.choose(pool).clone()
        } else {
            format!("{}", rng.gen_range(0..2000u32))
        };
        Bound {
            value,
            inclusive: rng.gen_bool(0.5),
        }
    };
    // At least one bound, or the annotation would render as a bare `val`.
    match rng.gen_range(0..3u32) {
        0 => Predicate::Range {
            lo: Some(bound(rng, pool)),
            hi: None,
        },
        1 => Predicate::Range {
            lo: None,
            hi: Some(bound(rng, pool)),
        },
        _ => Predicate::Range {
            lo: Some(bound(rng, pool)),
            hi: Some(bound(rng, pool)),
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_deterministic() {
        for index in [0, 7, 31] {
            let a = generate_case(42, index);
            let b = generate_case(42, index);
            assert_eq!(a.docs, b.docs);
            assert_eq!(a.churn, b.churn);
            assert_eq!(a.query, b.query);
            assert_eq!(a.index_words, b.index_words);
        }
    }

    #[test]
    fn cases_vary_across_indices_and_seeds() {
        let a = generate_case(42, 0);
        let b = generate_case(42, 1);
        let c = generate_case(43, 0);
        assert!(a.query != b.query || a.docs != b.docs);
        assert!(a.query != c.query || a.docs != c.docs);
    }

    #[test]
    fn generated_documents_parse_and_queries_round_trip() {
        for index in 0..40 {
            let case = generate_case(7, index);
            for (uri, xml) in &case.docs {
                Document::parse_str(uri.clone(), xml).expect("doc must parse");
            }
            let q = parse_query(&case.query).expect("query must parse");
            assert_eq!(q.to_string(), case.query, "display must round-trip");
        }
    }

    #[test]
    fn churn_scripts_cover_every_mutation_kind_and_stay_parseable() {
        let (mut uploads, mut deletes, mut builds, mut identical) = (0, 0, 0, 0);
        for index in 0..60 {
            let case = generate_case(11, index);
            for op in &case.churn {
                match op {
                    ChurnOp::Upload { uri, xml } => {
                        uploads += 1;
                        if case.docs.iter().any(|(u, x)| u == uri && x == xml) {
                            identical += 1;
                        }
                        Document::parse_str(uri.clone(), xml).expect("churn XML must parse");
                    }
                    ChurnOp::Delete { .. } => deletes += 1,
                    ChurnOp::Build => builds += 1,
                }
            }
            for (uri, xml) in final_docs(&case.docs, &case.churn) {
                Document::parse_str(uri, &xml).expect("final corpus must parse");
            }
        }
        assert!(uploads > 0 && deletes > 0 && builds > 0 && identical > 0);
    }

    #[test]
    fn final_docs_replays_replace_delete_and_readd() {
        let docs = vec![
            ("a.xml".to_string(), "<a/>".to_string()),
            ("b.xml".to_string(), "<b/>".to_string()),
        ];
        let churn = vec![
            ChurnOp::Upload {
                uri: "a.xml".into(),
                xml: "<a2/>".into(),
            },
            ChurnOp::Delete {
                uri: "b.xml".into(),
            },
            ChurnOp::Build,
            ChurnOp::Upload {
                uri: "b.xml".into(),
                xml: "<b2/>".into(),
            },
        ];
        assert_eq!(
            final_docs(&docs, &churn),
            vec![
                ("a.xml".to_string(), "<a2/>".to_string()),
                ("b.xml".to_string(), "<b2/>".to_string()),
            ]
        );
    }
}
