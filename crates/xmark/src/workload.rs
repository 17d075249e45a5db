//! The experimental query workload (paper Section 8.2).
//!
//! Ten queries over the XMark corpus, averaging ~10 pattern nodes, the
//! last three featuring value joins — mirroring the paper's workload
//! characteristics:
//!
//! | query | character |
//! |-------|-----------|
//! | q1 | point query: one item by `@id` equality (very selective) |
//! | q2 | equality + `cont`: large results |
//! | q3 | full-text `contains` + deep branch |
//! | q4 | range predicate + equality (two-step range evaluation) |
//! | q5 | branching twig over auctions |
//! | q6 | person profile twig with equality |
//! | q7 | address twig with equality (child-heavy) |
//! | q8 | value join: closed auctions ⋈ buyers |
//! | q9 | value join: watchers ⋈ open auctions |
//! | q10 | value join with selective `contains`: auctions ⋈ items |

use amada_pattern::{parse_query, Query};

/// `(name, query text)` for the ten workload queries.
pub fn workload_texts() -> Vec<(&'static str, &'static str)> {
    vec![
        // Document 6 is always a Standard-variant document (see
        // `gen::variant_for`), so the target item reliably has a child
        // `name`; corpora must have at least 7 documents.
        (
            "q1",
            "//item[/@id{=\"item-6-0\"}, /name{val}]",
        ),
        (
            "q2",
            "//item[/description{cont}, /payment{=\"Creditcard\"}]",
        ),
        (
            "q3",
            "//item[/name{contains(gold)}, //mailbox[/mail[/from{val}]]]",
        ),
        (
            "q4",
            "//open_auction[/initial{val}, //bidder[/increase{\"10\"<val<=\"50\"}], /type{=\"Regular\"}]",
        ),
        (
            "q5",
            "//open_auction[//annotation[//description[/text{cont}]], /reserve{val}]",
        ),
        (
            "q6",
            "//person[/name{val}, //profile[/business{=\"Yes\"}, /age{val}]]",
        ),
        (
            "q7",
            "//person[/name{val}, //address[/city{val}, /country{=\"United-States\"}]]",
        ),
        (
            "q8",
            "//closed_auction[/buyer[/@person{val as $p}], /price{val}]; \
             //person[/@id{val as $p}, /name{val}]",
        ),
        (
            "q9",
            "//person[/name{val}, //watches[/watch[/@open_auction{val as $a}]]]; \
             //open_auction[/@id{val as $a}, /current{val}]",
        ),
        (
            "q10",
            "//closed_auction[/itemref[/@item{val as $i}], /price{val}]; \
             //item[/@id{val as $i}, /name{contains(gold)}]",
        ),
    ]
}

/// Parses the whole workload, attaching query names.
pub fn workload() -> Vec<Query> {
    workload_texts()
        .into_iter()
        .map(|(name, text)| {
            let mut q = parse_query(text).unwrap_or_else(|e| panic!("workload {name}: {e}"));
            q.name = Some(name.to_string());
            q
        })
        .collect()
}

/// Looks a workload query up by name (`"q1"` … `"q10"`).
pub fn workload_query(name: &str) -> Option<Query> {
    workload()
        .into_iter()
        .find(|q| q.name.as_deref() == Some(name))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::{generate_corpus, CorpusConfig};
    use amada_pattern::evaluate_query_on_documents;
    use amada_xml::Document;

    #[test]
    fn all_queries_parse() {
        let qs = workload();
        assert_eq!(qs.len(), 10);
        // The last three feature value joins, the rest are single patterns.
        for q in &qs[..7] {
            assert_eq!(q.patterns.len(), 1, "{:?}", q.name);
        }
        for q in &qs[7..] {
            assert_eq!(q.patterns.len(), 2, "{:?}", q.name);
            assert_eq!(q.join_groups().len(), 1);
        }
    }

    #[test]
    fn workload_has_nontrivial_results_on_default_corpus() {
        let cfg = CorpusConfig {
            num_documents: 60,
            target_doc_bytes: 2048,
            ..Default::default()
        };
        let docs: Vec<Document> = generate_corpus(&cfg)
            .iter()
            .map(|d| Document::parse_str(&d.uri, &d.xml).unwrap())
            .collect();
        let refs: Vec<&Document> = docs.iter().collect();
        let mut nonempty = 0;
        for q in workload() {
            let (res, _) = evaluate_query_on_documents(&q, refs.iter().copied());
            if !res.is_empty() {
                nonempty += 1;
            }
        }
        // Every query should produce results at this scale (q1 targets
        // item-0-0 which always exists; joins target guaranteed id ranges).
        assert_eq!(nonempty, 10);
    }

    #[test]
    fn lookup_by_name() {
        assert!(workload_query("q4").is_some());
        assert!(workload_query("q11").is_none());
    }
}
