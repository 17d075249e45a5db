//! The paper's running example corpus: paintings and museums (Figures 2–3).
//!
//! [`delacroix_xml`] and [`manet_xml`] are the exact two documents of the
//! paper's Figure 3; [`generate_gallery`] scales the same schema up into a
//! small corpus of painting and museum documents suitable for the example
//! binaries and for tests of the paper's five sample queries (Figure 2).

use amada_rng::StdRng;

/// `delacroix.xml` from the paper's Figure 3.
pub fn delacroix_xml() -> &'static str {
    "<painting id=\"1854-1\"><name>The Lion Hunt</name>\
     <painter><name><first>Eugene</first><last>Delacroix</last></name></painter></painting>"
}

/// `manet.xml` from the paper's Figure 3.
pub fn manet_xml() -> &'static str {
    "<painting id=\"1863-1\"><name>Olympia</name>\
     <painter><name><first>Edouard</first><last>Manet</last></name></painter></painting>"
}

const PAINTERS: &[(&str, &str)] = &[
    ("Eugene", "Delacroix"),
    ("Edouard", "Manet"),
    ("Claude", "Monet"),
    ("Berthe", "Morisot"),
    ("Gustave", "Courbet"),
    ("Camille", "Pissarro"),
];

const SUBJECTS: &[&str] = &[
    "Lion",
    "Hunt",
    "Olympia",
    "Garden",
    "Harbor",
    "Cathedral",
    "Storm",
    "Dancer",
];

const MUSEUMS: &[&str] = &["Louvre", "Orsay", "Prado", "Uffizi", "Hermitage"];

/// A painting or museum document.
#[derive(Debug, Clone)]
pub struct GalleryDoc {
    /// Object name, e.g. `painting-0007.xml` or `museum-02.xml`.
    pub uri: String,
    /// XML text.
    pub xml: String,
}

/// Generates `n_paintings` painting documents plus `n_museums` museum
/// documents referencing them by `@id` (the shape joined by the paper's
/// q5). Deterministic in `seed`.
pub fn generate_gallery(seed: u64, n_paintings: usize, n_museums: usize) -> Vec<GalleryDoc> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut docs = Vec::with_capacity(n_paintings + n_museums);
    let mut ids = Vec::with_capacity(n_paintings);
    for i in 0..n_paintings {
        let (first, last) = PAINTERS[rng.gen_range(0..PAINTERS.len())];
        let year = rng.gen_range(1830..1900);
        let id = format!("{year}-{i}");
        let subject = SUBJECTS[rng.gen_range(0..SUBJECTS.len())];
        let subject2 = SUBJECTS[rng.gen_range(0..SUBJECTS.len())];
        let xml = format!(
            "<painting id=\"{id}\"><name>The {subject} {subject2}</name>\
             <year>{year}</year>\
             <description>A study of the {subject} painted by {first} {last}</description>\
             <painter><name><first>{first}</first><last>{last}</last></name></painter></painting>"
        );
        ids.push(id.clone());
        docs.push(GalleryDoc {
            uri: format!("painting-{i:04}.xml"),
            xml,
        });
    }
    for m in 0..n_museums {
        let name = MUSEUMS[m % MUSEUMS.len()];
        let mut xml = format!("<museum><name>{name}</name>");
        let count = rng.gen_range(2..=5usize).min(ids.len());
        for _ in 0..count {
            let id = &ids[rng.gen_range(0..ids.len())];
            xml.push_str(&format!("<painting id=\"{id}\"/>"));
        }
        xml.push_str("</museum>");
        docs.push(GalleryDoc {
            uri: format!("museum-{m:02}.xml"),
            xml,
        });
    }
    docs
}

/// The paper's five example queries (Figure 2), in this crate's textual
/// syntax, as `(name, query text)` pairs.
pub fn figure2_queries() -> Vec<(&'static str, &'static str)> {
    vec![
        // q1: (painting name, painter name) for each painting.
        ("q1", "//painting[/name{val}, //painter[/name{val}]]"),
        // q2: descriptions of paintings from 1854.
        ("q2", "//painting[//description{cont}, /year{=1854}]"),
        // q3: last name of painters of paintings whose name contains "Lion".
        (
            "q3",
            "//painting[/name{contains(Lion)}, //painter[/name[/last{val}]]]",
        ),
        // q4: names of paintings by Manet created in (1854, 1865].
        (
            "q4",
            "//painting[/name{val}, //painter[/name[/last{=Manet}]], /year{1854<val<=1865}]",
        ),
        // q5: names of museums exposing paintings by Delacroix.
        (
            "q5",
            "//museum[/name{val}, //painting[/@id{val as $p}]]; \
             //painting[/@id{val as $p}, //painter[/name[/last{=Delacroix}]]]",
        ),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use amada_pattern::{evaluate_query_on_documents, parse_query};
    use amada_xml::Document;

    #[test]
    fn figure3_documents_parse_to_paper_ids() {
        let d = Document::parse_str("delacroix.xml", delacroix_xml()).unwrap();
        assert_eq!(d.sid(d.elements_named("name")[0]).pre, 3);
        let m = Document::parse_str("manet.xml", manet_xml()).unwrap();
        assert_eq!(m.attribute(m.root(), "id"), Some("1863-1"));
    }

    #[test]
    fn gallery_parses_and_queries_run() {
        let docs = generate_gallery(1, 30, 3);
        let parsed: Vec<Document> = docs
            .iter()
            .map(|d| Document::parse_str(&d.uri, &d.xml).unwrap())
            .collect();
        for (name, text) in figure2_queries() {
            let q = parse_query(text).unwrap_or_else(|e| panic!("{name}: {e}"));
            let refs: Vec<&Document> = parsed.iter().collect();
            let (res, _) = evaluate_query_on_documents(&q, refs.iter().copied());
            // q1 matches every painting; others may be empty depending on
            // the draw, but must at least evaluate.
            if name == "q1" {
                assert_eq!(res.len(), 30);
            }
        }
    }

    #[test]
    fn q5_join_produces_museum_names() {
        let docs = generate_gallery(2, 40, 5);
        let parsed: Vec<Document> = docs
            .iter()
            .map(|d| Document::parse_str(&d.uri, &d.xml).unwrap())
            .collect();
        let q = parse_query(figure2_queries()[4].1).unwrap();
        let refs: Vec<&Document> = parsed.iter().collect();
        let (res, _) = evaluate_query_on_documents(&q, refs.iter().copied());
        // With 40 paintings over 6 painters and 5 museums × up-to-5
        // paintings each, at least one museum exposes a Delacroix.
        assert!(!res.is_empty());
        for t in &res {
            assert!(MUSEUMS.contains(&&*t.columns[0]));
        }
    }
}
