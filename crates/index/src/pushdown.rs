//! Computation pushdown to storage (the S3-Select analog; beyond the
//! paper).
//!
//! LUP narrows a pattern's candidates through the index and then GETs
//! every candidate document to EC2, paying transfer and parse/eval
//! compute for bytes the post-filter mostly discards. [`ScanPredicate`]
//! moves that post-filter *into the storage tier*: it is a tree pattern
//! compiled into a self-contained, wire-serializable predicate that the
//! simulated store evaluates server-side
//! ([`amada_cloud::ObjectPredicate`]), shipping back only the matching
//! tuples. The storage bill trades a per-GB *scanned* charge for egress
//! on the *filtered* bytes only — cheap when the predicate is selective,
//! expensive when almost everything matches (PushdownDB's crossover).
//!
//! ## Wire format
//!
//! The predicate travels as the pattern's textual form (the same grammar
//! `parse_pattern` reads — every generated and workload query is already
//! Display/parse round-trippable, pinned by `repro check`). The scan
//! *result* is a length-prefixed tuple encoding ([`encode_tuples`] /
//! [`decode_tuples`]); an empty result is zero bytes, so fully filtered
//! documents cost no egress at all.
//!
//! ## Semantics
//!
//! The storage tier evaluates the *whole* pattern — structure and value
//! predicates, including the range predicates the index cannot resolve
//! (Section 5.5's two-step evaluation). The candidate list from the LUP
//! lookup is thus only an optimization; scanning a non-matching document
//! returns zero tuples, never a wrong one.

use amada_cloud::ObjectPredicate;
use amada_pattern::{evaluate_pattern_twig, parse_pattern_component, TreePattern, Tuple};
use amada_xml::Document;
use std::sync::Arc;

/// A tree pattern compiled for server-side evaluation by the store.
#[derive(Debug, Clone)]
pub struct ScanPredicate {
    pattern: TreePattern,
    wire: String,
}

impl ScanPredicate {
    /// Compiles a pattern into a pushdown predicate. The wire form is the
    /// pattern's textual rendering; compiling asserts it round-trips, so a
    /// predicate that reaches the store always re-parses. Patterns are
    /// parsed as query *components*: a join variable bound once here may
    /// have its partner sites in sibling patterns of the enclosing query.
    pub fn compile(pattern: &TreePattern) -> ScanPredicate {
        let wire = pattern.to_string();
        let reparsed = parse_pattern_component(&wire)
            .unwrap_or_else(|e| panic!("pattern does not round-trip ({e}): {wire}"));
        ScanPredicate {
            pattern: reparsed,
            wire,
        }
    }

    /// Reconstructs a predicate from its wire form (what the storage tier
    /// would do with a received scan request).
    pub fn from_wire(wire: &str) -> Result<ScanPredicate, String> {
        let pattern = parse_pattern_component(wire).map_err(|e| e.to_string())?;
        Ok(ScanPredicate {
            pattern,
            wire: wire.to_string(),
        })
    }

    /// The serialized predicate as it travels to the store.
    pub fn wire(&self) -> &str {
        &self.wire
    }

    /// The compiled pattern.
    pub fn pattern(&self) -> &TreePattern {
        &self.pattern
    }
}

impl ObjectPredicate for ScanPredicate {
    /// Parses the object as XML, evaluates the pattern with the holistic
    /// twig join, and returns the encoded matching tuples — empty (zero
    /// bytes) when nothing matches or the object is not well-formed XML.
    fn filter(&self, bytes: &[u8]) -> Vec<u8> {
        let Ok(text) = std::str::from_utf8(bytes) else {
            return Vec::new();
        };
        // The store does not know the client-side URI; tuples travel
        // URI-less and the caller reattaches it in `decode_tuples`.
        let Ok(doc) = Document::parse_str("", text) else {
            return Vec::new();
        };
        let (tuples, _) = evaluate_pattern_twig(&doc, &self.pattern);
        encode_tuples(&tuples)
    }
}

fn put_str(out: &mut Vec<u8>, s: &str) {
    out.extend_from_slice(&(s.len() as u32).to_le_bytes());
    out.extend_from_slice(s.as_bytes());
}

/// Encodes tuples as scan result bytes: a `u32` tuple count, then per
/// tuple the length-prefixed columns and `(var, value)` join bindings.
/// No tuples encode to *zero* bytes (so an unmatched document pays no
/// egress).
pub fn encode_tuples(tuples: &[Tuple]) -> Vec<u8> {
    if tuples.is_empty() {
        return Vec::new();
    }
    let mut out = Vec::new();
    out.extend_from_slice(&(tuples.len() as u32).to_le_bytes());
    for t in tuples {
        out.extend_from_slice(&(t.columns.len() as u32).to_le_bytes());
        for c in &t.columns {
            put_str(&mut out, c);
        }
        out.extend_from_slice(&(t.joins.len() as u32).to_le_bytes());
        for (var, val) in &t.joins {
            put_str(&mut out, var);
            put_str(&mut out, val);
        }
    }
    out
}

struct Cursor<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn u32(&mut self) -> Option<u32> {
        let end = self.pos.checked_add(4)?;
        let raw = self.bytes.get(self.pos..end)?;
        self.pos = end;
        Some(u32::from_le_bytes(raw.try_into().expect("4-byte slice")))
    }

    fn str(&mut self) -> Option<&'a str> {
        let len = self.u32()? as usize;
        let end = self.pos.checked_add(len)?;
        let raw = self.bytes.get(self.pos..end)?;
        self.pos = end;
        std::str::from_utf8(raw).ok()
    }
}

/// Decodes scan result bytes back into tuples, stamping each with `uri`
/// (the object the caller scanned) and the digest a tuple made there would
/// carry. `None` on malformed input — a store bug, never a query answer.
pub fn decode_tuples(bytes: &[u8], uri: &str) -> Option<Vec<Tuple>> {
    if bytes.is_empty() {
        return Some(Vec::new());
    }
    let uri: Arc<str> = uri.into();
    let mut c = Cursor { bytes, pos: 0 };
    let count = c.u32()?;
    let mut tuples = Vec::with_capacity(count as usize);
    for _ in 0..count {
        let n_cols = c.u32()?;
        let mut columns = Vec::with_capacity(n_cols as usize);
        for _ in 0..n_cols {
            columns.push(c.str()?.into());
        }
        let n_joins = c.u32()?;
        let mut joins = Vec::with_capacity(n_joins as usize);
        for _ in 0..n_joins {
            let var = c.str()?.to_string();
            let val = c.str()?.to_string();
            joins.push((var, val));
        }
        tuples.push(Tuple::new(uri.clone(), columns, joins));
    }
    (c.pos == bytes.len()).then_some(tuples)
}

#[cfg(test)]
mod tests {
    use super::*;
    use amada_pattern::parse_pattern;

    const DOC: &str = "<museum><painting id=\"1854-1\"><name>The Lion Hunt</name>\
        <year>1854</year></painting><painting id=\"1888-2\"><name>Sunflowers</name>\
        <year>1888</year></painting></museum>";

    fn tuples_via_scan(pattern_text: &str, xml: &str, uri: &str) -> Vec<Tuple> {
        let pattern = parse_pattern(pattern_text).unwrap();
        let pred = ScanPredicate::compile(&pattern);
        decode_tuples(&pred.filter(xml.as_bytes()), uri).expect("well-formed result")
    }

    #[test]
    fn scan_result_equals_local_twig_evaluation() {
        let pattern = parse_pattern("//painting[/name{val}, /year{=\"1854\"}]").unwrap();
        let doc = Document::parse_str("m.xml", DOC).unwrap();
        let (expected, _) = evaluate_pattern_twig(&doc, &pattern);
        assert!(!expected.is_empty());
        let got = tuples_via_scan("//painting[/name{val}, /year{=\"1854\"}]", DOC, "m.xml");
        assert_eq!(got, expected);
    }

    #[test]
    fn wire_round_trip_preserves_semantics() {
        let pattern =
            parse_pattern_component("//painting[/@id{val as $p}, /year{\"1854\"<=val<\"1889\"}]")
                .unwrap();
        let compiled = ScanPredicate::compile(&pattern);
        let rebuilt = ScanPredicate::from_wire(compiled.wire()).unwrap();
        let a = compiled.filter(DOC.as_bytes());
        let b = rebuilt.filter(DOC.as_bytes());
        assert_eq!(a, b);
        assert!(!a.is_empty());
        // Join bindings survive the result encoding.
        let tuples = decode_tuples(&a, "m.xml").unwrap();
        assert!(tuples.iter().all(
            |t| t.joins.iter().any(|(v, _)| v == "p") || t.joins.iter().any(|(v, _)| v == "$p")
        ));
    }

    #[test]
    fn unmatched_documents_return_zero_bytes() {
        let pattern = parse_pattern("//sculpture{val}").unwrap();
        let pred = ScanPredicate::compile(&pattern);
        assert!(pred.filter(DOC.as_bytes()).is_empty());
        assert_eq!(decode_tuples(&[], "m.xml"), Some(Vec::new()));
    }

    #[test]
    fn malformed_objects_match_nothing() {
        let pred = ScanPredicate::compile(&parse_pattern("//painting{val}").unwrap());
        assert!(pred.filter(b"<unclosed>").is_empty());
        assert!(pred.filter(&[0xFF, 0xFE, 0x00]).is_empty());
    }

    #[test]
    fn truncated_results_are_rejected_not_misread() {
        let full = tuples_via_scan("//painting[/name{val}]", DOC, "m.xml");
        assert_eq!(full.len(), 2);
        let encoded = encode_tuples(&full);
        for cut in 1..encoded.len() {
            assert_eq!(decode_tuples(&encoded[..cut], "m.xml"), None, "cut {cut}");
        }
        // And trailing garbage is rejected too.
        let mut padded = encoded.clone();
        padded.push(0);
        assert_eq!(decode_tuples(&padded, "m.xml"), None);
    }

    #[test]
    fn selective_predicates_shrink_the_returned_bytes() {
        let all = ScanPredicate::compile(&parse_pattern("//painting[/name{cont}]").unwrap());
        let one = ScanPredicate::compile(
            &parse_pattern("//painting[/name{cont}, /year{=\"1854\"}]").unwrap(),
        );
        let broad = all.filter(DOC.as_bytes());
        let narrow = one.filter(DOC.as_bytes());
        assert!(!narrow.is_empty());
        assert!(narrow.len() < broad.len());
        assert!(broad.len() < DOC.len() * 2, "results stay result-sized");
    }
}
