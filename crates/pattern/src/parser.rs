//! Textual syntax for tree-pattern queries.
//!
//! The paper draws patterns graphically (Figure 2); this crate gives them a
//! concrete grammar:
//!
//! ```text
//! query    := pattern ( ";" pattern )* ";"?
//! pattern  := step
//! step     := axis test anns? children?
//! axis     := "//" | "/"
//! test     := NAME | "@" NAME
//! anns     := "{" ann ("," ann)* "}"
//! children := "[" step ("," step)* "]"
//! ann      := "val" ( "as" "$" IDENT )?
//!           | "cont"
//!           | "=" value
//!           | "contains" "(" value ")"
//!           | value REL "val" ( REL value )?     // range, e.g. 1854<val<=1865
//!           | "val" REL value                    // upper-bounded range
//! REL      := "<" | "<="
//! value    := '"' … '"' | bare token ([A-Za-z0-9_.:-]+)
//! ```
//!
//! The paper's q4 (paintings by Manet created in (1854, 1865]) reads:
//!
//! ```text
//! //painting[/name{val}, //painter[/name[/last{="Manet"}]], /year{1854<val<=1865}]
//! ```
//!
//! and its q5 (museums exposing paintings by Delacroix), a value join of two
//! patterns, reads:
//!
//! ```text
//! //museum[/name{val}, //painting[/@id{val as $p}]];
//! //painting[/@id{val as $p}, //painter[/name[/last{="Delacroix"}]]]
//! ```

use crate::ast::{Axis, Bound, NodeTest, Output, PatternNode, Predicate, Query, TreePattern};
use std::fmt;

/// A query-text parse error.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// Description of the problem.
    pub msg: String,
    /// Byte offset in the query text.
    pub offset: usize,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "query parse error at byte {}: {}", self.offset, self.msg)
    }
}

impl std::error::Error for ParseError {}

/// Parses a full (possibly multi-pattern) query.
pub fn parse_query(text: &str) -> Result<Query, ParseError> {
    let mut p = P {
        s: text.as_bytes(),
        pos: 0,
    };
    let mut patterns = Vec::new();
    loop {
        p.ws();
        if p.eof() {
            break;
        }
        patterns.push(p.pattern()?);
        p.ws();
        if p.eat(b';') {
            continue;
        }
        if !p.eof() {
            return Err(p.error("expected ';' between patterns or end of input"));
        }
    }
    if patterns.is_empty() {
        return Err(ParseError {
            msg: "empty query".into(),
            offset: 0,
        });
    }
    let q = Query {
        patterns,
        name: None,
    };
    validate(&q)?;
    Ok(q)
}

/// Parses a single tree pattern.
pub fn parse_pattern(text: &str) -> Result<TreePattern, ParseError> {
    let q = parse_query(text)?;
    if q.patterns.len() != 1 {
        return Err(ParseError {
            msg: "expected a single pattern".into(),
            offset: 0,
        });
    }
    Ok(q.patterns.into_iter().next().expect("checked length"))
}

fn validate(q: &Query) -> Result<(), ParseError> {
    // Join variables must appear at least twice; attribute pattern nodes
    // cannot have children.
    for g in q.join_groups() {
        if g.sites.len() < 2 {
            return Err(ParseError {
                msg: format!("join variable ${} is used only once", g.var),
                offset: 0,
            });
        }
    }
    for p in &q.patterns {
        for n in &p.nodes {
            if n.test.is_attribute() && !n.children.is_empty() {
                return Err(ParseError {
                    msg: format!("attribute node @{} cannot have children", n.test.label()),
                    offset: 0,
                });
            }
        }
    }
    Ok(())
}

struct P<'a> {
    s: &'a [u8],
    pos: usize,
}

impl<'a> P<'a> {
    fn eof(&self) -> bool {
        self.pos >= self.s.len()
    }

    fn peek(&self) -> Option<u8> {
        self.s.get(self.pos).copied()
    }

    fn ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\r' | b'\n')) {
            self.pos += 1;
        }
    }

    fn eat(&mut self, b: u8) -> bool {
        if self.peek() == Some(b) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn eat_str(&mut self, t: &str) -> bool {
        if self.s[self.pos..].starts_with(t.as_bytes()) {
            self.pos += t.len();
            true
        } else {
            false
        }
    }

    fn error(&self, msg: &str) -> ParseError {
        ParseError {
            msg: msg.to_string(),
            offset: self.pos,
        }
    }

    fn pattern(&mut self) -> Result<TreePattern, ParseError> {
        let mut nodes = Vec::new();
        self.step(None, &mut nodes)?;
        Ok(TreePattern { nodes })
    }

    fn step(
        &mut self,
        parent: Option<usize>,
        nodes: &mut Vec<PatternNode>,
    ) -> Result<usize, ParseError> {
        self.ws();
        let axis = if self.eat_str("//") {
            Axis::Descendant
        } else if self.eat(b'/') {
            Axis::Child
        } else {
            return Err(self.error("expected '/' or '//'"));
        };
        self.ws();
        let is_attr = self.eat(b'@');
        let name = self.name()?;
        let test = if is_attr {
            NodeTest::Attribute(name)
        } else {
            NodeTest::Element(name)
        };
        let idx = nodes.len();
        nodes.push(PatternNode {
            test,
            axis,
            parent,
            children: Vec::new(),
            outputs: Vec::new(),
            predicate: None,
        });
        self.ws();
        if self.eat(b'{') {
            loop {
                self.annotation(idx, nodes)?;
                self.ws();
                if self.eat(b',') {
                    continue;
                }
                if self.eat(b'}') {
                    break;
                }
                return Err(self.error("expected ',' or '}' in annotations"));
            }
            self.ws();
        }
        if self.eat(b'[') {
            loop {
                let child = self.step(Some(idx), nodes)?;
                nodes[idx].children.push(child);
                self.ws();
                if self.eat(b',') {
                    continue;
                }
                if self.eat(b']') {
                    break;
                }
                return Err(self.error("expected ',' or ']' in children"));
            }
        }
        Ok(idx)
    }

    fn name(&mut self) -> Result<String, ParseError> {
        let start = self.pos;
        while matches!(self.peek(),
            Some(b) if b.is_ascii_alphanumeric() || matches!(b, b'_' | b'-' | b'.' | b':') || b >= 0x80)
        {
            self.pos += 1;
        }
        if self.pos == start {
            return Err(self.error("expected a name"));
        }
        Ok(String::from_utf8_lossy(&self.s[start..self.pos]).into_owned())
    }

    fn value(&mut self) -> Result<String, ParseError> {
        self.ws();
        if self.eat(b'"') {
            let start = self.pos;
            while self.peek() != Some(b'"') {
                if self.eof() {
                    return Err(self.error("unterminated string"));
                }
                self.pos += 1;
            }
            let v = String::from_utf8_lossy(&self.s[start..self.pos]).into_owned();
            self.pos += 1;
            Ok(v)
        } else {
            let start = self.pos;
            while matches!(self.peek(),
                Some(b) if b.is_ascii_alphanumeric() || matches!(b, b'_' | b'-' | b'.' | b':') || b >= 0x80)
            {
                self.pos += 1;
            }
            if self.pos == start {
                return Err(self.error("expected a value"));
            }
            Ok(String::from_utf8_lossy(&self.s[start..self.pos]).into_owned())
        }
    }

    /// Parses `"<" | "<="`, returning `inclusive`.
    fn rel(&mut self) -> Result<bool, ParseError> {
        self.ws();
        if self.eat_str("<=") {
            Ok(true)
        } else if self.eat(b'<') {
            Ok(false)
        } else {
            Err(self.error("expected '<' or '<='"))
        }
    }

    fn set_predicate(
        &mut self,
        idx: usize,
        nodes: &mut [PatternNode],
        pred: Predicate,
    ) -> Result<(), ParseError> {
        if nodes[idx].predicate.is_some() {
            return Err(self.error("node already has a predicate"));
        }
        nodes[idx].predicate = Some(pred);
        Ok(())
    }

    fn annotation(&mut self, idx: usize, nodes: &mut [PatternNode]) -> Result<(), ParseError> {
        self.ws();
        // Keyword-led annotations.
        if self.keyword("cont") {
            nodes[idx].outputs.push(Output::Cont);
            return Ok(());
        }
        if self.keyword("contains") {
            self.ws();
            if !self.eat(b'(') {
                return Err(self.error("expected '(' after contains"));
            }
            let w = self.value()?;
            self.ws();
            if !self.eat(b')') {
                return Err(self.error("expected ')' after contains word"));
            }
            return self.set_predicate(idx, nodes, Predicate::Contains(w));
        }
        if self.keyword("val") {
            self.ws();
            // "val as $x" | "val < value" | bare "val".
            if self.keyword("as") {
                self.ws();
                if !self.eat(b'$') {
                    return Err(self.error("expected '$' before join variable"));
                }
                let var = self.name()?;
                nodes[idx].outputs.push(Output::Val {
                    join_var: Some(var),
                });
                return Ok(());
            }
            if matches!(self.peek(), Some(b'<')) {
                let inclusive = self.rel()?;
                let hi = self.value()?;
                return self.set_predicate(
                    idx,
                    nodes,
                    Predicate::Range {
                        lo: None,
                        hi: Some(Bound {
                            value: hi,
                            inclusive,
                        }),
                    },
                );
            }
            nodes[idx].outputs.push(Output::Val { join_var: None });
            return Ok(());
        }
        if self.eat(b'=') {
            let v = self.value()?;
            return self.set_predicate(idx, nodes, Predicate::Eq(v));
        }
        // Range with a lower bound: value REL val (REL value)?
        let lo = self.value()?;
        let lo_inclusive = self.rel()?;
        self.ws();
        if !self.keyword("val") {
            return Err(self.error("expected 'val' in range predicate"));
        }
        self.ws();
        let hi = if matches!(self.peek(), Some(b'<')) {
            let inclusive = self.rel()?;
            let v = self.value()?;
            Some(Bound {
                value: v,
                inclusive,
            })
        } else {
            None
        };
        self.set_predicate(
            idx,
            nodes,
            Predicate::Range {
                lo: Some(Bound {
                    value: lo,
                    inclusive: lo_inclusive,
                }),
                hi,
            },
        )
    }

    /// Consumes `kw` only when followed by a non-name character, so that
    /// e.g. `value` is not read as the keyword `val`.
    fn keyword(&mut self, kw: &str) -> bool {
        if !self.s[self.pos..].starts_with(kw.as_bytes()) {
            return false;
        }
        let after = self.s.get(self.pos + kw.len()).copied();
        let boundary = !matches!(after,
            Some(b) if b.is_ascii_alphanumeric() || matches!(b, b'_' | b'-' | b'.' | b':'));
        if boundary {
            self.pos += kw.len();
        }
        boundary
    }
}

// ---------------------------------------------------------------------------
// Display: regenerate canonical syntax (parse ∘ display == id, tested).
// ---------------------------------------------------------------------------

impl fmt::Display for TreePattern {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write_step(self, 0, f)
    }
}

fn write_step(p: &TreePattern, idx: usize, f: &mut fmt::Formatter<'_>) -> fmt::Result {
    let n = &p.nodes[idx];
    write!(f, "{}{}", n.axis, n.test)?;
    let mut anns: Vec<String> = Vec::new();
    for o in &n.outputs {
        match o {
            Output::Val { join_var: None } => anns.push("val".into()),
            Output::Val { join_var: Some(v) } => anns.push(format!("val as ${v}")),
            Output::Cont => anns.push("cont".into()),
        }
    }
    match &n.predicate {
        Some(Predicate::Eq(v)) => anns.push(format!("=\"{v}\"")),
        Some(Predicate::Contains(w)) => anns.push(format!("contains(\"{w}\")")),
        Some(Predicate::Range { lo, hi }) => {
            let mut s = String::new();
            if let Some(b) = lo {
                s.push_str(&format!(
                    "\"{}\"{}",
                    b.value,
                    if b.inclusive { "<=" } else { "<" }
                ));
            }
            s.push_str("val");
            if let Some(b) = hi {
                s.push_str(&format!(
                    "{}\"{}\"",
                    if b.inclusive { "<=" } else { "<" },
                    b.value
                ));
            }
            anns.push(s);
        }
        None => {}
    }
    if !anns.is_empty() {
        write!(f, "{{{}}}", anns.join(", "))?;
    }
    if !n.children.is_empty() {
        write!(f, "[")?;
        for (i, &c) in n.children.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write_step(p, c, f)?;
        }
        write!(f, "]")?;
    }
    Ok(())
}

impl fmt::Display for Query {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (i, p) in self.patterns.iter().enumerate() {
            if i > 0 {
                write!(f, "; ")?;
            }
            write!(f, "{p}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::*;

    #[test]
    fn parse_q1_shape() {
        // Paper q1: painting name + painter name.
        let q = parse_query("//painting[/name{val}, //painter[/name{val}]]").unwrap();
        assert_eq!(q.patterns.len(), 1);
        let p = &q.patterns[0];
        assert_eq!(p.len(), 4);
        assert_eq!(p.nodes[0].test, NodeTest::Element("painting".into()));
        assert_eq!(p.nodes[0].axis, Axis::Descendant);
        assert_eq!(p.nodes[1].test, NodeTest::Element("name".into()));
        assert_eq!(p.nodes[1].axis, Axis::Child);
        assert_eq!(p.nodes[2].test, NodeTest::Element("painter".into()));
        assert_eq!(p.nodes[2].axis, Axis::Descendant);
        assert_eq!(p.nodes[1].outputs, vec![Output::Val { join_var: None }]);
        assert_eq!(p.arity(), 2);
    }

    #[test]
    fn parse_q4_range_and_eq() {
        let q = parse_query(
            "//painting[/name{val}, //painter[/name[/last{=Manet}]], /year{1854<val<=1865}]",
        )
        .unwrap();
        let p = &q.patterns[0];
        let last = p.nodes.iter().find(|n| n.test.label() == "last").unwrap();
        assert_eq!(last.predicate, Some(Predicate::Eq("Manet".into())));
        let year = p.nodes.iter().find(|n| n.test.label() == "year").unwrap();
        assert_eq!(
            year.predicate,
            Some(Predicate::Range {
                lo: Some(Bound {
                    value: "1854".into(),
                    inclusive: false
                }),
                hi: Some(Bound {
                    value: "1865".into(),
                    inclusive: true
                }),
            })
        );
    }

    #[test]
    fn parse_q5_value_join() {
        let q = parse_query(
            "//museum[/name{val}, //painting[/@id{val as $p}]]; \
             //painting[/@id{val as $p}, //painter[/name[/last{=\"Delacroix\"}]]]",
        )
        .unwrap();
        assert_eq!(q.patterns.len(), 2);
        let groups = q.join_groups();
        assert_eq!(groups.len(), 1);
        assert_eq!(groups[0].var, "p");
        assert_eq!(groups[0].sites.len(), 2);
        // @id is an attribute node.
        let (pi, ni) = groups[0].sites[0];
        assert!(q.patterns[pi].nodes[ni].test.is_attribute());
    }

    #[test]
    fn parse_contains() {
        let q =
            parse_query("//painting[/name{contains(Lion)}, //painter[/name[/last{val}]]]").unwrap();
        let name = &q.patterns[0].nodes[1];
        assert_eq!(name.predicate, Some(Predicate::Contains("Lion".into())));
    }

    #[test]
    fn parse_cont_annotation() {
        let q = parse_query("//painting[//description{cont}, /year{=1854}]").unwrap();
        let d = &q.patterns[0].nodes[1];
        assert_eq!(d.outputs, vec![Output::Cont]);
    }

    #[test]
    fn parse_quoted_values_with_spaces() {
        let q = parse_query("//name{=\"The Lion Hunt\"}").unwrap();
        assert_eq!(
            q.patterns[0].nodes[0].predicate,
            Some(Predicate::Eq("The Lion Hunt".into()))
        );
    }

    #[test]
    fn parse_upper_bounded_range() {
        let q = parse_query("//year{val<=1865}").unwrap();
        assert_eq!(
            q.patterns[0].nodes[0].predicate,
            Some(Predicate::Range {
                lo: None,
                hi: Some(Bound {
                    value: "1865".into(),
                    inclusive: true
                })
            })
        );
    }

    #[test]
    fn keyword_is_not_a_prefix_match() {
        // An element named "value" must not trip the "val" keyword.
        let q = parse_query("//value{val}").unwrap();
        assert_eq!(q.patterns[0].nodes[0].test.label(), "value");
        assert_eq!(q.patterns[0].nodes[0].outputs.len(), 1);
    }

    #[test]
    fn error_on_single_use_join_var() {
        let err = parse_query("//a{val as $x}").unwrap_err();
        assert!(err.msg.contains("$x"));
    }

    #[test]
    fn error_on_attribute_with_children() {
        let err = parse_query("//a[/@id[/b]]").unwrap_err();
        assert!(err.msg.contains("@id"));
    }

    #[test]
    fn error_on_two_predicates() {
        let err = parse_query("//a{=x, =y}").unwrap_err();
        assert!(err.msg.contains("predicate"));
    }

    #[test]
    fn error_on_garbage() {
        assert!(parse_query("painting").is_err());
        assert!(parse_query("//painting[").is_err());
        assert!(parse_query("").is_err());
        assert!(parse_query("//a{val} trailing").is_err());
    }

    #[test]
    fn display_round_trips() {
        for text in [
            "//painting[/name{val}, //painter[/name{val}]]",
            "//painting[//description{cont}, /year{=\"1854\"}]",
            "//painting[/name{contains(\"Lion\")}, //painter[/name[/last{val}]]]",
            "//painting[/name{val}, //painter[/name[/last{=\"Manet\"}]], /year{\"1854\"<val<=\"1865\"}]",
            "//museum[/name{val}, //painting[/@id{val as $p}]]; //painting[/@id{val as $p}]",
            "//a{val, cont, \"1\"<=val}",
        ] {
            let q = parse_query(text).unwrap();
            let shown = q.to_string();
            let q2 = parse_query(&shown).unwrap();
            assert_eq!(q, q2, "round-trip failed for {text} -> {shown}");
        }
    }
}
