//! Abstract syntax for the paper's query language (Section 4): *value joins
//! over tree patterns*.
//!
//! A [`Query`] is one or more [`TreePattern`]s. Within a pattern, nodes are
//! labeled with an element or attribute name, edges are parent–child (`/`)
//! or ancestor–descendant (`//`), nodes may be annotated with `val` and/or
//! `cont` output markers, and a node may carry one value predicate
//! (equality, word containment, or range). Patterns are connected by value
//! joins: two `val` annotations bound to the same join variable must be
//! equal (the paper's dashed lines).

use std::fmt;

/// What a pattern node's label must match.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum NodeTest {
    /// An element with this tag name.
    Element(String),
    /// An attribute with this name (written `@name`).
    Attribute(String),
}

impl NodeTest {
    /// The raw label (without the `@`).
    pub fn label(&self) -> &str {
        match self {
            NodeTest::Element(l) | NodeTest::Attribute(l) => l,
        }
    }

    /// True for attribute tests.
    pub fn is_attribute(&self) -> bool {
        matches!(self, NodeTest::Attribute(_))
    }
}

impl fmt::Display for NodeTest {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NodeTest::Element(l) => write!(f, "{l}"),
            NodeTest::Attribute(l) => write!(f, "@{l}"),
        }
    }
}

/// The edge connecting a pattern node to its pattern parent (for the root:
/// to the conceptual document root).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Axis {
    /// `/` — parent–child (paper: single line).
    Child,
    /// `//` — ancestor–descendant (paper: double line).
    Descendant,
}

impl fmt::Display for Axis {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Axis::Child => write!(f, "/"),
            Axis::Descendant => write!(f, "//"),
        }
    }
}

/// One endpoint of a range predicate.
#[derive(Debug, Clone, PartialEq)]
pub struct Bound {
    /// The constant. Compared numerically when both sides parse as `f64`,
    /// lexicographically otherwise.
    pub value: String,
    /// Whether the endpoint itself is admitted (`<=` vs `<`).
    pub inclusive: bool,
}

/// A value predicate on a pattern node (Section 4).
#[derive(Debug, Clone, PartialEq)]
pub enum Predicate {
    /// `= c` — the node's string value equals `c`.
    Eq(String),
    /// `contains(c)` — the node's value contains the word `c`.
    Contains(String),
    /// `a < val <= b` — the value lies in the range. Either bound may be
    /// absent (half-open ranges are a convenience extension).
    Range {
        lo: Option<Bound>,
        hi: Option<Bound>,
    },
}

impl Predicate {
    /// Evaluates the predicate against a node's string value.
    pub fn matches(&self, value: &str) -> bool {
        match self {
            Predicate::Eq(c) => value == c,
            Predicate::Contains(w) => amada_xml::words::contains_word(value, w),
            Predicate::Range { lo, hi } => {
                let above = lo
                    .as_ref()
                    .is_none_or(|b| match compare_values(value, &b.value) {
                        std::cmp::Ordering::Greater => true,
                        std::cmp::Ordering::Equal => b.inclusive,
                        std::cmp::Ordering::Less => false,
                    });
                let below = hi
                    .as_ref()
                    .is_none_or(|b| match compare_values(value, &b.value) {
                        std::cmp::Ordering::Less => true,
                        std::cmp::Ordering::Equal => b.inclusive,
                        std::cmp::Ordering::Greater => false,
                    });
                above && below
            }
        }
    }
}

/// Compares two values numerically when both parse as `f64`, else
/// lexicographically. This is the comparison semantics of range predicates.
pub fn compare_values(a: &str, b: &str) -> std::cmp::Ordering {
    match (a.trim().parse::<f64>(), b.trim().parse::<f64>()) {
        (Ok(x), Ok(y)) => x.partial_cmp(&y).unwrap_or(std::cmp::Ordering::Equal),
        _ => a.cmp(b),
    }
}

/// An output annotation on a pattern node.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Output {
    /// `val` — return the node's string value; optionally bound to a join
    /// variable (`val as $x`).
    Val { join_var: Option<String> },
    /// `cont` — return the serialized subtree rooted at the node.
    Cont,
}

/// A node of a tree pattern.
#[derive(Debug, Clone, PartialEq)]
pub struct PatternNode {
    /// Label test.
    pub test: NodeTest,
    /// Edge to the pattern parent (for the root: from the document root,
    /// where `Descendant` means "anywhere in the document").
    pub axis: Axis,
    /// Pattern parent (index into [`TreePattern::nodes`]); `None` for root.
    pub parent: Option<usize>,
    /// Pattern children, in syntactic order.
    pub children: Vec<usize>,
    /// Output annotations, in syntactic order.
    pub outputs: Vec<Output>,
    /// At most one value predicate.
    pub predicate: Option<Predicate>,
}

/// A single tree pattern. `nodes[0]` is the pattern root; children always
/// have larger indices than their parent (preorder storage).
#[derive(Debug, Clone, PartialEq)]
pub struct TreePattern {
    pub nodes: Vec<PatternNode>,
}

impl TreePattern {
    /// The pattern root node index (always 0).
    pub fn root(&self) -> usize {
        0
    }

    /// Number of pattern nodes.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// True if the pattern has no nodes (never produced by the parser).
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Indices of leaf nodes (no pattern children).
    pub fn leaves(&self) -> impl Iterator<Item = usize> + '_ {
        (0..self.nodes.len()).filter(|&i| self.nodes[i].children.is_empty())
    }

    /// The root-to-leaf label paths with edge types — the "query paths" of
    /// the LUP look-up (Section 5.2). Each path is the list of
    /// `(axis, node index)` from the root down to a leaf.
    pub fn root_to_leaf_paths(&self) -> Vec<Vec<(Axis, usize)>> {
        let mut paths = Vec::new();
        let mut current = Vec::new();
        self.collect_paths(0, &mut current, &mut paths);
        paths
    }

    fn collect_paths(
        &self,
        node: usize,
        current: &mut Vec<(Axis, usize)>,
        out: &mut Vec<Vec<(Axis, usize)>>,
    ) {
        current.push((self.nodes[node].axis, node));
        if self.nodes[node].children.is_empty() {
            out.push(current.clone());
        } else {
            for &c in &self.nodes[node].children {
                self.collect_paths(c, current, out);
            }
        }
        current.pop();
    }

    /// Number of result columns (one per output annotation, preorder, in
    /// annotation order within a node).
    pub fn arity(&self) -> usize {
        self.nodes.iter().map(|n| n.outputs.len()).sum()
    }
}

/// A full query: one or more tree patterns related by value joins.
#[derive(Debug, Clone, PartialEq)]
pub struct Query {
    /// The constituent patterns.
    pub patterns: Vec<TreePattern>,
    /// Optional human-readable name (e.g. `q4`).
    pub name: Option<String>,
}

/// A value join extracted from a query: all the `(pattern, node)` sites
/// bound to one join variable.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JoinGroup {
    /// The variable name (without the `$`).
    pub var: String,
    /// The sites that must agree on their string value.
    pub sites: Vec<(usize, usize)>,
}

impl Query {
    /// A query consisting of a single pattern.
    pub fn single(pattern: TreePattern) -> Query {
        Query {
            patterns: vec![pattern],
            name: None,
        }
    }

    /// Collects the join variable groups, in first-appearance order.
    pub fn join_groups(&self) -> Vec<JoinGroup> {
        let mut groups: Vec<JoinGroup> = Vec::new();
        for (pi, p) in self.patterns.iter().enumerate() {
            for (ni, n) in p.nodes.iter().enumerate() {
                for o in &n.outputs {
                    if let Output::Val { join_var: Some(v) } = o {
                        match groups.iter_mut().find(|g| g.var == *v) {
                            Some(g) => g.sites.push((pi, ni)),
                            None => groups.push(JoinGroup {
                                var: v.clone(),
                                sites: vec![(pi, ni)],
                            }),
                        }
                    }
                }
            }
        }
        groups
    }

    /// Total number of result columns across all patterns.
    pub fn arity(&self) -> usize {
        self.patterns.iter().map(TreePattern::arity).sum()
    }

    /// True when the query has exactly one pattern (no value join).
    pub fn is_single_pattern(&self) -> bool {
        self.patterns.len() == 1
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn predicate_eq() {
        assert!(Predicate::Eq("Manet".into()).matches("Manet"));
        assert!(!Predicate::Eq("Manet".into()).matches("manet"));
    }

    #[test]
    fn predicate_contains_is_word_based() {
        let p = Predicate::Contains("Lion".into());
        assert!(p.matches("The Lion Hunt"));
        assert!(!p.matches("Lions"));
    }

    #[test]
    fn predicate_range_numeric() {
        // The paper's q4: 1854 < val <= 1865.
        let p = Predicate::Range {
            lo: Some(Bound {
                value: "1854".into(),
                inclusive: false,
            }),
            hi: Some(Bound {
                value: "1865".into(),
                inclusive: true,
            }),
        };
        assert!(!p.matches("1854"));
        assert!(p.matches("1855"));
        assert!(p.matches("1865"));
        assert!(!p.matches("1866"));
        // Numeric, not lexicographic: "0999" style comparisons.
        assert!(p.matches(" 1860 "));
    }

    #[test]
    fn predicate_range_lexicographic_fallback() {
        let p = Predicate::Range {
            lo: Some(Bound {
                value: "b".into(),
                inclusive: true,
            }),
            hi: Some(Bound {
                value: "d".into(),
                inclusive: false,
            }),
        };
        assert!(p.matches("b"));
        assert!(p.matches("c"));
        assert!(!p.matches("d"));
    }

    #[test]
    fn half_open_ranges() {
        let p = Predicate::Range {
            lo: None,
            hi: Some(Bound {
                value: "10".into(),
                inclusive: false,
            }),
        };
        assert!(p.matches("9"));
        assert!(!p.matches("10"));
    }

    #[test]
    fn compare_values_prefers_numeric() {
        use std::cmp::Ordering;
        assert_eq!(compare_values("9", "10"), Ordering::Less);
        assert_eq!(compare_values("a9", "a10"), Ordering::Greater); // lexicographic
    }
}
