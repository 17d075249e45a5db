//! XML serialization: whole documents and subtrees.
//!
//! Subtree serialization is the *content* (`cont`) granularity of the
//! paper's query language (Section 4): "the full XML subtree rooted at this
//! node", i.e. what an XPath evaluation returns.

use crate::node::{NodeId, NodeKind};
use crate::tree::Document;

impl Document {
    /// Serializes the whole document (root subtree) back to XML text.
    pub fn to_xml(&self) -> String {
        self.serialize_subtree(self.root())
    }

    /// Serializes the subtree rooted at `id` to XML text.
    ///
    /// * Element: `<name attrs…>children…</name>` (or `<name attrs…/>`).
    /// * Attribute: `name="value"`.
    /// * Text: the escaped text.
    pub fn serialize_subtree(&self, id: NodeId) -> String {
        let mut out = String::new();
        self.push_subtree(id, &mut out);
        out
    }

    /// Appends the [serialized subtree](Document::serialize_subtree) of
    /// `id` to `out`.
    pub fn push_subtree(&self, id: NodeId, out: &mut String) {
        match self.kind(id) {
            NodeKind::Text => escape_text(self.value(id).unwrap_or_default(), out),
            NodeKind::Attribute => {
                out.push_str(self.name(id).unwrap_or_default());
                out.push_str("=\"");
                escape_attr(self.value(id).unwrap_or_default(), out);
                out.push('"');
            }
            NodeKind::Element => {
                let name = self.name(id).unwrap_or_default();
                out.push('<');
                out.push_str(name);
                // Attributes come first among the children.
                let mut children = self.children(id).peekable();
                while let Some(a) = children.next_if(|&c| self.kind(c) == NodeKind::Attribute) {
                    out.push(' ');
                    self.push_subtree(a, out);
                }
                if children.peek().is_none() {
                    out.push_str("/>");
                } else {
                    out.push('>');
                    for c in children {
                        self.push_subtree(c, out);
                    }
                    out.push_str("</");
                    out.push_str(name);
                    out.push('>');
                }
            }
        }
    }
}

/// Escapes `<`, `>`, `&` in text content.
pub fn escape_text(s: &str, out: &mut String) {
    for c in s.chars() {
        match c {
            '<' => out.push_str("&lt;"),
            '>' => out.push_str("&gt;"),
            '&' => out.push_str("&amp;"),
            _ => out.push(c),
        }
    }
}

/// Escapes `<`, `&`, `"` in attribute values.
pub fn escape_attr(s: &str, out: &mut String) {
    for c in s.chars() {
        match c {
            '<' => out.push_str("&lt;"),
            '&' => out.push_str("&amp;"),
            '"' => out.push_str("&quot;"),
            _ => out.push(c),
        }
    }
}

#[cfg(test)]
mod tests {
    use crate::tree::Document;

    #[test]
    fn round_trip_simple() {
        let src = "<painting id=\"1854-1\"><name>The Lion Hunt</name><year>1854</year></painting>";
        let doc = Document::parse_str("d.xml", src).unwrap();
        assert_eq!(doc.to_xml(), src);
    }

    #[test]
    fn round_trip_is_fixpoint() {
        let src = "<a x=\"1 &amp; 2\"><b>t &lt; u</b><c/><d>m<e/>n</d></a>";
        let doc = Document::parse_str("d.xml", src).unwrap();
        let once = doc.to_xml();
        let doc2 = Document::parse_str("d.xml", &once).unwrap();
        assert_eq!(doc2.to_xml(), once);
        // And the re-parsed tree is structurally identical.
        assert_eq!(doc.node_count(), doc2.node_count());
        for (a, b) in doc.all_nodes().zip(doc2.all_nodes()) {
            assert_eq!(doc.sid(a), doc2.sid(b));
            assert_eq!(doc.name(a), doc2.name(b));
            assert_eq!(doc.value(a), doc2.value(b));
        }
    }

    #[test]
    fn empty_element_self_closes() {
        let doc = Document::parse_str("d.xml", "<a><b></b></a>").unwrap();
        assert_eq!(doc.to_xml(), "<a><b/></a>");
    }

    #[test]
    fn subtree_serialization() {
        let doc = Document::parse_str("d.xml", "<a><b k=\"v\"><c>x</c></b><d/></a>").unwrap();
        let b = doc.elements_named("b")[0];
        assert_eq!(doc.serialize_subtree(b), "<b k=\"v\"><c>x</c></b>");
        let k = doc.attributes_named("k")[0];
        assert_eq!(doc.serialize_subtree(k), "k=\"v\"");
    }

    #[test]
    fn escaping_special_characters() {
        let doc = Document::parse_str(
            "d.xml",
            "<a t=\"&quot;q&quot; &lt; &amp;\">&lt;x&gt; &amp; y</a>",
        )
        .unwrap();
        let out = doc.to_xml();
        let doc2 = Document::parse_str("d.xml", &out).unwrap();
        assert_eq!(doc2.attribute(doc2.root(), "t"), Some("\"q\" < &"));
        assert_eq!(doc2.string_value(doc2.root()), "<x> & y");
    }
}
