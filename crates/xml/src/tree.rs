//! The immutable [`Document`] tree and its navigation / inspection API.

use crate::error::XmlError;
use crate::interner::{Interner, Sym};
use crate::node::{NodeData, NodeId, NodeKind};
use crate::parser::Parser;
use crate::sid::StructuralId;
use std::sync::Arc;

/// A parsed, immutable XML document.
///
/// Nodes live in a preorder arena ([`NodeId`] is the arena index), each
/// annotated with a *(pre, post, depth)* [`StructuralId`]. The document also
/// maintains a label → node-list map (`postings`) used both by index
/// extraction and as the per-label input streams of the holistic twig join.
#[derive(Debug, Clone)]
pub struct Document {
    /// Shared with every result tuple evaluated on this document.
    uri: Arc<str>,
    nodes: Vec<NodeData>,
    interner: Interner,
    /// Shared text arena: attribute values and text content of all nodes,
    /// concatenated; nodes carry spans into it (one allocation per
    /// document instead of one per value).
    text: String,
    /// For each interned name (indexed by `Sym`): the nodes bearing it, in
    /// document order. Element and attribute occurrences are kept separate
    /// because the index keys distinguish `e‖label` from `a‖name`.
    element_postings: Vec<Vec<NodeId>>,
    attribute_postings: Vec<Vec<NodeId>>,
    /// Size in bytes of the serialized source this document was parsed from.
    source_bytes: usize,
}

impl Document {
    /// Parses a document from raw bytes.
    pub fn parse(uri: impl Into<String>, input: &[u8]) -> Result<Document, XmlError> {
        let (nodes, interner, text) = Parser::new(input).parse()?;
        Ok(Self::assemble(
            uri.into().into(),
            nodes,
            interner,
            text,
            input.len(),
        ))
    }

    /// Parses a document from a `&str`.
    pub fn parse_str(uri: impl Into<String>, input: &str) -> Result<Document, XmlError> {
        Self::parse(uri, input.as_bytes())
    }

    fn assemble(
        uri: Arc<str>,
        nodes: Vec<NodeData>,
        interner: Interner,
        text: String,
        source_bytes: usize,
    ) -> Document {
        let mut element_postings: Vec<Vec<NodeId>> = vec![Vec::new(); interner.len()];
        let mut attribute_postings: Vec<Vec<NodeId>> = vec![Vec::new(); interner.len()];
        for (i, n) in nodes.iter().enumerate() {
            if let Some(sym) = n.sym {
                let postings = match n.kind {
                    NodeKind::Element => &mut element_postings,
                    NodeKind::Attribute => &mut attribute_postings,
                    NodeKind::Text => continue,
                };
                postings[sym.0 as usize].push(NodeId(i as u32));
            }
        }
        Document {
            uri,
            nodes,
            interner,
            text,
            element_postings,
            attribute_postings,
            source_bytes,
        }
    }

    /// The document's URI (its object name in the cloud file store).
    pub fn uri(&self) -> &str {
        &self.uri
    }

    /// The URI as the document itself holds it: cloning it shares the one
    /// allocation instead of copying the name.
    pub fn shared_uri(&self) -> &Arc<str> {
        &self.uri
    }

    /// Size in bytes of the source text this document was parsed from.
    pub fn source_bytes(&self) -> usize {
        self.source_bytes
    }

    /// The root element.
    pub fn root(&self) -> NodeId {
        NodeId(0)
    }

    /// Total number of nodes (elements + attributes + text).
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Iterates all node ids in document (preorder) order.
    pub fn all_nodes(&self) -> impl Iterator<Item = NodeId> + '_ {
        (0..self.nodes.len() as u32).map(NodeId)
    }

    /// The name interner (shared vocabulary of this document).
    pub fn interner(&self) -> &Interner {
        &self.interner
    }

    #[inline]
    fn data(&self, id: NodeId) -> &NodeData {
        &self.nodes[id.index()]
    }

    /// The node's kind.
    #[inline]
    pub fn kind(&self, id: NodeId) -> NodeKind {
        self.data(id).kind
    }

    /// The node's structural identifier.
    #[inline]
    pub fn sid(&self, id: NodeId) -> StructuralId {
        self.data(id).sid(id.index())
    }

    /// Interned name symbol (elements and attributes only).
    #[inline]
    pub fn sym(&self, id: NodeId) -> Option<Sym> {
        self.data(id).sym
    }

    /// Element / attribute name, or `None` for text nodes.
    pub fn name(&self, id: NodeId) -> Option<&str> {
        self.data(id).sym.map(|s| self.interner.resolve(s))
    }

    /// Attribute value or text content; `None` for elements.
    pub fn value(&self, id: NodeId) -> Option<&str> {
        self.data(id)
            .value
            .map(|sp| &self.text[sp.start as usize..(sp.start + sp.len) as usize])
    }

    /// The parent node, or `None` for the root.
    #[inline]
    pub fn parent(&self, id: NodeId) -> Option<NodeId> {
        let p = self.data(id).parent;
        (p != NodeId::NONE).then_some(NodeId(p))
    }

    /// Iterates the node's children (attributes first, then content) in
    /// document order.
    pub fn children(&self, id: NodeId) -> Children<'_> {
        Children {
            doc: self,
            next: self.data(id).first_child,
        }
    }

    /// Iterates only the element children.
    pub fn element_children(&self, id: NodeId) -> impl Iterator<Item = NodeId> + '_ {
        self.children(id)
            .filter(|&c| self.kind(c) == NodeKind::Element)
    }

    /// Iterates only the attribute nodes of an element.
    pub fn attributes(&self, id: NodeId) -> impl Iterator<Item = NodeId> + '_ {
        self.children(id)
            .take_while(|&c| self.kind(c) == NodeKind::Attribute)
    }

    /// Looks up an attribute by name.
    pub fn attribute(&self, id: NodeId, name: &str) -> Option<&str> {
        let sym = self.interner.lookup(name)?;
        self.attributes(id)
            .find(|&a| self.sym(a) == Some(sym))
            .and_then(|a| self.value(a))
    }

    /// Iterates the strict ancestors of `id`, nearest first.
    pub fn ancestors(&self, id: NodeId) -> Ancestors<'_> {
        Ancestors {
            doc: self,
            next: self.data(id).parent,
        }
    }

    /// All descendants of `id` (excluding `id`), in document order.
    ///
    /// Exploits the arena layout: descendants are exactly the contiguous
    /// preorder range `(pre, pre + subtree_size)`.
    pub fn descendants(&self, id: NodeId) -> impl Iterator<Item = NodeId> + '_ {
        let me = self.sid(id);
        let start = id.index() + 1;
        (start..self.nodes.len())
            .map(NodeId::from_index)
            .take_while(move |&d| me.is_ancestor_of(&self.sid(d)))
    }

    /// The element nodes labeled `name`, in document order.
    pub fn elements_named(&self, name: &str) -> &[NodeId] {
        self.interner
            .lookup(name)
            .map_or(&[], |s| self.element_postings[s.0 as usize].as_slice())
    }

    /// The attribute nodes named `name`, in document order.
    pub fn attributes_named(&self, name: &str) -> &[NodeId] {
        self.interner
            .lookup(name)
            .map_or(&[], |s| self.attribute_postings[s.0 as usize].as_slice())
    }

    /// Iterates `(name, nodes)` for every distinct element label.
    pub fn element_labels(&self) -> impl Iterator<Item = (&str, &[NodeId])> {
        self.element_postings
            .iter()
            .enumerate()
            .filter(|(_, v)| !v.is_empty())
            .map(|(i, v)| (self.interner.resolve(Sym(i as u32)), v.as_slice()))
    }

    /// The *string value* of a node (XQuery data model): for text and
    /// attribute nodes their content; for elements the concatenation of all
    /// descendant text, in document order. This is what a `val`-annotated
    /// pattern node returns (Section 4).
    pub fn string_value(&self, id: NodeId) -> String {
        let mut out = String::new();
        self.push_string_value(id, &mut out);
        out
    }

    /// Appends the [string value](Document::string_value) of `id` to
    /// `out` — for callers that compare or hash a value before deciding to
    /// keep it.
    pub fn push_string_value(&self, id: NodeId, out: &mut String) {
        if let Some(v) = self.value(id) {
            out.push_str(v);
            return;
        }
        for c in self.children(id) {
            match self.kind(c) {
                NodeKind::Text => out.push_str(self.value(c).unwrap_or_default()),
                NodeKind::Element => self.push_string_value(c, out),
                NodeKind::Attribute => {}
            }
        }
    }

    /// The label path from the root down to `id` — the paper's `inPath(n)`
    /// (Section 5). Components are raw labels, outermost first; attribute
    /// and text node information is carried by the node itself, so the path
    /// of an attribute ends at the attribute name.
    pub fn label_path(&self, id: NodeId) -> Vec<&str> {
        let mut path: Vec<&str> = Vec::with_capacity(self.sid(id).depth as usize);
        if let Some(n) = self.name(id) {
            path.push(n);
        }
        for a in self.ancestors(id) {
            if let Some(n) = self.name(a) {
                path.push(n);
            }
        }
        path.reverse();
        path
    }
}

impl NodeId {
    #[inline]
    fn from_index(i: usize) -> NodeId {
        NodeId(i as u32)
    }
}

/// Iterator over a node's children.
pub struct Children<'d> {
    doc: &'d Document,
    next: u32,
}

impl Iterator for Children<'_> {
    type Item = NodeId;

    fn next(&mut self) -> Option<NodeId> {
        if self.next == NodeId::NONE {
            return None;
        }
        let id = NodeId(self.next);
        self.next = self.doc.data(id).next_sibling;
        Some(id)
    }
}

/// Iterator over a node's ancestors, nearest first.
pub struct Ancestors<'d> {
    doc: &'d Document,
    next: u32,
}

impl Iterator for Ancestors<'_> {
    type Item = NodeId;

    fn next(&mut self) -> Option<NodeId> {
        if self.next == NodeId::NONE {
            return None;
        }
        let id = NodeId(self.next);
        self.next = self.doc.data(id).parent;
        Some(id)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The paper's Figure 3 left document.
    pub(crate) const DELACROIX: &str = "<painting id=\"1854-1\">\
         <name>The Lion Hunt</name>\
         <painter><name><first>Eugene</first><last>Delacroix</last></name></painter>\
         </painting>";

    fn doc() -> Document {
        Document::parse_str("delacroix.xml", DELACROIX).unwrap()
    }

    #[test]
    fn figure3_structural_ids_match_paper() {
        let d = doc();
        // Paper Section 5.3: ename -> (3,3,2)(6,8,3); aid -> (2,1,2).
        let names: Vec<StructuralId> = d.elements_named("name").iter().map(|&n| d.sid(n)).collect();
        assert_eq!(
            names,
            [StructuralId::new(3, 3, 2), StructuralId::new(6, 8, 3)]
        );
        let ids: Vec<StructuralId> = d.attributes_named("id").iter().map(|&n| d.sid(n)).collect();
        assert_eq!(ids, [StructuralId::new(2, 1, 2)]);
    }

    #[test]
    fn navigation_and_names() {
        let d = doc();
        let root = d.root();
        assert_eq!(d.name(root), Some("painting"));
        assert_eq!(d.parent(root), None);
        assert_eq!(d.attribute(root, "id"), Some("1854-1"));
        let kids: Vec<_> = d
            .element_children(root)
            .map(|c| d.name(c).unwrap())
            .collect();
        assert_eq!(kids, ["name", "painter"]);
    }

    #[test]
    fn string_value_concatenates_descendant_text() {
        let d = doc();
        let painter = d.elements_named("painter")[0];
        assert_eq!(d.string_value(painter), "EugeneDelacroix");
        let last = d.elements_named("last")[0];
        assert_eq!(d.string_value(last), "Delacroix");
    }

    #[test]
    fn label_path_is_in_path() {
        let d = doc();
        let last = d.elements_named("last")[0];
        assert_eq!(d.label_path(last), ["painting", "painter", "name", "last"]);
        let attr = d.attributes_named("id")[0];
        assert_eq!(d.label_path(attr), ["painting", "id"]);
    }

    #[test]
    fn descendants_are_contiguous_preorder_range() {
        let d = doc();
        let painter = d.elements_named("painter")[0];
        let descendant_names: Vec<_> = d.descendants(painter).filter_map(|n| d.name(n)).collect();
        assert_eq!(descendant_names, ["name", "first", "last"]);
        // descendants of the root = everything else
        assert_eq!(d.descendants(d.root()).count(), d.node_count() - 1);
    }

    #[test]
    fn ancestors_nearest_first() {
        let d = doc();
        let first = d.elements_named("first")[0];
        let names: Vec<_> = d.ancestors(first).map(|a| d.name(a).unwrap()).collect();
        assert_eq!(names, ["name", "painter", "painting"]);
    }

    #[test]
    fn postings_are_in_document_order() {
        let d = doc();
        for (_, nodes) in d.element_labels() {
            assert!(nodes.windows(2).all(|w| w[0] < w[1]));
        }
    }
}
