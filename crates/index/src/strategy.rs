//! The four indexing strategies of the paper's Table 2 and their
//! extraction functions `I(d)`.
//!
//! | strategy | per key `key(n)` the index stores |
//! |---|---|
//! | LU    | `(URI(d), ε)` |
//! | LUP   | `(URI(d), {inPath₁(n) … inPathᵧ(n)})` |
//! | LUI   | `(URI(d), id₁(n)‖id₂(n)‖…‖id_z(n))` (pre-sorted, one value) |
//! | 2LUPI | both of the above, in two separate tables |
//!
//! Extraction walks the document once, grouping nodes by key; word keys
//! come from tokenized text content, attribute nodes contribute both their
//! name key and their value key (Section 5). The walk is strategy-aware:
//! it gathers paths only for LUP/2LUPI and IDs only for LUI/2LUPI, builds
//! every key and path in a reused buffer, and allocates only what the
//! entries keep — one shared key per (key, document), one string per
//! distinct path.

use crate::key;
use amada_xml::{for_each_word, Document, NodeKind, StructuralId};
use std::collections::HashMap;
use std::fmt;
use std::sync::Arc;

/// An indexing strategy (paper Table 2).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Strategy {
    /// Label–URI.
    Lu,
    /// Label–URI–Path.
    Lup,
    /// Label–URI–ID.
    Lui,
    /// Label–URI–Path + Label–URI–ID (two materialized indexes).
    TwoLupi,
}

impl Strategy {
    /// The paper's four strategies, in its presentation order.
    pub const ALL: [Strategy; 4] = [
        Strategy::Lu,
        Strategy::Lup,
        Strategy::Lui,
        Strategy::TwoLupi,
    ];

    /// The paper's name for the strategy.
    pub fn name(self) -> &'static str {
        match self {
            Strategy::Lu => "LU",
            Strategy::Lup => "LUP",
            Strategy::Lui => "LUI",
            Strategy::TwoLupi => "2LUPI",
        }
    }

    /// Parses a strategy name (case-insensitive).
    pub fn parse(s: &str) -> Option<Strategy> {
        match s.to_ascii_uppercase().as_str() {
            "LU" => Some(Strategy::Lu),
            "LUP" => Some(Strategy::Lup),
            "LUI" => Some(Strategy::Lui),
            "2LUPI" => Some(Strategy::TwoLupi),
            _ => None,
        }
    }

    /// The key-value tables this strategy stores entries in.
    /// Every strategy but 2LUPI uses a single table; 2LUPI materializes
    /// its two sub-indexes in two tables (paper Section 6).
    pub fn tables(self) -> &'static [&'static str] {
        match self {
            Strategy::Lu | Strategy::Lup | Strategy::Lui => &[TABLE_MAIN],
            Strategy::TwoLupi => &[TABLE_PATH, TABLE_ID],
        }
    }
}

impl fmt::Display for Strategy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Table used by the single-table strategies.
pub const TABLE_MAIN: &str = "amada-index";
/// 2LUPI path sub-index.
pub const TABLE_PATH: &str = "amada-index-path";
/// 2LUPI ID sub-index.
pub const TABLE_ID: &str = "amada-index-id";

/// Extraction options.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ExtractOptions {
    /// Whether word (`w‖…`) keys are produced — the full-text variant of
    /// Figure 8. Queries with `contains` predicates degrade (less precise
    /// look-ups) without it.
    pub index_words: bool,
}

impl Default for ExtractOptions {
    fn default() -> Self {
        ExtractOptions { index_words: true }
    }
}

/// What the index stores for one `(key, document)`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Payload {
    /// LU: the null string ε.
    Presence,
    /// LUP: the distinct data paths under which the key occurs.
    Paths(Vec<String>),
    /// LUI: the `pre`-sorted structural IDs of the key's nodes.
    Ids(Vec<StructuralId>),
}

/// One extracted index entry: everything to be stored under `key` for this
/// document (the paper's `(k, (a, v⁺)⁺)` with `a = URI(d)`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IndexEntry {
    /// Destination table.
    pub table: &'static str,
    /// The index key (hash key in the store); every item encoded from
    /// this entry shares it.
    pub key: Arc<str>,
    /// The document URI (attribute name in the store), shared by all of
    /// the document's entries and items.
    pub uri: Arc<str>,
    /// The values.
    pub payload: Payload,
}

impl IndexEntry {
    /// Approximate raw size of the entry (the paper's `sr(D, I)`
    /// contribution), before store-specific encoding.
    pub fn raw_bytes(&self) -> usize {
        let payload = match &self.payload {
            Payload::Presence => 0,
            Payload::Paths(ps) => ps.iter().map(String::len).sum(),
            Payload::Ids(ids) => crate::codec::encoded_ids_len(ids),
        };
        self.key.len() + self.uri.len() + payload
    }
}

/// What one document holds under one key.
#[derive(Debug)]
struct KeyAcc {
    key: Arc<str>,
    /// The distinct data paths of the key's nodes, sorted.
    paths: Vec<String>,
    /// The `pre`-sorted IDs of the key's nodes, filled (exactly sized)
    /// once the walk has counted them.
    ids: Vec<StructuralId>,
    id_count: usize,
}

/// The single extraction pass: per key, the paths and IDs the strategy
/// stores (and nothing it does not).
struct Collector {
    want_paths: bool,
    want_ids: bool,
    /// Key → position in `keys`.
    slots: HashMap<Arc<str>, usize>,
    keys: Vec<KeyAcc>,
    /// Every `(key position, node ID)` met, in document order.
    ids: Vec<(usize, StructuralId)>,
    /// The key of the node in hand.
    key: String,
    /// The encoded path of the element in hand, extended in place by one
    /// component for its attributes and words.
    path: String,
    /// `path` length of the open element at each depth (`[0]` = 0: the
    /// root's parent has the empty path). Preorder keeps it current.
    path_len: Vec<usize>,
}

impl Collector {
    /// Records a node with `self.key` and `sid` under the element open at
    /// `sid.depth - 1`; `extend` keeps the node's path as the open path
    /// at its own depth (elements).
    fn note(&mut self, sid: StructuralId, extend: bool) {
        let slot = match self.slots.get(self.key.as_str()) {
            Some(&slot) => slot,
            None => {
                let key: Arc<str> = self.key.as_str().into();
                self.slots.insert(key.clone(), self.keys.len());
                self.keys.push(KeyAcc {
                    key,
                    paths: Vec::new(),
                    ids: Vec::new(),
                    id_count: 0,
                });
                self.keys.len() - 1
            }
        };
        let acc = &mut self.keys[slot];
        if self.want_paths {
            let depth = sid.depth as usize;
            let parent_len = self.path_len[depth - 1];
            self.path.truncate(parent_len);
            self.path.push('/');
            self.path.push_str(&self.key);
            if let Err(at) = acc.paths.binary_search_by(|p| p.as_str().cmp(&self.path)) {
                if acc.paths.is_empty() {
                    acc.paths.reserve_exact(1);
                }
                acc.paths.insert(at, self.path.clone());
            }
            if extend {
                self.path_len.truncate(depth);
                self.path_len.push(self.path.len());
            }
        }
        if self.want_ids {
            acc.id_count += 1;
            self.ids.push((slot, sid));
        }
    }
}

/// Walks the document once and groups, per key, the node IDs and data
/// paths the strategy stores. IDs come out `pre`-sorted because the walk
/// is in document order; a node's path is its parent's plus one component
/// (preorder guarantees parents precede children).
fn collect(doc: &Document, opts: ExtractOptions, want_paths: bool, want_ids: bool) -> Vec<KeyAcc> {
    // About every other node brings a new key.
    let distinct = doc.node_count() / 2;
    let mut c = Collector {
        want_paths,
        want_ids,
        slots: HashMap::with_capacity(distinct),
        keys: Vec::with_capacity(distinct),
        ids: Vec::with_capacity(if want_ids { doc.node_count() } else { 0 }),
        key: String::new(),
        path: String::new(),
        path_len: vec![0],
    };
    for n in doc.all_nodes() {
        let sid = doc.sid(n);
        c.key.clear();
        match doc.kind(n) {
            NodeKind::Element => {
                key::push_element_key(&mut c.key, doc.name(n).expect("elements have names"));
                c.note(sid, true);
            }
            NodeKind::Attribute => {
                let name = doc.name(n).expect("attributes have names");
                key::push_attribute_key(&mut c.key, name);
                c.note(sid, false);
                c.key.clear();
                key::push_attribute_value_key(&mut c.key, name, doc.value(n).unwrap_or_default());
                c.note(sid, false);
            }
            NodeKind::Text if opts.index_words => {
                for_each_word(doc.value(n).unwrap_or_default(), |word| {
                    c.key.clear();
                    key::push_word_key(&mut c.key, word);
                    c.note(sid, false);
                });
            }
            NodeKind::Text => {}
        }
    }
    for acc in &mut c.keys {
        acc.ids.reserve_exact(acc.id_count);
    }
    for (slot, sid) in c.ids {
        // A word may occur twice in one text node; the ID list stores the
        // node once.
        let ids = &mut c.keys[slot].ids;
        if ids.last() != Some(&sid) {
            ids.push(sid);
        }
    }
    c.keys
}

/// Runs a strategy's extraction function `I(d)` over one document.
pub fn extract(doc: &Document, strategy: Strategy, opts: ExtractOptions) -> Vec<IndexEntry> {
    let (want_paths, want_ids) = match strategy {
        Strategy::Lu => (false, false),
        Strategy::Lup => (true, false),
        Strategy::Lui => (false, true),
        Strategy::TwoLupi => (true, true),
    };
    let mut keys = collect(doc, opts, want_paths, want_ids);
    keys.sort_unstable_by(|a, b| a.key.cmp(&b.key));
    let uri: Arc<str> = doc.uri().into();
    let entry = |table, key, payload| IndexEntry {
        table,
        key,
        uri: uri.clone(),
        payload,
    };
    let mut out = Vec::with_capacity(keys.len() * strategy.tables().len());
    for k in keys {
        match strategy {
            Strategy::Lu => out.push(entry(TABLE_MAIN, k.key, Payload::Presence)),
            Strategy::Lup => out.push(entry(TABLE_MAIN, k.key, Payload::Paths(k.paths))),
            Strategy::Lui => out.push(entry(TABLE_MAIN, k.key, Payload::Ids(k.ids))),
            Strategy::TwoLupi => {
                out.push(entry(TABLE_PATH, k.key.clone(), Payload::Paths(k.paths)));
                out.push(entry(TABLE_ID, k.key, Payload::Ids(k.ids)));
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use amada_xml::Document;

    const DELACROIX: &str = "<painting id=\"1854-1\"><name>The Lion Hunt</name>\
        <painter><name><first>Eugene</first><last>Delacroix</last></name></painter></painting>";

    fn doc() -> Document {
        Document::parse_str("delacroix.xml", DELACROIX).unwrap()
    }

    fn find<'a>(entries: &'a [IndexEntry], key: &str) -> &'a IndexEntry {
        entries
            .iter()
            .find(|e| &*e.key == key)
            .unwrap_or_else(|| panic!("no entry {key}"))
    }

    #[test]
    fn lu_produces_presence_entries() {
        let entries = extract(&doc(), Strategy::Lu, ExtractOptions::default());
        let e = find(&entries, "ename");
        assert_eq!(e.payload, Payload::Presence);
        assert_eq!(&*e.uri, "delacroix.xml");
        // Attribute name and value keys both exist.
        assert!(entries.iter().any(|e| &*e.key == "aid"));
        assert!(entries.iter().any(|e| &*e.key == "aid 1854-1"));
        // Word keys.
        assert!(entries.iter().any(|e| &*e.key == "wlion"));
    }

    #[test]
    fn lup_paths_match_paper_figure4() {
        let entries = extract(&doc(), Strategy::Lup, ExtractOptions::default());
        let e = find(&entries, "ename");
        assert_eq!(
            e.payload,
            Payload::Paths(vec![
                "/epainting/ename".into(),
                "/epainting/epainter/ename".into()
            ])
        );
        let id = find(&entries, "aid");
        assert_eq!(id.payload, Payload::Paths(vec!["/epainting/aid".into()]));
        let value = find(&entries, "aid 1854-1");
        assert_eq!(
            value.payload,
            Payload::Paths(vec!["/epainting/aid 1854-1".into()])
        );
        let w = find(&entries, "wlion");
        assert_eq!(
            w.payload,
            Payload::Paths(vec!["/epainting/ename/wlion".into()])
        );
    }

    #[test]
    fn lui_ids_match_paper_section53() {
        let entries = extract(&doc(), Strategy::Lui, ExtractOptions::default());
        let e = find(&entries, "ename");
        assert_eq!(
            e.payload,
            Payload::Ids(vec![StructuralId::new(3, 3, 2), StructuralId::new(6, 8, 3)])
        );
        let id = find(&entries, "aid 1854-1");
        assert_eq!(id.payload, Payload::Ids(vec![StructuralId::new(2, 1, 2)]));
    }

    #[test]
    fn two_lupi_materializes_both_tables() {
        let entries = extract(&doc(), Strategy::TwoLupi, ExtractOptions::default());
        let path_entries: Vec<_> = entries.iter().filter(|e| e.table == TABLE_PATH).collect();
        let id_entries: Vec<_> = entries.iter().filter(|e| e.table == TABLE_ID).collect();
        assert_eq!(path_entries.len(), id_entries.len());
        assert!(!path_entries.is_empty());
    }

    #[test]
    fn ids_are_pre_sorted_per_key() {
        let entries = extract(&doc(), Strategy::Lui, ExtractOptions::default());
        for e in &entries {
            if let Payload::Ids(ids) = &e.payload {
                assert!(ids.windows(2).all(|w| w[0].pre < w[1].pre), "key {}", e.key);
            }
        }
    }

    #[test]
    fn no_words_without_fulltext() {
        let entries = extract(&doc(), Strategy::Lu, ExtractOptions { index_words: false });
        assert!(!entries.iter().any(|e| e.key.starts_with('w')));
        // Attribute value keys are kept: they are not full-text.
        assert!(entries.iter().any(|e| &*e.key == "aid 1854-1"));
    }

    #[test]
    fn fulltext_index_is_larger() {
        let with: usize = extract(&doc(), Strategy::Lup, ExtractOptions::default())
            .iter()
            .map(IndexEntry::raw_bytes)
            .sum();
        let without: usize = extract(&doc(), Strategy::Lup, ExtractOptions { index_words: false })
            .iter()
            .map(IndexEntry::raw_bytes)
            .sum();
        assert!(with > without);
    }

    #[test]
    fn strategy_parse_and_display() {
        for s in Strategy::ALL {
            assert_eq!(Strategy::parse(s.name()), Some(s));
            assert_eq!(s.to_string(), s.name());
        }
        assert_eq!(Strategy::parse("2lupi"), Some(Strategy::TwoLupi));
        assert_eq!(Strategy::parse("nope"), None);
    }

    /// The parent commit's extraction, kept as the reference: every key
    /// and path `format!`ted per node, paths and IDs accumulated for every
    /// strategy whether it stores them or not.
    mod reference {
        use super::super::*;
        use std::collections::BTreeMap;

        fn truncated(value: &str) -> &str {
            if value.len() <= key::MAX_KEY_VALUE_BYTES {
                return value;
            }
            let mut end = key::MAX_KEY_VALUE_BYTES;
            while !value.is_char_boundary(end) {
                end -= 1;
            }
            &value[..end]
        }

        fn attribute_value_key(name: &str, value: &str) -> String {
            let escaped = value
                .replace('%', "%25")
                .replace('/', "%2F")
                .replace('\n', "%0A");
            format!("a{name} {}", truncated(&escaped))
        }

        #[derive(Debug, Default)]
        struct KeyAcc {
            paths: BTreeMap<String, ()>,
            ids: Vec<StructuralId>,
        }

        fn collect(doc: &Document, opts: ExtractOptions) -> BTreeMap<String, KeyAcc> {
            let mut acc: BTreeMap<String, KeyAcc> = BTreeMap::new();
            let mut paths: Vec<String> = vec![String::new(); doc.node_count()];
            for n in doc.all_nodes() {
                let parent_path: &str = match doc.parent(n) {
                    Some(p) => &paths[p.index()],
                    None => "",
                };
                match doc.kind(n) {
                    NodeKind::Element => {
                        let k = format!("e{}", doc.name(n).expect("elements have names"));
                        let path = format!("{parent_path}/{k}");
                        let e = acc.entry(k).or_default();
                        e.paths.insert(path.clone(), ());
                        e.ids.push(doc.sid(n));
                        paths[n.index()] = path;
                    }
                    NodeKind::Attribute => {
                        let name = doc.name(n).expect("attributes have names");
                        let value = doc.value(n).unwrap_or_default();
                        let sid = doc.sid(n);
                        let name_key = format!("a{name}");
                        let value_key = attribute_value_key(name, value);
                        let e = acc.entry(name_key.clone()).or_default();
                        e.paths.insert(format!("{parent_path}/{name_key}"), ());
                        e.ids.push(sid);
                        let ev = acc.entry(value_key.clone()).or_default();
                        ev.paths.insert(format!("{parent_path}/{value_key}"), ());
                        ev.ids.push(sid);
                    }
                    NodeKind::Text => {
                        if !opts.index_words {
                            continue;
                        }
                        let sid = doc.sid(n);
                        for_each_word(doc.value(n).unwrap_or_default(), |word| {
                            let wk = format!("w{}", truncated(word));
                            let e = acc.entry(wk.clone()).or_default();
                            e.paths.insert(format!("{parent_path}/{wk}"), ());
                            if e.ids.last() != Some(&sid) {
                                e.ids.push(sid);
                            }
                        });
                    }
                }
            }
            acc
        }

        pub fn extract(
            doc: &Document,
            strategy: Strategy,
            opts: ExtractOptions,
        ) -> Vec<IndexEntry> {
            let uri: Arc<str> = doc.uri().into();
            let mut out = Vec::new();
            for (k, v) in collect(doc, opts) {
                let mut entry = |table, payload| {
                    out.push(IndexEntry {
                        table,
                        key: k.as_str().into(),
                        uri: uri.clone(),
                        payload,
                    })
                };
                let paths = || Payload::Paths(v.paths.keys().cloned().collect());
                match strategy {
                    Strategy::Lu => entry(TABLE_MAIN, Payload::Presence),
                    Strategy::Lup => entry(TABLE_MAIN, paths()),
                    Strategy::Lui => entry(TABLE_MAIN, Payload::Ids(v.ids.clone())),
                    Strategy::TwoLupi => {
                        entry(TABLE_PATH, paths());
                        entry(TABLE_ID, Payload::Ids(v.ids.clone()));
                    }
                }
            }
            out
        }
    }

    /// The strategy-aware extraction produces exactly what the parent's
    /// full-accumulation extraction did: all four strategies, words on and
    /// off, over an XMark corpus and the checker's adversarial documents.
    #[test]
    fn extraction_equals_the_full_accumulation_reference() {
        let xmark = amada_xmark::generate_corpus(&amada_xmark::CorpusConfig {
            num_documents: 200,
            target_doc_bytes: 3000,
            ..Default::default()
        })
        .into_iter()
        .map(|d| (d.uri, d.xml));
        let generated = (0..60).flat_map(|i| amada_check::generate_case(0xE8, i).docs);
        let mut documents = 0;
        for (uri, xml) in xmark.chain(generated) {
            let d = Document::parse_str(uri, &xml).unwrap();
            documents += 1;
            for strategy in Strategy::ALL {
                for index_words in [true, false] {
                    let opts = ExtractOptions { index_words };
                    assert_eq!(
                        extract(&d, strategy, opts),
                        reference::extract(&d, strategy, opts),
                        "{} under {strategy}, words {index_words}",
                        d.uri()
                    );
                }
            }
        }
        assert!(documents > 260, "{documents} documents compared");
    }

    #[test]
    fn repeated_word_in_one_text_node_indexed_once() {
        let d = Document::parse_str("t.xml", "<a>lion lion lion</a>").unwrap();
        let entries = extract(&d, Strategy::Lui, ExtractOptions::default());
        let e = find(&entries, "wlion");
        if let Payload::Ids(ids) = &e.payload {
            assert_eq!(ids.len(), 1);
        } else {
            panic!("expected ids");
        }
    }
}
