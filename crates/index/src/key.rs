//! Index key encoding — the paper's `key(n)` function (Section 5):
//!
//! ```text
//! key(n) = e‖n.label            if n is an XML element
//!          a‖n.name             if n is an XML attribute      (name key)
//!          a‖n.name n.val       if n is an XML attribute      (value key)
//!          w‖n.val              if n is a word
//! ```
//!
//! Attribute nodes produce *two* keys — one reflecting the name, one also
//! reflecting the value — "these help speed up specific kinds of queries".
//! Word keys are extracted from text content via the standard tokenizer.
//!
//! Data paths (`inPath(n)`) are encoded as `/`-separated sequences of node
//! keys, e.g. `/epainting/ename/wOlympia`, exactly as in the paper's LUP
//! examples; extraction ([`crate::strategy`]) builds them incrementally.

/// Prefix for element keys.
pub const ELEMENT_PREFIX: char = 'e';
/// Prefix for attribute keys.
pub const ATTRIBUTE_PREFIX: char = 'a';
/// Prefix for word keys.
pub const WORD_PREFIX: char = 'w';

/// Appends `e‖label`.
pub fn push_element_key(out: &mut String, label: &str) {
    out.push(ELEMENT_PREFIX);
    out.push_str(label);
}

/// Appends `a‖name`.
pub fn push_attribute_key(out: &mut String, name: &str) {
    out.push(ATTRIBUTE_PREFIX);
    out.push_str(name);
}

/// Longest value / word fragment embedded in a key. Index keys become
/// store hash keys, which DynamoDB caps at 2 KB; truncating here (applied
/// identically at extraction and look-up, so matching is unaffected)
/// keeps any document indexable. Values this long cannot be told apart by
/// the index alone — evaluation on the fetched documents stays exact.
pub const MAX_KEY_VALUE_BYTES: usize = 512;

/// Cuts what was appended to `out` since `start` down to
/// [`MAX_KEY_VALUE_BYTES`], on a character boundary.
fn truncate_value(out: &mut String, start: usize) {
    if out.len() - start > MAX_KEY_VALUE_BYTES {
        let mut end = start + MAX_KEY_VALUE_BYTES;
        while !out.is_char_boundary(end) {
            end -= 1;
        }
        out.truncate(end);
    }
}

/// Appends `a‖name value` — the attribute *value* key (name and value
/// separated by one space, as in the paper's `aid 1863-1`). Values are
/// truncated to [`MAX_KEY_VALUE_BYTES`] and `/` is escaped (`%2F`, with
/// `%` as `%25`): value keys are embedded as components of `/`-separated
/// data paths, and an unescaped slash would corrupt LUP path matching.
/// `\n` is escaped too: LUP path lists are newline-joined when they must
/// fall back to the string-blob encoding. The escaping is applied
/// identically at extraction and look-up, so equality matching is
/// unaffected.
pub fn push_attribute_value_key(out: &mut String, name: &str, value: &str) {
    push_attribute_key(out, name);
    out.push(' ');
    let start = out.len();
    for c in value.chars() {
        match c {
            '%' => out.push_str("%25"),
            '/' => out.push_str("%2F"),
            '\n' => out.push_str("%0A"),
            c => out.push(c),
        }
    }
    truncate_value(out, start);
}

/// Appends `w‖word` (the word must already be tokenized/lowercased;
/// truncated to [`MAX_KEY_VALUE_BYTES`]).
pub fn push_word_key(out: &mut String, word: &str) {
    out.push(WORD_PREFIX);
    let start = out.len();
    out.push_str(word);
    truncate_value(out, start);
}

/// What `push` appends, as a fresh string.
fn pushed(push: impl FnOnce(&mut String)) -> String {
    let mut key = String::new();
    push(&mut key);
    key
}

/// `e‖label`.
pub fn element_key(label: &str) -> String {
    pushed(|k| push_element_key(k, label))
}

/// `a‖name`.
pub fn attribute_key(name: &str) -> String {
    pushed(|k| push_attribute_key(k, name))
}

/// `a‖name value`, see [`push_attribute_value_key`].
pub fn attribute_value_key(name: &str, value: &str) -> String {
    pushed(|k| push_attribute_value_key(k, name, value))
}

/// `w‖word`, see [`push_word_key`].
pub fn word_key(word: &str) -> String {
    pushed(|k| push_word_key(k, word))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn key_constructors_match_paper_examples() {
        assert_eq!(element_key("name"), "ename");
        assert_eq!(attribute_key("id"), "aid");
        assert_eq!(attribute_value_key("id", "1863-1"), "aid 1863-1");
        assert_eq!(word_key("olympia"), "wolympia");
    }

    #[test]
    fn slashes_in_attribute_values_are_escaped() {
        // A raw '/' would masquerade as a path separator in LUP data paths.
        let k = attribute_value_key("href", "a/b%c");
        assert_eq!(k, "ahref a%2Fb%25c");
        assert_eq!(attribute_value_key("t", "x\ny"), "at x%0Ay");
        assert!(!k["ahref ".len()..].contains('/'));
        // Extraction and look-up agree.
        assert_eq!(k, attribute_value_key("href", "a/b%c"));
    }

    #[test]
    fn oversized_values_truncate_consistently() {
        let long = "x".repeat(5000);
        let k = attribute_value_key("id", &long);
        assert!(k.len() < 600);
        // Extraction and look-up produce the same key for the same value.
        assert_eq!(k, attribute_value_key("id", &long));
        let w = word_key(&long);
        assert!(w.len() <= MAX_KEY_VALUE_BYTES + 1);
        // Truncation respects UTF-8 boundaries.
        let uni = "é".repeat(5000);
        let k = word_key(&uni);
        assert!(std::str::from_utf8(k.as_bytes()).is_ok());
    }
}
