//! Per-document string interning for element and attribute names.
//!
//! XML corpora repeat a small vocabulary of tag names across millions of
//! nodes, so nodes store a 4-byte [`Sym`] instead of an owned string. Label
//! comparison during pattern matching is then a single integer compare.
//!
//! The map is keyed on raw bytes with an FNV-1a hasher: the parser interns
//! names straight from the input buffer, so the per-tag hot path is one
//! short-string hash and one probe — no owned-`String` allocation and no
//! UTF-8 validation for names already seen (validation runs once, when a
//! *new* name enters the table).

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// An interned name. Only meaningful together with the [`Interner`]
/// (in practice: the [`crate::Document`]) that produced it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Sym(pub u32);

/// FNV-1a (64-bit). Names are short — a handful of bytes — where FNV beats
/// the default SipHash by a wide margin; interning is per-document
/// vocabulary (and the index cache's, of entry keys), not an
/// attacker-controlled collision surface.
#[derive(Debug, Clone)]
pub struct Fnv(u64);

impl Default for Fnv {
    fn default() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl Hasher for Fnv {
    #[inline]
    fn finish(&self) -> u64 {
        self.0
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut h = self.0;
        for &b in bytes {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x100_0000_01b3);
        }
        self.0 = h;
    }
}

/// A simple append-only string interner.
#[derive(Debug, Default, Clone)]
pub struct Interner {
    map: HashMap<Box<[u8]>, Sym, BuildHasherDefault<Fnv>>,
    names: Vec<Box<str>>,
}

impl Interner {
    /// Creates an empty interner.
    pub fn new() -> Self {
        Self::default()
    }

    /// Interns `name`, returning its symbol (existing or fresh).
    pub fn intern(&mut self, name: &str) -> Sym {
        self.intern_bytes(name.as_bytes())
            .expect("&str input is valid UTF-8")
    }

    /// Interns a raw byte slice, returning `None` when the bytes are a
    /// *new* name that is not valid UTF-8. Known names are matched on
    /// bytes alone — no validation, no allocation.
    pub fn intern_bytes(&mut self, name: &[u8]) -> Option<Sym> {
        if let Some(&sym) = self.map.get(name) {
            return Some(sym);
        }
        let checked = std::str::from_utf8(name).ok()?;
        let sym = Sym(self.names.len() as u32);
        self.names.push(checked.into());
        self.map.insert(name.into(), sym);
        Some(sym)
    }

    /// Looks up the symbol for `name` without interning it.
    pub fn lookup(&self, name: &str) -> Option<Sym> {
        self.map.get(name.as_bytes()).copied()
    }

    /// Resolves a symbol back to its string.
    ///
    /// # Panics
    /// Panics if `sym` was not produced by this interner.
    pub fn resolve(&self, sym: Sym) -> &str {
        &self.names[sym.0 as usize]
    }

    /// Number of distinct interned names.
    pub fn len(&self) -> usize {
        self.names.len()
    }

    /// True when nothing has been interned.
    pub fn is_empty(&self) -> bool {
        self.names.is_empty()
    }

    /// Iterates over `(Sym, name)` pairs in interning order.
    pub fn iter(&self) -> impl Iterator<Item = (Sym, &str)> {
        self.names
            .iter()
            .enumerate()
            .map(|(i, n)| (Sym(i as u32), n.as_ref()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn intern_is_idempotent() {
        let mut i = Interner::new();
        let a = i.intern("painting");
        let b = i.intern("painter");
        let a2 = i.intern("painting");
        assert_eq!(a, a2);
        assert_ne!(a, b);
        assert_eq!(i.len(), 2);
    }

    #[test]
    fn resolve_round_trips() {
        let mut i = Interner::new();
        let s = i.intern("name");
        assert_eq!(i.resolve(s), "name");
        assert_eq!(i.lookup("name"), Some(s));
        assert_eq!(i.lookup("absent"), None);
    }

    #[test]
    fn iter_preserves_order() {
        let mut i = Interner::new();
        i.intern("a");
        i.intern("b");
        let names: Vec<&str> = i.iter().map(|(_, n)| n).collect();
        assert_eq!(names, ["a", "b"]);
    }

    #[test]
    fn intern_bytes_validates_only_new_names() {
        let mut i = Interner::new();
        let a = i.intern_bytes("musée".as_bytes()).unwrap();
        assert_eq!(i.resolve(a), "musée");
        assert_eq!(i.intern_bytes("musée".as_bytes()), Some(a));
        // A new name must be valid UTF-8.
        assert_eq!(i.intern_bytes(&[0xff, 0xfe]), None);
        assert_eq!(i.len(), 1);
    }
}
