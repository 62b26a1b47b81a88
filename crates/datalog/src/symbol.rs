//! Global string interner and the [`Symbol`] handle type.
//!
//! Predicate names, constants, variables and function symbols are all
//! interned once and referred to by a small copyable [`Symbol`].  Interning
//! keeps tuples compact (a `u32` per symbolic value) and makes equality and
//! hashing O(1), which matters because the bottom-up engine compares and
//! hashes values in every join step.

use std::collections::HashMap;
use std::fmt;
use std::sync::{OnceLock, RwLock};

/// An interned string.
///
/// `Symbol` is a cheap, copyable handle into the process-wide interner.  Two
/// symbols are equal iff the strings they intern are equal.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Symbol(u32);

struct Interner {
    /// Map from string to index in `strings`.
    map: HashMap<&'static str, u32>,
    /// All interned strings.  Strings are leaked; the set of distinct symbols
    /// in any workload is small and bounded by the program and data.
    strings: Vec<&'static str>,
}

impl Interner {
    fn new() -> Self {
        Interner {
            map: HashMap::new(),
            strings: Vec::new(),
        }
    }

    fn intern(&mut self, s: &str) -> u32 {
        if let Some(&id) = self.map.get(s) {
            return id;
        }
        let leaked: &'static str = Box::leak(s.to_owned().into_boxed_str());
        let id = self.strings.len() as u32;
        self.strings.push(leaked);
        self.map.insert(leaked, id);
        id
    }

    fn resolve(&self, id: u32) -> &'static str {
        self.strings[id as usize]
    }
}

fn interner() -> &'static RwLock<Interner> {
    static INTERNER: OnceLock<RwLock<Interner>> = OnceLock::new();
    INTERNER.get_or_init(|| RwLock::new(Interner::new()))
}

impl Symbol {
    /// Intern `s` and return its symbol.
    pub fn new(s: &str) -> Symbol {
        // Fast path: read lock only.
        {
            let guard = interner().read().unwrap();
            if let Some(&id) = guard.map.get(s) {
                return Symbol(id);
            }
        }
        Symbol(interner().write().unwrap().intern(s))
    }

    /// The interned string.
    pub fn as_str(&self) -> &'static str {
        interner().read().unwrap().resolve(self.0)
    }

    /// A stable numeric id (useful for dense tables keyed by symbol).
    pub fn id(&self) -> u32 {
        self.0
    }

    /// The symbol with the given interner id.  The inverse of
    /// [`Symbol::id`]; the id must have been produced by this process's
    /// interner — crate-private because only the value arena's
    /// inline-symbol encoding (`crate::arena`) can uphold that.
    pub(crate) fn from_id(id: u32) -> Symbol {
        Symbol(id)
    }
}

/// Every interned string, in id order — the symbol half of
/// [`crate::arena::ArenaSnapshot`]'s watermark capture.  The returned
/// vector is a point-in-time prefix: symbols interned after the call get
/// larger ids and are simply absent from it.
pub(crate) fn all_strings() -> Vec<&'static str> {
    interner().read().unwrap().strings.clone()
}

impl From<&str> for Symbol {
    fn from(s: &str) -> Self {
        Symbol::new(s)
    }
}

impl From<String> for Symbol {
    fn from(s: String) -> Self {
        Symbol::new(&s)
    }
}

impl fmt::Display for Symbol {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// A symbol written as a constant the parser reads back as the same
/// symbol: bare when it lexes as a lower-case identifier, single-quoted
/// otherwise (`'New York'`, `'X'`, `''`).  How terms and plain predicate
/// names render; [`Symbol`]'s own `Display` is the raw string.
pub(crate) struct Constant(pub Symbol);

impl fmt::Display for Constant {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = self.0.as_str();
        let mut chars = s.chars();
        let bare = chars
            .next()
            .is_some_and(|c| c.is_alphabetic() && !c.is_uppercase())
            && chars.all(|c| c.is_alphanumeric() || c == '_');
        if bare {
            f.write_str(s)
        } else {
            write!(f, "'{s}'")
        }
    }
}

impl fmt::Debug for Symbol {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Symbol({:?})", self.as_str())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interning_is_idempotent() {
        let a = Symbol::new("anc");
        let b = Symbol::new("anc");
        assert_eq!(a, b);
        assert_eq!(a.as_str(), "anc");
    }

    #[test]
    fn distinct_strings_distinct_symbols() {
        let a = Symbol::new("par");
        let b = Symbol::new("anc");
        assert_ne!(a, b);
        assert_ne!(a.id(), b.id());
    }

    #[test]
    fn display_round_trips() {
        let a = Symbol::new("same_generation");
        assert_eq!(a.to_string(), "same_generation");
    }

    #[test]
    fn constants_quote_what_would_not_lex_bare() {
        let shown = |s: &str| Constant(Symbol::new(s)).to_string();
        assert_eq!(shown("same_generation"), "same_generation");
        assert_eq!(shown("n0"), "n0");
        assert_eq!(shown("New York"), "'New York'");
        assert_eq!(shown("X"), "'X'");
        assert_eq!(shown("_x"), "'_x'");
        assert_eq!(shown("0a"), "'0a'");
        assert_eq!(shown(""), "''");
    }

    #[test]
    fn from_string_and_str_agree() {
        let a: Symbol = "flat".into();
        let b: Symbol = String::from("flat").into();
        assert_eq!(a, b);
    }

    #[test]
    fn many_symbols_resolve_correctly() {
        let syms: Vec<Symbol> = (0..200).map(|i| Symbol::new(&format!("s{i}"))).collect();
        for (i, s) in syms.iter().enumerate() {
            assert_eq!(s.as_str(), format!("s{i}"));
        }
    }
}
