//! The global value arena: hash-consed ground values as `Copy` u32 handles.
//!
//! Relations used to store rows as `Vec<Value>`: every insert, dedup probe
//! and index lookup hashed and cloned enum-tagged heap values.  The arena
//! interns every ground [`Value`] to a [`ValId`] once, so the storage and
//! join layers work entirely on `u32`s: equality is an integer compare,
//! hashing is a word multiply, and binding a join variable copies four
//! bytes instead of cloning an `Arc`.
//!
//! # Encoding
//!
//! A [`ValId`] packs a 2-bit tag and a 30-bit payload:
//!
//! * `00` — an **inline integer**: payload = value + 2^29, covering
//!   `-2^29 .. 2^29`.  Every integer the workloads produce short of the
//!   saturated counting indexes fits here and never touches the table.
//! * `01` — an **inline symbol**: payload = the [`Symbol`] interner id.
//!   Symbolic constants are ids already; the arena just re-tags them.
//! * `10` — a **table node**: payload indexes the global node table, which
//!   holds out-of-range integers, overflow symbols, and compound terms
//!   (functor + child `ValId`s + cached depth), hash-consed so structural
//!   equality coincides with id equality all the way down.
//! * `11` — reserved for the single [`ValId::NULL`] sentinel, which the
//!   engine's binding frames use for "unbound".
//!
//! The table is append-only and immutable once written, so reads are
//! lock-free: nodes live in power-of-two chunks behind `AtomicPtr`s (no
//! reallocation ever moves a node), and only interning misses take the
//! write lock.  This mirrors the [`Symbol`] interner one level up.
//!
//! Like the symbol interner, the arena is process-wide and grows
//! monotonically; the set of distinct ground values in a workload is
//! bounded by the data and the derived fixpoint.  Note that *lookups*
//! intern too: probing a relation with a never-stored constant (a query
//! for an unknown key) adds that constant to the arena — the same
//! accepted trade the symbol interner makes for parsed names.  Inline
//! ints/symbols cost nothing; only novel compound constants allocate a
//! node, a few dozen bytes per distinct term, which stays negligible
//! unless a serving workload streams unbounded *distinct* compound query
//! constants (revisit with an epoch/scoped arena if that workload ever
//! materializes).

use crate::symbol::Symbol;
use crate::term::Value;
use std::collections::HashMap;
use std::fmt;
use std::sync::atomic::{AtomicPtr, Ordering};
use std::sync::{OnceLock, RwLock};

const TAG_SHIFT: u32 = 30;
const PAYLOAD_MASK: u32 = (1 << TAG_SHIFT) - 1;
const TAG_INT: u32 = 0;
const TAG_SYM: u32 = 1;
const TAG_REF: u32 = 2;

/// Bias added to inline integers: payload = value + 2^29.
const INT_BIAS: i64 = 1 << 29;

/// An interned ground value: a cheap, copyable handle such that two ids are
/// equal iff the values they intern are structurally equal.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ValId(u32);

/// One entry of the global node table (the non-inline values).
#[derive(Clone, PartialEq, Eq, Hash)]
enum Node {
    /// An integer outside the inline range.
    Int(i64),
    /// A symbol whose interner id exceeds the inline payload (practically
    /// unreachable; kept for correctness).
    Sym(Symbol),
    /// A compound value: functor, interned children, cached nesting depth.
    App(Symbol, Box<[ValId]>, u32),
}

/// Chunked, append-only node storage with lock-free reads.
///
/// Chunk `k` holds `1024 << k` nodes; a node's address never changes after
/// it is written, and every published [`ValId`] refers to a fully written
/// slot (ids escape the interner only after the release-store below).
///
/// These are the crate's only `unsafe` blocks.  They rest on three
/// invariants, each kept by this file alone:
///
/// * **Nothing is freed or moved.**  Chunk arrays and nodes are
///   `Box::leak`ed, so every pointer stored here stays valid for
///   `'static`; a node is never written again after its pointer is
///   stored, so no `&mut` to it ever exists.
/// * **Only the interner writes.**  [`Chunks::set`] runs with the arena's
///   write lock held, so one thread at a time allocates a chunk or stores
///   a node, and a chunk is allocated at most once.
/// * **Only published ids are read.**  A table [`ValId`] is made in one
///   place, [`intern_node`], after its node was stored; its payload field
///   is private to this file, and no public function builds one from a
///   raw word.  A thread holding such an id therefore got it from the
///   interner (through the arena lock) or from another thread through a
///   safe, synchronizing hand-off (a channel, a lock, a join).  Either
///   way the stores of its chunk pointer and node pointer happen before
///   the reader's `Acquire` loads, which see them non-null.
struct Chunks {
    chunks: [AtomicPtr<AtomicPtr<Node>>; CHUNK_COUNT],
}

const FIRST_CHUNK_BITS: u32 = 10; // chunk 0 holds 1024 nodes
const CHUNK_COUNT: usize = (TAG_SHIFT - FIRST_CHUNK_BITS + 1) as usize;

/// `(chunk index, offset within chunk)` of node `idx`.
#[inline]
fn chunk_of(idx: u32) -> (usize, usize) {
    let adjusted = idx as u64 + (1 << FIRST_CHUNK_BITS);
    let k = 63 - adjusted.leading_zeros();
    (
        (k - FIRST_CHUNK_BITS) as usize,
        (adjusted - (1u64 << k)) as usize,
    )
}

#[inline]
fn chunk_len(chunk: usize) -> usize {
    1 << (FIRST_CHUNK_BITS as usize + chunk)
}

impl Chunks {
    fn new() -> Chunks {
        Chunks {
            chunks: std::array::from_fn(|_| AtomicPtr::new(std::ptr::null_mut())),
        }
    }

    /// Read node `idx`.  Safe for any id the interner has published.
    #[inline]
    fn get(&self, idx: u32) -> &'static Node {
        let (chunk, offset) = chunk_of(idx);
        let base = self.chunks[chunk].load(Ordering::Acquire);
        debug_assert!(!base.is_null(), "ValId refers past the node table");
        // SAFETY: `idx` is the payload of a published id, so `set` stored
        // this chunk's pointer (Release) before the id existed and the
        // Acquire load above sees it: `base` is the start of a leaked
        // array of `chunk_len(chunk)` slots.  `chunk_of` keeps `offset`
        // below that length, so `base.add(offset)` stays inside the
        // array, and the array is never freed, so the shared `&'static`
        // reference is valid.  Slots are `AtomicPtr`s: concurrent `store`s
        // to other slots of the array go through `&` too and do not alias
        // a `&mut`.
        let slot = unsafe { &*base.add(offset) };
        let node = slot.load(Ordering::Acquire);
        debug_assert!(!node.is_null(), "ValId refers to an unwritten slot");
        // SAFETY: the slot of a published id was stored (Release) with a
        // pointer from `Box::leak` before the id existed, and this Acquire
        // load sees that store.  The node is never freed and never written
        // again, so a shared `&'static Node` to it is sound from any
        // thread (`Node` holds only `Send + Sync` data).
        unsafe { &*node }
    }

    /// Store `node` at `idx` (called with the interner write lock held)
    /// and return the leaked, immortal reference to it.
    fn set(&self, idx: u32, node: Node) -> &'static Node {
        let (chunk, offset) = chunk_of(idx);
        let mut base = self.chunks[chunk].load(Ordering::Acquire);
        if base.is_null() {
            let fresh: Box<[AtomicPtr<Node>]> = (0..chunk_len(chunk))
                .map(|_| AtomicPtr::new(std::ptr::null_mut()))
                .collect();
            base = Box::leak(fresh).as_mut_ptr();
            self.chunks[chunk].store(base, Ordering::Release);
        }
        let leaked: &'static Node = Box::leak(Box::new(node));
        // SAFETY: `base` is non-null — loaded after another interner call
        // allocated it, or allocated just above — and points at a leaked,
        // never-freed array of `chunk_len(chunk)` slots; `chunk_of` keeps
        // `offset` below that length.  The slot is an `AtomicPtr`, so the
        // store goes through a shared reference while readers load other
        // slots.  The store is Release: a reader that obtains this id
        // (only after this function returns and the write lock drops)
        // sees the node.
        let slot = unsafe { &*base.add(offset) };
        slot.store(leaked as *const Node as *mut Node, Ordering::Release);
        leaked
    }
}

struct ArenaState {
    /// Node -> table index, for hash-consing.  The keys borrow the leaked
    /// table nodes themselves (they never move or die), so each node is
    /// stored exactly once.
    map: HashMap<&'static Node, u32>,
    /// Number of nodes stored.
    len: u32,
}

struct Arena {
    state: RwLock<ArenaState>,
    nodes: Chunks,
}

fn arena() -> &'static Arena {
    static ARENA: OnceLock<Arena> = OnceLock::new();
    ARENA.get_or_init(|| Arena {
        state: RwLock::new(ArenaState {
            map: HashMap::new(),
            len: 0,
        }),
        nodes: Chunks::new(),
    })
}

fn intern_node(node: Node) -> ValId {
    let a = arena();
    {
        let state = a.state.read().unwrap();
        if let Some(&idx) = state.map.get(&node) {
            return ValId::from_parts(TAG_REF, idx);
        }
    }
    let mut state = a.state.write().unwrap();
    if let Some(&idx) = state.map.get(&node) {
        return ValId::from_parts(TAG_REF, idx);
    }
    let idx = state.len;
    assert!(idx <= PAYLOAD_MASK, "value arena exceeds 2^30 nodes");
    let leaked = a.nodes.set(idx, node);
    state.map.insert(leaked, idx);
    state.len = idx + 1;
    ValId::from_parts(TAG_REF, idx)
}

impl ValId {
    /// The "unbound" sentinel (never a valid interned value).
    pub const NULL: ValId = ValId(u32::MAX);

    #[inline]
    fn from_parts(tag: u32, payload: u32) -> ValId {
        debug_assert!(payload <= PAYLOAD_MASK);
        ValId((tag << TAG_SHIFT) | payload)
    }

    #[inline]
    fn tag(self) -> u32 {
        self.0 >> TAG_SHIFT
    }

    #[inline]
    fn payload(self) -> u32 {
        self.0 & PAYLOAD_MASK
    }

    /// The raw encoded word (stable within a process run; used for
    /// hashing).
    #[inline]
    pub fn raw(self) -> u32 {
        self.0
    }

    /// True iff this is the [`ValId::NULL`] sentinel.
    #[inline]
    pub fn is_null(self) -> bool {
        self == ValId::NULL
    }

    /// Intern an integer.
    #[inline]
    pub fn from_int(v: i64) -> ValId {
        if (-INT_BIAS..INT_BIAS).contains(&v) {
            ValId::from_parts(TAG_INT, (v + INT_BIAS) as u32)
        } else {
            intern_node(Node::Int(v))
        }
    }

    /// Intern a symbolic constant.
    #[inline]
    pub fn from_sym(s: Symbol) -> ValId {
        if s.id() <= PAYLOAD_MASK {
            ValId::from_parts(TAG_SYM, s.id())
        } else {
            intern_node(Node::Sym(s))
        }
    }

    /// Intern a compound value from already-interned children.
    pub fn from_app(functor: Symbol, args: &[ValId]) -> ValId {
        let depth = 1 + args.iter().map(|a| a.depth() as u32).max().unwrap_or(0);
        intern_node(Node::App(functor, args.into(), depth))
    }

    /// Intern a ground [`Value`] (recursively).
    pub fn intern(value: &Value) -> ValId {
        match value {
            Value::Int(i) => ValId::from_int(*i),
            Value::Sym(s) => ValId::from_sym(*s),
            Value::App(cell) => {
                let args: Vec<ValId> = cell.1.iter().map(ValId::intern).collect();
                ValId::from_app(cell.0, &args)
            }
        }
    }

    /// The integer this id interns, if it interns one.
    #[inline]
    pub fn as_int(self) -> Option<i64> {
        match self.tag() {
            TAG_INT => Some(self.payload() as i64 - INT_BIAS),
            TAG_REF => match arena().nodes.get(self.payload()) {
                Node::Int(i) => Some(*i),
                _ => None,
            },
            _ => None,
        }
    }

    /// The symbol this id interns, if it interns one.
    #[inline]
    pub fn as_sym(self) -> Option<Symbol> {
        match self.tag() {
            TAG_SYM => Some(Symbol::from_id(self.payload())),
            TAG_REF => match arena().nodes.get(self.payload()) {
                Node::Sym(s) => Some(*s),
                _ => None,
            },
            _ => None,
        }
    }

    /// The functor and children of the compound value this id interns, if
    /// it interns one.  The returned references are `'static`: nodes are
    /// immutable and never deallocated.
    #[inline]
    pub fn as_app(self) -> Option<(Symbol, &'static [ValId])> {
        if self.tag() != TAG_REF {
            return None;
        }
        match arena().nodes.get(self.payload()) {
            Node::App(f, args, _) => Some((*f, args)),
            _ => None,
        }
    }

    /// The nesting depth of the interned value (constants are 0), cached at
    /// intern time so the engine's term-depth limit check is O(1).
    #[inline]
    pub fn depth(self) -> usize {
        if self.tag() != TAG_REF {
            return 0;
        }
        match arena().nodes.get(self.payload()) {
            Node::App(_, _, depth) => *depth as usize,
            _ => 0,
        }
    }

    /// Decode back into an owned [`Value`].
    ///
    /// # Panics
    ///
    /// Panics on [`ValId::NULL`] — the unbound sentinel interns nothing
    /// (callers must check [`ValId::is_null`] first; a panic here is a
    /// deterministic failure, where indexing the node table with the
    /// sentinel payload would not be).
    pub fn value(self) -> Value {
        match self.tag() {
            TAG_INT => Value::Int(self.payload() as i64 - INT_BIAS),
            TAG_SYM => Value::Sym(Symbol::from_id(self.payload())),
            TAG_REF => match arena().nodes.get(self.payload()) {
                Node::Int(i) => Value::Int(*i),
                Node::Sym(s) => Value::Sym(*s),
                Node::App(f, args, _) => Value::app(*f, args.iter().map(|a| a.value()).collect()),
            },
            _ => panic!("decoding the NULL (unbound) ValId sentinel"),
        }
    }
}

/// One node of an [`ArenaSnapshot`]: a process-independent description of
/// a node-table entry, referring to other values only through *snapshot*
/// coordinates (symbol ids and raw [`ValId`] words as they were in the
/// capturing process).  [`ArenaSnapshot::install`] translates these back
/// into live handles.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SnapNode {
    /// An integer outside the inline range.
    Int(i64),
    /// An overflow symbol, by its interner id *in the capturing process*.
    Sym(u32),
    /// A compound value.
    App {
        /// The functor's interner id in the capturing process.
        functor: u32,
        /// The children's raw [`ValId`] words in the capturing process.
        /// Table references always point at lower node indexes (children
        /// are interned before their parent), so installing in order
        /// resolves them.
        children: Vec<u32>,
    },
}

/// A watermark snapshot of the process-wide interners: every symbol
/// string (in id order) and every node-table entry (in index order) that
/// existed when [`ArenaSnapshot::capture`] ran.
///
/// Raw [`ValId`] words and [`Symbol`] ids are only meaningful within one
/// process run — inline symbols carry interner ids, table references
/// index the process-global arena, and both depend on interning order.
/// A snapshot is the *portable* form: strings and structural node
/// descriptions, good to serialize.  [`ArenaSnapshot::install`] re-interns
/// everything (in order, so children precede parents) and returns a
/// [`ValIdRemap`] translating captured raw words into live ids.  Within
/// the capturing process itself, hash-consing makes installation
/// idempotent: every id remaps to itself.
///
/// The interners are append-only, so a snapshot is a consistent prefix
/// even if other threads keep interning during capture: the node
/// watermark is read first, and every node below it is fully published.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ArenaSnapshot {
    symbols: Vec<String>,
    nodes: Vec<SnapNode>,
}

impl ArenaSnapshot {
    /// Capture the current interner contents: all symbol strings and all
    /// node-table entries up to this instant's watermarks.
    pub fn capture() -> ArenaSnapshot {
        // Node watermark first: every node below `len` is fully written,
        // and its symbols/children were interned (= have smaller ids /
        // indexes) before it, so reading symbols afterwards can only see
        // *more* than the nodes need.
        let len = arena().state.read().unwrap().len;
        let nodes = (0..len)
            .map(|idx| match arena().nodes.get(idx) {
                Node::Int(i) => SnapNode::Int(*i),
                Node::Sym(s) => SnapNode::Sym(s.id()),
                Node::App(f, args, _) => SnapNode::App {
                    functor: f.id(),
                    children: args.iter().map(|a| a.raw()).collect(),
                },
            })
            .collect();
        let symbols = crate::symbol::all_strings()
            .into_iter()
            .map(str::to_owned)
            .collect();
        ArenaSnapshot { symbols, nodes }
    }

    /// Reassemble a snapshot from externally stored parts (the inverse of
    /// [`ArenaSnapshot::symbols`] / [`ArenaSnapshot::nodes`] — what a
    /// checkpoint loader does after decoding its file format).
    pub fn from_parts(symbols: Vec<String>, nodes: Vec<SnapNode>) -> ArenaSnapshot {
        ArenaSnapshot { symbols, nodes }
    }

    /// The captured symbol strings, in capturing-process id order.
    pub fn symbols(&self) -> &[String] {
        &self.symbols
    }

    /// The captured node entries, in capturing-process index order.
    pub fn nodes(&self) -> &[SnapNode] {
        &self.nodes
    }

    /// Re-intern every captured symbol and node into the *current*
    /// process and return the translation table for captured raw words.
    ///
    /// Returns `None` if the snapshot is internally inconsistent (a node
    /// or symbol reference points outside the snapshot) — the signal a
    /// checkpoint loader treats as corruption.
    pub fn install(&self) -> Option<ValIdRemap> {
        let syms: Vec<Symbol> = self.symbols.iter().map(|s| Symbol::new(s)).collect();
        let mut nodes: Vec<ValId> = Vec::with_capacity(self.nodes.len());
        for node in &self.nodes {
            let id = match node {
                SnapNode::Int(v) => ValId::from_int(*v),
                SnapNode::Sym(old) => ValId::from_sym(*syms.get(*old as usize)?),
                SnapNode::App { functor, children } => {
                    let f = *syms.get(*functor as usize)?;
                    let kids = children
                        .iter()
                        .map(|&raw| remap_raw(raw, &syms, &nodes))
                        .collect::<Option<Vec<ValId>>>()?;
                    ValId::from_app(f, &kids)
                }
            };
            nodes.push(id);
        }
        Some(ValIdRemap { syms, nodes })
    }
}

/// Translate a captured raw [`ValId`] word into a live id, given the
/// already-installed symbol and node tables.  Inline integers are
/// value-encoded and pass through unchanged; inline symbols and table
/// references go through the respective remap tables.
fn remap_raw(raw: u32, syms: &[Symbol], nodes: &[ValId]) -> Option<ValId> {
    let old = ValId(raw);
    if old.is_null() {
        return Some(ValId::NULL);
    }
    match old.tag() {
        TAG_INT => Some(old),
        TAG_SYM => syms
            .get(old.payload() as usize)
            .map(|&s| ValId::from_sym(s)),
        TAG_REF => nodes.get(old.payload() as usize).copied(),
        _ => None,
    }
}

/// The translation table [`ArenaSnapshot::install`] produces: captured
/// raw [`ValId`] words → live ids in the current process.
#[derive(Clone, Debug)]
pub struct ValIdRemap {
    syms: Vec<Symbol>,
    nodes: Vec<ValId>,
}

impl ValIdRemap {
    /// The live id for a [`ValId`] captured by the snapshot, or `None` if
    /// the word refers outside the snapshot (corrupt input).  In the
    /// capturing process this is the identity on every id the snapshot
    /// covers (hash-consing re-derives the same handles).
    pub fn remap(&self, old: ValId) -> Option<ValId> {
        remap_raw(old.raw(), &self.syms, &self.nodes)
    }

    /// Remap a whole packed row (see [`ValIdRemap::remap`]).
    pub fn remap_row(&self, row: &[ValId]) -> Option<Vec<ValId>> {
        row.iter().map(|&id| self.remap(id)).collect()
    }

    /// [`ValIdRemap::remap`] from the raw encoded word — the form ids
    /// take on disk (checkpoints store [`ValId::raw`] words verbatim).
    pub fn remap_raw(&self, raw: u32) -> Option<ValId> {
        remap_raw(raw, &self.syms, &self.nodes)
    }
}

/// Intern a whole row of values.
pub fn intern_row(row: &[Value]) -> Vec<ValId> {
    row.iter().map(ValId::intern).collect()
}

/// Decode a whole packed row.
pub fn decode_row(ids: &[ValId]) -> Vec<Value> {
    ids.iter().map(|id| id.value()).collect()
}

impl fmt::Display for ValId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_null() {
            write!(f, "<null>")
        } else {
            write!(f, "{}", self.value())
        }
    }
}

impl fmt::Debug for ValId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Display::fmt(self, f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inline_ints_round_trip() {
        for v in [0i64, 1, -1, 42, INT_BIAS - 1, -INT_BIAS] {
            let id = ValId::from_int(v);
            assert_eq!(id.as_int(), Some(v), "int {v}");
            assert_eq!(id.value(), Value::Int(v));
            assert_eq!(id.depth(), 0);
        }
    }

    #[test]
    fn out_of_range_ints_go_through_the_table() {
        for v in [INT_BIAS, -INT_BIAS - 1, i64::MAX, i64::MIN] {
            let id = ValId::from_int(v);
            assert_eq!(id.as_int(), Some(v), "int {v}");
            assert_eq!(id.value(), Value::Int(v));
            assert_eq!(ValId::from_int(v), id, "hash-consing must dedupe");
        }
        assert_ne!(ValId::from_int(i64::MAX), ValId::from_int(i64::MIN));
    }

    #[test]
    fn symbols_are_inline() {
        let id = ValId::from_sym(Symbol::new("john"));
        assert_eq!(id.as_sym(), Some(Symbol::new("john")));
        assert_eq!(id.value(), Value::sym("john"));
        assert_eq!(id, ValId::intern(&Value::sym("john")));
        assert!(id.as_int().is_none());
        assert!(id.as_app().is_none());
    }

    #[test]
    fn compound_values_hash_cons() {
        let list = Value::list(vec![Value::sym("a"), Value::int(2), Value::sym("c")]);
        let a = ValId::intern(&list);
        let b = ValId::intern(&list);
        assert_eq!(a, b);
        assert_eq!(a.value(), list);
        assert_eq!(a.depth(), list.depth());
        let (f, args) = a.as_app().unwrap();
        assert_eq!(f, Symbol::new(crate::term::LIST_CONS));
        assert_eq!(args.len(), 2);
        assert_eq!(args[0], ValId::intern(&Value::sym("a")));
        // A structurally different list gets a different id.
        let other = Value::list(vec![Value::sym("a"), Value::int(2)]);
        assert_ne!(ValId::intern(&other), a);
    }

    #[test]
    fn null_is_distinct_from_everything() {
        assert!(ValId::NULL.is_null());
        assert!(!ValId::from_int(0).is_null());
        assert_ne!(ValId::NULL, ValId::from_sym(Symbol::new("nil")));
        // The sentinel decodes to nothing through every accessor.
        assert_eq!(ValId::NULL.as_int(), None);
        assert_eq!(ValId::NULL.as_sym(), None);
        assert!(ValId::NULL.as_app().is_none());
        assert_eq!(ValId::NULL.depth(), 0);
    }

    #[test]
    #[should_panic(expected = "NULL")]
    fn decoding_the_null_sentinel_panics() {
        let _ = ValId::NULL.value();
    }

    #[test]
    fn row_round_trip() {
        let row = vec![
            Value::sym("x"),
            Value::Int(7),
            Value::list(vec![Value::sym("y")]),
        ];
        assert_eq!(decode_row(&intern_row(&row)), row);
    }

    #[test]
    fn snapshot_round_trips_and_ids_stay_stable_in_process() {
        // Cover every encoding class: inline int, table int, inline
        // symbol, and nested compounds (table refs whose children mix
        // all of the above).
        let values = vec![
            Value::Int(17),
            Value::Int(i64::MAX - 3),
            Value::sym("snapshot_sym"),
            Value::list(vec![
                Value::sym("snapshot_nested"),
                Value::Int(i64::MIN + 9),
                Value::list(vec![Value::Int(5)]),
            ]),
        ];
        let ids: Vec<ValId> = values.iter().map(ValId::intern).collect();
        let snap = ArenaSnapshot::capture();
        // Serialize-shaped round trip through the public parts.
        let snap2 = ArenaSnapshot::from_parts(snap.symbols().to_vec(), snap.nodes().to_vec());
        assert_eq!(snap, snap2);
        let remap = snap2.install().expect("snapshot is consistent");
        for (id, value) in ids.iter().zip(&values) {
            let new = remap.remap(*id).expect("id is covered");
            assert_eq!(new, *id, "in-process remap must be the identity");
            assert_eq!(new.value(), *value);
        }
        assert_eq!(remap.remap(ValId::NULL), Some(ValId::NULL));
    }

    #[test]
    fn snapshot_install_rejects_dangling_references() {
        // A node referring to a symbol id past the snapshot is corrupt.
        let snap = ArenaSnapshot::from_parts(vec!["only".into()], vec![SnapNode::Sym(7)]);
        assert!(snap.install().is_none());
        // Likewise a compound whose child points past the node table.
        let bad_child = ValId::from_parts(TAG_REF, 99).raw();
        let snap = ArenaSnapshot::from_parts(
            vec!["f".into()],
            vec![SnapNode::App {
                functor: 0,
                children: vec![bad_child],
            }],
        );
        assert!(snap.install().is_none());
    }

    /// A tiny seeded generator (the crate has no dependencies).
    fn xorshift(state: &mut u64) -> u64 {
        *state ^= *state << 13;
        *state ^= *state >> 7;
        *state ^= *state << 17;
        *state
    }

    /// The compound a writer interns as its `i`-th value: fresh (its
    /// functor names the writer and the run), nested two or three deep,
    /// with a table integer inside, so each one adds several nodes.
    fn stress_value(writer: usize, i: u64, salt: u64) -> Value {
        let leaf = Value::app(
            Symbol::new("stress_leaf"),
            vec![Value::Int(i64::MAX - i as i64)],
        );
        let inner = Value::app(
            Symbol::new("stress_pair"),
            vec![leaf, Value::int(salt as i64 & 0xffff)],
        );
        let functor = Symbol::new(&format!("stress_w{writer}"));
        if salt.is_multiple_of(3) {
            Value::app(
                functor,
                vec![inner.clone(), Value::app(functor, vec![inner])],
            )
        } else {
            Value::app(functor, vec![inner, Value::Int(i as i64)])
        }
    }

    #[test]
    fn concurrent_interning_and_lock_free_reads_agree() {
        // Four writers intern fresh nested compounds — several thousand
        // nodes, across at least two chunk boundaries — while four
        // readers decode every id returned so far, over and over.  Each id
        // must decode to the value it was interned from, hash-cons back to
        // itself, and report that value's depth.
        use std::sync::atomic::AtomicUsize;
        use std::sync::Mutex;
        const WRITERS: usize = 4;
        const PER_WRITER: u64 = 1500;
        let start = arena().state.read().unwrap().len;
        let published: Mutex<Vec<(ValId, usize, u64, u64)>> = Mutex::default();
        let writers_done = AtomicUsize::new(0);
        let (published, writers_done) = (&published, &writers_done);
        std::thread::scope(|scope| {
            for writer in 0..WRITERS {
                scope.spawn(move || {
                    let mut state = 0x9E37_79B9_7F4A_7C15 ^ (writer as u64 + 1);
                    for i in 0..PER_WRITER {
                        let salt = xorshift(&mut state);
                        let id = ValId::intern(&stress_value(writer, i, salt));
                        published.lock().unwrap().push((id, writer, i, salt));
                    }
                    writers_done.fetch_add(1, Ordering::Release);
                });
            }
            let readers: Vec<_> = (0..4)
                .map(|_| {
                    scope.spawn(move || {
                        let mut checked = 0;
                        loop {
                            let done = writers_done.load(Ordering::Acquire) == WRITERS;
                            let batch = published.lock().unwrap()[checked..].to_vec();
                            for &(id, writer, i, salt) in &batch {
                                let value = stress_value(writer, i, salt);
                                assert_eq!(id.value(), value, "writer {writer} value {i}");
                                assert_eq!(id.depth(), value.depth());
                                assert_eq!(ValId::intern(&value), id, "hash-consing moved");
                            }
                            checked += batch.len();
                            if done && batch.is_empty() {
                                return checked;
                            }
                        }
                    })
                })
                .collect();
            for reader in readers {
                assert_eq!(reader.join().unwrap(), WRITERS * PER_WRITER as usize);
            }
        });
        let end = arena().state.read().unwrap().len;
        let (first, last) = (chunk_of(start).0, chunk_of(end - 1).0);
        assert!(
            last >= first + 2,
            "nodes {start}..{end} stayed within chunks {first}..={last}"
        );
    }

    #[test]
    fn chunk_addressing_is_dense_and_in_bounds() {
        let mut prev = (0usize, usize::MAX);
        for idx in 0..10_000u32 {
            let (chunk, offset) = chunk_of(idx);
            assert!(offset < chunk_len(chunk));
            // Consecutive ids advance by one slot or move to a new chunk.
            if chunk == prev.0 {
                assert_eq!(offset, prev.1.wrapping_add(1));
            } else {
                assert_eq!(chunk, prev.0 + 1);
                assert_eq!(offset, 0);
            }
            prev = (chunk, offset);
        }
    }
}
