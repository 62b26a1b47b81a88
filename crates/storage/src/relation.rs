//! In-memory relations over interned packed rows, with hash indexes on
//! bound-position patterns, tombstone-based removal, and chunked
//! copy-on-write storage for O(changed pages) snapshot cloning.
//!
//! See the crate-level docs for the storage layout and the tombstone
//! lifecycle.

use crate::fxhash::{FxBuildHasher, FxHashMap};
use magic_datalog::arena::{decode_row, intern_row};
use magic_datalog::{ValId, Value};
use std::borrow::Borrow;
use std::collections::HashSet;
use std::hash::{BuildHasher, Hash, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// A row (tuple) of ground values — the *boundary* representation, decoded
/// from the packed storage at the API edge.
pub type Row = Vec<Value>;

/// Rows per storage page (a power of two; see [`Page`]).
const PAGE_ROWS: usize = 4096;
/// `id >> PAGE_SHIFT` is the page of row `id`.
const PAGE_SHIFT: usize = 12;
/// `id & PAGE_MASK` is the page-local slot of row `id`.
const PAGE_MASK: usize = PAGE_ROWS - 1;
/// Liveness bitset words per page.
const PAGE_WORDS: usize = PAGE_ROWS / 64;

/// log2 of the dedup / index shard count.
const SHARD_BITS: usize = 4;
/// Number of copy-on-write shards the dedup table and each secondary
/// index are split into.  A write touches exactly one shard, so a shared
/// (published) relation re-clones at most `1/SHARDS` of a table per
/// mutated shard instead of the whole thing.
const SHARDS: usize = 1 << SHARD_BITS;

/// A table's copy-on-write shards.
type Shards<T> = [Arc<T>; SHARDS];

/// A table of empty shards.
fn empty_shards<T: Default>() -> Shards<T> {
    std::array::from_fn(|_| Arc::default())
}

/// The shard a 64-bit row/key hash falls into: bits 32..36.  One hash
/// serves a whole probe — the low 32 bits pick the slot inside the shard
/// (the dedup table's tag, the index maps' bucket), the top 7 are the
/// index maps' control tag, and the shard bits overlap neither, so
/// sharding costs the tables inside a shard no entropy.  (Every bit of a
/// finalized [`FxHasher`](crate::fxhash::FxHasher) word is well mixed.)
#[inline]
fn shard_of(hash: u64) -> usize {
    (hash >> 32) as usize & (SHARDS - 1)
}

/// Process-wide count of copy-on-write unit clones: how many row pages,
/// dedup shards and index shards have been deep-cloned because a write
/// landed on a unit still shared with a snapshot.
static COW_CLONES: AtomicU64 = AtomicU64::new(0);

/// The process-wide copy-on-write clone counter (see [`cow_clones`]'s
/// uses in the snapshot tests): total row pages, dedup shards and index
/// shards deep-cloned by writes to shared relations since process start.
///
/// Cloning a [`Relation`] (or a whole database/catalog of them) never
/// bumps this — a clone is pure `Arc` pointer bumps; only the first write
/// to a unit that is still shared pays, and it pays once per unit per
/// publish cycle.  This is what makes an *idle* snapshot publish free and
/// a post-publish write O(touched units).
pub fn cow_clones() -> u64 {
    COW_CLONES.load(Ordering::Relaxed)
}

/// `Arc::make_mut` with clone accounting: transparently deep-clones the
/// unit when it is shared (bumping [`cow_clones`]), and is a plain
/// dereference when it is not.  `make_mut` is the one uniqueness check a
/// write pays; the count in front of it is a plain load (storage units
/// never hand out `Weak`s, and `&mut` on the handle keeps the count from
/// rising underneath us).
fn cow_mut<T: Clone>(arc: &mut Arc<T>) -> &mut T {
    if Arc::strong_count(arc) != 1 {
        COW_CLONES.fetch_add(1, Ordering::Relaxed);
    }
    Arc::make_mut(arc)
}

/// One insert batch's write access to a table's [`SHARDS`] copy-on-write
/// shards.  The batch reads the shards in place, and its first write goes
/// straight through [`cow_mut`]: a batch that writes at most once — a
/// one-row insert, a batch of duplicates — sets up nothing.  The second
/// write splits the table into per-shard handles.  From then on a shard is
/// made unique ([`cow_mut`], at most one clone) on the batch's first write
/// to it and written through the kept `&mut` after that, so a batch pays
/// one uniqueness check per shard it writes, not one per row (the shard
/// written before the split pays a second, clone-free one).
struct BatchShards<'a, T> {
    /// The table, until the batch's second write splits it.
    whole: Option<&'a mut Shards<T>>,
    /// Whether the batch has written a shard.
    written: bool,
    split: Option<Split<'a, T>>,
}

/// Per shard: its shared handle until the batch writes it, its unique
/// unit from then on.
struct Split<'a, T> {
    shared: [Option<&'a mut Arc<T>>; SHARDS],
    unique: [Option<&'a mut T>; SHARDS],
}

impl<'a, T: Clone> BatchShards<'a, T> {
    fn new(shards: &'a mut Shards<T>) -> BatchShards<'a, T> {
        BatchShards {
            whole: Some(shards),
            written: false,
            split: None,
        }
    }

    #[inline]
    fn get(&self, shard: usize) -> &T {
        match (&self.whole, &self.split) {
            (Some(whole), _) => &whole[shard],
            (None, Some(split)) => match &split.unique[shard] {
                Some(unit) => unit,
                None => split.shared[shard]
                    .as_deref()
                    .expect("one handle per shard"),
            },
            (None, None) => unreachable!("a table is whole or split"),
        }
    }

    #[inline]
    fn get_mut(&mut self, shard: usize) -> &mut T {
        if !self.written {
            // A batch that writes once (a one-row insert) needs no split.
            self.written = true;
            let whole = self
                .whole
                .as_deref_mut()
                .expect("whole until written twice");
            return cow_mut(&mut whole[shard]);
        }
        let whole = &mut self.whole;
        let split = self.split.get_or_insert_with(|| Split {
            shared: whole
                .take()
                .expect("a table is whole or split")
                .each_mut()
                .map(Some),
            unique: Default::default(),
        });
        let unit = &mut split.unique[shard];
        if unit.is_none() {
            *unit = split.shared[shard].take().map(cow_mut);
        }
        unit.as_deref_mut().expect("one handle per shard")
    }
}

/// One chunk of row storage: up to [`PAGE_ROWS`] packed rows plus their
/// liveness bits.  Pages are the unit of structural sharing — a cloned
/// relation shares every page with its original, and a later write
/// re-clones exactly the page it lands on (the append page, or the page
/// of a tombstoned row).
#[derive(Clone, Debug)]
struct Page {
    /// Packed rows: page-local row `r` occupies
    /// `data[r * arity .. (r + 1) * arity]`.
    data: Vec<ValId>,
    /// Liveness bitset, one bit per page-local row slot.
    live: [u64; PAGE_WORDS],
}

impl Page {
    fn empty() -> Page {
        Page {
            data: Vec::new(),
            live: [0; PAGE_WORDS],
        }
    }
}

/// A vacant dedup slot that never held an entry: ends a probe sequence.
const EMPTY: u64 = u64::MAX;
/// A vacant dedup slot whose entry was removed: probes walk past it,
/// inserts reuse it.  `EMPTY` and `TOMB` are the two largest words, so
/// `word < TOMB` is "holds an entry"; row ids stop short of the id halves
/// of both (see [`MAX_ROWS`]).
const TOMB: u64 = u64::MAX - 1;
/// Row-id ceiling: ids are stored as the low half of a dedup word and must
/// not collide with the vacant-slot sentinels.
const MAX_ROWS: usize = (TOMB as u32) as usize;
/// Smallest allocated dedup table (slots).
const DEDUP_MIN_SLOTS: usize = 8;

/// One copy-on-write shard of the dedup table: an open-addressed,
/// linearly probed table of `(tag32, id32)` words — 8 bytes per slot, no
/// per-row allocation, no stored keys.
///
/// A word is `tag << 32 | id`: `tag` is the low half of the row hash
/// (its low bits are the home slot), `id` the row id.  The table stores
/// no row data; a tag match is confirmed by comparing the candidate
/// against the row in its page.  Removal leaves a [`TOMB`] so later probe
/// sequences stay connected; an insert reuses the first tombstone it
/// walked past, and a rehash (growth, or in place when tombstones crowd
/// the table) re-homes every entry **from its stored tag** — no row is
/// re-read or re-hashed.
#[derive(Clone, Debug, Default)]
struct DedupShard {
    /// Power-of-two many slots (or none, before the first insert).
    slots: Vec<u64>,
    /// Slots holding an entry.
    live: usize,
    /// Slots holding a tombstone.
    tombs: usize,
}

impl DedupShard {
    /// Walk the probe sequence of `tag`: `Ok(slot)` of the entry whose row
    /// `is_row` confirms, or `Err(slot)` of the vacancy an insert of that
    /// row should take (the first tombstone passed, else the terminating
    /// empty slot; meaningless while the table is unallocated —
    /// [`DedupShard::occupy`] re-probes after allocating).
    #[inline]
    fn probe(&self, tag: u32, mut is_row: impl FnMut(u32) -> bool) -> Result<usize, usize> {
        if self.slots.is_empty() {
            return Err(0);
        }
        let mask = self.slots.len() - 1;
        let mut slot = tag as usize & mask;
        let mut reuse = None;
        loop {
            let word = self.slots[slot];
            if word == EMPTY {
                return Err(reuse.unwrap_or(slot));
            }
            if word == TOMB {
                reuse.get_or_insert(slot);
            } else if (word >> 32) as u32 == tag && is_row(word as u32) {
                return Ok(slot);
            }
            slot = (slot + 1) & mask;
        }
    }

    /// Store `(tag, id)` in `vacancy`, the `Err` slot of a
    /// [`DedupShard::probe`] for the same tag on this (unchanged) table.
    /// Taking an empty slot past 3/4 occupancy rehashes first.
    fn occupy(&mut self, mut vacancy: usize, tag: u32, id: u32) {
        if self.slots.get(vacancy) == Some(&TOMB) {
            self.tombs -= 1;
        } else {
            if (self.live + self.tombs + 1) * 4 > self.slots.len() * 3 {
                self.rehash();
                vacancy = self.probe(tag, |_| false).expect_err("no row is confirmed");
            }
            debug_assert_eq!(self.slots[vacancy], EMPTY);
        }
        self.slots[vacancy] = u64::from(tag) << 32 | u64::from(id);
        self.live += 1;
    }

    /// Drop the entry `(tag, id)`, leaving a tombstone.
    fn vacate(&mut self, tag: u32, id: u32) {
        if let Ok(slot) = self.probe(tag, |candidate| candidate == id) {
            self.slots[slot] = TOMB;
            self.live -= 1;
            self.tombs += 1;
        }
    }

    /// Rebuild at ≤ 1/2 occupancy for one more entry, dropping every
    /// tombstone; entries are re-homed from their stored tags.
    fn rehash(&mut self) {
        let slots = ((self.live + 1) * 2)
            .next_power_of_two()
            .max(DEDUP_MIN_SLOTS);
        let old = std::mem::replace(&mut self.slots, vec![EMPTY; slots]);
        let mask = slots - 1;
        for word in old.into_iter().filter(|&word| word < TOMB) {
            let mut slot = (word >> 32) as usize & mask;
            while self.slots[slot] != EMPTY {
                slot = (slot + 1) & mask;
            }
            self.slots[slot] = word;
        }
        self.tombs = 0;
    }
}

/// One copy-on-write shard of a *narrow* index: keys of ≤ 2 positions
/// packed into a single `u64` (two inline-tagged [`ValId`] raw words, the
/// second `NULL`-padded for unary keys) — no per-key allocation, no
/// node-table indirection, and a one-word hash per probe.  Posting lists
/// hold `u32` row ids: ids stop below [`MAX_ROWS`].
type SmallShard = FxHashMap<u64, Vec<u32>>;

/// One copy-on-write shard of a *wide* index (3+ key positions): boxed
/// packed key → ascending live row ids.
type WideShard = FxHashMap<Box<[ValId]>, Vec<u32>>;

/// The number of ids in the ascending `ids` that are below `bound` (the
/// `partition_point` of `id < bound`), searched from the **tail**: gallop
/// back from the end, doubling the step until an id below `bound` (or the
/// front) is passed, then binary-search inside that last step.
///
/// Row ids are append-only, so the ids a caller looks for — a semi-naive
/// delta's first row, the victim of a delete-and-rederive removal — are
/// nearly always the newest few.  Galloping finds them in O(log distance
/// from the tail) steps over cache lines the list's end already brought
/// in, where a front-anchored binary search pays O(log len) cold probes.
pub fn tail_partition_point(ids: &[u32], bound: u32) -> usize {
    let mut hi = ids.len();
    let mut step = 1;
    while step <= hi && ids[hi - step] >= bound {
        hi -= step;
        step *= 2;
    }
    let lo = hi.saturating_sub(step);
    lo + ids[lo..hi].partition_point(|&id| id < bound)
}

/// A secondary index on one bound-position pattern, split into [`SHARDS`]
/// copy-on-write shards by key hash.  The representation is chosen once
/// per pattern: patterns of ≤ 2 positions store their keys inline as one
/// `u64` ([`pack_key2`]); wider patterns box the key slice.
#[derive(Clone, Debug)]
enum ShardedIndex {
    Small(Shards<SmallShard>),
    Wide(Shards<WideShard>),
}

/// Pack a ≤ 2-position key into one `u64`: the raw words of its (inline
/// tagged) `ValId`s, with the second slot `NULL`-padded for unary keys.
/// All keys of an index have the same length, so padding cannot collide
/// with a genuine two-position key inside one index.
#[inline]
fn pack_key2(key: &[ValId]) -> u64 {
    debug_assert!(!key.is_empty() && key.len() <= 2);
    let hi = key[0].raw() as u64;
    let lo = key.get(1).map_or(u32::MAX as u64, |v| v.raw() as u64);
    (hi << 32) | lo
}

impl ShardedIndex {
    fn empty(key_len: usize) -> ShardedIndex {
        if key_len <= 2 {
            ShardedIndex::Small(empty_shards())
        } else {
            ShardedIndex::Wide(empty_shards())
        }
    }

    /// The shard `key` lives in.  The hash is the one the shard's own map
    /// computes for the key (the packed word for narrow keys, the id
    /// slice for wide ones), so shard and bucket come from one hash.
    #[inline]
    fn shard_for(&self, key: &[ValId]) -> usize {
        shard_of(match self {
            ShardedIndex::Small(_) => fx_hash(&pack_key2(key)),
            ShardedIndex::Wide(_) => fx_hash(key),
        })
    }

    /// Append each `(id, row)` of `rows`, ids ascending and past every id
    /// already indexed, to the id list of the row's key on `positions`:
    /// the index pass of [`Relation::insert_batch`].  `key` is scratch.
    fn insert_rows<'r>(
        &mut self,
        positions: &[usize],
        rows: impl Iterator<Item = (u32, &'r [ValId])>,
        key: &mut Vec<ValId>,
    ) {
        let key_of = |key: &mut Vec<ValId>, row: &[ValId]| {
            key.clear();
            key.extend(positions.iter().map(|&p| row[p]));
        };
        match self {
            ShardedIndex::Small(shards) => {
                let mut shards = BatchShards::new(shards);
                for (id, row) in rows {
                    key_of(key, row);
                    let packed = pack_key2(key);
                    let shard = shard_of(fx_hash(&packed));
                    shards.get_mut(shard).entry(packed).or_default().push(id);
                }
            }
            ShardedIndex::Wide(shards) => {
                let mut shards = BatchShards::new(shards);
                for (id, row) in rows {
                    key_of(key, row);
                    let key = key.as_slice();
                    let map = shards.get_mut(shard_of(fx_hash(key)));
                    if let Some(ids) = map.get_mut(key) {
                        ids.push(id);
                    } else {
                        map.insert(key.into(), vec![id]);
                    }
                }
            }
        }
    }

    /// Drop `id` from the id list of `key`; empty lists drop their key.
    /// The victim is found by [`tail_partition_point`]: removal victims are
    /// nearly always the newest rows (delete-and-rederive removes what the
    /// last insert derived).
    fn remove_row(&mut self, key: &[ValId], id: u32) {
        fn drop_id<K, Q>(map: &mut FxHashMap<K, Vec<u32>>, key: &Q, id: u32)
        where
            K: Borrow<Q> + Hash + Eq,
            Q: Hash + Eq + ?Sized,
        {
            if let Some(ids) = map.get_mut(key) {
                let pos = tail_partition_point(ids, id);
                if ids.get(pos) == Some(&id) {
                    ids.remove(pos);
                }
                if ids.is_empty() {
                    map.remove(key);
                }
            }
        }
        let shard = self.shard_for(key);
        match self {
            ShardedIndex::Small(shards) => {
                drop_id(cow_mut(&mut shards[shard]), &pack_key2(key), id);
            }
            ShardedIndex::Wide(shards) => {
                drop_id(cow_mut(&mut shards[shard]), key, id);
            }
        }
    }

    /// The ascending live row ids of `key` (empty when the key is absent).
    #[inline]
    fn get(&self, key: &[ValId]) -> &[u32] {
        let shard = self.shard_for(key);
        match self {
            ShardedIndex::Small(shards) => shards[shard].get(&pack_key2(key)),
            ShardedIndex::Wide(shards) => shards[shard].get(key),
        }
        .map_or(&[], Vec::as_slice)
    }
}

/// A borrowed handle on one secondary index of a [`Relation`]
/// ([`Relation::index_ref`]): the position pattern is resolved once, and
/// every [`IndexRef::get`] after that is a single key probe.  The join
/// takes one per body atom per rule evaluation instead of naming the
/// pattern on every atom visit.
#[derive(Clone, Copy, Debug)]
pub struct IndexRef<'a> {
    index: &'a ShardedIndex,
}

impl<'a> IndexRef<'a> {
    /// The live row ids matching the packed `key`: borrowed, in
    /// **ascending order** (rows are append-only and removal deletes in
    /// place), empty when no row has the key.  `key` must have one id per
    /// position of the pattern the handle was resolved for.  Ids are `u32`
    /// (they stop below the row ceiling), half the bytes of a `usize` list.
    #[inline]
    pub fn get(&self, key: &[ValId]) -> &'a [u32] {
        self.index.get(key)
    }
}

/// An in-memory relation: a set of rows of fixed arity, stored as interned
/// [`ValId`]s in chunked copy-on-write pages, with hash indexes built on
/// demand for the bound-position patterns the evaluator needs.
///
/// Rows are stored **once**, append-only in insertion order: row `id`
/// lives in page `id / 4096` at page-local offset `(id % 4096) × arity` —
/// so row ids are stable and iteration is deterministic.  Duplicate
/// elimination goes through a sharded open-addressed table of
/// `(hash tag, row id)` words checked against the stored rows (no `Value`
/// hashing or cloning on any probe, 8 bytes per slot).
/// Indexes map a key — the ids at a fixed list of positions — to the ids
/// of the live rows having that key, kept in ascending id order, which is
/// what lets the evaluator slice delta windows off their tails.
///
/// **Every unit of storage — row pages, dedup shards, index shards — sits
/// behind an `Arc`**, so `Relation::clone` is pure pointer bumps: a clone
/// is an O(pages) *snapshot*, not a copy.  Writes go through
/// `Arc::make_mut`, re-cloning exactly the units they touch when those
/// are still shared with a snapshot (counted by [`cow_clones`]).  An
/// insert batch ([`Relation::insert_batch`]) makes each unit it touches
/// unique once per batch and writes through that handle for the rest of
/// it.  This is the property the serving layer's publish path and the
/// incremental catalog's snapshots are built on.
///
/// Removal marks rows dead (tombstones) and surgically drops them from the
/// dedup table and every index — O(removed × indexes), never a rebuild of
/// the store.  Dead slots stay in their pages until [`Relation::compact`],
/// so row ids survive removals; [`Relation::watermark`] (the high-water
/// row id) is the monotone quantity delta windows are measured against,
/// while [`Relation::len`] counts live rows only.
#[derive(Clone, Debug)]
pub struct Relation {
    arity: usize,
    /// Chunked copy-on-write row storage; row `id` lives in
    /// `pages[id >> PAGE_SHIFT]`.
    pages: Vec<Arc<Page>>,
    /// Number of row slots ever allocated (live + tombstoned).
    rows: usize,
    /// Number of tombstoned slots (`rows - live count`).
    dead: usize,
    /// Sharded dedup table over the live rows (see [`DedupShard`]).
    dedup: Shards<DedupShard>,
    /// positions -> sharded index (key ids -> ascending live row ids).
    indexes: FxHashMap<Vec<usize>, ShardedIndex>,
    /// Reusable key buffer for incremental index maintenance.
    key_scratch: Vec<ValId>,
    /// Reusable per-batch list of [`Relation::insert_batch`]: the batch
    /// position of each new row, in id order.  Empty between batches.
    fresh: Vec<usize>,
}

impl Default for Relation {
    fn default() -> Relation {
        Relation::new(0)
    }
}

/// The FxHash of a key, as a map keyed on it computes it.
#[inline]
fn fx_hash<K: Hash + ?Sized>(key: &K) -> u64 {
    FxBuildHasher::default().hash_one(key)
}

/// Row `id` of `arity` ids in `pages`.
#[inline]
fn page_row(pages: &[Arc<Page>], arity: usize, id: usize) -> &[ValId] {
    let off = (id & PAGE_MASK) * arity;
    &pages[id >> PAGE_SHIFT].data[off..off + arity]
}

/// The dedup hash of a packed row: its high half picks the shard
/// ([`shard_of`]), its low half is the row's tag inside the shard.
#[inline]
fn hash_ids(row: &[ValId]) -> u64 {
    let mut state = FxBuildHasher::default().build_hasher();
    for id in row {
        state.write_u32(id.raw());
    }
    state.finish()
}

impl Relation {
    /// An empty relation of the given arity.
    pub fn new(arity: usize) -> Relation {
        Relation {
            arity,
            pages: Vec::new(),
            rows: 0,
            dead: 0,
            dedup: empty_shards(),
            indexes: FxHashMap::default(),
            key_scratch: Vec::new(),
            fresh: Vec::new(),
        }
    }

    /// The relation's arity.
    pub fn arity(&self) -> usize {
        self.arity
    }

    /// Number of **live** rows.
    pub fn len(&self) -> usize {
        self.rows - self.dead
    }

    /// True iff the relation has no live rows.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// One past the highest row id ever allocated (live or dead).  This is
    /// the monotone delta mark: rows inserted after a caller observed
    /// `watermark()` have ids `>=` that observation, whatever removals
    /// happen in between.  Reset only by [`Relation::compact`].
    pub fn watermark(&self) -> usize {
        self.rows
    }

    /// Number of tombstoned row slots awaiting [`Relation::compact`].
    pub fn tombstones(&self) -> usize {
        self.dead
    }

    /// True iff row id `id` is live (in bounds and not tombstoned).
    #[inline]
    pub fn is_live(&self, id: usize) -> bool {
        id < self.rows && {
            let slot = id & PAGE_MASK;
            self.pages[id >> PAGE_SHIFT].live[slot >> 6] & (1 << (slot & 63)) != 0
        }
    }

    #[inline]
    fn clear_live(&mut self, id: usize) {
        let slot = id & PAGE_MASK;
        cow_mut(&mut self.pages[id >> PAGE_SHIFT]).live[slot >> 6] &= !(1 << (slot & 63));
    }

    /// Insert a row of values; returns `true` if it was new.  Interns the
    /// values and delegates to [`Relation::insert_ids`].
    ///
    /// # Panics
    ///
    /// Panics if the row's arity does not match the relation's.
    pub fn insert(&mut self, row: Row) -> bool {
        let ids = intern_row(&row);
        self.insert_ids(&ids)
    }

    /// Insert a packed row; returns `true` if it was new.  See
    /// [`Relation::insert_ids_at`], which also says where the row lives.
    ///
    /// # Panics
    ///
    /// Panics if the row's arity does not match the relation's.
    #[inline]
    pub fn insert_ids(&mut self, row: &[ValId]) -> bool {
        self.insert_ids_at(row).1
    }

    /// Insert a packed row; returns the row's id — the fresh one, or the
    /// one the duplicate probe found — and whether it was new.  A batch of
    /// one ([`Relation::insert_batch`]): a duplicate costs one hash and
    /// one dedup-shard probe and writes nothing.
    ///
    /// # Panics
    ///
    /// Panics if the row's arity does not match the relation's.
    pub fn insert_ids_at(&mut self, row: &[ValId]) -> (usize, bool) {
        assert_eq!(
            row.len(),
            self.arity,
            "row arity {} does not match relation arity {}",
            row.len(),
            self.arity
        );
        let mut at = (0, false);
        self.insert_n(row, 1, |id, new| at = (id, new));
        at
    }

    /// Insert the packed rows of `rows`, `arity` ids per row (a zero-arity
    /// relation reads an empty buffer as its one empty row), exactly as
    /// inserting them one at a time would: `seen(id, new)` is called once
    /// per row, in buffer order, with the row's id — the fresh one, or the
    /// one the duplicate probe found — and whether it was new.  Returns
    /// the number of new rows.
    ///
    /// Three passes, each writing one kind of storage unit and making each
    /// shared unit it writes unique once per batch:
    ///
    /// 1. *dedup*: hash each row once and probe its dedup shard, against
    ///    the stored rows and this batch's earlier new rows alike; a new
    ///    row takes the next id there.  Duplicates write nothing.
    /// 2. *index*, once per index: append each new row's id to its key's
    ///    list (ids stay ascending: they are past every indexed id).
    /// 3. *append*, page by page: copy the new rows into the pages.
    ///
    /// # Panics
    ///
    /// Panics if `rows` is not a whole number of rows of the relation's
    /// arity.
    pub fn insert_batch(&mut self, rows: &[ValId], seen: impl FnMut(usize, bool)) -> usize {
        let arity = self.arity;
        let n = if arity == 0 {
            assert!(rows.is_empty(), "row arity does not match relation arity 0");
            1
        } else {
            assert_eq!(
                rows.len() % arity,
                0,
                "row arity {arity} does not divide a batch of {} ids",
                rows.len()
            );
            rows.len() / arity
        };
        self.insert_n(rows, n, seen)
    }

    /// [`Relation::insert_batch`] of the `n` rows of `rows`; the batch of
    /// one passes `n` itself, without dividing by the arity.
    fn insert_n(&mut self, rows: &[ValId], n: usize, mut seen: impl FnMut(usize, bool)) -> usize {
        let arity = self.arity;
        let row_at = |i: usize| &rows[i * arity..(i + 1) * arity];
        let stored = self.rows;
        let fresh = &mut self.fresh;
        let pages = &self.pages;
        let mut dedup = BatchShards::new(&mut self.dedup);
        for i in 0..n {
            let row = row_at(i);
            let hash = hash_ids(row);
            let (shard, tag) = (shard_of(hash), hash as u32);
            let is_row = |id: u32| match (id as usize).checked_sub(stored) {
                None => page_row(pages, arity, id as usize) == row,
                Some(pending) => row_at(fresh[pending]) == row,
            };
            match dedup.get(shard).probe(tag, is_row) {
                Ok(slot) => seen(dedup.get(shard).slots[slot] as u32 as usize, false),
                Err(vacancy) => {
                    let id = stored + fresh.len();
                    assert!(id < MAX_ROWS, "relation exceeds {MAX_ROWS} rows");
                    dedup.get_mut(shard).occupy(vacancy, tag, id as u32);
                    fresh.push(i);
                    seen(id, true);
                }
            }
        }
        let fresh = &self.fresh;
        if fresh.is_empty() {
            return 0;
        }
        let new_rows = || (stored as u32..).zip(fresh.iter().map(|&i| row_at(i)));
        for (positions, index) in self.indexes.iter_mut() {
            index.insert_rows(positions, new_rows(), &mut self.key_scratch);
        }
        let mut appended = 0;
        while appended < fresh.len() {
            let slot = self.rows & PAGE_MASK;
            if slot == 0 {
                let mut page = Page::empty();
                // The first page grows like a plain vector (small relations
                // stay small); once a relation overflows it, later pages are
                // allocated at exact full-page capacity up front.
                if self.rows > 0 {
                    page.data.reserve_exact(PAGE_ROWS * arity);
                }
                self.pages.push(Arc::new(page));
            }
            let take = (PAGE_ROWS - slot).min(fresh.len() - appended);
            let page = cow_mut(self.pages.last_mut().expect("append page exists"));
            for (slot, &i) in (slot..).zip(&fresh[appended..appended + take]) {
                page.data.extend_from_slice(row_at(i));
                page.live[slot >> 6] |= 1 << (slot & 63);
            }
            self.rows += take;
            appended += take;
        }
        self.fresh.clear();
        appended
    }

    /// True iff the relation contains the (value-level) row.
    pub fn contains(&self, row: &[Value]) -> bool {
        self.contains_ids(&intern_row(row))
    }

    /// True iff the relation contains the packed row.
    pub fn contains_ids(&self, row: &[ValId]) -> bool {
        self.find_id(row).is_some()
    }

    /// The stored id of a (value-level) row, if present and live.
    pub fn id_of(&self, row: &[Value]) -> Option<usize> {
        self.find_id(&intern_row(row))
    }

    /// The stored id of a packed row, if present and live.
    pub fn find_id(&self, row: &[ValId]) -> Option<usize> {
        let hash = hash_ids(row);
        let shard = &self.dedup[shard_of(hash)];
        let slot = shard
            .probe(hash as u32, |id| self.row_ids(id as usize) == row)
            .ok()?;
        Some(shard.slots[slot] as u32 as usize)
    }

    /// The packed row with the given id.  The id must be in bounds; dead
    /// rows still decode (their slots persist until compaction).
    #[inline]
    pub fn row_ids(&self, id: usize) -> &[ValId] {
        page_row(&self.pages, self.arity, id)
    }

    /// The row with the given id, decoded to values.
    pub fn row_values(&self, id: usize) -> Row {
        decode_row(self.row_ids(id))
    }

    /// Iterate over all live rows (decoded) in insertion order.
    pub fn iter(&self) -> impl Iterator<Item = Row> + '_ {
        self.iter_ids().map(|(_, ids)| decode_row(ids))
    }

    /// Iterate over `(id, packed row)` for all live rows in id order.
    pub fn iter_ids(&self) -> impl Iterator<Item = (usize, &[ValId])> + '_ {
        (0..self.rows)
            .filter(|&id| self.is_live(id))
            .map(|id| (id, self.row_ids(id)))
    }

    /// Ensure an index exists on `positions` and return the matching live
    /// row ids for `key` as an owned vector.  Convenience wrapper over
    /// [`Relation::ensure_index`] + [`Relation::lookup`]; the evaluator's
    /// hot path uses those directly to borrow the id slice instead.
    ///
    /// An empty `positions` list means "no selection": all live row ids
    /// match.  A pattern that [covers the row](Relation::covers_row) is
    /// answered by the dedup table.
    pub fn select_ids(&mut self, positions: &[usize], key: &[Value]) -> Vec<usize> {
        debug_assert_eq!(positions.len(), key.len());
        if positions.is_empty() {
            return (0..self.rows).filter(|&id| self.is_live(id)).collect();
        }
        if self.covers_row(positions) {
            return self.find_id(&intern_row(key)).into_iter().collect();
        }
        self.ensure_index(positions);
        self.lookup(positions, &intern_row(key))
            .expect("index was just ensured")
            .iter()
            .map(|&id| id as usize)
            .collect()
    }

    /// True iff `positions` is every position of the row, in order: a key
    /// on such a pattern *is* a row, so the dedup table already indexes it
    /// ([`Relation::find_id`]: zero or one id) and no secondary index is
    /// ever built for it.
    #[inline]
    pub fn covers_row(&self, positions: &[usize]) -> bool {
        positions.len() == self.arity && positions.iter().enumerate().all(|(i, &p)| p == i)
    }

    /// Ensure an (incrementally maintained) hash index exists on
    /// `positions`.  Indexes are kept current by [`Relation::insert_ids`]
    /// and the removal entry points alike.  Nothing is built for an empty
    /// pattern (a scan) or one that [covers the row](Relation::covers_row)
    /// (the dedup table is that index, at 8 bytes a row instead of a map
    /// entry and a one-element id list).
    ///
    /// Building over an already-populated relation takes the bulk sorted
    /// path: sort the live row ids by key, then insert one exactly-sized
    /// id vector per distinct key — one owned key per *group* instead of
    /// one per row, and no hash-map entry churn while the shards grow.
    /// The resulting index is identical (same keys, same ascending id
    /// lists) to the incremental build.
    pub fn ensure_index(&mut self, positions: &[usize]) {
        if positions.is_empty()
            || self.covers_row(positions)
            || self.indexes.contains_key(positions)
        {
            return;
        }
        const BULK_BUILD_MIN: usize = 512;
        let index = if self.len() >= BULK_BUILD_MIN {
            self.build_index_bulk(positions)
        } else {
            let mut index = ShardedIndex::empty(positions.len());
            let rows = self.iter_ids().map(|(id, row)| (id as u32, row));
            index.insert_rows(positions, rows, &mut Vec::new());
            index
        };
        self.indexes.insert(positions.to_vec(), index);
    }

    /// The bulk sorted index build over the current live rows (see
    /// [`Relation::ensure_index`]).  Stable sort on the key projection
    /// keeps each group's ids in ascending order — the invariant the
    /// join's delta-window slicing relies on.
    fn build_index_bulk(&self, positions: &[usize]) -> ShardedIndex {
        let key_of = |id: u32| {
            let row = self.row_ids(id as usize);
            positions.iter().map(move |&p| row[p].raw())
        };
        let mut ids: Vec<u32> = self.iter_ids().map(|(id, _)| id as u32).collect();
        ids.sort_by(|&a, &b| key_of(a).cmp(key_of(b)));
        // Collect the group boundaries first so every shard map is
        // allocated once at its final size (no rehashing while 30M ids
        // stream in).
        let mut groups: Vec<(usize, usize)> = Vec::new();
        let mut i = 0;
        while i < ids.len() {
            let mut j = i + 1;
            while j < ids.len() && key_of(ids[j]).eq(key_of(ids[i])) {
                j += 1;
            }
            groups.push((i, j));
            i = j;
        }
        let mut index = ShardedIndex::empty(positions.len());
        let mut per_shard = [0usize; SHARDS];
        let mut key = Vec::with_capacity(positions.len());
        for &(start, _) in &groups {
            let row = self.row_ids(ids[start] as usize);
            key.clear();
            key.extend(positions.iter().map(|&p| row[p]));
            per_shard[index.shard_for(&key)] += 1;
        }
        match &mut index {
            ShardedIndex::Small(shards) => {
                for (shard, &n) in shards.iter_mut().zip(&per_shard) {
                    cow_mut(shard).reserve(n);
                }
            }
            ShardedIndex::Wide(shards) => {
                for (shard, &n) in shards.iter_mut().zip(&per_shard) {
                    cow_mut(shard).reserve(n);
                }
            }
        }
        for &(start, end) in &groups {
            let row = self.row_ids(ids[start] as usize);
            key.clear();
            key.extend(positions.iter().map(|&p| row[p]));
            let shard = index.shard_for(&key);
            let group = ids[start..end].to_vec();
            match &mut index {
                ShardedIndex::Small(shards) => {
                    cow_mut(&mut shards[shard]).insert(pack_key2(&key), group);
                }
                ShardedIndex::Wide(shards) => {
                    cow_mut(&mut shards[shard]).insert(key.as_slice().into(), group);
                }
            }
        }
        index
    }

    /// Look up the live row ids matching the packed `key` on a previously
    /// ensured index.
    ///
    /// The returned slice is borrowed (never copied), contains live rows
    /// only, and its ids are in **ascending order** — semi-naive delta
    /// windows are sliced off its tail.  Returns `None` if no index exists
    /// on `positions` (callers fall back to [`Relation::scan_select`]).
    /// A thin wrapper over [`Relation::index_ref`], which is what repeated
    /// probes of one pattern should hold instead.
    pub fn lookup(&self, positions: &[usize], key: &[ValId]) -> Option<&[u32]> {
        Some(self.index_ref(positions)?.get(key))
    }

    /// A borrowed handle on the index ensured for `positions` (`None` if
    /// there is none): resolves the pattern once, so a caller probing the
    /// same index many times — the join, once per body atom per rule
    /// evaluation — pays one key probe per [`IndexRef::get`] and nothing
    /// else.
    pub fn index_ref(&self, positions: &[usize]) -> Option<IndexRef<'_>> {
        self.indexes.get(positions).map(|index| IndexRef { index })
    }

    /// Like [`Relation::select_ids`] (packed key) but without building or
    /// using indexes (linear scan over live rows, ids ascending).  Useful
    /// for read-only access paths.
    pub fn scan_select(&self, positions: &[usize], key: &[ValId]) -> Vec<usize> {
        self.iter_ids()
            .filter(|(_, row)| positions.iter().zip(key).all(|(&p, v)| &row[p] == v))
            .map(|(id, _)| id)
            .collect()
    }

    /// Project the relation onto the given positions, returning the distinct
    /// projected rows (decoded) in first-appearance order.
    pub fn project(&self, positions: &[usize]) -> Vec<Row> {
        let mut seen: HashSet<Box<[ValId]>> = HashSet::new();
        let mut out = Vec::new();
        for (_, row) in self.iter_ids() {
            let projected: Box<[ValId]> = positions.iter().map(|&p| row[p]).collect();
            if !seen.contains(&projected) {
                out.push(decode_row(&projected));
                seen.insert(projected);
            }
        }
        out
    }

    /// Remove one (value-level) row; returns `true` if it was present.
    /// Tombstone-based: O(indexes), no rebuild.
    pub fn remove(&mut self, row: &[Value]) -> bool {
        match self.id_of(row) {
            Some(id) => self.remove_id(id),
            None => false,
        }
    }

    /// Remove every row of `rows` that is present; returns how many were.
    /// Each removal is an independent tombstone mark — there is no longer a
    /// batching advantage over repeated [`Relation::remove`] calls, but the
    /// batched signature is kept for callers that collect rows first.
    pub fn remove_rows(&mut self, rows: &[Row]) -> usize {
        let mut removed = 0;
        for row in rows {
            if self.remove(row) {
                removed += 1;
            }
        }
        removed
    }

    /// Tombstone the row with id `id`; returns `false` if it was already
    /// dead.  Row ids are **stable** across removals: the slot persists
    /// (dead) until [`Relation::compact`], so ids and delta marks taken
    /// before the removal stay valid.  The dedup table and every index drop
    /// the id eagerly, so lookups and scans never observe dead rows.
    pub fn remove_id(&mut self, id: usize) -> bool {
        if !self.is_live(id) {
            return false;
        }
        self.clear_live(id);
        self.dead += 1;
        let hash = hash_ids(self.row_ids(id));
        cow_mut(&mut self.dedup[shard_of(hash)]).vacate(hash as u32, id as u32);
        let mut scratch = std::mem::take(&mut self.key_scratch);
        let arity = self.arity;
        let page = &self.pages[id >> PAGE_SHIFT];
        let off = (id & PAGE_MASK) * arity;
        let row = &page.data[off..off + arity];
        for (positions, index) in self.indexes.iter_mut() {
            scratch.clear();
            scratch.extend(positions.iter().map(|&p| row[p]));
            index.remove_row(&scratch, id as u32);
        }
        self.key_scratch = scratch;
        true
    }

    /// Reclaim tombstoned slots: rewrite the pages with live rows only (in
    /// id order), rebuild the dedup table, and rebuild every existing index
    /// on its same position pattern.  **Row ids shift** — any ids, delta
    /// marks or watermarks taken before compaction are invalidated, so only
    /// call between operations (the incremental layer compacts after a
    /// retraction batch, before taking fresh marks).
    pub fn compact(&mut self) {
        if self.dead == 0 {
            return;
        }
        let mut old = std::mem::replace(self, Relation::new(self.arity));
        // Only the old pages are read: free the old tables first.
        old.dedup = empty_shards();
        let patterns: Vec<Vec<usize>> = old.indexes.drain().map(|(p, _)| p).collect();
        for run in old.live_runs() {
            self.insert_batch(run, |_, _| {});
        }
        for positions in &patterns {
            self.ensure_index(positions);
        }
    }

    /// Merge all rows of `other` into `self`; returns the number of new rows.
    pub fn merge(&mut self, other: &Relation) -> usize {
        other
            .live_runs()
            .map(|run| self.insert_batch(run, |_, _| {}))
            .sum()
    }

    /// The live rows as maximal runs of consecutive live ids inside one
    /// page, each a flat `arity`-chunked slice of that page, in id order.
    fn live_runs(&self) -> impl Iterator<Item = &[ValId]> + '_ {
        let mut id = 0;
        std::iter::from_fn(move || {
            while id < self.rows && !self.is_live(id) {
                id += 1;
            }
            if id == self.rows {
                return None;
            }
            let start = id;
            let page_end = (start | PAGE_MASK) + 1;
            while id < self.rows.min(page_end) && self.is_live(id) {
                id += 1;
            }
            let data = &self.pages[start >> PAGE_SHIFT].data;
            let from = (start & PAGE_MASK) * self.arity;
            Some(&data[from..from + (id - start) * self.arity])
        })
    }

    /// The live rows, packed flat in id order: `len() × arity()` ids,
    /// row `r` at `r × arity .. (r + 1) × arity`.  This is the
    /// (de)serialization surface checkpointing reads — tombstones are
    /// skipped, so the dump is exactly what
    /// [`Relation::from_packed_rows`] rebuilds (a checkpoint/restore
    /// cycle implies a compaction).  Note the ids are process-run-local;
    /// a cross-process consumer must pair the dump with an
    /// [`ArenaSnapshot`](magic_datalog::ArenaSnapshot) and remap on load.
    pub fn packed_live_rows(&self) -> Vec<ValId> {
        let mut out = Vec::with_capacity(self.len() * self.arity);
        for run in self.live_runs() {
            out.extend_from_slice(run);
        }
        out
    }

    /// Rebuild a relation from a flat packed dump of `n_rows` rows (the
    /// inverse of [`Relation::packed_live_rows`], after any cross-process
    /// id remapping).  Rows are inserted in dump order, so ids come out
    /// dense `0..n_rows`; duplicate rows in the dump are deduplicated
    /// like any insert.  `n_rows` is explicit so zero-arity relations
    /// (whose rows serialize no ids at all) round-trip too.
    ///
    /// # Panics
    ///
    /// Panics if `ids.len() != n_rows * arity`.
    pub fn from_packed_rows(arity: usize, n_rows: usize, ids: &[ValId]) -> Relation {
        assert_eq!(
            ids.len(),
            n_rows * arity,
            "packed dump length {} does not match {n_rows} rows of arity {arity}",
            ids.len()
        );
        let mut rel = Relation::new(arity);
        if n_rows > 0 {
            rel.insert_batch(ids, |_, _| {});
        }
        rel
    }
}

impl PartialEq for Relation {
    fn eq(&self, other: &Self) -> bool {
        // Set equality: both sides are duplicate-free, so equal live counts
        // plus one-way containment suffice.
        self.arity == other.arity
            && self.len() == other.len()
            && self.iter_ids().all(|(_, row)| other.contains_ids(row))
    }
}

impl Eq for Relation {}

impl FromIterator<Row> for Relation {
    fn from_iter<T: IntoIterator<Item = Row>>(iter: T) -> Self {
        let rows: Vec<Row> = iter.into_iter().collect();
        let arity = rows.first().map(|r| r.len()).unwrap_or(0);
        let mut rel = Relation::new(arity);
        for r in rows {
            rel.insert(r);
        }
        rel
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn v(s: &str) -> Value {
        Value::sym(s)
    }

    /// A seeded SplitMix64 stream of draws in `0..bound`, inline: the
    /// storage crate has no dev-dependency to borrow the workloads crate's
    /// generator (the same algorithm) from.
    fn splitmix(seed: u64) -> impl FnMut(usize) -> usize {
        let mut state = seed;
        move |bound: usize| {
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            ((z ^ (z >> 31)) % bound as u64) as usize
        }
    }

    /// `cow_clones()` is process-wide: the tests that write units shared
    /// with a clone take this in turn, so one's count sees no other's.
    static SHARED_WRITES: std::sync::Mutex<()> = std::sync::Mutex::new(());

    fn shared_writes() -> std::sync::MutexGuard<'static, ()> {
        SHARED_WRITES
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner())
    }

    /// [`Relation::scan_select`] in the element type of an index list.
    fn scanned(r: &Relation, positions: &[usize], key: &[ValId]) -> Vec<u32> {
        r.scan_select(positions, key)
            .into_iter()
            .map(|id| id as u32)
            .collect()
    }

    #[test]
    fn insert_and_dedup() {
        let mut r = Relation::new(2);
        assert!(r.insert(vec![v("a"), v("b")]));
        assert!(!r.insert(vec![v("a"), v("b")]));
        assert!(r.insert(vec![v("a"), v("c")]));
        assert_eq!(r.len(), 2);
        assert!(r.contains(&[v("a"), v("b")]));
        assert!(!r.contains(&[v("b"), v("a")]));
    }

    #[test]
    #[should_panic(expected = "row arity")]
    fn arity_mismatch_panics() {
        let mut r = Relation::new(2);
        r.insert(vec![v("a")]);
    }

    #[test]
    fn select_builds_index_and_stays_current() {
        let mut r = Relation::new(2);
        r.insert(vec![v("a"), v("b")]);
        r.insert(vec![v("a"), v("c")]);
        r.insert(vec![v("d"), v("e")]);
        let ids = r.select_ids(&[0], &[v("a")]);
        assert_eq!(ids.len(), 2);
        // Index must be maintained across later inserts.
        r.insert(vec![v("a"), v("f")]);
        let ids = r.select_ids(&[0], &[v("a")]);
        assert_eq!(ids.len(), 3);
        // Multi-position keys.
        let ids = r.select_ids(&[0, 1], &[v("a"), v("c")]);
        assert_eq!(ids.len(), 1);
        assert_eq!(r.row_values(ids[0]), vec![v("a"), v("c")]);
        // Missing keys return nothing.
        assert!(r.select_ids(&[0], &[v("zzz")]).is_empty());
        // Empty position list selects everything.
        assert_eq!(r.select_ids(&[], &[]).len(), 4);
    }

    #[test]
    fn index_ids_stay_ascending_across_inserts() {
        // The join's delta-window slicing relies on this invariant.
        let mut r = Relation::new(2);
        r.ensure_index(&[0]);
        for i in 0..40i64 {
            r.insert(vec![Value::Int(i % 4), Value::Int(i)]);
        }
        for k in 0..4i64 {
            let ids = r
                .lookup(&[0], &intern_row(&[Value::Int(k)]))
                .unwrap()
                .to_vec();
            assert!(ids.windows(2).all(|w| w[0] < w[1]), "ids not ascending");
            assert_eq!(ids.len(), 10);
        }
    }

    #[test]
    fn wide_index_keys_work_like_narrow_ones() {
        // 3+ key positions take the boxed-key representation; behaviour
        // must be indistinguishable from the packed ≤2-position form.
        let mut r = Relation::new(4);
        r.ensure_index(&[0, 1, 2]);
        for i in 0..50i64 {
            r.insert(vec![
                Value::Int(i % 2),
                Value::Int(i % 3),
                Value::Int(i % 5),
                Value::Int(i),
            ]);
        }
        let key = intern_row(&[Value::Int(1), Value::Int(1), Value::Int(1)]);
        let ids = r.lookup(&[0, 1, 2], &key).unwrap().to_vec();
        assert!(!ids.is_empty());
        assert!(ids.windows(2).all(|w| w[0] < w[1]));
        assert_eq!(ids, scanned(&r, &[0, 1, 2], &key));
        let (id, _) = r.iter_ids().next().unwrap();
        r.remove_id(id);
        let after = r.lookup(&[0, 1, 2], &key).unwrap();
        assert!(!after.contains(&(id as u32)));
    }

    #[test]
    fn tail_partition_point_matches_the_binary_search_reference() {
        let mut next = splitmix(0x5EED_0037);
        for case in 0..4000 {
            // An ascending id list with random gaps (dense, sparse, empty).
            let len = [0, 1, 2, 3, 17, 64, 300][next(7)];
            let gap = [1, 2, 9][next(3)];
            let mut ids: Vec<u32> = Vec::with_capacity(len);
            let mut id = next(5) as u32;
            for _ in 0..len {
                ids.push(id);
                id += 1 + next(gap) as u32;
            }
            // Victims at the front and the back, absent ids below, between
            // and past the listed ones, and random bounds.
            let mut bounds = vec![0, id, id + 3];
            if let (Some(&first), Some(&last)) = (ids.first(), ids.last()) {
                bounds.extend([first, last, first.saturating_sub(1), last + 1]);
                bounds.extend(ids.get(1).map(|&second| second - 1));
                bounds.extend(ids.len().checked_sub(2).map(|i| ids[i]));
            }
            for _ in 0..6 {
                bounds.push(next(id as usize + 4) as u32);
            }
            for bound in bounds {
                let pos = tail_partition_point(&ids, bound);
                assert_eq!(
                    pos,
                    ids.partition_point(|&id| id < bound),
                    "case {case}: ids {ids:?}, bound {bound}"
                );
                // The removal test reads the same position as a search.
                let found = if ids.get(pos) == Some(&bound) {
                    Ok(pos)
                } else {
                    Err(pos)
                };
                assert_eq!(found, ids.binary_search(&bound), "case {case}: {bound}");
            }
        }
    }

    #[test]
    fn index_removal_from_either_end_matches_the_scan() {
        // A narrow and a wide index under removal, oldest rows first and
        // then newest first: after every step each key's posting list is
        // exactly what a scan selects.
        let mut r = Relation::new(4);
        r.ensure_index(&[0]);
        r.ensure_index(&[0, 1, 2]);
        let row = |k: i64| {
            vec![
                Value::Int(k % 3),
                Value::Int(k % 2),
                Value::Int(k % 5),
                Value::Int(k),
            ]
        };
        for k in 0..300 {
            r.insert(row(k));
        }
        let check = |r: &Relation, step: &str| {
            for k in 0..30 {
                let full = intern_row(&row(k));
                for positions in [&[0][..], &[0, 1, 2]] {
                    let key: Vec<ValId> = positions.iter().map(|&p| full[p]).collect();
                    assert_eq!(
                        r.lookup(positions, &key).unwrap(),
                        scanned(r, positions, &key),
                        "{step}: key {key:?} on {positions:?}"
                    );
                }
            }
        };
        for id in 0..150 {
            assert!(r.remove_id(id));
            check(&r, &format!("oldest-first, removed id {id}"));
        }
        for id in (150..300).rev() {
            assert!(r.remove_id(id));
            check(&r, &format!("newest-first, removed id {id}"));
        }
        assert!(r.is_empty());
        // Emptied lists dropped their keys.
        match &r.indexes[&vec![0]] {
            ShardedIndex::Small(shards) => assert!(shards.iter().all(|s| s.is_empty())),
            ShardedIndex::Wide(_) => unreachable!("one position is a narrow key"),
        }
    }

    #[test]
    fn scan_select_agrees_with_index() {
        let mut r = Relation::new(3);
        for i in 0..10i64 {
            r.insert(vec![Value::Int(i % 3), Value::Int(i), Value::Int(i * 2)]);
        }
        let key = intern_row(&[Value::Int(1)]);
        let scanned = r.scan_select(&[0], &key);
        let indexed = r.select_ids(&[0], &[Value::Int(1)]);
        assert_eq!(scanned, indexed);
    }

    #[test]
    fn project_dedups() {
        let mut r = Relation::new(2);
        r.insert(vec![v("a"), v("b")]);
        r.insert(vec![v("a"), v("c")]);
        r.insert(vec![v("d"), v("b")]);
        let proj = r.project(&[0]);
        assert_eq!(proj, vec![vec![v("a")], vec![v("d")]]);
        let proj = r.project(&[1, 0]);
        assert_eq!(proj.len(), 3);
    }

    #[test]
    fn merge_counts_new_rows() {
        let mut a = Relation::new(1);
        a.insert(vec![v("x")]);
        let mut b = Relation::new(1);
        b.insert(vec![v("x")]);
        b.insert(vec![v("y")]);
        assert_eq!(a.merge(&b), 1);
        assert_eq!(a.len(), 2);
    }

    #[test]
    fn equality_ignores_insertion_order() {
        let mut a = Relation::new(1);
        a.insert(vec![v("x")]);
        a.insert(vec![v("y")]);
        let mut b = Relation::new(1);
        b.insert(vec![v("y")]);
        b.insert(vec![v("x")]);
        assert_eq!(a, b);
        b.insert(vec![v("z")]);
        assert_ne!(a, b);
    }

    #[test]
    fn remove_keeps_dedup_and_indexes_consistent() {
        let mut r = Relation::new(2);
        r.insert(vec![v("a"), v("b")]);
        r.insert(vec![v("a"), v("c")]);
        r.insert(vec![v("d"), v("e")]);
        r.ensure_index(&[0]);
        assert!(r.remove(&[v("a"), v("b")]));
        assert!(!r.remove(&[v("a"), v("b")]));
        assert_eq!(r.len(), 2);
        assert!(!r.contains(&[v("a"), v("b")]));
        // Index answers reflect the removal and later inserts still work.
        let key_a = intern_row(&[v("a")]);
        assert_eq!(r.lookup(&[0], &key_a).unwrap().len(), 1);
        assert!(r.insert(vec![v("a"), v("b")]));
        assert_eq!(r.lookup(&[0], &key_a).unwrap().len(), 2);
        assert!(r
            .lookup(&[0], &key_a)
            .unwrap()
            .windows(2)
            .all(|w| w[0] < w[1]));
    }

    #[test]
    fn remove_tombstones_and_preserves_row_ids() {
        let mut r = Relation::new(1);
        for s in ["a", "b", "c", "d"] {
            r.insert(vec![v(s)]);
        }
        let removed = r.remove_rows(&[vec![v("b")], vec![v("zzz")], vec![v("d")]]);
        assert_eq!(removed, 2);
        assert_eq!(r.len(), 2);
        assert_eq!(r.tombstones(), 2);
        assert_eq!(r.watermark(), 4);
        assert!(r.contains(&[v("a")]));
        assert!(r.contains(&[v("c")]));
        // Ids are stable: survivors keep their slots.
        assert_eq!(r.id_of(&[v("a")]), Some(0));
        assert_eq!(r.id_of(&[v("c")]), Some(2));
        assert_eq!(r.id_of(&[v("b")]), None);
        assert!(!r.is_live(1));
        // Iteration skips tombstones.
        let rows: Vec<Row> = r.iter().collect();
        assert_eq!(rows, vec![vec![v("a")], vec![v("c")]]);
        // Re-inserting a removed row appends a fresh id past the watermark.
        assert!(r.insert(vec![v("b")]));
        assert_eq!(r.id_of(&[v("b")]), Some(4));
        assert_eq!(r.watermark(), 5);
    }

    #[test]
    fn compact_reclaims_tombstones_and_renumbers() {
        let mut r = Relation::new(2);
        for s in ["a", "b", "c", "d"] {
            r.insert(vec![v(s), v("x")]);
        }
        r.ensure_index(&[0]);
        r.remove(&[v("a"), v("x")]);
        r.remove(&[v("c"), v("x")]);
        r.compact();
        assert_eq!(r.len(), 2);
        assert_eq!(r.tombstones(), 0);
        assert_eq!(r.watermark(), 2);
        // Survivors are renumbered densely in former id order.
        assert_eq!(r.id_of(&[v("b"), v("x")]), Some(0));
        assert_eq!(r.id_of(&[v("d"), v("x")]), Some(1));
        // Indexes were rebuilt on the same pattern and stay maintained.
        assert_eq!(r.lookup(&[0], &intern_row(&[v("b")])).unwrap(), &[0]);
        assert!(r.insert(vec![v("e"), v("x")]));
        assert_eq!(r.lookup(&[0], &intern_row(&[v("e")])).unwrap(), &[2]);
        // Compacting a tombstone-free relation is a no-op.
        r.compact();
        assert_eq!(r.len(), 3);
    }

    #[test]
    fn whole_row_patterns_are_answered_by_the_dedup_table() {
        // A key on every position is a row: no secondary index is built
        // for it (before or after rows arrive, or by compaction), `lookup`
        // has nothing to borrow from, and `select_ids` resolves through
        // `find_id` — live rows only, like any index.
        let mut r = Relation::new(2);
        r.ensure_index(&[0, 1]);
        for i in 0..600i64 {
            r.insert(vec![Value::Int(i % 7), Value::Int(i)]);
        }
        r.ensure_index(&[0, 1]); // past the bulk-build threshold too
        assert!(r.covers_row(&[0, 1]));
        assert!(!r.covers_row(&[0]) && !r.covers_row(&[1, 0]) && !r.covers_row(&[]));
        assert!(r.indexes.is_empty());
        assert!(r
            .lookup(&[0, 1], &intern_row(&[Value::Int(3), Value::Int(3)]))
            .is_none());
        let hit = [Value::Int(3), Value::Int(3)];
        assert_eq!(r.select_ids(&[0, 1], &hit), vec![3]);
        assert_eq!(
            r.select_ids(&[0, 1], &hit),
            r.scan_select(&[0, 1], &intern_row(&hit))
        );
        assert!(r
            .select_ids(&[0, 1], &[Value::Int(3), Value::Int(4)])
            .is_empty());
        r.remove(&hit);
        assert!(r.select_ids(&[0, 1], &hit).is_empty());
        r.compact();
        assert!(r.indexes.is_empty());
        // A permuted whole-row pattern is an ordinary index.
        r.ensure_index(&[1, 0]);
        assert_eq!(r.indexes.len(), 1);
        // Unary relations: the one-column pattern is the whole row.
        let mut u = Relation::new(1);
        u.insert(vec![v("a")]);
        u.ensure_index(&[0]);
        assert!(u.indexes.is_empty());
        assert_eq!(u.select_ids(&[0], &[v("a")]), vec![0]);
    }

    #[test]
    fn packed_keys_spread_over_the_low_hash_bits() {
        // Bucket choice inside a shard map comes from the low hash bits.
        // One-column keys pad the low word of the packed key with a
        // constant, and before `FxHasher::finish` folded the state that
        // constant *was* the low half of the hash: every key of a unary
        // index shared one bucket group.  100 000 keys over 4096 buckets
        // must stay within 2x of the uniform load.
        const KEYS: usize = 100_000;
        const BUCKETS: usize = 1 << 12;
        let spread = |key_of: &dyn Fn(usize) -> u64| {
            let mut load = vec![0usize; BUCKETS];
            for i in 0..KEYS {
                load[fx_hash(&key_of(i)) as usize & (BUCKETS - 1)] += 1;
            }
            load.into_iter().max().unwrap()
        };
        let int = |i: usize| ValId::from_int(i as i64);
        let unary = spread(&|i| pack_key2(&[int(i)]));
        let binary = spread(&|i| pack_key2(&[int(i % 317), int(i / 317)]));
        // Low words that differ only above bit 12 (a stride of 4096).
        let strided = spread(&|i| pack_key2(&[int(7), int(i << 12)]));
        for (name, max) in [("unary", unary), ("binary", binary), ("strided", strided)] {
            assert!(
                max <= 2 * KEYS / BUCKETS,
                "{name} keys: fullest of {BUCKETS} buckets holds {max} of {KEYS}"
            );
        }
        // Shard choice reads bits 32..36 of the same word.
        let mut shards = [0usize; SHARDS];
        for i in 0..KEYS {
            shards[shard_of(fx_hash(&pack_key2(&[int(i)])))] += 1;
        }
        assert!(shards.iter().all(|&n| n <= 2 * KEYS / SHARDS));
    }

    #[test]
    fn dedup_shard_reuses_tombstones_and_rehashes_from_tags() {
        // Colliding tags (same home slot), so probe sequences overlap and
        // removal must leave them connected.
        let mut shard = DedupShard::default();
        let insert = |shard: &mut DedupShard, tag: u32, id: u32| {
            let vacancy = shard.probe(tag, |c| c == id).expect_err("absent");
            shard.occupy(vacancy, tag, id);
        };
        let find = |shard: &DedupShard, tag: u32, id: u32| shard.probe(tag, |c| c == id).is_ok();
        for id in 0..5 {
            insert(&mut shard, 8 * id, id); // all home at slot 0
        }
        assert_eq!((shard.slots.len(), shard.live, shard.tombs), (8, 5, 0));
        shard.vacate(8, 1);
        shard.vacate(24, 3);
        assert_eq!((shard.live, shard.tombs), (3, 2));
        // Entries past the tombstones are still reachable.
        assert!(find(&shard, 32, 4) && !find(&shard, 8, 1));
        // A new entry takes the first tombstone of its probe sequence, not
        // a fresh slot: occupancy (live + tombstones) does not grow.
        insert(&mut shard, 40, 5);
        assert_eq!((shard.slots.len(), shard.live, shard.tombs), (8, 4, 1));
        assert_eq!(shard.slots[1], 40u64 << 32 | 5);
        // Filling past 3/4 rehashes: tombstones vanish, every entry is
        // re-homed from its stored tag and stays findable.
        for id in 6..12 {
            insert(&mut shard, 8 * id + 3, id);
        }
        assert_eq!((shard.live, shard.tombs), (10, 0));
        assert!(shard.slots.len() >= 16);
        for (tag, id) in [(0, 0), (16, 2), (32, 4), (40, 5), (51, 6), (91, 11)] {
            assert!(find(&shard, tag, id), "({tag}, {id}) lost in rehash");
        }
        // Churn at constant size does not grow the table past the size a
        // rehash picks for the live count (≤ 1/2 full): tombstones are
        // either reused or swept by a same-size rehash.
        for round in 0..1000u32 {
            let id = 100 + round;
            insert(&mut shard, id * 7, id);
            shard.vacate(id * 7, id);
        }
        assert_eq!((shard.slots.len(), shard.live), (32, 10));
        assert!(shard.tombs < 24);
    }

    #[test]
    fn cloned_relation_is_isolated_from_later_writes() {
        // The copy-on-write contract at the semantic level: a clone is a
        // self-contained snapshot, whatever the original does afterwards
        // — and vice versa.
        let _turn = shared_writes();
        let mut r = Relation::new(2);
        r.ensure_index(&[0]);
        for i in 0..100i64 {
            r.insert(vec![Value::Int(i % 7), Value::Int(i)]);
        }
        let snap = r.clone();
        for i in 100..200i64 {
            r.insert(vec![Value::Int(i % 7), Value::Int(i)]);
        }
        r.remove(&[Value::Int(0), Value::Int(0)]);
        assert_eq!(snap.len(), 100);
        assert_eq!(r.len(), 199);
        assert!(snap.contains(&[Value::Int(0), Value::Int(0)]));
        assert!(!r.contains(&[Value::Int(0), Value::Int(0)]));
        let key = intern_row(&[Value::Int(3)]);
        assert_eq!(snap.lookup(&[0], &key).unwrap(), scanned(&snap, &[0], &key));
        assert_eq!(r.lookup(&[0], &key).unwrap(), scanned(&r, &[0], &key));
    }

    /// A relation's live `(id, row)`s and a list of posting lists.
    type Contents = (Vec<(usize, Vec<ValId>)>, Vec<Vec<u32>>);

    /// What a reader of `r` sees, as plain data: its live rows and, for
    /// the key of each row of `probes` on each indexed pattern, the
    /// posting list (checked ascending on the way).
    fn contents(r: &Relation, probes: &[Vec<ValId>]) -> Contents {
        let rows = r.iter_ids().map(|(id, row)| (id, row.to_vec())).collect();
        let mut patterns: Vec<&Vec<usize>> = r.indexes.keys().collect();
        patterns.sort();
        let mut lists = Vec::new();
        for positions in patterns {
            for row in probes {
                let key: Vec<ValId> = positions.iter().map(|&p| row[p]).collect();
                let ids = r.lookup(positions, &key).unwrap();
                assert!(ids.windows(2).all(|w| w[0] < w[1]), "ids not ascending");
                lists.push(ids.to_vec());
            }
        }
        (rows, lists)
    }

    /// The storage units of `r` that inserting the rows `new` (all new,
    /// in order) writes: each distinct dedup shard and index shard they
    /// land in, and the append page if it exists already.
    fn units_written(r: &Relation, new: &[&Vec<ValId>]) -> u64 {
        if new.is_empty() {
            return 0;
        }
        let dedup: HashSet<usize> = new.iter().map(|row| shard_of(hash_ids(row))).collect();
        let mut units = dedup.len() + usize::from(r.watermark() & PAGE_MASK != 0);
        for (positions, index) in &r.indexes {
            let shards: HashSet<usize> = new
                .iter()
                .map(|row| {
                    let key: Vec<ValId> = positions.iter().map(|&p| row[p]).collect();
                    index.shard_for(&key)
                })
                .collect();
            units += shards.len();
        }
        units as u64
    }

    #[test]
    fn insert_batch_matches_one_row_at_a_time() {
        // Seeded cases over arity 1–4 with a narrow and (from arity 3) a
        // wide index.  Each batch mixes fresh rows, rows already stored,
        // tombstoned rows coming back and repeats of its own earlier rows,
        // and some start just short of a page boundary.  A relation given
        // the same rows one `insert_ids_at` at a time is the reference.
        let _turn = shared_writes();
        let mut next = splitmix(0x5EED_0051);
        for case in 0..64 {
            let arity = 1 + next(4);
            let mut patterns = vec![vec![next(arity)]];
            if arity >= 2 {
                patterns.push(vec![arity - 1, 0]);
            }
            if arity >= 3 {
                patterns.push(vec![arity - 1, 0, 1]);
            }
            let mut batch = Relation::new(arity);
            let mut reference = Relation::new(arity);
            for positions in &patterns {
                batch.ensure_index(positions);
                reference.ensure_index(positions);
            }
            // Distinct stored rows, outside the batches' value domain.
            for i in 0..[0, 5, 60, PAGE_ROWS - 3][next(4)] {
                let row: Vec<ValId> = (0..arity)
                    .map(|p| ValId::from_int(if p == 0 { 1000 + i as i64 } else { p as i64 }))
                    .collect();
                batch.insert_ids_at(&row);
                reference.insert_ids_at(&row);
            }
            let domain = [2, 3, 40][next(3)];
            let mut removed: Vec<Vec<ValId>> = Vec::new();
            let mut probes: Vec<Vec<ValId>> = Vec::new();
            for round in 0..3 {
                for _ in 0..next(4) {
                    if batch.watermark() > 0 {
                        let id = next(batch.watermark());
                        removed.push(batch.row_ids(id).to_vec());
                        assert_eq!(batch.remove_id(id), reference.remove_id(id));
                    }
                }
                let mut rows: Vec<Vec<ValId>> = Vec::new();
                for _ in 0..[1, 2, 7, 40, 300][next(5)] {
                    let row = match next(4) {
                        0 if batch.watermark() > 0 => {
                            batch.row_ids(next(batch.watermark())).to_vec()
                        }
                        1 if !removed.is_empty() => removed[next(removed.len())].clone(),
                        2 if !rows.is_empty() => rows[next(rows.len())].clone(),
                        _ => (0..arity)
                            .map(|_| ValId::from_int(next(domain) as i64))
                            .collect(),
                    };
                    rows.push(row);
                }
                for row in rows.iter().chain(&removed) {
                    if !probes.contains(row) {
                        probes.push(row.clone());
                    }
                }
                let want: Vec<(usize, bool)> = rows
                    .iter()
                    .map(|row| reference.insert_ids_at(row))
                    .collect();
                let new: Vec<&Vec<ValId>> = rows
                    .iter()
                    .zip(&want)
                    .filter_map(|(row, &(_, new))| new.then_some(row))
                    .collect();
                let snapshot = (next(2) == 0).then(|| batch.clone());
                let frozen = snapshot.as_ref().map(|s| contents(s, &probes));
                let written = units_written(&batch, &new);
                let clones = cow_clones();
                let mut got = Vec::new();
                let added = batch.insert_batch(&rows.concat(), |id, new| got.push((id, new)));
                let clones = cow_clones() - clones;
                let at = format!("case {case} round {round} (arity {arity})");
                assert_eq!(got, want, "{at}: (id, new) sequence");
                assert_eq!(added, new.len(), "{at}");
                assert_eq!(batch.watermark(), reference.watermark(), "{at}");
                assert_eq!(batch.len(), reference.len(), "{at}");
                for row in &probes {
                    assert_eq!(batch.find_id(row), reference.find_id(row), "{at}: {row:?}");
                }
                let seen = contents(&batch, &probes);
                assert!(seen == contents(&reference, &probes), "{at}: rows or lists");
                for positions in &patterns {
                    for row in probes.iter().take(8) {
                        let key: Vec<ValId> = positions.iter().map(|&p| row[p]).collect();
                        if let Some(ids) = batch.lookup(positions, &key) {
                            assert_eq!(ids, scanned(&batch, positions, &key), "{at}");
                        }
                    }
                }
                // A clone taken before the batch reads what it read then;
                // every unit the batch wrote was shared with it and is
                // cloned exactly once.
                match (snapshot, frozen) {
                    (Some(snapshot), Some(frozen)) => {
                        assert!(
                            contents(&snapshot, &probes) == frozen,
                            "{at}: snapshot moved"
                        );
                        assert_eq!(clones, written, "{at}: copy-on-write clones");
                    }
                    _ => assert_eq!(clones, 0, "{at}: clones without a snapshot"),
                }
            }
        }
    }

    #[test]
    fn pages_span_boundaries_transparently() {
        // Cross the 4096-row page boundary and make sure ids, iteration,
        // dedup and index answers behave exactly as in the flat layout.
        let mut r = Relation::new(2);
        r.ensure_index(&[0]);
        let n = (PAGE_ROWS + 100) as i64;
        for i in 0..n {
            assert!(r.insert(vec![Value::Int(i % 3), Value::Int(i)]));
        }
        for i in 0..n {
            assert!(!r.insert(vec![Value::Int(i % 3), Value::Int(i)]));
        }
        assert_eq!(r.len(), n as usize);
        assert_eq!(
            r.row_ids(PAGE_ROWS),
            intern_row(&[
                Value::Int(PAGE_ROWS as i64 % 3),
                Value::Int(PAGE_ROWS as i64)
            ])
            .as_slice()
        );
        let key = intern_row(&[Value::Int(1)]);
        let ids = r.lookup(&[0], &key).unwrap();
        assert!(ids.windows(2).all(|w| w[0] < w[1]));
        assert_eq!(ids.len(), r.scan_select(&[0], &key).len());
        assert_eq!(r.iter_ids().count(), n as usize);
    }

    #[test]
    fn bulk_index_build_matches_the_incremental_build() {
        // Above the bulk threshold, with duplicates per key and some
        // tombstones: the sorted bulk path must produce exactly the
        // ascending id lists the per-row path would.
        let mut bulk = Relation::new(2);
        for i in 0..1500i64 {
            bulk.insert(vec![Value::Int(i % 37), Value::Int(i)]);
        }
        for i in (0..1500i64).step_by(5) {
            bulk.remove(&[Value::Int(i % 37), Value::Int(i)]);
        }
        let mut incremental = bulk.clone();
        bulk.ensure_index(&[0]); // len >= 512: bulk path
                                 // Force the per-row path by building on an empty clone and
                                 // replaying inserts through index maintenance instead.
        incremental.ensure_index(&[1]);
        incremental.ensure_index(&[0]); // also bulk; compare vs scan
        for k in 0..37i64 {
            let key = intern_row(&[Value::Int(k)]);
            let ids = bulk.lookup(&[0], &key).unwrap();
            assert!(ids.windows(2).all(|w| w[0] < w[1]), "ids not ascending");
            assert_eq!(ids, scanned(&bulk, &[0], &key), "bulk != scan");
            assert_eq!(ids, incremental.lookup(&[0], &key).unwrap());
        }
    }

    #[test]
    fn packed_dump_round_trips_and_skips_tombstones() {
        let mut r = Relation::new(2);
        for i in 0..20i64 {
            r.insert(vec![Value::Int(i % 5), Value::Int(i)]);
        }
        r.remove(&[Value::Int(2), Value::Int(7)]);
        r.remove(&[Value::Int(0), Value::Int(15)]);
        let dump = r.packed_live_rows();
        assert_eq!(dump.len(), r.len() * r.arity());
        let rebuilt = Relation::from_packed_rows(2, r.len(), &dump);
        assert_eq!(rebuilt, r);
        assert_eq!(rebuilt.tombstones(), 0);
        // Ids came out dense in dump order.
        assert_eq!(rebuilt.watermark(), r.len());
        // Zero-arity relations round-trip through the explicit row count.
        let mut b = Relation::new(0);
        b.insert_ids(&[]);
        let rebuilt = Relation::from_packed_rows(0, b.len(), &b.packed_live_rows());
        assert_eq!(rebuilt.len(), 1);
        let empty = Relation::from_packed_rows(0, 0, &[]);
        assert!(empty.is_empty());
    }

    #[test]
    #[should_panic(expected = "packed dump length")]
    fn packed_dump_length_mismatch_panics() {
        Relation::from_packed_rows(2, 3, &intern_row(&[v("a"), v("b")]));
    }

    #[test]
    fn dedup_survives_many_inserts() {
        // Exercise the dedup table with enough rows that any hashing bug
        // would show as phantom duplicates.
        let mut r = Relation::new(2);
        for i in 0..1000i64 {
            assert!(r.insert(vec![Value::Int(i / 25), Value::Int(i % 25)]));
        }
        for i in 0..1000i64 {
            assert!(!r.insert(vec![Value::Int(i / 25), Value::Int(i % 25)]));
            assert!(r.contains(&[Value::Int(i / 25), Value::Int(i % 25)]));
        }
        assert_eq!(r.len(), 1000);
    }
}
