//! # magic-storage
//!
//! Fact storage for the deductive database substrate: relations of ground
//! tuples with hash indexes on bound-position patterns, and databases keyed
//! by (structured) predicate names.
//!
//! ## Storage layout: interned packed rows
//!
//! Every ground [`Value`](magic_datalog::Value) is interned once in the
//! process-wide **value arena** (re-exported here as [`ValId`]; it lives in
//! `magic_datalog::arena` so the slot-compiled term evaluator can match at
//! id level too).  A `ValId` is a `Copy` `u32` with a 2-bit tag: small
//! integers (±2^29) and symbols are encoded **inline** in the payload and
//! never touch a table; out-of-range integers and compound terms are
//! hash-consed into an append-only node table with lock-free reads, so
//! structural equality of any two ground values is a single integer
//! compare, all the way down.
//!
//! A [`Relation`] stores its rows append-only in **chunked pages** of 4096
//! row slots: row `id` lives in page `id / 4096` at page-local offset
//! `(id % 4096) × arity`, together with the page's liveness bits.
//! Duplicate elimination hashes the packed id slice (FxHash over `u32`s,
//! finalized so every bit is usable) into an open-addressed table of
//! `(hash tag, row id)` words — 8 bytes a slot, confirmed against the
//! stored row — split into 16 shards by hash; secondary indexes map
//! packed keys to ascending lists of row ids, likewise sharded.  Index
//! keys of **≤ 2 positions are packed inline into one `u64`** (two
//! inline-tagged `ValId` raw words) — no per-key boxing and no node-table
//! indirection on the dominant binary-relation workloads.  A pattern that
//! names *every* position gets no secondary index at all: such a key is a
//! row, and the dedup table is already the index on rows
//! ([`Relation::covers_row`], [`Relation::find_id`]) — 8 bytes a row where
//! a map entry holding a one-element id list cost about ten times that.
//! Nothing on the insert or probe path hashes or clones a `Value`; rows
//! are decoded back to `Vec<Value>` only at the API edge
//! ([`Relation::iter`], [`Relation::row_values`], query answers).
//!
//! ## Tombstone lifecycle
//!
//! Removal never rebuilds the store.  [`Relation::remove_id`] (and the
//! value-level wrappers [`Relation::remove`] / [`Relation::remove_rows`])
//! mark the row's slot **dead** in a liveness bitset and eagerly drop its
//! id from the dedup table and from every index, so lookups, scans and
//! iteration never observe dead rows — at O(indexes) per removed row.  The
//! dead slot itself stays in the arena, which keeps **row ids stable**:
//! the semi-naive delta machinery marks relation extents with the monotone
//! [`Relation::watermark`] (high-water row id) rather than the live count,
//! so ids and delta marks taken before a removal stay valid after it.
//! [`Relation::compact`] reclaims the dead slots (renumbering rows and
//! rebuilding dedup + indexes); callers — the incremental view layer —
//! invoke it between maintenance operations once
//! [`Relation::tombstones`] crosses a threshold, and take fresh marks
//! afterwards.
//!
//! ## Copy-on-write snapshots
//!
//! Every storage unit — row pages, dedup shards, index shards — sits
//! behind an `Arc`, so `Database::clone` / `Relation::clone` are pure
//! pointer bumps: a clone is a self-contained **copy-on-write snapshot**,
//! and every interned `ValId` stays valid process-wide.  Writes after a
//! clone re-copy exactly the units they touch ([`cow_clones`] counts
//! them; an insert batch takes each unit's uniqueness check once), so
//! publishing a snapshot costs nothing and the writer pays
//! O(touched units) per publish cycle, never O(data).  The serving layer
//! (`magic-serve`) leans on exactly this: its writer publishes cheap
//! clones behind an `Arc` after every batch, and its readers answer from
//! the frozen copies while maintenance continues.  A relation has no
//! interior mutability, so a frozen copy is read from any number of
//! threads without a lock.
//!
//! ```
//! use magic_storage::Database;
//! use magic_datalog::{Fact, PredName, Value};
//!
//! let mut db = Database::new();
//! db.insert_pair("par", "john", "mary");
//! db.insert_pair("par", "mary", "ann");
//! assert_eq!(db.count(&PredName::plain("par")), 2);
//! assert!(db.contains(&Fact::plain(
//!     "par",
//!     vec![Value::sym("john"), Value::sym("mary")]
//! )));
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod database;
pub mod fxhash;
pub mod relation;

/// The value arena (defined in `magic_datalog::arena`, re-exported here as
/// the storage-facing interning API).
pub use magic_datalog::arena;
pub use magic_datalog::ValId;

pub use database::{AbsentRelation, Database};
pub use fxhash::{FxBuildHasher, FxHashMap, FxHasher};
pub use relation::{cow_clones, IndexRef, Relation, Row};
