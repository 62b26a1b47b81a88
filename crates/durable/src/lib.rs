//! Crash-safe persistence for the serving layer: a write-ahead log
//! plus periodic checkpoints, and the recovery procedure that stitches
//! them back into a warm [`ViewCatalog`](magic_incr::ViewCatalog).
//!
//! The serving story so far (PR 5/6) kept everything in memory: the
//! writer thread applied update batches to the catalog's base facts,
//! maintained the views over them, and published immutable snapshots
//! for readers.  This crate makes that loop
//! durable with the classic ARIES-shaped split, sized down to the
//! paper's workloads:
//!
//! * **[`Wal`]** — every acked batch is first appended as a
//!   length-prefixed, CRC32-framed record ([`wal`] module docs give
//!   the byte layout).  "Acked" now means *logged and published*.
//! * **[`Checkpoint`]** — periodically the whole base database is
//!   frozen to one atomically-replaced file ([`checkpoint`] module
//!   docs), and the WAL is emptied; restart cost is checkpoint load +
//!   WAL-tail replay, bounded by the checkpoint cadence rather than
//!   database lifetime.
//! * **[`DurableStore::recover`]** — load the checkpoint,
//!   re-materialize the exported view bindings through the ordinary
//!   planner/fixpoint path, replay the WAL tail through view
//!   maintenance, and truncate a torn final frame (which, by the
//!   ack-after-log rule, no client was ever told succeeded).
//! * **[`faults`]** — a deterministic fault-injection seam: a
//!   [`FaultPlan`] (parsed from the `MAGIC_FAULTS` environment
//!   variable or installed programmatically) schedules exactly which
//!   fsync, append, checkpoint rename, or accepted connection fails,
//!   so the failure paths above are exercised reproducibly in tests
//!   instead of argued about.  [`DurableStore::probe`] is the
//!   degraded-mode health check that proves the WAL path works again.
//!
//! Everything here is dependency-free by construction (the build
//! environment has no crates.io access): CRC32 is hand-rolled in
//! [`crc32`], and serialization is explicit little-endian byte
//! plumbing.

#![warn(missing_docs)]

pub mod checkpoint;
pub mod crc32;
pub mod error;
pub mod faults;
pub mod store;
pub mod wal;

pub use checkpoint::{Checkpoint, RelationDump};
pub use error::DurableError;
pub use faults::{AppendFault, ConnFault, FaultPlan, MAGIC_FAULTS_ENV};
pub use store::{DurableConfig, DurableStore, Recovered};
pub use wal::{FsyncPolicy, Wal, WalFrame, WalScan};
