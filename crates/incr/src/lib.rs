//! # magic-incr
//!
//! Incremental view maintenance for the *Power of Magic* engine: live
//! insert/retract over materialized (possibly magic-rewritten) program
//! fixpoints, without re-running the fixpoint from scratch.
//!
//! The paper's rewrites produce programs whose bottom-up fixpoint *is* the
//! query answer; serving that answer under a changing extensional database
//! means maintaining the fixpoint, not recomputing it.  This crate provides:
//!
//! * [`MaterializedView`] — a session over one program + database:
//!   construct once, then [`insert`](MaterializedView::insert) /
//!   [`retract`](MaterializedView::retract) / batched
//!   [`apply`](MaterializedView::apply).  Insertions re-enter the engine's
//!   semi-naive loop from a seeded delta window; retractions
//!   delete-and-rederive (DRed, as in the micro-Datalog lineage of
//!   delta-driven engines), the one algorithm that stays sound on the
//!   recursive cones magic rewriting produces.
//! * [`ViewCatalog`] — the serving-layer shape: one live view per
//!   rewritten program, and the *adorned query bindings*
//!   (`anc_bf[bf](john)@gms`) seeded into it as facts of its magic
//!   predicate ([`MaterializedView::add_seed`]); base-fact updates stream
//!   into every view once, however many bindings read it.
//!
//! Correctness is defined against from-scratch evaluation: after any
//! sequence of updates, the maintained database equals
//! `Evaluator::run` over the updated base facts (the oracle the
//! `tests/incremental.rs` suite checks, including retract-then-rederive on
//! cyclic data).

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod catalog;
pub mod error;
pub mod view;

pub use catalog::{ApplyAllOutcome, CatalogError, ViewCatalog, ViewSnapshot};
pub use error::IncrError;
pub use view::{ApplyReport, MaintenanceMode, MaterializedView, Update};
