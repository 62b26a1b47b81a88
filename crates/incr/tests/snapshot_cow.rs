//! Publish-cost accounting for catalog snapshots.
//!
//! The serving layer's whole publish path rests on two storage claims
//! (see `magic_storage::cow_clones`):
//!
//! 1. **Idle publish clones nothing.**  Taking a [`ViewSnapshot`] is pure
//!    `Arc` pointer bumps — zero storage units (row pages, dedup shards,
//!    index shards) are deep-copied.
//! 2. **A single-view update pays O(touched units).**  Mutating the live
//!    view while a snapshot pins the old state re-copies only the pages
//!    and shards the new facts land in, never the whole database.
//! 3. **One base write per update, whatever the number of views.**  The
//!    catalog writes an update to its one base; the views adopt the
//!    written relation instead of each writing a copy of their own.
//!
//! The tests live alone in this file on purpose, and take turns through
//! [`SERIAL`]: `cow_clones()` is a process-global counter, so the deltas
//! below are only meaningful when no other test mutates shared relations
//! concurrently.

use magic_core::planner::Strategy;
use magic_datalog::{parse_program, parse_query, Fact, Value};
use magic_incr::{Update, ViewCatalog};
use magic_storage::{cow_clones, Database};
use std::sync::Mutex;

/// Held by each test for its whole run, so their counter deltas never mix.
static SERIAL: Mutex<()> = Mutex::new(());

fn chain(n: usize) -> Database {
    let mut db = Database::new();
    for i in 0..n {
        db.insert_pair("par", &format!("n{i}"), &format!("n{}", i + 1));
    }
    db
}

#[test]
fn snapshot_publish_costs_are_bounded_by_touched_units() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let program = parse_program(
        "anc(X, Y) :- par(X, Y).
         anc(X, Y) :- par(X, Z), anc(Z, Y).",
    )
    .unwrap();
    let query = parse_query("anc(n0, Y)").unwrap();

    // A chain long enough that the view's relations hold hundreds of rows
    // spread over dozens of storage units (pages + 16 dedup shards + 16
    // index shards per indexed pattern, per relation): a non-COW publish
    // would have to copy hundreds of units per snapshot.
    const N: usize = 512;
    let db = chain(N);

    let mut catalog = ViewCatalog::new(Strategy::MagicSets);
    let key = catalog.materialize(&program, &query, &db).unwrap();
    let full_answers = catalog.answers(&key).unwrap().len();
    assert_eq!(full_answers, N);

    // 1. Idle publish: snapshotting a quiescent view deep-copies nothing.
    let before = cow_clones();
    let frozen = catalog.snapshot_view(&key).unwrap();
    assert_eq!(
        cow_clones() - before,
        0,
        "taking a snapshot must not clone any storage unit"
    );
    assert_eq!(frozen.answers().len(), N);

    // 2. One appended edge while the snapshot pins the old state: the
    //    maintenance resume derives a handful of new facts, and each lands
    //    in at most one page + one dedup shard + a few index shards of its
    //    relation.  The bound below is generous for that (dozens of
    //    units), yet far under the hundreds of units a whole-database copy
    //    would cost — which is exactly the O(changed pages), not O(data),
    //    contract.
    let before = cow_clones();
    let outcome = catalog.apply_all(&[Update::Insert(Fact::plain(
        "par",
        vec![
            Value::sym(&format!("n{N}")),
            Value::sym(&format!("n{}", N + 1)),
        ],
    ))]);
    assert_eq!(outcome.changed, vec![key.clone()]);
    let touched = cow_clones() - before;
    assert!(
        touched > 0,
        "the pinned snapshot forces the write to copy the units it touches"
    );
    assert!(
        touched <= 128,
        "single-fact maintenance cloned {touched} storage units; \
         expected O(touched pages), not a whole-database copy"
    );

    // The snapshot still reads the pre-update fixpoint; a fresh snapshot
    // of the changed view sees the new answer and again costs zero deep
    // copies to take.
    assert_eq!(frozen.answers().len(), N);
    let before = cow_clones();
    let fresh = catalog.snapshot_view(&key).unwrap();
    assert_eq!(cow_clones() - before, 0);
    assert_eq!(fresh.answers().len(), N + 1);

    // 3. Dropping the old snapshot releases its pins: the next update
    //    writes into units it now owns uniquely wherever it touches the
    //    same pages again, so steady-state maintenance under a single live
    //    snapshot stays cheap instead of re-copying per batch.
    drop(frozen);
    let before = cow_clones();
    let outcome = catalog.apply_all(&[Update::Insert(Fact::plain(
        "par",
        vec![
            Value::sym(&format!("n{}", N + 1)),
            Value::sym(&format!("n{}", N + 2)),
        ],
    ))]);
    assert_eq!(outcome.applied, 1);
    let touched_again = cow_clones() - before;
    assert!(
        touched_again <= 128,
        "steady-state maintenance cloned {touched_again} storage units"
    );
}

#[test]
fn one_update_copies_the_same_units_whatever_the_number_of_views() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let mut copied = Vec::new();
    for views in [1, 4, 16] {
        // `views` distinct programs over one EDB, each a view of its own,
        // all reading `par` through the same access paths.
        let db = chain(256);
        let mut catalog = ViewCatalog::new(Strategy::MagicSets);
        let mut pinned = Vec::new();
        for v in 0..views {
            let program = parse_program(&format!(
                "anc{v}(X, Y) :- par(X, Y).
                 anc{v}(X, Y) :- par(X, Z), anc{v}(Z, Y)."
            ))
            .unwrap();
            let query = parse_query(&format!("anc{v}(n0, Y)")).unwrap();
            let key = catalog.materialize(&program, &query, &db).unwrap();
            pinned.push(catalog.snapshot_view(&key).unwrap());
        }
        assert_eq!(catalog.materialized(), views);

        // A `par` row no seed reaches: every view's base moves, nothing
        // new is derived, and the pinned snapshots keep every unit shared.
        let edge = Fact::plain("par", vec![Value::sym("x"), Value::sym("y")]);
        let before = cow_clones();
        let outcome = catalog.apply_all(&[Update::Insert(edge)]);
        copied.push(cow_clones() - before);
        assert_eq!(outcome.applied, views);
        assert!(outcome.evicted.is_empty());
        for snapshot in &pinned {
            assert_eq!(snapshot.answers().len(), 256);
        }
    }
    assert!(copied[0] > 0, "the pinned snapshots force one copy");
    assert!(
        copied.iter().all(|&n| n == copied[0]),
        "units copied per update at 1, 4 and 16 views: {copied:?}"
    );
}
