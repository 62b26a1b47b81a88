//! An unheld snapshot costs no copy.
//!
//! [`ViewCatalog::snapshot_view`] caches one frozen clone per view.  Before
//! a write, the catalog drops that clone if nobody else holds it, so a
//! reader who took a snapshot, read it and let it go leaves the next write
//! nothing to copy.  A snapshot still held keeps copy-on-write's guarantee:
//! the write copies the units it touches and the snapshot stays frozen.
//!
//! These tests live alone in this file, and take turns through [`SERIAL`]:
//! `cow_clones()` is a process-global counter, so a delta is only
//! meaningful while no other test writes shared storage.

use magic_core::planner::Strategy;
use magic_datalog::{parse_program, parse_query, Fact, Program, Query, Value};
use magic_incr::{Update, ViewCatalog};
use magic_storage::cow_clones;
use std::sync::Mutex;

/// Held by each test for its whole run, so their counter deltas never mix.
static SERIAL: Mutex<()> = Mutex::new(());

fn ancestor() -> (Program, Query) {
    let program = parse_program(
        "anc(X, Y) :- par(X, Y).
         anc(X, Y) :- par(X, Z), anc(Z, Y).",
    )
    .unwrap();
    (program, parse_query("anc(n0, Y)").unwrap())
}

/// A gms view of `anc(n0, Y)` over `chain(64)`, and its key.
fn catalog() -> (ViewCatalog, String) {
    let (program, query) = ancestor();
    let mut catalog = ViewCatalog::new(Strategy::MagicSets);
    let key = catalog
        .materialize(&program, &query, &magic_workloads::chain(64))
        .unwrap();
    assert_eq!(catalog.answers(&key).unwrap().len(), 64);
    (catalog, key)
}

/// A leaf hung off the middle of the chain: one new answer of `anc(n0, Y)`.
fn leaf() -> Update {
    Update::Insert(Fact::plain(
        "par",
        vec![Value::sym("n40"), Value::sym("leaf")],
    ))
}

#[test]
fn a_write_after_a_dropped_snapshot_copies_nothing() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let (mut catalog, key) = catalog();
    let snapshot = catalog.snapshot_view(&key).unwrap();
    assert_eq!(snapshot.answers().len(), 64);
    drop(snapshot);

    let before = cow_clones();
    let outcome = catalog.apply_all(&[leaf()]);
    assert_eq!(outcome.changed, vec![key.clone()]);
    assert_eq!(
        cow_clones() - before,
        0,
        "no reader holds a snapshot, so the write must copy no storage unit"
    );
    assert_eq!(catalog.answers(&key).unwrap().len(), 65);
    assert_eq!(catalog.snapshot_view(&key).unwrap().answers().len(), 65);
}

#[test]
fn a_held_snapshot_is_copied_around_and_stays_frozen() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let (mut catalog, key) = catalog();
    let held = catalog.snapshot_view(&key).unwrap();
    let old = held.answers();
    assert_eq!(old.len(), 64);

    let before = cow_clones();
    catalog.apply_all(&[leaf()]);
    assert!(
        cow_clones() - before > 0,
        "a write under a held snapshot must copy the units it touches"
    );
    assert_eq!(held.answers(), old, "the held snapshot moved");
    let fresh = catalog.snapshot_view(&key).unwrap().answers();
    assert_eq!(fresh.len(), 65);
    assert!(fresh.is_superset(&old));
}

#[test]
fn a_no_op_update_leaves_snapshots_answering() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let (mut catalog, key) = catalog();
    let first = catalog.snapshot_view(&key).unwrap().answers();
    // `par(n3, n4)` is already a base fact: the update changes nothing.
    let outcome = catalog.apply_all(&[Update::Insert(Fact::plain(
        "par",
        vec![Value::sym("n3"), Value::sym("n4")],
    ))]);
    assert_eq!(outcome.applied, 0);
    assert!(outcome.changed.is_empty());
    let again = catalog.snapshot_view(&key).unwrap();
    assert_eq!(again.answers(), first);
    assert_eq!(again.answers().len(), 64);
    assert_eq!(again.database(), catalog.view(&key).unwrap().database());
}
