//! Incremental view maintenance, end to end: materialize a magic-set view
//! once, then serve live inserts and retracts without re-running the
//! fixpoint.  (Maintenance resumes the stratified scheduler at the lowest
//! dirty stratum — the same fixpoint loop a from-scratch evaluation runs.)
//!
//! Run with `cargo run --release --example incremental_view`.  For the
//! same catalog served over TCP with concurrent readers, see
//! `examples/serve_quickstart.rs`.

use power_of_magic::incr::{MaterializedView, Update, ViewCatalog};
use power_of_magic::lang::{Fact, PredName, Value};
use power_of_magic::workloads::programs;
use power_of_magic::{Database, Strategy};

fn edge(a: &str, b: &str) -> Fact {
    Fact::plain("par", vec![Value::sym(a), Value::sym(b)])
}

fn main() {
    // ---------------------------------------------------------------
    // 1. A raw recursive view: the ancestor closure, maintained live.
    // ---------------------------------------------------------------
    let program = programs::ancestor_intro(); // anc/par naming
    let mut db = Database::new();
    for (a, b) in [("adam", "beth"), ("beth", "carl"), ("carl", "dora")] {
        db.insert_fact(&edge(a, b));
    }
    let mut view = MaterializedView::new(&program, &db).expect("view materializes");
    let anc = PredName::plain("anc");
    println!(
        "materialized: {} ancestor pairs",
        view.database().count(&anc)
    );

    // A single insert re-enters the semi-naive fixpoint from the new fact.
    view.insert(&edge("dora", "evan"))
        .expect("insert maintains");
    println!(
        "after insert(dora, evan): {} pairs",
        view.database().count(&anc)
    );

    // Retraction goes through delete-and-rederive: everything downstream
    // of (beth, carl) disappears, nothing else does.
    view.retract(&edge("beth", "carl"))
        .expect("retract maintains");
    println!(
        "after retract(beth, carl): {} pairs",
        view.database().count(&anc)
    );

    // Batched updates coalesce consecutive inserts into one fixpoint entry.
    let report = view
        .apply(vec![
            Update::Insert(edge("beth", "carl")),
            Update::Insert(edge("evan", "fern")),
            Update::Retract(edge("adam", "beth")),
        ])
        .expect("batch maintains");
    println!(
        "after batch: {} pairs ({} applied, {} no-ops)",
        view.database().count(&anc),
        report.applied,
        report.no_ops
    );

    // ---------------------------------------------------------------
    // 2. The serving shape: a catalog of query bindings, each a magic
    //    seed in the one maintained view of its rewritten program,
    //    updated in one stream.  This is exactly the state `magic-serve`
    //    publishes as snapshots to its reader threads (see the
    //    serve_quickstart example for the TCP version).
    // ---------------------------------------------------------------
    let mut catalog = ViewCatalog::new(Strategy::MagicSets);
    let mut edb = Database::new();
    for (a, b) in [("adam", "beth"), ("beth", "carl"), ("x", "y")] {
        edb.insert_fact(&edge(a, b));
    }
    let q_adam = power_of_magic::parse_query("anc(adam, Y)").unwrap();
    let q_x = power_of_magic::parse_query("anc(x, Y)").unwrap();
    let k_adam = catalog.materialize(&program, &q_adam, &edb).unwrap();
    let k_x = catalog.materialize(&program, &q_x, &edb).unwrap();
    // Same binding -> cache hit, no rematerialization.
    let again = catalog.materialize(&program, &q_adam, &edb).unwrap();
    assert_eq!(k_adam, again);
    println!(
        "\ncatalog keys: {:?} over {} maintained view(s)",
        catalog.keys().collect::<Vec<_>>(),
        catalog.materialized()
    );

    // One update stream, applied once, moves the answers of both bindings.
    let outcome = catalog.apply_all(&[
        Update::Insert(edge("carl", "dora")),
        Update::Insert(edge("y", "z")),
    ]);
    assert!(outcome.evicted.is_empty());
    println!(
        "answers for {k_adam}: {:?}",
        catalog.answers(&k_adam).unwrap()
    );
    println!("answers for {k_x}: {:?}", catalog.answers(&k_x).unwrap());
}
