//! Incremental-maintenance equivalence suite.
//!
//! Correctness oracle (after Drabent's correctness-proof framing for the
//! magic transformation): after *any* sequence of insert/retract updates, a
//! maintained view must hold exactly the fact set a from-scratch
//! `Evaluator::run` derives over the updated base facts.  The suite drives
//! seeded randomized insert/retract interleavings over the paper's
//! workloads — both the raw recursive programs and their magic-sets
//! rewritings — plus the cyclic retract-then-rederive cases and
//! non-recursive programs whose rules read one relation several times.
//! After every phase every derived row must still have a one-step
//! derivation or be an axiom (`MaterializedView::verify_support`).

use power_of_magic::engine::{
    count_derivations, count_derivations_batch, Evaluator, FixpointRunner, Limits,
};
use power_of_magic::incr::{MaterializedView, Update};
use power_of_magic::lang::{Fact, PredName, Program, Value};
use power_of_magic::workloads::{
    ancestor_update_stream, chain, cycle, programs, same_generation_grid,
    same_generation_update_stream, SgConfig, SplitMix64, UpdateOp,
};
use power_of_magic::{Database, Planner, Strategy};
use std::collections::BTreeSet;

mod common;
use common::random_stratified;

fn fact_set(db: &Database) -> BTreeSet<String> {
    db.facts().map(|f| f.to_string()).collect()
}

/// Apply one streamed op to a plain EDB (the oracle's input).
fn apply_to_edb(edb: &mut Database, op: &UpdateOp) {
    match op {
        UpdateOp::Insert(f) => {
            edb.insert_fact(f);
        }
        UpdateOp::Retract(f) => {
            edb.remove_fact(f);
        }
    }
}

/// Apply one streamed op to a live view.
fn apply_to_view(view: &mut MaterializedView, op: &UpdateOp) {
    let changed = match op {
        UpdateOp::Insert(f) => view.insert(f).expect("insert maintains"),
        UpdateOp::Retract(f) => view.retract(f).expect("retract maintains"),
    };
    assert!(changed, "stream ops are real state changes: {op:?}");
}

/// The view must equal from-scratch evaluation over `edb`, and every
/// derived row must be founded.
fn assert_matches_scratch(view: &MaterializedView, edb: &Database, label: &str) {
    let oracle = Evaluator::new(view.program().clone())
        .run(edb)
        .expect("oracle evaluates");
    assert_eq!(
        fact_set(view.database()),
        fact_set(&oracle.database),
        "{label}: maintained view != from-scratch oracle"
    );
    view.verify_support()
        .unwrap_or_else(|e| panic!("{label}: {e}"));
}

/// Drive a seeded interleaving against a view of `program` and check the
/// oracle every `check_every` ops (and at the end).
fn drive(
    program: &Program,
    start: &Database,
    stream: &[UpdateOp],
    check_every: usize,
    label: &str,
) {
    let mut view = MaterializedView::new(program, start).expect("view materializes");
    let mut edb = start.clone();
    assert_matches_scratch(&view, &edb, &format!("{label}: initial"));
    for (i, op) in stream.iter().enumerate() {
        apply_to_view(&mut view, op);
        apply_to_edb(&mut edb, op);
        if (i + 1) % check_every == 0 {
            assert_matches_scratch(&view, &edb, &format!("{label}: after op {}", i + 1));
        }
    }
    assert_matches_scratch(&view, &edb, &format!("{label}: final"));
}

#[test]
fn ancestor_interleavings_match_oracle() {
    let program = programs::ancestor();
    let mut rng = SplitMix64::seed_from_u64(0x1AC5);
    for round in 0..4 {
        let n = rng.random_range(5..12);
        let seed = rng.next_u64();
        let stream = ancestor_update_stream(n, 40, 55, seed);
        drive(
            &program,
            &chain(n - 1),
            &stream,
            7,
            &format!("ancestor round {round} (n {n}, seed {seed:#x})"),
        );
    }
}

#[test]
fn magic_rewritten_ancestor_interleavings_match_oracle() {
    // The headline case: maintain the *magic-rewritten* program (the
    // materialized magic-set view) under the same streams.
    let program = programs::ancestor();
    let query = programs::ancestor_query("n0");
    let plan = Planner::new(Strategy::MagicSets)
        .plan(&program, &query)
        .expect("gms plans ancestor");
    let mut rng = SplitMix64::seed_from_u64(0x9A61);
    for round in 0..3 {
        let n = rng.random_range(5..11);
        let seed = rng.next_u64();
        let stream = ancestor_update_stream(n, 30, 55, seed);
        drive(
            &plan.program,
            &chain(n - 1),
            &stream,
            6,
            &format!("gms ancestor round {round} (n {n}, seed {seed:#x})"),
        );
    }
}

#[test]
fn same_generation_interleavings_match_oracle() {
    let program = programs::same_generation();
    let mut rng = SplitMix64::seed_from_u64(0x56E7);
    for round in 0..3 {
        let cfg = SgConfig {
            depth: rng.random_range(1..3),
            width: rng.random_range(2..5),
            flat_everywhere: true,
        };
        let seed = rng.next_u64();
        let stream = same_generation_update_stream(cfg, 24, 50, seed);
        drive(
            &program,
            &same_generation_grid(cfg),
            &stream,
            6,
            &format!(
                "sg round {round} ({}x{}, seed {seed:#x})",
                cfg.depth, cfg.width
            ),
        );
    }
}

#[test]
fn magic_rewritten_same_generation_interleavings_match_oracle() {
    let program = programs::same_generation();
    let query = programs::same_generation_query("l0c0");
    let plan = Planner::new(Strategy::MagicSets)
        .plan(&program, &query)
        .expect("gms plans same-generation");
    let cfg = SgConfig {
        depth: 2,
        width: 4,
        flat_everywhere: true,
    };
    let stream = same_generation_update_stream(cfg, 20, 50, 0xD00D);
    drive(
        &plan.program,
        &same_generation_grid(cfg),
        &stream,
        5,
        "gms same-generation",
    );
}

#[test]
fn cyclic_retract_then_rederive() {
    // Retractions on cyclic data are the DRed stress case: every anc fact
    // on the cycle transitively supports the others, so deletion must tear
    // the island down and re-derivation must rebuild exactly the part that
    // survives.
    let program = programs::ancestor();
    for n in [3usize, 5, 8] {
        let start = cycle(n);
        let mut view = MaterializedView::new(&program, &start).expect("view materializes");
        let mut edb = start.clone();
        // On an n-cycle every node reaches every node: n^2 ancestor facts
        // (the Appendix program derives them under the predicate `a`).
        assert_eq!(
            view.database()
                .count(&power_of_magic::lang::PredName::plain("a")),
            n * n
        );
        // Break the cycle, then retract a second edge, then restore both.
        let e0 = Fact::plain("par", vec![Value::sym("n0"), Value::sym("n1")]);
        let mid = format!("n{}", n / 2);
        let mid_next = format!("n{}", (n / 2 + 1) % n);
        let e1 = Fact::plain("par", vec![Value::sym(&mid), Value::sym(&mid_next)]);
        for op in [
            UpdateOp::Retract(e0.clone()),
            UpdateOp::Retract(e1.clone()),
            UpdateOp::Insert(e0),
            UpdateOp::Insert(e1),
        ] {
            apply_to_view(&mut view, &op);
            apply_to_edb(&mut edb, &op);
            assert_matches_scratch(&view, &edb, &format!("cycle({n}) after {op:?}"));
        }
        // Fully restored: the island is back.
        assert_eq!(
            view.database()
                .count(&power_of_magic::lang::PredName::plain("a")),
            n * n
        );
    }
}

#[test]
fn non_recursive_randomized_edge_churn() {
    // Non-recursive programs delete-and-rederive like recursive ones; the
    // triangle rule uses the same relation three times, so one retracted
    // edge overdeletes through several occurrences of one derivation.
    let program = power_of_magic::parse_program(
        "tri(X) :- e(X, Y), e(Y, Z), e(Z, X).
         hop2(X, Z) :- e(X, Y), e(Y, Z).",
    )
    .unwrap();
    let mut rng = SplitMix64::seed_from_u64(0x7121);
    for round in 0..3 {
        let nodes = rng.random_range(3..6);
        let mut present: BTreeSet<(usize, usize)> = BTreeSet::new();
        let mut edb = Database::new();
        let mut view = MaterializedView::new(&program, &edb).expect("view materializes");
        for step in 0..50 {
            let a = rng.random_range(0..nodes);
            let b = rng.random_range(0..nodes);
            let fact = Fact::plain(
                "e",
                vec![Value::sym(&format!("v{a}")), Value::sym(&format!("v{b}"))],
            );
            let op = if present.contains(&(a, b)) {
                present.remove(&(a, b));
                UpdateOp::Retract(fact)
            } else {
                present.insert((a, b));
                UpdateOp::Insert(fact)
            };
            apply_to_view(&mut view, &op);
            apply_to_edb(&mut edb, &op);
            if step % 10 == 9 {
                assert_matches_scratch(&view, &edb, &format!("triangle round {round} step {step}"));
            }
        }
        assert_matches_scratch(&view, &edb, &format!("triangle round {round} final"));
    }
}

#[test]
fn batched_apply_agrees_with_singleton_ops() {
    let program = programs::ancestor();
    let start = chain(6);
    let stream = ancestor_update_stream(7, 30, 60, 0xBA7C);

    let mut batched = MaterializedView::new(&program, &start).expect("view materializes");
    batched
        .apply(stream.iter().map(|op| match op {
            UpdateOp::Insert(f) => Update::Insert(f.clone()),
            UpdateOp::Retract(f) => Update::Retract(f.clone()),
        }))
        .expect("batched apply maintains");

    let mut single = MaterializedView::new(&program, &start).expect("view materializes");
    for op in &stream {
        apply_to_view(&mut single, op);
    }

    assert_eq!(
        fact_set(batched.database()),
        fact_set(single.database()),
        "batched apply and singleton ops disagree"
    );
    batched.verify_support().expect("batched rows founded");
}

/// Per head-bound plan of `runner`, recount every stored row of the plan's
/// head predicate in `db` twice — one batch, and one-row calls — and
/// require the same count per row and the same probes in total.
fn assert_batch_recount_is_per_row(runner: &FixpointRunner, db: &Database, label: &str) {
    let limits = Limits::default();
    for (plan_idx, forward) in runner.plans().iter().enumerate() {
        let Some(rel) = db.relation(&forward.head_pred) else {
            continue;
        };
        let plan = runner.head_bound_plan(plan_idx);
        let mut rows = Vec::new();
        for (_, row) in rel.iter_ids() {
            rows.extend_from_slice(row);
        }
        let mut counts = vec![0; rel.len()];
        let batch = count_derivations_batch(plan, db, rel.arity(), &rows, &limits, &mut counts)
            .expect("batch recount");
        let (mut matches, mut probes) = (0, 0);
        for ((_, row), &count) in rel.iter_ids().zip(&counts) {
            let one = count_derivations(plan, db, row, &limits).expect("one-row recount");
            assert_eq!(count, one, "{label}: rule {} on {row:?}", plan.rule);
            let alone = count_derivations_batch(plan, db, row.len(), row, &limits, &mut [0])
                .expect("one-row batch");
            matches += one;
            probes += alone.probes;
        }
        assert_eq!(
            (batch.matches, batch.probes),
            (matches, probes),
            "{label}: rule {}",
            plan.rule
        );
    }
}

#[test]
fn batch_recount_equals_the_one_row_recount() {
    // Random positive programs, plus rules the generator never writes: a
    // head constant (rows of the other `hub` rule fail its head match), a
    // zero-arity head, and a body relation that is absent from the
    // database (`nowhere`, which no rule or fact defines).
    let extra = power_of_magic::parse_program(
        "hub(c0, Y) :- edge(X, Y).
         hub(X, Y) :- edge(X, Y), node(Y).
         hub(X, Y) :- edge(X, Y), nowhere(X, Y).
         linked :- edge(X, Y), node(X).",
    )
    .unwrap();
    let nowhere = PredName::plain("nowhere");
    let mut rng = SplitMix64::seed_from_u64(0x0037_BA7C);
    for case in 0..30 {
        let (_, mut program, edb) = random_stratified(&mut rng, true);
        program.rules.extend(extra.rules.iter().cloned());
        let mut view = MaterializedView::new(&program, &edb).expect("view materializes");
        let runner = FixpointRunner::compile(&program, &program.derived_preds());
        for step in 0..3 {
            let label = format!("case {case} step {step}");
            let db = view.database();
            assert!(db
                .relation(&PredName::plain("linked"))
                .is_some_and(|r| r.len() == 1));
            assert_batch_recount_is_per_row(&runner, db, &label);
            let mut absent = db.clone();
            absent.remove_relation(&nowhere);
            assert_batch_recount_is_per_row(&runner, &absent, &format!("{label}, absent"));
            // Retract an edge, so the next step recounts a DRed-maintained
            // database.
            let edges: Vec<Fact> = db
                .facts()
                .filter(|f| f.pred == PredName::plain("edge"))
                .collect();
            let victim = edges[rng.random_range(0..edges.len())].clone();
            view.retract(&victim).expect("retraction maintains");
            view.verify_support()
                .unwrap_or_else(|e| panic!("{label}: {e}"));
        }
    }
}
