//! Scheduler test coverage: stratum order against the dependency graph on
//! randomized programs, and stratum retirement against an evaluation that
//! never retires.

use power_of_magic::engine::{Evaluator, IterationScheme};
use power_of_magic::lang::schedule::Schedule;
use power_of_magic::lang::{parse_program, DependencyGraph, PredName, Program, Value};
use power_of_magic::workloads::{same_generation_grid, SgConfig, SplitMix64};
use power_of_magic::Database;
use std::collections::BTreeSet;

// ---------------------------------------------------------------------------
// Stratum order on randomized programs.
// ---------------------------------------------------------------------------

/// Generate a random program over predicates `p0..p{np}` (derived
/// candidates) and `b0..b{nb}` (base), with `rules` rules of 1–3 body
/// atoms.  Deterministic per seed (repo convention: seeded `SplitMix64`
/// loops stand in for proptest).
fn random_program(rng: &mut SplitMix64, np: usize, nb: usize, rules: usize) -> Program {
    let mut src = String::new();
    for _ in 0..rules {
        let head = rng.random_range(0..np);
        let body_len = rng.random_range(1..4);
        let mut body = Vec::new();
        for _ in 0..body_len {
            if rng.random_ratio(1, 3) {
                body.push(format!("b{}(X, Y)", rng.random_range(0..nb)));
            } else {
                body.push(format!("p{}(X, Y)", rng.random_range(0..np)));
            }
        }
        src.push_str(&format!("p{head}(X, Y) :- {}.\n", body.join(", ")));
    }
    parse_program(&src).expect("generated program parses")
}

#[test]
fn stratum_order_respects_the_dependency_graph_on_random_programs() {
    let mut rng = SplitMix64::seed_from_u64(0x5CED);
    for round in 0..40 {
        let program = random_program(&mut rng, 5, 3, 8);
        let schedule = Schedule::build(&program);
        let graph = DependencyGraph::build(&program);

        // Every rule is scheduled exactly once, in its head's stratum.
        let mut seen = BTreeSet::new();
        for (s, stratum) in schedule.strata().iter().enumerate() {
            for &r in &stratum.rules {
                assert!(seen.insert(r), "round {round}: rule {r} scheduled twice");
                assert_eq!(schedule.stratum_of_rule(r), s);
                assert!(stratum.preds.contains(&program.rules[r].head.pred));
            }
        }
        assert_eq!(seen.len(), program.rules.len());

        // Dependency order: a derived body predicate's stratum never
        // exceeds the head's stratum, and equals it only within one SCC
        // (i.e. when the head is reachable back from the body predicate).
        for (r, rule) in program.rules.iter().enumerate() {
            let head_stratum = schedule.stratum_of_rule(r);
            for atom in &rule.body {
                let Some(s) = schedule.stratum_of_pred(&atom.pred) else {
                    continue; // base predicate
                };
                assert!(
                    s <= head_stratum,
                    "round {round}: body {} (stratum {s}) above head {} (stratum {head_stratum})",
                    atom.pred,
                    rule.head.pred
                );
                if s == head_stratum {
                    assert!(
                        graph.reachable_from(&atom.pred).contains(&rule.head.pred),
                        "round {round}: same stratum without mutual recursion"
                    );
                }
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Stratum retirement.
// ---------------------------------------------------------------------------

fn fact_set(program: &Program, edb: &Database, scheme: IterationScheme) -> BTreeSet<String> {
    let result = Evaluator::new(program.clone())
        .with_scheme(scheme)
        .run(edb)
        .expect("evaluation succeeds");
    result.database.facts().map(|f| f.to_string()).collect()
}

#[test]
fn stratum_retirement_matches_the_unscheduled_oracle() {
    // A three-stratum pipeline (base -> sg -> p -> q): stratified
    // retirement must not change the least model or drop late derivations.
    let program = parse_program(
        "sg(X, Y) :- flat(X, Y).
         sg(X, Y) :- up(X, Z), sg(Z, W), down(W, Y).
         p(X, Y) :- sg(X, Y).
         p(X, Y) :- sg(X, Z), p(Z, Y).
         q(X) :- p(X, Y), mark(Y).",
    )
    .unwrap();
    let mut db = same_generation_grid(SgConfig {
        depth: 3,
        width: 4,
        flat_everywhere: true,
    });
    db.insert(PredName::plain("mark"), vec![Value::sym("l0c1")]);
    // Oracle: naive evaluation (no deltas, no retirement).
    let naive = fact_set(&program, &db, IterationScheme::Naive);
    let semi = fact_set(&program, &db, IterationScheme::SemiNaive);
    assert_eq!(naive, semi, "stratified semi-naive != naive oracle");
    // The schedule really is multi-stratum.
    let schedule = Schedule::build(&program);
    assert!(
        schedule.len() >= 3,
        "expected >= 3 strata, got {}",
        schedule.len()
    );
}
