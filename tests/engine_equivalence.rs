//! Equivalence suite for the slot-compiled join machine.
//!
//! The engine's naive and semi-naive schemes both run on the slot-compiled
//! path (`RulePlan` + frame/trail join); as an independent oracle this file
//! carries a deliberately naive reference evaluator built directly on the
//! map-based `Bindings` API (`Atom::match_row` / `Atom::eval`), touching
//! none of the plan, frame or index machinery.  On randomized chain, tree
//! and grid databases all three must derive exactly the same fact sets.
//!
//! Probe-count regression tests pin `EvalStats::join_probes` on
//! `ancestor_chain(64)`, and answers, facts, firings and probes of gsms on
//! `same_generation` 6x8 and gms on `reverse` of a 16-element list, so
//! accidental regressions of the delta-window slicing or the
//! key-extraction logic fail loudly rather than just slowly.

use power_of_magic::engine::{EvalStats, Evaluator, IterationScheme};
use power_of_magic::lang::{parse_program, Bindings, Fact, PredName, Program};
use power_of_magic::workloads::{
    binary_tree, chain, list_term, programs, random_dag, reverse_database, same_generation_grid,
    SgConfig, SplitMix64,
};
use power_of_magic::{Database, Planner, Strategy};
use std::collections::BTreeSet;

/// Reference oracle: naive fixpoint evaluation with map-based bindings and
/// no indexes, no deltas, no slot compilation.
fn oracle_fixpoint(program: &Program, edb: &Database) -> BTreeSet<String> {
    let mut db = edb.clone();
    loop {
        let mut new_facts: Vec<Fact> = Vec::new();
        for rule in &program.rules {
            let mut envs: Vec<Bindings> = vec![Bindings::new()];
            for atom in &rule.body {
                let mut next: Vec<Bindings> = Vec::new();
                if let Some(rel) = db.relation(&atom.pred) {
                    for env in &envs {
                        for row in rel.iter() {
                            if row.len() != atom.arity() {
                                continue;
                            }
                            let mut candidate = env.clone();
                            if atom.match_row(&row, &mut candidate) {
                                next.push(candidate);
                            }
                        }
                    }
                }
                envs = next;
                if envs.is_empty() {
                    break;
                }
            }
            for env in &envs {
                if let Some(fact) = rule.head.eval(env) {
                    if !db.contains(&fact) {
                        new_facts.push(fact);
                    }
                }
            }
        }
        let mut changed = false;
        for fact in new_facts {
            changed |= db.insert_fact(&fact);
        }
        if !changed {
            return fact_set(&db);
        }
    }
}

fn fact_set(db: &Database) -> BTreeSet<String> {
    db.facts().map(|f| f.to_string()).collect()
}

fn engine_fixpoint(program: &Program, edb: &Database, scheme: IterationScheme) -> BTreeSet<String> {
    let result = Evaluator::new(program.clone())
        .with_scheme(scheme)
        .run(edb)
        .expect("engine evaluation succeeds");
    fact_set(&result.database)
}

fn assert_all_agree(name: &str, program: &Program, edb: &Database) {
    let expected = oracle_fixpoint(program, edb);
    assert!(!expected.is_empty(), "{name}: oracle derived nothing");
    let naive = engine_fixpoint(program, edb, IterationScheme::Naive);
    let semi = engine_fixpoint(program, edb, IterationScheme::SemiNaive);
    assert_eq!(naive, expected, "{name}: naive slot engine != oracle");
    assert_eq!(semi, expected, "{name}: semi-naive slot engine != oracle");
}

#[test]
fn slot_engine_matches_oracle_on_random_chains() {
    let mut rng = SplitMix64::seed_from_u64(0x0C4A);
    let program = programs::ancestor();
    for _ in 0..8 {
        let n = rng.random_range(1..24);
        assert_all_agree(&format!("chain({n})"), &program, &chain(n));
    }
}

#[test]
fn slot_engine_matches_oracle_on_random_trees() {
    let mut rng = SplitMix64::seed_from_u64(0x17EE);
    let program = programs::ancestor();
    for _ in 0..6 {
        let depth = rng.random_range(1..5);
        assert_all_agree(&format!("tree({depth})"), &program, &binary_tree(depth));
    }
}

#[test]
fn slot_engine_matches_oracle_on_random_dags() {
    let mut rng = SplitMix64::seed_from_u64(0xDA65);
    let program = programs::ancestor();
    for _ in 0..6 {
        let nodes = rng.random_range(4..16);
        let seed = rng.next_u64();
        let db = random_dag(nodes, nodes * 2, seed);
        assert_all_agree(&format!("dag({nodes}, seed {seed})"), &program, &db);
    }
}

#[test]
fn slot_engine_matches_oracle_on_random_grids() {
    let mut rng = SplitMix64::seed_from_u64(0x96D5);
    let program = programs::same_generation();
    for _ in 0..5 {
        let cfg = SgConfig {
            depth: rng.random_range(1..4),
            width: rng.random_range(2..5),
            flat_everywhere: true,
        };
        let db = same_generation_grid(cfg);
        assert_all_agree(&format!("grid({}x{})", cfg.depth, cfg.width), &program, &db);
    }
}

#[test]
fn slot_engine_handles_function_symbols_like_the_oracle() {
    // Exercise App terms and check-term unwinding through the slot matcher.
    let program = parse_program(
        "len(nil, zero).
         len(cons(H, T), s(N)) :- list(cons(H, T)), len(T, N).
         list(T) :- list(cons(H, T)).",
    )
    .unwrap();
    // parse_program may treat the ground rule as a fact-free rule set; feed
    // the base fact through the database instead if needed.
    let mut db = Database::new();
    let list = power_of_magic::lang::Value::list(vec![
        power_of_magic::lang::Value::sym("a"),
        power_of_magic::lang::Value::sym("b"),
        power_of_magic::lang::Value::sym("c"),
    ]);
    db.insert(PredName::plain("list"), vec![list]);
    let expected = oracle_fixpoint(&program, &db);
    let semi = engine_fixpoint(&program, &db, IterationScheme::SemiNaive);
    assert_eq!(semi, expected);
    assert!(semi
        .iter()
        .any(|f| f.contains("len([a, b, c], s(s(s(zero))))")));
}

/// Count probes for `ancestor_chain(64)` under a scheme.
fn chain64_stats(scheme: IterationScheme) -> EvalStats {
    let program = programs::ancestor();
    let db = chain(64);
    Evaluator::new(program)
        .with_scheme(scheme)
        .run(&db)
        .expect("evaluation succeeds")
        .stats
}

#[test]
fn join_probe_counts_are_pinned_on_ancestor_chain_64() {
    // These constants pin the engine's join work on a fixed workload.  If a
    // change regresses the access-path selection, the delta-window slicing
    // or the semi-naive restriction, the probe count will move and this
    // test will fail loudly.  If your change *improves* the counts, update
    // the constants (and BENCH_PR1.json) deliberately.
    let semi = chain64_stats(IterationScheme::SemiNaive);
    assert_eq!(semi.iterations, 65);
    assert_eq!(semi.facts_derived, 64 * 65 / 2);
    assert_eq!(semi.duplicate_derivations, 0);
    // 65 iterations x 64 par-scan probes, plus one delta probe per
    // successful derivation (64*65/2 = 2080): 4160 + 2080 = 6240.
    assert_eq!(
        semi.join_probes, 6240,
        "semi-naive join probes moved on ancestor_chain(64)"
    );

    let naive = chain64_stats(IterationScheme::Naive);
    assert_eq!(naive.facts_derived, 64 * 65 / 2);
    // Naive re-derivation does an order of magnitude more join work
    // (95_680 probes at the time of writing, vs 6_240 semi-naive).
    assert!(
        naive.join_probes > semi.join_probes * 10,
        "naive evaluation should do far more join work than semi-naive \
         (naive {} vs semi-naive {})",
        naive.join_probes,
        semi.join_probes
    );
}

/// `(answers, facts_derived, rule_firings, join_probes)` of one rewritten
/// query, evaluated through the planner.
fn rewritten_counters(
    strategy: Strategy,
    program: &Program,
    query: &power_of_magic::Query,
    db: &Database,
) -> (usize, usize, usize, usize) {
    let result = Planner::new(strategy)
        .evaluate(program, query, db)
        .expect("evaluation succeeds");
    let stats = result.stats;
    (
        result.answers.len(),
        stats.facts_derived,
        stats.rule_firings,
        stats.join_probes,
    )
}

#[test]
fn join_probe_counts_are_pinned_on_the_rewritten_shapes() {
    // The cold semi-naive loop keeps each rule's written body order, so a
    // rewritten rule whose delta sits behind a leading magic or
    // supplementary atom re-scans that atom and probes once per row.
    // These pins hold the join work of the two shapes where that happens
    // (the nonlinear gsms chain and the function-symbol gms chain): a
    // change that filters lookups must leave every counter here alone.
    let grid = same_generation_grid(SgConfig {
        depth: 6,
        width: 8,
        flat_everywhere: true,
    });
    assert_eq!(
        rewritten_counters(
            Strategy::SupplementaryMagicSets,
            &programs::same_generation(),
            &programs::same_generation_query("l0c0"),
            &grid,
        ),
        (4, 280, 631, 2268),
        "gsms counters moved on same_generation 6x8"
    );
    assert_eq!(
        rewritten_counters(
            Strategy::MagicSets,
            &programs::list_reverse(),
            &programs::reverse_query(list_term(16)),
            &reverse_database(),
        ),
        (1, 306, 306, 14890),
        "gms counters moved on reverse of a 16-element list"
    );
}
