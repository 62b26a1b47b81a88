//! Scheduler test coverage: stratum order against the dependency graph on
//! randomized programs, and the parallel determinism contract — `threads=4`
//! must produce answers, `rule_firings`, and summed `join_probes`
//! bit-identical to `threads=1` on the full oracle suite, including
//! gms-rewritten programs, incremental insert/retract maintenance and
//! guarded (negation/aggregate) programs run under the stratum frontier.

use power_of_magic::engine::{EvalStats, Evaluator, IterationScheme, Limits};
use power_of_magic::incr::MaterializedView;
use power_of_magic::lang::schedule::Schedule;
use power_of_magic::lang::{parse_program, DependencyGraph, Fact, PredName, Program, Value};
use power_of_magic::workloads::{
    chain, cycle, random_dag, same_generation_grid, SgConfig, SplitMix64,
};
use power_of_magic::{Database, Planner, Strategy};
use std::collections::BTreeSet;

mod common;
use common::random_stratified;

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
            // Groups partition the stratum's rules.
            let grouped: Vec<usize> = {
                let mut g: Vec<usize> = stratum.groups.iter().flatten().copied().collect();
                g.sort_unstable();
                g
            };
            assert_eq!(grouped, stratum.rules, "round {round}: groups != rules");
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
// Parallel determinism: threads=4 ≡ threads=1, bit for bit.
// ---------------------------------------------------------------------------

fn fact_set(db: &Database) -> BTreeSet<String> {
    db.facts().map(|f| f.to_string()).collect()
}

/// Run `program` over `edb` at the given thread count.
fn run_at(
    program: &Program,
    edb: &Database,
    threads: usize,
    scheme: IterationScheme,
) -> (BTreeSet<String>, EvalStats) {
    let result = Evaluator::new(program.clone())
        .with_scheme(scheme)
        .with_limits(Limits::default().with_threads(threads))
        .run(edb)
        .expect("evaluation succeeds");
    (fact_set(&result.database), result.stats)
}

fn assert_threads_agree(name: &str, program: &Program, edb: &Database, scheme: IterationScheme) {
    let (facts1, stats1) = run_at(program, edb, 1, scheme);
    let (facts4, stats4) = run_at(program, edb, 4, scheme);
    assert_eq!(facts1, facts4, "{name}: fact sets diverged");
    assert_eq!(
        stats1, stats4,
        "{name}: stats diverged between threads=1 and threads=4"
    );
}

#[test]
fn parallel_matches_single_threaded_on_random_dags() {
    let mut rng = SplitMix64::seed_from_u64(0xDA7A);
    let program = parse_program(
        "anc(X, Y) :- par(X, Y).
         anc(X, Y) :- par(X, Z), anc(Z, Y).",
    )
    .unwrap();
    for _ in 0..6 {
        let nodes = rng.random_range(8..40);
        let seed = rng.next_u64();
        let db = random_dag(nodes, nodes * 3, seed);
        assert_threads_agree(
            &format!("dag({nodes}, seed {seed})"),
            &program,
            &db,
            IterationScheme::SemiNaive,
        );
        assert_threads_agree(
            &format!("naive dag({nodes})"),
            &program,
            &db,
            IterationScheme::Naive,
        );
    }
}

#[test]
fn parallel_matches_single_threaded_on_long_chains_with_sharding() {
    // A chain long enough that the occurrence-0 sharding actually kicks in
    // (the lead range exceeds the shard threshold).
    let program = parse_program(
        "anc(X, Y) :- par(X, Y).
         anc(X, Y) :- par(X, Z), anc(Z, Y).",
    )
    .unwrap();
    assert_threads_agree(
        "chain(600)",
        &program,
        &chain(600),
        IterationScheme::SemiNaive,
    );
    // Cyclic data exercises saturation (every delta eventually empty).
    assert_threads_agree(
        "cycle(96)",
        &program,
        &cycle(96),
        IterationScheme::SemiNaive,
    );
}

#[test]
fn parallel_matches_single_threaded_on_gms_rewritten_programs() {
    // The full planner pipeline at both thread counts: answers AND engine
    // counters must agree on magic-rewritten (multi-stratum) programs.
    let scenarios: Vec<(&str, Program, power_of_magic::Query, Database)> = vec![
        (
            "gms ancestor chain(512)",
            parse_program(
                "anc(X, Y) :- par(X, Y).
                 anc(X, Y) :- par(X, Z), anc(Z, Y).",
            )
            .unwrap(),
            power_of_magic::parse_query("anc(n0, Y)").unwrap(),
            chain(512),
        ),
        (
            "gms same-generation 4x6",
            parse_program(
                "sg(X, Y) :- flat(X, Y).
                 sg(X, Y) :- up(X, Z1), sg(Z1, Z2), flat(Z2, Z3), sg(Z3, Z4), down(Z4, Y).",
            )
            .unwrap(),
            power_of_magic::parse_query("sg(l0c0, Y)").unwrap(),
            same_generation_grid(SgConfig {
                depth: 4,
                width: 6,
                flat_everywhere: true,
            }),
        ),
    ];
    for (name, program, query, db) in &scenarios {
        for strategy in [Strategy::MagicSets, Strategy::SupplementaryMagicSets] {
            let at = |threads: usize| {
                Planner::new(strategy)
                    .with_limits(Limits::default().with_threads(threads))
                    .evaluate(program, query, db)
                    .expect("strategy evaluates")
            };
            let one = at(1);
            let four = at(4);
            assert_eq!(one.answers, four.answers, "{name} {strategy}: answers");
            assert_eq!(one.stats, four.stats, "{name} {strategy}: counters");
        }
    }
}

#[test]
fn parallel_matches_single_threaded_under_incremental_maintenance() {
    // Materialize a gms view at both thread counts, stream the same
    // insert/retract updates, and require identical databases, support
    // counts and cumulative stats — the incremental-retract leg of the
    // oracle suite.
    let program = parse_program(
        "anc(X, Y) :- par(X, Y).
         anc(X, Y) :- par(X, Z), anc(Z, Y).",
    )
    .unwrap();
    let query = power_of_magic::parse_query("anc(n0, Y)").unwrap();
    let db = chain(200);
    let plan = Planner::new(Strategy::MagicSets)
        .plan(&program, &query)
        .unwrap();

    let edge = |i: usize, j: usize| {
        Fact::plain(
            "par",
            vec![Value::sym(&format!("n{i}")), Value::sym(&format!("n{j}"))],
        )
    };
    let run = |threads: usize| {
        let limits = Limits::default().with_threads(threads);
        let mut view = MaterializedView::with_limits(&plan.program, &db, limits).unwrap();
        view.insert(&edge(200, 201)).unwrap();
        view.retract(&edge(199, 200)).unwrap();
        view.insert(&edge(50, 199)).unwrap();
        view.retract(&edge(50, 199)).unwrap();
        (fact_set(view.database()), view.stats().clone())
    };
    let (facts1, stats1) = run(1);
    let (facts4, stats4) = run(4);
    assert_eq!(
        facts1, facts4,
        "incremental maintenance: fact sets diverged"
    );
    assert_eq!(stats1, stats4, "incremental maintenance: stats diverged");
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
    let (naive_facts, _) = run_at(&program, &db, 1, IterationScheme::Naive);
    let (semi1, stats1) = run_at(&program, &db, 1, IterationScheme::SemiNaive);
    let (semi4, stats4) = run_at(&program, &db, 4, IterationScheme::SemiNaive);
    assert_eq!(naive_facts, semi1, "stratified semi-naive != naive oracle");
    assert_eq!(semi1, semi4);
    assert_eq!(stats1, stats4);
    // The schedule really is multi-stratum.
    let schedule = Schedule::build(&program);
    assert!(
        schedule.len() >= 3,
        "expected >= 3 strata, got {}",
        schedule.len()
    );
}

// ---------------------------------------------------------------------------
// Guarded programs: the stratum frontier under the same contract.
// ---------------------------------------------------------------------------

/// Every row of `db` with its row id, relation by relation.
fn rows_with_ids(db: &Database) -> Vec<String> {
    let mut out = Vec::new();
    for (pred, relation) in db.iter() {
        let ids = relation.iter_ids().map(|(id, _)| id);
        for (id, row) in ids.zip(relation.iter()) {
            out.push(format!("{pred}#{id}{row:?}"));
        }
    }
    out
}

/// Rows, row ids and every counter must not depend on the thread count.
fn assert_guarded_threads_agree(name: &str, program: &Program, edb: &Database) {
    for scheme in [IterationScheme::SemiNaive, IterationScheme::Naive] {
        let at = |threads: usize| {
            let result = Evaluator::new(program.clone())
                .with_scheme(scheme)
                .with_limits(Limits::default().with_threads(threads))
                .run(edb)
                .expect("guarded program evaluates");
            (rows_with_ids(&result.database), result.stats)
        };
        let (rows1, stats1) = at(1);
        let (rows4, stats4) = at(4);
        assert_eq!(rows1, rows4, "{name} {scheme:?}: rows or row ids diverged");
        assert_eq!(stats1, stats4, "{name} {scheme:?}: counters diverged");
    }
}

#[test]
fn guarded_strata_obey_the_determinism_contract_on_random_programs() {
    let mut rng = SplitMix64::seed_from_u64(0x6A2D);
    for round in 0..24 {
        let (_, program, edb) = random_stratified(&mut rng, false);
        assert_guarded_threads_agree(&format!("round {round}\n{program}"), &program, &edb);
    }
}

#[test]
fn guarded_strata_obey_the_determinism_contract_on_the_pool() {
    // The negation stratum's lead occurrence (`node`) spans 6 000 rows,
    // above the engine's 4 096-row dispatch threshold, so at four threads
    // its tasks are sharded and the worker pool runs them; the aggregate
    // folds on top, and the stratum above reads the fold.
    let program = parse_program(
        "reach(Y) :- start(Y).
         reach(Y) :- reach(X), edge(X, Y).
         unreached(X) :- node(X), not reach(X).
         tally(count<X>) :- unreached(X).
         big(N) :- tally(N).",
    )
    .unwrap();
    let mut db = Database::new();
    db.insert(PredName::plain("start"), vec![Value::sym("n0")]);
    for i in 0..6000 {
        db.insert(PredName::plain("node"), vec![Value::sym(&format!("n{i}"))]);
    }
    for i in 0..2500 {
        db.insert_pair("edge", &format!("n{i}"), &format!("n{}", i + 1));
    }
    assert_guarded_threads_agree("reach/unreached over 6000 nodes", &program, &db);
}
