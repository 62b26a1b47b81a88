//! Seed-set oracle suite.
//!
//! `ViewCatalog` keeps one maintained fixpoint per rewritten program and
//! turns every query binding into a *seed* of it — a fact of the magic
//! predicate.  The claim under test is Drabent's (PAPERS.md): the
//! rewritten program is sound for any seed set and complete seed by seed,
//! so the answers selected per binding from the shared view must equal
//!
//! * a single-binding `MaterializedView` of that binding's own rewritten
//!   program, maintained under the same updates (what the catalog kept per
//!   binding before), and
//! * a from-scratch evaluation of the query over the current base facts,
//!
//! after **every** step of a seeded random interleaving of base
//! inserts/retracts, materializations of new bindings and evictions of old
//! ones — and every derived row of the shared view must keep a one-step
//! derivation or be a seed (`verify_support`).  The catalog's one copy of
//! the base facts must equal the mirror the harness keeps, and every live
//! view must hold exactly those facts under every predicate it does not
//! own.  The named tests below pin the edge cases.

use power_of_magic::engine::answers::project_answers;
use power_of_magic::incr::{MaterializedView, Update, ViewCatalog};
use power_of_magic::lang::{Atom, Fact, PredName, Rule, Term, Value};
use power_of_magic::workloads::{
    chain, cycle, list_term, node, programs, same_generation_grid, SgConfig, SplitMix64,
};
use power_of_magic::{
    parse_program, parse_query, Database, Plan, Planner, Program, Query, Strategy,
};
use std::collections::{BTreeMap, BTreeSet};
use std::time::Instant;

type Answers = BTreeSet<Vec<Value>>;

/// One live binding as the oracle sees it: its query, and a view of its
/// own seeded program maintained beside the catalog.
struct Solo {
    query: Query,
    plan: Plan,
    view: MaterializedView,
}

/// A catalog under test, a mirror of the base facts it has been fed, and
/// the single-binding twins of its live bindings.
struct Harness {
    strategy: Strategy,
    program: Program,
    catalog: ViewCatalog,
    edb: Database,
    solos: BTreeMap<String, Solo>,
}

impl Harness {
    fn new(strategy: Strategy, program: Program, edb: Database, max_views: usize) -> Harness {
        Harness {
            strategy,
            program,
            catalog: ViewCatalog::new(strategy)
                .with_max_views(max_views)
                .with_base(edb.clone()),
            edb,
            solos: BTreeMap::new(),
        }
    }

    /// Materialize `query`; bindings the `max_views` cap evicted in the
    /// process lose their twins too.
    fn materialize(&mut self, query: &Query) -> String {
        let key = self
            .catalog
            .materialize(&self.program, query, &self.edb)
            .expect("the binding materializes");
        let plan = Planner::new(self.strategy)
            .plan(&self.program, query)
            .expect("the query plans");
        let view = MaterializedView::new(&plan.program, &self.edb).expect("the twin materializes");
        let solo = Solo {
            query: query.clone(),
            plan,
            view,
        };
        self.solos.insert(key.clone(), solo);
        self.solos.retain(|key, _| self.catalog.contains(key));
        key
    }

    /// One base-fact update through `apply_all`, mirrored into the twins.
    fn update(&mut self, update: Update) {
        match &update {
            Update::Insert(fact) => self.edb.insert_fact(fact),
            Update::Retract(fact) => self.edb.remove_fact(fact),
        };
        let outcome = self.catalog.apply_all(std::slice::from_ref(&update));
        assert!(outcome.evicted.is_empty(), "evicted: {:?}", outcome.evicted);
        for solo in self.solos.values_mut() {
            solo.view
                .apply([&update])
                .expect("the twin maintains the update");
        }
    }

    /// Every live binding: shared view ≡ single-binding view ≡ from
    /// scratch, live and through a snapshot; every shared view's derived
    /// rows are founded.  The copies agree: the catalog's base is the
    /// mirror, and every live view holds the base under each predicate it
    /// neither derives nor has program facts or its binding's seed in.
    fn check(&self, label: &str) {
        assert_eq!(
            self.catalog.len(),
            self.solos.len(),
            "{label}: live bindings"
        );
        let base = self.catalog.base();
        let facts = |db: &Database| db.facts().collect::<BTreeSet<Fact>>();
        assert_eq!(facts(base), facts(&self.edb), "{label}: base != mirror");
        for (key, solo) in &self.solos {
            let view = self.catalog.view(key).expect("a live binding has a view");
            let heads = view.program().rules.iter().map(|r| r.head.pred.clone());
            let mut owned: BTreeSet<PredName> = heads.collect();
            let seed = solo.plan.rewritten.as_ref().and_then(|r| r.seed.as_ref());
            owned.extend(seed.map(|s| s.pred.clone()));
            let db = view.database();
            let preds: BTreeSet<&PredName> = base.predicates().chain(db.predicates()).collect();
            for pred in preds.into_iter().filter(|p| !owned.contains(*p)) {
                let rows = |db: &Database| {
                    db.relation(pred)
                        .map(|rel| rel.iter().collect::<BTreeSet<_>>())
                        .unwrap_or_default()
                };
                assert_eq!(rows(db), rows(base), "{label}: {key}: {pred} != base");
            }
        }
        for (key, solo) in &self.solos {
            let shared = self.catalog.answers(key).expect("a live binding answers");
            let twin: Answers = project_answers(
                solo.view.database(),
                &solo.plan.answer_atom,
                &solo.plan.projection,
            );
            let scratch = Planner::new(self.strategy)
                .evaluate(&self.program, &solo.query, &self.edb)
                .expect("from-scratch evaluation")
                .answers;
            assert_eq!(
                shared, scratch,
                "{label}: {key}: shared view != from scratch"
            );
            assert_eq!(
                twin, scratch,
                "{label}: {key}: single-binding view != from scratch"
            );
            let frozen = self.catalog.snapshot_view(key).expect("a live binding");
            assert_eq!(frozen.answers(), scratch, "{label}: {key}: snapshot");
            self.catalog
                .view(key)
                .expect("a live binding has a view")
                .verify_support()
                .unwrap_or_else(|e| panic!("{label}: {key}: {e}"));
        }
    }
}

fn pair(pred: &str, a: &str, b: &str) -> Fact {
    Fact::plain(pred, vec![Value::sym(a), Value::sym(b)])
}

/// Insert the fact if the base lacks it, retract it otherwise: always a
/// real state change.
fn toggle(harness: &mut Harness, fact: Fact) {
    let update = if harness.edb.contains(&fact) {
        Update::Retract(fact)
    } else {
        Update::Insert(fact)
    };
    harness.update(update);
}

/// A seeded interleaving over `harness`: each step toggles a base fact or
/// requests a binding (which, at the cap, evicts the coldest one), and is
/// followed by the full check.
fn drive(
    harness: &mut Harness,
    rng: &mut SplitMix64,
    steps: usize,
    queries: &[Query],
    mut base_fact: impl FnMut(&mut SplitMix64) -> Fact,
    label: &str,
) {
    harness.check(&format!("{label}: initial"));
    for step in 0..steps {
        if rng.random_ratio(2, 5) {
            harness.materialize(&queries[rng.random_range(0..queries.len())]);
        } else {
            toggle(harness, base_fact(rng));
        }
        harness.check(&format!("{label}: step {step}"));
    }
}

const SHARING: [Strategy; 2] = [Strategy::MagicSets, Strategy::SupplementaryMagicSets];

#[test]
fn ancestor_seed_sets_match_the_oracles() {
    let mut rng = SplitMix64::seed_from_u64(0x5EED_0A4C);
    for strategy in SHARING {
        for round in 0..3 {
            let n = rng.random_range(6..11);
            let queries: Vec<Query> = (0..n).map(|i| programs::ancestor_query(&node(i))).collect();
            let cap = rng.random_range(2..5);
            let mut harness = Harness::new(strategy, programs::ancestor(), chain(n - 1), cap);
            drive(
                &mut harness,
                &mut rng,
                40,
                &queries,
                |rng| {
                    let (a, b) = (rng.random_range(0..n), rng.random_range(0..n));
                    pair("par", &node(a), &node(b))
                },
                &format!("ancestor {strategy} round {round} (n {n}, cap {cap})"),
            );
            // Every binding of the one adorned predicate is one view.
            assert_eq!(harness.catalog.materialized(), 1);
        }
    }
}

#[test]
fn same_generation_seed_sets_match_the_oracles() {
    let mut rng = SplitMix64::seed_from_u64(0x5EED_056E);
    let cfg = SgConfig {
        depth: 2,
        width: 3,
        flat_everywhere: true,
    };
    let cells: Vec<String> = (0..=cfg.depth)
        .flat_map(|l| (0..cfg.width).map(move |c| format!("l{l}c{c}")))
        .collect();
    let queries: Vec<Query> = cells
        .iter()
        .map(|c| programs::same_generation_query(c))
        .collect();
    for strategy in SHARING {
        let mut harness = Harness::new(
            strategy,
            programs::same_generation(),
            same_generation_grid(cfg),
            4,
        );
        let preds = ["up", "flat", "down"];
        drive(
            &mut harness,
            &mut rng,
            30,
            &queries,
            |rng| {
                let pred = preds[rng.random_range(0..preds.len())];
                let a = &cells[rng.random_range(0..cells.len())];
                let b = &cells[rng.random_range(0..cells.len())];
                pair(pred, a, b)
            },
            &format!("same-generation {strategy}"),
        );
        assert_eq!(harness.catalog.materialized(), 1);
    }
}

#[test]
fn list_reverse_seed_sets_match_the_oracles() {
    // Function symbols: the seed is a whole list, and the seed of a list's
    // tail lies in the list's own cone.  No base facts, so the interleaving
    // is of seeds alone.
    let mut rng = SplitMix64::seed_from_u64(0x5EED_7E5E);
    let lists: Vec<Term> = (0..6)
        .map(|n| match rng.random_range(0..2) {
            0 => list_term(n),
            _ => Value::list((0..n).map(|i| Value::int(i as i64)).collect()).to_term(),
        })
        .collect();
    let queries: Vec<Query> = lists.into_iter().map(programs::reverse_query).collect();
    for strategy in SHARING {
        let mut harness = Harness::new(strategy, programs::list_reverse(), Database::new(), 3);
        for step in 0..20 {
            harness.materialize(&queries[rng.random_range(0..queries.len())]);
            harness.check(&format!("reverse {strategy} step {step}"));
        }
        assert_eq!(harness.catalog.materialized(), 1);
    }
}

/// A random positive program over `edge`: two to four layers of binary
/// predicates built from joins, unions, inversions and (linear and
/// non-linear) recursion over the layers below; the top one is queried.
fn random_positive(rng: &mut SplitMix64) -> (Program, String) {
    let var = Term::var;
    let atom = |p: &str, x: &str, y: &str| Atom::plain(p, vec![var(x), var(y)]);
    let mut lower = vec!["edge".to_string()];
    let mut rules = Vec::new();
    for layer in 0..2 + rng.random_range(0..3) {
        let name = format!("p{layer}");
        let a = lower[rng.random_range(0..lower.len())].clone();
        let b = lower[rng.random_range(0..lower.len())].clone();
        let head = || atom(&name, "X", "Y");
        match rng.random_range(0..5) {
            0 => rules.push(Rule::new(
                head(),
                vec![atom(&a, "X", "Z"), atom(&b, "Z", "Y")],
            )),
            1 => rules.push(Rule::new(head(), vec![atom(&a, "Y", "X")])),
            2 => {
                rules.push(Rule::new(head(), vec![atom(&a, "X", "Y")]));
                rules.push(Rule::new(head(), vec![atom(&b, "X", "Y")]));
            }
            3 => {
                rules.push(Rule::new(head(), vec![atom(&a, "X", "Y")]));
                rules.push(Rule::new(
                    head(),
                    vec![atom(&b, "X", "Z"), atom(&name, "Z", "Y")],
                ));
            }
            _ => {
                rules.push(Rule::new(head(), vec![atom(&a, "X", "Y")]));
                rules.push(Rule::new(
                    head(),
                    vec![atom(&name, "X", "Z"), atom(&name, "Z", "Y")],
                ));
            }
        }
        lower.push(name);
    }
    let top = lower.pop().expect("at least two layers");
    (Program::from_rules(rules), top)
}

#[test]
fn random_positive_programs_and_seed_sets_match_the_oracles() {
    let mut rng = SplitMix64::seed_from_u64(0x5EED_9A4D);
    for round in 0..6 {
        let (program, top) = random_positive(&mut rng);
        let n = rng.random_range(4..8);
        let constant = |i: usize| format!("c{i}");
        let mut edb = Database::new();
        for _ in 0..n + rng.random_range(0..n) {
            let (a, b) = (rng.random_range(0..n), rng.random_range(0..n));
            edb.insert_pair("edge", &constant(a), &constant(b));
        }
        // Both adornments of the top predicate: two adorned programs, so
        // two views, each with its own seed set.
        let queries: Vec<Query> = (0..n)
            .flat_map(|i| {
                [
                    format!("{top}({}, Y)", constant(i)),
                    format!("{top}(X, {})", constant(i)),
                ]
            })
            .map(|text| parse_query(&text).expect("query parses"))
            .collect();
        let strategy = SHARING[round % 2];
        let mut harness = Harness::new(strategy, program, edb, 4);
        drive(
            &mut harness,
            &mut rng,
            30,
            &queries,
            |rng| {
                let (a, b) = (rng.random_range(0..n), rng.random_range(0..n));
                pair("edge", &constant(a), &constant(b))
            },
            &format!("random positive {strategy} round {round}"),
        );
        assert!(harness.catalog.materialized() <= 2);
    }
}

#[test]
fn cyclic_edb_seed_sets_survive_cuts_and_repairs() {
    // On a cycle every seed's cone is the whole graph and every magic row
    // supports every other: cutting an edge must tear the island down for
    // all bindings at once, repairing it must bring all of it back.
    for strategy in SHARING {
        let n = 6;
        let mut harness = Harness::new(strategy, programs::ancestor(), cycle(n), 0);
        for i in [0, 2, 5] {
            harness.materialize(&programs::ancestor_query(&node(i)));
        }
        harness.check("cycle: three seeds");
        for (a, b) in [(1, 2), (4, 5)] {
            harness.update(Update::Retract(pair("par", &node(a), &node(b))));
            harness.check(&format!("cycle: cut {a}->{b}"));
        }
        for (a, b) in [(4, 5), (1, 2)] {
            harness.update(Update::Insert(pair("par", &node(a), &node(b))));
            harness.check(&format!("cycle: repaired {a}->{b}"));
        }
        assert_eq!(harness.catalog.materialized(), 1);
    }
}

#[test]
fn a_seed_already_derived_costs_no_evaluation_and_survives_its_deriver() {
    let mut harness = Harness::new(Strategy::MagicSets, programs::ancestor(), chain(8), 2);
    let k0 = harness.materialize(&programs::ancestor_query("n0"));
    let before = harness.catalog.aggregate_stats();
    // n3 lies in n0's cone: its magic row is already derived.
    let k3 = harness.materialize(&programs::ancestor_query("n3"));
    assert_eq!(
        harness.catalog.aggregate_stats(),
        before,
        "an already-derived seed is a mark, not an evaluation"
    );
    assert_eq!(harness.catalog.materialized(), 1);
    harness.check("n0 and n3");
    // Re-request n3 so n0 is the coldest, then overflow the cap: n0 — the
    // seed that derived n3's row — is evicted, and n3 must stand on its
    // own mark.
    harness.materialize(&programs::ancestor_query("n3"));
    let k6 = harness.materialize(&programs::ancestor_query("n6"));
    assert!(!harness.catalog.contains(&k0));
    assert!(harness.catalog.contains(&k3) && harness.catalog.contains(&k6));
    harness.check("n0 evicted");
    // What only n0 reached is gone from the shared view: it holds what a
    // view of n3 and n6 alone would (n6 lies in n3's cone).
    let shared = harness.catalog.view(&k3).expect("n3 is live").database();
    let n3_alone = MaterializedView::new(&harness.solos[&k3].plan.program, &harness.edb).unwrap();
    assert_eq!(shared.total_facts(), n3_alone.database().total_facts());
    // And updates keep flowing to the survivors.
    harness.update(Update::Insert(pair("par", "n8", "n9")));
    harness.check("after growing the chain");
}

#[test]
fn the_last_binding_takes_its_view_with_it() {
    let program = programs::ancestor();
    let mut catalog = ViewCatalog::new(Strategy::MagicSets).with_max_views(1);
    let edb = chain(4);
    let k0 = catalog
        .materialize(&program, &programs::ancestor_query("n0"), &edb)
        .unwrap();
    // A different adorned predicate: a different program, so a second
    // view — and at cap 1 the first binding, the only one of its view,
    // goes, and its view with it.
    let k1 = catalog
        .materialize(&program, &parse_query("a(X, n3)").unwrap(), &edb)
        .unwrap();
    assert!(!catalog.contains(&k0) && catalog.contains(&k1));
    assert_eq!((catalog.len(), catalog.materialized()), (1, 1));
    assert_eq!(catalog.answers(&k1).unwrap().len(), 3);
}

#[test]
fn a_changed_program_rematerializes_only_the_binding_that_asked() {
    let v1 = parse_program("anc(X, Y) :- par(X, Y).").unwrap();
    let v2 = parse_program(
        "anc(X, Y) :- par(X, Y).
         anc(X, Y) :- par(X, Z), anc(Z, Y).",
    )
    .unwrap();
    let mut edb = Database::new();
    for (a, b) in [("a", "b"), ("b", "c"), ("c", "d")] {
        edb.insert_pair("par", a, b);
    }
    let qa = parse_query("anc(a, Y)").unwrap();
    let qb = parse_query("anc(b, Y)").unwrap();
    let mut catalog = ViewCatalog::new(Strategy::MagicSets);
    let ka = catalog.materialize(&v1, &qa, &edb).unwrap();
    let kb = catalog.materialize(&v1, &qb, &edb).unwrap();
    assert_eq!(catalog.materialized(), 1);
    // `a` is asked again under new rules: it moves to the new program's
    // view; `b` keeps reading the old one until it is asked again.
    let (ka2, fresh) = catalog.materialize_keyed(&v2, &qa, Instant::now()).unwrap();
    assert!(fresh && ka2 == ka);
    assert_eq!((catalog.len(), catalog.materialized()), (2, 2));
    assert_eq!(catalog.answers(&ka).unwrap().len(), 3);
    assert_eq!(catalog.answers(&kb).unwrap().len(), 1);
    catalog.apply_all(&[Update::Insert(pair("par", "d", "e"))]);
    assert_eq!(catalog.answers(&ka).unwrap().len(), 4);
    assert_eq!(catalog.answers(&kb).unwrap().len(), 1);
    let (_, fresh) = catalog.materialize_keyed(&v2, &qb, Instant::now()).unwrap();
    assert!(fresh);
    assert_eq!((catalog.len(), catalog.materialized()), (2, 1));
    assert_eq!(catalog.answers(&kb).unwrap().len(), 3);
    for key in [&ka, &kb] {
        catalog.view(key).unwrap().verify_support().unwrap();
    }
}

#[test]
fn counting_strategies_keep_one_view_per_binding() {
    // Counting indices are distances from *one* seed: the seed stays in
    // the program, every binding plans to a different program, and the
    // same keying yields a view each.
    for strategy in [Strategy::Counting, Strategy::CountingSemijoin] {
        let mut harness = Harness::new(strategy, programs::ancestor(), chain(6), 0);
        for i in [0, 2, 4] {
            harness.materialize(&programs::ancestor_query(&node(i)));
        }
        assert_eq!(
            (harness.catalog.len(), harness.catalog.materialized()),
            (3, 3)
        );
        harness.check(&format!("{strategy}: three bindings"));
        harness.update(Update::Insert(pair("par", "n6", "n7")));
        harness.update(Update::Retract(pair("par", "n1", "n2")));
        harness.check(&format!("{strategy}: after updates"));
    }
}

#[test]
fn guarded_programs_keep_their_seed_in_the_program() {
    // Negation under gms: the view recomputes on update and is not
    // monotone in its seeds, so each binding keeps a view of its own.
    let program = parse_program(
        "reach(X, Y) :- edge(X, Y).
         reach(X, Y) :- edge(X, Z), reach(Z, Y).
         cut_off(X, Y) :- node(X), node(Y), not reach(X, Y).",
    )
    .unwrap();
    let mut edb = Database::new();
    for n in ["a", "b", "c"] {
        edb.insert(
            power_of_magic::lang::PredName::plain("node"),
            vec![Value::sym(n)],
        );
    }
    edb.insert_pair("edge", "a", "b");
    let mut harness = Harness::new(Strategy::MagicSets, program, edb, 0);
    let ka = harness.materialize(&parse_query("cut_off(a, Y)").unwrap());
    harness.materialize(&parse_query("cut_off(b, Y)").unwrap());
    assert_eq!(
        (harness.catalog.len(), harness.catalog.materialized()),
        (2, 2)
    );
    assert_eq!(harness.catalog.recompute_views(), 2);
    assert!(harness
        .catalog
        .view(&ka)
        .unwrap()
        .recompute_reason()
        .is_some());
    harness.check("negation: two bindings");
    harness.update(Update::Insert(pair("edge", "b", "c")));
    harness.check("negation: after an insert that deletes answers");

    // Aggregates plan only under the baselines, which have no seed at
    // all: every binding reads the one view of the whole program.
    let program = parse_program("total(P, sum<C>) :- part_cost(P, C).").unwrap();
    let mut edb = Database::new();
    for (part, cost) in [("bike", 100), ("bike", 30), ("car", 900)] {
        edb.insert(
            power_of_magic::lang::PredName::plain("part_cost"),
            vec![Value::sym(part), Value::int(cost)],
        );
    }
    let mut harness = Harness::new(Strategy::SemiNaiveBottomUp, program, edb, 0);
    harness.materialize(&parse_query("total(bike, T)").unwrap());
    harness.materialize(&parse_query("total(car, T)").unwrap());
    assert_eq!(
        (harness.catalog.len(), harness.catalog.materialized()),
        (2, 1)
    );
    assert_eq!(harness.catalog.recompute_views(), 1);
    harness.update(Update::Insert(Fact::plain(
        "part_cost",
        vec![Value::sym("car"), Value::int(50)],
    )));
    harness.check("aggregates: after an update");
}
