//! Stratified-semantics property suite.
//!
//! Correctness oracle: the *perfect model* of a stratified program,
//! computed by the dumbest correct evaluator imaginable — enumerate every
//! assignment of rule variables over the active domain, check positive
//! atoms by membership and negated atoms by absence against the finished
//! lower strata, fold aggregates by brute-force grouping — must equal
//! what the optimized engine (slot-compiled joins, semi-naive deltas,
//! anti-joins, stratum-boundary aggregate folds) derives.  The suite
//! drives seeded randomized stratified programs (negation + aggregates
//! over templates with known-safe shapes) through both, mirroring the
//! seeded-SplitMix64 discipline of `tests/incremental.rs`, plus
//! gms-rewritten positive fragments checked against the same oracle's
//! answer projection.  A counter golden pins what the engine *spends* on
//! the same programs: see `stratified_counters_match_the_golden`.

use power_of_magic::engine::{
    EvalStats, Evaluator, FixpointRunner, IterationScheme, Limits, WindowDiscipline,
};
use power_of_magic::lang::{Atom, Fact, PredName, Program, Rule, Term, Value};
use power_of_magic::workloads::{
    bill_of_materials, bom_database, game_graph, hop_graph, shortest_paths, win_lose, SplitMix64,
};

mod common;
use common::random_stratified;
use power_of_magic::{Database, Planner, Query, Strategy};
use std::collections::{BTreeMap, BTreeSet};

/// A derived fact set keyed by predicate display name.
type Model = BTreeMap<String, BTreeSet<Vec<Value>>>;

/// Ground a rule term under a binding (generated rules use only
/// variables and constants — no function terms).
fn ground(term: &Term, binding: &BTreeMap<String, Value>) -> Value {
    match term {
        Term::Var(v) => binding[v.name()].clone(),
        Term::Int(n) => Value::int(*n),
        Term::Sym(s) => Value::sym(s.as_str()),
        other => panic!("oracle rules have no function terms: {other}"),
    }
}

/// All assignments of `vars` over `domain`, visited depth-first.
fn for_each_assignment(
    vars: &[String],
    domain: &[Value],
    binding: &mut BTreeMap<String, Value>,
    visit: &mut impl FnMut(&BTreeMap<String, Value>),
) {
    match vars.split_first() {
        None => visit(binding),
        Some((var, rest)) => {
            for value in domain {
                binding.insert(var.clone(), value.clone());
                for_each_assignment(rest, domain, binding, visit);
            }
            binding.remove(var);
        }
    }
}

/// True iff the rule body holds under the binding: every positive atom's
/// grounded row is present, every negated atom's absent.
fn body_holds(rule: &Rule, model: &Model, binding: &BTreeMap<String, Value>) -> bool {
    let row_of =
        |atom: &Atom| -> Vec<Value> { atom.terms.iter().map(|t| ground(t, binding)).collect() };
    let present = |atom: &Atom| {
        model
            .get(&atom.pred.to_string())
            .is_some_and(|rows| rows.contains(&row_of(atom)))
    };
    rule.body.iter().all(present) && !rule.negated.iter().any(present)
}

/// The distinct values appearing anywhere in the model — the active
/// domain brute-force enumeration ranges over.
fn active_domain(model: &Model) -> Vec<Value> {
    let mut domain: BTreeSet<Value> = BTreeSet::new();
    for rows in model.values() {
        for row in rows {
            domain.extend(row.iter().cloned());
        }
    }
    domain.into_iter().collect()
}

/// The variables a rule's enumeration must range over: everything bound
/// by the positive body (generated rules are safe, so head, negated and
/// aggregated variables are all among these).
fn body_vars(rule: &Rule) -> Vec<String> {
    let mut vars: Vec<String> = Vec::new();
    for atom in &rule.body {
        for v in atom.vars() {
            if !vars.contains(&v.name().to_string()) {
                vars.push(v.name().to_string());
            }
        }
    }
    vars
}

/// One brute-force pass of a plain rule; returns true if a new fact landed.
fn fire_plain(rule: &Rule, model: &mut Model) -> bool {
    let vars = body_vars(rule);
    let domain = active_domain(model);
    let mut derived: Vec<Vec<Value>> = Vec::new();
    for_each_assignment(&vars, &domain, &mut BTreeMap::new(), &mut |binding| {
        if body_holds(rule, model, binding) {
            derived.push(rule.head.terms.iter().map(|t| ground(t, binding)).collect());
        }
    });
    let rows = model.entry(rule.head.pred.to_string()).or_default();
    let before = rows.len();
    rows.extend(derived);
    rows.len() != before
}

/// Brute-force an aggregate rule: group the satisfying assignments by the
/// non-aggregate head positions, fold the distinct aggregated values.
fn fire_aggregate(rule: &Rule, model: &mut Model) {
    use power_of_magic::lang::AggFunc;
    let agg = rule.aggregate.as_ref().expect("aggregate rule");
    let vars = body_vars(rule);
    let domain = active_domain(model);
    let mut groups: BTreeMap<Vec<Value>, BTreeSet<Value>> = BTreeMap::new();
    for_each_assignment(&vars, &domain, &mut BTreeMap::new(), &mut |binding| {
        if body_holds(rule, model, binding) {
            let key: Vec<Value> = rule
                .head
                .terms
                .iter()
                .enumerate()
                .filter(|(i, _)| *i != agg.position)
                .map(|(_, t)| ground(t, binding))
                .collect();
            groups
                .entry(key)
                .or_default()
                .insert(binding[agg.var.name()].clone());
        }
    });
    let as_int = |v: &Value| match v {
        Value::Int(n) => *n,
        other => panic!("aggregated non-integer {other}"),
    };
    let rows = model.entry(rule.head.pred.to_string()).or_default();
    for (key, values) in groups {
        let folded = match agg.func {
            AggFunc::Count => values.len() as i64,
            AggFunc::Sum => values.iter().map(as_int).sum(),
            AggFunc::Min => values.iter().map(as_int).min().unwrap(),
            AggFunc::Max => values.iter().map(as_int).max().unwrap(),
        };
        let mut row = Vec::new();
        let mut key = key.into_iter();
        for i in 0..rule.head.terms.len() {
            if i == agg.position {
                row.push(Value::int(folded));
            } else {
                row.push(key.next().unwrap());
            }
        }
        rows.insert(row);
    }
}

/// The perfect model of a layered stratified program: each layer's plain
/// rules iterate to fixpoint against the finished lower layers, then the
/// layer's aggregate rules fold once at the boundary.
fn perfect_model(layers: &[Vec<Rule>], edb: &Database) -> BTreeSet<Fact> {
    let mut model: Model = BTreeMap::new();
    for fact in edb.facts() {
        model
            .entry(fact.pred.to_string())
            .or_default()
            .insert(fact.values.clone());
    }
    let mut derived_preds: BTreeSet<String> = BTreeSet::new();
    for layer in layers {
        for rule in layer {
            derived_preds.insert(rule.head.pred.to_string());
        }
        loop {
            let mut changed = false;
            for rule in layer.iter().filter(|r| r.aggregate.is_none()) {
                changed |= fire_plain(rule, &mut model);
            }
            if !changed {
                break;
            }
        }
        for rule in layer.iter().filter(|r| r.aggregate.is_some()) {
            fire_aggregate(rule, &mut model);
        }
    }
    let mut facts = BTreeSet::new();
    for (pred, rows) in &model {
        if derived_preds.contains(pred) {
            for row in rows {
                facts.insert(Fact::plain(pred, row.clone()));
            }
        }
    }
    facts
}

/// What the engine derives for the same program, restricted to the
/// derived predicates.
fn engine_model(program: &Program, edb: &Database) -> BTreeSet<Fact> {
    let result = Evaluator::new(program.clone())
        .run(edb)
        .expect("engine evaluates the stratified program");
    let derived: BTreeSet<PredName> = program.rules.iter().map(|r| r.head.pred.clone()).collect();
    result
        .database
        .facts()
        .filter(|f| derived.contains(&f.pred))
        .collect()
}

#[test]
fn randomized_stratified_programs_match_the_perfect_model() {
    let mut rng = SplitMix64::seed_from_u64(0x57AB_51F1);
    for round in 0..12 {
        let seed = rng.next_u64();
        let mut round_rng = SplitMix64::seed_from_u64(seed);
        let (layers, program, edb) = random_stratified(&mut round_rng, false);
        let oracle = perfect_model(&layers, &edb);
        let engine = engine_model(&program, &edb);
        assert_eq!(
            engine, oracle,
            "round {round} (seed {seed:#x}): engine diverged from the perfect model\n{program}"
        );
    }
}

#[test]
fn negation_heavy_rounds_are_nondegenerate() {
    // At least one seeded round must actually derive through a negated
    // atom (a complement row that survives), or the suite is vacuous.
    let mut rng = SplitMix64::seed_from_u64(0x57AB_51F1);
    let mut negated_derivations = 0usize;
    for _ in 0..12 {
        let seed = rng.next_u64();
        let mut round_rng = SplitMix64::seed_from_u64(seed);
        let (layers, program, edb) = random_stratified(&mut round_rng, false);
        let guarded: BTreeSet<String> = program
            .rules
            .iter()
            .filter(|r| !r.negated.is_empty())
            .map(|r| r.head.pred.to_string())
            .collect();
        if guarded.is_empty() {
            continue;
        }
        negated_derivations += perfect_model(&layers, &edb)
            .iter()
            .filter(|f| guarded.contains(&f.pred.to_string()))
            .count();
    }
    assert!(
        negated_derivations > 0,
        "no seeded round derived anything through negation"
    );
}

/// A random *positive* fragment (joins, projections, recursion — no
/// guards), for the gms leg: a bound-first query on the last binary
/// predicate, answered by the magic-rewritten plan, must project exactly
/// the oracle's rows.
#[test]
fn gms_rewritten_positive_fragments_match_the_oracle_projection() {
    let mut rng = SplitMix64::seed_from_u64(0x6A51C);
    let mut checked = 0usize;
    for round in 0..12 {
        let seed = rng.next_u64();
        let mut round_rng = SplitMix64::seed_from_u64(seed);
        let (layers, program, edb) = random_stratified(&mut round_rng, true);
        assert!(
            !program.rules.iter().any(Rule::is_guarded),
            "positive-only generation produced a guard"
        );
        let Some(target) = program
            .rules
            .iter()
            .rev()
            .map(|r| &r.head)
            .find(|h| h.terms.len() == 2)
        else {
            continue;
        };
        let query = Query::plain(
            &target.pred.to_string(),
            vec![Term::sym("c0"), Term::var("Y")],
        );
        let result = Planner::new(Strategy::MagicSets)
            .evaluate(&program, &query, &edb)
            .expect("gms evaluates the positive fragment");
        let expected: BTreeSet<Vec<Value>> = perfect_model(&layers, &edb)
            .into_iter()
            .filter(|f| f.pred == target.pred && f.values[0] == Value::sym("c0"))
            .map(|f| vec![f.values[1].clone()])
            .collect();
        assert_eq!(
            result.answers, expected,
            "round {round} (seed {seed:#x}): gms answers diverged\n{program}"
        );
        checked += 1;
    }
    assert!(
        checked >= 6,
        "too few positive fragments ({checked}) to trust the gms leg"
    );
}

// ---------------------------------------------------------------------------
// Counter golden.
// ---------------------------------------------------------------------------

const COUNTER_GOLDEN: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/tests/golden/stratified_counters.txt"
);

fn fnv1a64(text: &str) -> u64 {
    text.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// The counters of one run, with everything keyed by predicate in name
/// order: predicate names compare by interning sequence, which depends on
/// which tests of this binary ran first.
fn render_stats(stats: &EvalStats) -> String {
    let by_pred: BTreeMap<String, usize> = stats
        .facts_by_pred
        .iter()
        .map(|(p, n)| (p.to_string(), *n))
        .collect();
    format!(
        "iterations={} firings={} facts={} duplicates={} probes={} by_pred={by_pred:?} by_rule={:?}\n",
        stats.iterations,
        stats.rule_firings,
        stats.facts_derived,
        stats.duplicate_derivations,
        stats.join_probes,
        stats.firings_by_rule
    )
}

/// Every row of `db`, sorted as text.  Row ids are left out: aggregate
/// groups are inserted in interned-value order, which varies between
/// processes.
fn render_rows(db: &Database) -> String {
    let facts: BTreeSet<String> = db.facts().map(|f| f.to_string()).collect();
    facts.into_iter().collect::<Vec<_>>().join("\n")
}

/// The golden line of one case: a digest of the full `EvalStats` (per-rule
/// firings and per-predicate facts included) and of every derived row,
/// under the three loops a guarded program meets — the
/// evaluator's semi-naive and naive runs, and a view-style runner (every
/// body predicate tracked, `Disjoint` windows).
fn counter_line(name: &str, program: &Program, edb: &Database) -> String {
    let limits = Limits::default();
    let mut rendering = String::new();
    for scheme in [IterationScheme::SemiNaive, IterationScheme::Naive] {
        let result = Evaluator::new(program.clone())
            .with_scheme(scheme)
            .with_limits(limits)
            .run(edb)
            .expect("engine evaluates the stratified program");
        rendering += &render_stats(&result.stats);
        rendering += &render_rows(&result.database);
    }
    let mut tracked = program.derived_preds();
    tracked.extend(program.base_preds());
    let runner = FixpointRunner::compile(program, &tracked)
        .with_limits(limits)
        .with_discipline(WindowDiscipline::Disjoint);
    let mut db = edb.clone();
    let mut stats = EvalStats::default();
    runner
        .run(&mut db, &mut stats, None)
        .expect("runner evaluates the stratified program");
    rendering += &render_stats(&stats);
    rendering += &render_rows(&db);
    format!("{name} fnv1a64={:016x}\n", fnv1a64(&rendering))
}

/// The golden file's contents: the three stratified workload families at
/// two sizes each, then 200 seeded random stratified programs.
fn counter_golden() -> String {
    let mut out = String::new();
    for (n, moves) in [(16, 36), (128, 300)] {
        let name = format!("win_lose {n}x{moves}");
        out += &counter_line(&name, &win_lose(), &game_graph(n, moves, 0xB10C));
    }
    for (assemblies, max_parts) in [(4, 4), (12, 8)] {
        let name = format!("bom_total {assemblies}x{max_parts}");
        let edb = bom_database(assemblies, max_parts, 0xB0B0);
        out += &counter_line(&name, &bill_of_materials(), &edb);
    }
    for (n, edges, bound) in [(8, 16, 4), (24, 80, 10)] {
        let name = format!("shortest {n}x{edges}");
        out += &counter_line(
            &name,
            &shortest_paths(),
            &hop_graph(n, edges, bound, 0x5EED),
        );
    }
    let mut rng = SplitMix64::seed_from_u64(0xC0_FFEE);
    for i in 0..200 {
        let (_, program, edb) = random_stratified(&mut rng, false);
        out += &counter_line(&format!("random {i:03}"), &program, &edb);
    }
    out
}

/// Counters, rows and row ids of stratified evaluation are pinned: a change
/// to how guarded programs are scheduled must leave this file byte-identical.
/// After an intended change, regenerate with
/// `MAGIC_BLESS=1 cargo test --test stratified_semantics` and review the diff.
#[test]
fn stratified_counters_match_the_golden() {
    let actual = counter_golden();
    if std::env::var_os("MAGIC_BLESS").is_some() {
        std::fs::write(COUNTER_GOLDEN, &actual).expect("write golden file");
        return;
    }
    let expected =
        std::fs::read_to_string(COUNTER_GOLDEN).expect("read tests/golden/stratified_counters.txt");
    let changed: Vec<&str> = actual
        .lines()
        .zip(expected.lines())
        .filter(|(have, want)| have != want)
        .map(|(have, _)| have)
        .collect();
    assert!(
        changed.is_empty() && actual.lines().count() == expected.lines().count(),
        "stratified counters differ from {COUNTER_GOLDEN}: {changed:?}"
    );
}
