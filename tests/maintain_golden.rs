//! Maintenance golden: what `incr` does under seeded update streams,
//! pinned step by step to `tests/golden/maintain_counters.txt`.
//!
//! A stream is 48 steps drawn from `insert` and `retract` of base facts,
//! `seed`/`unseed` (a magic seed added to or withdrawn from the view), and
//! `cut` (a base fact retracted and set aside) with its `heal` (that fact
//! inserted again).  The chain, same-generation and random positive
//! programs each run two ways: directly on a `MaterializedView` of the
//! seedless gms rewriting (`MaterializedView::{add_seed, remove_seed}`),
//! and through a `ViewCatalog` whose bindings enter by `materialize` and
//! leave by its `max_views` cap, with every base update going through
//! `apply_all`.  A last stream maintains the unrewritten ancestor program
//! over a wide layered graph, where seeds are `a` axioms.
//!
//! After every step one line records an fnv1a-64 digest over
//! * the rows of every predicate, each with its support count;
//! * the cumulative maintenance counters (`EvalStats`: iterations,
//!   firings, new and duplicate facts, probes, per-rule firings and
//!   per-predicate facts, where overdeleted rows show under their `~od~`
//!   shadow names);
//! * on the catalog path, `ApplyAllOutcome`'s applied count and its moved
//!   and evicted bindings, and the answers of every live binding.
//!
//! Everything is rendered as text in name order, so the digest does not
//! depend on interning order.  After an intended change to maintenance,
//! regenerate with `MAGIC_BLESS=1 cargo test --test maintain_golden` and
//! name every moved line old → new.

use power_of_magic::engine::EvalStats;
use power_of_magic::incr::{ApplyAllOutcome, MaterializedView, Update, ViewCatalog};
use power_of_magic::lang::{Fact, Rule, Term, Value};
use power_of_magic::workloads::{
    chain, grid_node, node, programs, same_generation_grid, SgConfig, SplitMix64,
};
use power_of_magic::{Database, Planner, Program, Query, Strategy};
use std::collections::BTreeMap;

mod common;
use common::random_stratified;

const GOLDEN: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/tests/golden/maintain_counters.txt"
);

const STEPS: usize = 48;

/// Live bindings the catalog keeps before its cap evicts the coldest.
const MAX_VIEWS: usize = 3;

fn fnv1a64(text: &str) -> u64 {
    text.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// A program, its base facts, and how a stream draws from them.
struct Family {
    name: String,
    program: Program,
    edb: Database,
    /// The constants a binding `p(c, Y)` of the query predicate takes.
    roots: Vec<String>,
    query_pred: String,
    /// A random base fact (present or not) for an `insert`.
    draw: Box<dyn Fn(&mut SplitMix64) -> Fact>,
    /// The base predicates `retract` and `cut` pick from.
    updatable: Vec<&'static str>,
}

impl Family {
    fn query(&self, root: &str) -> Query {
        Query::plain(&self.query_pred, vec![Term::sym(root), Term::var("Y")])
    }

    /// The seedless gms rewriting of the query predicate and the seed a
    /// binding at `root` adds to it, as the catalog builds them.
    fn seedless(&self) -> (Program, impl Fn(&str) -> Fact) {
        let plan = Planner::new(Strategy::MagicSets)
            .plan(&self.program, &self.query(&self.roots[0]))
            .expect("gms plans the family's query");
        let seed = plan
            .rewritten
            .as_ref()
            .and_then(|r| r.seed.clone())
            .expect("a bound query has a magic seed");
        let mut program = plan.program;
        program.rules.retain(|r| *r != Rule::fact(seed.to_atom()));
        let seed_at = move |root: &str| Fact::new(seed.pred.clone(), vec![Value::sym(root)]);
        (program, seed_at)
    }
}

fn sym_pair(pred: &str, a: &str, b: &str) -> Fact {
    Fact::plain(pred, vec![Value::sym(a), Value::sym(b)])
}

fn chain_family() -> Family {
    let n = 24;
    Family {
        name: "chain".into(),
        program: programs::ancestor(),
        edb: chain(n),
        roots: (0..6).map(|i| node(i * 4)).collect(),
        query_pred: "a".into(),
        draw: Box::new(move |rng| {
            let (a, b) = (rng.random_range(0..n + 1), rng.random_range(0..n + 1));
            sym_pair("par", &node(a), &node(b))
        }),
        updatable: vec!["par"],
    }
}

fn sg_family() -> Family {
    let (depth, width) = (3, 5);
    Family {
        name: "sg".into(),
        program: programs::same_generation(),
        edb: same_generation_grid(SgConfig {
            depth,
            width,
            flat_everywhere: true,
        }),
        roots: (0..width).map(|c| grid_node(0, c)).collect(),
        query_pred: "sg".into(),
        draw: Box::new(move |rng| {
            let pred = ["up", "flat", "down"][rng.random_range(0..3)];
            let level = rng.random_range(0..depth);
            let (a, b) = (rng.random_range(0..width), rng.random_range(0..width));
            let (from, to) = match pred {
                "up" => (grid_node(level, a), grid_node(level + 1, b)),
                "down" => (grid_node(level + 1, a), grid_node(level, b)),
                _ => (grid_node(level, a), grid_node(level, b)),
            };
            sym_pair(pred, &from, &to)
        }),
        updatable: vec!["up", "flat", "down"],
    }
}

/// Random positive programs over `edge`/`node`/`score`, queried at their
/// last binary predicate (the shape `stratified_semantics`' gms leg uses).
fn random_families(count: usize) -> Vec<Family> {
    let mut rng = SplitMix64::seed_from_u64(0x3A17_7A1E);
    let mut out = Vec::new();
    while out.len() < count {
        let (_, program, edb) = random_stratified(&mut rng, true);
        let Some(target) = program
            .rules
            .iter()
            .rev()
            .map(|r| &r.head)
            .find(|h| h.terms.len() == 2)
        else {
            continue;
        };
        let query_pred = target.pred.to_string();
        let nodes = edb.count(&power_of_magic::lang::PredName::plain("node"));
        out.push(Family {
            name: format!("random{}", out.len()),
            program,
            edb,
            roots: (0..nodes).map(|i| format!("c{i}")).collect(),
            query_pred,
            draw: Box::new(move |rng| {
                let (a, b) = (rng.random_range(0..nodes), rng.random_range(0..nodes));
                sym_pair("edge", &format!("c{a}"), &format!("c{b}"))
            }),
            updatable: vec!["edge"],
        });
    }
    out
}

/// `par` from every node of a layer to every node of the next, three
/// layers of `width`: every iteration of the materialization joins over
/// thousands of `par` rows.
fn layered(width: usize) -> Database {
    let mut db = Database::new();
    for layer in 0..2 {
        for i in 0..width {
            for j in 0..width {
                db.insert_pair(
                    "par",
                    &format!("l{layer}_{i}"),
                    &format!("l{}_{j}", layer + 1),
                );
            }
        }
    }
    db
}

/// Every row of `view` with its support count, in name order.
fn render_view(view: &MaterializedView) -> String {
    let mut rows: Vec<String> = Vec::new();
    for (pred, relation) in view.database().iter() {
        for row in relation.iter() {
            let fact = Fact::new(pred.clone(), row);
            let support = view.support_of(&fact);
            rows.push(format!("{fact} #{support}"));
        }
    }
    rows.sort_unstable();
    rows.join("\n") + "\n"
}

/// Cumulative counters, keyed by predicate name text.
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

fn render_outcome(outcome: &ApplyAllOutcome) -> String {
    let evicted: Vec<&str> = outcome.evicted.iter().map(|(k, _)| k.as_str()).collect();
    format!(
        "applied={} changed={:?} evicted={evicted:?}\n",
        outcome.applied, outcome.changed
    )
}

/// The base facts a stream has fed its view, and the cut facts waiting to
/// heal.
struct Base {
    db: Database,
    cuts: Vec<Fact>,
}

/// What a step does to the base facts.
#[derive(Clone, Copy)]
enum BaseOp {
    Insert,
    Retract,
    Cut,
    Heal,
}

impl Base {
    /// The update `op` makes, or `None` when there is nothing to pick.
    fn draw(&mut self, family: &Family, op: BaseOp, rng: &mut SplitMix64) -> Option<Update> {
        match op {
            BaseOp::Insert => Some(Update::Insert((family.draw)(rng))),
            BaseOp::Heal => self.cuts.pop().map(Update::Insert),
            BaseOp::Retract | BaseOp::Cut => {
                let pred = family.updatable[rng.random_range(0..family.updatable.len())];
                let relation = self
                    .db
                    .relation(&power_of_magic::lang::PredName::plain(pred))?;
                let rows: Vec<_> = relation.iter().collect();
                if rows.is_empty() {
                    return None;
                }
                let fact = Fact::plain(pred, rows[rng.random_range(0..rows.len())].clone());
                if matches!(op, BaseOp::Cut) {
                    self.cuts.push(fact.clone());
                }
                Some(Update::Retract(fact))
            }
        }
    }

    fn apply(&mut self, update: &Update) {
        match update {
            Update::Insert(fact) => self.db.insert_fact(fact),
            Update::Retract(fact) => self.db.remove_fact(fact),
        };
    }
}

/// The next step's kind: a base update, or a seed change (`true` adds).
fn draw_op(rng: &mut SplitMix64) -> Result<BaseOp, bool> {
    match rng.random_range(0..20) {
        0..=5 => Ok(BaseOp::Insert),
        6..=9 => Ok(BaseOp::Retract),
        10..=12 => Err(true),
        13..=14 => Err(false),
        15..=17 => Ok(BaseOp::Cut),
        _ => Ok(BaseOp::Heal),
    }
}

fn op_name(op: &Result<BaseOp, bool>) -> &'static str {
    match op {
        Ok(BaseOp::Insert) => "insert",
        Ok(BaseOp::Retract) => "retract",
        Ok(BaseOp::Cut) => "cut",
        Ok(BaseOp::Heal) => "heal",
        Err(true) => "seed",
        Err(false) => "unseed",
    }
}

/// A `MaterializedView` driven directly: `seed_at(root)` is the seed a
/// `seed` step adds, and an `unseed` step withdraws one added earlier.
fn direct_stream(
    out: &mut String,
    name: &str,
    family: &Family,
    program: &Program,
    seed_at: &dyn Fn(&mut SplitMix64) -> Fact,
    rng: &mut SplitMix64,
) {
    let mut view = MaterializedView::new(program, &family.edb).expect("the view materializes");
    let mut base = Base {
        db: family.edb.clone(),
        cuts: Vec::new(),
    };
    let mut seeds: Vec<Fact> = Vec::new();
    let line = |out: &mut String, step: usize, op: &str, view: &MaterializedView| {
        let digest = fnv1a64(&(render_view(view) + &render_stats(view.stats())));
        *out += &format!("{name} {step:02} {op:<7} fnv1a64={digest:016x}\n");
    };
    line(out, 0, "init", &view);
    for step in 1..=STEPS {
        let op = draw_op(rng);
        match &op {
            Err(true) => {
                let seed = seed_at(rng);
                view.add_seed(&seed).expect("add_seed");
                if !seeds.contains(&seed) {
                    seeds.push(seed);
                }
            }
            Err(false) if !seeds.is_empty() => {
                let seed = seeds.remove(rng.random_range(0..seeds.len()));
                view.remove_seed(&seed).expect("remove_seed");
            }
            Err(false) => {}
            Ok(kind) => {
                if let Some(update) = base.draw(family, *kind, rng) {
                    base.apply(&update);
                    view.apply([&update])
                        .expect("the view maintains the update");
                }
            }
        }
        line(out, step, op_name(&op), &view);
    }
}

/// A `ViewCatalog` under gms: a `seed` step materializes a binding (the
/// cap evicts the coldest, withdrawing its seed), and base updates go
/// through `apply_all`.  An `unseed` step re-requests the coldest live
/// binding instead, so the next eviction withdraws another seed.
fn catalog_stream(out: &mut String, family: &Family, rng: &mut SplitMix64) {
    let name = format!("{} catalog", family.name);
    let mut catalog = ViewCatalog::new(Strategy::MagicSets).with_max_views(MAX_VIEWS);
    let mut base = Base {
        db: family.edb.clone(),
        cuts: Vec::new(),
    };
    let mut order: Vec<String> = Vec::new();
    let line = |out: &mut String, step: usize, op: &str, catalog: &ViewCatalog, moved: &str| {
        let mut rendering = moved.to_string();
        rendering += &render_stats(&catalog.aggregate_stats());
        rendering += &format!("materialized={}\n", catalog.materialized());
        let mut rendered: Vec<*const MaterializedView> = Vec::new();
        for key in catalog.keys() {
            let answers = catalog.answers(key).expect("a live binding answers");
            rendering += &format!("{key} -> {answers:?}\n");
            let view = catalog.view(key).expect("a live binding has a view");
            if !rendered.contains(&(view as *const _)) {
                rendered.push(view);
                rendering += &render_view(view);
            }
        }
        let digest = fnv1a64(&rendering);
        *out += &format!("{name} {step:02} {op:<7} fnv1a64={digest:016x}\n");
    };
    line(out, 0, "init", &catalog, "");
    for step in 1..=STEPS {
        let op = draw_op(rng);
        let mut moved = String::new();
        match &op {
            Err(add) => {
                let root = match order.first() {
                    Some(coldest) if !add => coldest.clone(),
                    _ => family.roots[rng.random_range(0..family.roots.len())].clone(),
                };
                let query = family.query(&root);
                catalog
                    .materialize(&family.program, &query, &base.db)
                    .expect("the binding materializes");
                order.retain(|r| *r != root);
                order.push(root);
                order.retain(|r| {
                    let key = catalog.binding_key(&family.program, &family.query(r));
                    catalog.contains(&key.expect("the query plans"))
                });
            }
            Ok(kind) => {
                if let Some(update) = base.draw(family, *kind, rng) {
                    base.apply(&update);
                    let outcome = catalog.apply_all(std::slice::from_ref(&update));
                    moved = render_outcome(&outcome);
                }
            }
        }
        line(out, step, op_name(&op), &catalog, &moved);
    }
}

fn maintain_golden() -> String {
    let mut out = String::new();
    let mut rng = SplitMix64::seed_from_u64(0x6A17_0D3E);
    let mut families = vec![chain_family(), sg_family()];
    families.extend(random_families(6));
    for family in &families {
        let (program, seed_at) = family.seedless();
        let roots = family.roots.clone();
        let pick = move |rng: &mut SplitMix64| seed_at(&roots[rng.random_range(0..roots.len())]);
        let name = format!("{} view", family.name);
        direct_stream(&mut out, &name, family, &program, &pick, &mut rng);
        catalog_stream(&mut out, family, &mut rng);
    }

    // The unrewritten ancestor program over three layers of 48: a seed is
    // an `a` axiom between the outer layers.
    let width = 48;
    let family = Family {
        name: "layered".into(),
        program: programs::ancestor(),
        edb: layered(width),
        roots: Vec::new(),
        query_pred: "a".into(),
        draw: Box::new(move |rng| {
            let layer = rng.random_range(0..2);
            let (i, j) = (rng.random_range(0..width), rng.random_range(0..width));
            sym_pair(
                "par",
                &format!("l{layer}_{i}"),
                &format!("l{}_{j}", layer + 1),
            )
        }),
        updatable: vec!["par"],
    };
    let axiom = move |rng: &mut SplitMix64| {
        let (i, j) = (rng.random_range(0..width), rng.random_range(0..width));
        sym_pair("a", &format!("l2_{i}"), &format!("l0_{j}"))
    };
    let name = "layered view";
    direct_stream(&mut out, name, &family, &family.program, &axiom, &mut rng);
    out
}

/// Maintenance is pinned: a change to `incr`, the engine's resume path or
/// storage must leave this file byte-identical, or name each moved line.
#[test]
fn maintenance_matches_the_golden() {
    let actual = maintain_golden();
    if std::env::var_os("MAGIC_BLESS").is_some() {
        std::fs::write(GOLDEN, &actual).expect("write golden file");
        return;
    }
    let expected =
        std::fs::read_to_string(GOLDEN).expect("read tests/golden/maintain_counters.txt");
    let changed: Vec<&str> = actual
        .lines()
        .zip(expected.lines())
        .filter(|(have, want)| have != want)
        .map(|(have, _)| have)
        .collect();
    assert!(
        changed.is_empty() && actual.lines().count() == expected.lines().count(),
        "maintenance counters differ from {GOLDEN}: {changed:?}"
    );
}
