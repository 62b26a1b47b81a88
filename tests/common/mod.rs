//! The seeded random stratified-program generator shared by the
//! stratified-semantics suite and the maintenance golden.

use power_of_magic::lang::{Atom, PredName, Program, Rule, Term, Value};
use power_of_magic::workloads::SplitMix64;
use power_of_magic::Database;

/// A usable predicate: name, arity, and whether its last column is
/// integer-valued (the columns `sum`/`min`/`max` may fold).
#[derive(Clone)]
struct PredInfo {
    name: String,
    arity: usize,
    int_col: bool,
}

fn pred(name: &str, arity: usize, int_col: bool) -> PredInfo {
    PredInfo {
        name: name.to_string(),
        arity,
        int_col,
    }
}

fn pick<'a>(rng: &mut SplitMix64, items: &'a [PredInfo]) -> &'a PredInfo {
    &items[rng.random_range(0..items.len())]
}

/// A random stratified program over a random EDB: 2–4 derived layers of
/// safe template rules (copies, joins, projections, positive recursion,
/// negation of strictly-lower predicates, boundary aggregates), returned
/// both layered (for the oracle) and flat (for the engine).  With
/// `positive_only`, the guarded templates are replaced by positive ones —
/// the shape the gms-rewrite leg needs.
pub fn random_stratified(
    rng: &mut SplitMix64,
    positive_only: bool,
) -> (Vec<Vec<Rule>>, Program, Database) {
    let n = 6 + rng.random_range(0..3);
    let mut edb = Database::new();
    let constant = |i: usize| format!("c{i}");
    for i in 0..n {
        edb.insert(PredName::plain("node"), vec![Value::sym(&constant(i))]);
        edb.insert(
            PredName::plain("score"),
            vec![
                Value::sym(&constant(i)),
                Value::int(1 + rng.random_range(0..40) as i64),
            ],
        );
    }
    for _ in 0..n + rng.random_range(0..n) {
        let a = rng.random_range(0..n);
        let b = rng.random_range(0..n);
        edb.insert_pair("edge", &constant(a), &constant(b));
    }

    let binaries_of = |preds: &[PredInfo]| -> Vec<PredInfo> {
        preds.iter().filter(|p| p.arity == 2).cloned().collect()
    };
    let unaries_of = |preds: &[PredInfo]| -> Vec<PredInfo> {
        preds.iter().filter(|p| p.arity == 1).cloned().collect()
    };
    let int_cols_of = |preds: &[PredInfo]| -> Vec<PredInfo> {
        preds
            .iter()
            .filter(|p| p.arity == 2 && p.int_col)
            .cloned()
            .collect()
    };
    let var = Term::var;
    let atom1 = |p: &PredInfo, x: &str| Atom::plain(&p.name, vec![var(x)]);
    let atom2 = |p: &PredInfo, x: &str, y: &str| Atom::plain(&p.name, vec![var(x), var(y)]);

    let mut lower = vec![
        pred("edge", 2, false),
        pred("node", 1, false),
        pred("score", 2, true),
    ];
    let mut layers: Vec<Vec<Rule>> = Vec::new();
    let mut serial = 0usize;
    for _ in 0..2 + rng.random_range(0..3) {
        let mut layer: Vec<Rule> = Vec::new();
        let mut born: Vec<PredInfo> = Vec::new();
        for _ in 0..1 + rng.random_range(0..2) {
            let name = format!("p{serial}");
            serial += 1;
            let binaries = binaries_of(&lower);
            let unaries = unaries_of(&lower);
            let int_cols = int_cols_of(&lower);
            let template = match rng.random_range(0..7) {
                // The guarded templates (negation at 2/3, aggregate at 5)
                // degrade to their positive cousins in positive-only mode.
                2 if positive_only => 1,
                3 if positive_only => 0,
                5 if positive_only => 6,
                t => t,
            };
            match template {
                // q(X, Y) :- a(X, Z), b(Z, Y).
                0 => {
                    layer.push(Rule::new(
                        Atom::plain(&name, vec![var("X"), var("Y")]),
                        vec![
                            atom2(pick(rng, &binaries), "X", "Z"),
                            atom2(pick(rng, &binaries), "Z", "Y"),
                        ],
                    ));
                    born.push(pred(&name, 2, false));
                }
                // q(X) :- a(X, Y).  (projection)
                1 => {
                    layer.push(Rule::new(
                        Atom::plain(&name, vec![var("X")]),
                        vec![atom2(pick(rng, &binaries), "X", "Y")],
                    ));
                    born.push(pred(&name, 1, false));
                }
                // q(X) :- node(X), not a(X).  (negation, lower stratum)
                2 if !unaries.is_empty() => {
                    layer.push(
                        Rule::new(
                            Atom::plain(&name, vec![var("X")]),
                            vec![atom1(&pred("node", 1, false), "X")],
                        )
                        .with_negated(vec![atom1(pick(rng, &unaries), "X")]),
                    );
                    born.push(pred(&name, 1, false));
                }
                // q(X, Y) :- a(X, Y), not b(X).  (guarded copy)
                3 if !unaries.is_empty() => {
                    layer.push(
                        Rule::new(
                            Atom::plain(&name, vec![var("X"), var("Y")]),
                            vec![atom2(pick(rng, &binaries), "X", "Y")],
                        )
                        .with_negated(vec![atom1(pick(rng, &unaries), "X")]),
                    );
                    born.push(pred(&name, 2, false));
                }
                // Positive recursion: base copy + transitive step.
                4 => {
                    let step = pick(rng, &binaries).clone();
                    let this = pred(&name, 2, false);
                    layer.push(Rule::new(
                        Atom::plain(&name, vec![var("X"), var("Y")]),
                        vec![atom2(&step, "X", "Y")],
                    ));
                    layer.push(Rule::new(
                        Atom::plain(&name, vec![var("X"), var("Y")]),
                        vec![atom2(&this, "X", "Z"), atom2(&step, "Z", "Y")],
                    ));
                    born.push(this);
                }
                // q(X, f<N>) :- w(X, N).  (boundary aggregate, sole rule)
                5 if !int_cols.is_empty() => {
                    use power_of_magic::lang::{AggFunc, Aggregate, Variable};
                    let funcs = [AggFunc::Sum, AggFunc::Min, AggFunc::Max, AggFunc::Count];
                    let func = funcs[rng.random_range(0..funcs.len())];
                    layer.push(
                        Rule::new(
                            Atom::plain(&name, vec![var("X"), var("N")]),
                            vec![atom2(pick(rng, &int_cols), "X", "N")],
                        )
                        .with_aggregate(Aggregate {
                            func,
                            var: Variable::new("N"),
                            position: 1,
                        }),
                    );
                    born.push(pred(&name, 2, true));
                }
                // q(X, N) :- a(X, Y), score(Y, N).  (int-column join)
                _ => {
                    layer.push(Rule::new(
                        Atom::plain(&name, vec![var("X"), var("N")]),
                        vec![
                            atom2(pick(rng, &binaries), "X", "Y"),
                            atom2(&pred("score", 2, true), "Y", "N"),
                        ],
                    ));
                    born.push(pred(&name, 2, true));
                }
            }
        }
        lower.extend(born);
        layers.push(layer);
    }
    let program = Program::from_rules(layers.iter().flatten().cloned().collect());
    program.validate().expect("generated program is safe");
    (layers, program, edb)
}
