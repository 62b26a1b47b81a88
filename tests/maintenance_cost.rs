//! What a maintenance operation costs, pinned by counters and held to the
//! oracles: the body-ordering helper behind every maintenance plan, the
//! probe budget of a delete-and-rederive retraction, the dedup-backed
//! access path of a fully bound atom, and the row-id support column
//! through repeated compactions.

use power_of_magic::engine::{
    evaluate_rule_windows, sip_order, DeltaWindow, Evaluator, Limits, RulePlan,
};
use power_of_magic::incr::MaterializedView;
use power_of_magic::lang::{Atom, Fact, PredName, Rule, Term, Value, Variable};
use power_of_magic::workloads::{chain, node, programs, SplitMix64};
use power_of_magic::{Database, Planner, Strategy};
use std::collections::BTreeSet;

/// A random positive rule: 1–5 body atoms of arity 1–3 over a variable
/// pool small enough to share and large enough to leave atoms disjoint,
/// with the odd constant.
fn random_rule(rng: &mut SplitMix64) -> Rule {
    let pool = rng.random_range(2..9);
    let term = |rng: &mut SplitMix64| {
        if rng.random_ratio(1, 8) {
            Term::sym("c")
        } else {
            Term::var(&format!("V{}", rng.random_range(0..pool)))
        }
    };
    let body: Vec<Atom> = (0..rng.random_range(1..6))
        .map(|i| {
            let arity = rng.random_range(1..4);
            Atom::plain(&format!("b{i}"), (0..arity).map(|_| term(rng)).collect())
        })
        .collect();
    let head_arity = rng.random_range(0..3);
    let head = Atom::plain("h", (0..head_arity).map(|_| term(rng)).collect());
    Rule::new(head, body)
}

/// The body loop `engine::evaluator::delta_variant` ran before the helper
/// was lifted out of it, kept verbatim as the reference: lead first, then
/// most already-bound variables, original position breaking ties.
fn reference_delta_order(rule: &Rule, lead: usize) -> Vec<usize> {
    let mut order = vec![lead];
    let mut bound = rule.body[lead].var_set();
    let mut remaining: Vec<usize> = (0..rule.body.len()).filter(|&o| o != lead).collect();
    while !remaining.is_empty() {
        let (pick, _) = remaining
            .iter()
            .enumerate()
            .max_by_key(|(_, &o)| {
                let vars = rule.body[o].var_set();
                let bound_vars = vars.intersection(&bound).count();
                (bound_vars, std::cmp::Reverse(o))
            })
            .expect("remaining is non-empty");
        let o = remaining.remove(pick);
        bound.extend(rule.body[o].var_set());
        order.push(o);
    }
    order
}

#[test]
fn sip_order_is_greedy_bound_first_and_reproduces_the_delta_variants() {
    let mut rng = SplitMix64::seed_from_u64(0x51B0_0015);
    for case in 0..2000 {
        let rule = random_rule(&mut rng);
        let n = rule.body.len();
        // Lead given, nothing else: the delta-driven variants.
        for lead in 0..n {
            assert_eq!(
                sip_order(&rule, Some(lead), &BTreeSet::new()),
                reference_delta_order(&rule, lead),
                "case {case}: {rule} led by occurrence {lead}"
            );
        }
        // Any lead (or none) and any given set: a permutation that never
        // takes an atom with fewer bound variables than another on offer —
        // in particular never an unbound atom before a bound one — and
        // breaks ties by original position.
        let given: BTreeSet<Variable> = rule
            .head
            .vars()
            .into_iter()
            .chain(rule.body.iter().flat_map(|a| a.vars()))
            .filter(|_| rng.random_ratio(1, 3))
            .collect();
        let lead = rng.random_ratio(1, 2).then(|| rng.random_range(0..n));
        let order = sip_order(&rule, lead, &given);
        let mut seen = order.clone();
        seen.sort_unstable();
        assert_eq!(seen, (0..n).collect::<Vec<_>>(), "case {case}: {order:?}");
        let mut bound = given.clone();
        let mut rest = order.as_slice();
        if let Some(lead) = lead {
            assert_eq!(order[0], lead, "case {case}: lead must come first");
            bound.extend(rule.body[lead].var_set());
            rest = &order[1..];
        }
        for (k, &o) in rest.iter().enumerate() {
            let shared = |o: usize| rule.body[o].var_set().intersection(&bound).count();
            for &later in &rest[k + 1..] {
                assert!(
                    (shared(o), std::cmp::Reverse(o)) > (shared(later), std::cmp::Reverse(later)),
                    "case {case}: {rule} given {given:?}: occurrence {o} ({} bound) \
                     taken before {later} ({} bound)",
                    shared(o),
                    shared(later)
                );
            }
            bound.extend(rule.body[o].var_set());
        }
    }
}

fn par(i: usize, j: usize) -> Fact {
    Fact::plain("par", vec![Value::sym(&node(i)), Value::sym(&node(j))])
}

/// The gms rewriting of ancestor for `a(n0, Y)`, as a live view over
/// `chain(n)`.
fn gms_chain_view(n: usize, limits: Limits) -> MaterializedView {
    let plan = Planner::new(Strategy::MagicSets)
        .plan(&programs::ancestor(), &programs::ancestor_query("n0"))
        .expect("gms plans ancestor");
    MaterializedView::with_limits(&plan.program, &chain(n), limits).expect("view materializes")
}

#[test]
fn dred_retraction_stays_within_four_times_the_symmetric_insert() {
    // One edge appended to the chain's end, and the chain's last edge
    // retracted: each moves one row per ancestor of the far node, so their
    // join work must be of one size.  (With the shadow bodies in written
    // order the retraction scanned `magic` once per overdeleted row: ~20x
    // the insert at this size, 340x on chain(1024).)
    let n = 64;
    let mut view = gms_chain_view(n, Limits::default());
    let before = view.stats().join_probes;
    assert!(view.insert(&par(n, n + 1)).unwrap());
    let insert = view.stats().join_probes - before;

    let mut view = gms_chain_view(n, Limits::default());
    let before = view.stats().join_probes;
    assert!(view.retract(&par(n - 1, n)).unwrap());
    let retract = view.stats().join_probes - before;

    assert!(insert > 0);
    assert!(
        retract <= 4 * insert,
        "retract spent {retract} probes, the symmetric insert {insert}"
    );
    view.verify_support().unwrap();
}

/// `rows` as a relation named `pred`, with `extra` appended to every row.
fn fill(db: &mut Database, pred: &str, rows: &[(i64, i64)], extra: &[Value]) {
    for &(a, b) in rows {
        let mut row = vec![Value::int(a), Value::int(b)];
        row.extend_from_slice(extra);
        db.insert(PredName::plain(pred), row);
    }
}

#[test]
fn fully_bound_atoms_probe_the_dedup_table_like_an_index_or_a_scan() {
    // `f(X, Y)` is reached with both positions bound: its key is the row,
    // which the dedup table resolves.  `g` holds the same rows (same ids)
    // with a free third column, so `g(X, Y, W)` is keyed on an ordinary
    // two-position pattern — answered by `scan_select` while no index
    // exists, by the secondary index once one does.  All three must emit
    // the same rows for the same probes, with dead rows in both relations
    // and the delta window cutting anywhere.
    let limits = Limits::default();
    let by_row = RulePlan::compile(
        &power_of_magic::lang::parse_rule("hit(X, Y) :- e(X, Y), f(X, Y).").unwrap(),
        0,
        &BTreeSet::new(),
    );
    let by_key = RulePlan::compile(
        &power_of_magic::lang::parse_rule("hit(X, Y) :- e(X, Y), g(X, Y, W).").unwrap(),
        0,
        &BTreeSet::new(),
    );
    assert_eq!(by_row.atoms[1].key_positions, vec![0, 1]);
    assert_eq!(by_key.atoms[1].key_positions, vec![0, 1]);

    let mut rng = SplitMix64::seed_from_u64(0xDED0_0015);
    for case in 0..60 {
        let domain = rng.random_range(2..7) as i64;
        let pair = |rng: &mut SplitMix64| {
            (
                rng.random_range_i64(0..domain),
                rng.random_range_i64(0..domain),
            )
        };
        let e_rows: Vec<_> = (0..rng.random_range(1..40))
            .map(|_| pair(&mut rng))
            .collect();
        let f_rows: Vec<_> = (0..rng.random_range(1..40))
            .map(|_| pair(&mut rng))
            .collect();
        let mut db = Database::new();
        fill(&mut db, "e", &e_rows, &[]);
        fill(&mut db, "f", &f_rows, &[]);
        fill(&mut db, "g", &f_rows, &[Value::sym("w")]);
        // Tombstones: in the scanned relation and in the probed ones (the
        // same rows of `f` and `g`, so their ids stay aligned).
        for &(a, b) in e_rows.iter().chain(&f_rows) {
            if rng.random_ratio(1, 4) {
                let row = [Value::int(a), Value::int(b)];
                db.remove(&PredName::plain("e"), &row);
                db.remove(&PredName::plain("f"), &row);
                db.remove(
                    &PredName::plain("g"),
                    &[row[0].clone(), row[1].clone(), Value::sym("w")],
                );
            }
        }
        let mut indexed = db.clone();
        indexed
            .relation_mut(&PredName::plain("g"), 3)
            .ensure_index(&[0, 1]);
        let f = db.relation(&PredName::plain("f")).unwrap();
        assert!(f.lookup(&[0, 1], &[]).is_none(), "no whole-row index");
        let watermark = f.watermark();

        // No window, then windows on the bound occurrence that include
        // everything, nothing, a prefix, a suffix, and single rows.
        let mut windows: Vec<Option<(usize, usize)>> =
            vec![None, Some((0, watermark)), Some((watermark, watermark))];
        for _ in 0..6 {
            let from = rng.random_range(0..watermark + 1);
            let to = from + rng.random_range(0..watermark + 2 - from);
            windows.push(Some((from, to)));
            windows.push(Some((from, from + 1)));
        }
        for window in windows {
            let windows: Vec<DeltaWindow> = window
                .map(|(from, to)| DeltaWindow {
                    occurrence: 1,
                    from,
                    to,
                })
                .into_iter()
                .collect();
            let run = |plan: &RulePlan, db: &Database| {
                let mut out = Vec::new();
                let counters = evaluate_rule_windows(plan, db, &windows, &limits, &mut out)
                    .expect("the join evaluates");
                (out, counters.probes, counters.matches)
            };
            let dedup = run(&by_row, &db);
            let scanned = run(&by_key, &db);
            let index = run(&by_key, &indexed);
            assert_eq!(
                dedup, scanned,
                "case {case} window {window:?}: dedup != scan"
            );
            assert_eq!(
                dedup, index,
                "case {case} window {window:?}: dedup != index"
            );
        }
    }
}

/// Every relation's watermark: it only ever falls when the relation is
/// compacted.
fn watermarks(view: &MaterializedView) -> Vec<usize> {
    view.database()
        .iter()
        .map(|(_, rel)| rel.watermark())
        .collect()
}

fn assert_matches_scratch(view: &MaterializedView, edb: &Database, label: &str) {
    let oracle = Evaluator::new(view.program().clone())
        .run(edb)
        .expect("oracle evaluates");
    let facts = |db: &Database| -> BTreeSet<String> { db.facts().map(|f| f.to_string()).collect() };
    assert_eq!(
        facts(view.database()),
        facts(&oracle.database),
        "{label}: maintained view != from-scratch oracle"
    );
    view.verify_support()
        .unwrap_or_else(|e| panic!("{label}: {e}"));
}

#[test]
fn support_counts_follow_their_rows_through_repeated_compactions() {
    // Mid-chain cuts overdelete more than half of the view's `a` rows at
    // once, so every cut compacts the relation and renumbers the
    // survivors; leaves come and go in between, and each cut is healed
    // again.  The support column is indexed by row id: after every
    // compaction it must still hold, for every row, the count a fresh
    // head-bound recount gives — and the view must equal the oracle.
    let n = 40;
    let leaf = |i: usize, j: usize| {
        Fact::plain(
            "par",
            vec![Value::sym(&node(i)), Value::sym(&format!("leaf{j}"))],
        )
    };
    let mut view = gms_chain_view(n, Limits::default());
    let mut edb = chain(n);
    let mut rng = SplitMix64::seed_from_u64(0xC0_4FAC);
    let mut compactions = 0;
    let mut apply = |view: &mut MaterializedView, edb: &mut Database, insert: bool, fact: Fact| {
        let before = watermarks(view);
        let changed = if insert {
            edb.insert_fact(&fact);
            view.insert(&fact)
        } else {
            edb.remove_fact(&fact);
            view.retract(&fact)
        };
        assert!(changed.expect("maintenance succeeds"), "{fact} was a no-op");
        let after = watermarks(view);
        if before.len() == after.len() && before.iter().zip(&after).any(|(b, a)| a < b) {
            compactions += 1;
            assert_matches_scratch(view, edb, &format!("compaction {compactions} ({fact})"));
        }
    };
    for cycle in 0..5 {
        let cut = n / 2 - 2 + cycle;
        let leaves: Vec<(usize, usize)> = (0..6)
            .map(|j| (rng.random_range(0..n), 10 * cycle + j))
            .collect();
        for &(i, j) in &leaves {
            apply(&mut view, &mut edb, true, leaf(i, j));
        }
        apply(&mut view, &mut edb, false, par(cut, cut + 1));
        for &(i, j) in &leaves[..3] {
            apply(&mut view, &mut edb, false, leaf(i, j));
        }
        apply(&mut view, &mut edb, true, par(cut, cut + 1));
        assert_matches_scratch(&view, &edb, &format!("cycle {cycle}"));
    }
    assert!(
        compactions >= 4,
        "the script must force several compactions, saw {compactions}"
    );
}
