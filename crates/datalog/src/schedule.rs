//! Stratified rule schedules: the predicate dependency graph condensed
//! into a topologically ordered sequence of *strata*.
//!
//! A [`Schedule`] is the static shape the engine's fixpoint scheduler and
//! the planner's safety pre-checks share.  [`Schedule::build`] constructs
//! the rule/predicate dependency graph of a (possibly rewritten) program,
//! computes its strongly connected components
//! ([`DependencyGraph::sccs`]), and emits one [`Stratum`] per SCC that
//! defines at least one rule, in dependency (reverse topological) order:
//! every derived predicate a stratum's rules read is defined in the same
//! stratum or an earlier one, never a later one.
//!
//! # What consumers do with it
//!
//! * The engine's `FixpointRunner` walks strata in order each iteration
//!   and retires a stratum permanently once it and everything below it
//!   have converged (no rule outside a stratum can ever feed it again —
//!   all rules deriving a predicate live in that predicate's stratum).
//! * The planner's counting safety pre-check asks which strata are
//!   *recursive through counting-indexed predicates*
//!   ([`Schedule::recursive_counting_strata`]) — the cones whose
//!   bottom-up evaluation diverges when the paper's Theorem 10.3 argument
//!   graph is cyclic.
//! * The incremental layer seeds resumed deltas into the lowest dirty
//!   stratum: strata below the seeds retire on the first iteration
//!   instead of re-checking the full rule list forever.
//!
//! The schedule is a *pure function of the program*: strata are ordered
//! by the SCC condensation (ties broken by the deterministic Tarjan
//! traversal over `BTreeSet`-ordered predicates), and rules within a
//! stratum stay in program order.

use crate::analysis::DependencyGraph;
use crate::pred::PredName;
use crate::program::Program;
use std::collections::{BTreeMap, BTreeSet};

/// One stratum of a [`Schedule`]: a strongly connected component of the
/// predicate dependency graph together with the rules that define its
/// predicates.
#[derive(Clone, Debug)]
pub struct Stratum {
    /// The derived predicates defined by this stratum (the SCC members
    /// that have rules).
    pub preds: BTreeSet<PredName>,
    /// Indices (into `program.rules`) of the rules whose head predicate
    /// belongs to this stratum, in program order.
    pub rules: Vec<usize>,
    /// True iff the stratum is recursive: its SCC has more than one
    /// predicate, or its single predicate depends on itself.
    pub recursive: bool,
    /// True iff some rule of this stratum is *guarded* — carries a negated
    /// atom or an aggregate head.  A program with a guarded stratum runs
    /// under a stratum frontier: the engine's fixpoint loop builds tasks
    /// only for the lowest unfinished stratum, so every lower stratum is
    /// finished (negation complements against it, aggregates fold complete
    /// groups) before this one starts.
    pub guarded: bool,
}

/// A stratification violation: a negated or aggregated dependency edge
/// that stays *inside* a strongly connected component, so the callee can
/// never be finished before the caller needs to complement against it.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct StratificationViolation {
    /// The rule-head predicate whose guarded edge closes the cycle.
    pub head: PredName,
    /// The negated (or aggregated) predicate it depends on.
    pub pred: PredName,
    /// The members of the offending SCC, in `BTreeSet` order.
    pub cycle: Vec<PredName>,
}

impl std::fmt::Display for StratificationViolation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let cycle = self
            .cycle
            .iter()
            .map(|p| p.to_string())
            .collect::<Vec<_>>()
            .join(" -> ");
        write!(
            f,
            "{} depends on {} through negation/aggregation inside the cycle [{}]",
            self.head, self.pred, cycle
        )
    }
}

/// A stratified evaluation schedule for a program.  See the module docs.
#[derive(Clone, Debug, Default)]
pub struct Schedule {
    strata: Vec<Stratum>,
    /// Rule index -> stratum index.
    stratum_of_rule: Vec<usize>,
    /// Derived predicate -> stratum index.
    stratum_of_pred: BTreeMap<PredName, usize>,
    /// Guarded edges that stay inside one SCC (unstratifiable cycles).
    violations: Vec<StratificationViolation>,
}

impl Schedule {
    /// Build the schedule of `program`: dependency graph, SCC
    /// condensation, one stratum per rule-defining SCC in dependency
    /// order.
    pub fn build(program: &Program) -> Schedule {
        let graph = DependencyGraph::build(program);
        // Every rule needs a stratum, so cover all head predicates — a
        // superset of `derived_preds()`, which excludes ground fact rules.
        let derived: BTreeSet<PredName> =
            program.rules.iter().map(|r| r.head.pred.clone()).collect();
        let mut strata: Vec<Stratum> = Vec::new();
        let mut stratum_of_pred: BTreeMap<PredName, usize> = BTreeMap::new();
        // `sccs()` yields components in reverse topological order (callees
        // before callers): exactly evaluation order.  Base predicates have
        // no outgoing edges, so they always form rule-less singleton SCCs
        // and are filtered out here.
        for scc in graph.sccs() {
            let preds: BTreeSet<PredName> = scc.intersection(&derived).cloned().collect();
            if preds.is_empty() {
                continue;
            }
            let recursive = scc.len() > 1 || {
                let only = scc.iter().next().expect("SCCs are non-empty");
                graph.successors(only).contains(only)
            };
            let index = strata.len();
            for pred in &preds {
                stratum_of_pred.insert(pred.clone(), index);
            }
            strata.push(Stratum {
                preds,
                rules: Vec::new(),
                recursive,
                guarded: false,
            });
        }
        let mut stratum_of_rule = Vec::with_capacity(program.rules.len());
        for rule in &program.rules {
            let s = stratum_of_pred[&rule.head.pred];
            strata[s].rules.push(stratum_of_rule.len());
            stratum_of_rule.push(s);
            if rule.is_guarded() {
                strata[s].guarded = true;
            }
        }
        // A strict (negated/aggregated) edge whose endpoints share an SCC
        // can never be satisfied by evaluating strata in order: record the
        // violation so planners and the engine can refuse with a typed
        // error instead of computing a wrong fixpoint.
        let mut violations = Vec::new();
        for (head, pred) in &graph.strict_edges {
            let (Some(&sh), Some(&sp)) = (stratum_of_pred.get(head), stratum_of_pred.get(pred))
            else {
                continue; // base predicates are always in stratum "minus one"
            };
            if sh == sp {
                violations.push(StratificationViolation {
                    head: head.clone(),
                    pred: pred.clone(),
                    cycle: strata[sh].preds.iter().cloned().collect(),
                });
            }
        }
        Schedule {
            strata,
            stratum_of_rule,
            stratum_of_pred,
            violations,
        }
    }

    /// The stratification violations of the program (empty iff the program
    /// is stratifiable).  Each entry names the guarded edge and the SCC it
    /// closes; consumers surface the first as the typed refusal reason.
    pub fn stratification_violations(&self) -> &[StratificationViolation] {
        &self.violations
    }

    /// True iff every negated/aggregated dependency crosses strictly
    /// downward between strata.
    pub fn is_stratified(&self) -> bool {
        self.violations.is_empty()
    }

    /// True iff some stratum carries negation or aggregation (the engine's
    /// fixpoint loop then runs one stratum at a time, under a frontier).
    pub fn has_guarded_strata(&self) -> bool {
        self.strata.iter().any(|s| s.guarded)
    }

    /// The strata in evaluation (dependency) order.
    pub fn strata(&self) -> &[Stratum] {
        &self.strata
    }

    /// Number of strata.
    pub fn len(&self) -> usize {
        self.strata.len()
    }

    /// True iff the program had no rules.
    pub fn is_empty(&self) -> bool {
        self.strata.is_empty()
    }

    /// The stratum index of rule `rule_idx`.
    pub fn stratum_of_rule(&self, rule_idx: usize) -> usize {
        self.stratum_of_rule[rule_idx]
    }

    /// The stratum index deriving `pred`, if the program derives it.
    pub fn stratum_of_pred(&self, pred: &PredName) -> Option<usize> {
        self.stratum_of_pred.get(pred).copied()
    }

    /// The strata that are recursive *through counting-indexed
    /// predicates* — an SCC containing an indexed, counting, or
    /// supplementary-counting predicate (the rewrite outputs of Sections
    /// 6–7).  When the query's argument graph is cyclic (Theorem 10.3),
    /// these are exactly the cones whose counting indexes grow without
    /// bound, so the planner refuses such plans up front.
    pub fn recursive_counting_strata(&self) -> impl Iterator<Item = &Stratum> + '_ {
        self.strata.iter().filter(|s| {
            s.recursive
                && s.preds.iter().any(|p| {
                    matches!(
                        p,
                        PredName::Indexed { .. }
                            | PredName::Count { .. }
                            | PredName::SupCount { .. }
                    )
                })
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_program;

    #[test]
    fn single_scc_program_is_one_stratum() {
        let program = parse_program(
            "anc(X, Y) :- par(X, Y).
             anc(X, Y) :- par(X, Z), anc(Z, Y).",
        )
        .unwrap();
        let schedule = Schedule::build(&program);
        assert_eq!(schedule.len(), 1);
        let stratum = &schedule.strata()[0];
        assert_eq!(stratum.rules, vec![0, 1]);
        assert!(stratum.recursive);
        assert_eq!(schedule.stratum_of_pred(&PredName::plain("anc")), Some(0));
        assert_eq!(schedule.stratum_of_pred(&PredName::plain("par")), None);
    }

    #[test]
    fn strata_respect_dependency_order() {
        // sg feeds p; sg's stratum must come first.
        let program = parse_program(
            "p(X, Y) :- b1(X, Y).
             p(X, Y) :- sg(X, Z1), p(Z1, Z2), b2(Z2, Y).
             sg(X, Y) :- flat(X, Y).
             sg(X, Y) :- up(X, Z1), sg(Z1, Z2), down(Z2, Y).",
        )
        .unwrap();
        let schedule = Schedule::build(&program);
        assert_eq!(schedule.len(), 2);
        let sg = schedule.stratum_of_pred(&PredName::plain("sg")).unwrap();
        let p = schedule.stratum_of_pred(&PredName::plain("p")).unwrap();
        assert!(sg < p, "callee stratum must precede caller stratum");
        assert_eq!(schedule.stratum_of_rule(2), sg);
        assert_eq!(schedule.stratum_of_rule(0), p);
        // Every derived body predicate's stratum <= the head's stratum.
        for (i, rule) in program.rules.iter().enumerate() {
            for atom in &rule.body {
                if let Some(s) = schedule.stratum_of_pred(&atom.pred) {
                    assert!(s <= schedule.stratum_of_rule(i));
                }
            }
        }
    }

    #[test]
    fn non_recursive_rules_form_independent_groups() {
        // Two heads share ONE stratum only when mutually recursive.
        let program = parse_program(
            "a(X) :- b(X), c(X).
             c(X) :- a(X).
             d(X) :- e(X).",
        )
        .unwrap();
        let schedule = Schedule::build(&program);
        // a and c are mutually recursive: one stratum; d is its own.
        let ac = schedule.stratum_of_pred(&PredName::plain("a")).unwrap();
        assert_eq!(schedule.stratum_of_pred(&PredName::plain("c")), Some(ac));
        let stratum = &schedule.strata()[ac];
        assert!(stratum.recursive);
        assert_eq!(stratum.rules, vec![0, 1]);
        let d = schedule.stratum_of_pred(&PredName::plain("d")).unwrap();
        assert_ne!(d, ac);
        assert!(!schedule.strata()[d].recursive);
    }

    #[test]
    fn mutually_recursive_rules_share_one_stratum() {
        // p and q feed each other: all three rules land in one stratum,
        // in program order.
        let program = parse_program(
            "p(X) :- base(X).
             p(X) :- q(X).
             q(X) :- p(X), b2(X).",
        )
        .unwrap();
        let schedule = Schedule::build(&program);
        assert_eq!(schedule.len(), 1);
        assert_eq!(schedule.strata()[0].rules, vec![0, 1, 2]);
    }

    #[test]
    fn empty_program_has_no_strata() {
        let schedule = Schedule::build(&Program::from_rules(Vec::new()));
        assert!(schedule.is_empty());
        assert_eq!(schedule.len(), 0);
        assert!(schedule.is_stratified());
        assert!(!schedule.has_guarded_strata());
    }

    #[test]
    fn win_lose_program_stratifies_with_guarded_stratum() {
        // The classic win/lose game: win is positive, lose complements it.
        let program = parse_program(
            "win(X) :- move(X, Y), not win(Y).
             lose(X) :- pos(X), not win(X).",
        )
        .unwrap();
        let schedule = Schedule::build(&program);
        // win negates *itself* through move: unstratifiable.
        assert!(!schedule.is_stratified());
        let v = &schedule.stratification_violations()[0];
        assert_eq!(v.head, PredName::plain("win"));
        assert_eq!(v.pred, PredName::plain("win"));
        assert!(v.to_string().contains("win"));

        // The standard stratified variant over a DAG of moves: reached/win
        // positive, lose in a strictly higher stratum.
        let program = parse_program(
            "can_move(X) :- move(X, Y).
             lose(X) :- pos(X), not can_move(X).",
        )
        .unwrap();
        let schedule = Schedule::build(&program);
        assert!(schedule.is_stratified());
        assert!(schedule.has_guarded_strata());
        let cm = schedule
            .stratum_of_pred(&PredName::plain("can_move"))
            .unwrap();
        let lose = schedule.stratum_of_pred(&PredName::plain("lose")).unwrap();
        assert!(cm < lose, "negated callee must sit strictly lower");
        assert!(!schedule.strata()[cm].guarded);
        assert!(schedule.strata()[lose].guarded);
    }

    #[test]
    fn aggregate_rules_make_guarded_strata_and_cycles_are_violations() {
        let program = parse_program(
            "cost(P, sum<C>) :- part(P, S), price(S, C).
             price(S, C) :- base_price(S, C).",
        )
        .unwrap();
        let schedule = Schedule::build(&program);
        assert!(schedule.is_stratified());
        assert!(schedule.has_guarded_strata());
        let price = schedule.stratum_of_pred(&PredName::plain("price")).unwrap();
        let cost = schedule.stratum_of_pred(&PredName::plain("cost")).unwrap();
        assert!(price < cost);

        // Aggregate through its own recursion: refused.
        let program = parse_program("total(P, sum<C>) :- sub(P, Q), total(Q, C).").unwrap();
        let schedule = Schedule::build(&program);
        assert!(!schedule.is_stratified());
        assert_eq!(
            schedule.stratification_violations()[0].pred,
            PredName::plain("total")
        );
    }
}
