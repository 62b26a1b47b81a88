//! The high-level planner: choose a strategy, rewrite, evaluate bottom-up,
//! read off the answers.
//!
//! This is the "query evaluation algorithm = sideways information passing +
//! control" decomposition of the paper made concrete: the sip strategy and
//! the rewriting method are chosen here, and the control component is always
//! the bottom-up engine of `magic-engine`.

use crate::adorn::{adorn, AdornedProgram};
use crate::optimality::{account, FactAccounting};
use crate::rewrite::{self, Guard, RewriteError, RewrittenProgram};
use crate::safety::{analyze, SafetyReport};
use crate::sip_builder::SipStrategy;
use magic_datalog::{DependencyGraph, PredName, Program, Query, Schedule, Value};
use magic_engine::{
    answers::project_answers, EvalError, EvalStats, Evaluator, IterationScheme, Limits,
};
use magic_storage::Database;
use std::collections::BTreeSet;
use std::fmt;

/// The evaluation strategies offered by the planner: the two unrewritten
/// bottom-up baselines and the paper's rewrites (Section 11's GMS, GSMS, GC,
/// GSC, with and without the semijoin optimization).
#[derive(Clone, Copy, PartialEq, Eq, Debug, PartialOrd, Ord)]
pub enum Strategy {
    /// Evaluate the original program with naive iteration, then select.
    NaiveBottomUp,
    /// Evaluate the original program with semi-naive iteration, then select.
    SemiNaiveBottomUp,
    /// Generalized magic sets (GMS).
    MagicSets,
    /// Generalized supplementary magic sets (GSMS).
    SupplementaryMagicSets,
    /// Generalized counting (GC).
    Counting,
    /// Generalized supplementary counting (GSC).
    SupplementaryCounting,
    /// GC followed by the semijoin optimization.
    CountingSemijoin,
    /// GSC followed by the semijoin optimization.
    SupplementaryCountingSemijoin,
}

impl Strategy {
    /// All strategies, in presentation order.
    pub const ALL: [Strategy; 8] = [
        Strategy::NaiveBottomUp,
        Strategy::SemiNaiveBottomUp,
        Strategy::MagicSets,
        Strategy::SupplementaryMagicSets,
        Strategy::Counting,
        Strategy::SupplementaryCounting,
        Strategy::CountingSemijoin,
        Strategy::SupplementaryCountingSemijoin,
    ];

    /// The rewriting strategies (everything except the two baselines).
    pub const REWRITES: [Strategy; 6] = [
        Strategy::MagicSets,
        Strategy::SupplementaryMagicSets,
        Strategy::Counting,
        Strategy::SupplementaryCounting,
        Strategy::CountingSemijoin,
        Strategy::SupplementaryCountingSemijoin,
    ];

    /// A short name suitable for tables.
    pub fn short_name(&self) -> &'static str {
        match self {
            Strategy::NaiveBottomUp => "naive",
            Strategy::SemiNaiveBottomUp => "seminaive",
            Strategy::MagicSets => "gms",
            Strategy::SupplementaryMagicSets => "gsms",
            Strategy::Counting => "gc",
            Strategy::SupplementaryCounting => "gsc",
            Strategy::CountingSemijoin => "gc+sj",
            Strategy::SupplementaryCountingSemijoin => "gsc+sj",
        }
    }

    /// True for the counting-based strategies (which have the restricted
    /// applicability and divergence behaviour of Sections 6–8 and 10).
    pub fn is_counting(&self) -> bool {
        matches!(self.rewrite_switches(), Some((Guard::Counting, _, _)))
    }

    /// The rewrite a strategy runs: the kernel's guard and supplementary
    /// switch, and whether the semijoin post-pass follows.  `None` for the
    /// bottom-up baselines, which do not rewrite.
    fn rewrite_switches(&self) -> Option<(Guard, bool, bool)> {
        match self {
            Strategy::NaiveBottomUp | Strategy::SemiNaiveBottomUp => None,
            Strategy::MagicSets => Some((Guard::Magic, false, false)),
            Strategy::SupplementaryMagicSets => Some((Guard::Magic, true, false)),
            Strategy::Counting => Some((Guard::Counting, false, false)),
            Strategy::SupplementaryCounting => Some((Guard::Counting, true, false)),
            Strategy::CountingSemijoin => Some((Guard::Counting, false, true)),
            Strategy::SupplementaryCountingSemijoin => Some((Guard::Counting, true, true)),
        }
    }
}

impl fmt::Display for Strategy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.short_name())
    }
}

/// Errors raised while planning or executing.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum PlanError {
    /// The rewrite could not be constructed.
    Rewrite(RewriteError),
    /// Evaluation failed (resource limits, range restriction, ...).
    Eval(EvalError),
    /// A counting plan was refused by the cycle-detecting safety
    /// pre-check (Section 10, Theorem 10.3): the rewritten program
    /// recurses through counting-indexed predicates and the query's
    /// argument graph is cyclic, so the counting indexes would grow
    /// without bound — bottom-up evaluation cannot terminate, whatever
    /// the data.  Refusing up front replaces the old behaviour of
    /// spinning until an evaluation limit stopped it.
    CountingUnsafe {
        /// A counting-indexed predicate of the offending recursive cone.
        pred: String,
    },
    /// The program (or, for the magic rewrite, its rewritten form) is not
    /// stratifiable: some negated/aggregated dependency stays inside a
    /// strongly connected component, so no evaluation order can finish the
    /// complemented relation before it is needed.  Refused up front with
    /// the offending cycle, mirroring [`PlanError::CountingUnsafe`].
    Unstratifiable {
        /// The negated/aggregated predicate closing the cycle.
        pred: String,
        /// The members of the offending SCC, pretty-printed in order.
        cycle: Vec<String>,
    },
    /// The chosen strategy cannot evaluate this program's negation or
    /// aggregates (v1 policy: aggregates only under the bottom-up
    /// baselines; negation under the baselines and GMS).
    GuardedUnsupported {
        /// The refusing strategy's short name.
        strategy: String,
        /// Why the strategy refuses.
        reason: String,
    },
}

impl fmt::Display for PlanError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PlanError::Rewrite(e) => write!(f, "rewrite error: {e}"),
            PlanError::Eval(e) => write!(f, "evaluation error: {e}"),
            PlanError::CountingUnsafe { pred } => write!(
                f,
                "counting plan refused: recursion through counting-indexed \
                 predicate {pred} with a cyclic argument graph cannot \
                 terminate (Theorem 10.3)"
            ),
            PlanError::Unstratifiable { pred, cycle } => write!(
                f,
                "plan refused: the program is not stratifiable — {pred} is \
                 negated/aggregated inside the cycle [{}]",
                cycle.join(" -> ")
            ),
            PlanError::GuardedUnsupported { strategy, reason } => write!(
                f,
                "strategy {strategy} does not support this program's \
                 negation/aggregates: {reason}"
            ),
        }
    }
}

impl std::error::Error for PlanError {}

impl From<RewriteError> for PlanError {
    fn from(e: RewriteError) -> Self {
        PlanError::Rewrite(e)
    }
}

impl From<EvalError> for PlanError {
    fn from(e: EvalError) -> Self {
        PlanError::Eval(e)
    }
}

/// A prepared plan: the program to evaluate bottom-up and how to read the
/// answers back out.
#[derive(Clone, Debug)]
pub struct Plan {
    /// The strategy that produced the plan.
    pub strategy: Strategy,
    /// The program handed to the engine (rewritten, or the original for the
    /// baselines).
    pub program: Program,
    /// The rewritten program (absent for the baselines).
    pub rewritten: Option<RewrittenProgram>,
    /// The adorned program (absent for the baselines).
    pub adorned: Option<AdornedProgram>,
    /// The atom whose matches contain the answers.
    pub answer_atom: magic_datalog::Atom,
    /// The original query's free variables (the projection of the matches).
    pub projection: Vec<magic_datalog::Variable>,
    /// The base predicates of the original program (used for accounting).
    pub base_preds: BTreeSet<PredName>,
    /// Evaluation limits.
    pub limits: Limits,
    /// Iteration scheme handed to the engine.
    pub scheme: IterationScheme,
}

/// The result of executing a plan.
#[derive(Clone, Debug)]
pub struct PlanResult {
    /// The distinct answer rows (values of the query's free variables).
    pub answers: BTreeSet<Vec<Value>>,
    /// The full database at the fixpoint (base + derived facts).
    pub database: Database,
    /// Engine metrics.
    pub stats: EvalStats,
    /// Classification of the derived facts (Section 9 accounting).
    pub accounting: FactAccounting,
}

impl Plan {
    /// Evaluate the plan against an extensional database.
    pub fn execute(&self, edb: &Database) -> Result<PlanResult, PlanError> {
        let evaluator = Evaluator::new(self.program.clone())
            .with_limits(self.limits)
            .with_scheme(self.scheme);
        // Index the answer atom's bound-constant positions *before*
        // evaluation: building it on the (empty or small) pre-derivation
        // relation is free, and every insert then maintains it
        // incrementally — the answer projection probes a warm index with
        // no post-run rebuild scan over the derived rows.
        //
        // Guard: `ensure_atom_index` creates the relation if absent, and a
        // relation created at the *query's* arity would make evaluation of
        // a program that derives the same predicate at a different arity
        // fail — whereas a mistyped query historically just returned no
        // answers.  Only pre-ensure when the query's arity agrees with
        // whatever the database or the program already says.
        let mut db = edb.clone();
        let stored_arity = db.relation(&self.answer_atom.pred).map(|r| r.arity());
        let declared_arity = self
            .program
            .predicate_arities()
            .ok()
            .and_then(|arities| arities.get(&self.answer_atom.pred).copied());
        let arity_consistent = stored_arity
            .or(declared_arity)
            .is_none_or(|arity| arity == self.answer_atom.arity());
        if arity_consistent {
            magic_engine::answers::ensure_atom_index(&mut db, &self.answer_atom);
        }
        let result = evaluator.run_db(db)?;
        let answers = project_answers(&result.database, &self.answer_atom, &self.projection);
        let accounting = account(&result.database, &self.base_preds);
        Ok(PlanResult {
            answers,
            database: result.database,
            stats: result.stats,
            accounting,
        })
    }

    /// The safety report for the adorned program, when available.
    pub fn safety(&self) -> Option<SafetyReport> {
        self.adorned.as_ref().map(analyze)
    }
}

/// The planner: strategy, sip strategy, evaluation limits.
#[derive(Clone, Copy, Debug)]
pub struct Planner {
    strategy: Strategy,
    sip: SipStrategy,
    limits: Limits,
}

impl Planner {
    /// A planner for the given strategy with the full left-to-right sip and
    /// default limits.
    pub fn new(strategy: Strategy) -> Planner {
        Planner {
            strategy,
            sip: SipStrategy::FullLeftToRight,
            limits: Limits::default(),
        }
    }

    /// Use a different sip strategy.
    pub fn with_sip(mut self, sip: SipStrategy) -> Planner {
        self.sip = sip;
        self
    }

    /// Use different evaluation limits.
    pub fn with_limits(mut self, limits: Limits) -> Planner {
        self.limits = limits;
        self
    }

    /// The strategy this planner uses.
    pub fn strategy(&self) -> Strategy {
        self.strategy
    }

    /// Perform only the rewrite (adornment + rule rewriting), without
    /// evaluating.  Errors for the two baseline strategies, which do not
    /// rewrite.
    pub fn rewrite(&self, program: &Program, query: &Query) -> Result<RewrittenProgram, PlanError> {
        let Some(switches) = self.strategy.rewrite_switches() else {
            return Err(PlanError::Rewrite(RewriteError::CountingNotApplicable {
                reason: "the bottom-up baselines do not rewrite the program".into(),
            }));
        };
        check_stratified(program)?;
        self.check_guarded_supported(program)?;
        let adorned = adorn(program, query, self.sip).map_err(RewriteError::Datalog)?;
        rewrite_adorned(program, &adorned, switches)
    }

    /// The v1 negation/aggregate policy: aggregates are stratum-boundary
    /// reductions and never sideways-information sources, so no rewrite
    /// supports them; negated subgoals are supported by GMS only (the
    /// modified rules carry them, with their cones appended unrewritten —
    /// see [`append_negated_cones`]).  The bottom-up baselines evaluate
    /// everything the engine stratifies.
    fn check_guarded_supported(&self, program: &Program) -> Result<(), PlanError> {
        if program.rules.iter().any(|r| r.aggregate.is_some()) {
            return Err(PlanError::GuardedUnsupported {
                strategy: self.strategy.to_string(),
                reason: "aggregate heads are stratum-boundary reductions, not \
                         sideways-information sources; evaluate them with a \
                         bottom-up baseline"
                    .into(),
            });
        }
        if program.rules.iter().any(|r| !r.negated.is_empty())
            && self.strategy != Strategy::MagicSets
        {
            return Err(PlanError::GuardedUnsupported {
                strategy: self.strategy.to_string(),
                reason: "negated subgoals are only supported under gms, where \
                         the modified rules keep them and their cones are \
                         appended unrewritten"
                    .into(),
            });
        }
        Ok(())
    }

    /// Build a plan for `(program, query)`.
    pub fn plan(&self, program: &Program, query: &Query) -> Result<Plan, PlanError> {
        let base_preds = program.base_preds();
        let scheme = if self.strategy == Strategy::NaiveBottomUp {
            IterationScheme::Naive
        } else {
            IterationScheme::SemiNaive
        };
        match self.strategy.rewrite_switches() {
            None => {
                check_stratified(program)?;
                Ok(Plan {
                    strategy: self.strategy,
                    program: program.clone(),
                    rewritten: None,
                    adorned: None,
                    answer_atom: query.atom.clone(),
                    projection: query.free_vars(),
                    base_preds,
                    limits: self.limits,
                    scheme,
                })
            }
            Some(switches) => {
                check_stratified(program)?;
                self.check_guarded_supported(program)?;
                let adorned = adorn(program, query, self.sip).map_err(RewriteError::Datalog)?;
                let rewritten = rewrite_adorned(program, &adorned, switches)?;
                if self.strategy.is_counting() {
                    check_counting_safe(&adorned, &rewritten.program)?;
                }
                Ok(Plan {
                    strategy: self.strategy,
                    program: rewritten.program.clone(),
                    answer_atom: rewritten.answer_atom.clone(),
                    projection: rewritten.projection.clone(),
                    rewritten: Some(rewritten),
                    adorned: Some(adorned),
                    base_preds,
                    limits: self.limits,
                    scheme,
                })
            }
        }
    }

    /// Convenience: plan and execute in one call.
    pub fn evaluate(
        &self,
        program: &Program,
        query: &Query,
        edb: &Database,
    ) -> Result<PlanResult, PlanError> {
        self.plan(program, query)?.execute(edb)
    }
}

/// Rewrite an already adorned program with the kernel, the semijoin
/// post-pass when asked, and the v1 negation policy's appended cones.
fn rewrite_adorned(
    program: &Program,
    adorned: &AdornedProgram,
    (guard, supplementary, semijoin): (Guard, bool, bool),
) -> Result<RewrittenProgram, PlanError> {
    let mut rewritten = rewrite::rewrite(adorned, guard, supplementary)?;
    if semijoin {
        rewritten = rewrite::semijoin::optimize(&rewritten)?;
    }
    if program.rules.iter().any(|r| !r.negated.is_empty()) {
        append_negated_cones(program, &mut rewritten.program);
        check_stratified(&rewritten.program)?;
    }
    Ok(rewritten)
}

/// Refuse unstratifiable programs with the typed violation (the first, in
/// deterministic order) before any rewrite or evaluation work.
fn check_stratified(program: &Program) -> Result<(), PlanError> {
    let schedule = Schedule::build(program);
    if let Some(v) = schedule.stratification_violations().first() {
        return Err(PlanError::Unstratifiable {
            pred: v.pred.to_string(),
            cycle: v.cycle.iter().map(|p| p.to_string()).collect(),
        });
    }
    Ok(())
}

/// The v1 negation policy for the magic rewrite: a negated subgoal reads
/// the *complete* relation of its predicate, so magic restriction — which
/// prunes derivation to query-relevant bindings — must not apply to it.
/// Negated atoms keep their plain names through adornment; this appends
/// the original (unrewritten) rules of every negated derived predicate's
/// reachable cone, so the rewritten program defines those plain names in
/// full while the positive fragment stays magic-restricted.
fn append_negated_cones(original: &Program, rewritten: &mut Program) {
    let graph = DependencyGraph::build(original);
    let mut cone: BTreeSet<PredName> = BTreeSet::new();
    for rule in &original.rules {
        for atom in &rule.negated {
            cone.extend(graph.reachable_from(&atom.pred));
        }
    }
    for rule in &original.rules {
        if cone.contains(&rule.head.pred) {
            rewritten.rules.push(rule.clone());
        }
    }
}

/// The cycle-detecting counting pre-check (paper Section 10).
///
/// Two facts are combined: the [`Schedule`]'s SCC pass over the rewritten
/// program finds the cones that are *recursive through counting-indexed
/// predicates* (indexed / counting / supplementary-counting strata), and
/// the static argument-graph analysis ([`counting_safety`], Theorem 10.3)
/// proves whether their counting indexes can grow without bound.  Only
/// when both hold is the plan refused — a recursive counting cone with an
/// acyclic argument graph (e.g. the linear ancestor chain) terminates and
/// must stay plannable.  Data-level divergence (cyclic EDB under a
/// statically fine program) remains a run-time concern bounded by the
/// iteration and fact counts of [`Limits`].
fn check_counting_safe(adorned: &AdornedProgram, rewritten: &Program) -> Result<(), PlanError> {
    if crate::safety::counting_safety(adorned) != crate::safety::CountingSafety::NonTerminating {
        return Ok(());
    }
    let schedule = Schedule::build(rewritten);
    let witness = schedule
        .recursive_counting_strata()
        .flat_map(|s| s.preds.iter())
        .next();
    if let Some(pred) = witness {
        return Err(PlanError::CountingUnsafe {
            pred: pred.to_string(),
        });
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use magic_datalog::{parse_program, parse_query};

    fn ancestor_program() -> Program {
        parse_program(
            "anc(X, Y) :- par(X, Y).
             anc(X, Y) :- par(X, Z), anc(Z, Y).",
        )
        .unwrap()
    }

    fn chain_db(n: usize) -> Database {
        let mut db = Database::new();
        for i in 0..n {
            db.insert_pair("par", &format!("n{i}"), &format!("n{}", i + 1));
        }
        db
    }

    #[test]
    fn all_strategies_agree_on_ancestor_chain() {
        let program = ancestor_program();
        let query = parse_query("anc(n0, Y)").unwrap();
        let db = chain_db(12);
        let reference = Planner::new(Strategy::SemiNaiveBottomUp)
            .evaluate(&program, &query, &db)
            .unwrap();
        assert_eq!(reference.answers.len(), 12);
        for strategy in Strategy::ALL {
            let result = Planner::new(strategy)
                .evaluate(&program, &query, &db)
                .unwrap();
            assert_eq!(
                result.answers, reference.answers,
                "strategy {strategy} disagrees"
            );
        }
    }

    #[test]
    fn magic_restricts_computation_to_relevant_facts() {
        // Section 1's motivating observation: bottom-up computes the whole
        // anc relation, magic only the part reachable from the query
        // constant.
        let program = ancestor_program();
        let query = parse_query("anc(n10, Y)").unwrap();
        let db = chain_db(20);
        let baseline = Planner::new(Strategy::SemiNaiveBottomUp)
            .evaluate(&program, &query, &db)
            .unwrap();
        let magic = Planner::new(Strategy::MagicSets)
            .evaluate(&program, &query, &db)
            .unwrap();
        assert_eq!(baseline.answers, magic.answers);
        assert!(magic.accounting.answer_facts < baseline.accounting.answer_facts);
        assert!(magic.stats.facts_derived < baseline.stats.facts_derived);
        // The magic facts are exactly the nodes reachable from n10 (n10..n20).
        assert_eq!(magic.accounting.subquery_facts, 11);
    }

    #[test]
    fn planner_reports_safety() {
        let program = ancestor_program();
        let query = parse_query("anc(n0, Y)").unwrap();
        let plan = Planner::new(Strategy::MagicSets)
            .plan(&program, &query)
            .unwrap();
        let report = plan.safety().unwrap();
        assert_eq!(report.magic, crate::safety::MagicSafety::SafeDatalog);
        // Baseline plans carry no adorned program.
        let baseline = Planner::new(Strategy::NaiveBottomUp)
            .plan(&program, &query)
            .unwrap();
        assert!(baseline.safety().is_none());
    }

    #[test]
    fn arity_mismatched_query_returns_no_answers_not_an_error() {
        // anc is derived at arity 2; querying it at arity 1 is a user
        // mistake that has always meant "no answers".  The pre-evaluation
        // answer-index ensure must not turn it into an ArityMismatch by
        // creating the relation at the query's arity.
        let program = ancestor_program();
        let query = magic_datalog::parse_query("anc(n0)").unwrap();
        let db = chain_db(4);
        let result = Planner::new(Strategy::SemiNaiveBottomUp)
            .evaluate(&program, &query, &db)
            .unwrap();
        assert!(result.answers.is_empty());
    }

    #[test]
    fn counting_on_a_cyclic_argument_graph_is_refused_up_front() {
        // Theorem 10.3: nonlinear ancestor makes every counting strategy
        // diverge regardless of data; the planner must refuse with the
        // typed error instead of relying on run-time limits.
        let nonlinear = parse_program(
            "anc(X, Y) :- par(X, Y).
             anc(X, Y) :- anc(X, Z), anc(Z, Y).",
        )
        .unwrap();
        let query = parse_query("anc(n0, Y)").unwrap();
        for strategy in [
            Strategy::Counting,
            Strategy::SupplementaryCounting,
            Strategy::CountingSemijoin,
            Strategy::SupplementaryCountingSemijoin,
        ] {
            let err = Planner::new(strategy).plan(&nonlinear, &query).unwrap_err();
            assert!(
                matches!(err, PlanError::CountingUnsafe { .. }),
                "{strategy}: expected CountingUnsafe, got {err}"
            );
        }
        // The magic strategies stay plannable on the same program, and the
        // linear variant stays plannable under counting.
        assert!(Planner::new(Strategy::MagicSets)
            .plan(&nonlinear, &query)
            .is_ok());
        assert!(Planner::new(Strategy::Counting)
            .plan(&ancestor_program(), &query)
            .is_ok());
    }

    #[test]
    fn rewrite_only_errors_for_baselines() {
        let program = ancestor_program();
        let query = parse_query("anc(n0, Y)").unwrap();
        assert!(Planner::new(Strategy::NaiveBottomUp)
            .rewrite(&program, &query)
            .is_err());
        assert!(Planner::new(Strategy::MagicSets)
            .rewrite(&program, &query)
            .is_ok());
    }

    #[test]
    fn strategy_helpers() {
        assert_eq!(Strategy::ALL.len(), 8);
        assert!(Strategy::Counting.is_counting());
        assert!(!Strategy::MagicSets.is_counting());
        assert_eq!(Strategy::CountingSemijoin.to_string(), "gc+sj");
    }

    #[test]
    fn unstratifiable_programs_are_refused_at_plan_time() {
        // win(X) :- move(X, Y), not win(Y) — negation inside win's own
        // recursive component.  Every strategy must refuse before any
        // rewrite or evaluation work, with the offending predicate named.
        let program = parse_program("win(X) :- move(X, Y), not win(Y).").unwrap();
        let query = parse_query("win(a)").unwrap();
        for strategy in Strategy::ALL {
            let err = Planner::new(strategy).plan(&program, &query).unwrap_err();
            match err {
                PlanError::Unstratifiable {
                    ref pred,
                    ref cycle,
                } => {
                    assert_eq!(pred, "win", "{strategy}");
                    assert!(cycle.contains(&"win".to_string()), "{strategy}: {cycle:?}");
                }
                other => panic!("{strategy}: expected Unstratifiable, got {other}"),
            }
        }
    }

    #[test]
    fn gms_with_negation_appends_the_unrewritten_cone() {
        // unreached reads the complement of reach, so the rewritten
        // program must still define plain (unrestricted) reach alongside
        // the magic-restricted fragment.
        let program = parse_program(
            "reach(X) :- source(X).
             reach(Y) :- reach(X), edge(X, Y).
             unreached(X) :- node(X), not reach(X).",
        )
        .unwrap();
        let query = parse_query("unreached(Y)").unwrap();
        let mut db = Database::new();
        db.insert(PredName::plain("source"), vec![Value::sym("a")]);
        db.insert_pair("edge", "a", "b");
        db.insert_pair("edge", "b", "c");
        db.insert_pair("edge", "d", "e");
        for n in ["a", "b", "c", "d", "e"] {
            db.insert(PredName::plain("node"), vec![Value::sym(n)]);
        }
        let reference = Planner::new(Strategy::SemiNaiveBottomUp)
            .evaluate(&program, &query, &db)
            .unwrap();
        assert_eq!(reference.answers.len(), 2); // d, e
        let magic = Planner::new(Strategy::MagicSets)
            .evaluate(&program, &query, &db)
            .unwrap();
        assert_eq!(magic.answers, reference.answers);
        // The rewritten program carries the original reach rules under
        // their plain name (the appended cone).
        let rewritten = Planner::new(Strategy::MagicSets)
            .rewrite(&program, &query)
            .unwrap();
        let plain_reach = rewritten
            .program
            .rules
            .iter()
            .filter(|r| r.head.pred == PredName::plain("reach"))
            .count();
        assert_eq!(plain_reach, 2, "cone must define plain reach in full");
    }

    #[test]
    fn aggregates_and_non_gms_negation_are_typed_refusals() {
        // v1 policy: aggregates are refused under every rewrite strategy;
        // negation is only supported under the magic-sets rewrites.
        let aggregated = parse_program(
            "cost(P, C) :- part_cost(P, C).
             total(P, sum<C>) :- cost(P, C).",
        )
        .unwrap();
        let agg_query = parse_query("total(p, C)").unwrap();
        let negated = parse_program(
            "reach(X) :- source(X).
             reach(Y) :- reach(X), edge(X, Y).
             unreached(X) :- node(X), not reach(X).",
        )
        .unwrap();
        let neg_query = parse_query("unreached(Y)").unwrap();
        for strategy in Strategy::ALL {
            if matches!(
                strategy,
                Strategy::NaiveBottomUp | Strategy::SemiNaiveBottomUp
            ) {
                continue;
            }
            let err = Planner::new(strategy)
                .plan(&aggregated, &agg_query)
                .unwrap_err();
            assert!(
                matches!(err, PlanError::GuardedUnsupported { .. }),
                "{strategy}: expected GuardedUnsupported for aggregates, got {err}"
            );
            let neg = Planner::new(strategy).plan(&negated, &neg_query);
            if matches!(strategy, Strategy::MagicSets) {
                assert!(neg.is_ok(), "{strategy}: gms must plan negation");
            } else {
                let err = neg.unwrap_err();
                assert!(
                    matches!(err, PlanError::GuardedUnsupported { .. }),
                    "{strategy}: expected GuardedUnsupported for negation, got {err}"
                );
            }
        }
        // The baselines evaluate both programs fine.
        assert!(Planner::new(Strategy::SemiNaiveBottomUp)
            .plan(&aggregated, &agg_query)
            .is_ok());
        assert!(Planner::new(Strategy::NaiveBottomUp)
            .plan(&negated, &neg_query)
            .is_ok());
    }

    #[test]
    fn partial_sip_still_produces_correct_answers() {
        let program = parse_program(
            "sg(X, Y) :- flat(X, Y).
             sg(X, Y) :- up(X, Z1), sg(Z1, Z2), flat(Z2, Z3), sg(Z3, Z4), down(Z4, Y).",
        )
        .unwrap();
        let query = parse_query("sg(a, Y)").unwrap();
        let mut db = Database::new();
        db.insert_pair("up", "a", "m");
        db.insert_pair("up", "b", "n");
        db.insert_pair("flat", "m", "n");
        db.insert_pair("flat", "n", "m");
        db.insert_pair("flat", "a", "b");
        db.insert_pair("down", "m", "c");
        db.insert_pair("down", "n", "d");
        let reference = Planner::new(Strategy::SemiNaiveBottomUp)
            .evaluate(&program, &query, &db)
            .unwrap();
        for sip in [
            SipStrategy::FullLeftToRight,
            SipStrategy::LeftToRightLastOnly,
        ] {
            for strategy in [Strategy::MagicSets, Strategy::SupplementaryMagicSets] {
                let result = Planner::new(strategy)
                    .with_sip(sip)
                    .evaluate(&program, &query, &db)
                    .unwrap();
                assert_eq!(result.answers, reference.answers, "{strategy} with {sip:?}");
            }
        }
    }
}
