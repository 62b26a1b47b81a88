//! The fixpoint evaluator: naive and semi-naive bottom-up evaluation,
//! driven by a stratified schedule.
//!
//! The fixpoint loop itself lives in [`FixpointRunner`], a compiled, reusable
//! form of a program (slot-compiled [`RulePlan`]s plus the bookkeeping of
//! which body occurrences read tracked deltas).  [`Evaluator`] is the
//! classic run-to-fixpoint front end over it; the incremental-maintenance
//! layer (`magic-incr`) keeps a runner alive across calls and *re-enters*
//! the loop with externally seeded deltas via [`FixpointRunner::resume`].
//! One loop serves positive, guarded and resumed evaluation.
//!
//! # The stratified scheduler
//!
//! Compiling a runner also builds the program's
//! [`magic_datalog::Schedule`]: the predicate dependency graph
//! condensed into topologically ordered strata (one per SCC).  Each
//! iteration walks the strata in dependency order and evaluates every
//! live rule under its delta windows.  Two structural wins fall out:
//!
//! * **Stratum retirement.**  Once every stratum below `s` has converged
//!   and `s` itself sees no deltas, nothing can ever feed `s` again (all
//!   rules deriving a predicate live in that predicate's stratum), so `s`
//!   is retired and the loop never revisits its rules — lower strata run
//!   to fixpoint and drop out while upper strata finish, and a resumed
//!   view seeds its deltas into the lowest dirty stratum instead of
//!   re-scanning the full rule list every iteration.
//! * **The stratum frontier (guarded programs).**  A program with negated
//!   atoms or aggregate heads needs every stratum *finished* before a
//!   higher one complements against it or folds it.  The loop then
//!   evaluates the frontier alone — the lowest unfinished stratum.  A
//!   stratum entering the frontier folds its aggregate rules once (their
//!   inputs lie strictly below), then runs its plain rules: full on its
//!   first iteration, delta-windowed after that.  The first iteration
//!   that derives nothing finishes it, and the next stratum enters.  A
//!   stratum with no plain rules counts no iteration.  Positive programs
//!   keep the interleaved schedule, every live stratum per iteration.
//!   Seeded resume of a guarded program is refused
//!   ([`EvalError::GuardedUnsupported`]): a seed below a finished
//!   complement would have to retract it.
//!
//! # Evaluation order
//!
//! An iteration has two phases.  The *read* phase evaluates the rules,
//! stratum by stratum, against the database as the previous iteration
//! left it, appending each plan's head rows to that plan's flat buffer;
//! nothing is written.  The *insert* phase then walks the plans in
//! program order and inserts each plan's rows, in the order they were
//! produced, into its head relation — all dedup, row-id assignment and
//! index maintenance happens here, one [`Relation::insert_batch`] per
//! plan.  The batch gives each row the id and newness a row-by-row loop
//! would, and makes each shared storage unit it writes unique once
//! rather than once per row.  So a
//! relation's row order, its row ids and every counter are a function of
//! the program and the database alone, and a [`FiringObserver`] sees the
//! firings in that same order.

use crate::error::EvalError;
use crate::join::{evaluate_rule_scratch, DeltaWindow, JoinCounters, JoinScratch};
use crate::limits::Limits;
use crate::metrics::EvalStats;
use crate::plan::{sip_order, with_body_order, RulePlan};
use magic_datalog::{AggFunc, PredName, Program, Schedule, ValId};
use magic_storage::{Database, Relation};
use std::collections::{BTreeMap, BTreeSet};

/// Which fixpoint iteration scheme to use.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum IterationScheme {
    /// Naive evaluation: every iteration re-evaluates every rule against the
    /// full relations.  This is the textbook least-fixpoint computation the
    /// paper describes in Section 1.1.
    Naive,
    /// Semi-naive evaluation: after the first iteration, a rule is only
    /// re-evaluated with at least one derived body occurrence restricted to
    /// the facts that were new in the previous iteration.
    #[default]
    SemiNaive,
}

/// Observer of individual rule firings, called once per produced head row
/// during the insertion phase of each iteration as
/// `(plan_idx, row_id, is_new)`: `plan_idx` indexes
/// [`FixpointRunner::plans`], `row_id` is where the row lives in the
/// plan's head relation — the fresh id, or the one the duplicate probe
/// found — and `is_new` tells whether the firing created it.  No caller in
/// the workspace installs one; `run` and `resume` keep the parameter
/// because the benchmark builds against `run`'s signature.
pub type FiringObserver<'a> = &'a mut dyn FnMut(usize, usize, bool);

/// A reborrow of an installed [`FiringObserver`]: the borrow is shorter
/// than the closure's own lifetime, so the loop can lend the observer out
/// once per insert batch.
type ObserverRef<'b, 'o> = &'b mut (dyn FnMut(usize, usize, bool) + 'o);

/// The result of an evaluation: the final database (base facts plus all
/// derived facts) and the collected metrics.
#[derive(Clone, Debug)]
pub struct EvalResult {
    /// Base and derived facts at the fixpoint.
    pub database: Database,
    /// Metrics collected during evaluation.
    pub stats: EvalStats,
}

/// A compiled, re-enterable fixpoint machine for a fixed program.
///
/// Compiling a runner resolves each rule to its slot-compiled [`RulePlan`]
/// and records, per rule, the body occurrences of the *tracked* predicates —
/// the ones whose deltas drive semi-naive re-evaluation.  The classic
/// [`Evaluator`] tracks exactly the derived predicates; the incremental
/// layer tracks every body predicate so that a freshly inserted *base* fact
/// can seed the loop too.
///
/// The plans, the tracked numbering, and the prepared indexes are all
/// reusable across calls: build once, [`FixpointRunner::run`] to
/// materialize, then [`FixpointRunner::resume`] any number of times with
/// externally seeded deltas.
///
/// `run` and `resume` share one semi-naive discipline: a rule is
/// evaluated once per tracked body occurrence whose relation gained rows,
/// with that occurrence windowed to the new rows and every other
/// occurrence over its full relation.  A derivation over facts new in the
/// same iteration at two occurrences is therefore enumerated once per
/// such occurrence; the extra firings are duplicates, so facts and
/// answers are unaffected.
#[derive(Clone, Debug)]
pub struct FixpointRunner {
    plans: Vec<RulePlan>,
    /// Tracked predicates, sorted ascending (delta marks index into this).
    tracked: Vec<PredName>,
    /// Per plan: (body occurrence, index into `tracked`).
    tracked_occurrences: Vec<Vec<(usize, usize)>>,
    /// Per plan, parallel to `tracked_occurrences`: the *delta-driven*
    /// variant of the plan with that occurrence's atom moved to the front
    /// of the body and the remaining atoms greedily reordered along shared
    /// variables.  `resume` joins outward from the (tiny) delta instead
    /// of re-scanning the rule's leading atoms every iteration — without
    /// this, maintaining a view after a single-fact insert would cost a
    /// full leading-atom scan per fixpoint iteration, erasing the point of
    /// incrementality.  Empty when the runner was built run-only
    /// ([`FixpointRunner::for_program`]).
    delta_plans: Vec<Vec<DeltaVariant>>,
    /// Per plan: the head-bound variant (head variables treated as bound
    /// when access paths are chosen), used by the incremental layer's
    /// support oracle: delete-and-rederive recounts every overdeleted row
    /// of a predicate with one `count_derivations_batch` call per deriving
    /// plan.  `prepare` ensures their indexes with the forward plans'.
    /// Empty on run-only runners.
    head_bound_plans: Vec<RulePlan>,
    /// Predicate arities of the program (used by `prepare`).
    arities: Vec<(PredName, usize)>,
    /// The stratified schedule (dependency-ordered SCC strata) the
    /// fixpoint loop walks; shared by every run/resume of this runner.
    schedule: Schedule,
    limits: Limits,
    scheme: IterationScheme,
}

/// A delta-driven variant of a rule plan: the plan itself plus the body
/// permutation that produced it.
#[derive(Clone, Debug)]
struct DeltaVariant {
    plan: RulePlan,
    /// `pos_of_orig[o]` is the variant body position of original
    /// occurrence `o` (the lead occurrence maps to 0).
    pos_of_orig: Vec<usize>,
}

/// Build the delta-driven variant of `rule` with occurrence `lead` first
/// and the remaining atoms in [`sip_order`], so the join fans out from the
/// delta atom through shared variables instead of re-scanning unrelated
/// leading atoms.
fn delta_variant(
    rule: &magic_datalog::Rule,
    rule_idx: usize,
    lead: usize,
    derived: &BTreeSet<PredName>,
) -> DeltaVariant {
    let order = sip_order(rule, Some(lead), &BTreeSet::new());
    let mut pos_of_orig = vec![usize::MAX; rule.body.len()];
    for (pos, &o) in order.iter().enumerate() {
        pos_of_orig[o] = pos;
    }
    DeltaVariant {
        plan: RulePlan::compile(&with_body_order(rule, &order), rule_idx, derived),
        pos_of_orig,
    }
}

/// Insert the head rows one plan fired in one iteration — `rows` is its
/// flat `arity`-chunked buffer, `matches` its body-match count — as one
/// [`Relation::insert_batch`], showing each row to `observer` (when
/// installed) with whether it was new.  Returns the number of new facts.
fn insert_fired_rows(
    relation: &mut Relation,
    plan_idx: usize,
    arity: usize,
    matches: usize,
    rows: &[ValId],
    mut observer: Option<ObserverRef<'_, '_>>,
) -> usize {
    if arity == 0 {
        // A zero-arity head (fully bound magic/answer predicate) leaves
        // the flat buffers empty; every match fires the empty row, of
        // which at most the first is new.
        if matches == 0 {
            return 0;
        }
        let mut first = (0, false);
        relation.insert_batch(&[], |id, new| first = (id, new));
        if let Some(observer) = observer {
            for nth in 0..matches {
                observer(plan_idx, first.0, first.1 && nth == 0);
            }
        }
        return usize::from(first.1);
    }
    relation.insert_batch(rows, |id, new| {
        if let Some(observer) = observer.as_deref_mut() {
            observer(plan_idx, id, new);
        }
    })
}

impl FixpointRunner {
    /// Compile `program` with the given tracked-predicate set.
    ///
    /// `tracked` must contain every predicate whose delta should re-trigger
    /// rule bodies: the derived predicates for a classic run, plus any base
    /// predicates that external callers will seed deltas for.
    pub fn compile(program: &Program, tracked: &BTreeSet<PredName>) -> FixpointRunner {
        FixpointRunner::build(program, tracked, true)
    }

    /// Compile with the classic tracked set — the program's derived
    /// predicates — and without the delta-driven plan variants.  This is
    /// the run-to-fixpoint form [`Evaluator`] uses; `resume` is
    /// unavailable on it.
    ///
    /// Fact-rule heads are tracked in addition to the derived predicates:
    /// to the planner a predicate defined only by ground facts is not
    /// "derived", but its rows still land at the end of the first
    /// iteration, and a rule reading it must see that delta or it never
    /// re-fires (the full pass ran while the relation was still empty).
    pub fn for_program(program: &Program) -> FixpointRunner {
        let mut tracked = program.derived_preds();
        for rule in &program.rules {
            if rule.is_fact() {
                tracked.insert(rule.head.pred.clone());
            }
        }
        FixpointRunner::build(program, &tracked, false)
    }

    fn build(program: &Program, tracked: &BTreeSet<PredName>, resumable: bool) -> FixpointRunner {
        let derived: BTreeSet<PredName> = program.derived_preds();
        let plans: Vec<RulePlan> = program
            .rules
            .iter()
            .enumerate()
            .map(|(i, r)| RulePlan::compile(r, i, &derived))
            .collect();
        // Dense numbering of the tracked predicates: the per-iteration delta
        // marks are plain vectors indexed by it, so the fixpoint loop clones
        // no `PredName`s.  The list is sorted (it comes from a `BTreeSet`),
        // which lets the per-plan resolution below binary-search it.
        let tracked_list: Vec<PredName> = tracked.iter().cloned().collect();
        let tracked_occurrences: Vec<Vec<(usize, usize)>> = plans
            .iter()
            .map(|plan| {
                plan.atoms
                    .iter()
                    .enumerate()
                    .filter_map(|(occ, atom)| {
                        tracked_list
                            .binary_search(&atom.pred)
                            .ok()
                            .map(|idx| (occ, idx))
                    })
                    .collect()
            })
            .collect();
        let delta_plans: Vec<Vec<DeltaVariant>> = if resumable {
            program
                .rules
                .iter()
                .enumerate()
                .zip(&tracked_occurrences)
                .map(|((rule_idx, rule), occurrences)| {
                    occurrences
                        .iter()
                        .map(|&(occ, _)| delta_variant(rule, rule_idx, occ, &derived))
                        .collect()
                })
                .collect()
        } else {
            Vec::new()
        };
        let head_bound_plans: Vec<RulePlan> = if resumable {
            program
                .rules
                .iter()
                .enumerate()
                .map(|(i, r)| RulePlan::compile_head_bound(r, i, &derived))
                .collect()
        } else {
            Vec::new()
        };
        let arities = program
            .predicate_arities()
            .map(|map| map.into_iter().collect())
            .unwrap_or_default();
        FixpointRunner {
            plans,
            tracked: tracked_list,
            tracked_occurrences,
            delta_plans,
            head_bound_plans,
            arities,
            schedule: Schedule::build(program),
            limits: Limits::default(),
            scheme: IterationScheme::SemiNaive,
        }
    }

    /// Override the resource limits.
    pub fn with_limits(mut self, limits: Limits) -> FixpointRunner {
        self.limits = limits;
        self
    }

    /// Override the iteration scheme.
    pub fn with_scheme(mut self, scheme: IterationScheme) -> FixpointRunner {
        self.scheme = scheme;
        self
    }

    /// The compiled rule plans, in program rule order.
    pub fn plans(&self) -> &[RulePlan] {
        &self.plans
    }

    /// The stratified schedule the fixpoint loop executes (one per
    /// compiled runner; the incremental layer's views and catalogs share
    /// it across every maintenance operation).
    pub fn schedule(&self) -> &Schedule {
        &self.schedule
    }

    /// The head-bound variant of plan `plan_idx` (see
    /// [`RulePlan::compile_head_bound`]) — the plan to hand to
    /// [`count_derivations_batch`](crate::join::count_derivations_batch)
    /// (or its one-row call,
    /// [`count_derivations`](crate::join::count_derivations)).  Only
    /// available on runners built with [`FixpointRunner::compile`].
    pub fn head_bound_plan(&self, plan_idx: usize) -> &RulePlan {
        &self.head_bound_plans[plan_idx]
    }

    /// The current row-id **watermarks** of the tracked predicates — the
    /// delta marks that [`FixpointRunner::resume`] measures seeded
    /// insertions against.  Watermarks (not live counts) are the monotone
    /// quantity: tombstoned removals leave them in place, so rows inserted
    /// after a mark always have ids `>=` it.
    pub fn marks(&self, db: &Database) -> Vec<usize> {
        let mut marks = Vec::new();
        self.marks_into(db, &mut marks);
        marks
    }

    /// [`FixpointRunner::marks`] into a recycled vector.
    fn marks_into(&self, db: &Database, marks: &mut Vec<usize>) {
        marks.clear();
        marks.extend(
            self.tracked
                .iter()
                .map(|p| db.relation(p).map_or(0, Relation::watermark)),
        );
    }

    /// Create relations for every predicate of the program (so missing base
    /// relations behave as empty) and ensure indexes for every access path
    /// the plans will use.  Idempotent; `run` calls it, and callers that
    /// mutate relations wholesale (e.g. batch row removal) need not repeat
    /// it because indexes, once ensured, are maintained by the relation.
    pub fn prepare(&self, db: &mut Database) {
        for (pred, arity) in &self.arities {
            db.relation_mut(pred, *arity);
        }
        // A relation whose stored arity disagrees with the atom is left
        // unindexed here (indexing key positions beyond its arity would be
        // out of bounds); `evaluate_rule` reports the mismatch gracefully.
        for plan in self
            .plans
            .iter()
            .chain(self.delta_plans.iter().flatten().map(|v| &v.plan))
            .chain(self.head_bound_plans.iter())
        {
            for atom in &plan.atoms {
                if !atom.key_positions.is_empty() {
                    let relation = db.relation_mut(&atom.pred, atom.arity);
                    if relation.arity() == atom.arity {
                        relation.ensure_index(&atom.key_positions);
                    }
                }
            }
        }
    }

    /// Run to the least fixpoint from the current contents of `db`,
    /// mutating it in place.  The first iteration evaluates every rule in
    /// full; subsequent iterations are delta-restricted (under
    /// [`IterationScheme::SemiNaive`]).
    pub fn run(
        &self,
        db: &mut Database,
        stats: &mut EvalStats,
        observer: Option<FiringObserver<'_>>,
    ) -> Result<(), EvalError> {
        self.prepare(db);
        self.fixpoint(db, stats, None, observer)
    }

    /// Re-enter the fixpoint with externally seeded deltas: `prev_marks`
    /// are the tracked row counts (see [`FixpointRunner::marks`]) taken
    /// *before* the caller appended the seed rows.  Every iteration —
    /// including the first — is delta-restricted, so a call whose seeds
    /// touch nothing returns after one cheap iteration.
    ///
    /// Requires `db` to be a fixpoint of the program up to the seeds (which
    /// is what [`FixpointRunner::run`] or a previous `resume` leaves
    /// behind).
    pub fn resume(
        &self,
        db: &mut Database,
        prev_marks: Vec<usize>,
        stats: &mut EvalStats,
        observer: Option<FiringObserver<'_>>,
    ) -> Result<(), EvalError> {
        assert_eq!(
            prev_marks.len(),
            self.tracked.len(),
            "seed marks must cover the tracked predicates"
        );
        assert!(
            self.plans.is_empty() || !self.delta_plans.is_empty(),
            "resume requires a runner built with FixpointRunner::compile \
             (for_program builds a run-only runner)"
        );
        self.fixpoint(db, stats, Some(prev_marks), observer)
    }

    /// Evaluate plan `plan_idx` — its `variant`-th delta-driven form in
    /// resume mode — under `delta` against the (read-only) database,
    /// appending its head rows to `out`.
    fn evaluate(
        &self,
        plan_idx: usize,
        variant: Option<usize>,
        delta: Option<DeltaWindow>,
        db: &Database,
        scratch: &mut JoinScratch,
        out: &mut Vec<ValId>,
    ) -> Result<JoinCounters, EvalError> {
        let plan = match variant {
            Some(nth) => &self.delta_plans[plan_idx][nth].plan,
            None => &self.plans[plan_idx],
        };
        evaluate_rule_scratch(plan, db, delta, &self.limits, scratch, out)
    }

    /// The one fixpoint loop.  `seed_marks` switches between run mode
    /// (first iteration full) and resume mode (first iteration windowed
    /// against the given marks).  Positive programs run every live stratum
    /// each iteration; guarded programs run only the stratum frontier.  See
    /// the module docs for the scheduler structure and the evaluation
    /// order.
    fn fixpoint(
        &self,
        db: &mut Database,
        stats: &mut EvalStats,
        seed_marks: Option<Vec<usize>>,
        mut observer: Option<FiringObserver<'_>>,
    ) -> Result<(), EvalError> {
        let guarded = self.schedule.has_guarded_strata();
        if guarded {
            // A seed in a low stratum could retract complements already
            // taken above it, so seeded re-entry is refused outright.
            if seed_marks.is_some() {
                return Err(EvalError::GuardedUnsupported {
                    operation: "incremental resume (seeded deltas)".into(),
                });
            }
            // Refuse unstratifiable programs with the typed violation before
            // touching the database: evaluating them would compute *some*
            // fixpoint, just not a meaningful (perfect-model) one.
            if let Some(v) = self.schedule.stratification_violations().first() {
                return Err(EvalError::Unstratifiable {
                    predicate: v.pred.to_string(),
                    cycle: v.cycle.iter().map(|p| p.to_string()).collect(),
                });
            }
            // Re-check negation safety at the evaluation boundary: runners
            // can be built from unvalidated programs, and an unbound negated
            // variable would otherwise surface only if the join reaches it.
            for plan in &self.plans {
                if plan.rule.is_guarded() && plan.rule.check_negation_safe().is_err() {
                    return Err(EvalError::UnsafeNegation {
                        rule: plan.rule.to_string(),
                    });
                }
            }
        }
        let seeded = seed_marks.is_some();
        // Whether the next iteration evaluates its rules in full: the first
        // one of a run, and (guarded) the first one of every stratum.
        let mut full_pass = !seeded;
        // Row-id marks delimiting the delta of the previous iteration,
        // indexed like `tracked`.
        let mut prev_marks = seed_marks.unwrap_or_else(|| self.marks(db));
        // The current extents (recycled; swapped into `prev_marks` at the
        // end of every iteration).
        let mut cur_marks: Vec<usize> = Vec::with_capacity(prev_marks.len());
        // Facts this call has derived.  Nothing else writes `db` while the
        // loop runs, so this is `db.total_facts()` minus its value on
        // entry — without walking every relation once per iteration.
        let mut derived = 0usize;
        let strata = self.schedule.strata();
        // Permanently converged strata (semi-naive only): a stratum
        // retires once everything below it is retired and it sees no
        // deltas — nothing can feed it again.
        let mut retired = vec![false; strata.len()];
        // Guarded programs: the lowest unfinished stratum, the only one
        // evaluated.  `entering` marks that it has just moved up and
        // still has to fold its aggregates.
        let mut frontier = 0usize;
        let mut entering = guarded;
        // Per plan: the head rows of the current iteration, flat and
        // `arity`-chunked, in the order they were produced (recycled).
        let mut outputs: Vec<Vec<ValId>> = vec![Vec::new(); self.plans.len()];
        // Per-plan body-match counts of the current iteration.  For
        // positive-arity heads this is implied by the buffer lengths; for
        // zero-arity heads (fully bound magic/answer predicates) it is the
        // only record of how many firings happened.
        let mut match_counts: Vec<usize> = vec![0; self.plans.len()];
        // Reusable join scratch.
        let mut scratch = JoinScratch::default();

        loop {
            if entering {
                frontier =
                    self.advance_frontier(frontier, db, stats, &mut observer, &mut derived)?;
                if frontier == strata.len() {
                    break;
                }
                entering = false;
                full_pass = true;
            }
            stats.iterations += 1;
            if stats.iterations > self.limits.max_iterations {
                return Err(EvalError::IterationLimit {
                    limit: self.limits.max_iterations,
                });
            }
            // Snapshot the current extents: rows in [prev_mark, cur_mark)
            // form the delta of the previous iteration (or the seeds, on
            // the first iteration of a resume).
            self.marks_into(db, &mut cur_marks);

            let use_delta = self.scheme == IterationScheme::SemiNaive && !full_pass;
            full_pass = false;

            // ---- Read phase: strata in dependency order, every rule
            // against the database as the previous iteration left it.  The
            // first error aborts the run; the probes before it are counted. ----
            let mut lower_all_retired = true;
            let live_strata = if guarded {
                frontier..frontier + 1
            } else {
                0..strata.len()
            };
            for s in live_strata {
                if retired[s] {
                    continue;
                }
                // Whether any rule of this stratum had work this iteration.
                let mut live = false;
                for &plan_idx in &strata[s].rules {
                    if self.plans[plan_idx].rule.aggregate.is_some() {
                        continue; // folded once, as its stratum entered the frontier
                    }
                    if use_delta {
                        let occurrences = &self.tracked_occurrences[plan_idx];
                        for (nth, &(occ, tracked_idx)) in occurrences.iter().enumerate() {
                            let from = prev_marks[tracked_idx];
                            if from >= cur_marks[tracked_idx] {
                                continue; // no new facts for this occurrence
                            }
                            live = true;
                            // In resume mode the delta-driven variant moves
                            // the windowed atom to the front, so the join
                            // fans out from the delta instead of re-scanning
                            // the rule's leading atoms.  Cold runs keep the
                            // written order: delta-first would move
                            // `join_probes`, which the counter golden and the
                            // benchmark pin.  A re-scanned leading magic
                            // atom's lookups that no delta row answers are
                            // skipped by the join's key filters.
                            let variant = seeded.then_some(nth);
                            let occurrence = match variant {
                                Some(nth) => self.delta_plans[plan_idx][nth].pos_of_orig[occ],
                                None => occ,
                            };
                            let counters = self.evaluate(
                                plan_idx,
                                variant,
                                Some(DeltaWindow { occurrence, from }),
                                db,
                                &mut scratch,
                                &mut outputs[plan_idx],
                            )?;
                            stats.join_probes += counters.probes;
                            match_counts[plan_idx] += counters.matches;
                        }
                    } else {
                        live = true;
                        let counters = self.evaluate(
                            plan_idx,
                            None,
                            None,
                            db,
                            &mut scratch,
                            &mut outputs[plan_idx],
                        )?;
                        stats.join_probes += counters.probes;
                        match_counts[plan_idx] += counters.matches;
                    }
                }
                if use_delta && !live && lower_all_retired {
                    retired[s] = true;
                }
                if !retired[s] {
                    lower_all_retired = false;
                }
            }

            // ---- Insert phase: all dedup, id assignment and index
            // maintenance happens here, plan by plan in program order. ----
            let mut new_facts = 0usize;
            for (plan_idx, count) in match_counts.iter_mut().enumerate() {
                let matches = std::mem::take(count);
                if matches == 0 {
                    continue;
                }
                let plan = &self.plans[plan_idx];
                let arity = plan.head_terms.len();
                // All rows of one plan belong to its head predicate: resolve
                // the relation once and insert the packed chunks directly —
                // no per-fact allocation or clone.
                let relation = db.relation_mut(&plan.head_pred, arity);
                let rows = &mut outputs[plan_idx];
                let new = insert_fired_rows(
                    relation,
                    plan_idx,
                    arity,
                    matches,
                    rows,
                    observer.as_deref_mut(),
                );
                rows.clear();
                stats.record_firings(plan.rule_idx, &plan.head_pred, matches, new);
                new_facts += new;
            }
            derived += new_facts;
            self.check_fact_limit(derived)?;
            if new_facts == 0 {
                if !guarded {
                    break;
                }
                // The frontier stratum is finished: nothing it reads can
                // change any more.
                frontier += 1;
                entering = true;
            }
            std::mem::swap(&mut prev_marks, &mut cur_marks);
        }
        Ok(())
    }

    /// Move the stratum frontier of a guarded program up from stratum `s`:
    /// every stratum it enters folds its aggregate rules once (their inputs
    /// live strictly below and are finished), and one with no plain rules
    /// is then finished too, without counting an iteration.  Returns the
    /// first stratum with plain rules, or the stratum count when every
    /// stratum is finished.
    fn advance_frontier(
        &self,
        mut s: usize,
        db: &mut Database,
        stats: &mut EvalStats,
        observer: &mut Option<FiringObserver<'_>>,
        derived: &mut usize,
    ) -> Result<usize, EvalError> {
        let strata = self.schedule.strata();
        while let Some(stratum) = strata.get(s) {
            let mut plain = false;
            for &plan_idx in &stratum.rules {
                if self.plans[plan_idx].rule.aggregate.is_some() {
                    *derived += self.run_aggregate_rule(plan_idx, db, stats, observer)?;
                } else {
                    plain = true;
                }
            }
            self.check_fact_limit(*derived)?;
            if plain {
                break;
            }
            s += 1;
        }
        Ok(s)
    }

    fn check_fact_limit(&self, derived: usize) -> Result<(), EvalError> {
        if derived > self.limits.max_facts {
            return Err(EvalError::FactLimit {
                limit: self.limits.max_facts,
            });
        }
        Ok(())
    }

    /// Evaluate one aggregate rule as a stratum-boundary group-by
    /// reduction: a single full evaluation of the positive body (its
    /// inputs are finished lower strata), distinct `(group, value)` pairs
    /// under set semantics, then one folded output row per group.  Groups
    /// are folded and inserted in deterministic id order.  Returns the
    /// number of new facts.
    fn run_aggregate_rule(
        &self,
        plan_idx: usize,
        db: &mut Database,
        stats: &mut EvalStats,
        observer: &mut Option<FiringObserver<'_>>,
    ) -> Result<usize, EvalError> {
        let plan = &self.plans[plan_idx];
        let agg = plan
            .rule
            .aggregate
            .as_ref()
            .expect("run_aggregate_rule requires an aggregate plan");
        let arity = plan.head_terms.len();
        let mut scratch = Vec::new();
        let counters = evaluate_rule_scratch(
            plan,
            db,
            None,
            &self.limits,
            &mut JoinScratch::default(),
            &mut scratch,
        )?;
        stats.join_probes += counters.probes;
        // Distinct values per group: a value derived through two body
        // instantiations counts (and sums) once.  An empty body yields no
        // groups, hence no rows — not a zero count.
        let mut groups: BTreeMap<Vec<ValId>, BTreeSet<ValId>> = BTreeMap::new();
        for row in scratch.chunks_exact(arity) {
            let mut key = Vec::with_capacity(arity - 1);
            for (i, &id) in row.iter().enumerate() {
                if i != agg.position {
                    key.push(id);
                }
            }
            groups.entry(key).or_default().insert(row[agg.position]);
        }
        // The folded rows, one per group, go in as one batch.
        scratch.clear();
        for (key, values) in &groups {
            let result = match agg.func {
                AggFunc::Count => ValId::from_int(values.len() as i64),
                AggFunc::Sum | AggFunc::Min | AggFunc::Max => {
                    let mut folded: Option<i64> = None;
                    for &v in values {
                        let Some(i) = v.as_int() else {
                            return Err(EvalError::AggregateType {
                                rule: plan.rule.to_string(),
                                value: v.to_string(),
                            });
                        };
                        folded = Some(match (folded, agg.func) {
                            (None, _) => i,
                            (Some(acc), AggFunc::Sum) => {
                                acc.checked_add(i)
                                    .ok_or_else(|| EvalError::AggregateOverflow {
                                        rule: plan.rule.to_string(),
                                    })?
                            }
                            (Some(acc), AggFunc::Min) => acc.min(i),
                            (Some(acc), AggFunc::Max) => acc.max(i),
                            (Some(_), AggFunc::Count) => unreachable!(),
                        });
                    }
                    ValId::from_int(folded.expect("groups are non-empty"))
                }
            };
            let mut rest = key.iter();
            scratch.extend((0..arity).map(|i| {
                if i == agg.position {
                    result
                } else {
                    *rest.next().expect("key covers the non-aggregate positions")
                }
            }));
        }
        let relation = db.relation_mut(&plan.head_pred, arity);
        let new = relation.insert_batch(&scratch, |id, is_new| {
            if let Some(observer) = observer.as_deref_mut() {
                observer(plan_idx, id, is_new);
            }
        });
        stats.record_firings(plan.rule_idx, &plan.head_pred, groups.len(), new);
        Ok(new)
    }
}

/// A bottom-up evaluator for a fixed program.
///
/// ```
/// use magic_datalog::{parse_program, parse_query};
/// use magic_engine::Evaluator;
/// use magic_storage::Database;
///
/// let program = parse_program(
///     "anc(X, Y) :- par(X, Y).
///      anc(X, Y) :- par(X, Z), anc(Z, Y).",
/// )
/// .unwrap();
/// let mut db = Database::new();
/// db.insert_pair("par", "a", "b");
/// db.insert_pair("par", "b", "c");
///
/// let result = Evaluator::new(program).run(&db).unwrap();
/// let query = parse_query("anc(a, Y)").unwrap();
/// let answers = magic_engine::answers::query_answers(&result.database, &query);
/// assert_eq!(answers.len(), 2); // b and c
/// ```
#[derive(Clone, Debug)]
pub struct Evaluator {
    program: Program,
    limits: Limits,
    scheme: IterationScheme,
}

impl Evaluator {
    /// Create an evaluator with default limits and semi-naive iteration.
    pub fn new(program: Program) -> Evaluator {
        Evaluator {
            program,
            limits: Limits::default(),
            scheme: IterationScheme::SemiNaive,
        }
    }

    /// Override the resource limits.
    pub fn with_limits(mut self, limits: Limits) -> Evaluator {
        self.limits = limits;
        self
    }

    /// Override the iteration scheme.
    pub fn with_scheme(mut self, scheme: IterationScheme) -> Evaluator {
        self.scheme = scheme;
        self
    }

    /// The program being evaluated.
    pub fn program(&self) -> &Program {
        &self.program
    }

    /// Evaluate to the least fixpoint starting from `edb`.
    pub fn run(&self, edb: &Database) -> Result<EvalResult, EvalError> {
        self.run_db(edb.clone())
    }

    /// Evaluate to the least fixpoint over an owned database (taking it by
    /// value avoids the clone of [`Evaluator::run`], and lets callers
    /// pre-ensure indexes — e.g. the planner's answer-atom index — that
    /// are then maintained incrementally through the evaluation instead of
    /// being rebuilt afterwards).
    pub fn run_db(&self, mut db: Database) -> Result<EvalResult, EvalError> {
        let runner = FixpointRunner::for_program(&self.program)
            .with_limits(self.limits)
            .with_scheme(self.scheme);
        let mut stats = EvalStats::default();
        runner.run(&mut db, &mut stats, None)?;
        Ok(EvalResult {
            database: db,
            stats,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::answers::query_answers;
    use magic_datalog::{parse_program, parse_query, Value};

    fn chain_db(n: usize) -> Database {
        let mut db = Database::new();
        for i in 0..n {
            db.insert_pair("par", &format!("n{i}"), &format!("n{}", i + 1));
        }
        db
    }

    fn ancestor() -> Program {
        parse_program(
            "anc(X, Y) :- par(X, Y).
             anc(X, Y) :- par(X, Z), anc(Z, Y).",
        )
        .unwrap()
    }

    #[test]
    fn ancestor_chain_full_closure() {
        let db = chain_db(10);
        let result = Evaluator::new(ancestor()).run(&db).unwrap();
        // Full transitive closure of an 11-node chain: 10+9+...+1 = 55 pairs.
        assert_eq!(result.database.count(&PredName::plain("anc")), 55);
        let q = parse_query("anc(n0, Y)").unwrap();
        assert_eq!(query_answers(&result.database, &q).len(), 10);
    }

    #[test]
    fn naive_and_seminaive_agree() {
        let db = chain_db(12);
        let semi = Evaluator::new(ancestor()).run(&db).unwrap();
        let naive = Evaluator::new(ancestor())
            .with_scheme(IterationScheme::Naive)
            .run(&db)
            .unwrap();
        assert_eq!(
            semi.database.count(&PredName::plain("anc")),
            naive.database.count(&PredName::plain("anc"))
        );
        // Semi-naive performs strictly fewer duplicate derivations on a chain.
        assert!(semi.stats.duplicate_derivations < naive.stats.duplicate_derivations);
    }

    #[test]
    fn nonlinear_ancestor_agrees_with_linear() {
        let db = chain_db(8);
        let nonlinear = parse_program(
            "anc(X, Y) :- par(X, Y).
             anc(X, Y) :- anc(X, Z), anc(Z, Y).",
        )
        .unwrap();
        let a = Evaluator::new(ancestor()).run(&db).unwrap();
        let b = Evaluator::new(nonlinear).run(&db).unwrap();
        assert_eq!(
            a.database.count(&PredName::plain("anc")),
            b.database.count(&PredName::plain("anc"))
        );
    }

    #[test]
    fn fact_rules_fire_once() {
        let program = parse_program("p(a). q(X) :- p(X).").unwrap();
        // parse_program strips ground facts... so embed via a rule instead.
        let program = if program.len() < 2 {
            parse_program("q(X) :- p(X).").unwrap()
        } else {
            program
        };
        let mut db = Database::new();
        db.insert(PredName::plain("p"), vec![Value::sym("a")]);
        let result = Evaluator::new(program).run(&db).unwrap();
        assert_eq!(result.database.count(&PredName::plain("q")), 1);
    }

    #[test]
    fn edb_arity_mismatch_is_an_error_not_a_panic() {
        // The EDB stores q with arity 1 while the program uses arity 3;
        // index ensuring must not index out of bounds, and evaluation must
        // surface the graceful ArityMismatch error.
        let program = parse_program("p(X) :- b(X), q(X, X, Y).").unwrap();
        let mut db = Database::new();
        db.insert(PredName::plain("b"), vec![Value::sym("a")]);
        db.insert(PredName::plain("q"), vec![Value::sym("a")]);
        let err = Evaluator::new(program).run(&db).unwrap_err();
        assert!(matches!(err, crate::EvalError::ArityMismatch { .. }));
    }

    #[test]
    fn iteration_limit_is_enforced() {
        let db = chain_db(50);
        let err = Evaluator::new(ancestor())
            .with_limits(Limits::default().with_max_iterations(3))
            .run(&db)
            .unwrap_err();
        assert!(matches!(err, EvalError::IterationLimit { limit: 3 }));
    }

    #[test]
    fn fact_limit_is_enforced() {
        let db = chain_db(60);
        let err = Evaluator::new(ancestor())
            .with_limits(Limits::default().with_max_facts(10))
            .run(&db)
            .unwrap_err();
        assert!(matches!(err, EvalError::FactLimit { .. }));
    }

    #[test]
    fn same_generation_nonlinear() {
        // The paper's running example (Example 1).
        let program = parse_program(
            "sg(X, Y) :- flat(X, Y).
             sg(X, Y) :- up(X, Z1), sg(Z1, Z2), flat(Z2, Z3), sg(Z3, Z4), down(Z4, Y).",
        )
        .unwrap();
        let mut db = Database::new();
        // Two-level structure: a,b go up to m,n; flat connects m-n and n-m;
        // m,n go down to c,d.
        db.insert_pair("up", "a", "m");
        db.insert_pair("up", "b", "n");
        db.insert_pair("flat", "m", "n");
        db.insert_pair("flat", "n", "m");
        db.insert_pair("flat", "a", "b");
        db.insert_pair("down", "m", "c");
        db.insert_pair("down", "n", "d");
        let result = Evaluator::new(program).run(&db).unwrap();
        let q = parse_query("sg(a, Y)").unwrap();
        let answers = query_answers(&result.database, &q);
        // sg(a, b) via flat; sg(a, d) via up/sg/flat/sg/down:
        //   up(a,m), sg(m,n) [flat], flat(n,m), sg(m,n) [flat], down(n,d).
        let rendered: BTreeSet<String> = answers
            .iter()
            .map(|row| {
                row.iter()
                    .map(Value::to_string)
                    .collect::<Vec<_>>()
                    .join(",")
            })
            .collect();
        assert!(rendered.contains("b"));
        assert!(rendered.contains("d"));
    }

    #[test]
    fn list_append_with_magic_style_guard() {
        // append is not range-restricted without a guard; provide the guard
        // relation directly to exercise function-symbol evaluation.
        let program = parse_program(
            "append(V, X, Y) :- guard(V, X), build(V, X, Y).
             build(V, nil, cons(V, nil)) :- guard(V, nil).
             build(V, cons(W, X), cons(W, Y)) :- guard(V, cons(W, X)), build(V, X, Y).
             guard(V, X) :- guard(V, cons(W, X)).",
        )
        .unwrap();
        let mut db = Database::new();
        let list = Value::list(vec![Value::sym("a"), Value::sym("b")]);
        db.insert(
            PredName::plain("guard"),
            vec![Value::sym("z"), list.clone()],
        );
        let result = Evaluator::new(program).run(&db).unwrap();
        let append = result
            .database
            .relation(&PredName::plain("append"))
            .unwrap();
        // One append fact per suffix of the guarded list: [a,b], [b], [].
        assert_eq!(append.len(), 3);
        let full = append
            .iter()
            .find(|row| row[1] == list)
            .expect("append fact for the full list");
        assert_eq!(
            full[2].as_list().unwrap(),
            vec![Value::sym("a"), Value::sym("b"), Value::sym("z")]
        );
    }

    #[test]
    fn resume_from_seeded_base_delta_reaches_the_new_fixpoint() {
        // Materialize the chain closure, then append one edge and resume:
        // the runner must derive exactly the closure of the longer chain
        // without re-running from scratch.
        let program = ancestor();
        let mut tracked = program.derived_preds();
        tracked.extend(program.base_preds());
        let runner = FixpointRunner::compile(&program, &tracked);
        let mut db = chain_db(10);
        let mut stats = EvalStats::default();
        runner.run(&mut db, &mut stats, None).unwrap();
        assert_eq!(db.count(&PredName::plain("anc")), 55);

        let marks = runner.marks(&db);
        db.insert_pair("par", "n10", "n11");
        let mut resume_stats = EvalStats::default();
        runner
            .resume(&mut db, marks, &mut resume_stats, None)
            .unwrap();
        // Closure of a 12-node chain: 11+10+...+1 = 66 pairs.
        assert_eq!(db.count(&PredName::plain("anc")), 66);
        // The resumed run only derived the new pairs.
        assert_eq!(resume_stats.facts_derived, 11);
        // And did so with far less join work than the full run.
        assert!(resume_stats.join_probes < stats.join_probes / 2);
    }

    #[test]
    fn resume_with_no_seeds_is_a_cheap_no_op() {
        let program = ancestor();
        let mut tracked = program.derived_preds();
        tracked.extend(program.base_preds());
        let runner = FixpointRunner::compile(&program, &tracked);
        let mut db = chain_db(6);
        let mut stats = EvalStats::default();
        runner.run(&mut db, &mut stats, None).unwrap();
        let before = db.clone();
        let marks = runner.marks(&db);
        let mut resume_stats = EvalStats::default();
        runner
            .resume(&mut db, marks, &mut resume_stats, None)
            .unwrap();
        assert_eq!(db, before);
        assert_eq!(resume_stats.join_probes, 0);
        assert_eq!(resume_stats.iterations, 1);
    }

    #[test]
    fn resumed_deltas_at_two_occurrences_enumerate_a_derivation_per_occurrence() {
        // Two inserted edges that chain: in the first resumed iteration both
        // body occurrences carry a delta, and t(b, d) (from t(b, c) and
        // t(c, d), both new) is enumerated once per delta occurrence.
        let program = parse_program("t(X, Z) :- t(X, Y), t(Y, Z).").unwrap();
        let mut tracked = program.derived_preds();
        tracked.extend(program.base_preds());
        let runner = FixpointRunner::compile(&program, &tracked);
        let mut db = Database::new();
        db.insert_pair("t", "a", "b");
        runner
            .run(&mut db, &mut EvalStats::default(), None)
            .unwrap();

        let marks = runner.marks(&db);
        db.insert_pair("t", "b", "c");
        db.insert_pair("t", "c", "d");
        let mut scratch = db.clone();
        let mut stats = EvalStats::default();
        runner.resume(&mut db, marks, &mut stats, None).unwrap();
        // Iteration 1: t(b, d) at the first occurrence, t(a, c) and t(b, d)
        // again at the second.  Iteration 2: t(a, d) once per occurrence.
        assert_eq!(
            (
                stats.rule_firings,
                stats.facts_derived,
                stats.duplicate_derivations
            ),
            (5, 3, 2)
        );

        runner
            .run(&mut scratch, &mut EvalStats::default(), None)
            .unwrap();
        let rows = |db: &Database| db.facts().map(|f| f.to_string()).collect::<BTreeSet<_>>();
        assert_eq!(rows(&db), rows(&scratch));
        assert_eq!(db.count(&PredName::plain("t")), 6);
    }

    #[test]
    fn observer_sees_every_firing_with_newness() {
        let program = ancestor();
        let runner = FixpointRunner::for_program(&program);
        let mut db = chain_db(4);
        let mut stats = EvalStats::default();
        let mut firings = 0usize;
        let mut new = 0usize;
        let mut observer = |_plan: usize, _row_id: usize, is_new: bool| {
            firings += 1;
            if is_new {
                new += 1;
            }
        };
        runner
            .run(&mut db, &mut stats, Some(&mut observer))
            .unwrap();
        assert_eq!(firings, stats.rule_firings);
        assert_eq!(new, stats.facts_derived);
        assert_eq!(new, 4 * 5 / 2);
    }

    #[test]
    fn stratified_negation_complements_finished_lower_strata() {
        let program = parse_program(
            "reach(Y) :- start(Y).
             reach(Y) :- reach(X), edge(X, Y).
             unreached(X) :- node(X), not reach(X).",
        )
        .unwrap();
        let mut db = Database::new();
        db.insert(PredName::plain("start"), vec![Value::sym("a")]);
        db.insert_pair("edge", "a", "b");
        db.insert_pair("edge", "b", "c");
        for n in ["a", "b", "c", "d", "e"] {
            db.insert(PredName::plain("node"), vec![Value::sym(n)]);
        }
        let result = Evaluator::new(program).run(&db).unwrap();
        assert_eq!(result.database.count(&PredName::plain("reach")), 3);
        let unreached = result
            .database
            .relation(&PredName::plain("unreached"))
            .unwrap();
        let names: BTreeSet<String> = unreached.iter().map(|row| row[0].to_string()).collect();
        assert_eq!(names, BTreeSet::from(["d".to_string(), "e".to_string()]));
    }

    #[test]
    fn unstratifiable_program_is_refused_before_evaluation() {
        // The classic win/lose game negates win through its own recursion.
        let program = parse_program("win(X) :- move(X, Y), not win(Y).").unwrap();
        let mut db = Database::new();
        db.insert_pair("move", "a", "b");
        let err = Evaluator::new(program).run(&db).unwrap_err();
        match err {
            EvalError::Unstratifiable { predicate, cycle } => {
                assert_eq!(predicate, "win");
                assert!(cycle.contains(&"win".to_string()));
            }
            other => panic!("expected Unstratifiable, got {other}"),
        }
    }

    #[test]
    fn aggregates_fold_groups_at_the_stratum_boundary() {
        // A one-level bill of materials: sum/min/max/count per assembly.
        let program = parse_program(
            "part_cost(A, C) :- uses(A, P), price(P, C).
             total(A, sum<C>) :- part_cost(A, C).
             cheapest(A, min<C>) :- part_cost(A, C).
             priciest(A, max<C>) :- part_cost(A, C).
             breadth(A, count<P>) :- uses(A, P).",
        )
        .unwrap();
        let mut db = Database::new();
        let mut link = |pred: &str, a: &str, b: Value| {
            db.insert(PredName::plain(pred), vec![Value::sym(a), b]);
        };
        link("uses", "bike", Value::sym("wheel"));
        link("uses", "bike", Value::sym("frame"));
        link("uses", "cart", Value::sym("wheel"));
        link("price", "wheel", Value::Int(30));
        link("price", "frame", Value::Int(100));
        let result = Evaluator::new(program).run(&db).unwrap();
        let db = &result.database;
        let rows = |pred: &str| -> BTreeSet<(String, i64)> {
            db.relation(&PredName::plain(pred))
                .unwrap()
                .iter()
                .map(|row| {
                    let Value::Int(v) = row[1] else {
                        panic!("expected an integer aggregate result")
                    };
                    (row[0].to_string(), v)
                })
                .collect()
        };
        assert_eq!(
            rows("total"),
            BTreeSet::from([("bike".to_string(), 130), ("cart".to_string(), 30)])
        );
        assert_eq!(
            rows("cheapest"),
            BTreeSet::from([("bike".to_string(), 30), ("cart".to_string(), 30)])
        );
        assert_eq!(
            rows("priciest"),
            BTreeSet::from([("bike".to_string(), 100), ("cart".to_string(), 30)])
        );
        assert_eq!(
            rows("breadth"),
            BTreeSet::from([("bike".to_string(), 2), ("cart".to_string(), 1)])
        );
    }

    #[test]
    fn aggregate_over_non_integers_is_a_type_error() {
        let program = parse_program("tallest(max<N>) :- name(N).").unwrap();
        let mut db = Database::new();
        db.insert(PredName::plain("name"), vec![Value::sym("alice")]);
        let err = Evaluator::new(program).run(&db).unwrap_err();
        match err {
            EvalError::AggregateType { value, .. } => assert_eq!(value, "alice"),
            other => panic!("expected AggregateType, got {other}"),
        }
    }

    #[test]
    fn overflowing_sum_is_a_typed_error_naming_the_rule() {
        let program = parse_program(
            "w(a, 9223372036854775807). w(b, 1). k(x).
             t(S, sum<I>) :- w(K, I), k(S).",
        )
        .unwrap();
        let err = Evaluator::new(program).run(&Database::new()).unwrap_err();
        match err {
            EvalError::AggregateOverflow { rule } => assert!(rule.contains("sum<I>"), "{rule}"),
            other => panic!("expected AggregateOverflow, got {other}"),
        }
    }

    #[test]
    fn guarded_resume_is_refused_with_a_typed_error() {
        let program = parse_program(
            "reach(Y) :- start(Y).
             reach(Y) :- reach(X), edge(X, Y).
             unreached(X) :- node(X), not reach(X).",
        )
        .unwrap();
        let mut tracked = program.derived_preds();
        tracked.extend(program.base_preds());
        let runner = FixpointRunner::compile(&program, &tracked);
        let mut db = Database::new();
        db.insert(PredName::plain("start"), vec![Value::sym("a")]);
        db.insert(PredName::plain("node"), vec![Value::sym("b")]);
        let mut stats = EvalStats::default();
        runner.run(&mut db, &mut stats, None).unwrap();
        assert_eq!(db.count(&PredName::plain("unreached")), 1);

        let marks = runner.marks(&db);
        db.insert_pair("edge", "a", "b");
        let err = runner.resume(&mut db, marks, &mut stats, None).unwrap_err();
        assert!(matches!(err, EvalError::GuardedUnsupported { .. }));
    }

    use std::collections::BTreeSet;
}
