//! Materialized-view sessions: construct once, then maintain under live
//! fact insertions and retractions without re-running the fixpoint.
//!
//! # Insertion
//!
//! The database at a fixpoint plus one new base fact is exactly a
//! semi-naive evaluation state whose delta is that fact, so insertion
//! *re-enters* the engine's fixpoint loop
//! ([`FixpointRunner::resume`](magic_engine::FixpointRunner::resume)) with
//! the seed as the delta window.  The runner tracks *every* body predicate
//! (not just the derived ones) and joins outward from the delta through
//! delta-driven plan variants.
//!
//! Resumption is *stratum-seeded*: the runner's compiled
//! [`Schedule`](magic_datalog::Schedule) (built once per view and shared
//! by every maintenance operation) retires, on the first resumed
//! iteration, every stratum below the lowest one the seeds can reach, so
//! a single-fact update re-enters the scheduler at its dirty stratum
//! instead of re-walking the full rule list each iteration.
//!
//! # Retraction
//!
//! One algorithm, **DRed (delete and re-derive)**.  Magic rewriting makes
//! a recursive query's whole cone recursive through its magic predicates,
//! and on recursive cones cyclic support (the classic `p ⇄ q` island that
//! keeps itself alive) rules out reference counting anyway.  An
//! *overdeletion* shadow program computes the overapproximate deleted set,
//! those rows are removed in one batch, rows with a surviving alternative
//! one-step derivation are re-inserted as seeds, and the fixpoint is
//! resumed to propagate re-derivations.  The recount is one head-bound
//! [`count_derivations_batch`] join per (overdeleted predicate, deriving
//! rule) over the packed rows the overdeletion collected: the plan is
//! bound to the database once, and each row pays only its own probes.
//! [`MaterializedView::verify_support`] checks foundedness through the
//! same batch join.  Every plan on this path — shadow rules, head-bound
//! recounts, the resumed delta variants — takes its body order from
//! [`sip_order`], so each step costs in proportion to the rows it moves,
//! not to the relations it reads.  Removal is cheap at the tail too: the
//! overdeleted rows are nearly always the newest, and storage finds an
//! index victim by galloping back from the end of its posting list.  A
//! retracted predicate that no rule body reads cannot affect any derived
//! fact: its row is simply removed.
//!
//! Maintenance leaves the database bit-for-bit equal (as a fact set) to a
//! from-scratch evaluation of the program over the updated base facts —
//! the oracle the test suite checks against, following Drabent's
//! correctness-proof framing of magic-transformation equivalence.

use crate::error::IncrError;
use magic_datalog::{arena::intern_row, Atom, Fact, PredName, Program, ValId};
use magic_engine::{
    count_derivations_batch, sip_order, with_body_order, EvalStats, FixpointRunner, Limits,
    WindowDiscipline,
};
use magic_storage::Database;
use std::borrow::Borrow;
use std::collections::{BTreeMap, BTreeSet, HashSet};

/// A packed (interned) row, the representation maintenance works in; values
/// are decoded only at the public API edge.
type PackedRow = Vec<ValId>;

/// One element of a batched update stream.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Update {
    /// Insert a base fact.
    Insert(Fact),
    /// Retract a base fact.
    Retract(Fact),
}

impl Update {
    /// The fact being inserted or retracted.
    pub fn fact(&self) -> &Fact {
        match self {
            Update::Insert(f) | Update::Retract(f) => f,
        }
    }
}

/// What a batched [`MaterializedView::apply`] did.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ApplyReport {
    /// Updates that changed the database (fact was new / was present).
    pub applied: usize,
    /// Updates that were no-ops (duplicate insert, absent retract).
    pub no_ops: usize,
}

/// A batch in progress on one view, carried from one update to the next.
#[derive(Default)]
pub(crate) struct Batch {
    report: ApplyReport,
    /// Marks taken before the first base change not yet propagated, if
    /// any (a recompute ignores them).
    pending: Option<Vec<usize>>,
    /// What [`MaterializedView::begin`] left for [`MaterializedView::end`].
    begun: Option<Begun>,
}

/// The one base write, for a view's own base facts and a catalog's alike;
/// a removal compacts the relation once enough of its slots are dead.
pub(crate) fn write_base(db: &mut Database, update: &Update) {
    match update {
        Update::Insert(fact) => {
            db.insert_fact(fact);
        }
        Update::Retract(fact) => {
            db.remove_fact(fact);
            maybe_compact(db, &fact.pred);
        }
    }
}

/// Reclaim tombstoned storage of `pred`'s relation once the dead-slot
/// share crosses a threshold.  Called between maintenance operations only:
/// compaction renumbers row ids, and fresh delta marks are taken after it.
fn maybe_compact(db: &mut Database, pred: &PredName) {
    const MIN_TOMBSTONES: usize = 256;
    if let Some(rel) = db.relation_mut_opt(pred) {
        if rel.tombstones() >= MIN_TOMBSTONES && rel.tombstones() * 2 >= rel.watermark() {
            rel.compact();
        }
    }
}

/// How the view propagates base-fact updates.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum MaintenanceMode {
    /// Delta-driven resume for inserts, DRed for retracts.
    Incremental,
    /// Every update re-runs the stratified fixpoint from the base facts
    /// and swaps the result in.  v1 policy for guarded (negation /
    /// aggregate) programs; the reason names the construct responsible.
    Recompute {
        /// Why incremental maintenance is off, e.g. "program uses negation".
        reason: String,
    },
}

impl MaintenanceMode {
    /// The mode a view of `program` is maintained in.  Guarded programs
    /// (negation / aggregates) fall back to full recompute on every
    /// update: a retracted fact can *add* facts through a complement, so
    /// DRed is unsound, and aggregate outputs carry no per-derivation
    /// support.
    pub fn of(program: &Program) -> MaintenanceMode {
        if program.rules.iter().any(|r| !r.negated.is_empty()) {
            MaintenanceMode::Recompute {
                reason: "program uses negation".into(),
            }
        } else if program.rules.iter().any(|r| r.aggregate.is_some()) {
            MaintenanceMode::Recompute {
                reason: "program uses aggregates".into(),
            }
        } else {
            MaintenanceMode::Incremental
        }
    }
}

/// A live materialized view: a program fixpoint maintained under
/// insertions and retractions of base facts.
///
/// ```
/// use magic_datalog::{parse_program, Fact, PredName, Value};
/// use magic_incr::MaterializedView;
/// use magic_storage::Database;
///
/// let program = parse_program(
///     "anc(X, Y) :- par(X, Y).
///      anc(X, Y) :- par(X, Z), anc(Z, Y).",
/// )
/// .unwrap();
/// let mut db = Database::new();
/// db.insert_pair("par", "a", "b");
///
/// let mut view = MaterializedView::new(&program, &db).unwrap();
/// assert_eq!(view.database().count(&PredName::plain("anc")), 1);
///
/// let edge = Fact::plain("par", vec![Value::sym("b"), Value::sym("c")]);
/// view.insert(&edge).unwrap();
/// assert_eq!(view.database().count(&PredName::plain("anc")), 3);
///
/// view.retract(&edge).unwrap();
/// assert_eq!(view.database().count(&PredName::plain("anc")), 1);
/// ```
#[derive(Clone, Debug)]
pub struct MaterializedView {
    program: Program,
    runner: FixpointRunner,
    db: Database,
    base_preds: BTreeSet<PredName>,
    derived_preds: BTreeSet<PredName>,
    /// Rows of derived predicates that were present in the initial EDB or
    /// came in through [`MaterializedView::add_seed`].  They are axioms,
    /// not derivations: retraction never deletes them, whether or not a
    /// rule still derives them.
    exogenous: BTreeMap<PredName, HashSet<PackedRow>>,
    /// The overdeletion shadow machine, built on first DRed retraction.
    od: Option<OdMachine>,
    /// One atom per answer-index pattern the view was asked for, so a
    /// recompute can index its rebuilt database the same way.
    answer_atoms: Vec<Atom>,
    limits: Limits,
    /// Cumulative maintenance metrics (construction + every update).
    stats: EvalStats,
    /// How updates propagate ([`MaintenanceMode::Recompute`] for guarded
    /// programs).
    mode: MaintenanceMode,
    /// How many full recomputes updates have forced (0 in incremental
    /// mode) — surfaced through the catalog into serving STATS so the
    /// fallback is visible, not silent.
    recomputes: u64,
}

/// The compiled overdeletion program: for each rule `h :- b1 … bk` of the
/// source program and each occurrence `i`, a rule `od_h :- od_bi, …` whose
/// body leads with the shadow atom — evaluation fans out from the tiny
/// deleted set — and visits the other atoms in [`sip_order`] from there,
/// so each is reached through the variables the deleted row (and the
/// atoms before it) bound:
/// `~od~anc(X, Y) :- ~od~anc(Z, Y), par(X, Z), magic(X)` probes `par` on
/// `Z` and then `magic` on the one `X` that binds, where the written order
/// (`magic(X), par(X, Z)`) scanned all of `magic` per deleted row.  Any
/// order computes the same shadow relations; see `sip_order`.  `od_p ⊆ p`
/// always holds: every shadow row witnesses a real derivation over the
/// pre-deletion fixpoint.
#[derive(Clone, Debug)]
struct OdMachine {
    runner: FixpointRunner,
    /// Original predicate -> shadow predicate.
    shadow: BTreeMap<PredName, PredName>,
}

/// The shadow (overdeletion) name of a predicate.  The `~` prefix cannot be
/// produced by the parser, so shadow names cannot collide with program
/// predicates.
fn shadow_pred(pred: &PredName) -> PredName {
    PredName::plain(&format!("~od~{pred}"))
}

/// Memoized shadow name of `pred`.
fn shadow_entry(map: &mut BTreeMap<PredName, PredName>, pred: &PredName) -> PredName {
    map.entry(pred.clone())
        .or_insert_with(|| shadow_pred(pred))
        .clone()
}

impl OdMachine {
    fn build(program: &Program, limits: Limits) -> OdMachine {
        let mut shadow: BTreeMap<PredName, PredName> = BTreeMap::new();
        let mut od_rules = Vec::new();
        for rule in &program.rules {
            for occ in 0..rule.body.len() {
                let mut od_rule =
                    with_body_order(rule, &sip_order(rule, Some(occ), &BTreeSet::new()));
                od_rule.head.pred = shadow_entry(&mut shadow, &rule.head.pred);
                od_rule.body[0].pred = shadow_entry(&mut shadow, &rule.body[occ].pred);
                od_rules.push(od_rule);
            }
        }
        let od_program = Program::from_rules(od_rules);
        let runner = FixpointRunner::for_program(&od_program).with_limits(limits);
        OdMachine { runner, shadow }
    }
}

impl MaterializedView {
    /// Materialize the fixpoint of `program` over `edb` and return the
    /// live view session.
    pub fn new(program: &Program, edb: &Database) -> Result<MaterializedView, IncrError> {
        MaterializedView::with_limits(program, edb, Limits::default())
    }

    /// Like [`MaterializedView::new`] with explicit evaluation limits
    /// (applied to construction and to every maintenance operation).
    pub fn with_limits(
        program: &Program,
        edb: &Database,
        limits: Limits,
    ) -> Result<MaterializedView, IncrError> {
        let derived_preds = program.derived_preds();
        let base_preds = program.base_preds();
        let mut tracked = derived_preds.clone();
        tracked.extend(base_preds.iter().cloned());
        let runner = FixpointRunner::compile(program, &tracked)
            .with_limits(limits)
            .with_discipline(WindowDiscipline::Disjoint);

        // Derived rows already present in the EDB are axioms: record them so
        // retraction never deletes them.
        let mut exogenous: BTreeMap<PredName, HashSet<PackedRow>> = BTreeMap::new();
        for pred in &derived_preds {
            if let Some(rel) = edb.relation(pred) {
                if !rel.is_empty() {
                    exogenous.insert(
                        pred.clone(),
                        rel.iter_ids().map(|(_, row)| row.to_vec()).collect(),
                    );
                }
            }
        }

        let mut db = edb.clone();
        let mut stats = EvalStats::default();
        runner
            .run(&mut db, &mut stats, None)
            .map_err(IncrError::Eval)?;

        Ok(MaterializedView {
            program: program.clone(),
            runner,
            db,
            base_preds,
            derived_preds,
            exogenous,
            od: None,
            answer_atoms: Vec::new(),
            limits,
            stats,
            mode: MaintenanceMode::of(program),
            recomputes: 0,
        })
    }

    /// The maintained database: base facts plus every derived fact of the
    /// current fixpoint.
    pub fn database(&self) -> &Database {
        &self.db
    }

    /// The program whose fixpoint this view maintains.
    pub fn program(&self) -> &Program {
        &self.program
    }

    /// Cumulative evaluation metrics over construction and all updates.
    pub fn stats(&self) -> &EvalStats {
        &self.stats
    }

    /// The stratified schedule of the maintained program — compiled once
    /// with the view's runner and shared by construction and every
    /// insert/retract resume (see the module docs).
    pub fn schedule(&self) -> &magic_datalog::Schedule {
        self.runner.schedule()
    }

    /// Ensure the view's database carries an index on the bound-constant
    /// positions of `atom`, so answer projections probe an index instead of
    /// scanning.  Built once (cheap) and thereafter maintained
    /// incrementally by every insert and (tombstone) retract the view
    /// applies — never rebuilt per query.
    ///
    /// A no-op unless the atom's relation already exists at the atom's
    /// arity (materialization creates every program relation): indexing a
    /// foreign or mistyped atom must not plant a wrong-arity relation in
    /// the maintained database.
    pub fn ensure_answer_index(&mut self, atom: &Atom) {
        let matches = self
            .db
            .relation(&atom.pred)
            .is_some_and(|rel| rel.arity() == atom.arity());
        if !matches {
            return;
        }
        magic_engine::answers::ensure_atom_index(&mut self.db, atom);
        let pattern = |a: &Atom| {
            let ground: Vec<bool> = a.terms.iter().map(|t| t.vars().is_empty()).collect();
            (a.pred.clone(), ground)
        };
        if !self
            .answer_atoms
            .iter()
            .any(|a| pattern(a) == pattern(atom))
        {
            self.answer_atoms.push(atom.clone());
        }
    }

    /// Why incremental maintenance is off, if it is ([`None`] for
    /// incremental views) — the typed reason the serving layer surfaces.
    pub fn recompute_reason(&self) -> Option<&str> {
        match &self.mode {
            MaintenanceMode::Incremental => None,
            MaintenanceMode::Recompute { reason } => Some(reason),
        }
    }

    /// How many full recomputes updates have forced so far.
    pub fn recompute_count(&self) -> u64 {
        self.recomputes
    }

    /// Reject updates on predicates the program derives (view outputs are
    /// maintained, not edited) and rows that disagree with a stored
    /// relation's arity (inserting would panic in storage).
    fn check_updatable(&self, fact: &Fact) -> Result<(), IncrError> {
        if self.derived_preds.contains(&fact.pred) {
            return Err(IncrError::NotABasePredicate {
                pred: fact.pred.to_string(),
            });
        }
        self.check_arity(fact)
    }

    /// Reject a row that disagrees with the stored relation's arity.
    pub(crate) fn check_arity(&self, fact: &Fact) -> Result<(), IncrError> {
        if let Some(rel) = self.db.relation(&fact.pred) {
            if rel.arity() != fact.arity() {
                return Err(IncrError::ArityMismatch {
                    pred: fact.pred.to_string(),
                    fact_arity: fact.arity(),
                    stored_arity: rel.arity(),
                });
            }
        }
        Ok(())
    }

    /// Insert a base fact and propagate; returns `false` (and does
    /// nothing) if the fact was already present.
    pub fn insert(&mut self, fact: &Fact) -> Result<bool, IncrError> {
        Ok(self.apply([Update::Insert(fact.clone())])?.applied == 1)
    }

    /// Retract a base fact and propagate; returns `false` (and does
    /// nothing) if the fact was not present.
    pub fn retract(&mut self, fact: &Fact) -> Result<bool, IncrError> {
        Ok(self.apply([Update::Retract(fact.clone())])?.applied == 1)
    }

    /// Add `seed` as an *axiom*: a fact the view holds whether or not its
    /// rules derive it.  This is how a query binding enters a view of a
    /// magic-rewritten program — the paper's seed is a fact of the magic
    /// predicate, and a positive program is monotone in its seeds, so one
    /// fixpoint serves every binding seeded into it.
    ///
    /// Returns whether the database moved.  A seed whose row the view
    /// already derives (another seed's cone reaches it) is only marked —
    /// no evaluation; otherwise the row is inserted and the fixpoint
    /// resumed from it.  Where the program has no rule for the seed's
    /// predicate this is [`MaterializedView::insert`].
    pub fn add_seed(&mut self, seed: &Fact) -> Result<bool, IncrError> {
        if !self.derived_preds.contains(&seed.pred) {
            return self.insert(seed);
        }
        self.check_arity(seed)?;
        let newly_marked = self
            .exogenous
            .entry(seed.pred.clone())
            .or_default()
            .insert(intern_row(&seed.values));
        if !newly_marked || self.db.contains(seed) {
            return Ok(false);
        }
        if matches!(self.mode, MaintenanceMode::Recompute { .. }) {
            self.recompute()?;
            return Ok(true);
        }
        let marks = self.runner.marks(&self.db);
        self.db.insert_fact(seed);
        self.resume(marks)?;
        Ok(true)
    }

    /// Withdraw an axiom added by [`MaterializedView::add_seed`] (or
    /// present in the initial EDB under a derived predicate); returns
    /// `false` if `seed` was not one.  The row and its cone are
    /// delete-and-rederived: whatever the remaining axioms and base facts
    /// still derive — possibly the row itself — stays.
    pub fn remove_seed(&mut self, seed: &Fact) -> Result<bool, IncrError> {
        if !self.derived_preds.contains(&seed.pred) {
            return self.retract(seed);
        }
        let was_marked = self
            .exogenous
            .get_mut(&seed.pred)
            .is_some_and(|rows| rows.remove(&intern_row(&seed.values)));
        if !was_marked {
            return Ok(false);
        }
        if matches!(self.mode, MaintenanceMode::Recompute { .. }) {
            self.recompute()?;
        } else {
            let overdeleted = self.overdelete(seed)?;
            self.rederive(overdeleted)?;
        }
        Ok(true)
    }

    /// Apply a batch of updates — owned or borrowed — in order;
    /// consecutive insertions are coalesced into one fixpoint re-entry, and
    /// in [`MaintenanceMode::Recompute`] the whole batch is one recompute.
    ///
    /// On error the already-applied prefix of the batch stays applied (and
    /// propagated), the offending update onward is dropped: the view is
    /// always left at a fixpoint of its program.
    pub fn apply<I>(&mut self, updates: I) -> Result<ApplyReport, IncrError>
    where
        I: IntoIterator,
        I::Item: Borrow<Update>,
    {
        let mut batch = Batch::default();
        let failure = updates.into_iter().find_map(|update| {
            let update = update.borrow();
            let begun = self.begin(update, &mut batch, false);
            begun
                .and_then(|()| self.end(update, &mut batch, None))
                .err()
        });
        // Flush even on the error path: pending changes are already in
        // the database, and dropping them would leave the view
        // off-fixpoint forever.
        let report = self.finish(&mut batch)?;
        failure.map_or(Ok(report), Err)
    }

    /// The first half of one update: whatever reads the base as it stood
    /// before the update — an insertion's delta marks, a retraction's
    /// overdeletion — leaving the rest to [`MaterializedView::end`], once
    /// the base is written.  With `hand_back` the view then drops its
    /// clone of the relation, so that a catalog's one write to its base
    /// finds the storage unshared.  Base changes accumulate under `batch`;
    /// an incremental retraction flushes them and propagates at once.
    pub(crate) fn begin(
        &mut self,
        update: &Update,
        batch: &mut Batch,
        hand_back: bool,
    ) -> Result<(), IncrError> {
        let fact = update.fact();
        self.check_updatable(fact)?;
        let present = self.db.contains(fact);
        if present == matches!(update, Update::Insert(_)) {
            batch.report.no_ops += 1;
            return Ok(());
        }
        batch.report.applied += 1;
        // From here on, a present fact is being retracted.
        let begun = if present && self.mode == MaintenanceMode::Incremental {
            self.flush(&mut batch.pending)?;
            // No rule body reads a predicate outside `base_preds`: no
            // derived fact can depend on its row.
            if self.base_preds.contains(&fact.pred) {
                Begun::Dred(self.overdelete(fact)?)
            } else {
                Begun::Plain
            }
        } else {
            if batch.pending.is_none() {
                batch.pending = Some(self.runner.marks(&self.db));
            }
            Begun::Plain
        };
        if hand_back {
            self.db.remove_relation(&fact.pred);
        }
        batch.begun = Some(begun);
        Ok(())
    }

    /// The second half of a begun update: take the base write in — make it
    /// in the view's own base facts, or adopt the relation it is in in the
    /// catalog's `base`, an `Arc` clone sharing its storage — and finish a
    /// delete-and-rederive.
    pub(crate) fn end(
        &mut self,
        update: &Update,
        batch: &mut Batch,
        base: Option<&Database>,
    ) -> Result<(), IncrError> {
        let Some(begun) = batch.begun.take() else {
            return Ok(());
        };
        let pred = &update.fact().pred;
        match base.and_then(|base| base.relation(pred)) {
            Some(relation) => self.db.insert_relation(pred.clone(), relation.clone()),
            None => write_base(&mut self.db, update),
        }
        match begun {
            Begun::Plain => Ok(()),
            Begun::Dred(overdeleted) => self.rederive(overdeleted),
        }
    }

    /// End a batch: propagate what it left pending and report it.
    pub(crate) fn finish(&mut self, batch: &mut Batch) -> Result<ApplyReport, IncrError> {
        self.flush(&mut batch.pending)?;
        Ok(batch.report)
    }

    /// Propagate the base changes `pending` holds: resume the fixpoint
    /// from its marks, or recompute it.
    fn flush(&mut self, pending: &mut Option<Vec<usize>>) -> Result<(), IncrError> {
        match pending.take() {
            None => Ok(()),
            Some(_) if matches!(self.mode, MaintenanceMode::Recompute { .. }) => self.recompute(),
            Some(marks) => self.resume(marks),
        }
    }

    /// Rebuild the fixpoint from the current base facts (plus exogenous
    /// axioms) and swap it in — the whole maintenance step in
    /// [`MaintenanceMode::Recompute`].
    fn recompute(&mut self) -> Result<(), IncrError> {
        let mut db = Database::new();
        for (pred, rel) in self.db.iter() {
            if !self.derived_preds.contains(pred) {
                db.insert_relation(pred.clone(), rel.clone());
            }
        }
        for (pred, rows) in &self.exogenous {
            for row in rows {
                db.insert(pred.clone(), magic_storage::arena::decode_row(row));
            }
        }
        let mut op_stats = EvalStats::default();
        self.runner
            .run(&mut db, &mut op_stats, None)
            .map_err(IncrError::Eval)?;
        self.stats.merge(&op_stats);
        for atom in &self.answer_atoms {
            magic_engine::answers::ensure_atom_index(&mut db, atom);
        }
        self.db = db;
        self.recomputes += 1;
        Ok(())
    }

    /// Re-enter the fixpoint from seeded deltas.
    fn resume(&mut self, marks: Vec<usize>) -> Result<(), IncrError> {
        let mut op_stats = EvalStats::default();
        self.runner
            .resume(&mut self.db, marks, &mut op_stats, None)
            .map_err(IncrError::Eval)?;
        self.stats.merge(&op_stats);
        Ok(())
    }

    /// True iff `(pred, row)` is an exogenous axiom (came in through the
    /// EDB under a derived predicate).
    fn is_exogenous(&self, pred: &PredName, row: &[ValId]) -> bool {
        self.exogenous
            .get(pred)
            .is_some_and(|rows| rows.contains(row))
    }

    /// Delete-and-rederive, first half: overdelete from `fact` — a base
    /// fact being retracted or a withdrawn axiom — through the shadow
    /// program, against the database before the deletion.
    /// [`MaterializedView::rederive`] finishes once the fact is gone.
    fn overdelete(&mut self, fact: &Fact) -> Result<Vec<Overdeleted>, IncrError> {
        if self.od.is_none() {
            self.od = Some(OdMachine::build(&self.program, self.limits));
        }
        let od = self.od.as_ref().expect("just built");

        // 1. Overdeletion fixpoint: seed the retracted fact's shadow and
        //    run the shadow program against the pre-deletion database.
        let seed_pred = od
            .shadow
            .get(&fact.pred)
            .cloned()
            .unwrap_or_else(|| shadow_pred(&fact.pred));
        self.db.insert(seed_pred, fact.values.clone());
        let mut od_stats = EvalStats::default();
        od.runner
            .run(&mut self.db, &mut od_stats, None)
            .map_err(IncrError::Eval)?;
        self.stats.merge(&od_stats);

        // 2. Collect the overdeleted rows per derived predicate (shadow
        //    rows that are actually present), each resolved to its id
        //    once, then drop every shadow relation again.
        let mut overdeleted: Vec<Overdeleted> = Vec::new();
        for (orig, shadow) in &od.shadow {
            if !self.derived_preds.contains(orig) {
                continue;
            }
            let (Some(shadow_rel), Some(rel)) = (self.db.relation(shadow), self.db.relation(orig))
            else {
                continue;
            };
            let mut hit = Overdeleted {
                pred: orig.clone(),
                arity: rel.arity(),
                ids: Vec::new(),
                rows: Vec::new(),
            };
            for (_, row) in shadow_rel.iter_ids() {
                // Axioms stay whatever the pass reached.
                let Some(id) = rel.find_id(row) else {
                    continue;
                };
                if !self.is_exogenous(orig, row) {
                    hit.ids.push(id);
                    hit.rows.extend_from_slice(row);
                }
            }
            if !hit.ids.is_empty() {
                overdeleted.push(hit);
            }
        }
        for shadow in od.shadow.values() {
            self.db.remove_relation(shadow);
        }
        Ok(overdeleted)
    }

    /// Delete-and-rederive, second half, once the retracted base fact is
    /// gone: batch-remove the overdeleted rows, re-seed those with a
    /// surviving alternative derivation, resume the fixpoint.
    fn rederive(&mut self, overdeleted: Vec<Overdeleted>) -> Result<(), IncrError> {
        // 3. Physical removal of the overdeleted derived rows — a
        //    withdrawn axiom is one of those — (tombstone marks; row ids
        //    stay valid until their own relation is compacted).  Relations
        //    with enough dead slots are compacted here, *before* the marks
        //    below are taken.
        for hit in &overdeleted {
            if let Some(rel) = self.db.relation_mut_opt(&hit.pred) {
                for &id in &hit.ids {
                    rel.remove_id(id);
                }
            }
            maybe_compact(&mut self.db, &hit.pred);
        }

        // 4. Re-derivation seeds: removed rows with at least one surviving
        //    one-step derivation from the remaining database.  All counts
        //    are taken against the seed-free database — one batch join per
        //    (predicate, deriving rule) over the packed rows — then the
        //    seeds are appended after the marks so the resumed windows
        //    propagate from the re-inserted rows.
        let mut seed_counts: Vec<Vec<usize>> = Vec::with_capacity(overdeleted.len());
        for hit in &overdeleted {
            seed_counts.push(self.support_counts(
                &hit.pred,
                hit.arity,
                &hit.rows,
                hit.ids.len(),
            )?);
        }
        let marks = self.runner.marks(&self.db);
        for (hit, counts) in overdeleted.iter().zip(&seed_counts) {
            let rel = self.db.relation_mut(&hit.pred, hit.arity);
            for (row, &count) in hit.removed().zip(counts) {
                if count > 0 {
                    rel.insert_ids_at(row);
                }
            }
        }
        self.resume(marks)
    }
}

/// What [`MaterializedView::begin`] leaves for
/// [`MaterializedView::end`] to finish once the base is written.
enum Begun {
    /// Nothing but the write.
    Plain,
    /// A delete-and-rederive: what its overdeletion reached.
    Dred(Vec<Overdeleted>),
}

/// What one overdeletion pass reached in one derived predicate.
struct Overdeleted {
    pred: PredName,
    arity: usize,
    /// The rows to remove: their ids as of the overdeletion fixpoint …
    ids: Vec<usize>,
    /// … and their values, `arity` ids per row, parallel to `ids`.
    rows: Vec<ValId>,
}

impl Overdeleted {
    /// The removed rows, in `ids` order.  (Not `chunks_exact`: a fully
    /// bound magic or answer predicate has arity zero.)
    fn removed(&self) -> impl Iterator<Item = &[ValId]> + '_ {
        (0..self.ids.len()).map(|r| &self.rows[r * self.arity..(r + 1) * self.arity])
    }
}

impl MaterializedView {
    /// The current one-step support of each of the `n` packed rows of
    /// `rows` (`arity` ids per row, all of `pred`), computed from the
    /// database as it stands: per row, the sum over the rules deriving
    /// `pred` of their head-bound join counts.  One
    /// [`count_derivations_batch`] per rule covers every row, on the
    /// head-bound plan variants, whose access paths exploit the bindings a
    /// matched head row provides (the forward plans would scan their
    /// leading atoms instead).  The join's probes stay out of
    /// [`EvalStats`]: the recount is an oracle, not evaluation.
    fn support_counts(
        &self,
        pred: &PredName,
        arity: usize,
        rows: &[ValId],
        n: usize,
    ) -> Result<Vec<usize>, IncrError> {
        let mut counts = vec![0; n];
        for (plan_idx, plan) in self.runner.plans().iter().enumerate() {
            if &plan.head_pred != pred {
                continue;
            }
            let plan = self.runner.head_bound_plan(plan_idx);
            count_derivations_batch(plan, &self.db, arity, rows, &self.limits, &mut counts)
                .map_err(IncrError::Eval)?;
        }
        Ok(counts)
    }

    /// Check foundedness: every stored derived row has a one-step
    /// derivation from the database as it stands (per the head-bound
    /// join) or is an exogenous axiom.  A row that is neither was left
    /// behind by a retraction.  Test/debug helper — full-join cost.
    pub fn verify_support(&self) -> Result<(), String> {
        if matches!(self.mode, MaintenanceMode::Recompute { .. }) {
            // A recompute rebuilds the fixpoint from scratch, and aggregate
            // rows have no one-step derivation to check.
            return Ok(());
        }
        for pred in &self.derived_preds {
            let Some(rel) = self.db.relation(pred) else {
                continue;
            };
            let (mut rows, mut n) = (Vec::new(), 0);
            for (_, row) in rel.iter_ids() {
                if !self.is_exogenous(pred, row) {
                    rows.extend_from_slice(row);
                    n += 1;
                }
            }
            let counts = self
                .support_counts(pred, rel.arity(), &rows, n)
                .map_err(|e| e.to_string())?;
            if let Some(r) = counts.iter().position(|&count| count == 0) {
                let row = &rows[r * rel.arity()..(r + 1) * rel.arity()];
                return Err(format!(
                    "unfounded row {pred}{row:?}: present with zero support"
                ));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use magic_datalog::{parse_program, Value};
    use magic_engine::Evaluator;

    fn fact2(pred: &str, a: &str, b: &str) -> Fact {
        Fact::plain(pred, vec![Value::sym(a), Value::sym(b)])
    }

    /// The view database must equal a from-scratch evaluation over its
    /// current base facts.
    fn assert_matches_oracle(view: &MaterializedView, label: &str) {
        let mut edb = Database::new();
        for (pred, rel) in view.database().iter() {
            if !view.program().is_derived(pred) {
                for row in rel.iter() {
                    edb.insert(pred.clone(), row);
                }
            }
        }
        // Exogenous axioms are EDB rows too.
        for (pred, rows) in &view.exogenous {
            for row in rows {
                edb.insert(pred.clone(), magic_storage::arena::decode_row(row));
            }
        }
        let oracle = Evaluator::new(view.program().clone()).run(&edb).unwrap();
        let view_facts: std::collections::BTreeSet<String> =
            view.database().facts().map(|f| f.to_string()).collect();
        let oracle_facts: std::collections::BTreeSet<String> =
            oracle.database.facts().map(|f| f.to_string()).collect();
        assert_eq!(view_facts, oracle_facts, "{label}: view != oracle");
        view.verify_support()
            .unwrap_or_else(|e| panic!("{label}: {e}"));
    }

    #[test]
    fn grandparent_retraction_keeps_rows_with_a_second_derivation() {
        // Non-recursive, and one grandparent pair has two derivations:
        // overdeletion reaches it, rederivation must bring it back.
        let program = parse_program("gp(X, Z) :- par(X, Y), par(Y, Z).").unwrap();
        let mut db = Database::new();
        db.insert_pair("par", "a", "b1");
        db.insert_pair("par", "a", "b2");
        db.insert_pair("par", "b1", "c");
        db.insert_pair("par", "b2", "c");
        let mut view = MaterializedView::new(&program, &db).unwrap();
        let gp = Fact::plain("gp", vec![Value::sym("a"), Value::sym("c")]);

        // Removing one path keeps gp(a, c) through the other.
        view.retract(&fact2("par", "a", "b1")).unwrap();
        assert!(view.database().contains(&gp));
        assert_matches_oracle(&view, "after first retraction");

        // Removing the second path deletes it.
        view.retract(&fact2("par", "b2", "c")).unwrap();
        assert!(!view.database().contains(&gp));
        assert_matches_oracle(&view, "after second retraction");
    }

    #[test]
    fn triangle_rule_retracts_edges_used_at_several_occurrences() {
        // e occurs three times in the body; an edge used at several
        // occurrences of one derivation is overdeleted through each of
        // them.
        let program = parse_program("tri(X) :- e(X, Y), e(Y, Z), e(Z, X).").unwrap();
        let mut db = Database::new();
        // Triangle a-b-c plus a self-loop at d (uses the same edge three
        // times in one derivation).
        db.insert_pair("e", "a", "b");
        db.insert_pair("e", "b", "c");
        db.insert_pair("e", "c", "a");
        db.insert_pair("e", "d", "d");
        let mut view = MaterializedView::new(&program, &db).unwrap();
        assert_matches_oracle(&view, "initial");

        view.retract(&fact2("e", "d", "d")).unwrap();
        assert_matches_oracle(&view, "after self-loop retraction");
        assert!(!view
            .database()
            .contains(&Fact::plain("tri", vec![Value::sym("d")])));

        view.retract(&fact2("e", "b", "c")).unwrap();
        assert_matches_oracle(&view, "after triangle edge retraction");
        assert!(!view
            .database()
            .contains(&Fact::plain("tri", vec![Value::sym("a")])));
    }

    #[test]
    fn recursive_cone_selects_dred_and_rederives_alternatives() {
        let program = parse_program(
            "anc(X, Y) :- par(X, Y).
             anc(X, Y) :- par(X, Z), anc(Z, Y).",
        )
        .unwrap();
        let mut db = Database::new();
        db.insert_pair("par", "a", "b");
        db.insert_pair("par", "b", "c");
        db.insert_pair("par", "a", "c"); // alternative path to c
        let mut view = MaterializedView::new(&program, &db).unwrap();
        view.retract(&fact2("par", "b", "c")).unwrap();
        // anc(a, c) survives through the direct edge; anc(b, c) is gone.
        assert!(view.database().contains(&fact2("anc", "a", "c")));
        assert!(!view.database().contains(&fact2("anc", "b", "c")));
        assert_matches_oracle(&view, "after retraction with alternative");
    }

    #[test]
    fn cyclic_support_is_torn_down() {
        // The classic DRed test: on a cycle, every anc fact supports the
        // others; retracting the one bridge edge must not leave the island
        // alive.
        let program = parse_program(
            "anc(X, Y) :- par(X, Y).
             anc(X, Y) :- par(X, Z), anc(Z, Y).",
        )
        .unwrap();
        let mut db = Database::new();
        db.insert_pair("par", "a", "b");
        db.insert_pair("par", "b", "c");
        db.insert_pair("par", "c", "a"); // cycle a -> b -> c -> a
        let mut view = MaterializedView::new(&program, &db).unwrap();
        assert_eq!(view.database().count(&PredName::plain("anc")), 9);

        view.retract(&fact2("par", "b", "c")).unwrap();
        assert_matches_oracle(&view, "after breaking the cycle");
        // Only a -> b and c -> a -> b remain.
        assert_eq!(view.database().count(&PredName::plain("anc")), 3);
    }

    #[test]
    fn insert_then_retract_restores_the_original_view() {
        let program = parse_program(
            "anc(X, Y) :- par(X, Y).
             anc(X, Y) :- par(X, Z), anc(Z, Y).",
        )
        .unwrap();
        let mut db = Database::new();
        for (a, b) in [("a", "b"), ("b", "c"), ("c", "d")] {
            db.insert_pair("par", a, b);
        }
        let mut view = MaterializedView::new(&program, &db).unwrap();
        let before: std::collections::BTreeSet<String> =
            view.database().facts().map(|f| f.to_string()).collect();
        let edge = fact2("par", "d", "e");
        assert!(view.insert(&edge).unwrap());
        assert!(!view.insert(&edge).unwrap()); // duplicate is a no-op
        assert_eq!(view.database().count(&PredName::plain("anc")), 10);
        assert_matches_oracle(&view, "after insert");
        assert!(view.retract(&edge).unwrap());
        assert!(!view.retract(&edge).unwrap()); // absent is a no-op
        let after: std::collections::BTreeSet<String> =
            view.database().facts().map(|f| f.to_string()).collect();
        assert_eq!(before, after);
    }

    #[test]
    fn batched_apply_coalesces_inserts() {
        let program = parse_program(
            "anc(X, Y) :- par(X, Y).
             anc(X, Y) :- par(X, Z), anc(Z, Y).",
        )
        .unwrap();
        let mut db = Database::new();
        db.insert_pair("par", "a", "b");
        let mut view = MaterializedView::new(&program, &db).unwrap();
        let report = view
            .apply(vec![
                Update::Insert(fact2("par", "b", "c")),
                Update::Insert(fact2("par", "c", "d")),
                Update::Retract(fact2("par", "a", "b")),
                Update::Insert(fact2("par", "a", "b")), // back again
                Update::Retract(fact2("par", "zz", "zz")), // absent: no-op
            ])
            .unwrap();
        assert_eq!(report.applied, 4);
        assert_eq!(report.no_ops, 1);
        assert_eq!(view.database().count(&PredName::plain("anc")), 6);
        assert_matches_oracle(&view, "after batched apply");
    }

    #[test]
    fn failed_apply_still_propagates_the_applied_prefix() {
        // A batch that errors mid-way must leave the view at a fixpoint:
        // the coalesced inserts before the failure are flushed, not
        // stranded in the database unpropagated.
        let program = parse_program(
            "anc(X, Y) :- par(X, Y).
             anc(X, Y) :- par(X, Z), anc(Z, Y).",
        )
        .unwrap();
        let mut db = Database::new();
        db.insert_pair("par", "a", "b");
        let mut view = MaterializedView::new(&program, &db).unwrap();
        let err = view
            .apply(vec![
                Update::Insert(fact2("par", "b", "c")),
                Update::Insert(fact2("anc", "x", "y")), // derived: rejected
                Update::Insert(fact2("par", "c", "d")), // dropped
            ])
            .unwrap_err();
        assert!(matches!(err, IncrError::NotABasePredicate { .. }));
        // par(b, c) was applied and must be fully propagated.
        assert!(view.database().contains(&fact2("anc", "a", "c")));
        assert!(!view.database().contains(&fact2("par", "c", "d")));
        assert_matches_oracle(&view, "after failed batch");
    }

    #[test]
    fn derived_predicates_reject_updates() {
        let program = parse_program("anc(X, Y) :- par(X, Y).").unwrap();
        let db = Database::new();
        let mut view = MaterializedView::new(&program, &db).unwrap();
        let err = view.insert(&fact2("anc", "a", "b")).unwrap_err();
        assert!(matches!(err, IncrError::NotABasePredicate { .. }));
        let err = view
            .insert(&Fact::plain("par", vec![Value::sym("a")]))
            .unwrap_err();
        assert!(matches!(err, IncrError::ArityMismatch { .. }));
    }

    #[test]
    fn exogenous_derived_rows_survive_retraction() {
        // anc(x, y) arrives through the EDB (an axiom, not derived);
        // retracting base support must not delete it.
        let program = parse_program(
            "anc(X, Y) :- par(X, Y).
             anc(X, Y) :- par(X, Z), anc(Z, Y).",
        )
        .unwrap();
        let mut db = Database::new();
        db.insert_pair("par", "a", "b");
        db.insert_pair("anc", "x", "y"); // exogenous axiom
        let mut view = MaterializedView::new(&program, &db).unwrap();
        view.retract(&fact2("par", "a", "b")).unwrap();
        assert!(view.database().contains(&fact2("anc", "x", "y")));
        assert!(!view.database().contains(&fact2("anc", "a", "b")));
        assert_matches_oracle(&view, "after retracting all base support");
    }

    #[test]
    fn guarded_programs_fall_back_to_recompute_on_update() {
        // unreached reads the complement of reach: retracting an edge can
        // *add* unreached facts, which no support-counting scheme models.
        // The view must select recompute mode, stay oracle-exact through
        // inserts and retracts, and report the typed reason.
        let program = parse_program(
            "reach(X) :- source(X).
             reach(Y) :- reach(X), edge(X, Y).
             unreached(X) :- node(X), not reach(X).",
        )
        .unwrap();
        let mut db = Database::new();
        db.insert(PredName::plain("source"), vec![Value::sym("a")]);
        db.insert_pair("edge", "a", "b");
        for n in ["a", "b", "c"] {
            db.insert(PredName::plain("node"), vec![Value::sym(n)]);
        }
        let mut view = MaterializedView::new(&program, &db).unwrap();
        assert_eq!(view.recompute_reason(), Some("program uses negation"));
        let unreached_c = Fact::plain("unreached", vec![Value::sym("c")]);
        assert!(view.database().contains(&unreached_c));

        // Insert edge(b, c): c becomes reached, unreached(c) disappears —
        // an insertion *deleting* a derived fact, the non-monotone case.
        assert!(view.insert(&fact2("edge", "b", "c")).unwrap());
        assert!(!view.database().contains(&unreached_c));
        assert_matches_oracle(&view, "after insert under negation");

        // Retract it again: unreached(c) must come back.
        assert!(view.retract(&fact2("edge", "b", "c")).unwrap());
        assert!(view.database().contains(&unreached_c));
        assert_matches_oracle(&view, "after retract under negation");
        assert_eq!(view.recompute_count(), 2);
    }

    #[test]
    fn aggregate_views_recompute_and_batched_apply_coalesces() {
        let program = parse_program("total(P, sum<C>) :- part_cost(P, C).").unwrap();
        let mut db = Database::new();
        db.insert(
            PredName::plain("part_cost"),
            vec![Value::sym("bike"), Value::int(100)],
        );
        let mut view = MaterializedView::new(&program, &db).unwrap();
        assert_eq!(view.recompute_reason(), Some("program uses aggregates"));
        let total = |n: i64| Fact::plain("total", vec![Value::sym("bike"), Value::int(n)]);
        assert!(view.database().contains(&total(100)));

        // One batch, one recompute: the old total is replaced, not kept.
        let report = view
            .apply(vec![
                Update::Insert(Fact::plain(
                    "part_cost",
                    vec![Value::sym("bike"), Value::int(30)],
                )),
                Update::Insert(Fact::plain(
                    "part_cost",
                    vec![Value::sym("bike"), Value::int(30)],
                )), // duplicate: no-op
            ])
            .unwrap();
        assert_eq!(report.applied, 1);
        assert_eq!(report.no_ops, 1);
        assert!(view.database().contains(&total(130)));
        assert!(!view.database().contains(&total(100)));
        assert_eq!(view.recompute_count(), 1);
    }

    #[test]
    fn recompute_keeps_the_answer_index() {
        // A recompute swaps in a rebuilt database; the answer index the
        // view was asked for must come with it, or answers fall back to a
        // scan after the first update.
        let program = parse_program("total(P, sum<C>) :- part_cost(P, C).").unwrap();
        let part_cost = |n: i64| Fact::plain("part_cost", vec![Value::sym("bike"), Value::int(n)]);
        let mut db = Database::new();
        db.insert_fact(&part_cost(100));
        let mut view = MaterializedView::new(&program, &db).unwrap();
        view.ensure_answer_index(&Atom::plain(
            "total",
            vec![
                magic_datalog::Term::sym("bike"),
                magic_datalog::Term::var("S"),
            ],
        ));
        let indexed = |view: &MaterializedView| {
            let total = view.database().relation(&PredName::plain("total"));
            total.is_some_and(|rel| rel.index_ref(&[0]).is_some())
        };
        assert!(indexed(&view));
        assert!(view.insert(&part_cost(30)).unwrap());
        assert_eq!(view.recompute_count(), 1);
        assert!(indexed(&view));
    }

    #[test]
    fn mixed_cone_retracts_through_either_predicate() {
        // par feeds the recursive anc; tag only feeds the non-recursive
        // label.  Both retract by delete-and-rederive.
        let program = parse_program(
            "anc(X, Y) :- par(X, Y).
             anc(X, Y) :- par(X, Z), anc(Z, Y).
             label(X, L) :- tag(X, L).",
        )
        .unwrap();
        let mut db = Database::new();
        db.insert_pair("par", "a", "b");
        db.insert_pair("tag", "a", "red");
        let mut view = MaterializedView::new(&program, &db).unwrap();
        view.retract(&fact2("tag", "a", "red")).unwrap();
        assert!(!view.database().contains(&fact2("label", "a", "red")));
        assert_matches_oracle(&view, "after retracting a tag");
        view.retract(&fact2("par", "a", "b")).unwrap();
        assert!(!view.database().contains(&fact2("anc", "a", "b")));
        assert_matches_oracle(&view, "after retracting a par edge");
    }

    #[test]
    fn retracting_a_predicate_no_body_reads_only_removes_its_row() {
        // note is stored beside the program's relations but read by no
        // rule: its retraction runs no evaluation at all.
        let program = parse_program(
            "anc(X, Y) :- par(X, Y).
             anc(X, Y) :- par(X, Z), anc(Z, Y).",
        )
        .unwrap();
        let mut db = Database::new();
        db.insert_pair("par", "a", "b");
        db.insert_pair("note", "a", "b");
        let mut view = MaterializedView::new(&program, &db).unwrap();
        let before = view.stats().clone();
        assert!(view.retract(&fact2("note", "a", "b")).unwrap());
        assert_eq!(view.stats(), &before);
        assert!(!view.database().contains(&fact2("note", "a", "b")));
        assert!(view
            .database()
            .iter()
            .all(|(pred, _)| !pred.to_string().starts_with("~od~")));
        assert_matches_oracle(&view, "after retracting a note");
    }
}
