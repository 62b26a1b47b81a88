//! A catalog of live materialized views: one view per program, one seed
//! per query binding.
//!
//! A query is planned once (rewritten under the catalog's strategy) and
//! named by its *adorned binding key* — answer predicate, bound/free
//! adornment, bound constants (`anc_bf[bf](john)@gms`).  In the paper that
//! binding is nothing but a *fact* of the magic predicate (the rewrites
//! end with `Rule::fact(seed)`); a positive rewritten program is monotone
//! in those facts, derives only facts of the original program, and is
//! complete seed by seed (Drabent's proof, PAPERS.md).  So the catalog
//! takes the seed *out* of the program before looking for a view: every
//! binding of one adorned predicate plans to the same seedless program,
//! hence the same [`MaterializedView`], and enters it through
//! [`MaterializedView::add_seed`] — a resume from one row, or nothing at
//! all when another binding's cone already derives it.  Answers are one
//! probe of the shared answer relation's bound-position index; evicting a
//! binding is [`MaterializedView::remove_seed`]; a view goes with its last
//! binding; [`ViewCatalog::apply_all`] maintains each view once, whatever
//! the number of bindings.
//!
//! Where one fixpoint cannot serve many seeds the seed stays in the
//! program, and the same keying gives that binding a view of its own:
//! under the counting strategies (indices are distances from *one* seed)
//! and for guarded programs (recompute-on-update, not monotone).
//!
//! Every view is a function of the same base facts plus its seeds, so the
//! catalog holds those facts once, [`ViewCatalog::base`], given by
//! [`ViewCatalog::with_base`] or by the first [`ViewCatalog::materialize`]
//! (whose `edb` is ignored after that).  [`ViewCatalog::apply_all`]
//! writes each update to it once, and each view adopts the written
//! relation — an `Arc` clone sharing its storage — after reading what
//! needs the pre-update base off the clone it still holds.

use crate::error::IncrError;
use crate::view::{write_base, Batch, MaintenanceMode, MaterializedView, Update};
use magic_core::planner::{Plan, PlanError, Planner, Strategy};
use magic_datalog::{Atom, Fact, PredName, Program, Query, Rule, Value, Variable};
use magic_engine::{answers::project_answers, EvalStats, Limits};
use magic_storage::Database;
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

/// Errors raised by catalog operations.
#[derive(Clone, Debug)]
pub enum CatalogError {
    /// Planning (adornment / rewriting) failed.
    Plan(PlanError),
    /// Materializing or maintaining the view failed.
    Incr(IncrError),
}

impl fmt::Display for CatalogError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CatalogError::Plan(e) => write!(f, "planning error: {e}"),
            CatalogError::Incr(e) => write!(f, "maintenance error: {e}"),
        }
    }
}

impl std::error::Error for CatalogError {}

impl From<PlanError> for CatalogError {
    fn from(e: PlanError) -> Self {
        CatalogError::Plan(e)
    }
}

impl From<IncrError> for CatalogError {
    fn from(e: IncrError) -> Self {
        CatalogError::Incr(e)
    }
}

/// What a batched [`ViewCatalog::apply_all`] did.
#[derive(Clone, Debug, Default)]
pub struct ApplyAllOutcome {
    /// State-changing applications, summed over all surviving views.
    pub applied: usize,
    /// Every binding of every surviving view the batch moved (at least
    /// one update was not a no-op for it): exactly what the serving layer
    /// republishes.
    pub changed: Vec<String>,
    /// Bindings evicted because their view's maintenance failed, with the
    /// error that condemned it; they re-materialize on next sight.
    pub evicted: Vec<(String, CatalogError)>,
}

/// One maintained fixpoint and what the bindings seeded into it share.
#[derive(Clone, Debug)]
struct SharedView {
    view: MaterializedView,
    /// The base predicates whose relation the view keeps to itself, never
    /// shared with the base: its program's facts' and its seeds'.
    private: BTreeSet<PredName>,
    /// What [`ViewCatalog::snapshot_view`] hands out, frozen on the first
    /// request after the view last moved: every binding of the view shares
    /// one copy-on-write clone.  The catalog never keeps it alive by
    /// itself across a write: before one, a snapshot no reader holds is
    /// dropped ([`SharedView::release_unheld`]), so the write finds its
    /// storage unshared and copies nothing.
    frozen: OnceLock<Arc<FrozenView>>,
}

impl SharedView {
    /// Drop the cached snapshot if the catalog is its only holder.  No
    /// reader can tell: the next [`ViewCatalog::snapshot_view`] freezes the
    /// same state again, by `Arc` pointer bumps.  A snapshot a reader
    /// still holds stays cached, and copy-on-write keeps it frozen while
    /// the view moves on.
    fn release_unheld(&mut self) {
        if self.frozen.get().is_some_and(|f| Arc::strong_count(f) == 1) {
            self.frozen = OnceLock::new();
        }
    }
}

/// A view's database and metrics at one instant.
#[derive(Debug)]
struct FrozenView {
    db: Database,
    stats: EvalStats,
    recompute_reason: Option<String>,
    recomputes: u64,
}

/// One query binding: which view answers it and how to read the answers
/// back out.
#[derive(Clone, Debug)]
struct Binding {
    view: u64,
    /// The magic seed this binding holds in its view; [`None`] when the
    /// seed is a rule of the view's program or the query binds nothing.
    seed: Option<Fact>,
    answer_atom: Atom,
    projection: Vec<Variable>,
    /// Logical and wall-clock time of the last materialize request: what
    /// the `max_views` cap and the TTL rank by.  Maintenance does not bump
    /// them: being updated is not being *used*.
    last_used: u64,
    last_used_at: Instant,
    /// What [`ViewCatalog::export_bindings`] persists.
    query_text: String,
}

/// Take the seed out of `plan.program` — leaving the program the plan's
/// view maintains — and return it as what the binding adds to that view.
/// The seed leaves exactly when one fixpoint can serve many seeds (see the
/// module docs); otherwise the program stays whole and there is none.
fn take_seed(plan: &mut Plan) -> Option<Fact> {
    let shareable = !plan.strategy.is_counting()
        && MaintenanceMode::of(&plan.program) == MaintenanceMode::Incremental;
    let seed = plan
        .rewritten
        .as_ref()?
        .seed
        .as_ref()
        .filter(|_| shareable)?;
    let rule = Rule::fact(seed.to_atom());
    let at = plan.program.rules.iter().position(|r| *r == rule)?;
    plan.program.rules.remove(at);
    Some(seed.clone())
}

/// A frozen, self-contained reading surface over one binding, produced by
/// [`ViewCatalog::snapshot_view`].  Its [`Database`] is a copy-on-write
/// clone of the live view's — `Arc` pointer bumps, O(relations) (see
/// [`magic_storage::cow_clones`]) — taken once per view per change and
/// shared by the snapshots of all its bindings; it stays bit-stable while
/// the writer keeps maintaining the live view.
#[derive(Clone, Debug)]
pub struct ViewSnapshot {
    frozen: Arc<FrozenView>,
    answer_atom: Atom,
    projection: Vec<Variable>,
}

impl ViewSnapshot {
    /// The query's answers as of this snapshot (probes the answer index
    /// the view maintains; never scans).
    pub fn answers(&self) -> BTreeSet<Vec<Value>> {
        project_answers(&self.frozen.db, &self.answer_atom, &self.projection)
    }

    /// The frozen database: base facts plus every derived fact of the
    /// view's fixpoint — for all its bindings, not this one alone.
    pub fn database(&self) -> &Database {
        &self.frozen.db
    }

    /// Cumulative maintenance metrics of the view as of this snapshot.
    pub fn stats(&self) -> &EvalStats {
        &self.frozen.stats
    }

    /// Why the view is maintained by full recompute, if it is — see
    /// [`MaterializedView::recompute_reason`].
    pub fn recompute_reason(&self) -> Option<&str> {
        self.frozen.recompute_reason.as_deref()
    }

    /// Full recomputes updates had forced as of this snapshot.
    pub fn recompute_count(&self) -> u64 {
        self.frozen.recomputes
    }
}

/// Live materialized views — one per distinct program — and the query
/// bindings seeded into them, keyed by adorned binding.
///
/// ```
/// use magic_core::planner::Strategy;
/// use magic_datalog::{parse_program, parse_query, Fact, Value};
/// use magic_incr::{Update, ViewCatalog};
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
/// let mut catalog = ViewCatalog::new(Strategy::MagicSets);
/// let a = catalog.materialize(&program, &parse_query("anc(a, Y)").unwrap(), &db).unwrap();
/// let b = catalog.materialize(&program, &parse_query("anc(b, Y)").unwrap(), &db).unwrap();
/// // Two bindings, one maintained fixpoint.
/// assert_eq!((catalog.len(), catalog.materialized()), (2, 1));
///
/// let edge = Fact::plain("par", vec![Value::sym("b"), Value::sym("c")]);
/// let outcome = catalog.apply_all(&[Update::Insert(edge)]);
/// assert_eq!(outcome.changed, vec![a.clone(), b.clone()]);
/// assert_eq!(catalog.answers(&a).unwrap().len(), 2);
/// assert_eq!(catalog.answers(&b).unwrap().len(), 1);
/// ```
#[derive(Clone, Debug)]
pub struct ViewCatalog {
    strategy: Strategy,
    limits: Limits,
    /// The base facts every view shares, once given.
    base: Option<Database>,
    views: BTreeMap<u64, SharedView>,
    bindings: BTreeMap<String, Binding>,
    /// Id of the view built last.
    last_view: u64,
    /// Cap on live bindings and on their idle time; `None` = unbounded.
    max_views: Option<usize>,
    view_ttl: Option<Duration>,
    /// Logical clock feeding `Binding::last_used`.
    clock: u64,
}

impl ViewCatalog {
    /// An empty catalog materializing under `strategy`.
    pub fn new(strategy: Strategy) -> ViewCatalog {
        ViewCatalog {
            strategy,
            limits: Limits::default(),
            base: None,
            views: BTreeMap::new(),
            bindings: BTreeMap::new(),
            last_view: 0,
            max_views: None,
            view_ttl: None,
            clock: 0,
        }
    }

    /// Give a catalog with no view yet its base facts (see the module docs).
    pub fn with_base(mut self, base: Database) -> ViewCatalog {
        assert!(self.views.is_empty(), "a catalog with views has its base");
        self.base = Some(base);
        self
    }

    /// Override the evaluation limits applied to every view.
    pub fn with_limits(mut self, limits: Limits) -> ViewCatalog {
        self.limits = limits;
        self
    }

    /// Cap the catalog at `max_views` live bindings (0 means unbounded).
    /// A materialization past the cap drops the **coldest** bindings —
    /// least recently requested through [`ViewCatalog::materialize`] —
    /// never the one just made.  An evicted binding is not an error: it
    /// re-materializes on next sight.
    pub fn with_max_views(mut self, max_views: usize) -> ViewCatalog {
        self.max_views = (max_views > 0).then_some(max_views);
        self
    }

    /// Expire bindings not *requested* for `ttl` (a zero duration means
    /// no expiry); composes with the [`ViewCatalog::with_max_views`] count
    /// cap.  Expired bindings are dropped whenever
    /// [`ViewCatalog::materialize_keyed`] adds a binding and whenever the
    /// owner calls [`ViewCatalog::evict_expired`] (the serving writer does
    /// so whenever a sweep is due); they re-materialize on next sight.
    pub fn with_view_ttl(mut self, ttl: Duration) -> ViewCatalog {
        self.view_ttl = (ttl > Duration::ZERO).then_some(ttl);
        self
    }

    /// Plan `(program, query)` under the catalog's strategy and make its
    /// binding live: build the view of the planned program over the base
    /// if no view maintains that program yet, then seed the binding into
    /// it.  `edb` becomes the base of a catalog that has none yet and is
    /// ignored after that.  A binding already live *under the same planned
    /// program* is a cache hit; one whose view maintains a different
    /// program (the caller changed the rules) moves to the new program's
    /// view instead of serving answers for the old rules.  Returns the key.
    pub fn materialize(
        &mut self,
        program: &Program,
        query: &Query,
        edb: &Database,
    ) -> Result<String, CatalogError> {
        self.base.get_or_insert_with(|| edb.clone());
        self.materialize_keyed(program, query, Instant::now())
            .map(|(key, _)| key)
    }

    /// [`ViewCatalog::materialize`] over the catalog's base at `now` (what
    /// the TTL measures the binding's idle time from), additionally
    /// reporting whether the binding was (re)made: `false` means a cache
    /// hit on a live binding and an unchanged catalog — the serving layer
    /// then skips publishing.
    ///
    /// On a maintenance error the catalog stays consistent but has dropped
    /// the view the binding was headed for, with the bindings it had; they
    /// re-materialize on next sight.
    pub fn materialize_keyed(
        &mut self,
        program: &Program,
        query: &Query,
        now: Instant,
    ) -> Result<(String, bool), CatalogError> {
        let mut plan = self.plan(program, query)?;
        let key = self.key_of(&plan, query);
        let seed = take_seed(&mut plan);
        let program = &plan.program;
        self.clock += 1;
        let tick = self.clock;
        if let Some(binding) = self.bindings.get_mut(&key) {
            binding.last_used = tick;
            binding.last_used_at = now;
            if self.views[&binding.view].view.program() == program {
                return Ok((key, false));
            }
            self.evict(&key);
        }
        let id = match self.views.iter().find(|(_, v)| v.view.program() == program) {
            Some((id, _)) => *id,
            None => {
                let base = self.base.get_or_insert_with(Database::new);
                let view = MaterializedView::with_limits(program, base, self.limits)?;
                let facts = program.rules.iter().filter(|r| r.is_fact());
                let mut private: BTreeSet<PredName> = facts.map(|r| r.head.pred.clone()).collect();
                private.extend(seed.iter().map(|s| s.pred.clone()));
                // Adopt the new view's base relations back, so the base
                // carries every index and relation the view prepared.
                for (pred, relation) in view.database().iter() {
                    if !program.is_derived(pred) && !private.contains(pred) {
                        base.insert_relation(pred.clone(), relation.clone());
                    }
                }
                let shared = SharedView {
                    view,
                    private,
                    frozen: OnceLock::new(),
                };
                self.last_view += 1;
                self.views.insert(self.last_view, shared);
                self.last_view
            }
        };
        let shared = self.views.get_mut(&id).expect("found or just built");
        // Index the answer atom's bound positions once: every insert and
        // retract the view applies maintains it from here on, so `answers`
        // probes a warm index instead of scanning.
        shared.view.ensure_answer_index(&plan.answer_atom);
        shared.release_unheld();
        match seed.as_ref().map_or(Ok(false), |s| shared.view.add_seed(s)) {
            Ok(true) => shared.frozen = OnceLock::new(),
            Ok(false) => {}
            Err(e) => {
                self.drop_view(id);
                return Err(e.into());
            }
        }
        let binding = Binding {
            view: id,
            seed,
            answer_atom: plan.answer_atom,
            projection: plan.projection,
            last_used: tick,
            last_used_at: now,
            query_text: query.atom.to_string(),
        };
        self.bindings.insert(key.clone(), binding);
        // TTL expiry first (age-based), then the count cap: the binding
        // just touched carries a fresh timestamp on both scales, so it
        // survives either pass.
        self.evict_expired(now);
        self.evict_cold();
        Ok((key, true))
    }

    fn plan(&self, program: &Program, query: &Query) -> Result<Plan, PlanError> {
        Planner::new(self.strategy)
            .with_limits(self.limits)
            .plan(program, query)
    }

    /// A stable name for the binding of `query` under `plan`: the answer
    /// predicate with the query's adornment and bound constants (read off
    /// the query — the semijoin rewrites drop them from the answer atom),
    /// and the strategy.  Free variables' names do not matter.
    fn key_of(&self, plan: &Plan, query: &Query) -> String {
        let mut adornment = String::new();
        let mut bound: Vec<String> = Vec::new();
        for term in &query.atom.terms {
            if term.vars().is_empty() {
                adornment.push('b');
                bound.push(term.to_string());
            } else {
                adornment.push('f');
            }
        }
        let (pred, bound) = (&plan.answer_atom.pred, bound.join(", "));
        format!(
            "{pred}[{adornment}]({bound})@{}",
            self.strategy.short_name()
        )
    }

    /// Drop `key`'s binding: drop its view if this was the last binding,
    /// else withdraw its seed.  A view that fails to withdraw a seed is
    /// dropped with every binding it has.
    fn evict(&mut self, key: &str) {
        let Some(binding) = self.bindings.remove(key) else {
            return;
        };
        if !self.bindings.values().any(|b| b.view == binding.view) {
            self.views.remove(&binding.view);
        } else if let Some(seed) = &binding.seed {
            let shared = self.views.get_mut(&binding.view).expect("a live view");
            shared.frozen = OnceLock::new();
            if shared.view.remove_seed(seed).is_err() {
                self.drop_view(binding.view);
            }
        }
    }

    /// Drop a view whose maintenance failed, and every binding it has.
    fn drop_view(&mut self, id: u64) {
        self.views.remove(&id);
        self.bindings.retain(|_, binding| binding.view != id);
    }

    /// Drop every binding whose last request is older, at `now`, than the
    /// [`ViewCatalog::with_view_ttl`] window; returns the evicted keys.
    /// A no-op (returning nothing) when no TTL is configured.
    pub fn evict_expired(&mut self, now: Instant) -> Vec<String> {
        let Some(ttl) = self.view_ttl else {
            return Vec::new();
        };
        let expired: Vec<String> = self
            .bindings
            .iter()
            .filter(|(_, b)| now.saturating_duration_since(b.last_used_at) > ttl)
            .map(|(k, _)| k.clone())
            .collect();
        for key in &expired {
            self.evict(key);
        }
        expired
    }

    /// The base facts every view shares: what a checkpoint persists
    /// (empty while the catalog has none).
    pub fn base(&self) -> &Database {
        static NONE: OnceLock<Database> = OnceLock::new();
        self.base
            .as_ref()
            .unwrap_or_else(|| NONE.get_or_init(Database::new))
    }

    /// The live bindings as `(key, query text)` pairs, in key order — what
    /// a checkpoint persists so recovery can re-plan each query and seed
    /// it back into a view over the restored base facts.  (Views are
    /// rebuildable and deliberately *not* serialized.)
    pub fn export_bindings(&self) -> Vec<(String, String)> {
        self.bindings
            .iter()
            .map(|(k, b)| (k.clone(), b.query_text.clone()))
            .collect()
    }

    /// Enforce the [`ViewCatalog::with_max_views`] cap; the binding
    /// touched last carries the freshest timestamp and survives.
    fn evict_cold(&mut self) {
        let Some(cap) = self.max_views else {
            return;
        };
        while self.bindings.len() > cap {
            let coldest = self
                .bindings
                .iter()
                .min_by_key(|(_, b)| b.last_used)
                .map(|(k, _)| k.clone())
                .expect("len > cap >= 1");
            self.evict(&coldest);
        }
    }

    /// The key `materialize` would cache `(program, query)` under, by
    /// planning alone: nothing is materialized, the catalog not consulted.
    pub fn binding_key(&self, program: &Program, query: &Query) -> Result<String, CatalogError> {
        Ok(self.key_of(&self.plan(program, query)?, query))
    }

    /// True iff a binding is live under `key`.
    pub fn contains(&self, key: &str) -> bool {
        self.bindings.contains_key(key)
    }

    /// The view that answers `key` — shared with every other binding of
    /// the same program.
    pub fn view(&self, key: &str) -> Option<&MaterializedView> {
        self.bindings.get(key).map(|b| &self.views[&b.view].view)
    }

    /// The current answers of the query cached under `key`.
    pub fn answers(&self, key: &str) -> Option<BTreeSet<Vec<Value>>> {
        let binding = self.bindings.get(key)?;
        let db = self.views[&binding.view].view.database();
        Some(project_answers(
            db,
            &binding.answer_atom,
            &binding.projection,
        ))
    }

    /// A frozen [`ViewSnapshot`] of the binding cached under `key`.
    ///
    /// The first call after a view moved clones its database —
    /// O(relations) `Arc` pointer bumps — and until the view moves again
    /// every binding of it is handed that same clone.  The catalog does
    /// not keep that clone alive across a write on its own: once every
    /// snapshot of it is dropped, the next write finds the view's storage
    /// unshared and copies nothing.  While a reader holds one, writes to
    /// the live view re-copy exactly the units they touch.
    pub fn snapshot_view(&self, key: &str) -> Option<ViewSnapshot> {
        let binding = self.bindings.get(key)?;
        let shared = &self.views[&binding.view];
        let frozen = shared.frozen.get_or_init(|| {
            Arc::new(FrozenView {
                db: shared.view.database().clone(),
                stats: shared.view.stats().clone(),
                recompute_reason: shared.view.recompute_reason().map(str::to_string),
                recomputes: shared.view.recompute_count(),
            })
        });
        Some(ViewSnapshot {
            frozen: Arc::clone(frozen),
            answer_atom: binding.answer_atom.clone(),
            projection: binding.projection.clone(),
        })
    }

    /// Apply a whole batch of updates: each is written to the base once,
    /// and every view is maintained once, however many bindings read it;
    /// each view coalesces consecutive insertions into one fixpoint
    /// re-entry (see [`MaterializedView::apply`]).  The serving layer's
    /// write path; a catalog with no base yet has nothing to maintain.
    ///
    /// Updates whose predicate a view *derives* are filtered out for that
    /// view, so a heterogeneous catalog never aborts a batch midway: every
    /// view sees exactly the subsequence it can accept, in order.  A fact
    /// whose arity disagrees with the base is not written, and fails the
    /// views that store its predicate.
    ///
    /// A view whose maintenance *fails* (a limits budget, an arity
    /// mismatch) is **evicted** with its bindings, never left behind:
    /// every surviving view stays consistent with the base and the failed
    /// bindings re-materialize from it on next sight, where aborting
    /// midway would leave some views with the batch applied and others
    /// without, permanently.
    pub fn apply_all(&mut self, updates: &[Update]) -> ApplyAllOutcome {
        let mut outcome = ApplyAllOutcome::default();
        let Some(base) = self.base.as_mut() else {
            return outcome;
        };
        for shared in self.views.values_mut() {
            shared.release_unheld();
        }
        // Per view, in `views` order: its batch so far, or why it failed.
        let mut runs: Vec<Result<Batch, IncrError>> =
            self.views.keys().map(|_| Ok(Batch::default())).collect();
        for update in updates {
            let fact = update.fact();
            let stored = base.relation(&fact.pred).map(|rel| rel.arity());
            let fits = stored.is_none_or(|arity| arity == fact.arity());
            // First halves on the base as it stands, each view handing back
            // its clone of the relation, so the one write finds it unshared.
            for (shared, run) in self.views.values_mut().zip(&mut runs) {
                let Ok(batch) = run else {
                    continue;
                };
                let private = shared.private.contains(&fact.pred);
                // Updates on a predicate the view derives are not for it.
                let half = match (shared.view.program().is_derived(&fact.pred), fits) {
                    (true, _) => Ok(()),
                    (false, true) => shared.view.begin(update, batch, !private),
                    (false, false) => shared.view.check_arity(fact),
                };
                if let Err(e) = half {
                    *run = Err(e);
                }
            }
            if fits {
                write_base(base, update);
            }
            for (shared, run) in self.views.values_mut().zip(&mut runs) {
                let Ok(batch) = run else {
                    continue;
                };
                let shares = !shared.private.contains(&fact.pred);
                if let Err(e) = shared.view.end(update, batch, shares.then_some(&*base)) {
                    *run = Err(e);
                }
            }
        }
        // Per view the batch moved or failed: how its maintenance went.
        let mut verdicts: BTreeMap<u64, Result<(), CatalogError>> = BTreeMap::new();
        for ((id, shared), run) in self.views.iter_mut().zip(runs) {
            match run.and_then(|mut batch| shared.view.finish(&mut batch)) {
                Ok(report) if report.applied > 0 => {
                    outcome.applied += report.applied;
                    shared.frozen = OnceLock::new();
                    verdicts.insert(*id, Ok(()));
                }
                Ok(_) => {}
                Err(e) => {
                    verdicts.insert(*id, Err(e.into()));
                }
            }
        }
        for (key, binding) in &self.bindings {
            match verdicts.get(&binding.view) {
                Some(Ok(())) => outcome.changed.push(key.clone()),
                Some(Err(e)) => outcome.evicted.push((key.clone(), e.clone())),
                None => {}
            }
        }
        for (id, verdict) in verdicts {
            if verdict.is_err() {
                self.drop_view(id);
            }
        }
        outcome
    }

    /// Maintenance metrics summed over every view (construction plus all
    /// updates), a view shared by many bindings counted once — the serving
    /// layer's `STATS` surface.
    pub fn aggregate_stats(&self) -> EvalStats {
        let mut total = EvalStats::default();
        for shared in self.views.values() {
            total.merge(shared.view.stats());
        }
        total
    }

    /// How many views are maintained by full recompute (guarded
    /// programs), so the fallback is visible in `STATS`, never silent.
    pub fn recompute_views(&self) -> usize {
        let recomputing = |v: &&SharedView| v.view.recompute_reason().is_some();
        self.views.values().filter(recomputing).count()
    }

    /// Number of live bindings.
    pub fn len(&self) -> usize {
        self.bindings.len()
    }

    /// Number of maintained fixpoints the bindings share.
    pub fn materialized(&self) -> usize {
        self.views.len()
    }

    /// True iff no binding is live.
    pub fn is_empty(&self) -> bool {
        self.bindings.is_empty()
    }

    /// The live binding keys, in order.
    pub fn keys(&self) -> impl Iterator<Item = &str> + '_ {
        self.bindings.keys().map(String::as_str)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use magic_datalog::{parse_program, parse_query, Fact};

    #[test]
    fn apply_all_evicts_failing_views_and_keeps_the_rest_consistent() {
        // View A derives from `par`; view B also matches `tag` rows at
        // arity 2.  A batch carrying a wrong-arity `tag` fact must apply
        // to A, evict B (its maintenance errors), and leave the catalog
        // able to serve A's answers for the full batch.
        let prog_a = parse_program("anc(X, Y) :- par(X, Y).").unwrap();
        let prog_b = parse_program("label(X, L) :- tag(X, L).").unwrap();
        let qa = parse_query("anc(a, Y)").unwrap();
        let qb = parse_query("label(a, Y)").unwrap();
        // Separate base databases: only B's database stores `tag` (at
        // arity 2), so only B can reject the wrong-arity update below.
        let mut db_a = Database::new();
        db_a.insert_pair("par", "a", "b");
        let mut db_b = Database::new();
        db_b.insert_pair("tag", "a", "red");

        let mut catalog = ViewCatalog::new(Strategy::MagicSets);
        let ka = catalog.materialize(&prog_a, &qa, &db_a).unwrap();
        let kb = catalog.materialize(&prog_b, &qb, &db_b).unwrap();
        assert_eq!(catalog.len(), 2);

        let updates = vec![
            Update::Insert(Fact::plain("par", vec![Value::sym("a"), Value::sym("c")])),
            Update::Insert(Fact::plain("tag", vec![Value::sym("oops")])), // arity 1
        ];
        let outcome = catalog.apply_all(&updates);
        assert_eq!(outcome.evicted.len(), 1);
        assert_eq!(outcome.evicted[0].0, kb);
        assert_eq!(catalog.len(), 1);
        // The surviving view saw the whole batch.
        assert_eq!(catalog.answers(&ka).unwrap().len(), 2);
        // The evicted binding re-materializes on next sight.
        let (kb2, fresh) = catalog
            .materialize_keyed(&prog_b, &qb, Instant::now())
            .unwrap();
        assert_eq!(kb, kb2);
        assert!(fresh);
        assert_eq!(catalog.len(), 2);
    }

    #[test]
    fn apply_all_reports_exactly_the_views_a_batch_moved() {
        // Both views accept `par` (neither derives it), so a fresh fact
        // changes both databases; replaying the same fact is a no-op
        // everywhere and must report no changed views at all.
        let prog_a = parse_program("anc(X, Y) :- par(X, Y).").unwrap();
        let prog_b = parse_program("label(X, L) :- tag(X, L).").unwrap();
        let mut db_a = Database::new();
        db_a.insert_pair("par", "a", "b");
        let mut db_b = Database::new();
        db_b.insert_pair("tag", "a", "red");
        let mut catalog = ViewCatalog::new(Strategy::MagicSets);
        let ka = catalog
            .materialize(&prog_a, &parse_query("anc(a, Y)").unwrap(), &db_a)
            .unwrap();
        let kb = catalog
            .materialize(&prog_b, &parse_query("label(a, Y)").unwrap(), &db_b)
            .unwrap();

        let fact = Fact::plain("par", vec![Value::sym("a"), Value::sym("c")]);
        let outcome = catalog.apply_all(&[Update::Insert(fact.clone())]);
        let mut expected = vec![ka, kb];
        expected.sort();
        assert_eq!(outcome.changed, expected);
        // A no-op batch (duplicate insert) changes nothing.
        let outcome = catalog.apply_all(&[Update::Insert(fact)]);
        assert!(outcome.changed.is_empty());
        assert_eq!(outcome.applied, 0);
    }

    #[test]
    fn program_facts_stay_with_their_view_while_the_base_moves() {
        // `par(z, a)` is a fact of the program, not of the base: the view
        // keeps its own `par` relation rather than adopting the base's.
        let program = parse_program(
            "par(z, a).
             anc(X, Y) :- par(X, Y).
             anc(X, Y) :- par(X, Z), anc(Z, Y).",
        )
        .unwrap();
        let mut db = Database::new();
        db.insert_pair("par", "a", "b");
        let mut catalog = ViewCatalog::new(Strategy::SemiNaiveBottomUp).with_base(db);
        let query = parse_query("anc(z, Y)").unwrap();
        let (key, _) = catalog
            .materialize_keyed(&program, &query, Instant::now())
            .unwrap();
        assert_eq!(catalog.answers(&key).unwrap().len(), 2);
        let edge = Fact::plain("par", vec![Value::sym("b"), Value::sym("c")]);
        let outcome = catalog.apply_all(&[Update::Insert(edge.clone())]);
        assert_eq!(outcome.changed, vec![key.clone()]);
        assert_eq!(catalog.answers(&key).unwrap().len(), 3);
        assert!(catalog.base().contains(&edge));
        let program_fact = Fact::plain("par", vec![Value::sym("z"), Value::sym("a")]);
        assert!(!catalog.base().contains(&program_fact));
    }

    #[test]
    fn max_views_evicts_the_least_recently_requested_binding() {
        let program = parse_program("anc(X, Y) :- par(X, Y).").unwrap();
        let mut db = Database::new();
        db.insert_pair("par", "a", "b");
        db.insert_pair("par", "b", "c");
        db.insert_pair("par", "c", "d");
        let mut catalog = ViewCatalog::new(Strategy::MagicSets).with_max_views(2);
        let ka = catalog
            .materialize(&program, &parse_query("anc(a, Y)").unwrap(), &db)
            .unwrap();
        let kb = catalog
            .materialize(&program, &parse_query("anc(b, Y)").unwrap(), &db)
            .unwrap();
        // Re-request `a`: it becomes the warmest entry.
        catalog
            .materialize(&program, &parse_query("anc(a, Y)").unwrap(), &db)
            .unwrap();
        // A third binding overflows the cap; `b` (coldest) must go.
        let kc = catalog
            .materialize(&program, &parse_query("anc(c, Y)").unwrap(), &db)
            .unwrap();
        assert_eq!(catalog.len(), 2);
        assert!(catalog.contains(&ka));
        assert!(!catalog.contains(&kb));
        assert!(catalog.contains(&kc));
        // The evicted binding re-materializes on next sight (and evicts in
        // turn).
        let (kb2, fresh) = catalog
            .materialize_keyed(&program, &parse_query("anc(b, Y)").unwrap(), Instant::now())
            .unwrap();
        assert_eq!(kb, kb2);
        assert!(fresh);
        assert_eq!(catalog.len(), 2);
    }

    #[test]
    fn view_ttl_expires_idle_bindings_and_composes_with_the_count_cap() {
        let program = parse_program("anc(X, Y) :- par(X, Y).").unwrap();
        let mut db = Database::new();
        db.insert_pair("par", "a", "b");
        db.insert_pair("par", "b", "c");
        db.insert_pair("par", "c", "d");
        let mut catalog = ViewCatalog::new(Strategy::MagicSets)
            .with_base(db)
            .with_view_ttl(Duration::from_millis(30))
            .with_max_views(2);
        let materialize = |catalog: &mut ViewCatalog, text: &str, now: Instant| {
            let query = parse_query(text).unwrap();
            catalog.materialize_keyed(&program, &query, now).unwrap()
        };
        let start = Instant::now();
        let (ka, _) = materialize(&mut catalog, "anc(a, Y)", start);
        let (kb, _) = materialize(&mut catalog, "anc(b, Y)", start);
        // Within the TTL nothing expires.
        assert!(catalog.evict_expired(start).is_empty());
        let later = start + Duration::from_millis(40);
        // Re-request `a` to keep it warm; `b` goes stale.
        materialize(&mut catalog, "anc(a, Y)", later);
        let expired = catalog.evict_expired(later);
        assert_eq!(expired, vec![kb.clone()]);
        assert!(catalog.contains(&ka));
        assert!(!catalog.contains(&kb));
        // Expiry also runs inside materialize: let `a` go cold, then
        // materialize a fresh binding — the stale one is dropped even
        // though the count cap alone would have kept both.
        let later = later + Duration::from_millis(40);
        let (kc, _) = materialize(&mut catalog, "anc(c, Y)", later);
        assert!(catalog.contains(&kc));
        assert!(!catalog.contains(&ka));
        assert_eq!(catalog.len(), 1);
        // An expired binding is not an error: it re-materializes.
        let (ka2, fresh) = materialize(&mut catalog, "anc(a, Y)", later);
        assert_eq!(ka, ka2);
        assert!(fresh);
    }

    #[test]
    fn export_bindings_reports_keys_and_query_texts() {
        let program = parse_program("anc(X, Y) :- par(X, Y).").unwrap();
        let mut db = Database::new();
        db.insert_pair("par", "a", "b");
        let mut catalog = ViewCatalog::new(Strategy::MagicSets);
        let ka = catalog
            .materialize(&program, &parse_query("anc(a, Y)").unwrap(), &db)
            .unwrap();
        let kb = catalog
            .materialize(&program, &parse_query("anc(X, Y)").unwrap(), &db)
            .unwrap();
        let bindings = catalog.export_bindings();
        assert_eq!(bindings.len(), 2);
        let keys: Vec<&str> = bindings.iter().map(|(k, _)| k.as_str()).collect();
        assert!(keys.contains(&ka.as_str()) && keys.contains(&kb.as_str()));
        // Each exported query text re-plans to exactly its stored key —
        // the invariant recovery relies on.
        for (key, text) in &bindings {
            let query = parse_query(text).unwrap();
            assert_eq!(&catalog.binding_key(&program, &query).unwrap(), key);
        }
    }

    #[test]
    fn snapshots_stay_frozen_while_the_live_view_moves_on() {
        let program = parse_program(
            "anc(X, Y) :- par(X, Y).
             anc(X, Y) :- par(X, Z), anc(Z, Y).",
        )
        .unwrap();
        let query = parse_query("anc(a, Y)").unwrap();
        let mut db = Database::new();
        db.insert_pair("par", "a", "b");
        let mut catalog = ViewCatalog::new(Strategy::MagicSets);
        let key = catalog.materialize(&program, &query, &db).unwrap();

        let frozen = catalog.snapshot_view(&key).unwrap();
        assert_eq!(frozen.answers().len(), 1);

        catalog.apply_all(&[Update::Insert(Fact::plain(
            "par",
            vec![Value::sym("b"), Value::sym("c")],
        ))]);
        // The live view sees the new answer; the snapshot does not.
        assert_eq!(catalog.answers(&key).unwrap().len(), 2);
        assert_eq!(frozen.answers().len(), 1);
        assert_eq!(
            catalog.snapshot_view(&key).unwrap().stats(),
            catalog.view(&key).unwrap().stats()
        );
        assert!(catalog.snapshot_view("no-such-binding").is_none());
    }

    #[test]
    fn materialize_keyed_reports_cache_hits() {
        let program = parse_program("anc(X, Y) :- par(X, Y).").unwrap();
        let query = parse_query("anc(a, Y)").unwrap();
        let mut db = Database::new();
        db.insert_pair("par", "a", "b");
        let mut catalog = ViewCatalog::new(Strategy::MagicSets).with_base(db);
        let (k1, fresh1) = catalog
            .materialize_keyed(&program, &query, Instant::now())
            .unwrap();
        let (k2, fresh2) = catalog
            .materialize_keyed(&program, &query, Instant::now())
            .unwrap();
        assert_eq!(k1, k2);
        assert!(fresh1);
        assert!(!fresh2);
    }

    #[test]
    fn changed_program_rematerializes_instead_of_serving_stale_rules() {
        let v1 = parse_program("anc(X, Y) :- par(X, Y).").unwrap();
        let v2 = parse_program(
            "anc(X, Y) :- par(X, Y).
             anc(X, Y) :- par(X, Z), anc(Z, Y).",
        )
        .unwrap();
        let query = parse_query("anc(a, Y)").unwrap();
        let mut db = Database::new();
        db.insert_pair("par", "a", "b");
        db.insert_pair("par", "b", "c");

        let mut catalog = ViewCatalog::new(Strategy::MagicSets);
        let k1 = catalog.materialize(&v1, &query, &db).unwrap();
        assert_eq!(catalog.answers(&k1).unwrap().len(), 1); // only (a, b)

        // Same binding, new rules: the stale view must not be served.
        let k2 = catalog.materialize(&v2, &query, &db).unwrap();
        assert_eq!(k1, k2);
        assert_eq!(catalog.len(), 1);
        assert_eq!(catalog.answers(&k2).unwrap().len(), 2); // b and c

        // Same binding, same rules: cache hit keeps the live view (with
        // its streamed updates), ignoring the passed database.
        catalog.apply_all(&[Update::Insert(Fact::plain(
            "par",
            vec![Value::sym("c"), Value::sym("d")],
        ))]);
        let k3 = catalog.materialize(&v2, &query, &Database::new()).unwrap();
        assert_eq!(k2, k3);
        assert_eq!(catalog.answers(&k3).unwrap().len(), 3);
    }
}
