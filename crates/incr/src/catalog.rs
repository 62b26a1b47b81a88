//! A catalog of live materialized views, keyed by adorned query binding.
//!
//! The serving shape the ROADMAP's north star needs: plan a query once
//! (rewrite under a strategy), materialize the rewritten program as a
//! [`MaterializedView`], and cache it under the query's *adorned binding
//! key* — the answer predicate, its bound/free adornment, and the bound
//! constants (`anc[bf](john)`).  Repeated queries with the same binding hit
//! the cached view; base-fact updates stream into every cached view through
//! [`ViewCatalog::update_all`].
//!
//! Each cached entry carries exactly one compiled
//! [`Schedule`](magic_datalog::Schedule) (inside its view's fixpoint
//! runner): the stratified shape is computed when the plan is
//! materialized and shared by every subsequent maintenance resume —
//! never rebuilt per update.

use crate::error::IncrError;
use crate::view::{MaterializedView, Update};
use magic_core::planner::{PlanError, Planner, Strategy};
use magic_datalog::{Atom, PredName, Program, Query, Value, Variable};
use magic_engine::{answers::project_answers, EvalStats, Limits};
use magic_storage::Database;
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;
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
    /// Keys of the surviving views whose state actually changed (at least
    /// one update of the batch was not a no-op for them).  The serving
    /// layer republishes exactly these — an incremental publish touches
    /// only the views a batch moved, never the whole catalog.
    pub changed: Vec<String>,
    /// Views evicted because their maintenance failed, with the error
    /// that condemned each.  The catalog stays internally consistent;
    /// evicted bindings re-materialize on next sight.
    pub evicted: Vec<(String, CatalogError)>,
}

/// One cached view plus how to read the query's answers back out of it.
#[derive(Clone, Debug)]
struct CatalogEntry {
    view: MaterializedView,
    /// The predicates the view's program derives: updates on them are not
    /// for this view (its copy is maintained, not edited).  Kept beside
    /// the view so a batch can be filtered while the view is borrowed
    /// mutably.
    derived: BTreeSet<PredName>,
    answer_atom: Atom,
    projection: Vec<Variable>,
    /// Logical timestamp of the last materialize request for this binding
    /// — the recency signal [`ViewCatalog::with_max_views`] eviction ranks
    /// by.  Maintenance (`apply_all` / `update_all`) deliberately does not
    /// bump it: being updated is not being *used*.
    last_used: u64,
    /// Wall-clock counterpart of `last_used`, consulted by
    /// [`ViewCatalog::with_view_ttl`] expiry (same bump discipline:
    /// requests refresh it, maintenance does not).
    last_used_at: Instant,
    /// The query text the binding was materialized for — what
    /// [`ViewCatalog::export_bindings`] persists so a recovered process
    /// can re-plan and re-materialize the same view.
    query_text: String,
}

/// A frozen, self-contained reading surface over one cached view.
///
/// Produced by [`ViewCatalog::snapshot_view`].  The embedded [`Database`]
/// is a copy-on-write clone of the live view's database — pure `Arc`
/// pointer bumps, O(relations) and independent of fact count (see
/// [`magic_storage::cow_clones`]) — so taking a snapshot costs nothing and
/// the snapshot stays bit-stable while the writer keeps maintaining the
/// live view.  The serving layer publishes these per binding and replaces
/// only the entries a batch changed, instead of cloning whole catalogs.
#[derive(Clone, Debug)]
pub struct ViewSnapshot {
    db: Database,
    answer_atom: Atom,
    projection: Vec<Variable>,
    stats: EvalStats,
    recompute_reason: Option<String>,
    recomputes: u64,
}

impl ViewSnapshot {
    /// The query's answers as of this snapshot (probes the answer index
    /// the view maintains; never scans).
    pub fn answers(&self) -> BTreeSet<Vec<Value>> {
        project_answers(&self.db, &self.answer_atom, &self.projection)
    }

    /// The frozen database: base facts plus every derived fact of the
    /// fixpoint the snapshot was taken at.
    pub fn database(&self) -> &Database {
        &self.db
    }

    /// Cumulative maintenance metrics of the view as of this snapshot.
    pub fn stats(&self) -> &EvalStats {
        &self.stats
    }

    /// Why the view is maintained by full recompute, if it is ([`None`]
    /// for incrementally maintained views) — see
    /// [`MaterializedView::recompute_reason`].
    pub fn recompute_reason(&self) -> Option<&str> {
        self.recompute_reason.as_deref()
    }

    /// Full recomputes updates had forced as of this snapshot.
    pub fn recompute_count(&self) -> u64 {
        self.recomputes
    }
}

/// A set of live materialized views keyed by adorned query binding.
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
/// let query = parse_query("anc(a, Y)").unwrap();
/// let mut db = Database::new();
/// db.insert_pair("par", "a", "b");
///
/// let mut catalog = ViewCatalog::new(Strategy::MagicSets);
/// let key = catalog.materialize(&program, &query, &db).unwrap();
/// assert_eq!(catalog.answers(&key).unwrap().len(), 1);
///
/// let edge = Fact::plain("par", vec![Value::sym("b"), Value::sym("c")]);
/// catalog.update_all(&Update::Insert(edge)).unwrap();
/// assert_eq!(catalog.answers(&key).unwrap().len(), 2);
/// ```
#[derive(Clone, Debug)]
pub struct ViewCatalog {
    strategy: Strategy,
    limits: Limits,
    entries: BTreeMap<String, CatalogEntry>,
    /// Capacity cap: materializing past it evicts the least-recently
    /// *requested* binding.  `None` = unbounded.
    max_views: Option<usize>,
    /// Idle-time cap: bindings not requested within this window are
    /// dropped by [`ViewCatalog::evict_expired`].  `None` = no expiry.
    view_ttl: Option<Duration>,
    /// Logical clock feeding `CatalogEntry::last_used`.
    clock: u64,
}

impl ViewCatalog {
    /// An empty catalog materializing under `strategy`.
    pub fn new(strategy: Strategy) -> ViewCatalog {
        ViewCatalog {
            strategy,
            limits: Limits::default(),
            entries: BTreeMap::new(),
            max_views: None,
            view_ttl: None,
            clock: 0,
        }
    }

    /// Override the evaluation limits applied to every view.
    pub fn with_limits(mut self, limits: Limits) -> ViewCatalog {
        self.limits = limits;
        self
    }

    /// Cap the catalog at `max_views` live views (0 means unbounded).
    ///
    /// When a fresh materialization would exceed the cap, the **coldest**
    /// cached views — least recently requested through
    /// [`ViewCatalog::materialize`] / [`ViewCatalog::materialize_keyed`] —
    /// are dropped first; the binding just materialized is never a
    /// candidate.  An evicted binding is not an error: like a
    /// maintenance-failure eviction it simply re-materializes from the
    /// authoritative base facts on next sight.  Serving deployments use
    /// this to bound the memory a long tail of one-off bindings pins.
    pub fn with_max_views(mut self, max_views: usize) -> ViewCatalog {
        self.max_views = (max_views > 0).then_some(max_views);
        self
    }

    /// Expire bindings not *requested* for `ttl` (a zero duration means
    /// no expiry).  Time-based eviction composes with the
    /// [`ViewCatalog::with_max_views`] count cap: TTL drops views that
    /// went cold regardless of catalog size, the cap bounds the size
    /// regardless of age — a serving deployment typically wants both.
    ///
    /// Expired entries are dropped inside
    /// [`ViewCatalog::materialize_keyed`] whenever it (re)builds a view,
    /// and whenever the owner calls [`ViewCatalog::evict_expired`]
    /// directly (the serving writer does so once per maintenance cycle).
    /// Like every other eviction, expiry is not an error: a dropped
    /// binding simply re-materializes from the base facts on next sight.
    pub fn with_view_ttl(mut self, ttl: Duration) -> ViewCatalog {
        self.view_ttl = (ttl > Duration::ZERO).then_some(ttl);
        self
    }

    /// The catalog's rewrite strategy.
    pub fn strategy(&self) -> Strategy {
        self.strategy
    }

    /// Plan `(program, query)` under the catalog's strategy and
    /// materialize the rewritten program over `edb` — unless a view with
    /// the same adorned binding key *and the same rewritten program* is
    /// already cached, in which case the existing (live, maintained) view
    /// is kept and `edb` is ignored: the cached view's database reflects
    /// every update streamed into it since materialization, which is the
    /// point of the cache.  A cache hit whose stored program differs
    /// (the caller changed the rules) re-materializes over `edb` instead
    /// of silently serving answers for the old rules.  Returns the key.
    pub fn materialize(
        &mut self,
        program: &Program,
        query: &Query,
        edb: &Database,
    ) -> Result<String, CatalogError> {
        self.materialize_keyed(program, query, edb)
            .map(|(key, _)| key)
    }

    /// [`ViewCatalog::materialize`], additionally reporting whether a view
    /// was (re)built: `false` means the key was a cache hit on a live view
    /// and the catalog did not change — the serving layer uses this to
    /// skip publishing a fresh (expensive, whole-catalog-clone) snapshot
    /// when two racing first-sight queries both request materialization.
    pub fn materialize_keyed(
        &mut self,
        program: &Program,
        query: &Query,
        edb: &Database,
    ) -> Result<(String, bool), CatalogError> {
        let plan = Planner::new(self.strategy)
            .with_limits(self.limits)
            .plan(program, query)?;
        let key = format!("{}@{}", plan.view_binding(), self.strategy.short_name());
        self.clock += 1;
        let now = self.clock;
        let fresh = match self.entries.get_mut(&key) {
            Some(entry) => {
                entry.last_used = now;
                entry.last_used_at = Instant::now();
                entry.view.program() != &plan.program
            }
            None => true,
        };
        if fresh {
            let mut view = MaterializedView::with_limits(&plan.program, edb, self.limits)?;
            // Index the answer atom's bound positions once: every insert
            // and retract the view applies maintains it from here on, so
            // repeated `answers` calls probe a warm index instead of
            // scanning (and nothing ever rebuilds it).
            view.ensure_answer_index(&plan.answer_atom);
            self.entries.insert(
                key.clone(),
                CatalogEntry {
                    view,
                    derived: plan.program.derived_preds(),
                    answer_atom: plan.answer_atom.clone(),
                    projection: plan.projection.clone(),
                    last_used: now,
                    last_used_at: Instant::now(),
                    query_text: query.atom.to_string(),
                },
            );
            // TTL expiry first (age-based), then the count cap: the
            // entry just touched carries a fresh timestamp on both
            // scales, so it survives either pass.
            self.evict_expired();
            self.evict_cold();
        }
        Ok((key, fresh))
    }

    /// Drop every binding whose last request is older than the
    /// [`ViewCatalog::with_view_ttl`] window; returns the evicted keys.
    /// A no-op (returning nothing) when no TTL is configured.
    pub fn evict_expired(&mut self) -> Vec<String> {
        let Some(ttl) = self.view_ttl else {
            return Vec::new();
        };
        let expired: Vec<String> = self
            .entries
            .iter()
            .filter(|(_, e)| e.last_used_at.elapsed() > ttl)
            .map(|(k, _)| k.clone())
            .collect();
        for key in &expired {
            self.entries.remove(key);
        }
        expired
    }

    /// The cached bindings as `(key, query text)` pairs, in key order —
    /// what a checkpoint persists so recovery can re-plan each query and
    /// re-materialize the same views over the restored base facts.  (The
    /// views themselves are rebuildable artifacts and are deliberately
    /// *not* serialized: re-materializing through the normal planner and
    /// fixpoint keeps recovery on the already-verified code path.)
    pub fn export_bindings(&self) -> Vec<(String, String)> {
        self.entries
            .iter()
            .map(|(k, e)| (k.clone(), e.query_text.clone()))
            .collect()
    }

    /// Enforce the [`ViewCatalog::with_max_views`] cap: drop
    /// least-recently-requested entries until the catalog fits.  The entry
    /// touched last (the one a materialization just installed or re-used)
    /// always carries the freshest timestamp and therefore survives.
    fn evict_cold(&mut self) {
        let Some(cap) = self.max_views else {
            return;
        };
        while self.entries.len() > cap {
            let coldest = self
                .entries
                .iter()
                .min_by_key(|(_, e)| e.last_used)
                .map(|(k, _)| k.clone())
                .expect("len > cap >= 1");
            self.entries.remove(&coldest);
        }
    }

    /// The binding key `materialize` would cache `(program, query)` under,
    /// computed by planning alone — nothing is materialized and the catalog
    /// is not consulted.  The serving layer uses this to translate a query
    /// into its snapshot lookup key exactly once per distinct query text.
    pub fn binding_key(&self, program: &Program, query: &Query) -> Result<String, CatalogError> {
        let plan = Planner::new(self.strategy)
            .with_limits(self.limits)
            .plan(program, query)?;
        Ok(format!(
            "{}@{}",
            plan.view_binding(),
            self.strategy.short_name()
        ))
    }

    /// True iff a view is cached under `key`.
    pub fn contains(&self, key: &str) -> bool {
        self.entries.contains_key(key)
    }

    /// The view cached under `key`.
    pub fn view(&self, key: &str) -> Option<&MaterializedView> {
        self.entries.get(key).map(|e| &e.view)
    }

    /// Mutable access to the view cached under `key` (for targeted
    /// insert/retract/apply).
    pub fn view_mut(&mut self, key: &str) -> Option<&mut MaterializedView> {
        self.entries.get_mut(key).map(|e| &mut e.view)
    }

    /// The current answers of the query cached under `key`.
    pub fn answers(&self, key: &str) -> Option<BTreeSet<Vec<Value>>> {
        self.entries
            .get(key)
            .map(|e| project_answers(e.view.database(), &e.answer_atom, &e.projection))
    }

    /// A frozen [`ViewSnapshot`] of the view cached under `key`.
    ///
    /// O(relations) `Arc` pointer bumps — no row, page, or index data is
    /// copied (the storage layer's copy-on-write clone; later writes to
    /// the live view re-copy only the units they touch).  The serving
    /// layer calls this once per view per *change*, never per publish.
    pub fn snapshot_view(&self, key: &str) -> Option<ViewSnapshot> {
        self.entries.get(key).map(|e| ViewSnapshot {
            db: e.view.database().clone(),
            answer_atom: e.answer_atom.clone(),
            projection: e.projection.clone(),
            stats: e.view.stats().clone(),
            recompute_reason: e.view.recompute_reason().map(str::to_string),
            recomputes: e.view.recompute_count(),
        })
    }

    /// Apply one base-fact update to every cached view that can accept it
    /// (views deriving the fact's predicate are skipped — their copy of it
    /// is maintained, not edited).  Returns how many views changed.
    pub fn update_all(&mut self, update: &Update) -> Result<usize, CatalogError> {
        let mut changed = 0;
        for entry in self.entries.values_mut() {
            let result = match update {
                Update::Insert(fact) => entry.view.insert(fact),
                Update::Retract(fact) => entry.view.retract(fact),
            };
            match result {
                Ok(true) => changed += 1,
                Ok(false) | Err(IncrError::NotABasePredicate { .. }) => {}
                Err(e) => return Err(e.into()),
            }
        }
        Ok(changed)
    }

    /// Apply a whole batch of updates to every cached view, letting each
    /// view coalesce its consecutive insertions into one fixpoint re-entry
    /// (see [`MaterializedView::apply`]) — the serving layer's write path,
    /// where a maintenance writer drains its queue in batches.
    ///
    /// Updates whose predicate a view *derives* are filtered out for that
    /// view (its copy of the predicate is maintained, not edited), so a
    /// heterogeneous catalog never aborts a batch midway: every view sees
    /// exactly the subsequence of updates it can accept, in order.
    ///
    /// A view whose maintenance *fails* (a limits budget, an arity
    /// mismatch) is **evicted** rather than left behind: a cached view is
    /// a rebuildable artifact, and evicting keeps every surviving view
    /// consistent with the same update prefix — the failed binding simply
    /// re-materializes from the authoritative base facts on next sight.
    /// The alternative (aborting the batch midway) would leave some views
    /// with the batch applied and others without, permanently.
    pub fn apply_all(&mut self, updates: &[Update]) -> ApplyAllOutcome {
        let mut outcome = ApplyAllOutcome::default();
        for (key, entry) in self.entries.iter_mut() {
            // Borrowed, and filtered as the view consumes them: nothing of
            // the batch is copied per view.
            let derived = &entry.derived;
            let accepted = updates.iter().filter(|u| !derived.contains(&u.fact().pred));
            match entry.view.apply(accepted) {
                Ok(report) => {
                    outcome.applied += report.applied;
                    if report.applied > 0 {
                        outcome.changed.push(key.clone());
                    }
                }
                Err(e) => outcome.evicted.push((key.clone(), e.into())),
            }
        }
        for (key, _) in &outcome.evicted {
            self.entries.remove(key);
        }
        outcome
    }

    /// Aggregate maintenance metrics summed over every cached view
    /// (construction plus all updates) — the serving layer's `STATS`
    /// surface.
    pub fn aggregate_stats(&self) -> magic_engine::EvalStats {
        let mut total = magic_engine::EvalStats::default();
        for entry in self.entries.values() {
            total.merge(entry.view.stats());
        }
        total
    }

    /// The views maintained by full recompute (guarded programs), as
    /// `(key, reason, recompute count)` — the serving layer's STATS
    /// surface for the v1 negation/aggregate fallback, so degraded
    /// maintenance is visible, never silent.
    pub fn recompute_views(&self) -> Vec<(String, String, u64)> {
        self.entries
            .iter()
            .filter_map(|(k, e)| {
                e.view
                    .recompute_reason()
                    .map(|r| (k.clone(), r.to_string(), e.view.recompute_count()))
            })
            .collect()
    }

    /// Number of cached views.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True iff no view is cached.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The cached binding keys, in order.
    pub fn keys(&self) -> impl Iterator<Item = &str> + '_ {
        self.entries.keys().map(String::as_str)
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
        let (kb2, fresh) = catalog.materialize_keyed(&prog_b, &qb, &db_b).unwrap();
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
            .materialize_keyed(&program, &parse_query("anc(b, Y)").unwrap(), &db)
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
            .with_view_ttl(Duration::from_millis(30))
            .with_max_views(2);
        let ka = catalog
            .materialize(&program, &parse_query("anc(a, Y)").unwrap(), &db)
            .unwrap();
        let kb = catalog
            .materialize(&program, &parse_query("anc(b, Y)").unwrap(), &db)
            .unwrap();
        // Within the TTL nothing expires.
        assert!(catalog.evict_expired().is_empty());
        std::thread::sleep(Duration::from_millis(40));
        // Re-request `a` to keep it warm; `b` goes stale.
        catalog
            .materialize(&program, &parse_query("anc(a, Y)").unwrap(), &db)
            .unwrap();
        let expired = catalog.evict_expired();
        assert_eq!(expired, vec![kb.clone()]);
        assert!(catalog.contains(&ka));
        assert!(!catalog.contains(&kb));
        // Expiry also runs inside materialize: let `a` go cold, then
        // materialize a fresh binding — the stale one is dropped even
        // though the count cap alone would have kept both.
        std::thread::sleep(Duration::from_millis(40));
        let kc = catalog
            .materialize(&program, &parse_query("anc(c, Y)").unwrap(), &db)
            .unwrap();
        assert!(catalog.contains(&kc));
        assert!(!catalog.contains(&ka));
        assert_eq!(catalog.len(), 1);
        // An expired binding is not an error: it re-materializes.
        let (ka2, fresh) = catalog
            .materialize_keyed(&program, &parse_query("anc(a, Y)").unwrap(), &db)
            .unwrap();
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

        catalog
            .update_all(&Update::Insert(Fact::plain(
                "par",
                vec![Value::sym("b"), Value::sym("c")],
            )))
            .unwrap();
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
        let mut catalog = ViewCatalog::new(Strategy::MagicSets);
        let (k1, fresh1) = catalog.materialize_keyed(&program, &query, &db).unwrap();
        let (k2, fresh2) = catalog.materialize_keyed(&program, &query, &db).unwrap();
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
        catalog
            .update_all(&Update::Insert(magic_datalog::Fact::plain(
                "par",
                vec![Value::sym("c"), Value::sym("d")],
            )))
            .unwrap();
        let k3 = catalog.materialize(&v2, &query, &Database::new()).unwrap();
        assert_eq!(k2, k3);
        assert_eq!(catalog.answers(&k3).unwrap().len(), 3);
    }
}
