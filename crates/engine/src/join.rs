//! The rule-body join: the interpreter loop over slot-compiled plans.
//!
//! This is the engine's hottest code.  The loop structure is classic
//! trail-based backtracking over indexed relations, but every per-probe
//! cost has been compiled away (see `crate::plan` for the compilation
//! story):
//!
//! * bindings live in a flat frame of interned [`ValId`]s indexed by slot
//!   id — binding a variable copies four bytes, comparing a constant is a
//!   `u32` compare;
//! * each body atom is bound once per rule evaluation to its relation, a
//!   borrowed index handle and its delta window — an atom visit names no
//!   predicate and no position pattern;
//! * index probes borrow the relation's id slice — no `to_vec()` copies;
//! * the semi-naive delta window is a suffix of row-id space, sliced off
//!   the *tail* of the (ascending) id slice — no per-id filtering, and no
//!   search over the old rows a delta never reaches (see `window_slice`);
//! * a keyed atom past depth 0 whose window starts after row 0 has a
//!   `KeyFilter` over the keys of the window's live rows: a key it
//!   rejects returns before the index lookup, and the atom in front tests
//!   it on each candidate row before binding the row (the *precheck*).
//!   Only lookups that would examine no row are skipped, so rows, probes,
//!   matches and errors are the unfiltered loop's by construction;
//! * backtracking truncates a shared trail of slot ids — no per-term
//!   `vars()` vectors;
//! * output rows are appended to a **flat** `Vec<ValId>` buffer
//!   (`arity`-sized chunks) — no per-row `Vec` allocation, no `Value`
//!   clones anywhere between the stored relation and the inserted fact.
//!
//! The only remaining per-row work is the check-term matches themselves and
//! the recursion; the frame, trail, key buffer and key filters live in a
//! `JoinScratch` the fixpoint loop keeps for the whole run, so a
//! steady-state rule evaluation allocates only its (small) vector of bound
//! atoms.
//!
//! # Entry points
//!
//! Two consumers drive the same `descend` loop through a zero-cost
//! `MatchSink` parameter (monomorphized; the classic row-producing path
//! compiles to exactly the code it had before the abstraction existed):
//!
//! * [`evaluate_rule`] — forward evaluation under at most one delta
//!   window, appending head rows to a flat output buffer.
//! * [`count_derivations_batch`] — the *head-bound* join: match each
//!   concrete head row of a packed batch against the rule head, then count
//!   the body instantiations consistent with it.  This is the support
//!   oracle behind delete-and-rederive, which asks it once per (deleted
//!   predicate, deriving rule) for every deleted row: the atoms, negated
//!   relations and index handles are bound and the scratch allocated once
//!   per batch, so a row costs its probes and nothing else.
//!   [`count_derivations`] is its one-row call.

use crate::error::EvalError;
use crate::limits::Limits;
use crate::plan::{AtomPlan, RulePlan};
use magic_datalog::{Frame, PredName, SlotTerm, Trail, ValId};
use magic_storage::relation::tail_partition_point;
use magic_storage::{Database, FxHasher, IndexRef, Relation};
use std::hash::Hasher;

/// Restriction of one body occurrence to the "delta" of its relation: the
/// rows with ids from `from` up to the relation's watermark, used by
/// semi-naive evaluation.  Rows are append-only and a rule evaluation
/// inserts nothing, so a delta is always such a suffix.
#[derive(Clone, Copy, Debug)]
pub struct DeltaWindow {
    /// The body occurrence (index into the rule body) that must read the
    /// delta.
    pub occurrence: usize,
    /// First row id included.
    pub from: usize,
}

/// Counters produced by evaluating a single rule.
#[derive(Clone, Copy, Debug, Default)]
pub struct JoinCounters {
    /// Candidate tuples examined.
    pub probes: usize,
    /// Successful body matches (head instantiations produced).
    pub matches: usize,
}

/// The join's reusable buffers.  A rule evaluation allocates nothing once
/// these have grown to the plan's size and its largest delta window, so
/// the fixpoint loop keeps one for the whole run and hands it to every
/// rule evaluation.
#[derive(Debug, Default)]
pub(crate) struct JoinScratch {
    /// Variable bindings, one slot per plan variable.
    frame: Frame,
    /// Slots bound since the enclosing probe (unwound on backtrack).
    trail: Trail,
    /// The index key (or negated row) under construction.  One buffer
    /// serves every depth: a key is consumed by its probe before the join
    /// descends.
    key: Vec<ValId>,
    /// The key filter of each depth, rebuilt per rule evaluation by
    /// [`JoinScratch::build_filters`]; an empty one filters nothing.
    filters: Vec<KeyFilter>,
}

impl JoinScratch {
    /// An all-unbound frame of `plan`'s size and empty stacks.
    fn reset(&mut self, plan: &RulePlan) {
        self.frame.clear();
        self.frame.resize(plan.num_slots, ValId::NULL);
        self.trail.clear();
    }

    /// Build the key filter of every keyed atom past depth 0 whose window
    /// starts after row 0, and its precheck, for one evaluation of `ctx`.
    /// Depth 0 is visited once per evaluation: a filter there would hash
    /// the whole window to save one lookup.
    fn build_filters(&mut self, ctx: &JoinCtx<'_>) {
        self.filters
            .resize_with(ctx.atoms.len(), KeyFilter::default);
        for filter in &mut self.filters {
            filter.bits.clear();
            filter.sources.clear();
        }
        for (depth, atom) in ctx.atoms.iter().enumerate().skip(1) {
            if let Some(window) = atom.window.filter(|w| w.from > 0 && atom.keyed.is_some()) {
                let filter = &mut self.filters[depth];
                filter.build(atom.relation, &atom.plan.key_positions, window);
                filter.plan_precheck(ctx.atoms[depth - 1].plan, &atom.plan.key_terms);
            }
        }
    }
}

/// Where a precheck reads one id of the next atom's key.
#[derive(Clone, Copy, Debug)]
enum KeySource {
    /// The candidate row at this position.
    Row(usize),
    /// This frame slot, bound before the probed atom.
    Frame(u32),
}

/// A one-hash bitmap over the keys of the live rows in one atom's delta
/// window, 8 bits a row, for keys of any width.  A clear bit proves that no
/// live window row carries the key; a set bit (about one absent key in
/// eight) falls through to the lookup.
#[derive(Debug, Default)]
struct KeyFilter {
    /// A power of two of bits; empty when the atom has no filter.
    bits: Vec<u64>,
    /// A key hash's bit is `hash >> shift`.
    shift: u32,
    /// The precheck: where the probe of the atom in front reads this
    /// atom's key, in key order; empty when it cannot.
    sources: Vec<KeySource>,
}

/// The filter hash of a key: the storage's finalized FxHash.  The filter
/// reads the top bits; a bare FxHash multiply leaves them a Weyl sequence
/// in the dense symbol ids (ids 355 apart shared a bit: `K / 2^64` is
/// close to `113 / 355`), and false positives on the same-generation grid
/// read 26 % against 5 %.
#[inline]
fn key_hash(ids: impl Iterator<Item = ValId>) -> u64 {
    let mut hasher = FxHasher::default();
    ids.for_each(|id| hasher.write_u32(id.raw()));
    hasher.finish()
}

impl KeyFilter {
    /// Fill the bitmap with the `positions` key of every live row of
    /// `relation` in `window`.
    fn build(&mut self, relation: &Relation, positions: &[usize], window: DeltaWindow) {
        let rows = window_range(relation.watermark(), Some(window));
        let bits = (rows.len() * 8).next_power_of_two().max(64);
        self.shift = 64 - bits.trailing_zeros();
        self.bits.resize(bits / 64, 0);
        let has_dead = relation.tombstones() != 0;
        for id in rows.filter(|&id| !has_dead || relation.is_live(id)) {
            let row = relation.row_ids(id);
            let bit = (key_hash(positions.iter().map(|&p| row[p])) >> self.shift) as usize;
            self.bits[bit / 64] |= 1 << (bit % 64);
        }
    }

    /// Whether `key` may be in the window (always, without a filter).
    #[inline]
    fn admits(&self, key: impl Iterator<Item = ValId>) -> bool {
        if self.bits.is_empty() {
            return true;
        }
        let bit = (key_hash(key) >> self.shift) as usize;
        self.bits[bit / 64] & (1 << (bit % 64)) != 0
    }

    /// Plan the precheck of `prev`, the atom in front: each key term, a
    /// plain variable, is read at the position where `prev` binds it, or
    /// else from the frame.  A key term that is not a plain variable, or a
    /// compound check term of `prev` (it binds inside a structure, not at a
    /// position), declines: `sources` stays empty.
    fn plan_precheck(&mut self, prev: &AtomPlan, key_terms: &[SlotTerm]) {
        if prev
            .check
            .iter()
            .any(|(_, t)| !matches!(t, SlotTerm::Slot(_)))
        {
            return;
        }
        for term in key_terms {
            let SlotTerm::Slot(slot) = *term else {
                self.sources.clear();
                return;
            };
            let bound_here = prev.check.iter().find(|(_, check)| check == term);
            self.sources
                .push(bound_here.map_or(KeySource::Frame(slot), |&(pos, _)| KeySource::Row(pos)));
        }
    }

    /// Whether the key that `row` (with `frame`) gives the next atom may be
    /// in its window; true without a precheck.
    #[inline]
    fn precheck(&self, row: &[ValId], frame: &Frame) -> bool {
        self.sources.is_empty()
            || self.admits(self.sources.iter().map(|source| match *source {
                KeySource::Row(pos) => row[pos],
                KeySource::Frame(slot) => frame[slot as usize],
            }))
    }
}

/// One positive body atom, bound to the database for one rule evaluation:
/// everything `descend` needs at this depth, resolved once up front instead
/// of once per atom visit.
struct BoundAtom<'a> {
    plan: &'a AtomPlan,
    relation: &'a Relation,
    /// How the atom's key finds its candidate rows; `None` when the atom
    /// has no evaluable position and scans.
    keyed: Option<KeyedAccess<'a>>,
    /// The delta window on this occurrence, if any.
    window: Option<DeltaWindow>,
}

/// How a keyed atom visit finds its candidate rows.
#[derive(Clone, Copy)]
enum KeyedAccess<'a> {
    /// Every position is evaluable, so the key *is* the row: the
    /// relation's dedup table answers with zero or one id
    /// (`Relation::find_id`), and storage keeps no secondary index for it.
    Row,
    /// The secondary index on the atom's key positions.
    Index(IndexRef<'a>),
    /// No index exists on the pattern (only outside the evaluator, which
    /// ensures every access path up front): a filtered scan.
    Unindexed,
}

impl<'a> KeyedAccess<'a> {
    fn resolve(relation: &'a Relation, key_positions: &[usize]) -> Option<KeyedAccess<'a>> {
        if key_positions.is_empty() {
            None
        } else if relation.covers_row(key_positions) {
            Some(KeyedAccess::Row)
        } else {
            Some(
                relation
                    .index_ref(key_positions)
                    .map_or(KeyedAccess::Unindexed, KeyedAccess::Index),
            )
        }
    }
}

/// Shared, read-only state of one rule evaluation.
struct JoinCtx<'a> {
    plan: &'a RulePlan,
    /// The positive body atoms by depth.
    atoms: Vec<BoundAtom<'a>>,
    /// The relation of each negated atom (`None` = absent = empty, so the
    /// negation trivially holds).  Under stratified scheduling these are
    /// *finished* lower-stratum relations.
    neg_relations: Vec<Option<&'a Relation>>,
    limits: &'a Limits,
}

/// What to do with a satisfied body instantiation.  Implementations are
/// monomorphized into `descend`, so the classic row-producing path pays
/// nothing for the abstraction.
trait MatchSink {
    /// Called once per satisfied body instantiation with the full frame.
    fn emit(&mut self, ctx: &JoinCtx<'_>, frame: &Frame) -> Result<(), EvalError>;
}

/// Evaluate the head terms of `ctx.plan` against `frame`, appending the
/// packed row to `out`.  An error aborts the whole rule evaluation, so a
/// partially appended row is never observed by a successful caller.
fn push_head_row(ctx: &JoinCtx<'_>, frame: &Frame, out: &mut Vec<ValId>) -> Result<(), EvalError> {
    for term in &ctx.plan.head_terms {
        let value = term.eval_slots(frame);
        if value.is_null() {
            return Err(EvalError::NotRangeRestricted {
                rule: ctx.plan.rule.to_string(),
            });
        }
        if value.depth() > ctx.limits.max_term_depth {
            return Err(EvalError::TermDepthLimit {
                limit: ctx.limits.max_term_depth,
            });
        }
        out.push(value);
    }
    Ok(())
}

/// The classic sink: append the packed head row to a flat output buffer.
struct RowSink<'a> {
    out: &'a mut Vec<ValId>,
}

impl MatchSink for RowSink<'_> {
    #[inline]
    fn emit(&mut self, ctx: &JoinCtx<'_>, frame: &Frame) -> Result<(), EvalError> {
        push_head_row(ctx, frame, self.out)
    }
}

/// Sink that only counts (the head is already fully bound by the caller).
struct CountSink;

impl MatchSink for CountSink {
    #[inline]
    fn emit(&mut self, _: &JoinCtx<'_>, _: &Frame) -> Result<(), EvalError> {
        Ok(())
    }
}

/// Resolve and arity-check the relation an atom of `rule_arity` reads.
fn resolve_relation<'a>(
    db: &'a Database,
    pred: &PredName,
    rule_arity: usize,
) -> Result<Option<&'a Relation>, EvalError> {
    let relation = db.relation(pred);
    match relation {
        Some(relation) if relation.arity() != rule_arity => Err(EvalError::ArityMismatch {
            predicate: pred.to_string(),
            rule_arity,
            stored_arity: relation.arity(),
        }),
        _ => Ok(relation),
    }
}

/// Bind each positive body atom to its relation, index handle and (for
/// the windowed occurrence) delta window.
///
/// Arity mismatches between a body atom and its stored relation are
/// reported eagerly, even for atoms an empty earlier atom would have kept
/// the join from reaching.  A mismatch means the program and the database
/// disagree about a predicate; failing deterministically beats failing
/// only when the data happens to reach the inconsistent atom.  Returns
/// `None` when some relation is absent (the body cannot match).
fn bind_atoms<'a>(
    plan: &'a RulePlan,
    db: &'a Database,
    window: Option<DeltaWindow>,
) -> Result<Option<Vec<BoundAtom<'a>>>, EvalError> {
    let mut bound = Vec::with_capacity(plan.atoms.len());
    for (depth, atom) in plan.atoms.iter().enumerate() {
        if let Some(relation) = resolve_relation(db, &atom.pred, atom.arity)? {
            bound.push(BoundAtom {
                plan: atom,
                relation,
                keyed: KeyedAccess::resolve(relation, &atom.key_positions),
                window: window.filter(|w| w.occurrence == depth),
            });
        }
    }
    Ok((bound.len() == plan.atoms.len()).then_some(bound))
}

impl<'a> JoinCtx<'a> {
    /// Bind `plan` to `db` for one or more joins: resolve the negated
    /// atoms' relations and bind the positive atoms ([`bind_atoms`]).
    /// `None` when some positive relation is absent (the body cannot
    /// match).
    fn bind(
        plan: &'a RulePlan,
        db: &'a Database,
        window: Option<DeltaWindow>,
        limits: &'a Limits,
    ) -> Result<Option<JoinCtx<'a>>, EvalError> {
        // An absent negated relation is kept as `None`: the complement of
        // an empty relation always holds, so it must not abort the join the
        // way an absent positive relation does.
        let neg_relations = plan
            .neg_atoms
            .iter()
            .map(|atom| resolve_relation(db, &atom.pred, atom.arity))
            .collect::<Result<_, _>>()?;
        Ok(bind_atoms(plan, db, window)?.map(|atoms| JoinCtx {
            plan,
            atoms,
            neg_relations,
            limits,
        }))
    }
}

/// Evaluate one rule against `db`, appending the packed head row of every
/// satisfied body instantiation to `out` in `arity`-sized chunks (all rows
/// belong to `plan.head_pred`).
///
/// If `delta` is given, the designated body occurrence only ranges over the
/// delta — the semi-naive restriction; every other occurrence ranges over
/// the full relation.
pub fn evaluate_rule(
    plan: &RulePlan,
    db: &Database,
    delta: Option<DeltaWindow>,
    limits: &Limits,
    out: &mut Vec<ValId>,
) -> Result<JoinCounters, EvalError> {
    evaluate_rule_scratch(plan, db, delta, limits, &mut JoinScratch::default(), out)
}

/// [`evaluate_rule`] over caller-owned buffers: the form the fixpoint loop
/// calls, once per rule evaluation.
pub(crate) fn evaluate_rule_scratch(
    plan: &RulePlan,
    db: &Database,
    delta: Option<DeltaWindow>,
    limits: &Limits,
    scratch: &mut JoinScratch,
    out: &mut Vec<ValId>,
) -> Result<JoinCounters, EvalError> {
    let mut counters = JoinCounters::default();
    if let Some(ctx) = JoinCtx::bind(plan, db, delta, limits)? {
        scratch.reset(plan);
        scratch.build_filters(&ctx);
        descend(&ctx, 0, scratch, &mut RowSink { out }, &mut counters)?;
    }
    Ok(counters)
}

/// The head-bound join: count the body instantiations of `plan` (against
/// `db`) whose head row equals the packed `row`.  The one-row call of
/// [`count_derivations_batch`].
pub fn count_derivations(
    plan: &RulePlan,
    db: &Database,
    row: &[ValId],
    limits: &Limits,
) -> Result<usize, EvalError> {
    let mut count = [0];
    count_derivations_batch(plan, db, row.len(), row, limits, &mut count)?;
    Ok(count[0])
}

/// The head-bound join over a batch: for every row of `rows` (`arity` ids
/// per row, one row per element of `counts`), add to its count the body
/// instantiations of `plan` (against `db`) whose head row equals it.
/// Returns the join's probes and matches over the whole batch.
///
/// Matching the head terms first binds the head variables, so each row's
/// body join runs with those positions fixed — with the indexes the
/// evaluator maintains this is a narrow probe, not a rule-wide scan.  A
/// row the head does not match at all (wrong constants, non-invertible
/// terms, another arity) gains nothing.  The plan is bound to `db` once
/// for the batch, like a forward rule evaluation: an arity mismatch
/// between a body atom and its stored relation is reported whether or not
/// a row reaches the atom.
///
/// This is the one-step support oracle used by delete-and-rederive: a
/// deleted row with a positive count from the remaining database has an
/// alternative derivation and must survive.
///
/// # Panics
///
/// Panics if `rows.len() != arity * counts.len()`.
pub fn count_derivations_batch(
    plan: &RulePlan,
    db: &Database,
    arity: usize,
    rows: &[ValId],
    limits: &Limits,
    counts: &mut [usize],
) -> Result<JoinCounters, EvalError> {
    assert_eq!(
        rows.len(),
        arity * counts.len(),
        "a batch of {} rows of arity {arity} holds {} ids",
        counts.len(),
        rows.len()
    );
    let mut counters = JoinCounters::default();
    if plan.head_terms.len() != arity || counts.is_empty() {
        return Ok(counters);
    }
    let Some(ctx) = JoinCtx::bind(plan, db, None, limits)? else {
        return Ok(counters);
    };
    let mut scratch = JoinScratch::default();
    for (r, count) in counts.iter_mut().enumerate() {
        scratch.reset(plan);
        let row = &rows[r * arity..(r + 1) * arity];
        let head_matches = plan.head_terms.iter().zip(row).all(|(term, value)| {
            term.match_value_slots(*value, &mut scratch.frame, &mut scratch.trail)
        });
        if head_matches {
            let before = counters.matches;
            descend(&ctx, 0, &mut scratch, &mut CountSink, &mut counters)?;
            *count += counters.matches - before;
        }
    }
    Ok(counters)
}

/// The row ids `0..watermark` of a relation, cut down to a delta window.
fn window_range(watermark: usize, window: Option<DeltaWindow>) -> std::ops::Range<usize> {
    window.map_or(0, |w| w.from.min(watermark))..watermark
}

/// Slice an index id list down to a delta window, anchored at the tail.
///
/// Relies on the storage invariant *index ids ascend, deltas are
/// suffixes*: rows are append-only, so a semi-naive delta is the newest
/// stretch of row-id space, and every id in the list is below the
/// watermark.  The outcomes are then decided where the list ends: the last
/// id is below `from` (no delta rows under this key — one comparison), or
/// the delta is the short run that a backwards gallop from the end
/// ([`tail_partition_point`]) brackets in O(log |delta|) steps over the
/// cache lines already touched.
fn window_slice(ids: &[u32], window: Option<DeltaWindow>) -> &[u32] {
    let Some(w) = window else {
        return ids;
    };
    let Some(&last) = ids.last() else {
        return ids;
    };
    if (last as usize) < w.from {
        return &[];
    }
    if w.from == 0 {
        return ids;
    }
    // `from <= last` here, so it fits a row id.
    &ids[tail_partition_point(ids, w.from as u32)..]
}

fn descend<S: MatchSink>(
    ctx: &JoinCtx<'_>,
    depth: usize,
    scratch: &mut JoinScratch,
    sink: &mut S,
    counters: &mut JoinCounters,
) -> Result<(), EvalError> {
    let Some(atom) = ctx.atoms.get(depth) else {
        // Anti-join: a satisfied positive body only counts as a match if no
        // negated atom's (fully bound) row is present in its relation.
        for (neg, relation) in ctx.plan.neg_atoms.iter().zip(&ctx.neg_relations) {
            scratch.key.clear();
            for term in &neg.terms {
                let v = term.eval_slots(&scratch.frame);
                if v.is_null() {
                    return Err(EvalError::UnsafeNegation {
                        rule: ctx.plan.rule.to_string(),
                    });
                }
                scratch.key.push(v);
            }
            if let Some(relation) = relation {
                counters.probes += 1;
                if relation.contains_ids(&scratch.key) {
                    return Ok(());
                }
            }
        }
        counters.matches += 1;
        return sink.emit(ctx, &scratch.frame);
    };
    let relation = atom.relation;

    let Some(keyed) = atom.keyed else {
        // No evaluable positions: scan the (windowed) relation directly.
        // The scan ranges over row-id space up to the watermark; tombstoned
        // slots are skipped *before* the probe counter, so removal leaves
        // probe counts exactly as if the dead rows had never existed (the
        // liveness test is hoisted behind one well-predicted flag for the
        // common tombstone-free case).
        let has_dead = relation.tombstones() != 0;
        for id in window_range(relation.watermark(), atom.window) {
            if has_dead && !relation.is_live(id) {
                continue;
            }
            probe(ctx, depth, atom, id, scratch, sink, counters)?;
        }
        return Ok(());
    };

    // Compute the index key from the evaluable positions — once per atom
    // visit, not per candidate row.
    scratch.key.clear();
    for term in &atom.plan.key_terms {
        let v = term.eval_slots(&scratch.frame);
        // A key term that fails to evaluate (e.g. a linear expression
        // over a non-integer) simply cannot match anything.
        if v.is_null() {
            return Ok(());
        }
        scratch.key.push(v);
    }
    // A key no row of the delta window carries finds nothing to examine.
    if let Some(filter) = scratch.filters.get(depth) {
        if !filter.admits(scratch.key.iter().copied()) {
            return Ok(());
        }
    }
    // The borrowed-slice fast path.  Index id lists and the dedup table
    // contain live rows only (removal drops ids eagerly); a full-row key
    // yields its one candidate (or none), which the delta window then
    // admits or not like any other id list.
    // Index ids are `u32`; an id widens to `usize` only at `probe`.
    let (found, scanned): ([u32; 1], Vec<u32>);
    let ids: &[u32] = match keyed {
        KeyedAccess::Index(index) => index.get(&scratch.key),
        KeyedAccess::Row => match relation.find_id(&scratch.key) {
            Some(id) => {
                found = [id as u32];
                &found
            }
            None => &[],
        },
        KeyedAccess::Unindexed => {
            scanned = relation
                .scan_select(&atom.plan.key_positions, &scratch.key)
                .into_iter()
                .map(|id| id as u32)
                .collect();
            &scanned
        }
    };
    for &id in window_slice(ids, atom.window) {
        probe(ctx, depth, atom, id as usize, scratch, sink, counters)?;
    }
    Ok(())
}

/// Examine one candidate row: run the atom's check program against it and
/// recurse on success.  The frame is unwound through the trail afterwards,
/// so the caller observes no binding changes.
#[inline]
fn probe<S: MatchSink>(
    ctx: &JoinCtx<'_>,
    depth: usize,
    atom: &BoundAtom<'_>,
    id: usize,
    scratch: &mut JoinScratch,
    sink: &mut S,
    counters: &mut JoinCounters,
) -> Result<(), EvalError> {
    counters.probes += 1;
    let row = atom.relation.row_ids(id);
    // The next atom's filter, tested on this row before binding it.
    if let Some(next) = scratch.filters.get(depth + 1) {
        if !next.precheck(row, &scratch.frame) {
            return Ok(());
        }
    }
    let mark = scratch.trail.len();
    let mut ok = true;
    for (pos, term) in &atom.plan.check {
        // A failed match unwinds its own partial bindings; earlier check
        // terms' bindings are unwound below through the trail mark.
        if !term.match_value_slots(row[*pos], &mut scratch.frame, &mut scratch.trail) {
            ok = false;
            break;
        }
    }
    if ok {
        descend(ctx, depth + 1, scratch, sink, counters)?;
    }
    magic_datalog::slots::unwind(&mut scratch.frame, &mut scratch.trail, mark);
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::RulePlan;
    use magic_datalog::{parse_rule, PredName, Value};
    use magic_storage::arena::decode_row;
    use std::collections::BTreeSet;

    fn db_with_par() -> Database {
        let mut db = Database::new();
        db.insert_pair("par", "a", "b");
        db.insert_pair("par", "b", "c");
        db.insert_pair("par", "c", "d");
        db
    }

    fn render_flat(pred: &str, arity: usize, out: &[ValId]) -> Vec<String> {
        out.chunks_exact(arity)
            .map(|row| {
                let args: Vec<String> = row.iter().map(|v| v.to_string()).collect();
                format!("{pred}({})", args.join(", "))
            })
            .collect()
    }

    #[test]
    fn single_atom_rule_produces_all_matches() {
        let rule = parse_rule("anc(X, Y) :- par(X, Y).").unwrap();
        let plan = RulePlan::compile(&rule, 0, &BTreeSet::new());
        let db = db_with_par();
        let mut out = Vec::new();
        let counters = evaluate_rule(&plan, &db, None, &Limits::default(), &mut out).unwrap();
        assert_eq!(out.len() / 2, 3);
        assert_eq!(counters.matches, 3);
    }

    #[test]
    fn join_through_shared_variable() {
        // grand(X, Z) :- par(X, Y), par(Y, Z).
        let rule = parse_rule("grand(X, Z) :- par(X, Y), par(Y, Z).").unwrap();
        let plan = RulePlan::compile(&rule, 0, &BTreeSet::new());
        let db = db_with_par();
        let mut out = Vec::new();
        evaluate_rule(&plan, &db, None, &Limits::default(), &mut out).unwrap();
        assert_eq!(
            render_flat("grand", 2, &out),
            vec!["grand(a, c)", "grand(b, d)"]
        );
    }

    #[test]
    fn delta_window_restricts_one_occurrence() {
        let rule = parse_rule("anc(X, Y) :- par(X, Y).").unwrap();
        let plan = RulePlan::compile(&rule, 0, &BTreeSet::new());
        let db = db_with_par();
        let mut out = Vec::new();
        let window = DeltaWindow {
            occurrence: 0,
            from: 1,
        };
        evaluate_rule(&plan, &db, Some(window), &Limits::default(), &mut out).unwrap();
        assert_eq!(out.len() / 2, 2);
    }

    /// What a window means: the ids from `from` on, by one binary search.
    fn window_slice_reference(ids: &[u32], w: DeltaWindow) -> &[u32] {
        &ids[ids.partition_point(|&id| (id as usize) < w.from)..]
    }

    /// A seeded draw below `bound`: SplitMix64, inline, because the engine
    /// has no dev-dependency to borrow a generator from.
    fn splitmix(seed: u64) -> impl FnMut(usize) -> usize {
        let mut state = seed;
        move |bound: usize| {
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            ((z ^ (z >> 31)) % bound as u64) as usize
        }
    }

    #[test]
    fn tail_anchored_window_slice_matches_the_partition_point_reference() {
        let mut next = splitmix(0x5EED_0014);
        for case in 0..4000 {
            // An ascending id list with random gaps (dense, sparse, empty).
            let len = [0, 1, 2, 3, 17, 64, 300][next(7)];
            let gap = [1, 2, 9][next(3)];
            let mut ids: Vec<u32> = Vec::with_capacity(len);
            let mut id = next(5);
            for _ in 0..len {
                ids.push(id as u32);
                id += 1 + next(gap);
            }
            // A watermark past every id.
            let end = id + 3;
            // Several suffix windows per list: anywhere, the whole list
            // (`from` 0), empty (`from` at the watermark), and near the
            // tail, on and beside a listed id.
            for _ in 0..6 {
                let from = match next(5) {
                    0 => next(end + 1),
                    1 => 0,
                    2 => end,
                    _ if ids.is_empty() => next(end + 1),
                    _ => {
                        let near = ids[ids.len() - 1 - next(ids.len().min(4))] as usize;
                        (near + next(3)).saturating_sub(1)
                    }
                };
                let w = DeltaWindow {
                    occurrence: 0,
                    from,
                };
                assert_eq!(
                    window_slice(&ids, Some(w)),
                    window_slice_reference(&ids, w),
                    "case {case}: ids {ids:?}, window from {from}"
                );
            }
            assert_eq!(window_slice(&ids, None), &ids[..]);
        }
    }

    /// One random rule over `p0..p3` (arities `arities`): 2 to 4 body
    /// atoms over shared variables `A..D`, constants, and compound `f(_, _)`
    /// terms; the first compound over a fresh variable is a check term (it
    /// declines the precheck), and an atom past the first may repeat only
    /// bound variables and constants (it is fully bound, a `Row` access).
    fn random_rule(next: &mut impl FnMut(usize) -> usize, arities: &[usize]) -> String {
        const VARS: [&str; 4] = ["A", "B", "C", "D"];
        const CONSTS: [&str; 3] = ["a", "b", "f(a, b)"];
        let atoms = 2 + next(3);
        let fully_bound = 1 + next(2 * atoms);
        let mut bound: Vec<&str> = Vec::new();
        let mut body = Vec::new();
        for depth in 0..atoms {
            let pred = next(arities.len());
            let mut atom_vars = Vec::new();
            let terms: Vec<String> = (0..arities[pred])
                .map(|_| {
                    let var = VARS[next(VARS.len())];
                    if depth == fully_bound && !bound.is_empty() {
                        return match next(4) {
                            0 => CONSTS[next(CONSTS.len())].to_string(),
                            _ => bound[next(bound.len())].to_string(),
                        };
                    }
                    match next(6) {
                        0 => CONSTS[next(CONSTS.len())].to_string(),
                        1 => {
                            let other = VARS[next(VARS.len())];
                            atom_vars.extend([var, other]);
                            format!("f({var}, {other})")
                        }
                        _ => {
                            atom_vars.push(var);
                            var.to_string()
                        }
                    }
                })
                .collect();
            for var in atom_vars {
                if !bound.contains(&var) {
                    bound.push(var);
                }
            }
            body.push(format!("p{pred}({})", terms.join(", ")));
        }
        bound.sort_unstable();
        let head = if bound.is_empty() {
            "a".to_string()
        } else {
            bound.join(", ")
        };
        format!("h({head}) :- {}.", body.join(", "))
    }

    /// The rows and counters of `plan` under `window`, through the join's
    /// steps, with the key filters and prechecks built (`filtered`) or
    /// cleared after building.  With the filters built, also checks that
    /// every live key of a filtered window passes its filter.  Returns
    /// whether some precheck was planned.
    fn run_join(
        plan: &RulePlan,
        db: &Database,
        window: Option<DeltaWindow>,
        filtered: bool,
    ) -> (Vec<ValId>, (usize, usize), [bool; 3]) {
        let limits = Limits::default();
        let mut out = Vec::new();
        let mut counters = JoinCounters::default();
        // (a filter on a full-row key, a precheck, a declined precheck)
        let mut seen = [false; 3];
        if let Some(ctx) = JoinCtx::bind(plan, db, window, &limits).unwrap() {
            let mut scratch = JoinScratch::default();
            scratch.reset(plan);
            scratch.build_filters(&ctx);
            for (depth, (atom, filter)) in ctx.atoms.iter().zip(&scratch.filters).enumerate() {
                if filter.bits.is_empty() {
                    continue;
                }
                seen[0] |= matches!(atom.keyed, Some(KeyedAccess::Row));
                seen[1] |= !filter.sources.is_empty();
                seen[2] |= filter.sources.is_empty()
                    && ctx.atoms[depth - 1]
                        .plan
                        .check
                        .iter()
                        .any(|(_, term)| !matches!(term, SlotTerm::Slot(_)));
                let relation = atom.relation;
                for id in window_range(relation.watermark(), atom.window) {
                    if relation.is_live(id) {
                        let row = relation.row_ids(id);
                        let key = atom.plan.key_positions.iter().map(|&p| row[p]);
                        assert!(filter.admits(key), "live window row {id} fails its filter");
                    }
                }
            }
            if !filtered {
                for filter in &mut scratch.filters {
                    filter.bits.clear();
                    filter.sources.clear();
                }
            }
            descend(
                &ctx,
                0,
                &mut scratch,
                &mut RowSink { out: &mut out },
                &mut counters,
            )
            .unwrap();
        }
        (out, (counters.probes, counters.matches), seen)
    }

    #[test]
    fn key_filters_and_prechecks_change_no_row_and_no_counter() {
        let mut next = splitmix(0xF1_17E5);
        let universe: Vec<Value> = ["a", "b", "c", "d"]
            .iter()
            .map(|s| Value::sym(s))
            .chain([
                Value::app("f".into(), vec![Value::sym("a"), Value::sym("b")]),
                Value::app("f".into(), vec![Value::sym("b"), Value::sym("a")]),
                Value::app("f".into(), vec![Value::sym("c"), Value::sym("c")]),
            ])
            .collect();
        let mut seen = [false; 3];
        let mut filtered_cases = 0;
        for case in 0..3000 {
            let arities: Vec<usize> = (0..4).map(|_| 1 + next(3)).collect();
            let source = random_rule(&mut next, &arities);
            let rule = parse_rule(&source).unwrap();
            let plan = RulePlan::compile(&rule, 0, &BTreeSet::new());
            // Rows of every relation, some of them then tombstoned.
            let mut db = Database::new();
            for (p, &arity) in arities.iter().enumerate() {
                let pred = PredName::plain(&format!("p{p}"));
                let mut rows = Vec::new();
                for _ in 0..1 + next(40) {
                    let row: Vec<Value> = (0..arity)
                        .map(|_| universe[next(universe.len())].clone())
                        .collect();
                    db.insert(pred.clone(), row.clone());
                    rows.push(row);
                }
                for row in &rows {
                    if next(5) == 0 {
                        db.remove(&pred, row);
                    }
                }
            }
            // Most key patterns indexed, the rest scanned by `scan_select`.
            for atom in &plan.atoms {
                let relation = db.relation_mut(&atom.pred, atom.arity);
                if !atom.key_positions.is_empty() && next(4) != 0 {
                    relation.ensure_index(&atom.key_positions);
                }
            }
            // One window on a random occurrence, from after row 0 or from
            // row 0.
            let occurrence = next(plan.atoms.len());
            let end = db
                .relation(&plan.atoms[occurrence].pred)
                .map_or(0, Relation::watermark);
            let from = if next(3) == 0 { 0 } else { 1 + next(end + 1) };
            let window = Some(DeltaWindow { occurrence, from });
            let (rows, counters, covered) = run_join(&plan, &db, window, true);
            let (want_rows, want_counters, _) = run_join(&plan, &db, window, false);
            assert_eq!(rows, want_rows, "case {case}: {source} under {window:?}");
            assert_eq!(
                counters, want_counters,
                "case {case}: {source} under {window:?}"
            );
            // The public entry point runs the filtered join.
            let mut out = Vec::new();
            let public = evaluate_rule(&plan, &db, window, &Limits::default(), &mut out).unwrap();
            assert_eq!((out, (public.probes, public.matches)), (rows, counters));
            filtered_cases += usize::from(covered.iter().any(|&c| c));
            for (seen, covered) in seen.iter_mut().zip(covered) {
                *seen |= covered;
            }
        }
        assert_eq!(
            seen, [true; 3],
            "no case filtered a full-row key, planned a precheck, or declined one"
        );
        assert!(filtered_cases > 300, "{filtered_cases} filtered cases");
    }

    #[test]
    fn delta_window_slices_indexed_ids() {
        // Indexed access path (second atom keyed on Z) with a delta window
        // on the indexed occurrence: the window must slice the id list.
        let rule = parse_rule("grand(X, Z) :- par(X, Y), par(Y, Z).").unwrap();
        let plan = RulePlan::compile(&rule, 0, &BTreeSet::new());
        let mut db = db_with_par();
        db.relation_mut(&PredName::plain("par"), 2)
            .ensure_index(&[0]);
        // Window excluding row 1 (par(b, c)): grand(a, c) needs it at
        // occurrence 1, so only grand(b, d) (via row 2) survives.
        let window = DeltaWindow {
            occurrence: 1,
            from: 2,
        };
        let mut out = Vec::new();
        evaluate_rule(&plan, &db, Some(window), &Limits::default(), &mut out).unwrap();
        assert_eq!(render_flat("grand", 2, &out), vec!["grand(b, d)"]);
    }

    #[test]
    fn tombstoned_rows_are_skipped_without_probes() {
        // Remove the middle row: the scan path must neither match nor
        // count it, exactly as if it had never been inserted.
        let rule = parse_rule("anc(X, Y) :- par(X, Y).").unwrap();
        let plan = RulePlan::compile(&rule, 0, &BTreeSet::new());
        let mut db = db_with_par();
        db.remove(&PredName::plain("par"), &[Value::sym("b"), Value::sym("c")]);
        let mut out = Vec::new();
        let counters = evaluate_rule(&plan, &db, None, &Limits::default(), &mut out).unwrap();
        assert_eq!(counters.probes, 2);
        assert_eq!(render_flat("anc", 2, &out), vec!["anc(a, b)", "anc(c, d)"]);
    }

    #[test]
    fn count_derivations_is_the_head_bound_join() {
        use magic_storage::arena::intern_row;
        let rule = parse_rule("anc(X, Y) :- par(X, Y).").unwrap();
        let plan = RulePlan::compile(&rule, 0, &BTreeSet::new());
        let db = db_with_par();
        let a_b = intern_row(&[Value::sym("a"), Value::sym("b")]);
        let a_z = intern_row(&[Value::sym("a"), Value::sym("z")]);
        assert_eq!(
            count_derivations(&plan, &db, &a_b, &Limits::default()).unwrap(),
            1
        );
        assert_eq!(
            count_derivations(&plan, &db, &a_z, &Limits::default()).unwrap(),
            0
        );
        // Multiple derivations of the same head row.
        let rule = parse_rule("reach(X) :- par(Y, X).").unwrap();
        let plan = RulePlan::compile(&rule, 0, &BTreeSet::new());
        let mut db = db_with_par();
        db.insert_pair("par", "z", "b");
        let b = intern_row(&[Value::sym("b")]);
        assert_eq!(
            count_derivations(&plan, &db, &b, &Limits::default()).unwrap(),
            2
        );
    }

    #[test]
    fn head_bound_join_follows_the_sip_from_the_head_row() {
        // The gms magic rule, asked for the support of one `magic` row:
        // the head-bound plan must start from the atom the head binds
        // (`par`, on its second column) and reach `magic` with `X` bound,
        // so the work is the row's in-degree — not a scan of `magic`.
        use magic_storage::arena::intern_row;
        let rule = parse_rule("magic(Z) :- magic(X), par(X, Z).").unwrap();
        let derived: BTreeSet<PredName> = [PredName::plain("magic")].into_iter().collect();
        let plan = RulePlan::compile_head_bound(&rule, 0, &derived);
        assert_eq!(plan.atoms[0].pred, PredName::plain("par"));
        assert_eq!(plan.atoms[0].key_positions, vec![1]);
        assert_eq!(plan.atoms[1].pred, PredName::plain("magic"));
        assert_eq!(plan.atoms[1].key_positions, vec![0]);

        let node = |i: usize| Value::sym(&format!("m{i}"));
        let target = intern_row(&[node(0)]);
        let mut probes = Vec::new();
        for magic_rows in [50, 400] {
            let mut db = Database::new();
            for i in 0..magic_rows {
                db.insert(PredName::plain("magic"), vec![node(i)]);
                // A chain among the others, so `par` grows with `magic`.
                db.insert(PredName::plain("par"), vec![node(i + 1), node(i + 2)]);
            }
            // In-degree 3, two of the parents in `magic`.
            db.insert(PredName::plain("par"), vec![node(7), node(0)]);
            db.insert(PredName::plain("par"), vec![node(9), node(0)]);
            db.insert(
                PredName::plain("par"),
                vec![Value::sym("outsider"), node(0)],
            );
            db.relation_mut(&PredName::plain("par"), 2)
                .ensure_index(&[1]);
            let counters =
                count_derivations_batch(&plan, &db, 1, &target, &Limits::default(), &mut [0])
                    .unwrap();
            assert_eq!(counters.matches, 2);
            assert_eq!(
                count_derivations(&plan, &db, &target, &Limits::default()).unwrap(),
                2
            );
            // Three `par` candidates, two of which find their `magic` row.
            assert_eq!(counters.probes, 5, "|magic| = {magic_rows}");
            probes.push(counters.probes);
        }
        assert_eq!(probes[0], probes[1], "probes must not grow with |magic|");
    }

    #[test]
    fn negated_atom_is_an_anti_join() {
        // stuck(X) :- pos(X), not can_move(X).
        let rule = parse_rule("stuck(X) :- pos(X), not can_move(X).").unwrap();
        let plan = RulePlan::compile(&rule, 0, &BTreeSet::new());
        let mut db = Database::new();
        for p in ["a", "b", "c"] {
            db.insert(PredName::plain("pos"), vec![Value::sym(p)]);
        }
        db.insert(PredName::plain("can_move"), vec![Value::sym("a")]);
        let mut out = Vec::new();
        let counters = evaluate_rule(&plan, &db, None, &Limits::default(), &mut out).unwrap();
        assert_eq!(render_flat("stuck", 1, &out), vec!["stuck(b)", "stuck(c)"]);
        assert_eq!(counters.matches, 2);

        // An absent negated relation means the negation trivially holds.
        let rule = parse_rule("all(X) :- pos(X), not nothing(X).").unwrap();
        let plan = RulePlan::compile(&rule, 0, &BTreeSet::new());
        let mut out = Vec::new();
        evaluate_rule(&plan, &db, None, &Limits::default(), &mut out).unwrap();
        assert_eq!(out.len(), 3);
    }

    #[test]
    fn unbound_negated_variable_is_reported() {
        let rule = parse_rule("p(X) :- q(X), not r(Y).").unwrap();
        let plan = RulePlan::compile(&rule, 0, &BTreeSet::new());
        let mut db = Database::new();
        db.insert(PredName::plain("q"), vec![Value::sym("a")]);
        db.insert(PredName::plain("r"), vec![Value::sym("b")]);
        let mut out = Vec::new();
        let err = evaluate_rule(&plan, &db, None, &Limits::default(), &mut out).unwrap_err();
        assert!(matches!(err, EvalError::UnsafeNegation { .. }));
    }

    #[test]
    fn non_range_restricted_rule_errors() {
        let rule = parse_rule("p(X, W) :- q(X).").unwrap();
        let plan = RulePlan::compile(&rule, 0, &BTreeSet::new());
        let mut db = Database::new();
        db.insert(PredName::plain("q"), vec![Value::sym("a")]);
        let mut out = Vec::new();
        let err = evaluate_rule(&plan, &db, None, &Limits::default(), &mut out).unwrap_err();
        assert!(matches!(err, EvalError::NotRangeRestricted { .. }));
    }

    #[test]
    fn arity_mismatch_is_reported_even_when_an_earlier_relation_is_missing() {
        let rule = parse_rule("p(X, Y) :- nothing(X), q(X, Y).").unwrap();
        let plan = RulePlan::compile(&rule, 0, &BTreeSet::new());
        let mut db = Database::new();
        // q stored with arity 1, used with arity 2; `nothing` is absent.
        db.insert(PredName::plain("q"), vec![Value::sym("a")]);
        let mut out = Vec::new();
        let err = evaluate_rule(&plan, &db, None, &Limits::default(), &mut out).unwrap_err();
        assert!(matches!(err, EvalError::ArityMismatch { .. }));
    }

    #[test]
    fn missing_relation_is_empty() {
        let rule = parse_rule("p(X) :- nothing(X).").unwrap();
        let plan = RulePlan::compile(&rule, 0, &BTreeSet::new());
        let db = Database::new();
        let mut out = Vec::new();
        evaluate_rule(&plan, &db, None, &Limits::default(), &mut out).unwrap();
        assert!(out.is_empty());
    }

    #[test]
    fn backtracking_unbinds_frame_slots_between_rows() {
        // p(X, Y) :- q(X), r(X, Y): for each q row, r is checked with X
        // bound; X must be unbound again before the next q row.
        let rule = parse_rule("p(X, Y) :- q(X), r(X, Y).").unwrap();
        let plan = RulePlan::compile(&rule, 0, &BTreeSet::new());
        let mut db = Database::new();
        db.insert(PredName::plain("q"), vec![Value::sym("a")]);
        db.insert(PredName::plain("q"), vec![Value::sym("b")]);
        db.insert_pair("r", "a", "x");
        db.insert_pair("r", "b", "y");
        let mut out = Vec::new();
        evaluate_rule(&plan, &db, None, &Limits::default(), &mut out).unwrap();
        assert_eq!(render_flat("p", 2, &out), vec!["p(a, x)", "p(b, y)"]);
    }

    #[test]
    fn flat_rows_decode_back_to_values() {
        let rule = parse_rule("anc(X, Y) :- par(X, Y).").unwrap();
        let plan = RulePlan::compile(&rule, 0, &BTreeSet::new());
        let db = db_with_par();
        let mut out = Vec::new();
        evaluate_rule(&plan, &db, None, &Limits::default(), &mut out).unwrap();
        let first = decode_row(&out[..2]);
        assert_eq!(first, vec![Value::sym("a"), Value::sym("b")]);
    }
}
