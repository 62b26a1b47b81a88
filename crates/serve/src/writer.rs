//! The maintenance writer as a state machine.
//!
//! [`Writer`] owns the [`ViewCatalog`], the optional [`DurableStore`], the
//! published [`Snapshot`] and the degraded state; it holds no channel,
//! lock or atomic and never reads the clock (time is the `now`
//! argument).  The writer thread (`run_writer` in `server.rs`) runs
//! [`Writer::turn`] on received commands; the crash simulator
//! (`writer/sim.rs`) runs the same turns on a synthetic clock.
//!
//! A turn is [`Writer::step`] over the drained commands in arrival
//! order — consecutive updates form one decide → log → apply batch —
//! then [`Writer::duties`]: the checkpoint cadence, the TTL sweep and the
//! degraded-mode probe, whichever is due.  Readers learn everything from
//! the one [`Snapshot`], handed over before the step's replies: every
//! ack names a live version, and a refused client finds the degraded
//! flag already raised.

use magic_datalog::{Fact, PredName, Program, Query};
use magic_durable::DurableStore;
use magic_engine::EvalStats;
use magic_incr::{Update, ViewCatalog, ViewSnapshot};
use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// First retry delay after entering degraded mode; doubles per failed
/// probe up to [`PROBE_BACKOFF_MAX`].
const PROBE_BACKOFF_MIN: Duration = Duration::from_millis(25);

/// Cap on the degraded-mode probe backoff: even a long outage is
/// re-checked at least every couple of seconds.
const PROBE_BACKOFF_MAX: Duration = Duration::from_secs(2);

/// An immutable published state: one frozen [`ViewSnapshot`] per cached
/// binding at one version, and the writer's counters.  Unchanged entries
/// share their `Arc` with the previous snapshot, and every binding of one
/// view shares that view's frozen database.
#[derive(Default)]
pub(crate) struct Snapshot {
    /// Bumped by every publish that moved a view; a change to
    /// [`Snapshot::counters`] alone republishes at the same version.
    pub(crate) version: u64,
    pub(crate) views: BTreeMap<String, Arc<ViewSnapshot>>,
    /// The catalog's maintained fixpoints at this publish, how many of
    /// them recompute on update, and their summed metrics: a view many
    /// bindings read is counted once.
    pub(crate) materialized: u64,
    pub(crate) recompute_views: u64,
    pub(crate) totals: EvalStats,
    pub(crate) counters: Counters,
}

/// The writer's state and lifetime counters as of one publish.
#[derive(Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct Counters {
    /// Read-only degraded mode: raised when the durable path (WAL append
    /// or checkpoint) fails, lowered when the probe proves it healthy.
    pub(crate) degraded: bool,
    /// Times the writer has *entered* degraded mode.
    pub(crate) degraded_entered: u64,
    /// [`DurableStore::wal_bytes`] (0 without a store).
    pub(crate) wal_bytes: u64,
    /// [`DurableStore::last_checkpoint_seq`] (0 without a store).
    pub(crate) last_checkpoint_seq: u64,
    /// State-changing updates applied.
    pub(crate) updates_applied: u64,
    /// Bindings dropped from the published map, whichever way the catalog
    /// lost them: failed maintenance, the TTL, the `max_views` cap.
    pub(crate) views_evicted: u64,
}

/// One client command: apply an update, or materialize the view of a
/// first-sight query.
pub(crate) enum Command {
    Update(Update),
    Materialize(Query),
}

/// The writer's answer to one [`Command`].
#[derive(Debug)]
pub(crate) enum Answer {
    /// The update is logged and live at `version`; `changed` is false
    /// for a no-op, which is acknowledged but neither logged nor applied.
    Applied { changed: bool, version: u64 },
    /// The binding key the materialize made (or found) live.
    Materialized(String),
    /// Why the command was refused.
    Refused(String),
}

/// One output of [`Writer::turn`], in the order it must reach readers.
pub(crate) enum Event<T> {
    Publish(Arc<Snapshot>),
    Reply(T, Answer),
}

/// Which durable operation failed, and so what the probe retries: a WAL
/// append (the probe heals the log tail and proves an empty append
/// round-trips) or a checkpoint (acked state is still WAL-safe).
#[derive(Clone, Copy)]
enum DegradedCause {
    Wal,
    Checkpoint,
}

impl DegradedCause {
    fn noun(self) -> &'static str {
        match self {
            DegradedCause::Wal => "WAL append",
            DegradedCause::Checkpoint => "checkpoint",
        }
    }
}

/// Read-only degraded mode: what failed, and when and on what backoff the
/// probe retries it.
struct Degraded {
    cause: DegradedCause,
    backoff: Duration,
    next_probe: Instant,
}

/// The maintenance writer's whole state (see the module docs).
pub(crate) struct Writer {
    program: Program,
    /// Arities the program declares; facts that disagree with the
    /// program or with a stored relation are refused before they can
    /// reach storage (whose insert path treats a wrong-arity row as a
    /// caller bug and panics).
    declared_arities: BTreeMap<PredName, usize>,
    catalog: ViewCatalog,
    store: Option<DurableStore>,
    /// The frozen per-binding snapshots, kept in step with the catalog,
    /// and the snapshot last returned for publishing.
    views: BTreeMap<String, Arc<ViewSnapshot>>,
    published: Arc<Snapshot>,
    /// While `Some`, updates are refused and [`Writer::duties`] retries
    /// the failed operation on a capped exponential backoff.
    degraded: Option<Degraded>,
    /// The lifetime counts; [`Writer::counters`] adds the rest.
    counters: Counters,
    /// How often the TTL sweep runs — a quarter TTL, so staleness past
    /// the deadline stays small, within bounds so tiny TTLs don't
    /// busy-spin — and when next; `None` without a TTL.
    sweep: Option<(Duration, Instant)>,
}

impl Writer {
    /// A writer over `catalog` and `store`, sweeping bindings idle past
    /// `view_ttl` (zero: never).  Its first snapshot, version 0, holds the
    /// bindings recovery made: their first query is a cache hit on the
    /// materialize path, which publishes nothing.
    pub(crate) fn new(
        program: Program,
        catalog: ViewCatalog,
        store: Option<DurableStore>,
        view_ttl: Duration,
        now: Instant,
    ) -> Writer {
        let tick = (view_ttl / 4).clamp(Duration::from_millis(10), Duration::from_secs(1));
        let mut writer = Writer {
            declared_arities: program.predicate_arities().unwrap_or_default(),
            program,
            catalog,
            store,
            views: BTreeMap::new(),
            published: Arc::default(),
            degraded: None,
            counters: Counters::default(),
            sweep: (!view_ttl.is_zero()).then_some((tick, now + tick)),
        };
        let recovered: Vec<String> = writer.catalog.keys().map(String::from).collect();
        writer.refresh(&recovered);
        writer.published = Arc::new(writer.freeze(0));
        writer
    }

    /// The snapshot last returned for publishing.
    pub(crate) fn snapshot(&self) -> Arc<Snapshot> {
        Arc::clone(&self.published)
    }

    /// When the TTL sweep or the probe is next due.  The checkpoint
    /// cadence is due right after the step that crossed it.
    pub(crate) fn due(&self) -> Option<Instant> {
        let probe = self.degraded.as_ref().map(|d| d.next_probe);
        probe.into_iter().chain(self.sweep.map(|(_, at)| at)).min()
    }

    /// One turn: [`Writer::step`], its snapshot handed over before its
    /// replies, then [`Writer::duties`] — which therefore run whether or
    /// not the wait for commands timed out, and keep no client waiting.
    pub(crate) fn turn<T>(
        &mut self,
        commands: Vec<(T, Command)>,
        now: Instant,
        mut hand_over: impl FnMut(Event<T>),
    ) {
        let (snapshot, replies) = self.step(commands, now);
        if let Some(snapshot) = snapshot {
            hand_over(Event::Publish(snapshot));
        }
        for (token, answer) in replies {
            hand_over(Event::Reply(token, answer));
        }
        if let Some(snapshot) = self.duties(now) {
            hand_over(Event::Publish(snapshot));
        }
    }

    /// Run `commands` in arrival order: each run of consecutive updates
    /// is one batch (see [`Writer::apply_batch`]), each materialize makes
    /// its binding live.  Returns the snapshot to publish, if readers
    /// would see a difference, and one answer per command, keyed by the
    /// caller's token; every acknowledgment carries the version of that
    /// snapshot.
    pub(crate) fn step<T>(
        &mut self,
        commands: Vec<(T, Command)>,
        now: Instant,
    ) -> (Option<Arc<Snapshot>>, Vec<(T, Answer)>) {
        let mut replies = Vec::with_capacity(commands.len());
        let mut moved = false;
        let mut batch = Vec::new();
        for (token, command) in commands {
            match command {
                Command::Update(update) => batch.push((token, update)),
                Command::Materialize(query) => {
                    moved |= self.apply_batch(std::mem::take(&mut batch), now, &mut replies);
                    replies.push((token, self.materialize(&query, now, &mut moved)));
                }
            }
        }
        moved |= self.apply_batch(batch, now, &mut replies);
        let snapshot = self.publish(moved);
        for (_, answer) in &mut replies {
            if let Answer::Applied { version, .. } = answer {
                *version = self.published.version;
            }
        }
        (snapshot, replies)
    }

    /// First sight of a binding (a cache hit changes nothing).  It may
    /// have evicted cold ones past the `max_views` cap, or cost a view
    /// that could not take its seed every binding; `refresh` drops those.
    fn materialize(&mut self, query: &Query, now: Instant, moved: &mut bool) -> Answer {
        let result = self.catalog.materialize_keyed(&self.program, query, now);
        let fresh = match &result {
            Ok((key, true)) => std::slice::from_ref(key),
            _ => &[],
        };
        *moved |= self.refresh(fresh);
        // A pathologically tiny `max_views` can evict the very binding
        // just made: an answerable error, which the client retries.
        match result {
            Ok((key, _)) if self.catalog.contains(&key) => Answer::Materialized(key),
            Ok((key, _)) => Answer::Refused(format!(
                "view {key} was evicted immediately after materialization \
                 (max_views is too small for the working set); retry"
            )),
            Err(e) => Answer::Refused(e.to_string()),
        }
    }

    /// One batch of updates: decide which change state against the
    /// catalog's base, read-only; log those; only then apply them through
    /// [`ViewCatalog::apply_all`], so a failed append leaves nothing to
    /// undo.  Returns whether views moved.
    fn apply_batch<T>(
        &mut self,
        batch: Vec<(T, Update)>,
        now: Instant,
        replies: &mut Vec<(T, Answer)>,
    ) -> bool {
        if let Some(d) = &self.degraded {
            // The front door refuses updates while degraded, but a
            // command already queued when the flag rose races past it;
            // refuse it truthfully too.
            let refusal = format!(
                "DEGRADED read-only: the last {} failed; updates are refused \
                 until a background probe restores the durable path",
                d.cause.noun()
            );
            refuse(batch.into_iter().map(|(token, _)| token), &refusal, replies);
            return false;
        }
        // Decide under an overlay of what earlier updates of the batch did
        // to a fact or gave a new predicate as its arity.  A no-op is
        // acknowledged but neither logged nor applied.
        let base = self.catalog.base();
        let mut touched: HashMap<Fact, bool> = HashMap::new();
        let mut new_arities: HashMap<PredName, usize> = HashMap::new();
        let mut changed: Vec<Update> = Vec::new();
        let mut acks: Vec<(T, bool)> = Vec::new();
        for (token, update) in batch {
            let fact = update.fact();
            let stored = base.relation(&fact.pred).map(|rel| rel.arity());
            let expected = stored
                .or_else(|| new_arities.get(&fact.pred).copied())
                .or_else(|| self.declared_arities.get(&fact.pred).copied());
            if let Some(arity) = expected.filter(|&arity| arity != fact.arity()) {
                replies.push((
                    token,
                    Answer::Refused(format!(
                        "arity mismatch: {} is stored with arity {arity}, fact has arity {}",
                        fact.pred,
                        fact.arity()
                    )),
                ));
                continue;
            }
            let inserting = matches!(update, Update::Insert(_));
            let present = touched
                .get(fact)
                .copied()
                .unwrap_or_else(|| base.contains(fact));
            let is_change = present != inserting;
            if is_change {
                if stored.is_none() {
                    new_arities.insert(fact.pred.clone(), fact.arity());
                }
                touched.insert(fact.clone(), inserting);
                changed.push(update);
            }
            acks.push((token, is_change));
        }
        // A failed append is scrubbed off the log (see
        // [`DurableStore::log_batch`]): memory, disk and the refusals
        // agree that the batch never happened.
        let logged = match self.store.as_mut().filter(|_| !changed.is_empty()) {
            Some(store) => store.log_batch(&changed).map(drop),
            None => Ok(()),
        };
        if let Err(e) = logged {
            eprintln!("magic-serve: WAL append failed, entering read-only degraded mode: {e}");
            self.enter_degraded(DegradedCause::Wal, now);
            let refusal = format!(
                "DEGRADED update refused: WAL append failed ({e}); the batch was not \
                 applied and the server is read-only until the durable path recovers"
            );
            refuse(acks.into_iter().map(|(token, _)| token), &refusal, replies);
            return false;
        }
        let moved = !changed.is_empty();
        if moved {
            // A view whose maintenance fails is evicted with its bindings,
            // so every surviving view agrees with the base.
            let outcome = self.catalog.apply_all(&changed);
            self.counters.updates_applied += changed.len() as u64;
            self.refresh(&outcome.changed);
        }
        for (token, changed) in acks {
            replies.push((
                token,
                Answer::Applied {
                    changed,
                    version: 0,
                },
            ));
        }
        moved
    }

    /// Run whatever is due at `now`: the TTL sweep, then the durable
    /// path's duty — the cadence checkpoint while healthy, the probe of
    /// the failed operation while degraded.  Returns the snapshot to
    /// publish if readers would see a difference.
    pub(crate) fn duties(&mut self, now: Instant) -> Option<Arc<Snapshot>> {
        let mut moved = false;
        if let Some((tick, _)) = self.sweep.filter(|&(_, at)| now >= at) {
            // Eviction is never an error: a dropped binding
            // re-materializes from the base on next sight.
            self.catalog.evict_expired(now);
            moved = self.refresh(&[]);
            self.sweep = Some((tick, now + tick));
        }
        if let Some(store) = self.store.as_mut() {
            let attempt = match &self.degraded {
                None => store
                    .should_checkpoint()
                    .then_some(DegradedCause::Checkpoint),
                Some(d) => (now >= d.next_probe).then_some(d.cause),
            };
            let outcome = attempt.map(|op| match op {
                DegradedCause::Wal => store.probe(),
                DegradedCause::Checkpoint => {
                    store.checkpoint(self.catalog.base(), &self.catalog.export_bindings())
                }
            });
            match (outcome, self.degraded.as_mut()) {
                (Some(Ok(())), Some(d)) => {
                    eprintln!(
                        "magic-serve: durable path recovered ({} probe succeeded); \
                         leaving degraded mode",
                        d.cause.noun()
                    );
                    self.degraded = None;
                }
                // Every ack stays honest (the WAL holds them), but a store
                // that cannot checkpoint is sick: stop piling acked writes
                // onto an unbounded WAL tail until the probe succeeds.
                (Some(Err(e)), None) => {
                    eprintln!(
                        "magic-serve: checkpoint failed, entering read-only degraded mode: {e}"
                    );
                    self.enter_degraded(DegradedCause::Checkpoint, now);
                }
                (Some(Err(_)), Some(d)) => {
                    d.next_probe = now + d.backoff;
                    d.backoff = (d.backoff * 2).min(PROBE_BACKOFF_MAX);
                }
                (None | Some(Ok(())), _) => {}
            }
        }
        self.publish(moved)
    }

    /// Clean exit: flush what the fsync policy deferred, so a graceful
    /// shutdown loses nothing even to a machine crash right after.
    pub(crate) fn close(mut self) {
        if let Some(store) = self.store.as_mut() {
            let _ = store.sync();
        }
    }

    /// Flip into read-only degraded mode (re-entering while degraded only
    /// updates the cause and restarts the backoff).
    fn enter_degraded(&mut self, cause: DegradedCause, now: Instant) {
        if self.degraded.is_none() {
            self.counters.degraded_entered += 1;
        }
        self.degraded = Some(Degraded {
            cause,
            backoff: PROBE_BACKOFF_MIN,
            next_probe: now + PROBE_BACKOFF_MIN,
        });
    }

    /// Re-freeze the bindings a catalog operation reported `changed` and
    /// drop the ones the catalog no longer holds; untouched bindings keep
    /// their `Arc`.  Returns whether anything differed.
    fn refresh(&mut self, changed: &[String]) -> bool {
        let before = self.views.len();
        self.views.retain(|key, _| self.catalog.contains(key));
        let dropped = before - self.views.len();
        self.counters.views_evicted += dropped as u64;
        for key in changed {
            if let Some(snap) = self.catalog.snapshot_view(key) {
                self.views.insert(key.clone(), Arc::new(snap));
            }
        }
        dropped > 0 || !changed.is_empty()
    }

    /// The snapshot to hand readers, if they would see a difference: the
    /// next version when views `moved`, the same version when only the
    /// counters did.
    fn publish(&mut self, moved: bool) -> Option<Arc<Snapshot>> {
        if !moved && self.counters() == self.published.counters {
            return None;
        }
        self.published = Arc::new(self.freeze(self.published.version + u64::from(moved)));
        Some(Arc::clone(&self.published))
    }

    /// The current state as `version`: one `Arc` bump per binding.
    fn freeze(&self, version: u64) -> Snapshot {
        Snapshot {
            version,
            views: self.views.clone(),
            materialized: self.catalog.materialized() as u64,
            recompute_views: self.catalog.recompute_views() as u64,
            totals: self.catalog.aggregate_stats(),
            counters: self.counters(),
        }
    }

    /// The lifetime counts with the current state and the store's figures.
    fn counters(&self) -> Counters {
        let store = self.store.as_ref();
        Counters {
            degraded: self.degraded.is_some(),
            wal_bytes: store.map_or(0, DurableStore::wal_bytes),
            last_checkpoint_seq: store.map_or(0, DurableStore::last_checkpoint_seq),
            ..self.counters
        }
    }
}

/// Answer every command of `tokens` with the same refusal.
fn refuse<T>(tokens: impl Iterator<Item = T>, why: &str, replies: &mut Vec<(T, Answer)>) {
    replies.extend(tokens.map(|token| (token, Answer::Refused(why.to_string()))));
}

#[cfg(test)]
mod sim;
