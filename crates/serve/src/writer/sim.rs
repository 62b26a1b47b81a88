//! The writer's crash simulator: the [`Writer`] machine driven with no
//! threads, by scripted clients on a synthetic clock, over a real
//! [`DurableStore`] in a scratch directory under [`FsyncPolicy::Never`]
//! and a seeded [`FaultPlan`].
//!
//! Each schedule opens a fresh store, lets its clients (one outstanding
//! command each, like a window-1 connection) query and update an
//! ancestor program, drains the queue at seeded batch boundaries — a turn
//! whose wait would end at [`Writer::due`] before the next client
//! arrives runs with no commands, as the thread's timed-out wait does —
//! and crashes at a seeded turn: the machine is dropped, the store
//! reopened, and recovery is the product's own [`DurableStore::recover`].
//! The invariants, checked as events are handed over and after every
//! turn:
//!
//! * every `Applied` ack names a version already published
//!   (ack-after-publish), and every published binding answers exactly
//!   what a from-scratch closure of the acked base derives
//!   (read-your-writes);
//! * a refused update leaves no trace in the catalog's base or in any
//!   published view (no ghost row);
//! * after the crash, acked ⊆ recovered ⊆ acked ∪ unknown, where unknown
//!   is every command a client sent and never had answered.
//!
//! A failing schedule prints its seed; [`run_seed`] replays it.  The
//! whole-server simulator (`session/sim.rs`) reuses the ledger of these
//! invariants, the store plumbing and the oracle.

use super::{Answer, Command, Event, Snapshot, Writer};
use magic_core::planner::Strategy;
use magic_datalog::{parse_program, parse_query, Fact, PredName, Program, Value};
use magic_durable::{DurableConfig, DurableStore, FaultPlan, FsyncPolicy};
use magic_incr::{Update, ViewCatalog};
use magic_storage::Database;
use magic_workloads::{chaos_fault_spec, SplitMix64};
use std::collections::{BTreeSet, VecDeque};
use std::ops::Range;
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Nodes `n0 .. n5`; the seed base is the chain `n0 → n1 → n2 → n3`.
pub(crate) const NODES: usize = 6;
const SEED_CHAIN: usize = 3;

pub(crate) type Edge = (usize, usize);

/// One client command.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Op {
    Query(usize),
    Insert(Edge),
    Retract(Edge),
    /// `par` at the wrong arity: refused, and never stored.
    Malformed,
}

/// Where in a turn the process dies.
#[derive(Clone, Copy, Debug)]
pub(crate) enum Crash {
    /// With the drained commands still queued.
    BeforeTurn,
    /// After the step logged and applied them, before its snapshot or
    /// any reply was handed over.
    AfterStep,
}

/// Everything that fixes one run.
struct Schedule {
    seed: u64,
    scripts: Vec<Vec<Op>>,
    faults: String,
    checkpoint_every: u64,
    view_ttl: Duration,
    max_views: usize,
    /// A client's pause between an answer and its next request, in ms.
    think_ms: Range<usize>,
    crash: Option<(usize, Crash)>,
}

impl Schedule {
    /// A seeded schedule: one to three clients over 24 updates and three
    /// first queries between them, a chaos fault spec restricted to the
    /// store's fault sites, and a crash at a seeded turn.
    fn seeded(seed: u64) -> Schedule {
        let mut rng = SplitMix64::seed_from_u64(seed);
        let clients = rng.random_range(1..4);
        let mut scripts: Vec<Vec<Op>> = (0..clients).map(|_| Vec::new()).collect();
        for i in 0..3 {
            scripts[i % clients].push(Op::Query(rng.random_range(0..NODES)));
        }
        let mut updates = 0;
        while updates < 24 {
            let edge = (rng.random_range(0..NODES), rng.random_range(0..NODES));
            let op = match rng.random_range(0..20) {
                0..=10 => Op::Insert(edge),
                11..=16 => Op::Retract(edge),
                17..=18 => Op::Query(edge.0),
                _ => Op::Malformed,
            };
            updates += usize::from(!matches!(op, Op::Query(_)));
            scripts[rng.random_range(0..clients)].push(op);
        }
        let faults = store_faults(&mut rng);
        let crash = if rng.random_range(0..2) == 0 {
            Crash::BeforeTurn
        } else {
            Crash::AfterStep
        };
        Schedule {
            seed,
            scripts,
            faults,
            checkpoint_every: [0, 4, 10][rng.random_range(0..3)],
            view_ttl: Duration::from_millis([0, 0, 25, 60][rng.random_range(0..4)]),
            max_views: [0, 0, 2][rng.random_range(0..3)],
            think_ms: 0..rng.random_range(1..12),
            crash: Some((rng.random_range(0..40), crash)),
        }
    }
}

/// A seeded chaos fault spec restricted to the store's sites: connection
/// sites touch no machine code, and an append stall only sleeps.
pub(crate) fn store_faults(rng: &mut SplitMix64) -> String {
    chaos_fault_spec(rng)
        .split(',')
        .filter(|rule| !rule.starts_with("conn-") && !rule.starts_with("wal-stall"))
        .collect::<Vec<_>>()
        .join(",")
}

pub(crate) fn program() -> Program {
    parse_program(
        "anc(X, Y) :- par(X, Y).
         anc(X, Y) :- par(X, Z), anc(Z, Y).",
    )
    .expect("the ancestor program parses")
}

pub(crate) fn seed_edges() -> BTreeSet<Edge> {
    (0..SEED_CHAIN).map(|i| (i, i + 1)).collect()
}

pub(crate) fn seed_db() -> Database {
    let mut db = Database::new();
    for (a, b) in seed_edges() {
        db.insert_fact(&edge_fact((a, b)));
    }
    db
}

fn node(i: usize) -> Value {
    Value::sym(&format!("n{i}"))
}

pub(crate) fn edge_fact((a, b): Edge) -> Fact {
    Fact::plain("par", vec![node(a), node(b)])
}

/// The node a binding key `anc…[bf](nK)@…` binds.
pub(crate) fn bound_node(key: &str) -> usize {
    let bound = key
        .split_once("](n")
        .and_then(|(_, rest)| rest.split_once(')'));
    bound
        .and_then(|(k, _)| k.parse().ok())
        .unwrap_or_else(|| panic!("unexpected binding key {key}"))
}

/// The oracle: `anc(n{from}, Y)` over `edges`, by graph search.
pub(crate) fn closure(edges: &BTreeSet<Edge>, from: usize) -> BTreeSet<Vec<Value>> {
    let mut seen = BTreeSet::new();
    let mut todo = vec![from];
    while let Some(x) = todo.pop() {
        for &(a, b) in edges {
            if a == x && seen.insert(b) {
                todo.push(b);
            }
        }
    }
    seen.into_iter().map(|y| vec![node(y)]).collect()
}

/// `db`'s `par` relation, checked against the universe of edges.
fn stored_edges(db: &Database) -> BTreeSet<Edge> {
    let pairs = (0..NODES).flat_map(|a| (0..NODES).map(move |b| (a, b)));
    let edges: BTreeSet<Edge> = pairs.filter(|&e| db.contains(&edge_fact(e))).collect();
    let rows = db.relation(&PredName::from("par")).map_or(0, |r| r.len());
    assert_eq!(rows, edges.len(), "a `par` row outside the node universe");
    edges
}

struct Client {
    script: VecDeque<Op>,
    outstanding: Option<Op>,
    ready_at: Instant,
}

/// What the writer has told its clients, checked as it lands: the acked
/// base, the published versions and the latest snapshot.
pub(crate) struct Ledger {
    pub(crate) seed: u64,
    pub(crate) acked: BTreeSet<Edge>,
    published: BTreeSet<u64>,
    pub(crate) latest: Arc<Snapshot>,
}

impl Ledger {
    pub(crate) fn new(seed: u64, writer: &Writer) -> Ledger {
        let ledger = Ledger {
            seed,
            acked: seed_edges(),
            published: BTreeSet::from([writer.snapshot().version]),
            latest: writer.snapshot(),
        };
        ledger.check(writer);
        ledger
    }

    /// A publish: versions never go back, and a counters-only republish
    /// moves no view (readers key cached responses by binding and
    /// version).
    pub(crate) fn publish(&mut self, snapshot: Arc<Snapshot>) {
        let (seed, last) = (self.seed, &self.latest);
        assert!(
            snapshot.version >= last.version,
            "seed {seed}: version went back"
        );
        if snapshot.version == last.version {
            let same = snapshot.views.len() == last.views.len()
                && snapshot
                    .views
                    .values()
                    .zip(last.views.values())
                    .all(|(a, b)| Arc::ptr_eq(a, b));
            assert!(same, "seed {seed}: views moved without a new version");
        }
        self.published.insert(snapshot.version);
        self.latest = snapshot;
    }

    /// The writer's answer to `op`: acks name a published version and
    /// agree with the acked base, refusals are the writer's own.
    pub(crate) fn answer(&mut self, op: Op, answer: &Answer) {
        let seed = self.seed;
        match (op, answer) {
            (Op::Insert(e) | Op::Retract(e), &Answer::Applied { changed, version }) => {
                assert!(
                    self.published.contains(&version),
                    "seed {seed}: {op:?} acked at v{version} before it was published"
                );
                let inserting = matches!(op, Op::Insert(_));
                assert_eq!(
                    changed,
                    self.acked.contains(&e) != inserting,
                    "seed {seed}: {op:?}"
                );
                if inserting {
                    self.acked.insert(e);
                } else {
                    self.acked.remove(&e);
                }
            }
            (Op::Insert(_) | Op::Retract(_), Answer::Refused(why)) => {
                assert!(
                    why.starts_with("DEGRADED"),
                    "seed {seed}: {op:?} refused: {why}"
                );
            }
            (Op::Malformed, Answer::Refused(why)) => assert!(
                why.starts_with("DEGRADED") || why.starts_with("arity mismatch"),
                "seed {seed}: {why}"
            ),
            (Op::Query(n), Answer::Materialized(key)) => {
                assert_eq!(bound_node(key), n, "seed {seed}: {key}");
            }
            (op, answer) => panic!("seed {seed}: {op:?} answered {answer:?}"),
        }
    }

    /// After a turn every ack of it is in: the base and every published
    /// view hold exactly the acked facts.
    pub(crate) fn check(&self, writer: &Writer) {
        let seed = self.seed;
        assert_eq!(
            stored_edges(writer.catalog.base()),
            self.acked,
            "seed {seed}: base"
        );
        for (key, view) in &self.latest.views {
            let expected = closure(&self.acked, bound_node(key));
            assert_eq!(
                view.answers(),
                expected,
                "seed {seed}: {key} at v{}",
                self.latest.version
            );
            assert_eq!(
                stored_edges(view.database()),
                self.acked,
                "seed {seed}: {key}'s base"
            );
        }
    }
}

/// The writer simulator's clients and the ledger they share.
struct World {
    ledger: Ledger,
    rng: SplitMix64,
    think_ms: Range<usize>,
    clients: Vec<Client>,
}

impl World {
    /// Hand one event of a turn to the clients, checking it as it lands.
    fn observe(&mut self, event: Event<usize>, now: Instant) {
        match event {
            Event::Publish(snapshot) => self.ledger.publish(snapshot),
            Event::Reply(client, answer) => {
                let think = self.rng.random_range(self.think_ms.clone());
                let client = &mut self.clients[client];
                client.ready_at = now + Duration::from_millis(think as u64);
                let op = client
                    .outstanding
                    .take()
                    .expect("a reply to an outstanding command");
                self.ledger.answer(op, &answer);
            }
        }
    }

    /// Edges a sent but unanswered command may or may not have moved.
    fn unknown(&self) -> BTreeSet<Edge> {
        let ops = self.clients.iter().filter_map(|c| c.outstanding);
        ops.filter_map(Op::edge).collect()
    }
}

impl Op {
    /// The edge an update may move.
    pub(crate) fn edge(self) -> Option<Edge> {
        match self {
            Op::Insert(e) | Op::Retract(e) => Some(e),
            Op::Query(_) | Op::Malformed => None,
        }
    }
}

pub(crate) fn command(op: Op) -> Command {
    match op {
        Op::Query(n) => {
            Command::Materialize(parse_query(&format!("anc(n{n}, Y)")).expect("query parses"))
        }
        Op::Insert(e) => Command::Update(Update::Insert(edge_fact(e))),
        Op::Retract(e) => Command::Update(Update::Retract(edge_fact(e))),
        Op::Malformed => Command::Update(Update::Insert(Fact::plain(
            "par",
            vec![node(0), node(1), node(2)],
        ))),
    }
}

/// A scratch store directory of its own per schedule, unique within the
/// process however many simulations run side by side.
fn scratch_dir(seed: u64) -> PathBuf {
    static RUNS: AtomicUsize = AtomicUsize::new(0);
    let run = RUNS.fetch_add(1, Ordering::Relaxed);
    let name = format!("magic-serve-sim-{}-{seed}-{run}", std::process::id());
    let dir = std::env::temp_dir().join(name);
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// A fresh store in a scratch directory of its own, opened under the
/// fault spec `faults` and recovered from the seed base.
pub(crate) struct Store {
    seed: u64,
    config: DurableConfig,
    dir: PathBuf,
}

impl Store {
    /// The store and a writer over it, its catalog capped at `max_views`
    /// and swept past `view_ttl`.
    pub(crate) fn open(
        seed: u64,
        faults: &str,
        checkpoint_every: u64,
        view_ttl: Duration,
        max_views: usize,
        now: Instant,
    ) -> (Store, Writer) {
        let dir = scratch_dir(seed);
        let config = DurableConfig::new(&dir)
            .with_fsync(FsyncPolicy::Never)
            .with_checkpoint_every(checkpoint_every);
        let plan = FaultPlan::parse(faults).expect("generated fault specs parse");
        let mut store =
            DurableStore::open(&config.clone().with_faults(Arc::new(plan))).expect("open");
        let catalog = ViewCatalog::new(Strategy::MagicSets)
            .with_max_views(max_views)
            .with_view_ttl(view_ttl);
        let catalog = store
            .recover(&program(), catalog, &seed_db())
            .expect("fresh recovery")
            .catalog;
        let writer = Writer::new(program(), catalog, Some(store), view_ttl, now);
        (Store { seed, config, dir }, writer)
    }

    /// Kill `writer` (nothing is synced, nothing more is answered),
    /// recover the store, and check acked ⊆ recovered ⊆ acked ∪ unknown
    /// and that the recovered bindings serve the recovered base.
    pub(crate) fn crash(self, writer: Writer, acked: &BTreeSet<Edge>, unknown: &BTreeSet<Edge>) {
        let seed = self.seed;
        drop(writer);
        let mut store = DurableStore::open(&self.config).expect("reopen");
        let catalog = ViewCatalog::new(Strategy::MagicSets);
        let recovered = store
            .recover(&program(), catalog, &seed_db())
            .expect("recovery");
        let edges = stored_edges(recovered.catalog.base());
        let differ: BTreeSet<Edge> = edges.symmetric_difference(acked).copied().collect();
        assert!(
            differ.is_subset(unknown),
            "seed {seed}: recovered {edges:?}, acked {acked:?}, unknown {unknown:?}"
        );
        let now = Instant::now();
        let writer = Writer::new(
            program(),
            recovered.catalog,
            Some(store),
            Duration::ZERO,
            now,
        );
        for (key, view) in &writer.snapshot().views {
            assert_eq!(
                view.answers(),
                closure(&edges, bound_node(key)),
                "seed {seed}: recovered {key}"
            );
        }
    }
}

impl Drop for Store {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

/// Run `schedule`; returns the last snapshot the first life published.
fn run(schedule: &Schedule) -> Arc<Snapshot> {
    let seed = schedule.seed;
    let mut now = Instant::now();
    let (store, mut writer) = Store::open(
        seed,
        &schedule.faults,
        schedule.checkpoint_every,
        schedule.view_ttl,
        schedule.max_views,
        now,
    );
    let clients = schedule.scripts.iter().map(|script| Client {
        script: script.iter().copied().collect(),
        outstanding: None,
        ready_at: now,
    });
    let mut world = World {
        ledger: Ledger::new(seed, &writer),
        rng: SplitMix64::seed_from_u64(seed.rotate_left(17)),
        think_ms: schedule.think_ms.clone(),
        clients: clients.collect(),
    };
    let mut queue: VecDeque<(usize, Command)> = VecDeque::new();
    let mut turns = 0;
    loop {
        for (i, client) in world.clients.iter_mut().enumerate() {
            if client.outstanding.is_none() && client.ready_at <= now {
                if let Some(op) = client.script.pop_front() {
                    client.outstanding = Some(op);
                    queue.push_back((i, command(op)));
                }
            }
        }
        let crash = schedule
            .crash
            .filter(|&(at, _)| at == turns)
            .map(|(_, how)| how);
        if let Some(Crash::BeforeTurn) = crash {
            break;
        }
        if queue.is_empty() {
            let waiting = world
                .clients
                .iter()
                .filter(|c| c.outstanding.is_none() && !c.script.is_empty());
            let Some(arrival) = waiting.map(|c| c.ready_at).min() else {
                break;
            };
            match writer.due() {
                // The wait times out before anyone sends: an idle turn.
                Some(due) if due < arrival => now = now.max(due),
                _ => {
                    now = now.max(arrival);
                    continue;
                }
            }
        }
        let take = if queue.is_empty() {
            0
        } else {
            world.rng.random_range(1..queue.len() + 1)
        };
        let commands: Vec<_> = queue.drain(..take).collect();
        if let Some(Crash::AfterStep) = crash {
            drop(writer.step(commands, now));
            break;
        }
        writer.turn(commands, now, |event| world.observe(event, now));
        world.ledger.check(&writer);
        turns += 1;
        now += Duration::from_micros(world.rng.random_range(0..2000) as u64);
    }
    if schedule.crash.is_some() {
        store.crash(writer, &world.ledger.acked, &world.unknown());
    }
    world.ledger.latest
}

/// Run the seeded schedule `seed` (a failure names it).
fn run_seed(seed: u64) {
    struct NameOnPanic(u64);
    impl Drop for NameOnPanic {
        fn drop(&mut self) {
            if std::thread::panicking() {
                eprintln!("writer simulator: schedule seed {} failed", self.0);
            }
        }
    }
    let _name = NameOnPanic(seed);
    run(&Schedule::seeded(seed));
}

// 2 000 seeded schedules, in four tests the harness runs side by side.

#[test]
fn seeded_crash_schedules_0000_0499() {
    (0..500).for_each(run_seed);
}

#[test]
fn seeded_crash_schedules_0500_0999() {
    (500..1000).for_each(run_seed);
}

#[test]
fn seeded_crash_schedules_1000_1499() {
    (1000..1500).for_each(run_seed);
}

#[test]
fn seeded_crash_schedules_1500_1999() {
    (1500..2000).for_each(run_seed);
}

#[test]
fn ttl_sweeps_run_while_updates_keep_the_writer_busy() {
    // A client that sends its next update the moment the last one is
    // answered keeps a command queued at every turn, so the writer's wait
    // never times out; each turn takes up to 2 ms of the synthetic clock,
    // and a sweep is due every 10 ms.  The binding queried first and then
    // left idle past its 40 ms TTL must be evicted all the same.
    let mut script = vec![Op::Query(0)];
    script.extend((0..300).map(|i| Op::Insert((4 + i % 2, i % NODES))));
    let schedule = Schedule {
        seed: 0,
        scripts: vec![script],
        faults: String::new(),
        checkpoint_every: 0,
        view_ttl: Duration::from_millis(40),
        max_views: 0,
        think_ms: 0..1,
        crash: None,
    };
    let last = run(&schedule);
    assert!(
        last.views.is_empty(),
        "idle past its TTL: {:?}",
        last.views.keys()
    );
    assert_eq!(last.counters.views_evicted, 1);
}
