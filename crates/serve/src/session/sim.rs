//! The whole-server simulator: real [`Session`]s and the real [`Writer`]
//! driven together with no socket, thread or clock.
//!
//! Each schedule opens a fresh store (the writer simulator's [`Store`],
//! seeded store faults and all) and lets one to three scripted clients
//! talk to it through sessions — text or `MGWP01` framing, at window 1 or
//! pipelined.  Requests are encoded to bytes and fed at seeded split
//! points, mid-preamble and mid-frame included; a seeded session runs its
//! pass, whose answer pull may first run a writer turn — exactly where a
//! snapshot loaded too early would show — and takes a seeded subset of
//! its answers in a seeded order.  Writer turns drain the queue at seeded
//! boundaries; the synthetic clock expires writer deadlines; `max_views`
//! evicts, and an adversary may materialize another binding right after
//! each of a session's, evicting it before the session reads it.  The
//! process is killed at a seeded turn and the store recovered.
//!
//! Checked after every step, on top of the writer simulator's ledger
//! (ack-after-publish, no ghost row, acked ⊆ recovered ⊆ acked ∪ unknown):
//!
//! * every response's version maps to an exact applied prefix, and its
//!   rows equal a from-scratch closure at that prefix;
//! * no response is read from a snapshot older than the latest one when
//!   its request's last byte arrived;
//! * each request is answered exactly once — in request order for text —
//!   and every update's answer is one the writer gave that session, or a
//!   front-door refusal, or a `TIMEOUT`;
//! * a query's materialize is retried at most twice, ending in an answer
//!   or the typed error;
//! * a session fed valid bytes never closes, its input stays within
//!   `MAX_LINE`, and a pass arms no deadline but the writer deadline.
//!
//! A failing schedule prints its seed; [`run_seed`] replays it.

use super::{Link, Reads, Session, MAX_LINE};
use crate::protocol::{op, render_ack, render_error, Frame, BINARY_MAGIC};
use crate::server::ServeConfig;
use crate::writer::sim::{
    bound_node, closure, edge_fact, program, seed_edges, store_faults, Crash, Edge, Ledger, Op,
    Store, NODES,
};
use crate::writer::{Answer, Command, Event, Snapshot, Writer};
use magic_incr::Update;
use magic_workloads::SplitMix64;
use std::collections::{BTreeMap, BTreeSet, HashMap, VecDeque};
use std::sync::atomic::Ordering::Relaxed;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The client index of the adversary's commands.
const ADVERSARY: usize = usize::MAX;

/// Steps after which a schedule that has not finished is stuck.
const STEP_LIMIT: usize = 20_000;

/// One client request.
#[derive(Clone, Copy, Debug)]
enum Ask {
    Op(Op),
    Ping,
    Stats,
}

/// How one client talks.
#[derive(Clone, Copy, Debug)]
struct Style {
    binary: bool,
    crlf: bool,
    window: usize,
}

/// Everything that fixes one run.
struct Schedule {
    seed: u64,
    clients: Vec<(Style, Vec<Ask>)>,
    faults: String,
    checkpoint_every: u64,
    view_ttl: Duration,
    max_views: usize,
    adversary: bool,
    writer_deadline: Duration,
    max_queue_depth: usize,
    crash: Option<(usize, Crash)>,
}

impl Schedule {
    fn seeded(seed: u64) -> Schedule {
        let mut rng = SplitMix64::seed_from_u64(seed);
        let mut clients: Vec<(Style, Vec<Ask>)> = (0..rng.random_range(1..4))
            .map(|_| {
                let style = Style {
                    binary: rng.random_range(0..2) == 0,
                    crlf: rng.random_range(0..3) == 0,
                    window: [1, 1, 2, 8][rng.random_range(0..4)],
                };
                (style, Vec::new())
            })
            .collect();
        let n = clients.len();
        for i in 0..3 {
            clients[i % n]
                .1
                .push(Ask::Op(Op::Query(rng.random_range(0..NODES))));
        }
        let mut updates = 0;
        while updates < 16 {
            let edge = (rng.random_range(0..NODES), rng.random_range(0..NODES));
            let ask = match rng.random_range(0..24) {
                0..=10 => Ask::Op(Op::Insert(edge)),
                11..=15 => Ask::Op(Op::Retract(edge)),
                16..=19 => Ask::Op(Op::Query(edge.0)),
                20 => Ask::Op(Op::Malformed),
                21 => Ask::Ping,
                _ => Ask::Stats,
            };
            updates += usize::from(!matches!(ask, Ask::Op(Op::Query(_))));
            clients[rng.random_range(0..n)].1.push(ask);
        }
        let max_views = [0, 0, 2, 1][rng.random_range(0..4)];
        Schedule {
            seed,
            clients,
            faults: store_faults(&mut rng),
            checkpoint_every: [0, 4, 10][rng.random_range(0..3)],
            view_ttl: Duration::from_millis([0, 0, 25, 60][rng.random_range(0..4)]),
            max_views,
            adversary: max_views == 1 && rng.random_range(0..2) == 0,
            writer_deadline: Duration::from_millis([0, 0, 3, 40][rng.random_range(0..4)]),
            max_queue_depth: [0, 0, 0, 2][rng.random_range(0..4)],
            crash: match rng.random_range(0..4) {
                0 => None,
                1 => Some((rng.random_range(0..60), Crash::AfterStep)),
                _ => Some((rng.random_range(0..60), Crash::BeforeTurn)),
            },
        }
    }
}

/// A request on the wire and what has been seen of it.
struct Sent {
    id: u64,
    ask: Ask,
    /// Offset just past its last byte in the client's stream.
    end: usize,
    /// The latest published version when that byte was fed.
    floor: Option<u64>,
}

struct Client {
    style: Style,
    script: VecDeque<Ask>,
    /// Encoded bytes not fed to the session yet.
    wire: Vec<u8>,
    /// Bytes fed so far.
    fed: usize,
    /// Requests not answered yet, in send order.
    sent: VecDeque<Sent>,
    received: Vec<u8>,
    next_id: u64,
    /// Every update answer the writer gave this session, rendered: an
    /// update's response must be one of them (or a refusal of its own).
    answers: Vec<String>,
    responses: Vec<String>,
    queries: usize,
    materializes: usize,
}

impl Client {
    fn new(style: Style, script: &[Ask]) -> Client {
        Client {
            style,
            script: script.iter().copied().collect(),
            wire: if style.binary {
                BINARY_MAGIC.to_vec()
            } else {
                Vec::new()
            },
            fed: 0,
            sent: VecDeque::new(),
            received: Vec::new(),
            next_id: 7,
            answers: Vec::new(),
            responses: Vec::new(),
            queries: 0,
            materializes: 0,
        }
    }

    /// Encode the next request if the window has room.
    fn send(&mut self) {
        if self.sent.len() >= self.style.window {
            return;
        }
        let Some(ask) = self.script.pop_front() else {
            return;
        };
        let (verb, tag, body) = match ask {
            Ask::Op(Op::Query(n)) => ("QUERY", op::QUERY, format!("anc(n{n}, Y)")),
            Ask::Op(Op::Insert((a, b))) => ("INSERT", op::INSERT, format!("par(n{a}, n{b})")),
            Ask::Op(Op::Retract((a, b))) => ("RETRACT", op::RETRACT, format!("par(n{a}, n{b})")),
            Ask::Op(Op::Malformed) => ("INSERT", op::INSERT, "par(n0, n1, n2)".to_string()),
            Ask::Ping => ("PING", op::PING, String::new()),
            Ask::Stats => ("STATS", op::STATS, String::new()),
        };
        self.next_id += 3;
        if self.style.binary {
            Frame::encode_into(self.next_id, tag, body.as_bytes(), &mut self.wire);
        } else {
            let end = if self.style.crlf { "\r\n" } else { "\n" };
            self.wire
                .extend_from_slice(format!("{verb} {body}").trim_end().as_bytes());
            self.wire.extend_from_slice(end.as_bytes());
        }
        let end = self.fed + self.wire.len();
        self.sent.push_back(Sent {
            id: self.next_id,
            ask,
            end,
            floor: None,
        });
    }

    fn done(&self) -> bool {
        self.script.is_empty() && self.wire.is_empty() && self.sent.is_empty()
    }
}

/// Who sent a command: the client's index and the session's token.
type Origin = (usize, u64);

struct World {
    ledger: Ledger,
    rng: SplitMix64,
    clients: Vec<Client>,
    /// Commands the writer has not drained yet.
    queue: VecDeque<(Origin, Command)>,
    /// The op behind every command the writer has not answered.
    unanswered: HashMap<Origin, Op>,
    /// Writer answers not yet pulled by their session.
    mailboxes: Vec<Vec<(u64, Answer)>>,
    /// The acked base at every version published.
    prefixes: BTreeMap<u64, BTreeSet<Edge>>,
    adversary: bool,
    adversary_tokens: u64,
    turns: usize,
    crash: Option<(usize, Crash)>,
    crashed: bool,
}

/// The op a session's command carries.
fn op_of(command: &Command) -> Op {
    let pairs = || (0..NODES).flat_map(|a| (0..NODES).map(move |b| (a, b)));
    let found = match command {
        Command::Materialize(query) => {
            let text = query.atom.to_string();
            (0..NODES)
                .find(|n| text == format!("anc(n{n}, Y)"))
                .map(Op::Query)
        }
        Command::Update(Update::Insert(fact)) => match pairs().find(|&e| edge_fact(e) == *fact) {
            Some(e) => Some(Op::Insert(e)),
            None => Some(Op::Malformed),
        },
        Command::Update(Update::Retract(fact)) => {
            pairs().find(|&e| edge_fact(e) == *fact).map(Op::Retract)
        }
    };
    found.expect("a command the scripts can send")
}

impl World {
    /// One writer turn over a seeded prefix of the queue, unless the
    /// process dies here — if the writer's thread would wake: a command
    /// is queued, or a duty is due.
    fn turn(&mut self, writer: &mut Writer, reads: &Reads, now: Instant) {
        let due = writer.due().is_some_and(|at| at <= now);
        if self.crashed || (self.queue.is_empty() && !due) {
            return;
        }
        let crash = self.crash.filter(|&(at, _)| at == self.turns);
        if let Some((_, Crash::BeforeTurn)) = crash {
            self.crashed = true;
            return;
        }
        let take = match self.queue.len() {
            0 => 0,
            n => self.rng.random_range(1..n + 1),
        };
        let mut commands = Vec::new();
        for (origin, command) in self.queue.drain(..take).collect::<Vec<_>>() {
            let evict = match &command {
                Command::Materialize(_) if self.adversary && origin.0 != ADVERSARY => {
                    Some(op_of(&command))
                }
                _ => None,
            };
            if origin.0 != ADVERSARY {
                reads.queue_depth.fetch_sub(1, Relaxed);
            }
            commands.push((origin, command));
            if let Some(Op::Query(n)) = evict {
                let other = (n + 1 + self.rng.random_range(0..NODES - 1)) % NODES;
                let origin = (ADVERSARY, self.adversary_tokens);
                self.adversary_tokens += 1;
                self.unanswered.insert(origin, Op::Query(other));
                let query = magic_datalog::parse_query(&format!("anc(n{other}, Y)"));
                commands.push((origin, Command::Materialize(query.expect("parses"))));
            }
        }
        if let Some((_, Crash::AfterStep)) = crash {
            drop(writer.step(commands, now));
            self.crashed = true;
            return;
        }
        let mut versions = Vec::new();
        let (ledger, unanswered) = (&mut self.ledger, &mut self.unanswered);
        let (clients, mailboxes) = (&mut self.clients, &mut self.mailboxes);
        writer.turn(commands, now, |event| match event {
            Event::Publish(snapshot) => {
                versions.push(snapshot.version);
                ledger.publish(snapshot);
            }
            Event::Reply(origin, answer) => {
                let op = unanswered.remove(&origin).expect("one answer per command");
                ledger.answer(op, &answer);
                if origin.0 == ADVERSARY {
                    return;
                }
                let rendered = match &answer {
                    Answer::Applied { changed, version } => render_ack(*changed, *version),
                    Answer::Refused(why) => render_error(why),
                    Answer::Materialized(_) => String::new(),
                };
                clients[origin.0].answers.push(rendered);
                mailboxes[origin.0].push((origin.1, answer));
            }
        });
        self.ledger.check(writer);
        // A turn's publishes all show the base its step left.
        for version in versions {
            let base = self
                .prefixes
                .entry(version)
                .or_insert(self.ledger.acked.clone());
            assert_eq!(
                *base, self.ledger.acked,
                "seed {}: v{version}",
                self.ledger.seed
            );
        }
        self.turns += 1;
    }

    /// Feed client `c`'s session a seeded prefix of its unfed bytes.
    fn feed(&mut self, c: usize, session: &mut Session) {
        let client = &mut self.clients[c];
        let len = client.wire.len();
        let k = match self.rng.random_range(0..4) {
            0 => len,
            1 => len.min(1),
            _ => self.rng.random_range(0..len + 1),
        };
        session.feed(&client.wire[..k]);
        client.wire.drain(..k);
        client.fed += k;
    }

    /// Take what one pass of client `c`'s session returned and staged,
    /// checking it.
    fn after_pass(&mut self, c: usize, session: &mut Session, reads: &Reads) {
        let seed = self.ledger.seed;
        let (latest, client) = (self.ledger.latest.version, &mut self.clients[c]);
        assert!(
            session.reading(),
            "seed {seed}: client {c}'s session closed"
        );
        assert!(
            session.inbuf.len() <= MAX_LINE,
            "seed {seed}: input piles up"
        );
        for sent in client.sent.iter_mut() {
            if sent.end <= client.fed && sent.floor.is_none() {
                sent.floor = Some(latest);
                client.queries += usize::from(matches!(sent.ask, Ask::Op(Op::Query(_))));
            }
        }
        assert!(
            client.materializes <= 3 * client.queries,
            "seed {seed}: {} materializes for {} queries",
            client.materializes,
            client.queries
        );
        let output = std::mem::take(session.output());
        client.received.extend_from_slice(&output);
        while let Some((id, text)) = next_response(&mut self.clients[c]) {
            let client = &mut self.clients[c];
            let at = if client.style.binary {
                client.sent.iter().position(|s| s.id == id)
            } else {
                (!client.sent.is_empty()).then_some(0)
            };
            let at = at.unwrap_or_else(|| panic!("seed {seed}: answered twice: {text:?}"));
            let sent = client.sent.remove(at).expect("a sent request");
            let floor = sent
                .floor
                .unwrap_or_else(|| panic!("seed {seed}: answered unsent"));
            self.check(c, sent.ask, floor, &text, reads);
            self.clients[c].responses.push(text);
        }
        assert!(
            self.clients[c].received.is_empty(),
            "seed {seed}: a partial response was staged"
        );
    }

    /// One response to `ask`, whose last byte arrived at version `floor`.
    fn check(&mut self, c: usize, ask: Ask, floor: u64, text: &str, reads: &Reads) {
        let seed = self.ledger.seed;
        let at_prefix = |version: u64| {
            assert!(
                version >= floor,
                "seed {seed}: {ask:?} read v{version} < v{floor}"
            );
            self.prefixes
                .get(&version)
                .unwrap_or_else(|| panic!("seed {seed}: v{version} was never published"))
        };
        match ask {
            Ask::Ping => assert_eq!(text, "OK pong\n", "seed {seed}"),
            Ask::Stats => {
                let version = text
                    .lines()
                    .find_map(|line| line.strip_prefix("version="))
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| panic!("seed {seed}: {text:?}"));
                at_prefix(version);
                assert!(text.starts_with("OK stats\n") && text.ends_with("END\n"));
            }
            Ask::Op(Op::Query(n)) => {
                if let Some(why) = text.strip_prefix("ERR ") {
                    let evicted = format!("view for anc(n{n}, Y) was repeatedly evicted");
                    assert!(
                        why.starts_with("TIMEOUT") || why.starts_with(&evicted),
                        "seed {seed}: {text:?}"
                    );
                    return;
                }
                let mut lines = text.lines();
                let header = lines.next().unwrap_or_default();
                let mut fields = header.splitn(4, ' ').skip(1);
                let mut number = || fields.next().and_then(|f| f.parse::<u64>().ok());
                let (count, version) = (number(), number());
                let (Some(count), Some(version)) = (count, version) else {
                    panic!("seed {seed}: bad header {header:?}");
                };
                let key = header.splitn(4, ' ').nth(3).unwrap_or_default();
                assert_eq!(bound_node(key), n, "seed {seed}: {key}");
                let rows: BTreeSet<Vec<magic_datalog::Value>> = lines
                    .by_ref()
                    .take(count as usize)
                    .map(|row| {
                        let value = row.strip_prefix("ROW\t").expect("one value per row");
                        vec![magic_datalog::parse_term(value)
                            .ok()
                            .and_then(|t| t.to_value())
                            .expect("a constant")]
                    })
                    .collect();
                assert_eq!(lines.next(), Some("END"), "seed {seed}: {text:?}");
                let expected = closure(at_prefix(version), n);
                assert_eq!(rows, expected, "seed {seed}: anc(n{n}, Y) at v{version}");
            }
            Ask::Op(_) => {
                let client = &mut self.clients[c];
                if let Some(at) = client.answers.iter().position(|a| a == text) {
                    client.answers.swap_remove(at);
                    if let Some(ack) = text.strip_prefix("OK ") {
                        let version = ack.split(' ').nth(1).and_then(|v| v.trim().parse().ok());
                        at_prefix(version.expect("an ack names its version"));
                    }
                    return;
                }
                let shed = reads.config.max_queue_depth > 0 && text.starts_with("ERR BUSY ");
                let front_door = text.starts_with("ERR DEGRADED read-only: the durable path");
                assert!(
                    shed || front_door || text.starts_with("ERR TIMEOUT "),
                    "seed {seed}: client {c} got {text:?}, which the writer never said"
                );
            }
        }
    }

    /// Edges a command the writer never answered may or may not have moved.
    fn unknown(&self) -> BTreeSet<Edge> {
        self.unanswered
            .values()
            .filter_map(|op| op.edge())
            .collect()
    }

    fn done(&self) -> bool {
        self.clients.iter().all(Client::done)
    }
}

/// The next whole response `client` received, with its binary id.
fn next_response(client: &mut Client) -> Option<(u64, String)> {
    if client.style.binary {
        let (frame, used) = Frame::decode(&client.received).expect("well-framed")?;
        client.received.drain(..used);
        let body = String::from_utf8(frame.body).expect("UTF-8 responses");
        let text = match frame.tag {
            0 => body,
            _ => format!("ERR {body}\n"),
        };
        return Some((frame.req_id, text));
    }
    let text = std::str::from_utf8(&client.received).expect("UTF-8 responses");
    let first = text.split_inclusive('\n').next()?;
    let ask = client.sent.front().map(|sent| sent.ask);
    let rows = matches!(ask, Some(Ask::Op(Op::Query(_)) | Ask::Stats));
    let len = if rows && first.starts_with("OK ") {
        let end = text.find("\nEND\n")?;
        end + "\nEND\n".len()
    } else {
        first.len()
    };
    let response = text[..len].to_string();
    client.received.drain(..len);
    Some((0, response))
}

/// The writer as one session's pass sees it.
struct SimLink<'a> {
    world: &'a mut World,
    writer: &'a mut Writer,
    reads: &'a Reads,
    client: usize,
    turn_first: bool,
    now: Instant,
}

impl Link for SimLink<'_> {
    fn answers(&mut self) -> Vec<(u64, Answer)> {
        if self.turn_first {
            self.world.turn(self.writer, self.reads, self.now);
        }
        // A seeded subset, in a seeded order; the rest arrive later.
        let world = &mut *self.world;
        let mailbox = &mut world.mailboxes[self.client];
        let mut pulled = Vec::new();
        let mut i = 0;
        while i < mailbox.len() {
            if world.rng.random_range(0..4) == 0 {
                i += 1;
            } else {
                let at = world.rng.random_range(0..pulled.len() + 1);
                pulled.insert(at, mailbox.swap_remove(i));
            }
        }
        pulled
    }

    fn snapshot(&mut self) -> Arc<Snapshot> {
        Arc::clone(&self.world.ledger.latest)
    }
}

/// Run `schedule`; returns each client's responses in arrival order and
/// its materialize count.
fn run(schedule: &Schedule) -> Vec<(Vec<String>, usize)> {
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
    let config = ServeConfig {
        writer_deadline: schedule.writer_deadline,
        max_queue_depth: schedule.max_queue_depth,
        ..ServeConfig::default()
    };
    let reads = Reads::new(program(), &config);
    let clients: Vec<Client> = schedule
        .clients
        .iter()
        .map(|(style, script)| Client::new(*style, script))
        .collect();
    let mut sessions: Vec<Session> = clients.iter().map(|_| Session::default()).collect();
    let mut world = World {
        ledger: Ledger::new(seed, &writer),
        rng: SplitMix64::seed_from_u64(seed.rotate_left(29)),
        mailboxes: clients.iter().map(|_| Vec::new()).collect(),
        clients,
        queue: VecDeque::new(),
        unanswered: HashMap::new(),
        prefixes: BTreeMap::from([(0, seed_edges())]),
        adversary: schedule.adversary,
        adversary_tokens: 0,
        turns: 0,
        crash: schedule.crash,
        crashed: false,
    };
    let mut steps = 0;
    while !world.crashed && !world.done() {
        steps += 1;
        assert!(
            steps <= STEP_LIMIT,
            "seed {seed}: stuck after {STEP_LIMIT} steps"
        );
        for i in 0..world.clients.len() {
            if world.rng.random_range(0..2) == 0 {
                world.clients[i].send();
            }
        }
        let c = world.rng.random_range(0..sessions.len());
        world.feed(c, &mut sessions[c]);
        let mut link = SimLink {
            turn_first: world.rng.random_range(0..3) == 0,
            world: &mut world,
            writer: &mut writer,
            reads: &reads,
            client: c,
            now,
        };
        let pass = sessions[c].pass(&reads, &mut link, now);
        if world.crashed {
            break;
        }
        assert!(!pass.shutdown, "seed {seed}: no script sends SHUTDOWN");
        let wait = schedule.writer_deadline;
        if let Some(at) = pass.deadline {
            assert!(
                !wait.is_zero() && at > now && at <= now + wait,
                "seed {seed}: {at:?}"
            );
        }
        for (token, command) in pass.commands {
            let op = op_of(&command);
            let client = &mut world.clients[c];
            client.materializes += usize::from(matches!(command, Command::Materialize(_)));
            world.unanswered.insert((c, token), op);
            world.queue.push_back(((c, token), command));
            reads.queue_depth.fetch_add(1, Relaxed);
        }
        world.after_pass(c, &mut sessions[c], &reads);
        if world.rng.random_range(0..2) == 0 {
            world.turn(&mut writer, &reads, now);
        }
        now += Duration::from_micros(world.rng.random_range(0..1500) as u64);
    }
    let unknown = world.unknown();
    store.crash(writer, &world.ledger.acked, &unknown);
    let clients = world.clients.into_iter();
    clients.map(|c| (c.responses, c.materializes)).collect()
}

/// Run the seeded schedule `seed` (a failure names it).
fn run_seed(seed: u64) {
    struct NameOnPanic(u64);
    impl Drop for NameOnPanic {
        fn drop(&mut self) {
            if std::thread::panicking() {
                eprintln!("session simulator: schedule seed {} failed", self.0);
            }
        }
    }
    let _name = NameOnPanic(seed);
    run(&Schedule::seeded(seed));
}

// 2 000 seeded schedules, in four tests the harness runs side by side.

#[test]
fn seeded_session_schedules_0000_0499() {
    (0..500).for_each(run_seed);
}

#[test]
fn seeded_session_schedules_0500_0999() {
    (500..1000).for_each(run_seed);
}

#[test]
fn seeded_session_schedules_1000_1499() {
    (1000..1500).for_each(run_seed);
}

#[test]
fn seeded_session_schedules_1500_1999() {
    (1500..2000).for_each(run_seed);
}

#[test]
fn an_evicted_materialize_is_retried_twice_then_refused() {
    // With room for one binding and an adversary materializing another
    // right after each of the session's, every attempt is evicted before
    // the session reads it: three attempts, then the typed error.
    for binary in [false, true] {
        let style = Style {
            binary,
            crlf: false,
            window: 1,
        };
        let schedule = Schedule {
            seed: 0,
            clients: vec![(style, vec![Ask::Op(Op::Query(0)), Ask::Ping])],
            faults: String::new(),
            checkpoint_every: 0,
            view_ttl: Duration::ZERO,
            max_views: 1,
            adversary: true,
            writer_deadline: Duration::ZERO,
            max_queue_depth: 0,
            crash: None,
        };
        let clients = run(&schedule);
        let (responses, materializes) = &clients[0];
        assert_eq!(*materializes, 3);
        assert_eq!(
            responses[0],
            "ERR view for anc(n0, Y) was repeatedly evicted while answering; its \
             maintenance is failing\n"
        );
        assert_eq!(responses[1], "OK pong\n");
    }
}
