//! A connection as a state machine: the sniffed framing, the buffers and
//! the window of decoded requests, with no socket, channel, thread or
//! clock.
//!
//! [`Session::pass`] is the one entry point, and it fixes the order of a
//! pass the way [`Writer::turn`](crate::writer::Writer::turn) fixes a
//! turn's: take the writer's answers, *then* load the published snapshot
//! (so an answer is never read out of a snapshot older than the one it
//! was given at), then decode and dispatch every complete request,
//! advance and expire the parked ones, and stage the responses — text in
//! request order, binary in completion order.  It returns the commands
//! for the writer, each under a token the session numbers, and the
//! parked requests' next deadline; `now` is an argument.
//!
//! The reader thread's shell (`Conn` in `server.rs`) owns the socket and
//! one reply channel per token; the whole-server simulator
//! (`session/sim.rs`) drives sessions and the writer with neither.

use crate::protocol::{
    parse_frame, parse_request, render_ack, render_answers, render_error, sniff, status, Frame,
    Request, ServerStats, Sniff, ViewStats, BINARY_MAGIC,
};
use crate::server::{LockedMap, ServeConfig};
use crate::writer::{Answer, Command, Snapshot};
use magic_datalog::{PredName, Program, Query, Value};
use magic_incr::{Update, ViewCatalog, ViewSnapshot};
use std::collections::{BTreeSet, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::Arc;
use std::time::Instant;

/// Upper bound on one request line; longer input is a protocol error.
pub(crate) const MAX_LINE: usize = 1 << 20;

/// Retry hint, in milliseconds, carried by every `BUSY` shed; clients
/// treat it as a floor for their own backoff.
const BUSY_RETRY_AFTER_MS: u64 = 100;

/// Cap on distinct binding keys in the rendered-response cache; keys
/// past it simply re-render.
const RESPONSE_CACHE_MAX_KEYS: usize = 256;

/// Largest response body the cache will hold; a huge view's answer is
/// rendered per request rather than pinned in memory.
const RESPONSE_CACHE_MAX_BYTES: usize = 1 << 16;

/// Log2 buckets of the pipelining histogram (requests decoded per
/// pass); bucket `i` covers `2^i ..= 2^(i+1)-1`.
const BATCH_BUCKETS: usize = 16;

/// A rendered response and the published version it was rendered at.
type CachedResponse = (u64, Arc<[u8]>);

/// The read side of the server's shared state: what every session reads
/// to plan, answer and count requests, and the counters `STATS` reports.
#[derive(Default)]
pub(crate) struct Reads {
    pub(crate) program: Program,
    derived: BTreeSet<PredName>,
    /// Strategy and limits to plan with, the shed cap, the deadline.
    config: ServeConfig,
    /// Query text → binding key: one plan per distinct text, server-wide.
    key_cache: LockedMap<String>,
    /// Rendered-response cache: binding key → (published version, the
    /// full rendered response at that version).  Published snapshots
    /// are immutable, so a view's rendered answer is a pure function of
    /// `(key, version)`; only the latest version per key is kept.
    response_cache: LockedMap<CachedResponse>,
    /// Commands enqueued for the writer and not yet popped; raised
    /// *before* the send, so the shed check errs toward shedding.
    pub(crate) queue_depth: AtomicU64,
    /// Updates refused with `BUSY` because the queue was at capacity.
    shed_updates: AtomicU64,
    /// Writer round-trips that exceeded the deadline.
    deadline_misses: AtomicU64,
    pub(crate) queries_served: AtomicU64,
    pub(crate) connections: AtomicU64,
    /// Response writes that failed (client gone mid-response).
    pub(crate) write_errors: AtomicU64,
    /// Decoded requests not yet answered, across every connection.
    pub(crate) inflight_requests: AtomicU64,
    /// Returns from the readers' readiness wait.
    pub(crate) reader_wakeups: AtomicU64,
    /// Log2 histogram of requests decoded per pass.
    batch_hist: [AtomicU64; BATCH_BUCKETS],
}

impl Reads {
    pub(crate) fn new(program: Program, config: &ServeConfig) -> Reads {
        Reads {
            derived: program.derived_preds(),
            program,
            config: config.clone(),
            ..Reads::default()
        }
    }

    /// The rendered `QUERY` response for `key`: the cached bytes if this
    /// version's are held, else rendered now and remembered (bounded in
    /// key count and body size).
    fn render_view(&self, key: &str, version: u64, view: &ViewSnapshot) -> Arc<[u8]> {
        self.queries_served.fetch_add(1, Relaxed);
        let cached = self.response_cache.get(key).filter(|(v, _)| *v == version);
        if let Some((_, body)) = cached {
            return body;
        }
        let rows: Vec<Vec<Value>> = view.answers().into_iter().collect();
        let body: Arc<[u8]> = render_answers(key, version, &rows).into_bytes().into();
        if body.len() <= RESPONSE_CACHE_MAX_BYTES {
            let entry = (version, Arc::clone(&body));
            self.response_cache
                .insert(key.to_string(), entry, RESPONSE_CACHE_MAX_KEYS);
        }
        body
    }

    /// The binding key of `query`, memoized per query text: what the
    /// writer's catalog computes, by planning alone.  A query that does
    /// not plan has none; the writer's refusal carries the message.
    fn binding_key(&self, query: &Query) -> Option<String> {
        let text = query.atom.to_string();
        if let Some(key) = self.key_cache.get(&text) {
            return Some(key);
        }
        let catalog = ViewCatalog::new(self.config.strategy).with_limits(self.config.limits);
        let key = catalog.binding_key(&self.program, query).ok()?;
        self.key_cache.insert(text, key.clone(), usize::MAX);
        Some(key)
    }

    /// Median of the batch-size histogram, reported as its bucket's
    /// lower bound (1, 2, 4, …); 0 before any request was decoded.
    fn batch_p50(&self) -> u64 {
        let counts: Vec<u64> = self.batch_hist.iter().map(|c| c.load(Relaxed)).collect();
        let half = counts.iter().sum::<u64>().div_ceil(2);
        let mut seen = 0u64;
        for (bucket, count) in counts.iter().enumerate() {
            seen += count;
            if half > 0 && seen >= half {
                return 1u64 << bucket;
            }
        }
        0
    }

    /// Assemble the `STATS` response from the counters and `snapshot`.
    fn stats(&self, snapshot: &Snapshot) -> ServerStats {
        let (totals, counters) = (&snapshot.totals, &snapshot.counters);
        let per_view = snapshot
            .views
            .iter()
            .map(|(key, view)| ViewStats {
                key: key.clone(),
                facts: view.database().total_facts() as u64,
                rule_firings: view.stats().rule_firings as u64,
                join_probes: view.stats().join_probes as u64,
                recomputes: view.recompute_count(),
                recompute_reason: view.recompute_reason().unwrap_or("").to_string(),
            })
            .collect();
        ServerStats {
            version: snapshot.version,
            views: snapshot.views.len() as u64,
            materialized: snapshot.materialized,
            queries_served: self.queries_served.load(Relaxed),
            updates_applied: counters.updates_applied,
            connections: self.connections.load(Relaxed),
            views_evicted: counters.views_evicted,
            iterations: totals.iterations as u64,
            rule_firings: totals.rule_firings as u64,
            facts_derived: totals.facts_derived as u64,
            duplicate_derivations: totals.duplicate_derivations as u64,
            join_probes: totals.join_probes as u64,
            wal_bytes: counters.wal_bytes,
            last_checkpoint: counters.last_checkpoint_seq,
            write_errors: self.write_errors.load(Relaxed),
            queue_depth: self.queue_depth.load(Relaxed),
            shed_updates: self.shed_updates.load(Relaxed),
            deadline_misses: self.deadline_misses.load(Relaxed),
            degraded: u64::from(counters.degraded),
            degraded_entered: counters.degraded_entered,
            inflight_requests: self.inflight_requests.load(Relaxed),
            batch_size_p50: self.batch_p50(),
            recompute_views: snapshot.recompute_views,
            reader_wakeups: self.reader_wakeups.load(Relaxed),
            per_view,
        }
    }
}

/// The writer's side as a session sees it, asked in the order
/// [`Session::pass`] fixes.
pub(crate) trait Link {
    /// Every writer answer that has arrived since the last pass, by token.
    fn answers(&mut self) -> Vec<(u64, Answer)>;
    /// The snapshot the writer last published.
    fn snapshot(&mut self) -> Arc<Snapshot>;
}

/// What one pass hands back to its caller.
#[derive(Default)]
pub(crate) struct Pass {
    /// Commands for the writer, each under the token its answer carries.
    pub(crate) commands: Vec<(u64, Command)>,
    /// Requests decoded in this pass.
    pub(crate) decoded: usize,
    /// A wire `SHUTDOWN` was decoded: stop the server.
    pub(crate) shutdown: bool,
    /// The earliest writer deadline of a parked request.
    pub(crate) deadline: Option<Instant>,
}

/// Wire protocol of a session, decided by its first bytes.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
enum Mode {
    /// Nothing (or only a proper prefix of the magic) received yet.
    #[default]
    Unknown,
    /// Line-oriented text protocol; responses in strict request order.
    Text,
    /// `MGWP01` framed protocol; responses in completion order.
    Binary,
}

/// One decoded request awaiting its response bytes.
struct Slot {
    /// Binary request id (0 and unused in text mode).
    req_id: u64,
    state: SlotState,
}

enum SlotState {
    /// Response bytes in text-protocol form, ready to stage — shared
    /// with the response cache on a hit.
    Ready(Arc<[u8]>),
    /// A command in flight to the writer under `token`: an update, or a
    /// first-sight query waiting for its view (with its attempt number).
    Parked {
        token: u64,
        deadline: Option<Instant>,
        query: Option<(Query, u32)>,
    },
}

/// One connection's protocol state (see the module docs).
#[derive(Default)]
pub(crate) struct Session {
    mode: Mode,
    inbuf: Vec<u8>,
    outbuf: Vec<u8>,
    /// `QUIT`, `SHUTDOWN` or unframeable input seen: decode nothing more.
    closing: bool,
    pending: VecDeque<Slot>,
    next_token: u64,
}

/// What dispatching a request reads besides the session: the pass's
/// snapshot and clock, and where its commands go.
struct Env<'a> {
    reads: &'a Reads,
    snapshot: Arc<Snapshot>,
    now: Instant,
    pass: Pass,
    next_token: u64,
}

impl Session {
    /// Take bytes off the wire; ignored once the session is closing.
    pub(crate) fn feed(&mut self, bytes: &[u8]) {
        if !self.closing {
            self.inbuf.extend_from_slice(bytes);
        }
    }

    /// Whether the session still decodes input.
    pub(crate) fn reading(&self) -> bool {
        !self.closing
    }

    /// Decoded requests whose response is not staged yet.
    pub(crate) fn in_flight(&self) -> usize {
        self.pending.len()
    }

    /// The staged response bytes; the caller drains what it sent.
    pub(crate) fn output(&mut self) -> &mut Vec<u8> {
        &mut self.outbuf
    }

    /// One pass, in the order the module docs give.
    pub(crate) fn pass(&mut self, reads: &Reads, link: &mut impl Link, now: Instant) -> Pass {
        let mut answers = link.answers();
        let mut env = Env {
            reads,
            snapshot: link.snapshot(),
            now,
            pass: Pass::default(),
            next_token: self.next_token,
        };
        if !self.decode(&mut env) {
            // Unframeable: nothing correlatable can be sent back.
            let closed = Session {
                closing: true,
                ..Session::default()
            };
            *self = closed;
        }
        let decoded = env.pass.decoded;
        if decoded > 0 {
            let bucket = (usize::BITS - 1 - decoded.leading_zeros()) as usize;
            reads.batch_hist[bucket.min(BATCH_BUCKETS - 1)].fetch_add(1, Relaxed);
        }
        for slot in self.pending.iter_mut() {
            env.advance(&mut slot.state, &mut answers);
        }
        self.stage();
        self.next_token = env.next_token;
        let parked = self.pending.iter().map(|slot| match slot.state {
            SlotState::Parked { deadline, .. } => deadline,
            SlotState::Ready(_) => None,
        });
        env.pass.deadline = parked.flatten().min();
        env.pass
    }

    /// Sniff the framing, then decode and dispatch every complete request
    /// in the buffer.  Returns false on input beyond resync: an
    /// unframeable binary length word or an overlong text line.
    fn decode(&mut self, env: &mut Env<'_>) -> bool {
        let inbuf = std::mem::take(&mut self.inbuf);
        // Requests are decoded in place behind a cursor; the consumed
        // prefix leaves the buffer once, after the loop.
        let mut consumed = 0usize;
        if self.mode == Mode::Unknown && !inbuf.is_empty() {
            match sniff(&inbuf) {
                Sniff::Binary => {
                    consumed = BINARY_MAGIC.len();
                    self.mode = Mode::Binary;
                }
                Sniff::Text => self.mode = Mode::Text,
                Sniff::Undecided => {}
            }
        }
        let mut framed = true;
        while !self.closing {
            let rest = &inbuf[consumed..];
            let (used, req_id, request) = match self.mode {
                Mode::Unknown => break,
                Mode::Text => {
                    let Some(end) = rest.iter().position(|&b| b == b'\n') else {
                        framed = rest.len() <= MAX_LINE;
                        break;
                    };
                    let line = &rest[..end];
                    let line = String::from_utf8_lossy(line.strip_suffix(b"\r").unwrap_or(line));
                    if line.trim().is_empty() {
                        consumed += end + 1;
                        continue;
                    }
                    (end + 1, 0, parse_request(&line))
                }
                Mode::Binary => match Frame::decode(rest) {
                    Ok(Some((frame, used))) => {
                        (used, frame.req_id, parse_frame(frame.tag, &frame.body))
                    }
                    Ok(None) => break,
                    Err(_) => {
                        framed = false;
                        break;
                    }
                },
            };
            consumed += used;
            env.pass.decoded += 1;
            self.dispatch(env, req_id, request);
        }
        self.inbuf = inbuf;
        self.inbuf.drain(..consumed);
        framed
    }

    /// Dispatch one decoded request — from a text line or a binary frame
    /// (`req_id` is 0 and unused in text mode) — into a slot; a request
    /// that did not decode is answered with its `ERR`.
    fn dispatch(&mut self, env: &mut Env<'_>, req_id: u64, request: Result<Request, String>) {
        let state = match request {
            Err(e) => ready_err(&e),
            Ok(Request::Ping) => ready(b"OK pong\n"),
            Ok(request @ (Request::Quit | Request::Shutdown)) => {
                env.pass.shutdown |= request == Request::Shutdown;
                self.closing = true;
                ready(b"OK bye\n")
            }
            Ok(Request::Query(query)) => env.query(query),
            Ok(Request::Insert(fact)) => env.update(Update::Insert(fact)),
            Ok(Request::Retract(fact)) => env.update(Update::Retract(fact)),
            Ok(Request::Stats) => ready(env.reads.stats(&env.snapshot).render().as_bytes()),
        };
        self.pending.push_back(Slot { req_id, state });
    }

    /// Move finished responses to the send buffer: text strictly in
    /// request order, binary in completion order, each framed with its id.
    fn stage(&mut self) {
        if self.mode == Mode::Binary {
            let outbuf = &mut self.outbuf;
            self.pending.retain(|slot| match &slot.state {
                SlotState::Ready(bytes) => {
                    let (tag, body) = match bytes.strip_prefix(b"ERR ") {
                        Some(msg) => (status::ERR, msg.strip_suffix(b"\n").unwrap_or(msg)),
                        None => (status::OK, &bytes[..]),
                    };
                    Frame::encode_into(slot.req_id, tag, body, outbuf);
                    false
                }
                SlotState::Parked { .. } => true,
            });
            return;
        }
        while let Some(Slot {
            state: SlotState::Ready(bytes),
            ..
        }) = self.pending.front()
        {
            self.outbuf.extend_from_slice(bytes);
            self.pending.pop_front();
        }
    }
}

impl Env<'_> {
    /// The read path: answer from the pass's snapshot when the binding is
    /// live in it, else materialize through the writer.  A known key
    /// missing from the snapshot is first sight, an eviction or a raced
    /// materialization; the writer's materialize is idempotent for live
    /// bindings and rebuilds evicted ones.
    fn query(&mut self, query: Query) -> SlotState {
        let key = self.reads.binding_key(&query);
        if let Some((key, view)) = key.and_then(|k| self.snapshot.views.get_key_value(&k)) {
            return SlotState::Ready(self.reads.render_view(key, self.snapshot.version, view));
        }
        self.park(Command::Materialize(query.clone()), Some((query, 1)))
    }

    /// The write path: refuse edits of derived predicates, refuse while
    /// degraded (`ERR DEGRADED`: not applied, wait for recovery), shed at
    /// queue capacity (`ERR BUSY`: not applied, retry after the hint),
    /// otherwise park on the writer (`ERR TIMEOUT` on expiry: unknown).
    fn update(&mut self, update: Update) -> SlotState {
        let reads = self.reads;
        let fact = update.fact();
        if reads.derived.contains(&fact.pred) {
            return ready_err(&format!(
                "{} is derived by the program; derived predicates are maintained, not edited",
                fact.pred
            ));
        }
        if self.snapshot.counters.degraded {
            return ready_err(
                "DEGRADED read-only: the durable path is failing; updates are \
                 refused while a background probe retries it",
            );
        }
        // This pass's commands are not on the queue yet; count them.
        let cap = reads.config.max_queue_depth as u64;
        let depth = reads.queue_depth.load(Relaxed) + self.pass.commands.len() as u64;
        if cap > 0 && depth >= cap {
            reads.shed_updates.fetch_add(1, Relaxed);
            return ready_err(&format!(
                "BUSY {BUSY_RETRY_AFTER_MS} writer queue is at capacity ({cap}); \
                 retry after the hinted backoff"
            ));
        }
        self.park(Command::Update(update), None)
    }

    /// Hand `command` to the writer under a fresh token and park on it.
    fn park(&mut self, command: Command, query: Option<(Query, u32)>) -> SlotState {
        let token = self.next_token;
        self.next_token += 1;
        self.pass.commands.push((token, command));
        let wait = self.reads.config.writer_deadline;
        SlotState::Parked {
            token,
            deadline: (!wait.is_zero()).then(|| self.now + wait),
            query,
        }
    }

    /// Advance a parked request whose writer answered or whose deadline
    /// passed.  An expired command is not revoked — it stays queued and
    /// may apply later, so the `TIMEOUT` refusal says so — and its late
    /// answer finds no slot.  A query's materialize is attempt `n` of 3:
    /// materialize-then-read can race an eviction, and each retry
    /// rebuilds from the current base.
    fn advance(&mut self, state: &mut SlotState, answers: &mut Vec<(u64, Answer)>) {
        let SlotState::Parked {
            token,
            deadline,
            query,
        } = state
        else {
            return;
        };
        let Some(at) = answers.iter().position(|(t, _)| t == token) else {
            if deadline.is_some_and(|at| self.now >= at) {
                self.reads.deadline_misses.fetch_add(1, Relaxed);
                *state = ready_err(&format!(
                    "TIMEOUT writer did not respond within {}ms; the command is \
                     still queued and may yet apply",
                    self.reads.config.writer_deadline.as_millis()
                ));
            }
            return;
        };
        *state = match (answers.swap_remove(at).1, query.take()) {
            (Answer::Refused(e), _) => ready_err(&e),
            (Answer::Applied { changed, version }, None) => {
                ready(render_ack(changed, version).as_bytes())
            }
            (Answer::Materialized(key), Some((query, attempts))) => {
                if let Some(view) = self.snapshot.views.get(&key) {
                    SlotState::Ready(self.reads.render_view(&key, self.snapshot.version, view))
                } else if attempts < 3 {
                    let command = Command::Materialize(query.clone());
                    self.park(command, Some((query, attempts + 1)))
                } else {
                    ready_err(&format!(
                        "view for {} was repeatedly evicted while answering; its \
                         maintenance is failing",
                        query.atom
                    ))
                }
            }
            (answer, _) => ready_err(&format!(
                "INTERNAL the writer's answer {answer:?} does not fit the request"
            )),
        };
    }
}

fn ready(response: &[u8]) -> SlotState {
    SlotState::Ready(response.into())
}

fn ready_err(message: &str) -> SlotState {
    ready(render_error(message).as_bytes())
}

#[cfg(test)]
mod sim;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::{op, MAX_FRAME};
    use crate::writer::sim::{program, seed_db};
    use crate::writer::{Event, Writer};
    use magic_core::planner::Strategy;
    use magic_workloads::SplitMix64;
    use std::time::Duration;

    /// A session's writer side in a test: answers handed in by hand or
    /// by a real writer, and the snapshot it last published.
    struct Desk {
        answers: Vec<(u64, Answer)>,
        snapshot: Arc<Snapshot>,
    }

    impl Link for Desk {
        fn answers(&mut self) -> Vec<(u64, Answer)> {
            std::mem::take(&mut self.answers)
        }

        fn snapshot(&mut self) -> Arc<Snapshot> {
            Arc::clone(&self.snapshot)
        }
    }

    impl Desk {
        fn new() -> Desk {
            Desk {
                answers: Vec::new(),
                snapshot: Arc::default(),
            }
        }

        /// Run `commands` through one writer turn, as the writer thread
        /// would: the snapshot lands before the answers.
        fn serve(&mut self, writer: &mut Writer, commands: Vec<(u64, Command)>, now: Instant) {
            writer.turn(commands, now, |event| match event {
                Event::Publish(snapshot) => self.snapshot = snapshot,
                Event::Reply(token, answer) => self.answers.push((token, answer)),
            });
        }
    }

    fn encode(binary: bool, id: u64, tag: u8, line: &str) -> Vec<u8> {
        if !binary {
            return format!("{line}\n").into_bytes();
        }
        let body = line.split_once(' ').map_or("", |(_, body)| body);
        let mut frame = Vec::new();
        Frame::encode_into(id, tag, body.as_bytes(), &mut frame);
        frame
    }

    #[test]
    fn window_one_responses_are_staged_in_the_pass_that_completes_them() {
        // What `window_one_round_trips_are_not_floored_by_a_sleep` times
        // over a socket, held here pass by pass with no clock: a request
        // whose last input is its bytes (PING, STATS, a warm QUERY) is
        // staged by the pass that feeds its last byte, one whose last
        // input is the writer's answer (INSERT, a first-sight QUERY) by
        // the pass that takes the answer, and a pass arms no deadline
        // but the writer deadline of a parked request.
        let now = Instant::now();
        let wait = ServeConfig::default().writer_deadline;
        let reads = Reads::new(program(), &ServeConfig::default());
        for binary in [false, true] {
            let catalog = ViewCatalog::new(Strategy::MagicSets).with_base(seed_db());
            let mut writer = Writer::new(program(), catalog, None, Duration::ZERO, now);
            let mut desk = Desk::new();
            desk.snapshot = writer.snapshot();
            let mut session = Session::default();
            if binary {
                session.feed(BINARY_MAGIC);
            }
            let requests = [
                (op::PING, "PING", false),
                (op::STATS, "STATS", false),
                (op::QUERY, "QUERY anc(n0, Y)", true),
                (op::QUERY, "QUERY anc(n0, Y)", false),
                (op::INSERT, "INSERT par(n3, n4)", true),
                (op::QUERY, "QUERY anc(n0, Y)", false),
            ];
            for (id, (tag, line, via_writer)) in (1..).zip(requests) {
                let bytes = encode(binary, id, tag, line);
                let (head, last) = bytes.split_at(bytes.len() - 1);
                session.feed(head);
                let pass = session.pass(&reads, &mut desk, now);
                assert!(
                    session.output().is_empty() && pass.commands.is_empty(),
                    "{line}"
                );
                assert_eq!(pass.deadline, None);
                session.feed(last);
                let pass = session.pass(&reads, &mut desk, now);
                assert_eq!(pass.decoded, 1);
                if via_writer {
                    assert!(session.output().is_empty(), "{line}");
                    assert_eq!(pass.commands.len(), 1, "{line}");
                    assert_eq!(pass.deadline, Some(now + wait), "{line}");
                    desk.serve(&mut writer, pass.commands, now);
                    let pass = session.pass(&reads, &mut desk, now);
                    assert!(pass.commands.is_empty());
                    assert_eq!(pass.deadline, None);
                } else {
                    assert!(pass.commands.is_empty(), "{line}");
                    assert_eq!(pass.deadline, None);
                }
                let staged = std::mem::take(session.output());
                let text = String::from_utf8_lossy(&staged);
                let expected = match tag {
                    op::PING => "OK pong",
                    op::STATS => "OK stats",
                    op::INSERT => "OK applied 2",
                    _ if id == 6 => "OK 4 2 anc",
                    _ => "OK 3 1 anc",
                };
                assert!(text.contains(expected), "{line}: {text:?}");
                assert_eq!(session.in_flight(), 0);
            }
        }
    }

    #[test]
    fn a_mismatched_writer_answer_is_a_typed_error_not_a_panic() {
        let reads = Reads::new(program(), &ServeConfig::default());
        let now = Instant::now();
        let mut desk = Desk::new();
        let mut session = Session::default();
        session.feed(b"INSERT par(n1, n2)\nQUERY anc(n0, Y)\n");
        let pass = session.pass(&reads, &mut desk, now);
        let tokens: Vec<u64> = pass.commands.iter().map(|(token, _)| *token).collect();
        assert_eq!(tokens.len(), 2);
        let applied = Answer::Applied {
            changed: true,
            version: 1,
        };
        desk.answers = vec![
            (tokens[0], Answer::Materialized("k".into())),
            (tokens[1], applied),
            (99, Answer::Refused("a token nobody holds".into())),
        ];
        session.pass(&reads, &mut desk, now);
        let text = String::from_utf8(std::mem::take(session.output())).expect("UTF-8");
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2, "{text:?}");
        assert!(
            lines.iter().all(|l| l.starts_with("ERR INTERNAL ")),
            "{text:?}"
        );
        assert_eq!(session.in_flight(), 0);
    }

    /// The count of well-formed responses in staged text; panics on
    /// anything else.
    fn text_responses(bytes: &[u8]) -> usize {
        let text = std::str::from_utf8(bytes).expect("responses are UTF-8");
        let mut lines = text.split_inclusive('\n');
        let mut count = 0;
        while let Some(line) = lines.next() {
            count += 1;
            if line.starts_with("ERR ") && line.ends_with('\n') {
                continue;
            }
            let rows = line.split(' ').nth(1).and_then(|n| n.parse::<usize>().ok());
            let body: Vec<&str> = match (line, rows) {
                ("OK stats\n", _) => lines.by_ref().take_while(|l| *l != "END\n").collect(),
                (_, Some(rows)) => {
                    let body: Vec<&str> = lines.by_ref().take(rows + 1).collect();
                    assert_eq!(body.last(), Some(&"END\n"), "{text:?}");
                    body[..rows].to_vec()
                }
                _ => {
                    let words = ["OK pong\n", "OK bye\n"];
                    let ack = line.starts_with("OK applied ") || line.starts_with("OK noop ");
                    assert!(words.contains(&line) || ack, "{line:?}");
                    continue;
                }
            };
            assert!(body
                .iter()
                .all(|l| l.ends_with('\n') && !l.starts_with("OK")));
        }
        count
    }

    /// The count of well-formed response frames in staged bytes.
    fn frame_responses(mut bytes: &[u8]) -> usize {
        let mut count = 0;
        while !bytes.is_empty() {
            let (frame, used) = Frame::decode(bytes)
                .expect("a frame")
                .expect("a whole frame");
            match frame.tag {
                status::OK => assert_eq!(text_responses(&frame.body), 1),
                status::ERR => assert!(!frame.body.contains(&b'\n')),
                tag => panic!("status {tag}"),
            }
            bytes = &bytes[used..];
            count += 1;
        }
        count
    }

    /// Valid request streams: text lines, or an `MGWP01` preamble and
    /// frames.
    fn corpus(rng: &mut SplitMix64, binary: bool) -> Vec<u8> {
        let requests = [
            (op::PING, "PING"),
            (op::STATS, "STATS"),
            (op::QUERY, "QUERY anc(n0, Y)"),
            (op::QUERY, "QUERY anc(n2, Y)"),
            (op::INSERT, "INSERT par(n1, n5)"),
            (op::RETRACT, "RETRACT par(n0, n1)"),
            (op::INSERT, "INSERT par(X, n1)"),
            (op::QUERY, "QUERY anc(n0"),
            (9, "BOGUS verb"),
            (op::PING, "QUIT"),
        ];
        let mut out = if binary {
            BINARY_MAGIC.to_vec()
        } else {
            Vec::new()
        };
        for id in 0..rng.random_range(1..12) as u64 {
            let (tag, line) = requests[rng.random_range(0..requests.len())];
            if line == "QUIT" && (binary || rng.random_range(0..4) > 0) {
                continue;
            }
            out.extend(encode(binary, id, tag, line));
        }
        out
    }

    /// One seeded mutation of a valid stream.
    fn mutate(rng: &mut SplitMix64, mut bytes: Vec<u8>, other: &[u8]) -> Vec<u8> {
        let at = |rng: &mut SplitMix64, len: usize| rng.random_range(0..len + 1);
        match rng.random_range(0..7) {
            0 => {}
            1 => bytes.truncate(at(rng, bytes.len())),
            2 => {
                for _ in 0..rng.random_range(1..9) {
                    if !bytes.is_empty() {
                        let i = rng.random_range(0..bytes.len());
                        bytes[i] ^= 1 << rng.random_range(0..8);
                    }
                }
            }
            3 => {
                let (from, to) = (at(rng, other.len()), at(rng, other.len()));
                let splice = &other[from.min(to)..from.max(to)];
                let i = at(rng, bytes.len());
                bytes.splice(i..i, splice.iter().copied());
            }
            4 => {
                let len = [MAX_FRAME as u32 + 1, u32::MAX, 0, 8, 9][rng.random_range(0..5)];
                let i = at(rng, bytes.len());
                bytes.splice(i..i, len.to_le_bytes());
            }
            5 => {
                let i = at(rng, bytes.len());
                bytes.splice(i..i, [0xff, 0xfe, 0xc0, 0x80]);
            }
            _ => bytes.truncate(at(rng, bytes.len()) / 2),
        }
        bytes
    }

    /// Feed `bytes` cut at `split`, then in chunks seeded by `rng` (or
    /// whole), answering every command on the next pass; checks each
    /// pass and the staged responses, and returns them and whether the
    /// session is still open.
    fn drive(mut rng: Option<&mut SplitMix64>, bytes: &[u8], split: &[usize]) -> (Vec<u8>, bool) {
        let reads = Reads::new(program(), &ServeConfig::default());
        let now = Instant::now();
        let (mut desk, mut session) = (Desk::new(), Session::default());
        let (mut staged, mut decoded, mut fed) = (Vec::new(), 0, 0);
        let mut cuts = split.iter().copied();
        let (mut passes, mut binary) = (0, false);
        while fed < bytes.len() || session.in_flight() > 0 {
            passes += 1;
            assert!(passes < 10 * bytes.len() + 20, "a request never finishes");
            let next = match (&mut rng, cuts.next()) {
                (_, Some(cut)) => cut,
                (Some(rng), None) => match rng.random_range(0..3) {
                    0 => fed + 1,
                    1 => fed + rng.random_range(1..16),
                    _ => fed + rng.random_range(1..bytes.len() + 1),
                },
                (None, None) => bytes.len(),
            };
            let next = next.clamp(fed, bytes.len());
            session.feed(&bytes[fed..next]);
            fed = next;
            let pass = session.pass(&reads, &mut desk, now);
            decoded += pass.decoded;
            desk.answers = (pass.commands.into_iter())
                .map(|(token, command)| match command {
                    Command::Update(_) => (
                        token,
                        Answer::Applied {
                            changed: true,
                            version: 0,
                        },
                    ),
                    Command::Materialize(_) => (token, Answer::Materialized("k".into())),
                })
                .collect();
            let bound = match session.mode {
                Mode::Unknown => BINARY_MAGIC.len() - 1,
                Mode::Text => MAX_LINE,
                Mode::Binary => 4 + MAX_FRAME - 1,
            };
            assert!(session.inbuf.len() <= bound, "{}", session.inbuf.len());
            // A session that closes forgets its framing; the output keeps it.
            binary |= session.mode == Mode::Binary;
            staged.extend(std::mem::take(session.output()));
            if !session.reading() && session.in_flight() == 0 {
                break;
            }
        }
        let answered = match binary {
            true => frame_responses(&staged),
            false => text_responses(&staged),
        };
        assert!(answered <= decoded);
        assert!(
            answered == decoded || !session.reading(),
            "{answered} of {decoded}"
        );
        (staged, session.reading())
    }

    #[test]
    fn hostile_bytes_never_panic_and_are_answered_once_or_closed() {
        let mut rng = SplitMix64::seed_from_u64(43);
        for round in 0..4000 {
            let binary = round % 2 == 0;
            let valid = corpus(&mut rng, binary);
            let other = corpus(&mut rng, !binary);
            let bytes = mutate(&mut rng, valid, &other);
            drive(Some(&mut rng), &bytes, &[]);
        }
        // An overlong line and a frame past the cap close the session
        // without buffering it.
        let long = vec![b'A'; MAX_LINE + 2];
        assert!(!drive(None, &long, &[MAX_LINE / 2]).1);
        let mut huge = BINARY_MAGIC.to_vec();
        huge.extend((MAX_FRAME as u32 + 1).to_le_bytes());
        assert!(!drive(None, &huge, &[]).1);
    }

    #[test]
    fn a_stream_split_at_any_byte_is_answered_as_if_whole() {
        for binary in [false, true] {
            let mut bytes = if binary {
                BINARY_MAGIC.to_vec()
            } else {
                Vec::new()
            };
            for (id, (tag, line)) in (1..).zip([
                (op::PING, "PING"),
                (op::QUERY, "QUERY anc(n0, Y)"),
                (op::INSERT, "INSERT par(n1, n5)"),
                (9, "BOGUS verb"),
                (op::PING, "PING"),
            ]) {
                bytes.extend(encode(binary, id, tag, line));
            }
            let (whole, _) = drive(None, &bytes, &[]);
            let frames = |staged: &[u8]| {
                let mut frames = Vec::new();
                let mut rest = staged;
                while let Ok(Some((frame, used))) = Frame::decode(rest) {
                    frames.push(frame.encode());
                    rest = &rest[used..];
                }
                frames.sort();
                frames
            };
            for cut in 0..=bytes.len() {
                let (split, _) = drive(None, &bytes, &[cut]);
                if binary {
                    // Completion order may differ; the responses may not.
                    assert_eq!(frames(&split), frames(&whole), "cut at {cut}");
                } else {
                    assert_eq!(split, whole, "cut at {cut}");
                }
            }
        }
    }
}
