//! The server: a pooled, pipelined front end over one maintenance
//! writer and incrementally published copy-on-write view snapshots.
//!
//! # Concurrency model
//!
//! * **Readers never block on maintenance.**  The writer keeps one
//!   frozen [`ViewSnapshot`](magic_incr::ViewSnapshot) per cached
//!   binding and publishes the set, with its counters, behind one
//!   immutable [`Arc`]; a connection clones that `Arc` (one brief lock)
//!   and reads answers out of the frozen snapshot.  Every binding of one
//!   rewritten program is a magic seed of the same view (see
//!   [`magic_incr::catalog`]), so a publish re-freezes **only the views
//!   the batch moved**, once each.
//!
//! * **Writes are serialized through one writer**, a clock-free machine
//!   (`writer.rs`) in a thin thread: each turn decides which drained
//!   updates change state, logs those, applies them through
//!   [`ViewCatalog::apply_all`], then publishes, then acknowledges, then
//!   runs whatever duty is due — so ack-after-publish and
//!   read-your-writes hold, and every publish is numbered.
//!
//! * **A connection is a machine in a readiness shell.**  An accept
//!   loop deals each connection to one of a fixed pool of reader threads
//!   ([`ServeConfig::reader_threads`]).  A reader blocks in one `poll(2)`
//!   (`ready.rs`) on its sockets, its waker and the nearest timer; after
//!   every return it reads what is readable (bounded per pass) into each
//!   connection's `Session` (`session.rs`), runs the session's pass —
//!   take the writer's answers, load the snapshot, decode and dispatch
//!   *every* buffered request, stage the responses — sends the pass's
//!   commands to the writer and writes.  Nothing polls on a clock: a
//!   request is picked up when its bytes arrive, a writer's reply when
//!   the writer signals it, and an idle server makes no wake-ups.  A
//!   pipelining client is served a window at a time (`PIPELINE_LINGER`).
//!
//! * **Two framings share the port and one request path.**  The first
//!   bytes are sniffed against the `MGWP01` magic *in full*: it selects
//!   the binary framing (request ids, out-of-order responses — see
//!   [`crate::protocol`]); anything else is the text protocol, answered
//!   in request order.  Both decode to one request and one dispatch
//!   (`Session::dispatch`).  A binding not in the snapshot is planned by
//!   its session (memoized per query text) and materialized by the
//!   writer, which publishes before it answers.
//!
//! * **Durability is optional.**  With [`ServeConfig::durability`] set,
//!   `OK applied` means *logged and published*, checkpoints follow the
//!   configured cadence, and startup recovers before the listener
//!   accepts a connection.
//!
//! * **Overload sheds; failures degrade.**  At
//!   [`ServeConfig::max_queue_depth`] updates are refused up front with
//!   `ERR BUSY <retry-after-ms> …` (not applied), and every writer
//!   round-trip is bounded by [`ServeConfig::writer_deadline`] (`ERR
//!   TIMEOUT …` = outcome unknown).  A failed WAL append or checkpoint
//!   makes the server read-only (`ERR DEGRADED …`) until a probe on
//!   capped exponential backoff (25ms → 2s) succeeds.  Reads are never
//!   shed and keep serving; `STATS` reports the state.
//!
//! Every published snapshot is a program fixpoint over a prefix of the
//! applied update sequence, so a reader never observes half of a batch —
//! the property `tests/serve_consistency.rs` checks against a
//! from-scratch oracle over real sockets, `session/sim.rs` over 2 000
//! seeded interleavings of sessions and the writer, and
//! `crates/serve/tests/durable_restart.rs` after a mid-stream `SIGKILL`.

use crate::ready::{PollSet, Ready, Waker};
use crate::session::{Link, Reads, Session, MAX_LINE};
use crate::writer::{Answer, Command, Event, Snapshot, Writer};
use magic_core::planner::Strategy;
use magic_datalog::Program;
use magic_durable::{ConnFault, DurableConfig, DurableError, DurableStore, FaultPlan};
use magic_engine::Limits;
use magic_incr::ViewCatalog;
use magic_storage::Database;
use std::collections::HashMap;
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{channel, Receiver, RecvTimeoutError, Sender, TryRecvError};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Most commands the writer drains into one step (and thus one
/// published snapshot).
const BATCH_MAX: usize = 256;

/// How long the accept loop stays off the listener after `accept`
/// failed for a reason that retrying at once would only repeat (out of
/// descriptors, out of memory): the listener stays readable in that
/// state, so waiting on it would spin.
const ACCEPT_ERROR_BACKOFF: Duration = Duration::from_millis(10);

/// Size of a reader thread's socket read buffer, and therefore of one
/// `read` call.
const READ_CHUNK: usize = 16 * 1024;

/// How long a connection that sent a pipelined burst (more than one
/// request decoded in one pass) is left alone before its next pass, so
/// that the rest of the client's window arrives and is served as one
/// batch: one `read`, one `write` and one wake-up of either side per
/// window instead of per request.  A window-1 caller never meets it.
/// This is the batching the old idle sleep did by accident, now stated;
/// ROADMAP ("pipeline cadence") has the measurements without it and
/// what has to change before it can go.
const PIPELINE_LINGER: Duration = Duration::from_millis(1);

/// Server construction parameters.
#[derive(Clone, Debug)]
pub struct ServeConfig {
    /// Rewrite strategy for on-demand view materialization.
    pub strategy: Strategy,
    /// Evaluation limits applied to every view.
    pub limits: Limits,
    /// Cap on cached views (0 = unbounded): past it, the catalog
    /// evicts the least-recently-queried binding, which then
    /// re-materializes on next sight.  See
    /// [`ViewCatalog::with_max_views`].
    pub max_views: usize,
    /// Idle lifetime of cached views (zero = no TTL): a binding no
    /// query has touched for this long is evicted by the writer's next
    /// sweep — due every quarter TTL (10 ms to 1 s), whether the writer
    /// is idle or busy — and re-materializes on next sight.  Composes
    /// with `max_views` — TTL bounds staleness in *time*, the cap in
    /// *count*.  See [`ViewCatalog::with_view_ttl`].
    pub view_ttl: Duration,
    /// Crash safety (off by default): when set, the writer appends
    /// every acked batch to the write-ahead log in this store directory
    /// and checkpoints on the configured cadence; [`Server::start`]
    /// recovers prior state from that directory before accepting
    /// connections.
    pub durability: Option<DurableConfig>,
    /// Overload bound on the writer queue (0 = unbounded).  When the
    /// number of in-flight writer commands reaches this cap, new
    /// updates are *shed* before they enqueue: the client gets an `ERR
    /// BUSY <retry-after-ms> …` line and the fact is never applied or
    /// logged.  Reads are never shed — they keep serving from the
    /// published snapshot.
    pub max_queue_depth: usize,
    /// Deadline on every writer round-trip — update acks and on-demand
    /// materializations (zero = wait forever).  A round-trip that
    /// exceeds it returns `ERR TIMEOUT …` to the client; the command
    /// stays queued and **may still apply later**, so a timed-out
    /// update has *unknown* outcome (unlike a `BUSY` shed, which
    /// definitely did not apply).
    pub writer_deadline: Duration,
    /// Bound on stalled response writes (zero = unbounded).  A client
    /// that stops reading while a large response fills the kernel send
    /// buffer must not pin its connection forever; once no byte has
    /// moved for this long the response is torn mid-write and the
    /// connection closes.  The default (5s) is generous — it exists to
    /// bound shutdown, not to police slow links.
    pub write_timeout: Duration,
    /// Size of the connection reader pool (0 = auto: the machine's
    /// available parallelism, clamped to 2..=8).  Each reader serves
    /// many connections from one readiness wait; the pool replaces
    /// thread-per-connection.
    pub reader_threads: usize,
    /// Deterministic fault injection (testing only; `None` in
    /// production).  When unset, the `MAGIC_FAULTS` environment
    /// variable is consulted at startup — see
    /// [`magic_durable::faults`].  The plan is shared between the
    /// durable store (fsync/append/rename faults) and the accept loop
    /// (connection stall/drop faults).
    pub faults: Option<Arc<FaultPlan>>,
}

impl Default for ServeConfig {
    fn default() -> ServeConfig {
        ServeConfig {
            strategy: Strategy::MagicSets,
            limits: Limits::default(),
            max_views: 0,
            view_ttl: Duration::ZERO,
            durability: None,
            max_queue_depth: 1024,
            writer_deadline: Duration::from_secs(30),
            write_timeout: Duration::from_secs(5),
            reader_threads: 0,
            faults: None,
        }
    }
}

/// The writer-side end of a parked request: the channel its slot waits
/// on, and the waker of the reader thread that owns the slot.  Every way
/// of finishing with it wakes that reader *after* the channel changed —
/// [`Reply::send`] after the value is queued, dropping it unanswered
/// (writer gone, command never dequeued) after the channel disconnected
/// — so the reader's next pass finds what it was woken for.
struct Reply<T> {
    tx: Option<Sender<T>>,
    wake: Arc<Waker>,
}

impl<T> Reply<T> {
    /// A reply channel whose answers wake `wake`'s reader.
    fn channel(wake: &Arc<Waker>) -> (Reply<T>, Receiver<T>) {
        let (tx, rx) = channel();
        let reply = Reply {
            tx: Some(tx),
            wake: Arc::clone(wake),
        };
        (reply, rx)
    }

    /// Answer the request (a closed connection has dropped its
    /// receiver, and an expired request's shell discards the answer).
    fn send(mut self, value: T) {
        if let Some(tx) = self.tx.take() {
            let _ = tx.send(value);
        }
    }
}

impl<T> Drop for Reply<T> {
    fn drop(&mut self) {
        // Disconnect first, then wake: woken any earlier, the reader
        // could look, find the channel still open and empty, and go
        // back to sleep for good.
        self.tx = None;
        self.wake.wake();
    }
}

/// Commands on the writer's queue: one to run, answered through its
/// reply once the snapshot it depends on is live, or stop.
enum WriterCmd {
    Run(Command, Reply<Answer>),
    Shutdown,
}

/// State shared between the accept loop, the reader pool, the writer
/// and the handle.
struct Shared {
    /// What sessions read: the program, the caches, the `STATS` counters.
    reads: Reads,
    /// The writer's command queue.
    tx: Sender<WriterCmd>,
    /// The snapshot the writer last published: the views and everything
    /// else readers learn from the writer.
    published: Mutex<Arc<Snapshot>>,
    shutdown: AtomicBool,
    /// Ends the accept loop's wait; only shutdown uses it.
    accept_waker: Waker,
    /// One per reader thread, in pool order: the accept loop wakes a
    /// reader after dealing it a connection, the writer wakes it through
    /// the [`Reply`]s it handed out, shutdown wakes them all.
    reader_wakers: Vec<Arc<Waker>>,
    write_timeout: Duration,
    /// Shared fault plan for the accept loop's connection faults.
    faults: Option<Arc<FaultPlan>>,
}

impl Shared {
    fn snapshot(&self) -> Arc<Snapshot> {
        self.published.lock().expect("publish lock").clone()
    }

    /// Queue a client command for the writer, counted against the depth
    /// gauge until the writer pops it.  Once the writer is gone the
    /// command is dropped, and its dropped reply wakes its reader.
    fn send(&self, cmd: WriterCmd) {
        let depth = &self.reads.queue_depth;
        depth.fetch_add(1, Ordering::Relaxed);
        if self.tx.send(cmd).is_err() {
            depth.fetch_sub(1, Ordering::Relaxed);
        }
    }

    /// Raise the shutdown flag and get every front-end thread to look
    /// at it: each is blocked in a wait with no timer of its own.
    fn stop_front_end(&self) {
        self.shutdown.store(true, Ordering::SeqCst);
        self.accept_waker.wake();
        for waker in &self.reader_wakers {
            waker.wake();
        }
    }

    /// Stop every thread: the front end as above, the writer by command
    /// (idempotent).
    fn begin_shutdown(&self) {
        self.stop_front_end();
        let _ = self.tx.send(WriterCmd::Shutdown);
    }
}

/// A string-keyed map the reader threads share behind one lock (the
/// sessions' two caches); a poisoned lock is taken as is.
#[derive(Default)]
pub(crate) struct LockedMap<V>(Mutex<HashMap<String, V>>);

impl<V: Clone> LockedMap<V> {
    pub(crate) fn get(&self, key: &str) -> Option<V> {
        self.lock().get(key).cloned()
    }

    /// Insert, unless `cap` other keys are held already.
    pub(crate) fn insert(&self, key: String, value: V, cap: usize) {
        let mut map = self.lock();
        if map.len() < cap || map.contains_key(&key) {
            map.insert(key, value);
        }
    }

    fn lock(&self) -> MutexGuard<'_, HashMap<String, V>> {
        self.0.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

/// A running server.  Dropping the handle shuts the server down and joins
/// every thread; [`ServerHandle::shutdown`] does the same explicitly.
pub struct ServerHandle {
    addr: SocketAddr,
    shared: Arc<Shared>,
    accept_thread: Option<JoinHandle<()>>,
    writer_thread: Option<JoinHandle<()>>,
    reader_threads: Vec<JoinHandle<()>>,
}

/// Namespace for [`Server::start`].
pub struct Server;

impl Server {
    /// Bind `addr` (e.g. `"127.0.0.1:0"` for an ephemeral port) and serve
    /// `program` over `edb` until the returned handle is shut down.
    ///
    /// The catalog starts with no views: they materialize on demand as
    /// queries arrive, each keyed by its adorned binding.  `edb` becomes
    /// the catalog's base — the one copy of the base facts, which every
    /// acknowledged update writes and every view shares.
    ///
    /// With [`ServeConfig::durability`] set, startup first runs
    /// recovery against the store directory — newest checkpoint load,
    /// re-materialization of its exported view bindings, WAL-tail
    /// replay — all *before* the listener accepts its first
    /// connection.  On a brand-new store `edb` is the seed and is
    /// checkpointed immediately; on an existing store the disk state
    /// wins and `edb` is ignored.
    pub fn start(
        program: Program,
        edb: Database,
        addr: impl ToSocketAddrs,
        config: ServeConfig,
    ) -> io::Result<ServerHandle> {
        let listener = TcpListener::bind(addr)?;
        listener.set_nonblocking(true)?;
        let addr = listener.local_addr()?;
        let durable_err = |e: DurableError| io::Error::other(e.to_string());
        // One fault plan instance for the whole server: explicit config
        // wins, else `MAGIC_FAULTS`.  Resolving it here (rather than
        // letting the store read the environment on its own) keeps the
        // durable store and the accept loop sharing the *same*
        // occurrence counters, so a spec like `conn-drop=2` counts
        // connections globally, not per subsystem.
        let faults = config.faults.clone().or_else(FaultPlan::from_env);
        let catalog = ViewCatalog::new(config.strategy)
            .with_limits(config.limits)
            .with_max_views(config.max_views)
            .with_view_ttl(config.view_ttl);
        let (catalog, store) = match &config.durability {
            Some(durable) => {
                let mut durable = durable.clone();
                if durable.faults.is_none() {
                    durable.faults = faults.clone();
                }
                let mut store = DurableStore::open(&durable).map_err(durable_err)?;
                let recovered = store
                    .recover(&program, catalog, &edb)
                    .map_err(durable_err)?;
                (recovered.catalog, Some(store))
            }
            None => (catalog.with_base(edb), None),
        };

        let (tx, rx) = channel();
        let reader_count = if config.reader_threads == 0 {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(2)
                .clamp(2, 8)
        } else {
            config.reader_threads
        };
        let reader_wakers = (0..reader_count)
            .map(|_| Waker::new().map(Arc::new))
            .collect::<io::Result<Vec<_>>>()?;
        let shared = Arc::new(Shared {
            reads: Reads::new(program, &config),
            tx,
            published: Mutex::new(Arc::new(Snapshot::default())),
            shutdown: AtomicBool::new(false),
            accept_waker: Waker::new()?,
            reader_wakers,
            write_timeout: config.write_timeout,
            faults,
        });

        let (started, started_rx) = channel();
        let writer_shared = Arc::clone(&shared);
        let writer_thread = std::thread::Builder::new()
            .name("magic-serve-writer".into())
            .spawn(move || {
                let program = writer_shared.reads.program.clone();
                let writer = Writer::new(program, catalog, store, config.view_ttl, Instant::now());
                run_writer(&writer_shared, rx, writer, started);
            })?;

        // The writer takes its malloc arena before any other thread of
        // this server exists.  glibc hands a new thread the arena of the
        // thread that exited last, and [`ServerHandle::shutdown`] makes
        // that the writer — the one arena with a whole catalog's worth of
        // free space.  A reader that starts first takes it instead, and
        // the writer grows a second copy (`peak_rss_mb` 102 or 148 MiB
        // on `magicbench serve_read`, by the luck of the thread start).
        let _ = started_rx.recv();

        let mut reader_txs = Vec::with_capacity(reader_count);
        let mut reader_threads = Vec::with_capacity(reader_count);
        for (i, waker) in shared.reader_wakers.iter().enumerate() {
            let (tx, rx) = channel::<Conn>();
            reader_txs.push(tx);
            let reader_shared = Arc::clone(&shared);
            let waker = Arc::clone(waker);
            reader_threads.push(
                std::thread::Builder::new()
                    .name(format!("magic-serve-reader-{i}"))
                    .spawn(move || reader_loop(reader_shared, rx, waker))?,
            );
        }

        let accept_shared = Arc::clone(&shared);
        let accept_thread = std::thread::Builder::new()
            .name("magic-serve-accept".into())
            .spawn(move || accept_loop(listener, accept_shared, reader_txs))?;

        Ok(ServerHandle {
            addr,
            shared,
            accept_thread: Some(accept_thread),
            writer_thread: Some(writer_thread),
            reader_threads,
        })
    }
}

impl ServerHandle {
    /// The bound address (with the real port when `:0` was requested).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Queries answered so far (across all connections).
    pub fn queries_served(&self) -> u64 {
        self.shared.reads.queries_served.load(Ordering::Relaxed)
    }

    /// Stop front to back and join every thread: the accept loop, then
    /// the reader pool (which drops its connections), then the writer.
    /// The writer therefore outlives every thread that can still hand it
    /// work, and is the last thread to exit.  That order also keeps a
    /// process that starts another server afterwards at one server's
    /// footprint: glibc gives a new thread the malloc arena of the
    /// thread that exited last, so the next server's writer (the first
    /// thread [`Server::start`] spawns) allocates its views out of the
    /// space the previous writer's views freed, where a racing exit order
    /// left that to chance (89 MiB or 150 MiB on `magicbench serve_read`,
    /// run to run).  Idempotent; also runs on drop.
    pub fn shutdown(&mut self) {
        self.shared.stop_front_end();
        if let Some(t) = self.accept_thread.take() {
            let _ = t.join();
        }
        for t in self.reader_threads.drain(..) {
            let _ = t.join();
        }
        self.shared.begin_shutdown();
        if let Some(t) = self.writer_thread.take() {
            let _ = t.join();
        }
    }
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// The writer thread, a shell around the [`Writer`] machine: wait for a
/// command no later than [`Writer::due`], drain up to [`BATCH_MAX`] more,
/// and run one [`Writer::turn`] — publish, then replies, then duties.
/// Commands queued behind `Shutdown` are dropped unanswered, which wakes
/// their readers.
fn run_writer(shared: &Shared, rx: Receiver<WriterCmd>, mut writer: Writer, started: Sender<()>) {
    let publish = |snapshot| *shared.published.lock().expect("publish lock") = snapshot;
    publish(writer.snapshot());
    // Running, and past this thread's first allocation.
    drop(started);
    let mut stop = false;
    while !stop {
        let received = match writer.due() {
            Some(at) => rx.recv_timeout(at.saturating_duration_since(Instant::now())),
            None => rx.recv().map_err(|_| RecvTimeoutError::Disconnected),
        };
        let mut next = match received {
            Ok(cmd) => Some(cmd),
            Err(RecvTimeoutError::Timeout) => None,
            Err(RecvTimeoutError::Disconnected) => break, // every sender is gone
        };
        let mut commands = Vec::new();
        while let Some(cmd) = next.take() {
            match cmd {
                // Leaves the depth gauge [`Shared::send`] counted it in.
                WriterCmd::Run(command, reply) => {
                    shared.reads.queue_depth.fetch_sub(1, Ordering::Relaxed);
                    commands.push((reply, command));
                }
                WriterCmd::Shutdown => stop = true,
            }
            if !stop && commands.len() < BATCH_MAX {
                next = rx.try_recv().ok();
            }
        }
        writer.turn(commands, Instant::now(), |event| match event {
            Event::Publish(snapshot) => publish(snapshot),
            Event::Reply(reply, answer) => reply.send(answer),
        });
    }
    writer.close();
}

/// Accept connections and deal them round-robin to the reader pool,
/// waking the reader each lands on.  Blocks on the listener and the
/// accept waker; shutdown is the only thing that wakes the latter.
fn accept_loop(listener: TcpListener, shared: Arc<Shared>, reader_txs: Vec<Sender<Conn>>) {
    let mut next = 0usize;
    let mut poll = PollSet::new();
    // Wait for the listener (unless `accept` just failed on it) or
    // shutdown.  A failed wait falls through to the caller's retry, which
    // is the shutdown check and another `accept`.
    let mut wait = |listener: Option<&TcpListener>, timeout: Option<Duration>| {
        poll.clear();
        poll.push(shared.accept_waker.fd(), true, false);
        if let Some(listener) = listener {
            poll.push(listener, true, false);
        }
        let _ = poll.wait(timeout);
    };
    while !shared.shutdown.load(Ordering::SeqCst) {
        match listener.accept() {
            Ok((stream, _)) => {
                shared.reads.connections.fetch_add(1, Ordering::Relaxed);
                // Injected connection faults (tests only —
                // `shared.faults` is `None` in production).  A drop
                // closes the socket before any request is read; a
                // stall defers the first pump without parking anything.
                let mut ready_at = None;
                if let Some(plan) = &shared.faults {
                    match plan.on_connection() {
                        ConnFault::Drop => {
                            drop(stream);
                            continue;
                        }
                        ConnFault::Stall(d) => ready_at = Some(Instant::now() + d),
                        ConnFault::None => {}
                    }
                }
                if stream.set_nonblocking(true).is_err() {
                    continue;
                }
                stream.set_nodelay(true).ok();
                let mut conn = Conn::new(stream, ready_at);
                // Round-robin; skip readers that already exited.
                for _ in 0..reader_txs.len() {
                    let reader = next % reader_txs.len();
                    next = next.wrapping_add(1);
                    match reader_txs[reader].send(conn) {
                        Ok(()) => {
                            shared.reader_wakers[reader].wake();
                            break;
                        }
                        Err(returned) => conn = returned.0,
                    }
                }
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => wait(Some(&listener), None),
            // The peer gave up while queued, or a signal landed: the
            // next connection is unaffected.
            Err(e)
                if matches!(
                    e.kind(),
                    io::ErrorKind::ConnectionAborted | io::ErrorKind::Interrupted
                ) => {}
            // Out of descriptors or memory: the pending connection keeps
            // the listener readable, so stay off it for a bounded while
            // instead of spinning on the same failure.
            Err(_) => wait(None, Some(ACCEPT_ERROR_BACKOFF)),
        }
    }
}

/// One reader-pool thread: wait until a socket, a writer's reply, a new
/// connection, shutdown or a timer needs attention, make one pass over
/// the owned connections, and wait again.  Readiness is
/// level-triggered, so whatever a pass leaves unfinished — unread bytes
/// past the per-pass bound, a reply that raced the pass — ends the next
/// wait at once; whatever needs no attention costs nothing.
fn reader_loop(shared: Arc<Shared>, rx: Receiver<Conn>, waker: Arc<Waker>) {
    let mut conns: Vec<Conn> = Vec::new();
    let mut poll = PollSet::new();
    let mut chunk = vec![0u8; READ_CHUNK];
    loop {
        if shared.shutdown.load(Ordering::SeqCst) {
            for conn in conns.drain(..) {
                conn.abandon(&shared);
            }
            return;
        }
        loop {
            match rx.try_recv() {
                Ok(conn) => conns.push(conn),
                Err(TryRecvError::Empty) => break,
                Err(TryRecvError::Disconnected) => {
                    if conns.is_empty() {
                        return;
                    }
                    break;
                }
            }
        }
        let mut i = 0;
        while i < conns.len() {
            if conns[i].pump(&shared, &waker, &mut chunk) {
                i += 1;
            } else {
                conns.swap_remove(i).abandon(&shared);
            }
        }
        poll.clear();
        let waker_slot = poll.push(waker.fd(), true, false);
        let timer = conns
            .iter_mut()
            .filter_map(|c| c.watch(&shared, &mut poll))
            .min();
        let timeout = timer.map(|at| at.saturating_duration_since(Instant::now()));
        if poll.wait(timeout).is_err() {
            // `poll` itself failing (out of kernel memory) says nothing
            // about the sockets: pump them all rather than trust stale
            // results, and try again.
            conns
                .iter_mut()
                .for_each(|conn| conn.ready = Ready::UNKNOWN);
            continue;
        }
        shared.reads.reader_wakeups.fetch_add(1, Ordering::Relaxed);
        if poll.ready(waker_slot).read {
            waker.drain();
        }
        for conn in &mut conns {
            conn.ready = match conn.poll_slot.take() {
                Some(slot) => poll.ready(slot),
                None => Ready::UNKNOWN,
            };
        }
    }
}

/// One pumped connection: the socket around its [`Session`].
struct Conn {
    stream: TcpStream,
    session: Session,
    /// One channel per command in flight, under the session's token.
    replies: Vec<(u64, Receiver<Answer>)>,
    /// Leave the connection alone until then: an injected stall (tests
    /// only), or the pause after a pipelined burst ([`PIPELINE_LINGER`]).
    ready_at: Option<Instant>,
    eof: bool,
    write_stuck_since: Option<Instant>,
    /// The earliest writer deadline the last pass reported.
    deadline: Option<Instant>,
    /// Where [`Conn::watch`] registered the socket for the coming wait
    /// (`None`: not registered — stalled by a fault plan).
    poll_slot: Option<usize>,
    /// What the last wait reported for the socket; the next pump reads
    /// only if this says a read will not block.
    ready: Ready,
}

/// A connection's view of the writer for [`Session::pass`]: its reply
/// channels, then the published snapshot.
impl Link for (&mut Vec<(u64, Receiver<Answer>)>, &Shared) {
    fn answers(&mut self) -> Vec<(u64, Answer)> {
        let mut answers = Vec::new();
        self.0.retain(|(token, rx)| {
            let answer = match rx.try_recv() {
                Ok(answer) => answer,
                Err(TryRecvError::Empty) => return true,
                // The writer is gone, or dropped the command at shutdown.
                Err(TryRecvError::Disconnected) => {
                    Answer::Refused("server is shutting down".into())
                }
            };
            answers.push((*token, answer));
            false
        });
        answers
    }

    fn snapshot(&mut self) -> Arc<Snapshot> {
        self.1.snapshot()
    }
}

impl Conn {
    fn new(stream: TcpStream, ready_at: Option<Instant>) -> Conn {
        Conn {
            stream,
            session: Session::default(),
            replies: Vec::new(),
            ready_at,
            eof: false,
            write_stuck_since: None,
            deadline: None,
            poll_slot: None,
            ready: Ready::UNKNOWN,
        }
    }

    /// Drop the connection, releasing what it holds on the in-flight gauge.
    fn abandon(self, shared: &Shared) {
        let gauge = &shared.reads.inflight_requests;
        gauge.fetch_sub(self.session.in_flight() as u64, Ordering::Relaxed);
    }

    /// Register for the coming wait exactly what the next pump would
    /// act on, and return the connection's nearest timer:
    ///
    /// * readable — unless input is over (`eof`, closing), where a
    ///   level-triggered "readable" nobody reads would spin;
    /// * writable — only while staged bytes are stuck behind a full
    ///   socket;
    /// * timers — the end of an injected stall, the earliest parked
    ///   request's writer deadline, the stuck write's timeout.
    fn watch(&mut self, shared: &Shared, poll: &mut PollSet) -> Option<Instant> {
        if self.ready_at.is_some() {
            // Stalled: deaf to the socket until the stall ends.
            return self.ready_at;
        }
        let read = !self.eof && self.session.reading();
        let write = !self.session.output().is_empty();
        self.poll_slot = Some(poll.push(&self.stream, read, write));
        let stuck_write = match self.write_stuck_since {
            Some(since) if !shared.write_timeout.is_zero() => Some(since + shared.write_timeout),
            _ => None,
        };
        self.deadline.into_iter().chain(stuck_write).min()
    }

    /// One nonblocking service pass: read, run the session's pass, send
    /// its commands to the writer, write the staged responses.  Returns
    /// whether the connection is still alive; a dead one must be handed
    /// to [`Conn::abandon`].
    fn pump(&mut self, shared: &Shared, wake: &Arc<Waker>, chunk: &mut [u8]) -> bool {
        let started = Instant::now();
        if let Some(at) = self.ready_at {
            if started < at {
                return true;
            }
            self.ready_at = None;
        }
        // Pull what the socket holds, bounded per pass so one loud
        // client cannot starve its siblings on the same reader (what
        // is left keeps the socket readable for the next wait).  A
        // short read means the socket is drained for now; asking again
        // would only buy an `EWOULDBLOCK`.
        if !self.eof && self.session.reading() && self.ready.read {
            let mut read = 0;
            loop {
                match self.stream.read(chunk) {
                    Ok(0) => {
                        self.eof = true;
                        break;
                    }
                    Ok(n) => {
                        self.session.feed(&chunk[..n]);
                        read += n;
                        if n < chunk.len() || read >= MAX_LINE {
                            break;
                        }
                    }
                    Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                    Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                    Err(_) => return false,
                }
            }
        }
        let before = self.session.in_flight() as u64;
        let pass = self
            .session
            .pass(&shared.reads, &mut (&mut self.replies, shared), started);
        for (token, command) in pass.commands {
            let (reply, rx) = Reply::channel(wake);
            shared.send(WriterCmd::Run(command, reply));
            self.replies.push((token, rx));
        }
        if pass.shutdown {
            shared.begin_shutdown();
        }
        self.deadline = pass.deadline;
        let inflight = self.session.in_flight() as u64;
        let gauge = &shared.reads.inflight_requests;
        gauge.fetch_add(inflight.wrapping_sub(before), Ordering::Relaxed);
        if self.flush(shared).is_err() {
            return false;
        }
        let input_over = self.eof || !self.session.reading();
        let drained = inflight == 0 && self.session.output().is_empty();
        if input_over && drained {
            return false;
        }
        if pass.decoded > 1 && drained {
            // From the start of this pass: a batch that took long to
            // serve (a publish emptied the response cache) has had its
            // pause already.
            self.ready_at = Some(started + PIPELINE_LINGER);
        }
        // Input is over and the socket hung up or failed: nobody is
        // left to take the responses still owed, and nothing registered
        // for the next wait would stop it reporting the hang-up again.
        !(input_over && self.ready.closed)
    }

    /// Nonblocking write of the staged response bytes, with the
    /// stalled-client bound [`ServeConfig::write_timeout`] implements.
    fn flush(&mut self, shared: &Shared) -> Result<(), ()> {
        let outbuf = self.session.output();
        let failure = loop {
            if outbuf.is_empty() {
                return Ok(());
            }
            match self.stream.write(outbuf) {
                Ok(0) => break None,
                Ok(n) => {
                    outbuf.drain(..n);
                    self.write_stuck_since = None;
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                    let now = Instant::now();
                    let since = *self.write_stuck_since.get_or_insert(now);
                    let limit = shared.write_timeout;
                    if limit.is_zero() || now.duration_since(since) < limit {
                        return Ok(());
                    }
                    break Some("stalled past the write timeout".to_string());
                }
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => break Some(format!("failed ({e})")),
            }
        };
        shared.reads.write_errors.fetch_add(1, Ordering::Relaxed);
        if let Some(why) = failure {
            eprintln!("magic-serve: client write {why}, closing connection");
        }
        Err(())
    }
}
