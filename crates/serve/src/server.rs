//! The server: a pooled, pipelined front end over one maintenance
//! writer and incrementally published copy-on-write view snapshots.
//!
//! # Concurrency model
//!
//! * **Readers never block on maintenance.**  The writer keeps one
//!   frozen [`ViewSnapshot`] per cached binding and publishes the set,
//!   with its counters, behind one immutable [`Arc`]; a connection
//!   takes that `Arc` (one brief mutex lock to clone the pointer) and
//!   reads answers out of the frozen snapshot for its key.  Every
//!   binding of one rewritten program is a magic seed of the same view
//!   (see [`magic_incr::catalog`]) and shares its one copy-on-write
//!   database clone, so a publish re-freezes **only the views the batch
//!   moved**, once each.
//!
//! * **Writes are serialized through one writer.**  The writer is a
//!   clock-free state machine (`writer.rs`) in a thin thread: the
//!   thread drains its queue in batches and runs one turn per batch —
//!   decide against the catalog's base which updates change state, log
//!   those, apply them through [`ViewCatalog::apply_all`] (one write to
//!   the one base, one fixpoint re-entry per view), then publish, then
//!   acknowledge, then run whatever duty is due — so ack-after-publish
//!   and read-your-writes hold, and the writer numbers every publish.
//!
//! * **Connections are pumped on readiness.**  An accept loop hands
//!   each connection to one of a fixed pool of reader threads
//!   ([`ServeConfig::reader_threads`]).  A reader blocks in one
//!   `poll(2)` (`ready.rs`) on its sockets, its waker and the
//!   nearest pending timer, and after every return makes one pass over
//!   its connections — read what `poll` said is readable (bounded per
//!   pass), decode *every* buffered request, dispatch, collect writer
//!   replies, write completed responses.  Nothing polls on a clock to
//!   find work: a request is picked up when its bytes arrive, a
//!   writer's reply when the writer signals it, and an idle server
//!   makes no wake-ups at all.  A client may pipeline: many requests
//!   ride one syscall, and the per-request wire round-trip that bounds
//!   a synchronous client's throughput is amortized away — a
//!   connection that does is served a window at a time
//!   (`PIPELINE_LINGER`).
//!
//! * **Two framings share the port and one request path.**  The first
//!   bytes of every connection are sniffed against [`BINARY_MAGIC`] *in
//!   full*: a `MGWP01` preamble selects the length-prefixed binary
//!   framing (request ids, batching, out-of-order responses — see
//!   [`crate::protocol`]); anything else is the line-oriented text
//!   protocol, answered strictly in request order.  Both decode to one
//!   [`Request`] and go through one dispatch (`Conn::dispatch`).
//!
//! * **Unseen bindings materialize on demand.**  A query whose adorned
//!   binding key is not yet cached is planned on the connection thread
//!   (memoized per query text) and sent to the writer, which builds the
//!   program's view if this is its first binding or else adds the
//!   binding's seed to it, publishes, and lets the connection answer
//!   from the fresh snapshot.
//!
//! * **Durability is optional.**  With [`ServeConfig::durability`] set,
//!   `OK applied` means *logged and published*, checkpoints follow the
//!   configured cadence, and startup recovers (checkpoint load,
//!   re-materialized bindings, WAL-tail replay) before the listener
//!   accepts a connection.
//!
//! * **Overload sheds, it never queues without bound.**  The writer
//!   queue carries an atomic depth gauge; at
//!   [`ServeConfig::max_queue_depth`] new updates are refused up front
//!   with `ERR BUSY <retry-after-ms> …` (definitely not applied), and
//!   every writer round-trip is bounded by
//!   [`ServeConfig::writer_deadline`] (`ERR TIMEOUT …` = outcome
//!   unknown).  Reads are never shed.
//!
//! * **Durable failures degrade the server, they don't kill it.**  A
//!   failed WAL append leaves its batch unapplied and refused with `ERR
//!   DEGRADED …`; after it or a failed checkpoint the server is
//!   read-only until a probe on capped exponential backoff (25ms → 2s)
//!   succeeds.  Reads keep serving; `STATS` reports the state.
//!
//! Every published snapshot is a program fixpoint over a prefix of the
//! applied update sequence, so responses are transactionally
//! consistent: a reader can never observe half of a batch (no torn
//! reads) — the property `tests/serve_consistency.rs` checks against a
//! from-scratch oracle, and `crates/serve/tests/durable_restart.rs`
//! extends to recovered state after a mid-stream `SIGKILL`.

use crate::protocol::{
    parse_frame, parse_request, render_ack, render_answers, render_error, sniff, status, Frame,
    Request, ServerStats, Sniff, ViewStats, BINARY_MAGIC,
};
use crate::ready::{PollSet, Ready, Waker};
use crate::writer::{Answer, Command, Event, Snapshot, Writer};
use magic_core::planner::Strategy;
use magic_datalog::{PredName, Program, Query, Value};
use magic_durable::{ConnFault, DurableConfig, DurableError, DurableStore, FaultPlan};
use magic_engine::Limits;
use magic_incr::{Update, ViewCatalog, ViewSnapshot};
use magic_storage::Database;
use std::collections::{BTreeSet, HashMap, VecDeque};
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{channel, Receiver, RecvTimeoutError, Sender, TryRecvError};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Retry hint, in milliseconds, carried by every `BUSY` shed.  A
/// constant (rather than a measured estimate) keeps the wire contract
/// simple; clients treat it as a floor for their own backoff.
const BUSY_RETRY_AFTER_MS: u64 = 100;

/// Most commands the writer drains into one step (and thus one
/// published snapshot).
const BATCH_MAX: usize = 256;

/// Upper bound on one request line; longer input is a protocol error.
const MAX_LINE: usize = 1 << 20;

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

/// Cap on distinct binding keys in the rendered-response cache; keys
/// past it simply re-render (the working set of a skewed read mix is
/// far smaller).
const RESPONSE_CACHE_MAX_KEYS: usize = 256;

/// Largest response body the cache will hold; a huge view's answer is
/// rendered per request rather than pinned in memory.
const RESPONSE_CACHE_MAX_BYTES: usize = 1 << 16;

/// Log2 buckets of the pipelining histogram (requests decoded per
/// connection pump); bucket `i` covers `2^i ..= 2^(i+1)-1`.
const BATCH_BUCKETS: usize = 16;

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

    /// Answer the request (a slot that already gave up — deadline,
    /// closed connection — has dropped its receiver; that is harmless).
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

/// A rendered response and the published version it was rendered at.
type CachedResponse = (u64, Arc<[u8]>);

/// Commands on the writer's queue: one to run, answered through its
/// reply once the snapshot it depends on is live, or stop.
enum WriterCmd {
    Run(Command, Reply<Answer>),
    Shutdown,
}

/// State shared between the accept loop, the reader pool, the writer
/// and the handle.
struct Shared {
    program: Program,
    derived: BTreeSet<PredName>,
    strategy: Strategy,
    limits: Limits,
    /// The writer's command queue.
    tx: Sender<WriterCmd>,
    /// The snapshot the writer last published: the views and everything
    /// else readers learn from the writer.
    published: Mutex<Arc<Snapshot>>,
    /// Commands currently in flight to the writer (enqueued but not yet
    /// popped).  Incremented *before* the channel send so the gauge can
    /// only over-count, never under-count — the shed check errs toward
    /// shedding at the boundary rather than letting the queue grow past
    /// its cap.
    queue_depth: AtomicU64,
    /// Updates refused with `BUSY` because the queue was at capacity.
    shed_updates: AtomicU64,
    /// Writer round-trips that exceeded the deadline.
    deadline_misses: AtomicU64,
    /// Memoized query-text → binding-key translation (one plan per
    /// distinct query text, server-wide).
    key_cache: Mutex<HashMap<String, String>>,
    /// Rendered-response cache: binding key → (published version, the
    /// full rendered response at that version).  Published snapshots
    /// are immutable, so a view's rendered answer is a pure function
    /// of `(key, version)` — the hot keys of a skewed read mix serve
    /// as one map probe and a pointer bump instead of re-collecting and
    /// re-formatting hundreds of rows per request (the one copy of the
    /// body is the one into the connection's send buffer).  Only the
    /// latest version per key is kept; any publish that moves the view
    /// changes the version and misses naturally.
    response_cache: Mutex<HashMap<String, CachedResponse>>,
    shutdown: AtomicBool,
    /// Ends the accept loop's wait; only shutdown uses it.
    accept_waker: Waker,
    /// One per reader thread, in pool order: the accept loop wakes a
    /// reader after dealing it a connection, the writer wakes it through
    /// the [`Reply`]s it handed out, shutdown wakes them all.
    reader_wakers: Vec<Arc<Waker>>,
    /// Returns from the readers' readiness wait (`STATS`
    /// `reader_wakeups`).
    reader_wakeups: AtomicU64,
    queries_served: AtomicU64,
    connections: AtomicU64,
    /// Response writes that failed (client gone mid-response); the
    /// connection is closed and the failure counted, never ignored.
    write_errors: AtomicU64,
    /// Decoded requests not yet answered, across every connection —
    /// the pipelining depth the server is actually holding.
    inflight_requests: AtomicU64,
    /// Log2 histogram of requests decoded per connection pump; the
    /// observed batch size the pipelined protocol achieves.
    batch_hist: [AtomicU64; BATCH_BUCKETS],
    write_timeout: Duration,
    /// Overload knobs (see [`ServeConfig`]).
    max_queue_depth: usize,
    writer_deadline: Duration,
    /// Shared fault plan for the accept loop's connection faults.
    faults: Option<Arc<FaultPlan>>,
}

impl Shared {
    fn snapshot(&self) -> Arc<Snapshot> {
        self.published.lock().expect("publish lock").clone()
    }

    /// Queue a client command for the writer, counted against the depth
    /// gauge until the writer pops it; `false` once the writer is gone.
    fn send(&self, cmd: WriterCmd) -> bool {
        self.queue_depth.fetch_add(1, Ordering::Relaxed);
        let sent = self.tx.send(cmd).is_ok();
        if !sent {
            self.queue_depth.fetch_sub(1, Ordering::Relaxed);
        }
        sent
    }

    /// The cached rendered response for `(key, version)`, if the cache
    /// holds exactly that version.
    fn cached_response(&self, key: &str, version: u64) -> Option<Arc<[u8]>> {
        let cache = self.response_cache.lock().expect("response cache lock");
        match cache.get(key) {
            Some((v, body)) if *v == version => Some(Arc::clone(body)),
            _ => None,
        }
    }

    /// Remember the rendered response for `(key, version)`, bounded in
    /// both key count and body size — an oversized answer or an
    /// overflowing key population degrades to per-request rendering,
    /// never to unbounded memory.
    fn cache_response(&self, key: &str, version: u64, body: &Arc<[u8]>) {
        if body.len() > RESPONSE_CACHE_MAX_BYTES {
            return;
        }
        let mut cache = self.response_cache.lock().expect("response cache lock");
        if cache.len() >= RESPONSE_CACHE_MAX_KEYS && !cache.contains_key(key) {
            return;
        }
        cache.insert(key.to_string(), (version, Arc::clone(body)));
    }

    /// The rendered `QUERY` response for `key` out of `snapshot`: the
    /// cached bytes if this version's are held, else rendered now and
    /// remembered.
    fn render_view(&self, key: &str, version: u64, view: &ViewSnapshot) -> Arc<[u8]> {
        self.queries_served.fetch_add(1, Ordering::Relaxed);
        if let Some(body) = self.cached_response(key, version) {
            return body;
        }
        let rows: Vec<Vec<Value>> = view.answers().into_iter().collect();
        let body: Arc<[u8]> = render_answers(key, version, &rows).into_bytes().into();
        self.cache_response(key, version, &body);
        body
    }

    /// The binding key `key_cache` memoizes: what the writer's catalog
    /// computes, by planning alone (an empty catalog is two empty maps).
    fn binding_key(&self, query: &Query) -> Result<String, String> {
        ViewCatalog::new(self.strategy)
            .with_limits(self.limits)
            .binding_key(&self.program, query)
            .map_err(|e| e.to_string())
    }

    fn record_batch(&self, decoded: usize) {
        let bucket = (usize::BITS - 1)
            .saturating_sub(decoded.leading_zeros())
            .min(BATCH_BUCKETS as u32 - 1) as usize;
        self.batch_hist[bucket].fetch_add(1, Ordering::Relaxed);
    }

    /// Median of the batch-size histogram, reported as its bucket's
    /// lower bound (1, 2, 4, …); 0 before any request was decoded.
    fn batch_p50(&self) -> u64 {
        let counts: Vec<u64> = self
            .batch_hist
            .iter()
            .map(|c| c.load(Ordering::Relaxed))
            .collect();
        let total: u64 = counts.iter().sum();
        if total == 0 {
            return 0;
        }
        let half = total.div_ceil(2);
        let mut seen = 0u64;
        for (bucket, count) in counts.iter().enumerate() {
            seen += count;
            if seen >= half {
                return 1u64 << bucket;
            }
        }
        0
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
            derived: program.derived_preds(),
            program,
            strategy: config.strategy,
            limits: config.limits,
            tx,
            published: Mutex::new(Arc::new(Snapshot::default())),
            queue_depth: AtomicU64::new(0),
            shed_updates: AtomicU64::new(0),
            deadline_misses: AtomicU64::new(0),
            key_cache: Mutex::new(HashMap::new()),
            response_cache: Mutex::new(HashMap::new()),
            shutdown: AtomicBool::new(false),
            accept_waker: Waker::new()?,
            reader_wakers,
            reader_wakeups: AtomicU64::new(0),
            queries_served: AtomicU64::new(0),
            connections: AtomicU64::new(0),
            write_errors: AtomicU64::new(0),
            inflight_requests: AtomicU64::new(0),
            batch_hist: std::array::from_fn(|_| AtomicU64::new(0)),
            write_timeout: config.write_timeout,
            max_queue_depth: config.max_queue_depth,
            writer_deadline: config.writer_deadline,
            faults,
        });

        let (started, started_rx) = channel();
        let writer_shared = Arc::clone(&shared);
        let writer_thread = std::thread::Builder::new()
            .name("magic-serve-writer".into())
            .spawn(move || {
                let program = writer_shared.program.clone();
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
            let (tx, rx) = channel::<NewConn>();
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
        self.shared.queries_served.load(Ordering::Relaxed)
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
                    shared.queue_depth.fetch_sub(1, Ordering::Relaxed);
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

/// A connection on its way from the accept loop to a reader thread.
struct NewConn {
    stream: TcpStream,
    /// Injected connection stall (tests only): the reader leaves the
    /// connection alone until this instant, without parking the thread.
    ready_at: Option<Instant>,
}

/// Accept connections and deal them round-robin to the reader pool,
/// waking the reader each lands on.  Blocks on the listener and the
/// accept waker; shutdown is the only thing that wakes the latter.
fn accept_loop(listener: TcpListener, shared: Arc<Shared>, reader_txs: Vec<Sender<NewConn>>) {
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
                shared.connections.fetch_add(1, Ordering::Relaxed);
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
                let mut conn = NewConn { stream, ready_at };
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
fn reader_loop(shared: Arc<Shared>, rx: Receiver<NewConn>, waker: Arc<Waker>) {
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
                Ok(new) => conns.push(Conn::new(new)),
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
        let mut timer: Option<Instant> = None;
        for conn in &mut conns {
            if let Some(at) = conn.watch(&shared, &mut poll) {
                timer = Some(timer.map_or(at, |t| t.min(at)));
            }
        }
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
        shared.reader_wakeups.fetch_add(1, Ordering::Relaxed);
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

/// Wire protocol of one pumped connection, decided by the first bytes.
enum ConnMode {
    /// Nothing (or only a proper prefix of the magic) received yet.
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

/// Lifecycle of a request: either its response bytes are ready, or it
/// is parked on a writer reply channel whose [`Reply`] wakes the owning
/// reader.
enum SlotState {
    /// Response bytes in text-protocol form, ready to stage — shared
    /// with the response cache on a hit, never copied before the send
    /// buffer.
    Ready(Arc<[u8]>),
    /// A command in flight to the writer: an update, or a first-sight
    /// query waiting for its view to materialize (with its attempt
    /// number).
    Await {
        rx: Receiver<Answer>,
        deadline: Option<Instant>,
        query: Option<(Query, u32)>,
    },
}

/// One pumped connection: buffers, mode, and the in-flight request
/// window.
struct Conn {
    stream: TcpStream,
    mode: ConnMode,
    inbuf: Vec<u8>,
    outbuf: Vec<u8>,
    pending: VecDeque<Slot>,
    /// Leave the connection alone until then: an injected stall, or the
    /// pause after a pipelined burst ([`PIPELINE_LINGER`]).
    ready_at: Option<Instant>,
    eof: bool,
    /// `QUIT`/`SHUTDOWN` seen: stop decoding, flush, then close.
    closing: bool,
    write_stuck_since: Option<Instant>,
    /// Where [`Conn::watch`] registered the socket for the coming wait
    /// (`None`: not registered — stalled by a fault plan).
    poll_slot: Option<usize>,
    /// What the last wait reported for the socket; the next pump reads
    /// only if this says a read will not block.
    ready: Ready,
}

impl Conn {
    fn new(new: NewConn) -> Conn {
        Conn {
            stream: new.stream,
            mode: ConnMode::Unknown,
            inbuf: Vec::new(),
            outbuf: Vec::new(),
            pending: VecDeque::new(),
            ready_at: new.ready_at,
            eof: false,
            closing: false,
            write_stuck_since: None,
            poll_slot: None,
            ready: Ready::UNKNOWN,
        }
    }

    /// Drop the connection, releasing whatever it still holds against
    /// the in-flight gauge.
    fn abandon(self, shared: &Shared) {
        shared
            .inflight_requests
            .fetch_sub(self.pending.len() as u64, Ordering::Relaxed);
    }

    /// Register for the coming wait exactly what the next pump would
    /// act on, and return the connection's nearest timer:
    ///
    /// * readable — unless input is over (`eof`, `closing`), where a
    ///   level-triggered "readable" nobody reads would spin;
    /// * writable — only while staged bytes are stuck behind a full
    ///   socket;
    /// * timers — the end of an injected stall, the earliest parked
    ///   slot's writer deadline, the stuck write's timeout.
    fn watch(&mut self, shared: &Shared, poll: &mut PollSet) -> Option<Instant> {
        if self.ready_at.is_some() {
            // Stalled: deaf to the socket until the stall ends.
            return self.ready_at;
        }
        let read = !self.eof && !self.closing;
        let write = !self.outbuf.is_empty();
        self.poll_slot = Some(poll.push(&self.stream, read, write));
        let stuck_write = match self.write_stuck_since {
            Some(since) if !shared.write_timeout.is_zero() => Some(since + shared.write_timeout),
            _ => None,
        };
        self.pending
            .iter()
            .filter_map(|slot| match slot.state {
                SlotState::Ready(_) => None,
                SlotState::Await { deadline, .. } => deadline,
            })
            .chain(stuck_write)
            .min()
    }

    /// One nonblocking service pass: read, decode, dispatch, collect
    /// writer replies, stage and write responses.  Returns whether the
    /// connection is still alive; a dead one must be handed to
    /// [`Conn::abandon`].
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
        if !self.eof && !self.closing && self.ready.read {
            loop {
                match self.stream.read(chunk) {
                    Ok(0) => {
                        self.eof = true;
                        break;
                    }
                    Ok(n) => {
                        self.inbuf.extend_from_slice(&chunk[..n]);
                        if n < chunk.len() || self.inbuf.len() >= MAX_LINE {
                            break;
                        }
                    }
                    Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                    Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                    Err(_) => return false,
                }
            }
        }
        // Requests are decoded in place behind a cursor; the consumed
        // prefix leaves the buffer once, after the loop.
        let mut consumed = 0usize;
        // Protocol sniff: match the *full* binary magic (never a
        // first-byte heuristic — `M` is printable) before committing.
        if matches!(self.mode, ConnMode::Unknown) && !self.inbuf.is_empty() {
            match sniff(&self.inbuf) {
                Sniff::Binary => {
                    consumed = BINARY_MAGIC.len();
                    self.mode = ConnMode::Binary;
                }
                Sniff::Text => self.mode = ConnMode::Text,
                Sniff::Undecided => {
                    if self.eof {
                        return false;
                    }
                }
            }
        }
        // Decode and dispatch every complete request in the buffer —
        // this is the batching that amortizes the wire round-trip.
        let inbuf = std::mem::take(&mut self.inbuf);
        let mut decoded = 0usize;
        match self.mode {
            ConnMode::Text => {
                while !self.closing {
                    let rest = &inbuf[consumed..];
                    let Some(end) = rest.iter().position(|&b| b == b'\n') else {
                        if rest.len() > MAX_LINE {
                            return false;
                        }
                        break;
                    };
                    consumed += end + 1;
                    let line = &rest[..end];
                    let line = String::from_utf8_lossy(line.strip_suffix(b"\r").unwrap_or(line));
                    if line.trim().is_empty() {
                        continue;
                    }
                    decoded += 1;
                    self.dispatch(shared, wake, 0, parse_request(&line));
                }
            }
            ConnMode::Binary => loop {
                match Frame::decode(&inbuf[consumed..]) {
                    Ok(Some((frame, used))) => {
                        consumed += used;
                        decoded += 1;
                        let request = parse_frame(frame.tag, &frame.body);
                        self.dispatch(shared, wake, frame.req_id, request);
                    }
                    Ok(None) => break,
                    // Framing is beyond resync; nothing correlatable
                    // can be sent back.
                    Err(_) => return false,
                }
            },
            ConnMode::Unknown => {}
        }
        self.inbuf = inbuf;
        self.inbuf.drain(..consumed);
        if decoded > 0 {
            shared.record_batch(decoded);
        }
        // Advance parked requests.
        for slot in self.pending.iter_mut() {
            poll_slot(shared, wake, slot);
        }
        // Stage completed responses: text strictly in request order,
        // binary in completion order (each framed with its id).
        match self.mode {
            ConnMode::Binary => {
                let outbuf = &mut self.outbuf;
                let mut staged = 0u64;
                self.pending.retain_mut(|slot| {
                    if let SlotState::Ready(bytes) = &slot.state {
                        stage_frame(slot.req_id, bytes, outbuf);
                        staged += 1;
                        false
                    } else {
                        true
                    }
                });
                shared
                    .inflight_requests
                    .fetch_sub(staged, Ordering::Relaxed);
            }
            _ => {
                while let Some(Slot {
                    state: SlotState::Ready(bytes),
                    ..
                }) = self.pending.front()
                {
                    self.outbuf.extend_from_slice(bytes);
                    self.pending.pop_front();
                    shared.inflight_requests.fetch_sub(1, Ordering::Relaxed);
                }
            }
        }
        if !self.outbuf.is_empty() && self.flush(shared).is_err() {
            return false;
        }
        let input_over = self.closing || self.eof;
        let drained = self.pending.is_empty() && self.outbuf.is_empty();
        if input_over && drained {
            return false;
        }
        if decoded > 1 && drained {
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
        while !self.outbuf.is_empty() {
            match self.stream.write(&self.outbuf) {
                Ok(0) => {
                    shared.write_errors.fetch_add(1, Ordering::Relaxed);
                    return Err(());
                }
                Ok(n) => {
                    self.outbuf.drain(..n);
                    self.write_stuck_since = None;
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                    let now = Instant::now();
                    let since = *self.write_stuck_since.get_or_insert(now);
                    if !shared.write_timeout.is_zero()
                        && now.duration_since(since) >= shared.write_timeout
                    {
                        shared.write_errors.fetch_add(1, Ordering::Relaxed);
                        eprintln!(
                            "magic-serve: client write stalled past the write \
                             timeout, closing connection"
                        );
                        return Err(());
                    }
                    break;
                }
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => {
                    shared.write_errors.fetch_add(1, Ordering::Relaxed);
                    eprintln!("magic-serve: client write failed, closing connection: {e}");
                    return Err(());
                }
            }
        }
        Ok(())
    }

    /// Dispatch one decoded request — from a text line or a binary
    /// frame (`req_id` is 0 and unused in text mode) — into a slot; a
    /// request that did not decode is answered with its `ERR`.
    fn dispatch(
        &mut self,
        shared: &Shared,
        wake: &Arc<Waker>,
        req_id: u64,
        request: Result<Request, String>,
    ) {
        let state = match request {
            Err(e) => ready_err(&e),
            Ok(Request::Ping) => ready(b"OK pong\n"),
            Ok(Request::Quit) => {
                self.closing = true;
                ready(b"OK bye\n")
            }
            Ok(Request::Shutdown) => {
                self.closing = true;
                shared.begin_shutdown();
                ready(b"OK bye\n")
            }
            Ok(Request::Query(query)) => start_query(shared, wake, query),
            Ok(Request::Insert(fact)) => start_update(shared, wake, Update::Insert(fact)),
            Ok(Request::Retract(fact)) => start_update(shared, wake, Update::Retract(fact)),
            Ok(Request::Stats) => ready(gather_stats(shared).render().as_bytes()),
        };
        shared.inflight_requests.fetch_add(1, Ordering::Relaxed);
        self.pending.push_back(Slot { req_id, state });
    }
}

/// Stage finished response bytes (text-protocol form) as a binary
/// response frame for `req_id`, straight into the send buffer.
fn stage_frame(req_id: u64, bytes: &[u8], outbuf: &mut Vec<u8>) {
    let (tag, body) = match bytes.strip_prefix(b"ERR ") {
        Some(msg) => (status::ERR, msg.strip_suffix(b"\n").unwrap_or(msg)),
        None => (status::OK, bytes),
    };
    Frame::encode_into(req_id, tag, body, outbuf);
}

fn ready(response: &[u8]) -> SlotState {
    SlotState::Ready(response.into())
}

fn ready_err(message: &str) -> SlotState {
    ready(render_error(message).as_bytes())
}

/// The read path: translate the query to its binding key (planned on
/// this thread, memoized per query text), answer from the published
/// snapshot, materializing through the writer only on first sight of a
/// binding.
fn start_query(shared: &Shared, wake: &Arc<Waker>, query: Query) -> SlotState {
    let text = query.atom.to_string();
    let cached = shared
        .key_cache
        .lock()
        .expect("key cache lock")
        .get(&text)
        .cloned();
    let key = match cached {
        Some(key) => Some(key),
        None => match shared.binding_key(&query) {
            Ok(key) => {
                shared
                    .key_cache
                    .lock()
                    .expect("key cache lock")
                    .insert(text, key.clone());
                Some(key)
            }
            // A query that does not plan is routed through the writer
            // below so the refusal carries the catalog's canonical
            // message.
            Err(_) => None,
        },
    };
    if let Some(key) = &key {
        let snapshot = shared.snapshot();
        if let Some(view) = snapshot.views.get(key) {
            return SlotState::Ready(shared.render_view(key, snapshot.version, view));
        }
        // Key known but the view is not in this snapshot: first sight,
        // an eviction (failed maintenance), or a raced materialization.
        // The writer's materialize path is idempotent for live bindings
        // and rebuilds evicted ones.
    }
    let command = Command::Materialize(query.clone());
    issue(shared, wake, command, Some((query, 1)))
}

/// Queue `command` for the writer and park the slot on its reply.  A
/// query's materialize is attempt `attempts` of 3: materialize-then-read
/// can race an eviction, and each retry rebuilds from the current base.
fn issue(
    shared: &Shared,
    wake: &Arc<Waker>,
    command: Command,
    query: Option<(Query, u32)>,
) -> SlotState {
    let (reply, rx) = Reply::channel(wake);
    if !shared.send(WriterCmd::Run(command, reply)) {
        return ready_err("server is shutting down");
    }
    SlotState::Await {
        rx,
        deadline: (!shared.writer_deadline.is_zero())
            .then(|| Instant::now() + shared.writer_deadline),
        query,
    }
}

/// The write path: validate against the source program, shed if the
/// server is degraded or the writer queue is at capacity, otherwise
/// enqueue to the writer; the slot then waits (bounded by the writer
/// deadline) until the containing snapshot is published.
///
/// The three structured refusals a client can see here, and what they
/// promise:
/// * `ERR DEGRADED …` — not applied, and retrying now will not help;
///   wait for the server to recover (poll `STATS degraded`).
/// * `ERR BUSY <retry-after-ms> …` — not applied; retry after the
///   hinted backoff.
/// * `ERR TIMEOUT …` — outcome *unknown*: the command is still queued
///   and may apply later.  Only idempotent retries are safe.
fn start_update(shared: &Shared, wake: &Arc<Waker>, update: Update) -> SlotState {
    let fact = update.fact();
    if shared.derived.contains(&fact.pred) {
        return ready_err(&format!(
            "{} is derived by the program; derived predicates are maintained, not edited",
            fact.pred
        ));
    }
    if shared.snapshot().counters.degraded {
        return ready_err(
            "DEGRADED read-only: the durable path is failing; updates are \
             refused while a background probe retries it",
        );
    }
    if shared.max_queue_depth > 0
        && shared.queue_depth.load(Ordering::Relaxed) >= shared.max_queue_depth as u64
    {
        shared.shed_updates.fetch_add(1, Ordering::Relaxed);
        return ready_err(&format!(
            "BUSY {BUSY_RETRY_AFTER_MS} writer queue is at capacity ({}); \
             retry after the hinted backoff",
            shared.max_queue_depth
        ));
    }
    issue(shared, wake, Command::Update(update), None)
}

/// Advance one parked slot if its writer answered or its deadline
/// passed.  On expiry the command is *not* revoked — it stays queued and
/// may apply later — so the `TIMEOUT` refusal says so, and the writer's
/// eventual reply lands on a disconnected channel (harmless).
fn poll_slot(shared: &Shared, wake: &Arc<Waker>, slot: &mut Slot) {
    let SlotState::Await {
        rx,
        deadline,
        query,
    } = &mut slot.state
    else {
        return;
    };
    let next = match rx.try_recv() {
        Ok(Answer::Applied { changed, version }) => ready(render_ack(changed, version).as_bytes()),
        Ok(Answer::Materialized(key)) => {
            let (query, attempts) = query.take().expect("only a query is answered with a view");
            shared
                .key_cache
                .lock()
                .expect("key cache lock")
                .insert(query.atom.to_string(), key.clone());
            let snapshot = shared.snapshot();
            if let Some(view) = snapshot.views.get(&key) {
                SlotState::Ready(shared.render_view(&key, snapshot.version, view))
            } else if attempts < 3 {
                let command = Command::Materialize(query.clone());
                issue(shared, wake, command, Some((query, attempts + 1)))
            } else {
                ready_err(&format!(
                    "view for {} was repeatedly evicted while answering; its \
                     maintenance is failing",
                    query.atom
                ))
            }
        }
        Ok(Answer::Refused(e)) => ready_err(&e),
        Err(TryRecvError::Disconnected) => ready_err("server is shutting down"),
        Err(TryRecvError::Empty) if deadline.is_some_and(|at| Instant::now() >= at) => {
            shared.deadline_misses.fetch_add(1, Ordering::Relaxed);
            ready_err(&format!(
                "TIMEOUT writer did not respond within {}ms; the command is \
                 still queued and may yet apply",
                shared.writer_deadline.as_millis()
            ))
        }
        Err(TryRecvError::Empty) => return,
    };
    slot.state = next;
}

/// Assemble the `STATS` response from the shared counters and the
/// published snapshot.
fn gather_stats(shared: &Shared) -> ServerStats {
    let snapshot = shared.snapshot();
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
        queries_served: shared.queries_served.load(Ordering::Relaxed),
        updates_applied: counters.updates_applied,
        connections: shared.connections.load(Ordering::Relaxed),
        views_evicted: counters.views_evicted,
        iterations: totals.iterations as u64,
        rule_firings: totals.rule_firings as u64,
        facts_derived: totals.facts_derived as u64,
        duplicate_derivations: totals.duplicate_derivations as u64,
        join_probes: totals.join_probes as u64,
        wal_bytes: counters.wal_bytes,
        last_checkpoint: counters.last_checkpoint_seq,
        write_errors: shared.write_errors.load(Ordering::Relaxed),
        queue_depth: shared.queue_depth.load(Ordering::Relaxed),
        shed_updates: shared.shed_updates.load(Ordering::Relaxed),
        deadline_misses: shared.deadline_misses.load(Ordering::Relaxed),
        degraded: u64::from(counters.degraded),
        degraded_entered: counters.degraded_entered,
        inflight_requests: shared.inflight_requests.load(Ordering::Relaxed),
        batch_size_p50: shared.batch_p50(),
        recompute_views: snapshot.recompute_views,
        reader_wakeups: shared.reader_wakeups.load(Ordering::Relaxed),
        per_view,
    }
}
