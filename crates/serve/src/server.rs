//! The server: a pooled, pipelined front end over sharded maintenance
//! writers and incrementally published copy-on-write view snapshots.
//!
//! # Concurrency model
//!
//! * **Readers never block on maintenance.**  Each writer shard keeps
//!   one frozen [`ViewSnapshot`] per cached binding it owns and
//!   publishes the set behind an immutable [`Arc`] after every applied
//!   batch; a connection answering a query takes the owning shard's
//!   published `Arc` (one brief mutex lock to clone the pointer, never
//!   held across any evaluation) and reads answers out of the frozen
//!   snapshot for its key.  Every binding of one rewritten program is
//!   a magic seed of the same maintained view (see
//!   [`magic_incr::catalog`]), and its snapshot shares that view's one
//!   copy-on-write database clone (pure pointer bumps — see
//!   [`magic_storage::cow_clones`]), so a publish re-freezes **only
//!   the views the batch moved**, once each, not the catalog.
//!
//! * **Writes are partitioned, then serialized.**  Base relations are
//!   hash-partitioned across [`ServeConfig::writer_shards`] writer
//!   threads; every update to a predicate is routed to its *home*
//!   shard, which drains its queue in batches (one fixpoint re-entry
//!   per view per batch via [`ViewCatalog::apply_all`], however many
//!   bindings read the view), appends the
//!   batch to **its own** write-ahead log, applies it to its replica
//!   of the base database, maintains the views it owns and publishes.
//!   With more than one shard the home then fans the batch out to its
//!   peers as replication commands (each shard keeps a full base
//!   replica so any shard can materialize any view); a per-batch
//!   barrier delivers the client acknowledgments only once **every**
//!   shard has published the batch, so ack-after-publish and
//!   read-your-writes hold across the whole partition.  Order is safe:
//!   all updates to one predicate serialize through its home shard and
//!   replicate in that order (per-sender FIFO channels), and updates
//!   to different predicates commute — a view's state is a function of
//!   the base state alone.
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
//!   (memoized per query text) and routed to the shard that owns the
//!   key, which builds the program's view if this is its first binding
//!   or else adds the binding's seed to it, publishes, and lets the
//!   connection answer from the fresh snapshot.
//!
//! * **Durability is optional and shard-owned.**  With
//!   [`ServeConfig::durability`] set, each shard logs its home
//!   predicates to its own WAL *before* publishing (`OK applied`
//!   means *logged and published*) and checkpoints its partition on
//!   the configured cadence.  Startup recovers per shard — checkpoint
//!   load, WAL-tail replay — then merges the disjoint partitions and
//!   re-materializes each shard's exported bindings over the merged
//!   base (the first binding of a program builds its view, the rest
//!   add a seed).  A store remembers its shard count (`shards.meta`) and
//!   refuses to reopen at a different one.
//!
//! * **Overload sheds, it never queues without bound.**  Each shard
//!   queue carries an atomic depth gauge; at
//!   [`ServeConfig::max_queue_depth`] new updates are refused up front
//!   with `ERR BUSY <retry-after-ms> …` (definitely not applied), and
//!   every writer round-trip is bounded by
//!   [`ServeConfig::writer_deadline`] (`ERR TIMEOUT …` = outcome
//!   unknown).  Reads are never shed.  Replication commands are
//!   neither counted nor shed — they are the writers' own traffic.
//!
//! * **Durable failures degrade the shard, they don't kill the
//!   server.**  When a shard's WAL append or checkpoint fails, that
//!   shard rolls the un-logged batch back, refuses its acks with `ERR
//!   DEGRADED …`, skips replication (its peers never see the rolled-
//!   back batch), and flips read-only while a background probe retries
//!   on capped exponential backoff (25ms → 2s).  Healthy shards keep
//!   accepting writes for their own predicates.  `STATS` reports both
//!   the aggregate and a per-shard breakdown.
//!
//! Every published shard snapshot is a program fixpoint over a prefix
//! of the applied update sequence for that shard's views, so responses
//! are transactionally consistent: a reader can never observe half of
//! a batch (no torn reads) — the property `tests/serve_consistency.rs`
//! checks against a from-scratch oracle, and
//! `crates/serve/tests/durable_restart.rs` extends to recovered state
//! after a mid-stream `SIGKILL`.

use crate::protocol::{
    parse_frame, parse_request, render_ack, render_answers, render_error, sniff, status, Frame,
    Request, ServerStats, ShardStats, Sniff, ViewStats, BINARY_MAGIC,
};
use crate::ready::{PollSet, Ready, Waker};
use magic_core::planner::Strategy;
use magic_datalog::{parse_query, PredName, Program, Query, Value};
use magic_durable::{
    verify_shard_layout, ConnFault, DurableConfig, DurableError, DurableStore, FaultPlan,
};
use magic_engine::{EvalStats, Limits};
use magic_incr::{Update, ViewCatalog, ViewSnapshot};
use magic_storage::Database;
use std::collections::{BTreeMap, BTreeSet, HashMap, VecDeque};
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc::{channel, Receiver, RecvTimeoutError, Sender, TryRecvError};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Retry hint, in milliseconds, carried by every `BUSY` shed.  A
/// constant (rather than a measured estimate) keeps the wire contract
/// simple; clients treat it as a floor for their own backoff.
const BUSY_RETRY_AFTER_MS: u64 = 100;

/// First retry delay after entering degraded mode; doubles per failed
/// probe up to [`PROBE_BACKOFF_MAX`].
const PROBE_BACKOFF_MIN: Duration = Duration::from_millis(25);

/// Cap on the degraded-mode probe backoff: even a long outage is
/// re-checked at least every couple of seconds.
const PROBE_BACKOFF_MAX: Duration = Duration::from_secs(2);

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
    /// Maximum updates coalesced into one maintenance batch (and thus one
    /// published snapshot).
    pub batch_max: usize,
    /// Cap on cached views per writer shard (0 = unbounded): past it,
    /// the shard's catalog evicts the least-recently-queried binding,
    /// which then re-materializes on next sight.  See
    /// [`ViewCatalog::with_max_views`].
    pub max_views: usize,
    /// Idle lifetime of cached views (zero = no TTL): a binding no
    /// query has touched for this long is evicted by its shard's
    /// maintenance tick and re-materializes on next sight.  Composes
    /// with `max_views` — TTL bounds staleness in *time*, the cap in
    /// *count*.  See [`ViewCatalog::with_view_ttl`].
    pub view_ttl: Duration,
    /// Crash safety (off by default): when set, each writer shard
    /// appends every acked batch of its home predicates to its own
    /// write-ahead log in this store directory and checkpoints its
    /// partition on the configured cadence; [`Server::start`] recovers
    /// prior state from that directory before accepting connections.
    /// The directory records its shard count and refuses to reopen at
    /// a different [`ServeConfig::writer_shards`].
    pub durability: Option<DurableConfig>,
    /// Overload bound on each shard's writer queue (0 = unbounded).
    /// When the number of in-flight commands for a shard reaches this
    /// cap, new updates routed to it are *shed* before they enqueue:
    /// the client gets an `ERR BUSY <retry-after-ms> …` line and the
    /// fact is never applied or logged.  Reads are never shed — they
    /// keep serving from the published snapshots.
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
    /// Number of writer shards the base relations are hash-partitioned
    /// across (0 or 1 = the classic single-writer layout, byte-for-byte
    /// compatible with earlier stores).  More shards parallelize WAL
    /// appends and view maintenance across predicates; updates to one
    /// predicate always serialize through one shard.
    pub writer_shards: usize,
    /// Size of the connection reader pool (0 = auto: the machine's
    /// available parallelism, clamped to 2..=8).  Each reader serves
    /// many connections from one readiness wait; the pool replaces
    /// thread-per-connection.
    pub reader_threads: usize,
    /// Deterministic fault injection (testing only; `None` in
    /// production).  When unset, the `MAGIC_FAULTS` environment
    /// variable is consulted at startup — see
    /// [`magic_durable::faults`].  The plan is shared between every
    /// shard's durable store (fsync/append/rename faults) and the
    /// accept loop (connection stall/drop faults).
    pub faults: Option<Arc<FaultPlan>>,
}

impl Default for ServeConfig {
    fn default() -> ServeConfig {
        ServeConfig {
            strategy: Strategy::MagicSets,
            limits: Limits::default(),
            batch_max: 256,
            max_views: 0,
            view_ttl: Duration::ZERO,
            durability: None,
            max_queue_depth: 1024,
            writer_deadline: Duration::from_secs(30),
            write_timeout: Duration::from_secs(5),
            writer_shards: 1,
            reader_threads: 0,
            faults: None,
        }
    }
}

/// FNV-1a — the workspace is dependency-free, and the partition only
/// needs a stable, well-mixed hash of short names.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        hash ^= b as u64;
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// The home shard of a predicate or binding-key name.
fn shard_of(name: &str, shards: usize) -> usize {
    if shards <= 1 {
        0
    } else {
        (fnv1a(name.as_bytes()) % shards as u64) as usize
    }
}

/// `db` restricted to the predicates homed on `shard` — what that
/// shard's checkpoint persists (all of `db` at one shard).  Relations
/// are copy-on-write, so the projection clones pointers, not tuples.
fn project_home(db: &Database, shard: usize, shards: usize) -> Database {
    let mut out = Database::new();
    for (pred, rel) in db.iter() {
        if shard_of(&pred.to_string(), shards) == shard {
            out.insert_relation(pred.clone(), rel.clone());
        }
    }
    out
}

/// Checkpoint one shard's partition: its home base relations and the
/// bindings its catalog exports.
fn checkpoint_shard(
    store: &mut DurableStore,
    base_db: &Database,
    catalog: &ViewCatalog,
    shard: usize,
    shards: usize,
) -> Result<(), DurableError> {
    store.checkpoint(
        &project_home(base_db, shard, shards),
        &catalog.export_bindings(),
    )
}

/// An immutable published state: one frozen [`ViewSnapshot`] per cached
/// binding a shard owns, at one version.  Unchanged entries share their
/// `Arc` with the previous snapshot — republishing is O(changed bindings)
/// — and every binding of one view shares that view's frozen database.
#[derive(Default)]
struct Snapshot {
    version: u64,
    views: BTreeMap<String, Arc<ViewSnapshot>>,
    /// The shard catalog's maintained fixpoints at this publish, how many
    /// of them recompute on update, and their summed metrics: a view many
    /// bindings read is counted once.
    materialized: u64,
    recompute_views: u64,
    totals: EvalStats,
}

/// The writer's half of publishing: the frozen per-binding snapshots its
/// shard last handed to readers, kept in step with the shard's catalog.
struct Publisher<'a> {
    shared: &'a Shared,
    me: &'a ShardState,
    published: BTreeMap<String, Arc<ViewSnapshot>>,
}

impl Publisher<'_> {
    /// Re-freeze the bindings a catalog operation reported `changed` (all
    /// bindings of one view get the same copy-on-write clone) and drop the
    /// ones the catalog no longer holds, whichever way it lost them —
    /// failed maintenance, TTL, the `max_views` cap; they re-materialize
    /// on next sight.  Entries of untouched bindings keep their `Arc`.
    /// Returns whether anything differed.
    fn refresh(&mut self, catalog: &ViewCatalog, changed: &[String]) -> bool {
        let before = self.published.len();
        self.published.retain(|key, _| catalog.contains(key));
        let dropped = before - self.published.len();
        self.shared
            .views_evicted
            .fetch_add(dropped as u64, Ordering::Relaxed);
        for key in changed {
            if let Some(snap) = catalog.snapshot_view(key) {
                self.published.insert(key.clone(), Arc::new(snap));
            }
        }
        dropped > 0 || !changed.is_empty()
    }

    /// Hand readers the current map (one `Arc` bump per binding) as
    /// `version`.
    fn publish(&self, catalog: &ViewCatalog, version: u64) {
        self.me.publish(Snapshot {
            version,
            views: self.published.clone(),
            materialized: catalog.materialized() as u64,
            recompute_views: catalog.recompute_views() as u64,
            totals: catalog.aggregate_stats(),
        });
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
/// Outcome of an update: Ok((state-changed, published version)) or the
/// rejection message.
type UpdateResult = Result<(bool, u64), String>;
/// Outcome of a materialization: the binding key, or why not.
type MaterializeResult = Result<String, String>;
/// An update acknowledgment channel.
type UpdateReply = Reply<UpdateResult>;

/// Completion barrier for one cross-shard update batch: the home shard
/// arms it with the client acks after logging and publishing locally,
/// every peer shard arrives once it has applied and published the
/// replicated batch, and the *last* arrival delivers the acks — so `OK
/// applied <v>` still means "visible on every shard".
struct BatchBarrier {
    remaining: AtomicUsize,
    max_version: AtomicU64,
    acks: Mutex<Vec<(UpdateReply, bool)>>,
}

impl BatchBarrier {
    fn new(peers: usize, home_version: u64, acks: Vec<(UpdateReply, bool)>) -> BatchBarrier {
        BatchBarrier {
            remaining: AtomicUsize::new(peers),
            max_version: AtomicU64::new(home_version),
            acks: Mutex::new(acks),
        }
    }

    /// One shard finished the batch at `version` (0 = it had nothing
    /// to publish).  The final arrival acks every client with the
    /// highest version any shard published the batch at.
    fn arrive(&self, version: u64) {
        self.max_version.fetch_max(version, Ordering::AcqRel);
        if self.remaining.fetch_sub(1, Ordering::AcqRel) == 1 {
            let version = self.max_version.load(Ordering::Acquire);
            let acks = std::mem::take(&mut *self.acks.lock().expect("barrier acks lock"));
            for (reply, applied) in acks {
                reply.send(Ok((applied, version)));
            }
        }
    }
}

/// Commands on a shard's maintenance queue.
enum WriterCmd {
    /// Apply one update homed on this shard; acknowledge with
    /// (state-changed, published version) once the containing snapshot
    /// is live on every shard.
    Update { update: Update, reply: UpdateReply },
    /// Apply a batch another shard already logged and acked ownership
    /// of; arrive at the barrier once published locally.  Never
    /// counted against the queue-depth gauge and never shed.
    Replicate {
        updates: Arc<Vec<Update>>,
        barrier: Arc<BatchBarrier>,
    },
    /// Plan and materialize a view for `query`; acknowledge with the
    /// binding key once the snapshot containing it is live.
    Materialize {
        query: Query,
        reply: Reply<MaterializeResult>,
    },
    /// Stop the writer thread.
    Shutdown,
}

/// Per-shard shared state: the command queue, the published snapshot
/// slot for the views the shard owns, and the shard's own overload and
/// durability gauges.
struct ShardState {
    tx: Sender<WriterCmd>,
    published: Mutex<Arc<Snapshot>>,
    /// Commands currently in flight to this shard (enqueued but not
    /// yet popped).  Incremented *before* the channel send so the
    /// gauge can only over-count, never under-count — the shed check
    /// errs toward shedding at the boundary rather than letting the
    /// queue grow past its cap.
    queue_depth: AtomicU64,
    /// Updates refused with `BUSY` because this queue was at capacity.
    shed_updates: AtomicU64,
    /// Writer round-trips on this shard that exceeded the deadline.
    deadline_misses: AtomicU64,
    /// Read-only degraded mode for this shard: set by its writer when
    /// the durable path (WAL append or checkpoint) fails, cleared when
    /// a background probe proves it healthy again.
    degraded: AtomicBool,
    /// Times this shard has *entered* degraded mode (lifetime count).
    degraded_entered: AtomicU64,
    /// Mirror of [`DurableStore::wal_bytes`] for this shard's log.
    wal_bytes: AtomicU64,
    /// Mirror of [`DurableStore::last_checkpoint_seq`].
    last_checkpoint_seq: AtomicU64,
}

impl ShardState {
    fn snapshot(&self) -> Arc<Snapshot> {
        self.published.lock().expect("publish lock").clone()
    }

    fn publish(&self, snapshot: Snapshot) {
        *self.published.lock().expect("publish lock") = Arc::new(snapshot);
    }

    /// Book-keeping for a command the writer popped off its queue:
    /// every counted (client-originated) command decrements the depth
    /// gauge exactly once, at pop time.  `Shutdown` and `Replicate`
    /// are sent by the server itself and are never counted.
    fn note_pop(&self, cmd: &WriterCmd) {
        if matches!(
            cmd,
            WriterCmd::Update { .. } | WriterCmd::Materialize { .. }
        ) {
            self.queue_depth.fetch_sub(1, Ordering::Relaxed);
        }
    }
}

/// State shared between the accept loop, the reader pool, the writer
/// shards and the handle.
struct Shared {
    program: Program,
    derived: BTreeSet<PredName>,
    strategy: Strategy,
    limits: Limits,
    shards: Vec<ShardState>,
    /// Global snapshot version counter: every publish on any shard
    /// takes the next value, so versions are unique and each shard's
    /// slot is monotonic.  At one shard this degenerates to the
    /// classic single-writer version sequence.
    version: AtomicU64,
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
    /// reader after dealing it a connection, writers wake it through
    /// the [`Reply`]s it handed out, shutdown wakes them all.
    reader_wakers: Vec<Arc<Waker>>,
    /// Returns from the readers' readiness wait (`STATS`
    /// `reader_wakeups`).
    reader_wakeups: AtomicU64,
    queries_served: AtomicU64,
    updates_applied: AtomicU64,
    connections: AtomicU64,
    /// Views evicted because their maintenance failed (see
    /// [`magic_incr::ViewCatalog::apply_all`]) or because they idled
    /// past the view TTL; surfaced in `STATS`.
    views_evicted: AtomicU64,
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
    fn next_version(&self) -> u64 {
        self.version.fetch_add(1, Ordering::Relaxed) + 1
    }

    fn shard_of_key(&self, key: &str) -> usize {
        shard_of(key, self.shards.len())
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

    /// The binding key `key_cache` memoizes: what the owning shard's
    /// catalog computes, by planning alone (an empty catalog is two empty
    /// maps).
    fn binding_key(&self, query: &Query) -> Result<String, String> {
        ViewCatalog::new(self.strategy)
            .with_limits(self.limits)
            .binding_key(&self.program, query)
            .map_err(|e| e.to_string())
    }

    fn slot_deadline(&self) -> Option<Instant> {
        (!self.writer_deadline.is_zero()).then(|| Instant::now() + self.writer_deadline)
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

    /// Stop every thread: the front end as above, the writers by
    /// command (idempotent).
    fn begin_shutdown(&self) {
        self.stop_front_end();
        for shard in &self.shards {
            let _ = shard.tx.send(WriterCmd::Shutdown);
        }
    }
}

/// A running server.  Dropping the handle shuts the server down and joins
/// every thread; [`ServerHandle::shutdown`] does the same explicitly.
pub struct ServerHandle {
    addr: SocketAddr,
    shared: Arc<Shared>,
    accept_thread: Option<JoinHandle<()>>,
    writer_threads: Vec<JoinHandle<()>>,
    reader_threads: Vec<JoinHandle<()>>,
}

/// Namespace for [`Server::start`].
pub struct Server;

/// Everything one writer shard owns, handed to its thread at spawn.
struct WriterInit {
    idx: usize,
    rx: Receiver<WriterCmd>,
    catalog: ViewCatalog,
    db: Database,
    store: Option<DurableStore>,
    /// Send ends of every *other* shard's queue, for replication
    /// fan-out (empty in the single-shard layout).
    peer_txs: Vec<Sender<WriterCmd>>,
    /// Signalled once the thread is running; see [`Server::start`].
    started: Sender<()>,
}

impl Server {
    /// Bind `addr` (e.g. `"127.0.0.1:0"` for an ephemeral port) and serve
    /// `program` over `edb` until the returned handle is shut down.
    ///
    /// The catalogs start empty: views materialize on demand as queries
    /// arrive, each keyed by its adorned binding and owned by the shard
    /// its key hashes to.  `edb` becomes the authoritative base-fact
    /// database (replicated across shards; each predicate's home shard
    /// serializes and logs its updates), maintained by every
    /// acknowledged update and used to materialize late-arriving
    /// bindings.
    ///
    /// With [`ServeConfig::durability`] set, startup first runs
    /// recovery against the store directory — per shard: newest
    /// checkpoint load and WAL-tail replay; then the disjoint
    /// partitions merge and each shard's exported view bindings
    /// re-materialize over the merged base — all *before* the listener
    /// accepts its first connection.  On a brand-new store `edb` is
    /// the seed and is checkpointed immediately; on an existing store
    /// the disk state wins and `edb` is ignored.
    pub fn start(
        program: Program,
        edb: Database,
        addr: impl ToSocketAddrs,
        config: ServeConfig,
    ) -> io::Result<ServerHandle> {
        let listener = TcpListener::bind(addr)?;
        listener.set_nonblocking(true)?;
        let addr = listener.local_addr()?;
        let shards = config.writer_shards.max(1);
        let durable_err = |e: magic_durable::DurableError| io::Error::other(e.to_string());
        // One fault plan instance for the whole server: explicit config
        // wins, else `MAGIC_FAULTS`.  Resolving it here (rather than
        // letting each store read the environment on its own) keeps
        // every durable store and the accept loop sharing the *same*
        // occurrence counters, so a spec like `conn-drop=2` counts
        // connections globally, not per subsystem.
        let faults = config.faults.clone().or_else(FaultPlan::from_env);
        let new_catalog = || {
            ViewCatalog::new(config.strategy)
                .with_limits(config.limits)
                .with_max_views(config.max_views)
                .with_view_ttl(config.view_ttl)
        };
        let (catalogs, dbs, stores) = match &config.durability {
            Some(durable) => {
                let mut durable = durable.clone();
                if durable.faults.is_none() {
                    durable.faults = faults.clone();
                }
                verify_shard_layout(&durable.dir, shards).map_err(durable_err)?;
                if shards == 1 {
                    // The classic path, byte-compatible with stores
                    // written by earlier single-writer servers.
                    let mut store = DurableStore::open(&durable).map_err(durable_err)?;
                    let recovered = store
                        .recover(&program, new_catalog(), &edb)
                        .map_err(durable_err)?;
                    (
                        vec![recovered.catalog],
                        vec![recovered.db],
                        vec![Some(store)],
                    )
                } else {
                    // Per-shard recovery: each store covers a disjoint
                    // predicate partition, so the merged union *is*
                    // the acked base state; views then re-materialize
                    // over it — the same fixpoint the single-store
                    // replay-through-maintenance reaches, because a
                    // view's state is a function of the base state.
                    let mut stores = Vec::with_capacity(shards);
                    let mut shard_bindings = Vec::with_capacity(shards);
                    let mut merged = Database::new();
                    for i in 0..shards {
                        let mut store =
                            DurableStore::open_shard(&durable, i, shards).map_err(durable_err)?;
                        let seed = project_home(&edb, i, shards);
                        let recovered = store.recover_base(&seed).map_err(durable_err)?;
                        merged.merge(&recovered.db);
                        shard_bindings.push(recovered.bindings);
                        stores.push(Some(store));
                    }
                    let mut catalogs: Vec<ViewCatalog> =
                        (0..shards).map(|_| new_catalog()).collect();
                    for (catalog, bindings) in catalogs.iter_mut().zip(shard_bindings) {
                        for (_key, text) in bindings {
                            // A binding whose query no longer plans
                            // (the program changed between runs) is
                            // dropped, not fatal: views are caches.
                            let Ok(query) = parse_query(&text) else {
                                continue;
                            };
                            let _ = catalog.materialize_keyed(&program, &query, &merged);
                        }
                    }
                    let dbs = (0..shards).map(|_| merged.clone()).collect();
                    (catalogs, dbs, stores)
                }
            }
            None => (
                (0..shards).map(|_| new_catalog()).collect(),
                (0..shards).map(|_| edb.clone()).collect(),
                (0..shards)
                    .map(|_| None)
                    .collect::<Vec<Option<DurableStore>>>(),
            ),
        };

        let mut txs = Vec::with_capacity(shards);
        let mut rxs = Vec::with_capacity(shards);
        for _ in 0..shards {
            let (tx, rx) = channel();
            txs.push(tx);
            rxs.push(rx);
        }
        let shard_states: Vec<ShardState> = txs
            .iter()
            .zip(&stores)
            .map(|(tx, store)| ShardState {
                tx: tx.clone(),
                published: Mutex::new(Arc::new(Snapshot::default())),
                queue_depth: AtomicU64::new(0),
                shed_updates: AtomicU64::new(0),
                deadline_misses: AtomicU64::new(0),
                degraded: AtomicBool::new(false),
                degraded_entered: AtomicU64::new(0),
                wal_bytes: AtomicU64::new(store.as_ref().map_or(0, DurableStore::wal_bytes)),
                last_checkpoint_seq: AtomicU64::new(
                    store.as_ref().map_or(0, DurableStore::last_checkpoint_seq),
                ),
            })
            .collect();
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
            shards: shard_states,
            version: AtomicU64::new(0),
            key_cache: Mutex::new(HashMap::new()),
            response_cache: Mutex::new(HashMap::new()),
            shutdown: AtomicBool::new(false),
            accept_waker: Waker::new()?,
            reader_wakers,
            reader_wakeups: AtomicU64::new(0),
            queries_served: AtomicU64::new(0),
            updates_applied: AtomicU64::new(0),
            connections: AtomicU64::new(0),
            views_evicted: AtomicU64::new(0),
            write_errors: AtomicU64::new(0),
            inflight_requests: AtomicU64::new(0),
            batch_hist: std::array::from_fn(|_| AtomicU64::new(0)),
            write_timeout: config.write_timeout,
            max_queue_depth: config.max_queue_depth,
            writer_deadline: config.writer_deadline,
            faults,
        });

        let view_ttl = (config.view_ttl > Duration::ZERO).then_some(config.view_ttl);
        let mut writer_threads = Vec::with_capacity(shards);
        let (started_tx, started_rx) = channel();
        let shard_inits = rxs
            .into_iter()
            .zip(catalogs)
            .zip(dbs.into_iter().zip(stores));
        for (i, ((rx, catalog), (db, store))) in shard_inits.enumerate() {
            let peer_txs: Vec<Sender<WriterCmd>> = txs
                .iter()
                .enumerate()
                .filter(|(j, _)| *j != i)
                .map(|(_, tx)| tx.clone())
                .collect();
            let init = WriterInit {
                idx: i,
                rx,
                catalog,
                db,
                store,
                peer_txs,
                started: started_tx.clone(),
            };
            let writer_shared = Arc::clone(&shared);
            writer_threads.push(
                std::thread::Builder::new()
                    .name(format!("magic-serve-writer-{i}"))
                    .spawn(move || writer_loop(writer_shared, init, config.batch_max, view_ttl))?,
            );
        }

        // The writers take their malloc arenas before any other thread of
        // this server exists.  glibc hands a new thread the arena of the
        // thread that exited last, and [`ServerHandle::shutdown`] makes
        // that a writer — the one arena with a whole catalog's worth of
        // free space.  A reader that starts first takes it instead, and
        // the writer grows a second copy (`peak_rss_mb` 102 or 148 MiB
        // on `magicbench serve_read`, by the luck of the thread start).
        drop(started_tx);
        while started_rx.recv().is_ok() {}

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
            writer_threads,
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

    /// State-changing updates applied and published so far.
    pub fn updates_applied(&self) -> u64 {
        self.shared.updates_applied.load(Ordering::Relaxed)
    }

    /// Stop front to back and join every thread: the accept loop, then
    /// the reader pool (which drops its connections), then the writer
    /// shards.  A writer therefore outlives every thread that can still
    /// hand it work, and is the last thread to exit.  That order also
    /// keeps a process that starts another server afterwards at one
    /// server's footprint: glibc gives a new thread the malloc arena of
    /// the thread that exited last, so the next server's writer (the first
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
        for t in self.writer_threads.drain(..) {
            let _ = t.join();
        }
    }
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Which durable operation failed — and therefore what the degraded-mode
/// probe retries.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum DegradedCause {
    /// A WAL append or fsync failed; the probe heals the log tail and
    /// proves an empty append round-trips.
    Wal,
    /// A checkpoint failed (acked state is still WAL-safe); the probe
    /// retries the checkpoint.
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

/// Flip one shard into read-only degraded mode (idempotent on the
/// counters: re-entering while already degraded only updates the cause).
fn enter_degraded(
    shard: &ShardState,
    degraded_cause: &mut Option<DegradedCause>,
    probe_backoff: &mut Duration,
    next_probe: &mut Option<Instant>,
    cause: DegradedCause,
) {
    if degraded_cause.is_none() {
        shard.degraded.store(true, Ordering::Release);
        shard.degraded_entered.fetch_add(1, Ordering::Relaxed);
    }
    *degraded_cause = Some(cause);
    *probe_backoff = PROBE_BACKOFF_MIN;
    *next_probe = Some(Instant::now() + *probe_backoff);
}

/// One maintenance writer shard: drains its queue in batches, applies
/// updates homed on it to its base replica and the views it owns,
/// replicates to its peers, materializes late bindings, and publishes a
/// fresh snapshot after every change.
///
/// Publishing is incremental (see [`Publisher`]): each publish cycle
/// replaces only the bindings [`ViewCatalog::apply_all`] reported
/// changed (plus drops for evicted bindings and inserts for fresh
/// ones).  The map clone handed to readers bumps one `Arc` per binding;
/// no view data is copied for views the batch did not move.
fn writer_loop(
    shared: Arc<Shared>,
    init: WriterInit,
    batch_max: usize,
    view_ttl: Option<Duration>,
) {
    let WriterInit {
        idx,
        rx,
        mut catalog,
        db: mut base_db,
        mut store,
        peer_txs,
        started,
    } = init;
    let me = &shared.shards[idx];
    let shard_count = shared.shards.len();
    let mut last_version: u64 = 0;
    let mut publisher = Publisher {
        shared: &shared,
        me,
        published: BTreeMap::new(),
    };
    // Recovery may have handed us a warm catalog (re-materialized from
    // a checkpoint's exported bindings).  Publish those bindings up
    // front: a reader whose first query hits a recovered binding goes
    // through the materialize path, gets a cache hit (`fresh == false`,
    // so no publish happens there) and then reads the snapshot — which
    // must therefore already contain the binding.
    let recovered: Vec<String> = catalog.keys().map(String::from).collect();
    if publisher.refresh(&catalog, &recovered) {
        publisher.publish(&catalog, 0);
    }
    // How often an idle writer wakes to sweep TTL-expired views: often
    // enough that staleness past the deadline stays a small fraction
    // of the TTL, bounded so tiny test TTLs don't busy-spin.
    let ttl_tick =
        view_ttl.map(|ttl| (ttl / 4).clamp(Duration::from_millis(10), Duration::from_secs(1)));
    // Arities the program declares; facts that disagree with the program
    // or with a stored relation are rejected before they can reach
    // storage (whose insert path treats a wrong-arity row as a caller
    // bug and panics).
    let declared_arities = shared.program.predicate_arities().unwrap_or_default();
    // Running, and past this thread's first allocation.
    drop(started);
    // A command popped out of a batch drain that must be handled next.
    let mut deferred: Option<WriterCmd> = None;
    // Degraded mode: while `Some`, this shard's durable path is broken
    // — updates homed here are refused and a probe retries the failing
    // operation on a capped exponential backoff.  Owned by the writer;
    // mirrored to the shard's `degraded` flag for the connection-side
    // front-door check.  Replicated batches from healthy peers still
    // apply: they are already logged by their home shard.
    let mut degraded_cause: Option<DegradedCause> = None;
    let mut probe_backoff = PROBE_BACKOFF_MIN;
    let mut next_probe: Option<Instant> = None;
    'main: loop {
        // While degraded, bound the blocking receive by the time until
        // the next probe so recovery is never starved by an idle queue.
        let probe_wait = next_probe.map(|at| {
            at.saturating_duration_since(Instant::now())
                .max(Duration::from_millis(5))
        });
        let tick = match (probe_wait, ttl_tick) {
            (Some(p), Some(t)) => Some(p.min(t)),
            (Some(p), None) => Some(p),
            (None, t) => t,
        };
        let cmd: Option<WriterCmd> = match deferred.take() {
            Some(cmd) => Some(cmd),
            None => match tick {
                None => match rx.recv() {
                    Ok(cmd) => {
                        me.note_pop(&cmd);
                        Some(cmd)
                    }
                    Err(_) => break, // every sender is gone
                },
                Some(tick) => match rx.recv_timeout(tick) {
                    Ok(cmd) => {
                        me.note_pop(&cmd);
                        Some(cmd)
                    }
                    Err(RecvTimeoutError::Disconnected) => break 'main,
                    Err(RecvTimeoutError::Timeout) => {
                        // Idle maintenance: sweep views past their TTL.
                        // Eviction is never an error — a dropped
                        // binding re-materializes from `base_db` on
                        // next sight.  (The probe, the other idle duty,
                        // runs at the bottom of the loop body.)
                        catalog.evict_expired();
                        if publisher.refresh(&catalog, &[]) {
                            last_version = shared.next_version();
                            publisher.publish(&catalog, last_version);
                        }
                        None
                    }
                },
            },
        };
        match cmd {
            None => {}
            Some(WriterCmd::Shutdown) => break,
            Some(WriterCmd::Materialize { query, reply }) => {
                // First sight of a binding: the first of a program builds
                // its view over `base_db`, the rest add their seed to it.
                match catalog.materialize_keyed(&shared.program, &query, &base_db) {
                    // A cache hit (two connections racing the first sight
                    // of one binding) changes nothing — the published
                    // snapshot already contains the binding.
                    Ok((key, false)) => reply.send(Ok(key)),
                    Ok((key, true)) => {
                        // Materializing may also have evicted cold
                        // bindings past the `max_views` cap; `refresh`
                        // drops those.
                        publisher.refresh(&catalog, std::slice::from_ref(&key));
                        last_version = shared.next_version();
                        publisher.publish(&catalog, last_version);
                        // Under a pathologically tiny `max_views` the
                        // eviction sweep can claw back the very binding
                        // just materialized; that is an answerable error
                        // (the client's retry loop re-materializes), never
                        // a writer panic.
                        reply.send(if catalog.contains(&key) {
                            Ok(key)
                        } else {
                            Err(format!(
                                "view {key} was evicted immediately after \
                                 materialization (max_views is too small for \
                                 the working set); retry"
                            ))
                        });
                    }
                    Err(e) => {
                        // A seed its view could not take costs that view
                        // the bindings it had.
                        if publisher.refresh(&catalog, &[]) {
                            last_version = shared.next_version();
                            publisher.publish(&catalog, last_version);
                        }
                        reply.send(Err(e.to_string()));
                    }
                }
            }
            Some(WriterCmd::Replicate { updates, barrier }) => {
                // A batch a peer shard owns: it is already validated,
                // logged and rolled forward there.  Apply it to the
                // local base replica and whatever views this shard
                // owns, publish if anything moved, and arrive at the
                // barrier so the acks can go out.  Never logged here —
                // each WAL covers only its shard's home predicates.
                for update in updates.iter() {
                    match update {
                        Update::Insert(f) => base_db.insert_fact(f),
                        Update::Retract(f) => base_db.remove_fact(f),
                    };
                }
                let outcome = catalog.apply_all(updates.as_slice());
                if publisher.refresh(&catalog, &outcome.changed) {
                    last_version = shared.next_version();
                    publisher.publish(&catalog, last_version);
                    barrier.arrive(last_version);
                } else {
                    barrier.arrive(0);
                }
            }
            Some(WriterCmd::Update { update: _, reply }) if degraded_cause.is_some() => {
                // The front door refuses updates while degraded, but a
                // command already queued when the flag rose races past
                // it and lands here; refuse it truthfully too.
                let cause = degraded_cause.expect("guard checked");
                reply.send(Err(format!(
                    "DEGRADED read-only: the last {} failed; updates are refused \
                     until a background probe restores the durable path",
                    cause.noun()
                )));
            }
            Some(WriterCmd::Update { update, reply }) => {
                // Batch: greedily drain more queued updates (writes are
                // serialized per shard anyway, and coalescing insertions
                // lets each view run one fixpoint re-entry for the whole
                // batch).
                let mut batch = vec![(update, reply)];
                while batch.len() < batch_max {
                    match rx.try_recv() {
                        Ok(cmd) => {
                            me.note_pop(&cmd);
                            match cmd {
                                WriterCmd::Update { update, reply } => {
                                    batch.push((update, reply));
                                }
                                other => {
                                    deferred = Some(other);
                                    break;
                                }
                            }
                        }
                        Err(_) => break,
                    }
                }
                // Apply to the base replica, validating each fact's
                // arity *at application time* — against the database as
                // the batch has mutated it so far, falling back to the
                // program's declared arity.  (A single pre-pass would
                // miss two same-batch inserts of a brand new predicate
                // at different arities, and storage treats a
                // wrong-arity row as a caller bug and panics.)
                // Mismatches are answered immediately and dropped; the
                // base database then decides which survivors are state
                // changes — no-ops are acknowledged but never reach the
                // views.
                let mut changed: Vec<Update> = Vec::new();
                let mut acks: Vec<(UpdateReply, bool)> = Vec::new();
                for (update, reply) in batch {
                    let fact = update.fact();
                    let expected = base_db
                        .relation(&fact.pred)
                        .map(|rel| rel.arity())
                        .or_else(|| declared_arities.get(&fact.pred).copied());
                    if let Some(arity) = expected {
                        if arity != fact.arity() {
                            reply.send(Err(format!(
                                "arity mismatch: {} is stored with arity {arity}, \
                                 fact has arity {}",
                                fact.pred,
                                fact.arity()
                            )));
                            continue;
                        }
                    }
                    let is_change = match &update {
                        Update::Insert(f) => base_db.insert_fact(f),
                        Update::Retract(f) => base_db.remove_fact(f),
                    };
                    if is_change {
                        changed.push(update);
                    }
                    acks.push((reply, is_change));
                }
                // Write-ahead: the batch must be on this shard's log
                // *before* its snapshot publishes and its clients are
                // acked — "OK applied" promises the write survives a
                // crash.  If the log itself fails, the failed append is
                // scrubbed from the log (see [`DurableStore::log_batch`])
                // and the batch is rolled back out of the base replica —
                // exact inverses in reverse order, sound because
                // `changed` holds only state-changers.  Memory, disk and
                // the refusal acks then agree: the batch never happened.
                // The views never see it, the peers are never told, and
                // this shard enters read-only degraded mode.
                let mut log_failure: Option<String> = None;
                if !changed.is_empty() {
                    if let Some(store) = store.as_mut() {
                        if let Err(e) = store.log_batch(&changed) {
                            for u in changed.iter().rev() {
                                match u {
                                    Update::Insert(f) => {
                                        base_db.remove_fact(f);
                                    }
                                    Update::Retract(f) => {
                                        base_db.insert_fact(f);
                                    }
                                }
                            }
                            log_failure = Some(e.to_string());
                        }
                        me.wal_bytes.store(store.wal_bytes(), Ordering::Relaxed);
                    }
                }
                if log_failure.is_none() && !changed.is_empty() {
                    // Each view is maintained once, whatever the number
                    // of bindings reading it.  A view whose maintenance
                    // fails is evicted by `apply_all` with its bindings
                    // (they re-materialize from `base_db` on next sight),
                    // so the batch is never half-applied: every surviving
                    // view and the base database agree on the same update
                    // prefix, and the acknowledgments below stay truthful.
                    let outcome = catalog.apply_all(&changed);
                    publisher.refresh(&catalog, &outcome.changed);
                    last_version = shared.next_version();
                    publisher.publish(&catalog, last_version);
                    shared
                        .updates_applied
                        .fetch_add(changed.len() as u64, Ordering::Relaxed);
                }
                // Enter degraded mode *before* the refusal acks go out:
                // a client that saw `ERR DEGRADED` must already find
                // the flag raised when it asks `STATS`.
                if let Some(detail) = &log_failure {
                    eprintln!(
                        "magic-serve: WAL append failed on shard {idx}, entering \
                         read-only degraded mode: {detail}"
                    );
                    enter_degraded(
                        me,
                        &mut degraded_cause,
                        &mut probe_backoff,
                        &mut next_probe,
                        DegradedCause::Wal,
                    );
                    for (reply, _) in acks {
                        reply.send(Err(format!(
                            "DEGRADED update refused: WAL append failed ({detail}); \
                             the batch was rolled back and the shard is read-only \
                             until the durable path recovers"
                        )));
                    }
                } else if changed.is_empty() || peer_txs.is_empty() {
                    // Nothing to replicate (all no-ops) or the classic
                    // single-shard layout: ack directly.
                    for (reply, applied) in acks {
                        reply.send(Ok((applied, last_version)));
                    }
                } else {
                    // Fan the batch out; the last peer to publish
                    // delivers the acks.  Forwarding from here (not the
                    // connection threads) keeps all of one predicate's
                    // updates flowing to every replica in home-shard
                    // order — std channels are per-sender FIFO.  Sends
                    // are nonblocking, so shards never wait on each
                    // other; a dead peer (shutdown race) counts as
                    // arrived so the acks still go out.
                    let barrier = Arc::new(BatchBarrier::new(peer_txs.len(), last_version, acks));
                    let updates = Arc::new(changed);
                    for tx in &peer_txs {
                        let cmd = WriterCmd::Replicate {
                            updates: Arc::clone(&updates),
                            barrier: Arc::clone(&barrier),
                        };
                        if tx.send(cmd).is_err() {
                            barrier.arrive(0);
                        }
                    }
                }
                // Checkpoint *after* acking: the cadence check rides
                // the batch that crossed it, but clients never wait
                // on a whole-partition freeze.
                if log_failure.is_none() {
                    if let Some(store) = store.as_mut() {
                        if store.should_checkpoint() {
                            match checkpoint_shard(store, &base_db, &catalog, idx, shard_count) {
                                Ok(()) => {
                                    me.last_checkpoint_seq
                                        .store(store.last_checkpoint_seq(), Ordering::Relaxed);
                                }
                                Err(e) => {
                                    // The WAL is intact and every ack
                                    // sent was honest — durability still
                                    // holds, recovery just replays a
                                    // longer tail.  But a store that
                                    // cannot checkpoint is sick (disk
                                    // full, permissions), so enter
                                    // degraded mode and let the probe
                                    // retry on backoff rather than
                                    // piling more acked writes onto an
                                    // unbounded WAL tail.
                                    eprintln!(
                                        "magic-serve: checkpoint failed on shard {idx}, \
                                         entering read-only degraded mode: {e}"
                                    );
                                    enter_degraded(
                                        me,
                                        &mut degraded_cause,
                                        &mut probe_backoff,
                                        &mut next_probe,
                                        DegradedCause::Checkpoint,
                                    );
                                }
                            }
                            me.wal_bytes.store(store.wal_bytes(), Ordering::Relaxed);
                        }
                    }
                }
            }
        }
        // Degraded-mode probe: when due, retry the failing durable
        // operation; on success clear the flag and resume accepting
        // updates, on failure back off (capped exponential).  Checked
        // after every command *and* on idle ticks, so neither a busy
        // read path nor an empty queue can starve recovery.
        if let Some(cause) = degraded_cause {
            let due = next_probe.is_none_or(|at| Instant::now() >= at);
            if due {
                if let Some(store) = store.as_mut() {
                    let outcome = match cause {
                        DegradedCause::Wal => store.probe(),
                        DegradedCause::Checkpoint => {
                            checkpoint_shard(store, &base_db, &catalog, idx, shard_count)
                        }
                    };
                    match outcome {
                        Ok(()) => {
                            eprintln!(
                                "magic-serve: durable path recovered on shard {idx} \
                                 ({} probe succeeded); leaving degraded mode",
                                cause.noun()
                            );
                            degraded_cause = None;
                            next_probe = None;
                            probe_backoff = PROBE_BACKOFF_MIN;
                            me.degraded.store(false, Ordering::Release);
                            me.last_checkpoint_seq
                                .store(store.last_checkpoint_seq(), Ordering::Relaxed);
                        }
                        Err(_) => {
                            next_probe = Some(Instant::now() + probe_backoff);
                            probe_backoff = (probe_backoff * 2).min(PROBE_BACKOFF_MAX);
                        }
                    }
                    me.wal_bytes.store(store.wal_bytes(), Ordering::Relaxed);
                } else {
                    // No store: degraded mode is unreachable, but be
                    // safe and self-heal rather than probing forever.
                    degraded_cause = None;
                    next_probe = None;
                    me.degraded.store(false, Ordering::Release);
                }
            }
        }
    }
    // Clean exit: push whatever the fsync policy deferred to disk, so a
    // graceful shutdown under `FsyncPolicy::Never`/`EveryN` loses
    // nothing even to a machine crash right after.
    if let Some(store) = store.as_mut() {
        let _ = store.sync();
    }
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
/// is parked on a writer-shard reply channel whose [`Reply`] wakes the
/// owning reader.
enum SlotState {
    /// Response bytes in text-protocol form, ready to stage — shared
    /// with the response cache on a hit, never copied before the send
    /// buffer.
    Ready(Arc<[u8]>),
    /// An update in flight to its home shard.
    AwaitUpdate {
        rx: Receiver<UpdateResult>,
        shard: usize,
        deadline: Option<Instant>,
    },
    /// A first-sight query waiting for its view to materialize.
    AwaitMaterialize {
        rx: Receiver<MaterializeResult>,
        query: Query,
        shard: usize,
        attempts: u32,
        deadline: Option<Instant>,
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
                SlotState::AwaitUpdate { deadline, .. }
                | SlotState::AwaitMaterialize { deadline, .. } => deadline,
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
/// this thread, memoized per query text), answer from the owning
/// shard's published snapshot, materializing through that shard only
/// on first sight of a binding.
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
            // A query that does not plan is routed through a writer
            // below so the refusal carries the catalog's canonical
            // message.
            Err(_) => None,
        },
    };
    if let Some(key) = &key {
        let shard = shared.shard_of_key(key);
        let snapshot = shared.shards[shard].snapshot();
        if let Some(view) = snapshot.views.get(key) {
            return SlotState::Ready(shared.render_view(key, snapshot.version, view));
        }
        // Key known but the view is not in this snapshot: first sight,
        // an eviction (failed maintenance), or a raced materialization.
        // The owning shard's materialize path is idempotent for live
        // bindings and rebuilds evicted ones.
    }
    let shard = key.as_deref().map_or(0, |k| shared.shard_of_key(k));
    issue_materialize(shared, wake, query, shard, 1)
}

/// Park a query on the owning shard's materialize path (attempt
/// `attempts` of 3 — materialize-then-read can race an eviction, and
/// each retry rebuilds from the current base facts).
fn issue_materialize(
    shared: &Shared,
    wake: &Arc<Waker>,
    query: Query,
    shard: usize,
    attempts: u32,
) -> SlotState {
    let (reply, rx) = Reply::channel(wake);
    let state = &shared.shards[shard];
    state.queue_depth.fetch_add(1, Ordering::Relaxed);
    let cmd = WriterCmd::Materialize {
        query: query.clone(),
        reply,
    };
    if state.tx.send(cmd).is_err() {
        state.queue_depth.fetch_sub(1, Ordering::Relaxed);
        return ready_err("server is shutting down");
    }
    SlotState::AwaitMaterialize {
        rx,
        query,
        shard,
        attempts,
        deadline: shared.slot_deadline(),
    }
}

/// The write path: validate against the source program, shed if the
/// home shard is degraded or its queue is at capacity, otherwise
/// enqueue to the home shard; the slot then waits (bounded by the
/// writer deadline) until the containing snapshot is published on
/// every shard.
///
/// The three structured refusals a client can see here, and what they
/// promise:
/// * `ERR DEGRADED …` — not applied, and retrying now will not help;
///   wait for the shard to recover (poll `STATS degraded`).
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
    let shard = shard_of(&fact.pred.to_string(), shared.shards.len());
    let state = &shared.shards[shard];
    if state.degraded.load(Ordering::Acquire) {
        return ready_err(
            "DEGRADED read-only: the durable path is failing; updates are \
             refused while a background probe retries it",
        );
    }
    if shared.max_queue_depth > 0
        && state.queue_depth.load(Ordering::Relaxed) >= shared.max_queue_depth as u64
    {
        state.shed_updates.fetch_add(1, Ordering::Relaxed);
        return ready_err(&format!(
            "BUSY {BUSY_RETRY_AFTER_MS} writer queue is at capacity ({}); \
             retry after the hinted backoff",
            shared.max_queue_depth
        ));
    }
    let (reply, rx) = Reply::channel(wake);
    state.queue_depth.fetch_add(1, Ordering::Relaxed);
    if state.tx.send(WriterCmd::Update { update, reply }).is_err() {
        state.queue_depth.fetch_sub(1, Ordering::Relaxed);
        return ready_err("server is shutting down");
    }
    SlotState::AwaitUpdate {
        rx,
        shard,
        deadline: shared.slot_deadline(),
    }
}

/// Deadline bookkeeping for a parked slot: `None` to keep waiting, or
/// the `TIMEOUT` refusal once the writer deadline passes.  On expiry
/// the command is *not* revoked — it stays queued and may apply later
/// — so the message says "outcome unknown", and the writer's eventual
/// reply lands on a disconnected channel (harmless).
fn deadline_check(shared: &Shared, shard: usize, deadline: Option<Instant>) -> Option<SlotState> {
    let at = deadline?;
    if Instant::now() < at {
        return None;
    }
    shared.shards[shard]
        .deadline_misses
        .fetch_add(1, Ordering::Relaxed);
    Some(ready_err(&format!(
        "TIMEOUT writer did not respond within {}ms; the command is \
         still queued and may yet apply",
        shared.writer_deadline.as_millis()
    )))
}

/// Advance one parked slot if its writer answered or its deadline
/// passed.
fn poll_slot(shared: &Shared, wake: &Arc<Waker>, slot: &mut Slot) {
    let next = match &mut slot.state {
        SlotState::Ready(_) => None,
        SlotState::AwaitUpdate {
            rx,
            shard,
            deadline,
        } => match rx.try_recv() {
            Ok(Ok((applied, version))) => Some(ready(render_ack(applied, version).as_bytes())),
            Ok(Err(e)) => Some(ready_err(&e)),
            Err(TryRecvError::Disconnected) => Some(ready_err("server is shutting down")),
            Err(TryRecvError::Empty) => deadline_check(shared, *shard, *deadline),
        },
        SlotState::AwaitMaterialize {
            rx,
            query,
            shard,
            attempts,
            deadline,
        } => match rx.try_recv() {
            Ok(Ok(key)) => {
                shared
                    .key_cache
                    .lock()
                    .expect("key cache lock")
                    .insert(query.atom.to_string(), key.clone());
                let vshard = shared.shard_of_key(&key);
                let snapshot = shared.shards[vshard].snapshot();
                if let Some(view) = snapshot.views.get(&key) {
                    Some(SlotState::Ready(shared.render_view(
                        &key,
                        snapshot.version,
                        view,
                    )))
                } else if *attempts < 3 {
                    Some(issue_materialize(
                        shared,
                        wake,
                        query.clone(),
                        vshard,
                        *attempts + 1,
                    ))
                } else {
                    Some(ready_err(&format!(
                        "view for {} was repeatedly evicted while answering; its \
                         maintenance is failing",
                        query.atom
                    )))
                }
            }
            Ok(Err(e)) => Some(ready_err(&e)),
            Err(TryRecvError::Disconnected) => Some(ready_err("server is shutting down")),
            Err(TryRecvError::Empty) => deadline_check(shared, *shard, *deadline),
        },
    };
    if let Some(state) = next {
        slot.state = state;
    }
}

/// Assemble the `STATS` response from the shared counters and every
/// shard's published snapshot.
fn gather_stats(shared: &Shared) -> ServerStats {
    let mut totals = EvalStats::default();
    let mut per_view_map: BTreeMap<String, ViewStats> = BTreeMap::new();
    let mut version = 0u64;
    let (mut views, mut materialized, mut recompute_views) = (0u64, 0u64, 0u64);
    for shard in &shared.shards {
        let snapshot = shard.snapshot();
        version = version.max(snapshot.version);
        views += snapshot.views.len() as u64;
        materialized += snapshot.materialized;
        recompute_views += snapshot.recompute_views;
        totals.merge(&snapshot.totals);
        for (key, view) in &snapshot.views {
            per_view_map.insert(
                key.clone(),
                ViewStats {
                    key: key.clone(),
                    facts: view.database().total_facts() as u64,
                    rule_firings: view.stats().rule_firings as u64,
                    join_probes: view.stats().join_probes as u64,
                    recomputes: view.recompute_count(),
                    recompute_reason: view.recompute_reason().unwrap_or("").to_string(),
                },
            );
        }
    }
    let per_shard: Vec<ShardStats> = shared
        .shards
        .iter()
        .enumerate()
        .map(|(index, shard)| ShardStats {
            index: index as u64,
            queue_depth: shard.queue_depth.load(Ordering::Relaxed),
            shed_updates: shard.shed_updates.load(Ordering::Relaxed),
            deadline_misses: shard.deadline_misses.load(Ordering::Relaxed),
            degraded: shard.degraded.load(Ordering::Acquire) as u64,
            degraded_entered: shard.degraded_entered.load(Ordering::Relaxed),
            wal_bytes: shard.wal_bytes.load(Ordering::Relaxed),
            last_checkpoint: shard.last_checkpoint_seq.load(Ordering::Relaxed),
        })
        .collect();
    ServerStats {
        version,
        views,
        materialized,
        queries_served: shared.queries_served.load(Ordering::Relaxed),
        updates_applied: shared.updates_applied.load(Ordering::Relaxed),
        connections: shared.connections.load(Ordering::Relaxed),
        views_evicted: shared.views_evicted.load(Ordering::Relaxed),
        iterations: totals.iterations as u64,
        rule_firings: totals.rule_firings as u64,
        facts_derived: totals.facts_derived as u64,
        duplicate_derivations: totals.duplicate_derivations as u64,
        join_probes: totals.join_probes as u64,
        wal_bytes: per_shard.iter().map(|s| s.wal_bytes).sum(),
        last_checkpoint: per_shard
            .iter()
            .map(|s| s.last_checkpoint)
            .max()
            .unwrap_or(0),
        write_errors: shared.write_errors.load(Ordering::Relaxed),
        queue_depth: per_shard.iter().map(|s| s.queue_depth).sum(),
        shed_updates: per_shard.iter().map(|s| s.shed_updates).sum(),
        deadline_misses: per_shard.iter().map(|s| s.deadline_misses).sum(),
        degraded: per_shard.iter().map(|s| s.degraded).sum(),
        degraded_entered: per_shard.iter().map(|s| s.degraded_entered).sum(),
        writer_shards: shared.shards.len() as u64,
        inflight_requests: shared.inflight_requests.load(Ordering::Relaxed),
        batch_size_p50: shared.batch_p50(),
        recompute_views,
        reader_wakeups: shared.reader_wakeups.load(Ordering::Relaxed),
        per_view: per_view_map.into_values().collect(),
        per_shard,
    }
}
