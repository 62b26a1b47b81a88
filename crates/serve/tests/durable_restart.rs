//! Kill-and-restart crash safety: the durable layer's headline
//! acceptance tests.
//!
//! Each test spawns the real `durable_server` binary (a separate OS
//! process — recovery across an *actual* process boundary, not a
//! same-process re-open), streams acked updates at it, `SIGKILL`s it at
//! an arbitrary point, restarts over the same store directory, and
//! checks the recovered state against a client-side oracle.
//!
//! The correctness contract under a single client (updates are totally
//! ordered) is **prefix semantics**: the recovered base state must
//! equal the oracle applied to `sent[..m]` for some `m` with
//! `acked <= m <= sent` — everything acknowledged survives, nothing
//! is half-applied, and an in-flight (never-acked) trailing update may
//! or may not have landed.  A torn final WAL frame — the disk
//! signature of dying mid-append — must be truncated on recovery, not
//! replayed and not fatal.

#![cfg(unix)]

mod common;

use common::{read_base, seed_edges, tmp_dir, ServerProc};
use magic_serve::{ClientError, PipeClient};
use magic_workloads::SplitMix64;
use std::collections::BTreeSet;
use std::io::Write;
use std::net::TcpStream;

/// One update of the generated stream.
#[derive(Clone, Debug)]
struct Op {
    insert: bool,
    a: String,
    b: String,
}

impl Op {
    fn atom(&self) -> String {
        format!("par({}, {})", self.a, self.b)
    }
}

/// The oracle: seed + the first `m` ops applied in order.
fn oracle(ops: &[Op], m: usize) -> BTreeSet<(String, String)> {
    let mut edges = seed_edges();
    for op in &ops[..m] {
        let edge = (op.a.clone(), op.b.clone());
        if op.insert {
            edges.insert(edge);
        } else {
            edges.remove(&edge);
        }
    }
    edges
}

/// A random stream over a small universe, dense enough that inserts
/// collide (no-op acks) and retracts hit real rows.
fn gen_ops(rng: &mut SplitMix64, n: usize) -> Vec<Op> {
    (0..n)
        .map(|_| {
            let a = format!("s{}", rng.next_u64() % 6);
            let b = format!("s{}", rng.next_u64() % 6);
            Op {
                insert: rng.next_u64() % 10 < 7,
                a,
                b,
            }
        })
        .collect()
}

#[test]
fn sigkill_mid_stream_recovers_exactly_an_acked_consistent_prefix() {
    let dir = tmp_dir("midstream");
    let mut rng = SplitMix64::seed_from_u64(0xBEE51987);
    let ops = gen_ops(&mut rng, 40);

    let mut server = ServerProc::spawn(&dir, 4);
    let mut client = PipeClient::connect(server.addr).expect("connect");
    // Ack every op in order; each ack means logged + published.
    let acked = ops.len();
    for op in &ops {
        let result = if op.insert {
            client.insert(&op.atom())
        } else {
            client.retract(&op.atom())
        };
        result.expect("acked update");
    }
    // One more update *in flight*: written to the socket, never
    // waited for — the kill races its processing, so recovery may
    // land on either side of it.
    let inflight = Op {
        insert: true,
        a: "zz".into(),
        b: "ww".into(),
    };
    let mut raw = TcpStream::connect(server.addr).expect("raw connect");
    raw.write_all(format!("INSERT {}\n", inflight.atom()).as_bytes())
        .expect("fire in-flight update");
    raw.flush().expect("flush in-flight update");
    server.kill();

    let mut all = ops.clone();
    all.push(inflight);
    // Restart over the same directory: recovery must finish before the
    // ADDR line prints.
    let server = ServerProc::spawn(&dir, 4);
    let mut client = PipeClient::connect(server.addr).expect("reconnect");
    let recovered = read_base(&mut client);
    let matched = (acked..=all.len()).find(|&m| recovered == oracle(&all, m));
    assert!(
        matched.is_some(),
        "recovered state matches no acked-or-longer prefix: {} edges recovered, \
         acked prefix has {}",
        recovered.len(),
        oracle(&all, acked).len()
    );

    // The recovered server is fully live: maintained views answer over
    // recovered state, and new writes stack on top of it.
    let anc = client.query("anc(n0, Y)").expect("query anc over recovery");
    assert!(anc.rows.len() >= 16, "the seed chain survived recovery");
    client
        .insert("par(post, crash)")
        .expect("post-recovery write");
    let after = read_base(&mut client);
    assert_eq!(after.len(), recovered.len() + 1);
    let stats = client.stats().expect("stats");
    assert!(
        stats.last_checkpoint > 0,
        "checkpoint cadence 4 must have checkpointed during the stream"
    );
}

#[test]
fn sixty_four_bindings_come_back_as_seeds_of_one_view() {
    // 64 warm bindings over one chain, checkpointed as 64 `(key, query)`
    // lines, SIGKILLed: recovery re-plans each line — the first builds the
    // view, the rest add a seed — so the restarted server holds all 64
    // bindings over one maintained fixpoint before its first query, and
    // every acked edge is in what they answer.
    let dir = tmp_dir("sixtyfour");
    let mut server = ServerProc::spawn(&dir, 4);
    let mut client = PipeClient::connect(server.addr).expect("connect");
    // Grow the 16-edge seed chain to n0 -> ... -> n64, every edge acked.
    for i in 16..64 {
        let ack = client
            .insert(&format!("par(n{i}, n{})", i + 1))
            .expect("acked insert");
        assert!(ack.applied);
    }
    for k in 0..64 {
        let reply = client.query(&format!("anc(n{k}, Y)")).expect("warm-up");
        assert_eq!(reply.rows.len(), 64 - k);
    }
    let warm = client.stats().expect("stats");
    assert_eq!((warm.views, warm.materialized), (64, 1));
    // Past the next checkpoint (every 4 frames), which is what persists
    // the bindings; these edges hang off the chain's far end, so every
    // binding's answer grows with each.
    for i in 0..6 {
        client
            .insert(&format!("par(n64, leaf{i})"))
            .expect("acked insert");
    }
    server.kill();

    let server = ServerProc::spawn(&dir, 4);
    let mut client = PipeClient::connect(server.addr).expect("reconnect");
    let recovered = client.stats().expect("stats before any query");
    assert_eq!(
        (recovered.views, recovered.materialized),
        (64, 1),
        "recovery must bring back every exported binding, as seeds of one view"
    );
    for k in 0..64 {
        let reply = client
            .query(&format!("anc(n{k}, Y)"))
            .expect("a recovered binding answers");
        assert_eq!(
            reply.rows.len(),
            64 - k + 6,
            "anc(n{k}, Y) lost acked edges across the restart"
        );
    }
    // All cache hits: no binding had to be re-materialized.
    let after = client.stats().expect("stats");
    assert_eq!(after.version, recovered.version);
    // And the recovered view is live: one more edge moves all 64.
    client
        .insert("par(n64, post)")
        .expect("post-recovery write");
    let reply = client.query("anc(n0, Y)").expect("query after the write");
    assert_eq!(reply.rows.len(), 64 + 7);
}

#[test]
fn torn_final_wal_frame_is_truncated_never_replayed() {
    let dir = tmp_dir("torn");
    // Cadence high enough that nothing checkpoints after the initial
    // seed checkpoint: every op lives in the WAL, so the tear sits at
    // the end of a log recovery genuinely needs.
    let mut server = ServerProc::spawn(&dir, 100_000);
    let mut client = PipeClient::connect(server.addr).expect("connect");
    let ops: Vec<Op> = (0..5)
        .map(|i| Op {
            insert: true,
            a: format!("t{i}"),
            b: format!("t{}", i + 1),
        })
        .collect();
    for op in &ops {
        client.insert(&op.atom()).expect("acked insert");
    }
    server.kill();

    // Simulate dying mid-append: a frame header promising more bytes
    // than follow, with a garbage checksum.
    let wal = dir.join("wal.log");
    let before = std::fs::metadata(&wal).expect("wal exists").len();
    let mut file = std::fs::OpenOptions::new()
        .append(true)
        .open(&wal)
        .expect("open wal");
    file.write_all(&[0x40, 0, 0, 0, 0xDE, 0xAD, 0xBE, 0xEF, b'I', b' ', b'p'])
        .expect("append torn frame");
    drop(file);

    let mut server = ServerProc::spawn(&dir, 100_000);
    let mut client = PipeClient::connect(server.addr).expect("reconnect");
    // Every acked op survived; the torn frame contributed nothing.
    assert_eq!(read_base(&mut client), oracle(&ops, ops.len()));
    // Recovery healed the file on disk, not just in memory.
    assert!(std::fs::metadata(&wal).expect("wal exists").len() <= before);
    client.insert("par(after, tear)").expect("post-tear write");
    server.kill();

    // And the healed log replays cleanly on a third start.
    let server = ServerProc::spawn(&dir, 100_000);
    let mut client = PipeClient::connect(&server.addr).expect("third connect");
    let mut expected = oracle(&ops, ops.len());
    expected.insert(("after".into(), "tear".into()));
    assert_eq!(read_base(&mut client), expected);
    drop(server);
}

#[test]
fn quoted_constants_are_acked_answered_and_recovered() {
    // Constants that are not bare lower-case identifiers travel quoted
    // in answers and in the WAL.  Written bare, the restart below
    // refused its own log as corrupt and the answer rows did not parse.
    let dir = tmp_dir("quoted");
    let descendants = |client: &mut PipeClient| -> BTreeSet<String> {
        client
            .query("anc(n15, Y)")
            .expect("query anc(n15, Y)")
            .rows
            .iter()
            .map(|row| row[0].to_string())
            .collect()
    };
    let expected: BTreeSet<String> = ["n16", "'New York'", "'X'"].map(String::from).into();

    let mut server = ServerProc::spawn(&dir, 100_000);
    let mut client = PipeClient::connect(server.addr).expect("connect");
    for fact in ["par(n16, 'New York')", "par('New York', 'X')"] {
        assert!(client.insert(fact).expect("acked insert").applied);
    }
    assert_eq!(descendants(&mut client), expected);
    server.kill();

    let server = ServerProc::spawn(&dir, 100_000);
    let mut client = PipeClient::connect(server.addr).expect("reconnect");
    assert_eq!(descendants(&mut client), expected);
    drop(server);
}

#[test]
fn overload_sheds_busy_and_every_acked_update_survives_restart() {
    // Overload acceptance: a deliberately wedged writer (every early
    // WAL append stalled by an injected fault) behind a tiny queue
    // bound, hammered by more concurrent writers than the queue can
    // hold.  The server must shed with `BUSY` — never queue without
    // bound, never panic — and after a SIGKILL + restart the recovered
    // state must contain *every* acked fact and *no* shed fact: a shed
    // is a refusal, not a silent drop of something promised.
    let dir = tmp_dir("overload");
    let mut server = ServerProc::spawn_with_env(
        &dir,
        4,
        &[
            // Stall the first 40 appends 60ms each: the writer stays
            // busy while the front door keeps having to decide.
            ("MAGIC_FAULTS", "wal-stall=1x40:60"),
            ("MAGIC_SERVE_QUEUE_DEPTH", "2"),
        ],
    );
    let addr = server.addr;

    // Six writer threads race distinct facts at a queue of two.  Each
    // op is one unique fact, so the restart oracle is exact set
    // arithmetic: acked ⊆ recovered, shed ∩ recovered = ∅, and
    // anything with unknown outcome (timeout/transport) may go either
    // way.
    let workers: Vec<_> = (0..6)
        .map(|w| {
            std::thread::spawn(move || {
                let mut acked = Vec::new();
                let mut shed = Vec::new();
                let mut unknown = Vec::new();
                let mut client = PipeClient::connect(addr).expect("worker connect");
                for i in 0..10 {
                    let (a, b) = (format!("w{w}a{i}"), format!("w{w}b{i}"));
                    match client.insert(&format!("par({a}, {b})")) {
                        Ok(_) => acked.push((a, b)),
                        Err(ClientError::Busy { retry_after_ms, .. }) => {
                            assert!(retry_after_ms > 0, "BUSY must carry a retry hint");
                            shed.push((a, b));
                        }
                        Err(ClientError::Degraded(m)) => {
                            panic!("stall faults must not degrade the server: {m}")
                        }
                        Err(_) => unknown.push((a, b)),
                    }
                }
                (acked, shed, unknown)
            })
        })
        .collect();
    let mut acked = BTreeSet::new();
    let mut shed = BTreeSet::new();
    let mut unknown = BTreeSet::new();
    for worker in workers {
        let (a, s, u) = worker.join().expect("worker thread");
        acked.extend(a);
        shed.extend(s);
        unknown.extend(u);
    }
    assert!(
        !shed.is_empty(),
        "six writers against a queue of two behind a stalled writer must shed"
    );
    assert!(!acked.is_empty(), "some writes must still get through");

    // The server survived the storm: it answers, and it counted the
    // sheds it issued.
    let mut client = PipeClient::connect(addr).expect("post-storm connect");
    let stats = client.stats().expect("post-storm stats");
    assert!(
        stats.shed_updates >= shed.len() as u64,
        "sheds issued ({}) must be counted (stats: {})",
        shed.len(),
        stats.shed_updates
    );
    assert_eq!(stats.degraded, 0, "stalls are slow, not broken");
    server.kill();

    // Kill + restart: the oracle over unique facts.
    let server = ServerProc::spawn(&dir, 4);
    let mut client = PipeClient::connect(server.addr).expect("restart connect");
    let recovered = read_base(&mut client);
    for edge in &acked {
        assert!(
            recovered.contains(edge),
            "acked fact lost across restart: {edge:?}"
        );
    }
    for edge in &shed {
        assert!(
            !recovered.contains(edge),
            "BUSY-shed fact silently applied: {edge:?}"
        );
    }
    // Everything recovered is accounted for: seed, acked, or an
    // unknown-outcome op that landed.
    let seed = seed_edges();
    for edge in &recovered {
        assert!(
            seed.contains(edge) || acked.contains(edge) || unknown.contains(edge),
            "recovered fact nobody sent: {edge:?}"
        );
    }
}
