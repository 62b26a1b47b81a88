//! The readiness-driven data path: every serve thread blocks until a
//! socket, a writer's reply or a timer needs it, so these tests hold
//! what a lost wake-up or a forgotten timer would break — each one
//! hangs into its watchdog or read timeout if the thread it waits on
//! never wakes.
//!
//! * timers that must fire with a *silent* socket: the writer deadline
//!   of a parked update, the write timeout of a client that stopped
//!   reading, the end of an injected connection stall;
//! * shutdown, from the handle and over the wire, with idle
//!   connections spread over the reader pool;
//! * an idle server makes no reader wake-ups at all;
//! * window-1 round trips are no longer floored by a sleep, and a loud
//!   pipelined connection does not starve a quiet one on its reader.

#![cfg(unix)]

mod common;

use magic_datalog::parse_program;
use magic_durable::{DurableConfig, FaultPlan};
use magic_serve::{ClientError, PipeClient, ServeConfig, Server, ServerHandle};
use magic_storage::Database;
use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::channel;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// The tests that read a clock or load the machine take this in turn:
/// the harness runs a file's tests on parallel threads, and a latency
/// median measured beside a 20 MB response backlog measures the backlog.
static ONE_AT_A_TIME: Mutex<()> = Mutex::new(());

fn one_at_a_time() -> std::sync::MutexGuard<'static, ()> {
    ONE_AT_A_TIME
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// `anc` over a chain `n0 → n1 → … → n<nodes>`.
fn start_chain(nodes: usize, config: ServeConfig) -> ServerHandle {
    let program = parse_program(
        "anc(X, Y) :- par(X, Y).
         anc(X, Y) :- par(X, Z), anc(Z, Y).",
    )
    .unwrap();
    let mut db = Database::new();
    for i in 0..nodes {
        db.insert_pair("par", &format!("n{i}"), &format!("n{}", i + 1));
    }
    Server::start(program, db, "127.0.0.1:0", config).unwrap()
}

/// Run `f` on its own thread and fail if it has not returned within
/// `limit` — how a test says "this must not hang" about a join.
fn within<T: Send + 'static>(
    limit: Duration,
    what: &str,
    f: impl FnOnce() -> T + Send + 'static,
) -> T {
    let (tx, rx) = channel();
    std::thread::spawn(move || {
        let _ = tx.send(f());
    });
    rx.recv_timeout(limit)
        .unwrap_or_else(|_| panic!("{what} did not finish within {limit:?}"))
}

fn median(samples: &mut [Duration]) -> Duration {
    samples.sort();
    samples[samples.len() / 2]
}

/// A raw text-protocol connection that has been served once, so its
/// reader thread has adopted it, and is idle from here on.
fn idle_connection(server: &ServerHandle) -> TcpStream {
    let mut raw = TcpStream::connect(server.addr()).unwrap();
    raw.write_all(b"PING\n").unwrap();
    let mut pong = [0u8; 8];
    raw.read_exact(&mut pong).unwrap();
    assert_eq!(&pong, b"OK pong\n");
    raw
}

#[test]
fn a_parked_update_times_out_at_the_writer_deadline_on_a_silent_socket() {
    let dir = common::tmp_dir("readiness-deadline");
    // The first WAL append sleeps 600 ms: the writer's own reply comes
    // far too late, the client sends nothing more, and only the slot's
    // deadline can end the wait at 60 ms.
    let config = ServeConfig {
        durability: Some(DurableConfig::new(&dir)),
        faults: Some(Arc::new(FaultPlan::parse("wal-stall=1:600").unwrap())),
        writer_deadline: Duration::from_millis(60),
        ..ServeConfig::default()
    };
    let mut server = start_chain(3, config);
    let mut client = PipeClient::connect(server.addr()).unwrap();

    let asked = Instant::now();
    let err = client.insert("par(late, ack)").unwrap_err();
    let waited = asked.elapsed();
    assert!(
        matches!(err, ClientError::Timeout(_)),
        "want Timeout, got: {err}"
    );
    assert!(
        waited >= Duration::from_millis(60) && waited < Duration::from_millis(400),
        "TIMEOUT must come at the 60 ms deadline, not with the writer's reply: {waited:?}"
    );
    assert_eq!(client.stats().unwrap().deadline_misses, 1);

    within(Duration::from_secs(5), "shutdown", move || {
        server.shutdown()
    });
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_client_that_stops_reading_is_closed_at_the_write_timeout() {
    let _turn = one_at_a_time();
    let config = ServeConfig {
        write_timeout: Duration::from_millis(200),
        ..ServeConfig::default()
    };
    let mut server = start_chain(400, config);
    let mut watcher = PipeClient::connect(server.addr()).unwrap();
    assert_eq!(watcher.query("anc(n0, Y)").unwrap().rows.len(), 400);

    // ~20 MB of responses for a client that reads none of them: the
    // socket buffers fill, the rest sticks in the server, and from then
    // on the connection is silent in both directions.
    let mut deaf = TcpStream::connect(server.addr()).unwrap();
    deaf.write_all("QUERY anc(n0, Y)\n".repeat(4000).as_bytes())
        .unwrap();
    let sent = Instant::now();
    loop {
        let stats = watcher.stats().unwrap();
        if stats.write_errors >= 1 {
            break;
        }
        assert!(
            sent.elapsed() < Duration::from_secs(5),
            "the stalled connection was never closed: {stats:?}"
        );
        std::thread::sleep(Duration::from_millis(20));
    }
    assert!(
        sent.elapsed() >= Duration::from_millis(200),
        "closed before the write timeout: {:?}",
        sent.elapsed()
    );
    // Closed for real: draining what the kernel still holds ends in
    // end-of-stream or a reset, not in a read that waits forever.
    deaf.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
    let mut sink = vec![0u8; 1 << 16];
    loop {
        match deaf.read(&mut sink) {
            Ok(0) => break,
            Ok(_) => {}
            Err(e) => {
                assert!(
                    !matches!(
                        e.kind(),
                        std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                    ),
                    "the server kept the stalled connection open"
                );
                break;
            }
        }
    }
    // The reader that owned it is still serving.
    watcher.ping().unwrap();
    server.shutdown();
}

#[test]
fn a_stalled_connection_is_served_once_its_stall_ends() {
    let config = ServeConfig {
        faults: Some(Arc::new(FaultPlan::parse("conn-stall=1:150").unwrap())),
        ..ServeConfig::default()
    };
    let mut server = start_chain(3, config);
    // The request arrives at once and nothing follows it: only the
    // stall's own timer can get it served.
    let asked = Instant::now();
    let mut raw = TcpStream::connect(server.addr()).unwrap();
    raw.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
    raw.write_all(b"PING\n").unwrap();
    let mut pong = [0u8; 8];
    raw.read_exact(&mut pong)
        .expect("the stalled connection was never served");
    let waited = asked.elapsed();
    assert_eq!(&pong, b"OK pong\n");
    assert!(
        waited >= Duration::from_millis(150) && waited < Duration::from_secs(2),
        "served {waited:?} after connecting, stall was 150 ms"
    );
    server.shutdown();
}

#[test]
fn shutdown_with_idle_connections_joins_every_thread() {
    let mut server = start_chain(3, ServeConfig::default());
    let mut idle: Vec<TcpStream> = (0..32).map(|_| idle_connection(&server)).collect();
    // Every reader is blocked with no timer pending; only the handle's
    // wake-up gets it to the shutdown flag.
    within(
        Duration::from_secs(2),
        "ServerHandle::shutdown",
        move || server.shutdown(),
    );
    for raw in &mut idle {
        raw.set_read_timeout(Some(Duration::from_secs(2))).unwrap();
        let mut byte = [0u8; 1];
        assert!(
            !matches!(raw.read(&mut byte), Ok(n) if n > 0),
            "an idle connection was sent bytes at shutdown"
        );
    }
}

#[test]
fn a_wire_shutdown_stops_readers_that_own_only_idle_connections() {
    let config = ServeConfig {
        reader_threads: 4,
        ..ServeConfig::default()
    };
    let mut server = start_chain(3, config);
    let mut idle: Vec<TcpStream> = (0..32).map(|_| idle_connection(&server)).collect();
    // The request lands on one reader; the other three own nothing but
    // idle connections and hear of it only through their wakers.
    // `SHUTDOWN` is a text-protocol verb.
    let mut raw = TcpStream::connect(server.addr()).unwrap();
    raw.write_all(b"SHUTDOWN\n").unwrap();
    let mut bye = [0u8; 7];
    raw.read_exact(&mut bye).unwrap();
    assert_eq!(&bye, b"OK bye\n");
    for raw in &mut idle {
        raw.set_read_timeout(Some(Duration::from_secs(2))).unwrap();
        let mut byte = [0u8; 1];
        match raw.read(&mut byte) {
            Ok(0) => {}
            Ok(_) => panic!("an idle connection was sent bytes at shutdown"),
            Err(e) => assert!(
                !matches!(
                    e.kind(),
                    std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                ),
                "a reader with only idle connections never saw the shutdown"
            ),
        }
    }
    within(
        Duration::from_secs(2),
        "ServerHandle::shutdown",
        move || server.shutdown(),
    );
}

#[test]
fn idle_connections_cost_no_reader_wakeups() {
    let _turn = one_at_a_time();
    let mut server = start_chain(3, ServeConfig::default());
    let _idle: Vec<TcpStream> = (0..8).map(|_| idle_connection(&server)).collect();
    let mut probe = PipeClient::connect(server.addr()).unwrap();
    let mut wakeups = || {
        let id = probe.submit_stats().unwrap();
        probe.wait_stats(id).unwrap().reader_wakeups
    };
    let before = wakeups();
    std::thread::sleep(Duration::from_millis(300));
    let after = wakeups();
    // The second STATS frame itself ends one wait; nothing else may.
    // (A pool that naps on a 1 ms timer makes several hundred passes
    // here.)
    assert!(
        after - before <= 1,
        "{} reader wake-ups in 300 idle milliseconds",
        after - before
    );
    server.shutdown();
}

#[test]
fn window_one_round_trips_are_not_floored_by_a_sleep() {
    let _turn = one_at_a_time();
    const SAMPLES: usize = 300;
    // Long enough that the reader has certainly gone back to waiting.
    const THINK: Duration = Duration::from_micros(200);
    let mut server = start_chain(3, ServeConfig::default());
    let mut pipe = PipeClient::connect(server.addr()).unwrap();
    let id = pipe.submit_query("anc(n0, Y)").unwrap();
    assert_eq!(pipe.wait_query(id).unwrap().rows.len(), 3);

    let mut timed = |name: &str, op: &mut dyn FnMut(&mut PipeClient, usize)| {
        let mut samples = Vec::with_capacity(SAMPLES);
        for i in 0..SAMPLES {
            let sent = Instant::now();
            op(&mut pipe, i);
            samples.push(sent.elapsed());
            std::thread::sleep(THINK);
        }
        let p50 = median(&mut samples);
        assert!(
            p50 < Duration::from_micros(500),
            "{name}: median round trip {p50:?} over {SAMPLES} samples"
        );
    };
    timed("PING", &mut |pipe, _| {
        let id = pipe.submit_ping().unwrap();
        pipe.wait_pong(id).unwrap();
    });
    // Served from the rendered-response cache.
    timed("QUERY", &mut |pipe, _| {
        let id = pipe.submit_query("anc(n0, Y)").unwrap();
        assert!(!pipe.wait_response_timed(id).unwrap().0.is_empty());
    });
    // Through the writer and back: two more thread hand-offs, each by
    // wake-up, none by timer.  Its wall time in a debug build is mostly
    // view maintenance, so the round trips are counted in reader
    // wake-ups instead of timed: one when the request's bytes arrive,
    // one when the writer's answer does.  A reader that naps on a timer
    // or leaves a window-1 connection lingering wakes more often, as
    // long as the client thinks for longer than the nap.
    const INSERT_THINK: Duration = Duration::from_millis(2);
    let wakeups = |pipe: &mut PipeClient| {
        let id = pipe.submit_stats().unwrap();
        pipe.wait_stats(id).unwrap().reader_wakeups
    };
    let before = wakeups(&mut pipe);
    for i in 0..SAMPLES {
        let id = pipe.submit_insert(&format!("par(x{i}, y{i})")).unwrap();
        assert!(pipe.wait_ack(id).unwrap().applied);
        std::thread::sleep(INSERT_THINK);
    }
    // The second STATS frame ends one more wait.
    let woken = wakeups(&mut pipe) - before;
    assert!(
        woken <= 2 * SAMPLES as u64 + 1,
        "INSERT: {woken} reader wake-ups over {SAMPLES} window-1 round trips"
    );
    server.shutdown();
}

#[test]
fn a_loud_pipelined_connection_does_not_starve_a_quiet_one() {
    let _turn = one_at_a_time();
    // One reader owns both connections.
    let config = ServeConfig {
        reader_threads: 1,
        ..ServeConfig::default()
    };
    let mut server = start_chain(3, config);
    let addr = server.addr();
    let stop = Arc::new(AtomicBool::new(false));
    let loud = {
        let stop = Arc::clone(&stop);
        std::thread::spawn(move || {
            let mut pipe = PipeClient::connect(addr).unwrap();
            let mut served = 0u64;
            while !stop.load(Ordering::Relaxed) {
                let ids: Vec<u64> = (0..64).map(|_| pipe.submit_ping().unwrap()).collect();
                for id in ids {
                    pipe.wait_pong(id).unwrap();
                    served += 1;
                }
            }
            served
        })
    };
    let mut quiet = PipeClient::connect(addr).unwrap();
    let mut samples = Vec::new();
    for _ in 0..100 {
        let sent = Instant::now();
        quiet.ping().unwrap();
        samples.push(sent.elapsed());
        std::thread::sleep(Duration::from_millis(1));
    }
    stop.store(true, Ordering::Relaxed);
    let served = loud.join().unwrap();
    assert!(served > 0, "the loud connection was never served");
    let p50 = median(&mut samples);
    assert!(
        p50 < Duration::from_millis(5),
        "quiet connection's median round trip beside a loud one: {p50:?}"
    );
    server.shutdown();
}
