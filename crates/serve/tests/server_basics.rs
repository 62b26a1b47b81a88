//! Server lifecycle and protocol behavior over a real TCP connection.

use magic_core::planner::Strategy;
use magic_datalog::parse_program;
use magic_engine::Limits;
use magic_serve::{ClientError, PipeClient, ServeConfig, Server, ServerHandle};
use magic_storage::Database;
use std::io::{Read, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

fn ancestor_server() -> ServerHandle {
    let program = parse_program(
        "anc(X, Y) :- par(X, Y).
         anc(X, Y) :- par(X, Z), anc(Z, Y).",
    )
    .unwrap();
    let mut db = Database::new();
    for (a, b) in [("a", "b"), ("b", "c"), ("c", "d")] {
        db.insert_pair("par", a, b);
    }
    Server::start(program, db, "127.0.0.1:0", ServeConfig::default()).unwrap()
}

#[test]
fn query_insert_retract_round_trip() {
    let mut server = ancestor_server();
    let mut client = PipeClient::connect(server.addr()).unwrap();

    let reply = client.query("anc(a, Y)").unwrap();
    assert_eq!(reply.rows.len(), 3); // b, c, d
                                     // The key names the adorned answer predicate, the query's bound
                                     // constants and the rewrite strategy: `anc_bf[bf](a)@gms`.
    assert!(
        reply.key.contains("[bf](a)") && reply.key.ends_with("@gms"),
        "key: {}",
        reply.key
    );

    // A duplicate insert is acknowledged as a no-op and publishes nothing.
    let ack = client.insert("par(a, b)").unwrap();
    assert!(!ack.applied);

    let ack = client.insert("par(d, e)").unwrap();
    assert!(ack.applied);
    let reply2 = client.query("anc(a, Y)").unwrap();
    assert_eq!(reply2.rows.len(), 4);
    assert!(
        reply2.version >= ack.version,
        "acknowledged write must be visible: ack v{}, read v{}",
        ack.version,
        reply2.version
    );

    let ack = client.retract("par(d, e)").unwrap();
    assert!(ack.applied);
    assert_eq!(client.query("anc(a, Y)").unwrap().rows.len(), 3);

    // Distinct bindings materialize distinct views.
    assert_eq!(client.query("anc(b, Y)").unwrap().rows.len(), 2);
    let stats = client.stats().unwrap();
    assert_eq!(stats.views, 2);
    assert_eq!(stats.per_view.len(), 2);
    assert!(stats.queries_served >= 4);
    assert!(stats.updates_applied >= 2);
    assert!(stats.rule_firings > 0);

    drop(client);
    server.shutdown();
}

#[test]
fn derived_updates_and_bad_requests_are_rejected() {
    let mut server = ancestor_server();
    let mut client = PipeClient::connect(server.addr()).unwrap();

    let err = client.insert("anc(a, d)").unwrap_err();
    assert!(matches!(err, ClientError::Server(_)), "got: {err}");

    let err = client.query("anc(a Y").unwrap_err();
    assert!(matches!(err, ClientError::Server(_)), "got: {err}");

    // Arity mismatches surface as writer-side errors, not poisoned state.
    let err = client.insert("par(a, b, c)").unwrap_err();
    assert!(matches!(err, ClientError::Server(_)), "got: {err}");

    // The connection stays usable after errors.
    client.ping().unwrap();
    assert_eq!(client.query("anc(a, Y)").unwrap().rows.len(), 3);
    server.shutdown();
}

#[test]
fn concurrent_readers_share_snapshots() {
    let mut server = ancestor_server();
    // Warm the binding once so the readers exercise the pure
    // snapshot-read path.
    PipeClient::connect(server.addr())
        .unwrap()
        .query("anc(a, Y)")
        .unwrap();

    let addr = server.addr();
    let readers: Vec<_> = (0..4)
        .map(|_| {
            std::thread::spawn(move || {
                let mut client = PipeClient::connect(addr).unwrap();
                for _ in 0..25 {
                    let reply = client.query("anc(a, Y)").unwrap();
                    assert_eq!(reply.rows.len(), 3);
                }
            })
        })
        .collect();
    for reader in readers {
        reader.join().unwrap();
    }
    assert!(server.queries_served() >= 101);
    server.shutdown();
}

#[test]
fn racing_new_predicate_arities_never_kill_the_writer() {
    // Two clients race inserts of a predicate unknown to both the
    // program and the base database, at different arities.  Whatever
    // batch the writer coalesces them into, exactly the second-applied
    // arity must be rejected per update (never a storage panic that
    // would silently disable all writes).
    let mut server = ancestor_server();
    let addr = server.addr();
    let racers: Vec<_> = (0..2)
        .map(|i| {
            std::thread::spawn(move || {
                let mut client = PipeClient::connect(addr).unwrap();
                let fact = if i == 0 { "zzz(a)" } else { "zzz(a, b)" };
                client.insert(fact).is_ok()
            })
        })
        .collect();
    let outcomes: Vec<bool> = racers.into_iter().map(|t| t.join().unwrap()).collect();
    assert!(
        outcomes.iter().any(|&ok| ok),
        "one arity must win: {outcomes:?}"
    );
    // The writer must still be alive and serving both reads and writes.
    let mut client = PipeClient::connect(addr).unwrap();
    assert!(client.insert("par(d, e)").unwrap().applied);
    assert_eq!(client.query("anc(a, Y)").unwrap().rows.len(), 4);
    server.shutdown();
}

#[test]
fn wire_shutdown_stops_the_server() {
    let mut server = ancestor_server();
    let addr = server.addr();
    PipeClient::connect(addr)
        .unwrap()
        .query("anc(a, Y)")
        .unwrap();
    // `SHUTDOWN` is a text-protocol verb.
    let mut raw = TcpStream::connect(addr).unwrap();
    raw.write_all(b"SHUTDOWN\n").unwrap();
    let mut bye = [0u8; 7];
    raw.read_exact(&mut bye).unwrap();
    assert_eq!(&bye, b"OK bye\n");
    // The handle's shutdown must join cleanly even though the stop came
    // over the wire.
    server.shutdown();
    // New connections are no longer served (either refused outright or
    // closed without an answer).
    if let Ok(mut late) = PipeClient::connect(addr) {
        assert!(late.ping().is_err());
    }
}

#[test]
fn max_views_evicts_cold_bindings_and_reheals_on_next_sight() {
    let program = parse_program(
        "anc(X, Y) :- par(X, Y).
         anc(X, Y) :- par(X, Z), anc(Z, Y).",
    )
    .unwrap();
    let mut db = Database::new();
    for (a, b) in [("a", "b"), ("b", "c"), ("c", "d")] {
        db.insert_pair("par", a, b);
    }
    let config = ServeConfig {
        max_views: 2,
        ..ServeConfig::default()
    };
    let mut server = Server::start(program, db, "127.0.0.1:0", config).unwrap();
    let mut client = PipeClient::connect(server.addr()).unwrap();

    // Three distinct bindings against a cap of two: the first (coldest)
    // binding is evicted from both the catalog and the published
    // snapshot.
    assert_eq!(client.query("anc(a, Y)").unwrap().rows.len(), 3);
    assert_eq!(client.query("anc(b, Y)").unwrap().rows.len(), 2);
    assert_eq!(client.query("anc(c, Y)").unwrap().rows.len(), 1);
    let stats = client.stats().unwrap();
    assert_eq!(stats.views, 2, "cap must hold: {:?}", stats.per_view);

    // The evicted binding still answers — it re-materializes from the
    // authoritative base facts on next sight (evicting the new coldest),
    // and sees every update applied while it was cold.
    assert!(client.insert("par(d, e)").unwrap().applied);
    assert_eq!(client.query("anc(a, Y)").unwrap().rows.len(), 4);
    let stats = client.stats().unwrap();
    assert_eq!(stats.views, 2);
    assert!(
        stats.per_view.iter().any(|v| v.key.contains("(a)")),
        "re-materialized binding must be live: {:?}",
        stats.per_view
    );
    server.shutdown();
}

#[test]
fn tiny_max_views_materialize_evict_races_never_panic_the_writer() {
    // `max_views: 1` makes every distinct binding evict the previous
    // one, so concurrent first-sight queries race materialization
    // against eviction as hard as possible.  The writer once held an
    // `expect("binding was just materialized")` on this path — under a
    // cap this tight, a materialize whose binding is clawed back
    // immediately must surface as a retryable error (or a served
    // retry), never a writer panic that would wedge all future writes.
    let program = parse_program(
        "anc(X, Y) :- par(X, Y).
         anc(X, Y) :- par(X, Z), anc(Z, Y).",
    )
    .unwrap();
    let mut db = Database::new();
    for (a, b) in [("a", "b"), ("b", "c"), ("c", "d")] {
        db.insert_pair("par", a, b);
    }
    let config = ServeConfig {
        max_views: 1,
        ..ServeConfig::default()
    };
    let mut server = Server::start(program, db, "127.0.0.1:0", config).unwrap();
    let addr = server.addr();

    let racers: Vec<_> = (0..4)
        .map(|t| {
            std::thread::spawn(move || {
                let mut client = PipeClient::connect(addr).unwrap();
                let (query, rows) = match t % 3 {
                    0 => ("anc(a, Y)", 3),
                    1 => ("anc(b, Y)", 2),
                    _ => ("anc(c, Y)", 1),
                };
                let mut served = 0usize;
                for _ in 0..25 {
                    match client.query(query) {
                        Ok(reply) => {
                            assert_eq!(reply.rows.len(), rows, "wrong answers for {query}");
                            served += 1;
                        }
                        // Losing the materialize/evict race repeatedly
                        // is legal under a cap of one; what matters is
                        // that it is an *error*, not a dead writer.
                        Err(ClientError::Server(m)) => {
                            assert!(m.contains("evicted"), "unexpected refusal: {m}")
                        }
                        Err(e) => panic!("unexpected failure: {e}"),
                    }
                }
                served
            })
        })
        .collect();
    let served: usize = racers.into_iter().map(|t| t.join().unwrap()).sum();
    assert!(served > 0, "some queries must win the race");

    // The writer survived the storm: reads and writes both still work.
    let mut client = PipeClient::connect(addr).unwrap();
    assert!(client.insert("par(d, e)").unwrap().applied);
    assert_eq!(client.query("anc(a, Y)").unwrap().rows.len(), 4);
    let stats = client.stats().unwrap();
    assert!(stats.views <= 1, "the cap must hold: {:?}", stats.per_view);
    server.shutdown();
}

#[test]
fn strict_limits_surface_as_errors_not_hangs() {
    let program = parse_program(
        "anc(X, Y) :- par(X, Y).
         anc(X, Y) :- par(X, Z), anc(Z, Y).",
    )
    .unwrap();
    let mut db = Database::new();
    for i in 0..50 {
        db.insert_pair("par", &format!("n{i}"), &format!("n{}", i + 1));
    }
    let config = ServeConfig {
        strategy: Strategy::MagicSets,
        limits: Limits::default().with_max_facts(3),
        ..ServeConfig::default()
    };
    let mut server = Server::start(program, db, "127.0.0.1:0", config).unwrap();
    let mut client = PipeClient::connect(server.addr()).unwrap();
    let err = client.query("anc(n0, Y)").unwrap_err();
    assert!(matches!(err, ClientError::Server(_)), "got: {err}");
    client.ping().unwrap();
    server.shutdown();
}

#[test]
fn ttl_sweeps_run_while_updates_keep_the_writer_busy() {
    // An update every few milliseconds never lets the writer wait out a
    // sweep interval (a quarter TTL, at least 10 ms); the binding idle
    // past its TTL must be evicted all the same.
    let program = parse_program(
        "anc(X, Y) :- par(X, Y).
         anc(X, Y) :- par(X, Z), anc(Z, Y).",
    )
    .unwrap();
    let mut db = Database::new();
    for (a, b) in [("a", "b"), ("b", "c"), ("c", "d")] {
        db.insert_pair("par", a, b);
    }
    let config = ServeConfig {
        view_ttl: Duration::from_millis(40),
        ..ServeConfig::default()
    };
    let mut server = Server::start(program, db, "127.0.0.1:0", config).unwrap();
    let mut client = PipeClient::connect(server.addr()).unwrap();
    assert_eq!(client.query("anc(a, Y)").unwrap().rows.len(), 3);
    let start = Instant::now();
    let mut i = 0;
    while start.elapsed() < Duration::from_millis(300) {
        assert!(client.insert(&format!("par(x{i}, y{i})")).unwrap().applied);
        i += 1;
        std::thread::sleep(Duration::from_millis(3));
    }
    let stats = client.stats().unwrap();
    assert_eq!(stats.views, 0, "idle past its TTL: {:?}", stats.per_view);
    assert_eq!(stats.views_evicted, 1);
    server.shutdown();
}
