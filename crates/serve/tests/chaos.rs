//! Deterministic fault injection against the real server process: the
//! degraded-mode acceptance tests.
//!
//! Every test here runs the spawned `durable_server` under a
//! `MAGIC_FAULTS` schedule (see [`magic_durable::faults`]) and checks
//! the degradation contract end to end:
//!
//! * a durable-path failure flips the server into *read-only degraded
//!   mode* — updates refused with `ERR DEGRADED …`, acks truthful,
//!   reads still serving the last consistent snapshot;
//! * a background probe exits degraded mode automatically once the
//!   fault schedule is exhausted;
//! * after a SIGKILL + restart, recovery contains every acked fact and
//!   **no refused fact** — a write the client was told failed must
//!   never resurrect from the log (the ghost-write hazard);
//! * connection-level faults (drop/stall) are survived by the client's
//!   reconnect-and-retry path without the server noticing.
//!
//! The final test sweeps seeded schedules from
//! [`magic_workloads::chaos_scenarios`] instead of hand-picked ones.

#![cfg(unix)]

mod common;

use common::{read_base, seed_edges, tmp_dir, ServerProc};
use magic_serve::{ClientError, PipeClient};
use magic_workloads::{chaos_scenarios, SplitMix64};
use std::collections::BTreeSet;
use std::time::{Duration, Instant};

/// Poll `STATS` until `degraded` reads `want` (or panic after ~5s).
fn wait_for_degraded(client: &mut PipeClient, want: u64) {
    let deadline = Instant::now() + Duration::from_secs(5);
    loop {
        let stats = client.stats().expect("stats while polling degraded");
        if stats.degraded == want {
            return;
        }
        assert!(
            Instant::now() < deadline,
            "server never reached degraded={want}"
        );
        std::thread::sleep(Duration::from_millis(20));
    }
}

#[test]
fn fsync_failure_degrades_then_probe_recovers_and_no_ghost_survives() {
    let dir = tmp_dir("chaos-fsync");
    // `always` fsync so the injected failure strikes the very batch
    // that caused it; two scheduled failures so the first probe also
    // fails (exercising the backoff) before the second one heals.
    let mut server = ServerProc::spawn_with_env(
        &dir,
        100_000,
        &[
            ("MAGIC_FAULTS", "wal-fsync-fail=1x2"),
            ("MAGIC_SERVE_FSYNC", "always"),
        ],
    );
    let mut client = PipeClient::connect(server.addr).expect("connect");

    // The poisoned write: refused, rolled back, and it flips the
    // server into degraded mode.
    let err = client.insert("par(ghost, one)").expect_err("must refuse");
    assert!(
        matches!(err, ClientError::Degraded(_)),
        "want Degraded, got: {err}"
    );
    // While degraded: reads serve, further updates are refused, and
    // STATS says so.  (`degraded_entered` is the sticky witness — the
    // probe may win the race and clear the live `degraded` flag
    // before we look.)
    assert_eq!(read_base(&mut client), seed_edges());
    let stats = client.stats().expect("degraded stats");
    assert_eq!(stats.degraded_entered, 1);
    if stats.degraded == 1 {
        match client.insert("par(ghost, two)") {
            Err(ClientError::Degraded(_)) => {}
            // The probe recovered between our STATS and this insert;
            // retract so the restart oracle below stays exact.
            Ok(_) => {
                client.retract("par(ghost, two)").expect("undo late ack");
            }
            Err(e) => panic!("want Degraded or late Ok, got: {e}"),
        }
    }

    // The probe burns the second scheduled failure, then heals;
    // degraded mode exits with no client intervention.
    wait_for_degraded(&mut client, 0);
    let ack = client.insert("par(healed, fine)").expect("post-recovery");
    assert!(ack.applied);

    // Kill + restart: the acked post-recovery write survives; neither
    // refused write resurrects from the log.
    server.kill();
    let server = ServerProc::spawn(&dir, 100_000);
    let mut client = PipeClient::connect(server.addr).expect("restart connect");
    let mut expected = seed_edges();
    expected.insert(("healed".into(), "fine".into()));
    assert_eq!(
        read_base(&mut client),
        expected,
        "exactly seed + acked must recover: refused writes are not ghosts"
    );
}

#[test]
fn torn_append_is_scrubbed_refused_and_never_replayed() {
    let dir = tmp_dir("chaos-torn");
    // The second append tears mid-frame: bytes hit the disk but the
    // batch errors.  The scrub + rollback must leave no trace — not in
    // memory, not in acks, and (the hazard) not on disk for recovery
    // to replay.
    let mut server = ServerProc::spawn_with_env(&dir, 100_000, &[("MAGIC_FAULTS", "wal-torn=2")]);
    let mut client = PipeClient::connect(server.addr).expect("connect");

    assert!(client.insert("par(first, ok)").expect("append 1").applied);
    let err = client
        .insert("par(torn, away)")
        .expect_err("append 2 tears");
    assert!(
        matches!(err, ClientError::Degraded(_)),
        "want Degraded, got: {err}"
    );
    wait_for_degraded(&mut client, 0);
    assert!(client.insert("par(third, ok)").expect("append 3").applied);

    server.kill();
    let server = ServerProc::spawn(&dir, 100_000);
    let mut client = PipeClient::connect(server.addr).expect("restart connect");
    let mut expected = seed_edges();
    expected.insert(("first".into(), "ok".into()));
    expected.insert(("third".into(), "ok".into()));
    assert_eq!(
        read_base(&mut client),
        expected,
        "the torn (refused) write must not be replayed"
    );
}

#[test]
fn checkpoint_rename_failure_degrades_without_breaking_acks() {
    let dir = tmp_dir("chaos-ckpt");
    // Rename #1 is the initial seed checkpoint (before the listener is
    // live); rename #2 — the first cadence checkpoint — fails.  The
    // batch that crossed the cadence was already acked off an intact
    // WAL, so its promise must hold through the degraded spell and a
    // later crash.
    let mut server = ServerProc::spawn_with_env(&dir, 2, &[("MAGIC_FAULTS", "ckpt-rename-fail=2")]);
    let mut client = PipeClient::connect(server.addr).expect("connect");

    assert!(client.insert("par(acked, a)").expect("insert 1").applied);
    assert!(client.insert("par(acked, b)").expect("insert 2").applied);
    // The cadence checkpoint behind insert 2 failed: the server went
    // degraded, but both acks above were honest (WAL-backed).  Wait on
    // the sticky entered-counter — the probe may retry the checkpoint
    // (rename #3, unfaulted) and clear the live flag at any moment.
    let deadline = Instant::now() + Duration::from_secs(5);
    let mut refused_while_down = false;
    loop {
        let stats = client.stats().expect("stats while polling entry");
        if stats.degraded_entered >= 1 {
            // Observed the degraded spell; if it is still live, the
            // front door must refuse.
            if stats.degraded == 1 {
                match client.insert("par(while, down)") {
                    Err(ClientError::Degraded(_)) => refused_while_down = true,
                    Ok(_) => {
                        // Probe won the race; undo to keep the oracle
                        // below exact.
                        client.retract("par(while, down)").expect("undo");
                    }
                    Err(e) => panic!("want Degraded or late Ok, got: {e}"),
                }
            }
            break;
        }
        assert!(Instant::now() < deadline, "server never entered degraded");
        std::thread::sleep(Duration::from_millis(10));
    }
    // Recovery is automatic.
    wait_for_degraded(&mut client, 0);
    assert!(
        client
            .insert("par(back, up)")
            .expect("post-recovery")
            .applied
    );

    server.kill();
    let server = ServerProc::spawn(&dir, 2);
    let mut client = PipeClient::connect(server.addr).expect("restart connect");
    let mut expected = seed_edges();
    expected.insert(("acked".into(), "a".into()));
    expected.insert(("acked".into(), "b".into()));
    expected.insert(("back".into(), "up".into()));
    assert_eq!(
        read_base(&mut client),
        expected,
        "refused-while-down observed: {refused_while_down}"
    );
    let stats = client.stats().expect("restart stats");
    assert!(
        stats.last_checkpoint > 0,
        "the probe's retried checkpoint must have landed"
    );
}

#[test]
fn four_shard_degradation_is_per_shard_and_never_ghosts() {
    // The sharded layout under the same WAL-failure contract: the
    // fault strikes one shard's log (all `par` updates serialize
    // through `par`'s home shard), exactly that shard degrades and
    // refuses, the probe heals it, and across a SIGKILL + restart the
    // refused write never resurrects while the acked one survives.
    //
    // The spec is hand-picked to strike *past boot*: WAL fsyncs only
    // happen on appends, so the four per-shard stores created at
    // startup (which do checkpoint) cannot eat the scheduled failures.
    let dir = tmp_dir("chaos-foursharded");
    let shards_env = [
        ("MAGIC_FAULTS", "wal-fsync-fail=1x2"),
        ("MAGIC_SERVE_FSYNC", "always"),
        ("MAGIC_SERVE_WRITER_SHARDS", "4"),
    ];
    let mut server = ServerProc::spawn_with_env(&dir, 100_000, &shards_env);
    let mut client = PipeClient::connect(server.addr).expect("connect");

    let err = client.insert("par(ghost, one)").expect_err("must refuse");
    assert!(
        matches!(err, ClientError::Degraded(_)),
        "want Degraded, got: {err}"
    );
    // Reads still serve the last consistent snapshot, and STATS pins
    // the degradation to exactly one shard.
    assert_eq!(read_base(&mut client), seed_edges());
    let stats = client.stats().expect("degraded stats");
    assert_eq!(stats.writer_shards, 4);
    assert_eq!(stats.degraded_entered, 1);
    assert_eq!(
        stats
            .per_shard
            .iter()
            .filter(|s| s.degraded_entered > 0)
            .count(),
        1,
        "exactly one shard owns the failure: {:?}",
        stats.per_shard
    );

    // The probe heals the struck shard on its own.
    wait_for_degraded(&mut client, 0);
    assert!(
        client
            .insert("par(healed, fine)")
            .expect("post-heal")
            .applied
    );

    // SIGKILL + 4-shard restart: acked survives, the refusal does not.
    server.kill();
    let server = ServerProc::spawn_with_env(&dir, 100_000, &[("MAGIC_SERVE_WRITER_SHARDS", "4")]);
    let mut client = PipeClient::connect(server.addr).expect("restart connect");
    let mut expected = seed_edges();
    expected.insert(("healed".into(), "fine".into()));
    assert_eq!(
        read_base(&mut client),
        expected,
        "exactly seed + acked must recover per shard: refused writes are not ghosts"
    );
}

#[test]
fn dropped_and_stalled_connections_are_survived_by_reconnect() {
    let dir = tmp_dir("chaos-conn");
    // Connections 2 and 3 are dropped at accept; connection 5 is
    // stalled 80ms before its first byte is served.
    let mut server = ServerProc::spawn_with_env(
        &dir,
        100_000,
        &[("MAGIC_FAULTS", "conn-drop=2x2,conn-stall=5:80")],
    );

    // Connection 1: healthy.
    let mut healthy = PipeClient::connect(server.addr).expect("conn 1");
    healthy.ping().expect("conn 1 serves");

    // Connection 2: accepted, then dropped before any response — the
    // failure surfaces on the first round trip, and
    // `query_with_retry` reconnects through connection 3 (also
    // dropped) to 4 (healthy) without caller involvement.
    let mut unlucky = PipeClient::connect(server.addr).expect("conn 2 dials");
    let reply = unlucky
        .query_with_retry("edge(X, Y)", 5)
        .expect("retry through the drop zone");
    assert_eq!(reply.rows.len(), 16);

    // Connection 5: stalled, not broken — the round trip just takes
    // the injected delay longer.
    let started = Instant::now();
    let mut slow = PipeClient::connect(server.addr).expect("conn 5 dials");
    slow.ping().expect("stalled connection still serves");
    assert!(
        started.elapsed() >= Duration::from_millis(60),
        "the stall must be observable"
    );

    // The server never noticed: still healthy, zero degraded entries.
    let stats = healthy.stats().expect("final stats");
    assert_eq!(stats.degraded, 0);
    assert_eq!(stats.degraded_entered, 0);
    server.kill();
}

#[test]
fn seeded_chaos_scenarios_never_lose_an_ack_or_apply_a_refusal() {
    // The generated sweep: every scenario drives a unique-fact insert
    // stream through a seeded fault schedule, then proves over a kill
    // + restart that acked ⊆ recovered, refused ∩ recovered = ∅, and
    // everything recovered is accounted for.  One seed reproduces the
    // whole run, schedule and workload both.
    for scenario in chaos_scenarios(0xBEE51987, 3) {
        let dir = tmp_dir(&scenario.name);
        let mut server = ServerProc::spawn_with_env(
            &dir,
            4,
            &[
                ("MAGIC_FAULTS", scenario.fault_spec.as_str()),
                ("MAGIC_SERVE_FSYNC", "always"),
                ("MAGIC_SERVE_QUEUE_DEPTH", "8"),
            ],
        );
        let addr = server.addr;
        let mut rng = SplitMix64::seed_from_u64(scenario.workload_seed);
        let mut client =
            PipeClient::connect_with_backoff(addr, 5).expect("connect through possible drops");

        let mut acked = BTreeSet::new();
        let mut refused = BTreeSet::new();
        let mut unknown = BTreeSet::new();
        for i in 0..scenario.ops {
            let (a, b) = (
                format!("c{i}x{}", rng.next_u64() % 97),
                format!("c{i}y{}", rng.next_u64() % 97),
            );
            let edge = (a.clone(), b.clone());
            match client.insert(&format!("par({a}, {b})")) {
                Ok(_) => {
                    acked.insert(edge);
                }
                // Definite refusals: never applied.
                Err(ClientError::Busy { .. }) | Err(ClientError::Degraded(_)) => {
                    refused.insert(edge);
                }
                // Unknown outcome: deadline expiry, or the transport
                // died mid-round-trip (a conn fault) — reconnect and
                // keep driving.
                Err(e) => {
                    unknown.insert(edge);
                    if matches!(e, ClientError::Io(_) | ClientError::Protocol(_)) {
                        client = PipeClient::connect_with_backoff(addr, 10)
                            .expect("reconnect after conn fault");
                    }
                }
            }
        }

        // No writer panic under any schedule: the server still serves.
        let mut probe = PipeClient::connect_with_backoff(addr, 10).expect("post-run connect");
        probe.ping().unwrap_or_else(|e| {
            panic!(
                "{}: server unresponsive after the schedule: {e}",
                scenario.name
            )
        });
        server.kill();

        let server = ServerProc::spawn(&dir, 4);
        let mut client = PipeClient::connect(server.addr).expect("restart connect");
        let recovered = read_base(&mut client);
        let seed = seed_edges();
        for edge in &acked {
            assert!(
                recovered.contains(edge),
                "{}: acked fact lost: {edge:?} (spec {})",
                scenario.name,
                scenario.fault_spec
            );
        }
        for edge in &refused {
            assert!(
                !recovered.contains(edge),
                "{}: refused fact applied: {edge:?} (spec {})",
                scenario.name,
                scenario.fault_spec
            );
        }
        for edge in &recovered {
            assert!(
                seed.contains(edge) || acked.contains(edge) || unknown.contains(edge),
                "{}: recovered fact nobody sent: {edge:?}",
                scenario.name
            );
        }
    }
}
