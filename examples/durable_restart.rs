//! Crash-safe serving, end to end: start a server with durability
//! switched on, write through it, stop it, then start a *second*
//! server over the same store directory — with a deliberately empty
//! seed database — and watch the write-ahead log and checkpoint bring
//! every acknowledged fact (and the materialized view answering over
//! them) back.
//!
//! The `SIGKILL` variant of this story — killing the process
//! mid-stream and recovering an acked-consistent prefix, torn WAL
//! tail included — is the test suite's job
//! (`crates/serve/tests/durable_restart.rs`); this example shows the
//! API shape.
//!
//! Run with `cargo run --release --example durable_restart`.

use power_of_magic::durable::{DurableConfig, FsyncPolicy};
use power_of_magic::serve::{PipeClient, ServeConfig, Server};
use power_of_magic::{parse_program, Database};

fn main() {
    let program = parse_program(
        "anc(X, Y) :- par(X, Y).
         anc(X, Y) :- par(X, Z), anc(Z, Y).",
    )
    .expect("program parses");
    let mut seed = Database::new();
    for (parent, child) in [("john", "mary"), ("mary", "ann")] {
        seed.insert_pair("par", parent, child);
    }

    let store = std::env::temp_dir().join(format!("magic-durable-example-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&store);

    // Durability is one config field: a store directory, an fsync
    // policy (how many acked batches a power loss may cost — `Always`
    // for none), and a checkpoint cadence bounding recovery's WAL
    // replay.  The ack contract tightens accordingly: an update is
    // acknowledged only once it is logged *and* published.
    let durable = DurableConfig::new(&store)
        .with_fsync(FsyncPolicy::EveryN(8))
        .with_checkpoint_every(4);
    let config = ServeConfig {
        durability: Some(durable.clone()),
        ..ServeConfig::default()
    };

    // ── First life: seed, serve, write, stop. ──────────────────────
    let mut server =
        Server::start(program.clone(), seed, "127.0.0.1:0", config).expect("server starts");
    let mut client = PipeClient::connect(server.addr()).expect("client connects");
    let before = client.query("anc(john, Y)").expect("query answered");
    println!(
        "first life:  anc(john, Y) has {} answers",
        before.rows.len()
    );
    for edge in ["par(ann, peter)", "par(peter, zoe)", "par(zoe, kim)"] {
        client.insert(edge).expect("acked insert");
    }
    let stats = client.stats().expect("stats answered");
    println!(
        "first life:  {} updates applied, wal {} bytes, last checkpoint seq {}",
        stats.updates_applied, stats.wal_bytes, stats.last_checkpoint
    );
    server.shutdown();

    // ── Second life: empty seed, same directory. ───────────────────
    // The disk state wins over the seed: recovery loads the newest
    // checkpoint, re-materializes the exported view bindings, and
    // replays the WAL tail through ordinary view maintenance — all
    // before the listener accepts its first connection.
    let config = ServeConfig {
        durability: Some(durable),
        ..ServeConfig::default()
    };
    let mut server =
        Server::start(program, Database::new(), "127.0.0.1:0", config).expect("server restarts");
    let mut client = PipeClient::connect(server.addr()).expect("client reconnects");
    let after = client.query("anc(john, Y)").expect("query answered");
    println!(
        "second life: anc(john, Y) has {} answers (recovered: seed + 3 acked inserts)",
        after.rows.len()
    );
    assert_eq!(after.rows.len(), before.rows.len() + 3);

    // The recovered server is an ordinary live server: keep writing.
    client
        .insert("par(kim, lee)")
        .expect("post-recovery insert");
    let reply = client.query("anc(john, Y)").expect("query answered");
    println!(
        "second life: {} answers after one more insert",
        reply.rows.len()
    );

    drop(client);
    server.shutdown();
    let _ = std::fs::remove_dir_all(&store);
}
