//! The serving layer, end to end: spawn a `magic-serve` server
//! in-process, connect a client over TCP, query, insert, re-query, and
//! read the server's counters — the whole
//! query → materialize-on-demand → update → fresh-snapshot loop.  The
//! client is `PipeClient` at window 1: each blocking call submits one
//! request and waits for its answer.
//!
//! Run with `cargo run --release --example serve_quickstart`.

use power_of_magic::serve::{PipeClient, ServeConfig, Server};
use power_of_magic::{parse_program, Database};

fn main() {
    // The ancestor program from Section 1 of the paper, and a small
    // family database.
    let program = parse_program(
        "anc(X, Y) :- par(X, Y).
         anc(X, Y) :- par(X, Z), anc(Z, Y).",
    )
    .expect("program parses");
    let mut db = Database::new();
    for (parent, child) in [("john", "mary"), ("mary", "ann"), ("ann", "peter")] {
        db.insert_pair("par", parent, child);
    }

    // Bind an ephemeral port.  A pool of reader threads answers queries
    // from immutable catalog snapshots; a writer thread applies updates
    // and publishes fresh snapshots.
    let mut server =
        Server::start(program, db, "127.0.0.1:0", ServeConfig::default()).expect("server starts");
    println!("serving on {}", server.addr());

    let mut client = PipeClient::connect(server.addr()).expect("client connects");

    // First sight of the binding `anc[bf](john)`: the server plans the
    // magic-sets rewrite, materializes the view, and answers from it.
    let reply = client.query("anc(john, Y)").expect("query answered");
    println!(
        "anc(john, Y) -> {:?}  [view {}, snapshot v{}]",
        rows_to_strings(&reply.rows),
        reply.key,
        reply.version
    );

    // An insert is acknowledged only once the snapshot containing it is
    // published — so the re-query below is guaranteed to see it.
    let ack = client.insert("par(peter, zoe)").expect("insert acked");
    println!(
        "insert par(peter, zoe): applied={} v{}",
        ack.applied, ack.version
    );

    let reply = client.query("anc(john, Y)").expect("query answered");
    println!(
        "anc(john, Y) -> {:?}  [snapshot v{}]",
        rows_to_strings(&reply.rows),
        reply.version
    );

    // A second binding materializes its own view; STATS shows both.
    client.query("anc(mary, Y)").expect("query answered");
    let stats = client.stats().expect("stats answered");
    println!(
        "stats: {} views, {} queries, {} updates, {} rule firings",
        stats.views, stats.queries_served, stats.updates_applied, stats.rule_firings
    );
    for view in &stats.per_view {
        println!("  view {}: {} facts", view.key, view.facts);
    }

    // Dropping the client closes its connection.
    drop(client);
    server.shutdown();
    println!("server drained and shut down");
}

fn rows_to_strings(rows: &[Vec<power_of_magic::lang::Value>]) -> Vec<String> {
    rows.iter().map(|row| row[0].to_string()).collect()
}
