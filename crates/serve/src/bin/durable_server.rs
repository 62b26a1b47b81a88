//! A small durable server process: the kill target of the
//! crash-recovery tests (`crates/serve/tests/durable_restart.rs`) and
//! the CI recovery smoke.
//!
//! Usage: `durable_server <store-dir> [checkpoint-every]`
//!
//! Serves the classic ancestor program over a 16-edge `par` chain seed
//! with durability rooted at `<store-dir>`, prints one line
//! `ADDR <ip:port>` to stdout once recovery finished and the listener
//! is live, then parks forever — the parent test decides when (and
//! how rudely) the process dies.  On a restart over the same
//! directory, the seed is ignored and the recovered disk state wins.
//!
//! Environment knobs (all optional), so the overload and chaos suites
//! can shape the server without growing the positional interface:
//!
//! * `MAGIC_SERVE_FSYNC` — `never` (default), `always`, or `every=<n>`.
//! * `MAGIC_SERVE_QUEUE_DEPTH` — writer queue bound (`max_queue_depth`).
//! * `MAGIC_SERVE_WRITER_DEADLINE_MS` — writer round-trip deadline.
//! * `MAGIC_FAULTS` — read by the serve layer itself; listed here
//!   because this binary is its usual carrier in tests.

use magic_datalog::parse_program;
use magic_durable::{DurableConfig, FsyncPolicy};
use magic_serve::{ServeConfig, Server};
use magic_storage::Database;
use std::io::Write;
use std::time::Duration;

fn main() -> std::io::Result<()> {
    let mut args = std::env::args().skip(1);
    let dir = args
        .next()
        .expect("usage: durable_server <store-dir> [checkpoint-every]");
    let checkpoint_every: u64 = args
        .next()
        .map(|s| s.parse().expect("checkpoint-every must be an integer"))
        .unwrap_or(8);

    // `edge` mirrors the base `par` relation one-to-one: the recovery
    // tests query `edge(X, Y)` to read the exact recovered base state
    // back out through an ordinary derived view.
    let program = parse_program(
        "anc(X, Y) :- par(X, Y).
         anc(X, Y) :- par(X, Z), anc(Z, Y).
         edge(X, Y) :- par(X, Y).",
    )
    .expect("the built-in program parses");
    let mut edb = Database::new();
    for i in 0..16 {
        edb.insert_pair("par", &format!("n{i}"), &format!("n{}", i + 1));
    }

    // `FsyncPolicy::Never` is the default: the tests kill with SIGKILL,
    // which loses nothing the page cache already holds, so skipping
    // fsync keeps the kill loop fast while still exercising the full
    // log/checkpoint/recover machinery.  The fault suites override to
    // `always` so injected fsync failures strike the batch that caused
    // them.
    let fsync = match std::env::var("MAGIC_SERVE_FSYNC").as_deref() {
        Ok("always") => FsyncPolicy::Always,
        Ok(s) if s.starts_with("every=") => FsyncPolicy::EveryN(
            s["every=".len()..]
                .parse()
                .expect("MAGIC_SERVE_FSYNC=every=<n> needs an integer"),
        ),
        Ok("never") | Err(_) => FsyncPolicy::Never,
        Ok(other) => panic!("MAGIC_SERVE_FSYNC={other:?}: expected never, always or every=<n>"),
    };
    let env_u64 = |name: &str| {
        std::env::var(name).ok().map(|s| {
            s.parse::<u64>()
                .unwrap_or_else(|_| panic!("{name} must be an integer"))
        })
    };
    let mut config = ServeConfig {
        durability: Some(
            DurableConfig::new(&dir)
                .with_fsync(fsync)
                .with_checkpoint_every(checkpoint_every),
        ),
        ..ServeConfig::default()
    };
    if let Some(depth) = env_u64("MAGIC_SERVE_QUEUE_DEPTH") {
        config.max_queue_depth = depth as usize;
    }
    if let Some(ms) = env_u64("MAGIC_SERVE_WRITER_DEADLINE_MS") {
        config.writer_deadline = Duration::from_millis(ms);
    }
    let server = Server::start(program, edb, "127.0.0.1:0", config)?;
    println!("ADDR {}", server.addr());
    std::io::stdout().flush()?;
    loop {
        std::thread::sleep(Duration::from_secs(3600));
    }
}
