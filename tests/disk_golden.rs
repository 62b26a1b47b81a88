//! Golden on-disk bytes of a durable store.
//!
//! Two legs write a store directory each and record what is on disk:
//!
//! * **store** — `DurableStore` driven directly: `open`, `recover` over a
//!   seed, a fixed list of batches (a quoted constant, an `i64::MIN`
//!   integer, a nested compound), one forced checkpoint with a binding
//!   exported, then two more batches.  The directory listing and the exact
//!   hex of `checkpoint.bin` and `wal.log` are recorded, and the store must
//!   reopen to exactly the state it was sent.  The checkpoint
//!   holds the process-global interner, which is why this file is one
//!   `#[test]` in a binary of its own: the interner then holds only what
//!   this corpus put there, in the same order every run.
//! * **server** — a durable server with `checkpoint_every: 2` is sent a
//!   fixed sequential script on one connection and shut down.  Its writer
//!   checkpoints after acknowledging, so a checkpoint can capture symbols
//!   a reader interned for the next request; the leg therefore records the
//!   directory listing, the acks and answers, and the *decoded* WAL frames
//!   and checkpoint facts rather than their bytes.
//!
//! After an intended format change, regenerate with
//! `MAGIC_BLESS=1 cargo test --test disk_golden` and review the diff.

use power_of_magic::durable::{Checkpoint, DurableConfig, DurableStore, FsyncPolicy, Wal};
use power_of_magic::incr::{Update, ViewCatalog};
use power_of_magic::lang::{parse_query, Fact, Symbol, Value};
use power_of_magic::serve::{PipeClient, ServeConfig, Server};
use power_of_magic::workloads::{chain, programs};
use power_of_magic::{Database, Strategy};
use std::fmt::Write as _;
use std::fs;
use std::path::{Path, PathBuf};

const GOLDEN: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden/disk.txt");

fn fresh_dir(leg: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("magic-disk-golden-{leg}-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    dir
}

fn pair(a: &str, b: &str) -> Fact {
    Fact::plain("par", vec![Value::sym(a), Value::sym(b)])
}

/// `m(<int>, <value>)`: the relation that carries the integers and
/// compounds.
fn m(n: i64, v: Value) -> Fact {
    Fact::plain("m", vec![Value::int(n), v])
}

fn app(functor: &str, args: Vec<Value>) -> Value {
    Value::app(Symbol::new(functor), args)
}

/// The file names in `dir` with their sizes, sorted.
fn listing(dir: &Path) -> String {
    let mut entries: Vec<(String, u64)> = fs::read_dir(dir)
        .expect("read store directory")
        .map(|entry| {
            let entry = entry.expect("directory entry");
            let len = entry.metadata().expect("file metadata").len();
            (entry.file_name().to_string_lossy().into_owned(), len)
        })
        .collect();
    entries.sort();
    let shown: Vec<String> = entries
        .iter()
        .map(|(name, len)| format!("{name} {len}"))
        .collect();
    format!("dir: {}\n", shown.join(", "))
}

/// A `hexdump -C`-style rendering: offset, sixteen bytes, their ASCII.
fn hex(name: &str, bytes: &[u8]) -> String {
    let mut out = format!("-- {name} ({} bytes)\n", bytes.len());
    for (row, chunk) in bytes.chunks(16).enumerate() {
        let _ = write!(out, "{:08x} ", row * 16);
        for i in 0..16 {
            match chunk.get(i) {
                Some(b) => {
                    let _ = write!(out, " {b:02x}");
                }
                None => out.push_str("   "),
            }
        }
        let ascii: String = chunk
            .iter()
            .map(|&b| {
                if b.is_ascii_graphic() || b == b' ' {
                    b as char
                } else {
                    '.'
                }
            })
            .collect();
        let _ = writeln!(out, "  |{ascii}|");
    }
    out
}

/// Mirror a batch's state-changing updates into `db` — the ones the serve
/// writer would log — and log those.
fn apply_and_log(store: &mut DurableStore, db: &mut Database, batch: &[Update]) {
    let changed: Vec<Update> = batch
        .iter()
        .filter(|u| match u {
            Update::Insert(f) => db.insert_fact(f),
            Update::Retract(f) => db.remove_fact(f),
        })
        .cloned()
        .collect();
    store.log_batch(&changed).expect("log batch");
}

fn store_leg() -> String {
    let dir = fresh_dir("store");
    let program = programs::ancestor_intro();
    let config = DurableConfig::new(&dir)
        .with_fsync(FsyncPolicy::Never)
        .with_checkpoint_every(0);
    let mut seed = Database::new();
    seed.insert_fact(&pair("john", "mary"));
    seed.insert_fact(&pair("mary", "ann"));

    let mut store = DurableStore::open(&config).expect("open store");
    let recovered = store
        .recover(&program, ViewCatalog::new(Strategy::MagicSets), &seed)
        .expect("recover fresh store");
    let mut catalog = recovered.catalog;
    let mut db = catalog.base().clone();
    let nested = app(
        "f",
        vec![
            app("g", vec![Value::sym("x"), Value::int(-3)]),
            app("cons", vec![Value::sym("a"), Value::sym("nil")]),
        ],
    );
    let before_checkpoint = [
        vec![
            Update::Insert(pair("a", "New York")),
            Update::Insert(pair("ann", "a")),
        ],
        vec![
            Update::Insert(m(i64::MIN, Value::sym("min"))),
            Update::Insert(m(1 << 40, nested)),
        ],
        vec![
            Update::Retract(pair("john", "mary")),
            // Already absent: not logged.
            Update::Retract(pair("zoe", "kim")),
        ],
    ];
    for batch in &before_checkpoint {
        apply_and_log(&mut store, &mut db, batch);
    }
    catalog
        .materialize(&program, &parse_query("anc(mary, Y)").unwrap(), &db)
        .expect("materialize anc(mary, Y)");
    store
        .checkpoint(&db, &catalog.export_bindings())
        .expect("forced checkpoint");
    let after_checkpoint = [
        vec![Update::Insert(pair("ann", "zoe"))],
        vec![
            Update::Retract(pair("a", "New York")),
            Update::Insert(m(
                i64::MIN,
                app("h", vec![app("g", vec![Value::int(i64::MAX)])]),
            )),
        ],
    ];
    for batch in &after_checkpoint {
        apply_and_log(&mut store, &mut db, batch);
    }
    drop(store);

    let mut out = String::from("== store\n");
    out += &listing(&dir);
    for name in ["checkpoint.bin", "wal.log"] {
        out += &hex(name, &fs::read(dir.join(name)).expect("read store file"));
    }
    // And the store reopens to what was written: the checkpoint with its
    // binding, then both logged batches.
    let recovered = DurableStore::open(&config)
        .expect("reopen store")
        .recover(
            &program,
            ViewCatalog::new(Strategy::MagicSets),
            &Database::new(),
        )
        .expect("recover the written store");
    assert_eq!(recovered.catalog.base(), &db);
    assert_eq!(recovered.replayed_frames, 2);
    assert_eq!(recovered.rebuilt_views, ["anc_bf[bf](mary)@gms"]);
    let _ = fs::remove_dir_all(&dir);
    out
}

/// One request of the server script, as the client sends it.
enum Step {
    Query(&'static str),
    Insert(&'static str),
    Retract(&'static str),
}

const SCRIPT: &[Step] = &[
    Step::Query("anc(n0, Y)"),
    Step::Insert("par(n4, n5)"),
    Step::Insert("par(n5, 'New York')"),
    Step::Insert("par(n4, n5)"),
    Step::Retract("par(n1, n2)"),
    Step::Query("anc(n2, Y)"),
    Step::Insert("m(1099511627776, f(g(x, -3), cons(a, nil)))"),
    Step::Retract("par(n5, 'New York')"),
];

fn server_leg() -> String {
    let dir = fresh_dir("server");
    let config = ServeConfig {
        durability: Some(DurableConfig::new(&dir).with_checkpoint_every(2)),
        ..ServeConfig::default()
    };
    let mut server = Server::start(programs::ancestor_intro(), chain(4), "127.0.0.1:0", config)
        .expect("server starts");
    let mut client = PipeClient::connect(server.addr()).expect("connect");
    let mut out = String::from("== server\n");
    for step in SCRIPT {
        let line = match step {
            Step::Query(q) => {
                let reply = client.query(q).expect("query");
                let rows: Vec<String> = reply
                    .rows
                    .iter()
                    .map(|row| {
                        let values: Vec<String> = row.iter().map(Value::to_string).collect();
                        values.join(" ")
                    })
                    .collect();
                format!(
                    "> QUERY {q}\n< {} v{} [{}]\n",
                    reply.key,
                    reply.version,
                    rows.join(", ")
                )
            }
            Step::Insert(f) | Step::Retract(f) => {
                let (verb, ack) = match step {
                    Step::Insert(_) => ("INSERT", client.insert(f)),
                    _ => ("RETRACT", client.retract(f)),
                };
                let ack = ack.expect("update acked");
                let outcome = if ack.applied { "applied" } else { "noop" };
                format!("> {verb} {f}\n< {outcome} v{}\n", ack.version)
            }
        };
        out += &line;
    }
    drop(client);
    server.shutdown();

    out += &listing(&dir);
    out += "-- wal.log frames\n";
    let mut wal = Wal::open(dir.join("wal.log"), FsyncPolicy::Never).expect("open wal");
    let scan = wal.scan().expect("scan wal");
    assert!(!scan.torn, "a clean shutdown leaves no torn tail");
    for frame in &scan.frames {
        for update in &frame.updates {
            let (op, fact) = match update {
                Update::Insert(f) => ("I", f),
                Update::Retract(f) => ("R", f),
            };
            let _ = writeln!(out, "seq {}: {op} {fact}", frame.seq);
        }
    }
    let checkpoint = Checkpoint::load(&dir.join("checkpoint.bin")).expect("load checkpoint");
    let _ = writeln!(out, "-- checkpoint.bin seq {}", checkpoint.seq);
    for (key, text) in &checkpoint.bindings {
        let _ = writeln!(out, "binding {key} = {text}");
    }
    let db = checkpoint.restore_database().expect("restore checkpoint");
    let mut facts: Vec<String> = db.facts().map(|f| f.to_string()).collect();
    facts.sort();
    for fact in facts {
        let _ = writeln!(out, "fact {fact}");
    }
    let _ = fs::remove_dir_all(&dir);
    out
}

#[test]
fn store_and_server_write_the_golden_disk_bytes() {
    let actual = store_leg() + &server_leg();
    if std::env::var_os("MAGIC_BLESS").is_some() {
        fs::write(GOLDEN, &actual).expect("write golden file");
        return;
    }
    let expected = fs::read_to_string(GOLDEN).expect("read tests/golden/disk.txt");
    if actual != expected {
        let (line, want, have) = expected
            .lines()
            .zip(actual.lines())
            .enumerate()
            .find(|(_, (want, have))| want != have)
            .map(|(i, (want, have))| (i + 1, want, have))
            .unwrap_or((0, "<layout>", "<layout>"));
        panic!(
            "disk bytes differ from {GOLDEN} at line {line}:\n  golden: {want}\n  actual: \
             {have}\n\nfull rendering:\n{actual}"
        );
    }
}
