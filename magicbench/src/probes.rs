//! Per-layer probes: each times calls into one crate's public functions
//! on fixed inputs, from outside.  The traced run of every workload ends
//! with the whole suite, so a layer's numbers are there whichever workload
//! a change is judged on.  Inputs do not depend on `--seed`: the counts
//! among these metrics must repeat exactly.

use crate::eval_cold::{self, ANCESTOR, SOURCES};
use crate::gen::{MaintainScript, MixedScript, OpClass};
use crate::maintain;
use crate::report::{Metric, Report};
use crate::serve;
use crate::stats::{mean, median, percentile};
use magic_datalog::{parse_program, parse_query, ValId, Value};
use magic_durable::{DurableConfig, DurableStore};
use magic_engine::Limits;
use magic_incr::{Update, ViewCatalog};
use magic_serve::protocol::{parse_request, render_answers};
use magic_serve::Frame;
use magic_storage::{Database, Relation};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;

/// Seed of the scripts the probes replay.
const PROBE_SEED: u64 = 0xFACE;

/// Median wall of `reps` calls of `f`, in seconds.
fn timed(reps: usize, mut f: impl FnMut()) -> f64 {
    let walls: Vec<f64> = (0..reps)
        .map(|_| {
            let start = Instant::now();
            f();
            start.elapsed().as_secs_f64()
        })
        .collect();
    median(&walls)
}

pub fn run(quick: bool, report: &mut Report) -> Vec<Metric> {
    let mut out = Vec::new();
    datalog(&mut out);
    storage(quick, &mut out);
    roster(quick, &mut out, report);
    incr(quick, &mut out, report);
    if let Err(e) = durable(quick, &mut out) {
        report.wrong.push(format!("durable probe: {e}"));
    }
    let inproc_read_us = serve_micro(quick, &mut out);
    serve_macro(quick, inproc_read_us, &mut out, report);
    out
}

fn datalog(out: &mut Vec<Metric>) {
    let parse = timed(21, || {
        for source in SOURCES {
            black_box(parse_program(source).expect("roster program parses"));
        }
    });
    out.push(Metric::new("datalog.parse_us", "us", parse * 1e6, 21));

    const FRESH: usize = 100_000;
    let names: Vec<String> = (0..FRESH).map(|i| format!("fresh_probe_{i}")).collect();
    let start = Instant::now();
    for name in &names {
        black_box(ValId::intern(&Value::sym(name)));
    }
    let per = start.elapsed().as_secs_f64() / FRESH as f64;
    out.push(Metric::new("datalog.intern_ns", "ns", per * 1e9, FRESH));
}

fn storage(quick: bool, out: &mut Vec<Metric>) {
    let rows = if quick { 50_000 } else { 1_000_000 };
    let row = |i: usize| {
        [
            ValId::from_int(i as i64),
            ValId::from_int((i * 7 + 1) as i64),
        ]
    };
    let per_row_ns = |start: Instant| start.elapsed().as_secs_f64() * 1e9 / rows as f64;

    let mut relation = Relation::new(2);
    let start = Instant::now();
    for i in 0..rows {
        black_box(relation.insert_ids(&row(i)));
    }
    out.push(Metric::new(
        "storage.insert_ns_row",
        "ns",
        per_row_ns(start),
        rows,
    ));
    let start = Instant::now();
    for i in 0..rows {
        black_box(relation.insert_ids(&row(i)));
    }
    out.push(Metric::new(
        "storage.dup_insert_ns_row",
        "ns",
        per_row_ns(start),
        rows,
    ));
    // Index probes run on a smaller relation: on the seed commit every
    // one-column key shares its low hash bits, a probe walks its whole
    // shard, and a million keys would take a quarter of a minute.
    let keys = rows / 8;
    let mut indexed = Relation::new(2);
    for i in 0..keys {
        indexed.insert_ids(&row(i));
    }
    indexed.ensure_index(&[0]);
    let start = Instant::now();
    for i in 0..keys {
        // A stride coprime to the key count, so probes do not walk the
        // index in insertion order.
        let key = [ValId::from_int(((i * 7919) % keys) as i64)];
        black_box(indexed.lookup(&[0], &key));
    }
    let per_lookup = start.elapsed().as_secs_f64() * 1e9 / keys as f64;
    out.push(Metric::new("storage.lookup_ns", "ns", per_lookup, keys));

    let mut db = Database::new();
    db.insert_relation(magic_datalog::PredName::plain("r"), relation);
    let mut next = rows;
    let first_write = timed(21, || {
        // The clone shares every page; the insert must copy what it touches.
        let mut copy = db.clone();
        let pair = vec![Value::int(next as i64), Value::int(0)];
        next += 1;
        black_box(copy.insert(magic_datalog::PredName::plain("r"), pair));
    });
    out.push(Metric::new(
        "storage.cow_first_write_us",
        "us",
        first_write * 1e6,
        21,
    ));
}

/// Each roster cell through the decomposed steps: `core`'s planning,
/// `engine`'s fixpoint, and the exact counts.
fn roster(quick: bool, out: &mut Vec<Metric>, report: &mut Report) {
    let (mut compile, mut project) = (0.0, 0.0);
    for cell in eval_cold::set_up(quick) {
        let reps = if cell.reps > 1 { 5 } else { 1 };
        let mut runs = Vec::new();
        for _ in 0..reps {
            match cell.evaluate_decomposed(&mut None, 0) {
                Ok(run) => runs.push(run),
                Err(e) => report.wrong.push(format!("probe {}: {e}", cell.name)),
            }
        }
        let Some((got, _)) = runs.first() else {
            continue;
        };
        if let Err(e) = cell.verify(got) {
            report.wrong.push(format!("probe {e}"));
        }
        let step = |f: fn(&eval_cold::Steps) -> f64| {
            median(&runs.iter().map(|(_, s)| f(s)).collect::<Vec<_>>())
        };
        compile += step(|s| s.compile);
        project += step(|s| s.project);
        let name = cell.name;
        let fixpoint_ms = step(|s| s.fixpoint) * 1e3;
        out.push(Metric::new(
            format!("engine.fixpoint_ms.{name}"),
            "ms",
            fixpoint_ms,
            reps,
        ));
        let plan_us = step(|s| s.plan) * 1e6;
        out.push(Metric::new(
            format!("core.plan_us.{name}"),
            "us",
            plan_us,
            reps,
        ));
        let exact = |layer: &str, what: &str, value: f64| {
            Metric::new(format!("{layer}.{what}.{name}"), "count", value, 0)
        };
        out.push(exact("engine", "probes", got.probes as f64));
        out.push(exact("engine", "facts", got.facts as f64));
        // The paper's Section 9 quantity: facts computed per answer.
        let per_answer = got.facts as f64 / got.answers.len().max(1) as f64;
        out.push(exact("core", "facts_per_answer", per_answer));
    }
    out.push(Metric::new("engine.compile_us", "us", compile * 1e6, 0));
    out.push(Metric::new("engine.answers_us", "us", project * 1e6, 0));
}

/// The `maintain` shapes on a small fixed script: one cut on pristine
/// views for the exact probe count, then one block of the script.
fn incr(quick: bool, out: &mut Vec<Metric>, report: &mut Report) {
    let start = Instant::now();
    let mut state = maintain::set_up(quick);
    let materialize = start.elapsed().as_secs_f64();
    out.push(Metric::new(
        "incr.materialize_ms",
        "ms",
        materialize * 1e3,
        state.keys.len(),
    ));

    let edge = state.shape.cuts[3];
    let cut = |class| crate::gen::Op {
        class,
        from: format!("n{edge}"),
        to: format!("n{}", edge + 1),
    };
    let probes_before = state.catalog.aggregate_stats().join_probes;
    let mut applied = state.apply(&cut(OpClass::CutRetract), &mut None, 0);
    let probes = state.catalog.aggregate_stats().join_probes - probes_before;
    if applied.is_ok() {
        applied = state.apply(&cut(OpClass::CutInsert), &mut None, 0);
    }
    if let Err(e) = applied {
        report.wrong.push(format!("incr probe: {e}"));
    }
    out.push(Metric::new(
        "incr.probes_per_cut_retract",
        "count",
        probes as f64,
        0,
    ));

    let script = MaintainScript::new(state.shape.band, &state.shape.cuts, PROBE_SEED);
    let block = script.block_len();
    let mut walls: BTreeMap<OpClass, Vec<f64>> = BTreeMap::new();
    let mut moved = Vec::new();
    let cow_before = magic_storage::cow_clones();
    for op in script.take(block) {
        match state.apply(&op, &mut None, 0) {
            Ok((wall, changed)) => {
                walls.entry(op.class).or_default().push(wall);
                moved.push(changed as f64);
            }
            Err(e) => report.wrong.push(format!("incr probe: {e}")),
        }
    }
    let cow = (magic_storage::cow_clones() - cow_before) as f64 / block as f64;
    out.push(Metric::new(
        "storage.cow_clones_per_update",
        "count",
        cow,
        block,
    ));
    for (class, name, unit, scale) in [
        (OpClass::LeafInsert, "incr.leaf_insert_us", "us", 1e6),
        (OpClass::LeafRetract, "incr.leaf_retract_us", "us", 1e6),
        (OpClass::CutRetract, "incr.cut_retract_ms", "ms", 1e3),
        (OpClass::CutInsert, "incr.cut_insert_ms", "ms", 1e3),
    ] {
        let samples = walls.get(&class).map_or(&[][..], Vec::as_slice);
        out.push(Metric::new(
            name,
            unit,
            median(samples) * scale,
            samples.len(),
        ));
    }
    out.push(Metric::new(
        "incr.views_moved_per_update",
        "count",
        mean(&moved),
        moved.len(),
    ));
    let reads: Vec<(f64, f64)> = (0..11).map(|_| state.read_views(&mut None, 0)).collect();
    let snap = median(&reads.iter().map(|r| r.0).collect::<Vec<_>>());
    let read = median(&reads.iter().map(|r| r.1).collect::<Vec<_>>());
    out.push(Metric::new("incr.snapshot_us", "us", snap * 1e6, 11));
    out.push(Metric::new("incr.snapshot_read_us", "us", read * 1e6, 11));
}

/// An isolated store fed the `serve_mixed` update shapes, one update per
/// batch as the writer sees them at the benchmark's rate.
fn durable(quick: bool, out: &mut Vec<Metric>) -> Result<(), String> {
    let err = |e: magic_durable::DurableError| e.to_string();
    let shape = serve::shape(quick);
    let dir = crate::host::scratch_dir("durable-probe");
    let config = DurableConfig::new(&dir);
    let program = parse_program(ANCESTOR).expect("ancestor parses");
    let catalog = || ViewCatalog::new(eval_cold::strategy("gms"));
    let seed = magic_workloads::chain(shape.nodes);

    let mut store = DurableStore::open(&config).map_err(err)?;
    let mut db = store.recover(&program, catalog(), &seed).map_err(err)?.db;
    // Past two checkpoints (every 256 frames), so recovery replays a tail.
    let batches = if quick { 300 } else { 600 };
    let (mut log_walls, mut checkpoint_walls) = (Vec::new(), Vec::new());
    let (mut wal_bytes, mut update_bytes) = (0u64, 0u64);
    let mut checkpoint_ratio = f64::NAN;
    for op in MixedScript::new(shape.band, shape.nodes, PROBE_SEED).take(batches) {
        crate::oracle::mirror(&mut db, &op);
        update_bytes += op.text().len() as u64;
        let update = if op.class.is_insert() {
            Update::Insert(op.fact())
        } else {
            Update::Retract(op.fact())
        };
        let before = store.wal_bytes();
        let start = Instant::now();
        store.log_batch(&[update]).map_err(err)?;
        log_walls.push(start.elapsed().as_secs_f64());
        wal_bytes += store.wal_bytes() - before;
        if store.should_checkpoint() {
            let start = Instant::now();
            store.checkpoint(&db, &[]).map_err(err)?;
            checkpoint_walls.push(start.elapsed().as_secs_f64());
            let size = std::fs::metadata(store.checkpoint_path()).map_err(|e| e.to_string())?;
            checkpoint_ratio = size.len() as f64 / db.total_facts() as f64;
        }
    }
    store.sync().map_err(err)?;
    drop(store);
    let mut store = DurableStore::open(&config).map_err(err)?;
    let start = Instant::now();
    let recovered = store.recover(&program, catalog(), &seed).map_err(err)?;
    let recover = start.elapsed().as_secs_f64();
    let _ = std::fs::remove_dir_all(&dir);
    if recovered.db != db {
        return Err("the recovered base differs from what was logged".into());
    }

    let n = log_walls.len();
    out.push(Metric::new(
        "durable.log_batch_us",
        "us",
        median(&log_walls) * 1e6,
        n,
    ));
    out.push(Metric::new(
        "durable.wal_bytes_per_update_byte",
        "count",
        wal_bytes as f64 / update_bytes as f64,
        n,
    ));
    out.push(Metric::new(
        "durable.checkpoint_ms",
        "ms",
        median(&checkpoint_walls) * 1e3,
        checkpoint_walls.len(),
    ));
    out.push(Metric::new(
        "durable.checkpoint_bytes_per_fact",
        "count",
        checkpoint_ratio,
        0,
    ));
    out.push(Metric::new("durable.recover_ms", "ms", recover * 1e3, 1));
    out.push(Metric::new(
        "durable.recover_replayed_frames",
        "count",
        recovered.replayed_frames as f64,
        0,
    ));
    Ok(())
}

/// The read path's pieces with no socket: frame codec, request parse,
/// render, and a whole in-process read.  Returns the latter in µs.
fn serve_micro(quick: bool, out: &mut Vec<Metric>) -> f64 {
    const CALLS: usize = 20_000;
    let shape = serve::shape(quick);
    // The binding in the middle of the warmed range: the median answer.
    let query_text = crate::oracle::binding(shape.bindings / 2);
    let per_call_ns = |f: &mut dyn FnMut()| {
        let start = Instant::now();
        for _ in 0..CALLS {
            f();
        }
        start.elapsed().as_secs_f64() * 1e9 / CALLS as f64
    };

    let program = parse_program(ANCESTOR).expect("ancestor parses");
    let base = magic_workloads::chain(shape.nodes);
    let mut catalog =
        ViewCatalog::new(eval_cold::strategy("gms")).with_limits(Limits::default().with_threads(1));
    let query = parse_query(&query_text).expect("binding parses");
    let key = catalog
        .materialize(&program, &query, &base)
        .expect("materialize a view");
    let rows: Vec<Vec<Value>> = catalog
        .answers(&key)
        .expect("a live view")
        .into_iter()
        .collect();
    let response = Frame {
        req_id: 7,
        tag: 0,
        body: render_answers(&key, 1, &rows).into_bytes(),
    };
    let encoded = response.encode();
    let encode = per_call_ns(&mut || {
        black_box(response.encode());
    });
    let decode = per_call_ns(&mut || {
        black_box(Frame::decode(&encoded).expect("frame decodes"));
    });
    let line = format!("QUERY {query_text}");
    let parse = per_call_ns(&mut || {
        black_box(parse_request(&line).expect("request parses"));
    });
    out.push(Metric::new("serve.encode_ns", "ns", encode, CALLS));
    out.push(Metric::new("serve.decode_ns", "ns", decode, CALLS));
    out.push(Metric::new("serve.parse_request_ns", "ns", parse, CALLS));

    let render = timed(201, || {
        black_box(render_answers(&key, 1, &rows));
    });
    out.push(Metric::new("serve.render_us", "us", render * 1e6, 201));
    let read = timed(201, || {
        let snapshot = catalog.snapshot_view(&key).expect("a live view");
        let rows: Vec<Vec<Value>> = snapshot.answers().into_iter().collect();
        black_box(render_answers(&key, 1, &rows));
    });
    out.push(Metric::new("serve.inproc_read_us", "us", read * 1e6, 201));
    read * 1e6
}

/// Two short runs of the serve workloads themselves, for what only a live
/// server shows: the wire's share of a quiet read, and the counters the
/// server reports under updates.
fn serve_macro(quick: bool, inproc_read_us: f64, out: &mut Vec<Metric>, report: &mut Report) {
    let shape = serve::shape(quick);
    let plan = |mixed, phase_s| serve::Plan {
        shape,
        seed: PROBE_SEED,
        mixed,
        phase_s: if quick { 0.15 } else { phase_s },
    };
    // One server for both: reads first, while nothing has been updated.
    let mut served = serve::set_up(shape, true);
    let quiet = serve::drive(&mut served, &plan(false, 0.5), None);
    let mixed = serve::drive(&mut served, &plan(true, 1.5), None);
    drop(served);
    for run in [&quiet, &mixed] {
        let failed = run.failed_queries() + run.updates.failed;
        report.check(failed == 0, || format!("serve probe: {failed} ops failed"));
        report
            .wrong
            .extend(run.wrong.iter().map(|e| format!("serve probe: {e}")));
    }
    let mut count = |name: &str, value: f64| out.push(Metric::new(name, "count", value, 0));
    count("serve.batch_size_p50", quiet.after.batch_size_p50 as f64);
    count("serve.queue_depth_end", mixed.after.queue_depth as f64);
    count("serve.shed_updates", mixed.after.shed_updates as f64);
    count("serve.deadline_misses", mixed.after.deadline_misses as f64);
    let publishes = mixed.after.version.saturating_sub(mixed.before.version);
    let acked = mixed.updates.acks.len();
    count(
        "serve.publishes_per_update",
        publishes as f64 / acked.max(1) as f64,
    );
    let samples = quiet.w1.latencies.len();
    out.push(Metric::new(
        "serve.wire_overhead_us",
        "us",
        quiet.w1.p50_us() - inproc_read_us,
        samples,
    ));
    out.push(Metric::new(
        "loadgen.lag_p99_us",
        "us",
        percentile(&mixed.updates.lags, 99.0) * 1e6,
        mixed.updates.lags.len(),
    ));
}
