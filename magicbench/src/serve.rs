//! `serve_read` and `serve_mixed`: the server under load from this
//! process, over loopback.
//!
//! Both start `Server::start(ancestor, chain)` with the library's default
//! configuration, warm one view per binding, and run one closed-loop
//! `PipeClient` over zipfian keys: phase `w1` with one request in flight
//! (the latency a caller sees), then phase `w64` with sixty-four (the
//! throughput the server sustains).  `serve_read` stops there: the answers
//! never change, so the response cache always hits.  `serve_mixed` turns
//! durability on and adds a second connection sending updates open loop at
//! a fixed rate for the whole run, then restarts the server on the same
//! directory and checks the answers again.

use crate::eval_cold::ANCESTOR;
use crate::gen::{Band, MixedScript, Op, PoissonDue, Rng, Zipf};
use crate::oracle::{self, Answers};
use crate::report::{repeat_setup, Opts, Report};
use crate::stats::{median, percentile, windowed_percentile};
use crate::trace::Tracer;
use magic_datalog::parse_program;
use magic_durable::DurableConfig;
use magic_serve::{PipeClient, ServeConfig, Server, ServerHandle, ServerStats};
use magic_storage::Database;
use std::collections::VecDeque;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// Updates per second of the open-loop stream.  On the seed commit one
/// update costs the single writer 18 ms on an idle host and 40 ms beside the
/// saturated `w64` read path (it lands in all 64 views and republishes
/// each: 383 copy-on-write units), so the server saturates near 50/s.  At
/// this rate the writer is an eighth to a quarter busy: no backlog builds,
/// and `w64` throughput still shows what updates cost readers without the
/// writer's own sensitivity to the host's memory traffic drowning it.
pub const UPDATE_RATE: f64 = 6.0;

/// Pause of the window-1 caller between a response and its next request.
/// The server's readers sleep up to 1 ms when a poll finds nothing.  A
/// caller that answers back at once races that poll, and whether it wins
/// (16 µs) or loses (1.1 ms) turns on microseconds; after this pause the
/// reader is asleep for certain, so a request meets the sleep at a uniform
/// phase and the latency distribution is the same every run.
const THINK: Duration = Duration::from_micros(100);

/// Chain length, number of warmed bindings `anc(n0..n<bindings-1>, Y)`,
/// and the band of nodes the update stream hangs leaves on.  A leaf on
/// `n_i` moves every view rooted at or above it, `i - k + 1` rows in view
/// `k`: on this band that is 6 to 55 rows a leaf, which one writer applies
/// well within the 5 ms the update rate leaves it.
#[derive(Clone, Copy)]
pub struct Shape {
    pub nodes: usize,
    pub bindings: usize,
    pub band: Band,
}

pub fn shape(quick: bool) -> Shape {
    let band = Band { lo: 2, width: 8 };
    if quick {
        Shape {
            nodes: 32,
            bindings: 8,
            band,
        }
    } else {
        Shape {
            nodes: 256,
            bindings: 64,
            band,
        }
    }
}

/// A running server with every binding warm.
pub struct Served {
    pub server: ServerHandle,
    dir: Option<PathBuf>,
}

impl Drop for Served {
    fn drop(&mut self) {
        self.server.shutdown();
        if let Some(dir) = &self.dir {
            let _ = std::fs::remove_dir_all(dir);
        }
    }
}

/// Default configuration, plus a store directory when durable: no knob the
/// roadmap has on trial is named here.
fn start(edb: Database, dir: Option<&Path>) -> ServerHandle {
    let config = ServeConfig {
        durability: dir.map(DurableConfig::new),
        ..ServeConfig::default()
    };
    let program = parse_program(ANCESTOR).expect("ancestor parses");
    Server::start(program, edb, "127.0.0.1:0", config).expect("server starts")
}

/// Ask for every binding once and compare with `expected`.
fn query_all(
    server: &ServerHandle,
    shape: Shape,
    expected: &[Answers],
    when: &str,
) -> Result<(), String> {
    let mut pipe = PipeClient::connect(server.addr()).map_err(|e| format!("{when}: {e}"))?;
    for (k, want) in (0..shape.bindings).zip(expected) {
        let reply = pipe
            .submit_query(&oracle::binding(k))
            .and_then(|id| pipe.wait_query(id))
            .map_err(|e| format!("{when}: {}: {e}", oracle::binding(k)))?;
        let got: Answers = reply.rows.into_iter().collect();
        if &got != want {
            return Err(format!(
                "{when}: {} has {} answers, from scratch {}",
                oracle::binding(k),
                got.len(),
                want.len()
            ));
        }
    }
    Ok(())
}

fn roots(shape: Shape) -> Vec<usize> {
    (0..shape.bindings).collect()
}

pub fn set_up(shape: Shape, durable: bool) -> Served {
    let dir = durable.then(|| crate::host::scratch_dir("store"));
    let base = magic_workloads::chain(shape.nodes);
    let server = start(base.clone(), dir.as_deref());
    // Warm-up materializes the views; its answers are checked too.
    let expected = oracle::ancestor_answers(&base, &roots(shape));
    query_all(&server, shape, &expected, "warm-up").expect("warm-up answers");
    Served { server, dir }
}

fn stats(server: &ServerHandle) -> Result<ServerStats, String> {
    let mut pipe = PipeClient::connect(server.addr()).map_err(|e| e.to_string())?;
    pipe.submit_stats()
        .and_then(|id| pipe.wait_stats(id))
        .map_err(|e| e.to_string())
}

/// What one closed-loop query phase saw.
#[derive(Default)]
pub struct Phase {
    /// Submit → response decoded, seconds, in completion order.
    pub latencies: Vec<f64>,
    /// Completion times, seconds from the phase start.
    completed_at: Vec<f64>,
    pub duration: f64,
    pub failed: u64,
}

impl Phase {
    pub fn p50_us(&self) -> f64 {
        median(&self.latencies) * 1e6
    }

    /// Median over five consecutive windows of the window's p99.
    pub fn p99_us(&self) -> f64 {
        windowed_percentile(&self.latencies, 5, 99.0) * 1e6
    }

    /// Median over ten equal slices of the phase of the slice's completion
    /// rate: a stall in one slice does not set the figure.
    pub fn qps(&self) -> f64 {
        const SLICES: usize = 10;
        let mut counts = [0.0f64; SLICES];
        for at in &self.completed_at {
            let slice = (at / self.duration * SLICES as f64) as usize;
            if slice < SLICES {
                counts[slice] += 1.0;
            }
        }
        median(&counts) * SLICES as f64 / self.duration
    }
}

/// The row count in a raw `OK <rows> <version> <key>` response header.
fn header_rows(body: &[u8]) -> Option<usize> {
    let rest = body.strip_prefix(b"OK ")?;
    let end = rest.iter().position(|b| *b == b' ')?;
    std::str::from_utf8(&rest[..end]).ok()?.parse().ok()
}

/// One closed-loop phase: `window` requests in flight, claimed oldest
/// first, for `duration` seconds.  `rows_of(k)` is the answer count binding
/// `k` must report, where the phase knows it.
fn query_phase(
    pipe: &mut PipeClient,
    keys: &mut impl FnMut() -> usize,
    window: usize,
    duration: f64,
    rows_of: Option<&dyn Fn(usize) -> usize>,
    mut tracer: Option<&mut Tracer>,
) -> Phase {
    let mut phase = Phase {
        duration,
        ..Phase::default()
    };
    // (request id, key, submit instant, root span, span op id)
    let mut in_flight: VecDeque<(u64, usize, Instant, Option<usize>, u64)> = VecDeque::new();
    let mut op = 0u64;
    let start = Instant::now();
    loop {
        let submitting = start.elapsed().as_secs_f64() < duration;
        if !submitting && in_flight.is_empty() {
            break;
        }
        if in_flight.len() >= window || !submitting {
            let (id, key, sent, root, op) = in_flight.pop_front().expect("a request in flight");
            let span = tracer
                .as_mut()
                .map(|t| t.begin("client.wait", "serve", root, op));
            let response = pipe.wait_response_timed(id);
            if let Some(t) = tracer.as_mut() {
                t.end(span.expect("span begun"));
                t.end(root.expect("root begun"));
            }
            match response {
                Ok((body, at)) => {
                    let rows = header_rows(&body);
                    if rows.is_none() || rows_of.is_some_and(|f| Some(f(key)) != rows) {
                        phase.failed += 1;
                    } else {
                        phase.latencies.push((at - sent).as_secs_f64());
                        phase.completed_at.push((at - start).as_secs_f64());
                    }
                }
                Err(_) => phase.failed += 1,
            }
            if window == 1 {
                std::thread::sleep(THINK);
            }
            continue;
        }
        let key = keys();
        let sent = Instant::now();
        op += 1;
        let root = tracer
            .as_mut()
            .map(|t| t.begin("request", "serve", None, op));
        let span = tracer
            .as_mut()
            .map(|t| t.begin("client.submit", "serve", root, op));
        let submitted = pipe.submit_query(&oracle::binding(key));
        if let Some(t) = tracer.as_mut() {
            t.end(span.expect("span begun"));
        }
        match submitted {
            Ok(id) => in_flight.push_back((id, key, sent, root, op)),
            Err(_) => {
                phase.failed += 1;
                // A transport error poisons the connection; stop here.
                break;
            }
        }
    }
    phase
}

/// What the open-loop update stream saw.
#[derive(Default)]
pub struct Updates {
    /// Due time → ack decoded, seconds, in order.
    pub acks: Vec<f64>,
    /// When each acked update was due, seconds from the stream's start.
    pub due_s: Vec<f64>,
    /// How late each send left, seconds.
    pub lags: Vec<f64>,
    pub attempted: u64,
    pub failed: u64,
    /// Ops the server acknowledged as applied.
    pub acked: Vec<Op>,
}

/// Send `script` at `UPDATE_RATE` with Poisson gaps for `duration` seconds.
/// A send waits for its own ack, so a slow ack delays the next send; its
/// latency still counts from when it was due, and the lag is reported.
fn update_stream(
    mut pipe: PipeClient,
    script: MixedScript,
    seed: u64,
    duration: f64,
    mut tracer: Option<&mut Tracer>,
) -> Updates {
    let mut out = Updates::default();
    let start = Instant::now();
    for (op, due_s) in script.zip(PoissonDue::new(UPDATE_RATE, seed)) {
        if due_s >= duration {
            break;
        }
        let due = start + Duration::from_secs_f64(due_s);
        if let Some(wait) = due.checked_duration_since(Instant::now()) {
            std::thread::sleep(wait);
        }
        out.attempted += 1;
        if (Instant::now() - due).as_secs_f64() > duration {
            // A backlog as long as the run: the server cannot take this
            // rate.  What is still due counts as failed; the run ends.
            out.failed += 1;
            continue;
        }
        out.lags.push((Instant::now() - due).as_secs_f64());
        let text = op.text();
        let id = out.attempted;
        let root = tracer
            .as_mut()
            .map(|t| t.begin("update", "serve", None, id));
        let span = tracer
            .as_mut()
            .map(|t| t.begin("client.submit", "serve", root, id));
        let submitted = if op.class.is_insert() {
            pipe.submit_insert(&text)
        } else {
            pipe.submit_retract(&text)
        };
        if let Some(t) = tracer.as_mut() {
            t.end(span.expect("span begun"));
        }
        let span = tracer
            .as_mut()
            .map(|t| t.begin("client.wait", "serve", root, id));
        let acked = submitted.and_then(|id| pipe.wait_ack_timed(id));
        if let Some(t) = tracer.as_mut() {
            t.end(span.expect("span begun"));
            t.end(root.expect("root begun"));
        }
        match acked {
            // Every generated op is a real state change: a no-op ack is wrong.
            Ok((ack, at)) if ack.applied => {
                out.acks.push((at - due).as_secs_f64());
                out.due_s.push(due_s);
                out.acked.push(op);
            }
            Ok(_) => out.failed += 1,
            Err(_) => {
                out.failed += 1;
                break;
            }
        }
    }
    out
}

/// How long each part of a run lasts, and whether updates run alongside.
pub struct Plan {
    pub shape: Shape,
    pub seed: u64,
    pub mixed: bool,
    /// Seconds per query phase: there are two, and a traced run repeats
    /// each with spans.
    pub phase_s: f64,
}

/// Everything a run measured, before it is boiled down to metrics.
#[derive(Default)]
pub struct Outcome {
    pub w1: Phase,
    pub w64: Phase,
    pub w1_traced: Phase,
    pub w64_traced: Phase,
    pub updates: Updates,
    pub before: ServerStats,
    pub after: ServerStats,
    pub cow_clones: u64,
    /// CPU seconds of this process (server, load generator and all) over
    /// the untraced `w64` phase.
    pub w64_cpu_s: f64,
    pub recover_s: f64,
    pub wrong: Vec<String>,
}

impl Outcome {
    pub fn failed_queries(&self) -> u64 {
        [&self.w1, &self.w64, &self.w1_traced, &self.w64_traced]
            .iter()
            .map(|p| p.failed)
            .sum()
    }

    pub fn queries(&self) -> u64 {
        [&self.w1, &self.w64, &self.w1_traced, &self.w64_traced]
            .iter()
            .map(|p| p.latencies.len() as u64 + p.failed)
            .sum()
    }
}

/// Run the phases of `plan` against `served`, check the answers, and for
/// a mixed run restart the server on its store and check them again.
pub fn drive(served: &mut Served, plan: &Plan, mut tracer: Option<&mut Tracer>) -> Outcome {
    let shape = plan.shape;
    let mut out = Outcome::default();
    match stats(&served.server) {
        Ok(s) => out.before = s,
        Err(e) => out.wrong.push(format!("STATS: {e}")),
    }
    let zipf = Zipf::new(shape.bindings);
    let mut rng = Rng::new(plan.seed);
    let mut keys = move || zipf.sample(&mut rng);
    let rows_of = move |k: usize| shape.nodes - k;
    let rows_of: Option<&dyn Fn(usize) -> usize> = if plan.mixed { None } else { Some(&rows_of) };
    let traced = tracer.is_some();
    let phases = if traced { 4.0 } else { 2.0 };
    let cow_before = magic_storage::cow_clones();
    let trace_epoch = tracer.as_ref().map(|t| t.epoch);
    // The server deals connections to its readers in accept order, so both
    // clients connect here, one after the other, not from racing threads.
    let addr = served.server.addr();
    let update_pipe = plan.mixed.then(|| PipeClient::connect(addr));
    let query_pipe = PipeClient::connect(addr);

    std::thread::scope(|scope| {
        let updater = update_pipe.map(|pipe| {
            let script = MixedScript::new(shape.band, shape.nodes, plan.seed ^ 0x5EED);
            let (seed, duration) = (plan.seed, plan.phase_s * phases);
            scope.spawn(move || {
                let mut own = trace_epoch.map(Tracer::new);
                let updates = match pipe {
                    Ok(pipe) => update_stream(pipe, script, seed, duration, own.as_mut()),
                    Err(_) => Updates {
                        attempted: 1,
                        failed: 1,
                        ..Updates::default()
                    },
                };
                (updates, own)
            })
        });
        match query_pipe {
            Ok(mut pipe) => {
                let t = plan.phase_s;
                out.w1 = query_phase(&mut pipe, &mut keys, 1, t, rows_of, None);
                if traced {
                    let own = tracer.as_deref_mut();
                    out.w1_traced = query_phase(&mut pipe, &mut keys, 1, t, rows_of, own);
                }
                let cpu_before = crate::host::cpu_seconds();
                out.w64 = query_phase(&mut pipe, &mut keys, 64, t, rows_of, None);
                out.w64_cpu_s = crate::host::cpu_seconds() - cpu_before;
                if traced {
                    let own = tracer.as_deref_mut();
                    out.w64_traced = query_phase(&mut pipe, &mut keys, 64, t, rows_of, own);
                }
            }
            Err(e) => out.wrong.push(format!("connect: {e}")),
        }
        if let Some(handle) = updater {
            let (updates, own) = handle.join().expect("update thread");
            out.updates = updates;
            if let (Some(t), Some(own)) = (tracer.as_mut(), own) {
                t.absorb(own);
            }
        }
    });
    out.cow_clones = magic_storage::cow_clones() - cow_before;

    // The oracle: the seed chain plus every update the server acknowledged.
    let mut base = magic_workloads::chain(shape.nodes);
    for op in &out.updates.acked {
        oracle::mirror(&mut base, op);
    }
    let expected = oracle::ancestor_answers(&base, &roots(shape));
    if let Err(e) = query_all(&served.server, shape, &expected, "after the run") {
        out.wrong.push(e);
    }
    match stats(&served.server) {
        Ok(s) => out.after = s,
        Err(e) => out.wrong.push(format!("STATS: {e}")),
    }
    if plan.mixed {
        // Every acknowledged update must survive a restart from the store.
        served.server.shutdown();
        let dir = served.dir.clone().expect("a mixed run has a store");
        let start_at = Instant::now();
        served.server = start(Database::new(), Some(&dir));
        out.recover_s = start_at.elapsed().as_secs_f64();
        if let Err(e) = query_all(&served.server, shape, &expected, "after the restart") {
            out.wrong.push(e);
        }
    }
    out
}

pub fn run(opts: &Opts, mixed: bool, tracer: Option<&mut Tracer>) -> Report {
    let mut report = Report::default();
    let shape = shape(opts.quick);
    let (mut served, setup_s) = repeat_setup(opts.trace, || set_up(shape, mixed));
    report.setup_s = setup_s;
    let plan = Plan {
        shape,
        seed: opts.seed,
        mixed,
        phase_s: opts.seconds / if opts.trace { 4.0 } else { 2.0 },
    };
    let out = drive(&mut served, &plan, tracer);
    drop(served);

    let updates = &out.updates;
    report.attempted = out.queries() + updates.attempted;
    report.failed = out.failed_queries() + updates.failed;
    let failed = report.failed;
    report.check(failed == 0, || format!("{failed} operations failed"));
    report.wrong.extend(out.wrong.iter().cloned());

    let query_p50 = out.w1.p50_us();
    let query_p99 = out.w1.p99_us();
    // An ack during `w64` waits on a writer that shares two cores with the
    // saturated read path; one during `w1` does not.  Taken together the two
    // make a two-humped distribution whose median jumps between the humps,
    // so each half of the run reports its own.
    let half = plan.phase_s * if opts.trace { 2.0 } else { 1.0 };
    let acks_where = |in_w1: bool| -> Vec<f64> {
        let pairs = updates.acks.iter().zip(&updates.due_s);
        pairs
            .filter(|(_, due_s)| (**due_s < half) == in_w1)
            .map(|(ack, _)| *ack)
            .collect()
    };
    let (w1_acks, w64_acks) = (acks_where(true), acks_where(false));
    let ack_p50 = median(&w1_acks) * 1e6;
    // Some 120 acks a run: the 90th percentile is the highest with ten
    // samples beyond it.  It lies among the acks sent during `w64`.
    let ack_p90 = percentile(&updates.acks, 90.0) * 1e6;
    // The generic metrics are the reader's view on both workloads.  Update
    // acks stay named figures: the write path is memory-bound, and on the
    // reference host its run-to-run spread is up to three times the widest
    // bound.  The tail is the 95th percentile at `w64`.  At this update rate
    // a publish stalls about one request in fifty, sixty times a phase, so
    // any percentile from the 98th up is an estimate from those sixty
    // events and spreads 20 to 40 % between runs on a quiet host; the 99th
    // is printed as `query_w64_p99_us` for whoever wants it anyway.
    let w64_p95 = windowed_percentile(&out.w64.latencies, 5, 95.0) * 1e6;
    let w64_p99 = out.w64.p99_us();
    report.op_p50_us = query_p50;
    report.op_tail_us = w64_p95;
    report.ops_per_s = out.w64.qps();
    // Per-request CPU where the server is kept busy: phase `w64`.
    let cpu_us = out.w64_cpu_s * 1e6 / out.w64.latencies.len().max(1) as f64;
    report.detail("cpu_us_per_op", "us", cpu_us, out.w64.latencies.len());
    if opts.trace {
        report.trace_overhead_pct = (out.w1_traced.p50_us() / query_p50 - 1.0) * 100.0;
    }

    report.detail("query_p50_us", "us", query_p50, out.w1.latencies.len());
    report.detail("query_p99_us", "us", query_p99, out.w1.latencies.len());
    report.detail("query_w64_p95_us", "us", w64_p95, out.w64.latencies.len());
    report.detail("query_w64_p99_us", "us", w64_p99, out.w64.latencies.len());
    report.detail(
        "query_qps",
        "1/s",
        report.ops_per_s,
        out.w64.latencies.len(),
    );
    let w64_p50 = out.w64.p50_us();
    report.detail("query_w64_p50_us", "us", w64_p50, out.w64.latencies.len());
    let after = &out.after;
    if mixed {
        let acked = updates.acks.len();
        report.detail("update_ack_p50_us", "us", ack_p50, w1_acks.len());
        report.detail("update_ack_p90_us", "us", ack_p90, acked);
        let w64_p50 = median(&w64_acks) * 1e6;
        report.detail("update_ack_w64_p50_us", "us", w64_p50, w64_acks.len());
        let lag = percentile(&updates.lags, 99.0) * 1e6;
        report.detail("update_lag_p99_us", "us", lag, updates.lags.len());
        report.detail("recover_ms", "ms", out.recover_s * 1e3, 1);
        let per_update = |n: u64| n as f64 / acked.max(1) as f64;
        let publishes = after.version.saturating_sub(out.before.version);
        report.detail(
            "publishes_per_update",
            "count",
            per_update(publishes),
            acked,
        );
        let cow = per_update(out.cow_clones);
        report.detail("cow_clones_per_update", "count", cow, acked);
        report.detail("wal_bytes_end", "count", after.wal_bytes as f64, 0);
    }
    for (name, value) in [
        ("batch_size_p50", after.batch_size_p50),
        ("queue_depth_end", after.queue_depth),
        ("shed_updates", after.shed_updates),
        ("deadline_misses", after.deadline_misses),
    ] {
        report.detail(name, "count", value as f64, 0);
    }
    report
}
