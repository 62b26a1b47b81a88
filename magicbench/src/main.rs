//! `magicbench`: the repository's benchmark.  See `README.md` beside this
//! package and `BENCHMARK.json` at the repository root.
//!
//! ```text
//! magicbench [run] --workload <name|all> [--seed N] [--seconds S]
//!            [--trace [0|1]] [--quick] [--out FILE]
//! magicbench compare <a.jsonl> <b.jsonl>
//! ```
//!
//! One workload runs per process, so `peak_rss_mb` is that workload's;
//! `--workload all` re-invokes this executable once per workload.  The
//! last line of standard output is the result object `BENCHMARK.json`'s
//! driver reads.

mod compare;
mod eval_cold;
mod gen;
mod host;
mod json;
mod maintain;
mod oracle;
mod probes;
mod report;
mod serve;
mod spec;
mod stats;
mod trace;

use json::Json;
use report::{Metric, Opts, Report};
use std::io::Write as _;
use std::process::ExitCode;
use std::time::Instant;

/// `run_seconds` of `BENCHMARK.json`: what the bounds were calibrated at.
const DEFAULT_SECONDS: f64 = 20.0;

fn usage() -> ExitCode {
    eprintln!(
        "usage: magicbench [run] --workload <{}|all> [--seed N] [--seconds S] [--trace [0|1]] \
         [--quick] [--out FILE]\n       magicbench compare <a.jsonl> <b.jsonl>",
        spec::WORKLOADS.join("|")
    );
    ExitCode::from(2)
}

fn parse_opts(args: &[String]) -> Result<Opts, String> {
    let mut opts = Opts {
        workload: String::new(),
        seed: 1,
        seconds: f64::NAN,
        trace: false,
        quick: false,
        out: None,
    };
    let mut it = args.iter().peekable();
    while let Some(arg) = it.next() {
        let mut value = |flag: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{flag} needs a value"))
        };
        match arg.as_str() {
            "--workload" => opts.workload = value("--workload")?,
            "--seed" => {
                opts.seed = value("--seed")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                opts.seconds = value("--seconds")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?
            }
            "--out" => opts.out = Some(value("--out")?.into()),
            "--quick" => opts.quick = true,
            "--trace" => {
                // Bare `--trace` switches tracing on; the driver passes 0 or 1.
                opts.trace = match it.peek().map(|s| s.as_str()) {
                    Some("0") => {
                        it.next();
                        false
                    }
                    Some("1") => {
                        it.next();
                        true
                    }
                    _ => true,
                }
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if opts.seconds.is_nan() {
        opts.seconds = if opts.quick { 1.0 } else { DEFAULT_SECONDS };
    }
    if opts.seconds.is_nan() || opts.seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    if opts.workload != "all" && !spec::WORKLOADS.contains(&opts.workload.as_str()) {
        return Err(format!("unknown workload {:?}", opts.workload));
    }
    Ok(opts)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("compare") => match args.as_slice() {
            [_, a, b] => compare::main(a.as_ref(), b.as_ref()),
            _ => usage(),
        },
        Some(first) => {
            let rest = if first == "run" {
                &args[1..]
            } else {
                &args[..]
            };
            match parse_opts(rest) {
                Ok(opts) if opts.workload == "all" => run_all(&opts),
                Ok(opts) => run_one(&opts),
                Err(e) => {
                    eprintln!("magicbench: {e}");
                    usage()
                }
            }
        }
        None => usage(),
    }
}

/// Each workload in a child process of its own; the children's output
/// passes through, and the last line sums them up.
fn run_all(opts: &Opts) -> ExitCode {
    let exe = std::env::current_exe().expect("path of this executable");
    let mut all_ok = true;
    let mut attempted = 0.0;
    let mut failed = 0.0;
    let mut metrics = Vec::new();
    for workload in spec::WORKLOADS {
        let mut cmd = std::process::Command::new(&exe);
        cmd.args(["run", "--workload", workload])
            .args(["--seed", &opts.seed.to_string()])
            .args(["--seconds", &opts.seconds.to_string()])
            .args(["--trace", if opts.trace { "1" } else { "0" }]);
        if opts.quick {
            cmd.arg("--quick");
        }
        if let Some(out) = &opts.out {
            cmd.arg("--out").arg(out);
        }
        let output = cmd.output().expect("run a workload in a child process");
        let text = String::from_utf8_lossy(&output.stdout);
        print!("{text}");
        std::io::stderr().write_all(&output.stderr).ok();
        let result = text.lines().last().and_then(|l| Json::parse(l).ok());
        let correct = result.as_ref().and_then(|r| r.get("correct")) == Some(&Json::Bool(true));
        all_ok &= output.status.success() && correct;
        if let Some(result) = &result {
            let num = |key| result.get(key).and_then(Json::as_f64).unwrap_or(0.0);
            attempted += num("attempted");
            failed += num("failed");
            if let Some(m) = result.get("metrics").and_then(Json::as_obj) {
                metrics.extend(
                    m.iter()
                        .map(|(k, v)| (format!("{workload}.{k}"), v.clone())),
                );
            }
        }
    }
    let summary = Json::obj([
        ("correct", Json::Bool(all_ok)),
        ("attempted", Json::Num(attempted)),
        ("failed", Json::Num(failed)),
        ("metrics", Json::obj(metrics)),
    ]);
    println!("{}", summary.render());
    if all_ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// One finished run: what to print and what to record.
struct Executed {
    /// The named metrics and checks, one per line.
    lines: Vec<String>,
    /// The result object of `BENCHMARK.json`'s contract.
    result: Json,
    /// The result plus run parameters and workload details, for `--out`.
    record: Json,
    correct: bool,
}

fn execute(opts: &Opts) -> Executed {
    let mut tracer = opts.trace.then(|| trace::Tracer::new(Instant::now()));
    let spin_ms = host::spin_ms();
    let mut report: Report = match opts.workload.as_str() {
        "eval_cold" => eval_cold::run(opts, tracer.as_mut()),
        "maintain" => maintain::run(opts, tracer.as_mut()),
        "serve_read" => serve::run(opts, false, tracer.as_mut()),
        "serve_mixed" => serve::run(opts, true, tracer.as_mut()),
        other => unreachable!("parse_opts admitted workload {other}"),
    };
    if !opts.trace {
        // A traced run lists these among the per-layer metrics.
        report.detail("host.spin_ms", "ms", spin_ms, 5);
        report.detail("host.nproc", "count", host::nproc() as f64, 0);
    }
    let mut lines = Vec::new();

    let metrics: Vec<Metric> = match &tracer {
        None => spec::END_TO_END
            .iter()
            .map(|m| {
                let value = match m.name {
                    "op_p50_us" => report.op_p50_us,
                    "op_tail_us" => report.op_tail_us,
                    "ops_per_s" => report.ops_per_s,
                    "peak_rss_mb" => host::peak_rss_mib(),
                    "setup_s" => report.setup_s,
                    other => unreachable!("no value for end-to-end metric {other}"),
                };
                Metric::new(m.name, m.unit, value, 0)
            })
            .collect(),
        Some(tracer) => {
            let mut layers = probes::run(opts.quick, &mut report);
            layers.push(Metric::new("host.nproc", "count", host::nproc() as f64, 0));
            layers.push(Metric::new("host.spin_ms", "ms", spin_ms, 5));
            let overhead = report.trace_overhead_pct;
            layers.push(Metric::new("trace_overhead_pct", "%", overhead, 0));
            let (by_layer, roots) = trace::self_times(&tracer.spans);
            for layer in trace::LAYERS {
                let share = by_layer[layer] as f64 * 100.0 / roots.max(1) as f64;
                layers.push(Metric::new(format!("span.{layer}_pct"), "%", share, 0));
            }
            let path = match &opts.out {
                Some(out) => {
                    let mut name = out.clone().into_os_string();
                    name.push(format!(".{}.trace.json", opts.workload));
                    name.into()
                }
                None => host::tmp_root().join(format!("{}.trace.json", opts.workload)),
            };
            let file = trace::render(&tracer.spans, &opts.workload, opts.seed);
            match std::fs::write(&path, file) {
                Ok(()) => lines.push(format!(
                    "# {} spans -> {}",
                    tracer.spans.len(),
                    path.display()
                )),
                Err(e) => report.wrong.push(format!("write {}: {e}", path.display())),
            }
            // In the order, and with exactly the names, the spec lists.
            spec::per_layer()
                .iter()
                .map(|m| {
                    let found = layers.iter().find(|l| l.name == m.name);
                    let value = found.map_or(f64::NAN, |l| l.value);
                    Metric::new(
                        m.name.clone(),
                        m.unit,
                        value,
                        found.map_or(0, |l| l.samples),
                    )
                })
                .collect()
        }
    };
    for m in &metrics {
        if !m.value.is_finite() {
            report.wrong.push(format!("{} has no finite value", m.name));
        }
    }

    let correct = report.wrong.is_empty();
    lines.push(format!(
        "# magicbench {} seed={} seconds={} trace={} quick={}",
        opts.workload, opts.seed, opts.seconds, opts.trace as u8, opts.quick
    ));
    for m in metrics.iter().chain(&report.detail) {
        lines.push(format!(
            "{:<44} {:>16.4} {:<6} n={}",
            m.name, m.value, m.unit, m.samples
        ));
    }
    lines.push(format!(
        "ops_attempted={} ops_failed={} checks={}",
        report.attempted,
        report.failed,
        if correct { "passed" } else { "FAILED" }
    ));
    lines.extend(report.wrong.iter().map(|wrong| format!("WRONG: {wrong}")));

    let metric_obj = |list: &[Metric]| {
        Json::obj(list.iter().map(|m| {
            (
                m.name.clone(),
                Json::obj([
                    ("value", Json::Num(m.value)),
                    ("unit", Json::Str(m.unit.into())),
                ]),
            )
        }))
    };
    let result = Json::obj([
        ("correct", Json::Bool(correct)),
        ("attempted", Json::Num(report.attempted.max(1) as f64)),
        ("failed", Json::Num(report.failed as f64)),
        ("metrics", metric_obj(&metrics)),
    ]);
    let mut record = result.clone();
    if let Json::Obj(map) = &mut record {
        map.insert("workload".into(), Json::Str(opts.workload.clone()));
        map.insert("seed".into(), Json::Num(opts.seed as f64));
        map.insert("seconds".into(), Json::Num(opts.seconds));
        map.insert("trace".into(), Json::Bool(opts.trace));
        map.insert("detail".into(), metric_obj(&report.detail));
    }
    Executed {
        lines,
        result,
        record,
        correct,
    }
}

fn run_one(opts: &Opts) -> ExitCode {
    let run = execute(opts);
    for line in &run.lines {
        println!("{line}");
    }
    if let Some(out) = &opts.out {
        // One record per line, appended: a file holds a set of runs.
        let appended = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(out)
            .and_then(|mut f| writeln!(f, "{}", run.record.render()));
        if let Err(e) = appended {
            eprintln!("magicbench: write {}: {e}", out.display());
            return ExitCode::FAILURE;
        }
    }
    println!("{}", run.result.render());
    if run.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    fn benchmark_json() -> Json {
        Json::parse(include_str!("../../BENCHMARK.json")).expect("BENCHMARK.json parses")
    }

    fn names(list: &Json) -> Vec<String> {
        let Json::Arr(items) = list else {
            panic!("expected an array, got {list:?}");
        };
        let name = |m: &Json| m.get("name").and_then(Json::as_str).map(str::to_string);
        items.iter().map(|m| name(m).expect("a name")).collect()
    }

    /// `BENCHMARK.json` and the tables in `spec.rs` say the same thing.
    #[test]
    fn benchmark_json_matches_the_spec() {
        let file = benchmark_json();
        let (end_to_end, per_layer) = spec::benchmark_json_metrics();
        assert_eq!(file.get("end_to_end"), Some(&end_to_end));
        assert_eq!(file.get("per_layer"), Some(&per_layer));
        assert_eq!(names(file.get("workloads").unwrap()), spec::WORKLOADS);
        assert_eq!(
            file.get("run_seconds").and_then(Json::as_f64),
            Some(DEFAULT_SECONDS)
        );
        let all: Vec<String> = [names(&end_to_end), names(&per_layer)].concat();
        let distinct: BTreeSet<&String> = all.iter().collect();
        assert_eq!(distinct.len(), all.len(), "a metric name is used twice");
        for detail in &spec::DETAIL {
            assert!(detail.workloads.iter().all(|w| spec::WORKLOADS.contains(w)));
        }
    }

    /// Every workload at `--quick`, untraced and traced: each declared
    /// metric printed exactly once with a finite value, every oracle check
    /// passed.  Keeps the benchmark compiling against the public API.
    #[test]
    fn quick_runs_print_every_declared_metric() {
        let file = benchmark_json();
        for workload in spec::WORKLOADS {
            for (trace, section) in [(false, "end_to_end"), (true, "per_layer")] {
                let opts = Opts {
                    workload: workload.into(),
                    seed: 7,
                    seconds: 0.4,
                    trace,
                    quick: true,
                    out: None,
                };
                let run = execute(&opts);
                assert!(run.correct, "{workload} trace={trace}: {:#?}", run.lines);
                let declared = names(file.get(section).unwrap());
                let metrics = run.result.get("metrics").and_then(Json::as_obj).unwrap();
                let printed: Vec<&String> = metrics.keys().collect();
                let mut want: Vec<&String> = declared.iter().collect();
                want.sort();
                assert_eq!(printed, want, "{workload} trace={trace}");
                for (name, metric) in metrics {
                    let value = metric.get("value").and_then(Json::as_f64);
                    assert!(value.is_some_and(f64::is_finite), "{workload} {name}");
                    let lines = run
                        .lines
                        .iter()
                        .filter(|l| l.split_whitespace().next() == Some(name.as_str()));
                    assert_eq!(lines.count(), 1, "{workload} prints {name}");
                }
                if !trace {
                    for detail in spec::DETAIL
                        .iter()
                        .filter(|d| d.workloads.contains(&workload))
                    {
                        let printed = run.lines.iter().any(|l| {
                            l.split_whitespace().next() == Some(detail.name)
                                && l.contains(detail.unit)
                        });
                        assert!(printed, "{workload} does not print {}", detail.name);
                    }
                }
            }
        }
    }

    #[test]
    fn options_parse_as_the_driver_passes_them() {
        let args = |s: &str| s.split_whitespace().map(String::from).collect::<Vec<_>>();
        let opts = parse_opts(&args("--workload maintain --seed 9 --seconds 3 --trace 0")).unwrap();
        assert_eq!(
            (opts.workload.as_str(), opts.seed, opts.trace),
            ("maintain", 9, false)
        );
        assert_eq!(opts.seconds, 3.0);
        assert!(
            parse_opts(&args("--workload maintain --trace 1"))
                .unwrap()
                .trace
        );
        assert!(
            parse_opts(&args("--workload all --trace --quick"))
                .unwrap()
                .trace
        );
        assert_eq!(
            parse_opts(&args("--workload eval_cold")).unwrap().seconds,
            DEFAULT_SECONDS
        );
        assert!(parse_opts(&args("--workload nope")).is_err());
        assert!(parse_opts(&args("--workload maintain --seconds 0")).is_err());
    }
}
