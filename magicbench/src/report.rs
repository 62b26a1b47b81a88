//! What one workload run hands back, and the helpers every workload
//! shares: repeated set-up, oracle bookkeeping.

use std::path::PathBuf;
use std::time::Instant;

#[derive(Clone, Debug)]
pub struct Opts {
    pub workload: String,
    pub seed: u64,
    /// How long the measured part runs.
    pub seconds: f64,
    pub trace: bool,
    /// Small inputs: keeps the benchmark compiling and checked in `cargo
    /// test`; its numbers mean nothing.
    pub quick: bool,
    pub out: Option<PathBuf>,
}

#[derive(Clone, Debug)]
pub struct Metric {
    pub name: String,
    pub unit: &'static str,
    pub value: f64,
    /// Samples behind the value (0 where the value is not a statistic).
    pub samples: usize,
}

impl Metric {
    pub fn new(name: impl Into<String>, unit: &'static str, value: f64, samples: usize) -> Metric {
        Metric {
            name: name.into(),
            unit,
            value,
            samples,
        }
    }
}

/// One workload's results.  `peak_rss_mb` is read by `main` at exit.
#[derive(Clone, Debug, Default)]
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    pub op_p50_us: f64,
    pub op_tail_us: f64,
    pub ops_per_s: f64,
    pub setup_s: f64,
    /// Traced over untraced `op_p50_us`, as a percentage above it.
    pub trace_overhead_pct: f64,
    pub detail: Vec<Metric>,
    /// Oracle checks that failed; empty means every answer was right.
    pub wrong: Vec<String>,
}

impl Report {
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.wrong.push(what());
        }
    }

    pub fn detail(&mut self, name: impl Into<String>, unit: &'static str, value: f64, n: usize) {
        self.detail.push(Metric::new(name, unit, value, n));
    }
}

/// Build the workload's state several times and report the median wall,
/// so one slow build does not set `setup_s`; the last build is kept.  A
/// traced run does not report `setup_s` and builds once.
pub fn repeat_setup<T>(trace: bool, mut build: impl FnMut() -> T) -> (T, f64) {
    let mut walls = Vec::new();
    let begun = Instant::now();
    loop {
        let start = Instant::now();
        let built = build();
        walls.push(start.elapsed().as_secs_f64());
        let enough = walls.len() >= 31 || (walls.len() >= 3 && begun.elapsed().as_secs_f64() > 1.5);
        if trace || enough {
            return (built, crate::stats::median(&walls));
        }
        drop(built);
    }
}
