//! A minimal, dependency-free stand-in for the `criterion` benchmark API.
//!
//! The build environment has no access to crates.io, so the Criterion
//! benches under `benches/` run on this shim instead.  It implements just
//! the slice of the `criterion` 0.5 surface those benches use —
//! [`Criterion::benchmark_group`], [`BenchmarkGroup`] configuration,
//! [`BenchmarkGroup::bench_with_input`], [`BenchmarkId`], [`Bencher::iter`]
//! and the `criterion_group!`/`criterion_main!` macros — with honest
//! warm-up + timed-sample measurement and a median/min/max report on
//! stdout.  Swapping the real crate back in is a one-line import change in
//! each bench file.

use std::hint::black_box as std_black_box;
use std::time::{Duration, Instant};

/// Opaque-to-the-optimizer identity, re-exported for bench bodies.
pub fn black_box<T>(x: T) -> T {
    std_black_box(x)
}

/// Top-level benchmark driver handed to each registered bench function.
#[derive(Debug, Default)]
pub struct Criterion {
    _private: (),
}

impl Criterion {
    /// A fresh driver.
    pub fn new() -> Criterion {
        Criterion::default()
    }

    /// Start a named group of related measurements.
    pub fn benchmark_group(&mut self, name: impl Into<String>) -> BenchmarkGroup<'_> {
        let name = name.into();
        println!("\n== {name} ==");
        BenchmarkGroup {
            _criterion: self,
            name,
            sample_size: 20,
            warm_up_time: Duration::from_millis(300),
            measurement_time: Duration::from_secs(1),
        }
    }

    /// Parse `--bench`-style CLI arguments.  The shim accepts and ignores
    /// whatever the cargo bench runner passes.
    pub fn configure_from_args(self) -> Criterion {
        self
    }
}

/// A named benchmark id: function name plus parameter, printed `name/param`.
#[derive(Clone, Debug)]
pub struct BenchmarkId {
    function: String,
    parameter: String,
}

impl BenchmarkId {
    /// An id from a function name and a displayable parameter.
    pub fn new(function: impl Into<String>, parameter: impl std::fmt::Display) -> BenchmarkId {
        BenchmarkId {
            function: function.into(),
            parameter: parameter.to_string(),
        }
    }
}

impl std::fmt::Display for BenchmarkId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}/{}", self.function, self.parameter)
    }
}

/// A group of measurements sharing sampling configuration.
#[derive(Debug)]
pub struct BenchmarkGroup<'a> {
    _criterion: &'a mut Criterion,
    name: String,
    sample_size: usize,
    warm_up_time: Duration,
    measurement_time: Duration,
}

impl BenchmarkGroup<'_> {
    /// Number of timed samples to collect per benchmark.
    pub fn sample_size(&mut self, n: usize) -> &mut Self {
        self.sample_size = n.max(1);
        self
    }

    /// How long to run the body untimed before sampling.
    pub fn warm_up_time(&mut self, t: Duration) -> &mut Self {
        self.warm_up_time = t;
        self
    }

    /// Target total time across the timed samples.
    pub fn measurement_time(&mut self, t: Duration) -> &mut Self {
        self.measurement_time = t;
        self
    }

    /// Measure `routine` against `input` and print a one-line report.
    pub fn bench_with_input<I: ?Sized, F>(&mut self, id: BenchmarkId, input: &I, mut routine: F)
    where
        F: FnMut(&mut Bencher, &I),
    {
        let mut bencher = Bencher {
            samples: Vec::new(),
            sample_size: self.sample_size,
            warm_up_time: self.warm_up_time,
            measurement_time: self.measurement_time,
        };
        routine(&mut bencher, input);
        bencher.report(&self.name, &id.to_string());
    }

    /// End the group (printing is incremental, so this is a no-op).
    pub fn finish(self) {}
}

/// Collects timed samples of a closure.
#[derive(Debug)]
pub struct Bencher {
    samples: Vec<Duration>,
    sample_size: usize,
    warm_up_time: Duration,
    measurement_time: Duration,
}

impl Bencher {
    /// Run `body` repeatedly: first untimed until the warm-up budget is
    /// spent, then `sample_size` timed samples (stopping early if the
    /// measurement budget runs out, but always taking at least one).
    pub fn iter<O, F: FnMut() -> O>(&mut self, mut body: F) {
        let warm_deadline = Instant::now() + self.warm_up_time;
        loop {
            std_black_box(body());
            if Instant::now() >= warm_deadline {
                break;
            }
        }
        let measure_deadline = Instant::now() + self.measurement_time;
        for i in 0..self.sample_size {
            let start = Instant::now();
            std_black_box(body());
            self.samples.push(start.elapsed());
            if i > 0 && Instant::now() >= measure_deadline {
                break;
            }
        }
    }

    fn report(&self, group: &str, id: &str) {
        if self.samples.is_empty() {
            println!("{group}/{id}: no samples (bencher.iter never called)");
            return;
        }
        let mut sorted = self.samples.clone();
        sorted.sort();
        let median = sorted[sorted.len() / 2];
        println!(
            "{group}/{id}: median {:?} (min {:?}, max {:?}, {} samples)",
            median,
            sorted[0],
            sorted[sorted.len() - 1],
            sorted.len()
        );
    }
}

/// Register benchmark functions under a group name, mirroring criterion's
/// macro of the same name.
#[macro_export]
macro_rules! criterion_group {
    ($name:ident, $($target:path),+ $(,)?) => {
        fn $name() {
            let mut criterion = $crate::harness::Criterion::new().configure_from_args();
            $( $target(&mut criterion); )+
        }
    };
}

/// Entry point running the registered groups, mirroring criterion's macro.
#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            $( $group(); )+
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bencher_collects_samples() {
        let mut c = Criterion::new();
        let mut group = c.benchmark_group("shim");
        group.sample_size(3);
        group.warm_up_time(Duration::from_millis(1));
        group.measurement_time(Duration::from_millis(50));
        let mut ran = 0usize;
        group.bench_with_input(BenchmarkId::new("count", 1), &5usize, |b, &n| {
            b.iter(|| {
                ran += 1;
                (0..n).sum::<usize>()
            })
        });
        group.finish();
        assert!(ran >= 3);
    }

    #[test]
    fn id_formats_like_criterion() {
        assert_eq!(BenchmarkId::new("gms", 64).to_string(), "gms/64");
    }
}
