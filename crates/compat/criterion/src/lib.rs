//! Offline stand-in for the `criterion` crate.
//!
//! The bench targets under `crates/bench/benches` are written against the
//! real criterion API (`criterion_group!`, benchmark groups, per-input
//! benches). This shim keeps those targets compiling and producing useful
//! wall-clock numbers without a registry: each benchmark is warmed up once,
//! then timed for `sample_size` batches, and the min, median and mean
//! per-iteration times are printed in a criterion-like line format. There
//! is no statistical analysis, HTML report or regression detection.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

use std::fmt::Display;
use std::time::{Duration, Instant};

pub use std::hint::black_box;

/// Top-level harness configuration, mirroring `criterion::Criterion`.
#[derive(Debug, Clone)]
pub struct Criterion {
    sample_size: usize,
    warm_up_time: Duration,
    measurement_time: Duration,
}

impl Default for Criterion {
    fn default() -> Criterion {
        Criterion {
            sample_size: 10,
            warm_up_time: Duration::from_millis(100),
            measurement_time: Duration::from_millis(500),
        }
    }
}

impl Criterion {
    /// Sets the number of timed samples per benchmark.
    pub fn sample_size(mut self, samples: usize) -> Criterion {
        self.sample_size = samples.max(1);
        self
    }

    /// Sets the warm-up budget per benchmark.
    pub fn warm_up_time(mut self, duration: Duration) -> Criterion {
        self.warm_up_time = duration;
        self
    }

    /// Sets the measurement budget per benchmark.
    pub fn measurement_time(mut self, duration: Duration) -> Criterion {
        self.measurement_time = duration;
        self
    }

    /// Opens a named group of related benchmarks.
    pub fn benchmark_group(&mut self, name: impl Into<String>) -> BenchmarkGroup<'_> {
        BenchmarkGroup {
            criterion: self,
            name: name.into(),
        }
    }

    /// Runs a single stand-alone benchmark.
    pub fn bench_function<F>(&mut self, id: impl Into<String>, f: F)
    where
        F: FnMut(&mut Bencher),
    {
        let name = id.into();
        run_one(self, &name, f);
    }
}

/// A named benchmark within a group, mirroring `criterion::BenchmarkId`.
#[derive(Debug, Clone)]
pub struct BenchmarkId {
    id: String,
}

impl BenchmarkId {
    /// A function name qualified by the parameter it was measured at.
    pub fn new(function: impl Into<String>, parameter: impl Display) -> BenchmarkId {
        BenchmarkId {
            id: format!("{}/{}", function.into(), parameter),
        }
    }

    /// An id that is only the parameter, for single-function groups.
    pub fn from_parameter(parameter: impl Display) -> BenchmarkId {
        BenchmarkId {
            id: parameter.to_string(),
        }
    }
}

/// A group of related benchmarks sharing a prefix.
pub struct BenchmarkGroup<'a> {
    criterion: &'a mut Criterion,
    name: String,
}

impl BenchmarkGroup<'_> {
    /// Benchmarks `f` under `group/id`.
    pub fn bench_function<F>(&mut self, id: impl Into<String>, f: F)
    where
        F: FnMut(&mut Bencher),
    {
        let full = format!("{}/{}", self.name, id.into());
        run_one(self.criterion, &full, f);
    }

    /// Benchmarks `f` against a borrowed input under `group/id`.
    pub fn bench_with_input<I: ?Sized, F>(&mut self, id: BenchmarkId, input: &I, mut f: F)
    where
        F: FnMut(&mut Bencher, &I),
    {
        let full = format!("{}/{}", self.name, id.id);
        run_one(self.criterion, &full, |b| f(b, input));
    }

    /// Finishes the group (reporting already happened per benchmark).
    pub fn finish(self) {}
}

/// Times the closure handed to it by a benchmark body.
pub struct Bencher {
    iters: u64,
    elapsed: Duration,
}

impl Bencher {
    /// Runs `f` `iters` times, recording the total elapsed time.
    pub fn iter<O, F: FnMut() -> O>(&mut self, mut f: F) {
        let start = Instant::now();
        for _ in 0..self.iters {
            black_box(f());
        }
        self.elapsed = start.elapsed();
    }
}

fn run_one<F: FnMut(&mut Bencher)>(criterion: &Criterion, name: &str, mut f: F) {
    // Warm-up: run single iterations until the warm-up budget is spent, and
    // use the observed cost to size the timed batches so each sample stays
    // well under the measurement budget.
    let warm_start = Instant::now();
    let mut warm_iters: u64 = 0;
    while warm_start.elapsed() < criterion.warm_up_time || warm_iters == 0 {
        let mut bencher = Bencher {
            iters: 1,
            elapsed: Duration::ZERO,
        };
        f(&mut bencher);
        warm_iters += 1;
        if warm_iters >= 1000 {
            break;
        }
    }
    let per_iter = warm_start.elapsed() / warm_iters as u32;
    let budget = criterion.measurement_time / criterion.sample_size as u32;
    let iters_per_sample = if per_iter.is_zero() {
        1000
    } else {
        (budget.as_nanos() / per_iter.as_nanos().max(1)).clamp(1, 1_000_000) as u64
    };

    let mut samples = Vec::with_capacity(criterion.sample_size);
    for _ in 0..criterion.sample_size {
        let mut bencher = Bencher {
            iters: iters_per_sample,
            elapsed: Duration::ZERO,
        };
        f(&mut bencher);
        samples.push(bencher.elapsed.as_secs_f64() / bencher.iters as f64);
    }
    let mean = samples.iter().sum::<f64>() / samples.len() as f64;
    samples.sort_by(f64::total_cmp);
    println!(
        "{name:<60} time: [min {} median {} mean {}]  ({} samples x {} iters)",
        format_seconds(samples[0]),
        format_seconds(median(&samples)),
        format_seconds(mean),
        samples.len(),
        iters_per_sample
    );
}

/// The median of sorted, nonempty samples: the middle one, or the mean of
/// the two middle ones for an even count.
fn median(sorted: &[f64]) -> f64 {
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 0 {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    } else {
        sorted[mid]
    }
}

/// Formats a duration in seconds with the unit conventions of this shim's
/// report lines (`s`/`ms`/`µs`/`ns`) — exported so tools that parse those
/// lines (the bench-baselines differ) render with the same conventions.
pub fn format_seconds(seconds: f64) -> String {
    if seconds >= 1.0 {
        format!("{seconds:.3} s")
    } else if seconds >= 1e-3 {
        format!("{:.3} ms", seconds * 1e3)
    } else if seconds >= 1e-6 {
        format!("{:.3} µs", seconds * 1e6)
    } else {
        format!("{:.1} ns", seconds * 1e9)
    }
}

/// Declares a benchmark group function, mirroring `criterion_group!`.
#[macro_export]
macro_rules! criterion_group {
    (
        name = $name:ident;
        config = $config:expr;
        targets = $($target:path),+ $(,)?
    ) => {
        /// Entry point for this benchmark group (generated by
        /// `criterion_group!`).
        pub fn $name() {
            let mut criterion: $crate::Criterion = $config;
            $( $target(&mut criterion); )+
        }
    };
    ( $name:ident, $($target:path),+ $(,)? ) => {
        $crate::criterion_group! {
            name = $name;
            config = $crate::Criterion::default();
            targets = $($target),+
        }
    };
}

/// Declares the bench-target entry point, mirroring `criterion_main!`.
#[macro_export]
macro_rules! criterion_main {
    ( $($group:path),+ $(,)? ) => {
        fn main() {
            $( $group(); )+
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny(c: &mut Criterion) {
        let mut group = c.benchmark_group("shim");
        group.bench_function("sum", |b| b.iter(|| (0..100u64).sum::<u64>()));
        group.bench_with_input(BenchmarkId::new("sum_to", 50u64), &50u64, |b, &n| {
            b.iter(|| (0..n).sum::<u64>())
        });
        group.finish();
    }

    #[test]
    fn median_takes_the_middle_of_sorted_samples() {
        assert_eq!(median(&[3.0]), 3.0);
        assert_eq!(median(&[1.0, 2.0, 9.0]), 2.0);
        assert_eq!(median(&[1.0, 2.0, 4.0, 9.0]), 3.0);
    }

    #[test]
    fn harness_runs_to_completion() {
        let mut criterion = Criterion::default()
            .sample_size(2)
            .warm_up_time(Duration::from_millis(1))
            .measurement_time(Duration::from_millis(2));
        tiny(&mut criterion);
    }
}
