//! Offline stand-in for the subset of the crates.io `criterion` API used by
//! this workspace.
//!
//! The build environment has no network access, so the real `criterion`
//! cannot be fetched. This crate keeps the same bench-authoring surface —
//! [`Criterion`], [`Bencher::iter`]/[`Bencher::iter_batched`], benchmark
//! groups, `criterion_group!`/`criterion_main!` and [`black_box`] — backed
//! by a simple calibrated timing loop that prints a median ns/iter line per
//! benchmark. There is no statistical regression analysis, HTML report, or
//! result persistence.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![allow(
    clippy::disallowed_methods,
    reason = "the benchmark shim is a wall-clock timer"
)]

use std::time::{Duration, Instant};

/// Opaque value barrier preventing the optimizer from deleting a benchmark
/// body. Safe-code approximation of `std::hint::black_box`.
pub fn black_box<T>(x: T) -> T {
    std::hint::black_box(x)
}

/// How `iter_batched` amortizes setup cost across iterations. All variants
/// behave identically here (setup runs once per iteration, outside the
/// timed section).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BatchSize {
    /// Small per-iteration input.
    SmallInput,
    /// Large per-iteration input.
    LargeInput,
    /// Fresh input every iteration.
    PerIteration,
}

/// Collected timings for one benchmark.
#[derive(Debug)]
struct Samples {
    per_iter_ns: Vec<f64>,
}

impl Samples {
    fn report(&mut self, name: &str) {
        if self.per_iter_ns.is_empty() {
            println!("{name:<40} (no samples)");
            return;
        }
        self.per_iter_ns
            .sort_by(|a, b| a.partial_cmp(b).expect("non-NaN timing"));
        let median = self.per_iter_ns[self.per_iter_ns.len() / 2];
        let lo = self.per_iter_ns[0];
        let hi = self.per_iter_ns[self.per_iter_ns.len() - 1];
        println!(
            "{name:<40} time: [{} {} {}]",
            format_ns(lo),
            format_ns(median),
            format_ns(hi)
        );
    }
}

fn format_ns(ns: f64) -> String {
    if ns < 1_000.0 {
        format!("{ns:.2} ns")
    } else if ns < 1_000_000.0 {
        format!("{:.2} µs", ns / 1_000.0)
    } else if ns < 1_000_000_000.0 {
        format!("{:.2} ms", ns / 1_000_000.0)
    } else {
        format!("{:.3} s", ns / 1_000_000_000.0)
    }
}

/// Passed to each benchmark closure; runs and times the routine.
#[derive(Debug)]
pub struct Bencher<'a> {
    samples: &'a mut Samples,
    sample_count: usize,
    target: Duration,
}

impl Bencher<'_> {
    /// Times `routine`, running it repeatedly until enough samples are
    /// collected.
    pub fn iter<O, R: FnMut() -> O>(&mut self, mut routine: R) {
        // Calibrate: how many iterations fit in one sample slice.
        let t0 = Instant::now();
        black_box(routine());
        let once = t0.elapsed().max(Duration::from_nanos(1));
        let slice = self.target / self.sample_count as u32;
        let iters = (slice.as_nanos() / once.as_nanos()).clamp(1, 1_000_000) as u64;

        for _ in 0..self.sample_count {
            let start = Instant::now();
            for _ in 0..iters {
                black_box(routine());
            }
            let elapsed = start.elapsed();
            self.samples
                .per_iter_ns
                .push(elapsed.as_nanos() as f64 / iters as f64);
        }
    }

    /// Times `routine` on fresh inputs built by `setup`; setup time is not
    /// included in the measurement.
    pub fn iter_batched<I, O, S, R>(&mut self, mut setup: S, mut routine: R, _size: BatchSize)
    where
        S: FnMut() -> I,
        R: FnMut(I) -> O,
    {
        for _ in 0..self.sample_count {
            let input = setup();
            let start = Instant::now();
            black_box(routine(input));
            self.samples
                .per_iter_ns
                .push(start.elapsed().as_nanos() as f64);
        }
    }
}

/// Benchmark driver. One per `criterion_group!` function invocation.
#[derive(Debug)]
pub struct Criterion {
    sample_count: usize,
    target: Duration,
}

impl Default for Criterion {
    fn default() -> Self {
        Criterion {
            sample_count: 20,
            target: Duration::from_secs(2),
        }
    }
}

impl Criterion {
    /// Runs one named benchmark.
    pub fn bench_function<F: FnMut(&mut Bencher<'_>)>(
        &mut self,
        name: &str,
        mut f: F,
    ) -> &mut Self {
        let mut samples = Samples {
            per_iter_ns: Vec::new(),
        };
        let mut bencher = Bencher {
            samples: &mut samples,
            sample_count: self.sample_count,
            target: self.target,
        };
        f(&mut bencher);
        samples.report(name);
        self
    }

    /// Opens a named group of related benchmarks.
    pub fn benchmark_group(&mut self, name: &str) -> BenchmarkGroup<'_> {
        BenchmarkGroup {
            parent: self,
            name: name.to_string(),
            sample_count: None,
        }
    }
}

/// A named set of benchmarks sharing configuration.
#[derive(Debug)]
pub struct BenchmarkGroup<'a> {
    parent: &'a mut Criterion,
    name: String,
    sample_count: Option<usize>,
}

impl BenchmarkGroup<'_> {
    /// Overrides the number of samples for benchmarks in this group.
    pub fn sample_size(&mut self, n: usize) -> &mut Self {
        assert!(n > 0, "sample_size must be positive");
        self.sample_count = Some(n);
        self
    }

    /// Runs one benchmark within the group.
    pub fn bench_function<F: FnMut(&mut Bencher<'_>)>(
        &mut self,
        name: &str,
        mut f: F,
    ) -> &mut Self {
        let full = format!("{}/{}", self.name, name);
        let mut samples = Samples {
            per_iter_ns: Vec::new(),
        };
        let mut bencher = Bencher {
            samples: &mut samples,
            sample_count: self.sample_count.unwrap_or(self.parent.sample_count),
            target: self.parent.target,
        };
        f(&mut bencher);
        samples.report(&full);
        self
    }

    /// Ends the group.
    pub fn finish(&mut self) {}
}

/// Bundles benchmark functions into a runner callable from
/// [`criterion_main!`].
#[macro_export]
macro_rules! criterion_group {
    ($name:ident, $($bench:path),+ $(,)?) => {
        fn $name() {
            let mut c = $crate::Criterion::default();
            $($bench(&mut c);)+
        }
    };
}

/// Emits `main`, invoking each group in order.
#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            $($group();)+
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn iter_collects_samples() {
        let mut c = Criterion {
            sample_count: 3,
            target: Duration::from_millis(5),
        };
        let mut total = 0u64;
        c.bench_function("sum", |b| {
            b.iter(|| {
                total = total.wrapping_add(1);
                total
            })
        });
        assert!(total > 0);
    }

    #[test]
    fn iter_batched_runs_setup_per_sample() {
        let mut c = Criterion {
            sample_count: 4,
            target: Duration::from_millis(5),
        };
        let mut setups = 0usize;
        let mut runs = 0usize;
        c.bench_function("batched", |b| {
            b.iter_batched(
                || {
                    setups += 1;
                    vec![1u8; 16]
                },
                |v| {
                    runs += 1;
                    v.len()
                },
                BatchSize::LargeInput,
            )
        });
        assert_eq!(setups, 4);
        assert_eq!(runs, 4);
    }

    #[test]
    fn groups_respect_sample_size() {
        let mut c = Criterion::default();
        let mut runs = 0usize;
        {
            let mut g = c.benchmark_group("g");
            g.sample_size(2);
            g.bench_function("probe", |b| {
                b.iter_batched(|| (), |_| runs += 1, BatchSize::SmallInput)
            });
            g.finish();
        }
        assert_eq!(runs, 2);
    }
}
