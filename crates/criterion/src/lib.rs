//! A minimal, dependency-free stand-in for the `criterion` crate.
//!
//! The build container has no network access, so the real crates.io
//! `criterion` cannot be fetched. This shim keeps the workspace's
//! `[[bench]]` targets compiling and running: it implements `Criterion`,
//! `BenchmarkGroup`, `Bencher`, `BenchmarkId`, `criterion_group!` and
//! `criterion_main!` with simple wall-clock measurement (median over a small
//! number of samples, one warm-up iteration) and plain-text reporting. It
//! produces no statistical analysis, plots, or saved baselines.

use std::time::{Duration, Instant};

/// Benchmark driver handed to `criterion_group!` functions.
#[derive(Debug, Default)]
pub struct Criterion {
    sample_size: usize,
}

impl Criterion {
    /// Default driver (5 samples per benchmark).
    pub fn new() -> Self {
        Criterion { sample_size: 5 }
    }

    /// Begin a named group of benchmarks.
    pub fn benchmark_group(&mut self, name: impl Into<String>) -> BenchmarkGroup<'_> {
        BenchmarkGroup { name: name.into(), sample_size: self.sample_size.max(2), _parent: self }
    }

    /// Run a single benchmark outside any group.
    pub fn bench_function<F: FnMut(&mut Bencher)>(&mut self, name: &str, f: F) -> &mut Self {
        run_bench("", name, self.sample_size.max(2), f);
        self
    }
}

/// A named set of benchmarks sharing configuration.
pub struct BenchmarkGroup<'a> {
    name: String,
    sample_size: usize,
    _parent: &'a mut Criterion,
}

impl BenchmarkGroup<'_> {
    /// Set the number of timed samples per benchmark.
    pub fn sample_size(&mut self, n: usize) -> &mut Self {
        self.sample_size = n.max(2);
        self
    }

    /// Measure `f`.
    pub fn bench_function<F: FnMut(&mut Bencher)>(
        &mut self,
        id: impl Into<BenchmarkId>,
        f: F,
    ) -> &mut Self {
        run_bench(&self.name, &id.into().label, self.sample_size, f);
        self
    }

    /// Measure `f` with a borrowed input.
    pub fn bench_with_input<I: ?Sized, F: FnMut(&mut Bencher, &I)>(
        &mut self,
        id: BenchmarkId,
        input: &I,
        mut f: F,
    ) -> &mut Self {
        run_bench(&self.name, &id.label, self.sample_size, |b| f(b, input));
        self
    }

    /// End the group (no-op in the shim).
    pub fn finish(&mut self) {}
}

/// Identifier combining a function name and a parameter display value.
#[derive(Debug, Clone)]
pub struct BenchmarkId {
    label: String,
}

impl BenchmarkId {
    /// `function_name/parameter`.
    pub fn new(function: impl Into<String>, parameter: impl std::fmt::Display) -> Self {
        BenchmarkId { label: format!("{}/{}", function.into(), parameter) }
    }
}

impl From<&str> for BenchmarkId {
    fn from(s: &str) -> Self {
        BenchmarkId { label: s.to_string() }
    }
}

impl From<String> for BenchmarkId {
    fn from(s: String) -> Self {
        BenchmarkId { label: s }
    }
}

/// Timing harness passed to benchmark closures.
#[derive(Debug, Default)]
pub struct Bencher {
    elapsed: Option<Duration>,
}

impl Bencher {
    /// Time one execution of `routine` (the sampling loop lives in the
    /// caller, so expensive routines still get only `sample_size` runs).
    pub fn iter<O, R: FnMut() -> O>(&mut self, mut routine: R) {
        let start = Instant::now();
        let out = routine();
        self.elapsed = Some(start.elapsed());
        drop(out);
    }
}

fn run_bench<F: FnMut(&mut Bencher)>(group: &str, name: &str, samples: usize, mut f: F) {
    let full = if group.is_empty() { name.to_string() } else { format!("{group}/{name}") };
    // Warm-up run, not recorded.
    let mut b = Bencher::default();
    f(&mut b);
    let mut times: Vec<Duration> = Vec::with_capacity(samples);
    for _ in 0..samples {
        let mut b = Bencher::default();
        f(&mut b);
        times.push(b.elapsed.unwrap_or_default());
    }
    times.sort();
    let median = times[times.len() / 2];
    let best = times[0];
    println!("{full:<48} median {median:>12.3?}   best {best:>12.3?}   ({samples} samples)");
}

/// Declare a benchmark group function list, mirroring criterion's macro.
#[macro_export]
macro_rules! criterion_group {
    ($group:ident, $($target:path),+ $(,)?) => {
        pub fn $group() {
            let mut c = $crate::Criterion::new();
            $($target(&mut c);)+
        }
    };
}

/// Declare the benchmark binary entry point.
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
    fn bench_runs_and_reports() {
        let mut c = Criterion::new();
        let mut group = c.benchmark_group("shim");
        group.sample_size(2);
        let mut calls = 0u32;
        group.bench_function("counting", |b| b.iter(|| calls += 1));
        group.bench_with_input(BenchmarkId::new("with_input", 7), &7u32, |b, &v| b.iter(|| v * 2));
        group.finish();
        // Warm-up + 2 samples.
        assert_eq!(calls, 3);
    }
}
