//! # criterion (vendored shim)
//!
//! An API-compatible subset of the `criterion` benchmark harness,
//! vendored because the build environment has no access to a crates
//! registry. It supports the surface the workspace benches use —
//! [`Criterion`], benchmark groups, [`Bencher::iter`] /
//! [`Bencher::iter_batched`], [`BenchmarkId`], [`Throughput`] and the
//! [`criterion_group!`] / [`criterion_main!`] macros — with a simple
//! calibrated timing loop and a plain-text report instead of
//! statistical analysis and HTML output.
//!
//! Tuning knobs:
//!
//! * `CRITERION_SAMPLE_MS` — target measurement time per benchmark in
//!   milliseconds (default 300).
//! * Running the bench binaries with `--test` (as `cargo test` does
//!   for `harness = false` benches) executes each routine once and
//!   skips measurement.

#![forbid(unsafe_code)]

use std::fmt::Display;
use std::time::{Duration, Instant};

pub use std::hint::black_box;

/// How many elements/bytes one iteration processes; turns the
/// per-iteration time into a rate in the report.
#[derive(Clone, Copy, Debug)]
pub enum Throughput {
    /// Elements per iteration.
    Elements(u64),
    /// Bytes per iteration.
    Bytes(u64),
}

/// Batch sizing hint for [`Bencher::iter_batched`]; the shim times one
/// routine call per batch regardless.
#[derive(Clone, Copy, Debug)]
pub enum BatchSize {
    /// Small per-iteration input.
    SmallInput,
    /// Large per-iteration input.
    LargeInput,
    /// Fresh input for every call.
    PerIteration,
}

/// A benchmark identifier (`group/parameter`).
#[derive(Clone, Debug)]
pub struct BenchmarkId {
    id: String,
}

impl BenchmarkId {
    /// Identify a benchmark within a group by a parameter value.
    pub fn from_parameter<P: Display>(parameter: P) -> BenchmarkId {
        BenchmarkId {
            id: parameter.to_string(),
        }
    }

    /// Identify by function name and parameter.
    pub fn new<S: Into<String>, P: Display>(function_name: S, parameter: P) -> BenchmarkId {
        BenchmarkId {
            id: format!("{}/{}", function_name.into(), parameter),
        }
    }
}

impl Display for BenchmarkId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.id)
    }
}

impl From<&str> for BenchmarkId {
    fn from(s: &str) -> BenchmarkId {
        BenchmarkId { id: s.to_string() }
    }
}

fn target_sample_time() -> Duration {
    let ms = pq_obs::env::var_parsed::<u64>("CRITERION_SAMPLE_MS")
        .filter(|&n| n > 0)
        .unwrap_or(300);
    Duration::from_millis(ms)
}

/// Passed to benchmark closures; drives the timing loop.
pub struct Bencher {
    /// Mean nanoseconds per iteration, filled in by `iter*`.
    mean_ns: f64,
    /// Total iterations measured.
    iters: u64,
    smoke_only: bool,
}

impl Bencher {
    /// Time `routine`, called in a calibrated loop.
    #[allow(
        clippy::disallowed_methods,
        reason = "benchmark timing is wall-clock by definition"
    )]
    pub fn iter<O, R: FnMut() -> O>(&mut self, mut routine: R) {
        if self.smoke_only {
            black_box(routine());
            (self.mean_ns, self.iters) = (0.0, 1);
            return;
        }
        // Calibrate: double the batch until it runs long enough to
        // swamp timer noise.
        let mut batch: u64 = 1;
        loop {
            let t0 = Instant::now();
            for _ in 0..batch {
                black_box(routine());
            }
            let dt = t0.elapsed();
            if dt >= Duration::from_millis(5) || batch >= 1 << 24 {
                // Measure: run batches until the sample budget is spent.
                let budget = target_sample_time();
                let mut total = dt;
                let mut iters = batch;
                while total < budget {
                    let t0 = Instant::now();
                    for _ in 0..batch {
                        black_box(routine());
                    }
                    total += t0.elapsed();
                    iters += batch;
                }
                self.mean_ns = total.as_nanos() as f64 / iters as f64;
                self.iters = iters;
                return;
            }
            batch *= 2;
        }
    }

    /// Time `routine` on inputs produced (outside the timing) by
    /// `setup`.
    #[allow(
        clippy::disallowed_methods,
        reason = "benchmark timing is wall-clock by definition"
    )]
    pub fn iter_batched<I, O, S, R>(&mut self, mut setup: S, mut routine: R, _size: BatchSize)
    where
        S: FnMut() -> I,
        R: FnMut(I) -> O,
    {
        if self.smoke_only {
            black_box(routine(setup()));
            (self.mean_ns, self.iters) = (0.0, 1);
            return;
        }
        let budget = target_sample_time();
        let mut total = Duration::ZERO;
        let mut iters = 0u64;
        // At least a handful of iterations even if each is slow.
        while total < budget || iters < 10 {
            let input = setup();
            let t0 = Instant::now();
            black_box(routine(input));
            total += t0.elapsed();
            iters += 1;
            if iters >= 1 << 20 {
                break;
            }
        }
        self.mean_ns = total.as_nanos() as f64 / iters as f64;
        self.iters = iters;
    }
}

fn human_time(ns: f64) -> String {
    if ns < 1e3 {
        format!("{ns:.1} ns")
    } else if ns < 1e6 {
        format!("{:.2} µs", ns / 1e3)
    } else if ns < 1e9 {
        format!("{:.2} ms", ns / 1e6)
    } else {
        format!("{:.2} s", ns / 1e9)
    }
}

fn human_rate(per_sec: f64, unit: &str) -> String {
    if per_sec >= 1e9 {
        format!("{:.2} G{unit}/s", per_sec / 1e9)
    } else if per_sec >= 1e6 {
        format!("{:.2} M{unit}/s", per_sec / 1e6)
    } else if per_sec >= 1e3 {
        format!("{:.2} K{unit}/s", per_sec / 1e3)
    } else {
        format!("{per_sec:.1} {unit}/s")
    }
}

fn report(name: &str, bencher: &Bencher, throughput: Option<Throughput>) {
    if bencher.smoke_only {
        println!("{name:<50} ok (smoke)");
        return;
    }
    let mut line = format!(
        "{name:<50} time: {:>12}  ({} iters)",
        human_time(bencher.mean_ns),
        bencher.iters
    );
    if let Some(tp) = throughput {
        let (n, unit) = match tp {
            Throughput::Elements(n) => (n, "elem"),
            Throughput::Bytes(n) => (n, "B"),
        };
        if bencher.mean_ns > 0.0 {
            let rate = n as f64 * 1e9 / bencher.mean_ns;
            line.push_str(&format!("  thrpt: {}", human_rate(rate, unit)));
        }
    }
    println!("{line}");
}

/// The benchmark manager; collects and runs benchmark functions.
pub struct Criterion {
    smoke_only: bool,
    filter: Option<String>,
}

impl Default for Criterion {
    fn default() -> Criterion {
        // `cargo test` runs harness=false bench binaries with `--test`;
        // `cargo bench` passes `--bench`. In test mode run everything
        // once (a smoke check), not a timed measurement.
        let args: Vec<String> = std::env::args().collect();
        let smoke_only = args.iter().any(|a| a == "--test");
        let filter = args.iter().skip(1).find(|a| !a.starts_with("--")).cloned();
        Criterion { smoke_only, filter }
    }
}

impl Criterion {
    fn wants(&self, name: &str) -> bool {
        self.filter.as_deref().is_none_or(|f| name.contains(f))
    }

    fn run_one(
        &mut self,
        name: &str,
        throughput: Option<Throughput>,
        f: &mut dyn FnMut(&mut Bencher),
    ) {
        if !self.wants(name) {
            return;
        }
        let mut b = Bencher {
            mean_ns: 0.0,
            iters: 0,
            smoke_only: self.smoke_only,
        };
        f(&mut b);
        report(name, &b, throughput);
    }

    /// Benchmark `f` under `id`.
    pub fn bench_function<F: FnMut(&mut Bencher)>(&mut self, id: &str, mut f: F) -> &mut Self {
        self.run_one(id, None, &mut f);
        self
    }

    /// Open a named group of related benchmarks.
    pub fn benchmark_group(&mut self, name: &str) -> BenchmarkGroup<'_> {
        BenchmarkGroup {
            c: self,
            name: name.to_string(),
            throughput: None,
        }
    }
}

/// A group of related benchmarks sharing a name prefix and settings.
pub struct BenchmarkGroup<'a> {
    c: &'a mut Criterion,
    name: String,
    throughput: Option<Throughput>,
}

impl BenchmarkGroup<'_> {
    /// Declare per-iteration throughput for subsequent benches.
    pub fn throughput(&mut self, throughput: Throughput) -> &mut Self {
        self.throughput = Some(throughput);
        self
    }

    /// Upstream tunes the sample count; the shim's time budget is
    /// fixed, so this is accepted and ignored.
    pub fn sample_size(&mut self, _n: usize) -> &mut Self {
        self
    }

    /// Upstream tunes measurement time; shim: see `CRITERION_SAMPLE_MS`.
    pub fn measurement_time(&mut self, _d: Duration) -> &mut Self {
        self
    }

    /// Benchmark `f` under `group/id`.
    pub fn bench_function<F: FnMut(&mut Bencher)>(&mut self, id: &str, mut f: F) -> &mut Self {
        let name = format!("{}/{}", self.name, id);
        let tp = self.throughput;
        self.c.run_one(&name, tp, &mut f);
        self
    }

    /// Benchmark `f` with a borrowed input under `group/id`.
    pub fn bench_with_input<I: ?Sized, F>(
        &mut self,
        id: BenchmarkId,
        input: &I,
        mut f: F,
    ) -> &mut Self
    where
        F: FnMut(&mut Bencher, &I),
    {
        let name = format!("{}/{}", self.name, id);
        let tp = self.throughput;
        self.c.run_one(&name, tp, &mut |b| f(b, input));
        self
    }

    /// Close the group (no-op beyond matching upstream's API).
    pub fn finish(self) {}
}

/// Bundle benchmark functions into a runnable group, mirroring
/// upstream's `criterion_group!`.
#[macro_export]
macro_rules! criterion_group {
    ($group:ident, $($target:path),+ $(,)?) => {
        fn $group() {
            let mut criterion = $crate::Criterion::default();
            $( $target(&mut criterion); )+
        }
    };
}

/// Generate a `main` that runs the given groups, mirroring upstream's
/// `criterion_main!`.
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
    fn bencher_iter_measures_something() {
        let mut b = Bencher {
            mean_ns: 0.0,
            iters: 0,
            smoke_only: true,
        };
        let mut calls = 0u32;
        b.iter(|| {
            calls += 1;
            calls
        });
        assert!(calls >= 1);
        assert_eq!(b.iters, 1);
    }

    #[test]
    fn iter_batched_smoke_runs_once() {
        let mut b = Bencher {
            mean_ns: 0.0,
            iters: 0,
            smoke_only: true,
        };
        let mut setups = 0u32;
        b.iter_batched(
            || {
                setups += 1;
                vec![1u8, 2, 3]
            },
            |v| v.len(),
            BatchSize::SmallInput,
        );
        assert_eq!(setups, 1);
    }

    #[test]
    fn format_helpers() {
        assert_eq!(human_time(12.0), "12.0 ns");
        assert_eq!(human_time(2_500.0), "2.50 µs");
        assert_eq!(human_time(3_000_000.0), "3.00 ms");
        assert!(human_rate(2.5e6, "elem").contains("M"));
        let id = BenchmarkId::from_parameter("quic");
        assert_eq!(id.to_string(), "quic");
        assert_eq!(BenchmarkId::new("f", 3).to_string(), "f/3");
    }
}
