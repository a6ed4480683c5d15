//! Wall-clock phase timers for the experiment harness.
//!
//! The bench binaries split a run into named phases (`stimuli`,
//! `study`, `report`, …). A [`PhaseTimer`] measures each phase with
//! wall time, records a span on the harness track (`pid 0`) so the
//! phases show up in the exported trace, feeds a
//! `bench.phase_secs{phase}` histogram in the metrics registry, and
//! keeps the `(name, seconds)` pairs for the run manifest.
//!
//! [`Stopwatch`] is the single-interval building block.

use crate::trace::{tracer, ArgValue, Level};
use std::time::Instant;

/// A simple wall-clock stopwatch.
///
/// ```
/// let sw = pq_obs::Stopwatch::start();
/// // ... work ...
/// let secs = sw.elapsed_secs();
/// assert!(secs >= 0.0);
/// ```
#[derive(Debug, Clone, Copy)]
pub struct Stopwatch {
    started: Instant,
}

impl Stopwatch {
    /// Start timing now.
    #[allow(
        clippy::disallowed_methods,
        reason = "phase timing is wall-clock by definition and never feeds simulated data"
    )]
    pub fn start() -> Self {
        Self {
            started: Instant::now(),
        }
    }

    /// Seconds elapsed since [`Stopwatch::start`].
    pub fn elapsed_secs(&self) -> f64 {
        self.started.elapsed().as_secs_f64()
    }

    /// Nanoseconds elapsed since [`Stopwatch::start`].
    pub fn elapsed_ns(&self) -> u64 {
        self.started.elapsed().as_nanos() as u64
    }

    /// Restart the stopwatch and return the seconds since the previous
    /// start (lap time).
    #[allow(
        clippy::disallowed_methods,
        reason = "phase timing is wall-clock by definition and never feeds simulated data"
    )]
    pub fn lap_secs(&mut self) -> f64 {
        let now = Instant::now();
        let secs = now.duration_since(self.started).as_secs_f64();
        self.started = now;
        secs
    }
}

/// Measures a sequence of named phases in wall time.
///
/// Each completed phase:
///
/// * emits an `Info` span on the harness track (`pid 0`, `tid 0`,
///   category `bench`) so Perfetto shows the pipeline timeline,
/// * observes its duration into the `bench.phase_secs{phase}`
///   histogram of the global metrics registry,
/// * is remembered in [`PhaseTimer::phases`] for the run manifest.
///
/// ```
/// let mut timer = pq_obs::PhaseTimer::new();
/// timer.phase("warmup", || 2 + 2);
/// let out = timer.phase("main", || "done");
/// assert_eq!(out, "done");
/// assert_eq!(timer.phases().len(), 2);
/// assert!(timer.total_secs() >= 0.0);
/// ```
#[derive(Debug, Default)]
pub struct PhaseTimer {
    phases: Vec<(String, f64)>,
}

impl PhaseTimer {
    /// Create an empty timer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Run `f`, timing it as phase `name`. Returns `f`'s output. The
    /// phase also scopes `pq-prof` attribution: allocations inside `f`
    /// land on this phase's slot and a profiler span of the same name
    /// roots the phase's folded sub-tree (both inert unless profiling
    /// is enabled).
    pub fn phase<T>(&mut self, name: &str, f: impl FnOnce() -> T) -> T {
        let t = tracer();
        let start_ns = t.wall_ns();
        let sw = Stopwatch::start();
        let out = {
            let _prof = pq_prof::phase_scope(name);
            f()
        };
        let secs = sw.elapsed_secs();
        let end_ns = t.wall_ns();
        self.record(name, secs, start_ns, end_ns);
        out
    }

    /// Record an externally measured phase of `secs` seconds ending
    /// now. Useful when the timed region does not fit a closure.
    pub fn note(&mut self, name: &str, secs: f64) {
        let t = tracer();
        let end_ns = t.wall_ns();
        let start_ns = end_ns.saturating_sub((secs.max(0.0) * 1e9) as u64);
        self.record(name, secs, start_ns, end_ns);
    }

    fn record(&mut self, name: &str, secs: f64, start_ns: u64, end_ns: u64) {
        if crate::trace::enabled(Level::Info) {
            tracer().span(
                Level::Info,
                "bench",
                name,
                0,
                0,
                start_ns,
                end_ns,
                vec![("secs", ArgValue::F64(secs))],
            );
        }
        crate::metrics::registry().observe(&format!("bench.phase_secs{{phase=\"{name}\"}}"), secs);
        self.phases.push((name.to_string(), secs));
    }

    /// The completed `(phase, seconds)` pairs, in execution order.
    pub fn phases(&self) -> &[(String, f64)] {
        &self.phases
    }

    /// Sum of all phase durations in seconds.
    pub fn total_secs(&self) -> f64 {
        self.phases.iter().map(|(_, s)| s).sum()
    }

    /// Phase durations as a JSON object `{phase: secs, ...}`.
    pub fn to_json(&self) -> crate::json::Value {
        let mut obj = crate::json::Value::obj();
        for (name, secs) in &self.phases {
            obj.set(name, crate::json::Value::Num(*secs));
        }
        obj
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stopwatch_monotonic() {
        let mut sw = Stopwatch::start();
        let a = sw.elapsed_secs();
        let b = sw.elapsed_secs();
        assert!(b >= a);
        assert!(a >= 0.0);
        let lap = sw.lap_secs();
        assert!(lap >= 0.0);
        assert!(sw.elapsed_ns() < u64::MAX);
    }

    #[test]
    fn phase_timer_records_order_and_total() {
        let mut timer = PhaseTimer::new();
        let v = timer.phase("one", || 41 + 1);
        assert_eq!(v, 42);
        timer.phase("two", || ());
        timer.note("three", 0.25);
        let names: Vec<&str> = timer.phases().iter().map(|(n, _)| n.as_str()).collect();
        assert_eq!(names, ["one", "two", "three"]);
        assert!(timer.total_secs() >= 0.25);
        let json = timer.to_json();
        assert_eq!(
            json.get("three").and_then(crate::json::Value::as_f64),
            Some(0.25)
        );
    }

    #[test]
    fn phase_timer_feeds_histogram() {
        let mut timer = PhaseTimer::new();
        timer.note("hist_probe_phase", 0.5);
        let snap = crate::metrics::registry().snapshot();
        assert!(snap
            .iter()
            .any(|(name, _)| name.contains("hist_probe_phase")));
    }
}
