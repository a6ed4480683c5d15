//! Per-cell wall-clock deadlines (`PQ_CELL_TIMEOUT_MS`).
//!
//! A hung or pathologically slow cell must not hang the sweep: the
//! pool stamps a thread-local start time as it begins each task, and
//! long-running cells poll [`cell_deadline_exceeded`] at their
//! cancellation points (between retry attempts in
//! `StimulusSet::build_with_faults`). A cell over budget returns an
//! error and is routed through pq-fault's quarantine machinery —
//! accounted as `cells_timed_out` in the manifest — instead of
//! blocking the grid.
//!
//! Wall-clock time here never feeds simulated data; with the knob
//! unset (the default) the whole module is inert and the determinism
//! contract is untouched. With it set, which cells exceed the budget
//! depends on the machine — that is the documented trade: use it for
//! liveness in long unattended sweeps, not for baseline digests.

use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;
use std::time::Instant;

/// Sentinel: no programmatic override installed.
const NO_OVERRIDE: u64 = u64::MAX;

static TIMEOUT_OVERRIDE: AtomicU64 = AtomicU64::new(NO_OVERRIDE);

fn env_timeout() -> Option<u64> {
    static CACHE: OnceLock<Option<u64>> = OnceLock::new();
    *CACHE.get_or_init(|| {
        let raw = pq_obs::env::var("PQ_CELL_TIMEOUT_MS")?;
        match raw.parse::<u64>() {
            Ok(0) => None,
            Ok(ms) => Some(ms),
            Err(_) => {
                pq_obs::tracer().warn(
                    "par",
                    format!(
                        "unparsable PQ_CELL_TIMEOUT_MS={raw:?} (want milliseconds >= 1, \
                         or 0 to disable); the cell watchdog stays off"
                    ),
                );
                None
            }
        }
    })
}

/// The effective per-cell deadline in milliseconds: a
/// [`set_cell_timeout_ms`] override, else `PQ_CELL_TIMEOUT_MS`, else
/// `None` (watchdog off).
pub fn cell_timeout_ms() -> Option<u64> {
    match TIMEOUT_OVERRIDE.load(Ordering::Relaxed) {
        NO_OVERRIDE => env_timeout(),
        0 => None,
        ms => Some(ms),
    }
}

/// Override the deadline for the whole process: `Some(0)` disables the
/// watchdog outright, `None` restores `PQ_CELL_TIMEOUT_MS`. For tests
/// and embedding harnesses.
pub fn set_cell_timeout_ms(ms: Option<u64>) {
    TIMEOUT_OVERRIDE.store(ms.unwrap_or(NO_OVERRIDE), Ordering::Relaxed);
}

thread_local! {
    /// When the current pool task started, stamped by the pool on the
    /// executing thread (worker or caller) at each task boundary.
    static TASK_START: Cell<Option<Instant>> = const { Cell::new(None) };
}

/// Stamp the start of a task on this thread. Called by the pool for
/// every item, on both the serial fast path and worker threads.
#[allow(
    clippy::disallowed_methods,
    reason = "deadline enforcement is wall-clock by definition; gated behind PQ_CELL_TIMEOUT_MS and never feeds simulated data"
)]
pub(crate) fn task_started() {
    if cell_timeout_ms().is_some() {
        TASK_START.with(|t| t.set(Some(Instant::now())));
    }
}

/// Cooperative cancellation check: `Some(elapsed_ms)` when the current
/// task has exceeded [`cell_timeout_ms`], `None` otherwise (including
/// whenever the watchdog is off). Cheap enough to call between retry
/// attempts; a cell that sees `Some` should abandon work and report a
/// quarantineable error.
pub fn cell_deadline_exceeded() -> Option<u64> {
    let budget = cell_timeout_ms()?;
    let start = TASK_START.with(Cell::get)?;
    let elapsed = start.elapsed().as_millis() as u64;
    if elapsed > budget {
        Some(elapsed)
    } else {
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // One test: the override is process-global, so the scenarios must
    // not interleave across test threads.
    #[test]
    fn override_precedence_stamping_and_budget() {
        // Override precedence and explicit disable.
        set_cell_timeout_ms(Some(250));
        assert_eq!(cell_timeout_ms(), Some(250));
        set_cell_timeout_ms(Some(0));
        assert_eq!(cell_timeout_ms(), None);

        // Off means never exceeded, even with a stale stamp.
        set_cell_timeout_ms(Some(3_600_000));
        task_started();
        set_cell_timeout_ms(Some(0));
        std::thread::sleep(std::time::Duration::from_millis(2));
        assert_eq!(cell_deadline_exceeded(), None);

        // Under budget: no trip. Over budget: elapsed reported.
        set_cell_timeout_ms(Some(3_600_000));
        task_started();
        assert_eq!(cell_deadline_exceeded(), None, "fresh task is under budget");
        set_cell_timeout_ms(Some(1));
        std::thread::sleep(std::time::Duration::from_millis(5));
        let over = cell_deadline_exceeded();
        assert!(over.is_some_and(|ms| ms >= 2), "task over budget: {over:?}");
        set_cell_timeout_ms(None);
    }
}
