//! The central environment-variable funnel (`pq-lint` rule `env`).
//!
//! Every `PQ_*` (and shim) knob in the workspace reads the process
//! environment through this module instead of calling `std::env::var`
//! directly. The funnel buys three things:
//!
//! 1. **One place to look.** `grep pq_obs::env` finds every
//!    configuration surface of the pipeline; nothing hides in a
//!    crate-local `std::env::var` call.
//! 2. **No silent misconfiguration.** [`var_parsed`] warns through the
//!    tracer (once per variable per process) when a knob is *set but
//!    unparsable* — the same policy `PQ_JOBS`, `PQ_SCALE` and
//!    `PQ_SEED` already follow — instead of quietly falling back.
//! 3. **Enforceability.** With exactly one sanctioned call site,
//!    `pq-lint`'s `env` rule can mechanically reject raw
//!    `std::env::var` reads anywhere else in the workspace.
//!
//! Reads are intentionally *uncached*: tests mutate the environment
//! between cases, and the knobs are read a handful of times per
//! process, so caching would buy nothing and cost correctness.

use std::collections::BTreeSet;
use std::str::FromStr;
use std::sync::Mutex;

/// Every environment knob the workspace reads, sorted. `pq-lint`'s
/// `env-name` rule parses this list straight out of the source and
/// rejects reads of undeclared names — a typo'd knob (`PQ_SEEED=7`)
/// then fails the lint instead of silently configuring nothing.
/// Shim variables owned by the OS/toolchain (`HOME`, `CI`, …) are not
/// listed; they go through [`var_os`] at sanctioned call sites.
pub const KNOWN_VARS: &[&str] = &[
    "CRITERION_SAMPLE_MS",
    "PQ_CELL_TIMEOUT_MS",
    "PQ_EDGE_BB_MBPS",
    "PQ_EDGE_IDLE_MS",
    "PQ_EDGE_MBX_BUF_KB",
    "PQ_EDGE_POOL",
    "PQ_EDGE_REPLICAS",
    "PQ_EDGE_RTT_SPLIT",
    "PQ_FAULTS",
    "PQ_JOBS",
    "PQ_JOURNAL",
    "PQ_PROF",
    "PQ_PROF_ALLOC",
    "PQ_PROF_OUT",
    "PQ_PROF_SVG",
    "PQ_RESUME",
    "PQ_SCALE",
    "PQ_SEED",
    "PQ_STACKS",
    "PQ_TRACE",
    "PQ_TRACE_BUF",
    "PQ_TRACE_OUT",
    "PROPTEST_CASES",
];

/// Variables whose unparsable values have already been warned about
/// (one warning per variable per process, like the `PQ_JOBS` policy).
static WARNED: Mutex<BTreeSet<String>> = Mutex::new(BTreeSet::new());

/// Read `name` from the process environment.
///
/// Returns `None` when the variable is unset **or** not valid Unicode
/// (the latter warns — a mangled knob must not be silently ignored).
#[allow(
    clippy::disallowed_methods,
    reason = "this module is the sanctioned configuration funnel"
)]
pub fn var(name: &str) -> Option<String> {
    match std::env::var(name) {
        Ok(v) => Some(v),
        Err(std::env::VarError::NotPresent) => None,
        Err(std::env::VarError::NotUnicode(_)) => {
            warn_once(name, || {
                crate::tracer().warn(
                    "env",
                    format!("{name} is set but not valid unicode; ignoring it"),
                );
            });
            None
        }
    }
}

/// Read `name` as an OS string (for paths, which need not be Unicode).
/// `None` when unset.
#[allow(
    clippy::disallowed_methods,
    reason = "this module is the sanctioned configuration funnel"
)]
pub fn var_os(name: &str) -> Option<std::ffi::OsString> {
    std::env::var_os(name)
}

/// Read and parse `name`.
///
/// * unset → `None` (caller applies its default silently);
/// * set and parsable → `Some(value)`;
/// * set but **unparsable** → a tracer warning naming the variable and
///   the offending value (once per variable per process), then `None`
///   — configuration is never silently swallowed.
pub fn var_parsed<T: FromStr>(name: &str) -> Option<T> {
    let raw = var(name)?;
    match raw.parse::<T>() {
        Ok(v) => Some(v),
        Err(_) => {
            warn_once(name, || {
                crate::tracer().warn(
                    "env",
                    format!(
                        "unparsable {name}={raw:?} (want a {}); using the default",
                        std::any::type_name::<T>()
                    ),
                );
            });
            None
        }
    }
}

/// Run `warn` the first time `name` misbehaves in this process.
fn warn_once(name: &str, warn: impl FnOnce()) {
    let fresh = WARNED
        .lock()
        .unwrap_or_else(|e| e.into_inner())
        .insert(name.to_string());
    if fresh {
        warn();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // Env-mutating tests share one process; serialize them.
    static ENV_LOCK: Mutex<()> = Mutex::new(());

    #[test]
    fn unset_is_none() {
        let _g = ENV_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        std::env::remove_var("PQ_ENV_TEST_UNSET");
        assert_eq!(var("PQ_ENV_TEST_UNSET"), None);
        assert_eq!(var_parsed::<u64>("PQ_ENV_TEST_UNSET"), None);
        assert!(var_os("PQ_ENV_TEST_UNSET").is_none());
    }

    #[test]
    fn set_round_trips() {
        let _g = ENV_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        std::env::set_var("PQ_ENV_TEST_SET", "1910");
        assert_eq!(var("PQ_ENV_TEST_SET").as_deref(), Some("1910"));
        assert_eq!(var_parsed::<u64>("PQ_ENV_TEST_SET"), Some(1910));
        assert_eq!(var_parsed::<f64>("PQ_ENV_TEST_SET"), Some(1910.0));
        std::env::remove_var("PQ_ENV_TEST_SET");
    }

    #[test]
    fn unparsable_warns_and_falls_back() {
        let _g = ENV_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        std::env::set_var("PQ_ENV_TEST_BAD", "not-a-number");
        assert_eq!(var_parsed::<u64>("PQ_ENV_TEST_BAD"), None);
        // Second read: still None, and the warn-once set stays sane.
        assert_eq!(var_parsed::<u64>("PQ_ENV_TEST_BAD"), None);
        std::env::remove_var("PQ_ENV_TEST_BAD");
    }
}
