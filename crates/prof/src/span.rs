//! The scoped span-stack profiler: enter/exit markers folded into
//! collapsed-stack lines.
//!
//! Each thread keeps a stack of open [`Span`]s; when a span closes,
//! its *self-time* (wall-clock minus time spent in child spans) is
//! folded into a per-thread table keyed by the full `a;b;c` path.
//! [`flush_thread`] merges a thread's table into the process-global
//! one; [`folded`] snapshots it and [`write_folded`] emits the
//! standard collapsed-stack text (`path self_nanoseconds` per line)
//! that `inferno`, `flamegraph.pl` or [`crate::svg::render`] consume.
//!
//! Disabled (the default), [`span`] costs one relaxed atomic load and
//! constructs nothing — instrumentation sites stay on the hot path
//! permanently. Time is observed, never fed back: nothing here can
//! perturb simulated behaviour, only measure it.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::io;
use std::sync::atomic::{AtomicBool, Ordering::Relaxed};
use std::sync::Mutex;
use std::time::Instant;

static SPANS_ENABLED: AtomicBool = AtomicBool::new(false);

#[derive(Clone, Copy, Default)]
struct Bucket {
    count: u64,
    self_ns: u64,
}

struct Frame {
    /// Full collapsed path: parent path + `;` + span name.
    path: String,
    start: Instant,
    /// Nanoseconds spent in already-closed children (subtracted from
    /// this frame's wall time to get self-time).
    child_ns: u64,
}

#[derive(Default)]
struct ThreadProf {
    stack: Vec<Frame>,
    folded: BTreeMap<String, Bucket>,
}

thread_local! {
    static TPROF: RefCell<ThreadProf> = RefCell::new(ThreadProf::default());
}

static GLOBAL_FOLDED: Mutex<BTreeMap<String, Bucket>> = Mutex::new(BTreeMap::new());
static TICKS: Mutex<BTreeMap<String, u64>> = Mutex::new(BTreeMap::new());

/// Is span profiling active?
#[inline(always)]
pub fn spans_enabled() -> bool {
    SPANS_ENABLED.load(Relaxed)
}

/// Switch span profiling on or off.
pub fn set_spans_enabled(on: bool) {
    SPANS_ENABLED.store(on, Relaxed);
}

/// An open profiler span; closes (and records self-time) on drop.
/// Unarmed when profiling is disabled — construction and drop are then
/// free.
#[must_use = "a span records the time until it is dropped"]
pub struct Span {
    armed: bool,
}

#[allow(
    clippy::disallowed_methods,
    reason = "the profiler measures wall time; it never feeds the simulation"
)]
fn push_frame(path: String) -> Span {
    TPROF.with(|t| {
        t.borrow_mut().stack.push(Frame {
            path,
            start: Instant::now(),
            child_ns: 0,
        });
    });
    Span { armed: true }
}

/// Open a span named `name` nested under the thread's current span
/// path. Names should be short, lowercase and free of `;`/space (the
/// collapsed-stack separators) — pq-lint's `name-registry` rule holds
/// literals to `SPAN_NAMES` in `pq-obs`, whose tests enforce this.
#[inline]
pub fn span(name: &str) -> Span {
    if !spans_enabled() {
        return Span { armed: false };
    }
    let path = TPROF.with(|t| match t.borrow().stack.last() {
        Some(f) => format!("{};{}", f.path, name),
        None => name.to_string(),
    });
    push_frame(path)
}

/// Like [`span`] but the name is built lazily — the closure runs only
/// when profiling is enabled, keeping dynamic-name sites (e.g.
/// per-protocol labels) free on the disabled path.
#[inline]
pub fn span_dyn(name: impl FnOnce() -> String) -> Span {
    if !spans_enabled() {
        return Span { armed: false };
    }
    let name = name();
    let path = TPROF.with(|t| match t.borrow().stack.last() {
        Some(f) => format!("{};{}", f.path, name),
        None => name.to_string(),
    });
    push_frame(path)
}

/// Open a root span on a worker thread, inheriting `root` (the
/// spawning thread's [`current_path`]) so worker time folds under the
/// phase that spawned it instead of starting a disconnected stack.
#[inline]
pub fn worker_span(root: Option<&str>, name: &str) -> Span {
    if !spans_enabled() {
        return Span { armed: false };
    }
    let path = match root {
        Some(r) => format!("{r};{name}"),
        None => name.to_string(),
    };
    push_frame(path)
}

/// The current thread's open span path (`a;b;c`), if profiling is on
/// and a span is open. Used to seed [`worker_span`] roots.
pub fn current_path() -> Option<String> {
    if !spans_enabled() {
        return None;
    }
    TPROF.with(|t| t.borrow().stack.last().map(|f| f.path.clone()))
}

impl Drop for Span {
    fn drop(&mut self) {
        if !self.armed {
            return;
        }
        TPROF.with(|t| {
            let mut t = t.borrow_mut();
            let Some(frame) = t.stack.pop() else { return };
            let total = frame.start.elapsed().as_nanos() as u64;
            let self_ns = total.saturating_sub(frame.child_ns);
            if let Some(parent) = t.stack.last_mut() {
                parent.child_ns = parent.child_ns.saturating_add(total);
            }
            let b = t.folded.entry(frame.path).or_default();
            b.count += 1;
            b.self_ns = b.self_ns.saturating_add(self_ns);
        });
    }
}

/// Count a rare named event (e.g. an RTO retransmit) without opening a
/// span. Mutex-backed — keep it off per-event hot paths.
pub fn tick(name: &str) {
    if !spans_enabled() {
        return;
    }
    let mut t = TICKS.lock().unwrap_or_else(|e| e.into_inner());
    *t.entry(name.to_string()).or_insert(0) += 1;
}

/// Snapshot all tick counters as sorted `(name, count)` pairs.
pub fn ticks() -> Vec<(String, u64)> {
    let t = TICKS.lock().unwrap_or_else(|e| e.into_inner());
    t.iter().map(|(k, v)| (k.clone(), *v)).collect()
}

/// Merge the current thread's folded table into the process-global
/// one. Worker threads call this before exiting; threads that never
/// profiled do nothing.
pub fn flush_thread() {
    TPROF.with(|t| {
        let mut t = t.borrow_mut();
        if t.folded.is_empty() {
            return;
        }
        let local = std::mem::take(&mut t.folded);
        let mut global = GLOBAL_FOLDED.lock().unwrap_or_else(|e| e.into_inner());
        for (path, b) in local {
            let g = global.entry(path).or_default();
            g.count += b.count;
            g.self_ns = g.self_ns.saturating_add(b.self_ns);
        }
    });
}

/// Snapshot the folded profile as sorted `(path, count, self_ns)`
/// rows, after flushing the calling thread's table.
pub fn folded() -> Vec<(String, u64, u64)> {
    flush_thread();
    let global = GLOBAL_FOLDED.lock().unwrap_or_else(|e| e.into_inner());
    global
        .iter()
        .map(|(p, b)| (p.clone(), b.count, b.self_ns))
        .collect()
}

/// Write the folded profile to `path` in collapsed-stack text form
/// (`span;path self_nanoseconds` per line, sorted), atomically via
/// pq-ckpt so a crash mid-export never leaves a torn profile. Creates
/// parent directories. Returns the number of lines written.
pub fn write_folded(path: &std::path::Path) -> io::Result<usize> {
    let rows = folded();
    let mut body = String::with_capacity(rows.len() * 48);
    for (p, _, self_ns) in &rows {
        body.push_str(p);
        body.push(' ');
        body.push_str(&self_ns.to_string());
        body.push('\n');
    }
    pq_ckpt::atomic_write(path, body.as_bytes())?;
    Ok(rows.len())
}

/// Clear all span state: the global folded table, tick counters and
/// the calling thread's local table/stack (tests).
pub fn reset_spans() {
    GLOBAL_FOLDED
        .lock()
        .unwrap_or_else(|e| e.into_inner())
        .clear();
    TICKS.lock().unwrap_or_else(|e| e.into_inner()).clear();
    TPROF.with(|t| {
        let mut t = t.borrow_mut();
        t.folded.clear();
        t.stack.clear();
    });
}

/// Serialises tests that toggle the process-global enable flags.
#[cfg(test)]
pub(crate) fn test_lock() -> std::sync::MutexGuard<'static, ()> {
    static TEST_LOCK: Mutex<()> = Mutex::new(());
    TEST_LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nested_spans_fold_with_self_time() {
        let _g = test_lock();
        reset_spans();
        set_spans_enabled(true);
        {
            let _a = span("outer");
            std::thread::sleep(std::time::Duration::from_millis(2));
            {
                let _b = span("inner");
                std::thread::sleep(std::time::Duration::from_millis(2));
            }
        }
        set_spans_enabled(false);
        let rows = folded();
        let outer = rows.iter().find(|(p, _, _)| p == "outer").expect("outer");
        let inner = rows
            .iter()
            .find(|(p, _, _)| p == "outer;inner")
            .expect("inner nests under outer");
        assert_eq!(outer.1, 1);
        assert_eq!(inner.1, 1);
        assert!(inner.2 >= 1_000_000, "inner self-time ≥ 1ms");
        reset_spans();
    }

    #[test]
    fn worker_span_inherits_root_path() {
        let _g = test_lock();
        reset_spans();
        set_spans_enabled(true);
        let root = {
            let _p = span("experiment");
            current_path()
        };
        assert_eq!(root.as_deref(), Some("experiment"));
        std::thread::scope(|s| {
            s.spawn(|| {
                {
                    let _w = worker_span(root.as_deref(), "par:worker");
                    let _r = span("par:run");
                }
                flush_thread();
            });
        });
        set_spans_enabled(false);
        let rows = folded();
        assert!(rows
            .iter()
            .any(|(p, _, _)| p == "experiment;par:worker;par:run"));
        reset_spans();
    }

    #[test]
    fn disabled_spans_record_nothing() {
        let _g = test_lock();
        reset_spans();
        set_spans_enabled(false);
        {
            let _a = span("ghost");
            tick("ghost:tick");
        }
        assert!(folded().is_empty());
        assert!(ticks().is_empty());
    }

    #[test]
    fn ticks_accumulate() {
        let _g = test_lock();
        reset_spans();
        set_spans_enabled(true);
        tick("transport:retransmit");
        tick("transport:retransmit");
        set_spans_enabled(false);
        let t = ticks();
        assert_eq!(t, vec![("transport:retransmit".to_string(), 2)]);
        reset_spans();
    }

    #[test]
    fn write_folded_emits_collapsed_lines() {
        let _g = test_lock();
        reset_spans();
        set_spans_enabled(true);
        {
            let _a = span("alpha");
        }
        set_spans_enabled(false);
        let dir = std::env::temp_dir().join("pq_prof_span_test");
        let path = dir.join("out.folded");
        let n = write_folded(&path).expect("write");
        assert_eq!(n, 1);
        let text = std::fs::read_to_string(&path).expect("read back");
        let line = text.lines().next().expect("one line");
        assert!(line.starts_with("alpha "));
        line.split(' ')
            .nth(1)
            .expect("value")
            .parse::<u64>()
            .expect("numeric value");
        std::fs::remove_dir_all(&dir).ok();
        reset_spans();
    }
}
