//! The work-stealing scatter-gather engine behind [`par_map`].
//!
//! One batch = one [`std::thread::scope`]. The item index space is cut
//! into contiguous [`Chunk`]s; each worker owns a chunked deque (LIFO
//! for its own work, FIFO for thieves) and a shared injector queue
//! (behind a `Mutex`/`Condvar` pair) holds the overflow. A worker that
//! runs dry pops the injector, then steals from its siblings, and only
//! parks on the condvar when every queue is empty but chunks are still
//! in flight on other workers (they cannot be stolen mid-chunk, so
//! there is genuinely nothing to do but wait for batch completion or
//! abort).
//!
//! Determinism: the engine never reorders *results*. Each chunk
//! remembers the index range it covers; workers return `(start,
//! Vec<R>)` fragments which the caller sorts by `start` and flattens,
//! so the output of [`execute`] is bit-identical to a serial
//! `items.iter().enumerate().map(f).collect()` — provided `f` derives
//! everything (RNG streams included) from the item and its index
//! alone, never from execution order. All call sites in this workspace
//! key their RNG as `fork_idx(label, index)` for exactly this reason.
//!
//! Panics: a panicking task does not tear down the process. The first
//! payload is captured, the batch aborts early (remaining chunks are
//! dropped), sibling workers drain out, and the payload is re-raised
//! on the calling thread via [`std::panic::resume_unwind`] — the same
//! contract as `rayon` and `std::thread::scope`.
//!
//! [`par_map`]: crate::par_map
//! [`execute`]: execute

use std::any::Any;
use std::collections::VecDeque;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex};
use std::time::{Duration, Instant};

use pq_obs::{ArgValue, Level};

/// A contiguous, half-open range of item indices — the unit of
/// scheduling (and of stealing).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct Chunk {
    /// First item index covered.
    pub start: usize,
    /// One past the last item index covered.
    pub end: usize,
}

impl Chunk {
    fn len(self) -> usize {
        self.end - self.start
    }
}

/// Target number of chunks per worker: small enough that chunk
/// dispatch overhead is negligible next to a page-load simulation,
/// large enough that stealing can rebalance a skewed grid (slow sites
/// cluster: MSS cells cost ~10× DSL cells).
const CHUNKS_PER_WORKER: usize = 8;

/// How many chunks are dealt round-robin into each worker's own deque
/// before the rest overflow into the shared injector.
const INITIAL_PER_WORKER: usize = 2;

/// Park timeout while waiting for batch completion — a belt-and-braces
/// bound on lost-wakeup stalls, not a scheduling quantum.
const PARK: Duration = Duration::from_millis(2);

/// Cut `n` items into chunks sized for `workers` workers.
pub(crate) fn chunks_for(n: usize, workers: usize) -> Vec<Chunk> {
    if n == 0 {
        return Vec::new();
    }
    let target = workers.max(1) * CHUNKS_PER_WORKER;
    let size = n.div_ceil(target).max(1);
    let mut out = Vec::with_capacity(n.div_ceil(size));
    let mut start = 0;
    while start < n {
        let end = (start + size).min(n);
        out.push(Chunk { start, end });
        start = end;
    }
    out
}

/// Everything the workers of one batch share.
struct Shared<R> {
    /// Overflow queue, protected by the mutex the condvar pairs with.
    injector: Mutex<VecDeque<Chunk>>,
    /// Signalled on batch completion, abort, and injector refills.
    bell: Condvar,
    /// One chunked deque per worker.
    deques: Vec<Mutex<VecDeque<Chunk>>>,
    /// Chunks not yet finished (in a queue or in flight).
    pending: AtomicUsize,
    /// Set on the first panic: drop remaining work, drain out.
    abort: AtomicBool,
    /// First captured panic payload, re-raised by the caller.
    panic: Mutex<Option<Box<dyn Any + Send>>>,
    /// Order-restoring result fragments: `(chunk start, outputs)`.
    results: Mutex<Vec<(usize, Vec<R>)>>,
    /// Tasks (items) executed across the batch.
    tasks: AtomicU64,
    /// Chunks obtained by stealing from a sibling's deque.
    steals: AtomicU64,
    /// Watchdog state, present only when a cell deadline is
    /// configured: a batch epoch and one heartbeat slot per worker
    /// (0 = idle, else ms-since-epoch of the current task's start +1).
    watchdog: Option<(Instant, Vec<AtomicU64>)>,
}

impl<R> Shared<R> {
    #[allow(
        clippy::disallowed_methods,
        reason = "watchdog heartbeat epoch; only armed when PQ_CELL_TIMEOUT_MS is set and never feeds simulated data"
    )]
    fn new(workers: usize, chunks: Vec<Chunk>) -> Shared<R> {
        let mut deques: Vec<Mutex<VecDeque<Chunk>>> =
            (0..workers).map(|_| Mutex::new(VecDeque::new())).collect();
        let mut injector = VecDeque::new();
        let pending = chunks.len();
        for (i, c) in chunks.into_iter().enumerate() {
            if i < workers * INITIAL_PER_WORKER {
                deques[i % workers]
                    .get_mut()
                    .expect("fresh deque")
                    .push_back(c);
            } else {
                injector.push_back(c);
            }
        }
        let watchdog = crate::deadline::cell_timeout_ms().map(|_| {
            let epoch = Instant::now();
            (epoch, (0..workers).map(|_| AtomicU64::new(0)).collect())
        });
        Shared {
            injector: Mutex::new(injector),
            bell: Condvar::new(),
            deques,
            pending: AtomicUsize::new(pending),
            abort: AtomicBool::new(false),
            panic: Mutex::new(None),
            results: Mutex::new(Vec::with_capacity(pending)),
            tasks: AtomicU64::new(0),
            steals: AtomicU64::new(0),
            watchdog,
        }
    }

    /// Record worker `who`'s heartbeat: `Some(ms)` marks a task begun
    /// that many ms after the epoch, `None` marks the worker idle.
    fn beat(&self, who: usize, at_ms: Option<u64>) {
        if let Some((_, slots)) = &self.watchdog {
            if let Some(slot) = slots.get(who) {
                slot.store(at_ms.map_or(0, |ms| ms + 1), Ordering::Relaxed);
            }
        }
    }

    /// Milliseconds since the watchdog epoch (0 when the watchdog is
    /// off).
    fn epoch_ms(&self) -> u64 {
        self.watchdog
            .as_ref()
            .map_or(0, |(epoch, _)| epoch.elapsed().as_millis() as u64)
    }

    /// Next chunk for `who`: own deque (LIFO) → injector (FIFO) →
    /// steal from a sibling (FIFO). `None` means every queue is empty
    /// right now. The second tuple field reports whether the chunk was
    /// stolen.
    fn find_work(&self, who: usize) -> Option<(Chunk, bool)> {
        if let Some(c) = self.deques[who].lock().expect("deque poisoned").pop_back() {
            return Some((c, false));
        }
        if let Some(c) = self.injector.lock().expect("injector poisoned").pop_front() {
            return Some((c, false));
        }
        let n = self.deques.len();
        for off in 1..n {
            let victim = (who + off) % n;
            if let Some(c) = self.deques[victim]
                .lock()
                .expect("deque poisoned")
                .pop_front()
            {
                return Some((c, true));
            }
        }
        None
    }

    /// Mark one chunk finished; ring the bell when the batch is done.
    fn finish_chunk(&self) {
        if self.pending.fetch_sub(1, Ordering::AcqRel) == 1 {
            // Last chunk: wake every parked worker so the batch drains.
            let _guard = self.injector.lock().expect("injector poisoned");
            self.bell.notify_all();
        }
    }

    /// Record the first panic and abort the batch.
    fn poison(&self, payload: Box<dyn Any + Send>) {
        {
            let mut slot = self.panic.lock().expect("panic slot poisoned");
            slot.get_or_insert(payload);
        }
        self.abort.store(true, Ordering::Release);
        let _guard = self.injector.lock().expect("injector poisoned");
        self.bell.notify_all();
    }
}

/// One worker's batch loop. `prof_root` is the spawning thread's open
/// `pq-prof` span path, so worker time folds under the phase that
/// launched the batch (queue-wait shows up as `par:wait`, chunk
/// execution as `par:run`).
fn worker_loop<T, R>(
    id: usize,
    shared: &Shared<R>,
    items: &[T],
    f: &(dyn Fn(usize, &T) -> R + Sync),
    prof_root: Option<&str>,
) where
    T: Sync,
    R: Send,
{
    let traced = pq_obs::enabled(Level::Info);
    let tracer = pq_obs::tracer();
    let pid = if traced {
        tracer.new_pid(&format!("pq-par worker-{id}"))
    } else {
        0
    };
    let started_ns = tracer.wall_ns();
    let mut local_tasks = 0u64;
    let mut local_steals = 0u64;
    let mut local_chunks = 0u64;
    pq_prof::set_lane(id + 1);

    {
        let _worker = pq_prof::worker_span(prof_root, "par:worker");
        loop {
            if shared.abort.load(Ordering::Acquire) {
                break;
            }
            match shared.find_work(id) {
                Some((chunk, stolen)) => {
                    if stolen {
                        local_steals += 1;
                    }
                    local_chunks += 1;
                    let t0 = tracer.wall_ns();
                    let _run_span = pq_prof::span("par:run");
                    let run = catch_unwind(AssertUnwindSafe(|| {
                        let slice = &items[chunk.start..chunk.end];
                        let mut out = Vec::with_capacity(chunk.len());
                        for (i, item) in (chunk.start..chunk.end).zip(slice) {
                            crate::deadline::task_started();
                            shared.beat(id, Some(shared.epoch_ms()));
                            out.push(f(i, item));
                        }
                        out
                    }));
                    shared.beat(id, None);
                    match run {
                        Ok(out) => {
                            local_tasks += out.len() as u64;
                            shared
                                .results
                                .lock()
                                .expect("results poisoned")
                                .push((chunk.start, out));
                            if pq_obs::enabled(Level::Debug) {
                                tracer.span(
                                    Level::Debug,
                                    "par",
                                    format!("chunk {}..{}", chunk.start, chunk.end),
                                    pid,
                                    0,
                                    t0,
                                    tracer.wall_ns(),
                                    vec![
                                        ("items", ArgValue::U64(chunk.len() as u64)),
                                        ("stolen", ArgValue::U64(u64::from(stolen))),
                                    ],
                                );
                            }
                            shared.finish_chunk();
                        }
                        Err(payload) => {
                            shared.finish_chunk();
                            shared.poison(payload);
                            break;
                        }
                    }
                }
                None => {
                    // Nothing queued anywhere. Either the batch is done, or
                    // chunks are in flight on siblings — park until the bell.
                    let _wait_span = pq_prof::span("par:wait");
                    let guard = shared.injector.lock().expect("injector poisoned");
                    if shared.pending.load(Ordering::Acquire) == 0
                        || shared.abort.load(Ordering::Acquire)
                    {
                        break;
                    }
                    if guard.is_empty() {
                        // Timeout bounds any lost-wakeup window; spurious
                        // wakeups just re-run the scan above.
                        let _ = shared
                            .bell
                            .wait_timeout(guard, PARK)
                            .expect("injector poisoned");
                    }
                }
            }
        }
    }

    shared.tasks.fetch_add(local_tasks, Ordering::Relaxed);
    shared.steals.fetch_add(local_steals, Ordering::Relaxed);
    // Per-worker balance counters (scheduler-skew visibility in
    // BENCH_obs.json); formatted names carry the worker id as a label.
    let reg = pq_obs::registry();
    reg.counter_add(&format!("par.worker_tasks{{worker=\"{id}\"}}"), local_tasks);
    reg.counter_add(
        &format!("par.worker_steals{{worker=\"{id}\"}}"),
        local_steals,
    );
    pq_prof::flush_thread();
    pq_prof::set_lane(0);
    if traced {
        tracer.span(
            Level::Info,
            "par",
            format!("worker-{id}"),
            pid,
            0,
            started_ns,
            tracer.wall_ns(),
            vec![
                ("tasks", ArgValue::U64(local_tasks)),
                ("chunks", ArgValue::U64(local_chunks)),
                ("steals", ArgValue::U64(local_steals)),
            ],
        );
    }
}

/// Supervision thread for one batch, spawned only when a cell
/// deadline is configured: polls every worker's heartbeat and reports
/// (once per stall, through pq-ckpt's warn sink + the
/// `par.watchdog_stalls` counter) any worker whose *current* task has
/// overrun the budget. Enforcement stays cooperative — the overrunning
/// cell quarantines itself at its next `cell_deadline_exceeded` check —
/// so the watchdog's job is visibility, not preemption.
fn watchdog_loop<R>(shared: &Shared<R>, timeout_ms: u64) {
    let quantum = Duration::from_millis((timeout_ms / 4).clamp(5, 200));
    let workers = shared.deques.len();
    let mut warned = vec![false; workers];
    loop {
        if shared.pending.load(Ordering::Acquire) == 0 || shared.abort.load(Ordering::Acquire) {
            return;
        }
        std::thread::sleep(quantum);
        let Some((_, slots)) = &shared.watchdog else {
            return;
        };
        let now = shared.epoch_ms();
        for (who, slot) in slots.iter().enumerate() {
            let beat = slot.load(Ordering::Relaxed);
            let Some(flag) = warned.get_mut(who) else {
                continue;
            };
            if beat == 0 {
                *flag = false;
                continue;
            }
            let elapsed = now.saturating_sub(beat - 1);
            if elapsed > timeout_ms && !*flag {
                *flag = true;
                pq_ckpt::warn(&format!(
                    "watchdog: pq-par worker {who} has spent {elapsed} ms on one cell \
                     (budget {timeout_ms} ms); the cell will be quarantined at its next \
                     cancellation point"
                ));
                pq_obs::registry().counter_add("par.watchdog_stalls", 1);
            }
        }
    }
}

/// Run `f` over `items[0..n]` on `workers` threads, returning outputs
/// in item order. The serial fast path (`workers <= 1` or `n <= 1`)
/// runs on the calling thread with zero scheduling overhead — and is
/// the reference the parallel path is bit-identical to.
pub(crate) fn execute<T, R>(
    workers: usize,
    items: &[T],
    f: impl Fn(usize, &T) -> R + Sync,
) -> Vec<R>
where
    T: Sync,
    R: Send,
{
    let n = items.len();
    let workers = workers.clamp(1, n.max(1));
    if workers <= 1 || n <= 1 {
        // The serial reference path still stamps task starts so the
        // per-cell deadline applies identically at PQ_JOBS=1.
        return items
            .iter()
            .enumerate()
            .map(|(i, t)| {
                crate::deadline::task_started();
                f(i, t)
            })
            .collect();
    }

    let shared: Shared<R> = Shared::new(workers, chunks_for(n, workers));
    let fref: &(dyn Fn(usize, &T) -> R + Sync) = &f;
    // Workers inherit the caller's open profiler span path so their
    // time folds under the launching phase in the collapsed output.
    let prof_root = pq_prof::current_path();
    std::thread::scope(|scope| {
        for id in 0..workers {
            let shared = &shared;
            let prof_root = prof_root.as_deref();
            std::thread::Builder::new()
                .name(format!("pq-par-{id}"))
                .spawn_scoped(scope, move || {
                    worker_loop(id, shared, items, fref, prof_root)
                })
                .expect("spawn pq-par worker");
        }
        if let Some(timeout_ms) = crate::deadline::cell_timeout_ms() {
            let shared = &shared;
            std::thread::Builder::new()
                .name("pq-par-watchdog".to_string())
                .spawn_scoped(scope, move || watchdog_loop(shared, timeout_ms))
                .expect("spawn pq-par watchdog");
        }
    });

    let reg = pq_obs::registry();
    reg.counter_add("par.tasks", shared.tasks.load(Ordering::Relaxed));
    reg.counter_add("par.steals", shared.steals.load(Ordering::Relaxed));

    if let Some(payload) = shared.panic.lock().expect("panic slot poisoned").take() {
        resume_unwind(payload);
    }

    let mut parts = shared.results.into_inner().expect("results poisoned");
    parts.sort_unstable_by_key(|(start, _)| *start);
    let out: Vec<R> = parts.into_iter().flat_map(|(_, v)| v).collect();
    debug_assert_eq!(out.len(), n, "every item produced exactly one output");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chunks_cover_exactly_once() {
        for n in [0usize, 1, 2, 7, 80, 1000] {
            for workers in [1usize, 2, 4, 8] {
                let chunks = chunks_for(n, workers);
                let total: usize = chunks.iter().map(|c| c.len()).sum();
                assert_eq!(total, n, "n={n} workers={workers}");
                for w in chunks.windows(2) {
                    assert_eq!(w[0].end, w[1].start, "contiguous");
                }
                if n > 0 {
                    assert_eq!(chunks[0].start, 0);
                    assert_eq!(chunks.last().unwrap().end, n);
                }
            }
        }
    }

    #[test]
    fn execute_preserves_order() {
        let items: Vec<u64> = (0..500).collect();
        let out = execute(4, &items, |i, &x| {
            assert_eq!(i as u64, x);
            x * 3 + 1
        });
        assert_eq!(out, items.iter().map(|x| x * 3 + 1).collect::<Vec<_>>());
    }

    #[test]
    fn steals_rebalance_skew() {
        // A wildly skewed cost profile: item 0 is ~1000× the rest.
        // The batch must still complete with every output in place.
        let items: Vec<u32> = (0..64).collect();
        let out = execute(4, &items, |_, &x| {
            let spins = if x == 0 { 200_000 } else { 200 };
            let mut acc = x as u64;
            for i in 0..spins {
                acc = acc.wrapping_mul(6364136223846793005).wrapping_add(i);
            }
            (x, acc)
        });
        assert_eq!(out.len(), 64);
        for (i, (x, _)) in out.iter().enumerate() {
            assert_eq!(*x as usize, i);
        }
    }
}
