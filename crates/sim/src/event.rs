//! The discrete-event scheduler.
//!
//! A simulation run is a loop popping `(time, event)` pairs from an
//! [`EventQueue`] until it drains or a horizon is reached. Events that
//! are scheduled for the same instant are delivered in FIFO order of
//! scheduling (a strictly monotonic sequence number breaks ties), which
//! keeps runs deterministic.

use crate::time::SimTime;
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// Pops between flushes of the global `sim.events_processed` counter:
/// batching keeps the per-pop cost of metrics at ~1/4096 of a mutex.
const OBS_FLUSH_EVERY: u64 = 4096;

/// Internal heap entry; ordered by `(time, seq)` ascending.
struct Entry<E> {
    time: SimTime,
    seq: u64,
    event: E,
}

impl<E> PartialEq for Entry<E> {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.seq == other.seq
    }
}
impl<E> Eq for Entry<E> {}
impl<E> PartialOrd for Entry<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl<E> Ord for Entry<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap; invert so the earliest event pops first.
        other
            .time
            .cmp(&self.time)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

/// A deterministic future-event list.
pub struct EventQueue<E> {
    heap: BinaryHeap<Entry<E>>,
    seq: u64,
    now: SimTime,
    processed: u64,
    /// Pops already flushed into the global metrics registry.
    obs_flushed: u64,
    /// Trace track `(pid, tid)` for queue-depth counter samples.
    obs_track: Option<(u32, u32)>,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventQueue<E> {
    /// An empty queue with the clock at zero.
    pub fn new() -> Self {
        EventQueue {
            heap: BinaryHeap::new(),
            seq: 0,
            now: SimTime::ZERO,
            processed: 0,
            obs_flushed: 0,
            obs_track: None,
        }
    }

    /// Attach this queue to a trace track so queue-depth samples land
    /// on the right row (`pid` = the page load, `tid` = its marker
    /// track). Sampling only happens at `PQ_TRACE=debug` or finer.
    pub fn set_obs_track(&mut self, pid: u32, tid: u32) {
        self.obs_track = Some((pid, tid));
    }

    /// Push the not-yet-reported pop count into the global
    /// `sim.events_processed` counter. Called automatically every
    /// [`OBS_FLUSH_EVERY`] pops and on drop.
    fn flush_obs(&mut self) {
        let delta = self.processed - self.obs_flushed;
        if delta > 0 {
            pq_obs::registry().counter_add("sim.events_processed", delta);
            self.obs_flushed = self.processed;
        }
    }

    /// Current virtual time: the timestamp of the last popped event.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Number of events popped so far.
    pub fn processed(&self) -> u64 {
        self.processed
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// True when no events are pending.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Schedule `event` at absolute time `at`.
    ///
    /// Scheduling in the past is a logic error in the caller; we clamp
    /// to `now` (the event fires immediately) rather than panic, and
    /// debug builds assert so tests catch it.
    pub fn schedule(&mut self, at: SimTime, event: E) {
        debug_assert!(at >= self.now, "scheduled event in the past");
        let at = at.max(self.now);
        self.heap.push(Entry {
            time: at,
            seq: self.seq,
            event,
        });
        self.seq += 1;
    }

    /// Timestamp of the next pending event, if any.
    pub fn peek_time(&self) -> Option<SimTime> {
        self.heap.peek().map(|e| e.time)
    }

    /// Pop the next event, advancing the clock to its timestamp.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        let entry = self.heap.pop()?;
        self.now = entry.time;
        self.processed += 1;
        if self.processed.is_multiple_of(OBS_FLUSH_EVERY) {
            self.flush_obs();
            if let Some((pid, tid)) = self.obs_track {
                if pq_obs::enabled(pq_obs::Level::Debug) {
                    pq_obs::tracer().counter(
                        pq_obs::Level::Debug,
                        "sim",
                        "event queue depth",
                        pid,
                        tid,
                        entry.time.as_nanos(),
                        self.heap.len() as f64,
                    );
                }
            }
        }
        Some((entry.time, entry.event))
    }

    /// Drop every pending event (used when a run finishes early, e.g.
    /// once a page load completes). The clock and the processed-event
    /// counter are unaffected.
    pub fn clear(&mut self) {
        self.heap.clear();
    }
}

impl<E> Drop for EventQueue<E> {
    fn drop(&mut self) {
        self.flush_obs();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::SimDuration;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_millis(30), "c");
        q.schedule(SimTime::from_millis(10), "a");
        q.schedule(SimTime::from_millis(20), "b");
        let order: Vec<_> = std::iter::from_fn(|| q.pop()).map(|(_, e)| e).collect();
        assert_eq!(order, vec!["a", "b", "c"]);
    }

    #[test]
    fn simultaneous_events_are_fifo() {
        let mut q = EventQueue::new();
        let t = SimTime::from_millis(5);
        for i in 0..100 {
            q.schedule(t, i);
        }
        let order: Vec<_> = std::iter::from_fn(|| q.pop()).map(|(_, e)| e).collect();
        assert_eq!(order, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn clock_advances_with_pops() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_millis(7), ());
        assert_eq!(q.now(), SimTime::ZERO);
        q.pop();
        assert_eq!(q.now(), SimTime::from_millis(7));
        assert_eq!(q.processed(), 1);
    }

    #[test]
    fn peek_does_not_advance() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_millis(3), ());
        assert_eq!(q.peek_time(), Some(SimTime::from_millis(3)));
        assert_eq!(q.now(), SimTime::ZERO);
        assert_eq!(q.len(), 1);
    }

    #[test]
    fn interleaved_scheduling() {
        // Events scheduled from within the loop still order correctly.
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_millis(1), 1u32);
        let mut seen = Vec::new();
        while let Some((t, e)) = q.pop() {
            seen.push(e);
            if e < 5 {
                q.schedule(t + SimDuration::from_millis(1), e + 1);
            }
        }
        assert_eq!(seen, vec![1, 2, 3, 4, 5]);
        assert_eq!(q.now(), SimTime::from_millis(5));
    }

    #[test]
    fn clear_empties_queue() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_millis(1), ());
        q.schedule(SimTime::from_millis(2), ());
        q.clear();
        assert!(q.is_empty());
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn processed_survives_clear() {
        // The observability counter is a lifetime total: clearing the
        // pending set (early run termination) must not reset it.
        let mut q = EventQueue::new();
        for i in 0..5u64 {
            q.schedule(SimTime::from_millis(i), i);
        }
        q.pop();
        q.pop();
        assert_eq!(q.processed(), 2);
        q.clear();
        assert_eq!(q.processed(), 2, "clear() reset processed()");
        assert!(q.is_empty());
        // And it keeps counting after a clear.
        q.schedule(SimTime::from_millis(10), 99);
        q.pop();
        assert_eq!(q.processed(), 3);
    }

    #[test]
    fn len_tracks_interleaved_schedule_and_pop() {
        let mut q = EventQueue::new();
        let mut expected_len = 0usize;
        let mut popped = 0u64;
        for round in 0..50u64 {
            // Schedule a burst…
            for j in 0..(round % 4 + 1) {
                q.schedule(SimTime::from_millis(round * 10 + j), round);
                expected_len += 1;
                assert_eq!(q.len(), expected_len);
            }
            // …then drain part of it.
            if round % 2 == 0 && !q.is_empty() {
                q.pop();
                expected_len -= 1;
                popped += 1;
                assert_eq!(q.len(), expected_len);
            }
            assert_eq!(q.is_empty(), expected_len == 0);
        }
        assert_eq!(q.processed(), popped);
    }

    /// In release builds the past-scheduling debug_assert compiles
    /// out and the event is clamped to fire at `now`; the queue must
    /// stay time-ordered. (In debug builds the assert catches the
    /// caller bug instead, so the clamp branch is release-only.)
    #[test]
    #[cfg(not(debug_assertions))]
    fn past_scheduling_clamps_to_now() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_millis(10), "first");
        let (t, _) = q.pop().unwrap();
        assert_eq!(t, SimTime::from_millis(10));
        // `now` is 10 ms; scheduling at 3 ms is a caller bug that the
        // clamp turns into "fire immediately".
        q.schedule(SimTime::from_millis(3), "late");
        q.schedule(SimTime::from_millis(12), "future");
        let (t_late, e_late) = q.pop().unwrap();
        assert_eq!(e_late, "late");
        assert_eq!(t_late, SimTime::from_millis(10), "clamped to now");
        assert_eq!(q.now(), SimTime::from_millis(10));
        let (t_fut, e_fut) = q.pop().unwrap();
        assert_eq!((t_fut, e_fut), (SimTime::from_millis(12), "future"));
    }
}
