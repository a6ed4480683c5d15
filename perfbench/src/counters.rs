//! The program's own counters, read from outside through
//! `pq_obs::registry()`, `pq_ckpt::stats()` and
//! `pq_prof::alloc_snapshot()`, and process figures from `/proc`.
//!
//! Work is counted as the difference of two snapshots taken around a
//! call the benchmark makes, never as a process total, so loads made
//! elsewhere in the process (set-up, warm-up, other passes) are not
//! charged to the call being measured.

/// Registry counters the benchmark reads, in the field order of [`Counters`].
const REGISTRY: [&str; 15] = [
    "web.pageloads",
    "web.pageloads_incomplete",
    "sim.events_processed",
    "sim.link.offered",
    "sim.link.delivered",
    "sim.link.random_lost",
    "sim.link.fault_lost",
    "sim.link.tail_dropped",
    "par.tasks",
    "par.steals",
    "edge.conns_opened",
    "edge.conns_reused",
    "edge.mbx_early_retx",
    "fault.injected",
    "run.retries",
];

/// A point-in-time reading of every counter the benchmark uses.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Counters {
    /// Page loads finished (`web.pageloads`).
    pub pageloads: u64,
    /// Page loads that hit the horizon (`web.pageloads_incomplete`).
    pub incomplete: u64,
    /// Simulator events popped (`sim.events_processed`).
    pub events: u64,
    /// Packets offered to a link.
    pub link_offered: u64,
    /// Packets a link delivered.
    pub link_delivered: u64,
    /// Packets lost at random on a link.
    pub link_random_lost: u64,
    /// Packets lost to an injected fault.
    pub link_fault_lost: u64,
    /// Packets tail-dropped by a full link queue.
    pub link_tail_dropped: u64,
    /// Tasks the work-stealing pool ran.
    pub par_tasks: u64,
    /// Tasks stolen between workers.
    pub par_steals: u64,
    /// Edge connections opened.
    pub edge_opened: u64,
    /// Edge connections reused.
    pub edge_reused: u64,
    /// Middlebox early retransmissions.
    pub edge_mbx_early_retx: u64,
    /// Faults injected.
    pub faults: u64,
    /// Invalid runs discarded and re-run by the stimulus build.
    pub runs_retried: u64,
    /// Journal records written.
    pub ckpt_records: u64,
    /// Allocations counted (only while counting is enabled).
    pub allocs: u64,
    /// Bytes allocated (only while counting is enabled).
    pub alloc_bytes: u64,
}

impl Counters {
    /// Read every counter now.
    pub fn read() -> Counters {
        let reg = pq_obs::registry();
        let v = REGISTRY.map(|name| reg.counter_value(name));
        let alloc = pq_prof::alloc_snapshot();
        Counters {
            pageloads: v[0],
            incomplete: v[1],
            events: v[2],
            link_offered: v[3],
            link_delivered: v[4],
            link_random_lost: v[5],
            link_fault_lost: v[6],
            link_tail_dropped: v[7],
            par_tasks: v[8],
            par_steals: v[9],
            edge_opened: v[10],
            edge_reused: v[11],
            edge_mbx_early_retx: v[12],
            faults: v[13],
            runs_retried: v[14],
            ckpt_records: pq_ckpt::stats().records_written,
            allocs: alloc.total_allocs,
            alloc_bytes: alloc.total_bytes,
        }
    }

    /// The counts accumulated between `earlier` and `self`. A counter
    /// that went backwards reads as zero, not as a wrapped value.
    pub fn since(&self, earlier: &Counters) -> Counters {
        self.zip(earlier, u64::saturating_sub)
    }

    /// Add `other` into `self`.
    pub fn add(&mut self, other: &Counters) {
        *self = self.zip(other, u64::saturating_add);
    }

    /// Each count divided evenly over `n` repetitions of the same work.
    pub fn per(&self, n: u64) -> Counters {
        self.zip(self, |a, _| a / n.max(1))
    }

    /// Packets lost on links, however lost.
    pub fn link_lost(&self) -> u64 {
        self.link_random_lost + self.link_fault_lost + self.link_tail_dropped
    }
}

/// Defines [`Counters::zip`], which combines two readings field by
/// field, so no operation can forget a field.
macro_rules! zip_fields {
    ($($field:ident),* $(,)?) => {
        impl Counters {
            fn zip(&self, other: &Counters, f: impl Fn(u64, u64) -> u64) -> Counters {
                Counters {
                    $($field: f(self.$field, other.$field)),*
                }
            }
        }
    };
}

zip_fields!(
    pageloads,
    incomplete,
    events,
    link_offered,
    link_delivered,
    link_random_lost,
    link_fault_lost,
    link_tail_dropped,
    par_tasks,
    par_steals,
    edge_opened,
    edge_reused,
    edge_mbx_early_retx,
    faults,
    runs_retried,
    ckpt_records,
    allocs,
    alloc_bytes,
);

/// Run `f` and return its result with the counts it accumulated.
pub fn counted<R>(f: impl FnOnce() -> R) -> (R, Counters) {
    let before = Counters::read();
    let r = f();
    (r, Counters::read().since(&before))
}

/// User plus system CPU seconds of this process, from `/proc/self/stat`.
pub fn cpu_seconds() -> Option<f64> {
    let stat = std::fs::read_to_string("/proc/self/stat").ok()?;
    // Fields after the parenthesised command name, which may hold
    // spaces; utime and stime are fields 14 and 15 of the line.
    let rest = &stat[stat.rfind(')')? + 1..];
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let utime: u64 = fields.get(11)?.parse().ok()?;
    let stime: u64 = fields.get(12)?.parse().ok()?;
    // USER_HZ is 100 on every Linux ABI the benchmark targets.
    Some((utime + stime) as f64 / 100.0)
}

/// Restart this process's peak resident set size (`VmHWM`) from its
/// current size, so the next reading covers only what follows. Free
/// heap is first handed back to the system: memory earlier batches
/// freed but the allocator kept would otherwise raise every later
/// batch's floor, and the peak would creep with run length.
pub fn reset_peak_rss() -> std::io::Result<()> {
    trim_heap();
    std::fs::write("/proc/self/clear_refs", "5")
}

#[cfg(all(target_os = "linux", target_env = "gnu"))]
fn trim_heap() {
    extern "C" {
        fn malloc_trim(pad: usize) -> std::os::raw::c_int;
    }
    // SAFETY: glibc's malloc_trim takes no pointers and may be called
    // at any time from any thread.
    unsafe {
        malloc_trim(0);
    }
}

#[cfg(not(all(target_os = "linux", target_env = "gnu")))]
fn trim_heap() {}

/// Peak resident set size (`VmHWM`) of this process, in MiB.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

/// Serialises the tests that read the process-wide counters, so one
/// test's page loads never land in another's window.
#[cfg(test)]
pub(crate) fn test_lock() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

#[cfg(test)]
mod tests {
    use super::*;
    use pq_sim::NetworkKind;
    use pq_transport::Protocol;
    use pq_web::{load_page, LoadOptions};

    #[test]
    fn delta_counts_only_the_wrapped_call() {
        let _g = test_lock();
        let site = pq_web::corpus().swap_remove(0);
        let net = NetworkKind::Dsl.config();
        let opts = LoadOptions::default();
        // A load outside the window must not be charged to it.
        load_page(&site, &net, Protocol::Quic, 1, &opts);
        let (res, d) = counted(|| load_page(&site, &net, Protocol::Quic, 2, &opts));
        load_page(&site, &net, Protocol::Quic, 3, &opts);
        assert_eq!(d.pageloads, 1);
        assert_eq!(d.incomplete, u64::from(!res.complete));
        assert!(d.events > 0);
        assert!(d.link_offered >= d.link_delivered);
        // The same load again counts the same events: the window
        // holds this call's work and nothing else.
        let (_, again) = counted(|| load_page(&site, &net, Protocol::Quic, 2, &opts));
        assert_eq!(again, d);
    }

    #[test]
    fn since_and_add_are_inverse() {
        let a = Counters {
            pageloads: 10,
            events: 500,
            allocs: 7,
            ..Counters::default()
        };
        let b = Counters {
            pageloads: 14,
            events: 900,
            allocs: 9,
            ..Counters::default()
        };
        let d = b.since(&a);
        assert_eq!((d.pageloads, d.events, d.allocs), (4, 400, 2));
        let mut back = a;
        back.add(&d);
        assert_eq!(back, b);
        // A counter that went backwards reads as zero, not a wrap.
        assert_eq!(a.since(&b).events, 0);
        let per = d.per(2);
        assert_eq!((per.pageloads, per.events, per.allocs), (2, 200, 1));
    }

    #[test]
    fn proc_figures_are_readable() {
        assert!(cpu_seconds().is_some_and(|s| s >= 0.0));
        assert!(peak_rss_mb().is_some_and(|m| m > 0.0));
        reset_peak_rss().expect("the peak can be reset");
        assert!(peak_rss_mb().is_some_and(|m| m > 0.0));
    }
}
