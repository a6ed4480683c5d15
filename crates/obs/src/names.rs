//! The declared name registries (`pq-lint` rule `name-registry`;
//! `env-name` reads its sibling in [`crate::env`]).
//!
//! Dashboards, the perf gate and the profile tooling all address
//! series and frames *by name*; a typo'd literal silently creates a
//! parallel series nobody reads. These constants make the name sets
//! explicit: `pq-lint`'s `name-registry` rule parses them straight out
//! of this file and rejects any metric/span literal the registry does
//! not know, and the tests below hold every entry to its naming
//! convention. Adding a metric is a two-line diff — the call site and
//! the registry entry — and the lint keeps them in sync forever.
//!
//! Keep both lists sorted.

/// Every metric name the workspace emits through the registry sinks
/// (`counter_add` / `observe` / `gauge_set`). Formatted names are
/// checked by their literal prefix before the first `{`.
pub const METRIC_NAMES: &[&str] = &[
    "bench.phase_secs",
    "edge.client_rtt_ms",
    "edge.conns_evicted",
    "edge.conns_opened",
    "edge.conns_reused",
    "edge.mbx_early_retx",
    "edge.origin_rtt_ms",
    "fault.injected",
    "par.steals",
    "par.task_panics",
    "par.tasks",
    "par.watchdog_stalls",
    "par.worker_steals",
    "par.worker_tasks",
    "prof.alloc.allocs",
    "prof.alloc.bytes",
    "prof.alloc.peak_bytes",
    "prof.alloc.total_allocs",
    "prof.alloc.total_bytes",
    "prof.span.count",
    "prof.span.self_ns",
    "prof.tick.count",
    "run.cells_timed_out",
    "run.quarantined",
    "run.resumed_cells",
    "run.retries",
    "sim.events_processed",
    "sim.link.bytes_delivered",
    "sim.link.delivered",
    "sim.link.fault_lost",
    "sim.link.offered",
    "sim.link.random_lost",
    "sim.link.tail_dropped",
    "study.funnel",
    "study.votes",
    "trace.dropped",
    "web.fvc_ms",
    "web.pageloads",
    "web.pageloads_incomplete",
    "web.plt_ms",
    "web.plt_ms.quic",
    "web.si_ms",
];

/// Every span/tick frame name in collapsed-stack output. Entries with
/// a trailing `:` are dynamic-label prefixes (`link:` covers
/// `link:uplink`, `load:` covers `load:QUIC`, …); phase frames opened
/// by the bench harness are listed too.
pub const SPAN_NAMES: &[&str] = &[
    "ablation",
    "agreement",
    "bridge:tick",
    "edge:dispatch",
    "edge:mbx",
    "event:arrival",
    "event:defer",
    "event:edge-arrival",
    "event:edge-respond",
    "event:edge-timer",
    "event:edge-tx-down",
    "event:edge-tx-up",
    "event:gate",
    "event:process",
    "event:respond",
    "event:timer",
    "event:tx-down",
    "event:tx-up",
    "event:unknown",
    "experiment",
    "fig3",
    "fig4",
    "fig5",
    "fig6",
    "link:",
    "load:",
    "par:run",
    "par:wait",
    "par:worker",
    "quic:rto",
    "table1",
    "table2",
    "table3",
    "tcp:rto",
    "transport:rto-retransmit",
];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registries_are_sorted_and_unique() {
        for list in [METRIC_NAMES, SPAN_NAMES] {
            let mut sorted = list.to_vec();
            sorted.sort_unstable();
            sorted.dedup();
            assert_eq!(list, sorted.as_slice(), "registry must stay sorted/unique");
        }
    }

    /// `crate.noun_verb`: at least two dotted segments, each
    /// `[a-z][a-z0-9_]*` (so `prof.*` names stay greppable too).
    /// `pq-lint`'s `name-registry` rule holds every metric literal to
    /// this list, so the convention holds for every emitted name.
    #[test]
    fn metric_names_follow_the_dotted_convention() {
        for name in METRIC_NAMES {
            let segs: Vec<&str> = name.split('.').collect();
            assert!(segs.len() >= 2, "{name} needs at least two dotted segments");
            for s in segs {
                assert!(
                    s.chars().next().is_some_and(|c| c.is_ascii_lowercase())
                        && s.chars()
                            .all(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || c == '_'),
                    "{name}: segment {s:?} must match [a-z][a-z0-9_]*"
                );
            }
        }
    }

    /// A frame name survives collapsed-stack output (`a;b;c <count>`)
    /// only without spaces and `;`; the convention is a lowercase start,
    /// then `[a-z0-9_:.-]`.
    #[test]
    fn span_names_are_folded_safe() {
        for name in SPAN_NAMES {
            assert!(
                name.chars().next().is_some_and(|c| c.is_ascii_lowercase())
                    && name.chars().all(|c| {
                        c.is_ascii_lowercase()
                            || c.is_ascii_digit()
                            || matches!(c, '_' | ':' | '.' | '-')
                    }),
                "{name:?} would corrupt collapsed-stack lines"
            );
        }
    }
}
