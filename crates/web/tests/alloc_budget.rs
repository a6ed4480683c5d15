//! Allocation budget for the page-load hot path.
//!
//! A fixed set of spotify.com loads — every stack, LTE and MSS, the
//! grid's default options — runs on this thread under pq-prof's
//! counting allocator. The count repeats exactly from run to run, so
//! it is a measured gate on heap traffic: one extra allocation per
//! event or per packet moves it by thousands. The test fails above a
//! ceiling pinned at the measured count plus 1% headroom for drift in
//! the standard library's own allocations across toolchains.
//!
//! One test in this binary: the counting allocator is process-global,
//! so nothing else may allocate while it counts. Run it with no
//! `PQ_*` variables set; tracing or profiling knobs add allocations.

use pq_edge::EdgeConfig;
use pq_sim::NetworkKind;
use pq_transport::Protocol;
use pq_web::{load_page, LoadOptions, Website};

/// Multi-origin (18 hosts): every client stack opens many connections
/// and the proxy pools evict and reuse.
const SITE: &str = "spotify.com";

/// Allocations the loads below made when the budget was pinned (x86-64
/// Linux, rustc 1.95). Re-pin on purpose when a change adds or removes
/// allocations, and say so in the change's notes.
const PINNED_ALLOCS: u64 = 56_387;

/// The gate: the pinned count plus 1%.
const CEILING: u64 = PINNED_ALLOCS + PINNED_ALLOCS / 100;

/// Every stack over LTE and MSS, clean, with the grid's options.
fn run_loads(site: &Website) -> u64 {
    let opts = LoadOptions {
        edge: Some(EdgeConfig::default()),
        ..LoadOptions::default()
    };
    let mut loads = 0;
    for proto in Protocol::ALL_WITH_EDGE {
        for kind in [NetworkKind::Lte, NetworkKind::Mss] {
            let r = load_page(site, &kind.config(), proto, 1, &opts);
            assert!(r.plt.as_nanos() > 0, "{proto:?} on {kind:?} did not load");
            loads += 1;
        }
    }
    loads
}

#[test]
fn page_loads_stay_within_the_allocation_budget() {
    let Some(site) = pq_web::site(SITE) else {
        panic!("{SITE} is not in the corpus");
    };
    // Warm-up: lazily built statics and registry entries allocate on
    // first use only; they are not the hot path's cost.
    run_loads(&site);

    pq_prof::reset_alloc();
    pq_prof::set_alloc_enabled(true);
    let loads = run_loads(&site);
    pq_prof::set_alloc_enabled(false);
    let snap = pq_prof::alloc_snapshot();

    eprintln!(
        "alloc budget: {} allocations, {} bytes over {loads} loads (pinned {PINNED_ALLOCS}, \
         ceiling {CEILING})",
        snap.total_allocs, snap.total_bytes
    );
    assert!(snap.total_allocs > 0, "the counting allocator saw nothing");
    assert!(
        snap.total_allocs <= CEILING,
        "{} allocations exceed the budget of {CEILING} (pinned {PINNED_ALLOCS} + 1%): a change \
         added heap traffic to the page-load hot path",
        snap.total_allocs
    );
}
