//! # pq-bench — the experiment harness
//!
//! One binary per table/figure of the paper (run with
//! `cargo run --release -p pq-bench --bin <name>`):
//!
//! | Binary | Artefact |
//! |--------|----------|
//! | `table1` | Table 1 — protocol configurations |
//! | `table2` | Table 2 — network configurations + emulation validation |
//! | `table3` | Table 3 — participation / conformance-filter funnel |
//! | `fig3`   | Figure 3 — rating agreement across subject groups |
//! | `fig4`   | Figure 4 — A/B vote shares per pair × network |
//! | `fig5`   | Figure 5 — rating means + CIs, ANOVA significance |
//! | `fig6`   | Figure 6 — metric ↔ vote Pearson heatmap |
//! | `agreement` | §4.2 — answer times, replays, demographics |
//! | `ablation`  | extra — filtering, 0-RTT and processing ablations |
//! | `sweep`     | extra — bandwidth × loss × RTT map of the QUIC/TCP+ SI ratio |
//! | `export`    | raw study data as JSON (mirrors the paper's data release) |
//! | `runall` | everything above, in order |
//!
//! The experiment scale is controlled with `PQ_SCALE`
//! (`smoke` / `reduced` / `full`) and `PQ_SEED`; `full` matches the
//! paper (36 sites × 4 networks × 5 stacks × 31 runs).
//!
//! ## Parallel execution
//!
//! The stimulus grid, both studies and the `sweep` grid execute on the
//! `pq-par` work-stealing pool. `PQ_JOBS` sets the worker count
//! (default: available parallelism; unparsable values warn via the
//! tracer). Output is **bit-identical at any worker count** — every
//! page load and participant derives its RNG purely from
//! `(seed, cell indices)` — and the run manifest records both `jobs`
//! and a `study_digest` so CI can diff a `PQ_JOBS=4` run against
//! `PQ_JOBS=1` and prove it.
//!
//! ## Fault injection
//!
//! Setting `PQ_FAULTS=<spec>` (see [`pq_fault`]) turns the run into a
//! chaos experiment: deterministic burst loss, link flaps, server
//! stalls, truncated responses, handshake-flight drops and task
//! panics, all keyed by `(fault seed, cell coordinates)` so the run is
//! still bit-identical at any `PQ_JOBS`. The manifest then records
//! `fault_spec`, `faults_injected`, `runs_retried` and
//! `cells_quarantined` alongside the usual digest.
//!
//! ## Observability
//!
//! Every binary initialises [`pq_obs`] from the environment:
//!
//! * `PQ_TRACE` — trace level (`off`/`error`/`warn`/`info`/`debug`/
//!   `trace`; default `off`). At `info` each page load records its
//!   waterfall: per-object request→processed spans, one track per
//!   connection with cwnd/ssthresh/sRTT counters, retransmit and RTO
//!   instants, handshake spans, and FVC/LVC/PLT markers.
//! * `PQ_TRACE_OUT` — where to write the collected events on exit:
//!   `*.json` produces Chrome trace-event format (open in Perfetto or
//!   `chrome://tracing`), `*.jsonl` line-delimited JSON.
//! * `PQ_TRACE_BUF` — ring capacity in events (default 262144; the
//!   ring overwrites oldest on overflow).
//!
//! Worked waterfall example:
//!
//! ```sh
//! PQ_SCALE=smoke PQ_TRACE=info PQ_TRACE_OUT=results/trace.json \
//!     cargo run --release -p pq-bench --bin fig4
//! # then load results/trace.json into https://ui.perfetto.dev
//! ```
//!
//! `runall` additionally writes `results/manifest.json` — scale, seed,
//! git rev, per-phase wall-times, Table-3 funnel counts and
//! per-protocol PLT p50/p90/p99 (see [`manifest::Manifest`]) — and
//! `results/BENCH_obs.json`, the phase-timing + events/sec regression
//! baseline.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod manifest;
pub mod report;

use pq_sim::NetworkKind;
use pq_study::{run_study_with, StimulusSet, StudyData};
use pq_transport::Protocol;
use pq_web::{catalogue, Website};

/// How much of the full condition space to simulate.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Scale {
    /// 4 sites × 3 runs — seconds; CI smoke tests.
    Smoke,
    /// 12 sites × 11 runs — a coffee break.
    Reduced,
    /// 36 sites × 31 runs — the paper's full design.
    Full,
}

impl Scale {
    /// Read from `PQ_SCALE` (default `reduced`). Unknown values warn
    /// via the tracer instead of being silently swallowed.
    pub fn from_env() -> Scale {
        match pq_obs::env::var("PQ_SCALE").as_deref() {
            Some("smoke") => Scale::Smoke,
            Some("reduced") => Scale::Reduced,
            Some("full") => Scale::Full,
            Some(other) => {
                pq_obs::tracer().warn(
                    "bench",
                    format!(
                        "unknown PQ_SCALE={other:?} (expected smoke|reduced|full); \
                         defaulting to reduced"
                    ),
                );
                Scale::Reduced
            }
            None => Scale::Reduced,
        }
    }

    /// (sites, runs per condition).
    pub fn params(self) -> (usize, u32) {
        match self {
            Scale::Smoke => (4, 3),
            Scale::Reduced => (12, 11),
            Scale::Full => (36, 31),
        }
    }

    /// Human label.
    pub fn label(self) -> &'static str {
        match self {
            Scale::Smoke => "smoke",
            Scale::Reduced => "reduced",
            Scale::Full => "full",
        }
    }
}

/// Study seed from `PQ_SEED` (default 1910, the paper's arXiv month).
/// An unparsable value warns via the tracer instead of being silently
/// replaced by the default.
pub fn seed_from_env() -> u64 {
    match pq_obs::env::var("PQ_SEED") {
        Some(s) => match s.parse() {
            Ok(seed) => seed,
            Err(_) => {
                pq_obs::tracer().warn(
                    "bench",
                    format!("unparsable PQ_SEED={s:?}; defaulting to 1910"),
                );
                1910
            }
        },
        None => 1910,
    }
}

/// The corpus subset for a scale: always includes the five lab sites
/// and the §4.4 named sites first.
pub fn sites_for(scale: Scale) -> Vec<Website> {
    let (n, _) = scale.params();
    catalogue::corpus().into_iter().take(n.max(4)).collect()
}

/// A fully executed experiment: stimuli plus both studies' raw data.
pub struct Experiment {
    /// Which scale was run.
    pub scale: Scale,
    /// Study seed.
    pub seed: u64,
    /// Protocol stacks the grid was built over (sorted; the paper's
    /// five by default, optionally extended with the edge stacks via
    /// `PQ_STACKS`).
    pub stacks: Vec<Protocol>,
    /// Typical videos per condition.
    pub stimuli: StimulusSet,
    /// Raw votes, funnels and sessions.
    pub data: StudyData,
}

/// Run the full pipeline (stimulus production + both studies) over the
/// paper's five Table-1 stacks.
pub fn run_experiment(scale: Scale, seed: u64) -> Experiment {
    run_experiment_with_stacks(scale, seed, &Protocol::ALL)
}

/// Run the full pipeline over an explicit stack selection. With
/// `&Protocol::ALL` this is byte-for-byte the baseline experiment —
/// [`Protocol::pairs_for`] then yields exactly the Figure-4 pairings —
/// so enabling edge stacks can never disturb the committed digest.
pub fn run_experiment_with_stacks(scale: Scale, seed: u64, stacks: &[Protocol]) -> Experiment {
    let sites = sites_for(scale);
    let (_, runs) = scale.params();
    let stimuli = StimulusSet::build(&sites, &NetworkKind::ALL, stacks, runs, seed);
    let pairs = Protocol::pairs_for(stacks);
    let data = run_study_with(&stimuli, &pairs, stacks, seed);
    Experiment {
        scale,
        seed,
        stacks: stacks.to_vec(),
        stimuli,
        data,
    }
}

/// Run with environment-controlled scale/seed/stacks, echoing the
/// setup. `PQ_STACKS` (see [`pq_edge::stacks_from_env`]) selects the
/// protocol grid; unset keeps the paper's five stacks.
#[allow(
    clippy::disallowed_methods,
    reason = "phase timing is wall-clock by definition and never feeds simulated data"
)]
pub fn run_experiment_from_env(header: &str) -> Experiment {
    let scale = Scale::from_env();
    let seed = seed_from_env();
    let jobs = pq_par::jobs();
    let faulted = pq_fault::init_from_env();
    let stacks = pq_edge::stacks_from_env();
    let (sites, runs) = scale.params();
    eprintln!(
        "[{header}] scale={} ({sites} sites × 4 networks × {} stacks × {runs} runs), \
         seed={seed}, jobs={jobs}{}",
        scale.label(),
        stacks.len(),
        if faulted { ", faults=ON" } else { "" },
    );
    let t0 = std::time::Instant::now();
    let e = run_experiment_with_stacks(scale, seed, &stacks);
    eprintln!("[{header}] pipeline done in {:.1?}", t0.elapsed());
    e
}

/// Pretty vote-share bar for terminal tables. Out-of-range shares are
/// clamped to `[0, 1]` (NaN renders empty) so a buggy upstream share
/// can never overflow the table layout.
pub fn share_bar(share: f64, width: usize) -> String {
    let share = if share.is_nan() {
        0.0
    } else {
        share.clamp(0.0, 1.0)
    };
    let filled = (share * width as f64).round() as usize;
    let mut s = String::new();
    for i in 0..width {
        s.push(if i < filled { '#' } else { '.' });
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scale_params() {
        assert_eq!(Scale::Smoke.params(), (4, 3));
        assert_eq!(Scale::Full.params(), (36, 31));
        assert_eq!(Scale::Full.label(), "full");
    }

    #[test]
    fn sites_include_lab_domains_at_every_scale() {
        let sites = sites_for(Scale::Smoke);
        assert!(sites.iter().any(|s| s.name == "wikipedia.org"));
        assert_eq!(sites_for(Scale::Full).len(), 36);
    }

    #[test]
    fn smoke_experiment_runs() {
        let e = run_experiment(Scale::Smoke, 5);
        assert!(!e.data.ab.is_empty());
        assert!(!e.data.ratings.is_empty());
        assert_eq!(e.stimuli.site_count(), 4);
    }

    #[test]
    fn share_bar_renders() {
        assert_eq!(share_bar(0.5, 10), "#####.....");
        assert_eq!(share_bar(0.0, 4), "....");
        assert_eq!(share_bar(1.0, 4), "####");
    }

    #[test]
    fn share_bar_clamps_out_of_range() {
        // > 1.0 must not overflow the bar width.
        assert_eq!(share_bar(1.7, 4), "####");
        assert_eq!(share_bar(f64::INFINITY, 4), "####");
        // Negative shares clamp to empty.
        assert_eq!(share_bar(-0.3, 4), "....");
        assert_eq!(share_bar(f64::NEG_INFINITY, 4), "....");
        // NaN renders empty rather than panicking or filling.
        assert_eq!(share_bar(f64::NAN, 4), "....");
    }
}
