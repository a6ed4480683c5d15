//! The named workloads: their inputs, one replication of their timed
//! work, and the checks every replication must pass.
//!
//! The program is driven only through its public functions:
//! `pq_bench::sites_for`, `StimulusSet::build`, `run_study_with` and the
//! `pq_study::analysis` functions behind Figures 3, 5 and 6.

use crate::counters::{counted, Counters};
use crate::spans::Spans;
use pq_bench::manifest::study_digest;
use pq_bench::{sites_for, Scale};
use pq_metrics::Metric;
use pq_sim::{NetworkKind, SimRng};
use pq_study::analysis::{
    anova_across_protocols, fig3_agreement, metric_correlation, per_site_differences,
    rating_interval,
};
use pq_study::{run_study_with, Environment, Group, StimulusSet, StudyData};
use pq_transport::Protocol;
use pq_web::Website;
use std::hint::black_box;

/// The study seed the program uses when none is given (`PQ_SEED`).
pub const DEFAULT_SEED: u64 = 1910;

/// `study_digest` of the paper's five stacks at smoke scale and the
/// default seed, at any `PQ_JOBS` (the repository's pinned smoke
/// digest).
const SMOKE_DIGEST: u64 = 0xc0d5_0f06_ad80_383f;

/// `study_digest` of all eight stacks at smoke scale and the default
/// seed under [`CHAOS_SPEC`], at any `PQ_JOBS`.
const EDGE_CHAOS_DIGEST: u64 = 0xb486_eea0_2273_63f8;

/// A gentle fault mix: burst loss, one link flap, server stalls,
/// handshake drops and truncated responses. Strong enough to exercise
/// the retry and quarantine path, gentle enough that a few cells at
/// most are quarantined, so the run times load work, not the burning
/// of doomed retry budgets.
pub const CHAOS_SPEC: &str =
    "seed=7;gel:pgb=0.02,pbg=0.3,bad=0.4;flap:at=1200,dur=300;stall:p=0.05,ms=800;hs:p=0.05;trunc:p=0.002";

/// Under [`CHAOS_SPEC`] at most one cell in this many may be
/// quarantined; more means the retry path broke.
const CHAOS_MAX_QUARANTINE_DIVISOR: usize = 8;

/// Repetitions of set-up in one run; `setup_s` is their median.
pub const SETUP_REPS: usize = 5;

/// A named workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// Both studies and the figure analysis over a fixed stimulus set.
    Study,
    /// All eight stacks under [`CHAOS_SPEC`].
    EdgeChaos,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 2] = [Workload::Study, Workload::EdgeChaos];

    /// The name used on the command line.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Study => "study",
            Workload::EdgeChaos => "edge-chaos",
        }
    }

    /// Look a workload up by name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Protocol stacks of the grid.
    pub fn stacks(self) -> &'static [Protocol] {
        match self {
            Workload::EdgeChaos => &Protocol::ALL_WITH_EDGE,
            _ => &Protocol::ALL,
        }
    }

    /// Replications in one timed batch, the unit whose time is
    /// recorded. A `study` replication takes about a tenth of a second,
    /// so its batches group several to keep timer and scheduler noise
    /// small against the work.
    pub fn batch_len(self) -> usize {
        match self {
            Workload::Study => 8,
            _ => 1,
        }
    }

    fn pinned_digest(self) -> u64 {
        match self {
            Workload::EdgeChaos => EDGE_CHAOS_DIGEST,
            _ => SMOKE_DIGEST,
        }
    }

    /// Whether a fault plan is installed for this workload.
    pub fn faulted(self) -> bool {
        self == Workload::EdgeChaos
    }
}

/// Seed of replication `i` of a run started with `seed`. Every
/// replication of a run gets its own seed, so a run's medians average
/// over many inputs rather than over one input's luck.
pub fn replication_seed(seed: u64, i: usize) -> u64 {
    SimRng::new(seed)
        .fork_idx("perfbench/replication", i as u64)
        .next_u64()
}

/// Everything a workload's timed work reads, made in set-up.
pub struct Inputs {
    /// The workload these inputs are for.
    pub workload: Workload,
    /// Sites of the grid.
    pub sites: Vec<Website>,
    /// Loads per grid cell.
    pub runs: u32,
    /// Stacks of the grid.
    pub stacks: Vec<Protocol>,
    /// A/B pairs of the study.
    pub pairs: Vec<(Protocol, Protocol)>,
    /// `study` only: the stimulus set the studies run against, the
    /// counts its build made and the build's seconds.
    pub stimuli: Option<(StimulusSet, Counters, f64)>,
    /// Seed of the run; replication seeds derive from it.
    pub seed: u64,
}

impl Inputs {
    /// Cells of the grid.
    pub fn cells(&self) -> usize {
        self.sites.len() * NetworkKind::ALL.len() * self.stacks.len()
    }
}

/// Make the inputs of `workload` for `seed`. Grid workloads also warm
/// the load path up with one run of every cell, so the timed work
/// starts with caches filled and the worker pool exercised.
pub fn setup(workload: Workload, seed: u64) -> Inputs {
    let sites = sites_for(Scale::Smoke);
    let (_, runs) = Scale::Smoke.params();
    let stacks = workload.stacks().to_vec();
    let pairs = Protocol::pairs_for(&stacks);
    let stimuli = if workload == Workload::Study {
        let t0 = std::time::Instant::now();
        let (set, c) =
            counted(|| StimulusSet::build(&sites, &NetworkKind::ALL, &stacks, runs, seed));
        Some((set, c, t0.elapsed().as_secs_f64()))
    } else {
        black_box(StimulusSet::build(
            &sites,
            &NetworkKind::ALL,
            &stacks,
            1,
            seed,
        ));
        None
    };
    Inputs {
        workload,
        sites,
        runs,
        stacks,
        pairs,
        stimuli,
        seed,
    }
}

/// `study` only: seconds of one more stimulus build like its set-up's,
/// which must make as many page loads as that one did.
pub fn time_study_build(inputs: &Inputs) -> Result<f64, String> {
    let Some((_, first, _)) = &inputs.stimuli else {
        return Err(format!("{} has no set-up build", inputs.workload.name()));
    };
    let t0 = std::time::Instant::now();
    let (set, c) = counted(|| {
        StimulusSet::build(
            &inputs.sites,
            &NetworkKind::ALL,
            &inputs.stacks,
            inputs.runs,
            inputs.seed,
        )
    });
    let secs = t0.elapsed().as_secs_f64();
    black_box(set);
    if c.pageloads != first.pageloads {
        return Err(format!(
            "a repeated build made {} loads where set-up made {}",
            c.pageloads, first.pageloads
        ));
    }
    Ok(secs)
}

/// Run one replication with `seed`, recording spans into `spans` when
/// given. Returns the cells its stimulus build quarantined; fails when
/// an output check fails.
pub fn replicate(
    inputs: &Inputs,
    seed: u64,
    mut spans: Option<&mut Spans>,
) -> Result<usize, String> {
    if let Some((stimuli, _, _)) = &inputs.stimuli {
        enter(&mut spans, "core.study");
        let data = run_study_with(stimuli, &inputs.pairs, &inputs.stacks, seed);
        exit(&mut spans);
        check_study(&data)?;
        enter(&mut spans, "core.analysis");
        let checksum = analyse(stimuli, &data, &inputs.stacks, spans.as_deref_mut());
        exit(&mut spans);
        if !checksum.is_finite() {
            return Err(format!("analysis of seed {seed} is not finite"));
        }
        return Ok(stimuli.quarantined().len());
    }
    enter(&mut spans, "core.stimulus");
    let (stimuli, build) = counted(|| {
        StimulusSet::build(
            &inputs.sites,
            &NetworkKind::ALL,
            &inputs.stacks,
            inputs.runs,
            seed,
        )
    });
    exit(&mut spans);
    check_grid(inputs, &stimuli, &build)?;
    enter(&mut spans, "core.study");
    let data = run_study_with(&stimuli, &inputs.pairs, &inputs.stacks, seed);
    exit(&mut spans);
    check_study(&data)?;
    Ok(stimuli.quarantined().len())
}

fn enter(spans: &mut Option<&mut Spans>, name: &'static str) {
    if let Some(s) = spans.as_deref_mut() {
        s.enter(name);
    }
}

fn exit(spans: &mut Option<&mut Spans>) {
    if let Some(s) = spans.as_deref_mut() {
        s.exit();
    }
}

/// The grid must be whole: every cell either built from the requested
/// runs or (under faults only) quarantined, every typical run's
/// metrics well ordered, and the loads counted match the grid.
fn check_grid(inputs: &Inputs, stimuli: &StimulusSet, build: &Counters) -> Result<(), String> {
    let cells = inputs.cells();
    let built = stimuli.iter().count();
    let quarantined = stimuli.quarantined().len();
    if built + quarantined != cells {
        return Err(format!(
            "{built} cells built + {quarantined} quarantined != {cells} cells"
        ));
    }
    if let Some(bad) = stimuli.iter().find(|s| !s.metrics.well_ordered()) {
        return Err(format!("metrics not well ordered in {:?}", bad.condition));
    }
    // Under faults a cell may keep fewer valid runs than requested,
    // but never none and never more.
    let runs_ok =
        |r: u32| r == inputs.runs || (inputs.workload.faulted() && (1..inputs.runs).contains(&r));
    if let Some(bad) = stimuli.iter().find(|s| !runs_ok(s.runs)) {
        return Err(format!("{:?} built from {} runs", bad.condition, bad.runs));
    }
    // Every load is either kept as a valid run or discarded and re-run.
    let kept: u64 = stimuli.iter().map(|s| u64::from(s.runs)).sum();
    if build.pageloads != kept + build.runs_retried {
        return Err(format!(
            "{} loads for {kept} kept and {} retried runs",
            build.pageloads, build.runs_retried
        ));
    }
    if inputs.workload.faulted() {
        if quarantined > cells / CHAOS_MAX_QUARANTINE_DIVISOR {
            return Err(format!("{quarantined} of {cells} cells quarantined"));
        }
    } else if quarantined > 0 || build.runs_retried > 0 {
        return Err(format!(
            "{quarantined} cells quarantined and {} runs retried without faults",
            build.runs_retried
        ));
    }
    Ok(())
}

fn check_study(data: &StudyData) -> Result<(), String> {
    let valid_ab = data.ab.iter().filter(|v| v.valid).count();
    let valid_ratings = data.ratings.iter().filter(|v| v.valid).count();
    if valid_ab == 0 || valid_ratings == 0 {
        return Err(format!(
            "study produced {valid_ab} valid A/B and {valid_ratings} valid rating votes"
        ));
    }
    if data.ratings.iter().any(|v| !v.speed.is_finite()) {
        return Err("a rating vote is not finite".to_string());
    }
    Ok(())
}

/// The Figure 3, 5 and 6 analysis over one study's votes, one span per
/// call. Returns a checksum of the results so none can be skipped.
pub fn analyse(
    stimuli: &StimulusSet,
    data: &StudyData,
    stacks: &[Protocol],
    mut spans: Option<&mut Spans>,
) -> f64 {
    let mut sum = 0.0;
    let mut call =
        |name: &'static str, spans: &mut Option<&mut Spans>, f: &mut dyn FnMut() -> f64| {
            let v = match spans.as_deref_mut() {
                Some(s) => s.time(name, &mut *f),
                None => f(),
            };
            sum += black_box(v);
        };
    let ratings = &data.ratings;
    let g = Group::MicroWorker;
    call("core.analysis.fig3_agreement", &mut spans, &mut || {
        fig3_agreement(ratings, 0.99).len() as f64
    });
    let cells = [
        (Environment::Work, NetworkKind::Dsl),
        (Environment::Work, NetworkKind::Lte),
        (Environment::FreeTime, NetworkKind::Dsl),
        (Environment::FreeTime, NetworkKind::Lte),
        (Environment::Plane, NetworkKind::Da2gc),
        (Environment::Plane, NetworkKind::Mss),
    ];
    for (env, net) in cells {
        for &p in stacks {
            call("core.analysis.rating_interval", &mut spans, &mut || {
                rating_interval(ratings, env, Some(net), p, g, 0.99).map_or(0.0, |ci| ci.mean)
            });
        }
        call(
            "core.analysis.anova_across_protocols",
            &mut spans,
            &mut || anova_across_protocols(ratings, env, Some(net), stacks, g).map_or(0.0, |r| r.f),
        );
    }
    let mut pairs = vec![
        (Protocol::Quic, Protocol::Tcp),
        (Protocol::Quic, Protocol::TcpPlus),
        (Protocol::QuicBbr, Protocol::TcpPlusBbr),
        (Protocol::TcpPlus, Protocol::Tcp),
    ];
    pairs.extend(
        Protocol::EDGE_AB_PAIRS
            .into_iter()
            .filter(|(a, b)| stacks.contains(a) && stacks.contains(b)),
    );
    for net in NetworkKind::ALL {
        call(
            "core.analysis.per_site_differences",
            &mut spans,
            &mut || {
                per_site_differences(ratings, net, &pairs, g, 0.90, stimuli.site_count()).len()
                    as f64
            },
        );
    }
    for &p in stacks {
        for metric in Metric::ALL {
            for net in NetworkKind::ALL {
                let envs: &[Environment] = if net.is_inflight() {
                    &[Environment::Plane]
                } else {
                    &[Environment::FreeTime]
                };
                call("core.analysis.metric_correlation", &mut spans, &mut || {
                    metric_correlation(ratings, stimuli, net, p, metric, g, envs).unwrap_or(0.0)
                });
            }
        }
    }
    sum
}

/// The analysis functions timed one call at a time, as span names.
pub const ANALYSIS_CALLS: [&str; 5] = [
    "core.analysis.metric_correlation",
    "core.analysis.per_site_differences",
    "core.analysis.anova_across_protocols",
    "core.analysis.rating_interval",
    "core.analysis.fig3_agreement",
];

/// Re-run the workload's experiment at [`DEFAULT_SEED`] and compare its
/// digest with the pinned one. For `study` the pin is the repository's
/// `PQ_JOBS=1` smoke digest, so a match at any worker count also proves
/// determinism.
pub fn check_pin(workload: Workload) -> Result<(), String> {
    let sites = sites_for(Scale::Smoke);
    let (_, runs) = Scale::Smoke.params();
    let stacks = workload.stacks();
    let stimuli = StimulusSet::build(&sites, &NetworkKind::ALL, stacks, runs, DEFAULT_SEED);
    let data = run_study_with(&stimuli, &Protocol::pairs_for(stacks), stacks, DEFAULT_SEED);
    let got = study_digest(&data);
    let want = workload.pinned_digest();
    if got == want {
        Ok(())
    } else {
        Err(format!(
            "{} digest at seed {DEFAULT_SEED} is {got:016x}, pinned {want:016x}",
            workload.name()
        ))
    }
}
