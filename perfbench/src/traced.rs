//! The traced run: the per-layer numbers behind the end-to-end ones.
//!
//! One run, in order:
//! 1. half the seconds of untraced batches, then half of traced ones
//!    (spans around every call into `core`), whose ratio is the
//!    tracing overhead;
//! 2. serial stimulus builds alternated with replays of the same page
//!    loads, one timing and one counter window per `load_page` call,
//!    then one figure analysis with spans;
//! 3. a replay of the stacks the workload does not run, so every
//!    load-time split is measured;
//! 4. a serial build with allocation counting on;
//! 5. the layer ladder (see [`crate::ladder`]);
//! 6. a build with the write-ahead journal open;
//! 7. the pinned-digest check.

use crate::counters::{counted, Counters};
use crate::ladder::{self, Ladder};
use crate::report::{Metric, Report};
use crate::spans::Spans;
use crate::stats::{median, percentile, ratio};
use crate::workload::{analyse, check_pin, replication_seed, Inputs, Workload, ANALYSIS_CALLS};
use crate::{batch_median, metric, run_batches, setup_repeated, study_build_s, Batch, Failed};
use pq_obs::json::Value;
use pq_sim::NetworkKind;
use pq_study::stimulus::run_seed;
use pq_study::{run_study_with, StimulusSet};
use pq_transport::Protocol;
use pq_web::{load_page, LoadOptions};
use std::time::{Duration, Instant};

/// Per-layer metric names, in the order the traced run reports them.
pub const PER_LAYER: [&str; 42] = [
    "sim.events",
    "sim.events_per_load",
    "sim.events_per_s",
    "sim.link_loss_share",
    "sim.queue_ns_per_event",
    "sim.link_ns_per_packet",
    "transport.retransmits_per_load",
    "transport.ns_per_packet.tcp",
    "transport.ns_per_packet.quic",
    "transport.allocs_per_packet.tcp",
    "transport.allocs_per_packet.quic",
    "web.load_ms_p50.tcp",
    "web.load_ms_p50.quic",
    "web.load_ms_p50.edge",
    "web.load_ms_p99.tcp",
    "web.load_ms_p99.quic",
    "web.load_ms_p99.edge",
    "web.allocs_per_load",
    "web.connections_per_load",
    "web.self_share",
    "core.stimulus.self_s",
    "core.study.s",
    "core.analysis.s",
    "core.analysis.us_per_call.metric_correlation",
    "core.analysis.us_per_call.per_site_differences",
    "core.analysis.us_per_call.anova_across_protocols",
    "core.analysis.us_per_call.rating_interval",
    "core.analysis.us_per_call.fig3_agreement",
    "par.tasks",
    "par.steals",
    "par.busy_share",
    "edge.conns_opened",
    "edge.reuse_share",
    "edge.mbx_early_retx",
    "fault.injected",
    "ckpt.records_written",
    "prof.allocs_per_event",
    "prof.bytes_per_event",
    "prof.peak_live_mb",
    "trace.overhead_share",
    "trace.replay_loads",
    "trace.ladder_packets",
];

/// Alternations of serial build and replay behind
/// `core.stimulus.self_s`.
const SELF_TIME_ROUNDS: usize = 3;

/// Which of the three load-time splits a stack falls in.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Family {
    Tcp,
    Quic,
    Edge,
}

impl Family {
    fn of(p: Protocol) -> Family {
        if Protocol::EDGE.contains(&p) {
            Family::Edge
        } else if p.is_quic() {
            Family::Quic
        } else {
            Family::Tcp
        }
    }
}

/// One replayed `load_page` call.
struct Load {
    protocol: Protocol,
    ns: f64,
    counts: Counters,
    retransmits: u64,
    connections: u32,
}

/// Cap on a cell's attempts, as a multiple of its runs: the stimulus
/// build's retry budget.
const MAX_ATTEMPTS_PER_RUN: u32 = 8;

/// Replay the page loads a stimulus build at `seed` makes over
/// `stacks`, one at a time on this thread. Each cell is loaded with
/// its attempt seeds until it has its runs, counting a load as valid
/// as the build does (under faults: complete with well-ordered
/// metrics), or until its attempt budget is spent.
fn replay(inputs: &Inputs, seed: u64, stacks: &[Protocol]) -> Vec<Load> {
    let plan = pq_fault::plan();
    let faulted = plan.is_some();
    let opts = LoadOptions {
        faults: plan,
        ..LoadOptions::default()
    };
    let mut loads = Vec::new();
    for site in &inputs.sites {
        for network in NetworkKind::ALL {
            let net = network.config();
            for &protocol in stacks {
                let mut valid = 0;
                let mut attempt = 0;
                while valid < inputs.runs && attempt < inputs.runs * MAX_ATTEMPTS_PER_RUN {
                    let rs = run_seed(seed, &site.name, network, protocol, attempt);
                    let before = Counters::read();
                    let t0 = Instant::now();
                    let res = load_page(site, &net, protocol, rs, &opts);
                    let ns = t0.elapsed().as_nanos() as f64;
                    if !faulted || (res.complete && res.metrics.well_ordered()) {
                        valid += 1;
                    }
                    attempt += 1;
                    loads.push(Load {
                        protocol,
                        ns,
                        counts: Counters::read().since(&before),
                        retransmits: res.retransmits,
                        connections: res.connections,
                    });
                }
            }
        }
    }
    loads
}

fn build(inputs: &Inputs, seed: u64) -> StimulusSet {
    StimulusSet::build(
        &inputs.sites,
        &NetworkKind::ALL,
        &inputs.stacks,
        inputs.runs,
        seed,
    )
}

/// Journal records written by one build with the write-ahead journal
/// open next to the benchmark's executable; the journal is retired
/// afterwards.
fn ckpt_records(inputs: &Inputs, seed: u64) -> Result<u64, String> {
    let exe = std::env::current_exe().map_err(|e| format!("locating the executable: {e}"))?;
    let path = exe.with_file_name("perfbench-journal.jsonl");
    pq_ckpt::journal_open(&path, false).map_err(|e| format!("{}: {e}", path.display()))?;
    let (_, c) = counted(|| build(inputs, seed));
    pq_ckpt::journal_complete().map_err(|e| format!("{}: {e}", path.display()))?;
    Ok(c.ckpt_records)
}

fn load_ms(loads: &[Load], family: Family, p: f64) -> f64 {
    let ms: Vec<f64> = loads
        .iter()
        .filter(|l| Family::of(l.protocol) == family)
        .map(|l| l.ns / 1e6)
        .collect();
    percentile(&ms, p).unwrap_or(0.0)
}

/// Share of the replayed load time the ladder's per-operation costs
/// leave unexplained.
fn self_share(loads: &[Load], ladder: &Ladder) -> f64 {
    let measured: f64 = loads.iter().map(|l| l.ns).sum();
    let explained: f64 = loads
        .iter()
        .map(|l| ladder.explain_ns(l.counts.events, l.counts.link_offered, l.protocol.is_quic()))
        .sum();
    1.0 - ratio(explained, measured)
}

/// The traced measurement of `workload`.
pub fn measure(
    workload: Workload,
    seed: u64,
    seconds: u64,
    jobs: usize,
) -> Result<(Report, Value), Failed> {
    let (inputs, setup) = setup_repeated(workload, seed);
    let half = Duration::from_secs_f64(seconds as f64 / 2.0);
    let plain = run_batches(&inputs, half, None)?;
    let mut spans = Spans::new();
    let traced = run_batches(&inputs, half, Some(&mut spans))?;
    let attempted: u64 = plain.iter().chain(&traced).map(|b| b.reps as u64).sum();
    let fail = |why: String| Failed { attempted, why };
    let seed0 = replication_seed(seed, 0);

    // Self time of the stimulus build: a serial build less a replay of
    // exactly its loads, in alternation so each pair sees the same
    // machine; the median pair is kept. The difference is small, so on
    // a noisy machine it can read below zero.
    pq_par::set_jobs(Some(1));
    let mut build_s = Vec::new();
    let mut replay_s = Vec::new();
    let mut last = None;
    for _ in 0..SELF_TIME_ROUNDS {
        let t0 = Instant::now();
        let (stimuli, counts) = counted(|| build(&inputs, seed0));
        build_s.push(t0.elapsed().as_secs_f64());
        let own = replay(&inputs, seed0, &inputs.stacks);
        replay_s.push(own.iter().map(|l| l.ns).sum::<f64>() / 1e9);
        last = Some((stimuli, counts, own));
    }
    pq_par::set_jobs(Some(jobs));
    let (stimuli, serial, own) = last.expect("SELF_TIME_ROUNDS > 0");
    if own.len() as u64 != serial.pageloads {
        return Err(fail(format!(
            "replay made {} loads where the build made {}",
            own.len(),
            serial.pageloads
        )));
    }
    let diffs: Vec<f64> = build_s.iter().zip(&replay_s).map(|(b, r)| b - r).collect();
    let stimulus_self_s = median(&diffs).unwrap_or(f64::NAN);
    let own_loads = own.len() as f64;
    // Every load-time split is measured on every workload: stacks the
    // workload does not run are replayed once more for their split.
    let others: Vec<Protocol> = Protocol::ALL_WITH_EDGE
        .into_iter()
        .filter(|p| !inputs.stacks.contains(p))
        .collect();
    let loads: Vec<Load> = own
        .into_iter()
        .chain(replay(&inputs, seed0, &others))
        .collect();
    let own: Vec<&Load> = loads
        .iter()
        .filter(|l| inputs.stacks.contains(&l.protocol))
        .collect();

    // One figure analysis over the serial build's study.
    let data = run_study_with(&stimuli, &inputs.pairs, &inputs.stacks, seed0);
    spans.enter("core.analysis");
    let checksum = analyse(&stimuli, &data, &inputs.stacks, Some(&mut spans));
    spans.exit();
    if !checksum.is_finite() {
        return Err(fail("analysis is not finite".into()));
    }

    // Allocations of one serial build.
    let was_on = pq_prof::alloc_enabled();
    pq_prof::set_alloc_enabled(true);
    pq_par::set_jobs(Some(1));
    let (_, alloc) = counted(|| build(&inputs, seed0));
    let peak_live = pq_prof::alloc_snapshot().peak_bytes;
    pq_par::set_jobs(Some(jobs));
    pq_prof::set_alloc_enabled(was_on);

    // The ladder moves the heaviest site, the most packets per call.
    let heaviest = inputs
        .sites
        .iter()
        .max_by_key(|s| s.objects.iter().map(|o| o.size).sum::<u64>())
        .expect("the corpus is not empty");
    let ladder = ladder::run(heaviest, &Protocol::ALL_WITH_EDGE, seed0).map_err(fail)?;
    let records = ckpt_records(&inputs, seed0).map_err(fail)?;
    check_pin(workload).map_err(fail)?;

    // Grid work per replication: the timed builds, or for `study` the
    // set-up build its studies run against.
    let (work, events_per_s) = match &inputs.stimuli {
        Some((_, c, _)) => (
            *c,
            c.events as f64 / median(&study_build_s(&setup, &plain)).unwrap_or(f64::NAN),
        ),
        // The first batch's counts: the same seed always gives the same
        // first batch, so these repeat exactly from run to run.
        None => (
            plain[0].counters.per(plain[0].reps as u64),
            batch_median(&plain, |b| b.counters.events as f64 / b.wall_s),
        ),
    };
    let per_rep_wall = |bs: &[Batch]| batch_median(bs, |b| b.wall_s / b.reps as f64);
    let span_median = |name: &str| median(&spans.durations_s(name)).unwrap_or(0.0);
    let per_call_us = |name: &str| {
        let d = spans.durations_s(name);
        ratio(d.iter().sum::<f64>(), d.len() as f64) * 1e6
    };

    let mut m = vec![
        metric("sim.events", "count", work.events as f64),
        metric(
            "sim.events_per_load",
            "events/load",
            ratio(work.events as f64, work.pageloads as f64),
        ),
        metric("sim.events_per_s", "1/s", events_per_s),
        metric(
            "sim.link_loss_share",
            "share",
            ratio(work.link_lost() as f64, work.link_offered as f64),
        ),
        metric(
            "sim.queue_ns_per_event",
            "ns/event",
            ladder.queue_ns_per_event(),
        ),
        metric(
            "sim.link_ns_per_packet",
            "ns/packet",
            ladder.link_ns_per_packet(),
        ),
        metric(
            "transport.retransmits_per_load",
            "retx/load",
            ratio(own.iter().map(|l| l.retransmits as f64).sum(), own_loads),
        ),
        metric(
            "transport.ns_per_packet.tcp",
            "ns/packet",
            ladder.transport_ns_per_packet(false),
        ),
        metric(
            "transport.ns_per_packet.quic",
            "ns/packet",
            ladder.transport_ns_per_packet(true),
        ),
        metric(
            "transport.allocs_per_packet.tcp",
            "allocs/packet",
            ladder.transport_allocs_per_packet(false),
        ),
        metric(
            "transport.allocs_per_packet.quic",
            "allocs/packet",
            ladder.transport_allocs_per_packet(true),
        ),
    ];
    for p in [50.0, 99.0] {
        for (family, label) in [
            (Family::Tcp, "tcp"),
            (Family::Quic, "quic"),
            (Family::Edge, "edge"),
        ] {
            let name = format!("web.load_ms_p{p}.{label}");
            m.push(Metric {
                name,
                unit: "ms".into(),
                value: load_ms(&loads, family, p),
            });
        }
    }
    m.extend([
        metric(
            "web.allocs_per_load",
            "allocs/load",
            ratio(alloc.allocs as f64, alloc.pageloads as f64),
        ),
        metric(
            "web.connections_per_load",
            "conns/load",
            ratio(
                own.iter().map(|l| f64::from(l.connections)).sum(),
                own_loads,
            ),
        ),
        metric("web.self_share", "share", self_share(&loads, &ladder)),
        metric("core.stimulus.self_s", "s", stimulus_self_s),
        metric("core.study.s", "s", span_median("core.study")),
        metric("core.analysis.s", "s", span_median("core.analysis")),
    ]);
    for call in ANALYSIS_CALLS {
        let short = call.trim_start_matches("core.analysis.");
        m.push(Metric {
            name: format!("core.analysis.us_per_call.{short}"),
            unit: "us".into(),
            value: per_call_us(call),
        });
    }
    m.extend([
        metric("par.tasks", "count", work.par_tasks as f64),
        metric("par.steals", "count", work.par_steals as f64),
        metric(
            "par.busy_share",
            "share",
            batch_median(&plain, |b| b.cpu_s / (b.wall_s * jobs as f64)),
        ),
        metric("edge.conns_opened", "count", work.edge_opened as f64),
        metric(
            "edge.reuse_share",
            "share",
            ratio(
                work.edge_reused as f64,
                (work.edge_opened + work.edge_reused) as f64,
            ),
        ),
        metric(
            "edge.mbx_early_retx",
            "count",
            work.edge_mbx_early_retx as f64,
        ),
        metric("fault.injected", "count", work.faults as f64),
        metric("ckpt.records_written", "count", records as f64),
        metric(
            "prof.allocs_per_event",
            "allocs/event",
            ratio(alloc.allocs as f64, alloc.events as f64),
        ),
        metric(
            "prof.bytes_per_event",
            "B/event",
            ratio(alloc.alloc_bytes as f64, alloc.events as f64),
        ),
        metric(
            "prof.peak_live_mb",
            "MiB",
            peak_live as f64 / (1024.0 * 1024.0),
        ),
        metric(
            "trace.overhead_share",
            "share",
            per_rep_wall(&traced) / per_rep_wall(&plain) - 1.0,
        ),
        metric("trace.replay_loads", "count", loads.len() as f64),
        metric("trace.ladder_packets", "count", ladder.packets() as f64),
    ]);
    let samples = Value::obj().with(
        "spans",
        spans
            .spans()
            .iter()
            .enumerate()
            .map(|(i, s)| {
                Value::obj()
                    .with("name", s.name)
                    .with("start_ns", s.start_ns)
                    .with("end_ns", s.end_ns)
                    .with("self_ns", spans.self_ns(i))
            })
            .collect::<Vec<_>>(),
    );
    Ok((
        Report {
            correct: true,
            attempted,
            failed: 0,
            metrics: m,
        },
        samples,
    ))
}
