//! # pq-perfbench — end-to-end and per-layer benchmark
//!
//! ```text
//! pq-perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1> [--out <file>]
//! pq-perfbench compare <record-a.json> <record-b.json>
//! ```
//!
//! Run from the repository root with
//! `cargo run --release --offline --manifest-path perfbench/Cargo.toml -- …`.
//! A run makes its inputs from the seed, sets up several times
//! (`setup_s` is the median), then repeats batches of replications of
//! the workload for the given seconds and reports medians over
//! batches. Every replication's outputs are checked, and after the
//! timed work the workload's pinned digest is re-derived at the
//! default seed; a failed check makes the run report failure and exit
//! non-zero. With `--trace 0` the last stdout line holds the
//! end-to-end metrics, measured without tracing; with `--trace 1` it
//! holds the per-layer metrics of a separate traced run.
//!
//! The worker count is the machine's CPU count unless `PQ_JOBS` sets
//! it; more workers than CPUs are refused. `--out` writes the result
//! with its stamp (machine, compiler, jobs, revision, seed) and
//! per-batch samples; `compare` refuses two records made on different
//! machines or configurations.

mod counters;
mod ladder;
mod report;
mod spans;
mod stamp;
mod stats;
mod traced;
mod workload;

use counters::{cpu_seconds, peak_rss_mb, reset_peak_rss, Counters};
use pq_obs::json::Value;
use report::{Metric, Report};
use spans::Spans;
use stamp::Stamp;
use stats::{median, relative_iqr};
use std::time::{Duration, Instant};
use workload::{
    check_pin, replicate, replication_seed, setup, time_study_build, Inputs, Workload, SETUP_REPS,
};

/// Fewest batches a run measures, however long each takes.
const MIN_BATCHES: usize = 3;

/// Command-line arguments of a measuring run.
struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
    out: Option<String>,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut out = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                workload = Some(Workload::parse(name).ok_or_else(|| {
                    let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
                    format!("unknown workload {name:?} (one of {})", names.join(", "))
                })?);
            }
            "--seed" => seed = Some(value()?.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s: u64 = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if s == 0 || s > 120 {
                    return Err("--seconds must be between 1 and 120".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                })
            }
            "--out" => out = Some(value()?.clone()),
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        out,
    })
}

/// The worker count: `PQ_JOBS` if set, else the machine's CPU count;
/// never more than the machine has.
fn jobs() -> Result<usize, String> {
    let nproc = pq_par::available_jobs();
    let jobs = match std::env::var("PQ_JOBS") {
        Ok(raw) => raw
            .trim()
            .parse()
            .map_err(|_| format!("unparsable PQ_JOBS={raw:?}"))?,
        Err(_) => nproc,
    };
    stamp::check_jobs(jobs, nproc)
}

/// One timed batch of replications.
pub struct Batch {
    /// Replications in the batch.
    pub reps: usize,
    /// Wall-clock seconds of the batch.
    pub wall_s: f64,
    /// User+system CPU seconds of the batch.
    pub cpu_s: f64,
    /// Peak resident set size during the batch, in MiB.
    pub peak_rss_mb: f64,
    /// Counts the batch made.
    pub counters: Counters,
    /// Cells the batch's stimulus builds quarantined.
    pub quarantined: usize,
    /// `study` only: seconds of the stimulus build timed after the
    /// batch.
    pub build_s: Option<f64>,
}

/// A check failed after `attempted` replications.
pub struct Failed {
    /// Replications attempted, the failing one included.
    pub attempted: u64,
    /// What went wrong.
    pub why: String,
}

/// Repeat batches for at least `budget` (and at least
/// [`MIN_BATCHES`]). Batch `b` runs replications
/// `b * batch_len .. (b + 1) * batch_len` of the run's seed sequence,
/// so the same seed always makes the same batches.
pub fn run_batches(
    inputs: &Inputs,
    budget: Duration,
    mut spans: Option<&mut Spans>,
) -> Result<Vec<Batch>, Failed> {
    let start = Instant::now();
    let reps = inputs.workload.batch_len();
    let mut batches = Vec::new();
    let mut attempted = 0u64;
    while batches.len() < MIN_BATCHES || start.elapsed() < budget {
        // A reset that fails leaves the batch's peak unknown, and the
        // run then fails on a non-finite metric instead of reporting
        // the process's lifetime peak.
        let rss_reset = reset_peak_rss().is_ok();
        let before = Counters::read();
        let cpu0 = cpu_seconds().unwrap_or(0.0);
        let t0 = Instant::now();
        let mut quarantined = 0;
        for i in 0..reps {
            let seed = replication_seed(inputs.seed, batches.len() * reps + i);
            attempted += 1;
            quarantined += replicate(inputs, seed, spans.as_deref_mut())
                .map_err(|why| Failed { attempted, why })?;
        }
        let wall_s = t0.elapsed().as_secs_f64();
        let cpu_s = cpu_seconds().unwrap_or(0.0) - cpu0;
        let peak_rss_mb = match peak_rss_mb() {
            Some(mb) if rss_reset => mb,
            _ => f64::NAN,
        };
        let counters = Counters::read().since(&before);
        // `study` times a stimulus build after every batch, so its
        // page-load rate samples the whole run as its other metrics do.
        let build_s = match inputs.stimuli {
            Some(_) => Some(time_study_build(inputs).map_err(|why| Failed { attempted, why })?),
            None => None,
        };
        batches.push(Batch {
            reps,
            wall_s,
            cpu_s,
            peak_rss_mb,
            counters,
            quarantined,
            build_s,
        });
    }
    Ok(batches)
}

/// Median over batches of `f(batch)`.
pub fn batch_median(batches: &[Batch], f: impl Fn(&Batch) -> f64) -> f64 {
    median(&batches.iter().map(f).collect::<Vec<_>>()).unwrap_or(f64::NAN)
}

/// Times of the repeated set-up.
pub struct SetupTimes {
    /// Seconds of each set-up.
    pub total_s: Vec<f64>,
    /// `study` only: seconds of each set-up's stimulus build.
    pub build_s: Vec<f64>,
}

/// Set up [`SETUP_REPS`] times; returns the last inputs and the times.
pub fn setup_repeated(workload: Workload, seed: u64) -> (Inputs, SetupTimes) {
    let mut times = SetupTimes {
        total_s: Vec::with_capacity(SETUP_REPS),
        build_s: Vec::new(),
    };
    let mut last = None;
    for _ in 0..SETUP_REPS {
        let t0 = Instant::now();
        let inputs = setup(workload, seed);
        times.total_s.push(t0.elapsed().as_secs_f64());
        if let Some((_, _, secs)) = &inputs.stimuli {
            times.build_s.push(*secs);
        }
        last = Some(inputs);
    }
    (last.expect("SETUP_REPS > 0"), times)
}

/// `study` only: seconds of its stimulus builds, those of set-up and
/// those timed between batches, so a rate drawn from them covers the
/// whole run rather than its first seconds.
pub fn study_build_s(setup: &SetupTimes, batches: &[Batch]) -> Vec<f64> {
    let during = batches.iter().filter_map(|b| b.build_s);
    setup.build_s.iter().copied().chain(during).collect()
}

/// Install what the workload needs process-wide: the worker count and
/// the fault plan.
fn configure(workload: Workload, jobs: usize) -> Result<(), String> {
    pq_par::set_jobs(Some(jobs));
    if workload.faulted() {
        let plan = pq_fault::FaultPlan::parse(workload::CHAOS_SPEC)
            .map_err(|e| format!("fault spec: {e}"))?;
        pq_fault::install(Some(plan));
    }
    Ok(())
}

/// End-to-end metric names, in the order [`measure`] reports them.
const END_TO_END: [&str; 9] = [
    "setup_s",
    "wall_s",
    "cpu_s",
    "peak_rss_mb",
    "pageloads_per_s",
    "replications_per_s",
    "cells_kept_share",
    "runs_first_try_share",
    "loads_complete_share",
];

fn metric(name: &str, unit: &str, value: f64) -> Metric {
    Metric {
        name: name.to_string(),
        unit: unit.to_string(),
        value,
    }
}

/// Share of `part` in `whole`, as the complement `1 - part/whole`.
fn kept(part: u64, whole: u64) -> f64 {
    if whole == 0 {
        1.0
    } else {
        1.0 - part as f64 / whole as f64
    }
}

/// The end-to-end measurement, made without tracing.
fn measure(workload: Workload, seed: u64, seconds: u64) -> Result<(Report, Value), Failed> {
    let (inputs, setup) = setup_repeated(workload, seed);
    let batches = run_batches(&inputs, Duration::from_secs(seconds), None)?;
    let attempted: u64 = batches.iter().map(|b| b.reps as u64).sum();
    check_pin(workload).map_err(|why| Failed { attempted, why })?;

    let per_rep = |f: fn(&Batch) -> f64| batch_median(&batches, |b| f(b) / b.reps as f64);
    let builds = study_build_s(&setup, &batches);
    let (loads_per_s, cells, quarantined, work) = match &inputs.stimuli {
        // The study's grid work is its set-up build.
        Some((set, c, _)) => (
            c.pageloads as f64 / median(&builds).unwrap_or(f64::NAN),
            inputs.cells() as u64,
            set.quarantined().len() as u64,
            *c,
        ),
        None => {
            let mut total = Counters::default();
            batches.iter().for_each(|b| total.add(&b.counters));
            (
                batch_median(&batches, |b| b.counters.pageloads as f64 / b.wall_s),
                (inputs.cells() * attempted as usize) as u64,
                batches.iter().map(|b| b.quarantined as u64).sum(),
                total,
            )
        }
    };
    let metrics = vec![
        metric("setup_s", "s", median(&setup.total_s).unwrap_or(f64::NAN)),
        metric("wall_s", "s", per_rep(|b| b.wall_s)),
        metric("cpu_s", "s", per_rep(|b| b.cpu_s)),
        metric(
            "peak_rss_mb",
            "MiB",
            batch_median(&batches, |b| b.peak_rss_mb),
        ),
        metric("pageloads_per_s", "1/s", loads_per_s),
        metric(
            "replications_per_s",
            "1/s",
            batch_median(&batches, |b| b.reps as f64 / b.wall_s),
        ),
        metric("cells_kept_share", "share", kept(quarantined, cells)),
        metric(
            "runs_first_try_share",
            "share",
            kept(work.runs_retried, work.pageloads),
        ),
        metric(
            "loads_complete_share",
            "share",
            kept(work.incomplete, work.pageloads),
        ),
    ];
    let series = |f: fn(&Batch) -> f64| {
        batches
            .iter()
            .map(|b| Value::from(f(b)))
            .collect::<Vec<_>>()
    };
    let wall: Vec<f64> = batches.iter().map(|b| b.wall_s).collect();
    let samples = Value::obj()
        .with(
            "batch_wall_rel_iqr",
            relative_iqr(&wall).unwrap_or(f64::NAN),
        )
        .with(
            "setup_s",
            setup
                .total_s
                .into_iter()
                .map(Value::from)
                .collect::<Vec<_>>(),
        )
        .with("batch_wall_s", series(|b| b.wall_s))
        .with("batch_cpu_s", series(|b| b.cpu_s))
        .with("batch_peak_rss_mb", series(|b| b.peak_rss_mb))
        .with("batch_events", series(|b| b.counters.events as f64))
        .with(
            "study_build_s",
            builds.into_iter().map(Value::from).collect::<Vec<_>>(),
        );
    Ok((
        Report {
            correct: true,
            attempted,
            failed: 0,
            metrics,
        },
        samples,
    ))
}

fn run(args: &Args) -> Result<(Report, Value), String> {
    let jobs = jobs()?;
    let stamp = Stamp::here(
        args.workload.name(),
        args.seed,
        args.seconds,
        args.trace,
        jobs,
    );
    eprintln!("[perfbench] {}", stamp.to_json());
    configure(args.workload, jobs)?;
    let outcome = if args.trace {
        traced::measure(args.workload, args.seed, args.seconds, jobs)
    } else {
        measure(args.workload, args.seed, args.seconds)
    };
    let (report, samples) = match outcome {
        Ok(r) => r,
        Err(f) => {
            eprintln!("[perfbench] check failed: {}", f.why);
            (Report::failure(f.attempted), Value::obj())
        }
    };
    if let Some(bad) = report.metrics.iter().find(|m| !m.value.is_finite()) {
        return Err(format!("metric {} is not a finite number", bad.name));
    }
    let want: &[&str] = if args.trace {
        &traced::PER_LAYER
    } else {
        &END_TO_END
    };
    let got: Vec<&str> = report.metrics.iter().map(|m| m.name.as_str()).collect();
    if report.correct && got != want {
        return Err(format!("reported metrics {got:?} differ from {want:?}"));
    }
    let record = Value::obj()
        .with("stamp", stamp.to_json())
        .with("result", report.to_json())
        .with("samples", samples);
    Ok((report, record))
}

/// Compare two records written with `--out`: refused across machines
/// or configurations, else each metric's ratio is printed.
fn compare(a: &str, b: &str) -> Result<(), String> {
    let load = |path: &str| -> Result<Value, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
        Value::parse(&text).map_err(|e| format!("{path}: {e}"))
    };
    let (a, b) = (load(a)?, load(b)?);
    let stamp = |v: &Value| v.get("stamp").cloned().unwrap_or(Value::Null);
    stamp::comparable(&stamp(&a), &stamp(&b))?;
    let result = |v: &Value| {
        v.get("result")
            .and_then(Report::from_json)
            .ok_or("record has no result")
    };
    let (ra, rb) = (result(&a)?, result(&b)?);
    for m in &ra.metrics {
        if let Some(v) = rb.value(&m.name) {
            println!(
                "{:<40} {:>14.6} {:>14.6} {:>+8.2}% {}",
                m.name,
                m.value,
                v,
                (v / m.value - 1.0) * 100.0,
                m.unit
            );
        }
    }
    Ok(())
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("compare") {
        let code = match (args.get(1), args.get(2)) {
            (Some(a), Some(b)) => match compare(a, b) {
                Ok(()) => 0,
                Err(e) => {
                    eprintln!("[perfbench] {e}");
                    1
                }
            },
            _ => {
                eprintln!("usage: pq-perfbench compare <record-a.json> <record-b.json>");
                2
            }
        };
        std::process::exit(code);
    }
    let parsed = match parse_args(&args) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("[perfbench] {e}");
            std::process::exit(2);
        }
    };
    let (report, record) = match run(&parsed) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("[perfbench] {e}");
            std::process::exit(2);
        }
    };
    if let Some(path) = &parsed.out {
        if let Err(e) = std::fs::write(path, record.to_pretty()) {
            eprintln!("[perfbench] {path}: {e}");
            std::process::exit(2);
        }
    }
    for m in &report.metrics {
        eprintln!("[perfbench] {:<44} {:>16.6} {}", m.name, m.value, m.unit);
    }
    println!("{}", report.to_json());
    std::process::exit(if report.correct { 0 } else { 1 });
}

#[cfg(test)]
mod tests {
    use super::*;

    fn strings(xs: &[&str]) -> Vec<String> {
        xs.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn arguments_parse_and_reject() {
        let a = parse_args(&strings(&[
            "--workload",
            "edge-chaos",
            "--seed",
            "5",
            "--seconds",
            "10",
            "--trace",
            "1",
        ]))
        .expect("valid");
        assert_eq!(a.workload, Workload::EdgeChaos);
        assert_eq!((a.seed, a.seconds, a.trace), (5, 10, true));
        assert!(parse_args(&strings(&["--workload", "nope"])).is_err());
        assert!(parse_args(&strings(&["--workload", "study", "--seed", "1"])).is_err());
        assert!(parse_args(&strings(&[
            "--workload",
            "study",
            "--seed",
            "1",
            "--seconds",
            "1",
            "--trace",
            "2"
        ]))
        .is_err());
    }

    #[test]
    fn benchmark_json_lists_exactly_the_reported_metrics() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside the benchmark");
        let v = Value::parse(&text).expect("valid JSON");
        let names = |key: &str| -> Vec<String> {
            v.get(key)
                .and_then(Value::as_arr)
                .expect("metric list")
                .iter()
                .map(|m| m.get("name").and_then(Value::as_str).unwrap().to_string())
                .collect()
        };
        let workloads: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
        assert_eq!(names("workloads"), workloads);
        assert_eq!(names("end_to_end"), END_TO_END);
        assert_eq!(names("per_layer"), traced::PER_LAYER);
    }
}
