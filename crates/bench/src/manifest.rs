//! The machine-readable run manifest written by `runall`.
//!
//! One `results/manifest.json` per experiment execution: scale, seed,
//! git revision, per-phase wall-times, the Table-3 funnels, the
//! per-protocol PLT histogram summaries (p50/p90/p99, fed by the
//! instrumented browser layer) and the event-queue throughput — the
//! regression baseline every future perf PR diffs against.

use crate::Experiment;
use pq_obs::json::Value;
use pq_obs::{MetricSnapshot, PhaseTimer};
use pq_study::{Group, StudyData};

/// Accumulating FNV-1a/64 hasher for the study digest.
struct Fnv(u64);

impl Fnv {
    fn new() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
    fn byte(&mut self, b: u8) {
        self.0 ^= u64::from(b);
        self.0 = self.0.wrapping_mul(0x1_0000_0000_01b3);
    }
    fn u64(&mut self, v: u64) {
        for b in v.to_le_bytes() {
            self.byte(b);
        }
    }
    fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }
    fn str(&mut self, s: &str) {
        self.u64(s.len() as u64);
        for b in s.as_bytes() {
            self.byte(*b);
        }
    }
}

/// A 64-bit FNV-1a digest over *every bit that analysis consumes* of a
/// study execution: all A/B votes, all rating votes (float bits
/// included) and both funnel tables, in canonical order.
///
/// This is the parallel-determinism witness: `PQ_JOBS=1` and
/// `PQ_JOBS=N` runs of the same scale/seed must produce the same
/// digest, and CI diffs the two manifests to prove it. Any divergence
/// means an RNG stream got keyed by execution order instead of cell
/// coordinates.
pub fn study_digest(data: &StudyData) -> u64 {
    let mut h = Fnv::new();
    h.u64(data.ab.len() as u64);
    for v in &data.ab {
        h.str(v.group.name());
        h.u64(u64::from(v.participant));
        h.u64(u64::from(v.site));
        h.str(v.network.name());
        h.str(v.pair.0.label());
        h.str(v.pair.1.label());
        h.byte(match v.choice {
            pq_study::AbChoice::First => 0,
            pq_study::AbChoice::NoDifference => 1,
            pq_study::AbChoice::Second => 2,
        });
        h.f64(v.confidence);
        h.u64(u64::from(v.replays));
        h.byte(u8::from(v.valid));
    }
    h.u64(data.ratings.len() as u64);
    for v in &data.ratings {
        h.str(v.group.name());
        h.u64(u64::from(v.participant));
        h.u64(u64::from(v.site));
        h.str(v.network.name());
        h.str(v.protocol.label());
        h.byte(v.environment.idx() as u8);
        h.f64(v.speed);
        h.f64(v.quality);
        h.byte(u8::from(v.valid));
    }
    for funnel in data.funnel_ab.iter().chain(&data.funnel_rating) {
        h.u64(u64::from(funnel.recruited));
        for &n in &funnel.after {
            h.u64(u64::from(n));
        }
    }
    h.0
}

/// Survivor counts of one group×study conformance funnel.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FunnelCounts {
    /// Subject group name (`lab` / `microworker` / `internet`).
    pub group: String,
    /// Participants recruited.
    pub recruited: u32,
    /// Survivors after rules R1..=R7.
    pub after: [u32; 7],
}

/// Per-protocol PLT histogram summary (milliseconds).
#[derive(Clone, Debug, PartialEq)]
pub struct PltSummary {
    /// Protocol label (Table 1 row).
    pub protocol: String,
    /// Page loads observed.
    pub count: u64,
    /// ~median PLT.
    pub p50: f64,
    /// ~90th percentile.
    pub p90: f64,
    /// ~99th percentile.
    pub p99: f64,
}

/// One grid cell that fault injection quarantined (manifest mirror of
/// `pq_study::QuarantinedCell`).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct QuarantineEntry {
    /// Site name.
    pub site: String,
    /// Network display name.
    pub network: String,
    /// Protocol label.
    pub protocol: String,
    /// Last failure class observed before giving up.
    pub reason: String,
    /// Page loads attempted.
    pub attempts: u32,
}

/// Heap traffic attributed to one harness phase (from the `pq-prof`
/// counting allocator).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct AllocPhase {
    /// Phase name (matches an entry of `phase_secs`, or `(untimed)`).
    pub phase: String,
    /// Allocations made while the phase was current.
    pub allocs: u64,
    /// Bytes requested while the phase was current.
    pub bytes: u64,
}

/// The edge-stack block of a run that enabled the `pq-edge` proxy or
/// middlebox stacks (`PQ_STACKS`); absent when the grid was the
/// paper's plain five.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct EdgeBlock {
    /// Edge stack labels that were part of the grid.
    pub stacks: Vec<String>,
    /// Proxy per-origin connection-pool size (`PQ_EDGE_POOL`).
    pub pool_size: u64,
    /// Replica origins the proxy balances over (`PQ_EDGE_REPLICAS`).
    pub replicas: u64,
    /// Origin legs the proxy opened (`edge.conns_opened`).
    pub conns_opened: u64,
    /// Dispatches served by an already-open leg (`edge.conns_reused`).
    pub conns_reused: u64,
    /// Idle legs evicted from the pools (`edge.conns_evicted`).
    pub conns_evicted: u64,
    /// Packets the middlebox retransmitted early (`edge.mbx_early_retx`).
    pub mbx_early_retx: u64,
}

/// The allocation report of a run profiled with `PQ_PROF_ALLOC=1`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct AllocReport {
    /// Total allocations counted.
    pub total_allocs: u64,
    /// Total bytes requested.
    pub total_bytes: u64,
    /// High-water mark of live heap bytes (RSS estimate).
    pub peak_bytes: u64,
    /// Per-phase attribution.
    pub phases: Vec<AllocPhase>,
}

/// Everything a `runall` execution leaves behind for machines.
#[derive(Clone, Debug, PartialEq)]
pub struct Manifest {
    /// Experiment scale label (`smoke` / `reduced` / `full`).
    pub scale: String,
    /// Study seed.
    pub seed: u64,
    /// `pq-par` worker count the run executed with (the `PQ_JOBS`
    /// knob) — lets a reader distinguish serial from
    /// parallel baselines.
    pub jobs: u64,
    /// Hex FNV-1a/64 digest over the full study dataset (all votes +
    /// funnels, see [`study_digest`]); identical across worker counts
    /// by the pq-par determinism contract.
    pub study_digest: String,
    /// `git rev-parse --short HEAD`, or `unknown` outside a checkout.
    pub git_rev: String,
    /// Unix timestamp (seconds) of manifest creation.
    pub created_unix: u64,
    /// `(phase name, wall seconds)` in execution order.
    pub phase_secs: Vec<(String, f64)>,
    /// A/B study funnels, one per group (Table 3 upper half).
    pub funnel_ab: Vec<FunnelCounts>,
    /// Rating study funnels (Table 3 lower half).
    pub funnel_rating: Vec<FunnelCounts>,
    /// PLT summaries per protocol, from the registry histograms.
    pub plt_ms: Vec<PltSummary>,
    /// Total discrete events processed by all event queues.
    pub sim_events: u64,
    /// Total page loads simulated.
    pub pageloads: u64,
    /// The `PQ_FAULTS` spec the run executed under (empty = injection
    /// off; the digest must then match the committed baseline).
    pub fault_spec: String,
    /// Faults the injector actually fired (`fault.injected` counter).
    pub faults_injected: u64,
    /// Invalid page loads discarded and re-run by the ≥31-valid-runs
    /// retry policy.
    pub runs_retried: u64,
    /// Grid cells that exhausted their retry budget and were removed;
    /// the studies and figures ran on the surviving cells.
    pub cells_quarantined: Vec<QuarantineEntry>,
    /// `true` when the run was interrupted (SIGINT/SIGTERM) after
    /// checkpointing its completed cells: the journal survives and a
    /// `PQ_RESUME=1` rerun picks up where this one stopped. Such a
    /// manifest is a progress report, never a comparison baseline.
    pub resumable: bool,
    /// Grid cells restored from the write-ahead journal instead of
    /// rebuilt (0 on a fresh run).
    pub resumed_from_cells: u64,
    /// Total records in the cell journal at collection time (replayed
    /// + written this run; 0 when no journal was open).
    pub journal_records: u64,
    /// Cells quarantined by the `PQ_CELL_TIMEOUT_MS` watchdog.
    pub cells_timed_out: u64,
    /// Allocation attribution from the `pq-prof` counting allocator;
    /// `None` when the run executed without `PQ_PROF_ALLOC=1`.
    pub alloc: Option<AllocReport>,
    /// Edge-stack summary (pool and middlebox activity); `None` when
    /// no edge stack was in the grid, keeping baseline manifests
    /// byte-stable.
    pub edge: Option<EdgeBlock>,
}

impl Manifest {
    /// Assemble the manifest from a finished experiment, the phase
    /// timer, and the global metrics registry.
    #[allow(
        clippy::disallowed_methods,
        reason = "the manifest records when the run happened; the time never feeds simulated data"
    )]
    pub fn collect(e: &Experiment, timer: &PhaseTimer) -> Manifest {
        let reg = pq_obs::registry();
        let funnel = |funnels: &[pq_study::Funnel; 3]| -> Vec<FunnelCounts> {
            Group::ALL
                .into_iter()
                .zip(funnels)
                .map(|(g, f)| FunnelCounts {
                    group: g.name().to_lowercase().replace(['µ', ' '], ""),
                    recruited: f.recruited,
                    after: f.after,
                })
                .collect()
        };
        let plt_ms = e
            .stacks
            .iter()
            .copied()
            .filter_map(|p| {
                let name = format!("web.plt_ms{{proto=\"{}\"}}", p.label());
                match reg.get(&name) {
                    Some(MetricSnapshot::Histogram {
                        count,
                        p50,
                        p90,
                        p99,
                        ..
                    }) => Some(PltSummary {
                        protocol: p.label().to_string(),
                        count,
                        p50,
                        p90,
                        p99,
                    }),
                    _ => None,
                }
            })
            .collect();
        let counter = |name: &str| match reg.get(name) {
            Some(MetricSnapshot::Counter(v)) => v,
            _ => 0,
        };
        Manifest {
            scale: e.scale.label().to_string(),
            seed: e.seed,
            jobs: pq_par::jobs() as u64,
            study_digest: format!("{:016x}", study_digest(&e.data)),
            git_rev: git_rev(),
            created_unix: std::time::SystemTime::now()
                .duration_since(std::time::UNIX_EPOCH)
                .map(|d| d.as_secs())
                .unwrap_or(0),
            phase_secs: timer.phases().to_vec(),
            funnel_ab: funnel(&e.data.funnel_ab),
            funnel_rating: funnel(&e.data.funnel_rating),
            plt_ms,
            sim_events: counter("sim.events_processed"),
            pageloads: counter("web.pageloads"),
            fault_spec: pq_fault::plan().map(|p| p.spec.clone()).unwrap_or_default(),
            faults_injected: counter("fault.injected"),
            runs_retried: e.stimuli.runs_retried(),
            cells_quarantined: e
                .stimuli
                .quarantined()
                .iter()
                .map(|q| QuarantineEntry {
                    site: q.site.clone(),
                    network: q.network.clone(),
                    protocol: q.protocol.clone(),
                    reason: q.reason.clone(),
                    attempts: q.attempts,
                })
                .collect(),
            resumable: false,
            resumed_from_cells: e.stimuli.resumed_cells(),
            journal_records: if pq_ckpt::journal_active() {
                pq_ckpt::replayed_count() + pq_ckpt::records_written()
            } else {
                0
            },
            cells_timed_out: e.stimuli.cells_timed_out(),
            alloc: if pq_prof::alloc_enabled() {
                let snap = pq_prof::alloc_snapshot();
                Some(AllocReport {
                    total_allocs: snap.total_allocs,
                    total_bytes: snap.total_bytes,
                    peak_bytes: snap.peak_bytes,
                    phases: snap
                        .phases
                        .iter()
                        .map(|p| AllocPhase {
                            phase: p.phase.clone(),
                            allocs: p.allocs,
                            bytes: p.bytes,
                        })
                        .collect(),
                })
            } else {
                None
            },
            edge: if e.stacks.iter().any(|p| p.is_edge()) {
                let cfg = pq_edge::EdgeConfig::from_env();
                Some(EdgeBlock {
                    stacks: e
                        .stacks
                        .iter()
                        .filter(|p| p.is_edge())
                        .map(|p| p.label().to_string())
                        .collect(),
                    pool_size: u64::from(cfg.pool_size),
                    replicas: u64::from(cfg.replicas),
                    conns_opened: counter("edge.conns_opened"),
                    conns_reused: counter("edge.conns_reused"),
                    conns_evicted: counter("edge.conns_evicted"),
                    mbx_early_retx: counter("edge.mbx_early_retx"),
                })
            } else {
                None
            },
        }
    }

    /// Encode as JSON.
    pub fn to_json(&self) -> Value {
        let alloc_json = |a: &AllocReport| {
            Value::obj()
                .with("total_allocs", a.total_allocs)
                .with("total_bytes", a.total_bytes)
                .with("peak_bytes", a.peak_bytes)
                .with(
                    "phases",
                    a.phases
                        .iter()
                        .map(|p| {
                            Value::obj()
                                .with("phase", p.phase.as_str())
                                .with("allocs", p.allocs)
                                .with("bytes", p.bytes)
                        })
                        .collect::<Vec<_>>(),
                )
        };
        let funnels = |fs: &[FunnelCounts]| -> Vec<Value> {
            fs.iter()
                .map(|f| {
                    Value::obj()
                        .with("group", f.group.as_str())
                        .with("recruited", u64::from(f.recruited))
                        .with(
                            "after",
                            f.after
                                .iter()
                                .map(|&n| Value::from(u64::from(n)))
                                .collect::<Vec<_>>(),
                        )
                })
                .collect()
        };
        let mut out = Value::obj()
            .with("scale", self.scale.as_str())
            .with("seed", self.seed)
            .with("jobs", self.jobs)
            .with("study_digest", self.study_digest.as_str())
            .with("git_rev", self.git_rev.as_str())
            .with("created_unix", self.created_unix)
            .with(
                "phases",
                self.phase_secs
                    .iter()
                    .map(|(name, secs)| {
                        Value::obj().with("name", name.as_str()).with("secs", *secs)
                    })
                    .collect::<Vec<_>>(),
            )
            .with("funnel_ab", funnels(&self.funnel_ab))
            .with("funnel_rating", funnels(&self.funnel_rating))
            .with(
                "plt_ms",
                self.plt_ms
                    .iter()
                    .map(|p| {
                        Value::obj()
                            .with("protocol", p.protocol.as_str())
                            .with("count", p.count)
                            .with("p50", p.p50)
                            .with("p90", p.p90)
                            .with("p99", p.p99)
                    })
                    .collect::<Vec<_>>(),
            )
            .with("sim_events", self.sim_events)
            .with("pageloads", self.pageloads)
            .with("fault_spec", self.fault_spec.as_str())
            .with("faults_injected", self.faults_injected)
            .with("runs_retried", self.runs_retried)
            .with(
                "cells_quarantined",
                self.cells_quarantined
                    .iter()
                    .map(|q| {
                        Value::obj()
                            .with("site", q.site.as_str())
                            .with("network", q.network.as_str())
                            .with("protocol", q.protocol.as_str())
                            .with("reason", q.reason.as_str())
                            .with("attempts", u64::from(q.attempts))
                    })
                    .collect::<Vec<_>>(),
            )
            .with("resumable", self.resumable)
            .with("resumed_from_cells", self.resumed_from_cells)
            .with("journal_records", self.journal_records)
            .with("cells_timed_out", self.cells_timed_out);
        if let Some(a) = &self.alloc {
            out.set("alloc", alloc_json(a));
        }
        if let Some(e) = &self.edge {
            out.set(
                "edge",
                Value::obj()
                    .with(
                        "stacks",
                        e.stacks
                            .iter()
                            .map(|s| Value::from(s.as_str()))
                            .collect::<Vec<_>>(),
                    )
                    .with("pool_size", e.pool_size)
                    .with("replicas", e.replicas)
                    .with("conns_opened", e.conns_opened)
                    .with("conns_reused", e.conns_reused)
                    .with("conns_evicted", e.conns_evicted)
                    .with("mbx_early_retx", e.mbx_early_retx),
            );
        }
        out
    }

    /// Decode from JSON (inverse of [`Manifest::to_json`]); `None` on
    /// any missing or mistyped field.
    pub fn from_json(v: &Value) -> Option<Manifest> {
        let funnels = |v: &Value| -> Option<Vec<FunnelCounts>> {
            v.as_arr()?
                .iter()
                .map(|f| {
                    let after_v = f.get("after")?.as_arr()?;
                    let mut after = [0u32; 7];
                    if after_v.len() != after.len() {
                        return None;
                    }
                    for (slot, a) in after.iter_mut().zip(after_v) {
                        *slot = a.as_u64()? as u32;
                    }
                    Some(FunnelCounts {
                        group: f.get("group")?.as_str()?.to_string(),
                        recruited: f.get("recruited")?.as_u64()? as u32,
                        after,
                    })
                })
                .collect()
        };
        Some(Manifest {
            scale: v.get("scale")?.as_str()?.to_string(),
            seed: v.get("seed")?.as_u64()?,
            jobs: v.get("jobs")?.as_u64()?,
            study_digest: v.get("study_digest")?.as_str()?.to_string(),
            git_rev: v.get("git_rev")?.as_str()?.to_string(),
            created_unix: v.get("created_unix")?.as_u64()?,
            phase_secs: v
                .get("phases")?
                .as_arr()?
                .iter()
                .map(|p| {
                    Some((
                        p.get("name")?.as_str()?.to_string(),
                        p.get("secs")?.as_f64()?,
                    ))
                })
                .collect::<Option<Vec<_>>>()?,
            funnel_ab: funnels(v.get("funnel_ab")?)?,
            funnel_rating: funnels(v.get("funnel_rating")?)?,
            plt_ms: v
                .get("plt_ms")?
                .as_arr()?
                .iter()
                .map(|p| {
                    Some(PltSummary {
                        protocol: p.get("protocol")?.as_str()?.to_string(),
                        count: p.get("count")?.as_u64()?,
                        p50: p.get("p50")?.as_f64()?,
                        p90: p.get("p90")?.as_f64()?,
                        p99: p.get("p99")?.as_f64()?,
                    })
                })
                .collect::<Option<Vec<_>>>()?,
            sim_events: v.get("sim_events")?.as_u64()?,
            pageloads: v.get("pageloads")?.as_u64()?,
            fault_spec: v.get("fault_spec")?.as_str()?.to_string(),
            faults_injected: v.get("faults_injected")?.as_u64()?,
            runs_retried: v.get("runs_retried")?.as_u64()?,
            cells_quarantined: v
                .get("cells_quarantined")?
                .as_arr()?
                .iter()
                .map(|q| {
                    Some(QuarantineEntry {
                        site: q.get("site")?.as_str()?.to_string(),
                        network: q.get("network")?.as_str()?.to_string(),
                        protocol: q.get("protocol")?.as_str()?.to_string(),
                        reason: q.get("reason")?.as_str()?.to_string(),
                        attempts: q.get("attempts")?.as_u64()? as u32,
                    })
                })
                .collect::<Option<Vec<_>>>()?,
            // Crash-safety fields postdate the first recorded
            // manifests; missing keys decode as the fresh-run
            // defaults so old baselines stay parseable.
            resumable: v.get("resumable").map_or(Some(false), |b| b.as_bool())?,
            resumed_from_cells: v
                .get("resumed_from_cells")
                .map_or(Some(0), |n| n.as_u64())?,
            journal_records: v.get("journal_records").map_or(Some(0), |n| n.as_u64())?,
            cells_timed_out: v.get("cells_timed_out").map_or(Some(0), |n| n.as_u64())?,
            alloc: match v.get("alloc") {
                None => None,
                Some(a) => Some(AllocReport {
                    total_allocs: a.get("total_allocs")?.as_u64()?,
                    total_bytes: a.get("total_bytes")?.as_u64()?,
                    peak_bytes: a.get("peak_bytes")?.as_u64()?,
                    phases: a
                        .get("phases")?
                        .as_arr()?
                        .iter()
                        .map(|p| {
                            Some(AllocPhase {
                                phase: p.get("phase")?.as_str()?.to_string(),
                                allocs: p.get("allocs")?.as_u64()?,
                                bytes: p.get("bytes")?.as_u64()?,
                            })
                        })
                        .collect::<Option<Vec<_>>>()?,
                }),
            },
            edge: match v.get("edge") {
                None => None,
                Some(e) => Some(EdgeBlock {
                    stacks: e
                        .get("stacks")?
                        .as_arr()?
                        .iter()
                        .map(|s| Some(s.as_str()?.to_string()))
                        .collect::<Option<Vec<_>>>()?,
                    pool_size: e.get("pool_size")?.as_u64()?,
                    replicas: e.get("replicas")?.as_u64()?,
                    conns_opened: e.get("conns_opened")?.as_u64()?,
                    conns_reused: e.get("conns_reused")?.as_u64()?,
                    conns_evicted: e.get("conns_evicted")?.as_u64()?,
                    mbx_early_retx: e.get("mbx_early_retx")?.as_u64()?,
                }),
            },
        })
    }

    /// Write the manifest to `path` (creating parent directories).
    pub fn write(&self, path: &str) -> std::io::Result<()> {
        write_json(path, &self.to_json())
    }
}

/// `git rev-parse --short HEAD`, or `"unknown"`.
fn git_rev() -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "--short", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .unwrap_or_else(|| "unknown".to_string())
}

/// Write any JSON value to `path`, creating parent directories. Goes
/// through pq-ckpt's `atomic_write` (temp + fsync + rename) so readers
/// of `results/*` never observe a torn manifest.
pub fn write_json(path: &str, v: &Value) -> std::io::Result<()> {
    pq_ckpt::atomic_write(path, v.to_pretty().as_bytes())
}

/// The `BENCH_obs.json` regression baseline: phase wall-times plus
/// event-queue throughput of the run.
pub fn bench_obs_json(timer: &PhaseTimer, scale: &str, seed: u64) -> Value {
    let reg = pq_obs::registry();
    let events = match reg.get("sim.events_processed") {
        Some(MetricSnapshot::Counter(v)) => v,
        _ => 0,
    };
    let pageloads = match reg.get("web.pageloads") {
        Some(MetricSnapshot::Counter(v)) => v,
        _ => 0,
    };
    let par_tasks = match reg.get("par.tasks") {
        Some(MetricSnapshot::Counter(v)) => v,
        _ => 0,
    };
    let par_steals = match reg.get("par.steals") {
        Some(MetricSnapshot::Counter(v)) => v,
        _ => 0,
    };
    // Per-worker balance: scan the registry for the labelled
    // `par.worker_tasks{worker="N"}` counters the pool flushes, pair
    // each with its steal counter, and sort by worker id so scheduler
    // skew is visible in the baseline (not just the totals).
    let mut workers: Vec<(u64, u64, u64)> = reg
        .snapshot()
        .keys()
        .filter_map(|name| {
            let id: u64 = name
                .strip_prefix("par.worker_tasks{worker=\"")?
                .strip_suffix("\"}")?
                .parse()
                .ok()?;
            let tasks = reg.counter_value(name);
            let steals = reg.counter_value(&format!("par.worker_steals{{worker=\"{id}\"}}"));
            Some((id, tasks, steals))
        })
        .collect();
    workers.sort_unstable();
    let total = timer.total_secs();
    Value::obj()
        .with("bench", "pq_obs_pipeline")
        .with("scale", scale)
        .with("seed", seed)
        .with("jobs", pq_par::jobs() as u64)
        .with("par_tasks", par_tasks)
        .with("par_steals", par_steals)
        .with(
            "workers",
            workers
                .into_iter()
                .map(|(id, tasks, steals)| {
                    Value::obj()
                        .with("worker", id)
                        .with("tasks", tasks)
                        .with("steals", steals)
                })
                .collect::<Vec<_>>(),
        )
        .with("total_secs", total)
        .with("phases", timer.to_json())
        .with("sim_events", events)
        .with(
            "events_per_sec",
            if total > 0.0 {
                events as f64 / total
            } else {
                0.0
            },
        )
        .with("pageloads", pageloads)
        // Crash-safety accounting: zeros on a fresh un-journalled run,
        // so the baseline shape is stable while resumed / watchdogged
        // runs stay distinguishable across recorded runs.
        .with(
            "resumed_from_cells",
            match reg.get("run.resumed_cells") {
                Some(MetricSnapshot::Counter(v)) => v,
                _ => 0,
            },
        )
        .with(
            "cells_timed_out",
            match reg.get("run.cells_timed_out") {
                Some(MetricSnapshot::Counter(v)) => v,
                _ => 0,
            },
        )
        .with(
            "journal_records",
            if pq_ckpt::journal_active() {
                pq_ckpt::replayed_count() + pq_ckpt::records_written()
            } else {
                0
            },
        )
}

/// The `edge` block for `BENCH_obs.json`: pool and middlebox activity
/// counters. `None` when no edge stack ran (none of the `edge.*`
/// counters exist), so plain-stack baselines keep their exact shape.
pub fn bench_obs_edge_json() -> Option<Value> {
    let reg = pq_obs::registry();
    let names = [
        "edge.conns_opened",
        "edge.conns_reused",
        "edge.conns_evicted",
        "edge.mbx_early_retx",
    ];
    if !names.iter().any(|n| reg.get(n).is_some()) {
        return None;
    }
    let counter = |name: &str| match reg.get(name) {
        Some(MetricSnapshot::Counter(v)) => v,
        _ => 0,
    };
    let mut v = Value::obj();
    for name in names {
        let key = name.strip_prefix("edge.").unwrap_or(name);
        v.set(key, Value::from(counter(name)));
    }
    Some(v)
}

#[cfg(test)]
mod tests {
    use super::*;
    use pq_transport::Protocol;

    fn sample() -> Manifest {
        Manifest {
            scale: "smoke".into(),
            seed: 1910,
            jobs: 4,
            study_digest: "00c0ffee00c0ffee".into(),
            git_rev: "abc1234".into(),
            created_unix: 1_765_000_000,
            phase_secs: vec![("experiment".into(), 12.5), ("fig4".into(), 0.25)],
            funnel_ab: vec![FunnelCounts {
                group: "lab".into(),
                recruited: 35,
                after: [35; 7],
            }],
            funnel_rating: vec![FunnelCounts {
                group: "microworker".into(),
                recruited: 487,
                after: [471, 441, 355, 268, 268, 239, 233],
            }],
            plt_ms: vec![PltSummary {
                protocol: "QUIC".into(),
                count: 240,
                p50: 1810.0,
                p90: 4920.5,
                p99: 10230.0,
            }],
            sim_events: 123_456_789,
            pageloads: 240,
            fault_spec: "gel:pgb=0.02;flap:at=1500,dur=400".into(),
            faults_injected: 1702,
            runs_retried: 36,
            cells_quarantined: vec![QuarantineEntry {
                site: "apache.org".into(),
                network: "DSL".into(),
                protocol: "QUIC".into(),
                reason: "incomplete load".into(),
                attempts: 24,
            }],
            resumable: true,
            resumed_from_cells: 5,
            journal_records: 21,
            cells_timed_out: 2,
            alloc: Some(AllocReport {
                total_allocs: 48_000_000,
                total_bytes: 9_100_000_000,
                peak_bytes: 310_000_000,
                phases: vec![
                    AllocPhase {
                        phase: "experiment".into(),
                        allocs: 47_000_000,
                        bytes: 9_000_000_000,
                    },
                    AllocPhase {
                        phase: "report".into(),
                        allocs: 12_000,
                        bytes: 3_400_000,
                    },
                ],
            }),
            edge: Some(EdgeBlock {
                stacks: vec!["QUIC-EDGE".into(), "QUIC-MBX".into(), "H2-EDGE".into()],
                pool_size: 2,
                replicas: 2,
                conns_opened: 310,
                conns_reused: 1240,
                conns_evicted: 18,
                mbx_early_retx: 96,
            }),
        }
    }

    #[test]
    fn manifest_round_trips_through_json() {
        let m = sample();
        let text = m.to_json().to_pretty();
        let parsed = Value::parse(&text).expect("valid JSON");
        let back = Manifest::from_json(&parsed).expect("decodes");
        assert_eq!(m, back);
    }

    #[test]
    fn manifest_without_alloc_round_trips() {
        // Runs without PQ_PROF_ALLOC (and pre-profiling manifests)
        // simply omit the "alloc" key.
        let mut m = sample();
        m.alloc = None;
        let text = m.to_json().to_pretty();
        assert!(!text.contains("\"alloc\""));
        let back = Manifest::from_json(&Value::parse(&text).expect("valid JSON")).expect("decodes");
        assert_eq!(m, back);
    }

    #[test]
    fn manifest_without_edge_round_trips() {
        // Plain five-stack runs (and pre-edge manifests) omit the
        // "edge" key entirely.
        let mut m = sample();
        m.edge = None;
        let text = m.to_json().to_pretty();
        assert!(!text.contains("\"edge\""));
        let back = Manifest::from_json(&Value::parse(&text).expect("valid JSON")).expect("decodes");
        assert_eq!(m, back);
    }

    #[test]
    fn manifest_without_ckpt_fields_decodes_with_defaults() {
        // Manifests recorded before the crash-safety layer carry none
        // of the resume keys; they must decode as a fresh,
        // non-resumable run rather than be rejected.
        let mut v = sample().to_json();
        for key in [
            "resumable",
            "resumed_from_cells",
            "journal_records",
            "cells_timed_out",
        ] {
            v.remove(key);
        }
        let back = Manifest::from_json(&v).expect("old manifests still decode");
        assert!(!back.resumable);
        assert_eq!(back.resumed_from_cells, 0);
        assert_eq!(back.journal_records, 0);
        assert_eq!(back.cells_timed_out, 0);
    }

    #[test]
    fn from_json_rejects_mistyped_fields() {
        let mut v = sample().to_json();
        v.set("seed", "not-a-number");
        assert!(Manifest::from_json(&v).is_none());
    }

    #[test]
    fn study_digest_deterministic_and_seed_sensitive() {
        let sites = vec![pq_web::catalogue::site("apache.org").unwrap()];
        let stimuli =
            pq_study::StimulusSet::build(&sites, &pq_sim::NetworkKind::ALL, &Protocol::ALL, 2, 77);
        let a = pq_study::run_study(&stimuli, 1);
        let b = pq_study::run_study(&stimuli, 1);
        let c = pq_study::run_study(&stimuli, 2);
        assert_eq!(study_digest(&a), study_digest(&b), "same seed, same digest");
        assert_ne!(study_digest(&a), study_digest(&c), "digest tracks the data");
    }

    #[test]
    fn bench_obs_shape() {
        let timer = PhaseTimer::new();
        let v = bench_obs_json(&timer, "smoke", 7);
        assert_eq!(v.get("scale").and_then(|s| s.as_str()), Some("smoke"));
        assert!(v.get("events_per_sec").is_some());
        let text = v.to_pretty();
        assert!(Value::parse(&text).is_ok());
    }
}
