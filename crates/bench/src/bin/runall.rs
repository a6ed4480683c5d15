//! Runs every table and figure regenerator in paper order, sharing a
//! single experiment execution, then writes the machine-readable run
//! manifest (`results/manifest.json`) and the phase-timing record
//! (`results/BENCH_obs.json`).
//!
//! ## Crash safety
//!
//! The stimulus sweep is checkpointed through pq-ckpt's write-ahead
//! cell journal (`PQ_JOURNAL`, default `results/journal.jsonl`): every
//! completed grid cell is durable before the run proceeds, SIGINT /
//! SIGTERM checkpoint and exit cleanly (`resumable: true` in the
//! manifest, exit 0), and `PQ_RESUME=1` replays the journal — skipping
//! completed cells — to a `study_digest` bit-identical to an
//! uninterrupted run at any `PQ_JOBS`.

#![forbid(unsafe_code)]

use pq_bench::manifest::{bench_obs_edge_json, bench_obs_json, write_json, Manifest};
use pq_bench::report;

/// Open (or resume) the write-ahead cell journal and bind it to this
/// run's configuration. A journal recorded under a different
/// scale/seed/faults/stacks is discarded with a warning — resuming it
/// would splice incompatible cells into the grid.
fn open_journal() {
    let resume = pq_obs::env::var("PQ_RESUME").as_deref() == Some("1");
    let path =
        pq_obs::env::var("PQ_JOURNAL").unwrap_or_else(|| "results/journal.jsonl".to_string());
    match pq_ckpt::journal_open(&path, resume) {
        Ok(replay) => {
            if resume {
                eprintln!(
                    "[runall] journal {path}: {} record(s) replayed{}",
                    replay.records,
                    if replay.torn {
                        " (torn tail truncated)"
                    } else {
                        ""
                    },
                );
            }
        }
        Err(err) => {
            eprintln!("[runall] journal {path} unavailable ({err}); checkpointing disabled");
            return;
        }
    }
    let scale = pq_bench::Scale::from_env();
    let seed = pq_bench::seed_from_env().to_string();
    let faults = pq_obs::env::var("PQ_FAULTS").unwrap_or_default();
    let stacks = pq_obs::env::var("PQ_STACKS").unwrap_or_default();
    let meta = [
        ("scale", scale.label()),
        ("seed", seed.as_str()),
        ("faults", faults.as_str()),
        ("stacks", stacks.as_str()),
    ];
    match pq_ckpt::journal_meta(&meta) {
        Ok(true) => eprintln!("[runall] journal matches this run's configuration"),
        Ok(false) => {}
        Err(err) => eprintln!("[runall] journal meta check failed: {err}"),
    }
}

/// Mirror pq-ckpt's internal durability statistics into the metrics
/// registry so they land in the exported metrics next to everything
/// else.
fn bridge_ckpt_stats() {
    let stats = pq_ckpt::stats();
    let reg = pq_obs::registry();
    for (name, v) in [
        ("ckpt.records_written", stats.records_written),
        ("ckpt.records_replayed", stats.records_replayed),
        ("ckpt.torn_truncations", stats.torn_truncations),
        ("ckpt.atomic_writes", stats.atomic_writes),
        ("ckpt.durable_appends", stats.durable_appends),
        ("ckpt.stale_temps_removed", stats.stale_temps_removed),
    ] {
        if v > 0 {
            reg.counter_add(name, v);
        }
    }
}

fn main() {
    pq_obs::init_from_env();
    pq_ckpt::install_signal_handlers();
    open_journal();
    let mut timer = pq_obs::PhaseTimer::new();
    timer.phase("table1", report::print_table1);
    timer.phase("table2", report::print_table2);
    let e = timer.phase("experiment", || pq_bench::run_experiment_from_env("runall"));

    if pq_ckpt::interrupted() {
        // Every completed cell is already durable in the journal;
        // write a progress manifest and leave the journal in place
        // for a PQ_RESUME=1 rerun. Clean exit: interruption of a
        // checkpointed run is not a failure.
        eprintln!("[runall] interrupted — skipping figures; rerun with PQ_RESUME=1 to finish");
        bridge_ckpt_stats();
        let mut manifest = Manifest::collect(&e, &timer);
        manifest.resumable = true;
        match manifest.write("results/manifest.json") {
            Ok(()) => eprintln!("[runall] wrote results/manifest.json (resumable)"),
            Err(err) => eprintln!("[runall] failed to write manifest: {err}"),
        }
        pq_ckpt::journal_detach();
        pq_obs::profile::export_metrics();
        pq_obs::flush_to_env();
        return;
    }

    timer.phase("table3", || report::print_table3(&e));
    timer.phase("fig3", || report::print_fig3(&e));
    timer.phase("fig4", || report::print_fig4(&e));
    timer.phase("fig5", || report::print_fig5(&e));
    timer.phase("fig6", || report::print_fig6(&e));
    timer.phase("agreement", || report::print_agreement(&e));
    timer.phase("ablation", || report::print_ablation(&e));

    bridge_ckpt_stats();
    let manifest = Manifest::collect(&e, &timer);
    match manifest.write("results/manifest.json") {
        Ok(()) => eprintln!("[runall] wrote results/manifest.json"),
        Err(err) => eprintln!("[runall] failed to write manifest: {err}"),
    }
    let mut bench = bench_obs_json(&timer, e.scale.label(), e.seed);
    if let Some(edge) = bench_obs_edge_json() {
        bench.set("edge", edge);
    }
    match write_json("results/BENCH_obs.json", &bench) {
        Ok(()) => eprintln!("[runall] wrote results/BENCH_obs.json"),
        Err(err) => eprintln!("[runall] failed to write BENCH_obs.json: {err}"),
    }
    // The grid completed and its results are durable: retire the
    // journal so the next run starts fresh.
    match pq_ckpt::journal_complete() {
        Ok(()) => {}
        Err(err) => eprintln!("[runall] failed to retire journal: {err}"),
    }
    pq_obs::profile::export_metrics();
    if let Some(summary) = pq_obs::profile::alloc_summary() {
        eprintln!("[runall] {summary}");
    }
    if let Some(path) = pq_obs::profile::flush_to_env() {
        eprintln!("[runall] wrote {}", path.display());
    }
    pq_obs::flush_to_env();
}
