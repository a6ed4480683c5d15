//! Pinned edge-stack digests: the `edge_cell` grid cell, clean and
//! under the CI chaos spec, at two worker counts, and the
//! `PQ_STACKS=all` smoke pipeline. Any change to the proxy, the
//! middlebox or the shared page-load path that moves a simulated
//! packet moves one of these; a deliberate behaviour change re-pins
//! them here and in CI.

#![cfg(unix)]

use pq_bench::manifest::Manifest;
use pq_obs::json::Value;
use std::path::Path;
use std::process::{Command, Stdio};

/// CI's chaos-smoke spec.
const CHAOS: &str = "seed=7;gel:pgb=0.02,pbg=0.3,bad=0.4;flap:at=1200,dur=300;\
                     stall:p=0.05,ms=800;trunc:p=0.03;hs:p=0.05;panic:p=0.05";
const EDGE_CELL_CLEAN: &str = "study_digest=06f24c0967b34ec5";
const EDGE_CELL_CHAOS: &str = "study_digest=f044666b5b078e01";
const ALL_STACKS_SMOKE: &str = "8a902d5f16d6f348";

/// `bin` with every inherited `PQ_*` knob removed, so the caller's
/// environment cannot leak into a pinned run.
fn hermetic(bin: &str) -> Command {
    let mut cmd = Command::new(bin);
    for (key, _) in std::env::vars() {
        if key.starts_with("PQ_") {
            cmd.env_remove(key);
        }
    }
    cmd.env("PQ_SEED", "1910").stderr(Stdio::null());
    cmd
}

fn edge_cell(jobs: &str, faults: Option<&str>) -> String {
    let mut cmd = hermetic(env!("CARGO_BIN_EXE_edge_cell"));
    cmd.env("PQ_JOBS", jobs);
    if let Some(spec) = faults {
        cmd.env("PQ_FAULTS", spec);
    }
    let out = cmd.output().expect("spawn edge_cell");
    assert!(out.status.success(), "edge_cell failed at jobs={jobs}");
    String::from_utf8(out.stdout)
        .expect("utf-8 stdout")
        .trim()
        .to_string()
}

#[test]
fn edge_cell_digests_are_pinned_at_jobs_1_and_2() {
    for jobs in ["1", "2"] {
        assert_eq!(edge_cell(jobs, None), EDGE_CELL_CLEAN, "clean, jobs={jobs}");
        assert_eq!(
            edge_cell(jobs, Some(CHAOS)),
            EDGE_CELL_CHAOS,
            "chaos, jobs={jobs}"
        );
    }
}

#[test]
fn all_stacks_smoke_digest_is_pinned() {
    let dir = std::env::temp_dir().join(format!("pq-edge-digests-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).expect("temp dir");
    let status = hermetic(env!("CARGO_BIN_EXE_runall"))
        .current_dir(&dir)
        .env("PQ_SCALE", "smoke")
        .env("PQ_STACKS", "all")
        .env("PQ_JOBS", "2")
        .stdout(Stdio::null())
        .status()
        .expect("spawn runall");
    assert!(status.success(), "runall failed in {}", dir.display());
    let manifest = read_manifest(&dir);
    std::fs::remove_dir_all(&dir).ok();
    assert_eq!(manifest.study_digest, ALL_STACKS_SMOKE);
}

fn read_manifest(dir: &Path) -> Manifest {
    let text = std::fs::read_to_string(dir.join("results/manifest.json")).expect("manifest");
    Manifest::from_json(&Value::parse(&text).expect("manifest JSON")).expect("manifest decodes")
}
