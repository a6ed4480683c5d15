//! End-to-end engine tests over the fixture mini-workspace in
//! `tests/fixtures/ws` (which the real workspace walk skips, so the
//! deliberately violation-laden files never pollute the CI gate).

use pq_lint::{engine, lint_source, Baseline};
use std::path::{Path, PathBuf};

fn ws() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/ws")
}

fn fixture(rel: &str) -> String {
    std::fs::read_to_string(ws().join(rel)).expect("fixture file")
}

#[test]
fn violation_fixture_hits_every_rule() {
    let src = fixture("crates/core/src/lib.rs");
    let (findings, suppressed) = lint_source("crates/core/src/lib.rs", &src);
    assert_eq!(suppressed, 0);
    let count = |r: &str| findings.iter().filter(|f| f.rule == r).count();
    assert_eq!(count("hash"), 2, "{findings:#?}");
    assert_eq!(count("time"), 1);
    assert_eq!(count("rng"), 1);
    assert_eq!(count("float-sum"), 1);
    assert_eq!(count("panic"), 1);
    assert_eq!(count("index"), 1);
    assert_eq!(count("unsafe"), 1);
    assert_eq!(count("env"), 1);
    assert_eq!(count("metric-name"), 1);
    assert_eq!(findings.len(), 10);
}

#[test]
fn findings_render_as_clickable_locations() {
    let src = fixture("crates/core/src/grandfathered.rs");
    let (findings, _) = lint_source("crates/core/src/grandfathered.rs", &src);
    assert_eq!(findings.len(), 2);
    let line = engine::FileFinding {
        path: "crates/core/src/grandfathered.rs".into(),
        finding: findings[0].clone(),
    }
    .render();
    assert!(
        line.starts_with("crates/core/src/grandfathered.rs:5:6: P[index]"),
        "{line}"
    );
    assert!(line.contains("v[…]"), "{line}");
}

#[test]
fn suppressed_fixture_is_quiet() {
    let src = fixture("crates/core/src/suppressed.rs");
    let (findings, suppressed) = lint_source("crates/core/src/suppressed.rs", &src);
    assert!(findings.is_empty(), "{findings:#?}");
    assert_eq!(suppressed, 3, "rng + index + panic");
}

#[test]
fn run_grandfathers_exactly_the_baseline() {
    let root = ws();
    let baseline = Baseline::load(&root.join("pq-lint.baseline")).expect("fixture baseline");
    let report = engine::run(&root, &baseline).expect("walk");
    assert_eq!(report.files, 11);
    assert_eq!(
        report.suppressed, 10,
        "3 suppressed.rs + 3 flows.rs + 2 obs_names.rs + 2 hot.rs"
    );
    assert_eq!(report.grandfathered, 2);
    assert!(report.stale.is_empty(), "{:?}", report.stale);
    assert_eq!(
        report.new.len(),
        22,
        "11 lib.rs + 4 env_read.rs + 3 flows.rs + 2 obs_names.rs + 2 hot.rs:\n{:#?}",
        report.new
    );
    assert!(!report.clean());
}

#[test]
fn nested_workspace_is_not_linted() {
    // `nested/` declares its own `[workspace]`; its crate root lacks
    // `#![forbid(unsafe_code)]`, which would be a finding if walked.
    let files = engine::workspace_files(&ws()).expect("walk");
    assert!(
        files.iter().all(|f| !f.starts_with(ws().join("nested"))),
        "{files:?}"
    );
    let report = engine::run(&ws(), &Baseline::parse("").expect("empty")).expect("walk");
    assert!(
        report.new.iter().all(|f| !f.path.starts_with("nested/")),
        "{:#?}",
        report.new
    );
}

#[test]
fn semantic_families_fire_across_files() {
    // The registries in crates/obs activate the A family; the hot-root
    // in hot.rs drives H; the stats helper + bench fan-out drive D2.
    let report = engine::run(&ws(), &Baseline::parse("").expect("empty")).expect("walk");
    let hits = |r: &str| -> Vec<&str> {
        report
            .new
            .iter()
            .filter(|f| f.finding.rule == r)
            .map(|f| f.path.as_str())
            .collect()
    };
    assert_eq!(hits("hot-loop-alloc"), ["crates/sim/src/hot.rs"]);
    assert_eq!(hits("hot-alloc"), ["crates/sim/src/hot.rs"]);
    assert_eq!(
        hits("hash-flow"),
        ["crates/core/src/flows.rs"; 2],
        "one alias use + one hash-returning helper call"
    );
    assert_eq!(hits("float-flow"), ["crates/core/src/flows.rs"]);
    assert_eq!(hits("env-name"), ["crates/core/src/obs_names.rs"]);
    assert_eq!(
        hits("name-registry"),
        [
            "crates/core/src/lib.rs",
            "crates/core/src/obs_names.rs",
            "crates/par/src/env_read.rs",
        ],
        "every literal metric/span name must be declared once registries exist"
    );
    // H findings feed --profile ranking post-suppression: exactly the
    // two unsuppressed hot.rs sites, carrying the root's frame hint.
    assert_eq!(report.hot.len(), 2, "{:#?}", report.hot);
    assert!(report
        .hot
        .iter()
        .all(|f| f.finding.frames.contains(&"experiment".to_string())));
}

#[test]
fn hot_fixture_fires_and_suppresses_single_file() {
    // The H family works in single-file mode too: the annotated root,
    // its loop-borne callees and the suppressions all resolve within
    // hot.rs alone.
    let src = fixture("crates/sim/src/hot.rs");
    let (findings, suppressed) = lint_source("crates/sim/src/hot.rs", &src);
    let rules: Vec<&str> = findings.iter().map(|f| f.rule).collect();
    assert_eq!(rules, ["hot-loop-alloc", "hot-alloc"], "{findings:#?}");
    assert_eq!(suppressed, 2, "one hot-loop-alloc + one hot-alloc allow");
}

#[test]
fn stale_entries_fail_in_both_directions() {
    // Inflated count → stale; entry for a vanished file → stale.
    let baseline = Baseline::parse(
        "index crates/core/src/grandfathered.rs 3\npanic crates/core/src/gone.rs 1\n",
    )
    .expect("parses");
    let report = engine::run(&ws(), &baseline).expect("walk");
    assert_eq!(report.stale.len(), 2, "{:?}", report.stale);
    assert!(!report.clean());
}

#[test]
fn write_baseline_round_trips_to_clean() {
    // Absorbing the full debt (what --write-baseline does) must yield
    // a clean report, and the rendered form must re-parse.
    let counts = engine::current_counts(&ws()).expect("walk");
    let b = Baseline::parse(&Baseline::render(&counts)).expect("round-trips");
    let report = engine::run(&ws(), &b).expect("walk");
    assert!(
        report.clean(),
        "new={:?} stale={:?}",
        report.new,
        report.stale
    );
    assert_eq!(report.grandfathered, 24, "22 new + 2 previously baselined");
}
