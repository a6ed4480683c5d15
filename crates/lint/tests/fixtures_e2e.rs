//! End-to-end engine tests over the fixture mini-workspace in
//! `tests/fixtures/ws` (which the real workspace walk skips, so the
//! deliberately violation-laden files never pollute the CI gate).

use pq_lint::{engine, lint_source, RULES};
use std::path::{Path, PathBuf};

fn ws() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/ws")
}

fn fixture(rel: &str) -> String {
    std::fs::read_to_string(ws().join(rel)).expect("fixture file")
}

fn report() -> engine::Report {
    engine::run(&ws()).expect("walk")
}

#[test]
fn violation_fixture_hits_every_rule() {
    let report = report();
    let mut hits: Vec<&str> = report
        .findings
        .iter()
        .filter(|f| f.path == "crates/core/src/lib.rs")
        .map(|f| f.finding.rule)
        .collect();
    hits.sort_unstable();
    let mut every: Vec<&str> = RULES.iter().map(|r| r.name).collect();
    every.sort_unstable();
    assert_eq!(hits, every, "{:#?}", report.findings);

    // Alone, the file has no registries to check against: only the
    // single-file rules fire.
    let (findings, suppressed) =
        lint_source("crates/core/src/lib.rs", &fixture("crates/core/src/lib.rs"));
    let rules: Vec<&str> = findings.iter().map(|f| f.rule).collect();
    assert_eq!(
        rules,
        ["unsafe", "float-flow", "suppression"],
        "{findings:#?}"
    );
    assert_eq!(suppressed, 0);
}

#[test]
fn findings_render_as_clickable_locations() {
    let (findings, _) = lint_source("crates/core/src/lib.rs", &fixture("crates/core/src/lib.rs"));
    let line = engine::FileFinding {
        path: "crates/core/src/lib.rs".into(),
        finding: findings[1].clone(),
    }
    .render();
    assert!(
        line.starts_with("crates/core/src/lib.rs:6:27: [float-flow]"),
        "{line}"
    );
    assert!(line.ends_with("[span: .sum()]"), "{line}");
}

#[test]
fn suppressed_fixture_is_quiet() {
    let src = fixture("crates/core/src/suppressed.rs");
    let (findings, suppressed) = lint_source("crates/core/src/suppressed.rs", &src);
    assert!(findings.is_empty(), "{findings:#?}");
    assert_eq!(suppressed, 2, "line-above allow + same-line allow(all)");
}

#[test]
fn run_counts_findings_and_suppressions() {
    let report = report();
    assert_eq!(report.files, 8);
    assert_eq!(
        report.suppressed, 5,
        "2 suppressed.rs + 1 flows.rs + 2 obs_names.rs"
    );
    assert_eq!(
        report.findings.len(),
        9,
        "5 lib.rs + 2 obs_names.rs + 1 flows.rs + 1 par/metrics.rs:\n{:#?}",
        report.findings
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
    let report = report();
    assert!(
        report
            .findings
            .iter()
            .all(|f| !f.path.starts_with("nested/")),
        "{:#?}",
        report.findings
    );
}

#[test]
fn semantic_families_fire_across_files() {
    // The registries in crates/obs activate env-name and
    // name-registry; the bench fan-out drives float-flow into core.
    let report = report();
    let hits = |r: &str| -> Vec<&str> {
        report
            .findings
            .iter()
            .filter(|f| f.finding.rule == r)
            .map(|f| f.path.as_str())
            .collect()
    };
    assert_eq!(
        hits("float-flow"),
        ["crates/core/src/flows.rs", "crates/core/src/lib.rs"]
    );
    let cross = report
        .findings
        .iter()
        .find(|f| f.path == "crates/core/src/flows.rs")
        .expect("cross-file float-flow");
    assert!(
        cross.finding.message.contains("crates/bench/src/sweep.rs"),
        "{}",
        cross.finding.message
    );
    assert_eq!(
        hits("env-name"),
        ["crates/core/src/lib.rs", "crates/core/src/obs_names.rs"]
    );
    assert_eq!(
        hits("name-registry"),
        [
            "crates/core/src/lib.rs",
            "crates/core/src/obs_names.rs",
            "crates/par/src/metrics.rs",
        ],
        "every literal metric/span name must be declared once registries exist"
    );
}
