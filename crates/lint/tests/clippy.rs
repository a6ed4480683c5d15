//! The clippy half of the lint gate, run by `cargo test`.
//!
//! Clippy enforces the one-expression invariants from the root
//! `clippy.toml` and the digest crates' `[lints]` tables. The fixture
//! crate in `tests/fixtures/clippy` holds a firing case for every
//! pq-lint rule clippy took over, each line annotated
//! `//~ <rule>: <lint>[, <lint>…]`; these tests compile it with clippy
//! in a target dir of its own and hold every lint to its line. The
//! last test runs clippy over the whole workspace with `-D warnings`,
//! so `cargo test` fails on whatever CI's lint job would reject.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::Command;
use std::sync::OnceLock;

/// (line, lint) → how many times it fires (or must fire) there.
type Hits = BTreeMap<(u32, String), usize>;

fn repo() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../..")
}

fn fixture_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/clippy")
}

fn read(path: &Path) -> String {
    std::fs::read_to_string(path).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

/// The `//~ rule: lints` annotations, as rule → expected hits.
fn expected() -> BTreeMap<String, Hits> {
    let mut out: BTreeMap<String, Hits> = BTreeMap::new();
    for (i, line) in read(&fixture_dir().join("src/lib.rs")).lines().enumerate() {
        let code = line.trim_start();
        let Some((_, note)) = line.split_once("//~ ").filter(|_| !code.starts_with("//")) else {
            continue;
        };
        let Some((rule, lints)) = note.split_once(':') else {
            panic!("malformed annotation on line {}: {line}", i + 1);
        };
        let hits = out.entry(rule.trim().to_string()).or_default();
        for lint in lints.split(',') {
            *hits
                .entry((i as u32 + 1, lint.trim().to_string()))
                .or_default() += 1;
        }
    }
    out
}

/// The text between `key` and the next `end` after it.
fn field<'a>(s: &'a str, key: &str, end: char) -> Option<&'a str> {
    let rest = &s[s.find(key)? + key.len()..];
    rest.get(..rest.find(end)?)
}

/// Clippy's lints on the fixture's `src/lib.rs`, from its JSON
/// messages. A lint firing at one column in both the lib and the test
/// build counts once.
fn actual() -> &'static Result<Hits, String> {
    static HITS: OnceLock<Result<Hits, String>> = OnceLock::new();
    HITS.get_or_init(|| {
        let out = Command::new(env!("CARGO"))
            .args(["clippy", "--offline", "--quiet", "--all-targets"])
            .arg("--message-format=json")
            .arg("--target-dir")
            .arg(Path::new(env!("CARGO_TARGET_TMPDIR")).join("clippy-fixture"))
            .current_dir(fixture_dir())
            .output()
            .map_err(|e| format!("cannot run cargo clippy: {e}"))?;
        if !out.status.success() {
            return Err(format!(
                "cargo clippy failed on the fixture (is the clippy component installed?)\n{}",
                String::from_utf8_lossy(&out.stderr)
            ));
        }
        let mut seen = std::collections::BTreeSet::new();
        for msg in String::from_utf8_lossy(&out.stdout).lines() {
            let Some(code) = field(msg, "\"code\":{\"code\":\"", '"') else {
                continue;
            };
            // The rendered message opens with the primary location.
            let at = field(msg, "--> src/lib.rs:", '\\').and_then(|l| l.split_once(':'));
            let line: Option<u32> = at.and_then(|(l, _)| l.parse().ok());
            let col: Option<u32> = at.and_then(|(_, c)| c.parse().ok());
            if let (Some(line), Some(col)) = (line, col) {
                let lint = code.strip_prefix("clippy::").unwrap_or(code).to_string();
                seen.insert((line, col, lint));
            }
        }
        let mut hits = Hits::new();
        for (line, _col, lint) in seen {
            *hits.entry((line, lint)).or_default() += 1;
        }
        Ok(hits)
    })
}

/// Every annotated case of `rule` draws exactly its lints.
fn rule_fires(rule: &str) {
    let actual = actual().as_ref().unwrap_or_else(|e| panic!("{e}"));
    let expected = expected();
    let Some(cases) = expected.get(rule) else {
        panic!("the fixture has no case for `{rule}`");
    };
    for (key, want) in cases {
        assert_eq!(
            actual.get(key),
            Some(want),
            "`{rule}` case on line {} must draw clippy::{} {want} time(s); clippy saw {actual:#?}",
            key.0,
            key.1
        );
    }
}

#[test]
fn hash_containers_are_disallowed_types() {
    rule_fires("hash");
}

#[test]
fn hash_aliases_and_helpers_are_disallowed_types() {
    rule_fires("hash-flow");
}

#[test]
fn wall_clock_reads_are_disallowed() {
    rule_fires("time");
}

#[test]
fn raw_rng_construction_is_disallowed() {
    rule_fires("rng");
}

#[test]
fn raw_file_writes_are_disallowed() {
    rule_fires("results-io");
}

#[test]
fn raw_env_reads_are_disallowed() {
    rule_fires("env");
}

#[test]
fn panic_family_fires_outside_tests() {
    rule_fires("panic");
}

#[test]
fn indexing_fires_outside_tests() {
    rule_fires("index");
}

#[test]
fn nothing_fires_where_no_rule_expects_it() {
    // This covers the test module: unwrap, expect, panic! and
    // indexing stay allowed in tests.
    let actual = actual().as_ref().unwrap_or_else(|e| panic!("{e}"));
    let mut want = Hits::new();
    for hits in expected().into_values() {
        want.extend(hits);
    }
    assert_eq!(actual, &want);
}

#[test]
fn fixture_lints_match_the_digest_crates() {
    let table = |manifest: &str, header: &str| -> String {
        let from = manifest
            .find(header)
            .map_or(manifest.len(), |at| at + header.len());
        let body = &manifest[from..];
        body[..body.find("\n\n").unwrap_or(body.len())]
            .trim()
            .to_string()
    };
    let root = table(
        &read(&repo().join("Cargo.toml")),
        "[workspace.lints.clippy]\n",
    );
    let fixture = table(&read(&fixture_dir().join("Cargo.toml")), "[lints.clippy]\n");
    assert!(!root.is_empty());
    assert_eq!(
        fixture, root,
        "the fixture must lint like the digest crates"
    );
    for krate in ["core", "edge", "sim", "transport", "web"] {
        let manifest = read(&repo().join("crates").join(krate).join("Cargo.toml"));
        assert!(
            manifest.contains("[lints]\nworkspace = true\n"),
            "crates/{krate} must inherit the workspace lints"
        );
    }
}

#[test]
fn workspace_passes_clippy() {
    let out = Command::new(env!("CARGO"))
        .args([
            "clippy",
            "--offline",
            "--quiet",
            "--workspace",
            "--all-targets",
        ])
        .arg("--target-dir")
        .arg(Path::new(env!("CARGO_TARGET_TMPDIR")).join("clippy-workspace"))
        .args(["--", "-D", "warnings"])
        .current_dir(repo())
        .output()
        .expect("cannot run cargo clippy");
    assert!(
        out.status.success(),
        "cargo clippy --workspace --all-targets -- -D warnings failed:\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
}
