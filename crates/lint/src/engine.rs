//! The lint engine: workspace walk → lex → parse → symbol table +
//! call graph → rules → suppressions.
//!
//! Pass 1 lexes and structurally parses every file (see
//! [`crate::ast`]) and builds the workspace symbol table and call
//! graph. Pass 2 runs the rules against each file with that
//! cross-file context in hand. The single-file entry point
//! ([`lint_source`]) builds a one-file workspace, so the same rules
//! run everywhere.
//!
//! ## Suppressions
//!
//! A finding is suppressed by a comment on the same line or the line
//! directly above it:
//!
//! ```text
//! // pq-lint: allow(float-flow) -- summed over one cell's serial run vector
//! let mean = all.iter().map(|m| m.plt_ms).sum::<f64>() / n;
//! ```
//!
//! The `-- <reason>` is **mandatory**: a reasonless (or unknown-rule)
//! suppression does not suppress anything and is itself reported under
//! the `suppression` rule. Clippy's lints are suppressed with
//! `#[expect(clippy::…, reason = "…")]` instead.

use crate::ast::parse;
use crate::callgraph::CallGraph;
use crate::lexer::{lex, Comment};
use crate::rules::{check, first_cfg_test_line, rule, Finding};
use crate::symbols::{FileEntry, Workspace};
use std::collections::{BTreeMap, BTreeSet};
use std::path::{Path, PathBuf};

/// A finding bound to its file.
#[derive(Clone, Debug)]
pub struct FileFinding {
    /// Workspace-relative path (`/` separators).
    pub path: String,
    /// The finding itself.
    pub finding: Finding,
}

impl FileFinding {
    /// `path:line:col: [rule] message [span: snippet]` — one line per
    /// finding, clickable in editors and CI logs.
    pub fn render(&self) -> String {
        format!(
            "{}:{}:{}: [{}] {} [span: {}]",
            self.path,
            self.finding.line,
            self.finding.col,
            self.finding.rule,
            self.finding.message,
            self.finding.snippet
        )
    }
}

/// Outcome of linting a workspace.
#[derive(Debug, Default)]
pub struct Report {
    /// Unsuppressed findings.
    pub findings: Vec<FileFinding>,
    /// Suppressed findings (valid inline allows).
    pub suppressed: usize,
    /// Files scanned.
    pub files: usize,
}

impl Report {
    /// Gate verdict: clean means no unsuppressed finding.
    pub fn clean(&self) -> bool {
        self.findings.is_empty()
    }
}

/// One parsed suppression directive.
struct Suppression {
    rules: Vec<String>,
    has_reason: bool,
    line: u32,
    end_line: u32,
    col: u32,
}

/// All directives parsed from one file's comments.
#[derive(Default)]
pub(crate) struct Directives {
    sups: Vec<Suppression>,
    /// Malformed directives, reported as `suppression` findings.
    malformed: Vec<Finding>,
}

/// Parse `allow(float-flow, unsafe) -- reason` suppressions out of the
/// comments (behind the usual directive prefix).
fn parse_directives(comments: &[Comment]) -> Directives {
    let mut out = Directives::default();
    for c in comments {
        let Some(at) = c.text.find("pq-lint:") else {
            continue;
        };
        let rest = c.text[at + "pq-lint:".len()..].trim_start();
        let parsed = rest.strip_prefix("allow(").and_then(|list| {
            let close = list.find(')')?;
            let rules: Vec<String> = list[..close]
                .split(',')
                .map(|s| s.trim().to_string())
                .filter(|s| !s.is_empty())
                .collect();
            (!rules.is_empty()).then_some((rules, list[close + 1..].trim_start()))
        });
        // An unparsable directive is itself a lint error.
        let Some((rules, tail)) = parsed else {
            out.malformed.push(Finding {
                rule: "suppression",
                line: c.line,
                col: c.col,
                snippet: "pq-lint:".into(),
                message: "malformed suppression; expected \
                          `// pq-lint: allow(<rule>[, <rule>…]) -- <reason>`"
                    .into(),
            });
            continue;
        };
        out.sups.push(Suppression {
            rules,
            has_reason: tail
                .strip_prefix("--")
                .is_some_and(|r| !r.trim().is_empty()),
            line: c.line,
            end_line: c.end_line,
            col: c.col,
        });
    }
    out
}

/// Lex and parse one file: the workspace entry plus its suppression
/// directives.
pub(crate) fn parse_file(rel: &str, src: &str) -> (FileEntry, Directives) {
    let (tokens, comments) = lex(src);
    let entry = FileEntry {
        rel_path: rel.to_string(),
        crate_name: crate_of(rel).map(String::from),
        test_from_line: first_cfg_test_line(&tokens),
        ast: parse(&tokens),
        tokens,
        is_test: is_test_path(rel),
        is_crate_root: is_crate_root(rel),
    };
    (entry, parse_directives(&comments))
}

/// Apply suppressions to one file's raw findings and append directive
/// hygiene findings. Returns (survivors, suppressed count).
fn finish(directives: Directives, raw: Vec<Finding>) -> (Vec<Finding>, usize) {
    let Directives {
        sups,
        mut malformed,
    } = directives;
    let (hidden, mut findings): (Vec<Finding>, Vec<Finding>) = raw.into_iter().partition(|f| {
        sups.iter().any(|s| {
            (f.line == s.line || f.line == s.end_line + 1)
                && s.has_reason
                && s.rules.iter().any(|r| r == f.rule || r == "all")
        })
    });
    // Directive hygiene: unknown rule names or missing reasons.
    for s in &sups {
        let unknown: Vec<&str> = s
            .rules
            .iter()
            .filter(|r| r.as_str() != "all" && rule(r).is_none())
            .map(String::as_str)
            .collect();
        let (snippet, message) = if !s.has_reason {
            (
                format!("allow({})", s.rules.join(", ")),
                "suppression lacks the mandatory `-- <reason>`; say why the invariant holds"
                    .to_string(),
            )
        } else if !unknown.is_empty() {
            (
                format!("allow({})", unknown.join(", ")),
                format!(
                    "unknown rule name(s) {}; see --rules for the registry",
                    unknown.join(", ")
                ),
            )
        } else {
            continue;
        };
        findings.push(Finding {
            rule: "suppression",
            line: s.line,
            col: s.col,
            snippet,
            message,
        });
    }
    findings.append(&mut malformed);
    findings.sort_by(|a, b| (a.line, a.col, a.rule).cmp(&(b.line, b.col, b.rule)));
    (findings, hidden.len())
}

/// Lint one file's source text with a single-file workspace (the
/// cross-file rules see only this file's symbols). Returns
/// unsuppressed findings plus the number suppressed.
pub fn lint_source(rel_path: &str, src: &str) -> (Vec<Finding>, usize) {
    let (entry, directives) = parse_file(rel_path, src);
    let ws = Workspace::build(vec![entry]);
    finish(directives, check(&ws, 0, &CallGraph::build(&ws)))
}

/// `crates/<name>/…` → `Some(name)`.
fn crate_of(rel: &str) -> Option<&str> {
    rel.strip_prefix("crates/")?.split('/').next()
}

/// Crate → path-dependency crates, from each `crates/*/Cargo.toml`'s
/// `path = "../<name>"` entries (dev-dependencies included — test
/// symbols are excluded from the graph anyway, and over-approximating
/// here only adds edges). Crates without a readable manifest get an
/// empty dep set; a workspace with no manifests at all (fixtures)
/// yields an empty map, which disables the filter.
fn read_crate_deps(root: &Path) -> BTreeMap<String, BTreeSet<String>> {
    let mut deps: BTreeMap<String, BTreeSet<String>> = BTreeMap::new();
    let crates_dir = root.join("crates");
    let Ok(entries) = std::fs::read_dir(&crates_dir) else {
        return deps;
    };
    for entry in entries.flatten() {
        let name = entry.file_name().to_string_lossy().into_owned();
        let Ok(manifest) = std::fs::read_to_string(entry.path().join("Cargo.toml")) else {
            continue;
        };
        let mut set = BTreeSet::new();
        for line in manifest.lines() {
            // `pq-web = { path = "../web" }` (any section).
            let Some(rest) = line.split("path").nth(1) else {
                continue;
            };
            let Some(dep) = rest.split('"').nth(1) else {
                continue;
            };
            if let Some(dep) = dep.strip_prefix("../") {
                set.insert(dep.trim_end_matches('/').to_string());
            }
        }
        deps.insert(name, set);
    }
    deps
}

/// Whole-file test/bench/example context, by path.
fn is_test_path(rel: &str) -> bool {
    let file = rel.rsplit('/').next().unwrap_or(rel);
    rel.contains("/tests/")
        || rel.starts_with("tests/")
        || rel.contains("/benches/")
        || rel.starts_with("benches/")
        || rel.contains("/examples/")
        || rel.starts_with("examples/")
        || file.ends_with("_tests.rs")
        || file == "testutil.rs"
}

/// Crate roots where `#![forbid(unsafe_code)]` is required.
fn is_crate_root(rel: &str) -> bool {
    rel.ends_with("src/lib.rs") || rel.ends_with("src/main.rs") || {
        // Binary roots: crates/<c>/src/bin/<b>.rs
        rel.contains("/src/bin/") && rel.ends_with(".rs")
    }
}

/// Collect the workspace's `.rs` files under `root`, sorted, as
/// workspace-relative `/`-separated paths.
pub fn workspace_files(root: &Path) -> std::io::Result<Vec<PathBuf>> {
    let mut out = Vec::new();
    walk(root, root, &mut out)?;
    out.sort();
    Ok(out)
}

fn walk(root: &Path, dir: &Path, out: &mut Vec<PathBuf>) -> std::io::Result<()> {
    let mut entries: Vec<PathBuf> = std::fs::read_dir(dir)?
        .filter_map(|e| e.ok().map(|e| e.path()))
        .collect();
    entries.sort();
    for path in entries {
        let name = path
            .file_name()
            .and_then(|n| n.to_str())
            .unwrap_or_default()
            .to_string();
        if path.is_dir() {
            // Build artefacts, VCS metadata, committed results and the
            // lint fixture corpus (deliberately violation-laden) are
            // not workspace source.
            if matches!(name.as_str(), "target" | ".git" | ".github" | "results") {
                continue;
            }
            let rel = rel_str(root, &path);
            if rel == "crates/lint/tests/fixtures" || is_nested_workspace(&path) {
                continue;
            }
            walk(root, &path, out)?;
        } else if name.ends_with(".rs") {
            out.push(path);
        }
    }
    Ok(())
}

/// A subdirectory whose `Cargo.toml` declares its own `[workspace]` is
/// a separate workspace: Cargo does not build it as a member, so its
/// sources are not this workspace's either (and their functions must
/// not add call-graph edges to ours).
fn is_nested_workspace(dir: &Path) -> bool {
    std::fs::read_to_string(dir.join("Cargo.toml"))
        .is_ok_and(|m| m.lines().any(|l| l.trim() == "[workspace]"))
}

/// Workspace-relative path with forward slashes.
pub fn rel_str(root: &Path, path: &Path) -> String {
    path.strip_prefix(root)
        .unwrap_or(path)
        .to_string_lossy()
        .replace('\\', "/")
}

/// Lint the whole workspace under `root`.
pub fn run(root: &Path) -> std::io::Result<Report> {
    let mut entries = Vec::new();
    let mut directives = Vec::new();
    for path in workspace_files(root)? {
        let (entry, d) = parse_file(&rel_str(root, &path), &std::fs::read_to_string(&path)?);
        entries.push(entry);
        directives.push(d);
    }
    let mut ws = Workspace::build(entries);
    ws.crate_deps = read_crate_deps(root);
    let g = CallGraph::build(&ws);

    let mut report = Report {
        files: ws.files.len(),
        ..Report::default()
    };
    for (i, d) in directives.into_iter().enumerate() {
        let (findings, suppressed) = finish(d, check(&ws, i, &g));
        report.suppressed += suppressed;
        let path = &ws.files[i].rel_path;
        report
            .findings
            .extend(findings.into_iter().map(|finding| FileFinding {
                path: path.clone(),
                finding,
            }));
    }
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A digest-crate file whose one function fans out over pq-par and
    /// sums floats: one `float-flow` finding per `.sum()`.
    const FANOUT: &str = "fn f(v: &[f64]) -> f64 {\n    pq_par::par_map(v, |x| *x);\n";

    #[test]
    fn suppression_same_line_and_line_above() {
        let src = format!(
            "{FANOUT}    // pq-lint: allow(float-flow) -- partials combined in index order\n    \
             let a: f64 = v.iter().sum();\n    \
             let b: f64 = v.iter().sum(); // pq-lint: allow(float-flow) -- ditto\n    \
             a + b\n}}\n"
        );
        let (findings, suppressed) = lint_source("crates/core/src/x.rs", &src);
        assert_eq!(suppressed, 2);
        assert!(findings.is_empty(), "{findings:?}");
    }

    #[test]
    fn reason_is_mandatory() {
        let src = format!("{FANOUT}    // pq-lint: allow(float-flow)\n    v.iter().sum()\n}}\n");
        let (findings, suppressed) = lint_source("crates/core/src/x.rs", &src);
        assert_eq!(suppressed, 0);
        let rules: Vec<&str> = findings.iter().map(|f| f.rule).collect();
        assert!(rules.contains(&"float-flow"), "finding not suppressed");
        assert!(rules.contains(&"suppression"), "directive itself flagged");
    }

    #[test]
    fn unknown_rule_names_are_flagged() {
        // Retired rules are unknown too: clippy owns them now.
        for name in ["made-up", "index"] {
            let src = format!("// pq-lint: allow({name}) -- why\nfn f() {{}}\n");
            let (findings, _) = lint_source("crates/core/src/x.rs", &src);
            assert_eq!(findings.len(), 1, "{findings:?}");
            assert_eq!(findings[0].rule, "suppression");
        }
    }

    #[test]
    fn multi_rule_allow() {
        // A crate root without the forbid attribute, fanning out and
        // summing on its first line: two rules, one directive.
        let src = "fn f(v: &[f64]) -> f64 { pq_par::par_map(v, |x| *x); v.iter().sum() } \
                   // pq-lint: allow(unsafe, float-flow) -- fixture-style root\n";
        let (findings, suppressed) = lint_source("crates/core/src/lib.rs", src);
        assert_eq!(suppressed, 2);
        assert!(findings.is_empty(), "{findings:?}");
    }

    #[test]
    fn crate_and_test_classification() {
        assert_eq!(crate_of("crates/sim/src/link.rs"), Some("sim"));
        assert_eq!(crate_of("src/lib.rs"), None);
        assert!(is_test_path("crates/sim/tests/proptests.rs"));
        assert!(is_test_path("tests/end_to_end.rs"));
        assert!(is_test_path("examples/quickstart.rs"));
        assert!(is_test_path("crates/web/src/browser_tests.rs"));
        assert!(is_test_path("crates/transport/src/testutil.rs"));
        assert!(!is_test_path("crates/web/src/browser.rs"));
        assert!(is_crate_root("crates/bench/src/bin/runall.rs"));
        assert!(is_crate_root("src/lib.rs"));
        assert!(!is_crate_root("crates/web/src/browser.rs"));
    }
}
