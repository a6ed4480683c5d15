//! The lint engine: workspace walk → lex → parse → symbol table +
//! call graph → rules → suppressions → baseline comparison.
//!
//! ## Two passes
//!
//! Pass 1 lexes and structurally parses every file (see
//! [`crate::ast`]) and builds the workspace symbol table and call
//! graph. Pass 2 runs the token rules and the semantic families
//! against each file with that cross-file context in hand. Single-file
//! entry points ([`lint_source`]) build a one-file workspace, so the
//! same rules run everywhere.
//!
//! ## Suppressions
//!
//! A finding is suppressed by a comment on the same line or the line
//! directly above it:
//!
//! ```text
//! // pq-lint: allow(panic) -- tail index bounded by the loop above
//! let last = spans[spans.len() - 1];
//! ```
//!
//! The `-- <reason>` is **mandatory**: a reasonless (or unknown-rule)
//! suppression does not suppress anything and is itself reported under
//! the `suppression` rule.
//!
//! ## Hot-root annotations
//!
//! The H family propagates from functions annotated on the line(s)
//! directly above their `fn`:
//!
//! ```text
//! // pq-lint: hot-root(experiment) -- per-event dispatch loop
//! pub fn run(mut self) -> PageLoad { … }
//! ```
//!
//! The parenthesized profile-frame hint is optional; the reason is
//! mandatory, exactly like suppressions.
//!
//! ## Baseline
//!
//! `pq-lint.baseline` (workspace root) records grandfathered findings
//! as `(rule, file, count)` triples. The engine fails when a file's
//! count for a rule **exceeds** its baselined count (new violation)
//! and also when it **falls below** it (stale entry: the debt was paid
//! — shrink the baseline so it can never grow back). Counts rather
//! than line numbers keep entries stable under unrelated edits while
//! still enforcing the ratchet.

use crate::ast::{parse, FileAst, HotRootAnn};
use crate::baseline::Baseline;
use crate::callgraph::CallGraph;
use crate::lexer::{lex, Comment, Tok};
use crate::rules::{
    check_file, check_semantic, first_cfg_test_line, rule, Family, FileContext, Finding,
};
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
    /// `path:line:col: family[rule] message (snippet)` — one line per
    /// finding, clickable in editors and CI logs.
    pub fn render(&self) -> String {
        let fam = rule(self.finding.rule)
            .map(|r| r.family)
            .unwrap_or(crate::rules::Family::L);
        format!(
            "{}:{}:{}: {:?}[{}] {} [span: {}]",
            self.path,
            self.finding.line,
            self.finding.col,
            fam,
            self.finding.rule,
            self.finding.message,
            self.finding.snippet
        )
    }
}

/// Outcome of linting a file set against a baseline.
#[derive(Debug, Default)]
pub struct Report {
    /// Findings not absorbed by the baseline, i.e. new violations.
    pub new: Vec<FileFinding>,
    /// `(rule, path, baselined, found)` for entries whose debt shrank
    /// or vanished — the baseline must be updated (it only shrinks).
    pub stale: Vec<(String, String, usize, usize)>,
    /// Findings absorbed by the baseline (grandfathered).
    pub grandfathered: usize,
    /// Suppressed findings (valid inline allows).
    pub suppressed: usize,
    /// Files scanned.
    pub files: usize,
    /// Every H-family finding (post-suppression, pre-baseline) — the
    /// input to `--profile` ranking, which must see grandfathered
    /// debt too.
    pub hot: Vec<FileFinding>,
}

impl Report {
    /// Gate verdict: clean means no new findings and no stale entries.
    pub fn clean(&self) -> bool {
        self.new.is_empty() && self.stale.is_empty()
    }
}

/// One parsed suppression directive.
struct Suppression {
    rules: Vec<String>,
    has_reason: bool,
    line: u32,
    end_line: u32,
    col: u32,
    used: bool,
}

/// All directives parsed from one file's comments.
#[derive(Default)]
struct Directives {
    sups: Vec<Suppression>,
    hot_roots: Vec<HotRootAnn>,
    /// Malformed directives, reported as `suppression` findings.
    malformed: Vec<Finding>,
}

impl Directives {
    fn push_malformed(&mut self, c: &Comment, snippet: &str, message: String) {
        self.malformed.push(Finding {
            rule: "suppression",
            line: c.line,
            col: c.col,
            snippet: snippet.to_string(),
            message,
            frames: Vec::new(),
        });
    }
}

/// Parse `allow(panic, index) -- reason` suppressions and
/// `hot-root[(frame)] -- reason` annotations out of the comments
/// (both behind the usual directive prefix).
fn parse_directives(comments: &[Comment]) -> Directives {
    let mut out = Directives::default();
    for c in comments {
        let Some(at) = c.text.find("pq-lint:") else {
            continue;
        };
        let rest = c.text[at + "pq-lint:".len()..].trim_start();
        if let Some(tail) = rest.strip_prefix("hot-root") {
            let tail = tail.trim_start();
            let (frame, tail) = if let Some(inner) = tail.strip_prefix('(') {
                match inner.find(')') {
                    Some(close) => (
                        Some(inner[..close].trim().to_string()).filter(|f| !f.is_empty()),
                        inner[close + 1..].trim_start(),
                    ),
                    None => {
                        out.push_malformed(
                            c,
                            "hot-root(",
                            "malformed hot-root annotation; expected \
                             `// pq-lint: hot-root[(<frame>)] -- <reason>`"
                                .into(),
                        );
                        continue;
                    }
                }
            } else {
                (None, tail)
            };
            let has_reason = tail
                .strip_prefix("--")
                .map(|r| !r.trim().is_empty())
                .unwrap_or(false);
            if !has_reason {
                out.push_malformed(
                    c,
                    "hot-root",
                    "hot-root annotation lacks the mandatory `-- <reason>`; say why \
                     this function anchors the hot path"
                        .into(),
                );
                continue;
            }
            out.hot_roots.push(HotRootAnn {
                line: c.end_line,
                frame,
            });
            continue;
        }
        let Some(list) = rest.strip_prefix("allow(") else {
            // An unparsable directive is itself a lint error.
            out.push_malformed(
                c,
                "pq-lint:",
                "malformed suppression; expected \
                 `// pq-lint: allow(<rule>[, <rule>…]) -- <reason>` or \
                 `// pq-lint: hot-root[(<frame>)] -- <reason>`"
                    .into(),
            );
            continue;
        };
        let Some(close) = list.find(')') else {
            out.push_malformed(
                c,
                "pq-lint:",
                "malformed suppression; expected \
                 `// pq-lint: allow(<rule>[, <rule>…]) -- <reason>`"
                    .into(),
            );
            continue;
        };
        let rules: Vec<String> = list[..close]
            .split(',')
            .map(|s| s.trim().to_string())
            .filter(|s| !s.is_empty())
            .collect();
        let tail = list[close + 1..].trim_start();
        let has_reason = tail
            .strip_prefix("--")
            .map(|r| !r.trim().is_empty())
            .unwrap_or(false);
        if rules.is_empty() {
            out.push_malformed(
                c,
                "allow()",
                "malformed suppression; expected \
                 `// pq-lint: allow(<rule>[, <rule>…]) -- <reason>`"
                    .into(),
            );
            continue;
        }
        out.sups.push(Suppression {
            rules,
            has_reason,
            line: c.line,
            end_line: c.end_line,
            col: c.col,
            used: false,
        });
    }
    out
}

/// Pass-1 product for one file: everything both passes need.
struct ParsedFile {
    rel: String,
    tokens: Vec<Tok>,
    directives: Directives,
    ast: FileAst,
    crate_name: Option<String>,
    is_test: bool,
    test_from_line: Option<u32>,
    is_crate_root: bool,
}

fn parse_file(rel: &str, src: &str) -> ParsedFile {
    let (tokens, comments) = lex(src);
    let directives = parse_directives(&comments);
    let ast = parse(&tokens, &directives.hot_roots);
    ParsedFile {
        rel: rel.to_string(),
        test_from_line: first_cfg_test_line(&tokens),
        tokens,
        ast,
        directives,
        crate_name: crate_of(rel).map(String::from),
        is_test: is_test_path(rel),
        is_crate_root: is_crate_root(rel),
    }
}

impl ParsedFile {
    fn entry(&self) -> FileEntry {
        FileEntry {
            rel_path: self.rel.clone(),
            crate_name: self.crate_name.clone(),
            ast: self.ast.clone(),
            is_test: self.is_test,
            test_from_line: self.test_from_line,
        }
    }

    fn context(&self) -> FileContext<'_> {
        FileContext {
            rel_path: &self.rel,
            crate_name: self.crate_name.as_deref(),
            is_test_file: self.is_test,
            test_from_line: self.test_from_line,
            tokens: &self.tokens,
            is_crate_root: self.is_crate_root,
        }
    }

    /// Apply suppressions to raw findings and append directive
    /// hygiene findings. Returns (survivors, suppressed count).
    fn finish(&mut self, raw: Vec<Finding>) -> (Vec<Finding>, usize) {
        let sups = &mut self.directives.sups;
        let mut findings = Vec::new();
        let mut suppressed = 0usize;
        for f in raw {
            let hit = sups.iter_mut().find(|s| {
                (f.line == s.line || f.line == s.end_line + 1)
                    && s.has_reason
                    && s.rules.iter().any(|r| r == f.rule || r == "all")
            });
            match hit {
                Some(s) => {
                    s.used = true;
                    suppressed += 1;
                }
                None => findings.push(f),
            }
        }
        // Directive hygiene: unknown rule names or missing reasons.
        for s in sups.iter() {
            let unknown: Vec<&str> = s
                .rules
                .iter()
                .filter(|r| r.as_str() != "all" && rule(r).is_none())
                .map(String::as_str)
                .collect();
            if !s.has_reason {
                findings.push(Finding {
                    rule: "suppression",
                    line: s.line,
                    col: s.col,
                    snippet: format!("allow({})", s.rules.join(", ")),
                    message: "suppression lacks the mandatory `-- <reason>`; say why the \
                              invariant holds"
                        .into(),
                    frames: Vec::new(),
                });
            } else if !unknown.is_empty() {
                findings.push(Finding {
                    rule: "suppression",
                    line: s.line,
                    col: s.col,
                    snippet: format!("allow({})", unknown.join(", ")),
                    message: format!(
                        "unknown rule name(s) {}; see --rules for the registry",
                        unknown.join(", ")
                    ),
                    frames: Vec::new(),
                });
            }
        }
        findings.append(&mut self.directives.malformed);
        findings.sort_by(|a, b| (a.line, a.col, a.rule).cmp(&(b.line, b.col, b.rule)));
        (findings, suppressed)
    }
}

/// Lint one file's source text with a single-file workspace (the
/// semantic families see only this file's symbols). Returns
/// unsuppressed findings plus the number suppressed.
pub fn lint_source(rel_path: &str, src: &str) -> (Vec<Finding>, usize) {
    let mut pf = parse_file(rel_path, src);
    let ws = Workspace::build(vec![pf.entry()]);
    let g = CallGraph::build(&ws);
    let ctx = pf.context();
    let mut raw = check_file(&ctx);
    check_semantic(&ctx, 0, &ws, &g, &mut raw);
    pf.finish(raw)
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

/// Everything one full-workspace lint produces, before baseline
/// accounting.
struct WorkspaceLint {
    files: usize,
    suppressed: usize,
    by_key: BTreeMap<(String, String), Vec<FileFinding>>,
    hot: Vec<FileFinding>,
}

/// Both passes over the whole workspace.
fn lint_workspace(root: &Path) -> std::io::Result<WorkspaceLint> {
    let files = workspace_files(root)?;
    let mut parsed: Vec<ParsedFile> = Vec::with_capacity(files.len());
    for path in &files {
        let rel = rel_str(root, path);
        let src = std::fs::read_to_string(path)?;
        parsed.push(parse_file(&rel, &src));
    }
    let mut ws = Workspace::build(parsed.iter().map(ParsedFile::entry).collect());
    ws.crate_deps = read_crate_deps(root);
    let g = CallGraph::build(&ws);

    let mut out = WorkspaceLint {
        files: parsed.len(),
        suppressed: 0,
        by_key: BTreeMap::new(),
        hot: Vec::new(),
    };
    for (i, pf) in parsed.iter_mut().enumerate() {
        let ctx = pf.context();
        let mut raw = check_file(&ctx);
        check_semantic(&ctx, i, &ws, &g, &mut raw);
        let (findings, suppressed) = pf.finish(raw);
        out.suppressed += suppressed;
        for f in findings {
            let ff = FileFinding {
                path: pf.rel.clone(),
                finding: f,
            };
            if rule(ff.finding.rule).is_some_and(|r| r.family == Family::H) {
                out.hot.push(ff.clone());
            }
            out.by_key
                .entry((ff.finding.rule.to_string(), pf.rel.clone()))
                .or_default()
                .push(ff);
        }
    }
    Ok(out)
}

/// Lint the whole workspace under `root` against `baseline`.
pub fn run(root: &Path, baseline: &Baseline) -> std::io::Result<Report> {
    let lint = lint_workspace(root)?;
    let mut report = Report {
        files: lint.files,
        suppressed: lint.suppressed,
        hot: lint.hot,
        ..Report::default()
    };
    // Compare against the baseline in both directions.
    for ((rule_name, path), found) in &lint.by_key {
        let allowed = baseline.count(rule_name, path);
        match found.len().cmp(&allowed) {
            std::cmp::Ordering::Greater => {
                report.grandfathered += allowed;
                report.new.extend(found.iter().cloned());
            }
            std::cmp::Ordering::Equal => report.grandfathered += allowed,
            std::cmp::Ordering::Less => {
                report.grandfathered += found.len();
                report
                    .stale
                    .push((rule_name.clone(), path.clone(), allowed, found.len()));
            }
        }
    }
    // Baseline entries whose file no longer has any finding at all
    // (or no longer exists) are stale too.
    for (rule_name, path, allowed) in baseline.entries() {
        if allowed > 0 && !lint.by_key.contains_key(&(rule_name.clone(), path.clone())) {
            report.stale.push((rule_name, path, allowed, 0));
        }
    }
    report.stale.sort();
    Ok(report)
}

/// Current (rule, path) → count map for `--write-baseline`.
pub fn current_counts(root: &Path) -> std::io::Result<BTreeMap<(String, String), usize>> {
    let lint = lint_workspace(root)?;
    Ok(lint.by_key.into_iter().map(|(k, v)| (k, v.len())).collect())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn suppression_same_line_and_line_above() {
        let src = "\
fn f(x: Option<u32>) -> u32 {
    // pq-lint: allow(panic) -- x checked by caller
    let a = x.unwrap();
    let b = x.unwrap(); // pq-lint: allow(panic) -- ditto
    a + b
}
";
        let (findings, suppressed) = lint_source("crates/core/src/x.rs", src);
        assert_eq!(suppressed, 2);
        assert!(findings.is_empty(), "{findings:?}");
    }

    #[test]
    fn reason_is_mandatory() {
        let src = "\
fn f(x: Option<u32>) -> u32 {
    // pq-lint: allow(panic)
    x.unwrap()
}
";
        let (findings, suppressed) = lint_source("crates/core/src/x.rs", src);
        assert_eq!(suppressed, 0);
        let rules: Vec<&str> = findings.iter().map(|f| f.rule).collect();
        assert!(rules.contains(&"panic"), "finding not suppressed");
        assert!(rules.contains(&"suppression"), "directive itself flagged");
    }

    #[test]
    fn unknown_rule_names_are_flagged() {
        let src = "// pq-lint: allow(made-up) -- why\nfn f() {}\n";
        let (findings, _) = lint_source("crates/core/src/x.rs", src);
        assert_eq!(findings.len(), 1);
        assert_eq!(findings[0].rule, "suppression");
    }

    #[test]
    fn multi_rule_allow() {
        let src = "\
fn f(v: &[u32]) -> u32 {
    // pq-lint: allow(panic, index) -- v non-empty by contract
    v[0] + v.first().unwrap()
}
";
        let (findings, suppressed) = lint_source("crates/core/src/x.rs", src);
        assert_eq!(suppressed, 2);
        assert!(findings.is_empty(), "{findings:?}");
    }

    #[test]
    fn hot_root_annotation_drives_h_family() {
        let src = "\
// pq-lint: hot-root(experiment) -- the per-event dispatch loop
fn run(n: u32) {
    for _ in 0..n {
        dispatch();
    }
}
fn dispatch() {
    let label = 3u32.to_string();
    let _ = label;
}
fn cold() {
    let label = 3u32.to_string();
    let _ = label;
}
";
        let (findings, _) = lint_source("crates/sim/src/x.rs", src);
        let hot: Vec<(&str, u32)> = findings
            .iter()
            .filter(|f| f.rule.starts_with("hot"))
            .map(|f| (f.rule, f.line))
            .collect();
        assert_eq!(hot, [("hot-alloc", 8)], "{findings:?}");
        // The finding carries the root's frame hint for --profile.
        let f = findings.iter().find(|f| f.rule == "hot-alloc").unwrap();
        assert_eq!(f.frames, ["experiment"]);
    }

    #[test]
    fn hot_root_requires_reason() {
        let src = "// pq-lint: hot-root\nfn run() {}\n";
        let (findings, _) = lint_source("crates/sim/src/x.rs", src);
        assert_eq!(findings.len(), 1);
        assert_eq!(findings[0].rule, "suppression");
        assert!(findings[0].message.contains("hot-root"), "{findings:?}");
    }

    #[test]
    fn hot_findings_are_suppressible() {
        let src = "\
// pq-lint: hot-root -- service loop
fn run(n: u32) {
    for _ in 0..n {
        // pq-lint: allow(hot-loop-alloc) -- cold error path only
        let s = n.to_string();
        let _ = s;
    }
}
";
        let (findings, suppressed) = lint_source("crates/sim/src/x.rs", src);
        assert!(findings.is_empty(), "{findings:?}");
        assert_eq!(suppressed, 1);
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
