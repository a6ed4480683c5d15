//! Workspace symbol table: every function definition across the
//! linted file set, plus the declared name registries (`KNOWN_VARS`,
//! `METRIC_NAMES`, `SPAN_NAMES`) parsed straight out of the linted
//! source so fixtures and the real workspace use one mechanism.

use crate::ast::FileAst;
use crate::lexer::Tok;
use crate::rules::DIGEST_CRATES;
use std::collections::{BTreeMap, BTreeSet};

/// Where `env-name` reads its environment-variable registry from.
pub const ENV_REGISTRY_FILE: &str = "crates/obs/src/env.rs";

/// Where `name-registry` reads its metric/span name registries from.
pub const NAME_REGISTRY_FILE: &str = "crates/obs/src/names.rs";

/// One lexed and parsed file: everything the rules need to know
/// about it.
#[derive(Clone, Debug)]
pub struct FileEntry {
    /// Workspace-relative path with `/` separators.
    pub rel_path: String,
    /// `crates/<name>/…` → `Some(name)`; the root crate → `None`.
    pub crate_name: Option<String>,
    /// Code tokens (comments excluded).
    pub tokens: Vec<Tok>,
    /// Parsed structure.
    pub ast: FileAst,
    /// Whole file is test/bench/example context (path-based).
    pub is_test: bool,
    /// Line of the first `#[cfg(test)]`; everything at or after it is
    /// treated as test context (the repo convention keeps test
    /// modules at the bottom of each file).
    pub test_from_line: Option<u32>,
    /// Crate-root file (`src/lib.rs`, `src/main.rs`, `src/bin/*.rs`).
    pub is_crate_root: bool,
}

impl FileEntry {
    /// Whether `line` is test context.
    pub fn in_test(&self, line: u32) -> bool {
        self.is_test || self.test_from_line.is_some_and(|t| line >= t)
    }

    /// Whether the file belongs to a crate that feeds the study digest.
    pub fn in_digest_crate(&self) -> bool {
        self.crate_name
            .as_deref()
            .is_some_and(|c| DIGEST_CRATES.contains(&c))
    }
}

/// The cross-file view the semantic rules run against. Built once per
/// lint run (pass 1), consumed by every file's pass-2 checks.
#[derive(Debug, Default)]
pub struct Workspace {
    /// All parsed files, in walk order.
    pub files: Vec<FileEntry>,
    /// Non-test function symbols across the workspace, as (file
    /// index, index into that file's `ast.fns`).
    pub fns: Vec<(usize, usize)>,
    /// Function name → symbol ids (for call resolution).
    pub by_name: BTreeMap<String, Vec<usize>>,
    /// `(file, ast_idx)` → symbol id.
    pub fn_ids: BTreeMap<(usize, usize), usize>,
    /// Declared environment variable names (`KNOWN_VARS` in
    /// [`ENV_REGISTRY_FILE`]); empty set disables the `env-name` rule.
    pub known_env_vars: BTreeSet<String>,
    /// Declared metric names (`METRIC_NAMES` in
    /// [`NAME_REGISTRY_FILE`]); empty disables that half of
    /// `name-registry`.
    pub metric_names: BTreeSet<String>,
    /// Declared span/tick frame names (`SPAN_NAMES`); entries ending
    /// in `:` are dynamic-label prefixes (`link:` covers `link:uplink`).
    pub span_names: BTreeSet<String>,
    /// Crate → path-dependency crates, parsed from `crates/*/Cargo.toml`
    /// by the engine. Call resolution refuses cross-crate edges the
    /// manifest graph cannot carry (a `.build()` in `pq-transport` can
    /// never land in `pq-lint` — nothing depends on the linter). Empty
    /// (single-file lints, fixtures without manifests) disables the
    /// filter.
    pub crate_deps: BTreeMap<String, BTreeSet<String>>,
}

impl Workspace {
    /// Build the symbol table from parsed files. Test files and
    /// functions inside `#[cfg(test)]` regions do not become symbols:
    /// they neither emit nor receive call-graph edges.
    pub fn build(files: Vec<FileEntry>) -> Workspace {
        let mut ws = Workspace {
            files,
            ..Workspace::default()
        };
        for (fi, file) in ws.files.iter().enumerate() {
            for (ai, f) in file.ast.fns.iter().enumerate() {
                if file.in_test(f.line) {
                    continue;
                }
                let id = ws.fns.len();
                ws.fns.push((fi, ai));
                ws.by_name.entry(f.name.clone()).or_default().push(id);
                ws.fn_ids.insert((fi, ai), id);
            }
            for set in &file.ast.const_sets {
                let dst = match (file.rel_path.as_str(), set.name.as_str()) {
                    (ENV_REGISTRY_FILE, "KNOWN_VARS") => &mut ws.known_env_vars,
                    (NAME_REGISTRY_FILE, "METRIC_NAMES") => &mut ws.metric_names,
                    (NAME_REGISTRY_FILE, "SPAN_NAMES") => &mut ws.span_names,
                    _ => continue,
                };
                dst.extend(set.values.iter().cloned());
            }
        }
        ws
    }

    /// The `FnDef` behind a symbol id.
    pub fn def(&self, id: usize) -> &crate::ast::FnDef {
        let (file, ast_idx) = self.fns[id];
        &self.files[file].ast.fns[ast_idx]
    }

    /// Workspace-relative path of a symbol's file.
    pub fn path_of(&self, id: usize) -> &str {
        &self.files[self.fns[id].0].rel_path
    }

    /// Crate of a symbol's file.
    pub fn crate_of(&self, id: usize) -> Option<&str> {
        self.files[self.fns[id].0].crate_name.as_deref()
    }

    /// Whether a call from crate `from` can reach a function defined
    /// in crate `to` under the manifest dependency graph. Permissive
    /// on missing information: no dep map at all, a caller or callee
    /// outside `crates/`, or a crate without a parsed manifest all
    /// allow the edge.
    pub fn may_call(&self, from: Option<&str>, to: Option<&str>) -> bool {
        match (from, to) {
            (Some(from), Some(to)) if from != to => self
                .crate_deps
                .get(from)
                .is_none_or(|deps| deps.contains(to)),
            _ => true,
        }
    }

    /// A declared span name covers a literal (or format-literal
    /// prefix) if it matches exactly, or if the declared entry is a
    /// dynamic-label prefix (trailing `:`) that the literal extends.
    pub fn span_name_ok(&self, lit: &str) -> bool {
        self.span_names.contains(lit)
            || self
                .span_names
                .iter()
                .any(|d| d.ends_with(':') && lit.starts_with(d.as_str()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entry(rel: &str, src: &str) -> FileEntry {
        crate::engine::parse_file(rel, src).0
    }

    #[test]
    fn symbols_skip_cfg_test_regions() {
        let ws = Workspace::build(vec![entry(
            "crates/core/src/x.rs",
            "fn real() {}\n#[cfg(test)]\nmod tests { fn helper() {} }",
        )]);
        assert!(ws.by_name.contains_key("real"));
        assert!(!ws.by_name.contains_key("helper"));
    }

    #[test]
    fn registries_parse_from_declared_files() {
        let ws = Workspace::build(vec![
            entry(
                ENV_REGISTRY_FILE,
                "pub const KNOWN_VARS: &[&str] = &[\"PQ_SEED\", \"PQ_JOBS\"];",
            ),
            entry(
                NAME_REGISTRY_FILE,
                "pub const METRIC_NAMES: &[&str] = &[\"web.pageloads\"];\n\
                 pub const SPAN_NAMES: &[&str] = &[\"event:arrival\", \"link:\"];",
            ),
        ]);
        assert!(ws.known_env_vars.contains("PQ_SEED"));
        assert!(ws.metric_names.contains("web.pageloads"));
        assert!(ws.span_name_ok("event:arrival"));
        assert!(ws.span_name_ok("link:uplink"));
        assert!(ws.span_name_ok("link:"));
        assert!(!ws.span_name_ok("event:unknown"));
    }

    #[test]
    fn same_const_name_elsewhere_is_ignored() {
        let ws = Workspace::build(vec![entry(
            "crates/core/src/x.rs",
            "pub const KNOWN_VARS: &[&str] = &[\"NOT_A_REGISTRY\"];",
        )]);
        assert!(ws.known_env_vars.is_empty());
    }
}
