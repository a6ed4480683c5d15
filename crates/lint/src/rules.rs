//! The rule registry: the workspace invariants clippy cannot express.
//!
//! Everything a lint can say from one expression — hash containers,
//! wall-clock reads, raw RNG construction, raw file writes and env
//! reads, panics and bare indexing — lives in the root `clippy.toml`
//! and the digest crates' `[lints]` tables. What is left here needs a
//! whole-workspace view:
//!
//! * `float-flow` — a float `.sum()` in a digest crate whose order can
//!   depend on pq-par chunk placement, found through the
//!   [`crate::callgraph`] across files;
//! * `env-name` / `name-registry` — every env var, metric and span
//!   literal matches a registry declared in the linted source itself
//!   ([`crate::symbols`]);
//! * `unsafe` — every crate root, binaries included, forbids unsafe
//!   code (the compiler only enforces the attribute where it is
//!   written);
//! * `suppression` — pq-lint's own suppression comments are well
//!   formed.

use crate::ast::skip_turbofish;
use crate::callgraph::CallGraph;
use crate::lexer::{Tok, TokKind};
use crate::symbols::{FileEntry, Workspace};

/// Crates whose output feeds the study digest: any nondeterminism
/// here invalidates every recorded baseline.
pub const DIGEST_CRATES: &[&str] = &["core", "edge", "sim", "transport", "web"];

/// Static description of one rule.
#[derive(Clone, Copy, Debug)]
pub struct RuleInfo {
    /// Stable id used in suppressions (`float-flow`, `unsafe`, …).
    pub name: &'static str,
    /// One-line description for `--rules` and the README table.
    pub what: &'static str,
}

/// The registry, in reporting order.
pub const RULES: &[RuleInfo] = &[
    RuleInfo {
        name: "float-flow",
        what: ".sum() in a digest-crate function that a pq-par fan-out reaches (in \
               this file or through the call graph); accumulation order must not \
               depend on chunk placement (integer turbofish sums are exempt)",
    },
    RuleInfo {
        name: "unsafe",
        what: "crate root missing #![forbid(unsafe_code)]",
    },
    RuleInfo {
        name: "env-name",
        what: "pq_obs::env read of a variable not declared in KNOWN_VARS \
               (crates/obs/src/env.rs); every knob must be registered",
    },
    RuleInfo {
        name: "name-registry",
        what: "metric or span/tick literal not declared in METRIC_NAMES/SPAN_NAMES \
               (crates/obs/src/names.rs); dashboards and profiles must never reference \
               a name the registry does not know",
    },
    RuleInfo {
        name: "suppression",
        what: "malformed pq-lint suppression (unknown rule name or missing '-- <reason>')",
    },
];

/// Look up a rule by name.
pub fn rule(name: &str) -> Option<&'static RuleInfo> {
    RULES.iter().find(|r| r.name == name)
}

/// One raw finding inside a single file (the engine adds the path and
/// applies suppressions).
#[derive(Clone, Debug)]
pub struct Finding {
    /// Rule id.
    pub rule: &'static str,
    /// 1-based line.
    pub line: u32,
    /// 1-based column.
    pub col: u32,
    /// The offending span, verbatim.
    pub snippet: String,
    /// Human explanation.
    pub message: String,
}

/// Line of the first `#[cfg(test)]` attribute in `toks`, if any.
pub fn first_cfg_test_line(toks: &[Tok]) -> Option<u32> {
    let pat = ["#", "[", "cfg", "(", "test", ")", "]"];
    toks.windows(pat.len())
        .find(|w| w.iter().zip(pat).all(|(t, p)| t.text == p))
        .map(|w| w[0].line)
}

/// Run every rule over one file, given the workspace symbol table and
/// the propagated call graph. `file_idx` indexes `ws.files`.
pub fn check(ws: &Workspace, file_idx: usize, g: &CallGraph) -> Vec<Finding> {
    let mut out = Vec::new();
    let ctx = &ws.files[file_idx];
    rule_float_flow(ctx, file_idx, ws, g, &mut out);
    rule_unsafe(ctx, &mut out);
    rule_env_name(ctx, ws, &mut out);
    rule_name_registry(ctx, ws, &mut out);
    out.sort_by(|a, b| (a.line, a.col, a.rule).cmp(&(b.line, b.col, b.rule)));
    out
}

fn push(out: &mut Vec<Finding>, rule: &'static str, t: &Tok, snippet: String, message: String) {
    out.push(Finding {
        rule,
        line: t.line,
        col: t.col,
        snippet,
        message,
    });
}

/// `float-flow`: `.sum()` in a digest-crate function that runs under a
/// pq-par fan-out — either its file fans out itself, or the call graph
/// reaches it from a fan-out elsewhere.
fn rule_float_flow(
    ctx: &FileEntry,
    file_idx: usize,
    ws: &Workspace,
    g: &CallGraph,
    out: &mut Vec<Finding>,
) {
    if !ctx.in_digest_crate() {
        return;
    }
    let file_fans_out = ctx.tokens.iter().any(|t| {
        t.kind == TokKind::Ident
            && matches!(
                t.text.as_str(),
                "par_map" | "par_map_indexed" | "try_par_map"
            )
            && !ctx.in_test(t.line)
    });
    for (ai, f) in ctx.ast.fns.iter().enumerate() {
        let Some(&fid) = ws.fn_ids.get(&(file_idx, ai)) else {
            continue;
        };
        let why = if g.par_reachable[fid] {
            g.chain_desc(ws, fid)
        } else if file_fans_out {
            "this file fans out over pq-par".to_string()
        } else {
            continue;
        };
        for s in f.sums.iter().filter(|s| !ctx.in_test(s.line)) {
            out.push(Finding {
                rule: "float-flow",
                line: s.line,
                col: s.col,
                snippet: ".sum()".into(),
                message: format!(
                    "{why}: float accumulation order must not depend on chunk \
                     placement — sum inside one cell or combine partials in index \
                     order, or pin an integer turbofish if the elements are integral"
                ),
            });
        }
    }
}

/// Does the token window starting at `i` match `pat` textually?
fn matches_at(toks: &[Tok], i: usize, pat: &[&str]) -> bool {
    toks.len() >= i + pat.len() && pat.iter().zip(&toks[i..]).all(|(p, t)| t.text == *p)
}

/// `unsafe`: crate roots must carry `#![forbid(unsafe_code)]`.
fn rule_unsafe(ctx: &FileEntry, out: &mut Vec<Finding>) {
    if !ctx.is_crate_root {
        return;
    }
    let pat = ["#", "!", "[", "forbid", "(", "unsafe_code", ")", "]"];
    let found = (0..ctx.tokens.len()).any(|i| matches_at(&ctx.tokens, i, &pat));
    if !found {
        out.push(Finding {
            rule: "unsafe",
            line: 1,
            col: 1,
            snippet: ctx.rel_path.clone(),
            message: "crate root lacks #![forbid(unsafe_code)]; the workspace is \
                      100% safe Rust and stays that way"
                .into(),
        });
    }
}

/// `head::callee(…)` at `i`, one of `callees`, with an optional
/// turbofish → the index of the first argument token.
fn path_call(toks: &[Tok], i: usize, head: &str, callees: &[&str]) -> Option<usize> {
    let callee = toks.get(i + 3)?;
    let (open, _) = skip_turbofish(toks, i + 4);
    (toks[i].text == head
        && matches_at(toks, i + 1, &[":", ":"])
        && callees.contains(&callee.text.as_str())
        && toks.get(open)?.text == "(")
        .then_some(open + 1)
}

/// The unquoted text of a string literal up to its first `{` (a
/// `format!` string keeps its literal prefix).
fn literal_prefix(t: &Tok) -> &str {
    let lit = t.text.trim_matches('"');
    lit.split('{').next().unwrap_or(lit)
}

/// `env-name`: literal arguments to `pq_obs::env::{var, var_os,
/// var_parsed}` must be declared in `KNOWN_VARS`. Inactive when the
/// linted workspace declares no registry.
fn rule_env_name(ctx: &FileEntry, ws: &Workspace, out: &mut Vec<Finding>) {
    if ws.known_env_vars.is_empty() {
        return;
    }
    let toks = &ctx.tokens;
    for i in 0..toks.len() {
        let Some(arg) = path_call(toks, i, "env", &["var", "var_os", "var_parsed"])
            .and_then(|a| toks.get(a))
            .filter(|a| a.kind == TokKind::Str && !ctx.in_test(a.line))
        else {
            continue;
        };
        let name = arg.text.trim_matches('"');
        if !ws.known_env_vars.contains(name) {
            let message = format!(
                "env var {name:?} is not declared in KNOWN_VARS ({}); register every \
                 knob so the config surface stays complete and greppable",
                crate::symbols::ENV_REGISTRY_FILE
            );
            push(out, "env-name", arg, arg.text.clone(), message);
        }
    }
}

/// `name-registry`: metric literals at registry sinks and frame
/// literals at `pq_prof::{span, tick, span_dyn, worker_span}` must
/// match the declared `METRIC_NAMES` / `SPAN_NAMES` sets. Each half is
/// inactive when its registry is undeclared.
fn rule_name_registry(ctx: &FileEntry, ws: &Workspace, out: &mut Vec<Finding>) {
    let toks = &ctx.tokens;
    let sinks = ["counter_add", "observe", "gauge_set", "counter", "gauge"];
    for (i, t) in toks.iter().enumerate() {
        if t.kind != TokKind::Ident || ctx.in_test(t.line) {
            continue;
        }
        // Metric sinks: `.sink("lit"…)` or `.sink(&format!("lit…"…)`.
        let is_sink = i > 0 && toks[i - 1].text == "." && sinks.contains(&t.text.as_str());
        if !ws.metric_names.is_empty() && is_sink && matches_at(toks, i + 1, &["("]) {
            let at = if matches_at(toks, i + 2, &["&", "format", "!", "("]) {
                i + 6
            } else {
                i + 2
            };
            if let Some(arg) = toks.get(at).filter(|a| a.kind == TokKind::Str) {
                let bare = literal_prefix(arg);
                if !bare.is_empty() && !ws.metric_names.contains(bare) {
                    let message = format!(
                        "metric name {bare:?} is not declared in METRIC_NAMES ({}); add \
                         it to the registry",
                        crate::symbols::NAME_REGISTRY_FILE
                    );
                    push(out, "name-registry", arg, arg.text.clone(), message);
                }
            }
        }
        // Profiler frames: the direct literal, or the first literal of
        // the dyn/worker forms.
        let frame_call = path_call(
            toks,
            i,
            "pq_prof",
            &["span", "tick", "span_dyn", "worker_span"],
        );
        let Some(first) = frame_call.filter(|_| !ws.span_names.is_empty()) else {
            continue;
        };
        let window = toks
            .get(first..toks.len().min(first + 8))
            .unwrap_or_default();
        let Some(arg) = window.iter().find(|x| x.kind == TokKind::Str) else {
            continue;
        };
        let prefix = literal_prefix(arg);
        if !prefix.is_empty() && !ws.span_name_ok(prefix) {
            let message = format!(
                "span/tick name {prefix:?} is not declared in SPAN_NAMES ({}); declare it \
                 (use a trailing-colon entry for dynamic label prefixes)",
                crate::symbols::NAME_REGISTRY_FILE
            );
            push(out, "name-registry", arg, arg.text.clone(), message);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::lint_source;

    fn rules_hit(src: &str, path: &str) -> Vec<&'static str> {
        lint_source(path, src)
            .0
            .into_iter()
            .map(|f| f.rule)
            .collect()
    }

    #[test]
    fn cfg_test_region_is_exempt() {
        let src = "fn main() {}\n#[cfg(test)]\nmod tests { \
                   fn t(v: &[f64]) -> f64 { pq_par::par_map(v, |x| *x); v.iter().sum() } }";
        assert!(rules_hit(src, "crates/web/src/x.rs").is_empty());
    }

    #[test]
    fn float_sum_requires_par_in_file() {
        let with_par = "fn f(v: &[f64]) -> f64 { pq_par::par_map(v, |x| *x); v.iter().sum() }";
        let without = "fn f(v: &[f64]) -> f64 { v.iter().sum() }";
        let ints = "fn f(v: &[u64]) -> u64 { pq_par::par_map(v, |x| *x); v.iter().sum::<u64>() }";
        assert_eq!(rules_hit(with_par, "crates/core/src/x.rs"), ["float-flow"]);
        assert!(rules_hit(without, "crates/core/src/x.rs").is_empty());
        assert!(rules_hit(ints, "crates/core/src/x.rs").is_empty());
        // Only digest crates feed the study digest.
        assert!(rules_hit(with_par, "crates/stats/src/x.rs").is_empty());
    }

    #[test]
    fn unsafe_rule_on_crate_roots_only() {
        assert_eq!(rules_hit("pub mod x;", "crates/sim/src/lib.rs"), ["unsafe"]);
        assert!(rules_hit(
            "#![forbid(unsafe_code)] pub mod x;",
            "crates/sim/src/lib.rs"
        )
        .is_empty());
        assert!(rules_hit("pub mod x;", "crates/sim/src/link.rs").is_empty());
    }

    /// Rules hit by `src` at `path`, linted next to the workspace's
    /// real name registry (whose entries pq-obs's tests hold to the
    /// naming conventions).
    fn registry_hits(src: &str, path: &str) -> Vec<&'static str> {
        let registry = include_str!("../../obs/src/names.rs");
        let (file, _) = crate::engine::parse_file(path, src);
        let (names, _) = crate::engine::parse_file(crate::symbols::NAME_REGISTRY_FILE, registry);
        let ws = Workspace::build(vec![file, names]);
        check(&ws, 0, &CallGraph::build(&ws))
            .into_iter()
            .map(|f| f.rule)
            .collect()
    }

    #[test]
    fn metric_names_must_be_dotted_lowercase() {
        let bad = "reg.counter_add(\"Pageloads\", 1); reg.observe(\"plt\", 1.0);";
        assert_eq!(
            registry_hits(bad, "crates/stats/src/x.rs"),
            ["name-registry", "name-registry"]
        );
        let good = "reg.counter_add(\"web.pageloads\", 1); reg.observe(\"web.plt_ms\", 1.0);";
        assert!(registry_hits(good, "crates/stats/src/x.rs").is_empty());
    }

    #[test]
    fn prof_frame_names_must_be_folded_safe() {
        let bad = "let _s = pq_prof::span(\"RTO retransmit\"); pq_prof::tick(\"has;semi\");";
        assert_eq!(
            registry_hits(bad, "crates/transport/src/x.rs"),
            ["name-registry", "name-registry"]
        );
        let good =
            "let _s = pq_prof::span(\"transport:rto-retransmit\"); pq_prof::tick(\"quic:rto\");";
        assert!(registry_hits(good, "crates/transport/src/x.rs").is_empty());
        // Formatted names are checked by their literal prefix (`link:`).
        let dy = "let _s = pq_prof::span_dyn(|| format!(\"link:{label}\"));";
        assert!(registry_hits(dy, "crates/sim/src/x.rs").is_empty());
    }

    #[test]
    fn prof_metric_literals_follow_the_dotted_convention() {
        // Formatted registry names are checked by the literal before
        // their `{label=...}` part.
        let bad = "reg.counter_add(&format!(\"prof.allocBytes{{w=\\\"{w}\\\"}}\"), 1);";
        assert_eq!(registry_hits(bad, "crates/obs/src/x.rs"), ["name-registry"]);
        let good = "reg.gauge_set(\"prof.alloc.peak_bytes\", 1.0); \
                    reg.counter_add(&format!(\"prof.span.count{{path=\\\"{p}\\\"}}\"), 1);";
        assert!(registry_hits(good, "crates/obs/src/x.rs").is_empty());
    }

    #[test]
    fn registry_is_consistent() {
        for r in RULES {
            assert!(rule(r.name).is_some());
            assert!(!r.what.is_empty());
        }
    }
}
