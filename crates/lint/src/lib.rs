//! # pq-lint — the workspace invariants clippy cannot express
//!
//! The pipeline's central correctness property — study digests
//! bit-identical across `PQ_JOBS` worker counts and fault seeds — is a
//! *code* property. Most of it is one-expression checks, and clippy
//! enforces those from the root `clippy.toml` (no `HashMap`/`HashSet`,
//! wall clock, raw RNG construction, raw file writes or env reads
//! outside the sanctioned sites) and the digest crates' `[lints]`
//! tables (no `unwrap`, `expect`, panics or bare indexing).
//!
//! This crate keeps the rules that need a whole-workspace view. It
//! tokenizes every workspace `.rs` file with a small hand-rolled lexer
//! ([`lexer`]), parses the token stream into a lightweight AST
//! ([`ast`]), builds a workspace symbol table ([`symbols`]) and a
//! conservative call graph ([`callgraph`]), then runs the registry
//! ([`rules`]):
//!
//! | rule | invariant |
//! |------|-----------|
//! | `float-flow` | float accumulation in a digest crate never depends on pq-par chunk placement, across files |
//! | `env-name` | every env var read through `pq_obs::env` is declared in `KNOWN_VARS` |
//! | `name-registry` | every metric / span literal is declared in `METRIC_NAMES` / `SPAN_NAMES` |
//! | `unsafe` | every crate root, binaries included, carries `#![forbid(unsafe_code)]` |
//! | `suppression` | pq-lint's own suppressions name known rules and give a reason |
//!
//! Findings are reported as `file:line:col` with the offending span.
//! Inline suppression is `// pq-lint: allow(float-flow) -- reason`
//! with a **mandatory** reason; `cargo run -p pq-lint -- --deny` fails
//! on any unsuppressed finding. See [`engine`] for the semantics.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod ast;
pub mod callgraph;
pub mod engine;
pub mod lexer;
pub mod rules;
pub mod symbols;

pub use engine::{lint_source, run, workspace_files, Report};
pub use rules::{Finding, RuleInfo, RULES};
