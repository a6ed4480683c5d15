//! `pq-lint` CLI — the CI gate.
//!
//! ```text
//! cargo run -p pq-lint --               # report findings (exit 0)
//! cargo run -p pq-lint -- --deny        # CI gate: exit 1 on any finding
//! cargo run -p pq-lint -- --rules       # print the rule registry
//! cargo run -p pq-lint -- --root <dir>  # lint another checkout
//! ```

#![forbid(unsafe_code)]

use pq_lint::{engine, rules};
use std::path::PathBuf;

fn main() {
    std::process::exit(real_main());
}

fn real_main() -> i32 {
    let mut deny = false;
    let mut root = PathBuf::from(".");
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--deny" => deny = true,
            "--rules" => {
                for r in rules::RULES {
                    println!("{:<14} {}", r.name, r.what);
                }
                return 0;
            }
            "--root" => root = args.next().map(PathBuf::from).unwrap_or(root),
            "--help" | "-h" => {
                println!(
                    "pq-lint — the workspace invariants clippy cannot express\n\
                     \n\
                     USAGE: pq-lint [--deny] [--rules] [--root DIR]\n\
                     \n\
                     --deny      exit 1 on any finding (the CI gate)\n\
                     --rules     print the rule registry\n\
                     --root DIR  workspace root to lint (default .)\n\
                     \n\
                     Suppress a finding with `// pq-lint: allow(<rule>) -- <reason>` on the same\n\
                     line or the line above; the reason is mandatory."
                );
                return 0;
            }
            other => {
                eprintln!("pq-lint: unknown argument {other:?} (try --help)");
                return 2;
            }
        }
    }

    let report = match engine::run(&root) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("pq-lint: walking {} failed: {e}", root.display());
            return 2;
        }
    };
    for f in &report.findings {
        println!("{}", f.render());
    }
    println!(
        "pq-lint: {} file(s), {} finding(s), {} suppressed inline",
        report.files,
        report.findings.len(),
        report.suppressed,
    );
    if !report.clean() && deny {
        eprintln!(
            "pq-lint: FAIL (--deny): fix the findings above or add a justified \
             `// pq-lint: allow(<rule>) -- <reason>`"
        );
        return 1;
    }
    0
}
