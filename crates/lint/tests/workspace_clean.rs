//! The self-test: the workspace must lint clean. This is the same
//! verdict `cargo run -p pq-lint -- --deny` gates CI on, so a
//! violation fails `cargo test` too — you cannot merge code that the
//! gate would reject. (`tests/clippy.rs` does the same for clippy.)

use pq_lint::engine;
use std::path::Path;

#[test]
fn workspace_is_clean() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let report = engine::run(&root).expect("workspace walk");
    assert!(
        report.files > 50,
        "walk found too few files: {}",
        report.files
    );
    let rendered: Vec<String> = report.findings.iter().map(|f| f.render()).collect();
    assert!(
        report.clean(),
        "pq-lint is not clean: {} finding(s)\n{}\nfix the findings or add a justified \
         `// pq-lint: allow(<rule>) -- <reason>`",
        report.findings.len(),
        rendered.join("\n"),
    );
}
