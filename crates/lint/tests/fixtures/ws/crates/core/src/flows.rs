//! Fixture: a float `.sum()` reachable from the pq-par fan-out in
//! `crates/bench/src/sweep.rs` — the cross-file edge only the call
//! graph can see — with a validly suppressed twin.

pub fn average(vals: &[f64]) -> f64 {
    let total: f64 = vals.iter().sum();
    total / vals.len() as f64
}

pub fn average_ok(vals: &[f64]) -> f64 {
    // pq-lint: allow(float-flow) -- fixture: partials combined in index order
    let total: f64 = vals.iter().sum();
    total / vals.len() as f64
}
