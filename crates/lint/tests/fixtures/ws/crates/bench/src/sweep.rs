//! Fixture: the pq-par fan-out whose chunk placement makes the float
//! accumulation order in `flows.rs` digest-relevant — `float-flow`
//! follows the call into another crate's file.

pub fn sweep(cells: &[f64]) -> f64 {
    let parts = pq_par::par_map(cells, |c| *c);
    average(&parts) + average_ok(&parts)
}
