//! Fixture: a digest-crate root with one hit for every pq-lint rule.
//! Never compiled; the lint only lexes it.

pub fn typical(v: &[f64]) -> f64 {
    pq_par::par_map(v, |x| *x);
    let s: f64 = v.iter().sum();
    let knob = pq_obs::env::var("PQ_UNDECLARED");
    reg.counter_add("BadName", 1);
    // pq-lint: allow(float-flow)
    s + knob.len() as f64
}
