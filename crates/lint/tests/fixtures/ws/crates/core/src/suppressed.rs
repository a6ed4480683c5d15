//! Fixture: the float-flow shapes, every one validly suppressed (so
//! the engine reports zero findings and two suppressions).

pub fn f(v: &[f64]) -> f64 {
    pq_par::par_map(v, |x| *x);
    // pq-lint: allow(float-flow) -- fixture: partials combined in index order
    let a: f64 = v.iter().sum();
    let b: f64 = v.iter().sum(); // pq-lint: allow(all) -- fixture: ditto
    a + b
}
