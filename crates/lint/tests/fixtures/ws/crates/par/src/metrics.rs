//! Fixture: an undeclared metric name in a non-digest crate — the
//! registry rules apply everywhere.

pub fn jobs(n: usize) -> usize {
    reg.counter_add("Jobs", 1);
    n
}
