//! Fixture: the firing cases of the pq-lint rules that clippy took
//! over. A line ending in `//~ <rule>: <lint>[, <lint>…]` must draw
//! exactly those clippy lints; every other line must draw none. The
//! rule names are the retired pq-lint rules each case used to trip.

use std::collections::{HashMap, HashSet}; //~ hash: disallowed_types, disallowed_types
use std::time::{Instant, SystemTime};

use pq_fault::FaultRng;
use pq_sim::SimRng;

pub fn hash(m: &HashMap<u32, u32>, s: &HashSet<u32>) -> usize { //~ hash: disallowed_types, disallowed_types
    m.len() + s.len()
}

pub type Counts = HashMap<u32, u32>; //~ hash-flow: disallowed_types

pub fn histogram(vals: &[u32]) -> HashMap<u32, u32> { //~ hash-flow: disallowed_types
    let mut m = HashMap::new(); //~ hash-flow: disallowed_types
    for &v in vals {
        *m.entry(v).or_insert(0) += 1;
    }
    m
}

pub fn wall_clock() -> u128 {
    let t = Instant::now(); //~ time: disallowed_methods
    let s = SystemTime::now(); //~ time: disallowed_methods
    let _ = std::hash::RandomState::new(); //~ time: disallowed_types
    t.elapsed().as_nanos() + s.elapsed().map_or(0, |d| d.as_nanos())
}

pub fn raw_rngs() -> f64 {
    let mut a = SimRng::new(7); //~ rng: disallowed_methods
    let mut b = FaultRng::new(7); //~ rng: disallowed_methods
    a.f64() + b.f64()
}

pub fn raw_writes() -> std::io::Result<()> {
    std::fs::write("results/manifest.json", b"{}")?; //~ results-io: disallowed_methods
    let _f = std::fs::File::create("results/a.json")?; //~ results-io: disallowed_methods
    let _h = std::fs::OpenOptions::new().append(true).open("results/h.jsonl")?; //~ results-io: disallowed_methods
    Ok(())
}

pub fn raw_env() -> usize {
    use std::env;
    let a = std::env::var("PQ_JOBS").map_or(0, |v| v.len()); //~ env: disallowed_methods
    let b = env::var_os("PQ_SEED").map_or(0, |v| v.len()); //~ env: disallowed_methods
    a + b + env::vars().count() //~ env: disallowed_methods
}

pub fn unwraps(x: Option<u32>, r: Result<u32, ()>) -> u32 {
    x.unwrap() + r.expect("ok") //~ panic: unwrap_used, expect_used
}

pub fn aborts(k: u8) -> u32 {
    match k {
        0 => panic!("no"), //~ panic: panic
        1 => unreachable!(), //~ panic: unreachable
        2 => todo!(), //~ panic: todo
        _ => unimplemented!(), //~ panic: unimplemented
    }
}

pub fn indexing(v: &[u32], i: usize) -> u32 {
    v[i] + v[1..].len() as u32 //~ index: indexing_slicing, indexing_slicing
}

#[cfg(test)]
mod tests {
    // Test code is exempt from the panic and index rules, as before.
    #[test]
    fn exempt() {
        let v: Vec<u32> = (1..3).collect();
        let first = v.first().copied();
        assert_eq!(v[0] + v[1..].len() as u32, first.unwrap() + 1);
        assert_eq!(first.expect("non-empty"), 1);
        if v.is_empty() {
            panic!("never");
        }
    }
}
