//! Fixture: registry violations — an env knob missing from
//! `KNOWN_VARS` and a span frame missing from `SPAN_NAMES` — each with
//! a validly suppressed twin, plus a prefix-covered dynamic frame.

pub fn knobs() -> usize {
    let bad = pq_obs::env::var("PQ_UNREGISTERED").map(|v| v.len()).unwrap_or(0);
    // pq-lint: allow(env-name) -- fixture: knob registered in a sibling change
    let ok = pq_obs::env::var("PQ_NOT_YET").map(|v| v.len()).unwrap_or(0);
    bad + ok
}

pub fn frames() {
    let _a = pq_prof::span("unregistered:frame");
    // pq-lint: allow(name-registry) -- fixture: frame declared downstream
    let _b = pq_prof::span("also:unregistered");
    let _c = pq_prof::span("link:uplink");
}
