//! Fixture env funnel: declares the `KNOWN_VARS` registry the
//! `env-name` rule checks literal reads against. Its mere
//! presence (at the registry path) activates the rule for the whole
//! fixture workspace.

pub const KNOWN_VARS: &[&str] = &["PQ_FIXTURE", "PQ_JOBS", "PQ_SEED"];
