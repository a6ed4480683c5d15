//! Fixture: a crate root without `#![forbid(unsafe_code)]` inside a
//! nested workspace. Linted as part of the outer workspace it would be
//! one `unsafe` finding; the walk must not reach it.

pub fn outside_the_workspace() -> u32 {
    7
}
