//! Fixture name registry: the `METRIC_NAMES` / `SPAN_NAMES` sets the
//! `name-registry` rule enforces. `link:` (trailing colon) is
//! a dynamic-label prefix covering `link:uplink` etc.

pub const METRIC_NAMES: &[&str] = &["core.good_metric", "web.pageloads"];

pub const SPAN_NAMES: &[&str] = &["event:arrival", "link:"];
