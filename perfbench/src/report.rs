//! The result of one benchmark run: the JSON line the benchmark prints
//! last, and the fuller record (stamp and per-batch samples) it can
//! write to a file for later comparison.

use pq_obs::json::Value;

/// One named measurement.
#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    /// Metric name as listed in `BENCHMARK.json`.
    pub name: String,
    /// Unit, e.g. `s`, `ms`, `1/s`, `count`, `share`.
    pub unit: String,
    /// The measured value.
    pub value: f64,
}

/// What one run reports.
#[derive(Clone, Debug, PartialEq)]
pub struct Report {
    /// Every output check passed.
    pub correct: bool,
    /// Replications attempted.
    pub attempted: u64,
    /// Replications whose checks failed.
    pub failed: u64,
    /// The measurements; empty when a check failed.
    pub metrics: Vec<Metric>,
}

impl Report {
    /// A run that failed a check: it reports the failure, not numbers.
    pub fn failure(attempted: u64) -> Report {
        Report {
            correct: false,
            attempted: attempted.max(1),
            failed: 1,
            metrics: Vec::new(),
        }
    }

    /// The result object the benchmark prints as its last line.
    pub fn to_json(&self) -> Value {
        let mut metrics = Value::obj();
        for m in &self.metrics {
            metrics.set(
                &m.name,
                Value::obj()
                    .with("value", m.value)
                    .with("unit", m.unit.as_str()),
            );
        }
        Value::obj()
            .with("correct", self.correct)
            .with("attempted", self.attempted)
            .with("failed", self.failed)
            .with("metrics", metrics)
    }

    /// Read back what [`Report::to_json`] wrote.
    pub fn from_json(v: &Value) -> Option<Report> {
        let Value::Obj(fields) = v.get("metrics")? else {
            return None;
        };
        let metrics = fields
            .iter()
            .map(|(name, m)| {
                Some(Metric {
                    name: name.clone(),
                    unit: m.get("unit")?.as_str()?.to_string(),
                    value: m.get("value")?.as_f64()?,
                })
            })
            .collect::<Option<Vec<_>>>()?;
        Some(Report {
            correct: v.get("correct")?.as_bool()?,
            attempted: v.get("attempted")?.as_u64()?,
            failed: v.get("failed")?.as_u64()?,
            metrics,
        })
    }

    /// Value of the metric called `name`.
    pub fn value(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|m| m.name == name)
            .map(|m| m.value)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_round_trips_through_its_printed_line() {
        let r = Report {
            correct: true,
            attempted: 42,
            failed: 0,
            metrics: vec![
                Metric {
                    name: "wall_s".into(),
                    unit: "s".into(),
                    value: 0.412_345_678_901_234_5,
                },
                Metric {
                    name: "sim.events".into(),
                    unit: "count".into(),
                    value: 2_159_026.0,
                },
                Metric {
                    name: "trace.overhead_share".into(),
                    unit: "share".into(),
                    value: -0.003_1,
                },
            ],
        };
        let line = r.to_json().to_string();
        assert!(!line.contains('\n'));
        assert!(line.starts_with(r#"{"correct":true,"attempted":42,"failed":0,"metrics":{"#));
        let back = Report::from_json(&Value::parse(&line).expect("valid JSON"));
        // Every digit survives the trip.
        assert_eq!(back.as_ref(), Some(&r));
        assert_eq!(back.and_then(|b| b.value("sim.events")), Some(2_159_026.0));
    }

    #[test]
    fn failure_reports_no_numbers() {
        let f = Report::failure(0);
        assert!(!f.correct && f.metrics.is_empty());
        assert_eq!((f.attempted, f.failed), (1, 1));
        let back = Report::from_json(&Value::parse(&f.to_json().to_string()).unwrap());
        assert_eq!(back, Some(f));
    }
}
