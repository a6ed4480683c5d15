//! The machine and configuration a result was measured on, and the
//! rule that two results may only be compared when those match.

use pq_obs::json::Value;

/// Where and how a run was made.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Stamp {
    /// Logical CPUs available to the process.
    pub nproc: usize,
    /// CPU model from `/proc/cpuinfo`.
    pub cpu_model: String,
    /// Compiler that built the benchmark.
    pub rustc: String,
    /// Worker count of the pool (`PQ_JOBS`).
    pub jobs: usize,
    /// Source revision, or `unknown` outside a git checkout.
    pub git_rev: String,
    /// Workload name.
    pub workload: String,
    /// Seed of the run.
    pub seed: u64,
    /// Seconds of timed work.
    pub seconds: u64,
    /// Whether this was the traced run.
    pub trace: bool,
}

/// Fields that must agree before two results may be compared: the
/// machine, the toolchain and the configuration. Seed and revision may
/// differ; comparing revisions is the point.
const MUST_MATCH: [&str; 7] = [
    "nproc",
    "cpu_model",
    "rustc",
    "jobs",
    "workload",
    "seconds",
    "trace",
];

impl Stamp {
    /// Stamp a run of `workload` on this machine.
    pub fn here(workload: &str, seed: u64, seconds: u64, trace: bool, jobs: usize) -> Stamp {
        Stamp {
            nproc: pq_par::available_jobs(),
            cpu_model: cpu_model(),
            rustc: env!("PQPERF_RUSTC").to_string(),
            jobs,
            git_rev: git_rev(),
            workload: workload.to_string(),
            seed,
            seconds,
            trace,
        }
    }

    /// As a JSON object.
    pub fn to_json(&self) -> Value {
        Value::obj()
            .with("nproc", self.nproc)
            .with("cpu_model", self.cpu_model.as_str())
            .with("rustc", self.rustc.as_str())
            .with("jobs", self.jobs)
            .with("git_rev", self.git_rev.as_str())
            .with("workload", self.workload.as_str())
            .with("seed", self.seed)
            .with("seconds", self.seconds)
            .with("trace", self.trace)
    }
}

/// Refuse to compare results made on different machines or
/// configurations; the error names every field that differs.
pub fn comparable(a: &Value, b: &Value) -> Result<(), String> {
    let differing: Vec<String> = MUST_MATCH
        .iter()
        .filter(|k| a.get(k) != b.get(k))
        .map(|k| {
            let show = |v: &Value| v.get(k).map_or("missing".to_string(), |x| x.to_string());
            format!("{k}: {} vs {}", show(a), show(b))
        })
        .collect();
    if differing.is_empty() {
        Ok(())
    } else {
        Err(format!(
            "results are not comparable ({})",
            differing.join("; ")
        ))
    }
}

/// Check a requested worker count against the machine: more workers
/// than CPUs measures the scheduler, not the program.
pub fn check_jobs(jobs: usize, nproc: usize) -> Result<usize, String> {
    if jobs == 0 || jobs > nproc {
        Err(format!(
            "PQ_JOBS={jobs} must be between 1 and nproc={nproc}"
        ))
    } else {
        Ok(jobs)
    }
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|text| {
            text.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, m)| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string())
}

fn git_rev() -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "--short", "HEAD"])
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .unwrap_or_else(|| "unknown".to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stamp() -> Stamp {
        Stamp {
            nproc: 2,
            cpu_model: "Test CPU".into(),
            rustc: "rustc 1.0.0".into(),
            jobs: 2,
            git_rev: "abc1234".into(),
            workload: "study".into(),
            seed: 7,
            seconds: 20,
            trace: false,
        }
    }

    #[test]
    fn comparisons_across_machines_or_configurations_are_refused() {
        let a = stamp();
        let mut other_seed = a.clone();
        other_seed.seed = 8;
        other_seed.git_rev = "def5678".into();
        assert!(comparable(&a.to_json(), &other_seed.to_json()).is_ok());
        let mut other_cpu = a.clone();
        other_cpu.cpu_model = "Other CPU".into();
        other_cpu.jobs = 1;
        let err = comparable(&a.to_json(), &other_cpu.to_json()).unwrap_err();
        assert!(err.contains("cpu_model") && err.contains("jobs"), "{err}");
    }

    #[test]
    fn jobs_beyond_nproc_are_refused() {
        assert_eq!(check_jobs(2, 2), Ok(2));
        assert!(check_jobs(4, 2).is_err());
        assert!(check_jobs(0, 2).is_err());
    }
}
