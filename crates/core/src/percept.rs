//! The psychometric perception model.
//!
//! A participant's percept of a loading process is a weighted blend of
//! the video's technical metrics in *log-time* (Weber–Fechner: humans
//! judge duration ratios, not differences), plus per-viewing
//! observation noise. The A/B study then applies a just-noticeable-
//! difference threshold to the percept difference; the rating study
//! maps the percept through a log-MOS curve onto the paper's 10–70
//! scale.

use crate::calib;
use crate::participant::Participant;
use pq_metrics::MetricSet;
use pq_sim::SimRng;

/// Noise-free log-percept of a recording for a given participant:
/// `Σ wᵢ · ln(metricᵢ)` over (SI, FVC, LVC), in log-milliseconds.
pub fn log_percept(p: &Participant, m: &MetricSet) -> f64 {
    let si = m.si_ms.max(1.0);
    let fvc = m.fvc_ms.max(1.0);
    let lvc = m.lvc_ms.max(1.0);
    p.w[0] * si.ln() + p.w[1] * fvc.ln() + p.w[2] * lvc.ln()
}

/// One noisy viewing of a recording.
pub fn observe(p: &Participant, m: &MetricSet, rng: &mut SimRng) -> f64 {
    log_percept(p, m) + rng.normal_with(0.0, p.obs_noise)
}

/// The base rating (before context, taste, bias and noise) for a
/// percept: the log-MOS curve on the 10–70 scale.
pub fn base_rating(log_percept_ms: f64) -> f64 {
    // Convert log-ms to log-seconds inside the curve.
    let ln_secs = log_percept_ms - 1000f64.ln();
    calib::RATE_A - calib::RATE_B * ln_secs
}

/// Clamp a rating onto the paper's continuous 10–70 voting scale.
pub fn clamp_vote(v: f64) -> f64 {
    v.clamp(10.0, 70.0)
}

/// The seven scale labels (ITU-T P.851-style 7-point linear scale,
/// "extremely bad" at 10 … "ideal" at 70).
pub fn scale_label(vote: f64) -> &'static str {
    match vote {
        v if v < 15.0 => "extremely bad",
        v if v < 25.0 => "bad",
        v if v < 35.0 => "poor",
        v if v < 45.0 => "fair",
        v if v < 55.0 => "good",
        v if v < 65.0 => "excellent",
        _ => "ideal",
    }
}

#[cfg(test)]
#[allow(
    clippy::disallowed_methods,
    reason = "tests seed their own RNG streams with fixed literals"
)]
mod tests {
    use super::*;
    use crate::participant::Group;

    fn participant() -> Participant {
        let mut rng = SimRng::new(1);
        Participant::sample(Group::Lab, 0, &mut rng)
    }

    fn metrics(si: f64) -> MetricSet {
        MetricSet {
            fvc_ms: si * 0.4,
            si_ms: si,
            vc85_ms: si * 1.1,
            lvc_ms: si * 1.5,
            plt_ms: si * 1.8,
        }
    }

    #[test]
    fn faster_pages_have_smaller_percepts() {
        let p = participant();
        let fast = log_percept(&p, &metrics(800.0));
        let slow = log_percept(&p, &metrics(8000.0));
        assert!(fast < slow);
        // Log domain: a 10× slowdown moves the percept by ln(10).
        assert!((slow - fast - 10f64.ln()).abs() < 1e-9);
    }

    #[test]
    fn observation_noise_averages_out() {
        let p = participant();
        let m = metrics(2000.0);
        let mut rng = SimRng::new(3);
        let n = 5000;
        let mean: f64 = (0..n).map(|_| observe(&p, &m, &mut rng)).sum::<f64>() / n as f64;
        assert!((mean - log_percept(&p, &m)).abs() < 0.01);
    }

    #[test]
    fn base_rating_descends_with_si() {
        let fast = base_rating(metrics(1000.0).si_ms.ln());
        let slow = base_rating(metrics(30_000.0).si_ms.ln());
        assert!(fast > slow);
        assert!(
            (fast - calib::RATE_A).abs() < 1e-9,
            "1 s SI sits at the anchor"
        );
    }

    #[test]
    fn votes_clamped_to_scale() {
        assert_eq!(clamp_vote(200.0), 70.0);
        assert_eq!(clamp_vote(-5.0), 10.0);
        assert_eq!(clamp_vote(42.0), 42.0);
    }

    #[test]
    fn scale_labels_cover_the_axis() {
        assert_eq!(scale_label(10.0), "extremely bad");
        assert_eq!(scale_label(20.0), "bad");
        assert_eq!(scale_label(30.0), "poor");
        assert_eq!(scale_label(40.0), "fair");
        assert_eq!(scale_label(50.0), "good");
        assert_eq!(scale_label(60.0), "excellent");
        assert_eq!(scale_label(70.0), "ideal");
    }

    #[test]
    fn degenerate_metrics_do_not_panic() {
        let p = participant();
        let zero = MetricSet {
            fvc_ms: 0.0,
            si_ms: 0.0,
            vc85_ms: 0.0,
            lvc_ms: 0.0,
            plt_ms: 0.0,
        };
        assert!(log_percept(&p, &zero).is_finite());
    }
}
