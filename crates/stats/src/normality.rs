//! Normality testing — the paper keeps mean+CI for the lab/µWorker
//! votes ("the lab as well as the µWorker data is normally
//! distributed") but falls back to medians for the Internet group
//! ("Internet values are not normally distributed"). We use the
//! Jarque–Bera omnibus test (skewness + kurtosis).

use crate::desc::{excess_kurtosis, skewness};
use crate::dist::chi2_cdf;

/// Result of a Jarque–Bera normality test.
#[derive(Clone, Copy, Debug)]
pub struct JarqueBera {
    /// The JB statistic.
    pub statistic: f64,
    /// Asymptotic p-value (χ², 2 df).
    pub p: f64,
}

impl JarqueBera {
    /// Is the sample plausibly normal at the given significance level
    /// (e.g. `0.01` → reject when p < 0.01)?
    pub fn is_normal_at(&self, alpha: f64) -> bool {
        self.p >= alpha
    }
}

/// Jarque–Bera test. Returns `None` for samples too small to say
/// anything (n < 8).
pub fn jarque_bera(xs: &[f64]) -> Option<JarqueBera> {
    let n = xs.len();
    if n < 8 {
        return None;
    }
    let s = skewness(xs);
    let k = excess_kurtosis(xs);
    let jb = n as f64 / 6.0 * (s * s + k * k / 4.0);
    Some(JarqueBera {
        statistic: jb,
        p: 1.0 - chi2_cdf(jb, 2.0),
    })
}

#[cfg(test)]
#[allow(
    clippy::disallowed_methods,
    reason = "tests seed their own RNG streams with fixed literals"
)]
mod tests {
    use super::*;
    use pq_sim::SimRng;

    #[test]
    fn gaussian_sample_passes() {
        let mut rng = SimRng::new(5);
        let xs: Vec<f64> = (0..2000).map(|_| rng.normal_with(50.0, 8.0)).collect();
        let jb = jarque_bera(&xs).unwrap();
        assert!(jb.is_normal_at(0.01), "JB {} p {}", jb.statistic, jb.p);
    }

    #[test]
    fn heavy_tailed_sample_fails() {
        let mut rng = SimRng::new(7);
        // Log-normal is strongly right-skewed.
        let xs: Vec<f64> = (0..2000).map(|_| rng.lognormal(0.0, 1.0)).collect();
        let jb = jarque_bera(&xs).unwrap();
        assert!(!jb.is_normal_at(0.01), "JB {} p {}", jb.statistic, jb.p);
    }

    #[test]
    fn bimodal_mixture_fails() {
        let mut rng = SimRng::new(9);
        let xs: Vec<f64> = (0..2000)
            .map(|i| {
                if i % 2 == 0 {
                    rng.normal_with(10.0, 1.0)
                } else {
                    rng.normal_with(60.0, 1.0)
                }
            })
            .collect();
        let jb = jarque_bera(&xs).unwrap();
        assert!(!jb.is_normal_at(0.01), "kurtosis of a bimodal mixture");
    }

    #[test]
    fn tiny_samples_are_inconclusive() {
        assert!(jarque_bera(&[1.0, 2.0, 3.0]).is_none());
    }
}
