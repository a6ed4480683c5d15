//! Study 2 (Rating): "Do users care?" — the single-video rating study
//! of §4, Figure 5.
//!
//! One video plays in isolation; the participant rates (i) their
//! satisfaction with the loading speed and (ii) the general quality of
//! the loading process, both on the continuous 10–70 scale. A context
//! anchor frames the session: at work, in their free time, or on a
//! plane (the plane environment only uses the two in-flight networks).

use crate::calib;
use crate::participant::Group;
use crate::percept;
use crate::session::Session;
use crate::stimulus::StimulusSet;
use pq_sim::{NetworkKind, SimRng};
use pq_transport::Protocol;
use std::collections::BTreeMap;

/// The framing environment of a rating block (§4: "imaging being i) at
/// work, ii) in their free time, or iii) on a plane").
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Environment {
    /// At work.
    Work,
    /// In their free time.
    FreeTime,
    /// On a plane (in-flight networks only).
    Plane,
}

impl Environment {
    /// All environments.
    pub const ALL: [Environment; 3] =
        [Environment::Work, Environment::FreeTime, Environment::Plane];

    /// Index into calibration tables.
    pub fn idx(self) -> usize {
        self as usize
    }

    /// Display name.
    pub fn name(self) -> &'static str {
        match self {
            Environment::Work => "At Work",
            Environment::FreeTime => "Free Time",
            Environment::Plane => "On a plane",
        }
    }

    /// The networks whose videos this environment shows.
    pub fn networks(self) -> &'static [NetworkKind] {
        match self {
            Environment::Work | Environment::FreeTime => &[NetworkKind::Dsl, NetworkKind::Lte],
            Environment::Plane => &[NetworkKind::Da2gc, NetworkKind::Mss],
        }
    }
}

impl std::fmt::Display for Environment {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// One rating vote.
#[derive(Clone, Debug)]
pub struct RatingVote {
    /// Subject group.
    pub group: Group,
    /// Participant id within the group.
    pub participant: u32,
    /// Site index.
    pub site: u16,
    /// Network behind the video.
    pub network: NetworkKind,
    /// Protocol behind the video.
    pub protocol: Protocol,
    /// Context environment.
    pub environment: Environment,
    /// Satisfaction with loading speed, 10–70.
    pub speed: f64,
    /// General quality of the loading process, 10–70.
    pub quality: f64,
    /// Survives conformance filtering?
    pub valid: bool,
}

/// Per-site "taste" offsets shared by every participant (site design
/// likability — the non-speed variance that bounds Fig. 6's
/// correlations in fast networks). Drawn once per study.
#[allow(
    clippy::disallowed_methods,
    reason = "study-entry derivation point: `seed` is the study seed, tastes fork from the \"site-taste\" stream"
)]
pub fn site_tastes(n_sites: u16, seed: u64) -> BTreeMap<u16, f64> {
    let mut rng = SimRng::new(seed).fork("site-taste");
    (0..n_sites)
        .map(|s| (s, rng.normal_with(0.0, calib::SITE_TASTE_SD)))
        .collect()
}

/// Run the rating study for one group. Environments whose networks
/// are not present in the stimulus set are skipped (smaller
/// experiments may emulate a subset of Table 2).
///
/// Participants fan out across the `pq-par` pool with per-participant
/// RNG streams keyed by `(seed, group, id)`; the vote vector keeps
/// session order, so output is bit-identical to a serial run at any
/// `PQ_JOBS`.
#[allow(clippy::too_many_arguments)]
#[allow(
    clippy::disallowed_methods,
    reason = "study-entry derivation point: `seed` is the study seed, per-participant streams fork by (group, id)"
)]
#[expect(
    clippy::indexing_slicing,
    reason = "`Environment::idx()` is below the length of the per-environment calibration table"
)]
pub fn run_rating_study(
    stimuli: &StimulusSet,
    sessions: &[Session],
    protocols: &[Protocol],
    sites: &[u16],
    videos: (u32, u32, u32),
    tastes: &BTreeMap<u16, f64>,
    seed: u64,
) -> Vec<RatingVote> {
    let rng = SimRng::new(seed).fork("rating-study");
    let available = stimuli.networks();

    let per_session: Vec<Vec<RatingVote>> = pq_par::par_map(sessions, |session| {
        let mut votes = Vec::new();
        let p = &session.participant;
        let mut r = rng.fork_idx(p.group.name(), u64::from(p.id));
        for (env, count) in [
            (Environment::Work, videos.0),
            (Environment::FreeTime, videos.1),
            (Environment::Plane, videos.2),
        ] {
            let env_networks: Vec<_> = env
                .networks()
                .iter()
                .copied()
                .filter(|n| available.contains(n))
                .collect();
            if env_networks.is_empty() {
                continue;
            }
            for _ in 0..count {
                // `env_networks` is non-empty (guarded above); the
                // `else continue` keeps this panic-free even on an
                // empty (fully quarantined) grid.
                let (Some(&site), Some(&network), Some(&protocol)) = (
                    r.choose(sites),
                    r.choose(&env_networks),
                    r.choose(protocols),
                ) else {
                    continue;
                };
                // A quarantined cell yields no stimulus: skip the vote
                // (RNG draws above keep surviving cells aligned).
                let Some(stim) = stimuli.get(site, network, protocol) else {
                    continue;
                };
                let m = stim.metrics;

                let (speed, quality) = if session.rusher {
                    // Rushers drag the slider anywhere.
                    (r.range_f64(10.0, 70.0), r.range_f64(10.0, 70.0))
                } else if p.group == Group::Internet && r.chance(calib::INTERNET_GARBAGE_RATE) {
                    // The Internet group's unsupervised contamination —
                    // why §4.2 cannot treat it as normally distributed.
                    let g = r.range_f64(10.0, 70.0);
                    (g, (g + r.normal_with(0.0, 8.0)).clamp(10.0, 70.0))
                } else {
                    let observed = percept::observe(p, &m, &mut r);
                    let base = percept::base_rating(observed)
                        + calib::CONTEXT_SHIFT[env.idx()]
                        + tastes.get(&site).copied().unwrap_or(0.0)
                        + p.rating_bias;
                    let speed = percept::clamp_vote(base + r.normal_with(0.0, p.rating_noise));
                    let quality =
                        percept::clamp_vote(base + r.normal_with(0.0, p.rating_noise * 1.1));
                    (speed, quality)
                };

                votes.push(RatingVote {
                    group: p.group,
                    participant: p.id,
                    site,
                    network,
                    protocol,
                    environment: env,
                    speed,
                    quality,
                    valid: session.valid(),
                });
            }
        }
        votes
    });
    per_session.into_iter().flatten().collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::session::{population, StudyKind};
    use pq_web::{catalogue, Website};

    fn stimuli() -> StimulusSet {
        let sites: Vec<Website> = ["apache.org", "gov.uk"]
            .iter()
            .map(|n| catalogue::site(n).unwrap())
            .collect();
        StimulusSet::build(
            &sites,
            &NetworkKind::ALL,
            &[Protocol::Tcp, Protocol::Quic],
            3,
            2,
        )
    }

    #[test]
    fn environments_use_the_right_networks() {
        assert_eq!(
            Environment::Plane.networks(),
            &[NetworkKind::Da2gc, NetworkKind::Mss]
        );
        assert!(Environment::Work
            .networks()
            .iter()
            .all(|n| !n.is_inflight()));
    }

    #[test]
    fn vote_counts_follow_design() {
        let st = stimuli();
        let sessions = population(StudyKind::Rating, Group::Lab, 3);
        let tastes = site_tastes(2, 3);
        let votes = run_rating_study(
            &st,
            &sessions,
            &[Protocol::Tcp, Protocol::Quic],
            &[0, 1],
            (11, 11, 5),
            &tastes,
            4,
        );
        assert_eq!(votes.len(), 35 * 27, "11 + 11 + 5 per participant");
        let plane: Vec<_> = votes
            .iter()
            .filter(|v| v.environment == Environment::Plane)
            .collect();
        assert!(plane.iter().all(|v| v.network.is_inflight()));
    }

    #[test]
    fn plane_rated_worse_than_work() {
        let st = stimuli();
        let sessions = population(StudyKind::Rating, Group::MicroWorker, 5);
        let tastes = site_tastes(2, 5);
        let votes = run_rating_study(
            &st,
            &sessions,
            &[Protocol::Tcp, Protocol::Quic],
            &[0, 1],
            (11, 11, 5),
            &tastes,
            6,
        );
        let mean_env = |env: Environment| {
            let v: Vec<f64> = votes
                .iter()
                .filter(|x| x.valid && x.environment == env)
                .map(|x| x.speed)
                .collect();
            v.iter().sum::<f64>() / v.len() as f64
        };
        let work = mean_env(Environment::Work);
        let plane = mean_env(Environment::Plane);
        assert!(
            plane < work - 10.0,
            "plane ({plane:.1}) must rate far below work ({work:.1})"
        );
    }

    #[test]
    fn votes_stay_on_scale() {
        let st = stimuli();
        let sessions = population(StudyKind::Rating, Group::Internet, 7);
        let tastes = site_tastes(2, 7);
        let votes = run_rating_study(
            &st,
            &sessions,
            &[Protocol::Quic],
            &[0, 1],
            (6, 6, 3),
            &tastes,
            8,
        );
        for v in &votes {
            assert!((10.0..=70.0).contains(&v.speed));
            assert!((10.0..=70.0).contains(&v.quality));
        }
    }

    #[test]
    fn speed_and_quality_correlate() {
        let st = stimuli();
        let sessions = population(StudyKind::Rating, Group::Lab, 9);
        let tastes = site_tastes(2, 9);
        let votes = run_rating_study(
            &st,
            &sessions,
            &[Protocol::Tcp, Protocol::Quic],
            &[0, 1],
            (11, 11, 5),
            &tastes,
            10,
        );
        let xs: Vec<f64> = votes.iter().map(|v| v.speed).collect();
        let ys: Vec<f64> = votes.iter().map(|v| v.quality).collect();
        let r = pq_stats::pearson(&xs, &ys).unwrap();
        assert!(r > 0.6, "speed/quality correlation {r}");
    }

    #[test]
    fn tastes_deterministic() {
        assert_eq!(site_tastes(5, 1), site_tastes(5, 1));
        assert_ne!(site_tastes(5, 1), site_tastes(5, 2));
    }
}
