//! Session behaviour: how participants actually conduct a study —
//! timing, replays, and the misbehaviour the conformance filters
//! catch.

use crate::calib;
use crate::filtering::Conformance;
use crate::participant::{Group, Participant};
use pq_sim::SimRng;

/// Which of the two studies a session belongs to.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum StudyKind {
    /// The side-by-side just-noticeable-difference study.
    AB,
    /// The single-video rating study.
    Rating,
}

/// One participant's session: the participant, their conformance
/// record and session-level timing.
#[derive(Clone, Debug)]
pub struct Session {
    /// The person behind the screen.
    pub participant: Participant,
    /// Rule violations (drawn from the group's behavioural profile).
    pub conformance: Conformance,
    /// Mean seconds spent per video in this session.
    pub secs_per_video: f64,
    /// Whether this participant rushes votes (they also produce
    /// degraded votes — the behaviour R4/R6 exist to catch).
    pub rusher: bool,
}

impl Session {
    /// Sample one session.
    #[expect(
        clippy::indexing_slicing,
        reason = "`group.idx()` is below 3 and each drop table has one entry per conformance rule"
    )]
    pub fn sample(kind: StudyKind, group: Group, id: u32, rng: &mut SimRng) -> Session {
        let participant = Participant::sample(group, id, rng);
        let drops = match kind {
            StudyKind::AB => &calib::DROP_AB[group.idx()],
            StudyKind::Rating => &calib::DROP_RATING[group.idx()],
        };
        let mut conformance = Conformance::clean();
        for (i, &p) in drops.iter().enumerate() {
            conformance.violated[i] = rng.chance(p);
        }
        // Rushers are the people rule R4 (vote before FVC) catches;
        // they click through without watching.
        let rusher = conformance.violated[3];
        let secs = match kind {
            StudyKind::AB => participant.secs_per_ab_video,
            StudyKind::Rating => participant.secs_per_rating_video,
        };
        // Rushers are also fast.
        let secs_per_video = if rusher { secs * 0.45 } else { secs };
        Session {
            participant,
            conformance,
            secs_per_video,
            rusher,
        }
    }

    /// Survives conformance filtering?
    pub fn valid(&self) -> bool {
        self.conformance.survives()
    }
}

/// Build the full population for one study and group.
///
/// Participants fan out across the `pq-par` worker pool: each
/// session's RNG stream is keyed purely by `(seed, study, group,
/// participant id)` via `fork_idx`, so the returned vector is
/// bit-identical to a serial sweep regardless of `PQ_JOBS` — and stays
/// in participant-id order.
#[allow(
    clippy::disallowed_methods,
    reason = "population-entry derivation point: `seed` is the study seed, sessions fork by study kind"
)]
#[expect(
    clippy::indexing_slicing,
    reason = "`group.idx()` is below 3, the length of the recruitment table"
)]
pub fn population(kind: StudyKind, group: Group, seed: u64) -> Vec<Session> {
    let n = match kind {
        StudyKind::AB => calib::RECRUITED[group.idx()].0,
        StudyKind::Rating => calib::RECRUITED[group.idx()].1,
    };
    let rng = SimRng::new(seed).fork(match kind {
        StudyKind::AB => "ab-sessions",
        StudyKind::Rating => "rating-sessions",
    });
    let ids: Vec<u32> = (0..n).collect();
    pq_par::par_map(&ids, |&i| {
        let mut r = rng.fork_idx(group.name(), u64::from(i));
        Session::sample(kind, group, i, &mut r)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::filtering::Funnel;

    #[test]
    fn lab_population_is_clean() {
        let pop = population(StudyKind::AB, Group::Lab, 1);
        assert_eq!(pop.len(), 35);
        assert!(pop.iter().all(Session::valid), "lab is supervised");
    }

    #[test]
    fn microworker_funnel_matches_table3() {
        let pop = population(StudyKind::Rating, Group::MicroWorker, 1);
        assert_eq!(pop.len(), 1563);
        let records: Vec<_> = pop.iter().map(|s| s.conformance).collect();
        let funnel = Funnel::apply(&records);
        // Paper: 1563 → … → 614. Allow sampling noise around the
        // calibrated expectation.
        let survivors = funnel.survivors();
        assert!(
            (550..=680).contains(&survivors),
            "µWorker rating survivors {survivors}, paper: 614"
        );
    }

    #[test]
    fn internet_ab_funnel_matches_table3() {
        let pop = population(StudyKind::AB, Group::Internet, 1);
        assert_eq!(pop.len(), 218);
        let records: Vec<_> = pop.iter().map(|s| s.conformance).collect();
        let survivors = Funnel::apply(&records).survivors();
        assert!(
            (135..=175).contains(&survivors),
            "Internet A/B survivors {survivors}, paper: 155"
        );
    }

    #[test]
    fn rushers_are_faster() {
        let pop = population(StudyKind::AB, Group::MicroWorker, 3);
        let rushers: Vec<f64> = pop
            .iter()
            .filter(|s| s.rusher)
            .map(|s| s.secs_per_video)
            .collect();
        let honest: Vec<f64> = pop
            .iter()
            .filter(|s| !s.rusher)
            .map(|s| s.secs_per_video)
            .collect();
        assert!(!rushers.is_empty() && !honest.is_empty());
        let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len() as f64;
        assert!(mean(&rushers) < mean(&honest));
    }

    #[test]
    fn timing_matches_section_4_2() {
        // Honest µWorkers average ≈ 14.46 s per A/B video.
        let pop = population(StudyKind::AB, Group::MicroWorker, 5);
        let honest: Vec<f64> = pop
            .iter()
            .filter(|s| s.valid())
            .map(|s| s.secs_per_video)
            .collect();
        let mean = honest.iter().sum::<f64>() / honest.len() as f64;
        assert!((mean - 14.46).abs() < 1.5, "mean {mean}");
    }

    #[test]
    fn deterministic_population() {
        let a = population(StudyKind::AB, Group::MicroWorker, 7);
        let b = population(StudyKind::AB, Group::MicroWorker, 7);
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.conformance, y.conformance);
        }
    }
}
