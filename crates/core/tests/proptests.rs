//! Property-based tests for the study layer: filtering funnels,
//! perception monotonicity and vote-scale safety.

#![allow(
    clippy::disallowed_methods,
    reason = "tests seed their own RNG streams with fixed literals"
)]

use pq_metrics::MetricSet;
use pq_sim::SimRng;
use pq_study::{percept, Conformance, Funnel, Group, Participant};
use proptest::prelude::*;

fn arb_conformance() -> impl Strategy<Value = Conformance> {
    prop::array::uniform7(prop::bool::weighted(0.15)).prop_map(|violated| Conformance { violated })
}

fn metrics(si: f64, tail: f64) -> MetricSet {
    MetricSet {
        fvc_ms: si * 0.4,
        si_ms: si,
        vc85_ms: si * 1.1,
        lvc_ms: si * 1.4,
        plt_ms: si * 1.4 + tail,
    }
}

proptest! {
    /// The funnel is monotone non-increasing, ends at the number of
    /// fully conforming participants, and recruited equals input size.
    #[test]
    fn funnel_invariants(records in prop::collection::vec(arb_conformance(), 0..300)) {
        let funnel = Funnel::apply(&records);
        prop_assert_eq!(funnel.recruited, records.len() as u32);
        let mut prev = funnel.recruited;
        for a in funnel.after {
            prop_assert!(a <= prev);
            prev = a;
        }
        let clean = records.iter().filter(|c| c.survives()).count() as u32;
        prop_assert_eq!(funnel.survivors(), clean);
    }

    /// Funnel counts are permutation-invariant.
    #[test]
    fn funnel_permutation_invariant(records in prop::collection::vec(arb_conformance(), 1..100), seed in any::<u64>()) {
        let funnel = Funnel::apply(&records);
        let mut shuffled = records.clone();
        SimRng::new(seed).shuffle(&mut shuffled);
        prop_assert_eq!(Funnel::apply(&shuffled).after, funnel.after);
    }

    /// Perception is strictly monotone: uniformly slower metrics give
    /// a strictly larger log-percept for every participant.
    #[test]
    fn percept_monotone_in_slowdown(seed in any::<u64>(), si in 100.0f64..60_000.0, factor in 1.01f64..10.0) {
        let mut rng = SimRng::new(seed);
        let p = Participant::sample(Group::MicroWorker, 0, &mut rng);
        let fast = percept::log_percept(&p, &metrics(si, 0.0));
        let slow = percept::log_percept(&p, &metrics(si * factor, 0.0));
        prop_assert!(slow > fast);
        // In log domain the shift equals ln(factor) exactly.
        prop_assert!((slow - fast - factor.ln()).abs() < 1e-9);
    }

    /// The PLT tail alone (beacons) never changes the percept — users
    /// cannot see invisible objects. This is the mechanism behind
    /// PLT's poor Fig. 6 correlation.
    #[test]
    fn percept_ignores_plt_tail(seed in any::<u64>(), si in 100.0f64..10_000.0, tail in 0.0f64..60_000.0) {
        let mut rng = SimRng::new(seed);
        let p = Participant::sample(Group::Lab, 1, &mut rng);
        let without = percept::log_percept(&p, &metrics(si, 0.0));
        let with = percept::log_percept(&p, &metrics(si, tail));
        prop_assert!((without - with).abs() < 1e-12);
    }

    /// Ratings always stay on the 10–70 scale for any percept.
    #[test]
    fn ratings_stay_on_scale(lp in -20.0f64..40.0) {
        let v = percept::clamp_vote(percept::base_rating(lp));
        prop_assert!((10.0..=70.0).contains(&v));
    }

    /// Sampled participants always have valid psychometric parameters.
    #[test]
    fn participants_always_valid(seed in any::<u64>(), id in any::<u32>()) {
        for group in Group::ALL {
            let mut rng = SimRng::new(seed).fork(group.name());
            let p = Participant::sample(group, id, &mut rng);
            prop_assert!(p.jnd > 0.0);
            prop_assert!(p.obs_noise > 0.0);
            prop_assert!(p.rating_noise > 0.0);
            prop_assert!((p.w.iter().sum::<f64>() - 1.0).abs() < 1e-9);
            prop_assert!(p.w.iter().all(|&w| w > 0.0));
            prop_assert!(p.secs_per_ab_video > 0.0);
        }
    }
}
