//! Study 1 (A/B): "Do users notice?" — the just-noticeable-difference
//! study of §4, Figure 4.
//!
//! Two recordings of the same website/network under different protocol
//! configurations play side by side; the participant answers
//! left / right / no difference plus a confidence. We simulate the
//! psychophysics: each side is observed with noise, the percept
//! difference is compared against the participant's JND, and ambiguous
//! pairs get replayed (which averages noise down — and is why the
//! paper sees more replays on *fast* networks, where differences are
//! small).

use crate::participant::Group;
use crate::percept;
use crate::session::Session;
use crate::stimulus::StimulusSet;
use pq_sim::{NetworkKind, SimRng};
use pq_transport::Protocol;

/// The participant's answer, in the canonical pair order (first =
/// the supposedly tuned/faster variant of Table 1's pairing).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AbChoice {
    /// Preferred the pair's first protocol (e.g. QUIC in "QUIC vs TCP").
    First,
    /// Saw no difference.
    NoDifference,
    /// Preferred the pair's second protocol.
    Second,
}

/// One A/B vote.
#[derive(Clone, Debug)]
pub struct AbVote {
    /// Subject group.
    pub group: Group,
    /// Participant id within the group.
    pub participant: u32,
    /// Site index into the stimulus set.
    pub site: u16,
    /// Network setting.
    pub network: NetworkKind,
    /// Canonical protocol pair (first, second).
    pub pair: (Protocol, Protocol),
    /// The answer.
    pub choice: AbChoice,
    /// Confidence in `[0, 1]`.
    pub confidence: f64,
    /// Times the participant replayed the video.
    pub replays: u32,
    /// Whether the participant survives conformance filtering.
    pub valid: bool,
}

/// Maximum replays the study UI allows before forcing an answer.
const MAX_REPLAYS: u32 = 3;
/// Control pairs per session (identical or blatantly delayed videos,
/// rule R6) — they don't produce analysable votes.
const CONTROL_VIDEOS: u32 = 3;

/// Run the A/B study for one group over the stimulus set.
///
/// Participants fan out across the `pq-par` pool; every participant's
/// RNG is keyed by `(seed, group, id)` alone and the vote vector keeps
/// session order (votes of session *k* precede those of session
/// *k+1*), so output is bit-identical to a serial run at any
/// `PQ_JOBS`.
#[allow(
    clippy::disallowed_methods,
    reason = "study-entry derivation point: `seed` is the study seed, every draw forks from the \"ab-study\" stream"
)]
pub fn run_ab_study(
    stimuli: &StimulusSet,
    sessions: &[Session],
    pairs: &[(Protocol, Protocol)],
    sites: &[u16],
    networks: &[NetworkKind],
    videos_per_participant: u32,
    seed: u64,
) -> Vec<AbVote> {
    // A fully quarantined grid (fault injection) leaves nothing to
    // vote on; degrade to an empty study instead of panicking.
    if sites.is_empty() || networks.is_empty() || pairs.is_empty() {
        return Vec::new();
    }
    let rng = SimRng::new(seed).fork("ab-study");
    let n_votes = videos_per_participant.saturating_sub(CONTROL_VIDEOS).max(1);

    let per_session: Vec<Vec<AbVote>> = pq_par::par_map(sessions, |session| {
        let mut votes = Vec::with_capacity(n_votes as usize);
        let p = &session.participant;
        let mut r = rng.fork_idx(p.group.name(), u64::from(p.id));
        for _ in 0..n_votes {
            // Guarded non-empty above; `else continue` keeps the hot
            // path panic-free regardless.
            let (Some(&site), Some(&network), Some(&pair)) =
                (r.choose(sites), r.choose(networks), r.choose(pairs))
            else {
                continue;
            };
            // Quarantined cells (fault injection) fall out of the set;
            // the RNG draws above still happen so the vote stream for
            // surviving cells stays aligned with the fault-free run.
            let (Some(sa), Some(sb)) = (
                stimuli.get(site, network, pair.0),
                stimuli.get(site, network, pair.1),
            ) else {
                continue;
            };
            let a = sa.metrics;
            let b = sb.metrics;

            let (choice, confidence, replays) = if session.rusher {
                // Rushers click without watching: a uniformly random
                // answer with arbitrary confidence and no replays.
                let c = match r.below(3) {
                    0 => AbChoice::First,
                    1 => AbChoice::NoDifference,
                    _ => AbChoice::Second,
                };
                (c, r.f64(), 0)
            } else {
                // Honest psychophysics with replay-averaging.
                let mut pa = percept::observe(p, &a, &mut r);
                let mut pb = percept::observe(p, &b, &mut r);
                let mut views = 1u32;
                let mut replays = 0u32;
                loop {
                    let delta = (pb - pa).abs();
                    // Replay when the difference sits in the ambiguous
                    // band around the JND.
                    let ambiguous = delta < p.jnd * 1.5;
                    if replays >= MAX_REPLAYS
                        || !ambiguous
                        || !r.chance(p.replay_scale * (1.0 - delta / (p.jnd * 1.5)))
                    {
                        break;
                    }
                    // Averaging another viewing shrinks the noise.
                    views += 1;
                    replays += 1;
                    let k = f64::from(views);
                    pa = pa * (k - 1.0) / k + percept::observe(p, &a, &mut r) / k;
                    pb = pb * (k - 1.0) / k + percept::observe(p, &b, &mut r) / k;
                }
                let delta = pb - pa; // > 0 ⇒ first (a) looked faster
                let choice = if delta.abs() < p.jnd {
                    // Below threshold: mostly "no difference", but the
                    // paper's footnote 3 notes people still guess a
                    // side with low confidence.
                    if r.chance(0.2) {
                        if delta > 0.0 {
                            AbChoice::First
                        } else {
                            AbChoice::Second
                        }
                    } else {
                        AbChoice::NoDifference
                    }
                } else if delta > 0.0 {
                    AbChoice::First
                } else {
                    AbChoice::Second
                };
                let confidence = (delta.abs() / (2.0 * p.jnd)).min(1.0);
                (choice, confidence, replays)
            };

            votes.push(AbVote {
                group: p.group,
                participant: p.id,
                site,
                network,
                pair,
                choice,
                confidence,
                replays,
                valid: session.valid(),
            });
        }
        votes
    });
    per_session.into_iter().flatten().collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::session::{population, StudyKind};
    use pq_web::catalogue;
    use pq_web::Website;

    fn small_stimuli() -> StimulusSet {
        let sites: Vec<Website> = ["apache.org", "wikipedia.org"]
            .iter()
            .map(|n| catalogue::site(n).unwrap())
            .collect();
        StimulusSet::build(
            &sites,
            &[NetworkKind::Lte, NetworkKind::Mss],
            &[Protocol::Tcp, Protocol::Quic],
            3,
            1,
        )
    }

    #[test]
    fn votes_produced_for_all_participants() {
        let stimuli = small_stimuli();
        let sessions = population(StudyKind::AB, Group::Lab, 2);
        let votes = run_ab_study(
            &stimuli,
            &sessions,
            &[(Protocol::Quic, Protocol::Tcp)],
            &[0, 1],
            &[NetworkKind::Lte, NetworkKind::Mss],
            28,
            3,
        );
        assert_eq!(votes.len(), 35 * 25, "28 videos − 3 controls each");
        assert!(votes.iter().all(|v| v.valid), "lab is clean");
    }

    #[test]
    fn quic_preferred_on_slow_network() {
        // On MSS the SI gap between QUIC and stock TCP is large; the
        // majority must notice and prefer QUIC (Fig. 4's right panel).
        let stimuli = small_stimuli();
        let sessions = population(StudyKind::AB, Group::MicroWorker, 2);
        let votes = run_ab_study(
            &stimuli,
            &sessions,
            &[(Protocol::Quic, Protocol::Tcp)],
            &[0, 1],
            &[NetworkKind::Mss],
            26,
            3,
        );
        let valid: Vec<&AbVote> = votes.iter().filter(|v| v.valid).collect();
        let first = valid.iter().filter(|v| v.choice == AbChoice::First).count();
        let share = first as f64 / valid.len() as f64;
        assert!(share > 0.5, "QUIC share on MSS {share}");
    }

    #[test]
    fn replays_happen_more_when_difference_is_small() {
        let stimuli = small_stimuli();
        let sessions = population(StudyKind::AB, Group::Lab, 4);
        // Same protocol on both sides: zero true difference → maximal
        // ambiguity → many replays and mostly "no difference".
        let same = run_ab_study(
            &stimuli,
            &sessions,
            &[(Protocol::Quic, Protocol::Quic)],
            &[0],
            &[NetworkKind::Lte],
            28,
            5,
        );
        let diff = run_ab_study(
            &stimuli,
            &sessions,
            &[(Protocol::Quic, Protocol::Tcp)],
            &[0],
            &[NetworkKind::Mss],
            28,
            5,
        );
        let avg =
            |vs: &[AbVote]| vs.iter().map(|v| f64::from(v.replays)).sum::<f64>() / vs.len() as f64;
        assert!(
            avg(&same) > avg(&diff),
            "ambiguous pairs replay more: {} vs {}",
            avg(&same),
            avg(&diff)
        );
        let nodiff_share = same
            .iter()
            .filter(|v| v.choice == AbChoice::NoDifference)
            .count() as f64
            / same.len() as f64;
        assert!(nodiff_share > 0.5, "identical videos: {nodiff_share}");
    }

    #[test]
    fn confidence_higher_for_clear_differences() {
        let stimuli = small_stimuli();
        let sessions = population(StudyKind::AB, Group::Lab, 6);
        let clear = run_ab_study(
            &stimuli,
            &sessions,
            &[(Protocol::Quic, Protocol::Tcp)],
            &[0],
            &[NetworkKind::Mss],
            28,
            7,
        );
        let unclear = run_ab_study(
            &stimuli,
            &sessions,
            &[(Protocol::Quic, Protocol::Quic)],
            &[0],
            &[NetworkKind::Lte],
            28,
            7,
        );
        let avg = |vs: &[AbVote]| vs.iter().map(|v| v.confidence).sum::<f64>() / vs.len() as f64;
        assert!(avg(&clear) > avg(&unclear));
    }

    #[test]
    fn deterministic_given_seed() {
        let stimuli = small_stimuli();
        let sessions = population(StudyKind::AB, Group::Internet, 8);
        let run = || {
            run_ab_study(
                &stimuli,
                &sessions,
                &[(Protocol::Quic, Protocol::Tcp)],
                &[0, 1],
                &[NetworkKind::Lte],
                14,
                9,
            )
        };
        let a = run();
        let b = run();
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.choice, y.choice);
            assert_eq!(x.replays, y.replays);
        }
    }
}
