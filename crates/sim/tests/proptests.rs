//! Property-based tests for the simulation substrate.

#![allow(
    clippy::disallowed_methods,
    reason = "tests seed their own RNG streams with fixed literals"
)]

use pq_sim::{
    ConnId, DropTailQueue, EventQueue, Link, LinkConfig, Packet, PushOutcome, SimDuration, SimRng,
    SimTime,
};
use proptest::prelude::*;

proptest! {
    /// The event queue always pops in non-decreasing time order, with
    /// FIFO tie-breaking.
    #[test]
    fn event_queue_orders_any_schedule(times in prop::collection::vec(0u64..1_000_000, 1..200)) {
        let mut q = EventQueue::new();
        for (i, &t) in times.iter().enumerate() {
            q.schedule(SimTime::from_nanos(t), i);
        }
        let mut last: Option<(SimTime, usize)> = None;
        while let Some((t, i)) = q.pop() {
            if let Some((lt, li)) = last {
                prop_assert!(t >= lt);
                if t == lt {
                    prop_assert!(i > li, "FIFO tie-break violated");
                }
            }
            last = Some((t, i));
        }
    }

    /// Drop-tail queues conserve bytes: popped ≤ pushed, and the
    /// internal byte counter never exceeds capacity.
    #[test]
    fn queue_conserves_bytes(sizes in prop::collection::vec(1u32..5000, 1..300), cap in 1500u64..200_000) {
        let mut q = DropTailQueue::new(cap);
        let mut accepted = 0u64;
        for (i, &s) in sizes.iter().enumerate() {
            prop_assert!(q.bytes() <= q.capacity_bytes());
            if q.push(Packet::new(ConnId(0), s, i)) {
                accepted += u64::from(s);
            }
        }
        let mut popped = 0u64;
        while let Some(p) = q.pop() {
            popped += u64::from(p.size);
        }
        prop_assert_eq!(accepted, popped);
        prop_assert_eq!(q.bytes(), 0);
    }

    /// Every packet offered to a lossless, capacious link is delivered
    /// exactly once and in order.
    #[test]
    fn link_delivers_everything_without_loss(sizes in prop::collection::vec(40u32..1500, 1..150)) {
        let cfg = LinkConfig::with_queue_ms(10_000_000, SimDuration::from_millis(5), 0.0, 10_000);
        let mut link: Link<usize> = Link::new(cfg, SimRng::new(1));
        let mut delivered = Vec::new();
        let mut pending = None;
        let t0 = SimTime::ZERO;
        for (i, &s) in sizes.iter().enumerate() {
            match link.push(t0, Packet::new(ConnId(0), s, i)) {
                PushOutcome::StartedTx(t) => { pending = Some(t); }
                PushOutcome::Queued => {}
                PushOutcome::TailDropped => prop_assert!(false, "queue sized generously"),
            }
        }
        while let Some(t) = pending {
            let txd = link.on_tx_done(t);
            if let Some((_, p)) = txd.delivery {
                delivered.push(p.payload);
            }
            pending = txd.next_tx_done;
        }
        prop_assert_eq!(delivered, (0..sizes.len()).collect::<Vec<_>>());
    }

    /// Deterministic RNG: identical seeds yield identical streams and
    /// uniform draws stay in range.
    #[test]
    fn rng_streams_deterministic(seed in any::<u64>(), lo in 0u64..1000, span in 1u64..1000) {
        let mut a = SimRng::new(seed);
        let mut b = SimRng::new(seed);
        for _ in 0..50 {
            let x = a.range_u64(lo, lo + span);
            prop_assert_eq!(x, b.range_u64(lo, lo + span));
            prop_assert!((lo..=lo + span).contains(&x));
        }
    }

    /// Forked streams never panic and differ from their parent.
    #[test]
    fn rng_forks_are_valid(seed in any::<u64>(), label in "[a-z]{1,12}") {
        let parent = SimRng::new(seed);
        let mut child = parent.fork(&label);
        let mut parent = parent;
        let same = (0..32).filter(|_| child.next_u64() == parent.next_u64()).count();
        prop_assert!(same < 4, "child stream tracks parent");
    }

    /// Serialization delay is monotone in bytes and antitone in rate.
    #[test]
    fn serialization_delay_monotone(b1 in 1u64..100_000, b2 in 1u64..100_000, r in 1000u64..1_000_000_000) {
        let (small, large) = if b1 <= b2 { (b1, b2) } else { (b2, b1) };
        prop_assert!(
            SimDuration::for_bytes_at_rate(small, r) <= SimDuration::for_bytes_at_rate(large, r)
        );
        prop_assert!(
            SimDuration::for_bytes_at_rate(small, r * 2) <= SimDuration::for_bytes_at_rate(small, r)
        );
    }
}
