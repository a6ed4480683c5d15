//! The shaped, lossy, delaying link — the emulation core equivalent to
//! Mahimahi's `mm-link`/`mm-delay`/`mm-loss` shells composed into one.
//!
//! A [`Link`] is one direction of an access link. It models:
//!
//! * **rate shaping**: packets serialize at `rate_bps`; while the
//!   transmitter is busy, arrivals wait in a drop-tail queue,
//! * **queueing**: a byte-bounded drop-tail queue (sized from a
//!   milliseconds-at-line-rate budget, as in the paper's Table 2),
//! * **propagation delay**: a fixed one-way delay added after
//!   serialization,
//! * **random loss**: i.i.d. Bernoulli loss applied when a packet
//!   finishes serializing (the packet consumed link capacity but never
//!   arrives — the behaviour of a corrupting wireless hop, which is
//!   what DA2GC/MSS model).
//!
//! The link is event-driven in the smoltcp style: it never schedules
//! anything itself. `push` and `on_tx_done` return the instants at
//! which the owner must invoke the link again, and deliveries carry the
//! absolute arrival time at the far end.

use crate::packet::Packet;
use crate::queue::DropTailQueue;
use crate::rng::SimRng;
use crate::time::{SimDuration, SimTime};

/// Static configuration of one link direction.
#[derive(Clone, Debug)]
pub struct LinkConfig {
    /// Shaping rate in bits per second.
    pub rate_bps: u64,
    /// One-way propagation delay.
    pub prop_delay: SimDuration,
    /// i.i.d. packet loss probability in `[0, 1]`.
    pub loss: f64,
    /// Drop-tail queue capacity in bytes.
    pub queue_bytes: u64,
}

impl LinkConfig {
    /// Build a config with the queue sized as `queue_ms` milliseconds
    /// at line rate — exactly how the paper specifies queue sizes
    /// ("Queue size is set to 200 ms except for DSL with 12 ms").
    pub fn with_queue_ms(rate_bps: u64, prop_delay: SimDuration, loss: f64, queue_ms: u64) -> Self {
        let queue_bytes = rate_bps.saturating_mul(queue_ms) / 8 / 1000;
        LinkConfig {
            rate_bps,
            prop_delay,
            loss,
            queue_bytes,
        }
    }

    /// The serialization delay of a packet of `bytes` on this link.
    pub fn serialization_delay(&self, bytes: u32) -> SimDuration {
        SimDuration::for_bytes_at_rate(u64::from(bytes), self.rate_bps)
    }
}

/// Counters exposed for tracing and emulation validation (Table 2
/// checks measure these).
#[derive(Clone, Debug, Default)]
pub struct LinkStats {
    /// Packets offered to the link.
    pub offered: u64,
    /// Packets rejected by the drop-tail queue.
    pub tail_dropped: u64,
    /// Packets destroyed by random loss.
    pub lost: u64,
    /// Packets destroyed by injected faults (Gilbert–Elliott bursts,
    /// link-flap outage windows) that the i.i.d. loss draw spared.
    pub fault_lost: u64,
    /// Packets that reached the far end.
    pub delivered: u64,
    /// Bytes that reached the far end.
    pub bytes_delivered: u64,
    /// Total time the transmitter spent busy.
    pub busy_time: SimDuration,
}

/// Result of offering a packet to the link.
#[derive(Debug, PartialEq, Eq)]
pub enum PushOutcome {
    /// The transmitter was idle and started serializing this packet;
    /// the owner must schedule a `tx-done` callback at the given time.
    StartedTx(SimTime),
    /// The packet joined the queue behind an in-progress transmission.
    Queued,
    /// The queue was full; the packet is gone.
    TailDropped,
}

/// Result of a `tx-done` callback.
pub struct TxDone<P> {
    /// The packet and its absolute arrival time at the far end, or
    /// `None` if random loss destroyed it.
    pub delivery: Option<(SimTime, Packet<P>)>,
    /// If another packet immediately started serializing, the time of
    /// the next `tx-done` callback the owner must schedule.
    pub next_tx_done: Option<SimTime>,
}

/// One direction of the emulated access link.
#[derive(Debug)]
pub struct Link<P> {
    config: LinkConfig,
    queue: DropTailQueue<P>,
    /// Packet currently being serialized, if any.
    in_flight: Option<Packet<P>>,
    /// Loss RNG: a dedicated stream so loss patterns are reproducible
    /// independent of everything else.
    loss_rng: SimRng,
    stats: LinkStats,
    tx_started_at: SimTime,
    /// Trace track `(pid, tid)` for drop/loss instants and queue
    /// occupancy counter samples.
    obs_track: Option<(u32, u32)>,
    /// Human label for trace events (`"down"` / `"up"`).
    obs_label: &'static str,
    /// Optional injected-fault state (burst loss, flap windows,
    /// bandwidth oscillation). `None` — the overwhelmingly common
    /// case — is completely inert: no extra RNG draws, no overhead.
    fault: Option<pq_fault::LinkFault>,
}

impl<P> Link<P> {
    /// Build a link from its config; `loss_rng` should be a dedicated
    /// fork of the world RNG.
    pub fn new(config: LinkConfig, loss_rng: SimRng) -> Self {
        Link {
            queue: DropTailQueue::new(config.queue_bytes),
            config,
            in_flight: None,
            loss_rng,
            stats: LinkStats::default(),
            tx_started_at: SimTime::ZERO,
            obs_track: None,
            obs_label: "link",
            fault: None,
        }
    }

    /// Attach injected-fault state to this link direction. The state
    /// advances once per transmitted packet, independent of the
    /// baseline i.i.d. loss stream, so attaching it never perturbs
    /// the fault-free loss pattern.
    pub fn set_fault(&mut self, fault: Option<pq_fault::LinkFault>) {
        self.fault = fault;
    }

    /// Serialization delay for `bytes`, stretched by the bandwidth
    /// oscillator when one is installed (rate × scale ⇒ delay /
    /// scale).
    fn ser_delay(&self, now: SimTime, bytes: u32) -> SimDuration {
        let base = self.config.serialization_delay(bytes);
        match &self.fault {
            Some(f) => {
                let scale = f.rate_scale(now.as_nanos());
                if scale < 1.0 {
                    base.mul_f64(1.0 / scale)
                } else {
                    base
                }
            }
            None => base,
        }
    }

    /// Attach this link to a trace track (`pid` = the page load) with
    /// a direction label. Drop/loss instants and queue-occupancy
    /// counters are emitted there at `PQ_TRACE=debug` or finer.
    pub fn set_obs_track(&mut self, pid: u32, tid: u32, label: &'static str) {
        self.obs_track = Some((pid, tid));
        self.obs_label = label;
    }

    /// Emit a queue-occupancy counter sample (Debug level).
    fn obs_queue_sample(&self, now: SimTime) {
        if let Some((pid, tid)) = self.obs_track {
            if pq_obs::enabled(pq_obs::Level::Debug) {
                pq_obs::tracer().counter(
                    pq_obs::Level::Debug,
                    "sim",
                    format!("{} queue bytes", self.obs_label),
                    pid,
                    tid,
                    now.as_nanos(),
                    self.queue.bytes() as f64,
                );
            }
        }
    }

    /// The link's static configuration.
    pub fn config(&self) -> &LinkConfig {
        &self.config
    }

    /// Counters for tracing/validation.
    pub fn stats(&self) -> &LinkStats {
        &self.stats
    }

    /// Bytes currently waiting in the queue (excludes the in-flight
    /// packet).
    pub fn queued_bytes(&self) -> u64 {
        self.queue.bytes()
    }

    /// High-water mark of queued bytes.
    pub fn max_queued_bytes(&self) -> u64 {
        self.queue.max_bytes_seen()
    }

    /// Whether the transmitter is currently serializing a packet.
    pub fn is_busy(&self) -> bool {
        self.in_flight.is_some()
    }

    /// Offer a packet to the link at time `now`.
    pub fn push(&mut self, now: SimTime, pkt: Packet<P>) -> PushOutcome {
        self.stats.offered += 1;
        if self.in_flight.is_none() {
            debug_assert!(
                self.queue.is_empty(),
                "idle transmitter with queued packets"
            );
            let done = now + self.ser_delay(now, pkt.size);
            self.in_flight = Some(pkt);
            self.tx_started_at = now;
            PushOutcome::StartedTx(done)
        } else if self.queue.push(pkt) {
            self.obs_queue_sample(now);
            PushOutcome::Queued
        } else {
            self.stats.tail_dropped += 1;
            if let Some((pid, tid)) = self.obs_track {
                if pq_obs::enabled(pq_obs::Level::Debug) {
                    pq_obs::tracer().instant(
                        pq_obs::Level::Debug,
                        "sim",
                        format!("{} tail drop", self.obs_label),
                        pid,
                        tid,
                        now.as_nanos(),
                        vec![("queued_bytes", pq_obs::ArgValue::U64(self.queue.bytes()))],
                    );
                }
            }
            PushOutcome::TailDropped
        }
    }

    /// The owner calls this at the instant returned by
    /// [`PushOutcome::StartedTx`] / [`TxDone::next_tx_done`].
    #[expect(
        clippy::expect_used,
        reason = "`in_flight` is set by the StartedTx that scheduled this callback, and the queue fires one tx-done per started tx"
    )]
    pub fn on_tx_done(&mut self, now: SimTime) -> TxDone<P> {
        let _link_span = pq_prof::span_dyn(|| format!("link:{}", self.obs_label));
        let pkt = self
            .in_flight
            .take()
            .expect("tx-done callback with no packet in flight");
        self.stats.busy_time += now - self.tx_started_at;

        // The baseline i.i.d. draw always happens first (and always
        // happens), so fault injection never shifts the fault-free
        // loss stream. The fault chain then advances exactly once per
        // packet regardless of the i.i.d. outcome.
        let iid_lost = self.loss_rng.chance(self.config.loss);
        let fault_lost = match &mut self.fault {
            Some(f) => f.lose(now.as_nanos()),
            None => false,
        };
        let delivery = if iid_lost || fault_lost {
            // Attribute the loss: the i.i.d. stream takes precedence
            // (it would have killed the packet with or without
            // faults), injected faults claim the remainder.
            let (category, name) = if iid_lost {
                self.stats.lost += 1;
                ("sim", format!("{} random loss", self.obs_label))
            } else {
                self.stats.fault_lost += 1;
                ("fault", format!("{} injected loss", self.obs_label))
            };
            if let Some((pid, tid)) = self.obs_track {
                if pq_obs::enabled(pq_obs::Level::Debug) {
                    pq_obs::tracer().instant(
                        pq_obs::Level::Debug,
                        category,
                        name,
                        pid,
                        tid,
                        now.as_nanos(),
                        vec![("size", pq_obs::ArgValue::U64(u64::from(pkt.size)))],
                    );
                }
            }
            None
        } else {
            self.stats.delivered += 1;
            self.stats.bytes_delivered += u64::from(pkt.size);
            Some((now + self.config.prop_delay, pkt))
        };

        let next_tx_done = self.queue.pop().map(|next| {
            let done = now + self.ser_delay(now, next.size);
            self.in_flight = Some(next);
            self.tx_started_at = now;
            done
        });

        TxDone {
            delivery,
            next_tx_done,
        }
    }
}

impl<P> Drop for Link<P> {
    /// Fold this link's lifetime counters into the global metrics
    /// registry — one batched update per link instead of per packet.
    fn drop(&mut self) {
        let s = &self.stats;
        if s.offered == 0 {
            return;
        }
        let reg = pq_obs::registry();
        reg.counter_add("sim.link.offered", s.offered);
        reg.counter_add("sim.link.delivered", s.delivered);
        reg.counter_add("sim.link.bytes_delivered", s.bytes_delivered);
        if s.tail_dropped > 0 {
            reg.counter_add("sim.link.tail_dropped", s.tail_dropped);
        }
        if s.lost > 0 {
            reg.counter_add("sim.link.random_lost", s.lost);
        }
        if s.fault_lost > 0 {
            reg.counter_add("sim.link.fault_lost", s.fault_lost);
            reg.counter_add("fault.injected", s.fault_lost);
        }
    }
}

#[cfg(test)]
#[allow(
    clippy::disallowed_methods,
    clippy::unreachable,
    reason = "tests build links with fixed seeds and match on the one outcome they set up"
)]
mod tests {
    use super::*;
    use crate::packet::ConnId;

    fn mk_link(rate_bps: u64, delay_ms: u64, loss: f64, queue_ms: u64) -> Link<u32> {
        let cfg =
            LinkConfig::with_queue_ms(rate_bps, SimDuration::from_millis(delay_ms), loss, queue_ms);
        Link::new(cfg, SimRng::new(99))
    }

    fn pkt(id: u32, size: u32) -> Packet<u32> {
        Packet::new(ConnId(0), size, id)
    }

    #[test]
    fn serialization_plus_propagation() {
        // 12 Mbps, 10 ms delay: a 1500 B packet serializes in 1 ms and
        // arrives at 11 ms.
        let mut link = mk_link(12_000_000, 10, 0.0, 200);
        let t0 = SimTime::ZERO;
        let done = match link.push(t0, pkt(1, 1500)) {
            PushOutcome::StartedTx(t) => t,
            other => panic!("expected StartedTx, got {other:?}"),
        };
        assert_eq!(done, SimTime::from_millis(1));
        let txd = link.on_tx_done(done);
        let (arrival, p) = txd.delivery.unwrap();
        assert_eq!(arrival, SimTime::from_millis(11));
        assert_eq!(p.payload, 1);
        assert!(txd.next_tx_done.is_none());
    }

    #[test]
    fn back_to_back_packets_queue() {
        let mut link = mk_link(12_000_000, 0, 0.0, 200);
        let t0 = SimTime::ZERO;
        assert!(matches!(
            link.push(t0, pkt(1, 1500)),
            PushOutcome::StartedTx(_)
        ));
        assert_eq!(link.push(t0, pkt(2, 1500)), PushOutcome::Queued);
        assert_eq!(link.push(t0, pkt(3, 1500)), PushOutcome::Queued);

        // First completes at 1 ms and hands over to the second.
        let txd = link.on_tx_done(SimTime::from_millis(1));
        assert_eq!(txd.delivery.unwrap().1.payload, 1);
        let next = txd.next_tx_done.unwrap();
        assert_eq!(next, SimTime::from_millis(2));
        let txd = link.on_tx_done(next);
        assert_eq!(txd.delivery.unwrap().1.payload, 2);
        let txd = link.on_tx_done(txd.next_tx_done.unwrap());
        assert_eq!(txd.delivery.unwrap().1.payload, 3);
        assert!(txd.next_tx_done.is_none());
        assert!(!link.is_busy());
    }

    #[test]
    fn queue_overflow_drops_tail() {
        // 1 Mbps with a 12 ms queue = 1500 bytes = one MTU of queue.
        let mut link = mk_link(1_000_000, 0, 0.0, 12);
        let t0 = SimTime::ZERO;
        assert!(matches!(
            link.push(t0, pkt(1, 1500)),
            PushOutcome::StartedTx(_)
        ));
        assert_eq!(link.push(t0, pkt(2, 1500)), PushOutcome::Queued);
        assert_eq!(link.push(t0, pkt(3, 1500)), PushOutcome::TailDropped);
        assert_eq!(link.stats().tail_dropped, 1);
    }

    #[test]
    fn loss_rate_is_respected() {
        let mut link = mk_link(1_000_000_000, 0, 0.25, 10_000);
        let mut now = SimTime::ZERO;
        let mut delivered = 0u32;
        let n = 20_000;
        for i in 0..n {
            let done = match link.push(now, pkt(i, 1000)) {
                PushOutcome::StartedTx(t) => t,
                other => panic!("unexpected {other:?}"),
            };
            let txd = link.on_tx_done(done);
            if txd.delivery.is_some() {
                delivered += 1;
            }
            now = done;
        }
        let rate = 1.0 - f64::from(delivered) / f64::from(n);
        assert!((rate - 0.25).abs() < 0.02, "measured loss {rate}");
        assert_eq!(link.stats().lost + u64::from(delivered), u64::from(n));
    }

    #[test]
    fn achieved_throughput_matches_rate() {
        // Saturate a 10 Mbps link for one simulated second.
        let mut link = mk_link(10_000_000, 5, 0.0, 500);
        let mut now = SimTime::ZERO;
        let mut next_done = match link.push(now, pkt(0, 1500)) {
            PushOutcome::StartedTx(t) => t,
            _ => unreachable!(),
        };
        let mut bytes = 0u64;
        let horizon = SimTime::from_secs(1);
        let mut id = 1;
        while next_done <= horizon {
            now = next_done;
            // Keep the queue non-empty.
            while link.queued_bytes() < 3000 {
                link.push(now, pkt(id, 1500));
                id += 1;
            }
            let txd = link.on_tx_done(now);
            if let Some((_, p)) = txd.delivery {
                bytes += u64::from(p.size);
            }
            next_done = txd.next_tx_done.expect("queue kept busy");
        }
        let mbps = bytes as f64 * 8.0 / 1e6;
        assert!((mbps - 10.0).abs() < 0.2, "achieved {mbps} Mbps");
    }

    #[test]
    fn queue_bytes_from_ms_budget() {
        // 25 Mbps × 12 ms = 37.5 KB.
        let cfg = LinkConfig::with_queue_ms(25_000_000, SimDuration::ZERO, 0.0, 12);
        assert_eq!(cfg.queue_bytes, 37_500);
    }

    fn load_faults(spec: &str) -> pq_fault::LoadFaults {
        use std::sync::Arc;
        pq_fault::LoadFaults::new(Arc::new(pq_fault::FaultPlan::parse(spec).unwrap()), 7)
    }

    #[test]
    fn flap_fault_blacks_out_window() {
        // Outage between 10 ms and 20 ms: packets whose tx completes
        // inside the window die, others survive (loss = 0 baseline).
        let mut link = mk_link(12_000_000, 0, 0.0, 10_000);
        link.set_fault(load_faults("flap:at=10,dur=10").link_fault("down"));
        let mut survived = Vec::new();
        for i in 0..30u32 {
            let done = match link.push(SimTime::from_millis(u64::from(i)), pkt(i, 1500)) {
                PushOutcome::StartedTx(t) => t,
                other => panic!("unexpected {other:?}"),
            };
            if link.on_tx_done(done).delivery.is_some() {
                survived.push(i);
            }
        }
        // tx of packet i completes at (i+1) ms; window is [10, 20) ms
        // → packets 9..=18 are lost.
        let expect: Vec<u32> = (0..30).filter(|&i| !(9..19).contains(&i)).collect();
        assert_eq!(survived, expect);
        assert_eq!(link.stats().fault_lost, 10);
        assert_eq!(link.stats().lost, 0, "no i.i.d. loss configured");
    }

    #[test]
    fn ge_fault_loses_roughly_stationary_rate() {
        let mut link = mk_link(1_000_000_000, 0, 0.0, 10_000);
        // pi_bad = 0.05/0.25 = 0.2, loss_bad = 0.5 → ~10% loss.
        link.set_fault(load_faults("gel:pgb=0.05,pbg=0.2,good=0.0,bad=0.5").link_fault("down"));
        let mut now = SimTime::ZERO;
        let n = 20_000u32;
        let mut delivered = 0u32;
        for i in 0..n {
            let done = match link.push(now, pkt(i, 1000)) {
                PushOutcome::StartedTx(t) => t,
                other => panic!("unexpected {other:?}"),
            };
            if link.on_tx_done(done).delivery.is_some() {
                delivered += 1;
            }
            now = done;
        }
        let rate = 1.0 - f64::from(delivered) / f64::from(n);
        assert!((rate - 0.1).abs() < 0.02, "measured fault loss {rate}");
        assert_eq!(link.stats().fault_lost, u64::from(n - delivered));
    }

    #[test]
    fn bwosc_stretches_serialization() {
        // depth=0.5, period 1000 ms: at t=500 ms the scale bottoms out
        // at 0.5, doubling the serialization delay.
        let mut link = mk_link(12_000_000, 0, 0.0, 10_000);
        link.set_fault(load_faults("bwosc:period=1000,depth=0.5").link_fault("down"));
        let t0 = SimTime::ZERO;
        let done = match link.push(t0, pkt(1, 1500)) {
            PushOutcome::StartedTx(t) => t,
            other => panic!("unexpected {other:?}"),
        };
        assert_eq!(done, SimTime::from_millis(1), "peak of the cosine at t=0");
        link.on_tx_done(done);
        let mid = SimTime::from_millis(500);
        let done2 = match link.push(mid, pkt(2, 1500)) {
            PushOutcome::StartedTx(t) => t,
            other => panic!("unexpected {other:?}"),
        };
        let stretched = (done2 - mid).as_millis_f64();
        assert!(
            (stretched - 2.0).abs() < 1e-6,
            "stretched delay {stretched} ms"
        );
    }

    #[test]
    fn fault_state_does_not_disturb_iid_stream() {
        // Same seed, same offered packets: the set of i.i.d.-lost
        // packet ids must be identical with and without a fault chain
        // attached (fault losses only *add*).
        let run = |with_fault: bool| -> Vec<u32> {
            let mut link = mk_link(1_000_000_000, 0, 0.25, 10_000);
            if with_fault {
                link.set_fault(load_faults("gel:pgb=0.1,pbg=0.2,bad=0.4").link_fault("down"));
            }
            let mut now = SimTime::ZERO;
            let mut delivered = Vec::new();
            for i in 0..2000u32 {
                let done = match link.push(now, pkt(i, 1000)) {
                    PushOutcome::StartedTx(t) => t,
                    other => panic!("unexpected {other:?}"),
                };
                if link.on_tx_done(done).delivery.is_some() {
                    delivered.push(i);
                }
                now = done;
            }
            let iid = link.stats().lost;
            assert_eq!(iid + link.stats().fault_lost + delivered.len() as u64, 2000);
            delivered
        };
        let base = run(false);
        let faulted = run(true);
        // Every packet delivered under faults was also delivered in
        // the baseline (injection only removes packets)…
        assert!(faulted.iter().all(|i| base.contains(i)));
        // …and it genuinely removed some.
        assert!(faulted.len() < base.len());
    }

    #[test]
    fn busy_time_accumulates() {
        let mut link = mk_link(12_000_000, 0, 0.0, 200);
        let done = match link.push(SimTime::ZERO, pkt(1, 1500)) {
            PushOutcome::StartedTx(t) => t,
            _ => unreachable!(),
        };
        link.on_tx_done(done);
        assert_eq!(link.stats().busy_time, SimDuration::from_millis(1));
    }
}
