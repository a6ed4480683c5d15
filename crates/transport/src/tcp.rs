//! The TCP + TLS 1.3 connection model.
//!
//! One [`TcpConnection`] object models *both* endpoints of a connection
//! (client and server) plus the TLS 1.3 handshake; the caller moves
//! packets between them through the emulated link. Each direction of
//! the full-duplex byte stream has an independent sender (congestion
//! control, pacing, RTO, SACK scoreboard) and receiver (reassembly,
//! delayed ACKs).
//!
//! Fidelity notes (all knobs from the paper's Table 1 are live):
//!
//! * **Handshake**: SYN → SYN-ACK → ClientHello → server TLS flight
//!   (~4 kB) → Finished; the client's first request leaves at ≈2 RTT,
//!   vs. ≈1 RTT for QUIC — the paper's principal structural advantage.
//! * **Loss recovery**: SACK scoreboard with at most
//!   [`crate::config::StackConfig::max_sack_blocks`] ranges per ACK
//!   (3 for TCP, per Linux with timestamps) and a RACK-style
//!   "delivered-later ⇒ lost" rule gated by a 3·MSS dup threshold.
//! * **Pacing**, **IW**, **slow-start-after-idle** and **receive
//!   buffer** come straight from [`crate::config::StackConfig`].
//! * In-order delivery: the byte stream is released to the application
//!   only cumulatively — a single loss head-of-line-blocks every
//!   multiplexed HTTP/2 response, which is what lets QUIC's
//!   independent streams win on lossy links (§4.3).

use crate::api::{Output, StreamId};
use crate::cc::{AckInfo, CongestionControl};
use crate::config::StackConfig;
use crate::pacing::Pacer;
use crate::rangeset::{Range, RangeSet};
use crate::rate::{RateSampler, TxRecord};
use crate::rtt::RttEstimator;
use crate::wire::{TcpSegKind, TcpSegment, Wire};
use pq_sim::{ConnId, Direction, Packet, SimDuration, SimTime, TraceKind};
use std::collections::BTreeMap;

/// TLS 1.3 server flight: ServerHello, EncryptedExtensions,
/// Certificate, CertificateVerify, Finished ≈ 4 kB in 3 parts.
const SERVER_FLIGHT_PARTS: u8 = 3;
/// Delayed-ACK timeout (Linux minimum).
const DELACK: SimDuration = SimDuration::from_millis(40);
/// Segments ACKed immediately at connection start (Linux quickack).
const QUICKACK_SEGS: u64 = 16;
/// Loss dup threshold in bytes-worth of SACKed data above a hole.
const DUP_THRESH_SEGS: u64 = 3;

/// A segment in flight.
#[derive(Clone, Copy, Debug)]
struct SentSeg {
    end: u64,
    sent_at: SimTime,
    retx: bool,
    tx: TxRecord,
}

/// One direction's sending half.
#[derive(Debug)]
struct TcpSender {
    from_client: bool,
    mss: u64,
    /// Total bytes the application has written so far.
    app_limit: u64,
    snd_una: u64,
    snd_nxt: u64,
    inflight: BTreeMap<u64, SentSeg>,
    bytes_in_flight: u64,
    /// Bytes SACKed above `snd_una`.
    sacked: RangeSet,
    /// Bytes marked lost, awaiting retransmission.
    lost: RangeSet,
    cc: Box<dyn CongestionControl>,
    pacer: Pacer,
    rtt: RttEstimator,
    rate: RateSampler,
    rto_at: Option<SimTime>,
    pacing_at: Option<SimTime>,
    /// Recovery episode marker: one cwnd reduction per episode.
    recovery_until: u64,
    /// RACK-style newest delivered (sent_at, seq) watermark.
    newest_delivered: (SimTime, u64),
    last_send: SimTime,
    /// Peer receive window (static: the receiver always drains).
    peer_rwnd: u64,
    slow_start_after_idle: bool,
    initial_window: u64,
    retransmits: u64,
    /// Congestion events (cwnd reductions) — diagnostics.
    congestion_events: u64,
    /// Trace track for cwnd counters / loss instants (`None` = off).
    obs: crate::obs::Track,
}

impl TcpSender {
    fn new(from_client: bool, cfg: &StackConfig, now: SimTime) -> Self {
        TcpSender {
            from_client,
            mss: cfg.mss,
            app_limit: 0,
            snd_una: 0,
            snd_nxt: 0,
            inflight: BTreeMap::new(),
            bytes_in_flight: 0,
            sacked: RangeSet::new(),
            lost: RangeSet::new(),
            cc: cfg
                .cc
                .build(cfg.mss, cfg.initial_window_bytes(), cfg.cubic_connections),
            pacer: Pacer::new(cfg.mss, 10, 2),
            rtt: RttEstimator::new(),
            rate: RateSampler::new(),
            rto_at: None,
            pacing_at: None,
            recovery_until: 0,
            newest_delivered: (SimTime::ZERO, 0),
            last_send: now,
            peer_rwnd: cfg.recv_buffer_bytes,
            slow_start_after_idle: cfg.slow_start_after_idle,
            initial_window: cfg.initial_window_bytes(),
            retransmits: 0,
            congestion_events: 0,
            obs: None,
        }
    }

    /// Direction label for trace-event names.
    fn dir_label(&self) -> &'static str {
        if self.from_client {
            "up"
        } else {
            "down"
        }
    }

    fn pacing_enabled(&self) -> bool {
        true // the pacer itself is a no-op unless a rate is set
    }

    fn update_pacing_rate(&mut self, cfg_pacing: bool) {
        if let Some(rate) = self.cc.pacing_rate(self.rtt.srtt()) {
            // BBR dictates its own rate regardless of the FQ knob.
            self.pacer.set_rate(Some(rate));
        } else if cfg_pacing {
            // Generic FQ rule: factor × cwnd / srtt, factor 2 in slow
            // start and 1.2 afterwards (Linux sysctl defaults).
            if let Some(srtt) = self.rtt.srtt() {
                let factor = if self.cc.in_slow_start() { 2.0 } else { 1.2 };
                let rate = factor * self.cc.cwnd() as f64 / srtt.as_secs_f64().max(1e-6);
                self.pacer.set_rate(Some(rate));
            }
        } else {
            self.pacer.set_rate(None);
        }
    }

    /// Append application data.
    fn write(&mut self, bytes: u64) {
        self.app_limit += bytes;
        self.rate.set_app_limited(false);
    }

    fn has_pending(&self) -> bool {
        !self.lost.is_empty() || self.snd_nxt < self.app_limit
    }

    /// Emit as many segments as congestion, flow control and pacing
    /// allow. Pushes `Send` outputs and returns nothing; an exhausted
    /// pacer sets `pacing_at`.
    fn try_send(&mut self, now: SimTime, cfg_pacing: bool, out: &mut Vec<Output>) {
        // Idle restart (stock TCP only): collapse to IW after idle.
        if self.slow_start_after_idle
            && self.bytes_in_flight == 0
            && self.has_pending()
            && now.saturating_since(self.last_send) > self.rtt.rto()
        {
            self.cc.clamp_cwnd(self.initial_window);
        }
        self.pacing_at = None;
        self.update_pacing_rate(cfg_pacing);

        loop {
            // 1. pick what to send: retransmissions first.
            let (seq, len, retx) = if let Some(r) = self.lost.iter().next() {
                (r.start, r.len().min(self.mss) as u32, true)
            } else if self.snd_nxt < self.app_limit {
                // Flow control: never exceed the peer's buffer.
                if self.snd_nxt - self.snd_una >= self.peer_rwnd {
                    break;
                }
                let len = (self.app_limit - self.snd_nxt).min(self.mss) as u32;
                (self.snd_nxt, len, false)
            } else {
                self.rate.set_app_limited(true);
                break;
            };

            // 2. congestion window gate. When nothing is in flight the
            // sender may always emit one segment (otherwise a cwnd
            // collapsed below one MSS would deadlock the connection).
            if self.bytes_in_flight > 0 && self.bytes_in_flight + u64::from(len) > self.cc.cwnd() {
                break;
            }

            // 3. pacing gate.
            if self.pacing_enabled() {
                let release = self.pacer.release_time(now, u64::from(len));
                if release > now {
                    crate::obs::instant(
                        self.obs,
                        pq_obs::Level::Debug,
                        now,
                        || format!("pacing hold {}", self.dir_label()),
                        || vec![("wait_ns", pq_obs::ArgValue::U64((release - now).as_nanos()))],
                    );
                    self.pacing_at = Some(release);
                    break;
                }
            }

            // Commit the send.
            let end = seq + u64::from(len);
            if retx {
                self.lost.remove(seq, end);
                self.retransmits += 1;
                out.push(Output::Trace(TraceKind::Retransmit, seq));
                crate::obs::instant(
                    self.obs,
                    pq_obs::Level::Info,
                    now,
                    || format!("retransmit {}", self.dir_label()),
                    || vec![("seq", pq_obs::ArgValue::U64(seq))],
                );
            }
            self.pacer.on_send(now, u64::from(len));
            self.inflight.insert(
                seq,
                SentSeg {
                    end,
                    sent_at: now,
                    retx,
                    tx: self.rate.on_send(now),
                },
            );
            self.bytes_in_flight += u64::from(len);
            if !retx {
                self.snd_nxt = end;
            }
            self.last_send = now;
            if self.rto_at.is_none() {
                self.rto_at = Some(now + self.rtt.rto());
            }
            out.push(Output::Send(
                self.direction(),
                Packet::new(
                    ConnId(0), // caller rewrites
                    0,         // caller computes from wire_size
                    Wire::Tcp(TcpSegment {
                        from_client: self.from_client,
                        kind: TcpSegKind::Data { seq, len, retx },
                    }),
                ),
            ));
        }
    }

    fn direction(&self) -> Direction {
        if self.from_client {
            Direction::Up
        } else {
            Direction::Down
        }
    }

    /// Process an ACK for this direction's data.
    #[expect(
        clippy::indexing_slicing,
        reason = "`start` was collected from `inflight`'s own keys, and only the entry just read is removed"
    )]
    fn on_ack(
        &mut self,
        now: SimTime,
        cum: u64,
        sacks: &[Range],
        cfg_pacing: bool,
        out: &mut Vec<Output>,
    ) {
        let mut newly_acked = 0u64;
        let mut rtt_sample: Option<SimDuration> = None;
        let mut rate_sample = None;

        // Cumulative advance.
        if cum > self.snd_una {
            newly_acked += cum - self.snd_una;
            // Drop covered segments, sampling from the newest
            // non-retransmitted one (Karn's rule).
            let covered: Vec<u64> = self.inflight.range(..cum).map(|(s, _)| *s).collect();
            for start in covered {
                let seg = self.inflight[&start];
                if seg.end <= cum {
                    self.inflight.remove(&start);
                    self.bytes_in_flight = self.bytes_in_flight.saturating_sub(seg.end - start);
                    if !seg.retx {
                        rtt_sample = Some(now - seg.sent_at);
                    }
                    self.track_delivered(seg.sent_at, start);
                    let sample = self.rate.on_ack(now, seg.end - start, seg.tx);
                    if sample.is_some() {
                        rate_sample = sample;
                    }
                } else {
                    // Partial coverage (a retransmission chunk spanned
                    // the ACK point): shrink the segment.
                    let Some(mut seg) = self.inflight.remove(&start) else {
                        continue; // start came from the range scan above
                    };
                    self.bytes_in_flight = self.bytes_in_flight.saturating_sub(cum - start);
                    self.track_delivered(seg.sent_at, start);
                    let sample = self.rate.on_ack(now, cum - start, seg.tx);
                    if sample.is_some() {
                        rate_sample = sample;
                    }
                    seg.tx = self.rate.on_send(now); // refresh baseline
                    self.inflight.insert(cum, seg);
                }
            }
            self.snd_una = cum;
            self.sacked.remove_below(cum);
            self.lost.remove_below(cum);
        }

        // Selective blocks.
        for r in sacks {
            if r.end <= self.snd_una {
                continue;
            }
            let added = self.sacked.insert(r.start.max(self.snd_una), r.end);
            if added > 0 {
                newly_acked += added;
                // Retire fully-SACKed segments.
                let covered: Vec<u64> = self
                    .inflight
                    .range(r.start.saturating_sub(self.mss)..r.end)
                    .filter(|(s, seg)| self.sacked.contains_range(**s, seg.end))
                    .map(|(s, _)| *s)
                    .collect();
                for start in covered {
                    let Some(seg) = self.inflight.remove(&start) else {
                        continue; // covered starts came from `inflight`
                    };
                    self.bytes_in_flight = self.bytes_in_flight.saturating_sub(seg.end - start);
                    if !seg.retx {
                        rtt_sample = Some(now - seg.sent_at);
                    }
                    self.track_delivered(seg.sent_at, start);
                    let sample = self.rate.on_ack(now, seg.end - start, seg.tx);
                    if sample.is_some() {
                        rate_sample = sample;
                    }
                }
                // Anything the receiver holds beyond this block was
                // also delivered; the watermark advances via segments.
            }
        }

        if let Some(s) = rtt_sample {
            self.rtt.on_sample(s);
        }

        // Loss marking: a hole is lost when ≥ DUP_THRESH·MSS bytes are
        // SACKed above it *and* something sent after it was delivered
        // (RACK tie-break handles retransmissions).
        let mut lost_any = false;
        if !self.sacked.is_empty() {
            let high = self.sacked.max_end();
            let to_mark: Vec<(u64, u64)> = self
                .inflight
                .range(..high)
                .filter(|(start, seg)| {
                    let sacked_above = self
                        .sacked
                        .iter()
                        .filter(|r| r.start >= seg.end)
                        .map(|r| r.len())
                        .sum::<u64>();
                    sacked_above >= DUP_THRESH_SEGS * self.mss
                        && (self.newest_delivered > (seg.sent_at, **start))
                        && !self.sacked.contains_range(**start, seg.end)
                })
                .map(|(s, seg)| (*s, seg.end))
                .collect();
            for (start, end) in to_mark {
                self.inflight.remove(&start);
                self.bytes_in_flight = self.bytes_in_flight.saturating_sub(end - start);
                self.lost.insert(start, end);
                // Exclude any SACKed slivers.
                for r in self.sacked.iter().collect::<Vec<_>>() {
                    self.lost.remove(r.start, r.end);
                }
                lost_any = true;
            }
        }
        if lost_any && self.snd_una >= self.recovery_until {
            // Enter a new recovery episode: one reduction per episode.
            self.cc.on_congestion_event(now, self.bytes_in_flight);
            self.congestion_events += 1;
            self.recovery_until = self.snd_nxt;
        }

        if newly_acked > 0 {
            self.cc.on_ack(&AckInfo {
                now,
                acked_bytes: newly_acked,
                rtt: rtt_sample,
                srtt: self.rtt.srtt(),
                min_rtt: Some(self.rtt.min_rtt()),
                rate: rate_sample,
                in_flight: self.bytes_in_flight,
            });
            crate::obs::ack_counters(
                self.obs,
                now,
                self.dir_label(),
                self.cc.cwnd(),
                self.cc.ssthresh(),
                self.rtt.srtt(),
            );
        }

        // Re-arm or clear the RTO.
        self.rto_at = if self.inflight.is_empty() && self.lost.is_empty() {
            None
        } else {
            Some(now + self.rtt.rto())
        };

        self.try_send(now, cfg_pacing, out);
    }

    fn track_delivered(&mut self, sent_at: SimTime, seq: u64) {
        if (sent_at, seq) > self.newest_delivered {
            self.newest_delivered = (sent_at, seq);
        }
    }

    /// Fire the retransmission timeout.
    fn on_rto(&mut self, now: SimTime, cfg_pacing: bool, out: &mut Vec<Output>) {
        out.push(Output::Trace(TraceKind::Rto, self.snd_una));
        crate::obs::instant(
            self.obs,
            pq_obs::Level::Info,
            now,
            || format!("RTO {}", self.dir_label()),
            Vec::new,
        );
        self.rtt.on_rto_fired();
        self.cc.on_rto(now);
        // Everything unSACKed in flight is presumed lost.
        let segs: Vec<(u64, u64)> = self.inflight.iter().map(|(s, seg)| (*s, seg.end)).collect();
        for (start, end) in segs {
            self.inflight.remove(&start);
            self.bytes_in_flight = self.bytes_in_flight.saturating_sub(end - start);
            self.lost.insert(start, end);
        }
        for r in self.sacked.iter().collect::<Vec<_>>() {
            self.lost.remove(r.start, r.end);
        }
        self.recovery_until = self.snd_nxt;
        self.rto_at = Some(now + self.rtt.rto());
        self.try_send(now, cfg_pacing, out);
    }

    fn poll_at(&self) -> SimTime {
        let mut t = SimTime::MAX;
        if let Some(x) = self.rto_at {
            t = t.min(x);
        }
        if let Some(x) = self.pacing_at {
            t = t.min(x);
        }
        t
    }

    fn all_acked(&self) -> bool {
        self.snd_una >= self.app_limit
    }
}

/// One direction's receiving half.
#[derive(Debug)]
struct TcpReceiver {
    rcv_nxt: u64,
    ooo: RangeSet,
    max_sack_blocks: usize,
    delack_at: Option<SimTime>,
    segs_since_ack: u32,
    total_segs: u64,
    /// Last progress value reported to the application.
    reported: u64,
}

impl TcpReceiver {
    fn new(max_sack_blocks: usize) -> Self {
        TcpReceiver {
            rcv_nxt: 0,
            ooo: RangeSet::new(),
            max_sack_blocks,
            delack_at: None,
            segs_since_ack: 0,
            total_segs: 0,
            reported: 0,
        }
    }

    /// Ingest a data segment; returns `true` when an ACK should leave
    /// immediately (otherwise the delayed-ACK timer is armed).
    fn on_data(&mut self, now: SimTime, seq: u64, len: u32) -> bool {
        self.total_segs += 1;
        let end = seq + u64::from(len);
        let mut out_of_order = false;
        if end <= self.rcv_nxt {
            // Pure duplicate: ACK immediately so the sender learns.
            return true;
        }
        if seq > self.rcv_nxt {
            out_of_order = true;
        }
        self.ooo.insert(seq.max(self.rcv_nxt), end);
        self.rcv_nxt = self.ooo.advance_from(self.rcv_nxt);
        self.ooo.remove_below(self.rcv_nxt);

        self.segs_since_ack += 1;
        let immediate = out_of_order
            || !self.ooo.is_empty()
            || self.total_segs <= QUICKACK_SEGS
            || self.segs_since_ack >= 2;
        if !immediate && self.delack_at.is_none() {
            self.delack_at = Some(now + DELACK);
        }
        immediate
    }

    fn make_ack(&mut self, from_client: bool) -> TcpSegment {
        self.segs_since_ack = 0;
        self.delack_at = None;
        TcpSegment {
            from_client,
            kind: TcpSegKind::Ack {
                cum: self.rcv_nxt,
                sacks: self.ooo.highest(self.max_sack_blocks),
            },
        }
    }
}

/// TLS-over-TCP handshake progress.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum HsState {
    /// Client sent SYN, waiting for SYN-ACK.
    SynSent,
    /// Client sent ClientHello, waiting for the server flight.
    HelloSent,
    /// Both sides may exchange application data.
    Established,
}

/// A full TCP+TLS connection (both endpoints).
#[derive(Debug)]
pub struct TcpConnection {
    id: ConnId,
    cfg: StackConfig,
    hs: HsState,
    /// Flight parts the client has received.
    flight_recv: u8,
    /// Server became established (saw Finished or data).
    server_established: bool,
    /// Client handshake retransmission timer.
    hs_timer: Option<SimTime>,
    hs_backoff: u32,
    /// Server-side handshake retransmission timer.
    srv_hs_timer: Option<SimTime>,
    srv_hs_backoff: u32,
    srv_sent_flight: bool,
    syn_sent_at: SimTime,
    synack_sent_at: SimTime,
    /// Client→server pipe.
    c2s_snd: TcpSender,
    c2s_rcv: TcpReceiver,
    /// Server→client pipe.
    s2c_snd: TcpSender,
    s2c_rcv: TcpReceiver,
    out: Vec<Output>,
    /// When the connection was opened (handshake-span start).
    opened_at: SimTime,
    /// Trace track for connection-level spans.
    obs_track: crate::obs::Track,
}

impl TcpConnection {
    /// Open a connection: the client immediately emits its SYN.
    pub fn new(id: ConnId, cfg: StackConfig, now: SimTime) -> Self {
        // TFO + TLS 1.3 early data: the client may write application
        // data immediately; it flows behind the SYN/ClientHello and
        // the server answers without waiting for the full handshake.
        let zero_rtt = cfg.zero_rtt;
        let mut conn = TcpConnection {
            id,
            hs: if zero_rtt {
                HsState::Established
            } else {
                HsState::SynSent
            },
            flight_recv: 0,
            server_established: false,
            hs_timer: Some(now + SimDuration::from_secs(1)),
            hs_backoff: 0,
            srv_hs_timer: None,
            srv_hs_backoff: 0,
            srv_sent_flight: false,
            syn_sent_at: now,
            synack_sent_at: now,
            c2s_snd: TcpSender::new(true, &cfg, now),
            c2s_rcv: TcpReceiver::new(cfg.max_sack_blocks),
            s2c_snd: TcpSender::new(false, &cfg, now),
            s2c_rcv: TcpReceiver::new(cfg.max_sack_blocks),
            cfg,
            out: Vec::new(),
            opened_at: now,
            obs_track: None,
        };
        conn.send_ctl(true, TcpSegKind::Syn);
        if zero_rtt {
            // The cookie'd SYN carries the ClientHello + early data;
            // the handshake timer still guards the SYN itself.
            conn.send_ctl(true, TcpSegKind::ClientHello);
            conn.out.push(Output::HandshakeDone);
        }
        conn
    }

    /// The connection id.
    pub fn id(&self) -> ConnId {
        self.id
    }

    /// Attach the connection to a trace track (`pid` = the page load,
    /// `tid` = this connection's row): enables cwnd/ssthresh/sRTT
    /// counters, retransmit/RTO instants and the handshake span.
    pub fn set_obs_track(&mut self, pid: u32, tid: u32) {
        self.obs_track = Some((pid, tid));
        self.c2s_snd.obs = Some((pid, tid));
        self.s2c_snd.obs = Some((pid, tid));
    }

    /// True once the client may send application data.
    pub fn is_established(&self) -> bool {
        self.hs == HsState::Established
    }

    /// Total retransmitted segments over both directions (the §4.3
    /// TCP+ diagnostic).
    pub fn retransmits(&self) -> u64 {
        self.c2s_snd.retransmits + self.s2c_snd.retransmits
    }

    /// Drain pending outputs (send requests, progress events, traces).
    pub fn take_outputs(&mut self) -> Vec<Output> {
        let mut v = std::mem::take(&mut self.out);
        // Stamp conn ids and wire sizes on outgoing packets.
        for o in &mut v {
            if let Output::Send(_, pkt) = o {
                pkt.conn = self.id;
                if let Wire::Tcp(seg) = &pkt.payload {
                    pkt.size = seg.wire_size();
                }
            }
        }
        v
    }

    /// Drop buffered outgoing packets (fault injection). Non-`Send`
    /// outputs survive. The handshake timer / data RTOs recover.
    pub fn discard_pending_sends(&mut self) -> usize {
        let before = self.out.len();
        self.out.retain(|o| !matches!(o, Output::Send(..)));
        before - self.out.len()
    }

    fn send_ctl(&mut self, from_client: bool, kind: TcpSegKind) {
        let seg = TcpSegment { from_client, kind };
        let dir = if from_client {
            Direction::Up
        } else {
            Direction::Down
        };
        self.out.push(Output::Send(
            dir,
            Packet::new(self.id, seg.wire_size(), Wire::Tcp(seg)),
        ));
    }

    /// Client writes `bytes` of application data (e.g. an HTTP/2
    /// request) onto the byte stream.
    pub fn client_write(&mut self, now: SimTime, bytes: u64) {
        self.c2s_snd.write(bytes);
        if self.hs == HsState::Established {
            self.c2s_snd.try_send(now, self.cfg.pacing, &mut self.out);
        }
    }

    /// Server writes `bytes` (e.g. HTTP/2 response frames).
    pub fn server_write(&mut self, now: SimTime, bytes: u64) {
        self.s2c_snd.write(bytes);
        if self.server_established {
            self.s2c_snd.try_send(now, self.cfg.pacing, &mut self.out);
        }
    }

    /// Bytes of client data delivered in order at the server.
    pub fn server_delivered(&self) -> u64 {
        self.c2s_rcv.rcv_nxt
    }

    /// Server-side send backlog: bytes written by the server
    /// application but not yet transmitted. HTTP/2 response writers
    /// use this for bounded-lookahead interleaving (commit small
    /// frames only while the transport is hungry, so late-arriving
    /// responses can still be multiplexed fairly).
    pub fn server_backlog(&self) -> u64 {
        self.s2c_snd.app_limit - self.s2c_snd.snd_nxt
    }

    /// Bytes of server data delivered in order at the client.
    pub fn client_delivered(&self) -> u64 {
        self.s2c_rcv.rcv_nxt
    }

    /// A packet arrived at one endpoint (`Direction::Up` = at server).
    pub fn on_packet(&mut self, now: SimTime, wire: &Wire, arrived: Direction) {
        let Wire::Tcp(seg) = wire else {
            debug_assert!(false, "QUIC packet delivered to TCP connection");
            return;
        };
        match (&seg.kind, arrived) {
            (TcpSegKind::Syn, Direction::Up) => {
                self.synack_sent_at = now;
                self.send_ctl(false, TcpSegKind::SynAck);
                self.srv_hs_timer = Some(now + SimDuration::from_secs(1));
            }
            (TcpSegKind::SynAck, Direction::Down) if self.hs == HsState::SynSent => {
                self.c2s_snd.rtt.on_sample(now - self.syn_sent_at);
                self.hs = HsState::HelloSent;
                self.send_ctl(true, TcpSegKind::ClientHello);
                self.hs_backoff = 0;
                self.hs_timer = Some(now + self.c2s_snd.rtt.rto());
            }
            (TcpSegKind::ClientHello, Direction::Up) => {
                self.s2c_snd.rtt.on_sample(now - self.synack_sent_at);
                self.send_server_flight(now);
            }
            (TcpSegKind::ServerFlight { part, of }, Direction::Down) => {
                let _ = part;
                if self.hs != HsState::Established {
                    self.flight_recv += 1;
                    if self.flight_recv >= *of {
                        self.hs = HsState::Established;
                        self.hs_timer = None;
                        self.send_ctl(true, TcpSegKind::ClientFinished);
                        self.out.push(Output::HandshakeDone);
                        self.out.push(Output::Trace(TraceKind::HandshakeDone, 0));
                        crate::obs::handshake_span(
                            self.obs_track,
                            self.opened_at,
                            now,
                            self.cfg.protocol.label(),
                        );
                        // Any queued request leaves right now.
                        self.c2s_snd.try_send(now, self.cfg.pacing, &mut self.out);
                    }
                }
            }
            (TcpSegKind::ClientFinished, Direction::Up) => {
                self.establish_server(now);
            }
            (TcpSegKind::Data { seq, len, .. }, dir) => {
                if dir == Direction::Up {
                    // Data implies the handshake completed.
                    self.establish_server(now);
                }
                let (rcv, from_client) = match dir {
                    Direction::Up => (&mut self.c2s_rcv, false),
                    Direction::Down => (&mut self.s2c_rcv, true),
                };
                let immediate = rcv.on_data(now, *seq, *len);
                let progress = rcv.rcv_nxt;
                if immediate {
                    let ack = rcv.make_ack(from_client);
                    let dir_out = if from_client {
                        Direction::Up
                    } else {
                        Direction::Down
                    };
                    self.out.push(Output::Send(
                        dir_out,
                        Packet::new(self.id, ack.wire_size(), Wire::Tcp(ack)),
                    ));
                }
                // Report in-order delivery progress to the app.
                let rcv = match dir {
                    Direction::Up => &mut self.c2s_rcv,
                    Direction::Down => &mut self.s2c_rcv,
                };
                if progress > rcv.reported {
                    rcv.reported = progress;
                    let ev = match dir {
                        Direction::Up => Output::ServerStreamProgress {
                            stream: StreamId(0),
                            delivered: progress,
                            fin: false,
                        },
                        Direction::Down => Output::ClientStreamProgress {
                            stream: StreamId(0),
                            delivered: progress,
                            fin: false,
                        },
                    };
                    self.out.push(ev);
                }
            }
            (TcpSegKind::Ack { cum, sacks }, dir) => {
                // An ACK arriving at the server acknowledges s2c data …
                // no: an ACK arriving at the *server* came from the
                // client and acknowledges *server* data (s2c pipe).
                let snd = match dir {
                    Direction::Up => &mut self.s2c_snd,
                    Direction::Down => &mut self.c2s_snd,
                };
                snd.on_ack(now, *cum, sacks, self.cfg.pacing, &mut self.out);
            }
            // Stray packets (e.g. a retransmitted SYN after
            // establishment) are ignored.
            _ => {}
        }
    }

    fn establish_server(&mut self, now: SimTime) {
        if !self.server_established {
            self.server_established = true;
            self.srv_hs_timer = None;
            self.s2c_snd.try_send(now, self.cfg.pacing, &mut self.out);
        }
    }

    fn send_server_flight(&mut self, now: SimTime) {
        self.srv_sent_flight = true;
        for part in 0..SERVER_FLIGHT_PARTS {
            self.send_ctl(
                false,
                TcpSegKind::ServerFlight {
                    part,
                    of: SERVER_FLIGHT_PARTS,
                },
            );
        }
        self.srv_hs_timer = Some(now + self.s2c_snd.rtt.rto().max(SimDuration::from_secs(1)));
    }

    /// Earliest internal timer.
    pub fn poll_at(&self) -> SimTime {
        let mut t = SimTime::MAX;
        for x in [
            self.hs_timer,
            self.srv_hs_timer,
            self.c2s_rcv.delack_at,
            self.s2c_rcv.delack_at,
        ]
        .into_iter()
        .flatten()
        {
            t = t.min(x);
        }
        t.min(self.c2s_snd.poll_at()).min(self.s2c_snd.poll_at())
    }

    /// Service any expired timers.
    pub fn on_wake(&mut self, now: SimTime) {
        // Client handshake retransmissions.
        if self.hs_timer.is_some_and(|t| t <= now) {
            self.hs_backoff += 1;
            let backoff = SimDuration::from_secs(1) * (1 << self.hs_backoff.min(6));
            match self.hs {
                HsState::SynSent => {
                    self.send_ctl(true, TcpSegKind::Syn);
                    self.hs_timer = Some(now + backoff);
                }
                HsState::HelloSent => {
                    self.send_ctl(true, TcpSegKind::ClientHello);
                    self.hs_timer = Some(now + backoff);
                }
                HsState::Established => self.hs_timer = None,
            }
        }
        // Server handshake retransmissions.
        if self.srv_hs_timer.is_some_and(|t| t <= now) {
            if self.server_established {
                self.srv_hs_timer = None;
            } else {
                self.srv_hs_backoff += 1;
                let backoff = SimDuration::from_secs(1) * (1 << self.srv_hs_backoff.min(6));
                if self.srv_sent_flight {
                    self.send_server_flight(now);
                } else {
                    self.send_ctl(false, TcpSegKind::SynAck);
                }
                self.srv_hs_timer = Some(now + backoff);
            }
        }
        // Delayed ACKs.
        if self.c2s_rcv.delack_at.is_some_and(|t| t <= now) {
            let ack = self.c2s_rcv.make_ack(false);
            self.out.push(Output::Send(
                Direction::Down,
                Packet::new(self.id, ack.wire_size(), Wire::Tcp(ack)),
            ));
        }
        if self.s2c_rcv.delack_at.is_some_and(|t| t <= now) {
            let ack = self.s2c_rcv.make_ack(true);
            self.out.push(Output::Send(
                Direction::Up,
                Packet::new(self.id, ack.wire_size(), Wire::Tcp(ack)),
            ));
        }
        // RTOs and pacing resumes.
        if self.c2s_snd.rto_at.is_some_and(|t| t <= now) {
            let _rto_span = pq_prof::span("transport:rto-retransmit");
            pq_prof::tick("tcp:rto");
            self.c2s_snd.on_rto(now, self.cfg.pacing, &mut self.out);
        }
        if self.s2c_snd.rto_at.is_some_and(|t| t <= now) {
            let _rto_span = pq_prof::span("transport:rto-retransmit");
            pq_prof::tick("tcp:rto");
            self.s2c_snd.on_rto(now, self.cfg.pacing, &mut self.out);
        }
        if self.c2s_snd.pacing_at.is_some_and(|t| t <= now) {
            self.c2s_snd.try_send(now, self.cfg.pacing, &mut self.out);
        }
        if self.s2c_snd.pacing_at.is_some_and(|t| t <= now) {
            self.s2c_snd.try_send(now, self.cfg.pacing, &mut self.out);
        }
    }

    /// Server-side congestion window in bytes (diagnostics).
    pub fn server_cwnd(&self) -> u64 {
        self.s2c_snd.cc.cwnd()
    }

    /// Server-side congestion events and RTO-driven collapses.
    pub fn server_congestion_events(&self) -> u64 {
        self.s2c_snd.congestion_events
    }

    /// Server-side smoothed RTT (diagnostics).
    pub fn server_srtt(&self) -> Option<pq_sim::SimDuration> {
        self.s2c_snd.rtt.srtt()
    }

    /// True when every written byte in both directions was ACKed.
    pub fn quiescent(&self) -> bool {
        self.c2s_snd.all_acked() && self.s2c_snd.all_acked()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::Protocol;
    use pq_sim::NetworkKind;

    fn conn(proto: Protocol) -> TcpConnection {
        let net = NetworkKind::Dsl.config();
        TcpConnection::new(ConnId(1), proto.config(&net), SimTime::ZERO)
    }

    /// Drain outputs, returning just the sent segments.
    fn sent(c: &mut TcpConnection) -> Vec<(Direction, TcpSegment)> {
        c.take_outputs()
            .into_iter()
            .filter_map(|o| match o {
                Output::Send(d, p) => match p.payload {
                    Wire::Tcp(seg) => Some((d, seg)),
                    _ => None,
                },
                _ => None,
            })
            .collect()
    }

    #[test]
    fn opening_emits_exactly_one_syn() {
        let mut c = conn(Protocol::Tcp);
        let out = sent(&mut c);
        assert_eq!(out.len(), 1);
        assert!(matches!(out[0].1.kind, TcpSegKind::Syn));
        assert_eq!(out[0].0, Direction::Up);
        assert!(!c.is_established());
    }

    #[test]
    fn handshake_message_sequence() {
        let mut c = conn(Protocol::TcpPlus);
        let syn = sent(&mut c).remove(0).1;
        c.on_packet(SimTime::from_millis(12), &Wire::Tcp(syn), Direction::Up);
        let synack = sent(&mut c).remove(0).1;
        assert!(matches!(synack.kind, TcpSegKind::SynAck));
        c.on_packet(
            SimTime::from_millis(24),
            &Wire::Tcp(synack),
            Direction::Down,
        );
        let ch = sent(&mut c).remove(0).1;
        assert!(matches!(ch.kind, TcpSegKind::ClientHello));
        c.on_packet(SimTime::from_millis(36), &Wire::Tcp(ch), Direction::Up);
        let flight = sent(&mut c);
        assert_eq!(flight.len(), 3, "TLS server flight in 3 parts");
        for (_, seg) in &flight {
            c.on_packet(
                SimTime::from_millis(48),
                &Wire::Tcp(seg.clone()),
                Direction::Down,
            );
        }
        assert!(c.is_established(), "client ready after the full flight");
        let fin = sent(&mut c);
        assert!(fin
            .iter()
            .any(|(_, s)| matches!(s.kind, TcpSegKind::ClientFinished)));
    }

    #[test]
    fn duplicate_synack_is_harmless() {
        let mut c = conn(Protocol::Tcp);
        let syn = sent(&mut c).remove(0).1;
        c.on_packet(SimTime::from_millis(12), &Wire::Tcp(syn), Direction::Up);
        let synack = sent(&mut c).remove(0).1;
        c.on_packet(
            SimTime::from_millis(24),
            &Wire::Tcp(synack.clone()),
            Direction::Down,
        );
        let first = sent(&mut c).len();
        assert_eq!(first, 1, "one ClientHello");
        c.on_packet(
            SimTime::from_millis(25),
            &Wire::Tcp(synack),
            Direction::Down,
        );
        assert!(sent(&mut c).is_empty(), "dup SYN-ACK ignored in HelloSent");
    }

    #[test]
    fn data_implies_server_establishment() {
        // A lost ClientFinished must not strand the server: data
        // arriving at the server side establishes it.
        let mut c = conn(Protocol::Tcp);
        let _syn = sent(&mut c);
        let data = TcpSegment {
            from_client: true,
            kind: TcpSegKind::Data {
                seq: 0,
                len: 400,
                retx: false,
            },
        };
        c.server_write(SimTime::from_millis(1), 1000);
        assert!(sent(&mut c).is_empty(), "server holds until established");
        c.on_packet(SimTime::from_millis(2), &Wire::Tcp(data), Direction::Up);
        let out = sent(&mut c);
        assert!(
            out.iter()
                .any(|(d, s)| *d == Direction::Down && matches!(s.kind, TcpSegKind::Data { .. })),
            "server flushes after implicit establishment: {out:?}"
        );
    }

    #[test]
    fn receiver_acks_every_second_segment_after_quickack() {
        let mut c = conn(Protocol::Tcp);
        let _syn = sent(&mut c);
        // Push enough in-order data segments at the client side.
        let mut acks = 0;
        for i in 0..40u64 {
            let seg = TcpSegment {
                from_client: false,
                kind: TcpSegKind::Data {
                    seq: i * 1460,
                    len: 1460,
                    retx: false,
                },
            };
            c.on_packet(SimTime::from_millis(i), &Wire::Tcp(seg), Direction::Down);
            acks += sent(&mut c)
                .iter()
                .filter(|(d, s)| *d == Direction::Up && matches!(s.kind, TcpSegKind::Ack { .. }))
                .count();
        }
        // 16 quickacks + every 2nd of the remaining 24 = 28.
        assert_eq!(acks, 28, "delayed-ACK cadence");
    }

    #[test]
    fn out_of_order_data_produces_sack_blocks() {
        let mut c = conn(Protocol::Tcp);
        let _syn = sent(&mut c);
        // Deliver segment 2 before segment 1.
        let seg2 = TcpSegment {
            from_client: false,
            kind: TcpSegKind::Data {
                seq: 2920,
                len: 1460,
                retx: false,
            },
        };
        c.on_packet(SimTime::from_millis(1), &Wire::Tcp(seg2), Direction::Down);
        let out = sent(&mut c);
        let ack = out
            .iter()
            .find_map(|(_, s)| match &s.kind {
                TcpSegKind::Ack { cum, sacks } => Some((*cum, sacks.clone())),
                _ => None,
            })
            .expect("immediate dup-ACK on gap");
        assert_eq!(ack.0, 0, "cumulative point unchanged");
        assert_eq!(ack.1.len(), 1);
        assert_eq!(ack.1[0].start, 2920);
        assert_eq!(ack.1[0].end, 4380);
    }

    #[test]
    fn progress_reported_in_order_only() {
        let mut c = conn(Protocol::Tcp);
        let _syn = c.take_outputs();
        let mk = |seq: u64| TcpSegment {
            from_client: false,
            kind: TcpSegKind::Data {
                seq,
                len: 1000,
                retx: false,
            },
        };
        c.on_packet(
            SimTime::from_millis(1),
            &Wire::Tcp(mk(1000)),
            Direction::Down,
        );
        let progress: Vec<u64> = c
            .take_outputs()
            .iter()
            .filter_map(|o| match o {
                Output::ClientStreamProgress { delivered, .. } => Some(*delivered),
                _ => None,
            })
            .collect();
        assert!(progress.is_empty(), "hole blocks delivery: {progress:?}");
        c.on_packet(SimTime::from_millis(2), &Wire::Tcp(mk(0)), Direction::Down);
        let progress: Vec<u64> = c
            .take_outputs()
            .iter()
            .filter_map(|o| match o {
                Output::ClientStreamProgress { delivered, .. } => Some(*delivered),
                _ => None,
            })
            .collect();
        assert_eq!(progress, vec![2000], "hole filled releases both segments");
    }

    #[test]
    fn zero_rtt_client_sends_request_immediately() {
        let net = NetworkKind::Lte.config();
        let mut c = TcpConnection::new(
            ConnId(1),
            Protocol::TcpPlus.config_zero_rtt(&net),
            SimTime::ZERO,
        );
        assert!(c.is_established(), "TFO+early-data is ready at once");
        c.client_write(SimTime::ZERO, 400);
        let out = sent(&mut c);
        assert!(
            out.iter()
                .any(|(_, s)| matches!(s.kind, TcpSegKind::Data { .. })),
            "request flows with the first flight: {out:?}"
        );
    }

    #[test]
    fn wire_sizes_are_stamped_on_outputs() {
        let mut c = conn(Protocol::Tcp);
        for o in c.take_outputs() {
            if let Output::Send(_, p) = o {
                assert!(p.size > 0, "caller-visible packets have sizes");
                assert_eq!(p.conn, ConnId(1));
            }
        }
    }
}
