//! The gQUIC connection model.
//!
//! Structural differences from [`crate::tcp`] — exactly the ones the
//! paper credits for QUIC's perceived speed (§3, §4.3):
//!
//! * **1-RTT handshake**: CHLO → SHLO flight → data (the paper runs a
//!   fresh cache, so no 0-RTT; still one RTT ahead of TCP+TLS).
//! * **Independent streams**: a lost packet only stalls the streams
//!   whose frames it carried; other responses keep rendering.
//! * **Unambiguous loss detection**: packet numbers are never reused,
//!   and ACK frames carry an unbounded range list (vs. TCP's 3 SACK
//!   blocks), so a burst of losses is repaired in one round trip.
//! * Pacing and IW32 are on by default (Table 1), Cubic or BBRv1.

use crate::api::{Output, StreamId};
use crate::cc::{AckInfo, CongestionControl};
use crate::config::StackConfig;
use crate::pacing::Pacer;
use crate::rangeset::{Range, RangeSet};
use crate::rate::{RateSampler, TxRecord};
use crate::rtt::RttEstimator;
use crate::wire::{QuicFrame, QuicPacket, Wire};
use pq_sim::{ConnId, Direction, Packet, SimDuration, SimTime, TraceKind};
use std::collections::BTreeMap;

/// SHLO/REJ flight: server config + certs ≈ 2 packets.
const SHLO_PARTS: u8 = 2;
/// Packet-number reordering threshold for loss detection.
const PKT_THRESH: u64 = 3;
/// Max ACK delay before a pending ACK is flushed.
const ACK_DELAY: SimDuration = SimDuration::from_millis(25);
/// Per-stream flow-control window (gQUIC defaults are generous; the
/// receiving browser drains instantly so this almost never binds).
const STREAM_WINDOW: u64 = 6 * 1024 * 1024;
/// Most recent received-packet ranges advertised per ACK frame. Lost
/// packet numbers are never resent, so old holes are permanent;
/// advertising the full history would bloat ACKs without information
/// (the sender has long declared those packets lost). Still an order
/// of magnitude more range feedback than TCP's 3 SACK blocks.
const MAX_ACK_RANGES: usize = 32;

/// Frames that need retransmission tracking.
#[derive(Clone, Debug)]
enum SentFrame {
    Chlo,
    Shlo { part: u8, of: u8 },
    Stream { id: u64, offset: u64, len: u32 },
}

#[derive(Clone, Debug)]
struct SentPacket {
    size: u32,
    sent_at: SimTime,
    frames: Vec<SentFrame>,
    tx: TxRecord,
    ack_eliciting: bool,
}

/// Sending side of one stream.
#[derive(Debug, Default)]
struct SendStream {
    /// Total bytes the application wrote.
    limit: u64,
    fin: bool,
    /// Next fresh offset to packetize.
    next_offset: u64,
    /// Ranges needing retransmission.
    lost: RangeSet,
    /// Ranges the peer acknowledged.
    acked: RangeSet,
}

impl SendStream {
    fn fully_acked(&self) -> bool {
        self.acked.covered() >= self.limit && self.next_offset >= self.limit
    }
}

/// Receiving side of one stream.
#[derive(Debug, Default)]
struct RecvStream {
    ooo: RangeSet,
    cum: u64,
    fin_at: Option<u64>,
    reported: u64,
    reported_fin: bool,
}

/// One QUIC endpoint (client or server half).
#[derive(Debug)]
struct QuicEndpoint {
    is_client: bool,
    mss: u64,
    next_pn: u64,
    sent: BTreeMap<u64, SentPacket>,
    bytes_in_flight: u64,
    largest_acked: Option<u64>,
    /// Receive state: which packet numbers arrived.
    recv_pns: RangeSet,
    ack_pending: bool,
    ack_at: Option<SimTime>,
    eliciting_since_ack: u32,
    /// An out-of-order arrival since the last ACK left (triggers an
    /// immediate ACK, as reordering/loss feedback must be prompt).
    ooo_pending: bool,
    send_streams: BTreeMap<u64, SendStream>,
    recv_streams: BTreeMap<u64, RecvStream>,
    cc: Box<dyn CongestionControl>,
    pacer: Pacer,
    rtt: RttEstimator,
    rate: RateSampler,
    rto_at: Option<SimTime>,
    pacing_at: Option<SimTime>,
    /// Congestion-cutback marker: only the loss of a packet *sent
    /// after* the previous cutback triggers a new one (gQUIC's
    /// `largest_sent_at_last_cutback` rule) — otherwise a burst of
    /// losses detected over several ACKs would multiply reductions.
    cutback_pn: u64,
    /// Handshake frames pending (re)transmission.
    hs_queue: Vec<SentFrame>,
    retransmits: u64,
    pacing_cfg: bool,
    /// Congestion events (cwnd reductions) — diagnostics.
    congestion_events: u64,
    /// Trace track for cwnd counters / loss instants (`None` = off).
    obs: crate::obs::Track,
}

impl QuicEndpoint {
    fn new(is_client: bool, cfg: &StackConfig, now: SimTime) -> Self {
        let _ = now;
        QuicEndpoint {
            is_client,
            mss: cfg.mss,
            next_pn: 1,
            sent: BTreeMap::new(),
            bytes_in_flight: 0,
            largest_acked: None,
            recv_pns: RangeSet::new(),
            ack_pending: false,
            ack_at: None,
            eliciting_since_ack: 0,
            ooo_pending: false,
            send_streams: BTreeMap::new(),
            recv_streams: BTreeMap::new(),
            cc: cfg
                .cc
                .build(cfg.mss, cfg.initial_window_bytes(), cfg.cubic_connections),
            pacer: Pacer::new(cfg.mss, 10, 2),
            rtt: RttEstimator::new(),
            rate: RateSampler::new(),
            rto_at: None,
            pacing_at: None,
            cutback_pn: 0,
            hs_queue: Vec::new(),
            retransmits: 0,
            pacing_cfg: cfg.pacing,
            congestion_events: 0,
            obs: None,
        }
    }

    /// Direction label for trace-event names.
    fn dir_label(&self) -> &'static str {
        if self.is_client {
            "up"
        } else {
            "down"
        }
    }

    fn direction(&self) -> Direction {
        if self.is_client {
            Direction::Up
        } else {
            Direction::Down
        }
    }

    fn update_pacing_rate(&mut self) {
        if let Some(rate) = self.cc.pacing_rate(self.rtt.srtt()) {
            self.pacer.set_rate(Some(rate));
        } else if self.pacing_cfg {
            if let Some(srtt) = self.rtt.srtt() {
                let factor = if self.cc.in_slow_start() { 2.0 } else { 1.2 };
                let rate = factor * self.cc.cwnd() as f64 / srtt.as_secs_f64().max(1e-6);
                self.pacer.set_rate(Some(rate));
            }
        } else {
            self.pacer.set_rate(None);
        }
    }

    /// Pending ACK ranges frame for the peer.
    fn maybe_ack_frame(&mut self) -> Option<QuicFrame> {
        if !self.ack_pending {
            return None;
        }
        self.ack_pending = false;
        self.ack_at = None;
        self.eliciting_since_ack = 0;
        self.ooo_pending = false;
        Some(QuicFrame::Ack {
            ranges: self.recv_pns.highest(MAX_ACK_RANGES),
        })
    }

    /// Choose the next stream chunk to send: retransmissions first
    /// (lowest stream id), then fresh data round-robin by stream id.
    fn next_chunk(&mut self) -> Option<(u64, u64, u32, bool, bool)> {
        // (stream, offset, len, fin, is_retx)
        for (id, s) in self.send_streams.iter() {
            if let Some(r) = s.lost.iter().next() {
                let len = r.len().min(self.mss) as u32;
                // FIN is a property of the stream's end, recomputed so
                // retransmitted tails keep it.
                let fin = s.fin && r.start + u64::from(len) >= s.limit;
                return Some((*id, r.start, len, fin, true));
            }
        }
        for (id, s) in self.send_streams.iter() {
            // Flow control: stay within a window of the contiguously
            // ACKed prefix (the receiving browser drains instantly, so
            // ACKed ≈ consumed).
            let consumed = s.acked.advance_from(0);
            if s.next_offset < s.limit && s.next_offset < consumed + STREAM_WINDOW {
                let len = (s.limit - s.next_offset).min(self.mss) as u32;
                let fin = s.fin && s.next_offset + u64::from(len) >= s.limit;
                return Some((*id, s.next_offset, len, fin, false));
            }
        }
        None
    }

    fn has_pending(&self) -> bool {
        !self.hs_queue.is_empty()
            || self
                .send_streams
                .values()
                .any(|s| !s.lost.is_empty() || s.next_offset < s.limit)
    }

    /// Packetize and emit everything congestion control and pacing
    /// allow right now.
    #[expect(
        clippy::unreachable,
        reason = "`hs_queue` only ever holds Chlo/Shlo; stream data goes through `send_streams`"
    )]
    fn try_send(&mut self, now: SimTime, conn: ConnId, out: &mut Vec<Output>) {
        self.pacing_at = None;
        self.update_pacing_rate();

        loop {
            let hs = !self.hs_queue.is_empty();
            let chunk = if hs { None } else { self.next_chunk() };
            let ack_only = !hs && chunk.is_none();
            if ack_only && !self.ack_pending {
                if !self.has_pending() {
                    self.rate.set_app_limited(true);
                }
                break;
            }

            // Estimate the packet size for gating.
            let est_size: u64 = if hs {
                1364
            } else {
                chunk.map_or(80, |c| u64::from(c.2) + 80)
            };

            if !ack_only {
                // Min-one-packet rule: with nothing in flight a sender
                // may always emit one packet, or a collapsed cwnd
                // (below one handshake packet) would deadlock.
                if self.bytes_in_flight > 0 && self.bytes_in_flight + est_size > self.cc.cwnd() {
                    break;
                }
                let release = self.pacer.release_time(now, est_size);
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

            // Build the packet.
            let mut frames = Vec::new();
            let mut sent_frames = Vec::new();
            if let Some(ack) = self.maybe_ack_frame() {
                frames.push(ack);
            }
            if hs {
                let f = self.hs_queue.remove(0);
                match &f {
                    SentFrame::Chlo => frames.push(QuicFrame::Chlo),
                    SentFrame::Shlo { part, of } => frames.push(QuicFrame::Shlo {
                        part: *part,
                        of: *of,
                    }),
                    SentFrame::Stream { .. } => unreachable!(),
                }
                sent_frames.push(f);
            } else if let Some((id, offset, len, fin, is_retx)) = chunk {
                // A chunk always references a live send stream; if the
                // map ever disagrees, drop the frame (the next poll
                // re-derives the chunk) instead of aborting the cell.
                if let Some(s) = self.send_streams.get_mut(&id) {
                    if is_retx {
                        s.lost.remove(offset, offset + u64::from(len));
                        self.retransmits += 1;
                        out.push(Output::Trace(TraceKind::Retransmit, id));
                        crate::obs::instant(
                            self.obs,
                            pq_obs::Level::Info,
                            now,
                            || format!("retransmit {}", self.dir_label()),
                            || vec![("stream", pq_obs::ArgValue::U64(id))],
                        );
                    } else {
                        s.next_offset = offset + u64::from(len);
                    }
                    frames.push(QuicFrame::Stream {
                        id,
                        offset,
                        len,
                        fin,
                    });
                    sent_frames.push(SentFrame::Stream { id, offset, len });
                }
            }

            let pn = self.next_pn;
            self.next_pn += 1;
            let pkt = QuicPacket {
                from_client: self.is_client,
                pn,
                frames,
            };
            let size = pkt.wire_size();
            let ack_eliciting = pkt.ack_eliciting();
            if ack_eliciting {
                self.bytes_in_flight += u64::from(size);
                self.pacer.on_send(now, u64::from(size));
                if self.rto_at.is_none() {
                    self.rto_at = Some(now + self.rtt.rto());
                }
            }
            self.sent.insert(
                pn,
                SentPacket {
                    size,
                    sent_at: now,
                    frames: sent_frames,
                    tx: self.rate.on_send(now),
                    ack_eliciting,
                },
            );
            out.push(Output::Send(
                self.direction(),
                Packet::new(conn, size, Wire::Quic(pkt)),
            ));

            if ack_only {
                break; // one pure ACK is enough
            }
        }
    }

    /// Record an arrived packet number.
    fn note_received(&mut self, now: SimTime, pn: u64, eliciting: bool) {
        // In-order = exactly the next expected packet number. Historic
        // holes are permanent (lost pns are never resent) and must not
        // force an immediate ACK forever.
        let in_order = pn == self.recv_pns.max_end();
        self.recv_pns.insert(pn, pn + 1);
        if eliciting {
            self.eliciting_since_ack += 1;
            self.ack_pending = true;
            if !in_order {
                self.ooo_pending = true;
            }
            // Immediate ACK on fresh reordering or every 2nd packet;
            // otherwise arm the delayed-ACK timer.
            if !(self.ooo_pending || self.eliciting_since_ack >= 2) && self.ack_at.is_none() {
                self.ack_at = Some(now + ACK_DELAY);
            }
        }
    }

    fn ack_should_flush_now(&self) -> bool {
        self.ack_pending && (self.ooo_pending || self.eliciting_since_ack >= 2)
    }

    /// Process an ACK frame from the peer.
    fn on_ack_frame(
        &mut self,
        now: SimTime,
        ranges: &[Range],
        conn: ConnId,
        out: &mut Vec<Output>,
    ) {
        let mut newly_acked_bytes = 0u64;
        let mut rtt_sample = None;
        let mut rate_sample = None;
        let mut largest_newly = None;

        for r in ranges {
            let pns: Vec<u64> = self.sent.range(r.start..r.end).map(|(p, _)| *p).collect();
            for pn in pns {
                let Some(sp) = self.sent.remove(&pn) else {
                    continue; // pn was collected from `sent` just above
                };
                if sp.ack_eliciting {
                    self.bytes_in_flight = self.bytes_in_flight.saturating_sub(u64::from(sp.size));
                    newly_acked_bytes += u64::from(sp.size);
                }
                largest_newly = Some(largest_newly.map_or(pn, |l: u64| l.max(pn)));
                for f in &sp.frames {
                    if let SentFrame::Stream { id, offset, len } = f {
                        if let Some(s) = self.send_streams.get_mut(id) {
                            s.acked.insert(*offset, *offset + u64::from(*len));
                        }
                    }
                }
                let sample = self.rate.on_ack(now, u64::from(sp.size), sp.tx);
                if sample.is_some() {
                    rate_sample = sample;
                }
                if Some(pn) == largest_newly {
                    rtt_sample = Some(now - sp.sent_at);
                }
            }
            self.largest_acked = Some(self.largest_acked.map_or(r.end - 1, |l| l.max(r.end - 1)));
        }

        if let Some(s) = rtt_sample {
            self.rtt.on_sample(s);
        }

        // Loss detection: packet threshold + time threshold.
        let mut lost_pns = Vec::new();
        if let Some(largest) = self.largest_acked {
            let time_thresh = self
                .rtt
                .srtt_or(SimDuration::from_millis(100))
                .max(self.rtt.latest())
                .mul_f64(1.125);
            for (pn, sp) in self.sent.iter() {
                if *pn >= largest {
                    break;
                }
                let by_count = largest >= pn + PKT_THRESH;
                let by_time = sp.sent_at + time_thresh <= now && largest > *pn;
                if by_count || by_time {
                    lost_pns.push(*pn);
                }
            }
        }
        let mut max_lost_eliciting: Option<u64> = None;
        for pn in &lost_pns {
            let Some(sp) = self.sent.remove(pn) else {
                continue; // lost pns were collected from `sent` above
            };
            if sp.ack_eliciting {
                // Only real data losses are congestion signals; a
                // "lost" pure-ACK packet carries nothing.
                self.bytes_in_flight = self.bytes_in_flight.saturating_sub(u64::from(sp.size));
                max_lost_eliciting = Some(max_lost_eliciting.map_or(*pn, |m| m.max(*pn)));
            }
            self.requeue_frames(sp.frames);
        }
        if let Some(lost_pn) = max_lost_eliciting {
            // New cutback only for losses of packets sent after the
            // previous cutback.
            if lost_pn >= self.cutback_pn {
                self.cc.on_congestion_event(now, self.bytes_in_flight);
                self.congestion_events += 1;
                self.cutback_pn = self.next_pn;
            }
        }

        if newly_acked_bytes > 0 {
            self.cc.on_ack(&AckInfo {
                now,
                acked_bytes: newly_acked_bytes,
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

        self.rto_at = if self.sent.values().any(|s| s.ack_eliciting) {
            Some(now + self.rtt.rto())
        } else {
            None
        };

        self.try_send(now, conn, out);
    }

    fn requeue_frames(&mut self, frames: Vec<SentFrame>) {
        for f in frames {
            match f {
                SentFrame::Chlo | SentFrame::Shlo { .. } => self.hs_queue.push(f),
                SentFrame::Stream { id, offset, len } => {
                    if let Some(s) = self.send_streams.get_mut(&id) {
                        // Only re-queue what the peer hasn't ACKed.
                        let end = offset + u64::from(len);
                        if !s.acked.contains_range(offset, end) {
                            s.lost.insert(offset, end);
                            for r in s.acked.iter().collect::<Vec<_>>() {
                                s.lost.remove(r.start, r.end);
                            }
                        }
                    }
                }
            }
        }
    }

    fn on_rto(&mut self, now: SimTime, conn: ConnId, out: &mut Vec<Output>) {
        out.push(Output::Trace(TraceKind::Rto, self.next_pn));
        crate::obs::instant(
            self.obs,
            pq_obs::Level::Info,
            now,
            || format!("RTO {}", self.dir_label()),
            Vec::new,
        );
        self.rtt.on_rto_fired();
        self.cc.on_rto(now);
        // Declare everything outstanding lost.
        let pns: Vec<u64> = self.sent.keys().copied().collect();
        for pn in pns {
            let Some(sp) = self.sent.remove(&pn) else {
                continue; // pns snapshot taken from `sent` just above
            };
            if sp.ack_eliciting {
                self.bytes_in_flight = self.bytes_in_flight.saturating_sub(u64::from(sp.size));
            }
            self.requeue_frames(sp.frames);
        }
        self.cutback_pn = self.next_pn;
        self.rto_at = Some(now + self.rtt.rto());
        self.try_send(now, conn, out);
    }

    fn poll_at(&self) -> SimTime {
        let mut t = SimTime::MAX;
        for x in [self.rto_at, self.pacing_at, self.ack_at]
            .into_iter()
            .flatten()
        {
            t = t.min(x);
        }
        t
    }
}

/// A full gQUIC connection (both endpoints).
#[derive(Debug)]
pub struct QuicConnection {
    id: ConnId,
    client: QuicEndpoint,
    server: QuicEndpoint,
    established_client: bool,
    established_server: bool,
    shlo_recv: u8,
    out: Vec<Output>,
    /// When the connection was opened (handshake-span start).
    opened_at: SimTime,
    /// Protocol label for the handshake span.
    proto_label: &'static str,
    /// Trace track for connection-level spans.
    obs_track: crate::obs::Track,
}

impl QuicConnection {
    /// Open a connection: the client immediately emits its CHLO.
    pub fn new(id: ConnId, cfg: StackConfig, now: SimTime) -> Self {
        let mut client = QuicEndpoint::new(true, &cfg, now);
        let server = QuicEndpoint::new(false, &cfg, now);
        client.hs_queue.push(SentFrame::Chlo);
        // 0-RTT: the client resumes a cached server config and may
        // bundle request data with (or right after) the CHLO.
        let zero_rtt = cfg.zero_rtt;
        let mut conn = QuicConnection {
            id,
            client,
            server,
            established_client: zero_rtt,
            established_server: false,
            shlo_recv: 0,
            out: Vec::new(),
            opened_at: now,
            proto_label: cfg.protocol.label(),
            obs_track: None,
        };
        if zero_rtt {
            conn.out.push(Output::HandshakeDone);
        }
        let mut out = Vec::new();
        conn.client.try_send(now, id, &mut out);
        conn.out.extend(out);
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
        self.client.obs = Some((pid, tid));
        self.server.obs = Some((pid, tid));
    }

    /// True once the client may send stream data.
    pub fn is_established(&self) -> bool {
        self.established_client
    }

    /// Total retransmitted stream chunks across both endpoints.
    pub fn retransmits(&self) -> u64 {
        self.client.retransmits + self.server.retransmits
    }

    /// Drain pending outputs.
    pub fn take_outputs(&mut self) -> Vec<Output> {
        std::mem::take(&mut self.out)
    }

    /// Drop buffered outgoing packets (fault injection). Non-`Send`
    /// outputs survive. The RTO requeues the CHLO / lost chunks.
    pub fn discard_pending_sends(&mut self) -> usize {
        let before = self.out.len();
        self.out.retain(|o| !matches!(o, Output::Send(..)));
        before - self.out.len()
    }

    /// The client opens a request stream carrying `bytes` and closing
    /// with FIN (an HTTP request).
    pub fn client_open_stream(&mut self, now: SimTime, stream: StreamId, bytes: u64) {
        let s = self.client.send_streams.entry(stream.0).or_default();
        s.limit += bytes;
        s.fin = true;
        self.client.rate.set_app_limited(false);
        if self.established_client {
            self.client.try_send(now, self.id, &mut self.out);
        }
    }

    /// The server writes response bytes onto `stream`.
    pub fn server_write(&mut self, now: SimTime, stream: StreamId, bytes: u64, fin: bool) {
        let s = self.server.send_streams.entry(stream.0).or_default();
        s.limit += bytes;
        s.fin = fin;
        self.server.rate.set_app_limited(false);
        if self.established_server {
            self.server.try_send(now, self.id, &mut self.out);
        }
    }

    /// A packet arrived at one endpoint (`Direction::Up` = at server).
    pub fn on_packet(&mut self, now: SimTime, wire: &Wire, arrived: Direction) {
        let Wire::Quic(pkt) = wire else {
            debug_assert!(false, "TCP segment delivered to QUIC connection");
            return;
        };
        let id = self.id;
        let ep = match arrived {
            Direction::Up => &mut self.server,
            Direction::Down => &mut self.client,
        };
        if ep.recv_pns.contains(pkt.pn) {
            return; // duplicate
        }
        ep.note_received(now, pkt.pn, pkt.ack_eliciting());

        let mut stream_progress: Vec<(u64, u64, bool)> = Vec::new();
        let mut got_chlo = false;
        let mut got_shlo_parts = 0u8;
        let mut shlo_of = 0u8;
        for frame in &pkt.frames {
            match frame {
                QuicFrame::Chlo => got_chlo = true,
                QuicFrame::Shlo { of, .. } => {
                    got_shlo_parts += 1;
                    shlo_of = *of;
                }
                QuicFrame::Stream {
                    id,
                    offset,
                    len,
                    fin,
                } => {
                    let rs = ep.recv_streams.entry(*id).or_default();
                    let end = offset + u64::from(*len);
                    if *fin {
                        rs.fin_at = Some(end);
                    }
                    rs.ooo.insert((*offset).max(rs.cum), end);
                    rs.cum = rs.ooo.advance_from(rs.cum);
                    rs.ooo.remove_below(rs.cum);
                    let done = rs.fin_at == Some(rs.cum);
                    if rs.cum > rs.reported || (done && !rs.reported_fin) {
                        rs.reported = rs.cum;
                        rs.reported_fin = done;
                        stream_progress.push((*id, rs.cum, done));
                    }
                }
                QuicFrame::Ack { ranges } => {
                    ep.on_ack_frame(now, ranges, id, &mut self.out);
                }
            }
        }

        // Flush a prompt ACK if warranted (after processing frames so
        // the ACK covers this packet).
        if ep.ack_should_flush_now() {
            ep.try_send(now, id, &mut self.out);
            // try_send may not have produced anything if cwnd-limited;
            // force a pure-ACK packet in that case.
            if ep.ack_pending {
                if let Some(ackf) = ep.maybe_ack_frame() {
                    let pn = ep.next_pn;
                    ep.next_pn += 1;
                    let pkt = QuicPacket {
                        from_client: ep.is_client,
                        pn,
                        frames: vec![ackf],
                    };
                    let size = pkt.wire_size();
                    ep.sent.insert(
                        pn,
                        SentPacket {
                            size,
                            sent_at: now,
                            frames: Vec::new(),
                            tx: ep.rate.on_send(now),
                            ack_eliciting: false,
                        },
                    );
                    self.out.push(Output::Send(
                        ep.direction(),
                        Packet::new(id, size, Wire::Quic(pkt)),
                    ));
                }
            }
        }

        // Handshake progression.
        if got_chlo && arrived == Direction::Up && !self.established_server {
            self.established_server = true;
            for part in 0..SHLO_PARTS {
                self.server.hs_queue.push(SentFrame::Shlo {
                    part,
                    of: SHLO_PARTS,
                });
            }
            let mut out = Vec::new();
            self.server.try_send(now, id, &mut out);
            self.out.extend(out);
        }
        if got_shlo_parts > 0 && arrived == Direction::Down && !self.established_client {
            self.shlo_recv += got_shlo_parts;
            if self.shlo_recv >= shlo_of.max(SHLO_PARTS) {
                self.established_client = true;
                self.out.push(Output::HandshakeDone);
                self.out.push(Output::Trace(TraceKind::HandshakeDone, 0));
                crate::obs::handshake_span(self.obs_track, self.opened_at, now, self.proto_label);
                let mut out = Vec::new();
                self.client.try_send(now, id, &mut out);
                self.out.extend(out);
            }
        }

        // Emit application progress events.
        for (sid, delivered, fin) in stream_progress {
            let ev = match arrived {
                Direction::Up => Output::ServerStreamProgress {
                    stream: StreamId(sid),
                    delivered,
                    fin,
                },
                Direction::Down => Output::ClientStreamProgress {
                    stream: StreamId(sid),
                    delivered,
                    fin,
                },
            };
            self.out.push(ev);
        }
    }

    /// Earliest internal timer.
    pub fn poll_at(&self) -> SimTime {
        self.client.poll_at().min(self.server.poll_at())
    }

    /// Service expired timers.
    pub fn on_wake(&mut self, now: SimTime) {
        let id = self.id;
        for is_client in [true, false] {
            let ep = if is_client {
                &mut self.client
            } else {
                &mut self.server
            };
            if ep.rto_at.is_some_and(|t| t <= now) {
                let _rto_span = pq_prof::span("transport:rto-retransmit");
                pq_prof::tick("quic:rto");
                ep.on_rto(now, id, &mut self.out);
            }
            if ep.pacing_at.is_some_and(|t| t <= now) {
                ep.try_send(now, id, &mut self.out);
            }
            if ep.ack_at.is_some_and(|t| t <= now) {
                if let Some(ackf) = ep.maybe_ack_frame() {
                    let pn = ep.next_pn;
                    ep.next_pn += 1;
                    let pkt = QuicPacket {
                        from_client: ep.is_client,
                        pn,
                        frames: vec![ackf],
                    };
                    let size = pkt.wire_size();
                    ep.sent.insert(
                        pn,
                        SentPacket {
                            size,
                            sent_at: now,
                            frames: Vec::new(),
                            tx: ep.rate.on_send(now),
                            ack_eliciting: false,
                        },
                    );
                    self.out.push(Output::Send(
                        ep.direction(),
                        Packet::new(id, size, Wire::Quic(pkt)),
                    ));
                }
            }
        }
    }

    /// Server-side congestion window in bytes (diagnostics).
    pub fn server_cwnd(&self) -> u64 {
        self.server.cc.cwnd()
    }

    /// Server-side congestion events.
    pub fn server_congestion_events(&self) -> u64 {
        self.server.congestion_events
    }

    /// Server-side smoothed RTT (diagnostics).
    pub fn server_srtt(&self) -> Option<SimDuration> {
        self.server.rtt.srtt()
    }

    /// Server-side bytes currently in flight (diagnostics).
    pub fn server_in_flight(&self) -> u64 {
        self.server.bytes_in_flight
    }

    /// True when both endpoints have nothing left to send or await.
    pub fn quiescent(&self) -> bool {
        self.client
            .send_streams
            .values()
            .all(SendStream::fully_acked)
            && self
                .server
                .send_streams
                .values()
                .all(SendStream::fully_acked)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::api::{Connection, Output, StreamId};
    use crate::config::Protocol;
    use pq_sim::NetworkKind;

    fn conn(proto: Protocol) -> QuicConnection {
        let net = NetworkKind::Dsl.config();
        QuicConnection::new(ConnId(2), proto.config(&net), SimTime::ZERO)
    }

    fn sent(c: &mut QuicConnection) -> Vec<(Direction, QuicPacket)> {
        c.take_outputs()
            .into_iter()
            .filter_map(|o| match o {
                Output::Send(d, p) => match p.payload {
                    Wire::Quic(q) => Some((d, q)),
                    _ => None,
                },
                _ => None,
            })
            .collect()
    }

    #[test]
    fn opening_emits_chlo() {
        let mut c = conn(Protocol::Quic);
        let out = sent(&mut c);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].0, Direction::Up);
        assert!(out[0].1.frames.iter().any(|f| matches!(f, QuicFrame::Chlo)));
        assert!(!c.is_established());
    }

    #[test]
    fn handshake_completes_after_shlo_flight() {
        let mut c = conn(Protocol::Quic);
        let chlo = sent(&mut c).remove(0).1;
        c.on_packet(SimTime::from_millis(12), &Wire::Quic(chlo), Direction::Up);
        let flight = sent(&mut c);
        let shlo_parts = flight
            .iter()
            .flat_map(|(_, p)| &p.frames)
            .filter(|f| matches!(f, QuicFrame::Shlo { .. }))
            .count();
        assert_eq!(shlo_parts, 2, "SHLO flight in 2 packets");
        for (_, p) in flight {
            c.on_packet(SimTime::from_millis(24), &Wire::Quic(p), Direction::Down);
        }
        assert!(c.is_established(), "client ready after one round trip");
    }

    #[test]
    fn duplicate_packets_are_ignored() {
        let mut c = conn(Protocol::Quic);
        let chlo = sent(&mut c).remove(0).1;
        c.on_packet(
            SimTime::from_millis(12),
            &Wire::Quic(chlo.clone()),
            Direction::Up,
        );
        let first = sent(&mut c).len();
        assert!(first >= 2);
        c.on_packet(SimTime::from_millis(13), &Wire::Quic(chlo), Direction::Up);
        assert!(sent(&mut c).is_empty(), "dup CHLO produces nothing");
    }

    #[test]
    fn streams_deliver_independently() {
        let mut c = conn(Protocol::Quic);
        let _ = sent(&mut c);
        // Hand-deliver two stream packets out of order across streams.
        let pkt = |pn, id, offset, len, fin| QuicPacket {
            from_client: false,
            pn,
            frames: vec![QuicFrame::Stream {
                id,
                offset,
                len,
                fin,
            }],
        };
        // Stream 5 has a hole; stream 7 is complete.
        c.on_packet(
            SimTime::from_millis(1),
            &Wire::Quic(pkt(10, 5, 1000, 500, true)),
            Direction::Down,
        );
        c.on_packet(
            SimTime::from_millis(2),
            &Wire::Quic(pkt(11, 7, 0, 300, true)),
            Direction::Down,
        );
        let progress: Vec<(u64, u64, bool)> = c
            .take_outputs()
            .iter()
            .filter_map(|o| match o {
                Output::ClientStreamProgress {
                    stream,
                    delivered,
                    fin,
                } => Some((stream.0, *delivered, *fin)),
                _ => None,
            })
            .collect();
        assert!(
            progress.contains(&(7, 300, true)),
            "stream 7 completes despite stream 5's hole: {progress:?}"
        );
        assert!(
            !progress.iter().any(|p| p.0 == 5 && p.1 > 0),
            "stream 5 blocked by its own hole only: {progress:?}"
        );
    }

    #[test]
    fn ack_frames_bound_their_ranges() {
        let mut c = conn(Protocol::Quic);
        let _ = sent(&mut c);
        // Deliver many disjoint packet numbers (every other pn) to the
        // client to force many ranges.
        for pn in (1..200u64).step_by(2) {
            let p = QuicPacket {
                from_client: false,
                pn,
                frames: vec![QuicFrame::Stream {
                    id: 5,
                    offset: pn * 100,
                    len: 50,
                    fin: false,
                }],
            };
            c.on_packet(SimTime::from_millis(pn), &Wire::Quic(p), Direction::Down);
        }
        let max_ranges = sent(&mut c)
            .iter()
            .flat_map(|(_, p)| &p.frames)
            .filter_map(|f| match f {
                QuicFrame::Ack { ranges } => Some(ranges.len()),
                _ => None,
            })
            .max()
            .expect("acks were sent");
        assert!(max_ranges <= MAX_ACK_RANGES, "ranges bounded: {max_ranges}");
        assert!(
            max_ranges > 3,
            "still far richer than TCP SACK: {max_ranges}"
        );
    }

    #[test]
    #[expect(
        clippy::unreachable,
        reason = "the test sets up exactly the outcome it matches"
    )]
    fn zero_rtt_bundles_request_with_first_flight() {
        let net = NetworkKind::Lte.config();
        let mut conn = Connection::open(
            ConnId(3),
            Protocol::Quic.config_zero_rtt(&net),
            SimTime::ZERO,
        );
        assert!(conn.is_established());
        let Connection::Quic(q) = &mut conn else {
            unreachable!()
        };
        q.client_open_stream(SimTime::ZERO, StreamId(5), 400);
        let packets: Vec<_> = conn
            .take_outputs()
            .into_iter()
            .filter(|o| matches!(o, Output::Send(Direction::Up, _)))
            .collect();
        assert!(packets.len() >= 2, "CHLO + 0-RTT data: {}", packets.len());
    }

    #[test]
    fn retransmits_counted_after_rto() {
        let mut c = conn(Protocol::Quic);
        let _ = sent(&mut c);
        // Let the client's handshake RTO fire with the CHLO unacked.
        assert!(c.poll_at() <= SimTime::from_secs(1));
        c.on_wake(SimTime::from_secs(1));
        let out = sent(&mut c);
        assert!(
            out.iter()
                .any(|(_, p)| p.frames.iter().any(|f| matches!(f, QuicFrame::Chlo))),
            "CHLO retransmitted on timeout"
        );
    }
}
