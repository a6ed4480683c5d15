//! The network path of one page load: client ↔ path ↔ origin.
//!
//! The browser only sees connection endpoints. Everything between them
//! lives here: which links exist, which link an endpoint sends on,
//! where a delivered packet goes, the terminating proxy's pooled
//! origin legs and relay bridges, and the transparent middlebox
//! junction. `Protocol` selects exactly one of three topologies:
//!
//! * **direct** (the Table-1 stacks): one shaped link pair between the
//!   client and the origins;
//! * **proxy** (`QUIC-EDGE`, `H2-EDGE`): the client link pair ends at a
//!   terminating proxy that fans requests out over pooled TCP+/H2 legs
//!   on a backbone link pair;
//! * **middlebox** (`QUIC-MBX`): connections stay end to end, and a box
//!   at the junction of the two link pairs watches them (PEMI-style).

use crate::http1::H1Conn;
use crate::http2::H2Mux;
use crate::http3::H3Map;
use crate::object::ObjectId;
use pq_edge::{EdgeConfig, EdgePools, Middlebox, PoolStats};
use pq_sim::{Direction, Link, LinkConfig, NetworkConfig, Packet, SimRng, SimTime};
use pq_transport::{Connection, Protocol, StackConfig, StreamId, Wire};
use std::collections::BTreeMap;

/// First connection row of a load's trace tracks.
const TID_CONN_BASE: u32 = 1;
/// First proxy-leg (origin-side connection) row.
const TID_LEG_BASE: u32 = 60;
/// Offset distinguishing proxy-leg handshake fault keys and trace
/// details from client-side connection indices.
const LEG_KEY_BASE: u32 = 1000;

/// A link of the path. The client pair exists on every topology; the
/// origin (backbone) pair only on the edge topologies.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum LinkId {
    ClientUp,
    ClientDown,
    OriginUp,
    OriginDown,
}

impl LinkId {
    /// Fault key and trace-track label of the link.
    fn name(self) -> &'static str {
        match self {
            LinkId::ClientUp => "uplink",
            LinkId::ClientDown => "downlink",
            LinkId::OriginUp => "origin-uplink",
            LinkId::OriginDown => "origin-downlink",
        }
    }

    /// RNG fork label of the link's random-loss stream.
    fn loss_stream(self) -> &'static str {
        match self {
            LinkId::ClientUp => "uplink-loss",
            LinkId::ClientDown => "downlink-loss",
            LinkId::OriginUp => "origin-uplink-loss",
            LinkId::OriginDown => "origin-downlink-loss",
        }
    }

    /// Profiler bucket of the link's transmission-slot event.
    pub(crate) fn tx_bucket(self) -> &'static str {
        match self {
            LinkId::ClientUp => "event:tx-up",
            LinkId::ClientDown => "event:tx-down",
            LinkId::OriginUp => "event:edge-tx-up",
            LinkId::OriginDown => "event:edge-tx-down",
        }
    }

    /// Profiler bucket of the link's delivery event.
    pub(crate) fn arrival_bucket(self) -> &'static str {
        match self {
            LinkId::ClientUp | LinkId::ClientDown => "event:arrival",
            LinkId::OriginUp | LinkId::OriginDown => "event:edge-arrival",
        }
    }

    fn dir(self) -> Direction {
        match self {
            LinkId::ClientUp | LinkId::OriginUp => Direction::Up,
            LinkId::ClientDown | LinkId::OriginDown => Direction::Down,
        }
    }
}

/// A connection of the load: a client connection, or one of the
/// proxy's origin-side legs. Both index their own table from 0, as
/// their `ConnId`s do.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum ConnRef {
    Client(u32),
    Leg(u32),
}

impl ConnRef {
    /// Index in its table (and the transport's `ConnId`).
    pub(crate) fn index(self) -> u32 {
        match self {
            ConnRef::Client(i) | ConnRef::Leg(i) => i,
        }
    }

    /// Handshake-fault key and trace detail: legs have their own key
    /// space past the client connections', so "hs-drop through the
    /// proxy" exercises both sides independently.
    pub(crate) fn key(self) -> u32 {
        match self {
            ConnRef::Client(i) => i,
            ConnRef::Leg(i) => LEG_KEY_BASE + i,
        }
    }

    /// Trace-track row of the connection.
    pub(crate) fn tid(self) -> u32 {
        match self {
            ConnRef::Client(i) => TID_CONN_BASE + i,
            ConnRef::Leg(i) => TID_LEG_BASE + i,
        }
    }
}

/// HTTP mapping of one connection.
pub(crate) enum Mux {
    H1(H1Conn),
    H2(H2Mux),
    H3(H3Map),
}

/// One connection (both endpoints) plus its HTTP mapping. `open_conn`
/// pairs H1/H2 with TCP and H3 with QUIC; the mismatched pairs below
/// cannot occur and do nothing.
pub(crate) struct ConnState {
    pub(crate) conn: Connection,
    pub(crate) mux: Mux,
    pub(crate) wake_version: u64,
}

impl ConnState {
    /// Issue the request for `id` from the client side.
    pub(crate) fn request(&mut self, now: SimTime, id: ObjectId) {
        match (&mut self.mux, &mut self.conn) {
            (Mux::H1(h), Connection::Tcp(c)) => h.request(c, now, id),
            (Mux::H2(m), Connection::Tcp(c)) => m.request(c, now, id),
            (Mux::H3(m), Connection::Quic(c)) => m.request(c, now, id),
            _ => {}
        }
    }

    /// Write the `body`-byte response to `obj` from the server side.
    pub(crate) fn respond(&mut self, now: SimTime, obj: ObjectId, body: u64) {
        match (&mut self.mux, &mut self.conn) {
            (Mux::H1(h), Connection::Tcp(c)) => h.respond(c, now, body),
            (Mux::H2(m), Connection::Tcp(c)) => m.respond(c, now, obj, body),
            (Mux::H3(m), Connection::Quic(c)) => m.respond(c, now, obj, body),
            _ => {}
        }
    }

    /// Let the H2 writer top up the transport; true if it queued more.
    pub(crate) fn top_up(&mut self, now: SimTime) -> bool {
        let (Mux::H2(m), Connection::Tcp(c)) = (&mut self.mux, &mut self.conn) else {
            return false;
        };
        let before = c.server_backlog();
        m.pump(c, now);
        c.server_backlog() != before
    }

    /// Request bytes reached the server side: the objects whose
    /// requests are now complete.
    pub(crate) fn server_ready(
        &mut self,
        stream: StreamId,
        delivered: u64,
        fin: bool,
    ) -> impl Iterator<Item = ObjectId> {
        let (one, many) = match &mut self.mux {
            Mux::H1(h) => (h.on_server_delivered(delivered), None),
            Mux::H2(m) => (None, Some(m.on_server_delivered(delivered))),
            Mux::H3(m) => (fin.then(|| m.on_server_stream_fin(stream)).flatten(), None),
        };
        one.into_iter().chain(many.into_iter().flatten())
    }

    /// Write `delta` relayed bytes of `obj` (and the stream end when
    /// `fin`) onto this client-facing proxy connection.
    fn relay(&mut self, now: SimTime, obj: ObjectId, delta: u64, fin: bool) {
        match (&mut self.mux, &mut self.conn) {
            (Mux::H3(m), Connection::Quic(c)) => {
                if let Some(sid) = m.stream_for(obj) {
                    c.server_write(now, sid, delta, fin);
                }
            }
            (Mux::H2(m), Connection::Tcp(c)) => m.respond_raw(c, now, obj, delta),
            _ => {}
        }
    }
}

/// Relay state of one object flowing origin-leg → client-connection
/// through the terminating proxy. Progress maps proportionally: the
/// proxy has relayed `client_total · origin_got / origin_total` bytes
/// onto the client-facing stream at any instant (cut-through, not
/// store-and-forward).
struct Bridge {
    /// H2 stream bytes the origin response occupies on the leg.
    origin_total: u64,
    origin_got: u64,
    /// Stream bytes the response occupies client-side (H3 or H2
    /// framing, matching the client connection's mux).
    client_total: u64,
    client_written: u64,
    leg: u32,
    origin: u16,
    fin_sent: bool,
}

/// The terminating proxy: pooled origin legs (always TCP+ carrying
/// HTTP/2) and the relay bridges between them and the client
/// connection.
struct Proxy {
    leg_cfg: StackConfig,
    pools: EdgePools,
    bridges: BTreeMap<ObjectId, Bridge>,
    client_quic: bool,
}

enum Topology {
    Direct,
    Proxy(Proxy),
    Middlebox(Middlebox),
}

/// Where a delivered packet goes next.
pub(crate) enum Arrival {
    /// It reaches this endpoint of a connection.
    Endpoint(ConnRef, Direction),
    /// The middlebox passes it on to the link, after re-injecting its
    /// early retransmits (if any) onto the client downlink.
    Forward(LinkId, Option<Vec<Packet<Wire>>>),
}

/// The links and the in-path boxes of one page load.
pub(crate) struct Path {
    /// Indexed by `LinkId`; the origin pair only on edge topologies.
    links: Vec<Link<Wire>>,
    /// The proxy's origin legs (none on the other topologies).
    pub(crate) legs: Vec<ConnState>,
    topology: Topology,
}

impl Path {
    /// Build the path `protocol` loads over. Edge stacks split `net`
    /// at the junction: the client segment keeps the access link's
    /// character (bandwidth, loss, queue) over a share of the RTT, and
    /// a clean fat backbone segment covers the rest to the origin.
    /// `edge = None` reads `PQ_EDGE_*`; the Table-1 stacks ignore it.
    pub(crate) fn new(
        net: &NetworkConfig,
        protocol: Protocol,
        edge: Option<&EdgeConfig>,
        rng: &SimRng,
        faults: Option<&pq_fault::LoadFaults>,
        obs_pid: Option<u32>,
    ) -> Path {
        let link = |id: LinkId, cfg: LinkConfig| {
            let mut l = Link::new(cfg, rng.fork(id.loss_stream()));
            if let Some(pid) = obs_pid {
                l.set_obs_track(pid, crate::browser::TID_PAGE, id.name());
            }
            // Fault clauses bind to each link independently.
            if let Some(f) = faults {
                l.set_fault(f.link_fault(id.name()));
            }
            l
        };
        if !protocol.is_edge() {
            return Path {
                links: vec![
                    link(LinkId::ClientUp, net.uplink()),
                    link(LinkId::ClientDown, net.downlink()),
                ],
                legs: Vec::new(),
                topology: Topology::Direct,
            };
        }
        let ec = edge.cloned().unwrap_or_else(EdgeConfig::from_env);
        let client_net = net.client_segment(ec.client_rtt_share);
        let origin_net = net.origin_segment(ec.client_rtt_share, ec.backbone_bps);
        let links = vec![
            link(LinkId::ClientUp, client_net.uplink()),
            link(LinkId::ClientDown, client_net.downlink()),
            link(LinkId::OriginUp, origin_net.uplink()),
            link(LinkId::OriginDown, origin_net.downlink()),
        ];
        let topology = if protocol.has_middlebox() {
            Topology::Middlebox(Middlebox::new(&ec))
        } else {
            Topology::Proxy(Proxy {
                leg_cfg: Protocol::TcpPlus.config(&origin_net),
                pools: EdgePools::new(&ec, rng.fork("edge-pool")),
                bridges: BTreeMap::new(),
                client_quic: protocol.is_quic(),
            })
        };
        Path {
            links,
            legs: Vec::new(),
            topology,
        }
    }

    pub(crate) fn link_mut(&mut self, id: LinkId) -> Option<&mut Link<Wire>> {
        self.links.get_mut(id as usize)
    }

    /// The link a packet sent by `from` in `dir` enters. Under the
    /// middlebox the server endpoint sits at the origin, so its
    /// packets enter on the backbone and reach the client through the
    /// junction.
    pub(crate) fn send_link(&self, from: ConnRef, dir: Direction) -> LinkId {
        match (from, dir) {
            (ConnRef::Client(_), Direction::Up) => LinkId::ClientUp,
            (ConnRef::Client(_), Direction::Down) => match self.topology {
                Topology::Middlebox(_) => LinkId::OriginDown,
                _ => LinkId::ClientDown,
            },
            (ConnRef::Leg(_), Direction::Up) => LinkId::OriginUp,
            (ConnRef::Leg(_), Direction::Down) => LinkId::OriginDown,
        }
    }

    /// `pkt` crossed `link`: where does it go? At the middlebox
    /// junction, a client packet lets the box read its ACK ranges
    /// (re-injecting inferred-lost buffered packets) and an origin
    /// packet is buffered for early retransmit.
    pub(crate) fn arrive(&mut self, now: SimTime, link: LinkId, pkt: &Packet<Wire>) -> Arrival {
        let conn = pkt.conn.0;
        match (&mut self.topology, link) {
            (Topology::Middlebox(m), LinkId::ClientUp) => {
                let _sp = pq_prof::span("edge:mbx");
                Arrival::Forward(LinkId::OriginUp, Some(m.on_uplink(now, pkt)))
            }
            (Topology::Middlebox(m), LinkId::OriginDown) => {
                let _sp = pq_prof::span("edge:mbx");
                m.on_downlink(now, pkt);
                Arrival::Forward(LinkId::ClientDown, None)
            }
            (Topology::Proxy(_), LinkId::OriginUp | LinkId::OriginDown) => {
                Arrival::Endpoint(ConnRef::Leg(conn), link.dir())
            }
            _ => Arrival::Endpoint(ConnRef::Client(conn), link.dir()),
        }
    }

    /// Stack configuration of a new proxy leg.
    pub(crate) fn leg_cfg(&self) -> Option<&StackConfig> {
        match &self.topology {
            Topology::Proxy(p) => Some(&p.leg_cfg),
            _ => None,
        }
    }

    /// The proxy's connection pools (proxy topology only).
    pub(crate) fn pools_mut(&mut self) -> Option<&mut EdgePools> {
        match &mut self.topology {
            Topology::Proxy(p) => Some(&mut p.pools),
            _ => None,
        }
    }

    /// The origin answers `obj` with `body` bytes on proxy leg `leg`:
    /// start relaying it toward the client.
    pub(crate) fn open_bridge(&mut self, obj: ObjectId, origin: u16, leg: u32, body: u64) {
        let Topology::Proxy(p) = &mut self.topology else {
            return;
        };
        let client_total = if p.client_quic {
            crate::http3::RESPONSE_HEADER + body
        } else {
            H2Mux::response_stream_bytes(body)
        };
        p.bridges.insert(
            obj,
            Bridge {
                origin_total: H2Mux::response_stream_bytes(body),
                origin_got: 0,
                client_total,
                client_written: 0,
                leg,
                origin,
                fin_sent: false,
            },
        );
    }

    /// `new_bytes` of `obj`'s origin response reached the proxy:
    /// advance its bridge and write the proportional share onto the
    /// client-facing connection `client` (connection 0: the proxy
    /// fronts every origin behind one client connection). Returns
    /// whether anything was written.
    pub(crate) fn relay(
        &mut self,
        now: SimTime,
        obj: ObjectId,
        new_bytes: u64,
        client: &mut ConnState,
    ) -> bool {
        let Topology::Proxy(p) = &mut self.topology else {
            return false;
        };
        let Some(b) = p.bridges.get_mut(&obj) else {
            return false;
        };
        b.origin_got = (b.origin_got + new_bytes).min(b.origin_total);
        let target = ((u128::from(b.client_total) * u128::from(b.origin_got))
            / u128::from(b.origin_total.max(1))) as u64;
        let delta = target.saturating_sub(b.client_written);
        let send_fin = b.origin_got >= b.origin_total && !b.fin_sent;
        if delta == 0 && !send_fin {
            return false;
        }
        b.client_written += delta;
        client.relay(now, obj, delta, send_fin);
        if send_fin {
            b.fin_sent = true;
            p.pools.complete(b.origin, b.leg, now);
        }
        true
    }

    /// End-of-load `edge.*` counters and RTT-split histograms.
    pub(crate) fn obs_finish(&self, label: &str) {
        let (pools, mbx) = match &self.topology {
            Topology::Direct => return,
            Topology::Proxy(p) => (p.pools.stats(), None),
            Topology::Middlebox(m) => (PoolStats::default(), Some(m)),
        };
        let reg = pq_obs::registry();
        reg.counter_add("edge.conns_opened", pools.opened);
        reg.counter_add("edge.conns_reused", pools.reused);
        reg.counter_add("edge.conns_evicted", pools.evicted);
        let Some(mbx) = mbx else { return };
        reg.counter_add("edge.mbx_early_retx", mbx.early_retransmits());
        if let Some((client_ms, origin_ms)) = mbx.rtt_split_ms() {
            reg.observe(
                &format!("edge.client_rtt_ms{{proto=\"{label}\"}}"),
                client_ms,
            );
            reg.observe(
                &format!("edge.origin_rtt_ms{{proto=\"{label}\"}}"),
                origin_ms,
            );
        }
    }
}
