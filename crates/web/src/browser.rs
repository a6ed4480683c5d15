//! The browser model: a fresh-profile page load through the emulated
//! access link (the Chromium + Browsertime role of the paper's §3).
//!
//! One `load_page` call = one website visit with an empty cache: every
//! origin needs a fresh connection (so QUIC's 1-RTT handshake pays off
//! once per origin), resources are discovered progressively while the
//! document streams in, and paint events build the visual-completeness
//! timeline that the metrics and the user-study stimuli are derived
//! from.

use crate::http1::{H1Conn, H1Pool};
use crate::http2::H2Mux;
use crate::http3::H3Map;
use crate::object::{ObjectId, WebObject};
use crate::path::{Arrival, ConnRef, ConnState, LinkId, Mux, Path};
use crate::website::Website;
use pq_edge::{Dispatch, EdgeConfig};
use pq_metrics::{MetricSet, Recording, VisualTimeline};
use pq_obs::{ArgValue, Level};
use pq_sim::{
    ConnId, EventQueue, NetworkConfig, Packet, PushOutcome, SimDuration, SimRng, SimTime, Trace,
    TraceKind,
};
use pq_transport::{Connection, Output, Protocol, Wire};
use std::collections::BTreeMap;

/// Trace-track layout of one page load (one tracer `pid` per load):
/// `tid 0` carries the page-level markers (FVC/LVC/PLT, queue depth,
/// link queues), `tid 1 + ci` one row per client connection,
/// `tid 60 + leg` one row per proxy leg (see [`ConnRef::tid`]),
/// `tid 100 + obj` one row per web object.
pub(crate) const TID_PAGE: u32 = 0;
/// First web-object row.
const TID_OBJ_BASE: u32 = 100;

/// HTTP version used over the TCP stacks (QUIC always uses its own
/// stream mapping).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum HttpVersion {
    /// HTTP/1.1: one request per connection, a pool of up to 6
    /// connections per origin — the legacy baseline.
    Http1,
    /// HTTP/2: one multiplexed connection per origin (the paper's
    /// TCP-side configuration).
    #[default]
    Http2,
}

/// Tunables of one page load.
#[derive(Clone, Debug)]
pub struct LoadOptions {
    /// Recording frame rate; 0 disables video rendering.
    pub fps: u32,
    /// Give up after this much virtual time.
    pub horizon: SimDuration,
    /// Server think time: fixed base in milliseconds…
    pub think_base_ms: f64,
    /// …plus an exponential jitter with this mean (run-to-run
    /// variation, as in any real testbed).
    pub think_jitter_ms: f64,
    /// Detailed trace-event capacity (0 = counters only).
    pub trace_capacity: usize,
    /// Scale factor on client-side processing costs (parse, script
    /// execution, image decode, style+layout). 1.0 = calibrated
    /// defaults; 0.0 disables processing entirely (network-only loads,
    /// useful for ablations).
    pub processing_scale: f64,
    /// HTTP version for the TCP stacks (ignored by QUIC).
    pub http_version: HttpVersion,
    /// Fault-injection plan for this load (`None` = no injection; the
    /// default). Tests should thread a plan here explicitly; the
    /// `PQ_FAULTS`-driven harness installs the process-global plan and
    /// copies it in at the runner layer.
    pub faults: Option<std::sync::Arc<pq_fault::FaultPlan>>,
    /// Edge-topology knobs for the edge stacks (`QUIC-EDGE`,
    /// `QUIC-MBX`, `H2-EDGE`). `None` — the default — reads
    /// `PQ_EDGE_*` from the environment at load entry. Ignored
    /// entirely by the Table-1 stacks, which keep their single-link
    /// topology bit-for-bit.
    pub edge: Option<EdgeConfig>,
}

impl Default for LoadOptions {
    fn default() -> Self {
        LoadOptions {
            fps: 0,
            horizon: SimDuration::from_secs(300),
            think_base_ms: 4.0,
            think_jitter_ms: 3.0,
            trace_capacity: 0,
            processing_scale: 1.0,
            http_version: HttpVersion::Http2,
            faults: None,
            edge: None,
        }
    }
}

/// Style-recalc + first-layout cost paid once before first paint.
const STYLE_LAYOUT_MS: f64 = 250.0;
/// Progressive resources paint up to this share from raw bytes; the
/// rest appears when decoding/layout finishes.
const PROGRESSIVE_CAP: f64 = 0.9;
/// The HTML parser works through the document over roughly this long
/// (main-thread parsing + preload-scanner yield), so subresources are
/// discovered staggered rather than in one instant — which also
/// staggers the per-origin initial-window bursts.
const PARSE_SPREAD_MS: f64 = 350.0;

/// Outcome of one page load.
#[derive(Clone, Debug)]
pub struct PageLoadResult {
    /// The five technical metrics.
    pub metrics: MetricSet,
    /// The visual-completeness curve.
    pub timeline: VisualTimeline,
    /// Rendered video (when `fps > 0`).
    pub recording: Option<Recording>,
    /// Whether every object finished before the horizon.
    pub complete: bool,
    /// Page load time (onload) or the horizon when incomplete.
    pub plt: SimTime,
    /// Transport retransmissions summed over all connections.
    pub retransmits: u64,
    /// Connections opened (= origins contacted).
    pub connections: u32,
    /// Per-object completion times.
    pub object_done: Vec<Option<SimTime>>,
    /// Trace counters (requests, responses, RTOs, …).
    pub trace: Trace,
}

enum Ev {
    /// A transmission slot opened on a link.
    Tx(LinkId),
    /// A packet crossed a link.
    Deliver(LinkId, Packet<Wire>),
    /// A connection's transport timer expired (stale unless the
    /// version matches).
    Wake(ConnRef, u64),
    /// The server finished thinking about an object requested on a
    /// connection.
    Respond(ConnRef, ObjectId),
    /// Client-side processing of a fully delivered object finished.
    Processed(ObjectId),
    /// A deferred (lazy) request's timer expired: issue it now.
    DeferredRequest(ObjectId),
    /// Style + first layout done: painting may start.
    GateOpen,
}

struct Loader<'a> {
    site: &'a Website,
    protocol: Protocol,
    opts: &'a LoadOptions,
    q: EventQueue<Ev>,
    /// The links and in-path boxes between client and origins.
    path: Path,
    /// Client connections.
    conns: Vec<ConnState>,
    origin_conn: BTreeMap<u16, u32>,
    /// HTTP/1.1 connection pools per origin (empty under H2/H3).
    h1_pools: BTreeMap<u16, H1Pool>,
    cfg: pq_transport::StackConfig,
    think_rng: SimRng,
    /// Children of each object, sorted by discovery fraction.
    children: Vec<Vec<(f64, ObjectId)>>,
    discovered: Vec<bool>,
    /// Response-stream progress fraction per object.
    frac: Vec<f64>,
    /// Delivery finished; processing scheduled.
    processing: Vec<bool>,
    done_at: Vec<Option<SimTime>>,
    n_done: usize,
    /// Stream bytes expected per object (protocol-specific overheads).
    expect: Vec<u64>,
    got: Vec<u64>,
    /// Current paint contribution per object.
    contrib: Vec<f64>,
    timeline: VisualTimeline,
    vc: f64,
    gate_open: bool,
    /// Gate conditions met; style+layout in progress.
    gate_scheduled: bool,
    /// Onload instant (set when the last object finishes processing).
    plt_at: Option<SimTime>,
    trace: Trace,
    /// Tracer process id of this page load (`None` with tracing off).
    obs_pid: Option<u32>,
    /// Request-issue instant per object (waterfall span start).
    req_at: Vec<Option<SimTime>>,
    /// Per-load fault view (`None` = injection off).
    faults: Option<pq_fault::LoadFaults>,
    /// Reused scratch for newly-released children: `discover` needs
    /// `&mut self`, so the candidate list is staged here instead of a
    /// fresh `Vec` per progress event.
    kid_buf: Vec<ObjectId>,
}

/// Load `site` over `net` with `protocol`; `seed` drives every source
/// of run-to-run variation (random loss, server think jitter).
pub fn load_page(
    site: &Website,
    net: &NetworkConfig,
    protocol: Protocol,
    seed: u64,
    opts: &LoadOptions,
) -> PageLoadResult {
    // Degenerate (`custom_net`-style) configs are clamped with a
    // tracer warning rather than simulated as garbage; valid configs
    // pass through untouched, so baselines are unaffected. Use
    // [`try_load_page`] to surface the error instead.
    let net = net.clone().sanitized();
    load_page_with_config(site, &net, &protocol.config(&net), seed, opts)
}

/// Validating variant of [`load_page`]: rejects degenerate network
/// configurations (zero bandwidth, loss outside `[0,1]`, NaN) instead
/// of simulating garbage. Prefer this at boundaries that accept
/// user-supplied (`custom_net`-style) parameters.
pub fn try_load_page(
    site: &Website,
    net: &NetworkConfig,
    protocol: Protocol,
    seed: u64,
    opts: &LoadOptions,
) -> Result<PageLoadResult, pq_fault::PqError> {
    let net = net.clone().checked()?;
    Ok(load_page_with_config(
        site,
        &net,
        &protocol.config(&net),
        seed,
        opts,
    ))
}

/// Load with an explicit stack configuration — the knob-by-knob API
/// behind tuning ablations (e.g. "stock TCP + IW32 only").
#[allow(
    clippy::disallowed_methods,
    reason = "load-entry derivation point: `seed` is the per-cell run_seed; every sub-stream forks from it"
)]
pub fn load_page_with_config(
    site: &Website,
    net: &NetworkConfig,
    cfg: &pq_transport::StackConfig,
    seed: u64,
    opts: &LoadOptions,
) -> PageLoadResult {
    let protocol = cfg.protocol;
    let rng = SimRng::new(seed);
    let n = site.objects.len();

    let mut children: Vec<Vec<(f64, ObjectId)>> = vec![Vec::new(); n];
    for o in &site.objects {
        if let Some(parent) = o.discovered_by {
            if let Some(row) = children.get_mut(parent.0 as usize) {
                row.push((o.discovery_at, o.id));
            }
        }
    }
    for c in &mut children {
        // total_cmp: discovery fractions are finite by construction,
        // but the sort must never be the thing that panics.
        c.sort_by(|a, b| a.0.total_cmp(&b.0));
    }

    // Bind the fault plan (if any) to this load, keyed by its seed —
    // every injection decision below is a pure function of
    // `(fault seed, load seed, entity id)`.
    let faults = opts
        .faults
        .as_ref()
        .filter(|p| !p.is_empty())
        .map(|p| pq_fault::LoadFaults::new(p.clone(), seed));

    let expect: Vec<u64> = site
        .objects
        .iter()
        .map(|o| {
            if protocol.is_quic() {
                crate::http3::RESPONSE_HEADER + o.size
            } else if opts.http_version == HttpVersion::Http1 {
                crate::http1::RESPONSE_HEADER + o.size
            } else {
                H2Mux::response_stream_bytes(o.size)
            }
        })
        .collect();

    // One tracer process per page load; every connection, object and
    // queue-depth sample of this load lands on its tracks.
    let obs_pid = if pq_obs::enabled(Level::Info) {
        let t = pq_obs::tracer();
        let pid = t.new_pid(&format!(
            "{} · {} · seed {seed}",
            site.name,
            protocol.label()
        ));
        t.name_track(pid, TID_PAGE, "page");
        Some(pid)
    } else {
        None
    };

    let mut q = EventQueue::new();
    if let Some(pid) = obs_pid {
        q.set_obs_track(pid, TID_PAGE);
    }
    let path = Path::new(
        net,
        protocol,
        opts.edge.as_ref(),
        &rng,
        faults.as_ref(),
        obs_pid,
    );

    let mut loader = Loader {
        site,
        protocol,
        opts,
        q,
        path,
        conns: Vec::new(),
        origin_conn: BTreeMap::new(),
        h1_pools: BTreeMap::new(),
        cfg: cfg.clone(),
        think_rng: rng.fork("server-think"),
        children,
        discovered: vec![false; n],
        frac: vec![0.0; n],
        processing: vec![false; n],
        done_at: vec![None; n],
        n_done: 0,
        expect,
        got: vec![0; n],
        contrib: vec![0.0; n],
        timeline: VisualTimeline::new(),
        vc: 0.0,
        gate_open: false,
        gate_scheduled: false,
        plt_at: None,
        trace: Trace::with_capacity(opts.trace_capacity),
        obs_pid,
        req_at: vec![None; n],
        faults,
        kid_buf: Vec::new(),
    };

    let _load_span = pq_prof::span_dyn(|| format!("load:{}", protocol.label()));
    loader.discover(SimTime::ZERO, ObjectId(0));
    loader.run()
}

/// Profiler bucket name for an event — the per-event-type subdivision
/// of the `experiment` phase in the folded profile.
fn ev_name(ev: &Ev) -> &'static str {
    match ev {
        Ev::Tx(link) => link.tx_bucket(),
        Ev::Deliver(link, _) => link.arrival_bucket(),
        Ev::Wake(ConnRef::Client(_), _) => "event:timer",
        Ev::Wake(ConnRef::Leg(_), _) => "event:edge-timer",
        Ev::Respond(ConnRef::Client(_), _) => "event:respond",
        Ev::Respond(ConnRef::Leg(_), _) => "event:edge-respond",
        Ev::Processed(..) => "event:process",
        Ev::DeferredRequest(..) => "event:defer",
        Ev::GateOpen => "event:gate",
    }
}

impl<'a> Loader<'a> {
    #[expect(
        clippy::indexing_slicing,
        reason = "`ObjectId`s are positions in `site.objects`"
    )]
    fn obj(&self, id: ObjectId) -> &'a WebObject {
        &self.site.objects[id.0 as usize]
    }

    /// An object became discovered: request it (immediately, or after
    /// its lazy-load deferral).
    fn discover(&mut self, now: SimTime, id: ObjectId) {
        let idx = id.0 as usize;
        match self.discovered.get_mut(idx) {
            Some(seen @ false) => *seen = true,
            _ => return, // already discovered
        }
        let o = self.obj(id);
        // Parser stagger: children of the root document become visible
        // to the fetcher as the parser reaches them.
        let stagger = if o.discovered_by == Some(ObjectId(0)) {
            o.discovery_at * PARSE_SPREAD_MS
        } else {
            0.0
        };
        let defer = (o.defer_ms + stagger) * self.opts.processing_scale;
        if defer > 0.0 {
            self.q.schedule(
                now + SimDuration::from_secs_f64(defer / 1e3),
                Ev::DeferredRequest(id),
            );
            return;
        }
        self.request_object(now, id);
    }

    /// Issue the request on the origin's connection (opening the
    /// connection on first use). HTTP/1.1 uses a connection pool.
    fn request_object(&mut self, now: SimTime, id: ObjectId) {
        if !self.protocol.is_quic() && self.opts.http_version == HttpVersion::Http1 {
            self.request_object_h1(now, id);
            return;
        }
        // The terminating proxy fronts every origin behind one
        // client-facing connection (CDN-style coalescing): the origin
        // fan-out happens on the proxy's pooled legs instead.
        let origin = if self.protocol.is_proxied() {
            0
        } else {
            self.obj(id).origin.0
        };
        let ci = match self.origin_conn.get(&origin) {
            Some(&ci) => ci,
            None => {
                let mux = if self.protocol.is_quic() {
                    Mux::H3(H3Map::new())
                } else {
                    Mux::H2(H2Mux::new())
                };
                self.open_conn(now, mux, None).index()
            }
        };
        self.origin_conn.insert(origin, ci);
        self.issue(now, ci, id);
    }

    /// Send the request for `id` on client connection `ci`.
    fn issue(&mut self, now: SimTime, ci: u32, id: ObjectId) {
        let r = ConnRef::Client(ci);
        self.trace.record(now, TraceKind::Request, u64::from(id.0));
        self.obs_request(now, id);
        if let Some(state) = self.conn_mut(r) {
            state.request(now, id);
        }
        self.pump(now, r);
    }

    /// Record one injected fault: bump the global counter and drop an
    /// instant on the page track's `fault` category.
    fn note_fault(&mut self, now: SimTime, what: &str, detail: u64) {
        pq_obs::registry().counter_add("fault.injected", 1);
        if let Some(pid) = self.obs_pid {
            if pq_obs::enabled(Level::Info) {
                pq_obs::tracer().instant(
                    Level::Info,
                    "fault",
                    what.to_string(),
                    pid,
                    TID_PAGE,
                    now.as_nanos(),
                    vec![("id", ArgValue::U64(detail))],
                );
            }
        }
    }

    fn conn_mut(&mut self, r: ConnRef) -> Option<&mut ConnState> {
        match r {
            ConnRef::Client(ci) => self.conns.get_mut(ci as usize),
            ConnRef::Leg(li) => self.path.legs.get_mut(li as usize),
        }
    }

    /// Open a client connection carrying `mux`, or — with
    /// `leg_origin` — a proxy leg to that origin.
    fn open_conn(&mut self, now: SimTime, mux: Mux, leg_origin: Option<u16>) -> ConnRef {
        let (r, cfg) = match leg_origin {
            None => (ConnRef::Client(self.conns.len() as u32), &self.cfg),
            Some(_) => (
                ConnRef::Leg(self.path.legs.len() as u32),
                self.path.leg_cfg().unwrap_or(&self.cfg),
            ),
        };
        let mut conn = Connection::open(ConnId(r.index()), cfg.clone(), now);
        // Handshake fault: the first client flight never reaches the
        // wire; the transport's own handshake timeout / RTO machinery
        // must recover (that recovery is exactly what we're testing).
        let hs_lost = self
            .faults
            .as_ref()
            .is_some_and(|f| f.handshake_flight_lost(r.key()));
        if hs_lost && conn.discard_pending_sends() > 0 {
            self.note_fault(now, "handshake flight lost", u64::from(r.key()));
        }
        if let Some(pid) = self.obs_pid {
            conn.set_obs_track(pid, r.tid());
            let name = match leg_origin {
                None => format!("conn {} ({})", r.index(), self.protocol.label()),
                Some(origin) => format!("leg {} (H2 → origin {origin})", r.index()),
            };
            pq_obs::tracer().name_track(pid, r.tid(), &name);
        }
        let state = ConnState {
            conn,
            mux,
            wake_version: 0,
        };
        match r {
            ConnRef::Client(_) => self.conns.push(state),
            ConnRef::Leg(_) => self.path.legs.push(state),
        }
        r
    }

    /// HTTP/1.1 request dispatch: reuse an idle pooled connection, grow
    /// the pool up to the browser limit, or queue.
    fn request_object_h1(&mut self, now: SimTime, id: ObjectId) {
        let origin = self.obj(id).origin.0;
        let pool = self.h1_pools.entry(origin).or_default();
        let idle = pool.conns.iter().copied().find(|&ci| {
            let state = self.conns.get(ci as usize);
            matches!(state, Some(ConnState { mux: Mux::H1(h), .. }) if h.is_idle())
        });
        let ci = match idle {
            Some(ci) => ci,
            None if pool.can_grow() => {
                let ci = self.open_conn(now, Mux::H1(H1Conn::new()), None).index();
                if let Some(pool) = self.h1_pools.get_mut(&origin) {
                    pool.conns.push(ci);
                }
                ci
            }
            None => {
                pool.waiting.push_back(id);
                return;
            }
        };
        self.issue(now, ci, id);
    }

    /// Drain a connection's outputs, route packets, apply progress, and
    /// reschedule its wakeup.
    fn pump(&mut self, now: SimTime, r: ConnRef) {
        loop {
            let Some(state) = self.conn_mut(r) else {
                return;
            };
            let outputs = state.conn.take_outputs();
            if outputs.is_empty() {
                if !state.top_up(now) {
                    break;
                }
                continue;
            }
            for out in outputs {
                self.route_output(now, r, out);
            }
        }
        let Some(state) = self.conn_mut(r) else {
            return;
        };
        let at = state.conn.poll_at();
        if at != SimTime::MAX {
            state.wake_version += 1;
            let version = state.wake_version;
            self.q.schedule(at.max(now), Ev::Wake(r, version));
        }
    }

    /// Queue `pkt` on `link`, scheduling the link's next transmission
    /// slot if it was idle.
    fn push(&mut self, now: SimTime, link: LinkId, pkt: Packet<Wire>) {
        let Some(l) = self.path.link_mut(link) else {
            return;
        };
        match l.push(now, pkt) {
            PushOutcome::StartedTx(t) => self.q.schedule(t, Ev::Tx(link)),
            PushOutcome::TailDropped => self.trace.record(now, TraceKind::TailDrop, 0),
            PushOutcome::Queued => {}
        }
    }

    #[expect(
        clippy::indexing_slicing,
        reason = "per-object arrays have one slot per object of `site`, and `ObjectId`s are positions in it"
    )]
    fn route_output(&mut self, now: SimTime, r: ConnRef, out: Output) {
        match out {
            Output::Send(dir, pkt) => {
                let link = self.path.send_link(r, dir);
                self.push(now, link, pkt);
            }
            Output::HandshakeDone => {
                self.trace
                    .record(now, TraceKind::HandshakeDone, u64::from(r.key()));
            }
            Output::ServerStreamProgress {
                stream,
                delivered,
                fin,
            } => {
                let Some(state) = self.conn_mut(r) else {
                    return;
                };
                for obj in state.server_ready(stream, delivered, fin) {
                    // Proxied stacks: the "server" side of the client
                    // connection is the proxy — no think time here;
                    // the request continues on a pooled origin leg
                    // (think happens at the real origin).
                    if matches!(r, ConnRef::Client(_)) && self.protocol.is_proxied() {
                        self.edge_dispatch(now, obj);
                        continue;
                    }
                    // The baseline think-time draw always happens, so
                    // the jitter stream is identical with faults off.
                    let mut think = self.opts.think_base_ms
                        + self.think_rng.exponential(self.opts.think_jitter_ms);
                    let stall = self.faults.as_ref().and_then(|f| f.server_stall_ms(obj.0));
                    if let Some(extra) = stall {
                        think += extra;
                        self.note_fault(now, "server stall", u64::from(obj.0));
                    }
                    self.q.schedule(
                        now + SimDuration::from_secs_f64(think / 1e3),
                        Ev::Respond(r, obj),
                    );
                }
            }
            Output::ClientStreamProgress {
                stream,
                delivered,
                fin,
            } => {
                let Some(state) = self.conn_mut(r) else {
                    return;
                };
                match &mut state.mux {
                    Mux::H1(h) => {
                        if let Some(p) = h.on_client_delivered(delivered) {
                            let idx = p.object.0 as usize;
                            let got = (crate::http1::RESPONSE_HEADER + p.delivered_body)
                                .min(self.expect[idx]);
                            self.object_progress(now, p.object, got.max(self.got[idx]));
                            if p.done {
                                // Connection idle: serve the next
                                // queued request of this origin.
                                let origin = self.obj(p.object).origin.0;
                                if let Some(next) = self
                                    .h1_pools
                                    .get_mut(&origin)
                                    .and_then(|pool| pool.waiting.pop_front())
                                {
                                    self.request_object_h1(now, next);
                                }
                            }
                        }
                    }
                    Mux::H2(m) => {
                        for p in m.on_client_delivered(delivered) {
                            match r {
                                ConnRef::Client(_) => {
                                    let got = self.got[p.object.0 as usize] + p.new_bytes;
                                    self.object_progress(now, p.object, got);
                                }
                                // Origin bytes arrived back at the
                                // proxy: relay them onto the client.
                                ConnRef::Leg(_) => self.relay(now, p.object, p.new_bytes),
                            }
                        }
                    }
                    Mux::H3(m) => {
                        if let Some(p) = m.on_client_delivered(stream, delivered, fin) {
                            let idx = p.object.0 as usize;
                            let got = (crate::http3::RESPONSE_HEADER + p.delivered_body)
                                .min(self.expect[idx]);
                            self.object_progress(now, p.object, got.max(self.got[idx]));
                        }
                    }
                }
            }
            Output::Trace(kind, detail) => {
                self.trace.record(now, kind, detail);
            }
        }
    }

    /// Route a request that reached the proxy onto a pooled origin
    /// leg: reuse an existing H2 connection, or open a new one to the
    /// replica the least-outstanding balancer picked.
    fn edge_dispatch(&mut self, now: SimTime, obj: ObjectId) {
        let _sp = pq_prof::span("edge:dispatch");
        let origin = self.obj(obj).origin.0;
        let Some(pools) = self.path.pools_mut() else {
            return;
        };
        // Evicted legs simply go quiescent: the pool stops routing to
        // them and their transport state has nothing left to send.
        let leg = match pools.dispatch(origin, now).action {
            Dispatch::Reuse(leg) => ConnRef::Leg(leg),
            Dispatch::Open { replica } => {
                let leg = self.open_conn(now, Mux::H2(H2Mux::new()), Some(origin));
                if let Some(pools) = self.path.pools_mut() {
                    pools.opened(origin, replica, leg.index(), now);
                }
                leg
            }
        };
        if let Some(state) = self.conn_mut(leg) {
            state.request(now, obj);
        }
        self.pump(now, leg);
    }

    /// Relay `new_bytes` of `obj` that reached the proxy onto the
    /// client-facing connection (always connection 0 when proxied).
    fn relay(&mut self, now: SimTime, obj: ObjectId, new_bytes: u64) {
        let Some(client) = self.conns.get_mut(0) else {
            return;
        };
        if self.path.relay(now, obj, new_bytes, client) {
            self.pump(now, ConnRef::Client(0));
        }
    }

    /// Note the request-issue instant of `id` — start of its waterfall
    /// span — and name the object's track row.
    fn obs_request(&mut self, now: SimTime, id: ObjectId) {
        let idx = id.0 as usize;
        if let Some(slot @ None) = self.req_at.get_mut(idx) {
            *slot = Some(now);
        }
        let Some(pid) = self.obs_pid else { return };
        if !pq_obs::enabled(Level::Info) {
            return;
        }
        let o = self.obj(id);
        pq_obs::tracer().name_track(
            pid,
            TID_OBJ_BASE + id.0,
            &format!("obj {} ({:?})", id.0, o.kind),
        );
    }

    /// Emit the request→processed waterfall span of a finished object.
    fn obs_object_span(&self, now: SimTime, id: ObjectId) {
        let Some(pid) = self.obs_pid else { return };
        if !pq_obs::enabled(Level::Info) {
            return;
        }
        let o = self.obj(id);
        let start = self
            .req_at
            .get(id.0 as usize)
            .copied()
            .flatten()
            .unwrap_or(now);
        pq_obs::tracer().span(
            Level::Info,
            "web",
            format!("{:?} {}", o.kind, o.size),
            pid,
            TID_OBJ_BASE + id.0,
            start.as_nanos(),
            now.as_nanos(),
            vec![
                ("origin", ArgValue::U64(u64::from(o.origin.0))),
                ("size", ArgValue::U64(o.size)),
                (
                    "render_blocking",
                    ArgValue::U64(u64::from(o.render_blocking)),
                ),
            ],
        );
    }

    /// Client-side processing cost of a fully delivered object: parse
    /// and execute for scripts/CSS, decode for images — time a real
    /// browser spends on the main thread, independent of the transport.
    fn processing_delay(&self, id: ObjectId) -> SimDuration {
        use crate::object::ObjectKind::*;
        let o = self.obj(id);
        let kb = o.size as f64 / 1000.0;
        let ms = match o.kind {
            Script => 200.0 + 0.7 * kb,
            Css => 80.0 + 0.25 * kb,
            Image => 25.0 + 0.12 * kb,
            Html => 40.0,
            Font => 30.0,
            Xhr => 15.0,
            Beacon => 2.0,
        };
        SimDuration::from_secs_f64(ms * self.opts.processing_scale / 1e3)
    }

    /// The client has `got` of the object's expected stream bytes.
    #[expect(
        clippy::indexing_slicing,
        reason = "per-object arrays have one slot per object of `site`, and `ObjectId`s are positions in it"
    )]
    fn object_progress(&mut self, now: SimTime, id: ObjectId, got: u64) {
        let idx = id.0 as usize;
        if self.done_at[idx].is_some() {
            return;
        }
        self.got[idx] = got.min(self.expect[idx]);
        let frac = self.got[idx] as f64 / self.expect[idx].max(1) as f64;
        self.frac[idx] = frac;
        let delivered = self.got[idx] >= self.expect[idx];
        if delivered && !self.processing[idx] {
            self.processing[idx] = true;
            self.q
                .schedule(now + self.processing_delay(id), Ev::Processed(id));
        }

        self.update_render(now, id, frac, false);

        // Progressive discovery of children referenced part-way
        // through the parent (`discovery_at = 1.0` waits for the
        // parent's processing instead).
        let mut kids = std::mem::take(&mut self.kid_buf);
        kids.extend(
            self.children[idx]
                .iter()
                .take_while(|(at, _)| *at < 1.0 && frac + 1e-12 >= *at)
                .map(|&(_, c)| c)
                .filter(|c| !self.discovered[c.0 as usize]),
        );
        for &kid in &kids {
            self.discover(now, kid);
        }
        kids.clear();
        self.kid_buf = kids;
    }

    /// Parsing/decoding of a delivered object finished: the object is
    /// now *done* — it paints fully, releases `discovery_at = 1.0`
    /// children, and counts towards onload.
    #[expect(
        clippy::indexing_slicing,
        reason = "per-object arrays have one slot per object of `site`, and `ObjectId`s are positions in it"
    )]
    fn object_processed(&mut self, now: SimTime, id: ObjectId) {
        let idx = id.0 as usize;
        match self.done_at.get_mut(idx) {
            Some(slot @ None) => *slot = Some(now),
            _ => return, // already processed
        }
        self.n_done += 1;
        if self.n_done == self.site.objects.len() {
            self.plt_at = Some(now);
        }
        self.trace.record(now, TraceKind::Response, u64::from(id.0));
        self.obs_object_span(now, id);
        self.update_render(now, id, 1.0, true);
        let mut kids = std::mem::take(&mut self.kid_buf);
        kids.extend(
            self.children[idx]
                .iter()
                .filter(|(at, _)| *at >= 1.0)
                .map(|&(_, c)| c)
                .filter(|c| !self.discovered[c.0 as usize]),
        );
        for &kid in &kids {
            self.discover(now, kid);
        }
        kids.clear();
        self.kid_buf = kids;
    }

    fn update_render(&mut self, now: SimTime, id: ObjectId, frac: f64, done: bool) {
        let o = self.obj(id);
        // Contribution of this object to visual completeness.
        // Progressive resources paint most of their area from raw
        // bytes, the rest once decoded; others appear when done.
        let contrib = if o.render_weight > 0.0 {
            if done {
                o.render_weight
            } else if o.progressive {
                o.render_weight * (frac * PROGRESSIVE_CAP)
            } else {
                0.0
            }
        } else {
            0.0
        };
        // Incremental VC update.
        let Some(slot) = self.contrib.get_mut(id.0 as usize) else {
            return;
        };
        let delta = contrib - *slot;
        *slot = contrib;
        self.vc += delta;

        // First-paint gate: head parsed + render-blocking resources
        // processed, then one style+layout pass.
        if !self.gate_open && !self.gate_scheduled {
            let head_parsed = self.frac.first().is_some_and(|&f| f >= 0.15);
            let blocking_done = self
                .site
                .objects
                .iter()
                .filter(|o| o.render_blocking)
                .all(|o| {
                    self.done_at
                        .get(o.id.0 as usize)
                        .is_some_and(|d| d.is_some())
                });
            if head_parsed && blocking_done {
                self.gate_scheduled = true;
                let layout =
                    SimDuration::from_secs_f64(STYLE_LAYOUT_MS * self.opts.processing_scale / 1e3);
                self.q.schedule(now + layout, Ev::GateOpen);
            }
        } else if self.gate_open && delta > 0.0 {
            self.timeline.push(now, self.vc);
        }
    }

    /// End-of-load bookkeeping: FVC/LVC/PLT markers on the page track
    /// and the per-protocol metric histograms in the global registry.
    fn obs_finish(&self, metrics: &MetricSet, plt: SimTime, complete: bool) {
        let label = self.protocol.label();
        let reg = pq_obs::registry();
        reg.counter_add("web.pageloads", 1);
        if !complete {
            reg.counter_add("web.pageloads_incomplete", 1);
        }
        reg.observe(&format!("web.plt_ms{{proto=\"{label}\"}}"), metrics.plt_ms);
        reg.observe(&format!("web.fvc_ms{{proto=\"{label}\"}}"), metrics.fvc_ms);
        reg.observe(&format!("web.si_ms{{proto=\"{label}\"}}"), metrics.si_ms);

        self.path.obs_finish(label);

        let Some(pid) = self.obs_pid else { return };
        if !pq_obs::enabled(Level::Info) {
            return;
        }
        let t = pq_obs::tracer();
        let mark = |name: &'static str, at: Option<SimTime>, ms: f64| {
            let Some(at) = at else { return };
            t.instant(
                Level::Info,
                "web",
                name,
                pid,
                TID_PAGE,
                at.as_nanos(),
                vec![("ms", ArgValue::F64(ms))],
            );
        };
        mark("FVC", self.timeline.first_change(), metrics.fvc_ms);
        mark("LVC", self.timeline.last_change(), metrics.lvc_ms);
        mark("PLT", Some(plt), metrics.plt_ms);
    }

    fn run(mut self) -> PageLoadResult {
        let horizon = SimTime::ZERO + self.opts.horizon;
        let max_events = 200_000_000u64;

        // Run until onload fired AND the first-paint gate opened (the
        // gate's layout event can be scheduled past the last object on
        // small fast pages).
        while self.plt_at.is_none() || !self.gate_open {
            let Some(t) = self.q.peek_time() else { break };
            if t > horizon || self.q.processed() > max_events {
                break;
            }
            let Some((now, ev)) = self.q.pop() else { break };
            let _ev_span = pq_prof::span(ev_name(&ev));
            match ev {
                Ev::Tx(link) => {
                    let Some(l) = self.path.link_mut(link) else {
                        continue;
                    };
                    let txd = l.on_tx_done(now);
                    if let Some((at, pkt)) = txd.delivery {
                        self.q.schedule(at, Ev::Deliver(link, pkt));
                    } else {
                        self.trace.record(now, TraceKind::RandomLoss, 0);
                    }
                    if let Some(next) = txd.next_tx_done {
                        self.q.schedule(next, Ev::Tx(link));
                    }
                }
                Ev::Deliver(link, pkt) => match self.path.arrive(now, link, &pkt) {
                    Arrival::Endpoint(r, dir) => {
                        if let Some(state) = self.conn_mut(r) {
                            state.conn.on_packet(now, &pkt.payload, dir);
                            self.pump(now, r);
                        }
                    }
                    Arrival::Forward(to, retx) => {
                        for r in retx.into_iter().flatten() {
                            self.trace.record(now, TraceKind::Retransmit, 0);
                            self.push(now, LinkId::ClientDown, r);
                        }
                        self.push(now, to, pkt);
                    }
                },
                Ev::Wake(r, version) => {
                    if let Some(state) = self.conn_mut(r).filter(|s| s.wake_version == version) {
                        state.conn.on_wake(now);
                        self.pump(now, r);
                    }
                }
                Ev::Processed(id) => {
                    self.object_processed(now, id);
                }
                Ev::DeferredRequest(id) => {
                    self.request_object(now, id);
                }
                Ev::GateOpen => {
                    self.gate_open = true;
                    if self.vc > 0.0 {
                        self.timeline.push(now, self.vc);
                    }
                }
                Ev::Respond(r, obj) => {
                    let mut body = self.obj(obj).size;
                    // Truncated-response fault: the server closes the
                    // stream early, so the client can never reach the
                    // expected byte count and the object stays open —
                    // the page load ends incomplete at the horizon.
                    let trunc = self.faults.as_ref().and_then(|f| f.truncate(obj.0));
                    if let Some(frac) = trunc {
                        body = ((body as f64 * frac) as u64).min(body.saturating_sub(1));
                        self.note_fault(now, "truncated response", u64::from(obj.0));
                    }
                    if let ConnRef::Leg(leg) = r {
                        let origin = self.obj(obj).origin.0;
                        self.path.open_bridge(obj, origin, leg, body);
                    }
                    if let Some(state) = self.conn_mut(r) {
                        state.respond(now, obj, body);
                    }
                    self.pump(now, r);
                }
            }
        }

        let complete = self.plt_at.is_some();
        // Onload in practice does not fire before the final paint
        // flush; clamp PLT to the last visual change.
        let last_paint = self.timeline.last_change().unwrap_or(SimTime::ZERO);
        let plt = self
            .plt_at
            .unwrap_or_else(|| self.q.now().min(horizon))
            .max(last_paint);
        let metrics = MetricSet::from_timeline(&self.timeline, plt);
        self.obs_finish(&metrics, plt, complete);
        let recording =
            (self.opts.fps > 0).then(|| Recording::render(&self.timeline, plt, self.opts.fps));
        PageLoadResult {
            metrics,
            recording,
            complete,
            plt,
            retransmits: (self.conns.iter().chain(&self.path.legs))
                .map(|c| c.conn.retransmits())
                .sum(),
            connections: (self.conns.len() + self.path.legs.len()) as u32,
            object_done: self.done_at,
            trace: self.trace,
            timeline: self.timeline,
        }
    }
}
