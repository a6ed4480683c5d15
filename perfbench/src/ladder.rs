//! The layer ladder: one site's bytes moved over each stack × network,
//! one connection per origin, by a small simulated world the benchmark
//! owns. It is built on the public `Connection` / `Link` / `EventQueue`
//! API in the shape of the transport tests' single-connection world.
//!
//! Each rung is timed in bulk, never one call at a time: a timer read
//! costs as much as a queue operation, so per-call timing would
//! measure the timer. A logging pass records every call the world
//! makes into the event queue and the links; those calls are then
//! replayed alone on fresh queues and links with same-sized payloads
//! and the same loss seeds, which prices the `sim` layer. The whole
//! transfer is timed too, and what the two replays do not account for
//! is the endpoints' (`transport`) cost, with the world's own
//! dispatch folded in. A last pass counts each call's allocations.

use crate::stats::ratio;
use pq_sim::{
    ConnId, Direction, EventQueue, Link, NetworkKind, Packet, PushOutcome, SimRng, SimTime,
};
use pq_transport::{Connection, Output, Protocol, StreamId, Wire};
use pq_web::Website;
use std::hint::black_box;
use std::time::Instant;

/// Repetitions of each timed rung; the median is kept. One repetition
/// takes milliseconds, so many are needed to see past scheduler noise.
const REPS: usize = 15;

/// Costs and counts of one transport family's transfers.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct Rung {
    /// Nanoseconds of whole transfers.
    pub transfer_ns: f64,
    /// Nanoseconds of the replayed queue calls.
    pub queue_ns: f64,
    /// Nanoseconds of the replayed link calls.
    pub link_ns: f64,
    /// Events popped.
    pub events: u64,
    /// Packets offered to a link.
    pub packets: u64,
    /// Allocations made inside endpoint calls.
    pub endpoint_allocs: u64,
}

impl Rung {
    fn endpoint_ns(&self) -> f64 {
        (self.transfer_ns - self.queue_ns - self.link_ns).max(0.0)
    }
}

/// Per-layer costs of the ladder, split by transport family.
#[derive(Clone, Debug, Default)]
pub struct Ladder {
    /// TCP-family transfers.
    pub tcp: Rung,
    /// QUIC-family transfers.
    pub quic: Rung,
}

impl Ladder {
    fn rung(&self, quic: bool) -> &Rung {
        if quic {
            &self.quic
        } else {
            &self.tcp
        }
    }

    /// Event-queue nanoseconds per event popped.
    pub fn queue_ns_per_event(&self) -> f64 {
        ratio(
            self.tcp.queue_ns + self.quic.queue_ns,
            (self.tcp.events + self.quic.events) as f64,
        )
    }

    /// Link nanoseconds per packet offered.
    pub fn link_ns_per_packet(&self) -> f64 {
        ratio(
            self.tcp.link_ns + self.quic.link_ns,
            (self.tcp.packets + self.quic.packets) as f64,
        )
    }

    /// Endpoint nanoseconds per packet offered, for one family.
    pub fn transport_ns_per_packet(&self, quic: bool) -> f64 {
        let r = self.rung(quic);
        ratio(r.endpoint_ns(), r.packets as f64)
    }

    /// Endpoint allocations per packet offered, for one family.
    pub fn transport_allocs_per_packet(&self, quic: bool) -> f64 {
        let r = self.rung(quic);
        ratio(r.endpoint_allocs as f64, r.packets as f64)
    }

    /// Packets the ladder moved.
    pub fn packets(&self) -> u64 {
        self.tcp.packets + self.quic.packets
    }

    /// Host time the ladder's costs predict for work of this size.
    pub fn explain_ns(&self, events: u64, packets: u64, quic: bool) -> f64 {
        events as f64 * self.queue_ns_per_event()
            + packets as f64 * (self.link_ns_per_packet() + self.transport_ns_per_packet(quic))
    }
}

enum Ev {
    TxDone(Direction),
    Deliver(Direction, Packet<Wire>),
    Wake(u64),
}

/// Payloads as large as the world's, so replays move as many bytes.
type EvPayload = [u64; std::mem::size_of::<Ev>().div_ceil(8)];
type WirePayload = [u64; std::mem::size_of::<Wire>().div_ceil(8)];

/// One call into the event queue.
enum QueueCall {
    Schedule(SimTime),
    Peek,
    Pop,
}

/// One call into a link.
enum LinkCall {
    Push(Direction, SimTime, u32),
    TxDone(Direction, SimTime),
}

/// What a pass does besides moving the bytes.
enum Mode {
    /// Nothing: the pass is timed as a whole.
    Plain,
    /// Log every queue and link call.
    Log {
        queue: Vec<QueueCall>,
        links: Vec<LinkCall>,
    },
    /// Count the allocations of every endpoint call, less the fixed
    /// amount reading the counters costs.
    Allocs { overhead: u64, allocs: u64 },
}

impl Mode {
    fn allocs() -> Mode {
        let a = pq_prof::alloc_snapshot().total_allocs;
        let b = pq_prof::alloc_snapshot().total_allocs;
        Mode::Allocs {
            overhead: b.saturating_sub(a),
            allocs: 0,
        }
    }

    /// Run one endpoint call.
    fn endpoint<R>(&mut self, f: impl FnOnce() -> R) -> R {
        match self {
            Mode::Allocs { overhead, allocs } => {
                let a0 = pq_prof::alloc_snapshot().total_allocs;
                let r = f();
                let a1 = pq_prof::alloc_snapshot().total_allocs;
                *allocs += a1.saturating_sub(a0).saturating_sub(*overhead);
                r
            }
            _ => f(),
        }
    }

    fn queue(&mut self, call: QueueCall) {
        if let Mode::Log { queue, .. } = self {
            queue.push(call);
        }
    }

    fn link(&mut self, call: LinkCall) {
        if let Mode::Log { links, .. } = self {
            links.push(call);
        }
    }
}

/// Simulated time after which a transfer counts as stuck.
const HORIZON: SimTime = SimTime::from_secs(600);

/// Bytes of one request.
const REQUEST_BYTES: u64 = 400;

/// One transfer: the objects one origin serves, over one stack and
/// network, with one loss seed.
#[derive(Clone, Copy)]
struct Case<'a> {
    protocol: Protocol,
    network: NetworkKind,
    seed: u64,
    sizes: &'a [u64],
}

impl Case<'_> {
    fn links<P>(&self) -> (Link<P>, Link<P>) {
        let net = self.network.config();
        let rng = SimRng::new(self.seed);
        (
            Link::new(net.uplink(), rng.fork("up-loss")),
            Link::new(net.downlink(), rng.fork("down-loss")),
        )
    }
}

struct World {
    mode: Mode,
    quic: bool,
    q: EventQueue<Ev>,
    up: Link<Wire>,
    down: Link<Wire>,
    conn: Connection,
    wake_version: u64,
    /// Response size per request stream (QUIC) or per request in
    /// byte-stream order (TCP).
    responses: Vec<u64>,
    /// TCP requests served so far.
    served: usize,
    /// Bytes each QUIC stream delivered, or the TCP stream's total.
    delivered: Vec<u64>,
    events: u64,
    packets: u64,
}

impl World {
    fn schedule(&mut self, at: SimTime, ev: Ev) {
        self.mode.queue(QueueCall::Schedule(at));
        self.q.schedule(at, ev);
    }

    /// Hand the connection's outputs to the links until it is quiet,
    /// then re-arm its timer.
    fn pump(&mut self, now: SimTime) {
        loop {
            let conn = &mut self.conn;
            let outputs = self.mode.endpoint(|| conn.take_outputs());
            if outputs.is_empty() {
                break;
            }
            for o in outputs {
                match o {
                    Output::Send(dir, pkt) => self.send(now, dir, pkt),
                    Output::ClientStreamProgress {
                        stream, delivered, ..
                    } => {
                        let i = if self.quic { stream.0 as usize } else { 0 };
                        if let Some(d) = self.delivered.get_mut(i) {
                            *d = (*d).max(delivered);
                        }
                    }
                    Output::ServerStreamProgress {
                        stream,
                        delivered,
                        fin,
                    } => self.serve(now, stream, delivered, fin),
                    Output::HandshakeDone | Output::Trace(..) => {}
                }
            }
        }
        let conn = &self.conn;
        let at = self.mode.endpoint(|| conn.poll_at());
        if at != SimTime::MAX {
            self.wake_version += 1;
            self.schedule(at.max(now), Ev::Wake(self.wake_version));
        }
    }

    fn send(&mut self, now: SimTime, dir: Direction, pkt: Packet<Wire>) {
        self.packets += 1;
        self.mode.link(LinkCall::Push(dir, now, pkt.size));
        let link = match dir {
            Direction::Up => &mut self.up,
            Direction::Down => &mut self.down,
        };
        if let PushOutcome::StartedTx(t) = link.push(now, pkt) {
            self.schedule(t, Ev::TxDone(dir));
        }
    }

    /// The server answers every request whose bytes have all arrived.
    fn serve(&mut self, now: SimTime, stream: StreamId, delivered: u64, fin: bool) {
        match &mut self.conn {
            Connection::Quic(q) => {
                let slot = self.responses.get_mut(stream.0 as usize);
                let bytes = slot.filter(|_| fin).map_or(0, std::mem::take);
                if bytes > 0 {
                    self.mode
                        .endpoint(|| q.server_write(now, stream, bytes, true));
                }
            }
            Connection::Tcp(t) => {
                // Requests are REQUEST_BYTES each on one byte stream.
                let arrived = (delivered / REQUEST_BYTES) as usize;
                while self.served < arrived.min(self.responses.len()) {
                    let bytes = self.responses[self.served];
                    self.mode.endpoint(|| t.server_write(now, bytes));
                    self.served += 1;
                }
            }
        }
    }

    fn run(&mut self) {
        loop {
            self.mode.queue(QueueCall::Peek);
            match self.q.peek_time() {
                Some(at) if at <= HORIZON => {}
                _ => break,
            }
            self.mode.queue(QueueCall::Pop);
            let Some((now, ev)) = self.q.pop() else { break };
            self.events += 1;
            match ev {
                Ev::TxDone(dir) => {
                    self.mode.link(LinkCall::TxDone(dir, now));
                    let link = match dir {
                        Direction::Up => &mut self.up,
                        Direction::Down => &mut self.down,
                    };
                    let txd = link.on_tx_done(now);
                    if let Some((at, pkt)) = txd.delivery {
                        self.schedule(at, Ev::Deliver(dir, pkt));
                    }
                    if let Some(next) = txd.next_tx_done {
                        self.schedule(next, Ev::TxDone(dir));
                    }
                }
                Ev::Deliver(dir, pkt) => {
                    let conn = &mut self.conn;
                    self.mode
                        .endpoint(|| conn.on_packet(now, &pkt.payload, dir));
                    self.pump(now);
                }
                Ev::Wake(v) => {
                    if v == self.wake_version {
                        let conn = &mut self.conn;
                        self.mode.endpoint(|| conn.on_wake(now));
                        self.pump(now);
                    }
                }
            }
        }
    }
}

/// Fetch the case's objects over one connection, all requested at time
/// zero. Fails when a byte is missing at the horizon.
fn transfer(mode: Mode, case: Case) -> Result<World, String> {
    let Case {
        protocol,
        network,
        sizes,
        ..
    } = case;
    let net = network.config();
    let quic = protocol.is_quic();
    let (up, down) = case.links();
    let mut w = World {
        mode,
        quic,
        q: EventQueue::new(),
        up,
        down,
        conn: Connection::open(ConnId(1), protocol.config(&net), SimTime::ZERO),
        wake_version: 0,
        responses: sizes.to_vec(),
        served: 0,
        delivered: vec![0; if quic { sizes.len() } else { 1 }],
        events: 0,
        packets: 0,
    };
    let now = SimTime::ZERO;
    w.pump(now);
    for i in 0..sizes.len() {
        match &mut w.conn {
            Connection::Quic(q) => w
                .mode
                .endpoint(|| q.client_open_stream(now, StreamId(i as u64), REQUEST_BYTES)),
            Connection::Tcp(t) => w.mode.endpoint(|| t.client_write(now, REQUEST_BYTES)),
        }
        w.pump(now);
    }
    w.run();
    let want: Vec<u64> = if quic {
        sizes.to_vec()
    } else {
        vec![sizes.iter().sum()]
    };
    if w.delivered != want {
        return Err(format!(
            "ladder: {} over {} delivered {} of {} bytes",
            protocol.label(),
            network.name(),
            w.delivered.iter().sum::<u64>(),
            want.iter().sum::<u64>()
        ));
    }
    Ok(w)
}

/// Replay logged queue calls on a fresh queue; returns nanoseconds.
fn replay_queue(calls: &[QueueCall]) -> f64 {
    let mut q: EventQueue<EvPayload> = EventQueue::new();
    let payload = [0u64; std::mem::size_of::<EvPayload>() / 8];
    let t0 = Instant::now();
    for call in calls {
        match call {
            QueueCall::Schedule(at) => q.schedule(*at, black_box(payload)),
            QueueCall::Peek => {
                black_box(q.peek_time());
            }
            QueueCall::Pop => {
                black_box(q.pop());
            }
        }
    }
    t0.elapsed().as_nanos() as f64
}

/// Replay logged link calls on fresh links with the transfer's loss
/// seeds; returns nanoseconds.
fn replay_links(case: Case, calls: &[LinkCall]) -> f64 {
    let (mut up, mut down) = case.links::<WirePayload>();
    let payload = [0u64; std::mem::size_of::<WirePayload>() / 8];
    let t0 = Instant::now();
    for call in calls {
        match *call {
            LinkCall::Push(dir, now, size) => {
                let link = if dir == Direction::Up {
                    &mut up
                } else {
                    &mut down
                };
                black_box(link.push(now, Packet::new(ConnId(1), size, black_box(payload))));
            }
            LinkCall::TxDone(dir, now) => {
                let link = if dir == Direction::Up {
                    &mut up
                } else {
                    &mut down
                };
                black_box(link.on_tx_done(now));
            }
        }
    }
    t0.elapsed().as_nanos() as f64
}

fn median_of(mut xs: Vec<f64>) -> f64 {
    xs.sort_by(f64::total_cmp);
    xs[xs.len() / 2]
}

/// Price every layer on `site` moved over each of `stacks` × the four
/// networks, one connection per origin as the browser opens them.
/// Allocation counting is switched on for the counting pass only,
/// unless it was on already.
pub fn run(site: &Website, stacks: &[Protocol], seed: u64) -> Result<Ladder, String> {
    let mut origins: Vec<Vec<u64>> = Vec::new();
    for o in &site.objects {
        let i = usize::from(o.origin.0);
        if origins.len() <= i {
            origins.resize(i + 1, Vec::new());
        }
        origins[i].push(o.size);
    }
    origins.retain(|sizes| !sizes.is_empty());
    let mut cases = Vec::new();
    for (i, &protocol) in stacks.iter().enumerate() {
        for network in NetworkKind::ALL {
            for (j, sizes) in origins.iter().enumerate() {
                cases.push(Case {
                    protocol,
                    network,
                    seed: seed ^ ((i * origins.len() + j) as u64),
                    sizes,
                });
            }
        }
    }
    let mut ladder = Ladder::default();
    let mut logs = Vec::with_capacity(cases.len());
    for &case in &cases {
        let mode = Mode::Log {
            queue: Vec::new(),
            links: Vec::new(),
        };
        let w = transfer(mode, case)?;
        let rung = if case.protocol.is_quic() {
            &mut ladder.quic
        } else {
            &mut ladder.tcp
        };
        rung.events += w.events;
        rung.packets += w.packets;
        let Mode::Log { queue, links } = w.mode else {
            unreachable!("the logging pass keeps its mode")
        };
        logs.push((case, queue, links));
    }
    for quic in [false, true] {
        let mine: Vec<_> = logs
            .iter()
            .filter(|(c, _, _)| c.protocol.is_quic() == quic)
            .collect();
        let mut transfer_ns = Vec::with_capacity(REPS);
        let mut queue_ns = Vec::with_capacity(REPS);
        let mut link_ns = Vec::with_capacity(REPS);
        for _ in 0..REPS {
            let t0 = Instant::now();
            for (case, _, _) in &mine {
                black_box(transfer(Mode::Plain, *case)?);
            }
            transfer_ns.push(t0.elapsed().as_nanos() as f64);
            queue_ns.push(mine.iter().map(|(_, q, _)| replay_queue(q)).sum());
            link_ns.push(mine.iter().map(|(c, _, l)| replay_links(*c, l)).sum());
        }
        let rung = if quic {
            &mut ladder.quic
        } else {
            &mut ladder.tcp
        };
        rung.transfer_ns = median_of(transfer_ns);
        rung.queue_ns = median_of(queue_ns);
        rung.link_ns = median_of(link_ns);
    }
    let was_on = pq_prof::alloc_enabled();
    pq_prof::set_alloc_enabled(true);
    let mut counted = Ok(());
    for &case in &cases {
        match transfer(Mode::allocs(), case) {
            Ok(w) => {
                if let Mode::Allocs { allocs, .. } = w.mode {
                    let rung = if case.protocol.is_quic() {
                        &mut ladder.quic
                    } else {
                        &mut ladder.tcp
                    };
                    rung.endpoint_allocs += allocs;
                }
            }
            Err(e) => {
                counted = Err(e);
                break;
            }
        }
    }
    pq_prof::set_alloc_enabled(was_on);
    counted.map(|()| ladder)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ladder_moves_every_byte_and_prices_every_layer() {
        let _g = crate::counters::test_lock();
        let site = pq_web::corpus().swap_remove(0);
        let l = run(&site, &[Protocol::Tcp, Protocol::Quic], 1).expect("transfer completes");
        for r in [l.tcp, l.quic] {
            assert!(r.events > 0 && r.packets > 0, "{r:?}");
            assert!(
                r.transfer_ns > 0.0 && r.queue_ns > 0.0 && r.link_ns > 0.0,
                "{r:?}"
            );
            assert!(r.endpoint_allocs > 0, "{r:?}");
        }
        assert!(l.queue_ns_per_event() > 0.0);
        assert!(l.link_ns_per_packet() > 0.0);
        assert!(l.explain_ns(l.quic.events, l.quic.packets, true) > 0.0);
    }

    #[test]
    fn counts_repeat_exactly() {
        let _g = crate::counters::test_lock();
        let site = pq_web::corpus().swap_remove(0);
        let a = run(&site, &[Protocol::Quic], 3).expect("transfer completes");
        let b = run(&site, &[Protocol::Quic], 3).expect("transfer completes");
        assert_eq!(
            (a.quic.events, a.quic.packets),
            (b.quic.events, b.quic.packets)
        );
        // Allocation counts are process-wide, and other tests allocate
        // on their own threads meanwhile, so only their presence is
        // checked here; benchmark runs compare them exactly.
        assert!(a.quic.endpoint_allocs > 0 && b.quic.endpoint_allocs > 0);
    }

    #[test]
    fn replayed_links_see_the_same_losses() {
        // Replaying a transfer's link calls on fresh links with the
        // same seeds must reproduce its deliveries exactly, or the
        // replay would price different work.
        let site = pq_web::corpus().swap_remove(0);
        let sizes: Vec<u64> = site.objects.iter().map(|o| o.size).collect();
        let case = Case {
            protocol: Protocol::Tcp,
            network: NetworkKind::Lte,
            seed: 5,
            sizes: &sizes,
        };
        let mode = Mode::Log {
            queue: Vec::new(),
            links: Vec::new(),
        };
        let w = transfer(mode, case).expect("transfer completes");
        let Mode::Log { links, .. } = &w.mode else {
            unreachable!()
        };
        let (mut up, mut down) = case.links::<WirePayload>();
        let payload = [0u64; std::mem::size_of::<WirePayload>() / 8];
        let mut delivered = 0u64;
        for call in links {
            match *call {
                LinkCall::Push(dir, now, size) => {
                    let link = if dir == Direction::Up {
                        &mut up
                    } else {
                        &mut down
                    };
                    link.push(now, Packet::new(ConnId(1), size, payload));
                }
                LinkCall::TxDone(dir, now) => {
                    let link = if dir == Direction::Up {
                        &mut up
                    } else {
                        &mut down
                    };
                    delivered += u64::from(link.on_tx_done(now).delivery.is_some());
                }
            }
        }
        let original = w.up.stats().delivered + w.down.stats().delivered;
        assert_eq!(delivered, original);
    }
}
