//! Per-load fingerprints: every observable output of a page load —
//! metric bits, PLT, per-object completion, retransmit and connection
//! counts, trace counters and the full trace-event log — hashed into a
//! table pinned per (stack, network, faults, seed).
//!
//! The study digests only see the metrics; retransmits, connection
//! counts and trace details never reach them. This table holds the
//! whole event sequence of a load fixed, so any refactor of the
//! browser or the path topology that reorders, adds or drops an event
//! shows up here. A deliberate behaviour change re-pins the table: the
//! failure message prints the full current table.

use pq_fault::FaultPlan;
use pq_sim::{NetworkKind, SimTime, TraceKind};
use pq_transport::Protocol;
use pq_web::{load_page, HttpVersion, LoadOptions, PageLoadResult};
use std::sync::Arc;

/// Multi-origin (18 hosts) but small: the proxy pools evict and reuse,
/// and every client stack opens many connections.
const SITE: &str = "spotify.com";
/// Burst loss, a mid-load flap, server stalls, truncated bodies and
/// handshake-flight drops (client connections and proxy legs alike).
const FAULTS: &str =
    "seed=7;gel:pgb=0.02,pbg=0.3,bad=0.4;flap:at=1200,dur=300;stall:p=0.1,ms=800;trunc:p=0.01;hs:p=0.3";
/// Large enough that no load's event log is ever cut short.
const TRACE_CAPACITY: usize = 1 << 22;

/// FNV-1a over a stream of `u64` words.
struct Fnv(u64);

impl Fnv {
    fn word(&mut self, v: u64) {
        for b in v.to_le_bytes() {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

fn fingerprint(r: &PageLoadResult) -> u64 {
    let mut h = Fnv(0xcbf2_9ce4_8422_2325);
    let m = &r.metrics;
    for v in [m.fvc_ms, m.lvc_ms, m.si_ms, m.vc85_ms, m.plt_ms] {
        h.word(v.to_bits());
    }
    h.word(u64::from(r.complete));
    h.word(r.plt.as_nanos());
    h.word(r.object_done.len() as u64);
    for d in &r.object_done {
        h.word(d.map_or(u64::MAX, SimTime::as_nanos));
    }
    h.word(r.retransmits);
    h.word(u64::from(r.connections));
    let t = &r.trace;
    for v in [t.retransmits, t.rtos, t.requests, t.responses, t.handshakes] {
        h.word(v);
    }
    assert!(t.events().len() < TRACE_CAPACITY, "event log was cut short");
    h.word(t.events().len() as u64);
    for e in t.events() {
        let kind = match e.kind {
            TraceKind::HandshakeDone => 0,
            TraceKind::Retransmit => 1,
            TraceKind::Rto => 2,
            TraceKind::TailDrop => 3,
            TraceKind::RandomLoss => 4,
            TraceKind::Request => 5,
            TraceKind::Response => 6,
        };
        h.word(e.at.as_nanos());
        h.word(kind);
        h.word(e.detail);
    }
    h.0
}

/// Every (label, fingerprint) of the pinned matrix, in a fixed order.
#[expect(
    clippy::expect_used,
    reason = "the pinned site and fault spec are constants"
)]
fn current_table() -> Vec<(String, u64)> {
    let site = pq_web::site(SITE).expect("corpus site");
    let plan = Arc::new(FaultPlan::parse(FAULTS).expect("valid fault spec"));
    let base = LoadOptions {
        trace_capacity: TRACE_CAPACITY,
        edge: Some(pq_edge::EdgeConfig::default()),
        ..LoadOptions::default()
    };
    let faulted = LoadOptions {
        faults: Some(plan),
        ..base.clone()
    };
    let h1 = LoadOptions {
        http_version: HttpVersion::Http1,
        ..base.clone()
    };
    let mut cases: Vec<(&str, NetworkKind, Protocol, u64, &LoadOptions)> = Vec::new();
    for proto in Protocol::ALL_WITH_EDGE {
        cases.push(("clean", NetworkKind::Lte, proto, 1, &base));
        cases.push(("clean", NetworkKind::Mss, proto, 2, &base));
        cases.push(("faults", NetworkKind::Lte, proto, 3, &faulted));
        cases.push(("faults", NetworkKind::Mss, proto, 4, &faulted));
    }
    for proto in [Protocol::Tcp, Protocol::TcpPlus] {
        cases.push(("h1", NetworkKind::Lte, proto, 5, &h1));
    }
    cases
        .into_iter()
        .map(|(cond, kind, proto, seed, opts)| {
            let r = load_page(&site, &kind.config(), proto, seed, opts);
            let label = format!("{}/{kind:?}/{cond}/{seed}", proto.label());
            (label, fingerprint(&r))
        })
        .collect()
}

/// Every entry must hold across refactors of the browser and the path;
/// only a deliberate behaviour change re-pins.
const PINNED: &[(&str, u64)] = &[
    ("TCP/Lte/clean/1", 0xd39737d2a7ef8065),
    ("TCP/Mss/clean/2", 0xf5941f991399880e),
    ("TCP/Lte/faults/3", 0x1657a2468014b360),
    ("TCP/Mss/faults/4", 0x34c3332f6642ed5e),
    ("TCP+/Lte/clean/1", 0x499228b51a5e7a95),
    ("TCP+/Mss/clean/2", 0xcbb54957caedb749),
    ("TCP+/Lte/faults/3", 0xd195476192e29515),
    ("TCP+/Mss/faults/4", 0x8ac7acdf1e5db442),
    ("TCP+BBR/Lte/clean/1", 0x49d701ae1c1792ec),
    ("TCP+BBR/Mss/clean/2", 0x94b03c797b990888),
    ("TCP+BBR/Lte/faults/3", 0x2f015558f542121f),
    ("TCP+BBR/Mss/faults/4", 0xbfc8248d44443912),
    ("QUIC/Lte/clean/1", 0x01571ec1a7097fcb),
    ("QUIC/Mss/clean/2", 0x70cd8489ac1d798b),
    ("QUIC/Lte/faults/3", 0x69a644a724bb550e),
    ("QUIC/Mss/faults/4", 0xd110277f99264a09),
    ("QUIC+BBR/Lte/clean/1", 0xb3977bd0d23b5055),
    ("QUIC+BBR/Mss/clean/2", 0x5f0a437fa33ddc32),
    ("QUIC+BBR/Lte/faults/3", 0xb1925c8bfe49a085),
    ("QUIC+BBR/Mss/faults/4", 0x0af89940687c65a8),
    ("QUIC-EDGE/Lte/clean/1", 0xb269f8b7d8bdfedf),
    ("QUIC-EDGE/Mss/clean/2", 0xadc43d5e55299b4a),
    ("QUIC-EDGE/Lte/faults/3", 0x9491aa5342c6d6b9),
    ("QUIC-EDGE/Mss/faults/4", 0xf0f243f0ed5c4306),
    ("QUIC-MBX/Lte/clean/1", 0xbadf23fa6e8faa6b),
    ("QUIC-MBX/Mss/clean/2", 0x9e7eea40625913dc),
    ("QUIC-MBX/Lte/faults/3", 0xe8ca6ef64d41f83b),
    ("QUIC-MBX/Mss/faults/4", 0xe1c0dc7d322a977c),
    ("H2-EDGE/Lte/clean/1", 0x677431a4cd6872f1),
    ("H2-EDGE/Mss/clean/2", 0x6507c2a8ac6a369b),
    ("H2-EDGE/Lte/faults/3", 0xff9694024b5e2a7e),
    ("H2-EDGE/Mss/faults/4", 0x61503176b7888e2c),
    ("TCP/Lte/h1/5", 0xdf93bd03c18e5d5f),
    ("TCP+/Lte/h1/5", 0x75eb7e432506dc15),
];

#[test]
fn every_load_fingerprint_is_pinned() {
    let table = current_table();
    let rendered: Vec<String> = table
        .iter()
        .map(|(l, f)| format!("    (\"{l}\", 0x{f:016x}),"))
        .collect();
    let current: Vec<(&str, u64)> = table.iter().map(|(l, f)| (l.as_str(), *f)).collect();
    assert_eq!(
        current,
        PINNED,
        "load fingerprints moved; current table:\n{}",
        rendered.join("\n")
    );
}
