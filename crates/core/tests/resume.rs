//! End-to-end checkpoint/resume determinism for the stimulus grid:
//! a build whose cells are replayed from the write-ahead journal must
//! be bit-identical to an uninterrupted build, including through a
//! torn journal tail and a partially written journal.
//!
//! One test function: the journal is process-global state, so the
//! scenarios must run sequentially.

#![allow(
    clippy::unwrap_used,
    clippy::disallowed_methods,
    reason = "test helpers unwrap catalogue lookups, and the test tears the journal on purpose"
)]

use pq_sim::NetworkKind;
use pq_study::stimulus::StimulusSet;
use pq_transport::Protocol;
use pq_web::{catalogue, Website};

fn grid() -> (Vec<Website>, Vec<NetworkKind>, Vec<Protocol>) {
    let sites: Vec<Website> = ["apache.org", "wikipedia.org"]
        .iter()
        .map(|n| catalogue::site(n).unwrap())
        .collect();
    (
        sites,
        vec![NetworkKind::Dsl, NetworkKind::Lte],
        vec![Protocol::Tcp, Protocol::Quic],
    )
}

fn build() -> StimulusSet {
    let (sites, nets, protos) = grid();
    StimulusSet::build(&sites, &nets, &protos, 3, 42)
}

fn assert_bit_identical(a: &StimulusSet, b: &StimulusSet) {
    assert_eq!(a.iter().count(), b.iter().count());
    for s in a.iter() {
        let c = s.condition;
        let o = b.get(c.site, c.network, c.protocol).unwrap();
        assert_eq!(s.metrics.fvc_ms.to_bits(), o.metrics.fvc_ms.to_bits());
        assert_eq!(s.metrics.lvc_ms.to_bits(), o.metrics.lvc_ms.to_bits());
        assert_eq!(s.metrics.si_ms.to_bits(), o.metrics.si_ms.to_bits());
        assert_eq!(s.metrics.vc85_ms.to_bits(), o.metrics.vc85_ms.to_bits());
        assert_eq!(s.metrics.plt_ms.to_bits(), o.metrics.plt_ms.to_bits());
        assert_eq!(s.mean_plt_ms.to_bits(), o.mean_plt_ms.to_bits());
        assert_eq!(s.mean_retransmits.to_bits(), o.mean_retransmits.to_bits());
        assert_eq!(s.video_secs.to_bits(), o.video_secs.to_bits());
        assert_eq!(s.runs, o.runs);
    }
    assert_eq!(a.runs_retried(), b.runs_retried());
}

#[test]
fn journalled_build_resumes_bit_identical() {
    let dir = std::env::temp_dir().join(format!("pq-resume-test-{}", std::process::id()));
    let path = dir.join("journal.jsonl");
    let total: u64 = 2 * 2 * 2;

    // Uninterrupted baseline, no journal anywhere near it.
    let baseline = build();
    assert_eq!(baseline.resumed_cells(), 0);

    // Journalled build: every completed cell becomes a record.
    pq_ckpt::journal_open(&path, false).unwrap();
    let first = build();
    assert_eq!(first.resumed_cells(), 0);
    assert_eq!(pq_ckpt::records_written(), total);
    assert_bit_identical(&baseline, &first);
    // Detach (what an interrupted run does): the file survives.
    pq_ckpt::journal_detach();
    assert!(path.exists());

    // Corrupt the tail the way a mid-write kill would: a partial
    // record with no trailing newline.
    {
        use std::io::Write as _;
        let mut f = std::fs::OpenOptions::new()
            .append(true)
            .open(&path)
            .unwrap();
        f.write_all(b"{\"schema\":1,\"kind\":\"cell\",\"key\":\"torn")
            .unwrap();
    }

    // Full resume: the torn tail is truncated, every intact cell is
    // replayed, nothing is rebuilt, output is bit-identical.
    let replay = pq_ckpt::journal_open(&path, true).unwrap();
    assert_eq!(replay.records as u64, total);
    assert!(replay.torn, "torn tail must be detected");
    let resumed = build();
    assert_eq!(resumed.resumed_cells(), total);
    assert_bit_identical(&baseline, &resumed);
    pq_ckpt::journal_detach();

    // Partial resume: drop the last half of the journal; the missing
    // cells are rebuilt and the result is still bit-identical.
    {
        let body = std::fs::read_to_string(&path).unwrap();
        let keep: Vec<&str> = body.lines().take(total as usize / 2).collect();
        std::fs::write(&path, format!("{}\n", keep.join("\n"))).unwrap();
    }
    let replay = pq_ckpt::journal_open(&path, true).unwrap();
    assert_eq!(replay.records as u64, total / 2);
    let partial = build();
    assert_eq!(partial.resumed_cells(), total / 2);
    assert_bit_identical(&baseline, &partial);

    // Completing the run retires the journal.
    pq_ckpt::journal_complete().unwrap();
    assert!(!path.exists(), "journal must be deleted on completion");

    std::fs::remove_dir_all(&dir).ok();
}
