//! Micro-benchmarks of the simulation substrate: the event queue, the
//! RNG, range-set algebra and link shaping — the hot paths every
//! experiment runs millions of times.

#![allow(
    clippy::disallowed_methods,
    reason = "benchmarks seed their fixtures directly"
)]

use criterion::{criterion_group, criterion_main, BatchSize, Criterion, Throughput};
use pq_sim::{
    ConnId, EventQueue, Link, LinkConfig, Packet, PushOutcome, SimDuration, SimRng, SimTime,
};
use pq_transport::RangeSet;

fn bench_event_queue(c: &mut Criterion) {
    let mut g = c.benchmark_group("event_queue");
    g.throughput(Throughput::Elements(10_000));
    g.bench_function("schedule_pop_10k", |b| {
        b.iter_batched(
            || {
                let mut rng = SimRng::new(7);
                (0..10_000u64)
                    .map(|_| SimTime::from_nanos(rng.below(1_000_000_000)))
                    .collect::<Vec<_>>()
            },
            |times| {
                let mut q = EventQueue::new();
                for (i, t) in times.into_iter().enumerate() {
                    q.schedule(t, i);
                }
                let mut n = 0;
                while q.pop().is_some() {
                    n += 1;
                }
                n
            },
            BatchSize::SmallInput,
        )
    });
    g.finish();
}

fn bench_rng(c: &mut Criterion) {
    let mut g = c.benchmark_group("rng");
    g.throughput(Throughput::Elements(1_000));
    g.bench_function("u64_1k", |b| {
        let mut rng = SimRng::new(3);
        b.iter(|| {
            let mut acc = 0u64;
            for _ in 0..1_000 {
                acc = acc.wrapping_add(rng.next_u64());
            }
            acc
        })
    });
    g.bench_function("normal_1k", |b| {
        let mut rng = SimRng::new(3);
        b.iter(|| {
            let mut acc = 0.0;
            for _ in 0..1_000 {
                acc += rng.normal();
            }
            acc
        })
    });
    g.finish();
}

fn bench_rangeset(c: &mut Criterion) {
    let mut g = c.benchmark_group("rangeset");
    // The SACK-scoreboard pattern: scattered inserts + cumulative trims.
    g.bench_function("scoreboard_churn", |b| {
        let mut rng = SimRng::new(11);
        let inserts: Vec<(u64, u64)> = (0..500)
            .map(|_| {
                let s = rng.below(1_000_000);
                (s, s + 1460)
            })
            .collect();
        b.iter(|| {
            let mut rs = RangeSet::new();
            for &(s, e) in &inserts {
                rs.insert(s, e);
            }
            for cut in (0..1_000_000).step_by(100_000) {
                rs.remove_below(cut);
            }
            rs.covered()
        })
    });
    g.finish();
}

fn bench_link(c: &mut Criterion) {
    let mut g = c.benchmark_group("link");
    g.throughput(Throughput::Elements(10_000));
    g.bench_function("saturated_10k_packets", |b| {
        b.iter(|| {
            let cfg = LinkConfig::with_queue_ms(25_000_000, SimDuration::from_millis(12), 0.0, 200);
            let mut link: Link<u32> = Link::new(cfg, SimRng::new(5));
            let mut now = SimTime::ZERO;
            let mut next = match link.push(now, Packet::new(ConnId(0), 1500, 0)) {
                PushOutcome::StartedTx(t) => t,
                _ => unreachable!(),
            };
            let mut delivered = 0u64;
            for i in 0..10_000u32 {
                now = next;
                link.push(now, Packet::new(ConnId(0), 1500, i));
                let txd = link.on_tx_done(now);
                if txd.delivery.is_some() {
                    delivered += 1;
                }
                next = txd
                    .next_tx_done
                    .unwrap_or(now + SimDuration::from_millis(1));
            }
            delivered
        })
    });
    g.finish();
}

criterion_group!(
    benches,
    bench_event_queue,
    bench_rng,
    bench_rangeset,
    bench_link
);
criterion_main!(benches);
