//! The terminating proxy's per-origin connection pools.
//!
//! Pure bookkeeping: the loader owns the actual transport
//! connections; the pool decides *which* pooled leg serves a request
//! (or that a new one must be opened), applies the idle-eviction
//! policy, and does spooky-style least-outstanding load balancing
//! across replica origins.
//!
//! Determinism contract: every decision is a function of the call
//! sequence (itself a deterministic event order) plus seed-derived
//! replica tiebreaks — no wall clock, no map with randomized
//! iteration order. Origins live in a `BTreeMap`; replica and
//! connection scans are index-ordered `Vec` walks, so eviction and
//! selection order never depend on hashing.

use pq_sim::{SimRng, SimTime};
use std::collections::BTreeMap;

/// What the proxy should do with a dispatched request.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Dispatch {
    /// Reuse the pooled leg with this loader-assigned id.
    Reuse(u32),
    /// Open a new leg to this replica (register it with
    /// [`EdgePools::opened`] afterwards).
    Open {
        /// Replica origin index in `0..replicas`.
        replica: u32,
    },
}

/// A dispatch decision plus the idle legs evicted on the way.
#[derive(Clone, Debug)]
pub struct DispatchOutcome {
    /// Reuse an existing leg or open a new one.
    pub action: Dispatch,
    /// Loader ids of pooled legs evicted by the idle timeout, in
    /// deterministic (replica, age) order. The loader should stop
    /// using them; their transport state simply goes quiescent.
    pub evicted: Vec<u32>,
}

/// Lifetime counters of one pool instance (feed the `edge.*` metrics
/// and the manifest's edge block).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PoolStats {
    /// Legs opened.
    pub opened: u64,
    /// Requests served on an already-open leg (connection reuse).
    pub reused: u64,
    /// Legs evicted by the idle timeout.
    pub evicted: u64,
}

/// One pooled origin-side connection.
#[derive(Clone, Copy, Debug)]
struct PoolConn {
    /// Loader-assigned leg id.
    leg: u32,
    /// Requests dispatched but not yet fully answered.
    outstanding: u32,
    /// Last dispatch or completion instant (idle clock).
    last_used: SimTime,
}

/// One replica origin's connection list.
#[derive(Clone, Debug, Default)]
struct Replica {
    conns: Vec<PoolConn>,
}

/// Per-origin pooled connection state for the whole proxy.
#[derive(Debug)]
pub struct EdgePools {
    pool_size: u32,
    idle: pq_sim::SimDuration,
    replicas: u32,
    /// `origin → replicas` (BTreeMap: deterministic iteration).
    origins: BTreeMap<u16, Vec<Replica>>,
    /// Base RNG for seed-derived tiebreaks; every tiebreak is forked
    /// by `(origin, replica)` key, never drawn sequentially.
    rng: SimRng,
    stats: PoolStats,
}

impl EdgePools {
    /// Fresh pool state. `rng` must be forked from the load seed so
    /// tiebreaks are a pure function of the cell's derived seed.
    pub fn new(cfg: &crate::EdgeConfig, rng: SimRng) -> EdgePools {
        EdgePools {
            pool_size: cfg.pool_size.max(1),
            idle: cfg.idle,
            replicas: cfg.replicas.max(1),
            origins: BTreeMap::new(),
            rng,
            stats: PoolStats::default(),
        }
    }

    /// Seed-derived tiebreak for a replica: breaks least-outstanding
    /// ties without introducing a fixed replica-0 bias across loads.
    fn tiebreak(&self, origin: u16, replica: u32) -> u64 {
        self.rng
            .fork_idx(
                "replica-tiebreak",
                (u64::from(origin) << 32) | u64::from(replica),
            )
            .next_u64()
    }

    /// Decide which leg serves a request for `origin` issued at `now`.
    ///
    /// Order of operations (all deterministic): evict idle legs, pick
    /// the replica with the fewest outstanding requests (seed-derived
    /// tiebreak, then replica index), then within it reuse an idle
    /// leg, grow the pool if every leg is busy and there is room, or
    /// share the least-loaded leg.
    pub fn dispatch(&mut self, origin: u16, now: SimTime) -> DispatchOutcome {
        let replicas = self.replicas as usize;
        let idle = self.idle;
        let pool = self
            .origins
            .entry(origin)
            .or_insert_with(|| vec![Replica::default(); replicas]);

        // Idle eviction, in (replica index, conn age) order. The conn
        // list is append-ordered, so `retain` keeps a stable order.
        let mut evicted = Vec::new();
        for r in pool.iter_mut() {
            r.conns.retain(|c| {
                let expired = c.outstanding == 0 && now > c.last_used + idle;
                if expired {
                    evicted.push(c.leg);
                }
                !expired
            });
        }
        self.stats.evicted += evicted.len() as u64;

        // Least-outstanding replica; ties break by the seed-derived
        // value, then by index (fully deterministic).
        let loads: Vec<u32> = pool
            .iter()
            .map(|r| r.conns.iter().map(|c| c.outstanding).sum::<u32>())
            .collect();
        let tiebreaks: Vec<u64> = (0..loads.len() as u32)
            .map(|r| self.tiebreak(origin, r))
            .collect();
        let chosen = loads
            .iter()
            .zip(&tiebreaks)
            .enumerate()
            .min_by_key(|(i, (load, tie))| (**load, **tie, *i))
            .map(|(i, _)| i)
            .unwrap_or(0);

        let Some(replica) = self
            .origins
            .get_mut(&origin)
            .and_then(|p| p.get_mut(chosen))
        else {
            // Unreachable by construction (the entry was just
            // created); degrade to opening a fresh leg.
            return DispatchOutcome {
                action: Dispatch::Open { replica: 0 },
                evicted,
            };
        };

        // Within the replica: idle leg → reuse; room → open; else
        // share the least-loaded leg (H2 multiplexes).
        let best_idle = replica
            .conns
            .iter_mut()
            .filter(|c| c.outstanding == 0)
            .min_by_key(|c| c.leg);
        if let Some(conn) = best_idle {
            conn.outstanding += 1;
            conn.last_used = now;
            self.stats.reused += 1;
            return DispatchOutcome {
                action: Dispatch::Reuse(conn.leg),
                evicted,
            };
        }
        if (replica.conns.len() as u32) < self.pool_size {
            return DispatchOutcome {
                action: Dispatch::Open {
                    replica: chosen as u32,
                },
                evicted,
            };
        }
        let busiest_ok = replica
            .conns
            .iter_mut()
            .min_by_key(|c| (c.outstanding, c.leg));
        match busiest_ok {
            Some(conn) => {
                conn.outstanding += 1;
                conn.last_used = now;
                self.stats.reused += 1;
                DispatchOutcome {
                    action: Dispatch::Reuse(conn.leg),
                    evicted,
                }
            }
            None => DispatchOutcome {
                action: Dispatch::Open {
                    replica: chosen as u32,
                },
                evicted,
            },
        }
    }

    /// Register a leg the loader opened after a [`Dispatch::Open`]
    /// decision; the triggering request counts as outstanding on it.
    pub fn opened(&mut self, origin: u16, replica: u32, leg: u32, now: SimTime) {
        let replicas = self.replicas as usize;
        let pool = self
            .origins
            .entry(origin)
            .or_insert_with(|| vec![Replica::default(); replicas]);
        if let Some(r) = pool.get_mut(replica as usize) {
            r.conns.push(PoolConn {
                leg,
                outstanding: 1,
                last_used: now,
            });
            self.stats.opened += 1;
        }
    }

    /// A request on `leg` completed: it no longer counts as
    /// outstanding, and the idle clock restarts.
    pub fn complete(&mut self, origin: u16, leg: u32, now: SimTime) {
        if let Some(conn) = self
            .origins
            .get_mut(&origin)
            .into_iter()
            .flatten()
            .flat_map(|r| r.conns.iter_mut())
            .find(|c| c.leg == leg)
        {
            conn.outstanding = conn.outstanding.saturating_sub(1);
            conn.last_used = now;
        }
    }

    /// Lifetime counters.
    pub fn stats(&self) -> PoolStats {
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::EdgeConfig;
    use pq_sim::SimDuration;

    #[allow(
        clippy::disallowed_methods,
        reason = "test-local seed; production forks from the load seed"
    )]
    fn pools(cfg: &EdgeConfig) -> EdgePools {
        EdgePools::new(cfg, SimRng::new(42).fork("edge-pool"))
    }

    fn t(ms: u64) -> SimTime {
        SimTime::ZERO + SimDuration::from_millis(ms)
    }

    #[test]
    fn first_dispatch_opens_then_reuses() {
        let cfg = EdgeConfig::default();
        let mut p = pools(&cfg);
        let d1 = p.dispatch(7, t(0));
        let Dispatch::Open { replica } = d1.action else {
            panic!("empty pool must open");
        };
        p.opened(7, replica, 0, t(0));
        p.complete(7, 0, t(10));
        // Now idle: the next request reuses leg 0.
        let d2 = p.dispatch(7, t(20));
        assert_eq!(d2.action, Dispatch::Reuse(0));
        assert_eq!(p.stats().opened, 1);
        assert_eq!(p.stats().reused, 1);
    }

    #[test]
    fn least_outstanding_balances_replicas() {
        let cfg = EdgeConfig {
            replicas: 2,
            pool_size: 1,
            ..EdgeConfig::default()
        };
        let mut p = pools(&cfg);
        // Two requests with no completions must land on different
        // replicas (least-outstanding).
        let d1 = p.dispatch(1, t(0));
        let Dispatch::Open { replica: r1 } = d1.action else {
            panic!("open");
        };
        p.opened(1, r1, 0, t(0));
        let d2 = p.dispatch(1, t(1));
        let Dispatch::Open { replica: r2 } = d2.action else {
            panic!("second replica must open, got {:?}", d2.action);
        };
        assert_ne!(r1, r2);
    }

    #[test]
    fn idle_eviction_is_deterministic_and_ordered() {
        let cfg = EdgeConfig {
            idle: SimDuration::from_millis(100),
            replicas: 1,
            pool_size: 4,
            ..EdgeConfig::default()
        };
        let mut p = pools(&cfg);
        for leg in 0..3u32 {
            let d = p.dispatch(3, t(u64::from(leg)));
            match d.action {
                Dispatch::Open { replica } => p.opened(3, replica, leg, t(u64::from(leg))),
                Dispatch::Reuse(l) => p.complete(3, l, t(u64::from(leg))), // shouldn't happen
            }
        }
        for leg in 0..3u32 {
            p.complete(3, leg, t(10 + u64::from(leg)));
        }
        // Past the idle horizon, all three evict in age order.
        let d = p.dispatch(3, t(500));
        assert_eq!(d.evicted, vec![0, 1, 2]);
        assert_eq!(p.stats().evicted, 3);
        assert!(matches!(d.action, Dispatch::Open { .. }));
    }

    #[test]
    fn busy_full_pool_shares_least_loaded_leg() {
        let cfg = EdgeConfig {
            replicas: 1,
            pool_size: 1,
            ..EdgeConfig::default()
        };
        let mut p = pools(&cfg);
        let d = p.dispatch(9, t(0));
        assert!(matches!(d.action, Dispatch::Open { .. }));
        p.opened(9, 0, 0, t(0));
        // Leg busy, pool full → multiplex onto the same leg.
        let d2 = p.dispatch(9, t(1));
        assert_eq!(d2.action, Dispatch::Reuse(0));
    }

    #[test]
    fn same_seed_same_decisions() {
        let cfg = EdgeConfig {
            replicas: 3,
            ..EdgeConfig::default()
        };
        let run = || {
            let mut p = pools(&cfg);
            let mut log = Vec::new();
            let mut next_leg = 0u32;
            for i in 0..20u64 {
                let origin = (i % 3) as u16;
                let d = p.dispatch(origin, t(i * 7));
                match d.action {
                    Dispatch::Open { replica } => {
                        p.opened(origin, replica, next_leg, t(i * 7));
                        log.push((i, u64::from(replica), u64::from(next_leg)));
                        next_leg += 1;
                    }
                    Dispatch::Reuse(leg) => {
                        log.push((i, u64::MAX, u64::from(leg)));
                        if i % 2 == 0 {
                            p.complete(origin, leg, t(i * 7 + 3));
                        }
                    }
                }
            }
            (log, p.stats())
        };
        assert_eq!(run(), run());
    }
}
