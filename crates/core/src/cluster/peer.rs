//! The transport seam between cluster nodes.
//!
//! All inter-node traffic — failure-detector pings, indirect probe
//! requests, and cache probes on the serving path — goes through the
//! [`PeerTransport`] trait, so the same [`super::Node`] runs over an
//! in-process node table in tests ([`super::InProcessTransport`]), over
//! HTTP in a real fleet (`fp_edge::fleet::HttpPeerTransport`), and
//! under injected packet loss via [`LossyTransport`] in chaos runs.
//!
//! Transport errors are *evidence*, not failures: a [`PeerError`] from
//! a ping feeds the failure detector, and one from a serving-path probe
//! makes the node fall through to its local origin path. Neither ever
//! reaches a client.

use std::collections::HashSet;
use std::sync::Arc;
use std::sync::Mutex;
use std::time::Duration;

use super::gossip::GossipEntry;
use super::slots::NodeId;
use crate::resilience::Clock;
use crate::runtime::DocResponse;

/// Why a peer exchange failed. Coarse on purpose: the caller's response
/// is the same (count it, route around it) regardless of the cause.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PeerError {
    /// The exchange missed its deadline (or was dropped by a lossy
    /// link, which is indistinguishable from the caller's side).
    Timeout,
    /// The peer could not be reached at all (connection refused, node
    /// marked down, no route).
    Unreachable(String),
    /// The peer answered with something unintelligible.
    Protocol(String),
}

impl std::fmt::Display for PeerError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PeerError::Timeout => write!(f, "peer exchange timed out"),
            PeerError::Unreachable(why) => write!(f, "peer unreachable: {why}"),
            PeerError::Protocol(why) => write!(f, "peer protocol error: {why}"),
        }
    }
}

impl std::error::Error for PeerError {}

/// How one node talks to another. Implementations must be cheap to call
/// from the serving path and must enforce their own deadlines — a
/// `probe` that can block unboundedly would defeat the serving path's
/// never-hang guarantee.
pub trait PeerTransport: Send + Sync {
    /// Failure-detector ping from `from` to `to`, piggybacking `from`'s
    /// gossip digest. A healthy peer merges the digest and answers with
    /// its own.
    fn ping(
        &self,
        from: NodeId,
        to: NodeId,
        digest: &[GossipEntry],
    ) -> Result<Vec<GossipEntry>, PeerError>;

    /// Indirect probe: ask `via` to ping `target` on `from`'s behalf.
    /// `Ok(())` means `via` reached `target`.
    fn ping_req(&self, from: NodeId, via: NodeId, target: NodeId) -> Result<(), PeerError>;

    /// Serving-path cache probe: ask `to` whether its cache alone (no
    /// origin traffic, fresh entries only) can answer `sql`, once it has
    /// adopted `from`'s data-release `epoch`.
    /// `Ok(None)` is a clean miss; `Err` is transport trouble and feeds
    /// the failure detector.
    fn probe(
        &self,
        from: NodeId,
        to: NodeId,
        sql: &str,
        epoch: u64,
    ) -> Result<Option<DocResponse>, PeerError>;
}

/// A transport wrapper that injects network faults for chaos and
/// torture runs, deterministically per seed:
///
/// - **drops**: a seeded pseudo-random fraction of exchanges surface
///   as [`PeerError::Timeout`], exactly what a flaky network looks
///   like from the caller's side;
/// - **delays** (optional): a seeded fraction of the surviving
///   exchanges sleep on an injected [`Clock`] before delivery — inert
///   wall-clock-wise under a virtual clock, but it advances the timing
///   budget the failure detector runs on, modeling a slow link;
/// - **asymmetric partitions**: individual *directed* links can be
///   severed mid-run (`block(a, b)` kills a→b while b→a still works),
///   which is the partition shape that trips naive failure detectors.
pub struct LossyTransport {
    inner: Arc<dyn PeerTransport>,
    /// Probability of dropping any one exchange, in [0, 1].
    drop_rate: f64,
    rng: Mutex<u64>,
    /// `(rate, delay, clock)`: fraction of delivered exchanges that
    /// sleep `delay` on `clock` first. `None` = no delay faults (and no
    /// extra rng draws, so pre-existing seeds keep their streams).
    delay: Option<(f64, Duration, Arc<dyn Clock>)>,
    /// Severed directed links: an exchange whose path crosses a blocked
    /// direction times out.
    blocked: Mutex<HashSet<(NodeId, NodeId)>>,
}

impl LossyTransport {
    /// Wraps `inner`, dropping `drop_rate` of exchanges using a seeded
    /// xorshift stream (deterministic per seed).
    pub fn new(inner: Arc<dyn PeerTransport>, drop_rate: f64, seed: u64) -> LossyTransport {
        LossyTransport {
            inner,
            drop_rate: drop_rate.clamp(0.0, 1.0),
            rng: Mutex::new(seed.max(1)),
            delay: None,
            blocked: Mutex::new(HashSet::new()),
        }
    }

    /// Adds delay faults: `rate` of the exchanges that survive the drop
    /// draw sleep `delay` on `clock` before being delivered.
    pub fn with_delay(mut self, rate: f64, delay: Duration, clock: Arc<dyn Clock>) -> Self {
        self.delay = Some((rate.clamp(0.0, 1.0), delay, clock));
        self
    }

    /// Severs the directed link `from` → `to` (the reverse direction is
    /// untouched — block both to model a full partition).
    pub fn block(&self, from: NodeId, to: NodeId) {
        self.blocked
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .insert((from, to));
    }

    /// Restores the directed link `from` → `to`.
    pub fn unblock(&self, from: NodeId, to: NodeId) {
        self.blocked
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .remove(&(from, to));
    }

    /// Restores every severed link.
    pub fn heal_partitions(&self) {
        self.blocked
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .clear();
    }

    /// Whether the directed link `from` → `to` is currently severed.
    pub fn is_blocked(&self, from: NodeId, to: NodeId) -> bool {
        self.blocked
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .contains(&(from, to))
    }

    fn draw(&self) -> f64 {
        let mut state = self.rng.lock().unwrap_or_else(|e| e.into_inner());
        let mut x = *state;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        *state = x;
        (x >> 11) as f64 / (1u64 << 53) as f64 % 1.0
    }

    fn dropped(&self) -> bool {
        self.draw() < self.drop_rate
    }

    /// The drop/delay gauntlet for one delivered exchange. Partition
    /// checks are set lookups, not rng draws, so arming a partition
    /// mid-run never perturbs the seeded stream.
    fn deliver(&self) -> Result<(), PeerError> {
        if self.dropped() {
            return Err(PeerError::Timeout);
        }
        if let Some((rate, delay, clock)) = &self.delay {
            if self.draw() < *rate {
                clock.sleep(*delay);
            }
        }
        Ok(())
    }
}

impl PeerTransport for LossyTransport {
    fn ping(
        &self,
        from: NodeId,
        to: NodeId,
        digest: &[GossipEntry],
    ) -> Result<Vec<GossipEntry>, PeerError> {
        if self.is_blocked(from, to) {
            return Err(PeerError::Timeout);
        }
        self.deliver()?;
        self.inner.ping(from, to, digest)
    }

    fn ping_req(&self, from: NodeId, via: NodeId, target: NodeId) -> Result<(), PeerError> {
        // An indirect probe crosses two links: the request to the via
        // and the via's ping of the target.
        if self.is_blocked(from, via) || self.is_blocked(via, target) {
            return Err(PeerError::Timeout);
        }
        self.deliver()?;
        self.inner.ping_req(from, via, target)
    }

    fn probe(
        &self,
        from: NodeId,
        to: NodeId,
        sql: &str,
        epoch: u64,
    ) -> Result<Option<DocResponse>, PeerError> {
        if self.is_blocked(from, to) {
            return Err(PeerError::Timeout);
        }
        self.deliver()?;
        self.inner.probe(from, to, sql, epoch)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    struct AlwaysOk;

    impl PeerTransport for AlwaysOk {
        fn ping(
            &self,
            _from: NodeId,
            _to: NodeId,
            _digest: &[GossipEntry],
        ) -> Result<Vec<GossipEntry>, PeerError> {
            Ok(Vec::new())
        }

        fn ping_req(&self, _from: NodeId, _via: NodeId, _target: NodeId) -> Result<(), PeerError> {
            Ok(())
        }

        fn probe(
            &self,
            _from: NodeId,
            _to: NodeId,
            _sql: &str,
            _epoch: u64,
        ) -> Result<Option<DocResponse>, PeerError> {
            Ok(None)
        }
    }

    #[test]
    fn lossy_transport_drops_roughly_the_configured_fraction() {
        let lossy = LossyTransport::new(Arc::new(AlwaysOk), 0.3, 0xBADCAB);
        let trials = 2000;
        let mut drops = 0;
        for _ in 0..trials {
            if lossy.ping(NodeId(0), NodeId(1), &[]).is_err() {
                drops += 1;
            }
        }
        let rate = drops as f64 / trials as f64;
        assert!((0.2..0.4).contains(&rate), "observed drop rate {rate}");
    }

    #[test]
    fn zero_rate_drops_nothing_and_full_rate_drops_everything() {
        let clean = LossyTransport::new(Arc::new(AlwaysOk), 0.0, 7);
        let dead = LossyTransport::new(Arc::new(AlwaysOk), 1.0, 7);
        for _ in 0..100 {
            assert!(clean.ping_req(NodeId(0), NodeId(1), NodeId(2)).is_ok());
            assert!(matches!(
                dead.probe(NodeId(0), NodeId(1), "SELECT 1", 0),
                Err(PeerError::Timeout)
            ));
        }
    }

    #[test]
    fn lossy_stream_is_deterministic_per_seed() {
        let a = LossyTransport::new(Arc::new(AlwaysOk), 0.5, 42);
        let b = LossyTransport::new(Arc::new(AlwaysOk), 0.5, 42);
        for _ in 0..256 {
            assert_eq!(a.dropped(), b.dropped());
        }
    }

    #[test]
    fn asymmetric_partition_severs_one_direction_only() {
        let lossy = LossyTransport::new(Arc::new(AlwaysOk), 0.0, 7);
        lossy.block(NodeId(0), NodeId(1));
        assert!(matches!(
            lossy.ping(NodeId(0), NodeId(1), &[]),
            Err(PeerError::Timeout)
        ));
        assert!(lossy.ping(NodeId(1), NodeId(0), &[]).is_ok());
        lossy.unblock(NodeId(0), NodeId(1));
        assert!(lossy.ping(NodeId(0), NodeId(1), &[]).is_ok());
    }

    #[test]
    fn indirect_probe_needs_both_legs_of_the_relay_path() {
        let lossy = LossyTransport::new(Arc::new(AlwaysOk), 0.0, 7);
        // Sever requester → via: the relay request itself can't get out.
        lossy.block(NodeId(0), NodeId(2));
        assert!(lossy.ping_req(NodeId(0), NodeId(2), NodeId(1)).is_err());
        lossy.heal_partitions();
        // Sever via → target: the relay can't complete its ping.
        lossy.block(NodeId(2), NodeId(1));
        assert!(lossy.ping_req(NodeId(0), NodeId(2), NodeId(1)).is_err());
        // A different via with clean links still works.
        assert!(lossy.ping_req(NodeId(0), NodeId(3), NodeId(1)).is_ok());
    }

    #[test]
    fn delay_faults_sleep_on_the_injected_clock() {
        let clock = crate::resilience::MockClock::shared();
        let lossy = LossyTransport::new(Arc::new(AlwaysOk), 0.0, 7).with_delay(
            1.0,
            Duration::from_millis(40),
            Arc::clone(&clock) as Arc<dyn Clock>,
        );
        let before = clock.now();
        assert!(lossy.ping(NodeId(0), NodeId(1), &[]).is_ok());
        assert_eq!(clock.now() - before, Duration::from_millis(40));
    }

    #[test]
    fn arming_partitions_mid_run_never_perturbs_the_seeded_stream() {
        let a = LossyTransport::new(Arc::new(AlwaysOk), 0.5, 99);
        let b = LossyTransport::new(Arc::new(AlwaysOk), 0.5, 99);
        // `b` takes blocked exchanges interleaved with its draws; the
        // drop stream for delivered exchanges must still match `a`.
        b.block(NodeId(8), NodeId(9));
        for i in 0..256 {
            if i % 3 == 0 {
                assert!(b.ping(NodeId(8), NodeId(9), &[]).is_err());
            }
            assert_eq!(a.dropped(), b.dropped());
        }
    }
}
