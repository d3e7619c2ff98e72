//! Property test for the SWIM failure detector under asymmetric
//! partitions (satellite of the torture PR): for **any** set of severed
//! directed links, a node the observer can still confirm — directly, or
//! through any relay whose both legs are open — is never declared Dead.
//! One-way link loss must cost at most an indirect probe, never a
//! false obituary. The companion property closes the other direction:
//! a node no open path can confirm *is* declared Dead once the suspect
//! timeout has hardened, so the detector is live as well as safe.
//!
//! The harness drives one observer's [`Membership`] over a
//! [`LossyTransport`] carrying only partitions (no drops, no delays, so
//! the property is exact rather than probabilistic), with
//! `indirect_probes` raised above the fleet size so every live relay is
//! tried — the configuration under which "some open two-leg path
//! exists" and "an indirect probe succeeds" coincide.

use fp_suite::proxy::cluster::{
    GossipEntry, LossyTransport, Membership, MembershipConfig, NodeId, NodeStatus, PeerError,
    PeerTransport,
};
use fp_suite::proxy::resilience::{Clock, MockClock};
use fp_suite::proxy::DocResponse;
use proptest::prelude::*;
use std::sync::Arc;

/// A perfectly healthy network: every exchange succeeds with an empty
/// digest. All faults come from the `LossyTransport` wrapped around it.
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

const OBSERVER: NodeId = NodeId(0);

/// Whether the observer can confirm `target` given the blocked directed
/// links: the direct link is open, or some relay has both legs open.
fn confirmable(n: u16, blocked: &[(u16, u16)], target: u16) -> bool {
    let is_blocked = |a: u16, b: u16| blocked.contains(&(a, b));
    if !is_blocked(0, target) {
        return true;
    }
    (1..n).any(|via| via != target && !is_blocked(0, via) && !is_blocked(via, target))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn no_false_obituary_while_any_relay_path_confirms(
        n in 3u16..=6,
        cuts in proptest::collection::vec((0u16..6, 0u16..6), 0..24),
    ) {
        // Clamp the generated cuts onto the fleet and drop self-loops.
        let blocked: Vec<(u16, u16)> = cuts
            .iter()
            .map(|&(a, b)| (a % n, b % n))
            .filter(|&(a, b)| a != b)
            .collect();

        let clock = MockClock::shared();
        let peers: Vec<NodeId> = (1..n).map(NodeId).collect();
        let cfg = MembershipConfig {
            // Raised above any fleet size so every Alive relay is tried.
            indirect_probes: 16,
            ..MembershipConfig::fast_test()
        };
        let lossy = LossyTransport::new(Arc::new(AlwaysOk), 0.0, 1);
        for &(a, b) in &blocked {
            lossy.block(NodeId(a), NodeId(b));
        }
        let mut view = Membership::new(
            OBSERVER,
            &peers,
            cfg.clone(),
            Arc::clone(&clock) as Arc<dyn Clock>,
        );

        // Enough rounds for the round-robin cursor to probe every peer
        // several times and for any suspicion to outlive the timeout.
        for _ in 0..64 {
            clock.advance(cfg.ping_interval);
            view.tick(&lossy);
        }

        for t in 1..n {
            let status = view.status_of(NodeId(t));
            if confirmable(n, &blocked, t) {
                // Safety: a one-way cut plus a live relay is not death.
                prop_assert!(
                    status != Some(NodeStatus::Dead),
                    "node {} declared Dead though a path confirms it (cuts {:?})",
                    t,
                    blocked
                );
                prop_assert!(
                    status != Some(NodeStatus::Suspect),
                    "node {} still Suspect though a path confirms it (cuts {:?})",
                    t,
                    blocked
                );
            } else {
                // Liveness: a node nothing can reach must harden to Dead.
                prop_assert_eq!(
                    status,
                    Some(NodeStatus::Dead),
                    "unreachable node {} never declared Dead (cuts {:?})",
                    t,
                    blocked
                );
            }
        }
    }
}
