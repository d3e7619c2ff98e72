//! One fleet member, and the only copy of the fleet's serving rules.
//!
//! A [`Node`] is a full proxy (a [`ProxyHandle`]) plus its membership
//! view. Every deployment runs these methods: the in-process
//! [`super::ClusterRouter`] over its direct-call transport, and a real
//! server over HTTP (`fp_edge::fleet`). The serving path for a request
//! entering at a node is:
//!
//! 1. **Epoch** — adopt the highest data-release epoch the view has
//!    gossiped, so a node that was down across a release retires its
//!    stale entries before it serves (the stale-rejoiner rule).
//! 2. **Local cache** — a fresh exact/contained hit answers
//!    immediately (the common case once the fleet is warm, since the
//!    edge routes keys to their owners).
//! 3. **Owner probe** — on a miss, hash the routing key (residual key
//!    plus coarse spatial cell) to its slot and probe the owning peer's
//!    cache (fresh-only, zero origin traffic). The probe carries this
//!    node's epoch, which the owner adopts before it looks (so a probe
//!    never serves an answer from before a release the entry node
//!    knows about, and a release spreads faster than gossip). It gets
//!    [`PROBE_RETRIES`] retries, then the failure feeds the failure
//!    detector and the request *falls through* — peers can make a
//!    request cheaper, never make it fail.
//! 4. **Local origin path** — the full single-node pipeline: origin
//!    fetch with deadlines/retries/breaker, degraded serving during
//!    outages. Exactly what a solo proxy would have done.
//!
//! Failover is implicit in the slot map: the owner of a slot is the
//! rendezvous argmax over the *live* node set, so the moment a peer is
//! suspected its slots fall to the next node in each slot's preference
//! chain, identically on every node sharing that view. A rejoin (higher
//! incarnation) restores the old argmax just as implicitly.

use std::sync::{Arc, Mutex, MutexGuard};
use std::time::Instant;

use super::gossip::{GossipEntry, NodeStatus};
use super::membership::{Membership, MembershipConfig, MembershipEvent};
use super::peer::PeerTransport;
use super::slots::{owner_of_key, routing_key, NodeId};
use crate::observe::{PathClass, Phase};
use crate::resilience::Clock;
use crate::runtime::{DocResponse, ProxyHandle};
use crate::ProxyError;

/// Extra attempts after a failed serving-path owner probe before the
/// request falls through to the local origin path.
pub const PROBE_RETRIES: usize = 1;

/// Where a fleet-served response actually came from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ServedBy {
    /// The entry node itself (cache hit or its own origin path).
    Local(NodeId),
    /// A peer's cache answered the probe.
    Peer(NodeId),
}

/// One fleet member: a full proxy plus its membership view.
pub struct Node {
    id: NodeId,
    handle: ProxyHandle,
    membership: Mutex<Membership>,
    /// Transitions observed outside the node's own detector tick —
    /// merges performed while *answering* a peer's ping, suspicions
    /// raised by serving-path probe failures — parked here until the
    /// next [`Node::tick`] reports them.
    pending: Mutex<Vec<MembershipEvent>>,
}

impl Node {
    /// Node `id` over `handle`, with a membership view of `peers` (self
    /// included or not) on `clock`, every peer initially Alive.
    pub fn new(
        id: NodeId,
        handle: ProxyHandle,
        peers: &[NodeId],
        cfg: MembershipConfig,
        clock: Arc<dyn Clock>,
    ) -> Node {
        Node {
            id,
            handle,
            membership: Mutex::new(Membership::new(id, peers, cfg, clock)),
            pending: Mutex::new(Vec::new()),
        }
    }

    /// This node's id.
    pub fn id(&self) -> NodeId {
        self.id
    }

    /// This node's proxy.
    pub fn handle(&self) -> &ProxyHandle {
        &self.handle
    }

    /// What this node currently believes about `subject`.
    pub fn status_of(&self, subject: NodeId) -> Option<NodeStatus> {
        self.lock_membership().status_of(subject)
    }

    /// The nodes this node considers live.
    pub fn live_nodes(&self) -> Vec<NodeId> {
        self.lock_membership().live_nodes()
    }

    /// Re-announces this node after a crash with a bumped incarnation,
    /// so its next exchange supersedes any Suspect/Dead verdict.
    pub fn rejoin(&self) {
        self.lock_membership().rejoin();
    }

    /// Serves one form request entering at this node; see the module
    /// docs for the path.
    ///
    /// # Errors
    /// Only this node's own pipeline can fail the request (resolution
    /// errors, origin exhaustion past the degraded paths); peer trouble
    /// never propagates.
    pub fn serve_form<K: AsRef<str>, V: AsRef<str>>(
        &self,
        transport: &dyn PeerTransport,
        path: &str,
        fields: &[(K, V)],
    ) -> Result<(DocResponse, ServedBy), ProxyError> {
        let (live, fleet_epoch) = {
            let m = self.lock_membership();
            (m.live_nodes(), m.max_epoch())
        };
        if fleet_epoch > self.handle.current_epoch() {
            self.handle.set_epoch(fleet_epoch);
        }
        let local = ServedBy::Local(self.id);
        if let Some(response) = self.handle.try_form_doc_cached(path, fields) {
            return Ok((response, local));
        }
        if let Ok(bound) = self.handle.manager().bind_form(path, fields) {
            let owner = owner_of_key(&routing_key(&bound.residual_key, &bound.region), &live);
            if let Some(owner) = owner.filter(|&o| o != self.id) {
                if let Some(response) = self.probe_owner(transport, owner, &bound.sql) {
                    return Ok((response, ServedBy::Peer(owner)));
                }
            }
        }
        self.handle
            .handle_form_doc(path, fields)
            .map(|response| (response, local))
    }

    /// The owner-probe leg: a deadline-bounded transport probe with
    /// [`PROBE_RETRIES`] retries. Transport failure feeds the failure
    /// detector and returns `None` (fall through), never an error.
    fn probe_owner(
        &self,
        transport: &dyn PeerTransport,
        owner: NodeId,
        sql: &str,
    ) -> Option<DocResponse> {
        let started = Instant::now();
        let epoch = self.handle.current_epoch();
        let outcome =
            (0..=PROBE_RETRIES).find_map(|_| transport.probe(self.id, owner, sql, epoch).ok());
        let ms = started.elapsed().as_secs_f64() * 1000.0;
        self.handle
            .observer()
            .record_phase(Phase::PeerProbe, PathClass::Miss, ms);
        match outcome {
            Some(hit) => {
                self.handle.note_peer_probe(hit.is_some());
                hit
            }
            None => {
                self.handle.note_peer_probe_failure();
                // The Suspected event (if any) is parked; the next tick
                // reports it.
                let events = self.lock_membership().note_probe_failure(owner);
                self.record_events(&events);
                None
            }
        }
    }

    /// Answers a peer's gossip ping: merge its digest, refresh our own
    /// epoch/breaker facts, and return our digest.
    ///
    /// `try_lock`, not `lock`: a node's own tick holds its membership
    /// *across its outbound ping*, so two nodes pinging each other in
    /// the same round over a real network would deadlock until both
    /// timeouts fire — and mutual ping timeouts every round mean
    /// perpetual mutual suspicion. An empty answer breaks the cycle: it
    /// still proves liveness (all the ping needs), it just skips rumor
    /// exchange for this round.
    pub fn answer_gossip(&self, digest: &[GossipEntry]) -> Vec<GossipEntry> {
        let Ok(mut m) = self.membership.try_lock() else {
            return Vec::new();
        };
        let events = m.merge(digest);
        m.set_self_state(
            self.handle.current_epoch(),
            self.handle.breaker_shed_hint().is_some(),
        );
        let answer = m.digest();
        drop(m);
        self.record_events(&events);
        answer
    }

    /// Answers a peer's owner probe from fresh local entries alone,
    /// never the origin, after adopting the prober's data-release
    /// `epoch` when it is ahead of ours (retiring our older entries).
    /// `None` is a clean miss.
    pub fn answer_probe(&self, sql: &str, epoch: u64) -> Option<DocResponse> {
        self.handle.set_epoch(epoch);
        self.handle.try_sql_doc_cached(sql)
    }

    /// Runs one failure-detector round and returns every membership
    /// transition this node observed since the last one: its own
    /// detector's plus those parked while answering peers or failing
    /// serving-path probes. Cheap when called early (one clock read).
    pub fn tick(&self, transport: &dyn PeerTransport) -> Vec<MembershipEvent> {
        let events = {
            let mut m = self.lock_membership();
            m.set_self_state(
                self.handle.current_epoch(),
                self.handle.breaker_shed_hint().is_some(),
            );
            m.tick(transport)
        };
        self.record_events(&events);
        self.drain_pending()
    }

    /// The transitions parked since the last tick, without running one
    /// (a crashed node's detector is stopped, but what it saw before
    /// the crash is still reported).
    pub(crate) fn drain_pending(&self) -> Vec<MembershipEvent> {
        std::mem::take(&mut *self.pending.lock().unwrap_or_else(|e| e.into_inner()))
    }

    /// Applies the side-effectful membership events — an epoch gossiped
    /// from the fleet retires this node's stale entries immediately —
    /// and parks them for the next tick to report.
    fn record_events(&self, events: &[MembershipEvent]) {
        if events.is_empty() {
            return;
        }
        for event in events {
            if let MembershipEvent::EpochAdvanced(epoch) = event {
                self.handle.set_epoch(*epoch);
            }
        }
        self.pending
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .extend_from_slice(events);
    }

    fn lock_membership(&self) -> MutexGuard<'_, Membership> {
        self.membership.lock().unwrap_or_else(|e| e.into_inner())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cluster::PeerError;
    use crate::metrics::Outcome;
    use crate::origin::SiteOrigin;
    use crate::resilience::MockClock;
    use crate::sim::CostModel;
    use crate::template::TemplateManager;
    use crate::ProxyConfig;
    use fp_skyserver::{Catalog, CatalogSpec, SkySite};
    use std::sync::atomic::{AtomicUsize, Ordering};

    /// A fully partitioned node's transport: every exchange fails, and
    /// probes are counted.
    #[derive(Default)]
    struct Dark {
        probes: AtomicUsize,
    }

    impl PeerTransport for Dark {
        fn ping(
            &self,
            _: NodeId,
            _: NodeId,
            _: &[GossipEntry],
        ) -> Result<Vec<GossipEntry>, PeerError> {
            Err(PeerError::Timeout)
        }

        fn ping_req(&self, _: NodeId, _: NodeId, _: NodeId) -> Result<(), PeerError> {
            Err(PeerError::Timeout)
        }

        fn probe(
            &self,
            _: NodeId,
            _: NodeId,
            _: &str,
            _: u64,
        ) -> Result<Option<DocResponse>, PeerError> {
            self.probes.fetch_add(1, Ordering::Relaxed);
            Err(PeerError::Timeout)
        }
    }

    /// Delivers every probe to one owner's [`Node::answer_probe`].
    struct ProbeTo<'a>(&'a Node);

    impl PeerTransport for ProbeTo<'_> {
        fn ping(
            &self,
            _: NodeId,
            _: NodeId,
            _: &[GossipEntry],
        ) -> Result<Vec<GossipEntry>, PeerError> {
            Err(PeerError::Timeout)
        }

        fn ping_req(&self, _: NodeId, _: NodeId, _: NodeId) -> Result<(), PeerError> {
            Err(PeerError::Timeout)
        }

        fn probe(
            &self,
            _: NodeId,
            _: NodeId,
            sql: &str,
            epoch: u64,
        ) -> Result<Option<DocResponse>, PeerError> {
            Ok(self.0.answer_probe(sql, epoch))
        }
    }

    /// Node 0 of an `n`-node fleet, on a virtual clock.
    fn node(n: u16) -> Node {
        node_of(0, n)
    }

    /// Node `id` of an `n`-node fleet, on a virtual clock.
    fn node_of(id: u16, n: u16) -> Node {
        let clock = MockClock::shared();
        let site = SkySite::new(Catalog::generate(&CatalogSpec::small_test()));
        let handle = ProxyHandle::with_shards_clocked(
            TemplateManager::with_sky_defaults(),
            Arc::new(SiteOrigin::new(site)),
            ProxyConfig::default().with_cost(CostModel::free()),
            2,
            Arc::clone(&clock) as Arc<dyn Clock>,
        );
        let peers: Vec<NodeId> = (0..n).map(NodeId).collect();
        Node::new(
            NodeId(id),
            handle,
            &peers,
            MembershipConfig::fast_test(),
            clock,
        )
    }

    fn radial(ra: f64) -> Vec<(String, String)> {
        vec![
            ("ra".to_string(), ra.to_string()),
            ("dec".to_string(), "0".to_string()),
            ("radius".to_string(), "10".to_string()),
        ]
    }

    fn peer_entry(epoch: u64) -> GossipEntry {
        GossipEntry {
            node: NodeId(1),
            incarnation: 0,
            status: NodeStatus::Alive,
            epoch,
            breaker_open: false,
        }
    }

    #[test]
    fn a_failed_owner_probe_is_retried_once_then_falls_through_and_suspects() {
        let node = node(3);
        let (fields, owner) = (0..200)
            .map(|step| radial(120.0 + f64::from(step)))
            .find_map(|fields| {
                let bound = node
                    .handle()
                    .manager()
                    .bind_form("/search/radial", &fields)
                    .ok()?;
                let key = routing_key(&bound.residual_key, &bound.region);
                let owner = owner_of_key(&key, &node.live_nodes())?;
                (owner != node.id()).then_some((fields, owner))
            })
            .expect("some key is owned by a peer");
        let dark = Dark::default();

        let (response, served_by) = node.serve_form(&dark, "/search/radial", &fields).unwrap();
        assert_eq!(served_by, ServedBy::Local(NodeId(0)));
        assert_eq!(response.metrics.outcome, Outcome::Forwarded);
        assert_eq!(dark.probes.load(Ordering::Relaxed), 1 + PROBE_RETRIES);
        assert_eq!(node.status_of(owner), Some(NodeStatus::Suspect));
        assert_eq!(node.handle().runtime_stats().peer_probe_failures, 1);
        let probes = node
            .handle()
            .observer()
            .phase_histogram(Phase::PeerProbe, PathClass::Miss)
            .snapshot()
            .count();
        assert_eq!(probes, 1, "one PeerProbe sample per probe leg");
        assert!(node
            .tick(&dark)
            .contains(&MembershipEvent::Suspected(owner)));
    }

    #[test]
    fn serving_adopts_the_fleet_epoch_before_a_local_hit() {
        let node = node(2);
        let fields = radial(200.0);
        node.serve_form(&Dark::default(), "/search/radial", &fields)
            .unwrap();
        let (warm, _) = node
            .serve_form(&Dark::default(), "/search/radial", &fields)
            .unwrap();
        assert_eq!(warm.metrics.outcome, Outcome::Exact);

        // The view learns of release 4 without the event being applied.
        node.lock_membership().merge(&[peer_entry(4)]);
        assert_eq!(node.handle().current_epoch(), 0);
        let (after, _) = node
            .serve_form(&Dark::default(), "/search/radial", &fields)
            .unwrap();
        assert_eq!(node.handle().current_epoch(), 4);
        assert_ne!(after.metrics.outcome, Outcome::Exact, "stale entry served");
    }

    #[test]
    fn an_owner_probe_never_serves_from_before_the_entry_nodes_epoch() {
        let (a, b) = (node_of(0, 2), node_of(1, 2));
        let fields = (0..200)
            .map(|step| radial(120.0 + f64::from(step)))
            .find(|fields| {
                let bound = a.handle().manager().bind_form("/search/radial", fields);
                let key = bound.map(|b| routing_key(&b.residual_key, &b.region));
                key.ok().and_then(|k| owner_of_key(&k, &a.live_nodes())) == Some(NodeId(1))
            })
            .expect("some key is owned by node 1");
        b.handle()
            .handle_form_doc("/search/radial", &fields)
            .unwrap();

        // The entry node learned of release 4; the owner is still at 0.
        a.handle().set_epoch(4);
        let (response, served_by) = a
            .serve_form(&ProbeTo(&b), "/search/radial", &fields)
            .unwrap();
        assert_eq!(
            served_by,
            ServedBy::Local(NodeId(0)),
            "no pre-release answer"
        );
        assert_eq!(response.metrics.outcome, Outcome::Forwarded);
        assert_eq!(b.handle().current_epoch(), 4, "the probe carried the epoch");
    }

    #[test]
    fn gossip_answer_applies_epochs_and_parks_events_for_the_next_tick() {
        let node = node(2);
        let answer = node.answer_gossip(&[peer_entry(3)]);
        assert_eq!(answer.len(), 2, "our digest covers the whole fleet");
        assert_eq!(node.handle().current_epoch(), 3);
        assert!(node
            .tick(&Dark::default())
            .contains(&MembershipEvent::EpochAdvanced(3)));
        assert!(node.drain_pending().is_empty(), "tick reported everything");
    }

    #[test]
    fn gossip_answer_is_empty_while_the_view_is_held() {
        let node = node(2);
        let held = node.lock_membership();
        assert!(node.answer_gossip(&[peer_entry(5)]).is_empty());
        drop(held);
        assert_eq!(node.handle().current_epoch(), 0, "nothing was merged");
    }
}
