//! The fleet front: route a request to an entry node, try its local
//! cache, probe the slot owner's cache on a miss, and only then pay
//! for origin traffic — all without ever letting peer trouble surface
//! as a client error.
//!
//! [`ClusterRouter`] holds N in-process nodes (a [`ProxyHandle`] plus a
//! [`Membership`] view each) behind one [`PeerTransport`]. The serving
//! path for a request entering at node `e` is:
//!
//! 1. **Local cache** — a fresh exact/contained hit on `e` answers
//!    immediately (the common case once the fleet is warm, since the
//!    edge routes keys to their owners).
//! 2. **Owner probe** — on a miss, hash the routing key (residual key
//!    plus coarse spatial cell) to its slot and probe the owning
//!    peer's cache (fresh-only, zero origin traffic). The probe gets
//!    `probe_retries` retries, then the failure feeds the failure
//!    detector and the request *falls through* — peers can make a
//!    request cheaper, never make it fail.
//! 3. **Local origin path** — the full single-node pipeline on `e`:
//!    origin fetch with deadlines/retries/breaker, degraded serving
//!    during outages. Exactly what a solo proxy would have done.
//!
//! Failover is implicit in the slot map: the owner of a slot is the
//! rendezvous argmax over the *live* node set, so the moment a peer is
//! suspected its slots fall to the next node in each slot's preference
//! chain, identically on every node sharing that view. A rejoin (higher
//! incarnation) restores the old argmax just as implicitly.
//!
//! The router also enforces the stale-rejoiner rule: before a node
//! serves, it adopts the highest data-release epoch its membership view
//! has gossiped, retiring stale entries first.

use std::collections::{HashMap, HashSet};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use super::gossip::{GossipEntry, NodeStatus};
use super::membership::{Membership, MembershipConfig, MembershipEvent};
use super::peer::{LossyTransport, PeerError, PeerTransport};
use super::slots::{owner_of_key, routing_key, NodeId};
use crate::observe::{PathClass, Phase};
use crate::origin::OriginError;
use crate::resilience::Clock;
use crate::runtime::{ProxyHandle, XmlResponse};
use crate::ProxyError;

/// Cluster-level tunables, wrapping the failure detector's.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ClusterConfig {
    /// Failure-detector timings.
    pub membership: MembershipConfig,
    /// Extra attempts after a failed serving-path peer probe before
    /// falling through to the local origin path.
    pub probe_retries: usize,
}

impl Default for ClusterConfig {
    fn default() -> Self {
        ClusterConfig {
            membership: MembershipConfig::default(),
            probe_retries: 1,
        }
    }
}

impl ClusterConfig {
    /// Aggressive timings for virtual-clock tests.
    pub fn fast_test() -> Self {
        ClusterConfig {
            membership: MembershipConfig::fast_test(),
            probe_retries: 1,
        }
    }
}

/// Where a cluster-served response actually came from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ServedBy {
    /// The entry node itself (cache hit or its own origin path).
    Local(NodeId),
    /// A peer's cache answered the probe.
    Peer(NodeId),
}

/// A response served through the cluster, tagged with its source.
#[derive(Debug)]
pub struct ClusterResponse {
    /// The response bytes and per-query metrics.
    pub response: XmlResponse,
    /// Which node's cache or origin path produced it.
    pub served_by: ServedBy,
}

/// Fleet-wide counters, aggregated across every node the router ticks.
#[derive(Debug, Default)]
pub struct ClusterStats {
    peer_probes: AtomicU64,
    peer_hits: AtomicU64,
    peer_probe_failures: AtomicU64,
    failovers: AtomicU64,
    rejoins: AtomicU64,
}

impl ClusterStats {
    /// Serving-path peer probes issued (hits + misses + failures).
    pub fn peer_probes(&self) -> u64 {
        self.peer_probes.load(Ordering::Relaxed)
    }

    /// Probes a peer's cache answered.
    pub fn peer_hits(&self) -> u64 {
        self.peer_hits.load(Ordering::Relaxed)
    }

    /// Probes that failed transport after all retries (each fed the
    /// failure detector and fell through to the origin path).
    pub fn peer_probe_failures(&self) -> u64 {
        self.peer_probe_failures.load(Ordering::Relaxed)
    }

    /// Suspected/Died transitions observed anywhere in the fleet — each
    /// one implicitly moved the victim's slots to the next live owner.
    pub fn failovers(&self) -> u64 {
        self.failovers.load(Ordering::Relaxed)
    }

    /// Rejoined transitions observed (slots reclaimed).
    pub fn rejoins(&self) -> u64 {
        self.rejoins.load(Ordering::Relaxed)
    }
}

/// One fleet member: a full proxy plus its membership view.
pub struct ClusterNode {
    id: NodeId,
    handle: ProxyHandle,
    membership: Mutex<Membership>,
    /// Transitions observed outside the node's own detector tick —
    /// merges performed while *answering* a peer's ping, suspicions
    /// raised by serving-path probe failures — parked here until the
    /// router's next tick reports them.
    pending: Mutex<Vec<MembershipEvent>>,
}

impl ClusterNode {
    /// This node's id.
    pub fn id(&self) -> NodeId {
        self.id
    }

    /// This node's proxy.
    pub fn handle(&self) -> &ProxyHandle {
        &self.handle
    }

    /// Applies the side-effectful membership events — an epoch gossiped
    /// from the fleet retires this node's stale entries immediately —
    /// and parks them for the router's next tick to report.
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

    fn drain_pending(&self) -> Vec<MembershipEvent> {
        std::mem::take(&mut *self.pending.lock().unwrap_or_else(|e| e.into_inner()))
    }

    fn lock_membership(&self) -> std::sync::MutexGuard<'_, Membership> {
        self.membership.lock().unwrap_or_else(|e| e.into_inner())
    }
}

/// The test/bench transport: delivers pings and probes between
/// in-process nodes by direct call, with a down-set standing in for
/// crashed processes and severed links.
pub struct InProcessTransport {
    nodes: Mutex<HashMap<NodeId, Arc<ClusterNode>>>,
    down: Mutex<HashSet<NodeId>>,
}

impl InProcessTransport {
    fn new() -> Arc<InProcessTransport> {
        Arc::new(InProcessTransport {
            nodes: Mutex::new(HashMap::new()),
            down: Mutex::new(HashSet::new()),
        })
    }

    fn register(&self, node: Arc<ClusterNode>) {
        self.nodes
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .insert(node.id, node);
    }

    fn node(&self, id: NodeId) -> Option<Arc<ClusterNode>> {
        self.nodes
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .get(&id)
            .cloned()
    }

    /// Simulates a crash: every exchange to or from `id` now fails.
    pub fn set_down(&self, id: NodeId) {
        self.down
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .insert(id);
    }

    /// Heals a crashed node's connectivity.
    pub fn set_up(&self, id: NodeId) {
        self.down
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .remove(&id);
    }

    /// Whether `id` is currently down.
    pub fn is_down(&self, id: NodeId) -> bool {
        self.down
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .contains(&id)
    }
}

impl PeerTransport for InProcessTransport {
    fn ping(
        &self,
        from: NodeId,
        to: NodeId,
        digest: &[GossipEntry],
    ) -> Result<Vec<GossipEntry>, PeerError> {
        if self.is_down(from) || self.is_down(to) {
            return Err(PeerError::Unreachable(format!("{to} down")));
        }
        let target = self
            .node(to)
            .ok_or_else(|| PeerError::Unreachable(format!("{to} unknown")))?;
        let (events, answer) = {
            let mut m = target.lock_membership();
            let events = m.merge(digest);
            m.set_self_state(
                target.handle.current_epoch(),
                target.handle.breaker_shed_hint().is_some(),
            );
            (events, m.digest())
        };
        target.record_events(&events);
        Ok(answer)
    }

    fn ping_req(&self, from: NodeId, via: NodeId, target: NodeId) -> Result<(), PeerError> {
        if self.is_down(from) || self.is_down(via) || self.is_down(target) {
            return Err(PeerError::Unreachable(format!(
                "{target} unreachable via {via}"
            )));
        }
        if self.node(via).is_none() || self.node(target).is_none() {
            return Err(PeerError::Unreachable("unknown peer".to_string()));
        }
        Ok(())
    }

    fn probe(&self, from: NodeId, to: NodeId, sql: &str) -> Result<Option<XmlResponse>, PeerError> {
        if self.is_down(from) || self.is_down(to) {
            return Err(PeerError::Timeout);
        }
        let target = self
            .node(to)
            .ok_or_else(|| PeerError::Unreachable(format!("{to} unknown")))?;
        Ok(target.handle.try_sql_xml_cached(sql))
    }
}

/// N proxy nodes behind one routing front. See the module docs for the
/// serving path.
pub struct ClusterRouter {
    nodes: Vec<Arc<ClusterNode>>,
    transport: Arc<dyn PeerTransport>,
    /// The in-process transport's control surface (kill/revive), when
    /// this router was built in-process.
    control: Arc<InProcessTransport>,
    cfg: ClusterConfig,
    stats: ClusterStats,
    /// Serializes protocol rounds: a tick walks node views in order and
    /// each ping locks two views, so concurrent ticks could deadlock.
    tick_lock: Mutex<()>,
}

impl ClusterRouter {
    /// Builds an in-process fleet over pre-built proxy handles (node
    /// `i` gets id `NodeId(i)`), each with its own membership view on
    /// the handle's clock-independent timing source `clock`.
    pub fn in_process(
        handles: Vec<ProxyHandle>,
        cfg: ClusterConfig,
        clock: Arc<dyn Clock>,
    ) -> ClusterRouter {
        let ids: Vec<NodeId> = (0..handles.len()).map(|i| NodeId(i as u16)).collect();
        let control = InProcessTransport::new();
        let nodes: Vec<Arc<ClusterNode>> = handles
            .into_iter()
            .zip(ids.iter())
            .map(|(handle, &id)| {
                let peers: Vec<NodeId> = ids.iter().copied().filter(|&p| p != id).collect();
                let node = Arc::new(ClusterNode {
                    id,
                    handle,
                    membership: Mutex::new(Membership::new(
                        id,
                        &peers,
                        cfg.membership.clone(),
                        Arc::clone(&clock),
                    )),
                    pending: Mutex::new(Vec::new()),
                });
                control.register(Arc::clone(&node));
                node
            })
            .collect();
        ClusterRouter {
            nodes,
            transport: Arc::clone(&control) as Arc<dyn PeerTransport>,
            control,
            cfg,
            stats: ClusterStats::default(),
            tick_lock: Mutex::new(()),
        }
    }

    /// Wraps the peer transport in a seeded lossy layer (chaos runs).
    /// Ping and probe traffic both suffer the loss; the control surface
    /// (kill/revive) stays reliable.
    pub fn with_loss(mut self, drop_rate: f64, seed: u64) -> ClusterRouter {
        self.transport = Arc::new(LossyTransport::new(
            Arc::clone(&self.transport),
            drop_rate,
            seed,
        ));
        self
    }

    /// Like [`Self::with_loss`], but the caller builds the lossy layer
    /// (delay, drop rate) around the router's current transport and
    /// gets the handle back, so partitions can be armed and healed
    /// mid-run. This is the torture harness's hook.
    pub fn with_faulty_transport(
        mut self,
        build: impl FnOnce(Arc<dyn PeerTransport>) -> LossyTransport,
    ) -> (ClusterRouter, Arc<LossyTransport>) {
        let lossy = Arc::new(build(Arc::clone(&self.transport)));
        self.transport = Arc::clone(&lossy) as Arc<dyn PeerTransport>;
        (self, lossy)
    }

    /// Number of nodes (live or not).
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Whether the fleet is empty.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// The proxy behind node `idx`.
    pub fn node(&self, idx: usize) -> &ProxyHandle {
        &self.nodes[idx].handle
    }

    /// Fleet-wide counters.
    pub fn stats(&self) -> &ClusterStats {
        &self.stats
    }

    /// What `viewer` currently believes about `subject`.
    pub fn status_seen_by(&self, viewer: usize, subject: NodeId) -> Option<NodeStatus> {
        self.nodes[viewer].lock_membership().status_of(subject)
    }

    /// The nodes `viewer` considers live.
    pub fn live_seen_by(&self, viewer: usize) -> Vec<NodeId> {
        self.nodes[viewer].lock_membership().live_nodes()
    }

    /// The node `viewer` would route `routing_key` to right now (build
    /// the key with [`routing_key`]).
    pub fn owner_seen_by(&self, viewer: usize, routing_key: &str) -> Option<NodeId> {
        let live = self.live_seen_by(viewer);
        owner_of_key(routing_key, &live)
    }

    /// Whether node `idx` is currently killed.
    pub fn is_down(&self, idx: usize) -> bool {
        self.control.is_down(NodeId(idx as u16))
    }

    /// Crashes node `idx`: it stops ticking and every exchange with it
    /// fails. Its cache and epoch survive for a later [`Self::revive`].
    pub fn kill(&self, idx: usize) {
        self.control.set_down(NodeId(idx as u16));
    }

    /// Revives node `idx` with a bumped incarnation, so its next
    /// exchange supersedes any Suspect/Dead verdict and reclaims its
    /// slots fleet-wide.
    pub fn revive(&self, idx: usize) {
        let node = &self.nodes[idx];
        node.lock_membership().rejoin();
        self.control.set_up(node.id);
    }

    /// Runs one failure-detector round on every live node, in id order,
    /// and returns every membership transition observed (tagged with
    /// the node that observed it). Drive this from a timer thread in a
    /// real deployment or after each virtual-clock step in tests.
    pub fn tick(&self) -> Vec<(NodeId, MembershipEvent)> {
        let _round = self.tick_lock.lock().unwrap_or_else(|e| e.into_inner());
        let mut observed = Vec::new();
        for node in &self.nodes {
            if !self.control.is_down(node.id) {
                let events = {
                    let mut m = node.lock_membership();
                    m.set_self_state(
                        node.handle.current_epoch(),
                        node.handle.breaker_shed_hint().is_some(),
                    );
                    m.tick(self.transport.as_ref())
                };
                node.record_events(&events);
            }
            // Report everything this node observed since the last
            // round: its own detector tick plus transitions recorded
            // while answering peers' pings or failing serving-path
            // probes.
            for event in node.drain_pending() {
                match event {
                    MembershipEvent::Suspected(_) | MembershipEvent::Died(_) => {
                        self.stats.failovers.fetch_add(1, Ordering::Relaxed);
                    }
                    MembershipEvent::Rejoined(_) => {
                        self.stats.rejoins.fetch_add(1, Ordering::Relaxed);
                    }
                    _ => {}
                }
                observed.push((node.id, event));
            }
        }
        observed
    }

    /// Serves one form request entering at node `entry` (rerouted to
    /// the next live node if `entry` is down, the way a load balancer
    /// ejects a node failing `/readyz`).
    ///
    /// # Errors
    /// Only the entry node's own pipeline can fail the request
    /// (resolution errors, origin exhaustion past the degraded paths);
    /// peer trouble never propagates. With every node down, fails as
    /// origin-unavailable.
    pub fn handle_form(
        &self,
        entry: usize,
        path: &str,
        fields: &[(String, String)],
    ) -> Result<ClusterResponse, ProxyError> {
        let node = self.entry_node(entry).ok_or_else(|| {
            ProxyError::Origin(OriginError::Unavailable("no live proxy nodes".into()))
        })?;

        // Stale-rejoiner rule: adopt the fleet's highest gossiped epoch
        // *before* serving, so a node that was down across a release
        // retires its stale entries first.
        let (live, fleet_epoch) = {
            let m = node.lock_membership();
            (m.live_nodes(), m.max_epoch())
        };
        if fleet_epoch > node.handle.current_epoch() {
            node.handle.set_epoch(fleet_epoch);
        }

        if let Some(response) = node.handle.try_form_xml_cached(path, fields) {
            return Ok(ClusterResponse {
                response,
                served_by: ServedBy::Local(node.id),
            });
        }

        if let Ok(bound) = node.handle.manager().bind_form(path, fields) {
            let owner = owner_of_key(&routing_key(&bound.residual_key, &bound.region), &live);
            if let Some(owner) = owner.filter(|&o| o != node.id) {
                if let Some(response) = self.probe_owner(node, owner, &bound.sql) {
                    return Ok(ClusterResponse {
                        response,
                        served_by: ServedBy::Peer(owner),
                    });
                }
            }
        }

        node.handle
            .handle_form_xml(path, fields)
            .map(|response| ClusterResponse {
                response,
                served_by: ServedBy::Local(node.id),
            })
    }

    /// The owner-probe leg: deadline-bounded transport probe with
    /// `probe_retries` retries; transport failure feeds the failure
    /// detector and returns `None` (fall through), never an error.
    fn probe_owner(&self, node: &ClusterNode, owner: NodeId, sql: &str) -> Option<XmlResponse> {
        let started = Instant::now();
        self.stats.peer_probes.fetch_add(1, Ordering::Relaxed);
        let mut outcome = None;
        for attempt in 0..=self.cfg.probe_retries {
            match self.transport.probe(node.id, owner, sql) {
                Ok(hit) => {
                    outcome = Some(hit);
                    break;
                }
                Err(_) if attempt < self.cfg.probe_retries => continue,
                Err(_) => {}
            }
        }
        let ms = started.elapsed().as_secs_f64() * 1000.0;
        node.handle
            .observer()
            .record_phase(Phase::PeerProbe, PathClass::Miss, ms);
        match outcome {
            Some(Some(response)) => {
                self.stats.peer_hits.fetch_add(1, Ordering::Relaxed);
                node.handle.note_peer_probe(true);
                Some(response)
            }
            Some(None) => {
                node.handle.note_peer_probe(false);
                None
            }
            None => {
                self.stats
                    .peer_probe_failures
                    .fetch_add(1, Ordering::Relaxed);
                node.handle.note_peer_probe_failure();
                // The Suspected event (if any) is parked on the node;
                // the next tick reports it and counts the failover.
                let events = node.lock_membership().note_probe_failure(owner);
                node.record_events(&events);
                None
            }
        }
    }

    /// Picks the serving entry: `entry` itself when live, else the next
    /// live node in index order.
    fn entry_node(&self, entry: usize) -> Option<&ClusterNode> {
        let n = self.nodes.len();
        (0..n)
            .map(|off| &self.nodes[(entry + off) % n])
            .find(|node| !self.control.is_down(node.id))
            .map(|node| &**node)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::origin::SiteOrigin;
    use crate::resilience::MockClock;
    use crate::sim::CostModel;
    use crate::template::TemplateManager;
    use crate::ProxyConfig;
    use fp_skyserver::{Catalog, CatalogSpec, SkySite};
    use std::time::Duration;

    fn fleet(n: usize, clock: &Arc<MockClock>) -> ClusterRouter {
        let handles = (0..n)
            .map(|_| {
                let site = SkySite::new(Catalog::generate(&CatalogSpec::small_test()));
                ProxyHandle::with_shards_clocked(
                    TemplateManager::with_sky_defaults(),
                    Arc::new(SiteOrigin::new(site)),
                    ProxyConfig::default().with_cost(CostModel::free()),
                    2,
                    Arc::clone(clock) as Arc<dyn Clock>,
                )
            })
            .collect();
        ClusterRouter::in_process(
            handles,
            ClusterConfig::fast_test(),
            Arc::clone(clock) as Arc<dyn Clock>,
        )
    }

    fn radial(ra: f64, dec: f64, radius: f64) -> Vec<(String, String)> {
        vec![
            ("ra".to_string(), ra.to_string()),
            ("dec".to_string(), dec.to_string()),
            ("radius".to_string(), radius.to_string()),
        ]
    }

    #[test]
    fn peer_cache_answers_before_the_origin() {
        let clock = MockClock::shared();
        let router = fleet(3, &clock);
        let fields = radial(185.0, 0.0, 20.0);

        // Find which node owns this key, warm that node through the
        // cluster path, then enter at a different node.
        let bound = router
            .node(0)
            .manager()
            .resolve_form("/search/radial", &fields)
            .unwrap();
        let key = routing_key(&bound.residual_key, &bound.region);
        let owner = router.owner_seen_by(0, &key).unwrap();
        let warm = router
            .handle_form(owner.0 as usize, "/search/radial", &fields)
            .unwrap();
        assert_eq!(warm.served_by, ServedBy::Local(owner));

        let entry = (owner.0 as usize + 1) % 3;
        let flights_before = router.node(entry).runtime_stats().flights_led;
        let served = router
            .handle_form(entry, "/search/radial", &fields)
            .unwrap();
        assert_eq!(served.served_by, ServedBy::Peer(owner));
        assert_eq!(
            router.node(entry).runtime_stats().flights_led,
            flights_before,
            "peer hit must cost zero origin traffic"
        );
        assert_eq!(router.stats().peer_hits(), 1);
    }

    #[test]
    fn probe_failure_falls_through_and_suspects_the_owner() {
        let clock = MockClock::shared();
        let router = fleet(3, &clock);
        let fields = radial(190.0, 10.0, 15.0);
        let bound = router
            .node(0)
            .manager()
            .resolve_form("/search/radial", &fields)
            .unwrap();
        let key = routing_key(&bound.residual_key, &bound.region);
        let owner = router.owner_seen_by(0, &key).unwrap();
        let entry = (owner.0 as usize + 1) % 3;

        router.kill(owner.0 as usize);
        let served = router.handle_form(entry, "/search/radial", &fields);
        assert!(served.is_ok(), "probe failure must not surface: {served:?}");
        assert_eq!(
            served.unwrap().served_by,
            ServedBy::Local(NodeId(entry as u16))
        );
        assert_eq!(router.stats().peer_probe_failures(), 1);
        assert_eq!(
            router.status_seen_by(entry, owner),
            Some(NodeStatus::Suspect)
        );
        // With the owner suspected it has left the entry node's live
        // view, so the slot has failed over: the dead node is never
        // probed again and the request still succeeds.
        let again = router.handle_form(entry, "/search/radial", &fields);
        assert!(again.is_ok());
        assert_eq!(
            router.stats().peer_probe_failures(),
            1,
            "no further probe reached the dead owner"
        );
    }

    #[test]
    fn gossip_carries_epoch_bumps_fleet_wide() {
        let clock = MockClock::shared();
        let router = fleet(3, &clock);
        router.node(0).set_epoch(7);
        // Enough rounds for every pairwise exchange.
        for _ in 0..6 {
            clock.advance(Duration::from_millis(20));
            router.tick();
        }
        for idx in 0..3 {
            assert_eq!(router.node(idx).current_epoch(), 7, "node {idx} stale");
        }
    }

    #[test]
    fn dead_entry_node_reroutes_to_next_live() {
        let clock = MockClock::shared();
        let router = fleet(2, &clock);
        router.kill(0);
        let served = router
            .handle_form(0, "/search/radial", &radial(200.0, -5.0, 10.0))
            .unwrap();
        assert_eq!(served.served_by, ServedBy::Local(NodeId(1)));
        router.kill(1);
        let dark = router.handle_form(0, "/search/radial", &radial(200.0, -5.0, 10.0));
        assert!(matches!(
            dark,
            Err(ProxyError::Origin(OriginError::Unavailable(_)))
        ));
    }

    #[test]
    fn lossy_transport_never_surfaces_client_errors() {
        let clock = MockClock::shared();
        let router = fleet(3, &clock).with_loss(0.5, 0xFEED);
        for i in 0..40 {
            let fields = radial(150.0 + f64::from(i % 7) * 4.0, 0.0, 8.0);
            let served = router.handle_form(i as usize % 3, "/search/radial", &fields);
            assert!(served.is_ok(), "request {i} failed: {served:?}");
            clock.advance(Duration::from_millis(20));
            router.tick();
        }
    }
}
