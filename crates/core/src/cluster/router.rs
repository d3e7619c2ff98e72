//! The in-process fleet: N [`Node`]s behind one routing front, talking
//! over a direct-call [`PeerTransport`] — what the deterministic tests,
//! the cluster bench and the torture harness drive.
//!
//! [`ClusterRouter::handle_form`] picks the entry node (rerouting past
//! crashed ones) and runs [`Node::serve_form`] there; every fleet rule
//! lives on [`Node`]. [`InProcessTransport`] delivers pings and probes
//! by calling [`Node::answer_gossip`] and [`Node::answer_probe`] on the
//! target, with a down-set standing in for crashed processes.

use std::collections::{HashMap, HashSet};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use super::gossip::{GossipEntry, NodeStatus};
use super::membership::{MembershipConfig, MembershipEvent};
use super::node::{Node, ServedBy};
use super::peer::{LossyTransport, PeerError, PeerTransport};
use super::slots::{owner_of_key, NodeId};
use crate::origin::OriginError;
use crate::resilience::Clock;
use crate::runtime::{DocResponse, ProxyHandle};
use crate::ProxyError;

/// Fleet-wide membership counters, aggregated across every node the
/// router ticks. The peer-probe counters are per node: sum
/// [`ProxyHandle::runtime_stats`] over [`ClusterRouter::node`].
#[derive(Debug, Default)]
pub struct ClusterStats {
    failovers: AtomicU64,
    rejoins: AtomicU64,
}

impl ClusterStats {
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

/// The test/bench transport: delivers pings and probes between
/// in-process nodes by direct call, with a down-set standing in for
/// crashed processes and severed links.
pub struct InProcessTransport {
    nodes: Mutex<HashMap<NodeId, Arc<Node>>>,
    down: Mutex<HashSet<NodeId>>,
}

impl InProcessTransport {
    fn new() -> Arc<InProcessTransport> {
        Arc::new(InProcessTransport {
            nodes: Mutex::new(HashMap::new()),
            down: Mutex::new(HashSet::new()),
        })
    }

    fn register(&self, node: Arc<Node>) {
        self.nodes
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .insert(node.id(), node);
    }

    fn node(&self, id: NodeId) -> Option<Arc<Node>> {
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
        Ok(target.answer_gossip(digest))
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

    fn probe(
        &self,
        from: NodeId,
        to: NodeId,
        sql: &str,
        epoch: u64,
    ) -> Result<Option<DocResponse>, PeerError> {
        if self.is_down(from) || self.is_down(to) {
            return Err(PeerError::Timeout);
        }
        let target = self
            .node(to)
            .ok_or_else(|| PeerError::Unreachable(format!("{to} unknown")))?;
        Ok(target.answer_probe(sql, epoch))
    }
}

/// N proxy nodes behind one routing front. See the module docs.
pub struct ClusterRouter {
    nodes: Vec<Arc<Node>>,
    transport: Arc<dyn PeerTransport>,
    /// The in-process transport's control surface (kill/revive), when
    /// this router was built in-process.
    control: Arc<InProcessTransport>,
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
        cfg: MembershipConfig,
        clock: Arc<dyn Clock>,
    ) -> ClusterRouter {
        let ids: Vec<NodeId> = (0..handles.len()).map(|i| NodeId(i as u16)).collect();
        let control = InProcessTransport::new();
        let nodes: Vec<Arc<Node>> = handles
            .into_iter()
            .zip(ids.iter())
            .map(|(handle, &id)| {
                let peers: Vec<NodeId> = ids.iter().copied().filter(|&p| p != id).collect();
                let node = Arc::new(Node::new(
                    id,
                    handle,
                    &peers,
                    cfg.clone(),
                    Arc::clone(&clock),
                ));
                control.register(Arc::clone(&node));
                node
            })
            .collect();
        ClusterRouter {
            nodes,
            transport: Arc::clone(&control) as Arc<dyn PeerTransport>,
            control,
            stats: ClusterStats::default(),
            tick_lock: Mutex::new(()),
        }
    }

    /// Wraps the peer transport in a lossy layer the caller builds
    /// (drop rate, delay) around the router's current transport, and
    /// returns its handle, so partitions can be armed and healed mid-run.
    /// Ping and probe traffic both suffer the faults; the control
    /// surface (kill/revive) stays reliable.
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
        self.nodes[idx].handle()
    }

    /// Fleet-wide counters.
    pub fn stats(&self) -> &ClusterStats {
        &self.stats
    }

    /// What `viewer` currently believes about `subject`.
    pub fn status_seen_by(&self, viewer: usize, subject: NodeId) -> Option<NodeStatus> {
        self.nodes[viewer].status_of(subject)
    }

    /// The nodes `viewer` considers live.
    pub fn live_seen_by(&self, viewer: usize) -> Vec<NodeId> {
        self.nodes[viewer].live_nodes()
    }

    /// The node `viewer` would route `routing_key` to right now (build
    /// the key with [`super::routing_key`]).
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
        node.rejoin();
        self.control.set_up(node.id());
    }

    /// Runs one failure-detector round on every live node, in id order,
    /// and returns every membership transition observed (tagged with
    /// the node that observed it). Call it after each virtual-clock
    /// step.
    pub fn tick(&self) -> Vec<(NodeId, MembershipEvent)> {
        let _round = self.tick_lock.lock().unwrap_or_else(|e| e.into_inner());
        let mut observed = Vec::new();
        for node in &self.nodes {
            let events = if self.control.is_down(node.id()) {
                node.drain_pending()
            } else {
                node.tick(self.transport.as_ref())
            };
            for event in events {
                match event {
                    MembershipEvent::Suspected(_) | MembershipEvent::Died(_) => {
                        self.stats.failovers.fetch_add(1, Ordering::Relaxed);
                    }
                    MembershipEvent::Rejoined(_) => {
                        self.stats.rejoins.fetch_add(1, Ordering::Relaxed);
                    }
                    _ => {}
                }
                observed.push((node.id(), event));
            }
        }
        observed
    }

    /// Serves one form request entering at node `entry` (rerouted to
    /// the next live node if `entry` is down, the way a load balancer
    /// ejects a node failing `/readyz`) through [`Node::serve_form`].
    ///
    /// # Errors
    /// Only the entry node's own pipeline can fail the request; peer
    /// trouble never propagates. With every node down, fails as
    /// origin-unavailable.
    pub fn handle_form(
        &self,
        entry: usize,
        path: &str,
        fields: &[(String, String)],
    ) -> Result<(DocResponse, ServedBy), ProxyError> {
        let n = self.nodes.len();
        let node = (0..n)
            .map(|off| &self.nodes[(entry + off) % n])
            .find(|node| !self.control.is_down(node.id()))
            .ok_or_else(|| {
                ProxyError::Origin(OriginError::Unavailable("no live proxy nodes".into()))
            })?;
        node.serve_form(self.transport.as_ref(), path, fields)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cluster::routing_key;
    use crate::origin::SiteOrigin;
    use crate::resilience::MockClock;
    use crate::runtime::RuntimeSnapshot;
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
            MembershipConfig::fast_test(),
            Arc::clone(clock) as Arc<dyn Clock>,
        )
    }

    /// One per-node runtime counter, summed over the fleet.
    fn fleet_sum(router: &ClusterRouter, counter: fn(&RuntimeSnapshot) -> usize) -> usize {
        (0..router.len())
            .map(|i| counter(&router.node(i).runtime_stats()))
            .sum()
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
        let (_, warm) = router
            .handle_form(owner.0 as usize, "/search/radial", &fields)
            .unwrap();
        assert_eq!(warm, ServedBy::Local(owner));

        let entry = (owner.0 as usize + 1) % 3;
        let flights_before = router.node(entry).runtime_stats().flights_led;
        let (_, served) = router
            .handle_form(entry, "/search/radial", &fields)
            .unwrap();
        assert_eq!(served, ServedBy::Peer(owner));
        assert_eq!(
            router.node(entry).runtime_stats().flights_led,
            flights_before,
            "peer hit must cost zero origin traffic"
        );
        assert_eq!(fleet_sum(&router, |s| s.peer_hits), 1);
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
        assert_eq!(served.unwrap().1, ServedBy::Local(NodeId(entry as u16)));
        assert_eq!(fleet_sum(&router, |s| s.peer_probe_failures), 1);
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
            fleet_sum(&router, |s| s.peer_probe_failures),
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
        let (_, served) = router
            .handle_form(0, "/search/radial", &radial(200.0, -5.0, 10.0))
            .unwrap();
        assert_eq!(served, ServedBy::Local(NodeId(1)));
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
        let (router, _) =
            fleet(3, &clock).with_faulty_transport(|inner| LossyTransport::new(inner, 0.5, 0xFEED));
        for i in 0..40 {
            let fields = radial(150.0 + f64::from(i % 7) * 4.0, 0.0, 8.0);
            let served = router.handle_form(i as usize % 3, "/search/radial", &fields);
            assert!(served.is_ok(), "request {i} failed: {served:?}");
            clock.advance(Duration::from_millis(20));
            router.tick();
        }
    }
}
