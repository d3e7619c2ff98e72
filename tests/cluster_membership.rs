//! Deterministic membership matrix on the virtual clock (satellite of
//! the fleet PR): the full partition → suspect → dead → failover →
//! rejoin arc, plus the stale-epoch rejoiner rule, with no real time
//! and no real sockets anywhere.
//!
//! The in-process fleet runs three full proxies behind a
//! `ClusterRouter`; `kill` models a crash/partition at the transport,
//! `MockClock::advance` + `tick` drive the SWIM loop one deterministic
//! round at a time.

use std::sync::Arc;
use std::time::Duration;

use fp_suite::proxy::cluster::{
    routing_key, ClusterRouter, GossipEntry, Membership, MembershipConfig, MembershipEvent, NodeId,
    NodeStatus, PeerError, PeerTransport, ServedBy,
};
use fp_suite::proxy::metrics::Outcome;
use fp_suite::proxy::resilience::MockClock;
use fp_suite::proxy::template::TemplateManager;
use fp_suite::proxy::{CostModel, DocResponse, ProxyConfig, ProxyHandle, SiteOrigin};
use fp_suite::skyserver::{Catalog, CatalogSpec, SkySite};

const TICK: Duration = Duration::from_millis(20);

fn fleet(n: usize, clock: &Arc<MockClock>) -> ClusterRouter {
    let handles = (0..n)
        .map(|_| {
            let site = SkySite::new(Catalog::generate(&CatalogSpec::small_test()));
            ProxyHandle::with_shards_clocked(
                TemplateManager::with_sky_defaults(),
                Arc::new(SiteOrigin::new(site)),
                ProxyConfig::default().with_cost(CostModel::free()),
                2,
                clock.clone(),
            )
        })
        .collect();
    ClusterRouter::in_process(handles, MembershipConfig::fast_test(), clock.clone())
}

fn radial(ra: f64, radius: f64) -> Vec<(String, String)> {
    vec![
        ("ra".to_string(), ra.to_string()),
        ("dec".to_string(), "0".to_string()),
        ("radius".to_string(), radius.to_string()),
    ]
}

/// Advances virtual time one ping interval and runs a protocol round,
/// collecting the observed events, until `done` or `max` rounds.
fn run_rounds(
    router: &ClusterRouter,
    clock: &MockClock,
    max: usize,
    mut done: impl FnMut(&ClusterRouter) -> bool,
) -> Vec<(NodeId, MembershipEvent)> {
    let mut seen = Vec::new();
    for _ in 0..max {
        clock.advance(TICK);
        seen.extend(router.tick());
        if done(router) {
            break;
        }
    }
    seen
}

/// A request whose routing key node `victim` owns under the full view.
fn fields_owned_by(router: &ClusterRouter, victim: NodeId) -> (Vec<(String, String)>, String) {
    for step in 0..200 {
        let fields = radial(120.0 + f64::from(step) * 0.7, 5.0 + f64::from(step % 11));
        let bound = router
            .node(0)
            .manager()
            .resolve_form("/search/radial", &fields)
            .unwrap();
        let key = routing_key(&bound.residual_key, &bound.region);
        if router.owner_seen_by(0, &key) == Some(victim) {
            return (fields, key);
        }
    }
    panic!("no routing key owned by {victim} in 200 candidates");
}

#[test]
fn partition_suspect_dead_failover_then_rejoin_reclaims_slots() {
    let clock = MockClock::shared();
    let router = fleet(3, &clock);
    let victim = NodeId(2);
    let (fields, key) = fields_owned_by(&router, victim);

    // Sanity: with everyone alive, node 0 routes the key to the victim.
    assert_eq!(router.owner_seen_by(0, &key), Some(victim));

    // Partition the victim. Pings fail (direct and indirect), so within
    // a few rounds the survivors suspect it...
    router.kill(victim.0 as usize);
    let events = run_rounds(&router, &clock, 10, |r| {
        r.status_seen_by(0, victim) == Some(NodeStatus::Suspect)
    });
    assert_eq!(
        router.status_seen_by(0, victim),
        Some(NodeStatus::Suspect),
        "events so far: {events:?}"
    );

    // ...and the suspicion alone already fails its slots over.
    let failover_owner = router.owner_seen_by(0, &key).unwrap();
    assert_ne!(failover_owner, victim, "suspect's slots must fail over");

    // The cluster keeps answering the victim's keys during the outage,
    // and never via the dead node.
    let (_, served_by) = router.handle_form(0, "/search/radial", &fields).unwrap();
    match served_by {
        ServedBy::Local(node) | ServedBy::Peer(node) => assert_ne!(node, victim),
    }

    // Past the suspect timeout the verdict hardens to Dead.
    let events = run_rounds(&router, &clock, 10, |r| {
        r.status_seen_by(0, victim) == Some(NodeStatus::Dead)
    });
    assert_eq!(router.status_seen_by(0, victim), Some(NodeStatus::Dead));
    assert!(
        events
            .iter()
            .any(|(_, e)| matches!(e, MembershipEvent::Died(n) if *n == victim)),
        "a Died event must be observed: {events:?}"
    );
    assert_ne!(router.owner_seen_by(0, &key).unwrap(), victim);

    // Rejoin with a bumped incarnation: the fresh Alive claim
    // supersedes the Dead verdict and the slots come back.
    router.revive(victim.0 as usize);
    let events = run_rounds(&router, &clock, 20, |r| {
        r.status_seen_by(0, victim) == Some(NodeStatus::Alive)
            && r.status_seen_by(1, victim) == Some(NodeStatus::Alive)
    });
    assert_eq!(router.status_seen_by(0, victim), Some(NodeStatus::Alive));
    assert!(
        events
            .iter()
            .any(|(_, e)| matches!(e, MembershipEvent::Rejoined(n) if *n == victim)),
        "a Rejoined event must be observed: {events:?}"
    );
    assert_eq!(
        router.owner_seen_by(0, &key),
        Some(victim),
        "rejoiner must reclaim its slots"
    );
}

#[test]
fn stale_epoch_rejoiner_retires_entries_before_serving() {
    let clock = MockClock::shared();
    let router = fleet(3, &clock);
    let fields = radial(200.0, 12.0);

    // Warm node 2's local cache (probe misses, local origin path
    // caches), then verify the warm hit.
    let (first, _) = router.handle_form(2, "/search/radial", &fields).unwrap();
    assert_eq!(first.metrics.outcome, Outcome::Forwarded);
    let (warm, _) = router.handle_form(2, "/search/radial", &fields).unwrap();
    assert_eq!(warm.metrics.outcome, Outcome::Exact);

    // Node 2 crashes; while it is gone, the fleet advances to data
    // release 5 and gossips it around.
    router.kill(2);
    router.node(0).set_epoch(5);
    run_rounds(&router, &clock, 10, |r| r.node(1).current_epoch() == 5);
    assert_eq!(
        router.node(1).current_epoch(),
        5,
        "gossip must carry epochs"
    );
    assert_eq!(router.node(2).current_epoch(), 0, "dead node hears nothing");

    // The rejoiner still holds its stale entry. Gossip must bring it to
    // epoch 5 — retiring the entry — before it serves the query again.
    router.revive(2);
    run_rounds(&router, &clock, 20, |r| r.node(2).current_epoch() == 5);
    assert_eq!(router.node(2).current_epoch(), 5);
    let (after, _) = router.handle_form(2, "/search/radial", &fields).unwrap();
    assert_ne!(
        after.metrics.outcome,
        Outcome::Exact,
        "stale-epoch entry must not serve after rejoin"
    );
}

/// A transport where every exchange fails — a fully partitioned node's
/// view of the world.
struct DarkTransport;

impl PeerTransport for DarkTransport {
    fn ping(
        &self,
        _from: NodeId,
        _to: NodeId,
        _digest: &[GossipEntry],
    ) -> Result<Vec<GossipEntry>, PeerError> {
        Err(PeerError::Timeout)
    }

    fn ping_req(&self, _from: NodeId, _via: NodeId, _target: NodeId) -> Result<(), PeerError> {
        Err(PeerError::Timeout)
    }

    fn probe(
        &self,
        _from: NodeId,
        _to: NodeId,
        _sql: &str,
        _epoch: u64,
    ) -> Result<Option<DocResponse>, PeerError> {
        Err(PeerError::Timeout)
    }
}

#[test]
fn suspicion_hardens_to_dead_only_after_the_timeout() {
    let clock = MockClock::shared();
    let cfg = MembershipConfig::fast_test();
    let timeout = cfg.suspect_timeout;
    let mut m = Membership::new(NodeId(0), &[NodeId(1)], cfg, clock.clone());

    let events = m.note_probe_failure(NodeId(1));
    assert_eq!(events, vec![MembershipEvent::Suspected(NodeId(1))]);
    assert_eq!(m.status_of(NodeId(1)), Some(NodeStatus::Suspect));
    assert_eq!(m.live_nodes(), vec![NodeId(0)]);

    // One tick short of the timeout: still only a suspicion.
    clock.advance(timeout - Duration::from_millis(1));
    let events = m.tick(&DarkTransport);
    assert!(
        !events.iter().any(|e| matches!(e, MembershipEvent::Died(_))),
        "premature death: {events:?}"
    );
    assert_eq!(m.status_of(NodeId(1)), Some(NodeStatus::Suspect));

    clock.advance(Duration::from_millis(1));
    let events = m.tick(&DarkTransport);
    assert!(events.contains(&MembershipEvent::Died(NodeId(1))));
    assert_eq!(m.status_of(NodeId(1)), Some(NodeStatus::Dead));
}

#[test]
fn false_suspicion_about_self_is_refuted_by_incarnation_bump() {
    let clock = MockClock::shared();
    let mut m = Membership::new(
        NodeId(0),
        &[NodeId(1)],
        MembershipConfig::fast_test(),
        clock.clone(),
    );
    assert_eq!(m.incarnation(), 0);

    // A peer gossips that *we* are suspect at our current incarnation.
    let rumor = GossipEntry {
        node: NodeId(0),
        incarnation: 0,
        status: NodeStatus::Suspect,
        epoch: 0,
        breaker_open: false,
    };
    let events = m.merge(&[rumor]);
    assert!(events.contains(&MembershipEvent::SelfRefuted));
    assert_eq!(
        m.incarnation(),
        1,
        "refutation must supersede the rumor's incarnation"
    );
    // Our digest now carries the refutation for the next exchange.
    let own = m
        .digest()
        .into_iter()
        .find(|e| e.node == NodeId(0))
        .unwrap();
    assert_eq!(own.incarnation, 1);
    assert_eq!(own.status, NodeStatus::Alive);

    // A stale rumor at the old incarnation no longer moves us.
    let events = m.merge(&[rumor]);
    assert!(events.is_empty());
    assert_eq!(m.incarnation(), 1);
}
