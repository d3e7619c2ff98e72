//! The shipping fleet path over real sockets: three `fp-edge` servers
//! in one process, each a `ProxyEdgeService` whose `Fleet` runs
//! `cluster::Node` over `HttpPeerTransport` on loopback — the stack
//! `examples/http_proxy.rs --peers` runs, minus the gossip thread (every
//! view starts all-Alive, so routing is deterministic).

use fp_suite::edge::fleet::Fleet;
use fp_suite::edge::{EdgeConfig, EdgeServer, ProxyEdgeService};
use fp_suite::httpd::{HttpClient, Response};
use fp_suite::proxy::cluster::{owner_of_key, routing_key, NodeId, NodeStatus};
use fp_suite::proxy::template::TemplateManager;
use fp_suite::proxy::{
    CostModel, CountingOrigin, Origin, ProxyConfig, ProxyHandle, Scheme, SiteOrigin,
};
use fp_suite::skyserver::{Catalog, CatalogSpec, ResultSet, SkySite};
use fp_suite::xmlite::Element;
use std::net::{SocketAddr, TcpListener};
use std::sync::Arc;

const NODES: usize = 3;

struct Member {
    server: Option<EdgeServer>,
    fleet: Arc<Fleet>,
    origin: Arc<CountingOrigin>,
}

impl Member {
    fn get(&self, url: &str) -> Response {
        let addr = self.server.as_ref().expect("member is up").addr();
        HttpClient::new(addr).get(url).expect("request succeeds")
    }
}

fn config(scheme: Scheme) -> ProxyConfig {
    ProxyConfig::default()
        .with_scheme(scheme)
        .with_cost(CostModel::free())
}

/// Boots a fleet on loopback. Every member needs the whole address list
/// before it binds, so the ports are reserved first; a port taken in
/// between fails the bind and the whole fleet is booted again.
fn boot(site: &SkySite) -> Vec<Member> {
    for _ in 0..5 {
        let addrs: Vec<SocketAddr> = {
            let held: Vec<TcpListener> = (0..NODES)
                .map(|_| TcpListener::bind("127.0.0.1:0").unwrap())
                .collect();
            held.iter().map(|l| l.local_addr().unwrap()).collect()
        };
        let members: Vec<Member> = addrs
            .iter()
            .enumerate()
            .map_while(|(i, addr)| {
                let origin = Arc::new(CountingOrigin::new(Arc::new(SiteOrigin::new(site.clone()))));
                let handle = ProxyHandle::new(
                    TemplateManager::with_sky_defaults(),
                    Arc::clone(&origin) as Arc<dyn Origin>,
                    config(Scheme::FullSemantic),
                );
                let fleet = Arc::new(Fleet::new(handle, NodeId(i as u16), addrs.clone()));
                let service = ProxyEdgeService::fleet_member(Arc::clone(&fleet));
                let server = EdgeServer::bind(
                    &addr.to_string(),
                    Arc::new(service),
                    EdgeConfig::default().with_workers(2),
                )
                .ok()?;
                Some(Member {
                    server: Some(server),
                    fleet,
                    origin,
                })
            })
            .collect();
        if members.len() == NODES {
            return members;
        }
    }
    panic!("could not bind a {NODES}-node fleet on loopback");
}

/// A Radial request and the node that owns its routing key in an
/// all-Alive view.
fn owned_request() -> (Vec<(String, String)>, usize) {
    let fields = vec![
        ("ra".to_string(), "185".to_string()),
        ("dec".to_string(), "0.5".to_string()),
        ("radius".to_string(), "20".to_string()),
    ];
    let bound = TemplateManager::with_sky_defaults()
        .bind_form("/search/radial", &fields)
        .unwrap();
    let all: Vec<NodeId> = (0..NODES as u16).map(NodeId).collect();
    let owner = owner_of_key(&routing_key(&bound.residual_key, &bound.region), &all).unwrap();
    (fields, usize::from(owner.0))
}

fn url(fields: &[(String, String)]) -> String {
    let query: Vec<String> = fields.iter().map(|(k, v)| format!("{k}={v}")).collect();
    format!("/search/radial?{}", query.join("&"))
}

fn rows(response: &Response) -> ResultSet {
    let doc = Element::parse(&response.body_text()).expect("XML body");
    ResultSet::from_xml(&doc).expect("result document")
}

#[test]
fn a_key_replayed_through_another_node_is_served_by_its_owner_cache() {
    let site = SkySite::new(Catalog::generate(&CatalogSpec::small_test()));
    let members = boot(&site);
    let (fields, owner) = owned_request();
    let entry = (owner + 1) % NODES;

    assert!(members[owner].get(&url(&fields)).status.is_success());
    let fetches: Vec<usize> = members.iter().map(|m| m.origin.fetches()).collect();

    let reply = members[entry].get(&url(&fields));
    assert!(reply.status.is_success());
    assert_eq!(
        reply.headers.get("X-Served-By"),
        Some(format!("node{owner}").as_str())
    );
    assert_eq!(
        members
            .iter()
            .map(|m| m.origin.fetches())
            .collect::<Vec<_>>(),
        fetches,
        "a peer hit costs no node an origin fetch"
    );
    let oracle = ProxyHandle::new(
        TemplateManager::with_sky_defaults(),
        Arc::new(SiteOrigin::new(site.clone())),
        config(Scheme::NoCache),
    );
    let expected = oracle.handle_form("/search/radial", &fields).unwrap();
    assert_eq!(rows(&reply), *expected.result);
}

#[test]
fn the_entry_node_times_its_owner_probes() {
    let site = SkySite::new(Catalog::generate(&CatalogSpec::small_test()));
    let members = boot(&site);
    let (fields, owner) = owned_request();
    let entry = (owner + 1) % NODES;

    assert!(members[entry].get(&url(&fields)).status.is_success());
    let metrics = members[entry].get("/metrics").body_text();
    let probes: u64 = metrics
        .lines()
        .find_map(|line| {
            line.strip_prefix(
                "funcproxy_phase_latency_seconds_count{phase=\"peer_probe\",path=\"miss\"} ",
            )
        })
        .expect("the peer_probe series is exported")
        .parse()
        .unwrap();
    assert_eq!(probes, 1, "one owner probe, one PeerProbe sample");
}

#[test]
fn a_dead_owner_is_suspected_and_the_request_still_succeeds() {
    let site = SkySite::new(Catalog::generate(&CatalogSpec::small_test()));
    let mut members = boot(&site);
    let (fields, owner) = owned_request();
    let entry = (owner + 1) % NODES;

    members[owner].server.take().unwrap().shutdown();
    let reply = members[entry].get(&url(&fields));
    assert_eq!(reply.status.0, 200);
    assert_eq!(reply.headers.get("X-Served-By"), None, "served locally");
    assert_eq!(
        members[entry].fleet.node().status_of(NodeId(owner as u16)),
        Some(NodeStatus::Suspect)
    );
    assert_eq!(members[entry].origin.fetches(), 1);
}

#[test]
fn an_owner_behind_the_entry_nodes_epoch_adopts_it_before_answering_a_probe() {
    let site = SkySite::new(Catalog::generate(&CatalogSpec::small_test()));
    let members = boot(&site);
    let (fields, owner) = owned_request();
    let entry = (owner + 1) % NODES;

    assert!(members[owner].get(&url(&fields)).status.is_success());
    // The entry node learned of release 4; the owner is still at 0.
    members[entry].fleet.node().handle().set_epoch(4);
    let reply = members[entry].get(&url(&fields));
    assert_eq!(reply.status.0, 200);
    assert_eq!(
        reply.headers.get("X-Served-By"),
        None,
        "the owner's pre-release entry must not answer"
    );
    assert_eq!(members[owner].fleet.node().handle().current_epoch(), 4);
    assert_eq!(
        members[entry].origin.fetches(),
        1,
        "served by the entry node"
    );
}
