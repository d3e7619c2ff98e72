//! A fleet member over real sockets: the HTTP side of
//! [`funcproxy::cluster::Node`].
//!
//! Every fleet rule — epoch adoption, the owner probe and its retry,
//! the answers to a peer's gossip and probe, the detector tick — lives
//! on [`Node`]. This module only carries it over HTTP:
//!
//! * [`HttpPeerTransport`] — [`PeerTransport`] as plain GETs against a
//!   peer's `/peer` route on a tight timeout;
//! * [`Fleet`] — a node plus its transport, whose `/peer` exchanges and
//!   Radial serving path [`crate::ProxyEdgeService::fleet_member`]
//!   routes to;
//! * [`Gossip`] — the failure detector's heartbeat thread.
//!
//! The `/peer` route: `?cmd=<sql>&epoch=<n>` is a peer's owner probe
//! carrying the prober's data-release epoch, answered inline on the
//! reactor (an owner probe must never wait for a worker
//! on the owner: on a loaded fleet every node's workers could otherwise
//! all block on probes of one another until the probe deadline fires)
//! unless that epoch is ahead of the owner's, whose adoption retires
//! every older entry shard by shard on a worker;
//! `?gossip=<digest>` is a failure-detector ping and `?pingreq=<id>` an
//! indirect ping on a third node's behalf, both on a worker since they
//! take the membership lock or make an outbound request.

use crate::service::ProxyEdgeService;
use fp_httpd::urlenc::encode_component;
use fp_httpd::{HttpClient, Request, Response, Status};
use funcproxy::cluster::{
    decode_digest, encode_digest, GossipEntry, MembershipConfig, Node, NodeId, PeerError,
    PeerTransport, ServedBy,
};
use funcproxy::metrics::{Outcome, QueryMetrics};
use funcproxy::resilience::SystemClock;
use funcproxy::{DocResponse, ProxyHandle, XmlBody};
use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

/// How long any peer exchange may take: short enough that a dead peer
/// never hangs a client request.
const PEER_TIMEOUT: Duration = Duration::from_millis(500);

/// How often the gossip thread runs a detector round (pings fire at the
/// membership's own `ping_interval`; the extra rounds are one clock
/// read each).
const GOSSIP_ROUND: Duration = Duration::from_millis(250);

/// [`PeerTransport`] over plain HTTP: every exchange is a GET against
/// the peer's `/peer` route on a 500 ms client.
pub struct HttpPeerTransport {
    /// Every fleet member's address, indexed by node id.
    peers: Vec<SocketAddr>,
}

impl HttpPeerTransport {
    /// A transport over the fleet's address list (node `i` listens on
    /// `peers[i]`).
    pub fn new(peers: Vec<SocketAddr>) -> Self {
        HttpPeerTransport { peers }
    }

    fn client(&self, to: NodeId) -> Result<HttpClient, PeerError> {
        let addr = self
            .peers
            .get(usize::from(to.0))
            .ok_or_else(|| PeerError::Unreachable(format!("{to} not in the peer list")))?;
        Ok(HttpClient::new(*addr).with_timeout(PEER_TIMEOUT))
    }

    fn get(&self, to: NodeId, url: &str) -> Result<Response, PeerError> {
        self.client(to)?
            .get(url)
            .map_err(|e| PeerError::Unreachable(e.to_string()))
    }
}

impl PeerTransport for HttpPeerTransport {
    fn ping(
        &self,
        from: NodeId,
        to: NodeId,
        digest: &[GossipEntry],
    ) -> Result<Vec<GossipEntry>, PeerError> {
        let url = format!(
            "/peer?from={}&gossip={}",
            from.0,
            encode_component(&encode_digest(digest))
        );
        let response = self.get(to, &url)?;
        if !response.status.is_success() {
            return Err(PeerError::Protocol(format!(
                "ping answered {}",
                response.status.0
            )));
        }
        Ok(decode_digest(&response.body_text()))
    }

    fn ping_req(&self, _from: NodeId, via: NodeId, target: NodeId) -> Result<(), PeerError> {
        let response = self.get(via, &format!("/peer?pingreq={}", target.0))?;
        if response.status.is_success() {
            Ok(())
        } else {
            Err(PeerError::Unreachable(format!(
                "{target} unreachable via {via}"
            )))
        }
    }

    fn probe(
        &self,
        _from: NodeId,
        to: NodeId,
        sql: &str,
        epoch: u64,
    ) -> Result<Option<DocResponse>, PeerError> {
        let url = format!("/peer?cmd={}&epoch={epoch}", encode_component(sql));
        let response = self.get(to, &url).map_err(|_| PeerError::Timeout)?;
        if response.status == Status::NOT_FOUND {
            return Ok(None); // clean cache miss on the peer
        }
        if !response.status.is_success() {
            return Err(PeerError::Protocol(format!(
                "probe answered {}",
                response.status.0
            )));
        }
        // The peer's own timings stay on the peer; what travels is the
        // outcome, row count and freshness flags the reply's headers
        // need.
        let header = |name: &str| response.headers.get(name);
        let flag = |name: &str| header(name) == Some("true");
        let outcome = [
            Outcome::Exact,
            Outcome::Contained,
            Outcome::RegionContainment,
            Outcome::Overlap,
        ]
        .into_iter()
        .find(|o| header("X-Cache-Outcome") == Some(o.label()))
        .unwrap_or(Outcome::Forwarded);
        let rows = header("X-Rows").and_then(|v| v.parse().ok()).unwrap_or(0);
        let metrics = QueryMetrics {
            outcome,
            rows_total: rows,
            rows_from_cache: rows,
            degraded: flag("X-Degraded"),
            stale: flag("X-Stale"),
            ..QueryMetrics::default()
        };
        Ok(Some(DocResponse {
            body: XmlBody::Bytes(response.body),
            metrics,
        }))
    }
}

/// One fleet member's HTTP side: its [`Node`] and the transport to its
/// peers. Hand it to [`ProxyEdgeService::fleet_member`] to serve the
/// fleet's routes, and to [`Gossip::spawn`] to run its detector.
pub struct Fleet {
    node: Node,
    transport: HttpPeerTransport,
}

impl Fleet {
    /// Node `id` of the fleet whose members listen on `peers` (this
    /// node's own address included, at index `id`), serving `handle`,
    /// with the default failure-detector timings on the system clock.
    pub fn new(handle: ProxyHandle, id: NodeId, peers: Vec<SocketAddr>) -> Fleet {
        let ids: Vec<NodeId> = (0..peers.len() as u16).map(NodeId).collect();
        Fleet {
            node: Node::new(
                id,
                handle,
                &ids,
                MembershipConfig::default(),
                Arc::new(SystemClock),
            ),
            transport: HttpPeerTransport::new(peers),
        }
    }

    /// This member's node.
    pub fn node(&self) -> &Node {
        &self.node
    }

    /// A Radial request through [`Node::serve_form`]; an answer from
    /// the owner's cache says which node served it in `X-Served-By`.
    pub(crate) fn serve_radial(
        &self,
        service: &ProxyEdgeService,
        fields: &[(impl AsRef<str>, impl AsRef<str>)],
    ) -> Response {
        match self
            .node
            .serve_form(&self.transport, "/search/radial", fields)
        {
            Ok((r, served_by)) => {
                let mut resp = ProxyEdgeService::radial_response(r);
                if let ServedBy::Peer(owner) = served_by {
                    resp.headers.set("X-Served-By", owner.to_string());
                }
                resp
            }
            Err(e) => service.error_response(&e),
        }
    }

    /// A peer's owner probe: a hit is the Radial reply plus the row
    /// count the prober rebuilds its metrics from; a miss is a clean
    /// `404` the prober falls through on. An `epoch` that does not parse
    /// is a `400`, and nothing is adopted.
    fn answer_probe(&self, sql: &str, epoch: Option<&str>) -> Response {
        let Some(epoch) = epoch.and_then(|e| e.parse().ok()) else {
            return Response::error(Status::BAD_REQUEST, "bad or missing probe epoch");
        };
        match self.node.answer_probe(sql, epoch) {
            Some(hit) => {
                let rows = hit.metrics.rows_total;
                let mut resp = ProxyEdgeService::radial_response(hit);
                resp.headers.set("X-Rows", rows.to_string());
                resp
            }
            None => Response::error(Status::NOT_FOUND, "cache miss"),
        }
    }

    /// An owner probe answered on the reactor: a cache-only lookup, or
    /// a `400` for a bad epoch. `None` for every other exchange, and for
    /// a probe whose epoch is ahead of this node's: adopting it locks
    /// every shard and retires every older entry, which is a worker's
    /// job (the probe then misses anyway, every entry here being older).
    pub(crate) fn try_probe(&self, request: &Request) -> Option<Response> {
        let params = request.query_params();
        let sql = param(&params, "cmd")?;
        let epoch = param(&params, "epoch");
        let ahead = epoch
            .and_then(|e| e.parse::<u64>().ok())
            .is_some_and(|e| e > self.node.handle().current_epoch());
        (!ahead).then(|| self.answer_probe(sql, epoch))
    }

    /// The `/peer` route: an owner probe, a peer's gossip ping, or an
    /// indirect ping on a third node's behalf.
    pub(crate) fn exchange(&self, request: &Request) -> Response {
        let params = request.query_params();
        let param = |name| param(&params, name);
        if let Some(sql) = param("cmd") {
            return self.answer_probe(sql, param("epoch"));
        }
        if let Some(digest) = param("gossip") {
            let answer = self.node.answer_gossip(&decode_digest(digest));
            return Response::ok("text/plain", encode_digest(&answer));
        }
        let Some(target) = param("pingreq") else {
            return Response::error(Status::BAD_REQUEST, "expected cmd=, gossip= or pingreq=");
        };
        // Can *we* reach the target the asking node failed to ping?
        let Some(id) = target.parse::<u16>().ok().map(NodeId) else {
            return Response::error(Status::BAD_REQUEST, "bad pingreq target");
        };
        let reached = self
            .transport
            .get(id, "/healthz")
            .is_ok_and(|r| r.status.is_success());
        if reached {
            Response::ok("text/plain", "reached")
        } else {
            Response::error(Status::BAD_GATEWAY, "target unreachable")
        }
    }
}

/// The value of query parameter `name`, if present.
fn param<'a>(params: &'a [(String, String)], name: &str) -> Option<&'a str> {
    params
        .iter()
        .find(|(k, _)| k == name)
        .map(|(_, v)| v.as_str())
}

/// The failure detector's heartbeat: a thread running one
/// [`Node::tick`] every 250 ms over HTTP. Stopping it (or dropping it)
/// joins the thread, so shutdown never races a ping; peers then suspect
/// this node and fail its slots over, which is what a drain means
/// fleet-wide.
pub struct Gossip {
    stop: Arc<AtomicBool>,
    thread: Option<JoinHandle<()>>,
}

impl Gossip {
    /// Starts gossiping for `fleet`.
    pub fn spawn(fleet: Arc<Fleet>) -> Gossip {
        let stop = Arc::new(AtomicBool::new(false));
        let stopped = Arc::clone(&stop);
        let thread = std::thread::spawn(move || {
            while !stopped.load(Ordering::Relaxed) {
                std::thread::sleep(GOSSIP_ROUND);
                // The node applies what the events imply (epoch
                // adoption) itself; a server has no use for the log.
                fleet.node.tick(&fleet.transport);
            }
        });
        Gossip {
            stop,
            thread: Some(thread),
        }
    }

    /// Stops the loop and joins its thread.
    ///
    /// # Errors
    /// The thread's panic, if it panicked.
    pub fn stop(mut self) -> std::thread::Result<()> {
        self.stop.store(true, Ordering::Relaxed);
        self.thread.take().map_or(Ok(()), JoinHandle::join)
    }
}

impl Drop for Gossip {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        if let Some(thread) = self.thread.take() {
            let _ = thread.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{EdgeConfig, EdgeServer, EdgeService};
    use fp_skyserver::{Catalog, CatalogSpec, SkySite};
    use funcproxy::cluster::NodeStatus;
    use funcproxy::template::TemplateManager;
    use funcproxy::{CostModel, ProxyConfig, SiteOrigin};
    use std::net::TcpListener;
    use std::time::Instant;

    const RADIAL: &str = "/search/radial?ra=185&dec=0&radius=10";

    fn handle() -> ProxyHandle {
        ProxyHandle::new(
            TemplateManager::with_sky_defaults(),
            Arc::new(SiteOrigin::new(SkySite::new(Catalog::generate(
                &CatalogSpec::small_test(),
            )))),
            ProxyConfig::default().with_cost(CostModel::free()),
        )
    }

    /// Two distinct loopback addresses nothing listens on (the ports
    /// were free a moment ago).
    fn vacant_addrs() -> Vec<SocketAddr> {
        let held: Vec<TcpListener> = (0..2)
            .map(|_| TcpListener::bind("127.0.0.1:0").unwrap())
            .collect();
        held.iter().map(|l| l.local_addr().unwrap()).collect()
    }

    /// Node 1 of a two-node fleet, served on loopback, with node 0's
    /// address vacant.
    fn member() -> (EdgeServer, Vec<SocketAddr>) {
        let peers = vacant_addrs();
        let fleet = Arc::new(Fleet::new(handle(), NodeId(1), peers.clone()));
        let service = ProxyEdgeService::fleet_member(fleet);
        let server = EdgeServer::bind(
            &peers[1].to_string(),
            Arc::new(service) as Arc<dyn EdgeService>,
            EdgeConfig::default().with_workers(2),
        )
        .unwrap();
        (server, peers)
    }

    #[test]
    fn http_transport_pings_probes_and_relays_against_a_live_member() {
        let (server, peers) = member();
        let transport = HttpPeerTransport::new(peers);
        let (from, to) = (NodeId(0), NodeId(1));

        let digest = transport.ping(from, to, &[]).unwrap();
        assert_eq!(digest.len(), 2, "the member gossips its whole view");
        // The member cannot reach vacant node 0 on our behalf.
        assert!(transport.ping_req(from, to, NodeId(0)).is_err());
        assert!(transport.ping(from, NodeId(9), &[]).is_err());

        let fields = [("ra", "185"), ("dec", "0"), ("radius", "10")];
        let sql = handle()
            .manager()
            .bind_form("/search/radial", &fields)
            .unwrap()
            .sql;
        assert!(
            transport.probe(from, to, &sql, 0).unwrap().is_none(),
            "cold"
        );
        let warm = HttpClient::new(server.addr()).get(RADIAL).unwrap();
        assert!(warm.status.is_success());
        let hit = transport.probe(from, to, &sql, 0).unwrap().unwrap();
        assert_eq!(hit.metrics.outcome, Outcome::Exact);
        assert!(hit.metrics.rows_total > 0);
        assert_eq!(hit.body.into_vec(), warm.body, "the owner's own answer");
        server.shutdown();
    }

    #[test]
    fn a_probe_adopts_a_parsed_epoch_and_refuses_a_bad_one() {
        let fleet = Arc::new(Fleet::new(handle(), NodeId(0), vacant_addrs()));
        let service = ProxyEdgeService::fleet_member(Arc::clone(&fleet));
        let inline = |path: &str| service.try_fast(&Request::get(path)).map(|r| r.status.0);
        assert_eq!(inline("/peer?cmd=SELECT%201&epoch=4x"), Some(400));
        assert_eq!(inline("/peer?cmd=SELECT%201"), Some(400));
        assert_eq!(fleet.node().handle().current_epoch(), 0, "nothing adopted");
        // A newer epoch retires entries shard by shard: not on the reactor.
        let newer = Request::get("/peer?cmd=SELECT%201&epoch=3");
        assert!(service.try_fast(&newer).is_none(), "offloaded");
        assert_eq!(fleet.node().handle().current_epoch(), 0);
        assert_eq!(service.handle(&newer).status.0, 404);
        assert_eq!(fleet.node().handle().current_epoch(), 3);
        // At or behind the owner's epoch a probe is a plain lookup, inline.
        assert_eq!(inline("/peer?cmd=SELECT%201&epoch=3"), Some(404));
        assert_eq!(inline("/peer?cmd=SELECT%201&epoch=1"), Some(404));
        assert_eq!(fleet.node().handle().current_epoch(), 3);
    }

    #[test]
    fn gossip_suspects_a_vacant_peer_and_stops_promptly() {
        let fleet = Arc::new(Fleet::new(handle(), NodeId(0), vacant_addrs()));
        let gossip = Gossip::spawn(Arc::clone(&fleet));
        let deadline = Instant::now() + Duration::from_secs(10);
        while fleet.node().status_of(NodeId(1)) == Some(NodeStatus::Alive) {
            assert!(Instant::now() < deadline, "node 1 never suspected");
            std::thread::sleep(Duration::from_millis(20));
        }
        let stopping = Instant::now();
        gossip
            .stop()
            .expect("the gossip thread ran without panicking");
        assert!(stopping.elapsed() < Duration::from_secs(5));
    }

    #[test]
    fn a_service_outside_a_fleet_answers_health_but_not_peer() {
        let service = ProxyEdgeService::new(handle());
        for (path, status) in [("/healthz", 200), ("/readyz", 200), ("/peer?gossip=", 404)] {
            let request = Request::get(path);
            assert_eq!(service.handle(&request).status.0, status, "{path}");
        }
        assert_eq!(
            service
                .try_fast(&Request::get("/readyz"))
                .map(|r| r.status.0),
            Some(200),
            "readiness is answered on the reactor"
        );
    }
}
