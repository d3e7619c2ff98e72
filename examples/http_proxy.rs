//! The full deployment picture over real sockets: browser-like clients →
//! the function proxy (an `fp-edge` reactor serving one shared
//! [`ProxyHandle`]) → the origin web site (another reactor exposing its
//! search form and the free-form SQL page), all on loopback TCP using the
//! workspace's own HTTP stack.
//!
//! ```sh
//! cargo run --example http_proxy [-- --ttl <secs>] [--epoch <n>]
//!                                [--serve] [--port <n>] [--trace-sample <n>]
//!                                [--workers <n>] [--max-conns <n>]
//!                                [--cache-budget <bytes>] [--slab-dir <path>]
//!                                [--peers ip:port,ip:port,…] [--node-id <n>]
//! ```
//!
//! `--ttl` gives every cached entry a freshness lifetime (expired entries
//! are served stale while a background refresh runs), and `--epoch`
//! declares the origin's current data-release epoch (entries from older
//! epochs are invalidated).
//!
//! `--cache-budget` caps the RAM the cache may hold (bytes; default
//! unbounded) and `--slab-dir` attaches the disk tier — the cache's only
//! persistence: entries pushed over the budget demote to per-shard
//! mmap'd slab files instead of being evicted, still answering exact and
//! contained hits straight from the page cache, and every 5 s (and at
//! shutdown) each shard writes a small `.fpmeta` index beside its slab.
//! A proxy started over the same `--slab-dir` warm restarts from it.
//!
//! The front end is the nonblocking `fp-edge` reactor: one event-loop
//! thread multiplexes every connection, fresh cache hits and every
//! operational route that cannot block are answered inline, misses go
//! to a fixed worker pool (`--workers`, default 4), and admission
//! control sheds overload with fast `503 + Retry-After` instead of
//! queueing unboundedly (`--max-conns` caps open connections, default
//! 1024).
//!
//! Shutdown is graceful: SIGINT/SIGTERM stops accepting, drains
//! in-flight requests, quiesces background revalidations, writes a
//! final `.fpmeta` pass when `--slab-dir` is set, and prints a closing
//! stats summary.
//!
//! Observability: the proxy always exposes `GET /metrics` (Prometheus
//! text format: runtime counters, per-phase and per-outcome latency
//! histograms, and the edge's own counters) and `GET /debug/trace`
//! (sampled spans as a chrome://tracing JSON document; `?format=jsonl`
//! for JSON Lines). `--trace-sample N` traces one request in `N`
//! (default 16, `0` disables tracing). `--serve` keeps the proxy running
//! after the scripted demo so the endpoints can be scraped; `--port N`
//! pins the proxy's listen port (default: an ephemeral port).
//!
//! Health: `GET /healthz` answers 200 while the process lives (a
//! liveness probe), `GET /readyz` answers 503 once a drain began
//! (SIGINT/SIGTERM received) or while the origin circuit breaker is
//! open (with a `Retry-After` hint) — the signal a load balancer uses
//! to eject a node without dropping in-flight requests.
//!
//! Fleet mode: `--peers ip:port,ip:port,…` (the full fleet address
//! list, this node included) plus `--node-id N` (this node's index into
//! that list) turn N such processes into one slot-sharded proxy fleet.
//! Every process runs a SWIM failure detector over HTTP: a background
//! thread pings one peer per second through `GET /peer?gossip=…`,
//! piggybacking the gossip digest (membership, incarnations,
//! data-release epochs, breaker state). On a local cache miss the
//! serving path hashes the query's routing key to its owning peer and
//! probes that peer's cache (`GET /peer?cmd=…`, cache-only, tight
//! deadline, one retry) before paying for an origin fetch; probe
//! failures suspect the peer — failing its slots over to the next node
//! in each slot's preference chain — and fall through to the local
//! origin path, so peer trouble is never a client error.

use fp_suite::edge::sys::install_interrupt_flag;
use fp_suite::edge::{EdgeConfig, EdgeServer, EdgeService, ProxyEdgeService};
use fp_suite::httpd::urlenc::{encode_component, parse_query_borrowed};
use fp_suite::httpd::{HttpClient, Request, Response, Router, Status};
use fp_suite::proxy::cache::TierConfig;
use fp_suite::proxy::cluster::{
    decode_digest, encode_digest, owner_of_key, routing_key, GossipEntry, Membership,
    MembershipConfig, MembershipEvent, NodeId, PeerError, PeerTransport,
};
use fp_suite::proxy::metrics::{Outcome, QueryMetrics};
use fp_suite::proxy::resilience::SystemClock;
use fp_suite::proxy::template::TemplateManager;
use fp_suite::proxy::{
    CostModel, DocResponse, LifecycleConfig, ObserveConfig, Origin, OriginError, ProxyConfig,
    ProxyHandle, ResilienceConfig, Scheme, XmlBody, XmlResponse,
};
use fp_suite::skyserver::result::QueryOutcome;
use fp_suite::skyserver::{Catalog, CatalogSpec, ExecStats, ResultSet, SkySite};
use fp_suite::sqlmini::Query;
use fp_suite::xmlite::Element;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// The origin web site's HTTP face: the free-form SQL page
/// (`GET /sql?cmd=<urlencoded sql>`), returning the XML result document
/// plus execution statistics in response headers.
fn origin_router(site: SkySite) -> Router {
    Router::new().route("/sql", move |req: &Request| {
        let Some((_, sql)) = req.query_params().into_iter().find(|(k, _)| k == "cmd") else {
            return Response::error(Status::BAD_REQUEST, "missing cmd parameter");
        };
        match site.execute_sql(&sql) {
            Ok(outcome) => {
                let mut resp = Response::ok("text/xml", outcome.result.to_xml().to_xml());
                resp.headers
                    .set("X-Rows-Scanned", outcome.stats.rows_scanned.to_string());
                resp.headers
                    .set("X-Rows-Returned", outcome.stats.rows_returned.to_string());
                resp
            }
            Err(e) => Response::error(Status::BAD_REQUEST, &e.to_string()),
        }
    })
}

/// An [`Origin`] that reaches the origin site over HTTP — what the proxy
/// would use in a real deployment (the in-process `SiteOrigin` is the
/// simulation shortcut). The keep-alive [`HttpClient`] reuses one origin
/// connection across fetches.
struct HttpOrigin {
    client: HttpClient,
}

impl Origin for HttpOrigin {
    fn execute(&self, query: &Query) -> Result<QueryOutcome, OriginError> {
        let url = format!("/sql?cmd={}", encode_component(&query.to_sql()));
        let response = self
            .client
            .get(&url)
            .map_err(|e| OriginError::Unavailable(e.to_string()))?;
        if !response.status.is_success() {
            return Err(OriginError::Rejected(response.body_text()));
        }
        let doc = Element::parse(&response.body_text())
            .map_err(|e| OriginError::Rejected(format!("bad XML from origin: {e}")))?;
        let result = ResultSet::from_xml(&doc)
            .ok_or_else(|| OriginError::Rejected("malformed result document".into()))?;
        let header_num = |name: &str| {
            response
                .headers
                .get(name)
                .and_then(|v| v.parse().ok())
                .unwrap_or(0)
        };
        let stats = ExecStats {
            rows_scanned: header_num("X-Rows-Scanned"),
            rows_returned: header_num("X-Rows-Returned"),
            result_bytes: response.body.len(),
        };
        Ok(QueryOutcome { result, stats })
    }
}

/// One cross-process fleet node's view: who the peers are (addresses
/// indexed by node id, this node included), what this node currently
/// believes about them, and the proxy whose epoch/breaker facts it
/// gossips.
struct FleetState {
    self_id: NodeId,
    addrs: Vec<std::net::SocketAddr>,
    membership: Mutex<Membership>,
    handle: ProxyHandle,
}

impl FleetState {
    /// A short-deadline client for `to` — peer exchanges must give up
    /// fast enough that a dead peer never hangs a client request.
    fn client(&self, to: NodeId) -> Option<HttpClient> {
        let addr = *self.addrs.get(usize::from(to.0))?;
        Some(HttpClient::new(addr).with_timeout(Duration::from_millis(500)))
    }

    fn lock_membership(&self) -> std::sync::MutexGuard<'_, Membership> {
        self.membership.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Applies the membership events with proxy side effects: an epoch
    /// gossiped from the fleet retires this node's stale entries before
    /// the next query is served (the stale-rejoiner rule).
    fn apply(&self, events: &[MembershipEvent]) {
        for event in events {
            if let MembershipEvent::EpochAdvanced(epoch) = event {
                self.handle.set_epoch(*epoch);
            }
        }
    }

    /// The owner-probe leg of the serving path: one probe plus one
    /// retry against the slot owner's cache. Transport failure suspects
    /// the owner (its slots fail over fleet-wide on the next gossip
    /// round) and returns `None` — the caller falls through to its
    /// local origin path, so peer trouble never surfaces to the client.
    fn probe_owner(self: &Arc<Self>, owner: NodeId, sql: &str) -> Option<XmlResponse> {
        let transport = HttpPeerTransport {
            fleet: Arc::clone(self),
        };
        for attempt in 0..2 {
            match transport.probe(self.self_id, owner, sql) {
                Ok(hit) => {
                    self.handle.note_peer_probe(hit.is_some());
                    return hit;
                }
                Err(_) if attempt == 0 => continue,
                Err(_) => {
                    self.handle.note_peer_probe_failure();
                    let events = self.lock_membership().note_probe_failure(owner);
                    self.apply(&events);
                }
            }
        }
        None
    }

    /// The two `/peer` exchanges of the failure detector: a peer's
    /// gossip ping and an indirect ping on a third node's behalf.
    fn exchange(&self, request: &Request) -> Response {
        let params = request.query_params();
        let param = |name: &str| {
            params
                .iter()
                .find(|(k, _)| k == name)
                .map(|(_, v)| v.as_str())
        };
        if let Some(digest) = param("gossip") {
            // Merge the peer's digest into our view and answer with ours
            // (refreshed with our own epoch/breaker facts first).
            // `try_lock`, not `lock`: our own gossip thread holds this
            // mutex *across its outbound ping*, so two nodes pinging
            // each other in the same round would deadlock until both
            // timeouts fire — and mutual ping timeouts every round mean
            // perpetual mutual suspicion. An empty 200 breaks the cycle:
            // it still proves liveness (all the ping needs), it just
            // skips rumor exchange for this round.
            let Ok(mut m) = self.membership.try_lock() else {
                return Response::ok("text/plain", Vec::new());
            };
            let events = m.merge(&decode_digest(digest));
            m.set_self_state(
                self.handle.current_epoch(),
                self.handle.breaker_shed_hint().is_some(),
            );
            let answer = encode_digest(&m.digest());
            drop(m);
            self.apply(&events);
            return Response::ok("text/plain", answer);
        }
        let Some(target) = param("pingreq") else {
            return Response::error(Status::BAD_REQUEST, "expected cmd=, gossip= or pingreq=");
        };
        // Can *we* reach the target the asking node failed to ping?
        let Some(id) = target.parse::<u16>().ok().map(NodeId) else {
            return Response::error(Status::BAD_REQUEST, "bad pingreq target");
        };
        let reached = self
            .client(id)
            .and_then(|client| client.get("/healthz").ok())
            .is_some_and(|r| r.status.is_success());
        if reached {
            Response::ok("text/plain", "reached")
        } else {
            Response::error(Status::BAD_GATEWAY, "target unreachable")
        }
    }
}

/// [`PeerTransport`] over plain HTTP: every exchange is a GET against
/// the peer's `/peer` endpoint on a tight timeout — the same trait the
/// in-process test fleet runs on, now crossing process boundaries.
struct HttpPeerTransport {
    fleet: Arc<FleetState>,
}

impl HttpPeerTransport {
    fn client(&self, to: NodeId) -> Result<HttpClient, PeerError> {
        self.fleet
            .client(to)
            .ok_or_else(|| PeerError::Unreachable(format!("{to} not in --peers")))
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
        let response = self
            .client(to)?
            .get(&url)
            .map_err(|e| PeerError::Unreachable(e.to_string()))?;
        if !response.status.is_success() {
            return Err(PeerError::Protocol(format!(
                "ping answered {}",
                response.status.0
            )));
        }
        Ok(decode_digest(&response.body_text()))
    }

    fn ping_req(&self, _from: NodeId, via: NodeId, target: NodeId) -> Result<(), PeerError> {
        let response = self
            .client(via)?
            .get(&format!("/peer?pingreq={}", target.0))
            .map_err(|e| PeerError::Unreachable(e.to_string()))?;
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
    ) -> Result<Option<XmlResponse>, PeerError> {
        let url = format!("/peer?cmd={}", encode_component(sql));
        let response = self.client(to)?.get(&url).map_err(|_| PeerError::Timeout)?;
        if response.status == Status::NOT_FOUND {
            return Ok(None); // clean cache miss on the peer
        }
        if !response.status.is_success() {
            return Err(PeerError::Protocol(format!(
                "probe answered {}",
                response.status.0
            )));
        }
        let metrics = peer_hit_metrics(&response);
        Ok(Some(XmlResponse {
            body: response.body,
            metrics,
        }))
    }
}

/// Reconstructs per-query metrics from a peer probe response's headers
/// (the peer's own timings stay on the peer; what travels is the
/// outcome, row count and freshness flags the client-facing headers
/// need).
fn peer_hit_metrics(response: &Response) -> QueryMetrics {
    let outcome = match response.headers.get("X-Cache-Outcome") {
        Some("exact") => Outcome::Exact,
        Some("contained") => Outcome::Contained,
        Some("region-containment") => Outcome::RegionContainment,
        Some("overlap") => Outcome::Overlap,
        _ => Outcome::Forwarded,
    };
    let flag = |name: &str| response.headers.get(name) == Some("true");
    let rows = response
        .headers
        .get("X-Rows")
        .and_then(|v| v.parse().ok())
        .unwrap_or(0);
    QueryMetrics {
        outcome,
        response_ms: 0.0,
        sim_ms: 0.0,
        proxy_ms: 0.0,
        check_ms: 0.0,
        local_ms: 0.0,
        rows_total: rows,
        rows_from_cache: rows,
        coalesced: false,
        lock_wait_ms: 0.0,
        rows_scanned: 0,
        rows_pruned: 0,
        local_fallback: false,
        degraded: flag("X-Degraded"),
        stale: flag("X-Stale"),
        entry_age_ms: 0.0,
        disk_hit: false,
    }
}

/// The proxy's HTTP face: [`ProxyEdgeService`]'s routes (the Radial
/// search form and the SQL page — the two entry points the paper's
/// SkyServer deployment had — plus `/metrics` and `/debug/trace`) and
/// what a deployment adds to them: `/healthz` and `/readyz` for the
/// load balancer, `/peer` for the fleet, and the owner-cache probe on a
/// fleet node's Radial misses. Every reply to a query is built by
/// [`ProxyEdgeService`], so a peer-served answer carries the same
/// headers as a local one.
struct ProxyService {
    edge: ProxyEdgeService,
    draining: &'static AtomicBool,
    fleet: Option<Arc<FleetState>>,
}

impl ProxyService {
    /// The operational routes, none of which blocks: liveness,
    /// readiness (a flag load and the breaker's shed hint) and a peer's
    /// cache-only probe. `None` for every other request, and for the
    /// gossip and indirect-ping exchanges, which take the membership
    /// lock or make an outbound request and so run on a worker. An
    /// owner probe must never wait for a worker on the owner: on a
    /// loaded fleet every node's workers could otherwise all block on
    /// probes of one another until the probe deadline fires.
    fn inline(&self, request: &Request) -> Option<Response> {
        match request.path.as_str() {
            "/healthz" => Some(Response::ok("text/plain", "ok")),
            "/readyz" => Some(self.readiness()),
            "/peer" => {
                let params = request.query_params();
                if let Some((_, sql)) = params.iter().find(|(k, _)| k == "cmd") {
                    return Some(self.cache_probe(sql));
                }
                self.fleet.is_none().then(|| {
                    Response::error(
                        Status::NOT_FOUND,
                        "not running as a fleet (start with --peers)",
                    )
                })
            }
            _ => None,
        }
    }

    fn readiness(&self) -> Response {
        if self.draining.load(Ordering::Relaxed) {
            return Response::error(Status::SERVICE_UNAVAILABLE, "draining");
        }
        if let Some(secs) = self.edge.shed_hint() {
            let mut resp =
                Response::error(Status::SERVICE_UNAVAILABLE, "origin circuit breaker open");
            resp.headers.set("Retry-After", secs.to_string());
            return resp;
        }
        Response::ok("text/plain", "ready")
    }

    /// A peer's cache-only probe: fresh local entries alone, never the
    /// origin. A hit is the Radial reply plus the row count the prober
    /// rebuilds its metrics from; a miss is a clean `404` the prober
    /// falls through on.
    fn cache_probe(&self, sql: &str) -> Response {
        match self.edge.proxy().try_sql_doc_cached(sql) {
            Some(hit) => {
                let rows = hit.metrics.rows_total;
                let mut resp = ProxyEdgeService::radial_response(hit);
                resp.headers.set("X-Rows", rows.to_string());
                resp
            }
            None => Response::error(Status::NOT_FOUND, "cache miss"),
        }
    }

    /// The owner-probe leg of a fleet node's Radial miss: hash the
    /// routing key to its owning peer and ask that peer's cache
    /// (fresh-only, zero origin traffic) before paying for an origin
    /// fetch. `None` when this node owns the key or the owner has no
    /// fresh answer.
    fn peer_answer(&self, fleet: &Arc<FleetState>, request: &Request) -> Option<Response> {
        let fields = parse_query_borrowed(&request.query);
        let bound = self
            .edge
            .proxy()
            .manager()
            .bind_form("/search/radial", &fields)
            .ok()?;
        let live = fleet.lock_membership().live_nodes();
        let key = routing_key(&bound.residual_key, &bound.region);
        let owner = owner_of_key(&key, &live).filter(|&o| o != fleet.self_id)?;
        let hit = fleet.probe_owner(owner, &bound.sql)?;
        let mut resp = ProxyEdgeService::radial_response(DocResponse {
            body: XmlBody::Bytes(hit.body),
            metrics: hit.metrics,
        });
        resp.headers.set("X-Served-By", owner.to_string());
        Some(resp)
    }
}

impl EdgeService for ProxyService {
    /// Serves what `try_fast` declined, which the reactor hands over.
    fn handle(&self, request: &Request) -> Response {
        match (request.path.as_str(), &self.fleet) {
            ("/peer", Some(fleet)) => fleet.exchange(request),
            // The local fresh cache already declined on the reactor;
            // the owner's cache comes next, then the full local
            // pipeline (origin fetch with deadlines, retries and the
            // breaker, degraded serving on outages).
            ("/search/radial", Some(fleet)) => self
                .peer_answer(fleet, request)
                .unwrap_or_else(|| self.edge.handle(request)),
            _ => self.edge.handle(request),
        }
    }

    fn try_fast(&self, request: &Request) -> Option<Response> {
        self.inline(request).or_else(|| self.edge.try_fast(request))
    }

    fn shed_hint(&self) -> Option<u64> {
        self.edge.shed_hint()
    }
}

fn main() {
    // 0. Lifecycle flags (all optional; without them the cache never
    //    expires and nothing is persisted — the pre-lifecycle behaviour).
    let mut ttl_secs: Option<u64> = None;
    let mut epoch: u64 = 0;
    let mut serve = false;
    let mut port: u16 = 0;
    let mut trace_sample: u64 = 16;
    let mut workers: usize = 4;
    let mut max_conns: usize = 1024;
    let mut cache_budget: Option<usize> = None;
    let mut slab_dir: Option<std::path::PathBuf> = None;
    let mut peers: Vec<std::net::SocketAddr> = Vec::new();
    let mut node_id: u16 = 0;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--peers" => {
                peers = args
                    .next()
                    .map(|list| {
                        list.split(',')
                            .map(|a| a.trim().parse().expect("--peers takes ip:port,ip:port,…"))
                            .collect()
                    })
                    .unwrap_or_default();
            }
            "--node-id" => node_id = args.next().and_then(|s| s.parse().ok()).unwrap_or(0),
            "--ttl" => ttl_secs = args.next().and_then(|s| s.parse().ok()),
            "--epoch" => epoch = args.next().and_then(|s| s.parse().ok()).unwrap_or(0),
            "--serve" => serve = true,
            "--port" => port = args.next().and_then(|s| s.parse().ok()).unwrap_or(0),
            "--trace-sample" => {
                trace_sample = args.next().and_then(|s| s.parse().ok()).unwrap_or(16);
            }
            "--workers" => workers = args.next().and_then(|s| s.parse().ok()).unwrap_or(4),
            "--max-conns" => {
                max_conns = args.next().and_then(|s| s.parse().ok()).unwrap_or(1024);
            }
            "--cache-budget" => cache_budget = args.next().and_then(|s| s.parse().ok()),
            "--slab-dir" => slab_dir = args.next().map(Into::into),
            other => {
                eprintln!(
                    "unknown option `{other}` \
                     (supported: --ttl <secs>, --epoch <n>, \
                     --serve, --port <n>, --trace-sample <n>, \
                     --workers <n>, --max-conns <n>, \
                     --cache-budget <bytes>, --slab-dir <path>, \
                     --peers ip:port,ip:port,…, --node-id <n>)"
                );
                std::process::exit(2);
            }
        }
    }
    if !peers.is_empty() {
        if usize::from(node_id) >= peers.len() {
            eprintln!(
                "--node-id {node_id} is out of range for a {}-entry --peers list",
                peers.len()
            );
            std::process::exit(2);
        }
        if port == 0 {
            // Default the listen port to this node's own --peers entry,
            // so the fleet's address list is the only configuration.
            port = peers[usize::from(node_id)].port();
        }
    }
    // Install the SIGINT/SIGTERM flag up front: it doubles as the
    // draining signal `/readyz` reports, so a load balancer stops
    // sending traffic the moment a drain begins.
    let interrupted = install_interrupt_flag();
    let mut lifecycle = LifecycleConfig::default().with_epoch(epoch);
    if let Some(secs) = ttl_secs {
        let ttl = std::time::Duration::from_secs(secs.max(1));
        lifecycle = lifecycle
            .with_default_ttl(ttl)
            // Serve expired entries (while refreshing) for one more TTL,
            // and keep them usable through origin outages for ten.
            .with_stale_while_revalidate(ttl)
            .with_stale_if_error(ttl * 10);
    }

    // 1. The origin web site: its router runs on the worker pool.
    println!("starting the origin site…");
    let site = SkySite::new(Catalog::generate(&CatalogSpec::small_test()));
    let origin_server = EdgeServer::bind(
        "127.0.0.1:0",
        Arc::new(origin_router(site)),
        EdgeConfig::default(),
    )
    .expect("origin binds");
    println!("origin listening on http://{}", origin_server.addr());

    // 2. The function proxy, talking to the origin over HTTP and serving
    //    the reactor and every worker through one shared handle.
    let origin = HttpOrigin {
        client: HttpClient::new(origin_server.addr()),
    };
    let mut config = ProxyConfig::default()
        .with_scheme(Scheme::FullSemantic)
        .with_cost(CostModel::free())
        .with_lifecycle(lifecycle)
        // Deadlines, retry/backoff and the circuit breaker on the
        // origin path — also what feeds the Retry-After backoff hint.
        .with_resilience(ResilienceConfig::default())
        .with_observe(ObserveConfig::default().with_sample_every(trace_sample));
    if cache_budget.is_some() {
        config = config.with_capacity(cache_budget);
    }
    if let Some(dir) = &slab_dir {
        config = config
            .with_tier_config(TierConfig::new(dir).with_meta_interval(Duration::from_secs(5)));
    }
    let handle = ProxyHandle::new(
        TemplateManager::with_sky_defaults(),
        Arc::new(origin),
        config,
    );
    if let Some(dir) = &slab_dir {
        println!(
            "recovered {} cache entries from {}",
            handle.runtime_stats().recovered_entries,
            dir.display()
        );
    }
    // Fleet mode: one SWIM membership view over the configured peer
    // list, gossiped over HTTP by a background thread below.
    let fleet = if peers.is_empty() {
        None
    } else {
        let ids: Vec<NodeId> = (0..peers.len() as u16).map(NodeId).collect();
        let self_id = NodeId(node_id);
        let membership = Membership::new(
            self_id,
            &ids,
            MembershipConfig::default(),
            Arc::new(SystemClock),
        );
        println!(
            "fleet  {self_id} of {} nodes: {}",
            peers.len(),
            peers
                .iter()
                .map(|a| a.to_string())
                .collect::<Vec<_>>()
                .join(", ")
        );
        Some(Arc::new(FleetState {
            self_id,
            addrs: peers.clone(),
            membership: Mutex::new(membership),
            handle: handle.clone(),
        }))
    };

    // The reactor, the proxy runtime, and `/metrics` share one
    // stats/observer instance.
    let service = Arc::new(ProxyService {
        edge: ProxyEdgeService::new(handle.clone()),
        draining: interrupted,
        fleet: fleet.clone(),
    });
    let edge_config = EdgeConfig::default()
        .with_workers(workers)
        .with_max_connections(max_conns)
        .with_stats(service.edge.edge_stats())
        .with_observer(handle.observer_shared());
    let proxy_server =
        EdgeServer::bind(&format!("127.0.0.1:{port}"), service, edge_config).expect("proxy binds");
    println!(
        "proxy  listening on http://{} (edge reactor: {} threads total, \
         {max_conns} connection cap, {} cache shards)\n",
        proxy_server.addr(),
        proxy_server.thread_count(),
        handle.shard_count()
    );

    // The failure detector's heartbeat: one protocol round every 250 ms
    // on the system clock (pings fire at the membership's own
    // `ping_interval`; the extra calls are one clock read each). Stops
    // at drain time so shutdown never races a ping.
    let gossip_stop = Arc::new(AtomicBool::new(false));
    let gossip_thread = fleet.clone().map(|fleet| {
        let stop = Arc::clone(&gossip_stop);
        std::thread::spawn(move || {
            let transport = HttpPeerTransport {
                fleet: Arc::clone(&fleet),
            };
            while !stop.load(Ordering::Relaxed) {
                std::thread::sleep(Duration::from_millis(250));
                let events = {
                    let mut m = fleet.lock_membership();
                    m.set_self_state(
                        fleet.handle.current_epoch(),
                        fleet.handle.breaker_shed_hint().is_some(),
                    );
                    m.tick(&transport)
                };
                fleet.apply(&events);
            }
        })
    });

    // 3. A browser-like client issues Radial form requests to the proxy
    //    over one keep-alive connection.
    let browser = HttpClient::new(proxy_server.addr());
    for (label, url) in [
        ("miss   ", "/search/radial?ra=185.0&dec=0.5&radius=20"),
        ("hit    ", "/search/radial?ra=185.0&dec=0.5&radius=20"),
        ("subsume", "/search/radial?ra=185.0&dec=0.5&radius=8"),
        ("sql    ", "/sql?cmd=SELECT+TOP+3+p.objID+FROM+fGetNearbyObjEq(185.0,+0.5,+20.0)+n+JOIN+PhotoPrimary+p+ON+n.objID+%3D+p.objID"),
    ] {
        let response = browser.get(url).expect("request succeeds");
        let doc = Element::parse(&response.body_text()).expect("XML body");
        let rows = ResultSet::from_xml(&doc).expect("result document").len();
        println!(
            "{label} {url}\n        -> {} rows, outcome: {}",
            rows,
            response.headers.get("X-Cache-Outcome").unwrap_or("n/a"),
        );
    }

    // 4. Eight concurrent browsers ask the same cold question at once;
    //    the single-flight runtime answers all of them with one origin
    //    fetch.
    println!("\n8 concurrent clients, identical cold query:");
    let burst_url = "/search/radial?ra=186.5&dec=-0.5&radius=15";
    std::thread::scope(|scope| {
        for _ in 0..8 {
            let addr = proxy_server.addr();
            scope.spawn(move || {
                let client = HttpClient::new(addr);
                client.get(burst_url).expect("burst request succeeds");
            });
        }
    });
    let runtime = handle.runtime_stats();
    println!(
        "   requests: {}, flights led: {}, duplicate fetches avoided: {}",
        runtime.requests, runtime.flights_led, runtime.duplicate_fetches_avoided
    );

    let stats = handle.cache_stats();
    println!(
        "\nproxy cache: {} entries, {:.1} KB across {} shards",
        stats.entries,
        stats.bytes as f64 / 1024.0,
        handle.shard_count()
    );
    if slab_dir.is_some() {
        println!(
            "disk tier:   {} demoted entries, {:.1} KB slab \
             ({} demotions, {} promotions, {} disk hits)",
            stats.disk_entries,
            stats.slab_bytes as f64 / 1024.0,
            stats.demotions,
            stats.promotions,
            handle.runtime_stats().disk_hits,
        );
    }

    if serve {
        // SIGINT/SIGTERM set the flag instead of killing the process
        // (installed at startup; `/readyz` watches the same flag), so
        // the drain below always runs.
        println!(
            "\nserving until interrupted: curl http://{0}/metrics, \
             curl http://{0}/debug/trace?format=jsonl",
            proxy_server.addr()
        );
        while !interrupted.load(Ordering::Relaxed) {
            std::thread::sleep(Duration::from_millis(100));
        }
        println!("\ninterrupt received; draining…");
    }

    // Graceful shutdown: stop accepting, let in-flight requests finish,
    // then quiesce background revalidations so no origin fetch is
    // abandoned mid-flight. The gossip thread stops first — peers will
    // suspect this node and fail its slots over, which is exactly what
    // a drain means fleet-wide.
    gossip_stop.store(true, Ordering::Relaxed);
    if let Some(thread) = gossip_thread {
        let _ = thread.join();
    }
    let snap = proxy_server.stats();
    proxy_server.shutdown_graceful(Duration::from_secs(5));
    handle.quiesce_revalidations();
    if slab_dir.is_some() {
        match handle.snapshot_now() {
            Ok(files) => println!("final .fpmeta pass: {files} shard files written"),
            Err(e) => eprintln!("final .fpmeta pass failed: {e}"),
        }
    }
    origin_server.shutdown();
    println!(
        "edge summary: {} requests ({} fast-path, {} offloaded, {} pipelined), \
         {} shed, {} connections ({} rejected at cap)",
        snap.requests,
        snap.fast_path,
        snap.offloaded,
        snap.pipelined,
        snap.shed_total(),
        snap.conns_accepted,
        snap.conns_rejected,
    );
    let runtime = handle.runtime_stats();
    println!(
        "servers stopped ({} requests served, {} cache entries retained).",
        runtime.requests,
        handle.cache_stats().entries
    );
}
