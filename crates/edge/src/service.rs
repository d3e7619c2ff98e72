//! What the edge serves: the [`EdgeService`] contract between the
//! reactor and application logic, plus [`ProxyEdgeService`] — the
//! function proxy's HTTP face wired for the reactor/worker split.

use crate::fleet::Fleet;
use crate::stats::EdgeStats;
use fp_httpd::urlenc::parse_query_borrowed;
use fp_httpd::{Request, Response, Router, SharedTail, Status};
use funcproxy::observe::registry::render_prometheus;
use funcproxy::observe::Observer;
use funcproxy::{DocResponse, ProxyError, ProxyHandle, XmlBody};
use std::sync::Arc;

/// Application logic behind an [`crate::EdgeServer`].
///
/// The reactor calls [`EdgeService::try_fast`] inline on the event
/// loop; anything it declines is offloaded to a worker, which calls
/// [`EdgeService::handle`]. The contract: `try_fast` must never block —
/// no origin fetches, no flight waits, no file I/O — while `handle` may
/// block as long as it likes.
pub trait EdgeService: Send + Sync + 'static {
    /// Serves a request, blocking as needed. Runs on a worker thread.
    fn handle(&self, request: &Request) -> Response;

    /// Attempts to serve without blocking. Runs on the reactor thread;
    /// `None` offloads the request to [`EdgeService::handle`].
    fn try_fast(&self, _request: &Request) -> Option<Response> {
        None
    }

    /// Admission-control probe: `Some(retry_after_secs)` when the
    /// backend is saturated and new offloads should be shed. Runs on
    /// the reactor thread per offload — must be cheap.
    fn shed_hint(&self) -> Option<u64> {
        None
    }

    /// The edge counters and observe hub this service reports (on
    /// `/metrics`), if any. A server records into them unless its
    /// config names others, so what it counts is what the service
    /// renders.
    fn telemetry(&self) -> Option<(Arc<EdgeStats>, Arc<Observer>)> {
        None
    }
}

/// A plain [`Router`] serves everything on the workers — the drop-in
/// way to put an existing blocking app behind the reactor.
impl EdgeService for Router {
    fn handle(&self, request: &Request) -> Response {
        Router::handle(self, request)
    }
}

/// The function proxy behind the nonblocking edge: the paper's two entry
/// points (`/search/radial`, `/sql`) plus `/metrics`, `/debug/trace`
/// and the load balancer's `/healthz` and `/readyz`, with fresh cache
/// hits served straight off the reactor via
/// [`ProxyHandle::try_form_doc_cached`] and misses offloaded to the
/// worker pool. Either way a document that lies in a cache entry's row
/// slab leaves as ranges of it, not as a copy. The origin circuit
/// breaker doubles as the load-shedding signal.
///
/// Built for a [`Fleet`] ([`ProxyEdgeService::fleet_member`]), the
/// service is a fleet member: it serves the `/peer` route and sends
/// Radial misses through [`funcproxy::cluster::Node::serve_form`] (the
/// owner's cache before the origin). Every answer to a query, a
/// peer-served one included, is built by the same `*_response`
/// functions, so it carries one header set.
pub struct ProxyEdgeService {
    handle: ProxyHandle,
    edge_stats: Arc<EdgeStats>,
    fleet: Option<Arc<Fleet>>,
}

impl ProxyEdgeService {
    /// Wraps a shared proxy handle.
    pub fn new(handle: ProxyHandle) -> Self {
        ProxyEdgeService {
            handle,
            edge_stats: Arc::new(EdgeStats::default()),
            fleet: None,
        }
    }

    /// The HTTP face of a fleet member: [`Self::new`] over the member
    /// node's handle, plus the fleet's routes.
    pub fn fleet_member(fleet: Arc<Fleet>) -> Self {
        ProxyEdgeService {
            fleet: Some(Arc::clone(&fleet)),
            ..Self::new(fleet.node().handle().clone())
        }
    }

    /// The edge counter block this service appends to `/metrics`; a
    /// server bound over the service counts into it unless
    /// [`crate::EdgeConfig::with_stats`] names another.
    pub fn edge_stats(&self) -> Arc<EdgeStats> {
        Arc::clone(&self.edge_stats)
    }

    /// The Radial search form's response headers, identical on the fast
    /// and offloaded paths: cache outcome, coalescing and degradation
    /// flags, and the RFC 9111 staleness warning.
    pub(crate) fn radial_response(r: DocResponse) -> Response {
        // Every name and value is a static string but the one number.
        let flag = |b: bool| if b { "true" } else { "false" };
        let mut resp = Self::xml_response(r.body);
        let headers = &mut resp.headers;
        headers.set("X-Cache-Outcome", r.metrics.outcome.label());
        headers.set("X-Sim-Response-Ms", format!("{:.0}", r.metrics.response_ms));
        headers.set("X-Coalesced", flag(r.metrics.coalesced));
        headers.set("X-Degraded", flag(r.metrics.degraded));
        headers.set("X-Stale", flag(r.metrics.stale));
        if r.metrics.stale || r.metrics.degraded {
            // RFC 9111 §5.5: 110 = "Response is Stale".
            headers.set("Warning", "110 funcproxy \"Response is stale\"");
        }
        resp
    }

    /// A `200` carrying `body`: a slab document's header is the owned
    /// part of the body, its slab ranges and footer the lent tail.
    pub(crate) fn xml_response(body: XmlBody) -> Response {
        match body {
            XmlBody::Bytes(bytes) => Response::ok("text/xml", bytes),
            XmlBody::Doc(doc) => {
                let response = Response::ok("text/xml", doc.header());
                let (slab, ranges, footer) = doc.into_parts();
                response.with_tail(SharedTail::new(slab, ranges, footer))
            }
        }
    }

    /// A proxy error as the HTTP status the client should see: a
    /// transient origin failure is `503` with a `Retry-After` hint, a
    /// permanent rejection is `502`, anything else is the client's
    /// fault (`400`). `Retry-After` comes from
    /// [`ProxyHandle::retry_after_secs`].
    pub(crate) fn error_response(&self, error: &ProxyError) -> Response {
        match error {
            ProxyError::Origin(e) if e.is_transient() => {
                let mut resp = Response::error(Status::SERVICE_UNAVAILABLE, &error.to_string());
                if let Some(secs) = self.handle.retry_after_secs(error) {
                    resp.headers.set("Retry-After", secs.to_string());
                }
                resp
            }
            ProxyError::Origin(_) => Response::error(Status::BAD_GATEWAY, &error.to_string()),
            _ => Response::error(Status::BAD_REQUEST, &error.to_string()),
        }
    }

    fn sql_command(request: &Request) -> Option<String> {
        request
            .query_params()
            .into_iter()
            .find(|(k, _)| k == "cmd")
            .map(|(_, v)| v)
    }

    /// The operational routes, none of which blocks: liveness,
    /// readiness (a flag load and the breaker's shed hint) and a peer's
    /// cache-only owner probe. `None` for every other request, for a
    /// probe from a newer epoch (see [`Fleet::try_probe`]), and for the
    /// fleet's gossip and indirect-ping exchanges, which run on a worker.
    fn operational(&self, request: &Request) -> Option<Response> {
        match request.path.as_str() {
            "/healthz" => Some(Response::ok("text/plain", "ok")),
            "/readyz" => Some(self.readiness()),
            "/peer" => self.fleet.as_ref()?.try_probe(request),
            _ => None,
        }
    }

    /// `503` once a drain began (SIGINT/SIGTERM, see
    /// [`crate::sys::install_interrupt_flag`]) or while the origin
    /// circuit breaker is open (with a `Retry-After` hint): the signal a
    /// load balancer uses to eject a node without dropping in-flight
    /// requests.
    fn readiness(&self) -> Response {
        if crate::sys::interrupted() {
            return Response::error(Status::SERVICE_UNAVAILABLE, "draining");
        }
        if let Some(secs) = self.shed_hint() {
            let mut resp =
                Response::error(Status::SERVICE_UNAVAILABLE, "origin circuit breaker open");
            resp.headers.set("Retry-After", secs.to_string());
            return resp;
        }
        Response::ok("text/plain", "ready")
    }
}

impl EdgeService for ProxyEdgeService {
    fn handle(&self, request: &Request) -> Response {
        match request.path.as_str() {
            "/metrics" => {
                let mut text = self.handle.metrics_text();
                text.push_str(&render_prometheus(&self.edge_stats.snapshot()));
                Response::ok("text/plain; version=0.0.4; charset=utf-8", text)
            }
            "/debug/trace" => {
                let jsonl = request
                    .query_params()
                    .iter()
                    .any(|(k, v)| k == "format" && v == "jsonl");
                if jsonl {
                    Response::ok("application/x-ndjson", self.handle.trace_jsonl())
                } else {
                    Response::ok("application/json", self.handle.trace_chrome_json())
                }
            }
            "/search/radial" => {
                let fields = parse_query_borrowed(&request.query);
                if let Some(fleet) = &self.fleet {
                    return fleet.serve_radial(self, &fields);
                }
                match self.handle.handle_form_doc("/search/radial", &fields) {
                    Ok(r) => Self::radial_response(r),
                    Err(e) => self.error_response(&e),
                }
            }
            "/sql" => {
                let Some(sql) = Self::sql_command(request) else {
                    return Response::error(Status::BAD_REQUEST, "missing cmd parameter");
                };
                match self.handle.handle_sql_doc(&sql) {
                    Ok(r) => Self::xml_response(r.body),
                    Err(e) => self.error_response(&e),
                }
            }
            "/peer" => match &self.fleet {
                Some(fleet) => fleet.exchange(request),
                None => Response::error(Status::NOT_FOUND, "not a fleet member"),
            },
            _ => self
                .operational(request)
                .unwrap_or_else(|| Response::error(Status::NOT_FOUND, "no such route")),
        }
    }

    fn try_fast(&self, request: &Request) -> Option<Response> {
        match request.path.as_str() {
            "/search/radial" => {
                let fields = parse_query_borrowed(&request.query);
                self.handle
                    .try_form_doc_cached("/search/radial", &fields)
                    .map(Self::radial_response)
            }
            "/sql" => {
                let sql = Self::sql_command(request)?;
                self.handle
                    .try_sql_doc_cached(&sql)
                    .map(|r| Self::xml_response(r.body))
            }
            // /metrics and /debug/trace render whole documents; keep
            // that allocation churn off the reactor.
            _ => self.operational(request),
        }
    }

    fn shed_hint(&self) -> Option<u64> {
        self.handle.breaker_shed_hint()
    }

    fn telemetry(&self) -> Option<(Arc<EdgeStats>, Arc<Observer>)> {
        Some((self.edge_stats(), self.handle.observer_shared()))
    }
}
