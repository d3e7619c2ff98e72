//! The origin over HTTP: the stand-in origin site's free-form SQL page
//! ([`origin_router`]) and the proxy's client for it ([`HttpOrigin`]),
//! the pair a deployment runs where the simulation uses the in-process
//! [`funcproxy::SiteOrigin`].
//!
//! The wire: `GET /sql?cmd=<urlencoded sql>` answers the XML result
//! document, with the execution statistics in `X-Rows-Scanned` and
//! `X-Rows-Returned`.

use fp_httpd::urlenc::encode_component;
use fp_httpd::{HttpClient, Request, Response, Router, Status};
use fp_skyserver::result::QueryOutcome;
use fp_skyserver::{ExecStats, ResultSet, SkySite};
use fp_sqlmini::Query;
use fp_xmlite::Element;
use funcproxy::{Origin, OriginError};

/// The origin web site's HTTP face: the free-form SQL page, returning
/// the XML result document plus execution statistics in response
/// headers. A router, so it runs on an [`crate::EdgeServer`]'s workers.
pub fn origin_router(site: SkySite) -> Router {
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

/// An [`Origin`] that reaches the origin site's SQL page over HTTP. The
/// keep-alive [`HttpClient`] reuses one origin connection across
/// fetches; a transport failure is [`OriginError::Unavailable`], a
/// non-2xx or unparseable reply [`OriginError::Rejected`].
pub struct HttpOrigin {
    client: HttpClient,
}

impl HttpOrigin {
    /// An origin reached through `client` (its address and timeouts).
    pub fn new(client: HttpClient) -> Self {
        HttpOrigin { client }
    }
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
