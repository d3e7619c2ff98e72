//! End-to-end over real sockets: origin site behind the edge server,
//! proxy reaching it through an HTTP-backed `Origin`, assertions on both
//! the answers and which hops each query took.

use fp_suite::edge::{EdgeConfig, EdgeServer};
use fp_suite::httpd::{HttpClient, Request, Response, Router, Status};
use fp_suite::proxy::template::TemplateManager;
use fp_suite::proxy::{CostModel, Origin, OriginError, ProxyConfig, ProxyHandle, Scheme};
use fp_suite::skyserver::result::QueryOutcome;
use fp_suite::skyserver::{Catalog, CatalogSpec, ExecStats, ResultSet, SkySite};
use fp_suite::sqlmini::Query;
use fp_suite::xmlite::Element;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

/// Origin HTTP facade: `GET /sql?cmd=<sql>` → XML result document.
fn origin_router(site: SkySite, hits: Arc<AtomicUsize>) -> Router {
    Router::new().route("/sql", move |req: &Request| {
        hits.fetch_add(1, Ordering::SeqCst);
        let Some((_, sql)) = req.query_params().into_iter().find(|(k, _)| k == "cmd") else {
            return Response::error(Status::BAD_REQUEST, "missing cmd");
        };
        match site.execute_sql(&sql) {
            Ok(outcome) => {
                let mut resp = Response::ok("text/xml", outcome.result.to_xml().to_xml());
                resp.headers
                    .set("X-Rows-Scanned", outcome.stats.rows_scanned.to_string());
                resp
            }
            Err(e) => Response::error(Status::BAD_REQUEST, &e.to_string()),
        }
    })
}

/// The origin router on an ephemeral port; a router runs on the workers.
fn serve_origin(site: SkySite, hits: &Arc<AtomicUsize>) -> EdgeServer {
    EdgeServer::bind(
        "127.0.0.1:0",
        Arc::new(origin_router(site, Arc::clone(hits))),
        EdgeConfig::default().with_workers(2),
    )
    .expect("origin binds")
}

struct HttpOrigin {
    client: HttpClient,
}

impl Origin for HttpOrigin {
    fn execute(&self, query: &Query) -> Result<QueryOutcome, OriginError> {
        let url = format!(
            "/sql?cmd={}",
            fp_suite::httpd::urlenc::encode_component(&query.to_sql())
        );
        let response = self
            .client
            .get(&url)
            .map_err(|e| OriginError::Unavailable(e.to_string()))?;
        if !response.status.is_success() {
            return Err(OriginError::Rejected(response.body_text()));
        }
        let doc = Element::parse(&response.body_text())
            .map_err(|e| OriginError::Rejected(e.to_string()))?;
        let result = ResultSet::from_xml(&doc)
            .ok_or_else(|| OriginError::Rejected("malformed result".into()))?;
        let rows = result.len();
        Ok(QueryOutcome {
            result,
            stats: ExecStats {
                rows_scanned: response
                    .headers
                    .get("X-Rows-Scanned")
                    .and_then(|v| v.parse().ok())
                    .unwrap_or(0),
                rows_returned: rows,
                result_bytes: response.body.len(),
            },
        })
    }
}

#[test]
fn proxy_over_http_origin_caches_and_answers_identically() {
    let site = SkySite::new(Catalog::generate(&CatalogSpec::small_test()));
    let origin_hits = Arc::new(AtomicUsize::new(0));
    let server = serve_origin(site.clone(), &origin_hits);

    let proxy = ProxyHandle::with_shards(
        TemplateManager::with_sky_defaults(),
        Arc::new(HttpOrigin {
            client: HttpClient::new(server.addr()),
        }),
        ProxyConfig::default()
            .with_scheme(Scheme::FullSemantic)
            .with_cost(CostModel::free()),
        1,
    );

    let fields = |radius: &str| {
        vec![
            ("ra".to_string(), "185.0".to_string()),
            ("dec".to_string(), "0.5".to_string()),
            ("radius".to_string(), radius.to_string()),
        ]
    };

    // Miss → one HTTP round trip to the origin.
    let a = proxy
        .handle_form("/search/radial", &fields("20"))
        .expect("miss");
    assert_eq!(origin_hits.load(Ordering::SeqCst), 1);
    assert!(!a.result.is_empty());

    // Exact hit → zero additional origin traffic.
    let b = proxy
        .handle_form("/search/radial", &fields("20"))
        .expect("hit");
    assert_eq!(origin_hits.load(Ordering::SeqCst), 1);
    assert_eq!(b.result.rows.len(), a.result.rows.len());

    // Contained → still zero origin traffic, and the answer equals a
    // direct origin execution of the same query (XML round trip included).
    let c = proxy
        .handle_form("/search/radial", &fields("8"))
        .expect("contained");
    assert_eq!(origin_hits.load(Ordering::SeqCst), 1);
    assert_eq!(c.metrics.outcome.label(), "contained");
    let direct = site
        .execute_sql(
            "SELECT p.objID, p.ra, p.dec, p.cx, p.cy, p.cz, p.u, p.g, p.r, p.i, p.z \
             FROM fGetNearbyObjEq(185.0, 0.5, 8.0) n JOIN PhotoPrimary p ON n.objID = p.objID",
        )
        .expect("direct execution");
    let key = |rs: &ResultSet| -> Vec<i64> {
        let k = rs.column_index("objID").unwrap();
        let mut ids: Vec<i64> = rs.rows.iter().map(|r| r[k].as_i64().unwrap()).collect();
        ids.sort_unstable();
        ids
    };
    assert_eq!(key(&c.result), key(&direct.result));

    // Overlap → exactly one more origin round trip (the remainder query).
    let d = proxy
        .handle_form(
            "/search/radial",
            &[
                ("ra".to_string(), "185.4".to_string()),
                ("dec".to_string(), "0.5".to_string()),
                ("radius".to_string(), "15".to_string()),
            ],
        )
        .expect("overlap");
    assert_eq!(d.metrics.outcome.label(), "overlap");
    assert_eq!(origin_hits.load(Ordering::SeqCst), 2);

    server.shutdown();
}

#[test]
fn byte_serving_matches_row_serving_over_http() {
    let site = SkySite::new(Catalog::generate(&CatalogSpec::small_test()));
    let origin_hits = Arc::new(AtomicUsize::new(0));
    let server = serve_origin(site, &origin_hits);

    let handle = ProxyHandle::with_shards(
        TemplateManager::with_sky_defaults(),
        Arc::new(HttpOrigin {
            client: HttpClient::new(server.addr()),
        }),
        ProxyConfig::default()
            .with_scheme(Scheme::FullSemantic)
            .with_cost(CostModel::free()),
        4,
    );

    let fields = |radius: &str| {
        vec![
            ("ra".to_string(), "185.0".to_string()),
            ("dec".to_string(), "0.5".to_string()),
            ("radius".to_string(), radius.to_string()),
        ]
    };

    // Miss: the byte front serializes the forwarded rows.
    let miss = handle
        .handle_form_xml("/search/radial", &fields("20"))
        .expect("miss");
    assert_eq!(miss.metrics.outcome.label(), "forwarded");
    let doc = Element::parse(std::str::from_utf8(&miss.body).unwrap()).expect("well-formed body");
    assert!(!ResultSet::from_xml(&doc)
        .expect("result document")
        .is_empty());

    // Exact hit: the body is copied straight out of the entry's
    // pre-serialized slab — and must be byte-identical to the miss body.
    let hit = handle
        .handle_form_xml("/search/radial", &fields("20"))
        .expect("hit");
    assert_eq!(hit.metrics.outcome.label(), "exact");
    assert_eq!(hit.body, miss.body);
    assert_eq!(origin_hits.load(Ordering::SeqCst), 1);

    // Contained hit: assembled from per-row spans after micro-index
    // pruning; byte-identical to serializing the row response.
    let rows = handle
        .handle_form("/search/radial", &fields("8"))
        .expect("contained rows");
    assert_eq!(rows.metrics.outcome.label(), "contained");
    let bytes = handle
        .handle_form_xml("/search/radial", &fields("8"))
        .expect("contained bytes");
    assert_eq!(bytes.metrics.outcome.label(), "contained");
    assert_eq!(bytes.body, rows.result.to_xml_string().into_bytes());
    // Every selected row was among the scanned candidates.
    assert!(bytes.metrics.rows_scanned >= bytes.metrics.rows_total);
    assert_eq!(origin_hits.load(Ordering::SeqCst), 1);

    server.shutdown();
}

#[test]
fn dead_origin_surfaces_as_unavailable() {
    let proxy = ProxyHandle::with_shards(
        TemplateManager::with_sky_defaults(),
        Arc::new(HttpOrigin {
            // Nothing listens on port 1.
            client: HttpClient::new("127.0.0.1:1".parse().unwrap())
                .with_timeout(std::time::Duration::from_millis(200)),
        }),
        ProxyConfig::default().with_scheme(Scheme::FullSemantic),
        1,
    );
    let err = proxy
        .handle_form(
            "/search/radial",
            &[
                ("ra".to_string(), "185.0".to_string()),
                ("dec".to_string(), "0.5".to_string()),
                ("radius".to_string(), "5".to_string()),
            ],
        )
        .expect_err("origin is down");
    assert!(err.to_string().contains("origin"), "{err}");
}
