//! End-to-end over real sockets: the origin site's SQL page behind the
//! edge server, the proxy reaching it through `fp_edge::HttpOrigin`
//! (the pair `examples/http_proxy.rs` runs), assertions on both the
//! answers and which hops each query took.

use fp_suite::edge::{origin_router, EdgeConfig, EdgeServer, HttpOrigin};
use fp_suite::httpd::HttpClient;
use fp_suite::proxy::template::TemplateManager;
use fp_suite::proxy::{CostModel, Origin, ProxyConfig, ProxyHandle, Scheme, SiteOrigin};
use fp_suite::skyserver::{Catalog, CatalogSpec, ResultSet, SkySite};
use fp_suite::xmlite::Element;
use std::sync::Arc;

/// The origin's SQL page on an ephemeral port; a router runs on the
/// workers. `site.load().queries` counts the round trips it served.
fn serve_origin(site: SkySite) -> EdgeServer {
    EdgeServer::bind(
        "127.0.0.1:0",
        Arc::new(origin_router(site)),
        EdgeConfig::default().with_workers(2),
    )
    .expect("origin binds")
}

fn http_origin(server: &EdgeServer) -> Arc<HttpOrigin> {
    Arc::new(HttpOrigin::new(HttpClient::new(server.addr())))
}

fn radial(ra: &str, dec: &str, radius: &str) -> Vec<(String, String)> {
    vec![
        ("ra".to_string(), ra.to_string()),
        ("dec".to_string(), dec.to_string()),
        ("radius".to_string(), radius.to_string()),
    ]
}

/// The client and the SQL page agree with the site they front: for
/// every cone, the rows `HttpOrigin` returns equal the no-cache oracle's
/// answer, and its `ExecStats` row counts equal what `SiteOrigin`
/// reports for the same query.
#[test]
fn http_origin_returns_the_rows_and_stats_of_the_site() {
    let site = SkySite::new(Catalog::generate(&CatalogSpec::small_test()));
    let server = serve_origin(site.clone());
    let http = http_origin(&server);
    let direct = SiteOrigin::new(site.clone());
    let oracle = ProxyHandle::with_shards(
        TemplateManager::with_sky_defaults(),
        Arc::new(SiteOrigin::new(site)),
        ProxyConfig::default()
            .with_scheme(Scheme::NoCache)
            .with_cost(CostModel::free()),
        1,
    );
    let templates = TemplateManager::with_sky_defaults();
    for (ra, dec, radius) in [
        ("185.0", "0.5", "20"),
        ("184.2", "-0.3", "6"),
        ("10", "80", "3"),
    ] {
        let fields = radial(ra, dec, radius);
        let query = templates
            .bind_form("/search/radial", &fields)
            .expect("binds")
            .complete()
            .query;
        let got = http.execute(&query).expect("origin answers over HTTP");
        let want = direct.execute(&query).expect("site answers");
        assert_eq!(
            got.stats.rows_scanned, want.stats.rows_scanned,
            "{fields:?}"
        );
        assert_eq!(
            got.stats.rows_returned, want.stats.rows_returned,
            "{fields:?}"
        );
        let expected = oracle.handle_form("/search/radial", &fields).unwrap();
        assert_eq!(got.result, *expected.result, "{fields:?}");
    }
    server.shutdown();
}

#[test]
fn proxy_over_http_origin_caches_and_answers_identically() {
    let site = SkySite::new(Catalog::generate(&CatalogSpec::small_test()));
    let server = serve_origin(site.clone());

    let proxy = ProxyHandle::with_shards(
        TemplateManager::with_sky_defaults(),
        http_origin(&server),
        ProxyConfig::default()
            .with_scheme(Scheme::FullSemantic)
            .with_cost(CostModel::free()),
        1,
    );

    let fields = |radius: &str| radial("185.0", "0.5", radius);

    // Miss → one HTTP round trip to the origin.
    let a = proxy
        .handle_form("/search/radial", &fields("20"))
        .expect("miss");
    assert_eq!(site.load().queries, 1);
    assert!(!a.result.is_empty());

    // Exact hit → zero additional origin traffic.
    let b = proxy
        .handle_form("/search/radial", &fields("20"))
        .expect("hit");
    assert_eq!(site.load().queries, 1);
    assert_eq!(b.result.rows.len(), a.result.rows.len());

    // Contained → still zero origin traffic, and the answer equals a
    // direct origin execution of the same query (XML round trip included).
    let c = proxy
        .handle_form("/search/radial", &fields("8"))
        .expect("contained");
    assert_eq!(site.load().queries, 1);
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

    // Overlap → exactly one more origin round trip (the remainder query;
    // the direct execution above counted one on the site as well).
    let d = proxy
        .handle_form("/search/radial", &radial("185.4", "0.5", "15"))
        .expect("overlap");
    assert_eq!(d.metrics.outcome.label(), "overlap");
    assert_eq!(site.load().queries, 3);

    server.shutdown();
}

#[test]
fn byte_serving_matches_row_serving_over_http() {
    let site = SkySite::new(Catalog::generate(&CatalogSpec::small_test()));
    let server = serve_origin(site.clone());

    let handle = ProxyHandle::with_shards(
        TemplateManager::with_sky_defaults(),
        http_origin(&server),
        ProxyConfig::default()
            .with_scheme(Scheme::FullSemantic)
            .with_cost(CostModel::free()),
        4,
    );

    let fields = |radius: &str| radial("185.0", "0.5", radius);

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
    assert_eq!(site.load().queries, 1);

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
    assert_eq!(site.load().queries, 1);

    server.shutdown();
}

#[test]
fn dead_origin_surfaces_as_unavailable() {
    let proxy = ProxyHandle::with_shards(
        TemplateManager::with_sky_defaults(),
        // Nothing listens on port 1.
        Arc::new(HttpOrigin::new(
            HttpClient::new("127.0.0.1:1".parse().unwrap())
                .with_timeout(std::time::Duration::from_millis(200)),
        )),
        ProxyConfig::default().with_scheme(Scheme::FullSemantic),
        1,
    );
    let err = proxy
        .handle_form("/search/radial", &radial("185.0", "0.5", "5"))
        .expect_err("origin is down");
    assert!(err.to_string().contains("origin"), "{err}");
}
