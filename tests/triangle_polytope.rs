//! The polytope path end to end: the paper lists the polytope as the most
//! general region shape its framework handles; this exercises one through
//! the whole stack — `fGetObjFromTriangle` at the origin, the triangle
//! function template at the proxy, caching included.

use fp_suite::proxy::template::TemplateManager;
use fp_suite::proxy::{CostModel, ProxyConfig, ProxyHandle, Scheme, SiteOrigin};
use fp_suite::skyserver::{Catalog, CatalogSpec, SkySite};
use std::sync::Arc;

fn proxy(site: &SkySite, scheme: Scheme) -> ProxyHandle {
    ProxyHandle::with_shards(
        TemplateManager::with_sky_defaults(),
        Arc::new(SiteOrigin::new(site.clone())),
        ProxyConfig::default()
            .with_scheme(scheme)
            .with_cost(CostModel::free()),
        1,
    )
}

fn tri_fields(v: [(f64, f64); 3]) -> Vec<(String, String)> {
    vec![
        ("ra1".to_string(), v[0].0.to_string()),
        ("dec1".to_string(), v[0].1.to_string()),
        ("ra2".to_string(), v[1].0.to_string()),
        ("dec2".to_string(), v[1].1.to_string()),
        ("ra3".to_string(), v[2].0.to_string()),
        ("dec3".to_string(), v[2].1.to_string()),
    ]
}

fn ids(result: &fp_suite::skyserver::ResultSet) -> Vec<i64> {
    let k = result.column_index("objID").unwrap();
    let mut out: Vec<i64> = result.rows.iter().map(|r| r[k].as_i64().unwrap()).collect();
    out.sort_unstable();
    out
}

#[test]
fn triangle_queries_cache_and_answer_correctly() {
    let site = SkySite::new(Catalog::generate(&CatalogSpec::small_test()));
    let p = proxy(&site, Scheme::FullSemantic);

    // A CCW triangle over the dense stripe.
    let big = [(184.0, -0.5), (186.5, -0.5), (185.2, 1.0)];
    let a = p
        .handle_form("/search/triangle", &tri_fields(big))
        .expect("first");
    assert_eq!(a.metrics.outcome.label(), "forwarded");
    assert!(!a.result.is_empty(), "triangle covers populated sky");

    // Exact repeat.
    let b = p
        .handle_form("/search/triangle", &tri_fields(big))
        .expect("repeat");
    assert_eq!(b.metrics.outcome.label(), "exact");
    assert_eq!(ids(&b.result), ids(&a.result));

    // A smaller triangle well inside the big one (shrunk toward its
    // centroid) must be answered locally, and identically to the origin.
    let centroid = (
        (big[0].0 + big[1].0 + big[2].0) / 3.0,
        (big[0].1 + big[1].1 + big[2].1) / 3.0,
    );
    let shrink = |v: (f64, f64)| {
        (
            centroid.0 + (v.0 - centroid.0) * 0.35,
            centroid.1 + (v.1 - centroid.1) * 0.35,
        )
    };
    let small = [shrink(big[0]), shrink(big[1]), shrink(big[2])];
    let c = p
        .handle_form("/search/triangle", &tri_fields(small))
        .expect("subsumed");
    assert_eq!(
        c.metrics.outcome.label(),
        "contained",
        "small triangle's bbox lies inside the big triangle, so the \
         conservative polytope check must prove containment"
    );
    let oracle = proxy(&site, Scheme::NoCache);
    let truth = oracle
        .handle_form("/search/triangle", &tri_fields(small))
        .expect("oracle");
    assert_eq!(ids(&c.result), ids(&truth.result));
    assert!(!c.result.is_empty());
}

#[test]
fn clockwise_triangles_are_rejected_consistently() {
    let site = SkySite::new(Catalog::generate(&CatalogSpec::small_test()));
    let p = proxy(&site, Scheme::FullSemantic);
    // Clockwise winding: the origin rejects it; the proxy surfaces that.
    let cw = [(184.0, -0.5), (185.2, 1.0), (186.5, -0.5)];
    let r = p.handle_form("/search/triangle", &tri_fields(cw));
    assert!(r.is_err(), "clockwise triangle must be rejected");
}

#[test]
fn disjoint_triangles_do_not_interfere() {
    let site = SkySite::new(Catalog::generate(&CatalogSpec::small_test()));
    let p = proxy(&site, Scheme::FullSemantic);
    let left = [(181.0, -1.0), (182.5, -1.0), (181.7, 0.5)];
    let right = [(187.0, -1.0), (188.5, -1.0), (187.7, 0.5)];
    let a = p
        .handle_form("/search/triangle", &tri_fields(left))
        .expect("left");
    let b = p
        .handle_form("/search/triangle", &tri_fields(right))
        .expect("right");
    assert_eq!(a.metrics.outcome.label(), "forwarded");
    assert_eq!(b.metrics.outcome.label(), "forwarded");
    // No object can be in both.
    let ia = ids(&a.result);
    let ib = ids(&b.result);
    assert!(ia.iter().all(|id| !ib.contains(id)));
}
