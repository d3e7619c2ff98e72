use crate::metrics::Outcome;
use crate::origin::SiteOrigin;
use crate::runtime::{ProxyHandle, ProxyResponse};
use crate::schemes::Scheme;
use crate::sim::CostModel;
use crate::template::TemplateManager;
use crate::ProxyConfig;
use fp_skyserver::{Catalog, CatalogSpec, SkySite};
use std::sync::Arc;

/// The proxy under `scheme`, its whole cache in one shard, in front of
/// the small test catalog, with the free cost model.
fn proxy(scheme: Scheme) -> ProxyHandle {
    let site = SkySite::new(Catalog::generate(&CatalogSpec::small_test()));
    ProxyHandle::with_shards(
        TemplateManager::with_sky_defaults(),
        Arc::new(SiteOrigin::new(site)),
        ProxyConfig::default()
            .with_scheme(scheme)
            .with_cost(CostModel::free()),
        1,
    )
}

fn radial(p: &ProxyHandle, ra: f64, dec: f64, radius: f64) -> ProxyResponse {
    p.handle_form(
        "/search/radial",
        &[
            ("ra".to_string(), ra.to_string()),
            ("dec".to_string(), dec.to_string()),
            ("radius".to_string(), radius.to_string()),
        ],
    )
    .unwrap()
}

fn ids_of(r: &ProxyResponse) -> Vec<i64> {
    let k = r.result.column_index("objID").unwrap();
    let mut ids: Vec<i64> = r
        .result
        .rows
        .iter()
        .map(|row| row[k].as_i64().unwrap())
        .collect();
    ids.sort_unstable();
    ids
}

#[test]
fn no_cache_always_forwards() {
    let p = proxy(Scheme::NoCache);
    let a = radial(&p, 185.0, 0.0, 20.0);
    let b = radial(&p, 185.0, 0.0, 20.0);
    assert_eq!(a.metrics.outcome, Outcome::Forwarded);
    assert_eq!(b.metrics.outcome, Outcome::Forwarded);
    assert_eq!(p.cache_stats().entries, 0);
    assert_eq!(ids_of(&a), ids_of(&b));
}

#[test]
fn passive_hits_only_exact_text() {
    let p = proxy(Scheme::Passive);
    let a = radial(&p, 185.0, 0.0, 20.0);
    assert_eq!(a.metrics.outcome, Outcome::Forwarded);
    let b = radial(&p, 185.0, 0.0, 20.0);
    assert_eq!(b.metrics.outcome, Outcome::Exact);
    assert_eq!(b.metrics.cache_efficiency(), 1.0);
    assert_eq!(ids_of(&a), ids_of(&b));
    // A subsumed query is a passive miss.
    let c = radial(&p, 185.0, 0.0, 10.0);
    assert_eq!(c.metrics.outcome, Outcome::Forwarded);
}

#[test]
fn active_answers_contained_queries_locally() {
    let p = proxy(Scheme::ContainmentOnly);
    let big = radial(&p, 185.0, 0.0, 25.0);
    assert_eq!(big.metrics.outcome, Outcome::Forwarded);

    let small = radial(&p, 185.0, 0.0, 10.0);
    assert_eq!(small.metrics.outcome, Outcome::Contained);
    assert_eq!(small.metrics.cache_efficiency(), 1.0);

    // The locally evaluated answer must equal the origin's.
    let oracle = proxy(Scheme::NoCache);
    let truth = radial(&oracle, 185.0, 0.0, 10.0);
    assert_eq!(ids_of(&small), ids_of(&truth));
    assert!(
        !small.result.is_empty(),
        "hotspot region should be populated"
    );
}

#[test]
fn full_semantic_merges_overlap_correctly() {
    let p = proxy(Scheme::FullSemantic);
    radial(&p, 185.0, 0.0, 20.0);
    let o = radial(&p, 185.0 + 25.0 / 60.0, 0.0, 15.0);
    assert_eq!(o.metrics.outcome, Outcome::Overlap);
    assert!(o.metrics.rows_from_cache > 0, "probe should contribute");
    assert!(o.metrics.cache_efficiency() > 0.0 && o.metrics.cache_efficiency() < 1.0);

    let oracle = proxy(Scheme::NoCache);
    let truth = radial(&oracle, 185.0 + 25.0 / 60.0, 0.0, 15.0);
    assert_eq!(ids_of(&o), ids_of(&truth));
}

#[test]
fn region_containment_merges_and_compacts() {
    let p = proxy(Scheme::RegionContainment);
    radial(&p, 185.0 - 10.0 / 60.0, 0.0, 8.0);
    radial(&p, 185.0 + 10.0 / 60.0, 0.0, 8.0);
    assert_eq!(p.cache_stats().entries, 2);

    let big = radial(&p, 185.0, 0.0, 40.0);
    assert_eq!(big.metrics.outcome, Outcome::RegionContainment);
    assert!(big.metrics.rows_from_cache > 0);
    // The two subsumed entries were replaced by the one merged entry.
    assert_eq!(p.cache_stats().entries, 1);
    assert_eq!(p.cache_stats().compactions, 2);

    let oracle = proxy(Scheme::NoCache);
    let truth = radial(&oracle, 185.0, 0.0, 40.0);
    assert_eq!(ids_of(&big), ids_of(&truth));

    // The merged entry now answers subsumed queries.
    let small = radial(&p, 185.0, 0.0, 12.0);
    assert_eq!(small.metrics.outcome, Outcome::Contained);
    let truth = radial(&oracle, 185.0, 0.0, 12.0);
    assert_eq!(ids_of(&small), ids_of(&truth));
}

#[test]
fn raw_sql_matching_a_template_gets_active_caching() {
    let p = proxy(Scheme::FullSemantic);
    let sql = "SELECT p.objID, p.ra, p.dec, p.cx, p.cy, p.cz, p.u, p.g, p.r, p.i, p.z \
               FROM fGetNearbyObjEq(185.0, 0.0, 20.0) n \
               JOIN PhotoPrimary p ON n.objID = p.objID";
    let a = p.handle_sql(sql).unwrap();
    assert_eq!(a.metrics.outcome, Outcome::Forwarded);
    let b = p.handle_sql(sql).unwrap();
    assert_eq!(b.metrics.outcome, Outcome::Exact);
}

#[test]
fn raw_sql_without_template_is_forwarded_uncached() {
    let p = proxy(Scheme::FullSemantic);
    let sql = "SELECT TOP 3 p.objID FROM fGetNearbyObjEq(185.0, 0.0, 20.0) n \
               JOIN PhotoPrimary p ON n.objID = p.objID WHERE p.r < 19.0";
    let a = p.handle_sql(sql).unwrap();
    assert_eq!(a.metrics.outcome, Outcome::Forwarded);
    assert_eq!(p.cache_stats().entries, 0);
    let b = p.handle_sql(sql).unwrap();
    assert_eq!(b.metrics.outcome, Outcome::Forwarded);
}

#[test]
fn metrics_breakdown_is_consistent() {
    let p = proxy(Scheme::FullSemantic);
    let a = radial(&p, 185.0, 0.0, 20.0);
    assert!(a.metrics.response_ms >= a.metrics.proxy_ms);
    assert!((a.metrics.response_ms - a.metrics.sim_ms - a.metrics.proxy_ms).abs() < 1e-9);
    assert_eq!(a.metrics.rows_total, a.result.len());
}
