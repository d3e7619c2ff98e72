//! Multi-join templates: the paper's property (3) allows any
//! *semantics-preserving* joins around the embedded function — SkyServer's
//! real pages join photometry with spectroscopy. This registers a
//! TVF → PhotoPrimary → SpecObj template and verifies the proxy caches it
//! correctly (filtering joins commute with region selection, so local
//! evaluation of subsumed queries stays exact).

use fp_suite::proxy::template::{InfoFile, RegisteredQueryTemplate, TemplateManager};
use fp_suite::proxy::{CostModel, ProxyConfig, ProxyHandle, Scheme, SiteOrigin};
use fp_suite::skyserver::{Catalog, CatalogSpec, SkySite};
use fp_suite::sqlmini::QueryTemplate;
use std::sync::Arc;

const SPECTRO_TEMPLATE: &str =
    "SELECT p.objID, p.ra, p.dec, p.cx, p.cy, p.cz, s.z AS redshift, s.class \
     FROM fGetNearbyObjEq($ra, $dec, $radius) n \
     JOIN PhotoPrimary p ON n.objID = p.objID \
     JOIN SpecObj s ON s.objID = p.objID";

fn manager() -> TemplateManager {
    let mut m = TemplateManager::with_sky_defaults();
    let qt = QueryTemplate::parse("spectro", SPECTRO_TEMPLATE).expect("template parses");
    m.register_query(
        RegisteredQueryTemplate::new(
            qt,
            vec!["cx".into(), "cy".into(), "cz".into()],
            "p",
            "objID",
        )
        .expect("registration"),
    )
    .expect("registers");
    m.register_info(InfoFile::identity(
        "/search/spectro",
        "spectro",
        &["ra", "dec", "radius"],
    ))
    .expect("info registers");
    m
}

fn proxy(site: &SkySite, scheme: Scheme) -> ProxyHandle {
    ProxyHandle::with_shards(
        manager(),
        Arc::new(SiteOrigin::new(site.clone())),
        ProxyConfig::default()
            .with_scheme(scheme)
            .with_cost(CostModel::free()),
        1,
    )
}

fn fields(ra: f64, dec: f64, radius: f64) -> Vec<(String, String)> {
    vec![
        ("ra".to_string(), ra.to_string()),
        ("dec".to_string(), dec.to_string()),
        ("radius".to_string(), radius.to_string()),
    ]
}

fn ids(result: &fp_suite::skyserver::ResultSet) -> Vec<i64> {
    let k = result.column_index("objID").unwrap();
    let mut out: Vec<i64> = result.rows.iter().map(|r| r[k].as_i64().unwrap()).collect();
    out.sort_unstable();
    out
}

#[test]
fn spectro_template_caches_through_all_relationship_cases() {
    let site = SkySite::new(Catalog::generate(&CatalogSpec::small_test()));
    let p = proxy(&site, Scheme::FullSemantic);
    let oracle = proxy(&site, Scheme::NoCache);

    // Wide cone: miss, cached. (Spectra are ~15% of objects, so go wide.)
    let big = p
        .handle_form("/search/spectro", &fields(185.0, 0.0, 60.0))
        .unwrap();
    assert_eq!(big.metrics.outcome.label(), "forwarded");
    assert!(
        !big.result.is_empty(),
        "cone contains spectroscopic objects"
    );
    assert_eq!(
        big.result.columns,
        ["objID", "ra", "dec", "cx", "cy", "cz", "redshift", "class"]
    );

    // Subsumed cone answered locally and identically.
    let small = p
        .handle_form("/search/spectro", &fields(185.0, 0.0, 25.0))
        .unwrap();
    assert_eq!(small.metrics.outcome.label(), "contained");
    let truth = oracle
        .handle_form("/search/spectro", &fields(185.0, 0.0, 25.0))
        .unwrap();
    assert_eq!(ids(&small.result), ids(&truth.result));

    // Overlap: probe + remainder, still identical to the oracle.
    let over = p
        .handle_form("/search/spectro", &fields(185.0 + 70.0 / 60.0, 0.0, 30.0))
        .unwrap();
    assert_eq!(over.metrics.outcome.label(), "overlap");
    let truth = oracle
        .handle_form("/search/spectro", &fields(185.0 + 70.0 / 60.0, 0.0, 30.0))
        .unwrap();
    assert_eq!(ids(&over.result), ids(&truth.result));
}

#[test]
fn spectro_and_radial_templates_do_not_cross_answer() {
    // Identical spatial region, different templates: a cached spectro
    // result must not answer a radial query (different join → different
    // row set), and vice versa.
    let site = SkySite::new(Catalog::generate(&CatalogSpec::small_test()));
    let p = proxy(&site, Scheme::FullSemantic);
    let spectro = p
        .handle_form("/search/spectro", &fields(185.0, 0.0, 40.0))
        .unwrap();
    let radial = p
        .handle_form("/search/radial", &fields(185.0, 0.0, 40.0))
        .unwrap();
    assert_eq!(
        radial.metrics.outcome.label(),
        "forwarded",
        "no cross-template hit"
    );
    assert!(
        radial.result.len() > spectro.result.len(),
        "radial sees all objects, spectro only the spectroscopic subset"
    );
}
