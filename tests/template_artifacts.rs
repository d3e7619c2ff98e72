//! Registering a web site's artifacts from their *textual* XML/SQL forms —
//! the full path a real deployment would take: XML function template text
//! → parse → register; SQL template text → parse → register; XML info file
//! text → parse → register; then resolve and serve form queries through a
//! proxy built from those artifacts only.

use fp_suite::proxy::template::{
    FunctionTemplate, InfoFile, RegisteredQueryTemplate, TemplateManager,
};
use fp_suite::proxy::{CostModel, ProxyConfig, ProxyHandle, Scheme, SiteOrigin};
use fp_suite::skyserver::{Catalog, CatalogSpec, SkySite};
use fp_suite::sqlmini::QueryTemplate;
use fp_suite::xmlite::Element;
use std::sync::Arc;

const FUNCTION_TEMPLATE_XML: &str = r#"
<FunctionTemplate>
    <Name>fGetNearbyObjEq</Name>
    <Params><P>ra</P><P>dec</P><P>radius</P></Params>
    <Shape>hypersphere</Shape>
    <NumDimensions>3</NumDimensions>
    <CenterCoordinate>
        <C>cos($ra)*cos($dec)</C>
        <C>sin($ra)*cos($dec)</C>
        <C>sin($dec)</C>
    </CenterCoordinate>
    <Radius>2.0*sin($radius/120.0)</Radius>
</FunctionTemplate>"#;

const QUERY_TEMPLATE_SQL: &str = "SELECT p.objID, p.ra, p.dec, p.cx, p.cy, p.cz, p.r \
     FROM fGetNearbyObjEq($ra, $dec, $radius) n \
     JOIN PhotoPrimary p ON n.objID = p.objID \
     WHERE p.r < $maxmag";

const INFO_FILE_XML: &str = r#"
<InfoFile>
    <FormPath>/cone</FormPath>
    <QueryTemplate>cone</QueryTemplate>
    <Field name="ra" param="ra"/>
    <Field name="dec" param="dec"/>
    <Field name="sr" param="radius"/>
    <Default param="maxmag">22.5</Default>
</InfoFile>"#;

fn manager_from_artifacts() -> TemplateManager {
    let mut m = TemplateManager::new();
    let func = FunctionTemplate::from_xml(&Element::parse(FUNCTION_TEMPLATE_XML).unwrap())
        .expect("function template parses");
    m.register_function(func).expect("function registers");

    let qt = QueryTemplate::parse("cone", QUERY_TEMPLATE_SQL).expect("query template parses");
    let reg = RegisteredQueryTemplate::new(
        qt,
        vec!["cx".into(), "cy".into(), "cz".into()],
        "p",
        "objID",
    )
    .expect("registration checks pass");
    m.register_query(reg).expect("query registers");

    let info =
        InfoFile::from_xml(&Element::parse(INFO_FILE_XML).unwrap()).expect("info file parses");
    m.register_info(info).expect("info registers");
    m
}

#[test]
fn artifact_registration_resolves_and_serves() {
    let manager = manager_from_artifacts();

    // Resolution maps the renamed form field `sr` to `radius` and fills
    // the `maxmag` default.
    let bound = manager
        .resolve_form(
            "/cone",
            &[
                ("ra".to_string(), "185.0".to_string()),
                ("dec".to_string(), "0.5".to_string()),
                ("sr".to_string(), "15".to_string()),
            ],
        )
        .expect("form resolves");
    assert!(bound.sql.contains("p.r < 22.5"));
    assert!(bound.sql.contains("fGetNearbyObjEq(185.0, 0.5, 15)"));
    assert_eq!(bound.region.shape_name(), "hypersphere");

    // And the proxy built on these artifacts serves with active caching.
    let site = SkySite::new(Catalog::generate(&CatalogSpec::small_test()));
    let proxy = ProxyHandle::with_shards(
        manager,
        Arc::new(SiteOrigin::new(site)),
        ProxyConfig::default()
            .with_scheme(Scheme::FullSemantic)
            .with_cost(CostModel::free()),
        1,
    );
    let fields = |sr: &str| {
        vec![
            ("ra".to_string(), "185.0".to_string()),
            ("dec".to_string(), "0.5".to_string()),
            ("sr".to_string(), sr.to_string()),
        ]
    };
    let big = proxy
        .handle_form("/cone", &fields("15"))
        .expect("first query");
    let small = proxy
        .handle_form("/cone", &fields("6"))
        .expect("second query");
    assert_eq!(big.metrics.outcome.label(), "forwarded");
    assert_eq!(small.metrics.outcome.label(), "contained");
    assert!(small.result.len() <= big.result.len());

    // Every returned row satisfies the default predicate.
    let r_idx = big.result.column_index("r").expect("r projected");
    for row in big.result.rows.iter().chain(&small.result.rows) {
        assert!(row[r_idx].as_f64().unwrap() < 22.5);
    }
}

#[test]
fn artifacts_roundtrip_through_their_xml_forms() {
    let func = FunctionTemplate::from_xml(&Element::parse(FUNCTION_TEMPLATE_XML).unwrap()).unwrap();
    let func2 = FunctionTemplate::from_xml(&func.to_xml()).unwrap();
    assert_eq!(func, func2);

    let info = InfoFile::from_xml(&Element::parse(INFO_FILE_XML).unwrap()).unwrap();
    let info2 = InfoFile::from_xml(&info.to_xml()).unwrap();
    assert_eq!(info, info2);
    assert_eq!(info.field_map[2], ("sr".to_string(), "radius".to_string()));
    assert_eq!(info.defaults[0], ("maxmag".to_string(), "22.5".to_string()));
}

#[test]
fn different_maxmag_values_live_in_separate_residual_groups() {
    // Two users with different magnitude limits must never share cached
    // results: a contained region with a *looser* predicate would return
    // wrong extra rows.
    let mut manager = manager_from_artifacts();
    // A second form with a different default.
    let mut info = InfoFile::identity("/cone_deep", "cone", &["ra", "dec", "radius"]);
    info.defaults.push(("maxmag".into(), "20.0".into()));
    manager.register_info(info).expect("second info registers");

    let site = SkySite::new(Catalog::generate(&CatalogSpec::small_test()));
    let proxy = ProxyHandle::with_shards(
        manager,
        Arc::new(SiteOrigin::new(site)),
        ProxyConfig::default()
            .with_scheme(Scheme::FullSemantic)
            .with_cost(CostModel::free()),
        1,
    );
    let fields = vec![
        ("ra".to_string(), "185.0".to_string()),
        ("dec".to_string(), "0.5".to_string()),
        ("sr".to_string(), "12".to_string()),
    ];
    let deep_fields = vec![
        ("ra".to_string(), "185.0".to_string()),
        ("dec".to_string(), "0.5".to_string()),
        ("radius".to_string(), "12".to_string()),
    ];
    let shallow = proxy.handle_form("/cone", &fields).expect("shallow");
    // Identical region, different maxmag → must NOT be an exact hit.
    let deep = proxy.handle_form("/cone_deep", &deep_fields).expect("deep");
    assert_eq!(shallow.metrics.outcome.label(), "forwarded");
    assert_eq!(deep.metrics.outcome.label(), "forwarded");
    assert!(deep.result.len() <= shallow.result.len());
}
