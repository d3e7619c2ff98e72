//! Property-based proxy oracle: for *arbitrary* interleavings of radial
//! and rectangular form queries (not just trace-generator output), every
//! active scheme must answer exactly like the no-cache proxy.

use fp_suite::proxy::cache::DescriptionKind;
use fp_suite::proxy::template::TemplateManager;
use fp_suite::proxy::{CostModel, ProxyConfig, ProxyHandle, Scheme, SiteOrigin};
use fp_suite::skyserver::{Catalog, CatalogSpec, SkySite};
use proptest::prelude::*;
use std::sync::OnceLock;

fn site() -> &'static SkySite {
    static SITE: OnceLock<SkySite> = OnceLock::new();
    SITE.get_or_init(|| {
        SkySite::new(Catalog::generate(&CatalogSpec {
            seed: 5,
            objects: 12_000,
            ..CatalogSpec::default()
        }))
    })
}

#[derive(Debug, Clone)]
enum FormQuery {
    Radial { ra: f64, dec: f64, radius: f64 },
    Rect { ra: f64, dec: f64, w: f64, h: f64 },
}

impl FormQuery {
    fn request(&self) -> (&'static str, Vec<(String, String)>) {
        match self {
            FormQuery::Radial { ra, dec, radius } => (
                "/search/radial",
                vec![
                    ("ra".to_string(), format!("{ra:.4}")),
                    ("dec".to_string(), format!("{dec:.4}")),
                    ("radius".to_string(), format!("{radius:.4}")),
                ],
            ),
            FormQuery::Rect { ra, dec, w, h } => (
                "/search/rect",
                vec![
                    ("min_ra".to_string(), format!("{:.4}", ra - w / 2.0)),
                    ("max_ra".to_string(), format!("{:.4}", ra + w / 2.0)),
                    ("min_dec".to_string(), format!("{:.4}", dec - h / 2.0)),
                    ("max_dec".to_string(), format!("{:.4}", dec + h / 2.0)),
                ],
            ),
        }
    }
}

/// Queries concentrated in a small patch so relationships actually occur.
fn arb_query() -> impl Strategy<Value = FormQuery> {
    prop_oneof![
        (184.5f64..185.5, -0.5f64..0.5, 1.0f64..25.0)
            .prop_map(|(ra, dec, radius)| FormQuery::Radial { ra, dec, radius }),
        (184.5f64..185.5, -0.5f64..0.5, 0.05f64..0.8, 0.05f64..0.6)
            .prop_map(|(ra, dec, w, h)| FormQuery::Rect { ra, dec, w, h }),
    ]
}

fn proxy(scheme: Scheme, desc: DescriptionKind, capacity: Option<usize>) -> ProxyHandle {
    ProxyHandle::with_shards(
        TemplateManager::with_sky_defaults(),
        std::sync::Arc::new(SiteOrigin::new(site().clone())),
        ProxyConfig::default()
            .with_scheme(scheme)
            .with_description(desc)
            .with_capacity(capacity)
            .with_cost(CostModel::free()),
        1,
    )
}

fn run(proxy: &ProxyHandle, queries: &[FormQuery]) -> Vec<Vec<i64>> {
    queries
        .iter()
        .map(|q| {
            let (path, fields) = q.request();
            let response = proxy.handle_form(path, &fields).expect("query resolves");
            let k = response.result.column_index("objID").expect("objID");
            let mut ids: Vec<i64> = response
                .result
                .rows
                .iter()
                .map(|row| row[k].as_i64().expect("int id"))
                .collect();
            ids.sort_unstable();
            ids
        })
        .collect()
}

/// Some queries may repeat to force exact matches: double a random prefix.
fn with_repeats(mut queries: Vec<FormQuery>) -> Vec<FormQuery> {
    let extra: Vec<FormQuery> = queries.iter().step_by(3).cloned().collect();
    queries.extend(extra);
    queries
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn schemes_match_oracle_on_arbitrary_sequences(
        queries in prop::collection::vec(arb_query(), 4..16),
    ) {
        let queries = with_repeats(queries);
        let oracle = run(
            &proxy(Scheme::NoCache, DescriptionKind::Array, None),
            &queries,
        );
        for scheme in [
            Scheme::Passive,
            Scheme::ContainmentOnly,
            Scheme::RegionContainment,
            Scheme::FullSemantic,
        ] {
            let got = run(&proxy(scheme, DescriptionKind::RTree, None), &queries);
            prop_assert_eq!(&got, &oracle, "scheme {} diverged", scheme);
        }
        // And once more under eviction pressure.
        let got = run(
            &proxy(Scheme::FullSemantic, DescriptionKind::Array, Some(32 * 1024)),
            &queries,
        );
        prop_assert_eq!(&got, &oracle, "tight cache diverged");
    }
}
