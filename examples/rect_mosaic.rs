//! Rectangular-search caching: tile a stripe of sky with `fGetObjFromRect`
//! queries, then answer arbitrary sub-rectangles from the cache — the 2-D
//! hyperrect counterpart of the Radial demo, showing that the same proxy
//! instance caches several templates (with separate cache descriptions)
//! at once.
//!
//! ```sh
//! cargo run --example rect_mosaic
//! ```

use fp_suite::proxy::template::TemplateManager;
use fp_suite::proxy::{CostModel, ProxyConfig, ProxyHandle, Scheme, SiteOrigin};
use fp_suite::skyserver::{Catalog, CatalogSpec, SkySite};
use std::sync::Arc;

fn rect_fields(min_ra: f64, max_ra: f64, min_dec: f64, max_dec: f64) -> Vec<(String, String)> {
    vec![
        ("min_ra".to_string(), min_ra.to_string()),
        ("max_ra".to_string(), max_ra.to_string()),
        ("min_dec".to_string(), min_dec.to_string()),
        ("max_dec".to_string(), max_dec.to_string()),
    ]
}

fn main() {
    let site = SkySite::new(Catalog::generate(&CatalogSpec::small_test()));
    let proxy = ProxyHandle::new(
        TemplateManager::with_sky_defaults(),
        Arc::new(SiteOrigin::new(site.clone())),
        ProxyConfig::default()
            .with_scheme(Scheme::FullSemantic)
            .with_cost(CostModel::free()),
    );

    // Phase 1: a survey script tiles a 2°×1° stripe as a 4×2 mosaic.
    println!("tiling the stripe ra∈[184,186] dec∈[0,1] as a 4x2 mosaic…");
    let (ra0, dec0) = (184.0, 0.0);
    for i in 0..4 {
        for j in 0..2 {
            let fields = rect_fields(
                ra0 + 0.5 * i as f64,
                ra0 + 0.5 * (i + 1) as f64,
                dec0 + 0.5 * j as f64,
                dec0 + 0.5 * (j + 1) as f64,
            );
            let r = proxy
                .handle_form("/search/rect", &fields)
                .expect("tile query");
            println!(
                "  tile ({i},{j}): {:>5} objects  [{}]",
                r.result.len(),
                r.metrics.outcome.label()
            );
        }
    }
    let after_tiling = site.load().queries;
    println!("origin queries so far: {after_tiling}");

    // Phase 2: interactive users ask for sub-windows; every one falls
    // inside a tile and is answered locally.
    println!("\nsub-window queries (each inside one tile):");
    for (min_ra, max_ra, min_dec, max_dec) in [
        (184.1, 184.4, 0.1, 0.4),
        (185.6, 185.9, 0.55, 0.95),
        (184.55, 184.95, 0.05, 0.45),
    ] {
        let r = proxy
            .handle_form(
                "/search/rect",
                &rect_fields(min_ra, max_ra, min_dec, max_dec),
            )
            .expect("sub-window query");
        println!(
            "  [{min_ra},{max_ra}]x[{min_dec},{max_dec}]: {:>4} objects  [{}] efficiency {:.2}",
            r.result.len(),
            r.metrics.outcome.label(),
            r.metrics.cache_efficiency()
        );
    }
    assert_eq!(
        site.load().queries,
        after_tiling,
        "sub-windows must not touch the origin"
    );

    // Phase 3: a window spanning two tiles — partial overlap, so the proxy
    // probes the tiles and fetches only the remainder.
    println!("\na window spanning two tiles (probe + remainder):");
    let r = proxy
        .handle_form("/search/rect", &rect_fields(184.3, 184.7, 0.1, 0.4))
        .expect("spanning query");
    println!(
        "  [184.3,184.7]x[0.1,0.4]: {:>4} objects  [{}] efficiency {:.2}",
        r.result.len(),
        r.metrics.outcome.label(),
        r.metrics.cache_efficiency()
    );

    // Radial queries continue to work side by side on the same proxy.
    let radial = proxy
        .handle_form(
            "/search/radial",
            &[
                ("ra".to_string(), "185.0".to_string()),
                ("dec".to_string(), "0.5".to_string()),
                ("radius".to_string(), "10".to_string()),
            ],
        )
        .expect("radial query");
    println!(
        "\nradial query on the same proxy: {} objects [{}]",
        radial.result.len(),
        radial.metrics.outcome.label()
    );

    let s = proxy.cache_stats();
    println!(
        "cache: {} entries, {:.1} KB across both templates",
        s.entries,
        s.bytes as f64 / 1024.0
    );
}
