//! Quickstart: stand up a synthetic SkyServer, put the function proxy in
//! front of it, and watch active caching answer queries locally.
//!
//! ```sh
//! cargo run --example quickstart
//! ```

use fp_suite::proxy::template::TemplateManager;
use fp_suite::proxy::{ProxyConfig, ProxyHandle, Scheme, SiteOrigin};
use fp_suite::skyserver::{Catalog, CatalogSpec, SkySite};
use std::sync::Arc;

fn main() {
    // 1. The origin web site: a deterministic synthetic sky catalog.
    println!("generating the synthetic sky catalog…");
    let site = SkySite::new(Catalog::generate(&CatalogSpec::small_test()));

    // 2. The function proxy, with the paper's full semantic caching and
    //    the built-in SkyServer templates (Radial + Rectangular forms).
    let proxy = ProxyHandle::new(
        TemplateManager::with_sky_defaults(),
        Arc::new(SiteOrigin::new(site.clone())),
        ProxyConfig::default().with_scheme(Scheme::FullSemantic),
    );

    let radial = |ra: f64, dec: f64, radius: f64| {
        vec![
            ("ra".to_string(), ra.to_string()),
            ("dec".to_string(), dec.to_string()),
            ("radius".to_string(), radius.to_string()),
        ]
    };

    // 3. Issue the Radial-search form queries of the paper's Figure 1.
    let queries = [
        ("fresh region", 185.0, 0.5, 30.0),
        ("exact repeat", 185.0, 0.5, 30.0),
        ("subsumed (smaller radius)", 185.0, 0.5, 12.0),
        ("overlapping neighbour", 185.4, 0.5, 20.0),
        ("far away", 188.5, -2.0, 10.0),
    ];

    println!(
        "\n{:<28} {:>7} {:>12} {:>10} {:>18}",
        "query", "rows", "outcome", "eff.", "response (sim ms)"
    );
    for (label, ra, dec, radius) in queries {
        let response = proxy
            .handle_form("/search/radial", &radial(ra, dec, radius))
            .expect("query resolves");
        let m = &response.metrics;
        println!(
            "{:<28} {:>7} {:>12} {:>10.2} {:>18.0}",
            label,
            response.result.len(),
            m.outcome.label(),
            m.cache_efficiency(),
            m.response_ms,
        );
    }

    let stats = proxy.cache_stats();
    println!(
        "\ncache: {} entries, {:.1} KB; origin served {} queries",
        stats.entries,
        stats.bytes as f64 / 1024.0,
        site.load().queries,
    );
    println!(
        "note how the repeat, the subsumed query, and part of the overlap never hit the origin."
    );
}
