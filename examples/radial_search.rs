//! The paper's Radial search end to end, with the template machinery made
//! visible: the function template XML (Figure 3), the query template
//! (Figure 2), the region each request maps to, and how each of the five
//! relationship cases (§3.2) is handled.
//!
//! ```sh
//! cargo run --example radial_search
//! ```

use fp_suite::proxy::template::{FunctionTemplate, TemplateManager};
use fp_suite::proxy::{CostModel, ProxyConfig, ProxyHandle, Scheme, SiteOrigin};
use fp_suite::skyserver::{Catalog, CatalogSpec, SkySite};
use std::sync::Arc;

fn main() {
    // The registered artifacts, printed as the XML/SQL a web site would
    // upload to the proxy.
    println!("=== function template (paper Figure 3) ===");
    println!("{}", FunctionTemplate::sky_radial().to_xml_pretty_text());

    let manager = TemplateManager::with_sky_defaults();
    let radial = manager.query_template("radial").expect("built-in template");
    println!("=== function-embedded query template (paper Figure 2) ===");
    println!("{}\n", radial.template.query.to_sql());

    // Resolve one form request and show the region it becomes.
    let fields = |ra: f64, dec: f64, radius: f64| {
        vec![
            ("ra".to_string(), ra.to_string()),
            ("dec".to_string(), dec.to_string()),
            ("radius".to_string(), radius.to_string()),
        ]
    };
    let bound = manager
        .resolve_form("/search/radial", &fields(185.0, 1.5, 30.0))
        .expect("form resolves");
    println!("=== resolving /search/radial?ra=185&dec=1.5&radius=30 ===");
    println!("region:  {}", bound.region);
    println!("sql:     {}\n", bound.sql);

    // Now run the five cases through a live proxy.
    let site = SkySite::new(Catalog::generate(&CatalogSpec::small_test()));
    let proxy = ProxyHandle::new(
        TemplateManager::with_sky_defaults(),
        Arc::new(SiteOrigin::new(site.clone())),
        ProxyConfig::default()
            .with_scheme(Scheme::FullSemantic)
            .with_cost(CostModel::default()),
    );

    println!("=== the five relationship cases (paper §3.2) ===");
    let run = |label: &str, ra: f64, dec: f64, radius: f64| {
        let before = site.load().queries;
        let r = proxy
            .handle_form("/search/radial", &fields(ra, dec, radius))
            .expect("query resolves");
        let origin_hits = site.load().queries - before;
        println!(
            "  {label:<42} -> {:<18} {} rows, {} origin round trip(s), sim {:.0} ms",
            r.metrics.outcome.label(),
            r.result.len(),
            origin_hits,
            r.metrics.sim_ms,
        );
    };

    run("(d) disjoint: first query of the region", 185.0, 0.5, 25.0);
    run("(a) exact match: the same query again", 185.0, 0.5, 25.0);
    run("(b) containment: concentric, radius 10'", 185.0, 0.5, 10.0);
    run(
        "(c) overlap: shifted 20', radius 15'",
        185.0 + 20.0 / 60.0,
        0.5,
        15.0,
    );
    run(
        "(c') region containment: radius 80' cover",
        185.0,
        0.5,
        80.0,
    );
    run("    …which now answers this sub-query", 185.1, 0.45, 18.0);

    let s = proxy.cache_stats();
    println!(
        "\ncache after the demo: {} entries ({} compacted away by region containment)",
        s.entries, s.compactions,
    );
}

/// Small extension trait so the example can print the template XML without
/// exposing printing helpers from the library.
trait PrettyXml {
    fn to_xml_pretty_text(&self) -> String;
}

impl PrettyXml for FunctionTemplate {
    fn to_xml_pretty_text(&self) -> String {
        self.to_xml().to_xml_pretty()
    }
}
