//! Replay a calibrated Radial trace under all five caching schemes and
//! print a side-by-side comparison — a miniature of the paper's whole
//! evaluation section.
//!
//! ```sh
//! cargo run --release --example trace_replay            # default scale
//! cargo run --release --example trace_replay -- 1000    # custom length
//! ```

use fp_suite::proxy::cache::DescriptionKind;
use fp_suite::proxy::template::TemplateManager;
use fp_suite::proxy::{ProxyConfig, ProxyHandle, Scheme, SiteOrigin};
use fp_suite::skyserver::{Catalog, CatalogSpec, SkySite};
use fp_suite::trace::{classify_trace, Rbe, TraceSpec};
use std::sync::Arc;

fn main() {
    let queries: usize = std::env::args()
        .nth(1)
        .and_then(|a| a.parse().ok())
        .unwrap_or(500);

    println!("generating catalog and a {queries}-query Radial trace…");
    let site = SkySite::new(Catalog::generate(&CatalogSpec {
        objects: 60_000,
        ..CatalogSpec::default()
    }));
    let trace = TraceSpec {
        queries,
        ..TraceSpec::default()
    }
    .generate();

    let mix = classify_trace(&trace);
    println!("trace census: {mix}");
    println!("(the paper's trace: 17% exact, 34% contained, ~9% overlap, ~51% fully answerable)\n");

    println!(
        "{:<22} {:>12} {:>12} {:>8} {:>8} {:>10}",
        "scheme", "avg resp ms", "efficiency", "hits", "entries", "evictions"
    );
    let rbe = Rbe::default();
    for scheme in Scheme::all() {
        let proxy = ProxyHandle::new(
            TemplateManager::with_sky_defaults(),
            Arc::new(SiteOrigin::new(site.clone())),
            ProxyConfig::default()
                .with_scheme(scheme)
                .with_description(DescriptionKind::Array),
        );
        let report = rbe.run(&proxy, &trace).expect("trace replays");
        let stats = proxy.cache_stats();
        println!(
            "{:<22} {:>12.0} {:>12.3} {:>7.1}% {:>8} {:>10}",
            scheme.to_string(),
            report.avg_response_ms,
            report.avg_cache_efficiency,
            report.full_hit_ratio() * 100.0,
            stats.entries,
            stats.evictions,
        );
    }

    println!("\nexpected shape: no-cache slowest; passive in between; active schemes fastest,");
    println!("with full-semantic achieving the best efficiency but paying for overlap handling.");
}
