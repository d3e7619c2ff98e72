//! Cache persistence across proxy restarts: the paper's proxy keeps its
//! results as XML files on disk (Figure 4, "Query Result Files"). Here
//! those files are the disk tier's slab segments — each one the entry's
//! self-describing `<CacheEntry>` XML followed by its row bytes — plus a
//! small `.fpmeta` index per shard. This example fills a cache, writes
//! the index, "restarts" the proxy over the same directory, and shows
//! the warm cache answering without touching the origin; it exits 1
//! if the restarted proxy paid the origin at all.
//!
//! ```sh
//! cargo run --example warm_restart
//! ```

use fp_suite::proxy::cache::TierConfig;
use fp_suite::proxy::template::TemplateManager;
use fp_suite::proxy::{CostModel, ProxyConfig, ProxyHandle, Scheme, SiteOrigin};
use fp_suite::skyserver::{Catalog, CatalogSpec, SkySite};
use std::path::Path;
use std::sync::Arc;

fn proxy(site: &SkySite, dir: &Path) -> ProxyHandle {
    ProxyHandle::new(
        TemplateManager::with_sky_defaults(),
        Arc::new(SiteOrigin::new(site.clone())),
        ProxyConfig::default()
            .with_scheme(Scheme::FullSemantic)
            .with_cost(CostModel::free())
            .with_tier_config(TierConfig::new(dir)),
    )
}

fn radial(ra: f64, dec: f64, radius: f64) -> Vec<(String, String)> {
    vec![
        ("ra".to_string(), ra.to_string()),
        ("dec".to_string(), dec.to_string()),
        ("radius".to_string(), radius.to_string()),
    ]
}

fn main() {
    let dir = std::env::temp_dir().join("funcproxy_warm_restart_demo");
    let _ = std::fs::remove_dir_all(&dir);

    let site = SkySite::new(Catalog::generate(&CatalogSpec::small_test()));

    // Session 1: a proxy warms up on live traffic, then shuts down.
    println!("— session 1: populating the cache —");
    {
        let p = proxy(&site, &dir);
        for (ra, dec, radius) in [(185.0, 0.5, 25.0), (186.2, -0.8, 15.0), (183.5, 1.2, 10.0)] {
            let r = p
                .handle_form("/search/radial", &radial(ra, dec, radius))
                .unwrap();
            println!(
                "  radial({ra}, {dec}, {radius}'): {} rows [{}]",
                r.result.len(),
                r.metrics.outcome.label()
            );
        }
        let written = p.snapshot_now().expect("meta pass");
        println!(
            "  persisted to {} ({written} shard index files written):",
            dir.display()
        );
        let mut files: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .map(|f| f.unwrap().path())
            .collect();
        files.sort();
        for path in files {
            let size = std::fs::metadata(&path).unwrap().len();
            println!(
                "    {} ({size} bytes)",
                path.file_name().unwrap().to_string_lossy()
            );
        }
    } // proxy dropped: "the servlet restarts"

    // Session 2: a fresh proxy over the same directory serves from it.
    println!("\n— session 2: fresh proxy, warm cache —");
    site.reset_load();
    let p = proxy(&site, &dir);
    let stats = p.runtime_stats();
    println!(
        "  restored {} entries ({} damaged segments skipped)",
        stats.recovered_entries, stats.snapshot_corrupt_segments
    );

    for (label, ra, dec, radius) in [
        ("exact repeat     ", 185.0, 0.5, 25.0),
        ("subsumed (10')   ", 185.0, 0.5, 10.0),
        ("subsumed (other) ", 186.2, -0.8, 6.0),
    ] {
        let r = p
            .handle_form("/search/radial", &radial(ra, dec, radius))
            .unwrap();
        println!(
            "  {label}: {} rows [{}]",
            r.result.len(),
            r.metrics.outcome.label()
        );
    }
    p.quiesce_revalidations();
    let paid = site.load().queries;
    println!(
        "  origin queries in session 2: {paid} (everything served from the restored segments)"
    );

    let _ = std::fs::remove_dir_all(&dir);
    if paid > 0 {
        eprintln!("warm restart paid the origin {paid} time(s): the restored cache missed");
        std::process::exit(1);
    }
}
