//! The gold correctness test of the whole system: **no caching scheme may
//! ever change a query's answer**. Every configuration (scheme × cache
//! description × cache capacity) must return exactly the same tuples as
//! the tunneling no-cache proxy, query for query, over traces that
//! exercise every relationship case, eviction, and compaction.

use fp_suite::proxy::cache::DescriptionKind;
use fp_suite::proxy::template::TemplateManager;
use fp_suite::proxy::{CostModel, Origin, ProxyConfig, ProxyHandle, Scheme, SiteOrigin};
use fp_suite::skyserver::{Catalog, CatalogSpec, SkySite};
use fp_suite::trace::{Trace, TraceSpec};
use std::sync::Arc;

fn site() -> SkySite {
    SkySite::new(Catalog::generate(&CatalogSpec {
        seed: 99,
        objects: 25_000,
        ..CatalogSpec::default()
    }))
}

fn make_proxy(
    site: &SkySite,
    scheme: Scheme,
    desc: DescriptionKind,
    capacity: Option<usize>,
) -> ProxyHandle {
    one_shard(
        Arc::new(SiteOrigin::new(site.clone())),
        ProxyConfig::default()
            .with_scheme(scheme)
            .with_description(desc)
            .with_capacity(capacity)
            .with_cost(CostModel::free()),
    )
}

/// One shard, so a capacity bounds the whole cache as in the paper.
fn one_shard(origin: Arc<dyn Origin>, config: ProxyConfig) -> ProxyHandle {
    ProxyHandle::with_shards(TemplateManager::with_sky_defaults(), origin, config, 1)
}

/// Sorted objID list for each query of the trace, as served by `proxy`.
fn answers(proxy: &ProxyHandle, trace: &Trace) -> Vec<Vec<i64>> {
    trace
        .queries
        .iter()
        .map(|q| {
            let response = proxy
                .handle_form("/search/radial", &q.form_fields())
                .expect("query resolves");
            let k = response
                .result
                .column_index("objID")
                .expect("objID projected");
            let mut ids: Vec<i64> = response
                .result
                .rows
                .iter()
                .map(|row| row[k].as_i64().expect("objID is an int"))
                .collect();
            ids.sort_unstable();
            ids
        })
        .collect()
}

fn oracle_trace(seed: u64, queries: usize) -> Trace {
    TraceSpec {
        seed,
        queries,
        // Aggressive relationship density to stress every code path.
        exact: 0.2,
        contained: 0.3,
        overlap: 0.15,
        covering: 0.1,
        ..TraceSpec::default()
    }
    .generate()
}

#[test]
fn every_scheme_matches_the_no_cache_oracle() {
    let site = site();
    let trace = oracle_trace(424242, 120);

    let oracle_proxy = make_proxy(&site, Scheme::NoCache, DescriptionKind::Array, None);
    let oracle = answers(&oracle_proxy, &trace);

    for scheme in [
        Scheme::Passive,
        Scheme::ContainmentOnly,
        Scheme::RegionContainment,
        Scheme::FullSemantic,
    ] {
        for desc in [DescriptionKind::Array, DescriptionKind::RTree] {
            let proxy = make_proxy(&site, scheme, desc, None);
            let got = answers(&proxy, &trace);
            for (i, (g, want)) in got.iter().zip(&oracle).enumerate() {
                assert_eq!(
                    g, want,
                    "query #{i} differs under {scheme}/{desc} ({:?})",
                    trace.queries[i]
                );
            }
        }
    }
}

#[test]
fn correctness_survives_tight_caches_and_eviction() {
    let site = site();
    let trace = oracle_trace(777, 100);

    let oracle_proxy = make_proxy(&site, Scheme::NoCache, DescriptionKind::Array, None);
    let oracle = answers(&oracle_proxy, &trace);

    // Capacities from "almost nothing" to "a few entries".
    for capacity in [512, 8 * 1024, 64 * 1024] {
        let proxy = make_proxy(
            &site,
            Scheme::FullSemantic,
            DescriptionKind::RTree,
            Some(capacity),
        );
        let got = answers(&proxy, &trace);
        assert_eq!(got, oracle, "capacity {capacity} changed answers");
        assert!(
            proxy.cache_stats().bytes <= capacity,
            "capacity {capacity} exceeded: {}",
            proxy.cache_stats().bytes
        );
    }
}

#[test]
fn correctness_holds_without_remainder_support() {
    let site = site();
    let trace = oracle_trace(31337, 80);

    let oracle_proxy = make_proxy(&site, Scheme::NoCache, DescriptionKind::Array, None);
    let oracle = answers(&oracle_proxy, &trace);

    let proxy = one_shard(
        Arc::new(SiteOrigin::without_remainder(site.clone())),
        ProxyConfig::default()
            .with_scheme(Scheme::FullSemantic)
            .with_cost(CostModel::free()),
    );
    let got = answers(&proxy, &trace);
    assert_eq!(got, oracle, "no-remainder origin changed answers");
}

#[test]
fn merge_fan_in_limit_does_not_change_answers() {
    let site = site();
    let trace = oracle_trace(5150, 80);

    let oracle_proxy = make_proxy(&site, Scheme::NoCache, DescriptionKind::Array, None);
    let oracle = answers(&oracle_proxy, &trace);

    let mut config = ProxyConfig::default()
        .with_scheme(Scheme::FullSemantic)
        .with_cost(CostModel::free());
    config.max_merge_entries = 1; // pathological fan-in bound
    let proxy = one_shard(Arc::new(SiteOrigin::new(site.clone())), config);
    let got = answers(&proxy, &trace);
    assert_eq!(got, oracle, "fan-in bound changed answers");
}
