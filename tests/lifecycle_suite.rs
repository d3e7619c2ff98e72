//! The deterministic lifecycle suite, all on virtual time: TTL expiry
//! with stale-while-revalidate, epoch-bump invalidation (manual and
//! origin-advertised), and stale-if-error under an origin outage with
//! the breaker engaged.

use fp_suite::proxy::origin::CountingOrigin;
use fp_suite::proxy::resilience::{Clock, MockClock};
use fp_suite::proxy::template::TemplateManager;
use fp_suite::proxy::{
    ChaosOrigin, CostModel, Fault, LifecycleConfig, Origin, ProxyConfig, ProxyHandle,
    ResilienceConfig, Scheme, SiteOrigin,
};
use fp_suite::skyserver::{Catalog, CatalogSpec, SkySite};
use std::sync::{Arc, OnceLock};
use std::time::Duration;

fn site() -> &'static SkySite {
    static SITE: OnceLock<SkySite> = OnceLock::new();
    SITE.get_or_init(|| {
        SkySite::new(Catalog::generate(&CatalogSpec {
            seed: 11,
            objects: 8_000,
            ..CatalogSpec::default()
        }))
    })
}

fn fields(ra: f64, dec: f64, radius: f64) -> Vec<(String, String)> {
    vec![
        ("ra".to_string(), format!("{ra:.4}")),
        ("dec".to_string(), format!("{dec:.4}")),
        ("radius".to_string(), format!("{radius:.4}")),
    ]
}

const MS: Duration = Duration::from_millis(1);

/// Stale-while-revalidate: an expired exact hit is served immediately —
/// byte-identical to the fresh hit — flagged stale, and triggers exactly
/// one background refresh; the next request is fresh again.
#[test]
fn stale_hit_serves_old_bytes_and_refreshes_once() {
    let clock = MockClock::shared();
    let counting = Arc::new(CountingOrigin::new(Arc::new(SiteOrigin::new(
        site().clone(),
    ))));
    let handle = ProxyHandle::with_shards_clocked(
        TemplateManager::with_sky_defaults(),
        Arc::clone(&counting) as Arc<dyn Origin>,
        ProxyConfig::default()
            .with_scheme(Scheme::FullSemantic)
            .with_cost(CostModel::free())
            .with_lifecycle(
                LifecycleConfig::default()
                    .with_default_ttl(100 * MS)
                    .with_stale_while_revalidate(1000 * MS),
            ),
        2,
        Arc::clone(&clock) as Arc<dyn Clock>,
    );
    let q = fields(185.0, 0.2, 12.0);

    // Miss, then a fresh exact hit: this is the reference body.
    let miss = handle.handle_form_xml("/search/radial", &q).expect("miss");
    assert!(!miss.metrics.stale);
    assert_eq!(counting.fetches(), 1);
    let fresh = handle.handle_form_xml("/search/radial", &q).expect("hit");
    assert!(!fresh.metrics.stale, "within TTL the hit is fresh");
    assert_eq!(fresh.body, miss.body);
    assert_eq!(counting.fetches(), 1, "a fresh hit fetches nothing");

    // Past the TTL but inside the stale-while-revalidate window: the
    // stale bytes come back immediately, and one refresh runs behind.
    clock.advance(150 * MS);
    let stale = handle
        .handle_form_xml("/search/radial", &q)
        .expect("stale hit");
    assert!(stale.metrics.stale, "expired entry must be flagged stale");
    assert_eq!(stale.body, fresh.body, "stale hit serves the cached bytes");
    assert!(
        stale.metrics.entry_age_ms >= 100.0,
        "age {} must exceed the TTL",
        stale.metrics.entry_age_ms
    );
    handle.quiesce_revalidations();
    let stats = handle.runtime_stats();
    assert_eq!(stats.stale_hits, 1);
    assert_eq!(stats.revalidations, 1, "exactly one background refresh");
    assert_eq!(counting.fetches(), 2, "the refresh is the only new fetch");

    // The refresh replaced the entry: fresh again, no further fetches.
    let refreshed = handle
        .handle_form_xml("/search/radial", &q)
        .expect("refreshed hit");
    assert!(!refreshed.metrics.stale, "refreshed entry is fresh");
    assert_eq!(refreshed.body, fresh.body, "same data after refresh");
    assert_eq!(counting.fetches(), 2);
    handle.quiesce_revalidations();
    assert_eq!(
        handle.runtime_stats().revalidations,
        1,
        "a fresh hit must not refresh again"
    );
}

/// Epoch bumps retire every pre-bump entry before the next serve, both
/// when bumped explicitly and when the origin advertises a newer epoch
/// on a fetch.
#[test]
fn epoch_bump_invalidates_every_pre_bump_entry() {
    let clock = MockClock::shared();
    let counting = Arc::new(CountingOrigin::new(Arc::new(SiteOrigin::new(
        site().clone(),
    ))));
    let handle = ProxyHandle::with_shards_clocked(
        TemplateManager::with_sky_defaults(),
        Arc::clone(&counting) as Arc<dyn Origin>,
        ProxyConfig::default()
            .with_scheme(Scheme::FullSemantic)
            .with_cost(CostModel::free())
            .with_lifecycle(LifecycleConfig::default().with_epoch(1)),
        2,
        Arc::clone(&clock) as Arc<dyn Clock>,
    );
    assert_eq!(handle.current_epoch(), 1);

    // Warm two disjoint entries under epoch 1.
    let a = fields(185.0, 0.2, 10.0);
    let b = fields(120.0, 30.0, 10.0);
    let body_a = handle
        .handle_form_xml("/search/radial", &a)
        .expect("a")
        .body;
    handle.handle_form("/search/radial", &b).expect("b");
    assert_eq!(handle.cache_stats().entries, 2);

    // Explicit bump: both entries retire immediately, before any serve.
    let retired = handle.set_epoch(2);
    assert_eq!(retired, 2, "every pre-bump entry is retired");
    assert_eq!(handle.cache_stats().entries, 0);
    assert_eq!(handle.current_epoch(), 2);
    assert_eq!(handle.runtime_stats().cache.epoch_invalidations, 2);
    // A stale epoch is refused: bumping backwards is a no-op.
    assert_eq!(handle.set_epoch(1), 0);
    assert_eq!(handle.current_epoch(), 2);

    // Re-warm under epoch 2, then let the origin advertise epoch 3: the
    // next fetch observes it and the epoch-2 entry dies with it.
    let resp = handle
        .handle_form_xml("/search/radial", &a)
        .expect("rewarm");
    assert_eq!(resp.body, body_a, "same query, same answer across epochs");
    assert_eq!(handle.cache_stats().entries, 1);
    counting.set_advertised_epoch(3);
    handle
        .handle_form("/search/radial", &b)
        .expect("fetch at epoch 3");
    assert_eq!(handle.current_epoch(), 3, "advertised epoch adopted");
    // The pre-bump entry is gone; the new fetch (inserted at epoch 3)
    // survives.
    assert_eq!(handle.cache_stats().entries, 1);
    let after = handle
        .handle_form_xml("/search/radial", &b)
        .expect("b again");
    assert!(!after.metrics.stale);
    assert!(
        matches!(
            after.metrics.outcome,
            fp_suite::proxy::metrics::Outcome::Exact
        ),
        "the epoch-3 entry still serves, got {:?}",
        after.metrics.outcome
    );
}

/// Stale-if-error: once the origin is down (and the breaker opens), an
/// entry past its TTL keeps serving — flagged stale and degraded — for
/// the whole stale-if-error window, and dies after it.
#[test]
fn stale_if_error_extends_expired_entries_through_an_outage() {
    let clock = MockClock::shared();
    let chaos = Arc::new(ChaosOrigin::with_clock(
        Arc::new(SiteOrigin::new(site().clone())),
        Arc::clone(&clock) as Arc<dyn Clock>,
    ));
    let handle = ProxyHandle::with_shards_clocked(
        TemplateManager::with_sky_defaults(),
        Arc::clone(&chaos) as Arc<dyn Origin>,
        ProxyConfig::default()
            .with_scheme(Scheme::FullSemantic)
            .with_cost(CostModel::free())
            .with_resilience(ResilienceConfig::fast_test())
            .with_lifecycle(
                LifecycleConfig::default()
                    .with_default_ttl(1000 * MS)
                    .with_stale_if_error(Duration::from_secs(60)),
            ),
        2,
        Arc::clone(&clock) as Arc<dyn Clock>,
    );
    let q = fields(185.0, 0.2, 12.0);
    let warm = handle.handle_form_xml("/search/radial", &q).expect("warm");

    // Expire the entry (past TTL, swr = 0 → straight to Grace), then
    // kill the origin. The healthy path cannot use a Grace entry, so the
    // proxy tries to forward, fails, and falls back to degraded serving
    // — where stale-if-error admits it.
    clock.advance(Duration::from_secs(2));
    chaos.set_default_fault(Fault::Unavailable);
    let during = handle
        .handle_form_xml("/search/radial", &q)
        .expect("outage answer from the grace entry");
    assert_eq!(during.body, warm.body, "grace entry serves the old bytes");
    assert!(during.metrics.stale, "grace serves are flagged stale");
    // `degraded` stays false: the answer is complete (it flags
    // incompleteness, not outage); `stale` carries the age signal.
    assert!(!during.metrics.degraded);

    // Keep failing until the breaker opens; the grace entry still serves
    // on the fast-fail path.
    for _ in 0..4 {
        let r = handle
            .handle_form_xml("/search/radial", &q)
            .expect("served through breaker trips");
        assert_eq!(r.body, warm.body);
    }
    let stats = handle.runtime_stats();
    assert!(
        stats.resilience.breaker_opens >= 1,
        "the outage must trip the breaker"
    );
    assert!(stats.stale_hits >= 1);
    let open = handle
        .handle_form_xml("/search/radial", &q)
        .expect("served while the breaker is open");
    assert!(open.metrics.stale);
    assert_eq!(open.body, warm.body);

    // Past the stale-if-error window the entry is dead: with the origin
    // still down there is nothing left to serve.
    clock.advance(Duration::from_secs(120));
    assert!(
        handle.handle_form("/search/radial", &q).is_err(),
        "a dead entry must not serve even on the error path"
    );
}

/// Regression for the `entry_age_ms` max-fold bug: the reported age is
/// the age of the entries that actually *contributed rows* to the
/// answer, not the oldest entry the planner merely probed. A stale but
/// empty cached region must neither age the response nor flag it stale.
#[test]
fn entry_age_reports_the_serving_entry_not_the_oldest_probed() {
    let clock = MockClock::shared();
    let handle = ProxyHandle::with_shards_clocked(
        TemplateManager::with_sky_defaults(),
        Arc::new(SiteOrigin::new(site().clone())),
        ProxyConfig::default()
            .with_scheme(Scheme::FullSemantic)
            .with_cost(CostModel::free())
            .with_lifecycle(
                LifecycleConfig::default()
                    .with_default_ttl(100 * MS)
                    .with_stale_while_revalidate(1000 * MS),
            ),
        2,
        Arc::clone(&clock) as Arc<dyn Clock>,
    );

    // t=0: a tiny, almost certainly empty entry A off to the side.
    let a = handle
        .handle_form_xml("/search/radial", &fields(185.0, 0.4, 0.01))
        .expect("entry A");
    assert_eq!(
        a.metrics.rows_total, 0,
        "the tiny region must be empty for this scenario"
    );

    // t=150 ms: entry B, disjoint from A so compaction keeps both.
    clock.advance(150 * MS);
    let b = handle
        .handle_form_xml("/search/radial", &fields(185.0, 0.0, 20.0))
        .expect("entry B");
    assert!(b.metrics.rows_total > 0, "B must hold real rows");

    // t=180 ms: a query containing both A and B (region containment,
    // remainder fetched). A is now past its TTL but contributes zero
    // rows; B (30 ms old) serves the hit portion. The max-fold bug
    // reported age 180 ms and stale=true.
    clock.advance(30 * MS);
    let served = handle
        .handle_form_xml("/search/radial", &fields(185.0, 0.05, 25.0))
        .expect("merged serve");
    assert!(
        served.metrics.rows_from_cache > 0,
        "B must contribute cached rows (outcome {:?})",
        served.metrics.outcome
    );
    assert!(
        served.metrics.entry_age_ms < 100.0,
        "age {} must be B's (~30 ms), not stale A's (~180 ms)",
        served.metrics.entry_age_ms
    );
    assert!(
        !served.metrics.stale,
        "an empty probed entry must not mark the answer stale"
    );
    handle.quiesce_revalidations();
    assert_eq!(
        handle.runtime_stats().stale_hits,
        0,
        "no stale hit was served"
    );
}
