//! The fault matrix: every injected origin failure crossed with the
//! proxy's cache state, end to end through [`ProxyHandle::handle_form_xml`]
//! — the same entry point the HTTP router serves.
//!
//! All timing (latency faults, deadlines, backoff waits, breaker
//! cooldowns) runs on a shared [`MockClock`], so each case is
//! deterministic: no sleeps, no flaky margins.

use fp_suite::proxy::resilience::{Clock, MockClock};
use fp_suite::proxy::template::TemplateManager;
use fp_suite::proxy::{
    ChaosOrigin, CostModel, Fault, Origin, OriginError, ProxyConfig, ProxyError, ProxyHandle,
    ResilienceConfig, Scheme, SiteOrigin,
};
use fp_suite::skyserver::{Catalog, CatalogSpec, ResultSet, SkySite};
use fp_suite::xmlite::Element;
use std::sync::Arc;
use std::time::Duration;

/// Deterministic policy: 100 ms virtual deadline, one retry, breaker
/// opens after 3 consecutive failures and cools down for 50 ms.
fn policy() -> ResilienceConfig {
    ResilienceConfig {
        deadline: Some(Duration::from_millis(100)),
        ..ResilienceConfig::fast_test()
    }
}

/// A proxy over a chaos-wrapped synthetic site, everything on one
/// MockClock.
fn fixture() -> (ProxyHandle, Arc<ChaosOrigin>, Arc<MockClock>) {
    let clock = MockClock::shared();
    let site = SkySite::new(Catalog::generate(&CatalogSpec {
        seed: 9,
        objects: 12_000,
        ..CatalogSpec::default()
    }));
    let chaos = Arc::new(ChaosOrigin::with_clock(
        Arc::new(SiteOrigin::new(site)),
        Arc::clone(&clock) as Arc<dyn Clock>,
    ));
    let handle = ProxyHandle::with_shards_clocked(
        TemplateManager::with_sky_defaults(),
        Arc::clone(&chaos) as Arc<dyn Origin>,
        ProxyConfig::default()
            .with_scheme(Scheme::FullSemantic)
            .with_cost(CostModel::free())
            .with_resilience(policy()),
        4,
        Arc::clone(&clock) as Arc<dyn Clock>,
    );
    (handle, chaos, clock)
}

fn radial(ra: f64, dec: f64, radius: f64) -> Vec<(String, String)> {
    vec![
        ("ra".to_string(), format!("{ra:.4}")),
        ("dec".to_string(), format!("{dec:.4}")),
        ("radius".to_string(), format!("{radius:.4}")),
    ]
}

fn rows_of(body: &[u8]) -> ResultSet {
    let text = std::str::from_utf8(body).expect("utf-8 body");
    let doc = Element::parse(text).expect("XML body");
    ResultSet::from_xml(&doc).expect("result document")
}

#[test]
fn rejection_surfaces_as_rejected_and_is_not_retried() {
    let (handle, chaos, _clock) = fixture();
    chaos.script(vec![Fault::Rejected]);
    let err = handle
        .handle_form_xml("/search/radial", &radial(185.0, 0.0, 10.0))
        .unwrap_err();
    assert!(
        matches!(&err, ProxyError::Origin(OriginError::Rejected(_))),
        "got {err:?}"
    );
    assert_eq!(chaos.calls(), 1, "a rejection must not be retried");
    // The origin is alive — the very next query goes straight through.
    assert!(handle
        .handle_form_xml("/search/radial", &radial(185.0, 0.0, 10.0))
        .is_ok());
}

#[test]
fn unavailability_on_a_cold_cache_retries_then_fails() {
    let (handle, chaos, _clock) = fixture();
    chaos.set_default_fault(Fault::Unavailable);
    let err = handle
        .handle_form_xml("/search/radial", &radial(185.0, 0.0, 10.0))
        .unwrap_err();
    assert!(
        matches!(&err, ProxyError::Origin(OriginError::Unavailable(_))),
        "got {err:?}"
    );
    assert_eq!(chaos.calls(), 2, "one attempt + one retry");
    assert_eq!(handle.runtime_stats().resilience.retries, 1);
}

#[test]
fn latency_spike_past_the_deadline_is_a_timeout() {
    let (handle, chaos, clock) = fixture();
    chaos.script(vec![Fault::Latency(
        Duration::from_millis(150),
        Box::new(Fault::Healthy),
    )]);
    let err = handle
        .handle_form_xml("/search/radial", &radial(185.0, 0.0, 10.0))
        .unwrap_err();
    assert!(
        matches!(&err, ProxyError::Origin(OriginError::Timeout { .. })),
        "got {err:?}"
    );
    assert_eq!(
        chaos.calls(),
        1,
        "an overdue fetch must not be retried — the budget is spent"
    );
    assert_eq!(handle.runtime_stats().resilience.timeouts, 1);
    assert_eq!(clock.elapsed(), Duration::from_millis(150));
}

#[test]
fn breaker_opens_sheds_load_and_recloses_after_the_cooldown() {
    let (handle, chaos, clock) = fixture();
    chaos.set_default_fault(Fault::Unavailable);

    // Distinct disjoint queries: each fails both its attempts, so two
    // queries reach the threshold of 3 consecutive failures.
    for dec in [10.0, 20.0] {
        let _ = handle.handle_form_xml("/search/radial", &radial(200.0, dec, 2.0));
    }
    assert_eq!(handle.runtime_stats().resilience.breaker_state, "open");
    let calls_when_open = chaos.calls();

    // While open: fast-fail with a Retry-After hint, no origin traffic.
    let err = handle
        .handle_form_xml("/search/radial", &radial(200.0, 30.0, 2.0))
        .unwrap_err();
    match &err {
        ProxyError::Origin(e @ OriginError::Overloaded { retry_after }) => {
            assert!(e.is_transient());
            assert!(*retry_after <= policy().breaker_cooldown);
        }
        other => panic!("expected Overloaded, got {other:?}"),
    }
    assert_eq!(chaos.calls(), calls_when_open, "open breaker sheds load");
    assert!(handle.runtime_stats().resilience.fast_fails >= 1);

    // Heal the origin, let the cooldown lapse: the half-open probe
    // succeeds and the circuit recloses.
    chaos.set_default_fault(Fault::Healthy);
    clock.advance(policy().breaker_cooldown + Duration::from_millis(1));
    assert!(handle
        .handle_form_xml("/search/radial", &radial(200.0, 40.0, 2.0))
        .is_ok());
    assert_eq!(handle.runtime_stats().resilience.breaker_state, "closed");
    assert!(handle.runtime_stats().resilience.breaker_opens >= 1);
}

#[test]
fn truncated_and_corrupt_payloads_pass_through_without_crashing() {
    let (handle, chaos, _clock) = fixture();

    // A truncated origin response: the proxy serves (and caches) what it
    // got; the follow-up exact hit sees the same truncated rows.
    chaos.script(vec![Fault::TruncateRows(1)]);
    let truncated = handle
        .handle_form_xml("/search/radial", &radial(185.0, 0.0, 10.0))
        .expect("truncated response still serves");
    assert_eq!(rows_of(&truncated.body).len(), 1);
    let again = handle
        .handle_form_xml("/search/radial", &radial(185.0, 0.0, 10.0))
        .expect("exact hit");
    assert_eq!(rows_of(&again.body).len(), 1);

    // A corrupt coordinate cell: the entry is cached, and a contained
    // query over it either falls back to the origin (malformed entry) or
    // serves rows — it must not panic or mis-serve silently.
    chaos.script(vec![Fault::MalformedCell]);
    let corrupt = handle
        .handle_form_xml("/search/radial", &radial(190.0, 5.0, 10.0))
        .expect("corrupt payload still serves");
    let served = rows_of(&corrupt.body).len();
    let contained = handle
        .handle_form_xml("/search/radial", &radial(190.0, 5.0, 3.0))
        .expect("contained query resolves");
    assert!(rows_of(&contained.body).len() <= served.max(1));
}

/// The acceptance decision table: with the cache warmed and the origin
/// **completely down**, every query with usable cached coverage is still
/// answered — exact and contained normally, region containment and
/// overlap degraded — and only the true disjoint miss errors out.
#[test]
fn full_outage_decision_table() {
    let (handle, chaos, _clock) = fixture();

    // Warm: two disjoint entries 0.1° apart plus one far-away entry.
    let e1 = radial(185.0, 0.0, 5.0);
    let e2 = radial(184.9, 0.0, 5.0);
    let e1_rows = rows_of(
        &handle
            .handle_form_xml("/search/radial", &e1)
            .expect("warm e1")
            .body,
    )
    .len();
    handle
        .handle_form_xml("/search/radial", &e2)
        .expect("warm e2");
    assert_eq!(handle.cache_stats().entries, 2);

    // Total outage from here on.
    chaos.set_default_fault(Fault::Unavailable);

    // Exact: identical to e1 — served whole, not degraded.
    let exact = handle
        .handle_form_xml("/search/radial", &e1)
        .expect("exact hit survives the outage");
    assert_eq!(exact.metrics.outcome.label(), "exact");
    assert!(!exact.metrics.degraded);
    assert_eq!(rows_of(&exact.body).len(), e1_rows);

    // Contained: concentric, smaller — served whole, not degraded.
    let contained = handle
        .handle_form_xml("/search/radial", &radial(185.0, 0.0, 2.0))
        .expect("contained hit survives the outage");
    assert_eq!(contained.metrics.outcome.label(), "contained");
    assert!(!contained.metrics.degraded);

    // Region containment: a region swallowing both entries — served as
    // the cached union, marked degraded (the remainder is missing).
    let rc = handle
        .handle_form_xml("/search/radial", &radial(184.95, 0.0, 20.0))
        .expect("region containment degrades instead of failing");
    assert_eq!(rc.metrics.outcome.label(), "region-containment");
    assert!(rc.metrics.degraded);
    assert!(rows_of(&rc.body).len() >= e1_rows);

    // Overlap: half-in half-out of e1 — served as the cached
    // intersection, marked degraded.
    let overlap = handle
        .handle_form_xml("/search/radial", &radial(185.06, 0.0, 5.0))
        .expect("overlap degrades instead of failing");
    assert_eq!(overlap.metrics.outcome.label(), "overlap");
    assert!(overlap.metrics.degraded);

    // Disjoint: nothing cached helps — the transient error surfaces.
    let err = handle
        .handle_form_xml("/search/radial", &radial(200.0, 30.0, 2.0))
        .unwrap_err();
    assert!(
        matches!(
            &err,
            ProxyError::Origin(OriginError::Unavailable(_) | OriginError::Overloaded { .. })
        ),
        "got {err:?}"
    );

    // Degraded answers were counted, and nothing degraded entered the
    // cache as a (wrong) complete entry.
    let stats = handle.runtime_stats();
    assert_eq!(stats.degraded_hits, 2);
    assert!(stats.degraded_partial_rows >= 1);
    assert_eq!(
        handle.cache_stats().entries,
        2,
        "degraded answers are never cached"
    );
}
