//! End-to-end checks of the observability surface: the Prometheus
//! `/metrics` text the edge's proxy service serves over real HTTP, the
//! chrome://tracing and JSONL trace exports, and the `Retry-After`
//! fallback chain ([`ProxyHandle::retry_after_secs`]) that the service
//! maps onto 503 responses.

use fp_suite::edge::{EdgeConfig, EdgeServer, EdgeSnapshot, ProxyEdgeService};
use fp_suite::httpd::HttpClient;
use fp_suite::proxy::cache::{CacheStats, IoFault, IoOp, SlabIo, TierConfig};
use fp_suite::proxy::observe::registry::{Registry, Sample};
use fp_suite::proxy::resilience::{Clock, MockClock};
use fp_suite::proxy::runtime::RuntimeSnapshot;
use fp_suite::proxy::template::TemplateManager;
use fp_suite::proxy::{
    ChaosOrigin, CostModel, Fault, ObserveConfig, Origin, ProxyConfig, ProxyHandle,
    ResilienceConfig, Scheme, SiteOrigin,
};
use fp_suite::skyserver::{Catalog, CatalogSpec, SkySite};
use std::sync::Arc;

/// A proxy over a healthy synthetic site with tracing at 1-in-1
/// sampling, warmed with a miss, an exact hit and a contained hit so
/// every serving path has latency samples.
fn warmed_handle() -> ProxyHandle {
    let site = SkySite::new(Catalog::generate(&CatalogSpec {
        seed: 5,
        objects: 8_000,
        ..CatalogSpec::default()
    }));
    let handle = ProxyHandle::with_shards(
        TemplateManager::with_sky_defaults(),
        Arc::new(SiteOrigin::new(site)),
        ProxyConfig::default()
            .with_scheme(Scheme::FullSemantic)
            .with_cost(CostModel::free())
            .with_observe(ObserveConfig::default().with_sample_every(1)),
        2,
    );
    for radius in [30.0, 30.0, 10.0] {
        handle
            .handle_form_xml("/search/radial", &radial(185.0, 0.0, radius))
            .expect("healthy origin");
    }
    handle
}

fn radial(ra: f64, dec: f64, radius: f64) -> Vec<(String, String)> {
    vec![
        ("ra".to_string(), format!("{ra:.4}")),
        ("dec".to_string(), format!("{dec:.4}")),
        ("radius".to_string(), format!("{radius:.4}")),
    ]
}

/// The routes the proxy ships, on an ephemeral port.
fn serve(handle: ProxyHandle) -> EdgeServer {
    EdgeServer::bind(
        "127.0.0.1:0",
        Arc::new(ProxyEdgeService::new(handle)),
        EdgeConfig::default().with_workers(1),
    )
    .expect("bind ephemeral port")
}

/// One metrics line is either a comment (`# HELP`/`# TYPE`) or a
/// sample: `name{labels} value` with a parseable float value and a
/// legal metric name.
fn assert_sample_line_well_formed(line: &str) {
    let (series, value) = line
        .rsplit_once(' ')
        .unwrap_or_else(|| panic!("no value separator in line: {line}"));
    assert!(
        value.parse::<f64>().is_ok() || value == "+Inf",
        "unparseable sample value in line: {line}"
    );
    let name = match series.split_once('{') {
        Some((name, rest)) => {
            assert!(rest.ends_with('}'), "unbalanced label braces: {line}");
            let labels = &rest[..rest.len() - 1];
            for pair in labels.split("\",") {
                let pair = pair.trim_end_matches('"');
                let (k, v) = pair
                    .split_once("=\"")
                    .unwrap_or_else(|| panic!("bad label pair `{pair}` in line: {line}"));
                assert!(
                    !k.is_empty() && !v.is_empty(),
                    "empty label in line: {line}"
                );
            }
            name
        }
        None => series,
    };
    assert!(
        !name.is_empty()
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':'),
        "illegal metric name `{name}` in line: {line}"
    );
}

#[test]
fn metrics_endpoint_serves_well_formed_prometheus_text() {
    let handle = warmed_handle();
    let server = serve(handle);
    let client = HttpClient::new(server.addr());

    let response = client.get("/metrics").expect("scrape /metrics");
    assert!(response.status.is_success());
    let text = response.body_text();

    // Well-formedness: every line is a comment or a parseable sample,
    // and every sample's family was declared with # TYPE first.
    let mut declared = std::collections::HashSet::new();
    for line in text.lines() {
        if line.is_empty() {
            continue;
        }
        if let Some(rest) = line.strip_prefix("# TYPE ") {
            let mut parts = rest.split(' ');
            let family = parts.next().expect("family name");
            let kind = parts.next().expect("family kind");
            assert!(
                matches!(kind, "counter" | "gauge" | "histogram"),
                "unknown metric kind in line: {line}"
            );
            declared.insert(family.to_string());
        } else if !line.starts_with('#') {
            assert_sample_line_well_formed(line);
            let name = line.split([' ', '{']).next().unwrap();
            let family = name
                .strip_suffix("_bucket")
                .or_else(|| name.strip_suffix("_sum"))
                .or_else(|| name.strip_suffix("_count"))
                .unwrap_or(name);
            assert!(
                declared.contains(family),
                "sample for undeclared family `{family}`"
            );
        }
    }

    // Presence: every counter family plus both histogram families.
    for family in [
        "funcproxy_requests_total",
        "funcproxy_coalesced_total",
        "funcproxy_flights_led_total",
        "funcproxy_degraded_hits_total",
        "funcproxy_stale_hits_total",
        "funcproxy_revalidations_total",
        "funcproxy_origin_timeouts_total",
        "funcproxy_origin_retries_total",
        "funcproxy_breaker_opens_total",
        "funcproxy_lock_wait_seconds_total",
        "funcproxy_breaker_open",
        "funcproxy_origin_backoff_hint_ms",
        "funcproxy_phase_latency_seconds",
        "funcproxy_request_latency_seconds",
    ] {
        assert!(declared.contains(family), "family `{family}` missing");
    }

    // Every phase×path and outcome-class cell renders even when empty,
    // so dashboards never see a family appear out of nowhere.
    use fp_suite::proxy::observe::{OutcomeClass, PathClass, Phase};
    for phase in Phase::ALL {
        for path in PathClass::ALL {
            let cell = format!(
                "funcproxy_phase_latency_seconds_count{{phase=\"{}\",path=\"{}\"}}",
                phase.label(),
                path.label()
            );
            assert!(text.contains(&cell), "missing histogram cell: {cell}");
        }
    }
    for class in OutcomeClass::ALL {
        let cell = format!(
            "funcproxy_request_latency_seconds_count{{class=\"{}\"}}",
            class.label()
        );
        assert!(text.contains(&cell), "missing histogram cell: {cell}");
    }

    // Coherence: one outcome sample per request served, and the warmed
    // traffic put samples where they belong.
    assert!(text.contains("funcproxy_requests_total 3"));
    assert!(text.contains("funcproxy_request_latency_seconds_count{class=\"miss\"} 1"));
    assert!(text.contains("funcproxy_request_latency_seconds_count{class=\"exact\"} 1"));
    assert!(text.contains("funcproxy_request_latency_seconds_count{class=\"contained\"} 1"));

    server.shutdown();
}

/// A server bound over a `ProxyEdgeService` with a config that names no
/// counter block or observer (the `serve` helper) counts into the
/// service's own edge counters and records its phases into the handle's
/// observer: the scrape reports the traffic it carried.
#[test]
fn an_edge_server_counts_into_the_service_it_serves() {
    let server = serve(warmed_handle());
    let client = HttpClient::new(server.addr());
    const N: usize = 6;
    for _ in 0..N {
        assert!(client
            .get("/healthz")
            .expect("liveness")
            .status
            .is_success());
    }
    let text = client.get("/metrics").expect("scrape /metrics").body_text();
    let requests: usize = text
        .lines()
        .find_map(|l| l.strip_prefix("funcproxy_edge_requests_total "))
        .and_then(|v| v.parse().ok())
        .expect("edge requests sample");
    assert!(
        requests >= N,
        "funcproxy_edge_requests_total {requests} < {N}"
    );
    for phase in ["accept", "parse"] {
        let recorded = text.lines().any(|l| {
            l.starts_with(&format!(
                "funcproxy_phase_latency_seconds_count{{phase=\"{phase}\""
            )) && !l.ends_with(" 0")
        });
        assert!(recorded, "edge phase `{phase}` has no samples");
    }
    server.shutdown();
}

/// Every family the registry declares reaches a live scrape of the
/// shipping service, once each, and the retirement family counts real
/// evictions: a small RAM budget over a slab tier demotes while the disk
/// is healthy and evicts once every slab append fails.
#[test]
fn every_declared_family_reaches_a_live_scrape() {
    let site = SkySite::new(Catalog::generate(&CatalogSpec {
        seed: 5,
        objects: 8_000,
        ..CatalogSpec::default()
    }));
    let dir = std::env::temp_dir().join(format!("fp_observe_scrape_{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    let io = SlabIo::healthy();
    let handle = ProxyHandle::with_shards(
        TemplateManager::with_sky_defaults(),
        Arc::new(SiteOrigin::new(site)),
        ProxyConfig::default()
            .with_scheme(Scheme::FullSemantic)
            .with_cost(CostModel::free())
            .with_capacity(Some(8_000))
            .with_tier_config(TierConfig::new(&dir).with_io(io.clone())),
        1,
    );
    let server = serve(handle.clone());
    let client = HttpClient::new(server.addr());
    let radial = |ra: u32, dec: i32| {
        let url = format!("/search/radial?ra={ra}&dec={dec}&radius=10");
        assert!(
            client.get(&url).expect("serve").status.is_success(),
            "{url}"
        );
    };
    // Misses that demote each other, then hits from RAM and the slab.
    for _ in 0..2 {
        (181..187).for_each(|ra| radial(ra, 0));
    }
    // A full disk: the budget can no longer demote, so it evicts.
    io.inject(IoOp::Append, IoFault::Enospc);
    (181..187).for_each(|ra| radial(ra, 2));
    let cache = handle.cache_stats();
    assert!(cache.demotions >= 1 && cache.evictions >= 1, "{cache:?}");
    let text = client.get("/metrics").expect("scrape /metrics").body_text();

    // (a) Every family of the three counter sets is declared exactly once.
    let mut families = Vec::new();
    let mut collect = |s: Sample<'_>| {
        if !families.contains(&s.family.name) {
            families.push(s.family.name);
        }
    };
    RuntimeSnapshot::default().families(&mut collect);
    CacheStats::default().families(&mut collect);
    EdgeSnapshot::default().families(&mut collect);
    assert!(families.len() > 50, "only {} families", families.len());
    for family in families {
        let declared = text
            .lines()
            .filter(|l| l.strip_prefix("# TYPE ").and_then(|r| r.split(' ').next()) == Some(family))
            .count();
        assert_eq!(declared, 1, "`{family}` declared {declared} times");
    }

    // Every family `/metrics` served before the registry keeps its name
    // and type: a rename in a declaration fails here, not only in a
    // dashboard.
    for family in [
        "funcproxy_requests_total counter",
        "funcproxy_coalesced_total counter",
        "funcproxy_flights_led_total counter",
        "funcproxy_degraded_hits_total counter",
        "funcproxy_stale_hits_total counter",
        "funcproxy_revalidations_total counter",
        "funcproxy_disk_hits_total counter",
        "funcproxy_demotions_total counter",
        "funcproxy_promotions_total counter",
        "funcproxy_slab_compactions_total counter",
        "funcproxy_slab_corrupt_segments_total counter",
        "funcproxy_tier_degraded_total counter",
        "funcproxy_tier_recoveries_total counter",
        "funcproxy_slab_io_errors_total counter",
        "funcproxy_read_repairs_total counter",
        "funcproxy_snapshot_io_errors_total counter",
        "funcproxy_origin_timeouts_total counter",
        "funcproxy_origin_retries_total counter",
        "funcproxy_breaker_opens_total counter",
        "funcproxy_peer_probes_total counter",
        "funcproxy_peer_hits_total counter",
        "funcproxy_peer_probe_failures_total counter",
        "funcproxy_lock_wait_seconds_total counter",
        "funcproxy_scheme_switches_total counter",
        "funcproxy_scheme_serves_total counter",
        "funcproxy_breaker_open gauge",
        "funcproxy_origin_backoff_hint_ms gauge",
        "funcproxy_disk_entries gauge",
        "funcproxy_slab_bytes gauge",
        "funcproxy_phase_latency_seconds histogram",
        "funcproxy_request_latency_seconds histogram",
        "funcproxy_edge_conns_accepted_total counter",
        "funcproxy_edge_conns_rejected_total counter",
        "funcproxy_edge_requests_total counter",
        "funcproxy_edge_fast_path_total counter",
        "funcproxy_edge_offloaded_total counter",
        "funcproxy_edge_shed_queue_full_total counter",
        "funcproxy_edge_shed_breaker_total counter",
        "funcproxy_edge_shed_draining_total counter",
        "funcproxy_edge_read_timeouts_total counter",
        "funcproxy_edge_bad_requests_total counter",
        "funcproxy_edge_pipelined_total counter",
        "funcproxy_edge_conns_open gauge",
    ] {
        let declared = text.matches(&format!("# TYPE {family}\n")).count();
        assert_eq!(declared, 1, "`# TYPE {family}` declared {declared} times");
    }

    // (b) The retirement family counts the evictions under ENOSPC.
    let evicted = text
        .lines()
        .find_map(|l| l.strip_prefix("funcproxy_cache_retired_total{reason=\"evicted\"} "))
        .and_then(|v| v.parse::<f64>().ok())
        .expect("evicted sample");
    assert!(evicted >= 1.0, "evicted = {evicted}");

    // (c) The edge reactor recorded its own phases into the histograms.
    for phase in ["accept", "parse", "queue_wait", "handoff"] {
        let recorded = text.lines().any(|l| {
            l.starts_with(&format!(
                "funcproxy_phase_latency_seconds_count{{phase=\"{phase}\""
            )) && !l.ends_with(" 0")
        });
        assert!(recorded, "edge phase `{phase}` has no samples");
    }
    server.shutdown();
    std::fs::remove_dir_all(&dir).ok();
}

/// Minimal recursive-descent JSON syntax checker (the vendored
/// `serde_json` stand-in has no dynamic `Value` type). Panics with a
/// byte offset on the first syntax error.
fn assert_valid_json(text: &str) {
    fn skip_ws(b: &[u8], mut i: usize) -> usize {
        while i < b.len() && matches!(b[i], b' ' | b'\t' | b'\n' | b'\r') {
            i += 1;
        }
        i
    }
    fn value(b: &[u8], i: usize) -> usize {
        let i = skip_ws(b, i);
        match b.get(i) {
            Some(b'{') => {
                let mut i = skip_ws(b, i + 1);
                if b.get(i) == Some(&b'}') {
                    return i + 1;
                }
                loop {
                    i = string(b, skip_ws(b, i));
                    i = skip_ws(b, i);
                    assert_eq!(b.get(i), Some(&b':'), "expected `:` at byte {i}");
                    i = skip_ws(b, value(b, i + 1));
                    match b.get(i) {
                        Some(b',') => i += 1,
                        Some(b'}') => return i + 1,
                        other => panic!("expected `,` or `}}` at byte {i}, got {other:?}"),
                    }
                }
            }
            Some(b'[') => {
                let mut i = skip_ws(b, i + 1);
                if b.get(i) == Some(&b']') {
                    return i + 1;
                }
                loop {
                    i = skip_ws(b, value(b, i));
                    match b.get(i) {
                        Some(b',') => i += 1,
                        Some(b']') => return i + 1,
                        other => panic!("expected `,` or `]` at byte {i}, got {other:?}"),
                    }
                }
            }
            Some(b'"') => string(b, i),
            Some(b't') if b[i..].starts_with(b"true") => i + 4,
            Some(b'f') if b[i..].starts_with(b"false") => i + 5,
            Some(b'n') if b[i..].starts_with(b"null") => i + 4,
            Some(c) if c.is_ascii_digit() || *c == b'-' => {
                let mut j = i + 1;
                while j < b.len() && matches!(b[j], b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-')
                {
                    j += 1;
                }
                std::str::from_utf8(&b[i..j])
                    .ok()
                    .and_then(|s| s.parse::<f64>().ok())
                    .unwrap_or_else(|| panic!("bad number at byte {i}"));
                j
            }
            other => panic!("unexpected token at byte {i}: {other:?}"),
        }
    }
    fn string(b: &[u8], i: usize) -> usize {
        assert_eq!(b.get(i), Some(&b'"'), "expected `\"` at byte {i}");
        let mut i = i + 1;
        while i < b.len() {
            match b[i] {
                b'\\' => i += 2,
                b'"' => return i + 1,
                _ => i += 1,
            }
        }
        panic!("unterminated string");
    }
    let b = text.as_bytes();
    let end = skip_ws(b, value(b, 0));
    assert_eq!(end, b.len(), "trailing bytes after JSON value");
}

#[test]
fn trace_endpoints_export_chrome_json_and_jsonl() {
    let handle = warmed_handle();
    let server = serve(handle);
    let client = HttpClient::new(server.addr());

    // Default export: a chrome://tracing document of complete events.
    let response = client.get("/debug/trace").expect("fetch trace");
    assert_eq!(
        response.headers.get("Content-Type"),
        Some("application/json")
    );
    let body = response.body_text();
    assert_valid_json(&body);
    assert!(body.starts_with("{\"traceEvents\":["));
    let events: Vec<&str> = body["{\"traceEvents\":[".len()..]
        .trim_end_matches("]}")
        .split("},{")
        .filter(|e| !e.is_empty())
        .collect();
    assert!(
        !events.is_empty(),
        "1-in-1 sampling over three requests must buffer spans"
    );
    for e in &events {
        assert!(e.contains("\"ph\":\"X\""), "complete events only: {e}");
        assert!(
            e.contains("\"ts\":") && e.contains("\"dur\":"),
            "bad event: {e}"
        );
        assert!(e.contains("\"args\":{\"trace\":"), "untagged event: {e}");
    }
    for name in ["request", "origin.fetch", "serialize"] {
        assert!(
            body.contains(&format!("\"name\":\"{name}\"")),
            "span `{name}` missing from the chrome export"
        );
    }

    // JSON Lines export: one parseable object per line.
    let response = client
        .get("/debug/trace?format=jsonl")
        .expect("fetch jsonl trace");
    assert_eq!(
        response.headers.get("Content-Type"),
        Some("application/x-ndjson")
    );
    let body = response.body_text();
    assert!(!body.trim().is_empty());
    for line in body.lines() {
        assert_valid_json(line);
        assert!(line.contains("\"trace\":") && line.contains("\"dur_us\":"));
        assert!(line.contains("\"name\":\""));
    }

    server.shutdown();
}

/// A proxy over a chaos origin, for driving the Retry-After chain.
fn chaos_fixture() -> (ProxyHandle, Arc<ChaosOrigin>) {
    let clock = MockClock::shared();
    let site = SkySite::new(Catalog::generate(&CatalogSpec {
        seed: 5,
        objects: 8_000,
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
            .with_resilience(ResilienceConfig::fast_test()),
        2,
        Arc::clone(&clock) as Arc<dyn Clock>,
    );
    (handle, chaos)
}

/// Regression for the `Retry-After` bugfix: with the breaker still
/// closed, a transient failure must fall back to the retry scheduler's
/// next backoff delay instead of omitting the header entirely.
#[test]
fn retry_after_falls_back_to_backoff_hint_when_breaker_closed() {
    let (handle, chaos) = chaos_fixture();
    chaos.set_default_fault(Fault::Unavailable);

    let err = handle
        .handle_form_xml("/search/radial", &radial(185.0, 0.0, 10.0))
        .unwrap_err();
    let stats = handle.runtime_stats();
    assert_eq!(
        stats.resilience.breaker_retry_after_ms, 0,
        "two failures must not open the fast_test breaker (threshold 3)"
    );
    assert!(
        stats.resilience.backoff_hint_ms > 0,
        "the retried fetch must publish its backoff delay as a hint"
    );

    let secs = handle
        .retry_after_secs(&err)
        .expect("transient failure carries a Retry-After");
    assert!(secs >= 1, "Retry-After must round up to at least 1s");
    assert_eq!(secs, stats.resilience.backoff_hint_ms.div_ceil(1000).max(1));
}

#[test]
fn retry_after_reports_breaker_cooldown_once_open() {
    let (handle, chaos) = chaos_fixture();
    chaos.set_default_fault(Fault::Unavailable);

    // fast_test opens the breaker after 3 consecutive failures; two
    // requests (one retry each) push the count past the threshold.
    let mut last = None;
    for _ in 0..2 {
        last = Some(
            handle
                .handle_form_xml("/search/radial", &radial(185.0, 0.0, 10.0))
                .unwrap_err(),
        );
    }
    let stats = handle.runtime_stats();
    assert!(
        stats.resilience.breaker_retry_after_ms > 0,
        "breaker must be open"
    );

    let secs = handle
        .retry_after_secs(&last.expect("at least one error"))
        .expect("open breaker implies a transient failure");
    assert_eq!(
        secs,
        stats
            .resilience
            .breaker_retry_after_ms
            .div_ceil(1000)
            .max(1)
    );
}

#[test]
fn retry_after_is_absent_for_non_transient_errors() {
    let (handle, chaos) = chaos_fixture();
    chaos.script(vec![Fault::Rejected]);
    let err = handle
        .handle_form_xml("/search/radial", &radial(185.0, 0.0, 10.0))
        .unwrap_err();
    assert_eq!(
        handle.retry_after_secs(&err),
        None,
        "a rejection is the client's problem, not a capacity signal"
    );
}
