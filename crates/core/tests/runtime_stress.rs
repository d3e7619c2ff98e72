//! Concurrency stress tests for the runtime: correctness against a
//! no-cache oracle, single-flight coalescing, and absence of deadlock
//! under contention (the test harness timeout is the watchdog).

use fp_skyserver::{Catalog, CatalogSpec, SkySite};
use funcproxy::origin::CountingOrigin;
use funcproxy::template::TemplateManager;
use funcproxy::{
    ChaosOrigin, CostModel, Fault, OriginError, ProxyConfig, ProxyError, ProxyHandle,
    ProxyResponse, Scheme, SiteOrigin,
};
use std::sync::{Arc, Barrier};
use std::time::Duration;

const THREADS: usize = 8;

fn site() -> SkySite {
    SkySite::new(Catalog::generate(&CatalogSpec::small_test()))
}

fn config() -> ProxyConfig {
    ProxyConfig::default()
        .with_scheme(Scheme::FullSemantic)
        .with_cost(CostModel::free())
}

/// A handle over a fetch-counting origin that sleeps `delay_ms` per
/// fetch to widen race windows, plus the counter itself.
fn counting_handle(site: SkySite, delay_ms: u64) -> (ProxyHandle, Arc<CountingOrigin>) {
    let counting = Arc::new(CountingOrigin::with_delay(
        Arc::new(SiteOrigin::new(site)),
        Duration::from_millis(delay_ms),
    ));
    let handle = ProxyHandle::with_shards(
        TemplateManager::with_sky_defaults(),
        Arc::clone(&counting) as Arc<dyn funcproxy::Origin>,
        config(),
        4,
    );
    (handle, counting)
}

fn radial_fields(ra: f64, dec: f64, radius: f64) -> Vec<(String, String)> {
    vec![
        ("ra".to_string(), ra.to_string()),
        ("dec".to_string(), dec.to_string()),
        ("radius".to_string(), radius.to_string()),
    ]
}

fn ids_of(r: &ProxyResponse) -> Vec<i64> {
    let k = r.result.column_index("objID").unwrap();
    let mut ids: Vec<i64> = r
        .result
        .rows
        .iter()
        .map(|row| row[k].as_i64().unwrap())
        .collect();
    ids.sort_unstable();
    ids
}

/// Ground truth from a no-cache proxy on the same catalog.
fn oracle_ids(site: SkySite, ra: f64, dec: f64, radius: f64) -> Vec<i64> {
    let oracle = ProxyHandle::with_shards(
        TemplateManager::with_sky_defaults(),
        Arc::new(SiteOrigin::new(site)),
        config().with_scheme(Scheme::NoCache),
        1,
    );
    let response = oracle
        .handle_form("/search/radial", &radial_fields(ra, dec, radius))
        .unwrap();
    ids_of(&response)
}

#[test]
fn identical_concurrent_queries_fetch_the_origin_once() {
    let site = site();
    let (handle, counting) = counting_handle(site.clone(), 50);
    let barrier = Barrier::new(THREADS);

    let responses: Vec<ProxyResponse> = std::thread::scope(|scope| {
        let tasks: Vec<_> = (0..THREADS)
            .map(|_| {
                let handle = handle.clone();
                let barrier = &barrier;
                scope.spawn(move || {
                    barrier.wait();
                    handle
                        .handle_form("/search/radial", &radial_fields(185.0, 0.0, 20.0))
                        .unwrap()
                })
            })
            .collect();
        tasks.into_iter().map(|t| t.join().unwrap()).collect()
    });

    // The acceptance bar: one WAN fetch total, zero duplicates.
    assert_eq!(counting.fetches(), 1, "identical queries must coalesce");
    assert_eq!(counting.duplicate_fetches(), 0);

    let truth = oracle_ids(site, 185.0, 0.0, 20.0);
    assert!(!truth.is_empty(), "hotspot region should be populated");
    for response in &responses {
        assert_eq!(ids_of(response), truth);
    }

    let stats = handle.runtime_stats();
    assert_eq!(stats.requests, THREADS);
    assert_eq!(stats.flights_led, 1);
    // Every non-leader was answered without its own fetch: either it
    // piggybacked on the flight or it hit the freshly cached entry.
    let served_without_fetch = responses
        .iter()
        .filter(|r| r.metrics.rows_from_cache == r.metrics.rows_total)
        .count();
    assert_eq!(served_without_fetch, THREADS - 1);
    assert_eq!(
        stats.duplicate_fetches_avoided,
        responses.iter().filter(|r| r.metrics.coalesced).count()
    );
}

#[test]
fn contained_concurrent_queries_wait_for_the_covering_flight() {
    let site = site();
    let (handle, counting) = counting_handle(site.clone(), 100);

    let responses: Vec<(f64, ProxyResponse)> = std::thread::scope(|scope| {
        let leader = {
            let handle = handle.clone();
            scope.spawn(move || {
                handle
                    .handle_form("/search/radial", &radial_fields(185.0, 0.0, 25.0))
                    .unwrap()
            })
        };
        // Give the big query time to take off, then pile on subsumed
        // queries while its fetch is still in flight.
        std::thread::sleep(Duration::from_millis(20));
        let followers: Vec<_> = (0..THREADS - 1)
            .map(|i| {
                let handle = handle.clone();
                let radius = 5.0 + i as f64;
                scope.spawn(move || {
                    let response = handle
                        .handle_form("/search/radial", &radial_fields(185.0, 0.0, radius))
                        .unwrap();
                    (radius, response)
                })
            })
            .collect();
        let mut all = vec![(25.0, leader.join().unwrap())];
        all.extend(followers.into_iter().map(|t| t.join().unwrap()));
        all
    });

    // Only the covering query ever reached the origin.
    assert_eq!(counting.fetches(), 1, "contained queries must coalesce");
    for (radius, response) in &responses {
        assert_eq!(
            ids_of(response),
            oracle_ids(site.clone(), 185.0, 0.0, *radius),
            "radius {radius} answer must match the origin's"
        );
    }
}

#[test]
fn contained_hit_storm_pins_byte_identical_responses() {
    let site = site();
    let (handle, counting) = counting_handle(site.clone(), 0);

    // Warm one large entry, then hammer a subsumed query from all
    // threads: every response is assembled off-lock from the entry's
    // columnar slab and must be byte-for-byte identical.
    handle
        .handle_form("/search/radial", &radial_fields(185.0, 0.0, 30.0))
        .unwrap();
    assert_eq!(counting.fetches(), 1);

    let reference = handle
        .handle_form_xml("/search/radial", &radial_fields(185.0, 0.0, 12.0))
        .unwrap();
    assert_eq!(reference.metrics.outcome.label(), "contained");
    assert!(
        reference.metrics.rows_total > 0,
        "storm region is populated"
    );

    let barrier = Barrier::new(THREADS);
    let bodies: Vec<Vec<Vec<u8>>> = std::thread::scope(|scope| {
        let tasks: Vec<_> = (0..THREADS)
            .map(|_| {
                let handle = handle.clone();
                let barrier = &barrier;
                scope.spawn(move || {
                    barrier.wait();
                    (0..16)
                        .map(|_| {
                            let r = handle
                                .handle_form_xml("/search/radial", &radial_fields(185.0, 0.0, 12.0))
                                .unwrap();
                            assert_eq!(r.metrics.outcome.label(), "contained");
                            r.body
                        })
                        .collect()
                })
            })
            .collect();
        tasks.into_iter().map(|t| t.join().unwrap()).collect()
    });
    for body in bodies.iter().flatten() {
        assert_eq!(body, &reference.body);
    }

    // The storm never touched the origin and never fell back to
    // row-major evaluation.
    assert_eq!(counting.fetches(), 1);
    assert_eq!(handle.runtime_stats().local_eval_fallbacks, 0);

    // And the byte responses agree with the row pipeline + the oracle.
    let rows = handle
        .handle_form("/search/radial", &radial_fields(185.0, 0.0, 12.0))
        .unwrap();
    assert_eq!(
        rows.result.to_xml_string().into_bytes(),
        reference.body,
        "row and byte serving must agree"
    );
    assert_eq!(ids_of(&rows), oracle_ids(site, 185.0, 0.0, 12.0));
}

#[test]
fn failing_flight_storm_attempts_the_origin_exactly_once() {
    // A cold cache, a dead origin, and 8 identical concurrent queries:
    // the leader's one failed fetch must be the *only* origin attempt —
    // its error is published to every follower, and no follower starts
    // a fresh flight (that would be a retry storm against a downed
    // site).
    let chaos = Arc::new(ChaosOrigin::new(Arc::new(SiteOrigin::new(site()))));
    chaos.set_default_fault(Fault::Unavailable);
    // Count fetches *beneath* the chaos layer is impossible (chaos
    // fails before calling through), so count above it instead: the
    // chaos wrapper itself records every execute call, and the slow
    // counting layer widens the race window.
    let counting = Arc::new(CountingOrigin::with_delay(
        Arc::clone(&chaos) as Arc<dyn funcproxy::Origin>,
        Duration::from_millis(50),
    ));
    let handle = ProxyHandle::with_shards(
        TemplateManager::with_sky_defaults(),
        Arc::clone(&counting) as Arc<dyn funcproxy::Origin>,
        config(),
        4,
    );
    let barrier = Barrier::new(THREADS);

    let results: Vec<Result<ProxyResponse, ProxyError>> = std::thread::scope(|scope| {
        let tasks: Vec<_> = (0..THREADS)
            .map(|_| {
                let handle = handle.clone();
                let barrier = &barrier;
                scope.spawn(move || {
                    barrier.wait();
                    handle.handle_form("/search/radial", &radial_fields(185.0, 0.0, 20.0))
                })
            })
            .collect();
        tasks.into_iter().map(|t| t.join().unwrap()).collect()
    });

    assert_eq!(
        counting.fetches(),
        1,
        "a failed flight must not trigger follower refetches"
    );
    for result in &results {
        assert!(
            matches!(result, Err(ProxyError::Origin(OriginError::Unavailable(_)))),
            "every request sees the one published failure, got {result:?}"
        );
    }
    assert_eq!(handle.runtime_stats().flights_led, 1);
    assert_eq!(handle.cache_stats().entries, 0, "failures are not cached");
}

#[test]
fn disjoint_concurrent_queries_proceed_independently() {
    let site = site();
    let (handle, counting) = counting_handle(site.clone(), 20);
    let barrier = Barrier::new(THREADS);

    // Disjoint 6'-radius circles spread 30' apart: same template (same
    // residual group, same shard), no spatial relationship.
    let centers: Vec<f64> = (0..THREADS).map(|i| 183.0 + i as f64 * 0.5).collect();
    let responses: Vec<(f64, ProxyResponse)> = std::thread::scope(|scope| {
        let tasks: Vec<_> = centers
            .iter()
            .map(|&ra| {
                let handle = handle.clone();
                let barrier = &barrier;
                scope.spawn(move || {
                    barrier.wait();
                    let response = handle
                        .handle_form("/search/radial", &radial_fields(ra, 0.0, 6.0))
                        .unwrap();
                    (ra, response)
                })
            })
            .collect();
        tasks.into_iter().map(|t| t.join().unwrap()).collect()
    });

    assert_eq!(
        counting.fetches(),
        THREADS,
        "disjoint queries cannot coalesce"
    );
    assert_eq!(counting.duplicate_fetches(), 0);
    assert_eq!(handle.cache_stats().entries, THREADS);
    for (ra, response) in &responses {
        assert_eq!(ids_of(response), oracle_ids(site.clone(), *ra, 0.0, 6.0));
    }
}

/// Concurrent misses overlap their origin waits: eight disjoint cones
/// in one shard, each fetch sleeping 100 ms, finish together in well
/// under the 800 ms a fetch serialized behind the shard lock would take.
#[test]
fn concurrent_misses_overlap_their_origin_waits() {
    let (handle, counting) = counting_handle(site(), 100);
    let barrier = Barrier::new(THREADS);
    let started = std::time::Instant::now();
    std::thread::scope(|scope| {
        for i in 0..THREADS {
            let handle = handle.clone();
            let barrier = &barrier;
            scope.spawn(move || {
                barrier.wait();
                let ra = 183.0 + i as f64 * 0.5;
                handle
                    .handle_form("/search/radial", &radial_fields(ra, 0.0, 6.0))
                    .unwrap();
            });
        }
    });
    let elapsed = started.elapsed();
    assert_eq!(counting.fetches(), THREADS);
    assert!(
        elapsed < Duration::from_millis(400),
        "{THREADS} concurrent misses took {elapsed:?}: origin waits did not overlap"
    );
}

#[test]
fn mixed_concurrent_workload_matches_the_single_threaded_proxy() {
    let site = site();
    let (handle, counting) = counting_handle(site.clone(), 5);
    let barrier = Barrier::new(THREADS);

    // Each thread interleaves identical, contained, overlapping and
    // disjoint queries against the shared handle.
    let queries: Vec<(f64, f64, f64)> = vec![
        (185.0, 0.0, 20.0),               // repeated hot query
        (185.0, 0.0, 8.0),                // contained in it
        (185.0 + 25.0 / 60.0, 0.0, 15.0), // overlaps it
        (183.0, 1.0, 6.0),                // disjoint
    ];

    let all: Vec<(f64, f64, f64, ProxyResponse)> = std::thread::scope(|scope| {
        let tasks: Vec<_> = (0..THREADS)
            .map(|t| {
                let handle = handle.clone();
                let queries = queries.clone();
                let barrier = &barrier;
                scope.spawn(move || {
                    barrier.wait();
                    let mut out = Vec::new();
                    for i in 0..queries.len() {
                        // Stagger the starting point per thread.
                        let (ra, dec, radius) = queries[(i + t) % queries.len()];
                        let response = handle
                            .handle_form("/search/radial", &radial_fields(ra, dec, radius))
                            .unwrap();
                        out.push((ra, dec, radius, response));
                    }
                    out
                })
            })
            .collect();
        tasks.into_iter().flat_map(|t| t.join().unwrap()).collect()
    });

    for (ra, dec, radius, response) in &all {
        assert_eq!(
            ids_of(response),
            oracle_ids(site.clone(), *ra, *dec, *radius),
            "query ({ra}, {dec}, {radius}) must match the origin's answer"
        );
    }
    // Far fewer fetches than requests: the cache and the coalescer
    // absorbed the repeats (at most one fetch per distinct query plus
    // the overlap remainder).
    let requests = handle.runtime_stats().requests;
    assert_eq!(requests, THREADS * queries.len());
    assert!(
        counting.fetches() <= queries.len() + 1,
        "expected at most {} fetches, saw {}",
        queries.len() + 1,
        counting.fetches()
    );
}

/// Mid-storm snapshots must preserve the cross-counter invariants the
/// `RuntimeStats` docs promise (derived counters acquire-read first,
/// `requests` last): no snapshot may ever report more coalesced hits,
/// led flights or stale hits than requests, nor more revalidations
/// than stale hits. A sampler thread races `runtime_stats()` against
/// the 8-thread storm; afterwards the observer's outcome histograms
/// must hold exactly one sample per request.
#[test]
fn mid_storm_snapshots_preserve_counter_invariants() {
    use funcproxy::LifecycleConfig;
    use std::sync::atomic::{AtomicBool, Ordering};

    let (handle, _counting) = {
        let counting = Arc::new(CountingOrigin::with_delay(
            Arc::new(SiteOrigin::new(site())),
            Duration::from_millis(1),
        ));
        let handle = ProxyHandle::with_shards(
            TemplateManager::with_sky_defaults(),
            Arc::clone(&counting) as Arc<dyn funcproxy::Origin>,
            // A 15 ms TTL inside a wide stale window makes the hot
            // entry go stale repeatedly *during* the storm, so the
            // stale-hit and revalidation counters race for real.
            config().with_lifecycle(
                LifecycleConfig::default()
                    .with_default_ttl(Duration::from_millis(15))
                    .with_stale_while_revalidate(Duration::from_secs(10)),
            ),
            4,
        );
        (handle, counting)
    };
    handle
        .handle_form("/search/radial", &radial_fields(185.0, 0.0, 20.0))
        .unwrap();

    let done = AtomicBool::new(false);
    let barrier = Barrier::new(THREADS);
    std::thread::scope(|scope| {
        for t in 0..THREADS {
            let handle = handle.clone();
            let barrier = &barrier;
            scope.spawn(move || {
                barrier.wait();
                for i in 0..40 {
                    // Exact repeats, contained hits and occasional
                    // pauses past the TTL, staggered per thread.
                    let radius = if (i + t) % 3 == 0 { 20.0 } else { 12.0 };
                    handle
                        .handle_form("/search/radial", &radial_fields(185.0, 0.0, radius))
                        .unwrap();
                    if (i + t) % 8 == 0 {
                        std::thread::sleep(Duration::from_millis(4));
                    }
                }
            });
        }
        let sampler = handle.clone();
        let done = &done;
        scope.spawn(move || {
            while !done.load(Ordering::Relaxed) {
                let s = sampler.runtime_stats();
                assert!(
                    s.coalesced_exact + s.coalesced_contained <= s.requests,
                    "torn snapshot: {} coalesced > {} requests",
                    s.coalesced_exact + s.coalesced_contained,
                    s.requests
                );
                assert!(
                    s.flights_led <= s.requests,
                    "torn snapshot: {} flights > {} requests",
                    s.flights_led,
                    s.requests
                );
                assert!(
                    s.stale_hits <= s.requests,
                    "torn snapshot: {} stale hits > {} requests",
                    s.stale_hits,
                    s.requests
                );
                assert!(
                    s.revalidations <= s.stale_hits,
                    "torn snapshot: {} revalidations > {} stale hits",
                    s.revalidations,
                    s.stale_hits
                );
                std::thread::yield_now();
            }
        });
        // Scoped threads only join at scope exit, so a watcher flips
        // the sampler's stop flag once every worker request has landed.
        let watcher = handle.clone();
        scope.spawn(move || {
            while watcher.runtime_stats().requests < 1 + THREADS * 40 {
                std::thread::sleep(Duration::from_millis(2));
            }
            done.store(true, Ordering::Relaxed);
        });
    });

    handle.quiesce_revalidations();
    let stats = handle.runtime_stats();
    assert_eq!(stats.requests, 1 + THREADS * 40);
    assert!(
        stats.stale_hits > 0,
        "the storm should have produced stale hits (TTL 15 ms)"
    );

    // One end-to-end outcome sample per successful request, spread over
    // the per-class histograms — recording never dropped or doubled.
    use funcproxy::observe::OutcomeClass;
    let total: u64 = OutcomeClass::ALL
        .iter()
        .map(|&c| handle.observer().outcome_histogram(c).count())
        .sum();
    assert_eq!(total, stats.requests as u64);
}
