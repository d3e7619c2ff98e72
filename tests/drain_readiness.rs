//! A drain over real sockets, the way `examples/http_proxy.rs` runs one
//! on SIGINT/SIGTERM: the process-wide interrupt flag turns `/readyz`
//! to `503`, a request already in flight still completes, and
//! `shutdown_graceful` returns. Its own test binary, because the flag is
//! process-global: set inside a shared binary it would turn every other
//! test's `/readyz` into `503`.

use fp_suite::edge::sys::install_interrupt_flag;
use fp_suite::edge::{EdgeConfig, EdgeServer, ProxyEdgeService};
use fp_suite::httpd::HttpClient;
use fp_suite::proxy::template::TemplateManager;
use fp_suite::proxy::{CostModel, CountingOrigin, ProxyConfig, ProxyHandle, Scheme, SiteOrigin};
use fp_suite::skyserver::{Catalog, CatalogSpec, SkySite};
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::{Duration, Instant};

#[test]
fn an_interrupt_turns_readiness_off_and_the_drain_finishes_in_flight_work() {
    let site = SkySite::new(Catalog::generate(&CatalogSpec::small_test()));
    // A slow origin keeps the miss in flight while the drain begins.
    let origin =
        CountingOrigin::with_delay(Arc::new(SiteOrigin::new(site)), Duration::from_millis(300));
    let handle = ProxyHandle::new(
        TemplateManager::with_sky_defaults(),
        Arc::new(origin),
        ProxyConfig::default()
            .with_scheme(Scheme::FullSemantic)
            .with_cost(CostModel::free()),
    );
    let server = EdgeServer::bind(
        "127.0.0.1:0",
        Arc::new(ProxyEdgeService::new(handle)),
        EdgeConfig::default().with_workers(2),
    )
    .unwrap();
    let addr = server.addr();
    assert_eq!(HttpClient::new(addr).get("/readyz").unwrap().status.0, 200);

    let in_flight = std::thread::spawn(move || {
        HttpClient::new(addr)
            .get("/search/radial?ra=185.0&dec=0.5&radius=20")
            .expect("the in-flight request is answered")
    });
    let deadline = Instant::now() + Duration::from_secs(5);
    while server.stats().offloaded == 0 && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(5));
    }
    assert_eq!(server.stats().offloaded, 1, "the miss reached a worker");

    // What SIGINT/SIGTERM do: set the flag `/readyz` reads.
    install_interrupt_flag().store(true, Ordering::Relaxed);
    let ready = HttpClient::new(addr).get("/readyz").unwrap();
    assert_eq!(ready.status.0, 503, "a draining node reports not-ready");

    let started = Instant::now();
    server.shutdown_graceful(Duration::from_secs(5));
    assert!(
        started.elapsed() < Duration::from_secs(5),
        "the drain returns once in-flight work is done"
    );
    let reply = in_flight.join().unwrap();
    assert_eq!(reply.status.0, 200);
    assert_eq!(reply.headers.get("X-Cache-Outcome"), Some("forwarded"));
}
