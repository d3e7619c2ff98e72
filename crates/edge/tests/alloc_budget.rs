//! The heap-allocation budget of a RAM hit on the reactor's path:
//! `read_request` → `ProxyEdgeService::try_fast` → `Response::write_head`.
//!
//! A count is deterministic where a timing is not, so this is the
//! regression guard for the hit path's cost. Building the concrete query
//! AST alone is more than thirty allocations, so staying inside the
//! budget also shows that a fast-path hit never builds one.

use fp_edge::{EdgeService, ProxyEdgeService};
use fp_httpd::parse::read_request;
use fp_httpd::Request;
use fp_skyserver::{Catalog, CatalogSpec, SkySite};
use funcproxy::template::TemplateManager;
use funcproxy::{CostModel, ObserveConfig, ProxyConfig, ProxyHandle, Scheme, SiteOrigin};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;

/// Allocations one hit may make, head to tail.
const BUDGET: usize = 24;

thread_local! {
    /// Calls into the allocator that obtain memory (`alloc`,
    /// `alloc_zeroed`, `realloc`) made by this thread.
    static ALLOCATIONS: Cell<usize> = const { Cell::new(0) };
}

struct Counting;

fn count() {
    // `try_with`: the allocator also runs while a thread is torn down.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// whose contract is the one this trait states; counting touches only a
// `const`-initialised thread-local `Cell`, which never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

fn wire(ra: f64, dec: f64, radius: f64) -> Vec<u8> {
    format!("GET /search/radial?ra={ra}&dec={dec}&radius={radius} HTTP/1.1\r\nHost: edge\r\n\r\n")
        .into_bytes()
}

/// Serves `wire` as the reactor does and returns the allocations that
/// took, after checking the reply is the hit it should be.
fn allocations_of_hit(service: &ProxyEdgeService, wire: &[u8], outcome: &str) -> usize {
    let mut head = Vec::with_capacity(512); // the reactor's reply buffer
    let before = ALLOCATIONS.with(Cell::get);
    let request = read_request(&mut &wire[..])
        .expect("well-formed")
        .expect("one request");
    let response = service.try_fast(&request).expect("a warm cone is a hit");
    response.write_head(&mut head);
    let spent = ALLOCATIONS.with(Cell::get) - before;
    assert_eq!(response.headers.get("X-Cache-Outcome"), Some(outcome));
    assert!(!response.body.is_empty());
    spent
}

#[test]
fn a_ram_hit_stays_inside_its_allocation_budget() {
    let site = SkySite::new(Catalog::generate(&CatalogSpec::small_test()));
    let handle = ProxyHandle::with_shards(
        TemplateManager::with_sky_defaults(),
        Arc::new(SiteOrigin::new(site)),
        ProxyConfig::default()
            .with_scheme(Scheme::FullSemantic)
            .with_cost(CostModel::free())
            // A sampled request also records its spans; the budget is
            // that of the fifteen in sixteen that are not.
            .with_observe(ObserveConfig::default().with_sample_every(0)),
        1,
    );
    let service = ProxyEdgeService::new(handle);

    // Fifty disjoint 6′ cones, 0.25° apart.
    let cones: Vec<(f64, f64)> = (0..50)
        .map(|i| {
            (
                183.0 + f64::from(i % 10) * 0.25,
                -0.5 + f64::from(i / 10) * 0.25,
            )
        })
        .collect();
    for &(ra, dec) in &cones {
        let target = format!("/search/radial?ra={ra}&dec={dec}&radius=6");
        let reply = service.handle(&Request::get(&target));
        assert_eq!(
            reply.headers.get("X-Cache-Outcome"),
            Some("forwarded"),
            "{target}"
        );
    }

    for &(ra, dec) in &cones {
        let exact = allocations_of_hit(&service, &wire(ra, dec, 6.0), "exact");
        assert!(exact <= BUDGET, "exact hit: {exact} allocations > {BUDGET}");
        let contained = allocations_of_hit(&service, &wire(ra + 0.01, dec, 3.0), "contained");
        assert!(
            contained <= BUDGET,
            "contained hit: {contained} allocations > {BUDGET}"
        );
    }
}
