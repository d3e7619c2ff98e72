//! The heap-allocation budget of a RAM hit on the reactor's path:
//! `read_request` → `ProxyEdgeService::try_fast` → `Response::write_head`.
//!
//! A count is deterministic where a timing is not, so this is the
//! regression guard for the hit path's cost. Building the concrete query
//! AST alone is more than thirty allocations, so staying inside the
//! budget also shows that a fast-path hit never builds one. The size of
//! the largest allocation shows the other thing a hit must not do:
//! copy the rows it serves.

use fp_edge::{EdgeService, ProxyEdgeService, INLINE_BODY_MAX};
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

/// No allocation of a hit on a large entry may reach this size: the
/// reply's rows stay in the entry's slab (the parent commit made one
/// allocation of body size, 118 KB and 447 KB for the entries below).
const LARGEST: usize = 16 * 1024;

thread_local! {
    /// Calls into the allocator that obtain memory (`alloc`,
    /// `alloc_zeroed`, `realloc`) made by this thread.
    static ALLOCATIONS: Cell<usize> = const { Cell::new(0) };
    /// The largest size any of those calls asked for since it was last
    /// reset.
    static LARGEST_ASKED: Cell<usize> = const { Cell::new(0) };
}

struct Counting;

fn count(size: usize) {
    // `try_with`: the allocator also runs while a thread is torn down.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
    let _ = LARGEST_ASKED.try_with(|n| n.set(n.get().max(size)));
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// whose contract is the one this trait states; counting touches only a
// `const`-initialised thread-local `Cell`, which never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
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

/// What serving one hit as the reactor does cost the allocator.
struct Spent {
    /// Allocations made.
    count: usize,
    /// Size of the largest.
    largest: usize,
    /// Length of the reply's whole body.
    body_len: usize,
}

/// Serves `wire` as the reactor does and returns what that took, after
/// checking the reply is the hit it should be.
fn allocations_of_hit(service: &ProxyEdgeService, wire: &[u8], outcome: &str) -> Spent {
    let mut head = Vec::with_capacity(512); // the reactor's reply buffer
    let before = ALLOCATIONS.with(Cell::get);
    LARGEST_ASKED.with(|n| n.set(0));
    let request = read_request(&mut &wire[..])
        .expect("well-formed")
        .expect("one request");
    let response = service.try_fast(&request).expect("a warm cone is a hit");
    response.write_head(&mut head);
    let spent = Spent {
        count: ALLOCATIONS.with(Cell::get) - before,
        largest: LARGEST_ASKED.with(Cell::get),
        body_len: response.body_len(),
    };
    assert_eq!(response.headers.get("X-Cache-Outcome"), Some(outcome));
    assert!(!response.body.is_empty());
    spent
}

fn service() -> ProxyEdgeService {
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
    ProxyEdgeService::new(handle)
}

fn warm(service: &ProxyEdgeService, ra: f64, dec: f64, radius: f64) {
    let target = format!("/search/radial?ra={ra}&dec={dec}&radius={radius}");
    let reply = service.handle(&Request::get(&target));
    assert_eq!(
        reply.headers.get("X-Cache-Outcome"),
        Some("forwarded"),
        "{target}"
    );
}

#[test]
fn a_ram_hit_stays_inside_its_allocation_budget() {
    let service = service();

    // Fifty disjoint 3′ cones, 0.25° apart: replies of a few hundred
    // bytes to 2 KB, like `hit_small`'s.
    let cones: Vec<(f64, f64)> = (0..50)
        .map(|i| {
            (
                183.0 + f64::from(i % 10) * 0.25,
                -0.5 + f64::from(i / 10) * 0.25,
            )
        })
        .collect();
    for &(ra, dec) in &cones {
        warm(&service, ra, dec, 3.0);
    }

    for &(ra, dec) in &cones {
        for (outcome, wire) in [
            ("exact", wire(ra, dec, 3.0)),
            ("contained", wire(ra + 0.01, dec, 1.5)),
        ] {
            let spent = allocations_of_hit(&service, &wire, outcome);
            assert!(
                spent.count <= BUDGET,
                "{outcome} hit: {} allocations > {BUDGET}",
                spent.count
            );
            // Small enough that the reactor appends the body to the
            // head: the reply is queued as one buffer.
            assert!(spent.body_len <= INLINE_BODY_MAX, "{}", spent.body_len);
        }
    }
}

/// Hits on large entries cost no more allocations than hits on small
/// ones and never one of the reply's size: the rows are lent, so what is
/// allocated does not grow with what is served.
#[test]
fn a_large_ram_hit_copies_no_rows() {
    let service = service();
    // 118 KB and 447 KB entries; sub-cones off-centre, so that their rows
    // are scattered over the entry (the origin answers nearest first).
    for (ra, dec, radius, sub) in [(185.0, 1.5, 30.0, 22.0), (188.0, 0.0, 60.0, 50.0)] {
        warm(&service, ra, dec, radius);
        for (outcome, wire) in [
            ("exact", wire(ra, dec, radius)),
            ("contained", wire(ra + 0.1, dec, sub)),
        ] {
            // The first hit grows this thread's selection buffers.
            allocations_of_hit(&service, &wire, outcome);
            let spent = allocations_of_hit(&service, &wire, outcome);
            assert!(spent.body_len > 50_000, "{outcome}: {}", spent.body_len);
            assert!(
                spent.count <= BUDGET,
                "{outcome} hit on a {radius}′ entry: {} allocations > {BUDGET}",
                spent.count
            );
            assert!(
                spent.largest < LARGEST,
                "{outcome} hit on a {radius}′ entry allocated {} bytes at once",
                spent.largest
            );
        }
    }
}
