//! The proxy runtime: one shared, thread-safe proxy that every front
//! drives — the edge reactor, the fleet, the experiment harness that
//! regenerates the paper's tables, and the examples.
//!
//! A cache behind `&mut self` would be one critical section, useless
//! behind a threaded HTTP server. This module splits it:
//!
//! * [`shard`] — the cache split into `N` independently locked
//!   [`crate::cache::CacheStore`] shards, keyed by the bound query's
//!   residual key. Queries against different templates or predicate
//!   groups never touch the same lock; statistics and replacement
//!   accounting aggregate across shards.
//! * [`singleflight`] — coalescing of origin fetches. Concurrent
//!   requests whose regions are exact-equal to an in-flight query's
//!   region block on that flight and share its result; requests
//!   *contained* in an in-flight region wait for the flight to land and
//!   then take the normal local-evaluation path against the freshly
//!   cached entry. Either way, only one WAN fetch is issued.
//! * [`handle`] — [`ProxyHandle`], the cheap `Arc`-cloneable front the
//!   HTTP router and the trace replayer both use: `handle_sql(&self)`,
//!   `handle_form(&self)` from any thread.
//! * [`RuntimeStats`] / [`RuntimeSnapshot`] — the runtime's counters,
//!   each declared once in a [`crate::counters!`] set that derives the
//!   lock-free atomics, the snapshot (which embeds the cache's
//!   [`CacheStats`] and the resilience layer's [`ResilienceSnapshot`])
//!   and the `/metrics` families.
//!
//! Lock discipline: the flight table lock and a shard lock are never
//! held at the same time, condition-variable waits never hold either,
//! and every request touches exactly one shard (a residual group lives
//! wholly inside one shard, so region-containment compaction never
//! crosses shards). That ordering is what makes the runtime
//! deadlock-free by construction.

pub mod handle;
pub mod shard;
pub mod singleflight;

pub use handle::{DocResponse, ProxyHandle, ProxyResponse, XmlBody, XmlResponse};
pub use shard::ShardedStore;
pub use singleflight::SingleFlight;

use crate::cache::CacheStats;
use crate::observe::registry::{counter, Family, Nanos};
use crate::observe::LatencySummary;
use crate::resilience::ResilienceSnapshot;
use crate::schemes::Scheme;
use serde::Serialize;
use std::sync::atomic::{AtomicUsize, Ordering};

/// Requests that followed an in-flight fetch, by relationship.
const FOLLOWERS: Family = counter(
    "funcproxy_flight_followers_total",
    "Requests that followed an in-flight origin fetch, by relationship.",
);

crate::counters! {
    /// A point-in-time copy of the runtime counters, for reports. The
    /// cache's and the resilience layer's counters ride along embedded.
    #[derive(Debug, Clone, Copy, Default, PartialEq, Serialize)]
    pub struct RuntimeSnapshot {
        /// Background refreshes that reached the origin on behalf of stale
        /// entries.
        revalidations: usize [AtomicUsize] => counter("funcproxy_revalidations_total",
            "Background refreshes reaching the origin.");
        /// Requests answered from expired entries (stale-while-revalidate
        /// or stale-if-error).
        stale_hits: usize [AtomicUsize] => counter("funcproxy_stale_hits_total",
            "Requests answered from expired entries.");
        /// Exact/contained hits served straight from the disk tier's
        /// mmap'd slab (the demoted long tail).
        disk_hits: usize [AtomicUsize] => counter("funcproxy_disk_hits_total",
            "Hits served from the disk tier's mmap'd slab.");
        /// Requests served by piggybacking on an in-flight identical query.
        coalesced_exact: usize [AtomicUsize] => FOLLOWERS, relation = ["exact"];
        /// Requests that waited for a containing in-flight query and were
        /// then answered from the freshly cached entry.
        coalesced_contained: usize [AtomicUsize] => FOLLOWERS, relation = ["contained"];
        /// Duplicate origin fetches avoided by coalescing
        /// (`coalesced_exact + coalesced_contained`).
        duplicate_fetches_avoided: usize => counter("funcproxy_coalesced_total",
            "Requests answered by piggybacking on an in-flight fetch.");
        /// Origin-bound flights actually led (each is at most one WAN fetch).
        flights_led: usize [AtomicUsize] => counter("funcproxy_flights_led_total",
            "Origin-bound flights led.");
        /// Requests whose cached form's columns do not map the template's
        /// coordinates (a segment restored under another registration),
        /// so a contained hit or overlap part fell back to the origin.
        local_eval_fallbacks: usize [AtomicUsize] => counter("funcproxy_local_eval_fallbacks_total",
            "Contained hits whose cached entry was malformed and went to the origin.");
        /// Shard lock acquisitions.
        lock_acquisitions: usize [AtomicUsize] => counter("funcproxy_lock_acquisitions_total",
            "Cache shard lock acquisitions.");
        /// Total time spent waiting on shard locks, milliseconds.
        lock_wait_ms: f64 [Nanos] => counter("funcproxy_lock_wait_seconds_total",
            "Total time spent waiting on cache shard locks.").per(1e3);
        /// Requests answered degraded (from cache alone, origin down).
        degraded_hits: usize [AtomicUsize] => counter("funcproxy_degraded_hits_total",
            "Requests answered degraded (origin down).");
        /// Rows served by degraded partial answers.
        degraded_partial_rows: usize [AtomicUsize] => counter(
            "funcproxy_degraded_partial_rows_total",
            "Rows served by degraded partial answers.");
        /// Snapshot shard files written so far.
        snapshot_writes: usize [AtomicUsize] => counter("funcproxy_snapshot_writes_total",
            "Warm-restart metadata files written.");
        /// Entries recovered from disk at startup.
        recovered_entries: usize [AtomicUsize] => counter("funcproxy_recovered_entries_total",
            "Cache entries recovered from disk at startup.");
        /// Snapshot segments (or whole files) skipped as corrupt during
        /// recovery.
        snapshot_corrupt_segments: usize [AtomicUsize] => counter(
            "funcproxy_snapshot_corrupt_segments_total",
            "Segments skipped as corrupt during warm-restart recovery.");
        /// Peer probes a remote cache answered (each saved one origin
        /// fetch).
        peer_hits: usize [AtomicUsize] => counter("funcproxy_peer_hits_total",
            "Peer probes answered from a remote cache.");
        /// Peer probes that failed transport after retries and fell
        /// through to the local origin path.
        peer_probe_failures: usize [AtomicUsize] => counter("funcproxy_peer_probe_failures_total",
            "Peer probes that failed transport and fell through.");
        /// Cluster peer-cache probes this node issued on local misses
        /// (hits + clean misses + transport failures; zero outside a
        /// fleet).
        peer_probes: usize [AtomicUsize] => counter("funcproxy_peer_probes_total",
            "Cluster peer-cache probes issued on local misses.");
        /// CRC-failing slab segments read-repaired: quarantined, re-fetched
        /// from origin through the resilient path, and rewritten.
        read_repairs: usize [AtomicUsize] => counter("funcproxy_read_repairs_total",
            "Corrupt slab segments quarantined and re-fetched from origin.");
        /// Snapshot/`.fpmeta` writes that failed (ENOSPC, EIO) — counted
        /// and retried next pass, never surfaced to the serving path.
        snapshot_io_errors: usize [AtomicUsize] => counter("funcproxy_snapshot_io_errors_total",
            "Snapshot/.fpmeta writes that failed and were retried later.");
        /// Requests served under each scheme, indexed by
        /// [`Scheme::index`] (declaration order: no-cache, passive,
        /// full-semantic, region-containment, containment-only). One
        /// bucket under a fixed scheme; spread across buckets when the
        /// adaptive profit model is choosing per template.
        scheme_serves: [usize; 5] [[AtomicUsize; 5]] => counter("funcproxy_scheme_serves_total",
            "Requests served under each caching scheme."), scheme = Scheme::LABELS;
        /// Times any template's committed scheme changed (adaptive mode).
        scheme_switches: usize => counter("funcproxy_scheme_switches_total",
            "Times the adaptive profit model changed a template's scheme.");
        /// Templates the profit model is currently tracking.
        adaptive_templates: usize => gauge("funcproxy_adaptive_templates",
            "Templates the adaptive profit model is tracking.");
        /// Peak number of simultaneously in-flight origin fetches.
        in_flight_peak: usize => gauge("funcproxy_in_flight_peak",
            "Peak number of simultaneously in-flight origin fetches.");
        /// Number of cache shards.
        shards: usize => gauge("funcproxy_shards", "Number of cache shards.");
        /// The cache's counters, summed across shards.
        cache: CacheStats => Nested;
        /// The resilience layer's counters and breaker state (its
        /// defaults without a resilience layer: zeros, state `"none"`).
        resilience: ResilienceSnapshot => Nested;
        /// Measured end-to-end latency quantiles over every served request.
        request_latency: LatencySummary;
        /// Measured latency quantiles over fresh cache hits (exact +
        /// contained).
        hit_latency: LatencySummary;
        /// Measured latency quantiles of blocking origin fetches on the
        /// request path.
        origin_fetch_latency: LatencySummary;
        /// Requests served through the runtime.
        requests: usize [AtomicUsize] => counter("funcproxy_requests_total",
            "Requests served through the runtime.");
    }

    /// Cumulative counters of the concurrent runtime, updated lock-free by
    /// every request.
    ///
    /// # Snapshot consistency
    ///
    /// The counters are independent atomics, so a snapshot is not one
    /// consistent cut — but it is *invariant-preserving*. Every derived
    /// counter (coalesced hits, flights led, stale hits, …) is incremented
    /// **after** the same request's `requests` increment, in program order, with
    /// `Release` stores; [`RuntimeStats::snapshot`] reads the derived
    /// counters first with `Acquire` loads and reads `requests` **last**.
    /// An acquire load that observes a derived increment therefore also
    /// observes the `requests` increment that preceded it, which makes
    /// `coalesced_exact + coalesced_contained ≤ requests`,
    /// `flights_led ≤ requests`, `stale_hits ≤ requests` and
    /// `revalidations ≤ stale_hits` hold in *every* snapshot, even one
    /// taken mid-storm (asserted by `runtime_stress.rs`). Before this
    /// ordering existed, relaxed loads in arbitrary order could report
    /// more hits than requests.
    ///
    /// The read order is the declaration order of [`RuntimeSnapshot`]:
    /// `revalidations` before `stale_hits`, every derived counter before
    /// `requests`, which is declared last (and `peer_hits` before
    /// `peer_probes`, which `note_peer_probe` increments first).
    #[derive(Debug, Default)]
    pub struct RuntimeStats loads Acquire;
}

impl RuntimeStats {
    /// Adds `n` to one counter with `Release`, the ordering the read-order
    /// argument above relies on. The helpers below bump two at once.
    pub(crate) fn add(counter: &AtomicUsize, n: usize) {
        counter.fetch_add(n, Ordering::Release);
    }

    pub(crate) fn note_lock_wait(&self, nanos: u64) {
        self.lock_acquisitions.fetch_add(1, Ordering::Release);
        self.lock_wait_ms.0.fetch_add(nanos, Ordering::Release);
    }

    pub(crate) fn note_degraded(&self, partial_rows: usize) {
        self.degraded_hits.fetch_add(1, Ordering::Release);
        self.degraded_partial_rows
            .fetch_add(partial_rows, Ordering::Release);
    }

    pub(crate) fn note_peer_probe(&self, hit: bool) {
        self.peer_probes.fetch_add(1, Ordering::Release);
        if hit {
            self.peer_hits.fetch_add(1, Ordering::Release);
        }
    }

    pub(crate) fn note_peer_probe_failure(&self) {
        self.peer_probes.fetch_add(1, Ordering::Release);
        self.peer_probe_failures.fetch_add(1, Ordering::Release);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::observe::registry::{render_prometheus, Registry};

    /// `snapshot()` loads in declaration order, which `families()` also
    /// follows: pin the read order the [`RuntimeStats`] docs argue from.
    #[test]
    fn declaration_order_reads_derived_counters_before_requests() {
        let mut order = Vec::new();
        RuntimeSnapshot::default().families(&mut |s| order.push(s.family.name));
        let at = |name: &str| order.iter().position(|&n| n == name).expect(name);
        assert_eq!(order.last(), Some(&"funcproxy_requests_total"));
        assert!(at("funcproxy_revalidations_total") < at("funcproxy_stale_hits_total"));
        assert!(at("funcproxy_peer_hits_total") < at("funcproxy_peer_probes_total"));
    }

    #[test]
    fn counter_rendering_is_well_formed() {
        let stats = RuntimeStats::default();
        RuntimeStats::add(&stats.requests, 2);
        RuntimeStats::add(&stats.stale_hits, 1);
        stats.note_lock_wait(1_500_000);
        let snap = stats.snapshot();
        assert_eq!(snap.requests, 2);
        assert_eq!(snap.stale_hits, 1);
        assert_eq!(snap.lock_wait_ms, 1.5);
        let text = render_prometheus(&snap);
        assert!(text.contains("funcproxy_requests_total 2"));
        assert!(text.contains("funcproxy_stale_hits_total 1"));
        assert!(text.contains("funcproxy_lock_wait_seconds_total 0.0015"));
        assert!(text.contains("funcproxy_cache_retired_total{reason=\"epoch\"} 0"));
        for line in text.lines() {
            if line.starts_with('#') {
                continue;
            }
            let (_, value) = line.rsplit_once(' ').expect("space-separated");
            assert!(value.parse::<f64>().is_ok(), "numeric value in {line}");
        }
    }
}
