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

use crate::observe::LatencySummary;
use serde::Serialize;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

/// Cumulative counters of the concurrent runtime, updated lock-free by
/// every request.
///
/// # Snapshot consistency
///
/// The counters are independent atomics, so a snapshot is not one
/// consistent cut — but it is *invariant-preserving*. Every derived
/// counter (coalesced hits, flights led, stale hits, …) is incremented
/// **after** the same request's `note_request`, in program order, with
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
#[derive(Debug, Default)]
pub struct RuntimeStats {
    requests: AtomicUsize,
    coalesced_exact: AtomicUsize,
    coalesced_contained: AtomicUsize,
    flights_led: AtomicUsize,
    local_eval_fallbacks: AtomicUsize,
    lock_waits: AtomicUsize,
    lock_wait_ns: AtomicU64,
    degraded_hits: AtomicUsize,
    degraded_partial_rows: AtomicUsize,
    stale_hits: AtomicUsize,
    revalidations: AtomicUsize,
    disk_hits: AtomicUsize,
    snapshot_writes: AtomicUsize,
    recovered_entries: AtomicUsize,
    snapshot_corrupt_segments: AtomicUsize,
    peer_probes: AtomicUsize,
    peer_hits: AtomicUsize,
    peer_probe_failures: AtomicUsize,
    read_repairs: AtomicUsize,
    snapshot_io_errors: AtomicUsize,
    /// Requests served under each scheme, indexed by
    /// [`crate::schemes::Scheme::index`] — all in one bucket under a
    /// fixed scheme, spread across buckets under adaptive selection.
    scheme_serves: [AtomicUsize; 5],
}

impl RuntimeStats {
    pub(crate) fn note_request(&self) {
        self.requests.fetch_add(1, Ordering::Release);
    }

    pub(crate) fn note_coalesced_exact(&self) {
        self.coalesced_exact.fetch_add(1, Ordering::Release);
    }

    pub(crate) fn note_coalesced_contained(&self) {
        self.coalesced_contained.fetch_add(1, Ordering::Release);
    }

    pub(crate) fn note_flight_led(&self) {
        self.flights_led.fetch_add(1, Ordering::Release);
    }

    pub(crate) fn note_local_fallback(&self) {
        self.local_eval_fallbacks.fetch_add(1, Ordering::Release);
    }

    pub(crate) fn note_lock_wait(&self, nanos: u64) {
        self.lock_waits.fetch_add(1, Ordering::Release);
        self.lock_wait_ns.fetch_add(nanos, Ordering::Release);
    }

    pub(crate) fn note_degraded(&self, partial_rows: usize) {
        self.degraded_hits.fetch_add(1, Ordering::Release);
        self.degraded_partial_rows
            .fetch_add(partial_rows, Ordering::Release);
    }

    pub(crate) fn note_stale_hit(&self) {
        self.stale_hits.fetch_add(1, Ordering::Release);
    }

    pub(crate) fn note_revalidation(&self) {
        self.revalidations.fetch_add(1, Ordering::Release);
    }

    pub(crate) fn note_disk_hit(&self) {
        self.disk_hits.fetch_add(1, Ordering::Release);
    }

    pub(crate) fn note_snapshot_writes(&self, files: usize) {
        self.snapshot_writes.fetch_add(files, Ordering::Release);
    }

    pub(crate) fn note_recovered_entries(&self, entries: usize) {
        self.recovered_entries.fetch_add(entries, Ordering::Release);
    }

    pub(crate) fn note_snapshot_corrupt(&self, segments: usize) {
        self.snapshot_corrupt_segments
            .fetch_add(segments, Ordering::Release);
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

    pub(crate) fn note_read_repair(&self) {
        self.read_repairs.fetch_add(1, Ordering::Release);
    }

    pub(crate) fn note_snapshot_io_error(&self) {
        self.snapshot_io_errors.fetch_add(1, Ordering::Release);
    }

    pub(crate) fn note_scheme_serve(&self, scheme: crate::schemes::Scheme) {
        self.scheme_serves[scheme.index()].fetch_add(1, Ordering::Release);
    }
}

/// A point-in-time copy of the runtime counters, for reports.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize)]
pub struct RuntimeSnapshot {
    /// Requests served through the runtime.
    pub requests: usize,
    /// Requests served by piggybacking on an in-flight identical query.
    pub coalesced_exact: usize,
    /// Requests that waited for a containing in-flight query and were
    /// then answered from the freshly cached entry.
    pub coalesced_contained: usize,
    /// Origin-bound flights actually led (each is at most one WAN fetch).
    pub flights_led: usize,
    /// Contained hits whose cached entry turned out malformed
    /// (non-numeric coordinate cell) and fell back to the origin.
    pub local_eval_fallbacks: usize,
    /// Duplicate origin fetches avoided by coalescing
    /// (`coalesced_exact + coalesced_contained`).
    pub duplicate_fetches_avoided: usize,
    /// Peak number of simultaneously in-flight origin fetches.
    pub in_flight_peak: usize,
    /// Shard lock acquisitions.
    pub lock_acquisitions: usize,
    /// Total time spent waiting on shard locks, milliseconds.
    pub lock_wait_ms: f64,
    /// Number of cache shards.
    pub shards: usize,
    /// Requests answered degraded (from cache alone, origin down).
    pub degraded_hits: usize,
    /// Rows served by degraded partial answers.
    pub degraded_partial_rows: usize,
    /// Fetches whose deadline expired (zero without a resilience layer).
    pub origin_timeouts: u64,
    /// Origin retries issued by the resilience layer.
    pub origin_retries: u64,
    /// Fetches failed fast because the circuit was open.
    pub origin_fast_fails: u64,
    /// Times the circuit breaker opened.
    pub breaker_opens: u64,
    /// Breaker state at snapshot time (`"none"` without a resilience
    /// layer).
    pub breaker_state: &'static str,
    /// Milliseconds until an open breaker admits its next probe (`0`
    /// unless the breaker is open right now).
    pub breaker_retry_after_ms: u64,
    /// Requests answered from expired entries (stale-while-revalidate
    /// or stale-if-error).
    pub stale_hits: usize,
    /// Background refreshes that reached the origin on behalf of stale
    /// entries.
    pub revalidations: usize,
    /// Exact/contained hits served straight from the disk tier's
    /// mmap'd slab (the demoted long tail).
    pub disk_hits: usize,
    /// Entries currently resident in the disk tier (across all shards).
    pub disk_entries: usize,
    /// Bytes held by the disk tier's slab files.
    pub slab_bytes: usize,
    /// RAM→disk demotions performed by the eviction manager.
    pub demotions: usize,
    /// Disk→RAM promotions performed on access.
    pub promotions: usize,
    /// Slab compaction passes that reclaimed dead segments.
    pub slab_compactions: usize,
    /// Slab segments skipped or dropped as corrupt (bad CRC, torn
    /// tail, unreadable during compaction).
    pub slab_corrupt_segments: usize,
    /// Entries retired by data-release epoch bumps (across all shards).
    pub epoch_invalidations: usize,
    /// Entries retired for aging past every staleness window.
    pub entries_expired: usize,
    /// Snapshot shard files written so far.
    pub snapshot_writes: usize,
    /// Entries recovered from disk at startup.
    pub recovered_entries: usize,
    /// Snapshot segments (or whole files) skipped as corrupt during
    /// recovery.
    pub snapshot_corrupt_segments: usize,
    /// Next backoff delay the resilience layer would prescribe before
    /// retrying the origin, in milliseconds (`0` without a resilience
    /// layer) — the `Retry-After` fallback when the breaker is closed.
    pub origin_backoff_hint_ms: u64,
    /// Cluster peer-cache probes this node issued on local misses
    /// (hits + clean misses + transport failures; zero outside a
    /// fleet).
    pub peer_probes: usize,
    /// Peer probes a remote cache answered (each saved one origin
    /// fetch).
    pub peer_hits: usize,
    /// Peer probes that failed transport after retries and fell
    /// through to the local origin path.
    pub peer_probe_failures: usize,
    /// CRC-failing slab segments read-repaired: quarantined, re-fetched
    /// from origin through the resilient path, and rewritten.
    pub read_repairs: usize,
    /// Snapshot/`.fpmeta` writes that failed (ENOSPC, EIO) — counted
    /// and retried next pass, never surfaced to the serving path.
    pub snapshot_io_errors: usize,
    /// Times the disk tier entered eviction-only degraded mode
    /// (persistent slab I/O errors; demotion suspended).
    pub tier_degraded: usize,
    /// Times a degraded tier's re-probe append succeeded and demotion
    /// resumed.
    pub tier_recoveries: usize,
    /// Slab I/O errors observed (failed appends and compactions).
    pub slab_io_errors: usize,
    /// Requests served under each scheme, indexed by
    /// [`crate::schemes::Scheme::index`] (declaration order: no-cache,
    /// passive, full-semantic, region-containment, containment-only).
    /// One bucket under a fixed scheme; spread across buckets when the
    /// adaptive profit model is choosing per template.
    pub scheme_serves: [usize; 5],
    /// Times any template's committed scheme changed (adaptive mode).
    pub scheme_switches: usize,
    /// Templates the profit model is currently tracking.
    pub adaptive_templates: usize,
    /// Measured end-to-end latency quantiles over every served request.
    pub request_latency: LatencySummary,
    /// Measured latency quantiles over fresh cache hits (exact +
    /// contained).
    pub hit_latency: LatencySummary,
    /// Measured latency quantiles of blocking origin fetches on the
    /// request path.
    pub origin_fetch_latency: LatencySummary,
}

impl RuntimeStats {
    /// Snapshot the counters. Exact totals once the producing threads
    /// have quiesced; mid-storm the snapshot still preserves the
    /// cross-counter invariants — see the [`RuntimeStats`] docs for the
    /// read-ordering argument (derived counters first, with `Acquire`;
    /// `revalidations` before `stale_hits`; `requests` last).
    pub fn snapshot(&self, in_flight_peak: usize, shards: usize) -> RuntimeSnapshot {
        let revalidations = self.revalidations.load(Ordering::Acquire);
        let stale_hits = self.stale_hits.load(Ordering::Acquire);
        let disk_hits = self.disk_hits.load(Ordering::Acquire);
        let coalesced_exact = self.coalesced_exact.load(Ordering::Acquire);
        let coalesced_contained = self.coalesced_contained.load(Ordering::Acquire);
        let flights_led = self.flights_led.load(Ordering::Acquire);
        let local_eval_fallbacks = self.local_eval_fallbacks.load(Ordering::Acquire);
        let lock_acquisitions = self.lock_waits.load(Ordering::Acquire);
        let lock_wait_ms = self.lock_wait_ns.load(Ordering::Acquire) as f64 / 1e6;
        let degraded_hits = self.degraded_hits.load(Ordering::Acquire);
        let degraded_partial_rows = self.degraded_partial_rows.load(Ordering::Acquire);
        let snapshot_writes = self.snapshot_writes.load(Ordering::Acquire);
        let recovered_entries = self.recovered_entries.load(Ordering::Acquire);
        let snapshot_corrupt_segments = self.snapshot_corrupt_segments.load(Ordering::Acquire);
        let peer_hits = self.peer_hits.load(Ordering::Acquire);
        let peer_probe_failures = self.peer_probe_failures.load(Ordering::Acquire);
        let peer_probes = self.peer_probes.load(Ordering::Acquire);
        let read_repairs = self.read_repairs.load(Ordering::Acquire);
        let snapshot_io_errors = self.snapshot_io_errors.load(Ordering::Acquire);
        let mut scheme_serves = [0usize; 5];
        for (slot, counter) in scheme_serves.iter_mut().zip(&self.scheme_serves) {
            *slot = counter.load(Ordering::Acquire);
        }
        // Read last: every derived increment observed above was preceded
        // by its request's `note_request`, so this load sees it too.
        let requests = self.requests.load(Ordering::Acquire);
        RuntimeSnapshot {
            requests,
            coalesced_exact,
            coalesced_contained,
            flights_led,
            local_eval_fallbacks,
            duplicate_fetches_avoided: coalesced_exact + coalesced_contained,
            in_flight_peak,
            lock_acquisitions,
            lock_wait_ms,
            shards,
            degraded_hits,
            degraded_partial_rows,
            origin_timeouts: 0,
            origin_retries: 0,
            origin_fast_fails: 0,
            breaker_opens: 0,
            breaker_state: "none",
            breaker_retry_after_ms: 0,
            stale_hits,
            revalidations,
            disk_hits,
            disk_entries: 0,
            slab_bytes: 0,
            demotions: 0,
            promotions: 0,
            slab_compactions: 0,
            slab_corrupt_segments: 0,
            epoch_invalidations: 0,
            entries_expired: 0,
            snapshot_writes,
            recovered_entries,
            snapshot_corrupt_segments,
            origin_backoff_hint_ms: 0,
            peer_probes,
            peer_hits,
            peer_probe_failures,
            read_repairs,
            snapshot_io_errors,
            tier_degraded: 0,
            tier_recoveries: 0,
            slab_io_errors: 0,
            scheme_serves,
            scheme_switches: 0,
            adaptive_templates: 0,
            request_latency: LatencySummary::default(),
            hit_latency: LatencySummary::default(),
            origin_fetch_latency: LatencySummary::default(),
        }
    }
}

impl RuntimeSnapshot {
    /// Renders the counter/gauge half of the `/metrics` payload in
    /// Prometheus text format; `ProxyHandle::metrics_text` appends the
    /// histogram families from
    /// [`crate::observe::Observer::render_prometheus`].
    pub fn render_prometheus(&self) -> String {
        use std::fmt::Write;
        let mut out = String::with_capacity(2048);
        let mut counter = |name: &str, help: &str, value: f64| {
            let _ = writeln!(
                out,
                "# HELP {name} {help}\n# TYPE {name} counter\n{name} {value}"
            );
        };
        counter(
            "funcproxy_requests_total",
            "Requests served through the runtime.",
            self.requests as f64,
        );
        counter(
            "funcproxy_coalesced_total",
            "Requests answered by piggybacking on an in-flight fetch.",
            self.duplicate_fetches_avoided as f64,
        );
        counter(
            "funcproxy_flights_led_total",
            "Origin-bound flights led.",
            self.flights_led as f64,
        );
        counter(
            "funcproxy_degraded_hits_total",
            "Requests answered degraded (origin down).",
            self.degraded_hits as f64,
        );
        counter(
            "funcproxy_stale_hits_total",
            "Requests answered from expired entries.",
            self.stale_hits as f64,
        );
        counter(
            "funcproxy_revalidations_total",
            "Background refreshes reaching the origin.",
            self.revalidations as f64,
        );
        counter(
            "funcproxy_disk_hits_total",
            "Hits served from the disk tier's mmap'd slab.",
            self.disk_hits as f64,
        );
        counter(
            "funcproxy_demotions_total",
            "RAM-to-disk demotions by the eviction manager.",
            self.demotions as f64,
        );
        counter(
            "funcproxy_promotions_total",
            "Disk-to-RAM promotions on access.",
            self.promotions as f64,
        );
        counter(
            "funcproxy_slab_compactions_total",
            "Slab compaction passes.",
            self.slab_compactions as f64,
        );
        counter(
            "funcproxy_slab_corrupt_segments_total",
            "Slab segments skipped or dropped as corrupt.",
            self.slab_corrupt_segments as f64,
        );
        counter(
            "funcproxy_tier_degraded_total",
            "Times the disk tier entered eviction-only degraded mode.",
            self.tier_degraded as f64,
        );
        counter(
            "funcproxy_tier_recoveries_total",
            "Times a degraded disk tier recovered and resumed demotion.",
            self.tier_recoveries as f64,
        );
        counter(
            "funcproxy_slab_io_errors_total",
            "Slab I/O errors observed (failed appends and compactions).",
            self.slab_io_errors as f64,
        );
        counter(
            "funcproxy_read_repairs_total",
            "Corrupt slab segments quarantined and re-fetched from origin.",
            self.read_repairs as f64,
        );
        counter(
            "funcproxy_snapshot_io_errors_total",
            "Snapshot/.fpmeta writes that failed and were retried later.",
            self.snapshot_io_errors as f64,
        );
        counter(
            "funcproxy_origin_timeouts_total",
            "Origin fetches whose deadline expired.",
            self.origin_timeouts as f64,
        );
        counter(
            "funcproxy_origin_retries_total",
            "Origin retries issued by the resilience layer.",
            self.origin_retries as f64,
        );
        counter(
            "funcproxy_breaker_opens_total",
            "Times the circuit breaker opened.",
            self.breaker_opens as f64,
        );
        counter(
            "funcproxy_peer_probes_total",
            "Cluster peer-cache probes issued on local misses.",
            self.peer_probes as f64,
        );
        counter(
            "funcproxy_peer_hits_total",
            "Peer probes answered from a remote cache.",
            self.peer_hits as f64,
        );
        counter(
            "funcproxy_peer_probe_failures_total",
            "Peer probes that failed transport and fell through.",
            self.peer_probe_failures as f64,
        );
        counter(
            "funcproxy_lock_wait_seconds_total",
            "Total time spent waiting on cache shard locks.",
            self.lock_wait_ms / 1e3,
        );
        counter(
            "funcproxy_scheme_switches_total",
            "Times the adaptive profit model changed a template's scheme.",
            self.scheme_switches as f64,
        );
        let _ = writeln!(
            out,
            "# HELP funcproxy_scheme_serves_total Requests served under each caching scheme.\n\
             # TYPE funcproxy_scheme_serves_total counter"
        );
        for scheme in crate::schemes::Scheme::all() {
            let _ = writeln!(
                out,
                "funcproxy_scheme_serves_total{{scheme=\"{scheme}\"}} {}",
                self.scheme_serves[scheme.index()],
            );
        }
        let _ = writeln!(
            out,
            "# HELP funcproxy_breaker_open Whether the circuit breaker is open.\n\
             # TYPE funcproxy_breaker_open gauge\n\
             funcproxy_breaker_open{{state=\"{}\"}} {}",
            self.breaker_state,
            u8::from(self.breaker_state == "open"),
        );
        let _ = writeln!(
            out,
            "# HELP funcproxy_origin_backoff_hint_ms Next origin retry backoff delay.\n\
             # TYPE funcproxy_origin_backoff_hint_ms gauge\n\
             funcproxy_origin_backoff_hint_ms {}",
            self.origin_backoff_hint_ms,
        );
        let _ = writeln!(
            out,
            "# HELP funcproxy_disk_entries Entries resident in the disk tier.\n\
             # TYPE funcproxy_disk_entries gauge\n\
             funcproxy_disk_entries {}",
            self.disk_entries,
        );
        let _ = writeln!(
            out,
            "# HELP funcproxy_slab_bytes Bytes held by disk-tier slab files.\n\
             # TYPE funcproxy_slab_bytes gauge\n\
             funcproxy_slab_bytes {}",
            self.slab_bytes,
        );
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_rendering_is_well_formed() {
        let stats = RuntimeStats::default();
        stats.note_request();
        stats.note_request();
        stats.note_stale_hit();
        let snap = stats.snapshot(1, 2);
        assert_eq!(snap.requests, 2);
        assert_eq!(snap.stale_hits, 1);
        let text = snap.render_prometheus();
        assert!(text.contains("funcproxy_requests_total 2"));
        assert!(text.contains("funcproxy_stale_hits_total 1"));
        for line in text.lines() {
            if line.starts_with('#') {
                continue;
            }
            let (_, value) = line.rsplit_once(' ').expect("space-separated");
            assert!(value.parse::<f64>().is_ok(), "numeric value in {line}");
        }
    }
}
