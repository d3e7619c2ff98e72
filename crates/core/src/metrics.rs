//! Per-query and per-trace metrics.
//!
//! The paper's two headline metrics (§4.1): **response time**, measured at
//! the browser emulator, and **cache efficiency** — "the percentage of the
//! result tuples that are served from the proxy cache to the total number
//! of result tuples of the query", averaged arithmetically over the trace.
//! The proxy additionally records the timing breakdown its servlet logged
//! ("the proxy servlet records timing information in each step of query
//! processing").

use serde::{Deserialize, Serialize};

/// How one query was ultimately answered.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Outcome {
    /// Served whole from one cached entry (exact match).
    Exact,
    /// Served by local evaluation over a containing entry.
    Contained,
    /// Region containment: cached parts + remainder, compaction applied.
    RegionContainment,
    /// General overlap: probe + remainder merge.
    Overlap,
    /// Forwarded to the origin (disjoint, inactive scheme, or fallback).
    #[default]
    Forwarded,
}

impl Outcome {
    /// Short label for tables.
    pub fn label(self) -> &'static str {
        match self {
            Outcome::Exact => "exact",
            Outcome::Contained => "contained",
            Outcome::RegionContainment => "region-containment",
            Outcome::Overlap => "overlap",
            Outcome::Forwarded => "forwarded",
        }
    }
}

/// Everything recorded about one query.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct QueryMetrics {
    /// How the query was answered.
    pub outcome: Outcome,
    /// End-to-end response time: simulated origin/WAN cost plus measured
    /// proxy compute time.
    pub response_ms: f64,
    /// Simulated portion (origin + network).
    pub sim_ms: f64,
    /// Measured proxy compute portion.
    pub proxy_ms: f64,
    /// Cache-checking time within `proxy_ms`.
    pub check_ms: f64,
    /// Local evaluation + merge time within `proxy_ms`.
    pub local_ms: f64,
    /// Total result tuples returned to the client.
    pub rows_total: usize,
    /// Of those, tuples served from the proxy cache.
    pub rows_from_cache: usize,
    /// Whether this response piggybacked on another request's in-flight
    /// origin fetch (always `false` on a one-client replay).
    pub coalesced: bool,
    /// Time spent waiting to acquire cache-shard locks, ms (near zero
    /// without contention).
    pub lock_wait_ms: f64,
    /// Cached rows the local evaluator tested against the query region
    /// (after micro-index pruning; zero for non-hit outcomes).
    pub rows_scanned: usize,
    /// Cached rows the per-entry micro-index skipped without testing
    /// (entry rows minus `rows_scanned`; zero for non-hit outcomes).
    pub rows_pruned: usize,
    /// Whether the query fell back to the origin because a cached form's
    /// columns do not map the template's coordinates (a segment restored
    /// under another registration), so it could not select the query
    /// region locally.
    pub local_fallback: bool,
    /// Whether this answer was served degraded: the origin was
    /// unreachable, so the proxy answered from cached data alone. For
    /// overlap relationships the answer is the cached *intersection* —
    /// a sound subset of the full answer, marked partial.
    pub degraded: bool,
    /// Whether any contributing cache entry was past its TTL deadline:
    /// served in the stale-while-revalidate window (a background
    /// refresh is on its way) or in the stale-if-error window (the
    /// origin was down and the expired entry was extended).
    pub stale: bool,
    /// Age of the oldest contributing cache entry, ms on the proxy's
    /// clock; `0` when no cached data contributed or lifecycle timing
    /// is off.
    pub entry_age_ms: f64,
    /// Whether the answer was served from the disk tier (a demoted
    /// entry's mmap'd slab segment rather than RAM).
    pub disk_hit: bool,
}

impl QueryMetrics {
    /// The paper's per-query cache efficiency. Empty results count as
    /// efficiency 1 when served from cache and 0 otherwise (an empty
    /// cached answer still saved the origin round trip).
    pub fn cache_efficiency(&self) -> f64 {
        if self.rows_total == 0 {
            return match self.outcome {
                Outcome::Exact | Outcome::Contained => 1.0,
                _ => 0.0,
            };
        }
        self.rows_from_cache as f64 / self.rows_total as f64
    }
}

/// Aggregate over a trace run.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct TraceReport {
    /// Number of queries.
    pub queries: usize,
    /// Arithmetic mean response time, ms.
    pub avg_response_ms: f64,
    /// Arithmetic mean cache efficiency (the paper's Table 1 metric).
    pub avg_cache_efficiency: f64,
    /// Mean cache-check time, ms.
    pub avg_check_ms: f64,
    /// Outcome counts: (exact, contained, region containment, overlap,
    /// forwarded).
    pub counts: [usize; 5],
    /// Queries answered by coalescing onto another request's origin
    /// flight (zero on single-threaded replays).
    pub coalesced: usize,
    /// Queries that met a cached form whose columns do not map the
    /// template's coordinates and fell back to the origin instead of
    /// local evaluation.
    pub local_fallbacks: usize,
    /// Total cached rows tested by local evaluation across the trace
    /// (after micro-index pruning).
    pub rows_scanned: usize,
    /// Total cached rows the micro-index pruned without testing.
    pub rows_pruned: usize,
    /// Queries answered degraded (from cache alone while the origin was
    /// unreachable).
    pub degraded_hits: usize,
    /// Rows served by degraded *partial* answers (overlap intersections
    /// that are sound subsets of the full answer).
    pub degraded_partial_rows: usize,
    /// Queries answered from expired entries (stale-while-revalidate or
    /// stale-if-error serving).
    pub stale_hits: usize,
    /// Queries answered from the disk tier (demoted entries served out
    /// of the mmap'd slab).
    pub disk_hits: usize,
    /// Median response time, ms (nearest-rank over the exact per-query
    /// values — unlike the runtime histograms, nothing is bucketed).
    pub p50_response_ms: f64,
    /// 90th-percentile response time, ms.
    pub p90_response_ms: f64,
    /// 99th-percentile response time, ms.
    pub p99_response_ms: f64,
    /// 99.9th-percentile response time, ms.
    pub p999_response_ms: f64,
}

/// Nearest-rank percentile of an ascending-sorted sample.
fn nearest_rank(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let target = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[target - 1]
}

impl TraceReport {
    /// Aggregates per-query metrics.
    pub fn from_metrics(metrics: &[QueryMetrics]) -> TraceReport {
        let n = metrics.len();
        if n == 0 {
            return TraceReport::default();
        }
        let mut report = TraceReport {
            queries: n,
            ..TraceReport::default()
        };
        for m in metrics {
            report.avg_response_ms += m.response_ms;
            report.avg_cache_efficiency += m.cache_efficiency();
            report.avg_check_ms += m.check_ms;
            report.coalesced += usize::from(m.coalesced);
            report.local_fallbacks += usize::from(m.local_fallback);
            report.rows_scanned += m.rows_scanned;
            report.rows_pruned += m.rows_pruned;
            report.stale_hits += usize::from(m.stale);
            report.disk_hits += usize::from(m.disk_hit);
            if m.degraded {
                // Degraded answers are only ever produced on the merge
                // paths (region containment / overlap), where they are
                // sound subsets of the full answer — all partial.
                report.degraded_hits += 1;
                report.degraded_partial_rows += m.rows_total;
            }
            let slot = match m.outcome {
                Outcome::Exact => 0,
                Outcome::Contained => 1,
                Outcome::RegionContainment => 2,
                Outcome::Overlap => 3,
                Outcome::Forwarded => 4,
            };
            report.counts[slot] += 1;
        }
        report.avg_response_ms /= n as f64;
        report.avg_cache_efficiency /= n as f64;
        report.avg_check_ms /= n as f64;
        let mut sorted: Vec<f64> = metrics.iter().map(|m| m.response_ms).collect();
        sorted.sort_by(f64::total_cmp);
        report.p50_response_ms = nearest_rank(&sorted, 0.50);
        report.p90_response_ms = nearest_rank(&sorted, 0.90);
        report.p99_response_ms = nearest_rank(&sorted, 0.99);
        report.p999_response_ms = nearest_rank(&sorted, 0.999);
        report
    }

    /// Fraction of queries fully answered by the cache
    /// (exact + contained), the paper's "completely answered" 51 %.
    pub fn full_hit_ratio(&self) -> f64 {
        if self.queries == 0 {
            return 0.0;
        }
        (self.counts[0] + self.counts[1]) as f64 / self.queries as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn m(outcome: Outcome, response: f64, total: usize, cached: usize) -> QueryMetrics {
        QueryMetrics {
            outcome,
            response_ms: response,
            sim_ms: response,
            check_ms: 1.0,
            rows_total: total,
            rows_from_cache: cached,
            ..QueryMetrics::default()
        }
    }

    #[test]
    fn efficiency_definition() {
        assert_eq!(m(Outcome::Exact, 1.0, 100, 100).cache_efficiency(), 1.0);
        assert_eq!(m(Outcome::Overlap, 1.0, 100, 40).cache_efficiency(), 0.4);
        assert_eq!(m(Outcome::Forwarded, 1.0, 100, 0).cache_efficiency(), 0.0);
        // Empty results.
        assert_eq!(m(Outcome::Exact, 1.0, 0, 0).cache_efficiency(), 1.0);
        assert_eq!(m(Outcome::Forwarded, 1.0, 0, 0).cache_efficiency(), 0.0);
    }

    #[test]
    fn report_aggregates() {
        let metrics = vec![
            m(Outcome::Exact, 100.0, 10, 10),
            m(Outcome::Forwarded, 300.0, 10, 0),
            m(Outcome::Overlap, 200.0, 10, 5),
        ];
        let r = TraceReport::from_metrics(&metrics);
        assert_eq!(r.queries, 3);
        assert!((r.avg_response_ms - 200.0).abs() < 1e-9);
        assert!((r.avg_cache_efficiency - 0.5).abs() < 1e-9);
        assert_eq!(r.counts, [1, 0, 0, 1, 1]);
        assert!((r.full_hit_ratio() - 1.0 / 3.0).abs() < 1e-9);
    }

    #[test]
    fn report_percentiles_are_nearest_rank() {
        let metrics: Vec<QueryMetrics> = (1..=1000)
            .map(|i| m(Outcome::Forwarded, i as f64, 1, 0))
            .collect();
        let r = TraceReport::from_metrics(&metrics);
        assert_eq!(r.p50_response_ms, 500.0);
        assert_eq!(r.p90_response_ms, 900.0);
        assert_eq!(r.p99_response_ms, 990.0);
        assert_eq!(r.p999_response_ms, 999.0);
        // A single-sample trace reports that sample at every quantile.
        let one = TraceReport::from_metrics(&[m(Outcome::Exact, 42.0, 1, 1)]);
        assert_eq!(one.p50_response_ms, 42.0);
        assert_eq!(one.p999_response_ms, 42.0);
        // Empty traces default to zero, not NaN.
        assert_eq!(TraceReport::default().p99_response_ms, 0.0);
    }

    #[test]
    fn fallbacks_are_observable() {
        let mut q = m(Outcome::Forwarded, 1.0, 10, 0);
        q.local_fallback = true;
        q.rows_scanned = 7;
        q.rows_pruned = 3;
        let r = TraceReport::from_metrics(&[q, m(Outcome::Exact, 1.0, 5, 5)]);
        assert_eq!(r.local_fallbacks, 1);
        assert_eq!(r.rows_scanned, 7);
        assert_eq!(r.rows_pruned, 3);
    }

    #[test]
    fn degraded_answers_are_observable() {
        let mut intersection = m(Outcome::Overlap, 1.0, 8, 8);
        intersection.degraded = true;
        let mut union = m(Outcome::RegionContainment, 1.0, 5, 5);
        union.degraded = true;
        let r = TraceReport::from_metrics(&[intersection, union, m(Outcome::Exact, 1.0, 5, 5)]);
        assert_eq!(r.degraded_hits, 2);
        assert_eq!(r.degraded_partial_rows, 13);
    }

    #[test]
    fn empty_report() {
        let r = TraceReport::from_metrics(&[]);
        assert_eq!(r.queries, 0);
        assert_eq!(r.full_hit_ratio(), 0.0);
    }
}
