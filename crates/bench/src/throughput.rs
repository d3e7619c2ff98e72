//! Multi-client throughput harness over the concurrent runtime.
//!
//! The paper evaluates the proxy with one emulated browser at a time; a
//! deployed proxy fronts many. This harness replays the calibrated Radial
//! trace through one shared [`ProxyHandle`] from `K` client threads
//! (round-robin deal, see `Rbe::replay_shared`) and measures what the
//! single-threaded replay cannot: queries per second, the wall-clock
//! latency distribution at the proxy, and how many origin round trips the
//! single-flight coalescer eliminated.
//!
//! The origin is wrapped in a [`CountingOrigin`] that both counts fetches
//! and sleeps a configurable per-fetch delay standing in for the WAN +
//! origin-server time the simulation's cost model normally only *accounts*
//! for. The delay makes concurrency observable on any machine: client
//! threads overlap their origin waits, so throughput scales with the
//! client count until the origin-bound work is fully pipelined — even on
//! a single core.

use crate::Experiment;
use fp_skyserver::SkySite;
use fp_trace::{Rbe, Trace};
use funcproxy::metrics::Outcome;
use funcproxy::observe::{OutcomeClass, PathClass, Phase};
use funcproxy::origin::CountingOrigin;
use funcproxy::runtime::RuntimeSnapshot;
use funcproxy::template::TemplateManager;
use funcproxy::LatencySummary;
use funcproxy::{CostModel, ProxyConfig, ProxyHandle, Scheme, SiteOrigin};
use serde::Serialize;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Cache shards used by throughput runs (fixed so results are comparable
/// across machines instead of following `available_parallelism`).
pub const THROUGHPUT_SHARDS: usize = 8;

/// One measured client-count configuration.
#[derive(Debug, Clone, Serialize)]
pub struct ThroughputRow {
    /// Concurrent client threads.
    pub threads: usize,
    /// Wall-clock time for the whole replay, ms.
    pub elapsed_ms: f64,
    /// Queries per second over the replay.
    pub qps: f64,
    /// Median measured per-request latency at the proxy, ms.
    pub p50_ms: f64,
    /// 99th-percentile measured per-request latency at the proxy, ms.
    pub p99_ms: f64,
    /// 90th-percentile per-request latency from the runtime's lock-free
    /// histograms (log-bucketed, ≤ 1 % relative error) — the same
    /// numbers `/metrics` exposes, cross-checking the exact sort above.
    pub p90_ms: f64,
    /// 99.9th-percentile per-request latency from the runtime's
    /// histograms.
    pub p999_ms: f64,
    /// Origin fetches actually issued.
    pub origin_fetches: usize,
    /// Requests answered by piggybacking on another request's flight.
    pub coalesced: usize,
    /// Origin round trips the single-flight coalescer eliminated.
    pub duplicate_fetches_avoided: usize,
    /// Total time spent waiting on cache-shard locks, ms.
    pub lock_wait_ms: f64,
    /// Peak number of simultaneous origin flights.
    pub in_flight_peak: usize,
    /// Requests answered wholly from cache (exact + contained hits).
    pub hits: usize,
    /// Median measured latency over those cache hits, ms.
    pub hit_p50_ms: f64,
    /// 99th-percentile measured latency over those cache hits, ms.
    pub hit_p99_ms: f64,
    /// Hits served from the disk tier's mmap'd slab (zero without a
    /// tier configured).
    pub disk_hits: usize,
    /// Median measured latency over those disk-tier hits, ms.
    pub disk_hit_p50_ms: f64,
    /// 99th-percentile measured latency over those disk-tier hits, ms.
    pub disk_hit_p99_ms: f64,
    /// Cached rows the local evaluator tested after micro-index pruning.
    pub rows_scanned: usize,
    /// Cached rows the per-entry micro-index skipped without testing.
    pub rows_pruned: usize,
    /// Requests answered degraded, from cache alone with the origin
    /// unreachable (zero in a healthy run).
    pub degraded_hits: usize,
    /// Origin fetches whose deadline expired (zero without a resilience
    /// layer configured).
    pub origin_timeouts: u64,
    /// Requests answered from an expired-but-serveable entry (zero
    /// unless a lifecycle TTL is configured).
    pub stale_hits: usize,
    /// Background refreshes the stale hits triggered.
    pub revalidations: usize,
}

/// The throughput experiment: one row per client count.
#[derive(Debug, Clone, Serialize)]
pub struct Throughput {
    /// Simulated per-fetch origin delay, ms.
    pub origin_delay_ms: u64,
    /// Rows, ordered by client count.
    pub rows: Vec<ThroughputRow>,
    /// Per-phase and per-outcome latency distributions for each client
    /// count, drained from the runtime's histograms after the replay.
    pub latency: Vec<LatencyPercentilesRow>,
}

/// The `BENCH_latency_percentiles.json` artifact: per-phase and
/// per-outcome latency quantiles from the runtime's lock-free
/// histograms, per swept client count.
#[derive(Debug, Clone, Serialize)]
pub struct LatencyPercentilesReport {
    /// Simulated per-fetch origin delay, ms.
    pub origin_delay_ms: u64,
    /// One entry per swept client count.
    pub rows: Vec<LatencyPercentilesRow>,
}

/// One client count's latency distributions.
#[derive(Debug, Clone, Serialize)]
pub struct LatencyPercentilesRow {
    /// Concurrent client threads.
    pub threads: usize,
    /// One entry per (phase, path class) cell that recorded samples.
    pub phases: Vec<PhasePercentiles>,
    /// One entry per outcome class that recorded samples.
    pub outcomes: Vec<OutcomePercentiles>,
}

/// Quantiles for one (phase, path-class) histogram cell.
#[derive(Debug, Clone, Serialize)]
pub struct PhasePercentiles {
    /// Request phase (`classify`, `local_eval`, `origin_fetch`, ...).
    pub phase: String,
    /// Path class (`hit`, `miss`, `background`).
    pub path: String,
    /// Samples recorded, and the p50/p90/p99/p999 quantiles in ms.
    pub summary: LatencySummary,
}

/// Quantiles for one outcome class's request-latency histogram.
#[derive(Debug, Clone, Serialize)]
pub struct OutcomePercentiles {
    /// Outcome class (`exact`, `contained`, `miss`, `degraded`, ...).
    pub class: String,
    /// Samples recorded, and the p50/p90/p99/p999 quantiles in ms.
    pub summary: LatencySummary,
}

/// The `BENCH_hit_latency.json` artifact: the cache-hit serve path's
/// latency and pruning trajectory, persisted so successive PRs can be
/// compared on the same axes.
#[derive(Debug, Clone, Serialize)]
pub struct HitLatencyReport {
    /// Simulated per-fetch origin delay, ms (context for the misses the
    /// hit latencies are measured alongside).
    pub origin_delay_ms: u64,
    /// One entry per swept client count.
    pub rows: Vec<HitLatencyRow>,
    /// The hit-rate-vs-RAM-budget sweep: RAM-only vs tiered at equal
    /// RAM, one row per budget (see [`crate::tiered`]).
    pub budget_sweep: Vec<crate::tiered::BudgetSweepRow>,
}

/// Per-client-count hit-path numbers extracted from a [`ThroughputRow`].
#[derive(Debug, Clone, Serialize)]
pub struct HitLatencyRow {
    /// Concurrent client threads.
    pub threads: usize,
    /// Exact + contained hits observed during the replay.
    pub hits: usize,
    /// Median measured hit latency at the proxy, ms.
    pub hit_p50_ms: f64,
    /// 99th-percentile measured hit latency at the proxy, ms.
    pub hit_p99_ms: f64,
    /// Hits served from the disk tier (zero in the untiered sweep; the
    /// tiered numbers live in [`HitLatencyReport::budget_sweep`]).
    pub disk_hits: usize,
    /// Median measured disk-tier hit latency, ms.
    pub disk_hit_p50_ms: f64,
    /// 99th-percentile measured disk-tier hit latency, ms.
    pub disk_hit_p99_ms: f64,
    /// Cached rows tested by the local evaluator after pruning.
    pub rows_scanned: usize,
    /// Cached rows the per-entry micro-index skipped without testing.
    pub rows_pruned: usize,
}

impl Throughput {
    /// Projects the histogram quantiles into the
    /// `BENCH_latency_percentiles.json` artifact.
    pub fn latency_percentiles(&self) -> LatencyPercentilesReport {
        LatencyPercentilesReport {
            origin_delay_ms: self.origin_delay_ms,
            rows: self.latency.clone(),
        }
    }

    /// Projects the hit-path columns into the perf-trajectory artifact,
    /// attaching the hit-rate-vs-budget sweep as its own section.
    pub fn hit_latency(&self, sweep: &crate::tiered::BudgetSweep) -> HitLatencyReport {
        HitLatencyReport {
            origin_delay_ms: self.origin_delay_ms,
            rows: self
                .rows
                .iter()
                .map(|r| HitLatencyRow {
                    threads: r.threads,
                    hits: r.hits,
                    hit_p50_ms: r.hit_p50_ms,
                    hit_p99_ms: r.hit_p99_ms,
                    disk_hits: r.disk_hits,
                    disk_hit_p50_ms: r.disk_hit_p50_ms,
                    disk_hit_p99_ms: r.disk_hit_p99_ms,
                    rows_scanned: r.rows_scanned,
                    rows_pruned: r.rows_pruned,
                })
                .collect(),
            budget_sweep: sweep.rows.clone(),
        }
    }
}

impl std::fmt::Display for Throughput {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "Throughput scaling ({} cache shards, {} ms simulated origin delay per fetch)",
            THROUGHPUT_SHARDS, self.origin_delay_ms
        )?;
        writeln!(
            f,
            "  clients |     qps | p50 ms | p90 ms | p99 ms | p999 ms | hit p50 | hit p99 | scanned | pruned | fetches | coalesced | dup avoided | lock wait ms | peak flights | degraded | timeouts | stale | revalidated"
        )?;
        for r in &self.rows {
            writeln!(
                f,
                "  {:>7} | {:>7.1} | {:>6.1} | {:>6.1} | {:>6.1} | {:>7.1} | {:>7.3} | {:>7.3} | {:>7} | {:>6} | {:>7} | {:>9} | {:>11} | {:>12.2} | {:>12} | {:>8} | {:>8} | {:>5} | {:>11}",
                r.threads,
                r.qps,
                r.p50_ms,
                r.p90_ms,
                r.p99_ms,
                r.p999_ms,
                r.hit_p50_ms,
                r.hit_p99_ms,
                r.rows_scanned,
                r.rows_pruned,
                r.origin_fetches,
                r.coalesced,
                r.duplicate_fetches_avoided,
                r.lock_wait_ms,
                r.in_flight_peak,
                r.degraded_hits,
                r.origin_timeouts,
                r.stale_hits,
                r.revalidations
            )?;
        }
        Ok(())
    }
}

impl Experiment {
    /// Replays the trace at each client count in `thread_counts` through
    /// a fresh shared handle, with `origin_delay` of simulated WAN +
    /// origin time per fetch.
    pub fn throughput(&self, thread_counts: &[usize], origin_delay: Duration) -> Throughput {
        let (rows, latency) = thread_counts
            .iter()
            .map(|&threads| run_once(&self.site, &self.trace, threads, origin_delay))
            .unzip();
        Throughput {
            origin_delay_ms: origin_delay.as_millis() as u64,
            rows,
            latency,
        }
    }
}

/// Client counts for a `--threads K` sweep: powers of two up to `max`,
/// plus `max` itself (`8 → 1, 2, 4, 8`; `6 → 1, 2, 4, 6`).
pub fn thread_sweep(max: usize) -> Vec<usize> {
    let max = max.max(1);
    let mut counts: Vec<usize> = std::iter::successors(Some(1usize), |n| n.checked_mul(2))
        .take_while(|&n| n < max)
        .collect();
    counts.push(max);
    counts
}

fn run_once(
    site: &SkySite,
    trace: &Trace,
    threads: usize,
    delay: Duration,
) -> (ThroughputRow, LatencyPercentilesRow) {
    let counting = Arc::new(CountingOrigin::with_delay(
        Arc::new(SiteOrigin::new(site.clone())),
        delay,
    ));
    let handle = ProxyHandle::with_shards(
        TemplateManager::with_sky_defaults(),
        Arc::clone(&counting) as Arc<dyn funcproxy::Origin>,
        ProxyConfig::default()
            .with_scheme(Scheme::FullSemantic)
            .with_cost(CostModel::free()),
        THROUGHPUT_SHARDS,
    );

    let start = Instant::now();
    let metrics = Rbe::default()
        .replay_shared(&handle, trace, threads)
        .expect("trace replays");
    let elapsed = start.elapsed();

    // Real wall-clock time each request spent inside the proxy, including
    // flight waits, lock waits and (for leaders) the origin round trip.
    let mut latencies: Vec<f64> = metrics.iter().map(|m| m.proxy_ms).collect();
    latencies.sort_by(f64::total_cmp);

    // Cache hits in isolation: the latencies the columnar serve path
    // controls (no origin round trip hidden inside).
    let mut hit_latencies: Vec<f64> = metrics
        .iter()
        .filter(|m| matches!(m.outcome, Outcome::Exact | Outcome::Contained))
        .map(|m| m.proxy_ms)
        .collect();
    hit_latencies.sort_by(f64::total_cmp);

    // Disk-tier hits in isolation (none unless a tier is configured —
    // the column keeps the artifact schema uniform with the sweep).
    let mut disk_latencies: Vec<f64> = metrics
        .iter()
        .filter(|m| m.disk_hit)
        .map(|m| m.proxy_ms)
        .collect();
    disk_latencies.sort_by(f64::total_cmp);

    let snapshot: RuntimeSnapshot = handle.runtime_stats();
    let row = ThroughputRow {
        threads,
        elapsed_ms: elapsed.as_secs_f64() * 1e3,
        qps: trace.len() as f64 / elapsed.as_secs_f64().max(1e-9),
        p50_ms: percentile(&latencies, 0.50),
        p99_ms: percentile(&latencies, 0.99),
        p90_ms: snapshot.request_latency.p90_ms,
        p999_ms: snapshot.request_latency.p999_ms,
        origin_fetches: counting.fetches(),
        coalesced: snapshot.coalesced_exact + snapshot.coalesced_contained,
        duplicate_fetches_avoided: snapshot.duplicate_fetches_avoided,
        lock_wait_ms: snapshot.lock_wait_ms,
        in_flight_peak: snapshot.in_flight_peak,
        hits: hit_latencies.len(),
        hit_p50_ms: percentile(&hit_latencies, 0.50),
        hit_p99_ms: percentile(&hit_latencies, 0.99),
        disk_hits: disk_latencies.len(),
        disk_hit_p50_ms: percentile(&disk_latencies, 0.50),
        disk_hit_p99_ms: percentile(&disk_latencies, 0.99),
        rows_scanned: metrics.iter().map(|m| m.rows_scanned).sum(),
        rows_pruned: metrics.iter().map(|m| m.rows_pruned).sum(),
        degraded_hits: snapshot.degraded_hits,
        origin_timeouts: snapshot.resilience.timeouts,
        stale_hits: snapshot.stale_hits,
        revalidations: snapshot.revalidations,
    };
    (row, latency_row(&handle, threads))
}

/// Drains every non-empty histogram cell from the handle's observer
/// into one serializable latency row.
fn latency_row(handle: &ProxyHandle, threads: usize) -> LatencyPercentilesRow {
    let obs = handle.observer();
    let phases = Phase::ALL
        .iter()
        .flat_map(|&phase| {
            PathClass::ALL.iter().filter_map(move |&path| {
                let snap = obs.phase_histogram(phase, path).snapshot();
                (snap.count() > 0).then(|| PhasePercentiles {
                    phase: phase.label().to_string(),
                    path: path.label().to_string(),
                    summary: LatencySummary::from_snapshot(&snap),
                })
            })
        })
        .collect();
    let outcomes = OutcomeClass::ALL
        .iter()
        .filter_map(|&class| {
            let snap = obs.outcome_histogram(class).snapshot();
            (snap.count() > 0).then(|| OutcomePercentiles {
                class: class.label().to_string(),
                summary: LatencySummary::from_snapshot(&snap),
            })
        })
        .collect();
    LatencyPercentilesRow {
        threads,
        phases,
        outcomes,
    }
}

/// Nearest-rank percentile of an ascending-sorted slice.
pub(crate) fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((sorted.len() as f64 * p).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Scale;

    #[test]
    fn sweep_is_powers_of_two_capped_at_max() {
        assert_eq!(thread_sweep(8), vec![1, 2, 4, 8]);
        assert_eq!(thread_sweep(6), vec![1, 2, 4, 6]);
        assert_eq!(thread_sweep(1), vec![1]);
        assert_eq!(thread_sweep(0), vec![1]);
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let v = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(percentile(&v, 0.50), 2.0);
        assert_eq!(percentile(&v, 0.99), 4.0);
        assert_eq!(percentile(&[], 0.5), 0.0);
    }

    /// The acceptance bar for the concurrent runtime: with origin latency
    /// in the loop, eight clients must outrun one — their origin waits
    /// overlap — and the replay must stay correct (checked separately in
    /// the fp-trace oracle test).
    #[test]
    fn eight_clients_beat_one() {
        let exp = Experiment::prepare(Scale {
            objects: 10_000,
            queries: 120,
            seed: 21,
        });
        let t = exp.throughput(&[1, 8], Duration::from_millis(5));
        let (one, eight) = (&t.rows[0], &t.rows[1]);
        assert!(
            eight.qps > one.qps,
            "8 clients ({:.1} qps) must beat 1 client ({:.1} qps)",
            eight.qps,
            one.qps
        );
        // Both replays answer every query.
        assert_eq!(one.coalesced, 0, "no coalescing with a single client");
        assert!(eight.in_flight_peak >= 1);
        // The coalescer never multiplies origin work.
        assert!(eight.origin_fetches <= one.origin_fetches + eight.duplicate_fetches_avoided);
        // Hit-latency accounting: the trace repeats queries, so both
        // replays serve cache hits, and the percentiles are ordered.
        for r in [one, eight] {
            assert!(r.hits > 0, "replay must produce cache hits");
            assert!(r.hit_p99_ms >= r.hit_p50_ms);
            assert!(r.rows_scanned > 0, "hits evaluate cached rows");
        }
        // The histogram-backed columns and the percentile artifact are
        // populated: every client count records phases and outcomes.
        assert_eq!(t.latency.len(), t.rows.len());
        for (r, l) in t.rows.iter().zip(&t.latency) {
            assert!(r.p999_ms >= r.p90_ms, "quantiles must be ordered");
            assert!(!l.phases.is_empty(), "phases recorded");
            assert!(!l.outcomes.is_empty(), "outcomes recorded");
            assert!(
                l.phases.iter().any(|p| p.phase == "origin_fetch"),
                "origin fetches must be observed"
            );
            // Every replayed query records exactly one outcome sample.
            let total: u64 = l.outcomes.iter().map(|o| o.summary.count).sum();
            assert_eq!(total, 120, "one outcome sample per replayed query");
        }
    }
}
