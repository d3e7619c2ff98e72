//! Adaptive-vs-static scheme comparison under cost-aware replacement.
//!
//! The runtime's profit model claims it can pick the right caching
//! scheme per template at runtime. This harness puts that claim on
//! fixed axes: it replays two calibrated Radial traces — the standard
//! mix and a Zipf-skewed variant concentrating traffic on a few hot
//! spots — through every static scheme and through the adaptive
//! selector, all under the cost-aware replacement policy and a
//! constrained cache budget. Every run is checked per answer against a
//! no-cache oracle (row counts must match query by query), and the
//! adaptive run is required to match the best static hit rate while
//! matching or beating the *response-optimal* static scheme — the one
//! an operator who knew the workload in advance would deploy — on both
//! mean response and time spent on the origin path.

use crate::Experiment;
use fp_trace::{Rbe, Trace, TraceSpec};
use funcproxy::cache::{DescriptionKind, Replacement};
use funcproxy::metrics::{Outcome, QueryMetrics, TraceReport};
use funcproxy::template::TemplateManager;
use funcproxy::{CostModel, CountingOrigin, ProxyConfig, ProxyHandle, Scheme, SiteOrigin};
use serde::Serialize;
use std::sync::Arc;

/// Cache budget as a fraction of the trace's total result size — tight
/// enough that the replacement policy decides outcomes.
pub const ADAPTIVE_CACHE_FRACTION: f64 = 1.0 / 3.0;

/// Absolute hit-rate slack when holding the adaptive run to the best
/// static scheme (exploration costs a little before the model commits).
pub const ADAPTIVE_HIT_TOLERANCE: f64 = 0.02;

/// Relative slack on response time and origin-path time when holding
/// the adaptive run to the response-optimal static scheme. The
/// selector's own switch hysteresis is 10% — schemes whose costs sit
/// inside that band are deliberately treated as ties — so "matching"
/// means landing within half that band.
///
/// Why the *response-optimal* static and not a per-axis minimum: no
/// single scheme attains the minimum on every axis at once (e.g.
/// containment-only often wins response while full-semantic wins
/// origin traffic), so a per-axis bar is unattainable for statics and
/// adaptive alike. The meaningful baseline is the one static scheme an
/// operator who knew the workload in advance would have deployed — the
/// one with the best mean response — and adaptive must match its
/// response without spending more origin time than it.
pub const ADAPTIVE_ORIGIN_TOLERANCE: f64 = 0.05;

/// One (trace, scheme) run.
#[derive(Debug, Clone, Serialize)]
pub struct AdaptiveRow {
    /// Scheme label (`no-cache` … `containment-only`, or `adaptive`).
    pub scheme: String,
    /// Fraction of queries answered wholly from cache.
    pub hit_rate: f64,
    /// Mean simulated response time, ms.
    pub avg_response_ms: f64,
    /// Summed simulated cost of the queries that paid an origin round
    /// trip (forwards and overlap remainders), ms.
    pub origin_path_ms: f64,
    /// Origin `execute` calls observed by the counting wrapper.
    pub origin_fetches: usize,
    /// Every answer's row count matched the no-cache oracle.
    pub sound: bool,
}

/// The adaptive run's selector counters, straight from the runtime
/// snapshot.
#[derive(Debug, Clone, Serialize)]
pub struct AdaptiveCounters {
    /// Committed-scheme changes across the run.
    pub scheme_switches: usize,
    /// Templates the profit model tracked.
    pub adaptive_templates: usize,
    /// Requests served per scheme, in declaration order.
    pub scheme_serves: Vec<usize>,
}

/// One trace's section: all static schemes plus adaptive.
#[derive(Debug, Clone, Serialize)]
pub struct AdaptiveSection {
    /// Trace label (`standard` or `zipf`).
    pub trace: &'static str,
    /// One row per scheme; `adaptive` last.
    pub rows: Vec<AdaptiveRow>,
    /// Selector counters of the adaptive run.
    pub adaptive: AdaptiveCounters,
    /// The static scheme with the best mean response (the deploy-this
    /// baseline the origin/response verdicts compare against).
    pub best_static: String,
    /// Adaptive hit rate ≥ best static hit rate − tolerance (best taken
    /// across *all* static schemes).
    pub adaptive_matches_best_hit_rate: bool,
    /// Adaptive mean response ≤ response-optimal static × (1 + tol).
    pub adaptive_matches_best_response: bool,
    /// Adaptive origin-path time ≤ response-optimal static × (1 + tol).
    pub adaptive_matches_best_origin_ms: bool,
}

/// The full adaptive-vs-static artifact (`BENCH_adaptive.json`).
#[derive(Debug, Clone, Serialize)]
pub struct AdaptiveBench {
    /// Cache budget (bytes) every run used.
    pub capacity_bytes: usize,
    /// One section per trace.
    pub sections: Vec<AdaptiveSection>,
}

impl Experiment {
    /// Runs the adaptive-vs-static comparison over the standard trace
    /// and a Zipf-skewed variant.
    pub fn adaptive(&self) -> AdaptiveBench {
        let capacity = self.capacity_for(ADAPTIVE_CACHE_FRACTION);
        let zipf = TraceSpec {
            seed: 0x51AF,
            queries: self.trace.len(),
            hotspots: 8,
            hotspot_zipf: 1.1,
            ..TraceSpec::default()
        }
        .generate();
        let sections = vec![
            self.adaptive_section("standard", &self.trace, capacity),
            self.adaptive_section("zipf", &zipf, capacity),
        ];
        AdaptiveBench {
            capacity_bytes: capacity,
            sections,
        }
    }

    fn adaptive_section(
        &self,
        label: &'static str,
        trace: &Trace,
        capacity: usize,
    ) -> AdaptiveSection {
        // Ground truth: every query through a cache-less proxy.
        let oracle = self.oracle_rows(trace);

        let mut rows = Vec::new();
        for &scheme in Scheme::all().iter() {
            let (row, _) = self.adaptive_run(trace, Some(scheme), capacity, &oracle);
            rows.push(row);
        }
        let (adaptive_row, snapshot) = self.adaptive_run(trace, None, capacity, &oracle);

        // Hold adaptive to the best static hit rate on any scheme, and
        // to the response and origin time of the *response-optimal*
        // static — the scheme an operator with workload foreknowledge
        // would have deployed (see ADAPTIVE_ORIGIN_TOLERANCE).
        let best_hit = rows.iter().map(|r| r.hit_rate).fold(0.0, f64::max);
        let best_static = rows
            .iter()
            .min_by(|a, b| a.avg_response_ms.total_cmp(&b.avg_response_ms))
            .expect("static rows are non-empty")
            .clone();
        let adaptive_matches_best_hit_rate =
            adaptive_row.hit_rate >= best_hit - ADAPTIVE_HIT_TOLERANCE;
        let adaptive_matches_best_response = adaptive_row.avg_response_ms
            <= best_static.avg_response_ms * (1.0 + ADAPTIVE_ORIGIN_TOLERANCE);
        let adaptive_matches_best_origin_ms = adaptive_row.origin_path_ms
            <= best_static.origin_path_ms * (1.0 + ADAPTIVE_ORIGIN_TOLERANCE);
        rows.push(adaptive_row);

        AdaptiveSection {
            trace: label,
            rows,
            adaptive: AdaptiveCounters {
                scheme_switches: snapshot.scheme_switches,
                adaptive_templates: snapshot.adaptive_templates,
                scheme_serves: snapshot.scheme_serves.to_vec(),
            },
            best_static: best_static.scheme,
            adaptive_matches_best_hit_rate,
            adaptive_matches_best_response,
            adaptive_matches_best_origin_ms,
        }
    }

    /// Per-query oracle row counts (no cache, free cost model).
    fn oracle_rows(&self, trace: &Trace) -> Vec<usize> {
        let proxy = crate::make_proxy(
            &self.site,
            Scheme::NoCache,
            DescriptionKind::Array,
            None,
            CostModel::free(),
        );
        Rbe::default()
            .replay(&proxy, trace)
            .expect("oracle replays")
            .iter()
            .map(|m| m.rows_total)
            .collect()
    }

    /// One replay through the concurrent runtime: a fixed scheme, or
    /// the adaptive selector when `scheme` is `None`. Single-client so
    /// the selector's decisions are deterministic run over run.
    fn adaptive_run(
        &self,
        trace: &Trace,
        scheme: Option<Scheme>,
        capacity: usize,
        oracle: &[usize],
    ) -> (AdaptiveRow, funcproxy::runtime::RuntimeSnapshot) {
        let mut config = ProxyConfig::default()
            .with_capacity(Some(capacity))
            .with_cost(self.cost)
            .with_replacement(Replacement::CostAware);
        config = match scheme {
            Some(s) => config.with_scheme(s),
            None => config.with_adaptive_scheme(),
        };
        let counting = Arc::new(CountingOrigin::new(Arc::new(SiteOrigin::new(
            self.site.clone(),
        ))));
        let handle = ProxyHandle::with_shards(
            TemplateManager::with_sky_defaults(),
            Arc::clone(&counting) as Arc<dyn funcproxy::Origin>,
            config,
            4,
        );
        let metrics = Rbe::default()
            .replay(&handle, trace)
            .expect("trace replays");
        let report = TraceReport::from_metrics(&metrics);
        let snapshot = handle.runtime_stats();

        let sound = metrics
            .iter()
            .zip(oracle)
            .all(|(m, &want)| m.rows_total == want);
        let row = AdaptiveRow {
            scheme: match scheme {
                Some(s) => s.to_string(),
                None => "adaptive".to_string(),
            },
            hit_rate: hit_rate(&metrics),
            avg_response_ms: report.avg_response_ms,
            origin_path_ms: origin_path_ms(&metrics),
            origin_fetches: counting.fetches(),
            sound,
        };
        (row, snapshot)
    }
}

/// Fraction of queries answered wholly from cache.
fn hit_rate(metrics: &[QueryMetrics]) -> f64 {
    let hits = metrics
        .iter()
        .filter(|m| matches!(m.outcome, Outcome::Exact | Outcome::Contained))
        .count();
    hits as f64 / metrics.len().max(1) as f64
}

/// Summed simulated cost of the queries that paid an origin round trip.
fn origin_path_ms(metrics: &[QueryMetrics]) -> f64 {
    metrics
        .iter()
        .filter(|m| matches!(m.outcome, Outcome::Forwarded | Outcome::Overlap))
        .map(|m| m.sim_ms)
        .sum()
}

impl std::fmt::Display for AdaptiveBench {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "Adaptive scheme selection vs static schemes (cost-aware replacement, {:.0} KB cache)",
            self.capacity_bytes as f64 / 1024.0
        )?;
        for s in &self.sections {
            writeln!(f, "  trace: {}", s.trace)?;
            writeln!(
                f,
                "    scheme              |  hit% | avg resp ms | origin ms | fetches | sound"
            )?;
            for r in &s.rows {
                writeln!(
                    f,
                    "    {:<19} | {:>5.1} | {:>11.0} | {:>9.0} | {:>7} | {}",
                    r.scheme,
                    r.hit_rate * 100.0,
                    r.avg_response_ms,
                    r.origin_path_ms,
                    r.origin_fetches,
                    r.sound,
                )?;
            }
            writeln!(
                f,
                "    adaptive: {} switches over {} template(s), serves {:?}",
                s.adaptive.scheme_switches, s.adaptive.adaptive_templates, s.adaptive.scheme_serves,
            )?;
            writeln!(
                f,
                "    adaptive vs best static ({}): hit rate {}, response {}, origin time {}",
                s.best_static,
                if s.adaptive_matches_best_hit_rate {
                    "ok"
                } else {
                    "BEHIND"
                },
                if s.adaptive_matches_best_response {
                    "ok"
                } else {
                    "BEHIND"
                },
                if s.adaptive_matches_best_origin_ms {
                    "ok"
                } else {
                    "BEHIND"
                },
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Scale;

    /// The acceptance bar: every run sound against the oracle, and the
    /// adaptive run keeping pace with the best static scheme on both
    /// axes, on both traces.
    #[test]
    fn adaptive_keeps_pace_with_best_static_and_stays_sound() {
        let exp = Experiment::prepare(Scale {
            objects: 20_000,
            queries: 220,
            seed: 17,
        });
        let bench = exp.adaptive();
        assert_eq!(bench.sections.len(), 2);
        for s in &bench.sections {
            assert_eq!(s.rows.len(), Scheme::all().len() + 1);
            for r in &s.rows {
                assert!(r.sound, "{}/{} diverged from the oracle", s.trace, r.scheme);
            }
            let adaptive = s.rows.last().unwrap();
            assert_eq!(adaptive.scheme, "adaptive");
            assert!(
                s.adaptive_matches_best_hit_rate,
                "{}: adaptive hit rate {} behind best static",
                s.trace, adaptive.hit_rate
            );
            assert!(
                s.adaptive_matches_best_response,
                "{}: adaptive response {} behind best static {}",
                s.trace, adaptive.avg_response_ms, s.best_static
            );
            assert!(
                s.adaptive_matches_best_origin_ms,
                "{}: adaptive origin ms {} behind best static {}",
                s.trace, adaptive.origin_path_ms, s.best_static
            );
            assert_eq!(s.adaptive.adaptive_templates, 1);
            // The adaptive run serves real traffic through the model.
            assert!(s.adaptive.scheme_serves.iter().sum::<usize>() > 0);
            // And beats not caching at all by a clear margin.
            let nc = s.rows.iter().find(|r| r.scheme == "no-cache").unwrap();
            assert!(
                adaptive.origin_path_ms < nc.origin_path_ms * 0.9,
                "{}: adaptive {} vs no-cache {}",
                s.trace,
                adaptive.origin_path_ms,
                nc.origin_path_ms
            );
        }
        assert!(!format!("{bench}").is_empty());
    }
}
