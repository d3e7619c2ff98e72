//! Availability under origin failure: the chaos experiment behind
//! `repro --chaos`.
//!
//! The paper's evaluation assumes the origin site always answers; a
//! deployed proxy cannot. This harness replays the calibrated Radial
//! trace through a [`ProxyHandle`] whose origin is wrapped in a
//! [`ChaosOrigin`], with a full outage covering the middle third of the
//! trace and a burst of latency spikes at the start. Everything runs on
//! a [`MockClock`] — the clock advances a fixed tick per query, the
//! outage window, deadlines, backoff waits and breaker cooldowns all
//! consume that same virtual time, so the run is bit-for-bit
//! deterministic on any machine.
//!
//! The question the report answers: **what fraction of queries does the
//! proxy still answer while its origin is down**, and at what quality?
//! During the outage, exact and contained queries are served from cache
//! as usual; region-containment and overlap queries are served
//! *degraded* (the cached subset of the answer, marked partial); only
//! true disjoint misses fail. Every served row is checked against a
//! no-cache oracle run, so degraded answers are also verified sound
//! (subset) here, not just in the property tests.
//!
//! [`MockClock`]: funcproxy::resilience::MockClock

use crate::Experiment;
use fp_trace::Rbe;
use funcproxy::metrics::Outcome;
use funcproxy::resilience::{Clock, MockClock};
use funcproxy::template::TemplateManager;
use funcproxy::{
    ChaosOrigin, CostModel, Fault, ProxyConfig, ProxyHandle, ResilienceConfig, Scheme, SiteOrigin,
};
use serde::Serialize;
use std::sync::Arc;
use std::time::Duration;

/// Virtual time that passes between consecutive trace queries.
const TICK: Duration = Duration::from_millis(10);
/// Latency spikes injected before the outage (each exceeds the deadline,
/// so each costs one query and one recorded timeout).
const LATENCY_SPIKES: usize = 2;
/// Cache shards (fixed for determinism, mirroring the throughput runs).
const SHARDS: usize = 8;

/// The resilience policy the chaos run exercises. All durations are in
/// MockClock time.
fn policy() -> ResilienceConfig {
    ResilienceConfig {
        deadline: Some(Duration::from_millis(100)),
        max_retries: 1,
        backoff_base: Duration::from_millis(5),
        backoff_cap: Duration::from_millis(20),
        backoff_seed: 0xC4A05,
        breaker_threshold: 3,
        breaker_cooldown: Duration::from_millis(200),
    }
}

/// The availability report of one chaos replay.
#[derive(Debug, Clone, Serialize)]
pub struct ChaosReport {
    /// Queries in the trace.
    pub queries: usize,
    /// Queries inside the outage window.
    pub outage_queries: usize,
    /// Queries answered (any outcome, degraded included), whole trace.
    pub answered: usize,
    /// Queries answered inside the outage window.
    pub answered_in_outage: usize,
    /// Of the outage answers, how many were served degraded.
    pub degraded_in_outage: usize,
    /// Queries that failed inside the outage window (disjoint misses
    /// and fast-fails with nothing cached to fall back on).
    pub failed_in_outage: usize,
    /// Queries that failed outside the outage window (the injected
    /// latency spikes).
    pub failed_outside_outage: usize,
    /// Rows served by degraded answers, summed over the trace.
    pub degraded_rows: usize,
    /// Rows the no-cache oracle returns for those same queries — the
    /// denominator of the degraded-completeness fraction.
    pub degraded_oracle_rows: usize,
    /// Every served answer was a subset of (or equal to) the oracle
    /// answer for that query. Soundness holds even under fault
    /// injection; `false` would be a bug.
    pub all_answers_sound: bool,
    /// Fetches whose deadline expired.
    pub origin_timeouts: u64,
    /// Origin retries issued.
    pub origin_retries: u64,
    /// Fetches failed fast by the open breaker.
    pub origin_fast_fails: u64,
    /// Times the breaker opened.
    pub breaker_opens: u64,
    /// Breaker state after the post-outage recovery probe ("closed" if
    /// the proxy healed).
    pub final_breaker_state: &'static str,
    /// Virtual milliseconds between the outage ending and the breaker
    /// observed closed again; `None` if it never re-closed.
    pub breaker_reclose_ms: Option<f64>,
}

/// The compact availability summary `repro --chaos` persists to
/// `BENCH_availability.json`, so successive lifecycle/resilience changes
/// can be compared on fixed axes.
#[derive(Debug, Clone, Serialize)]
pub struct AvailabilityBench {
    /// Queries in the trace.
    pub queries: usize,
    /// Fraction of all queries answered.
    pub availability: f64,
    /// Fraction of outage-window queries still answered.
    pub availability_in_outage: f64,
    /// Of the outage answers, the fraction served degraded.
    pub degraded_hit_rate: f64,
    /// Virtual ms from outage end until the breaker re-closed.
    pub breaker_reclose_ms: Option<f64>,
    /// Times the breaker opened over the run.
    pub breaker_opens: u64,
    /// Every served answer verified as a subset of the oracle answer.
    pub all_answers_sound: bool,
}

impl ChaosReport {
    /// Fraction of all queries answered.
    pub fn availability(&self) -> f64 {
        self.answered as f64 / (self.queries.max(1)) as f64
    }

    /// Fraction of outage-window queries still answered.
    pub fn availability_in_outage(&self) -> f64 {
        if self.outage_queries == 0 {
            return 1.0;
        }
        self.answered_in_outage as f64 / self.outage_queries as f64
    }

    /// Mean completeness of degraded answers: degraded rows served over
    /// the rows a healthy origin would have produced for those queries.
    pub fn degraded_completeness(&self) -> f64 {
        if self.degraded_oracle_rows == 0 {
            return 1.0;
        }
        self.degraded_rows as f64 / self.degraded_oracle_rows as f64
    }

    /// Projects this report onto the persisted benchmark axes.
    pub fn availability_bench(&self) -> AvailabilityBench {
        AvailabilityBench {
            queries: self.queries,
            availability: self.availability(),
            availability_in_outage: self.availability_in_outage(),
            degraded_hit_rate: if self.answered_in_outage == 0 {
                0.0
            } else {
                self.degraded_in_outage as f64 / self.answered_in_outage as f64
            },
            breaker_reclose_ms: self.breaker_reclose_ms,
            breaker_opens: self.breaker_opens,
            all_answers_sound: self.all_answers_sound,
        }
    }
}

impl std::fmt::Display for ChaosReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "Availability under origin failure (outage over the middle third of the trace, virtual clock)"
        )?;
        writeln!(
            f,
            "  queries: {} total, {} inside the outage window",
            self.queries, self.outage_queries
        )?;
        writeln!(
            f,
            "  availability: {:.1}% overall, {:.1}% during the outage",
            self.availability() * 100.0,
            self.availability_in_outage() * 100.0
        )?;
        writeln!(
            f,
            "  outage window: {} answered ({} degraded), {} failed (disjoint misses)",
            self.answered_in_outage, self.degraded_in_outage, self.failed_in_outage
        )?;
        writeln!(
            f,
            "  degraded answers: {} rows served of {} a healthy origin would return ({:.1}% complete), all sound subsets: {}",
            self.degraded_rows,
            self.degraded_oracle_rows,
            self.degraded_completeness() * 100.0,
            self.all_answers_sound
        )?;
        writeln!(
            f,
            "  resilience: {} timeouts, {} retries, {} fast-fails, breaker opened {}x, final state: {}",
            self.origin_timeouts,
            self.origin_retries,
            self.origin_fast_fails,
            self.breaker_opens,
            self.final_breaker_state
        )?;
        match self.breaker_reclose_ms {
            Some(ms) => writeln!(
                f,
                "  breaker re-closed {ms:.0} virtual ms after the outage ended"
            ),
            None => writeln!(f, "  breaker never re-closed"),
        }
    }
}

impl Experiment {
    /// Replays the trace with the origin failing mid-trace; see the
    /// module docs for the fault plan and the report semantics.
    pub fn chaos(&self) -> ChaosReport {
        let rbe = Rbe::default();

        // Oracle pass: what every query answers when nothing ever fails
        // and nothing is cached. Keyed by query string, since the trace
        // repeats queries.
        let oracle_rows = self.oracle_object_ids();

        // The chaos replay: outage over the middle third of the virtual
        // timeline, latency spikes on the first origin calls.
        let n = self.trace.len();
        let clock = MockClock::shared();
        let chaos = Arc::new(ChaosOrigin::with_clock(
            Arc::new(SiteOrigin::new(self.site.clone())),
            Arc::clone(&clock) as Arc<dyn Clock>,
        ));
        let outage_start = TICK * (n as u32 / 3);
        let outage_end = TICK * (2 * n as u32 / 3);
        chaos.outage_between(outage_start, outage_end);
        chaos.script(vec![
            Fault::Latency(
                Duration::from_millis(150),
                Box::new(Fault::Healthy)
            );
            LATENCY_SPIKES
        ]);

        let handle = ProxyHandle::with_shards_clocked(
            TemplateManager::with_sky_defaults(),
            Arc::clone(&chaos) as Arc<dyn funcproxy::Origin>,
            ProxyConfig::default()
                .with_scheme(Scheme::FullSemantic)
                .with_cost(CostModel::free())
                .with_resilience(policy()),
            SHARDS,
            Arc::clone(&clock) as Arc<dyn Clock>,
        );

        let mut report = ChaosReport {
            queries: n,
            outage_queries: 0,
            answered: 0,
            answered_in_outage: 0,
            degraded_in_outage: 0,
            failed_in_outage: 0,
            failed_outside_outage: 0,
            degraded_rows: 0,
            degraded_oracle_rows: 0,
            all_answers_sound: true,
            origin_timeouts: 0,
            origin_retries: 0,
            origin_fast_fails: 0,
            breaker_opens: 0,
            final_breaker_state: "none",
            breaker_reclose_ms: None,
        };

        let t0 = clock.now();
        let mut reclosed_at: Option<Duration> = None;
        for q in &self.trace.queries {
            clock.advance(TICK);
            let in_outage = chaos.in_outage();
            report.outage_queries += usize::from(in_outage);
            match handle.handle_form(&rbe.form_path, &q.form_fields()) {
                Ok(response) => {
                    report.answered += 1;
                    report.answered_in_outage += usize::from(in_outage);
                    let oracle = &oracle_rows[&q.query_string()];
                    if !is_subset(&response.result, oracle) {
                        report.all_answers_sound = false;
                    }
                    if response.metrics.degraded {
                        report.degraded_in_outage += usize::from(in_outage);
                        report.degraded_rows += response.result.len();
                        report.degraded_oracle_rows += oracle.len();
                    } else if !matches!(response.metrics.outcome, Outcome::Forwarded)
                        && response.result.len() != oracle.len()
                    {
                        // A non-degraded cache answer must be complete.
                        report.all_answers_sound = false;
                    }
                }
                Err(_) => {
                    if in_outage {
                        report.failed_in_outage += 1;
                    } else {
                        report.failed_outside_outage += 1;
                    }
                }
            }
            // Track when the breaker is first seen closed again after
            // the outage window (virtual time, so deterministic).
            if reclosed_at.is_none() {
                let elapsed = clock.now().duration_since(t0);
                if elapsed > outage_end
                    && handle.runtime_stats().resilience.breaker_state == "closed"
                {
                    reclosed_at = Some(elapsed);
                }
            }
        }

        // Recovery: let the breaker cooldown lapse, then force one
        // origin-bound query (a fresh position no trace query covers) so
        // the half-open probe runs against the healed origin.
        clock.advance(policy().breaker_cooldown + TICK);
        let probe_fields = vec![
            ("ra".to_string(), "10.0".to_string()),
            ("dec".to_string(), "75.0".to_string()),
            ("radius".to_string(), "1.0".to_string()),
        ];
        let _ = handle.handle_form(&rbe.form_path, &probe_fields);

        let snapshot = handle.runtime_stats();
        report.origin_timeouts = snapshot.resilience.timeouts;
        report.origin_retries = snapshot.resilience.retries;
        report.origin_fast_fails = snapshot.resilience.fast_fails;
        report.breaker_opens = snapshot.resilience.breaker_opens;
        report.final_breaker_state = snapshot.resilience.breaker_state;
        if reclosed_at.is_none() && snapshot.resilience.breaker_state == "closed" {
            // Closed by the healing probe, after the trace loop ended.
            reclosed_at = Some(clock.now().duration_since(t0));
        }
        report.breaker_reclose_ms =
            reclosed_at.map(|at| at.saturating_sub(outage_end).as_secs_f64() * 1000.0);
        report
    }
}

/// Whether every key of `result` appears in the oracle's key set.
fn is_subset(result: &fp_skyserver::ResultSet, oracle: &[fp_sqlmini::Value]) -> bool {
    let Some(key_col) = result.column_index("objID") else {
        return result.is_empty();
    };
    result
        .rows
        .iter()
        .all(|r| oracle.iter().any(|v| *v == r[key_col]))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Scale;

    /// The acceptance bar for the fault-tolerant origin layer, end to
    /// end: the proxy keeps answering through a full mid-trace outage,
    /// every answer stays sound, and the breaker heals afterwards.
    #[test]
    fn outage_mid_trace_keeps_the_proxy_answering() {
        let exp = Experiment::prepare(Scale {
            objects: 10_000,
            queries: 150,
            seed: 21,
        });
        let r = exp.chaos();

        assert_eq!(r.queries, 150);
        assert!(r.outage_queries > 30, "outage covers a third of the trace");
        assert!(
            r.answered_in_outage > 0,
            "cache must keep answering during the outage"
        );
        assert!(
            r.availability_in_outage() > r.failed_in_outage as f64 / r.outage_queries.max(1) as f64
                || r.availability_in_outage() > 0.3,
            "outage availability {:.2} too low",
            r.availability_in_outage()
        );
        assert!(r.all_answers_sound, "a served answer exceeded the oracle");
        // The latency spikes show up as timeouts, the outage as breaker
        // activity, and fast-fails prove the breaker shed load instead
        // of hammering the dead origin.
        assert!(r.origin_timeouts >= LATENCY_SPIKES as u64);
        assert!(r.breaker_opens >= 1, "the outage must trip the breaker");
        assert!(r.origin_fast_fails > 0, "the open breaker must shed load");
        assert_eq!(
            r.final_breaker_state, "closed",
            "the breaker must re-close once the origin heals"
        );
        let reclose = r
            .breaker_reclose_ms
            .expect("a healed breaker has a reclose time");
        assert!(
            (0.0..=10_000.0).contains(&reclose),
            "reclose time {reclose} ms out of range"
        );
        let bench = r.availability_bench();
        assert!(bench.availability > 0.0 && bench.availability <= 1.0);
        assert!(bench.degraded_hit_rate <= 1.0);
        // Outside the outage window, the only failures are the scripted
        // latency spikes plus the short post-outage tail where the
        // breaker is still in its last cooldown (at most
        // cooldown / TICK queries before the healing probe runs).
        let cooldown_ticks = (policy().breaker_cooldown.as_millis() / TICK.as_millis()) as usize;
        assert!(
            r.failed_outside_outage >= LATENCY_SPIKES,
            "the latency spikes must fail ({} outside-outage failures)",
            r.failed_outside_outage
        );
        assert!(
            r.failed_outside_outage <= LATENCY_SPIKES + cooldown_ticks,
            "{} outside-outage failures exceeds spikes + cooldown tail",
            r.failed_outside_outage
        );
    }
}
