//! [`ResilientOrigin`]: deadlines, retries, and the circuit breaker
//! wrapped around any [`Origin`].
//!
//! The decorator is the single choke point the whole fetch path goes
//! through when resilience is configured (see
//! [`crate::runtime::ProxyHandle`]). Per request it enforces:
//!
//! 1. a **deadline** covering every attempt *and* every backoff wait —
//!    a synchronous origin cannot be preempted mid-call, so a result
//!    that lands after the budget is spent is counted as a timeout and
//!    discarded (the caller has already moved on to degraded serving);
//! 2. **bounded retries** with seeded-jitter exponential backoff for
//!    transient failures only — rejections prove the origin is alive
//!    and are returned immediately;
//! 3. the **circuit breaker**: consecutive transient failures open the
//!    circuit, after which fetches fail fast with a `Retry-After` hint
//!    until a cooldown admits a probe.

use super::backoff::Backoff;
use super::breaker::{Admission, BreakerState, CircuitBreaker};
use super::clock::{Clock, SystemClock};
use super::ResilienceConfig;
use crate::observe::{Observer, PathClass, Phase};
use crate::origin::{Origin, OriginError};
use fp_skyserver::result::QueryOutcome;
use fp_sqlmini::Query;
use serde::Serialize;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

crate::counters! {
    /// A point-in-time copy of the resilience counters plus the breaker's
    /// state, for reports and runtime snapshots.
    #[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
    pub struct ResilienceSnapshot {
        /// Origin `execute` calls actually attempted.
        attempts: u64 [AtomicU64] => counter("funcproxy_origin_attempts_total",
            "Origin fetch attempts made by the resilience layer.");
        /// Attempts beyond the first for a request (backoff retries).
        retries: u64 [AtomicU64] => counter("funcproxy_origin_retries_total",
            "Origin retries issued by the resilience layer.");
        /// Requests whose deadline expired (attempt answered too late or
        /// not at all).
        timeouts: u64 [AtomicU64] => counter("funcproxy_origin_timeouts_total",
            "Origin fetches whose deadline expired.");
        /// Fetches rejected without a network attempt because the circuit
        /// was open.
        fast_fails: u64 [AtomicU64] => counter("funcproxy_origin_fast_fails_total",
            "Origin fetches failed fast because the circuit was open.");
        /// Times the circuit opened.
        breaker_opens: u64 => counter("funcproxy_breaker_opens_total",
            "Times the circuit breaker opened.");
        /// The breaker's state at snapshot time; exported by
        /// [`ResilienceSnapshot::render_breaker_open`].
        breaker_state: &'static str;
        /// Milliseconds until an open breaker admits its next probe; `0`
        /// unless the breaker is open. The live `Retry-After` hint.
        breaker_retry_after_ms: u64 => gauge("funcproxy_breaker_retry_after_ms",
            "Milliseconds until an open circuit breaker admits its next probe.");
        /// The backoff delay this layer would prescribe before the next
        /// retry, in milliseconds: the most recent delay actually slept,
        /// or the configured base before any retry has happened. The
        /// `Retry-After` fallback when the breaker is *not* open.
        backoff_hint_ms: u64 => gauge("funcproxy_origin_backoff_hint_ms",
            "Next origin retry backoff delay.");
    }

    /// Cumulative counters of the resilience layer, updated lock-free.
    #[derive(Debug, Default)]
    pub struct ResilienceStats loads Relaxed;
}

impl Default for ResilienceSnapshot {
    fn default() -> Self {
        ResilienceSnapshot {
            attempts: 0,
            retries: 0,
            timeouts: 0,
            fast_fails: 0,
            breaker_opens: 0,
            breaker_state: "none",
            breaker_retry_after_ms: 0,
            backoff_hint_ms: 0,
        }
    }
}

impl ResilienceSnapshot {
    /// Appends `funcproxy_breaker_open{state}`, the one family whose
    /// label value is a runtime string, in Prometheus text format.
    pub fn render_breaker_open(&self, out: &mut String) {
        use std::fmt::Write;
        let _ = writeln!(
            out,
            "# HELP funcproxy_breaker_open Whether the circuit breaker is open.\n\
             # TYPE funcproxy_breaker_open gauge\n\
             funcproxy_breaker_open{{state=\"{}\"}} {}",
            self.breaker_state,
            u8::from(self.breaker_state == "open"),
        );
    }
}

/// The fault-tolerant origin decorator. Cheap to share (`Arc`), safe
/// from any thread.
pub struct ResilientOrigin {
    inner: Arc<dyn Origin>,
    config: ResilienceConfig,
    clock: Arc<dyn Clock>,
    breaker: CircuitBreaker,
    backoff: Mutex<Backoff>,
    stats: ResilienceStats,
    /// Most recent backoff delay slept, ms (0 = no retry yet).
    last_backoff_ms: AtomicU64,
    /// Optional observe hook: backoff-wait histogram + attempt spans.
    observer: Option<Arc<Observer>>,
}

impl ResilientOrigin {
    /// Wraps `inner` with the given policy on the system clock.
    pub fn new(inner: Arc<dyn Origin>, config: ResilienceConfig) -> Self {
        Self::with_clock(inner, config, Arc::new(SystemClock))
    }

    /// Wraps `inner` with an injected clock (tests, chaos harness).
    pub fn with_clock(
        inner: Arc<dyn Origin>,
        config: ResilienceConfig,
        clock: Arc<dyn Clock>,
    ) -> Self {
        let breaker = CircuitBreaker::new(
            config.breaker_threshold,
            config.breaker_cooldown,
            Arc::clone(&clock),
        );
        let backoff = Mutex::new(Backoff::new(
            config.backoff_base,
            config.backoff_cap,
            config.backoff_seed,
        ));
        ResilientOrigin {
            inner,
            config,
            clock,
            breaker,
            backoff,
            stats: ResilienceStats::default(),
            last_backoff_ms: AtomicU64::new(0),
            observer: None,
        }
    }

    /// Attaches the observe layer: backoff waits land in its
    /// `backoff_wait` phase histogram and each origin attempt emits a
    /// trace span (when the calling request is sampled).
    pub fn with_observer(mut self, observer: Arc<Observer>) -> Self {
        self.observer = Some(observer);
        self
    }

    /// The breaker's current state.
    pub fn breaker_state(&self) -> BreakerState {
        self.breaker.state()
    }

    /// A copy of the counters and breaker state.
    pub fn snapshot(&self) -> ResilienceSnapshot {
        let last_backoff = self.last_backoff_ms.load(Ordering::Relaxed);
        ResilienceSnapshot {
            breaker_opens: self.breaker.opens(),
            breaker_state: self.breaker.state().label(),
            breaker_retry_after_ms: self
                .breaker
                .remaining_open()
                .map_or(0, |d| d.as_millis().try_into().unwrap_or(u64::MAX)),
            backoff_hint_ms: if last_backoff > 0 {
                last_backoff
            } else {
                self.config
                    .backoff_base
                    .as_millis()
                    .try_into()
                    .unwrap_or(u64::MAX)
            },
            ..self.stats.snapshot()
        }
    }

    fn next_delay(&self, attempt: u32) -> std::time::Duration {
        let delay = self
            .backoff
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .delay(attempt);
        self.last_backoff_ms.store(
            delay.as_millis().try_into().unwrap_or(u64::MAX).max(1),
            Ordering::Relaxed,
        );
        delay
    }
}

impl Origin for ResilientOrigin {
    fn execute(&self, query: &Query) -> Result<QueryOutcome, OriginError> {
        let start = self.clock.now();
        let deadline = self.config.deadline;
        let mut last_error = None;

        for attempt in 0..=self.config.max_retries {
            let admission = self.breaker.admit();
            if let Admission::Reject { retry_after } = admission {
                self.stats.fast_fails.fetch_add(1, Ordering::Relaxed);
                return Err(OriginError::Overloaded { retry_after });
            }
            self.stats.attempts.fetch_add(1, Ordering::Relaxed);
            if attempt > 0 {
                self.stats.retries.fetch_add(1, Ordering::Relaxed);
            }

            let attempt_start = Instant::now();
            let result = self.inner.execute(query);
            if let Some(obs) = &self.observer {
                let failed = result.is_err();
                obs.span(
                    "origin.attempt",
                    "origin",
                    attempt_start,
                    attempt_start.elapsed(),
                    || Some(format!("attempt={attempt} failed={failed}")),
                );
            }
            let elapsed = self.clock.now().saturating_duration_since(start);
            let overdue = deadline.is_some_and(|d| elapsed > d);

            match result {
                // A rejection proves the origin is alive: report success
                // to the breaker, surface the error, never retry.
                Err(OriginError::Rejected(m)) => {
                    self.breaker.record_success(admission);
                    return Err(OriginError::Rejected(m));
                }
                Ok(outcome) if !overdue => {
                    self.breaker.record_success(admission);
                    return Ok(outcome);
                }
                // Too late: the answer is discarded and counts as a
                // timeout (the origin is struggling even if it answered).
                Ok(_) => {
                    self.stats.timeouts.fetch_add(1, Ordering::Relaxed);
                    self.breaker.record_failure(admission);
                    last_error = Some(OriginError::Timeout {
                        elapsed,
                        deadline: deadline.expect("overdue implies a deadline"),
                    });
                }
                Err(e) => {
                    self.breaker.record_failure(admission);
                    if overdue {
                        self.stats.timeouts.fetch_add(1, Ordering::Relaxed);
                    }
                    last_error = Some(e);
                }
            }

            // The deadline covers retries and backoff too: stop when the
            // budget is spent or the next wait would overrun it.
            if overdue || attempt == self.config.max_retries {
                break;
            }
            let delay = self.next_delay(attempt + 1);
            if deadline.is_some_and(|d| elapsed + delay > d) {
                break;
            }
            let wait_start = Instant::now();
            self.clock.sleep(delay);
            if let Some(obs) = &self.observer {
                // Backoff only ever happens on an origin-bound (miss)
                // path; background revalidation retries land here too
                // and are folded in — the wait is origin-imposed either
                // way. The recorded time is the *prescribed* delay, so
                // virtual clocks report honest waits.
                obs.record_phase(
                    Phase::BackoffWait,
                    PathClass::Miss,
                    delay.as_secs_f64() * 1e3,
                );
                obs.span("backoff.wait", "origin", wait_start, delay, || None);
            }
        }

        Err(last_error.expect("loop ran at least one attempt"))
    }

    fn supports_remainder(&self) -> bool {
        self.inner.supports_remainder()
    }

    fn advertised_epoch(&self) -> Option<u64> {
        self.inner.advertised_epoch()
    }
}

#[cfg(test)]
mod tests {
    use super::super::chaos::{ChaosOrigin, Fault};
    use super::super::clock::MockClock;
    use super::*;
    use crate::origin::SiteOrigin;
    use fp_skyserver::{Catalog, CatalogSpec, SkySite};
    use fp_sqlmini::parse_query;
    use std::time::Duration;

    fn fixture(
        config: ResilienceConfig,
        faults: Vec<Fault>,
    ) -> (ResilientOrigin, Arc<ChaosOrigin>, Arc<MockClock>) {
        let clock = MockClock::shared();
        let site = SiteOrigin::new(SkySite::new(Catalog::generate(&CatalogSpec::small_test())));
        let chaos = Arc::new(ChaosOrigin::with_clock(
            Arc::new(site),
            Arc::clone(&clock) as Arc<dyn Clock>,
        ));
        chaos.script(faults);
        let resilient = ResilientOrigin::with_clock(
            Arc::clone(&chaos) as Arc<dyn Origin>,
            config,
            Arc::clone(&clock) as Arc<dyn Clock>,
        );
        (resilient, chaos, clock)
    }

    fn radial_query() -> fp_sqlmini::Query {
        parse_query("SELECT TOP 5 * FROM fGetNearbyObjEq(185.0, 0.0, 20.0) n").unwrap()
    }

    #[test]
    fn healthy_origin_passes_through() {
        let (origin, chaos, _) = fixture(ResilienceConfig::default(), vec![]);
        let out = origin.execute(&radial_query()).unwrap();
        assert!(out.result.len() <= 5);
        assert_eq!(chaos.calls(), 1);
        let snap = origin.snapshot();
        assert_eq!(snap.attempts, 1);
        assert_eq!(snap.retries, 0);
        assert_eq!(snap.breaker_state, "closed");
        assert!(origin.supports_remainder());
    }

    #[test]
    fn transient_failure_is_retried_with_backoff() {
        let config = ResilienceConfig {
            max_retries: 2,
            ..ResilienceConfig::default()
        };
        let (origin, chaos, clock) = fixture(config, vec![Fault::Unavailable, Fault::Unavailable]);
        let out = origin.execute(&radial_query());
        assert!(out.is_ok(), "third attempt succeeds");
        assert_eq!(chaos.calls(), 3);
        assert_eq!(origin.snapshot().retries, 2);
        assert!(
            clock.elapsed() >= Duration::from_millis(25),
            "backoff waits must consume (virtual) time, got {:?}",
            clock.elapsed()
        );
    }

    #[test]
    fn rejection_is_returned_immediately_without_retry() {
        let config = ResilienceConfig {
            max_retries: 5,
            ..ResilienceConfig::default()
        };
        let (origin, chaos, _) = fixture(config, vec![Fault::Rejected]);
        let err = origin.execute(&radial_query()).unwrap_err();
        assert!(matches!(err, OriginError::Rejected(_)));
        assert!(!err.is_transient());
        assert_eq!(chaos.calls(), 1, "rejections must not be retried");
        assert_eq!(origin.breaker_state(), BreakerState::Closed);
    }

    #[test]
    fn latency_spike_past_the_deadline_times_out() {
        let config = ResilienceConfig {
            deadline: Some(Duration::from_millis(500)),
            max_retries: 3,
            ..ResilienceConfig::default()
        };
        let (origin, chaos, _) = fixture(
            config,
            vec![Fault::Latency(
                Duration::from_secs(2),
                Box::new(Fault::Healthy),
            )],
        );
        let err = origin.execute(&radial_query()).unwrap_err();
        assert!(matches!(err, OriginError::Timeout { .. }), "got {err:?}");
        assert!(err.is_transient());
        assert_eq!(chaos.calls(), 1, "no retry budget left after the spike");
        assert_eq!(origin.snapshot().timeouts, 1);
    }

    #[test]
    fn breaker_opens_then_fails_fast_then_recovers() {
        let config = ResilienceConfig {
            max_retries: 0,
            breaker_threshold: 2,
            breaker_cooldown: Duration::from_millis(100),
            ..ResilienceConfig::default()
        };
        let (origin, chaos, clock) = fixture(config, vec![Fault::Unavailable, Fault::Unavailable]);
        for _ in 0..2 {
            assert!(origin.execute(&radial_query()).is_err());
        }
        assert_eq!(origin.breaker_state(), BreakerState::Open);
        // Open circuit: fail fast, no origin call.
        let err = origin.execute(&radial_query()).unwrap_err();
        assert!(matches!(err, OriginError::Overloaded { .. }));
        assert!(err.retry_after().is_some());
        assert_eq!(chaos.calls(), 2);
        assert_eq!(origin.snapshot().fast_fails, 1);
        // After the cooldown, the probe succeeds and the circuit closes.
        clock.advance(Duration::from_millis(100));
        assert!(origin.execute(&radial_query()).is_ok());
        assert_eq!(origin.breaker_state(), BreakerState::Closed);
        assert_eq!(origin.snapshot().breaker_opens, 1);
    }
}
