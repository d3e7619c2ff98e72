//! Observability: per-phase latency histograms, outcome-class latency
//! histograms, and sampled structured trace spans (DESIGN.md §11).
//!
//! The proxy's evaluation story is a latency story, so this layer makes
//! latency *distributions* — not just counters — a first-class,
//! always-on output. Recording sites pay one wait-free atomic add per
//! phase ([`hist::LatencyHistogram`]); traces are sampled so the
//! non-sampled request pays nothing beyond a thread-local read
//! ([`span::SpanRecorder`]). Everything is exported three ways: merged
//! quantiles in [`crate::runtime::RuntimeSnapshot`], Prometheus text
//! via [`Observer::render_prometheus`], and chrome://tracing / JSONL
//! span dumps. Counters and gauges are declared once each in a
//! [`registry`] counter set, which derives their snapshot fields,
//! shard sums and Prometheus families.

pub mod hist;
pub mod registry;
pub mod span;

pub use hist::{HistogramSnapshot, LatencyHistogram};
pub use registry::Registry;
pub use span::{trace_active, SpanRecord, SpanRecorder, TraceGuard};

use crate::metrics::Outcome;
use serde::Serialize;
use std::time::{Duration, Instant};

/// The phases of a request's lifecycle that get their own latency
/// histogram (each crossed with [`PathClass`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    /// Template matching + cache relationship classification.
    Classify,
    /// Local evaluation against cached entries: micro-index pruning,
    /// containment selection, overlap filtering, merge assembly.
    LocalEval,
    /// A blocking origin round trip (excluding backoff waits).
    OriginFetch,
    /// Time spent sleeping between origin retries.
    BackoffWait,
    /// XML result-document serialization / assembly.
    Serialize,
    /// Writing cache snapshot files.
    SnapshotWrite,
    /// Recovering cache snapshot files at startup.
    SnapshotRecover,
    /// Waiting to acquire a cache shard lock.
    LockWait,
    /// Edge reactor: accepting a connection (accept syscall to
    /// registered-with-epoll).
    Accept,
    /// Edge reactor: incremental HTTP request parsing (first byte of a
    /// request head to a complete parsed request).
    Parse,
    /// Edge: time a request spent in the bounded pending queue before a
    /// worker picked it up.
    QueueWait,
    /// Edge: time a finished response waited for the reactor to collect
    /// it from the completion queue (worker push to reactor drain).
    Handoff,
    /// Serving a hit from the disk tier: slab slice + row splice from
    /// the mmap'd segment (excludes the background promotion).
    DiskServe,
    /// Cluster: probing the slot owner's cache on a local miss
    /// (transport round trip including the retry, hit or not).
    PeerProbe,
}

impl Phase {
    /// Every phase, in rendering order.
    pub const ALL: [Phase; 14] = [
        Phase::Classify,
        Phase::LocalEval,
        Phase::OriginFetch,
        Phase::BackoffWait,
        Phase::Serialize,
        Phase::SnapshotWrite,
        Phase::SnapshotRecover,
        Phase::LockWait,
        Phase::Accept,
        Phase::Parse,
        Phase::QueueWait,
        Phase::Handoff,
        Phase::DiskServe,
        Phase::PeerProbe,
    ];

    /// Stable snake_case label used in metric labels and JSON.
    pub fn label(self) -> &'static str {
        match self {
            Phase::Classify => "classify",
            Phase::LocalEval => "local_eval",
            Phase::OriginFetch => "origin_fetch",
            Phase::BackoffWait => "backoff_wait",
            Phase::Serialize => "serialize",
            Phase::SnapshotWrite => "snapshot_write",
            Phase::SnapshotRecover => "snapshot_recover",
            Phase::LockWait => "lock_wait",
            Phase::Accept => "accept",
            Phase::Parse => "parse",
            Phase::QueueWait => "queue_wait",
            Phase::Handoff => "handoff",
            Phase::DiskServe => "disk_serve",
            Phase::PeerProbe => "peer_probe",
        }
    }

    fn index(self) -> usize {
        match self {
            Phase::Classify => 0,
            Phase::LocalEval => 1,
            Phase::OriginFetch => 2,
            Phase::BackoffWait => 3,
            Phase::Serialize => 4,
            Phase::SnapshotWrite => 5,
            Phase::SnapshotRecover => 6,
            Phase::LockWait => 7,
            Phase::Accept => 8,
            Phase::Parse => 9,
            Phase::QueueWait => 10,
            Phase::Handoff => 11,
            Phase::DiskServe => 12,
            Phase::PeerProbe => 13,
        }
    }
}

/// Which serving path a phase sample was recorded on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PathClass {
    /// Served from cache (exact or contained hit).
    Hit,
    /// Needed the origin (overlap, region merge, forward, degraded).
    Miss,
    /// Off the request path: revalidation threads, snapshot writes.
    Background,
}

impl PathClass {
    /// Every path class, in rendering order.
    pub const ALL: [PathClass; 3] = [PathClass::Hit, PathClass::Miss, PathClass::Background];

    /// Stable label used in metric labels and JSON.
    pub fn label(self) -> &'static str {
        match self {
            PathClass::Hit => "hit",
            PathClass::Miss => "miss",
            PathClass::Background => "background",
        }
    }

    fn index(self) -> usize {
        match self {
            PathClass::Hit => 0,
            PathClass::Miss => 1,
            PathClass::Background => 2,
        }
    }
}

/// End-to-end outcome classes, one latency histogram each. Unlike
/// [`Outcome`] this folds in the serving *condition*: a degraded
/// answer is `Degraded` whatever its cache relationship, and a stale
/// (but complete) answer is `Stale`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OutcomeClass {
    /// Fresh exact hit.
    Exact,
    /// Fresh contained hit.
    Contained,
    /// Region-containment merge (remainder fetched).
    Region,
    /// Overlap merge (remainder fetched).
    Overlap,
    /// Full forward to the origin.
    Miss,
    /// Served incomplete because the origin is down.
    Degraded,
    /// Served complete but past its TTL.
    Stale,
}

impl OutcomeClass {
    /// Every class, in rendering order.
    pub const ALL: [OutcomeClass; 7] = [
        OutcomeClass::Exact,
        OutcomeClass::Contained,
        OutcomeClass::Region,
        OutcomeClass::Overlap,
        OutcomeClass::Miss,
        OutcomeClass::Degraded,
        OutcomeClass::Stale,
    ];

    /// Stable label used in metric labels and JSON.
    pub fn label(self) -> &'static str {
        match self {
            OutcomeClass::Exact => "exact",
            OutcomeClass::Contained => "contained",
            OutcomeClass::Region => "region",
            OutcomeClass::Overlap => "overlap",
            OutcomeClass::Miss => "miss",
            OutcomeClass::Degraded => "degraded",
            OutcomeClass::Stale => "stale",
        }
    }

    /// Classifies a served response. Degraded wins over stale wins over
    /// the cache relationship: the operator-facing class is the worst
    /// thing true of the answer.
    pub fn of(outcome: Outcome, degraded: bool, stale: bool) -> OutcomeClass {
        if degraded {
            OutcomeClass::Degraded
        } else if stale {
            OutcomeClass::Stale
        } else {
            match outcome {
                Outcome::Exact => OutcomeClass::Exact,
                Outcome::Contained => OutcomeClass::Contained,
                Outcome::RegionContainment => OutcomeClass::Region,
                Outcome::Overlap => OutcomeClass::Overlap,
                Outcome::Forwarded => OutcomeClass::Miss,
            }
        }
    }

    fn index(self) -> usize {
        match self {
            OutcomeClass::Exact => 0,
            OutcomeClass::Contained => 1,
            OutcomeClass::Region => 2,
            OutcomeClass::Overlap => 3,
            OutcomeClass::Miss => 4,
            OutcomeClass::Degraded => 5,
            OutcomeClass::Stale => 6,
        }
    }
}

/// Tuning for the observe layer; the defaults are always-on safe.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ObserveConfig {
    /// Sample 1 in `sample_every` requests for span tracing (0 turns
    /// tracing off; histograms are unaffected — they are always on).
    pub sample_every: u64,
    /// Ring-buffer capacity for retained spans.
    pub span_capacity: usize,
}

impl Default for ObserveConfig {
    fn default() -> Self {
        ObserveConfig {
            sample_every: 16,
            span_capacity: 4096,
        }
    }
}

impl ObserveConfig {
    /// Sets the trace sampling rate (1 in `n`; 0 disables tracing).
    pub fn with_sample_every(mut self, n: u64) -> Self {
        self.sample_every = n;
        self
    }

    /// Sets the span ring-buffer capacity.
    pub fn with_span_capacity(mut self, capacity: usize) -> Self {
        self.span_capacity = capacity;
        self
    }
}

/// Quantiles of one latency distribution, in milliseconds — the compact
/// form carried by [`crate::runtime::RuntimeSnapshot`] and the bench
/// reports. Nearest-rank over histogram buckets, so each value is
/// within ~1 % of the true sample quantile.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize)]
pub struct LatencySummary {
    /// Samples behind the quantiles.
    pub count: u64,
    /// Median, ms.
    pub p50_ms: f64,
    /// 90th percentile, ms.
    pub p90_ms: f64,
    /// 99th percentile, ms.
    pub p99_ms: f64,
    /// 99.9th percentile, ms.
    pub p999_ms: f64,
}

impl LatencySummary {
    /// Summarizes a histogram snapshot.
    pub fn from_snapshot(snap: &HistogramSnapshot) -> Self {
        LatencySummary {
            count: snap.count(),
            p50_ms: snap.quantile(0.5),
            p90_ms: snap.quantile(0.9),
            p99_ms: snap.quantile(0.99),
            p999_ms: snap.quantile(0.999),
        }
    }
}

/// Cumulative upper bounds (seconds) for the Prometheus rendering —
/// 50 µs to 10 s, roughly 1-2.5-5 per decade.
const LE_BOUNDS: [(f64, &str); 17] = [
    (0.00005, "0.00005"),
    (0.0001, "0.0001"),
    (0.00025, "0.00025"),
    (0.0005, "0.0005"),
    (0.001, "0.001"),
    (0.0025, "0.0025"),
    (0.005, "0.005"),
    (0.01, "0.01"),
    (0.025, "0.025"),
    (0.05, "0.05"),
    (0.1, "0.1"),
    (0.25, "0.25"),
    (0.5, "0.5"),
    (1.0, "1"),
    (2.5, "2.5"),
    (5.0, "5"),
    (10.0, "10"),
];

/// The per-handle observability hub: owns every histogram and the span
/// recorder. Shared via `Arc` between the runtime, the resilience
/// layer, and background threads; all methods take `&self` and are
/// safe (and wait-free, for histograms) from any thread.
pub struct Observer {
    phases: Vec<LatencyHistogram>,
    outcomes: Vec<LatencyHistogram>,
    spans: SpanRecorder,
}

impl Observer {
    /// Builds an observer per `config`.
    pub fn new(config: &ObserveConfig) -> Self {
        Observer {
            phases: (0..Phase::ALL.len() * PathClass::ALL.len())
                .map(|_| LatencyHistogram::new())
                .collect(),
            outcomes: (0..OutcomeClass::ALL.len())
                .map(|_| LatencyHistogram::new())
                .collect(),
            spans: SpanRecorder::new(config.sample_every, config.span_capacity),
        }
    }

    /// The histogram for one (phase, path) cell.
    pub fn phase_histogram(&self, phase: Phase, path: PathClass) -> &LatencyHistogram {
        &self.phases[phase.index() * PathClass::ALL.len() + path.index()]
    }

    /// The end-to-end latency histogram for one outcome class.
    pub fn outcome_histogram(&self, class: OutcomeClass) -> &LatencyHistogram {
        &self.outcomes[class.index()]
    }

    /// Records one phase sample, in milliseconds.
    #[inline]
    pub fn record_phase(&self, phase: Phase, path: PathClass, ms: f64) {
        self.phase_histogram(phase, path).record_ms(ms);
    }

    /// Records one served request's end-to-end latency, in ms.
    #[inline]
    pub fn record_outcome(&self, class: OutcomeClass, ms: f64) {
        self.outcome_histogram(class).record_ms(ms);
    }

    /// Opens a trace scope on this thread (see [`SpanRecorder`]).
    #[inline]
    pub fn begin_trace(&self) -> TraceGuard {
        self.spans.begin_trace()
    }

    /// Records a completed span into the active trace; free when the
    /// request is not sampled.
    #[inline]
    pub fn span(
        &self,
        name: &'static str,
        category: &'static str,
        start: Instant,
        duration: Duration,
        detail: impl FnOnce() -> Option<String>,
    ) {
        self.spans.record(name, category, start, duration, detail);
    }

    /// The span recorder, for exports.
    pub fn spans(&self) -> &SpanRecorder {
        &self.spans
    }

    /// End-to-end latency over *all* served requests (every outcome
    /// class merged).
    pub fn request_summary(&self) -> LatencySummary {
        let mut merged = HistogramSnapshot::default();
        for class in OutcomeClass::ALL {
            merged.merge(&self.outcome_histogram(class).snapshot());
        }
        LatencySummary::from_snapshot(&merged)
    }

    /// End-to-end latency over fresh cache hits (exact + contained).
    pub fn hit_summary(&self) -> LatencySummary {
        let mut merged = self.outcome_histogram(OutcomeClass::Exact).snapshot();
        merged.merge(&self.outcome_histogram(OutcomeClass::Contained).snapshot());
        LatencySummary::from_snapshot(&merged)
    }

    /// Latency of blocking origin fetches on the request path.
    pub fn origin_fetch_summary(&self) -> LatencySummary {
        LatencySummary::from_snapshot(
            &self
                .phase_histogram(Phase::OriginFetch, PathClass::Miss)
                .snapshot(),
        )
    }

    /// Renders every histogram family in the Prometheus text
    /// exposition format (version 0.0.4):
    /// `funcproxy_phase_latency_seconds{phase,path}` and
    /// `funcproxy_request_latency_seconds{class}`. Counter and gauge
    /// families come from [`registry::render_prometheus`];
    /// `ProxyHandle::metrics_text` concatenates both.
    pub fn render_prometheus(&self) -> String {
        let mut out = String::with_capacity(64 * 1024);
        out.push_str(
            "# HELP funcproxy_phase_latency_seconds Latency of one request phase, \
             by serving path.\n# TYPE funcproxy_phase_latency_seconds histogram\n",
        );
        for phase in Phase::ALL {
            for path in PathClass::ALL {
                let labels = format!("phase=\"{}\",path=\"{}\"", phase.label(), path.label());
                render_histogram(
                    &mut out,
                    "funcproxy_phase_latency_seconds",
                    &labels,
                    &self.phase_histogram(phase, path).snapshot(),
                );
            }
        }
        out.push_str(
            "# HELP funcproxy_request_latency_seconds End-to-end request latency, \
             by outcome class.\n# TYPE funcproxy_request_latency_seconds histogram\n",
        );
        for class in OutcomeClass::ALL {
            let labels = format!("class=\"{}\"", class.label());
            render_histogram(
                &mut out,
                "funcproxy_request_latency_seconds",
                &labels,
                &self.outcome_histogram(class).snapshot(),
            );
        }
        out
    }
}

/// One Prometheus histogram series: cumulative `_bucket` lines over
/// [`LE_BOUNDS`] plus `_sum` and `_count`. A fine-grained internal
/// bucket is counted under a boundary only when it lies entirely at or
/// below it, so a boundary can undercount by at most 1/64 of itself.
fn render_histogram(out: &mut String, family: &str, labels: &str, snap: &HistogramSnapshot) {
    use std::fmt::Write;
    for (le_s, le_label) in LE_BOUNDS {
        let n = snap.cumulative_le_ns((le_s * 1e9) as u64);
        let _ = writeln!(out, "{family}_bucket{{{labels},le=\"{le_label}\"}} {n}");
    }
    let _ = writeln!(
        out,
        "{family}_bucket{{{labels},le=\"+Inf\"}} {}",
        snap.count()
    );
    let _ = writeln!(out, "{family}_sum{{{labels}}} {}", snap.sum_seconds());
    let _ = writeln!(out, "{family}_count{{{labels}}} {}", snap.count());
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn outcome_class_folds_condition_over_relationship() {
        assert_eq!(
            OutcomeClass::of(Outcome::Exact, false, false),
            OutcomeClass::Exact
        );
        assert_eq!(
            OutcomeClass::of(Outcome::RegionContainment, false, false),
            OutcomeClass::Region
        );
        assert_eq!(
            OutcomeClass::of(Outcome::Forwarded, false, false),
            OutcomeClass::Miss
        );
        // Stale beats the relationship; degraded beats both.
        assert_eq!(
            OutcomeClass::of(Outcome::Exact, false, true),
            OutcomeClass::Stale
        );
        assert_eq!(
            OutcomeClass::of(Outcome::Overlap, true, true),
            OutcomeClass::Degraded
        );
    }

    #[test]
    fn summaries_come_from_the_right_cells() {
        let obs = Observer::new(&ObserveConfig::default());
        obs.record_outcome(OutcomeClass::Exact, 1.0);
        obs.record_outcome(OutcomeClass::Contained, 3.0);
        obs.record_outcome(OutcomeClass::Miss, 100.0);
        let hits = obs.hit_summary();
        assert_eq!(hits.count, 2);
        assert!(
            hits.p99_ms < 5.0,
            "hit p99 {} excludes the miss",
            hits.p99_ms
        );
        let all = obs.request_summary();
        assert_eq!(all.count, 3);
        assert!(
            all.p99_ms > 90.0,
            "request p99 {} sees the miss",
            all.p99_ms
        );
        obs.record_phase(Phase::OriginFetch, PathClass::Miss, 42.0);
        assert_eq!(obs.origin_fetch_summary().count, 1);
    }

    #[test]
    fn prometheus_rendering_is_well_formed_and_complete() {
        let obs = Observer::new(&ObserveConfig::default());
        obs.record_phase(Phase::Classify, PathClass::Hit, 0.02);
        obs.record_outcome(OutcomeClass::Exact, 0.2);
        let text = obs.render_prometheus();
        for family in [
            "funcproxy_phase_latency_seconds",
            "funcproxy_request_latency_seconds",
        ] {
            assert!(text.contains(&format!("# TYPE {family} histogram")));
            for suffix in ["_bucket", "_sum", "_count"] {
                assert!(text.contains(&format!("{family}{suffix}")), "{suffix}");
            }
        }
        for phase in Phase::ALL {
            assert!(text.contains(&format!("phase=\"{}\"", phase.label())));
        }
        for class in OutcomeClass::ALL {
            assert!(text.contains(&format!("class=\"{}\"", class.label())));
        }
        // Every non-comment line is `name{labels} value`.
        for line in text.lines() {
            if line.starts_with('#') {
                continue;
            }
            let (series, value) = line.rsplit_once(' ').expect("space-separated");
            assert!(series.contains('{') && series.ends_with('}'), "{line}");
            assert!(value.parse::<f64>().is_ok(), "numeric value in {line}");
        }
        // The recorded exact sample is visible under a generous bound.
        assert!(text
            .contains("funcproxy_request_latency_seconds_bucket{class=\"exact\",le=\"+Inf\"} 1"));
    }
}
