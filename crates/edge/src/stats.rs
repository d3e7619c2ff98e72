//! Edge-server counters: admission-control decisions, fast-path serves,
//! connection lifecycle. Declared once in a
//! [`funcproxy::counters!`] set, which derives the live atomics
//! ([`EdgeStats`], bumped wait-free on the hot path), the snapshot
//! ([`EdgeSnapshot`]) and its `funcproxy_edge_*` Prometheus families
//! (rendered by [`funcproxy::observe::registry::render_prometheus`]).

use std::sync::atomic::{AtomicUsize, Ordering};

funcproxy::counters! {
    /// A point-in-time copy of [`EdgeStats`].
    #[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
    pub struct EdgeSnapshot {
        /// Connections accepted and registered.
        conns_accepted: usize [AtomicUsize] => counter("funcproxy_edge_conns_accepted_total",
            "Connections accepted by the edge reactor.");
        /// Connections refused at accept (connection cap).
        conns_rejected: usize [AtomicUsize] => counter("funcproxy_edge_conns_rejected_total",
            "Connections refused at the connection cap.");
        /// Currently open connections.
        conns_open: usize [AtomicUsize] => gauge("funcproxy_edge_conns_open",
            "Currently open edge connections.");
        /// Complete requests parsed.
        requests: usize [AtomicUsize] => counter("funcproxy_edge_requests_total",
            "Complete requests parsed by the edge reactor.");
        /// Requests served inline on the reactor (fresh cache hits).
        fast_path: usize [AtomicUsize] => counter("funcproxy_edge_fast_path_total",
            "Requests served inline on the reactor (fresh cache hits).");
        /// Requests handed off to the worker pool.
        offloaded: usize [AtomicUsize] => counter("funcproxy_edge_offloaded_total",
            "Requests handed off to the worker pool.");
        /// Requests shed because the pending queue was full.
        shed_queue_full: usize [AtomicUsize] => counter("funcproxy_edge_shed_queue_full_total",
            "Requests shed with 503: pending queue full.");
        /// Requests shed because the origin breaker was open while the
        /// queue was already half full.
        shed_breaker: usize [AtomicUsize] => counter("funcproxy_edge_shed_breaker_total",
            "Requests shed with 503: origin breaker open under queue pressure.");
        /// Requests shed because the server was draining for shutdown.
        shed_draining: usize [AtomicUsize] => counter("funcproxy_edge_shed_draining_total",
            "Requests shed with 503: server draining for shutdown.");
        /// Connections closed for dribbling a request past the read
        /// deadline (slowloris defense), answered `408`.
        read_timeouts: usize [AtomicUsize] => counter("funcproxy_edge_read_timeouts_total",
            "Connections closed for dribbling past the read deadline (408).");
        /// Malformed requests answered `400` and closed.
        bad_requests: usize [AtomicUsize] => counter("funcproxy_edge_bad_requests_total",
            "Malformed requests answered 400.");
        /// Requests parsed while earlier ones on the same connection were
        /// still being served (HTTP/1.1 pipelining actually exercised).
        pipelined: usize [AtomicUsize] => counter("funcproxy_edge_pipelined_total",
            "Requests parsed while earlier ones were still in flight.");
    }

    /// Shared live counters, incremented by the reactor and workers.
    #[derive(Default)]
    pub struct EdgeStats loads Relaxed;
}

impl EdgeStats {
    #[inline]
    pub(crate) fn bump(counter: &AtomicUsize) {
        counter.fetch_add(1, Ordering::Relaxed);
    }
}

impl EdgeSnapshot {
    /// Every deliberate shed, across the three admission-control gates.
    pub fn shed_total(&self) -> usize {
        self.shed_queue_full + self.shed_breaker + self.shed_draining
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use funcproxy::observe::registry::render_prometheus;

    #[test]
    fn snapshot_and_rendering_cover_every_counter() {
        let stats = EdgeStats::default();
        EdgeStats::bump(&stats.conns_accepted);
        EdgeStats::bump(&stats.requests);
        EdgeStats::bump(&stats.shed_queue_full);
        let snap = stats.snapshot();
        assert_eq!(snap.conns_accepted, 1);
        assert_eq!(snap.shed_total(), 1);
        let text = render_prometheus(&snap);
        assert_eq!(
            text.matches("# TYPE ").count(),
            12,
            "one family per counter"
        );
        for family in [
            "funcproxy_edge_conns_accepted_total counter",
            "funcproxy_edge_conns_rejected_total counter",
            "funcproxy_edge_requests_total counter",
            "funcproxy_edge_fast_path_total counter",
            "funcproxy_edge_offloaded_total counter",
            "funcproxy_edge_shed_queue_full_total counter",
            "funcproxy_edge_shed_breaker_total counter",
            "funcproxy_edge_shed_draining_total counter",
            "funcproxy_edge_read_timeouts_total counter",
            "funcproxy_edge_bad_requests_total counter",
            "funcproxy_edge_pipelined_total counter",
            "funcproxy_edge_conns_open gauge",
        ] {
            assert!(
                text.contains(&format!("# TYPE {family}\n")),
                "{family} missing"
            );
        }
        assert!(text.contains("funcproxy_edge_requests_total 1"));
    }
}
