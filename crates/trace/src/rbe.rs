//! The Remote Browser Emulator: replays traces through a proxy.

use crate::trace::Trace;
use funcproxy::metrics::{QueryMetrics, TraceReport};
use funcproxy::{ProxyError, ProxyHandle};

/// How one emulated client gets a form request answered.
type Serve = fn(&ProxyHandle, &str, &[(String, String)]) -> Result<QueryMetrics, ProxyError>;

/// The paper's RBE ("the program we write for emulating a web browser
/// client"): issues each trace query as a Radial form request and records
/// the per-query metrics.
pub struct Rbe {
    /// Path of the Radial form on the proxy.
    pub form_path: String,
}

impl Default for Rbe {
    fn default() -> Self {
        Rbe {
            form_path: "/search/radial".to_string(),
        }
    }
}

impl Rbe {
    /// Replays `trace` through `proxy` in order from the calling thread,
    /// returning per-query metrics.
    ///
    /// # Errors
    /// Stops at the first proxy error (misconfigured templates or a dead
    /// origin make the whole run meaningless).
    pub fn replay(
        &self,
        proxy: &ProxyHandle,
        trace: &Trace,
    ) -> Result<Vec<QueryMetrics>, ProxyError> {
        trace
            .queries
            .iter()
            .map(|q| {
                Ok(proxy
                    .handle_form(&self.form_path, &q.form_fields())?
                    .metrics)
            })
            .collect()
    }

    /// Replays and aggregates in one step.
    ///
    /// # Errors
    /// See [`Rbe::replay`].
    pub fn run(&self, proxy: &ProxyHandle, trace: &Trace) -> Result<TraceReport, ProxyError> {
        Ok(TraceReport::from_metrics(&self.replay(proxy, trace)?))
    }

    /// Replays `trace` through a shared [`ProxyHandle`] from `threads`
    /// concurrent client threads. Queries are dealt round-robin: client
    /// `t` issues queries `t, t+threads, t+2*threads, ...` in order, so
    /// each query runs exactly once and every client sees an in-order
    /// subsequence of the trace. Returned metrics are in trace order.
    ///
    /// # Errors
    /// Returns the first proxy error any client hit (the run is
    /// meaningless after one, same as [`Rbe::replay`]).
    pub fn replay_shared(
        &self,
        handle: &ProxyHandle,
        trace: &Trace,
        threads: usize,
    ) -> Result<Vec<QueryMetrics>, ProxyError> {
        self.deal(handle, trace, threads, |h, path, fields| {
            Ok(h.handle_form(path, fields)?.metrics)
        })
    }

    /// [`Rbe::replay_shared`] over the bytes path: every client calls
    /// [`ProxyHandle::handle_form_xml`], so hits — RAM and disk tier —
    /// are served as pre-serialized XML without materializing tuples.
    /// This is the path the HTTP front ends use; replaying through it
    /// measures the zero-copy serve latencies rather than the
    /// tuple-materializing ones.
    ///
    /// # Errors
    /// Returns the first proxy error any client hit.
    pub fn replay_shared_xml(
        &self,
        handle: &ProxyHandle,
        trace: &Trace,
        threads: usize,
    ) -> Result<Vec<QueryMetrics>, ProxyError> {
        self.deal(handle, trace, threads, |h, path, fields| {
            Ok(h.handle_form_xml(path, fields)?.metrics)
        })
    }

    /// The round-robin deal behind both shared replays; `serve` is the
    /// handle entry point each client calls.
    fn deal(
        &self,
        handle: &ProxyHandle,
        trace: &Trace,
        threads: usize,
        serve: Serve,
    ) -> Result<Vec<QueryMetrics>, ProxyError> {
        let threads = threads.clamp(1, trace.len().max(1));
        let form_path = &self.form_path;
        let per_thread: Vec<Result<Vec<(usize, QueryMetrics)>, ProxyError>> =
            std::thread::scope(|scope| {
                let clients: Vec<_> = (0..threads)
                    .map(|t| {
                        scope.spawn(move || {
                            let mut out = Vec::new();
                            for (i, q) in trace.queries.iter().enumerate().skip(t).step_by(threads)
                            {
                                out.push((i, serve(handle, form_path, &q.form_fields())?));
                            }
                            Ok(out)
                        })
                    })
                    .collect();
                clients
                    .into_iter()
                    .map(|c| c.join().expect("client thread panicked"))
                    .collect()
            });

        let mut metrics: Vec<Option<QueryMetrics>> = vec![None; trace.len()];
        for client in per_thread {
            for (i, m) in client? {
                metrics[i] = Some(m);
            }
        }
        Ok(metrics
            .into_iter()
            .map(|m| m.expect("round-robin deal covers every query"))
            .collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generator::TraceSpec;
    use fp_skyserver::{Catalog, CatalogSpec, SkySite};
    use funcproxy::cache::DescriptionKind;
    use funcproxy::template::TemplateManager;
    use funcproxy::{CostModel, ProxyConfig, Scheme, SiteOrigin};
    use std::sync::Arc;

    fn site() -> SkySite {
        SkySite::new(Catalog::generate(&CatalogSpec::small_test()))
    }

    fn handle(site: &SkySite, config: ProxyConfig, shards: usize) -> ProxyHandle {
        ProxyHandle::with_shards(
            TemplateManager::with_sky_defaults(),
            Arc::new(SiteOrigin::new(site.clone())),
            config,
            shards,
        )
    }

    fn proxy(scheme: Scheme) -> ProxyHandle {
        handle(&site(), ProxyConfig::default().with_scheme(scheme), 1)
    }

    fn free(scheme: Scheme) -> ProxyConfig {
        ProxyConfig::default()
            .with_scheme(scheme)
            .with_cost(CostModel::free())
    }

    #[test]
    fn replay_produces_one_metric_per_query() {
        let trace = TraceSpec {
            queries: 60,
            ..TraceSpec::small_test()
        }
        .generate();
        let metrics = Rbe::default()
            .replay(&proxy(Scheme::FullSemantic), &trace)
            .unwrap();
        assert_eq!(metrics.len(), trace.len());
        let report = TraceReport::from_metrics(&metrics);
        assert_eq!(report.queries, 60);
        assert!(report.avg_response_ms > 0.0);
    }

    #[test]
    fn active_beats_passive_beats_nothing_on_efficiency() {
        let trace = TraceSpec {
            queries: 250,
            seed: 3,
            ..TraceSpec::small_test()
        }
        .generate();
        let rbe = Rbe::default();

        let r_nc = rbe.run(&proxy(Scheme::NoCache), &trace).unwrap();
        let r_pc = rbe.run(&proxy(Scheme::Passive), &trace).unwrap();
        let r_ac = rbe.run(&proxy(Scheme::FullSemantic), &trace).unwrap();

        assert_eq!(r_nc.avg_cache_efficiency, 0.0);
        assert!(
            r_ac.avg_cache_efficiency > r_pc.avg_cache_efficiency,
            "active {} should beat passive {}",
            r_ac.avg_cache_efficiency,
            r_pc.avg_cache_efficiency
        );
        assert!(
            r_ac.avg_response_ms < r_nc.avg_response_ms,
            "active {} should beat no-cache {}",
            r_ac.avg_response_ms,
            r_nc.avg_response_ms
        );
    }

    #[test]
    fn shared_replay_covers_the_trace_and_agrees_with_the_oracle() {
        let trace = TraceSpec {
            queries: 80,
            seed: 9,
            ..TraceSpec::small_test()
        }
        .generate();
        let rbe = Rbe::default();

        let site = site();
        let shared = handle(&site, free(Scheme::FullSemantic), 4);
        let metrics = rbe.replay_shared(&shared, &trace, 8).unwrap();
        assert_eq!(metrics.len(), trace.len());

        // Row counts per query must match a no-cache oracle replay.
        let oracle = handle(&site, free(Scheme::NoCache), 1);
        let truth = rbe.replay(&oracle, &trace).unwrap();
        for (i, (m, t)) in metrics.iter().zip(&truth).enumerate() {
            assert_eq!(m.rows_total, t.rows_total, "query {i} row count");
        }
    }

    #[test]
    fn description_kinds_agree_on_results() {
        let trace = TraceSpec {
            queries: 120,
            seed: 5,
            ..TraceSpec::small_test()
        }
        .generate();
        let rbe = Rbe::default();

        let site = site();
        let with = |desc| handle(&site, free(Scheme::FullSemantic).with_description(desc), 1);
        let a = rbe.replay(&with(DescriptionKind::Array), &trace).unwrap();
        let b = rbe.replay(&with(DescriptionKind::RTree), &trace).unwrap();
        // Identical outcomes and identical tuple counts, query by query.
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.outcome, y.outcome);
            assert_eq!(x.rows_total, y.rows_total);
            assert_eq!(x.rows_from_cache, y.rows_from_cache);
        }
    }
}
