//! The function proxy: the paper's system, end to end.

use crate::cache::{CacheStats, CacheStore};
use crate::config::ProxyConfig;
use crate::metrics::{Outcome, QueryMetrics};
use crate::origin::Origin;
use crate::query::{
    classify, eval_entry_region, merge_results, remainder_query, EvalScratch, QueryStatus,
};
use crate::schemes::Scheme;
use crate::template::{BoundQuery, TemplateManager};
use crate::ProxyError;
use fp_skyserver::{ColumnarRows, ResultSet};
use fp_sqlmini::Query;
use std::sync::Arc;
use std::time::Instant;

/// A served request: the result plus its metrics record.
///
/// The result is `Arc`-shared with the cache entry that holds (or was
/// served from) it, so responding never deep-copies tuples.
#[derive(Debug, Clone)]
pub struct ProxyResponse {
    /// Rows returned to the client.
    pub result: Arc<ResultSet>,
    /// The columnar form of exactly `result`, when the serving path
    /// built or held one (a miss builds it for the insert, an exact hit
    /// shares the entry's): its `doc()` is the response body, byte-
    /// identical to serializing `result` again.
    pub columnar: Option<Arc<ColumnarRows>>,
    /// The per-query metrics the proxy servlet logs.
    pub metrics: QueryMetrics,
}

/// The function proxy.
///
/// One instance = one of the paper's experiment configurations: a caching
/// scheme, a cache-description implementation, and a cache size, wired to
/// an origin site through the simulated WAN cost model.
pub struct FunctionProxy {
    manager: TemplateManager,
    store: CacheStore,
    config: ProxyConfig,
    origin: Arc<dyn Origin>,
    /// Reusable local-evaluation buffers (one proxy = one thread).
    scratch: EvalScratch,
}

impl FunctionProxy {
    /// Builds a proxy over a template registry and an origin site.
    pub fn new(manager: TemplateManager, origin: Arc<dyn Origin>, config: ProxyConfig) -> Self {
        let store =
            CacheStore::with_replacement(config.description, config.capacity, config.replacement);
        FunctionProxy {
            manager,
            store,
            config,
            origin,
            scratch: EvalScratch::default(),
        }
    }

    /// The template registry.
    pub fn manager(&self) -> &TemplateManager {
        &self.manager
    }

    /// The active configuration.
    pub fn config(&self) -> &ProxyConfig {
        &self.config
    }

    /// Cache statistics (entries, bytes, evictions, compactions).
    pub fn cache_stats(&self) -> CacheStats {
        self.store.stats()
    }

    /// Serves an HTML-form request: resolve against the registered info
    /// files and templates, then answer per the configured scheme.
    ///
    /// # Errors
    /// Propagates resolution failures and origin errors.
    pub fn handle_form(
        &mut self,
        path: &str,
        fields: &[(String, String)],
    ) -> Result<ProxyResponse, ProxyError> {
        let bound = self.manager.resolve_form(path, fields)?;
        self.handle_bound(bound)
    }

    /// Serves a raw SQL request (the power-user path). Queries that match
    /// a registered template get full active caching; anything else is
    /// forwarded to the origin uncached (the proxy has no semantics to
    /// cache it by — exactly the paper's motivation for templates).
    ///
    /// # Errors
    /// Propagates resolution failures and origin errors.
    pub fn handle_sql(&mut self, sql: &str) -> Result<ProxyResponse, ProxyError> {
        match self.manager.resolve_sql(sql) {
            Some(bound) => self.handle_bound(bound?),
            None => {
                let query = fp_sqlmini::parse_query(sql)
                    .map_err(|e| ProxyError::BadRequest(e.to_string()))?;
                let start = Instant::now();
                let (result, sim_ms) = self.forward(&query, false)?;
                Ok(self.respond(
                    Arc::new(result),
                    Outcome::Forwarded,
                    0,
                    sim_ms,
                    start,
                    0.0,
                    0.0,
                ))
            }
        }
    }

    /// Serves an already-resolved query — the core decision procedure.
    ///
    /// # Errors
    /// Propagates origin errors; cache-side failures fall back to
    /// forwarding instead of erroring.
    pub fn handle_bound(&mut self, bound: BoundQuery) -> Result<ProxyResponse, ProxyError> {
        match self.config.scheme {
            Scheme::NoCache => self.serve_no_cache(&bound),
            Scheme::Passive => self.serve_passive(&bound),
            _ => self.serve_active(bound),
        }
    }

    fn serve_no_cache(&mut self, bound: &BoundQuery) -> Result<ProxyResponse, ProxyError> {
        let start = Instant::now();
        let (result, sim_ms) = self.forward(&bound.query, false)?;
        Ok(self.respond(
            Arc::new(result),
            Outcome::Forwarded,
            0,
            sim_ms,
            start,
            0.0,
            0.0,
        ))
    }

    fn serve_passive(&mut self, bound: &BoundQuery) -> Result<ProxyResponse, ProxyError> {
        let start = Instant::now();
        let check_start = Instant::now();
        let hit = self.store.lookup_exact(&bound.sql);
        let check_ms = ms_since(check_start);

        if let Some(id) = hit {
            let entry = self.store.get(id).expect("exact map is consistent");
            let sim_ms = self.config.cost.cache_read_ms(entry.bytes);
            let result = Arc::clone(&entry.result);
            let cached = result.len();
            return Ok(self.respond(result, Outcome::Exact, cached, sim_ms, start, check_ms, 0.0));
        }

        let (result, sim_ms) = self.forward(&bound.query, false)?;
        let truncated = self.is_truncated(bound, &result);
        let result = Arc::new(result);
        let inserted = self.store.insert(
            &bound.residual_key,
            bound.region.clone(),
            Arc::clone(&result),
            truncated,
            &bound.sql,
            &bound.reg.coord_columns,
        );
        if let Some(id) = inserted {
            self.store.note_refetch_cost(id, (sim_ms * 1000.0) as u64);
        }
        Ok(self.respond(result, Outcome::Forwarded, 0, sim_ms, start, check_ms, 0.0))
    }

    fn serve_active(&mut self, bound: BoundQuery) -> Result<ProxyResponse, ProxyError> {
        let start = Instant::now();
        let check_start = Instant::now();
        // Exact match by canonical SQL first: cheaper than geometry, and
        // complete even for shapes whose pairwise region check is
        // conservative (polytopes).
        let status = match self.store.lookup_exact(&bound.sql) {
            Some(id) => QueryStatus::ExactMatch(id),
            None => classify(&self.store, &bound),
        };
        let check_ms = ms_since(check_start);

        match status {
            QueryStatus::ExactMatch(id) => {
                let entry = self.store.get(id).expect("classify returned a live id");
                let sim_ms = self.config.cost.cache_read_ms(entry.bytes);
                let result = Arc::clone(&entry.result);
                let cached = result.len();
                Ok(self.respond(result, Outcome::Exact, cached, sim_ms, start, check_ms, 0.0))
            }

            QueryStatus::ContainedBy(id) => {
                let local_start = Instant::now();
                let scratch = &mut self.scratch;
                let (eval, sim_ms) = {
                    let entry = self.store.get(id).expect("classify returned a live id");
                    let sim_ms = self.config.cost.cache_read_ms(entry.bytes);
                    let eval = entry
                        .coord_indexes(&bound.reg.coord_columns)
                        .and_then(|idx| {
                            eval_entry_region(
                                &entry.result,
                                entry.columnar.as_deref(),
                                &idx,
                                &bound.region,
                                scratch,
                            )
                        });
                    (eval, sim_ms)
                };
                let local_ms = ms_since(local_start);
                match eval {
                    Some(eval) => {
                        let mut result = eval.result;
                        if let Some(n) = bound.query.top {
                            result.rows.truncate(n as usize);
                        }
                        let cached = result.len();
                        let mut response = self.respond(
                            Arc::new(result),
                            Outcome::Contained,
                            cached,
                            sim_ms,
                            start,
                            check_ms,
                            local_ms,
                        );
                        response.metrics.rows_scanned = eval.stats.rows_scanned;
                        response.metrics.rows_pruned = eval.stats.rows_pruned();
                        Ok(response)
                    }
                    // Malformed cached document: fall back to the origin.
                    None => {
                        let mut response =
                            self.forward_and_cache(&bound, start, check_ms, local_ms)?;
                        response.metrics.local_fallback = true;
                        Ok(response)
                    }
                }
            }

            QueryStatus::RegionContainment(ids)
                if self.config.scheme.handles_region_containment() =>
            {
                self.serve_merge(bound, ids, /*probe_filters=*/ false, start, check_ms)
            }

            QueryStatus::Overlapping(ids)
                if self.config.scheme.handles_overlap()
                    && self.coverage_worthwhile(&bound, &ids) =>
            {
                self.serve_merge(bound, ids, /*probe_filters=*/ true, start, check_ms)
            }

            // Disjoint, or a relationship this scheme does not exploit.
            QueryStatus::RegionContainment(_)
            | QueryStatus::Overlapping(_)
            | QueryStatus::Disjoint => self.forward_and_cache(&bound, start, check_ms, 0.0),
        }
    }

    /// The §3.2 tradeoff gate: is enough of the new region cached to make
    /// probe + remainder cheaper than forwarding? Estimated by
    /// quasi-Monte-Carlo coverage sampling; always `true` at the default
    /// threshold of zero.
    fn coverage_worthwhile(&self, bound: &BoundQuery, ids: &[u64]) -> bool {
        let threshold = self.config.min_overlap_coverage;
        if threshold <= 0.0 {
            return true;
        }
        let regions: Vec<&fp_geometry::Region> = ids
            .iter()
            .filter_map(|id| self.store.peek(*id).map(|e| &e.region))
            .collect();
        if regions.is_empty() {
            return false;
        }
        let coverage =
            fp_geometry::volume::monte_carlo_union_coverage(&bound.region, &regions, 512);
        coverage >= threshold
    }

    /// Shared path for region containment and general overlap: evaluate
    /// probe queries over the involved entries, fetch a remainder for the
    /// uncovered part, merge, cache the complete merged result, and (for
    /// region containment) compact away the subsumed entries.
    fn serve_merge(
        &mut self,
        bound: BoundQuery,
        mut ids: Vec<u64>,
        probe_filters: bool,
        start: Instant,
        check_ms: f64,
    ) -> Result<ProxyResponse, ProxyError> {
        // Remainder queries need server support and a TOP-free query.
        if !self.origin.supports_remainder() || bound.query.top.is_some() {
            let response = self.forward_and_cache(&bound, start, check_ms, 0.0)?;
            if !probe_filters {
                // Region containment: the forwarded result still covers the
                // subsumed entries, so compaction remains valid.
                self.store.compact(&ids);
            }
            return Ok(response);
        }

        // Bound the fan-in; prefer the largest cached parts.
        ids.sort_by_key(|id| std::cmp::Reverse(self.store.peek(*id).map_or(0, |e| e.bytes)));
        ids.truncate(self.config.max_merge_entries);

        // Probe phase: collect the cached contribution. Each entry read
        // pays the simulated XML open/parse cost — the expense that made
        // overlap handling marginal in the paper's measurements.
        let local_start = Instant::now();
        let mut probe_sim_ms = 0.0;
        let mut rows_scanned = 0usize;
        let mut rows_pruned = 0usize;
        let mut probes: Vec<Arc<ResultSet>> = Vec::with_capacity(ids.len());
        for &id in &ids {
            let scratch = &mut self.scratch;
            let entry = self.store.peek(id).expect("classify returned live ids");
            probe_sim_ms += self.config.cost.cache_read_ms(entry.bytes);
            let part = if probe_filters {
                let eval = entry
                    .coord_indexes(&bound.reg.coord_columns)
                    .and_then(|idx| {
                        eval_entry_region(
                            &entry.result,
                            entry.columnar.as_deref(),
                            &idx,
                            &bound.region,
                            scratch,
                        )
                    });
                match eval {
                    Some(e) => {
                        rows_scanned += e.stats.rows_scanned;
                        rows_pruned += e.stats.rows_pruned();
                        Arc::new(e.result)
                    }
                    None => {
                        let mut response = self.forward_and_cache(&bound, start, check_ms, 0.0)?;
                        response.metrics.local_fallback = true;
                        return Ok(response);
                    }
                }
            } else {
                // Region containment: the entry lies wholly inside the new
                // region; its result contributes unfiltered (shared, not
                // deep-copied).
                Arc::clone(&entry.result)
            };
            probes.push(part);
        }
        let probe_refs: Vec<&ResultSet> = probes.iter().map(|p| &**p).collect();
        let cached_part = merge_results(&bound.reg.key_column, &probe_refs);
        let rows_from_cache = cached_part.len();
        let mut local_ms = ms_since(local_start);

        // Remainder phase.
        let exclude: Vec<&fp_geometry::Region> = ids
            .iter()
            .map(|id| &self.store.peek(*id).expect("live id").region)
            .collect();
        let Some(rq) = remainder_query(&bound, &exclude) else {
            return self.forward_and_cache(&bound, start, check_ms, local_ms);
        };
        let (remainder, origin_sim_ms) = self.forward(&rq, true)?;
        let sim_ms = origin_sim_ms + probe_sim_ms;

        // Merge phase.
        let merge_start = Instant::now();
        let result = merge_results(&bound.reg.key_column, &[&cached_part, &remainder]);
        local_ms += ms_since(merge_start);

        // The merged result is complete for the new region: cache it and,
        // in the region-containment case, drop the now-redundant entries.
        let result = Arc::new(result);
        let inserted = self.store.insert(
            &bound.residual_key,
            bound.region.clone(),
            Arc::clone(&result),
            false,
            &bound.sql,
            &bound.reg.coord_columns,
        );
        if let Some(id) = inserted {
            self.store
                .note_refetch_cost(id, (origin_sim_ms * 1000.0) as u64);
        }
        if !probe_filters {
            self.store.compact(&ids);
        }

        let outcome = if probe_filters {
            Outcome::Overlap
        } else {
            Outcome::RegionContainment
        };
        let mut response = self.respond(
            result,
            outcome,
            rows_from_cache,
            sim_ms,
            start,
            check_ms,
            local_ms,
        );
        response.metrics.rows_scanned = rows_scanned;
        response.metrics.rows_pruned = rows_pruned;
        Ok(response)
    }

    /// Forward to the origin and (for caching schemes) store the result.
    fn forward_and_cache(
        &mut self,
        bound: &BoundQuery,
        start: Instant,
        check_ms: f64,
        local_ms: f64,
    ) -> Result<ProxyResponse, ProxyError> {
        let (result, sim_ms) = self.forward(&bound.query, false)?;
        let truncated = self.is_truncated(bound, &result);
        let result = Arc::new(result);
        if self.config.scheme.caches() {
            let inserted = self.store.insert(
                &bound.residual_key,
                bound.region.clone(),
                Arc::clone(&result),
                truncated,
                &bound.sql,
                &bound.reg.coord_columns,
            );
            if let Some(id) = inserted {
                self.store.note_refetch_cost(id, (sim_ms * 1000.0) as u64);
            }
        }
        Ok(self.respond(
            result,
            Outcome::Forwarded,
            0,
            sim_ms,
            start,
            check_ms,
            local_ms,
        ))
    }

    /// One origin interaction: execute + charge the cost model.
    fn forward(&self, query: &Query, is_remainder: bool) -> Result<(ResultSet, f64), ProxyError> {
        let outcome = self.origin.execute(query)?;
        let sim_ms = self.config.cost.origin_ms(&outcome.stats, is_remainder);
        Ok((outcome.result, sim_ms))
    }

    /// A result may have been clipped when the query carried `TOP n` and
    /// exactly `n` rows came back.
    fn is_truncated(&self, bound: &BoundQuery, result: &ResultSet) -> bool {
        bound.query.top.is_some_and(|n| result.len() as u64 >= n)
    }

    #[allow(clippy::too_many_arguments)]
    fn respond(
        &self,
        result: Arc<ResultSet>,
        outcome: Outcome,
        rows_from_cache: usize,
        sim_ms: f64,
        start: Instant,
        check_ms: f64,
        local_ms: f64,
    ) -> ProxyResponse {
        let proxy_ms = ms_since(start);
        let metrics = QueryMetrics {
            outcome,
            response_ms: sim_ms + proxy_ms,
            sim_ms,
            proxy_ms,
            check_ms,
            local_ms,
            rows_total: result.len(),
            rows_from_cache,
            coalesced: false,
            lock_wait_ms: 0.0,
            rows_scanned: 0,
            rows_pruned: 0,
            local_fallback: false,
            degraded: false,
            stale: false,
            entry_age_ms: 0.0,
            disk_hit: false,
        };
        ProxyResponse {
            result,
            columnar: None,
            metrics,
        }
    }
}

fn ms_since(start: Instant) -> f64 {
    start.elapsed().as_secs_f64() * 1000.0
}

#[cfg(test)]
mod tests {
    use super::*;

    use crate::origin::SiteOrigin;
    use crate::sim::CostModel;
    use fp_skyserver::{Catalog, CatalogSpec, SkySite};

    fn proxy(scheme: Scheme) -> FunctionProxy {
        let site = SkySite::new(Catalog::generate(&CatalogSpec::small_test()));
        FunctionProxy::new(
            TemplateManager::with_sky_defaults(),
            Arc::new(SiteOrigin::new(site)),
            ProxyConfig::default()
                .with_scheme(scheme)
                .with_cost(CostModel::free()),
        )
    }

    fn radial(p: &mut FunctionProxy, ra: f64, dec: f64, radius: f64) -> ProxyResponse {
        p.handle_form(
            "/search/radial",
            &[
                ("ra".to_string(), ra.to_string()),
                ("dec".to_string(), dec.to_string()),
                ("radius".to_string(), radius.to_string()),
            ],
        )
        .unwrap()
    }

    fn ids_of(r: &ProxyResponse) -> Vec<i64> {
        let k = r.result.column_index("objID").unwrap();
        let mut ids: Vec<i64> = r
            .result
            .rows
            .iter()
            .map(|row| row[k].as_i64().unwrap())
            .collect();
        ids.sort_unstable();
        ids
    }

    #[test]
    fn no_cache_always_forwards() {
        let mut p = proxy(Scheme::NoCache);
        let a = radial(&mut p, 185.0, 0.0, 20.0);
        let b = radial(&mut p, 185.0, 0.0, 20.0);
        assert_eq!(a.metrics.outcome, Outcome::Forwarded);
        assert_eq!(b.metrics.outcome, Outcome::Forwarded);
        assert_eq!(p.cache_stats().entries, 0);
        assert_eq!(ids_of(&a), ids_of(&b));
    }

    #[test]
    fn passive_hits_only_exact_text() {
        let mut p = proxy(Scheme::Passive);
        let a = radial(&mut p, 185.0, 0.0, 20.0);
        assert_eq!(a.metrics.outcome, Outcome::Forwarded);
        let b = radial(&mut p, 185.0, 0.0, 20.0);
        assert_eq!(b.metrics.outcome, Outcome::Exact);
        assert_eq!(b.metrics.cache_efficiency(), 1.0);
        assert_eq!(ids_of(&a), ids_of(&b));
        // A subsumed query is a passive miss.
        let c = radial(&mut p, 185.0, 0.0, 10.0);
        assert_eq!(c.metrics.outcome, Outcome::Forwarded);
    }

    #[test]
    fn active_answers_contained_queries_locally() {
        let mut p = proxy(Scheme::ContainmentOnly);
        let big = radial(&mut p, 185.0, 0.0, 25.0);
        assert_eq!(big.metrics.outcome, Outcome::Forwarded);

        let small = radial(&mut p, 185.0, 0.0, 10.0);
        assert_eq!(small.metrics.outcome, Outcome::Contained);
        assert_eq!(small.metrics.cache_efficiency(), 1.0);

        // The locally evaluated answer must equal the origin's.
        let mut oracle = proxy(Scheme::NoCache);
        let truth = radial(&mut oracle, 185.0, 0.0, 10.0);
        assert_eq!(ids_of(&small), ids_of(&truth));
        assert!(
            !small.result.is_empty(),
            "hotspot region should be populated"
        );
    }

    #[test]
    fn containment_only_ignores_overlap_and_region_containment() {
        let mut p = proxy(Scheme::ContainmentOnly);
        radial(&mut p, 185.0, 0.0, 15.0);
        // Overlapping query → forwarded, cached.
        let o = radial(&mut p, 185.0 + 20.0 / 60.0, 0.0, 15.0);
        assert_eq!(o.metrics.outcome, Outcome::Forwarded);
        // Covering query → forwarded too (no region containment in Third).
        let big = radial(&mut p, 185.0, 0.0, 60.0);
        assert_eq!(big.metrics.outcome, Outcome::Forwarded);
        assert_eq!(p.cache_stats().compactions, 0);
    }

    #[test]
    fn full_semantic_merges_overlap_correctly() {
        let mut p = proxy(Scheme::FullSemantic);
        radial(&mut p, 185.0, 0.0, 20.0);
        let o = radial(&mut p, 185.0 + 25.0 / 60.0, 0.0, 15.0);
        assert_eq!(o.metrics.outcome, Outcome::Overlap);
        assert!(o.metrics.rows_from_cache > 0, "probe should contribute");
        assert!(o.metrics.cache_efficiency() > 0.0 && o.metrics.cache_efficiency() < 1.0);

        let mut oracle = proxy(Scheme::NoCache);
        let truth = radial(&mut oracle, 185.0 + 25.0 / 60.0, 0.0, 15.0);
        assert_eq!(ids_of(&o), ids_of(&truth));
    }

    #[test]
    fn region_containment_merges_and_compacts() {
        let mut p = proxy(Scheme::RegionContainment);
        radial(&mut p, 185.0 - 10.0 / 60.0, 0.0, 8.0);
        radial(&mut p, 185.0 + 10.0 / 60.0, 0.0, 8.0);
        assert_eq!(p.cache_stats().entries, 2);

        let big = radial(&mut p, 185.0, 0.0, 40.0);
        assert_eq!(big.metrics.outcome, Outcome::RegionContainment);
        assert!(big.metrics.rows_from_cache > 0);
        // The two subsumed entries were replaced by the one merged entry.
        assert_eq!(p.cache_stats().entries, 1);
        assert_eq!(p.cache_stats().compactions, 2);

        let mut oracle = proxy(Scheme::NoCache);
        let truth = radial(&mut oracle, 185.0, 0.0, 40.0);
        assert_eq!(ids_of(&big), ids_of(&truth));

        // The merged entry now answers subsumed queries.
        let small = radial(&mut p, 185.0, 0.0, 12.0);
        assert_eq!(small.metrics.outcome, Outcome::Contained);
        let truth = radial(&mut oracle, 185.0, 0.0, 12.0);
        assert_eq!(ids_of(&small), ids_of(&truth));
    }

    #[test]
    fn region_containment_scheme_skips_general_overlap() {
        let mut p = proxy(Scheme::RegionContainment);
        radial(&mut p, 185.0, 0.0, 20.0);
        let o = radial(&mut p, 185.0 + 25.0 / 60.0, 0.0, 15.0);
        assert_eq!(o.metrics.outcome, Outcome::Forwarded);
    }

    #[test]
    fn origin_without_remainder_forces_original_queries() {
        let site = SkySite::new(Catalog::generate(&CatalogSpec::small_test()));
        let mut p = FunctionProxy::new(
            TemplateManager::with_sky_defaults(),
            Arc::new(SiteOrigin::without_remainder(site)),
            ProxyConfig::default()
                .with_scheme(Scheme::FullSemantic)
                .with_cost(CostModel::free()),
        );
        radial(&mut p, 185.0, 0.0, 20.0);
        let o = radial(&mut p, 185.0 + 25.0 / 60.0, 0.0, 15.0);
        // Overlap still answered correctly, but by forwarding the original.
        assert_eq!(o.metrics.outcome, Outcome::Forwarded);
    }

    #[test]
    fn raw_sql_matching_a_template_gets_active_caching() {
        let mut p = proxy(Scheme::FullSemantic);
        let sql = "SELECT p.objID, p.ra, p.dec, p.cx, p.cy, p.cz, p.u, p.g, p.r, p.i, p.z \
                   FROM fGetNearbyObjEq(185.0, 0.0, 20.0) n \
                   JOIN PhotoPrimary p ON n.objID = p.objID";
        let a = p.handle_sql(sql).unwrap();
        assert_eq!(a.metrics.outcome, Outcome::Forwarded);
        let b = p.handle_sql(sql).unwrap();
        assert_eq!(b.metrics.outcome, Outcome::Exact);
    }

    #[test]
    fn raw_sql_without_template_is_forwarded_uncached() {
        let mut p = proxy(Scheme::FullSemantic);
        let sql = "SELECT TOP 3 p.objID FROM fGetNearbyObjEq(185.0, 0.0, 20.0) n \
                   JOIN PhotoPrimary p ON n.objID = p.objID WHERE p.r < 19.0";
        let a = p.handle_sql(sql).unwrap();
        assert_eq!(a.metrics.outcome, Outcome::Forwarded);
        assert_eq!(p.cache_stats().entries, 0);
        let b = p.handle_sql(sql).unwrap();
        assert_eq!(b.metrics.outcome, Outcome::Forwarded);
    }

    #[test]
    fn capacity_bound_is_respected() {
        let site = SkySite::new(Catalog::generate(&CatalogSpec::small_test()));
        let mut p = FunctionProxy::new(
            TemplateManager::with_sky_defaults(),
            Arc::new(SiteOrigin::new(site)),
            ProxyConfig::default()
                .with_scheme(Scheme::FullSemantic)
                .with_cost(CostModel::free())
                .with_capacity(Some(64 * 1024)),
        );
        for i in 0..12 {
            radial(&mut p, 183.0 + i as f64 * 0.5, 0.0, 12.0);
        }
        assert!(p.cache_stats().bytes <= 64 * 1024);
    }

    #[test]
    fn coverage_threshold_gates_the_overlap_path() {
        let site = SkySite::new(Catalog::generate(&CatalogSpec::small_test()));
        let strict = |threshold: f64| {
            FunctionProxy::new(
                TemplateManager::with_sky_defaults(),
                Arc::new(SiteOrigin::new(site.clone())),
                ProxyConfig::default()
                    .with_scheme(Scheme::FullSemantic)
                    .with_cost(CostModel::free())
                    .with_min_overlap_coverage(threshold),
            )
        };

        // A sliver of overlap: centers 28' apart, radii 20' and 10'.
        let mut p = strict(0.9);
        radial(&mut p, 185.0, 0.0, 20.0);
        let slim = radial(&mut p, 185.0 + 28.0 / 60.0, 0.0, 10.0);
        assert_eq!(
            slim.metrics.outcome,
            Outcome::Forwarded,
            "thin overlap must not clear a 0.9 coverage threshold"
        );

        // Near-total coverage: same center, slightly shifted, must pass a
        // modest threshold.
        let mut p = strict(0.5);
        radial(&mut p, 185.0, 0.0, 20.0);
        let broad = radial(&mut p, 185.0 + 2.0 / 60.0, 0.0, 19.0);
        assert_eq!(broad.metrics.outcome, Outcome::Overlap);
        assert!(broad.metrics.cache_efficiency() > 0.5);
    }

    #[test]
    fn metrics_breakdown_is_consistent() {
        let mut p = proxy(Scheme::FullSemantic);
        let a = radial(&mut p, 185.0, 0.0, 20.0);
        assert!(a.metrics.response_ms >= a.metrics.proxy_ms);
        assert!((a.metrics.response_ms - a.metrics.sim_ms - a.metrics.proxy_ms).abs() < 1e-9);
        assert_eq!(a.metrics.rows_total, a.result.len());
    }
}
