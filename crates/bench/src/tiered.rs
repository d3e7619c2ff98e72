//! RAM-only vs tiered caching at equal RAM, as a test: under a tight
//! budget the disk tier must demote instead of evict, serve hits from
//! the slab, sustain at least the RAM-only hit rate, and never change
//! an answer (per-query row counts agree), only where it is served from.

use crate::Experiment;
use fp_trace::Rbe;
use funcproxy::metrics::{Outcome, QueryMetrics};
use funcproxy::template::TemplateManager;
use funcproxy::{CostModel, ProxyConfig, ProxyHandle, Scheme, SiteOrigin};
use std::sync::Arc;

impl Experiment {
    /// One replay at a fixed RAM budget through a shared 8-shard handle
    /// with `threads` concurrent clients, optionally with the disk tier
    /// attached. Returns per-query metrics (trace order) and the final
    /// cache statistics, after quiescing background promotions. The
    /// bytes path (`handle_form_xml`) is what the HTTP front ends serve
    /// through.
    fn replay_budget(
        &self,
        budget: usize,
        slab_dir: Option<&std::path::Path>,
        threads: usize,
    ) -> (Vec<QueryMetrics>, funcproxy::cache::CacheStats) {
        let mut config = ProxyConfig::default()
            .with_scheme(Scheme::FullSemantic)
            .with_capacity(Some(budget))
            .with_cost(CostModel::free());
        if let Some(dir) = slab_dir {
            config = config.with_tier(dir.to_path_buf());
        }
        let handle = ProxyHandle::with_shards(
            TemplateManager::with_sky_defaults(),
            Arc::new(SiteOrigin::new(self.site.clone())),
            config,
            8,
        );
        let metrics = Rbe::default()
            .replay_shared_xml(&handle, &self.trace, threads)
            .expect("trace replays");
        handle.quiesce_revalidations();
        let stats = handle.cache_stats();
        (metrics, stats)
    }
}

/// Queries answered wholly from cache (exact + contained, either tier).
fn count_hits(metrics: &[QueryMetrics]) -> usize {
    metrics
        .iter()
        .filter(|m| matches!(m.outcome, Outcome::Exact | Outcome::Contained))
        .count()
}

mod tests {
    use super::*;
    use crate::Scale;

    #[test]
    fn tiered_sustains_hit_rate_at_equal_ram() {
        let exp = Experiment::prepare(Scale {
            objects: 20_000,
            queries: 200,
            seed: 33,
        });
        let budget = exp.capacity_for(1.0 / 6.0);
        let (ram, _) = exp.replay_budget(budget, None, 4);
        let dir = std::env::temp_dir().join(format!("fp_bench_tier_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let (tier, stats) = exp.replay_budget(budget, Some(&dir), 4);
        let _ = std::fs::remove_dir_all(&dir);
        assert!(stats.demotions > 0, "tight budget must demote");
        assert!(
            tier.iter().any(|m| m.disk_hit),
            "some hits must be served from the slab"
        );
        assert!(
            count_hits(&tier) >= count_hits(&ram),
            "tiered hits {} must sustain RAM-only hits {}",
            count_hits(&tier),
            count_hits(&ram)
        );
        for (i, (a, b)) in ram.iter().zip(&tier).enumerate() {
            assert_eq!(a.rows_total, b.rows_total, "query {i} row count");
        }
    }
}
