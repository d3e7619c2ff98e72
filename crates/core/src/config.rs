//! Proxy configuration.

use crate::cache::{DescriptionKind, ProfitParams, Replacement, TierConfig};
use crate::lifecycle::LifecycleConfig;
use crate::observe::ObserveConfig;
use crate::resilience::ResilienceConfig;
use crate::schemes::Scheme;
use crate::sim::CostModel;
use std::path::PathBuf;

/// How the runtime picks the caching scheme for a request.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum SchemeChoice {
    /// Every template serves with the one configured scheme — the
    /// paper's static configurations.
    Fixed(Scheme),
    /// Each template's scheme is chosen at runtime by the per-template
    /// profit model (ROADMAP item 4): templates explore under full
    /// semantic caching, then commit to whichever scheme the measured
    /// workload makes cheapest, re-exploring periodically.
    Adaptive(ProfitParams),
}

impl SchemeChoice {
    /// The adaptive choice with default tunables.
    pub fn adaptive() -> Self {
        SchemeChoice::Adaptive(ProfitParams::default())
    }
}

/// Configuration of one proxy instance — the paper's "configuration"
/// triple (caching scheme, cache description implementation, cache size)
/// plus the cost model and the overlap fan-out bound.
#[derive(Debug, Clone, PartialEq)]
pub struct ProxyConfig {
    /// Which caching scheme runs.
    pub scheme: Scheme,
    /// Whether `scheme` is served as-is or overridden per template by
    /// the runtime profit model. [`SchemeChoice::Fixed`] of `scheme`
    /// by default; [`ProxyConfig::with_adaptive_scheme`] switches to
    /// runtime selection, which [`ProxyHandle`] resolves once per
    /// request.
    ///
    /// [`ProxyHandle`]: crate::runtime::ProxyHandle
    pub scheme_choice: SchemeChoice,
    /// Array ("ACNR") or R-tree ("ACR") cache description.
    pub description: DescriptionKind,
    /// Cache capacity in bytes (`None` = unlimited).
    pub capacity: Option<usize>,
    /// Victim selection when the cache is full.
    pub replacement: Replacement,
    /// The WAN/server cost model used for simulated timing.
    pub cost: CostModel,
    /// Maximum cached entries one overlap/region-containment answer may
    /// combine (bounds remainder-query complexity; extra overlapping
    /// entries are ignored, costing efficiency but never correctness).
    pub max_merge_entries: usize,
    /// Minimum estimated fraction of a new query's region the cache must
    /// cover before the overlap path (probe + remainder) is taken; below
    /// it the original query is forwarded. `0.0` (default) always takes
    /// the remainder path, like the paper's full semantic caching. This is
    /// the §3.2 processing/transfer tradeoff made tunable.
    pub min_overlap_coverage: f64,
    /// Fault-tolerance policy for the origin fetch path. `None`
    /// (default) keeps the pre-resilience behaviour: no deadlines, no
    /// retries, no breaker, failures surface directly.
    pub resilience: Option<ResilienceConfig>,
    /// Cache lifecycle policy: TTLs, staleness windows, and epoch. The
    /// default is inert (entries never age).
    pub lifecycle: LifecycleConfig,
    /// Observability tuning: trace sampling rate and span retention.
    /// Latency histograms are always on regardless.
    pub observe: ObserveConfig,
    /// Disk tier beneath the RAM cache: per-shard append-only slab
    /// files that cold entries demote to (and serve from, via mmap)
    /// when the RAM budget is exceeded. It is also the cache's only
    /// persistence: a proxy built over an existing tier directory warm
    /// restarts from it. `None` (default) = RAM-only, nothing persisted.
    pub tier: Option<TierConfig>,
}

impl Default for ProxyConfig {
    fn default() -> Self {
        ProxyConfig {
            scheme: Scheme::FullSemantic,
            scheme_choice: SchemeChoice::Fixed(Scheme::FullSemantic),
            description: DescriptionKind::Array,
            capacity: None,
            replacement: Replacement::Lru,
            cost: CostModel::default(),
            max_merge_entries: 8,
            min_overlap_coverage: 0.0,
            resilience: None,
            lifecycle: LifecycleConfig::default(),
            observe: ObserveConfig::default(),
            tier: None,
        }
    }
}

impl ProxyConfig {
    /// Convenience builder for the scheme. Also pins the scheme choice
    /// to [`SchemeChoice::Fixed`] of it.
    pub fn with_scheme(mut self, scheme: Scheme) -> Self {
        self.scheme = scheme;
        self.scheme_choice = SchemeChoice::Fixed(scheme);
        self
    }

    /// Convenience builder for adaptive runtime scheme selection with
    /// default tunables. `scheme` stays as the exploration fallback
    /// (full semantic caching observes every relationship class).
    pub fn with_adaptive_scheme(mut self) -> Self {
        self.scheme_choice = SchemeChoice::adaptive();
        self.scheme = Scheme::FullSemantic;
        self
    }

    /// Convenience builder for adaptive scheme selection with explicit
    /// profit-model tunables.
    pub fn with_adaptive_params(mut self, params: ProfitParams) -> Self {
        self.scheme_choice = SchemeChoice::Adaptive(params);
        self.scheme = Scheme::FullSemantic;
        self
    }

    /// Convenience builder for the description kind.
    pub fn with_description(mut self, description: DescriptionKind) -> Self {
        self.description = description;
        self
    }

    /// Convenience builder for the capacity.
    pub fn with_capacity(mut self, capacity: Option<usize>) -> Self {
        self.capacity = capacity;
        self
    }

    /// Convenience builder for the cost model.
    pub fn with_cost(mut self, cost: CostModel) -> Self {
        self.cost = cost;
        self
    }

    /// Convenience builder for the replacement policy.
    pub fn with_replacement(mut self, replacement: Replacement) -> Self {
        self.replacement = replacement;
        self
    }

    /// Convenience builder for the overlap coverage threshold.
    pub fn with_min_overlap_coverage(mut self, threshold: f64) -> Self {
        self.min_overlap_coverage = threshold;
        self
    }

    /// Convenience builder for the fault-tolerance policy.
    pub fn with_resilience(mut self, resilience: ResilienceConfig) -> Self {
        self.resilience = Some(resilience);
        self
    }

    /// Convenience builder for the cache lifecycle policy.
    pub fn with_lifecycle(mut self, lifecycle: LifecycleConfig) -> Self {
        self.lifecycle = lifecycle;
        self
    }

    /// Convenience builder for the observability tuning.
    pub fn with_observe(mut self, observe: ObserveConfig) -> Self {
        self.observe = observe;
        self
    }

    /// Convenience builder for the disk tier, rooted at `dir`.
    pub fn with_tier(mut self, dir: impl Into<PathBuf>) -> Self {
        self.tier = Some(TierConfig::new(dir));
        self
    }

    /// Convenience builder for a fully specified disk tier.
    pub fn with_tier_config(mut self, tier: TierConfig) -> Self {
        self.tier = Some(tier);
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builders_compose() {
        let c = ProxyConfig::default()
            .with_scheme(Scheme::Passive)
            .with_description(DescriptionKind::RTree)
            .with_capacity(Some(1024))
            .with_cost(CostModel::free());
        assert_eq!(c.scheme, Scheme::Passive);
        assert_eq!(c.description, DescriptionKind::RTree);
        assert_eq!(c.capacity, Some(1024));
        assert_eq!(c.cost, CostModel::free());
        assert_eq!(c.max_merge_entries, 8);
    }
}
