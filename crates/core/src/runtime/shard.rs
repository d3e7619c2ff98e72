//! The cache split into independently locked shards.
//!
//! Every cache operation the proxy performs is scoped to one residual
//! group: relationship classification, local evaluation, insertion and
//! region-containment compaction all stay inside
//! `BoundQuery::residual_key` (see [`crate::query::classify`]). That
//! makes the residual key a natural shard key — a whole group lives in
//! exactly one shard, so no request ever needs two shard locks, and
//! cross-template traffic never contends.

use crate::cache::{CacheStats, CacheStore};
use crate::config::ProxyConfig;
use crate::resilience::{Clock, SystemClock};
use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::{Duration, Instant};

/// `N` independently locked [`CacheStore`]s, keyed by residual key.
///
/// The configured byte capacity is divided evenly across shards, so the
/// total bound is preserved. A skewed workload can therefore evict
/// earlier than a single store of the same total capacity would — the
/// standard sharding trade-off; shard count is tunable where it
/// matters.
pub struct ShardedStore {
    shards: Vec<Mutex<CacheStore>>,
}

impl ShardedStore {
    /// Builds `shards` stores per `config` (at least one). A `Some`
    /// capacity is split evenly; `None` stays unbounded everywhere.
    pub fn new(config: &ProxyConfig, shards: usize) -> Self {
        Self::with_clock(config, shards, Arc::new(SystemClock))
    }

    /// [`Self::new`] with an injected clock for the shards' lifecycle
    /// timing. When the config's lifecycle is inert the shards stay
    /// clock-free — inserts are not stamped, nothing ever expires.
    pub fn with_clock(config: &ProxyConfig, shards: usize, clock: Arc<dyn Clock>) -> Self {
        let n = shards.max(1);
        let per_shard = config.capacity.map(|total| (total / n).max(1));
        let lifecycle = Arc::new(config.lifecycle.clone());
        let shards = (0..n)
            .map(|i| {
                let mut store = if config.lifecycle.is_active() {
                    CacheStore::with_lifecycle(
                        config.description,
                        per_shard,
                        config.replacement,
                        Arc::clone(&lifecycle),
                        Arc::clone(&clock),
                    )
                } else {
                    CacheStore::with_replacement(config.description, per_shard, config.replacement)
                };
                if let Some(tier) = &config.tier {
                    // A tier that fails to open (permissions, foreign
                    // file) degrades that shard to RAM-only rather
                    // than refusing to serve.
                    let _ = store.attach_tier(tier, i);
                }
                Mutex::new(store)
            })
            .collect();
        ShardedStore { shards }
    }

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// The shard that owns `residual_key`. Deterministic across calls
    /// and threads (`DefaultHasher` with its fixed default keys).
    pub fn shard_index(&self, residual_key: &str) -> usize {
        let mut hasher = DefaultHasher::new();
        residual_key.hash(&mut hasher);
        (hasher.finish() % self.shards.len() as u64) as usize
    }

    /// Locks the shard owning `residual_key`, reporting how long the
    /// lock took to acquire (the contention signal surfaced in
    /// [`crate::runtime::RuntimeSnapshot::lock_wait_ms`]).
    pub fn lock(&self, residual_key: &str) -> (MutexGuard<'_, CacheStore>, Duration) {
        let shard = &self.shards[self.shard_index(residual_key)];
        let start = Instant::now();
        let guard = shard.lock().unwrap_or_else(|e| e.into_inner());
        (guard, start.elapsed())
    }

    /// Locks shard `index` directly (snapshot writer, epoch bumps —
    /// operations that walk every shard rather than one residual key).
    pub fn lock_shard(&self, index: usize) -> MutexGuard<'_, CacheStore> {
        self.shards[index].lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Statistics aggregated across all shards.
    pub fn stats(&self) -> CacheStats {
        let mut total = CacheStats::default();
        for shard in &self.shards {
            total.merge(&shard.lock().unwrap_or_else(|e| e.into_inner()).stats());
        }
        total
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fp_geometry::{HyperRect, Region};
    use fp_skyserver::ResultSet;
    use fp_sqlmini::Value;

    /// `n` rows with 2-D coordinate columns ([`coords`]).
    fn rs(n: usize) -> ResultSet {
        ResultSet {
            columns: ["objID", "cx", "cy"].map(String::from).to_vec(),
            rows: (0..n)
                .map(|i| vec![Value::Int(i as i64), Value::Float(0.5), Value::Float(0.5)])
                .collect(),
        }
    }

    fn coords() -> [String; 2] {
        ["cx".to_string(), "cy".to_string()]
    }

    fn region() -> Region {
        Region::Rect(HyperRect::new(vec![0.0, 0.0], vec![1.0, 1.0]).unwrap())
    }

    #[test]
    fn shard_index_is_stable_and_in_range() {
        let store = ShardedStore::new(&ProxyConfig::default(), 8);
        for key in ["a", "b", "radial|cols", "spectro|top=5"] {
            let i = store.shard_index(key);
            assert_eq!(i, store.shard_index(key));
            assert!(i < store.shard_count());
        }
    }

    #[test]
    fn stats_aggregate_across_shards() {
        let store = ShardedStore::new(&ProxyConfig::default(), 4);
        // Insert under distinct residual keys; whichever shards they hash
        // to, the aggregate must see every entry.
        for (i, key) in ["k1", "k2", "k3"].iter().enumerate() {
            let (mut shard, _) = store.lock(key);
            shard.insert(key, region(), rs(2), false, &format!("SQL {i}"), &coords());
        }
        let stats = store.stats();
        assert_eq!(stats.entries, 3);
        assert!(stats.bytes > 0);
    }

    #[test]
    fn capacity_splits_across_shards() {
        // Total capacity holds the entry, but the per-shard slice
        // (total / 4) is one byte short: the insert must be rejected.
        let big = rs(50);
        let footprint = {
            let mut probe = CacheStore::new(crate::cache::DescriptionKind::Array, None);
            let id = probe.insert("k", region(), big.clone(), false, "BIG", &coords());
            probe.peek(id.unwrap()).unwrap().footprint()
        };
        let config = ProxyConfig::default().with_capacity(Some((footprint - 1) * 4));
        let store = ShardedStore::new(&config, 4);
        let (mut shard, _) = store.lock("k");
        assert!(shard
            .insert("k", region(), big, false, "BIG", &coords())
            .is_none());
    }

    #[test]
    fn zero_shards_is_clamped_to_one() {
        let store = ShardedStore::new(&ProxyConfig::default(), 0);
        assert_eq!(store.shard_count(), 1);
        assert_eq!(store.shard_index("anything"), 0);
    }
}
