//! The size-bounded result store: one [`Entry`] record per cached
//! query, resident or demoted, in one map.
//!
//! Every id lives in `entries` and is registered in its residual
//! group's description and the exact-match map by one admit path,
//! whichever tier holds its rows. Resident entries are also in the
//! replacement bookkeeping (`last_used` + `victim_order`). The disk-tier
//! operations — demote, promote, segments, `.fpmeta`, warm restart —
//! live in [`disk`].

use crate::cache::description::{CacheDescription, DescriptionKind};
use crate::cache::entry::{Body, Entry};
use crate::cache::replace::{policy_key, select_victim, EntryCost, Replacement};
use crate::cache::tier::{EvictionManager, TierConfig};
use crate::lifecycle::{freshness_at, Freshness, LifecycleConfig, LifecycleStamp};
use crate::observe::registry::{counter, Family};
use crate::resilience::Clock;
use fp_geometry::{HyperRect, Region};
use fp_skyserver::{accounted_xml_bytes, ColumnarRows, ResultSet};
use serde::Serialize;
use std::cell::RefCell;
use std::collections::{BTreeSet, HashMap};
use std::sync::Arc;
use std::time::{Duration, Instant};

mod disk;
#[cfg(test)]
mod model;

/// Why entries leave the RAM cache: one `reason`-labelled family.
const RETIRED: Family = counter(
    "funcproxy_cache_retired_total",
    "Entries retired from the RAM cache, by reason.",
);

crate::counters! {
    /// Aggregate statistics of the store.
    #[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize)]
    pub struct CacheStats: Merge {
        /// Entries currently cached in RAM (the hot tier).
        entries: usize => gauge("funcproxy_cache_entries", "Entries cached in RAM.");
        /// Bytes currently charged (XML size plus columnar heap).
        bytes: usize => gauge("funcproxy_cache_bytes", "Bytes charged to the RAM cache.");
        /// Entries evicted so far (replacement policy victims).
        evictions: usize => RETIRED, reason = ["evicted"];
        /// Entries removed by region-containment compaction.
        compactions: usize => RETIRED, reason = ["compacted"];
        /// Entries retired because they aged past every staleness window.
        expired: usize => RETIRED, reason = ["expired"];
        /// Entries retired by data-release epoch bumps.
        epoch_invalidations: usize => RETIRED, reason = ["epoch"];
        /// Entries currently resident only on the disk tier.
        disk_entries: usize => gauge("funcproxy_disk_entries",
            "Entries resident in the disk tier.");
        /// Total size of the disk tier's slab file(s).
        slab_bytes: usize => gauge("funcproxy_slab_bytes", "Bytes held by disk-tier slab files.");
        /// Entries moved RAM → disk by the budget enforcer.
        demotions: usize => counter("funcproxy_demotions_total",
            "RAM-to-disk demotions by the eviction manager.");
        /// Entries moved disk → RAM after a disk-tier hit.
        promotions: usize => counter("funcproxy_promotions_total",
            "Disk-to-RAM promotions on access.");
        /// Slab compaction passes (dead-byte reclamation rewrites).
        slab_compactions: usize => counter("funcproxy_slab_compactions_total",
            "Slab compaction passes.");
        /// Slab segments found damaged (bad CRC, torn tail) — counted and
        /// skipped, never fatal.
        slab_corrupt_segments: usize => counter("funcproxy_slab_corrupt_segments_total",
            "Slab segments skipped or dropped as corrupt.");
        /// Times the tier entered eviction-only degraded mode (persistent
        /// slab I/O errors or ENOSPC; demotion suspended, never
        /// client-visible).
        tier_degraded: usize => counter("funcproxy_tier_degraded_total",
            "Times the disk tier entered eviction-only degraded mode.");
        /// Times a degraded tier's re-probe append succeeded and demotion
        /// resumed.
        tier_recoveries: usize => counter("funcproxy_tier_recoveries_total",
            "Times a degraded disk tier recovered and resumed demotion.");
        /// Slab I/O errors observed (failed appends and compactions).
        slab_io_errors: usize => counter("funcproxy_slab_io_errors_total",
            "Slab I/O errors observed (failed appends and compactions).");
    }
}

/// Buffers one description probe fills: the probe region's bounding
/// box and the candidate ids. Kept per thread and reused, so a probe
/// allocates nothing once they have grown to the working size.
struct ProbeScratch {
    bbox: HyperRect,
    ids: Vec<u64>,
}

thread_local! {
    static PROBE: RefCell<ProbeScratch> = RefCell::new(ProbeScratch {
        bbox: HyperRect::new(vec![0.0], vec![0.0]).expect("a point is a valid box"),
        ids: Vec::new(),
    });
}

/// The proxy's cache: entries, the exact-match map, and one cache
/// description per residual group (regions of different templates have
/// different dimensionality, so each group gets its own index).
pub struct CacheStore {
    kind: DescriptionKind,
    capacity: Option<usize>,
    replacement: Replacement,
    /// Every cached entry, resident or demoted: one record per id.
    entries: HashMap<u64, Entry>,
    /// Replacement bookkeeping per resident id: monotone
    /// `created`/`used` sequence stamps plus the decayed-reuse and
    /// refetch-cost signals the cost-aware policy ranks by.
    last_used: HashMap<u64, EntryCost>,
    /// `(policy_key, id)` pairs ordered so the first element is the next
    /// victim — maintained on insert/remove/touch, making victim
    /// selection O(log n) instead of a full-entry scan per eviction.
    victim_order: BTreeSet<(u64, u64)>,
    clock: u64,
    groups: HashMap<Arc<str>, Box<dyn CacheDescription>>,
    exact: HashMap<Arc<str>, u64>,
    total_bytes: usize,
    next_id: u64,
    evictions: usize,
    compactions: usize,
    /// Lifecycle policy (TTLs, staleness windows). Inert by default.
    lifecycle: Arc<LifecycleConfig>,
    /// Injectable clock for TTL stamping; `None` = entries never age.
    time: Option<Arc<dyn Clock>>,
    /// Current data-release epoch; entries stamped lower are retired on
    /// the next [`Self::bump_epoch`].
    epoch: u64,
    expired: usize,
    epoch_invalidations: usize,
    /// Mutation counter (inserts/removes), letting the snapshot writer
    /// skip shards that have not changed since the last pass.
    generation: u64,
    /// The disk tier, when configured: slab file plus demotion,
    /// promotion and fault bookkeeping. `None` = RAM-only store.
    tier: Option<EvictionManager>,
}

impl CacheStore {
    /// A store with the given description kind and byte capacity
    /// (`None` = unbounded, the paper's "unlimited cache size").
    pub fn new(kind: DescriptionKind, capacity: Option<usize>) -> Self {
        Self::with_replacement(kind, capacity, Replacement::Lru)
    }

    /// A store with an explicit replacement policy.
    pub fn with_replacement(
        kind: DescriptionKind,
        capacity: Option<usize>,
        replacement: Replacement,
    ) -> Self {
        CacheStore {
            kind,
            capacity,
            replacement,
            entries: HashMap::new(),
            last_used: HashMap::new(),
            victim_order: BTreeSet::new(),
            clock: 0,
            groups: HashMap::new(),
            exact: HashMap::new(),
            total_bytes: 0,
            next_id: 1,
            evictions: 0,
            compactions: 0,
            lifecycle: Arc::new(LifecycleConfig::default()),
            time: None,
            epoch: 0,
            expired: 0,
            epoch_invalidations: 0,
            generation: 0,
            tier: None,
        }
    }

    /// A store whose entries age on `clock` under `lifecycle`: inserts
    /// are stamped with the current epoch and a TTL deadline, and the
    /// freshness accessors start returning non-`Fresh` states.
    pub fn with_lifecycle(
        kind: DescriptionKind,
        capacity: Option<usize>,
        replacement: Replacement,
        lifecycle: Arc<LifecycleConfig>,
        clock: Arc<dyn Clock>,
    ) -> Self {
        let mut store = Self::with_replacement(kind, capacity, replacement);
        store.epoch = lifecycle.epoch;
        store.lifecycle = lifecycle;
        store.time = Some(clock);
        store
    }

    /// The configured description kind.
    pub fn description_kind(&self) -> DescriptionKind {
        self.kind
    }

    /// Current statistics.
    pub fn stats(&self) -> CacheStats {
        // Exactly the resident entries have replacement bookkeeping.
        let resident = self.last_used.len();
        let mut stats = CacheStats {
            entries: resident,
            bytes: self.total_bytes,
            evictions: self.evictions,
            compactions: self.compactions,
            expired: self.expired,
            epoch_invalidations: self.epoch_invalidations,
            ..CacheStats::default()
        };
        if let Some(tier) = &self.tier {
            stats.disk_entries = self.entries.len() - resident;
            stats.slab_bytes = tier.slab.bytes() as usize;
            stats.demotions = tier.demotions;
            stats.promotions = tier.promotions;
            stats.slab_compactions = tier.compactions;
            stats.slab_corrupt_segments = tier.slab.corrupt_segments();
            stats.tier_degraded = tier.degrade_events;
            stats.tier_recoveries = tier.recoveries;
            stats.slab_io_errors = tier.io_errors;
        }
        stats
    }

    /// Attaches the disk tier (shard `i`'s slab under the tier
    /// directory), turning this store into the hot tier of a two-level
    /// cache. Call before inserting; does not recover — the runtime
    /// calls `recover_tier` separately at build time.
    pub fn attach_tier(&mut self, config: &TierConfig, shard: usize) -> std::io::Result<()> {
        self.tier = Some(EvictionManager::open(config, shard)?);
        Ok(())
    }

    /// Whether a disk tier is attached.
    pub fn has_tier(&self) -> bool {
        self.tier.is_some()
    }

    /// The store's current data-release epoch.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// The mutation counter: bumps on every insert or remove.
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// The store's clock reading, when lifecycle timing is configured.
    pub fn now(&self) -> Option<std::time::Instant> {
        self.time.as_ref().map(|c| c.now())
    }

    /// Where `id` sits in its lifecycle. `None` when the entry is gone;
    /// entries without a deadline (or in a clock-free store) are
    /// perpetually [`Freshness::Fresh`].
    pub fn freshness(&self, id: u64) -> Option<Freshness> {
        let expires_at = self.entries.get(&id)?.expires_at;
        let (Some(expires_at), Some(clock)) = (expires_at, &self.time) else {
            return Some(Freshness::Fresh);
        };
        Some(freshness_at(
            expires_at,
            clock.now(),
            self.lifecycle.stale_while_revalidate,
            self.lifecycle.stale_if_error,
        ))
    }

    /// Entry age in milliseconds on the store's clock; `0` when unknown.
    pub fn entry_age_ms(&self, id: u64) -> f64 {
        let inserted_at = self.entries.get(&id).and_then(|e| e.inserted_at);
        match (inserted_at, &self.time) {
            (Some(at), Some(clock)) => {
                clock.now().saturating_duration_since(at).as_secs_f64() * 1000.0
            }
            _ => 0.0,
        }
    }

    /// Advances the store to a new data-release epoch, eagerly retiring
    /// every entry stamped with an older one. Returns how many were
    /// retired; a non-advancing epoch is a no-op. An advance marks the
    /// shard dirty even when nothing was retired, so the next `.fpmeta`
    /// pass records the new epoch.
    pub fn bump_epoch(&mut self, epoch: u64) -> usize {
        if epoch <= self.epoch {
            return 0;
        }
        self.epoch = epoch;
        self.generation += 1;
        let outdated: Vec<u64> = self
            .entries
            .values()
            .filter(|e| e.epoch < epoch)
            .map(|e| e.id)
            .collect();
        let n = outdated.len();
        for id in outdated {
            self.remove(id);
        }
        self.epoch_invalidations += n;
        n
    }

    /// Retires [`Freshness::Dead`] entries among the probe region's
    /// candidates (expiry is lazy: entries die when next probed, not on
    /// a timer). Returns how many were retired.
    pub(crate) fn sweep_dead(&mut self, residual_key: &str, region: &Region) -> usize {
        if self.time.is_none() {
            return 0;
        }
        let dead: Vec<u64> = self.with_candidates(residual_key, region, |ids| {
            ids.iter()
                .copied()
                .filter(|&id| self.freshness(id) == Some(Freshness::Dead))
                .collect()
        });
        let n = dead.len();
        for id in dead {
            self.remove(id);
        }
        self.expired += n;
        n
    }

    /// Inserts a result; returns the new entry's id, or `None` when the
    /// result builds no columnar form or the entry alone exceeds the
    /// capacity (too large to ever cache).
    ///
    /// `coord_columns` names the result's coordinate attributes in region
    /// dimension order. The entry is the result's columnar form (SoA
    /// columns, micro-index, row slab), built here, once, off the serve
    /// path: the store holds no handle on `result`. When a column does
    /// not resolve or a coordinate cell is not a number, no form builds
    /// and nothing is cached.
    ///
    /// Replaces any previous entry with the same canonical SQL. Evicts
    /// policy victims until the new entry fits. The key strings are
    /// allocated once and shared (`Arc<str>`) between the entry and the
    /// group/exact maps; the region's bounding box is computed once and
    /// cached on the entry for index insert and removal.
    pub fn insert(
        &mut self,
        residual_key: &str,
        region: Region,
        result: impl Into<Arc<ResultSet>>,
        truncated: bool,
        exact_sql: &str,
        coord_columns: &[String],
    ) -> Option<u64> {
        let result: Arc<ResultSet> = result.into();
        let coord_idx: Vec<usize> = coord_columns
            .iter()
            .map(|c| result.column_index(c))
            .collect::<Option<_>>()?;
        let form = Arc::new(ColumnarRows::build(&result, &coord_idx)?);
        let bytes = accounted_xml_bytes(&result, Some(&form));
        self.insert_prebuilt(residual_key, region, form, truncated, exact_sql, bytes)
    }

    /// [`Self::insert`] with the form and its serialized size already
    /// computed. The runtime prebuilds both *outside* the shard lock
    /// (serialization and index construction are the expensive parts of
    /// an insert), so the locked window here is just map updates — this
    /// is what keeps concurrent hit latency flat while misses land.
    pub(crate) fn insert_prebuilt(
        &mut self,
        residual_key: &str,
        region: Region,
        form: Arc<ColumnarRows>,
        truncated: bool,
        exact_sql: &str,
        bytes: usize,
    ) -> Option<u64> {
        let (inserted_at, expires_at) = match &self.time {
            Some(clock) => {
                let now = clock.now();
                let ttl = self.lifecycle.ttl_for(residual_key);
                (Some(now), ttl.map(|ttl| now + ttl))
            }
            None => (None, None),
        };
        self.insert_entry(Entry {
            id: 0,
            residual_key: Arc::from(residual_key),
            bbox: region.bounding_rect(),
            region,
            bytes,
            truncated,
            exact_sql: Arc::from(exact_sql),
            epoch: self.epoch,
            inserted_at,
            expires_at,
            body: Body::Ram(form),
            seg: None,
        })
    }

    /// Makes room for `entry` and admits it under a fresh id. Returns
    /// `None` when a RAM-only store can never hold it.
    ///
    /// Replaces any previous entry with the same canonical SQL, then
    /// demotes or evicts policy victims until the entry fits. With a
    /// disk tier, an entry larger than the whole RAM budget still lands
    /// and is spilled straight away.
    fn insert_entry(&mut self, entry: Entry) -> Option<u64> {
        let footprint = entry.footprint();
        if self
            .capacity
            .is_some_and(|cap| footprint > cap && self.tier.is_none())
        {
            return None;
        }
        if let Some(&old) = self.exact.get(&*entry.exact_sql) {
            self.remove(old);
        }
        if let Some(cap) = self.capacity {
            while self.total_bytes + footprint > cap {
                let Some(victim) = self.next_victim() else {
                    break;
                };
                self.demote_or_evict(victim);
            }
        }
        let id = self.admit(entry);
        if self
            .capacity
            .is_some_and(|cap| self.total_bytes > cap && self.tier.is_some())
        {
            self.demote_or_evict(id);
        }
        Some(id)
    }

    /// Registers `entry` under a fresh id: in its residual group's
    /// description, the exact-match map and the entry map, and — when
    /// its rows are in RAM — in the byte total and the victim order.
    fn admit(&mut self, mut entry: Entry) -> u64 {
        let id = self.next_id;
        self.next_id += 1;
        entry.id = id;
        self.groups
            .entry(Arc::clone(&entry.residual_key))
            .or_insert_with(|| self.kind.make(entry.bbox.dims()))
            .insert(id, entry.bbox.clone());
        self.exact.insert(Arc::clone(&entry.exact_sql), id);
        if entry.is_resident() {
            self.charge(id, entry.footprint());
        }
        self.entries.insert(id, entry);
        self.generation += 1;
        id
    }

    /// Charges a resident entry's footprint and enters it in the victim
    /// order as a fresh use.
    fn charge(&mut self, id: u64, footprint: usize) {
        self.total_bytes += footprint;
        self.clock += 1;
        let cost = EntryCost::new(self.clock, EntryCost::default_refetch_us(footprint));
        self.victim_order
            .insert((self.entry_key(&cost, footprint), id));
        self.last_used.insert(id, cost);
    }

    /// Releases a resident entry's charge and its victim-order slot.
    fn discharge(&mut self, id: u64, footprint: usize) {
        self.total_bytes -= footprint;
        if let Some(cost) = self.last_used.remove(&id) {
            self.victim_order
                .remove(&(self.entry_key(&cost, footprint), id));
        }
    }

    /// Re-anchors a persisted stamp (relative age and remaining TTL) on
    /// this store's clock as `(inserted_at, expires_at)`. `None` — and
    /// counted — when the entry belongs to an older epoch
    /// (`epoch_invalidations`) or is already past every serve window
    /// (`expired`).
    fn admit_restored(
        &mut self,
        residual_key: &str,
        stamp: &LifecycleStamp,
    ) -> Option<(Option<Instant>, Option<Instant>)> {
        if stamp.epoch < self.epoch {
            self.epoch_invalidations += 1;
            return None;
        }
        let Some(clock) = &self.time else {
            return Some((None, None));
        };
        let now = clock.now();
        let inserted_at = stamp
            .age_ms
            .and_then(|age| now.checked_sub(Duration::from_millis(age)))
            .or(Some(now));
        let expires_at = match stamp.remaining_ms {
            Some(left) if left >= 0 => Some(now + Duration::from_millis(left.unsigned_abs())),
            Some(over) => now.checked_sub(Duration::from_millis(over.unsigned_abs())),
            None => self.lifecycle.ttl_for(residual_key).map(|ttl| now + ttl),
        };
        let lc = &self.lifecycle;
        let dead = expires_at.is_some_and(|deadline| {
            freshness_at(deadline, now, lc.stale_while_revalidate, lc.stale_if_error)
                == Freshness::Dead
        });
        if dead {
            self.expired += 1;
            return None;
        }
        Some((inserted_at, expires_at))
    }

    fn entry_key(&self, cost: &EntryCost, footprint: usize) -> u64 {
        policy_key(self.replacement, cost, footprint)
    }

    /// Records the measured origin cost of (re)building entry `id`, in
    /// microseconds — the runtime calls this right after an insert,
    /// with the simulated origin-fetch time it just charged. Replaces
    /// the size-proportional estimate the entry was inserted with and
    /// re-keys the victim set (the refetch cost is part of the
    /// cost-aware policy key). A no-op unless `id` is resident.
    pub fn note_refetch_cost(&mut self, id: u64, refetch_us: u64) {
        let (Some(entry), Some(cost)) = (self.entries.get(&id), self.last_used.get_mut(&id)) else {
            return;
        };
        let footprint = entry.footprint();
        let old_key = policy_key(self.replacement, cost, footprint);
        cost.refetch_us = refetch_us;
        let new_key = policy_key(self.replacement, cost, footprint);
        if new_key != old_key {
            self.victim_order.remove(&(old_key, id));
            self.victim_order.insert((new_key, id));
        }
    }

    /// The next victim under the configured replacement policy, if any:
    /// the head of the incrementally-maintained order, O(log n).
    fn next_victim(&self) -> Option<u64> {
        let victim = self.victim_order.first().map(|&(_, id)| id);
        debug_assert_eq!(
            victim,
            select_victim(
                self.replacement,
                self.last_used.iter().map(|(id, cost)| {
                    let fp = self.entries.get(id).map_or(0, Entry::footprint);
                    (*id, *cost, fp)
                }),
            ),
            "incremental victim order diverged from reference scan"
        );
        victim
    }

    /// Removes an entry by id, from whichever tier holds it, and returns
    /// it. Its slab segment (if any) turns dead, and the slab is
    /// compacted when the dead-byte trigger fires.
    pub fn remove(&mut self, id: u64) -> Option<Entry> {
        let entry = self.entries.remove(&id)?;
        self.discharge(id, entry.footprint());
        // Guarded: a same-SQL replacement may already point the exact
        // map at a newer id.
        if self.exact.get(&*entry.exact_sql) == Some(&id) {
            self.exact.remove(&*entry.exact_sql);
        }
        if let Some(g) = self.groups.get_mut(&*entry.residual_key) {
            g.remove(id, &entry.bbox);
        }
        if let Some(seg) = entry.seg {
            self.seg_dead(seg, false);
        }
        self.compact_slab();
        self.generation += 1;
        Some(entry)
    }

    /// Budget enforcement on one victim: spill to the disk tier when
    /// possible, evict otherwise.
    fn demote_or_evict(&mut self, id: u64) {
        if !self.demote(id) && self.remove(id).is_some() {
            self.evictions += 1;
        }
    }

    /// Removes entries subsumed by a region-containment merge, from
    /// whichever tier holds them, counting them as compactions rather
    /// than evictions.
    pub fn compact(&mut self, ids: &[u64]) {
        for &id in ids {
            if self.remove(id).is_some() {
                self.compactions += 1;
            }
        }
    }

    /// Reads an entry and, when its rows are in RAM, marks it used.
    pub fn get(&mut self, id: u64) -> Option<&Entry> {
        if let Some(cost) = self.last_used.get_mut(&id) {
            let footprint = self.entries.get(&id).map_or(0, Entry::footprint);
            self.clock += 1;
            self.victim_order
                .remove(&(policy_key(self.replacement, cost, footprint), id));
            cost.touch(self.clock);
            self.victim_order
                .insert((policy_key(self.replacement, cost, footprint), id));
        }
        self.entries.get(&id)
    }

    /// Reads an entry, whichever tier holds its rows, without touching
    /// its recency (relationship checking peeks at many entries; only
    /// actual hits count as use). Never touches disk.
    pub fn peek(&self, id: u64) -> Option<&Entry> {
        self.entries.get(&id)
    }

    /// Exact-match lookup by canonical SQL text.
    pub fn lookup_exact(&self, sql: &str) -> Option<u64> {
        self.exact.get(sql).copied()
    }

    /// Runs `f` over the ids in `residual_key`'s group whose bounding
    /// box intersects the probe region's bounding box, in description
    /// order. The ids live in this thread's reusable probe buffers, so
    /// `f` must not probe again.
    pub fn with_candidates<R>(
        &self,
        residual_key: &str,
        region: &Region,
        f: impl FnOnce(&[u64]) -> R,
    ) -> R {
        PROBE.with(|probe| {
            let ProbeScratch { bbox, ids } = &mut *probe.borrow_mut();
            ids.clear();
            if let Some(g) = self.groups.get(residual_key) {
                g.candidates(region.bounding_rect_in(bbox), ids);
            }
            f(ids)
        })
    }

    /// The candidate ids as an owned list.
    #[cfg(test)]
    pub(crate) fn candidates(&self, residual_key: &str, region: &Region) -> Vec<u64> {
        self.with_candidates(residual_key, region, <[u64]>::to_vec)
    }

    /// The refetch cost a resident entry is ranked by, in microseconds.
    #[cfg(test)]
    pub(crate) fn refetch_us(&self, id: u64) -> Option<u64> {
        self.last_used.get(&id).map(|cost| cost.refetch_us)
    }

    /// Number of indexed entries in a residual group (description size).
    pub fn group_len(&self, residual_key: &str) -> usize {
        self.groups.get(residual_key).map_or(0, |g| g.len())
    }
}

#[cfg(test)]
mod tests {
    use super::disk::TierRecovery;
    use super::*;
    use crate::cache::persist::{entry_from_segment, region_to_xml};
    use crate::cache::tier::{encode_payload, SlabFile, SlabSlice};
    use fp_geometry::HyperRect;
    use fp_sqlmini::Value;

    /// `n` rows with 2-D coordinate columns ([`coords`]).
    fn rs(n: usize) -> ResultSet {
        ResultSet {
            columns: vec!["objID".into(), "cx".into(), "cy".into()],
            rows: (0..n)
                .map(|i| {
                    vec![
                        Value::Int(i as i64),
                        Value::Float(i as f64),
                        Value::Float(-(i as f64)),
                    ]
                })
                .collect(),
        }
    }

    fn region(lo: f64, hi: f64) -> Region {
        Region::Rect(HyperRect::new(vec![lo, lo], vec![hi, hi]).unwrap())
    }

    fn coords() -> [String; 2] {
        ["cx".to_string(), "cy".to_string()]
    }

    /// Bytes an entry of `rs(n)` is charged.
    fn footprint(n: usize) -> usize {
        let mut probe = CacheStore::new(DescriptionKind::Array, None);
        let id = probe
            .insert("k", region(0.0, 1.0), rs(n), false, "P", &coords())
            .unwrap();
        probe.peek(id).unwrap().footprint()
    }

    #[test]
    fn insert_lookup_remove() {
        let mut s = CacheStore::new(DescriptionKind::Array, None);
        let id = s
            .insert("k", region(0.0, 1.0), rs(3), false, "SQL A", &coords())
            .unwrap();
        assert_eq!(s.lookup_exact("SQL A"), Some(id));
        assert_eq!(s.get(id).unwrap().rows(), 3);
        assert_eq!(s.candidates("k", &region(0.5, 0.6)), vec![id]);
        assert!(s.candidates("other", &region(0.5, 0.6)).is_empty());
        let removed = s.remove(id).unwrap();
        assert_eq!(removed.id, id);
        assert_eq!(s.lookup_exact("SQL A"), None);
        assert!(s.candidates("k", &region(0.5, 0.6)).is_empty());
        assert_eq!(s.stats().entries, 0);
        assert_eq!(s.stats().bytes, 0);
    }

    #[test]
    fn same_sql_replaces() {
        let mut s = CacheStore::new(DescriptionKind::Array, None);
        let a = s
            .insert("k", region(0.0, 1.0), rs(3), false, "SQL", &coords())
            .unwrap();
        let b = s
            .insert("k", region(0.0, 1.0), rs(5), false, "SQL", &coords())
            .unwrap();
        assert_ne!(a, b);
        assert_eq!(s.stats().entries, 1);
        assert_eq!(s.lookup_exact("SQL"), Some(b));
    }

    #[test]
    fn capacity_evicts_lru() {
        let one_bytes = footprint(10);
        let mut s = CacheStore::new(DescriptionKind::Array, Some(one_bytes * 3));
        let a = s
            .insert("k", region(0.0, 1.0), rs(10), false, "A", &coords())
            .unwrap();
        let b = s
            .insert("k", region(2.0, 3.0), rs(10), false, "B", &coords())
            .unwrap();
        let c = s
            .insert("k", region(4.0, 5.0), rs(10), false, "C", &coords())
            .unwrap();
        // Touch A so B is the LRU.
        s.get(a);
        let d = s
            .insert("k", region(6.0, 7.0), rs(10), false, "D", &coords())
            .unwrap();
        assert!(s.peek(b).is_none(), "B should have been evicted");
        for id in [a, c, d] {
            assert!(s.peek(id).is_some());
        }
        assert_eq!(s.stats().evictions, 1);
        assert!(s.stats().bytes <= one_bytes * 3);
    }

    #[test]
    fn replacement_policies_choose_different_victims() {
        // Three entries of different sizes; capacity forces one eviction.
        let sizes = [30usize, 5, 60];
        let make = |policy| {
            let bytes: usize = sizes.iter().map(|n| footprint(*n)).sum();
            let mut s = CacheStore::with_replacement(DescriptionKind::Array, Some(bytes), policy);
            let ids: Vec<u64> = sizes
                .iter()
                .enumerate()
                .map(|(i, n)| {
                    s.insert(
                        "k",
                        region(i as f64 * 10.0, i as f64 * 10.0 + 1.0),
                        rs(*n),
                        false,
                        &format!("Q{i}"),
                        &coords(),
                    )
                    .unwrap()
                })
                .collect();
            // Touch entry 0 so FIFO and LRU would differ if sizes allowed.
            s.get(ids[0]);
            // Force an eviction with a fourth entry.
            s.insert("k", region(100.0, 101.0), rs(3), false, "Q3", &coords())
                .unwrap();
            let survivors: Vec<bool> = ids.iter().map(|id| s.peek(*id).is_some()).collect();
            (survivors, s.stats().evictions)
        };

        let (lru, _) = make(crate::cache::Replacement::Lru);
        assert_eq!(lru, [true, false, true], "LRU evicts the untouched oldest");
        let (fifo, _) = make(crate::cache::Replacement::Fifo);
        assert_eq!(fifo, [false, true, true], "FIFO evicts the first inserted");
        let (largest, _) = make(crate::cache::Replacement::LargestFirst);
        assert_eq!(
            largest,
            [true, true, false],
            "largest-first evicts the big one"
        );
        let (smallest, ev) = make(crate::cache::Replacement::SmallestFirst);
        // Smallest-first may need several evictions to fit the newcomer.
        assert!(!smallest[1], "smallest-first evicts the small one first");
        assert!(ev >= 1);
    }

    #[test]
    fn eviction_storm_keeps_victim_order_consistent() {
        // Heavy churn across policies: the debug_assert in next_victim
        // cross-checks the incremental order against the O(n) scan on
        // every eviction.
        for &policy in Replacement::all() {
            let cap = footprint(8) * 4;
            let mut s = CacheStore::with_replacement(DescriptionKind::Array, Some(cap), policy);
            for i in 0..100u64 {
                let n = 4 + (i % 7) as usize;
                let id = s.insert(
                    "k",
                    region(i as f64, i as f64 + 0.5),
                    rs(n),
                    false,
                    &format!("Q{i}"),
                    &coords(),
                );
                assert!(id.is_some(), "{policy}: insert {i} rejected");
                // Touch a surviving entry now and then to churn LRU order.
                if i % 3 == 0 {
                    let live: Vec<u64> = s.entries.keys().copied().take(2).collect();
                    for id in live {
                        s.get(id);
                    }
                }
            }
            assert!(s.stats().evictions > 0, "{policy}: no evictions");
            assert!(s.stats().bytes <= cap, "{policy}: over capacity");
        }
    }

    /// Regression: equal-size entries under the size policies used to
    /// make the debug cross-check in `next_victim` fire spuriously — the
    /// reference scan broke ties by HashMap iteration order while the
    /// incremental set breaks them by `(policy_key, id)`. With keys all
    /// tied, the victim must now deterministically be the smallest id.
    #[test]
    fn equal_size_ties_evict_smallest_id() {
        for &policy in &[Replacement::LargestFirst, Replacement::SmallestFirst] {
            let bytes = footprint(6);
            let mut s =
                CacheStore::with_replacement(DescriptionKind::Array, Some(bytes * 4), policy);
            let ids: Vec<u64> = (0..4)
                .map(|i| {
                    s.insert(
                        "k",
                        region(i as f64 * 10.0, i as f64 * 10.0 + 1.0),
                        rs(6),
                        false,
                        &format!("Q{i}"),
                        &coords(),
                    )
                    .unwrap()
                })
                .collect();
            // Touch the candidates in reverse so recency disagrees with
            // id order (the tie-break must not depend on either use
            // order or map iteration order).
            for id in ids.iter().rev() {
                s.get(*id);
            }
            s.insert("k", region(100.0, 101.0), rs(6), false, "Q-last", &coords())
                .unwrap();
            assert!(
                s.peek(ids[0]).is_none(),
                "{policy}: smallest id loses the all-tied round"
            );
            for id in &ids[1..] {
                assert!(s.peek(*id).is_some(), "{policy}: larger ids survive");
            }
        }
    }

    #[test]
    fn cost_aware_keeps_expensive_entries() {
        let bytes = footprint(6);
        let mut s = CacheStore::with_replacement(
            DescriptionKind::Array,
            Some(bytes * 2),
            Replacement::CostAware,
        );
        let a = s
            .insert("k", region(0.0, 1.0), rs(6), false, "A", &coords())
            .unwrap();
        let b = s
            .insert("k", region(10.0, 11.0), rs(6), false, "B", &coords())
            .unwrap();
        // A is expensive to refetch, B nearly free; equal size & reuse.
        s.note_refetch_cost(a, 5_000_000);
        s.note_refetch_cost(b, 10);
        s.insert("k", region(20.0, 21.0), rs(6), false, "C", &coords())
            .unwrap();
        assert!(s.peek(a).is_some(), "expensive entry survives");
        assert!(s.peek(b).is_none(), "cheap-to-refetch entry is the victim");

        // Reuse outranks idle age: touch the survivor repeatedly, then
        // insert two more — the newest untouched entries go first.
        for _ in 0..5 {
            s.get(a);
        }
        let d = s
            .insert("k", region(30.0, 31.0), rs(6), false, "D", &coords())
            .unwrap();
        s.note_refetch_cost(d, 5_000_000);
        s.insert("k", region(40.0, 41.0), rs(6), false, "E", &coords())
            .unwrap();
        assert!(
            s.peek(a).is_some(),
            "hot expensive entry outlives equal-cost cold one"
        );
        assert!(s.peek(d).is_none(), "cold equal-cost entry is the victim");
    }

    #[test]
    fn coord_columns_build_columnar_form() {
        let mut s = CacheStore::new(DescriptionKind::Array, None);
        let id = s
            .insert("k", region(0.0, 10.0), rs(20), false, "A", &coords())
            .unwrap();
        let e = s.peek(id).unwrap();
        let col = e.ram();
        assert_eq!(col.len(), 20);
        assert_eq!(col.coord_idx(), &[1, 2]);
        assert!(e.footprint() > e.bytes, "columnar heap is charged");
        let charged = e.footprint();
        assert_eq!(s.stats().bytes, charged);

        // Unknown coordinate column: no form, nothing cached.
        let missing = ["nope".to_string()];
        let b = s.insert("k", region(20.0, 30.0), rs(5), false, "B", &missing);
        assert_eq!(b, None);

        // Non-numeric coordinate cell: no form, nothing cached.
        let mut bad = rs(5);
        bad.rows[3][1] = Value::Str("corrupt".into());
        let c = s.insert("k", region(40.0, 50.0), bad, false, "C", &coords());
        assert_eq!(c, None);
        assert_eq!((s.stats().entries, s.stats().bytes), (1, charged));
        assert_eq!((s.lookup_exact("B"), s.lookup_exact("C")), (None, None));
    }

    #[test]
    fn key_strings_are_shared_not_cloned() {
        let mut s = CacheStore::new(DescriptionKind::Array, None);
        let id = s
            .insert("k", region(0.0, 1.0), rs(3), false, "SQL A", &coords())
            .unwrap();
        let e = s.peek(id).unwrap();
        // Entry and maps hold the same allocation: 1 entry ref + 1 map
        // key ref each.
        assert_eq!(Arc::strong_count(&e.residual_key), 2);
        assert_eq!(Arc::strong_count(&e.exact_sql), 2);
    }

    #[test]
    fn oversized_entry_is_rejected() {
        let mut s = CacheStore::new(DescriptionKind::Array, Some(10));
        assert!(s
            .insert("k", region(0.0, 1.0), rs(100), false, "A", &coords())
            .is_none());
        assert_eq!(s.stats().entries, 0);
    }

    #[test]
    fn compaction_counts_separately() {
        let mut s = CacheStore::new(DescriptionKind::RTree, None);
        let a = s
            .insert("k", region(0.0, 1.0), rs(1), false, "A", &coords())
            .unwrap();
        let b = s
            .insert("k", region(2.0, 3.0), rs(1), false, "B", &coords())
            .unwrap();
        s.compact(&[a, b, 999]);
        let st = s.stats();
        assert_eq!(st.compactions, 2);
        assert_eq!(st.evictions, 0);
        assert_eq!(st.entries, 0);
    }

    /// A resident entry keeps its answer once, as its columnar form:
    /// the caller's result is not shared with the store, and the charge
    /// is the XML size plus the form's heap. A result whose coordinates
    /// build no form leaves the store untouched.
    #[test]
    fn a_resident_entry_holds_its_answer_once() {
        let mut s = CacheStore::new(DescriptionKind::Array, None);
        let coords = coords();
        let rows = Arc::new(rs(40));
        let a = s
            .insert(
                "k",
                region(0.0, 40.0),
                Arc::clone(&rows),
                false,
                "A",
                &coords,
            )
            .unwrap();
        assert_eq!(Arc::strong_count(&rows), 1, "the store kept no clone");
        let form = s.peek(a).unwrap().ram();
        let charged = accounted_xml_bytes(&rows, Some(form)) + form.heap_bytes();
        assert_eq!(
            form.rows_of(&[0, 39]).unwrap().rows,
            [&rows.rows[0], &rows.rows[39]].map(Clone::clone)
        );
        assert_eq!(s.stats().bytes, charged);

        let mut bad = rs(5);
        bad.rows[3][1] = Value::Str("corrupt".into());
        let bad = Arc::new(bad);
        let b = s.insert(
            "k",
            region(50.0, 60.0),
            Arc::clone(&bad),
            false,
            "B",
            &coords,
        );
        assert_eq!(b, None, "a non-numeric coordinate builds no form");
        assert_eq!(Arc::strong_count(&bad), 1, "the store kept no clone");
        assert_eq!(s.stats().bytes, charged);
    }

    /// Compaction counts every entry it removes, resident or demoted,
    /// as region-containment retirements (and not as evictions).
    #[test]
    fn compaction_counts_demoted_entries_too() {
        let dir = tier_dir("compact");
        let (mut s, a, b) = tiered_pair(&dir);
        assert!(!s.peek(a).unwrap().is_resident());
        assert!(s.peek(b).unwrap().is_resident());
        s.compact(&[a, b]);
        let st = s.stats();
        assert_eq!(st.compactions, 2);
        assert_eq!((st.entries, st.disk_entries, st.evictions), (0, 0, 0));
        let rendered = crate::observe::registry::render_prometheus(&st);
        assert!(
            rendered.contains("funcproxy_cache_retired_total{reason=\"compacted\"} 2"),
            "{rendered}"
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn groups_are_isolated_and_dimension_safe() {
        let mut s = CacheStore::new(DescriptionKind::RTree, None);
        // 2-D group and 3-D group coexist.
        s.insert("g2", region(0.0, 1.0), rs(1), false, "A", &coords())
            .unwrap();
        let r3 = Region::Rect(HyperRect::new(vec![0.0; 3], vec![1.0; 3]).unwrap());
        s.insert("g3", r3.clone(), rs(1), false, "B", &coords())
            .unwrap();
        assert_eq!(s.group_len("g2"), 1);
        assert_eq!(s.group_len("g3"), 1);
        assert_eq!(s.candidates("g3", &r3).len(), 1);
    }

    // ---- disk-tier tests -------------------------------------------

    fn tier_dir(name: &str) -> std::path::PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("fp_store_tier_{}_{name}", std::process::id()));
        let _ = std::fs::remove_dir_all(&p);
        std::fs::create_dir_all(&p).unwrap();
        p
    }

    /// A tiered store sized to hold ~1.5 entries: the second insert
    /// demotes the first. Returns `(store, id_a, id_b)` with A demoted
    /// and B resident.
    fn tiered_pair(dir: &std::path::Path) -> (CacheStore, u64, u64) {
        let mut s = CacheStore::new(DescriptionKind::Array, Some(footprint(10) * 3 / 2));
        s.attach_tier(&TierConfig::new(dir), 0).unwrap();
        let a = s
            .insert("k", region(0.0, 10.0), rs(10), false, "A", &coords())
            .unwrap();
        let b = s
            .insert("k", region(20.0, 30.0), rs(10), false, "B", &coords())
            .unwrap();
        assert!(!s.peek(a).unwrap().is_resident(), "A should be demoted");
        assert!(s.peek(b).unwrap().is_resident(), "B stays resident");
        (s, a, b)
    }

    /// Parses a demoted entry's slab payload back into its result and
    /// columnar form, exactly like the promotion worker does off-lock.
    fn parse_slice(slice: &SlabSlice) -> (ResultSet, Arc<ColumnarRows>) {
        let parsed = entry_from_segment(slice.xml(), slice.row_slab()).unwrap();
        let form = ColumnarRows::build(&parsed.result, &parsed.coord_idx).unwrap();
        (parsed.result, Arc::new(form))
    }

    #[test]
    fn tier_demotes_over_budget_and_keeps_classification_resident() {
        let dir = tier_dir("demote");
        let (s, a, _b) = tiered_pair(&dir);
        let st = s.stats();
        assert_eq!(st.entries, 1);
        assert_eq!(st.disk_entries, 1);
        assert_eq!(st.demotions, 1);
        assert_eq!(st.evictions, 0, "tiered store spills instead of evicting");
        assert!(st.slab_bytes > 0);
        // Classification metadata never left RAM.
        let entry = s.peek(a).expect("demoted entry still classifiable");
        assert_eq!(entry.rows(), 10);
        assert!(!entry.truncated);
        assert!(matches!(entry.body, Body::Disk { .. }));
        assert_eq!(s.lookup_exact("A"), Some(a));
        assert_eq!(s.candidates("k", &region(1.0, 2.0)), vec![a]);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn tier_slab_round_trip_and_promote() {
        let dir = tier_dir("promote");
        let (mut s, a, _b) = tiered_pair(&dir);
        let slice = s.disk_slice(a).expect("demoted entry has a slab segment");
        let (result, form) = parse_slice(&slice);
        // The slab payload reproduces the original result exactly.
        assert_eq!(result, rs(10));
        assert_eq!(form.coord_idx(), &[1, 2]);
        // And the demoted skeleton + mapped row slab rebuild the exact
        // XML document the resident entry would have served.
        let Some(Body::Disk { skeleton, .. }) = s.peek(a).map(|e| &e.body) else {
            panic!("A is demoted");
        };
        let doc = skeleton.doc().over(Arc::new(slice)).expect("slab fits");
        assert_eq!(doc.to_vec(), result.to_xml_string().into_bytes());

        assert!(s.promote(a, Arc::clone(&form)));
        assert!(
            s.peek(a).unwrap().is_resident(),
            "promoted entry is resident again"
        );
        let st = s.stats();
        assert_eq!(st.promotions, 1);
        // Promotion re-applied the budget: something else got demoted.
        assert_eq!(st.demotions, 2);
        assert_eq!(st.entries + st.disk_entries, 2, "no entry lost");
        // Promoting an id that is not demoted is a no-op.
        assert!(!s.promote(a, form));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn tier_remove_and_epoch_bump_cover_demoted_entries() {
        let dir = tier_dir("remove");
        let (mut s, a, _b) = tiered_pair(&dir);
        let removed = s.remove(a).expect("remove reaches the demoted entry");
        assert!(!removed.is_resident());
        assert_eq!(s.lookup_exact("A"), None);
        assert!(s.candidates("k", &region(1.0, 2.0)).is_empty());
        assert_eq!(s.stats().disk_entries, 0);
        drop(s);

        let dir2 = tier_dir("epoch");
        let (mut s, _a, _b) = tiered_pair(&dir2);
        assert_eq!(s.bump_epoch(1), 2, "bump retires demoted + resident");
        let st = s.stats();
        assert_eq!(st.entries, 0);
        assert_eq!(st.disk_entries, 0);
        assert_eq!(st.epoch_invalidations, 2);
        std::fs::remove_dir_all(&dir).unwrap();
        std::fs::remove_dir_all(&dir2).unwrap();
    }

    #[test]
    fn tier_same_sql_replaces_demoted_entry() {
        let dir = tier_dir("replace");
        let (mut s, a, _b) = tiered_pair(&dir);
        let a2 = s
            .insert("k", region(0.0, 10.0), rs(12), false, "A", &coords())
            .unwrap();
        assert_ne!(a, a2);
        assert_eq!(s.lookup_exact("A"), Some(a2));
        assert_eq!(s.peek(a2).unwrap().rows(), 12);
        assert!(s.peek(a).is_none(), "old demoted entry retired");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn tier_recovers_from_meta_and_from_bare_replay() {
        let dir = tier_dir("recover");
        let config = TierConfig::new(&dir);
        {
            let mut s = CacheStore::new(DescriptionKind::Array, None);
            s.attach_tier(&config, 0).unwrap();
            s.insert("k", region(0.0, 10.0), rs(10), false, "A", &coords())
                .unwrap();
            s.insert("k", region(20.0, 30.0), rs(7), false, "B", &coords())
                .unwrap();
            s.insert("k", region(40.0, 50.0), rs(3), true, "C", &coords())
                .unwrap();
            assert_eq!(s.tier_meta().unwrap().write().unwrap(), 3);
        }

        // Meta mode: precise recovery, entries come up demoted.
        let mut s = CacheStore::new(DescriptionKind::Array, None);
        s.attach_tier(&config, 0).unwrap();
        let outcome = s.recover_tier();
        assert_eq!(
            outcome,
            TierRecovery {
                recovered: 3,
                corrupt: 0,
                epoch: 0,
            }
        );
        let st = s.stats();
        assert_eq!(st.disk_entries, 3);
        assert_eq!(st.entries, 0);
        for sql in ["A", "B", "C"] {
            assert!(s.lookup_exact(sql).is_some(), "{sql} survived restart");
        }
        // Descriptions are rebuilt, and C kept its truncation flag and rows.
        let c = s.lookup_exact("C").unwrap();
        assert_eq!(s.candidates("k", &region(41.0, 42.0)), vec![c]);
        assert!(s.peek(c).unwrap().truncated);
        assert_eq!(s.peek(c).unwrap().rows(), 3);
        let a = s.lookup_exact("A").unwrap();
        let slice = s.disk_slice(a).expect("recovered demoted entry readable");
        let (result, form) = parse_slice(&slice);
        assert_eq!(result, rs(10));
        assert!(s.promote(a, form));
        drop(s);

        // Replay mode: lose the metadata, scan the slab alone.
        std::fs::remove_file(config.meta_path(0)).unwrap();
        let mut s = CacheStore::new(DescriptionKind::Array, None);
        s.attach_tier(&config, 0).unwrap();
        let outcome = s.recover_tier();
        assert_eq!(outcome.recovered, 3);
        for sql in ["A", "B", "C"] {
            assert!(s.lookup_exact(sql).is_some(), "{sql} survived bare replay");
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// A segment an older binary wrote for an entry it kept row-major —
    /// rows inline as `<ResultSet>`, no `<CoordIdx>` — still parses but
    /// builds no form: the restore drops it, dead and not corrupt, and
    /// recovers nothing from it, while the form entry beside it
    /// restores.
    #[test]
    fn tier_restore_drops_a_formless_segment() {
        let dir = tier_dir("formless");
        // Never compact, so the dropped segment's bytes stay visible.
        let config = TierConfig::new(&dir).with_compact_ratio(1.0);
        {
            let mut s = CacheStore::new(DescriptionKind::Array, None);
            s.attach_tier(&config, 0).unwrap();
            s.insert("k", region(0.0, 10.0), rs(10), false, "A", &coords())
                .unwrap();
            assert_eq!(s.tier_meta().unwrap().write().unwrap(), 1);
        }
        let rows = ResultSet {
            columns: vec!["objID".into()],
            rows: (0..3).map(|i| vec![Value::Int(i)]).collect(),
        };
        let xml = fp_xmlite::Element::new("CacheEntry")
            .with_attr("truncated", "0")
            .with_child(fp_xmlite::Element::new("ResidualKey").with_text("k"))
            .with_child(fp_xmlite::Element::new("Sql").with_text("C"))
            .with_child(region_to_xml(&region(40.0, 50.0)))
            .with_child(rows.to_xml())
            .to_xml();
        let parsed = entry_from_segment(xml.as_bytes(), &[]).expect("the segment parses");
        assert_eq!((parsed.result, parsed.coord_idx), (rows, Vec::new()));
        let seg = {
            let mut slab = SlabFile::open(config.slab_path(0)).unwrap();
            slab.append(&encode_payload(xml.as_bytes(), &[])).unwrap()
        };
        // Bare replay: every segment goes through the restore path.
        std::fs::remove_file(config.meta_path(0)).unwrap();

        let mut s = CacheStore::new(DescriptionKind::Array, None);
        s.attach_tier(&config, 0).unwrap();
        let outcome = s.recover_tier();
        assert_eq!(
            outcome,
            TierRecovery {
                recovered: 1,
                corrupt: 0,
                epoch: 0,
            }
        );
        assert!(s.lookup_exact("A").is_some());
        assert_eq!(s.lookup_exact("C"), None);
        assert_eq!((s.stats().entries, s.stats().disk_entries), (0, 1));
        assert_eq!(s.stats().slab_corrupt_segments, 0);
        let slab = &s.tier.as_ref().unwrap().slab;
        assert_eq!(slab.dead_bytes(), u64::from(seg.len), "C's segment is dead");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn tier_corrupt_slab_tail_is_counted_not_fatal() {
        let dir = tier_dir("corrupt");
        let config = TierConfig::new(&dir);
        {
            let mut s = CacheStore::new(DescriptionKind::Array, None);
            s.attach_tier(&config, 0).unwrap();
            s.insert("k", region(0.0, 10.0), rs(10), false, "A", &coords())
                .unwrap();
            s.insert("k", region(20.0, 30.0), rs(7), false, "B", &coords())
                .unwrap();
            assert_eq!(s.tier_meta().unwrap().write().unwrap(), 2);
        }
        // Tear the last segment: truncate mid-payload, as a crash would.
        let slab_path = config.slab_path(0);
        let len = std::fs::metadata(&slab_path).unwrap().len();
        let file = std::fs::OpenOptions::new()
            .write(true)
            .open(&slab_path)
            .unwrap();
        file.set_len(len - 10).unwrap();
        drop(file);

        let mut s = CacheStore::new(DescriptionKind::Array, None);
        s.attach_tier(&config, 0).unwrap();
        let outcome = s.recover_tier();
        assert_eq!(outcome.recovered, 1, "front segment survives the torn tail");
        assert!(outcome.corrupt >= 1, "damage is counted, not fatal");
        assert!(s.lookup_exact("A").is_some());
        assert_eq!(s.lookup_exact("B"), None);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
