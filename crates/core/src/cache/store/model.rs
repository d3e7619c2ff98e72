//! `CacheStore` against a reference model.
//!
//! [`ModelStore`] is the store written the slow, obvious way: one `Vec`
//! of entries, every lookup a linear scan, every victim the minimum of a
//! scan. A state machine drives both through the same operations —
//! insert, lookup + touch, remove, demote, promote, epoch bumps, expiry
//! on a [`MockClock`], compaction, refetch costs and a warm restart —
//! under every [`Replacement`] policy and both description kinds, and
//! after each operation checks that they agree on:
//!
//! - what `classify` answers for every probe region;
//! - the whole victim order, key by key;
//! - `CacheStats` and the bytes charged;
//! - each id's tier (resident, demoted or gone), its slab segment, its
//!   freshness, age and exact SQL, and the exact-match map.
//!
//! The model reuses the pieces that are tested on their own: region
//! relations (`fp_geometry`), `policy_key`/`EntryCost` (checked against
//! a reference scan in `replace.rs`), `freshness_at` and the segment
//! codec (`prop_slab_roundtrip`). What it re-derives is the store's
//! bookkeeping: which id is where, and what each operation moves.
//!
//! Slab *file* size and compaction counts depend on the order in which a
//! multi-entry retirement (an epoch bump, a sweep) visits entries, which
//! the store leaves unspecified; the model checks the order-free facts
//! instead — the live payload bytes, and that no compaction is pending.
//!
//! The restore operation writes `.fpmeta` and reopens the store (meta
//! mode). Bare slab replay is not modelled: without retirement records
//! it brings back entries a `bump_epoch` retired, which no model of the
//! store's contract allows.

use super::disk::TierRecovery;
use super::*;
use crate::cache::persist::entry_from_segment;
use crate::cache::segment_header;
use crate::cache::tier::encode_payload;
use crate::lifecycle::freshness_at;
use crate::query::{classify, QueryStatus};
use crate::resilience::MockClock;
use crate::template::{BoundKey, TemplateManager};
use fp_geometry::Relation;
use fp_sqlmini::Value;
use proptest::prelude::*;
use std::sync::atomic::{AtomicUsize, Ordering};

/// Residual key of the second group: entries there share regions with
/// the probed group but never answer its probes.
const OTHER: &str = "other|top=None";
/// The result's coordinate columns (the radial template's), as indexes.
const COORDS: [usize; 3] = [1, 2, 3];

/// One model entry: the scalars the store keeps plus where its rows are.
#[derive(Debug, Clone)]
struct Ent {
    id: u64,
    key: Arc<str>,
    /// Pool index of the entry's region.
    slot: usize,
    sql: Arc<str>,
    result: Arc<ResultSet>,
    truncated: bool,
    bytes: usize,
    heap: usize,
    epoch: u64,
    inserted_at: Instant,
    expires_at: Option<Instant>,
    disk: bool,
    /// Payload length of the entry's slab segment, once written.
    seg: Option<u32>,
    /// Replacement bookkeeping, while resident.
    cost: Option<EntryCost>,
}

impl Ent {
    fn footprint(&self) -> usize {
        self.bytes + self.heap
    }
}

/// The reference store: a `Vec` and linear scans.
struct ModelStore {
    replacement: Replacement,
    capacity: Option<usize>,
    tiered: bool,
    compact_ratio: f64,
    lifecycle: LifecycleConfig,
    clock: Arc<MockClock>,
    entries: Vec<Ent>,
    tick: u64,
    next_id: u64,
    epoch: u64,
    stats: CacheStats,
}

impl ModelStore {
    fn pos(&self, id: u64) -> Option<usize> {
        self.entries.iter().position(|e| e.id == id)
    }

    fn by_sql(&self, sql: &str) -> Option<u64> {
        self.entries.iter().find(|e| &*e.sql == sql).map(|e| e.id)
    }

    fn total(&self) -> usize {
        self.entries
            .iter()
            .filter(|e| !e.disk)
            .map(Ent::footprint)
            .sum()
    }

    fn freshness(&self, e: &Ent) -> Freshness {
        let lc = &self.lifecycle;
        e.expires_at.map_or(Freshness::Fresh, |deadline| {
            freshness_at(
                deadline,
                self.clock.now(),
                lc.stale_while_revalidate,
                lc.stale_if_error,
            )
        })
    }

    /// Resident entries in victim order: `(policy key, id)` ascending.
    fn victims(&self) -> Vec<(u64, u64)> {
        let mut order: Vec<(u64, u64)> = self
            .entries
            .iter()
            .filter_map(|e| {
                Some((
                    policy_key(self.replacement, e.cost.as_ref()?, e.footprint()),
                    e.id,
                ))
            })
            .collect();
        order.sort_unstable();
        order
    }

    fn insert(
        &mut self,
        key: &str,
        slot: usize,
        sql: &str,
        result: ResultSet,
        columnar: bool,
        truncated: bool,
    ) -> Option<u64> {
        // Without its coordinate columns a result builds no form, and
        // is not cached.
        if !columnar {
            return None;
        }
        let col = ColumnarRows::build(&result, &COORDS)?;
        let bytes = accounted_xml_bytes(&result, Some(&col));
        let heap = col.heap_bytes();
        let footprint = bytes + heap;
        if self.capacity.is_some_and(|cap| footprint > cap) && !self.tiered {
            return None;
        }
        if let Some(old) = self.by_sql(sql) {
            self.remove(old);
        }
        if let Some(cap) = self.capacity {
            while self.total() + footprint > cap {
                let Some(&(_, victim)) = self.victims().first() else {
                    break;
                };
                self.demote_or_evict(victim);
            }
        }
        let id = self.next_id;
        self.next_id += 1;
        self.tick += 1;
        let now = self.clock.now();
        self.entries.push(Ent {
            id,
            key: key.into(),
            slot,
            sql: sql.into(),
            result: Arc::new(result),
            truncated,
            bytes,
            heap,
            epoch: self.epoch,
            inserted_at: now,
            expires_at: self.lifecycle.ttl_for(key).map(|ttl| now + ttl),
            disk: false,
            seg: None,
            cost: Some(EntryCost::new(
                self.tick,
                EntryCost::default_refetch_us(footprint),
            )),
        });
        if self.capacity.is_some_and(|cap| self.total() > cap) && self.tiered {
            self.demote_or_evict(id);
        }
        Some(id)
    }

    fn get(&mut self, id: u64) {
        if let Some(i) = self.pos(id).filter(|&i| !self.entries[i].disk) {
            self.tick += 1;
            let tick = self.tick;
            self.entries[i].cost.as_mut().expect("resident").touch(tick);
        }
    }

    /// Removes `id` from either tier; its segment turns dead.
    fn remove(&mut self, id: u64) -> bool {
        let Some(i) = self.pos(id) else { return false };
        self.entries.remove(i);
        true
    }

    fn demote(&mut self, id: u64) -> bool {
        let Some(i) = self.pos(id) else { return false };
        if !self.tiered || self.entries[i].disk {
            return false;
        }
        self.ensure_segment(i);
        let e = &mut self.entries[i];
        e.disk = true;
        e.cost = None;
        self.stats.demotions += 1;
        true
    }

    fn demote_or_evict(&mut self, id: u64) {
        if !self.demote(id) && self.remove(id) {
            self.stats.evictions += 1;
        }
    }

    fn ensure_segment(&mut self, i: usize) {
        if self.entries[i].seg.is_none() {
            let len = seg_len(
                &self.entries[i],
                &pool()[self.entries[i].slot],
                self.clock.now(),
            );
            self.entries[i].seg = Some(len);
        }
    }

    fn promote(&mut self, id: u64) -> bool {
        let Some(i) = self.pos(id).filter(|&i| self.entries[i].disk) else {
            return false;
        };
        self.tick += 1;
        let e = &mut self.entries[i];
        e.disk = false;
        e.cost = Some(EntryCost::new(
            self.tick,
            EntryCost::default_refetch_us(e.footprint()),
        ));
        self.stats.promotions += 1;
        if let Some(cap) = self.capacity {
            while self.total() > cap {
                let Some(&(_, victim)) = self.victims().first() else {
                    break;
                };
                self.demote_or_evict(victim);
                if victim == id {
                    break;
                }
            }
        }
        true
    }

    fn bump_epoch(&mut self, epoch: u64) -> usize {
        if epoch <= self.epoch {
            return 0;
        }
        self.epoch = epoch;
        let before = self.entries.len();
        self.entries.retain(|e| e.epoch >= epoch);
        let n = before - self.entries.len();
        self.stats.epoch_invalidations += n;
        n
    }

    /// Retires the dead entries of the probed group (the sweep's probe
    /// covers every pool region).
    fn sweep_dead(&mut self, key: &str) -> usize {
        let dead: Vec<u64> = self
            .entries
            .iter()
            .filter(|e| &*e.key == key && self.freshness(e) == Freshness::Dead)
            .map(|e| e.id)
            .collect();
        for &id in &dead {
            self.remove(id);
        }
        self.stats.expired += dead.len();
        dead.len()
    }

    /// Every entry removed counts, resident or demoted.
    fn compact(&mut self, ids: &[u64]) {
        for &id in ids {
            if self.remove(id) {
                self.stats.compactions += 1;
            }
        }
    }

    fn note_refetch_cost(&mut self, id: u64, us: u64) {
        if let Some(cost) = self.pos(id).and_then(|i| self.entries[i].cost.as_mut()) {
            cost.refetch_us = us;
        }
    }

    /// The `.fpmeta` pass spills every resident entry; a reopened store
    /// then holds every live entry again under fresh ids, demoted, with
    /// counters reset and dead entries counted expired. `new_id` is the
    /// reopened store's id for an entry's SQL (restore order is
    /// unspecified); `None` when a live entry did not come back.
    fn restore(&mut self, new_id: impl Fn(&str) -> Option<u64>) -> Option<usize> {
        for i in 0..self.entries.len() {
            if !self.entries[i].disk {
                self.ensure_segment(i);
            }
        }
        let dead: Vec<u64> = self
            .entries
            .iter()
            .filter(|e| self.freshness(e) == Freshness::Dead)
            .map(|e| e.id)
            .collect();
        self.entries.retain(|e| !dead.contains(&e.id));
        self.stats = CacheStats {
            expired: dead.len(),
            ..CacheStats::default()
        };
        for e in &mut self.entries {
            e.id = new_id(&e.sql)?;
            e.disk = true;
            e.cost = None;
        }
        self.entries.sort_by_key(|e| e.id);
        self.tick = 0;
        self.next_id = self.entries.len() as u64 + 1;
        Some(self.entries.len())
    }

    /// The paper's classification by a scan over the whole group.
    fn classify(&self, probe: &BoundKey) -> QueryStatus {
        let mut contained: Vec<&Ent> = Vec::new();
        let (mut contains, mut overlaps) = (Vec::new(), Vec::new());
        for e in &self.entries {
            if e.key != probe.residual_key || !self.freshness(e).serveable(false) {
                continue;
            }
            match probe.region.relate(&pool()[e.slot].region) {
                Relation::Equal => return QueryStatus::ExactMatch(e.id),
                Relation::Inside if !e.truncated => contained.push(e),
                Relation::Contains if !e.truncated => contains.push(e.id),
                Relation::Overlaps if !e.truncated => overlaps.push(e.id),
                _ => {}
            }
        }
        // Ties on the row count go to the description's order, which
        // the model does not know: the smallest id stands for the set.
        if let Some(e) = contained.iter().min_by_key(|e| (e.result.len(), e.id)) {
            return QueryStatus::ContainedBy(e.id);
        }
        contains.sort_unstable();
        overlaps.sort_unstable();
        match (contains.is_empty(), overlaps.is_empty()) {
            (false, _) => QueryStatus::RegionContainment(contains),
            (true, false) => QueryStatus::Overlapping(overlaps),
            (true, true) => QueryStatus::Disjoint,
        }
    }

    /// Entries tied with `id` for the smallest containing entry.
    fn contained_ties(&self, probe: &BoundKey, id: u64) -> Vec<u64> {
        let rows = |id| {
            self.entries
                .iter()
                .find(|e| e.id == id)
                .map(|e| e.result.len())
        };
        self.entries
            .iter()
            .filter(|e| {
                e.key == probe.residual_key && !e.truncated && self.freshness(e).serveable(false)
            })
            .filter(|e| probe.region.relate(&pool()[e.slot].region) == Relation::Inside)
            .filter(|e| Some(e.result.len()) == rows(id))
            .map(|e| e.id)
            .collect()
    }
}

/// The payload length `ensure_segment` writes for `e` at `now`.
fn seg_len(e: &Ent, bound: &BoundKey, now: Instant) -> u32 {
    let form = Arc::new(ColumnarRows::build(&e.result, &COORDS).expect("numeric"));
    let entry = Entry {
        id: e.id,
        residual_key: Arc::clone(&e.key),
        region: bound.region.clone(),
        bbox: bound.region.bounding_rect(),
        bytes: e.bytes,
        truncated: e.truncated,
        exact_sql: Arc::clone(&e.sql),
        epoch: e.epoch,
        inserted_at: Some(e.inserted_at),
        expires_at: e.expires_at,
        body: Body::Ram(Arc::clone(&form)),
        seg: None,
    };
    let header = segment_header(&entry, Some(now)).expect("resident");
    encode_payload(&header, form.slab()).len() as u32
}

/// The regions entries are cached under and probes ask for: radial
/// cones on a small grid (so every relationship occurs), plus one last
/// cone covering them all, which is only ever a probe.
fn pool() -> &'static [BoundKey] {
    static POOL: std::sync::OnceLock<Vec<BoundKey>> = std::sync::OnceLock::new();
    POOL.get_or_init(|| {
        let m = TemplateManager::with_sky_defaults();
        let bind = |ra: f64, dec: f64, radius: f64| {
            let form = [("ra", ra), ("dec", dec), ("radius", radius)]
                .map(|(k, v)| (k.to_string(), v.to_string()));
            m.bind_form("/search/radial", &form).expect("radial binds")
        };
        let mut pool = Vec::new();
        for ra in [180.0, 180.1, 180.25] {
            for dec in [0.0, 0.1] {
                for radius in [3.3, 7.7, 19.1] {
                    pool.push(bind(ra, dec, radius));
                }
            }
        }
        pool.push(bind(180.1, 0.05, 300.0));
        pool
    })
}

/// Slots entries may be inserted under (all but the covering cone).
const SLOTS: usize = 18;

/// `n` rows with numeric coordinates, distinct per slot.
fn rows(slot: usize, n: usize) -> ResultSet {
    ResultSet {
        columns: ["objID", "cx", "cy", "cz"].map(String::from).to_vec(),
        rows: (0..n)
            .map(|i| {
                vec![
                    Value::Int((slot * 100 + i) as i64),
                    Value::Float(0.5 + i as f64 * 0.125),
                    Value::Float(-0.25 * i as f64),
                    Value::Float(1e-3 * i as f64),
                ]
            })
            .collect(),
    }
}

#[derive(Debug, Clone)]
enum Op {
    Insert {
        slot: usize,
        other: bool,
        rows: usize,
        columnar: bool,
        truncated: bool,
    },
    Get(usize),
    Remove(usize),
    Demote(usize),
    Promote(usize),
    BumpEpoch(u64),
    Expire(u64),
    Compact(usize, usize),
    Refetch(usize, u64),
    Restore,
}

fn op() -> impl Strategy<Value = Op> {
    let pick = || 0usize..1000;
    prop_oneof![
        8 => (0..SLOTS, 0u8..4, 0usize..7, 0u8..4, 0u8..8).prop_map(|(slot, o, rows, c, t)| {
            Op::Insert { slot, other: o == 0, rows, columnar: c != 0, truncated: t == 0 }
        }),
        4 => pick().prop_map(Op::Get),
        2 => pick().prop_map(Op::Remove),
        3 => pick().prop_map(Op::Demote),
        3 => pick().prop_map(Op::Promote),
        1 => (0u64..2).prop_map(Op::BumpEpoch),
        2 => prop_oneof![Just(1u64), Just(9), Just(30), Just(80)].prop_map(Op::Expire),
        1 => (pick(), pick()).prop_map(|(a, b)| Op::Compact(a, b)),
        2 => (pick(), 0u64..5_000).prop_map(|(i, us)| Op::Refetch(i, us)),
        1 => Just(Op::Restore),
    ]
}

/// A case's store configuration.
#[derive(Debug, Clone)]
struct Config {
    kind: DescriptionKind,
    replacement: Replacement,
    capacity: Option<usize>,
    tiered: bool,
    lifecycle: LifecycleConfig,
}

fn config() -> impl Strategy<Value = Config> {
    let ms = Duration::from_millis;
    (
        any::<bool>(),
        0usize..5,
        0usize..5,
        0u8..4,
        0u64..3,
        0u64..4,
    )
        .prop_map(move |(rtree, policy, cap, tier, ttl, windows)| {
            let (swr, sie) = (windows & 1, windows >> 1);
            let mut lifecycle = LifecycleConfig::default()
                .with_stale_while_revalidate(ms(swr * 20))
                .with_stale_if_error(ms(sie * 50));
            if ttl > 0 {
                lifecycle = lifecycle.with_default_ttl(ms(ttl * 40));
            }
            Config {
                kind: if rtree {
                    DescriptionKind::RTree
                } else {
                    DescriptionKind::Array
                },
                replacement: Replacement::all()[policy],
                // Two to five typical entries; `None` is unbounded.
                capacity: (cap > 0).then_some(cap * 900 + 800),
                tiered: tier > 0,
                lifecycle,
            }
        })
}

fn open(cfg: &Config, clock: &Arc<MockClock>, dir: &std::path::Path) -> CacheStore {
    let mut store = CacheStore::with_lifecycle(
        cfg.kind,
        cfg.capacity,
        cfg.replacement,
        Arc::new(cfg.lifecycle.clone()),
        Arc::clone(clock) as Arc<dyn Clock>,
    );
    if cfg.tiered {
        store
            .attach_tier(&TierConfig::new(dir), 0)
            .expect("tier opens");
    }
    store
}

// ---- the store's side of the checks (its bookkeeping's shape) ----

/// `Some(true)` demoted, `Some(false)` resident, `None` gone.
fn tier_of(store: &CacheStore, id: u64) -> Option<bool> {
    store.peek(id).map(|e| !e.is_resident())
}

fn has_segment(store: &CacheStore, id: u64) -> bool {
    store.peek(id).is_some_and(|e| e.seg.is_some())
}

/// The model's id for the operand `n`: one of its live ids, or an id
/// nothing holds.
fn pick(model: &ModelStore, n: usize) -> u64 {
    pick_where(model, n, |_| true)
}

/// [`pick`] among the entries `on` selects (demote picks resident
/// entries, promote demoted ones), or an id that fails the operation.
fn pick_where(model: &ModelStore, n: usize, on: impl Fn(&Ent) -> bool) -> u64 {
    let mut ids: Vec<u64> = model
        .entries
        .iter()
        .filter(|e| on(e))
        .map(|e| e.id)
        .collect();
    ids.sort_unstable();
    ids.get(n % (ids.len() + 1)).copied().unwrap_or(999_999)
}

fn apply(
    store: &mut CacheStore,
    model: &mut ModelStore,
    op: &Op,
    cfg: &Config,
    dir: &std::path::Path,
) -> Result<(), TestCaseError> {
    match *op {
        Op::Insert {
            slot,
            other,
            rows: n,
            columnar,
            truncated,
        } => {
            let bound = &pool()[slot];
            let (key, sql) = match other {
                true => (OTHER, format!("{} -- {OTHER}", bound.sql)),
                false => (&*bound.residual_key, bound.sql.clone()),
            };
            let coords: &[String] = if columnar {
                &bound.reg.coord_columns
            } else {
                &[]
            };
            let got = store.insert(
                key,
                bound.region.clone(),
                rows(slot, n),
                truncated,
                &sql,
                coords,
            );
            let want = model.insert(key, slot, &sql, rows(slot, n), columnar, truncated);
            prop_assert_eq!(got, want, "insert id");
        }
        Op::Get(n) => {
            let id = pick(model, n);
            store.get(id);
            model.get(id);
        }
        Op::Remove(n) => {
            let id = pick(model, n);
            store.remove(id);
            model.remove(id);
        }
        Op::Demote(n) => {
            let id = pick_where(model, n, |e| !e.disk);
            prop_assert_eq!(store.demote(id), model.demote(id), "demote {}", id);
        }
        Op::Promote(n) => {
            let id = pick_where(model, n, |e| e.disk);
            let Some(e) = model.pos(id).map(|i| &model.entries[i]).filter(|e| e.disk) else {
                prop_assert!(
                    !store.promote(
                        id,
                        Arc::new(ColumnarRows::build(&rows(0, 1), &COORDS).unwrap())
                    ),
                    "promoted {}",
                    id
                );
                prop_assert!(!model.promote(id));
                return Ok(());
            };
            // What the promotion worker does off-lock: parse the slab.
            let slice = store
                .disk_slice(id)
                .ok_or_else(|| TestCaseError::fail("no slice"))?;
            let parsed = entry_from_segment(slice.xml(), slice.row_slab())
                .ok_or_else(|| TestCaseError::fail("segment does not parse"))?;
            prop_assert_eq!(&parsed.result, &*e.result, "slab rows of {}", id);
            let form = ColumnarRows::build(&parsed.result, &parsed.coord_idx)
                .ok_or_else(|| TestCaseError::fail("demoted rows build no form"))?;
            prop_assert!(store.promote(id, Arc::new(form)));
            prop_assert!(model.promote(id));
        }
        Op::BumpEpoch(ahead) => {
            let epoch = model.epoch + ahead;
            prop_assert_eq!(store.bump_epoch(epoch), model.bump_epoch(epoch), "retired");
        }
        Op::Expire(ms) => {
            model.clock.advance(Duration::from_millis(ms));
            let cover = &pool()[SLOTS];
            let got = store.sweep_dead(&cover.residual_key, &cover.region);
            prop_assert_eq!(got, model.sweep_dead(&cover.residual_key), "swept");
        }
        Op::Compact(a, b) => {
            let ids = [pick(model, a), pick(model, b)];
            store.compact(&ids);
            model.compact(&ids);
        }
        Op::Refetch(n, us) => {
            let id = pick(model, n);
            store.note_refetch_cost(id, us);
            model.note_refetch_cost(id, us);
        }
        Op::Restore if cfg.tiered => {
            let meta = store.tier_meta().expect("tiered");
            prop_assert!(meta.write().is_ok());
            *store = open(cfg, &model.clock, dir);
            let outcome = store.recover_tier();
            let restored = model
                .restore(|sql| store.lookup_exact(sql))
                .ok_or_else(|| TestCaseError::fail("a live entry was not restored"))?;
            prop_assert_eq!(
                outcome,
                TierRecovery {
                    recovered: restored,
                    corrupt: 0,
                    epoch: model.epoch
                }
            );
        }
        Op::Restore => {}
    }
    Ok(())
}

fn check(store: &CacheStore, model: &ModelStore) -> Result<(), TestCaseError> {
    let got = store.stats();
    let want = CacheStats {
        entries: model.entries.iter().filter(|e| !e.disk).count(),
        bytes: model.total(),
        disk_entries: model.entries.iter().filter(|e| e.disk).count(),
        // Order-dependent (see the module doc): checked below instead.
        slab_bytes: got.slab_bytes,
        slab_compactions: got.slab_compactions,
        ..model.stats
    };
    prop_assert_eq!(got, want, "stats");
    let order: Vec<(u64, u64)> = store.victim_order.iter().copied().collect();
    prop_assert_eq!(order, model.victims(), "victim order");
    let now = model.clock.now();
    for e in &model.entries {
        prop_assert_eq!(tier_of(store, e.id), Some(e.disk), "tier of {}", e.id);
        prop_assert_eq!(
            has_segment(store, e.id),
            e.seg.is_some(),
            "segment of {}",
            e.id
        );
        prop_assert_eq!(
            store.freshness(e.id),
            Some(model.freshness(e)),
            "freshness of {}",
            e.id
        );
        let age = now.saturating_duration_since(e.inserted_at).as_secs_f64() * 1000.0;
        prop_assert_eq!(store.entry_age_ms(e.id), age, "age of {}", e.id);
        let entry = store
            .peek(e.id)
            .ok_or_else(|| TestCaseError::fail("no entry"))?;
        prop_assert_eq!(&entry.exact_sql, &e.sql, "sql of {}", e.id);
        prop_assert_eq!(
            (entry.rows(), entry.truncated),
            (e.result.len(), e.truncated),
            "view of {}",
            e.id
        );
    }
    for bound in &pool()[..SLOTS] {
        for sql in [bound.sql.clone(), format!("{} -- {OTHER}", bound.sql)] {
            prop_assert_eq!(
                store.lookup_exact(&sql),
                model.by_sql(&sql),
                "exact {}",
                sql
            );
        }
    }
    if let Some(tier) = &store.tier {
        let live: u64 = model
            .entries
            .iter()
            .filter_map(|e| e.seg)
            .map(u64::from)
            .sum();
        prop_assert_eq!(tier.slab.live_bytes(), live, "live slab bytes");
        prop_assert!(
            !tier.slab.needs_compact(model.compact_ratio),
            "compaction pending"
        );
    }
    for probe in pool() {
        let (got, want) = (classify(store, probe), model.classify(probe));
        let agree = match (&got, &want) {
            (QueryStatus::ContainedBy(g), QueryStatus::ContainedBy(w)) => {
                model.contained_ties(probe, *w).contains(g)
            }
            (QueryStatus::RegionContainment(g), QueryStatus::RegionContainment(w))
            | (QueryStatus::Overlapping(g), QueryStatus::Overlapping(w)) => {
                let mut g = g.clone();
                g.sort_unstable();
                &g == w
            }
            _ => got == want,
        };
        prop_assert!(
            agree,
            "classify {}: store {:?}, model {:?}",
            probe.sql,
            got,
            want
        );
    }
    Ok(())
}

fn run(cfg: &Config, ops: &[Op]) -> Result<(), TestCaseError> {
    static CASE: AtomicUsize = AtomicUsize::new(0);
    let dir = std::env::temp_dir().join(format!(
        "fp_store_model_{}_{}",
        std::process::id(),
        CASE.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    let clock = MockClock::shared();
    let mut model = ModelStore {
        replacement: cfg.replacement,
        capacity: cfg.capacity,
        tiered: cfg.tiered,
        compact_ratio: TierConfig::new(&dir).compact_ratio,
        lifecycle: cfg.lifecycle.clone(),
        clock: Arc::clone(&clock),
        entries: Vec::new(),
        tick: 0,
        next_id: 1,
        epoch: 0,
        stats: CacheStats::default(),
    };
    let mut store = open(cfg, &clock, &dir);
    let mut outcome = Ok(());
    for (step, op) in ops.iter().enumerate() {
        outcome = apply(&mut store, &mut model, op, cfg, &dir).and_then(|()| check(&store, &model));
        if let Err(TestCaseError::Fail(why)) = &outcome {
            outcome = Err(TestCaseError::fail(format!(
                "step {step} {op:?} under {cfg:?}: {why}"
            )));
            break;
        }
    }
    drop(store);
    let _ = std::fs::remove_dir_all(&dir);
    outcome
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// The store and the model agree after every operation.
    #[test]
    fn store_matches_model(cfg in config(), ops in prop::collection::vec(op(), 10..60)) {
        run(&cfg, &ops)?;
    }
}
