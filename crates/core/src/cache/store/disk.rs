//! The store's disk-tier operations: demotion and promotion (an entry's
//! [`Body`] switching in place), slab segments and compaction, and the
//! `.fpmeta` warm restart.

use super::CacheStore;
use crate::cache::entry::{Body, Entry};
use crate::cache::frame;
use crate::cache::persist::{
    entry_from_segment, segment_header, stamp_of, with_stamp, SegmentEntry,
};
use crate::cache::tier::{
    split_payload, IoOp, SegRef, SlabIo, SlabSlice, META_MAGIC, SLAB_VERSION,
};
use crate::lifecycle::LifecycleStamp;
use fp_skyserver::{accounted_xml_bytes, ColumnarRows};
use fp_xmlite::Element;
use std::collections::{HashMap, HashSet};
use std::io::Write;
use std::path::PathBuf;
use std::sync::Arc;

/// Outcome of a disk-tier warm restart.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TierRecovery {
    /// Entries restored, every one demoted.
    pub recovered: usize,
    /// Damaged slab/metadata segments skipped along the way (an
    /// unrecognisable `.fpmeta` file counts as one).
    pub corrupt: usize,
    /// The data-release epoch the `.fpmeta` file recorded (0 when there
    /// was none); the store has already advanced to it.
    pub epoch: u64,
}

/// One shard's encoded `.fpmeta`: built under the shard lock by
/// [`CacheStore::tier_meta`], written by [`TierMeta::write`] after the
/// lock is released, so the fsync never stalls serving.
pub(crate) struct TierMeta {
    path: PathBuf,
    io: SlabIo,
    /// `<Shard epoch/>` first, then one `<SlabEntry/>` per live entry.
    records: Vec<Vec<u8>>,
}

impl TierMeta {
    /// Frames the records and replaces the shard's `.fpmeta` through
    /// the staged writer (tmp → fsync → rename; faults on `MetaWrite`
    /// and `Fsync`). Returns the number of entry records.
    ///
    /// # Errors
    /// Injected faults and filesystem errors; the previous file stays.
    pub(crate) fn write(&self) -> std::io::Result<usize> {
        let mut bytes = frame::header(META_MAGIC, SLAB_VERSION).to_vec();
        for record in &self.records {
            frame::push_frame(&mut bytes, record)?;
        }
        frame::write_staged(&self.path, &self.io, IoOp::MetaWrite, None, |file| {
            file.write_all(&bytes)
        })?;
        Ok(self.records.len() - 1)
    }
}

impl CacheStore {
    /// Marks a slab segment dead (its entry is gone or was never
    /// restored), counting it corrupt when it was damaged.
    pub(super) fn seg_dead(&mut self, seg: SegRef, corrupt: bool) {
        if let Some(tier) = self.tier.as_mut() {
            tier.slab.mark_dead(seg);
            if corrupt {
                tier.slab.note_corrupt();
            }
        }
    }

    /// Compacts the slab when the dead-byte trigger has fired, moving
    /// each entry's segment to its new place. Entries whose segment
    /// turned out unreadable during the rewrite are removed with it
    /// (recursion is safe: the fresh slab has no dead bytes).
    pub(super) fn compact_slab(&mut self) {
        let Some(tier) = self.tier.as_mut() else {
            return;
        };
        if !tier.slab.needs_compact(tier.compact_ratio) {
            return;
        }
        let live: Vec<(u64, SegRef)> = self
            .entries
            .values()
            .filter_map(|e| Some((e.id, e.seg?)))
            .collect();
        let Some(moved) = tier.compact(&live) else {
            return;
        };
        let moved: HashMap<u64, SegRef> = moved.into_iter().collect();
        let mut lost = Vec::new();
        for e in self.entries.values_mut().filter(|e| e.seg.is_some()) {
            e.seg = moved.get(&e.id).copied();
            if e.seg.is_none() {
                lost.push(e.id);
            }
        }
        for id in lost {
            self.remove(id);
        }
    }

    /// Ensures `id` (RAM-resident) has a slab segment, appending one if
    /// needed. Entries are immutable, so a segment written once stays
    /// valid across any number of promote/demote cycles.
    fn ensure_segment(&mut self, id: u64) -> bool {
        let now = self.now();
        let (Some(tier), Some(entry)) = (self.tier.as_mut(), self.entries.get_mut(&id)) else {
            return false;
        };
        if entry.seg.is_some() {
            return true;
        }
        let (Body::Ram(form), Some(xml)) = (&entry.body, segment_header(entry, now)) else {
            return false;
        };
        // Eviction-only degraded mode: skip the append (the caller
        // evicts instead) until the periodic re-probe goes through.
        if !tier.admit_append() {
            return false;
        }
        // The rows go to disk once, as the row slab, straight from the
        // form.
        match tier.slab.append_segment(&xml, form.slab()) {
            Ok(seg) => {
                tier.note_append_ok();
                entry.seg = Some(seg);
                true
            }
            Err(_) => {
                tier.note_append_err();
                false
            }
        }
    }

    /// Moves a RAM-resident entry to the disk tier: its payload goes to
    /// the slab (if not already there), its skeleton (columns, spans,
    /// header, micro-index) stays resident, and its group/exact-map
    /// registrations are untouched so classification keeps seeing it.
    /// Returns `false` when the entry can't be demoted (no tier, not
    /// resident, or the slab append failed) — the caller evicts instead.
    pub(super) fn demote(&mut self, id: u64) -> bool {
        if self.tier.is_none() {
            return false;
        }
        let body = match self.entries.get(&id).map(|e| &e.body) {
            Some(Body::Ram(form)) => Body::Disk {
                skeleton: Arc::new(form.skeleton()),
            },
            _ => return false,
        };
        if !self.ensure_segment(id) {
            return false;
        }
        let entry = self.entries.get_mut(&id).expect("present above");
        let footprint = entry.footprint();
        entry.body = body;
        self.discharge(id, footprint);
        self.tier.as_mut().expect("checked above").demotions += 1;
        self.generation += 1;
        true
    }

    /// Brings a demoted entry back to RAM with its rebuilt columnar form
    /// (the slab parsed and the form rebuilt *outside* the shard lock by
    /// the promotion worker; the parse is the check the segment passes).
    /// The entry keeps its id, lifecycle stamps, and slab segment; the
    /// budget enforcer may demote other entries to make room. Returns
    /// `false` when `id` is no longer demoted (raced with a remove or
    /// another promotion).
    pub(crate) fn promote(&mut self, id: u64, form: Arc<ColumnarRows>) -> bool {
        let Some(entry) = self.entries.get_mut(&id).filter(|e| !e.is_resident()) else {
            return false;
        };
        entry.bytes = form.document_len();
        entry.body = Body::Ram(form);
        let footprint = entry.footprint();
        self.charge(id, footprint);
        self.tier
            .as_mut()
            .expect("demoted entries imply a tier")
            .promotions += 1;
        self.generation += 1;
        if let Some(cap) = self.capacity {
            while self.total_bytes > cap {
                let Some(victim) = self.next_victim() else {
                    break;
                };
                self.demote_or_evict(victim);
                if victim == id {
                    break; // the promoted entry itself went straight back
                }
            }
        }
        true
    }

    /// Quarantines a demoted entry whose slab segment failed its CRC
    /// or parse: the entry is removed, its segment marked dead and
    /// counted corrupt, and its exact SQL handed back so the runtime
    /// can read-repair — re-fetch from origin through the resilient
    /// path and rewrite — instead of losing the entry silently.
    pub(crate) fn quarantine_corrupt_demoted(&mut self, id: u64) -> Option<Arc<str>> {
        if self.entries.get(&id)?.is_resident() {
            return None;
        }
        let entry = self.remove(id)?;
        if let Some(tier) = self.tier.as_mut() {
            tier.slab.note_corrupt();
        }
        Some(entry.exact_sql)
    }

    /// A zero-copy view of a demoted entry's slab payload, safe to
    /// carry outside the shard lock (it pins the mmap, not the store).
    /// `None` when `id` is not demoted or its segment is unreachable.
    pub fn disk_slice(&mut self, id: u64) -> Option<SlabSlice> {
        let seg = self.entries.get(&id).filter(|e| !e.is_resident())?.seg?;
        self.tier.as_mut()?.slab.slice(seg)
    }

    /// Encodes this shard's warm-restart metadata: the store's epoch,
    /// then one tiny record per live entry (slab segment location +
    /// lifecycle stamp) instead of re-serializing payloads — the cost is
    /// proportional to entry *count*, not cached *bytes*. RAM-resident
    /// entries get a slab segment appended first if they never spilled.
    /// `None` without a tier.
    pub(crate) fn tier_meta(&mut self) -> Option<TierMeta> {
        self.tier.as_ref()?;
        // Spill in id (= insertion) order, not map order, so the slab's
        // later-segments-win replay semantics line up with recency.
        let mut unspilled: Vec<u64> = self
            .entries
            .values()
            .filter(|e| e.seg.is_none())
            .map(|e| e.id)
            .collect();
        unspilled.sort_unstable();
        for id in unspilled {
            self.ensure_segment(id);
        }
        let now = self.now();
        let tier = self.tier.as_ref()?;
        let shard = Element::new("Shard").with_attr("epoch", self.epoch.to_string());
        let mut records = vec![shard.to_xml().into_bytes()];
        for e in self.entries.values() {
            let Some(seg) = e.seg else {
                continue; // its append failed: not persisted this pass
            };
            let rec = Element::new("SlabEntry")
                .with_attr("off", seg.off.to_string())
                .with_attr("len", seg.len.to_string());
            let rec = with_stamp(rec, Some(e.epoch), e.inserted_at, e.expires_at, now);
            records.push(rec.to_xml().into_bytes());
        }
        Some(TierMeta {
            path: tier.meta_path.clone(),
            io: tier.io.clone(),
            records,
        })
    }

    /// Warm-restarts this shard from its slab: one sequential
    /// CRC-verifying scan of the file, then either the `.fpmeta` records
    /// (precise lifecycle stamps, dead entries pre-filtered, the store
    /// advanced to the recorded epoch) or — when there is no usable
    /// `.fpmeta` — a front-recoverable replay where later segments win
    /// SQL collisions. Restored entries come up *demoted* (RAM fills
    /// back up on access).
    pub(crate) fn recover_tier(&mut self) -> TierRecovery {
        let mut outcome = TierRecovery::default();
        let Some(tier) = self.tier.as_mut() else {
            return outcome;
        };
        let corrupt_before = tier.slab.corrupt_segments();
        let meta = std::fs::read(&tier.meta_path).ok();
        let kept = tier.slab.replay();
        let records = match meta.as_deref() {
            Some(data) if frame::has_header(data, META_MAGIC, SLAB_VERSION) => {
                let scan = frame::scan(data, frame::HEADER_LEN);
                outcome.corrupt += scan.corrupt;
                Some(scan.frames)
            }
            // Not ours (an older layout, or garbage): counted, and the
            // slab alone recovers.
            Some(_) => {
                outcome.corrupt += 1;
                None
            }
            None => None,
        };
        let mut restored = HashSet::new();
        match records {
            Some(records) => {
                let by_off: HashMap<u64, &(SegRef, Vec<u8>)> =
                    kept.iter().map(|pair| (pair.0.off, pair)).collect();
                for (_, record) in records {
                    let parsed = std::str::from_utf8(record)
                        .ok()
                        .and_then(|text| Element::parse(text).ok());
                    let Some(el) = parsed else {
                        outcome.corrupt += 1;
                        continue;
                    };
                    if el.name() == "Shard" {
                        // Written first, so entries below are judged
                        // against the recorded epoch.
                        outcome.epoch = el.attr("epoch").and_then(|v| v.parse().ok()).unwrap_or(0);
                        self.bump_epoch(outcome.epoch);
                        continue;
                    }
                    let loc = (
                        el.attr("off").and_then(|v| v.parse::<u64>().ok()),
                        el.attr("len").and_then(|v| v.parse::<u32>().ok()),
                    );
                    let (Some(off), Some(len)) = loc else {
                        outcome.corrupt += 1;
                        continue;
                    };
                    let Some((seg, payload)) = by_off.get(&off).filter(|(s, _)| s.len == len)
                    else {
                        // The segment the record points at did not
                        // survive the scan (damaged or torn).
                        outcome.corrupt += 1;
                        continue;
                    };
                    if self.restore_segment(*seg, payload, Some(&stamp_of(&el))) {
                        outcome.recovered += 1;
                    }
                    restored.insert(off);
                }
            }
            None => {
                // No usable metadata (first tier boot, or it was lost):
                // replay everything, later segments winning.
                for (seg, payload) in &kept {
                    if self.restore_segment(*seg, payload, None) {
                        outcome.recovered += 1;
                    }
                    restored.insert(seg.off);
                }
            }
        }
        // Segments nothing restored from are dead bytes now.
        for (seg, _) in &kept {
            if !restored.contains(&seg.off) {
                self.seg_dead(*seg, false);
            }
        }
        let tier = self.tier.as_mut().expect("checked above");
        outcome.corrupt += tier.slab.corrupt_segments() - corrupt_before;
        self.compact_slab();
        outcome
    }

    /// Restores one slab segment into the store, demoted, through the
    /// insert path. Returns `false` — after marking the segment dead —
    /// when the entry is damaged (counted corrupt), from an older epoch,
    /// already aged out, or its rows build no columnar form (a segment
    /// an older binary wrote for an entry it kept row-major: nothing
    /// could serve it from disk, and the cache no longer keeps such
    /// entries).
    fn restore_segment(
        &mut self,
        seg: SegRef,
        payload: &[u8],
        stamp_override: Option<&LifecycleStamp>,
    ) -> bool {
        let parsed = split_payload(payload).and_then(|(xml, rows)| entry_from_segment(xml, rows));
        let Some(SegmentEntry {
            residual_key,
            sql,
            region,
            result,
            truncated,
            coord_idx,
            stamp: embedded,
        }) = parsed
        else {
            self.seg_dead(seg, true);
            return false;
        };
        let stamp = stamp_override.unwrap_or(&embedded);
        let Some((inserted_at, expires_at)) = self.admit_restored(&residual_key, stamp) else {
            self.seg_dead(seg, false);
            return false;
        };
        let Some(form) = ColumnarRows::build(&result, &coord_idx) else {
            self.seg_dead(seg, false);
            return false;
        };
        let bytes = accounted_xml_bytes(&result, Some(&form));
        // A skeleton serves the rows from the slab: RAM fills back up on
        // access. The parsed tuples are dropped.
        let body = Body::Disk {
            skeleton: Arc::new(form.skeleton()),
        };
        let restored = self.insert_entry(Entry {
            id: 0,
            residual_key: Arc::from(residual_key),
            bbox: region.bounding_rect(),
            region,
            bytes,
            truncated,
            exact_sql: Arc::from(sql),
            epoch: stamp.epoch,
            inserted_at,
            expires_at,
            body,
            seg: Some(seg),
        });
        restored.is_some()
    }
}
