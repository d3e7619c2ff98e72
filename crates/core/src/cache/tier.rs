//! The disk tier: per-shard append-only slab files plus the
//! bookkeeping that turns the RAM store into the hot tier of a
//! two-level cache.
//!
//! # Why a tier
//!
//! The paper's cache-efficiency results are bounded by a RAM-resident
//! store; at SkyServer scale the long tail of sky regions cannot fit in
//! memory. The observation that makes a disk tier cheap here is that
//! PR 2's columnar form already splits every entry into exactly the two
//! halves a tiered store wants:
//!
//! - a small **skeleton** (coordinate columns, row spans, XML header,
//!   micro-index) that classification and contained-hit row selection
//!   need, and
//! - a large **row slab** (the pre-serialized XML bytes of every row)
//!   that serving needs but classification never touches.
//!
//! Demotion therefore writes the entry once to an append-only slab file
//! and keeps the skeleton resident: the residual-key groups, R-tree
//! descriptions, and micro-indexes never leave RAM, so `classify` works
//! unchanged over both tiers, and a demoted exact/contained hit is
//! served by splicing row bytes straight out of an `mmap` of the slab —
//! zero copies until the response buffer is assembled.
//!
//! # One record, two bodies
//!
//! A demoted entry is not a second kind of entry. The store keeps one
//! [`crate::cache::Entry`] per id whichever tier holds its rows: its
//! scalars (region, keys, lifecycle stamp) once, a
//! [`crate::cache::Body`] that is either `Ram` (the whole columnar
//! form, row slab included) or `Disk` (the form's `skeleton`, with an
//! empty row slab), and its own [`SegRef`] once it has been spilled.
//! Demotion and promotion switch the body in place. This module owns
//! only the files and their bookkeeping ([`EvictionManager`]: the slab,
//! demotion/promotion/compaction counters, degraded mode).
//!
//! # The cache's only on-disk form
//!
//! Persisting means attaching a tier: the paper's "Query Result Files"
//! (its Figure 4) are slab segments. Both files a shard owns are framed
//! by the one codec in `cache/frame.rs`:
//!
//! ```text
//! slab_<i>.fpslab  := "FPSLAB01" · version · frame(segment payload)*
//! segment payload  := xml_len u32 LE · entry XML · row slab bytes
//! shard_<i>.fpmeta := "FPMETA01" · version · frame(<Shard epoch/>) · frame(<SlabEntry/>)*
//! ```
//!
//! The entry XML is the self-describing `<CacheEntry>` document
//! (`cache/persist.rs`), so a segment alone rebuilds the full entry on
//! promotion or warm restart; the row slab sits at a known offset behind
//! it so the serve path slices rows without parsing anything. The
//! `.fpmeta` index (epoch, then each live entry's segment and lifecycle
//! stamp) refines a restart; without a usable one, bare slab replay
//! (later segments win) still recovers.
//!
//! # Crash safety
//!
//! Appends are only ever at the tail, so a crash mid-spill leaves at
//! most one torn segment, which the front-recoverable [`SlabFile::replay`]
//! detects by CRC and counts (`slab_corrupt_segments`) instead of
//! failing. Compaction and the `.fpmeta` writer both stage to a `.tmp`
//! file, fsync, and rename over the target — a crash at any point leaves
//! either the old file or the new one, never a mix. In-flight readers
//! keep serving from their `Arc`'d mapping of the pre-compaction inode.
//!
//! # No slab through the heap
//!
//! A shard's slab holds every answer it has demoted, so no write copies
//! it whole. A demotion appends the segment in two writes, a small head
//! (frame header, XML length, entry XML) and then the row slab borrowed
//! from the entry's form. Compaction copies live segments one at a time:
//! it `pread`s each frame into one reused buffer, checks its length and
//! CRC, and writes it to the staged file as it was.

use std::fs::{File, OpenOptions};
use std::io::{self, Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};
use std::time::Duration;

use fp_mmap::Mmap;

use crate::cache::frame::{self, crc32};

/// Leading magic bytes of every slab file.
pub const SLAB_MAGIC: &[u8; 8] = b"FPSLAB01";
/// Current slab format version; bumped on layout changes.
pub const SLAB_VERSION: u32 = 1;
/// Leading magic bytes of every `.fpmeta` file (same version).
pub(crate) const META_MAGIC: &[u8; 8] = b"FPMETA01";

const HEADER_LEN: u64 = frame::HEADER_LEN as u64;
const FRAME_LEN: u64 = frame::FRAME_LEN as u64;

/// Which tier file operation a fault applies to. The classes mirror the
/// distinct failure surfaces a real filesystem exposes: tail appends,
/// metadata snapshot writes, compaction staging, the compaction commit
/// rename, and durability barriers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IoOp {
    /// Slab segment appends (demotion spills and meta-pass spills).
    Append,
    /// `.fpmeta` warm-restart metadata writes (creating and filling the
    /// staged `.tmp`).
    MetaWrite,
    /// Compaction staging: creating and filling the `.tmp` file.
    CompactWrite,
    /// Compaction commit: the rename of the `.tmp` over the slab. A
    /// fault here models a crash after the staging write completed but
    /// before the commit — the classic torn-rename crash point.
    CompactRename,
    /// Durability barriers: the `sync_all` of every staged write
    /// (compaction and `.fpmeta` alike).
    Fsync,
}

const IO_OPS: usize = 5;

impl IoOp {
    fn idx(self) -> usize {
        match self {
            IoOp::Append => 0,
            IoOp::MetaWrite => 1,
            IoOp::CompactWrite => 2,
            IoOp::CompactRename => 3,
            IoOp::Fsync => 4,
        }
    }
}

/// The fault an armed operation suffers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IoFault {
    /// Generic I/O error (errno `EIO`).
    Eio,
    /// Out of space (errno `ENOSPC`).
    Enospc,
    /// A torn write: the first `n` bytes land on disk, then the write
    /// fails — what a crash or short `write(2)` mid-append leaves
    /// behind. Non-write operations treat this as `Eio`.
    Torn(usize),
}

impl IoFault {
    fn to_error(self) -> io::Error {
        match self {
            // Real errnos so callers can't tell injected faults from
            // the filesystem's own: EIO = 5, ENOSPC = 28.
            IoFault::Eio | IoFault::Torn(_) => io::Error::from_raw_os_error(5),
            IoFault::Enospc => io::Error::from_raw_os_error(28),
        }
    }
}

#[derive(Debug, Default)]
struct SlabIoState {
    /// Sticky fault per operation class (`None` = healthy).
    sticky: [Option<IoFault>; IO_OPS],
    /// Total faults actually delivered to an operation.
    injected: usize,
}

/// The storage fault-injection seam every tier file operation consults.
///
/// A `SlabIo` is a cheaply cloneable handle to shared fault state; the
/// default handle is a pass-through (no locks are even taken unless a
/// fault has ever been armed — the hot path stays one relaxed atomic
/// load). Torture harnesses clone the handle into [`TierConfig`] and
/// arm faults mid-run: `inject` makes an operation class fail stickily
/// until `heal`/`heal_all`.
#[derive(Debug, Clone, Default)]
pub struct SlabIo {
    state: Arc<SlabIoShared>,
}

#[derive(Debug, Default)]
struct SlabIoShared {
    /// Fast-path gate: set while any fault is armed.
    armed: std::sync::atomic::AtomicBool,
    state: Mutex<SlabIoState>,
}

impl PartialEq for SlabIo {
    fn eq(&self, other: &SlabIo) -> bool {
        Arc::ptr_eq(&self.state, &other.state)
    }
}

impl SlabIo {
    /// A pass-through seam (no faults armed).
    pub fn healthy() -> SlabIo {
        SlabIo::default()
    }

    /// Arms a sticky fault: every subsequent `op` fails with `fault`
    /// until healed.
    pub fn inject(&self, op: IoOp, fault: IoFault) {
        let mut s = self.state.state.lock().unwrap_or_else(|e| e.into_inner());
        s.sticky[op.idx()] = Some(fault);
        self.state
            .armed
            .store(true, std::sync::atomic::Ordering::Release);
    }

    /// Heals one operation class.
    pub fn heal(&self, op: IoOp) {
        let mut s = self.state.state.lock().unwrap_or_else(|e| e.into_inner());
        s.sticky[op.idx()] = None;
        if s.sticky.iter().all(Option::is_none) {
            self.state
                .armed
                .store(false, std::sync::atomic::Ordering::Release);
        }
    }

    /// Heals every operation class.
    pub fn heal_all(&self) {
        let mut s = self.state.state.lock().unwrap_or_else(|e| e.into_inner());
        s.sticky = [None; IO_OPS];
        self.state
            .armed
            .store(false, std::sync::atomic::Ordering::Release);
    }

    /// Total faults delivered so far (for harness assertions).
    pub fn faults_injected(&self) -> usize {
        self.state
            .state
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .injected
    }

    /// The fault armed for a write-class `op`, if any (and counts it
    /// delivered). Write paths call this so a [`IoFault::Torn`] can
    /// land its partial bytes before failing.
    fn write_fault(&self, op: IoOp) -> Option<IoFault> {
        if !self.state.armed.load(std::sync::atomic::Ordering::Acquire) {
            return None;
        }
        let mut s = self.state.state.lock().unwrap_or_else(|e| e.into_inner());
        let fault = s.sticky[op.idx()];
        if fault.is_some() {
            s.injected += 1;
        }
        fault
    }

    /// Fails `op` if a fault is armed for it (whole-step operations:
    /// staging, renames, fsyncs).
    pub(crate) fn check(&self, op: IoOp) -> io::Result<()> {
        match self.write_fault(op) {
            Some(fault) => Err(fault.to_error()),
            None => Ok(()),
        }
    }
}

/// Configuration for the disk tier — and so for persistence: the tier
/// is the only thing the cache writes to disk.
#[derive(Debug, Clone, PartialEq)]
pub struct TierConfig {
    /// Directory holding the per-shard `slab_<i>.fpslab` files and the
    /// `shard_<i>.fpmeta` warm-restart metadata.
    pub dir: PathBuf,
    /// Compact a shard's slab when at least this fraction of its
    /// payload bytes belong to removed entries (dead ÷ (live + dead)).
    pub compact_ratio: f64,
    /// Minimum virtual time between scheduled `.fpmeta` passes, checked
    /// opportunistically at the end of each served request (no timer
    /// thread, so the schedule is deterministic under a mock clock).
    /// `None` = only `ProxyHandle::snapshot_now` writes it.
    pub meta_interval: Option<Duration>,
    /// The storage fault-injection seam every file operation of this
    /// tier consults; pass-through unless a harness armed it.
    pub io: SlabIo,
}

impl TierConfig {
    /// A tier rooted at `dir` with the default compaction trigger
    /// (half the file dead) and no metadata schedule.
    pub fn new(dir: impl Into<PathBuf>) -> TierConfig {
        TierConfig {
            dir: dir.into(),
            compact_ratio: 0.5,
            meta_interval: None,
            io: SlabIo::healthy(),
        }
    }

    /// Overrides the dead-byte fraction that triggers compaction.
    pub fn with_compact_ratio(mut self, ratio: f64) -> TierConfig {
        self.compact_ratio = ratio.clamp(0.01, 1.0);
        self
    }

    /// Writes the `.fpmeta` files every `interval` as well as on
    /// demand.
    pub fn with_meta_interval(mut self, interval: Duration) -> TierConfig {
        self.meta_interval = Some(interval);
        self
    }

    /// Shares a fault-injection seam with the tier (torture harnesses
    /// keep a clone to arm faults mid-run).
    pub fn with_io(mut self, io: SlabIo) -> TierConfig {
        self.io = io;
        self
    }

    /// Path of shard `i`'s slab file.
    pub fn slab_path(&self, shard: usize) -> PathBuf {
        self.dir.join(format!("slab_{shard}.fpslab"))
    }

    /// Path of shard `i`'s warm-restart metadata.
    pub fn meta_path(&self, shard: usize) -> PathBuf {
        self.dir.join(format!("shard_{shard}.fpmeta"))
    }
}

/// Location of one segment's payload inside a slab file.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SegRef {
    /// Byte offset of the payload (just past the len/crc frame).
    pub off: u64,
    /// Payload length in bytes.
    pub len: u32,
}

/// Builds a segment payload from an entry's XML header and its raw
/// row-slab bytes.
pub fn encode_payload(xml: &[u8], row_slab: &[u8]) -> Vec<u8> {
    let mut payload = Vec::with_capacity(4 + xml.len() + row_slab.len());
    payload.extend_from_slice(&(xml.len() as u32).to_le_bytes());
    payload.extend_from_slice(xml);
    payload.extend_from_slice(row_slab);
    payload
}

/// Splits a segment payload back into (entry XML, row slab); `None`
/// when the XML length runs past the payload.
pub(crate) fn split_payload(payload: &[u8]) -> Option<(&[u8], &[u8])> {
    let xml_len = u32::from_le_bytes(payload.get(..4)?.try_into().expect("4 bytes")) as usize;
    let rest = &payload[4..];
    (xml_len <= rest.len()).then(|| rest.split_at(xml_len))
}

#[derive(Debug, Clone)]
enum SliceSrc {
    /// A window into a shared mapping of the slab file. Holding the
    /// `Arc` keeps the mapping (and, across compaction renames, the old
    /// inode) alive for as long as any reader needs it.
    Mapped {
        map: Arc<Mmap>,
        off: usize,
        len: usize,
    },
    /// Fallback when mapping fails (e.g. a filesystem without mmap):
    /// the payload is read into a buffer instead, shared like the
    /// mapping is.
    Owned(Arc<Vec<u8>>),
}

/// A zero-copy view of one segment's payload, safe to carry outside the
/// shard lock: the bytes live in the page cache (or an owned buffer),
/// not in the store. Cloning shares them. As a byte buffer
/// (`AsRef<[u8]>`) the view is its [`SlabSlice::row_slab`] — what a
/// served document borrows ranges of.
#[derive(Debug, Clone)]
pub struct SlabSlice {
    src: SliceSrc,
    xml_len: usize,
}

impl SlabSlice {
    fn new(src: SliceSrc) -> Option<SlabSlice> {
        let bytes = match &src {
            SliceSrc::Mapped { map, off, len } => &map.as_slice()[*off..*off + *len],
            SliceSrc::Owned(buf) => &buf[..],
        };
        let xml_len = split_payload(bytes)?.0.len();
        Some(SlabSlice { src, xml_len })
    }

    /// The whole segment payload.
    pub fn payload(&self) -> &[u8] {
        match &self.src {
            SliceSrc::Mapped { map, off, len } => &map.as_slice()[*off..*off + *len],
            SliceSrc::Owned(buf) => buf,
        }
    }

    /// The entry's `<CacheEntry>` XML header (see `cache/persist.rs`).
    pub fn xml(&self) -> &[u8] {
        &self.payload()[4..4 + self.xml_len]
    }

    /// The entry's raw row-slab bytes (pre-serialized XML rows), ready
    /// to be lent to the skeleton's documents (`SlabDoc::over`).
    pub fn row_slab(&self) -> &[u8] {
        &self.payload()[4 + self.xml_len..]
    }
}

impl AsRef<[u8]> for SlabSlice {
    fn as_ref(&self) -> &[u8] {
        self.row_slab()
    }
}

/// One shard's append-only slab file plus its read-side mapping.
#[derive(Debug)]
pub struct SlabFile {
    path: PathBuf,
    file: File,
    /// Current file length (we track it ourselves; the file is only
    /// ever appended through this handle).
    len: u64,
    map: Option<Arc<Mmap>>,
    live_bytes: u64,
    dead_bytes: u64,
    corrupt_segments: usize,
    io: SlabIo,
}

impl SlabFile {
    /// Opens (or creates) a slab file, validating the header. A file
    /// shorter than the header is re-initialized (counted as corrupt if
    /// non-empty); a wrong magic or version is an error — the caller
    /// should treat the file as not ours and run untiered rather than
    /// overwrite it.
    pub fn open(path: impl Into<PathBuf>) -> io::Result<SlabFile> {
        Self::open_with(path, SlabIo::healthy())
    }

    /// [`SlabFile::open`] with a fault-injection seam. Also sweeps up a
    /// stale compaction `.tmp` left by a crash between the staging
    /// write and the commit rename — the original slab is authoritative
    /// and recovers by bare replay.
    pub fn open_with(path: impl Into<PathBuf>, io: SlabIo) -> io::Result<SlabFile> {
        let path = path.into();
        let _ = std::fs::remove_file(frame::staging_path(&path));
        let mut file = OpenOptions::new()
            .read(true)
            .append(true)
            .create(true)
            .open(&path)?;
        let mut len = file.metadata()?.len();
        let mut corrupt_segments = 0;
        if len < HEADER_LEN {
            if len > 0 {
                corrupt_segments += 1; // torn header from a mid-create crash
                file.set_len(0)?;
            }
            file.write_all(&frame::header(SLAB_MAGIC, SLAB_VERSION))?;
            file.sync_data()?;
            len = HEADER_LEN;
        } else {
            let mut head = [0u8; frame::HEADER_LEN];
            file.seek(SeekFrom::Start(0))?;
            file.read_exact(&mut head)?;
            if !frame::has_header(&head, SLAB_MAGIC, SLAB_VERSION) {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    "not a slab file (bad magic or version)",
                ));
            }
        }
        Ok(SlabFile {
            path,
            file,
            len,
            map: None,
            live_bytes: 0,
            dead_bytes: 0,
            corrupt_segments,
            io,
        })
    }

    /// Appends one framed segment and returns where its payload landed.
    ///
    /// A failed append never leaves torn bytes behind: whatever prefix
    /// of the frame landed before the error is truncated away, so the
    /// tail stays on a valid frame boundary and later appends (or the
    /// next replay) see a clean stream.
    pub fn append(&mut self, payload: &[u8]) -> io::Result<SegRef> {
        self.append_parts(&[], payload)
    }

    /// [`Self::append`] of [`encode_payload`]`(xml, row_slab)`, written
    /// without building it: the row slab goes to the file from where
    /// it lies.
    pub(crate) fn append_segment(&mut self, xml: &[u8], row_slab: &[u8]) -> io::Result<SegRef> {
        self.append_parts(&[&(xml.len() as u32).to_le_bytes(), xml], row_slab)
    }

    /// Appends the frame whose payload is the `head` parts followed by
    /// `body`, in at most two writes: a small buffer holding the frame
    /// header and the head parts, then `body` as borrowed. The CRC runs
    /// across the parts.
    fn append_parts(&mut self, head: &[&[u8]], body: &[u8]) -> io::Result<SegRef> {
        let head_len: usize = head.iter().map(|part| part.len()).sum();
        let len = frame::payload_len(head_len + body.len())?;
        let crc = frame::crc32_parts(head.iter().copied().chain([body]));
        let mut first = Vec::with_capacity(frame::FRAME_LEN + head_len);
        first.extend_from_slice(&frame::frame_header(len, crc));
        for part in head {
            first.extend_from_slice(part);
        }
        if let Err(e) = self.write_frame(&first, body) {
            let _ = self.file.set_len(self.len);
            return Err(e);
        }
        let seg = SegRef {
            off: self.len + FRAME_LEN,
            len,
        };
        self.len += FRAME_LEN + u64::from(len);
        self.live_bytes += u64::from(len);
        Ok(seg)
    }

    /// One frame write (`head` then `body`) through the fault seam: a
    /// [`IoFault::Torn`] lands the first bytes of the frame before
    /// failing, exactly what a crash mid-`write(2)` leaves on disk.
    fn write_frame(&mut self, head: &[u8], body: &[u8]) -> io::Result<()> {
        match self.io.write_fault(IoOp::Append) {
            None => {
                self.file.write_all(head)?;
                self.file.write_all(body)
            }
            Some(IoFault::Torn(n)) => {
                let in_head = n.min(head.len());
                self.file.write_all(&head[..in_head])?;
                self.file
                    .write_all(&body[..(n - in_head).min(body.len())])?;
                Err(IoFault::Eio.to_error())
            }
            Some(fault) => Err(fault.to_error()),
        }
    }

    /// A zero-copy view of `seg`'s payload, remapping if the current
    /// mapping is too short (the file has grown since). Returns `None`
    /// if the ref is out of bounds or the payload framing is invalid.
    pub fn slice(&mut self, seg: SegRef) -> Option<SlabSlice> {
        let end = seg.off.checked_add(u64::from(seg.len))?;
        if end > self.len {
            return None;
        }
        let need = end as usize;
        if self.map.as_ref().map_or(0, |m| m.len()) < need {
            match Mmap::map(&self.file, self.len as usize) {
                Ok(map) => self.map = Some(Arc::new(map)),
                Err(_) => {
                    // No mapping available; fall back to an owned read.
                    let mut buf = vec![0u8; seg.len as usize];
                    self.read_exact_at(&mut buf, seg.off).ok()?;
                    return SlabSlice::new(SliceSrc::Owned(Arc::new(buf)));
                }
            }
        }
        let map = Arc::clone(self.map.as_ref().expect("mapped above"));
        SlabSlice::new(SliceSrc::Mapped {
            map,
            off: seg.off as usize,
            len: seg.len as usize,
        })
    }

    fn read_exact_at(&self, buf: &mut [u8], off: u64) -> io::Result<()> {
        use std::os::unix::fs::FileExt;
        self.file.read_exact_at(buf, off)
    }

    /// Reads and CRC-verifies one segment's payload, through `pread`
    /// rather than the mapping.
    pub fn read_segment(&self, seg: SegRef) -> io::Result<Vec<u8>> {
        let mut framed = vec![0u8; frame::FRAME_LEN + seg.len as usize];
        self.read_frame(seg, &mut framed)?;
        framed.drain(..frame::FRAME_LEN);
        Ok(framed)
    }

    /// Reads `seg`'s whole frame (header, then payload) into `framed`,
    /// which is `FRAME_LEN + seg.len` bytes long, and checks the header's
    /// length and CRC against it. `pread`, not the mapping: compaction
    /// must not trust the page cache, and mapped pages count in the
    /// process's resident set.
    fn read_frame(&self, seg: SegRef, framed: &mut [u8]) -> io::Result<()> {
        self.read_exact_at(framed, seg.off - FRAME_LEN)?;
        let (head, payload) = framed.split_at(frame::FRAME_LEN);
        let (len, want_crc) = frame::frame_head(head.try_into().expect("FRAME_LEN bytes"));
        if len != seg.len {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                "segment length mismatch",
            ));
        }
        if crc32(payload) != want_crc {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                "segment crc mismatch",
            ));
        }
        Ok(())
    }

    /// Front-recoverable scan of the whole file: yields every intact
    /// segment in append order, counts damaged ones (bad CRC keeps the
    /// stream aligned and is skipped; a torn tail — whether the crash
    /// cut the *payload* or the 8-byte *length/CRC frame header* itself
    /// — stops the scan), and resets the live/dead accounting to
    /// "everything intact is live".
    ///
    /// A torn tail is also **healed**: the file is truncated back to
    /// the last intact frame boundary, so segments appended after
    /// recovery land on a valid boundary instead of being orphaned
    /// behind the tear (where the *next* replay's scan would stop
    /// before ever reaching them).
    pub fn replay(&mut self) -> Vec<(SegRef, Vec<u8>)> {
        let data = match std::fs::read(&self.path) {
            Ok(data) => data,
            Err(_) => return Vec::new(),
        };
        let scan = frame::scan(&data, frame::HEADER_LEN);
        self.corrupt_segments += scan.corrupt;
        let mut live = 0u64;
        let out: Vec<(SegRef, Vec<u8>)> = scan
            .frames
            .iter()
            .map(|&(off, payload)| {
                // A frame's length came out of a u32 field.
                let len = payload.len() as u32;
                live += u64::from(len);
                (
                    SegRef {
                        off: off as u64,
                        len,
                    },
                    payload.to_vec(),
                )
            })
            .collect();
        if let Some(tear) = scan.torn_at {
            // Heal: drop the torn bytes so future appends extend a
            // valid stream. Best-effort — if the truncate fails the
            // file is no worse than before. The mapping is dropped
            // because it may cover the truncated range.
            if self.file.set_len(tear as u64).is_ok() {
                self.len = tear as u64;
                self.map = None;
            }
        }
        self.live_bytes = live;
        self.dead_bytes = 0;
        out
    }

    /// Marks a segment's payload bytes dead (its entry was removed or
    /// superseded); compaction reclaims them.
    pub fn mark_dead(&mut self, seg: SegRef) {
        let len = u64::from(seg.len);
        self.live_bytes = self.live_bytes.saturating_sub(len);
        self.dead_bytes += len;
    }

    /// Whether the dead-byte fraction has crossed the compaction
    /// trigger.
    pub fn needs_compact(&self, ratio: f64) -> bool {
        let total = self.live_bytes + self.dead_bytes;
        self.dead_bytes > 0 && total > 0 && self.dead_bytes as f64 >= ratio * total as f64
    }

    /// Rewrites the slab keeping only `live` segments, in their order,
    /// atomically (stage to `.tmp`, fsync, rename). Segments are copied
    /// one at a time through one reused buffer: each frame is read,
    /// checked and written back as it was. Returns the relocated refs
    /// and how many live segments had to be dropped as unreadable.
    ///
    /// On an error the old file is left untouched and the old refs
    /// remain valid. The rename over the slab is the last step that can
    /// fail; after it the staged file's own handle becomes the slab's.
    pub fn compact(&mut self, live: &[(u64, SegRef)]) -> io::Result<(Vec<(u64, SegRef)>, usize)> {
        let largest = live.iter().map(|(_, seg)| seg.len as usize).max();
        let mut buf = vec![0u8; frame::FRAME_LEN + largest.unwrap_or(0)];
        let mut new_refs = Vec::with_capacity(live.len());
        let mut dropped = 0;
        let mut live_bytes = 0u64;
        // The torn-rename crash point: with a `CompactRename` fault the
        // staged `.tmp` is complete on disk but the commit never
        // happens — the old slab stays authoritative, exactly like a
        // crash here would leave things.
        let (file, len) = frame::write_staged(
            &self.path,
            &self.io,
            IoOp::CompactWrite,
            Some(IoOp::CompactRename),
            |out| {
                out.write_all(&frame::header(SLAB_MAGIC, SLAB_VERSION))?;
                let mut len = HEADER_LEN;
                for &(id, seg) in live {
                    let framed = &mut buf[..frame::FRAME_LEN + seg.len as usize];
                    if self.read_frame(seg, framed).is_err() {
                        dropped += 1; // unreadable live segment: entry is lost
                        continue;
                    }
                    out.write_all(framed)?;
                    new_refs.push((
                        id,
                        SegRef {
                            off: len + FRAME_LEN,
                            len: seg.len,
                        },
                    ));
                    live_bytes += u64::from(seg.len);
                    len += framed.len() as u64;
                }
                Ok(len)
            },
        )?;
        self.file = file;
        self.len = len;
        // Old mappings stay alive through their Arcs (readers mid-serve
        // keep the pre-compaction inode pinned); new slices remap.
        self.map = None;
        self.live_bytes = live_bytes;
        self.dead_bytes = 0;
        self.corrupt_segments += dropped;
        Ok((new_refs, dropped))
    }

    /// Total file size in bytes (header + frames + payloads).
    pub fn bytes(&self) -> u64 {
        self.len
    }

    /// Payload bytes belonging to live entries.
    pub fn live_bytes(&self) -> u64 {
        self.live_bytes
    }

    /// Payload bytes belonging to removed entries, reclaimable by
    /// compaction.
    pub fn dead_bytes(&self) -> u64 {
        self.dead_bytes
    }

    /// Segments found damaged (bad CRC, torn tail) or dropped during
    /// compaction — counted, never fatal.
    pub fn corrupt_segments(&self) -> usize {
        self.corrupt_segments
    }

    /// Records a segment found damaged by a reader (e.g. a promotion
    /// parse failure).
    pub fn note_corrupt(&mut self) {
        self.corrupt_segments += 1;
    }

    /// The file's path.
    pub fn path(&self) -> &Path {
        &self.path
    }
}

/// Per-shard tier state: the slab file and its demotion, promotion,
/// compaction and fault bookkeeping. Owned by `CacheStore`, whose
/// entries record their own slab segments; the store drives demotion
/// from its budget loop and promotion from the runtime's background
/// parse.
#[derive(Debug)]
pub struct EvictionManager {
    pub(crate) compact_ratio: f64,
    /// Where this shard's warm-restart metadata snapshot lives.
    pub(crate) meta_path: PathBuf,
    pub(crate) slab: SlabFile,
    pub(crate) demotions: usize,
    pub(crate) promotions: usize,
    pub(crate) compactions: usize,
    /// The fault seam, shared with the slab (and handed to the `.fpmeta`
    /// writer, which stages its own file).
    pub(crate) io: SlabIo,
    /// `true` while the tier is in eviction-only degraded mode: slab
    /// appends have been failing (EIO/ENOSPC), so demotion is skipped —
    /// entries fall back to plain eviction, which is never
    /// client-visible — until a periodic re-probe append succeeds.
    pub(crate) degraded: bool,
    /// Demote attempts skipped since the last degraded-mode re-probe.
    pub(crate) skipped_since_probe: usize,
    /// Times the tier entered degraded mode (monotone).
    pub(crate) degrade_events: usize,
    /// Times a re-probe append succeeded and the tier left degraded
    /// mode (monotone).
    pub(crate) recoveries: usize,
    /// Slab I/O errors observed (appends and compactions; injected or
    /// real).
    pub(crate) io_errors: usize,
}

/// How many demote attempts degraded mode skips between re-probe
/// appends. Attempt-counted rather than timed so torture replays stay
/// deterministic under a virtual clock.
pub(crate) const DEGRADED_REPROBE_AFTER: usize = 8;

impl EvictionManager {
    /// Opens shard `i`'s slab under the tier directory (creating both
    /// as needed).
    pub fn open(config: &TierConfig, shard: usize) -> io::Result<EvictionManager> {
        std::fs::create_dir_all(&config.dir)?;
        let slab = SlabFile::open_with(config.slab_path(shard), config.io.clone())?;
        Ok(EvictionManager {
            compact_ratio: config.compact_ratio,
            meta_path: config.meta_path(shard),
            slab,
            demotions: 0,
            promotions: 0,
            compactions: 0,
            io: config.io.clone(),
            degraded: false,
            skipped_since_probe: 0,
            degrade_events: 0,
            recoveries: 0,
            io_errors: 0,
        })
    }

    /// Whether a slab append should be attempted right now. Healthy:
    /// always. Degraded: skip (the caller evicts instead), except every
    /// [`DEGRADED_REPROBE_AFTER`]th attempt, which goes through as the
    /// re-probe that detects the disk recovering.
    pub(crate) fn admit_append(&mut self) -> bool {
        if !self.degraded {
            return true;
        }
        self.skipped_since_probe += 1;
        if self.skipped_since_probe >= DEGRADED_REPROBE_AFTER {
            self.skipped_since_probe = 0;
            return true;
        }
        false
    }

    /// Records a successful slab append; a success while degraded is
    /// the re-probe landing, so the tier resumes demotion.
    pub(crate) fn note_append_ok(&mut self) {
        if self.degraded {
            self.degraded = false;
            self.skipped_since_probe = 0;
            self.recoveries += 1;
        }
    }

    /// Records a failed slab append and enters eviction-only degraded
    /// mode. Never client-visible: the caller falls back to eviction
    /// and the entry is simply refetched from origin on its next miss.
    pub(crate) fn note_append_err(&mut self) {
        self.io_errors += 1;
        if !self.degraded {
            self.degraded = true;
            self.skipped_since_probe = 0;
            self.degrade_events += 1;
        }
    }

    /// Rewrites the slab keeping only the `live` segments. Returns where
    /// each one landed (an unreadable one is missing: its entry is
    /// lost), or `None` when the rewrite failed — not fatal: the old
    /// file and segments stay valid, and the next trigger retries.
    pub(crate) fn compact(&mut self, live: &[(u64, SegRef)]) -> Option<Vec<(u64, SegRef)>> {
        match self.slab.compact(live) {
            Ok((moved, _dropped)) => {
                self.compactions += 1;
                Some(moved)
            }
            Err(_) => {
                self.io_errors += 1;
                None
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_dir(name: &str) -> PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("fp_tier_test_{}_{}", std::process::id(), name));
        std::fs::create_dir_all(&p).unwrap();
        p
    }

    fn payload(i: u8, rows: usize) -> Vec<u8> {
        let xml = format!("<CacheEntry n=\"{i}\"/>");
        let slab: Vec<u8> = (0..rows).map(|r| (r as u8).wrapping_mul(i)).collect();
        encode_payload(xml.as_bytes(), &slab)
    }

    #[test]
    fn append_then_slice_round_trips_via_mmap() {
        let dir = temp_dir("roundtrip");
        let mut slab = SlabFile::open(dir.join("slab_0.fpslab")).unwrap();
        let p1 = payload(1, 300);
        let p2 = payload(2, 4500);
        let s1 = slab.append(&p1).unwrap();
        let s2 = slab.append(&p2).unwrap();

        let v1 = slab.slice(s1).unwrap();
        let v2 = slab.slice(s2).unwrap();
        assert_eq!(v1.payload(), &p1[..]);
        assert_eq!(v2.payload(), &p2[..]);
        assert_eq!(v1.xml(), b"<CacheEntry n=\"1\"/>");
        assert_eq!(v2.row_slab().len(), 4500);
        // CRC-verified reads agree with the mapped view.
        assert_eq!(slab.read_segment(s2).unwrap(), p2);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn slice_remaps_after_growth() {
        let dir = temp_dir("growth");
        let mut slab = SlabFile::open(dir.join("slab_0.fpslab")).unwrap();
        let s1 = slab.append(&payload(1, 100)).unwrap();
        let _early = slab.slice(s1).unwrap(); // maps the short prefix
        let p2 = payload(2, 5000);
        let s2 = slab.append(&p2).unwrap();
        let late = slab.slice(s2).unwrap(); // must remap to cover s2
        assert_eq!(late.payload(), &p2[..]);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// Replay is the codec's scan over the file (what counts as a bad
    /// CRC or a torn tail is pinned in `frame`): intact segments come
    /// back with their refs, damage is counted, and a tail torn inside a
    /// frame header is healed, so the next append lands on a frame
    /// boundary and the next replay reaches it instead of stopping at
    /// the (formerly orphaning) tear.
    #[test]
    fn replay_counts_damage_and_heals_a_torn_tail() {
        let dir = temp_dir("replay");
        let path = dir.join("slab_0.fpslab");
        let mut slab = SlabFile::open(&path).unwrap();
        let p1 = payload(1, 64);
        let a = slab.append(&p1).unwrap();
        let mid = slab.append(&payload(2, 64)).unwrap();
        let p3 = payload(3, 64);
        let c = slab.append(&p3).unwrap();
        let torn = slab.append(&payload(4, 64)).unwrap();
        drop(slab);

        let tear = torn.off - FRAME_LEN;
        let mut raw = std::fs::read(&path).unwrap();
        raw[mid.off as usize + 2] ^= 0xFF; // damage segment 2's payload
        raw.truncate(tear as usize + 3); // 3 bytes of segment 4's header survive
        std::fs::write(&path, &raw).unwrap();

        let mut slab = SlabFile::open(&path).unwrap();
        assert_eq!(slab.replay(), vec![(a, p1.clone()), (c, p3.clone())]);
        assert_eq!(slab.corrupt_segments(), 2); // bad crc + torn tail
        assert_eq!(slab.bytes(), tear, "healed back to the last frame");
        let p5 = payload(5, 64);
        let e = slab.append(&p5).unwrap();
        assert_eq!(slab.read_segment(e).unwrap(), p5);
        drop(slab);

        let mut slab = SlabFile::open(&path).unwrap();
        assert_eq!(slab.replay(), vec![(a, p1), (c, p3), (e, p5)]);
        assert_eq!(slab.corrupt_segments(), 1, "only the bad CRC remains");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn compact_keeps_live_segments_and_resets_dead_bytes() {
        let dir = temp_dir("compact");
        let mut slab = SlabFile::open(dir.join("slab_0.fpslab")).unwrap();
        let p1 = payload(1, 2000);
        let p2 = payload(2, 2000);
        let p3 = payload(3, 2000);
        let s1 = slab.append(&p1).unwrap();
        let s2 = slab.append(&p2).unwrap();
        let s3 = slab.append(&p3).unwrap();
        let before = slab.bytes();

        // Readers holding slices across compaction keep working.
        let pinned = slab.slice(s1).unwrap();

        slab.mark_dead(s2);
        assert!(!slab.needs_compact(0.5));
        slab.mark_dead(s1);
        assert!(slab.needs_compact(0.5));

        let (new_refs, dropped) = slab.compact(&[(3, s3)]).unwrap();
        assert_eq!(dropped, 0);
        assert_eq!(new_refs.len(), 1);
        assert!(slab.bytes() < before);
        assert_eq!(slab.dead_bytes(), 0);
        let v3 = slab.slice(new_refs[0].1).unwrap();
        assert_eq!(v3.payload(), &p3[..]);
        // The pre-compaction mapping still serves the old bytes.
        assert_eq!(pinned.payload(), &p1[..]);
        // Appends after compaction extend the compacted file.
        let p4 = payload(4, 100);
        let s4 = slab.append(&p4).unwrap();
        drop(slab);
        let mut slab = SlabFile::open(dir.join("slab_0.fpslab")).unwrap();
        assert_eq!(slab.replay(), vec![(new_refs[0].1, p3), (s4, p4)]);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// A segment appended by parts (header, then the row slab where it
    /// lies) is byte for byte the segment `append` writes, and a torn
    /// write anywhere in it, in the head or in the row slab, leaves no
    /// tail.
    #[test]
    fn append_segment_writes_what_append_writes_and_tears_cleanly() {
        let dir = temp_dir("by_parts");
        let (xml, rows) = (&b"<CacheEntry n=\"9\"/>"[..], vec![7u8; 5000]);
        let whole = dir.join("whole.fpslab");
        let parts = dir.join("parts.fpslab");
        let io = SlabIo::healthy();
        let mut a = SlabFile::open(&whole).unwrap();
        let mut b = SlabFile::open_with(&parts, io.clone()).unwrap();
        for row_slab in [&rows[..], &[][..]] {
            let sa = a.append(&encode_payload(xml, row_slab)).unwrap();
            let sb = b.append_segment(xml, row_slab).unwrap();
            assert_eq!(sa, sb);
        }
        assert_eq!(
            std::fs::read(&whole).unwrap(),
            std::fs::read(&parts).unwrap()
        );

        let clean_len = b.bytes();
        let head_len = frame::FRAME_LEN + 4 + xml.len();
        for n in [3, head_len - 1, head_len, head_len + 100, usize::MAX] {
            io.inject(IoOp::Append, IoFault::Torn(n));
            let err = b.append_segment(xml, &rows).unwrap_err();
            assert_eq!(err.raw_os_error(), Some(5), "torn at {n}");
            assert_eq!(std::fs::metadata(&parts).unwrap().len(), clean_len);
        }
        io.heal_all();
        let seg = b.append_segment(xml, &rows).unwrap();
        assert_eq!(b.read_segment(seg).unwrap(), encode_payload(xml, &rows));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// A slice lent to a served document: as a buffer it is the row
    /// slab, a clone shares the bytes (mapped or read), and the bytes
    /// outlive the slab file and its directory.
    #[test]
    fn a_lent_slice_shares_its_bytes_and_outlives_the_file() {
        let dir = temp_dir("lent");
        let mut slab = SlabFile::open(dir.join("slab_0.fpslab")).unwrap();
        let p = payload(7, 3000);
        let seg = slab.append(&p).unwrap();
        let mapped = slab.slice(seg).unwrap();
        let read = SlabSlice::new(SliceSrc::Owned(Arc::new(p.clone()))).unwrap();
        drop(slab);
        std::fs::remove_dir_all(&dir).unwrap();
        for slice in [mapped, read] {
            let lent: Arc<dyn AsRef<[u8]> + Send + Sync> = Arc::new(slice.clone());
            assert_eq!((*lent).as_ref(), slice.row_slab());
            assert_eq!((*lent).as_ref(), &p[p.len() - 3000..]);
            assert!(
                std::ptr::eq((*lent).as_ref(), slice.row_slab()),
                "a clone is a second view, not a second copy"
            );
        }
    }

    #[test]
    fn injected_append_faults_fail_with_real_errnos_and_leave_no_tail() {
        let dir = temp_dir("io_faults");
        let path = dir.join("slab_0.fpslab");
        let io = SlabIo::healthy();
        let mut slab = SlabFile::open_with(&path, io.clone()).unwrap();
        let p1 = payload(1, 128);
        let s1 = slab.append(&p1).unwrap();
        let clean_len = slab.bytes();

        io.inject(IoOp::Append, IoFault::Enospc);
        let err = slab.append(&payload(2, 128)).unwrap_err();
        assert_eq!(err.raw_os_error(), Some(28));
        assert_eq!(slab.bytes(), clean_len, "ENOSPC left bytes behind");

        // A torn write lands partial bytes; the self-heal truncates
        // them back off so the on-disk stream stays frame-aligned.
        io.inject(IoOp::Append, IoFault::Torn(5));
        let err = slab.append(&payload(3, 128)).unwrap_err();
        assert_eq!(err.raw_os_error(), Some(5));
        assert_eq!(slab.bytes(), clean_len);
        assert_eq!(std::fs::metadata(&path).unwrap().len(), clean_len);
        assert_eq!(io.faults_injected(), 2);

        // Healed: appends work again and nothing was corrupted.
        io.heal_all();
        let p4 = payload(4, 128);
        let s4 = slab.append(&p4).unwrap();
        assert_eq!(slab.read_segment(s1).unwrap(), p1);
        assert_eq!(slab.read_segment(s4).unwrap(), p4);
        drop(slab);
        let mut slab = SlabFile::open_with(&path, SlabIo::healthy()).unwrap();
        assert_eq!(slab.replay().len(), 2);
        assert_eq!(slab.corrupt_segments(), 0);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// Satellite: the torn-rename crash point. A fault between the
    /// staging write and the rename leaves a *complete* `.tmp` next to
    /// the untouched slab — recovery must sweep the tmp, replay the
    /// bare slab with zero entry loss, and count zero corruption (a
    /// failed compaction is not damage, and must not double-count).
    #[test]
    fn torn_rename_crash_point_loses_nothing_and_counts_nothing() {
        let dir = temp_dir("torn_rename");
        let path = dir.join("slab_0.fpslab");
        let io = SlabIo::healthy();
        let mut slab = SlabFile::open_with(&path, io.clone()).unwrap();
        let p1 = payload(1, 900);
        let p2 = payload(2, 900);
        let p3 = payload(3, 900);
        let s1 = slab.append(&p1).unwrap();
        let s2 = slab.append(&p2).unwrap();
        let s3 = slab.append(&p3).unwrap();
        slab.mark_dead(s1);
        slab.mark_dead(s2);

        io.inject(IoOp::CompactRename, IoFault::Eio);
        let err = slab.compact(&[(3, s3)]).unwrap_err();
        assert_eq!(err.raw_os_error(), Some(5));
        let tmp = path.with_extension("fpslab.tmp");
        assert!(tmp.exists(), "staging completed before the crash point");
        // The old slab stays authoritative: the old ref still reads.
        assert_eq!(slab.read_segment(s3).unwrap(), p3);
        assert_eq!(
            slab.corrupt_segments(),
            0,
            "a failed compaction is not corruption"
        );

        // "Crash" and restart: reopen sweeps the stale tmp; the bare
        // replay recovers every intact segment.
        drop(slab);
        let mut slab = SlabFile::open_with(&path, SlabIo::healthy()).unwrap();
        assert!(!tmp.exists(), "stale staging file swept at open");
        let kept = slab.replay();
        assert_eq!(kept.len(), 3, "entry loss across the crash point");
        assert_eq!(kept[2].1, p3);
        assert_eq!(slab.corrupt_segments(), 0, "double-counted corruption");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn compact_staging_and_fsync_faults_leave_the_old_slab_authoritative() {
        let dir = temp_dir("compact_faults");
        let io = SlabIo::healthy();
        let mut slab = SlabFile::open_with(dir.join("slab_0.fpslab"), io.clone()).unwrap();
        let p = payload(7, 600);
        let s = slab.append(&p).unwrap();

        for fault_op in [IoOp::CompactWrite, IoOp::Fsync] {
            io.inject(fault_op, IoFault::Enospc);
            let err = slab.compact(&[(7, s)]).unwrap_err();
            assert_eq!(err.raw_os_error(), Some(28));
            assert_eq!(slab.read_segment(s).unwrap(), p, "{fault_op:?}");
            io.heal_all();
        }
        // Healed, the same compaction goes through.
        let (new_refs, dropped) = slab.compact(&[(7, s)]).unwrap();
        assert_eq!(dropped, 0);
        assert_eq!(slab.read_segment(new_refs[0].1).unwrap(), p);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// The eviction-only degraded mode: after an append failure the
    /// tier stops attempting appends except for a periodic re-probe,
    /// and one successful re-probe restores full service. Counters
    /// record one degrade event per outage, not per skipped append.
    #[test]
    fn degraded_tier_reprobes_periodically_and_recovers() {
        let dir = temp_dir("degrade");
        let cfg = TierConfig::new(&dir);
        let mut tier = EvictionManager::open(&cfg, 0).unwrap();
        assert!(tier.admit_append(), "healthy tier admits every append");

        tier.note_append_err();
        assert_eq!(tier.degrade_events, 1);
        let admitted: Vec<bool> = (0..DEGRADED_REPROBE_AFTER)
            .map(|_| tier.admit_append())
            .collect();
        assert!(
            admitted[..DEGRADED_REPROBE_AFTER - 1].iter().all(|a| !a),
            "degraded tier must skip appends"
        );
        assert!(
            admitted[DEGRADED_REPROBE_AFTER - 1],
            "every {DEGRADED_REPROBE_AFTER}th attempt re-probes the disk"
        );

        // The re-probe fails: still one outage, not a new degrade event.
        tier.note_append_err();
        assert_eq!(tier.degrade_events, 1);
        assert_eq!(tier.io_errors, 2);

        // Next re-probe succeeds: demotion resumes immediately.
        for _ in 0..DEGRADED_REPROBE_AFTER - 1 {
            assert!(!tier.admit_append());
        }
        assert!(tier.admit_append());
        tier.note_append_ok();
        assert_eq!(tier.recoveries, 1);
        assert!(tier.admit_append(), "recovered tier admits every append");
        assert!(tier.admit_append());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn reopen_validates_header_and_rejects_foreign_files() {
        let dir = temp_dir("header");
        let path = dir.join("slab_0.fpslab");
        {
            let mut slab = SlabFile::open(&path).unwrap();
            slab.append(&payload(1, 16)).unwrap();
        }
        // Clean reopen: header accepted, replay finds the segment.
        let mut slab = SlabFile::open(&path).unwrap();
        assert_eq!(slab.replay().len(), 1);
        drop(slab);

        let foreign = dir.join("foreign.fpslab");
        std::fs::write(&foreign, b"NOTASLAB....plus some trailing junk").unwrap();
        assert!(SlabFile::open(&foreign).is_err());

        // A torn header (crash during create) is reinitialized and
        // counted, not fatal.
        let torn = dir.join("torn.fpslab");
        std::fs::write(&torn, b"FPSL").unwrap();
        let slab = SlabFile::open(&torn).unwrap();
        assert_eq!(slab.corrupt_segments(), 1);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
