//! The heap-allocation budget of the disk tier's write path.
//!
//! The tier's files can be far larger than anything the store keeps in
//! RAM: a shard's slab holds every demoted answer. Its writes must
//! therefore never copy a whole slab, nor a whole entry, through the
//! heap. The size of the largest allocation a write makes is
//! deterministic where the process's peak memory is not, so it is the
//! guard:
//!
//! - compaction holds one segment at a time, so no allocation reaches
//!   twice the largest segment it copies;
//! - demotion writes the entry's row slab from the form that holds it,
//!   so no allocation reaches half that slab.

use fp_geometry::{HyperRect, Region};
use fp_skyserver::ResultSet;
use fp_sqlmini::Value;
use funcproxy::cache::{CacheStore, DescriptionKind, SegRef, SlabFile, TierConfig};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::path::PathBuf;

thread_local! {
    /// The largest size any call into the allocator that obtains memory
    /// (`alloc`, `alloc_zeroed`, `realloc`) asked for on this thread
    /// since it was last reset.
    static LARGEST_ASKED: Cell<usize> = const { Cell::new(0) };
}

struct Counting;

fn count(size: usize) {
    // `try_with`: the allocator also runs while a thread is torn down.
    let _ = LARGEST_ASKED.try_with(|n| n.set(n.get().max(size)));
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// whose contract is the one this trait states; counting touches only a
// `const`-initialised thread-local `Cell`, which never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Runs `f` and returns its value with the size of the largest
/// allocation it made on this thread.
fn largest_during<T>(f: impl FnOnce() -> T) -> (T, usize) {
    LARGEST_ASKED.with(|n| n.set(0));
    let out = f();
    (out, LARGEST_ASKED.with(Cell::get))
}

fn temp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("fp_tier_alloc_{}_{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Bytes of a frame header (`len · crc32`) in front of every payload.
const FRAME_LEN: usize = 8;

#[test]
fn compaction_holds_one_segment_at_a_time() {
    let dir = temp_dir("compact");
    let mut slab = SlabFile::open(dir.join("slab_0.fpslab")).unwrap();
    let segs: Vec<SegRef> = (0..8u8)
        .map(|i| {
            let payload = vec![i; 64 * 1024 + usize::from(i) * 100];
            slab.append(&payload).unwrap()
        })
        .collect();
    for seg in segs.iter().step_by(2) {
        slab.mark_dead(*seg);
    }
    let live: Vec<(u64, SegRef)> = segs
        .iter()
        .enumerate()
        .skip(1)
        .step_by(2)
        .map(|(i, seg)| (i as u64, *seg))
        .collect();
    let largest_payload = live.iter().map(|(_, s)| s.len as usize).max().unwrap();

    let ((moved, dropped), largest) = largest_during(|| slab.compact(&live).unwrap());

    assert_eq!((moved.len(), dropped), (4, 0));
    let budget = 2 * (largest_payload + FRAME_LEN);
    eprintln!("compaction: largest allocation {largest} bytes, budget {budget}");
    assert!(
        largest < budget,
        "compaction asked for {largest} bytes at once; budget {budget}"
    );
    // The moved segments still read back whole.
    for ((id, seg), (_, old)) in moved.iter().zip(&live) {
        assert_eq!(seg.len, old.len);
        assert_eq!(slab.read_segment(*seg).unwrap()[0], *id as u8);
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

/// `n` rows shaped like a catalog answer: an id, two coordinates and a
/// text column, about 170 bytes of row slab each.
fn answer(n: usize) -> ResultSet {
    ResultSet {
        columns: vec!["objID".into(), "cx".into(), "cy".into(), "note".into()],
        rows: (0..n)
            .map(|i| {
                vec![
                    Value::Int(i as i64),
                    Value::Float(i as f64 / 7.0),
                    Value::Float(-(i as f64) / 3.0),
                    Value::Str(format!("{i:0>96}")),
                ]
            })
            .collect(),
    }
}

fn square(lo: f64) -> Region {
    Region::Rect(HyperRect::new(vec![lo, lo], vec![lo + 1.0, lo + 1.0]).unwrap())
}

#[test]
fn demotion_writes_the_row_slab_from_the_form() {
    let dir = temp_dir("demote");
    let coords = ["cx".to_string(), "cy".to_string()];
    let large = answer(1_250);
    let small = answer(4);

    // A RAM budget the large answer fills alone.
    let mut probe = CacheStore::new(DescriptionKind::Array, None);
    let id = probe
        .insert("k", square(0.0), large.clone(), false, "LARGE", &coords)
        .unwrap();
    let entry = probe.peek(id).unwrap();
    let (footprint, slab_len) = (entry.footprint(), entry.form().slab().len());
    assert!(slab_len > 200 * 1024, "row slab is {slab_len} bytes");

    let mut store = CacheStore::new(DescriptionKind::Array, Some(footprint + 64));
    store.attach_tier(&TierConfig::new(&dir), 0).unwrap();
    let large_id = store
        .insert("k", square(0.0), large, false, "LARGE", &coords)
        .unwrap();
    assert!(store.peek(large_id).unwrap().is_resident());

    let (small_id, largest) =
        largest_during(|| store.insert("k", square(5.0), small, false, "SMALL", &coords));

    assert!(small_id.is_some());
    assert!(
        !store.peek(large_id).unwrap().is_resident(),
        "the small insert demotes the large answer"
    );
    assert_eq!(store.stats().demotions, 1);
    let budget = slab_len / 2;
    eprintln!("demotion: largest allocation {largest} bytes, budget {budget}");
    assert!(
        largest < budget,
        "the demoting insert asked for {largest} bytes at once; budget {budget}"
    );
    std::fs::remove_dir_all(&dir).unwrap();
}
