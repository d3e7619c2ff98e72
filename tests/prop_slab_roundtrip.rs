//! Property tests for the disk tier's slab format (satellite of the
//! tiered-cache PR): whatever goes into a slab must come back out of the
//! mmap byte-for-byte, at both levels of the stack.
//!
//! 1. **Segment fidelity** — `SlabFile::append` → `slice()` returns the
//!    exact payload bytes through the mmap, for arbitrary xml/row-slab
//!    splits including empty halves, and `read_segment` (the CRC-checked
//!    pread path) agrees with the mapped view.
//! 2. **Reopen fidelity** — after dropping the writer and reopening the
//!    file, a replay scan finds every segment with its payload intact
//!    (the append-only format is its own recovery log).
//! 3. **Entry fidelity** — a result document pushed through the real
//!    demotion pipeline (columnar slab bytes into the file, skeleton
//!    kept resident) reassembles into the *identical* XML document the
//!    RAM-resident entry would have served. This is the exactness
//!    guarantee disk-tier hits ride on.

use fp_suite::proxy::cache::{encode_payload, SlabFile};
use fp_suite::skyserver::{ColumnarRows, ResultSet};
use fp_suite::sqlmini::Value;
use proptest::prelude::*;
use std::sync::Arc;

fn temp_slab(tag: &str) -> std::path::PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!(
        "fp_prop_slab_{}_{tag}_{:?}.fpslab",
        std::process::id(),
        std::thread::current().id()
    ));
    let _ = std::fs::remove_file(&p);
    p
}

/// Strategy: one payload as an (xml bytes, row-slab bytes) pair.
fn payload_parts() -> impl Strategy<Value = (Vec<u8>, Vec<u8>)> {
    (
        prop::collection::vec(any::<u8>(), 0..600),
        prop::collection::vec(any::<u8>(), 0..2_000),
    )
}

/// Strategy: a result set with two coordinate columns and one payload
/// column, mixing value types the XML codec must preserve.
fn arb_result() -> impl Strategy<Value = (ResultSet, Vec<usize>)> {
    prop::collection::vec(
        (
            any::<i64>(),
            -1.0e6f64..1.0e6,
            -1.0e6f64..1.0e6,
            "[a-zA-Z0-9 _.-]{0,12}",
        ),
        0..40,
    )
    .prop_map(|rows| {
        let result = ResultSet {
            columns: vec!["objID".into(), "cx".into(), "cy".into(), "name".into()],
            rows: rows
                .into_iter()
                .map(|(id, x, y, s)| {
                    vec![
                        Value::Int(id),
                        Value::Float(x),
                        Value::Float(y),
                        Value::Str(s),
                    ]
                })
                .collect(),
        };
        (result, vec![1, 2])
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Append arbitrary payloads, read each back through the mmap and
    /// through the CRC-checked path: all three views must agree.
    #[test]
    fn segments_round_trip_through_the_mmap(parts in prop::collection::vec(payload_parts(), 1..12)) {
        let path = temp_slab("seg");
        let mut slab = SlabFile::open(&path).unwrap();
        let payloads: Vec<Vec<u8>> = parts
            .iter()
            .map(|(xml, rows)| encode_payload(xml, rows))
            .collect();
        let segs: Vec<_> = payloads
            .iter()
            .map(|p| slab.append(p).unwrap())
            .collect();
        for (i, (seg, (xml, rows))) in segs.iter().zip(&parts).enumerate() {
            let view = slab.slice(*seg).expect("segment is readable");
            prop_assert_eq!(view.payload(), &payloads[i][..], "segment {}", i);
            prop_assert_eq!(view.xml(), &xml[..], "xml half of segment {}", i);
            prop_assert_eq!(view.row_slab(), &rows[..], "row half of segment {}", i);
            prop_assert_eq!(slab.read_segment(*seg).unwrap(), payloads[i].clone());
        }
        drop(slab);
        std::fs::remove_file(&path).unwrap();
    }

    /// Drop the writer, reopen, replay: every payload survives the
    /// restart intact and in order.
    #[test]
    fn reopened_slab_replays_every_segment(parts in prop::collection::vec(payload_parts(), 1..8)) {
        let path = temp_slab("reopen");
        let payloads: Vec<Vec<u8>> = parts
            .iter()
            .map(|(xml, rows)| encode_payload(xml, rows))
            .collect();
        {
            let mut slab = SlabFile::open(&path).unwrap();
            for p in &payloads {
                slab.append(p).unwrap();
            }
        }
        let mut slab = SlabFile::open(&path).unwrap();
        let kept = slab.replay();
        prop_assert_eq!(kept.len(), payloads.len());
        for (i, ((_, recovered), original)) in kept.iter().zip(&payloads).enumerate() {
            prop_assert_eq!(recovered, original, "segment {} after reopen", i);
        }
        drop(slab);
        std::fs::remove_file(&path).unwrap();
    }

    /// The demotion pipeline end to end: columnar row-slab bytes written
    /// to the file, a resident skeleton, and the mmap'd bytes reassemble
    /// the exact document the original result serializes to. Contained
    /// hits (a row subset through the skeleton's micro-index) must match
    /// a fresh columnar build the same way.
    #[test]
    fn demoted_entry_reassembles_byte_identical_documents((result, coord_idx) in arb_result()) {
        // Finite float coordinates at idx 1/2: the columnar form always
        // builds for this strategy.
        let columnar = ColumnarRows::build(&result, &coord_idx).expect("numeric coords");
        let path = temp_slab("entry");
        let mut slab = SlabFile::open(&path).unwrap();
        let payload = encode_payload(b"<CacheEntry/>", columnar.slab());
        let seg = slab.append(&payload).unwrap();
        let view = slab.slice(seg).expect("segment is readable");

        let skeleton = Arc::new(columnar.skeleton());
        let lent = skeleton
            .doc()
            .over(Arc::new(view))
            .expect("the mapped slab is the length the skeleton indexes");
        prop_assert_eq!(
            lent.to_vec(),
            result.to_xml_string().into_bytes(),
            "mmap-served document differs from the original result"
        );
        // The skeleton serves the same bytes the live columnar form does,
        // for a row subset as for the whole entry.
        prop_assert_eq!(lent.to_vec(), columnar.full_document());
        let every_other: Vec<u32> = (0..columnar.len() as u32).step_by(2).collect();
        prop_assert_eq!(
            lent.of_rows(&every_other).to_vec(),
            columnar.assemble_document(&every_other)
        );
        drop(slab);
        std::fs::remove_file(&path).unwrap();
    }
}
