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
//! 4. **Codec fidelity** — a segment carries its rows once (header +
//!    row slab) and parses back to exactly what the rows-inline layout
//!    every earlier segment has parses to; segments in that layout still
//!    restore, promote and serve byte-identical answers.

use fp_suite::geometry::{HyperRect, HyperSphere, Point, Polytope, Region};
use fp_suite::proxy::cache::{
    encode_payload, entry_from_segment, segment_header, Body, Entry, SegmentEntry, SlabFile,
    TierConfig,
};
use fp_suite::proxy::metrics::Outcome;
use fp_suite::proxy::template::TemplateManager;
use fp_suite::proxy::{CostModel, ProxyConfig, ProxyHandle, Scheme, SiteOrigin};
use fp_suite::skyserver::{
    accounted_xml_bytes, Catalog, CatalogSpec, ColumnarRows, ResultSet, SkySite,
};
use fp_suite::sqlmini::Value;
use fp_suite::xmlite::Element;
use proptest::prelude::*;
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

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

/// Strategy: a float cell — ordinary, negative, huge, or non-finite.
fn arb_float() -> impl Strategy<Value = f64> {
    prop_oneof![
        6 => -1.0e6f64..1.0e6,
        1 => prop_oneof![Just(1.0e300), Just(-f64::MAX), Just(5e-324), Just(-0.0)],
        1 => prop_oneof![Just(f64::NAN), Just(f64::INFINITY), Just(f64::NEG_INFINITY)],
    ]
}

/// Strategy: a cell of the text column — nulls, empty strings (served
/// as `<V></V>`) and text the XML writer must escape.
fn arb_text() -> impl Strategy<Value = Value> {
    prop_oneof![
        Just(Value::Null),
        Just(Value::Str(String::new())),
        "[a-z0-9 <>&\"'.;-]{0,10}".prop_map(Value::Str),
    ]
}

/// Strategy: a resident cache entry over the codec's whole input space,
/// with the rows its form was built from. Every cached entry has a
/// columnar form, so both coordinates are numbers (non-finite included);
/// the other columns take every cell kind.
fn arb_entry() -> impl Strategy<Value = (Entry, ResultSet, Instant)> {
    let row = (
        any::<i64>(),
        arb_float(),
        arb_float(),
        arb_text(),
        prop::option::of(arb_float()),
    );
    // One entry in eight has no rows at all.
    let rows = (prop::collection::vec(row, 0..40), 0u8..8);
    let region = (0usize..3, -170.0f64..170.0, -80.0f64..80.0, 1e-4f64..5.0);
    let text = "[a-zA-Z0-9 <>&\"'=|.,()*]{1,40}";
    let stamp = (0u64..4, 0u64..1_000_000, -1_000_000i64..1_000_000);
    (rows, region, (text, text, any::<bool>()), stamp).prop_map(
        |((rows, pick), (shape, x, y, r), (key, sql, truncated), (epoch, age, left))| {
            let rows = if pick == 0 { Vec::new() } else { rows };
            let result = ResultSet {
                columns: ["objID", "cx", "cy", "name", "mag"]
                    .map(String::from)
                    .to_vec(),
                rows: rows
                    .into_iter()
                    .map(|(id, cx, cy, name, mag)| {
                        vec![
                            Value::Int(id),
                            Value::Float(cx),
                            Value::Float(cy),
                            name,
                            mag.map_or(Value::Null, Value::Float),
                        ]
                    })
                    .collect(),
            };
            let rect = HyperRect::new(vec![x, y], vec![x + r, y + 2.0 * r]).unwrap();
            let region = match shape {
                0 => Region::Sphere(HyperSphere::new(Point::new(vec![x, y]).unwrap(), r).unwrap()),
                1 => Region::Rect(rect),
                _ => Region::Polytope(Polytope::from_rect(&rect)),
            };
            let form = ColumnarRows::build(&result, &[1, 2]).expect("numeric coordinates");
            let now = Instant::now() + Duration::from_secs(3_600);
            let expires_at = if left >= 0 {
                now + Duration::from_millis(left as u64)
            } else {
                now - Duration::from_millis(left.unsigned_abs())
            };
            let entry = Entry {
                id: 1,
                residual_key: key.as_str().into(),
                bbox: region.bounding_rect(),
                region,
                bytes: accounted_xml_bytes(&result, Some(&form)),
                truncated,
                exact_sql: sql.as_str().into(),
                epoch,
                inserted_at: Some(now - Duration::from_millis(age)),
                expires_at: Some(expires_at),
                body: Body::Ram(Arc::new(form)),
                seg: None,
            };
            (entry, result, now)
        },
    )
}

/// A test-only copy of the encoder before rows moved to the slab: the
/// same header, with the whole result document inline (`<ResultSet>`)
/// where the columnar layout writes only its `<Columns>` head.
fn parent_layout(header: &[u8], result: &ResultSet) -> Vec<u8> {
    let new = Element::parse(std::str::from_utf8(header).unwrap()).unwrap();
    let mut old = Element::new(new.name());
    for (name, value) in new.attrs() {
        old = old.with_attr(name.as_str(), value.as_str());
    }
    for child in new.child_elements() {
        old.push_child(if child.name() == "Columns" {
            result.to_xml()
        } else {
            child.clone()
        });
    }
    old.to_xml().into_bytes()
}

/// A resident entry's form.
fn form_of(entry: &Entry) -> &ColumnarRows {
    let Body::Ram(form) = &entry.body else {
        unreachable!("the strategy builds resident entries");
    };
    form
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

    /// A segment carries a columnar entry's rows once — header plus row
    /// slab — and parses back to exactly what the rows-inline layout
    /// parses to: the same result (which is the parse of the document
    /// inline), region, coordinate indexes and stamp, and a columnar
    /// rebuild with byte-identical slabs.
    #[test]
    fn segment_parse_equals_the_rows_inline_parse((entry, result, now) in arb_entry()) {
        let header = segment_header(&entry, Some(now)).expect("a resident entry");
        let form = form_of(&entry);
        let slab = form.slab();
        prop_assert!(!header.windows(4).any(|w| w == b"<Row"), "rows in the header");
        let new = entry_from_segment(&header, slab).expect("a segment parses");
        let old = entry_from_segment(&parent_layout(&header, &result), slab)
            .expect("an old-layout segment parses");
        prop_assert_eq!(&new, &old);

        let inline = Element::parse(&result.to_xml().to_xml()).unwrap();
        prop_assert_eq!(&new.result, &ResultSet::from_xml(&inline).unwrap());
        prop_assert_eq!(&new.region, &entry.region);
        prop_assert_eq!(&new.coord_idx, &form.coord_idx().to_vec());
        prop_assert_eq!(new.stamp.epoch, entry.epoch);
        let age = now.duration_since(entry.inserted_at.unwrap()).as_millis() as u64;
        prop_assert_eq!(new.stamp.age_ms, Some(age));

        let rebuilt = |e: &SegmentEntry| {
            ColumnarRows::build(&e.result, &e.coord_idx).map(|c| c.slab().to_vec())
        };
        prop_assert_eq!(rebuilt(&new), rebuilt(&old));
    }
}

fn radial(ra: f64, dec: f64) -> Vec<(String, String)> {
    vec![
        ("ra".to_string(), format!("{ra:.4}")),
        ("dec".to_string(), format!("{dec:.4}")),
        ("radius".to_string(), "9.0000".to_string()),
    ]
}

/// A one-shard tiered proxy over `dir` with no RAM budget.
fn tiered_handle(site: &SkySite, dir: &Path) -> ProxyHandle {
    ProxyHandle::with_shards(
        TemplateManager::with_sky_defaults(),
        Arc::new(SiteOrigin::new(site.clone())),
        ProxyConfig::default()
            .with_scheme(Scheme::FullSemantic)
            .with_cost(CostModel::free())
            .with_tier(dir.to_path_buf()),
        1,
    )
}

/// Rewrites every segment of the slab at `path` in the rows-inline
/// layout (rows in the header *and* in the row slab).
fn rewrite_in_parent_layout(path: &Path) -> usize {
    let payloads: Vec<Vec<u8>> = {
        let mut slab = SlabFile::open(path).unwrap();
        let segs: Vec<_> = slab.replay().into_iter().map(|(seg, _)| seg).collect();
        segs.into_iter()
            .map(|seg| {
                let view = slab.slice(seg).unwrap();
                let entry = entry_from_segment(view.xml(), view.row_slab()).unwrap();
                let xml = parent_layout(view.xml(), &entry.result);
                encode_payload(&xml, view.row_slab())
            })
            .collect()
    };
    std::fs::remove_file(path).unwrap();
    let mut slab = SlabFile::open(path).unwrap();
    for payload in &payloads {
        slab.append(payload).unwrap();
    }
    payloads.len()
}

/// Old → new compatibility with no migration code: a slab written in the
/// rows-inline layout restores, serves from the mapped slab, promotes
/// (in the background on the byte path, inline on the row path) and
/// serves from RAM — every answer byte-identical to the one the proxy
/// that wrote it served.
#[test]
fn parent_layout_slab_restores_promotes_and_serves_identically() {
    let site = SkySite::new(Catalog::generate(&CatalogSpec::small_test()));
    let dir = std::env::temp_dir().join(format!("fp_prop_slab_parent_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    // Disjoint cones inside the catalog's sky window.
    let queries: Vec<_> = (0..8)
        .map(|i| radial(180.5 + 1.2 * f64::from(i), -2.5 + 0.7 * f64::from(i)))
        .collect();
    let serve = |h: &ProxyHandle| -> Vec<Vec<u8>> {
        queries
            .iter()
            .map(|q| h.handle_form_xml("/search/radial", q).unwrap().body)
            .collect()
    };

    let written = {
        let h = tiered_handle(&site, &dir);
        let bodies = serve(&h);
        assert!(h.snapshot_now().unwrap() >= 1, "every entry gets a segment");
        bodies
    };
    assert!(written.iter().all(|b| b.windows(5).any(|w| w == b"<Row>")));
    let config = TierConfig::new(&dir);
    assert_eq!(
        rewrite_in_parent_layout(&config.slab_path(0)),
        queries.len()
    );
    // Its offsets no longer match: bare replay restores the slab alone.
    std::fs::remove_file(config.meta_path(0)).unwrap();

    site.reset_load();
    let h = tiered_handle(&site, &dir);
    assert_eq!(h.cache_stats().disk_entries, queries.len());
    assert_eq!(serve(&h), written, "served from the mapped slab");
    h.quiesce_revalidations();
    assert_eq!(h.cache_stats().promotions, queries.len());
    assert_eq!(serve(&h), written, "served from RAM after promotion");
    drop(h);

    let h = tiered_handle(&site, &dir);
    for (q, body) in queries.iter().zip(&written) {
        let r = h.handle_form("/search/radial", q).unwrap();
        assert_eq!(r.metrics.outcome, Outcome::Exact);
        assert!(r.metrics.disk_hit);
        assert_eq!(r.result.to_xml_string().as_bytes(), &body[..]);
    }
    assert_eq!(h.cache_stats().promotions, queries.len());
    assert_eq!(site.load().queries, 0, "nothing went to the origin");
    std::fs::remove_dir_all(&dir).unwrap();
}
