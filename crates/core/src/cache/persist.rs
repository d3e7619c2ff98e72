//! The entry codec: one cache entry as one slab segment — still the
//! paper's self-describing "Query Result File" (its Figure 4), stored in
//! two halves (`cache/tier.rs` frames them):
//!
//! * a `<CacheEntry>` XML **header**: residual key, SQL, region,
//!   lifecycle stamp, coordinate indexes and the column names, built
//!   from the entry's scalars alone, so its size does not depend on the
//!   row count;
//! * the **body** of the document an exact hit serves: the entry's row
//!   slab, every `<Row>…</Row>` exactly as a client receives it.
//!
//! Header columns + body + `</ResultSet>` *is* the result document, so
//! every row reaches the disk once. Every cached entry has a columnar
//! form, so every segment is written in this one layout. Segments written
//! before rows moved to the slab keep their rows inline as a
//! `<ResultSet>` child of the header; [`entry_from_segment`] still reads
//! them, which is how a slab of that layout migrates.
//!
//! Floating-point fidelity matters here (regions are compared with tight
//! tolerances), so numbers are written with Rust's shortest-roundtrip
//! formatting and parsed back exactly.

use crate::cache::entry::{Body, Entry};
use crate::lifecycle::LifecycleStamp;
use fp_geometry::{HalfSpace, HyperRect, HyperSphere, Point, Polytope, Region};
use fp_skyserver::{ResultSet, FOOTER};
use fp_xmlite::Element;
use std::time::Instant;

/// The XML header of a resident `entry`'s slab segment; the entry's row
/// slab is the segment's other half. When `now` is given (a clocked
/// store), the lifecycle stamp rides along as *relative* times:
/// `Instant`s don't survive a restart, offsets do. `None` while the
/// entry's rows are on disk (they were written with its segment).
pub fn segment_header(entry: &Entry, now: Option<Instant>) -> Option<Vec<u8>> {
    let Body::Ram(form) = &entry.body else {
        return None;
    };
    let doc = Element::new("CacheEntry")
        .with_attr("truncated", if entry.truncated { "1" } else { "0" })
        .with_child(Element::new("ResidualKey").with_text(&*entry.residual_key))
        .with_child(Element::new("Sql").with_text(&*entry.exact_sql))
        .with_child(region_to_xml(&entry.region));
    let epoch = (entry.epoch > 0).then_some(entry.epoch);
    let mut doc = with_stamp(doc, epoch, entry.inserted_at, entry.expires_at, now);
    // The coordinate column indexes let a reload rebuild the columnar
    // form without knowing the template registry.
    let mut ci = Element::new("CoordIdx");
    for &i in form.coord_idx() {
        ci.push_child(Element::new("I").with_text(i.to_string()));
    }
    doc.push_child(ci);
    // The document's head; its rows are the row slab.
    let mut columns = Element::new("Columns");
    for c in form.columns() {
        columns.push_child(Element::new("C").with_text(c.as_str()));
    }
    doc.push_child(columns);
    Some(doc.to_xml().into_bytes())
}

/// Adds an entry's lifecycle stamp to `el` as attributes: `epoch` when
/// given, and — on a clocked store — its age and the signed
/// milliseconds left until its TTL deadline. `Instant`s don't survive a
/// restart, offsets do.
pub(crate) fn with_stamp(
    mut el: Element,
    epoch: Option<u64>,
    inserted_at: Option<Instant>,
    expires_at: Option<Instant>,
    now: Option<Instant>,
) -> Element {
    if let Some(epoch) = epoch {
        el = el.with_attr("epoch", epoch.to_string());
    }
    if let (Some(now), Some(at)) = (now, inserted_at) {
        el = el.with_attr(
            "age_ms",
            now.saturating_duration_since(at).as_millis().to_string(),
        );
    }
    if let (Some(now), Some(deadline)) = (now, expires_at) {
        let remaining_ms = if deadline >= now {
            i128::from(u64::try_from(deadline.duration_since(now).as_millis()).unwrap_or(u64::MAX))
        } else {
            -i128::from(u64::try_from(now.duration_since(deadline).as_millis()).unwrap_or(u64::MAX))
        };
        el = el.with_attr("remaining_ms", remaining_ms.to_string());
    }
    el
}

/// Reads back what [`with_stamp`] wrote. Absent attributes restore as
/// epoch 0, ageless, never expiring — exactly how such entries were
/// cached.
pub(crate) fn stamp_of(el: &Element) -> LifecycleStamp {
    LifecycleStamp {
        epoch: el.attr("epoch").and_then(|v| v.parse().ok()).unwrap_or(0),
        age_ms: el.attr("age_ms").and_then(|v| v.parse().ok()),
        remaining_ms: el.attr("remaining_ms").and_then(|v| v.parse().ok()),
    }
}

/// One slab segment read back: the whole entry, rows included.
#[derive(Debug, Clone, PartialEq)]
pub struct SegmentEntry {
    /// The entry's residual group key.
    pub residual_key: String,
    /// The canonical SQL that produced it (its exact-match key).
    pub sql: String,
    /// The query region.
    pub region: Region,
    /// The cached result.
    pub result: ResultSet,
    /// Whether a `TOP` limit may have clipped the result.
    pub truncated: bool,
    /// The coordinate column indexes; empty in a segment without
    /// `<CoordIdx>` (an older binary's row-major entry).
    pub coord_idx: Vec<usize>,
    /// The lifecycle stamp written with the segment.
    pub stamp: LifecycleStamp,
}

/// Parses a slab segment — its XML header and its row slab — back into
/// the entry. Rows inline in the header (a segment written before rows
/// moved to the slab, whose slab then repeats them and is ignored, or an
/// older binary's entry without a columnar form) parse as they are;
/// otherwise the
/// document is the header's columns, the row slab and the footer — the
/// bytes an exact hit serves. `None` when any part is damaged.
pub fn entry_from_segment(xml: &[u8], row_slab: &[u8]) -> Option<SegmentEntry> {
    let doc = Element::parse(std::str::from_utf8(xml).ok()?).ok()?;
    if doc.name() != "CacheEntry" {
        return None;
    }
    let result = match doc.child("ResultSet") {
        Some(inline) => ResultSet::from_xml(inline)?,
        None => {
            const HEAD: &[u8] = b"<ResultSet>";
            let columns = doc.child("Columns")?.to_xml();
            let mut body =
                Vec::with_capacity(HEAD.len() + columns.len() + row_slab.len() + FOOTER.len());
            body.extend_from_slice(HEAD);
            body.extend_from_slice(columns.as_bytes());
            body.extend_from_slice(row_slab);
            body.extend_from_slice(FOOTER);
            let body = String::from_utf8(body).ok()?;
            ResultSet::from_xml(&Element::parse(&body).ok()?)?
        }
    };
    // Absent only in an older binary's row-major entry.
    let coord_idx: Vec<usize> = match doc.child("CoordIdx") {
        Some(ci) => ci
            .children_named("I")
            .map(|i| i.text().parse::<usize>().ok())
            .collect::<Option<Vec<usize>>>()?,
        None => Vec::new(),
    };
    Some(SegmentEntry {
        residual_key: doc.child_text("ResidualKey")?.to_string(),
        sql: doc.child_text("Sql")?.to_string(),
        region: region_from_xml(doc.child("Region")?)?,
        result,
        truncated: doc.attr("truncated") == Some("1"),
        coord_idx,
        stamp: stamp_of(&doc),
    })
}

/// Shortest-roundtrip float text.
fn num(v: f64) -> String {
    format!("{v:?}")
}

fn nums(tag: &str, values: &[f64]) -> Element {
    let mut el = Element::new(tag);
    for v in values {
        el.push_child(Element::new("N").with_text(num(*v)));
    }
    el
}

fn parse_nums(el: &Element) -> Option<Vec<f64>> {
    el.children_named("N")
        .map(|n| n.text().parse::<f64>().ok())
        .collect()
}

/// Serializes a region as XML (concrete numbers, unlike the parameterized
/// function-template form).
pub(crate) fn region_to_xml(region: &Region) -> Element {
    let mut el = Element::new("Region");
    match region {
        Region::Sphere(s) => {
            el.push_child(
                Element::new("Sphere")
                    .with_child(nums("Center", s.center().coords()))
                    .with_child(Element::new("Radius").with_text(num(s.radius()))),
            );
        }
        Region::Rect(r) => {
            el.push_child(
                Element::new("Rect")
                    .with_child(nums("Lo", r.lo()))
                    .with_child(nums("Hi", r.hi())),
            );
        }
        Region::Polytope(p) => {
            let mut poly = Element::new("Polytope")
                .with_child(nums("BBoxLo", p.bbox().lo()))
                .with_child(nums("BBoxHi", p.bbox().hi()));
            for face in p.faces() {
                poly.push_child(
                    Element::new("Face")
                        .with_child(nums("Normal", face.normal()))
                        .with_child(Element::new("Offset").with_text(num(face.offset()))),
                );
            }
            el.push_child(poly);
        }
    }
    el
}

/// Parses the XML region form.
pub(crate) fn region_from_xml(el: &Element) -> Option<Region> {
    if el.name() != "Region" {
        return None;
    }
    if let Some(s) = el.child("Sphere") {
        let center = parse_nums(s.child("Center")?)?;
        let radius: f64 = s.child_text("Radius")?.parse().ok()?;
        return Some(Region::Sphere(
            HyperSphere::new(Point::new(center).ok()?, radius).ok()?,
        ));
    }
    if let Some(r) = el.child("Rect") {
        let lo = parse_nums(r.child("Lo")?)?;
        let hi = parse_nums(r.child("Hi")?)?;
        return Some(Region::Rect(HyperRect::new(lo, hi).ok()?));
    }
    if let Some(p) = el.child("Polytope") {
        let lo = parse_nums(p.child("BBoxLo")?)?;
        let hi = parse_nums(p.child("BBoxHi")?)?;
        let bbox = HyperRect::new(lo, hi).ok()?;
        let mut faces = Vec::new();
        for f in p.children_named("Face") {
            let normal = parse_nums(f.child("Normal")?)?;
            let offset: f64 = f.child_text("Offset")?.parse().ok()?;
            faces.push(HalfSpace::new(normal, offset).ok()?);
        }
        return Some(Region::Polytope(Polytope::new(faces, bbox).ok()?));
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cache::{encode_payload, CacheStore, DescriptionKind, SlabFile, TierConfig};
    use fp_skyserver::{accounted_xml_bytes, ColumnarRows};
    use fp_sqlmini::Value;
    use std::sync::Arc;
    use std::time::Duration;

    /// A resident entry of `rows` rows whose cells survive the XML round
    /// trip unchanged (so a parse of its document equals them), and
    /// those rows.
    fn columnar_entry(rows: usize) -> (Entry, ResultSet) {
        let result = ResultSet {
            columns: vec!["objID".into(), "cx".into(), "cy".into(), "name".into()],
            rows: (0..rows)
                .map(|i| {
                    vec![
                        Value::Int(i as i64 - 5),
                        Value::Float(i as f64 * 0.25 - 3.5),
                        Value::Float(i as f64 * -1.5e-3),
                        if i % 7 == 3 {
                            Value::Null
                        } else {
                            Value::Str(format!("obj <{i}> & \"x\""))
                        },
                    ]
                })
                .collect(),
        };
        let form = ColumnarRows::build(&result, &[1, 2]).expect("numeric coordinates");
        let region = sample_regions()[1].clone();
        let entry = Entry {
            id: 1,
            residual_key: "radial|top=".into(),
            bbox: region.bounding_rect(),
            region,
            bytes: accounted_xml_bytes(&result, Some(&form)),
            truncated: false,
            exact_sql: "SELECT * FROM f(1, 2) WHERE a < 3".into(),
            epoch: 4,
            inserted_at: None,
            expires_at: None,
            body: Body::Ram(Arc::new(form)),
            seg: None,
        };
        (entry, result)
    }

    /// The encoder before rows moved to the slab, kept verbatim as the
    /// test-only source of old-layout segments: rows inline as
    /// `<ResultSet>`, which the row slab appended after it repeats.
    fn parent_entry_to_xml(entry: &Entry, result: &ResultSet, now: Option<Instant>) -> Element {
        let doc = Element::new("CacheEntry")
            .with_attr("truncated", if entry.truncated { "1" } else { "0" })
            .with_child(Element::new("ResidualKey").with_text(&*entry.residual_key))
            .with_child(Element::new("Sql").with_text(&*entry.exact_sql))
            .with_child(region_to_xml(&entry.region));
        let epoch = (entry.epoch > 0).then_some(entry.epoch);
        let mut doc = with_stamp(doc, epoch, entry.inserted_at, entry.expires_at, now);
        let mut ci = Element::new("CoordIdx");
        for &i in entry.ram().coord_idx() {
            ci.push_child(Element::new("I").with_text(i.to_string()));
        }
        doc.push_child(ci);
        doc.push_child(result.to_xml());
        doc
    }

    /// New → old: a columnar entry's header has no `<ResultSet>` child
    /// (and no row at all). The old parser began with
    /// `ResultSet::from_xml(doc.child("ResultSet")?)?`, so it returns
    /// `None` for such a segment: an older binary counts it corrupt and
    /// serves a miss, never an empty answer.
    #[test]
    fn columnar_header_carries_no_rows_so_old_readers_reject_it() {
        let (entry, result) = columnar_entry(40);
        let header = segment_header(&entry, None).unwrap();
        let doc = Element::parse(std::str::from_utf8(&header).unwrap()).unwrap();
        assert!(doc.child("ResultSet").is_none());
        assert!(doc.child("Columns").is_some());
        assert!(!header.windows(5).any(|w| w == b"<Row>"));
        let parsed = entry_from_segment(&header, entry.ram().slab()).unwrap();
        assert_eq!(parsed.result, result);
        assert_eq!(parsed.stamp.epoch, 4);
    }

    /// The header is built from the entry's scalars and column names: it
    /// has the same size at 10 rows and at 2,000, under 2 KB. Guards
    /// against rows being written twice again.
    #[test]
    fn segment_header_does_not_grow_with_rows() {
        let overhead = |rows: usize| {
            let (entry, _) = columnar_entry(rows);
            let slab = entry.ram().slab();
            let payload = encode_payload(&segment_header(&entry, None).unwrap(), slab);
            payload.len() - slab.len()
        };
        let (small, large) = (overhead(10), overhead(2_000));
        assert_eq!(small, large);
        assert!(large < 2_048, "header is {large} bytes");
    }

    /// Old → new: a segment in the old layout (rows inline *and* in the
    /// slab) restores demoted, serves the original document from the
    /// mapped slab, and promotes to the same resident entry — with no
    /// migration code.
    #[test]
    fn old_layout_segment_restores_serves_and_promotes() {
        let dir = std::env::temp_dir().join(format!("fp_persist_old_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let config = TierConfig::new(&dir);
        let (mut entry, result) = columnar_entry(300); // above the grid crossover
        let now = Instant::now();
        entry.inserted_at = Some(now);
        entry.expires_at = Some(now + Duration::from_secs(600));
        let col = Arc::clone(entry.ram());
        {
            let xml = parent_entry_to_xml(&entry, &result, Some(now)).to_xml();
            let mut slab = SlabFile::open(config.slab_path(0)).unwrap();
            slab.append(&encode_payload(xml.as_bytes(), col.slab()))
                .unwrap();
        }
        let mut store = CacheStore::new(DescriptionKind::Array, None);
        store.attach_tier(&config, 0).unwrap();
        assert_eq!(store.recover_tier().recovered, 1);
        let id = store.lookup_exact(&entry.exact_sql).unwrap();
        let slice = store.disk_slice(id).expect("restored demoted");
        let Some(Body::Disk { skeleton, .. }) = store.peek(id).map(|e| &e.body) else {
            panic!("restored demoted");
        };
        let served = skeleton
            .doc()
            .over(Arc::new(slice.clone()))
            .expect("the slab fits the skeleton");
        let document = result.to_xml_string().into_bytes();
        assert_eq!(served.to_vec(), document);

        let parsed = entry_from_segment(slice.xml(), slice.row_slab()).unwrap();
        assert_eq!(parsed.result, result);
        assert_eq!(parsed.region, entry.region);
        assert_eq!(parsed.coord_idx, [1, 2]);
        assert_eq!(parsed.stamp.epoch, 4);
        assert_eq!(parsed.stamp.remaining_ms, Some(600_000));
        let rebuilt = ColumnarRows::build(&parsed.result, &parsed.coord_idx).unwrap();
        assert!(store.promote(id, Arc::new(rebuilt)));
        let resident = store.peek(id).expect("promoted");
        let rebuilt = resident.ram();
        assert_eq!(rebuilt.slab(), col.slab());
        assert_eq!(rebuilt.full_document(), document);
        assert_eq!(resident.footprint(), entry.footprint());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    fn sample_regions() -> Vec<Region> {
        vec![
            Region::Sphere(
                HyperSphere::new(Point::from_slice(&[0.1, -0.25, 1.0 / 3.0]), 0.0087266).unwrap(),
            ),
            Region::Rect(HyperRect::new(vec![184.0, -1.5], vec![186.25, 0.75]).unwrap()),
            Region::Polytope(Polytope::from_rect(
                &HyperRect::new(vec![0.0, 0.0], vec![1.0, 2.0]).unwrap(),
            )),
        ]
    }

    #[test]
    fn region_xml_roundtrips_bit_exactly() {
        for region in sample_regions() {
            let xml = region_to_xml(&region);
            // Through text, as a real file would go.
            let reparsed = Element::parse(&xml.to_xml_pretty()).unwrap();
            let back = region_from_xml(&reparsed).unwrap();
            assert_eq!(back, region);
        }
    }

    /// A restored entry comes back demoted; promoted, it has the same
    /// columnar form (coordinate indexes) and the same charged size.
    #[test]
    fn columnar_form_survives_reload() {
        let dir = std::env::temp_dir().join(format!("fp_persist_col_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let config = TierConfig::new(dir);
        let tiered_store = |config: &TierConfig| {
            let mut store = CacheStore::new(DescriptionKind::Array, None);
            store.attach_tier(config, 0).unwrap();
            store
        };
        let rs = ResultSet {
            columns: vec!["objID".into(), "cx".into(), "cy".into()],
            rows: (0..6)
                .map(|i| {
                    vec![
                        Value::Int(i),
                        Value::Float(i as f64 * 0.1),
                        Value::Float(i as f64 * 0.2),
                    ]
                })
                .collect(),
        };
        let coords = ["cx".to_string(), "cy".to_string()];
        let footprint = {
            let mut store = tiered_store(&config);
            let id = store
                .insert("g", sample_regions()[1].clone(), rs, false, "Q", &coords)
                .unwrap();
            assert_eq!(store.tier_meta().unwrap().write().unwrap(), 1);
            store.peek(id).unwrap().footprint()
        };

        let mut restored = tiered_store(&config);
        assert_eq!(restored.recover_tier().recovered, 1);
        let rid = restored.lookup_exact("Q").unwrap();
        let slice = restored.disk_slice(rid).expect("restored demoted");
        let parsed = entry_from_segment(slice.xml(), slice.row_slab()).unwrap();
        assert_eq!(parsed.coord_idx, [1, 2]);
        let columnar = ColumnarRows::build(&parsed.result, &parsed.coord_idx).unwrap();
        assert!(restored.promote(rid, Arc::new(columnar)));
        let entry = restored.peek(rid).unwrap();
        let col = entry.ram();
        assert_eq!(col.coord_idx(), &[1, 2]);
        assert_eq!(entry.footprint(), footprint);
        std::fs::remove_dir_all(&config.dir).unwrap();
    }
}
