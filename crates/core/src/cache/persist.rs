//! The entry codec: one cache entry as a self-describing `<CacheEntry>`
//! XML document — the paper's "Query Result Files" (its Figure 4). The
//! document is the header of every slab segment (`cache/tier.rs`), so a
//! segment alone rebuilds the full entry, including its lifecycle stamp,
//! on promotion or warm restart.
//!
//! Floating-point fidelity matters here (regions are compared with tight
//! tolerances), so numbers are written with Rust's shortest-roundtrip
//! formatting and parsed back exactly.

use crate::cache::entry::CacheEntry;
use crate::lifecycle::LifecycleStamp;
use fp_geometry::{HalfSpace, HyperRect, HyperSphere, Point, Polytope, Region};
use fp_skyserver::ResultSet;
use fp_xmlite::Element;
use std::time::Instant;

/// Serializes one entry as a self-describing XML document. When `now`
/// is given (a clocked store), the entry's lifecycle stamp rides along
/// as *relative* times (see [`with_stamp`]).
pub(crate) fn entry_to_xml(entry: &CacheEntry, now: Option<Instant>) -> Element {
    let doc = Element::new("CacheEntry")
        .with_attr("truncated", if entry.truncated { "1" } else { "0" })
        .with_child(Element::new("ResidualKey").with_text(&*entry.residual_key))
        .with_child(Element::new("Sql").with_text(&*entry.exact_sql))
        .with_child(region_to_xml(&entry.region));
    let epoch = (entry.epoch > 0).then_some(entry.epoch);
    let mut doc = with_stamp(doc, epoch, entry.inserted_at, entry.expires_at, now);
    // Persist the coordinate column indexes so a reload rebuilds the
    // columnar hot-path form without knowing the template registry.
    if let Some(col) = &entry.columnar {
        let mut ci = Element::new("CoordIdx");
        for &i in col.coord_idx() {
            ci.push_child(Element::new("I").with_text(i.to_string()));
        }
        doc.push_child(ci);
    }
    doc.push_child(entry.result.to_xml());
    doc
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

type ParsedEntry = (String, Region, ResultSet, bool, String, Vec<usize>);

pub(crate) fn entry_from_xml(doc: &Element) -> Option<(ParsedEntry, LifecycleStamp)> {
    if doc.name() != "CacheEntry" {
        return None;
    }
    let residual_key = doc.child_text("ResidualKey")?.to_string();
    let sql = doc.child_text("Sql")?.to_string();
    let truncated = doc.attr("truncated") == Some("1");
    let region = region_from_xml(doc.child("Region")?)?;
    let result = ResultSet::from_xml(doc.child("ResultSet")?)?;
    // Absent for entries without a columnar form.
    let coord_idx: Vec<usize> = match doc.child("CoordIdx") {
        Some(ci) => ci
            .children_named("I")
            .map(|i| i.text().parse::<usize>().ok())
            .collect::<Option<Vec<usize>>>()?,
        None => Vec::new(),
    };
    Some((
        (residual_key, region, result, truncated, sql, coord_idx),
        stamp_of(doc),
    ))
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
    use crate::cache::{CacheStore, DescriptionKind, TierConfig};
    use fp_sqlmini::Value;

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
            assert!(store.peek(id).unwrap().columnar.is_some());
            assert_eq!(store.tier_meta().unwrap().write().unwrap(), 1);
            store.peek(id).unwrap().footprint()
        };

        let mut restored = tiered_store(&config);
        assert_eq!(restored.recover_tier().recovered, 1);
        let rid = restored.lookup_exact("Q").unwrap();
        let slice = restored.disk_slice(rid).expect("restored demoted");
        let doc = Element::parse(std::str::from_utf8(slice.xml()).unwrap()).unwrap();
        let ((_, _, result, _, _, coord_idx), _) = entry_from_xml(&doc).unwrap();
        assert_eq!(coord_idx, [1, 2]);
        let columnar = fp_skyserver::ColumnarRows::build(&result, &coord_idx).map(Into::into);
        assert!(restored.promote(rid, result.into(), columnar));
        let entry = restored.peek(rid).unwrap();
        let col = entry.columnar.as_ref().expect("columnar rebuilt on load");
        assert_eq!(col.coord_idx(), &[1, 2]);
        assert_eq!(entry.footprint(), footprint);
        std::fs::remove_dir_all(&config.dir).unwrap();
    }
}
