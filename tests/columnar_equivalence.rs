//! Property tests pinning the columnar hot path to the row-major
//! reference: for arbitrary cached results (including NaN coordinates
//! and non-numeric cells) and arbitrary regions (rect / sphere /
//! polytope), columnar selection must produce the identical row set in
//! the identical order, and the zero-copy byte assembly must reproduce
//! the tree serializer byte for byte. A seeded sweep does the same at
//! every entry size where the index or the block geometry changes, in
//! one to four dimensions, with rows placed on the region's ε fringe.

use fp_suite::geometry::EPS;
use fp_suite::geometry::{HalfSpace, HyperRect, HyperSphere, Point, Polytope, Region};
use fp_suite::proxy::query::{eval_entry_region, eval_region_over, EvalScratch};
use fp_suite::skyserver::columnar::result_to_xml_bytes;
use fp_suite::skyserver::{accounted_xml_bytes, ColumnarRows, IndexKind, ResultSet};
use fp_suite::sqlmini::Value;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;

/// Coordinate cells: mostly finite floats in the interesting window,
/// some integers, some NaN (numeric, never selected), and — rarely —
/// a non-numeric cell that must poison both evaluation paths alike.
fn arb_coord() -> impl Strategy<Value = Value> {
    prop_oneof![
        8 => (-2.0f64..2.0).prop_map(Value::Float),
        2 => (-2i64..2).prop_map(Value::Int),
        1 => Just(Value::Float(f64::NAN)),
        1 => Just(Value::Str("not-a-number".to_string())),
    ]
}

/// Payload cells exercise every serialization case: ints, floats,
/// strings needing XML escaping, empty strings, and nulls.
fn arb_payload() -> impl Strategy<Value = Value> {
    prop_oneof![
        (-1000i64..1000).prop_map(Value::Int),
        (-1.0f64..1.0).prop_map(Value::Float),
        Just(Value::Str("a<b&\"c\">'d'".to_string())),
        Just(Value::Str(String::new())),
        Just(Value::Null),
    ]
}

fn arb_result() -> impl Strategy<Value = ResultSet> {
    prop::collection::vec((arb_coord(), arb_coord(), arb_payload()), 0..80).prop_map(|cells| {
        ResultSet {
            columns: vec!["objID".into(), "x".into(), "y".into(), "tag".into()],
            rows: cells
                .into_iter()
                .enumerate()
                .map(|(i, (x, y, tag))| vec![Value::Int(i as i64), x, y, tag])
                .collect(),
        }
    })
}

fn arb_region() -> impl Strategy<Value = Region> {
    prop_oneof![
        // Axis-aligned rectangles.
        (-2.0f64..1.0, -2.0f64..1.0, 0.1f64..2.5, 0.1f64..2.5).prop_map(|(x, y, w, h)| {
            Region::Rect(HyperRect::new(vec![x, y], vec![x + w, y + h]).unwrap())
        }),
        // Balls.
        (-1.5f64..1.5, -1.5f64..1.5, 0.1f64..2.0).prop_map(|(x, y, r)| {
            Region::Sphere(HyperSphere::new(Point::from_slice(&[x, y]), r).unwrap())
        }),
        // Diamonds |p - c|_1 <= r as four half-spaces plus their bbox.
        (-1.5f64..1.5, -1.5f64..1.5, 0.1f64..2.0).prop_map(|(x, y, r)| {
            let faces = vec![
                HalfSpace::new(vec![1.0, 1.0], x + y + r).unwrap(),
                HalfSpace::new(vec![1.0, -1.0], x - y + r).unwrap(),
                HalfSpace::new(vec![-1.0, 1.0], y - x + r).unwrap(),
                HalfSpace::new(vec![-1.0, -1.0], -x - y + r).unwrap(),
            ];
            let bbox = HyperRect::new(vec![x - r, y - r], vec![x + r, y + r]).unwrap();
            Region::Polytope(Polytope::new(faces, bbox).unwrap())
        }),
    ]
}

/// Text for cells and column names: every escapable, multi-byte
/// scalars, plain ASCII, and (at length zero) the empty string.
fn arb_text() -> impl Strategy<Value = String> {
    let ch = prop_oneof![
        Just('&'),
        Just('<'),
        Just('>'),
        Just('"'),
        Just('\''),
        Just('é'),
        Just('中'),
        Just('😀'),
        any::<char>(),
    ];
    prop::collection::vec(ch, 0..10).prop_map(|chars| chars.into_iter().collect())
}

/// Cells of every `Value` variant, with the numbers whose display form
/// has a special case: non-finite floats, negative zero, integral
/// floats on both sides of the `{:.1}` cutoff at 1e15, and `i64::MIN`.
fn arb_cell() -> impl Strategy<Value = Value> {
    prop_oneof![
        Just(Value::Null),
        any::<i64>().prop_map(Value::Int),
        Just(Value::Int(i64::MIN)),
        any::<f64>().prop_map(Value::Float),
        prop_oneof![
            Just(f64::NAN),
            Just(f64::INFINITY),
            Just(f64::NEG_INFINITY),
            Just(-0.0),
            Just(42.0),
            Just(999_999_999_999_999.0),
            Just(1e15),
            Just(-1e15),
            Just(1.5e300),
        ]
        .prop_map(Value::Float),
        arb_text().prop_map(Value::Str),
        any::<bool>().prop_map(Value::Bool),
    ]
}

/// Arbitrary result sets of zero to four columns and zero to eleven
/// rows (the column count cuts fixed-width draws down to size).
fn arb_any_result() -> impl Strategy<Value = ResultSet> {
    (
        0usize..5,
        prop::collection::vec(arb_text(), 4),
        prop::collection::vec(prop::collection::vec(arb_cell(), 4), 0..12),
    )
        .prop_map(|(width, mut columns, mut rows)| {
            columns.truncate(width);
            for row in &mut rows {
                row.truncate(width);
            }
            ResultSet { columns, rows }
        })
}

const COORD_IDX: [usize; 2] = [1, 2];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Columnar selection ≡ row-major `eval_region_over`: same rows,
    /// same order — and the build rejects exactly the results the
    /// row-major path rejects (some non-numeric coordinate cell).
    #[test]
    fn columnar_selection_matches_row_major(rs in arb_result(), region in arb_region()) {
        let columnar = ColumnarRows::build(&rs, &COORD_IDX);
        let reference = eval_region_over(&rs, &COORD_IDX, &region);
        prop_assert_eq!(
            columnar.is_some(),
            reference.is_some(),
            "build and row-major eval must agree on malformed results"
        );
        let (Some(columnar), Some(reference)) = (columnar, reference) else { return Ok(()) };

        let mut scratch = EvalScratch::default();
        let fast = eval_entry_region(&rs, Some(&columnar), &COORD_IDX, &region, &mut scratch)
            .expect("numeric coordinates evaluate");
        prop_assert!(fast.columnar, "matching coordinate sets must take the fast path");
        prop_assert_eq!(&fast.result, &reference);
        prop_assert_eq!(fast.stats.rows_selected, reference.len());
        prop_assert!(fast.stats.rows_scanned <= rs.len(), "pruning never scans more than all rows");
        prop_assert!(fast.stats.rows_scanned >= fast.stats.rows_selected);
    }

    /// The pre-serialized slab assembles the same bytes the tree
    /// serializer produces, for any selected subset.
    #[test]
    fn assembled_bytes_match_tree_serializer(rs in arb_result(), region in arb_region()) {
        let Some(columnar) = ColumnarRows::build(&rs, &COORD_IDX) else { return Ok(()) };
        let mut selected = Vec::new();
        let mut point = Vec::new();
        columnar.select_region(&region, &mut selected, &mut point);
        let subset = columnar.rows_of(&selected).expect("the form's own slab parses");
        prop_assert_eq!(
            columnar.assemble_document(&selected),
            subset.to_xml_string().into_bytes(),
            "span assembly must be byte-identical to serialization"
        );
        // The full document too (the exact-hit serving path).
        prop_assert_eq!(columnar.full_document(), rs.to_xml_string().into_bytes());
    }

    /// The one serializer against the tree writer, through both sinks
    /// and through the columnar slab: same bytes, same count.
    #[test]
    fn serializer_sinks_match_tree_writer(rs in arb_any_result()) {
        let tree = rs.to_xml().to_xml();
        prop_assert_eq!(&result_to_xml_bytes(&rs), tree.as_bytes());
        prop_assert_eq!(rs.xml_bytes(), rs.to_xml_string().len());
        prop_assert_eq!(accounted_xml_bytes(&rs, None), tree.len());

        // A columnar form needs a numeric coordinate: lead with one.
        let mut keyed = rs;
        keyed.columns.insert(0, "x".into());
        for (i, row) in keyed.rows.iter_mut().enumerate() {
            row.insert(0, Value::Float(i as f64 / 4.0));
        }
        let columnar = ColumnarRows::build(&keyed, &[0]).expect("numeric coordinate");
        let bytes = result_to_xml_bytes(&keyed);
        prop_assert_eq!(&bytes, &keyed.to_xml().to_xml().into_bytes());
        prop_assert_eq!(columnar.full_document(), &bytes[..]);
        prop_assert_eq!(accounted_xml_bytes(&keyed, Some(&columnar)), bytes.len());
    }

    /// NaN coordinates are numeric (no fallback) but never selected.
    #[test]
    fn nan_rows_are_never_selected(region in arb_region()) {
        let rs = ResultSet {
            columns: vec!["objID".into(), "x".into(), "y".into(), "tag".into()],
            rows: vec![
                vec![Value::Int(0), Value::Float(f64::NAN), Value::Float(0.0), Value::Null],
                vec![Value::Int(1), Value::Float(0.0), Value::Float(f64::NAN), Value::Null],
            ],
        };
        let columnar = ColumnarRows::build(&rs, &COORD_IDX).expect("NaN is numeric");
        let mut scratch = EvalScratch::default();
        let fast = eval_entry_region(&rs, Some(&columnar), &COORD_IDX, &region, &mut scratch)
            .expect("NaN rows evaluate");
        prop_assert!(fast.result.is_empty());
        let reference = eval_region_over(&rs, &COORD_IDX, &region).expect("NaN rows evaluate");
        prop_assert!(reference.is_empty());
    }
}

/// Entry sizes on both sides of every boundary the selection has: no
/// rows, one row, a block (64) less / exactly / plus one, the flat→grid
/// switch (256) likewise, the former grid threshold, and a size whose
/// last block is ragged.
const MODEL_SIZES: [usize; 11] = [0, 1, 63, 64, 65, 255, 256, 257, 4_095, 4_096, 6_000];

/// Distances beyond a region's boundary at which rows are planted, on
/// both sides of the ε the tolerant membership allows: whatever it
/// accepts out there, the index must not lose.
const FRINGE: [f64; 6] = [
    0.0,
    0.5 * EPS,
    -0.5 * EPS,
    2.0 * EPS,
    -2.0 * EPS,
    0.999 * EPS,
];

/// A ball, a box or a cross-polytope (`Σ|xᵢ − cᵢ| ≤ r`, all `2^dims`
/// faces, bounding box declared) around `center`.
fn model_region(shape: usize, center: &[f64], r: f64) -> Region {
    let dims = center.len();
    let lo: Vec<f64> = center.iter().map(|c| c - r).collect();
    let hi: Vec<f64> = center.iter().map(|c| c + r).collect();
    match shape {
        0 => Region::Sphere(HyperSphere::new(Point::from_slice(center), r).unwrap()),
        1 => Region::Rect(HyperRect::new(lo, hi).unwrap()),
        _ => {
            let faces = (0..1u32 << dims)
                .map(|signs| {
                    let normal: Vec<f64> = (0..dims)
                        .map(|d| if signs >> d & 1 == 1 { -1.0 } else { 1.0 })
                        .collect();
                    let offset = r + normal.iter().zip(center).map(|(n, c)| n * c).sum::<f64>();
                    HalfSpace::new(normal, offset).unwrap()
                })
                .collect();
            Region::Polytope(Polytope::new(faces, HyperRect::new(lo, hi).unwrap()).unwrap())
        }
    }
}

/// `rows` rows of `objID, c0..c{dims-1}, tag`: uniform points around the
/// region, NaN and ±∞ coordinates, repeats of the row before, and
/// points pushed along one axis to the region's boundary ± [`FRINGE`].
fn model_entry(rng: &mut StdRng, rows: usize, center: &[f64], r: f64) -> ResultSet {
    let dims = center.len();
    let mut columns = vec!["objID".to_string()];
    columns.extend((0..dims).map(|d| format!("c{d}")));
    columns.push("tag".into());
    let mut coords: Vec<Vec<f64>> = Vec::with_capacity(rows);
    for _ in 0..rows {
        let mut point: Vec<f64> = (0..dims).map(|_| rng.gen_range(-1.5..1.5)).collect();
        match rng.gen_range(0..20) {
            0 => point[rng.gen_range(0..dims)] = f64::NAN,
            1 => point[rng.gen_range(0..dims)] = f64::INFINITY,
            2 => point[rng.gen_range(0..dims)] = f64::NEG_INFINITY,
            3 | 4 => {
                if let Some(previous) = coords.last() {
                    point = previous.clone();
                }
            }
            5..=8 => {
                // On an axis through the centre the distance to it, the
                // box's face and the polytope's face all are `r` away.
                point = center.to_vec();
                let axis = rng.gen_range(0..dims);
                let off = r + FRINGE[rng.gen_range(0..FRINGE.len())];
                point[axis] += if rng.gen_bool(0.5) { off } else { -off };
            }
            _ => {}
        }
        coords.push(point);
    }
    ResultSet {
        columns,
        rows: coords
            .into_iter()
            .enumerate()
            .map(|(i, point)| {
                let mut row = vec![Value::Int(i as i64)];
                row.extend(point.into_iter().map(Value::Float));
                row.push(Value::Str(format!("t<{i}>")));
                row
            })
            .collect(),
    }
}

/// Selection ≡ the row-major model, id for id, and the document of the
/// selection ≡ the serialized model result, byte for byte.
#[test]
fn selection_and_document_match_the_model_at_every_size_and_shape() {
    let mut rng = StdRng::seed_from_u64(0x5E1EC7);
    let (mut selected, mut acc) = (Vec::new(), Vec::new());
    let mut fringe_rows_kept = 0;
    for dims in 1..=4usize {
        let coord_idx: Vec<usize> = (1..=dims).collect();
        for shape in 0..3 {
            for &rows in &MODEL_SIZES {
                // From a query nothing lies in to one everything finite
                // lies in.
                let r = [1e-7, 0.4, 0.9, 40.0][rng.gen_range(0..4)];
                let center: Vec<f64> = (0..dims).map(|_| rng.gen_range(-0.5..0.5)).collect();
                let region = model_region(shape, &center, r);
                let rs = model_entry(&mut rng, rows, &center, r);
                let model = eval_region_over(&rs, &coord_idx, &region).expect("numeric");
                let model_ids: Vec<u32> = model
                    .rows
                    .iter()
                    .map(|row| row[0].as_i64().unwrap() as u32)
                    .collect();
                let model_bytes = model.to_xml_string().into_bytes();
                fringe_rows_kept += model_ids.len();

                let built = ColumnarRows::build(&rs, &coord_idx).expect("numeric");
                assert_eq!(
                    built.index_kind(),
                    if rows < 256 {
                        IndexKind::Flat
                    } else {
                        IndexKind::Grid
                    }
                );
                for kind in [IndexKind::Flat, IndexKind::Grid] {
                    let what = format!("{dims}-D shape {shape}, {rows} rows, r={r}, {kind:?}");
                    let col = Arc::new(
                        ColumnarRows::build_with_index(&rs, &coord_idx, kind).expect("numeric"),
                    );
                    let stats = col.select_region(&region, &mut selected, &mut acc);
                    assert_eq!(selected, model_ids, "{what}");
                    assert_eq!(stats.rows_total, rows, "{what}");
                    assert_eq!(stats.rows_selected, model_ids.len(), "{what}");
                    assert!(stats.rows_selected <= stats.rows_scanned, "{what}");
                    assert!(stats.rows_scanned <= stats.rows_total, "{what}");
                    let doc = col.doc_of(&selected);
                    assert_eq!(doc.len(), model_bytes.len(), "{what}");
                    assert_eq!(doc.to_vec(), model_bytes, "{what}");
                }
            }
        }
    }
    assert!(fringe_rows_kept > 10_000, "the sweep must select something");
}
