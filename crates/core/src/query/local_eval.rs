//! Local evaluation of subsumed queries over cached tuples.
//!
//! "In essence, the evaluation of a subsumed query becomes that of a
//! spatial region selection query over cached results" (paper §3.2): the
//! proxy selects the cached tuples whose point — read from the declared
//! coordinate attributes — falls inside the new query's region. No other
//! predicate needs re-evaluation, because queries are only related within
//! one residual group (identical template, identical non-spatial
//! parameters).
//!
//! Two evaluation paths exist. The **columnar** path reads `f64`
//! coordinates straight out of an entry's [`ColumnarRows`] form (built
//! once at insert), pruning candidates through its spatial micro-index.
//! Every resident entry is such a form and keeps no tuples, so the serve
//! paths materialize only the rows they select from the form's slab
//! (`eval_answer_region`). The **row-major** path walks
//! `Vec<Vec<Value>>` tuples and re-parses every coordinate cell; it
//! serves no cached entry and remains as the reference the property
//! tests and the `local_eval` bench compare against.

use fp_geometry::Region;
use fp_skyserver::{ColumnarRows, ResultSet, SelectStats};

/// Reusable buffers for repeated local evaluations: the coordinate point
/// (the row-major path's; the columnar pass keeps its per-row
/// accumulators there) and the selected-row-id list survive across
/// calls, so steady-state evaluation allocates only the output rows.
#[derive(Debug, Default)]
pub struct EvalScratch {
    point: Vec<f64>,
    selected: Vec<u32>,
}

impl EvalScratch {
    /// The raw (point, selected) buffers, for serve paths that drive
    /// [`ColumnarRows::select_region`] directly (byte-level assembly).
    pub(crate) fn parts_mut(&mut self) -> (&mut Vec<f64>, &mut Vec<u32>) {
        (&mut self.point, &mut self.selected)
    }
}

/// Outcome of evaluating a region over one cached entry.
#[derive(Debug)]
pub struct EntryEval {
    /// The selected rows (same columns, same relative order as the
    /// cached result).
    pub result: ResultSet,
    /// Scan/prune/select counts for metrics.
    pub stats: SelectStats,
    /// Whether the columnar hot path served this evaluation (`false` =
    /// row-major fallback).
    pub columnar: bool,
}

/// Selects the rows of `result` whose coordinate-attribute point lies in
/// `region`. `coord_idx` maps region dimensions to result columns.
///
/// Returns `None` when some coordinate cell is non-numeric.
pub fn eval_region_over(
    result: &ResultSet,
    coord_idx: &[usize],
    region: &Region,
) -> Option<ResultSet> {
    let mut scratch = EvalScratch::default();
    eval_region_scratch(result, coord_idx, region, &mut scratch)
}

/// [`eval_region_over`] with caller-owned scratch buffers — the variant
/// the serve paths use so per-hit evaluation does not reallocate the
/// coordinate point.
pub fn eval_region_scratch(
    result: &ResultSet,
    coord_idx: &[usize],
    region: &Region,
    scratch: &mut EvalScratch,
) -> Option<ResultSet> {
    debug_assert_eq!(coord_idx.len(), region.dims());
    let mut out = ResultSet::empty(result.columns.clone());
    let point = &mut scratch.point;
    point.clear();
    point.resize(coord_idx.len(), 0.0);
    for row in &result.rows {
        for (d, &ci) in coord_idx.iter().enumerate() {
            point[d] = row.get(ci)?.as_f64()?;
        }
        if region.contains_coords(point) {
            out.rows.push(row.clone());
        }
    }
    Some(out)
}

/// Evaluates `region` over tuples, preferring their columnar form.
/// Returns `None` only when the row-major path hits a non-numeric
/// coordinate cell.
///
/// `columnar` is the entry's pre-built form, used when its coordinate
/// set matches `coord_idx`; both paths produce identical row sets in
/// identical order (pinned by `tests/columnar_equivalence.rs`).
pub fn eval_entry_region(
    result: &ResultSet,
    columnar: Option<&ColumnarRows>,
    coord_idx: &[usize],
    region: &Region,
    scratch: &mut EvalScratch,
) -> Option<EntryEval> {
    if let Some(col) = columnar {
        if col.coord_idx() == coord_idx {
            let stats = col.select_region(region, &mut scratch.selected, &mut scratch.point);
            let rows = scratch.selected.iter();
            return Some(EntryEval {
                result: ResultSet {
                    columns: result.columns.clone(),
                    rows: rows.map(|&r| result.rows[r as usize].clone()).collect(),
                },
                stats,
                columnar: true,
            });
        }
    }
    let out = eval_region_scratch(result, coord_idx, region, scratch)?;
    let stats = SelectStats {
        rows_total: result.len(),
        rows_scanned: result.len(),
        rows_selected: out.len(),
    };
    Some(EntryEval {
        result: out,
        stats,
        columnar: false,
    })
}

/// Selects a resident form's rows in `region` through its micro-index
/// and materializes only those from its slab. The caller has checked
/// that the form's coordinate set is the template's. `None` when the
/// slab does not parse.
pub(crate) fn eval_answer_region(
    form: &ColumnarRows,
    region: &Region,
    scratch: &mut EvalScratch,
) -> Option<EntryEval> {
    let stats = form.select_region(region, &mut scratch.selected, &mut scratch.point);
    Some(EntryEval {
        result: form.rows_of(&scratch.selected)?,
        stats,
        columnar: true,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use fp_geometry::{HyperRect, HyperSphere, Point};
    use fp_sqlmini::Value;

    fn result() -> ResultSet {
        ResultSet {
            columns: vec!["objID".into(), "x".into(), "y".into()],
            rows: vec![
                vec![Value::Int(1), Value::Float(0.1), Value::Float(0.1)],
                vec![Value::Int(2), Value::Float(0.9), Value::Float(0.9)],
                vec![Value::Int(3), Value::Float(2.0), Value::Float(2.0)],
                vec![Value::Int(4), Value::Int(0), Value::Int(0)],
            ],
        }
    }

    #[test]
    fn selects_points_inside_rect() {
        let region = Region::Rect(HyperRect::new(vec![0.0, 0.0], vec![1.0, 1.0]).unwrap());
        let out = eval_region_over(&result(), &[1, 2], &region).unwrap();
        let ids: Vec<i64> = out.rows.iter().map(|r| r[0].as_i64().unwrap()).collect();
        assert_eq!(ids, vec![1, 2, 4]);
        assert_eq!(out.columns, result().columns);
    }

    #[test]
    fn selects_points_inside_sphere() {
        let region = Region::Sphere(HyperSphere::new(Point::from_slice(&[0.0, 0.0]), 0.5).unwrap());
        let out = eval_region_over(&result(), &[1, 2], &region).unwrap();
        let ids: Vec<i64> = out.rows.iter().map(|r| r[0].as_i64().unwrap()).collect();
        assert_eq!(ids, vec![1, 4]);
    }

    #[test]
    fn non_numeric_coordinates_abort() {
        let mut r = result();
        r.rows[0][1] = Value::Str("oops".into());
        let region = Region::Rect(HyperRect::new(vec![0.0, 0.0], vec![1.0, 1.0]).unwrap());
        assert!(eval_region_over(&r, &[1, 2], &region).is_none());
    }

    #[test]
    fn empty_input_is_empty_output() {
        let r = ResultSet::empty(vec!["objID".into(), "x".into(), "y".into()]);
        let region = Region::Rect(HyperRect::new(vec![0.0, 0.0], vec![1.0, 1.0]).unwrap());
        let out = eval_region_over(&r, &[1, 2], &region).unwrap();
        assert!(out.is_empty());
    }

    #[test]
    fn scratch_is_reusable_across_calls() {
        let mut scratch = EvalScratch::default();
        let r2 = result();
        let rect2 = Region::Rect(HyperRect::new(vec![0.0, 0.0], vec![1.0, 1.0]).unwrap());
        let a = eval_region_scratch(&r2, &[1, 2], &rect2, &mut scratch).unwrap();
        assert_eq!(a.len(), 3);
        // Different dimensionality next: the point buffer resizes.
        let r1 = ResultSet {
            columns: vec!["objID".into(), "x".into()],
            rows: vec![vec![Value::Int(1), Value::Float(0.5)]],
        };
        let rect1 = Region::Rect(HyperRect::new(vec![0.0], vec![1.0]).unwrap());
        let b = eval_region_scratch(&r1, &[1], &rect1, &mut scratch).unwrap();
        assert_eq!(b.len(), 1);
    }

    #[test]
    fn entry_eval_prefers_columnar_and_matches_row_major() {
        let base = result();
        let region = Region::Rect(HyperRect::new(vec![0.0, 0.0], vec![1.0, 1.0]).unwrap());
        let col = ColumnarRows::build(&base, &[1, 2]).unwrap();
        let mut scratch = EvalScratch::default();
        let fast = eval_entry_region(&base, Some(&col), &[1, 2], &region, &mut scratch).unwrap();
        assert!(fast.columnar);
        let slow = eval_entry_region(&base, None, &[1, 2], &region, &mut scratch).unwrap();
        assert!(!slow.columnar);
        assert_eq!(fast.result, slow.result);
        assert_eq!(fast.stats.rows_selected, slow.stats.rows_selected);
        // Row-major path scans everything; columnar may prune.
        assert_eq!(slow.stats.rows_scanned, base.len());
    }

    #[test]
    fn entry_eval_mismatched_coord_set_falls_back() {
        let base = result();
        // Columnar built over (y, x) but the query wants (x, y): the
        // pre-built form must not be used.
        let col = ColumnarRows::build(&base, &[2, 1]).unwrap();
        let region = Region::Rect(HyperRect::new(vec![0.0, 0.0], vec![1.0, 1.0]).unwrap());
        let mut scratch = EvalScratch::default();
        let eval = eval_entry_region(&base, Some(&col), &[1, 2], &region, &mut scratch).unwrap();
        assert!(!eval.columnar);
        assert_eq!(eval.result.len(), 3);
    }
}
