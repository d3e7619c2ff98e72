//! Columnar cache-entry representation: structure-of-arrays coordinate
//! columns, a per-entry spatial micro-index, and a pre-serialized row
//! slab for zero-copy response assembly.
//!
//! The proxy answers a contained query by "a spatial region selection
//! query over cached results" (paper §3.2), so the latency of a hit *is*
//! the latency of that selection plus response serialization. The
//! row-major [`ResultSet`] makes both expensive: every query re-parses
//! coordinate cells out of [`Value`]s and every response re-serializes
//! the XML document. [`ColumnarRows`] does that work **once, at insert
//! time**:
//!
//! * the declared coordinate attributes are extracted into one `Vec<f64>`
//!   per dimension (structure of arrays — the selection loop reads plain
//!   floats, no `Value` matching, no per-row allocation);
//! * a small micro-index (see [`IndexKind`]) over those columns prunes
//!   candidate rows
//!   before the exact containment test (entries are at most a few
//!   thousand rows, so the index is zones over a sort order or a uniform
//!   grid, not a tree);
//! * every row's `<Row>…</Row>` XML fragment is serialized into one
//!   contiguous byte slab with per-row `(offset, len)` spans, so a
//!   response is assembled by copying byte ranges between a shared
//!   header and footer — byte-identical to the [`Element`]-tree
//!   serialization, without ever touching `Value`s again.
//!
//! [`Element`]: fp_xmlite::Element

use crate::result::ResultSet;
use fp_geometry::Region;
use fp_sqlmini::Value;
use fp_xmlite::{escape_text_into, escaped_len};
use std::{fmt, io};

/// Closing tag shared by every assembled document.
pub const FOOTER: &[u8] = b"</ResultSet>";

/// Rows per zone of [`MicroIndex::Zones`]. Small enough that one zone's
/// exact tests are cheap, large enough that the per-zone bounding boxes
/// stay a small fraction of the column data.
const ZONE_ROWS: usize = 64;

/// Below this row count no index beats a straight scan of the SoA
/// columns (measured in `benches/local_eval.rs`; the scan is a handful
/// of nanoseconds per row).
const FLAT_MAX_ROWS: usize = 256;

/// At and above this row count the uniform grid overtakes sorted zones
/// for selective queries (measured crossover, see DESIGN.md §8: zones
/// prune only along the sort dimension, the grid prunes along two).
const GRID_MIN_ROWS: usize = 4096;

/// Statistics of one columnar selection, for metrics and benches.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SelectStats {
    /// Rows in the entry.
    pub rows_total: usize,
    /// Candidate rows the micro-index let through to the exact test.
    pub rows_scanned: usize,
    /// Rows selected.
    pub rows_selected: usize,
}

impl SelectStats {
    /// Rows the micro-index pruned without an exact containment test.
    pub fn rows_pruned(&self) -> usize {
        self.rows_total - self.rows_scanned
    }
}

/// Which micro-index variant a [`ColumnarRows`] uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IndexKind {
    /// No index: scan every row (tiny entries).
    Flat,
    /// Rows sorted by the first coordinate, fixed-size zones with
    /// per-zone bounding boxes.
    Zones,
    /// Uniform grid over the first two dimensions with per-cell row
    /// lists (first dimension only when the entry is 1-D).
    Grid,
}

/// The per-entry spatial micro-index over the SoA columns.
#[derive(Debug, Clone)]
enum MicroIndex {
    Flat,
    Zones {
        /// Row ids in ascending order of the first coordinate.
        order: Vec<u32>,
        /// Zone bounding boxes, zone-major: `lo[z * dims + d]`.
        lo: Vec<f64>,
        hi: Vec<f64>,
    },
    Grid {
        /// Cells in row-major order (`cy * side + cx`); each holds row
        /// ids. Rows with non-finite grid coordinates go to `overflow`,
        /// which every query scans (the exact test rejects them anyway).
        cells: Vec<Vec<u32>>,
        side: usize,
        min: [f64; 2],
        inv_step: [f64; 2],
        overflow: Vec<u32>,
    },
}

/// The columnar form of one cached result. Immutable once built.
#[derive(Debug, Clone)]
pub struct ColumnarRows {
    /// Result-column index per region dimension (the coordinate set the
    /// columns were extracted for).
    coord_idx: Vec<usize>,
    /// SoA coordinate columns: `cols[d][row]`.
    cols: Vec<Vec<f64>>,
    /// Concatenated `<Row>…</Row>` fragments.
    slab: Vec<u8>,
    /// Per-row `(offset, len)` into `slab`.
    spans: Vec<(u32, u32)>,
    /// `<ResultSet><Columns>…</Columns>` prefix shared by every response
    /// assembled from this entry.
    header: Vec<u8>,
    index: MicroIndex,
}

impl ColumnarRows {
    /// Builds the columnar form of `rs` for the coordinate columns at
    /// `coord_idx` (region dimension order), choosing the micro-index by
    /// the measured size crossover.
    ///
    /// Returns `None` when any coordinate cell is out of range or
    /// non-numeric — exactly the condition under which row-major local
    /// evaluation aborts, so "columnar form exists" and "entry is
    /// locally evaluable" coincide.
    pub fn build(rs: &ResultSet, coord_idx: &[usize]) -> Option<ColumnarRows> {
        let kind = match rs.len() {
            n if n < FLAT_MAX_ROWS => IndexKind::Flat,
            n if n < GRID_MIN_ROWS => IndexKind::Zones,
            _ => IndexKind::Grid,
        };
        Self::build_with_index(rs, coord_idx, kind)
    }

    /// [`Self::build`] with an explicit index choice (benches measure
    /// the crossover; production code uses `build`).
    pub fn build_with_index(
        rs: &ResultSet,
        coord_idx: &[usize],
        kind: IndexKind,
    ) -> Option<ColumnarRows> {
        let dims = coord_idx.len();
        if dims == 0 {
            return None;
        }
        let rows = rs.len();

        // SoA extraction: parse every coordinate cell exactly once.
        let mut cols: Vec<Vec<f64>> = vec![Vec::with_capacity(rows); dims];
        for row in &rs.rows {
            for (d, &ci) in coord_idx.iter().enumerate() {
                cols[d].push(row.get(ci)?.as_f64()?);
            }
        }

        // Row slab: serialize every <Row> fragment once, contiguously.
        let mut slab = Vec::with_capacity(rows * 32);
        let mut spans = Vec::with_capacity(rows);
        for row in &rs.rows {
            let start = slab.len();
            write_row_xml(row, &mut slab);
            spans.push((start as u32, (slab.len() - start) as u32));
        }

        let mut header = Vec::with_capacity(32 + rs.columns.len() * 12);
        write_document_header(&rs.columns, &mut header);

        let index = match kind {
            IndexKind::Flat => MicroIndex::Flat,
            IndexKind::Zones => build_zones(&cols, rows),
            IndexKind::Grid => build_grid(&cols, rows),
        };

        Some(ColumnarRows {
            coord_idx: coord_idx.to_vec(),
            cols,
            slab,
            spans,
            header,
            index,
        })
    }

    /// The coordinate set this form was built for.
    pub fn coord_idx(&self) -> &[usize] {
        &self.coord_idx
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Whether the entry has no rows.
    pub fn is_empty(&self) -> bool {
        self.spans.is_empty()
    }

    /// Which micro-index variant was built.
    pub fn index_kind(&self) -> IndexKind {
        match self.index {
            MicroIndex::Flat => IndexKind::Flat,
            MicroIndex::Zones { .. } => IndexKind::Zones,
            MicroIndex::Grid { .. } => IndexKind::Grid,
        }
    }

    /// Heap bytes held beyond the row-major result: the coordinate
    /// columns, the slab, the spans, and the index — the amount the
    /// cache's capacity accounting charges on top of the XML size.
    pub fn heap_bytes(&self) -> usize {
        let cols: usize = self.cols.iter().map(|c| c.len() * 8).sum();
        let index = match &self.index {
            MicroIndex::Flat => 0,
            MicroIndex::Zones { order, lo, hi } => order.len() * 4 + (lo.len() + hi.len()) * 8,
            MicroIndex::Grid {
                cells, overflow, ..
            } => cells.iter().map(|c| c.len() * 4 + 24).sum::<usize>() + overflow.len() * 4,
        };
        cols + self.slab.len() + self.spans.len() * 8 + self.header.len() + index
    }

    /// Selects the rows whose coordinate point lies in `region`, pushing
    /// ascending row ids into `out` (cleared first). `scratch` is the
    /// reusable point buffer; any capacity is accepted.
    ///
    /// The result — ids, order, and all — matches row-major
    /// `eval_region_over` on the same entry by construction; the
    /// property test in `tests/columnar_equivalence.rs` pins this.
    pub fn select_region(
        &self,
        region: &Region,
        out: &mut Vec<u32>,
        scratch: &mut Vec<f64>,
    ) -> SelectStats {
        out.clear();
        let dims = self.cols.len();
        scratch.clear();
        scratch.resize(dims, 0.0);
        let bbox = region.bounding_rect();
        let (qlo, qhi) = (bbox.lo(), bbox.hi());
        let mut scanned = 0usize;

        let mut test = |r: u32, out: &mut Vec<u32>, scanned: &mut usize| {
            *scanned += 1;
            for (cell, col) in scratch.iter_mut().zip(&self.cols) {
                *cell = col[r as usize];
            }
            if region.contains_coords(scratch) {
                out.push(r);
            }
        };

        match &self.index {
            MicroIndex::Flat => {
                for r in 0..self.len() as u32 {
                    test(r, out, &mut scanned);
                }
            }
            MicroIndex::Zones { order, lo, hi } => {
                for (z, zone) in order.chunks(ZONE_ROWS).enumerate() {
                    let zlo = &lo[z * dims..(z + 1) * dims];
                    let zhi = &hi[z * dims..(z + 1) * dims];
                    // Zones are sorted by dim 0: once a zone starts past
                    // the query's upper bound, no later zone can match.
                    if zlo[0] > qhi[0] {
                        break;
                    }
                    if boxes_disjoint(zlo, zhi, qlo, qhi) {
                        continue;
                    }
                    for &r in zone {
                        test(r, out, &mut scanned);
                    }
                }
                // Zone order is dim-0 order; callers get row order.
                out.sort_unstable();
            }
            MicroIndex::Grid {
                cells,
                side,
                min,
                inv_step,
                overflow,
            } => {
                let clamp = |v: f64, axis: usize| -> usize {
                    (((v - min[axis]) * inv_step[axis]) as isize).clamp(0, *side as isize - 1)
                        as usize
                };
                let gdims = if dims >= 2 { 2 } else { 1 };
                let (x0, x1) = (clamp(qlo[0], 0), clamp(qhi[0], 0));
                let (y0, y1) = if gdims == 2 {
                    (clamp(qlo[1], 1), clamp(qhi[1], 1))
                } else {
                    (0, 0)
                };
                for cy in y0..=y1 {
                    for cx in x0..=x1 {
                        for &r in &cells[cy * side + cx] {
                            test(r, out, &mut scanned);
                        }
                    }
                }
                for &r in overflow {
                    test(r, out, &mut scanned);
                }
                out.sort_unstable();
            }
        }

        SelectStats {
            rows_total: self.len(),
            rows_scanned: scanned,
            rows_selected: out.len(),
        }
    }

    /// Assembles the complete XML response document for the selected
    /// rows by copying byte ranges: header + each row's slab span +
    /// footer. No `Value` is touched and nothing is re-serialized.
    pub fn assemble_document(&self, rows: &[u32]) -> Vec<u8> {
        self.assemble_document_with(&self.slab, rows)
    }

    /// [`Self::assemble_document`] over an external copy of the row slab
    /// (e.g. an mmap'd byte slice of a demoted entry whose resident
    /// skeleton dropped its own slab). The spans were computed for the
    /// slab this form was built from, so `slab` must be byte-identical
    /// to it.
    pub fn assemble_document_with(&self, slab: &[u8], rows: &[u32]) -> Vec<u8> {
        let body: usize = rows
            .iter()
            .map(|&r| self.spans[r as usize].1 as usize)
            .sum();
        let mut out = Vec::with_capacity(self.header.len() + body + FOOTER.len());
        out.extend_from_slice(&self.header);
        for &r in rows {
            let (off, len) = self.spans[r as usize];
            out.extend_from_slice(&slab[off as usize..(off + len) as usize]);
        }
        out.extend_from_slice(FOOTER);
        out
    }

    /// Assembles the whole entry's document (exact-match hits): one
    /// straight copy of the slab between header and footer.
    pub fn full_document(&self) -> Vec<u8> {
        self.full_document_with(&self.slab)
    }

    /// [`Self::full_document`] over an external copy of the row slab
    /// (see [`Self::assemble_document_with`]).
    pub fn full_document_with(&self, slab: &[u8]) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.header.len() + slab.len() + FOOTER.len());
        out.extend_from_slice(&self.header);
        out.extend_from_slice(slab);
        out.extend_from_slice(FOOTER);
        out
    }

    /// The pre-serialized row slab: every row's `<Row>…</Row>` fragment,
    /// concatenated. This is the byte payload the tiered cache spills to
    /// disk; [`Self::skeleton`] + this slab reconstruct every response.
    pub fn slab(&self) -> &[u8] {
        &self.slab
    }

    /// A copy of this form without the row slab: coordinate columns,
    /// spans, header, and micro-index stay resident (classification and
    /// region selection keep working), while response assembly needs an
    /// external slab ([`Self::assemble_document_with`]). This is the
    /// RAM-resident part of a disk-demoted cache entry.
    pub fn skeleton(&self) -> ColumnarRows {
        ColumnarRows {
            coord_idx: self.coord_idx.clone(),
            cols: self.cols.clone(),
            slab: Vec::new(),
            spans: self.spans.clone(),
            header: self.header.clone(),
            index: self.index.clone(),
        }
    }

    /// Materializes the selected rows as a row-major result (for callers
    /// that need `Value`s — the simulation replay path; the HTTP path
    /// uses [`Self::assemble_document`] instead).
    pub fn materialize(&self, base: &ResultSet, rows: &[u32]) -> ResultSet {
        ResultSet {
            columns: base.columns.clone(),
            rows: rows
                .iter()
                .map(|&r| base.rows[r as usize].clone())
                .collect(),
        }
    }
}

/// Whether two axis-aligned boxes (closed, slice form) do not intersect.
/// NaN bounds (empty zones) compare false everywhere, reporting disjoint.
fn boxes_disjoint(alo: &[f64], ahi: &[f64], blo: &[f64], bhi: &[f64]) -> bool {
    alo.iter()
        .zip(ahi)
        .zip(blo.iter().zip(bhi))
        .any(|((al, ah), (bl, bh))| !(al <= bh && bl <= ah))
}

fn build_zones(cols: &[Vec<f64>], rows: usize) -> MicroIndex {
    let dims = cols.len();
    let mut order: Vec<u32> = (0..rows as u32).collect();
    // NaN sorts last under total_cmp; those rows fail every containment
    // test, so their zone placement is irrelevant.
    order.sort_unstable_by(|&a, &b| cols[0][a as usize].total_cmp(&cols[0][b as usize]));
    let zones = order.len().div_ceil(ZONE_ROWS);
    let mut lo = vec![f64::INFINITY; zones * dims];
    let mut hi = vec![f64::NEG_INFINITY; zones * dims];
    for (z, zone) in order.chunks(ZONE_ROWS).enumerate() {
        for &r in zone {
            for d in 0..dims {
                let v = cols[d][r as usize];
                // f64::min/max drop NaN, keeping the bbox finite.
                lo[z * dims + d] = lo[z * dims + d].min(v);
                hi[z * dims + d] = hi[z * dims + d].max(v);
            }
        }
    }
    MicroIndex::Zones { order, lo, hi }
}

fn build_grid(cols: &[Vec<f64>], rows: usize) -> MicroIndex {
    let gdims = if cols.len() >= 2 { 2 } else { 1 };
    // Aim for ~8 rows per cell on a square grid.
    let target_cells = (rows / 8).max(1);
    let side = if gdims == 2 {
        (target_cells as f64).sqrt().ceil() as usize
    } else {
        target_cells
    }
    .clamp(1, 64);

    let mut min = [f64::INFINITY; 2];
    let mut max = [f64::NEG_INFINITY; 2];
    for axis in 0..gdims {
        for &v in &cols[axis] {
            min[axis] = min[axis].min(v);
            max[axis] = max[axis].max(v);
        }
    }
    let mut inv_step = [0.0f64; 2];
    for axis in 0..gdims {
        let span = max[axis] - min[axis];
        inv_step[axis] = if span.is_finite() && span > 0.0 {
            side as f64 / span
        } else {
            0.0
        };
    }

    let cell_count = if gdims == 2 { side * side } else { side };
    let mut cells: Vec<Vec<u32>> = vec![Vec::new(); cell_count];
    let mut overflow = Vec::new();
    for r in 0..rows as u32 {
        let coord = |axis: usize| cols[axis][r as usize];
        if (0..gdims).any(|axis| !coord(axis).is_finite()) {
            overflow.push(r);
            continue;
        }
        let cell_of = |axis: usize| {
            (((coord(axis) - min[axis]) * inv_step[axis]) as isize).clamp(0, side as isize - 1)
                as usize
        };
        let idx = if gdims == 2 {
            cell_of(1) * side + cell_of(0)
        } else {
            cell_of(0)
        };
        cells[idx].push(r);
    }
    // `side` doubles as the row stride for 2-D lookup; for the 1-D case
    // a single "row" of cells with stride `side` behaves identically.
    MicroIndex::Grid {
        cells,
        side,
        min,
        inv_step,
        overflow,
    }
}

/// Where the serializer's output goes. `Vec<u8>` keeps the document;
/// [`ByteCount`] only measures it, so sizing a result for the cache's
/// byte accounting or the origin's cost model materializes nothing.
pub(crate) trait XmlSink {
    /// Markup, copied verbatim.
    fn raw(&mut self, bytes: &[u8]);
    /// Character data, entity-escaped on the way in.
    fn text(&mut self, text: &str);
    /// A non-string cell's display form (digits, sign, point, exponent,
    /// `NaN`, `inf`, `true`/`false`) — never contains an escapable.
    fn display(&mut self, value: fmt::Arguments<'_>);
}

impl XmlSink for Vec<u8> {
    fn raw(&mut self, bytes: &[u8]) {
        self.extend_from_slice(bytes);
    }

    fn text(&mut self, text: &str) {
        escape_text_into(text, self);
    }

    fn display(&mut self, value: fmt::Arguments<'_>) {
        io::Write::write_fmt(self, value).expect("writing to a Vec cannot fail");
    }
}

/// The counting sink: the length of what a `Vec<u8>` sink would hold.
#[derive(Default)]
pub(crate) struct ByteCount(pub(crate) usize);

impl fmt::Write for ByteCount {
    fn write_str(&mut self, s: &str) -> fmt::Result {
        self.0 += s.len();
        Ok(())
    }
}

impl XmlSink for ByteCount {
    fn raw(&mut self, bytes: &[u8]) {
        self.0 += bytes.len();
    }

    fn text(&mut self, text: &str) {
        self.0 += escaped_len(text);
    }

    fn display(&mut self, value: fmt::Arguments<'_>) {
        fmt::Write::write_fmt(self, value).expect("counting cannot fail");
    }
}

/// Serializes the shared document prefix:
/// `<ResultSet><Columns><C>…</C>…</Columns>`.
fn write_document_header(columns: &[String], out: &mut impl XmlSink) {
    out.raw(b"<ResultSet>");
    if columns.is_empty() {
        out.raw(b"<Columns/>");
    } else {
        out.raw(b"<Columns>");
        for c in columns {
            out.raw(b"<C>");
            out.text(c);
            out.raw(b"</C>");
        }
        out.raw(b"</Columns>");
    }
}

/// Serializes one `<Row>…</Row>` fragment, byte-identical to the
/// [`fp_xmlite::Element`] tree built by [`ResultSet::to_xml`] (pinned by
/// tests; note a non-null empty string still yields `<V></V>`, because
/// the tree form carries an empty text node). Cells go straight into the
/// sink: strings through the escaper, everything else through `Value`'s
/// own `Display`, which is what the tree form's `to_string()` runs.
fn write_row_xml(row: &[Value], out: &mut impl XmlSink) {
    if row.is_empty() {
        out.raw(b"<Row/>");
        return;
    }
    out.raw(b"<Row>");
    for v in row {
        match v {
            Value::Null => out.raw(b"<V null=\"1\"/>"),
            Value::Str(s) => {
                out.raw(b"<V>");
                out.text(s);
                out.raw(b"</V>");
            }
            number => {
                out.raw(b"<V>");
                out.display(format_args!("{number}"));
                out.raw(b"</V>");
            }
        }
    }
    out.raw(b"</Row>");
}

/// The one serializer: the whole result document into `out`.
pub(crate) fn write_result_xml(rs: &ResultSet, out: &mut impl XmlSink) {
    write_document_header(&rs.columns, out);
    for row in &rs.rows {
        write_row_xml(row, out);
    }
    out.raw(FOOTER);
}

/// Serializes the whole result document directly into bytes —
/// byte-identical to `rs.to_xml().to_xml()` without building the element
/// tree. This is the serving path of results that have no columnar form.
pub fn result_to_xml_bytes(rs: &ResultSet) -> Vec<u8> {
    let mut out = Vec::new();
    write_result_xml(rs, &mut out);
    out
}

/// The XML size the cache accounts for `rs`, equal to
/// [`ResultSet::xml_bytes`]. With the result's columnar form at hand
/// (the full form [`ColumnarRows::build`] returned for `rs`, not a
/// [`ColumnarRows::skeleton`]) the size is read off the slab that build
/// just serialized; only a result without one is walked, by the
/// counting sink.
pub fn accounted_xml_bytes(rs: &ResultSet, columnar: Option<&ColumnarRows>) -> usize {
    match columnar {
        Some(col) => {
            debug_assert_eq!(col.len(), rs.len());
            debug_assert_eq!(
                col.spans
                    .last()
                    .map_or(0, |&(off, len)| (off + len) as usize),
                col.slab.len(),
                "a skeleton carries no slab to size"
            );
            col.header.len() + col.slab.len() + FOOTER.len()
        }
        None => rs.xml_bytes(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fp_geometry::{HyperRect, HyperSphere, Point};

    fn rs(n: usize) -> ResultSet {
        ResultSet {
            columns: vec!["objID".into(), "x".into(), "y".into(), "tag".into()],
            rows: (0..n)
                .map(|i| {
                    let f = i as f64 / n as f64;
                    vec![
                        Value::Int(i as i64),
                        Value::Float(f),
                        Value::Float(1.0 - f),
                        Value::Str(format!("t{i}")),
                    ]
                })
                .collect(),
        }
    }

    fn rect(lo: f64, hi: f64) -> Region {
        Region::Rect(HyperRect::new(vec![lo, lo], vec![hi, hi]).unwrap())
    }

    #[test]
    fn build_extracts_soa_columns() {
        let c = ColumnarRows::build(&rs(10), &[1, 2]).unwrap();
        assert_eq!(c.len(), 10);
        assert_eq!(c.cols.len(), 2);
        assert_eq!(c.cols[0][3], 0.3);
        assert_eq!(c.cols[1][3], 0.7);
        assert_eq!(c.index_kind(), IndexKind::Flat);
    }

    #[test]
    fn build_rejects_non_numeric_coordinates() {
        let mut r = rs(4);
        r.rows[2][1] = Value::Str("oops".into());
        assert!(ColumnarRows::build(&r, &[1, 2]).is_none());
        // Non-coordinate strings are fine.
        assert!(ColumnarRows::build(&rs(4), &[1, 2]).is_some());
        // Out-of-range column index.
        assert!(ColumnarRows::build(&rs(4), &[1, 9]).is_none());
        // Empty coordinate set is not a columnar entry.
        assert!(ColumnarRows::build(&rs(4), &[]).is_none());
    }

    #[test]
    fn all_index_kinds_select_identically() {
        let base = rs(1000);
        let regions = [
            rect(0.2, 0.4),
            rect(-1.0, 2.0),
            rect(0.9, 0.95),
            Region::Sphere(HyperSphere::new(Point::from_slice(&[0.5, 0.5]), 0.1).unwrap()),
        ];
        let (mut out, mut scratch) = (Vec::new(), Vec::new());
        for region in &regions {
            let mut reference: Option<Vec<u32>> = None;
            for kind in [IndexKind::Flat, IndexKind::Zones, IndexKind::Grid] {
                let c = ColumnarRows::build_with_index(&base, &[1, 2], kind).unwrap();
                assert_eq!(c.index_kind(), kind);
                let stats = c.select_region(region, &mut out, &mut scratch);
                assert_eq!(stats.rows_selected, out.len());
                assert_eq!(stats.rows_total, 1000);
                assert!(stats.rows_scanned <= stats.rows_total);
                match &reference {
                    Some(want) => assert_eq!(&out, want, "kind {kind:?} differs on {region}"),
                    None => reference = Some(out.clone()),
                }
            }
        }
    }

    #[test]
    fn zones_and_grid_prune() {
        let base = rs(2000);
        let region = rect(0.1, 0.15);
        let (mut out, mut scratch) = (Vec::new(), Vec::new());
        for kind in [IndexKind::Zones, IndexKind::Grid] {
            let c = ColumnarRows::build_with_index(&base, &[1, 2], kind).unwrap();
            let stats = c.select_region(&region, &mut out, &mut scratch);
            assert!(
                stats.rows_scanned < stats.rows_total / 2,
                "{kind:?} scanned {} of {}",
                stats.rows_scanned,
                stats.rows_total
            );
            assert!(stats.rows_pruned() > 0);
        }
    }

    #[test]
    fn nan_rows_are_never_selected() {
        let mut base = rs(600);
        base.rows[5][1] = Value::Float(f64::NAN);
        base.rows[300][2] = Value::Float(f64::NAN);
        let (mut out, mut scratch) = (Vec::new(), Vec::new());
        for kind in [IndexKind::Flat, IndexKind::Zones, IndexKind::Grid] {
            let c = ColumnarRows::build_with_index(&base, &[1, 2], kind).unwrap();
            c.select_region(&rect(-10.0, 10.0), &mut out, &mut scratch);
            assert!(!out.contains(&5));
            assert!(!out.contains(&300));
            assert_eq!(out.len(), 598);
        }
    }

    #[test]
    fn assembled_documents_match_tree_serialization() {
        let base = ResultSet {
            columns: vec!["objID".into(), "x".into(), "note".into()],
            rows: vec![
                vec![
                    Value::Int(1),
                    Value::Float(0.5),
                    Value::Str("a<b&\"".into()),
                ],
                vec![Value::Int(2), Value::Float(1.5), Value::Null],
                vec![Value::Int(3), Value::Float(2.5), Value::Str(String::new())],
            ],
        };
        let c = ColumnarRows::build(&base, &[1]).unwrap();

        // Full document == Element-tree serialization of the whole set.
        assert_eq!(
            String::from_utf8(c.full_document()).unwrap(),
            base.to_xml().to_xml()
        );
        assert_eq!(result_to_xml_bytes(&base), c.full_document());

        // A selection == Element-tree serialization of the filtered set.
        let picked = [0u32, 2];
        let filtered = c.materialize(&base, &picked);
        assert_eq!(
            String::from_utf8(c.assemble_document(&picked)).unwrap(),
            filtered.to_xml().to_xml()
        );
    }

    #[test]
    fn empty_results_serialize_identically() {
        let empty = ResultSet::empty(vec!["a".into()]);
        assert_eq!(
            String::from_utf8(result_to_xml_bytes(&empty)).unwrap(),
            empty.to_xml().to_xml()
        );
        let no_columns = ResultSet::empty(vec![]);
        assert_eq!(
            String::from_utf8(result_to_xml_bytes(&no_columns)).unwrap(),
            no_columns.to_xml().to_xml()
        );
    }

    #[test]
    fn skeleton_assembles_with_external_slab() {
        let base = rs(50);
        let c = ColumnarRows::build(&base, &[1, 2]).unwrap();
        let slab = c.slab().to_vec();
        let sk = c.skeleton();
        assert!(sk.slab().is_empty());
        assert_eq!(sk.full_document_with(&slab), c.full_document());
        let picked = [0u32, 7, 33];
        assert_eq!(
            sk.assemble_document_with(&slab, &picked),
            c.assemble_document(&picked)
        );
        // The skeleton still selects (columns + index are resident) and
        // charges less heap than the full form.
        let (mut out, mut scratch) = (Vec::new(), Vec::new());
        sk.select_region(&rect(0.4, 0.6), &mut out, &mut scratch);
        assert!(!out.is_empty());
        assert!(sk.heap_bytes() < c.heap_bytes());
    }

    #[test]
    fn heap_bytes_accounts_slab_and_columns() {
        let c = ColumnarRows::build(&rs(100), &[1, 2]).unwrap();
        assert!(c.heap_bytes() > c.slab.len());
        assert!(c.heap_bytes() >= 100 * 2 * 8);
    }
}
