//! Columnar cache-entry representation: structure-of-arrays coordinate
//! columns, a per-entry spatial micro-index, and a pre-serialized row
//! slab that responses lend ranges of.
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
//!   per dimension, stored in the micro-index's scan order, so the rows
//!   the index lets through are contiguous floats and the containment
//!   verdict is a pass per dimension over them (no `Value` matching, no
//!   per-row dispatch on the region kind, no per-row allocation);
//! * a small micro-index (see [`IndexKind`]) decides which runs of that
//!   order a query has to look at (entries are at most a few thousand
//!   rows, so the index is a uniform grid, not a tree);
//! * every row's `<Row>…</Row>` XML fragment is serialized into one
//!   contiguous byte slab with per-row `(offset, len)` spans, so a
//!   response is a [`SlabDoc`] — the shared header, ranges of the slab,
//!   the footer — byte-identical to the [`Element`]-tree serialization,
//!   without ever touching `Value`s again and without copying a row
//!   until an API that promises contiguous bytes asks for them.
//!
//! [`Element`]: fp_xmlite::Element

use crate::result::ResultSet;
use fp_geometry::{HalfSpace, HyperRect, Region, EPS};
use fp_sqlmini::Value;
use fp_xmlite::{escape_text_into, escaped_len, unescape_text};
use std::cell::RefCell;
use std::sync::Arc;
use std::{fmt, io};

/// Closing tag shared by every assembled document.
pub const FOOTER: &[u8] = b"</ResultSet>";

/// Rows the column pass judges at a time: one `u64` of verdicts.
const BLOCK: usize = 64;

/// Below this row count the entry is scanned whole in row order
/// (measured in `benches/local_eval.rs`, see DESIGN.md §8: up to here a
/// grid saves a selective query at most 0.3 µs and costs a query that
/// keeps most of the entry as much, for 4 B a row).
const FLAT_MAX_ROWS: usize = 256;

/// Statistics of one columnar selection, for metrics and benches.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SelectStats {
    /// Rows in the entry.
    pub rows_total: usize,
    /// Rows in the blocks the micro-index let through to the exact test.
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
    /// No index: rows stay in row order and every one is scanned (tiny
    /// entries).
    Flat,
    /// Uniform grid over the first two dimensions, rows sorted by cell
    /// (first dimension only when the entry is 1-D).
    Grid,
}

/// The per-entry spatial micro-index: which runs of the scan order a
/// query box can touch.
#[derive(Debug, Clone)]
enum MicroIndex {
    Flat,
    Grid {
        /// Cell `c` (row-major, `cy * side + cx`) holds scan positions
        /// `cell_start[c]..cell_start[c + 1]`; the cells of one grid row
        /// are therefore one contiguous run. Rows with non-finite grid
        /// coordinates sit after the last cell and every query scans
        /// them (the exact test rejects them anyway).
        cell_start: Vec<u32>,
        side: usize,
        min: [f64; 2],
        inv_step: [f64; 2],
    },
}

/// The columnar form of one cached result. Immutable once built.
#[derive(Debug, Clone)]
pub struct ColumnarRows {
    /// Result-column index per region dimension (the coordinate set the
    /// columns were extracted for).
    coord_idx: Vec<usize>,
    /// SoA coordinate columns in scan order: `cols[d][p]` belongs to row
    /// `order[p]`.
    cols: Vec<Vec<f64>>,
    /// Scan position → row id. Empty = the identity ([`IndexKind::Flat`]).
    order: Vec<u32>,
    /// Concatenated `<Row>…</Row>` fragments, in row order.
    slab: Vec<u8>,
    /// Per-row `(offset, len)` into `slab`.
    spans: Vec<(u32, u32)>,
    /// `<ResultSet><Columns>…</Columns>` prefix shared by every response
    /// assembled from this entry.
    header: Vec<u8>,
    /// The result's column names, for tuples materialized from the slab
    /// ([`Self::rows_of`]) and for name lookups.
    columns: Vec<String>,
    index: MicroIndex,
}

/// What one selection needs besides its output: the query's bounding
/// box and one bit per row of the entry. Kept per thread and reused, so
/// a selection allocates nothing once they have grown to working size.
struct SelectScratch {
    bbox: HyperRect,
    hits: Vec<u64>,
}

thread_local! {
    static SELECT: RefCell<SelectScratch> = RefCell::new(SelectScratch {
        bbox: HyperRect::new(vec![0.0], vec![0.0]).expect("a point is a valid box"),
        hits: Vec::new(),
    });
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
        let kind = if rs.len() < FLAT_MAX_ROWS {
            IndexKind::Flat
        } else {
            IndexKind::Grid
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

        let (order, index) = match kind {
            IndexKind::Flat => (Vec::new(), MicroIndex::Flat),
            IndexKind::Grid => build_grid(&mut cols),
        };

        Some(ColumnarRows {
            coord_idx: coord_idx.to_vec(),
            cols,
            order,
            slab,
            spans,
            header,
            columns: rs.columns.clone(),
            index,
        })
    }

    /// The coordinate set this form was built for.
    pub fn coord_idx(&self) -> &[usize] {
        &self.coord_idx
    }

    /// The result's column names.
    pub fn columns(&self) -> &[String] {
        &self.columns
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
            MicroIndex::Grid { .. } => IndexKind::Grid,
        }
    }

    /// Heap bytes of the form: the coordinate columns, the slab, the
    /// spans, the header and the index (not the column names) — the
    /// second term of the cache's capacity charge, after the XML size.
    pub fn heap_bytes(&self) -> usize {
        let cols: usize = self.cols.iter().map(|c| c.len() * 8).sum();
        let index = match &self.index {
            MicroIndex::Flat => 0,
            MicroIndex::Grid { cell_start, .. } => cell_start.len() * 4,
        };
        cols + self.order.len() * 4
            + self.slab.len()
            + self.spans.len() * 8
            + self.header.len()
            + index
    }

    /// Selects the rows whose coordinate point lies in `region`, pushing
    /// ascending row ids into `out` (cleared first). `scratch` holds the
    /// column pass's per-row accumulators; any capacity is accepted.
    ///
    /// The micro-index only picks runs of the scan order; inside a run
    /// the verdict is computed one dimension at a time over
    /// contiguous coordinates, with the same floating-point operations
    /// in the same order as [`Region::contains_coords`], so the result —
    /// ids, order, and all — matches row-major `eval_region_over` on the
    /// same entry; the property test in `tests/columnar_equivalence.rs`
    /// pins this.
    pub fn select_region(
        &self,
        region: &Region,
        out: &mut Vec<u32>,
        scratch: &mut Vec<f64>,
    ) -> SelectStats {
        out.clear();
        scratch.clear();
        scratch.resize(BLOCK, 0.0);
        let cols = &self.cols[..];
        let scanned = SELECT.with(|select| {
            let SelectScratch { bbox, hits } = &mut *select.borrow_mut();
            hits.clear();
            hits.resize(self.len().div_ceil(BLOCK), 0);
            let query = region.bounding_rect_in(bbox);
            let scanned = match region {
                Region::Sphere(ball) => {
                    let center = ball.center().coords();
                    // `approx_le(d², r²)`, the sum hoisted.
                    let limit = ball.radius() * ball.radius() + EPS;
                    self.scan_blocks(query, hits, |at, len| {
                        ball_verdicts(cols, center, limit, at, &mut scratch[..len])
                    })
                }
                Region::Rect(rect) => {
                    self.scan_blocks(query, hits, |at, len| box_verdicts(cols, rect, at, len))
                }
                Region::Polytope(poly) => self.scan_blocks(query, hits, |at, len| {
                    box_verdicts(cols, poly.bbox(), at, len)
                        & faces_verdicts(cols, poly.faces(), at, &mut scratch[..len])
                }),
            };
            out.reserve(hits.iter().map(|w| w.count_ones() as usize).sum());
            for (w, &word) in hits.iter().enumerate() {
                let mut bits = word;
                while bits != 0 {
                    out.push((w * BLOCK) as u32 + bits.trailing_zeros());
                    bits &= bits - 1;
                }
            }
            scanned
        });
        SelectStats {
            rows_total: self.len(),
            rows_scanned: scanned,
            rows_selected: out.len(),
        }
    }

    /// Walks the runs of the scan order that can hold a point of the
    /// `query` box a block at a time, asks `verdicts(at, len)`
    /// (`len <= BLOCK`) for each block's bit mask, and sets the bit of
    /// every accepted row in `hits`. Returns how many rows the visited
    /// runs hold.
    fn scan_blocks(
        &self,
        query: &HyperRect,
        hits: &mut [u64],
        mut verdicts: impl FnMut(usize, usize) -> u64,
    ) -> usize {
        let rows = self.len();
        let (qlo, qhi) = (query.lo(), query.hi());
        let mut scanned = 0;
        let mut visit = |from: usize, to: usize| {
            scanned += to - from;
            let mut at = from;
            while at < to {
                let len = (to - at).min(BLOCK);
                let mut mask = verdicts(at, len);
                if self.order.is_empty() {
                    // Row order, and every block starts on a word.
                    hits[at / BLOCK] = mask;
                } else {
                    let ids = &self.order[at..at + len];
                    while mask != 0 {
                        let row = ids[mask.trailing_zeros() as usize] as usize;
                        hits[row / BLOCK] |= 1 << (row % BLOCK);
                        mask &= mask - 1;
                    }
                }
                at += len;
            }
        };
        match &self.index {
            MicroIndex::Flat => visit(0, rows),
            MicroIndex::Grid {
                cell_start,
                side,
                min,
                inv_step,
            } => {
                let clamp = |v: f64, axis: usize| -> usize {
                    (((v - min[axis]) * inv_step[axis]) as isize).clamp(0, *side as isize - 1)
                        as usize
                };
                // Membership is ε-tolerant and the box is not: a row up
                // to EPS outside it can pass the exact test, so the cell
                // range covers that fringe (twice over, for rounding).
                let fringe = 2.0 * EPS;
                let (x0, x1) = (clamp(qlo[0] - fringe, 0), clamp(qhi[0] + fringe, 0));
                let (y0, y1) = if self.cols.len() >= 2 {
                    (clamp(qlo[1] - fringe, 1), clamp(qhi[1] + fringe, 1))
                } else {
                    (0, 0)
                };
                for cy in y0..=y1 {
                    let row = cy * side;
                    visit(
                        cell_start[row + x0] as usize,
                        cell_start[row + x1 + 1] as usize,
                    );
                }
                let cells = cell_start.len() - 1;
                visit(cell_start[cells] as usize, rows);
            }
        }
        scanned
    }

    /// The complete XML response document for the selected rows
    /// (ascending ids), as contiguous bytes: [`Self::doc_of`] for callers
    /// that hold no `Arc` and want a `Vec`.
    pub fn assemble_document(&self, rows: &[u32]) -> Vec<u8> {
        let (ranges, len) = self.coalesce(rows);
        flatten(&self.header, &self.slab, &ranges, len)
    }

    /// The whole entry's document as contiguous bytes.
    pub fn full_document(&self) -> Vec<u8> {
        let len = self.header.len() + self.slab.len() + FOOTER.len();
        flatten(
            &self.header,
            &self.slab,
            &[(0, self.slab.len() as u32)],
            len,
        )
    }

    /// The whole entry's document (exact-match hits): the single range
    /// `0..slab.len()` between header and footer.
    pub fn doc(self: &Arc<Self>) -> SlabDoc {
        let slab_len = self.slab_len();
        SlabDoc {
            form: Arc::clone(self),
            lent: None,
            ranges: match slab_len {
                0 => Vec::new(),
                n => vec![(0, n as u32)],
            },
            len: self.header.len() + slab_len + FOOTER.len(),
        }
    }

    /// The document of the selected rows (ascending ids): their spans,
    /// adjacent ones merged, between header and footer. Nothing is
    /// copied; the document keeps this form alive.
    pub fn doc_of(self: &Arc<Self>, rows: &[u32]) -> SlabDoc {
        let (ranges, len) = self.coalesce(rows);
        SlabDoc {
            form: Arc::clone(self),
            lent: None,
            ranges,
            len,
        }
    }

    /// The slab byte ranges of `rows` (ascending ids) in row order, the
    /// spans of consecutive rows merged into one, and the length of the
    /// document they make.
    fn coalesce(&self, rows: &[u32]) -> (Vec<(u32, u32)>, usize) {
        // Rows lie back to back in the slab, so spans touch exactly
        // where ids are consecutive: count the runs, allocate once, and
        // look spans up only where a run starts and ends.
        let breaks = rows.windows(2).filter(|w| w[1] != w[0] + 1).count();
        let mut ranges = Vec::with_capacity(breaks + usize::from(!rows.is_empty()));
        let mut body = 0;
        let mut run = rows;
        while let Some(&first) = run.first() {
            let len = 1 + run.windows(2).take_while(|w| w[1] == w[0] + 1).count();
            let start = self.spans[first as usize].0;
            let (last_off, last_len) = self.spans[run[len - 1] as usize];
            ranges.push((start, last_off + last_len));
            body += (last_off + last_len - start) as usize;
            run = &run[len..];
        }
        (ranges, self.header.len() + body + FOOTER.len())
    }

    /// Length of the whole entry's document: header, row slab, footer —
    /// the XML size the cache accounts for the result. A skeleton knows
    /// it too, from its spans.
    pub fn document_len(&self) -> usize {
        self.header.len() + self.slab_len() + FOOTER.len()
    }

    /// Length of the slab the spans index — of this form's own, or of
    /// the one a skeleton left behind.
    fn slab_len(&self) -> usize {
        self.spans
            .last()
            .map_or(0, |&(off, len)| (off + len) as usize)
    }

    /// The pre-serialized row slab: every row's `<Row>…</Row>` fragment,
    /// concatenated. This is the byte payload the tiered cache spills to
    /// disk; [`Self::skeleton`] + this slab reconstruct every response.
    pub fn slab(&self) -> &[u8] {
        &self.slab
    }

    /// A copy of this form without the row slab: coordinate columns,
    /// spans, header, and micro-index stay resident (classification and
    /// region selection keep working), while a document needs the slab
    /// lent from outside ([`SlabDoc::over`]). This is the RAM-resident
    /// part of a disk-demoted cache entry.
    pub fn skeleton(&self) -> ColumnarRows {
        ColumnarRows {
            coord_idx: self.coord_idx.clone(),
            cols: self.cols.clone(),
            order: self.order.clone(),
            slab: Vec::new(),
            spans: self.spans.clone(),
            header: self.header.clone(),
            columns: self.columns.clone(),
            index: self.index.clone(),
        }
    }

    /// Materializes rows `ids` (in the order given) as tuples, parsed
    /// straight out of their slab fragments — for the callers that need
    /// `Value`s (row responses, merges); documents use [`Self::doc_of`].
    /// Each cell reads back as [`ResultSet::from_xml`] reads the same
    /// document: its unescaped text through `Value::from_form_text`.
    ///
    /// `None` when a fragment is damaged (not the shape the serializer
    /// writes, or not one cell per column), an id is out of range, or
    /// the form is a skeleton, whose slab is not here.
    pub fn rows_of(&self, ids: &[u32]) -> Option<ResultSet> {
        let mut rows = Vec::with_capacity(ids.len());
        for &id in ids {
            let &(off, len) = self.spans.get(id as usize)?;
            let fragment = self.slab.get(off as usize..(off + len) as usize)?;
            rows.push(parse_row_xml(fragment, self.columns.len())?);
        }
        Some(ResultSet {
            columns: self.columns.clone(),
            rows,
        })
    }
}

/// A form lends its own slab to the documents made from it.
impl AsRef<[u8]> for ColumnarRows {
    fn as_ref(&self) -> &[u8] {
        &self.slab
    }
}

/// Whoever keeps a document's row bytes alive and in place: a resident
/// entry's [`ColumnarRows`], or — for a demoted entry — the pinned view
/// of its slab-file segment.
pub type SlabOwner = Arc<dyn AsRef<[u8]> + Send + Sync>;

/// A served document: header, ranges of a shared row slab, footer. It is
/// built once by selection, its length is known before any byte moves,
/// and the rows it names are copied only by [`SlabDoc::to_vec`] — a
/// socket sends them from where they lie ([`SlabDoc::into_parts`]).
/// Holding the document pins the slab, not the cache entry: it stays
/// valid after the entry is evicted, promoted or compacted away.
#[derive(Clone)]
pub struct SlabDoc {
    /// Header and spans; the slab too unless one is `lent`.
    form: Arc<ColumnarRows>,
    /// The slab of a form that is a skeleton.
    lent: Option<SlabOwner>,
    /// `(start, end)` byte ranges of the slab, in row order.
    ranges: Vec<(u32, u32)>,
    /// Header + ranges + footer.
    len: usize,
}

#[allow(clippy::len_without_is_empty)] // header and footer: never empty
impl SlabDoc {
    /// The same document over `slab`, a byte-identical copy of the slab
    /// its form was built from (a demoted entry's mapped segment; the
    /// form is then the resident skeleton). `None` when `slab` is not of
    /// that length, whatever it holds.
    pub fn over(mut self, slab: SlabOwner) -> Option<SlabDoc> {
        if (*slab).as_ref().len() != self.form.slab_len() {
            return None;
        }
        self.lent = Some(slab);
        Some(self)
    }

    /// The document of `rows` (ascending ids) of the same entry, over
    /// the same slab — a contained hit on an entry whose whole document
    /// is this one.
    pub fn of_rows(&self, rows: &[u32]) -> SlabDoc {
        let (ranges, len) = self.form.coalesce(rows);
        SlabDoc {
            form: Arc::clone(&self.form),
            lent: self.lent.clone(),
            ranges,
            len,
        }
    }

    /// The form whose header and spans this document uses (its micro-
    /// index selects the rows for [`Self::of_rows`]).
    pub fn form(&self) -> &ColumnarRows {
        &self.form
    }

    /// Length of the whole document in bytes.
    pub fn len(&self) -> usize {
        self.len
    }

    /// The `<ResultSet><Columns>…</Columns>` prefix.
    pub fn header(&self) -> &[u8] {
        &self.form.header
    }

    /// How many slab ranges lie between header and footer.
    pub fn range_count(&self) -> usize {
        self.ranges.len()
    }

    fn slab(&self) -> &[u8] {
        match &self.lent {
            Some(slab) => (**slab).as_ref(),
            None => &self.form.slab,
        }
    }

    /// The document as contiguous bytes — the one place row bytes are
    /// copied, for the APIs that promise a `Vec`.
    pub fn to_vec(&self) -> Vec<u8> {
        flatten(self.header(), self.slab(), &self.ranges, self.len)
    }

    /// What follows [`Self::header`]: the slab's owner, the
    /// `(start, end)` ranges of it, and the footer.
    pub fn into_parts(self) -> (SlabOwner, Vec<(u32, u32)>, &'static [u8]) {
        let owner = match self.lent {
            Some(slab) => slab,
            None => self.form,
        };
        (owner, self.ranges, FOOTER)
    }
}

impl fmt::Debug for SlabDoc {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SlabDoc")
            .field("len", &self.len)
            .field("ranges", &self.ranges.len())
            .field("lent", &self.lent.is_some())
            .finish()
    }
}

/// `header`, the `ranges` of `slab`, [`FOOTER`]: `len` bytes in all.
fn flatten(header: &[u8], slab: &[u8], ranges: &[(u32, u32)], len: usize) -> Vec<u8> {
    let mut out = Vec::with_capacity(len);
    out.extend_from_slice(header);
    for &(start, end) in ranges {
        out.extend_from_slice(&slab[start as usize..end as usize]);
    }
    out.extend_from_slice(FOOTER);
    debug_assert_eq!(out.len(), len);
    out
}

/// One bit per element of `values`: whether it passes `test`.
#[inline]
fn verdict_mask(values: &[f64], test: impl Fn(f64) -> bool) -> u64 {
    debug_assert!(values.len() <= BLOCK);
    values
        .iter()
        .enumerate()
        .fold(0, |mask, (i, &v)| mask | (u64::from(test(v)) << i))
}

/// Ball membership of the `acc.len()` rows at scan position `at`:
/// squared distances accumulated in dimension order, as
/// `dist2_slices(center, point)` does, then `d² <= limit`. A NaN
/// coordinate makes the sum NaN, which fails.
#[inline]
fn ball_verdicts(cols: &[Vec<f64>], center: &[f64], limit: f64, at: usize, acc: &mut [f64]) -> u64 {
    acc.fill(0.0);
    for (col, &c) in cols.iter().zip(center) {
        for (sum, &x) in acc.iter_mut().zip(&col[at..]) {
            let diff = c - x;
            *sum += diff * diff;
        }
    }
    verdict_mask(acc, |d2| d2 <= limit)
}

/// Box membership of the `len` rows at scan position `at`: per
/// dimension `approx_le(lo, x) & approx_le(x, hi)`, and-ed. NaN fails
/// both comparisons.
#[inline]
fn box_verdicts(cols: &[Vec<f64>], rect: &HyperRect, at: usize, len: usize) -> u64 {
    let mut mask = u64::MAX;
    for ((col, &lo), &hi) in cols.iter().zip(rect.lo()).zip(rect.hi()) {
        let hi = hi + EPS;
        mask &= verdict_mask(&col[at..at + len], |x| (lo <= x + EPS) & (x <= hi));
    }
    mask
}

/// Half-space membership of the `acc.len()` rows at scan position `at`,
/// all `faces` and-ed: per face the dot product accumulated in dimension
/// order, as `dot_slices(normal, point)` does, then
/// `approx_le(dot, offset)`.
#[inline]
fn faces_verdicts(cols: &[Vec<f64>], faces: &[HalfSpace], at: usize, acc: &mut [f64]) -> u64 {
    let mut mask = u64::MAX;
    for face in faces {
        acc.fill(0.0);
        for (col, &n) in cols.iter().zip(face.normal()) {
            for (sum, &x) in acc.iter_mut().zip(&col[at..]) {
                *sum += n * x;
            }
        }
        let limit = face.offset() + EPS;
        mask &= verdict_mask(acc, |dot| dot <= limit);
    }
    mask
}

/// Rewrites every column from row order into `order`'s.
fn permute(cols: &mut [Vec<f64>], order: &[u32]) {
    for col in cols {
        *col = order.iter().map(|&r| col[r as usize]).collect();
    }
}

fn build_grid(cols: &mut [Vec<f64>]) -> (Vec<u32>, MicroIndex) {
    let rows = cols[0].len();
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
        // Of the finite coordinates: the others take no cell.
        for &v in cols[axis].iter().filter(|v| v.is_finite()) {
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

    // Counting sort by cell; `side` doubles as the row stride, and a 1-D
    // entry is a single grid row. Non-finite rows take the cell past the
    // last.
    let cell_count = if gdims == 2 { side * side } else { side };
    let cell_of = |r: usize| -> usize {
        let coord = |axis: usize| cols[axis][r];
        if (0..gdims).any(|axis| !coord(axis).is_finite()) {
            return cell_count;
        }
        let along = |axis: usize| {
            (((coord(axis) - min[axis]) * inv_step[axis]) as isize).clamp(0, side as isize - 1)
                as usize
        };
        if gdims == 2 {
            along(1) * side + along(0)
        } else {
            along(0)
        }
    };
    let mut cell_start = vec![0u32; cell_count + 1];
    for r in 0..rows {
        if let Some(count) = cell_start.get_mut(cell_of(r) + 1) {
            *count += 1;
        }
    }
    for c in 0..cell_count {
        cell_start[c + 1] += cell_start[c];
    }
    let mut next = cell_start.clone();
    let mut order = vec![0u32; rows];
    for r in 0..rows {
        let slot = &mut next[cell_of(r)];
        order[*slot as usize] = r as u32;
        *slot += 1;
    }
    permute(cols, &order);
    (
        order,
        MicroIndex::Grid {
            cell_start,
            side,
            min,
            inv_step,
        },
    )
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

/// The null cell: what [`write_row_xml`] writes for `Value::Null` and
/// [`parse_row_xml`] reads back.
const NULL_CELL: &[u8] = b"<V null=\"1\"/>";

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
            Value::Null => out.raw(NULL_CELL),
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

/// Parses one fragment [`write_row_xml`] wrote back into `width` cells.
/// Its inverse up to the coercion every reader of the document applies:
/// a cell is its unescaped, trimmed text through
/// `Value::from_form_text`. `None` unless the fragment has exactly that
/// shape — `<Row/>`, or `<Row>` then `<V>text</V>` or a null cell per
/// column, then `</Row>`.
fn parse_row_xml(fragment: &[u8], width: usize) -> Option<Vec<Value>> {
    if fragment == b"<Row/>" {
        return (width == 0).then(Vec::new);
    }
    let mut rest = fragment.strip_prefix(b"<Row>")?.strip_suffix(b"</Row>")?;
    let mut row = Vec::with_capacity(width);
    while !rest.is_empty() {
        if let Some(tail) = rest.strip_prefix(NULL_CELL) {
            row.push(Value::Null);
            rest = tail;
            continue;
        }
        let body = rest.strip_prefix(b"<V>")?;
        let end = body.iter().position(|&b| b == b'<')?;
        let text = std::str::from_utf8(&body[..end]).ok()?;
        row.push(if text.contains('&') {
            Value::from_form_text(&unescape_text(text).ok()?)
        } else {
            Value::from_form_text(text)
        });
        rest = body[end..].strip_prefix(b"</V>")?;
    }
    (row.len() == width).then_some(row)
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
            col.document_len()
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
        assert!(c.order.is_empty(), "a flat entry keeps row order");
    }

    /// `cols[d][p]` is row `order[p]`'s coordinate, `order` is a
    /// permutation, and the grid's cells partition it.
    #[test]
    fn grid_columns_are_stored_in_scan_order() {
        let mut base = rs(5000);
        base.rows[17][1] = Value::Float(f64::NAN);
        base.rows[4000][2] = Value::Float(f64::INFINITY);
        let c = ColumnarRows::build(&base, &[1, 2]).unwrap();
        let mut seen = c.order.clone();
        seen.sort_unstable();
        assert!(seen.iter().copied().eq(0..5000), "a permutation");
        for (p, &r) in c.order.iter().enumerate() {
            for (d, ci) in [1, 2].into_iter().enumerate() {
                let want = base.rows[r as usize][ci].as_f64().unwrap();
                assert_eq!(c.cols[d][p].to_bits(), want.to_bits(), "p={p}");
            }
        }
        let MicroIndex::Grid {
            cell_start, side, ..
        } = &c.index
        else {
            panic!("5000 rows are gridded");
        };
        assert_eq!(cell_start.len(), side * side + 1);
        assert!(cell_start.windows(2).all(|w| w[0] <= w[1]));
        assert_eq!(cell_start[0], 0);
        let overflow = &c.order[*cell_start.last().unwrap() as usize..];
        assert_eq!(overflow, &[17, 4000], "non-finite rows sit past the cells");
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
            for kind in [IndexKind::Flat, IndexKind::Grid] {
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
    fn the_grid_prunes() {
        let base = rs(2000);
        let c = ColumnarRows::build(&base, &[1, 2]).unwrap();
        assert_eq!(c.index_kind(), IndexKind::Grid);
        let (mut out, mut scratch) = (Vec::new(), Vec::new());
        let stats = c.select_region(&rect(0.1, 0.15), &mut out, &mut scratch);
        assert!(
            stats.rows_scanned < stats.rows_total / 2,
            "scanned {} of {}",
            stats.rows_scanned,
            stats.rows_total
        );
        assert!(stats.rows_pruned() > 0);
    }

    /// Membership is ε-tolerant: a row within EPS outside the query box
    /// is selected even when the box ends exactly on a cell boundary
    /// and the row lies in the cell beyond it.
    #[test]
    fn the_grid_keeps_rows_on_the_epsilon_fringe_of_a_cell_boundary() {
        // 512 rows over x ∈ [0, 64]: 64 cells, one per unit.
        let mut xs = vec![30.5; 512];
        (xs[0], xs[1]) = (0.0, 64.0);
        (xs[2], xs[3]) = (10.0 - 0.5 * EPS, 20.0);
        let base = ResultSet {
            columns: vec!["objID".into(), "x".into()],
            rows: xs
                .iter()
                .enumerate()
                .map(|(i, &x)| vec![Value::Int(i as i64), Value::Float(x)])
                .collect(),
        };
        let c = ColumnarRows::build(&base, &[1]).unwrap();
        let MicroIndex::Grid { side, inv_step, .. } = &c.index else {
            panic!("512 rows are gridded");
        };
        assert_eq!(
            (*side, inv_step[0]),
            (64, 1.0),
            "cell boundaries on integers"
        );
        let query = Region::Rect(HyperRect::new(vec![10.0], vec![20.0 - 1e-10]).unwrap());
        let (mut out, mut scratch) = (Vec::new(), Vec::new());
        let stats = c.select_region(&query, &mut out, &mut scratch);
        assert_eq!(out, [2, 3], "cells 9 and 20 hold the fringe rows");
        assert!(stats.rows_scanned < 16, "and the grid still prunes");
    }

    #[test]
    fn nan_rows_are_never_selected() {
        let mut base = rs(600);
        base.rows[5][1] = Value::Float(f64::NAN);
        base.rows[300][2] = Value::Float(f64::NAN);
        let (mut out, mut scratch) = (Vec::new(), Vec::new());
        for kind in [IndexKind::Flat, IndexKind::Grid] {
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
        let filtered = c.rows_of(&picked).unwrap();
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

    /// Adjacent selected rows share a range; a gap starts a new one.
    #[test]
    fn ranges_coalesce_where_rows_are_consecutive() {
        let base = rs(40);
        let c = Arc::new(ColumnarRows::build(&base, &[1, 2]).unwrap());
        let bytes = |rows: &[u32]| base_bytes(&c, &base, rows);

        let alternate: Vec<u32> = (0..40).step_by(2).collect();
        let doc = c.doc_of(&alternate);
        assert_eq!(doc.range_count(), 20, "one range per isolated row");
        assert_eq!(doc.to_vec(), bytes(&alternate));

        let all: Vec<u32> = (0..40).collect();
        let doc = c.doc_of(&all);
        assert_eq!(doc.range_count(), 1);
        assert_eq!(
            doc.ranges,
            c.doc().ranges,
            "every row = the exact hit's range"
        );
        assert_eq!(doc.to_vec(), c.full_document());
        assert_eq!(doc.len(), c.full_document().len());

        // Runs 3..=9 and 20..=29; `TOP 12` cuts inside the second.
        let mut runs: Vec<u32> = (3..10).chain(20..30).collect();
        runs.truncate(12);
        let doc = c.doc_of(&runs);
        assert_eq!(doc.range_count(), 2);
        let (first, second) = (doc.ranges[0], doc.ranges[1]);
        assert_eq!(first, (c.spans[3].0, c.spans[9].0 + c.spans[9].1));
        assert_eq!(second, (c.spans[20].0, c.spans[24].0 + c.spans[24].1));
        assert_eq!(doc.to_vec(), bytes(&runs));
        assert_eq!(doc.len(), doc.to_vec().len());

        let none = c.doc_of(&[]);
        assert_eq!(none.range_count(), 0);
        assert_eq!(none.to_vec(), bytes(&[]));
        let empty = Arc::new(ColumnarRows::build(&rs(0), &[1, 2]).unwrap());
        assert_eq!(empty.doc().range_count(), 0, "no empty range is queued");
        assert_eq!(empty.doc().to_vec(), empty.full_document());
    }

    /// The tree serialization of `rows` of `base`, read back from the
    /// form (whose cells all survive the document unchanged).
    fn base_bytes(c: &ColumnarRows, base: &ResultSet, rows: &[u32]) -> Vec<u8> {
        let subset = c.rows_of(rows).unwrap();
        assert_eq!(subset.columns, base.columns);
        subset.to_xml().to_xml().into_bytes()
    }

    #[test]
    fn skeleton_documents_borrow_an_external_slab() {
        let base = rs(50);
        let c = Arc::new(ColumnarRows::build(&base, &[1, 2]).unwrap());
        let slab: SlabOwner = Arc::new(c.slab().to_vec());
        let sk = Arc::new(c.skeleton());
        assert!(sk.slab().is_empty());
        assert_eq!(
            sk.doc().over(Arc::clone(&slab)).unwrap().to_vec(),
            c.full_document()
        );
        let picked = [0u32, 7, 33];
        let lent = sk.doc_of(&picked).over(Arc::clone(&slab)).unwrap();
        assert_eq!(lent.to_vec(), c.assemble_document(&picked));
        let (owner, ranges, footer) = lent.into_parts();
        assert_eq!(footer, FOOTER);
        assert!(Arc::ptr_eq(&owner, &slab), "the lender owns the bytes");
        assert_eq!(ranges.len(), 3);
        // A slab of any other length is not this form's.
        let short: SlabOwner = Arc::new(c.slab()[1..].to_vec());
        assert!(sk.doc().over(short).is_none());
        // The skeleton still selects (columns + index are resident) and
        // charges less heap than the full form.
        let (mut out, mut scratch) = (Vec::new(), Vec::new());
        sk.select_region(&rect(0.4, 0.6), &mut out, &mut scratch);
        assert!(!out.is_empty());
        assert!(sk.heap_bytes() < c.heap_bytes());
    }

    /// A form keeps its column names, and its skeleton does too; the
    /// document length is the accounted XML size, a skeleton's too.
    #[test]
    fn forms_and_skeletons_know_their_columns_and_document() {
        let base = rs(30);
        let c = ColumnarRows::build(&base, &[1, 2]).unwrap();
        assert_eq!(c.columns(), &base.columns[..]);
        assert_eq!(c.document_len(), base.xml_bytes());
        let sk = c.skeleton();
        assert_eq!(sk.columns(), c.columns());
        assert_eq!(sk.document_len(), c.document_len());
        assert_eq!(c.heap_bytes() - sk.heap_bytes(), c.slab.len());
    }

    /// Rows come back as the tree parse of their document reads them, in
    /// the order asked for, with the form's columns; a skeleton has no
    /// slab to read them from.
    #[test]
    fn rows_of_reads_fragments_back() {
        let base = rs(300);
        let c = ColumnarRows::build(&base, &[1, 2]).unwrap();
        assert_eq!(
            c.index_kind(),
            IndexKind::Grid,
            "scan order is not row order"
        );
        let all: Vec<u32> = (0..300).collect();
        assert_eq!(c.rows_of(&all).unwrap(), base);
        let some = c.rows_of(&[7, 3, 7]).unwrap();
        assert_eq!(some.columns, base.columns);
        assert_eq!(
            some.rows,
            [&base.rows[7], &base.rows[3], &base.rows[7]].map(Clone::clone)
        );
        assert_eq!(
            c.rows_of(&[]).unwrap(),
            ResultSet::empty(base.columns.clone())
        );
        assert_eq!(c.rows_of(&[300]), None, "out of range");
        assert_eq!(c.skeleton().rows_of(&[0]), None);
        assert!(c.skeleton().rows_of(&[]).is_some());
        // `<Row/>` (a result without columns) reads back as no cells.
        assert_eq!(parse_row_xml(b"<Row/>", 0), Some(Vec::new()));
        assert_eq!(parse_row_xml(b"<Row/>", 1), None);
    }

    /// `c` with row `row`'s fragment replaced by `fragment`.
    fn with_fragment(c: &ColumnarRows, row: usize, fragment: &[u8]) -> ColumnarRows {
        let mut damaged = c.clone();
        damaged.slab.clear();
        damaged.spans.clear();
        for (i, &(off, len)) in c.spans.iter().enumerate() {
            let bytes = match i == row {
                true => fragment,
                false => &c.slab[off as usize..(off + len) as usize],
            };
            let start = damaged.slab.len() as u32;
            damaged.slab.extend_from_slice(bytes);
            damaged.spans.push((start, bytes.len() as u32));
        }
        damaged
    }

    /// A damaged fragment reads back as `None`, never as a wrong row;
    /// the undamaged rows around it still read.
    #[test]
    fn a_damaged_fragment_materializes_nothing() {
        let c = ColumnarRows::build(&rs(4), &[1, 2]).unwrap();
        let (off, len) = c.spans[2];
        let good = &c.slab[off as usize..(off + len) as usize];
        assert_eq!(with_fragment(&c, 2, good).rows_of(&[2]), c.rows_of(&[2]));
        for damage in [
            &b"<Ro"[..],
            b"<Row><V>2</V><V>0.5</V><V>0.5</V><V>t2</V>",
            b"<Row><V>2</V><V>0.5</V><V>0.5</V><V>t2</Row>",
            b"<Row><V>2<V>0.5</V><V>0.5</V><V>t2</V></Row>",
            b"<Row><V>2</V><V>0.5</V><V>t2</V></Row>",
            b"<Row><V>2</V><V>0.5</V><V>0.5</V><V>t2</V><V>x</V></Row>",
            b"<Row><V>2</V><V>0.5</V><V>0.5</V><V>&bogus;</V></Row>",
            b"<Row><V>2</V><V null=\"0\"/><V>0.5</V><V>t2</V></Row>",
            b"<Row><V>\xff</V><V>0.5</V><V>0.5</V><V>t2</V></Row>",
            b"",
        ] {
            let damaged = with_fragment(&c, 2, damage);
            assert_eq!(
                damaged.rows_of(&[2]),
                None,
                "{}",
                String::from_utf8_lossy(damage)
            );
            assert_eq!(damaged.rows_of(&[0, 2]), None);
            assert_eq!(damaged.rows_of(&[1, 3]), c.rows_of(&[1, 3]));
        }
    }

    #[test]
    fn heap_bytes_accounts_slab_and_columns() {
        let c = ColumnarRows::build(&rs(100), &[1, 2]).unwrap();
        assert!(c.heap_bytes() > c.slab.len());
        assert!(c.heap_bytes() >= 100 * 2 * 8);
    }

    mod materializer {
        use super::*;
        use fp_xmlite::Element;
        use proptest::prelude::*;

        /// Text from the escapables, spaces and letters.
        fn arb_text() -> impl Strategy<Value = String> {
            let ch = prop_oneof![
                Just('<'),
                Just('&'),
                Just('>'),
                Just('"'),
                Just('\''),
                Just(' '),
                Just('a'),
                Just('é'),
                Just('1'),
                Just('.'),
            ];
            prop::collection::vec(ch, 0..8).prop_map(|chars| chars.into_iter().collect())
        }

        /// Every cell shape the serializer has a case for, including the
        /// ones its text does not carry back unchanged: floats at and
        /// beyond the `{:.1}` cutoff at 1e15 (they read back as ints),
        /// non-finite floats and numeric or padded strings.
        fn arb_any_cell() -> impl Strategy<Value = Value> {
            prop_oneof![
                any::<i64>().prop_map(Value::Int),
                (-1e6f64..1e6).prop_map(Value::Float),
                (-1_000_000i64..1_000_000).prop_map(|i| Value::Float(i as f64)),
                prop_oneof![
                    Just(-0.0),
                    Just(1e15),
                    Just(-1e15),
                    Just(1.5e20),
                    Just(f64::NAN),
                    Just(f64::INFINITY),
                ]
                .prop_map(Value::Float),
                Just(Value::Null),
                Just(Value::Str(String::new())),
                arb_text().prop_map(Value::Str),
                any::<bool>().prop_map(Value::Bool),
            ]
        }

        /// The catalog's value domain, where the document is lossless:
        /// ints, finite floats under 1e15 in magnitude (integral ones and
        /// `-0.0` included), nulls, and strings that are neither numbers
        /// nor padded with whitespace.
        fn arb_catalog_cell() -> impl Strategy<Value = Value> {
            let word = prop::collection::vec(
                prop_oneof![
                    Just('<'),
                    Just('&'),
                    Just('>'),
                    Just('"'),
                    Just('\''),
                    Just('a'),
                    Just('é')
                ],
                0..8,
            );
            prop_oneof![
                any::<i64>().prop_map(Value::Int),
                (-1e6f64..1e6).prop_map(Value::Float),
                (-999_999_999_999_999i64..=999_999_999_999_999)
                    .prop_map(|i| Value::Float(i as f64)),
                Just(Value::Float(-0.0)),
                Just(Value::Null),
                word.prop_map(|chars| Value::Str(chars.into_iter().collect())),
            ]
        }

        /// Results with a numeric coordinate first and three cells of
        /// `cell` after it, and a mask picking an id subset.
        fn arb_case(
            cell: impl Strategy<Value = Value>,
        ) -> impl Strategy<Value = (ResultSet, Vec<bool>)> {
            let row = (-1e3f64..1e3, prop::collection::vec(cell, 3));
            (
                prop::collection::vec(row, 0..300),
                prop::collection::vec(any::<bool>(), 1..9),
            )
                .prop_map(|(rows, mask)| {
                    let rs = ResultSet {
                        columns: vec!["x".into(), "a".into(), "b".into(), "c".into()],
                        rows: rows
                            .into_iter()
                            .map(|(x, cells)| {
                                let mut row = vec![Value::Float(x)];
                                row.extend(cells);
                                row
                            })
                            .collect(),
                    };
                    (rs, mask)
                })
        }

        /// The ids `mask` picks, cycling it over the rows, and those
        /// rows of `rs`.
        fn pick(rs: &ResultSet, mask: &[bool]) -> (Vec<u32>, ResultSet) {
            let ids: Vec<u32> = (0..rs.len() as u32)
                .filter(|&i| mask[i as usize % mask.len()])
                .collect();
            let rows = ids.iter().map(|&i| rs.rows[i as usize].clone()).collect();
            let subset = ResultSet {
                columns: rs.columns.clone(),
                rows,
            };
            (ids, subset)
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(64))]

            /// Rows read from the slab equal the tree parse of the same
            /// rows' document, whatever the cells.
            #[test]
            fn rows_of_equals_the_tree_parse((rs, mask) in arb_case(arb_any_cell())) {
                let form = ColumnarRows::build(&rs, &[0]).expect("numeric coordinate");
                let (ids, subset) = pick(&rs, &mask);
                let text = subset.to_xml_string();
                let tree = ResultSet::from_xml(&Element::parse(&text).unwrap());
                prop_assert_eq!(form.rows_of(&ids), tree);
            }

            /// On the catalog's domain they equal the original rows.
            #[test]
            fn rows_of_is_lossless_on_the_catalog_domain(
                (rs, mask) in arb_case(arb_catalog_cell())
            ) {
                let form = ColumnarRows::build(&rs, &[0]).expect("numeric coordinate");
                let (ids, subset) = pick(&rs, &mask);
                prop_assert_eq!(form.rows_of(&ids), Some(subset));
            }
        }
    }
}
