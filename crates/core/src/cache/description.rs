//! Cache descriptions: the index over cached query regions.
//!
//! The paper compares two implementations — a flat array scanned linearly
//! ("ACNR") and an R-tree ("ACR") — and finds they perform about the same
//! at realistic sizes, with the array winning on maintenance cost. Both
//! live behind one trait so the proxy (and the benchmarks) can swap them.

use fp_geometry::{approx_le, HyperRect};
use fp_rtree::RTree;

/// Index over the bounding boxes of cached query regions.
///
/// `candidates` must return a superset of the entries whose *regions*
/// relate to the probe (bounding boxes over-approximate regions); the
/// caller re-checks candidates with exact region tests.
pub trait CacheDescription: Send {
    /// Adds an entry.
    fn insert(&mut self, id: u64, bbox: HyperRect);
    /// Removes an entry; returns whether it was present.
    fn remove(&mut self, id: u64, bbox: &HyperRect) -> bool;
    /// Appends ids whose bounding box intersects `bbox` to `out`.
    fn candidates(&self, bbox: &HyperRect, out: &mut Vec<u64>);
    /// Number of indexed entries.
    fn len(&self) -> usize;
    /// Whether the description is empty.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }
    /// Implementation name for metrics ("array" / "rtree").
    fn kind(&self) -> DescriptionKind;
}

/// Which description implementation to use.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DescriptionKind {
    /// Flat array with linear scans — the paper's "ACNR".
    Array,
    /// R-tree — the paper's "ACR".
    RTree,
}

impl DescriptionKind {
    /// Creates an empty description of this kind for `dims`-dimensional
    /// regions.
    pub fn make(self, dims: usize) -> Box<dyn CacheDescription> {
        match self {
            DescriptionKind::Array => Box::new(ArrayDescription::new(dims)),
            DescriptionKind::RTree => Box::new(RTreeDescription::new(dims)),
        }
    }
}

impl std::fmt::Display for DescriptionKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            DescriptionKind::Array => "array",
            DescriptionKind::RTree => "rtree",
        })
    }
}

/// The linear-scan description ("ACNR"), stored struct-of-arrays: the
/// ids in one column and every dimension's lower and upper bounds in a
/// contiguous column each, all indexed by the same position. A probe
/// streams the two columns of one dimension — the one over which the
/// boxes seen so far spread widest, where a probe rules out the most —
/// and looks at the other dimensions only for the positions that
/// survive, so the scan touches flat memory instead of two heap boxes
/// per entry.
///
/// Positions follow push / swap-remove order, so candidates come out in
/// the order a `Vec<(id, bbox)>` scan would produce them.
#[derive(Debug, Default)]
pub struct ArrayDescription {
    ids: Vec<u64>,
    /// Per dimension: the `lo` column and the `hi` column.
    bounds: Vec<(Vec<f64>, Vec<f64>)>,
    /// Per dimension: the least `lo` and the greatest `hi` ever inserted.
    /// Never shrunk on remove — it only chooses which dimension is
    /// streamed first, never what a probe answers.
    extent: Vec<(f64, f64)>,
}

impl ArrayDescription {
    /// An empty array description.
    pub fn new(dims: usize) -> Self {
        ArrayDescription {
            ids: Vec::new(),
            bounds: vec![(Vec::new(), Vec::new()); dims],
            extent: vec![(f64::INFINITY, f64::NEG_INFINITY); dims],
        }
    }

    /// The dimension of widest extent (the first of equals).
    fn widest(&self) -> usize {
        let mut best = (0, f64::NEG_INFINITY);
        for (d, (lo, hi)) in self.extent.iter().enumerate() {
            if hi - lo > best.1 {
                best = (d, hi - lo);
            }
        }
        best.0
    }
}

impl CacheDescription for ArrayDescription {
    fn insert(&mut self, id: u64, bbox: HyperRect) {
        assert_eq!(bbox.dims(), self.bounds.len(), "bbox dimensionality");
        self.ids.push(id);
        for ((lo, hi), (l, h)) in self.bounds.iter_mut().zip(bbox.lo().iter().zip(bbox.hi())) {
            lo.push(*l);
            hi.push(*h);
        }
        for (extent, (l, h)) in self.extent.iter_mut().zip(bbox.lo().iter().zip(bbox.hi())) {
            *extent = (extent.0.min(*l), extent.1.max(*h));
        }
    }

    fn remove(&mut self, id: u64, _bbox: &HyperRect) -> bool {
        match self.ids.iter().position(|e| *e == id) {
            Some(i) => {
                self.ids.swap_remove(i);
                for (lo, hi) in &mut self.bounds {
                    lo.swap_remove(i);
                    hi.swap_remove(i);
                }
                true
            }
            None => false,
        }
    }

    fn candidates(&self, bbox: &HyperRect, out: &mut Vec<u64>) {
        assert_eq!(bbox.dims(), self.bounds.len(), "probe dimensionality");
        if self.bounds.is_empty() {
            return;
        }
        let first = self.widest();
        let (lo0, hi0) = &self.bounds[first];
        let (qlo, qhi) = (bbox.lo(), bbox.hi());

        // The first dimension in two straight-line passes, neither with
        // a data-dependent branch: the verdicts (a loop the compiler can
        // vectorise), then positions compacted over them in place.
        // Same predicate as `HyperRect::intersects_rect`.
        let start = out.len();
        let (ql, qh) = (qlo[first], qhi[first]);
        out.extend(
            lo0.iter()
                .zip(hi0)
                .map(|(&lo, &hi)| u64::from(approx_le(lo, qh) & approx_le(ql, hi))),
        );
        let verdicts = &mut out[start..];
        let mut kept = 0;
        for i in 0..verdicts.len() {
            let pass = verdicts[i] as usize;
            verdicts[kept] = i as u64;
            kept += pass;
        }
        out.truncate(start + kept);

        // Remaining dimensions on the survivors, in index order (every
        // compaction is stable, so which dimension went first does not
        // reorder the candidates), then positions → ids.
        for (d, (lo, hi)) in self.bounds.iter().enumerate() {
            if d == first {
                continue;
            }
            let (ql, qh) = (qlo[d], qhi[d]);
            let mut kept = start;
            for k in start..out.len() {
                let i = out[k] as usize;
                out[kept] = out[k];
                kept += usize::from(approx_le(lo[i], qh) & approx_le(ql, hi[i]));
            }
            out.truncate(kept);
        }
        for slot in &mut out[start..] {
            *slot = self.ids[*slot as usize];
        }
    }

    fn len(&self) -> usize {
        self.ids.len()
    }

    fn kind(&self) -> DescriptionKind {
        DescriptionKind::Array
    }
}

/// The R-tree description ("ACR").
#[derive(Debug)]
pub struct RTreeDescription {
    tree: RTree<u64>,
}

impl RTreeDescription {
    /// An empty R-tree description.
    pub fn new(dims: usize) -> Self {
        RTreeDescription {
            tree: RTree::new(dims),
        }
    }
}

impl CacheDescription for RTreeDescription {
    fn insert(&mut self, id: u64, bbox: HyperRect) {
        self.tree.insert(bbox, id);
    }

    fn remove(&mut self, id: u64, bbox: &HyperRect) -> bool {
        self.tree.remove_one(bbox, |v| *v == id).is_some()
    }

    fn candidates(&self, bbox: &HyperRect, out: &mut Vec<u64>) {
        for (_, id) in self.tree.search_intersecting(bbox) {
            out.push(*id);
        }
    }

    fn len(&self) -> usize {
        self.tree.len()
    }

    fn kind(&self) -> DescriptionKind {
        DescriptionKind::RTree
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn rect(lo: f64, hi: f64) -> HyperRect {
        HyperRect::new(vec![lo, lo], vec![hi, hi]).unwrap()
    }

    fn exercise(mut d: Box<dyn CacheDescription>) {
        assert!(d.is_empty());
        d.insert(1, rect(0.0, 1.0));
        d.insert(2, rect(5.0, 6.0));
        d.insert(3, rect(0.5, 5.5));
        assert_eq!(d.len(), 3);

        let mut out = Vec::new();
        d.candidates(&rect(0.8, 0.9), &mut out);
        out.sort_unstable();
        assert_eq!(out, vec![1, 3]);

        assert!(d.remove(3, &rect(0.5, 5.5)));
        assert!(!d.remove(3, &rect(0.5, 5.5)));
        out.clear();
        d.candidates(&rect(0.8, 0.9), &mut out);
        assert_eq!(out, vec![1]);
    }

    #[test]
    fn array_description_contract() {
        exercise(DescriptionKind::Array.make(2));
    }

    #[test]
    fn rtree_description_contract() {
        exercise(DescriptionKind::RTree.make(2));
    }

    #[test]
    fn kinds_report_themselves() {
        assert_eq!(
            DescriptionKind::Array.make(3).kind(),
            DescriptionKind::Array
        );
        assert_eq!(
            DescriptionKind::RTree.make(3).kind(),
            DescriptionKind::RTree
        );
        assert_eq!(DescriptionKind::Array.to_string(), "array");
        assert_eq!(DescriptionKind::RTree.to_string(), "rtree");
    }

    #[test]
    fn implementations_agree_on_random_workload() {
        let mut array = DescriptionKind::Array.make(2);
        let mut rtree = DescriptionKind::RTree.make(2);
        // Deterministic pseudo-random boxes.
        let mut state = 12345u64;
        let mut next = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((state >> 33) as f64) / (u32::MAX as f64) * 100.0
        };
        let mut boxes = Vec::new();
        for id in 0..200u64 {
            let lo = next();
            let r = HyperRect::new(vec![lo, lo], vec![lo + 1.0 + next() * 0.1, lo + 1.5]).unwrap();
            array.insert(id, r.clone());
            rtree.insert(id, r.clone());
            boxes.push((id, r));
        }
        for probe in 0..50 {
            let lo = probe as f64 * 2.0;
            let window = HyperRect::new(vec![lo, lo], vec![lo + 3.0, lo + 3.0]).unwrap();
            let mut a = Vec::new();
            let mut b = Vec::new();
            array.candidates(&window, &mut a);
            rtree.candidates(&window, &mut b);
            a.sort_unstable();
            b.sort_unstable();
            assert_eq!(a, b, "probe {probe}");
        }
    }

    /// One step of a random description history. Coordinates are
    /// lattice cells plus a jitter of zero, half an `EPS` or two `EPS`
    /// either way, so boxes that touch a probe exactly, within the
    /// tolerance and just outside it all occur.
    #[derive(Debug, Clone)]
    enum Op {
        Insert(Vec<(u8, u8, u8)>),
        Remove(usize),
        Probe(Vec<(u8, u8, u8)>),
    }

    fn lattice_rect(cells: &[(u8, u8, u8)], dims: usize) -> HyperRect {
        const JITTER: [f64; 5] = [0.0, 0.5e-9, -0.5e-9, 2e-9, -2e-9];
        let (lo, hi) = cells[..dims]
            .iter()
            .map(|&(cell, width, jitter)| {
                let lo = f64::from(cell) + JITTER[usize::from(jitter)];
                (lo, lo + f64::from(width))
            })
            .unzip();
        HyperRect::new(lo, hi).unwrap()
    }

    fn ops() -> impl Strategy<Value = Vec<Op>> {
        let cells = || prop::collection::vec((0u8..8, 0u8..3, 0u8..5), 4);
        prop::collection::vec(
            prop_oneof![
                4 => cells().prop_map(Op::Insert),
                2 => (0usize..64).prop_map(Op::Remove),
                3 => cells().prop_map(Op::Probe),
            ],
            1..120,
        )
    }

    /// Replays `ops` on the SoA array, the `Vec<(id, bbox)>` it replaced
    /// and the R-tree: every probe must give the same ids in the same
    /// order as the vector, and the same set as the tree.
    fn check_history(dims: usize, ops: Vec<Op>) -> Result<(), TestCaseError> {
        let mut array = ArrayDescription::new(dims);
        let mut rtree = RTreeDescription::new(dims);
        let mut model: Vec<(u64, HyperRect)> = Vec::new();
        let mut next_id = 0u64;
        for op in ops {
            match op {
                Op::Insert(cells) => {
                    let r = lattice_rect(&cells, dims);
                    array.insert(next_id, r.clone());
                    rtree.insert(next_id, r.clone());
                    model.push((next_id, r));
                    next_id += 1;
                }
                Op::Remove(pick) if !model.is_empty() => {
                    let (id, r) = model.swap_remove(pick % model.len());
                    prop_assert!(array.remove(id, &r));
                    prop_assert!(rtree.remove(id, &r));
                    prop_assert!(!array.remove(id, &r));
                }
                Op::Remove(_) => {}
                Op::Probe(cells) => {
                    let probe = lattice_rect(&cells, dims);
                    let expected: Vec<u64> = model
                        .iter()
                        .filter(|(_, r)| r.intersects_rect(&probe))
                        .map(|(id, _)| *id)
                        .collect();
                    // A non-empty `out` must be appended to, not reused.
                    let mut from_array = vec![u64::MAX];
                    array.candidates(&probe, &mut from_array);
                    prop_assert_eq!(&from_array[1..], &expected[..]);
                    let mut from_rtree = Vec::new();
                    rtree.candidates(&probe, &mut from_rtree);
                    from_rtree.sort_unstable();
                    let mut sorted = expected;
                    sorted.sort_unstable();
                    prop_assert_eq!(from_rtree, sorted);
                }
            }
            prop_assert_eq!(array.len(), model.len());
        }
        Ok(())
    }

    proptest! {
        /// The SoA array answers every probe with the same ids in the
        /// same order as the `Vec<(id, bbox)>` it replaced, and with the
        /// same set as the R-tree, across inserts and swap-removes.
        #[test]
        fn array_matches_reference_model_and_rtree(dims in 1usize..=4, ops in ops()) {
            check_history(dims, ops)?;
        }

        /// The same when every box sits in one cell of dimension 0 (the
        /// sky window's `cx`), so another dimension is streamed first.
        #[test]
        fn array_matches_the_model_when_dimension_0_is_constant(
            dims in 2usize..=4,
            ops in ops(),
        ) {
            let pinned = ops
                .into_iter()
                .map(|op| match op {
                    Op::Insert(mut cells) => {
                        cells[0] = (3, 1, 0);
                        Op::Insert(cells)
                    }
                    other => other,
                })
                .collect();
            check_history(dims, pinned)?;
        }
    }

    /// The dimension streamed first follows the boxes inserted, keeps its
    /// choice when removals narrow the live extent (the choice is only a
    /// heuristic), and never changes what a probe answers or its order.
    #[test]
    fn the_first_dimension_follows_the_widest_extent() {
        let rect = |x: f64, y: f64| HyperRect::new(vec![x, y], vec![x + 1.0, y + 1.0]).unwrap();
        let mut array = ArrayDescription::new(2);
        let mut model: Vec<(u64, HyperRect)> = Vec::new();
        let check = |array: &ArrayDescription, model: &[(u64, HyperRect)]| {
            for probe in [
                rect(0.5, 0.5),
                rect(3.0, 0.0),
                rect(0.0, 12.5),
                rect(40.0, 40.0),
            ] {
                let expected: Vec<u64> = model
                    .iter()
                    .filter(|(_, r)| r.intersects_rect(&probe))
                    .map(|(id, _)| *id)
                    .collect();
                let mut got = Vec::new();
                array.candidates(&probe, &mut got);
                assert_eq!(got, expected);
            }
        };
        assert_eq!(array.widest(), 0, "empty: the first of equals");
        for id in 0..6u64 {
            let r = rect(id as f64, 0.0);
            array.insert(id, r.clone());
            model.push((id, r));
        }
        assert_eq!(array.widest(), 0);
        check(&array, &model);
        for id in 6..12u64 {
            let r = rect(0.0, (id * 3) as f64);
            array.insert(id, r.clone());
            model.push((id, r));
        }
        assert_eq!(array.widest(), 1);
        check(&array, &model);
        while let Some((id, r)) = model.pop() {
            assert!(array.remove(id, &r));
            check(&array, &model);
            assert_eq!(array.widest(), 1, "removals never move the choice");
        }
    }
}
