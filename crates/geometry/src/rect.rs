//! Axis-aligned hyperrectangles.

use crate::point::Point;
use crate::{approx_eq, approx_ge, approx_le, GeometryError, Result, EPS};
use serde::{Deserialize, Serialize};

/// A closed, axis-aligned box `[lo_0, hi_0] × … × [lo_{d-1}, hi_{d-1}]`.
///
/// This is the region type behind rectangular table-valued functions such as
/// SkyServer's `fGetObjFromRect(min_ra, max_ra, min_dec, max_dec)`, and it
/// also serves as the bounding-box key the R-tree cache description indexes.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct HyperRect {
    lo: Vec<f64>,
    hi: Vec<f64>,
}

impl HyperRect {
    /// Creates a rectangle from lower and upper corners.
    ///
    /// # Errors
    /// Returns an error when the corners disagree on dimensionality, are
    /// empty, contain non-finite values, or are inverted in some dimension.
    pub fn new(lo: Vec<f64>, hi: Vec<f64>) -> Result<Self> {
        if lo.len() != hi.len() {
            return Err(GeometryError::DimensionMismatch {
                left: lo.len(),
                right: hi.len(),
            });
        }
        if lo.is_empty() {
            return Err(GeometryError::ZeroDimensions);
        }
        if lo.iter().chain(hi.iter()).any(|c| !c.is_finite()) {
            return Err(GeometryError::NotFinite { what: "bound" });
        }
        for (d, (l, h)) in lo.iter().zip(&hi).enumerate() {
            if l > h {
                return Err(GeometryError::InvertedBounds { dim: d });
            }
        }
        Ok(HyperRect { lo, hi })
    }

    /// The degenerate rectangle containing exactly one point.
    pub fn degenerate(p: &Point) -> Self {
        HyperRect {
            lo: p.coords().to_vec(),
            hi: p.coords().to_vec(),
        }
    }

    /// Overwrites this box with the cube `center ± half` (`half >= 0`),
    /// reusing its allocations.
    pub(crate) fn set_cube(&mut self, center: &[f64], half: f64) {
        self.lo.clear();
        self.lo.extend(center.iter().map(|c| c - half));
        self.hi.clear();
        self.hi.extend(center.iter().map(|c| c + half));
    }

    /// Dimensionality.
    #[inline]
    pub fn dims(&self) -> usize {
        self.lo.len()
    }

    /// Lower corner.
    #[inline]
    pub fn lo(&self) -> &[f64] {
        &self.lo
    }

    /// Upper corner.
    #[inline]
    pub fn hi(&self) -> &[f64] {
        &self.hi
    }

    /// Side length in dimension `d`.
    #[inline]
    pub fn extent(&self, d: usize) -> f64 {
        self.hi[d] - self.lo[d]
    }

    /// Center point of the rectangle.
    pub fn center(&self) -> Point {
        let coords: Vec<f64> = self
            .lo
            .iter()
            .zip(&self.hi)
            .map(|(l, h)| 0.5 * (l + h))
            .collect();
        Point::from_slice(&coords)
    }

    /// Volume (product of side lengths). Degenerate boxes have volume zero.
    pub fn volume(&self) -> f64 {
        self.lo.iter().zip(&self.hi).map(|(l, h)| h - l).product()
    }

    /// Sum of side lengths; the "margin" criterion used by R-tree splits.
    pub fn margin(&self) -> f64 {
        self.lo.iter().zip(&self.hi).map(|(l, h)| h - l).sum()
    }

    /// Whether `p` lies inside the closed box (within [`EPS`]).
    pub fn contains_point(&self, p: &Point) -> bool {
        self.contains_coords(p.coords())
    }

    /// [`Self::contains_point`] on a raw coordinate slice (hot path).
    #[inline]
    pub fn contains_coords(&self, coords: &[f64]) -> bool {
        debug_assert_eq!(coords.len(), self.dims());
        self.lo
            .iter()
            .zip(&self.hi)
            .zip(coords)
            .all(|((l, h), c)| approx_le(*l, *c) && approx_le(*c, *h))
    }

    /// Whether `self` fully contains `other` (closed containment).
    pub fn contains_rect(&self, other: &HyperRect) -> bool {
        debug_assert_eq!(self.dims(), other.dims());
        self.lo
            .iter()
            .zip(&self.hi)
            .zip(other.lo.iter().zip(&other.hi))
            .all(|((sl, sh), (ol, oh))| approx_le(*sl, *ol) && approx_ge(*sh, *oh))
    }

    /// Whether the closed boxes share at least one point.
    pub fn intersects_rect(&self, other: &HyperRect) -> bool {
        debug_assert_eq!(self.dims(), other.dims());
        self.lo
            .iter()
            .zip(&self.hi)
            .zip(other.lo.iter().zip(&other.hi))
            .all(|((sl, sh), (ol, oh))| approx_le(*sl, *oh) && approx_le(*ol, *sh))
    }

    /// Whether the boxes are equal within [`EPS`].
    pub fn approx_eq(&self, other: &HyperRect) -> bool {
        self.dims() == other.dims()
            && self
                .lo
                .iter()
                .zip(&other.lo)
                .chain(self.hi.iter().zip(&other.hi))
                .all(|(a, b)| approx_eq(*a, *b))
    }

    /// Smallest box enclosing both operands.
    ///
    /// # Errors
    /// Returns an error when dimensions differ.
    pub fn union(&self, other: &HyperRect) -> Result<HyperRect> {
        if self.dims() != other.dims() {
            return Err(GeometryError::DimensionMismatch {
                left: self.dims(),
                right: other.dims(),
            });
        }
        let lo = self
            .lo
            .iter()
            .zip(&other.lo)
            .map(|(a, b)| a.min(*b))
            .collect();
        let hi = self
            .hi
            .iter()
            .zip(&other.hi)
            .map(|(a, b)| a.max(*b))
            .collect();
        Ok(HyperRect { lo, hi })
    }

    /// Intersection of the closed boxes, or `None` when they are disjoint.
    pub fn intersection(&self, other: &HyperRect) -> Option<HyperRect> {
        debug_assert_eq!(self.dims(), other.dims());
        let mut lo = Vec::with_capacity(self.dims());
        let mut hi = Vec::with_capacity(self.dims());
        for ((sl, sh), (ol, oh)) in self
            .lo
            .iter()
            .zip(&self.hi)
            .zip(other.lo.iter().zip(&other.hi))
        {
            let l = sl.max(*ol);
            let h = sh.min(*oh);
            if l > h + EPS {
                return None;
            }
            lo.push(l);
            hi.push(h.max(l));
        }
        Some(HyperRect { lo, hi })
    }

    /// Volume the union bounding box would gain if `other` were merged in;
    /// the enlargement criterion of R-tree insertion.
    pub fn enlargement(&self, other: &HyperRect) -> f64 {
        let union = self
            .union(other)
            .expect("enlargement requires equal dimensions");
        union.volume() - self.volume()
    }

    /// Minimum squared Euclidean distance from `coords` to the box
    /// (zero when inside).
    pub fn min_dist2(&self, coords: &[f64]) -> f64 {
        debug_assert_eq!(coords.len(), self.dims());
        self.lo
            .iter()
            .zip(&self.hi)
            .zip(coords)
            .map(|((l, h), c)| {
                let d = if c < l {
                    l - c
                } else if c > h {
                    c - h
                } else {
                    0.0
                };
                d * d
            })
            .sum()
    }

    /// Maximum squared Euclidean distance from `coords` to any point of the box.
    pub fn max_dist2(&self, coords: &[f64]) -> f64 {
        debug_assert_eq!(coords.len(), self.dims());
        self.lo
            .iter()
            .zip(&self.hi)
            .zip(coords)
            .map(|((l, h), c)| {
                let d = (c - l).abs().max((c - h).abs());
                d * d
            })
            .sum()
    }

    /// Iterates the 2^d corner points. Intended for small d (d ≤ ~20).
    pub fn corners(&self) -> impl Iterator<Item = Point> + '_ {
        let d = self.dims();
        debug_assert!(d < usize::BITS as usize);
        (0u64..(1u64 << d)).map(move |mask| {
            let coords: Vec<f64> = (0..d)
                .map(|i| {
                    if mask & (1 << i) != 0 {
                        self.hi[i]
                    } else {
                        self.lo[i]
                    }
                })
                .collect();
            Point::from_slice(&coords)
        })
    }
}

impl std::fmt::Display for HyperRect {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "[")?;
        for d in 0..self.dims() {
            if d > 0 {
                write!(f, " x ")?;
            }
            write!(f, "{}..{}", self.lo[d], self.hi[d])?;
        }
        write!(f, "]")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn r2(lo: [f64; 2], hi: [f64; 2]) -> HyperRect {
        HyperRect::new(lo.to_vec(), hi.to_vec()).unwrap()
    }

    #[test]
    fn construction_validates() {
        assert!(HyperRect::new(vec![], vec![]).is_err());
        assert!(HyperRect::new(vec![0.0], vec![0.0, 1.0]).is_err());
        assert!(HyperRect::new(vec![1.0], vec![0.0]).is_err());
        assert!(HyperRect::new(vec![f64::NAN], vec![0.0]).is_err());
        assert!(HyperRect::new(vec![0.0], vec![0.0]).is_ok());
    }

    #[test]
    fn containment_and_intersection() {
        let outer = r2([0.0, 0.0], [10.0, 10.0]);
        let inner = r2([2.0, 2.0], [5.0, 5.0]);
        let far = r2([20.0, 20.0], [30.0, 30.0]);
        let touching = r2([10.0, 0.0], [12.0, 5.0]);

        assert!(outer.contains_rect(&inner));
        assert!(!inner.contains_rect(&outer));
        assert!(outer.contains_rect(&outer));
        assert!(outer.intersects_rect(&inner));
        assert!(!outer.intersects_rect(&far));
        // closed boxes: sharing a face counts as intersecting
        assert!(outer.intersects_rect(&touching));
    }

    #[test]
    fn point_containment_is_closed() {
        let r = r2([0.0, 0.0], [1.0, 1.0]);
        assert!(r.contains_point(&Point::new(vec![0.0, 0.0]).unwrap()));
        assert!(r.contains_point(&Point::new(vec![1.0, 1.0]).unwrap()));
        assert!(r.contains_point(&Point::new(vec![0.5, 0.5]).unwrap()));
        assert!(!r.contains_point(&Point::new(vec![1.1, 0.5]).unwrap()));
    }

    #[test]
    fn union_and_intersection_geometry() {
        let a = r2([0.0, 0.0], [2.0, 2.0]);
        let b = r2([1.0, 1.0], [3.0, 3.0]);
        let u = a.union(&b).unwrap();
        assert_eq!(u.lo(), &[0.0, 0.0]);
        assert_eq!(u.hi(), &[3.0, 3.0]);
        let i = a.intersection(&b).unwrap();
        assert_eq!(i.lo(), &[1.0, 1.0]);
        assert_eq!(i.hi(), &[2.0, 2.0]);
        let far = r2([10.0, 10.0], [11.0, 11.0]);
        assert!(a.intersection(&far).is_none());
    }

    #[test]
    fn volume_margin_enlargement() {
        let a = r2([0.0, 0.0], [2.0, 3.0]);
        assert_eq!(a.volume(), 6.0);
        assert_eq!(a.margin(), 5.0);
        let b = r2([0.0, 0.0], [4.0, 3.0]);
        assert_eq!(a.enlargement(&b), 6.0);
        assert_eq!(b.enlargement(&a), 0.0);
    }

    #[test]
    fn distances_to_box() {
        let r = r2([0.0, 0.0], [1.0, 1.0]);
        assert_eq!(r.min_dist2(&[0.5, 0.5]), 0.0);
        assert_eq!(r.min_dist2(&[2.0, 0.5]), 1.0);
        assert_eq!(r.min_dist2(&[2.0, 2.0]), 2.0);
        assert_eq!(r.max_dist2(&[0.0, 0.0]), 2.0);
    }

    #[test]
    fn corners_enumerate_all() {
        let r = r2([0.0, 0.0], [1.0, 2.0]);
        let corners: Vec<_> = r.corners().map(|p| p.coords().to_vec()).collect();
        assert_eq!(corners.len(), 4);
        assert!(corners.contains(&vec![0.0, 0.0]));
        assert!(corners.contains(&vec![1.0, 0.0]));
        assert!(corners.contains(&vec![0.0, 2.0]));
        assert!(corners.contains(&vec![1.0, 2.0]));
    }

    #[test]
    fn center_and_degenerate() {
        let r = r2([0.0, 2.0], [2.0, 4.0]);
        assert_eq!(r.center().coords(), &[1.0, 3.0]);
        let p = Point::new(vec![1.0, 1.0]).unwrap();
        let d = HyperRect::degenerate(&p);
        assert_eq!(d.volume(), 0.0);
        assert!(d.contains_point(&p));
    }

    #[test]
    fn display_formats() {
        let r = r2([0.0, 1.0], [2.0, 3.0]);
        assert_eq!(r.to_string(), "[0..2 x 1..3]");
    }
}
