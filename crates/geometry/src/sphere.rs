//! Hyperspheres (d-dimensional closed balls).

use crate::point::{dist2_slices, Point};
use crate::rect::HyperRect;
use crate::{approx_eq, approx_le, GeometryError, Result, EPS};
use serde::{Deserialize, Serialize};

/// A closed ball `{x : |x - center| <= radius}` in d dimensions.
///
/// This is the region type behind SkyServer's Radial search: the function
/// template of `fGetNearbyObjEq(ra, dec, radius)` (paper Figure 3) abstracts
/// the function as *all points bounded by a 3-D hypersphere* around the unit
/// vector of `(ra, dec)`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct HyperSphere {
    center: Point,
    radius: f64,
}

impl HyperSphere {
    /// Creates a ball from a center and non-negative finite radius.
    ///
    /// # Errors
    /// Returns an error when the radius is negative or non-finite.
    pub fn new(center: Point, radius: f64) -> Result<Self> {
        if !radius.is_finite() {
            return Err(GeometryError::NotFinite { what: "radius" });
        }
        if radius < 0.0 {
            return Err(GeometryError::Negative { what: "radius" });
        }
        Ok(HyperSphere { center, radius })
    }

    /// Dimensionality.
    #[inline]
    pub fn dims(&self) -> usize {
        self.center.dims()
    }

    /// Ball center.
    #[inline]
    pub fn center(&self) -> &Point {
        &self.center
    }

    /// Ball radius.
    #[inline]
    pub fn radius(&self) -> f64 {
        self.radius
    }

    /// Whether `p` lies in the closed ball.
    pub fn contains_point(&self, p: &Point) -> bool {
        self.contains_coords(p.coords())
    }

    /// [`Self::contains_point`] on a raw coordinate slice (hot path).
    #[inline]
    pub fn contains_coords(&self, coords: &[f64]) -> bool {
        debug_assert_eq!(coords.len(), self.dims());
        let d2 = dist2_slices(self.center.coords(), coords);
        approx_le(d2, self.radius * self.radius)
    }

    /// Whether `self` fully contains `other`:
    /// `|c1 - c2| + r2 <= r1`.
    pub fn contains_sphere(&self, other: &HyperSphere) -> bool {
        debug_assert_eq!(self.dims(), other.dims());
        let d = dist2_slices(self.center.coords(), other.center.coords()).sqrt();
        approx_le(d + other.radius, self.radius)
    }

    /// Whether the closed balls share at least one point:
    /// `|c1 - c2| <= r1 + r2`.
    pub fn intersects_sphere(&self, other: &HyperSphere) -> bool {
        debug_assert_eq!(self.dims(), other.dims());
        let d2 = dist2_slices(self.center.coords(), other.center.coords());
        let r = self.radius + other.radius;
        approx_le(d2, r * r)
    }

    /// Whether the balls are equal within tolerance.
    pub fn approx_eq(&self, other: &HyperSphere) -> bool {
        self.dims() == other.dims()
            && approx_eq(self.radius, other.radius)
            && self
                .center
                .coords()
                .iter()
                .zip(other.center.coords())
                .all(|(a, b)| approx_eq(*a, *b))
    }

    /// Whether `self` fully contains the box: true iff every corner of the
    /// box is inside the ball (the farthest point of a convex box from any
    /// center is a corner, so this is exact).
    pub fn contains_rect(&self, rect: &HyperRect) -> bool {
        debug_assert_eq!(self.dims(), rect.dims());
        let r2 = self.radius * self.radius;
        approx_le(rect.max_dist2(self.center.coords()), r2)
    }

    /// Whether the ball and the closed box share at least one point
    /// (min distance from center to box ≤ radius; exact).
    pub fn intersects_rect(&self, rect: &HyperRect) -> bool {
        debug_assert_eq!(self.dims(), rect.dims());
        let r2 = self.radius * self.radius;
        approx_le(rect.min_dist2(self.center.coords()), r2)
    }

    /// Whether the box fully contains the ball:
    /// `lo_d <= c_d - r` and `c_d + r <= hi_d` for every dimension (exact).
    pub fn inside_rect(&self, rect: &HyperRect) -> bool {
        debug_assert_eq!(self.dims(), rect.dims());
        self.center.coords().iter().enumerate().all(|(d, c)| {
            approx_le(rect.lo()[d], c - self.radius) && approx_le(c + self.radius, rect.hi()[d])
        })
    }

    /// Axis-aligned bounding box of every point [`Self::contains_coords`]
    /// accepts. Membership is ε-tolerant (`d² ≤ r² + EPS`), so the box
    /// half-width is `√(r² + EPS)`, not `r`: an exact `c ± r` box would
    /// silently drop fringe points, and a candidate search pruned by it
    /// (the origin's spatial index) would disagree with the membership
    /// test it feeds. At arcminute chord scales `EPS` on `d²` is ~0.3 %
    /// of the radius — large enough to lose real boundary objects.
    pub fn bounding_rect(&self) -> HyperRect {
        let mut rect = HyperRect::degenerate(&self.center);
        self.bounding_rect_into(&mut rect);
        rect
    }

    /// [`Self::bounding_rect`] written over `out`, reusing its
    /// allocations (a probe per request must not allocate).
    pub fn bounding_rect_into(&self, out: &mut HyperRect) {
        let half = (self.radius * self.radius + EPS).sqrt();
        out.set_cube(self.center.coords(), half);
    }
}

impl std::fmt::Display for HyperSphere {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "ball(center={}, r={})", self.center, self.radius)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ball(center: &[f64], r: f64) -> HyperSphere {
        HyperSphere::new(Point::from_slice(center), r).unwrap()
    }

    #[test]
    fn construction_validates() {
        let c = Point::new(vec![0.0]).unwrap();
        assert!(HyperSphere::new(c.clone(), -1.0).is_err());
        assert!(HyperSphere::new(c.clone(), f64::NAN).is_err());
        assert!(HyperSphere::new(c, 0.0).is_ok());
    }

    #[test]
    fn point_containment_is_closed() {
        let b = ball(&[0.0, 0.0], 1.0);
        assert!(b.contains_coords(&[0.0, 0.0]));
        assert!(b.contains_coords(&[1.0, 0.0]));
        assert!(b.contains_coords(&[0.6, 0.6]));
        assert!(!b.contains_coords(&[0.8, 0.8]));
    }

    #[test]
    fn sphere_sphere_relations() {
        let big = ball(&[0.0, 0.0], 10.0);
        let small = ball(&[2.0, 0.0], 3.0);
        let far = ball(&[100.0, 0.0], 1.0);
        let tangent_inner = ball(&[7.0, 0.0], 3.0);
        let tangent_outer = ball(&[13.0, 0.0], 3.0);

        assert!(big.contains_sphere(&small));
        assert!(!small.contains_sphere(&big));
        assert!(big.contains_sphere(&tangent_inner)); // internal tangency counts
        assert!(big.intersects_sphere(&small));
        assert!(big.intersects_sphere(&tangent_outer)); // external tangency counts
        assert!(!big.intersects_sphere(&far));
        assert!(big.contains_sphere(&big));
    }

    #[test]
    fn sphere_rect_relations() {
        let b = ball(&[0.0, 0.0], 5.0);
        let inside = HyperRect::new(vec![-1.0, -1.0], vec![1.0, 1.0]).unwrap();
        let around = HyperRect::new(vec![-10.0, -10.0], vec![10.0, 10.0]).unwrap();
        let far = HyperRect::new(vec![20.0, 20.0], vec![21.0, 21.0]).unwrap();
        let corner_out = HyperRect::new(vec![0.0, 0.0], vec![4.0, 4.0]).unwrap();

        assert!(b.contains_rect(&inside));
        // corner (4,4) has distance sqrt(32) > 5: not contained, but intersects
        assert!(!b.contains_rect(&corner_out));
        assert!(b.intersects_rect(&corner_out));
        assert!(b.inside_rect(&around));
        assert!(!b.inside_rect(&inside));
        assert!(!b.intersects_rect(&far));
    }

    #[test]
    fn bounding_rect_covers_everything_membership_accepts() {
        let b = ball(&[1.0, 2.0, 3.0], 0.5);
        let r = b.bounding_rect();
        // Near-tight: within the ε fringe of the exact c ± r box.
        for d in 0..3 {
            assert!(r.lo()[d] <= b.center().coords()[d] - 0.5);
            assert!(r.hi()[d] >= b.center().coords()[d] + 0.5);
            assert!((r.lo()[d] - (b.center().coords()[d] - 0.5)).abs() < 1e-8);
            assert!((r.hi()[d] - (b.center().coords()[d] + 0.5)).abs() < 1e-8);
        }
        // Regression: a point the ε-tolerant membership accepts just
        // outside the exact radius must be inside the box, or index
        // pruning drops rows the membership filter would keep.
        let fringe = [1.0 + (0.25_f64 + crate::EPS / 2.0).sqrt(), 2.0, 3.0];
        assert!(b.contains_coords(&fringe));
        assert!(r.contains_coords(&fringe));
    }

    #[test]
    fn zero_radius_ball_is_a_point() {
        let b = ball(&[1.0, 1.0], 0.0);
        assert!(b.contains_coords(&[1.0, 1.0]));
        assert!(!b.contains_coords(&[1.0, 1.001]));
        let same = ball(&[1.0, 1.0], 0.0);
        assert!(b.contains_sphere(&same));
        assert!(b.approx_eq(&same));
    }
}
