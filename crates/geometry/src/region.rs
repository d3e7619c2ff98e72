//! The closed union of the proxy's supported region shapes.

use crate::point::Point;
use crate::polytope::Polytope;
use crate::rect::HyperRect;
use crate::relate::{relate_regions, Relation};
use crate::sphere::HyperSphere;
use serde::{Deserialize, Serialize};

/// A query region: the geometric meaning of one table-valued function call.
///
/// The proxy's template manager turns a bound function-embedded query into a
/// `Region` using the registered function template (shape + parameter
/// mapping); every caching decision afterwards is made on `Region`s alone,
/// without touching result data — the key idea of the paper's Section 3.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Region {
    /// An axis-aligned box, e.g. `fGetObjFromRect`.
    Rect(HyperRect),
    /// A ball, e.g. `fGetNearbyObjEq`.
    Sphere(HyperSphere),
    /// A convex polytope with a declared bounding box.
    Polytope(Polytope),
}

impl Region {
    /// Dimensionality of the region.
    pub fn dims(&self) -> usize {
        match self {
            Region::Rect(r) => r.dims(),
            Region::Sphere(s) => s.dims(),
            Region::Polytope(p) => p.dims(),
        }
    }

    /// Whether the point lies inside the (closed) region.
    pub fn contains_point(&self, p: &Point) -> bool {
        self.contains_coords(p.coords())
    }

    /// [`Self::contains_point`] on a raw coordinate slice — the inner loop
    /// of local evaluation of subsumed queries.
    #[inline]
    pub fn contains_coords(&self, coords: &[f64]) -> bool {
        match self {
            Region::Rect(r) => r.contains_coords(coords),
            Region::Sphere(s) => s.contains_coords(coords),
            Region::Polytope(p) => p.contains_coords(coords),
        }
    }

    /// Tight axis-aligned bounding box (declared box for polytopes).
    pub fn bounding_rect(&self) -> HyperRect {
        match self {
            Region::Rect(r) => r.clone(),
            Region::Sphere(s) => s.bounding_rect(),
            Region::Polytope(p) => p.bbox().clone(),
        }
    }

    /// [`Self::bounding_rect`] without allocating: boxes and polytopes
    /// lend the box they hold, a ball writes its box over `scratch`.
    pub fn bounding_rect_in<'a>(&'a self, scratch: &'a mut HyperRect) -> &'a HyperRect {
        match self {
            Region::Rect(r) => r,
            Region::Sphere(s) => {
                s.bounding_rect_into(scratch);
                scratch
            }
            Region::Polytope(p) => p.bbox(),
        }
    }

    /// Classifies the spatial relationship of `self` (the *new* query)
    /// against `other` (a *cached* query). See [`Relation`] for the
    /// soundness contract.
    pub fn relate(&self, other: &Region) -> Relation {
        relate_regions(self, other)
    }

    /// Short human-readable name of the shape; used in logs and templates.
    pub fn shape_name(&self) -> &'static str {
        match self {
            Region::Rect(_) => "hyperrect",
            Region::Sphere(_) => "hypersphere",
            Region::Polytope(_) => "polytope",
        }
    }
}

impl From<HyperRect> for Region {
    fn from(r: HyperRect) -> Self {
        Region::Rect(r)
    }
}

impl From<HyperSphere> for Region {
    fn from(s: HyperSphere) -> Self {
        Region::Sphere(s)
    }
}

impl From<Polytope> for Region {
    fn from(p: Polytope) -> Self {
        Region::Polytope(p)
    }
}

impl std::fmt::Display for Region {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Region::Rect(r) => write!(f, "{r}"),
            Region::Sphere(s) => write!(f, "{s}"),
            Region::Polytope(p) => write!(f, "{p}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dims_and_shape_names() {
        let r: Region = HyperRect::new(vec![0.0, 0.0], vec![1.0, 1.0])
            .unwrap()
            .into();
        let s: Region = HyperSphere::new(Point::from_slice(&[0.0, 0.0, 0.0]), 1.0)
            .unwrap()
            .into();
        assert_eq!(r.dims(), 2);
        assert_eq!(s.dims(), 3);
        assert_eq!(r.shape_name(), "hyperrect");
        assert_eq!(s.shape_name(), "hypersphere");
    }

    #[test]
    fn membership_dispatches() {
        let r: Region = HyperRect::new(vec![0.0], vec![1.0]).unwrap().into();
        assert!(r.contains_coords(&[0.5]));
        assert!(!r.contains_coords(&[1.5]));
        let s: Region = HyperSphere::new(Point::from_slice(&[0.0]), 1.0)
            .unwrap()
            .into();
        assert!(s.contains_coords(&[-1.0]));
        assert!(!s.contains_coords(&[-1.01]));
    }

    #[test]
    fn bounding_rect_dispatches() {
        let s: Region = HyperSphere::new(Point::from_slice(&[1.0, 1.0]), 1.0)
            .unwrap()
            .into();
        // The ball's box is ε-padded to cover its fuzzy membership
        // fringe (see `HyperSphere::bounding_rect`), so near-equality.
        let bb = s.bounding_rect();
        for d in 0..2 {
            assert!(bb.lo()[d] <= 0.0 && bb.lo()[d] > -1e-8);
            assert!(bb.hi()[d] >= 2.0 && bb.hi()[d] < 2.0 + 1e-8);
        }
        // The non-allocating form yields the same box whatever the
        // scratch held before (here: another dimensionality).
        let mut scratch = HyperRect::new(vec![7.0], vec![8.0]).unwrap();
        assert_eq!(s.bounding_rect_in(&mut scratch), &bb);
        let r: Region = HyperRect::new(vec![0.0, 1.0], vec![2.0, 3.0])
            .unwrap()
            .into();
        assert_eq!(r.bounding_rect_in(&mut scratch), &r.bounding_rect());
    }
}
