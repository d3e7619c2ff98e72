//! The caching schemes of the paper's evaluation.

use serde::{Deserialize, Serialize};

/// Which caching scheme the proxy runs.
///
/// The paper's Section 4.2 evaluates: a tunneling proxy (NC), passive
/// caching (PC), and three active variants — full semantic caching
/// ("First"), active caching handling exact match + containment + region
/// containment ("Second"), and pure containment-based caching ("Third").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Scheme {
    /// NC: forward everything, cache nothing.
    NoCache,
    /// PC: exact-match caching on the request text only.
    Passive,
    /// "First": full semantic caching — all five relationship cases,
    /// including general overlap via probe + remainder queries.
    FullSemantic,
    /// "Second": exact match, containment, and region containment; general
    /// overlap is forwarded.
    RegionContainment,
    /// "Third": exact match and containment only.
    ContainmentOnly,
}

impl Scheme {
    /// Whether the scheme caches at all.
    pub fn caches(self) -> bool {
        !matches!(self, Scheme::NoCache)
    }

    /// Whether the scheme performs template-based (active) caching.
    pub fn is_active(self) -> bool {
        matches!(
            self,
            Scheme::FullSemantic | Scheme::RegionContainment | Scheme::ContainmentOnly
        )
    }

    /// Whether region containment triggers merge + compaction.
    pub fn handles_region_containment(self) -> bool {
        matches!(self, Scheme::FullSemantic | Scheme::RegionContainment)
    }

    /// Whether general overlap is answered with probe + remainder.
    pub fn handles_overlap(self) -> bool {
        matches!(self, Scheme::FullSemantic)
    }

    /// The paper's label for the scheme.
    pub fn paper_label(self) -> &'static str {
        match self {
            Scheme::NoCache => "NC",
            Scheme::Passive => "PC",
            Scheme::FullSemantic => "First (full semantic caching)",
            Scheme::RegionContainment => "Second (exact + containment + region containment)",
            Scheme::ContainmentOnly => "Third (containment-based)",
        }
    }

    /// A stable dense index for per-scheme counters, in declaration
    /// order (`no-cache` = 0 … `containment-only` = 4).
    pub fn index(self) -> usize {
        match self {
            Scheme::NoCache => 0,
            Scheme::Passive => 1,
            Scheme::FullSemantic => 2,
            Scheme::RegionContainment => 3,
            Scheme::ContainmentOnly => 4,
        }
    }

    /// Each scheme's stable name (its `Display` form and its
    /// `scheme` metric label), indexed by [`Scheme::index`].
    pub const LABELS: [&'static str; 5] = [
        "no-cache",
        "passive",
        "full-semantic",
        "region-containment",
        "containment-only",
    ];

    /// All five schemes, in the paper's presentation order.
    pub fn all() -> [Scheme; 5] {
        [
            Scheme::NoCache,
            Scheme::Passive,
            Scheme::FullSemantic,
            Scheme::RegionContainment,
            Scheme::ContainmentOnly,
        ]
    }
}

impl std::fmt::Display for Scheme {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(Scheme::LABELS[self.index()])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn capability_matrix_matches_the_paper() {
        use Scheme::*;
        assert!(!NoCache.caches());
        assert!(Passive.caches() && !Passive.is_active());
        for s in [FullSemantic, RegionContainment, ContainmentOnly] {
            assert!(s.caches() && s.is_active());
        }
        assert!(FullSemantic.handles_overlap());
        assert!(!RegionContainment.handles_overlap());
        assert!(!ContainmentOnly.handles_overlap());
        assert!(FullSemantic.handles_region_containment());
        assert!(RegionContainment.handles_region_containment());
        assert!(!ContainmentOnly.handles_region_containment());
    }

    #[test]
    fn labels() {
        assert_eq!(Scheme::NoCache.paper_label(), "NC");
        assert_eq!(Scheme::FullSemantic.to_string(), "full-semantic");
        assert_eq!(Scheme::all().len(), 5);
    }
}
