//! Classifying a new query against the cache.

use crate::cache::CacheStore;
use crate::template::BoundKey;
use fp_geometry::Relation;

/// The status the paper's Section 3.2 assigns to a new query, with the
/// cache entries that justify it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum QueryStatus {
    /// Case (a): an exact match — serve the cached result file.
    ExactMatch(u64),
    /// Case (b): subsumed by one cached query — evaluate locally.
    ContainedBy(u64),
    /// Special case of (c): the new query contains the listed cached
    /// queries — fetch a remainder, merge, replace them (compaction).
    RegionContainment(Vec<u64>),
    /// Case (c): partial overlap with the listed cached queries.
    Overlapping(Vec<u64>),
    /// Case (d): disjoint from every cached query.
    Disjoint,
}

impl QueryStatus {
    /// Short label for metrics.
    pub fn label(&self) -> &'static str {
        match self {
            QueryStatus::ExactMatch(_) => "exact",
            QueryStatus::ContainedBy(_) => "contained",
            QueryStatus::RegionContainment(_) => "region-containment",
            QueryStatus::Overlapping(_) => "overlap",
            QueryStatus::Disjoint => "disjoint",
        }
    }
}

/// Classifies `bound` against the cached queries of its residual group.
///
/// Uses the cache description for candidate pruning, then exact region
/// relationship checks. Returns, in priority order: exact match, then
/// containment, then region containment, then overlap, then disjoint.
///
/// Entries whose result was clipped by a `TOP` limit are only eligible
/// for exact matches — a clipped result cannot prove completeness for any
/// other relationship (see `Entry::truncated`).
pub fn classify(store: &CacheStore, bound: &BoundKey) -> QueryStatus {
    classify_graded(store, bound, false)
}

/// [`classify`] with an explicit freshness grade.
///
/// With `allow_grace = false` only `Fresh` and `Stale` entries are
/// candidates (the stale-while-revalidate window: serveable, with a
/// background refresh). With `allow_grace = true` — the degraded path,
/// where the origin is known down — `Grace` entries are admitted too
/// (stale-if-error). `Dead` entries never classify; they are retired by
/// the store's sweep.
pub fn classify_graded(store: &CacheStore, bound: &BoundKey, allow_grace: bool) -> QueryStatus {
    store.with_candidates(&bound.residual_key, &bound.region, |candidates| {
        classify_candidates(store, bound, allow_grace, candidates)
    })
}

fn classify_candidates(
    store: &CacheStore,
    bound: &BoundKey,
    allow_grace: bool,
    candidates: &[u64],
) -> QueryStatus {
    let mut contained_by: Option<u64> = None;
    let mut contains: Vec<u64> = Vec::new();
    let mut overlaps: Vec<u64> = Vec::new();

    for &id in candidates {
        match store.freshness(id) {
            Some(f) if f.serveable(allow_grace) => {}
            _ => continue,
        }
        // Every entry's region and row count are resident, whichever
        // tier holds its rows: demoted entries classify without disk
        // access.
        let Some(entry) = store.peek(id) else {
            continue;
        };
        match bound.region.relate(&entry.region) {
            Relation::Equal => {
                // Equal region within one residual group means the same
                // query; a truncated equal entry was clipped the same way.
                return QueryStatus::ExactMatch(id);
            }
            Relation::Inside if !entry.truncated => {
                // Prefer the smallest containing entry: local evaluation
                // scans fewer tuples.
                match contained_by {
                    Some(prev) => {
                        let prev_len = store.peek(prev).map_or(usize::MAX, |e| e.rows());
                        if entry.rows() < prev_len {
                            contained_by = Some(id);
                        }
                    }
                    None => contained_by = Some(id),
                }
            }
            Relation::Contains if !entry.truncated => contains.push(id),
            Relation::Inside | Relation::Contains | Relation::Overlaps => {
                if !entry.truncated {
                    overlaps.push(id);
                }
            }
            Relation::Disjoint => {}
        }
    }

    if let Some(id) = contained_by {
        return QueryStatus::ContainedBy(id);
    }
    if !contains.is_empty() {
        return QueryStatus::RegionContainment(contains);
    }
    if !overlaps.is_empty() {
        return QueryStatus::Overlapping(overlaps);
    }
    QueryStatus::Disjoint
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cache::DescriptionKind;
    use crate::template::TemplateManager;
    use fp_skyserver::ResultSet;
    use fp_sqlmini::Value;

    fn bound(m: &TemplateManager, ra: f64, dec: f64, radius: f64) -> BoundKey {
        m.bind_form(
            "/search/radial",
            &[
                ("ra".to_string(), ra.to_string()),
                ("dec".to_string(), dec.to_string()),
                ("radius".to_string(), radius.to_string()),
            ],
        )
        .unwrap()
    }

    /// `n` rows with the radial template's coordinate columns.
    fn rs(n: usize) -> ResultSet {
        ResultSet {
            columns: ["objID", "cx", "cy", "cz"].map(String::from).to_vec(),
            rows: (0..n)
                .map(|i| {
                    let x = i as f64 * 1e-3;
                    vec![
                        Value::Int(i as i64),
                        Value::Float(x),
                        Value::Float(-x),
                        Value::Float(1.0 - x),
                    ]
                })
                .collect(),
        }
    }

    fn seed(store: &mut CacheStore, b: &BoundKey, n: usize, truncated: bool) -> u64 {
        store
            .insert(
                &b.residual_key,
                b.region.clone(),
                rs(n),
                truncated,
                &b.sql,
                &b.reg.coord_columns,
            )
            .unwrap()
    }

    #[test]
    fn classification_priorities() {
        let m = TemplateManager::with_sky_defaults();
        let mut store = CacheStore::new(DescriptionKind::Array, None);

        let big = bound(&m, 185.0, 0.0, 30.0);
        let big_id = seed(&mut store, &big, 100, false);

        // Exact.
        assert_eq!(classify(&store, &big), QueryStatus::ExactMatch(big_id));
        // Contained.
        let small = bound(&m, 185.0, 0.0, 10.0);
        assert_eq!(classify(&store, &small), QueryStatus::ContainedBy(big_id));
        // Region containment.
        let huge = bound(&m, 185.0, 0.0, 90.0);
        assert_eq!(
            classify(&store, &huge),
            QueryStatus::RegionContainment(vec![big_id])
        );
        // Overlap (centers 40' apart, radii 30' and 15').
        let side = bound(&m, 185.0 + 40.0 / 60.0, 0.0, 15.0);
        assert_eq!(
            classify(&store, &side),
            QueryStatus::Overlapping(vec![big_id])
        );
        // Disjoint.
        let far = bound(&m, 100.0, 0.0, 10.0);
        assert_eq!(classify(&store, &far), QueryStatus::Disjoint);
    }

    #[test]
    fn smallest_containing_entry_wins() {
        let m = TemplateManager::with_sky_defaults();
        let mut store = CacheStore::new(DescriptionKind::RTree, None);
        let big = bound(&m, 185.0, 0.0, 30.0);
        let _big_id = seed(&mut store, &big, 500, false);
        let mid = bound(&m, 185.0, 0.0, 20.0);
        let mid_id = seed(&mut store, &mid, 100, false);

        let small = bound(&m, 185.0, 0.0, 5.0);
        assert_eq!(classify(&store, &small), QueryStatus::ContainedBy(mid_id));
    }

    #[test]
    fn truncated_entries_only_serve_exact_matches() {
        let m = TemplateManager::with_sky_defaults();
        let mut store = CacheStore::new(DescriptionKind::Array, None);
        let big = bound(&m, 185.0, 0.0, 30.0);
        let big_id = seed(&mut store, &big, 100, true);

        // Exact still works.
        assert_eq!(classify(&store, &big), QueryStatus::ExactMatch(big_id));
        // Containment must NOT be answered from a truncated entry.
        let small = bound(&m, 185.0, 0.0, 10.0);
        assert_eq!(classify(&store, &small), QueryStatus::Disjoint);
        // Nor overlap probing / region containment.
        let huge = bound(&m, 185.0, 0.0, 60.0);
        assert_eq!(classify(&store, &huge), QueryStatus::Disjoint);
    }

    #[test]
    fn residual_groups_do_not_mix() {
        let m = TemplateManager::with_sky_defaults();
        let mut store = CacheStore::new(DescriptionKind::Array, None);
        let radial = bound(&m, 185.0, 0.0, 30.0);
        seed(&mut store, &radial, 10, false);

        // A rect query over the same sky area lives in another group
        // (different template) — no relationship.
        let rect = m
            .resolve_form(
                "/search/rect",
                &[
                    ("min_ra".to_string(), "184.0".to_string()),
                    ("max_ra".to_string(), "186.0".to_string()),
                    ("min_dec".to_string(), "-1.0".to_string()),
                    ("max_dec".to_string(), "1.0".to_string()),
                ],
            )
            .unwrap();
        assert_eq!(classify(&store, &rect), QueryStatus::Disjoint);
    }

    /// The verdict in a form that does not depend on the order a
    /// description lists candidates in: id lists sorted, and the
    /// containing entry named by its row count (equally small
    /// containers are interchangeable).
    fn normalized(store: &CacheStore, status: QueryStatus) -> (&'static str, Vec<u64>) {
        let label = status.label();
        let mut key = match status {
            QueryStatus::ExactMatch(id) => vec![id],
            QueryStatus::ContainedBy(id) => vec![store.peek(id).unwrap().rows() as u64],
            QueryStatus::RegionContainment(ids) | QueryStatus::Overlapping(ids) => ids,
            QueryStatus::Disjoint => Vec::new(),
        };
        key.sort_unstable();
        (label, key)
    }

    #[test]
    fn array_and_rtree_agree_over_2000_entries_on_all_five_relations() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        use std::sync::Arc;

        let m = TemplateManager::with_sky_defaults();
        let mut rng = StdRng::seed_from_u64(0x14);
        let cones: Vec<(f64, f64, f64)> = (0..2_000)
            .map(|_| {
                (
                    rng.gen_range(180.0..190.0),
                    rng.gen_range(-3.0..3.0),
                    rng.gen_range(0.5..6.0),
                )
            })
            .collect();
        let results: Vec<Arc<ResultSet>> = (0..5).map(|n| Arc::new(rs(n))).collect();
        let mut array = CacheStore::new(DescriptionKind::Array, None);
        let mut rtree = CacheStore::new(DescriptionKind::RTree, None);
        for (i, &(ra, dec, radius)) in cones.iter().enumerate() {
            let b = bound(&m, ra, dec, radius);
            for store in [&mut array, &mut rtree] {
                store.insert(
                    &b.residual_key,
                    b.region.clone(),
                    Arc::clone(&results[i % results.len()]),
                    false,
                    &b.sql,
                    &b.reg.coord_columns,
                );
            }
        }
        // One residual key, so one description holds all 2,000 boxes.
        let key = bound(&m, 185.0, 0.0, 1.0).residual_key;
        assert_eq!(array.group_len(&key), 2_000);
        assert_eq!(rtree.group_len(&key), 2_000);

        let mut seen = std::collections::BTreeMap::new();
        for probe in 0..1_000 {
            let (ra, dec, radius) = cones[rng.gen_range(0..cones.len())];
            let b = match probe % 5 {
                0 => bound(&m, ra, dec, radius),
                1 => bound(&m, ra, dec, radius * rng.gen_range(0.2..0.9)),
                2 => bound(&m, ra, dec, radius * rng.gen_range(1.5..4.0)),
                3 => bound(&m, ra + radius / 60.0, dec, radius),
                _ => bound(&m, ra - 90.0, dec, radius),
            };
            let from_array = normalized(&array, classify(&array, &b));
            let from_rtree = normalized(&rtree, classify(&rtree, &b));
            assert_eq!(from_array, from_rtree, "probe {probe}: {:?}", b.region);
            *seen.entry(from_array.0).or_insert(0usize) += 1;
        }
        let labels: Vec<&str> = seen.keys().copied().collect();
        assert_eq!(
            labels,
            [
                "contained",
                "disjoint",
                "exact",
                "overlap",
                "region-containment"
            ],
            "every relation must be exercised: {seen:?}"
        );
    }
}
