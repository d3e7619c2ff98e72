//! Property: degraded answers are **sound**. For arbitrary radial query
//! sequences, warm a resilient proxy, then kill the origin completely
//! and replay — every answer the proxy still produces must be a subset
//! of what the no-cache oracle returns for that query, answers that are
//! strictly smaller must be flagged `degraded`, and nothing degraded may
//! pollute the cache.

use fp_suite::proxy::resilience::{Clock, MockClock};
use fp_suite::proxy::template::TemplateManager;
use fp_suite::proxy::{
    ChaosOrigin, CostModel, Fault, Origin, ProxyConfig, ProxyHandle, ResilienceConfig, Scheme,
    SiteOrigin,
};
use fp_suite::skyserver::{Catalog, CatalogSpec, SkySite};
use proptest::prelude::*;
use std::collections::BTreeSet;
use std::sync::{Arc, OnceLock};

fn site() -> &'static SkySite {
    static SITE: OnceLock<SkySite> = OnceLock::new();
    SITE.get_or_init(|| {
        SkySite::new(Catalog::generate(&CatalogSpec {
            seed: 5,
            objects: 12_000,
            ..CatalogSpec::default()
        }))
    })
}

#[derive(Debug, Clone)]
struct RadialForm {
    ra: f64,
    dec: f64,
    radius: f64,
}

impl RadialForm {
    fn fields(&self) -> Vec<(String, String)> {
        vec![
            ("ra".to_string(), format!("{:.4}", self.ra)),
            ("dec".to_string(), format!("{:.4}", self.dec)),
            ("radius".to_string(), format!("{:.4}", self.radius)),
        ]
    }
}

/// Queries packed into a small patch so containment/overlap happens.
fn arb_query() -> impl Strategy<Value = RadialForm> {
    (184.5f64..185.5, -0.5f64..0.5, 1.0f64..25.0).prop_map(|(ra, dec, radius)| RadialForm {
        ra,
        dec,
        radius,
    })
}

/// objID key set of one oracle (no-cache) answer.
fn oracle_ids(queries: &[RadialForm]) -> Vec<BTreeSet<i64>> {
    let oracle = ProxyHandle::with_shards(
        TemplateManager::with_sky_defaults(),
        Arc::new(SiteOrigin::new(site().clone())),
        ProxyConfig::default()
            .with_scheme(Scheme::NoCache)
            .with_cost(CostModel::free()),
        1,
    );
    queries
        .iter()
        .map(|q| {
            let response = oracle
                .handle_form("/search/radial", &q.fields())
                .expect("oracle executes");
            let k = response.result.column_index("objID").expect("objID");
            response
                .result
                .rows
                .iter()
                .map(|row| row[k].as_i64().expect("int id"))
                .collect()
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    #[test]
    fn degraded_answers_are_subsets_of_the_oracle(
        queries in prop::collection::vec(arb_query(), 3..10),
    ) {
        let oracle = oracle_ids(&queries);

        let clock = MockClock::shared();
        let chaos = Arc::new(ChaosOrigin::with_clock(
            Arc::new(SiteOrigin::new(site().clone())),
            Arc::clone(&clock) as Arc<dyn Clock>,
        ));
        let handle = ProxyHandle::with_shards_clocked(
            TemplateManager::with_sky_defaults(),
            Arc::clone(&chaos) as Arc<dyn Origin>,
            ProxyConfig::default()
                .with_scheme(Scheme::FullSemantic)
                .with_cost(CostModel::free())
                .with_resilience(ResilienceConfig::fast_test()),
            4,
            Arc::clone(&clock) as Arc<dyn Clock>,
        );

        // Warm phase, healthy origin: every answer must equal the oracle.
        for (q, want) in queries.iter().zip(&oracle) {
            let response = handle
                .handle_form("/search/radial", &q.fields())
                .expect("healthy replay answers");
            let k = response.result.column_index("objID").expect("objID");
            let got: BTreeSet<i64> = response
                .result
                .rows
                .iter()
                .map(|row| row[k].as_i64().expect("int id"))
                .collect();
            prop_assert_eq!(&got, want, "healthy answer diverged");
            prop_assert!(!response.metrics.degraded);
        }
        let entries_before = handle.cache_stats().entries;

        // Outage phase: the origin is gone for good. Replay the same
        // sequence — exact repeats must hit, and whatever else is still
        // answered must be a sound (sub)set, degraded iff incomplete.
        chaos.set_default_fault(Fault::Unavailable);
        for (q, want) in queries.iter().zip(&oracle) {
            let Ok(response) = handle.handle_form("/search/radial", &q.fields()) else {
                continue; // no usable coverage — failing is allowed
            };
            let k = response.result.column_index("objID").expect("objID");
            let got: BTreeSet<i64> = response
                .result
                .rows
                .iter()
                .map(|row| row[k].as_i64().expect("int id"))
                .collect();
            prop_assert!(
                got.is_subset(want),
                "served {} rows not in the oracle answer ({:?} outcome)",
                got.difference(want).count(),
                response.metrics.outcome
            );
            if got.len() < want.len() {
                prop_assert!(
                    response.metrics.degraded,
                    "incomplete answer ({} of {} rows) not flagged degraded",
                    got.len(),
                    want.len()
                );
            }
            if !response.metrics.degraded {
                prop_assert_eq!(&got, want, "non-degraded outage answer diverged");
            }
        }
        prop_assert_eq!(
            handle.cache_stats().entries,
            entries_before,
            "the outage replay must not insert cache entries"
        );
    }
}
