//! Kill-restart recovery through the disk tier, the cache's only
//! on-disk form: write the `.fpmeta` of a warmed proxy mid-trace, drop
//! it, rebuild over the same tier directory, and finish the trace — the
//! warm restart must recover the fresh entries (serving byte-identical
//! answers), keep the data-release epoch, and land within five hit-rate
//! points of a proxy that never restarted. A corrupted `.fpmeta` loses
//! exactly the damaged records, never the startup.

use fp_suite::proxy::metrics::Outcome;
use fp_suite::proxy::resilience::{Clock, MockClock};
use fp_suite::proxy::template::TemplateManager;
use fp_suite::proxy::{
    CostModel, LifecycleConfig, Origin, ProxyConfig, ProxyHandle, Scheme, SiteOrigin,
};
use fp_suite::skyserver::{Catalog, CatalogSpec, ResultSet, SkySite};
use std::path::{Path, PathBuf};
use std::sync::{Arc, OnceLock};
use std::time::Duration;

fn site() -> &'static SkySite {
    static SITE: OnceLock<SkySite> = OnceLock::new();
    SITE.get_or_init(|| {
        SkySite::new(Catalog::generate(&CatalogSpec {
            seed: 13,
            objects: 8_000,
            ..CatalogSpec::default()
        }))
    })
}

/// Twelve well-separated radial queries: each is its own cache entry.
fn base_queries() -> Vec<Vec<(String, String)>> {
    (0..12)
        .map(|i| {
            vec![
                (
                    "ra".to_string(),
                    format!("{:.4}", 30.0 + 25.0 * f64::from(i)),
                ),
                (
                    "dec".to_string(),
                    format!("{:.4}", -20.0 + 4.0 * f64::from(i)),
                ),
                ("radius".to_string(), "8.0000".to_string()),
            ]
        })
        .collect()
}

/// The full trace: every base query once (all misses), then every base
/// query again plus three fresh positions (12 hits + 3 misses).
fn trace() -> (Vec<Vec<(String, String)>>, usize) {
    let base = base_queries();
    let mut all = base.clone();
    all.extend(base);
    for i in 0..3 {
        all.push(vec![
            (
                "ra".to_string(),
                format!("{:.4}", 40.0 + 30.0 * f64::from(i)),
            ),
            (
                "dec".to_string(),
                format!("{:.4}", 55.0 - 3.0 * f64::from(i)),
            ),
            ("radius".to_string(), "6.0000".to_string()),
        ]);
    }
    let first_half = 12;
    (all, first_half)
}

/// A proxy at configured epoch 1, optionally bounding RAM (`budget`)
/// and persisting to `tier_dir` (no metadata interval: `.fpmeta` is
/// written by `snapshot_now` only, deterministically).
fn make_handle(
    clock: &Arc<MockClock>,
    tier_dir: Option<&Path>,
    budget: Option<usize>,
    shards: usize,
) -> ProxyHandle {
    let lifecycle = LifecycleConfig::default()
        .with_default_ttl(Duration::from_secs(3600))
        .with_epoch(1);
    let mut config = ProxyConfig::default()
        .with_scheme(Scheme::FullSemantic)
        .with_cost(CostModel::free())
        .with_capacity(budget)
        .with_lifecycle(lifecycle);
    if let Some(dir) = tier_dir {
        config = config.with_tier(dir.to_path_buf());
    }
    ProxyHandle::with_shards_clocked(
        TemplateManager::with_sky_defaults(),
        Arc::new(SiteOrigin::new(site().clone())) as Arc<dyn Origin>,
        config,
        shards,
        Arc::clone(clock) as Arc<dyn Clock>,
    )
}

/// Replays `queries` and returns (hits, bodies) — hit = exact/contained.
fn replay(handle: &ProxyHandle, queries: &[Vec<(String, String)>]) -> (usize, Vec<Vec<u8>>) {
    let mut hits = 0;
    let mut bodies = Vec::with_capacity(queries.len());
    for q in queries {
        let r = handle.handle_form_xml("/search/radial", q).expect("serves");
        hits += usize::from(matches!(
            r.metrics.outcome,
            Outcome::Exact | Outcome::Contained
        ));
        bodies.push(r.body);
    }
    (hits, bodies)
}

fn fresh_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(name);
    std::fs::remove_dir_all(&dir).ok();
    dir
}

#[test]
fn warm_restart_recovers_the_cache_and_its_hit_rate() {
    let (all, half) = trace();
    let clock = MockClock::shared();

    // Baseline: one proxy lives through the whole trace.
    let baseline = make_handle(&clock, None, None, 4);
    replay(&baseline, &all[..half]);
    let (baseline_hits, baseline_bodies) = replay(&baseline, &all[half..]);
    assert!(baseline_hits >= 12, "the repeated queries must hit");

    // Restarted: persist after the first half, drop, recover, finish.
    let dir = fresh_dir("fp_lifecycle_restart_clean");
    let before = make_handle(&clock, Some(&dir), None, 4);
    let (_, warm_bodies) = replay(&before, &all[..half]);
    let files = before.snapshot_now().expect("meta writes");
    assert!(files >= 1, "warmed shards must write their .fpmeta");
    drop(before);

    let after = make_handle(&clock, Some(&dir), None, 4);
    let stats = after.runtime_stats();
    assert_eq!(
        stats.recovered_entries, half,
        "every fresh entry must be recovered"
    );
    assert_eq!(stats.snapshot_corrupt_segments, 0);

    // Recovered entries serve byte-identical answers...
    let (restart_hits, restart_bodies) = replay(&after, &all[half..]);
    for (got, want) in restart_bodies.iter().zip(&baseline_bodies) {
        assert_eq!(got, want, "restarted proxy diverged from the baseline");
    }
    assert_eq!(warm_bodies[0], restart_bodies[0], "recovered entry bytes");

    // ...and the hit rate stays within five points of never restarting.
    let n = all.len() - half;
    let baseline_rate = baseline_hits as f64 / n as f64;
    let restart_rate = restart_hits as f64 / n as f64;
    assert!(
        (baseline_rate - restart_rate).abs() <= 0.05,
        "hit rate drifted: baseline {baseline_rate:.2}, restarted {restart_rate:.2}"
    );
    std::fs::remove_dir_all(&dir).ok();
}

/// Kill-restart under a RAM budget tight enough to demote most entries
/// to the slab: a restart must recover *everything* — demoted entries
/// from their slab segments, resident ones appended when the `.fpmeta`
/// was written — and keep serving byte-identical answers, now partly
/// straight off the mmap'd slab. A second kill that also loses the
/// `.fpmeta` still recovers every entry whose payload reached the slab
/// (bare replay mode).
#[test]
fn tiered_kill_restart_recovers_slab_and_meta() {
    let (all, half) = trace();
    let clock = MockClock::shared();

    // Baseline bodies from a proxy that never restarted (unbounded RAM).
    let baseline = make_handle(&clock, None, None, 2);
    replay(&baseline, &all[..half]);
    let (_, baseline_bodies) = replay(&baseline, &all[half..]);

    // Size the budget to roughly a third of the warmed working set, so
    // the tiered run must demote most entries.
    let warmed_bytes = baseline.cache_stats().bytes.max(1);
    let budget = warmed_bytes / 3;
    drop(baseline);

    let tier_dir = fresh_dir("fp_tier_restart_slab");
    let before = make_handle(&clock, Some(&tier_dir), Some(budget), 2);
    replay(&before, &all[..half]);
    before.quiesce_revalidations();
    let warm_stats = before.cache_stats();
    assert!(warm_stats.demotions > 0, "tight budget must demote");
    assert!(warm_stats.disk_entries > 0, "slab must hold entries");
    assert!(
        before.snapshot_now().expect("tier meta writes") >= 1,
        "tiered shards must write their .fpmeta"
    );
    drop(before);

    // Restart #1: slab + .fpmeta → full recovery.
    let after = make_handle(&clock, Some(&tier_dir), Some(budget), 2);
    let stats = after.runtime_stats();
    assert_eq!(
        stats.recovered_entries, half,
        "slab + meta must recover every entry"
    );
    assert_eq!(stats.snapshot_corrupt_segments, 0);
    let (restart_hits, restart_bodies) = replay(&after, &all[half..]);
    for (i, (got, want)) in restart_bodies.iter().zip(&baseline_bodies).enumerate() {
        assert_eq!(
            got, want,
            "query {i}: tiered restart diverged from baseline"
        );
    }
    assert!(
        restart_hits >= half,
        "every repeated query must hit after the tiered restart, got {restart_hits}"
    );
    after.quiesce_revalidations();
    assert!(
        after.runtime_stats().disk_hits > 0,
        "some recovered entries must serve from the slab before promotion"
    );
    drop(after);

    // Restart #2: no usable .fpmeta — shard 0's is in a layout this
    // build does not read (counted, never fatal), shard 1's is gone
    // (crash before the final pass). Bare slab replay still recovers
    // everything demoted or previously persisted — byte-identically.
    std::fs::write(tier_dir.join("shard_0.fpmeta"), b"OLDMETA!\x01\0\0\0junk").unwrap();
    std::fs::remove_file(tier_dir.join("shard_1.fpmeta")).ok();
    let replayed = make_handle(&clock, Some(&tier_dir), Some(budget), 2);
    let stats = replayed.runtime_stats();
    assert_eq!(stats.snapshot_corrupt_segments, 1, "the foreign file");
    assert!(
        stats.recovered_entries >= warm_stats.disk_entries,
        "bare replay must recover at least the demoted entries: {} < {}",
        stats.recovered_entries,
        warm_stats.disk_entries
    );
    let (_, replay_bodies) = replay(&replayed, &all[half..]);
    for (i, (got, want)) in replay_bodies.iter().zip(&baseline_bodies).enumerate() {
        assert_eq!(got, want, "query {i}: bare-replay restart diverged");
    }
    replayed.quiesce_revalidations();
    std::fs::remove_dir_all(&tier_dir).ok();
}

#[test]
fn corrupted_snapshot_loads_partially_without_panicking() {
    let (all, half) = trace();
    let clock = MockClock::shared();

    // One shard → one .fpmeta holding the epoch and all twelve entries.
    let dir = fresh_dir("fp_lifecycle_restart_corrupt");
    let before = make_handle(&clock, Some(&dir), None, 1);
    let (_, warm_bodies) = replay(&before, &all[..half]);
    assert_eq!(before.snapshot_now().expect("meta writes"), 1);
    drop(before);

    // Damage the file: flip a byte inside the first entry record (the
    // frame after the leading epoch record; CRC mismatch) and cut the
    // tail mid-record (truncation).
    let path = dir.join("shard_0.fpmeta");
    let mut data = std::fs::read(&path).expect(".fpmeta exists");
    let (header_len, frame_len) = (8 + 4, 4 + 4);
    let epoch_len = u32::from_le_bytes(data[header_len..header_len + 4].try_into().unwrap());
    data[header_len + frame_len + epoch_len as usize + frame_len + 2] ^= 0xFF;
    let keep = data.len() - 40;
    std::fs::write(&path, &data[..keep]).expect("rewrite damaged .fpmeta");

    let after = make_handle(&clock, Some(&dir), None, 1);
    let stats = after.runtime_stats();
    assert!(
        stats.snapshot_corrupt_segments >= 2,
        "bit-flip and truncation must both be counted, got {}",
        stats.snapshot_corrupt_segments
    );
    assert!(
        stats.recovered_entries >= half.saturating_sub(2 + stats.snapshot_corrupt_segments)
            && stats.recovered_entries < half,
        "partial recovery expected, got {} of {half}",
        stats.recovered_entries
    );
    assert_eq!(after.current_epoch(), 1, "the epoch record survived");

    // Whatever survived serves byte-identical exact hits; the damaged
    // entries are ordinary misses, not errors.
    let mut exact = 0;
    for (q, want) in all[..half].iter().zip(&warm_bodies) {
        let r = after.handle_form_xml("/search/radial", q).expect("serves");
        if matches!(r.metrics.outcome, Outcome::Exact) {
            assert_eq!(&r.body, want, "recovered entry must serve its old bytes");
            exact += 1;
        }
    }
    assert_eq!(exact, stats.recovered_entries, "survivors all serve exact");
    after.quiesce_revalidations();
    std::fs::remove_dir_all(&dir).ok();
}

/// Satellite: the data-release epoch survives a restart. Entries cached
/// before a bump are gone for good; a proxy rebuilt with its old
/// configured epoch adopts the higher one from `.fpmeta` instead of
/// resurrecting the pre-bump release.
#[test]
fn tiered_restart_adopts_the_persisted_epoch() {
    let (all, _) = trace();
    let clock = MockClock::shared();
    let dir = fresh_dir("fp_tier_restart_epoch");

    let before = make_handle(&clock, Some(&dir), None, 2);
    replay(&before, &all[..4]);
    assert_eq!(before.set_epoch(3), 4, "the bump retires epoch-1 entries");
    let (_, bodies) = replay(&before, &all[4..8]);
    assert!(before.snapshot_now().expect("meta writes") >= 1);
    drop(before);

    // Same configuration, configured epoch still 1.
    let after = make_handle(&clock, Some(&dir), None, 2);
    assert_eq!(after.current_epoch(), 3, "restart forgot the epoch");
    assert_eq!(after.runtime_stats().recovered_entries, 4);
    assert_eq!(after.set_epoch(2), 0, "an older epoch is a no-op");
    for (q, want) in all[4..8].iter().zip(&bodies) {
        let r = after.handle_form_xml("/search/radial", q).expect("serves");
        assert!(matches!(r.metrics.outcome, Outcome::Exact));
        assert_eq!(&r.body, want);
    }
    for q in &all[..4] {
        let r = after.handle_form_xml("/search/radial", q).expect("serves");
        assert!(
            !matches!(r.metrics.outcome, Outcome::Exact | Outcome::Contained),
            "a pre-bump entry came back"
        );
    }
    after.quiesce_revalidations();
    std::fs::remove_dir_all(&dir).ok();
}

fn radial_fields(ra: f64, dec: f64, radius: f64) -> Vec<(String, String)> {
    vec![
        ("ra".to_string(), ra.to_string()),
        ("dec".to_string(), dec.to_string()),
        ("radius".to_string(), radius.to_string()),
    ]
}

fn object_ids(result: &ResultSet) -> Vec<i64> {
    let k = result.column_index("objID").unwrap();
    result.rows.iter().map(|r| r[k].as_i64().unwrap()).collect()
}

/// Warm restart keeps *active* caching working: the paper's proxy
/// persists its results as "Query Result Files" (Figure 4) — here slab
/// segments — and a fresh proxy over the same directory answers exact
/// repeats and subsumed queries from them with zero origin traffic.
#[test]
fn warm_restart_preserves_active_caching() {
    let dir = fresh_dir("fp_warm_restart_active");
    let site = SkySite::new(Catalog::generate(&CatalogSpec::small_test()));
    let proxy = || {
        ProxyHandle::new(
            TemplateManager::with_sky_defaults(),
            Arc::new(SiteOrigin::new(site.clone())),
            ProxyConfig::default()
                .with_scheme(Scheme::FullSemantic)
                .with_cost(CostModel::free())
                .with_tier(dir.clone()),
        )
    };

    // Session 1: populate and persist.
    let big_ids = {
        let p = proxy();
        let big = p
            .handle_form("/search/radial", &radial_fields(185.0, 0.5, 25.0))
            .expect("first query");
        // A rect query too, so the tier holds two templates.
        p.handle_form(
            "/search/rect",
            &[
                ("min_ra", "184.0"),
                ("max_ra", "186.0"),
                ("min_dec", "0.0"),
                ("max_dec", "1.0"),
            ],
        )
        .expect("rect query");
        assert!(p.snapshot_now().expect("meta writes") >= 1);
        object_ids(&big.result)
    };

    // Session 2: fresh proxy, warm cache.
    site.reset_load();
    let p2 = proxy();
    assert_eq!(p2.runtime_stats().recovered_entries, 2);
    let stats = p2.cache_stats();
    assert_eq!(stats.entries + stats.disk_entries, 2);

    // Exact repeat: served from the restored entry, identical rows.
    let repeat = p2
        .handle_form("/search/radial", &radial_fields(185.0, 0.5, 25.0))
        .expect("repeat");
    assert_eq!(repeat.metrics.outcome.label(), "exact");
    assert_eq!(object_ids(&repeat.result), big_ids);

    // Subsumed query: answered locally from the restored entry.
    let contained = p2
        .handle_form("/search/radial", &radial_fields(185.0, 0.5, 10.0))
        .expect("contained");
    assert_eq!(contained.metrics.outcome.label(), "contained");
    p2.quiesce_revalidations();
    assert_eq!(
        site.load().queries,
        0,
        "warm cache answered everything locally"
    );
    std::fs::remove_dir_all(&dir).ok();
}
