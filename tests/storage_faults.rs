//! Storage-fault integration tests: the disk tier under injected I/O
//! errors, end to end through the serving path.
//!
//! Three pinned behaviors:
//!
//! 1. **ENOSPC never costs a request.** A full disk degrades the tier
//!    to eviction-only mode — every query still answers byte-identically
//!    (availability 1.000) — and when the disk heals, a periodic
//!    re-probe restores demotion. The `tier_degraded` /
//!    `tier_recoveries` / `slab_io_errors` counters prove the round
//!    trip.
//! 2. **`.fpmeta` write errors never poison serving.** A failing
//!    metadata write — staging or its fsync — is counted
//!    (`snapshot_io_errors`) and leaves the previous file untouched; the
//!    proxy keeps answering from RAM and the next healthy pass writes
//!    the metadata.
//! 3. **Corrupted slab segments are read-repaired.** A CRC-failing
//!    demoted segment is quarantined and refetched through the
//!    resilient path — the client still gets the right bytes, and
//!    `read_repairs` counts the heal.

use fp_suite::proxy::cache::{IoFault, IoOp, SlabIo, TierConfig};
use fp_suite::proxy::metrics::Outcome;
use fp_suite::proxy::template::TemplateManager;
use fp_suite::proxy::{
    CostModel, CountingOrigin, Origin, ProxyConfig, ProxyHandle, Scheme, SiteOrigin,
};
use fp_suite::skyserver::{Catalog, CatalogSpec, SkySite};
use std::path::{Path, PathBuf};
use std::sync::Arc;

fn fresh_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("{name}_{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    dir
}

/// Well-separated radial queries — each its own exact-match entry.
fn queries(n: usize) -> Vec<Vec<(String, String)>> {
    (0..n)
        .map(|i| {
            vec![
                ("ra".to_string(), format!("{:.4}", 15.0 + 16.0 * (i as f64))),
                (
                    "dec".to_string(),
                    format!("{:.4}", -30.0 + 3.0 * (i as f64)),
                ),
                ("radius".to_string(), "7.0000".to_string()),
            ]
        })
        .collect()
}

fn site() -> SkySite {
    SkySite::new(Catalog::generate(&CatalogSpec {
        seed: 77,
        objects: 9_000,
        ..CatalogSpec::default()
    }))
}

fn make_handle(
    site: &SkySite,
    budget: Option<usize>,
    tier: Option<(&Path, &SlabIo)>,
) -> (ProxyHandle, Arc<CountingOrigin>) {
    let origin = Arc::new(CountingOrigin::new(Arc::new(SiteOrigin::new(site.clone()))));
    let mut config = ProxyConfig::default()
        .with_scheme(Scheme::FullSemantic)
        .with_cost(CostModel::free())
        .with_capacity(budget);
    if let Some((dir, io)) = tier {
        config = config.with_tier_config(TierConfig::new(dir).with_io(io.clone()));
    }
    let handle = ProxyHandle::with_shards(
        TemplateManager::with_sky_defaults(),
        Arc::clone(&origin) as Arc<dyn Origin>,
        config,
        2,
    );
    (handle, origin)
}

/// Oracle bodies and the working-set size, from an unbounded RAM proxy.
fn oracle(site: &SkySite, queries: &[Vec<(String, String)>]) -> (Vec<Vec<u8>>, usize) {
    let (handle, _) = make_handle(site, None, None);
    let truth: Vec<Vec<u8>> = queries
        .iter()
        .map(|q| {
            handle
                .handle_form_xml("/search/radial", q)
                .expect("oracle serves")
                .body
        })
        .collect();
    let working_set = handle.cache_stats().bytes.max(1);
    (truth, working_set)
}

/// ENOSPC acceptance: with every slab append failing, the tier degrades
/// to eviction-only mode and **no request is lost** — then a heal plus
/// continued traffic re-probes the disk and recovery resumes demotion.
#[test]
fn enospc_degrades_to_eviction_only_with_full_availability() {
    let site = site();
    let queries = queries(20);
    let (truth, working_set) = oracle(&site, &queries);

    let tier_dir = fresh_dir("fp_enospc");
    let io = SlabIo::healthy();
    // Disk full from the very first demotion attempt.
    io.inject(IoOp::Append, IoFault::Enospc);
    let (handle, _) = make_handle(&site, Some(working_set / 4), Some((&tier_dir, &io)));

    // Three full passes under ENOSPC: the budget wants to demote on
    // every pass, every attempt fails, and every answer stays right.
    for round in 0..3 {
        for (k, q) in queries.iter().enumerate() {
            let r = handle
                .handle_form_xml("/search/radial", q)
                .expect("request must serve under ENOSPC");
            assert_eq!(
                r.body, truth[k],
                "round {round} query {k}: wrong bytes under a full disk"
            );
        }
    }
    handle.quiesce_revalidations();
    let mid = handle.runtime_stats();
    assert!(
        mid.cache.tier_degraded >= 1,
        "persistent ENOSPC must trip eviction-only mode"
    );
    assert!(
        mid.cache.slab_io_errors >= 1,
        "failed appends must be counted, got {}",
        mid.cache.slab_io_errors
    );
    assert_eq!(mid.cache.tier_recoveries, 0, "disk has not healed yet");

    // The disk heals. Demotion pressure continues; within a few passes
    // a re-probe append lands and the tier recovers.
    io.heal_all();
    for _ in 0..6 {
        for (k, q) in queries.iter().enumerate() {
            let r = handle
                .handle_form_xml("/search/radial", q)
                .expect("request must serve after heal");
            assert_eq!(r.body, truth[k]);
        }
    }
    handle.quiesce_revalidations();
    let end = handle.runtime_stats();
    assert!(
        end.cache.tier_recoveries >= 1,
        "the re-probe must detect the healed disk (degraded={}, io_errors={})",
        end.cache.tier_degraded,
        end.cache.slab_io_errors
    );
    assert!(
        handle.cache_stats().demotions > 0,
        "demotion must resume after recovery"
    );
    assert!(io.faults_injected() > 0);
    std::fs::remove_dir_all(&tier_dir).ok();
}

/// Satellite: `.fpmeta` snapshot write errors are counted and isolated
/// — `snapshot_now` still returns Ok, serving continues from RAM, and
/// the next healthy pass writes the metadata for real.
#[test]
fn snapshot_write_faults_never_poison_serving() {
    let site = site();
    let queries = queries(6);
    let (truth, _) = oracle(&site, &queries);

    let tier_dir = fresh_dir("fp_snapfault_tier");
    let io = SlabIo::healthy();
    let (handle, _) = make_handle(&site, None, Some((&tier_dir, &io)));
    for q in &queries {
        handle.handle_form_xml("/search/radial", q).expect("serves");
    }
    handle.quiesce_revalidations();

    // Disk full exactly when the tier metadata is being written.
    io.inject(IoOp::MetaWrite, IoFault::Enospc);
    let written = handle
        .snapshot_now()
        .expect("a failed snapshot must never surface as an error");
    assert_eq!(written, 0, "no shard may claim a write that failed");
    let stats = handle.runtime_stats();
    assert!(
        stats.snapshot_io_errors >= 1,
        "the failed meta write must be counted"
    );

    // Serving is untouched: every answer still comes out of RAM.
    for (k, q) in queries.iter().enumerate() {
        let r = handle.handle_form_xml("/search/radial", q).expect("serves");
        assert_eq!(
            r.body, truth[k],
            "query {k}: snapshot failure leaked into the serving path"
        );
    }

    // Healed: the shards are still dirty, so the retry writes them.
    io.heal_all();
    let written = handle.snapshot_now().expect("healthy snapshot");
    assert!(
        written >= 1,
        "the failed shards must stay dirty and retry on the next pass"
    );
    std::fs::remove_dir_all(&tier_dir).ok();
}

/// Satellite: the `.fpmeta` writer fsyncs through the seam before its
/// rename. A failing barrier is a failed write — counted, and the
/// previous `.fpmeta` stays byte-identical on disk — and a restart
/// recovers from that previous file.
#[test]
fn meta_fsync_failure_keeps_the_previous_meta() {
    let site = site();
    let queries = queries(10);
    let (truth, _) = oracle(&site, &queries);

    let tier_dir = fresh_dir("fp_meta_fsync");
    let io = SlabIo::healthy();
    let (handle, _) = make_handle(&site, None, Some((&tier_dir, &io)));
    for q in &queries[..6] {
        handle.handle_form_xml("/search/radial", q).expect("serves");
    }
    assert!(handle.snapshot_now().expect("healthy pass") >= 1);
    let read_metas = || -> Vec<Option<Vec<u8>>> {
        (0..2)
            .map(|i| std::fs::read(tier_dir.join(format!("shard_{i}.fpmeta"))).ok())
            .collect()
    };
    let metas = read_metas();

    // Dirty the shards, then fail the durability barrier.
    for q in &queries[6..] {
        handle.handle_form_xml("/search/radial", q).expect("serves");
    }
    io.inject(IoOp::Fsync, IoFault::Eio);
    let written = handle
        .snapshot_now()
        .expect("a failed pass is not an error");
    assert_eq!(written, 0, "no shard may claim a write whose fsync failed");
    assert!(handle.runtime_stats().snapshot_io_errors >= 1);
    assert_eq!(read_metas(), metas, "a failed fsync replaced a .fpmeta");
    drop(handle);

    // Restart: the previous .fpmeta (six entries) is what recovers.
    io.heal_all();
    let (restarted, origin) = make_handle(&site, None, Some((&tier_dir, &io)));
    let stats = restarted.runtime_stats();
    assert_eq!(stats.recovered_entries, 6);
    assert_eq!(stats.snapshot_corrupt_segments, 0);
    for (k, q) in queries[..6].iter().enumerate() {
        let r = restarted
            .handle_form_xml("/search/radial", q)
            .expect("serves");
        assert!(matches!(r.metrics.outcome, Outcome::Exact), "query {k}");
        assert_eq!(r.body, truth[k], "query {k}");
    }
    assert_eq!(origin.fetches(), 0, "every recovered entry served locally");
    restarted.quiesce_revalidations();
    std::fs::remove_dir_all(&tier_dir).ok();
}

/// A demoted segment whose bytes rot on disk fails its CRC at serve
/// time: the entry is quarantined and refetched from origin — the
/// client sees the right bytes, never the rotten ones, and the repair
/// is counted.
#[test]
fn corrupted_demoted_segment_is_read_repaired() {
    let site = site();
    let queries = queries(20);
    let (truth, working_set) = oracle(&site, &queries);

    let tier_dir = fresh_dir("fp_readrepair");
    let io = SlabIo::healthy();
    let (handle, _) = make_handle(&site, Some(working_set / 4), Some((&tier_dir, &io)));

    // Two passes so the budget demotes the long tail to the slab.
    for _ in 0..2 {
        for q in &queries {
            handle.handle_form_xml("/search/radial", q).expect("serves");
        }
    }
    handle.quiesce_revalidations();
    assert!(
        handle.cache_stats().disk_entries > 0,
        "the long tail must live on the slab for this test to bite"
    );

    // Rot seven bytes spread across every slab shard. Which entries the
    // second pass's background promotions left demoted depends on
    // thread timing, and a segment whose entry was promoted is never
    // read again — one rotten byte in the middle of the file went
    // unnoticed in ~4 % of runs (6 of 150). Seven spread positions
    // reached a segment a demoted entry still serves from in 150 of 150.
    let mut rotted = 0;
    for entry in std::fs::read_dir(&tier_dir).expect("tier dir") {
        let path = entry.expect("entry").path();
        if path.extension().and_then(|e| e.to_str()) != Some("fpslab") {
            continue;
        }
        let mut bytes = std::fs::read(&path).expect("slab readable");
        if bytes.len() <= 64 {
            continue;
        }
        for eighth in 1..8 {
            let at = bytes.len() * eighth / 8;
            bytes[at] ^= 0xFF;
        }
        std::fs::write(&path, &bytes).expect("slab writable");
        rotted += 1;
    }
    assert!(rotted > 0, "no slab file grew enough to corrupt");

    // Re-serve everything: the rotten segment is detected, repaired,
    // and the client still gets byte-identical answers.
    for (k, q) in queries.iter().enumerate() {
        let r = handle.handle_form_xml("/search/radial", q).expect("serves");
        assert_eq!(
            r.body, truth[k],
            "query {k}: a rotten slab byte reached the client"
        );
    }
    handle.quiesce_revalidations();
    let stats = handle.runtime_stats();
    assert!(
        stats.read_repairs >= 1,
        "the CRC failure must be repaired and counted (corrupt_segments={})",
        handle.cache_stats().slab_corrupt_segments
    );
    std::fs::remove_dir_all(&tier_dir).ok();
}
