//! Concurrency storm for the disk tier: eight client threads hammer a
//! tiered cache whose RAM budget holds only a fraction of the working
//! set, so entries continuously demote to the slab and promote back on
//! access while other threads are mid-read. The pinned invariant is
//! byte-identity: every response must equal the origin's answer for that
//! query no matter which tier served it or what churn was in flight —
//! demote/promote moves bytes, never changes them.
//!
//! A second test holds the same invariant for a reply that is still
//! queued when the churn hits: a disk hit leaves the edge as ranges of
//! the mapped slab file, and the mapping it pins must outlive the
//! entry, a compaction of the file, and the file's name.

use fp_suite::edge::{EdgeConfig, EdgeServer, ProxyEdgeService};
use fp_suite::httpd::parse::read_response;
use fp_suite::proxy::cache::TierConfig;
use fp_suite::proxy::template::TemplateManager;
use fp_suite::proxy::{CostModel, Origin, ProxyConfig, ProxyHandle, Scheme, SiteOrigin};
use fp_suite::skyserver::{Catalog, CatalogSpec, SkySite};
use std::io::{BufReader, Write};
use std::net::TcpStream;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};

const THREADS: usize = 8;
const ROUNDS: usize = 6;

fn fresh_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(name);
    std::fs::remove_dir_all(&dir).ok();
    dir
}

/// Twenty well-separated radial queries — each its own exact-match
/// entry, so every repeat is an exact hit from RAM or from the slab.
fn queries() -> Vec<Vec<(String, String)>> {
    (0..20)
        .map(|i| {
            vec![
                (
                    "ra".to_string(),
                    format!("{:.4}", 15.0 + 16.0 * f64::from(i)),
                ),
                (
                    "dec".to_string(),
                    format!("{:.4}", -30.0 + 3.0 * f64::from(i)),
                ),
                ("radius".to_string(), "7.0000".to_string()),
            ]
        })
        .collect()
}

fn make_handle(site: &SkySite, budget: Option<usize>, tier_dir: Option<&PathBuf>) -> ProxyHandle {
    let mut config = ProxyConfig::default()
        .with_scheme(Scheme::FullSemantic)
        .with_cost(CostModel::free());
    if budget.is_some() {
        config = config.with_capacity(budget);
    }
    if let Some(dir) = tier_dir {
        config = config.with_tier(dir.clone());
    }
    ProxyHandle::with_shards(
        TemplateManager::with_sky_defaults(),
        Arc::new(SiteOrigin::new(site.clone())) as Arc<dyn Origin>,
        config,
        2, // few shards → heavy churn per shard
    )
}

#[test]
fn eight_thread_storm_stays_byte_identical_under_tier_churn() {
    let site = SkySite::new(Catalog::generate(&CatalogSpec {
        seed: 77,
        objects: 9_000,
        ..CatalogSpec::default()
    }));
    let queries = queries();

    // Oracle bodies from an unbounded RAM-only proxy, and the working
    // set size the storm budget is derived from.
    let oracle = make_handle(&site, None, None);
    let truth: Vec<Vec<u8>> = queries
        .iter()
        .map(|q| {
            oracle
                .handle_form_xml("/search/radial", q)
                .expect("oracle serves")
                .body
        })
        .collect();
    let working_set = oracle.cache_stats().bytes.max(1);
    drop(oracle);

    // The storm handle holds roughly a quarter of the working set in
    // RAM; the rest lives on the slab and churns on every access.
    let tier_dir = fresh_dir("fp_tier_storm");
    let handle = make_handle(&site, Some(working_set / 4), Some(&tier_dir));

    std::thread::scope(|scope| {
        for t in 0..THREADS {
            let handle = handle.clone();
            let queries = &queries;
            let truth = &truth;
            scope.spawn(move || {
                for round in 0..ROUNDS {
                    // Each thread walks the query list at its own
                    // rotation so threads constantly collide on entries
                    // the budget enforcer is moving between tiers.
                    for i in 0..queries.len() {
                        let k = (i + t * 3 + round) % queries.len();
                        let r = handle
                            .handle_form_xml("/search/radial", &queries[k])
                            .expect("storm request serves");
                        assert_eq!(
                            r.body, truth[k],
                            "thread {t} round {round} query {k}: \
                             response bytes diverged from the origin's answer"
                        );
                    }
                }
            });
        }
    });
    handle.quiesce_revalidations();

    // The storm must actually have exercised the tier, not just RAM.
    let cache = handle.cache_stats();
    let runtime = handle.runtime_stats();
    assert!(cache.demotions > 0, "budget must demote under the storm");
    assert!(
        runtime.disk_hits > 0,
        "some answers must be served from the slab"
    );
    assert!(
        cache.promotions > 0,
        "hot demoted entries must promote back to RAM"
    );
    assert_eq!(
        runtime.requests,
        queries.len() * THREADS * ROUNDS,
        "every storm request must be accounted for"
    );
    std::fs::remove_dir_all(&tier_dir).ok();
}

fn radial(ra: f64, dec: f64, radius: f64) -> Vec<(String, String)> {
    vec![
        ("ra".to_string(), ra.to_string()),
        ("dec".to_string(), dec.to_string()),
        ("radius".to_string(), radius.to_string()),
    ]
}

/// Disk hits — exact and contained — answered inline by the edge and
/// parked behind a reader that reads nothing; then the entry is retired,
/// its slab compacted (staged copy renamed over the file, so the mapped
/// inode loses its name) and the whole tier directory removed. The
/// queued replies lend ranges of that mapping; what the reader finally
/// drains must be the bytes a RAM-only proxy serves.
#[test]
fn parked_disk_hits_outlive_compaction_and_the_slab_file() {
    let site = SkySite::new(Catalog::generate(&CatalogSpec::small_test()));
    // A 170′ cone (≈ 2.4 MB) asked for whole, and as 95′ sub-cones far
    // enough off-centre that the answer is hundreds of slab ranges.
    let big = radial(185.0, 0.0, 170.0);
    let mut requests = vec![big.clone(), big.clone()];
    requests.extend((1..=6).map(|k| radial(185.0 + f64::from(k) / 6.0, 0.0, 95.0)));

    let oracle = make_handle(&site, None, None);
    oracle
        .handle_form_xml("/search/radial", &big)
        .expect("warm");
    let big_footprint = oracle.cache_stats().bytes;
    let truth: Vec<Vec<u8>> = requests
        .iter()
        .map(|q| oracle.handle_form_xml("/search/radial", q).unwrap().body)
        .collect();
    assert!(truth.iter().map(Vec::len).sum::<usize>() > 8 << 20);
    drop(oracle);

    // RAM for the big entry and little else: the next insert demotes it.
    // Any dead byte triggers a compaction.
    let tier_dir = fresh_dir("fp_tier_pin");
    let handle = ProxyHandle::with_shards(
        TemplateManager::with_sky_defaults(),
        Arc::new(SiteOrigin::new(site.clone())) as Arc<dyn Origin>,
        ProxyConfig::default()
            .with_scheme(Scheme::FullSemantic)
            .with_cost(CostModel::free())
            .with_capacity(Some(big_footprint + 4096))
            .with_tier_config(TierConfig::new(&tier_dir).with_compact_ratio(0.01)),
        1,
    );
    handle
        .handle_form_xml("/search/radial", &big)
        .expect("warm");
    handle
        .handle_form_xml("/search/radial", &radial(181.0, -2.0, 20.0))
        .expect("the insert that pushes the big entry out");
    let cache = handle.cache_stats();
    assert_eq!((cache.entries, cache.disk_entries), (1, 1), "demoted");

    let server = EdgeServer::bind(
        "127.0.0.1:0",
        Arc::new(ProxyEdgeService::new(handle.clone())),
        EdgeConfig::default().with_workers(0),
    )
    .unwrap();
    let mut stream = TcpStream::connect(server.addr()).expect("connect");
    let wire: String = requests
        .iter()
        .map(|q| {
            format!(
                "GET /search/radial?ra={}&dec={}&radius={} HTTP/1.1\r\nHost: t\r\n\r\n",
                q[0].1, q[1].1, q[2].1
            )
        })
        .collect();
    stream.write_all(wire.as_bytes()).unwrap();
    let deadline = Instant::now() + Duration::from_secs(20);
    while server.stats().fast_path < requests.len() && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(5));
    }
    // Inline (no workers, so nothing promoted it) and all from the slab;
    // > 8 MB queued against a socket that holds about half of that.
    assert_eq!(server.stats().fast_path, requests.len());
    assert_eq!(handle.runtime_stats().disk_hits, requests.len());

    assert_eq!(handle.set_epoch(handle.current_epoch() + 1), 2);
    let cache = handle.cache_stats();
    assert_eq!((cache.entries, cache.disk_entries), (0, 0), "retired");
    assert!(cache.slab_compactions >= 1, "the slab was rewritten");
    std::fs::remove_dir_all(&tier_dir).expect("tier directory");
    assert!(!tier_dir.exists());

    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    let mut reader = BufReader::new(stream);
    for (k, want) in truth.iter().enumerate() {
        let reply = read_response(&mut reader).expect("a whole reply");
        let outcome = if k < 2 { "exact" } else { "contained" };
        assert_eq!(reply.headers.get("X-Cache-Outcome"), Some(outcome));
        assert!(
            reply.body == *want,
            "reply {k}: a parked disk hit differs from the RAM-served answer"
        );
    }
    server.shutdown();
}
