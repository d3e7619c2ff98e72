//! The full deployment picture over real sockets: browser-like clients →
//! the function proxy (an `fp-edge` reactor serving one shared
//! [`ProxyHandle`]) → the origin web site (another reactor exposing its
//! search form and the free-form SQL page), all on loopback TCP using the
//! workspace's own HTTP stack.
//!
//! ```sh
//! cargo run --example http_proxy [-- --ttl <secs>] [--epoch <n>]
//!                                [--serve] [--port <n>] [--trace-sample <n>]
//!                                [--workers <n>] [--max-conns <n>]
//!                                [--cache-budget <bytes>] [--slab-dir <path>]
//!                                [--peers ip:port,ip:port,…] [--node-id <n>]
//! ```
//!
//! `--ttl` gives every cached entry a freshness lifetime (expired entries
//! are served stale while a background refresh runs), and `--epoch`
//! declares the origin's current data-release epoch (entries from older
//! epochs are invalidated).
//!
//! `--cache-budget` caps the RAM the cache may hold (bytes; default
//! unbounded) and `--slab-dir` attaches the disk tier — the cache's only
//! persistence: entries pushed over the budget demote to per-shard
//! mmap'd slab files instead of being evicted, still answering exact and
//! contained hits straight from the page cache, and every 5 s (and at
//! shutdown) each shard writes a small `.fpmeta` index beside its slab.
//! A proxy started over the same `--slab-dir` warm restarts from it.
//!
//! The front end is the nonblocking `fp-edge` reactor: one event-loop
//! thread multiplexes every connection, fresh cache hits and every
//! operational route that cannot block are answered inline, misses go
//! to a fixed worker pool (`--workers`, default 4), and admission
//! control sheds overload with fast `503 + Retry-After` instead of
//! queueing unboundedly (`--max-conns` caps open connections, default
//! 1024).
//!
//! Shutdown is graceful: SIGINT/SIGTERM stops accepting, drains
//! in-flight requests, quiesces background revalidations, writes a
//! final `.fpmeta` pass when `--slab-dir` is set, and prints a closing
//! stats summary.
//!
//! Observability: the proxy always exposes `GET /metrics` (Prometheus
//! text format: runtime counters, per-phase and per-outcome latency
//! histograms, and the edge's own counters) and `GET /debug/trace`
//! (sampled spans as a chrome://tracing JSON document; `?format=jsonl`
//! for JSON Lines). `--trace-sample N` traces one request in `N`
//! (default 16, `0` disables tracing). `--serve` keeps the proxy running
//! after the scripted demo so the endpoints can be scraped; `--port N`
//! pins the proxy's listen port (default: an ephemeral port).
//!
//! Health: `GET /healthz` answers 200 while the process lives (a
//! liveness probe), `GET /readyz` answers 503 once a drain began
//! (SIGINT/SIGTERM received) or while the origin circuit breaker is
//! open (with a `Retry-After` hint) — the signal a load balancer uses
//! to eject a node without dropping in-flight requests. Both are
//! `ProxyEdgeService` routes.
//!
//! Fleet mode: `--peers ip:port,ip:port,…` (the full fleet address
//! list, this node included) plus `--node-id N` (this node's index into
//! that list) turn N such processes into one slot-sharded proxy fleet.
//! This file only turns the flags into an `fp_edge::fleet::Fleet`: a
//! `funcproxy::cluster::Node`, the same one the in-process
//! `ClusterRouter` runs, talking to its peers over HTTP. A
//! background thread runs its SWIM failure detector, pinging one peer
//! per second through `GET /peer?gossip=…`. On a local cache miss the
//! node probes the owning peer's cache (`GET /peer?cmd=…&epoch=…`,
//! cache-only, tight deadline, one retry) before paying for an origin
//! fetch; a peer-served reply carries `X-Served-By: node<k>`. Probe failures
//! suspect the peer — failing its slots over to the next node in each
//! slot's preference chain — and fall through to the local origin
//! path, so peer trouble is never a client error.

use fp_suite::edge::fleet::{Fleet, Gossip};
use fp_suite::edge::sys::install_interrupt_flag;
use fp_suite::edge::{origin_router, EdgeConfig, EdgeServer, HttpOrigin, ProxyEdgeService};
use fp_suite::httpd::HttpClient;
use fp_suite::proxy::cache::TierConfig;
use fp_suite::proxy::cluster::NodeId;
use fp_suite::proxy::template::TemplateManager;
use fp_suite::proxy::{
    CostModel, LifecycleConfig, ObserveConfig, ProxyConfig, ProxyHandle, ResilienceConfig, Scheme,
};
use fp_suite::skyserver::{Catalog, CatalogSpec, ResultSet, SkySite};
use fp_suite::xmlite::Element;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::Duration;

fn main() {
    // 0. Lifecycle flags (all optional; without them the cache never
    //    expires and nothing is persisted — the pre-lifecycle behaviour).
    let mut ttl_secs: Option<u64> = None;
    let mut epoch: u64 = 0;
    let mut serve = false;
    let mut port: u16 = 0;
    let mut trace_sample: u64 = 16;
    let mut workers: usize = 4;
    let mut max_conns: usize = 1024;
    let mut cache_budget: Option<usize> = None;
    let mut slab_dir: Option<std::path::PathBuf> = None;
    let mut peers: Vec<std::net::SocketAddr> = Vec::new();
    let mut node_id: u16 = 0;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--peers" => {
                peers = args
                    .next()
                    .map(|list| {
                        list.split(',')
                            .map(|a| a.trim().parse().expect("--peers takes ip:port,ip:port,…"))
                            .collect()
                    })
                    .unwrap_or_default();
            }
            "--node-id" => node_id = args.next().and_then(|s| s.parse().ok()).unwrap_or(0),
            "--ttl" => ttl_secs = args.next().and_then(|s| s.parse().ok()),
            "--epoch" => epoch = args.next().and_then(|s| s.parse().ok()).unwrap_or(0),
            "--serve" => serve = true,
            "--port" => port = args.next().and_then(|s| s.parse().ok()).unwrap_or(0),
            "--trace-sample" => {
                trace_sample = args.next().and_then(|s| s.parse().ok()).unwrap_or(16);
            }
            "--workers" => workers = args.next().and_then(|s| s.parse().ok()).unwrap_or(4),
            "--max-conns" => {
                max_conns = args.next().and_then(|s| s.parse().ok()).unwrap_or(1024);
            }
            "--cache-budget" => cache_budget = args.next().and_then(|s| s.parse().ok()),
            "--slab-dir" => slab_dir = args.next().map(Into::into),
            other => {
                eprintln!(
                    "unknown option `{other}` \
                     (supported: --ttl <secs>, --epoch <n>, \
                     --serve, --port <n>, --trace-sample <n>, \
                     --workers <n>, --max-conns <n>, \
                     --cache-budget <bytes>, --slab-dir <path>, \
                     --peers ip:port,ip:port,…, --node-id <n>)"
                );
                std::process::exit(2);
            }
        }
    }
    if !peers.is_empty() {
        if usize::from(node_id) >= peers.len() {
            eprintln!(
                "--node-id {node_id} is out of range for a {}-entry --peers list",
                peers.len()
            );
            std::process::exit(2);
        }
        if port == 0 {
            // Default the listen port to this node's own --peers entry,
            // so the fleet's address list is the only configuration.
            port = peers[usize::from(node_id)].port();
        }
    }
    // Install the SIGINT/SIGTERM flag up front: it doubles as the
    // draining signal `/readyz` reports, so a load balancer stops
    // sending traffic the moment a drain begins.
    let interrupted = install_interrupt_flag();
    let mut lifecycle = LifecycleConfig::default().with_epoch(epoch);
    if let Some(secs) = ttl_secs {
        let ttl = std::time::Duration::from_secs(secs.max(1));
        lifecycle = lifecycle
            .with_default_ttl(ttl)
            // Serve expired entries (while refreshing) for one more TTL,
            // and keep them usable through origin outages for ten.
            .with_stale_while_revalidate(ttl)
            .with_stale_if_error(ttl * 10);
    }

    // 1. The origin web site: its router runs on the worker pool.
    println!("starting the origin site…");
    let site = SkySite::new(Catalog::generate(&CatalogSpec::small_test()));
    let origin_server = EdgeServer::bind(
        "127.0.0.1:0",
        Arc::new(origin_router(site)),
        EdgeConfig::default(),
    )
    .expect("origin binds");
    println!("origin listening on http://{}", origin_server.addr());

    // 2. The function proxy, talking to the origin over HTTP and serving
    //    the reactor and every worker through one shared handle.
    let origin = HttpOrigin::new(HttpClient::new(origin_server.addr()));
    let mut config = ProxyConfig::default()
        .with_scheme(Scheme::FullSemantic)
        .with_cost(CostModel::free())
        .with_lifecycle(lifecycle)
        // Deadlines, retry/backoff and the circuit breaker on the
        // origin path — also what feeds the Retry-After backoff hint.
        .with_resilience(ResilienceConfig::default())
        .with_observe(ObserveConfig::default().with_sample_every(trace_sample));
    if cache_budget.is_some() {
        config = config.with_capacity(cache_budget);
    }
    if let Some(dir) = &slab_dir {
        config = config
            .with_tier_config(TierConfig::new(dir).with_meta_interval(Duration::from_secs(5)));
    }
    let handle = ProxyHandle::new(
        TemplateManager::with_sky_defaults(),
        Arc::new(origin),
        config,
    );
    if let Some(dir) = &slab_dir {
        println!(
            "recovered {} cache entries from {}",
            handle.runtime_stats().recovered_entries,
            dir.display()
        );
    }
    // The reactor counts into the service's stats and the handle's
    // observer, which `/metrics` renders. In fleet mode the service is
    // also a fleet member: `/peer`, and the owner's cache before the
    // origin.
    let fleet = (!peers.is_empty()).then(|| {
        println!(
            "fleet  node{node_id} of {} nodes: {}",
            peers.len(),
            peers
                .iter()
                .map(|a| a.to_string())
                .collect::<Vec<_>>()
                .join(", ")
        );
        Arc::new(Fleet::new(handle.clone(), NodeId(node_id), peers))
    });
    let service = match &fleet {
        Some(fleet) => ProxyEdgeService::fleet_member(Arc::clone(fleet)),
        None => ProxyEdgeService::new(handle.clone()),
    };
    let edge_config = EdgeConfig::default()
        .with_workers(workers)
        .with_max_connections(max_conns);
    let proxy_server =
        EdgeServer::bind(&format!("127.0.0.1:{port}"), Arc::new(service), edge_config)
            .expect("proxy binds");
    println!(
        "proxy  listening on http://{} (edge reactor: {} threads total, \
         {max_conns} connection cap, {} cache shards)\n",
        proxy_server.addr(),
        proxy_server.thread_count(),
        handle.shard_count()
    );
    // The failure detector's heartbeat, stopped at drain time.
    let gossip = fleet.map(Gossip::spawn);

    // 3. A browser-like client issues Radial form requests to the proxy
    //    over one keep-alive connection.
    let browser = HttpClient::new(proxy_server.addr());
    for (label, url) in [
        ("miss   ", "/search/radial?ra=185.0&dec=0.5&radius=20"),
        ("hit    ", "/search/radial?ra=185.0&dec=0.5&radius=20"),
        ("subsume", "/search/radial?ra=185.0&dec=0.5&radius=8"),
        ("sql    ", "/sql?cmd=SELECT+TOP+3+p.objID+FROM+fGetNearbyObjEq(185.0,+0.5,+20.0)+n+JOIN+PhotoPrimary+p+ON+n.objID+%3D+p.objID"),
    ] {
        let response = browser.get(url).expect("request succeeds");
        let doc = Element::parse(&response.body_text()).expect("XML body");
        let rows = ResultSet::from_xml(&doc).expect("result document").len();
        println!(
            "{label} {url}\n        -> {} rows, outcome: {}",
            rows,
            response.headers.get("X-Cache-Outcome").unwrap_or("n/a"),
        );
    }

    // 4. Eight concurrent browsers ask the same cold question at once;
    //    the single-flight runtime answers all of them with one origin
    //    fetch.
    println!("\n8 concurrent clients, identical cold query:");
    let burst_url = "/search/radial?ra=186.5&dec=-0.5&radius=15";
    std::thread::scope(|scope| {
        for _ in 0..8 {
            let addr = proxy_server.addr();
            scope.spawn(move || {
                let client = HttpClient::new(addr);
                client.get(burst_url).expect("burst request succeeds");
            });
        }
    });
    let runtime = handle.runtime_stats();
    println!(
        "   requests: {}, flights led: {}, duplicate fetches avoided: {}",
        runtime.requests, runtime.flights_led, runtime.duplicate_fetches_avoided
    );

    let stats = handle.cache_stats();
    println!(
        "\nproxy cache: {} entries, {:.1} KB across {} shards",
        stats.entries,
        stats.bytes as f64 / 1024.0,
        handle.shard_count()
    );
    if slab_dir.is_some() {
        println!(
            "disk tier:   {} demoted entries, {:.1} KB slab \
             ({} demotions, {} promotions, {} disk hits)",
            stats.disk_entries,
            stats.slab_bytes as f64 / 1024.0,
            stats.demotions,
            stats.promotions,
            handle.runtime_stats().disk_hits,
        );
    }

    if serve {
        // SIGINT/SIGTERM set the flag instead of killing the process
        // (installed at startup; `/readyz` watches the same flag), so
        // the drain below always runs.
        println!(
            "\nserving until interrupted: curl http://{0}/metrics, \
             curl http://{0}/debug/trace?format=jsonl",
            proxy_server.addr()
        );
        while !interrupted.load(Ordering::Relaxed) {
            std::thread::sleep(Duration::from_millis(100));
        }
        println!("\ninterrupt received; draining…");
    }

    // Graceful shutdown: stop accepting, let in-flight requests finish,
    // then quiesce background revalidations so no origin fetch is
    // abandoned mid-flight. The gossip thread stops first — peers will
    // suspect this node and fail its slots over, which is exactly what
    // a drain means fleet-wide.
    if let Some(gossip) = gossip {
        gossip.stop().expect("the gossip thread never panics");
    }
    let snap = proxy_server.stats();
    proxy_server.shutdown_graceful(Duration::from_secs(5));
    handle.quiesce_revalidations();
    if slab_dir.is_some() {
        match handle.snapshot_now() {
            Ok(files) => println!("final .fpmeta pass: {files} shard files written"),
            Err(e) => eprintln!("final .fpmeta pass failed: {e}"),
        }
    }
    origin_server.shutdown();
    println!(
        "edge summary: {} requests ({} fast-path, {} offloaded, {} pipelined), \
         {} shed, {} connections ({} rejected at cap)",
        snap.requests,
        snap.fast_path,
        snap.offloaded,
        snap.pipelined,
        snap.shed_total(),
        snap.conns_accepted,
        snap.conns_rejected,
    );
    let runtime = handle.runtime_stats();
    println!(
        "servers stopped ({} requests served, {} cache entries retained).",
        runtime.requests,
        handle.cache_stats().entries
    );
}
