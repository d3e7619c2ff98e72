//! `fp-perf`: the repository's benchmark. One run = one workload in
//! one process: boot the real `fp-edge` server over a `ProxyHandle`,
//! drive it over loopback, check every reply against a no-cache
//! oracle, print every metric, and end with the result line
//! `BENCHMARK.json` describes. See `README.md`.

mod client;
mod oracle;
mod probes;
mod rig;
mod trace;
mod workload;

use client::{run_window, Pacing, WindowResult};
use fp_edge::EdgeSnapshot;
use fp_skyserver::SkySite;
use funcproxy::cache::CacheStats;
use funcproxy::runtime::RuntimeSnapshot;
use rig::{affinity, Fetch, Proxy};
use serde::Deserialize;
use std::time::Instant;
use workload::{Plan, Workload, WORKLOADS};

/// Rounds of an untraced run; every end-to-end metric is the median of
/// its rounds.
const ROUNDS: usize = 3;

/// A metric as printed: name, value, unit.
pub type Metric = (String, f64, &'static str);

pub fn metric(name: &str, value: f64, unit: &'static str) -> Metric {
    (name.to_string(), value, unit)
}

/// Nearest-rank percentile of an ascending slice; 0 when empty.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((sorted.len() as f64 * p).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

pub fn median(mut values: Vec<f64>) -> f64 {
    values.sort_by(f64::total_cmp);
    percentile(&values, 0.5)
}

/// The process's CPU sets: everything it may use, and the one CPU the
/// server and the generator share while measuring (the other absorbs
/// the box's noise).
pub struct Cpus {
    all: affinity::CpuSet,
    measured: affinity::CpuSet,
}

/// Counters the program exposes, read at a window boundary.
pub struct Counters {
    pub runtime: RuntimeSnapshot,
    pub cache: CacheStats,
    pub edge: EdgeSnapshot,
}

/// One set-up plus its measured windows on a fresh server.
pub struct Round {
    pub setup_s: f64,
    pub closed: WindowResult,
    pub open: WindowResult,
    /// Traced runs only.
    pub open_hi: Option<WindowResult>,
    /// Origin fetches made while measuring.
    pub fetches: Vec<Fetch>,
    pub before: Counters,
    pub after: Counters,
    /// Live until the round's numbers are read (histograms).
    pub proxy: Proxy,
}

impl Round {
    pub fn windows(&self) -> impl Iterator<Item = &WindowResult> {
        [&self.closed, &self.open].into_iter().chain(&self.open_hi)
    }

    pub fn attempted(&self) -> usize {
        self.windows().map(|w| w.samples.len()).sum()
    }

    pub fn failed(&self) -> usize {
        self.windows().map(WindowResult::failed).sum()
    }

    /// 1 − origin bytes ÷ reply bytes over the measured windows.
    pub fn cache_efficiency(&self) -> f64 {
        let origin: u64 = self.fetches.iter().map(|f| f.bytes).sum();
        let replies: u64 = self
            .windows()
            .flat_map(|w| &w.samples)
            .map(|s| u64::from(s.body_bytes))
            .sum();
        1.0 - origin as f64 / replies as f64
    }
}

/// Boots a fresh server, warms it, pins the process and runs the
/// measured windows. `setup_started` is when the round's set-up began
/// (plan building included).
pub fn socket_round(
    site: &SkySite,
    workload: &Workload,
    plan: &Plan,
    seed: u64,
    traced: bool,
    cpus: &Cpus,
    setup_started: Instant,
) -> Round {
    let proxy = Proxy::boot(site, plan.ram_budget);
    let server = proxy.serve();
    let warm = run_window(
        server.addr(),
        &plan.pool,
        &plan.warm,
        &Pacing::Closed,
        false,
    );
    assert_eq!(warm.failed(), 0, "warm-up replies differ from the oracle");
    proxy.origin.drain();
    affinity::apply_to_process(&cpus.measured);
    proxy.origin.set_delayed(true);
    let counters = |proxy: &Proxy| Counters {
        runtime: proxy.handle.runtime_stats(),
        cache: proxy.handle.cache_stats(),
        edge: server.stats(),
    };
    let before = counters(&proxy);
    let setup_s = setup_started.elapsed().as_secs_f64();

    let open_pacing = |rate: f64, salt: u64| Pacing::Open {
        rate,
        seed: seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ salt,
    };
    let run = |stream: &[u32], pacing: Pacing| {
        run_window(server.addr(), &plan.pool, stream, &pacing, traced)
    };
    let closed = run(&plan.closed, Pacing::Closed);
    let open = run(&plan.open, open_pacing(workload.open_rate, 1));
    let open_hi = (!plan.open_hi.is_empty())
        .then(|| run(&plan.open_hi, open_pacing(2.0 * workload.open_rate, 2)));

    let after = counters(&proxy);
    let fetches = proxy.origin.drain();
    affinity::apply_to_process(&cpus.all);
    server.shutdown_graceful(std::time::Duration::from_secs(2));
    Round {
        setup_s,
        closed,
        open,
        open_hi,
        fetches,
        before,
        after,
        proxy,
    }
}

/// The workload's own sanity conditions; a violated one fails the run.
pub fn self_checks(workload: &Workload, rounds: &[&Round]) -> Vec<String> {
    use workload::Kind;
    let mut broken = Vec::new();
    let mut check = |ok: bool, what: &str| {
        if !ok {
            broken.push(format!("{}: {what}", workload.name));
        }
    };
    let sum = |f: &dyn Fn(&Round) -> usize| rounds.iter().map(|r| f(r)).sum::<usize>();
    match workload.kind {
        Kind::HitSmall | Kind::HitLarge => {
            check(
                sum(&|r| r.fetches.len()) == 0,
                "origin fetched while measuring",
            );
        }
        Kind::PaperMix => {}
        Kind::DiskTier => {
            check(
                sum(&|r| r.after.cache.demotions - r.before.cache.demotions) > 0,
                "no demotion while measuring",
            );
            check(
                sum(&|r| r.after.runtime.disk_hits - r.before.runtime.disk_hits) > 0,
                "no disk hit while measuring",
            );
            check(
                rounds.iter().all(|r| r.after.cache.slab_compactions >= 1),
                "a round without a slab compaction",
            );
        }
    }
    if workload.kind == Kind::HitLarge {
        let mut sizes: Vec<f64> = rounds
            .iter()
            .flat_map(|r| r.windows())
            .flat_map(|w| &w.samples)
            .map(|s| f64::from(s.body_bytes))
            .collect();
        sizes.sort_by(f64::total_cmp);
        check(percentile(&sizes, 0.5) >= 100e3, "reply p50 under 100 KB");
    }
    broken
}

fn untraced(site: &SkySite, workload: &Workload, seed: u64, seconds: f64, cpus: &Cpus) -> Outcome {
    let sizes = workload.sizes(seconds / ROUNDS as f64, false);
    let rounds: Vec<Round> = (0..ROUNDS as u64)
        .map(|round| {
            let started = Instant::now();
            let round_seed = seed.wrapping_mul(ROUNDS as u64).wrapping_add(round);
            let plan = workload.plan(site, round_seed, sizes);
            socket_round(site, workload, &plan, round_seed, false, cpus, started)
        })
        .collect();
    let over = |f: &dyn Fn(&Round) -> f64| median(rounds.iter().map(f).collect());
    let metrics = vec![
        metric("setup_s", over(&|r| r.setup_s), "s"),
        metric(
            "throughput_qps",
            over(&|r| (r.closed.samples.len() - r.closed.failed()) as f64 / r.closed.wall_s()),
            "1/s",
        ),
        metric(
            "hit_latency_p50_ms",
            over(&|r| {
                let hits = r
                    .open
                    .latencies_ms(|s| s.outcome.is_some_and(client::Outcome::is_hit));
                percentile(&hits, 0.5)
            }),
            "ms",
        ),
        metric("cache_efficiency", over(&Round::cache_efficiency), "ratio"),
        metric("rss_peak_mb", rig::rss_peak_mb(), "MB"),
    ];
    Outcome {
        attempted: rounds.iter().map(Round::attempted).sum(),
        failed: rounds.iter().map(Round::failed).sum(),
        broken: self_checks(workload, &rounds.iter().collect::<Vec<_>>()),
        metrics,
    }
}

/// What a run produced, before it is checked against `BENCHMARK.json`.
pub struct Outcome {
    pub attempted: usize,
    pub failed: usize,
    /// Violated self-checks.
    pub broken: Vec<String>,
    pub metrics: Vec<Metric>,
}

#[derive(Deserialize)]
struct Manifest {
    run_seconds: u64,
    end_to_end: Vec<Declared>,
    per_layer: Vec<Declared>,
}

#[derive(Deserialize)]
struct Declared {
    name: String,
    unit: String,
}

struct Args {
    workload: &'static Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(default_seconds: f64) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, 1u64, default_seconds, false);
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        let bad = format!("bad value `{value}` for {flag}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    WORKLOADS
                        .iter()
                        .find(|w| w.name == value)
                        .ok_or(format!("unknown workload `{value}`"))?,
                );
            }
            "--seed" => seed = value.parse().map_err(|_| bad)?,
            "--seconds" => seconds = value.parse().map_err(|_| bad)?,
            "--trace" => trace = value.parse::<u8>().map_err(|_| bad)? != 0,
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !(seconds.is_finite() && seconds >= 1.0) {
        return Err("--seconds must be at least 1".into());
    }
    Ok(Args {
        workload: workload
            .ok_or("--workload <hit_small|hit_large|paper_mix|disk_tier> is required")?,
        seed,
        seconds,
        trace,
    })
}

fn main() -> std::process::ExitCode {
    let manifest: Manifest =
        serde_json::from_str(include_str!("../../BENCHMARK.json")).expect("BENCHMARK.json parses");
    let args = match parse_args(manifest.run_seconds as f64) {
        Ok(args) => args,
        Err(message) => {
            eprintln!("fp-perf: {message}");
            eprintln!("usage: fp-perf --workload <name> [--seed n] [--seconds s] [--trace 0|1]");
            return std::process::ExitCode::from(2);
        }
    };
    let all = affinity::allowed();
    let cpus = Cpus {
        measured: affinity::last_cpu(&all),
        all,
    };
    println!(
        "# fp-perf workload={} seed={} seconds={} trace={} objects={} shards={} edge_workers={} \
         queue_depth={} connections={} origin_delay_ms={} rounds={ROUNDS} closed_qps={} open_rate={}",
        args.workload.name,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        rig::OBJECTS,
        rig::SHARDS,
        rig::EDGE_WORKERS,
        rig::QUEUE_DEPTH,
        rig::CONNECTIONS,
        rig::ORIGIN_DELAY.as_millis(),
        args.workload.closed_qps,
        args.workload.open_rate,
    );
    let site = rig::build_site();
    let outcome = if args.trace {
        trace::traced(&site, args.workload, args.seed, args.seconds, &cpus)
    } else {
        untraced(&site, args.workload, args.seed, args.seconds, &cpus)
    };

    let declared = if args.trace {
        &manifest.per_layer
    } else {
        &manifest.end_to_end
    };
    let mut broken = outcome.broken;
    let printed: Vec<(&str, &str)> = outcome
        .metrics
        .iter()
        .map(|(n, _, u)| (n.as_str(), *u))
        .collect();
    let wanted: Vec<(&str, &str)> = declared
        .iter()
        .map(|d| (d.name.as_str(), d.unit.as_str()))
        .collect();
    if printed != wanted {
        broken.push(format!(
            "printed metrics differ from BENCHMARK.json: printed {printed:?}, declared {wanted:?}"
        ));
    }
    if let Some((name, value, _)) = outcome.metrics.iter().find(|(_, v, _)| !v.is_finite()) {
        broken.push(format!("metric {name} is {value}"));
    }
    for (name, value, unit) in &outcome.metrics {
        println!("{name} {value} {unit}");
    }
    for line in &broken {
        eprintln!("fp-perf: check failed: {line}");
    }
    let correct = outcome.failed == 0 && broken.is_empty();
    let body: Vec<String> = outcome
        .metrics
        .iter()
        .map(|(name, value, unit)| {
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.attempted,
        outcome.failed,
        body.join(", ")
    );
    if correct {
        std::process::ExitCode::SUCCESS
    } else {
        std::process::ExitCode::FAILURE
    }
}
