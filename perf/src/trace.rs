//! The traced run (`--trace 1`): the layer probes, then one round of
//! windows twice on fresh servers — plain, then with the client and
//! the origin decorator keeping spans — then the same requests
//! replayed single-threaded in-process through staged public calls.
//! All spans stay in memory and go to `perf/out/trace-<workload>.jsonl`
//! at the end.

use crate::client::{Outcome as Label, Span};
use crate::oracle::scan_reply;
use crate::rig::{now_ns, out_dir, Fetch, Proxy};
use crate::workload::{Plan, Workload};
use crate::{metric, percentile, probes, self_checks, socket_round, Cpus, Metric, Outcome, Round};
use fp_httpd::parse::read_request;
use fp_skyserver::SkySite;
use funcproxy::metrics::Outcome as Served;
use funcproxy::observe::{PathClass, Phase};
use std::hint::black_box;
use std::io::Write;
use std::time::Instant;

/// Share of `--seconds` one traced round of windows is sized for (the
/// run holds two such rounds, the staged replay and the probes).
const ROUND_SHARE: f64 = 0.25;

/// One request of the staged replay: stage durations in ns.
struct Staged {
    hit: bool,
    parse: u64,
    resolve: u64,
    handle: u64,
    /// Part of `handle` spent inside origin fetches.
    origin: u64,
}

struct StagedReplay {
    requests: Vec<Staged>,
    spans: Vec<Span>,
    failed: usize,
    rows_scanned: usize,
    rows_pruned: usize,
}

/// Replays warm-up, `closed` and `open` on a fresh identical proxy,
/// one request at a time, as the edge service would call the layers:
/// `fp_httpd` parse → `TemplateManager::resolve_form` →
/// `ProxyHandle::handle_form_xml` (which resolves once more itself;
/// there is no public entry below it). Every answer is oracle-checked.
fn staged_replay(site: &SkySite, plan: &Plan) -> StagedReplay {
    let proxy = Proxy::boot(site, plan.ram_budget);
    let mut replay = StagedReplay {
        requests: Vec::new(),
        spans: Vec::new(),
        failed: 0,
        rows_scanned: 0,
        rows_pruned: 0,
    };
    let warm = plan.warm.iter().map(|&i| (i, false));
    let timed = plan.closed.iter().chain(&plan.open).map(|&i| (i, true));
    for (i, timed) in warm.chain(timed) {
        let request = &plan.pool[i as usize];
        let t0 = now_ns();
        let parsed = read_request(&mut &request.wire[..])
            .expect("well-formed request")
            .expect("one request");
        let fields = parsed.query_params();
        let t1 = now_ns();
        black_box(proxy.handle.manager().resolve_form(&parsed.path, &fields))
            .expect("generated request resolves");
        let t2 = now_ns();
        let response = proxy.handle.handle_form_xml(&parsed.path, &fields);
        let t3 = now_ns();
        let fetches = proxy.origin.drain();
        let correct = response
            .as_ref()
            .is_ok_and(|r| scan_reply(&r.body) == Some(request.expect));
        if !timed {
            assert!(correct, "staged warm-up answer differs from the oracle");
            continue;
        }

        let (root, n) = (replay.spans.len() as u32, replay.requests.len() as u32);
        let span =
            |name, parent, start_ns, end_ns| Span::new(name, n, Some(parent), start_ns, end_ns);
        replay
            .spans
            .push(Span::new("staged.request", n, None, t0, t3));
        replay.spans.push(span("httpd.parse", root, t0, t1));
        replay.spans.push(span("template.resolve", root, t1, t2));
        replay.spans.push(span("runtime.handle", root, t2, t3));
        for f in &fetches {
            replay
                .spans
                .push(span("origin.fetch", root + 3, f.start_ns, f.end_ns));
        }
        replay.failed += usize::from(!correct);
        let metrics = response.ok().map(|r| r.metrics);
        replay.rows_scanned += metrics.map_or(0, |m| m.rows_scanned);
        replay.rows_pruned += metrics.map_or(0, |m| m.rows_pruned);
        replay.requests.push(Staged {
            hit: metrics.is_some_and(|m| matches!(m.outcome, Served::Exact | Served::Contained)),
            parse: t1 - t0,
            resolve: t2 - t1,
            handle: t3 - t2,
            origin: fetches.iter().map(|f| f.end_ns - f.start_ns).sum(),
        });
    }
    replay
}

/// p50 of `f` over `items`, in `f`'s unit.
fn p50<T>(items: &[T], f: impl Fn(&T) -> Option<f64>) -> f64 {
    let mut values: Vec<f64> = items.iter().filter_map(f).collect();
    values.sort_by(f64::total_cmp);
    percentile(&values, 0.5)
}

fn write_spans(workload: &Workload, traced: &Round, staged: &StagedReplay) {
    let path = out_dir().join(format!("trace-{}.jsonl", workload.name));
    let mut file = std::io::BufWriter::new(std::fs::File::create(&path).expect("trace file"));
    let mut next_id = 0u32;
    let mut write = |run: &str, window: &str, spans: &[Span]| {
        for (i, s) in spans.iter().enumerate() {
            let opt = |v: Option<u32>, base: u32| {
                v.map_or("null".to_string(), |v| (v + base).to_string())
            };
            writeln!(
                file,
                "{{\"run\":\"{run}\",\"window\":\"{window}\",\"span\":{},\"parent\":{},\"request\":{},\
                 \"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
                next_id + i as u32,
                opt(s.parent, next_id),
                opt(s.request, 0),
                s.name,
                s.start_ns,
                s.end_ns
            )
            .expect("trace file write");
        }
        next_id += spans.len() as u32;
    };
    for (name, window) in ["closed", "open", "open_hi"]
        .into_iter()
        .zip(traced.windows())
    {
        write("socket", name, &window.spans);
    }
    let fetch_spans: Vec<Span> = traced
        .fetches
        .iter()
        .map(|f: &Fetch| Span {
            name: "origin.fetch",
            request: None,
            parent: None,
            start_ns: f.start_ns,
            end_ns: f.end_ns,
        })
        .collect();
    write("socket", "all", &fetch_spans);
    write("staged", "closed+open", &staged.spans);
    file.flush().expect("trace file flush");
}

pub fn traced(
    site: &SkySite,
    workload: &Workload,
    seed: u64,
    seconds: f64,
    cpus: &Cpus,
) -> Outcome {
    let mut metrics: Vec<Metric> = probes::run(site, cpus);

    let started = Instant::now();
    let plan = workload.plan(site, seed, workload.sizes(seconds * ROUND_SHARE, true));
    let plain = socket_round(site, workload, &plan, seed, false, cpus, started);
    let traced = socket_round(site, workload, &plan, seed, true, cpus, Instant::now());
    let staged = staged_replay(site, &plan);
    write_spans(workload, &traced, &staged);

    // Spans.
    let us = |ns: u64| ns as f64 / 1e3;
    let all = &staged.requests;
    metrics.push(metric(
        "httpd.parse_us",
        p50(all, |r| Some(us(r.parse))),
        "us",
    ));
    metrics.push(metric(
        "template.resolve_us",
        p50(all, |r| Some(us(r.resolve))),
        "us",
    ));
    metrics.push(metric(
        "runtime.handle_self_us",
        p50(all, |r| Some(us(r.handle - r.origin))),
        "us",
    ));
    let is_hit = |o: Option<Label>| o.is_some_and(Label::is_hit);
    let open = &traced.open;
    let rtt_hit = p50(&open.samples, |s| {
        (s.ok && is_hit(s.outcome)).then(|| us(s.done_ns - s.sent_ns))
    });
    let core_hit = p50(all, |r| r.hit.then(|| us(r.parse + r.resolve + r.handle)));
    metrics.push(metric("edge.rtt_minus_core_us", rtt_hit - core_hit, "us"));
    metrics.push(metric(
        "origin.fetch_ms",
        p50(&traced.fetches, |f| {
            Some((f.end_ns - f.start_ns) as f64 / 1e6)
        }),
        "ms",
    ));
    metrics.push(metric(
        "origin.fetches",
        traced.fetches.len() as f64,
        "count",
    ));
    metrics.push(metric(
        "origin.bytes",
        traced.fetches.iter().map(|f| f.bytes).sum::<u64>() as f64,
        "count",
    ));
    let every = open.latencies_ms(|_| true);
    metrics.push(metric(
        "client.miss_p50_ms",
        percentile(&open.latencies_ms(|s| !is_hit(s.outcome)), 0.5),
        "ms",
    ));
    metrics.push(metric("client.open_p90_ms", percentile(&every, 0.9), "ms"));
    metrics.push(metric("client.open_p99_ms", percentile(&every, 0.99), "ms"));
    let knee = traced.open_hi.as_ref().expect("traced rounds run open_hi");
    metrics.push(metric(
        "client.knee_p90_ms",
        percentile(&knee.latencies_ms(|_| true), 0.9),
        "ms",
    ));
    let mut lag: Vec<f64> = open
        .samples
        .iter()
        .map(|s| (s.sent_ns - s.intended_ns) as f64 / 1e6)
        .collect();
    lag.sort_by(f64::total_cmp);
    metrics.push(metric("loadgen.lag_p99_ms", percentile(&lag, 0.99), "ms"));
    let closed_qps =
        |r: &Round| (r.closed.samples.len() - r.closed.failed()) as f64 / r.closed.wall_s();
    metrics.push(metric(
        "trace.overhead_ratio",
        closed_qps(&traced) / closed_qps(&plain),
        "ratio",
    ));

    // Counters the program exposes, as deltas over the traced round's
    // measured windows (gauges: their value at its end).
    let (b, a) = (&traced.before, &traced.after);
    let count = |name: &str, v: usize| metric(name, v as f64, "count");
    let served = a.runtime.request_latency.count - b.runtime.request_latency.count;
    let hits = a.runtime.hit_latency.count - b.runtime.hit_latency.count;
    metrics.push(metric(
        "cache.hit_ratio",
        hits as f64 / served.max(1) as f64,
        "ratio",
    ));
    metrics.push(count("cache.entries", a.cache.entries));
    metrics.push(count("cache.bytes", a.cache.bytes));
    metrics.push(count(
        "cache.evictions",
        a.cache.evictions - b.cache.evictions,
    ));
    metrics.push(count("columnar.rows_scanned", staged.rows_scanned));
    metrics.push(metric(
        "columnar.prune_ratio",
        staged.rows_pruned as f64 / (staged.rows_scanned + staged.rows_pruned).max(1) as f64,
        "ratio",
    ));
    metrics.push(count(
        "runtime.coalesced",
        a.runtime.duplicate_fetches_avoided - b.runtime.duplicate_fetches_avoided,
    ));
    metrics.push(metric(
        "runtime.lock_wait_ms",
        a.runtime.lock_wait_ms - b.runtime.lock_wait_ms,
        "ms",
    ));
    metrics.push(count(
        "tier.demotions",
        a.cache.demotions - b.cache.demotions,
    ));
    metrics.push(count(
        "tier.promotions",
        a.cache.promotions - b.cache.promotions,
    ));
    metrics.push(count(
        "tier.disk_hits",
        a.runtime.disk_hits - b.runtime.disk_hits,
    ));
    metrics.push(count(
        "tier.compactions",
        a.cache.slab_compactions - b.cache.slab_compactions,
    ));
    metrics.push(count("tier.slab_bytes", a.cache.slab_bytes));
    metrics.push(metric(
        "tier.write_amp",
        a.cache.slab_bytes as f64 / plan.distinct_answer_bytes as f64,
        "ratio",
    ));
    metrics.push(count(
        "edge.fast_path_hits",
        a.edge.fast_path - b.edge.fast_path,
    ));
    metrics.push(count("edge.offloaded", a.edge.offloaded - b.edge.offloaded));
    metrics.push(count(
        "edge.shed_503",
        a.edge.shed_total() - b.edge.shed_total(),
    ));

    // The program's own phase histograms (cumulative since boot, so
    // warm-up misses are in the miss-path cells only).
    let observer = traced.proxy.handle.observer();
    for (name, phase, path) in [
        ("observe.classify_p50_us", Phase::Classify, PathClass::Hit),
        (
            "observe.local_eval_p50_us",
            Phase::LocalEval,
            PathClass::Hit,
        ),
        ("observe.serialize_p50_us", Phase::Serialize, PathClass::Hit),
        (
            "observe.disk_serve_p50_us",
            Phase::DiskServe,
            PathClass::Hit,
        ),
        (
            "observe.queue_wait_p50_us",
            Phase::QueueWait,
            PathClass::Miss,
        ),
    ] {
        let p50_ms = observer
            .phase_histogram(phase, path)
            .snapshot()
            .quantile(0.5);
        metrics.push(metric(name, p50_ms * 1e3, "us"));
    }

    Outcome {
        attempted: plain.attempted() + traced.attempted() + staged.requests.len(),
        failed: plain.failed() + traced.failed() + staged.failed,
        broken: self_checks(workload, &[&plain, &traced]),
        metrics,
    }
}
