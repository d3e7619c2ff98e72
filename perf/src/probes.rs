//! Layer probes: single-threaded timed loops over public functions of
//! one layer each, on fixed inputs. Each number is the median of
//! [`REPEATS`] loops. They run pinned to the measured CPU, like the
//! windows they are meant to explain.

use crate::client::Conn;
use crate::rig::{affinity, out_dir, Proxy, FORM_PATH};
use crate::{median, metric, percentile, Cpus, Metric};
use fp_edge::{EdgeConfig, EdgeServer, EdgeService};
use fp_httpd::parse::read_request;
use fp_httpd::{Request, Response};
use fp_skyserver::{ColumnarRows, ResultSet, SkySite};
use fp_trace::{RadialQuery, TraceSpec};
use funcproxy::cache::{encode_payload, CacheStore, DescriptionKind, SlabFile};
use funcproxy::metrics::Outcome;
use funcproxy::query::{classify, merge_results, remainder_query};
use funcproxy::template::{BoundQuery, TemplateManager};
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

const REPEATS: usize = 5;

/// Nanoseconds per call of `f`: the median over [`REPEATS`] loops of
/// `iters` calls.
fn time_ns(iters: usize, mut f: impl FnMut()) -> f64 {
    median(
        (0..REPEATS)
            .map(|_| {
                let started = Instant::now();
                for _ in 0..iters {
                    f();
                }
                started.elapsed().as_nanos() as f64 / iters as f64
            })
            .collect(),
    )
}

fn mb_per_s(bytes: usize, ns: f64) -> f64 {
    bytes as f64 / 1e6 / (ns / 1e9)
}

fn bind(manager: &TemplateManager, q: &RadialQuery) -> BoundQuery {
    manager
        .resolve_form(FORM_PATH, &q.form_fields())
        .expect("probe request resolves")
}

fn answer(site: &SkySite, bound: &BoundQuery) -> ResultSet {
    site.execute_sql(&bound.sql)
        .expect("origin executes")
        .result
}

/// A 100 × 100 grid of pairwise-disjoint cones of `radius` arc minutes
/// (at most 1.5) over the sky window, row by row.
fn grid(radius: f64) -> impl Iterator<Item = RadialQuery> {
    (0..10_000).map(move |i| RadialQuery {
        ra: 180.05 + (i % 100) as f64 * 0.1,
        dec: -2.97 + (i / 100) as f64 * 0.06,
        radius,
    })
}

/// Answers every request inline on the reactor with a fixed body.
struct Stub {
    small: Vec<u8>,
    large: Vec<u8>,
}

impl EdgeService for Stub {
    fn handle(&self, request: &Request) -> Response {
        let body = if request.path == "/large" {
            &self.large
        } else {
            &self.small
        };
        Response::ok("text/xml", body.clone())
    }

    fn try_fast(&self, request: &Request) -> Option<Response> {
        Some(self.handle(request))
    }
}

pub fn run(site: &SkySite, cpus: &Cpus) -> Vec<Metric> {
    affinity::apply_to_process(&cpus.measured);
    let manager = TemplateManager::with_sky_defaults();
    let mut out = Vec::new();

    // fp-httpd, template: one small Radial request.
    let small = RadialQuery {
        ra: 185.0,
        dec: 0.5,
        radius: 1.25,
    };
    let wire = format!(
        "GET {FORM_PATH}?{} HTTP/1.1\r\nHost: bench\r\n\r\n",
        small.query_string()
    )
    .into_bytes();
    let parse = time_ns(20_000, || {
        black_box(read_request(&mut black_box(&wire[..])).expect("well-formed"));
    });
    out.push(metric("httpd.parse_request_ns", parse, "ns"));
    let fields = small.form_fields();
    let resolve = time_ns(20_000, || {
        black_box(
            manager
                .resolve_form(FORM_PATH, black_box(&fields))
                .expect("resolves"),
        );
    });
    out.push(metric("template.resolve_form_ns", resolve, "ns"));

    // fp-edge: the socket path with nothing behind it.
    let stub = Arc::new(Stub {
        small: vec![b'x'; 128],
        large: vec![b'x'; 256 * 1024],
    });
    let server = EdgeServer::bind(
        "127.0.0.1:0",
        stub as Arc<dyn EdgeService>,
        EdgeConfig::default(),
    )
    .expect("stub edge server binds");
    let mut conn = Conn::open(server.addr()).expect("connect to the stub");
    let mut get = |target: &str, iters: usize| {
        let wire = format!("GET {target} HTTP/1.1\r\nHost: bench\r\n\r\n").into_bytes();
        time_ns(iters, || {
            black_box(conn.round_trip(&wire).expect("stub replies").body.len());
        })
    };
    out.push(metric("edge.stub_rtt_us", get("/small", 5_000) / 1e3, "us"));
    out.push(metric(
        "edge.stub_large_mbps",
        mb_per_s(256 * 1024, get("/large", 500)),
        "MB/s",
    ));
    server.shutdown();

    // cache: classify over n disjoint regions, both descriptions.
    let cells: Vec<BoundQuery> = grid(1.0).map(|q| bind(&manager, &q)).collect();
    let large = bind(
        &manager,
        &RadialQuery {
            ra: 185.0,
            dec: 0.0,
            radius: 30.0,
        },
    );
    let large_rows = answer(site, &large);
    let no_rows = Arc::new(ResultSet::empty(large_rows.columns.clone()));
    for (kind, label) in [
        (DescriptionKind::Array, "array"),
        (DescriptionKind::RTree, "rtree"),
    ] {
        for n in [100, 10_000] {
            let mut store = CacheStore::new(kind, None);
            for b in &cells[..n] {
                store.insert(
                    &b.residual_key,
                    b.region.clone(),
                    Arc::clone(&no_rows),
                    false,
                    &b.sql,
                    &b.reg.coord_columns,
                );
            }
            let inside = grid(0.5).nth(n / 2).expect("grid cell");
            let probe = bind(&manager, &inside);
            let ns = time_ns(200_000 / n, || {
                black_box(classify(&store, black_box(&probe)));
            });
            out.push(metric(
                &format!("cache.classify_{label}_us.n{n}"),
                ns / 1e3,
                "us",
            ));
        }
    }

    // cache: insert of a 200-row answer (columnar build included).
    let rows_200 = Arc::new(ResultSet {
        columns: large_rows.columns.clone(),
        rows: large_rows.rows[..200].to_vec(),
    });
    let mut store = CacheStore::new(DescriptionKind::Array, None);
    let mut next = cells.iter();
    let insert = time_ns(200, || {
        let b = next.next().expect("enough cells");
        store.insert(
            &b.residual_key,
            b.region.clone(),
            Arc::clone(&rows_200),
            false,
            &b.sql,
            &b.reg.coord_columns,
        );
    });
    out.push(metric("cache.insert_us", insert / 1e3, "us"));

    // columnar: build, select and assemble over a 30′ answer.
    let coord_idx: Vec<usize> = large
        .reg
        .coord_columns
        .iter()
        .map(|c| large_rows.column_index(c).expect("coordinate column"))
        .collect();
    let krows = large_rows.len() as f64 / 1e3;
    let build = time_ns(20, || {
        black_box(ColumnarRows::build(black_box(&large_rows), &coord_idx));
    });
    out.push(metric(
        "columnar.build_us_per_krow",
        build / 1e3 / krows,
        "us",
    ));
    let columnar = ColumnarRows::build(&large_rows, &coord_idx).expect("numeric coordinates");
    let half = bind(
        &manager,
        &RadialQuery {
            ra: 185.05,
            dec: 0.05,
            radius: 20.0,
        },
    );
    let (mut ids, mut scratch) = (Vec::new(), Vec::new());
    let select = time_ns(200, || {
        black_box(columnar.select_region(&half.region, &mut ids, &mut scratch));
    });
    out.push(metric(
        "columnar.select_ns_per_row",
        select / columnar.len() as f64,
        "ns",
    ));
    let document = columnar.assemble_document(&ids).len();
    let assemble = time_ns(200, || {
        black_box(columnar.assemble_document(black_box(&ids)));
    });
    out.push(metric(
        "columnar.assemble_mbps",
        mb_per_s(document, assemble),
        "MB/s",
    ));

    // query: merge of two overlapping answers, remainder synthesis.
    let half_rows = answer(site, &half);
    let merge = time_ns(20, || {
        black_box(merge_results("objID", &[&large_rows, &half_rows]));
    });
    let merged_krows = (large_rows.len() + half_rows.len()) as f64 / 1e3;
    out.push(metric(
        "query.merge_us_per_krow",
        merge / 1e3 / merged_krows,
        "us",
    ));
    let remainder = time_ns(20_000, || {
        black_box(remainder_query(black_box(&half), &[&large.region]));
    });
    out.push(metric("query.remainder_ns", remainder, "ns"));

    // tier: the slab file alone, 16 segments of one large entry each.
    let payload = encode_payload(large_rows.to_xml_string().as_bytes(), columnar.slab());
    let path = out_dir().join(format!("probe-{}.fpslab", std::process::id()));
    let (mut append, mut slice, mut replay, mut compact) = (vec![], vec![], vec![], vec![]);
    for _ in 0..REPEATS {
        let _ = std::fs::remove_file(&path);
        let mut slab = SlabFile::open(&path).expect("slab file opens");
        let started = Instant::now();
        let segs: Vec<_> = (0..16)
            .map(|_| slab.append(&payload).expect("append"))
            .collect();
        append.push(mb_per_s(
            16 * payload.len(),
            started.elapsed().as_nanos() as f64,
        ));
        let started = Instant::now();
        for _ in 0..100 {
            for seg in &segs {
                black_box(slab.slice(*seg).expect("slice").xml().len());
            }
        }
        slice.push(started.elapsed().as_nanos() as f64 / 1_600.0 / 1e3);
        let started = Instant::now();
        black_box(slab.replay().len());
        replay.push(mb_per_s(
            slab.bytes() as usize,
            started.elapsed().as_nanos() as f64,
        ));
        let live: Vec<(u64, _)> = segs.iter().step_by(2).map(|s| (0, *s)).collect();
        segs.iter()
            .skip(1)
            .step_by(2)
            .for_each(|s| slab.mark_dead(*s));
        let started = Instant::now();
        slab.compact(&live).expect("compact");
        compact.push(mb_per_s(
            8 * payload.len(),
            started.elapsed().as_nanos() as f64,
        ));
    }
    let _ = std::fs::remove_file(&path);
    out.push(metric("tier.append_mbps", median(append), "MB/s"));
    out.push(metric("tier.slice_us", median(slice), "us"));
    out.push(metric("tier.compact_mbps", median(compact), "MB/s"));
    out.push(metric("tier.replay_mbps", median(replay), "MB/s"));

    // runtime: the whole handle in-process over the standard trace,
    // origin undelayed; p50 per outcome.
    let proxy = Proxy::boot(site, None);
    let mut by_outcome: [Vec<f64>; 4] = Default::default();
    let spec = TraceSpec {
        queries: 1_000,
        ..TraceSpec::default()
    };
    for q in &spec.generate().queries {
        let fields = q.form_fields();
        let started = Instant::now();
        let response = proxy
            .handle
            .handle_form_xml(FORM_PATH, &fields)
            .expect("trace query serves");
        let us = started.elapsed().as_nanos() as f64 / 1e3;
        by_outcome[match response.metrics.outcome {
            Outcome::Exact => 0,
            Outcome::Contained => 1,
            Outcome::Overlap | Outcome::RegionContainment => 2,
            Outcome::Forwarded => 3,
        }]
        .push(us);
    }
    for (label, mut us) in ["exact", "contained", "overlap", "forwarded"]
        .into_iter()
        .zip(by_outcome)
    {
        us.sort_by(f64::total_cmp);
        out.push(metric(
            &format!("runtime.{label}_us"),
            percentile(&us, 0.5),
            "us",
        ));
    }

    // skyserver: the synthetic origin's own CPU on fresh 10′ cones.
    let mut fresh = grid(1.0)
        .step_by(97)
        .map(|q| bind(&manager, &RadialQuery { radius: 10.0, ..q }));
    let exec = time_ns(10, || {
        let b = fresh.next().expect("enough cones");
        black_box(site.execute_sql(&b.sql).expect("origin executes"));
    });
    out.push(metric("skyserver.exec_ms", exec / 1e6, "ms"));

    affinity::apply_to_process(&cpus.all);
    out
}
