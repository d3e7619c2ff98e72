//! Cache-hit hot-path micro-benchmarks: row-major local evaluation vs
//! the columnar SoA + micro-index + slab-assembly path.
//!
//! Four questions:
//! * `hit_select` / `hit_serve` — how much faster is the columnar path
//!   at selecting a contained region, and at producing the response
//!   *bytes* (the quantity a client actually waits on)?
//! * `select` — what does the column pass cost per row, by entry size,
//!   selectivity and region kind, under the index `build` picks?
//! * `micro_index` — where is the flat/grid crossover? (The
//!   constants in `fp_skyserver::columnar` encode the answer.)
//! * `build` / `miss_reply` — what does the columnar form cost at insert
//!   time, and what does a miss pay from fetched rows to reply bytes?
//!
//! The run ends with a headline `speedup:` line measuring the end-to-end
//! serve ratio at 10 000 rows — the PR-acceptance number.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use fp_geometry::{HyperRect, HyperSphere, Point, Region};
use fp_skyserver::{accounted_xml_bytes, ColumnarRows, IndexKind, ResultSet};
use fp_sqlmini::Value;
use funcproxy::query::{eval_entry_region, eval_region_over, EvalScratch};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::time::Instant;

/// Coordinate columns (`cx`, `cy`, `cz`) within the radial template's
/// eleven-column result shape.
const COORD_IDX: [usize; 3] = [3, 4, 5];

/// A synthetic cached entry shaped like a radial-template result:
/// `objID` plus unit-cube coordinates plus five magnitude columns.
fn entry(rows: usize, seed: u64) -> ResultSet {
    let mut rng = StdRng::seed_from_u64(seed);
    ResultSet {
        columns: [
            "objID", "ra", "dec", "cx", "cy", "cz", "u", "g", "r", "i", "z",
        ]
        .iter()
        .map(|c| c.to_string())
        .collect(),
        rows: (0..rows)
            .map(|i| {
                let mut row = vec![
                    Value::Int(i as i64),
                    Value::Float(rng.gen_range(0.0..360.0)),
                    Value::Float(rng.gen_range(-90.0..90.0)),
                ];
                for _ in 0..3 {
                    row.push(Value::Float(rng.gen_range(-1.0..1.0)));
                }
                for _ in 0..5 {
                    row.push(Value::Float(rng.gen_range(14.0..24.0)));
                }
                row
            })
            .collect(),
    }
}

/// The unit vector of the sky position (`ra`, `dec`), in degrees.
fn unit_vector(ra: f64, dec: f64) -> [f64; 3] {
    let (ra, dec) = (ra.to_radians(), dec.to_radians());
    [dec.cos() * ra.cos(), dec.cos() * ra.sin(), dec.sin()]
}

/// Centre of the cones below.
const CONE_CENTRE: (f64, f64) = (185.0, 1.5);

/// A cached entry shaped like what the proxy really holds: the objects
/// of a `radius_arcmin` cone, uniform on the sky, their coordinates the
/// unit vectors the Radial template selects by — a curved 2-D sheet in
/// 3-D, not a filled cube.
fn cone_entry(rows: usize, radius_arcmin: f64, seed: u64) -> ResultSet {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut rs = entry(rows, seed);
    for row in &mut rs.rows {
        let r = radius_arcmin / 60.0 * rng.gen_range(0.0f64..1.0).sqrt();
        let theta = rng.gen_range(0.0..std::f64::consts::TAU);
        let (ra, dec) = (
            CONE_CENTRE.0 + r * theta.cos(),
            CONE_CENTRE.1 + r * theta.sin(),
        );
        for (cell, v) in row[3..6].iter_mut().zip(unit_vector(ra, dec)) {
            *cell = Value::Float(v);
        }
    }
    rs
}

/// The Radial template's region for a cone of `radius_arcmin` about
/// [`CONE_CENTRE`]: the ball of the cone's chord around the centre's
/// unit vector.
fn cone(radius_arcmin: f64) -> Region {
    let chord = 2.0 * ((radius_arcmin / 60.0).to_radians() / 2.0).sin();
    let centre = unit_vector(CONE_CENTRE.0, CONE_CENTRE.1);
    Region::Sphere(HyperSphere::new(Point::from_slice(&centre), chord).unwrap())
}

/// A ball around the origin covering roughly `fraction` of the unit
/// cube the coordinates are drawn from.
fn ball(fraction: f64) -> Region {
    let radius = (fraction * 8.0 * 3.0 / (4.0 * std::f64::consts::PI)).cbrt();
    Region::Sphere(HyperSphere::new(Point::from_slice(&[0.0, 0.0, 0.0]), radius).unwrap())
}

/// A ball around the origin holding exactly `fraction` of `rs`'s rows.
fn ball_holding(rs: &ResultSet, fraction: f64) -> Region {
    let mut dist: Vec<f64> = rs
        .rows
        .iter()
        .map(|row| {
            COORD_IDX
                .iter()
                .map(|&c| row[c].as_f64().unwrap().powi(2))
                .sum::<f64>()
                .sqrt()
        })
        .collect();
    dist.sort_by(f64::total_cmp);
    let radius = dist[((dist.len() as f64 * fraction) as usize).min(dist.len() - 1)];
    Region::Sphere(HyperSphere::new(Point::from_slice(&[0.0, 0.0, 0.0]), radius).unwrap())
}

/// A cube around the origin covering `fraction` of the unit cube.
fn cube(fraction: f64) -> Region {
    let half = fraction.cbrt();
    Region::Rect(HyperRect::new(vec![-half; 3], vec![half; 3]).unwrap())
}

const SIZES: [usize; 2] = [1_000, 10_000];
const SELECTIVITIES: [(&str, f64); 2] = [("1pct", 0.01), ("10pct", 0.10)];

fn bench_hit_select(c: &mut Criterion) {
    let mut group = c.benchmark_group("hit_select");
    group.sample_size(50);
    for &rows in &SIZES {
        let rs = entry(rows, 7);
        let col = ColumnarRows::build(&rs, &COORD_IDX).expect("numeric entry");
        for &(label, fraction) in &SELECTIVITIES {
            let region = ball(fraction);
            group.bench_with_input(
                BenchmarkId::new(format!("row_major/{label}"), rows),
                &rows,
                |b, _| b.iter(|| eval_region_over(&rs, &COORD_IDX, black_box(&region)).unwrap()),
            );
            let mut scratch = EvalScratch::default();
            group.bench_with_input(
                BenchmarkId::new(format!("columnar/{label}"), rows),
                &rows,
                |b, _| {
                    b.iter(|| {
                        eval_entry_region(
                            &rs,
                            Some(&col),
                            &COORD_IDX,
                            black_box(&region),
                            &mut scratch,
                        )
                        .unwrap()
                        .result
                    })
                },
            );
        }
    }
    group.finish();
}

fn bench_hit_serve(c: &mut Criterion) {
    let mut group = c.benchmark_group("hit_serve");
    group.sample_size(50);
    for &rows in &SIZES {
        let rs = entry(rows, 7);
        let col = ColumnarRows::build(&rs, &COORD_IDX).expect("numeric entry");
        let region = ball(0.10);
        group.bench_with_input(BenchmarkId::new("row_major", rows), &rows, |b, _| {
            b.iter(|| {
                eval_region_over(&rs, &COORD_IDX, black_box(&region))
                    .unwrap()
                    .to_xml_string()
                    .into_bytes()
            })
        });
        let mut selected = Vec::new();
        let mut point = Vec::new();
        group.bench_with_input(BenchmarkId::new("columnar", rows), &rows, |b, _| {
            b.iter(|| {
                col.select_region(black_box(&region), &mut selected, &mut point);
                col.assemble_document(&selected)
            })
        });
    }
    group.finish();
}

/// The column pass under the index `build` chooses: a small, a
/// `hit_large`-sized and a grid-sized entry, from a query that keeps
/// next to nothing to one that keeps nearly everything.
fn bench_select(c: &mut Criterion) {
    let mut group = c.benchmark_group("select");
    group.sample_size(50);
    for rows in [200, 2_000, 8_000] {
        let rs = entry(rows, 17);
        let col = ColumnarRows::build(&rs, &COORD_IDX).expect("numeric entry");
        for (label, fraction) in [("2pct", 0.02), ("50pct", 0.50), ("90pct", 0.90)] {
            for (shape, region) in [
                ("ball", ball_holding(&rs, fraction)),
                ("box", cube(fraction)),
            ] {
                let mut selected = Vec::new();
                let mut acc = Vec::new();
                group.bench_with_input(
                    BenchmarkId::new(format!("{shape}/{label}"), rows),
                    &rows,
                    |b, _| {
                        b.iter(|| col.select_region(black_box(&region), &mut selected, &mut acc))
                    },
                );
            }
        }
    }
    group.finish();
}

fn bench_micro_index(c: &mut Criterion) {
    let mut group = c.benchmark_group("micro_index");
    group.sample_size(50);
    for rows in [64, 128, 256, 1_024, 2_048, 4_096, 16_384] {
        // A 30′ cone of the sky and sub-cones of it: one an index can
        // prune for (a tenth of the radius, 1 % of the rows) and one —
        // the usual contained hit — that keeps most of the entry, where
        // an index only costs.
        let rs = cone_entry(rows, 30.0, 11);
        for (label, region) in [("1pct", cone(3.0)), ("75pct", cone(26.0))] {
            for kind in [IndexKind::Flat, IndexKind::Grid] {
                let col = ColumnarRows::build_with_index(&rs, &COORD_IDX, kind).expect("numeric");
                let mut selected = Vec::new();
                let mut point = Vec::new();
                let kind = format!("{kind:?}").to_lowercase();
                group.bench_with_input(
                    BenchmarkId::new(format!("{kind}/{label}"), rows),
                    &rows,
                    |b, _| {
                        b.iter(|| col.select_region(black_box(&region), &mut selected, &mut point))
                    },
                );
            }
        }
    }
    group.finish();
}

/// Result sizes of the miss path: a typical trace cone, a large one,
/// and the biggest the traces produce.
const MISS_SIZES: [usize; 3] = [200, 1_500, 10_000];

fn bench_build(c: &mut Criterion) {
    let mut group = c.benchmark_group("build");
    group.sample_size(20);
    for &rows in &MISS_SIZES {
        let rs = entry(rows, 13);
        group.bench_with_input(BenchmarkId::from_parameter(rows), &rows, |b, _| {
            b.iter(|| ColumnarRows::build(&rs, &COORD_IDX).unwrap())
        });
    }
    group.finish();
}

/// Fetched rows → cache entry + reply bytes. `three_pass` is the shape
/// the miss path had (size the document, build the slab, serialize the
/// reply — three runs of the serializer); `one_pass` is what it does
/// now (build the slab, read the size off it, copy it out).
fn bench_miss_reply(c: &mut Criterion) {
    let mut group = c.benchmark_group("miss_reply");
    group.sample_size(20);
    for &rows in &MISS_SIZES {
        let rs = entry(rows, 13);
        group.bench_with_input(BenchmarkId::new("three_pass", rows), &rows, |b, _| {
            b.iter(|| {
                let bytes = rs.to_xml_string().len();
                let col = ColumnarRows::build(&rs, &COORD_IDX).unwrap();
                (bytes, col, rs.to_xml_string().into_bytes())
            })
        });
        group.bench_with_input(BenchmarkId::new("one_pass", rows), &rows, |b, _| {
            b.iter(|| {
                let col = ColumnarRows::build(&rs, &COORD_IDX).unwrap();
                let bytes = accounted_xml_bytes(&rs, Some(&col));
                let body = col.full_document();
                (bytes, col, body)
            })
        });
    }
    group.finish();
}

/// The acceptance number: end-to-end serve (select + response bytes) at
/// a 10 000-row entry, columnar vs row-major, printed as a ratio.
fn headline_speedup(_c: &mut Criterion) {
    let rs = entry(10_000, 7);
    let col = ColumnarRows::build(&rs, &COORD_IDX).expect("numeric entry");
    let region = ball(0.10);
    let iters = 60;

    let start = Instant::now();
    for _ in 0..iters {
        black_box(
            eval_region_over(&rs, &COORD_IDX, &region)
                .unwrap()
                .to_xml_string()
                .into_bytes(),
        );
    }
    let row_major = start.elapsed();

    let mut selected = Vec::new();
    let mut point = Vec::new();
    let start = Instant::now();
    for _ in 0..iters {
        col.select_region(&region, &mut selected, &mut point);
        black_box(col.assemble_document(&selected));
    }
    let columnar = start.elapsed();

    println!(
        "speedup: columnar serve is {:.1}x row-major at 10000 rows ({:.2} ms vs {:.2} ms per hit)",
        row_major.as_secs_f64() / columnar.as_secs_f64().max(1e-12),
        columnar.as_secs_f64() * 1e3 / iters as f64,
        row_major.as_secs_f64() * 1e3 / iters as f64,
    );
}

/// The observability acceptance number: what the observe layer adds to
/// one exact-hit serve — a sampled-trace decision, three phase records,
/// one outcome record, and one span — as a fraction of the columnar
/// serve latency at a 10 000-row entry. Must stay ≤ 5 %.
fn headline_observe_overhead(_c: &mut Criterion) {
    use funcproxy::observe::{OutcomeClass, PathClass, Phase};
    use funcproxy::{ObserveConfig, Observer};

    let rs = entry(10_000, 7);
    let col = ColumnarRows::build(&rs, &COORD_IDX).expect("numeric entry");
    let region = ball(0.10);
    let iters = 100u32;
    // Best-of-three wall times so scheduler noise cannot fake (or mask)
    // an overhead regression.
    fn measure<F: FnMut()>(iters: u32, mut body: F) -> std::time::Duration {
        (0..3)
            .map(|_| {
                let start = Instant::now();
                for _ in 0..iters {
                    body();
                }
                start.elapsed()
            })
            .min()
            .unwrap()
    }

    let (mut selected, mut point) = (Vec::new(), Vec::new());
    let bare = measure(iters, || {
        col.select_region(&region, &mut selected, &mut point);
        black_box(col.assemble_document(&selected));
    });

    // The same serve plus exactly the recording the runtime performs on
    // an exact hit, at the default 1-in-16 trace sampling.
    let obs = Observer::new(&ObserveConfig::default());
    let (mut s2, mut p2) = (Vec::new(), Vec::new());
    let instrumented = measure(iters, || {
        let _trace = obs.begin_trace();
        let req = Instant::now();
        col.select_region(&region, &mut s2, &mut p2);
        black_box(col.assemble_document(&s2));
        obs.record_phase(Phase::Classify, PathClass::Hit, 0.01);
        obs.record_phase(Phase::LocalEval, PathClass::Hit, 0.5);
        obs.record_phase(Phase::Serialize, PathClass::Hit, 0.4);
        obs.record_outcome(OutcomeClass::Exact, 1.0);
        obs.span("request", "proxy", req, req.elapsed(), || {
            Some("exact".into())
        });
    });

    let overhead =
        (instrumented.as_secs_f64() - bare.as_secs_f64()) / bare.as_secs_f64().max(1e-12) * 100.0;
    println!(
        "observe overhead: {:.2}% of exact-hit serve latency ({:.3} ms instrumented vs {:.3} ms bare per hit)",
        overhead.max(0.0),
        instrumented.as_secs_f64() * 1e3 / f64::from(iters),
        bare.as_secs_f64() * 1e3 / f64::from(iters),
    );
    assert!(
        overhead < 5.0,
        "observe recording must stay under 5% of serve latency (measured {overhead:.2}%)"
    );
}

criterion_group!(
    benches,
    bench_hit_select,
    bench_hit_serve,
    bench_select,
    bench_micro_index,
    bench_build,
    bench_miss_reply,
    headline_speedup,
    headline_observe_overhead,
);
criterion_main!(benches);
