//! The §4.2 cache-description ablation: candidate lookup and maintenance
//! cost of the array ("ACNR") vs R-tree ("ACR") descriptions, swept over
//! description sizes far past anything a real proxy accumulates. This is
//! the paper's finding that "the size of the cache description is small so
//! that a linear search and a tree search have similar main memory
//! performance" and that "the maintenance of the R-tree index is more
//! costly than that of an array" — reproduced with measurements instead of
//! assertion.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use fp_geometry::celestial::radial_query_sphere;
use fp_geometry::Region;
use funcproxy::cache::{CacheDescription, DescriptionKind};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Deterministic radial-query bounding boxes over the default sky window.
fn boxes(n: usize, seed: u64) -> Vec<fp_geometry::HyperRect> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n)
        .map(|_| {
            let ra = rng.gen_range(180.0..190.0);
            let dec = rng.gen_range(-3.0..3.0);
            let radius = rng.gen_range(2.0..20.0);
            Region::Sphere(radial_query_sphere(ra, dec, radius).expect("valid")).bounding_rect()
        })
        .collect()
}

fn filled(kind: DescriptionKind, boxes: &[fp_geometry::HyperRect]) -> Box<dyn CacheDescription> {
    let mut d = kind.make(3);
    for (i, b) in boxes.iter().enumerate() {
        d.insert(i as u64, b.clone());
    }
    d
}

fn bench_lookup(c: &mut Criterion) {
    let mut group = c.benchmark_group("description_lookup");
    // 2,000 is the description the benchmark's `hit_small` workload
    // probes on every request.
    for n in [100usize, 1_000, 2_000, 10_000] {
        let entries = boxes(n, 42);
        let probes = boxes(256, 7);
        group.throughput(Throughput::Elements(probes.len() as u64));
        for kind in [DescriptionKind::Array, DescriptionKind::RTree] {
            let d = filled(kind, &entries);
            group.bench_with_input(
                BenchmarkId::new(kind.to_string(), n),
                &probes,
                |b, probes| {
                    let mut out = Vec::with_capacity(64);
                    b.iter(|| {
                        let mut hits = 0usize;
                        for p in probes {
                            out.clear();
                            d.candidates(p, &mut out);
                            hits += out.len();
                        }
                        hits
                    });
                },
            );
        }
    }
    group.finish();
}

fn bench_maintenance(c: &mut Criterion) {
    let mut group = c.benchmark_group("description_maintenance");
    for n in [1_000usize, 10_000] {
        let entries = boxes(n, 42);
        group.throughput(Throughput::Elements(n as u64));
        for kind in [DescriptionKind::Array, DescriptionKind::RTree] {
            group.bench_with_input(
                BenchmarkId::new(format!("insert_remove_{kind}"), n),
                &entries,
                |b, entries| {
                    b.iter(|| {
                        let mut d = kind.make(3);
                        for (i, e) in entries.iter().enumerate() {
                            d.insert(i as u64, e.clone());
                        }
                        // Remove every other entry (eviction churn).
                        for (i, e) in entries.iter().enumerate().step_by(2) {
                            d.remove(i as u64, e);
                        }
                        d.len()
                    });
                },
            );
        }
    }
    group.finish();
}

criterion_group!(benches, bench_lookup, bench_maintenance);
criterion_main!(benches);
