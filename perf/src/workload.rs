//! The four workloads: which requests a round sends, in which order,
//! what warms the cache first, and the frozen rates that size the
//! windows. Names and rates are part of the benchmark's definition.

use crate::client::Request;
use crate::oracle::{expected, settle_fringe};
use crate::rig::FORM_PATH;
use fp_geometry::celestial::angular_separation;
use fp_skyserver::{SkySite, SkyWindow};
use fp_trace::{RadialQuery, TraceSpec};
use funcproxy::template::TemplateManager;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::HashMap;

/// Seed of the warm cones of `hit_small` and `hit_large`.
const WARM_SEED: u64 = 0xC0DE;
/// Seed of the traces of `paper_mix` and `disk_tier` (the repository's
/// standard experiment uses the same one).
const TRACE_SEED: u64 = 0x5D55 ^ 0x7ACE;
/// Requests `disk_tier` sends before timing starts.
const DISK_TIER_WARM: usize = 600;
/// Distinct sub-cones drawn per warm cone of a hit workload.
const SUBCONES_PER_WARM: usize = 4;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    HitSmall,
    HitLarge,
    PaperMix,
    DiskTier,
}

/// A workload's frozen definition.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    pub name: &'static str,
    pub kind: Kind,
    /// Closed-loop throughput measured once on the reference box; sizes
    /// the `closed` window.
    pub closed_qps: f64,
    /// Arrival rate of the `open` window, about a quarter of
    /// `closed_qps`.
    pub open_rate: f64,
}

pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "hit_small",
        kind: Kind::HitSmall,
        closed_qps: 28_000.0,
        open_rate: 7_000.0,
    },
    Workload {
        name: "hit_large",
        kind: Kind::HitLarge,
        closed_qps: 2_100.0,
        open_rate: 525.0,
    },
    Workload {
        name: "paper_mix",
        kind: Kind::PaperMix,
        closed_qps: 430.0,
        open_rate: 110.0,
    },
    Workload {
        name: "disk_tier",
        kind: Kind::DiskTier,
        closed_qps: 540.0,
        open_rate: 135.0,
    },
];

/// Requests per window of one round.
#[derive(Debug, Clone, Copy)]
pub struct Sizes {
    pub closed: usize,
    pub open: usize,
    /// The traced run's window at twice the open rate; 0 when untraced.
    pub open_hi: usize,
}

/// Everything one round sends: distinct requests with their oracle
/// answers, and index streams into them.
pub struct Plan {
    pub pool: Vec<Request>,
    pub warm: Vec<u32>,
    pub closed: Vec<u32>,
    pub open: Vec<u32>,
    pub open_hi: Vec<u32>,
    /// RAM budget over the slab tier; `None` = unlimited RAM, no tier.
    pub ram_budget: Option<usize>,
    /// XML bytes of the distinct answers.
    pub distinct_answer_bytes: usize,
}

impl Workload {
    pub fn sizes(&self, window_seconds: f64, traced: bool) -> Sizes {
        let n = |rate: f64, share: f64| ((rate * share * window_seconds) as usize).max(1);
        Sizes {
            closed: n(self.closed_qps, 0.4),
            open: n(self.open_rate, 0.6),
            open_hi: if traced {
                n(2.0 * self.open_rate, 0.3)
            } else {
                0
            },
        }
    }

    /// Builds the round's requests and asks the origin for every
    /// distinct answer.
    pub fn plan(&self, site: &SkySite, seed: u64, sizes: Sizes) -> Plan {
        let manager = TemplateManager::with_sky_defaults();
        let timed = sizes.closed + sizes.open + sizes.open_hi;
        let mut pool = Pool::default();
        let (warm, stream): (Vec<u32>, Vec<u32>) = match self.kind {
            Kind::HitSmall | Kind::HitLarge => {
                let (count, radius, shrink) = if self.kind == Kind::HitSmall {
                    (2_000, (0.5, 2.0), (0.3, 0.9))
                } else {
                    (24, (20.0, 40.0), (0.75, 0.95))
                };
                let cones = disjoint_cones(count, radius);
                let warm: Vec<u32> = cones.iter().map(|c| pool.intern(*c)).collect();
                let mut rng = StdRng::seed_from_u64(seed);
                let subs: Vec<u32> = cones
                    .iter()
                    .flat_map(|c| std::iter::repeat_n(*c, SUBCONES_PER_WARM))
                    .map(|c| pool.intern(sub_cone(&c, shrink, &mut rng)))
                    .collect();
                let stream = (0..timed)
                    .map(|_| {
                        if rng.gen_bool(0.3) {
                            warm[rng.gen_range(0..warm.len())]
                        } else {
                            subs[rng.gen_range(0..subs.len())]
                        }
                    })
                    .collect();
                (warm, stream)
            }
            Kind::PaperMix | Kind::DiskTier => {
                let warm_len = if self.kind == Kind::DiskTier {
                    DISK_TIER_WARM
                } else {
                    0
                };
                let mut spec = TraceSpec {
                    seed: TRACE_SEED,
                    queries: warm_len + timed,
                    ..TraceSpec::default()
                };
                if self.kind == Kind::DiskTier {
                    spec.exact = 0.25;
                    spec.contained = 0.45;
                    spec.hotspot_zipf = 1.0;
                }
                // Repeats must stay repeats, so a cone is settled once
                // per distinct wire form.
                let mut settled: HashMap<String, RadialQuery> = HashMap::new();
                let mut ids: Vec<u32> = spec
                    .generate()
                    .queries
                    .iter()
                    .map(|q| {
                        let q = *settled
                            .entry(q.query_string())
                            .or_insert_with(|| settle_fringe(site, &manager, *q));
                        pool.intern(q)
                    })
                    .collect();
                let stream = ids.split_off(warm_len);
                (ids, stream)
            }
        };

        let mut distinct_answer_bytes = 0;
        let mut requests = Vec::new();
        for q in &pool.queries {
            let (expect, bytes) = expected(site, &manager, q);
            distinct_answer_bytes += bytes;
            let wire = format!(
                "GET {FORM_PATH}?{} HTTP/1.1\r\nHost: bench\r\n\r\n",
                q.query_string()
            )
            .into_bytes();
            requests.push(Request { wire, expect });
        }
        let ram_budget = (self.kind == Kind::DiskTier).then_some(distinct_answer_bytes / 6);
        let (closed, rest) = stream.split_at(sizes.closed);
        let (open, open_hi) = rest.split_at(sizes.open);
        Plan {
            pool: requests,
            warm,
            closed: closed.to_vec(),
            open: open.to_vec(),
            open_hi: open_hi.to_vec(),
            ram_budget,
            distinct_answer_bytes,
        }
    }
}

/// Distinct requests by wire form.
#[derive(Default)]
struct Pool {
    queries: Vec<RadialQuery>,
    index: HashMap<String, u32>,
}

impl Pool {
    fn intern(&mut self, q: RadialQuery) -> u32 {
        *self.index.entry(q.query_string()).or_insert_with(|| {
            self.queries.push(q);
            self.queries.len() as u32 - 1
        })
    }
}

/// `count` pairwise-disjoint cones inside the sky window, radii uniform
/// in `radius` arc minutes, the same on every run.
fn disjoint_cones(count: usize, radius: (f64, f64)) -> Vec<RadialQuery> {
    let window = SkyWindow::default();
    let margin = radius.1 / 60.0;
    let mut rng = StdRng::seed_from_u64(WARM_SEED);
    let mut cones: Vec<RadialQuery> = Vec::with_capacity(count);
    while cones.len() < count {
        let c = RadialQuery {
            ra: rng.gen_range(window.ra_min + margin..window.ra_max - margin),
            dec: rng.gen_range(window.dec_min + margin..window.dec_max - margin),
            radius: rng.gen_range(radius.0..radius.1),
        };
        let clear = cones.iter().all(|o| {
            let gap = angular_separation(c.ra, c.dec, o.ra, o.dec).to_degrees() * 60.0;
            gap > (c.radius + o.radius) * 1.05
        });
        if clear {
            cones.push(c);
        }
    }
    cones
}

/// A cone strictly inside `base`: radius a `shrink` share of it, centre
/// moved by at most 0.8 of the slack.
fn sub_cone(base: &RadialQuery, shrink: (f64, f64), rng: &mut StdRng) -> RadialQuery {
    let radius = base.radius * rng.gen_range(shrink.0..shrink.1);
    let off_deg = (base.radius - radius) * 0.8 * rng.gen::<f64>() / 60.0;
    let angle = rng.gen_range(0.0..std::f64::consts::TAU);
    RadialQuery {
        ra: base.ra + off_deg * angle.cos() / base.dec.to_radians().cos(),
        dec: base.dec + off_deg * angle.sin(),
        radius,
    }
}
