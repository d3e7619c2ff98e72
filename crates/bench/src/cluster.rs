//! Fleet-size sweep and mid-trace peer kill: the cluster experiment
//! behind `repro --nodes N cluster`.
//!
//! The paper evaluates one proxy; a deployment runs several. This
//! harness replays the calibrated Radial trace through an in-process
//! [`ClusterRouter`] fleet of N full proxies, each with a 1/6-size
//! cache of its own, all sharing one counted origin. Requests are
//! routed at the edge: most go straight to the slot owner of their
//! routing key (the consistent-hash partition doing its job), a
//! seeded quarter are sprayed to a random entry node to model an
//! imperfect load balancer — those exercise the owner-probe leg, where
//! a local miss is answered from the owning peer's cache with zero
//! origin traffic.
//!
//! Everything runs on a [`MockClock`]: the clock advances a fixed tick
//! per query and the SWIM failure detector runs one round per tick, so
//! the sweep and the kill run are bit-for-bit deterministic.
//!
//! Two questions the report answers:
//!
//! 1. **Does the fleet pool its cache?** Aggregate capacity grows with
//!    N while per-node capacity stays fixed, so origin fetches must
//!    *fall* as the fleet grows (the acceptance axis of the sweep).
//! 2. **Does a node kill stay invisible to clients?** Mid-trace, one
//!    node of a 3-node fleet is killed. Entry rerouting, probe
//!    fall-through and slot failover must keep every request answered,
//!    and the report measures how long (virtual ms) the survivors take
//!    to route around the corpse.
//!
//! Every served answer is checked against a no-cache oracle run, so
//! peer-served and failover-served answers are verified sound here,
//! not just in the unit tests.
//!
//! [`MockClock`]: funcproxy::resilience::MockClock

use crate::Experiment;
use fp_skyserver::ResultSet;
use fp_trace::Rbe;
use fp_xmlite::Element;
use funcproxy::cache::DescriptionKind;
use funcproxy::cluster::{routing_key, ClusterRouter, MembershipConfig, NodeId, NodeStatus};
use funcproxy::metrics::Outcome;
use funcproxy::origin::CountingOrigin;
use funcproxy::resilience::{Clock, MockClock};
use funcproxy::runtime::RuntimeSnapshot;
use funcproxy::template::TemplateManager;
use funcproxy::{CostModel, Origin, ProxyConfig, ProxyHandle, Scheme, SiteOrigin};
use serde::Serialize;
use std::collections::HashMap;
use std::sync::Arc;
use std::time::Duration;

/// Virtual time that passes between consecutive trace queries.
const TICK: Duration = Duration::from_millis(10);
/// Cache shards per node (fixed for determinism).
const SHARDS: usize = 2;
/// Fleet size of the mid-trace kill run.
const KILL_FLEET: usize = 3;
/// The canonical sweep of the acceptance criterion.
pub const FLEET_SIZES: [usize; 4] = [1, 2, 4, 8];

/// Power-of-two fleet sizes up to `max` (always including `max`), the
/// way `thread_sweep` builds the throughput axis.
pub fn fleet_sweep(max: usize) -> Vec<usize> {
    let max = max.max(1);
    let mut sizes = Vec::new();
    let mut n = 1;
    while n < max {
        sizes.push(n);
        n *= 2;
    }
    sizes.push(max);
    sizes
}

/// One fleet-size row of the sweep.
#[derive(Debug, Clone, Serialize)]
pub struct ClusterRow {
    /// Fleet size.
    pub nodes: usize,
    /// Queries replayed.
    pub queries: usize,
    /// Queries answered (all of them, or something is broken).
    pub answered: usize,
    /// Fraction of queries answered.
    pub availability: f64,
    /// Fraction of queries served without any origin fetch (local or
    /// peer cache hits, degraded answers included).
    pub hit_rate: f64,
    /// Origin executions summed over the whole fleet.
    pub origin_fetches: usize,
    /// Serving-path probes of a peer's cache.
    pub peer_probes: u64,
    /// Probes the peer's cache answered (zero-origin-traffic hits).
    pub peer_hits: u64,
    /// Every served answer was a subset of (or equal to) the oracle
    /// answer; `false` would be a bug.
    pub all_answers_sound: bool,
}

/// The mid-trace kill run over a 3-node fleet.
#[derive(Debug, Clone, Serialize)]
pub struct KillReport {
    /// Fleet size.
    pub nodes: usize,
    /// Queries replayed.
    pub queries: usize,
    /// Query index at which the victim was killed.
    pub kill_at_query: usize,
    /// Node index killed (never the routing viewpoint, node 0).
    pub victim: usize,
    /// Queries answered over the whole run.
    pub answered: usize,
    /// Fraction of queries answered — must stay at least at the
    /// single-node chaos availability floor.
    pub availability: f64,
    /// Virtual ms from the kill until a survivor's live view first
    /// excluded the victim (its slots failed over at that moment);
    /// `None` if the survivors never noticed, which would be a bug.
    pub failover_ms: Option<f64>,
    /// Origin executions summed over the whole fleet.
    pub origin_fetches: usize,
    /// Serving-path probes that failed transport after retries — each
    /// fed the failure detector and fell through to a local origin
    /// path instead of surfacing to the client.
    pub peer_probe_failures: u64,
    /// Suspected/Died transitions observed across the fleet.
    pub failovers: u64,
    /// Every served answer was a subset of the oracle answer.
    pub all_answers_sound: bool,
}

/// The cluster report `repro --nodes N cluster` persists to
/// `BENCH_cluster.json`.
#[derive(Debug, Clone, Serialize)]
pub struct ClusterBench {
    /// One row per fleet size.
    pub rows: Vec<ClusterRow>,
    /// The mid-trace kill run.
    pub kill: KillReport,
}

impl std::fmt::Display for ClusterBench {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "Proxy fleet sweep (1/6-size cache per node, owner-routed edge with 25% spray, virtual clock)"
        )?;
        writeln!(
            f,
            "  nodes | avail | hit rate | origin fetches | peer probes | peer hits | sound"
        )?;
        for r in &self.rows {
            writeln!(
                f,
                "  {:>5} | {:>5.3} | {:>8.3} | {:>14} | {:>11} | {:>9} | {}",
                r.nodes,
                r.availability,
                r.hit_rate,
                r.origin_fetches,
                r.peer_probes,
                r.peer_hits,
                r.all_answers_sound
            )?;
        }
        let k = &self.kill;
        writeln!(
            f,
            "Mid-trace peer kill ({} nodes, node {} killed at query {})",
            k.nodes, k.victim, k.kill_at_query
        )?;
        writeln!(
            f,
            "  availability {:.3} ({} of {} answered), {} origin fetches, {} probe failures absorbed, {} failover transitions, sound: {}",
            k.availability,
            k.answered,
            k.queries,
            k.origin_fetches,
            k.peer_probe_failures,
            k.failovers,
            k.all_answers_sound
        )?;
        match k.failover_ms {
            Some(ms) => writeln!(
                f,
                "  survivors routed around the victim {ms:.0} virtual ms after the kill"
            ),
            None => writeln!(f, "  survivors never excluded the victim (bug)"),
        }
    }
}

/// Shared per-query accounting of one fleet replay.
struct ReplayTally {
    answered: usize,
    zero_origin: usize,
    all_sound: bool,
}

impl Experiment {
    /// Runs the fleet-size sweep plus the mid-trace kill run; see the
    /// module docs for the routing model and the report semantics.
    pub fn cluster(&self, sizes: &[usize]) -> ClusterBench {
        let oracle = self.oracle_object_ids();
        let rows = sizes.iter().map(|&n| self.run_fleet(n, &oracle)).collect();
        let kill = self.run_kill(&oracle);
        ClusterBench { rows, kill }
    }

    /// Oracle pass: the objID set every query answers when nothing is
    /// cached and nothing fails, keyed by query string (the trace
    /// repeats queries). Shared with the torture harness.
    pub(crate) fn oracle_object_ids(&self) -> HashMap<String, Vec<fp_sqlmini::Value>> {
        let rbe = Rbe::default();
        let oracle = crate::make_proxy(
            &self.site,
            Scheme::NoCache,
            DescriptionKind::Array,
            None,
            CostModel::free(),
        );
        let mut oracle_rows: HashMap<String, Vec<fp_sqlmini::Value>> = HashMap::new();
        for q in &self.trace.queries {
            oracle_rows.entry(q.query_string()).or_insert_with(|| {
                let response = oracle
                    .handle_form(&rbe.form_path, &q.form_fields())
                    .expect("oracle executes");
                let key_col = response
                    .result
                    .column_index("objID")
                    .expect("radial results carry objID");
                response
                    .result
                    .rows
                    .iter()
                    .map(|r| r[key_col].clone())
                    .collect()
            });
        }
        self.site.reset_load();
        oracle_rows
    }

    /// Builds an N-node fleet: every node gets its own 1/6-size cache
    /// and all nodes share one counted origin, so `fetches()` is the
    /// fleet's total origin traffic.
    fn build_fleet(
        &self,
        n: usize,
        clock: &Arc<MockClock>,
        counting: &Arc<CountingOrigin>,
    ) -> ClusterRouter {
        let cap = self.capacity_for(1.0 / 6.0);
        let handles = (0..n)
            .map(|_| {
                ProxyHandle::with_shards_clocked(
                    TemplateManager::with_sky_defaults(),
                    Arc::clone(counting) as Arc<dyn Origin>,
                    ProxyConfig::default()
                        .with_scheme(Scheme::FullSemantic)
                        .with_capacity(Some(cap))
                        .with_cost(CostModel::free()),
                    SHARDS,
                    Arc::clone(clock) as Arc<dyn Clock>,
                )
            })
            .collect();
        ClusterRouter::in_process(
            handles,
            MembershipConfig::fast_test(),
            Arc::clone(clock) as Arc<dyn Clock>,
        )
    }

    /// One sweep row: replay the trace through an N-node fleet.
    fn run_fleet(&self, n: usize, oracle: &HashMap<String, Vec<fp_sqlmini::Value>>) -> ClusterRow {
        let clock = MockClock::shared();
        let counting = Arc::new(CountingOrigin::new(Arc::new(SiteOrigin::new(
            self.site.clone(),
        ))));
        let router = self.build_fleet(n, &clock, &counting);
        let tally = self.replay(&router, &clock, &counting, oracle, None, &mut |_| {});
        self.site.reset_load();
        ClusterRow {
            nodes: n,
            queries: self.trace.len(),
            answered: tally.answered,
            availability: tally.answered as f64 / self.trace.len().max(1) as f64,
            hit_rate: tally.zero_origin as f64 / self.trace.len().max(1) as f64,
            origin_fetches: counting.fetches(),
            peer_probes: fleet_sum(&router, |s| s.peer_probes),
            peer_hits: fleet_sum(&router, |s| s.peer_hits),
            all_answers_sound: tally.all_sound,
        }
    }

    /// The kill run: a 3-node fleet, one node killed halfway through.
    fn run_kill(&self, oracle: &HashMap<String, Vec<fp_sqlmini::Value>>) -> KillReport {
        let clock = MockClock::shared();
        let counting = Arc::new(CountingOrigin::new(Arc::new(SiteOrigin::new(
            self.site.clone(),
        ))));
        let router = self.build_fleet(KILL_FLEET, &clock, &counting);
        let victim = KILL_FLEET - 1;
        let victim_id = NodeId(victim as u16);
        let kill_at = self.trace.len() / 2;

        let mut kill_time: Option<std::time::Instant> = None;
        let mut failover: Option<Duration> = None;
        let tally = self.replay(
            &router,
            &clock,
            &counting,
            oracle,
            Some((kill_at, victim)),
            &mut |router| {
                // Poll after every query: the failover instant is when a
                // survivor's live view first excludes the victim.
                if kill_time.is_none() && router.is_down(victim) {
                    kill_time = Some(clock.now());
                }
                if let (Some(t0), None) = (kill_time, failover) {
                    let noticed = (0..KILL_FLEET)
                        .filter(|&i| i != victim)
                        .any(|i| router.status_seen_by(i, victim_id) != Some(NodeStatus::Alive));
                    if noticed {
                        failover = Some(clock.now().duration_since(t0));
                    }
                }
            },
        );
        self.site.reset_load();
        KillReport {
            nodes: KILL_FLEET,
            queries: self.trace.len(),
            kill_at_query: kill_at,
            victim,
            answered: tally.answered,
            availability: tally.answered as f64 / self.trace.len().max(1) as f64,
            failover_ms: failover.map(|d| d.as_secs_f64() * 1000.0),
            origin_fetches: counting.fetches(),
            peer_probe_failures: fleet_sum(&router, |s| s.peer_probe_failures),
            failovers: router.stats().failovers(),
            all_answers_sound: tally.all_sound,
        }
    }

    /// Replays the trace through `router`, routing each query to its
    /// slot owner (with a seeded 25% spray to random entries), ticking
    /// the failure detector once per query, and checking every answer
    /// against the oracle. `kill` = (query index, node index) crashes a
    /// node mid-trace; `observe` runs after every query.
    fn replay(
        &self,
        router: &ClusterRouter,
        clock: &MockClock,
        counting: &CountingOrigin,
        oracle: &HashMap<String, Vec<fp_sqlmini::Value>>,
        kill: Option<(usize, usize)>,
        observe: &mut dyn FnMut(&ClusterRouter),
    ) -> ReplayTally {
        let rbe = Rbe::default();
        let n = router.len();
        let mut tally = ReplayTally {
            answered: 0,
            zero_origin: 0,
            all_sound: true,
        };
        // Seeded LCG: the edge's routing noise, deterministic per fleet
        // size so runs are reproducible.
        let mut lcg: u64 = 0x0BEE_F00D ^ (n as u64);
        for (i, q) in self.trace.queries.iter().enumerate() {
            clock.advance(TICK);
            if let Some((at, victim)) = kill {
                if i == at {
                    router.kill(victim);
                }
            }
            let fields = q.form_fields();
            lcg = lcg
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            // Route at the edge: hash the routing key to its owner
            // (as node 0 currently sees the fleet), except for the
            // sprayed quarter that lands on an arbitrary node.
            let owner_entry = router
                .node(0)
                .manager()
                .resolve_form(&rbe.form_path, &fields)
                .ok()
                .and_then(|bound| {
                    let key = routing_key(&bound.residual_key, &bound.region);
                    router.owner_seen_by(0, &key)
                })
                .map_or(0, |owner| owner.0 as usize);
            let entry = if (lcg >> 33).is_multiple_of(4) {
                ((lcg >> 17) as usize) % n
            } else {
                owner_entry
            };
            let before = counting.fetches();
            if let Ok((response, _)) = router.handle_form(entry, &rbe.form_path, &fields) {
                tally.answered += 1;
                if counting.fetches() == before {
                    tally.zero_origin += 1;
                }
                let oracle_ids = &oracle[&q.query_string()];
                let m = response.metrics;
                match parse_result(&response.body.into_vec()) {
                    Some(result) => {
                        if !is_subset(&result, oracle_ids) {
                            tally.all_sound = false;
                        }
                        if !m.degraded
                            && !matches!(m.outcome, Outcome::Forwarded)
                            && result.len() != oracle_ids.len()
                        {
                            // A non-degraded cache answer must be complete.
                            tally.all_sound = false;
                        }
                    }
                    None => tally.all_sound = false,
                }
            }
            router.tick();
            observe(router);
        }
        tally
    }
}

/// One per-node runtime counter, summed over the fleet.
fn fleet_sum(router: &ClusterRouter, counter: fn(&RuntimeSnapshot) -> usize) -> u64 {
    (0..router.len())
        .map(|i| counter(&router.node(i).runtime_stats()) as u64)
        .sum()
}

/// Parses a served XML body back into rows (the client's view of the
/// answer, whichever node or cache produced it).
pub(crate) fn parse_result(body: &[u8]) -> Option<ResultSet> {
    let text = std::str::from_utf8(body).ok()?;
    let doc = Element::parse(text).ok()?;
    ResultSet::from_xml(&doc)
}

/// Whether every key of `result` appears in the oracle's objID set.
pub(crate) fn is_subset(result: &ResultSet, oracle: &[fp_sqlmini::Value]) -> bool {
    let Some(key_col) = result.column_index("objID") else {
        return result.is_empty();
    };
    result
        .rows
        .iter()
        .all(|r| oracle.iter().any(|v| *v == r[key_col]))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Scale;

    /// The acceptance bar for the fleet, end to end: pooled caching
    /// cuts origin traffic as the fleet grows, a mid-trace kill stays
    /// invisible to clients, and every answer stays sound.
    #[test]
    fn fleet_pools_its_cache_and_survives_a_mid_trace_kill() {
        let exp = Experiment::prepare(Scale {
            objects: 10_000,
            queries: 150,
            seed: 23,
        });
        let bench = exp.cluster(&[1, 4]);

        let solo = &bench.rows[0];
        let fleet = &bench.rows[1];
        assert_eq!(solo.nodes, 1);
        assert_eq!(fleet.nodes, 4);
        // With a healthy origin every query is answered at any size.
        assert_eq!(solo.answered, solo.queries);
        assert_eq!(fleet.answered, fleet.queries);
        // Pooled capacity: 4 nodes hold 4x the cache, so the fleet
        // refetches less than the solo proxy.
        assert!(
            fleet.origin_fetches < solo.origin_fetches,
            "fleet {} vs solo {} origin fetches",
            fleet.origin_fetches,
            solo.origin_fetches
        );
        assert!(fleet.hit_rate > solo.hit_rate);
        // The sprayed entries exercise the peer-probe leg for real.
        assert!(fleet.peer_probes > 0, "spray must trigger owner probes");
        assert!(solo.peer_probes == 0, "a solo node has no peers to probe");
        assert!(solo.all_answers_sound && fleet.all_answers_sound);

        // The kill run: availability at least the single-node chaos
        // floor (in practice ~1.0 — the origin is healthy, only a peer
        // died), failover measured, no unsound answer.
        let k = &bench.kill;
        assert_eq!(k.queries, 150);
        assert!(
            k.availability > 0.3,
            "availability {:.2} under the chaos floor",
            k.availability
        );
        assert!(k.all_answers_sound, "a served answer exceeded the oracle");
        // 0 is legitimate: a serving-path probe failure feeds the
        // detector in the same tick as the kill.
        let failover = k.failover_ms.expect("survivors must notice the kill");
        assert!(
            (0.0..=5_000.0).contains(&failover),
            "failover time {failover} virtual ms out of range"
        );
        assert!(
            k.failovers >= 1,
            "the kill must be observed as a membership transition"
        );
    }

    #[test]
    fn fleet_sweep_is_powers_of_two_up_to_max() {
        assert_eq!(fleet_sweep(8), vec![1, 2, 4, 8]);
        assert_eq!(fleet_sweep(4), vec![1, 2, 4]);
        assert_eq!(fleet_sweep(6), vec![1, 2, 4, 6]);
        assert_eq!(fleet_sweep(1), vec![1]);
        assert_eq!(fleet_sweep(0), vec![1]);
    }
}
