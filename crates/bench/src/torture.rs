//! `repro torture` — the whole-stack torture harness.
//!
//! One seed drives everything: a 3-node [`ClusterRouter`] fleet with
//! per-node disk tiers replays the calibrated Radial trace while a
//! seeded schedule injects faults into every layer at once —
//!
//! * **origin**: a mid-trace [`ChaosOrigin`] outage window;
//! * **network**: seeded packet loss and delay on the peer transport,
//!   plus an *asymmetric* (one-directional) partition window;
//! * **storage**: sticky slab-append faults (ENOSPC or EIO) on one
//!   node's tier for a window, and one byte of on-disk slab corruption
//!   flipped mid-run;
//! * **process**: one node killed mid-trace and revived later.
//!
//! Everything runs on one [`MockClock`], every random choice comes from
//! one xorshift stream seeded by `--seed`, and background refresh /
//! promotion threads are quiesced after every query — so a run is
//! **byte-deterministic**: the same seed replays the identical event
//! log and produces the identical `BENCH_torture.json` row, every time.
//!
//! While the trace replays, invariant oracles check every answer:
//!
//! 1. **soundness** — a served answer is a subset of the no-cache
//!    oracle answer, and complete unless flagged degraded, stale, or
//!    forwarded;
//! 2. **staleness** — no served entry is older than
//!    `ttl + max(stale_while_revalidate, stale_if_error)`;
//! 3. **availability** — the answered fraction stays above the chaos
//!    floor even with every fault armed;
//! 4. **durability** — after the run, faults heal, one node snapshots
//!    cleanly, restarts from disk, and must re-serve a cached answer
//!    with zero origin traffic and zero entry loss.
//!
//! [`MockClock`]: funcproxy::resilience::MockClock

use crate::cluster::{is_subset, parse_result};
use crate::Experiment;
use fp_trace::Rbe;
use funcproxy::cache::{IoFault, IoOp, SlabIo, TierConfig};
use funcproxy::cluster::{
    routing_key, ClusterRouter, LossyTransport, MembershipConfig, NodeId, NodeStatus,
};
use funcproxy::metrics::Outcome;
use funcproxy::origin::CountingOrigin;
use funcproxy::resilience::{ChaosOrigin, Clock, MockClock};
use funcproxy::template::TemplateManager;
use funcproxy::{CostModel, LifecycleConfig, Origin, ProxyConfig, ProxyHandle, Scheme, SiteOrigin};
use serde::Serialize;
use std::io::{Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Virtual time between consecutive trace queries.
const TICK: Duration = Duration::from_millis(10);
/// Fleet size. Node 0 is the routing viewpoint and is never killed.
const NODES: usize = 3;
/// Per-template freshness bound.
const TTL: Duration = Duration::from_millis(600);
/// Stale-while-revalidate window.
const SWR: Duration = Duration::from_millis(200);
/// Stale-if-error window (the outage extension).
const SIE: Duration = Duration::from_millis(400);
/// Fraction of peer exchanges dropped by the lossy transport.
const DROP_RATE: f64 = 0.05;
/// Fraction of delivered peer exchanges delayed, and by how much.
const DELAY_RATE: f64 = 0.05;
const DELAY: Duration = Duration::from_millis(2);
/// The availability floor with every fault armed — the same chaos
/// floor the origin-outage and kill experiments hold.
pub const AVAILABILITY_FLOOR: f64 = 0.30;

/// The regression seed corpus CI replays on every push. A seed lands
/// here when it once found a bug (or probes a distinct schedule shape);
/// it never leaves.
pub const SEED_CORPUS: [u64; 5] = [3, 17, 1984, 0xC0FFEE, 0xFEED_BEEF];

/// One seed's torture run, the row `BENCH_torture.json` persists.
#[derive(Debug, Clone, Serialize, PartialEq)]
pub struct TortureRow {
    /// The schedule seed.
    pub seed: u64,
    /// Queries replayed.
    pub queries: usize,
    /// Queries answered.
    pub answered: usize,
    /// Answered fraction — must stay above [`AVAILABILITY_FLOOR`].
    pub availability: f64,
    /// Answers that exceeded the oracle or were incomplete without a
    /// degraded/stale flag. Must be 0.
    pub soundness_violations: usize,
    /// Answers older than `ttl + max(swr, sie)`. Must be 0.
    pub staleness_violations: usize,
    /// Answers served with the degraded flag set.
    pub degraded_answers: usize,
    /// Answers served stale (past TTL, inside a staleness window).
    pub stale_answers: usize,
    /// Origin faults the chaos layer injected.
    pub origin_faults_injected: u64,
    /// Slab I/O faults the storage seam injected.
    pub slab_faults_injected: u64,
    /// Healthy→degraded (eviction-only) tier transitions.
    pub tier_degrade_events: usize,
    /// Degraded→healthy tier transitions. Must be ≥ degrade events
    /// minus one (every window heals).
    pub tier_recoveries: usize,
    /// Slab I/O errors absorbed (never client-visible).
    pub slab_io_errors: usize,
    /// CRC-failed segments quarantined and re-fetched from the origin.
    pub read_repairs: usize,
    /// Snapshot/meta writes that failed and were absorbed.
    pub snapshot_io_errors: usize,
    /// Virtual ms from the kill until a survivor's live view first
    /// excluded the victim. `None` = never noticed (a bug).
    pub failover_ms: Option<f64>,
    /// Virtual ms from the revive until every live node saw the victim
    /// Alive again. `None` = never rejoined (a bug).
    pub rejoin_ms: Option<f64>,
    /// Entries (RAM + disk tier) on node 0 when it snapshotted after
    /// the run. Includes entries already aged past every serve window,
    /// which a restart legitimately drops.
    pub pre_restart_entries: usize,
    /// Entries (RAM + disk tier) recovered by the restarted node.
    pub restart_entries_recovered: usize,
    /// The restarted node re-served a pre-restart answer with zero
    /// origin traffic. Must be true.
    pub restart_served_from_cache: bool,
    /// FNV-1a hash of the full event log — two same-seed runs must
    /// produce identical hashes (the byte-determinism oracle).
    pub event_log_hash: String,
}

/// A torture run: the summary row plus the full event log.
#[derive(Debug, Clone)]
pub struct TortureRun {
    /// The summary row.
    pub row: TortureRow,
    /// The deterministic event log (virtual timestamps only).
    pub events: Vec<String>,
}

/// The report `repro torture` persists to `BENCH_torture.json`.
#[derive(Debug, Clone, Serialize)]
pub struct TortureBench {
    /// One row per seed.
    pub rows: Vec<TortureRow>,
}

impl std::fmt::Display for TortureBench {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "Whole-stack torture (3 nodes, origin outage + loss/delay/partition + slab faults + kill/revive, virtual clock)"
        )?;
        writeln!(
            f,
            "  seed       | avail | sound | stale-ok | degr | repairs | io errs | failover ms | rejoin ms | restart"
        )?;
        for r in &self.rows {
            writeln!(
                f,
                "  {:>10} | {:>5.3} | {:>5} | {:>8} | {:>4} | {:>7} | {:>7} | {:>11} | {:>9} | {}",
                r.seed,
                r.availability,
                r.soundness_violations == 0,
                r.staleness_violations == 0,
                r.tier_degrade_events,
                r.read_repairs,
                r.slab_io_errors,
                r.failover_ms.map_or("never".into(), |m| format!("{m:.0}")),
                r.rejoin_ms.map_or("never".into(), |m| format!("{m:.0}")),
                if r.restart_served_from_cache {
                    "warm"
                } else {
                    "cold"
                },
            )?;
        }
        Ok(())
    }
}

/// The seeded xorshift stream every schedule choice is drawn from.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.0 = x;
        x
    }

    fn pick(&mut self, n: usize) -> usize {
        (self.next() >> 17) as usize % n.max(1)
    }
}

/// What the seed chose to break, and when (query indices).
struct Schedule {
    victim: usize,
    kill_at: usize,
    revive_at: usize,
    slab_node: usize,
    slab_fault: IoFault,
    slab_from: usize,
    slab_until: usize,
    part_from_node: NodeId,
    part_to_node: NodeId,
    part_from: usize,
    part_until: usize,
    outage_start: Duration,
    outage_end: Duration,
    corrupt_at: usize,
}

impl Schedule {
    fn derive(seed: u64, queries: usize) -> (Schedule, Rng) {
        let mut rng = Rng(seed.max(1) ^ 0x7042_7042);
        let q = queries.max(12);
        let victim = 1 + rng.pick(NODES - 1);
        // The slab-fault node is any node; faulting the victim's tier
        // while it is down is a valid (boring) draw, so bias away.
        let slab_node = (victim + 1 + rng.pick(NODES - 1)) % NODES;
        let slab_fault = if rng.next().is_multiple_of(2) {
            IoFault::Enospc
        } else {
            IoFault::Eio
        };
        // One asymmetric partition: a live node stops reaching another,
        // while the reverse direction keeps working.
        let pa = rng.pick(NODES);
        let pb = (pa + 1 + rng.pick(NODES - 1)) % NODES;
        let schedule = Schedule {
            victim,
            kill_at: q / 3,
            revive_at: 2 * q / 3,
            slab_node,
            slab_fault,
            slab_from: q / 6,
            slab_until: q / 2,
            part_from_node: NodeId(pa as u16),
            part_to_node: NodeId(pb as u16),
            part_from: q / 4,
            part_until: 5 * q / 12,
            outage_start: TICK * (q as u32 * 55 / 100),
            outage_end: TICK * (q as u32 * 70 / 100),
            corrupt_at: q * 45 / 100,
        };
        (schedule, rng)
    }
}

impl Experiment {
    /// Replays the seed corpus (or any seed list) and collects rows.
    pub fn torture_corpus(&self, seeds: &[u64]) -> TortureBench {
        TortureBench {
            rows: seeds.iter().map(|&s| self.torture(s).row).collect(),
        }
    }

    /// One seeded torture run; see the module docs for the fault
    /// schedule and the oracles.
    pub fn torture(&self, seed: u64) -> TortureRun {
        let queries = self.trace.len();
        let (schedule, mut rng) = Schedule::derive(seed, queries);
        let mut events: Vec<String> = Vec::new();

        // A workspace of this run's own: concurrent runs of one seed in
        // one process (parallel tests) must not share a tier directory.
        // The path never enters the event log, so runs still log
        // identically.
        static RUNS: AtomicUsize = AtomicUsize::new(0);
        let run = RUNS.fetch_add(1, Ordering::Relaxed);
        let root =
            std::env::temp_dir().join(format!("fp_torture_{}_{seed}_{run}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);

        let oracle = self.oracle_object_ids();
        let clock = MockClock::shared();
        let t0 = clock.now();
        let counting = Arc::new(CountingOrigin::new(Arc::new(SiteOrigin::new(
            self.site.clone(),
        ))));
        let chaos = Arc::new(ChaosOrigin::with_clock(
            Arc::clone(&counting) as Arc<dyn Origin>,
            Arc::clone(&clock) as Arc<dyn Clock>,
        ));
        chaos.outage_between(schedule.outage_start, schedule.outage_end);

        let ios: Vec<SlabIo> = (0..NODES).map(|_| SlabIo::healthy()).collect();
        let node_dirs: Vec<PathBuf> = (0..NODES).map(|i| root.join(format!("node{i}"))).collect();
        let cap = self.capacity_for(1.0 / 6.0);
        let handles: Vec<ProxyHandle> = (0..NODES)
            .map(|i| self.torture_node(&node_dirs[i], cap, &ios[i], &clock, &chaos))
            .collect();
        let (router, lossy) = ClusterRouter::in_process(
            handles,
            MembershipConfig::fast_test(),
            Arc::clone(&clock) as Arc<dyn Clock>,
        )
        .with_faulty_transport(|inner| {
            LossyTransport::new(inner, DROP_RATE, seed ^ 0x5EED).with_delay(
                DELAY_RATE,
                DELAY,
                Arc::clone(&clock) as Arc<dyn Clock>,
            )
        });

        let ms = |clock: &MockClock| clock.now().duration_since(t0).as_millis();
        events.push(format!(
            "schedule seed={seed} victim={} kill@{} revive@{} slab node={} fault={:?} [{}, {}) partition {}->{} [{}, {}) outage [{}ms, {}ms) corrupt@{}",
            schedule.victim,
            schedule.kill_at,
            schedule.revive_at,
            schedule.slab_node,
            schedule.slab_fault,
            schedule.slab_from,
            schedule.slab_until,
            schedule.part_from_node.0,
            schedule.part_to_node.0,
            schedule.part_from,
            schedule.part_until,
            schedule.outage_start.as_millis(),
            schedule.outage_end.as_millis(),
            schedule.corrupt_at,
        ));

        let rbe = Rbe::default();
        let victim_id = NodeId(schedule.victim as u16);
        let stale_bound_ms = (TTL + SWR.max(SIE)).as_secs_f64() * 1000.0;
        let mut answered = 0usize;
        let mut soundness_violations = 0usize;
        let mut staleness_violations = 0usize;
        let mut degraded_answers = 0usize;
        let mut stale_answers = 0usize;
        let mut kill_time: Option<std::time::Instant> = None;
        let mut failover: Option<Duration> = None;
        let mut revive_time: Option<std::time::Instant> = None;
        let mut rejoin: Option<Duration> = None;
        let mut lcg: u64 = 0x0BEE_F00D ^ seed;

        for (i, q) in self.trace.queries.iter().enumerate() {
            clock.advance(TICK);

            // The seeded fault schedule, armed and healed by query index.
            if i == schedule.kill_at {
                router.kill(schedule.victim);
                events.push(format!("t={}ms kill node {}", ms(&clock), schedule.victim));
            }
            if i == schedule.revive_at {
                router.revive(schedule.victim);
                events.push(format!(
                    "t={}ms revive node {}",
                    ms(&clock),
                    schedule.victim
                ));
            }
            if i == schedule.slab_from {
                ios[schedule.slab_node].inject(IoOp::Append, schedule.slab_fault);
                ios[schedule.slab_node].inject(IoOp::MetaWrite, schedule.slab_fault);
                events.push(format!(
                    "t={}ms arm slab fault {:?} on node {}",
                    ms(&clock),
                    schedule.slab_fault,
                    schedule.slab_node
                ));
            }
            if i == schedule.slab_until {
                ios[schedule.slab_node].heal_all();
                events.push(format!(
                    "t={}ms heal slab on node {}",
                    ms(&clock),
                    schedule.slab_node
                ));
            }
            if i == schedule.part_from {
                lossy.block(schedule.part_from_node, schedule.part_to_node);
                events.push(format!(
                    "t={}ms partition {}->{}",
                    ms(&clock),
                    schedule.part_from_node.0,
                    schedule.part_to_node.0
                ));
            }
            if i == schedule.part_until {
                lossy.unblock(schedule.part_from_node, schedule.part_to_node);
                events.push(format!(
                    "t={}ms heal partition {}->{}",
                    ms(&clock),
                    schedule.part_from_node.0,
                    schedule.part_to_node.0
                ));
            }
            if i == schedule.corrupt_at {
                let flipped = corrupt_slab_byte(&node_dirs[0].join("tier"));
                events.push(format!(
                    "t={}ms flip slab byte on node 0: {}",
                    ms(&clock),
                    flipped
                ));
            }

            // Route at the edge exactly like the cluster bench: owner
            // as node 0 sees it, with a seeded quarter sprayed.
            let fields = q.form_fields();
            lcg = lcg
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
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
                ((lcg >> 17) as usize) % NODES
            } else {
                owner_entry
            };

            match router.handle_form(entry, &rbe.form_path, &fields) {
                Ok((response, _)) => {
                    answered += 1;
                    let m = &response.metrics;
                    if m.degraded {
                        degraded_answers += 1;
                    }
                    if m.stale {
                        stale_answers += 1;
                    }
                    if m.entry_age_ms > stale_bound_ms {
                        staleness_violations += 1;
                        events.push(format!(
                            "t={}ms STALENESS q={} age={:.0}ms",
                            ms(&clock),
                            i,
                            m.entry_age_ms
                        ));
                    }
                    let oracle_ids = &oracle[&q.query_string()];
                    let sound = match parse_result(&response.body.into_vec()) {
                        Some(result) => {
                            is_subset(&result, oracle_ids)
                                && (m.degraded
                                    || m.stale
                                    || matches!(m.outcome, Outcome::Forwarded)
                                    || result.len() == oracle_ids.len())
                        }
                        None => false,
                    };
                    if !sound {
                        soundness_violations += 1;
                        events.push(format!("t={}ms UNSOUND q={}", ms(&clock), i));
                    }
                }
                Err(_) => {
                    events.push(format!("t={}ms unanswered q={}", ms(&clock), i));
                }
            }

            router.tick();
            // Join every background refresh/promotion before the next
            // query: thread completion points become deterministic.
            for n in 0..NODES {
                router.node(n).quiesce_revalidations();
            }

            if kill_time.is_none() && router.is_down(schedule.victim) {
                kill_time = Some(clock.now());
            }
            if let (Some(t), None) = (kill_time, failover) {
                let noticed = (0..NODES)
                    .filter(|&n| n != schedule.victim)
                    .any(|n| router.status_seen_by(n, victim_id) != Some(NodeStatus::Alive));
                if noticed {
                    failover = Some(clock.now().duration_since(t));
                    events.push(format!(
                        "t={}ms survivors routed around the victim",
                        ms(&clock)
                    ));
                }
            }
            if revive_time.is_none() && i >= schedule.revive_at && !router.is_down(schedule.victim)
            {
                revive_time = Some(clock.now());
            }
            if let (Some(t), None) = (revive_time, rejoin) {
                let all_back = (0..NODES)
                    .filter(|&n| n != schedule.victim)
                    .all(|n| router.status_seen_by(n, victim_id) == Some(NodeStatus::Alive));
                if all_back {
                    rejoin = Some(clock.now().duration_since(t));
                    events.push(format!("t={}ms victim seen alive everywhere", ms(&clock)));
                }
            }
        }

        // Heal the world, then let membership settle so the rejoin can
        // complete even when the revive fell late in the trace.
        for io in &ios {
            io.heal_all();
        }
        lossy.heal_partitions();
        if router.is_down(schedule.victim) {
            router.revive(schedule.victim);
        }
        for _ in 0..50 {
            clock.advance(TICK);
            router.tick();
            if let (Some(t), None) = (revive_time, rejoin) {
                let all_back = (0..NODES)
                    .filter(|&n| n != schedule.victim)
                    .all(|n| router.status_seen_by(n, victim_id) == Some(NodeStatus::Alive));
                if all_back {
                    rejoin = Some(clock.now().duration_since(t));
                    events.push(format!("t={}ms victim seen alive everywhere", ms(&clock)));
                }
            } else if rejoin.is_some() {
                break;
            }
            if revive_time.is_none() && !router.is_down(schedule.victim) {
                revive_time = Some(clock.now());
            }
        }

        // Durability oracle: cache a probe answer on node 0, snapshot,
        // restart from the same disk state, and re-serve it with zero
        // origin traffic.
        let probe_q = &self.trace.queries[rng.pick(queries)];
        let probe_fields = probe_q.form_fields();
        let node0 = router.node(0);
        let _ = node0.handle_form_xml(&rbe.form_path, &probe_fields);
        let warm = node0
            .handle_form_xml(&rbe.form_path, &probe_fields)
            .expect("healthy origin serves the probe");
        node0.quiesce_revalidations();
        let written = node0.snapshot_now().expect("healed io snapshots cleanly");
        let pre_stats = node0.cache_stats();
        let pre_restart_entries = pre_stats.entries + pre_stats.disk_entries;
        events.push(format!(
            "t={}ms node 0 snapshot: {} files, {} entries",
            ms(&clock),
            written,
            pre_restart_entries
        ));

        // Collect fleet-wide counters before the fleet goes away.
        let mut tier_degrade_events = 0usize;
        let mut tier_recoveries = 0usize;
        let mut slab_io_errors = 0usize;
        let mut read_repairs = 0usize;
        let mut snapshot_io_errors = 0usize;
        for n in 0..NODES {
            let s = router.node(n).runtime_stats();
            tier_degrade_events += s.cache.tier_degraded;
            tier_recoveries += s.cache.tier_recoveries;
            slab_io_errors += s.cache.slab_io_errors;
            read_repairs += s.read_repairs;
            snapshot_io_errors += s.snapshot_io_errors;
        }
        let slab_faults_injected: u64 = ios.iter().map(|io| io.faults_injected() as u64).sum();
        drop(router);

        let restarted = self.torture_node(&node_dirs[0], cap, &SlabIo::healthy(), &clock, &chaos);
        let restart_stats = restarted.cache_stats();
        let restart_entries_recovered = restart_stats.entries + restart_stats.disk_entries;
        let before = counting.fetches();
        let reserved = restarted.handle_form_xml(&rbe.form_path, &probe_fields);
        let restart_served_from_cache = match &reserved {
            Ok(r) => counting.fetches() == before && r.body == warm.body,
            Err(_) => false,
        };
        events.push(format!(
            "t={}ms restart: {} entries recovered, warm re-serve: {}",
            ms(&clock),
            restart_entries_recovered,
            restart_served_from_cache
        ));
        self.site.reset_load();
        let _ = std::fs::remove_dir_all(&root);

        let row = TortureRow {
            seed,
            queries,
            answered,
            availability: answered as f64 / queries.max(1) as f64,
            soundness_violations,
            staleness_violations,
            degraded_answers,
            stale_answers,
            origin_faults_injected: chaos.faults_injected(),
            slab_faults_injected,
            tier_degrade_events,
            tier_recoveries,
            slab_io_errors,
            read_repairs,
            snapshot_io_errors,
            failover_ms: failover.map(|d| d.as_secs_f64() * 1000.0),
            rejoin_ms: rejoin.map(|d| d.as_secs_f64() * 1000.0),
            pre_restart_entries,
            restart_entries_recovered,
            restart_served_from_cache,
            event_log_hash: fnv1a(&events),
        };
        TortureRun { row, events }
    }

    /// One torture fleet node: 1/6-size RAM cache, disk tier carrying
    /// the injectable [`SlabIo`] (and, with no metadata interval, only
    /// `snapshot_now` persistence — deterministic), short TTLs with both
    /// staleness windows.
    fn torture_node(
        &self,
        dir: &Path,
        cap: usize,
        io: &SlabIo,
        clock: &Arc<MockClock>,
        origin: &Arc<ChaosOrigin>,
    ) -> ProxyHandle {
        let tier_dir = dir.join("tier");
        let _ = std::fs::create_dir_all(&tier_dir);
        let lifecycle = LifecycleConfig::default()
            .with_default_ttl(TTL)
            .with_stale_while_revalidate(SWR)
            .with_stale_if_error(SIE)
            .with_epoch(1);
        ProxyHandle::with_shards_clocked(
            TemplateManager::with_sky_defaults(),
            Arc::clone(origin) as Arc<dyn Origin>,
            ProxyConfig::default()
                .with_scheme(Scheme::FullSemantic)
                .with_capacity(Some(cap))
                .with_cost(CostModel::free())
                .with_lifecycle(lifecycle)
                .with_tier_config(TierConfig::new(tier_dir).with_io(io.clone())),
            2,
            Arc::clone(clock) as Arc<dyn Clock>,
        )
    }
}

/// Flips one byte in the middle of the first non-empty slab under
/// `tier_dir`, returning a description of what was done. The slab's
/// contents at this point are seed-deterministic, so the chosen offset
/// (and hence the logged line) is too.
fn corrupt_slab_byte(tier_dir: &Path) -> String {
    let mut slabs: Vec<PathBuf> = match std::fs::read_dir(tier_dir) {
        Ok(rd) => rd
            .filter_map(|e| e.ok().map(|e| e.path()))
            .filter(|p| p.extension().is_some_and(|x| x == "fpslab"))
            .collect(),
        Err(_) => return "no tier dir".into(),
    };
    slabs.sort();
    for slab in slabs {
        let Ok(meta) = std::fs::metadata(&slab) else {
            continue;
        };
        if meta.len() <= 64 {
            continue;
        }
        let off = meta.len() / 2;
        let Ok(mut f) = std::fs::OpenOptions::new()
            .read(true)
            .write(true)
            .open(&slab)
        else {
            continue;
        };
        let mut byte = [0u8; 1];
        if f.seek(SeekFrom::Start(off)).is_err()
            || std::io::Read::read_exact(&mut f, &mut byte).is_err()
        {
            continue;
        }
        byte[0] ^= 0xFF;
        if f.seek(SeekFrom::Start(off)).is_ok() && f.write_all(&byte).is_ok() {
            let name = slab
                .file_name()
                .map(|n| n.to_string_lossy().into_owned())
                .unwrap_or_default();
            return format!("{name} offset {off}");
        }
    }
    "no slab large enough".into()
}

/// FNV-1a over the event log, newline-joined: the fingerprint two
/// same-seed runs must agree on byte for byte.
fn fnv1a(events: &[String]) -> String {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for line in events {
        for b in line.as_bytes() {
            h ^= u64::from(*b);
            h = h.wrapping_mul(0x100_0000_01b3);
        }
        h ^= u64::from(b'\n');
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    format!("{h:016x}")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Scale;

    fn small() -> Experiment {
        Experiment::prepare(Scale {
            objects: 8_000,
            queries: 90,
            seed: 23,
        })
    }

    /// The acceptance bar: one corpus seed end to end — availability
    /// above the floor, zero soundness and staleness violations, the
    /// kill noticed and the victim rejoined, and a clean warm restart.
    #[test]
    fn torture_run_holds_every_invariant() {
        let exp = small();
        let run = exp.torture(SEED_CORPUS[0]);
        let r = &run.row;
        assert!(
            r.availability >= AVAILABILITY_FLOOR,
            "availability {:.3} under the floor",
            r.availability
        );
        assert_eq!(r.soundness_violations, 0, "events: {:#?}", run.events);
        assert_eq!(r.staleness_violations, 0, "events: {:#?}", run.events);
        assert!(r.failover_ms.is_some(), "survivors never noticed the kill");
        assert!(r.rejoin_ms.is_some(), "victim never rejoined");
        assert!(r.origin_faults_injected > 0, "outage window never fired");
        assert!(
            r.restart_served_from_cache,
            "restart lost the cached answer"
        );
        // A restart drops entries aged past every serve window, so the
        // recovered count may be lower — but never zero (the probe
        // entry is seconds old) and never higher than what was there.
        assert!(
            (1..=r.pre_restart_entries).contains(&r.restart_entries_recovered),
            "recovered {} of {} durable entries",
            r.restart_entries_recovered,
            r.pre_restart_entries
        );
    }

    /// The committed regression corpus: every seed must hold the
    /// soundness, staleness, availability, and restart oracles.
    #[test]
    fn seed_corpus_stays_sound() {
        let exp = small();
        let bench = exp.torture_corpus(&SEED_CORPUS);
        assert_eq!(bench.rows.len(), SEED_CORPUS.len());
        for r in &bench.rows {
            assert_eq!(r.soundness_violations, 0, "seed {}", r.seed);
            assert_eq!(r.staleness_violations, 0, "seed {}", r.seed);
            assert!(
                r.availability >= AVAILABILITY_FLOOR,
                "seed {}: availability {:.3}",
                r.seed,
                r.availability
            );
            assert!(r.restart_served_from_cache, "seed {}: cold restart", r.seed);
        }
    }

    /// Byte-determinism: the same seed must replay the identical event
    /// log (and therefore the identical row) twice in a row.
    #[test]
    fn same_seed_replays_byte_identically() {
        let exp = small();
        let a = exp.torture(9);
        let b = exp.torture(9);
        assert_eq!(a.events, b.events);
        assert_eq!(
            serde_json::to_string(&a.row).unwrap(),
            serde_json::to_string(&b.row).unwrap()
        );
        assert_eq!(a.row.event_log_hash, b.row.event_log_hash);
    }
}
