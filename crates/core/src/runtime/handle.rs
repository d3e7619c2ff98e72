//! [`ProxyHandle`]: the shared, thread-safe proxy front.
//!
//! The handle is the proxy's one decision procedure — exact match,
//! containment, region containment and overlap, each answered as the
//! configured [`Scheme`] allows. It is one pipeline whatever form the
//! answer takes (a `Sink`: rows, a slab document, or the edge
//! reactor's non-blocking probe), run in phases so no lock is ever held
//! across an origin fetch:
//!
//! 1. **Cache phase** (one shard lock): exact lookup and relationship
//!    classification. A hit — exact or contained, RAM or disk — leaves
//!    the lock as a `HitPlan` of `Arc` snapshots, and one finisher
//!    (`ProxyHandle::finish_hit`) selects its rows off-lock and hands
//!    them to the sink. Misses leave the phase with an origin plan:
//!    which query to send and what cached contribution to merge in.
//! 2. **Flight phase** (flight-table lock only): the request joins or
//!    leads the single flight for its canonical SQL. A leader re-runs
//!    the cache phase after registering its flight; together with
//!    leaders inserting results *before* resolving, that closes the
//!    race where a fetch lands between a miss and the join, so
//!    concurrent identical queries issue exactly one origin fetch.
//! 3. **Origin phase** (no locks): the leader executes its plan, takes
//!    the shard lock once more to insert/compact, resolves the flight.
//!
//! Followers either adopt the leader's response (exact) or retry the
//! cache phase once the flight lands (contained); a follower whose
//! flight lands without leaving a usable entry retries, bounded by
//! [`MAX_COALESCE_ATTEMPTS`], after which a request serves itself
//! without coalescing.
//!
//! **Failure path.** A leader whose fetch fails publishes the error to
//! its followers ([`FlightLease::fail`]) — exactly one origin attempt
//! per failed flight. Neither the leader nor any follower retries the
//! origin; each re-checks the cache and then attempts **degraded
//! serving**: for a transient failure
//! the proxy answers from cached data alone — region containment
//! serves the union of the subsumed entries, overlap serves the cached
//! intersection — marked `degraded` and never inserted into the cache
//! (a partial answer must not masquerade as a complete entry). Only
//! rejections and true disjoint misses surface the error.

use crate::cache::{
    entry_from_segment, Body, CacheStats, CacheStore, Entry, ProfitEstimate, ProfitModel, SlabSlice,
};
use crate::config::{ProxyConfig, SchemeChoice};
use crate::lifecycle::Freshness;
use crate::metrics::{Outcome, QueryMetrics};
use crate::observe::registry::render_prometheus;
use crate::observe::{Observer, OutcomeClass, PathClass, Phase as ObsPhase};
use crate::origin::Origin;
use crate::query::{
    classify, classify_graded, eval_answer_region, merge_results, remainder_query, EvalScratch,
    QueryStatus,
};
use crate::resilience::{Clock, ResilientOrigin, SystemClock};
use crate::runtime::shard::ShardedStore;
use crate::runtime::singleflight::{Coalesce, FlightLease, Joined, SingleFlight};
use crate::runtime::{RuntimeSnapshot, RuntimeStats};
use crate::schemes::Scheme;
use crate::template::{BoundKey, BoundQuery, TemplateManager};
use crate::ProxyError;
use fp_geometry::Region;
use fp_skyserver::{accounted_xml_bytes, ColumnarRows, ResultSet, SelectStats, SlabDoc};
use fp_sqlmini::Query;
use std::cell::RefCell;
use std::collections::HashSet;
use std::hash::Hash;
use std::io;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use std::thread::JoinHandle;
use std::time::Instant;

thread_local! {
    /// Per-thread evaluation buffers: the handle is `&self` across
    /// threads, so the scratch cannot live on the proxy itself.
    static SCRATCH: RefCell<EvalScratch> = RefCell::new(EvalScratch::default());
}

fn with_scratch<R>(f: impl FnOnce(&mut EvalScratch) -> R) -> R {
    SCRATCH.with(|s| f(&mut s.borrow_mut()))
}

/// How many times a request retries after following a flight that
/// landed without helping it (failed leader, evicted entry) before it
/// serves itself without coalescing.
pub const MAX_COALESCE_ATTEMPTS: usize = 3;

/// Every request but the reactor probe is answered, never declined.
const BLOCKING_ANSWERS: &str = "only the probe declines";

/// A cheaply cloneable, thread-safe handle to one shared proxy.
///
/// All methods take `&self`; clones share the cache shards, the flight
/// table, and the runtime counters. This is the front the HTTP router
/// and the multi-client replayer use.
#[derive(Clone)]
pub struct ProxyHandle {
    inner: Arc<Runtime>,
}

struct Runtime {
    manager: TemplateManager,
    store: ShardedStore,
    flights: SingleFlight,
    stats: RuntimeStats,
    config: ProxyConfig,
    origin: Arc<dyn Origin>,
    /// Set iff `config.resilience` is set; `origin` then points at this
    /// same decorator. Kept separately for snapshot access.
    resilient: Option<Arc<ResilientOrigin>>,
    /// The clock lifecycle timing and the `.fpmeta` schedule run on.
    clock: Arc<dyn Clock>,
    /// `config.lifecycle.is_active()`, hoisted off the hot path.
    lifecycle_active: bool,
    /// The live data-release epoch (monotone; starts at the config's,
    /// advanced by [`ProxyHandle::set_epoch`] and advertised epochs).
    current_epoch: AtomicU64,
    /// Canonical SQL of entries with a background refresh in flight —
    /// the dedup set behind "exactly one refresh per expired key".
    revalidating: Mutex<HashSet<String>>,
    /// Ids of demoted entries with a background promotion in flight —
    /// exactly one slab parse per entry however many disk hits land.
    promoting: Mutex<HashSet<u64>>,
    /// Background threads (revalidations and promotions) not yet seen
    /// finished, joined by [`ProxyHandle::quiesce_revalidations`].
    reval_threads: Mutex<Vec<JoinHandle<()>>>,
    /// `.fpmeta` pass state; `None` without a tier (nothing persists).
    snap: Option<Mutex<SnapSched>>,
    /// The adaptive scheme selector; `Some` iff the config's
    /// `scheme_choice` is [`SchemeChoice::Adaptive`]. Consulted once
    /// per request and fed once per finished request.
    profit: Option<ProfitModel>,
    /// The observability hub: per-phase latency histograms and the
    /// sampled span recorder, shared with the resilience layer.
    observe: Arc<Observer>,
}

/// Mutable `.fpmeta` scheduler state (behind a `try_lock` so the serve
/// path never blocks on a concurrent pass).
struct SnapSched {
    /// Next virtual-clock instant a scheduled pass is due (consulted
    /// only when the tier has a `meta_interval`).
    next_due: Instant,
    /// Per-shard store generation at its last written `.fpmeta`; a shard
    /// whose generation is unchanged is skipped (incremental writes).
    written_gens: Vec<u64>,
}

/// Lifecycle facts about the cached data behind one response, captured
/// under the shard lock and applied to the metrics after serving.
#[derive(Clone, Default)]
struct ServeLife {
    /// Any contributing entry was past its TTL deadline.
    stale: bool,
    /// Age of the oldest contributing entry, ms.
    age_ms: f64,
    /// Canonical SQL to refresh in the background (stale exact or
    /// contained hits on the healthy path).
    revalidate: Option<String>,
}

impl ServeLife {
    /// Folds another contributing entry's facts in (merge paths).
    fn absorb(&mut self, other: &ServeLife) {
        self.stale |= other.stale;
        self.age_ms = self.age_ms.max(other.age_ms);
    }
}

/// Bookkeeping for one request, accumulated across phases.
struct Timing {
    start: Instant,
    check_ms: f64,
    local_ms: f64,
    lock_wait_ms: f64,
    /// A form that could not select the query region already sent this
    /// request to the origin, and was counted (a leader's re-check meets
    /// the same entry again).
    fell_back: bool,
}

impl Timing {
    fn begin() -> Self {
        Timing {
            start: Instant::now(),
            check_ms: 0.0,
            local_ms: 0.0,
            lock_wait_ms: 0.0,
            fell_back: false,
        }
    }

    /// The metrics record of an answer finished now.
    fn metrics(
        &self,
        rows_total: usize,
        outcome: Outcome,
        rows_from_cache: usize,
        sim_ms: f64,
    ) -> QueryMetrics {
        let proxy_ms = ms_since(self.start);
        QueryMetrics {
            outcome,
            response_ms: sim_ms + proxy_ms,
            sim_ms,
            proxy_ms,
            check_ms: self.check_ms,
            local_ms: self.local_ms,
            rows_total,
            rows_from_cache,
            lock_wait_ms: self.lock_wait_ms,
            ..QueryMetrics::default()
        }
    }

    /// `result` as a row response finished now.
    fn respond(
        &self,
        result: Arc<ResultSet>,
        outcome: Outcome,
        rows_from_cache: usize,
        sim_ms: f64,
    ) -> ProxyResponse {
        let metrics = self.metrics(result.len(), outcome, rows_from_cache, sim_ms);
        ProxyResponse {
            result,
            columnar: None,
            metrics,
        }
    }
}

/// A served request: the result plus its metrics record.
///
/// A miss's result is `Arc`-shared with the entry it inserts when that
/// entry keeps tuples, and so is an exact hit's; a hit on an entry whose
/// answer is a columnar form materializes its rows from the form's slab.
#[derive(Debug, Clone)]
pub struct ProxyResponse {
    /// Rows returned to the client.
    pub result: Arc<ResultSet>,
    /// The columnar form of exactly `result`, when the serving path
    /// built or held one (a miss under a caching scheme builds it for
    /// the insert, an exact hit shares the entry's; `None` otherwise):
    /// its `doc()` is the response body, byte-identical to serializing
    /// `result` again.
    pub columnar: Option<Arc<ColumnarRows>>,
    /// The per-query metrics the proxy servlet logs.
    pub metrics: QueryMetrics,
}

/// A response served as contiguous XML bytes: a [`DocResponse`] with its
/// body flattened, for callers that read it as a slice. Byte-identical
/// to serializing the row response.
#[derive(Debug, Clone)]
pub struct XmlResponse {
    /// The complete `<ResultSet>` document.
    pub body: Vec<u8>,
    /// The same metrics a row response would carry.
    pub metrics: QueryMetrics,
}

/// The complete `<ResultSet>` document of one response, as the serving
/// paths produce it.
#[derive(Debug, Clone)]
pub enum XmlBody {
    /// Every answer whose entry has a columnar form — RAM hits, disk
    /// hits, and the misses that just built one: ranges of the entry's
    /// pre-serialized row slab, which the document pins. No tuple was
    /// materialized, no XML re-serialized, no row byte copied.
    Doc(SlabDoc),
    /// The rows of a result that has no columnar form, serialized.
    Bytes(Vec<u8>),
}

impl XmlBody {
    /// The document as contiguous bytes (a copy of the rows, for `Doc`).
    pub fn into_vec(self) -> Vec<u8> {
        match self {
            XmlBody::Doc(doc) => doc.to_vec(),
            XmlBody::Bytes(bytes) => bytes,
        }
    }
}

/// A response whose body may still lie in the cache entry it came from;
/// what the byte-serving paths return, and what a socket writer takes.
#[derive(Debug, Clone)]
pub struct DocResponse {
    /// The complete `<ResultSet>` document.
    pub body: XmlBody,
    /// The same metrics a row response would carry.
    pub metrics: QueryMetrics,
}

impl DocResponse {
    /// The same response as contiguous bytes.
    pub fn flatten(self) -> XmlResponse {
        XmlResponse {
            body: self.body.into_vec(),
            metrics: self.metrics,
        }
    }
}

/// Where a request's answer goes. Every sink runs the same pipeline;
/// only the form of a finished hit differs.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Sink {
    /// A row response ([`ProxyResponse`]).
    Rows,
    /// A response document ([`DocResponse`]): a hit lends ranges of its
    /// entry's slab where one exists.
    Doc,
    /// The edge reactor's probe: a document, served only from a fresh
    /// hit and without blocking — no flight, no origin, no thread
    /// spawned (a disk hit leaves its promotion to a blocking request).
    Probe,
}

/// A finished answer in its sink's form. Misses, merges and degraded
/// answers are rows whatever the sink; only a hit finished for a
/// document sink is a document already.
enum Served {
    Rows(ProxyResponse),
    Doc(DocResponse),
}

impl Served {
    fn metrics(&self) -> &QueryMetrics {
        match self {
            Served::Rows(response) => &response.metrics,
            Served::Doc(response) => &response.metrics,
        }
    }

    fn metrics_mut(&mut self) -> &mut QueryMetrics {
        match self {
            Served::Rows(response) => &mut response.metrics,
            Served::Doc(response) => &mut response.metrics,
        }
    }

    /// Rows (and their columnar form, when it is the form of exactly
    /// these rows), metrics still to be filled in.
    fn rows(result: Arc<ResultSet>, columnar: Option<Arc<ColumnarRows>>) -> Self {
        Served::Rows(ProxyResponse {
            result,
            columnar,
            metrics: QueryMetrics::default(),
        })
    }

    /// A document, metrics still to be filled in.
    fn doc(body: XmlBody) -> Self {
        Served::Doc(DocResponse {
            body,
            metrics: QueryMetrics::default(),
        })
    }

    /// The row response. Only document sinks are lent a slab.
    fn into_rows(self) -> ProxyResponse {
        match self {
            Served::Rows(response) => response,
            Served::Doc(_) => unreachable!("the row sink is never lent a slab"),
        }
    }
}

/// What the cache phase decided (after off-lock local evaluation).
enum Phase {
    /// Fully answered from the cache.
    Served(Served),
    /// Origin work is needed; here is the plan.
    Origin(Box<OriginPlan>),
}

/// What the shard-lock window itself decided. A hit leaves the lock
/// with `Arc` snapshots of its entry (or the pinned slab segment of a
/// demoted one); row selection runs after the lock is released, so a
/// large scan never serializes other requests on the same shard.
enum LockedPhase {
    Hit(HitPlan),
    /// Origin work is needed; here is the plan.
    Origin(Box<OriginPlan>),
}

/// An exact or contained hit, captured under the shard lock.
struct HitPlan {
    rows: HitRows,
    /// `true` = exact hit (serve every row); `false` = contained hit
    /// (select the query region).
    exact: bool,
    /// Simulated cost of reading the entry.
    sim_ms: f64,
    life: ServeLife,
}

/// Where a hit's rows lie.
enum HitRows {
    /// A resident entry's form, snapshotted. Entries are immutable
    /// once inserted, so it stays valid even if the entry is evicted
    /// while the hit is finished.
    Ram(Arc<ColumnarRows>),
    /// A demoted entry's rows, just parsed by the row sink's inline
    /// promotion: the tuples, and the form the entry was promoted with.
    Parsed {
        result: Arc<ResultSet>,
        form: Arc<ColumnarRows>,
    },
    /// A demoted entry on the disk tier.
    Disk(Box<DiskRows>),
}

/// A demoted entry's slab segment, pinned under the shard lock. The
/// slice pins the mmap (not the store), so row selection — by the
/// resident skeleton — runs after the lock is released, and the answer
/// lends the entry's pre-serialized row bytes straight out of the page
/// cache.
struct DiskRows {
    id: u64,
    residual_key: Arc<str>,
    slice: Arc<SlabSlice>,
    /// The whole entry's document: the skeleton's framing over the
    /// slice's row slab. That it exists says the slice fits the
    /// skeleton.
    doc: SlabDoc,
}

/// One probed entry in a merge: its shared form and whether to filter
/// it to the query region. Filtering happens off-lock, in
/// [`merge_parts`].
struct ProbePart {
    form: Arc<ColumnarRows>,
    /// `true` = filter to the query region (overlap probes); `false` =
    /// contributes whole (region containment).
    filter: bool,
    /// Simulated cost of reading the entry.
    sim_ms: f64,
    /// Lifecycle facts for this entry alone; folded into the response
    /// only when the part contributes rows to the served answer.
    life: ServeLife,
}

/// Probe parts filtered to the query region and merged by key.
struct Merged {
    result: ResultSet,
    /// Lifecycle facts of the parts whose rows reached the merge.
    life: ServeLife,
    rows_scanned: usize,
    rows_pruned: usize,
}

/// Everything a leader needs to finish a request off-lock: what to leave
/// out of the query it sends, `Arc` snapshots of the probed entries, and
/// the entries to compact afterwards.
struct OriginPlan {
    /// Cached regions the fetch subtracts from the query (a remainder
    /// query); empty = forward the query as it stands. The query itself
    /// is synthesized off-lock, in [`ProxyHandle::execute_plan`].
    exclude: Vec<Region>,
    /// Probed entries whose rows merge into the response.
    probe_parts: Vec<ProbePart>,
    /// Entries subsumed by the merged result (compacted after insert).
    compact_ids: Vec<u64>,
    outcome: Outcome,
    /// Whether this plan replaced a local evaluation over a cached form
    /// that could not select the query region.
    local_fallback: bool,
    /// Lifecycle facts about the probed entries (merge paths can draw
    /// on stale-but-serveable parts).
    life: ServeLife,
}

impl OriginPlan {
    fn forward(compact_ids: Vec<u64>) -> Box<Self> {
        Box::new(OriginPlan {
            exclude: Vec::new(),
            probe_parts: Vec::new(),
            compact_ids,
            outcome: Outcome::Forwarded,
            local_fallback: false,
            life: ServeLife::default(),
        })
    }

    fn forward_fallback() -> Box<Self> {
        let mut plan = Self::forward(Vec::new());
        plan.local_fallback = true;
        plan
    }
}

impl ProxyHandle {
    /// Builds a handle with one cache shard per available CPU (clamped
    /// to 64).
    pub fn new(manager: TemplateManager, origin: Arc<dyn Origin>, config: ProxyConfig) -> Self {
        let shards = std::thread::available_parallelism().map_or(8, |n| n.get().min(64));
        Self::with_shards(manager, origin, config, shards)
    }

    /// Builds a handle with an explicit shard count (at least one).
    pub fn with_shards(
        manager: TemplateManager,
        origin: Arc<dyn Origin>,
        config: ProxyConfig,
        shards: usize,
    ) -> Self {
        Self::with_shards_clocked(manager, origin, config, shards, Arc::new(SystemClock))
    }

    /// [`ProxyHandle::with_shards`] with an injected clock for the
    /// resilience layer (deadlines, backoff, breaker cooldowns) — the
    /// constructor deterministic tests and the chaos harness use. The
    /// clock is inert unless `config.resilience` is set.
    pub fn with_shards_clocked(
        manager: TemplateManager,
        origin: Arc<dyn Origin>,
        config: ProxyConfig,
        shards: usize,
        clock: Arc<dyn Clock>,
    ) -> Self {
        let store = ShardedStore::with_clock(&config, shards, Arc::clone(&clock));
        let observe = Arc::new(Observer::new(&config.observe));
        let (origin, resilient) = match &config.resilience {
            Some(policy) => {
                let decorated = Arc::new(
                    ResilientOrigin::with_clock(origin, policy.clone(), Arc::clone(&clock))
                        .with_observer(Arc::clone(&observe)),
                );
                (Arc::clone(&decorated) as Arc<dyn Origin>, Some(decorated))
            }
            None => (origin, None),
        };
        let snap = config.tier.as_ref().map(|tier| {
            Mutex::new(SnapSched {
                next_due: clock.now() + tier.meta_interval.unwrap_or_default(),
                written_gens: vec![0; store.shard_count()],
            })
        });
        let profit = match config.scheme_choice {
            SchemeChoice::Adaptive(params) => Some(ProfitModel::new(params)),
            SchemeChoice::Fixed(_) => None,
        };
        let handle = ProxyHandle {
            inner: Arc::new(Runtime {
                manager,
                store,
                flights: SingleFlight::new(),
                stats: RuntimeStats::default(),
                origin,
                resilient,
                lifecycle_active: config.lifecycle.is_active(),
                current_epoch: AtomicU64::new(config.lifecycle.epoch),
                revalidating: Mutex::new(HashSet::new()),
                promoting: Mutex::new(HashSet::new()),
                reval_threads: Mutex::new(Vec::new()),
                snap,
                profit,
                observe,
                clock,
                config,
            }),
        };
        if handle.inner.config.tier.is_some() {
            handle.recover_tier();
        }
        handle
    }

    /// Startup recovery of the disk tier: every shard replays its slab
    /// (CRC-verified, front-recoverable) and applies its `.fpmeta` when
    /// one exists. Corrupt segments are counted, never fatal. Finishes
    /// by adopting the highest data-release epoch on disk when it is
    /// ahead of the configured one.
    fn recover_tier(&self) {
        // Recovery runs at build time, before any request: give it its
        // own sampled trace so the startup cost is visible.
        let _trace = self.inner.observe.begin_trace();
        let recover_start = Instant::now();
        let mut recovered = 0usize;
        let mut corrupt = 0usize;
        let mut epoch = self.inner.config.lifecycle.epoch;
        for i in 0..self.inner.store.shard_count() {
            let outcome = self.inner.store.lock_shard(i).recover_tier();
            recovered += outcome.recovered;
            corrupt += outcome.corrupt;
            epoch = epoch.max(outcome.epoch);
        }
        if recovered > 0 {
            RuntimeStats::add(&self.inner.stats.recovered_entries, recovered);
        }
        if corrupt > 0 {
            RuntimeStats::add(&self.inner.stats.snapshot_corrupt_segments, corrupt);
        }
        self.set_epoch(epoch);
        let obs = &self.inner.observe;
        obs.record_phase(
            ObsPhase::SnapshotRecover,
            PathClass::Background,
            ms_since(recover_start),
        );
        obs.span(
            "tier.recover",
            "lifecycle",
            recover_start,
            recover_start.elapsed(),
            || Some(format!("entries={recovered}")),
        );
    }

    /// The template registry.
    pub fn manager(&self) -> &TemplateManager {
        &self.inner.manager
    }

    /// The active configuration.
    pub fn config(&self) -> &ProxyConfig {
        &self.inner.config
    }

    /// Number of cache shards.
    pub fn shard_count(&self) -> usize {
        self.inner.store.shard_count()
    }

    /// Cache statistics aggregated across shards.
    pub fn cache_stats(&self) -> CacheStats {
        self.inner.store.stats()
    }

    /// A snapshot of the runtime's counters, with the cache's and the
    /// resilience layer's (when one is configured) embedded.
    pub fn runtime_stats(&self) -> RuntimeSnapshot {
        let mut snapshot = self.inner.stats.snapshot();
        snapshot.duplicate_fetches_avoided =
            snapshot.coalesced_exact + snapshot.coalesced_contained;
        snapshot.in_flight_peak = self.inner.flights.in_flight_peak();
        snapshot.shards = self.inner.store.shard_count();
        if let Some(resilient) = &self.inner.resilient {
            snapshot.resilience = resilient.snapshot();
        }
        snapshot.cache = self.inner.store.stats();
        let obs = &self.inner.observe;
        snapshot.request_latency = obs.request_summary();
        snapshot.hit_latency = obs.hit_summary();
        snapshot.origin_fetch_latency = obs.origin_fetch_summary();
        if let Some(profit) = &self.inner.profit {
            snapshot.scheme_switches = profit.switches();
            snapshot.adaptive_templates = profit.templates_tracked();
        }
        snapshot
    }

    /// The adaptive profit model's current estimate for `template`.
    /// `None` when the runtime is fixed-scheme or the template has not
    /// been observed yet.
    pub fn profit_estimate(&self, template: &str) -> Option<ProfitEstimate> {
        self.inner.profit.as_ref()?.estimate(template)
    }

    /// The scheme this request serves under: the configured scheme,
    /// or the profit model's current per-template choice when the
    /// config asked for adaptive selection. Resolved once per request
    /// so one request never straddles a scheme switch.
    fn effective_scheme(&self, bound: &BoundKey) -> Scheme {
        match &self.inner.profit {
            Some(profit) => profit.scheme_for(&bound.reg.template.name),
            None => self.inner.config.scheme,
        }
    }

    /// End-of-request adaptive accounting: tally the serve under the
    /// scheme that produced it and feed the profit model's estimates.
    fn note_served(&self, template: &str, scheme: Scheme, metrics: &QueryMetrics) {
        RuntimeStats::add(&self.inner.stats.scheme_serves[scheme.index()], 1);
        if let Some(profit) = &self.inner.profit {
            profit.observe(template, metrics);
        }
    }

    /// The observe layer behind this handle: per-phase and per-outcome
    /// latency histograms plus the sampled span recorder.
    pub fn observer(&self) -> &Observer {
        &self.inner.observe
    }

    /// An owned, shareable handle to the observe layer, for subsystems
    /// (the edge reactor, worker pools) that record phases from threads
    /// that outlive a single request.
    pub fn observer_shared(&self) -> Arc<Observer> {
        Arc::clone(&self.inner.observe)
    }

    /// The `Retry-After` hint (whole seconds, ≥ 1) an admission-control
    /// layer should shed with while the origin circuit breaker is open;
    /// `None` when the breaker is closed, half-open, or resilience is
    /// not configured. Cheap enough for a per-request probe — one
    /// atomic-snapshot read, no locks.
    pub fn breaker_shed_hint(&self) -> Option<u64> {
        let r = self.inner.resilient.as_ref()?.snapshot();
        if r.breaker_state == "open" {
            Some(r.breaker_retry_after_ms.div_ceil(1000).max(1))
        } else {
            None
        }
    }

    /// The full `/metrics` payload in Prometheus text exposition format
    /// (version 0.0.4): runtime counters and gauges followed by every
    /// latency histogram family.
    pub fn metrics_text(&self) -> String {
        let stats = self.runtime_stats();
        let mut out = render_prometheus(&stats);
        stats.resilience.render_breaker_open(&mut out);
        out.push_str(&self.inner.observe.render_prometheus());
        out
    }

    /// Counts a cluster peer-cache probe issued by this node's serving
    /// path (`hit` when the remote cache answered it). Called by the
    /// fleet node, which owns the probe; the handle only keeps the
    /// per-node books.
    pub(crate) fn note_peer_probe(&self, hit: bool) {
        self.inner.stats.note_peer_probe(hit);
    }

    /// Counts a peer probe that failed transport after its retries and
    /// fell through to the local origin path.
    pub(crate) fn note_peer_probe_failure(&self) {
        self.inner.stats.note_peer_probe_failure();
    }

    /// Buffered trace spans as a chrome://tracing JSON document.
    pub fn trace_chrome_json(&self) -> String {
        self.inner.observe.spans().chrome_json()
    }

    /// Buffered trace spans as JSON Lines (one span object per line).
    pub fn trace_jsonl(&self) -> String {
        self.inner.observe.spans().jsonl()
    }

    /// The `Retry-After` hint (whole seconds, ≥ 1) a client should be
    /// given for `error`, or `None` when a retry is pointless (the
    /// error is not transient). Prefers the breaker's actual
    /// remaining-open time, then the error's own hint, then the
    /// resilience layer's next backoff delay — so a transient failure
    /// carries an honest nonzero hint even while the breaker is still
    /// closed (a bare 503 used to be the answer in that window).
    pub fn retry_after_secs(&self, error: &ProxyError) -> Option<u64> {
        let ProxyError::Origin(e) = error else {
            return None;
        };
        if !e.is_transient() {
            return None;
        }
        let stats = self
            .inner
            .resilient
            .as_ref()
            .map(|r| r.snapshot())
            .unwrap_or_default();
        let ms = if stats.breaker_retry_after_ms > 0 {
            stats.breaker_retry_after_ms
        } else if let Some(hint) = e.retry_after() {
            hint.as_millis().try_into().unwrap_or(u64::MAX)
        } else if stats.backoff_hint_ms > 0 {
            stats.backoff_hint_ms
        } else {
            1000
        };
        Some(ms.div_ceil(1000).max(1))
    }

    /// The live data-release epoch new cache entries are stamped with.
    pub fn current_epoch(&self) -> u64 {
        self.inner.current_epoch.load(Ordering::SeqCst)
    }

    /// Advances the proxy to data-release `epoch`, atomically retiring
    /// every cache entry stamped with an older one (shard by shard, so
    /// the serve path is never blocked behind one global pause). Returns
    /// how many entries were retired; a non-advancing epoch is a no-op.
    pub fn set_epoch(&self, epoch: u64) -> usize {
        let prev = self.inner.current_epoch.fetch_max(epoch, Ordering::SeqCst);
        if epoch <= prev {
            return 0;
        }
        let mut retired = 0;
        for i in 0..self.inner.store.shard_count() {
            retired += self.inner.store.lock_shard(i).bump_epoch(epoch);
        }
        retired
    }

    /// Blocks until every background revalidation spawned so far has
    /// finished — the deterministic-test barrier ("exactly one refresh
    /// per expired key" is only countable once the refreshes landed).
    pub fn quiesce_revalidations(&self) {
        loop {
            let threads = std::mem::take(&mut *locked(&self.inner.reval_threads));
            if threads.is_empty() {
                return;
            }
            for t in threads {
                let _ = t.join();
            }
        }
    }

    /// Serves an HTML-form request: resolve against the registered info
    /// files and templates, then answer per the configured scheme.
    ///
    /// # Errors
    /// Propagates resolution failures and origin errors; cache-side
    /// failures fall back to forwarding instead of erroring.
    pub fn handle_form<K: AsRef<str>, V: AsRef<str>>(
        &self,
        path: &str,
        fields: &[(K, V)],
    ) -> Result<ProxyResponse, ProxyError> {
        self.serve_form(path, fields, Sink::Rows)
            .map(Served::into_rows)
    }

    /// Serves a raw SQL request (the power-user path). Queries that match
    /// a registered template get full active caching; anything else is
    /// forwarded to the origin uncached (the proxy has no semantics to
    /// cache it by — exactly the paper's motivation for templates).
    ///
    /// # Errors
    /// Propagates resolution failures and origin errors.
    pub fn handle_sql(&self, sql: &str) -> Result<ProxyResponse, ProxyError> {
        self.serve_sql(sql, Sink::Rows).map(Served::into_rows)
    }

    /// Serves an HTML-form request straight to response bytes:
    /// [`ProxyHandle::handle_form_doc`], flattened. The body is
    /// byte-identical to serializing [`ProxyHandle::handle_form`]'s
    /// result.
    ///
    /// # Errors
    /// Propagates resolution failures and origin errors.
    pub fn handle_form_xml<K: AsRef<str>, V: AsRef<str>>(
        &self,
        path: &str,
        fields: &[(K, V)],
    ) -> Result<XmlResponse, ProxyError> {
        self.handle_form_doc(path, fields).map(DocResponse::flatten)
    }

    /// Serves an HTML-form request to a response document. Whatever has
    /// a columnar form — cache hits (exact and contained, RAM and disk)
    /// and fresh misses — lends ranges of the entry's pre-serialized row
    /// slab without materializing tuples; every other path serializes
    /// the row response.
    ///
    /// # Errors
    /// Propagates resolution failures and origin errors.
    pub fn handle_form_doc<K: AsRef<str>, V: AsRef<str>>(
        &self,
        path: &str,
        fields: &[(K, V)],
    ) -> Result<DocResponse, ProxyError> {
        self.serve_form(path, fields, Sink::Doc)
            .map(|served| self.to_doc(served))
    }

    /// [`ProxyHandle::handle_sql`], served to a response document.
    ///
    /// # Errors
    /// Propagates resolution failures and origin errors.
    pub fn handle_sql_doc(&self, sql: &str) -> Result<DocResponse, ProxyError> {
        self.serve_sql(sql, Sink::Doc)
            .map(|served| self.to_doc(served))
    }

    /// The edge reactor's fast path: serve an HTML-form request to bytes
    /// **only if** a fresh exact or contained hit answers it within one
    /// shard-lock window. Returns `None` — without touching the origin,
    /// the flight table, or the snapshot schedule — whenever serving
    /// would block: misses, stale entries, malformed entries, resolution
    /// failures, and the no-cache scheme all decline. Declined requests
    /// must be re-served through [`ProxyHandle::handle_form_doc`] on a
    /// thread that may block.
    pub fn try_form_doc_cached<K: AsRef<str>, V: AsRef<str>>(
        &self,
        path: &str,
        fields: &[(K, V)],
    ) -> Option<DocResponse> {
        let key = self.inner.manager.bind_form(path, fields).ok()?;
        self.probe_key(key)
    }

    /// [`ProxyHandle::try_form_doc_cached`] for raw SQL requests.
    /// Unregistered SQL always declines (it always needs the origin).
    pub fn try_sql_doc_cached(&self, sql: &str) -> Option<DocResponse> {
        match self.inner.manager.bind_sql(sql)? {
            Ok(key) => self.probe_key(key),
            Err(_) => None,
        }
    }

    /// A blocking form request through the one pipeline.
    fn serve_form<K: AsRef<str>, V: AsRef<str>>(
        &self,
        path: &str,
        fields: &[(K, V)],
        sink: Sink,
    ) -> Result<Served, ProxyError> {
        let key = self.inner.manager.bind_form(path, fields)?;
        self.serve_key(key, sink).expect(BLOCKING_ANSWERS)
    }

    /// A blocking raw SQL request: bound to a template when one matches,
    /// forwarded uncached otherwise.
    fn serve_sql(&self, sql: &str, sink: Sink) -> Result<Served, ProxyError> {
        let served = match self.inner.manager.bind_sql(sql) {
            Some(key) => self.serve_key(key?, sink),
            None => self.request(sink, None, || {
                let query =
                    fp_sqlmini::parse_query(sql).map_err(|e| ProxyError::BadRequest(e.to_string()));
                Some(query.and_then(|query| self.forward(&query)))
            }),
        };
        served.expect(BLOCKING_ANSWERS)
    }

    /// The reactor probe of a bound request, as a document.
    fn probe_key(&self, key: BoundKey) -> Option<DocResponse> {
        let served = self.serve_key(key, Sink::Probe)?.ok()?;
        Some(self.to_doc(served))
    }

    /// A bound request through the one pipeline, under the scheme it
    /// resolves to (once, so it never straddles a scheme switch). `None`
    /// only for a declined probe.
    fn serve_key(&self, key: BoundKey, sink: Sink) -> Option<Result<Served, ProxyError>> {
        let scheme = self.effective_scheme(&key);
        let reg = Arc::clone(&key.reg);
        self.request(sink, Some((&reg.template.name, scheme)), move || {
            match (scheme, sink) {
                (Scheme::NoCache, Sink::Probe) => None,
                (Scheme::NoCache, _) => Some(self.forward(&key.complete().query)),
                (_, Sink::Probe) => self.probe(&key, scheme).map(Ok),
                _ => Some(self.serve_caching(key, scheme, sink)),
            }
        })
    }

    /// The one request wrapper: a sampled trace around `serve`, then the
    /// adaptive tally (for a request with a template, under its scheme)
    /// and the observe record. A blocking request is counted as it starts
    /// — so a concurrent reader never sees more coalesced requests than
    /// requests — and runs the `.fpmeta` schedule as it ends. The probe
    /// counts only what it serves (a declined probe is re-served, and
    /// counted, by a blocking request) and keeps file I/O off the
    /// reactor thread.
    fn request(
        &self,
        sink: Sink,
        template: Option<(&str, Scheme)>,
        serve: impl FnOnce() -> Option<Result<Served, ProxyError>>,
    ) -> Option<Result<Served, ProxyError>> {
        let _trace = self.inner.observe.begin_trace();
        let started = Instant::now();
        let probe = sink == Sink::Probe;
        if !probe {
            RuntimeStats::add(&self.inner.stats.requests, 1);
        }
        let served = serve()?;
        if probe {
            RuntimeStats::add(&self.inner.stats.requests, 1);
        }
        let metrics = served.as_ref().ok().map(Served::metrics);
        if let (Some((template, scheme)), Some(m)) = (template, metrics) {
            self.note_served(template, scheme, m);
        }
        self.observe_request(started, metrics);
        if !probe {
            self.maybe_snapshot();
        }
        Some(served)
    }

    /// End-of-request observe recording: fold the request's accumulated
    /// timing segments into the per-phase histograms, classify the
    /// outcome, and close the root span. `None` metrics = the request
    /// errored; only the root span is recorded then (failure counters
    /// live in [`RuntimeStats`] and the resilience layer).
    ///
    /// Phase segments record only when the phase actually ran — folding
    /// in zero-length segments for phases a path never touched would
    /// drown the distributions in zeros. The outcome histogram records
    /// `proxy_ms` (measured proxy-side time), not `response_ms`, which
    /// mixes in simulated WAN cost.
    fn observe_request(&self, started: Instant, metrics: Option<&QueryMetrics>) {
        let obs = &self.inner.observe;
        let Some(m) = metrics else {
            obs.span("request", "proxy", started, started.elapsed(), || {
                Some("error".into())
            });
            return;
        };
        let path = path_of(m.outcome);
        if m.check_ms > 0.0 {
            obs.record_phase(ObsPhase::Classify, path, m.check_ms);
        }
        if m.local_ms > 0.0 {
            obs.record_phase(ObsPhase::LocalEval, path, m.local_ms);
        }
        if m.lock_wait_ms > 0.0 {
            obs.record_phase(ObsPhase::LockWait, path, m.lock_wait_ms);
        }
        let class = OutcomeClass::of(m.outcome, m.degraded, m.stale);
        obs.record_outcome(class, m.proxy_ms);
        obs.span("request", "proxy", started, started.elapsed(), || {
            Some(class.label().to_string())
        });
    }

    /// The one uncached forward: the origin's answer to `query`, neither
    /// merged nor cached (unregistered SQL, the no-cache scheme).
    fn forward(&self, query: &Query) -> Result<Served, ProxyError> {
        let timing = Timing::begin();
        let (result, sim_ms) = self.fetch(query, false, PathClass::Miss)?;
        let response = timing.respond(Arc::new(result), Outcome::Forwarded, 0, sim_ms);
        Ok(Served::Rows(response))
    }

    /// A served answer as a response document. A hit finished for a
    /// document sink already is one; rows lend their columnar form's
    /// slab when they carry one (misses under a caching scheme, exact
    /// hits finished for the row sink) and are serialized otherwise.
    fn to_doc(&self, served: Served) -> DocResponse {
        let response = match served {
            Served::Doc(doc) => return doc,
            Served::Rows(response) => response,
        };
        let body = self.serialized(path_of(response.metrics.outcome), || {
            match &response.columnar {
                Some(col) => XmlBody::Doc(col.doc()),
                None => XmlBody::Bytes(response.result.to_xml_string().into_bytes()),
            }
        });
        DocResponse {
            body,
            metrics: response.metrics,
        }
    }

    /// Builds a response body, timed into the observe layer's serialize
    /// phase — the one place that phase is recorded.
    fn serialized(&self, path: PathClass, build: impl FnOnce() -> XmlBody) -> XmlBody {
        let start = Instant::now();
        let body = build();
        let obs = &self.inner.observe;
        obs.record_phase(ObsPhase::Serialize, path, ms_since(start));
        obs.span("serialize", "serve", start, start.elapsed(), || None);
        body
    }

    /// The reactor probe: one shard-lock window and the hit finisher, or
    /// `None` — a miss, a stale or malformed entry, anything that needs
    /// the origin.
    fn probe(&self, key: &BoundKey, scheme: Scheme) -> Option<Served> {
        let mut timing = Timing::begin();
        match self.cache_phase_locked(key, scheme, Sink::Probe, &mut timing) {
            LockedPhase::Hit(hit) if !hit.life.stale => {
                self.finish_hit(key, hit, Sink::Probe, &mut timing).ok()
            }
            _ => None,
        }
    }

    /// The caching schemes' request loop: a cache check on the bound key
    /// (a hit needs neither the flight table nor the concrete query),
    /// then the flight phase, retried while coalescing fails to help.
    fn serve_caching(
        &self,
        key: BoundKey,
        scheme: Scheme,
        sink: Sink,
    ) -> Result<Served, ProxyError> {
        let mut timing = Timing::begin();
        // Passive caching cannot answer a query from a containing
        // entry, so it must not wait on a merely containing flight.
        let allow_contained = scheme != Scheme::Passive;

        if let Phase::Served(served) = self.cache_phase(&key, scheme, sink, &mut timing) {
            return Ok(served);
        }
        let bound = key.complete();

        for _ in 0..MAX_COALESCE_ATTEMPTS {
            match self.inner.flights.join(
                &bound.sql,
                &bound.residual_key,
                &bound.region,
                allow_contained,
            ) {
                Joined::Lead(lease) => {
                    RuntimeStats::add(&self.inner.stats.flights_led, 1);
                    // Re-check under the registered flight: a fetch that
                    // landed between our miss and this join is visible
                    // now, because leaders insert before resolving. The
                    // flight publishes rows, so a hit here is finished
                    // for the row sink.
                    let phase = self.cache_phase(&bound, scheme, Sink::Rows, &mut timing);
                    return self.lead(&bound, scheme, sink, phase, lease, &mut timing);
                }
                Joined::Follow(coalesce, ticket) => {
                    let wait_start = Instant::now();
                    let waited = ticket.wait();
                    self.inner.observe.span(
                        "flight.wait",
                        "flight",
                        wait_start,
                        wait_start.elapsed(),
                        || Some(format!("{coalesce:?}").to_lowercase()),
                    );
                    match (coalesce, waited) {
                        (Coalesce::Exact, Ok(leader)) => {
                            RuntimeStats::add(&self.inner.stats.coalesced_exact, 1);
                            return Ok(Served::Rows(self.adopt(leader, &timing)));
                        }
                        (Coalesce::Contained, Ok(_)) => {
                            if let Phase::Served(mut served) =
                                self.cache_phase(&bound, scheme, sink, &mut timing)
                            {
                                RuntimeStats::add(&self.inner.stats.coalesced_contained, 1);
                                served.metrics_mut().coalesced = true;
                                return Ok(served);
                            }
                            // The flight landed but didn't leave a usable
                            // entry (truncated or evicted result): retry.
                        }
                        // The leader's failure is this request's failure: a
                        // fresh flight here would turn one outage into a
                        // retry storm. Re-check the cache (the entry may
                        // have landed through another group), then try
                        // degraded serving.
                        (_, Err(error)) => {
                            if let Phase::Served(served) =
                                self.cache_phase(&bound, scheme, sink, &mut timing)
                            {
                                return Ok(served);
                            }
                            return self
                                .degraded_phase(&bound, scheme, sink, &error, &mut timing)
                                .ok_or(error);
                        }
                    }
                }
            }
        }

        // Coalescing kept failing; serve uncoalesced rather than loop.
        match self.cache_phase(&bound, scheme, sink, &mut timing) {
            Phase::Served(served) => Ok(served),
            Phase::Origin(plan) => match self.execute_plan(&bound, scheme, *plan, &mut timing) {
                Ok(response) => Ok(Served::Rows(response)),
                Err(error) => self
                    .degraded_phase(&bound, scheme, sink, &error, &mut timing)
                    .ok_or(error),
            },
        }
    }

    /// The leader's answer — the re-check's hit, or its origin phase —
    /// and its flight: on success the flight resolves with the response;
    /// on failure the error is published to every follower exactly once
    /// and the leader falls back to degraded serving for its own client.
    fn lead(
        &self,
        bound: &BoundQuery,
        scheme: Scheme,
        sink: Sink,
        phase: Phase,
        lease: FlightLease<'_>,
        timing: &mut Timing,
    ) -> Result<Served, ProxyError> {
        let lead_start = Instant::now();
        let led = match phase {
            Phase::Served(served) => Ok(served.into_rows()),
            Phase::Origin(plan) => self.execute_plan(bound, scheme, *plan, timing),
        };
        let obs = &self.inner.observe;
        obs.span(
            "flight.lead",
            "flight",
            lead_start,
            lead_start.elapsed(),
            || {
                Some(match &led {
                    Ok(response) => format!("{:?}", response.metrics.outcome),
                    Err(_) => "failed".into(),
                })
            },
        );
        match led {
            Ok(response) => {
                lease.resolve(response.clone());
                Ok(Served::Rows(response))
            }
            Err(error) => {
                lease.fail(error.clone());
                self.degraded_phase(bound, scheme, sink, &error, timing)
                    .ok_or(error)
            }
        }
    }

    /// One pass over the shard, then the off-lock hit finisher: classify
    /// and either answer from the cache or plan the origin work.
    fn cache_phase(
        &self,
        bound: &BoundKey,
        scheme: Scheme,
        sink: Sink,
        timing: &mut Timing,
    ) -> Phase {
        let plan = match self.cache_phase_locked(bound, scheme, sink, timing) {
            LockedPhase::Hit(hit) => match self.finish_hit(bound, hit, sink, timing) {
                Ok(served) => return Phase::Served(served),
                Err(plan) => plan,
            },
            LockedPhase::Origin(plan) => plan,
        };
        if plan.local_fallback {
            self.note_fallback(timing);
        }
        Phase::Origin(plan)
    }

    /// Counts a request sent to the origin because a cached form could
    /// not be evaluated locally — once per request, however many cache
    /// passes meet the entry.
    fn note_fallback(&self, timing: &mut Timing) {
        if !std::mem::replace(&mut timing.fell_back, true) {
            RuntimeStats::add(&self.inner.stats.local_eval_fallbacks, 1);
        }
    }

    /// The shard-lock window: exact lookup, classification, and `Arc`
    /// snapshots of whatever entries the answer needs. Never fetches,
    /// never scans tuples — hit selection and overlap probe filtering
    /// both run after the lock is released. The probe sink serves hits
    /// only, so it declines the merge relationships before any merge
    /// plan is built.
    fn cache_phase_locked(
        &self,
        bound: &BoundKey,
        scheme: Scheme,
        sink: Sink,
        timing: &mut Timing,
    ) -> LockedPhase {
        let (mut store, wait) = self.inner.store.lock(&bound.residual_key);
        self.note_lock_wait(timing, wait);
        let config = &self.inner.config;
        if self.inner.lifecycle_active {
            // Expiry is lazy: entries die when next probed, not on a
            // timer, so retire this probe's dead candidates first.
            store.sweep_dead(&bound.residual_key, &bound.region);
        }

        let check_start = Instant::now();
        // An exact entry past its serveable windows (Grace on the
        // healthy path) falls through to classification, which applies
        // the same freshness grade to every candidate.
        let status = match store.lookup_exact(&bound.sql) {
            Some(id) if store.freshness(id).is_some_and(|f| f.serveable(false)) => {
                QueryStatus::ExactMatch(id)
            }
            // Passive caching only ever matches exact text.
            _ if scheme == Scheme::Passive => QueryStatus::Disjoint,
            _ => classify(&store, bound),
        };
        timing.check_ms += ms_since(check_start);

        match status {
            QueryStatus::ExactMatch(id) | QueryStatus::ContainedBy(id) => {
                let exact = matches!(status, QueryStatus::ExactMatch(_));
                let life = self.life_of(&store, id);
                self.hit_plan(&mut store, bound, id, exact, life)
            }

            _ if sink == Sink::Probe => LockedPhase::Origin(OriginPlan::forward(Vec::new())),

            QueryStatus::RegionContainment(ids) if scheme.handles_region_containment() => {
                self.merge_plan(
                    &mut store, bound, ids, /*probe_filters=*/ false, timing,
                )
            }

            QueryStatus::Overlapping(ids)
                if scheme.handles_overlap() && coverage_worthwhile(config, &store, bound, &ids) =>
            {
                self.merge_plan(&mut store, bound, ids, /*probe_filters=*/ true, timing)
            }

            QueryStatus::RegionContainment(_)
            | QueryStatus::Overlapping(_)
            | QueryStatus::Disjoint => LockedPhase::Origin(OriginPlan::forward(Vec::new())),
        }
    }

    /// The plan for a hit on entry `id`, within the held lock: `Arc`
    /// snapshots of a resident entry (touching its recency), or a demoted
    /// entry's slab segment pinned (a zero-copy mmap slice) and framed by
    /// its resident skeleton. A segment that is unreachable, or not the
    /// length the skeleton's spans index, is quarantined and the request
    /// forwards — no document over it ever exists. A contained hit on an
    /// entry whose form cannot select the query region ([`maps_coords`])
    /// forwards on a fall-back plan.
    fn hit_plan(
        &self,
        store: &mut CacheStore,
        bound: &BoundKey,
        id: u64,
        exact: bool,
        life: ServeLife,
    ) -> LockedPhase {
        let Some(entry) = store.get(id) else {
            return LockedPhase::Origin(OriginPlan::forward(Vec::new()));
        };
        if !exact && !maps_coords(entry, bound) {
            return LockedPhase::Origin(OriginPlan::forward_fallback());
        }
        let bytes = entry.bytes;
        let rows = match &entry.body {
            Body::Ram(form) => HitRows::Ram(Arc::clone(form)),
            Body::Disk { skeleton, .. } => {
                let (skeleton, residual_key) =
                    (Arc::clone(skeleton), Arc::clone(&entry.residual_key));
                let pinned = store.disk_slice(id).map(Arc::new).and_then(|slice| {
                    let doc = skeleton.doc().over(Arc::clone(&slice) as _)?;
                    Some((slice, doc))
                });
                let Some((slice, doc)) = pinned else {
                    // Read-repair: quarantine the unreadable segment; the
                    // forward plan re-fetches from origin and its insert
                    // rewrites the entry.
                    if store.quarantine_corrupt_demoted(id).is_some() {
                        RuntimeStats::add(&self.inner.stats.read_repairs, 1);
                    }
                    return LockedPhase::Origin(OriginPlan::forward(Vec::new()));
                };
                let disk = DiskRows {
                    id,
                    residual_key,
                    slice,
                    doc,
                };
                HitRows::Disk(Box::new(disk))
            }
        };
        LockedPhase::Hit(HitPlan {
            rows,
            exact,
            sim_ms: self.inner.config.cost.cache_read_ms(bytes),
            life,
        })
    }

    /// The one hit finisher, off-lock, for every sink: select the hit's
    /// rows — all of them, or the query region's through the micro-index
    /// — and hand them to the sink. A document sink gets the selected
    /// ranges of the entry's slab (a disk hit's straight from the mmap,
    /// kept alive by the document across a compaction's rename too); the
    /// row sink gets tuples, which a resident form materializes from its
    /// slab. Byte for byte the same answer either way.
    ///
    /// `Err` is the plan to forward instead: a fall-back plan for a
    /// resident slab that does not parse, a plain forward for a disk
    /// segment that fails to parse.
    fn finish_hit(
        &self,
        bound: &BoundKey,
        hit: HitPlan,
        sink: Sink,
        timing: &mut Timing,
    ) -> Result<Served, Box<OriginPlan>> {
        let HitPlan {
            rows,
            exact,
            sim_ms,
            life,
        } = hit;
        let disk_hit = matches!(rows, HitRows::Disk(_));
        let rows = match rows {
            HitRows::Disk(disk) if sink == Sink::Rows => self.promote_inline(&disk, timing)?,
            rows => rows,
        };
        let start = Instant::now();
        let (mut served, rows, stats) = match rows {
            HitRows::Disk(disk) => {
                let (doc, rows, stats) = if exact {
                    (
                        disk.doc.clone(),
                        disk.doc.form().len(),
                        SelectStats::default(),
                    )
                } else {
                    let selected = select_rows(bound, disk.doc.form(), |ids| disk.doc.of_rows(ids));
                    timing.local_ms += ms_since(start);
                    selected
                };
                let obs = &self.inner.observe;
                obs.record_phase(ObsPhase::DiskServe, PathClass::Hit, ms_since(start));
                obs.span("disk.serve", "serve", start, start.elapsed(), || {
                    Some(if exact { "exact" } else { "contained" }.into())
                });
                RuntimeStats::add(&self.inner.stats.disk_hits, 1);
                // Promotion (a slab parse) runs on a worker; the probe
                // must not spawn threads, so it serves from disk again
                // until a blocking request promotes.
                if sink == Sink::Doc {
                    self.spawn_promotion(&disk);
                }
                (Served::doc(XmlBody::Doc(doc)), rows, stats)
            }
            HitRows::Ram(form) => {
                let served = self.ram_hit(bound, form, exact, sink);
                if !exact {
                    timing.local_ms += ms_since(start);
                }
                served.ok_or_else(OriginPlan::forward_fallback)?
            }
            HitRows::Parsed { result, form } => {
                let served = tuples_hit(bound, result, form, exact);
                if !exact {
                    timing.local_ms += ms_since(start);
                }
                served
            }
        };
        let outcome = if exact {
            Outcome::Exact
        } else {
            Outcome::Contained
        };
        let metrics = served.metrics_mut();
        *metrics = timing.metrics(rows, outcome, rows, sim_ms);
        metrics.rows_scanned = stats.rows_scanned;
        metrics.rows_pruned = stats.rows_pruned();
        metrics.disk_hit = disk_hit;
        self.apply_life(metrics, &life, true);
        Ok(served)
    }

    /// A resident hit's rows for `sink`: every row (exact) or the query
    /// region's (contained). A document sink is lent ranges of the
    /// form's slab; the row sink gets tuples materialized from it, on a
    /// contained hit only the selected rows. `None`: a slab that does
    /// not parse.
    fn ram_hit(
        &self,
        bound: &BoundKey,
        form: Arc<ColumnarRows>,
        exact: bool,
        sink: Sink,
    ) -> Option<(Served, usize, SelectStats)> {
        if exact {
            let rows = form.len();
            let served = match sink {
                Sink::Rows => Served::rows(Arc::new(every_row(&form)?), Some(form)),
                Sink::Doc | Sink::Probe => {
                    Served::doc(self.serialized(PathClass::Hit, || XmlBody::Doc(form.doc())))
                }
            };
            return Some((served, rows, SelectStats::default()));
        }
        let (served, rows, stats) = select_rows(bound, &form, |ids| match sink {
            Sink::Rows => form.rows_of(ids).map(|rs| Served::rows(Arc::new(rs), None)),
            Sink::Doc | Sink::Probe => {
                Some(Served::doc(self.serialized(PathClass::Hit, || {
                    XmlBody::Doc(form.doc_of(ids))
                })))
            }
        });
        Some((served?, rows, stats))
    }

    /// A disk hit for the row sink. The slab payload must be parsed back
    /// into tuples anyway, and that parse *is* the promotion work — so
    /// the entry is promoted inline (relock, swap in the rebuilt form)
    /// instead of on a worker, and the hit is finished over the rows
    /// just parsed. A segment that fails to parse is quarantined and the
    /// request forwards; the fetch's insert rewrites the entry
    /// (read-repair).
    fn promote_inline(
        &self,
        disk: &DiskRows,
        timing: &mut Timing,
    ) -> Result<HitRows, Box<OriginPlan>> {
        let start = Instant::now();
        let Some((result, form)) = parse_demoted(&disk.slice) else {
            let (mut store, wait) = self.inner.store.lock(&disk.residual_key);
            self.note_lock_wait(timing, wait);
            if store.quarantine_corrupt_demoted(disk.id).is_some() {
                RuntimeStats::add(&self.inner.stats.read_repairs, 1);
            }
            return Err(OriginPlan::forward(Vec::new()));
        };
        timing.local_ms += ms_since(start);
        self.inner
            .observe
            .record_phase(ObsPhase::DiskServe, PathClass::Hit, ms_since(start));
        {
            let (mut store, wait) = self.inner.store.lock(&disk.residual_key);
            self.note_lock_wait(timing, wait);
            store.promote(disk.id, Arc::clone(&form));
        }
        RuntimeStats::add(&self.inner.stats.disk_hits, 1);
        Ok(HitRows::Parsed { result, form })
    }

    /// Cache-only answering after a failed fetch (this request's own or
    /// a followed leader's); `None` surfaces the error. Only a transient
    /// failure is answered, and only when the cache covers any of the
    /// query.
    ///
    /// Re-classifies the query against the cache, ignoring the gates
    /// the full path applies (remainder support, `TOP`, the coverage
    /// threshold) — origin-side completion is off the table, so any
    /// sound cached subset beats a refusal:
    ///
    /// * exact / contained: complete answers, finished like any hit
    ///   (these arise when another group's fetch landed the entry
    ///   meanwhile, or when an entry is in its stale-if-error window);
    /// * region containment: the union of the subsumed cached entries,
    ///   a sound subset of the full answer, marked `degraded`;
    /// * overlap: the cached entries filtered to the query region (the
    ///   cached intersection), likewise sound, marked `degraded`.
    ///
    /// Demoted entries, and forms that cannot select the query region,
    /// are skipped best-effort rather than failing the whole answer.
    /// Degraded responses are **never** inserted into the cache. Returns
    /// `None` when the cache cannot contribute (disjoint, passive
    /// scheme, nothing usable).
    fn degraded_phase(
        &self,
        bound: &BoundKey,
        scheme: Scheme,
        sink: Sink,
        error: &ProxyError,
        timing: &mut Timing,
    ) -> Option<Served> {
        let transient = matches!(error, ProxyError::Origin(e) if e.is_transient());
        // Passive caching cannot reason spatially; its only possible
        // hit (exact text) was already checked before the fetch.
        if !transient || !scheme.caches() || scheme == Scheme::Passive {
            return None;
        }

        let (mut store, wait) = self.inner.store.lock(&bound.residual_key);
        self.note_lock_wait(timing, wait);
        let check_start = Instant::now();
        // The error path's privilege: entries in the stale-if-error
        // Grace window are admitted — an outage extends expired entries
        // instead of abandoning them. No revalidation is spawned here
        // (the origin is known down).
        let status = match store.lookup_exact(&bound.sql) {
            Some(id) if store.freshness(id).is_some_and(|f| f.serveable(true)) => {
                QueryStatus::ExactMatch(id)
            }
            _ => classify_graded(&store, bound, true),
        };
        timing.check_ms += ms_since(check_start);

        let (ids, filtered, outcome) = match status {
            QueryStatus::ExactMatch(id) | QueryStatus::ContainedBy(id) => {
                let exact = matches!(status, QueryStatus::ExactMatch(_));
                let life = self.error_life_of(&store, id);
                let plan = match self.hit_plan(&mut store, bound, id, exact, life) {
                    LockedPhase::Hit(hit) => {
                        drop(store);
                        match self.finish_hit(bound, hit, sink, timing) {
                            Ok(served) => return Some(served),
                            Err(plan) => plan,
                        }
                    }
                    LockedPhase::Origin(plan) => plan,
                };
                // Nothing else covers the query.
                if plan.local_fallback {
                    self.note_fallback(timing);
                }
                return None;
            }
            QueryStatus::RegionContainment(ids) if scheme.handles_region_containment() => {
                (ids, false, Outcome::RegionContainment)
            }
            QueryStatus::Overlapping(ids) if scheme.handles_overlap() => {
                (ids, true, Outcome::Overlap)
            }
            _ => return None,
        };

        // Snapshot the resident, well-formed contributing entries (a
        // demoted entry's rows are on disk, and a degraded answer is
        // best-effort anyway).
        let parts: Vec<ProbePart> = ids
            .iter()
            .filter_map(|&id| {
                let entry = store.peek(id)?;
                self.probe_part(entry, bound, filtered, self.error_life_of(&store, id))
            })
            .collect();
        drop(store);

        let local_start = Instant::now();
        let merged = merge_parts(bound, &parts, false).map(|mut merged| {
            if let Some(n) = bound.reg.top() {
                merged.result.rows.truncate(n as usize);
            }
            merged
        });
        timing.local_ms += ms_since(local_start);
        let merged = merged?;

        let result = Arc::new(merged.result);
        let rows = result.len();
        self.inner.stats.note_degraded(rows);
        let probe_sim_ms = parts.iter().map(|p| p.sim_ms).sum();
        let mut response = timing.respond(result, outcome, rows, probe_sim_ms);
        response.metrics.degraded = true;
        response.metrics.rows_scanned = merged.rows_scanned;
        response.metrics.rows_pruned = merged.rows_pruned;
        self.apply_life(&mut response.metrics, &merged.life, false);
        Some(Served::Rows(response))
    }

    /// Snapshots a resident entry as a merge part, under the held lock:
    /// its shared (not deep-copied) form, whether it is filtered to the
    /// query region, and the simulated cost of reading it. `None` when
    /// the entry is demoted, or when a part to `filter` has a form that
    /// cannot select the query region (see [`maps_coords`]).
    fn probe_part(
        &self,
        entry: &Entry,
        bound: &BoundKey,
        filter: bool,
        life: ServeLife,
    ) -> Option<ProbePart> {
        let Body::Ram(form) = &entry.body else {
            return None;
        };
        if filter && !maps_coords(entry, bound) {
            return None;
        }
        Some(ProbePart {
            form: Arc::clone(form),
            filter,
            sim_ms: self.inner.config.cost.cache_read_ms(entry.bytes),
            life,
        })
    }

    /// Plans the merge paths (region containment / overlap): probe the
    /// involved entries, fetch a remainder for the uncovered part, merge,
    /// cache the complete merged result and, under region containment,
    /// compact away the subsumed entries. The probed entries are
    /// snapshotted under the held lock so both the fetch *and* the probe
    /// filtering run lock-free, in [`ProxyHandle::execute_plan`].
    fn merge_plan(
        &self,
        store: &mut CacheStore,
        bound: &BoundKey,
        ids: Vec<u64>,
        probe_filters: bool,
        timing: &mut Timing,
    ) -> LockedPhase {
        let config = &self.inner.config;
        // Remainder queries need server support and a TOP-free query.
        if !self.inner.origin.supports_remainder() || bound.reg.top().is_some() {
            // Region containment: the forwarded result still covers the
            // subsumed entries, so compaction remains valid.
            let compact_ids = if probe_filters { Vec::new() } else { ids };
            return LockedPhase::Origin(OriginPlan::forward(compact_ids));
        }

        // Demoted entries never join merges: probing one would drag a
        // slab parse into the lock window. They are excluded here —
        // before the remainder's exclude-regions are computed, so the
        // fetch covers their regions again — but under region
        // containment they are still subsumed and compact away.
        let (mut ids, demoted_ids): (Vec<u64>, Vec<u64>) = ids
            .into_iter()
            .partition(|id| store.peek(*id).is_some_and(Entry::is_resident));
        if ids.is_empty() {
            let compact_ids = if probe_filters {
                Vec::new()
            } else {
                demoted_ids
            };
            return LockedPhase::Origin(OriginPlan::forward(compact_ids));
        }

        // Bound the fan-in; prefer the largest cached parts.
        ids.sort_by_key(|id| std::cmp::Reverse(store.peek(*id).map_or(0, |e| e.bytes)));
        ids.truncate(config.max_merge_entries);

        // Stale parts may still contribute (the merged result is
        // re-anchored by the fresh remainder fetch, and region
        // containment compacts them away). Each part carries its own
        // lifecycle facts; `execute_plan` folds in only the parts whose
        // rows actually reach the served answer, so a stale-but-empty
        // probe can never flag (or age) the response. Filtering is
        // deferred to `execute_plan`, outside this lock window.
        let local_start = Instant::now();
        let mut probe_parts: Vec<ProbePart> = Vec::with_capacity(ids.len());
        for &id in &ids {
            let entry = store.peek(id).expect("classify returned live ids");
            match self.probe_part(entry, bound, probe_filters, self.life_of(store, id)) {
                Some(part) => probe_parts.push(part),
                None => return LockedPhase::Origin(OriginPlan::forward_fallback()),
            }
        }

        // Remainder phase setup (the fetch itself happens off-lock).
        let exclude: Vec<Region> = ids
            .iter()
            .map(|id| store.peek(*id).expect("live id").region.clone())
            .collect();
        timing.local_ms += ms_since(local_start);

        let (compact_ids, outcome) = if probe_filters {
            (Vec::new(), Outcome::Overlap)
        } else {
            ids.extend(demoted_ids);
            (ids, Outcome::RegionContainment)
        };
        LockedPhase::Origin(Box::new(OriginPlan {
            exclude,
            probe_parts,
            compact_ids,
            outcome,
            local_fallback: false,
            life: ServeLife::default(),
        }))
    }

    /// The leader's origin phase, entirely off-lock until the final
    /// insert: filter the snapshotted probes, fetch, merge, then one
    /// more shard-lock window to insert and compact.
    fn execute_plan(
        &self,
        bound: &BoundQuery,
        scheme: Scheme,
        mut plan: OriginPlan,
        timing: &mut Timing,
    ) -> Result<ProxyResponse, ProxyError> {
        let (mut rows_scanned, mut rows_pruned) = (0, 0);
        let mut cached_part: Option<ResultSet> = None;
        if !plan.probe_parts.is_empty() {
            let local_start = Instant::now();
            match merge_parts(bound, &plan.probe_parts, true) {
                Some(merged) => {
                    rows_scanned = merged.rows_scanned;
                    rows_pruned = merged.rows_pruned;
                    // Only the entries whose rows reached the merged
                    // answer shape its lifecycle facts (staleness flag
                    // and age).
                    plan.life = merged.life;
                    cached_part = Some(merged.result);
                }
                // A probe part's slab did not parse: forward the
                // original query.
                None => {
                    self.note_fallback(timing);
                    plan = *OriginPlan::forward_fallback();
                }
            }
            timing.local_ms += ms_since(local_start);
        }
        let probe_sim_ms: f64 = plan.probe_parts.iter().map(|p| p.sim_ms).sum();

        let exclude: Vec<&Region> = plan.exclude.iter().collect();
        let (fetched, origin_sim_ms) = match remainder_query(bound, &exclude) {
            Some(remainder) => self.fetch(&remainder, true, PathClass::Miss)?,
            None => self.fetch(&bound.query, false, PathClass::Miss)?,
        };

        let (result, rows_from_cache, truncated) = match cached_part {
            Some(part) => {
                let merge_start = Instant::now();
                let merged = merge_results(&bound.reg.key_column, &[&part, &fetched]);
                timing.local_ms += ms_since(merge_start);
                (merged, part.len(), false)
            }
            None => {
                let truncated = bound.reg.top().is_some_and(|n| fetched.len() as u64 >= n);
                (fetched, 0, truncated)
            }
        };
        let result = Arc::new(result);

        // The expensive half of an insert — the columnar form (row
        // slab, micro-index), whose slab also gives the accounted size
        // and the reply body — is prebuilt here, off-lock, so the
        // locked window below is just map updates. Building it under
        // the shard lock made every miss landing serialize the shard's
        // concurrent hits: the 8-thread hit p99 sat three orders of
        // magnitude above single-thread. A result that builds no form is
        // served but not cached.
        let prebuilt = scheme
            .caches()
            .then(|| {
                let build_start = Instant::now();
                let prebuilt = prebuild(bound, &result);
                timing.local_ms += ms_since(build_start);
                prebuilt
            })
            .flatten();

        {
            let (mut store, wait) = self.inner.store.lock(&bound.residual_key);
            self.note_lock_wait(timing, wait);
            let inserted = prebuilt.as_ref().and_then(|(bytes, form)| {
                store.insert_prebuilt(
                    &bound.residual_key,
                    bound.region.clone(),
                    Arc::clone(form),
                    truncated,
                    &bound.sql,
                    *bytes,
                )
            });
            if let Some(id) = inserted {
                // Seed the entry's measured refetch cost for the
                // cost-aware replacement policy: what this fetch just
                // charged is what re-acquiring the entry would cost.
                store.note_refetch_cost(id, (origin_sim_ms * 1000.0) as u64);
                // The subsumed entries go only once their container has
                // landed. Some ids may have been evicted while we
                // fetched; compact skips missing entries, and ids are
                // never reused.
                store.compact(&plan.compact_ids);
            }
        }

        let sim_ms = origin_sim_ms + probe_sim_ms;
        let mut response = timing.respond(result, plan.outcome, rows_from_cache, sim_ms);
        response.columnar = prebuilt.map(|(_, form)| form);
        response.metrics.rows_scanned = rows_scanned;
        response.metrics.rows_pruned = rows_pruned;
        response.metrics.local_fallback = plan.local_fallback;
        // Stale probe parts flag the merged answer; no revalidation —
        // the remainder fetch just refreshed this region's coverage.
        self.apply_life(&mut response.metrics, &plan.life, false);
        Ok(response)
    }

    /// Builds an exact follower's response from the leader's. The
    /// simulated cost stays the leader's (the follower really did wait
    /// out that fetch); the measured time is the follower's own.
    fn adopt(&self, leader: ProxyResponse, timing: &Timing) -> ProxyResponse {
        let mut metrics = leader.metrics;
        // A degraded leader response stays what it is — relabelling a
        // partial answer as an exact hit would hide its partiality.
        if !metrics.degraded {
            metrics.outcome = Outcome::Exact;
        }
        metrics.rows_from_cache = metrics.rows_total;
        metrics.coalesced = true;
        metrics.check_ms = timing.check_ms;
        metrics.local_ms = 0.0;
        metrics.lock_wait_ms = timing.lock_wait_ms;
        metrics.proxy_ms = ms_since(timing.start);
        metrics.response_ms = metrics.sim_ms + metrics.proxy_ms;
        metrics.rows_scanned = 0;
        metrics.rows_pruned = 0;
        metrics.local_fallback = false;
        ProxyResponse {
            result: leader.result,
            columnar: leader.columnar,
            metrics,
        }
    }

    /// One origin interaction: execute + charge the cost model. A
    /// successful fetch also picks up the origin's advertised
    /// data-release epoch, bumping ours when the site moved ahead.
    fn fetch(
        &self,
        query: &Query,
        is_remainder: bool,
        path: PathClass,
    ) -> Result<(ResultSet, f64), ProxyError> {
        let fetch_start = Instant::now();
        let executed = self.inner.origin.execute(query);
        let elapsed = fetch_start.elapsed();
        let obs = &self.inner.observe;
        obs.record_phase(ObsPhase::OriginFetch, path, elapsed.as_secs_f64() * 1e3);
        let failed = executed.is_err();
        obs.span("origin.fetch", "origin", fetch_start, elapsed, || {
            Some(format!(
                "{}{}",
                if is_remainder { "remainder" } else { "forward" },
                if failed { " failed" } else { "" }
            ))
        });
        let outcome = executed?;
        if let Some(epoch) = self.inner.origin.advertised_epoch() {
            // No-op (and lock-free) unless the epoch actually advances.
            self.set_epoch(epoch);
        }
        let sim_ms = self
            .inner
            .config
            .cost
            .origin_ms(&outcome.stats, is_remainder);
        Ok((outcome.result, sim_ms))
    }

    /// Lifecycle facts about entry `id`, read under the held shard lock.
    /// Stale (or Grace, on the error path) entries carry their exact SQL
    /// for a background refresh.
    fn life_of(&self, store: &CacheStore, id: u64) -> ServeLife {
        if !self.inner.lifecycle_active {
            return ServeLife::default();
        }
        let age_ms = store.entry_age_ms(id);
        match store.freshness(id) {
            Some(Freshness::Fresh) | None => ServeLife {
                stale: false,
                age_ms,
                revalidate: None,
            },
            Some(_) => ServeLife {
                stale: true,
                age_ms,
                revalidate: store.peek(id).map(|e| e.exact_sql.to_string()),
            },
        }
    }

    /// [`Self::life_of`] for the degraded path: same staleness facts,
    /// but never a revalidation target — the origin is known down.
    fn error_life_of(&self, store: &CacheStore, id: u64) -> ServeLife {
        let mut life = self.life_of(store, id);
        life.revalidate = None;
        life
    }

    /// Folds a response's lifecycle facts into its metrics; when
    /// `revalidate` is allowed and the serving entry was stale, spawns
    /// the background refresh (stale-while-revalidate).
    fn apply_life(&self, metrics: &mut QueryMetrics, life: &ServeLife, revalidate: bool) {
        // `life` already describes exactly the entries whose rows were
        // served (the merge paths absorb per contributing part), and a
        // response passes through `apply_life` at most once — so this
        // is a plain assignment. The old max-fold let the age of an
        // unrelated probed entry leak into the served answer.
        metrics.entry_age_ms = life.age_ms;
        if life.stale {
            metrics.stale = true;
            RuntimeStats::add(&self.inner.stats.stale_hits, 1);
            if revalidate {
                if let Some(sql) = &life.revalidate {
                    self.spawn_revalidation(sql.clone());
                }
            }
        }
    }

    /// Spawns the worker that parses a demoted entry's slab payload
    /// back into a resident entry; a second disk hit on the same entry
    /// while the first promotion is in flight is a no-op.
    fn spawn_promotion(&self, disk: &DiskRows) {
        let (id, residual_key, slice) = (
            disk.id,
            Arc::clone(&disk.residual_key),
            Arc::clone(&disk.slice),
        );
        self.spawn_once(
            |r| &r.promoting,
            id,
            "fp-promote",
            move |h| h.promote_demoted(id, &residual_key, slice),
        );
    }

    /// The promotion worker body: parse the pinned slab slice (XML →
    /// tuples, rebuild the columnar form, drop the tuples) entirely
    /// off-lock, then one short lock window to swap the form back into
    /// RAM. A payload that fails to parse drops the demoted entry and
    /// counts the corruption — the next request re-fetches from the
    /// origin.
    fn promote_demoted(&self, id: u64, residual_key: &str, slice: Arc<SlabSlice>) {
        let _trace = self.inner.observe.begin_trace();
        let start = Instant::now();
        match parse_demoted(&slice) {
            Some((_, form)) => {
                let (mut store, _) = self.inner.store.lock(residual_key);
                store.promote(id, form);
            }
            None => {
                // Read-repair: no client request is waiting on this
                // background promotion, so the rewrite must be spawned
                // explicitly — quarantine, then re-fetch the entry's
                // own SQL through the resilient origin path and
                // reinsert (the revalidation machinery is exactly that
                // fetch-and-replace).
                let repair = {
                    let (mut store, _) = self.inner.store.lock(residual_key);
                    store.quarantine_corrupt_demoted(id)
                };
                if let Some(sql) = repair {
                    RuntimeStats::add(&self.inner.stats.read_repairs, 1);
                    self.spawn_revalidation(sql.to_string());
                }
            }
        }
        self.inner
            .observe
            .span("promote", "lifecycle", start, start.elapsed(), || None);
    }

    /// Spawns the background refresh of `sql`; a second stale hit on the
    /// same key while the first refresh is in flight is a no-op —
    /// exactly one refresh per expired key.
    fn spawn_revalidation(&self, sql: String) {
        let key = sql.clone();
        self.spawn_once(
            |r| &r.revalidating,
            key,
            "fp-revalidate",
            move |h| h.revalidate(sql),
        );
    }

    /// Spawns `task` on a background thread named `name`, once per `key`:
    /// while a task for `key` is in flight (in the dedup set `inflight`
    /// picks out), another spawn for it is a no-op. The key is released
    /// when the task ends, or at once if the thread cannot be spawned,
    /// so a later request can retry.
    fn spawn_once<K: Eq + Hash + Clone + Send + 'static>(
        &self,
        inflight: fn(&Runtime) -> &Mutex<HashSet<K>>,
        key: K,
        name: &str,
        task: impl FnOnce(&ProxyHandle) + Send + 'static,
    ) {
        if !locked(inflight(&self.inner)).insert(key.clone()) {
            return;
        }
        let handle = self.clone();
        let released = key.clone();
        let spawned = std::thread::Builder::new()
            .name(name.into())
            .spawn(move || {
                task(&handle);
                locked(inflight(&handle.inner)).remove(&released);
            });
        match spawned {
            Ok(thread) => self.track_background(thread),
            Err(_) => {
                locked(inflight(&self.inner)).remove(&key);
            }
        }
    }

    /// Keeps a spawned background thread for
    /// [`ProxyHandle::quiesce_revalidations`], first dropping the
    /// handles of threads that already finished, so a long-running
    /// server holds one handle per *live* task, not one per task ever
    /// spawned.
    fn track_background(&self, thread: JoinHandle<()>) {
        let mut threads = locked(&self.inner.reval_threads);
        threads.retain(|t| !t.is_finished());
        threads.push(thread);
    }

    /// The background refresh body: re-resolve the entry's own SQL,
    /// skip if someone already refreshed it, fetch on the resilient
    /// origin path, and replace the entry on success. A failed fetch
    /// leaves the stale entry in place — that is what stale-if-error
    /// serves during the outage.
    fn revalidate(&self, sql: String) {
        // Background threads get their own sampled trace: the client
        // request that spawned this refresh already returned.
        let _trace = self.inner.observe.begin_trace();
        let reval_start = Instant::now();
        if let Some(Ok(bound)) = self.inner.manager.resolve_sql(&sql) {
            let already_fresh = {
                let (store, _) = self.inner.store.lock(&bound.residual_key);
                store
                    .lookup_exact(&bound.sql)
                    .and_then(|id| store.freshness(id))
                    == Some(Freshness::Fresh)
            };
            if !already_fresh {
                RuntimeStats::add(&self.inner.stats.revalidations, 1);
                if let Ok((result, _sim_ms)) =
                    self.fetch(&bound.query, false, PathClass::Background)
                {
                    let truncated = bound.reg.top().is_some_and(|n| result.len() as u64 >= n);
                    // Prebuild off-lock, like the request path's insert.
                    if let Some((bytes, form)) = prebuild(&bound, &result) {
                        let (mut store, _) = self.inner.store.lock(&bound.residual_key);
                        store.insert_prebuilt(
                            &bound.residual_key,
                            bound.region.clone(),
                            form,
                            truncated,
                            &bound.sql,
                            bytes,
                        );
                    }
                }
            }
        }
        self.inner.observe.span(
            "revalidate",
            "lifecycle",
            reval_start,
            reval_start.elapsed(),
            || None,
        );
    }

    fn note_lock_wait(&self, timing: &mut Timing, wait: std::time::Duration) {
        self.inner
            .stats
            .note_lock_wait(u64::try_from(wait.as_nanos()).unwrap_or(u64::MAX));
        timing.lock_wait_ms += wait.as_secs_f64() * 1000.0;
    }

    /// End-of-request `.fpmeta` check: when the tier has a metadata
    /// interval and the virtual-clock schedule is due, write the shards
    /// that changed. `try_lock` keeps concurrent requests from queueing
    /// behind one writer; write errors are swallowed (a failed pass must
    /// never fail a query — the previous `.fpmeta` stays on disk).
    fn maybe_snapshot(&self) {
        let Some(interval) = self
            .inner
            .config
            .tier
            .as_ref()
            .and_then(|t| t.meta_interval)
        else {
            return;
        };
        let Some(Ok(mut s)) = self.inner.snap.as_ref().map(Mutex::try_lock) else {
            return;
        };
        let now = self.inner.clock.now();
        if now < s.next_due {
            return;
        }
        s.next_due = now + interval;
        self.write_tier_metas(&mut s.written_gens);
    }

    /// Forces a `.fpmeta` pass now (shutdown hooks, tests). Returns how
    /// many shard files were written; unchanged shards are skipped, and
    /// a proxy without a tier writes nothing.
    ///
    /// # Errors
    /// Never fails today: a shard whose write errors (ENOSPC, EIO, a
    /// failed fsync) is counted (`snapshot_io_errors`), left dirty so
    /// the next pass retries it, and skipped — a failed pass must never
    /// poison the serving path. The `Result` stays for callers that
    /// match on it. Each file is staged, fsynced and renamed, so a
    /// partially completed pass leaves every shard's file valid.
    pub fn snapshot_now(&self) -> io::Result<usize> {
        let Some(sched) = &self.inner.snap else {
            return Ok(0);
        };
        let mut s = locked(sched);
        Ok(self.write_tier_metas(&mut s.written_gens))
    }

    /// One `.fpmeta` pass over the dirty shards. Each shard's records
    /// are encoded under its lock and written after the lock is
    /// released. Write errors never escape: the shard stays dirty (its
    /// previous file stays on disk, so at worst a restart applies older
    /// metadata) and the error is counted.
    fn write_tier_metas(&self, written_gens: &mut [u64]) -> usize {
        let pass_start = Instant::now();
        let mut written = 0;
        for (i, written_gen) in written_gens.iter_mut().enumerate() {
            let (generation, meta) = {
                let mut store = self.inner.store.lock_shard(i);
                let generation = store.generation();
                if generation == *written_gen {
                    continue;
                }
                match store.tier_meta() {
                    Some(meta) => (generation, meta),
                    None => continue, // this shard's tier failed to open
                }
            };
            match meta.write() {
                Ok(_) => {
                    *written_gen = generation;
                    written += 1;
                }
                Err(_) => RuntimeStats::add(&self.inner.stats.snapshot_io_errors, 1),
            }
        }
        if written > 0 {
            RuntimeStats::add(&self.inner.stats.snapshot_writes, written);
            let obs = &self.inner.observe;
            obs.record_phase(
                ObsPhase::SnapshotWrite,
                PathClass::Background,
                ms_since(pass_start),
            );
            obs.span(
                "snapshot.write",
                "lifecycle",
                pass_start,
                pass_start.elapsed(),
                || Some(format!("files={written}")),
            );
        }
        written
    }
}

/// The §3.2 tradeoff gate, against the query's shard: is enough of the
/// new region cached to make probe + remainder cheaper than forwarding?
/// Estimated by quasi-Monte-Carlo coverage sampling; always `true` at
/// the default threshold of zero.
fn coverage_worthwhile(
    config: &ProxyConfig,
    store: &CacheStore,
    bound: &BoundKey,
    ids: &[u64],
) -> bool {
    let threshold = config.min_overlap_coverage;
    if threshold <= 0.0 {
        return true;
    }
    let regions: Vec<&Region> = ids
        .iter()
        .filter_map(|id| {
            store
                .peek(*id)
                .filter(|e| e.is_resident())
                .map(|e| &e.region)
        })
        .collect();
    if regions.is_empty() {
        return false;
    }
    let coverage = fp_geometry::volume::monte_carlo_union_coverage(&bound.region, &regions, 512);
    coverage >= threshold
}

/// What an insert needs beyond the rows, computed off-lock with one
/// serialization: the columnar form over the template's coordinate
/// columns, and the accounted XML size read off its slab. `None` when
/// the rows build no form (a coordinate that is not a number): the
/// result is served but not cached.
fn prebuild(bound: &BoundKey, result: &ResultSet) -> Option<(usize, Arc<ColumnarRows>)> {
    let coord_idx: Vec<usize> = bound
        .reg
        .coord_columns
        .iter()
        .map(|c| result.column_index(c))
        .collect::<Option<_>>()?;
    let form = ColumnarRows::build(result, &coord_idx)?;
    Some((accounted_xml_bytes(result, Some(&form)), Arc::new(form)))
}

/// Whether `entry`'s form, resident or on disk, can select `bound`'s
/// region: its columns name the template's coordinates, in the order it
/// was built over. Registration guarantees this for a form built under
/// the same template, so a mismatch is a segment restored under another
/// registration; a contained hit or overlap part on it forwards.
fn maps_coords(entry: &Entry, bound: &BoundKey) -> bool {
    entry.coord_indexes(&bound.reg.coord_columns).as_deref() == Some(entry.form().coord_idx())
}

/// Every row of `form`, materialized from its slab; `None` when the
/// slab does not parse.
fn every_row(form: &ColumnarRows) -> Option<ResultSet> {
    let all: Vec<u32> = (0..form.len() as u32).collect();
    form.rows_of(&all)
}

/// Hits (exact and contained) and everything else, for the observe layer.
fn path_of(outcome: Outcome) -> PathClass {
    if matches!(outcome, Outcome::Exact | Outcome::Contained) {
        PathClass::Hit
    } else {
        PathClass::Miss
    }
}

/// Selects the rows of `form` inside the query region through its
/// micro-index — ascending ids, cut to the template's `TOP` — and hands
/// them to `take`. Returns what `take` made, the row count, and the
/// scan counts.
fn select_rows<R>(
    bound: &BoundKey,
    form: &ColumnarRows,
    take: impl FnOnce(&[u32]) -> R,
) -> (R, usize, SelectStats) {
    with_scratch(|scratch| {
        let (point, selected) = scratch.parts_mut();
        let stats = form.select_region(&bound.region, selected, point);
        if let Some(n) = bound.reg.top() {
            selected.truncate(n as usize);
        }
        (take(selected), selected.len(), stats)
    })
}

/// A hit finished over tuples in hand and their form: every row (exact;
/// the form rides along for a document sink), or the query region's,
/// selected through the form's micro-index and cut to the template's
/// `TOP`.
fn tuples_hit(
    bound: &BoundKey,
    result: Arc<ResultSet>,
    form: Arc<ColumnarRows>,
    exact: bool,
) -> (Served, usize, SelectStats) {
    if exact {
        let rows = result.len();
        return (
            Served::rows(result, Some(form)),
            rows,
            SelectStats::default(),
        );
    }
    let (selected, rows, stats) = select_rows(bound, &form, |ids| ResultSet {
        columns: result.columns.clone(),
        rows: ids
            .iter()
            .map(|&r| result.rows[r as usize].clone())
            .collect(),
    });
    (Served::rows(Arc::new(selected), None), rows, stats)
}

/// The one probe-part filter and merge, off-lock against the `Arc`
/// snapshots (entries are immutable, so concurrent eviction cannot
/// invalidate them): an overlap part's rows in the query region are
/// selected through its form's micro-index and only those are
/// materialized; a region-containment part contributes every row; the
/// rows merge by key. Only the parts whose rows reach the answer shape
/// its lifecycle facts, so a stale-but-empty probe never flags (or ages)
/// it. A part whose slab does not parse fails the merge when `strict`
/// (the healthy path then forwards) and is skipped otherwise (degraded
/// serving is best-effort); `None` also when no part is left.
fn merge_parts(bound: &BoundKey, parts: &[ProbePart], strict: bool) -> Option<Merged> {
    let mut life = ServeLife::default();
    let (mut rows_scanned, mut rows_pruned) = (0, 0);
    let mut pieces: Vec<ResultSet> = Vec::with_capacity(parts.len());
    for p in parts {
        let piece = if p.filter {
            with_scratch(|scratch| eval_answer_region(&p.form, &bound.region, scratch)).map(|e| {
                rows_scanned += e.stats.rows_scanned;
                rows_pruned += e.stats.rows_pruned();
                e.result
            })
        } else {
            every_row(&p.form)
        };
        let piece = match piece {
            Some(piece) => piece,
            None if strict => return None,
            None => continue,
        };
        if !piece.rows.is_empty() {
            life.absorb(&p.life);
        }
        pieces.push(piece);
    }
    if pieces.is_empty() {
        return None;
    }
    let refs: Vec<&ResultSet> = pieces.iter().collect();
    Some(Merged {
        result: merge_results(&bound.reg.key_column, &refs),
        life,
        rows_scanned,
        rows_pruned,
    })
}

/// Parses a demoted entry's slab segment back into rows and rebuilds
/// their columnar form, off-lock. `None` when the segment is damaged —
/// or its rows no longer build a form, which the skeleton they were
/// demoted with says they did.
fn parse_demoted(slice: &SlabSlice) -> Option<(Arc<ResultSet>, Arc<ColumnarRows>)> {
    let parsed = entry_from_segment(slice.xml(), slice.row_slab())?;
    let form = ColumnarRows::build(&parsed.result, &parsed.coord_idx)?;
    Some((Arc::new(parsed.result), Arc::new(form)))
}

/// Locks `mutex`, taking over from a holder that panicked: the sets and
/// lists behind these locks are consistent after every single step.
fn locked<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(|e| e.into_inner())
}

fn ms_since(start: Instant) -> f64 {
    start.elapsed().as_secs_f64() * 1000.0
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::origin::SiteOrigin;
    use crate::sim::CostModel;
    use fp_skyserver::{Catalog, CatalogSpec, SkySite};
    use fp_sqlmini::TableSource;
    use std::sync::atomic::AtomicUsize;
    use std::sync::Condvar;

    fn handle(scheme: Scheme) -> ProxyHandle {
        let site = small_site();
        ProxyHandle::with_shards(
            TemplateManager::with_sky_defaults(),
            Arc::new(SiteOrigin::new(site)),
            ProxyConfig::default()
                .with_scheme(scheme)
                .with_cost(CostModel::free()),
            4,
        )
    }

    /// A full-semantic handle with its whole cache in one shard, over
    /// `origin`, with the free cost model and `tune` applied.
    fn one_shard(origin: SiteOrigin, tune: impl FnOnce(ProxyConfig) -> ProxyConfig) -> ProxyHandle {
        ProxyHandle::with_shards(
            TemplateManager::with_sky_defaults(),
            Arc::new(origin),
            tune(
                ProxyConfig::default()
                    .with_scheme(Scheme::FullSemantic)
                    .with_cost(CostModel::free()),
            ),
            1,
        )
    }

    fn small_site() -> SkySite {
        SkySite::new(Catalog::generate(&CatalogSpec::small_test()))
    }

    fn radial_fields(ra: f64, dec: f64, radius: f64) -> [(String, String); 3] {
        [
            ("ra".to_string(), ra.to_string()),
            ("dec".to_string(), dec.to_string()),
            ("radius".to_string(), radius.to_string()),
        ]
    }

    fn radial(h: &ProxyHandle, ra: f64, dec: f64, radius: f64) -> ProxyResponse {
        h.handle_form("/search/radial", &radial_fields(ra, dec, radius))
            .unwrap()
    }

    fn ids_of(r: &ProxyResponse) -> Vec<i64> {
        let k = r.result.column_index("objID").unwrap();
        let mut ids: Vec<i64> = r
            .result
            .rows
            .iter()
            .map(|row| row[k].as_i64().unwrap())
            .collect();
        ids.sort_unstable();
        ids
    }

    #[test]
    fn handle_serves_exact_and_contained_like_the_proxy() {
        let h = handle(Scheme::FullSemantic);
        let big = radial(&h, 185.0, 0.0, 25.0);
        assert_eq!(big.metrics.outcome, Outcome::Forwarded);
        let again = radial(&h, 185.0, 0.0, 25.0);
        assert_eq!(again.metrics.outcome, Outcome::Exact);
        let small = radial(&h, 185.0, 0.0, 10.0);
        assert_eq!(small.metrics.outcome, Outcome::Contained);

        let oracle = handle(Scheme::NoCache);
        let truth = radial(&oracle, 185.0, 0.0, 10.0);
        assert_eq!(ids_of(&small), ids_of(&truth));
    }

    #[test]
    fn handle_merges_overlap_and_region_containment() {
        let h = handle(Scheme::FullSemantic);
        radial(&h, 185.0, 0.0, 20.0);
        let o = radial(&h, 185.0 + 25.0 / 60.0, 0.0, 15.0);
        assert_eq!(o.metrics.outcome, Outcome::Overlap);
        assert!(o.metrics.rows_from_cache > 0);

        let oracle = handle(Scheme::NoCache);
        let truth = radial(&oracle, 185.0 + 25.0 / 60.0, 0.0, 15.0);
        assert_eq!(ids_of(&o), ids_of(&truth));

        let rc = handle(Scheme::RegionContainment);
        radial(&rc, 185.0 - 10.0 / 60.0, 0.0, 8.0);
        radial(&rc, 185.0 + 10.0 / 60.0, 0.0, 8.0);
        let big = radial(&rc, 185.0, 0.0, 40.0);
        assert_eq!(big.metrics.outcome, Outcome::RegionContainment);
        assert_eq!(rc.cache_stats().entries, 1);
        assert_eq!(rc.cache_stats().compactions, 2);
        let truth = radial(&oracle, 185.0, 0.0, 40.0);
        assert_eq!(ids_of(&big), ids_of(&truth));
    }

    #[test]
    fn containment_only_ignores_overlap_and_region_containment() {
        let h = handle(Scheme::ContainmentOnly);
        radial(&h, 185.0, 0.0, 15.0);
        // Overlapping query → forwarded, cached.
        let o = radial(&h, 185.0 + 20.0 / 60.0, 0.0, 15.0);
        assert_eq!(o.metrics.outcome, Outcome::Forwarded);
        // Covering query → forwarded too (no region containment in Third).
        let big = radial(&h, 185.0, 0.0, 60.0);
        assert_eq!(big.metrics.outcome, Outcome::Forwarded);
        assert_eq!(h.cache_stats().compactions, 0);
    }

    #[test]
    fn region_containment_scheme_skips_general_overlap() {
        let h = handle(Scheme::RegionContainment);
        radial(&h, 185.0, 0.0, 20.0);
        let o = radial(&h, 185.0 + 25.0 / 60.0, 0.0, 15.0);
        assert_eq!(o.metrics.outcome, Outcome::Forwarded);
    }

    #[test]
    fn origin_without_remainder_forces_original_queries() {
        let h = one_shard(SiteOrigin::without_remainder(small_site()), |c| c);
        radial(&h, 185.0, 0.0, 20.0);
        let o = radial(&h, 185.0 + 25.0 / 60.0, 0.0, 15.0);
        // Overlap still answered correctly, but by forwarding the original.
        assert_eq!(o.metrics.outcome, Outcome::Forwarded);
        let truth = radial(&handle(Scheme::NoCache), 185.0 + 25.0 / 60.0, 0.0, 15.0);
        assert_eq!(ids_of(&o), ids_of(&truth));
    }

    #[test]
    fn capacity_bound_is_respected() {
        let h = one_shard(SiteOrigin::new(small_site()), |c| {
            c.with_capacity(Some(64 * 1024))
        });
        for i in 0..12 {
            radial(&h, 183.0 + i as f64 * 0.5, 0.0, 12.0);
        }
        assert!(h.cache_stats().bytes <= 64 * 1024);
    }

    #[test]
    fn coverage_threshold_gates_the_overlap_path() {
        let site = small_site();
        let strict = |threshold: f64| {
            one_shard(SiteOrigin::new(site.clone()), |c| {
                c.with_min_overlap_coverage(threshold)
            })
        };

        // A sliver of overlap: centers 28' apart, radii 20' and 10'.
        let h = strict(0.9);
        radial(&h, 185.0, 0.0, 20.0);
        let slim = radial(&h, 185.0 + 28.0 / 60.0, 0.0, 10.0);
        assert_eq!(
            slim.metrics.outcome,
            Outcome::Forwarded,
            "thin overlap must not clear a 0.9 coverage threshold"
        );

        // Near-total coverage: same center, slightly shifted, must pass a
        // modest threshold.
        let h = strict(0.5);
        radial(&h, 185.0, 0.0, 20.0);
        let broad = radial(&h, 185.0 + 2.0 / 60.0, 0.0, 19.0);
        assert_eq!(broad.metrics.outcome, Outcome::Overlap);
        assert!(broad.metrics.cache_efficiency() > 0.5);
    }

    #[test]
    fn passive_handle_hits_only_exact_text() {
        let h = handle(Scheme::Passive);
        assert_eq!(
            radial(&h, 185.0, 0.0, 20.0).metrics.outcome,
            Outcome::Forwarded
        );
        assert_eq!(radial(&h, 185.0, 0.0, 20.0).metrics.outcome, Outcome::Exact);
        assert_eq!(
            radial(&h, 185.0, 0.0, 10.0).metrics.outcome,
            Outcome::Forwarded
        );
    }

    #[test]
    fn no_cache_handle_always_forwards() {
        let h = handle(Scheme::NoCache);
        radial(&h, 185.0, 0.0, 20.0);
        radial(&h, 185.0, 0.0, 20.0);
        assert_eq!(h.cache_stats().entries, 0);
        assert_eq!(h.runtime_stats().requests, 2);
    }

    #[test]
    fn clones_share_one_cache() {
        let h = handle(Scheme::FullSemantic);
        let clone = h.clone();
        radial(&h, 185.0, 0.0, 20.0);
        let hit = radial(&clone, 185.0, 0.0, 20.0);
        assert_eq!(hit.metrics.outcome, Outcome::Exact);
        assert_eq!(clone.runtime_stats().requests, 2);
    }

    /// A [`SiteOrigin`] behind a closable gate: while closed, `execute`
    /// blocks (after recording its arrival) until the gate reopens. It
    /// also counts the queries that are not table-valued-function calls.
    struct GateOrigin {
        site: SiteOrigin,
        open: Mutex<bool>,
        cv: Condvar,
        executes: AtomicUsize,
        plain_scans: AtomicUsize,
    }

    impl GateOrigin {
        fn new() -> Self {
            let site = small_site();
            GateOrigin {
                site: SiteOrigin::new(site),
                open: Mutex::new(true),
                cv: Condvar::new(),
                executes: AtomicUsize::new(0),
                plain_scans: AtomicUsize::new(0),
            }
        }

        fn set_open(&self, open: bool) {
            *self.open.lock().unwrap() = open;
            self.cv.notify_all();
        }

        fn executes(&self) -> usize {
            self.executes.load(Ordering::SeqCst)
        }
    }

    impl Origin for GateOrigin {
        fn execute(
            &self,
            query: &Query,
        ) -> Result<fp_skyserver::result::QueryOutcome, crate::origin::OriginError> {
            if !matches!(query.from, TableSource::Function { .. }) {
                self.plain_scans.fetch_add(1, Ordering::SeqCst);
            }
            self.executes.fetch_add(1, Ordering::SeqCst);
            let mut open = self.open.lock().unwrap();
            while !*open {
                open = self.cv.wait(open).unwrap();
            }
            drop(open);
            self.site.execute(query)
        }
    }

    fn spin_until(deadline_ms: u64, mut done: impl FnMut() -> bool) {
        let start = Instant::now();
        while !done() {
            assert!(
                start.elapsed().as_millis() < deadline_ms as u128,
                "condition not reached within {deadline_ms}ms"
            );
            std::thread::yield_now();
        }
    }

    fn rows_by_id(r: &ProxyResponse) -> Vec<Vec<fp_sqlmini::Value>> {
        let k = r.result.column_index("objID").unwrap();
        let mut rows = r.result.rows.clone();
        rows.sort_by_key(|row| row[k].as_i64().unwrap());
        rows
    }

    /// The cone `(ra, dec, radius)` resolves to, as (centre, chord² radius).
    fn cone_of(h: &ProxyHandle, ra: f64, dec: f64, radius: f64) -> (Vec<f64>, f64) {
        let bound = h
            .manager()
            .resolve_form("/search/radial", &radial_fields(ra, dec, radius))
            .unwrap();
        let Region::Sphere(ball) = &bound.region else {
            panic!("radial queries are cones");
        };
        (
            ball.center().coords().to_vec(),
            ball.radius() * ball.radius(),
        )
    }

    /// Two overlap misses on one residual key, in flight together: each
    /// remainder must reach the origin as its own table-valued-function
    /// query while the other is still out, and an object on one cone's
    /// ε-fringe (`r² < d² ≤ r² + EPS`, which the function admits and an
    /// exact `d² ≤ r²` predicate over the plain table drops) must survive.
    #[test]
    fn concurrent_overlap_remainders_stay_function_queries() {
        let origin = Arc::new(GateOrigin::new());
        let h = ProxyHandle::with_shards(
            TemplateManager::with_sky_defaults(),
            Arc::clone(&origin) as Arc<dyn Origin>,
            ProxyConfig::default()
                .with_scheme(Scheme::FullSemantic)
                .with_cost(CostModel::free()),
            1,
        );
        let oracle = handle(Scheme::NoCache);

        // Seed one cached entry both later queries overlap.
        let seed = (185.0, 0.0, 20.0);
        radial(&h, seed.0, seed.1, seed.2);
        assert_eq!(origin.executes(), 1);

        // Put a catalog object on the second waiter's fringe: pick one
        // near its cone's edge but outside the seed (so only the
        // remainder can deliver it) and bisect the radius onto it.
        let (ra, dec) = (185.0 - 25.0 / 60.0, 0.1);
        let (centre, _) = cone_of(&h, ra, dec, 15.0);
        let (seed_centre, seed_r2) = cone_of(&h, seed.0, seed.1, seed.2);
        let dist2 = |c: &[f64], p: &[f64]| c.iter().zip(p).map(|(a, b)| (a - b) * (a - b)).sum();
        let wide = radial(&oracle, ra, dec, 16.0);
        let xyz: Vec<usize> = ["cx", "cy", "cz"]
            .iter()
            .map(|c| wide.result.column_index(c).unwrap())
            .collect();
        let key = wide.result.column_index("objID").unwrap();
        let (_, r2_inner) = cone_of(&h, ra, dec, 14.0);
        let (fringe_id, fringe_d2): (i64, f64) = wide
            .result
            .rows
            .iter()
            .find_map(|row| {
                let p: Vec<f64> = xyz.iter().map(|&i| row[i].as_f64().unwrap()).collect();
                let d2: f64 = dist2(&centre, &p);
                let outside_seed = dist2(&seed_centre, &p) > seed_r2 + 1e-6;
                (d2 > r2_inner && outside_seed).then(|| (row[key].as_i64().unwrap(), d2))
            })
            .expect("an object between 14' and 16' outside the seed cone");
        let (mut lo, mut hi) = (14.0, 16.0);
        for _ in 0..60 {
            let mid = (lo + hi) / 2.0;
            if cone_of(&h, ra, dec, mid).1 < fringe_d2 - fp_geometry::EPS / 2.0 {
                lo = mid;
            } else {
                hi = mid;
            }
        }
        let r2 = cone_of(&h, ra, dec, lo).1;
        assert!(r2 < fringe_d2 && fringe_d2 <= r2 + fp_geometry::EPS);
        let queries = [(185.0 + 25.0 / 60.0, 0.0, 15.0), (ra, dec, lo)];

        // Close the gate; the first remainder parks inside the origin,
        // and the second must arrive there while it is still out.
        origin.set_open(false);
        let spawn = |&(ra, dec, r): &(f64, f64, f64)| {
            let h = h.clone();
            std::thread::spawn(move || radial(&h, ra, dec, r))
        };
        let first = spawn(&queries[0]);
        spin_until(10_000, || origin.executes() == 2);
        let second = spawn(&queries[1]);
        spin_until(10_000, || origin.executes() == 3);
        origin.set_open(true);
        let responses = [first.join().unwrap(), second.join().unwrap()];

        assert_eq!(origin.executes(), 3);
        assert_eq!(origin.plain_scans.load(Ordering::SeqCst), 0);
        for (response, &(ra, dec, r)) in responses.iter().zip(&queries) {
            assert_eq!(response.metrics.outcome, Outcome::Overlap);
            assert!(response.metrics.rows_from_cache > 0);
            let truth = radial(&oracle, ra, dec, r);
            assert_eq!(ids_of(response), ids_of(&truth));
            assert!(
                rows_by_id(response) == rows_by_id(&truth),
                "same keys as the oracle but different cells"
            );
        }
        assert!(ids_of(&responses[1]).contains(&fringe_id));
    }

    #[test]
    fn adaptive_handle_abandons_expensive_overlap_handling() {
        // Remainder trips cost a fortune, plain forwards are cheap:
        // the paper's "First loses" regime. The adaptive runtime must
        // discover this and stop taking the overlap path.
        let site = small_site();
        let cost = CostModel {
            rtt_ms: 100.0,
            remainder_overhead_ms: 10_000.0,
            ..CostModel::free()
        };
        let h = ProxyHandle::with_shards(
            TemplateManager::with_sky_defaults(),
            Arc::new(SiteOrigin::new(site)),
            ProxyConfig::default()
                .with_adaptive_params(crate::cache::ProfitParams {
                    explore_samples: 12,
                    refresh_samples: 4,
                    reeval_every: 1000,
                    ..Default::default()
                })
                .with_cost(cost),
            2,
        );

        // Exploration: rotations of fresh-forward, exact repeat, and
        // overlap keep every relationship class observable.
        for i in 0..8 {
            let far = 100.0 + i as f64;
            radial(&h, far, 30.0, 5.0);
            radial(&h, far, 30.0, 5.0);
            radial(&h, 185.0 + i as f64 * 0.05, 0.0, 15.0);
        }

        let est = h.profit_estimate("radial").expect("template observed");
        assert!(!est.exploring, "24 samples exceed the 12-sample window");
        assert!(
            !est.scheme.handles_overlap(),
            "10s remainders vs 100ms forwards must turn overlap handling off, got {}",
            est.scheme
        );
        let stats = h.runtime_stats();
        assert!(stats.scheme_switches >= 1);
        assert_eq!(stats.adaptive_templates, 1);
        assert!(stats.scheme_serves[Scheme::FullSemantic.index()] > 0);

        // Committed: a fresh overlapping query now forwards instead of
        // paying the remainder price.
        let post = radial(&h, 185.0 - 0.03, 0.01, 15.0);
        assert_eq!(post.metrics.outcome, Outcome::Forwarded);
        assert!(stats.scheme_serves.iter().sum::<usize>() >= 24);
    }

    #[test]
    fn fixed_configs_never_consult_the_profit_model() {
        let h = handle(Scheme::FullSemantic);
        radial(&h, 185.0, 0.0, 20.0);
        radial(&h, 185.0, 0.0, 20.0);
        assert!(h.profit_estimate("radial").is_none());
        let stats = h.runtime_stats();
        assert_eq!(stats.scheme_switches, 0);
        assert_eq!(stats.adaptive_templates, 0);
        assert_eq!(stats.scheme_serves[Scheme::FullSemantic.index()], 2);
    }

    #[test]
    fn origin_fetches_seed_measured_refetch_costs() {
        // With a real (non-free) cost model, the inserted entry's
        // refetch estimate must come from the measured fetch, not the
        // size-proportional default.
        let site = small_site();
        let h = ProxyHandle::with_shards(
            TemplateManager::with_sky_defaults(),
            Arc::new(SiteOrigin::new(site)),
            ProxyConfig::default()
                .with_scheme(Scheme::FullSemantic)
                .with_replacement(crate::cache::Replacement::CostAware),
            1,
        );
        let r = radial(&h, 185.0, 0.0, 20.0);
        assert_eq!(r.metrics.outcome, Outcome::Forwarded);
        assert!(r.metrics.sim_ms > 0.0);
        let key = h
            .inner
            .manager
            .bind_form("/search/radial", &radial_fields(185.0, 0.0, 20.0))
            .unwrap();
        {
            let (store, _) = h.inner.store.lock(&key.residual_key);
            let id = store.lookup_exact(&key.sql).unwrap();
            // A forwarded miss charges only the origin fetch.
            let seeded = (r.metrics.sim_ms * 1000.0) as u64;
            assert_eq!(store.refetch_us(id), Some(seeded));
        }
        let again = radial(&h, 185.0, 0.0, 20.0);
        assert_eq!(again.metrics.outcome, Outcome::Exact);
    }

    /// The reactor probe serves exact and contained hits only: an
    /// overlap or region-containment query gets no merge plan and no
    /// answer from it, while the blocking path still merges both.
    #[test]
    fn probe_declines_merges_before_planning_them() {
        let h = handle(Scheme::FullSemantic);
        radial(&h, 185.0 - 10.0 / 60.0, 0.0, 8.0);
        radial(&h, 185.0 + 10.0 / 60.0, 0.0, 8.0);
        let cases = [
            (185.0 + 15.0 / 60.0, 10.0, Outcome::Overlap),
            (185.0, 40.0, Outcome::RegionContainment),
        ];
        for (ra, radius, outcome) in cases {
            let fields = radial_fields(ra, 0.0, radius);
            let key = h
                .inner
                .manager
                .bind_form("/search/radial", &fields)
                .unwrap();
            let mut timing = Timing::begin();
            let phase = h.cache_phase_locked(&key, Scheme::FullSemantic, Sink::Probe, &mut timing);
            let LockedPhase::Origin(plan) = phase else {
                panic!("{outcome:?}: the probe planned a hit");
            };
            assert!(plan.exclude.is_empty() && plan.probe_parts.is_empty());
            assert!(plan.compact_ids.is_empty());
            assert!(h.try_form_doc_cached("/search/radial", &fields).is_none());
            assert_eq!(radial(&h, ra, 0.0, radius).metrics.outcome, outcome);
        }
    }

    #[test]
    fn raw_sql_paths_match_the_proxy() {
        let h = handle(Scheme::FullSemantic);
        let sql = "SELECT p.objID, p.ra, p.dec, p.cx, p.cy, p.cz, p.u, p.g, p.r, p.i, p.z \
                   FROM fGetNearbyObjEq(185.0, 0.0, 20.0) n \
                   JOIN PhotoPrimary p ON n.objID = p.objID";
        assert_eq!(
            h.handle_sql(sql).unwrap().metrics.outcome,
            Outcome::Forwarded
        );
        assert_eq!(h.handle_sql(sql).unwrap().metrics.outcome, Outcome::Exact);

        // Non-template SQL is forwarded uncached.
        let raw = "SELECT TOP 3 p.objID FROM fGetNearbyObjEq(185.0, 0.0, 20.0) n \
                   JOIN PhotoPrimary p ON n.objID = p.objID WHERE p.r < 19.0";
        assert_eq!(
            h.handle_sql(raw).unwrap().metrics.outcome,
            Outcome::Forwarded
        );
        assert_eq!(
            h.handle_sql(raw).unwrap().metrics.outcome,
            Outcome::Forwarded
        );
    }

    /// Every promotion runs on its own thread, and the handle keeps a
    /// handle only to the ones still running. Two cones share a budget
    /// that fits one, so after the two misses every request is a disk
    /// hit that promotes its cone and demotes the other.
    #[test]
    fn finished_background_threads_are_reaped() {
        let dir = std::env::temp_dir().join(format!("fp_handle_reap_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let cones = [(185.0, 0.0, 10.0), (186.0, 0.5, 10.0)];
        let footprint = |(ra, dec, radius)| {
            let h = handle(Scheme::FullSemantic);
            radial(&h, ra, dec, radius);
            h.cache_stats().bytes
        };
        let (a, b) = (footprint(cones[0]), footprint(cones[1]));
        let site = small_site();
        let h = ProxyHandle::with_shards(
            TemplateManager::with_sky_defaults(),
            Arc::new(SiteOrigin::new(site)),
            ProxyConfig::default()
                .with_scheme(Scheme::FullSemantic)
                .with_cost(CostModel::free())
                .with_capacity(Some(a.max(b) + a.min(b) / 2))
                .with_tier(dir.clone()),
            1,
        );
        let mut retained = 0;
        for (ra, dec, radius) in cones.iter().cycle().take(210) {
            h.handle_form_xml("/search/radial", &radial_fields(*ra, *dec, *radius))
                .unwrap();
            spin_until(5_000, || h.inner.promoting.lock().unwrap().is_empty());
            retained = retained.max(h.inner.reval_threads.lock().unwrap().len());
        }
        let promotions = h.cache_stats().promotions;
        assert!(promotions >= 200, "only {promotions} promotions");
        assert!(retained <= 8, "{retained} thread handles retained");
        h.quiesce_revalidations();
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// Region containment compacts the subsumed entries only when the
    /// merged container lands. Here the RAM budget holds two small cones
    /// but not the cone containing both: the container is served, not
    /// cached, and the cones stay.
    #[test]
    fn a_container_too_large_to_cache_compacts_nothing() {
        let cones = [(185.0, 0.0, 3.0), (185.05, 0.0, 3.0)];
        let container = (185.025, 0.0, 10.0);
        let footprint = |cones: &[(f64, f64, f64)]| {
            let h = handle(Scheme::FullSemantic);
            for &(ra, dec, radius) in cones {
                radial(&h, ra, dec, radius);
            }
            h.cache_stats().bytes
        };
        let (both, whole) = (footprint(&cones), footprint(&[container]));
        assert!(
            both < whole,
            "the container must not fit where the cones do"
        );
        let h = one_shard(SiteOrigin::new(small_site()), |c| {
            c.with_capacity(Some(both))
        });
        for &(ra, dec, radius) in &cones {
            radial(&h, ra, dec, radius);
        }
        let (ra, dec, radius) = container;
        let r = radial(&h, ra, dec, radius);
        assert_eq!(r.metrics.outcome, Outcome::RegionContainment);
        let stats = h.cache_stats();
        assert_eq!((stats.entries, stats.compactions), (2, 0));
        for &(ra, dec, radius) in &cones {
            assert_eq!(radial(&h, ra, dec, radius).metrics.outcome, Outcome::Exact);
        }
    }

    /// A form whose columns do not name the template's coordinates (a
    /// segment restored under another registration) cannot select a
    /// contained query's region, whether it is resident or demoted: both
    /// sinks forward, counting one local-evaluation fallback per
    /// request. An exact hit on it still serves its rows.
    #[test]
    fn a_form_without_the_template_coordinates_forwards_on_either_sink() {
        let dir = std::env::temp_dir().join(format!("fp_unmapped_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        // A tier under a one-byte budget spills every entry at once.
        let tiers = [None, Some(dir.clone())];
        for tier in tiers {
            let demoted = tier.is_some();
            let h = one_shard(SiteOrigin::new(small_site()), |c| match tier {
                Some(dir) => c.with_capacity(Some(1)).with_tier(dir),
                None => c,
            });
            let big = radial_fields(185.0, 0.0, 20.0);
            let key = h.inner.manager.bind_form("/search/radial", &big).unwrap();
            let planted = ResultSet {
                columns: ["objID", "a", "b", "c"].map(String::from).to_vec(),
                rows: (0..4)
                    .map(|i| {
                        let x = f64::from(i) * 0.25;
                        vec![
                            fp_sqlmini::Value::Int(i64::from(i)),
                            fp_sqlmini::Value::Float(x),
                            fp_sqlmini::Value::Float(-x),
                            fp_sqlmini::Value::Float(1.0),
                        ]
                    })
                    .collect(),
            };
            {
                let (mut store, _) = h.inner.store.lock(&key.residual_key);
                let abc = ["a", "b", "c"].map(String::from);
                let id = store
                    .insert(
                        &key.residual_key,
                        key.region.clone(),
                        planted,
                        false,
                        &key.sql,
                        &abc,
                    )
                    .expect("the planted rows build a form");
                assert_eq!(store.peek(id).unwrap().is_resident(), !demoted);
            }
            let inside = |dec: f64| radial_fields(185.0, dec, 4.0);
            let rows = h.handle_form("/search/radial", &inside(-0.1)).unwrap();
            let doc = h.handle_form_doc("/search/radial", &inside(0.1)).unwrap();
            for (sink, metrics) in [("rows", &rows.metrics), ("doc", &doc.metrics)] {
                assert_eq!(
                    metrics.outcome,
                    Outcome::Forwarded,
                    "{sink}, demoted {demoted}"
                );
                assert!(
                    metrics.local_fallback,
                    "{sink}, demoted {demoted}: no fallback"
                );
            }
            assert_eq!(
                h.runtime_stats().local_eval_fallbacks,
                2,
                "demoted {demoted}"
            );
            let exact = h.handle_form("/search/radial", &big).unwrap();
            assert_eq!(exact.metrics.outcome, Outcome::Exact);
            assert_eq!(exact.metrics.disk_hit, demoted);
            assert_eq!(exact.result.len(), 4);
            h.quiesce_revalidations();
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}
