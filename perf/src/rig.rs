//! The fixed rig: catalog, timed origin, proxy + edge server boot, and
//! CPU pinning. Every constant here is part of the benchmark's
//! definition; none is derived from the machine.

use fp_edge::{EdgeConfig, EdgeServer, EdgeService, ProxyEdgeService};
use fp_skyserver::result::QueryOutcome;
use fp_skyserver::{Catalog, CatalogSpec, SkySite};
use fp_sqlmini::Query;
use funcproxy::cache::TierConfig;
use funcproxy::template::TemplateManager;
use funcproxy::{CostModel, Origin, OriginError, ProxyConfig, ProxyHandle, Scheme, SiteOrigin};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::{Duration, Instant};

pub const CATALOG_SEED: u64 = 0x5D55;
pub const OBJECTS: usize = 150_000;
pub const SHARDS: usize = 8;
pub const EDGE_WORKERS: usize = 4;
pub const QUEUE_DEPTH: usize = 512;
pub const CONNECTIONS: usize = 2;
pub const ORIGIN_DELAY: Duration = Duration::from_millis(5);
pub const TIER_COMPACT_RATIO: f64 = 0.05;
pub const FORM_PATH: &str = "/search/radial";

/// Nanoseconds since the first call — the one clock every sample and
/// span of a run is stamped with.
pub fn now_ns() -> u64 {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

pub fn build_site() -> SkySite {
    SkySite::new(Catalog::generate(&CatalogSpec {
        seed: CATALOG_SEED,
        objects: OBJECTS,
        ..CatalogSpec::default()
    }))
}

/// One origin fetch as the proxy saw it.
#[derive(Debug, Clone, Copy)]
pub struct Fetch {
    pub start_ns: u64,
    pub end_ns: u64,
    pub bytes: u64,
}

/// The benchmark's `Origin` decorator: the site behind a fixed delay
/// that is off during warm-up, recording every fetch.
pub struct TimingOrigin {
    inner: SiteOrigin,
    delayed: AtomicBool,
    fetches: Mutex<Vec<Fetch>>,
}

impl TimingOrigin {
    fn new(site: SkySite) -> TimingOrigin {
        TimingOrigin {
            inner: SiteOrigin::new(site),
            delayed: AtomicBool::new(false),
            fetches: Mutex::new(Vec::new()),
        }
    }

    /// Turns the per-fetch delay on (measuring) or off (warm-up, staged
    /// replay).
    pub fn set_delayed(&self, on: bool) {
        self.delayed.store(on, Ordering::SeqCst);
    }

    /// Takes the fetches recorded since the last call.
    pub fn drain(&self) -> Vec<Fetch> {
        std::mem::take(&mut *self.fetches.lock().expect("fetch log lock"))
    }
}

impl Origin for TimingOrigin {
    fn execute(&self, query: &Query) -> Result<QueryOutcome, OriginError> {
        let start_ns = now_ns();
        if self.delayed.load(Ordering::SeqCst) {
            std::thread::sleep(ORIGIN_DELAY);
        }
        let outcome = self.inner.execute(query)?;
        let fetch = Fetch {
            start_ns,
            end_ns: now_ns(),
            bytes: outcome.stats.result_bytes as u64,
        };
        self.fetches.lock().expect("fetch log lock").push(fetch);
        Ok(outcome)
    }
}

/// A booted proxy: the handle, its timed origin, and the slab
/// directory to remove afterwards.
pub struct Proxy {
    pub handle: ProxyHandle,
    pub origin: Arc<TimingOrigin>,
    slab_dir: Option<PathBuf>,
}

impl Proxy {
    /// A fresh proxy over `site`: unlimited RAM cache, or `ram_budget`
    /// bytes of it over the slab tier.
    pub fn boot(site: &SkySite, ram_budget: Option<usize>) -> Proxy {
        static NEXT_DIR: std::sync::atomic::AtomicUsize = std::sync::atomic::AtomicUsize::new(0);
        let mut config = ProxyConfig::default()
            .with_scheme(Scheme::FullSemantic)
            .with_cost(CostModel::free());
        let mut slab_dir = None;
        if let Some(ram_budget) = ram_budget {
            let dir = out_dir().join(format!(
                "slab-{}-{}",
                std::process::id(),
                NEXT_DIR.fetch_add(1, Ordering::SeqCst)
            ));
            let _ = std::fs::remove_dir_all(&dir);
            config = config
                .with_capacity(Some(ram_budget))
                .with_tier_config(TierConfig::new(&dir).with_compact_ratio(TIER_COMPACT_RATIO));
            slab_dir = Some(dir);
        }
        let origin = Arc::new(TimingOrigin::new(site.clone()));
        let handle = ProxyHandle::with_shards(
            TemplateManager::with_sky_defaults(),
            Arc::clone(&origin) as Arc<dyn Origin>,
            config,
            SHARDS,
        );
        Proxy {
            handle,
            origin,
            slab_dir,
        }
    }

    /// The real server over this proxy, wired as the production example
    /// wires it (shared stats and observer).
    pub fn serve(&self) -> EdgeServer {
        let service = Arc::new(ProxyEdgeService::new(self.handle.clone()));
        let config = EdgeConfig::default()
            .with_workers(EDGE_WORKERS)
            .with_queue_depth(QUEUE_DEPTH)
            .with_stats(service.edge_stats())
            .with_observer(self.handle.observer_shared());
        EdgeServer::bind("127.0.0.1:0", service as Arc<dyn EdgeService>, config)
            .expect("edge server binds on loopback")
    }
}

impl Drop for Proxy {
    fn drop(&mut self) {
        if let Some(dir) = &self.slab_dir {
            let _ = std::fs::remove_dir_all(dir);
        }
    }
}

/// A `SCHED_IDLE` thread spinning on the CPU it is spawned on until
/// dropped. A virtual CPU that halts between arrivals pays a hypervisor
/// wake-up on the next one — 30 or 65 µs per wake-up on the reference
/// box, switching between the two every few seconds — which would be
/// most of a hit's open-loop latency. Open windows only: closed ones
/// keep the CPU busy themselves, and in a series of runs that spun
/// through them too, set-up and throughput drifted 10–15 % slower.
pub struct KeepAwake {
    stop: Arc<AtomicBool>,
    spinner: Option<std::thread::JoinHandle<()>>,
}

impl KeepAwake {
    pub fn start() -> KeepAwake {
        let stop = Arc::new(AtomicBool::new(false));
        let seen = Arc::clone(&stop);
        let spinner = std::thread::spawn(move || {
            affinity::run_when_idle();
            while !seen.load(Ordering::Relaxed) {
                std::hint::spin_loop();
            }
        });
        KeepAwake {
            stop,
            spinner: Some(spinner),
        }
    }
}

impl Drop for KeepAwake {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        if let Some(spinner) = self.spinner.take() {
            let _ = spinner.join();
        }
    }
}

/// `perf/out/` of the checkout this binary was built in: the only place
/// the benchmark writes.
pub fn out_dir() -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out");
    std::fs::create_dir_all(&dir).expect("perf/out is creatable");
    dir
}

/// Peak resident set of this process, MB (`VmHWM`).
pub fn rss_peak_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("/proc/self/status");
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("VmHWM line");
    kb / 1024.0
}

/// CPU affinity of every thread of this process and the timer slack of
/// one, through the libc calls `std` does not wrap.
pub mod affinity {
    /// A `cpu_set_t`: 1024 CPUs.
    pub type CpuSet = [u64; 16];

    extern "C" {
        fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
        fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
        fn prctl(option: i32, arg2: u64, arg3: u64, arg4: u64, arg5: u64) -> i32;
        fn sched_setscheduler(pid: i32, policy: i32, param: *const i32) -> i32;
    }

    /// Puts the calling thread in `SCHED_IDLE`: it runs only when
    /// nothing else on its CPU wants to.
    pub fn run_when_idle() {
        const SCHED_IDLE: i32 = 5;
        let priority = 0i32;
        // SAFETY: `sched_param` is one `int`, read by the kernel from a
        // live local; pid 0 names the calling thread.
        let rc = unsafe { sched_setscheduler(0, SCHED_IDLE, &priority) };
        assert_eq!(rc, 0, "sched_setscheduler(SCHED_IDLE) failed");
    }

    /// Lets the calling thread's sleeps end within a microsecond of
    /// their deadline instead of the default 50 µs slack, which would
    /// otherwise be most of a small hit's open-loop latency.
    pub fn tighten_timer_slack() {
        const PR_SET_TIMERSLACK: i32 = 29;
        // SAFETY: PR_SET_TIMERSLACK takes the slack in nanoseconds as
        // its only argument and touches no memory.
        let rc = unsafe { prctl(PR_SET_TIMERSLACK, 1_000, 0, 0, 0) };
        assert_eq!(rc, 0, "PR_SET_TIMERSLACK failed");
    }

    /// The CPUs the calling thread may run on.
    pub fn allowed() -> CpuSet {
        let mut set: CpuSet = [0; 16];
        // SAFETY: `set` is a live, writable buffer of exactly the byte
        // size passed; pid 0 names the calling thread.
        let rc = unsafe { sched_getaffinity(0, std::mem::size_of::<CpuSet>(), set.as_mut_ptr()) };
        assert_eq!(rc, 0, "sched_getaffinity failed");
        set
    }

    /// The set holding only the highest CPU of `set`.
    pub fn last_cpu(set: &CpuSet) -> CpuSet {
        let mut only: CpuSet = [0; 16];
        let (word, bits) = set
            .iter()
            .enumerate()
            .rev()
            .find(|(_, w)| **w != 0)
            .expect("at least one allowed CPU");
        only[word] = 1 << (63 - bits.leading_zeros());
        only
    }

    /// Moves every existing thread of the process onto `set`; threads
    /// spawned afterwards inherit it from their spawner.
    pub fn apply_to_process(set: &CpuSet) {
        for entry in std::fs::read_dir("/proc/self/task").expect("/proc/self/task") {
            let name = entry.expect("task entry").file_name();
            let Some(tid) = name.to_str().and_then(|s| s.parse::<i32>().ok()) else {
                continue;
            };
            // SAFETY: `set` is a live buffer of exactly the byte size
            // passed and the kernel only reads it. A thread that exited
            // since the listing makes the call fail with ESRCH, which
            // is harmless, so the result is ignored.
            unsafe { sched_setaffinity(tid, std::mem::size_of::<CpuSet>(), set.as_ptr()) };
        }
    }
}
