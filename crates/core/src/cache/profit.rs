//! The per-template profit model behind adaptive scheme selection.
//!
//! The paper's headline nuance is that the "First" scheme (full
//! semantic caching, with probe + remainder handling of general
//! overlap) often *loses* to the simpler "Second"/"Third" schemes —
//! but which scheme wins depends on origin latency, result sizes, and
//! workload skew, none of which are knowable at configuration time.
//! The proxy measures all of them live, so ROADMAP item 4 makes the
//! scheme a runtime decision: this module folds the observed
//! [`QueryMetrics`] stream into per-template cost estimates and picks
//! the scheme with the lowest expected response time.
//!
//! # How it works
//!
//! For each template the model keeps (a) the observed *relationship
//! mix* — how often an incoming query is an exact match, contained,
//! region-contained, overlapping, or disjoint with respect to the
//! cache — and (b) an EWMA of the measured response time for each of
//! those serve classes (full origin fetch, local evaluation, probe +
//! remainder round trip, …). The expected per-request cost of a scheme
//! is then the mix-weighted sum of the class costs *that scheme
//! actually uses*: a scheme that forwards overlaps pays the forward
//! price on the overlap fraction, one that handles them pays the
//! remainder price. Picking the cheapest scheme reproduces the paper's
//! verdict automatically — when remainder trips cost more than full
//! fetches, "Second" beats "First"; when the origin is far away,
//! "First" wins.
//!
//! # The state machine
//!
//! Relationship rates are only *observable* under full semantic
//! caching (a scheme that forwards overlaps never finds out how many
//! overlaps it forwent), so each template runs a three-state loop:
//!
//! ```text
//!            samples ≥ explore_samples
//!  Explore ────────────────────────────▶ Committed(scheme)
//!    ▲                                        │
//!    └────────────────────────────────────────┘
//!            every reeval_every requests
//! ```
//!
//! During `Explore` the template serves with [`Scheme::FullSemantic`]
//! and both the mix and the class costs update; during `Committed` only
//! the class costs the chosen scheme exercises keep updating, and the
//! mix stays frozen at its last explored value. Re-entering `Explore`
//! periodically refreshes the mix, so workload drift (hotspot moves,
//! radius changes) eventually re-decides the scheme. A committed
//! scheme is only displaced when the challenger is at least
//! `hysteresis` cheaper, so estimate noise cannot flap the choice.

use crate::metrics::{Outcome, QueryMetrics};
use crate::schemes::Scheme;
use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Tunables for the adaptive scheme selector. The defaults favour
/// stability: a template must be seen ~dozens of times before its
/// scheme moves off full semantic caching.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ProfitParams {
    /// Requests a template serves under full semantic caching before
    /// its first scheme decision (the initial exploration window).
    pub explore_samples: u32,
    /// Length of the periodic re-exploration windows that refresh the
    /// relationship mix after a scheme has been committed.
    pub refresh_samples: u32,
    /// Committed requests between re-exploration windows.
    pub reeval_every: u32,
    /// Fractional advantage a challenger scheme needs over the
    /// incumbent to displace it (0.1 = 10% cheaper).
    pub hysteresis: f64,
    /// EWMA smoothing factor for the class-cost estimates, in (0, 1];
    /// higher weights recent observations more.
    pub alpha: f64,
}

impl Default for ProfitParams {
    fn default() -> Self {
        ProfitParams {
            explore_samples: 48,
            refresh_samples: 16,
            reeval_every: 512,
            hysteresis: 0.10,
            alpha: 0.05,
        }
    }
}

/// Where a template sits in the explore/commit loop.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Phase {
    /// Serving [`Scheme::FullSemantic`] to observe the relationship
    /// mix; decides (or re-decides) after `remaining` more requests.
    Explore { remaining: u32 },
    /// Serving the chosen scheme; re-explores after `until_reeval`
    /// more requests.
    Committed { until_reeval: u32 },
}

/// Per-serve-class observation slots, indexed by [`Outcome`].
const CLASSES: usize = 5;

fn class_index(outcome: Outcome) -> usize {
    match outcome {
        Outcome::Exact => 0,
        Outcome::Contained => 1,
        Outcome::RegionContainment => 2,
        Outcome::Overlap => 3,
        Outcome::Forwarded => 4,
    }
}

/// One template's running estimates.
#[derive(Debug, Clone)]
struct TemplateProfit {
    phase: Phase,
    /// Current scheme choice (starts at full semantic for exploration).
    scheme: Scheme,
    /// Relationship-mix counts observed during exploration windows.
    mix: [u64; CLASSES],
    /// EWMA response time per serve class, ms; `None` until observed.
    class_ms: [Option<f64>; CLASSES],
    /// EWMA of rows served from cache per request (the reuse signal
    /// behind the time-saved-per-byte estimate).
    reused_rows: f64,
    /// EWMA of total rows returned per request.
    total_rows: f64,
    /// Total requests observed.
    samples: u64,
}

impl TemplateProfit {
    fn new(params: &ProfitParams) -> Self {
        TemplateProfit {
            phase: Phase::Explore {
                remaining: params.explore_samples,
            },
            scheme: Scheme::FullSemantic,
            mix: [0; CLASSES],
            class_ms: [None; CLASSES],
            reused_rows: 0.0,
            total_rows: 0.0,
            samples: 0,
        }
    }

    fn ewma(slot: &mut Option<f64>, value: f64, alpha: f64) {
        *slot = Some(match *slot {
            Some(prev) => prev + alpha * (value - prev),
            None => value,
        });
    }

    /// Expected per-request response time under `scheme`, given the
    /// observed mix and class costs. Classes the scheme does not handle
    /// are served at the forward price; classes never yet observed cost
    /// the forward price too (no evidence of benefit ⇒ none assumed).
    fn expected_ms(&self, scheme: Scheme) -> f64 {
        let total: u64 = self.mix.iter().sum();
        if total == 0 {
            return f64::INFINITY;
        }
        // Without a single observed forward we have no baseline; treat
        // the origin as free so the model refuses to commit (callers
        // stay in exploration until a forward has been seen).
        let forward_ms = match self.class_ms[class_index(Outcome::Forwarded)] {
            Some(ms) => ms,
            None => return f64::INFINITY,
        };
        let class_cost = |class: usize, handled: bool| -> f64 {
            if !handled {
                return forward_ms;
            }
            self.class_ms[class].unwrap_or(forward_ms)
        };
        let handled = |outcome: Outcome| match outcome {
            Outcome::Exact => scheme.caches(),
            Outcome::Contained => scheme.is_active(),
            Outcome::RegionContainment => scheme.handles_region_containment(),
            Outcome::Overlap => scheme.handles_overlap(),
            Outcome::Forwarded => false,
        };
        let mut sum = 0.0;
        for outcome in [
            Outcome::Exact,
            Outcome::Contained,
            Outcome::RegionContainment,
            Outcome::Overlap,
            Outcome::Forwarded,
        ] {
            let class = class_index(outcome);
            sum += self.mix[class] as f64 * class_cost(class, handled(outcome));
        }
        sum / total as f64
    }

    /// Estimated milliseconds saved per row held, relative to
    /// forwarding everything — the "time saved per byte" figure of
    /// ROADMAP item 4, with the EWMA result row count standing in for
    /// bytes (rows are what both tiers charge by).
    fn saved_ms_per_row(&self, scheme: Scheme) -> f64 {
        let baseline = self.expected_ms(Scheme::NoCache);
        let cost = self.expected_ms(scheme);
        if !baseline.is_finite() || !cost.is_finite() || self.total_rows <= 0.0 {
            return 0.0;
        }
        (baseline - cost) / self.total_rows
    }
}

/// A snapshot of one template's estimates, for observability and tests.
#[derive(Debug, Clone, PartialEq)]
pub struct ProfitEstimate {
    /// The scheme currently chosen for the template.
    pub scheme: Scheme,
    /// Whether the template is in an exploration window (serving full
    /// semantic caching regardless of `scheme`).
    pub exploring: bool,
    /// Requests observed so far.
    pub samples: u64,
    /// Expected per-request response time of the chosen scheme, ms.
    pub expected_ms: f64,
    /// Expected per-request response time of forwarding everything, ms.
    pub no_cache_ms: f64,
    /// Estimated ms saved per result row held, vs. forwarding.
    pub saved_ms_per_row: f64,
}

/// The adaptive cost model: per-template profit estimates plus the
/// scheme decisions derived from them. One instance lives in the
/// runtime; `observe` is called once per finished request and
/// `scheme_for` once per arriving request.
pub struct ProfitModel {
    params: ProfitParams,
    templates: Mutex<HashMap<String, TemplateProfit>>,
    switches: AtomicUsize,
}

impl ProfitModel {
    /// A model with the given tunables.
    pub fn new(params: ProfitParams) -> Self {
        ProfitModel {
            params,
            templates: Mutex::new(HashMap::new()),
            switches: AtomicUsize::new(0),
        }
    }

    /// The scheme to serve `template`'s next request with. Unknown and
    /// exploring templates serve full semantic caching (the only scheme
    /// that observes every relationship class).
    pub fn scheme_for(&self, template: &str) -> Scheme {
        let templates = self.templates.lock().expect("profit lock");
        match templates.get(template) {
            Some(t) => match t.phase {
                Phase::Explore { .. } => Scheme::FullSemantic,
                Phase::Committed { .. } => t.scheme,
            },
            None => Scheme::FullSemantic,
        }
    }

    /// Folds one finished request into the template's estimates and
    /// advances its explore/commit state machine.
    pub fn observe(&self, template: &str, metrics: &QueryMetrics) {
        let mut templates = self.templates.lock().expect("profit lock");
        let t = templates
            .entry(template.to_string())
            .or_insert_with(|| TemplateProfit::new(&self.params));
        t.samples += 1;
        let class = class_index(metrics.outcome);
        TemplateProfit::ewma(
            &mut t.class_ms[class],
            metrics.response_ms,
            self.params.alpha,
        );
        let alpha = self.params.alpha;
        t.reused_rows += alpha * (metrics.rows_from_cache as f64 - t.reused_rows);
        t.total_rows += alpha * (metrics.rows_total as f64 - t.total_rows);
        match t.phase {
            Phase::Explore { remaining } => {
                // Only exploration requests update the relationship
                // mix: they are the ones served by the scheme that can
                // observe every class.
                t.mix[class] += 1;
                if remaining > 1 {
                    t.phase = Phase::Explore {
                        remaining: remaining - 1,
                    };
                } else if self.decide(t) {
                    t.phase = Phase::Committed {
                        until_reeval: self.params.reeval_every,
                    };
                } else {
                    // No baseline yet (not one forward observed):
                    // keep exploring a short window at a time.
                    t.phase = Phase::Explore {
                        remaining: self.params.refresh_samples,
                    };
                }
            }
            Phase::Committed { until_reeval } => {
                if until_reeval > 1 {
                    t.phase = Phase::Committed {
                        until_reeval: until_reeval - 1,
                    };
                } else {
                    t.phase = Phase::Explore {
                        remaining: self.params.refresh_samples,
                    };
                }
            }
        }
    }

    /// Picks the cheapest scheme for `t`, honouring hysteresis against
    /// the incumbent. Returns `false` when no decision is possible yet
    /// (no forward observed ⇒ no baseline).
    fn decide(&self, t: &mut TemplateProfit) -> bool {
        let mut best = t.scheme;
        let mut best_ms = t.expected_ms(t.scheme);
        if !best_ms.is_finite() {
            return false;
        }
        for scheme in Scheme::all() {
            let ms = t.expected_ms(scheme);
            if ms < best_ms * (1.0 - self.params.hysteresis) {
                best = scheme;
                best_ms = ms;
            }
        }
        if best != t.scheme {
            t.scheme = best;
            self.switches.fetch_add(1, Ordering::Relaxed);
        }
        true
    }

    /// How many times any template's committed scheme has changed.
    pub fn switches(&self) -> usize {
        self.switches.load(Ordering::Relaxed)
    }

    /// The template's current estimates, when it has been observed.
    pub fn estimate(&self, template: &str) -> Option<ProfitEstimate> {
        let templates = self.templates.lock().expect("profit lock");
        let t = templates.get(template)?;
        Some(ProfitEstimate {
            scheme: t.scheme,
            exploring: matches!(t.phase, Phase::Explore { .. }),
            samples: t.samples,
            expected_ms: t.expected_ms(t.scheme),
            no_cache_ms: t.expected_ms(Scheme::NoCache),
            saved_ms_per_row: t.saved_ms_per_row(t.scheme),
        })
    }

    /// Number of templates tracked.
    pub fn templates_tracked(&self) -> usize {
        self.templates.lock().expect("profit lock").len()
    }
}

impl Default for ProfitModel {
    fn default() -> Self {
        Self::new(ProfitParams::default())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn metrics(outcome: Outcome, response_ms: f64) -> QueryMetrics {
        QueryMetrics {
            outcome,
            response_ms,
            sim_ms: response_ms,
            rows_total: 100,
            rows_from_cache: if outcome == Outcome::Forwarded {
                0
            } else {
                100
            },
            ..QueryMetrics::default()
        }
    }

    fn drive(model: &ProfitModel, template: &str, rounds: usize, overlap_ms: f64) {
        // A mix where overlap handling saves (or costs) `overlap_ms`
        // relative to the 1000 ms forward price.
        for _ in 0..rounds {
            model.observe(template, &metrics(Outcome::Exact, 5.0));
            model.observe(template, &metrics(Outcome::Contained, 20.0));
            model.observe(template, &metrics(Outcome::Overlap, overlap_ms));
            model.observe(template, &metrics(Outcome::Forwarded, 1000.0));
        }
    }

    #[test]
    fn unknown_templates_explore_with_full_semantic() {
        let model = ProfitModel::default();
        assert_eq!(model.scheme_for("fresh"), Scheme::FullSemantic);
        assert_eq!(model.switches(), 0);
        assert!(model.estimate("fresh").is_none());
    }

    #[test]
    fn cheap_remainders_commit_to_full_semantic() {
        let model = ProfitModel::default();
        drive(&model, "t", 64, 300.0); // remainder far cheaper than forward
        assert_eq!(model.scheme_for("t"), Scheme::FullSemantic);
        assert_eq!(model.switches(), 0, "staying put is not a switch");
        let est = model.estimate("t").unwrap();
        assert!(!est.exploring);
        assert!(est.expected_ms < est.no_cache_ms);
        assert!(est.saved_ms_per_row > 0.0);
    }

    #[test]
    fn expensive_remainders_switch_overlap_handling_off() {
        let model = ProfitModel::default();
        // Remainder trips cost *more* than a full fetch — the paper's
        // "First loses" regime. The model should abandon overlap
        // handling (Second/Third) once the exploration window closes.
        drive(&model, "t", 64, 1600.0);
        let chosen = model.scheme_for("t");
        assert!(
            !chosen.handles_overlap(),
            "expensive remainders must switch overlap handling off, got {chosen}"
        );
        assert!(chosen.caches(), "caching still pays for exact/contained");
        assert_eq!(model.switches(), 1);
    }

    #[test]
    fn committed_templates_periodically_re_explore() {
        let params = ProfitParams {
            explore_samples: 8,
            refresh_samples: 4,
            reeval_every: 16,
            ..ProfitParams::default()
        };
        let model = ProfitModel::new(params);
        drive(&model, "t", 4, 300.0); // 16 observations: explore + commit
        let committed = model.estimate("t").unwrap();
        assert!(!committed.exploring);
        drive(&model, "t", 2, 300.0); // 8 committed requests → re-explore
        let refreshed = model.estimate("t").unwrap();
        assert!(
            refreshed.exploring,
            "after reeval_every committed requests the template re-explores"
        );
        assert_eq!(
            model.scheme_for("t"),
            Scheme::FullSemantic,
            "re-exploration serves full semantic to observe the mix"
        );
    }

    #[test]
    fn hysteresis_resists_small_differences() {
        let model = ProfitModel::new(ProfitParams {
            explore_samples: 8,
            ..ProfitParams::default()
        });
        // Overlap handling a hair more expensive than forwarding: not
        // enough to clear the 10% hysteresis bar, so the incumbent
        // (full semantic) stays.
        drive(&model, "t", 16, 1020.0);
        assert_eq!(model.scheme_for("t"), Scheme::FullSemantic);
        assert_eq!(model.switches(), 0);
    }
}
