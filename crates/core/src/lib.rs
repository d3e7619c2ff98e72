//! # funcproxy — template-based proxy caching for table-valued functions
//!
//! This crate is the primary contribution of Luo & Xue's *function proxy*
//! paper: a web proxy that caches the results of **function-embedded
//! queries** (SQL queries calling table-valued functions, like SkyServer's
//! Radial search) and answers new queries from previously cached ones by
//! reasoning about the **spatial regions** the functions select.
//!
//! ## How a request flows
//!
//! 1. An HTTP form request (`/search/radial?ra=185&dec=1.5&radius=30`)
//!    arrives. The [`template::TemplateManager`] looks up the registered
//!    **information file** for that form, binds the form fields to the
//!    form's **function-embedded query template**, and uses the embedded
//!    function's **function template** (an XML description of its spatial
//!    semantics, paper Fig. 3) to build the query's [`fp_geometry::Region`].
//! 2. The [`runtime::ProxyHandle`] classifies the new query against the
//!    **cache description** (array or R-tree over cached query regions):
//!    exact match / contained / region containment / overlapping /
//!    disjoint.
//! 3. Depending on the configured [`schemes::Scheme`], the proxy serves
//!    the result from the cache (local spatial selection over cached
//!    tuples), synthesizes a **remainder query** for the origin site's SQL
//!    endpoint and merges, or simply forwards the query.
//!
//! ## Crate layout
//!
//! * [`template`] — function templates, query templates, info files.
//! * [`cache`] — the result store with size-bounded LRU replacement, the
//!   two cache-description implementations (ACNR array / ACR R-tree), and
//!   the disk tier — the cache's only on-disk form, and so its
//!   persistence across restarts.
//! * [`query`] — relationship classification, local evaluation of subsumed
//!   queries, remainder-query synthesis, result merging.
//! * [`schemes`] — the five caching schemes of the paper's evaluation
//!   (no-cache, passive, and the three active variants).
//! * [`origin`] — the origin-site abstraction (in-process synthetic
//!   SkyServer, or any callback).
//! * [`sim`] — the WAN/server cost model that converts execution
//!   statistics into simulated milliseconds.
//! * [`metrics`] — the per-query record and trace aggregates.
//! * [`runtime`] — the proxy itself: sharded cache locks, single-flight
//!   origin coalescing, and the `Arc`-cloneable
//!   [`runtime::ProxyHandle`] that the `fp-edge` reactor serves and the
//!   paper's experiments replay through.
//! * [`resilience`] — the fault-tolerant fetch path: deadlines,
//!   retry/backoff, the per-origin circuit breaker, and the chaos
//!   injection harness behind degraded serving.
//! * [`lifecycle`] — cache freshness: per-template TTLs, data-release
//!   epochs, and stale-while-revalidate / stale-if-error serving windows.
//! * [`observe`] — per-phase latency histograms, outcome-class latency
//!   distributions, and sampled trace spans behind the `/metrics` and
//!   `/debug/trace` endpoints.
//! * [`cluster`] — the proxy fleet: residual keys slot-sharded across
//!   N nodes by rendezvous hashing, SWIM-style gossip membership with
//!   failure detection on the injectable clock, and peer-assisted
//!   misses that probe the owning node's cache before paying for
//!   origin traffic.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cache;
pub mod cluster;
pub mod config;
pub mod lifecycle;
pub mod metrics;
pub mod observe;
pub mod origin;
pub mod query;
pub mod resilience;
pub mod runtime;
pub mod schemes;
pub mod sim;
pub mod template;

/// The paper's caching schemes end to end: each test drives a one-shard
/// [`runtime::ProxyHandle`] through one scheme and checks its outcomes,
/// and its rows against the origin under [`Scheme::NoCache`].
#[cfg(test)]
mod proxy {
    mod tests;
}

pub use cache::{ProfitEstimate, ProfitModel, ProfitParams};
pub use cluster::{ClusterRouter, NodeId, ServedBy};
pub use config::{ProxyConfig, SchemeChoice};
pub use lifecycle::{Freshness, LifecycleConfig};
pub use observe::{LatencySummary, ObserveConfig, Observer};
pub use origin::{CountingOrigin, Origin, OriginError, SiteOrigin};
pub use resilience::{ChaosOrigin, Fault, ResilienceConfig, ResilientOrigin};
pub use runtime::{DocResponse, ProxyHandle, ProxyResponse, XmlBody, XmlResponse};
pub use schemes::Scheme;
pub use sim::CostModel;

/// Errors surfaced by the proxy.
///
/// `Clone` so single-flight leaders can publish one failure to every
/// coalesced follower.
#[derive(Debug, Clone)]
pub enum ProxyError {
    /// The request did not match any registered form or template.
    UnknownForm(String),
    /// A form field was missing or malformed.
    BadRequest(String),
    /// Template registration problems (bad XML/SQL, inconsistent shapes).
    Template(String),
    /// The origin site failed.
    Origin(OriginError),
}

impl std::fmt::Display for ProxyError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ProxyError::UnknownForm(p) => write!(f, "no registered form at `{p}`"),
            ProxyError::BadRequest(m) => write!(f, "bad request: {m}"),
            ProxyError::Template(m) => write!(f, "template error: {m}"),
            ProxyError::Origin(e) => write!(f, "origin error: {e}"),
        }
    }
}

impl std::error::Error for ProxyError {}

impl From<OriginError> for ProxyError {
    fn from(e: OriginError) -> Self {
        ProxyError::Origin(e)
    }
}
