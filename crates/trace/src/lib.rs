//! Query traces and the remote browser emulator (RBE).
//!
//! The paper's evaluation replays a real trace of 11,323 Radial-search
//! queries extracted from SkyServer web logs; with an unbounded cache,
//! 17 % of them are exact matches, 34 % are contained in earlier queries,
//! and about 9 % overlap (§4.1). The real logs are not available, so this
//! crate generates synthetic Radial traces whose *relationship mix* — the
//! only trace property the caching schemes are sensitive to — is
//! constructed to match those percentages, then verified by classification
//! against an unbounded cache ([`stats::classify_trace`]).
//!
//! [`rbe::Rbe`] is the paper's "Remote Browser Emulator": it replays a
//! trace through a [`funcproxy::ProxyHandle`] — in order from one
//! client, or dealt across many — and aggregates the response-time and
//! cache-efficiency metrics the figures report.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod generator;
pub mod rbe;
pub mod stats;
pub mod trace;

pub use generator::{RelationKind, TraceSpec};
pub use rbe::Rbe;
pub use stats::{classify_trace, TraceMix};
pub use trace::{RadialQuery, Trace};
