//! The nonblocking edge: an epoll-reactor HTTP/1.1 server with
//! admission control, built so the function proxy can face thousands of
//! concurrent client connections with a handful of threads
//! (DESIGN.md §12).
//!
//! It is the workspace's only HTTP server: `fp-httpd` supplies the
//! messages, parser and client, and a thread per connection parked on
//! reads and origin fetches is exactly what an edge cannot afford. This
//! crate splits the work the way event-driven proxies do:
//!
//! * one **reactor** thread ([`reactor::EdgeServer`]) owns the listener
//!   and every connection; nonblocking accept/read/write driven by
//!   epoll readiness, per-connection state machines for HTTP/1.1
//!   keep-alive and pipelining;
//! * a small fixed **worker pool** ([`pool::WorkerPool`]) runs requests
//!   that may block (origin fetches, single-flight waits). Cache hits
//!   never get there — the reactor serves them inline through
//!   [`service::EdgeService::try_fast`];
//! * **admission control** keeps saturation cheap: a connection cap at
//!   accept, a bounded pending-request queue in front of the pool, and
//!   breaker-aware load shedding — all answered with an immediate
//!   `503` + `Retry-After` instead of an unbounded thread or queue;
//! * a **fleet member** ([`fleet`]) is the same service plus a
//!   [`funcproxy::cluster::Node`] talking to its peers over HTTP.
//!
//! The only `unsafe` in the crate is the [`sys`] module's hand-declared
//! epoll/eventfd/signal bindings (the build environment has no `libc`
//! crate to vendor them from).

#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod conn;
pub mod fleet;
mod outq;
pub mod pool;
pub mod reactor;
pub mod service;
pub mod stats;
#[allow(unsafe_code)]
pub mod sys;

pub use reactor::{EdgeConfig, EdgeServer, INLINE_BODY_MAX};
pub use service::{EdgeService, ProxyEdgeService};
pub use stats::{EdgeSnapshot, EdgeStats};
