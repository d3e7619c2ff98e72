//! The proxy fleet: slot-sharded peers with gossip membership, failure
//! detection, and peer-assisted degraded serving.
//!
//! One proxy box caps out on cache capacity and origin bandwidth; this
//! module turns N independent [`crate::runtime::ProxyHandle`]s into one
//! logical proxy:
//!
//! * [`slots`] — routing keys (residual key + coarse spatial cell)
//!   hash to 256 fixed slots; rendezvous hashing assigns each slot an
//!   owner among the live nodes, with the full preference order
//!   doubling as the failover chain.
//! * [`gossip`] — the SWIM claim model (incarnation numbers, `Alive <
//!   Suspect < Dead` precedence) plus the piggybacked cluster facts:
//!   data-release epochs and circuit-breaker state, so invalidation and
//!   outage awareness are fleet-wide for free.
//! * [`membership`] — the failure detector: periodic pings, indirect
//!   probes, suspect timeout, refutation-by-incarnation, all driven by
//!   the injectable [`crate::resilience::Clock`].
//! * [`peer`] — the transport seam ([`PeerTransport`]) plus a seeded
//!   lossy wrapper for chaos tests.
//! * [`node`] — one fleet member ([`Node`]) and the only copy of the
//!   fleet's rules: the serving path (epoch adoption → local cache →
//!   owner-cache probe with [`PROBE_RETRIES`] retry, failures feed the
//!   detector and fall through → local origin path), the answers to a
//!   peer's gossip and probe, and the detector tick. Peer trouble is
//!   never a client error.
//! * [`router`] — N nodes in one process over a direct-call transport,
//!   for the deterministic tests, the cluster bench and the torture
//!   harness. A real fleet runs the same [`Node`] over HTTP
//!   (`fp_edge::fleet`).

pub mod gossip;
pub mod membership;
pub mod node;
pub mod peer;
pub mod router;
pub mod slots;

pub use gossip::{decode_digest, encode_digest, GossipEntry, NodeStatus};
pub use membership::{Membership, MembershipConfig, MembershipEvent};
pub use node::{Node, ServedBy, PROBE_RETRIES};
pub use peer::{LossyTransport, PeerError, PeerTransport};
pub use router::{ClusterRouter, ClusterStats, InProcessTransport};
pub use slots::{
    owner, owner_of_key, preference, routing_key, slot_of, NodeId, ROUTE_CELL, SLOT_COUNT,
};
