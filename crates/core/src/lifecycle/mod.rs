//! Cache lifecycle: TTLs, data-release epochs, and staleness windows.
//!
//! The paper's proxy assumes cached TVF results stay valid forever; a
//! deployed SkyServer proxy cannot. Survey catalogs change per **data
//! release**, so every cache entry is stamped with the release **epoch**
//! it was fetched under, and bumping the epoch retires every pre-bump
//! entry. Within one release, freshness is bounded by a per-template
//! **TTL**; an expired entry passes through three windows before it dies:
//!
//! ```text
//!  insert ──ttl──▶ expiry ──swr──▶              ──sie──▶ dead
//!  [   Fresh    ] [    Stale     ] [    Grace           ]
//!   serve normal   serve + refresh  serve only on error
//! ```
//!
//! * **Fresh** — served normally.
//! * **Stale** (within the stale-while-revalidate window) — served
//!   immediately, flagged `stale`, while a background single-flight
//!   refresh fetches the entry's own query from the origin.
//! * **Grace** (past the revalidate window but within stale-if-error) —
//!   invisible to the healthy serve path, but still served (flagged
//!   `stale`) when the origin is down: an outage *extends* expired
//!   entries instead of abandoning them.
//! * **Dead** — past every window; retired lazily on the next probe.
//!
//! All timing runs on the injectable [`crate::resilience::Clock`], so
//! every TTL, refresh, and metadata-pass decision is deterministic under
//! a `MockClock`. Surviving a restart is the disk tier's job
//! ([`crate::cache::TierConfig`]): entries carry their [`LifecycleStamp`]
//! into the slab, and the shard's `.fpmeta` carries the epoch.

use std::time::{Duration, Instant};

/// Lifecycle policy carried by [`crate::config::ProxyConfig`]. The
/// default is fully inert: no TTLs, epoch 0 — exactly the pre-lifecycle
/// behaviour.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct LifecycleConfig {
    /// TTL applied to entries whose template has no specific TTL.
    /// `None` = those entries never expire.
    pub default_ttl: Option<Duration>,
    /// Per-template TTL overrides, keyed by template name (the residual
    /// key's prefix before the first `|`).
    pub template_ttls: Vec<(String, Duration)>,
    /// How long past expiry an entry is still served (flagged `stale`)
    /// while a background refresh runs.
    pub stale_while_revalidate: Duration,
    /// How long past expiry an entry may still be served when the
    /// origin is unreachable (breaker open, outage). Typically ≥ the
    /// revalidate window.
    pub stale_if_error: Duration,
    /// The data-release epoch new entries are stamped with at startup
    /// (a warm restart adopts a higher one recorded on disk). The origin
    /// may advertise a newer one at any time
    /// ([`crate::origin::Origin::advertised_epoch`]).
    pub epoch: u64,
}

impl LifecycleConfig {
    /// Whether any lifecycle feature is configured. Inactive lifecycle
    /// keeps the store clock-free and every serve path unchanged.
    pub fn is_active(&self) -> bool {
        self.default_ttl.is_some() || !self.template_ttls.is_empty() || self.epoch > 0
    }

    /// The TTL for an entry under `residual_key` (template name is the
    /// prefix before the first `|`): the template's own TTL when one is
    /// registered, else the default.
    pub fn ttl_for(&self, residual_key: &str) -> Option<Duration> {
        let name = residual_key.split('|').next().unwrap_or(residual_key);
        self.template_ttls
            .iter()
            .find(|(t, _)| t == name)
            .map(|(_, ttl)| *ttl)
            .or(self.default_ttl)
    }

    /// The widest post-expiry window an entry may ever be served in;
    /// past it the entry is [`Freshness::Dead`].
    pub fn grace_window(&self) -> Duration {
        self.stale_while_revalidate.max(self.stale_if_error)
    }

    /// Builder: the default TTL.
    pub fn with_default_ttl(mut self, ttl: Duration) -> Self {
        self.default_ttl = Some(ttl);
        self
    }

    /// Builder: a per-template TTL override.
    pub fn with_template_ttl(mut self, template: &str, ttl: Duration) -> Self {
        self.template_ttls.push((template.to_string(), ttl));
        self
    }

    /// Builder: the stale-while-revalidate window.
    pub fn with_stale_while_revalidate(mut self, window: Duration) -> Self {
        self.stale_while_revalidate = window;
        self
    }

    /// Builder: the stale-if-error window.
    pub fn with_stale_if_error(mut self, window: Duration) -> Self {
        self.stale_if_error = window;
        self
    }

    /// Builder: the startup epoch.
    pub fn with_epoch(mut self, epoch: u64) -> Self {
        self.epoch = epoch;
        self
    }
}

/// Where an entry sits in its lifecycle (see the module docs' timeline).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Freshness {
    /// Within its TTL (or has none): served normally.
    Fresh,
    /// Expired but within stale-while-revalidate: served flagged
    /// `stale`, refreshed in the background.
    Stale,
    /// Past the revalidate window but within stale-if-error: served
    /// only when the origin fetch fails.
    Grace,
    /// Past every window: retired on the next probe.
    Dead,
}

impl Freshness {
    /// Whether an entry in this state may be served. `allow_grace` is
    /// the error path's privilege (origin down).
    pub fn serveable(self, allow_grace: bool) -> bool {
        match self {
            Freshness::Fresh | Freshness::Stale => true,
            Freshness::Grace => allow_grace,
            Freshness::Dead => false,
        }
    }
}

/// Classifies an expiry deadline against `now` under the configured
/// post-expiry windows.
pub fn freshness_at(
    expires_at: Instant,
    now: Instant,
    stale_while_revalidate: Duration,
    stale_if_error: Duration,
) -> Freshness {
    if now <= expires_at {
        return Freshness::Fresh;
    }
    let over = now.saturating_duration_since(expires_at);
    if over <= stale_while_revalidate {
        Freshness::Stale
    } else if over <= stale_while_revalidate.max(stale_if_error) {
        Freshness::Grace
    } else {
        Freshness::Dead
    }
}

/// Lifecycle metadata persisted with (and restored from) a slab
/// entry. Times are stored *relative* (age, remaining TTL) because
/// `Instant` does not survive a process restart.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LifecycleStamp {
    /// The epoch the entry was fetched under.
    pub epoch: u64,
    /// How old the entry was when it was written.
    pub age_ms: Option<u64>,
    /// TTL remaining at write time; negative = already expired by
    /// that many milliseconds (still restorable into Stale/Grace).
    pub remaining_ms: Option<i64>,
}

#[cfg(test)]
mod tests {
    use super::*;

    const MS: Duration = Duration::from_millis(1);

    #[test]
    fn default_config_is_inert() {
        let c = LifecycleConfig::default();
        assert!(!c.is_active());
        assert_eq!(c.ttl_for("radial|top=None"), None);
        assert_eq!(c.grace_window(), Duration::ZERO);
    }

    #[test]
    fn template_ttls_override_the_default() {
        let c = LifecycleConfig::default()
            .with_default_ttl(100 * MS)
            .with_template_ttl("radial", 30 * MS);
        assert!(c.is_active());
        assert_eq!(c.ttl_for("radial|top=None|r=1"), Some(30 * MS));
        assert_eq!(c.ttl_for("rect|top=None"), Some(100 * MS));
        assert_eq!(c.ttl_for("radial"), Some(30 * MS));
    }

    #[test]
    fn freshness_windows_partition_the_timeline() {
        let t0 = Instant::now();
        let exp = t0 + 100 * MS;
        let f = |now_ms: u32| freshness_at(exp, t0 + now_ms * MS, 50 * MS, 200 * MS);
        assert_eq!(f(0), Freshness::Fresh);
        assert_eq!(f(100), Freshness::Fresh, "deadline itself is fresh");
        assert_eq!(f(101), Freshness::Stale);
        assert_eq!(f(150), Freshness::Stale);
        assert_eq!(f(151), Freshness::Grace);
        assert_eq!(f(300), Freshness::Grace);
        assert_eq!(f(301), Freshness::Dead);
        assert!(Freshness::Fresh.serveable(false));
        assert!(Freshness::Stale.serveable(false));
        assert!(!Freshness::Grace.serveable(false));
        assert!(Freshness::Grace.serveable(true));
        assert!(!Freshness::Dead.serveable(true));
    }

    #[test]
    fn grace_window_covers_the_wider_window() {
        let t0 = Instant::now();
        // stale_if_error narrower than stale-while-revalidate: the
        // serve window still extends to the wider of the two.
        let f = freshness_at(t0, t0 + 80 * MS, 100 * MS, 10 * MS);
        assert_eq!(f, Freshness::Stale);
        let c = LifecycleConfig::default()
            .with_stale_while_revalidate(100 * MS)
            .with_stale_if_error(10 * MS);
        assert_eq!(c.grace_window(), 100 * MS);
    }
}
