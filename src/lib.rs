//! # fp-suite — the function-proxy workspace, under one roof
//!
//! A production-quality Rust reproduction of Luo & Xue, *"Template-Based
//! Proxy Caching for Table-Valued Functions"* (DASFAA 2004): a web proxy
//! that caches the results of SQL queries with embedded table-valued
//! functions and answers new queries from old ones by spatial-region
//! reasoning over registered templates.
//!
//! This crate re-exports every workspace member so examples and
//! downstream users can depend on one crate:
//!
//! | module | crate | contents |
//! |---|---|---|
//! | [`geometry`] | `fp-geometry` | regions (rect/sphere/polytope), relationship algebra, celestial math |
//! | [`rtree`] | `fp-rtree` | the R-tree cache-description index |
//! | [`xmlite`] | `fp-xmlite` | minimal XML for template files and result documents |
//! | [`sqlmini`] | `fp-sqlmini` | SQL lexer/parser/printer + query templates |
//! | [`skyserver`] | `fp-skyserver` | the synthetic origin site (catalog, TVFs, executor) |
//! | [`httpd`] | `fp-httpd` | minimal HTTP/1.1 server/client for the networked examples |
//! | [`trace`] | `fp-trace` | calibrated Radial traces + the remote browser emulator |
//! | [`edge`] | `fp-edge` | nonblocking epoll edge server: reactor + worker pool, admission control |
//! | [`proxy`] | `funcproxy` | **the function proxy** — templates, cache, schemes, metrics |
//!
//! ## Quickstart
//!
//! ```
//! use fp_suite::proxy::template::TemplateManager;
//! use fp_suite::proxy::{CostModel, ProxyConfig, ProxyHandle, Scheme, SiteOrigin};
//! use fp_suite::skyserver::{Catalog, CatalogSpec, SkySite};
//! use std::sync::Arc;
//!
//! // An origin web site over a synthetic sky catalog…
//! let site = SkySite::new(Catalog::generate(&CatalogSpec::small_test()));
//! // …and a function proxy in front of it.
//! let proxy = ProxyHandle::new(
//!     TemplateManager::with_sky_defaults(),
//!     Arc::new(SiteOrigin::new(site)),
//!     ProxyConfig::default().with_scheme(Scheme::FullSemantic).with_cost(CostModel::free()),
//! );
//!
//! let fields = |ra: f64, dec: f64, radius: f64| vec![
//!     ("ra".to_string(), ra.to_string()),
//!     ("dec".to_string(), dec.to_string()),
//!     ("radius".to_string(), radius.to_string()),
//! ];
//! // First query: a cache miss, forwarded to the origin.
//! let miss = proxy.handle_form("/search/radial", &fields(185.0, 0.0, 30.0)).unwrap();
//! // A smaller concentric query: answered locally from the cached result.
//! let hit = proxy.handle_form("/search/radial", &fields(185.0, 0.0, 10.0)).unwrap();
//! assert_eq!(hit.metrics.cache_efficiency(), 1.0);
//! assert!(hit.result.len() <= miss.result.len());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use fp_edge as edge;
pub use fp_geometry as geometry;
pub use fp_httpd as httpd;
pub use fp_rtree as rtree;
pub use fp_skyserver as skyserver;
pub use fp_sqlmini as sqlmini;
pub use fp_trace as trace;
pub use fp_xmlite as xmlite;
pub use funcproxy as proxy;
