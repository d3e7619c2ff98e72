//! The row API and the document API are two sinks of one serving
//! pipeline. Two identical handles are warmed the same way; one answers
//! through [`ProxyHandle::handle_form`] (rows), the other through
//! [`ProxyHandle::handle_form_doc`] (a slab document). For every cache
//! relationship — RAM and disk hits, degraded merges, the no-cache
//! scheme, unregistered SQL — the serialized rows must equal the
//! flattened document byte for byte, and the two metrics records must
//! agree on everything but wall time.

use fp_suite::proxy::metrics::Outcome;
use fp_suite::proxy::template::TemplateManager;
use fp_suite::proxy::{
    ChaosOrigin, DocResponse, Fault, Origin, OriginError, ProxyConfig, ProxyHandle, ProxyResponse,
    Scheme, SiteOrigin,
};
use fp_suite::skyserver::result::QueryOutcome;
use fp_suite::skyserver::{Catalog, CatalogSpec, SkySite};
use fp_suite::sqlmini::{Query, Value};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, OnceLock};

fn site() -> SkySite {
    static SITE: OnceLock<SkySite> = OnceLock::new();
    SITE.get_or_init(|| {
        SkySite::new(Catalog::generate(&CatalogSpec {
            seed: 11,
            objects: 12_000,
            ..CatalogSpec::default()
        }))
    })
    .clone()
}

fn radial(ra: f64, dec: f64, radius: f64) -> Vec<(String, String)> {
    vec![
        ("ra".to_string(), format!("{ra:.4}")),
        ("dec".to_string(), format!("{dec:.4}")),
        ("radius".to_string(), format!("{radius:.4}")),
    ]
}

/// A containing cone, a cone inside it, and one far from both.
const BIG: (f64, f64, f64) = (185.0, 0.0, 12.0);
const INSIDE: (f64, f64, f64) = (185.02, 0.01, 4.0);
const FAR: (f64, f64, f64) = (200.0, 10.0, 12.0);

fn handle(origin: Arc<dyn Origin>, config: ProxyConfig) -> ProxyHandle {
    ProxyHandle::with_shards(TemplateManager::with_sky_defaults(), origin, config, 1)
}

fn warm(h: &ProxyHandle, cones: &[(f64, f64, f64)]) {
    for &(ra, dec, radius) in cones {
        h.handle_form("/search/radial", &radial(ra, dec, radius))
            .expect("warm-up serves");
    }
}

/// The twins' answers agree: rows byte for byte, metrics field by field.
fn assert_twins(case: &str, rows: &ProxyResponse, doc: DocResponse) {
    let (r, d) = (&rows.metrics, &doc.metrics);
    assert_eq!(r.outcome, d.outcome, "{case}: outcome");
    assert_eq!(r.rows_total, d.rows_total, "{case}: rows_total");
    assert_eq!(
        r.rows_from_cache, d.rows_from_cache,
        "{case}: rows_from_cache"
    );
    assert_eq!(r.rows_scanned, d.rows_scanned, "{case}: rows_scanned");
    assert_eq!(r.rows_pruned, d.rows_pruned, "{case}: rows_pruned");
    assert_eq!(r.degraded, d.degraded, "{case}: degraded");
    assert_eq!(r.stale, d.stale, "{case}: stale");
    assert_eq!(r.disk_hit, d.disk_hit, "{case}: disk_hit");
    assert_eq!(r.local_fallback, d.local_fallback, "{case}: local_fallback");
    assert_eq!(r.sim_ms, d.sim_ms, "{case}: sim_ms");
    assert_eq!(
        rows.result.to_xml_string().into_bytes(),
        doc.flatten().body,
        "{case}: body"
    );
}

/// Serves `cone` through both APIs, one twin each.
fn serve_twins(
    rows: &ProxyHandle,
    doc: &ProxyHandle,
    (ra, dec, radius): (f64, f64, f64),
) -> (ProxyResponse, DocResponse) {
    let fields = radial(ra, dec, radius);
    let r = rows.handle_form("/search/radial", &fields).expect("rows");
    let d = doc.handle_form_doc("/search/radial", &fields).expect("doc");
    (r, d)
}

#[test]
fn ram_hits_serve_the_same_answer_to_rows_and_documents() {
    let make = || {
        let h = handle(
            Arc::new(SiteOrigin::new(site())),
            ProxyConfig::default().with_scheme(Scheme::FullSemantic),
        );
        warm(&h, &[BIG]);
        h
    };
    let (rows, doc) = (make(), make());
    for (case, cone, outcome) in [
        ("ram exact", BIG, Outcome::Exact),
        ("ram contained", INSIDE, Outcome::Contained),
    ] {
        let (r, d) = serve_twins(&rows, &doc, cone);
        assert_eq!(r.metrics.outcome, outcome, "{case}");
        assert!(r.metrics.rows_total > 0, "{case}: empty answer");
        assert_twins(case, &r, d);
    }
}

struct TierDir(PathBuf);

impl TierDir {
    fn new(name: &str) -> Self {
        let dir = std::env::temp_dir().join(format!("fp_twins_{name}_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        TierDir(dir)
    }
}

impl Drop for TierDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Bytes one cone occupies in an unbounded cache.
fn footprint(cone: (f64, f64, f64)) -> usize {
    let h = handle(Arc::new(SiteOrigin::new(site())), ProxyConfig::default());
    warm(&h, &[cone]);
    h.cache_stats().bytes
}

#[test]
fn disk_hits_serve_the_same_answer_to_rows_and_documents() {
    let (big, far) = (footprint(BIG), footprint(FAR));
    // Room for one of the two cones: warming FAR demotes BIG.
    let budget = big.max(far) + big.min(far) / 2;
    for (case, cone, outcome) in [
        ("disk exact", BIG, Outcome::Exact),
        ("disk contained", INSIDE, Outcome::Contained),
    ] {
        let dirs = [TierDir::new("rows"), TierDir::new("doc")];
        let [rows, doc] = dirs.each_ref().map(|dir| {
            let h = handle(
                Arc::new(SiteOrigin::new(site())),
                ProxyConfig::default()
                    .with_scheme(Scheme::FullSemantic)
                    .with_capacity(Some(budget))
                    .with_tier(dir.0.clone()),
            );
            warm(&h, &[BIG, FAR]);
            h
        });
        let (r, d) = serve_twins(&rows, &doc, cone);
        assert!(r.metrics.disk_hit, "{case}: not served from disk");
        assert_eq!(r.metrics.outcome, outcome, "{case}");
        assert_twins(case, &r, d);
        rows.quiesce_revalidations();
        doc.quiesce_revalidations();
    }
}

#[test]
fn degraded_merges_serve_the_same_answer_to_rows_and_documents() {
    // Region containment: the query contains both cached cones. Overlap:
    // the query straddles one cached cone.
    let containment = (
        [(185.0, 0.0, 3.0), (185.05, 0.0, 3.0)],
        (185.025, 0.0, 10.0),
        Outcome::RegionContainment,
    );
    let overlap = (
        [(185.0, 0.0, 8.0), (185.0, 0.0, 8.0)],
        (185.15, 0.0, 8.0),
        Outcome::Overlap,
    );
    for (case, (cached, query, outcome)) in [
        ("degraded region containment", containment),
        ("degraded overlap", overlap),
    ] {
        let make = || {
            let chaos = Arc::new(ChaosOrigin::new(Arc::new(SiteOrigin::new(site()))));
            let h = handle(
                Arc::clone(&chaos) as Arc<dyn Origin>,
                ProxyConfig::default().with_scheme(Scheme::FullSemantic),
            );
            warm(&h, &cached);
            chaos.set_default_fault(Fault::Unavailable);
            h
        };
        let (rows, doc) = (make(), make());
        let (r, d) = serve_twins(&rows, &doc, query);
        assert!(r.metrics.degraded, "{case}: not degraded");
        assert_eq!(r.metrics.outcome, outcome, "{case}");
        assert_twins(case, &r, d);
    }
}

#[test]
fn uncached_forwards_serve_the_same_answer_to_rows_and_documents() {
    let make = |scheme| {
        handle(
            Arc::new(SiteOrigin::new(site())),
            ProxyConfig::default().with_scheme(scheme),
        )
    };
    let (rows, doc) = (make(Scheme::NoCache), make(Scheme::NoCache));
    let (r, d) = serve_twins(&rows, &doc, BIG);
    assert_eq!(r.metrics.outcome, Outcome::Forwarded);
    assert_twins("no-cache scheme", &r, d);

    // SQL that matches no template is forwarded uncached under any scheme.
    let (rows, doc) = (make(Scheme::FullSemantic), make(Scheme::FullSemantic));
    let raw = "SELECT TOP 3 p.objID FROM fGetNearbyObjEq(185.0, 0.0, 20.0) n \
               JOIN PhotoPrimary p ON n.objID = p.objID WHERE p.r < 19.0";
    let r = rows.handle_sql(raw).expect("rows");
    let d = doc.handle_sql_doc(raw).expect("doc");
    assert_eq!(r.metrics.outcome, Outcome::Forwarded);
    assert_twins("unregistered sql", &r, d);
}

/// An origin whose answers, while `corrupt` is set, carry a non-numeric
/// `cx` in their first row: such an answer builds no columnar form.
struct CorruptCoords {
    inner: SiteOrigin,
    corrupt: AtomicBool,
}

impl Origin for CorruptCoords {
    fn execute(&self, query: &Query) -> Result<QueryOutcome, OriginError> {
        let mut outcome = self.inner.execute(query)?;
        if self.corrupt.load(Ordering::SeqCst) {
            let cx = outcome.result.column_index("cx").expect("cx column");
            if let Some(row) = outcome.result.rows.first_mut() {
                row[cx] = Value::Str("garbled".into());
            }
        }
        Ok(outcome)
    }
}

/// An answer whose coordinates build no columnar form is served to
/// either API as twins and not cached, so a query inside it later is a
/// plain forward, not a fallback from a malformed entry.
#[test]
fn a_malformed_answer_is_served_but_not_cached_on_either_api() {
    let make = || {
        let origin = Arc::new(CorruptCoords {
            inner: SiteOrigin::new(site()),
            corrupt: AtomicBool::new(true),
        });
        let h = handle(
            Arc::clone(&origin) as Arc<dyn Origin>,
            ProxyConfig::default().with_scheme(Scheme::FullSemantic),
        );
        (h, origin)
    };
    let ((rows, rows_origin), (doc, doc_origin)) = (make(), make());
    let (r, d) = serve_twins(&rows, &doc, BIG);
    assert_eq!(r.metrics.outcome, Outcome::Forwarded);
    assert!(r.metrics.rows_total > 0, "empty answer");
    assert_twins("malformed answer", &r, d);
    for (api, h) in [("rows", &rows), ("doc", &doc)] {
        assert_eq!(h.cache_stats().entries, 0, "{api}: the answer was cached");
    }

    rows_origin.corrupt.store(false, Ordering::SeqCst);
    doc_origin.corrupt.store(false, Ordering::SeqCst);
    let (r, d) = serve_twins(&rows, &doc, INSIDE);
    assert_eq!(r.metrics.outcome, Outcome::Forwarded);
    assert!(
        !r.metrics.local_fallback,
        "nothing cached to fall back from"
    );
    for (api, h) in [("rows", &rows), ("doc", &doc)] {
        assert_eq!(h.runtime_stats().local_eval_fallbacks, 0, "{api}");
    }
    assert_twins("inside a malformed answer", &r, d);
}
