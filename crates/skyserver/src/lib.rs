//! A synthetic SkyServer: the **origin web site** the function proxy talks to.
//!
//! The paper evaluates its proxy against the real SDSS SkyServer — terabytes
//! of sky-survey data behind a SQL Server instance exposing table-valued
//! functions such as `fGetNearbyObjEq(ra, dec, radius)` and a free-form SQL
//! search page (which the authors use as the **remainder query facility**).
//! That site cannot be bundled, so this crate rebuilds its relevant
//! behaviour from scratch:
//!
//! * [`Catalog`] — a deterministic, seeded synthetic `PhotoPrimary` catalog
//!   (clustered object positions on a sky window, photometric magnitudes),
//!   stored columnar for scan speed, with an id hash index and a 3-D
//!   spatial R-tree over unit-vector coordinates.
//! * [`tvf`] — the table-valued functions of the Radial/Rectangular search
//!   forms, evaluated against the spatial index.
//! * [`exec`] — a SQL executor for the function-embedded query class
//!   (TVF in `FROM`, hash joins on equality conditions, full expression
//!   evaluation in `WHERE`, projection, `ORDER BY`, `TOP`).
//! * [`SkySite`] — the façade the proxy sees: named-form query execution
//!   plus the free-form SQL endpoint, with per-query execution statistics
//!   (rows scanned/returned, result bytes) that the simulation's cost model
//!   converts into server-side latency.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod catalog;
pub mod columnar;
pub mod exec;
pub mod generate;
pub mod result;
pub mod site;
pub mod tvf;

pub use catalog::Catalog;
pub use columnar::{
    accounted_xml_bytes, ColumnarRows, IndexKind, SelectStats, SlabDoc, SlabOwner, FOOTER,
};
pub use generate::{CatalogSpec, SkyWindow};
pub use result::{ExecStats, ResultSet};
pub use site::{SiteError, SkySite};

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn end_to_end_radial_query() {
        let catalog = Catalog::generate(&CatalogSpec::small_test());
        let site = SkySite::new(catalog);
        let rs = site
            .execute_sql(
                "SELECT p.objID, p.ra, p.dec, p.cx, p.cy, p.cz \
                 FROM fGetNearbyObjEq(185.0, 0.0, 30.0) n \
                 JOIN PhotoPrimary p ON n.objID = p.objID",
            )
            .expect("query runs");
        assert!(
            !rs.result.rows.is_empty(),
            "30' around the hotspot has objects"
        );
        // Every returned object really is within 30 arcmin.
        let ra_i = rs.result.column_index("ra").unwrap();
        let dec_i = rs.result.column_index("dec").unwrap();
        for row in &rs.result.rows {
            let ra = row[ra_i].as_f64().unwrap();
            let dec = row[dec_i].as_f64().unwrap();
            let sep = fp_geometry::celestial::angular_separation(185.0, 0.0, ra, dec);
            assert!(sep <= fp_geometry::celestial::arcmin_to_rad(30.0) + 1e-12);
        }
    }
}
