//! Cache entries: one cached query and its result, wherever its rows
//! live.

use crate::cache::tier::SegRef;
use fp_geometry::{HyperRect, Region};
use fp_skyserver::ColumnarRows;
use std::sync::Arc;
use std::time::Instant;

/// One cached query, as the store keeps it: the paper's region in the
/// cache description plus its query result, whether the result's rows
/// sit in RAM or on the disk tier.
///
/// The store keeps exactly one `Entry` per id. Demotion and promotion
/// swap its [`Body`] in place; every other field is fixed for the
/// entry's lifetime. The heavy parts — the columnar form (see
/// [`Body::Ram`]), the key strings — sit behind `Arc`s so the runtime can
/// lift them out of the store's lock window and serve hits without deep
/// copies.
#[derive(Debug, Clone)]
pub struct Entry {
    /// Store-assigned id (stable for the entry's lifetime, across
    /// demotions and promotions).
    pub id: u64,
    /// Residual group key: only queries with an equal key may be answered
    /// from this entry (same template, same non-spatial parameters, same
    /// `TOP`). Shared with the store's group and exact maps.
    pub residual_key: Arc<str>,
    /// The query's spatial region.
    pub region: Region,
    /// `region.bounding_rect()`, computed once at insert and reused by
    /// the description index on insert and remove.
    pub bbox: HyperRect,
    /// Serialized XML size — the unit the paper's cache-size fractions
    /// and the simulation's transfer cost model are defined in.
    pub bytes: usize,
    /// Whether the result may have been clipped by a `TOP` limit. A
    /// truncated entry can serve exact matches but must not answer
    /// subsumed queries: tuples inside the smaller region may have been
    /// among those clipped away.
    pub truncated: bool,
    /// Canonical SQL text that produced the entry (exact-match key).
    pub exact_sql: Arc<str>,
    /// Data-release epoch the entry was fetched under. An epoch bump
    /// retires every entry stamped with a lower value. `0` when the
    /// store has no lifecycle configured.
    pub epoch: u64,
    /// When the entry was inserted, on the store's injectable clock.
    /// `None` when the store is clock-free (lifecycle inactive).
    pub inserted_at: Option<Instant>,
    /// TTL deadline; past it the entry decays through the stale →
    /// grace → dead windows (see [`crate::lifecycle::Freshness`]).
    /// `None` = the entry never expires.
    pub expires_at: Option<Instant>,
    /// Where the rows are.
    pub body: Body,
    /// The entry's slab segment, once it has one. It is written on the
    /// first demotion (or `.fpmeta` pass) and kept across promotions:
    /// entries are immutable, so its bytes never go stale and
    /// re-demotion is free.
    pub seg: Option<SegRef>,
}

/// Where an entry's rows live.
#[derive(Debug, Clone)]
pub enum Body {
    /// In RAM, charged against the cache capacity: the entry's columnar
    /// form — SoA coordinate columns, spatial micro-index, and the
    /// pre-serialized row slab every document is served from. Tuples
    /// are materialized from the slab only for the callers that need
    /// `Value`s ([`ColumnarRows::rows_of`]). A result whose coordinates
    /// build no form is served but never cached.
    Ram(Arc<ColumnarRows>),
    /// In the entry's slab segment. Everything classification and
    /// contained-row selection need stays resident; the selected row
    /// spans are spliced from the mmap'd slab.
    Disk {
        /// The columnar skeleton: coordinate columns, spans, header,
        /// column names and micro-index with an empty row slab.
        skeleton: Arc<ColumnarRows>,
    },
}

impl Entry {
    /// Whether the rows are in RAM.
    pub fn is_resident(&self) -> bool {
        matches!(self.body, Body::Ram(_))
    }

    /// The entry's form: the resident one, or the skeleton of a demoted
    /// one (its coordinates, spans, column names and micro-index).
    pub fn form(&self) -> &Arc<ColumnarRows> {
        let (Body::Ram(form) | Body::Disk { skeleton: form }) = &self.body;
        form
    }

    /// Result row count, whichever tier holds the rows.
    pub fn rows(&self) -> usize {
        self.form().len()
    }

    /// Bytes charged against the cache capacity: the XML size plus the
    /// columnar form's heap (SoA columns, micro-index, row slab) while
    /// the rows are in RAM; nothing while they are on disk.
    pub fn footprint(&self) -> usize {
        match &self.body {
            Body::Ram(form) => self.bytes + form.heap_bytes(),
            Body::Disk { .. } => 0,
        }
    }

    /// Indexes of the coordinate columns among the entry's columns, in
    /// region dimension order, whichever tier holds the rows.
    ///
    /// Returns `None` when any column is missing — which registration
    /// prevents for a form built under the same template, so callers
    /// treat `None` as "not locally evaluable".
    pub fn coord_indexes(&self, coord_columns: &[String]) -> Option<Vec<usize>> {
        let columns = self.form().columns();
        coord_columns
            .iter()
            .map(|c| columns.iter().position(|name| name == c))
            .collect()
    }
}

#[cfg(test)]
impl Entry {
    /// The RAM body's form; panics while the rows are on disk.
    pub(crate) fn ram(&self) -> &Arc<ColumnarRows> {
        match &self.body {
            Body::Ram(form) => form,
            Body::Disk { .. } => panic!("entry {} is demoted", self.id),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fp_skyserver::ResultSet;
    use fp_sqlmini::Value;

    /// Coordinate columns resolve by name among the form's columns; the
    /// form's heap is charged while it is resident.
    #[test]
    fn coord_indexes_resolve_in_order() {
        let region = Region::Rect(HyperRect::new(vec![0.0], vec![1.0]).unwrap());
        let result = ResultSet {
            columns: vec!["objID".into(), "cz".into(), "cx".into(), "cy".into()],
            rows: vec![vec![
                Value::Int(1),
                Value::Float(3.0),
                Value::Float(1.0),
                Value::Float(2.0),
            ]],
        };
        let form = Arc::new(ColumnarRows::build(&result, &[2, 3, 1]).unwrap());
        let heap = form.heap_bytes();
        let entry = Entry {
            id: 1,
            residual_key: "k".into(),
            bbox: region.bounding_rect(),
            region,
            bytes: 10,
            truncated: false,
            exact_sql: "SELECT".into(),
            epoch: 0,
            inserted_at: None,
            expires_at: None,
            body: Body::Ram(form),
            seg: None,
        };
        assert!(heap > 0);
        assert_eq!(
            entry.coord_indexes(&["cx".into(), "cy".into(), "cz".into()]),
            Some(vec![2, 3, 1])
        );
        assert_eq!(entry.coord_indexes(&["missing".into()]), None);
        assert_eq!(entry.footprint(), 10 + heap);
        assert_eq!(entry.rows(), 1);
        assert_eq!(entry.ram().rows_of(&[0]), Some(result));
    }
}
