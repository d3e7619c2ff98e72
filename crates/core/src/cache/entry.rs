//! Cache entries: one cached query and its result, wherever its rows
//! live.

use crate::cache::tier::SegRef;
use fp_geometry::{HyperRect, Region};
use fp_skyserver::{ColumnarRows, ResultSet};
use std::sync::Arc;
use std::time::Instant;

/// One cached query, as the store keeps it: the paper's region in the
/// cache description plus its query result, whether the result's rows
/// sit in RAM or on the disk tier.
///
/// The store keeps exactly one `Entry` per id. Demotion and promotion
/// swap its [`Body`] in place; every other field is fixed for the
/// entry's lifetime. The heavy parts — the answer (held once, see
/// [`Answer`]), the key strings — sit behind `Arc`s so the runtime can
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
    /// In RAM, charged against the cache capacity.
    Ram(Answer),
    /// In the entry's slab segment. Everything classification and
    /// contained-row selection need stays resident; the selected row
    /// spans are spliced from the mmap'd slab.
    Disk {
        /// The columnar skeleton: coordinate columns, spans, header,
        /// column names and micro-index with an empty row slab.
        skeleton: Arc<ColumnarRows>,
    },
}

/// A resident entry's answer, in exactly one representation.
#[derive(Debug, Clone)]
pub enum Answer {
    /// The columnar hot-path form: SoA coordinate columns, spatial
    /// micro-index, and the pre-serialized row slab every document is
    /// served from. Tuples are materialized from the slab only for the
    /// callers that need `Value`s ([`ColumnarRows::rows_of`]).
    Form(Arc<ColumnarRows>),
    /// Row-major tuples, for a result with no columnar form: no declared
    /// coordinate columns, or a non-numeric coordinate cell. Such
    /// entries are evaluated row-major and cannot be demoted.
    Rows(Arc<ResultSet>),
}

impl Answer {
    /// The form when there is one, the tuples otherwise.
    pub fn new(result: Arc<ResultSet>, form: Option<Arc<ColumnarRows>>) -> Answer {
        match form {
            Some(form) => Answer::Form(form),
            None => Answer::Rows(result),
        }
    }

    /// Row count.
    pub fn len(&self) -> usize {
        match self {
            Answer::Form(form) => form.len(),
            Answer::Rows(result) => result.len(),
        }
    }

    /// Whether the answer has no rows.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The result's column names.
    pub fn columns(&self) -> &[String] {
        match self {
            Answer::Form(form) => form.columns(),
            Answer::Rows(result) => &result.columns,
        }
    }

    /// The columnar form, if the answer is one.
    pub fn form(&self) -> Option<&Arc<ColumnarRows>> {
        match self {
            Answer::Form(form) => Some(form),
            Answer::Rows(_) => None,
        }
    }

    /// Every row as tuples: shared when the answer is tuples,
    /// materialized from the slab when it is a form. `None` when the
    /// slab does not parse.
    pub fn tuples(&self) -> Option<Arc<ResultSet>> {
        match self {
            Answer::Form(form) => {
                let all: Vec<u32> = (0..form.len() as u32).collect();
                form.rows_of(&all).map(Arc::new)
            }
            Answer::Rows(result) => Some(Arc::clone(result)),
        }
    }
}

impl Entry {
    /// Whether the rows are in RAM.
    pub fn is_resident(&self) -> bool {
        matches!(self.body, Body::Ram(_))
    }

    /// Result row count, whichever tier holds the rows.
    pub fn rows(&self) -> usize {
        match &self.body {
            Body::Ram(answer) => answer.len(),
            Body::Disk { skeleton } => skeleton.len(),
        }
    }

    /// Bytes charged against the cache capacity: the XML size plus the
    /// columnar form's heap (SoA columns, micro-index, row slab) while
    /// the rows are in RAM; nothing while they are on disk.
    pub fn footprint(&self) -> usize {
        match &self.body {
            Body::Ram(answer) => self.bytes + answer.form().map_or(0, |f| f.heap_bytes()),
            Body::Disk { .. } => 0,
        }
    }

    /// Indexes of the coordinate columns among a resident answer's
    /// columns, in region dimension order.
    ///
    /// Returns `None` when any column is missing — which registration
    /// prevents, so callers treat `None` as "not locally evaluable" —
    /// or when the rows are on disk.
    pub fn coord_indexes(&self, coord_columns: &[String]) -> Option<Vec<usize>> {
        let Body::Ram(answer) = &self.body else {
            return None;
        };
        let columns = answer.columns();
        coord_columns
            .iter()
            .map(|c| columns.iter().position(|name| name == c))
            .collect()
    }
}

#[cfg(test)]
impl Entry {
    /// The RAM body's answer; panics while the rows are on disk.
    pub(crate) fn ram(&self) -> &Answer {
        match &self.body {
            Body::Ram(answer) => answer,
            Body::Disk { .. } => panic!("entry {} is demoted", self.id),
        }
    }
}

/// A cached query with its rows in RAM, written out field by field: the
/// slab codec's public input ([`crate::cache::segment_header`]). The
/// store keeps [`Entry`]; a `CacheEntry` converts into a resident one,
/// which keeps the columnar form when there is one and the tuples
/// otherwise ([`Answer::new`]).
#[derive(Debug, Clone)]
pub struct CacheEntry {
    /// See [`Entry::id`].
    pub id: u64,
    /// See [`Entry::residual_key`].
    pub residual_key: Arc<str>,
    /// See [`Entry::region`].
    pub region: Region,
    /// See [`Entry::bbox`].
    pub bbox: HyperRect,
    /// The cached result tuples.
    pub result: Arc<ResultSet>,
    /// The columnar hot-path form (see [`Answer::Form`]).
    pub columnar: Option<Arc<ColumnarRows>>,
    /// See [`Entry::bytes`].
    pub bytes: usize,
    /// See [`Entry::truncated`].
    pub truncated: bool,
    /// See [`Entry::exact_sql`].
    pub exact_sql: Arc<str>,
    /// See [`Entry::epoch`].
    pub epoch: u64,
    /// See [`Entry::inserted_at`].
    pub inserted_at: Option<Instant>,
    /// See [`Entry::expires_at`].
    pub expires_at: Option<Instant>,
}

impl From<CacheEntry> for Entry {
    fn from(e: CacheEntry) -> Entry {
        Entry {
            id: e.id,
            residual_key: e.residual_key,
            region: e.region,
            bbox: e.bbox,
            bytes: e.bytes,
            truncated: e.truncated,
            exact_sql: e.exact_sql,
            epoch: e.epoch,
            inserted_at: e.inserted_at,
            expires_at: e.expires_at,
            body: Body::Ram(Answer::new(e.result, e.columnar)),
            seg: None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fp_sqlmini::Value;

    /// Coordinate columns resolve by name among the answer's columns,
    /// whichever representation holds it; only a form is charged heap.
    #[test]
    fn coord_indexes_resolve_in_order() {
        let region = Region::Rect(HyperRect::new(vec![0.0], vec![1.0]).unwrap());
        let result = Arc::new(ResultSet {
            columns: vec!["objID".into(), "cz".into(), "cx".into(), "cy".into()],
            rows: vec![vec![
                Value::Int(1),
                Value::Float(3.0),
                Value::Float(1.0),
                Value::Float(2.0),
            ]],
        });
        let form = ColumnarRows::build(&result, &[2, 3, 1]).map(Arc::new);
        for columnar in [None, form] {
            let heap = columnar.as_ref().map_or(0, |f| f.heap_bytes());
            let entry = Entry::from(CacheEntry {
                id: 1,
                residual_key: "k".into(),
                bbox: region.bounding_rect(),
                region: region.clone(),
                result: Arc::clone(&result),
                columnar,
                bytes: 10,
                truncated: false,
                exact_sql: "SELECT".into(),
                epoch: 0,
                inserted_at: None,
                expires_at: None,
            });
            assert_eq!(entry.ram().form().is_some(), heap > 0);
            assert_eq!(
                entry.coord_indexes(&["cx".into(), "cy".into(), "cz".into()]),
                Some(vec![2, 3, 1])
            );
            assert_eq!(entry.coord_indexes(&["missing".into()]), None);
            assert_eq!(entry.footprint(), 10 + heap);
            assert_eq!(entry.rows(), 1);
            assert_eq!(entry.ram().tuples().as_deref(), Some(&*result));
        }
    }
}
