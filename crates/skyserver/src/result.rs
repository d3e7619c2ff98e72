//! Query results and execution statistics.

use fp_sqlmini::Value;
use fp_xmlite::Element;

/// A tabular query result: named columns plus rows of values.
#[derive(Debug, Clone, PartialEq)]
pub struct ResultSet {
    /// Output column names, in order.
    pub columns: Vec<String>,
    /// Result rows; every row has `columns.len()` values.
    pub rows: Vec<Vec<Value>>,
}

impl ResultSet {
    /// An empty result with the given columns.
    pub fn empty(columns: Vec<String>) -> Self {
        ResultSet {
            columns,
            rows: Vec::new(),
        }
    }

    /// Index of column `name`, if present.
    pub fn column_index(&self, name: &str) -> Option<usize> {
        self.columns.iter().position(|c| c == name)
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Whether the result has no rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Serialized size in bytes of the XML document form — the unit the
    /// proxy's cache-size accounting uses (the paper stores results as XML
    /// files and bounds the cache by their total size).
    ///
    /// Counted by running the serializer into a counting sink: the
    /// length of [`Self::to_xml_string`] without building it.
    pub fn xml_bytes(&self) -> usize {
        let mut count = crate::columnar::ByteCount::default();
        crate::columnar::write_result_xml(self, &mut count);
        count.0
    }

    /// Serializes the XML document form directly into a string without
    /// building the [`Element`] tree — byte-identical to
    /// `self.to_xml().to_xml()` (pinned by tests) but one pass and one
    /// allocation.
    pub fn to_xml_string(&self) -> String {
        let bytes = crate::columnar::result_to_xml_bytes(self);
        // Only escaped UTF-8 text ever enters the buffer.
        String::from_utf8(bytes).expect("XML serialization is UTF-8")
    }

    /// Converts to the XML document the proxy stores:
    /// `<ResultSet><Columns>…</Columns><Row>…</Row>…</ResultSet>`.
    pub fn to_xml(&self) -> Element {
        let mut cols = Element::new("Columns");
        for c in &self.columns {
            cols.push_child(Element::new("C").with_text(c.clone()));
        }
        let mut root = Element::new("ResultSet").with_child(cols);
        for row in &self.rows {
            let mut r = Element::new("Row");
            for v in row {
                let cell = match v {
                    Value::Null => Element::new("V").with_attr("null", "1"),
                    other => Element::new("V").with_text(other.to_string()),
                };
                r.push_child(cell);
            }
            root.push_child(r);
        }
        root
    }

    /// Parses the XML document form back into a result set.
    ///
    /// Numeric cell text is re-coerced the same way HTML form input is, so
    /// a round-trip preserves ints/floats/strings (`Value::from_form_text`).
    pub fn from_xml(doc: &Element) -> Option<ResultSet> {
        if doc.name() != "ResultSet" {
            return None;
        }
        let columns: Vec<String> = doc
            .child("Columns")?
            .children_named("C")
            .map(|c| c.text())
            .collect();
        let mut rows = Vec::new();
        for row_el in doc.children_named("Row") {
            let mut row = Vec::with_capacity(columns.len());
            for cell in row_el.children_named("V") {
                if cell.attr("null") == Some("1") {
                    row.push(Value::Null);
                } else {
                    row.push(Value::from_form_text(&cell.text()));
                }
            }
            if row.len() != columns.len() {
                return None;
            }
            rows.push(row);
        }
        Some(ResultSet { columns, rows })
    }
}

/// Server-side execution statistics for one query, consumed by the
/// simulation cost model.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ExecStats {
    /// Candidate rows the spatial index / scans touched.
    pub rows_scanned: usize,
    /// Rows in the final result.
    pub rows_returned: usize,
    /// Serialized result size in bytes (XML form).
    pub result_bytes: usize,
}

/// A result together with its execution statistics.
#[derive(Debug, Clone)]
pub struct QueryOutcome {
    /// The result rows.
    pub result: ResultSet,
    /// Execution statistics.
    pub stats: ExecStats,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> ResultSet {
        ResultSet {
            columns: vec!["objID".into(), "ra".into(), "name".into()],
            rows: vec![
                vec![Value::Int(1), Value::Float(185.5), Value::Str("a b".into())],
                vec![Value::Int(2), Value::Float(186.0), Value::Null],
            ],
        }
    }

    #[test]
    fn xml_roundtrip() {
        let rs = sample();
        let doc = rs.to_xml();
        let back = ResultSet::from_xml(&doc).unwrap();
        assert_eq!(back, rs);
    }

    #[test]
    fn xml_roundtrip_through_text() {
        let rs = sample();
        let text = rs.to_xml().to_xml();
        let doc = Element::parse(&text).unwrap();
        let back = ResultSet::from_xml(&doc).unwrap();
        assert_eq!(back, rs);
    }

    #[test]
    fn direct_writer_matches_tree_writer() {
        let mut rs = sample();
        rs.rows.push(vec![
            Value::Int(4),
            Value::Float(2.0),
            Value::Str("needs <escaping> & \"quotes\"".into()),
        ]);
        rs.rows.push(vec![
            Value::Int(5),
            Value::Float(3.5),
            Value::Str(String::new()),
        ]);
        assert_eq!(rs.to_xml_string(), rs.to_xml().to_xml());
        assert_eq!(rs.xml_bytes(), rs.to_xml().to_xml().len());
        let empty = ResultSet::empty(vec![]);
        assert_eq!(empty.to_xml_string(), empty.to_xml().to_xml());
    }

    #[test]
    fn byte_accounting_is_positive_and_monotone() {
        let mut rs = sample();
        let small = rs.xml_bytes();
        rs.rows.push(vec![
            Value::Int(3),
            Value::Float(1.0),
            Value::Str("x".into()),
        ]);
        assert!(rs.xml_bytes() > small);
        assert!(small > 0);
    }

    #[test]
    fn column_lookup() {
        let rs = sample();
        assert_eq!(rs.column_index("ra"), Some(1));
        assert_eq!(rs.column_index("nope"), None);
        assert_eq!(rs.len(), 2);
        assert!(!rs.is_empty());
        assert!(ResultSet::empty(vec!["a".into()]).is_empty());
    }

    #[test]
    fn from_xml_rejects_malformed() {
        assert!(ResultSet::from_xml(&Element::new("Other")).is_none());
        // Row with the wrong arity.
        let doc = Element::new("ResultSet")
            .with_child(Element::new("Columns").with_child(Element::new("C").with_text("a")))
            .with_child(
                Element::new("Row")
                    .with_child(Element::new("V").with_text("1"))
                    .with_child(Element::new("V").with_text("2")),
            );
        assert!(ResultSet::from_xml(&doc).is_none());
    }
}
