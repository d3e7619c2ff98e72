//! A minimal XML parser and writer.
//!
//! The paper's function templates are XML files (its Figure 3 shows the
//! template of `fGetNearbyObjEq`), and the proxy of the paper stores query
//! results as XML documents. This crate implements exactly the XML subset
//! those artifacts need — elements, attributes, text with entity escaping,
//! comments, processing instructions/declarations (skipped) — with
//! positioned parse errors and a round-tripping writer. It has no
//! dependencies and makes no attempt at DTDs, namespaces, or CDATA.
//!
//! ```
//! use fp_xmlite::Element;
//!
//! let doc = Element::parse("<FunctionTemplate>\
//!     <Name>fGetNearByObjEq</Name>\
//!     <Shape>hypersphere</Shape>\
//! </FunctionTemplate>").unwrap();
//! assert_eq!(doc.name(), "FunctionTemplate");
//! assert_eq!(doc.child_text("Name"), Some("fGetNearByObjEq"));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod escape;
mod parser;
mod writer;

pub use escape::{escape_text, escape_text_into, escaped_len, unescape_text};

/// A node in an XML element tree.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum XmlNode {
    /// A child element.
    Element(Element),
    /// A text run (already unescaped).
    Text(String),
}

/// An XML element: name, attributes in document order, and children.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Element {
    name: String,
    attrs: Vec<(String, String)>,
    children: Vec<XmlNode>,
}

impl Element {
    /// Creates an empty element.
    pub fn new(name: impl Into<String>) -> Self {
        Element {
            name: name.into(),
            attrs: Vec::new(),
            children: Vec::new(),
        }
    }

    /// Parses a document and returns its root element.
    ///
    /// # Errors
    /// Returns a positioned [`XmlError`] on malformed input.
    pub fn parse(input: &str) -> Result<Element, XmlError> {
        parser::parse_document(input)
    }

    /// Element name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Attributes in document order.
    pub fn attrs(&self) -> &[(String, String)] {
        &self.attrs
    }

    /// Value of attribute `name`, if present.
    pub fn attr(&self, name: &str) -> Option<&str> {
        self.attrs
            .iter()
            .find(|(k, _)| k == name)
            .map(|(_, v)| v.as_str())
    }

    /// Sets (or replaces) an attribute; returns `self` for chaining.
    pub fn with_attr(mut self, name: impl Into<String>, value: impl Into<String>) -> Self {
        let name = name.into();
        let value = value.into();
        if let Some(slot) = self.attrs.iter_mut().find(|(k, _)| *k == name) {
            slot.1 = value;
        } else {
            self.attrs.push((name, value));
        }
        self
    }

    /// Appends a child element; returns `self` for chaining.
    pub fn with_child(mut self, child: Element) -> Self {
        self.children.push(XmlNode::Element(child));
        self
    }

    /// Appends a text node; returns `self` for chaining.
    pub fn with_text(mut self, text: impl Into<String>) -> Self {
        self.children.push(XmlNode::Text(text.into()));
        self
    }

    /// Appends a child element in place.
    pub fn push_child(&mut self, child: Element) {
        self.children.push(XmlNode::Element(child));
    }

    /// All child nodes.
    pub fn children(&self) -> &[XmlNode] {
        &self.children
    }

    /// Child elements only.
    pub fn child_elements(&self) -> impl Iterator<Item = &Element> {
        self.children.iter().filter_map(|n| match n {
            XmlNode::Element(e) => Some(e),
            XmlNode::Text(_) => None,
        })
    }

    /// First child element named `name`.
    pub fn child(&self, name: &str) -> Option<&Element> {
        self.child_elements().find(|e| e.name == name)
    }

    /// All child elements named `name`.
    pub fn children_named<'a>(&'a self, name: &'a str) -> impl Iterator<Item = &'a Element> + 'a {
        self.child_elements().filter(move |e| e.name == name)
    }

    /// Concatenated text content of this element (direct text children,
    /// trimmed).
    pub fn text(&self) -> String {
        let mut out = String::new();
        for n in &self.children {
            if let XmlNode::Text(t) = n {
                out.push_str(t);
            }
        }
        out.trim().to_string()
    }

    /// Trimmed text of the first child element named `name`.
    ///
    /// Returns `None` when there is no such child. The returned slice
    /// borrows from the child's single text node when possible.
    pub fn child_text(&self, name: &str) -> Option<&str> {
        let child = self.child(name)?;
        // Fast path: exactly one text child.
        match child.children.as_slice() {
            [XmlNode::Text(t)] => Some(t.trim()),
            [] => Some(""),
            _ => None,
        }
    }

    /// Serializes the element as a compact document (no pretty printing).
    pub fn to_xml(&self) -> String {
        let mut out = Vec::new();
        writer::write_compact(self, &mut out);
        // Names, attribute keys and escaped text are all `&str` bytes.
        String::from_utf8(out).expect("element serialization is UTF-8")
    }

    /// Serializes the element with two-space indentation.
    pub fn to_xml_pretty(&self) -> String {
        let mut out = String::new();
        writer::write_pretty(self, 0, &mut out);
        out
    }
}

/// A positioned XML parse error.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct XmlError {
    /// Byte offset of the error in the input.
    pub offset: usize,
    /// 1-based line number.
    pub line: usize,
    /// Description of what went wrong.
    pub message: String,
}

impl std::fmt::Display for XmlError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "XML error at line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for XmlError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_api_roundtrips() {
        let e = Element::new("Params")
            .with_attr("count", "3")
            .with_child(Element::new("P1").with_text("$ra"))
            .with_child(Element::new("P2").with_text("$dec"));
        assert_eq!(e.attr("count"), Some("3"));
        assert_eq!(e.child_text("P1"), Some("$ra"));
        let parsed = Element::parse(&e.to_xml()).unwrap();
        assert_eq!(parsed, e);
        let pretty = Element::parse(&e.to_xml_pretty()).unwrap();
        assert_eq!(pretty.child_text("P2"), Some("$dec"));
    }

    #[test]
    fn with_attr_replaces() {
        let e = Element::new("a").with_attr("k", "1").with_attr("k", "2");
        assert_eq!(e.attrs().len(), 1);
        assert_eq!(e.attr("k"), Some("2"));
    }

    #[test]
    fn child_lookup() {
        let doc =
            Element::parse("<r><a>1</a><b>2</b><a>3</a><mixed>x<i/>y</mixed><empty/></r>").unwrap();
        assert_eq!(doc.child_text("a"), Some("1"));
        assert_eq!(doc.children_named("a").count(), 2);
        assert_eq!(doc.child("c"), None);
        // Mixed content has no single text
        assert_eq!(doc.child_text("mixed"), None);
        assert_eq!(doc.child_text("empty"), Some(""));
    }

    #[test]
    fn text_concatenates_and_trims() {
        let doc = Element::parse("<t>  hello <b>bold</b> world </t>").unwrap();
        assert_eq!(doc.text(), "hello  world");
    }
}
