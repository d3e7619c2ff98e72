//! Serialization of element trees back to XML text.

use crate::escape::{escape_text, escape_text_into};
use crate::{Element, XmlNode};

/// Writes `e` with no insignificant whitespace. The buffer is bytes so
/// text and attribute values escape straight into it.
pub(crate) fn write_compact(e: &Element, out: &mut Vec<u8>) {
    out.push(b'<');
    out.extend_from_slice(e.name().as_bytes());
    for (k, v) in e.attrs() {
        out.push(b' ');
        out.extend_from_slice(k.as_bytes());
        out.extend_from_slice(b"=\"");
        escape_text_into(v, out);
        out.push(b'"');
    }
    if e.children().is_empty() {
        out.extend_from_slice(b"/>");
        return;
    }
    out.push(b'>');
    for child in e.children() {
        match child {
            XmlNode::Element(el) => write_compact(el, out),
            XmlNode::Text(t) => escape_text_into(t, out),
        }
    }
    out.extend_from_slice(b"</");
    out.extend_from_slice(e.name().as_bytes());
    out.push(b'>');
}

/// Writes `e` with two-space indentation. Elements whose children are all
/// text are kept on one line so values stay readable.
pub(crate) fn write_pretty(e: &Element, depth: usize, out: &mut String) {
    let indent = "  ".repeat(depth);
    out.push_str(&indent);
    out.push('<');
    out.push_str(e.name());
    for (k, v) in e.attrs() {
        out.push(' ');
        out.push_str(k);
        out.push_str("=\"");
        out.push_str(&escape_text(v));
        out.push('"');
    }
    if e.children().is_empty() {
        out.push_str("/>\n");
        return;
    }
    let text_only = e.children().iter().all(|c| matches!(c, XmlNode::Text(_)));
    if text_only {
        out.push('>');
        for child in e.children() {
            if let XmlNode::Text(t) = child {
                out.push_str(&escape_text(t));
            }
        }
        out.push_str("</");
        out.push_str(e.name());
        out.push_str(">\n");
        return;
    }
    out.push_str(">\n");
    for child in e.children() {
        match child {
            XmlNode::Element(el) => write_pretty(el, depth + 1, out),
            XmlNode::Text(t) => {
                let trimmed = t.trim();
                if !trimmed.is_empty() {
                    out.push_str(&"  ".repeat(depth + 1));
                    out.push_str(&escape_text(trimmed));
                    out.push('\n');
                }
            }
        }
    }
    out.push_str(&indent);
    out.push_str("</");
    out.push_str(e.name());
    out.push_str(">\n");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn compact_roundtrip_with_specials() {
        let e = Element::new("q")
            .with_attr("sql", "SELECT * FROM t WHERE a < 5 AND b = \"x\"")
            .with_text("1 < 2 & 3");
        let xml = e.to_xml();
        let back = Element::parse(&xml).unwrap();
        assert_eq!(back, e);
    }

    #[test]
    fn pretty_output_shape() {
        let e = Element::new("root")
            .with_child(Element::new("leaf").with_text("v"))
            .with_child(Element::new("empty"));
        let pretty = e.to_xml_pretty();
        assert_eq!(pretty, "<root>\n  <leaf>v</leaf>\n  <empty/>\n</root>\n");
    }

    #[test]
    fn pretty_roundtrips_semantics() {
        let e = Element::new("a")
            .with_attr("x", "1")
            .with_child(Element::new("b").with_text("t1"))
            .with_child(Element::new("c").with_child(Element::new("d")));
        let back = Element::parse(&e.to_xml_pretty()).unwrap();
        assert_eq!(back, e);
    }
}
