//! XML entity escaping and unescaping.

/// The entity replacing `byte`, for the five escapable (all ASCII) bytes.
fn entity(byte: u8) -> Option<&'static [u8]> {
    match byte {
        b'&' => Some(b"&amp;"),
        b'<' => Some(b"&lt;"),
        b'>' => Some(b"&gt;"),
        b'"' => Some(b"&quot;"),
        b'\'' => Some(b"&apos;"),
        _ => None,
    }
}

/// Appends `text`, escaped for use as element text or attribute value,
/// to `out`. Every escapable is ASCII and no UTF-8 continuation byte is,
/// so the loop runs over bytes and copies the stretches between matches
/// whole; text with nothing to escape is one `extend_from_slice`.
pub fn escape_text_into(text: &str, out: &mut Vec<u8>) {
    let bytes = text.as_bytes();
    let mut copied = 0;
    for (i, &b) in bytes.iter().enumerate() {
        if let Some(entity) = entity(b) {
            out.extend_from_slice(&bytes[copied..i]);
            out.extend_from_slice(entity);
            copied = i + 1;
        }
    }
    out.extend_from_slice(&bytes[copied..]);
}

/// Byte length of `text` once escaped — what [`escape_text_into`] would
/// append, without writing it.
pub fn escaped_len(text: &str) -> usize {
    let grown: usize = text
        .bytes()
        .filter_map(entity)
        .map(|entity| entity.len() - 1)
        .sum();
    text.len() + grown
}

/// Escapes `text` for use as element text or attribute value.
pub fn escape_text(text: &str) -> String {
    let mut out = Vec::with_capacity(text.len());
    escape_text_into(text, &mut out);
    // Whole bytes of a `&str` plus ASCII entities.
    String::from_utf8(out).expect("escaping preserves UTF-8")
}

/// Unescapes the five predefined entities plus decimal/hex character
/// references. Unknown entities are reported via `Err` with the byte offset
/// of the offending `&`.
pub fn unescape_text(text: &str) -> Result<String, usize> {
    let mut out = String::with_capacity(text.len());
    let bytes = text.as_bytes();
    let mut i = 0;
    while i < bytes.len() {
        if bytes[i] != b'&' {
            // Advance one UTF-8 scalar.
            let ch_len = utf8_len(bytes[i]);
            out.push_str(&text[i..i + ch_len]);
            i += ch_len;
            continue;
        }
        let Some(end_rel) = text[i..].find(';') else {
            return Err(i);
        };
        let entity = &text[i + 1..i + end_rel];
        match entity {
            "amp" => out.push('&'),
            "lt" => out.push('<'),
            "gt" => out.push('>'),
            "quot" => out.push('"'),
            "apos" => out.push('\''),
            _ => {
                let code = if let Some(hex) = entity
                    .strip_prefix("#x")
                    .or_else(|| entity.strip_prefix("#X"))
                {
                    u32::from_str_radix(hex, 16).map_err(|_| i)?
                } else if let Some(dec) = entity.strip_prefix('#') {
                    dec.parse::<u32>().map_err(|_| i)?
                } else {
                    return Err(i);
                };
                out.push(char::from_u32(code).ok_or(i)?);
            }
        }
        i += end_rel + 1;
    }
    Ok(out)
}

/// Byte length of the UTF-8 scalar starting with `first`.
fn utf8_len(first: u8) -> usize {
    match first {
        0x00..=0x7F => 1,
        0xC0..=0xDF => 2,
        0xE0..=0xEF => 3,
        _ => 4,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn escape_all_specials() {
        assert_eq!(escape_text("a<b>&\"'"), "a&lt;b&gt;&amp;&quot;&apos;");
    }

    #[test]
    fn escape_into_appends_and_length_agrees() {
        let mut out = b"x=".to_vec();
        for s in ["", "plain", "a<b>&\"'", "é<✓>", "&&&", "tail&"] {
            out.truncate(2);
            escape_text_into(s, &mut out);
            assert_eq!(&out[2..], escape_text(s).as_bytes());
            assert_eq!(escaped_len(s), out.len() - 2);
        }
        assert_eq!(escape_text("é<✓>"), "é&lt;✓&gt;");
    }

    #[test]
    fn unescape_roundtrip() {
        for s in ["", "plain", "a<b>&\"'", "mixed < text & more", "UTF-8 é ✓"] {
            assert_eq!(unescape_text(&escape_text(s)).unwrap(), s);
        }
    }

    #[test]
    fn numeric_references() {
        assert_eq!(unescape_text("&#65;&#x42;&#x63;").unwrap(), "ABc");
    }

    #[test]
    fn bad_entities_error_with_offset() {
        assert_eq!(unescape_text("ab&bogus;"), Err(2));
        assert_eq!(unescape_text("&unterminated"), Err(0));
        assert_eq!(unescape_text("&#xZZ;"), Err(0));
        assert_eq!(unescape_text("&#1114112;"), Err(0)); // beyond char::MAX
    }
}
