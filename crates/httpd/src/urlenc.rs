//! Percent-encoding and `application/x-www-form-urlencoded` codecs.

use std::borrow::Cow;

/// Percent-encodes `s` for use as a query-string key or value
/// (form-urlencoded: space becomes `+`).
pub fn encode_component(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for b in s.bytes() {
        match b {
            b'A'..=b'Z' | b'a'..=b'z' | b'0'..=b'9' | b'-' | b'_' | b'.' | b'~' => {
                out.push(b as char)
            }
            b' ' => out.push('+'),
            other => {
                out.push('%');
                out.push(hex_digit(other >> 4));
                out.push(hex_digit(other & 0xF));
            }
        }
    }
    out
}

/// Decodes a percent-encoded component (`+` becomes space; malformed
/// escapes are passed through literally, matching lenient servers).
pub fn decode_component(s: &str) -> String {
    let bytes = s.as_bytes();
    let mut out = Vec::with_capacity(bytes.len());
    let mut i = 0;
    while i < bytes.len() {
        match bytes[i] {
            b'+' => {
                out.push(b' ');
                i += 1;
            }
            b'%' if i + 2 < bytes.len() + 1 => {
                match (hex_val(bytes.get(i + 1)), hex_val(bytes.get(i + 2))) {
                    (Some(h), Some(l)) => {
                        out.push((h << 4) | l);
                        i += 3;
                    }
                    _ => {
                        out.push(b'%');
                        i += 1;
                    }
                }
            }
            other => {
                out.push(other);
                i += 1;
            }
        }
    }
    String::from_utf8(out).unwrap_or_else(|e| String::from_utf8_lossy(e.as_bytes()).into_owned())
}

/// [`decode_component`] that borrows `s` when decoding leaves it as it
/// is: no `+` and no `%` in it.
fn decode_component_borrowed(s: &str) -> Cow<'_, str> {
    if s.bytes().any(|b| b == b'+' || b == b'%') {
        Cow::Owned(decode_component(s))
    } else {
        Cow::Borrowed(s)
    }
}

/// The undecoded `(key, value)` components of a query string, in order.
/// Keys without `=` get an empty value.
fn split_query(query: &str) -> impl Iterator<Item = (&str, &str)> {
    query
        .split('&')
        .filter(|part| !part.is_empty())
        .map(|part| part.split_once('=').unwrap_or((part, "")))
}

/// Parses a query string (`a=1&b=two+words`) into decoded pairs.
/// Keys without `=` get an empty value.
pub fn parse_query(query: &str) -> Vec<(String, String)> {
    split_query(query)
        .map(|(k, v)| (decode_component(k), decode_component(v)))
        .collect()
}

/// [`parse_query`] without the copies: a component is decoded into owned
/// memory only when it contains `+` or `%`, and borrowed from `query`
/// otherwise.
pub fn parse_query_borrowed(query: &str) -> Vec<(Cow<'_, str>, Cow<'_, str>)> {
    split_query(query)
        .map(|(k, v)| (decode_component_borrowed(k), decode_component_borrowed(v)))
        .collect()
}

/// Encodes pairs as a query string.
pub fn encode_query(pairs: &[(String, String)]) -> String {
    pairs
        .iter()
        .map(|(k, v)| format!("{}={}", encode_component(k), encode_component(v)))
        .collect::<Vec<_>>()
        .join("&")
}

fn hex_digit(v: u8) -> char {
    char::from_digit(v as u32, 16)
        .expect("nibble is < 16")
        .to_ascii_uppercase()
}

fn hex_val(b: Option<&u8>) -> Option<u8> {
    (*b? as char).to_digit(16).map(|d| d as u8)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn encode_decode_roundtrip() {
        for s in [
            "",
            "plain",
            "two words",
            "SELECT * FROM t WHERE a < 5 & b = 'x'",
            "ra=185.0&dec=+1.5",
            "UTF-8 ✓ é",
            "100%",
        ] {
            assert_eq!(decode_component(&encode_component(s)), s, "{s}");
        }
    }

    #[test]
    fn decoding_is_lenient_on_bad_escapes() {
        assert_eq!(decode_component("a%ZZb"), "a%ZZb");
        assert_eq!(decode_component("a%"), "a%");
        assert_eq!(decode_component("a%2"), "a%2");
    }

    #[test]
    fn query_parse_and_encode() {
        let pairs = parse_query("ra=185.0&dec=1.5&flag&note=two+words");
        assert_eq!(pairs.len(), 4);
        assert_eq!(pairs[0], ("ra".into(), "185.0".into()));
        assert_eq!(pairs[2], ("flag".into(), "".into()));
        assert_eq!(pairs[3].1, "two words");

        let enc = encode_query(&[("sql".into(), "a=1 & b".into()), ("n".into(), "5".into())]);
        assert_eq!(enc, "sql=a%3D1+%26+b&n=5");
        let back = parse_query(&enc);
        assert_eq!(back[0].1, "a=1 & b");
    }

    #[test]
    fn empty_query() {
        assert!(parse_query("").is_empty());
        assert!(parse_query("&&").is_empty());
    }
}
