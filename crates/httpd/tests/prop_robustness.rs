//! Robustness properties of the HTTP stack: the parser must never panic on
//! arbitrary bytes, and well-formed messages must round-trip through their
//! wire forms.

use fp_httpd::parse::{read_request, read_response};
use fp_httpd::urlenc::{
    decode_component, encode_component, encode_query, parse_query, parse_query_borrowed,
};
use fp_httpd::{Request, Response};
use proptest::prelude::*;
use std::io::BufReader;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Absolutely arbitrary bytes: parsing may fail, but never panic.
    #[test]
    fn request_parser_never_panics(bytes in prop::collection::vec(any::<u8>(), 0..512)) {
        let _ = read_request(&mut BufReader::new(bytes.as_slice()));
    }

    #[test]
    fn response_parser_never_panics(bytes in prop::collection::vec(any::<u8>(), 0..512)) {
        let _ = read_response(&mut BufReader::new(bytes.as_slice()));
    }

    /// ASCII-ish garbage that *looks* like HTTP: still no panic.
    #[test]
    fn almost_http_never_panics(
        method in "[A-Z]{1,8}",
        target in "[ -~]{0,40}",
        headers in prop::collection::vec(("[A-Za-z-]{1,12}", "[ -~]{0,20}"), 0..4),
        body in "[ -~]{0,64}",
    ) {
        let mut text = format!("{method} {target} HTTP/1.1\r\n");
        for (k, v) in &headers {
            text.push_str(&format!("{k}: {v}\r\n"));
        }
        text.push_str("\r\n");
        text.push_str(&body);
        let _ = read_request(&mut BufReader::new(text.as_bytes()));
    }

    /// Requests round-trip through serialization for arbitrary targets
    /// and bodies.
    #[test]
    fn request_roundtrip(
        path_seg in "[a-z0-9/_.-]{0,24}",
        query in "[a-z0-9=&+%._-]{0,24}",
        body in prop::collection::vec(any::<u8>(), 0..128),
    ) {
        let target = if query.is_empty() {
            format!("/{path_seg}")
        } else {
            format!("/{path_seg}?{query}")
        };
        let mut original = Request::post_form(&target, body);
        original.headers.set("X-Test", "1");
        let parsed = read_request(&mut BufReader::new(original.to_bytes().as_slice()))
            .expect("well-formed")
            .expect("present");
        prop_assert_eq!(parsed.path, original.path);
        prop_assert_eq!(parsed.query, original.query);
        prop_assert_eq!(parsed.body, original.body);
        prop_assert_eq!(parsed.headers.get("x-test"), Some("1"));
    }

    /// Responses round-trip for arbitrary bodies (including binary).
    #[test]
    fn response_roundtrip(body in prop::collection::vec(any::<u8>(), 0..256)) {
        let original = Response::ok("application/octet-stream", body);
        let parsed = read_response(&mut BufReader::new(original.to_bytes().as_slice()))
            .expect("well-formed");
        prop_assert_eq!(parsed.status, original.status);
        prop_assert_eq!(parsed.body, original.body);
    }

    /// URL component encoding is lossless for arbitrary strings.
    #[test]
    fn urlenc_component_roundtrip(s in "\\PC{0,48}") {
        prop_assert_eq!(decode_component(&encode_component(&s)), s);
    }

    /// Query-string encoding is lossless for arbitrary key/value pairs.
    #[test]
    fn urlenc_query_roundtrip(
        pairs in prop::collection::vec(("[ -~]{1,12}", "[ -~]{0,16}"), 0..6),
    ) {
        let encoded = encode_query(&pairs);
        let decoded = parse_query(&encoded);
        prop_assert_eq!(decoded, pairs);
    }

    /// Decoding never panics on malformed escapes.
    #[test]
    fn decode_never_panics(s in "[ -~%+]{0,64}") {
        let _ = decode_component(&s);
    }

    /// The borrowing parser yields the pairs of the copying one, whatever
    /// the query: escapes (`%2E`), `+`, malformed escapes (`%G1`, a
    /// trailing `%`), escapes that are not UTF-8 (`%FF`, a lone `%C3`),
    /// empty keys, empty values and empty parts.
    #[test]
    fn borrowed_query_parse_equals_the_copying_one(query in "[a-cA-G0-9%%%++&&==._ é]{0,48}") {
        prop_assert_eq!(owned(parse_query_borrowed(&query)), parse_query(&query));
    }
}

fn owned(
    pairs: Vec<(std::borrow::Cow<'_, str>, std::borrow::Cow<'_, str>)>,
) -> Vec<(String, String)> {
    pairs
        .into_iter()
        .map(|(k, v)| (k.into_owned(), v.into_owned()))
        .collect()
}

/// The shapes the strategy above is meant to reach, one by one, and that
/// a component is copied only when decoding changes it.
#[test]
fn borrowed_query_parse_on_pinned_shapes() {
    use std::borrow::Cow;
    for query in [
        "",
        "&&",
        "ra=185%2E0&dec=+1.5&radius=30",
        "a=%G1&b=%&c=%2&d=%FF&e=%C3&f=%E2%9C%93",
        "=v&k=&k&=&a==b",
        "x=1&x=2&%41=%42",
    ] {
        assert_eq!(
            owned(parse_query_borrowed(query)),
            parse_query(query),
            "{query}"
        );
    }
    let pairs = parse_query_borrowed("ra=185%2E0&dec=1.5&flag");
    assert!(matches!(&pairs[0], (Cow::Borrowed("ra"), Cow::Owned(v)) if v == "185.0"));
    assert!(matches!(
        &pairs[1],
        (Cow::Borrowed("dec"), Cow::Borrowed("1.5"))
    ));
    assert!(matches!(
        &pairs[2],
        (Cow::Borrowed("flag"), Cow::Borrowed(""))
    ));
    assert_eq!(
        decode_component("%FF%41+%E2%9C%93%E2%9C"),
        "\u{FFFD}A ✓\u{FFFD}"
    );
}
