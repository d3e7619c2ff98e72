//! Wire-format parsing for requests and responses.

use crate::message::{Headers, Method, Request, Response, Status};
use crate::HttpError;
use std::io::BufRead;

/// Default maximum accepted body size (16 MiB — comfortably above the
/// paper's largest cached result documents).
pub const MAX_BODY: usize = 16 * 1024 * 1024;

/// Reads one request from a buffered stream.
///
/// Returns `Ok(None)` when the connection closed cleanly before a request
/// started (keep-alive connection being shut down).
///
/// # Errors
/// Returns [`HttpError`] on malformed framing or I/O failure.
pub fn read_request<R: BufRead>(stream: &mut R) -> Result<Option<Request>, HttpError> {
    let Some(line) = read_line(stream)? else {
        return Ok(None);
    };
    if line.is_empty() {
        return Err(HttpError::Malformed("empty request line".into()));
    }
    let mut parts = line.split(' ');
    let method = parts
        .next()
        .and_then(Method::parse)
        .ok_or_else(|| HttpError::Malformed(format!("bad method in `{line}`")))?;
    let target = parts
        .next()
        .ok_or_else(|| HttpError::Malformed("missing request target".into()))?;
    let version = parts
        .next()
        .ok_or_else(|| HttpError::Malformed("missing HTTP version".into()))?;
    if !version.starts_with("HTTP/1.") {
        return Err(HttpError::Malformed(format!(
            "unsupported version {version}"
        )));
    }

    let headers = read_headers(stream)?;
    let body = read_body(stream, &headers)?;

    let (path, query) = match target.split_once('?') {
        Some((p, q)) => (p.to_string(), q.to_string()),
        None => (target.to_string(), String::new()),
    };
    Ok(Some(Request {
        method,
        path,
        query,
        headers,
        body,
    }))
}

/// Reads one response from a buffered stream.
///
/// # Errors
/// Returns [`HttpError`] on malformed framing, premature EOF, or I/O
/// failure.
pub fn read_response<R: BufRead>(stream: &mut R) -> Result<Response, HttpError> {
    let line = read_line(stream)?.ok_or(HttpError::UnexpectedEof)?;
    let mut parts = line.splitn(3, ' ');
    let version = parts.next().unwrap_or("");
    if !version.starts_with("HTTP/1.") {
        return Err(HttpError::Malformed(format!("bad status line `{line}`")));
    }
    let code: u16 = parts
        .next()
        .and_then(|c| c.parse().ok())
        .ok_or_else(|| HttpError::Malformed(format!("bad status code in `{line}`")))?;
    let headers = read_headers(stream)?;
    let body = read_body(stream, &headers)?;
    Ok(Response {
        status: Status(code),
        headers,
        body,
        tail: None,
    })
}

/// Reads a CRLF- (or LF-) terminated line; `None` on immediate EOF.
fn read_line<R: BufRead>(stream: &mut R) -> Result<Option<String>, HttpError> {
    let mut buf = Vec::new();
    let n = read_until_limited(stream, b'\n', &mut buf, 64 * 1024)?;
    if n == 0 {
        return Ok(None);
    }
    while matches!(buf.last(), Some(b'\n' | b'\r')) {
        buf.pop();
    }
    String::from_utf8(buf)
        .map(Some)
        .map_err(|_| HttpError::Malformed("non-UTF-8 header data".into()))
}

/// `BufRead::read_until` with a size cap (header-smuggling guard).
fn read_until_limited<R: BufRead>(
    stream: &mut R,
    delim: u8,
    buf: &mut Vec<u8>,
    limit: usize,
) -> Result<usize, HttpError> {
    let mut total = 0;
    loop {
        let available = stream.fill_buf()?;
        if available.is_empty() {
            return Ok(total);
        }
        let (consume, done) = match available.iter().position(|b| *b == delim) {
            Some(i) => (i + 1, true),
            None => (available.len(), false),
        };
        total += consume;
        if total > limit {
            return Err(HttpError::Malformed("header line too long".into()));
        }
        buf.extend_from_slice(&available[..consume]);
        stream.consume(consume);
        if done {
            return Ok(total);
        }
    }
}

fn read_headers<R: BufRead>(stream: &mut R) -> Result<Headers, HttpError> {
    let mut headers = Headers::new();
    loop {
        let line = read_line(stream)?.ok_or(HttpError::UnexpectedEof)?;
        if line.is_empty() {
            return Ok(headers);
        }
        let (name, value) = line
            .split_once(':')
            .ok_or_else(|| HttpError::Malformed(format!("bad header line `{line}`")))?;
        headers.push(name.trim().to_string(), value.trim().to_string());
    }
}

fn read_body<R: BufRead>(stream: &mut R, headers: &Headers) -> Result<Vec<u8>, HttpError> {
    let len: usize = match headers.get("content-length") {
        Some(v) => v
            .parse()
            .map_err(|_| HttpError::Malformed(format!("bad Content-Length `{v}`")))?,
        None => 0,
    };
    if len > MAX_BODY {
        return Err(HttpError::BodyTooLarge { limit: MAX_BODY });
    }
    let mut body = vec![0u8; len];
    stream
        .read_exact(&mut body)
        .map_err(|_| HttpError::UnexpectedEof)?;
    Ok(body)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::BufReader;

    fn req(raw: &str) -> Result<Option<Request>, HttpError> {
        read_request(&mut BufReader::new(raw.as_bytes()))
    }

    #[test]
    fn parses_get_request() {
        let r = req("GET /search?ra=1 HTTP/1.1\r\nHost: proxy\r\n\r\n")
            .unwrap()
            .unwrap();
        assert_eq!(r.method, Method::Get);
        assert_eq!(r.path, "/search");
        assert_eq!(r.query, "ra=1");
        assert_eq!(r.headers.get("host"), Some("proxy"));
        assert!(r.body.is_empty());
    }

    #[test]
    fn parses_post_with_body() {
        let r = req("POST /sql HTTP/1.1\r\nContent-Length: 5\r\n\r\nhello")
            .unwrap()
            .unwrap();
        assert_eq!(r.method, Method::Post);
        assert_eq!(r.body, b"hello");
    }

    #[test]
    fn clean_eof_is_none() {
        assert!(req("").unwrap().is_none());
    }

    #[test]
    fn rejects_malformed() {
        assert!(matches!(
            req("BLORP / HTTP/1.1\r\n\r\n"),
            Err(HttpError::Malformed(_))
        ));
        assert!(matches!(req("GET /\r\n\r\n"), Err(HttpError::Malformed(_))));
        assert!(matches!(
            req("GET / HTTP/2\r\n\r\n"),
            Err(HttpError::Malformed(_))
        ));
        assert!(matches!(
            req("GET / HTTP/1.1\r\nbadheader\r\n\r\n"),
            Err(HttpError::Malformed(_))
        ));
        assert!(matches!(
            req("POST / HTTP/1.1\r\nContent-Length: ten\r\n\r\n"),
            Err(HttpError::Malformed(_))
        ));
    }

    #[test]
    fn truncated_body_is_eof() {
        assert!(matches!(
            req("POST / HTTP/1.1\r\nContent-Length: 100\r\n\r\nshort"),
            Err(HttpError::UnexpectedEof)
        ));
    }

    #[test]
    fn request_roundtrip_through_wire_form() {
        let original = Request::post_form("/sql?x=1", "cmd=SELECT+1");
        let bytes = original.to_bytes();
        let parsed = read_request(&mut BufReader::new(bytes.as_slice()))
            .unwrap()
            .unwrap();
        assert_eq!(parsed.method, Method::Post);
        assert_eq!(parsed.path, "/sql");
        assert_eq!(parsed.query, "x=1");
        assert_eq!(parsed.body, original.body);
    }

    #[test]
    fn response_roundtrip_through_wire_form() {
        let original = Response::ok("text/xml", "<a/>");
        let bytes = original.to_bytes();
        let parsed = read_response(&mut BufReader::new(bytes.as_slice())).unwrap();
        assert_eq!(parsed.status, Status::OK);
        assert_eq!(parsed.body, b"<a/>");
        assert_eq!(parsed.headers.get("content-type"), Some("text/xml"));
    }

    #[test]
    fn lf_only_lines_are_accepted() {
        let r = req("GET / HTTP/1.1\nHost: h\n\n").unwrap().unwrap();
        assert_eq!(r.headers.get("Host"), Some("h"));
    }
}
