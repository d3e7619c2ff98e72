//! HTTP message types.

use std::borrow::Cow;
use std::fmt;
use std::sync::Arc;

/// Request methods the proxy uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Method {
    /// `GET`
    Get,
    /// `POST`
    Post,
    /// `HEAD`
    Head,
}

impl Method {
    /// Wire spelling.
    pub fn as_str(self) -> &'static str {
        match self {
            Method::Get => "GET",
            Method::Post => "POST",
            Method::Head => "HEAD",
        }
    }

    /// Parses the wire spelling (case-sensitive, per RFC 9110).
    pub fn parse(s: &str) -> Option<Method> {
        Some(match s {
            "GET" => Method::Get,
            "POST" => Method::Post,
            "HEAD" => Method::Head,
            _ => return None,
        })
    }
}

/// Response status codes the stack emits.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Status(pub u16);

impl Status {
    /// 200
    pub const OK: Status = Status(200);
    /// 400
    pub const BAD_REQUEST: Status = Status(400);
    /// 404
    pub const NOT_FOUND: Status = Status(404);
    /// 408
    pub const REQUEST_TIMEOUT: Status = Status(408);
    /// 500
    pub const INTERNAL: Status = Status(500);
    /// 502
    pub const BAD_GATEWAY: Status = Status(502);
    /// 503
    pub const SERVICE_UNAVAILABLE: Status = Status(503);

    /// Canonical reason phrase.
    pub fn reason(self) -> &'static str {
        match self.0 {
            200 => "OK",
            400 => "Bad Request",
            404 => "Not Found",
            408 => "Request Timeout",
            500 => "Internal Server Error",
            502 => "Bad Gateway",
            503 => "Service Unavailable",
            _ => "Unknown",
        }
    }

    /// Whether the status is 2xx.
    pub fn is_success(self) -> bool {
        (200..300).contains(&self.0)
    }
}

/// An ordered, case-insensitive header map. Names and values given as
/// string literals are kept as they are; only computed ones own memory.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Headers {
    entries: Vec<(Cow<'static, str>, Cow<'static, str>)>,
}

impl Headers {
    /// An empty header set.
    pub fn new() -> Self {
        Headers::default()
    }

    /// Appends a header (duplicates allowed, order preserved).
    pub fn push(
        &mut self,
        name: impl Into<Cow<'static, str>>,
        value: impl Into<Cow<'static, str>>,
    ) {
        self.entries.push((name.into(), value.into()));
    }

    /// First value of `name`, case-insensitively.
    pub fn get(&self, name: &str) -> Option<&str> {
        self.entries
            .iter()
            .find(|(k, _)| k.eq_ignore_ascii_case(name))
            .map(|(_, v)| v.as_ref())
    }

    /// Sets `name` to `value`, replacing any existing occurrences.
    pub fn set(&mut self, name: impl Into<Cow<'static, str>>, value: impl Into<Cow<'static, str>>) {
        let name = name.into();
        self.entries.retain(|(k, _)| !k.eq_ignore_ascii_case(&name));
        self.entries.push((name, value.into()));
    }

    /// Iterates `(name, value)` pairs in insertion order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &str)> {
        self.entries.iter().map(|(k, v)| (k.as_ref(), v.as_ref()))
    }

    /// Number of header lines.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether there are no headers.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

/// An HTTP request.
#[derive(Debug, Clone)]
pub struct Request {
    /// Request method.
    pub method: Method,
    /// Path component of the target (no query string).
    pub path: String,
    /// Raw query string (without `?`), empty when absent.
    pub query: String,
    /// Headers.
    pub headers: Headers,
    /// Body bytes.
    pub body: Vec<u8>,
}

impl Request {
    /// A GET request for `path_and_query` (e.g. `/search?ra=185`).
    pub fn get(path_and_query: &str) -> Request {
        let (path, query) = split_target(path_and_query);
        Request {
            method: Method::Get,
            path,
            query,
            headers: Headers::new(),
            body: Vec::new(),
        }
    }

    /// A POST request with a form-encoded body.
    pub fn post_form(path: &str, body: impl Into<Vec<u8>>) -> Request {
        let (path, query) = split_target(path);
        let mut headers = Headers::new();
        headers.set("Content-Type", "application/x-www-form-urlencoded");
        Request {
            method: Method::Post,
            path,
            query,
            headers,
            body: body.into(),
        }
    }

    /// The request target (`path?query`).
    pub fn target(&self) -> String {
        if self.query.is_empty() {
            self.path.clone()
        } else {
            format!("{}?{}", self.path, self.query)
        }
    }

    /// Decoded query parameters, in order of appearance.
    pub fn query_params(&self) -> Vec<(String, String)> {
        crate::urlenc::parse_query(&self.query)
    }

    /// Serializes the request head + body to wire form.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(128 + self.body.len());
        out.extend_from_slice(self.method.as_str().as_bytes());
        out.push(b' ');
        out.extend_from_slice(self.target().as_bytes());
        out.extend_from_slice(b" HTTP/1.1\r\n");
        let mut has_len = false;
        for (k, v) in self.headers.iter() {
            if k.eq_ignore_ascii_case("content-length") {
                has_len = true;
            }
            out.extend_from_slice(k.as_bytes());
            out.extend_from_slice(b": ");
            out.extend_from_slice(v.as_bytes());
            out.extend_from_slice(b"\r\n");
        }
        if !has_len && !self.body.is_empty() {
            out.extend_from_slice(format!("Content-Length: {}\r\n", self.body.len()).as_bytes());
        }
        out.extend_from_slice(b"\r\n");
        out.extend_from_slice(&self.body);
        out
    }
}

/// A buffer shared with whoever owns it; which type that is, is the
/// lender's business.
pub type SharedBytes = Arc<dyn AsRef<[u8]> + Send + Sync>;

/// Body bytes a response lends instead of owning: ranges of one shared
/// buffer, in wire order, then a static closing slice. Whoever the
/// buffer belongs to is behind the `Arc`; holding the tail keeps the
/// bytes alive and in place, so a server can write them from where they
/// lie.
#[derive(Clone)]
pub struct SharedTail {
    owner: SharedBytes,
    ranges: Vec<(u32, u32)>,
    suffix: &'static [u8],
    len: usize,
}

impl SharedTail {
    /// The `(start, end)` byte `ranges` of `owner`'s buffer, followed by
    /// `suffix`.
    ///
    /// # Panics
    /// When a range does not lie inside the buffer — checked here, once,
    /// so that writing the tail later cannot fail.
    pub fn new(owner: SharedBytes, ranges: Vec<(u32, u32)>, suffix: &'static [u8]) -> SharedTail {
        let available = (*owner).as_ref().len();
        let mut len = suffix.len();
        for &(start, end) in &ranges {
            assert!(
                start <= end && end as usize <= available,
                "range {start}..{end} outside a shared buffer of {available} bytes"
            );
            len += (end - start) as usize;
        }
        SharedTail {
            owner,
            ranges,
            suffix,
            len,
        }
    }

    /// Total bytes: every range plus the suffix.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the tail holds no byte at all.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Appends the tail's bytes to `out` — the copy an API that promises
    /// contiguous bytes pays.
    pub fn write_to(&self, out: &mut Vec<u8>) {
        let bytes = (*self.owner).as_ref();
        for &(start, end) in &self.ranges {
            out.extend_from_slice(&bytes[start as usize..end as usize]);
        }
        out.extend_from_slice(self.suffix);
    }

    /// The owner, its ranges and the suffix, for a writer that sends
    /// them in place.
    pub fn into_parts(self) -> (SharedBytes, Vec<(u32, u32)>, &'static [u8]) {
        (self.owner, self.ranges, self.suffix)
    }
}

impl fmt::Debug for SharedTail {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SharedTail")
            .field("len", &self.len)
            .field("ranges", &self.ranges.len())
            .finish()
    }
}

/// An HTTP response.
#[derive(Debug, Clone)]
pub struct Response {
    /// Status code.
    pub status: Status,
    /// Headers.
    pub headers: Headers,
    /// Body bytes — all of them, or those before `tail`.
    pub body: Vec<u8>,
    /// The rest of the body, lent not owned.
    pub tail: Option<SharedTail>,
}

impl Response {
    /// A 200 response with a body and content type.
    pub fn ok(content_type: impl Into<Cow<'static, str>>, body: impl Into<Vec<u8>>) -> Response {
        // Room for what a proxy reply adds (outcome, timing, flags,
        // `Connection`), so the set is allocated once and never regrown.
        let mut headers = Headers {
            entries: Vec::with_capacity(8),
        };
        headers.set("Content-Type", content_type);
        Response {
            status: Status::OK,
            headers,
            body: body.into(),
            tail: None,
        }
    }

    /// The same response with `tail` following its body.
    pub fn with_tail(mut self, tail: SharedTail) -> Response {
        self.tail = Some(tail);
        self
    }

    /// An error response with a plain-text body.
    pub fn error(status: Status, message: &str) -> Response {
        let mut headers = Headers::new();
        headers.set("Content-Type", "text/plain; charset=utf-8");
        Response {
            status,
            headers,
            body: message.as_bytes().to_vec(),
            tail: None,
        }
    }

    /// Length of the whole body, tail included.
    pub fn body_len(&self) -> usize {
        self.body.len() + self.tail.as_ref().map_or(0, SharedTail::len)
    }

    /// Appends the whole body, tail included, to `out`.
    pub fn write_body(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.body);
        if let Some(tail) = &self.tail {
            tail.write_to(out);
        }
    }

    /// The whole body interpreted as UTF-8 (lossy).
    pub fn body_text(&self) -> String {
        match &self.tail {
            None => String::from_utf8_lossy(&self.body).into_owned(),
            Some(_) => {
                let mut whole = Vec::with_capacity(self.body_len());
                self.write_body(&mut whole);
                String::from_utf8_lossy(&whole).into_owned()
            }
        }
    }

    /// Appends the status line and the headers, through the blank
    /// line, to `out`. `Content-Length` is always the whole body's
    /// length, whatever the header set says.
    pub fn write_head(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(b"HTTP/1.1 ");
        push_decimal(out, usize::from(self.status.0));
        out.push(b' ');
        out.extend_from_slice(self.status.reason().as_bytes());
        out.extend_from_slice(b"\r\n");
        for (k, v) in self.headers.iter() {
            if k.eq_ignore_ascii_case("content-length") {
                continue; // recomputed below
            }
            out.extend_from_slice(k.as_bytes());
            out.extend_from_slice(b": ");
            out.extend_from_slice(v.as_bytes());
            out.extend_from_slice(b"\r\n");
        }
        out.extend_from_slice(b"Content-Length: ");
        push_decimal(out, self.body_len());
        out.extend_from_slice(b"\r\n\r\n");
    }

    /// Serializes the response to wire form: [`Self::write_head`], then
    /// the whole body.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(128 + self.body_len());
        self.write_head(&mut out);
        self.write_body(&mut out);
        out
    }
}

/// Appends `n` in decimal.
fn push_decimal(out: &mut Vec<u8>, mut n: usize) {
    let mut digits = [0u8; 20]; // u64::MAX has 20 digits
    let mut at = digits.len();
    loop {
        at -= 1;
        digits[at] = b'0' + (n % 10) as u8;
        n /= 10;
        if n == 0 {
            break;
        }
    }
    out.extend_from_slice(&digits[at..]);
}

fn split_target(target: &str) -> (String, String) {
    match target.split_once('?') {
        Some((p, q)) => (p.to_string(), q.to_string()),
        None => (target.to_string(), String::new()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn headers_are_case_insensitive_ordered() {
        let mut h = Headers::new();
        h.push("Content-Type", "text/xml");
        h.push("X-A", "1");
        h.push("X-A", "2");
        assert_eq!(h.get("content-type"), Some("text/xml"));
        assert_eq!(h.get("x-a"), Some("1"));
        h.set("x-a", "3");
        assert_eq!(h.get("X-A"), Some("3"));
        assert_eq!(h.len(), 2);
    }

    #[test]
    fn request_target_roundtrip() {
        let r = Request::get("/search/radial?ra=185.0&dec=1.5");
        assert_eq!(r.path, "/search/radial");
        assert_eq!(r.query, "ra=185.0&dec=1.5");
        assert_eq!(r.target(), "/search/radial?ra=185.0&dec=1.5");
        let params = r.query_params();
        assert_eq!(params[0], ("ra".to_string(), "185.0".to_string()));
    }

    #[test]
    fn request_wire_form_has_length() {
        let r = Request::post_form("/sql", "cmd=SELECT");
        let text = String::from_utf8(r.to_bytes()).unwrap();
        assert!(text.starts_with("POST /sql HTTP/1.1\r\n"));
        assert!(text.contains("Content-Length: 10\r\n"));
        assert!(text.ends_with("\r\ncmd=SELECT"));
    }

    #[test]
    fn response_wire_form() {
        let r = Response::ok("text/plain", "hi");
        let text = String::from_utf8(r.to_bytes()).unwrap();
        assert!(text.starts_with("HTTP/1.1 200 OK\r\n"));
        assert!(text.contains("Content-Length: 2\r\n"));
        assert!(text.ends_with("\r\n\r\nhi"));
        assert!(Status::OK.is_success());
        assert!(!Status::NOT_FOUND.is_success());
    }

    /// The bytes the server has always put on the wire for a Radial
    /// search reply and for an error reply, header for header. Pins
    /// `write_head` to the `format!`-built head it replaced.
    #[test]
    fn response_wire_form_is_golden() {
        let mut radial = Response::ok("text/xml", "<rows n=\"0\"/>");
        radial.headers.set("X-Cache-Outcome", "contained");
        radial
            .headers
            .set("X-Sim-Response-Ms", format!("{:.0}", 12.4));
        radial.headers.set("X-Coalesced", false.to_string());
        radial.headers.set("X-Degraded", false.to_string());
        radial.headers.set("X-Stale", true.to_string());
        radial.headers.set("content-length", "999"); // never trusted
        radial.headers.set("Connection", "close");
        assert_eq!(
            String::from_utf8(radial.to_bytes()).unwrap(),
            "HTTP/1.1 200 OK\r\n\
             Content-Type: text/xml\r\n\
             X-Cache-Outcome: contained\r\n\
             X-Sim-Response-Ms: 12\r\n\
             X-Coalesced: false\r\n\
             X-Degraded: false\r\n\
             X-Stale: true\r\n\
             Connection: close\r\n\
             Content-Length: 13\r\n\
             \r\n\
             <rows n=\"0\"/>"
        );
        let mut head = Vec::new();
        radial.write_head(&mut head);
        assert_eq!([head, radial.body.clone()].concat(), radial.to_bytes());

        let shed = Response::error(Status::SERVICE_UNAVAILABLE, "");
        assert_eq!(
            String::from_utf8(shed.to_bytes()).unwrap(),
            "HTTP/1.1 503 Service Unavailable\r\n\
             Content-Type: text/plain; charset=utf-8\r\n\
             Content-Length: 0\r\n\
             \r\n"
        );
        let big = Response {
            status: Status(418),
            headers: Headers::new(),
            body: vec![b'x'; 1_048_576],
            tail: None,
        };
        assert!(big
            .to_bytes()
            .starts_with(b"HTTP/1.1 418 Unknown\r\nContent-Length: 1048576\r\n\r\nx"));
    }

    /// A lent tail counts in `Content-Length` and flattens in order.
    #[test]
    fn shared_tail_follows_the_body_on_the_wire() {
        let owner: SharedBytes = Arc::new(b"0123456789".to_vec());
        let tail = SharedTail::new(Arc::clone(&owner), vec![(2, 5), (7, 7), (8, 10)], b"</x>");
        assert_eq!(tail.len(), 9);
        let r = Response::ok("text/xml", "<x>").with_tail(tail);
        assert_eq!(r.body_len(), 12);
        assert_eq!(r.body_text(), "<x>23489</x>");
        let text = String::from_utf8(r.to_bytes()).unwrap();
        assert!(text.contains("Content-Length: 12\r\n"));
        assert!(text.ends_with("\r\n\r\n<x>23489</x>"));
        let parsed = crate::parse::read_response(&mut &r.to_bytes()[..]).unwrap();
        assert_eq!(parsed.body, b"<x>23489</x>");
        assert!(parsed.tail.is_none());
    }

    #[test]
    #[should_panic(expected = "outside a shared buffer")]
    fn shared_tail_rejects_a_range_past_its_buffer() {
        let owner: SharedBytes = Arc::new(vec![0u8; 4]);
        SharedTail::new(owner, vec![(1, 5)], b"");
    }

    #[test]
    fn method_parse_is_strict() {
        assert_eq!(Method::parse("GET"), Some(Method::Get));
        assert_eq!(Method::parse("get"), None);
        assert_eq!(Method::parse("PATCH"), None);
    }
}
