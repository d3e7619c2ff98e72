//! Incremental HTTP/1.1 request parsing over an accumulation buffer.
//!
//! The blocking server hands `fp_httpd::parse::read_request` a stream
//! and lets it block for missing bytes. The reactor cannot: it owns a
//! growing byte buffer per connection and must answer "is a complete
//! request here yet?" without waiting. The trick is to look for the
//! head terminator (the blank line) first — only once the full head has
//! arrived is `read_request` run over the buffer, so a half-received
//! request line is *incomplete*, never *malformed*. `read_request`
//! itself then reports a short body as `UnexpectedEof`, which maps back
//! to "need more bytes".

use fp_httpd::parse::read_request;
use fp_httpd::{HttpError, Request};

/// Cap on the request head (request line + headers). Matches the
/// per-line limit `fp_httpd` enforces, applied to the whole head.
pub const MAX_HEAD: usize = 64 * 1024;

/// What the accumulation buffer currently holds.
pub enum ParseOutcome {
    /// No complete request yet; keep reading.
    NeedMore,
    /// One complete request, occupying `consumed` leading bytes of the
    /// buffer (pipelined successors may follow it).
    Request {
        /// The parsed request.
        request: Box<Request>,
        /// How many buffer bytes it consumed.
        consumed: usize,
    },
    /// The connection sent something unrecoverable.
    Error(HttpError),
}

/// Looks for the end of a complete request head in `buf`, starting at
/// byte `from`: `Ok` is the index one past the blank line, `Err` is
/// where to resume once more bytes have arrived — the start of a
/// terminator the buffer's end cuts short, else the buffer's end — so
/// bytes already ruled out are never looked at again. Tolerates `\r\n`
/// and bare `\n` line endings, like the underlying parser.
pub fn find_head_end(buf: &[u8], from: usize) -> Result<usize, usize> {
    let mut i = from;
    while i < buf.len() {
        if buf[i] == b'\n' {
            match (buf.get(i + 1), buf.get(i + 2)) {
                (Some(b'\n'), _) => return Ok(i + 2),
                (Some(b'\r'), Some(b'\n')) => return Ok(i + 3),
                (None, _) | (Some(b'\r'), None) => return Err(i),
                _ => {}
            }
        }
        i += 1;
    }
    Err(buf.len())
}

/// Attempts to parse one request off the front of `buf`.
///
/// `scanned` is the connection's head-scan resume offset: how much of
/// `buf` earlier calls have already searched for the head terminator.
/// The caller keeps it beside the buffer and zeroes it whenever bytes
/// leave the buffer's front (a request consumed, the buffer cleared).
pub fn try_parse(buf: &[u8], scanned: &mut usize) -> ParseOutcome {
    if let Err(resume) = find_head_end(buf, *scanned) {
        *scanned = resume;
        if buf.len() > MAX_HEAD {
            return ParseOutcome::Error(HttpError::Malformed("request head too large".into()));
        }
        return ParseOutcome::NeedMore;
    }
    // `&[u8]` is `BufRead`; the cursor advances as the parser consumes.
    let mut cursor = buf;
    match read_request(&mut cursor) {
        Ok(Some(request)) => ParseOutcome::Request {
            request: Box::new(request),
            consumed: buf.len() - cursor.len(),
        },
        // A clean-EOF verdict cannot happen with a nonempty head; treat
        // it like missing bytes for robustness.
        Ok(None) => ParseOutcome::NeedMore,
        // Complete head, short body: not an error over a live socket.
        Err(HttpError::UnexpectedEof) => ParseOutcome::NeedMore,
        Err(e) => ParseOutcome::Error(e),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fp_httpd::Method;

    /// `try_parse` as a connection's first look at `buf`.
    fn parse_fresh(buf: &[u8]) -> ParseOutcome {
        try_parse(buf, &mut 0)
    }

    #[test]
    fn head_end_handles_both_line_ending_styles() {
        assert_eq!(find_head_end(b"GET / HTTP/1.1\r\n\r\n", 0), Ok(18));
        assert_eq!(find_head_end(b"GET / HTTP/1.1\n\n", 0), Ok(16));
        assert_eq!(
            find_head_end(b"GET / HTTP/1.1\r\nHost: h\r\n\r\nX", 0),
            Ok(27)
        );
        assert_eq!(find_head_end(b"GET / HTTP/1.1\r\nHost:", 0), Err(21));
        assert_eq!(find_head_end(b"", 0), Err(0));
    }

    #[test]
    fn head_scan_resumes_at_a_terminator_the_buffer_cuts_short() {
        // Cut after `\n` and after `\n\r`: resume at that `\n`, so the
        // terminator is still found when its remaining bytes arrive.
        assert_eq!(find_head_end(b"GET / HTTP/1.1\r\n", 0), Err(15));
        assert_eq!(find_head_end(b"GET / HTTP/1.1\r\n\r", 0), Err(15));
        assert_eq!(find_head_end(b"GET / HTTP/1.1\r\n\r\n", 15), Ok(18));
        assert_eq!(find_head_end(b"GET / HTTP/1.1\r\nH", 15), Err(17));
    }

    #[test]
    fn dribbled_head_is_scanned_in_linear_time() {
        // A 32 KB head, one byte per readiness event. Every line ending
        // makes the scanner look twice at up to two bytes; nothing is
        // looked at more often than that.
        let mut head = b"GET /search/radial?ra=185 HTTP/1.1\r\n".to_vec();
        while head.len() < 32 * 1024 {
            head.extend_from_slice(b"X-Filler: abcdefghijklmnopqrstuvwxyz\r\n");
        }
        head.extend_from_slice(b"\r\n");

        let (mut scanned, mut looked_at) = (0, 0);
        for len in 1..head.len() {
            let from = scanned;
            assert!(matches!(
                try_parse(&head[..len], &mut scanned),
                ParseOutcome::NeedMore
            ));
            assert!(from <= scanned && scanned <= len);
            looked_at += len - from;
        }
        looked_at += head.len() - scanned;
        match try_parse(&head, &mut scanned) {
            ParseOutcome::Request { request, consumed } => {
                assert_eq!(request.path, "/search/radial");
                assert_eq!(consumed, head.len());
            }
            _ => panic!("the completed head must parse"),
        }
        assert!(
            looked_at <= 2 * head.len(),
            "{looked_at} byte inspections for {} bytes",
            head.len()
        );
    }

    #[test]
    fn partial_request_line_is_need_more_not_malformed() {
        // `read_request` alone would call this malformed; incrementally
        // it is just incomplete.
        assert!(matches!(parse_fresh(b"GET /sea"), ParseOutcome::NeedMore));
        assert!(matches!(
            parse_fresh(b"GET / HTTP/1.1\r\nHost: h\r\n"),
            ParseOutcome::NeedMore
        ));
    }

    #[test]
    fn complete_request_reports_consumed_bytes() {
        let raw = b"GET /ping HTTP/1.1\r\nHost: h\r\n\r\nGET /nex";
        match parse_fresh(raw) {
            ParseOutcome::Request { request, consumed } => {
                assert_eq!(request.method, Method::Get);
                assert_eq!(request.path, "/ping");
                assert_eq!(consumed, 31);
                assert_eq!(&raw[consumed..], b"GET /nex");
            }
            _ => panic!("complete request must parse"),
        }
    }

    #[test]
    fn body_arrives_incrementally() {
        let full = b"POST /sql HTTP/1.1\r\nContent-Length: 5\r\n\r\nhello";
        assert!(matches!(parse_fresh(&full[..43]), ParseOutcome::NeedMore));
        match parse_fresh(full) {
            ParseOutcome::Request { request, consumed } => {
                assert_eq!(request.body, b"hello");
                assert_eq!(consumed, full.len());
            }
            _ => panic!("complete POST must parse"),
        }
    }

    #[test]
    fn garbage_with_complete_head_is_an_error() {
        assert!(matches!(
            parse_fresh(b"BLORP / HTTP/1.1\r\n\r\n"),
            ParseOutcome::Error(HttpError::Malformed(_))
        ));
        assert!(matches!(
            parse_fresh(b"GET / HTTP/2\r\n\r\n"),
            ParseOutcome::Error(HttpError::Malformed(_))
        ));
    }

    #[test]
    fn oversized_head_is_rejected_not_buffered_forever() {
        let mut huge = b"GET / HTTP/1.1\r\n".to_vec();
        huge.extend(std::iter::repeat_n(b'a', MAX_HEAD + 10));
        assert!(matches!(parse_fresh(&huge), ParseOutcome::Error(_)));
    }
}
