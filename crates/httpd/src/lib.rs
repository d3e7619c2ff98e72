//! Minimal HTTP/1.1 messages, parser and client.
//!
//! The paper implements its proxy as a Java servlet behind Tomcat; the
//! transport is incidental to the caching contribution, but a proxy that
//! cannot actually sit between a browser and a web site would not be a
//! faithful reproduction. This crate provides just enough HTTP/1.1 to run
//! the function proxy over real sockets: request/response messages and
//! parsing with `Content-Length` bodies, URL and query-string codecs, a
//! path router, and a blocking client. The one server that puts them on
//! a socket is `fp-edge`'s reactor.
//!
//! The *benchmarks* deliberately do not use this crate — they run the proxy
//! in-process against a simulated WAN cost model so results are
//! deterministic — while the `http_proxy` example wires everything over
//! loopback TCP.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod client;
pub mod message;
pub mod parse;
pub mod router;
pub mod urlenc;

pub use client::HttpClient;
pub use message::{Headers, Method, Request, Response, SharedBytes, SharedTail, Status};
pub use router::Router;

/// Errors across the HTTP stack.
#[derive(Debug)]
pub enum HttpError {
    /// Malformed message framing or syntax.
    Malformed(String),
    /// The peer closed the connection mid-message.
    UnexpectedEof,
    /// Body larger than the configured limit.
    BodyTooLarge {
        /// The configured limit in bytes.
        limit: usize,
    },
    /// Underlying socket error.
    Io(std::io::Error),
}

impl std::fmt::Display for HttpError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            HttpError::Malformed(m) => write!(f, "malformed HTTP message: {m}"),
            HttpError::UnexpectedEof => write!(f, "connection closed mid-message"),
            HttpError::BodyTooLarge { limit } => write!(f, "body exceeds {limit} bytes"),
            HttpError::Io(e) => write!(f, "io error: {e}"),
        }
    }
}

impl std::error::Error for HttpError {}

impl From<std::io::Error> for HttpError {
    fn from(e: std::io::Error) -> Self {
        HttpError::Io(e)
    }
}
