//! The nonblocking edge over real sockets: HTTP/1.1 keep-alive and
//! pipelining, the slowloris read deadline, every admission-control
//! gate, graceful drain and the plain-`Router` adapter — all against a
//! live `EdgeServer` on loopback TCP.

use fp_suite::edge::{EdgeConfig, EdgeServer, EdgeService, ProxyEdgeService};
use fp_suite::httpd::parse::read_response;
use fp_suite::httpd::{HttpClient, Request, Response, Router, Status};
use fp_suite::proxy::template::TemplateManager;
use fp_suite::proxy::{CostModel, ProxyConfig, ProxyHandle, Scheme, SiteOrigin, XmlBody};
use fp_suite::skyserver::{Catalog, CatalogSpec, SkySite};
use std::io::{BufReader, Read, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// A service whose behavior the tests control: `handle` sleeps for
/// `delay` then echoes the path (or, for `/big/<n>`, answers with
/// [`big_body`]`(n)`); `/fast/...` paths are served inline when `fast`
/// is on.
struct TestService {
    delay: Duration,
    fast: bool,
}

impl TestService {
    fn instant() -> Arc<TestService> {
        Arc::new(TestService {
            delay: Duration::ZERO,
            fast: false,
        })
    }

    fn slow(delay: Duration) -> Arc<TestService> {
        Arc::new(TestService { delay, fast: false })
    }
}

impl EdgeService for TestService {
    fn handle(&self, request: &Request) -> Response {
        if !self.delay.is_zero() {
            std::thread::sleep(self.delay);
        }
        match request.path.strip_prefix("/big/") {
            Some(n) => Response::ok("application/octet-stream", big_body(n.parse().unwrap())),
            None => Response::ok("text/plain", format!("handled:{}", request.path)),
        }
    }

    fn try_fast(&self, request: &Request) -> Option<Response> {
        (self.fast && request.path.starts_with("/fast"))
            .then(|| Response::ok("text/plain", format!("fast:{}", request.path)))
    }
}

/// One megabyte that differs from byte to byte and from `n` to `n`, so
/// a lost, repeated or misplaced span cannot go unnoticed.
fn big_body(n: usize) -> Vec<u8> {
    (0..1 << 20)
        .map(|i| ((i * 31 + n * 7) % 251) as u8)
        .collect()
}

fn connect(server: &EdgeServer) -> TcpStream {
    let stream = TcpStream::connect(server.addr()).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_millis(50)))
        .unwrap();
    stream
}

/// Reads until `predicate` is satisfied or the deadline passes; returns
/// everything read. Tolerates read timeouts (the server is allowed to
/// think).
fn read_until(
    stream: &mut TcpStream,
    deadline: Duration,
    predicate: impl Fn(&[u8]) -> bool,
) -> Vec<u8> {
    let mut buf = Vec::new();
    let mut chunk = [0u8; 4096];
    let end = Instant::now() + deadline;
    while !predicate(&buf) && Instant::now() < end {
        match stream.read(&mut chunk) {
            Ok(0) => break,
            Ok(n) => buf.extend_from_slice(&chunk[..n]),
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut => {}
            Err(e) => panic!("read failed: {e}"),
        }
    }
    buf
}

/// Reads until the server closes the connection; `None` when it has
/// not done so by the deadline.
fn read_to_eof(stream: &mut TcpStream, deadline: Duration) -> Option<Vec<u8>> {
    let mut buf = Vec::new();
    let mut chunk = [0u8; 4096];
    let end = Instant::now() + deadline;
    while Instant::now() < end {
        match stream.read(&mut chunk) {
            Ok(0) => return Some(buf),
            Ok(n) => buf.extend_from_slice(&chunk[..n]),
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut => {}
            Err(e) => panic!("read failed: {e}"),
        }
    }
    None
}

/// Shrinks `stream`'s receive buffer, so the peer's send window stays
/// small and its large writes come back short.
fn shrink_receive_buffer(stream: &TcpStream, bytes: i32) {
    use std::os::fd::AsRawFd;
    extern "C" {
        fn setsockopt(fd: i32, level: i32, name: i32, value: *const i32, len: u32) -> i32;
    }
    const SOL_SOCKET: i32 = 1;
    const SO_RCVBUF: i32 = 8;
    // SAFETY: `value` points at a live `i32` and `len` is its size; the
    // fd is open for as long as `stream` is borrowed.
    let rc = unsafe { setsockopt(stream.as_raw_fd(), SOL_SOCKET, SO_RCVBUF, &bytes, 4) };
    assert_eq!(rc, 0, "setsockopt(SO_RCVBUF)");
}

/// A reader that takes at most 4 KB off the socket per call, however
/// much it is asked for, and waits for a slow server instead of timing
/// out.
struct Sips(TcpStream);

impl Read for Sips {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        let sip = buf.len().min(4096);
        self.0.read(&mut buf[..sip])
    }
}

/// Reads `count` pipelined replies in 4 KB sips.
fn read_replies(stream: TcpStream, count: usize) -> Vec<Response> {
    stream
        .set_read_timeout(Some(Duration::from_secs(60)))
        .unwrap();
    let mut reader = BufReader::new(Sips(stream));
    (0..count)
        .map(|k| read_response(&mut reader).unwrap_or_else(|e| panic!("reply {k}: {e}")))
        .collect()
}

fn contains(haystack: &[u8], needle: &str) -> bool {
    haystack
        .windows(needle.len())
        .any(|w| w == needle.as_bytes())
}

#[test]
fn keep_alive_connection_serves_many_requests() {
    let server = EdgeServer::bind(
        "127.0.0.1:0",
        TestService::instant(),
        EdgeConfig::default().with_workers(2),
    )
    .unwrap();
    // One keep-alive client connection, several round trips.
    let client = HttpClient::new(server.addr());
    for i in 0..5 {
        let response = client.get(&format!("/r{i}")).expect("request succeeds");
        assert_eq!(response.status, Status::OK);
        assert_eq!(response.body_text(), format!("handled:/r{i}"));
    }
    let snap = server.stats();
    assert_eq!(snap.requests, 5);
    assert_eq!(snap.conns_accepted, 1, "keep-alive reuses one connection");
    server.shutdown();
}

#[test]
fn pipelined_requests_answer_in_request_order() {
    let server = EdgeServer::bind(
        "127.0.0.1:0",
        TestService::slow(Duration::from_millis(20)),
        EdgeConfig::default().with_workers(4),
    )
    .unwrap();
    let mut stream = connect(&server);
    // Both requests in ONE write, before any response: real pipelining.
    stream
        .write_all(b"GET /first HTTP/1.1\r\nHost: t\r\n\r\nGET /second HTTP/1.1\r\nHost: t\r\n\r\n")
        .unwrap();
    let buf = read_until(&mut stream, Duration::from_secs(5), |b| {
        contains(b, "handled:/first") && contains(b, "handled:/second")
    });
    let text = String::from_utf8_lossy(&buf);
    let first = text.find("handled:/first").expect("first answered");
    let second = text.find("handled:/second").expect("second answered");
    assert!(
        first < second,
        "responses must come back in request order:\n{text}"
    );
    let snap = server.stats();
    assert_eq!(snap.requests, 2);
    assert!(
        snap.pipelined >= 1,
        "second request parsed while first was in flight"
    );
    server.shutdown();
}

#[test]
fn nothing_is_served_behind_a_connection_close_request() {
    // An offloaded `Connection: close` request with an inline hit
    // pipelined behind it. The hit used to be answered and parked behind
    // the closing response, where it could never flush: the connection
    // was then neither closed nor ever idle, and leaked.
    let service = Arc::new(TestService {
        delay: Duration::from_millis(50),
        fast: true,
    });
    let server = EdgeServer::bind(
        "127.0.0.1:0",
        service,
        EdgeConfig::default().with_workers(1),
    )
    .unwrap();
    let mut stream = connect(&server);
    stream
        .write_all(
            b"GET /miss HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n\
              GET /fast/hit HTTP/1.1\r\nHost: t\r\n\r\n",
        )
        .unwrap();
    let buf = read_to_eof(&mut stream, Duration::from_secs(5))
        .expect("the server closes the connection behind the closing response");
    let text = String::from_utf8_lossy(&buf);
    assert_eq!(
        text.matches("HTTP/1.1 ").count(),
        1,
        "one response:\n{text}"
    );
    assert!(text.contains("Connection: close\r\n"), "{text}");
    assert!(text.ends_with("handled:/miss"), "{text}");

    let deadline = Instant::now() + Duration::from_secs(5);
    while server.stats().conns_open != 0 && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(5));
    }
    let snap = server.stats();
    assert_eq!(snap.conns_open, 0, "the connection must be reaped");
    assert_eq!(snap.requests, 1, "the pipelined request is never parsed");
    assert_eq!(snap.fast_path, 0);
    server.shutdown();
}

#[test]
fn pipelined_megabyte_replies_survive_a_slow_reader_byte_for_byte() {
    // Twelve pipelined 1 MB replies to a client with a small receive
    // buffer that reads in 4 KB sips. 12 MB is more than a loopback
    // socket pair can hold (send buffers grow to `wmem_max`, 4 MB by
    // default), so the server's gathered writes come back short again
    // and again and the reply queue must resume exactly where each one
    // stopped. (Where the stops fall is the kernel's choice; stops
    // inside a head and inside a body are pinned one by one in the
    // queue's unit tests.) Four workers finish out of order, so the
    // replies also cross the parked-response map.
    const REPLIES: usize = 12;
    let server = EdgeServer::bind(
        "127.0.0.1:0",
        TestService::instant(),
        EdgeConfig::default().with_workers(4),
    )
    .unwrap();
    let mut stream = connect(&server);
    shrink_receive_buffer(&stream, 32 * 1024);
    let requests: String = (0..REPLIES)
        .map(|n| format!("GET /big/{n} HTTP/1.1\r\nHost: t\r\n\r\n"))
        .collect();
    stream.write_all(requests.as_bytes()).unwrap();
    let expected: Vec<u8> = (0..REPLIES)
        .flat_map(|n| Response::ok("application/octet-stream", big_body(n)).to_bytes())
        .collect();

    // `read_until` takes 4 KB sips.
    let got = read_until(&mut stream, Duration::from_secs(30), |b| {
        b.len() >= expected.len()
    });
    assert_eq!(got.len(), expected.len(), "reply stream length");
    let first_difference = got.iter().zip(&expected).position(|(a, b)| a != b);
    assert_eq!(first_difference, None, "replies differ from what was sent");
    assert_eq!(server.stats().requests, REPLIES);
    server.shutdown();
}

/// A warm 170′ cone behind a live edge server with no workers (only the
/// reactor's inline path can answer), and twelve 95′ sub-cones of it
/// whose answers are ≈ 1 MB each and scattered over ≥ 100 slab ranges.
fn megabyte_contained_hits() -> (ProxyHandle, EdgeServer, Vec<[(String, String); 3]>) {
    let site = SkySite::new(Catalog::generate(&CatalogSpec::small_test()));
    let handle = ProxyHandle::with_shards(
        TemplateManager::with_sky_defaults(),
        Arc::new(SiteOrigin::new(site)),
        ProxyConfig::default()
            .with_scheme(Scheme::FullSemantic)
            .with_cost(CostModel::free()),
        1,
    );
    let fields = |ra: f64, radius: f64| {
        [
            ("ra".to_string(), ra.to_string()),
            ("dec".to_string(), "0".to_string()),
            ("radius".to_string(), radius.to_string()),
        ]
    };
    let warm = handle
        .handle_form_xml("/search/radial", &fields(185.0, 170.0))
        .expect("the origin answers");
    assert!(warm.body.len() > 2 << 20, "a multi-megabyte entry");
    // Well off-centre (15′ to 70′): the origin answers nearest first, so
    // a concentric sub-cone would be a prefix of the entry — one range.
    let cones: Vec<_> = (1..=12)
        .map(|k| fields(185.0 + (10.0 + 5.0 * f64::from(k)) / 60.0, 95.0))
        .collect();
    for cone in &cones {
        let reply = handle
            .handle_form_doc("/search/radial", cone)
            .expect("a hit");
        assert_eq!(reply.metrics.outcome.label(), "contained");
        let XmlBody::Doc(doc) = reply.body else {
            panic!("a columnar entry answers with a slab document");
        };
        assert!(doc.len() > 800_000, "{} bytes", doc.len());
        assert!(doc.range_count() >= 100, "{} ranges", doc.range_count());
    }
    let server = EdgeServer::bind(
        "127.0.0.1:0",
        Arc::new(ProxyEdgeService::new(handle.clone())),
        EdgeConfig::default().with_workers(0),
    )
    .unwrap();
    (handle, server, cones)
}

fn pipelined_radial_requests(cones: &[[(String, String); 3]]) -> String {
    cones
        .iter()
        .map(|[ra, dec, radius]| {
            format!(
                "GET /search/radial?ra={}&dec={}&radius={} HTTP/1.1\r\nHost: t\r\n\r\n",
                ra.1, dec.1, radius.1
            )
        })
        .collect()
}

/// The slow-reader test above with the replies that matter: contained
/// hits, which leave as ranges of the entry's row slab. The gathered
/// writes stop inside ranges, between them and across gathers (each
/// reply has more ranges than a few `writev` calls take), and what
/// arrives must be what the flat API returns.
#[test]
fn pipelined_contained_hits_leave_as_slab_ranges_byte_for_byte() {
    let (handle, server, cones) = megabyte_contained_hits();
    let mut stream = connect(&server);
    shrink_receive_buffer(&stream, 32 * 1024);
    stream
        .write_all(pipelined_radial_requests(&cones).as_bytes())
        .unwrap();
    for (reply, cone) in read_replies(stream, cones.len()).iter().zip(&cones) {
        assert_eq!(reply.status, Status::OK);
        assert_eq!(reply.headers.get("X-Cache-Outcome"), Some("contained"));
        let flat = handle.handle_form_xml("/search/radial", cone).unwrap().body;
        assert!(reply.body == flat, "wire bytes differ from the flat API's");
    }
    let snap = server.stats();
    assert_eq!((snap.fast_path, snap.offloaded), (cones.len(), 0));
    server.shutdown();
}

/// The same replies, but the cache is emptied while they are parked
/// behind the slow reader: every entry retired by an epoch bump. A
/// queued reply owns its share of the slab, so what arrives is still
/// the entry's bytes, not freed memory and not a truncated stream.
#[test]
fn parked_slab_ranges_outlive_the_entry_they_came_from() {
    let (handle, server, cones) = megabyte_contained_hits();
    let expected: Vec<Vec<u8>> = cones
        .iter()
        .map(|cone| handle.handle_form_xml("/search/radial", cone).unwrap().body)
        .collect();
    let mut stream = connect(&server);
    shrink_receive_buffer(&stream, 32 * 1024);
    stream
        .write_all(pipelined_radial_requests(&cones).as_bytes())
        .unwrap();
    // All twelve are answered inline and queued — 12 MB, far more than
    // the socket takes from a reader that has not read a byte.
    let deadline = Instant::now() + Duration::from_secs(10);
    while server.stats().fast_path < cones.len() && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(5));
    }
    assert_eq!(server.stats().fast_path, cones.len());
    assert_eq!(handle.set_epoch(handle.current_epoch() + 1), 1);
    assert_eq!(handle.cache_stats().entries, 0, "the entry is gone");

    for (reply, want) in read_replies(stream, cones.len()).iter().zip(&expected) {
        assert!(
            reply.body == *want,
            "a parked reply changed under the reader"
        );
    }
    server.shutdown();
}

/// A plain [`Router`] behind the edge — how the origin stand-in is
/// served: every route runs on a worker, and an unknown path is a 404.
#[test]
fn router_serves_requests_over_loopback() {
    let router = Router::new()
        .route("/ping", |_| Response::ok("text/plain", "pong"))
        .route("/echo", |r: &Request| {
            Response::ok("text/plain", r.query.clone().into_bytes())
        });
    let server = EdgeServer::bind("127.0.0.1:0", Arc::new(router), EdgeConfig::default()).unwrap();
    let client = HttpClient::new(server.addr());

    let r = client.send(&Request::get("/ping")).unwrap();
    assert_eq!(r.status, Status::OK);
    assert_eq!(r.body_text(), "pong");

    let r = client.send(&Request::get("/echo?a=1&b=2")).unwrap();
    assert_eq!(r.body_text(), "a=1&b=2");

    let r = client.send(&Request::get("/missing")).unwrap();
    assert_eq!(r.status, Status::NOT_FOUND);

    let snap = server.stats();
    assert_eq!((snap.fast_path, snap.offloaded), (0, 3));
    server.shutdown();
}

#[test]
fn router_serves_concurrent_clients() {
    let router = Router::new().route("/work", |r: &Request| {
        let n: u64 = r.query.parse().unwrap_or(0);
        Response::ok("text/plain", format!("{}", n * 2))
    });
    let server = EdgeServer::bind("127.0.0.1:0", Arc::new(router), EdgeConfig::default()).unwrap();
    let addr = server.addr();

    let handles: Vec<_> = (0..8u64)
        .map(|i| {
            std::thread::spawn(move || {
                let client = HttpClient::new(addr);
                let r = client.send(&Request::get(&format!("/work?{i}"))).unwrap();
                assert_eq!(r.body_text(), format!("{}", i * 2));
            })
        })
        .collect();
    for h in handles {
        h.join().unwrap();
    }
    assert_eq!(server.stats().requests, 8);
    server.shutdown();
}

#[test]
fn slowloris_dribble_gets_408_and_the_connection_closes() {
    let server = EdgeServer::bind(
        "127.0.0.1:0",
        TestService::instant(),
        EdgeConfig::default()
            .with_workers(1)
            .with_read_deadline(Duration::from_millis(150)),
    )
    .unwrap();
    let mut stream = connect(&server);
    // Dribble a request head byte by byte, never finishing it. Writes
    // may start failing once the server gives up on us — that's the
    // point.
    for byte in b"GET / HT" {
        if stream.write_all(&[*byte]).is_err() {
            break;
        }
        std::thread::sleep(Duration::from_millis(40));
    }
    // Past the deadline the server answers 408 and closes.
    let buf = read_until(&mut stream, Duration::from_secs(5), |b| {
        contains(b, "HTTP/1.1 408")
    });
    assert!(
        contains(&buf, "HTTP/1.1 408"),
        "expected 408, got: {}",
        String::from_utf8_lossy(&buf)
    );
    // EOF follows: keep reading until close.
    let rest = read_until(&mut stream, Duration::from_secs(2), |_| false);
    let _ = rest;
    assert_eq!(server.stats().read_timeouts, 1);
    server.shutdown();
}

#[test]
fn connection_cap_rejects_with_503_and_retry_after() {
    let server = EdgeServer::bind(
        "127.0.0.1:0",
        TestService::instant(),
        EdgeConfig::default()
            .with_workers(1)
            .with_max_connections(1),
    )
    .unwrap();
    // Occupy the single slot with a served keep-alive connection.
    let client = HttpClient::new(server.addr());
    assert_eq!(client.get("/hold").unwrap().status, Status::OK);
    // The next connect is refused at accept.
    let mut rejected = connect(&server);
    let buf = read_until(&mut rejected, Duration::from_secs(5), |b| {
        contains(b, "HTTP/1.1 503")
    });
    let text = String::from_utf8_lossy(&buf);
    assert!(text.contains("HTTP/1.1 503"), "expected 503, got: {text}");
    assert!(
        text.to_ascii_lowercase().contains("retry-after: 1"),
        "503 must carry Retry-After: {text}"
    );
    assert_eq!(server.stats().conns_rejected, 1);
    server.shutdown();
}

#[test]
fn full_queue_sheds_requests_with_503_retry_after() {
    // Zero workers: jobs queue but are never served, so the second
    // offload finds the 1-deep queue full and is shed.
    let server = EdgeServer::bind(
        "127.0.0.1:0",
        TestService::instant(),
        EdgeConfig::default().with_workers(0).with_queue_depth(1),
    )
    .unwrap();
    let mut first = connect(&server);
    first
        .write_all(b"GET /queued HTTP/1.1\r\nHost: t\r\n\r\n")
        .unwrap();
    // Wait until the first request is actually queued.
    let deadline = Instant::now() + Duration::from_secs(5);
    while server.stats().offloaded == 0 && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(5));
    }
    assert_eq!(server.stats().offloaded, 1);

    let mut second = connect(&server);
    second
        .write_all(b"GET /shed HTTP/1.1\r\nHost: t\r\n\r\n")
        .unwrap();
    let buf = read_until(&mut second, Duration::from_secs(5), |b| {
        contains(b, "HTTP/1.1 503")
    });
    let text = String::from_utf8_lossy(&buf);
    assert!(text.contains("HTTP/1.1 503"), "expected 503, got: {text}");
    assert!(
        text.to_ascii_lowercase().contains("retry-after"),
        "shed must carry Retry-After: {text}"
    );
    assert_eq!(server.stats().shed_queue_full, 1);
    // The shed connection stays usable — sheds do not close keep-alive.
    server.shutdown();
}

#[test]
fn fast_path_serves_inline_with_zero_workers() {
    // No workers at all: only the reactor's inline path can answer.
    let service = Arc::new(TestService {
        delay: Duration::ZERO,
        fast: true,
    });
    let server = EdgeServer::bind(
        "127.0.0.1:0",
        service,
        EdgeConfig::default().with_workers(0),
    )
    .unwrap();
    assert_eq!(server.thread_count(), 1, "reactor only");
    let client = HttpClient::new(server.addr());
    let response = client.get("/fast/x").expect("fast path answers");
    assert_eq!(response.status, Status::OK);
    assert_eq!(response.body_text(), "fast:/fast/x");
    let snap = server.stats();
    assert_eq!(snap.fast_path, 1);
    assert_eq!(snap.offloaded, 0);
    server.shutdown();
}

#[test]
fn malformed_request_gets_400_and_close() {
    let server = EdgeServer::bind(
        "127.0.0.1:0",
        TestService::instant(),
        EdgeConfig::default().with_workers(1),
    )
    .unwrap();
    let mut stream = connect(&server);
    stream
        .write_all(b"BLORP / HTTP/1.1\r\nHost: t\r\n\r\n")
        .unwrap();
    let buf = read_until(&mut stream, Duration::from_secs(5), |b| {
        contains(b, "HTTP/1.1 400")
    });
    assert!(
        contains(&buf, "HTTP/1.1 400"),
        "expected 400, got: {}",
        String::from_utf8_lossy(&buf)
    );
    assert_eq!(server.stats().bad_requests, 1);
    server.shutdown();
}

#[test]
fn graceful_shutdown_drains_the_in_flight_request() {
    let server = EdgeServer::bind(
        "127.0.0.1:0",
        TestService::slow(Duration::from_millis(300)),
        EdgeConfig::default().with_workers(1),
    )
    .unwrap();
    let mut stream = connect(&server);
    stream
        .write_all(b"GET /inflight HTTP/1.1\r\nHost: t\r\n\r\n")
        .unwrap();
    // Let the request reach the worker, then start the drain.
    let deadline = Instant::now() + Duration::from_secs(5);
    while server.stats().offloaded == 0 && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(5));
    }
    let started = Instant::now();
    server.shutdown_graceful(Duration::from_secs(5));
    assert!(
        started.elapsed() < Duration::from_secs(5),
        "drain must finish well before the deadline"
    );
    // The in-flight response was flushed before the server exited.
    let buf = read_until(&mut stream, Duration::from_secs(2), |b| {
        contains(b, "handled:/inflight")
    });
    assert!(
        contains(&buf, "handled:/inflight"),
        "in-flight request must be answered during drain, got: {}",
        String::from_utf8_lossy(&buf)
    );
}

/// A miss reply lends the slab its insert just built; the exact hit
/// that follows lends the same slab out of the cache. Through the
/// socket the two bodies must be the same bytes on every miss path, and
/// building the columnar form before sizing the entry must charge the
/// cache what sizing it separately did.
#[test]
fn miss_replies_are_byte_identical_to_the_hits_that_follow() {
    let site = SkySite::new(Catalog::generate(&CatalogSpec::small_test()));
    let handle = ProxyHandle::with_shards(
        TemplateManager::with_sky_defaults(),
        Arc::new(SiteOrigin::new(site)),
        ProxyConfig::default()
            .with_scheme(Scheme::FullSemantic)
            .with_cost(CostModel::free()),
        1,
    );
    let server = EdgeServer::bind(
        "127.0.0.1:0",
        Arc::new(ProxyEdgeService::new(handle.clone())),
        EdgeConfig::default().with_workers(2),
    )
    .unwrap();
    let client = HttpClient::new(server.addr());

    // (ra, dec, radius, how the first request is answered, cache
    // entries and charged bytes once it has been inserted). The byte
    // counts are commit e3c7bd3's, which sized each entry with its own
    // serialization pass before building the slab — but for the last
    // one's index: its 786 rows were 13 zones then (48 B of bounding
    // boxes each, 624 B) and are a 10 × 10 grid now (4 B a cell start,
    // 404 B).
    let steps = [
        (185.0, 0.0, 20.0, "forwarded", 1, PARENT_BYTES[0]),
        (
            185.0 + 25.0 / 60.0,
            0.0,
            15.0,
            "overlap",
            2,
            PARENT_BYTES[1],
        ),
        (185.2, 0.0, 45.0, "region-containment", 1, PARENT_BYTES[2]),
    ];
    for (ra, dec, radius, outcome, entries, bytes) in steps {
        let path = format!("/search/radial?ra={ra}&dec={dec}&radius={radius}");
        let miss = client.get(&path).expect("miss is served");
        assert_eq!(miss.status, Status::OK);
        assert_eq!(miss.headers.get("X-Cache-Outcome"), Some(outcome));
        let stats = handle.cache_stats();
        assert_eq!((stats.entries, stats.bytes), (entries, bytes), "{outcome}");

        let hit = client.get(&path).expect("hit is served");
        assert_eq!(hit.headers.get("X-Cache-Outcome"), Some("exact"));
        assert!(miss.body.len() > 1000, "{outcome}: a non-trivial document");
        assert!(
            miss.body == hit.body,
            "{outcome}: miss and hit bodies differ"
        );
    }
    server.shutdown();
}

/// `CacheStats::bytes` after each of the three inserts above, from a run
/// of that test at commit e3c7bd3; the last less the 220 B by which a
/// 786-row grid is smaller than that commit's zones.
const PARENT_BYTES: [usize; 3] = [56_100, 120_330, 485_696 - 220];

/// The reply head of a hit served inline on the reactor, byte for byte:
/// status line, header names, their order and their values are what the
/// server sent before its headers became static strings (pinned from a
/// run at commit 8ce68c2). A percent-encoded spelling of the same form
/// values is the same query, so it is an exact hit with the same head.
#[test]
fn hit_reply_heads_are_golden() {
    let site = SkySite::new(Catalog::generate(&CatalogSpec::small_test()));
    let handle = ProxyHandle::with_shards(
        TemplateManager::with_sky_defaults(),
        Arc::new(SiteOrigin::new(site)),
        ProxyConfig::default()
            .with_scheme(Scheme::FullSemantic)
            // A fixed simulated read cost: `X-Sim-Response-Ms` renders
            // the modelled cost alone, so the head reads 7 however long
            // the hit takes.
            .with_cost(CostModel {
                cache_hit_base_ms: 7.25,
                ..CostModel::free()
            }),
        1,
    );
    let server = EdgeServer::bind(
        "127.0.0.1:0",
        Arc::new(ProxyEdgeService::new(handle)),
        EdgeConfig::default().with_workers(2),
    )
    .unwrap();
    let client = HttpClient::new(server.addr());
    let loaded = client
        .get("/search/radial?ra=185.0&dec=1.5&radius=30")
        .expect("miss is served");
    assert_eq!(loaded.headers.get("X-Cache-Outcome"), Some("forwarded"));

    let head_of = |target: &str| -> String {
        let mut stream = connect(&server);
        write!(stream, "GET {target} HTTP/1.1\r\nHost: edge\r\n\r\n").unwrap();
        let reply = read_until(&mut stream, Duration::from_secs(5), |b| {
            contains(b, "\r\n\r\n")
        });
        let text = String::from_utf8_lossy(&reply).into_owned();
        let end = text.find("\r\n\r\n").expect("a complete head") + 4;
        text[..end].to_string()
    };
    let exact = "HTTP/1.1 200 OK\r\n\
                 Content-Type: text/xml\r\n\
                 X-Cache-Outcome: exact\r\n\
                 X-Sim-Response-Ms: 7\r\n\
                 X-Coalesced: false\r\n\
                 X-Degraded: false\r\n\
                 X-Stale: false\r\n\
                 Content-Length: 118109\r\n\
                 \r\n";
    assert_eq!(head_of("/search/radial?ra=185.0&dec=1.5&radius=30"), exact);
    assert_eq!(
        head_of("/search/radial?ra=185%2E0&dec=+1.5&radius=30"),
        exact
    );
    assert_eq!(
        head_of("/search/radial?ra=185.0&dec=1.5&radius=10"),
        "HTTP/1.1 200 OK\r\n\
         Content-Type: text/xml\r\n\
         X-Cache-Outcome: contained\r\n\
         X-Sim-Response-Ms: 7\r\n\
         X-Coalesced: false\r\n\
         X-Degraded: false\r\n\
         X-Stale: false\r\n\
         Content-Length: 9345\r\n\
         \r\n"
    );
    server.shutdown();
}

/// 256 keep-alive clients at once against the shipping proxy service:
/// every request is answered, the only 5xx is a deliberate shed (`503`
/// with `Retry-After`), the server stays at `1 + workers` threads, and
/// each parsed request is accounted once as a fast-path serve, an
/// offload or a shed.
#[test]
fn two_hundred_fifty_six_keep_alive_clients_get_answers_or_deliberate_sheds() {
    const CLIENTS: usize = 256;
    const REQUESTS: usize = 4;
    let site = SkySite::new(Catalog::generate(&CatalogSpec::small_test()));
    let handle = ProxyHandle::new(
        TemplateManager::with_sky_defaults(),
        Arc::new(SiteOrigin::new(site)),
        ProxyConfig::default()
            .with_scheme(Scheme::FullSemantic)
            .with_cost(CostModel::free()),
    );
    let server = EdgeServer::bind(
        "127.0.0.1:0",
        Arc::new(ProxyEdgeService::new(handle)),
        EdgeConfig::default(),
    )
    .unwrap();
    let addr = server.addr();
    let statuses: Vec<u16> = std::thread::scope(|scope| {
        let clients: Vec<_> = (0..CLIENTS)
            .map(|i| {
                scope.spawn(move || {
                    let client = HttpClient::new(addr).with_timeout(Duration::from_secs(30));
                    (0..REQUESTS)
                        .map(|j| {
                            let ra = 180.0 + (i % 16) as f64 * 0.5;
                            let radius = 5 + (j % 3) * 5;
                            let url = format!("/search/radial?ra={ra}&dec=0.5&radius={radius}");
                            let reply = client.get(&url).expect("every request is answered");
                            if reply.status == Status::SERVICE_UNAVAILABLE {
                                assert!(
                                    reply.headers.get("Retry-After").is_some(),
                                    "shed without Retry-After"
                                );
                            }
                            reply.status.0
                        })
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        clients
            .into_iter()
            .flat_map(|c| c.join().unwrap())
            .collect()
    });
    assert_eq!(statuses.len(), CLIENTS * REQUESTS);
    assert!(statuses.contains(&200), "no successful responses");
    let unexpected: Vec<u16> = statuses
        .iter()
        .copied()
        .filter(|&s| s != 200 && s != 503)
        .collect();
    assert!(unexpected.is_empty(), "unexpected statuses: {unexpected:?}");
    assert_eq!(server.thread_count(), 1 + EdgeConfig::default().workers);
    let stats = server.stats();
    assert_eq!(stats.requests, CLIENTS * REQUESTS);
    assert!(stats.fast_path > 0, "repeated queries must hit inline");
    assert_eq!(
        stats.fast_path + stats.offloaded + stats.shed_total(),
        stats.requests
    );
    server.shutdown();
}
