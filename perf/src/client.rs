//! The load generator: a raw-`TcpStream` keep-alive HTTP/1.1 client
//! and the closed- and open-loop windows that drive it, every reply
//! checked against the oracle before the connection moves on.

use crate::oracle::{scan_reply, Answer};
use crate::rig::{affinity, now_ns, KeepAwake, CONNECTIONS};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Duration;

/// One distinct request of a workload, ready to send.
pub struct Request {
    pub wire: Vec<u8>,
    pub expect: Answer,
}

/// `X-Cache-Outcome` of a reply, as the five labels the proxy sets.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Outcome {
    Exact,
    Contained,
    RegionContainment,
    Overlap,
    Forwarded,
}

impl Outcome {
    pub fn is_hit(self) -> bool {
        matches!(self, Outcome::Exact | Outcome::Contained)
    }

    fn parse(label: &[u8]) -> Option<Outcome> {
        Some(match label {
            b"exact" => Outcome::Exact,
            b"contained" => Outcome::Contained,
            b"region-containment" => Outcome::RegionContainment,
            b"overlap" => Outcome::Overlap,
            b"forwarded" => Outcome::Forwarded,
            _ => return None,
        })
    }
}

/// One timed request. `ok` = transport fine, status 200, and the reply
/// equals the oracle's answer.
#[derive(Debug, Clone, Copy)]
pub struct Sample {
    /// When the schedule wanted it sent (closed loop: when it was sent).
    pub intended_ns: u64,
    pub sent_ns: u64,
    pub done_ns: u64,
    pub outcome: Option<Outcome>,
    pub body_bytes: u32,
    pub ok: bool,
}

/// A span as the trace file carries it. `parent` indexes the same
/// list.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub name: &'static str,
    /// Index of the request in its window, shared by its spans.
    pub request: Option<u32>,
    pub parent: Option<u32>,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn new(
        name: &'static str,
        request: u32,
        parent: Option<u32>,
        start_ns: u64,
        end_ns: u64,
    ) -> Span {
        Span {
            name,
            request: Some(request),
            parent,
            start_ns,
            end_ns,
        }
    }
}

/// One keep-alive connection with its reused reply buffer.
pub struct Conn {
    addr: SocketAddr,
    stream: TcpStream,
    buf: Vec<u8>,
}

pub struct Reply<'a> {
    pub status: u16,
    pub outcome: Option<Outcome>,
    pub body: &'a [u8],
}

impl Conn {
    pub fn open(addr: SocketAddr) -> io::Result<Conn> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(Duration::from_secs(30)))?;
        Ok(Conn {
            addr,
            stream,
            buf: Vec::with_capacity(1 << 16),
        })
    }

    /// Sends one request and reads its whole reply into the reused
    /// buffer.
    pub fn round_trip(&mut self, wire: &[u8]) -> io::Result<Reply<'_>> {
        self.stream.write_all(wire)?;
        self.buf.clear();
        let bad = |what: &str| io::Error::new(io::ErrorKind::InvalidData, what.to_string());
        let head_end = loop {
            if let Some(p) = self.buf.windows(4).position(|w| w == b"\r\n\r\n") {
                break p + 4;
            }
            let old = self.buf.len();
            self.buf.resize(old + 4096, 0);
            let n = self.stream.read(&mut self.buf[old..])?;
            self.buf.truncate(old + n);
            if n == 0 {
                return Err(io::ErrorKind::UnexpectedEof.into());
            }
        };
        let mut lines = self.buf[..head_end - 4].split(|&b| b == b'\n');
        let status_line = lines.next().ok_or_else(|| bad("empty reply"))?;
        let status = std::str::from_utf8(status_line.get(9..12).unwrap_or(b""))
            .ok()
            .and_then(|s| s.parse::<u16>().ok())
            .ok_or_else(|| bad("status line"))?;
        let (mut length, mut outcome) = (None, None);
        for line in lines {
            let line = line.strip_suffix(b"\r").unwrap_or(line);
            if let Some(v) = line.strip_prefix(b"Content-Length: ") {
                length = std::str::from_utf8(v)
                    .ok()
                    .and_then(|s| s.parse::<usize>().ok());
            } else if let Some(v) = line.strip_prefix(b"X-Cache-Outcome: ") {
                outcome = Outcome::parse(v);
            }
        }
        let total = head_end + length.ok_or_else(|| bad("no Content-Length"))?;
        let Some(missing) = total.checked_sub(self.buf.len()) else {
            return Err(bad("bytes past the reply"));
        };
        let stream = &self.stream;
        if stream.take(missing as u64).read_to_end(&mut self.buf)? < missing {
            return Err(io::ErrorKind::UnexpectedEof.into());
        }
        Ok(Reply {
            status,
            outcome,
            body: &self.buf[head_end..],
        })
    }

    /// One request, timed and checked. A transport error costs the
    /// request and the connection, which is reopened.
    fn timed(&mut self, request: &Request, intended_ns: Option<u64>) -> Sample {
        let sent_ns = now_ns();
        let reply = self.round_trip(&request.wire);
        let done_ns = now_ns();
        let mut sample = Sample {
            intended_ns: intended_ns.unwrap_or(sent_ns),
            sent_ns,
            done_ns,
            outcome: None,
            body_bytes: 0,
            ok: false,
        };
        match reply {
            Ok(reply) => {
                sample.outcome = reply.outcome;
                sample.body_bytes = reply.body.len() as u32;
                sample.ok = reply.status == 200 && scan_reply(reply.body) == Some(request.expect);
            }
            Err(_) => {
                *self = Conn::open(self.addr).expect("reconnect to the edge server");
            }
        }
        sample
    }
}

/// What one window produced: a sample per request in window order, and
/// (traced runs) the client's spans.
pub struct WindowResult {
    pub samples: Vec<Sample>,
    pub spans: Vec<Span>,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl WindowResult {
    pub fn wall_s(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e9
    }

    pub fn failed(&self) -> usize {
        self.samples.iter().filter(|s| !s.ok).count()
    }

    /// Latencies from the intended send to the last body byte, ms,
    /// ascending, of the correct replies `keep` selects.
    pub fn latencies_ms(&self, keep: impl Fn(&Sample) -> bool) -> Vec<f64> {
        let mut out: Vec<f64> = self
            .samples
            .iter()
            .filter(|s| s.ok && keep(s))
            .map(|s| (s.done_ns - s.intended_ns) as f64 / 1e6)
            .collect();
        out.sort_by(f64::total_cmp);
        out
    }
}

/// What one connection's thread brings back: its samples by window
/// position, and its spans.
type Dealt = (Vec<(usize, Sample)>, Vec<Span>);

/// How a window paces its requests.
pub enum Pacing {
    /// Each connection sends its next request once the previous reply
    /// is verified.
    Closed,
    /// Poisson arrivals at `rate` per second drawn from `seed`, dealt
    /// round-robin to the connections; each request is timed from its
    /// intended send instant.
    Open { rate: f64, seed: u64 },
}

/// Runs `stream` (indexes into `pool`) over [`CONNECTIONS`] keep-alive
/// connections. With `traced`, each request also leaves a
/// `client.request` span with `client.wait_send` and `client.rtt`
/// children.
pub fn run_window(
    addr: SocketAddr,
    pool: &[Request],
    stream: &[u32],
    pacing: &Pacing,
    traced: bool,
) -> WindowResult {
    // Offsets from the window start at which requests are due.
    let due_ns: Option<Vec<u64>> = match *pacing {
        Pacing::Closed => None,
        Pacing::Open { rate, seed } => {
            let mut rng = StdRng::seed_from_u64(seed);
            let mut t = 0.0f64;
            Some(
                stream
                    .iter()
                    .map(|_| {
                        t += -(1.0 - rng.gen::<f64>()).ln() / rate;
                        (t * 1e9) as u64
                    })
                    .collect(),
            )
        }
    };
    // An open loop leaves the CPU idle between arrivals.
    let _awake = due_ns.is_some().then(KeepAwake::start);
    let cursor = AtomicUsize::new(0);
    let mut conns: Vec<Conn> = (0..CONNECTIONS)
        .map(|_| Conn::open(addr).expect("connect to the edge server"))
        .collect();
    let start_ns = now_ns();
    let per_conn: Vec<Dealt> = std::thread::scope(|scope| {
        let workers: Vec<_> = conns
            .iter_mut()
            .enumerate()
            .map(|(c, conn)| {
                let (cursor, due_ns) = (&cursor, &due_ns);
                scope.spawn(move || {
                    affinity::tighten_timer_slack();
                    let mut out = Vec::with_capacity(stream.len() / CONNECTIONS + 1);
                    let mut spans = Vec::new();
                    // Open loop: every CONNECTIONS-th request is this
                    // connection's. Closed loop: whichever is next.
                    let mut own = (c..stream.len()).step_by(CONNECTIONS);
                    loop {
                        let i = match due_ns {
                            None => cursor.fetch_add(1, Ordering::Relaxed),
                            Some(_) => own.next().unwrap_or(stream.len()),
                        };
                        if i >= stream.len() {
                            return (out, spans);
                        }
                        let intended = due_ns.as_ref().map(|due| {
                            let at = start_ns + due[i];
                            let now = now_ns();
                            if at > now {
                                std::thread::sleep(Duration::from_nanos(at - now));
                            }
                            at
                        });
                        let s = conn.timed(&pool[stream[i] as usize], intended);
                        out.push((i, s));
                        if traced {
                            let (root, i) = (Some(spans.len() as u32), i as u32);
                            let (due, sent, done) = (s.intended_ns, s.sent_ns, s.done_ns);
                            spans.push(Span::new("client.request", i, None, due, done));
                            spans.push(Span::new("client.wait_send", i, root, due, sent));
                            spans.push(Span::new("client.rtt", i, root, sent, done));
                        }
                    }
                })
            })
            .collect();
        workers
            .into_iter()
            .map(|w| w.join().expect("generator thread"))
            .collect()
    });
    let end_ns = now_ns();

    let mut samples: Vec<Option<Sample>> = vec![None; stream.len()];
    let mut spans: Vec<Span> = Vec::new();
    for (dealt, mut conn_spans) in per_conn {
        for (i, sample) in dealt {
            samples[i] = Some(sample);
        }
        // Parents index the connection's own list; rebase them.
        let base = spans.len() as u32;
        for span in &mut conn_spans {
            span.parent = span.parent.map(|p| p + base);
        }
        spans.append(&mut conn_spans);
    }
    let samples: Vec<Sample> = samples
        .into_iter()
        .map(|s| s.expect("every request of the window was dealt"))
        .collect();
    WindowResult {
        samples,
        spans,
        start_ns,
        end_ns,
    }
}
