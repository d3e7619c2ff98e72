//! A connection's outgoing bytes: segments in wire order, handed to the
//! socket with gathered writes and never copied on the way.
//!
//! A segment is an owned buffer (a reply's head, a body the service
//! built), ranges of a buffer shared with whoever owns it (rows of a
//! cache entry's slab, sent from where they lie) or a static slice (the
//! closing tag). Queueing a reply moves a few pointers. A short write
//! leaves a cursor in whichever slice the kernel stopped in — inside a
//! shared range as well as inside a head; a segment is dropped, and a
//! shared buffer released, as soon as it is fully out.

use fp_httpd::SharedBytes;
use std::collections::VecDeque;
use std::io::{self, IoSlice, Write};

/// Slices gathered per write call. A large contained hit is some 70
/// slab ranges and the widest seen is 534 (DESIGN.md §20), so this is
/// one `writev(2)` for nearly every reply and three for the widest;
/// filling the array costs 4 KB of stack and tens of nanoseconds.
const MAX_GATHER: usize = 256;

/// One stretch of a connection's output.
pub(crate) enum Seg {
    /// A buffer the queue owns.
    Owned(Vec<u8>),
    /// `(start, end)` ranges of a buffer the queue shares, in order.
    /// [`fp_httpd::SharedTail::new`] checked them against the buffer.
    Shared {
        owner: SharedBytes,
        ranges: Vec<(u32, u32)>,
    },
    /// Bytes that live for the whole program.
    Static(&'static [u8]),
}

impl Seg {
    /// How many contiguous slices the segment is.
    fn slices(&self) -> usize {
        match self {
            Seg::Shared { ranges, .. } => ranges.len(),
            Seg::Owned(_) | Seg::Static(_) => 1,
        }
    }

    fn slice(&self, at: usize) -> &[u8] {
        match self {
            Seg::Owned(buf) => buf,
            Seg::Shared { owner, ranges } => {
                let (start, end) = ranges[at];
                &(**owner).as_ref()[start as usize..end as usize]
            }
            Seg::Static(bytes) => bytes,
        }
    }

    pub(crate) fn is_empty(&self) -> bool {
        (0..self.slices()).all(|at| self.slice(at).is_empty())
    }
}

/// Segments awaiting the socket.
#[derive(Default)]
pub(crate) struct OutQueue {
    /// No queued segment is empty (a shared one may hold empty ranges).
    segs: VecDeque<Seg>,
    /// The front segment's first slice not yet fully written.
    front_slice: usize,
    /// How much of that slice is already written.
    slice_written: usize,
}

impl OutQueue {
    /// Appends `seg` to the wire order.
    pub(crate) fn push(&mut self, seg: Seg) {
        if !seg.is_empty() {
            self.segs.push_back(seg);
        }
    }

    /// Whether everything pushed has been written.
    pub(crate) fn is_empty(&self) -> bool {
        self.segs.is_empty()
    }

    /// Writes to `sink` until the queue is empty or the sink would
    /// block, and returns how many bytes went out. `sink` is a socket:
    /// `write_vectored` on one is a single `writev(2)`. Nothing is
    /// allocated.
    ///
    /// # Errors
    /// Any sink error other than `WouldBlock`/`Interrupted`, and
    /// `WriteZero` when the sink accepts nothing.
    pub(crate) fn flush(&mut self, sink: &mut impl Write) -> io::Result<usize> {
        let mut total = 0;
        while !self.segs.is_empty() {
            let mut gather = [IoSlice::new(&[]); MAX_GATHER];
            let mut count = 0;
            let (mut first, mut skip) = (self.front_slice, self.slice_written);
            'fill: for seg in &self.segs {
                for at in first..seg.slices() {
                    if count == MAX_GATHER {
                        break 'fill;
                    }
                    gather[count] = IoSlice::new(&seg.slice(at)[skip..]);
                    count += 1;
                    skip = 0;
                }
                first = 0;
            }
            match sink.write_vectored(&gather[..count]) {
                Ok(0) => return Err(io::ErrorKind::WriteZero.into()),
                Ok(n) => {
                    total += n;
                    self.advance(n);
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
        Ok(total)
    }

    /// Moves the cursor `n` written bytes forward, dropping every
    /// segment it passes. It comes to rest on a byte still to write:
    /// empty ranges behind the last written byte are passed too.
    fn advance(&mut self, mut n: usize) {
        while let Some(front) = self.segs.front() {
            let left = front.slice(self.front_slice).len() - self.slice_written;
            if n < left {
                self.slice_written += n;
                return;
            }
            n -= left;
            self.slice_written = 0;
            self.front_slice += 1;
            if self.front_slice == front.slices() {
                self.front_slice = 0;
                self.segs.pop_front();
            }
        }
        assert_eq!(n, 0, "wrote more than was queued");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    /// A sink that takes at most `quota[i]` bytes on its `i`-th call and
    /// would block once the quotas run out.
    struct Sips {
        quotas: Vec<usize>,
        call: usize,
        wire: Vec<u8>,
    }

    impl Sips {
        fn of(quotas: Vec<usize>) -> Sips {
            Sips {
                quotas,
                call: 0,
                wire: Vec::new(),
            }
        }
    }

    impl Write for Sips {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.write_vectored(&[IoSlice::new(buf)])
        }

        fn write_vectored(&mut self, bufs: &[IoSlice<'_>]) -> io::Result<usize> {
            let Some(&quota) = self.quotas.get(self.call) else {
                return Err(io::ErrorKind::WouldBlock.into());
            };
            self.call += 1;
            let mut taken = 0;
            for buf in bufs {
                let n = buf.len().min(quota - taken);
                self.wire.extend_from_slice(&buf[..n]);
                taken += n;
            }
            Ok(taken)
        }

        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    fn queue_of(replies: &[(&str, &str)]) -> (OutQueue, Vec<u8>) {
        let mut q = OutQueue::default();
        let mut expected = Vec::new();
        for (head, body) in replies {
            q.push(Seg::Owned(head.as_bytes().to_vec()));
            q.push(Seg::Owned(body.as_bytes().to_vec()));
            expected.extend_from_slice(head.as_bytes());
            expected.extend_from_slice(body.as_bytes());
        }
        (q, expected)
    }

    /// `[head, ranges of shared, "</x>"]`, and the bytes that is.
    fn ranged_reply(shared: &Arc<Vec<u8>>, ranges: &[(u32, u32)]) -> ([Seg; 3], Vec<u8>) {
        let mut expected = b"HEAD;".to_vec();
        for &(start, end) in ranges {
            expected.extend_from_slice(&shared[start as usize..end as usize]);
        }
        expected.extend_from_slice(b"</x>");
        let reply = [
            Seg::Owned(b"HEAD;".to_vec()),
            Seg::Shared {
                owner: Arc::clone(shared) as SharedBytes,
                ranges: ranges.to_vec(),
            },
            Seg::Static(b"</x>"),
        ];
        (reply, expected)
    }

    #[test]
    fn short_writes_resume_inside_head_and_inside_body() {
        let replies = [("HEAD-1;", "body-one"), ("HEAD-2;", ""), ("HEAD-3;", "b3")];
        let (mut q, expected) = queue_of(&replies);
        // 3 stops inside head 1; +6 inside body 1; +8 inside head 2
        // (crossing a buffer edge); +1; then the rest in one go.
        let mut sink = Sips::of(vec![3, 6, 8, 1]);
        assert_eq!(q.flush(&mut sink).unwrap(), 18);
        assert!(!q.is_empty(), "blocked with bytes still queued");
        assert_eq!(sink.wire, &expected[..18]);
        sink.quotas.push(usize::MAX);
        assert_eq!(q.flush(&mut sink).unwrap(), expected.len() - 18);
        assert!(q.is_empty());
        assert_eq!(sink.wire, expected);
        assert_eq!(
            q.flush(&mut sink).unwrap(),
            0,
            "an empty queue writes nothing"
        );
    }

    #[test]
    fn more_buffers_than_one_gather_go_out_in_order() {
        let replies: Vec<(String, String)> = (0..MAX_GATHER)
            .map(|i| (format!("h{i};"), format!("b{i};")))
            .collect();
        let borrowed: Vec<(&str, &str)> = replies
            .iter()
            .map(|(h, b)| (h.as_str(), b.as_str()))
            .collect();
        let (mut q, expected) = queue_of(&borrowed);
        let mut sink = Sips::of(vec![usize::MAX; 4]);
        assert_eq!(q.flush(&mut sink).unwrap(), expected.len());
        assert_eq!(sink.call, 2, "2 × MAX_GATHER buffers take two gathers");
        assert_eq!(sink.wire, expected);
    }

    /// The cursor stops inside a shared range, exactly at the edge of
    /// one, and on the static slice behind them; the shared buffer is
    /// released with the last range's last byte, not with the reply's.
    #[test]
    fn short_writes_stop_inside_and_at_the_edge_of_shared_ranges() {
        let shared = Arc::new(b"0123456789abcdefghij".to_vec());
        // An empty range in the middle must not strand the cursor.
        let ranges = [(2, 6), (6, 6), (10, 14), (18, 20)];
        let (reply, expected) = ranged_reply(&shared, &ranges);
        let mut q = OutQueue::default();
        reply.into_iter().for_each(|seg| q.push(seg));
        q.push(Seg::Owned(b"NEXT".to_vec()));
        let mut all = expected.clone();
        all.extend_from_slice(b"NEXT");

        // 7 = head + 2 of range 0 (inside); +2 = exactly its edge; +4 =
        // exactly the edge of range 2 (across the empty one); +1 inside
        // range 3; +3 = its last byte and 2 of the footer.
        let mut sink = Sips::of(vec![7, 2, 4, 1]);
        assert_eq!(q.flush(&mut sink).unwrap(), 14);
        assert_eq!(sink.wire, &all[..14]);
        assert_eq!(Arc::strong_count(&shared), 2, "ranges still queued");
        sink.quotas.push(3);
        assert_eq!(q.flush(&mut sink).unwrap(), 3);
        assert_eq!(sink.wire, &all[..17]);
        assert_eq!(
            Arc::strong_count(&shared),
            1,
            "last range out: buffer let go"
        );
        assert!(!q.is_empty());
        sink.quotas.push(usize::MAX);
        q.flush(&mut sink).unwrap();
        assert!(q.is_empty());
        assert_eq!(sink.wire, all);
    }

    #[test]
    fn a_reply_of_more_ranges_than_one_gather_takes_a_handful_of_writes() {
        let shared = Arc::new((0..=255u8).cycle().take(4 * 600).collect::<Vec<u8>>());
        // 600 ranges of 3 bytes, a 1-byte gap after each.
        let ranges: Vec<(u32, u32)> = (0..600).map(|i| (4 * i, 4 * i + 3)).collect();
        let (reply, expected) = ranged_reply(&shared, &ranges);
        let mut q = OutQueue::default();
        reply.into_iter().for_each(|seg| q.push(seg));
        let mut sink = Sips::of(vec![usize::MAX; 8]);
        assert_eq!(q.flush(&mut sink).unwrap(), expected.len());
        assert_eq!(sink.call, 602usize.div_ceil(MAX_GATHER));
        assert_eq!(sink.wire, expected);
        assert!(q.is_empty());

        // The same reply through a sink that stops every 100 bytes.
        let (reply, expected) = ranged_reply(&shared, &ranges);
        reply.into_iter().for_each(|seg| q.push(seg));
        let mut sink = Sips::of(vec![100; expected.len().div_ceil(100)]);
        assert_eq!(q.flush(&mut sink).unwrap(), expected.len());
        assert_eq!(sink.wire, expected);
        assert!(q.is_empty());
    }

    #[test]
    fn a_sink_that_accepts_nothing_is_an_error_not_a_spin() {
        let (mut q, _) = queue_of(&[("h", "b")]);
        let mut sink = Sips::of(vec![0]);
        let err = q.flush(&mut sink).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::WriteZero);
    }
}
