//! A connection's outgoing bytes: owned buffers in wire order, handed
//! to the socket with gathered writes and never copied again.
//!
//! A reply enters as `[head, body]` — the body is the very `Vec` the
//! service assembled — so queueing moves two pointers. A short write
//! leaves a cursor inside whichever buffer the kernel stopped in, head
//! or body; buffers are freed as soon as they are fully out.

use std::collections::VecDeque;
use std::io::{self, IoSlice, Write};

/// Buffers gathered per write call: eight replies' head and body.
const MAX_GATHER: usize = 16;

/// Owned buffers awaiting the socket.
#[derive(Default)]
pub(crate) struct OutQueue {
    /// Every queued buffer is non-empty.
    bufs: VecDeque<Vec<u8>>,
    /// How much of the front buffer is already written; always less
    /// than its length.
    front_written: usize,
}

impl OutQueue {
    /// Appends `buf` to the wire order.
    pub(crate) fn push(&mut self, buf: Vec<u8>) {
        if !buf.is_empty() {
            self.bufs.push_back(buf);
        }
    }

    /// Whether everything pushed has been written.
    pub(crate) fn is_empty(&self) -> bool {
        self.bufs.is_empty()
    }

    /// Writes to `sink` until the queue is empty or the sink would
    /// block, and returns how many bytes went out. `sink` is a socket:
    /// `write_vectored` on one is a single `writev(2)`.
    ///
    /// # Errors
    /// Any sink error other than `WouldBlock`/`Interrupted`, and
    /// `WriteZero` when the sink accepts nothing.
    pub(crate) fn flush(&mut self, sink: &mut impl Write) -> io::Result<usize> {
        let mut total = 0;
        while let Some(front) = self.bufs.front() {
            let mut gather = [IoSlice::new(&[]); MAX_GATHER];
            gather[0] = IoSlice::new(&front[self.front_written..]);
            let mut count = 1;
            for buf in self.bufs.iter().skip(1).take(MAX_GATHER - 1) {
                gather[count] = IoSlice::new(buf);
                count += 1;
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
    /// buffer it passes.
    fn advance(&mut self, mut n: usize) {
        while n > 0 {
            let front = self.bufs.front().expect("wrote more than was queued");
            let left = front.len() - self.front_written;
            if n < left {
                self.front_written += n;
                return;
            }
            n -= left;
            self.front_written = 0;
            self.bufs.pop_front();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A sink that takes at most `quota[i]` bytes on its `i`-th call and
    /// would block once the quotas run out.
    struct Sips {
        quotas: Vec<usize>,
        call: usize,
        wire: Vec<u8>,
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
            q.push(head.as_bytes().to_vec());
            q.push(body.as_bytes().to_vec());
            expected.extend_from_slice(head.as_bytes());
            expected.extend_from_slice(body.as_bytes());
        }
        (q, expected)
    }

    #[test]
    fn short_writes_resume_inside_head_and_inside_body() {
        let replies = [("HEAD-1;", "body-one"), ("HEAD-2;", ""), ("HEAD-3;", "b3")];
        let (mut q, expected) = queue_of(&replies);
        // 3 stops inside head 1; +6 inside body 1; +8 inside head 2
        // (crossing a buffer edge); +1; then the rest in one go.
        let mut sink = Sips {
            quotas: vec![3, 6, 8, 1],
            call: 0,
            wire: Vec::new(),
        };
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
        let mut sink = Sips {
            quotas: vec![usize::MAX; 4],
            call: 0,
            wire: Vec::new(),
        };
        assert_eq!(q.flush(&mut sink).unwrap(), expected.len());
        assert_eq!(sink.call, 2, "2 × MAX_GATHER buffers take two gathers");
        assert_eq!(sink.wire, expected);
    }

    #[test]
    fn a_sink_that_accepts_nothing_is_an_error_not_a_spin() {
        let (mut q, _) = queue_of(&[("h", "b")]);
        let mut sink = Sips {
            quotas: vec![0],
            call: 0,
            wire: Vec::new(),
        };
        let err = q.flush(&mut sink).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::WriteZero);
    }
}
