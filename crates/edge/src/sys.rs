//! Thin, hand-declared bindings to the kernel facilities the reactor
//! needs: `epoll` (readiness), `eventfd` (cross-thread wakeup), `signal`
//! (SIGINT/SIGTERM → flag), and `read` into a `Vec`'s spare capacity
//! (stable std can only read into initialised bytes; gathered writes
//! need nothing here — `TcpStream::write_vectored` is `writev`). The
//! build environment has no
//! crates.io access, so there is no `libc` crate to lean on; std links
//! the platform libc anyway, and these few prototypes are stable ABI.
//!
//! This module is the only place in the crate allowed to use `unsafe`,
//! and every wrapper it exports is safe: file descriptors are owned
//! (`OwnedFd` closes on drop), buffers are sized by the callee, and the
//! signal handler only stores to a process-static atomic flag (the one
//! thing an async-signal-safe handler may do).

use std::fs::File;
use std::io::{self, Read, Write};
use std::os::fd::{AsRawFd, FromRawFd, OwnedFd, RawFd};
use std::sync::atomic::{AtomicBool, Ordering};

// Readiness event bits (uapi/linux/eventpoll.h).
/// The fd is readable.
pub const EPOLLIN: u32 = 0x001;
/// The fd is writable.
pub const EPOLLOUT: u32 = 0x004;
/// An error condition happened on the fd.
pub const EPOLLERR: u32 = 0x008;
/// Hang-up: the peer closed the connection.
pub const EPOLLHUP: u32 = 0x010;
/// The peer shut down its writing half (half-close detection).
pub const EPOLLRDHUP: u32 = 0x2000;

const EPOLL_CTL_ADD: i32 = 1;
const EPOLL_CTL_DEL: i32 = 2;
const EPOLL_CTL_MOD: i32 = 3;
const EPOLL_CLOEXEC: i32 = 0o2000000;

const EFD_CLOEXEC: i32 = 0o2000000;
const EFD_NONBLOCK: i32 = 0o4000;

const SIGINT: i32 = 2;
const SIGTERM: i32 = 15;

/// `struct epoll_event`. Packed on x86 so the layout matches the
/// kernel's (which packs there to keep 32/64-bit compat); other
/// architectures use natural alignment, same as the kernel headers.
#[cfg_attr(any(target_arch = "x86", target_arch = "x86_64"), repr(C, packed))]
#[cfg_attr(not(any(target_arch = "x86", target_arch = "x86_64")), repr(C))]
#[derive(Clone, Copy)]
pub struct EpollEvent {
    /// Readiness bits ([`EPOLLIN`] and friends).
    pub events: u32,
    /// Caller-chosen token identifying the registered fd.
    pub token: u64,
}

extern "C" {
    fn epoll_create1(flags: i32) -> i32;
    fn epoll_ctl(epfd: i32, op: i32, fd: i32, event: *mut EpollEvent) -> i32;
    fn epoll_wait(epfd: i32, events: *mut EpollEvent, maxevents: i32, timeout_ms: i32) -> i32;
    fn eventfd(initval: u32, flags: i32) -> i32;
    fn signal(signum: i32, handler: usize) -> usize;
    fn read(fd: i32, buf: *mut u8, count: usize) -> isize;
}

/// Reads up to `want` bytes from `fd` straight onto the end of `buf`
/// (growing its capacity first if needed) and returns how many arrived;
/// `Ok(0)` is end of stream. Nothing is zeroed and nothing is copied:
/// the kernel writes into the vector's spare capacity.
pub fn read_into_spare(fd: RawFd, buf: &mut Vec<u8>, want: usize) -> io::Result<usize> {
    buf.reserve(want);
    let spare = &mut buf.spare_capacity_mut()[..want];
    // SAFETY: `spare` is `want` writable bytes that `buf` owns and that
    // nothing else refers to; the kernel writes at most `want` of them.
    let n = unsafe { read(fd, spare.as_mut_ptr().cast(), want) };
    if n < 0 {
        return Err(io::Error::last_os_error());
    }
    let n = n as usize;
    assert!(
        n <= want,
        "read(2) returned more than it was given room for"
    );
    // SAFETY: the kernel initialised the first `n` spare bytes, and
    // `len + n <= len + want <= capacity` after the `reserve` above.
    unsafe { buf.set_len(buf.len() + n) };
    Ok(n)
}

/// An owned epoll instance.
pub struct Epoll {
    fd: OwnedFd,
}

/// How many readiness events one [`Epoll::wait`] call can return.
pub const MAX_EVENTS: usize = 256;

impl Epoll {
    /// Creates a close-on-exec epoll instance.
    pub fn new() -> io::Result<Epoll> {
        // SAFETY: plain syscall wrapper; no pointers involved.
        let fd = unsafe { epoll_create1(EPOLL_CLOEXEC) };
        if fd < 0 {
            return Err(io::Error::last_os_error());
        }
        // SAFETY: `fd` is a freshly returned, unowned descriptor.
        Ok(Epoll {
            fd: unsafe { OwnedFd::from_raw_fd(fd) },
        })
    }

    fn ctl(&self, op: i32, fd: RawFd, events: u32, token: u64) -> io::Result<()> {
        let mut ev = EpollEvent { events, token };
        // SAFETY: `ev` outlives the call; the kernel copies it out.
        let rc = unsafe { epoll_ctl(self.fd.as_raw_fd(), op, fd, &mut ev) };
        if rc < 0 {
            return Err(io::Error::last_os_error());
        }
        Ok(())
    }

    /// Registers `fd` for `events`, tagged with `token`.
    pub fn add(&self, fd: RawFd, events: u32, token: u64) -> io::Result<()> {
        self.ctl(EPOLL_CTL_ADD, fd, events, token)
    }

    /// Changes the registered interest set for `fd`.
    pub fn modify(&self, fd: RawFd, events: u32, token: u64) -> io::Result<()> {
        self.ctl(EPOLL_CTL_MOD, fd, events, token)
    }

    /// Deregisters `fd`.
    pub fn delete(&self, fd: RawFd) -> io::Result<()> {
        // Pre-2.6.9 kernels required a non-null event for DEL; passing
        // one is harmless everywhere.
        self.ctl(EPOLL_CTL_DEL, fd, 0, 0)
    }

    /// Waits up to `timeout_ms` (−1 = forever) and fills `events`.
    /// Returns how many entries are valid. A signal interruption
    /// (`EINTR`) reads as zero events, so callers re-check their flags
    /// instead of dying.
    pub fn wait(
        &self,
        events: &mut [EpollEvent; MAX_EVENTS],
        timeout_ms: i32,
    ) -> io::Result<usize> {
        // SAFETY: the buffer is valid for MAX_EVENTS entries and the
        // kernel writes at most `maxevents` of them.
        let n = unsafe {
            epoll_wait(
                self.fd.as_raw_fd(),
                events.as_mut_ptr(),
                MAX_EVENTS as i32,
                timeout_ms,
            )
        };
        if n < 0 {
            let err = io::Error::last_os_error();
            if err.kind() == io::ErrorKind::Interrupted {
                return Ok(0);
            }
            return Err(err);
        }
        Ok(n as usize)
    }
}

/// A nonblocking eventfd used to kick the reactor out of `epoll_wait`
/// from another thread (workers pushing completions, shutdown).
pub struct WakeFd {
    file: File,
}

impl WakeFd {
    /// Creates the eventfd (nonblocking, close-on-exec).
    pub fn new() -> io::Result<WakeFd> {
        // SAFETY: plain syscall wrapper; no pointers involved.
        let fd = unsafe { eventfd(0, EFD_CLOEXEC | EFD_NONBLOCK) };
        if fd < 0 {
            return Err(io::Error::last_os_error());
        }
        // SAFETY: `fd` is a freshly returned, unowned descriptor.
        Ok(WakeFd {
            file: unsafe { File::from_raw_fd(fd) },
        })
    }

    /// The fd to register with epoll for [`EPOLLIN`].
    pub fn raw_fd(&self) -> RawFd {
        self.file.as_raw_fd()
    }

    /// Signals the reactor (adds 1 to the counter). Safe from any
    /// thread; a full counter (`WouldBlock`) still leaves it signaled.
    pub fn wake(&self) {
        let one = 1u64.to_ne_bytes();
        let _ = (&self.file).write_all(&one);
    }

    /// Drains the counter after a readiness event so level-triggered
    /// epoll stops reporting it.
    pub fn drain(&self) {
        let mut buf = [0u8; 8];
        // Nonblocking: one read empties an eventfd counter entirely.
        let _ = (&self.file).read(&mut buf);
    }
}

static INTERRUPTED: AtomicBool = AtomicBool::new(false);

extern "C" fn on_interrupt(_signum: i32) {
    // Only async-signal-safe operation here: a relaxed atomic store.
    INTERRUPTED.store(true, Ordering::Relaxed);
}

/// Installs SIGINT/SIGTERM handlers that set a flag instead of killing
/// the process, and returns that flag. Idempotent; safe to call more
/// than once.
pub fn install_interrupt_flag() -> &'static AtomicBool {
    // SAFETY: `signal` with a function pointer of the correct C ABI
    // signature; the handler body is async-signal-safe.
    unsafe {
        signal(SIGINT, on_interrupt as extern "C" fn(i32) as usize);
        signal(SIGTERM, on_interrupt as extern "C" fn(i32) as usize);
    }
    &INTERRUPTED
}

/// Whether a SIGINT/SIGTERM arrived since [`install_interrupt_flag`]:
/// the process is draining.
pub fn interrupted() -> bool {
    INTERRUPTED.load(Ordering::Relaxed)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::{TcpListener, TcpStream};

    #[test]
    fn epoll_reports_listener_readiness() {
        let epoll = Epoll::new().unwrap();
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        listener.set_nonblocking(true).unwrap();
        epoll.add(listener.as_raw_fd(), EPOLLIN, 42).unwrap();

        let mut events = [EpollEvent {
            events: 0,
            token: 0,
        }; MAX_EVENTS];
        // Nothing pending yet.
        assert_eq!(epoll.wait(&mut events, 0).unwrap(), 0);

        let _client = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let n = epoll.wait(&mut events, 1000).unwrap();
        assert_eq!(n, 1);
        let token = events[0].token;
        assert_eq!(token, 42);
        let bits = events[0].events;
        assert_ne!(bits & EPOLLIN, 0);
        epoll.delete(listener.as_raw_fd()).unwrap();
    }

    #[test]
    fn read_into_spare_appends_without_touching_what_is_there() {
        use std::io::Write;
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let mut client = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (server, _) = listener.accept().unwrap();

        client.write_all(b"hello world").unwrap();
        let mut buf = b"kept:".to_vec();
        // A small `want` caps the read even though more is waiting.
        assert_eq!(read_into_spare(server.as_raw_fd(), &mut buf, 5).unwrap(), 5);
        assert_eq!(buf, b"kept:hello");
        assert_eq!(
            read_into_spare(server.as_raw_fd(), &mut buf, 64).unwrap(),
            6
        );
        assert_eq!(buf, b"kept:hello world");

        server.set_nonblocking(true).unwrap();
        let err = read_into_spare(server.as_raw_fd(), &mut buf, 64).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::WouldBlock);
        drop(client);
        server.set_nonblocking(false).unwrap();
        assert_eq!(
            read_into_spare(server.as_raw_fd(), &mut buf, 64).unwrap(),
            0
        );
        assert_eq!(buf, b"kept:hello world");
    }

    #[test]
    fn wakefd_crosses_threads_and_drains() {
        let epoll = Epoll::new().unwrap();
        let wake = std::sync::Arc::new(WakeFd::new().unwrap());
        epoll.add(wake.raw_fd(), EPOLLIN, 7).unwrap();

        let mut events = [EpollEvent {
            events: 0,
            token: 0,
        }; MAX_EVENTS];
        assert_eq!(epoll.wait(&mut events, 0).unwrap(), 0);

        let w2 = std::sync::Arc::clone(&wake);
        std::thread::spawn(move || w2.wake()).join().unwrap();
        assert_eq!(epoll.wait(&mut events, 1000).unwrap(), 1);
        let token = events[0].token;
        assert_eq!(token, 7);

        wake.drain();
        assert_eq!(epoll.wait(&mut events, 0).unwrap(), 0);
    }
}
