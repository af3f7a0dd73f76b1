//! Direct bindings to the two Linux facilities std lacks — `epoll` and
//! `listen` — wrapped in safe types, beside the std-built doorbell and
//! accept that complete the event-driven reactor's OS layer.
//!
//! libc is already linked through `std`, so declaring the symbols we need
//! keeps the crate dependency-free; everything `unsafe` in the serve crate
//! is confined to this module (the crate root carries
//! `#![deny(unsafe_code)]`, overridden here alone). The wrappers expose the
//! exact shape the reactor consumes: an [`Epoll`] instance per reactor
//! thread, which owns its fd as an [`OwnedFd`]; [`Doorbell`]s, built on a
//! non-blocking [`UnixStream`] pair, for the shutdown signal and the router
//! mailboxes; and [`accept_nonblocking`], which hands back non-blocking
//! [`TcpStream`]s from std's `accept`. The listener itself comes from
//! [`TcpListener::bind`], which on Linux sets `SO_REUSEADDR` before
//! `bind(2)`; [`set_backlog`] only resizes its accept queue.
#![allow(unsafe_code)]

use std::io::{self, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::os::unix::io::{AsRawFd, FromRawFd, OwnedFd, RawFd};
use std::os::unix::net::UnixStream;

/// Readable (`EPOLLIN`).
pub const EPOLLIN: u32 = 0x001;
/// Writable (`EPOLLOUT`).
pub const EPOLLOUT: u32 = 0x004;
/// Error condition (`EPOLLERR`) — always reported, never needs registering.
pub const EPOLLERR: u32 = 0x008;
/// Hang-up (`EPOLLHUP`) — always reported, never needs registering.
pub const EPOLLHUP: u32 = 0x010;
/// Peer shut down its writing half (`EPOLLRDHUP`).
pub const EPOLLRDHUP: u32 = 0x2000;
/// Wake only one of the epoll instances sharing this fd (`EPOLLEXCLUSIVE`,
/// Linux 4.5+) — the reactor registers the shared listener with it so an
/// incoming connection does not thundering-herd every reactor thread.
pub const EPOLLEXCLUSIVE: u32 = 1 << 28;
/// Edge-triggered delivery (`EPOLLET`).
pub const EPOLLET: u32 = 1 << 31;

const EPOLL_CTL_ADD: i32 = 1;
const EPOLL_CLOEXEC: i32 = 0o2000000;

/// One readiness event, ABI-compatible with the kernel's `struct
/// epoll_event` (packed on x86-64, naturally aligned elsewhere).
#[repr(C)]
#[cfg_attr(target_arch = "x86_64", repr(packed))]
#[derive(Clone, Copy)]
pub struct EpollEvent {
    /// Bitmask of ready `EPOLL*` conditions.
    pub events: u32,
    /// The caller's token, returned verbatim (the reactor stores slab
    /// indices here).
    pub data: u64,
}

impl EpollEvent {
    /// An all-zero event, for pre-sizing `epoll_wait` buffers.
    pub const fn zeroed() -> EpollEvent {
        EpollEvent { events: 0, data: 0 }
    }
}

extern "C" {
    fn epoll_create1(flags: i32) -> i32;
    fn epoll_ctl(epfd: i32, op: i32, fd: i32, event: *mut EpollEvent) -> i32;
    fn epoll_wait(epfd: i32, events: *mut EpollEvent, maxevents: i32, timeout: i32) -> i32;
    fn listen(fd: i32, backlog: i32) -> i32;
}

/// Map a `-1` syscall return to [`io::Error::last_os_error`].
fn check(ret: i32) -> io::Result<i32> {
    if ret < 0 {
        Err(io::Error::last_os_error())
    } else {
        Ok(ret)
    }
}

/// An epoll instance. Each reactor thread owns one; the fd closes on drop.
#[derive(Debug)]
pub struct Epoll {
    fd: OwnedFd,
}

impl Epoll {
    /// Create a new epoll instance (`EPOLL_CLOEXEC`).
    pub fn new() -> io::Result<Epoll> {
        let fd = check(unsafe { epoll_create1(EPOLL_CLOEXEC) })?;
        // SAFETY: `epoll_create1` just returned this fd; nothing else owns it.
        let fd = unsafe { OwnedFd::from_raw_fd(fd) };
        Ok(Epoll { fd })
    }

    /// Register `fd` for `events`, tagging it with `token`. Registration is
    /// once per fd: the reactor never re-arms (connections use
    /// edge-triggered `EPOLLIN | EPOLLOUT`), and closing an fd removes it
    /// from the interest list automatically.
    pub fn add(&self, fd: RawFd, events: u32, token: u64) -> io::Result<()> {
        let mut event = EpollEvent {
            events,
            data: token,
        };
        // SAFETY: `event` is a live `epoll_event` that the kernel only reads.
        check(unsafe { epoll_ctl(self.fd.as_raw_fd(), EPOLL_CTL_ADD, fd, &mut event) })?;
        Ok(())
    }

    /// Wait up to `timeout_ms` (`-1` = forever) for readiness, filling
    /// `events` from the front. Returns the number of events delivered;
    /// `EINTR` is reported as zero events, like a timeout.
    pub fn wait(&self, events: &mut [EpollEvent], timeout_ms: i32) -> io::Result<usize> {
        let max = i32::try_from(events.len()).unwrap_or(i32::MAX);
        // SAFETY: the kernel writes at most `max` events, all inside `events`.
        let n = unsafe { epoll_wait(self.fd.as_raw_fd(), events.as_mut_ptr(), max, timeout_ms) };
        if n < 0 {
            let e = io::Error::last_os_error();
            return if e.kind() == io::ErrorKind::Interrupted {
                Ok(0)
            } else {
                Err(e)
            };
        }
        Ok(n as usize)
    }
}

/// A level-triggered doorbell: the read end of a non-blocking
/// [`UnixStream`] pair, registered in an epoll set, stays readable from
/// [`Doorbell::signal`] until [`Doorbell::drain`]. The shutdown doorbell is
/// never drained, so one signal makes every later `epoll_wait` in every
/// reactor return immediately; a router mailbox drains its doorbell before
/// it takes its completions.
#[derive(Debug)]
pub struct Doorbell {
    read: UnixStream,
    write: UnixStream,
}

impl Doorbell {
    /// Create a quiet doorbell (both ends non-blocking and close-on-exec).
    pub fn new() -> io::Result<Doorbell> {
        let (read, write) = UnixStream::pair()?;
        read.set_nonblocking(true)?;
        write.set_nonblocking(true)?;
        Ok(Doorbell { read, write })
    }

    /// The read end's fd, for registering with [`Epoll::add`].
    pub fn raw_fd(&self) -> RawFd {
        self.read.as_raw_fd()
    }

    /// Make the read end readable by writing one byte to the other end.
    pub fn signal(&self) -> io::Result<()> {
        match (&self.write).write(&[1]) {
            // A full socket buffer holds unread bytes: already rung.
            Err(e) if e.kind() != io::ErrorKind::WouldBlock => Err(e),
            _ => Ok(()),
        }
    }

    /// Read every pending byte back out, making the doorbell quiet until
    /// the next [`Doorbell::signal`]. This is what a *resettable* doorbell
    /// needs (the router's per-reactor completion mailbox), as opposed to
    /// the sticky shutdown doorbell which is deliberately never drained.
    pub fn drain(&self) {
        let mut bytes = [0u8; 64];
        // Stops at WouldBlock: nothing left unread.
        while matches!((&self.read).read(&mut bytes), Ok(1..)) {}
    }
}

/// Accept one pending connection from a non-blocking listener and make it
/// non-blocking (std's `accept` already sets close-on-exec). `Ok(None)`
/// means the backlog is drained; transient per-connection failures
/// (`ECONNABORTED`, `EINTR`) retry internally.
pub fn accept_nonblocking(listener: &TcpListener) -> io::Result<Option<TcpStream>> {
    loop {
        match listener.accept() {
            Ok((stream, _)) => return stream.set_nonblocking(true).map(|()| Some(stream)),
            Err(e) => match e.kind() {
                io::ErrorKind::WouldBlock => return Ok(None),
                io::ErrorKind::Interrupted | io::ErrorKind::ConnectionAborted => continue,
                _ => return Err(e),
            },
        }
    }
}

/// Resize a bound listener's accept queue to `backlog` connections with
/// one more `listen(2)`: [`TcpListener::bind`] listens with std's own
/// depth, and Linux resizes a listening socket's queue when `listen(2)`
/// runs again.
pub fn set_backlog(listener: &TcpListener, backlog: i32) -> io::Result<()> {
    // SAFETY: `listen` reads only its two integers, and the borrowed
    // listener keeps its fd open for the call.
    check(unsafe { listen(listener.as_raw_fd(), backlog) })?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn doorbell_signal_is_sticky_and_wakes_every_wait() {
        let epoll = Epoll::new().unwrap();
        let wake = Doorbell::new().unwrap();
        epoll.add(wake.raw_fd(), EPOLLIN, 7).unwrap();

        let mut events = [EpollEvent::zeroed(); 4];
        // Nothing signalled: a short wait times out empty.
        assert_eq!(epoll.wait(&mut events, 0).unwrap(), 0);

        wake.signal().unwrap();
        wake.signal().unwrap(); // idempotent
        for _ in 0..3 {
            // Level-triggered and never drained: every wait sees it.
            let n = epoll.wait(&mut events, 1000).unwrap();
            assert_eq!(n, 1);
            let (got_events, token) = (events[0].events, events[0].data);
            assert_ne!(got_events & EPOLLIN, 0);
            assert_eq!(token, 7);
        }
        // Drained, it is quiet again: a zero-timeout wait returns nothing.
        wake.drain();
        assert_eq!(epoll.wait(&mut events, 0).unwrap(), 0);
    }

    #[test]
    fn accept_returns_nonblocking_streams_and_none_when_drained() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        listener.set_nonblocking(true).unwrap();
        assert!(
            accept_nonblocking(&listener).unwrap().is_none(),
            "empty backlog"
        );

        let mut client = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let accepted = loop {
            match accept_nonblocking(&listener).unwrap() {
                Some(stream) => break stream,
                None => std::thread::yield_now(),
            }
        };
        // The accepted stream is non-blocking out of the box: a read with
        // no data errors WouldBlock instead of hanging.
        let mut probe = accepted;
        let mut byte = [0u8; 1];
        match probe.read(&mut byte) {
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => {}
            other => panic!("expected WouldBlock on empty socket, got {other:?}"),
        }
        client.write_all(b"x").unwrap();
        loop {
            match probe.read(&mut byte) {
                Ok(1) => break,
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => std::thread::yield_now(),
                other => panic!("unexpected read result {other:?}"),
            }
        }
        assert_eq!(byte[0], b'x');
    }

    #[test]
    fn epoll_reports_edge_triggered_readability() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        listener.set_nonblocking(true).unwrap();
        let mut client = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let server = loop {
            match accept_nonblocking(&listener).unwrap() {
                Some(stream) => break stream,
                None => std::thread::yield_now(),
            }
        };

        let epoll = Epoll::new().unwrap();
        epoll
            .add(
                server.as_raw_fd(),
                EPOLLIN | EPOLLOUT | EPOLLET | EPOLLRDHUP,
                42,
            )
            .unwrap();
        let mut events = [EpollEvent::zeroed(); 4];
        // Freshly registered: writable edge reported immediately.
        let n = epoll.wait(&mut events, 1000).unwrap();
        assert_eq!(n, 1);
        assert_ne!(events[0].events & EPOLLOUT, 0);

        client.write_all(b"ping").unwrap();
        let n = epoll.wait(&mut events, 1000).unwrap();
        assert_eq!(n, 1);
        assert_ne!(events[0].events & EPOLLIN, 0);
        let token = events[0].data;
        assert_eq!(token, 42);

        // Edge-triggered: without reading the data, no further events.
        assert_eq!(epoll.wait(&mut events, 50).unwrap(), 0);
    }
}
