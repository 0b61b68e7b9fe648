//! Readiness-based reactor for the event backend.
//!
//! The event server ([`crate::event`]) multiplexes every source
//! connection in one thread and sleeps until a connection has bytes or
//! a deadline is due. The build picks one readiness implementation per
//! platform; nothing chooses at run time:
//!
//! * on Linux, `epoll` over the raw fds (via a minimal `extern "C"`
//!   shim — `epoll_create1`/`epoll_ctl`/`epoll_wait` are plain libc
//!   symbols, and the workspace is offline, so no mio/tokio);
//! * everywhere else, a sweep: [`Reactor::wait`] reports every
//!   registered fd as ready at once, the caller probes them with
//!   non-blocking I/O, and [`Reactor::idle`] parks 200 µs after a cycle
//!   that moved nothing. Test builds compile the sweep on Linux too, so
//!   its unit test runs on Linux as well.
//!
//! Semantics are deliberately minimal and *level-triggered*:
//!
//! * [`Reactor::register`] watches an fd for read readiness under a
//!   caller-chosen token;
//! * [`Reactor::set_write_interest`] adds or removes write-readiness
//!   reporting for an already-registered fd (used only while a send is
//!   backpressured);
//! * [`Reactor::wait`] blocks until any registered fd is ready or the
//!   timeout elapses, appending [`Event`]s; the caller calls
//!   [`Reactor::idle`] after a cycle that made no progress;
//! * [`Reactor::deregister`] stops watching an fd. A closed peer keeps
//!   a level-triggered fd permanently readable (EOF is "ready"), so the
//!   event server must deregister a connection the moment it observes
//!   the close — otherwise every later wait spins on the corpse.
//!
//! Timeouts are plain [`Duration`]s derived by the caller from
//! [`crate::protocol::DeadlinePolicy`], so straggler deadlines keep
//! their exact typed semantics (`SourceLost`, reissue, promote).

use std::time::Duration;

/// One readiness notification: the token the fd was registered under,
/// plus which directions are ready. Error/hangup conditions are folded
/// into `readable` — the caller's next read observes the actual error
/// or EOF.
#[derive(Debug, Clone, Copy)]
pub struct Event {
    /// The token passed to [`Reactor::register`].
    pub token: usize,
    /// The fd has bytes (or an EOF/error condition) to read.
    pub readable: bool,
    /// The fd can accept more outgoing bytes.
    pub writable: bool,
}

/// The single sleep used by every backoff/park site in this crate: the
/// sweep's idle park and the event backend's connect-retry backoff.
/// Keeping it here means "where do we still sleep?" has a one-line
/// answer.
pub fn park(d: Duration) {
    std::thread::sleep(d);
}

#[cfg(target_os = "linux")]
pub use epoll::Reactor;
#[cfg(not(target_os = "linux"))]
pub use sweep::Reactor;

#[cfg(target_os = "linux")]
mod epoll {
    use super::{sys, Event};
    use crate::event::transport_err;
    use crate::Result;
    use std::io;
    use std::os::fd::RawFd;
    use std::time::Duration;

    /// A readiness reactor over raw fds: epoll on Linux. See the module
    /// docs for the level-triggered contract.
    #[derive(Debug)]
    pub struct Reactor {
        ep: sys::Epoll,
    }

    impl Reactor {
        /// Creates the epoll instance.
        ///
        /// # Errors
        ///
        /// [`crate::NetError::Transport`] if the kernel refuses one (an
        /// exhausted fd table, a locked-down sandbox).
        pub fn new() -> Result<Reactor> {
            let ep = sys::Epoll::new().map_err(|e| transport_err("reactor epoll_create1", e))?;
            Ok(Reactor { ep })
        }

        /// Starts watching `fd` for read readiness under `token`.
        ///
        /// # Errors
        ///
        /// [`crate::NetError::Transport`] if the kernel rejects the fd.
        pub fn register(&mut self, fd: RawFd, token: usize) -> Result<()> {
            self.ep
                .ctl(sys::EPOLL_CTL_ADD, fd, sys::EPOLLIN, token as u64)
                .map_err(|e| transport_err("reactor register", e))
        }

        /// Adds (`on = true`) or removes write-readiness reporting for an
        /// fd registered via [`Reactor::register`]. Read interest is
        /// always kept — a backpressured send must not suspend
        /// harvesting.
        ///
        /// # Errors
        ///
        /// [`crate::NetError::Transport`] if the fd is not registered.
        pub fn set_write_interest(&mut self, fd: RawFd, token: usize, on: bool) -> Result<()> {
            let events = if on {
                sys::EPOLLIN | sys::EPOLLOUT
            } else {
                sys::EPOLLIN
            };
            self.ep
                .ctl(sys::EPOLL_CTL_MOD, fd, events, token as u64)
                .map_err(|e| transport_err("reactor set_write_interest", e))
        }

        /// Stops watching `fd`. Must be called the moment a connection is
        /// observed closed (see the module docs); harmless to call for an
        /// fd that was never registered.
        ///
        /// # Errors
        ///
        /// [`crate::NetError::Transport`] on an unexpected kernel error.
        pub fn deregister(&mut self, fd: RawFd) -> Result<()> {
            match self.ep.ctl(sys::EPOLL_CTL_DEL, fd, 0, 0) {
                Ok(()) => Ok(()),
                // ENOENT/EBADF: already gone (the fd may have been
                // closed, which removes it from the epoll set).
                Err(e)
                    if matches!(
                        e.kind(),
                        io::ErrorKind::NotFound | io::ErrorKind::InvalidInput
                    ) || e.raw_os_error() == Some(9) =>
                {
                    Ok(())
                }
                Err(e) => Err(transport_err("reactor deregister", e)),
            }
        }

        /// Waits until at least one registered fd is ready or `timeout`
        /// elapses, appending the ready set to `events` (which is
        /// cleared first). `None` means wait indefinitely.
        ///
        /// # Errors
        ///
        /// [`crate::NetError::Transport`] on a kernel-level wait failure
        /// (`EINTR` is retried internally, never surfaced).
        pub fn wait(&mut self, timeout: Option<Duration>, events: &mut Vec<Event>) -> Result<()> {
            events.clear();
            // epoll_wait's timeout is whole milliseconds; round up so a
            // 0.4 ms remaining deadline does not busy-loop at timeout 0,
            // and cap each wait so a multi-minute command deadline still
            // re-checks periodically.
            let timeout_ms: i32 = match timeout {
                None => -1,
                Some(d) => {
                    let ms = d.as_millis();
                    let ms = if ms == 0 && !d.is_zero() { 1 } else { ms };
                    ms.min(60_000) as i32
                }
            };
            let mut buf = [sys::EpollEvent::empty(); 64];
            let n = loop {
                match self.ep.wait(&mut buf, timeout_ms) {
                    Ok(n) => break n,
                    Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                    Err(e) => return Err(transport_err("reactor wait", e)),
                }
            };
            for ev in &buf[..n] {
                let (bits, data) = ev.parts();
                events.push(Event {
                    token: data as usize,
                    // EOF, reset, and error conditions are all
                    // "readable": the next read reports them.
                    readable: bits
                        & (sys::EPOLLIN | sys::EPOLLERR | sys::EPOLLHUP | sys::EPOLLRDHUP)
                        != 0,
                    writable: bits & (sys::EPOLLOUT | sys::EPOLLERR | sys::EPOLLHUP) != 0,
                });
            }
            Ok(())
        }

        /// Called after a cycle that made no progress. A no-op here:
        /// [`Reactor::wait`] already slept in the kernel.
        pub fn idle(&self) {}
    }
}

/// The sweep-and-park loop for hosts without epoll: a flat registry of
/// watched fds. [`Reactor::wait`] reports every one as ready; the
/// caller's non-blocking probes do the actual readiness discovery.
#[cfg(any(test, not(target_os = "linux")))]
mod sweep {
    use super::{park, Event};
    use crate::Result;
    use std::os::fd::RawFd;
    use std::time::Duration;

    /// A readiness reactor over raw fds: the sweep, where there is no
    /// epoll. See the module docs for the contract.
    #[derive(Debug, Default)]
    pub struct Reactor {
        slots: Vec<Slot>,
    }

    #[derive(Debug)]
    struct Slot {
        fd: RawFd,
        token: usize,
        write_interest: bool,
    }

    impl Reactor {
        /// The idle park: the wakeup latency of every round on this loop.
        pub(super) const PARK: Duration = Duration::from_micros(200);

        /// An empty registry; never fails, the sweep needs nothing from
        /// the kernel.
        pub fn new() -> Result<Reactor> {
            Ok(Reactor::default())
        }

        /// Starts watching `fd` under `token`.
        pub fn register(&mut self, fd: RawFd, token: usize) -> Result<()> {
            self.slots.retain(|slot| slot.fd != fd);
            self.slots.push(Slot {
                fd,
                token,
                write_interest: false,
            });
            Ok(())
        }

        /// Adds or removes write-readiness reporting for a registered fd.
        ///
        /// # Errors
        ///
        /// [`crate::NetError::Transport`] if the fd is not registered.
        pub fn set_write_interest(&mut self, fd: RawFd, token: usize, on: bool) -> Result<()> {
            let slot = self
                .slots
                .iter_mut()
                .find(|slot| slot.fd == fd)
                .ok_or_else(|| crate::NetError::Transport {
                    context: "reactor set_write_interest",
                    detail: format!("fd {fd} is not registered"),
                })?;
            slot.token = token;
            slot.write_interest = on;
            Ok(())
        }

        /// Stops watching `fd`.
        pub fn deregister(&mut self, fd: RawFd) -> Result<()> {
            self.slots.retain(|slot| slot.fd != fd);
            Ok(())
        }

        /// Reports every registered fd as readable (and writable where
        /// asked) at once; never blocks, whatever `timeout` says.
        pub fn wait(&mut self, _timeout: Option<Duration>, events: &mut Vec<Event>) -> Result<()> {
            events.clear();
            events.extend(self.slots.iter().map(|slot| Event {
                token: slot.token,
                readable: true,
                writable: slot.write_interest,
            }));
            Ok(())
        }

        /// Called after a cycle that made no progress: parks 200 µs.
        pub fn idle(&self) {
            park(Self::PARK);
        }
    }
}

/// The epoll syscall shim. `epoll_create1`/`epoll_ctl`/`epoll_wait` are
/// plain libc symbols every Linux process already links; declaring them
/// here is the crate's entire unsafe surface (the crate-level policy is
/// `deny(unsafe_code)` with this one scoped exception).
#[cfg(target_os = "linux")]
#[allow(unsafe_code)]
mod sys {
    use std::io;
    use std::os::fd::{FromRawFd, OwnedFd, RawFd};

    pub const EPOLL_CLOEXEC: i32 = 0o2000000;
    pub const EPOLL_CTL_ADD: i32 = 1;
    pub const EPOLL_CTL_DEL: i32 = 2;
    pub const EPOLL_CTL_MOD: i32 = 3;
    pub const EPOLLIN: u32 = 0x1;
    pub const EPOLLOUT: u32 = 0x4;
    pub const EPOLLERR: u32 = 0x8;
    pub const EPOLLHUP: u32 = 0x10;
    pub const EPOLLRDHUP: u32 = 0x2000;

    /// The kernel's `struct epoll_event`. On x86-64 the kernel ABI
    /// packs it (no padding between the 4-byte mask and 8-byte data);
    /// other architectures use natural alignment.
    #[repr(C)]
    #[cfg_attr(target_arch = "x86_64", repr(packed))]
    #[derive(Clone, Copy)]
    pub struct EpollEvent {
        events: u32,
        data: u64,
    }

    impl EpollEvent {
        pub fn empty() -> EpollEvent {
            EpollEvent { events: 0, data: 0 }
        }

        pub fn new(events: u32, data: u64) -> EpollEvent {
            EpollEvent { events, data }
        }

        /// Copies the (possibly unaligned) fields out.
        pub fn parts(&self) -> (u32, u64) {
            (self.events, self.data)
        }
    }

    extern "C" {
        fn epoll_create1(flags: i32) -> i32;
        fn epoll_ctl(epfd: i32, op: i32, fd: i32, event: *mut EpollEvent) -> i32;
        fn epoll_wait(epfd: i32, events: *mut EpollEvent, maxevents: i32, timeout: i32) -> i32;
    }

    /// An owned epoll instance; the fd closes on drop.
    #[derive(Debug)]
    pub struct Epoll {
        epfd: OwnedFd,
    }

    impl Epoll {
        pub fn new() -> io::Result<Epoll> {
            let fd = unsafe { epoll_create1(EPOLL_CLOEXEC) };
            if fd < 0 {
                return Err(io::Error::last_os_error());
            }
            Ok(Epoll {
                epfd: unsafe { OwnedFd::from_raw_fd(fd) },
            })
        }

        pub fn ctl(&self, op: i32, fd: RawFd, events: u32, data: u64) -> io::Result<()> {
            use std::os::fd::AsRawFd;
            let mut ev = EpollEvent::new(events, data);
            let rc = unsafe { epoll_ctl(self.epfd.as_raw_fd(), op, fd, &mut ev) };
            if rc < 0 {
                return Err(io::Error::last_os_error());
            }
            Ok(())
        }

        pub fn wait(&self, buf: &mut [EpollEvent], timeout_ms: i32) -> io::Result<usize> {
            use std::os::fd::AsRawFd;
            let rc = unsafe {
                epoll_wait(
                    self.epfd.as_raw_fd(),
                    buf.as_mut_ptr(),
                    buf.len() as i32,
                    timeout_ms,
                )
            };
            if rc < 0 {
                return Err(io::Error::last_os_error());
            }
            Ok(rc as usize)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Write;
    use std::net::{TcpListener, TcpStream};
    use std::os::fd::AsRawFd;
    use std::time::Instant;

    fn loopback_pair() -> (TcpStream, TcpStream) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let a = TcpStream::connect(addr).unwrap();
        let (b, _) = listener.accept().unwrap();
        (a, b)
    }

    #[cfg(target_os = "linux")]
    #[test]
    fn epoll_reports_readable_only_when_bytes_arrive() {
        let mut r = Reactor::new().unwrap();
        let (mut tx, rx) = loopback_pair();
        rx.set_nonblocking(true).unwrap();
        r.register(rx.as_raw_fd(), 7).unwrap();

        let mut events = Vec::new();
        r.wait(Some(Duration::from_millis(5)), &mut events).unwrap();
        assert!(events.is_empty(), "no bytes yet: {events:?}");

        tx.write_all(&[1, 2, 3]).unwrap();
        r.wait(Some(Duration::from_secs(5)), &mut events).unwrap();
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].token, 7);
        assert!(events[0].readable);
    }

    #[cfg(target_os = "linux")]
    #[test]
    fn epoll_wakes_well_under_the_sleep_floor() {
        // The whole point of epoll: a byte written from another thread
        // wakes the waiter in kernel time, not at the 200 µs park
        // cadence of the sweep.
        let mut r = Reactor::new().unwrap();
        let (mut tx, rx) = loopback_pair();
        rx.set_nonblocking(true).unwrap();
        r.register(rx.as_raw_fd(), 0).unwrap();
        let mut events = Vec::new();
        let writer = std::thread::spawn(move || {
            tx.write_all(&[9]).unwrap();
            tx
        });
        let t0 = Instant::now();
        r.wait(Some(Duration::from_secs(5)), &mut events).unwrap();
        assert!(!events.is_empty());
        // Generous bound (CI jitter) — still far below a 200 µs park
        // cadence compounded over a multi-round protocol.
        assert!(t0.elapsed() < Duration::from_millis(100));
        writer.join().unwrap();
    }

    #[cfg(target_os = "linux")]
    #[test]
    fn deregistered_fd_stops_reporting() {
        let mut r = Reactor::new().unwrap();
        let (mut tx, rx) = loopback_pair();
        rx.set_nonblocking(true).unwrap();
        r.register(rx.as_raw_fd(), 3).unwrap();
        tx.write_all(&[1]).unwrap();
        let mut events = Vec::new();
        r.wait(Some(Duration::from_secs(5)), &mut events).unwrap();
        assert!(!events.is_empty());
        r.deregister(rx.as_raw_fd()).unwrap();
        r.wait(Some(Duration::from_millis(5)), &mut events).unwrap();
        assert!(events.is_empty(), "deregistered fd still reported");
        // Deregistering twice is harmless.
        r.deregister(rx.as_raw_fd()).unwrap();
    }

    #[cfg(target_os = "linux")]
    #[test]
    fn write_interest_is_opt_in_and_removable() {
        let mut r = Reactor::new().unwrap();
        let (_tx, rx) = loopback_pair();
        rx.set_nonblocking(true).unwrap();
        r.register(rx.as_raw_fd(), 1).unwrap();
        let mut events = Vec::new();

        // Read interest only: an idle, writable socket reports nothing.
        r.wait(Some(Duration::from_millis(5)), &mut events).unwrap();
        assert!(events.is_empty());

        r.set_write_interest(rx.as_raw_fd(), 1, true).unwrap();
        r.wait(Some(Duration::from_secs(5)), &mut events).unwrap();
        assert!(events.iter().any(|e| e.token == 1 && e.writable));

        r.set_write_interest(rx.as_raw_fd(), 1, false).unwrap();
        r.wait(Some(Duration::from_millis(5)), &mut events).unwrap();
        assert!(events.is_empty(), "write interest not removed");
    }

    #[test]
    fn sweep_reports_all_registered_and_never_blocks() {
        let mut r = sweep::Reactor::new().unwrap();
        let (_a1, b1) = loopback_pair();
        let (_a2, b2) = loopback_pair();
        r.register(b1.as_raw_fd(), 0).unwrap();
        r.register(b2.as_raw_fd(), 1).unwrap();
        let mut events = Vec::new();
        let t0 = Instant::now();
        r.wait(Some(Duration::from_secs(60)), &mut events).unwrap();
        assert!(
            t0.elapsed() < Duration::from_secs(1),
            "the sweep must not block in wait"
        );
        let mut tokens: Vec<usize> = events.iter().map(|e| e.token).collect();
        tokens.sort_unstable();
        assert_eq!(tokens, vec![0, 1]);
        assert!(events.iter().all(|e| e.readable && !e.writable));

        // Write interest is reported for the fd that asked for it, and
        // an unregistered fd is refused.
        r.set_write_interest(b2.as_raw_fd(), 1, true).unwrap();
        assert!(r.set_write_interest(-1, 9, true).is_err());
        r.deregister(b1.as_raw_fd()).unwrap();
        events.clear();
        r.wait(None, &mut events).unwrap();
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].token, 1);
        assert!(events[0].writable);

        // The idle park is the sweep's only sleep.
        let t0 = Instant::now();
        r.idle();
        assert!(t0.elapsed() >= sweep::Reactor::PARK);
    }
}
