//! Readiness-based reactor for the event backend.
//!
//! The event server ([`crate::event`]) multiplexes every source
//! connection in one thread. Before this module it discovered readable
//! bytes by sweeping all sockets and sleeping 200 µs between empty
//! sweeps — a hard-coded latency floor on every sub-millisecond round.
//! The reactor replaces the sweep with kernel readiness notification:
//! on Linux, `epoll` over the raw fds (via a minimal `extern "C"` shim —
//! `epoll_create1`/`epoll_ctl`/`epoll_wait` are plain libc symbols, and
//! the workspace is offline, so no mio/tokio); everywhere else, or when
//! `epoll_create1` fails, a fallback that reproduces the classic
//! sweep-and-park loop behind the same interface.
//!
//! Semantics are deliberately minimal and *level-triggered*:
//!
//! * [`Reactor::register`] watches an fd for read readiness under a
//!   caller-chosen token;
//! * [`Reactor::set_write_interest`] adds or removes write-readiness
//!   reporting for an already-registered fd (used only while a send is
//!   backpressured);
//! * [`Reactor::wait`] blocks until any registered fd is ready or the
//!   timeout elapses, appending [`Event`]s. The sleep fallback reports
//!   *every* registered fd as ready immediately and never blocks — the
//!   caller probes with non-blocking I/O exactly like the old sweep,
//!   and parks via [`park`] only when a whole cycle made no progress.
//! * [`Reactor::deregister`] stops watching an fd. A closed peer keeps
//!   a level-triggered fd permanently readable (EOF is "ready"), so the
//!   event server must deregister a connection the moment it observes
//!   the close — otherwise every later wait spins on the corpse.
//!
//! Timeouts are plain [`Duration`]s derived by the caller from
//! [`crate::protocol::DeadlinePolicy`], so straggler deadlines keep
//! their exact typed semantics (`SourceLost`, reissue, promote) with no
//! spin-sleep anywhere on the hot path.

use crate::event::transport_err;
use crate::Result;
use std::io;
use std::os::fd::RawFd;
use std::time::Duration;

/// Which reactor implementation to use (the `--reactor` CLI flag).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ReactorChoice {
    /// Kernel readiness notification via `epoll`, falling back to the
    /// sleep-poll loop if `epoll_create1` is unavailable (non-Linux
    /// hosts, exhausted fd table, locked-down sandbox). The default on
    /// Linux.
    #[default]
    Epoll,
    /// The classic sweep-and-park loop: probe every connection, park
    /// 200 µs when nothing moved. Kept as an escape hatch and as the
    /// baseline the bench harness measures the reactor against.
    Sleep,
}

impl ReactorChoice {
    /// Parses a `--reactor` flag value.
    ///
    /// # Errors
    ///
    /// A usage message for anything other than `epoll` or `sleep`.
    pub fn parse(s: &str) -> std::result::Result<ReactorChoice, String> {
        match s {
            "epoll" => Ok(ReactorChoice::Epoll),
            "sleep" => Ok(ReactorChoice::Sleep),
            other => Err(format!("--reactor expects epoll|sleep, got '{other}'")),
        }
    }
}

/// What a [`Reactor`] actually resolved to at construction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReactorKind {
    /// Kernel readiness notification; [`Reactor::wait`] blocks.
    Epoll,
    /// Sweep fallback; [`Reactor::wait`] returns immediately and the
    /// caller parks between empty cycles.
    Sleep,
}

/// One readiness notification: the token the fd was registered under,
/// plus which directions are ready. Error/hangup conditions are folded
/// into `readable` — the caller's next read observes the actual error
/// or EOF, exactly as the old sweep did.
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
/// sleep reactor's empty-cycle park and the event backend's
/// connect-retry backoff. Keeping it here means "where do we still
/// sleep?" has a one-line answer.
pub fn park(d: Duration) {
    std::thread::sleep(d);
}

/// A readiness reactor over raw fds. See the module docs for the
/// level-triggered contract.
#[derive(Debug)]
pub struct Reactor {
    imp: Impl,
}

#[derive(Debug)]
enum Impl {
    #[cfg(target_os = "linux")]
    Epoll(sys::Epoll),
    Sleep(SleepReactor),
}

impl Reactor {
    /// Builds the reactor for `choice`, falling back to the sleep
    /// implementation when epoll cannot be constructed (never an
    /// error: the fallback is always available).
    pub fn new(choice: ReactorChoice) -> Reactor {
        #[cfg(target_os = "linux")]
        {
            Self::from_probe(choice, sys::Epoll::new())
        }
        #[cfg(not(target_os = "linux"))]
        {
            let _ = choice;
            Reactor {
                imp: Impl::Sleep(SleepReactor::default()),
            }
        }
    }

    /// The fallback seam: `probe` is what `epoll_create1` produced.
    /// Tests force an unavailable epoll through here; production code
    /// reaches it via [`Reactor::new`].
    #[cfg(target_os = "linux")]
    fn from_probe(choice: ReactorChoice, probe: io::Result<sys::Epoll>) -> Reactor {
        let imp = match (choice, probe) {
            (ReactorChoice::Epoll, Ok(ep)) => Impl::Epoll(ep),
            // Graceful fallback: a host without epoll still runs, at
            // the sleep loop's latency floor.
            (ReactorChoice::Epoll, Err(_)) | (ReactorChoice::Sleep, _) => {
                Impl::Sleep(SleepReactor::default())
            }
        };
        Reactor { imp }
    }

    /// Constructs a reactor whose epoll probe failed, regardless of the
    /// host — the graceful-fallback path under test.
    #[cfg(target_os = "linux")]
    #[doc(hidden)]
    pub fn with_unavailable_epoll(choice: ReactorChoice) -> Reactor {
        Self::from_probe(
            choice,
            Err(io::Error::new(
                io::ErrorKind::Unsupported,
                "epoll_create1 unavailable (forced by test)",
            )),
        )
    }

    /// Which implementation this reactor resolved to.
    pub fn kind(&self) -> ReactorKind {
        match &self.imp {
            #[cfg(target_os = "linux")]
            Impl::Epoll(_) => ReactorKind::Epoll,
            Impl::Sleep(_) => ReactorKind::Sleep,
        }
    }

    /// Starts watching `fd` for read readiness under `token`.
    ///
    /// # Errors
    ///
    /// [`crate::NetError::Transport`] if the kernel rejects the fd.
    pub fn register(&mut self, fd: RawFd, token: usize) -> Result<()> {
        match &mut self.imp {
            #[cfg(target_os = "linux")]
            Impl::Epoll(ep) => ep
                .ctl(sys::EPOLL_CTL_ADD, fd, sys::EPOLLIN, token as u64)
                .map_err(|e| transport_err("reactor register", e)),
            Impl::Sleep(s) => {
                s.slots.retain(|slot| slot.fd != fd);
                s.slots.push(SleepSlot {
                    fd,
                    token,
                    write_interest: false,
                });
                Ok(())
            }
        }
    }

    /// Adds (`on = true`) or removes write-readiness reporting for an
    /// fd registered via [`Reactor::register`]. Read interest is always
    /// kept — a backpressured send must not suspend harvesting.
    ///
    /// # Errors
    ///
    /// [`crate::NetError::Transport`] if the fd is not registered.
    pub fn set_write_interest(&mut self, fd: RawFd, token: usize, on: bool) -> Result<()> {
        match &mut self.imp {
            #[cfg(target_os = "linux")]
            Impl::Epoll(ep) => {
                let events = if on {
                    sys::EPOLLIN | sys::EPOLLOUT
                } else {
                    sys::EPOLLIN
                };
                ep.ctl(sys::EPOLL_CTL_MOD, fd, events, token as u64)
                    .map_err(|e| transport_err("reactor set_write_interest", e))
            }
            Impl::Sleep(s) => {
                for slot in &mut s.slots {
                    if slot.fd == fd {
                        slot.token = token;
                        slot.write_interest = on;
                        return Ok(());
                    }
                }
                Err(crate::NetError::Transport {
                    context: "reactor set_write_interest",
                    detail: format!("fd {fd} is not registered"),
                })
            }
        }
    }

    /// Stops watching `fd`. Must be called the moment a connection is
    /// observed closed (see the module docs); harmless to call for an
    /// fd that was never registered.
    ///
    /// # Errors
    ///
    /// [`crate::NetError::Transport`] on an unexpected kernel error.
    pub fn deregister(&mut self, fd: RawFd) -> Result<()> {
        match &mut self.imp {
            #[cfg(target_os = "linux")]
            Impl::Epoll(ep) => match ep.ctl(sys::EPOLL_CTL_DEL, fd, 0, 0) {
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
            },
            Impl::Sleep(s) => {
                s.slots.retain(|slot| slot.fd != fd);
                Ok(())
            }
        }
    }

    /// Waits until at least one registered fd is ready or `timeout`
    /// elapses, appending the ready set to `events` (which is cleared
    /// first). `None` means wait indefinitely. The sleep fallback
    /// reports every registered fd as ready and returns immediately —
    /// its caller probes and then [`park`]s on an empty cycle.
    ///
    /// # Errors
    ///
    /// [`crate::NetError::Transport`] on a kernel-level wait failure
    /// (`EINTR` is retried internally, never surfaced).
    pub fn wait(&mut self, timeout: Option<Duration>, events: &mut Vec<Event>) -> Result<()> {
        events.clear();
        match &mut self.imp {
            #[cfg(target_os = "linux")]
            Impl::Epoll(ep) => {
                // epoll_wait's timeout is whole milliseconds; round up
                // so a 0.4 ms remaining deadline does not busy-loop at
                // timeout 0, and cap each wait so a multi-minute
                // command deadline still re-checks periodically.
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
                    match ep.wait(&mut buf, timeout_ms) {
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
            Impl::Sleep(s) => {
                for slot in &s.slots {
                    events.push(Event {
                        token: slot.token,
                        readable: true,
                        writable: slot.write_interest,
                    });
                }
                Ok(())
            }
        }
    }
}

/// The sweep fallback: a flat registry of watched fds. [`Reactor::wait`]
/// reports everything as ready; the caller's non-blocking probes do the
/// actual readiness discovery, as the pre-reactor poll loop did.
#[derive(Debug, Default)]
struct SleepReactor {
    slots: Vec<SleepSlot>,
}

#[derive(Debug)]
struct SleepSlot {
    fd: RawFd,
    token: usize,
    write_interest: bool,
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
    use std::io::{Read, Write};
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

    #[test]
    fn default_choice_is_epoll() {
        assert_eq!(ReactorChoice::default(), ReactorChoice::Epoll);
        assert_eq!(ReactorChoice::parse("epoll").unwrap(), ReactorChoice::Epoll);
        assert_eq!(ReactorChoice::parse("sleep").unwrap(), ReactorChoice::Sleep);
        assert!(ReactorChoice::parse("uring")
            .unwrap_err()
            .contains("--reactor"));
    }

    #[cfg(target_os = "linux")]
    #[test]
    fn epoll_reports_readable_only_when_bytes_arrive() {
        let mut r = Reactor::new(ReactorChoice::Epoll);
        assert_eq!(r.kind(), ReactorKind::Epoll, "test host must have epoll");
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
        // The whole point of the reactor: a byte written from another
        // thread wakes the waiter in kernel time, not at the 200 µs
        // park cadence.
        let mut r = Reactor::new(ReactorChoice::Epoll);
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
        let mut r = Reactor::new(ReactorChoice::Epoll);
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
        let mut r = Reactor::new(ReactorChoice::Epoll);
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

    #[cfg(target_os = "linux")]
    #[test]
    fn unavailable_epoll_falls_back_to_sleep() {
        let mut r = Reactor::with_unavailable_epoll(ReactorChoice::Epoll);
        assert_eq!(r.kind(), ReactorKind::Sleep);
        // The fallback still drives I/O: it reports every registered
        // fd and the caller's probe finds the bytes.
        let (mut tx, mut rx) = loopback_pair();
        rx.set_nonblocking(true).unwrap();
        r.register(rx.as_raw_fd(), 5).unwrap();
        tx.write_all(&[42]).unwrap();
        let mut events = Vec::new();
        r.wait(Some(Duration::from_millis(5)), &mut events).unwrap();
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].token, 5);
        let mut byte = [0u8; 1];
        loop {
            match rx.read(&mut byte) {
                Ok(1) => break,
                Ok(_) => panic!("unexpected eof"),
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => park(Duration::from_micros(50)),
                Err(e) => panic!("{e}"),
            }
        }
        assert_eq!(byte[0], 42);
    }

    #[test]
    fn sleep_reactor_reports_all_registered_and_never_blocks() {
        let mut r = Reactor::new(ReactorChoice::Sleep);
        assert_eq!(r.kind(), ReactorKind::Sleep);
        let (_a1, b1) = loopback_pair();
        let (_a2, b2) = loopback_pair();
        r.register(b1.as_raw_fd(), 0).unwrap();
        r.register(b2.as_raw_fd(), 1).unwrap();
        let mut events = Vec::new();
        let t0 = Instant::now();
        r.wait(Some(Duration::from_secs(60)), &mut events).unwrap();
        assert!(
            t0.elapsed() < Duration::from_secs(1),
            "sleep reactor must not block in wait"
        );
        let mut tokens: Vec<usize> = events.iter().map(|e| e.token).collect();
        tokens.sort_unstable();
        assert_eq!(tokens, vec![0, 1]);
        r.deregister(b1.as_raw_fd()).unwrap();
        r.wait(None, &mut events).unwrap();
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].token, 1);
    }
}
