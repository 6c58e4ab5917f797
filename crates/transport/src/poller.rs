//! Thin readiness-polling shim over raw `epoll` + `eventfd`.
//!
//! The event-loop server core (see `event_loop.rs`) needs exactly four
//! kernel facilities: create an epoll instance, register/modify/remove
//! interest, block for readiness, and wake a blocked loop from another
//! thread. Rather than pull in a heavyweight async runtime, this module
//! declares the handful of glibc symbols directly (`epoll_create1`,
//! `epoll_ctl`, `epoll_wait`, `eventfd`) — the binary already links
//! glibc, so no new dependency is introduced.
//!
//! Everything is level-triggered: a socket with unread bytes stays ready,
//! so the loop disarms read interest while a request is in flight (see
//! `conn.rs`) instead of relying on edge semantics.
//!
//! On non-Linux targets every constructor returns
//! [`std::io::ErrorKind::Unsupported`] and [`supported`] reports `false`:
//! starting a server there fails the same way.

/// Whether the readiness poller works on this target.
pub fn supported() -> bool {
    cfg!(target_os = "linux")
}

/// One readiness report for a registered token.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PollEvent {
    /// Caller-chosen token passed to [`Poller::add`].
    pub token: u64,
    /// Readable (or a pending accept on a listener).
    pub readable: bool,
    /// Writable.
    pub writable: bool,
    /// Error or hangup — the fd should be serviced then closed.
    pub hangup: bool,
}

/// Interest set for a registration.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Interest {
    /// Report readability.
    pub read: bool,
    /// Report writability.
    pub write: bool,
}

impl Interest {
    /// Read-only interest.
    pub const READ: Interest = Interest {
        read: true,
        write: false,
    };
    /// Neither direction — registration kept, no readiness reported
    /// (except errors/hangup, which epoll always delivers).
    pub const NONE: Interest = Interest {
        read: false,
        write: false,
    };
}

#[cfg(target_os = "linux")]
mod sys {
    use std::os::raw::{c_int, c_void};

    // Values from the Linux UAPI headers; stable ABI.
    pub const EPOLL_CLOEXEC: c_int = 0o2000000;
    pub const EPOLL_CTL_ADD: c_int = 1;
    pub const EPOLL_CTL_DEL: c_int = 2;
    pub const EPOLL_CTL_MOD: c_int = 3;
    pub const EPOLLIN: u32 = 0x001;
    pub const EPOLLOUT: u32 = 0x004;
    pub const EPOLLERR: u32 = 0x008;
    pub const EPOLLHUP: u32 = 0x010;
    pub const EPOLLRDHUP: u32 = 0x2000;
    pub const EFD_CLOEXEC: c_int = 0o2000000;
    pub const EFD_NONBLOCK: c_int = 0o4000;

    /// `struct epoll_event`; packed on x86-64 (glibc's `__EPOLL_PACKED`).
    #[repr(C)]
    #[cfg_attr(target_arch = "x86_64", repr(packed))]
    #[derive(Clone, Copy)]
    pub struct EpollEvent {
        pub events: u32,
        pub data: u64,
    }

    extern "C" {
        pub fn epoll_create1(flags: c_int) -> c_int;
        pub fn epoll_ctl(epfd: c_int, op: c_int, fd: c_int, event: *mut EpollEvent) -> c_int;
        pub fn epoll_wait(
            epfd: c_int,
            events: *mut EpollEvent,
            maxevents: c_int,
            timeout_ms: c_int,
        ) -> c_int;
        pub fn eventfd(initval: u32, flags: c_int) -> c_int;
        pub fn close(fd: c_int) -> c_int;
        pub fn read(fd: c_int, buf: *mut c_void, count: usize) -> isize;
        pub fn write(fd: c_int, buf: *const c_void, count: usize) -> isize;
    }
}

#[cfg(target_os = "linux")]
mod imp {
    use super::{sys, Interest, PollEvent};
    use std::io;
    use std::os::fd::{AsRawFd, RawFd};
    use std::time::Duration;

    fn last_error() -> io::Error {
        io::Error::last_os_error()
    }

    fn interest_bits(interest: Interest) -> u32 {
        let mut bits = sys::EPOLLRDHUP;
        if interest.read {
            bits |= sys::EPOLLIN;
        }
        if interest.write {
            bits |= sys::EPOLLOUT;
        }
        bits
    }

    /// Level-triggered epoll instance.
    pub struct Poller {
        epfd: RawFd,
        scratch: Vec<sys::EpollEvent>,
    }

    impl Poller {
        /// New epoll instance (close-on-exec).
        pub fn new() -> io::Result<Poller> {
            // SAFETY: plain syscall wrapper; no pointers involved.
            let epfd = unsafe { sys::epoll_create1(sys::EPOLL_CLOEXEC) };
            if epfd < 0 {
                return Err(last_error());
            }
            Ok(Poller {
                epfd,
                scratch: vec![sys::EpollEvent { events: 0, data: 0 }; super::MAX_EVENTS_PER_WAIT],
            })
        }

        fn ctl(&self, op: i32, fd: RawFd, interest: Interest, token: u64) -> io::Result<()> {
            let mut ev = sys::EpollEvent {
                events: interest_bits(interest),
                data: token,
            };
            // SAFETY: `ev` outlives the call; the kernel copies it.
            let rc = unsafe { sys::epoll_ctl(self.epfd, op, fd, &mut ev) };
            if rc < 0 {
                return Err(last_error());
            }
            Ok(())
        }

        /// Register `fd` under `token` with the given interest.
        pub fn add(&self, fd: &impl AsRawFd, token: u64, interest: Interest) -> io::Result<()> {
            self.ctl(sys::EPOLL_CTL_ADD, fd.as_raw_fd(), interest, token)
        }

        /// Change the interest set of a registered fd.
        pub fn modify(&self, fd: &impl AsRawFd, token: u64, interest: Interest) -> io::Result<()> {
            self.ctl(sys::EPOLL_CTL_MOD, fd.as_raw_fd(), interest, token)
        }

        /// Remove a registration. Errors from already-closed fds are
        /// ignored — deregistration is best-effort on the close path.
        pub fn delete(&self, fd: &impl AsRawFd) {
            let mut ev = sys::EpollEvent { events: 0, data: 0 };
            // SAFETY: pre-2.6.9 kernels demand a non-null event pointer
            // for DEL; passing one is harmless everywhere else.
            unsafe {
                sys::epoll_ctl(self.epfd, sys::EPOLL_CTL_DEL, fd.as_raw_fd(), &mut ev);
            }
        }

        /// Block until readiness or timeout; `None` blocks indefinitely.
        /// Fills `out` with the ready set (cleared first). EINTR returns
        /// an empty set rather than an error.
        pub fn wait(
            &mut self,
            out: &mut Vec<PollEvent>,
            timeout: Option<Duration>,
        ) -> io::Result<()> {
            out.clear();
            let timeout_ms: i32 = match timeout {
                None => -1,
                Some(d) => d.as_millis().min(i32::MAX as u128) as i32,
            };
            // SAFETY: scratch is a live, properly-sized buffer.
            let rc = unsafe {
                sys::epoll_wait(
                    self.epfd,
                    self.scratch.as_mut_ptr(),
                    self.scratch.len() as i32,
                    timeout_ms,
                )
            };
            let n = if rc >= 0 {
                rc as usize
            } else {
                let err = last_error();
                if err.kind() != io::ErrorKind::Interrupted {
                    return Err(err);
                }
                // EINTR: surface an empty wake; the loop re-waits.
                0
            };
            for ev in &self.scratch[..n] {
                // Copy out of the (possibly packed) struct before use.
                let events = ev.events;
                let data = ev.data;
                out.push(PollEvent {
                    token: data,
                    readable: events & (sys::EPOLLIN | sys::EPOLLRDHUP) != 0,
                    writable: events & sys::EPOLLOUT != 0,
                    hangup: events & (sys::EPOLLERR | sys::EPOLLHUP) != 0,
                });
            }
            Ok(())
        }
    }

    impl Drop for Poller {
        fn drop(&mut self) {
            // SAFETY: epfd is owned by this instance.
            unsafe {
                sys::close(self.epfd);
            }
        }
    }

    /// Cross-thread wakeup via `eventfd`: any thread may [`WakeFd::wake`]
    /// a loop blocked in [`Poller::wait`] once the read side is
    /// registered for read interest.
    #[derive(Debug)]
    pub struct WakeFd {
        fd: RawFd,
    }

    impl WakeFd {
        /// New nonblocking eventfd.
        pub fn new() -> io::Result<WakeFd> {
            // SAFETY: plain syscall wrapper.
            let fd = unsafe { sys::eventfd(0, sys::EFD_CLOEXEC | sys::EFD_NONBLOCK) };
            if fd < 0 {
                return Err(last_error());
            }
            Ok(WakeFd { fd })
        }

        /// Make the fd readable (idempotent until drained).
        pub fn wake(&self) {
            let one: u64 = 1;
            // SAFETY: writes 8 bytes from a live stack value; a full
            // counter (EAGAIN) already means "wake pending", so the
            // result is ignored.
            unsafe {
                sys::write(self.fd, (&one as *const u64).cast(), 8);
            }
        }

        /// Consume any pending wakes so the fd stops reading ready.
        pub fn drain(&self) {
            let mut buf: u64 = 0;
            // SAFETY: reads 8 bytes into a live stack value; EAGAIN when
            // already drained is the expected steady state.
            unsafe {
                sys::read(self.fd, (&mut buf as *mut u64).cast(), 8);
            }
        }
    }

    impl AsRawFd for WakeFd {
        fn as_raw_fd(&self) -> RawFd {
            self.fd
        }
    }

    impl Drop for WakeFd {
        fn drop(&mut self) {
            // SAFETY: fd is owned by this instance.
            unsafe {
                sys::close(self.fd);
            }
        }
    }
}

#[cfg(not(target_os = "linux"))]
mod imp {
    use super::{Interest, PollEvent};
    use std::io;
    use std::time::Duration;

    fn unsupported() -> io::Error {
        io::Error::new(
            io::ErrorKind::Unsupported,
            "readiness poller requires Linux epoll",
        )
    }

    /// Stub poller for non-Linux targets: construction fails.
    #[derive(Debug)]
    pub struct Poller {}

    impl Poller {
        pub fn new() -> io::Result<Poller> {
            Err(unsupported())
        }

        pub fn add<T>(&self, _fd: &T, _token: u64, _interest: Interest) -> io::Result<()> {
            Err(unsupported())
        }

        pub fn modify<T>(&self, _fd: &T, _token: u64, _interest: Interest) -> io::Result<()> {
            Err(unsupported())
        }

        pub fn delete<T>(&self, _fd: &T) {}

        pub fn wait(
            &mut self,
            _out: &mut Vec<PollEvent>,
            _timeout: Option<Duration>,
        ) -> io::Result<()> {
            Err(unsupported())
        }
    }

    /// Stub wake handle for non-Linux targets: construction fails.
    #[derive(Debug)]
    pub struct WakeFd {}

    impl WakeFd {
        pub fn new() -> io::Result<WakeFd> {
            Err(unsupported())
        }

        pub fn wake(&self) {}

        pub fn drain(&self) {}
    }
}

/// Most events one `epoll_wait` call can report.
pub(crate) const MAX_EVENTS_PER_WAIT: usize = 256;

pub use imp::{Poller, WakeFd};

#[cfg(all(test, target_os = "linux"))]
mod tests {
    use super::*;
    use std::io::{Read, Write};
    use std::net::{TcpListener, TcpStream};
    use std::time::{Duration, Instant};

    #[test]
    fn listener_becomes_readable_on_connect() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        listener.set_nonblocking(true).unwrap();
        let mut poller = Poller::new().unwrap();
        poller.add(&listener, 7, Interest::READ).unwrap();

        let mut events = Vec::new();
        poller
            .wait(&mut events, Some(Duration::from_millis(10)))
            .unwrap();
        assert!(events.is_empty(), "no connection yet");

        let _client = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        poller
            .wait(&mut events, Some(Duration::from_secs(2)))
            .unwrap();
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].token, 7);
        assert!(events[0].readable);
    }

    #[test]
    fn stream_readability_tracks_data_and_interest() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let mut client = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (server, _) = listener.accept().unwrap();
        server.set_nonblocking(true).unwrap();

        let mut poller = Poller::new().unwrap();
        poller.add(&server, 42, Interest::READ).unwrap();
        let mut events = Vec::new();

        client.write_all(b"ping").unwrap();
        poller
            .wait(&mut events, Some(Duration::from_secs(2)))
            .unwrap();
        assert!(events.iter().any(|e| e.token == 42 && e.readable));

        // Level-triggered: still readable until drained; disarming read
        // interest silences it without deregistering.
        poller.modify(&server, 42, Interest::NONE).unwrap();
        poller
            .wait(&mut events, Some(Duration::from_millis(10)))
            .unwrap();
        assert!(events.is_empty(), "interest disarmed");

        poller.modify(&server, 42, Interest::READ).unwrap();
        poller
            .wait(&mut events, Some(Duration::from_secs(2)))
            .unwrap();
        assert!(events.iter().any(|e| e.token == 42 && e.readable));

        let mut buf = [0u8; 8];
        let mut s = &server;
        assert_eq!(s.read(&mut buf).unwrap(), 4);
        poller
            .wait(&mut events, Some(Duration::from_millis(10)))
            .unwrap();
        assert!(events.is_empty(), "drained socket is quiet");
    }

    #[test]
    fn wake_fd_crosses_threads_and_drains() {
        let wake = std::sync::Arc::new(WakeFd::new().unwrap());
        let mut poller = Poller::new().unwrap();
        poller.add(&*wake, 1, Interest::READ).unwrap();
        let mut events = Vec::new();

        let w = wake.clone();
        let t = std::thread::spawn(move || w.wake());
        poller
            .wait(&mut events, Some(Duration::from_secs(2)))
            .unwrap();
        t.join().unwrap();
        assert!(events.iter().any(|e| e.token == 1 && e.readable));

        wake.drain();
        let start = Instant::now();
        poller
            .wait(&mut events, Some(Duration::from_millis(20)))
            .unwrap();
        assert!(events.is_empty(), "drained wake fd is quiet");
        assert!(start.elapsed() >= Duration::from_millis(15), "waited out");
    }

    #[test]
    fn peer_close_reports_readable_for_eof() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let client = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (server, _) = listener.accept().unwrap();
        let mut poller = Poller::new().unwrap();
        poller.add(&server, 9, Interest::READ).unwrap();
        drop(client);
        let mut events = Vec::new();
        poller
            .wait(&mut events, Some(Duration::from_secs(2)))
            .unwrap();
        // RDHUP folds into `readable`: the loop reads, sees EOF, closes.
        assert!(events.iter().any(|e| e.token == 9 && e.readable));
    }
}
