//! A served request leaves nothing behind: 100 000 keep-alive requests
//! through one [`Conn`], driven as the event loop drives it (`on_readable`,
//! then the handler and `on_dispatch_done`, then `on_writable`), with the
//! process's live heap bytes and the machine's retained transition trace
//! both measured after the first thousand and again at the end. Neither
//! may have grown.
//!
//! (Its own test binary because it installs a counting global allocator.)

use bsoap_obs::NullRecorder;
use bsoap_transport::conn::TRANSITION_WINDOW;
use bsoap_transport::{CloseReason, Conn, ConnAction, ConnConfig, Response};
use std::alloc::{GlobalAlloc, Layout, System};
use std::io::{self, Read, Write};
use std::sync::atomic::{AtomicIsize, Ordering};

static LIVE_BYTES: AtomicIsize = AtomicIsize::new(0);

struct Counting;

// SAFETY: every call is forwarded unchanged to `System`, which upholds the
// `GlobalAlloc` contract; the counter beside it touches no allocator state.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        LIVE_BYTES.fetch_add(layout.size() as isize, Ordering::Relaxed);
        // SAFETY: same layout, forwarded as received.
        unsafe { System.alloc(layout) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE_BYTES.fetch_sub(layout.size() as isize, Ordering::Relaxed);
        // SAFETY: `ptr` came from `System.alloc` with this layout.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

const REQUEST: &[u8] = b"POST /svc HTTP/1.1\r\nHost: l\r\nContent-Length: 11\r\n\r\nhello world";
const WARM_UP: usize = 1_000;
const REQUESTS: usize = 100_000;

/// One request per read, `REQUESTS` times, then EOF; responses discarded.
/// Samples the live heap just before handing out request `WARM_UP` and at
/// EOF.
struct Replay {
    served: usize,
    live_after_warm_up: isize,
    live_at_eof: isize,
}

impl Read for Replay {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        if self.served == WARM_UP {
            self.live_after_warm_up = LIVE_BYTES.load(Ordering::Relaxed);
        }
        if self.served == REQUESTS {
            self.live_at_eof = LIVE_BYTES.load(Ordering::Relaxed);
            return Ok(0);
        }
        self.served += 1;
        buf[..REQUEST.len()].copy_from_slice(REQUEST);
        Ok(REQUEST.len())
    }
}

impl Write for Replay {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        Ok(buf.len())
    }
    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

#[test]
fn a_served_request_leaves_no_residue() {
    let mut io = Replay {
        served: 0,
        live_after_warm_up: 0,
        live_at_eof: 0,
    };
    let mut conn = Conn::new(1, ConnConfig::default());
    let mut out = Vec::new();
    conn.on_accept(&mut out);
    let mut closed = None;
    while closed.is_none() {
        conn.on_readable(&mut io, &NullRecorder, &mut out);
        for action in out.drain(..) {
            match action {
                // The body is the one allocation handed off; dropping it
                // here ends its life with the request's.
                ConnAction::Dispatch(_head, body) => conn.on_dispatch_done(
                    Response::xml(200, "OK", body.len().to_string().into_bytes()),
                    &NullRecorder,
                ),
                ConnAction::Close(reason) => closed = Some(reason),
                ConnAction::Interest { .. } | ConnAction::Arm(..) | ConnAction::Cancel(_) => {}
            }
        }
        conn.on_writable(&mut io, &NullRecorder, &mut out);
    }
    assert_eq!(closed, Some(CloseReason::CleanEof));
    assert_eq!(io.served, REQUESTS);
    assert!(
        conn.transitions().len() <= TRANSITION_WINDOW,
        "{} transitions retained after {REQUESTS} requests",
        conn.transitions().len()
    );
    assert_eq!(
        io.live_at_eof - io.live_after_warm_up,
        0,
        "live heap bytes grew over {} requests",
        REQUESTS - WARM_UP
    );
}
