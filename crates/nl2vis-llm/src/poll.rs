//! Readiness notification for the event-driven server core.
//!
//! The poller threads in [`crate::event`] own hundreds of nonblocking
//! sockets each and need one cheap question answered: *which of these can
//! make progress right now?* On Linux (with the default `epoll` feature)
//! that question goes to the kernel through a thin `extern "C"` shim over
//! the epoll syscalls — the symbols live in the libc every Rust binary
//! already links, so no new crate is involved. Everywhere else a portable
//! fallback scans every registered socket with nonblocking reads and an
//! adaptive sleep; correct on any platform `std::net` supports, just not
//! O(ready) like epoll.
//!
//! Connections are registered one-shot: a report disarms the socket until
//! whoever owns the connection next re-arms it ([`Poller::rearm`]), so the
//! poller and a worker never race for the same bytes. `epoll_ctl` is safe
//! to call from any thread, which lets a worker re-arm the socket it just
//! answered on.
//!
//! Wakeups (a worker handed a connection back, the accept thread handed
//! over a connection, shutdown began) ride a loopback TCP socket pair
//! registered level-triggered — the std-only stand-in for an `eventfd`.

use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::time::Duration;

/// Token the poller assigns to its wake socket. Connection tokens start
/// at 1, so 0 is never ambiguous.
pub const WAKE_TOKEN: u64 = 0;

#[cfg(all(target_os = "linux", feature = "epoll"))]
mod sys {
    //! The four epoll syscalls, declared against the already-linked libc.

    pub const EPOLL_CLOEXEC: i32 = 0o2000000;
    pub const EPOLL_CTL_ADD: i32 = 1;
    pub const EPOLL_CTL_MOD: i32 = 3;
    pub const EPOLLIN: u32 = 0x001;
    pub const EPOLLRDHUP: u32 = 0x2000;
    pub const EPOLLONESHOT: u32 = 1 << 30;

    /// Matches the kernel's `struct epoll_event`, which x86-64 declares
    /// packed (the 64-bit `data` field sits at offset 4).
    #[repr(C)]
    #[cfg_attr(target_arch = "x86_64", repr(packed))]
    #[derive(Clone, Copy)]
    pub struct EpollEvent {
        pub events: u32,
        pub data: u64,
    }

    extern "C" {
        pub fn epoll_create1(flags: i32) -> i32;
        pub fn epoll_ctl(epfd: i32, op: i32, fd: i32, event: *mut EpollEvent) -> i32;
        pub fn epoll_wait(epfd: i32, events: *mut EpollEvent, maxevents: i32, timeout: i32) -> i32;
        pub fn close(fd: i32) -> i32;
    }
}

/// An `epoll_ctl` operation.
enum Ctl {
    Add,
    Modify,
}

/// One poller's readiness source.
pub enum Poller {
    /// Kernel-backed: `wait` returns exactly the ready tokens.
    #[cfg(all(target_os = "linux", feature = "epoll"))]
    Epoll { epfd: i32 },
    /// Portable fallback: `wait` sleeps briefly and reports nothing; the
    /// event loop must scan every connection it owns.
    Scan,
}

impl Default for Poller {
    fn default() -> Poller {
        Poller::new()
    }
}

impl Poller {
    /// Opens the best available readiness source.
    pub fn new() -> Poller {
        #[cfg(all(target_os = "linux", feature = "epoll"))]
        {
            let epfd = unsafe { sys::epoll_create1(sys::EPOLL_CLOEXEC) };
            if epfd >= 0 {
                return Poller::Epoll { epfd };
            }
        }
        Poller::Scan
    }

    /// Does `wait` report readiness, or must the caller scan?
    pub fn is_edge_informed(&self) -> bool {
        #[cfg(all(target_os = "linux", feature = "epoll"))]
        if matches!(self, Poller::Epoll { .. }) {
            return true;
        }
        false
    }

    /// Starts watching the wake socket `rx` under [`WAKE_TOKEN`],
    /// level-triggered: it stays armed through every report. A no-op in
    /// scan mode.
    pub fn register_wake(&self, rx: &TcpStream) {
        self.ctl(rx, WAKE_TOKEN, Ctl::Add, false);
    }

    /// Starts watching connection `stream` for readable bytes (and peer
    /// hangups) under `token`, armed for one report. A no-op in scan mode.
    /// Closing the socket's last handle removes the registration.
    pub fn register(&self, stream: &TcpStream, token: u64) {
        self.ctl(stream, token, Ctl::Add, true);
    }

    /// Arms `stream`'s registration for one more report; readiness that
    /// is already pending is reported at once. Callable from any thread.
    /// A no-op in scan mode.
    pub fn rearm(&self, stream: &TcpStream, token: u64) {
        self.ctl(stream, token, Ctl::Modify, true);
    }

    fn ctl(&self, stream: &TcpStream, token: u64, op: Ctl, oneshot: bool) {
        match self {
            #[cfg(all(target_os = "linux", feature = "epoll"))]
            Poller::Epoll { epfd } => {
                use std::os::fd::AsRawFd;
                let mut ev = sys::EpollEvent {
                    events: sys::EPOLLIN
                        | sys::EPOLLRDHUP
                        | if oneshot { sys::EPOLLONESHOT } else { 0 },
                    data: token,
                };
                let op = match op {
                    Ctl::Add => sys::EPOLL_CTL_ADD,
                    Ctl::Modify => sys::EPOLL_CTL_MOD,
                };
                // SAFETY: `epfd` is this poller's epoll descriptor, open
                // until the poller drops; the stream's descriptor is open
                // for the borrow; `ev` is a valid `epoll_event` the kernel
                // only reads.
                unsafe {
                    sys::epoll_ctl(*epfd, op, stream.as_raw_fd(), &mut ev);
                }
            }
            Poller::Scan => {
                let _ = (stream, token, op, oneshot);
            }
        }
    }

    /// Blocks until something registered is readable or `timeout` passes.
    /// Appends the ready tokens to `out` (possibly none on timeout). In
    /// scan mode this only sleeps: the caller scans its whole connection
    /// table afterwards.
    pub fn wait(&self, out: &mut Vec<u64>, timeout: Duration) {
        match self {
            #[cfg(all(target_os = "linux", feature = "epoll"))]
            Poller::Epoll { epfd } => {
                let mut events = [sys::EpollEvent { events: 0, data: 0 }; 64];
                let ms = timeout.as_millis().min(i32::MAX as u128) as i32;
                let n =
                    unsafe { sys::epoll_wait(*epfd, events.as_mut_ptr(), events.len() as i32, ms) };
                for ev in events.iter().take(n.max(0) as usize) {
                    // `data` may be misaligned in the packed layout; copy it
                    // out through a local.
                    let token = ev.data;
                    out.push(token);
                }
            }
            Poller::Scan => {
                if !timeout.is_zero() {
                    std::thread::park_timeout(timeout);
                }
            }
        }
    }
}

impl Drop for Poller {
    fn drop(&mut self) {
        match self {
            #[cfg(all(target_os = "linux", feature = "epoll"))]
            Poller::Epoll { epfd } => unsafe {
                sys::close(*epfd);
            },
            Poller::Scan => {}
        }
    }
}

/// A loopback socket pair carrying wakeups into a poller's `wait`.
///
/// The receiving half is registered under [`WAKE_TOKEN`]; any thread with
/// the sending half writes one byte to interrupt the poller's sleep. In
/// scan mode the sender instead unparks the poller thread directly.
pub struct WakePair {
    /// Nonblocking receiving half, registered with the poller.
    pub rx: TcpStream,
    tx: TcpStream,
    thread: std::sync::Mutex<Option<std::thread::Thread>>,
}

impl WakePair {
    /// Builds the pair over an ephemeral loopback listener.
    pub fn new() -> std::io::Result<WakePair> {
        let listener = TcpListener::bind("127.0.0.1:0")?;
        let tx = TcpStream::connect(listener.local_addr()?)?;
        let (rx, _) = listener.accept()?;
        rx.set_nonblocking(true)?;
        tx.set_nodelay(true)?;
        Ok(WakePair {
            rx,
            tx,
            thread: std::sync::Mutex::new(None),
        })
    }

    /// Tells the pair which thread to unpark when the poller runs in scan
    /// mode (where nothing watches the socket).
    pub fn set_thread(&self, thread: std::thread::Thread) {
        *self.thread.lock().expect("wake thread slot") = Some(thread);
    }

    /// Wakes the owning poller. Cheap enough to call per event; write
    /// errors are ignored because a full pipe already guarantees a pending
    /// wakeup and a closed one means the poller is gone.
    pub fn wake(&self) {
        let _ = (&self.tx).write(&[1u8]);
        if let Some(thread) = self.thread.lock().expect("wake thread slot").as_ref() {
            thread.unpark();
        }
    }

    /// Drains queued wake bytes so the next `wait` can block again.
    pub fn drain(&self) {
        let mut sink = [0u8; 64];
        while let Ok(n) = (&self.rx).read(&mut sink) {
            if n == 0 {
                break;
            }
        }
    }
}
