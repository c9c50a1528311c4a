//! A minimal binding to Linux `epoll`, the readiness source the serving
//! workers block on.
//!
//! The three system calls are declared against the C library that `std`
//! already links, so the serving tier needs no extra crate.  Everything the
//! rest of the server touches is safe: the epoll descriptor is an
//! [`OwnedFd`], registrations borrow the registered descriptor, and the only
//! payload the kernel hands back is the caller's `u64` token.

// This module is the workspace's one exception to `unsafe_code = "deny"`:
// calling a foreign function is unsafe by definition, and no safe std API
// exposes epoll.  Every block below states why its call is sound.
#![allow(unsafe_code)]

#[cfg(not(target_os = "linux"))]
compile_error!("wfdiff_pdiffview::serve needs Linux epoll; the serving tier runs on Linux only");

use std::io;
use std::os::fd::{AsRawFd, BorrowedFd, FromRawFd, OwnedFd};
use std::os::raw::c_int;
use std::time::Duration;

/// Readable (or the peer half-closed).
pub const EPOLLIN: u32 = 0x001;
/// Writable.
pub const EPOLLOUT: u32 = 0x004;
/// Deliver one event, then disarm until the next [`Epoll::rearm`].
pub const EPOLLONESHOT: u32 = 1 << 30;

/// `O_CLOEXEC`, which `epoll_create1` accepts as `EPOLL_CLOEXEC` (the value
/// shared by x86, ARM, RISC-V and the other mainstream Linux targets).
const EPOLL_CLOEXEC: c_int = 0o2_000_000;
const EPOLL_CTL_ADD: c_int = 1;
const EPOLL_CTL_MOD: c_int = 3;

/// `struct epoll_event`: the kernel packs it on x86_64 only.
#[cfg_attr(target_arch = "x86_64", repr(C, packed))]
#[cfg_attr(not(target_arch = "x86_64"), repr(C))]
#[derive(Clone, Copy)]
struct EpollEvent {
    events: u32,
    token: u64,
}

// A wrong layout would make the kernel read and write the wrong bytes; pin
// it so a packing mistake fails the build instead.
const _: () = assert!(
    std::mem::size_of::<EpollEvent>() == if cfg!(target_arch = "x86_64") { 12 } else { 16 }
);

extern "C" {
    fn epoll_create1(flags: c_int) -> c_int;
    fn epoll_ctl(epfd: c_int, op: c_int, fd: c_int, event: *mut EpollEvent) -> c_int;
    fn epoll_wait(epfd: c_int, events: *mut EpollEvent, maxevents: c_int, timeout: c_int) -> c_int;
}

/// An epoll instance.
pub struct Epoll {
    fd: OwnedFd,
}

impl Epoll {
    /// Creates an epoll instance (close-on-exec).
    pub fn new() -> io::Result<Epoll> {
        // SAFETY: `epoll_create1` takes a flag word and touches no memory of
        // ours.
        let fd = unsafe { epoll_create1(EPOLL_CLOEXEC) };
        if fd < 0 {
            return Err(io::Error::last_os_error());
        }
        // SAFETY: `fd` is a descriptor the kernel just opened for us and that
        // nothing else owns, so `OwnedFd` may take sole ownership of it.
        Ok(Epoll { fd: unsafe { OwnedFd::from_raw_fd(fd) } })
    }

    /// Registers `fd` for `events`; the kernel reports readiness with
    /// `token`.  The registration ends when the descriptor is closed.
    pub fn add(&self, fd: BorrowedFd<'_>, events: u32, token: u64) -> io::Result<()> {
        self.ctl(EPOLL_CTL_ADD, fd, events, token)
    }

    /// Replaces `fd`'s interest set and token, re-arming a one-shot
    /// registration whose event has fired.
    pub fn rearm(&self, fd: BorrowedFd<'_>, events: u32, token: u64) -> io::Result<()> {
        self.ctl(EPOLL_CTL_MOD, fd, events, token)
    }

    fn ctl(&self, op: c_int, fd: BorrowedFd<'_>, events: u32, token: u64) -> io::Result<()> {
        let mut event = EpollEvent { events, token };
        // SAFETY: both descriptors are open for the duration of the call
        // (`self` owns one, the borrow keeps the other alive), and `event` is
        // a live, correctly laid out `epoll_event` the kernel only reads.
        let rc = unsafe { epoll_ctl(self.fd.as_raw_fd(), op, fd.as_raw_fd(), &mut event) };
        if rc < 0 {
            return Err(io::Error::last_os_error());
        }
        Ok(())
    }

    /// Blocks until one registered descriptor is ready or `timeout` passes
    /// (rounded up to whole milliseconds), returning the ready descriptor's
    /// token.  A timeout or an interrupting signal yields `None`.
    pub fn wait_one(&self, timeout: Duration) -> io::Result<Option<u64>> {
        let millis = c_int::try_from(timeout.as_micros().div_ceil(1000)).unwrap_or(c_int::MAX);
        let mut event = EpollEvent { events: 0, token: 0 };
        // SAFETY: `event` is a live, correctly laid out buffer of exactly the
        // one event `maxevents = 1` lets the kernel write.
        let n = unsafe { epoll_wait(self.fd.as_raw_fd(), &mut event, 1, millis) };
        if n < 0 {
            let err = io::Error::last_os_error();
            return if err.kind() == io::ErrorKind::Interrupted { Ok(None) } else { Err(err) };
        }
        Ok((n == 1).then_some(event.token))
    }
}
