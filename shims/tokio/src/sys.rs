//! The three `epoll` system calls, declared against the libc that std
//! already links, behind safe wrappers. This module is the only `unsafe`
//! in the shim (upstream tokio reaches the same calls through mio); the
//! crate root denies it everywhere else.

use std::io;
use std::os::fd::{AsRawFd, BorrowedFd, FromRawFd, OwnedFd};
use std::os::raw::c_int;

const EPOLL_CLOEXEC: c_int = 0o2000000;
const EPOLL_CTL_ADD: c_int = 1;
const EPOLL_CTL_DEL: c_int = 2;

pub(crate) const EPOLLIN: u32 = 0x001;
pub(crate) const EPOLLOUT: u32 = 0x004;
pub(crate) const EPOLLERR: u32 = 0x008;
pub(crate) const EPOLLHUP: u32 = 0x010;
pub(crate) const EPOLLRDHUP: u32 = 0x2000;
const EPOLLET: u32 = 1 << 31;

/// `struct epoll_event`. The kernel ABI packs it on x86-64 only.
#[derive(Clone, Copy)]
#[cfg_attr(target_arch = "x86_64", repr(C, packed))]
#[cfg_attr(not(target_arch = "x86_64"), repr(C))]
pub(crate) struct Event {
    /// Bit set of `EPOLL*` conditions.
    pub(crate) events: u32,
    /// The token given to [`add`].
    pub(crate) token: u64,
}

impl Event {
    pub(crate) const EMPTY: Event = Event {
        events: 0,
        token: 0,
    };
}

extern "C" {
    fn epoll_create1(flags: c_int) -> c_int;
    fn epoll_ctl(epfd: c_int, op: c_int, fd: c_int, event: *mut Event) -> c_int;
    fn epoll_wait(epfd: c_int, events: *mut Event, maxevents: c_int, timeout: c_int) -> c_int;
}

fn check(ret: c_int) -> io::Result<c_int> {
    if ret < 0 {
        Err(io::Error::last_os_error())
    } else {
        Ok(ret)
    }
}

/// Creates an epoll instance (close-on-exec).
pub(crate) fn create() -> io::Result<OwnedFd> {
    // SAFETY: `epoll_create1` takes no pointers; any flag value is safe to
    // pass and a bad one is reported as `EINVAL`.
    let fd = check(unsafe { epoll_create1(EPOLL_CLOEXEC) })?;
    // SAFETY: the call succeeded, so `fd` is an open descriptor that
    // nothing else owns yet.
    Ok(unsafe { OwnedFd::from_raw_fd(fd) })
}

/// Registers `fd` for edge-triggered read and write readiness; events for
/// it carry `token`.
pub(crate) fn add(epoll: &OwnedFd, fd: BorrowedFd<'_>, token: u64) -> io::Result<()> {
    let mut event = Event {
        events: EPOLLIN | EPOLLOUT | EPOLLRDHUP | EPOLLET,
        token,
    };
    // SAFETY: both descriptors are open for the duration of the call (one
    // is owned, one borrowed), and `event` is a live, correctly laid out
    // `epoll_event` the kernel only reads.
    check(unsafe { epoll_ctl(epoll.as_raw_fd(), EPOLL_CTL_ADD, fd.as_raw_fd(), &mut event) })?;
    Ok(())
}

/// Removes `fd` from the interest list.
pub(crate) fn delete(epoll: &OwnedFd, fd: BorrowedFd<'_>) -> io::Result<()> {
    // SAFETY: both descriptors are open for the duration of the call;
    // `EPOLL_CTL_DEL` ignores the event pointer, so null is allowed.
    check(unsafe {
        epoll_ctl(
            epoll.as_raw_fd(),
            EPOLL_CTL_DEL,
            fd.as_raw_fd(),
            std::ptr::null_mut(),
        )
    })?;
    Ok(())
}

/// Blocks until at least one registered descriptor has an event or
/// `timeout_ms` milliseconds pass (-1: no limit), fills the front of
/// `events` and returns how many were written.
pub(crate) fn wait(epoll: &OwnedFd, events: &mut [Event], timeout_ms: c_int) -> io::Result<usize> {
    let capacity = c_int::try_from(events.len()).unwrap_or(c_int::MAX);
    // SAFETY: `events` is a live, writable buffer of at least `capacity`
    // correctly laid out `epoll_event`s, and the kernel writes at most
    // `capacity` of them; the descriptor is owned, hence open. Any
    // timeout value is safe to pass.
    let n =
        check(unsafe { epoll_wait(epoll.as_raw_fd(), events.as_mut_ptr(), capacity, timeout_ms) })?;
    Ok(n as usize)
}
