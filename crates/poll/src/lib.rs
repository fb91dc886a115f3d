//! # oranges-poll — one safe call over `poll(2)`
//!
//! [`wait`] blocks until a descriptor in a set is ready or a timeout
//! passes: the readiness primitive of the campaign service's reactor.
//!
//! ## Safety argument
//!
//! This is the workspace's only `unsafe` code: one call to the C
//! library's `poll`. The call is sound for any slice a safe caller can
//! build:
//!
//! - `poll` reads and writes only the `nfds` entries at `fds`, all inside
//!   one live, exclusive `&mut [PollFd]`, and keeps no pointer after returning.
//! - [`PollFd`] is `#[repr(C)]` with the field order and types of
//!   `struct pollfd`, and `Nfds` is the platform's `nfds_t`.
//! - A descriptor is only a number to `poll`. A closed or invalid one
//!   yields [`POLLNVAL`] in its `revents`, never undefined behaviour,
//!   so [`PollFd::new`] may take any `RawFd`.

#![warn(missing_docs)]

use std::io;
use std::os::fd::RawFd;
use std::os::raw::{c_int, c_short};
use std::time::Duration;

#[cfg(target_os = "linux")]
type Nfds = std::os::raw::c_ulong;
#[cfg(not(target_os = "linux"))]
type Nfds = std::os::raw::c_uint;

/// Readable (or, for a listening socket, acceptable).
pub const POLLIN: c_short = 0x1;
/// Writable without blocking.
pub const POLLOUT: c_short = 0x4;
/// The peer hung up. Reported whether or not it was asked for.
pub const POLLHUP: c_short = 0x10;
/// The descriptor is not open. Reported whether or not it was asked for.
pub const POLLNVAL: c_short = 0x20;

/// One entry of a poll set: a descriptor, the events asked for, and
/// the events [`wait`] reported.
#[repr(C)]
#[derive(Debug, Clone, Copy)]
pub struct PollFd {
    fd: c_int,
    events: c_short,
    revents: c_short,
}

impl PollFd {
    /// Watch `fd` for `events` (a bitwise OR of [`POLLIN`], [`POLLOUT`]).
    pub fn new(fd: RawFd, events: c_short) -> Self {
        PollFd {
            fd,
            events,
            revents: 0,
        }
    }

    /// The events the last [`wait`] reported for this entry.
    pub fn revents(&self) -> c_short {
        self.revents
    }
}

extern "C" {
    fn poll(fds: *mut PollFd, nfds: Nfds, timeout: c_int) -> c_int;
}

/// Block until an entry of `fds` is ready or `timeout` passes (`None`
/// waits forever), and return the number of ready entries. The timeout
/// rounds up to whole milliseconds. A wait interrupted by a signal
/// returns 0, like a timeout.
pub fn wait(fds: &mut [PollFd], timeout: Option<Duration>) -> io::Result<usize> {
    let timeout = timeout.map_or(-1, |t| {
        c_int::try_from(t.as_nanos().div_ceil(1_000_000)).unwrap_or(c_int::MAX)
    });
    let nfds = Nfds::try_from(fds.len())
        .map_err(|_| io::Error::new(io::ErrorKind::InvalidInput, "poll set too large"))?;
    // SAFETY: `fds` is a live, exclusive slice of `nfds` `#[repr(C)]`
    // pollfd entries; `poll` touches no other memory (see crate docs).
    let ready = unsafe { poll(fds.as_mut_ptr(), nfds, timeout) };
    usize::try_from(ready).or_else(|_| match io::Error::last_os_error() {
        error if error.kind() == io::ErrorKind::Interrupted => Ok(0),
        error => Err(error),
    })
}
