use oranges_poll::{wait, PollFd, POLLHUP, POLLIN, POLLNVAL, POLLOUT};
use std::io::Write;
use std::os::fd::{AsRawFd, RawFd};
use std::os::unix::net::UnixStream;
use std::time::{Duration, Instant};

#[test]
fn a_silent_peer_times_out_and_a_written_byte_is_readable() {
    let (reader, mut writer) = UnixStream::pair().expect("socket pair");
    let mut set = [PollFd::new(reader.as_raw_fd(), POLLIN)];
    let started = Instant::now();
    assert_eq!(
        wait(&mut set, Some(Duration::from_micros(1500))).unwrap(),
        0
    );
    assert!(
        started.elapsed() >= Duration::from_millis(2),
        "1.5 ms rounds up to 2 ms"
    );
    assert_eq!(set[0].revents(), 0);

    writer.write_all(b"x").expect("send");
    assert_eq!(wait(&mut set, None).unwrap(), 1);
    assert_eq!(set[0].revents(), POLLIN);
}

#[test]
fn hangups_and_closed_descriptors_are_reported_unasked() {
    let (reader, writer) = UnixStream::pair().expect("socket pair");
    drop(writer);
    // No process has this many descriptors open, so it is never valid.
    let mut set = [
        PollFd::new(reader.as_raw_fd(), POLLOUT),
        PollFd::new(RawFd::MAX, POLLIN),
    ];
    assert_eq!(wait(&mut set, Some(Duration::ZERO)).unwrap(), 2);
    assert_ne!(set[0].revents() & POLLHUP, 0, "{:#x}", set[0].revents());
    assert_eq!(set[1].revents(), POLLNVAL);
}
