//! A minimal readiness-driven event loop for service connections.
//!
//! The campaign service used to park one OS thread per connection in a
//! blocking `read_line` — simple, but a daemon's connection ceiling
//! became its thread ceiling. This module is the replacement I/O plane:
//! every connection is a **table entry** on one reactor thread, and the
//! service's thread census is O(1) in the number of connections.
//!
//! Each turn is one `poll(2)` wait ([`oranges_poll::wait`]):
//!
//! - **Registration table** — the reactor *owns* each registered
//!   [`Stream`], switched to nonblocking mode. Each entry carries a
//!   [`FrameBuffer`] (incremental newline framing over arbitrary byte
//!   segmentation), a [`WriteQueue`] (short-write- and
//!   `WouldBlock`-tolerant output), a read-interest mode, and an
//!   optional timer.
//! - **Listener** — the owner's listening socket, watched for pending
//!   connections ([`Event::Acceptable`]). The owner accepts them and
//!   [`register`](Reactor::register)s each; after a failed accept it
//!   can leave the listener out of the set for a back-off
//!   ([`Reactor::pause_listener`]).
//! - **Wakeup socket** — other threads post coalesced [`NotifyHandle`]
//!   wakes on a channel and then write one byte to a socket pair whose
//!   read end is in every poll set: engine completions wake one
//!   connection ([`Event::Notify`]), and the owner's own handle wakes
//!   the reactor as a whole ([`Event::Wake`]).
//! - **Level-triggered dispatch** — [`Reactor::poll`] returns one
//!   [`Event`] at a time; readiness that has not been consumed
//!   (buffered complete lines, queued notifies) is re-reported until
//!   the owner acts on it.
//!
//! The poll set is the wakeup socket, the listener while it is watched
//! and not paused, and each connection that wants something: READABLE
//! while its peer has not hung up and its interest is not
//! [`ReadInterest::Paused`], WRITABLE while its write queue is
//! non-empty. A connection that wants neither stays out of the set,
//! because `poll` reports hangups and errors without being asked, and a
//! paused, drained connection whose peer reset would otherwise wake
//! every turn. The wait lasts until the earliest timer, the paused
//! listener's resume or the caller's cap, and only connections `poll`
//! reported ready are serviced, so an idle table costs nothing.
//!
//! What belongs to the reactor vs. its owner:
//!
//! - the reactor frames lines, flushes queued writes, detects EOF and
//!   I/O errors, fires timers, and forwards wakes and listener
//!   readiness;
//! - the owner (the campaign service) accepts connections, interprets
//!   lines, decides read interest per connection state, enqueues
//!   responses, and removes connections when the protocol says so.

use crate::transport::Stream;
use oranges_poll::{PollFd, POLLIN, POLLOUT};
use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap, VecDeque};
use std::io::{self, Read, Write};
use std::os::fd::{AsRawFd, RawFd};
use std::os::unix::net::UnixStream;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// A registered connection's identity in the reactor table.
///
/// Tokens are minted monotonically and never reused, so a stale token
/// (kept by a notify source after its connection died) can never alias
/// a live connection.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Token(u64);

impl Token {
    /// The raw table id, for diagnostics.
    pub fn id(&self) -> u64 {
        self.0
    }
}

impl std::fmt::Display for Token {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "conn:{}", self.0)
    }
}

/// What a connection's read half is watched for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReadInterest {
    /// Frame complete lines and emit [`Event::Line`] — the command
    /// state of a protocol connection.
    Framed,
    /// Read and discard peer bytes, watching only for EOF — a
    /// `subscribe` stream after its ack, where the peer's only
    /// remaining signal is hanging up.
    EofOnly,
    /// Do not read at all. Bytes already buffered stay buffered; bytes
    /// the peer sends wait in the kernel. The mid-run state, where the
    /// protocol is sequential and the next request must not be framed
    /// until the current response stream finishes.
    Paused,
}

/// One readiness occurrence, returned by [`Reactor::poll`].
#[derive(Debug)]
pub enum Event {
    /// The watched listener has a connection pending (see
    /// [`Reactor::watch_listener`]). Level-triggered: reported again
    /// each turn until the owner has accepted every pending connection.
    Acceptable,
    /// A complete newline-framed line arrived (terminator stripped).
    Line(Token, String),
    /// The connection left the table. `None` is a clean close (peer
    /// EOF, or a requested close-after-flush that finished); `Some`
    /// describes an I/O failure. Either way the token is now dead and
    /// the stream is gone.
    Closed(Token, Option<String>),
    /// A [`NotifyHandle`] for this connection fired since the last
    /// time this event was reported. The notify flag is re-armed
    /// *before* this event is returned, so a source that fires during
    /// handling produces a fresh event rather than being lost.
    Notify(Token),
    /// The reactor-wide [`NotifyHandle`] ([`Reactor::wake_handle`])
    /// fired since the last time this event was reported; re-armed the
    /// same way as [`Event::Notify`].
    Wake,
    /// The connection's timer (see [`Reactor::set_timer`]) expired.
    Timer(Token),
    /// A write queue that had been above the backpressure threshold
    /// drained back to empty — whatever was paused on it may resume.
    Writable(Token),
}

/// A coalescing wake hook, bound to one registered connection
/// ([`Event::Notify`]) or to the reactor as a whole ([`Event::Wake`]).
///
/// `notify()` is cheap and idempotent-until-consumed: the first call
/// after the reactor last reported the event posts one wake; further
/// calls before the reactor re-arms the flag are free. This is what the
/// service installs as the engine's unit-completion hook and as the
/// event log's publish hook — a worker thread finishing a unit or
/// publishing an event costs one atomic swap and at most one wakeup
/// post, never a syscall against a connection.
#[derive(Clone, Debug)]
pub struct NotifyHandle {
    pending: Arc<AtomicBool>,
    /// The connection to wake, or `None` for the reactor as a whole.
    token: Option<Token>,
    tx: Sender<Option<Token>>,
    signal: Arc<UnixStream>,
}

impl NotifyHandle {
    /// Request the bound event: post the token on the channel, then
    /// write one byte to the wakeup socket. The byte goes after the
    /// payload, so a reactor that empties the socket and then drains
    /// the channel never misses a payload. `WouldBlock` means unread
    /// bytes are already waiting, which is wake enough; a dropped
    /// reactor gets no byte.
    pub fn notify(&self) {
        if !self.pending.swap(true, Ordering::AcqRel) && self.tx.send(self.token).is_ok() {
            (&*self.signal).write_all(&[1]).ok();
        }
    }

    /// This handle as a bare callback, the shape completion hooks take.
    pub fn callback(&self) -> Arc<dyn Fn() + Send + Sync> {
        let handle = self.clone();
        Arc::new(move || handle.notify())
    }
}

// ---------------------------------------------------------------------
// Framing
// ---------------------------------------------------------------------

/// Incremental newline framing over arbitrarily segmented bytes.
///
/// The wire protocol is newline-delimited JSON in which a raw `0x0A`
/// only ever means end-of-envelope (interior newlines are escaped), so
/// framing is a byte-level scan: split at `0x0A`, convert *complete*
/// lines to UTF-8. Because conversion happens only on complete lines,
/// a read boundary may fall anywhere — mid-envelope, mid-UTF-8
/// sequence — and reassembly is exact; the property tests in
/// `crates/harness/tests/props.rs` split recorded sessions at every
/// kind of boundary to prove it.
#[derive(Debug, Default)]
pub struct FrameBuffer {
    buffer: Vec<u8>,
    scanned: usize,
}

impl FrameBuffer {
    /// An empty buffer.
    pub fn new() -> Self {
        FrameBuffer::default()
    }

    /// Append a freshly read segment.
    pub fn extend(&mut self, bytes: &[u8]) {
        self.buffer.extend_from_slice(bytes);
    }

    /// Pop the next complete line (terminator stripped), or `None` if
    /// no full line is buffered yet. A complete line that is not valid
    /// UTF-8 is a protocol error.
    pub fn next_line(&mut self) -> io::Result<Option<String>> {
        let Some(offset) = self.buffer[self.scanned..].iter().position(|&b| b == b'\n') else {
            // Remember how far we scanned so a long line arriving in
            // many segments is not rescanned from the start each time.
            self.scanned = self.buffer.len();
            return Ok(None);
        };
        let newline = self.scanned + offset;
        let line = self.buffer.drain(..=newline).take(newline).collect();
        self.scanned = 0;
        String::from_utf8(line)
            .map(Some)
            .map_err(|_| io::Error::new(io::ErrorKind::InvalidData, "line is not valid UTF-8"))
    }

    /// Drain the unterminated tail at EOF, if any. A peer that sends a
    /// final line and closes without a trailing newline still gets it
    /// processed — the behavior a buffered blocking reader had.
    pub fn take_remainder(&mut self) -> io::Result<Option<String>> {
        if self.buffer.is_empty() {
            return Ok(None);
        }
        self.scanned = 0;
        String::from_utf8(std::mem::take(&mut self.buffer))
            .map(Some)
            .map_err(|_| io::Error::new(io::ErrorKind::InvalidData, "line is not valid UTF-8"))
    }

    /// Bytes buffered and not yet framed.
    pub fn buffered(&self) -> usize {
        self.buffer.len()
    }
}

// ---------------------------------------------------------------------
// Write queue
// ---------------------------------------------------------------------

/// Buffered output for a nonblocking connection.
///
/// `flush_into` writes as much as the peer will take and keeps the
/// rest: short writes and `WouldBlock` are normal outcomes, not
/// errors. The reactor retries whenever `poll` reports the connection
/// writable, until the queue drains.
#[derive(Debug, Default)]
pub struct WriteQueue {
    buffer: Vec<u8>,
    offset: usize,
}

impl WriteQueue {
    /// An empty queue.
    pub fn new() -> Self {
        WriteQueue::default()
    }

    /// Append bytes to be written.
    pub fn enqueue(&mut self, bytes: &[u8]) {
        // Compact lazily: reclaim the flushed prefix once it dominates.
        if self.offset > 4096 && self.offset * 2 > self.buffer.len() {
            self.buffer.drain(..self.offset);
            self.offset = 0;
        }
        self.buffer.extend_from_slice(bytes);
    }

    /// Write as much as possible into `writer`. Returns the byte count
    /// actually written; `WouldBlock` stops the flush without error.
    pub fn flush_into<W: Write>(&mut self, writer: &mut W) -> io::Result<usize> {
        let mut written = 0;
        while self.offset < self.buffer.len() {
            match writer.write(&self.buffer[self.offset..]) {
                Ok(0) => {
                    return Err(io::Error::new(
                        io::ErrorKind::WriteZero,
                        "peer accepts no bytes",
                    ));
                }
                Ok(n) => {
                    self.offset += n;
                    written += n;
                }
                Err(error) if error.kind() == io::ErrorKind::WouldBlock => break,
                Err(error) if error.kind() == io::ErrorKind::Interrupted => continue,
                Err(error) => return Err(error),
            }
        }
        if self.offset == self.buffer.len() {
            self.buffer.clear();
            self.offset = 0;
        }
        Ok(written)
    }

    /// Bytes enqueued and not yet written.
    pub fn pending(&self) -> usize {
        self.buffer.len() - self.offset
    }

    /// Whether everything enqueued has been written.
    pub fn is_empty(&self) -> bool {
        self.pending() == 0
    }
}

// ---------------------------------------------------------------------
// The reactor
// ---------------------------------------------------------------------

/// Per-turn read budget per connection, so one firehose peer cannot
/// starve the table.
const READ_BUDGET: usize = 64 * 1024;

/// A write queue deeper than this counts as *backlogged*: the owner
/// should stop feeding it discretionary output (subscriber events)
/// until [`Event::Writable`] reports the drain.
pub const WRITE_BACKLOG_THRESHOLD: usize = 256 * 1024;

/// The longest unterminated request line a [`ReadInterest::Framed`]
/// connection may buffer. A peer that sends more without a newline is
/// closed with [`Event::Closed`], so one connection cannot grow the
/// daemon's memory without limit.
pub const MAX_REQUEST_LINE: usize = 1 << 20;

struct Registration<S> {
    stream: S,
    frame: FrameBuffer,
    writes: WriteQueue,
    interest: ReadInterest,
    notify_pending: Arc<AtomicBool>,
    timer_generation: u64,
    close_after_flush: bool,
    backlogged: bool,
    peer_eof: bool,
}

/// The event loop: a registration table of owned nonblocking streams,
/// a watched listener, a wakeup socket, timers, and a level-triggered
/// [`poll`].
///
/// [`poll`]: Reactor::poll
pub struct Reactor<S: Stream> {
    rx: Receiver<Option<Token>>,
    signal: UnixStream,
    /// The reactor-wide hook; per-connection hooks are copies of it.
    wake: NotifyHandle,
    /// The watched listener and the instant it rejoins the poll set.
    listener: Option<(RawFd, Instant)>,
    table: HashMap<u64, Registration<S>>,
    next_token: u64,
    timers: BinaryHeap<Reverse<(Instant, u64, u64)>>,
    next_timer_generation: u64,
    pending: VecDeque<Event>,
    notify_wakeups: u64,
    timer_wakeups: u64,
}

impl<S: Stream> Reactor<S> {
    /// A reactor with an empty table. Fails if the wakeup socket pair
    /// cannot be created (`EMFILE`, say).
    pub fn new() -> io::Result<Self> {
        let (tx, rx) = channel();
        let (signal, signal_tx) = UnixStream::pair()?;
        signal.set_nonblocking(true)?;
        signal_tx.set_nonblocking(true)?;
        Ok(Reactor {
            rx,
            signal,
            wake: NotifyHandle {
                pending: Arc::new(AtomicBool::new(false)),
                token: None,
                tx,
                signal: Arc::new(signal_tx),
            },
            listener: None,
            table: HashMap::new(),
            next_token: 0,
            timers: BinaryHeap::new(),
            next_timer_generation: 0,
            pending: VecDeque::new(),
            notify_wakeups: 0,
            timer_wakeups: 0,
        })
    }

    /// The reactor-wide coalescing hook: firing it from any thread
    /// makes [`Reactor::poll`] report [`Event::Wake`]; fires are
    /// coalesced until that report happens.
    pub fn wake_handle(&self) -> NotifyHandle {
        self.wake.clone()
    }

    /// A coalescing notify hook bound to `token`. Firing it from any
    /// thread makes [`Reactor::poll`] report [`Event::Notify`] for the
    /// connection; fires are coalesced until that report happens.
    pub fn notify_handle(&self, token: Token) -> Option<NotifyHandle> {
        let registration = self.table.get(&token.0)?;
        Some(NotifyHandle {
            pending: Arc::clone(&registration.notify_pending),
            token: Some(token),
            ..self.wake.clone()
        })
    }

    /// Watch a listening socket, switched to nonblocking mode by its
    /// owner: while watched, [`Reactor::poll`] reports
    /// [`Event::Acceptable`] whenever a connection is pending. `None`
    /// stops watching. The reactor never accepts or closes it.
    pub fn watch_listener(&mut self, listener: Option<RawFd>) {
        self.listener = listener.map(|fd| (fd, Instant::now()));
    }

    /// Leave the watched listener out of the poll set for `delay` — the
    /// back-off after a failed accept, so a listener that stays
    /// readable while every accept fails (`EMFILE`, say) cannot spin a
    /// level-triggered wait.
    pub fn pause_listener(&mut self, delay: Duration) {
        if let Some((_, resume)) = &mut self.listener {
            *resume = Instant::now() + delay;
        }
    }

    /// Register a stream (an accepted connection); returns its token,
    /// or the underlying error if the stream refused nonblocking mode.
    pub fn register(&mut self, stream: S) -> io::Result<Token> {
        stream.set_nonblocking(true)?;
        let token = Token(self.next_token);
        self.next_token += 1;
        self.table.insert(
            token.0,
            Registration {
                stream,
                frame: FrameBuffer::new(),
                writes: WriteQueue::new(),
                interest: ReadInterest::Framed,
                notify_pending: Arc::new(AtomicBool::new(false)),
                timer_generation: 0,
                close_after_flush: false,
                backlogged: false,
                peer_eof: false,
            },
        );
        Ok(token)
    }

    /// Live connections in the table.
    pub fn connections(&self) -> usize {
        self.table.len()
    }

    /// Whether the table is empty (the drain-complete condition).
    pub fn is_empty(&self) -> bool {
        self.table.is_empty()
    }

    /// Tokens of every live connection, for drain sweeps.
    pub fn tokens(&self) -> Vec<Token> {
        let mut tokens: Vec<Token> = self.table.keys().map(|&id| Token(id)).collect();
        tokens.sort();
        tokens
    }

    /// Whether `token` is still in the table. Owners use this after an
    /// [`enqueue_write`](Reactor::enqueue_write) to notice a write
    /// failure (the failure's [`Event::Closed`] is queued, but the
    /// registration is already gone) before producing more output.
    pub fn is_registered(&self, token: Token) -> bool {
        self.table.contains_key(&token.0)
    }

    /// Re-check an EOF-seen connection for clean close. Needed when the
    /// owner consumed a delivered line without producing any output —
    /// with nothing queued to flush, no flush completion will re-run
    /// the close check on its own.
    pub fn sweep_eof(&mut self, token: Token) {
        if registration_is_closable(self.table.get(&token.0)) {
            self.close_clean(token);
        }
    }

    /// Total notify wakes delivered as [`Event::Notify`] or
    /// [`Event::Wake`].
    pub fn notify_wakeups(&self) -> u64 {
        self.notify_wakeups
    }

    /// Total timer expirations delivered as [`Event::Timer`].
    pub fn timer_wakeups(&self) -> u64 {
        self.timer_wakeups
    }

    /// Change what the connection's read half is watched for. Lines
    /// already buffered are (re-)framed immediately on a switch to
    /// [`ReadInterest::Framed`] — level triggering across pauses.
    pub fn set_read_interest(&mut self, token: Token, interest: ReadInterest) {
        let mut lines = Vec::new();
        let framed = {
            let Some(registration) = self.table.get_mut(&token.0) else {
                return;
            };
            registration.interest = interest;
            if interest == ReadInterest::Framed {
                // Re-framing may surface buffered lines (a pipelined
                // request that arrived during a run) without new bytes.
                frame_lines(&mut registration.frame, &mut lines)
            } else {
                Ok(())
            }
        };
        for line in lines {
            self.pending.push_back(Event::Line(token, line));
        }
        if let Err(error) = framed {
            self.fail(token, error);
            return;
        }
        if interest != ReadInterest::Paused && registration_is_closable(self.table.get(&token.0)) {
            self.close_clean(token);
        }
    }

    /// Queue bytes for the connection and start flushing immediately.
    pub fn enqueue_write(&mut self, token: Token, bytes: &[u8]) {
        // Opportunistic immediate flush: the common case (responsive
        // peer, small response) completes here and never waits a turn.
        let flushed = {
            let Some(registration) = self.table.get_mut(&token.0) else {
                return;
            };
            registration.writes.enqueue(bytes);
            if registration.writes.pending() > WRITE_BACKLOG_THRESHOLD {
                registration.backlogged = true;
            }
            registration
                .writes
                .flush_into(&mut registration.stream)
                .map(|_| registration.writes.is_empty())
        };
        match flushed {
            Ok(true) => self.writes_drained(token),
            Ok(false) => {}
            Err(error) => self.fail(token, error),
        }
    }

    /// Unflushed output bytes queued for the connection (0 for dead
    /// tokens).
    pub fn write_backlog(&self, token: Token) -> usize {
        self.table
            .get(&token.0)
            .map(|r| r.writes.pending())
            .unwrap_or(0)
    }

    /// Close the connection once everything queued has been written.
    /// Reports [`Event::Closed`] with a clean reason when it happens.
    /// Read interest is dropped immediately — this is a goodbye.
    pub fn close_after_flush(&mut self, token: Token) {
        let flushed = {
            let Some(registration) = self.table.get_mut(&token.0) else {
                return;
            };
            registration.close_after_flush = true;
            registration.interest = ReadInterest::Paused;
            registration.writes.is_empty()
        };
        if flushed {
            self.close_clean(token);
        }
    }

    /// Remove the connection immediately, dropping queued output. No
    /// [`Event::Closed`] is reported — the caller initiated this and
    /// already knows.
    pub fn close(&mut self, token: Token) {
        self.drop_registration(token);
    }

    /// Half-close the read side of every registered connection — the
    /// drain's first act, mirroring what the threaded service did to
    /// wake parked readers. Under the reactor nothing is parked, but
    /// the half-close still tells well-behaved peers no further
    /// requests will be read.
    pub fn shutdown_reads(&mut self) {
        for registration in self.table.values() {
            registration.stream.shutdown_read().ok();
        }
    }

    /// Arm (or re-arm) the connection's single timer to fire after
    /// `delay`. Replaces any previously armed timer.
    pub fn set_timer(&mut self, token: Token, delay: Duration) {
        let Some(registration) = self.table.get_mut(&token.0) else {
            return;
        };
        self.next_timer_generation += 1;
        registration.timer_generation = self.next_timer_generation;
        self.timers.push(Reverse((
            Instant::now() + delay,
            token.0,
            self.next_timer_generation,
        )));
    }

    /// Disarm the connection's timer.
    pub fn clear_timer(&mut self, token: Token) {
        if let Some(registration) = self.table.get_mut(&token.0) {
            self.next_timer_generation += 1;
            registration.timer_generation = self.next_timer_generation;
        }
    }

    /// Block until the next event. This is the dispatch loop's one
    /// call: wakes, timers, frame-complete lines, flush completions,
    /// EOFs, and errors all surface here, one at a time.
    pub fn poll(&mut self) -> Event {
        loop {
            if let Some(event) = self.pending.pop_front() {
                return event;
            }
            self.turn();
        }
    }

    /// Like [`poll`](Reactor::poll), but gives up after `timeout` and
    /// returns `None` — for owners that interleave the reactor with
    /// other periodic work.
    pub fn poll_timeout(&mut self, timeout: Duration) -> Option<Event> {
        let deadline = Instant::now() + timeout;
        loop {
            if let Some(event) = self.pending.pop_front() {
                return Some(event);
            }
            if Instant::now() >= deadline {
                return None;
            }
            self.turn_until(Some(deadline));
        }
    }

    fn turn(&mut self) {
        self.turn_until(None);
    }

    /// One scheduling turn: fire due timers, then wait in `poll(2)` on
    /// the wakeup socket, the listener unless it is paused, and every
    /// connection that wants something, until the earliest timer, the
    /// listener's resume or `cap` (forever if none), and service only
    /// what was reported ready.
    fn turn_until(&mut self, cap: Option<Instant>) {
        let now = Instant::now();
        self.fire_due_timers(now);
        if !self.pending.is_empty() {
            return;
        }
        let timer = self.timers.peek().map(|Reverse((at, _, _))| *at);
        let (listener, resume) = match self.listener {
            Some((fd, resume)) if resume <= now => (Some(fd), None),
            Some((_, resume)) => (None, Some(resume)),
            None => (None, None),
        };
        let deadline = cap.into_iter().chain(timer).chain(resume).min();
        let timeout = deadline.map(|at| at.saturating_duration_since(now));

        let mut ids = Vec::with_capacity(self.table.len());
        let mut set = Vec::with_capacity(self.table.len() + 2);
        set.push(PollFd::new(self.signal.as_raw_fd(), POLLIN));
        set.extend(listener.map(|fd| PollFd::new(fd, POLLIN)));
        let first = set.len();
        for (&id, registration) in &self.table {
            let mut events = 0;
            if !registration.peer_eof && registration.interest != ReadInterest::Paused {
                events |= POLLIN;
            }
            if !registration.writes.is_empty() {
                events |= POLLOUT;
            }
            if events != 0 {
                ids.push(id);
                set.push(PollFd::new(registration.stream.as_raw_fd(), events));
            }
        }
        // A failed wait (`ENOMEM`, say) is a wait that found nothing.
        if oranges_poll::wait(&mut set, timeout).unwrap_or(0) == 0 {
            return;
        }
        for (entry, &id) in set[first..].iter().zip(&ids) {
            if entry.revents() != 0 {
                self.service_connection(Token(id));
            }
        }
        if first > 1 && set[1].revents() != 0 {
            self.pending.push_back(Event::Acceptable);
        }
        if set[0].revents() != 0 {
            // Empty the socket before draining the channel: a payload
            // posted after the drain brings a byte the next wait sees.
            let mut bytes = [0u8; 64];
            while matches!((&self.signal).read(&mut bytes), Ok(n) if n > 0) {}
            while let Ok(wake) = self.rx.try_recv() {
                self.process_wake(wake);
            }
        }
    }

    fn process_wake(&mut self, wake: Option<Token>) {
        let pending = match wake {
            Some(token) => match self.table.get(&token.0) {
                Some(registration) => &registration.notify_pending,
                None => return,
            },
            None => &self.wake.pending,
        };
        // Re-arm before reporting: a notify that fires while the owner
        // handles this event posts a fresh wake instead of being
        // swallowed.
        pending.store(false, Ordering::Release);
        self.notify_wakeups += 1;
        self.pending
            .push_back(wake.map_or(Event::Wake, Event::Notify));
    }

    fn fire_due_timers(&mut self, now: Instant) {
        while let Some(Reverse((at, id, generation))) = self.timers.peek().copied() {
            if at > now {
                break;
            }
            self.timers.pop();
            let live = self
                .table
                .get(&id)
                .is_some_and(|r| r.timer_generation == generation);
            if live {
                self.timer_wakeups += 1;
                self.pending.push_back(Event::Timer(Token(id)));
            }
        }
    }

    /// One nonblocking service pass over a connection `poll` reported
    /// ready: flush queued writes, then read per interest.
    fn service_connection(&mut self, token: Token) {
        // Writes first: a queued response should never wait on reads.
        let flush = {
            let Some(registration) = self.table.get_mut(&token.0) else {
                return;
            };
            if registration.writes.is_empty() {
                Ok(false)
            } else {
                registration
                    .writes
                    .flush_into(&mut registration.stream)
                    .map(|_| registration.writes.is_empty())
            }
        };
        match flush {
            Ok(true) => {
                self.writes_drained(token);
                if !self.table.contains_key(&token.0) {
                    return;
                }
            }
            Ok(false) => {}
            Err(error) => {
                self.fail(token, error);
                return;
            }
        }

        // Read per interest, collecting framed lines locally so the
        // table borrow never overlaps event emission.
        let mut lines: Vec<String> = Vec::new();
        let mut failure: Option<io::Error> = None;
        let saw_eof = {
            let registration = self
                .table
                .get_mut(&token.0)
                .expect("registration survives a clean flush");
            if !registration.peer_eof && registration.interest != ReadInterest::Paused {
                let mut scratch = [0u8; 4096];
                let mut total = 0;
                loop {
                    match registration.stream.read(&mut scratch) {
                        Ok(0) => {
                            registration.peer_eof = true;
                            break;
                        }
                        Ok(n) => {
                            if registration.interest == ReadInterest::Framed {
                                registration.frame.extend(&scratch[..n]);
                            }
                            total += n;
                            if total >= READ_BUDGET {
                                break;
                            }
                        }
                        Err(error) if error.kind() == io::ErrorKind::WouldBlock => break,
                        Err(error) if error.kind() == io::ErrorKind::Interrupted => continue,
                        Err(error) => {
                            failure = Some(error);
                            break;
                        }
                    }
                }
            }

            // Frame complete lines out of whatever is buffered.
            if registration.interest == ReadInterest::Framed && failure.is_none() {
                failure = frame_lines(&mut registration.frame, &mut lines).err();
                if registration.peer_eof && failure.is_none() {
                    match registration.frame.take_remainder() {
                        Ok(Some(tail)) => lines.push(tail),
                        Ok(None) => {}
                        Err(error) => failure = Some(error),
                    }
                }
                if failure.is_none() && registration.frame.buffered() > MAX_REQUEST_LINE {
                    failure = Some(io::Error::new(
                        io::ErrorKind::InvalidData,
                        "request line exceeds 1 MiB",
                    ));
                }
            }
            registration.peer_eof
        };

        let delivered_lines = !lines.is_empty();
        for line in lines {
            self.pending.push_back(Event::Line(token, line));
        }
        if let Some(error) = failure {
            self.fail(token, error);
            return;
        }
        // Close on EOF only when no lines were delivered this pass: a
        // peer that wrote a request and closed its write half still
        // gets its response — the close follows the response flush (or
        // an explicit [`sweep_eof`](Reactor::sweep_eof)) instead.
        if saw_eof && !delivered_lines && registration_is_closable(self.table.get(&token.0)) {
            self.close_clean(token);
        }
    }

    /// A write queue reached empty: resolve close-after-flush and
    /// backpressure release.
    fn writes_drained(&mut self, token: Token) {
        enum Then {
            Close,
            Writable,
            Nothing,
        }
        let then = {
            let Some(registration) = self.table.get_mut(&token.0) else {
                return;
            };
            if registration.close_after_flush
                || (registration.peer_eof
                    && (registration.interest != ReadInterest::Framed
                        || registration.frame.buffered() == 0)
                    && registration.interest != ReadInterest::Paused)
            {
                Then::Close
            } else if registration.backlogged {
                registration.backlogged = false;
                Then::Writable
            } else {
                Then::Nothing
            }
        };
        match then {
            Then::Close => self.close_clean(token),
            Then::Writable => self.pending.push_back(Event::Writable(token)),
            Then::Nothing => {}
        }
    }

    fn close_clean(&mut self, token: Token) {
        if self.drop_registration(token) {
            self.pending.push_back(Event::Closed(token, None));
        }
    }

    fn fail(&mut self, token: Token, error: io::Error) {
        if self.drop_registration(token) {
            self.pending
                .push_back(Event::Closed(token, Some(error.to_string())));
        }
    }

    fn drop_registration(&mut self, token: Token) -> bool {
        self.table.remove(&token.0).is_some()
    }
}

/// Pop every complete line buffered in `frame` onto `lines`. A line
/// that is not valid UTF-8 stops the pass with the error.
fn frame_lines(frame: &mut FrameBuffer, lines: &mut Vec<String>) -> io::Result<()> {
    while let Some(line) = frame.next_line()? {
        lines.push(line);
    }
    Ok(())
}

/// Whether an EOF-seen registration has nothing left to deliver and
/// should close cleanly: no queued output, no buffered input still
/// awaiting framing, and not paused (a paused connection belongs to an
/// in-flight run whose owner decides its fate).
fn registration_is_closable<S>(registration: Option<&Registration<S>>) -> bool {
    registration.is_some_and(|r| {
        r.peer_eof
            && r.writes.is_empty()
            && r.interest != ReadInterest::Paused
            && (r.interest != ReadInterest::Framed || r.frame.buffered() == 0)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::transport::{Endpoint, Listener, TcpTransport, Transport};
    use std::io::Read;
    use std::net::TcpStream;

    #[test]
    fn frame_buffer_reassembles_lines_across_arbitrary_segments() {
        let mut frame = FrameBuffer::new();
        // "héllo\nwörld\n" delivered one byte at a time — boundaries
        // fall inside the multi-byte UTF-8 sequences.
        for &byte in "héllo\nwörld\n".as_bytes() {
            frame.extend(&[byte]);
        }
        assert_eq!(frame.next_line().unwrap(), Some("héllo".to_string()));
        assert_eq!(frame.next_line().unwrap(), Some("wörld".to_string()));
        assert_eq!(frame.next_line().unwrap(), None);
        assert_eq!(frame.buffered(), 0);
    }

    #[test]
    fn frame_buffer_holds_partial_lines_and_drains_the_tail_at_eof() {
        let mut frame = FrameBuffer::new();
        frame.extend(b"complete\npart");
        assert_eq!(frame.next_line().unwrap(), Some("complete".to_string()));
        assert_eq!(frame.next_line().unwrap(), None);
        assert_eq!(frame.buffered(), 4);
        frame.extend(b"ial");
        assert_eq!(frame.next_line().unwrap(), None, "still unterminated");
        assert_eq!(
            frame.take_remainder().unwrap(),
            Some("partial".to_string()),
            "EOF flushes the unterminated tail"
        );
        assert_eq!(frame.take_remainder().unwrap(), None);
    }

    #[test]
    fn frame_buffer_rejects_invalid_utf8_only_on_complete_lines() {
        let mut frame = FrameBuffer::new();
        // A split multi-byte sequence is fine while incomplete…
        frame.extend(&[0xC3]);
        assert_eq!(frame.next_line().unwrap(), None);
        frame.extend(&[0xA9]);
        frame.extend(b"ok\n");
        assert_eq!(frame.next_line().unwrap(), Some("éok".to_string()));
        // …but a complete line with a stray continuation byte errors.
        frame.extend(&[b'x', 0x80, b'\n']);
        assert!(frame.next_line().is_err());
    }

    /// A writer that accepts at most `cap` bytes per call and
    /// interleaves `WouldBlock` refusals — the adversarial peer the
    /// write queue must tolerate.
    struct ShortWriter {
        cap: usize,
        refuse_next: bool,
        written: Vec<u8>,
    }

    impl Write for ShortWriter {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            if self.refuse_next {
                self.refuse_next = false;
                return Err(io::Error::new(io::ErrorKind::WouldBlock, "try later"));
            }
            self.refuse_next = true;
            let n = buf.len().min(self.cap);
            self.written.extend_from_slice(&buf[..n]);
            Ok(n)
        }

        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn write_queue_survives_short_writes_and_would_block() {
        let mut queue = WriteQueue::new();
        let mut writer = ShortWriter {
            cap: 3,
            refuse_next: false,
            written: Vec::new(),
        };
        queue.enqueue(b"the quick brown fox\n");
        queue.enqueue(b"jumps over\n");
        let mut rounds = 0;
        while !queue.is_empty() {
            queue.flush_into(&mut writer).expect("flush");
            rounds += 1;
            assert!(rounds < 100, "flush must make progress");
        }
        assert_eq!(writer.written, b"the quick brown fox\njumps over\n");
        assert_eq!(queue.pending(), 0);
    }

    fn pair() -> (Reactor<TcpStream>, Token, TcpStream) {
        let listener = TcpTransport::bind(&"tcp:127.0.0.1:0".parse::<Endpoint>().unwrap())
            .expect("bind loopback");
        let client = TcpTransport::connect(listener.local_endpoint()).expect("connect");
        let served = listener.accept().expect("accept");
        let mut reactor = Reactor::new().expect("reactor");
        let token = reactor.register(served).expect("register");
        (reactor, token, client)
    }

    #[test]
    fn reactor_frames_segmented_requests_and_flushes_responses() {
        let (mut reactor, token, mut client) = pair();
        // The request arrives in two segments split mid-envelope.
        client.write_all(b"{\"id\":1,\"met").expect("first half");
        client.write_all(b"hod\":\"ping\"}\n").expect("second half");
        let line = loop {
            match reactor.poll() {
                Event::Line(t, line) => {
                    assert_eq!(t, token);
                    break line;
                }
                Event::Writable(_) => continue,
                other => panic!("unexpected event {other:?}"),
            }
        };
        assert_eq!(line, "{\"id\":1,\"method\":\"ping\"}");

        reactor.enqueue_write(token, b"pong\n");
        let mut response = [0u8; 5];
        client.read_exact(&mut response).expect("response");
        assert_eq!(&response, b"pong\n");
    }

    #[test]
    fn reactor_reports_clean_eof_and_flushes_goodbyes() {
        let (mut reactor, token, mut client) = pair();
        reactor.enqueue_write(token, b"bye\n");
        reactor.close_after_flush(token);
        let mut all = Vec::new();
        client.read_to_end(&mut all).expect("drain to EOF");
        assert_eq!(all, b"bye\n", "goodbye flushed before the close");
        match reactor.poll() {
            Event::Closed(t, reason) => {
                assert_eq!(t, token);
                assert!(reason.is_none(), "clean close: {reason:?}");
            }
            other => panic!("unexpected event {other:?}"),
        }
        assert!(reactor.is_empty());
    }

    #[test]
    fn reactor_delivers_final_unterminated_line_then_eof() {
        let (mut reactor, token, mut client) = pair();
        client.write_all(b"last words").expect("send tail");
        drop(client);
        let mut saw_line = false;
        loop {
            match reactor.poll() {
                Event::Line(t, line) => {
                    assert_eq!(t, token);
                    assert_eq!(line, "last words");
                    saw_line = true;
                    // A line delivered at EOF defers the close until the
                    // owner reacts; reacting with no output means an
                    // explicit sweep.
                    reactor.sweep_eof(t);
                }
                Event::Closed(t, reason) => {
                    assert_eq!(t, token);
                    assert!(reason.is_none(), "peer hangup is clean: {reason:?}");
                    break;
                }
                other => panic!("unexpected event {other:?}"),
            }
        }
        assert!(saw_line, "the unterminated tail was still delivered");
    }

    #[test]
    fn request_lines_are_bounded_at_max_request_line() {
        // Writers run on their own threads: the reactor must read while
        // megabytes are in flight.
        fn send(mut client: TcpStream, bytes: Vec<u8>) -> std::thread::JoinHandle<()> {
            std::thread::spawn(move || {
                for piece in bytes.chunks(100_000) {
                    // Fails once the reactor closes its end.
                    if client.write_all(piece).is_err() {
                        return;
                    }
                }
            })
        }
        let next = |reactor: &mut Reactor<TcpStream>| {
            reactor
                .poll_timeout(Duration::from_secs(30))
                .expect("an event")
        };

        // A line just under the bound, sent in pieces, still frames.
        let (mut reactor, token, client) = pair();
        let mut line = vec![b'x'; MAX_REQUEST_LINE - 1];
        line.push(b'\n');
        let writer = send(client.try_clone().expect("clone"), line);
        match next(&mut reactor) {
            Event::Line(t, line) => {
                assert_eq!(t, token);
                assert_eq!(line.len(), MAX_REQUEST_LINE - 1);
            }
            other => panic!("unexpected event {other:?}"),
        }
        writer.join().expect("writer thread");

        // 2 MiB with no newline closes the connection.
        let (mut reactor, token, client) = pair();
        let writer = send(
            client.try_clone().expect("clone"),
            vec![b'x'; 2 * MAX_REQUEST_LINE],
        );
        match next(&mut reactor) {
            Event::Closed(t, reason) => {
                assert_eq!(t, token);
                assert_eq!(reason.as_deref(), Some("request line exceeds 1 MiB"));
            }
            other => panic!("unexpected event {other:?}"),
        }
        assert!(reactor.is_empty());
        writer.join().expect("writer thread");
    }

    #[test]
    fn notify_handles_coalesce_and_rearm() {
        let (mut reactor, token, _client) = pair();
        let notify = reactor.notify_handle(token).expect("live token");
        // A burst of fires before the reactor runs coalesces to one
        // event…
        for _ in 0..100 {
            notify.notify();
        }
        match reactor.poll() {
            Event::Notify(t) => assert_eq!(t, token),
            other => panic!("unexpected event {other:?}"),
        }
        assert_eq!(reactor.notify_wakeups(), 1, "burst coalesced");
        // …and the flag re-armed: the next fire produces a fresh event.
        notify.notify();
        match reactor.poll() {
            Event::Notify(t) => assert_eq!(t, token),
            other => panic!("unexpected event {other:?}"),
        }
        assert_eq!(reactor.notify_wakeups(), 2);
        // The reactor-wide hook coalesces and re-arms the same way.
        let wake = reactor.wake_handle();
        for round in 3..5 {
            wake.notify();
            wake.notify();
            assert!(matches!(reactor.poll(), Event::Wake));
            assert_eq!(reactor.notify_wakeups(), round);
        }
    }

    #[test]
    fn timers_fire_once_and_rearms_replace() {
        let (mut reactor, token, _client) = pair();
        // Re-arming replaces: only the second deadline fires.
        reactor.set_timer(token, Duration::from_millis(5));
        reactor.set_timer(token, Duration::from_millis(20));
        let started = Instant::now();
        match reactor.poll() {
            Event::Timer(t) => assert_eq!(t, token),
            other => panic!("unexpected event {other:?}"),
        }
        assert!(
            started.elapsed() >= Duration::from_millis(15),
            "the replaced 5 ms deadline must not fire"
        );
        assert_eq!(reactor.timer_wakeups(), 1, "one firing, not two");
        // A cleared timer never fires.
        reactor.set_timer(token, Duration::from_millis(5));
        reactor.clear_timer(token);
        assert!(
            reactor.poll_timeout(Duration::from_millis(40)).is_none(),
            "cleared timer stayed silent"
        );
    }

    #[test]
    fn paused_interest_defers_framing_until_resumed() {
        let (mut reactor, token, mut client) = pair();
        reactor.set_read_interest(token, ReadInterest::Paused);
        client.write_all(b"queued-while-paused\n").expect("send");
        assert!(
            reactor.poll_timeout(Duration::from_millis(50)).is_none(),
            "paused connections are not read"
        );
        reactor.set_read_interest(token, ReadInterest::Framed);
        let line = match reactor.poll() {
            Event::Line(t, line) => {
                assert_eq!(t, token);
                line
            }
            other => panic!("unexpected event {other:?}"),
        };
        assert_eq!(line, "queued-while-paused");
    }

    /// CPU time (`utime + stime`, fields 14–15) of the calling thread.
    #[cfg(target_os = "linux")]
    fn thread_cpu_time() -> Duration {
        let stat = std::fs::read_to_string("/proc/thread-self/stat").expect("thread stat");
        // Fields count from 1; the command (field 2) ends at the last ')'.
        let fields: Vec<&str> = stat[stat.rfind(')').expect("comm") + 2..]
            .split(' ')
            .collect();
        let ticks: u64 =
            fields[11].parse::<u64>().expect("utime") + fields[12].parse::<u64>().expect("stime");
        // USER_HZ is 100 on every Linux target.
        Duration::from_millis(ticks * 10)
    }

    #[cfg(target_os = "linux")]
    #[test]
    fn a_paused_connection_whose_peer_resets_does_not_spin() {
        let (mut reactor, token, client) = pair();
        reactor.set_read_interest(token, ReadInterest::Paused);
        // Closing with unread bytes makes the close a reset.
        reactor.enqueue_write(token, b"never read\n");
        assert_eq!(reactor.write_backlog(token), 0, "flushed to the kernel");
        drop(client);

        let before = thread_cpu_time();
        assert!(
            reactor.poll_timeout(Duration::from_millis(300)).is_none(),
            "a paused connection reports nothing"
        );
        let spent = thread_cpu_time() - before;
        assert!(spent < Duration::from_millis(100), "spun for {spent:?}");

        reactor.set_read_interest(token, ReadInterest::Framed);
        match reactor.poll_timeout(Duration::from_secs(10)) {
            Some(Event::Closed(t, _)) => assert_eq!(t, token),
            other => panic!("unexpected event {other:?}"),
        }
    }

    #[test]
    fn eof_only_interest_discards_input_but_reports_hangup() {
        let (mut reactor, token, mut client) = pair();
        reactor.set_read_interest(token, ReadInterest::EofOnly);
        client.write_all(b"ignored chatter\n").expect("send");
        assert!(
            reactor.poll_timeout(Duration::from_millis(50)).is_none(),
            "subscriber chatter is discarded, not framed"
        );
        drop(client);
        let deadline = Instant::now() + Duration::from_secs(10);
        loop {
            match reactor.poll_timeout(Duration::from_millis(100)) {
                Some(Event::Closed(t, reason)) => {
                    assert_eq!(t, token);
                    assert!(reason.is_none(), "hangup is clean: {reason:?}");
                    break;
                }
                Some(other) => panic!("unexpected event {other:?}"),
                None => assert!(Instant::now() < deadline, "hangup never reported"),
            }
        }
    }

    #[test]
    fn a_watched_listener_reports_pending_connections_until_paused_or_unwatched() {
        let listener = TcpTransport::bind(&"tcp:127.0.0.1:0".parse::<Endpoint>().unwrap())
            .expect("bind loopback");
        listener
            .set_nonblocking(true)
            .expect("nonblocking listener");
        let mut reactor: Reactor<TcpStream> = Reactor::new().expect("reactor");
        reactor.watch_listener(Some(listener.as_raw_fd()));
        let quiet = |reactor: &mut Reactor<TcpStream>| {
            reactor.poll_timeout(Duration::from_millis(50)).is_none()
        };
        assert!(quiet(&mut reactor), "no connection is pending");

        let _first = TcpTransport::connect(listener.local_endpoint()).expect("connect");
        match reactor.poll() {
            Event::Acceptable => {}
            other => panic!("unexpected event {other:?}"),
        }
        reactor
            .register(listener.accept().expect("accept"))
            .expect("register");
        assert_eq!(reactor.connections(), 1);
        assert!(quiet(&mut reactor), "nothing left to accept");

        // A paused listener rejoins the set when its back-off ends.
        let _second = TcpTransport::connect(listener.local_endpoint()).expect("connect");
        let paused = Instant::now();
        reactor.pause_listener(Duration::from_millis(150));
        match reactor.poll() {
            Event::Acceptable => {}
            other => panic!("unexpected event {other:?}"),
        }
        assert!(
            paused.elapsed() >= Duration::from_millis(140),
            "back-off honoured"
        );

        // An unwatched listener is never reported.
        reactor.watch_listener(None);
        assert!(quiet(&mut reactor), "unwatched");
    }
}
