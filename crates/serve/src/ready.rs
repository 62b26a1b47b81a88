//! Readiness: the one place the serving threads block.
//!
//! Two pieces, both over plain file descriptors:
//!
//! * [`PollSet`] — a reusable `pollfd` array and the crate's only
//!   `unsafe` block, the `poll(2)` call itself.  std links libc but
//!   exposes no readiness API, and the build is dependency-free, so the
//!   shim is hand-rolled: one `extern "C"` declaration, `EINTR`
//!   retried, the timeout rounded *up* to poll's millisecond grain so a
//!   timer never fires early.
//! * [`Waker`] — how another thread interrupts a `poll`: a nonblocking
//!   socket pair whose read end sits in the sleeper's `PollSet`, and a
//!   flag that coalesces wake-ups — any number of [`Waker::wake`] calls
//!   between two [`Waker::drain`]s cost one byte and one return from
//!   `poll`.
//!
//! Level-triggered on purpose: whatever is still readable, writable or
//! signalled when a thread goes back to sleep simply ends the next
//! `poll` at once, so a wake-up cannot be lost by acting on it late.

use std::ffi::{c_int, c_short};
use std::io::{self, Read, Write};
use std::os::fd::{AsRawFd, RawFd};
use std::os::unix::net::UnixStream;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

/// `nfds_t`: `unsigned long` on Linux (glibc and musl), `unsigned int`
/// on macOS, the BSDs and Android.
#[cfg(target_os = "linux")]
type NfdsT = std::ffi::c_ulong;
#[cfg(not(target_os = "linux"))]
type NfdsT = std::ffi::c_uint;

// The event bits below have the same values on every unix std supports.
const POLLIN: c_short = 0x001;
const POLLOUT: c_short = 0x004;
const POLLERR: c_short = 0x008;
const POLLHUP: c_short = 0x010;
const POLLNVAL: c_short = 0x020;

/// `struct pollfd`, field for field.
#[repr(C)]
struct PollFd {
    fd: RawFd,
    events: c_short,
    revents: c_short,
}

extern "C" {
    fn poll(fds: *mut PollFd, nfds: NfdsT, timeout: c_int) -> c_int;
}

/// What `poll` reported for one registered descriptor.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct Ready {
    /// A `read` will not block: bytes, end of stream, or — for a hung-up
    /// or failed socket — the error itself.  Hang-up and error count as
    /// readable so they surface as "pump this connection" and the read
    /// reports what happened.
    pub read: bool,
    /// The descriptor hung up or failed (`POLLHUP`/`POLLERR`/`POLLNVAL`);
    /// reported whatever interest was registered.
    pub closed: bool,
}

impl Ready {
    /// For a descriptor that has not been through `poll` yet: try the
    /// read and let it answer.
    pub(crate) const UNKNOWN: Ready = Ready {
        read: true,
        closed: false,
    };
}

/// The descriptors one thread sleeps on, rebuilt before each wait (the
/// allocation is kept).
pub(crate) struct PollSet {
    fds: Vec<PollFd>,
}

impl PollSet {
    pub(crate) fn new() -> PollSet {
        PollSet { fds: Vec::new() }
    }

    pub(crate) fn clear(&mut self) {
        self.fds.clear();
    }

    /// Register `fd` for readability and/or writability; returns the
    /// slot to ask [`PollSet::ready`] about after the wait.  With
    /// neither, only hang-up and error are reported.
    pub(crate) fn push(&mut self, fd: &impl AsRawFd, read: bool, write: bool) -> usize {
        let mut events = 0;
        if read {
            events |= POLLIN;
        }
        if write {
            events |= POLLOUT;
        }
        self.fds.push(PollFd {
            fd: fd.as_raw_fd(),
            events,
            revents: 0,
        });
        self.fds.len() - 1
    }

    /// Block until a registered descriptor is ready or `timeout` passes
    /// (`None` = no timer pending: wait for a descriptor alone).  Returns
    /// how many descriptors reported something; 0 is a timeout.
    pub(crate) fn wait(&mut self, timeout: Option<Duration>) -> io::Result<usize> {
        let deadline = timeout.map(|t| Instant::now() + t);
        loop {
            let millis: c_int = match deadline {
                None => -1,
                Some(at) => {
                    let left = at.saturating_duration_since(Instant::now());
                    // Round up: waking a fraction of a millisecond
                    // early would find the timer not yet due and spin.
                    let ms = left.as_nanos().div_ceil(1_000_000);
                    c_int::try_from(ms).unwrap_or(c_int::MAX)
                }
            };
            // SAFETY: `poll` reads and writes exactly `nfds` consecutive
            // `pollfd` records starting at `fds` and nothing else.
            // * Pointer and length: both come from the one `Vec<PollFd>`
            //   this struct owns, and `PollFd` is `#[repr(C)]` with
            //   `struct pollfd`'s three fields in order, so the kernel
            //   sees `len` initialized records of the layout it expects
            //   (for an empty set the pointer is dangling but `nfds` is 0
            //   and it is never dereferenced).  `len` fits `nfds_t`: a
            //   `Vec` holds at most `isize::MAX` bytes.
            // * Lifetime: `&mut self` is held across the call, so the
            //   `Vec` can neither move, grow nor drop until `poll`
            //   returns, and no other reference to the records exists
            //   while the kernel writes `revents`.
            // * The descriptors: memory safety does not depend on them —
            //   `poll` answers `POLLNVAL` for a closed one.  Correctness
            //   does: every caller fills the set from sockets it owns and
            //   waits on the same thread before touching them again, so
            //   no registered descriptor is closed (and its number
            //   reused) while it is polled.
            let n = unsafe { poll(self.fds.as_mut_ptr(), self.fds.len() as NfdsT, millis) };
            if n >= 0 {
                return Ok(n as usize);
            }
            let err = io::Error::last_os_error();
            if err.kind() != io::ErrorKind::Interrupted {
                return Err(err);
            }
        }
    }

    /// What the last [`PollSet::wait`] reported for `slot`.
    pub(crate) fn ready(&self, slot: usize) -> Ready {
        let revents = self.fds[slot].revents;
        let closed = revents & (POLLHUP | POLLERR | POLLNVAL) != 0;
        Ready {
            read: closed || revents & POLLIN != 0,
            closed,
        }
    }
}

/// Interrupts one thread's [`PollSet::wait`] from any other thread.
///
/// Protocol: the sender publishes its work (a channel send, a flag)
/// *then* calls [`Waker::wake`]; the sleeper, once `poll` reports the
/// read end, calls [`Waker::drain`] *then* looks for work.  `pending`
/// makes wake-ups idempotent: the first `wake` after a `drain` writes
/// the byte, the rest see the flag already up and return.  `drain`
/// empties the socket before lowering the flag, so a `wake` racing it
/// either still sees the flag up — and its work was published before the
/// sleeper's look, which follows the drain — or sees it down and writes a
/// fresh byte that ends the next `poll` at once.
pub(crate) struct Waker {
    rx: UnixStream,
    tx: UnixStream,
    pending: AtomicBool,
}

impl Waker {
    pub(crate) fn new() -> io::Result<Waker> {
        let (rx, tx) = UnixStream::pair()?;
        rx.set_nonblocking(true)?;
        tx.set_nonblocking(true)?;
        Ok(Waker {
            rx,
            tx,
            pending: AtomicBool::new(false),
        })
    }

    /// The descriptor to register for readability.
    pub(crate) fn fd(&self) -> &UnixStream {
        &self.rx
    }

    /// End the sleeper's current (or next) wait.  Never blocks.
    pub(crate) fn wake(&self) {
        if !self.pending.swap(true, Ordering::SeqCst) {
            // One outstanding byte per drain at most, so the socket
            // buffer cannot fill; any other failure means the read end
            // is gone and nobody is left to wake.
            let _ = (&self.tx).write(&[1]);
        }
    }

    /// Consume the wake-up; call after `poll` reported [`Waker::fd`]
    /// readable and before looking for the work it announced.
    pub(crate) fn drain(&self) {
        let mut sink = [0u8; 16];
        while matches!((&self.rx).read(&mut sink), Ok(n) if n == sink.len()) {}
        self.pending.store(false, Ordering::SeqCst);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::{Shutdown, TcpListener, TcpStream};
    use std::sync::Arc;

    const SOON: Option<Duration> = Some(Duration::from_secs(5));

    #[test]
    fn a_wake_before_the_wait_is_not_lost() {
        let waker = Waker::new().unwrap();
        waker.wake();
        let mut set = PollSet::new();
        let slot = set.push(waker.fd(), true, false);
        // No timeout: a lost wake-up hangs here.
        assert_eq!(set.wait(None).unwrap(), 1);
        assert!(set.ready(slot).read);
    }

    #[test]
    fn a_thousand_wakes_are_one_byte_and_one_return() {
        let waker = Arc::new(Waker::new().unwrap());
        let wakers: Vec<_> = (0..4)
            .map(|_| {
                let waker = Arc::clone(&waker);
                std::thread::spawn(move || (0..250).for_each(|_| waker.wake()))
            })
            .collect();
        wakers.into_iter().for_each(|t| t.join().unwrap());

        let mut set = PollSet::new();
        let slot = set.push(waker.fd(), true, false);
        assert_eq!(set.wait(SOON).unwrap(), 1);
        assert!(set.ready(slot).read);
        // Exactly one byte crossed the pair…
        let mut buf = [0u8; 16];
        assert_eq!(waker.fd().read(&mut buf).unwrap(), 1);
        waker.pending.store(false, Ordering::SeqCst);
        // …so after consuming it the waker is quiet again,
        set.clear();
        let slot = set.push(waker.fd(), true, false);
        assert_eq!(set.wait(Some(Duration::from_millis(20))).unwrap(), 0);
        assert!(!set.ready(slot).read);
        // and armed again: the next wake gets through.
        waker.wake();
        assert_eq!(set.wait(SOON).unwrap(), 1);
        waker.drain();
        assert_eq!(set.wait(Some(Duration::from_millis(20))).unwrap(), 0);
    }

    #[test]
    fn a_wake_from_another_thread_ends_an_untimed_wait() {
        let waker = Arc::new(Waker::new().unwrap());
        let (asleep_tx, asleep_rx) = std::sync::mpsc::channel();
        let remote = Arc::clone(&waker);
        let sender = std::thread::spawn(move || {
            asleep_rx.recv().unwrap();
            remote.wake();
        });
        let mut set = PollSet::new();
        set.push(waker.fd(), true, false);
        asleep_tx.send(()).unwrap();
        assert_eq!(set.wait(None).unwrap(), 1);
        sender.join().unwrap();
    }

    #[test]
    fn hangup_and_error_surface_as_pump_this_connection() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let client = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (server, _) = listener.accept().unwrap();
        let mut set = PollSet::new();

        // Quiet peer: nothing to report, and the timeout says so.
        let slot = set.push(&server, true, false);
        assert_eq!(set.wait(Some(Duration::from_millis(10))).unwrap(), 0);
        assert!(!set.ready(slot).read);

        // Peer closed its sending side: readable (the read returns 0).
        client.shutdown(Shutdown::Write).unwrap();
        assert_eq!(set.wait(SOON).unwrap(), 1);
        assert!(set.ready(slot).read);

        // Both directions down: reported as closed even with *no*
        // interest registered, and as readable so the owner pumps it.
        server.shutdown(Shutdown::Write).unwrap();
        set.clear();
        let slot = set.push(&server, false, false);
        assert_eq!(set.wait(SOON).unwrap(), 1);
        let ready = set.ready(slot);
        assert!(ready.closed && ready.read, "{ready:?}");
        drop(client);
    }

    #[test]
    fn writability_is_reported_only_when_asked_for() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let _client = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (server, _) = listener.accept().unwrap();
        let mut set = PollSet::new();
        let slot = set.push(&server, true, false);
        assert_eq!(set.wait(Some(Duration::from_millis(10))).unwrap(), 0);
        set.clear();
        let slot_w = set.push(&server, true, true);
        assert_eq!(slot, slot_w);
        assert_eq!(set.wait(SOON).unwrap(), 1);
        assert_eq!(
            set.ready(slot_w),
            Ready {
                read: false,
                closed: false
            }
        );
    }

    #[test]
    fn an_empty_set_honours_its_timeout() {
        let mut set = PollSet::new();
        let started = Instant::now();
        assert_eq!(set.wait(Some(Duration::from_millis(30))).unwrap(), 0);
        let waited = started.elapsed();
        assert!(
            waited >= Duration::from_millis(30),
            "woke early: {waited:?}"
        );
        assert!(waited < Duration::from_secs(2), "overslept: {waited:?}");
        // A sub-millisecond timer rounds up, never down to a spin.
        let started = Instant::now();
        assert_eq!(set.wait(Some(Duration::from_micros(300))).unwrap(), 0);
        assert!(started.elapsed() >= Duration::from_micros(300));
    }

    /// One step of the model in [`lost_wake_up`].
    #[derive(Clone, Copy, Debug)]
    enum Step {
        /// Sender: the reply's channel changes — `Reply::send` queues the
        /// value, a dropped `Reply` disconnects; `try_recv` sees either.
        Finish,
        /// Sender, [`Waker::wake`]: swap `pending` up…
        Swap,
        /// …and write a byte if it was down.
        Write,
        /// Sleeper: take a finished reply, if any.
        TryRecv,
        /// Sleeper: block until a byte is pending.
        Poll,
        /// Sleeper, [`Waker::drain`]: read every byte…
        Read,
        /// …and lower `pending`.
        Lower,
    }

    #[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
    struct Model {
        /// Sender steps taken, and whether its last swap found `pending` up.
        sent: usize,
        was_up: bool,
        /// The sleeper's next step; `None` once it has every reply.
        sleeper: Option<usize>,
        pending: bool,
        bytes: u32,
        /// Replies finished and not yet taken, and taken.
        queued: u32,
        taken: u32,
    }

    /// Explore every sequentially consistent interleaving of one sender
    /// finishing two replies (`sender`, repeated) and one sleeper running
    /// a reader's loop (`sleeper`), from no wake outstanding and from one
    /// not yet drained.  Returns a state where the sender is done and the
    /// sleeper is blocked in `poll` with a reply waiting — a lost wake-up.
    fn lost_wake_up(sender: [Step; 3], sleeper: [Step; 4]) -> Option<Model> {
        const REPLIES: u32 = 2;
        let idle = Model {
            sent: 0,
            was_up: false,
            sleeper: Some(0),
            pending: false,
            bytes: 0,
            queued: 0,
            taken: 0,
        };
        let mut todo = vec![
            idle,
            Model {
                pending: true,
                bytes: 1,
                ..idle
            },
        ];
        let mut seen = std::collections::HashSet::new();
        while let Some(m) = todo.pop() {
            if !seen.insert(m) {
                continue;
            }
            let mut next = Vec::new();
            if m.sent < sender.len() * REPLIES as usize {
                let mut n = Model {
                    sent: m.sent + 1,
                    ..m
                };
                match sender[m.sent % sender.len()] {
                    Step::Finish => n.queued += 1,
                    Step::Swap => (n.was_up, n.pending) = (m.pending, true),
                    Step::Write => n.bytes += u32::from(!m.was_up),
                    step => unreachable!("{step:?} is a sleeper step"),
                }
                next.push(n);
            }
            // `poll` with no byte pending blocks: no step.
            let blocked = |at: usize| matches!(sleeper[at], Step::Poll) && m.bytes == 0;
            if let Some(at) = m.sleeper.filter(|&at| !blocked(at)) {
                let mut n = Model {
                    sleeper: Some((at + 1) % sleeper.len()),
                    ..m
                };
                match sleeper[at] {
                    Step::TryRecv if m.queued > 0 => {
                        (n.queued, n.taken) = (m.queued - 1, m.taken + 1);
                        n.sleeper = (n.taken < REPLIES).then_some(0);
                    }
                    Step::TryRecv | Step::Poll => {}
                    Step::Read => n.bytes = 0,
                    Step::Lower => n.pending = false,
                    step => unreachable!("{step:?} is a sender step"),
                }
                next.push(n);
            }
            if next.is_empty() && m.sleeper.is_some() {
                return Some(m);
            }
            todo.extend(next);
        }
        None
    }

    #[test]
    fn no_interleaving_of_a_reply_and_a_reader_loses_the_wake_up() {
        use Step::*;
        let (sender, sleeper) = ([Finish, Swap, Write], [TryRecv, Poll, Read, Lower]);
        assert_eq!(lost_wake_up(sender, sleeper), None);
        // The model does see one when the order breaks: waking before the
        // channel changed, or lowering the flag before reading the byte.
        assert!(lost_wake_up([Swap, Write, Finish], sleeper).is_some());
        assert!(lost_wake_up(sender, [TryRecv, Poll, Lower, Read]).is_some());
    }
}
