//! The readiness reactor under the TCP server: a small fixed set of poll
//! workers replacing the thread-per-client receive path.
//!
//! The thread-per-client design costs one OS thread (stack, scheduler
//! slot, context switches) per session, which caps how many emulated
//! nodes one server hosts. The reactor inverts it: every socket is
//! non-blocking, each of a handful of workers owns a share of the
//! connections and level-triggers over them — read what is readable,
//! flush what is writable, park briefly when a pass makes no progress.
//! Built on `std::net` only (no epoll binding, no extra dependency): the
//! wake mechanism is `std::thread::park_timeout` plus unpark tokens, and
//! readiness is discovered by attempting the non-blocking syscall.
//!
//! Cross-thread handoff points:
//!
//! * **Dispatch** — worker 0 owns the (non-blocking) listener and deals
//!   accepted streams round-robin into per-worker incoming queues.
//! * **Delivery** — the scan thread encodes every frame of a pass straight
//!   into the connection's shared [`OutBuf`] ([`ConnShared::cork`]) and
//!   writes each touched connection once when the pass ends
//!   ([`ConnShared::flush`]), then wakes the owning worker to flush any
//!   remainder.
//! * **Shutdown** — every worker holds a [`Waker`]; `shutdown()` flips
//!   `running` and wakes them all. No loopback self-connect needed.

use parking_lot::Mutex;
use poem_core::NodeId;
use poem_obs::Counter;
use poem_proto::{encode_frame_into, ServerMsg};
use std::collections::BTreeSet;
use std::io::{self, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};
use std::thread::Thread;
use std::time::{Duration, Instant};

/// Explicit wake handle for one poll worker: the worker registers its
/// thread on startup; producers unpark it. `std::thread` unpark tokens
/// make this race-free — an unpark delivered while the worker is mid-pass
/// is banked and its next `park_timeout` returns immediately.
#[derive(Debug, Default)]
pub(crate) struct Waker {
    thread: OnceLock<Thread>,
    /// Wakes delivered (fed to `poem_reactor_wakes_total`).
    wakes: AtomicU64,
}

impl Waker {
    /// Called by the owning worker before its first pass.
    pub fn register(&self) {
        let _ = self.thread.set(std::thread::current());
    }

    /// Unparks the owning worker (no-op until it registered).
    pub fn wake(&self) {
        self.wakes.fetch_add(1, Ordering::Relaxed);
        if let Some(t) = self.thread.get() {
            t.unpark();
        }
    }

    /// Total wakes delivered so far.
    pub fn wakes(&self) -> u64 {
        self.wakes.load(Ordering::Relaxed)
    }
}

/// Write-side buffer of one connection: frames the socket could not take
/// yet, plus staleness bookkeeping for slow-consumer eviction.
#[derive(Debug, Default)]
pub(crate) struct OutBuf {
    buf: Vec<u8>,
    /// Consumed prefix of `buf` (compacted opportunistically).
    start: usize,
    /// Last instant write progress was made while bytes were pending;
    /// `None` while the buffer is empty. A stalled consumer is one whose
    /// buffer has pending bytes and no progress for `write_timeout`.
    stalled_since: Option<Instant>,
    /// Close the socket once the buffer drains (refusals, shutdown).
    close_after_flush: bool,
}

impl OutBuf {
    fn pending(&self) -> usize {
        self.buf.len() - self.start
    }

    fn compact(&mut self) {
        if self.start == self.buf.len() {
            self.buf.clear();
            self.start = 0;
        } else if self.start > 64 * 1024 && self.start * 2 > self.buf.len() {
            self.buf.drain(..self.start);
            self.start = 0;
        }
    }
}

/// Corked bytes past which [`ConnShared::cork`] writes the connection
/// without waiting for the end of the pass. Large enough that a pass's
/// frames for one connection usually leave in one `write(2)`, small enough
/// that a long overload pass starts putting bytes on the wire early and
/// never parks more than this per connection on top of what the socket
/// refused. Not configurable: nothing in the workspace wants another
/// value, and `write_buffer_cap` already bounds what a consumer may hold.
const CORK_BYTES: usize = 64 * 1024;

/// Outcome of a [`ConnShared::cork`] attempt.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Enqueue {
    /// The frame is in the output buffer (or already on the wire).
    /// `first` is set when the buffer was empty before it: the caller owes
    /// the connection a [`ConnShared::flush`].
    Queued { first: bool },
    /// The consumer is stalled: pending bytes made no progress for longer
    /// than the write timeout. Caller evicts.
    Stalled,
    /// Buffering the frame would exceed the cap. Caller evicts.
    Overflow,
    /// The connection is already closed.
    Closed,
    /// The message does not fit a frame; nothing was queued.
    Unencodable,
}

/// The cross-thread half of one connection. The owning worker keeps the
/// read state ([`crate::session::Conn`]) private; everything another
/// thread may touch — the write buffer, the attached-session set, the
/// close flag — lives here behind its own short-lived locks.
pub(crate) struct ConnShared {
    /// Reactor-wide connection id (timer-wheel key).
    pub id: u64,
    /// The socket (non-blocking). Used for direct writes under the `out`
    /// lock and for `shutdown()` on close.
    pub stream: TcpStream,
    /// Pending output frames.
    pub out: Mutex<OutBuf>,
    /// VMNs attached to this connection: a singleton for a legacy
    /// session, any number for a mux session. Shared so `evict(node)` can
    /// detach without bouncing through the worker.
    pub nodes: Mutex<BTreeSet<NodeId>>,
    /// Whether the connection completed a mux handshake.
    pub mux: AtomicBool,
    /// Set once; the owning worker reaps the connection on its next pass.
    pub closed: AtomicBool,
    /// Index of the owning worker (wake target).
    pub worker: usize,
    /// Instant the connection registered — the zero point `activity_ms`
    /// is measured from.
    born: Instant,
    /// Milliseconds since `born` at the last byte movement in either
    /// direction, stamped by whichever thread moved them. The idle
    /// timeout compares against this, so a pure listener that only
    /// *receives* deliveries still counts as alive.
    activity_ms: AtomicU64,
    /// Bytes this connection put on the wire
    /// (`poem_reactor_write_bytes_total`, shared by every connection).
    written: Arc<Counter>,
}

impl ConnShared {
    pub fn new(id: u64, stream: TcpStream, worker: usize, written: Arc<Counter>) -> Self {
        ConnShared {
            id,
            stream,
            out: Mutex::new(OutBuf::default()),
            nodes: Mutex::new(BTreeSet::new()),
            mux: AtomicBool::new(false),
            closed: AtomicBool::new(false),
            worker,
            born: Instant::now(),
            activity_ms: AtomicU64::new(0),
            written,
        }
    }

    /// Records byte movement now (read or write progress) for the
    /// idle-timeout clock.
    pub fn touch(&self) {
        self.activity_ms.store(self.born.elapsed().as_millis() as u64, Ordering::Relaxed);
    }

    /// How long the connection has moved no bytes in either direction.
    pub fn idle_for(&self) -> Duration {
        let last = Duration::from_millis(self.activity_ms.load(Ordering::Relaxed));
        self.born.elapsed().saturating_sub(last)
    }

    /// Encodes `msg` as one frame at the end of the output buffer without
    /// touching the socket, unless the corked bytes pass [`CORK_BYTES`] or
    /// `cap`, in which case it writes what the socket takes right away.
    /// Never blocks. Everything corked goes out with the next
    /// [`flush`](Self::flush), whichever thread calls it.
    pub fn cork(&self, msg: &ServerMsg, cap: usize, write_timeout: Option<Duration>) -> Enqueue {
        if self.closed.load(Ordering::Acquire) {
            return Enqueue::Closed;
        }
        let mut out = self.out.lock();
        if let (Some(limit), Some(since)) = (write_timeout, out.stalled_since) {
            if since.elapsed() > limit {
                return Enqueue::Stalled;
            }
        }
        let first = out.pending() == 0;
        let frame_at = out.buf.len();
        if encode_frame_into(&mut out.buf, msg).is_err() {
            return Enqueue::Unencodable;
        }
        if out.pending() >= CORK_BYTES || out.pending() > cap {
            if self.write_pending(&mut out).is_err() {
                return self.close_locked();
            }
            // Over the cap with the socket refusing more: the frame is
            // taken back out, unless part of it already left (a frame
            // larger than the cap on an otherwise empty buffer).
            if out.pending() > cap && out.start <= frame_at {
                out.buf.truncate(frame_at);
                return Enqueue::Overflow;
            }
        }
        Enqueue::Queued { first }
    }

    /// [`cork`](Self::cork) followed by an immediate write, with no stall
    /// check: how the notices that precede a teardown (`Detached`,
    /// `Shutdown`) are sent.
    pub fn post(&self, msg: &ServerMsg, cap: usize) -> Enqueue {
        let queued = self.cork(msg, cap, None);
        if matches!(queued, Enqueue::Queued { .. }) && self.flush(None).is_err() {
            self.close();
            return Enqueue::Closed;
        }
        queued
    }

    /// Writes pending output until the socket refuses more, keeping the
    /// stall clock: it restarts on progress, starts when bytes are first
    /// left behind, and stops when the buffer drains (which also performs
    /// a requested close-after-flush). `Err` means the socket died.
    fn write_pending(&self, out: &mut OutBuf) -> io::Result<usize> {
        let mut written = 0usize;
        while out.pending() > 0 {
            match (&self.stream).write(&out.buf[out.start..]) {
                Ok(0) => return Err(io::ErrorKind::WriteZero.into()),
                Ok(n) => {
                    out.start += n;
                    written += n;
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
        out.compact();
        if written > 0 {
            self.written.add(written as u64);
            self.touch();
        }
        if out.pending() == 0 {
            out.stalled_since = None;
            if out.close_after_flush {
                self.close();
            }
        } else if written > 0 || out.stalled_since.is_none() {
            out.stalled_since = Some(Instant::now());
        }
        Ok(written)
    }

    /// Flushes as much pending output as the socket takes. Returns
    /// `Ok(bytes_written)`; `Err` means the consumer stalled past
    /// `write_timeout` or the socket died, and the caller evicts.
    pub fn flush(&self, write_timeout: Option<Duration>) -> io::Result<usize> {
        let mut out = self.out.lock();
        let written = self.write_pending(&mut out)?;
        if let (Some(limit), Some(since)) = (write_timeout, out.stalled_since) {
            if written == 0 && since.elapsed() > limit {
                return Err(io::ErrorKind::TimedOut.into());
            }
        }
        Ok(written)
    }

    /// Bytes currently queued behind the socket.
    pub fn backlog(&self) -> usize {
        self.out.lock().pending()
    }

    /// Requests a close once everything queued so far has flushed.
    pub fn close_after_flush(&self) {
        let should_close_now = {
            let mut out = self.out.lock();
            out.close_after_flush = true;
            out.pending() == 0
        };
        if should_close_now {
            self.close();
        }
    }

    /// Marks the connection closed and shuts the socket down. Safe from
    /// any thread; the owning worker reaps the carcass on its next pass.
    pub fn close(&self) {
        if !self.closed.swap(true, Ordering::AcqRel) {
            let _ = self.stream.shutdown(std::net::Shutdown::Both);
        }
    }

    fn close_locked(&self) -> Enqueue {
        // `out` is held by the caller; `close` only touches `closed` and
        // the socket, so no re-entry.
        self.close();
        Enqueue::Closed
    }
}

impl std::fmt::Debug for ConnShared {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ConnShared")
            .field("id", &self.id)
            .field("worker", &self.worker)
            .field("closed", &self.closed.load(Ordering::Relaxed))
            .finish_non_exhaustive()
    }
}

/// Per-worker handoff state.
#[derive(Debug, Default)]
pub(crate) struct WorkerShared {
    /// Freshly accepted streams awaiting registration by the worker.
    pub incoming: Mutex<Vec<TcpStream>>,
    /// The worker's wake handle.
    pub waker: Waker,
}

/// The reactor: worker handles plus the global connection registry.
#[derive(Debug)]
pub(crate) struct Reactor {
    pub workers: Vec<Arc<WorkerShared>>,
    /// Every live connection, keyed by id — the shutdown broadcast set.
    pub conns: Mutex<std::collections::BTreeMap<u64, Arc<ConnShared>>>,
    next_worker: AtomicUsize,
    next_id: AtomicU64,
}

impl Reactor {
    pub fn new(workers: usize) -> Self {
        Reactor {
            workers: (0..workers.max(1)).map(|_| Arc::new(WorkerShared::default())).collect(),
            conns: Mutex::new(std::collections::BTreeMap::new()),
            next_worker: AtomicUsize::new(0),
            next_id: AtomicU64::new(1),
        }
    }

    /// Queues an accepted stream to the next worker, round-robin.
    pub fn dispatch(&self, stream: TcpStream) {
        let idx = self.next_worker.fetch_add(1, Ordering::Relaxed) % self.workers.len();
        self.workers[idx].incoming.lock().push(stream);
        self.workers[idx].waker.wake();
    }

    /// A fresh connection id.
    pub fn alloc_id(&self) -> u64 {
        self.next_id.fetch_add(1, Ordering::Relaxed)
    }

    /// Wakes the worker owning `conn`.
    pub fn wake_owner(&self, conn: &ConnShared) {
        self.workers[conn.worker].waker.wake();
    }

    /// Wakes every worker (shutdown, broadcast flush).
    pub fn wake_all(&self) {
        for w in &self.workers {
            w.waker.wake();
        }
    }

    /// Total wakes delivered across all workers.
    pub fn total_wakes(&self) -> u64 {
        self.workers.iter().map(|w| w.waker.wakes()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Read;
    use std::net::TcpListener;

    fn pair() -> (TcpStream, TcpStream) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let a = TcpStream::connect(addr).unwrap();
        let (b, _) = listener.accept().unwrap();
        (a, b)
    }

    fn conn_on(stream: TcpStream) -> ConnShared {
        stream.set_nonblocking(true).unwrap();
        ConnShared::new(1, stream, 0, Arc::new(Counter::default()))
    }

    /// A message whose frame is `n` bytes long.
    fn msg_of(n: usize) -> ServerMsg {
        // 4 (length prefix) + 4 (variant) + 8 (string length) + reason.
        ServerMsg::Refused { reason: "x".repeat(n - 16) }
    }

    const NO_CAP: usize = 64 * 1024 * 1024;

    #[test]
    fn cork_holds_frames_until_one_flush_writes_them() {
        let (a, mut b) = pair();
        let conn = conn_on(a);
        let msgs = [msg_of(100), ServerMsg::Shutdown, msg_of(40)];
        let mut want = Vec::new();
        for (i, m) in msgs.iter().enumerate() {
            assert_eq!(conn.cork(m, NO_CAP, None), Enqueue::Queued { first: i == 0 });
            encode_frame_into(&mut want, m).unwrap();
        }
        assert_eq!(conn.backlog(), want.len(), "nothing leaves before the flush");
        b.set_nonblocking(true).unwrap();
        assert_eq!(b.read(&mut [0u8; 1]).unwrap_err().kind(), io::ErrorKind::WouldBlock);
        b.set_nonblocking(false).unwrap();
        assert_eq!(conn.flush(None).unwrap(), want.len());
        assert_eq!(conn.backlog(), 0);
        assert_eq!(conn.written.get(), want.len() as u64);
        let mut got = vec![0u8; want.len()];
        b.read_exact(&mut got).unwrap();
        assert_eq!(got, want, "frames leave in cork order, byte for byte");
        // The buffer drained: the next cork is a first again.
        assert_eq!(conn.cork(&ServerMsg::Shutdown, NO_CAP, None), Enqueue::Queued { first: true });
    }

    #[test]
    fn cork_writes_on_its_own_past_the_cork_limit() {
        let (a, mut b) = pair();
        let conn = conn_on(a);
        let frame = 16 * 1024;
        for _ in 0..3 {
            conn.cork(&msg_of(frame), NO_CAP, None);
        }
        assert_eq!(conn.backlog(), 3 * frame, "under the limit nothing is written");
        conn.cork(&msg_of(frame), NO_CAP, None);
        assert_eq!(conn.backlog(), 0, "the fourth frame reaches 64 KiB and the cork writes");
        let mut got = vec![0u8; 4 * frame];
        b.read_exact(&mut got).unwrap();
    }

    #[test]
    fn post_writes_through_an_idle_socket() {
        let (a, mut b) = pair();
        let conn = conn_on(a);
        assert_eq!(conn.post(&msg_of(21), 1024), Enqueue::Queued { first: true });
        assert_eq!(conn.backlog(), 0, "frame left through the socket directly");
        let mut buf = [0u8; 21];
        b.read_exact(&mut buf).unwrap();
        assert_eq!(buf[..4], 17u32.to_le_bytes());
    }

    #[test]
    fn full_socket_buffers_then_flushes() {
        let (a, mut b) = pair();
        let conn = conn_on(a);
        // Stuff the socket until the kernel buffer rejects more: the
        // remainder stays in the OutBuf.
        let chunk = msg_of(256 * 1024);
        while conn.backlog() == 0 {
            assert!(matches!(conn.post(&chunk, NO_CAP), Enqueue::Queued { .. }));
        }
        let backlog = conn.backlog();
        assert!(backlog > 0);
        // Drain the peer; flush makes progress.
        let mut sink = vec![0u8; 1024 * 1024];
        let mut flushed_total = 0usize;
        for _ in 0..1000 {
            let _ = b.read(&mut sink).unwrap();
            flushed_total += conn.flush(None).unwrap();
            if conn.backlog() == 0 {
                break;
            }
        }
        assert_eq!(conn.backlog(), 0, "backlog drained");
        assert_eq!(flushed_total, backlog);
    }

    #[test]
    fn stalled_consumer_is_reported_on_cork_and_flush() {
        let (a, _b) = pair();
        let conn = conn_on(a);
        let chunk = msg_of(256 * 1024);
        let timeout = Some(Duration::from_millis(30));
        // `_b` never reads, but in-flight TCP keeps freeing send-buffer
        // space until the peer's receive buffer fills too — so keep the
        // backlog topped up until a whole timeout passes with zero flush
        // progress. That is the stall.
        loop {
            while conn.backlog() == 0 {
                conn.post(&chunk, NO_CAP);
            }
            std::thread::sleep(Duration::from_millis(60));
            match conn.flush(timeout) {
                Ok(_) => continue,
                Err(e) => {
                    assert_eq!(e.kind(), io::ErrorKind::TimedOut);
                    break;
                }
            }
        }
        // The same stall surfaces on the cork side.
        assert_eq!(conn.cork(&ServerMsg::Shutdown, NO_CAP, timeout), Enqueue::Stalled);
    }

    #[test]
    fn overflow_is_reported_at_the_cap_and_only_once_the_socket_is_full() {
        let (a, _b) = pair();
        let conn = conn_on(a);
        let chunk = msg_of(48 * 1024);
        // Two frames exceed the cap before any write was tried: the cork
        // writes first, and a socket with room is no overflow.
        let cap = 64 * 1024;
        assert!(matches!(conn.cork(&chunk, cap, None), Enqueue::Queued { .. }));
        assert!(matches!(conn.cork(&chunk, cap, None), Enqueue::Queued { .. }));
        let mut saw_overflow = false;
        for _ in 0..1000 {
            let before = conn.backlog();
            match conn.cork(&chunk, cap, None) {
                Enqueue::Queued { .. } => {}
                Enqueue::Overflow => {
                    assert_eq!(conn.backlog(), before, "the refused frame is taken back out");
                    saw_overflow = true;
                    break;
                }
                other => panic!("unexpected {other:?}"),
            }
        }
        assert!(saw_overflow, "cap never enforced");
        assert!(conn.backlog() <= cap);
    }

    #[test]
    fn close_after_flush_closes_once_drained() {
        let (a, mut b) = pair();
        let conn = conn_on(a);
        conn.post(&ServerMsg::Shutdown, 1024);
        conn.close_after_flush();
        assert!(conn.closed.load(Ordering::Acquire), "empty backlog closes immediately");
        let mut buf = [0u8; 8];
        b.read_exact(&mut buf).unwrap();
        assert_eq!(buf[..4], 4u32.to_le_bytes());

        // With frames still corked the close waits for the write.
        let (a, _b) = pair();
        let conn = conn_on(a);
        conn.cork(&ServerMsg::Shutdown, 1024, None);
        conn.close_after_flush();
        assert!(!conn.closed.load(Ordering::Acquire));
        conn.flush(None).unwrap();
        assert!(conn.closed.load(Ordering::Acquire));
    }

    #[test]
    fn dispatch_round_robins_and_wakes() {
        let reactor = Reactor::new(2);
        let (a, _a2) = pair();
        let (b, _b2) = pair();
        let (c, _c2) = pair();
        reactor.dispatch(a);
        reactor.dispatch(b);
        reactor.dispatch(c);
        assert_eq!(reactor.workers[0].incoming.lock().len(), 2);
        assert_eq!(reactor.workers[1].incoming.lock().len(), 1);
        assert!(reactor.total_wakes() >= 3);
    }
}
