//! Byte-stream transports: the blocking duplex abstraction, a
//! deterministic in-memory implementation, and the loopback TCP binding.
//!
//! The wire layer ([`piano_core::wire::FrameReader`]) reassembles frames
//! from *any* segmentation of a byte stream, so a transport only needs
//! three operations: write bytes, read bytes (blocking), and read bytes
//! without blocking (for opportunistic reply draining). Everything above
//! — framing, codecs, backpressure, sessions — is transport-agnostic.

use std::collections::{BTreeSet, VecDeque};
use std::io;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

// ---------------------------------------------------------------------------
// Readiness
// ---------------------------------------------------------------------------

/// Shared state of a [`ReadySet`].
#[derive(Debug, Default)]
struct ReadyState {
    /// Tokens whose transports reported readable bytes (or EOF).
    ready: BTreeSet<usize>,
    /// A tokenless wakeup was requested (new connection injected, scan
    /// concluded, shutdown) — the waiter should re-check its mailboxes.
    kicked: bool,
}

/// A wait-drain readiness queue: the reactor side of the
/// [`Transport::register_ready`] surface. Transports (via their
/// [`ReadySignal`]s) push tokens; one event loop drains them, sleeping on
/// the internal condvar when nothing is pending.
#[derive(Debug, Default)]
pub struct ReadySet {
    state: Mutex<ReadyState>,
    cv: Condvar,
}

impl ReadySet {
    /// An empty set.
    pub fn new() -> Self {
        ReadySet::default()
    }

    /// A signal that marks `token` ready when notified. Hand one to each
    /// connection's [`Transport::register_ready`].
    pub fn signal(self: &Arc<Self>, token: usize) -> ReadySignal {
        ReadySignal {
            set: Arc::clone(self),
            token,
        }
    }

    fn lock_state(&self) -> MutexGuard<'_, ReadyState> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Marks `token` ready and wakes the waiter.
    pub fn push(&self, token: usize) {
        let mut s = self.lock_state();
        s.ready.insert(token);
        self.cv.notify_all();
    }

    /// Requests a tokenless wakeup (the waiter should re-check whatever
    /// out-of-band mailboxes it watches).
    pub fn kick(&self) {
        let mut s = self.lock_state();
        s.kicked = true;
        self.cv.notify_all();
    }

    /// Drains the ready tokens, waiting up to `timeout` (`None` = forever)
    /// for the first event. Returns the ready tokens (ascending) and
    /// whether a [`kick`](Self::kick) was absorbed. A `Some(ZERO)` timeout
    /// polls without sleeping.
    pub fn drain_wait(&self, timeout: Option<Duration>) -> (Vec<usize>, bool) {
        let deadline = timeout.map(|t| Instant::now() + t);
        let mut s = self.lock_state();
        while s.ready.is_empty() && !s.kicked {
            match deadline {
                None => {
                    s = self.cv.wait(s).unwrap_or_else(PoisonError::into_inner);
                }
                Some(d) => {
                    let now = Instant::now();
                    if now >= d {
                        break;
                    }
                    let (guard, _) = self
                        .cv
                        .wait_timeout(s, d - now)
                        .unwrap_or_else(PoisonError::into_inner);
                    s = guard;
                }
            }
        }
        let kicked = std::mem::take(&mut s.kicked);
        (std::mem::take(&mut s.ready).into_iter().collect(), kicked)
    }
}

/// One connection's readiness callback: cloneable, send-safe, and cheap.
/// A transport that accepted one via [`Transport::register_ready`] calls
/// [`notify`](Self::notify) whenever bytes (or end-of-stream) become
/// readable — edge delivery into a level-consumed set, so duplicate
/// notifies coalesce.
#[derive(Clone, Debug)]
pub struct ReadySignal {
    set: Arc<ReadySet>,
    token: usize,
}

impl ReadySignal {
    /// Marks this connection ready in its owning [`ReadySet`].
    pub fn notify(&self) {
        self.set.push(self.token);
    }

    /// The token this signal marks ready.
    pub fn token(&self) -> usize {
        self.token
    }
}

/// A blocking, bidirectional byte stream between two endpoints.
///
/// Implementations must deliver bytes reliably and in order (the framing
/// layer detects corruption but cannot recover from it). `Ok(0)` from
/// [`read_some`](Self::read_some) means the peer closed the stream.
pub trait Transport: Send {
    /// Writes the whole buffer.
    fn write_all(&mut self, bytes: &[u8]) -> io::Result<()>;

    /// Reads at least one byte, blocking until data arrives; `Ok(0)`
    /// means end-of-stream (peer closed).
    fn read_some(&mut self, buf: &mut [u8]) -> io::Result<usize>;

    /// Reads whatever is available *now*: `Err(WouldBlock)` when nothing
    /// is pending, `Ok(0)` at end-of-stream. Used to drain flow-control
    /// replies opportunistically between sends.
    fn try_read(&mut self, buf: &mut [u8]) -> io::Result<usize>;

    /// [`read_some`](Self::read_some) with a deadline: blocks at most
    /// `timeout` for the first byte, then returns
    /// `Err(io::ErrorKind::TimedOut)` if nothing arrived. `Ok(0)` still
    /// means end-of-stream. This is what the client's deadline-bounded
    /// waits use so a silent peer cannot block the caller forever.
    fn read_timeout(&mut self, buf: &mut [u8], timeout: Duration) -> io::Result<usize>;

    /// Registers a readiness signal: the transport arranges for
    /// `signal.notify()` to fire whenever readable bytes (or end-of-
    /// stream) become available, and returns `true`. The default — and
    /// any transport that cannot deliver edge notifications — returns
    /// `false`, telling the caller to fall back to *probing*: periodic
    /// [`try_read`](Self::try_read) polls (level-triggered emulation).
    ///
    /// A `true` implementation must also notify immediately when data is
    /// already pending at registration time, so no edge is lost to the
    /// registration race.
    fn register_ready(&mut self, signal: ReadySignal) -> bool {
        let _ = signal;
        false
    }
}

/// An acceptor of inbound [`Transport`] connections.
pub trait Listener: Send {
    /// The connection type this listener produces.
    type Conn: Transport + 'static;

    /// Blocks until the next connection arrives.
    fn accept_conn(&mut self) -> io::Result<Self::Conn>;
}

// ---------------------------------------------------------------------------
// In-memory duplex
// ---------------------------------------------------------------------------

/// One direction of an in-memory duplex: a byte queue with a close flag.
#[derive(Debug, Default)]
struct PipeState {
    buf: VecDeque<u8>,
    closed: bool,
    /// Readiness signal of the reading endpoint's reactor, if registered:
    /// notified on every write and on close.
    waker: Option<ReadySignal>,
}

#[derive(Debug, Default)]
struct Pipe {
    state: Mutex<PipeState>,
    readable: Condvar,
}

impl Pipe {
    /// Locks the queue state, recovering a poisoned lock: the byte queue
    /// and close flag are consistent after every mutation, so a panic on
    /// one endpoint's thread must not also break its peer's stream.
    fn lock_state(&self) -> MutexGuard<'_, PipeState> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Copies up to `buf.len()` queued bytes out of `s` into `buf`.
    fn drain_into(s: &mut PipeState, buf: &mut [u8]) -> usize {
        let n = buf.len().min(s.buf.len());
        for (dst, src) in buf.iter_mut().zip(s.buf.drain(..n)) {
            *dst = src;
        }
        n
    }

    fn write(&self, bytes: &[u8]) -> io::Result<()> {
        let mut s = self.lock_state();
        if s.closed {
            return Err(io::Error::new(
                io::ErrorKind::BrokenPipe,
                "peer closed the in-memory stream",
            ));
        }
        s.buf.extend(bytes.iter().copied());
        self.readable.notify_all();
        if let Some(w) = &s.waker {
            w.notify();
        }
        Ok(())
    }

    fn read(&self, buf: &mut [u8], block: bool) -> io::Result<usize> {
        let mut s = self.lock_state();
        while s.buf.is_empty() {
            if s.closed {
                return Ok(0);
            }
            if !block {
                return Err(io::Error::new(
                    io::ErrorKind::WouldBlock,
                    "no bytes pending",
                ));
            }
            s = self
                .readable
                .wait(s)
                .unwrap_or_else(PoisonError::into_inner);
        }
        Ok(Self::drain_into(&mut s, buf))
    }

    fn read_deadline(&self, buf: &mut [u8], timeout: Duration) -> io::Result<usize> {
        let deadline = Instant::now() + timeout;
        let mut s = self.lock_state();
        while s.buf.is_empty() {
            if s.closed {
                return Ok(0);
            }
            let now = Instant::now();
            if now >= deadline {
                return Err(io::Error::new(
                    io::ErrorKind::TimedOut,
                    "no bytes within the read deadline",
                ));
            }
            let (guard, _) = self
                .readable
                .wait_timeout(s, deadline - now)
                .unwrap_or_else(PoisonError::into_inner);
            s = guard;
        }
        Ok(Self::drain_into(&mut s, buf))
    }

    fn close(&self) {
        let mut s = self.lock_state();
        s.closed = true;
        self.readable.notify_all();
        if let Some(w) = &s.waker {
            w.notify();
        }
    }

    /// Installs (or clears) the reading side's readiness signal,
    /// notifying immediately if bytes or EOF are already pending so the
    /// registration race loses no edge.
    fn set_waker(&self, waker: Option<ReadySignal>) {
        let mut s = self.lock_state();
        let pending = !s.buf.is_empty() || s.closed;
        if let (Some(w), true) = (&waker, pending) {
            w.notify();
        }
        s.waker = waker;
    }
}

/// One endpoint of a deterministic in-memory duplex connection.
///
/// Always available (no sockets, no OS permissions), reliable, ordered,
/// and unbounded — the reference transport the conformance tests and
/// benches run on. Dropping an endpoint closes both directions: the
/// peer's reads return end-of-stream and its writes fail with
/// `BrokenPipe`.
#[derive(Debug)]
pub struct MemoryStream {
    rx: Arc<Pipe>,
    tx: Arc<Pipe>,
}

impl Drop for MemoryStream {
    fn drop(&mut self) {
        self.rx.close();
        self.tx.close();
    }
}

impl Transport for MemoryStream {
    fn write_all(&mut self, bytes: &[u8]) -> io::Result<()> {
        self.tx.write(bytes)
    }

    fn read_some(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        self.rx.read(buf, true)
    }

    fn try_read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        self.rx.read(buf, false)
    }

    fn read_timeout(&mut self, buf: &mut [u8], timeout: Duration) -> io::Result<usize> {
        self.rx.read_deadline(buf, timeout)
    }

    fn register_ready(&mut self, signal: ReadySignal) -> bool {
        self.rx.set_waker(Some(signal));
        true
    }
}

/// A connected pair of [`MemoryStream`] endpoints (client, server).
pub fn memory_pair() -> (MemoryStream, MemoryStream) {
    let a = Arc::new(Pipe::default());
    let b = Arc::new(Pipe::default());
    (
        MemoryStream {
            rx: Arc::clone(&a),
            tx: Arc::clone(&b),
        },
        MemoryStream { rx: b, tx: a },
    )
}

/// The dial side of an in-memory hub: [`connect`](Self::connect) creates
/// a fresh duplex and hands the server end to the hub's
/// [`MemoryListener`]. Clone one per client thread.
#[derive(Clone, Debug)]
pub struct MemoryConnector {
    tx: Sender<MemoryStream>,
}

impl MemoryConnector {
    /// Establishes a new connection, returning the client endpoint.
    pub fn connect(&self) -> io::Result<MemoryStream> {
        let (client, server) = memory_pair();
        self.tx.send(server).map_err(|_| {
            io::Error::new(io::ErrorKind::ConnectionRefused, "memory listener closed")
        })?;
        Ok(client)
    }
}

/// The accept side of an in-memory hub.
#[derive(Debug)]
pub struct MemoryListener {
    rx: Receiver<MemoryStream>,
}

impl Listener for MemoryListener {
    type Conn = MemoryStream;

    fn accept_conn(&mut self) -> io::Result<MemoryStream> {
        self.rx.recv().map_err(|_| {
            io::Error::new(io::ErrorKind::BrokenPipe, "every memory connector dropped")
        })
    }
}

/// An in-memory connect/accept hub: many clients dial the connector, the
/// listener accepts them in dial order.
pub fn memory_hub() -> (MemoryConnector, MemoryListener) {
    let (tx, rx) = channel();
    (MemoryConnector { tx }, MemoryListener { rx })
}

// ---------------------------------------------------------------------------
// Loopback TCP
// ---------------------------------------------------------------------------

impl Transport for TcpStream {
    fn write_all(&mut self, bytes: &[u8]) -> io::Result<()> {
        io::Write::write_all(self, bytes)
    }

    fn read_some(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        io::Read::read(self, buf)
    }

    fn try_read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        self.set_nonblocking(true)?;
        let r = io::Read::read(self, buf);
        self.set_nonblocking(false)?;
        r
    }

    fn read_timeout(&mut self, buf: &mut [u8], timeout: Duration) -> io::Result<usize> {
        // A zero socket timeout means "block forever" to the OS — clamp
        // up so a zero/expired deadline still returns promptly.
        self.set_read_timeout(Some(timeout.max(Duration::from_millis(1))))?;
        let r = io::Read::read(self, buf);
        self.set_read_timeout(None)?;
        r.map_err(|e| {
            // Platforms disagree on the expiry kind; normalize to TimedOut.
            if e.kind() == io::ErrorKind::WouldBlock {
                io::Error::new(io::ErrorKind::TimedOut, e)
            } else {
                e
            }
        })
    }

    /// Loopback TCP has no edge-notification path in std (no epoll/kqueue
    /// without platform code, and this crate forbids `unsafe`), so TCP
    /// connections run in probe mode: the reactor level-polls them with
    /// [`Transport::try_read`] on its probe tick. Honest `false` beats a
    /// fake `true` that would strand the connection.
    fn register_ready(&mut self, signal: ReadySignal) -> bool {
        let _ = signal;
        false
    }
}

impl Listener for TcpListener {
    type Conn = TcpStream;

    fn accept_conn(&mut self) -> io::Result<TcpStream> {
        let (stream, _) = self.accept()?;
        // Frames are small relative to socket buffers; latency matters
        // more than coalescing for Busy/Credit round-trips.
        let _ = stream.set_nodelay(true);
        Ok(stream)
    }
}

/// Environment variable that force-disables the TCP binding (`1`/`true`)
/// even where loopback sockets work — for sandboxes that allow binding
/// but not traffic.
pub const TCP_DISABLE_ENV: &str = "PIANO_NET_DISABLE_TCP";

/// Binds a loopback TCP listener on an ephemeral port, or `None` where
/// sockets are unavailable (sandboxed environments) or disabled via
/// [`TCP_DISABLE_ENV`]. Callers degrade to the in-memory transport — the
/// suite must pass with no network stack at all.
pub fn tcp_loopback() -> Option<(TcpListener, SocketAddr)> {
    if let Ok(v) = std::env::var(TCP_DISABLE_ENV) {
        let v = v.trim();
        if v == "1" || v.eq_ignore_ascii_case("true") {
            return None;
        }
    }
    let listener = TcpListener::bind(("127.0.0.1", 0)).ok()?;
    let addr = listener.local_addr().ok()?;
    Some((listener, addr))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn memory_pair_moves_bytes_both_ways() {
        let (mut client, mut server) = memory_pair();
        client.write_all(b"ping").unwrap();
        let mut buf = [0u8; 16];
        assert_eq!(server.read_some(&mut buf).unwrap(), 4);
        assert_eq!(&buf[..4], b"ping");
        server.write_all(b"pong!").unwrap();
        assert_eq!(client.read_some(&mut buf).unwrap(), 5);
        assert_eq!(&buf[..5], b"pong!");
    }

    #[test]
    fn try_read_would_block_then_delivers() {
        let (mut client, mut server) = memory_pair();
        let mut buf = [0u8; 8];
        let err = server.try_read(&mut buf).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::WouldBlock);
        client.write_all(&[7, 8]).unwrap();
        assert_eq!(server.try_read(&mut buf).unwrap(), 2);
        assert_eq!(&buf[..2], &[7, 8]);
    }

    #[test]
    fn drop_closes_the_stream() {
        let (mut client, server) = memory_pair();
        drop(server);
        let mut buf = [0u8; 8];
        assert_eq!(client.read_some(&mut buf).unwrap(), 0, "EOF after drop");
        assert_eq!(
            client.write_all(b"x").unwrap_err().kind(),
            io::ErrorKind::BrokenPipe
        );
    }

    #[test]
    fn blocking_read_waits_for_a_writer_thread() {
        let (mut client, mut server) = memory_pair();
        let writer = std::thread::spawn(move || {
            client.write_all(b"later").unwrap();
            client // keep alive until the write lands
        });
        let mut buf = [0u8; 8];
        let n = server.read_some(&mut buf).unwrap();
        assert_eq!(&buf[..n], &b"later"[..n]);
        drop(writer.join().unwrap());
    }

    #[test]
    fn read_timeout_expires_then_delivers() {
        let (mut client, mut server) = memory_pair();
        let mut buf = [0u8; 8];
        let err = server
            .read_timeout(&mut buf, Duration::from_millis(5))
            .unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::TimedOut);
        client.write_all(&[1, 2, 3]).unwrap();
        let n = server
            .read_timeout(&mut buf, Duration::from_secs(5))
            .unwrap();
        assert_eq!(&buf[..n], &[1, 2, 3]);
        drop(client);
        assert_eq!(
            server
                .read_timeout(&mut buf, Duration::from_secs(5))
                .unwrap(),
            0,
            "EOF beats the deadline"
        );
    }

    #[test]
    fn memory_hub_accepts_in_dial_order() {
        let (connector, mut listener) = memory_hub();
        let mut c1 = connector.connect().unwrap();
        let mut c2 = connector.connect().unwrap();
        c1.write_all(b"one").unwrap();
        c2.write_all(b"two").unwrap();
        let mut buf = [0u8; 8];
        let mut s1 = listener.accept_conn().unwrap();
        let n = s1.read_some(&mut buf).unwrap();
        assert_eq!(&buf[..n], b"one");
        let mut s2 = listener.accept_conn().unwrap();
        let n = s2.read_some(&mut buf).unwrap();
        assert_eq!(&buf[..n], b"two");
    }

    #[test]
    fn tcp_loopback_roundtrip_or_skip() {
        let Some((mut listener, addr)) = tcp_loopback() else {
            eprintln!("skipping: loopback TCP unavailable here");
            return;
        };
        let client = std::thread::spawn(move || {
            let mut s = TcpStream::connect(addr).expect("connect loopback");
            s.write_all(b"tcp ping").unwrap();
            let mut buf = [0u8; 16];
            let n = s.read_some(&mut buf).unwrap();
            assert_eq!(&buf[..n], b"ack");
        });
        let mut conn = listener.accept_conn().unwrap();
        let mut buf = [0u8; 16];
        let n = conn.read_some(&mut buf).unwrap();
        assert_eq!(&buf[..n], b"tcp ping");
        conn.write_all(b"ack").unwrap();
        client.join().unwrap();
    }
}
