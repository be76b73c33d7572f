//! The real emulation client (§3.3).
//!
//! [`EmuClient`] speaks the `poem-proto` protocol over any blocking byte
//! stream — a `TcpStream` in a deployed emulation, an in-memory pipe in
//! tests. On connect it registers its VMN identity; [`EmuClient::sync_clock`]
//! runs the Fig. 5 handshake and steps the local emulation clock; every
//! [`EmuClient::send`] packs and **time-stamps the packet locally** against
//! that clock before shipping it — the parallel time-stamping that makes
//! PoEm's traffic recording real-time.

use crate::nic::{radio_for, Nic};
use bytes::Bytes;
use crossbeam::channel::{bounded, unbounded, Receiver, RecvTimeoutError, Sender};
use parking_lot::Mutex;
use poem_core::clock::Clock;
use poem_core::packet::Destination;
use poem_core::radio::RadioConfig;
use poem_core::{ChannelId, EmuDuration, EmuPacket, EmuTime, NodeId, PacketId};
use poem_obs::{Counter, Gauge, MetricsSnapshot, Registry};
use poem_proto::messages::{finish_sync, ClientMsg, ServerMsg, PROTOCOL_VERSION};
use poem_proto::{MsgReader, MsgWriter};
use std::fmt;
use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

/// Client-side failures.
#[derive(Debug)]
pub enum ClientError {
    /// Transport failure.
    Io(std::io::Error),
    /// The server refused the registration.
    Refused(String),
    /// The peer violated the protocol.
    Protocol(String),
    /// The connection is closed.
    Closed,
}

impl fmt::Display for ClientError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ClientError::Io(e) => write!(f, "i/o error: {e}"),
            ClientError::Refused(r) => write!(f, "registration refused: {r}"),
            ClientError::Protocol(m) => write!(f, "protocol violation: {m}"),
            ClientError::Closed => write!(f, "connection closed"),
        }
    }
}

impl std::error::Error for ClientError {}

impl From<std::io::Error> for ClientError {
    fn from(e: std::io::Error) -> Self {
        ClientError::Io(e)
    }
}

/// A connected emulation client.
pub struct EmuClient {
    node: NodeId,
    radios: RadioConfig,
    clock: Arc<dyn Clock>,
    writer: Mutex<Box<dyn WriteSend>>,
    inbound: Receiver<(EmuPacket, EmuTime)>,
    sync_replies: Receiver<(EmuTime, EmuTime)>,
    closed: Arc<AtomicBool>,
    next_seq: AtomicU64,
    reader_handle: Option<JoinHandle<()>>,
    registry: Arc<Registry>,
    sync_rounds: Arc<Counter>,
    clock_offset_ns: Arc<Gauge>,
}

/// Object-safe writer facade so [`EmuClient`] (and the mux client) is not
/// generic over the transport.
pub(crate) trait WriteSend: Send {
    fn send_msg(&mut self, msg: &ClientMsg) -> std::io::Result<()>;
}

impl<W: Write + Send> WriteSend for MsgWriter<W> {
    fn send_msg(&mut self, msg: &ClientMsg) -> std::io::Result<()> {
        self.send(msg)
    }
}

impl EmuClient {
    /// Connects over an arbitrary byte-stream pair and registers as
    /// `node`. Blocks until the server answers the registration.
    pub fn connect<R, W>(
        reader: R,
        writer: W,
        node: NodeId,
        radios: RadioConfig,
        clock: Arc<dyn Clock>,
    ) -> Result<Self, ClientError>
    where
        R: Read + Send + 'static,
        W: Write + Send + 'static,
    {
        let mut msg_reader = MsgReader::new(reader);
        let mut msg_writer = MsgWriter::new(writer);
        msg_writer.send(&ClientMsg::hello(node))?;
        match msg_reader.recv::<ServerMsg>()? {
            ServerMsg::Welcome { version, node: n, .. } => {
                if version != PROTOCOL_VERSION {
                    return Err(ClientError::Protocol(format!(
                        "server speaks protocol v{version}, client v{PROTOCOL_VERSION}"
                    )));
                }
                if n != node {
                    return Err(ClientError::Protocol(format!("welcomed as {n}, expected {node}")));
                }
            }
            ServerMsg::Refused { reason } => return Err(ClientError::Refused(reason)),
            other => return Err(ClientError::Protocol(format!("expected Welcome, got {other:?}"))),
        }

        let (inbound_tx, inbound_rx) = unbounded();
        let (sync_tx, sync_rx) = bounded(4);
        let closed = Arc::new(AtomicBool::new(false));
        let reader_handle =
            Some(spawn_reader(msg_reader, inbound_tx, sync_tx, Arc::clone(&closed)));

        let registry = Arc::new(Registry::new());
        let sync_rounds = registry.counter("poem_client_sync_rounds_total");
        let clock_offset_ns = registry.gauge("poem_client_clock_offset_ns");

        Ok(EmuClient {
            node,
            radios,
            clock,
            writer: Mutex::new(Box::new(msg_writer)),
            inbound: inbound_rx,
            sync_replies: sync_rx,
            closed,
            next_seq: AtomicU64::new(0),
            reader_handle,
            registry,
            sync_rounds,
            clock_offset_ns,
        })
    }

    /// Connects over TCP.
    pub fn connect_tcp(
        addr: impl std::net::ToSocketAddrs,
        node: NodeId,
        radios: RadioConfig,
        clock: Arc<dyn Clock>,
    ) -> Result<Self, ClientError> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        let reader = stream.try_clone()?;
        Self::connect(reader, stream, node, radios, clock)
    }

    /// Connects over TCP, retrying transport failures on `backoff`'s
    /// schedule — the reconnect path after a server restart or an injected
    /// disconnect. Only [`ClientError::Io`] is retried; a `Refused` or
    /// protocol error is a permanent answer and returns immediately. On
    /// success the backoff is reset so the caller can reuse it for the
    /// next outage.
    pub fn connect_tcp_with_retry(
        addr: impl std::net::ToSocketAddrs + Clone,
        node: NodeId,
        radios: RadioConfig,
        clock: Arc<dyn Clock>,
        backoff: &mut crate::backoff::Backoff,
    ) -> Result<Self, ClientError> {
        loop {
            match Self::connect_tcp(addr.clone(), node, radios.clone(), Arc::clone(&clock)) {
                Ok(client) => {
                    backoff.reset();
                    return Ok(client);
                }
                Err(ClientError::Io(e)) => match backoff.next_delay() {
                    Some(delay) => std::thread::sleep(delay),
                    None => return Err(ClientError::Io(e)),
                },
                Err(permanent) => return Err(permanent),
            }
        }
    }

    /// The VMN identity.
    pub fn node(&self) -> NodeId {
        self.node
    }

    /// The local emulation clock.
    pub fn clock(&self) -> &Arc<dyn Clock> {
        &self.clock
    }

    /// True once the server has shut the connection down.
    pub fn is_closed(&self) -> bool {
        self.closed.load(Ordering::Acquire)
    }

    /// Runs `rounds` Fig. 5 synchronization rounds against the server,
    /// applying each estimated offset to the local clock (§4.1: "each
    /// client synchronizes its emulation clock with the server clock when
    /// initializing the connection"; the frequency of later rounds "is
    /// determined by the user"). Returns the offset applied by the last
    /// round.
    pub fn sync_clock(&self, rounds: usize) -> Result<EmuDuration, ClientError> {
        let mut last = EmuDuration::ZERO;
        for _ in 0..rounds {
            let t_c1 = self.clock.now();
            self.writer.lock().send_msg(&ClientMsg::SyncRequest { t_c1 })?;
            let (t_s3, echo) = self
                .sync_replies
                .recv_timeout(Duration::from_secs(10))
                .map_err(|_| ClientError::Closed)?;
            let t_c4 = self.clock.now();
            let (_t_s4, offset) = finish_sync(t_s3, echo, t_c4);
            self.clock.adjust(offset);
            self.sync_rounds.inc();
            self.clock_offset_ns.set(offset.as_nanos());
            last = offset;
        }
        Ok(last)
    }

    /// A point-in-time snapshot of the client's own metrics: completed
    /// Fig. 5 sync round-trips and the most recent estimated clock offset
    /// (`poem_client_clock_offset_ns`).
    pub fn metrics(&self) -> MetricsSnapshot {
        self.registry.snapshot()
    }

    /// Spawns a background thread re-running the Fig. 5 handshake every
    /// `interval` — §4.1: "How to set the synchronization frequency is
    /// determined by the user in consideration of the emulation duration,
    /// client homogeneity and real-time requirements." The thread stops
    /// when the connection closes or the returned guard is dropped.
    pub fn periodic_sync(self: &Arc<Self>, interval: Duration) -> PeriodicSync {
        let stop = Arc::new(AtomicBool::new(false));
        let stop2 = Arc::clone(&stop);
        let client = Arc::clone(self);
        let handle = std::thread::Builder::new()
            .name("poem-clock-sync".into())
            .spawn(move || {
                while !stop2.load(Ordering::Acquire) && !client.is_closed() {
                    std::thread::sleep(interval);
                    if client.sync_clock(1).is_err() {
                        break;
                    }
                }
            })
            .expect("spawn sync thread");
        PeriodicSync { stop, handle: Some(handle) }
    }

    fn alloc_id(&self) -> PacketId {
        let seq = self.next_seq.fetch_add(1, Ordering::Relaxed);
        PacketId(((self.node.0 as u64) << 40) | seq)
    }

    /// Packs, time-stamps and sends a payload on `channel`. Returns `None`
    /// if no local radio is tuned to `channel`.
    pub fn send(
        &self,
        channel: ChannelId,
        dst: Destination,
        payload: Bytes,
    ) -> Result<Option<PacketId>, ClientError> {
        let Some(radio) = radio_for(&self.radios, channel) else {
            return Ok(None);
        };
        let id = self.alloc_id();
        let pkt = EmuPacket::new(id, self.node, dst, channel, radio, self.clock.now(), payload);
        self.writer.lock().send_msg(&ClientMsg::Data(pkt))?;
        Ok(Some(id))
    }

    /// Non-blocking receive: the next delivered packet with the server's
    /// forward timestamp, if one is queued.
    pub fn try_recv(&self) -> Option<(EmuPacket, EmuTime)> {
        self.inbound.try_recv().ok()
    }

    /// Blocking receive with a timeout.
    pub fn recv_timeout(&self, timeout: Duration) -> Result<(EmuPacket, EmuTime), ClientError> {
        self.inbound.recv_timeout(timeout).map_err(|e| match e {
            RecvTimeoutError::Timeout => ClientError::Closed,
            RecvTimeoutError::Disconnected => ClientError::Closed,
        })
    }

    /// Sends `Bye` and tears the connection down.
    pub fn close(mut self) -> Result<(), ClientError> {
        let _ = self.writer.lock().send_msg(&ClientMsg::Bye);
        self.closed.store(true, Ordering::Release);
        if let Some(h) = self.reader_handle.take() {
            // The reader exits when the server closes our stream in
            // response to Bye (or on EOF).
            let _ = h.join();
        }
        Ok(())
    }
}

/// Guard for a background resynchronization thread; dropping it stops
/// the thread.
pub struct PeriodicSync {
    stop: Arc<AtomicBool>,
    handle: Option<std::thread::JoinHandle<()>>,
}

impl Drop for PeriodicSync {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Release);
        if let Some(h) = self.handle.take() {
            let _ = h.join();
        }
    }
}

impl fmt::Debug for PeriodicSync {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("PeriodicSync").field("stopped", &self.stop.load(Ordering::Acquire)).finish()
    }
}

impl fmt::Debug for EmuClient {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("EmuClient")
            .field("node", &self.node)
            .field("radios", &self.radios)
            .field("closed", &self.is_closed())
            .finish_non_exhaustive()
    }
}

impl Drop for EmuClient {
    fn drop(&mut self) {
        self.closed.store(true, Ordering::Release);
        let _ = self.writer.lock().send_msg(&ClientMsg::Bye);
    }
}

impl Nic for EmuClient {
    fn node(&self) -> NodeId {
        self.node
    }
    fn radios(&self) -> &RadioConfig {
        &self.radios
    }
    fn send(&mut self, channel: ChannelId, dst: Destination, payload: Bytes) -> Option<PacketId> {
        EmuClient::send(self, channel, dst, payload).ok().flatten()
    }
    fn poll(&mut self) -> Option<EmuPacket> {
        self.try_recv().map(|(pkt, _)| pkt)
    }
    fn now(&self) -> EmuTime {
        self.clock.now()
    }
}

fn spawn_reader<R: Read + Send + 'static>(
    mut reader: MsgReader<R>,
    inbound: Sender<(EmuPacket, EmuTime)>,
    sync: Sender<(EmuTime, EmuTime)>,
    closed: Arc<AtomicBool>,
) -> JoinHandle<()> {
    std::thread::Builder::new()
        .name("poem-client-reader".into())
        .spawn(move || loop {
            match reader.recv::<ServerMsg>() {
                Ok(ServerMsg::Deliver { packet, forwarded_at }) => {
                    if inbound.send((packet, forwarded_at)).is_err() {
                        break;
                    }
                }
                Ok(ServerMsg::SyncReply { t_s3, echo }) => {
                    let _ = sync.send((t_s3, echo));
                }
                Ok(ServerMsg::Shutdown) => {
                    closed.store(true, Ordering::Release);
                    break;
                }
                Ok(
                    ServerMsg::MuxWelcome { .. }
                    | ServerMsg::Attached { .. }
                    | ServerMsg::AttachRefused { .. }
                    | ServerMsg::Detached { .. }
                    | ServerMsg::DeliverTo { .. }
                    | ServerMsg::DeliverMany { .. },
                ) => {
                    // Mux-family frames belong to `MuxClient` connections; a
                    // legacy session never negotiated them — drop the frame.
                }
                Ok(_) => { /* late Welcome/Refused: ignore */ }
                Err(_) => {
                    closed.store(true, Ordering::Release);
                    break;
                }
            }
        })
        .expect("spawn reader thread")
}

#[cfg(test)]
mod tests {
    use super::*;
    use poem_core::clock::VirtualClock;
    use poem_core::RadioId;
    use poem_proto::pipe::duplex;
    use std::thread;

    /// Spins up a minimal scripted "server" on the other end of a pipe.
    fn scripted_server<F>(
        script: F,
    ) -> ((impl Read + Send + 'static, impl Write + Send + 'static), thread::JoinHandle<()>)
    where
        F: FnOnce(MsgReader<poem_proto::pipe::PipeReader>, MsgWriter<poem_proto::pipe::PipeWriter>)
            + Send
            + 'static,
    {
        let ((cw, cr), (sw, sr)) = duplex();
        let handle = thread::spawn(move || {
            script(MsgReader::new(sr), MsgWriter::new(sw));
        });
        ((cr, cw), handle)
    }

    fn welcome(node: NodeId) -> ServerMsg {
        ServerMsg::Welcome { version: PROTOCOL_VERSION, node, server_time: EmuTime::ZERO }
    }

    #[test]
    fn connect_handshake_succeeds() {
        let ((r, w), h) = scripted_server(|mut rx, mut tx| {
            match rx.recv::<ClientMsg>().unwrap() {
                ClientMsg::Hello { version, node } => {
                    assert_eq!(version, PROTOCOL_VERSION);
                    tx.send(&welcome(node)).unwrap();
                }
                other => panic!("{other:?}"),
            }
            // Wait for Bye.
            loop {
                match rx.recv::<ClientMsg>() {
                    Ok(ClientMsg::Bye) | Err(_) => break,
                    _ => {}
                }
            }
        });
        let clock: Arc<dyn Clock> = Arc::new(VirtualClock::new());
        let client =
            EmuClient::connect(r, w, NodeId(3), RadioConfig::single(ChannelId(1), 100.0), clock)
                .unwrap();
        assert_eq!(client.node(), NodeId(3));
        client.close().unwrap();
        h.join().unwrap();
    }

    #[test]
    fn refused_registration_is_an_error() {
        let ((r, w), h) = scripted_server(|mut rx, mut tx| {
            let _ = rx.recv::<ClientMsg>().unwrap();
            tx.send(&ServerMsg::Refused { reason: "duplicate".into() }).unwrap();
        });
        let clock: Arc<dyn Clock> = Arc::new(VirtualClock::new());
        let err = EmuClient::connect(r, w, NodeId(3), RadioConfig::none(), clock).unwrap_err();
        assert!(matches!(err, ClientError::Refused(ref s) if s == "duplicate"), "{err}");
        h.join().unwrap();
    }

    #[test]
    fn send_timestamps_and_frames_packets() {
        let ((r, w), h) = scripted_server(|mut rx, mut tx| {
            match rx.recv::<ClientMsg>().unwrap() {
                ClientMsg::Hello { node, .. } => tx.send(&welcome(node)).unwrap(),
                other => panic!("{other:?}"),
            }
            match rx.recv::<ClientMsg>().unwrap() {
                ClientMsg::Data(pkt) => {
                    assert_eq!(pkt.src, NodeId(1));
                    assert_eq!(pkt.channel, ChannelId(2));
                    assert_eq!(pkt.radio, RadioId(1));
                    assert_eq!(pkt.sent_at, EmuTime::from_millis(777));
                    assert_eq!(&pkt.payload[..], b"data");
                }
                other => panic!("{other:?}"),
            }
        });
        let clock = Arc::new(VirtualClock::new());
        clock.advance_to(EmuTime::from_millis(777));
        let client = EmuClient::connect(
            r,
            w,
            NodeId(1),
            RadioConfig::multi(&[ChannelId(1), ChannelId(2)], 100.0),
            clock,
        )
        .unwrap();
        let id =
            client.send(ChannelId(2), Destination::Broadcast, Bytes::from_static(b"data")).unwrap();
        assert!(id.is_some());
        // Untuned channel:
        let none = client.send(ChannelId(9), Destination::Broadcast, Bytes::new()).unwrap();
        assert!(none.is_none());
        drop(client);
        h.join().unwrap();
    }

    #[test]
    fn deliveries_reach_try_recv() {
        let ((r, w), h) = scripted_server(|mut rx, mut tx| {
            match rx.recv::<ClientMsg>().unwrap() {
                ClientMsg::Hello { node, .. } => tx.send(&welcome(node)).unwrap(),
                other => panic!("{other:?}"),
            }
            let pkt = EmuPacket::new(
                PacketId(5),
                NodeId(9),
                Destination::Unicast(NodeId(1)),
                ChannelId(1),
                RadioId(0),
                EmuTime::from_millis(1),
                Bytes::from_static(b"hi"),
            );
            tx.send(&ServerMsg::Deliver { packet: pkt, forwarded_at: EmuTime::from_millis(2) })
                .unwrap();
        });
        let clock: Arc<dyn Clock> = Arc::new(VirtualClock::new());
        let client =
            EmuClient::connect(r, w, NodeId(1), RadioConfig::single(ChannelId(1), 100.0), clock)
                .unwrap();
        let (pkt, fwd_at) = client.recv_timeout(Duration::from_secs(5)).unwrap();
        assert_eq!(pkt.id, PacketId(5));
        assert_eq!(fwd_at, EmuTime::from_millis(2));
        assert!(client.try_recv().is_none());
        drop(client);
        h.join().unwrap();
    }

    #[test]
    fn sync_clock_applies_offset() {
        // Server whose emulation clock is exactly 60 s ahead; instant pipe
        // (≈0 transport delay) → after sync the client clock reads ~60 s.
        let ((r, w), h) = scripted_server(move |mut rx, mut tx| {
            match rx.recv::<ClientMsg>().unwrap() {
                ClientMsg::Hello { node, .. } => tx.send(&welcome(node)).unwrap(),
                other => panic!("{other:?}"),
            }
            match rx.recv::<ClientMsg>().unwrap() {
                ClientMsg::SyncRequest { t_c1 } => {
                    let server_now = t_c1 + EmuDuration::from_secs(60);
                    let reply = ServerMsg::sync_reply(t_c1, server_now, server_now);
                    tx.send(&reply).unwrap();
                }
                other => panic!("{other:?}"),
            }
        });
        let clock = Arc::new(VirtualClock::starting_at(EmuTime::from_secs(10)));
        let client = EmuClient::connect(
            r,
            w,
            NodeId(1),
            RadioConfig::single(ChannelId(1), 100.0),
            Arc::clone(&clock) as Arc<dyn Clock>,
        )
        .unwrap();
        let offset = client.sync_clock(1).unwrap();
        assert_eq!(offset, EmuDuration::from_secs(60));
        assert_eq!(clock.now(), EmuTime::from_secs(70));
        let snap = client.metrics();
        assert!(!snap.is_empty());
        assert_eq!(snap.counter("poem_client_sync_rounds_total"), Some(1));
        assert_eq!(snap.gauge("poem_client_clock_offset_ns"), Some(60_000_000_000));
        drop(client);
        h.join().unwrap();
    }

    #[test]
    fn server_shutdown_marks_closed() {
        let ((r, w), h) = scripted_server(|mut rx, mut tx| {
            match rx.recv::<ClientMsg>().unwrap() {
                ClientMsg::Hello { node, .. } => tx.send(&welcome(node)).unwrap(),
                other => panic!("{other:?}"),
            }
            tx.send(&ServerMsg::Shutdown).unwrap();
        });
        let clock: Arc<dyn Clock> = Arc::new(VirtualClock::new());
        let client =
            EmuClient::connect(r, w, NodeId(1), RadioConfig::single(ChannelId(1), 100.0), clock)
                .unwrap();
        h.join().unwrap();
        // Reader thread observes Shutdown promptly.
        for _ in 0..100 {
            if client.is_closed() {
                break;
            }
            thread::sleep(Duration::from_millis(5));
        }
        assert!(client.is_closed());
    }
}
