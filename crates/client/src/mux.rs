//! Multiplexed client: many emulated nodes over one socket.
//!
//! [`EmuClient`](crate::EmuClient) costs one TCP connection (and a reader
//! thread) per VMN, which caps how many nodes one host can emulate. A
//! [`MuxClient`] opens a single connection, registers with `MuxHello`,
//! and hosts any number of **virtual sessions** ([`MuxSession`]) on it —
//! each attached with [`MuxClient::attach`], carrying its own VMN
//! identity, packet-id space and inbound delivery queue. One background
//! reader demultiplexes the socket: `DeliverTo` frames route to their
//! session's queue, `DeliverMany` frames fan one packet out to every
//! listed session (the payload is shared, not copied), attach replies
//! pair FIFO with pipelined `Attach` requests, and clock synchronization is shared connection-wide (all
//! sessions ride the same host clock).
//!
//! [`crate::ClientError`] is reused verbatim; the transport is any
//! blocking `Read`/`Write` pair, exactly like the legacy client.

use crate::client::{ClientError, WriteSend};
use crate::nic::radio_for;
use bytes::Bytes;
use crossbeam::channel::{bounded, unbounded, Receiver, RecvTimeoutError, Sender};
use parking_lot::Mutex;
use poem_core::clock::Clock;
use poem_core::packet::Destination;
use poem_core::radio::RadioConfig;
use poem_core::{ChannelId, EmuDuration, EmuPacket, EmuTime, NodeId, PacketId};
use poem_proto::messages::{finish_sync, ClientMsg, ServerMsg, PROTOCOL_VERSION};
use poem_proto::{MsgReader, MsgWriter};
use std::collections::BTreeMap;
use std::fmt;
use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

/// How long an attach or sync round waits for its reply before giving up.
const REPLY_TIMEOUT: Duration = Duration::from_secs(10);

/// Outcome of one pipelined attach, as the reader thread pairs replies.
type AttachReply = Result<NodeId, (NodeId, String)>;

/// State shared between the handle, its sessions and the reader thread.
struct MuxInner {
    clock: Arc<dyn Clock>,
    writer: Mutex<Box<dyn WriteSend>>,
    /// Inbound routing table: VMN → its session's delivery queue.
    sessions: Mutex<BTreeMap<NodeId, Sender<(EmuPacket, EmuTime)>>>,
    /// Serializes attach pipelines so FIFO replies pair with the right
    /// requests even when two threads attach concurrently.
    attach_mx: Mutex<()>,
    attach_replies: Receiver<AttachReply>,
    sync_replies: Receiver<(EmuTime, EmuTime)>,
    closed: AtomicBool,
}

/// A connection hosting many virtual sessions.
pub struct MuxClient {
    inner: Arc<MuxInner>,
    reader_handle: Option<JoinHandle<()>>,
}

impl MuxClient {
    /// Connects over an arbitrary byte-stream pair and performs the
    /// `MuxHello`/`MuxWelcome` handshake. No sessions exist yet; attach
    /// them with [`MuxClient::attach`] or [`MuxClient::attach_many`].
    pub fn connect<R, W>(reader: R, writer: W, clock: Arc<dyn Clock>) -> Result<Self, ClientError>
    where
        R: Read + Send + 'static,
        W: Write + Send + 'static,
    {
        let mut msg_reader = MsgReader::new(reader);
        let mut msg_writer = MsgWriter::new(writer);
        msg_writer.send(&ClientMsg::mux_hello())?;
        match msg_reader.recv::<ServerMsg>()? {
            ServerMsg::MuxWelcome { version, .. } => {
                if version != PROTOCOL_VERSION {
                    return Err(ClientError::Protocol(format!(
                        "server speaks protocol v{version}, client v{PROTOCOL_VERSION}"
                    )));
                }
            }
            ServerMsg::Refused { reason } => return Err(ClientError::Refused(reason)),
            other => {
                return Err(ClientError::Protocol(format!("expected MuxWelcome, got {other:?}")))
            }
        }

        let (attach_tx, attach_rx) = unbounded();
        let (sync_tx, sync_rx) = bounded(4);
        let inner = Arc::new(MuxInner {
            clock,
            writer: Mutex::new(Box::new(msg_writer)),
            sessions: Mutex::new(BTreeMap::new()),
            attach_mx: Mutex::new(()),
            attach_replies: attach_rx,
            sync_replies: sync_rx,
            closed: AtomicBool::new(false),
        });
        let reader_handle =
            Some(spawn_mux_reader(msg_reader, Arc::clone(&inner), attach_tx, sync_tx)?);
        Ok(MuxClient { inner, reader_handle })
    }

    /// Connects over TCP.
    pub fn connect_tcp(
        addr: impl std::net::ToSocketAddrs,
        clock: Arc<dyn Clock>,
    ) -> Result<Self, ClientError> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        let reader = stream.try_clone()?;
        Self::connect(reader, stream, clock)
    }

    /// Opens one virtual session for `node`.
    pub fn attach(&self, node: NodeId, radios: RadioConfig) -> Result<MuxSession, ClientError> {
        self.attach_many(&[(node, radios)])?
            .pop()
            .ok_or_else(|| ClientError::Protocol("attach reply vanished".into()))
    }

    /// Opens many virtual sessions with one pipelined burst: every
    /// `Attach` goes out back-to-back, then the FIFO replies are
    /// collected — one round-trip of latency for the whole batch, which
    /// is what makes attaching tens of thousands of sessions practical.
    /// Fails atomically on the first refusal (already-opened sessions
    /// from the same batch stay attached and are returned on success
    /// only).
    pub fn attach_many(
        &self,
        nodes: &[(NodeId, RadioConfig)],
    ) -> Result<Vec<MuxSession>, ClientError> {
        let _pipeline = self.inner.attach_mx.lock();
        // Register the inbound routes *before* the requests go out: the
        // server may deliver to a session the instant it attaches, and a
        // route installed only after the reply pairs would drop that
        // delivery on the floor.
        let mut queues = Vec::with_capacity(nodes.len());
        let mut inserted = Vec::with_capacity(nodes.len());
        {
            let mut sessions = self.inner.sessions.lock();
            for (node, _) in nodes {
                let (tx, rx) = unbounded();
                // A node already attached locally keeps its existing
                // route (the server will refuse the duplicate and fail
                // the batch); only routes this batch created may be
                // rolled back.
                if let std::collections::btree_map::Entry::Vacant(v) = sessions.entry(*node) {
                    v.insert(tx);
                    inserted.push(*node);
                }
                queues.push(rx);
            }
        }
        let rollback = |batch: &[NodeId]| {
            let mut sessions = self.inner.sessions.lock();
            for node in batch {
                sessions.remove(node);
            }
        };
        {
            let mut writer = self.inner.writer.lock();
            for (node, _) in nodes {
                // poem-lint: allow(blocking_under_lock): the attach mutex exists to serialize the pipelined attach round-trip
                if let Err(e) = writer.send_msg(&ClientMsg::Attach { node: *node }) {
                    drop(writer);
                    rollback(&inserted);
                    return Err(e.into());
                }
            }
        }
        let mut sessions = Vec::with_capacity(nodes.len());
        for ((node, radios), inbound) in nodes.iter().zip(queues) {
            // poem-lint: allow(blocking_under_lock): the attach mutex exists to serialize the pipelined attach round-trip
            let reply = self.inner.attach_replies.recv_timeout(REPLY_TIMEOUT);
            let failure = match reply {
                Ok(Ok(got)) if got == *node => {
                    sessions.push(MuxSession {
                        node: *node,
                        radios: radios.clone(),
                        inner: Arc::clone(&self.inner),
                        inbound,
                        next_seq: AtomicU64::new(0),
                    });
                    continue;
                }
                Ok(Ok(got)) => ClientError::Protocol(format!(
                    "attach replies out of order: expected {node}, got {got}"
                )),
                Ok(Err((_, reason))) => ClientError::Refused(reason),
                Err(_) => ClientError::Closed,
            };
            // Fail the whole batch: detach the sessions that did open and
            // tear every route from this batch back out.
            let mut writer = self.inner.writer.lock();
            for opened in &sessions {
                // poem-lint: allow(blocking_under_lock): the attach mutex exists to serialize the pipelined attach round-trip
                let _ = writer.send_msg(&ClientMsg::Detach { node: opened.node });
            }
            drop(writer);
            rollback(&inserted);
            return Err(failure);
        }
        Ok(sessions)
    }

    /// Currently attached virtual sessions.
    pub fn session_count(&self) -> usize {
        self.inner.sessions.lock().len()
    }

    /// True once the server has shut the connection down.
    pub fn is_closed(&self) -> bool {
        self.inner.closed.load(Ordering::Acquire)
    }

    /// The connection's shared emulation clock.
    pub fn clock(&self) -> &Arc<dyn Clock> {
        &self.inner.clock
    }

    /// Runs `rounds` Fig. 5 synchronization rounds against the server.
    /// One clock serves every session on the connection — the VMNs share
    /// a host, so they share its time base.
    pub fn sync_clock(&self, rounds: usize) -> Result<EmuDuration, ClientError> {
        let mut last = EmuDuration::ZERO;
        for _ in 0..rounds {
            let t_c1 = self.inner.clock.now();
            self.inner.writer.lock().send_msg(&ClientMsg::SyncRequest { t_c1 })?;
            let (t_s3, echo) = self
                .inner
                .sync_replies
                .recv_timeout(REPLY_TIMEOUT)
                .map_err(|_| ClientError::Closed)?;
            let t_c4 = self.inner.clock.now();
            let (_t_s4, offset) = finish_sync(t_s3, echo, t_c4);
            self.inner.clock.adjust(offset);
            last = offset;
        }
        Ok(last)
    }

    /// Sends `Bye` and tears the connection (and every session) down.
    pub fn close(mut self) -> Result<(), ClientError> {
        let _ = self.inner.writer.lock().send_msg(&ClientMsg::Bye);
        self.inner.closed.store(true, Ordering::Release);
        if let Some(h) = self.reader_handle.take() {
            let _ = h.join();
        }
        Ok(())
    }
}

impl Drop for MuxClient {
    fn drop(&mut self) {
        self.inner.closed.store(true, Ordering::Release);
        let _ = self.inner.writer.lock().send_msg(&ClientMsg::Bye);
    }
}

impl fmt::Debug for MuxClient {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("MuxClient")
            .field("sessions", &self.session_count())
            .field("closed", &self.is_closed())
            .finish_non_exhaustive()
    }
}

/// One virtual session on a [`MuxClient`]: a VMN identity with its own
/// packet-id space and delivery queue, sharing the connection's transport
/// and clock.
pub struct MuxSession {
    node: NodeId,
    radios: RadioConfig,
    inner: Arc<MuxInner>,
    inbound: Receiver<(EmuPacket, EmuTime)>,
    next_seq: AtomicU64,
}

impl MuxSession {
    /// The session's VMN identity.
    pub fn node(&self) -> NodeId {
        self.node
    }

    fn alloc_id(&self) -> PacketId {
        let seq = self.next_seq.fetch_add(1, Ordering::Relaxed);
        PacketId(((self.node.0 as u64) << 40) | seq)
    }

    /// Packs, time-stamps (against the shared connection clock) and sends
    /// a payload on `channel`. Returns `None` if no session radio is
    /// tuned to `channel`.
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
        let pkt =
            EmuPacket::new(id, self.node, dst, channel, radio, self.inner.clock.now(), payload);
        self.inner.writer.lock().send_msg(&ClientMsg::Data(pkt))?;
        Ok(Some(id))
    }

    /// Non-blocking receive: the next packet delivered to this session.
    pub fn try_recv(&self) -> Option<(EmuPacket, EmuTime)> {
        self.inbound.try_recv().ok()
    }

    /// Blocking receive with a timeout.
    pub fn recv_timeout(&self, timeout: Duration) -> Result<(EmuPacket, EmuTime), ClientError> {
        self.inbound.recv_timeout(timeout).map_err(|e| match e {
            RecvTimeoutError::Timeout | RecvTimeoutError::Disconnected => ClientError::Closed,
        })
    }

    /// Closes this virtual session; the connection and its sibling
    /// sessions stay up.
    pub fn detach(self) -> Result<(), ClientError> {
        self.inner.sessions.lock().remove(&self.node);
        self.inner.writer.lock().send_msg(&ClientMsg::Detach { node: self.node })?;
        Ok(())
    }
}

impl fmt::Debug for MuxSession {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("MuxSession").field("node", &self.node).finish_non_exhaustive()
    }
}

fn spawn_mux_reader<R: Read + Send + 'static>(
    mut reader: MsgReader<R>,
    inner: Arc<MuxInner>,
    attach_tx: Sender<AttachReply>,
    sync_tx: Sender<(EmuTime, EmuTime)>,
) -> std::io::Result<JoinHandle<()>> {
    std::thread::Builder::new().name("poem-mux-reader".into()).spawn(move || loop {
        match reader.recv::<ServerMsg>() {
            Ok(ServerMsg::DeliverTo { to, packet, forwarded_at }) => {
                let tx = inner.sessions.lock().get(&to).cloned();
                if let Some(tx) = tx {
                    let _ = tx.send((packet, forwarded_at));
                }
            }
            Ok(ServerMsg::DeliverMany { to, packet, forwarded_at }) => {
                // One look at the routing table for the whole frame; the
                // sends happen with it unlocked, as for `DeliverTo`.
                let fanout: Vec<_> = {
                    let sessions = inner.sessions.lock();
                    to.iter().filter_map(|node| sessions.get(node).cloned()).collect()
                };
                for tx in fanout {
                    let _ = tx.send((packet.clone(), forwarded_at));
                }
            }
            Ok(ServerMsg::Attached { node, .. }) => {
                let _ = attach_tx.send(Ok(node));
            }
            Ok(ServerMsg::AttachRefused { node, reason }) => {
                let _ = attach_tx.send(Err((node, reason)));
            }
            Ok(ServerMsg::Detached { node, .. }) => {
                // Server-side eviction (or the echo of our Detach):
                // dropping the sender closes the session's queue.
                inner.sessions.lock().remove(&node);
            }
            Ok(ServerMsg::SyncReply { t_s3, echo }) => {
                let _ = sync_tx.send((t_s3, echo));
            }
            Ok(ServerMsg::Shutdown) => {
                inner.closed.store(true, Ordering::Release);
                break;
            }
            Ok(
                ServerMsg::Welcome { .. }
                | ServerMsg::Deliver { .. }
                | ServerMsg::MuxWelcome { .. }
                | ServerMsg::Refused { .. },
            ) => {
                // Legacy-family (or late-handshake) frames: a mux
                // connection never negotiated them — drop the frame.
            }
            Err(_) => {
                inner.closed.store(true, Ordering::Release);
                break;
            }
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use poem_core::clock::VirtualClock;
    use poem_core::RadioId;
    use poem_proto::pipe::duplex;
    use std::thread;

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

    fn mux_welcome() -> ServerMsg {
        ServerMsg::MuxWelcome { version: PROTOCOL_VERSION, server_time: EmuTime::ZERO }
    }

    #[test]
    fn pipelined_attaches_pair_fifo_and_refusals_surface() {
        let ((r, w), h) = scripted_server(|mut rx, mut tx| {
            assert!(matches!(rx.recv::<ClientMsg>().unwrap(), ClientMsg::MuxHello { .. }));
            tx.send(&mux_welcome()).unwrap();
            // The whole batch arrives before any reply goes out.
            let mut attached = Vec::new();
            for _ in 0..3 {
                match rx.recv::<ClientMsg>().unwrap() {
                    ClientMsg::Attach { node } => attached.push(node),
                    other => panic!("{other:?}"),
                }
            }
            assert_eq!(attached, vec![NodeId(1), NodeId(2), NodeId(3)]);
            for node in attached {
                tx.send(&ServerMsg::Attached { node, server_time: EmuTime::ZERO }).unwrap();
            }
            // Second round: a refusal.
            match rx.recv::<ClientMsg>().unwrap() {
                ClientMsg::Attach { node } => {
                    tx.send(&ServerMsg::AttachRefused { node, reason: "duplicate".into() })
                        .unwrap();
                }
                other => panic!("{other:?}"),
            }
            loop {
                match rx.recv::<ClientMsg>() {
                    Ok(ClientMsg::Bye) | Err(_) => break,
                    _ => {}
                }
            }
        });
        let clock: Arc<dyn Clock> = Arc::new(VirtualClock::new());
        let mux = MuxClient::connect(r, w, clock).unwrap();
        let radios = RadioConfig::single(ChannelId(1), 100.0);
        let sessions = mux
            .attach_many(&[
                (NodeId(1), radios.clone()),
                (NodeId(2), radios.clone()),
                (NodeId(3), radios.clone()),
            ])
            .unwrap();
        assert_eq!(sessions.len(), 3);
        assert_eq!(mux.session_count(), 3);
        let err = mux.attach(NodeId(1), radios).unwrap_err();
        assert!(matches!(err, ClientError::Refused(ref s) if s == "duplicate"), "{err}");
        drop(sessions);
        mux.close().unwrap();
        h.join().unwrap();
    }

    #[test]
    fn deliveries_demux_to_their_sessions() {
        let ((r, w), h) = scripted_server(|mut rx, mut tx| {
            assert!(matches!(rx.recv::<ClientMsg>().unwrap(), ClientMsg::MuxHello { .. }));
            tx.send(&mux_welcome()).unwrap();
            for _ in 0..2 {
                match rx.recv::<ClientMsg>().unwrap() {
                    ClientMsg::Attach { node } => {
                        tx.send(&ServerMsg::Attached { node, server_time: EmuTime::ZERO }).unwrap()
                    }
                    other => panic!("{other:?}"),
                }
            }
            for (to, tag) in [(NodeId(1), 11u8), (NodeId(2), 22u8)] {
                let pkt = EmuPacket::new(
                    PacketId(5),
                    NodeId(9),
                    Destination::Unicast(to),
                    ChannelId(1),
                    RadioId(0),
                    EmuTime::from_millis(1),
                    Bytes::from(vec![tag]),
                );
                tx.send(&ServerMsg::DeliverTo {
                    to,
                    packet: pkt,
                    forwarded_at: EmuTime::from_millis(2),
                })
                .unwrap();
            }
            // One frame for both sessions — and for a node nobody attached,
            // which is skipped.
            let pkt = EmuPacket::new(
                PacketId(6),
                NodeId(9),
                Destination::Broadcast,
                ChannelId(1),
                RadioId(0),
                EmuTime::from_millis(3),
                Bytes::from(vec![33u8]),
            );
            tx.send(&ServerMsg::DeliverMany {
                to: vec![NodeId(1), NodeId(7), NodeId(2)],
                packet: pkt,
                forwarded_at: EmuTime::from_millis(4),
            })
            .unwrap();
        });
        let clock: Arc<dyn Clock> = Arc::new(VirtualClock::new());
        let mux = MuxClient::connect(r, w, clock).unwrap();
        let radios = RadioConfig::single(ChannelId(1), 100.0);
        let sessions =
            mux.attach_many(&[(NodeId(1), radios.clone()), (NodeId(2), radios)]).unwrap();
        let (p1, _) = sessions[0].recv_timeout(Duration::from_secs(5)).unwrap();
        let (p2, _) = sessions[1].recv_timeout(Duration::from_secs(5)).unwrap();
        assert_eq!(&p1.payload[..], &[11]);
        assert_eq!(&p2.payload[..], &[22]);
        for s in &sessions {
            let (p, forwarded_at) = s.recv_timeout(Duration::from_secs(5)).unwrap();
            assert_eq!((p.id, &p.payload[..]), (PacketId(6), &[33u8][..]));
            assert_eq!(forwarded_at, EmuTime::from_millis(4));
        }
        assert!(sessions[0].try_recv().is_none());
        h.join().unwrap();
    }

    #[test]
    fn sessions_send_with_their_own_identity_and_id_space() {
        let ((r, w), h) = scripted_server(|mut rx, mut tx| {
            assert!(matches!(rx.recv::<ClientMsg>().unwrap(), ClientMsg::MuxHello { .. }));
            tx.send(&mux_welcome()).unwrap();
            for _ in 0..2 {
                match rx.recv::<ClientMsg>().unwrap() {
                    ClientMsg::Attach { node } => {
                        tx.send(&ServerMsg::Attached { node, server_time: EmuTime::ZERO }).unwrap()
                    }
                    other => panic!("{other:?}"),
                }
            }
            let mut seen = Vec::new();
            for _ in 0..2 {
                match rx.recv::<ClientMsg>().unwrap() {
                    ClientMsg::Data(pkt) => seen.push((pkt.src, pkt.id)),
                    other => panic!("{other:?}"),
                }
            }
            assert_eq!(seen, vec![(NodeId(1), PacketId(1 << 40)), (NodeId(2), PacketId(2 << 40))]);
            // A detach arrives last.
            match rx.recv::<ClientMsg>().unwrap() {
                ClientMsg::Detach { node } => assert_eq!(node, NodeId(2)),
                other => panic!("{other:?}"),
            }
        });
        let clock: Arc<dyn Clock> = Arc::new(VirtualClock::new());
        let mux = MuxClient::connect(r, w, clock).unwrap();
        let radios = RadioConfig::single(ChannelId(1), 100.0);
        let mut sessions =
            mux.attach_many(&[(NodeId(1), radios.clone()), (NodeId(2), radios)]).unwrap();
        for s in &sessions {
            s.send(ChannelId(1), Destination::Broadcast, Bytes::from_static(b"x"))
                .unwrap()
                .unwrap();
        }
        // Untuned channel sends nothing.
        assert!(sessions[0]
            .send(ChannelId(9), Destination::Broadcast, Bytes::new())
            .unwrap()
            .is_none());
        let s2 = sessions.pop().unwrap();
        s2.detach().unwrap();
        assert_eq!(mux.session_count(), 1);
        h.join().unwrap();
    }
}
