//! Reactor-era hostile-client coverage: the readiness-based server core
//! must survive peers that *stay connected but never speak* (half-open),
//! peers that *stop reading* what the server sends (stalled consumers),
//! and peers that vanish mid-handshake — all without wedging a poll
//! worker or leaking a session, because every connection is now a state
//! machine owned by a worker rather than a dedicated thread.
//!
//! The thread-per-client robustness suite (`tests/tcp_hostile.rs` at the
//! workspace root) keeps running unchanged; this file adds the failure
//! modes only a reactor can express.

use bytes::Bytes;
use poem_client::EmuClient;
use poem_core::clock::{Clock, WallClock};
use poem_core::linkmodel::LinkParams;
use poem_core::mobility::MobilityModel;
use poem_core::packet::Destination;
use poem_core::radio::RadioConfig;
use poem_core::scene::{Scene, SceneOp};
use poem_core::{ChannelId, EmuTime, NodeId, Point};
use poem_server::{ServerConfig, ServerHandle};
use std::io::Write;
use std::net::TcpStream;
use std::sync::Arc;
use std::time::{Duration, Instant};

fn two_node_scene() -> Scene {
    let mut s = Scene::new();
    for (id, x) in [(1u32, 0.0), (2u32, 50.0)] {
        s.apply(
            EmuTime::ZERO,
            &SceneOp::AddNode {
                id: NodeId(id),
                pos: Point::new(x, 0.0),
                radios: RadioConfig::single(ChannelId(1), 200.0),
                mobility: MobilityModel::Stationary,
                link: LinkParams::ideal(11.0e6),
            },
        )
        .unwrap();
    }
    s
}

fn start_with(config: ServerConfig) -> Arc<ServerHandle> {
    let clock: Arc<dyn Clock> = Arc::new(WallClock::new());
    ServerHandle::start(two_node_scene(), clock, config).unwrap()
}

/// Polls `cond` against fresh metrics until it holds or `deadline`
/// elapses.
fn wait_for(server: &ServerHandle, deadline: Duration, cond: impl Fn(&ServerHandle) -> bool) {
    let start = Instant::now();
    while start.elapsed() < deadline {
        if cond(server) {
            return;
        }
        std::thread::sleep(Duration::from_millis(25));
    }
    assert!(cond(server), "condition not reached within {deadline:?}");
}

/// After the hostile interaction, a normal session must still work.
fn assert_server_still_serves(server: &ServerHandle) {
    let clock: Arc<dyn Clock> = Arc::new(WallClock::new());
    let c1 = EmuClient::connect_tcp(
        server.addr(),
        NodeId(1),
        RadioConfig::single(ChannelId(1), 200.0),
        Arc::clone(&clock),
    )
    .expect("healthy client connects");
    let c2 = EmuClient::connect_tcp(
        server.addr(),
        NodeId(2),
        RadioConfig::single(ChannelId(1), 200.0),
        clock,
    )
    .expect("second healthy client connects");
    c1.send(ChannelId(1), Destination::Broadcast, Bytes::from_static(b"alive")).unwrap().unwrap();
    // Copies the hostile phase left in the schedule (a 32 KiB broadcast is
    // in flight for ~24 ms) may reach the re-registered node first.
    loop {
        let (pkt, _) = c2.recv_timeout(Duration::from_secs(5)).expect("traffic still flows");
        if &pkt.payload[..] == b"alive" {
            break;
        }
    }
    c1.close().unwrap();
    c2.close().unwrap();
}

/// A connection that completes TCP but never sends a byte (a half-open
/// peer, a port scanner, a crashed host behind NAT) must be reaped by the
/// timer wheel — counted in `poem_session_timeouts_total` — instead of
/// occupying a reactor slot forever.
#[test]
fn half_open_connection_is_idle_timed_out() {
    let server = start_with(ServerConfig {
        read_timeout: Some(Duration::from_millis(300)),
        ..ServerConfig::default()
    });

    let _half_open = TcpStream::connect(server.addr()).unwrap();
    wait_for(&server, Duration::from_secs(10), |s| {
        s.metrics().counter("poem_session_timeouts_total").unwrap_or(0) >= 1
    });
    wait_for(&server, Duration::from_secs(5), |s| {
        s.metrics().gauge("poem_reactor_conns") == Some(0)
    });

    // The idle kill never registered a session, so nothing leaks.
    assert!(server.connected().is_empty(), "half-open conn registered a session");
    assert_server_still_serves(&server);
    server.shutdown();
}

/// A registered client that stops draining its socket must be evicted
/// once its buffered output exceeds `write_buffer_cap` — counted in
/// `poem_writebuf_evictions_total` — while its well-behaved peers keep
/// full service. This is the reactor replacement for per-thread
/// `SO_SNDTIMEO` eviction.
#[test]
fn stalled_reader_is_evicted_not_backpressured() {
    let server = start_with(ServerConfig {
        write_buffer_cap: 64 * 1024,
        write_timeout: Some(Duration::from_millis(500)),
        // The stalled conn must not be idle-killed first: its liveness is
        // the server's own delivery writes, which touch() it.
        read_timeout: Some(Duration::from_secs(30)),
        ..ServerConfig::default()
    });
    let clock: Arc<dyn Clock> = Arc::new(WallClock::new());

    // Node 2 handshakes properly, then never reads another byte.
    let stalled = {
        use poem_proto::{ClientMsg, MsgReader, MsgWriter, ServerMsg, PROTOCOL_VERSION};
        let s = TcpStream::connect(server.addr()).unwrap();
        let mut w = MsgWriter::new(s.try_clone().unwrap());
        let mut r = MsgReader::new(s.try_clone().unwrap());
        w.send(&ClientMsg::Hello { version: PROTOCOL_VERSION, node: NodeId(2) }).unwrap();
        match r.recv::<ServerMsg>().unwrap() {
            ServerMsg::Welcome { .. } => {}
            other => panic!("expected Welcome, got {other:?}"),
        }
        s // kept open, never read again
    };
    wait_for(&server, Duration::from_secs(5), |s| s.connected() == vec![NodeId(2)]);

    // Node 1 floods broadcasts at the stalled consumer until the server
    // gives up on it.
    let c1 = EmuClient::connect_tcp(
        server.addr(),
        NodeId(1),
        RadioConfig::single(ChannelId(1), 200.0),
        Arc::clone(&clock),
    )
    .unwrap();
    let payload = Bytes::from(vec![0x5a; 32 * 1024]);
    let start = Instant::now();
    loop {
        assert!(
            start.elapsed() < Duration::from_secs(30),
            "stalled consumer never evicted (evictions={:?})",
            server.metrics().counter("poem_writebuf_evictions_total"),
        );
        c1.send(ChannelId(1), Destination::Broadcast, payload.clone()).unwrap().unwrap();
        if server.metrics().counter("poem_writebuf_evictions_total").unwrap_or(0) >= 1 {
            break;
        }
        std::thread::sleep(Duration::from_millis(10));
    }
    // The eviction deregisters node 2; node 1 keeps full service.
    wait_for(&server, Duration::from_secs(5), |s| s.connected() == vec![NodeId(1)]);
    c1.close().unwrap();
    drop(stalled);

    wait_for(&server, Duration::from_secs(5), |s| s.connected().is_empty());
    assert_server_still_serves(&server);
    server.shutdown();
}

/// A peer that vanishes mid-handshake — after a partial frame, or right
/// after `MuxHello` with attaches outstanding — must be reaped on EOF
/// with no session registered and no reactor slot leaked.
#[test]
fn mid_handshake_disconnect_leaves_no_session_behind() {
    let server = start_with(ServerConfig::default());

    // A frame header promising 512 bytes, followed by silence and EOF.
    {
        let mut s = TcpStream::connect(server.addr()).unwrap();
        s.write_all(&512u32.to_le_bytes()).unwrap();
        s.write_all(&[0xab; 17]).unwrap();
    }
    // A mux transport that dies between MuxHello and any Attach.
    {
        use poem_proto::{ClientMsg, MsgReader, MsgWriter, ServerMsg};
        let s = TcpStream::connect(server.addr()).unwrap();
        let mut w = MsgWriter::new(s.try_clone().unwrap());
        let mut r = MsgReader::new(s.try_clone().unwrap());
        w.send(&ClientMsg::mux_hello()).unwrap();
        match r.recv::<ServerMsg>().unwrap() {
            ServerMsg::MuxWelcome { .. } => {}
            other => panic!("expected MuxWelcome, got {other:?}"),
        }
    }

    wait_for(&server, Duration::from_secs(10), |s| {
        s.metrics().gauge("poem_reactor_conns") == Some(0)
    });
    assert!(server.connected().is_empty(), "mid-handshake death registered a session");
    assert_server_still_serves(&server);
    server.shutdown();
}
