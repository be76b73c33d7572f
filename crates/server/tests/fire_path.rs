//! The scan thread's batched fire path, end to end over TCP: copies of one
//! packet for sessions of one mux connection share a `DeliverMany` frame,
//! legacy sessions and lone copies keep `Deliver`/`DeliverTo`, and nothing
//! about a copy — who gets it, in which order, what the record log says,
//! what a refused frame costs — depends on how it was framed.

use bytes::Bytes;
use poem_client::{EmuClient, MuxClient};
use poem_core::clock::{Clock, WallClock};
use poem_core::linkmodel::LinkParams;
use poem_core::mobility::MobilityModel;
use poem_core::packet::Destination;
use poem_core::radio::RadioConfig;
use poem_core::scene::{Scene, SceneOp};
use poem_core::{ChannelId, EmuTime, NodeId, PacketId, Point};
use poem_record::{DropReason, TrafficRecord};
use poem_server::{ServerConfig, ServerHandle};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

const CH: ChannelId = ChannelId(1);

fn radios() -> RadioConfig {
    RadioConfig::single(CH, 200.0)
}

/// `n` nodes a metre apart: everyone hears everyone.
fn clique(n: u32) -> Scene {
    let mut s = Scene::new();
    for i in 1..=n {
        s.apply(
            EmuTime::ZERO,
            &SceneOp::AddNode {
                id: NodeId(i),
                pos: Point::new(f64::from(i), 0.0),
                radios: radios(),
                mobility: MobilityModel::Stationary,
                link: LinkParams::ideal(11.0e6),
            },
        )
        .unwrap();
    }
    s
}

fn start(scene: Scene, config: ServerConfig) -> Arc<ServerHandle> {
    let clock: Arc<dyn Clock> = Arc::new(WallClock::new());
    ServerHandle::start(scene, clock, config).unwrap()
}

fn wait_for(what: &str, cond: impl Fn() -> bool) {
    let deadline = Instant::now() + Duration::from_secs(20);
    while !cond() {
        assert!(Instant::now() < deadline, "timed out waiting for {what}");
        std::thread::sleep(Duration::from_millis(10));
    }
}

/// Five sessions on one mux connection plus one legacy client, under
/// interleaved broadcasts and unicasts from a mux session and from the
/// legacy client: every receiver gets exactly one copy of each packet
/// addressed to it, each sender's packets arrive in the order it sent
/// them, the record log holds one `Forward` per copy — and the broadcasts
/// did travel coalesced.
#[test]
fn mixed_mux_and_legacy_receivers_get_each_packet_once_in_send_order() {
    const MUX: u32 = 5;
    const LEGACY: u32 = 6;
    const ROUNDS: u8 = 40;
    let server = start(clique(LEGACY), ServerConfig::default());
    let clock: Arc<dyn Clock> = Arc::new(WallClock::new());
    let mux = MuxClient::connect_tcp(server.addr(), Arc::clone(&clock)).unwrap();
    let batch: Vec<_> = (1..=MUX).map(|i| (NodeId(i), radios())).collect();
    let sessions = mux.attach_many(&batch).unwrap();
    let legacy = EmuClient::connect_tcp(server.addr(), NodeId(LEGACY), radios(), clock).unwrap();

    // What each receiver must see, per sender, in order.
    let mut want: BTreeMap<(u32, u32), Vec<PacketId>> = BTreeMap::new();
    let mut expect = |src: u32, dst: Destination, id: PacketId| match dst {
        Destination::Broadcast => {
            for to in (1..=LEGACY).filter(|to| *to != src) {
                want.entry((to, src)).or_default().push(id);
            }
        }
        Destination::Unicast(to) => want.entry((to.0, src)).or_default().push(id),
    };
    for round in 0..ROUNDS {
        let payload = Bytes::from(vec![round; 32]);
        let plan = [
            (1, Destination::Broadcast),
            (1, Destination::Unicast(NodeId(3))),
            (LEGACY, Destination::Broadcast),
            (1, Destination::Unicast(NodeId(LEGACY))),
            (LEGACY, Destination::Unicast(NodeId(2))),
        ];
        for (src, dst) in plan {
            let id = if src == LEGACY {
                legacy.send(CH, dst, payload.clone()).unwrap().unwrap()
            } else {
                sessions[0].send(CH, dst, payload.clone()).unwrap().unwrap()
            };
            expect(src, dst, id);
        }
    }
    let copies: usize = want.values().map(Vec::len).sum();

    let mut got: BTreeMap<(u32, u32), Vec<PacketId>> = BTreeMap::new();
    let mut received = 0;
    let deadline = Instant::now() + Duration::from_secs(20);
    while received < copies {
        assert!(Instant::now() < deadline, "{received} of {copies} copies arrived");
        let mut idle = true;
        let arrivals = sessions
            .iter()
            .filter_map(|s| s.try_recv().map(|(pkt, _)| (s.node().0, pkt)))
            .chain(legacy.try_recv().map(|(pkt, _)| (LEGACY, pkt)))
            .collect::<Vec<_>>();
        for (to, pkt) in arrivals {
            got.entry((to, pkt.src.0)).or_default().push(pkt.id);
            received += 1;
            idle = false;
        }
        if idle {
            std::thread::sleep(Duration::from_millis(1));
        }
    }
    // Nothing beyond the expected copies trickles in afterwards.
    std::thread::sleep(Duration::from_millis(100));
    assert!(sessions.iter().all(|s| s.try_recv().is_none()) && legacy.try_recv().is_none());
    assert_eq!(got, want);

    let mut forwards: BTreeMap<(PacketId, NodeId), usize> = BTreeMap::new();
    for rec in server.recorder().traffic() {
        if let TrafficRecord::Forward { id, to, .. } = rec {
            *forwards.entry((id, to)).or_default() += 1;
        }
    }
    assert_eq!(forwards.len(), copies, "one Forward per copy");
    assert!(forwards.values().all(|n| *n == 1), "a copy was recorded twice");

    let m = server.metrics();
    assert_eq!(m.counter("poem_deliveries_sent_total"), Some(copies as u64));
    let frames = m.counter("poem_delivery_frames_total").unwrap();
    // A broadcast from session 1 reaches four sibling sessions in one
    // frame, one from the legacy client five; the unicasts and the legacy
    // client's copies are a frame each.
    let uncoalesced = copies as u64;
    let fully_coalesced = u64::from(ROUNDS) * (2 + 1 + 1 + 1 + 1);
    assert!(
        (fully_coalesced..uncoalesced).contains(&frames),
        "{frames} frames for {copies} copies"
    );

    drop(sessions);
    mux.close().unwrap();
    legacy.close().unwrap();
    server.shutdown();
}

/// A mux connection that stops reading is evicted like any slow consumer,
/// and a `DeliverMany` frame it could not take costs *each* session it
/// addressed a `Disconnected` drop.
#[test]
fn a_refused_group_frame_drops_every_copy_it_carried() {
    let server = start(
        clique(3),
        ServerConfig {
            write_buffer_cap: 64 * 1024,
            write_timeout: Some(Duration::from_millis(500)),
            ..ServerConfig::default()
        },
    );
    // Sessions 2 and 3 attach over a hand-rolled mux connection that never
    // reads again.
    let stalled = {
        use poem_proto::{ClientMsg, MsgReader, MsgWriter, ServerMsg};
        let s = std::net::TcpStream::connect(server.addr()).unwrap();
        let mut w = MsgWriter::new(s.try_clone().unwrap());
        let mut r = MsgReader::new(s.try_clone().unwrap());
        w.send(&ClientMsg::mux_hello()).unwrap();
        assert!(matches!(r.recv::<ServerMsg>().unwrap(), ServerMsg::MuxWelcome { .. }));
        for node in [NodeId(2), NodeId(3)] {
            w.send(&ClientMsg::Attach { node }).unwrap();
            assert!(matches!(r.recv::<ServerMsg>().unwrap(), ServerMsg::Attached { .. }));
        }
        s
    };
    let clock: Arc<dyn Clock> = Arc::new(WallClock::new());
    let c1 = EmuClient::connect_tcp(server.addr(), NodeId(1), radios(), clock).unwrap();
    let payload = Bytes::from(vec![0x5a; 32 * 1024]);
    let evicted = || server.metrics().counter("poem_writebuf_evictions_total").unwrap_or(0) >= 1;
    let deadline = Instant::now() + Duration::from_secs(30);
    while !evicted() {
        assert!(Instant::now() < deadline, "stalled mux consumer never evicted");
        c1.send(CH, Destination::Broadcast, payload.clone()).unwrap().unwrap();
        std::thread::sleep(Duration::from_millis(10));
    }
    wait_for("the evicted sessions to deregister", || server.connected() == vec![NodeId(1)]);

    // The frame that hit the cap addressed both sessions: the first
    // `Disconnected` drop towards one of them has a twin towards the
    // other, for the same packet at the same instant.
    let drops: Vec<_> = server
        .recorder()
        .traffic()
        .into_iter()
        .filter_map(|r| match r {
            TrafficRecord::Drop { id, to, at, reason: DropReason::Disconnected } => {
                Some((id, to, at))
            }
            _ => None,
        })
        .collect();
    let (id, _, at) = *drops.first().expect("the refused frame left a drop");
    let twins: Vec<NodeId> = drops.iter().filter(|d| d.0 == id && d.2 == at).map(|d| d.1).collect();
    assert_eq!(twins, vec![NodeId(2), NodeId(3)], "{drops:?}");
    let m = server.metrics();
    assert_eq!(m.counter("poem_drops_total{reason=\"disconnected\"}"), Some(drops.len() as u64));

    drop(stalled);
    c1.close().unwrap();
    server.shutdown();
}

/// A delivery fired the instant a node becomes routable must not reach a
/// legacy client ahead of its `Welcome`: `EmuClient::connect` would fail
/// with `expected Welcome, got Deliver`. A neighbour connects and closes
/// in a loop while a sender keeps broadcasts coming due every few
/// microseconds (short bursts, so the record log of a few hundred rounds
/// stays small).
#[test]
fn deliveries_never_overtake_the_welcome() {
    let server = start(clique(2), ServerConfig::default());
    let clock: Arc<dyn Clock> = Arc::new(WallClock::new());
    let sender =
        EmuClient::connect_tcp(server.addr(), NodeId(1), radios(), Arc::clone(&clock)).unwrap();
    let stop = Arc::new(AtomicBool::new(false));
    let flood = std::thread::spawn({
        let stop = Arc::clone(&stop);
        move || {
            while !stop.load(Ordering::Acquire) {
                for _ in 0..8 {
                    sender
                        .send(CH, Destination::Broadcast, Bytes::from_static(b"x"))
                        .unwrap()
                        .unwrap();
                }
                std::thread::sleep(Duration::from_micros(100));
            }
            sender.close().unwrap();
        }
    });
    for round in 0..300 {
        let neighbour = loop {
            // The previous round's session may still be deregistering.
            match EmuClient::connect_tcp(server.addr(), NodeId(2), radios(), Arc::clone(&clock)) {
                Ok(c) => break c,
                Err(poem_client::ClientError::Refused(_)) => std::thread::yield_now(),
                Err(e) => {
                    stop.store(true, Ordering::Release);
                    panic!("round {round}: {e}");
                }
            }
        };
        neighbour.close().unwrap();
    }
    stop.store(true, Ordering::Release);
    flood.join().unwrap();
    server.shutdown();
}
