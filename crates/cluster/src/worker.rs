//! The shard worker (`poem-shardd`) run loop.
//!
//! A worker is deliberately passive: it connects to the coordinator,
//! receives its assignment, mirrors the member nodes the coordinator
//! feeds it (owned nodes plus their 3×3 halo), and answers decision
//! batches with [`crate::decide::decide_packet`] — the kernel the local
//! pipeline decides with, based at the client stamp. It never advances
//! mobility (positions arrive as `MoveNode` ops, and each sync's run of
//! them is relinked in bulk by [`Scene::move_nodes`]), never records
//! anything (the coordinator is the single log authority), and never
//! draws from a sequential RNG (decisions come from the per-packet
//! stream). On coordinator disconnect — orderly [`ClusterMsg::Shutdown`]
//! or a dropped connection — it exits cleanly rather than lingering.

use crate::decide::decide_packet;
use crate::error::ClusterError;
use poem_core::scene::{Scene, SceneOp};
use poem_core::{EmuTime, NodeId, Point};
use poem_profiles::{ProfileBook, ProfileLibrary};
use poem_proto::{
    ClusterMsg, MsgReader, MsgWriter, PacketDecisions, TargetDecision, PROTOCOL_VERSION,
};
use std::io::{BufReader, Read, Write};
use std::net::TcpStream;

/// Mutable worker state across the message loop.
struct WorkerState {
    shard: u32,
    scene: Scene,
    decide_base: u64,
    book: Option<ProfileBook>,
    decided: u64,
    forwards_in: u64,
    targets: Vec<NodeId>,
    decisions: Vec<TargetDecision>,
    /// A run of consecutive `MoveNode` ops not yet applied, and the
    /// latest `at` among them.
    moves: Vec<(NodeId, Point)>,
    moves_at: EmuTime,
}

impl WorkerState {
    fn new() -> Self {
        WorkerState {
            shard: 0,
            scene: Scene::new(),
            decide_base: 0,
            book: None,
            decided: 0,
            forwards_in: 0,
            targets: Vec::new(),
            decisions: Vec::new(),
            moves: Vec::new(),
            moves_at: EmuTime::ZERO,
        }
    }

    /// Applies the buffered `MoveNode` run as one bulk relink.
    fn flush_moves(&mut self) -> Result<(), ClusterError> {
        if self.moves.is_empty() {
            return Ok(());
        }
        let result = self.scene.move_nodes(self.moves_at, &self.moves);
        self.moves.clear();
        self.moves_at = EmuTime::ZERO;
        result.map_err(ClusterError::from)
    }
}

/// True for I/O errors that mean "the coordinator is gone" rather than a
/// corrupted stream: the worker treats these as an orderly shutdown.
fn is_disconnect(e: &std::io::Error) -> bool {
    matches!(
        e.kind(),
        std::io::ErrorKind::UnexpectedEof
            | std::io::ErrorKind::ConnectionReset
            | std::io::ErrorKind::ConnectionAborted
            | std::io::ErrorKind::BrokenPipe
    )
}

/// Connects to the coordinator at `addr` and serves until shutdown or
/// disconnect.
pub fn run(addr: &str) -> Result<(), ClusterError> {
    let stream = TcpStream::connect(addr)?;
    stream.set_nodelay(true)?;
    // The coordinator writes a sync's frames in one piece; read them so.
    let reader = MsgReader::new(BufReader::new(stream.try_clone()?));
    let writer = MsgWriter::new(stream);
    serve(reader, writer)
}

/// The worker message loop over any framed transport (split out from
/// [`run`] so tests can drive it over an in-memory pipe).
pub fn serve<R: Read, W: Write>(
    mut reader: MsgReader<R>,
    mut writer: MsgWriter<W>,
) -> Result<(), ClusterError> {
    let mut st = WorkerState::new();
    loop {
        let msg: ClusterMsg = match reader.recv() {
            Ok(m) => m,
            // The coordinator's side of the connection is gone: its
            // process exited (cleanly or not). Either way there is no one
            // left to serve — exit cleanly instead of lingering.
            Err(e) if is_disconnect(&e) => return Ok(()),
            Err(e) => return Err(ClusterError::Io(e)),
        };
        // A sync ships one `MoveNode` per mirrored mobile node back to
        // back: buffer the run and relink it in bulk before anything else
        // is handled. Every sync ends in a barrier, so the run is applied
        // before its ack.
        if let ClusterMsg::Op { at, op: SceneOp::MoveNode { id, pos } } = msg {
            st.moves.push((id, pos));
            st.moves_at = st.moves_at.max(at);
            continue;
        }
        st.flush_moves()?;
        match msg {
            ClusterMsg::Assign { version, shard, shards: _, seed, decide_base, profiles } => {
                if version != PROTOCOL_VERSION {
                    return Err(ClusterError::Protocol {
                        shard,
                        detail: format!(
                            "coordinator speaks protocol v{version}, worker speaks v{PROTOCOL_VERSION}"
                        ),
                    });
                }
                st.shard = shard;
                st.decide_base = decide_base;
                st.book = match profiles {
                    Some(text) => {
                        let lib =
                            ProfileLibrary::parse(&text).map_err(|e| ClusterError::Protocol {
                                shard,
                                detail: format!("unparseable profile library: {e}"),
                            })?;
                        Some(ProfileBook::new(lib, seed))
                    }
                    None => None,
                };
            }
            ClusterMsg::Op { at, op } => {
                st.scene.apply(at, &op)?;
            }
            ClusterMsg::HaloUpdate { at, enter, leave } => {
                for op in &enter {
                    st.scene.apply(at, op)?;
                }
                for id in leave {
                    st.scene.apply(at, &SceneOp::RemoveNode { id })?;
                }
            }
            ClusterMsg::Batch { received_at: _, pkts } => {
                let mut results = Vec::with_capacity(pkts.len());
                for (idx, pkt) in &pkts {
                    decide_packet(
                        &st.scene,
                        st.book.as_mut(),
                        st.decide_base,
                        pkt.sent_at,
                        pkt,
                        &mut st.targets,
                        &mut st.decisions,
                    );
                    st.decided += 1;
                    results.push(PacketDecisions { idx: *idx, targets: st.decisions.clone() });
                }
                writer.send(&ClusterMsg::BatchResult { results })?;
            }
            ClusterMsg::Forward { id: _, to: _, fire_at: _ } => {
                // Cross-shard delivery notification for a node this
                // worker owns; accounting only.
                st.forwards_in += 1;
            }
            ClusterMsg::Barrier { epoch } => {
                writer.queue(&ClusterMsg::Metrics {
                    shard: st.shard,
                    decided: st.decided,
                    forwards_in: st.forwards_in,
                    member_nodes: st.scene.len() as u64,
                })?;
                writer.send(&ClusterMsg::BarrierAck { epoch, shard: st.shard })?;
            }
            ClusterMsg::Shutdown => return Ok(()),
            // Worker-originated messages have no business arriving here.
            ClusterMsg::BatchResult { .. }
            | ClusterMsg::BarrierAck { .. }
            | ClusterMsg::Metrics { .. } => {
                return Err(ClusterError::Protocol {
                    shard: st.shard,
                    detail: "received a worker-originated message from the coordinator".into(),
                });
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use poem_core::linkmodel::LinkParams;
    use poem_core::mobility::MobilityModel;
    use poem_core::packet::Destination;
    use poem_core::radio::RadioConfig;
    use poem_core::scene::SceneError;
    use poem_core::{ChannelId, EmuPacket, PacketId, RadioId};
    use poem_proto::pipe::pipe;
    use poem_proto::WireDecision;

    fn add(id: u32, x: f64) -> SceneOp {
        SceneOp::AddNode {
            id: NodeId(id),
            pos: Point::new(x, 0.0),
            radios: RadioConfig::single(ChannelId(1), 100.0),
            mobility: MobilityModel::Stationary,
            link: LinkParams::ideal(8e6),
        }
    }

    /// Drives a worker over in-memory pipes from a scripted coordinator.
    #[test]
    fn worker_decides_batches_and_acks_barriers() {
        let (coord_w, worker_r) = pipe();
        let (worker_w, coord_r) = pipe();
        let handle =
            std::thread::spawn(move || serve(MsgReader::new(worker_r), MsgWriter::new(worker_w)));
        let mut tx = MsgWriter::new(coord_w);
        let mut rx = MsgReader::new(coord_r);
        tx.send(&ClusterMsg::Assign {
            version: PROTOCOL_VERSION,
            shard: 1,
            shards: 2,
            seed: 5,
            decide_base: 77,
            profiles: None,
        })
        .unwrap();
        tx.send(&ClusterMsg::HaloUpdate {
            at: EmuTime::ZERO,
            enter: vec![add(1, 0.0), add(2, 50.0)],
            leave: vec![],
        })
        .unwrap();
        let pkt = EmuPacket::new(
            PacketId(9),
            NodeId(1),
            Destination::Broadcast,
            ChannelId(1),
            RadioId(0),
            EmuTime::from_millis(3),
            vec![0u8; 100],
        );
        tx.send(&ClusterMsg::Batch { received_at: EmuTime::from_millis(3), pkts: vec![(0, pkt)] })
            .unwrap();
        match rx.recv::<ClusterMsg>().unwrap() {
            ClusterMsg::BatchResult { results } => {
                assert_eq!(results.len(), 1);
                assert_eq!(results[0].idx, 0);
                assert_eq!(results[0].targets.len(), 1);
                assert!(matches!(results[0].targets[0].decision, WireDecision::Forward { .. }));
            }
            other => panic!("{other:?}"),
        }
        tx.send(&ClusterMsg::Barrier { epoch: 1 }).unwrap();
        match rx.recv::<ClusterMsg>().unwrap() {
            ClusterMsg::Metrics { shard, decided, member_nodes, .. } => {
                assert_eq!(shard, 1);
                assert_eq!(decided, 1);
                assert_eq!(member_nodes, 2);
            }
            other => panic!("{other:?}"),
        }
        match rx.recv::<ClusterMsg>().unwrap() {
            ClusterMsg::BarrierAck { epoch, shard } => {
                assert_eq!((epoch, shard), (1, 1));
            }
            other => panic!("{other:?}"),
        }
        tx.send(&ClusterMsg::Shutdown).unwrap();
        handle.join().unwrap().unwrap();
    }

    /// A dropped coordinator connection is a clean exit, not an error —
    /// the satellite contract "workers exit cleanly on coordinator
    /// disconnect".
    #[test]
    fn worker_exits_cleanly_when_coordinator_disconnects() {
        let (coord_w, worker_r) = pipe();
        let (worker_w, _coord_r) = pipe();
        let handle =
            std::thread::spawn(move || serve(MsgReader::new(worker_r), MsgWriter::new(worker_w)));
        drop(coord_w); // coordinator vanishes mid-session
        handle.join().unwrap().unwrap();
    }

    type Coordinator = (
        MsgWriter<poem_proto::pipe::PipeWriter>,
        MsgReader<poem_proto::pipe::PipeReader>,
        std::thread::JoinHandle<Result<(), ClusterError>>,
    );

    /// A worker on in-memory pipes, assigned shard 0 with `decide_base` 77
    /// and mirroring the [`lattice`].
    fn lattice_worker() -> Coordinator {
        let (coord_w, worker_r) = pipe();
        let (worker_w, coord_r) = pipe();
        let handle =
            std::thread::spawn(move || serve(MsgReader::new(worker_r), MsgWriter::new(worker_w)));
        let mut tx = MsgWriter::new(coord_w);
        tx.send(&ClusterMsg::Assign {
            version: PROTOCOL_VERSION,
            shard: 0,
            shards: 1,
            seed: 5,
            decide_base: 77,
            profiles: None,
        })
        .unwrap();
        tx.send(&ClusterMsg::HaloUpdate { at: EmuTime::ZERO, enter: lattice(), leave: vec![] })
            .unwrap();
        (tx, MsgReader::new(coord_r), handle)
    }

    /// Sixteen nodes on a 4×4 lattice of pitch 40, channel 1, range 100.
    fn lattice() -> Vec<SceneOp> {
        (0..16u32)
            .map(|i| SceneOp::AddNode {
                id: NodeId(i + 1),
                pos: Point::new(40.0 * f64::from(i % 4), 40.0 * f64::from(i / 4)),
                radios: RadioConfig::single(ChannelId(1), 100.0),
                mobility: MobilityModel::Stationary,
                link: LinkParams::table3(),
            })
            .collect()
    }

    /// One broadcast from every node and one unicast to node 1.
    fn packets() -> Vec<(u32, EmuPacket)> {
        (1..=17u32)
            .map(|i| {
                let (src, dst) = if i <= 16 {
                    (NodeId(i), Destination::Broadcast)
                } else {
                    (NodeId(16), Destination::Unicast(NodeId(1)))
                };
                let at = EmuTime::from_millis(40);
                let pkt = EmuPacket::new(
                    PacketId(u64::from(i)),
                    src,
                    dst,
                    ChannelId(1),
                    RadioId(0),
                    at,
                    vec![0u8; 64],
                );
                (i - 1, pkt)
            })
            .collect()
    }

    /// Sends `ops`, then a batch of [`packets`] and a barrier; returns the
    /// batch's decisions and the worker's member count.
    fn decide_after(ops: &[(EmuTime, SceneOp)]) -> (Vec<PacketDecisions>, u64) {
        let (mut tx, mut rx, handle) = lattice_worker();
        for (at, op) in ops {
            tx.send(&ClusterMsg::Op { at: *at, op: op.clone() }).unwrap();
        }
        tx.send(&ClusterMsg::Batch { received_at: EmuTime::from_millis(40), pkts: packets() })
            .unwrap();
        let results = match rx.recv::<ClusterMsg>().unwrap() {
            ClusterMsg::BatchResult { results } => results,
            other => panic!("{other:?}"),
        };
        tx.send(&ClusterMsg::Barrier { epoch: 1 }).unwrap();
        let members = match rx.recv::<ClusterMsg>().unwrap() {
            ClusterMsg::Metrics { member_nodes, .. } => member_nodes,
            other => panic!("{other:?}"),
        };
        assert!(matches!(rx.recv::<ClusterMsg>().unwrap(), ClusterMsg::BarrierAck { .. }));
        tx.send(&ClusterMsg::Shutdown).unwrap();
        handle.join().unwrap().unwrap();
        (results, members)
    }

    /// The decisions a scene that applied `ops` one at a time makes.
    fn reference(ops: &[(EmuTime, SceneOp)]) -> Vec<PacketDecisions> {
        let mut scene = Scene::new();
        for op in lattice().iter().chain(ops.iter().map(|(_, op)| op)) {
            scene.apply(EmuTime::ZERO, op).unwrap();
        }
        let mut targets = Vec::new();
        packets()
            .iter()
            .map(|(idx, pkt)| {
                let mut decisions = Vec::new();
                decide_packet(&scene, None, 77, pkt.sent_at, pkt, &mut targets, &mut decisions);
                PacketDecisions { idx: *idx, targets: decisions }
            })
            .collect()
    }

    fn mv(ms: u64, id: u32, x: f64, y: f64) -> (EmuTime, SceneOp) {
        (EmuTime::from_millis(ms), SceneOp::MoveNode { id: NodeId(id), pos: Point::new(x, y) })
    }

    /// A sync's run of moves — several `at`s, one node moved twice, most
    /// of the lattice moving — is applied in bulk with the result of
    /// applying each op singly.
    #[test]
    fn a_move_run_decides_like_single_ops() {
        let mut ops: Vec<_> = (1..=12u32)
            .map(|i| mv(10, i, 13.0 * f64::from(i), 150.0 - 9.0 * f64::from(i)))
            .collect();
        ops.push(mv(20, 3, 5.0, 5.0));
        ops.push(mv(30, 16, 160.0, 0.0));
        ops.push(mv(30, 3, 210.0, 30.0));
        let (got, members) = decide_after(&ops);
        let want = reference(&ops);
        assert_eq!(got, want);
        assert_ne!(got, reference(&[]), "the moves changed nothing");
        assert_eq!(members, 16, "moves do not change membership");
    }

    /// A move followed by a range change of the same node: both land, in
    /// that order.
    #[test]
    fn a_move_then_a_range_change_apply_in_order() {
        let range = |r: f64| {
            (
                EmuTime::from_millis(10),
                SceneOp::SetRadioRange { id: NodeId(16), radio: RadioId(0), range: r },
            )
        };
        let ops = [mv(10, 16, 400.0, 0.0), range(300.0)];
        let (got, members) = decide_after(&ops);
        assert_eq!(got, reference(&ops));
        assert_ne!(got, reference(&ops[..1]), "the range change was lost");
        assert_ne!(got, reference(&ops[1..]), "the move was lost");
        assert_eq!(members, 16);
    }

    /// An unknown node inside a run is a structured scene error, raised
    /// before the barrier is acknowledged.
    #[test]
    fn an_unknown_node_in_a_move_run_fails_before_the_ack() {
        let (mut tx, mut rx, handle) = lattice_worker();
        for (at, op) in [mv(10, 1, 1.0, 1.0), mv(10, 99, 2.0, 2.0), mv(10, 2, 3.0, 3.0)] {
            tx.send(&ClusterMsg::Op { at, op }).unwrap();
        }
        tx.send(&ClusterMsg::Barrier { epoch: 1 }).unwrap();
        assert!(rx.recv::<ClusterMsg>().is_err(), "the worker answered the barrier");
        drop(tx);
        match handle.join().unwrap() {
            Err(ClusterError::Scene(SceneError::UnknownNode(NodeId(99)))) => {}
            other => panic!("{other:?}"),
        }
    }

    /// Worker-originated message types arriving at a worker are a
    /// protocol violation, not a hang.
    #[test]
    fn worker_rejects_coordinator_bound_messages() {
        let (coord_w, worker_r) = pipe();
        let (worker_w, _coord_r) = pipe();
        let handle =
            std::thread::spawn(move || serve(MsgReader::new(worker_r), MsgWriter::new(worker_w)));
        let mut tx = MsgWriter::new(coord_w);
        tx.send(&ClusterMsg::BarrierAck { epoch: 1, shard: 0 }).unwrap();
        match handle.join().unwrap() {
            Err(ClusterError::Protocol { .. }) => {}
            other => panic!("{other:?}"),
        }
    }
}
