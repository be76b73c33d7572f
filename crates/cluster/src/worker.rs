//! The shard worker (`poem-shardd`) run loop.
//!
//! A worker is deliberately passive: it connects to the coordinator,
//! receives its assignment, mirrors the member nodes the coordinator
//! feeds it (owned nodes plus their 3×3 halo), and answers decision
//! batches with [`crate::decide::decide_packet`]. It never advances
//! mobility (positions arrive as `MoveNode` ops), never records
//! anything (the coordinator is the single log authority), and never
//! draws from a sequential RNG (decisions come from the per-packet
//! stream). On coordinator disconnect — orderly [`ClusterMsg::Shutdown`]
//! or a dropped connection — it exits cleanly rather than lingering.

use crate::decide::decide_packet;
use crate::error::ClusterError;
use poem_core::scene::{Scene, SceneOp};
use poem_core::NodeId;
use poem_profiles::{ProfileBook, ProfileLibrary};
use poem_proto::{ClusterMsg, MsgReader, MsgWriter, PacketDecisions, PROTOCOL_VERSION};
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
        }
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
                    let targets = decide_packet(
                        &st.scene,
                        &mut st.book,
                        st.decide_base,
                        pkt,
                        &mut st.targets,
                    );
                    st.decided += 1;
                    results.push(PacketDecisions { idx: *idx, targets });
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
    use poem_core::{ChannelId, EmuPacket, EmuTime, PacketId, Point, RadioId};
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
