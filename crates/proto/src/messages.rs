//! Client↔server message sets.
//!
//! The protocol is deliberately small — PoEm clients only ever (1) register
//! as a VMN, (2) run the Fig. 5 clock-sync handshake, (3) ship time-stamped
//! traffic, and (4) leave; the server (1) acknowledges registration,
//! (2) answers sync requests, (3) delivers forwarded traffic, and
//! (4) announces shutdown.

use poem_core::scene::SceneOp;
use poem_core::{EmuPacket, EmuTime, NodeId, PacketId};
use serde::{Deserialize, Serialize};

/// Current protocol version; bumped on any wire-incompatible change.
/// Version 2 added [`ServerMsg::DeliverMany`]: a v1 mux client would drop
/// the frame and lose every copy it carries, so the handshake refuses it.
pub const PROTOCOL_VERSION: u16 = 2;

/// Messages flowing client → server.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum ClientMsg {
    /// Registration: the client claims a VMN identity. First message on
    /// every connection.
    Hello {
        /// Protocol version spoken by the client.
        version: u16,
        /// The VMN this client embodies.
        node: NodeId,
    },
    /// Step 1 of the Fig. 5 handshake: carries the client's local send
    /// time `t_c1`.
    SyncRequest {
        /// Client clock at send time.
        t_c1: EmuTime,
    },
    /// An emulated packet, already time-stamped by the client
    /// (`packet.sent_at` — the parallel time-stamping).
    Data(EmuPacket),
    /// Graceful disconnect.
    Bye,
    /// Registration of a *multiplexed* connection: the client carries
    /// many VMN identities over this one socket, attached individually
    /// with [`ClientMsg::Attach`]. Appended after the v1 variants so the
    /// wire encoding of every legacy message is unchanged.
    MuxHello {
        /// Protocol version spoken by the client.
        version: u16,
    },
    /// Mux connections only: open a virtual session for `node` on this
    /// socket. Answered in FIFO order by [`ServerMsg::Attached`] or
    /// [`ServerMsg::AttachRefused`].
    Attach {
        /// The VMN to embody.
        node: NodeId,
    },
    /// Mux connections only: close `node`'s virtual session. Answered by
    /// [`ServerMsg::Detached`].
    Detach {
        /// The VMN to release.
        node: NodeId,
    },
}

/// Messages flowing server → client.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum ServerMsg {
    /// Registration accepted.
    Welcome {
        /// Protocol version spoken by the server.
        version: u16,
        /// Echo of the registered VMN id.
        node: NodeId,
        /// Server clock at acceptance (informational; clients synchronize
        /// properly via the handshake).
        server_time: EmuTime,
    },
    /// Registration rejected (duplicate VMN, unknown VMN, bad version).
    Refused {
        /// Human-readable reason.
        reason: String,
    },
    /// Step 3 of the Fig. 5 handshake: carries the server reply time
    /// `t_s3` and the echo term `t_c1 + t_s3 − t_s2`.
    SyncReply {
        /// Server clock at reply time.
        t_s3: EmuTime,
        /// `t_c1 + t_s3 − t_s2` as computed by the server.
        echo: EmuTime,
    },
    /// A forwarded packet delivered to this client.
    Deliver {
        /// The packet (original client timestamp preserved).
        packet: EmuPacket,
        /// Server emulation time at which the forward fired (§3.2 step 6).
        forwarded_at: EmuTime,
    },
    /// The emulation is over; the client should disconnect.
    Shutdown,
    /// A [`ClientMsg::MuxHello`] was accepted; the socket is now a mux
    /// connection awaiting [`ClientMsg::Attach`] requests. Appended after
    /// the v1 variants so the wire encoding of every legacy message is
    /// unchanged.
    MuxWelcome {
        /// Protocol version spoken by the server.
        version: u16,
        /// Server clock at acceptance (informational).
        server_time: EmuTime,
    },
    /// A virtual session opened (answers [`ClientMsg::Attach`] in FIFO
    /// order).
    Attached {
        /// Echo of the attached VMN id.
        node: NodeId,
        /// Server clock at acceptance (informational).
        server_time: EmuTime,
    },
    /// A virtual session was refused (duplicate VMN, unknown VMN).
    AttachRefused {
        /// Echo of the requested VMN id.
        node: NodeId,
        /// Human-readable reason.
        reason: String,
    },
    /// A virtual session closed — answering a [`ClientMsg::Detach`] or
    /// announcing a server-side eviction (disconnect fault, slow
    /// consumer). The socket itself stays up.
    Detached {
        /// The released VMN.
        node: NodeId,
        /// Human-readable reason (`"detached"` for client-requested).
        reason: String,
    },
    /// A forwarded packet delivered to one virtual session of a mux
    /// connection (the mux counterpart of [`ServerMsg::Deliver`]).
    DeliverTo {
        /// The receiving VMN (which virtual session this copy is for).
        to: NodeId,
        /// The packet (original client timestamp preserved).
        packet: EmuPacket,
        /// Server emulation time at which the forward fired.
        forwarded_at: EmuTime,
    },
    /// One forwarded packet delivered to several virtual sessions of a
    /// mux connection: the copies of one packet that came due together
    /// travel as one frame, and the client fans them out. Appended after
    /// [`ServerMsg::DeliverTo`] so every earlier encoding is unchanged;
    /// on the wire it is `u32` variant index 10, a `u64` receiver count,
    /// that many `u32` node ids, then the packet and `forwarded_at`
    /// exactly as in `DeliverTo`.
    DeliverMany {
        /// The receiving VMNs, in fire order. Never empty when the server
        /// sends it; a client treats an empty list as a no-op.
        to: Vec<NodeId>,
        /// The packet every listed session receives.
        packet: EmuPacket,
        /// Server emulation time at which the forwards fired.
        forwarded_at: EmuTime,
    },
}

/// Per-target outcome of a worker-side forwarding decision, as shipped
/// back to the cluster coordinator. Mirrors the pipeline's
/// `ForwardDecision` plus the unreachable case, with the forward time
/// already resolved to an absolute instant.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum WireDecision {
    /// Deliver a copy to the target when the emulation clock reaches
    /// `fire_at` (client stamp + serialization + model delay).
    Forward {
        /// Absolute forward time.
        fire_at: EmuTime,
    },
    /// The per-packet loss Bernoulli said drop.
    Loss,
    /// No usable link to the target (out of range, wrong channel, or a
    /// unicast destination that is not a neighbor).
    NoRoute,
}

/// One target's outcome within a [`PacketDecisions`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TargetDecision {
    /// The would-be receiver.
    pub to: NodeId,
    /// What happened to its copy.
    pub decision: WireDecision,
}

/// Every decision for one packet of a [`ClusterMsg::Batch`], in the
/// scene's canonical target order (ascending node id) so the coordinator
/// can replay them into the record log in the exact single-process order.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PacketDecisions {
    /// Index of the packet within the batch that carried it.
    pub idx: u32,
    /// Per-target outcomes. Empty for a broadcast with no neighbors; a
    /// single `NoRoute` entry for an unreachable unicast.
    pub targets: Vec<TargetDecision>,
}

/// Messages flowing coordinator ↔ shard worker (`poem-shardd`), framed
/// exactly like the client protocol. The coordinator remains the single
/// authority for the scene and the record log; workers hold a mirror of
/// their members (owned nodes plus halo) and compute pure per-packet
/// forwarding decisions against it.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum ClusterMsg {
    /// Coordinator → worker: run parameters. First message on every
    /// worker connection.
    Assign {
        /// Protocol version spoken by the coordinator.
        version: u16,
        /// This worker's shard index.
        shard: u32,
        /// Total shard count.
        shards: u32,
        /// Scenario seed (feeds the worker's profile book).
        seed: u64,
        /// Base of the per-packet decision RNG stream
        /// (`poem_core::rng::decide_rng`).
        decide_base: u64,
        /// Profile library text, when the scenario installed one.
        profiles: Option<String>,
    },
    /// Coordinator → worker: a scene operation for the worker's mirror
    /// (only ops touching the worker's members are sent).
    Op {
        /// Scenario time of the operation.
        at: EmuTime,
        /// The operation.
        op: SceneOp,
    },
    /// Coordinator → worker: membership delta — nodes entering the
    /// worker's mirror (as `AddNode`/`SetLinkProfile` ops) and nodes
    /// leaving it.
    HaloUpdate {
        /// Scenario time of the update.
        at: EmuTime,
        /// Ops materializing the entering nodes.
        enter: Vec<SceneOp>,
        /// Nodes leaving the mirror.
        leave: Vec<NodeId>,
    },
    /// Coordinator → worker: decide these packets (their senders are
    /// owned by this shard).
    Batch {
        /// Server receipt time of the batch.
        received_at: EmuTime,
        /// `(index within the coordinator batch, packet)` pairs.
        pkts: Vec<(u32, EmuPacket)>,
    },
    /// Worker → coordinator: the decisions for one [`ClusterMsg::Batch`].
    BatchResult {
        /// One entry per batch packet, in batch order.
        results: Vec<PacketDecisions>,
    },
    /// Coordinator → worker: a copy of a packet decided by *another*
    /// shard is headed for a node this worker owns (the cross-shard
    /// forwarding path). Informational — delivery itself is scheduled by
    /// the coordinator — but keeps per-shard traffic accounting exact.
    Forward {
        /// The forwarded packet.
        id: PacketId,
        /// The receiving node (owned by this worker).
        to: NodeId,
        /// When the copy fires.
        fire_at: EmuTime,
    },
    /// Coordinator → worker: end of a lockstep epoch; the worker replies
    /// [`ClusterMsg::BarrierAck`] once everything before it is applied.
    Barrier {
        /// Epoch number (monotonic).
        epoch: u64,
    },
    /// Worker → coordinator: barrier acknowledged — everything the
    /// coordinator sent before the barrier has been applied.
    BarrierAck {
        /// Echoed epoch number.
        epoch: u64,
        /// The acknowledging shard.
        shard: u32,
    },
    /// Worker → coordinator: per-shard counters, sent just before each
    /// barrier ack so the coordinator's gauges stay fresh at epoch
    /// granularity. (Ownership vs halo split is the coordinator's
    /// knowledge; the worker only sees its member mirror.)
    Metrics {
        /// Reporting shard.
        shard: u32,
        /// Packets decided since assignment.
        decided: u64,
        /// Cross-shard forwards received since assignment.
        forwards_in: u64,
        /// Nodes currently in the worker's mirror (owned + halo).
        member_nodes: u64,
    },
    /// Coordinator → worker: the run is over; exit cleanly.
    Shutdown,
}

impl ClientMsg {
    /// Builds the registration message for `node`.
    pub fn hello(node: NodeId) -> Self {
        ClientMsg::Hello { version: PROTOCOL_VERSION, node }
    }

    /// Builds the registration message for a multiplexed connection.
    pub fn mux_hello() -> Self {
        ClientMsg::MuxHello { version: PROTOCOL_VERSION }
    }
}

impl ServerMsg {
    /// Computes the [`ServerMsg::SyncReply`] for a request per the Fig. 5
    /// arithmetic: given `t_c1` (from the request), `t_s2` (server receive
    /// time) and `t_s3` (now), echo is `t_c1 + t_s3 − t_s2`.
    pub fn sync_reply(t_c1: EmuTime, t_s2: EmuTime, t_s3: EmuTime) -> Self {
        let echo = t_c1 + (t_s3 - t_s2);
        ServerMsg::SyncReply { t_s3, echo }
    }
}

/// Client-side completion of the handshake (steps 5–6): given the reply
/// and the local receive time `t_c4`, returns the estimated server time
/// `t_s4` and the offset to apply to the local emulation clock.
pub fn finish_sync(
    reply_t_s3: EmuTime,
    reply_echo: EmuTime,
    t_c4: EmuTime,
) -> (EmuTime, poem_core::EmuDuration) {
    let t_d = (t_c4 - reply_echo) / 2;
    let t_s4 = reply_t_s3 + t_d;
    (t_s4, t_s4 - t_c4)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codec::{from_bytes, to_bytes};
    use poem_core::clock::sync::{simulate_handshake, SyncSample};
    use poem_core::{ChannelId, EmuDuration, PacketId, RadioId};

    #[test]
    fn client_messages_roundtrip() {
        let msgs = vec![
            ClientMsg::hello(NodeId(4)),
            ClientMsg::SyncRequest { t_c1: EmuTime::from_millis(3) },
            ClientMsg::Data(EmuPacket::new(
                PacketId(9),
                NodeId(4),
                poem_core::packet::Destination::Unicast(NodeId(2)),
                ChannelId(1),
                RadioId(0),
                EmuTime::from_micros(77),
                vec![9u8; 64],
            )),
            ClientMsg::Bye,
            ClientMsg::mux_hello(),
            ClientMsg::Attach { node: NodeId(7) },
            ClientMsg::Detach { node: NodeId(7) },
        ];
        for m in msgs {
            let bytes = to_bytes(&m).unwrap();
            assert_eq!(from_bytes::<ClientMsg>(&bytes).unwrap(), m);
        }
    }

    /// The mux extension appends variants; the v1 wire encodings must not
    /// shift (a v1 client decodes a reactor server's legacy replies).
    #[test]
    fn legacy_variant_indexes_are_stable() {
        // Enum variants encode as a little-endian u32 index prefix.
        assert_eq!(to_bytes(&ClientMsg::Bye).unwrap()[..4], 3u32.to_le_bytes());
        assert_eq!(to_bytes(&ClientMsg::mux_hello()).unwrap()[..4], 4u32.to_le_bytes());
        assert_eq!(to_bytes(&ServerMsg::Shutdown).unwrap()[..4], 4u32.to_le_bytes());
        assert_eq!(
            to_bytes(&ServerMsg::MuxWelcome {
                version: PROTOCOL_VERSION,
                server_time: EmuTime::ZERO
            })
            .unwrap()[..4],
            5u32.to_le_bytes()
        );
    }

    /// `DeliverMany` is `DeliverTo` with the single receiver replaced by a
    /// counted list: same variant-index scheme, same packet and stamp
    /// bytes after the list.
    #[test]
    fn deliver_many_wire_layout_extends_deliver_to() {
        let packet = EmuPacket::new(
            PacketId(2),
            NodeId(3),
            poem_core::packet::Destination::Broadcast,
            ChannelId(1),
            RadioId(0),
            EmuTime::from_millis(3),
            vec![7u8; 8],
        );
        let forwarded_at = EmuTime::from_millis(4);
        let one =
            to_bytes(&ServerMsg::DeliverTo { to: NodeId(6), packet: packet.clone(), forwarded_at })
                .unwrap();
        let many = to_bytes(&ServerMsg::DeliverMany {
            to: vec![NodeId(6), NodeId(9)],
            packet,
            forwarded_at,
        })
        .unwrap();
        assert_eq!(one[..4], 9u32.to_le_bytes());
        assert_eq!(many[..4], 10u32.to_le_bytes());
        assert_eq!(many[4..12], 2u64.to_le_bytes());
        assert_eq!(many[12..16], 6u32.to_le_bytes());
        assert_eq!(many[16..20], 9u32.to_le_bytes());
        // Everything after the receiver list is byte-identical.
        assert_eq!(many[20..], one[8..]);
    }

    #[test]
    fn server_messages_roundtrip() {
        let msgs = vec![
            ServerMsg::Welcome {
                version: PROTOCOL_VERSION,
                node: NodeId(1),
                server_time: EmuTime::from_secs(5),
            },
            ServerMsg::Refused { reason: "duplicate VMN1".into() },
            ServerMsg::SyncReply { t_s3: EmuTime::from_secs(1), echo: EmuTime::from_secs(2) },
            ServerMsg::Deliver {
                packet: EmuPacket::new(
                    PacketId(1),
                    NodeId(2),
                    poem_core::packet::Destination::Broadcast,
                    ChannelId(3),
                    RadioId(1),
                    EmuTime::from_millis(1),
                    vec![0u8; 16],
                ),
                forwarded_at: EmuTime::from_millis(2),
            },
            ServerMsg::Shutdown,
            ServerMsg::MuxWelcome {
                version: PROTOCOL_VERSION,
                server_time: EmuTime::from_millis(4),
            },
            ServerMsg::Attached { node: NodeId(6), server_time: EmuTime::from_millis(5) },
            ServerMsg::AttachRefused { node: NodeId(6), reason: "duplicate VMN6".into() },
            ServerMsg::Detached { node: NodeId(6), reason: "detached".into() },
            ServerMsg::DeliverTo {
                to: NodeId(6),
                packet: EmuPacket::new(
                    PacketId(2),
                    NodeId(3),
                    poem_core::packet::Destination::Broadcast,
                    ChannelId(1),
                    RadioId(0),
                    EmuTime::from_millis(3),
                    vec![7u8; 8],
                ),
                forwarded_at: EmuTime::from_millis(4),
            },
            ServerMsg::DeliverMany {
                to: vec![NodeId(6), NodeId(9), NodeId(2)],
                packet: EmuPacket::new(
                    PacketId(3),
                    NodeId(3),
                    poem_core::packet::Destination::Broadcast,
                    ChannelId(1),
                    RadioId(0),
                    EmuTime::from_millis(3),
                    vec![7u8; 8],
                ),
                forwarded_at: EmuTime::from_millis(4),
            },
        ];
        for m in msgs {
            let bytes = to_bytes(&m).unwrap();
            assert_eq!(from_bytes::<ServerMsg>(&bytes).unwrap(), m);
        }
    }

    #[test]
    fn cluster_messages_roundtrip() {
        use poem_core::linkmodel::LinkParams;
        use poem_core::mobility::MobilityModel;
        use poem_core::radio::RadioConfig;
        use poem_core::Point;
        let msgs = vec![
            ClusterMsg::Assign {
                version: PROTOCOL_VERSION,
                shard: 1,
                shards: 4,
                seed: 7,
                decide_base: 0xDEAD_BEEF,
                profiles: Some("profile clean trace\nat 0 loss 0 bps 8e6 delay 0\nend\n".into()),
            },
            ClusterMsg::Op {
                at: EmuTime::from_millis(5),
                op: SceneOp::MoveNode { id: NodeId(3), pos: Point::new(1.0, -2.0) },
            },
            ClusterMsg::HaloUpdate {
                at: EmuTime::from_millis(6),
                enter: vec![SceneOp::AddNode {
                    id: NodeId(9),
                    pos: Point::new(10.0, 20.0),
                    radios: RadioConfig::single(poem_core::ChannelId(2), 120.0),
                    mobility: MobilityModel::Stationary,
                    link: LinkParams::ideal(8e6),
                }],
                leave: vec![NodeId(4), NodeId(5)],
            },
            ClusterMsg::Batch {
                received_at: EmuTime::from_millis(9),
                pkts: vec![(
                    2,
                    EmuPacket::new(
                        PacketId(11),
                        NodeId(1),
                        poem_core::packet::Destination::Broadcast,
                        poem_core::ChannelId(1),
                        poem_core::RadioId(0),
                        EmuTime::from_millis(8),
                        vec![3u8; 32],
                    ),
                )],
            },
            ClusterMsg::BatchResult {
                results: vec![PacketDecisions {
                    idx: 2,
                    targets: vec![
                        TargetDecision {
                            to: NodeId(2),
                            decision: WireDecision::Forward { fire_at: EmuTime::from_millis(9) },
                        },
                        TargetDecision { to: NodeId(3), decision: WireDecision::Loss },
                        TargetDecision { to: NodeId(4), decision: WireDecision::NoRoute },
                    ],
                }],
            },
            ClusterMsg::Forward {
                id: PacketId(11),
                to: NodeId(6),
                fire_at: EmuTime::from_millis(10),
            },
            ClusterMsg::Barrier { epoch: 3 },
            ClusterMsg::BarrierAck { epoch: 3, shard: 1 },
            ClusterMsg::Metrics { shard: 1, decided: 40, forwards_in: 2, member_nodes: 25 },
            ClusterMsg::Shutdown,
        ];
        for m in msgs {
            let bytes = to_bytes(&m).unwrap();
            assert_eq!(from_bytes::<ClusterMsg>(&bytes).unwrap(), m);
        }
    }

    #[test]
    fn sync_reply_matches_paper_arithmetic() {
        let t_c1 = EmuTime::from_millis(100);
        let t_s2 = EmuTime::from_millis(500);
        let t_s3 = EmuTime::from_millis(502);
        match ServerMsg::sync_reply(t_c1, t_s2, t_s3) {
            ServerMsg::SyncReply { t_s3: s3, echo } => {
                assert_eq!(s3, t_s3);
                assert_eq!(echo, EmuTime::from_millis(102)); // t_c1 + (t_s3 - t_s2)
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn finish_sync_agrees_with_core_solver() {
        let sample: SyncSample = simulate_handshake(
            EmuTime::from_secs(10),
            EmuTime::from_secs(90),
            EmuDuration::from_millis(7),
            EmuDuration::from_millis(7),
            EmuDuration::from_millis(1),
        );
        let core = sample.solve();
        // The wire path: server computes the echo; client finishes.
        let echo = sample.t_c1 + (sample.t_s3 - sample.t_s2);
        let (t_s4, offset) = finish_sync(sample.t_s3, echo, sample.t_c4);
        assert_eq!(t_s4, core.estimated_server_now);
        assert_eq!(offset, core.offset);
    }
}
