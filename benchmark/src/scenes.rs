//! The emulated scenes the workloads run on, generated from the seed.
//!
//! All real-time link models use constant bandwidth and a constant delay,
//! so a copy's modeled forward time is recomputable outside the program
//! as `sent_at + wire_bits/bps + delay` ([`forward_delay`]).

use poem_core::linkmodel::{DelayModel, LinkParams};
use poem_core::mobility::{Arena, MobilityModel};
use poem_core::packet::HEADER_BYTES;
use poem_core::radio::RadioConfig;
use poem_core::scene::{Scene, SceneOp};
use poem_core::{ChannelId, EmuDuration, EmuRng, EmuTime, NodeId, Point, ProfileId};

/// Link rate of every benchmark scene.
pub const LINK_BPS: f64 = 11.0e6;
/// Constant one-way delay of every benchmark scene.
pub const LINK_DELAY: EmuDuration = EmuDuration::from_millis(2);
/// Radio range of every benchmark scene.
pub const RANGE: f64 = 100.0;
/// The single channel of the real-time scenes.
pub const CH: ChannelId = ChannelId(1);

/// Link parameters with constant bandwidth, constant delay and a
/// distance-independent loss probability.
pub fn link(loss: f64) -> LinkParams {
    LinkParams {
        p0: loss,
        p1: loss,
        d0: 0.0,
        max_bps: LINK_BPS,
        min_bps: LINK_BPS,
        delay: DelayModel::Constant(LINK_DELAY),
        profile: None,
    }
}

/// The modeled span between a packet's client stamp and its forward time
/// for `payload` bytes — the same arithmetic as
/// `LinkModel::forward_delay`, done outside the program.
pub fn forward_delay(payload: usize) -> EmuDuration {
    EmuDuration::from_secs_f64((HEADER_BYTES + payload) as f64 * 8.0 / LINK_BPS) + LINK_DELAY
}

/// One node of a scene under construction.
#[derive(Debug, Clone)]
pub struct NodeSpec {
    /// Node id (1-based, dense).
    pub id: NodeId,
    /// Initial position.
    pub pos: Point,
    /// Radios.
    pub radios: RadioConfig,
    /// Mobility model.
    pub mobility: MobilityModel,
    /// Link parameters.
    pub link: LinkParams,
}

impl NodeSpec {
    /// The op that adds this node to a scene.
    pub fn add_op(&self) -> SceneOp {
        SceneOp::AddNode {
            id: self.id,
            pos: self.pos,
            radios: self.radios.clone(),
            mobility: self.mobility,
            link: self.link,
        }
    }
}

/// A scene description: optional arena plus nodes.
#[derive(Debug, Clone)]
pub struct SceneSpec {
    /// Arena bounds (needed by random-waypoint mobility).
    pub arena: Option<Arena>,
    /// Nodes, ascending by id.
    pub nodes: Vec<NodeSpec>,
}

impl SceneSpec {
    /// Materializes the scene.
    pub fn build(&self) -> Scene {
        let mut s = Scene::new();
        if self.arena.is_some() {
            s.apply(EmuTime::ZERO, &SceneOp::SetArena { arena: self.arena })
                .expect("arena op is always valid");
        }
        for n in &self.nodes {
            s.apply(EmuTime::ZERO, &n.add_op()).expect("generated node ids are unique");
        }
        s
    }
}

/// `n` stationary nodes evenly spaced on a circle, the radio range set so
/// each reaches exactly its four nearest neighbours on either side: a ring
/// lattice with 8 neighbours per node, so every broadcast makes exactly 8
/// copies.
pub fn ring_lattice(n: usize, loss: f64) -> SceneSpec {
    // Chord to the k-th neighbour is 2·r·sin(π·k/n); put the range midway
    // between the 4th and 5th.
    let radius = RANGE / (2.0 * (std::f64::consts::PI * 4.5 / n as f64).sin());
    let nodes = (0..n)
        .map(|i| {
            let a = std::f64::consts::TAU * i as f64 / n as f64;
            NodeSpec {
                id: NodeId(i as u32 + 1),
                pos: Point::new(radius * (1.0 + a.cos()), radius * (1.0 + a.sin())),
                radios: RadioConfig::single(CH, RANGE),
                mobility: MobilityModel::Stationary,
                link: link(loss),
            }
        })
        .collect();
    SceneSpec { arena: None, nodes }
}

/// Side of the square arena the mobile scenes live in: 2×2 cluster tiles
/// of [`TILE_EDGE`].
pub const ARENA_SIDE: f64 = 500.0;
/// Cluster tile edge (≥ the radio range, as the halo invariant needs).
pub const TILE_EDGE: f64 = 250.0;

fn waypoint() -> MobilityModel {
    MobilityModel::RandomWaypoint { min_speed: 5.0, max_speed: 15.0, pause: 0.5 }
}

/// A position for node `i` of `n`: uniform inside its own cell of a square
/// grid over the arena. Nodes start there and scripted moves send them
/// back there (to a fresh point of the cell). Stratified rather than
/// uniform over the whole arena, so the mean neighbour count — and with
/// it the copies a broadcast makes, the records kept and the memory held
/// — barely depends on the seed.
pub fn cell_point(i: usize, n: usize, rng: &mut EmuRng) -> Point {
    let side = (n as f64).sqrt().ceil() as usize;
    let cell = ARENA_SIDE / side as f64;
    Point::new(((i % side) as f64 + rng.unit()) * cell, ((i / side) as f64 + rng.unit()) * cell)
}

/// `n` random-waypoint nodes spread over the arena by `seed`, one channel,
/// `loss` modeled loss: about 25 neighbours each at `n` = 256.
pub fn dense_arena(n: usize, loss: f64, seed: u64) -> SceneSpec {
    let mut rng = EmuRng::seed(seed ^ 0x5CE4E);
    let nodes = (0..n)
        .map(|i| NodeSpec {
            id: NodeId(i as u32 + 1),
            pos: cell_point(i, n, &mut rng),
            radios: RadioConfig::single(CH, RANGE),
            mobility: waypoint(),
            link: link(loss),
        })
        .collect();
    SceneSpec { arena: Some(Arena::new(ARENA_SIDE, ARENA_SIDE)), nodes }
}

/// A scripted move: a random node of `n` sent to a fresh point of its
/// cell. The relink it causes costs the same as a move across the arena
/// (the node's neighbour set is recomputed either way).
pub fn scripted_move(n: usize, rng: &mut EmuRng) -> SceneOp {
    let i = rng.index(n);
    SceneOp::MoveNode { id: NodeId(i as u32 + 1), pos: cell_point(i, n, rng) }
}

/// Channels of the multi-radio scene.
pub const SIM_CHANNELS: u16 = 3;

/// The scripted-run scene: `n` random-waypoint nodes, each with 2 radios
/// over 3 channels, every fourth node's transmissions bound to `profile`.
pub fn multi_radio_arena(n: usize, seed: u64, profile: Option<ProfileId>) -> SceneSpec {
    let mut rng = EmuRng::seed(seed ^ 0x51A1);
    let nodes = (0..n)
        .map(|i| {
            let (a, b) = sim_channels(i);
            let mut link = link(0.05);
            if i % 4 == 0 {
                link.profile = profile;
            }
            NodeSpec {
                id: NodeId(i as u32 + 1),
                pos: cell_point(i, n, &mut rng),
                radios: RadioConfig::multi(&[a, b], RANGE),
                mobility: waypoint(),
                link,
            }
        })
        .collect();
    SceneSpec { arena: Some(Arena::new(ARENA_SIDE, ARENA_SIDE)), nodes }
}

/// The two channels node index `i` of the multi-radio scene is tuned to.
pub fn sim_channels(i: usize) -> (ChannelId, ChannelId) {
    let ch = |k: usize| ChannelId((k % SIM_CHANNELS as usize) as u16 + 1);
    (ch(i), ch(i + 1))
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::Bytes;
    use poem_core::packet::Destination;
    use poem_core::{EmuPacket, PacketId, RadioId};
    use poem_record::Recorder;
    use poem_server::Pipeline;
    use std::sync::Arc;

    #[test]
    fn ring_lattice_gives_every_node_exactly_eight_neighbours() {
        for n in [64, 256] {
            let scene = ring_lattice(n, 0.0).build();
            for i in 1..=n as u32 {
                let nb = scene.route(NodeId(i), CH, Destination::Broadcast);
                assert_eq!(nb.len(), 8, "n={n} node={i}");
            }
            // The unicast workload's fixed neighbour is the next node.
            let next = scene.route(NodeId(n as u32), CH, Destination::Unicast(NodeId(1)));
            assert_eq!(next, vec![NodeId(1)]);
        }
    }

    /// The forward time recomputed outside the program agrees with what
    /// `Pipeline::ingest` schedules, to the nanosecond, for both payload
    /// sizes the real-time workloads send.
    #[test]
    fn recomputed_forward_time_matches_pipeline_fire_at() {
        let scene = ring_lattice(64, 0.0).build();
        let mut pipeline = Pipeline::new(scene, Arc::new(Recorder::new()), EmuRng::seed(7));
        for (k, payload) in [64usize, 1024].into_iter().enumerate() {
            let sent_at = EmuTime::from_nanos(1_234_567_891 + k as u64 * 977);
            let pkt = EmuPacket::new(
                PacketId((3 << 40) | k as u64),
                NodeId(3),
                Destination::Broadcast,
                CH,
                RadioId(0),
                sent_at,
                Bytes::from(vec![0u8; payload]),
            );
            let out = pipeline.ingest(&pkt, sent_at + EmuDuration::from_micros(40));
            assert_eq!(out.len(), 8);
            for d in out {
                assert_eq!(d.fire_at, sent_at + forward_delay(payload), "payload {payload}");
            }
        }
    }

    #[test]
    fn arenas_are_seeded_and_fit_the_tiles() {
        let a = dense_arena(256, 0.05, 9);
        let b = dense_arena(256, 0.05, 9);
        let c = dense_arena(256, 0.05, 10);
        let pos = |s: &SceneSpec| s.nodes.iter().map(|n| (n.pos.x, n.pos.y)).collect::<Vec<_>>();
        assert_eq!(pos(&a), pos(&b));
        assert_ne!(pos(&a), pos(&c));
        const { assert!(RANGE <= TILE_EDGE) };
        let m = multi_radio_arena(256, 9, Some(ProfileId(0)));
        assert_eq!(m.nodes.iter().filter(|n| n.link.profile.is_some()).count(), 64);
        assert!(m.nodes.iter().all(|n| n.radios.len() == 2));
        let mean_nb = {
            let scene = a.build();
            let total: usize =
                (1..=256).map(|i| scene.route(NodeId(i), CH, Destination::Broadcast).len()).sum();
            total as f64 / 256.0
        };
        assert!((15.0..40.0).contains(&mean_nb), "{mean_nb}");
    }
}
