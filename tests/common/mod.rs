//! The fixed, seeded mobile arena the bulk-relink gates run on: 256
//! random-waypoint nodes over a 500 × 500 arena, each with two radios of
//! range 100 over three channels — the shape of the multi-radio scripted
//! scene, built here so the gates depend on nothing outside the program.

use poem_core::linkmodel::LinkParams;
use poem_core::mobility::{Arena, MobilityModel};
use poem_core::neighbor::{ChannelIndexedTables, NeighborTables};
use poem_core::radio::RadioConfig;
use poem_core::scene::{Scene, SceneOp};
use poem_core::{ChannelId, EmuRng, EmuTime, NodeId, Point};

/// Nodes in the arena.
pub const NODES: u32 = 256;

/// The arena for `seed`.
pub fn mobile_arena(seed: u64) -> Scene {
    let mut rng = EmuRng::seed(seed);
    let mut s = Scene::new();
    s.apply(EmuTime::ZERO, &SceneOp::SetArena { arena: Some(Arena::new(500.0, 500.0)) })
        .expect("arena op is valid");
    let ch = |k: u32| ChannelId((k % 3) as u16 + 1);
    for i in 0..NODES {
        s.apply(
            EmuTime::ZERO,
            &SceneOp::AddNode {
                id: NodeId(i + 1),
                pos: Point::new(rng.range_f64(0.0, 500.0), rng.range_f64(0.0, 500.0)),
                radios: RadioConfig::multi(&[ch(i), ch(i + 1)], 100.0),
                mobility: MobilityModel::RandomWaypoint {
                    min_speed: 5.0,
                    max_speed: 15.0,
                    pause: 0.5,
                },
                link: LinkParams::default(),
            },
        )
        .expect("fresh node id");
    }
    s
}

/// A channel-indexed structure holding the scene's nodes, inserted one at
/// a time in id order — call twice for two identically built structures.
pub fn tables_of(scene: &Scene) -> ChannelIndexedTables {
    let mut t = ChannelIndexedTables::new();
    for v in scene.nodes() {
        t.insert_node(v.id, v.pos, v.radios.clone());
    }
    t
}

/// Integrates the `k`-th 100 ms mobility step and returns every node's
/// position after it.
pub fn step(scene: &mut Scene, k: u64, rng: &mut EmuRng) -> Vec<(NodeId, Point)> {
    scene.advance_mobility(EmuTime::from_millis(100 * k), rng);
    scene.nodes().map(|v| (v.id, v.pos)).collect()
}
