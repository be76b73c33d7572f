//! Property tests for the §4.2 neighbor-table invariant: after *any*
//! sequence of scene operations, both the channel-indexed scheme and the
//! unified baseline agree exactly with a from-scratch recomputation of
//!
//! ```text
//! B ∈ NT(A,k) ⇔ k ∈ CS(A) ∩ CS(B) ∧ D(A,B) ≤ R(A,k)
//! ```
//!
//! The bulk relink (`update_positions`) is held to the same relation and,
//! row for row, to moving the same nodes one `update_position` at a time.

use poem_core::linkmodel::LinkParams;
use poem_core::mobility::{Arena, MobilityModel};
use poem_core::neighbor::{
    brute_force, check_against_brute_force, ChannelIndexedTables, NeighborTables, UnifiedTable,
};
use poem_core::radio::{Radio, RadioConfig};
use poem_core::scene::{Scene, SceneOp};
use poem_core::{ChannelId, EmuRng, EmuTime, NodeId, Point};
use proptest::prelude::*;
use proptest::test_runner::TestCaseError;
use std::collections::BTreeMap;

#[derive(Debug, Clone)]
enum Op {
    Insert { id: u8, x: f64, y: f64, radios: Vec<(u8, f64)> },
    Remove { id: u8 },
    Move { id: u8, x: f64, y: f64 },
    Retune { id: u8, radios: Vec<(u8, f64)> },
}

fn radio_strategy() -> impl Strategy<Value = Vec<(u8, f64)>> {
    prop::collection::vec((0u8..4, 10.0f64..300.0), 1..3)
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        (0u8..10, 0.0f64..400.0, 0.0f64..400.0, radio_strategy())
            .prop_map(|(id, x, y, radios)| Op::Insert { id, x, y, radios }),
        (0u8..10).prop_map(|id| Op::Remove { id }),
        (0u8..10, 0.0f64..400.0, 0.0f64..400.0).prop_map(|(id, x, y)| Op::Move { id, x, y }),
        (0u8..10, radio_strategy()).prop_map(|(id, radios)| Op::Retune { id, radios }),
    ]
}

fn to_config(radios: &[(u8, f64)]) -> RadioConfig {
    RadioConfig::from_radios(
        radios.iter().map(|&(c, r)| Radio::new(ChannelId(c as u16), r)).collect(),
    )
}

fn apply<T: NeighborTables>(t: &mut T, op: &Op) {
    match op {
        Op::Insert { id, x, y, radios } => {
            t.insert_node(NodeId(*id as u32), Point::new(*x, *y), to_config(radios))
        }
        Op::Remove { id } => t.remove_node(NodeId(*id as u32)),
        Op::Move { id, x, y } => t.update_position(NodeId(*id as u32), Point::new(*x, *y)),
        Op::Retune { id, radios } => t.update_radios(NodeId(*id as u32), to_config(radios)),
    }
}

/// Coordinates biased onto the 50-unit lattice so nodes frequently sit
/// *exactly* on grid-cell corners and exactly one range apart (the exact
/// ranges below are all multiples of 50) — the boundary cases where an
/// off-by-one in the 3×3 cell gather or the inclusive distance compare
/// would show.
fn lattice_coord() -> impl Strategy<Value = f64> {
    prop_oneof![(0u8..9).prop_map(|k| k as f64 * 50.0), 0.0f64..400.0]
}

/// 1–2 radios over ≥3 channels with exact lattice-aligned ranges.
fn exact_radio_strategy() -> impl Strategy<Value = Vec<(u8, f64)>> {
    prop::collection::vec(
        (0u8..4, prop_oneof![Just(50.0f64), Just(100.0f64), Just(150.0f64)]),
        1..3,
    )
}

fn boundary_op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        (0u8..10, lattice_coord(), lattice_coord(), exact_radio_strategy())
            .prop_map(|(id, x, y, radios)| Op::Insert { id, x, y, radios }),
        (0u8..10).prop_map(|id| Op::Remove { id }),
        (0u8..10, lattice_coord(), lattice_coord()).prop_map(|(id, x, y)| Op::Move { id, x, y }),
        (0u8..10, exact_radio_strategy()).prop_map(|(id, radios)| Op::Retune { id, radios }),
    ]
}

/// 1–3 radios (so 1–3 channels) with mixed ranges drawn from `range`.
fn multi_radio_strategy(range: std::ops::Range<f64>) -> impl Strategy<Value = Vec<(u8, f64)>> {
    prop::collection::vec((0u8..4, range), 1..4)
}

/// Ops over nodes of 1–3 radios — the bulk relink's op prefixes.
fn multi_radio_op_strategy(range: std::ops::Range<f64>) -> impl Strategy<Value = Op> {
    prop_oneof![
        (0u8..10, 0.0f64..400.0, 0.0f64..400.0, multi_radio_strategy(range.clone()))
            .prop_map(|(id, x, y, radios)| Op::Insert { id, x, y, radios }),
        (0u8..10).prop_map(|id| Op::Remove { id }),
        (0u8..10, 0.0f64..400.0, 0.0f64..400.0).prop_map(|(id, x, y)| Op::Move { id, x, y }),
        (0u8..10, multi_radio_strategy(range)).prop_map(|(id, radios)| Op::Retune { id, radios }),
    ]
}

/// Inserts of nodes 0–9, run ahead of an op prefix so every channel
/// starts with members to sweep.
fn fill_strategy(
    coord: impl Fn() -> BoxedStrategy<f64>,
    radios: impl Strategy<Value = Vec<(u8, f64)>>,
) -> impl Strategy<Value = Vec<Op>> {
    prop::collection::vec((coord(), coord(), radios), 10..11).prop_map(|nodes| {
        nodes
            .into_iter()
            .zip(0u8..)
            .map(|((x, y, radios), id)| Op::Insert { id, x, y, radios })
            .collect()
    })
}

fn uniform_coord() -> BoxedStrategy<f64> {
    (0.0f64..400.0).boxed()
}

/// Lattice points only: with the exact ranges, distances equal to a
/// range and positions on cell corners are common.
fn lattice_point() -> BoxedStrategy<f64> {
    (0u8..9).prop_map(|k| f64::from(k) * 50.0).boxed()
}

/// A mobility batch: 0–23 moves, so channels of up to ten members see
/// mover counts on both sides of the sweep rule. Ids 0–11 repeat often
/// (the last position must win) and include 10 and 11, which no op ever
/// inserts (they must be ignored).
fn batch_strategy(
    coord: impl Fn() -> BoxedStrategy<f64>,
) -> impl Strategy<Value = Vec<(NodeId, Point)>> {
    prop::collection::vec(
        (0u32..12, coord(), coord()).prop_map(|(id, x, y)| (NodeId(id), Point::new(x, y))),
        0..24,
    )
}

/// Runs `prefix` into two structures, moves `batch` through one with
/// `update_positions` and through the other one node at a time, and
/// requires identical rows, positions and membership, and brute-force
/// agreement.
fn check_bulk(prefix: &[Op], batch: &[(NodeId, Point)]) -> Result<(), TestCaseError> {
    let mut bulk = ChannelIndexedTables::new();
    let mut single = ChannelIndexedTables::new();
    for op in prefix {
        apply(&mut bulk, op);
        apply(&mut single, op);
    }
    bulk.update_positions(batch);
    for &(id, pos) in batch {
        single.update_position(id, pos);
    }
    prop_assert_eq!(bulk.node_ids(), single.node_ids(), "membership diverged");
    for id in bulk.node_ids() {
        prop_assert_eq!(bulk.snapshot(id), single.snapshot(id), "node {}", id);
        for ch in 0u16..4 {
            prop_assert_eq!(
                bulk.neighbors(id, ChannelId(ch)),
                single.neighbors(id, ChannelId(ch)),
                "node {} channel {}",
                id,
                ch
            );
        }
    }
    prop_assert!(
        check_against_brute_force(&bulk).is_ok(),
        "{:?}",
        check_against_brute_force(&bulk)
    );
    Ok(())
}

/// A scene of mixed movers — random waypoint, linear, a group leader with
/// two members — and stationary nodes, on 1–2 of three channels.
fn mobile_scene(seed: u64) -> Scene {
    let mut rng = EmuRng::seed(seed);
    let mut s = Scene::new();
    s.apply(EmuTime::ZERO, &SceneOp::SetArena { arena: Some(Arena::new(400.0, 400.0)) })
        .expect("arena op is valid");
    for i in 1..=40u32 {
        let mobility = match i {
            1..=2 => MobilityModel::Linear {
                direction_deg: rng.range_f64(0.0, 360.0),
                speed: rng.range_f64(5.0, 40.0),
            },
            3..=4 => MobilityModel::GroupMember { leader: NodeId(1), max_wander: 5.0 },
            5..=30 => MobilityModel::RandomWaypoint { min_speed: 5.0, max_speed: 60.0, pause: 0.2 },
            _ => MobilityModel::Stationary,
        };
        let ch = |k: u32| ChannelId((k % 3) as u16);
        let radios = if i % 2 == 0 {
            RadioConfig::multi(&[ch(i), ch(i + 1)], rng.range_f64(40.0, 120.0))
        } else {
            RadioConfig::single(ch(i), rng.range_f64(40.0, 120.0))
        };
        let pos = Point::new(rng.range_f64(0.0, 400.0), rng.range_f64(0.0, 400.0));
        let link = LinkParams::default();
        s.apply(EmuTime::ZERO, &SceneOp::AddNode { id: NodeId(i), pos, radios, mobility, link })
            .expect("fresh node id");
    }
    s
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn both_schemes_match_brute_force(ops in prop::collection::vec(op_strategy(), 1..60)) {
        let mut indexed = ChannelIndexedTables::new();
        let mut unified = UnifiedTable::new();
        for op in &ops {
            apply(&mut indexed, op);
            apply(&mut unified, op);
        }
        prop_assert!(check_against_brute_force(&indexed).is_ok(),
            "{:?}", check_against_brute_force(&indexed));
        prop_assert!(check_against_brute_force(&unified).is_ok(),
            "{:?}", check_against_brute_force(&unified));
        // And with each other, over every (node, channel) pair.
        for id in indexed.node_ids() {
            for ch in 0u16..4 {
                prop_assert_eq!(
                    indexed.neighbors(id, ChannelId(ch)),
                    unified.neighbors(id, ChannelId(ch))
                );
            }
        }
    }

    #[test]
    fn brute_force_relation_is_channel_and_range_correct(
        ops in prop::collection::vec(op_strategy(), 1..40)
    ) {
        let mut indexed = ChannelIndexedTables::new();
        for op in &ops {
            apply(&mut indexed, op);
        }
        let mut nodes = BTreeMap::new();
        for id in indexed.node_ids() {
            nodes.insert(id, indexed.snapshot(id).unwrap().clone());
        }
        let rel = brute_force(&nodes);
        for ((a, ch), nbrs) in &rel {
            let sa = &nodes[a];
            // A row only exists for channels in CS(A).
            prop_assert!(sa.radios.listens_on(*ch));
            for b in nbrs {
                let sb = &nodes[b];
                prop_assert!(sb.radios.listens_on(*ch), "neighbor not on channel");
                prop_assert!(
                    sa.pos.distance(sb.pos) <= sa.radios.range_on(*ch).unwrap() + 1e-9,
                    "neighbor out of range"
                );
                prop_assert_ne!(a, b, "no self loops");
            }
        }
    }

    #[test]
    fn indexed_update_work_is_bounded_by_channel_population(
        n_nodes in 4usize..12,
        moves in 1usize..10,
    ) {
        // Every node single-radio; mover on channel 0. The indexed scheme
        // may only evaluate pairs against channel-0 nodes.
        let mut t = ChannelIndexedTables::new();
        let ch0_nodes = n_nodes / 2;
        for i in 0..n_nodes {
            let ch = if i < ch0_nodes { 0 } else { 1 };
            t.insert_node(
                NodeId(i as u32),
                Point::new(i as f64 * 10.0, 0.0),
                RadioConfig::single(ChannelId(ch), 100.0),
            );
        }
        t.reset_work();
        for m in 0..moves {
            t.update_position(NodeId(0), Point::new(m as f64, 5.0));
        }
        let max_checks = (ch0_nodes - 1) * moves;
        prop_assert!(t.work() as usize <= max_checks, "{} > {max_checks}", t.work());
    }

    #[test]
    fn grid_matches_scan_byte_for_byte_on_boundary_heavy_ops(
        ops in prop::collection::vec(boundary_op_strategy(), 1..60)
    ) {
        // The spatial grid is a pure acceleration: after every single op
        // of a boundary-heavy random sequence (nodes exactly on cell
        // corners, distances exactly equal to ranges, retunes that grow
        // the cell), the grid-backed rows must equal the scanning rows
        // exactly, and the final state must match brute force.
        let mut grid = ChannelIndexedTables::new();
        let mut scan = ChannelIndexedTables::without_grid();
        for (step, op) in ops.iter().enumerate() {
            apply(&mut grid, op);
            apply(&mut scan, op);
            for id in grid.node_ids() {
                for ch in 0u16..4 {
                    prop_assert_eq!(
                        grid.neighbors(id, ChannelId(ch)),
                        scan.neighbors(id, ChannelId(ch)),
                        "step {} ({:?}): node {} channel {}", step, op, id, ch
                    );
                }
            }
            prop_assert_eq!(grid.node_ids(), scan.node_ids(), "membership diverged");
        }
        prop_assert!(check_against_brute_force(&grid).is_ok(),
            "{:?}", check_against_brute_force(&grid));
    }

    #[test]
    fn bulk_relink_equals_single_moves_and_brute_force(
        fill in fill_strategy(uniform_coord, multi_radio_strategy(10.0..300.0)),
        ops in prop::collection::vec(multi_radio_op_strategy(10.0..300.0), 0..40),
        batch in batch_strategy(uniform_coord),
    ) {
        check_bulk(&[fill, ops].concat(), &batch)?;
    }

    #[test]
    fn bulk_relink_equals_single_moves_on_cell_corners_and_exact_ranges(
        fill in fill_strategy(|| lattice_coord().boxed(), exact_radio_strategy()),
        ops in prop::collection::vec(boundary_op_strategy(), 0..40),
        batch in batch_strategy(lattice_point),
    ) {
        check_bulk(&[fill, ops].concat(), &batch)?;
    }

    #[test]
    fn bulk_relink_equals_single_moves_after_the_cell_grew(
        fill in fill_strategy(uniform_coord, multi_radio_strategy(10.0..40.0)),
        before in prop::collection::vec(multi_radio_op_strategy(10.0..40.0), 0..30),
        after in prop::collection::vec(
            (0u8..10, 0.0f64..400.0, 0.0f64..400.0).prop_map(|(id, x, y)| Op::Move { id, x, y }),
            0..20,
        ),
        batch in batch_strategy(uniform_coord),
    ) {
        // A long-range radio joins channel 0 mid-run: its cell edge grows
        // from ≤ 40 to 350 and every member is re-bucketed; moves follow.
        let grow = Op::Insert { id: 9, x: 200.0, y: 200.0, radios: vec![(0, 350.0)] };
        let prefix = [fill, before, vec![grow], after].concat();
        let mut probe = ChannelIndexedTables::new();
        for op in &prefix {
            apply(&mut probe, op);
        }
        prop_assert!(probe.grid_cell(ChannelId(0)).is_some_and(|c| c >= 350.0));
        check_bulk(&prefix, &batch)?;
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn advance_mobility_equals_replaying_its_move_rows(seed in any::<u64>()) {
        // What a pipeline records after each step — one `MoveNode` per
        // mobile node — replayed one op at a time must rebuild the tables
        // the bulk step left.
        let mut live = mobile_scene(seed);
        let mut replay = mobile_scene(seed);
        let mut rng = EmuRng::seed(seed ^ 0x5EED);
        for k in 1..=10u64 {
            let to = EmuTime::from_millis(100 * k);
            live.advance_mobility(to, &mut rng);
            for v in live.nodes().filter(|v| v.mobility.is_mobile()) {
                replay
                    .apply(to, &SceneOp::MoveNode { id: v.id, pos: v.pos })
                    .expect("recorded move replays");
            }
            for v in live.nodes() {
                prop_assert_eq!(replay.node(v.id).map(|r| r.pos), Some(v.pos));
                for ch in 0u16..3 {
                    prop_assert_eq!(
                        live.tables().neighbors(v.id, ChannelId(ch)),
                        replay.tables().neighbors(v.id, ChannelId(ch)),
                        "step {} node {} channel {}", k, v.id, ch
                    );
                }
            }
        }
        prop_assert!(check_against_brute_force(live.tables()).is_ok());
    }
}
