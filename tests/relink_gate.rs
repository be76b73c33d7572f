//! Exact-count gate for the bulk relink: distance evaluations counted by
//! the neighbor tables' work meter, not clocks, so every assertion holds
//! on any host.
//!
//! * a full mobility step on the shared 256-node arena sweeps at most
//!   three fifths of the evaluations the per-node path makes on an
//!   identically built structure, with identical rows;
//! * a batch of one mover falls back to the per-node path and does
//!   exactly its work;
//! * scan mode (`without_grid`, experiment E7) keeps the paper's
//!   per-move accounting under `update_positions`.

mod common;

use poem_core::neighbor::{check_against_brute_force, ChannelIndexedTables, NeighborTables};
use poem_core::radio::RadioConfig;
use poem_core::{ChannelId, EmuRng, NodeId, Point};

fn assert_same_rows(a: &ChannelIndexedTables, b: &ChannelIndexedTables, what: &str) {
    assert_eq!(a.node_ids(), b.node_ids(), "{what}: membership");
    for id in a.node_ids() {
        for ch in 1..=3u16 {
            let ch = ChannelId(ch);
            assert_eq!(a.neighbors(id, ch), b.neighbors(id, ch), "{what}: {id} on {ch}");
        }
    }
}

#[test]
fn a_mobility_step_sweeps_at_most_three_fifths_of_the_per_node_work() {
    let mut scene = common::mobile_arena(0xA7E4A);
    let mut bulk = common::tables_of(&scene);
    let mut per_node = common::tables_of(&scene);
    let mut rng = EmuRng::seed(24);
    for k in 1..=20 {
        let moves = common::step(&mut scene, k, &mut rng);
        assert_eq!(moves.len(), common::NODES as usize);
        bulk.reset_work();
        per_node.reset_work();
        bulk.update_positions(&moves);
        for &(id, pos) in &moves {
            per_node.update_position(id, pos);
        }
        let (swept, single) = (bulk.work(), per_node.work());
        assert!(swept * 5 <= single * 3, "step {k}: swept {swept} vs per-node {single}");
        assert_same_rows(&bulk, &per_node, &format!("step {k}"));
    }
    check_against_brute_force(&bulk).expect("swept rows match brute force");
}

#[test]
fn a_batch_of_one_mover_does_exactly_the_per_node_work() {
    let mut scene = common::mobile_arena(0xA7E4A);
    let mut bulk = common::tables_of(&scene);
    let mut per_node = common::tables_of(&scene);
    let mut rng = EmuRng::seed(25);
    let moves = common::step(&mut scene, 1, &mut rng);
    for &(id, pos) in moves.iter().step_by(17) {
        bulk.reset_work();
        per_node.reset_work();
        bulk.update_positions(&[(id, pos)]);
        per_node.update_position(id, pos);
        assert!(per_node.work() > 0, "{id} has no candidates");
        assert_eq!(bulk.work(), per_node.work(), "{id}");
    }
    assert_same_rows(&bulk, &per_node, "single movers");
}

#[test]
fn scan_mode_keeps_the_per_move_accounting() {
    // The stream of the neighbor module's
    // `grid_reduces_update_work_at_least_five_fold`: 300 nodes, range 150,
    // a 2000 × 2000 field, 100 moves — here as one batch.
    let mut scan = ChannelIndexedTables::without_grid();
    let mut rng = EmuRng::seed(11);
    for i in 0..300u32 {
        let pos = Point::new(rng.range_f64(0.0, 2000.0), rng.range_f64(0.0, 2000.0));
        scan.insert_node(NodeId(i), pos, RadioConfig::single(ChannelId(1), 150.0));
    }
    let mut rng = EmuRng::seed(12);
    let moves: Vec<(NodeId, Point)> = (0..100)
        .map(|_| {
            let id = NodeId(rng.index(300) as u32);
            (id, Point::new(rng.range_f64(0.0, 2000.0), rng.range_f64(0.0, 2000.0)))
        })
        .collect();
    scan.reset_work();
    scan.update_positions(&moves);
    assert_eq!(scan.work(), 100 * 299);
    check_against_brute_force(&scan).expect("scan rows match brute force");
}
