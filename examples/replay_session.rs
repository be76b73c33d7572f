//! Post-emulation replay (§3.2 step 7 / Table 1): run an emulation with
//! mobility and interactive scene ops, persist both logs to disk, load
//! them back (asserting the traffic log equals the live one), and step through the
//! reconstructed run.
//!
//! ```sh
//! cargo run --example replay_session
//! ```

use poem::core::linkmodel::LinkParams;
use poem::core::mobility::MobilityModel;
use poem::core::radio::RadioConfig;
use poem::core::scene::SceneOp;
use poem::core::{ChannelId, EmuTime, NodeId, Point};
use poem::record::{Recorder, ReplayEngine};
use poem::routing::{Router, RouterConfig};
use poem::server::sim::{SimConfig, SimNet};
use poem::server::viz;

fn main() {
    // --- live run ---------------------------------------------------
    let mut net = SimNet::new(SimConfig { seed: 7, ..SimConfig::default() });
    for (id, x, mobility) in [
        (1u32, 0.0, MobilityModel::Stationary),
        (2u32, 100.0, MobilityModel::Linear { direction_deg: 90.0, speed: 8.0 }),
        (3u32, 200.0, MobilityModel::random_walk(2.0, 6.0, 1.0)),
    ] {
        net.add_node(
            NodeId(id),
            Point::new(x, 0.0),
            RadioConfig::single(ChannelId(1), 150.0),
            mobility,
            LinkParams::ideal(11.0e6),
            Box::new(Router::new(RouterConfig::hybrid())),
        )
        .unwrap();
    }
    // An interactive op mid-run: drag VMN1 northwards at t = 4 s.
    net.schedule_op(
        EmuTime::from_secs(4),
        SceneOp::MoveNode { id: NodeId(1), pos: Point::new(0.0, 60.0) },
    );
    net.run_until(EmuTime::from_secs(8));
    println!("=== live final scene (t = 8 s) ===\n{}", viz::render_scene(net.scene(), 44, 10));

    // --- persist ------------------------------------------------------
    let dir = std::env::temp_dir().join(format!("poem-replay-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let stem = dir.join("session");
    net.recorder().save(&stem).unwrap();
    let (traffic, ops) = net.recorder().counts();
    println!("persisted {traffic} traffic records and {ops} scene ops under {}", dir.display());

    // --- reload + replay ----------------------------------------------
    let loaded = Recorder::load(&stem).unwrap();
    assert_eq!(loaded.traffic(), net.recorder().traffic(), "reloaded traffic log differs");
    let engine = ReplayEngine::new(loaded.scene());
    let (first, last) = engine.span().unwrap();
    println!("\nreplaying {} ops spanning {first} .. {last}", engine.len());

    for t in [0u64, 2, 4, 6, 8] {
        let snap = engine.scene_at(EmuTime::from_secs(t)).unwrap();
        println!("--- t = {t} s ---");
        for v in snap.nodes() {
            println!("  {} at {}", v.id, v.pos);
        }
    }

    println!("\n=== run summary ===\n{}", poem::server::viz::render_run_summary(&loaded.scene()));

    // The replayed end state matches the live one exactly.
    let replayed = engine.scene_at(EmuTime::from_secs(8)).unwrap();
    for v in net.scene().nodes() {
        let r = replayed.node(v.id).unwrap();
        assert!(r.pos.distance(v.pos) < 1e-9, "{}: {} vs {}", v.id, r.pos, v.pos);
    }
    println!("\nreplayed final scene matches the live run exactly ✓");
    std::fs::remove_dir_all(&dir).ok();
}
