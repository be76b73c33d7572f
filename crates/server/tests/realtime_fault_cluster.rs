//! Real-time fault injection with a worker fleet attached: the scene legs
//! a fault driver applies must reach the fleet's mirror scenes, exactly
//! like a scene op applied through `ServerHandle::apply_op`, or the
//! workers keep deciding on the scene as it was before the fault.
//!
//! Living in `poem-server/tests/` guarantees cargo builds `poem-shardd`
//! before this runs.

use bytes::Bytes;
use poem_chaos::{FaultKind, FaultPlan};
use poem_client::EmuClient;
use poem_cluster::ClusterConfig;
use poem_core::clock::{Clock, WallClock};
use poem_core::linkmodel::LinkParams;
use poem_core::mobility::MobilityModel;
use poem_core::packet::Destination;
use poem_core::radio::RadioConfig;
use poem_core::scene::{Scene, SceneOp};
use poem_core::{ChannelId, EmuDuration, EmuTime, NodeId, Point, RadioId};
use poem_record::{DropReason, TrafficRecord};
use poem_server::{ServerConfig, ServerHandle};
use std::sync::Arc;
use std::time::{Duration, Instant};

fn radios() -> RadioConfig {
    RadioConfig::single(ChannelId(1), 100.0)
}

#[test]
fn jam_legs_reach_the_worker_fleet() {
    let mut scene = Scene::new();
    for (id, x) in [(1u32, 0.0), (2, 60.0)] {
        let add = SceneOp::AddNode {
            id: NodeId(id),
            pos: Point::new(x, 0.0),
            radios: radios(),
            mobility: MobilityModel::Stationary,
            link: LinkParams::ideal(8e6),
        };
        scene.apply(EmuTime::ZERO, &add).expect("fresh node");
    }
    let clock: Arc<dyn Clock> = Arc::new(WallClock::new());
    let server = ServerHandle::start(scene, clock, ServerConfig::default()).expect("server starts");
    server
        .attach_cluster(ClusterConfig { workers: 1, tile_edge: 260.0, ..ClusterConfig::default() })
        .expect("fleet attaches");
    let connect = |id: u32| {
        let clock: Arc<dyn Clock> = Arc::new(WallClock::new());
        EmuClient::connect_tcp(server.addr(), NodeId(id), radios(), clock).expect("client connects")
    };
    let (c1, c2) = (connect(1), connect(2));

    let mut plan = FaultPlan::new();
    plan.push(
        EmuTime::ZERO,
        FaultKind::Jam { channel: ChannelId(1), duration: EmuDuration::from_secs(60) },
    );
    let driver = server.spawn_fault_driver(&plan, None).expect("driver spawns");
    // The jam is in once the local scene shows node 1's radio dark.
    let deadline = Instant::now() + Duration::from_secs(5);
    let range =
        || server.with_scene(|s| s.node(NodeId(1))?.radios.get(RadioId(0)).map(|r| r.range));
    while range() != Some(0.0) {
        assert!(Instant::now() < deadline, "jam never applied");
        std::thread::sleep(Duration::from_millis(5));
    }

    c1.send(ChannelId(1), Destination::Unicast(NodeId(2)), Bytes::from_static(b"jammed"))
        .expect("send")
        .expect("radio on ch1");
    let outcome = loop {
        let traffic = server.recorder().traffic();
        let rows: Vec<TrafficRecord> = traffic
            .into_iter()
            .filter(|r| {
                matches!(
                    r,
                    TrafficRecord::Forward { to: NodeId(2), .. }
                        | TrafficRecord::Drop { to: NodeId(2), .. }
                )
            })
            .collect();
        if !rows.is_empty() {
            break rows;
        }
        assert!(Instant::now() < deadline, "the unicast was never decided");
        std::thread::sleep(Duration::from_millis(5));
    };
    assert!(
        matches!(outcome.as_slice(), [TrafficRecord::Drop { reason: DropReason::NoRoute, .. }]),
        "a jammed unicast must drop as no-route, got {outcome:?}"
    );
    assert!(server.cluster_attached(), "the fleet decided the packet");

    drop((c1, c2));
    server.shutdown();
    driver.join().expect("driver exits on shutdown");
}
