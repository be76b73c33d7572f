//! Quickstart: emulate a three-node multi-radio MANET in-process, run the
//! hybrid routing protocol on every node, and inspect what happened.
//!
//! ```sh
//! cargo run --example quickstart
//! ```

use poem::core::linkmodel::LinkParams;
use poem::core::mobility::MobilityModel;
use poem::core::radio::RadioConfig;
use poem::core::{ChannelId, EmuTime, NodeId, Point};
use poem::routing::{Router, RouterConfig};
use poem::server::sim::{SimConfig, SimNet};
use poem::server::viz;

fn main() {
    // A deterministic in-process emulation (virtual time, seeded).
    let mut net = SimNet::new(SimConfig { seed: 42, ..SimConfig::default() });

    // Three VMNs: two on channel 1, a dual-radio node bridging to
    // channel 2 — the multi-radio topology of the paper's Fig. 9.
    let ch1 = ChannelId(1);
    let ch2 = ChannelId(2);
    let nodes = [
        (NodeId(1), Point::new(0.0, 0.0), RadioConfig::single(ch1, 200.0)),
        (NodeId(2), Point::new(120.0, 0.0), RadioConfig::multi(&[ch1, ch2], 200.0)),
        (NodeId(3), Point::new(240.0, 0.0), RadioConfig::single(ch2, 200.0)),
    ];

    // Every node runs the real hybrid routing protocol (periodic
    // broadcasting + on-demand discovery) as its client app.
    let mut handles = Vec::new();
    for (id, pos, radios) in nodes {
        let router = Router::new(RouterConfig::hybrid());
        handles.push((id, router.handles()));
        net.add_node(
            id,
            pos,
            radios,
            MobilityModel::Stationary,
            LinkParams::ideal(11.0e6), // lossless 11 Mbps links
            Box::new(router),
        )
        .expect("valid scene");
    }

    // Let the protocol converge for five emulated seconds (instant in
    // wall time — this is virtual-time emulation).
    net.run_until(EmuTime::from_secs(5));

    println!("=== scene ===\n{}", viz::render_scene(net.scene(), 48, 8));
    println!("=== channel-indexed neighbor tables ===\n{}", viz::render_neighbors(net.scene()));

    println!("=== routing tables after 5 s ===");
    for (id, h) in &handles {
        println!("[{id}]\n{}", h.table.lock().render());
    }

    // Send application data end-to-end across the two channels: queue it
    // on VMN1's router and run a little longer.
    handles[0].1.tx.lock().push_back((NodeId(3), b"hello over two radios".to_vec()));
    net.run_until(EmuTime::from_secs(7));

    let received = handles[2].1.received.lock();
    println!("=== VMN3 received ===");
    for r in received.iter() {
        println!(
            "from {} seq {} after {}: {:?}",
            r.origin,
            r.seq,
            r.delivered_at - r.sent_at,
            String::from_utf8_lossy(&r.payload)
        );
    }
    assert!(!received.is_empty(), "data must arrive via the dual-radio relay");

    let (traffic, scene_ops) = net.recorder().counts();
    println!("\nrecorder captured {traffic} traffic events and {scene_ops} scene ops");
}
