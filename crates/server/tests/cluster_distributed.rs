//! Distributed determinism, end to end: the same scripted multi-channel
//! scenario run single-process and sharded across real `poem-shardd`
//! worker processes must produce **byte-identical** record logs.
//!
//! This is the contract that makes the cluster a drop-in scale-out of the
//! virtual frontend: packet decisions are a pure function of
//! `(seed, packet id)` (`poem_core::rng::decide_rng`), the coordinator
//! settles batches in submission order, and epochs are barriered — so
//! placement (1, 2 or 4 workers, rebalancing, halos) is invisible in the
//! recorded traffic and scene logs.
//!
//! Living in `poem-server/tests/` guarantees cargo builds the
//! `poem-shardd` binary before these run; the coordinator then finds it
//! next to the test executable's target directory.

use bytes::Bytes;
use poem_client::{ClientApp, Nic};
use poem_core::packet::Destination;
use poem_core::scene::SceneOp;
use poem_core::{ChannelId, EmuDuration, EmuPacket, EmuTime, NodeId};
use poem_server::script::Script;
use poem_server::sim::{SimConfig, SimNet};

/// Multi-channel, mobile, op-heavy scenario: two channels, a dual-radio
/// bridge node, scripted mobility, a range shrink, a retune, a removal
/// and a teleport — every cluster code path (halo diffs, op routing,
/// membership changes) gets exercised while traffic flows.
const SCENARIO: &str = r"
    at 0   add VMN1 0 0     radio ch1 220
    at 0   add VMN2 150 0   radio ch1 220 radio ch2 220
    at 0   add VMN3 300 0   radio ch2 220
    at 0   add VMN4 150 150 radio ch1 220
    at 0   add VMN5 0 150   radio ch1 220
    at 0   add VMN6 320 170 radio ch2 220

    at 4   mobility VMN4 linear 180 12
    at 6   range VMN1 radio0 120
    at 10  retune VMN3 radio0 ch1
    at 14  remove VMN5
    at 18  move VMN4 80 40
";

/// Alternating broadcaster/unicaster: exercises fan-out, the unicast
/// no-route path, and cross-shard forwarding.
struct MixedSender {
    channel: ChannelId,
    peer: NodeId,
    remaining: usize,
}

impl ClientApp for MixedSender {
    fn on_start(&mut self, _nic: &mut dyn Nic) -> Option<EmuDuration> {
        Some(EmuDuration::from_millis(700))
    }

    fn on_packet(&mut self, _nic: &mut dyn Nic, _pkt: EmuPacket) {}

    fn on_tick(&mut self, nic: &mut dyn Nic) -> Option<EmuDuration> {
        if self.remaining == 0 {
            return None;
        }
        self.remaining -= 1;
        let dst = if self.remaining.is_multiple_of(2) {
            Destination::Broadcast
        } else {
            Destination::Unicast(self.peer)
        };
        nic.send(self.channel, dst, Bytes::from_static(b"cluster-determinism"));
        if self.remaining > 0 {
            Some(EmuDuration::from_millis(700))
        } else {
            None
        }
    }
}

/// Builds the scenario net. `workers == 0` runs single-process.
fn build(seed: u64, workers: u32) -> SimNet {
    let script = Script::parse(SCENARIO).expect("valid scenario");
    let mut net = SimNet::new(SimConfig { seed, ..SimConfig::default() });
    let ids: Vec<NodeId> = script
        .entries()
        .iter()
        .filter_map(|e| match &e.op {
            SceneOp::AddNode { id, .. } if e.at == EmuTime::ZERO => Some(*id),
            _ => None,
        })
        .collect();
    for entry in script.entries() {
        if let (true, SceneOp::AddNode { id, pos, radios, mobility, link }) =
            (entry.at == EmuTime::ZERO, &entry.op)
        {
            let slot = ids.iter().position(|n| n == id).expect("listed");
            let app = MixedSender {
                channel: radios.channels().into_iter().next().expect("has a radio"),
                peer: ids[(slot + 1) % ids.len()],
                remaining: 10,
            };
            net.add_node(*id, *pos, radios.clone(), *mobility, *link, Box::new(app))
                .expect("valid node");
        } else {
            net.schedule_op(entry.at, entry.op.clone());
        }
    }
    if workers > 0 {
        net.attach_cluster(poem_cluster::ClusterConfig {
            workers,
            tile_edge: 260.0,
            ..poem_cluster::ClusterConfig::default()
        })
        .expect("cluster attaches");
    }
    net
}

/// Runs to completion and returns the serialized traffic and scene logs.
fn run_once(seed: u64, workers: u32) -> (Vec<u8>, Vec<u8>) {
    let mut net = build(seed, workers);
    net.run_until(EmuTime::from_secs(25));
    if let Some(e) = net.cluster_error() {
        panic!("{workers}-worker run failed: {e}");
    }
    net.shutdown_cluster();
    let recorder = net.recorder();
    let traffic = poem_proto::to_bytes(&recorder.traffic()).expect("serialize traffic log");
    let scene = poem_proto::to_bytes(&recorder.scene()).expect("serialize scene log");
    (traffic, scene)
}

#[test]
fn two_workers_match_the_single_process_logs_byte_for_byte() {
    let (traffic_one, scene_one) = run_once(42, 0);
    let (traffic_two, scene_two) = run_once(42, 2);
    assert!(!traffic_one.is_empty(), "scenario produced no traffic records");
    assert_eq!(traffic_one, traffic_two, "2-worker traffic log diverged from single-process");
    assert_eq!(scene_one, scene_two, "2-worker scene log diverged from single-process");
}

#[test]
fn four_workers_match_the_single_process_logs_byte_for_byte() {
    let (traffic_one, scene_one) = run_once(7, 0);
    let (traffic_four, scene_four) = run_once(7, 4);
    assert!(!traffic_one.is_empty(), "scenario produced no traffic records");
    assert_eq!(traffic_one, traffic_four, "4-worker traffic log diverged from single-process");
    assert_eq!(scene_one, scene_four, "4-worker scene log diverged from single-process");
}

#[test]
fn killed_worker_surfaces_a_structured_error_instead_of_hanging() {
    let mut net = build(3, 2);
    // Advance far enough that the fleet is live and mid-workload.
    net.run_until(EmuTime::from_secs(2));
    assert!(net.cluster_error().is_none(), "healthy cluster errored early");

    let pid = net.cluster().expect("cluster attached").worker_pids()[0];
    let killed = std::process::Command::new("kill")
        .args(["-9", &pid.to_string()])
        .status()
        .expect("spawn kill");
    assert!(killed.success(), "kill -9 {pid} failed");
    // Wait until the OS has reaped enough for the death to be observable.
    for _ in 0..200 {
        let alive = std::process::Command::new("kill")
            .args(["-0", &pid.to_string()])
            .status()
            .map(|s| s.success())
            .unwrap_or(false);
        if !alive {
            break;
        }
        std::thread::sleep(std::time::Duration::from_millis(10));
    }

    // The run must complete (no hung barrier) and surface a structured
    // error; after the first failure the harness stops mirroring instead
    // of silently forking the log with a local fallback.
    net.run_until(EmuTime::from_secs(25));
    match net.cluster_error() {
        Some(
            poem_cluster::ClusterError::ShardDied { .. }
            | poem_cluster::ClusterError::ShardTimeout { .. }
            | poem_cluster::ClusterError::Io(_),
        ) => {}
        other => panic!("expected a structured shard-death error, got {other:?}"),
    }
}

#[test]
fn two_workers_count_the_single_process_packets_copies_and_drops() {
    let counts = |workers: u32| {
        let mut net = build(42, workers);
        net.run_until(EmuTime::from_secs(25));
        if let Some(e) = net.cluster_error() {
            panic!("{workers}-worker run failed: {e}");
        }
        net.shutdown_cluster();
        let snap = net.metrics();
        ["poem_ingest_packets_total", "poem_ingest_deliveries_total", "poem_drops_total"]
            .map(|family| (family, snap.counter_family(family)))
    };
    let local = counts(0);
    assert!(local.iter().all(|&(_, n)| n > 0), "scenario left a counter at zero: {local:?}");
    assert_eq!(counts(2), local, "a 2-worker run counts what the local run counts");
}
