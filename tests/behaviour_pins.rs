//! Behaviour pins: one committed 64-bit digest per deterministic run.
//!
//! Each digest is FNV-1a over the `poem_proto::to_bytes` traffic, scene
//! and fault logs of one virtual-time run, in that order. The runs cover
//! the committed scenario library (with its profiles and scripted
//! faults), the chaos script of `replay_determinism`, and the full fault
//! plan of `chaos_soak` at its default seeds, and a CSMA + power-metered
//! run whose digest also covers the energy ledger. A refactor that claims to
//! keep behaviour must leave every digest unchanged; a deliberate
//! behaviour change updates the table below in the same commit and says
//! why.

use bytes::Bytes;
use poem_chaos::{FaultKind, FaultPlan};
use poem_client::{ClientApp, Nic};
use poem_core::energy::PowerProfile;
use poem_core::linkmodel::LinkParams;
use poem_core::mac::MacModel;
use poem_core::mobility::MobilityModel;
use poem_core::packet::Destination;
use poem_core::radio::RadioConfig;
use poem_core::scene::SceneOp;
use poem_core::{ChannelId, EmuDuration, EmuPacket, EmuTime, NodeId, Point, RadioId};
use poem_profiles::ProfileLibrary;
use poem_record::Recorder;
use poem_routing::{Router, RouterConfig};
use poem_server::script::Script;
use poem_server::sim::{SimConfig, SimNet};
use poem_server::PipelineConfig;

/// The committed digests, one per named run.
const PINS: &[(&str, u64)] = &[
    ("scenario/urban_canyon", 0xb8db04c45695700e),
    ("scenario/vehicle_convoy", 0xcb3416c5b7ef3757),
    ("scenario/disaster_relief", 0xa635cb939d954faf),
    ("scenario/drone_mesh_leo", 0x53a268e0c9ef5087),
    ("replay/chaos_script", 0x5f169550cbc2b604),
    ("soak/full_plan/7", 0x3c460c88cc712f26),
    ("soak/full_plan/42", 0x1a5a666c9a920108),
    ("soak/full_plan/1337", 0x87eb30a022f7e3ad),
    ("models/csma_energy", 0x2c38b87cfc784ee2),
];

/// 64-bit FNV-1a.
fn fnv1a(bytes: &[u8], mut hash: u64) -> u64 {
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// The digest of one run's traffic, scene and fault logs.
fn digest(recorder: &Recorder) -> u64 {
    let traffic = poem_proto::to_bytes(&recorder.traffic()).expect("serialize traffic");
    let scene = poem_proto::to_bytes(&recorder.scene()).expect("serialize scene");
    let faults = poem_proto::to_bytes(&recorder.faults()).expect("serialize faults");
    [traffic, scene, faults].iter().fold(0xcbf2_9ce4_8422_2325, |h, log| fnv1a(log, h))
}

/// A finite-budget sender: alternates broadcasts with unicasts to a fixed
/// peer, then goes quiet so every copy settles before the run ends.
struct Chatter {
    channel: ChannelId,
    peer: NodeId,
    remaining: u32,
    gap: EmuDuration,
    seq: u32,
}

impl Chatter {
    fn new(channel: ChannelId, peer: NodeId, remaining: u32, gap_ms: i64) -> Self {
        Chatter { channel, peer, remaining, gap: EmuDuration::from_millis(gap_ms), seq: 0 }
    }

    fn emit(&mut self, nic: &mut dyn Nic) -> Option<EmuDuration> {
        if self.remaining == 0 {
            return None;
        }
        self.remaining -= 1;
        self.seq += 1;
        let dest = if self.seq.is_multiple_of(2) {
            Destination::Unicast(self.peer)
        } else {
            Destination::Broadcast
        };
        nic.send(self.channel, dest, Bytes::from(format!("pin-{}", self.seq)));
        Some(self.gap)
    }
}

impl ClientApp for Chatter {
    fn on_start(&mut self, nic: &mut dyn Nic) -> Option<EmuDuration> {
        self.emit(nic)
    }

    fn on_packet(&mut self, _nic: &mut dyn Nic, _pkt: EmuPacket) {}

    fn on_tick(&mut self, nic: &mut dyn Nic) -> Option<EmuDuration> {
        self.emit(nic)
    }
}

const SCENARIOS: &[(&str, &str, &str)] = &[
    (
        "urban_canyon",
        include_str!("../scenarios/urban_canyon.poem"),
        include_str!("../scenarios/urban_canyon.profile"),
    ),
    (
        "vehicle_convoy",
        include_str!("../scenarios/vehicle_convoy.poem"),
        include_str!("../scenarios/vehicle_convoy.profile"),
    ),
    (
        "disaster_relief",
        include_str!("../scenarios/disaster_relief.poem"),
        include_str!("../scenarios/disaster_relief.profile"),
    ),
    (
        "drone_mesh_leo",
        include_str!("../scenarios/drone_mesh_leo.poem"),
        include_str!("../scenarios/drone_mesh_leo.profile"),
    ),
];

/// A committed scenario with its profiles and scripted faults, a chatter
/// on every node's first channel.
fn scenario_run(script: &str, profile: &str) -> u64 {
    let lib = ProfileLibrary::parse(profile).expect("profile parses");
    let script = Script::parse(script).expect("script parses");
    let mut net = SimNet::new(SimConfig { seed: 42, ..SimConfig::default() });
    script.install_with_profiles(&mut net, &lib).expect("bindings resolve");
    let roster: Vec<(NodeId, ChannelId)> = net
        .scene()
        .nodes()
        .filter_map(|v| v.radios.channels().into_iter().next().map(|ch| (v.id, ch)))
        .collect();
    for (i, &(id, channel)) in roster.iter().enumerate() {
        let peer = roster[(i + 1) % roster.len()].0;
        net.attach_app(id, Box::new(Chatter::new(channel, peer, 24, 400))).expect("node exists");
    }
    net.run_until(EmuTime::from_secs(25));
    digest(&net.recorder())
}

/// `replay_determinism`'s chaos script: every fault layer over scripted
/// scene churn, hybrid routers on every node.
const CHAOS_SCENARIO: &str = r"
    at 0   add VMN1 0 0     radio ch1 220
    at 0   add VMN2 150 0   radio ch1 220 radio ch2 220
    at 0   add VMN3 300 0   radio ch2 220
    at 0   add VMN4 150 150 radio ch1 220
    at 0   add VMN5 0 150   radio ch1 220

    at 4   mobility VMN4 linear 180 12
    at 6   range VMN1 radio0 120
    at 10  retune VMN3 radio0 ch1
    at 18  move VMN4 80 40

    at 1   fault corrupt VMN2 0.2
    at 1   fault duplicate VMN1 0.15
    at 2   fault truncate VMN3 0.1
    at 2   fault reorder VMN4 0.25
    at 3   fault stall VMN2 2
    at 5   fault flap VMN1 radio0 0.4 3
    at 6   fault jam ch2 2
    at 7   fault skew VMN3 0.5
    at 7   fault jitter VMN4 0.02
    at 9   fault slowreader VMN1 4 2
    at 11  fault crash VMN5 restart 4
    at 20  fault disconnect VMN3
";

fn chaos_script_run() -> u64 {
    let script = Script::parse(CHAOS_SCENARIO).expect("valid chaos scenario");
    let mut net = SimNet::new(SimConfig { seed: 42, ..SimConfig::default() });
    let mut senders = Vec::new();
    for entry in script.entries() {
        if let SceneOp::AddNode { id, pos, radios, mobility, link } = &entry.op {
            let router = Router::new(RouterConfig::hybrid());
            senders.push(router.handles());
            net.add_node(*id, *pos, radios.clone(), *mobility, *link, Box::new(router))
                .expect("valid node");
        } else {
            net.schedule_op(entry.at, entry.op.clone());
        }
    }
    net.install_faults(script.faults());
    for (i, h) in senders.iter().enumerate() {
        let dst = NodeId(1 + ((i as u32 + 1) % 5));
        for k in 0..4u32 {
            h.tx.lock().push_back((dst, format!("pkt-{i}-{k}").into_bytes()));
        }
    }
    net.run_until(EmuTime::from_secs(30));
    digest(&net.recorder())
}

/// `chaos_soak`'s plan: all four chaos layers, stall, flap and corruption
/// overlapping in (2 s, 5 s).
fn full_plan() -> FaultPlan {
    let mut plan = FaultPlan::new();
    plan.push(EmuTime::from_secs(1), FaultKind::WireCorrupt { node: NodeId(2), prob: 0.2 })
        .push(EmuTime::from_secs(1), FaultKind::WireTruncate { node: NodeId(3), prob: 0.1 })
        .push(EmuTime::from_secs(1), FaultKind::WireDuplicate { node: NodeId(1), prob: 0.15 })
        .push(EmuTime::from_secs(1), FaultKind::WireReorder { node: NodeId(4), prob: 0.25 })
        .push(
            EmuTime::from_secs(2),
            FaultKind::Stall { node: NodeId(2), duration: EmuDuration::from_secs(3) },
        )
        .push(
            EmuTime::from_secs(2),
            FaultKind::LinkFlap {
                node: NodeId(1),
                radio: RadioId(0),
                factor: 0.4,
                duration: EmuDuration::from_secs(3),
            },
        )
        .push(
            EmuTime::from_secs(4),
            FaultKind::Jam { channel: ChannelId(2), duration: EmuDuration::from_secs(2) },
        )
        .push(
            EmuTime::from_secs(6),
            FaultKind::SlowReader {
                node: NodeId(4),
                buffer: 2,
                duration: EmuDuration::from_secs(2),
            },
        )
        .push(
            EmuTime::from_secs(7),
            FaultKind::ClockSkew { node: NodeId(3), offset: EmuDuration::from_millis(500) },
        )
        .push(
            EmuTime::from_secs(7),
            FaultKind::ClockJitter { node: NodeId(4), std_dev: EmuDuration::from_millis(20) },
        )
        .push(
            EmuTime::from_secs(9),
            FaultKind::Crash { node: NodeId(5), restart_after: Some(EmuDuration::from_secs(4)) },
        )
        .push(EmuTime::from_secs(20), FaultKind::Disconnect { node: NodeId(3) });
    plan
}

fn soak_run(seed: u64) -> u64 {
    let mut net = SimNet::new(SimConfig { seed, ..SimConfig::default() });
    for (id, x, y) in
        [(1u32, 0.0, 0.0), (2, 150.0, 0.0), (3, 300.0, 0.0), (4, 150.0, 150.0), (5, 0.0, 150.0)]
    {
        let channel = ChannelId(if id == 3 { 2 } else { 1 });
        let peer = NodeId(1 + (id % 5));
        net.add_node(
            NodeId(id),
            Point::new(x, y),
            RadioConfig::single(channel, 220.0),
            MobilityModel::Stationary,
            LinkParams::ideal(8e6),
            Box::new(Chatter::new(channel, peer, 24, 600)),
        )
        .expect("valid node");
    }
    net.install_faults(&full_plan());
    net.run_until(EmuTime::from_secs(25));
    digest(&net.recorder())
}

/// The MAC and energy layers around the decision kernel: CSMA over a
/// slow shared channel with power metering on. Nodes 1 and 3 cannot hear
/// each other but both reach node 2 (hidden terminals collide there);
/// nodes 1, 4 and 5 sit within carrier-sense range of each other (they
/// defer). The digest folds in every node's energy account after the
/// logs, so a change to what is metered flips it too.
fn csma_energy_run() -> u64 {
    let models = PipelineConfig { mac: MacModel::Csma, power: Some(PowerProfile::wifi_11b()) };
    let mut net = SimNet::new(SimConfig { seed: 42, models, ..SimConfig::default() });
    let nodes =
        [(1u32, 0.0, 0.0), (2, 150.0, 0.0), (3, 300.0, 0.0), (4, 60.0, 80.0), (5, 0.0, 120.0)];
    for &(id, x, y) in &nodes {
        let peer = NodeId(1 + (id % 5));
        net.add_node(
            NodeId(id),
            Point::new(x, y),
            RadioConfig::single(ChannelId(1), 180.0),
            MobilityModel::Stationary,
            LinkParams::ideal(250e3),
            Box::new(Chatter::new(ChannelId(1), peer, 40, 30 + 7 * i64::from(id))),
        )
        .expect("valid node");
    }
    net.run_until(EmuTime::from_secs(10));
    let pipeline = net.pipeline();
    assert!(pipeline.collision_drops() > 0, "no hidden-terminal collision");
    assert!(pipeline.csma_deferrals() > 0, "no carrier-sense deferral");
    let book = pipeline.energy().expect("power metering on");
    nodes.iter().fold(digest(&net.recorder()), |h, &(id, ..)| {
        let account = book.account(NodeId(id)).expect("metered node");
        fnv1a(&poem_proto::to_bytes(account).expect("serialize account"), h)
    })
}

#[test]
fn every_pinned_run_keeps_its_digest() {
    let mut actual: Vec<(String, u64)> = SCENARIOS
        .iter()
        .map(|(name, script, profile)| (format!("scenario/{name}"), scenario_run(script, profile)))
        .collect();
    actual.push(("replay/chaos_script".into(), chaos_script_run()));
    for seed in [7, 42, 1337] {
        actual.push((format!("soak/full_plan/{seed}"), soak_run(seed)));
    }
    actual.push(("models/csma_energy".into(), csma_energy_run()));
    let table: String =
        actual.iter().map(|(name, d)| format!("    (\"{name}\", {d:#018x}),\n")).collect();
    let pinned: Vec<(String, u64)> = PINS.iter().map(|&(n, d)| (n.to_string(), d)).collect();
    assert_eq!(actual, pinned, "behaviour drifted; the digests of this build are:\n{table}");
}
