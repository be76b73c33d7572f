//! The lookahead window must be *invisible*: `SimNet` in distributed mode
//! defers every packet decision until a copy of it could fire, ships the
//! deferred packets as one batch per shard, and replays the traffic rows
//! it staged meanwhile — and the record logs must come out byte-identical
//! to a single-process run of the same script, whatever the script does.
//!
//! * a seeded property test over random scripts built to hit the window's
//!   edges: an app that answers deliveries from `on_packet`, a zero-delay
//!   link (window of one), a link whose delay equals the tick period with
//!   zero transmission time (copies tie with `Tick` events, so order rides
//!   on the reserved schedule slots), a per-distance delay, profiled
//!   senders, mobility syncs, mid-run ops that change a sender's delay
//!   floor, and faults that skew client stamps and add reorder delay;
//! * exact, host-independent counts: batches per packet on a fixed 64-node
//!   scene with a 2 ms floor and with none;
//! * the failure contract when a worker dies while a window is open.
//!
//! Extra base seeds come from `POEM_CHAOS_SEED=<n>[,<n>...]`, as in
//! `tests/chaos_soak.rs`. Living in `poem-server/tests/` guarantees cargo
//! builds `poem-shardd` before these run.

use bytes::Bytes;
use poem_chaos::{FaultKind, FaultPlan};
use poem_client::app::IdleApp;
use poem_client::{ClientApp, Nic};
use poem_cluster::{ClusterConfig, ClusterError};
use poem_core::linkmodel::{DelayModel, LinkParams};
use poem_core::mobility::{Arena, MobilityModel};
use poem_core::packet::Destination;
use poem_core::radio::RadioConfig;
use poem_core::scene::SceneOp;
use poem_core::{
    ChannelId, EmuDuration, EmuPacket, EmuRng, EmuTime, NodeId, Point, ProfileId, RadioId,
};
use poem_profiles::ProfileLibrary;
use poem_record::TrafficRecord;
use poem_server::sim::{SimConfig, SimNet};
use std::sync::{Arc, Mutex};

const TILE_EDGE: f64 = 260.0;
const ARENA: f64 = 600.0;
const TICK: EmuDuration = EmuDuration::from_millis(10);

/// A two-regime chain and a two-row trace; every delay differs from the
/// analytic ones below so a wrong floor shows.
const PROFILES: &str = "\
profile chain markov dwell 0.2
state clear loss 0.05 bps 6e6 delay 0.003 -> clear 0.7 shadow 0.3
state shadow loss 0.4 bps 1e6 delay 0.0015 -> clear 0.5 shadow 0.5
end
profile rows trace
at 0 loss 0.1 bps 4e6 delay 0.004
at 1 loss 0.3 bps 2e6 delay 0.0005
end
";

/// Sends a ping every tick — broadcast and unicast alternating — and
/// answers every ping it hears from inside `on_packet`, so packets are
/// ingested by `Deliver` events as well as `Tick` events.
struct Echo {
    channel: ChannelId,
    offset: EmuDuration,
    peer: NodeId,
    ticks: u32,
}

impl ClientApp for Echo {
    fn on_start(&mut self, _nic: &mut dyn Nic) -> Option<EmuDuration> {
        Some(self.offset)
    }

    fn on_packet(&mut self, nic: &mut dyn Nic, pkt: EmuPacket) {
        if pkt.payload.first() == Some(&b'p') {
            nic.send(self.channel, Destination::Unicast(pkt.src), Bytes::from_static(b"echo"));
        }
    }

    fn on_tick(&mut self, nic: &mut dyn Nic) -> Option<EmuDuration> {
        self.ticks += 1;
        let dst = if self.ticks.is_multiple_of(2) {
            Destination::Broadcast
        } else {
            Destination::Unicast(self.peer)
        };
        nic.send(self.channel, dst, Bytes::from_static(b"ping"));
        Some(TICK)
    }
}

/// The link kinds a script draws from, by what they do to the window.
fn link(kind: usize) -> LinkParams {
    match kind {
        // No floor: every packet is a window of one.
        0 => LinkParams::ideal(8e6),
        // Delay = tick period, transmission time rounds to 0 ns: copies
        // fall exactly on the sender's (and its phase-mates') next tick.
        1 => LinkParams { delay: DelayModel::Constant(TICK), ..LinkParams::ideal(1e18) },
        2 => LinkParams {
            delay: DelayModel::PerDistance {
                fixed: EmuDuration::from_millis(1),
                per_unit: EmuDuration::from_micros(7),
            },
            ..LinkParams::ideal(8e6)
        },
        3 => LinkParams {
            delay: DelayModel::Constant(EmuDuration::from_millis(2)),
            ..LinkParams::table3()
        },
        // Profiled senders; the analytic delay is the larger bound for the
        // chain and the smaller one for the trace.
        4 => LinkParams {
            delay: DelayModel::Constant(EmuDuration::from_millis(5)),
            profile: Some(ProfileId(0)),
            ..LinkParams::ideal(8e6)
        },
        _ => LinkParams {
            delay: DelayModel::Constant(EmuDuration::from_micros(200)),
            profile: Some(ProfileId(1)),
            ..LinkParams::ideal(8e6)
        },
    }
}

const LINK_KINDS: usize = 6;

fn random_point(rng: &mut EmuRng) -> Point {
    Point::new(rng.range_f64(0.0, ARENA), rng.range_f64(0.0, ARENA))
}

fn random_op(rng: &mut EmuRng, nodes: u32) -> SceneOp {
    let id = NodeId(rng.range_u64(1, u64::from(nodes) + 1) as u32);
    match rng.index(8) {
        0 => SceneOp::MoveNode { id, pos: random_point(rng) },
        1 => SceneOp::SetRadioRange { id, radio: RadioId(0), range: rng.range_f64(100.0, 250.0) },
        2 => SceneOp::SetRadioChannel {
            id,
            radio: RadioId(0),
            channel: ChannelId(rng.range_u64(1, 3) as u16),
        },
        // Changes the sender's delay floor under an open window.
        3 | 4 => SceneOp::SetLinkParams { id, params: link(rng.index(LINK_KINDS)) },
        5 => SceneOp::SetLinkProfile {
            id,
            // Id 2 is not in the library: both sides fall back to analytic.
            profile: rng.chance(0.6).then(|| ProfileId(rng.index(3) as u32)),
        },
        6 => SceneOp::SetMobility {
            id,
            model: if rng.chance(0.5) {
                MobilityModel::Linear {
                    direction_deg: rng.range_f64(0.0, 360.0),
                    speed: rng.range_f64(5.0, 40.0),
                }
            } else {
                MobilityModel::Stationary
            },
        },
        _ => SceneOp::RemoveNode { id },
    }
}

fn random_fault(rng: &mut EmuRng, nodes: u32) -> FaultKind {
    let node = NodeId(rng.range_u64(1, u64::from(nodes) + 1) as u32);
    match rng.index(6) {
        // Client stamps ahead of and behind the server clock.
        0 => FaultKind::ClockSkew { node, offset: EmuDuration::from_millis(7) },
        1 => FaultKind::ClockSkew { node, offset: EmuDuration::from_millis(-4) },
        // A reorder delay drawn at ingest, applied at settle.
        2 => FaultKind::WireReorder { node, prob: 0.5 },
        3 => FaultKind::WireDuplicate { node, prob: 0.5 },
        4 => FaultKind::Stall { node, duration: EmuDuration::from_millis(120) },
        _ => FaultKind::Crash { node, restart_after: Some(EmuDuration::from_millis(150)) },
    }
}

/// Builds the script for `seed`, local or on `workers` shard processes.
/// Both builds consume the script RNG identically.
fn build(seed: u64, workers: u32) -> SimNet {
    let mut rng = EmuRng::seed(seed ^ 0x0057_1AD0);
    let mut net = SimNet::new(SimConfig {
        seed,
        mobility_step: EmuDuration::from_millis(50),
        ..SimConfig::default()
    });
    net.apply_op(SceneOp::SetArena { arena: Some(Arena::new(ARENA, ARENA)) }).expect("arena");
    net.install_profiles(ProfileLibrary::parse(PROFILES).expect("profiles parse"));
    let nodes = rng.range_u64(6, 11) as u32;
    for i in 1..=nodes {
        // The first LINK_KINDS nodes cover every link kind; the rest draw.
        let kind = if (i as usize) <= LINK_KINDS { i as usize - 1 } else { rng.index(LINK_KINDS) };
        let channel = ChannelId(rng.range_u64(1, 3) as u16);
        let radios = if rng.chance(0.3) {
            RadioConfig::multi(&[ChannelId(1), ChannelId(2)], 240.0)
        } else {
            RadioConfig::single(channel, rng.range_f64(150.0, 250.0))
        };
        let mobility = match rng.index(4) {
            0 => MobilityModel::Linear {
                direction_deg: rng.range_f64(0.0, 360.0),
                speed: rng.range_f64(10.0, 60.0),
            },
            1 => MobilityModel::RandomWaypoint { min_speed: 5.0, max_speed: 50.0, pause: 0.1 },
            _ => MobilityModel::Stationary,
        };
        let app = Echo {
            channel,
            // Phases 0/5 ms: many nodes tick at the same instants.
            offset: EmuDuration::from_millis(5 * (1 + rng.range_u64(0, 2) as i64)),
            peer: NodeId(rng.range_u64(1, u64::from(nodes) + 1) as u32),
            ticks: 0,
        };
        net.add_node(
            NodeId(i),
            random_point(&mut rng),
            radios,
            mobility,
            link(kind),
            Box::new(app),
        )
        .expect("fresh node id");
    }
    for _ in 0..rng.range_u64(4, 10) {
        let at = EmuTime::from_micros(rng.range_u64(50_000, 900_000));
        net.schedule_op(at, random_op(&mut rng, nodes));
    }
    let mut plan = FaultPlan::new();
    plan.push(
        EmuTime::from_millis(rng.range_u64(50, 400)),
        FaultKind::ClockSkew { node: NodeId(2), offset: EmuDuration::from_millis(3) },
    );
    for _ in 0..rng.range_u64(1, 4) {
        plan.push(EmuTime::from_millis(rng.range_u64(50, 800)), random_fault(&mut rng, nodes));
    }
    net.install_faults(&plan);
    if workers > 0 {
        net.attach_cluster(ClusterConfig {
            workers,
            tile_edge: TILE_EDGE,
            profiles: Some(PROFILES.to_string()),
            ..ClusterConfig::default()
        })
        .expect("cluster attaches");
    }
    net
}

/// Runs the script in three legs (a window never outlives the call that
/// opened it) with a GUI-style op between two of them, and returns the
/// serialized traffic, scene and fault logs.
fn run_script(seed: u64, workers: u32) -> [Vec<u8>; 3] {
    let mut net = build(seed, workers);
    net.run_until(EmuTime::from_millis(333));
    let _ = net.apply_op(SceneOp::MoveNode { id: NodeId(1), pos: Point::new(300.0, 300.0) });
    net.run_until(EmuTime::from_micros(700_001));
    net.run_until(EmuTime::from_secs(1));
    if let Some(e) = net.cluster_error() {
        panic!("seed {seed}: {workers}-worker run failed: {e}");
    }
    net.shutdown_cluster();
    let rec = net.recorder();
    [
        poem_proto::to_bytes(&rec.traffic()).expect("serialize traffic log"),
        poem_proto::to_bytes(&rec.scene()).expect("serialize scene log"),
        poem_proto::to_bytes(&rec.faults()).expect("serialize fault log"),
    ]
}

fn base_seeds() -> Vec<u64> {
    match std::env::var("POEM_CHAOS_SEED") {
        Ok(s) if !s.trim().is_empty() => s
            .split(',')
            .map(|s| s.trim().parse().unwrap_or_else(|_| panic!("bad POEM_CHAOS_SEED `{s}`")))
            .collect(),
        _ => vec![0xC1A5],
    }
}

#[test]
fn windowed_cluster_runs_match_local_runs_byte_for_byte() {
    const CASES: u64 = 64;
    for base in base_seeds() {
        for case in 0..CASES {
            let seed = base.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(case);
            let [traffic, scene, faults] = run_script(seed, 0);
            let [c_traffic, c_scene, c_faults] = run_script(seed, 2);
            assert!(traffic.len() > 1_000, "seed {seed}: script produced almost no traffic");
            assert!(traffic == c_traffic, "seed {seed}: clustered traffic log diverged");
            assert!(scene == c_scene, "seed {seed}: clustered scene log diverged");
            assert!(faults == c_faults, "seed {seed}: clustered fault log diverged");
        }
    }
}

/// Broadcasts on channel 1 every `period`, first at `offset`.
struct Hello {
    offset: EmuDuration,
    period: EmuDuration,
}

impl ClientApp for Hello {
    fn on_start(&mut self, _nic: &mut dyn Nic) -> Option<EmuDuration> {
        Some(self.offset)
    }
    fn on_packet(&mut self, _nic: &mut dyn Nic, _pkt: EmuPacket) {}
    fn on_tick(&mut self, nic: &mut dyn Nic) -> Option<EmuDuration> {
        nic.send(ChannelId(1), Destination::Broadcast, Bytes::from_static(b"hello"));
        Some(self.period)
    }
}

/// 64 stationary nodes on an 8×8 grid over 2×2 tiles, each broadcasting
/// every 20 ms at its own phase: 3 200 packets per virtual second.
fn grid(delay: DelayModel, workers: u32) -> SimNet {
    let mut net = SimNet::new(SimConfig { seed: 19, ..SimConfig::default() });
    for i in 0..64u32 {
        net.add_node(
            NodeId(i + 1),
            Point::new(30.0 + 60.0 * f64::from(i % 8), 30.0 + 60.0 * f64::from(i / 8)),
            RadioConfig::single(ChannelId(1), 100.0),
            MobilityModel::Stationary,
            LinkParams { delay, ..LinkParams::table3() },
            Box::new(Hello {
                offset: EmuDuration::from_micros(1_000 + 311 * i64::from(i)),
                period: EmuDuration::from_millis(20),
            }),
        )
        .expect("fresh node id");
    }
    if workers > 0 {
        net.attach_cluster(ClusterConfig { workers, tile_edge: TILE_EDGE, ..Default::default() })
            .expect("cluster attaches");
    }
    net
}

/// `(poem_cluster_batches_total, ingress rows)` after one virtual second,
/// having checked the traffic log against the local run's.
fn grid_counts(delay: DelayModel) -> (u64, u64) {
    let run = |workers| {
        let mut net = grid(delay, workers);
        net.run_until(EmuTime::from_secs(1));
        assert!(net.cluster_error().is_none(), "{:?}", net.cluster_error());
        let batches = net.metrics().counter("poem_cluster_batches_total").unwrap_or(0);
        net.shutdown_cluster();
        (net.recorder().traffic(), batches)
    };
    let (local, _) = run(0);
    let (clustered, batches) = run(2);
    assert!(local == clustered, "grid run diverged from the local log");
    let pkts = local.iter().filter(|r| matches!(r, TrafficRecord::Ingress { .. })).count() as u64;
    (batches, pkts)
}

/// ROADMAP 2b: counts, not clocks. Virtual time fixes the window contents,
/// so these hold on any host.
#[test]
fn batches_per_packet_follow_the_delay_floor_exactly() {
    let (batches, pkts) = grid_counts(DelayModel::Constant(EmuDuration::from_millis(2)));
    assert!(pkts >= 3_000, "{pkts} packets");
    assert!(batches > 0 && 2 * batches <= pkts, "{batches} batches for {pkts} packets at 2 ms");

    // No floor: the window degenerates to one packet, one batch each.
    let (batches, pkts) = grid_counts(DelayModel::none());
    assert!(pkts >= 3_000, "{pkts} packets");
    assert_eq!(batches, pkts, "a zero floor must mean one-packet batches");
}

/// Two senders pinned to shard 0, twelve listeners pinned to shard 1, no
/// mobility: shard 1 is never sent a batch, an op or a barrier after
/// launch, so the cross-shard notices bound for it leave only when the
/// notice cork fills — some 20 times in this run. The stream must stay
/// well-formed (no cluster error, shutdown answered) and the logs equal.
#[test]
fn a_shard_that_only_listens_is_written_in_bounded_pieces() {
    let run = |workers: u32| {
        let mut net = SimNet::new(SimConfig { seed: 23, ..SimConfig::default() });
        let mut pins = Vec::new();
        for i in 0..14u32 {
            let sender = i < 2;
            let app: Box<dyn ClientApp> = if sender {
                let offset = EmuDuration::from_micros(500 + 250 * i64::from(i));
                Box::new(Hello { offset, period: EmuDuration::from_micros(500) })
            } else {
                Box::new(IdleApp)
            };
            net.add_node(
                NodeId(i + 1),
                Point::new(10.0 * f64::from(i), 0.0),
                RadioConfig::single(ChannelId(1), 200.0),
                MobilityModel::Stationary,
                LinkParams {
                    delay: DelayModel::Constant(EmuDuration::from_millis(2)),
                    ..LinkParams::ideal(8e6)
                },
                app,
            )
            .expect("fresh node id");
            pins.push((NodeId(i + 1), u32::from(!sender)));
        }
        if workers > 0 {
            net.attach_cluster(ClusterConfig {
                workers,
                tile_edge: TILE_EDGE,
                pins,
                ..Default::default()
            })
            .expect("cluster attaches");
        }
        net.run_until(EmuTime::from_secs(1));
        assert!(net.cluster_error().is_none(), "{:?}", net.cluster_error());
        let cross = net.metrics().counter("poem_cluster_forward_total{kind=\"cross\"}");
        net.shutdown_cluster();
        (net.recorder().traffic(), cross.unwrap_or(0))
    };
    let (local, _) = run(0);
    let (clustered, cross) = run(2);
    // ~4 000 packets × 12 listeners, ~30 B a notice: megabytes, not 64 KiB.
    assert!(cross >= 40_000, "{cross} cross-shard forwards");
    assert!(local == clustered, "listen-only shard run diverged from the local log");
}

/// Kills every worker from inside `on_tick` — the only way to act while a
/// window is open, since no window outlives a public call.
struct Killer {
    at: EmuDuration,
    pids: Arc<Mutex<Vec<u32>>>,
}

impl ClientApp for Killer {
    fn on_start(&mut self, _nic: &mut dyn Nic) -> Option<EmuDuration> {
        Some(self.at)
    }
    fn on_packet(&mut self, _nic: &mut dyn Nic, _pkt: EmuPacket) {}
    fn on_tick(&mut self, _nic: &mut dyn Nic) -> Option<EmuDuration> {
        for pid in self.pids.lock().expect("pid list").iter() {
            let killed = std::process::Command::new("kill")
                .args(["-9", &pid.to_string()])
                .status()
                .expect("spawn kill");
            assert!(killed.success(), "kill -9 {pid} failed");
        }
        None
    }
}

/// One sender every 1 ms over a 2 ms link keeps a window open at all times
/// after its first packet: the window opened at 10 ms closes at 12 ms (both
/// packets decided, the first one's copy firing at once), the one opened
/// at 12 ms is open while the second one's copy fires at 13 ms (its row is
/// staged) and while the fleet is killed at 13.5 ms, and fails to close
/// at 14 ms.
#[test]
fn worker_killed_under_an_open_window_keeps_decided_rows_and_drops_pending_ones() {
    struct EveryMs;
    impl ClientApp for EveryMs {
        fn on_start(&mut self, _nic: &mut dyn Nic) -> Option<EmuDuration> {
            Some(EmuDuration::from_millis(10))
        }
        fn on_packet(&mut self, _nic: &mut dyn Nic, _pkt: EmuPacket) {}
        fn on_tick(&mut self, nic: &mut dyn Nic) -> Option<EmuDuration> {
            nic.send(ChannelId(1), Destination::Broadcast, Bytes::from_static(b"x"));
            Some(EmuDuration::from_millis(1))
        }
    }
    let pids = Arc::new(Mutex::new(Vec::new()));
    let two_ms = LinkParams {
        delay: DelayModel::Constant(EmuDuration::from_millis(2)),
        ..LinkParams::ideal(1e18)
    };
    let mut net = SimNet::new(SimConfig::default());
    let apps: [(u32, f64, u16, Box<dyn ClientApp>); 3] = [
        (1, 0.0, 1, Box::new(EveryMs)),
        (2, 50.0, 1, Box::new(IdleApp)),
        // Off-channel: hears nothing, only holds the trigger.
        (
            3,
            100.0,
            2,
            Box::new(Killer { at: EmuDuration::from_micros(13_500), pids: pids.clone() }),
        ),
    ];
    for (id, x, channel, app) in apps {
        net.add_node(
            NodeId(id),
            Point::new(x, 0.0),
            RadioConfig::single(ChannelId(channel), 100.0),
            MobilityModel::Stationary,
            two_ms,
            app,
        )
        .expect("fresh node id");
    }
    net.attach_cluster(ClusterConfig { workers: 2, tile_edge: TILE_EDGE, ..Default::default() })
        .expect("cluster attaches");
    *pids.lock().expect("pid list") = net.cluster().expect("attached").worker_pids();

    net.run_until(EmuTime::from_millis(40));

    match net.cluster_error() {
        Some(
            ClusterError::ShardDied { .. }
            | ClusterError::ShardTimeout { .. }
            | ClusterError::Io(_),
        ) => {}
        other => panic!("expected a structured shard-death error, got {other:?}"),
    }
    let ms = EmuTime::from_millis;
    let id_of = |r: &TrafficRecord| r.packet_id();
    let traffic = net.recorder().traffic();
    let sent: Vec<_> = traffic
        .iter()
        .filter(|r| matches!(r, TrafficRecord::Ingress { .. }))
        .map(|r| (id_of(r), r.at()))
        .collect();
    // Decided before the kill: the packets of 10 and 11 ms. Pending at the
    // failed close (12, 13 ms) and everything after: no row at all.
    assert_eq!(sent.iter().map(|&(_, at)| at).collect::<Vec<_>>(), [ms(10), ms(11)]);
    // Their copies fired; the second into the open window, where its row
    // was staged — the failed close still wrote it.
    let fired: Vec<_> = traffic[2..].iter().map(|r| (id_of(r), r.at())).collect();
    assert_eq!(fired, [(sent[0].0, ms(12)), (sent[1].0, ms(13))]);
    assert!(traffic[2..].iter().all(|r| matches!(r, TrafficRecord::Forward { to: NodeId(2), .. })));
}
