//! `sim_cluster_2w`: the virtual-time harness over a two-worker cluster.
//!
//! 256 random-waypoint nodes with 2 radios over 3 channels across 2×2
//! tiles, a Markov profile from `scenarios/urban_canyon.profile` bound to
//! a quarter of them, every node a 10 Hz HELLO broadcast plus a 10 Hz
//! unicast stream to the node nearest to it at the start. The same script
//! runs once per run on a plain single-process `SimNet`: decisions are a
//! pure function of `(seed, packet id)`, so its copy and drop counts are
//! the correctness reference for every clustered repetition.

use crate::affinity;
use crate::procfs;
use crate::scenes::{self, SceneSpec};
use crate::spec;
use crate::trace::{Tracer, NONE};
use bytes::Bytes;
use poem_client::{ClientApp, Nic};
use poem_cluster::ClusterConfig;
use poem_core::packet::Destination;
use poem_core::scene::SceneOp;
use poem_core::{ChannelId, EmuDuration, EmuPacket, EmuRng, EmuTime, NodeId};
use poem_obs::MetricsSnapshot;
use poem_profiles::ProfileLibrary;
use poem_record::TrafficRecord;
use poem_server::{SimConfig, SimNet};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The committed profile file the scenario binds a quarter of its nodes to.
pub const PROFILE_TEXT: &str = include_str!("../../scenarios/urban_canyon.profile");
/// The profile used from it.
pub const PROFILE_NAME: &str = "canyon_los";

/// Nodes in the scene.
pub const NODES: usize = 256;
/// Shard worker processes.
pub const WORKERS: u32 = 2;
/// Payload of both traffic kinds.
const PAYLOAD: usize = 64;
/// Each app alternates HELLO and data every half period: 10 Hz each.
const HALF_PERIOD: EmuDuration = EmuDuration::from_millis(50);

/// What the hosted apps saw: packets they sent and copies delivered to
/// them. Counted client-side, so checking a run needs no copy of its
/// record log (which would double the peak memory being measured).
#[derive(Debug, Default)]
struct Tally {
    sent: AtomicU64,
    received: AtomicU64,
}

/// The per-node traffic source: a 10 Hz HELLO broadcast alternating over
/// the node's two radios, interleaved with a 10 Hz unicast to `peer`.
struct HelloCbr {
    offset: EmuDuration,
    channels: [ChannelId; 2],
    peer: NodeId,
    ticks: u64,
    payload: Bytes,
    tally: Arc<Tally>,
}

impl ClientApp for HelloCbr {
    fn on_start(&mut self, _nic: &mut dyn Nic) -> Option<EmuDuration> {
        Some(self.offset)
    }

    fn on_packet(&mut self, _nic: &mut dyn Nic, _pkt: EmuPacket) {
        self.tally.received.fetch_add(1, Ordering::Relaxed);
    }

    fn on_tick(&mut self, nic: &mut dyn Nic) -> Option<EmuDuration> {
        let k = self.ticks;
        self.ticks += 1;
        let (channel, dst) = if k.is_multiple_of(2) {
            (self.channels[(k / 2 % 2) as usize], Destination::Broadcast)
        } else {
            (self.channels[0], Destination::Unicast(self.peer))
        };
        if nic.send(channel, dst, self.payload.clone()).is_some() {
            self.tally.sent.fetch_add(1, Ordering::Relaxed);
        }
        Some(HALF_PERIOD)
    }
}

/// The scenario for `seed`: scene, parsed profile library and each node's
/// unicast peer.
pub struct Scenario {
    /// The scene.
    pub scene: SceneSpec,
    /// Parsed `urban_canyon.profile`.
    pub library: ProfileLibrary,
    peers: Vec<NodeId>,
    seed: u64,
}

impl Scenario {
    /// Generates the scenario.
    pub fn new(seed: u64) -> Scenario {
        let library = ProfileLibrary::parse(PROFILE_TEXT).expect("committed profile file parses");
        let scene = scenes::multi_radio_arena(NODES, seed, library.id_of(PROFILE_NAME));
        // Unicast peer: the nearest other node sharing the sender's first
        // channel at time zero.
        let peers = scene
            .nodes
            .iter()
            .enumerate()
            .map(|(i, n)| {
                let ch = scenes::sim_channels(i).0;
                scene
                    .nodes
                    .iter()
                    .filter(|m| m.id != n.id && m.radios.listens_on(ch))
                    .min_by(|a, b| n.pos.distance(a.pos).total_cmp(&n.pos.distance(b.pos)))
                    .map(|m| m.id)
                    .expect("more than one node listens on every channel")
            })
            .collect();
        Scenario { scene, library, peers, seed }
    }

    /// Builds the harness: `SimNet::new`, arena, profiles, nodes and apps.
    pub fn build(&self) -> Harness {
        let tally = Arc::new(Tally::default());
        let mut sim = SimNet::new(SimConfig { seed: self.seed, ..SimConfig::default() });
        sim.apply_op(SceneOp::SetArena { arena: self.scene.arena }).expect("arena op is valid");
        sim.install_profiles(self.library.clone());
        let mut rng = EmuRng::seed(self.seed ^ 0x0FF5E7);
        for (i, n) in self.scene.nodes.iter().enumerate() {
            let (a, b) = scenes::sim_channels(i);
            let app = HelloCbr {
                offset: EmuDuration::from_micros(rng.range_u64(1, 50_000) as i64),
                channels: [a, b],
                peer: self.peers[i],
                ticks: 0,
                payload: Bytes::from(vec![0u8; PAYLOAD]),
                tally: Arc::clone(&tally),
            };
            sim.add_node(n.id, n.pos, n.radios.clone(), n.mobility, n.link, Box::new(app))
                .expect("generated node ids are unique");
        }
        Harness { sim, tally }
    }

    /// The cluster the workload attaches: two workers over 2×2 tiles.
    /// The worker is this executable re-run with the coordinator address
    /// as its only argument (see `main`): the same `poem_cluster::worker`
    /// loop `poem-shardd` wraps, without a second binary to build.
    pub fn cluster_config(&self) -> ClusterConfig {
        ClusterConfig {
            workers: WORKERS,
            tile_edge: scenes::TILE_EDGE,
            profiles: Some(PROFILE_TEXT.to_string()),
            binary: Some(std::env::current_exe().expect("the running executable has a path")),
            // The default 20 ms poll tick quantizes the launch (12 or
            // 30 ms by whether the workers connect before the first
            // accept); 1 ms keeps `setup_s` continuous. The limit keeps
            // the default's 10 s before a worker is declared hung.
            poll_tick: Duration::from_millis(1),
            poll_limit: 10_000,
            ..ClusterConfig::default()
        }
    }
}

/// Packet, copy and drop totals of a record log.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Counts {
    /// Ingress records.
    pub pkts: u64,
    /// Forward records: copies delivered.
    pub copies: u64,
    /// Drop records.
    pub drops: u64,
}

/// A built harness and its apps' tally.
pub struct Harness {
    /// The virtual-time harness.
    pub sim: SimNet,
    tally: Arc<Tally>,
}

impl Harness {
    /// Totals so far: packets and copies as the apps counted them, drops
    /// as what remains of the traffic log's rows (one per ingress, forward
    /// and drop).
    pub fn counts(&self) -> Counts {
        let pkts = self.tally.sent.load(Ordering::Relaxed);
        let copies = self.tally.received.load(Ordering::Relaxed);
        let rows = self.sim.recorder().counts().0 as u64;
        Counts { pkts, copies, drops: rows.saturating_sub(pkts + copies) }
    }
}

/// What one clustered repetition measured.
#[derive(Debug, Default, Clone)]
pub struct SimRep {
    /// `SimNet::new` + nodes + `attach_cluster`.
    pub setup_s: f64,
    /// `SimNet::attach_cluster` alone.
    pub launch_s: f64,
    /// Wall time of the timed section.
    pub wall_s: f64,
    /// Totals at the end of the run (warm-up included).
    pub total: Counts,
    /// Totals of the timed section.
    pub timed: Counts,
    /// Bench process + worker CPU over the timed section.
    pub cpu_ns: u64,
    /// The workers' share of it.
    pub worker_cpu_ns: u64,
    /// Peak resident set of the repetition, KiB: the bench process's plus
    /// the workers'.
    pub peak_rss_kb: u64,
    /// Resident-set growth of the bench process over the timed section.
    pub rss_growth_kb: i64,
    /// Virtual seconds the whole run covered (warm-up included).
    pub virtual_s: f64,
    /// `MoveNode` rows in the scene log: one per mobile node per mobility
    /// step.
    pub moves: u64,
    /// Pipeline + cluster counters at the end.
    pub metrics: MetricsSnapshot,
    /// Output-check failures; empty = correct.
    pub problems: Vec<String>,
}

fn warmup_end(vsecs: f64) -> EmuTime {
    EmuTime::from_secs_f64(vsecs * spec::WARMUP_SHARE)
}

fn run_end(vsecs: f64) -> EmuTime {
    EmuTime::from_secs_f64(vsecs * (1.0 + spec::WARMUP_SHARE))
}

/// Builds the harness and attaches the cluster; the workers start on the
/// program's CPU. Returns the harness, set-up time and launch time.
fn setup(scenario: &Scenario) -> (Harness, f64, f64) {
    let started = Instant::now();
    let mut harness = scenario.build();
    let launch_started = Instant::now();
    affinity::on_program_cpu(|| harness.sim.attach_cluster(scenario.cluster_config()))
        .expect("two workers launch");
    let launch_s = launch_started.elapsed().as_secs_f64();
    (harness, started.elapsed().as_secs_f64(), launch_s)
}

/// One repetition on the cluster: `setup_cycles` set-ups (all but the last
/// torn down at once; `setup_s` is their mean), untimed warm-up, `vsecs`
/// timed virtual seconds, teardown.
pub fn repetition(
    scenario: &Scenario,
    vsecs: f64,
    setup_cycles: usize,
    tracer: Option<&mut Tracer>,
) -> SimRep {
    procfs::reset_peak_rss();
    let mut setup_total_s = 0.0;
    for _ in 1..setup_cycles {
        let (mut harness, setup_s, _) = setup(scenario);
        setup_total_s += setup_s;
        harness.sim.shutdown_cluster();
    }
    let (mut harness, setup_s, launch_s) = setup(scenario);
    let mut rep = SimRep {
        launch_s,
        setup_s: (setup_total_s + setup_s) / setup_cycles.max(1) as f64,
        ..SimRep::default()
    };
    let pids = harness.sim.cluster().expect("just attached").worker_pids();
    let worker_cpu = || pids.iter().map(|p| procfs::process_cpu_ns(*p)).sum::<u64>();
    let me = std::process::id();

    harness.sim.run_until(warmup_end(vsecs));
    let before = harness.counts();
    let rss0 = procfs::vm_kb(me, "VmRSS") as i64;
    let (cpu0, wcpu0) = (procfs::process_cpu_ns(me), worker_cpu());
    let t0 = Instant::now();
    let span_start = tracer.as_ref().map(|t| t.now());
    harness.sim.run_until(run_end(vsecs));
    rep.wall_s = t0.elapsed().as_secs_f64();
    if let (Some(t), Some(start_ns)) = (tracer, span_start) {
        let end_ns = t.now();
        t.push("sim.run_until", start_ns, end_ns, NONE, NONE);
    }
    rep.worker_cpu_ns = worker_cpu() - wcpu0;
    rep.cpu_ns = procfs::process_cpu_ns(me) - cpu0 + rep.worker_cpu_ns;
    rep.rss_growth_kb = procfs::vm_kb(me, "VmRSS") as i64 - rss0;
    rep.peak_rss_kb =
        procfs::peak_rss_kb() + pids.iter().map(|p| procfs::vm_kb(*p, "VmHWM")).sum::<u64>();

    rep.total = harness.counts();
    let sim = &mut harness.sim;
    if let Some(e) = sim.cluster_error() {
        rep.problems.push(format!("cluster failed mid-run: {e}"));
    }
    rep.timed = Counts {
        pkts: rep.total.pkts - before.pkts,
        copies: rep.total.copies - before.copies,
        drops: rep.total.drops - before.drops,
    };
    rep.virtual_s = run_end(vsecs).as_secs_f64();
    rep.moves =
        sim.recorder().scene().iter().filter(|r| matches!(r.op, SceneOp::MoveNode { .. })).count()
            as u64;
    rep.metrics = sim.metrics();
    sim.shutdown_cluster();
    rep
}

/// The single-process reference run of the same script.
#[derive(Debug, Clone)]
pub struct Reference {
    /// Totals at the end of the run.
    pub total: Counts,
    /// Copies per wall second of its timed section.
    pub copies_per_s: f64,
    /// The first ingress packets, in order, for the stage replay.
    pub packets: Vec<EmuPacket>,
}

/// Runs the script on a plain `SimNet`, keeping the first `keep` ingress
/// packets.
pub fn reference(scenario: &Scenario, vsecs: f64, keep: usize) -> Reference {
    let mut harness = scenario.build();
    harness.sim.run_until(warmup_end(vsecs));
    let before = harness.counts();
    let t0 = Instant::now();
    harness.sim.run_until(run_end(vsecs));
    let wall_s = t0.elapsed().as_secs_f64();
    let total = harness.counts();
    let copies_per_s = (total.copies - before.copies) as f64 / wall_s;
    // An ingress row carries every packet field but the payload bytes
    // (all zero here) and the radio slot (the sender's radio on that
    // channel), so the packet stream is rebuilt from the log — in the
    // traced pass only (`keep` > 0): it copies the whole log.
    let log = if keep > 0 { harness.sim.recorder().traffic() } else { Vec::new() };
    let packets = log
        .into_iter()
        .filter_map(|r| match r {
            TrafficRecord::Ingress { id, src, dst, channel, bytes, sent_at, .. } => {
                let radios = &scenario.scene.nodes[src.0 as usize - 1].radios;
                let radio = poem_client::nic::radio_for(radios, channel)?;
                let payload = vec![0u8; bytes as usize - poem_core::packet::HEADER_BYTES];
                Some(EmuPacket::new(id, src, dst, channel, radio, sent_at, payload))
            }
            _ => None,
        })
        .take(keep)
        .collect();
    Reference { total, copies_per_s, packets }
}
