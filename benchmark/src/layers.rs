//! The traced pass's per-layer measurements, taken from outside the
//! program through each layer's public functions.
//!
//! *Stage replay*: the workload's first packets go, on the bench thread,
//! through the public per-stage calls in path order — encode → decode →
//! `Pipeline::ingest` (with `Scene::route_into` and `Scene::decide` also
//! timed standalone on the same packet, for ingest's self time) → schedule
//! push → pop → encode → decode → record append — one span per call.
//! Per-copy stages (pop, encode, record) run as one loop per packet turn
//! and are recorded as one span covering that turn's copies, which keeps
//! the span log in the hundreds of thousands; their per-copy cost is the
//! stage total over the copies handled.
//!
//! Stage microbenchmarks cover the calls a packet does not make: relink on
//! a move, a mobility step, a profile lookup, saving the record log, and
//! (for the clustered workload) a `Coordinator` driven directly.

use crate::alloc::thread_allocs;
use crate::scenes::{self, SceneSpec};
use crate::sim::Scenario;
use crate::trace::{StageStats, Tracer, NONE};
use poem_cluster::Coordinator;
use poem_core::neighbor::NeighborTables;
use poem_core::rng::decide_rng;
use poem_core::{EmuDuration, EmuPacket, EmuRng, EmuTime, ForwardSchedule, NodeId, ProfileId};
use poem_obs::Registry;
use poem_profiles::{ProfileBook, ProfileLibrary};
use poem_proto::{encode_frame, ClientMsg, FrameDecoder, ServerMsg};
use poem_record::{Recorder, TrafficRecord};
use poem_server::{Delivery, Pipeline};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

/// Per-layer metric values by name.
pub type Metrics = BTreeMap<&'static str, f64>;

/// Stage names whose self times add up to the traced share of
/// `cpu_us_per_copy` (`core.route`/`core.decide` are inside
/// `engine.ingest` and must not be counted twice).
const PATH_STAGES: &[&str] = &[
    "proto.encode_data",
    "proto.decode_data",
    "engine.ingest",
    "core.sched_push",
    "core.sched_pop",
    "proto.encode_deliver",
    "proto.decode_deliver",
    "record.append",
];

/// What the stage replay counted.
#[derive(Debug, Default, Clone, Copy)]
pub struct ReplayCounts {
    /// Packets replayed.
    pub pkts: u64,
    /// Routing targets over all packets.
    pub targets: u64,
    /// Copies the pipeline decided to forward.
    pub copies: u64,
    /// Copies it dropped.
    pub drops: u64,
    /// Copies popped off the schedule and taken through the per-copy
    /// stages (the last `depth` stay scheduled).
    pub popped: u64,
    /// Heap allocations inside `Pipeline::ingest`.
    pub allocs: u64,
    /// Bytes of one `DeliverTo` frame (constant per workload).
    pub wire_bytes: u64,
}

/// Replays `packets` through the per-stage calls over `scene`, keeping the
/// schedule about `depth` entries deep. Stops after `max_copies` decided
/// copies. Spans go to `t`; the pipeline's recorder is returned for the
/// save measurement.
pub fn stage_replay(
    t: &mut Tracer,
    scene: &SceneSpec,
    profiles: Option<&ProfileLibrary>,
    seed: u64,
    packets: impl Iterator<Item = EmuPacket>,
    depth: usize,
    max_copies: usize,
) -> (ReplayCounts, Arc<Recorder>) {
    let recorder = Arc::new(Recorder::new());
    let mut pipeline = Pipeline::new(scene.build(), Arc::clone(&recorder), EmuRng::seed(seed));
    if let Some(lib) = profiles {
        pipeline.install_profiles(lib.clone(), seed);
    }
    let mut schedule: ForwardSchedule<Delivery> = ForwardSchedule::new();
    let (mut server_rx, mut client_rx) = (FrameDecoder::new(), FrameDecoder::new());
    let mut targets: Vec<NodeId> = Vec::new();
    let mut due: Vec<Delivery> = Vec::new();
    let mut frames: Vec<Vec<u8>> = Vec::new();
    let mut c = ReplayCounts::default();

    for pkt in packets {
        if c.copies as usize >= max_copies {
            break;
        }
        let id = pkt.id.0;
        c.pkts += 1;
        let msg = ClientMsg::Data(pkt);
        let frame = t.span("proto.encode_data", NONE, id, || encode_frame(&msg)).expect("encodes");
        let decoded = t.span("proto.decode_data", NONE, id, || {
            server_rx.feed(&frame);
            server_rx.next_msg::<ClientMsg>()
        });
        let Ok(Some(ClientMsg::Data(pkt))) = decoded else {
            panic!("a frame this program encoded must decode");
        };

        let allocs_before = thread_allocs();
        let ingest = t.begin("engine.ingest", NONE, id);
        let deliveries = pipeline.ingest(&pkt, pkt.sent_at);
        t.end(ingest);
        c.allocs += thread_allocs() - allocs_before;

        // The same packet's route and decisions, standalone: their spans
        // name the ingest span as parent so its self time excludes them.
        t.span("core.route", ingest, id, || {
            pipeline.scene().route_into(pkt.src, pkt.channel, pkt.dst, &mut targets)
        });
        let mut rng = decide_rng(pipeline.decide_base(), pkt.id);
        t.span("core.decide", ingest, id, || {
            for &to in &targets {
                let d =
                    pipeline.scene().decide(pkt.src, to, pkt.channel, pkt.wire_size(), &mut rng);
                black_box(d);
            }
        });
        c.targets += targets.len() as u64;
        c.copies += deliveries.len() as u64;
        c.drops += (targets.len() - deliveries.len()) as u64;

        t.span("core.sched_push", NONE, id, || {
            for d in deliveries {
                schedule.schedule(d.fire_at, d);
            }
        });
        due.clear();
        t.span("core.sched_pop", NONE, id, || {
            while schedule.len() > depth {
                match schedule.pop_due(EmuTime::MAX) {
                    Some((_, d)) => due.push(d),
                    None => break,
                }
            }
        });
        c.popped += due.len() as u64;
        frames.clear();
        t.span("proto.encode_deliver", NONE, id, || {
            for d in &due {
                let msg = ServerMsg::DeliverTo {
                    to: d.to,
                    packet: d.packet.clone(),
                    forwarded_at: d.fire_at,
                };
                frames.push(encode_frame(&msg).expect("encodes"));
            }
        });
        t.span("record.append", NONE, id, || {
            for d in &due {
                recorder.record_traffic(TrafficRecord::Forward {
                    id: d.packet.id,
                    to: d.to,
                    at: d.fire_at,
                });
            }
        });
        t.span("proto.decode_deliver", NONE, id, || {
            for f in &frames {
                client_rx.feed(f);
                black_box(client_rx.next_msg::<ServerMsg>().expect("decodes"));
            }
        });
        if let Some(f) = frames.first() {
            c.wire_bytes = f.len() as u64;
        }
    }
    (c, recorder)
}

/// Turns the replay's spans and counts into per-layer metrics.
pub fn replay_metrics(stats: &BTreeMap<&'static str, StageStats>, c: &ReplayCounts) -> Metrics {
    let total = |name: &str| stats.get(name).map_or(0.0, |s| s.total_ns);
    let self_ns = |name: &str| stats.get(name).map_or(0.0, |s| s.self_ns);
    let pkts = c.pkts.max(1) as f64;
    let copies = c.copies.max(1) as f64;
    let popped = c.popped.max(1) as f64;
    Metrics::from([
        (
            "proto.encode_ns_per_frame",
            (total("proto.encode_data") + total("proto.encode_deliver")) / (pkts + popped),
        ),
        (
            "proto.decode_ns_per_frame",
            (total("proto.decode_data") + total("proto.decode_deliver")) / (pkts + popped),
        ),
        ("proto.wire_bytes_per_copy", c.wire_bytes as f64),
        ("core.route_ns_per_pkt", total("core.route") / pkts),
        ("core.targets_per_pkt", c.targets as f64 / pkts),
        ("core.decide_ns_per_copy", total("core.decide") / c.targets.max(1) as f64),
        ("core.sched_push_ns", total("core.sched_push") / copies),
        ("core.sched_pop_ns", total("core.sched_pop") / popped),
        ("engine.ingest_ns_per_pkt", total("engine.ingest") / pkts),
        ("engine.ingest_self_ns_per_pkt", self_ns("engine.ingest") / pkts),
        ("engine.allocs_per_pkt", c.allocs as f64 / pkts),
        ("engine.copies_per_pkt", c.copies as f64 / pkts),
        ("engine.drops_per_pkt", c.drops as f64 / pkts),
        ("record.append_ns_per_rec", total("record.append") / popped),
    ])
}

/// Σ of the path stages' self time per decided copy, µs: the part of
/// `cpu_us_per_copy` the stage replay explains.
pub fn attributed_us_per_copy(stats: &BTreeMap<&'static str, StageStats>, c: &ReplayCounts) -> f64 {
    let ns: f64 = PATH_STAGES.iter().filter_map(|n| stats.get(n)).map(|s| s.total_ns).sum();
    ns / 1e3 / c.copies.max(1) as f64
}

/// `Recorder::save` of the replay's log: ns and bytes per record.
pub fn record_save(t: &mut Tracer, recorder: &Recorder, out_dir: &Path, workload: &str) -> Metrics {
    let mut m = Metrics::new();
    let (traffic, scene) = recorder.counts();
    let records = (traffic + scene).max(1) as f64;
    let stem = out_dir.join(format!("replay-{workload}"));
    if std::fs::create_dir_all(out_dir).is_err() {
        return m;
    }
    let started = Instant::now();
    let saved = t.span("record.save", NONE, NONE, || recorder.save(&stem));
    let took = started.elapsed();
    let mut bytes = 0u64;
    for ext in ["traffic", "scene", "metrics", "faults"] {
        let path = stem.with_extension(format!("{ext}.poemlog"));
        bytes += std::fs::metadata(&path).map(|md| md.len()).unwrap_or(0);
        let _ = std::fs::remove_file(&path);
    }
    if saved.is_ok() {
        m.insert("record.save_ns_per_rec", took.as_nanos() as f64 / records);
        m.insert("record.bytes_per_rec", bytes as f64 / records);
    }
    m
}

/// Moves and mobility steps on a mobile scene: relink cost, distance
/// evaluations per move, and one mobility integration step.
pub fn scene_writes(t: &mut Tracer, spec: &SceneSpec, seed: u64) -> Metrics {
    const MOVES: u64 = 2_000;
    const STEPS: u64 = 200;
    let mut m = Metrics::new();
    let mut scene = spec.build();
    let mut rng = EmuRng::seed(seed ^ 0x30BE);
    let work_before = scene.tables().work();
    let started = Instant::now();
    for _ in 0..MOVES {
        let op = scenes::scripted_move(spec.nodes.len(), &mut rng);
        t.span("core.relink", NONE, NONE, || scene.apply(EmuTime::ZERO, &op)).expect("node exists");
    }
    m.insert("core.relink_ns_per_move", started.elapsed().as_nanos() as f64 / MOVES as f64);
    m.insert(
        "core.dist_evals_per_move",
        (scene.tables().work() - work_before) as f64 / MOVES as f64,
    );
    let step = EmuDuration::from_millis(100);
    let started = Instant::now();
    for k in 1..=STEPS {
        let to = EmuTime::ZERO + step * k as i64;
        t.span("core.mobility_step", NONE, NONE, || scene.advance_mobility(to, &mut rng));
    }
    m.insert("core.mobility_ns_per_step", started.elapsed().as_nanos() as f64 / STEPS as f64);
    m
}

/// `ProfileBook::snapshot` over the profiled links of the scripted scene.
pub fn profile_lookups(t: &mut Tracer, scenario: &Scenario, pid: ProfileId, seed: u64) -> Metrics {
    const LOOKUPS: u64 = 100_000;
    let mut book = ProfileBook::new(scenario.library.clone(), seed);
    let n = scenario.scene.nodes.len() as u64;
    let span = t.begin("profiles.snapshot", NONE, NONE);
    let started = Instant::now();
    for k in 0..LOOKUPS {
        let src = NodeId((k * 4 % n) as u32 + 1);
        let dst = NodeId((k * 7 % n) as u32 + 1);
        black_box(book.snapshot(pid, src, dst, EmuTime::from_micros(k * 50)));
    }
    let took = started.elapsed();
    t.end(span);
    Metrics::from([("profiles.snapshot_ns_per_copy", took.as_nanos() as f64 / LOOKUPS as f64)])
}

/// A `Coordinator` driven directly with the scripted run's packet stream:
/// one-packet ingest batches, a sync per 256 packets, and scripted moves.
pub fn cluster_direct(t: &mut Tracer, scenario: &Scenario, packets: &[EmuPacket]) -> Metrics {
    const PKTS: usize = 4_000;
    const MOVES: u64 = 200;
    let mut m = Metrics::new();
    let mut scene = scenario.scene.build();
    let registry = Registry::new();
    let recorder = Recorder::new();
    let launched = crate::affinity::on_program_cpu(|| {
        Coordinator::launch(scenario.cluster_config(), 7, &scene, &registry)
    });
    let mut coord = match launched {
        Ok(c) => c,
        Err(e) => {
            eprintln!("cluster_direct: launch failed: {e}");
            return m;
        }
    };
    let (mut ingest_ns, mut sync_ns, mut syncs) = (0u128, 0u128, 0u64);
    let pkts = &packets[..packets.len().min(PKTS)];
    for (k, pkt) in pkts.iter().enumerate() {
        let started = Instant::now();
        let r = t.span("cluster.ingest_batch", NONE, pkt.id.0, || {
            coord.ingest_batch(std::slice::from_ref(pkt), pkt.sent_at, &recorder)
        });
        ingest_ns += started.elapsed().as_nanos();
        if r.is_err() {
            eprintln!("cluster_direct: ingest failed");
            return m;
        }
        if k % 256 == 255 {
            let started = Instant::now();
            let r = t.span("cluster.sync", NONE, NONE, || coord.sync(pkt.sent_at, &scene));
            sync_ns += started.elapsed().as_nanos();
            syncs += 1;
            if r.is_err() {
                return m;
            }
        }
    }
    let mut rng = EmuRng::seed(0x30BE);
    let mut op_ns = 0u128;
    for _ in 0..MOVES {
        let op = scenes::scripted_move(scenario.scene.nodes.len(), &mut rng);
        scene.apply(EmuTime::ZERO, &op).expect("node exists");
        let started = Instant::now();
        let r =
            t.span("cluster.apply_op", NONE, NONE, || coord.apply_op(EmuTime::ZERO, &op, &scene));
        op_ns += started.elapsed().as_nanos();
        if r.is_err() {
            return m;
        }
    }
    coord.shutdown();
    m.insert("cluster.ingest_batch_us_per_pkt", ingest_ns as f64 / 1e3 / pkts.len().max(1) as f64);
    m.insert("cluster.sync_us_per_epoch", sync_ns as f64 / 1e3 / syncs.max(1) as f64);
    m.insert("cluster.apply_op_us", op_ns as f64 / 1e3 / MOVES as f64);
    m
}
