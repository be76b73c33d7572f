//! One run of one workload: `R` repetitions, the median of each metric
//! over them, the output check, and (traced pass) the per-layer numbers.

use crate::layers::{self, Metrics};
use crate::rt::{self, RtRep, RtSpec, StepLat};
use crate::sim::{self, Scenario};
use crate::spec::{self, Budget, Workload};
use crate::stats::{littles_latency_s, median, percentile_sorted};
use crate::trace::{StageStats, Tracer};
use bytes::Bytes;
use poem_core::{EmuPacket, EmuTime, NodeId, PacketId, RadioId};
use std::collections::BTreeMap;
use std::path::Path;
use std::time::Instant;

/// Live spans written to `trace-<workload>-live.jsonl`.
const LIVE_SPANS_WRITTEN: usize = 200_000;

/// The result of one run.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Output-check failures over all repetitions; empty = correct.
    pub problems: Vec<String>,
    /// Copies the program decided to forward (sim: the reference's copies
    /// per repetition), summed over repetitions.
    pub attempted: u64,
    /// Copies lost (sim: copies differing from the reference).
    pub failed: u64,
    /// Run-level values: the median over the repetitions, or the single
    /// value of a per-run measurement.
    pub values: BTreeMap<&'static str, f64>,
    /// The per-repetition values.
    pub per_rep: BTreeMap<&'static str, Vec<f64>>,
    /// Samples behind each percentile metric, per repetition.
    pub samples: BTreeMap<&'static str, Vec<u64>>,
    /// The work one repetition did, by name.
    pub work: Vec<(&'static str, f64)>,
    /// Per-stage span statistics of the stage replay (traced pass).
    pub stages: BTreeMap<&'static str, StageStats>,
    /// Things a reader should know that are not failures.
    pub notes: Vec<String>,
    /// Repetitions whose generator ran late (`gen.tick_late_p90_us` over
    /// the limit): their lateness says nothing about the server.
    pub starved_reps: u64,
}

impl Outcome {
    fn put(&mut self, name: &'static str, v: f64) {
        self.per_rep.entry(name).or_default().push(v);
    }

    fn put_samples(&mut self, name: &'static str, n: u64) {
        self.samples.entry(name).or_default().push(n);
    }

    /// Folds repetitions into run-level values: the median of each metric,
    /// and the loss ratios over all repetitions together (a median would
    /// hide copies lost in a minority of them).
    fn fold(&mut self) {
        for (name, v) in &self.per_rep {
            self.values.insert(name, median(v));
        }
        let lost = self.failed as f64 / self.attempted.max(1) as f64;
        self.values.insert("lost_copy_ratio", lost);
        self.values.insert("delivered_copy_ratio", 1.0 - lost);
        self.values.insert("gen.starved_reps", self.starved_reps as f64);
    }
}

fn sorted(v: &[f32]) -> Vec<f32> {
    let mut s = v.to_vec();
    s.sort_by(f32::total_cmp);
    s
}

/// Records one paced step's lateness under the given metric names.
fn put_step(out: &mut Outcome, step: &StepLat, [p50, p90, on_time]: [&'static str; 3]) {
    let err = sorted(&step.recv_err_us);
    out.put(p50, percentile_sorted(&err, 0.50));
    out.put(p90, percentile_sorted(&err, 0.90));
    // Share on time of the copies *decided*: one that never arrived is late.
    let in_time = err.partition_point(|e| f64::from(*e) <= spec::ON_TIME_US);
    out.put(on_time, in_time as f64 / step.decided.max(1) as f64);
    out.put_samples(p50, err.len() as u64);
    out.put_samples(p90, err.len() as u64);
}

/// The lateness of a paced repetition: the six end-to-end lateness
/// metrics, the server's and the client's share of them, and whether the
/// generator kept its ticks.
fn put_lateness(out: &mut Outcome, rep: &RtRep) {
    let (Some(lo), Some(hi)) = (&rep.lo, &rep.hi) else { return };
    put_step(out, lo, ["fwd_err_p50_us", "fwd_err_p90_us", "on_time_ratio"]);
    put_step(out, hi, ["loaded_err_p50_us", "loaded_err_p90_us", "loaded_on_time_ratio"]);
    let (fire, gap) = (sorted(&lo.fire_err_us), sorted(&lo.gap_us));
    out.put("server.fire_err_p50_us", percentile_sorted(&fire, 0.50));
    out.put("server.fire_err_p99_us", percentile_sorted(&fire, 0.99));
    out.put("client.deliver_gap_p50_us", percentile_sorted(&gap, 0.50));
    out.put("client.deliver_gap_p90_us", percentile_sorted(&gap, 0.90));
    out.put_samples("server.fire_err_p99_us", fire.len() as u64);
    out.put("gen.tick_late_p90_us", rep.tick_late_p90_us);
    if rep.tick_late_p90_us > spec::STARVED_TICK_US {
        out.starved_reps += 1;
    }
}

/// What the output check of any real-time repetition adds to the run.
fn put_rt_check(out: &mut Outcome, rep: &RtRep) {
    out.attempted += rep.decided;
    out.failed += rep.lost;
    out.problems.extend(rep.problems.iter().cloned());
}

/// The per-repetition values of a real-time workload's own timed section.
fn put_rt_rep(out: &mut Outcome, rep: &RtRep) {
    let copies = rep.copies.max(1) as f64;
    out.put("setup_s", rep.setup_s);
    out.put("gen.pkts_per_s", rep.pkts as f64 / rep.wall_s);
    out.put("copies_per_s", rep.copies as f64 / rep.wall_s);
    out.put("cpu_us_per_copy", rep.sut_cpu_ns as f64 / 1e3 / copies);
    out.put("peak_rss_mb", rep.peak_rss_kb as f64 / 1024.0);
    out.put("record.mem_bytes_per_copy", rep.rss_growth_kb.max(0) as f64 * 1024.0 / copies);
    out.put(
        "gen.cpu_share",
        rep.gen_cpu_ns as f64 / (rep.gen_cpu_ns + rep.sut_cpu_ns).max(1) as f64,
    );
    let s = &rep.server;
    out.put("server.deadline_miss_ratio", s.deadline_misses as f64 / s.forwarded.max(1) as f64);
    out.put("server.batch_drains", s.batch_drains as f64);
    out.put("server.sched_depth_max", s.sched_depth_max as f64);
    out.put("server.pkts_per_wake", s.ingested as f64 / s.wakes.max(1) as f64);
    out.put("server.read_bytes_per_wake", s.read_bytes as f64 / s.wakes.max(1) as f64);
    out.put("server.evictions", s.evictions as f64);
    out.put("obs.snapshot_us", s.snapshot_us);
    out.put("client.attach_us_per_session", rep.attach_us_per_session);
    if !rep.apply_op_us.is_empty() {
        let ops = sorted(&rep.apply_op_us);
        out.put("server.apply_op_us_p50", percentile_sorted(&ops, 0.50));
        out.put("server.apply_op_us_p90", percentile_sorted(&ops, 0.90));
        out.put_samples("server.apply_op_us_p90", ops.len() as u64);
    }
    put_rt_check(out, rep);
}

/// Notes when a closed loop's window is too small to saturate the server:
/// if packets wait barely longer than the modeled link delay (Little's
/// law: wait = window ÷ throughput), the delay, not the program, sets the
/// throughput.
fn note_if_delay_bound(out: &mut Outcome, w: Workload) {
    let Some(pkts_per_s) = out.values.get("gen.pkts_per_s").copied() else { return };
    if w == Workload::RtPacedBcast {
        return;
    }
    let floor = crate::scenes::forward_delay(RtSpec::of(w).payload).as_secs_f64();
    let waited = littles_latency_s(w.window() as f64, pkts_per_s);
    if waited < 1.5 * floor {
        out.notes.push(format!(
            "window {} is delay-bound: packets wait {:.2} ms against a {:.2} ms modeled delay",
            w.window(),
            waited * 1e3,
            floor * 1e3
        ));
    }
}

/// The work sizes of one repetition.
fn work_sizes(w: Workload, b: &Budget) -> Vec<(&'static str, f64)> {
    let ticks = b.paced_ticks(w);
    let mut work = vec![
        ("ticks_per_step", ticks as f64),
        ("lo_pkts", (ticks * spec::LO_BURST as u64) as f64),
        ("hi_pkts", (ticks * spec::HI_BURST as u64) as f64),
    ];
    work.extend(match w {
        Workload::RtPacedBcast => vec![],
        Workload::RtSatUnicast64 => {
            vec![("pkts", b.unicast_pkts() as f64), ("window", w.window() as f64)]
        }
        Workload::RtSatBcast1kMobile => vec![
            ("pkts", b.bcast_pkts() as f64),
            ("window", w.window() as f64),
            ("moves", (b.bcast_pkts() / spec::MOVE_EVERY_PKTS) as f64),
        ],
        Workload::SimCluster2w => vec![("virtual_s", b.sim_vsecs())],
    });
    work
}

/// One repetition of a real-time workload's own timed section.
fn own_rt_rep(w: Workload, seed: u64, b: &Budget, tracer: Option<&mut Tracer>) -> RtRep {
    let total = match w {
        Workload::RtPacedBcast => {
            return rt::paced_repetition(b.paced_ticks(w), b.setup_cycles, seed, tracer)
        }
        Workload::RtSatUnicast64 => b.unicast_pkts(),
        _ => b.bcast_pkts(),
    };
    rt::closed_repetition(&RtSpec::of(w), total, b.setup_cycles, seed, tracer)
}

/// The paced steps a repetition of a workload other than
/// `rt_paced_bcast` starts with, for the lateness metrics. Their set-up is
/// not the workload's and is not timed.
fn paced_part(out: &mut Outcome, w: Workload, seed: u64, b: &Budget) {
    let rep = rt::paced_repetition(b.paced_ticks(w), 1, seed, None);
    put_lateness(out, &rep);
    put_rt_check(out, &rep);
}

/// The untraced run of a real-time workload.
fn run_rt(w: Workload, seed: u64, b: &Budget) -> Outcome {
    let mut out = Outcome { work: work_sizes(w, b), ..Outcome::default() };
    for _ in 0..b.reps {
        if w != Workload::RtPacedBcast {
            paced_part(&mut out, w, seed, b);
        }
        let rep = own_rt_rep(w, seed, b, None);
        put_lateness(&mut out, &rep);
        put_rt_rep(&mut out, &rep);
    }
    out.fold();
    note_if_delay_bound(&mut out, w);
    out
}

/// Per-repetition values of a clustered repetition, checked against the
/// single-process reference.
fn put_sim_rep(out: &mut Outcome, rep: &sim::SimRep, reference: &sim::Reference) {
    let copies = rep.timed.copies.max(1) as f64;
    let copies_per_s = rep.timed.copies as f64 / rep.wall_s;
    out.put("setup_s", rep.setup_s);
    out.put("copies_per_s", copies_per_s);
    out.put("cpu_us_per_copy", rep.cpu_ns as f64 / 1e3 / copies);
    out.put("peak_rss_mb", rep.peak_rss_kb as f64 / 1024.0);
    out.put("record.mem_bytes_per_copy", rep.rss_growth_kb.max(0) as f64 * 1024.0 / copies);
    out.put("cluster.launch_s", rep.launch_s);
    out.put("cluster.worker_cpu_share", rep.worker_cpu_ns as f64 / rep.cpu_ns.max(1) as f64);
    out.put("cluster.slowdown_x", reference.copies_per_s / copies_per_s);
    out.put("sim.run_until_us_per_pkt", rep.wall_s * 1e6 / rep.timed.pkts.max(1) as f64);
    let c = |name: &str| rep.metrics.counter(name).unwrap_or(0) as f64;
    let (local, cross) = (
        c("poem_cluster_forward_total{kind=\"local\"}"),
        c("poem_cluster_forward_total{kind=\"cross\"}"),
    );
    out.put(
        "cluster.batches_per_pkt",
        c("poem_cluster_batches_total") / rep.total.pkts.max(1) as f64,
    );
    out.put("cluster.barriers_per_vsec", c("poem_cluster_barriers_total") / rep.virtual_s);
    out.put(
        "cluster.halo_updates_per_move",
        c("poem_cluster_halo_updates_total") / rep.moves.max(1) as f64,
    );
    out.put("cluster.cross_forward_ratio", cross / (local + cross).max(1.0));
    let diff = rep.total.copies.abs_diff(reference.total.copies);
    out.attempted += reference.total.copies;
    out.failed += diff;
    out.problems.extend(rep.problems.iter().cloned());
    if rep.total != reference.total {
        out.problems.push(format!(
            "clustered totals {:?} differ from the single-process reference {:?}",
            rep.total, reference.total
        ));
    }
}

/// The untraced run of `sim_cluster_2w`.
fn run_sim(seed: u64, b: &Budget) -> Outcome {
    let w = Workload::SimCluster2w;
    let scenario = Scenario::new(seed);
    let vsecs = b.sim_vsecs();
    let mut out = Outcome { work: work_sizes(w, b), ..Outcome::default() };
    let reference = sim::reference(&scenario, vsecs, 0);
    for _ in 0..b.reps {
        paced_part(&mut out, w, seed, b);
        let rep = sim::repetition(&scenario, vsecs, b.setup_cycles, None);
        put_sim_rep(&mut out, &rep, &reference);
    }
    out.fold();
    out.values.insert("sim.local_copies_per_s", reference.copies_per_s);
    out
}

/// The untraced run: every end-to-end metric of `w`.
pub fn untraced(w: Workload, seed: u64, b: &Budget) -> Outcome {
    if w.is_rt() {
        run_rt(w, seed, b)
    } else {
        run_sim(seed, b)
    }
}

/// The packet stream a real-time workload sends, regenerated for the
/// stage replay: same senders, destinations and sizes, stamped 10 µs
/// apart.
fn rt_packets(spec: RtSpec) -> impl Iterator<Item = EmuPacket> {
    let mut payload = vec![0u8; spec.payload];
    payload[0] = 1;
    let payload = Bytes::from(payload);
    (0u64..).map(move |i| {
        let (src, dst) = spec.packet(i);
        EmuPacket::new(
            PacketId(((src as u64 + 1) << 40) | (i / spec.sessions as u64)),
            NodeId(src as u32 + 1),
            dst,
            crate::scenes::CH,
            RadioId(0),
            EmuTime::from_micros(i * 10),
            payload.clone(),
        )
    })
}

/// The traced pass: untraced and traced repetitions side by side (their
/// ratio is the tracing overhead), the stage replay, and the stage
/// microbenchmarks. End-to-end numbers here come from the untraced
/// repetitions; the spans are written to `out_dir`.
pub fn traced(w: Workload, seed: u64, b: &Budget, out_dir: &Path) -> Outcome {
    // Two repetitions each way: half the untraced run's repetitions, so a
    // traced pass costs about what an untraced run does.
    let pairs = (b.reps / 2).max(1);
    // One set-up cycle per repetition: `setup_s` is an end-to-end metric.
    let once = Budget { setup_cycles: 1, ..*b };
    let mut out = Outcome { work: work_sizes(w, b), ..Outcome::default() };
    let mut live = Tracer::new();
    let mut traced_cps = Vec::new();
    let mut extra = Metrics::new();
    // The scripted run's scenario and its single-process reference.
    let scripted = (!w.is_rt()).then(|| {
        let scenario = Scenario::new(seed);
        let reference = sim::reference(&scenario, b.sim_vsecs(), b.replay_pkts);
        (scenario, reference)
    });

    for _ in 0..pairs {
        match &scripted {
            Some((sc, reference)) => {
                let rep = sim::repetition(sc, b.sim_vsecs(), 1, None);
                put_sim_rep(&mut out, &rep, reference);
                let rep = sim::repetition(sc, b.sim_vsecs(), 1, Some(&mut live));
                traced_cps.push(rep.timed.copies as f64 / rep.wall_s);
                out.problems.extend(rep.problems);
            }
            None => {
                let rep = own_rt_rep(w, seed, &once, None);
                put_lateness(&mut out, &rep);
                put_rt_rep(&mut out, &rep);
                let rep = own_rt_rep(w, seed, &once, Some(&mut live));
                traced_cps.push(rep.copies as f64 / rep.wall_s);
                extra.insert("client.send_ns_per_pkt", rep.send_ns);
                out.problems.extend(rep.problems);
            }
        }
    }
    out.fold();
    let untraced_cps = out.values.get("copies_per_s").copied().unwrap_or(f64::NAN);
    out.values.insert("trace.overhead_ratio", median(&traced_cps) / untraced_cps);

    // Stage replay over the workload's own packets and scene.
    let mut t = Tracer::new();
    let (counts, recorder) = match &scripted {
        Some((sc, reference)) => {
            out.values.insert("sim.local_copies_per_s", reference.copies_per_s);
            layers::stage_replay(
                &mut t,
                &sc.scene,
                Some(&sc.library),
                seed,
                reference.packets.iter().cloned(),
                sim::NODES * 10,
                spec::REPLAY_COPIES,
            )
        }
        None => {
            let spec = RtSpec::of(w);
            layers::stage_replay(
                &mut t,
                &spec.scene(seed),
                None,
                seed,
                rt_packets(spec).take(b.replay_pkts),
                spec.replay_depth(),
                spec::REPLAY_COPIES,
            )
        }
    };
    let stats = t.summarize();
    extra.extend(layers::replay_metrics(&stats, &counts));
    let cpu = out.values.get("cpu_us_per_copy").copied().unwrap_or(f64::NAN);
    extra.insert(
        "trace.unattributed_us_per_copy",
        cpu - layers::attributed_us_per_copy(&stats, &counts),
    );
    extra.extend(layers::record_save(&mut t, &recorder, out_dir, w.name()));
    drop(recorder);

    // Stage microbenchmarks for the calls a packet does not make.
    match &scripted {
        Some((sc, reference)) => {
            extra.extend(layers::scene_writes(&mut t, &sc.scene, seed));
            if let Some(pid) = sc.library.id_of(sim::PROFILE_NAME) {
                extra.extend(layers::profile_lookups(&mut t, sc, pid, seed));
            }
            extra.extend(layers::cluster_direct(&mut t, sc, &reference.packets));
            let sim = sc.build().sim;
            let started = Instant::now();
            std::hint::black_box(sim.metrics());
            extra.insert("obs.snapshot_us", started.elapsed().as_secs_f64() * 1e6);
        }
        None if w == Workload::RtSatBcast1kMobile => {
            extra.extend(layers::scene_writes(&mut t, &RtSpec::of(w).scene(seed), seed));
        }
        None => {}
    }
    out.values.extend(extra);
    out.stages = t.summarize();

    // One file per workload: the replay's and microbenchmarks' spans, then
    // the live spans of the traced repetitions.
    // The live log of a saturated repetition runs to millions of spans;
    // the file keeps the first LIVE_SPANS_WRITTEN, the summary uses all.
    let path = out_dir.join(format!("trace-{}.jsonl", w.name()));
    let live_path = out_dir.join(format!("trace-{}-live.jsonl", w.name()));
    if let Err(e) = t
        .write_jsonl(&path, usize::MAX)
        .and_then(|()| live.write_jsonl(&live_path, LIVE_SPANS_WRITTEN))
    {
        out.problems.push(format!("writing {}: {e}", path.display()));
    }
    if live.len() > LIVE_SPANS_WRITTEN {
        out.notes.push(format!(
            "{} holds the first {LIVE_SPANS_WRITTEN} of {} live spans",
            live_path.display(),
            live.len()
        ));
    }
    out
}
