//! What the benchmark measures: the four workloads, their frozen work
//! sizes, and the metric tables `BENCHMARK.json` is generated from.
//!
//! Every workload is **fixed work, not fixed time**: `--seconds` only
//! scales how much work a run does (work = frozen rate × seconds), so two
//! commits measured with the same `--seconds` send the same packets
//! however fast either is.

/// Repetitions per run; a run's value for a metric is the median over
/// them ([`crate::stats::median`]).
pub const REPS: usize = 5;

/// Share of a repetition's work sent untimed first, so caches, the
/// guard-band calibrator and the allocator are warm when timing starts.
pub const WARMUP_SHARE: f64 = 0.10;

/// Set-up/teardown cycles per repetition: its `setup_s` sample is their
/// mean. One set-up takes about 5 ms in 1 ms steps (each round trip waits
/// out the rest of a reactor worker's idle park or does not), so a single
/// cycle per repetition would put the median of five on one of a few modes
/// a millisecond apart.
pub const SETUP_CYCLES: usize = 10;

/// `run_seconds` in `BENCHMARK.json`: the timed seconds of one run at the
/// commit the work sizes were frozen on, over all repetitions.
pub const RUN_SECONDS: u32 = 24;

/// Share of those seconds every workload but `rt_paced_bcast` spends on
/// the paced lattice (see [`Budget::paced_ticks`]); the rest goes to its
/// own timed section.
pub const PACED_SHARE: f64 = 0.5;

/// Generator tick of the paced workload.
pub const TICK_US: u64 = 500;
/// Packets per tick in the paced workload's *lo* step (2 000 pkt/s).
pub const LO_BURST: usize = 1;
/// Packets per tick in its *hi* step (6 000 pkt/s).
pub const HI_BURST: usize = 3;
/// A copy is on time when received within this of its modeled forward
/// time.
pub const ON_TIME_US: f64 = 250.0;
/// A generator tick later than this at p90 marks the repetition starved.
pub const STARVED_TICK_US: f64 = 200.0;

/// A packet outstanding longer than this has failed.
pub const PACKET_TIMEOUT_S: f64 = 1.0;
/// How long a repetition waits for the last copies after its last send.
pub const DRAIN_S: f64 = 2.0;

/// Work per timed second, frozen on the reference host (2 cores) at the
/// commit that introduced the benchmark so that `RUN_SECONDS` of budget
/// give about `RUN_SECONDS` of timed sections.
pub const UNICAST_PKTS_PER_S: f64 = 125_000.0;
/// See [`UNICAST_PKTS_PER_S`].
pub const BCAST_PKTS_PER_S: f64 = 4_500.0;
/// Virtual seconds of the scripted run per timed second.
pub const SIM_VSECS_PER_S: f64 = 2.0;
/// One scripted `MoveNode` per this many packets on the mobile workload
/// (≈ 200/s at the frozen rate).
pub const MOVE_EVERY_PKTS: u64 = 22;

/// Packets the stage replay pushes through the per-stage calls.
pub const REPLAY_PKTS: usize = 50_000;
/// The replay also stops once this many copies were decided, so the
/// broadcast workloads stay within the run's time budget.
pub const REPLAY_COPIES: usize = 400_000;

/// The four workloads. Names are final: later changes are accepted or
/// rejected on them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Open loop below saturation: fidelity.
    RtPacedBcast,
    /// Closed loop, smallest packet, one copy: per-packet cost.
    RtSatUnicast64,
    /// Closed loop, 1 KiB broadcasts in a moving dense arena.
    RtSatBcast1kMobile,
    /// Virtual-time harness over a two-worker cluster.
    SimCluster2w,
}

impl Workload {
    /// Every workload, in report order.
    pub const ALL: [Workload; 4] = [
        Workload::RtPacedBcast,
        Workload::RtSatUnicast64,
        Workload::RtSatBcast1kMobile,
        Workload::SimCluster2w,
    ];

    /// The name used on the command line and in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Workload::RtPacedBcast => "rt_paced_bcast",
            Workload::RtSatUnicast64 => "rt_sat_unicast64",
            Workload::RtSatBcast1kMobile => "rt_sat_bcast1k_mobile",
            Workload::SimCluster2w => "sim_cluster_2w",
        }
    }

    /// Why the workload exists, one line (≤ 200 characters).
    pub fn why(self) -> &'static str {
        match self {
            Workload::RtPacedBcast => {
                "open loop below saturation (2k then 6k pkt/s, 8 copies each): lateness is wake-up, \
                 scan-loop and flush bound, so per-packet savings show as lateness before throughput"
            }
            Workload::RtSatUnicast64 => {
                "closed loop, 64 B unicast, one copy: decode, read pass, pipeline lock, schedule, \
                 record and encode are nearly all the work; fan-out, bytes and scene writes none"
            }
            Workload::RtSatBcast1kMobile => {
                "closed loop, 1 KiB broadcasts to ~25 moving neighbours with loss and scripted moves: \
                 per-copy and per-byte cost, neighbour tables written while read"
            }
            Workload::SimCluster2w => {
                "virtual-time run over 2 shard workers (sharing one CPU), multi-radio, profiles, \
                 mobility: wire round-trips, barriers and halo traffic are most of the time, decision \
                 work little"
            }
        }
    }

    /// Parses a command-line name.
    pub fn from_name(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }

    /// Outstanding-packet window of the closed-loop workloads. By Little's
    /// law a window keeps the server busy only above `throughput × 2 ms`
    /// (the modeled link delay): 256 one-copy packets are delay-bound on
    /// the reference host (≈ 125 k pkt/s × 2 ms = 250), so the unicast
    /// workload uses 1024; 256 broadcasts are ≈ 6 500 copies, and a larger
    /// window would overrun the server's 8 MiB write-buffer cap.
    pub fn window(self) -> u64 {
        match self {
            Workload::RtSatUnicast64 => 1024,
            _ => 256,
        }
    }

    /// True for the three workloads on the real TCP frontend.
    pub fn is_rt(self) -> bool {
        self != Workload::SimCluster2w
    }
}

/// How much work one invocation does.
#[derive(Debug, Clone, Copy)]
pub struct Budget {
    /// Timed seconds per run at the frozen rates (`--seconds`).
    pub seconds: f64,
    /// Repetitions per run.
    pub reps: usize,
    /// Set-up/teardown cycles per repetition.
    pub setup_cycles: usize,
    /// Packets in the stage replay.
    pub replay_pkts: usize,
}

impl Budget {
    /// The full-size budget for `--seconds`.
    pub fn full(seconds: f64) -> Budget {
        Budget { seconds, reps: REPS, setup_cycles: SETUP_CYCLES, replay_pkts: REPLAY_PKTS }
    }

    /// `--smoke`: schema and output checks only, seconds in total.
    pub fn smoke() -> Budget {
        Budget { seconds: 1.0, reps: 2, setup_cycles: 1, replay_pkts: 2_000 }
    }

    /// Timed seconds one repetition is sized for.
    pub fn rep_seconds(&self) -> f64 {
        self.seconds / self.reps as f64
    }

    /// Generator ticks in each of the two paced steps of one repetition of
    /// `w`: half the repetition's seconds each on `rt_paced_bcast`, half of
    /// [`PACED_SHARE`] of them on the other workloads.
    pub fn paced_ticks(&self, w: Workload) -> u64 {
        let share = if w == Workload::RtPacedBcast { 1.0 } else { PACED_SHARE };
        ((share * self.rep_seconds() / 2.0) * 1e6 / TICK_US as f64).round().max(20.0) as u64
    }

    /// Timed seconds of a repetition's own section on the workloads that
    /// have one beside the paced steps.
    fn own_seconds(&self) -> f64 {
        (1.0 - PACED_SHARE) * self.rep_seconds()
    }

    /// Packets per repetition on `rt_sat_unicast64`.
    pub fn unicast_pkts(&self) -> u64 {
        (UNICAST_PKTS_PER_S * self.own_seconds()).round().max(2_000.0) as u64
    }

    /// Packets per repetition on `rt_sat_bcast1k_mobile`.
    pub fn bcast_pkts(&self) -> u64 {
        (BCAST_PKTS_PER_S * self.own_seconds()).round().max(500.0) as u64
    }

    /// Virtual seconds per repetition on `sim_cluster_2w`.
    pub fn sim_vsecs(&self) -> f64 {
        (SIM_VSECS_PER_S * self.own_seconds()).max(0.3)
    }
}

/// Which way a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better.
    Lower,
    /// Larger is better.
    Higher,
}

impl Better {
    /// The spelling `BENCHMARK.json` uses.
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// One end-to-end metric: every run of every workload reports it, and the
/// driver rejects a change that worsens it by more than `bound`.
#[derive(Debug, Clone, Copy)]
pub struct EndToEnd {
    /// Metric name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Direction.
    pub better: Better,
    /// Regression bound as a share of the parent's median. The three
    /// ratios sit at about 1, so theirs read as absolute differences too.
    pub bound: f64,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> EndToEnd {
    EndToEnd { name, unit, better, bound }
}

/// The end-to-end metrics the driver gates: ten of the issue's eleven
/// (`fwd_err_p90_us` does not repeat within a tenth and is reported in
/// [`LAYER_METRICS`], by the issue's demotion rule), `lost_copy_ratio` as
/// its complement `delivered_copy_ratio` because the driver divides by a
/// metric's median and the loss ratio's is 0.
///
/// The driver refuses a benchmark outright when, over ten fresh runs, a
/// metric's inter-quartile range exceeds its bound on any workload, or a
/// second such set's median is worse than the first's by more than the
/// bound. The shared reference host runs about a tenth slower for minutes
/// at a time, so a bound is the issue's rule without its cap of a tenth:
/// max(stated, 2 × the widest A/A gap, 1.5 × the widest ten-run range in
/// NOISE.md), rounded up to a twentieth, at most the contract's 0.25.
/// `cpu_us_per_copy` is widest on `rt_paced_bcast`, where it is mostly the
/// Hybrid sleep policy's guard-band spin; `setup_s` takes the largest
/// bound because the contract asks for it.
pub const END_TO_END: &[EndToEnd] = &[
    e2e("setup_s", "s", L, 0.25),
    e2e("copies_per_s", "1/s", H, 0.25),
    e2e("cpu_us_per_copy", "us", L, 0.25),
    e2e("peak_rss_mb", "MB", L, 0.15),
    e2e("delivered_copy_ratio", "ratio", H, 0.001),
    e2e("fwd_err_p50_us", "us", L, 0.20),
    e2e("on_time_ratio", "ratio", H, 0.01),
    e2e("loaded_err_p50_us", "us", L, 0.15),
    e2e("loaded_err_p90_us", "us", L, 0.25),
    e2e("loaded_on_time_ratio", "ratio", H, 0.02),
];

/// The issue's end-to-end metrics that every run reports but the driver
/// does not gate; they are listed in [`LAYER_METRICS`].
pub const REPORTED: [&str; 2] = ["lost_copy_ratio", "fwd_err_p90_us"];

/// One per-layer metric: `layer.name`, its unit and direction.
pub type PerLayer = (&'static str, &'static str, Better);

use Better::{Higher as H, Lower as L};

/// The per-layer metrics of the traced pass, layer = crate/module name,
/// and the two end-to-end metrics of the issue that are reported but not
/// gated (see [`END_TO_END`]).
pub const LAYER_METRICS: &[PerLayer] = &[
    ("proto.encode_ns_per_frame", "ns", L),
    ("proto.decode_ns_per_frame", "ns", L),
    ("proto.wire_bytes_per_copy", "B", L),
    ("core.route_ns_per_pkt", "ns", L),
    ("core.targets_per_pkt", "count", L),
    ("core.decide_ns_per_copy", "ns", L),
    ("core.relink_ns_per_move", "ns", L),
    ("core.dist_evals_per_move", "count", L),
    ("core.mobility_ns_per_step", "ns", L),
    ("core.sched_push_ns", "ns", L),
    ("core.sched_pop_ns", "ns", L),
    ("engine.ingest_ns_per_pkt", "ns", L),
    ("engine.ingest_self_ns_per_pkt", "ns", L),
    ("engine.allocs_per_pkt", "count", L),
    ("engine.copies_per_pkt", "count", H),
    ("engine.drops_per_pkt", "count", L),
    ("record.append_ns_per_rec", "ns", L),
    ("record.save_ns_per_rec", "ns", L),
    ("record.bytes_per_rec", "B", L),
    ("record.mem_bytes_per_copy", "B", L),
    ("profiles.snapshot_ns_per_copy", "ns", L),
    ("server.fire_err_p50_us", "us", L),
    ("server.fire_err_p99_us", "us", L),
    ("server.deadline_miss_ratio", "ratio", L),
    ("server.batch_drains", "count", L),
    ("server.sched_depth_max", "count", L),
    ("server.pkts_per_wake", "count", H),
    ("server.read_bytes_per_wake", "B", H),
    ("server.evictions", "count", L),
    ("server.apply_op_us_p50", "us", L),
    ("server.apply_op_us_p90", "us", L),
    ("client.send_ns_per_pkt", "ns", L),
    ("client.deliver_gap_p50_us", "us", L),
    ("client.deliver_gap_p90_us", "us", L),
    ("client.attach_us_per_session", "us", L),
    ("sim.run_until_us_per_pkt", "us", L),
    ("sim.local_copies_per_s", "1/s", H),
    ("cluster.launch_s", "s", L),
    ("cluster.ingest_batch_us_per_pkt", "us", L),
    ("cluster.sync_us_per_epoch", "us", L),
    ("cluster.apply_op_us", "us", L),
    ("cluster.batches_per_pkt", "count", L),
    ("cluster.barriers_per_vsec", "count", L),
    ("cluster.halo_updates_per_move", "count", L),
    ("cluster.cross_forward_ratio", "ratio", L),
    ("cluster.worker_cpu_share", "ratio", L),
    ("cluster.slowdown_x", "x", L),
    ("obs.snapshot_us", "us", L),
    ("gen.tick_late_p90_us", "us", L),
    ("gen.cpu_share", "ratio", L),
    ("gen.starved_reps", "count", L),
    ("trace.unattributed_us_per_copy", "us", L),
    ("trace.overhead_ratio", "ratio", H),
    ("lost_copy_ratio", "ratio", L),
    ("fwd_err_p90_us", "us", L),
];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_and_within_contract_limits() {
        let mut names: Vec<&str> = END_TO_END.iter().map(|m| m.name).collect();
        names.extend(LAYER_METRICS.iter().map(|m| m.0));
        names.extend(Workload::ALL.iter().map(|w| w.name()));
        let ok = |c: char| c.is_ascii_alphanumeric() || "_.-".contains(c);
        for n in &names {
            assert!(n.len() <= 64 && n.chars().all(ok), "{n}");
        }
        let total = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), total, "duplicate name");
        assert!(LAYER_METRICS.len() <= 128 && END_TO_END.len() <= 16);
        for w in Workload::ALL {
            assert!(w.why().len() <= 200, "{}: {}", w.name(), w.why().len());
            assert!(!w.why().contains('\n'));
            assert_eq!(Workload::from_name(w.name()), Some(w));
        }
    }

    #[test]
    fn bounds_stay_within_the_contract() {
        for m in END_TO_END {
            assert!(m.bound > 0.0 && m.bound <= 0.25, "{}", m.name);
        }
        let setup = END_TO_END.iter().find(|m| m.name == "setup_s").expect("setup_s is listed");
        assert_eq!((setup.unit, setup.better), ("s", Better::Lower));
    }
}
