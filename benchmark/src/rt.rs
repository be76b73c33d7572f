//! The three real-time workloads: the TCP frontend in-process, one
//! `MuxClient` connection over loopback, one generator thread.
//!
//! Load side is this thread plus the `MuxClient` reader thread. The
//! generator sends through `MuxSession::send`, pops every session queue,
//! and stamps each copy against the clock it shares with the server, so
//! `receive stamp − (sent_at + wire_bits/bps + delay)` is a lateness the
//! program cannot flatter: it is computed from the packet's own client
//! stamp and the scene's constants.

use crate::affinity;
use crate::procfs;
use crate::scenes::{self, SceneSpec, CH};
use crate::spec::{self, Workload};
use crate::stats::littles_window;
use crate::trace::{Tracer, NONE};
use bytes::Bytes;
use poem_client::{MuxClient, MuxSession};
use poem_core::clock::{Clock, WallClock};
use poem_core::packet::Destination;
use poem_core::{EmuDuration, EmuRng, EmuTime, NodeId};
use poem_obs::MetricsSnapshot;
use poem_server::{ServerConfig, ServerHandle};
use std::collections::VecDeque;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Where a workload's packets go.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Dst {
    /// Every neighbour.
    Broadcast,
    /// The next node id (wrapping): a fixed ring neighbour.
    NextOnRing,
}

/// The parameters that distinguish the real-time workloads.
#[derive(Debug, Clone, Copy)]
pub struct RtSpec {
    /// Which workload this is.
    pub workload: Workload,
    /// Mux sessions (= scene nodes).
    pub sessions: usize,
    /// Payload bytes per packet.
    pub payload: usize,
    /// Addressing.
    pub dst: Dst,
}

impl RtSpec {
    /// The spec of a real-time workload.
    pub fn of(workload: Workload) -> RtSpec {
        match workload {
            Workload::RtPacedBcast => {
                RtSpec { workload, sessions: 64, payload: 64, dst: Dst::Broadcast }
            }
            Workload::RtSatUnicast64 => {
                RtSpec { workload, sessions: 256, payload: 64, dst: Dst::NextOnRing }
            }
            Workload::RtSatBcast1kMobile => {
                RtSpec { workload, sessions: 256, payload: 1024, dst: Dst::Broadcast }
            }
            Workload::SimCluster2w => unreachable!("not a real-time workload"),
        }
    }

    /// The workload's scene for `seed`.
    pub fn scene(&self, seed: u64) -> SceneSpec {
        match self.workload {
            Workload::RtSatBcast1kMobile => scenes::dense_arena(self.sessions, 0.05, seed),
            _ => scenes::ring_lattice(self.sessions, 0.0),
        }
    }

    /// Copies a schedule holds while the workload runs — the depth the
    /// stage replay keeps its own schedule at. A constant, so the replay's
    /// counts repeat exactly: the copies in flight over the modeled link
    /// delay at the offered rate (Little's law) on the paced workload,
    /// half a window's copies on the closed loops (the other half sits in
    /// sockets and queues).
    pub fn replay_depth(&self) -> usize {
        match self.workload {
            Workload::RtPacedBcast => {
                let copies_per_s = (spec::HI_BURST * 8) as f64 * 1e6 / spec::TICK_US as f64;
                littles_window(copies_per_s, scenes::LINK_DELAY.as_secs_f64()) as usize
            }
            Workload::RtSatUnicast64 => self.workload.window() as usize / 2,
            _ => self.workload.window() as usize * 25 / 2,
        }
    }

    /// The `i`-th packet's sender index and destination: round-robin over
    /// the sessions. Shared with the stage replay so both see one stream.
    pub fn packet(&self, i: u64) -> (usize, Destination) {
        let src = (i % self.sessions as u64) as usize;
        let dst = match self.dst {
            Dst::Broadcast => Destination::Broadcast,
            Dst::NextOnRing => Destination::Unicast(NodeId(((src + 1) % self.sessions) as u32 + 1)),
        };
        (src, dst)
    }
}

/// A started server with its attached client fleet.
pub struct Env {
    /// The in-process server.
    pub server: Arc<ServerHandle>,
    mux: MuxClient,
    sessions: Vec<MuxSession>,
    clock: Arc<dyn Clock>,
    /// Nothing → ready to send.
    pub setup_s: f64,
    /// `MuxClient::attach_many` time per session.
    pub attach_us_per_session: f64,
}

/// Nothing → ready to send: scene build, `ServerHandle::start`, connect,
/// `attach_many`, clock sync. The server runs with
/// `ServerConfig::default()` apart from the seed, and shares its clock
/// with the client side so stamps need no offset correction.
pub fn setup(spec: &RtSpec, seed: u64) -> Env {
    let started = Instant::now();
    let scene_spec = spec.scene(seed);
    let scene = scene_spec.build();
    let clock: Arc<dyn Clock> = Arc::new(WallClock::new());
    // The server's threads start on the program's CPU; the client reader
    // below on the load side's, like this thread.
    let server = affinity::on_program_cpu(|| {
        ServerHandle::start(scene, Arc::clone(&clock), ServerConfig { seed, ..Default::default() })
    })
    .expect("server binds a loopback port");
    let mux = MuxClient::connect_tcp(server.addr(), Arc::clone(&clock)).expect("mux connects");
    let batch: Vec<_> = scene_spec.nodes.iter().map(|n| (n.id, n.radios.clone())).collect();
    let attach_started = Instant::now();
    let sessions = mux.attach_many(&batch).expect("every scene node attaches");
    let attach_us_per_session =
        attach_started.elapsed().as_secs_f64() * 1e6 / sessions.len() as f64;
    mux.sync_clock(3).expect("clock sync");
    Env {
        server,
        mux,
        sessions,
        clock,
        setup_s: started.elapsed().as_secs_f64(),
        attach_us_per_session,
    }
}

/// Stops the server and joins the client reader.
pub fn teardown(env: Env) {
    drop(env.sessions);
    env.server.shutdown();
    let _ = env.mux.close();
}

/// Lateness samples of one paced step.
#[derive(Debug, Default, Clone)]
pub struct StepLat {
    /// Copies the pipeline decided to forward in this step.
    pub decided: u64,
    /// Receive stamp − modeled forward time, µs, one per received copy.
    pub recv_err_us: Vec<f32>,
    /// `forwarded_at` on the wire − modeled forward time, µs.
    pub fire_err_us: Vec<f32>,
    /// Receive stamp − `forwarded_at`, µs.
    pub gap_us: Vec<f32>,
}

/// Server-side counters read after a repetition.
#[derive(Debug, Default, Clone, Copy)]
pub struct ServerSide {
    /// `poem_scan_batch_drains_total`.
    pub batch_drains: u64,
    /// Largest `poem_schedule_depth` any `MetricsRecord` saw.
    pub sched_depth_max: u64,
    /// `poem_reactor_wakes_total`.
    pub wakes: u64,
    /// `poem_reactor_read_bytes_total`.
    pub read_bytes: u64,
    /// `poem_ingest_packets_total`.
    pub ingested: u64,
    /// `poem_deliveries_sent_total`.
    pub forwarded: u64,
    /// Sum of `poem_deadline_miss_total{severity=…}`.
    pub deadline_misses: u64,
    /// `poem_writebuf_evictions_total`.
    pub evictions: u64,
    /// One `ServerHandle::metrics()` call, µs.
    pub snapshot_us: f64,
}

/// What one repetition measured.
#[derive(Debug, Default, Clone)]
pub struct RtRep {
    /// Set-up time.
    pub setup_s: f64,
    /// Attach time per session.
    pub attach_us_per_session: f64,
    /// Packets sent in the timed section.
    pub pkts: u64,
    /// Copies the pipeline decided to forward in the timed section.
    pub decided: u64,
    /// Copies received in the timed section.
    pub copies: u64,
    /// Decided copies never received, plus the copies of failed packets.
    pub lost: u64,
    /// Wall time of the timed section.
    pub wall_s: f64,
    /// Process CPU over the timed section minus the generator thread's.
    pub sut_cpu_ns: u64,
    /// The generator thread's CPU over the timed section.
    pub gen_cpu_ns: u64,
    /// Resident-set growth over the timed section, KiB.
    pub rss_growth_kb: i64,
    /// Peak resident set of the repetition, KiB.
    pub peak_rss_kb: u64,
    /// Lateness of the paced *lo* step.
    pub lo: Option<StepLat>,
    /// Lateness of the paced *hi* step.
    pub hi: Option<StepLat>,
    /// p90 of how late the generator reached its ticks, µs.
    pub tick_late_p90_us: f64,
    /// Mean `MuxSession::send` time, ns (traced repetitions only).
    pub send_ns: f64,
    /// Time inside each `ServerHandle::apply_op`, µs.
    pub apply_op_us: Vec<f32>,
    /// Server counters at the end.
    pub server: ServerSide,
    /// Output-check failures; empty = correct.
    pub problems: Vec<String>,
}

const SEQ_MASK: u64 = (1 << 40) - 1;
const WARMUP: usize = 0;

/// The packets a closed loop has outstanding, per sender.
///
/// Ids are `(node << 40) | seq` and each sender's copies arrive in send
/// order, so one high-water mark per sender says which of its packets have
/// completed: a packet completes when its first copy reaches any receiver.
struct Window {
    /// Per sender: send stamps of its outstanding packets, oldest first.
    stamps: Vec<VecDeque<EmuTime>>,
    /// Per sender: packets completed or failed (high-water mark of
    /// sequence + 1).
    done: Vec<u64>,
    outstanding: u64,
    /// Packets outstanding longer than [`spec::PACKET_TIMEOUT_S`].
    failed: u64,
}

impl Window {
    fn new(senders: usize) -> Window {
        Window {
            stamps: vec![VecDeque::new(); senders],
            done: vec![0; senders],
            outstanding: 0,
            failed: 0,
        }
    }

    fn sent(&mut self, src: usize, at: EmuTime) {
        self.stamps[src].push_back(at);
        self.outstanding += 1;
    }

    fn timed_out(sent_at: EmuTime, now: EmuTime) -> bool {
        now.since(sent_at).as_secs_f64() > spec::PACKET_TIMEOUT_S
    }

    /// A copy of `src`'s packet `seq` arrived at `now`: that packet and
    /// every older one of the sender are complete. A copy of a packet that
    /// already completed or failed changes nothing.
    fn arrived(&mut self, src: usize, seq: u64, now: EmuTime) {
        while self.done[src] <= seq {
            self.done[src] += 1;
            self.outstanding -= 1;
            if let Some(sent_at) = self.stamps[src].pop_front() {
                self.failed += u64::from(Window::timed_out(sent_at, now));
            }
        }
    }

    /// Fails every packet outstanding longer than the timeout at `now` and
    /// releases its slot, so a loop whose copies never arrive keeps going
    /// (and counts them) instead of waiting on a full window forever.
    fn expire(&mut self, now: EmuTime) {
        for (stamps, done) in self.stamps.iter_mut().zip(&mut self.done) {
            while stamps.front().is_some_and(|sent_at| Window::timed_out(*sent_at, now)) {
                stamps.pop_front();
                *done += 1;
                self.outstanding -= 1;
                self.failed += 1;
            }
        }
    }
}

/// The generator: sender state, receive bookkeeping and lateness capture.
struct Gen<'a> {
    spec: &'a RtSpec,
    sessions: &'a [MuxSession],
    clock: &'a dyn Clock,
    /// One payload per phase; byte 0 is the phase tag a copy carries back.
    payloads: [Bytes; 3],
    model_delay: EmuDuration,
    next_pkt: u64,
    window: Window,
    sent: [u64; 3],
    received: [u64; 3],
    lat: [Option<StepLat>; 3],
    last_rx: EmuTime,
    /// When the current poll pass started.
    pass_now: EmuTime,
    tracer: Option<&'a mut Tracer>,
    send_ns: u64,
}

impl<'a> Gen<'a> {
    fn new(spec: &'a RtSpec, env: &'a Env, tracer: Option<&'a mut Tracer>) -> Gen<'a> {
        let payload = |tag: u8| {
            let mut v = vec![0u8; spec.payload];
            v[0] = tag;
            Bytes::from(v)
        };
        Gen {
            spec,
            sessions: &env.sessions,
            clock: &*env.clock,
            payloads: [payload(0), payload(1), payload(2)],
            model_delay: scenes::forward_delay(spec.payload),
            next_pkt: 0,
            window: Window::new(spec.sessions),
            sent: [0; 3],
            received: [0; 3],
            lat: [None, None, None],
            last_rx: EmuTime::ZERO,
            pass_now: EmuTime::ZERO,
            tracer,
            send_ns: 0,
        }
    }

    fn send(&mut self, phase: usize) {
        let (src, dst) = self.spec.packet(self.next_pkt);
        self.next_pkt += 1;
        let started = self.tracer.as_ref().map(|t| t.now());
        self.sessions[src]
            .send(CH, dst, self.payloads[phase].clone())
            .expect("the server accepts the send")
            .expect("every session is tuned to the channel");
        if let (Some(t), Some(start_ns)) = (self.tracer.as_deref_mut(), started) {
            let end_ns = t.now();
            t.push("client.send", start_ns, end_ns, NONE, NONE);
            self.send_ns += end_ns - start_ns;
        }
        self.window.sent(src, self.clock.now());
        self.sent[phase] += 1;
    }

    /// Pops every session queue once. Returns the copies received.
    fn poll(&mut self) -> usize {
        let pass_started = self.tracer.as_ref().map(|t| t.now());
        let pass_now = self.clock.now();
        self.pass_now = pass_now;
        let mut got = 0;
        let sessions = self.sessions;
        for s in sessions {
            while let Some((pkt, forwarded_at)) = s.try_recv() {
                got += 1;
                let phase = usize::from(pkt.payload[0]).min(2);
                self.received[phase] += 1;
                if let Some(buf) = self.lat[phase].as_mut() {
                    let now = self.clock.now();
                    let modeled = pkt.sent_at + self.model_delay;
                    let us = |d: EmuDuration| d.as_nanos() as f32 / 1e3;
                    let err = us(now.since(modeled));
                    buf.recv_err_us.push(err);
                    buf.fire_err_us.push(us(forwarded_at.since(modeled)));
                    buf.gap_us.push(us(now.since(forwarded_at)));
                }
                let src = (pkt.id.0 >> 40) as usize - 1;
                self.window.arrived(src, pkt.id.0 & SEQ_MASK, pass_now);
            }
        }
        if got > 0 {
            self.last_rx = self.clock.now();
            if let (Some(t), Some(start_ns)) = (self.tracer.as_deref_mut(), pass_started) {
                let end_ns = t.now();
                t.push("client.pop", start_ns, end_ns, NONE, NONE);
            }
        }
        got
    }

    /// Polls until `done()` or the drain deadline. Yields the core while
    /// nothing arrives so the client reader, which shares it, is never
    /// starved by the generator's polling.
    fn poll_until(&mut self, mut done: impl FnMut(&Gen<'_>) -> bool) -> bool {
        let deadline = Instant::now() + Duration::from_secs_f64(spec::DRAIN_S);
        loop {
            if self.poll() == 0 {
                if done(self) {
                    return true;
                }
                if Instant::now() >= deadline {
                    return false;
                }
                std::thread::yield_now();
            }
        }
    }

    /// The accounting identities of a settled repetition, as
    /// `(what, got, want)`: every packet sent was ingested, ingested copies
    /// = forwarded + dropped-by-reason, received = forwarded, and the
    /// record log holds one row per ingress, forward and drop.
    fn accounts(&self, m: &MetricsSnapshot) -> [(&'static str, u64, u64); 4] {
        let c = |name: &str| m.counter(name).unwrap_or(0);
        let sent: u64 = self.sent.iter().sum();
        let forwarded = c("poem_deliveries_sent_total");
        [
            ("packets ingested vs sent", c("poem_ingest_packets_total"), sent),
            (
                "copies decided vs forwarded + undeliverable",
                c("poem_ingest_deliveries_total"),
                forwarded + c("poem_drops_total{reason=\"disconnected\"}"),
            ),
            ("copies received vs forwarded", self.received.iter().sum(), forwarded),
            (
                "traffic records vs ingress + forwards + drops",
                c("poem_recorder_traffic_records_total"),
                sent + forwarded + m.counter_family("poem_drops_total"),
            ),
        ]
    }

    /// Waits until the accounts balance (or the drain deadline passes):
    /// the server bumps its counters after the socket write, so the last
    /// copy can be here before the server has counted it.
    fn drain(&mut self, server: &ServerHandle) -> bool {
        let mut last_check = Instant::now() - Duration::from_secs(1);
        self.poll_until(|g| {
            // A snapshot walks the whole registry; look twice a millisecond.
            if last_check.elapsed() < Duration::from_micros(500) {
                return false;
            }
            last_check = Instant::now();
            g.accounts(&server.metrics()).iter().all(|(_, got, want)| got == want)
        })
    }

    /// Open loop: `burst` packets on each of `ticks` ticks. Returns how
    /// late the generator reached each tick, µs.
    fn paced_step(&mut self, phase: usize, burst: usize, ticks: u64) -> Vec<f32> {
        let tick = EmuDuration::from_micros(spec::TICK_US as i64);
        let t0 = self.clock.now() + tick;
        let mut late = Vec::with_capacity(ticks as usize);
        for k in 0..ticks {
            let due = t0 + tick * k as i64;
            loop {
                let idle = self.poll() == 0;
                let now = self.clock.now();
                if now >= due {
                    late.push(now.since(due).as_nanos() as f32 / 1e3);
                    break;
                }
                if idle {
                    std::thread::yield_now();
                }
            }
            for _ in 0..burst {
                self.send(phase);
            }
        }
        late
    }

    /// Closed loop: keeps `window` packets outstanding until `total` are
    /// sent, applying one scripted move per `MOVE_EVERY_PKTS` when a mover
    /// is given. A packet outstanding longer than the timeout fails and
    /// frees its slot; false when nothing at all arrived for
    /// [`spec::DRAIN_S`] and the loop gave up.
    fn closed_loop(&mut self, phase: usize, total: u64, mut mover: Option<&mut Mover<'_>>) -> bool {
        let target = self.sent[phase] + total;
        let window = self.spec.workload.window();
        self.last_rx = self.clock.now();
        while self.sent[phase] < target {
            let mut idle = self.poll() == 0;
            if idle {
                self.window.expire(self.pass_now);
                if self.pass_now.since(self.last_rx).as_secs_f64() > spec::DRAIN_S {
                    return false;
                }
            }
            while self.window.outstanding < window && self.sent[phase] < target {
                self.send(phase);
                idle = false;
                if let Some(m) = mover.as_deref_mut() {
                    if self.next_pkt.is_multiple_of(spec::MOVE_EVERY_PKTS) {
                        m.step(self.tracer.as_deref_mut());
                    }
                }
            }
            if idle {
                std::thread::yield_now();
            }
        }
        true
    }
}

/// The scripted scene writer of the mobile workload: moves a random node
/// through `ServerHandle::apply_op`, timing the call (which is the
/// pipeline-lock wait a scene writer sees, plus the relink).
struct Mover<'a> {
    server: &'a ServerHandle,
    rng: EmuRng,
    nodes: usize,
    apply_op_us: Vec<f32>,
}

impl Mover<'_> {
    fn step(&mut self, tracer: Option<&mut Tracer>) {
        let op = scenes::scripted_move(self.nodes, &mut self.rng);
        let started = Instant::now();
        self.server.apply_op(op).expect("the node exists");
        let took = started.elapsed();
        self.apply_op_us.push(took.as_nanos() as f32 / 1e3);
        if let Some(t) = tracer {
            let end_ns = t.now();
            t.push("server.apply_op", end_ns - took.as_nanos() as u64, end_ns, NONE, NONE);
        }
    }
}

fn p90(samples: &mut [f32]) -> f64 {
    samples.sort_by(f32::total_cmp);
    crate::stats::percentile_sorted(samples, 0.90)
}

/// Reads the server-side counters after a repetition.
fn server_side(server: &ServerHandle) -> (ServerSide, MetricsSnapshot) {
    let started = Instant::now();
    let m = server.metrics();
    let snapshot_us = started.elapsed().as_secs_f64() * 1e6;
    let c = |name: &str| m.counter(name).unwrap_or(0);
    let recorded_depth = server
        .recorder()
        .metrics()
        .iter()
        .filter_map(|r| r.gauge("poem_schedule_depth"))
        .max()
        .unwrap_or(0);
    let side = ServerSide {
        batch_drains: c("poem_scan_batch_drains_total"),
        sched_depth_max: recorded_depth.max(0) as u64,
        wakes: c("poem_reactor_wakes_total"),
        read_bytes: c("poem_reactor_read_bytes_total"),
        ingested: c("poem_ingest_packets_total"),
        forwarded: c("poem_deliveries_sent_total"),
        deadline_misses: m.counter_family("poem_deadline_miss_total"),
        evictions: c("poem_writebuf_evictions_total"),
        snapshot_us,
    };
    (side, m)
}

/// The output check of one repetition: the accounts balance, nothing was
/// evicted, timed out or left outstanding, and on the static lossless
/// lattices the copy count is the one known in advance.
fn check(g: &Gen<'_>, settled: bool, m: &MetricsSnapshot, problems: &mut Vec<String>) {
    let c = |name: &str| m.counter(name).unwrap_or(0);
    if !settled {
        problems.push(format!("stalled: nothing arrived or settled within {} s", spec::DRAIN_S));
    }
    let mut expected = g.accounts(m).to_vec();
    expected.push(("write-buffer evictions", c("poem_writebuf_evictions_total"), 0));
    expected.push(("session timeouts", c("poem_session_timeouts_total"), 0));
    expected.push(("packets outstanding longer than the timeout", g.window.failed, 0));
    let fanout = match (g.spec.workload, g.spec.dst) {
        (_, Dst::NextOnRing) => Some(1),
        (Workload::RtPacedBcast, _) => Some(LATTICE_FANOUT),
        _ => None,
    };
    if let Some(per_pkt) = fanout {
        let sent: u64 = g.sent.iter().sum();
        expected.push((
            "copies decided vs packets × fan-out",
            c("poem_ingest_deliveries_total"),
            sent * per_pkt,
        ));
    }
    for (what, got, want) in expected {
        if got != want {
            problems.push(format!("{what}: {got} != {want}"));
        }
    }
}

/// CPU and memory readings at the start of a timed section.
struct Meter {
    rss_kb: i64,
    process_cpu_ns: u64,
    gen_cpu_ns: u64,
}

impl Meter {
    fn start() -> Meter {
        let pid = std::process::id();
        Meter {
            rss_kb: procfs::vm_kb(pid, "VmRSS") as i64,
            process_cpu_ns: procfs::process_cpu_ns(pid),
            gen_cpu_ns: procfs::thread_cpu_ns(),
        }
    }

    /// Files the section's CPU and memory use in `rep`. The generator's
    /// own CPU is load, not the system under test, and is kept apart.
    fn finish(self, rep: &mut RtRep) {
        let now = Meter::start();
        rep.gen_cpu_ns = now.gen_cpu_ns - self.gen_cpu_ns;
        rep.sut_cpu_ns = (now.process_cpu_ns - self.process_cpu_ns).saturating_sub(rep.gen_cpu_ns);
        rep.rss_growth_kb = now.rss_kb - self.rss_kb;
    }
}

/// Copies one broadcast makes on the paced lattice.
const LATTICE_FANOUT: u64 = 8;

/// How a repetition starts: the peak-memory mark reset, then `cycles`
/// set-ups, all but the last torn down at once. Returns the environment of
/// the last, its `setup_s` replaced by the mean over all of them.
fn timed_setup(spec: &RtSpec, seed: u64, cycles: usize) -> Env {
    procfs::reset_peak_rss();
    let mut total_s = 0.0;
    for _ in 1..cycles {
        let env = setup(spec, seed);
        total_s += env.setup_s;
        teardown(env);
    }
    let mut env = setup(spec, seed);
    env.setup_s = (total_s + env.setup_s) / cycles.max(1) as f64;
    env
}

/// What every repetition ends with, before teardown: the server's
/// counters, the output check, the loss count.
fn settle(g: Gen<'_>, env: &Env, settled: bool, mut rep: RtRep) -> RtRep {
    if g.tracer.is_some() {
        rep.send_ns = g.send_ns as f64 / (g.sent.iter().sum::<u64>().max(1)) as f64;
    }
    let (side, snapshot) = server_side(&env.server);
    rep.server = side;
    rep.peak_rss_kb = procfs::peak_rss_kb();
    check(&g, settled, &snapshot, &mut rep.problems);
    let mean_fanout = rep.decided as f64 / rep.pkts.max(1) as f64;
    rep.lost = rep.decided.saturating_sub(rep.copies)
        + (g.window.failed as f64 * mean_fanout).round() as u64;
    rep
}

/// One repetition of the paced lattice: set-up, untimed warm-up, the *lo*
/// and the *hi* step of `ticks` ticks each, the accounting check,
/// teardown. Every workload's repetitions start with one: it is where the
/// six lateness metrics come from.
pub fn paced_repetition(
    ticks: u64,
    setup_cycles: usize,
    seed: u64,
    tracer: Option<&mut Tracer>,
) -> RtRep {
    let spec = RtSpec::of(Workload::RtPacedBcast);
    let env = timed_setup(&spec, seed, setup_cycles);
    let mut rep = RtRep {
        setup_s: env.setup_s,
        attach_us_per_session: env.attach_us_per_session,
        ..RtRep::default()
    };
    let mut g = Gen::new(&spec, &env, tracer);
    let warm_ticks = ((ticks as f64) * spec::WARMUP_SHARE).ceil() as u64;
    g.paced_step(WARMUP, spec::LO_BURST, warm_ticks);
    g.paced_step(WARMUP, spec::HI_BURST, warm_ticks);
    let mut settled = g.drain(&env.server);

    let meter = Meter::start();
    let mut late = Vec::new();
    for (phase, burst) in [(1usize, spec::LO_BURST), (2, spec::HI_BURST)] {
        let decided = ticks * burst as u64 * LATTICE_FANOUT;
        g.lat[phase] = Some(StepLat {
            decided,
            recv_err_us: Vec::with_capacity(decided as usize),
            fire_err_us: Vec::with_capacity(decided as usize),
            gap_us: Vec::with_capacity(decided as usize),
        });
        let started = g.clock.now();
        late.extend(g.paced_step(phase, burst, ticks));
        // The step ends when its last copy is in (≥ the 2 ms link delay
        // after the last send), so steps never overlap.
        settled &= g.poll_until(|g| g.received[phase] == decided);
        rep.wall_s += g.last_rx.since(started).as_secs_f64();
    }
    settled &= g.drain(&env.server);
    meter.finish(&mut rep);
    rep.tick_late_p90_us = p90(&mut late);
    rep.pkts = g.sent[1] + g.sent[2];
    rep.copies = g.received[1] + g.received[2];
    rep.decided = rep.pkts * LATTICE_FANOUT;
    rep.lo = g.lat[1].take();
    rep.hi = g.lat[2].take();
    let rep = settle(g, &env, settled, rep);
    teardown(env);
    rep
}

/// One repetition of a closed-loop workload: set-up, untimed warm-up,
/// `total` packets with the window kept full, the accounting check,
/// teardown.
pub fn closed_repetition(
    spec: &RtSpec,
    total: u64,
    setup_cycles: usize,
    seed: u64,
    tracer: Option<&mut Tracer>,
) -> RtRep {
    let env = timed_setup(spec, seed, setup_cycles);
    let mut rep = RtRep {
        setup_s: env.setup_s,
        attach_us_per_session: env.attach_us_per_session,
        ..RtRep::default()
    };
    let mut g = Gen::new(spec, &env, tracer);
    let decided_so_far = |server: &ServerHandle| {
        server.metrics().counter("poem_ingest_deliveries_total").unwrap_or(0)
    };
    let mut mover = (spec.workload == Workload::RtSatBcast1kMobile).then(|| Mover {
        server: &env.server,
        rng: EmuRng::seed(seed ^ 0x30BE),
        nodes: spec.sessions,
        apply_op_us: Vec::new(),
    });
    let warm_pkts = (total as f64 * spec::WARMUP_SHARE).ceil() as u64;
    let mut settled = g.closed_loop(WARMUP, warm_pkts, mover.as_mut()) && g.drain(&env.server);
    if let Some(m) = mover.as_mut() {
        m.apply_op_us.clear();
    }

    let decided0 = decided_so_far(&env.server);
    let meter = Meter::start();
    let started = g.clock.now();
    settled &= g.closed_loop(1, total, mover.as_mut()) && g.drain(&env.server);
    rep.wall_s = g.last_rx.since(started).as_secs_f64();
    meter.finish(&mut rep);
    rep.pkts = g.sent[1];
    rep.copies = g.received[1];
    rep.decided = decided_so_far(&env.server) - decided0;
    rep.apply_op_us = mover.map(|m| m.apply_op_us).unwrap_or_default();
    let rep = settle(g, &env, settled, rep);
    teardown(env);
    rep
}

#[cfg(test)]
mod tests {
    use super::*;

    fn at(ms: i64) -> EmuTime {
        EmuTime::ZERO + EmuDuration::from_millis(ms)
    }

    #[test]
    fn one_copy_completes_a_sender_s_older_packets_too() {
        let mut w = Window::new(2);
        for seq in 0..3 {
            w.sent(0, at(seq));
        }
        w.sent(1, at(3));
        assert_eq!(w.outstanding, 4);
        w.arrived(0, 1, at(10));
        assert_eq!((w.outstanding, w.done[0], w.failed), (2, 2, 0));
        // A second copy of a completed packet changes nothing.
        w.arrived(0, 0, at(11));
        assert_eq!((w.outstanding, w.done[0]), (2, 2));
    }

    #[test]
    fn a_packet_outstanding_over_a_second_fails_and_frees_its_slot() {
        let mut w = Window::new(2);
        w.sent(0, at(0));
        w.sent(0, at(600));
        w.sent(1, at(0));
        // Nothing ever arrives: at 1.2 s the two packets of t = 0 fail.
        w.expire(at(1_200));
        assert_eq!((w.outstanding, w.failed, w.done[0], w.done[1]), (1, 2, 1, 1));
        // Its late copy is ignored; the younger packet still completes,
        // and one that arrives after the timeout counts as failed.
        w.arrived(0, 0, at(1_300));
        assert_eq!((w.outstanding, w.failed), (1, 2));
        w.arrived(0, 1, at(1_700));
        assert_eq!((w.outstanding, w.failed, w.done[0]), (0, 3, 2));
        w.expire(at(5_000));
        assert_eq!((w.outstanding, w.failed), (0, 3));
    }
}
