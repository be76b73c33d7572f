//! The real-time TCP emulation server (§3.2).
//!
//! Thread architecture follows the paper's step list, with the receive
//! path run by a readiness reactor instead of a thread per client:
//!
//! * a small set of **poll workers** ([`crate::reactor`]) own the
//!   listener and every client socket (non-blocking), performing steps
//!   1–4 (receive, neighbor lookup, drop/forward-time decision, list
//!   into the schedule) and answering clock-sync requests; each session
//!   is an explicit state machine ([`crate::session`]) — `Handshake →
//!   Legacy` for the classic one-VMN protocol, `Handshake → Mux` for
//!   multiplexed connections carrying many virtual sessions;
//! * one **scanning** thread "keeps watching the schedule and initiates"
//!   the send "once the emulation clock meets the time to forward"
//!   (steps 5–6) — in passes: everything that came due together is
//!   encoded into per-connection output buffers, copies of one packet for
//!   one mux connection sharing a frame, and each connection is written
//!   once; sends never block, leftovers are flushed by the owning worker;
//! * one **mobility** thread integrates mobility models in real time;
//! * recording (step 7) happens through the shared, thread-safe
//!   [`Recorder`].
//!
//! Read/idle deadlines are enforced by a per-worker timer wheel
//! ([`crate::timer`]) rather than `SO_RCVTIMEO`; shutdown wakes the
//! workers through explicit [`crate::reactor::Waker`] handles, so no
//! loopback self-connect is needed to unblock an accept call.
//!
//! Scene construction stays centralized: [`ServerHandle::apply_op`] is the
//! programmatic equivalent of the paper's GUI interactions and takes
//! effect immediately for every client — the consistency argument of §2.3.

use crate::engine::{Delivery, Pipeline};
use crate::faults::{ClockFault, FaultExecutor, FaultHost, FaultStep, Gate, WireProbs};
use crate::reactor::{ConnShared, Enqueue, Reactor};
use crate::session::{Conn, PacingConfig, SessionState};
use crate::timer::TimerWheel;
use parking_lot::{Condvar, Mutex};
use poem_chaos::{FaultKind, FaultPlan, WireFaultHub};
use poem_cluster::{ClusterError, Coordinator};
use poem_core::clock::Clock;
use poem_core::scene::{Scene, SceneError, SceneOp};
use poem_core::sleep::{DutyCycle, GuardBand, SleepPolicy};
use poem_core::{EmuDuration, EmuPacket, EmuRng, EmuTime, ForwardSchedule, NodeId, PacketId};
use poem_obs::{Counter, Gauge, Histogram, MetricsSnapshot, Registry};
use poem_proto::messages::{ClientMsg, ServerMsg, PROTOCOL_VERSION};
use poem_record::HistogramRow;
use poem_record::{MetricsRecord, Recorder, TrafficRecord};
use std::collections::{BTreeMap, HashMap};
use std::io::{self, Read};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Server configuration.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Bind address (`127.0.0.1:0` picks a free port).
    pub addr: SocketAddr,
    /// Seed for the pipeline's stochastic decisions.
    pub seed: u64,
    /// Wall-clock interval at which mobility is integrated.
    pub mobility_step: Duration,
    /// Wall-clock interval at which a [`MetricsRecord`] snapshot is
    /// appended to the record log.
    pub metrics_interval: Duration,
    /// Per-client socket read timeout. A blocked `recv` wakes at this
    /// interval to re-check liveness (shutdown, eviction); `None` blocks
    /// forever, restoring the pre-hardening behavior.
    pub read_timeout: Option<Duration>,
    /// Per-client socket write timeout. Bounds how long a delivery send
    /// may block on a consumer that stopped reading; on expiry the client
    /// is evicted instead of wedging the scanning thread.
    pub write_timeout: Option<Duration>,
    /// How the scanning thread waits out the gap to the next forward
    /// deadline. [`SleepPolicy::Hybrid`] (the default) condvar-sleeps
    /// down to a calibrated guard band and spins the remainder; `Naive`
    /// restores the fixed-floor pre-calibration wait; `Spin` busy-waits
    /// whole gaps.
    pub sleep_policy: SleepPolicy,
    /// Scan-lag threshold past which a pass counts as degraded: the
    /// `poem_scan_overload` gauge is raised until the loop catches up,
    /// `poem_scan_batch_drains_total` ticks, and `Auto` feeds its duty
    /// cycle. (Every pass fires everything due; the threshold only
    /// decides what is reported and how `Auto` waits.)
    pub overload_threshold: Duration,
    /// Poll workers in the reactor. Two suffice for the scenarios the
    /// paper sizes (readiness scanning is cheap); raise for many busy
    /// connections on a many-core host.
    pub reactor_workers: usize,
    /// Cap on one connection's pending output bytes. A consumer whose
    /// backlog would exceed it is evicted (`poem_writebuf_evictions_total`).
    pub write_buffer_cap: usize,
    /// Per-session token-bucket send pacing. `None` (the default) ingests
    /// at line rate; `Some` grants each virtual session a sustained rate
    /// plus burst, parking excess packets (`poem_session_paced_total`)
    /// and pausing the connection's reads when the parked queue fills.
    pub pacing: Option<PacingConfig>,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            addr: SocketAddr::from(([127, 0, 0, 1], 0)),
            seed: 0,
            mobility_step: Duration::from_millis(100),
            metrics_interval: Duration::from_secs(1),
            read_timeout: Some(Duration::from_secs(30)),
            write_timeout: Some(Duration::from_secs(2)),
            sleep_policy: SleepPolicy::default(),
            overload_threshold: Duration::from_millis(5),
            reactor_workers: 2,
            write_buffer_cap: 8 * 1024 * 1024,
            pacing: None,
        }
    }
}

/// One attached VMN's routing entry: which connection hosts it and how to
/// frame deliveries towards it.
#[derive(Clone)]
struct ClientEntry {
    conn: Arc<ConnShared>,
    /// Deliveries travel as `DeliverTo`/`DeliverMany` (mux virtual
    /// session) instead of `Deliver` (legacy whole-socket session).
    mux: bool,
    /// Deliveries sent to this client
    /// (`poem_client_deliveries_total{node="N"}`).
    delivered: Arc<Counter>,
}

/// Bucket bounds (ns) for scan-loop firing lag (`fired_at − fire_at`) and
/// for event lag (`popped_at − due`): 1 µs … 1 s, dense at the low end so
/// the naive/hybrid policy gap stays visible in the quantiles.
const SCAN_LAG_BOUNDS: &[u64] = &[
    1_000,
    5_000,
    20_000,
    50_000,
    100_000,
    500_000,
    1_000_000,
    5_000_000,
    20_000_000,
    100_000_000,
    1_000_000_000,
];

/// Bucket bounds (ns) for condvar wake-up error (how far past the
/// requested instant the OS actually woke the scan thread): 1 µs … 16 ms.
const WAKE_ERROR_BOUNDS: &[u64] =
    &[1_000, 4_000, 16_000, 64_000, 256_000, 1_000_000, 4_000_000, 16_000_000];

/// Deadline-miss severity buckets (firing lag past `fire_at`): within
/// 100 µs counts as on time, then minor ≤ 1 ms, major ≤ 10 ms, severe
/// beyond that.
const MISS_ON_TIME_NS: u64 = 100_000;
const MISS_MINOR_NS: u64 = 1_000_000;
const MISS_MAJOR_NS: u64 = 10_000_000;

/// The server threads' handles into the shared registry.
struct ServerMetrics {
    schedule_depth: Arc<Gauge>,
    scan_lag_ns: Arc<Histogram>,
    event_lag_ns: Arc<Histogram>,
    wake_error_ns: Arc<Histogram>,
    overload: Arc<Gauge>,
    batch_drains: Arc<Counter>,
    auto_batch_mode: Arc<Gauge>,
    miss_minor: Arc<Counter>,
    miss_major: Arc<Counter>,
    miss_severe: Arc<Counter>,
    clients_connected: Arc<Gauge>,
    disconnects: Arc<Counter>,
    deliveries_sent: Arc<Counter>,
    delivery_frames: Arc<Counter>,
    drops_disconnected: Arc<Counter>,
    reactor_conns: Arc<Gauge>,
    reactor_wakes: Arc<Counter>,
    reactor_read_bytes: Arc<Counter>,
    reactor_write_bytes: Arc<Counter>,
    session_timeouts: Arc<Counter>,
    session_paced: Arc<Counter>,
    writebuf_evictions: Arc<Counter>,
}

impl ServerMetrics {
    fn new(registry: &Registry) -> Self {
        ServerMetrics {
            schedule_depth: registry.gauge("poem_schedule_depth"),
            scan_lag_ns: registry.histogram("poem_scan_lag_ns", SCAN_LAG_BOUNDS),
            event_lag_ns: registry.histogram("poem_event_lag_ns", SCAN_LAG_BOUNDS),
            wake_error_ns: registry.histogram("poem_wake_error_ns", WAKE_ERROR_BOUNDS),
            overload: registry.gauge("poem_scan_overload"),
            batch_drains: registry.counter("poem_scan_batch_drains_total"),
            auto_batch_mode: registry.gauge("poem_auto_batch_mode"),
            miss_minor: registry.counter("poem_deadline_miss_total{severity=\"minor\"}"),
            miss_major: registry.counter("poem_deadline_miss_total{severity=\"major\"}"),
            miss_severe: registry.counter("poem_deadline_miss_total{severity=\"severe\"}"),
            clients_connected: registry.gauge("poem_clients_connected"),
            disconnects: registry.counter("poem_client_disconnects_total"),
            deliveries_sent: registry.counter("poem_deliveries_sent_total"),
            delivery_frames: registry.counter("poem_delivery_frames_total"),
            // Same instrument the pipeline registered — shared handle.
            drops_disconnected: registry.counter("poem_drops_total{reason=\"disconnected\"}"),
            reactor_conns: registry.gauge("poem_reactor_conns"),
            reactor_wakes: registry.counter("poem_reactor_wakes_total"),
            reactor_read_bytes: registry.counter("poem_reactor_read_bytes_total"),
            reactor_write_bytes: registry.counter("poem_reactor_write_bytes_total"),
            session_timeouts: registry.counter("poem_session_timeouts_total"),
            session_paced: registry.counter("poem_session_paced_total"),
            writebuf_evictions: registry.counter("poem_writebuf_evictions_total"),
        }
    }

    /// Severity-bucketed deadline accounting for one firing lag.
    fn note_lag(&self, lag_ns: u64) {
        self.scan_lag_ns.observe(lag_ns);
        if lag_ns > MISS_ON_TIME_NS {
            if lag_ns <= MISS_MINOR_NS {
                self.miss_minor.inc();
            } else if lag_ns <= MISS_MAJOR_NS {
                self.miss_major.inc();
            } else {
                self.miss_severe.inc();
            }
        }
    }
}

struct Shared {
    pipeline: Mutex<Pipeline>,
    /// The scenario seed (`ServerConfig::seed`), kept so late-installed
    /// profile libraries fork their regime RNG from the same root.
    seed: u64,
    recorder: Arc<Recorder>,
    clock: Arc<dyn Clock>,
    clients: Mutex<HashMap<NodeId, ClientEntry>>,
    schedule: Mutex<ForwardSchedule<Delivery>>,
    schedule_cv: Condvar,
    running: AtomicBool,
    registry: Arc<Registry>,
    metrics: ServerMetrics,
    /// The poll-worker set and its connection registry.
    reactor: Reactor,
    /// Wake total already folded into `poem_reactor_wakes_total`.
    wakes_seen: AtomicU64,
    /// The fault executor, created by the first fault driver. Its stall
    /// book gates every fire pass.
    faults: OnceLock<FaultExecutor>,
    /// Distributed forwarding, when a worker fleet is attached. The
    /// real-time frontend uses it best-effort: any cluster failure logs,
    /// tears the fleet down, and falls back to local forwarding (unlike
    /// the virtual-time harness, which fails the run — real time has no
    /// byte-identity contract to protect).
    cluster: Mutex<Option<Box<Coordinator>>>,
    read_timeout: Option<Duration>,
    write_timeout: Option<Duration>,
    write_buffer_cap: usize,
    pacing: Option<PacingConfig>,
    /// Paired mutex/condvar the periodic threads (mobility, metrics)
    /// sleep on; `shutdown()` notifies it so a long step interval never
    /// stalls the join and no step runs after `running` flips.
    shutdown_mx: Mutex<()>,
    shutdown_cv: Condvar,
}

/// A running emulation server.
pub struct ServerHandle {
    shared: Arc<Shared>,
    addr: SocketAddr,
    threads: Mutex<Vec<JoinHandle<()>>>,
}

impl ServerHandle {
    /// Starts a server emulating `scene` against `clock`.
    pub fn start(
        scene: Scene,
        clock: Arc<dyn Clock>,
        config: ServerConfig,
    ) -> io::Result<Arc<ServerHandle>> {
        let listener = TcpListener::bind(config.addr)?;
        // Non-blocking accept: worker 0 polls it alongside its sockets,
        // so shutdown needs no dummy connection to unblock an accept.
        listener.set_nonblocking(true)?;
        let addr = listener.local_addr()?;
        let recorder = Arc::new(Recorder::new());
        let pipeline = Pipeline::new(scene, Arc::clone(&recorder), EmuRng::seed(config.seed));
        pipeline.record_initial_scene(clock.now());
        // One registry for the whole server: the pipeline created it (and
        // registered its own and the recorder's instruments); the server
        // threads add scheduling/session instruments to the same one.
        let registry = Arc::clone(pipeline.metrics_registry());
        let metrics = ServerMetrics::new(&registry);
        let shared = Arc::new(Shared {
            pipeline: Mutex::new(pipeline),
            seed: config.seed,
            recorder,
            clock,
            clients: Mutex::new(HashMap::new()),
            schedule: Mutex::new(ForwardSchedule::new()),
            schedule_cv: Condvar::new(),
            running: AtomicBool::new(true),
            registry,
            metrics,
            reactor: Reactor::new(config.reactor_workers),
            wakes_seen: AtomicU64::new(0),
            faults: OnceLock::new(),
            cluster: Mutex::new(None),
            read_timeout: config.read_timeout,
            write_timeout: config.write_timeout,
            write_buffer_cap: config.write_buffer_cap,
            pacing: config.pacing,
            shutdown_mx: Mutex::new(()),
            shutdown_cv: Condvar::new(),
        });

        let mut threads = Vec::new();
        let mut listener = Some(listener);
        for idx in 0..shared.reactor.workers.len() {
            threads.push(spawn_named(&format!("poem-reactor-{idx}"), {
                let shared = Arc::clone(&shared);
                let listener = listener.take();
                move || reactor_worker_loop(shared, idx, listener)
            })?);
        }
        threads.push(spawn_named("poem-scan", {
            let shared = Arc::clone(&shared);
            let policy = config.sleep_policy;
            let overload = EmuDuration::from_nanos(config.overload_threshold.as_nanos() as i64);
            move || scan_loop(shared, policy, overload)
        })?);
        threads.push(spawn_named("poem-mobility", {
            let shared = Arc::clone(&shared);
            let step = config.mobility_step;
            move || mobility_loop(shared, step)
        })?);
        threads.push(spawn_named("poem-metrics", {
            let shared = Arc::clone(&shared);
            let interval = config.metrics_interval;
            move || metrics_loop(shared, interval)
        })?);

        Ok(Arc::new(ServerHandle { shared, addr, threads: Mutex::new(threads) }))
    }

    /// The bound address clients should connect to.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The run's recorder.
    pub fn recorder(&self) -> Arc<Recorder> {
        Arc::clone(&self.shared.recorder)
    }

    /// The server's emulation clock.
    pub fn clock(&self) -> Arc<dyn Clock> {
        Arc::clone(&self.shared.clock)
    }

    /// A point-in-time snapshot of every server metric: pipeline ingest
    /// and drop counters, recorder buffering, schedule depth, scan-loop
    /// firing lag, and per-client delivery counts. Render it with
    /// [`poem_obs::MetricsSnapshot::to_text`] (Prometheus exposition) or
    /// [`crate::viz::render_metrics`] (human table).
    pub fn metrics(&self) -> MetricsSnapshot {
        // Refresh the depth gauge so a snapshot between scan wake-ups
        // still reflects reality.
        self.shared.metrics.schedule_depth.set(self.shared.schedule.lock().len() as i64);
        self.shared.refresh_reactor_metrics();
        self.shared.registry.snapshot()
    }

    /// Switches forwarding to a `poem-shardd` worker fleet. Call before
    /// clients connect; the fleet mirrors the current scene. Real-time
    /// cluster use is best-effort — a cluster failure mid-run falls back
    /// to local forwarding instead of killing the server.
    pub fn attach_cluster(
        &self,
        mut config: poem_cluster::ClusterConfig,
    ) -> Result<(), poem_cluster::ClusterError> {
        let pipeline = self.shared.pipeline.lock();
        if pipeline.mac() != poem_core::mac::MacModel::None {
            return Err(poem_cluster::ClusterError::Unsupported(
                "MAC models (medium state is global)",
            ));
        }
        config.seed = self.shared.seed;
        let coord = poem_cluster::Coordinator::launch(
            config,
            pipeline.decide_base(),
            pipeline.scene(),
            pipeline.metrics_registry(),
        )?;
        *self.shared.cluster.lock() = Some(Box::new(coord));
        Ok(())
    }

    /// Whether a worker fleet is currently attached.
    pub fn cluster_attached(&self) -> bool {
        self.shared.cluster.lock().is_some()
    }

    /// Applies a scene operation right now — the API behind the paper's
    /// GUI drag/configure interactions.
    pub fn apply_op(&self, op: SceneOp) -> Result<(), SceneError> {
        self.shared.apply_op(op)
    }

    /// Runs `f` with read access to the current scene.
    pub fn with_scene<R>(&self, f: impl FnOnce(&Scene) -> R) -> R {
        f(self.shared.pipeline.lock().scene())
    }

    /// Installs an empirical profile library, seeded with the server's
    /// scenario seed so the real-time frontend realizes the same regime
    /// sequences a virtual-time run of the scenario would.
    pub fn install_profiles(&self, library: poem_profiles::ProfileLibrary) {
        self.shared.pipeline.lock().install_profiles(library, self.shared.seed);
    }

    /// Currently connected VMNs.
    pub fn connected(&self) -> Vec<NodeId> {
        let mut v: Vec<NodeId> = self.shared.clients.lock().keys().copied().collect();
        v.sort_unstable();
        v
    }

    /// Forcibly drops `node`'s connection (the transport-layer
    /// `Disconnect` fault). Returns `false` when the node was not
    /// connected. The scene node stays; subsequent copies towards it
    /// become `Disconnected` drops until the client reconnects.
    pub fn disconnect(&self, node: NodeId) -> bool {
        self.shared.evict(node)
    }

    /// Spawns a thread that executes `plan` against wall-clock time:
    /// each spec fires once the emulation clock reaches its injection
    /// time, including the restore legs of timed faults (flap, jam,
    /// crash-with-restart, stall release). Wire faults are routed through
    /// `wires` (streams registered there keep mangling until
    /// reconfigured); clock faults are recorded and counted, the actual
    /// skew lives client-side in a `ChaosClock`. The thread exits when
    /// the plan (restores included) is exhausted or the server shuts
    /// down.
    pub fn spawn_fault_driver(
        &self,
        plan: &FaultPlan,
        wires: Option<Arc<WireFaultHub>>,
    ) -> io::Result<JoinHandle<()>> {
        let shared = Arc::clone(&self.shared);
        let plan = plan.clone();
        spawn_named("poem-chaos", move || fault_driver(shared, plan, wires))
    }

    /// Announces shutdown to every client and stops all threads. The
    /// reactor workers are woken through their [`crate::reactor::Waker`]
    /// handles — no loopback self-connect — and perform one bounded final
    /// flush so queued `Shutdown` frames still reach well-behaved peers.
    pub fn shutdown(&self) {
        if !self.shared.running.swap(false, Ordering::AcqRel) {
            return;
        }
        // Queue the goodbye on every live connection (handshake-stage
        // ones included). An idle socket takes the frame right here;
        // leftovers flush in the workers' teardown pass.
        let conns: Vec<_> = self.shared.reactor.conns.lock().values().cloned().collect();
        for conn in conns {
            let _ = conn.post(&ServerMsg::Shutdown, self.shared.write_buffer_cap);
            conn.close_after_flush();
        }
        self.shared.clients.lock().clear();
        self.shared.metrics.clients_connected.set(0);
        self.shared.schedule_cv.notify_all();
        // Wake the periodic threads mid-interval. The lock round-trip
        // orders the notify after any in-flight `running` check, so a
        // sleeper can't slip into its wait and miss the wake-up.
        {
            let _guard = self.shared.shutdown_mx.lock();
            self.shared.shutdown_cv.notify_all();
        }
        self.shared.reactor.wake_all();
        let threads: Vec<_> = self.threads.lock().drain(..).collect();
        for t in threads {
            let _ = t.join();
        }
        // Detach first so the (blocking) teardown runs unlocked.
        let dead = self.shared.cluster.lock().take();
        if let Some(mut coord) = dead {
            coord.shutdown();
        }
    }
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        self.shutdown();
    }
}

impl std::fmt::Debug for ServerHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ServerHandle")
            .field("addr", &self.addr)
            .field("connected", &self.connected())
            .finish_non_exhaustive()
    }
}

fn spawn_named(name: &str, f: impl FnOnce() + Send + 'static) -> io::Result<JoinHandle<()>> {
    std::thread::Builder::new().name(name.into()).spawn(f)
}

/// Tick interval of each worker's timer wheel: idle-deadline granularity.
const TIMER_TICK: Duration = Duration::from_millis(50);

/// Slots per timer wheel. One revolution covers 64 × 50 ms = 3.2 s;
/// longer read timeouts fire early and lazily re-arm with the remainder.
const TIMER_SLOTS: usize = 64;

/// How long a worker parks when a full pass made no progress. Bounds the
/// latency of any wake the unpark token missed (there are none in theory;
/// this is the liveness backstop).
const PARK_IDLE: Duration = Duration::from_millis(1);

/// Bound on the final output drain a worker performs at shutdown, so
/// queued `Shutdown` frames reach well-behaved peers without a wedged one
/// stalling the join.
const SHUTDOWN_FLUSH: Duration = Duration::from_millis(200);

/// One poll worker (§3.2 steps 1–4 for its share of the connections).
/// Worker 0 additionally owns the (non-blocking) listener. Each pass:
/// accept, register dispatched streams, drain paced packets whose tokens
/// refilled, read + decode + handle every readable socket (accumulating
/// `Data` into one batch stamped with a single `received_at`), ingest the
/// batch, flush pending output (evicting stalled consumers), advance the
/// timer wheel for idle deadlines, reap closed connections, and park
/// briefly if nothing moved.
fn reactor_worker_loop(shared: Arc<Shared>, idx: usize, listener: Option<TcpListener>) {
    let worker = Arc::clone(&shared.reactor.workers[idx]);
    worker.waker.register();
    let mut conns: BTreeMap<u64, Conn> = BTreeMap::new();
    let mut wheel = TimerWheel::new(TIMER_TICK, TIMER_SLOTS, Instant::now());
    let mut fired: Vec<u64> = Vec::new();
    let mut scratch = vec![0u8; 64 * 1024];
    let mut batch: Vec<EmuPacket> = Vec::new();
    while shared.running.load(Ordering::Acquire) {
        let mut progress = false;
        if let Some(l) = listener.as_ref() {
            loop {
                match l.accept() {
                    Ok((stream, _)) => {
                        shared.reactor.dispatch(stream);
                        progress = true;
                    }
                    Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                    Err(_) => break,
                }
            }
        }
        let fresh: Vec<TcpStream> = std::mem::take(&mut *worker.incoming.lock());
        for stream in fresh {
            progress = true;
            if let Some(conn) = register_conn(&shared, idx, stream, &mut wheel) {
                conns.insert(conn.shared.id, conn);
            }
        }
        for conn in conns.values_mut() {
            progress |= read_pass(&shared, conn, &mut scratch, &mut batch);
        }
        if !batch.is_empty() {
            // One timestamp for everything this pass received: packets
            // that arrived together are decided together (and, under a
            // cluster, travel as one coordinator round-trip).
            let received_at = shared.clock.now();
            let deliveries = ingest_batch_best_effort(&shared, &batch, received_at);
            batch.clear();
            if !deliveries.is_empty() {
                let mut schedule = shared.schedule.lock();
                for d in deliveries {
                    schedule.schedule(d.fire_at, d);
                }
                shared.metrics.schedule_depth.set(schedule.len() as i64);
                shared.schedule_cv.notify_all();
            }
            progress = true;
        }
        for conn in conns.values() {
            if conn.shared.closed.load(Ordering::Acquire) || conn.shared.backlog() == 0 {
                continue;
            }
            match conn.shared.flush(shared.write_timeout) {
                Ok(n) => progress |= n > 0,
                Err(e) => {
                    if e.kind() == io::ErrorKind::TimedOut {
                        shared.metrics.writebuf_evictions.inc();
                    }
                    conn.shared.close();
                    progress = true;
                }
            }
        }
        fired.clear();
        wheel.advance(Instant::now(), &mut fired);
        if let Some(limit) = shared.read_timeout {
            for id in fired.drain(..) {
                let Some(conn) = conns.get(&id) else { continue };
                if conn.shared.closed.load(Ordering::Acquire) {
                    continue;
                }
                let idle = conn.shared.idle_for();
                if idle >= limit {
                    // Fully silent in both directions for the whole
                    // timeout: a half-open carcass. Deliveries count as
                    // activity, so a pure listener is never reaped.
                    shared.metrics.session_timeouts.inc();
                    conn.shared.close();
                    progress = true;
                } else {
                    wheel.arm(id, limit - idle);
                }
            }
        }
        conns.retain(|_, conn| {
            if conn.shared.closed.load(Ordering::Acquire) {
                deregister_conn(&shared, conn);
                progress = true;
                false
            } else {
                true
            }
        });
        if !progress {
            std::thread::park_timeout(PARK_IDLE);
        }
    }
    // Teardown: bounded final flush so the Shutdown frames shutdown()
    // queued still reach peers that are reading.
    let deadline = Instant::now() + SHUTDOWN_FLUSH;
    loop {
        let mut pending = false;
        for conn in conns.values() {
            if conn.shared.closed.load(Ordering::Acquire) {
                continue;
            }
            if conn.shared.flush(None).is_err() {
                conn.shared.close();
            } else if conn.shared.backlog() > 0 {
                pending = true;
            }
        }
        if !pending || Instant::now() >= deadline {
            break;
        }
        std::thread::park_timeout(Duration::from_millis(5));
    }
    for conn in conns.values() {
        conn.shared.close();
        deregister_conn(&shared, conn);
    }
}

/// Sets up one freshly accepted stream: non-blocking, no Nagle, an
/// [`ConnShared`] write half in the reactor registry, and a first timer
/// entry. `None` means the socket died mid-setup (the peer is gone).
fn register_conn(
    shared: &Shared,
    worker: usize,
    stream: TcpStream,
    wheel: &mut TimerWheel,
) -> Option<Conn> {
    if stream.set_nonblocking(true).is_err() || stream.set_nodelay(true).is_err() {
        return None;
    }
    let write_half = stream.try_clone().ok()?;
    let id = shared.reactor.alloc_id();
    let written = Arc::clone(&shared.metrics.reactor_write_bytes);
    let cs = Arc::new(ConnShared::new(id, write_half, worker, written));
    shared.reactor.conns.lock().insert(id, Arc::clone(&cs));
    if let Some(limit) = shared.read_timeout {
        wheel.arm(id, limit);
    }
    Some(Conn::new(cs, stream))
}

/// Drains paced packets whose tokens refilled, then reads and handles
/// everything the socket has (unless pacing paused reads). Returns
/// whether any bytes or packets moved.
fn read_pass(
    shared: &Shared,
    conn: &mut Conn,
    scratch: &mut [u8],
    batch: &mut Vec<EmuPacket>,
) -> bool {
    let mut progress = false;
    if let Some(cfg) = shared.pacing {
        let now = Instant::now();
        while let Some(pkt) = conn.paced.front() {
            let src = pkt.src;
            if !conn.take_token(src, &cfg, now) {
                break;
            }
            if let Some(pkt) = conn.paced.pop_front() {
                batch.push(pkt);
                progress = true;
            }
        }
        if conn.paused && conn.paced.len() <= cfg.queue_cap / 2 {
            conn.paused = false;
        }
    }
    if conn.paused || conn.shared.closed.load(Ordering::Acquire) {
        return progress;
    }
    loop {
        match conn.stream.read(scratch) {
            Ok(0) => {
                conn.shared.close();
                return true;
            }
            Ok(n) => {
                progress = true;
                conn.shared.touch();
                shared.metrics.reactor_read_bytes.add(n as u64);
                conn.decoder.feed(&scratch[..n]);
                loop {
                    match conn.decoder.next_msg::<ClientMsg>() {
                        Ok(Some(msg)) => handle_msg(shared, conn, msg, batch),
                        Ok(None) => break,
                        Err(_) => {
                            // Unframeable garbage: the stream cannot
                            // resynchronize, drop the connection.
                            conn.shared.close();
                            return true;
                        }
                    }
                    if conn.shared.closed.load(Ordering::Acquire) {
                        return true;
                    }
                }
                if conn.paused {
                    return true;
                }
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => return progress,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(_) => {
                conn.shared.close();
                return true;
            }
        }
    }
}

/// The per-message state machine (`Handshake → Legacy | Mux`).
fn handle_msg(shared: &Shared, conn: &mut Conn, msg: ClientMsg, batch: &mut Vec<EmuPacket>) {
    match (conn.state, msg) {
        (SessionState::Handshake, ClientMsg::Hello { version, node }) => {
            let welcome = ServerMsg::Welcome {
                version: PROTOCOL_VERSION,
                node,
                server_time: shared.clock.now(),
            };
            match admit(shared, conn, version, node, &welcome) {
                Ok(()) => {
                    conn.state = SessionState::Legacy(node);
                    uncork_conn(shared, &conn.shared);
                }
                Err(reason) => refuse(shared, conn, ServerMsg::Refused { reason }),
            }
        }
        (SessionState::Handshake, ClientMsg::MuxHello { version }) => {
            if version != PROTOCOL_VERSION {
                refuse(
                    shared,
                    conn,
                    ServerMsg::Refused { reason: format!("protocol v{version} unsupported") },
                );
                return;
            }
            conn.state = SessionState::Mux;
            conn.shared.mux.store(true, Ordering::Release);
            send_conn(
                shared,
                &conn.shared,
                &ServerMsg::MuxWelcome {
                    version: PROTOCOL_VERSION,
                    server_time: shared.clock.now(),
                },
            );
        }
        (SessionState::Mux, ClientMsg::Attach { node }) => {
            let attached = ServerMsg::Attached { node, server_time: shared.clock.now() };
            match admit(shared, conn, PROTOCOL_VERSION, node, &attached) {
                Ok(()) => uncork_conn(shared, &conn.shared),
                Err(reason) => {
                    send_conn(shared, &conn.shared, &ServerMsg::AttachRefused { node, reason })
                }
            }
        }
        (SessionState::Mux, ClientMsg::Detach { node }) => {
            let owned = {
                let mut clients = shared.clients.lock();
                match clients.get(&node) {
                    Some(e) if Arc::ptr_eq(&e.conn, &conn.shared) => {
                        clients.remove(&node);
                        true
                    }
                    _ => false,
                }
            };
            if owned {
                conn.shared.nodes.lock().remove(&node);
                shared.metrics.clients_connected.sub(1);
                shared.metrics.disconnects.inc();
            }
            send_conn(
                shared,
                &conn.shared,
                &ServerMsg::Detached { node, reason: "detached".into() },
            );
        }
        // Anything else before a handshake is a protocol-order violation,
        // answered exactly like the thread-per-client server did.
        (SessionState::Handshake, other) => {
            refuse(
                shared,
                conn,
                ServerMsg::Refused { reason: format!("expected Hello, got {other:?}") },
            );
        }
        (_, ClientMsg::Data(pkt)) => {
            if !conn.owns(pkt.src) {
                // A client may only originate traffic as an identity it
                // registered; anything else is silently ignored, like the
                // thread-per-client server did.
                return;
            }
            if let Some(cfg) = shared.pacing {
                if !conn.take_token(pkt.src, &cfg, Instant::now()) {
                    shared.metrics.session_paced.inc();
                    conn.paced.push_back(pkt);
                    if conn.paced.len() >= cfg.queue_cap {
                        // Transport backpressure: stop reading until the
                        // parked queue half-drains.
                        conn.paused = true;
                    }
                    return;
                }
            }
            batch.push(pkt);
        }
        (_, ClientMsg::SyncRequest { t_c1 }) => {
            let t_s2 = shared.clock.now();
            let t_s3 = shared.clock.now();
            send_conn(shared, &conn.shared, &ServerMsg::sync_reply(t_c1, t_s2, t_s3));
        }
        (_, ClientMsg::Bye) => {
            conn.shared.close_after_flush();
        }
        // Duplicate or out-of-place control traffic: ignore, exactly as
        // the old receive loop ignored duplicate Hellos.
        (_, ClientMsg::Hello { .. })
        | (_, ClientMsg::MuxHello { .. })
        | (_, ClientMsg::Attach { .. })
        | (_, ClientMsg::Detach { .. }) => {}
    }
}

/// Validates an identity claim and, on success, registers the node on
/// this connection (entry in the client map + the conn's attached set) and
/// queues `accepted`, the acceptance message. The message is queued while
/// the client map is still locked: the scan thread resolves receivers
/// under that lock, so a copy fired the instant the node becomes routable
/// lands behind the acceptance in the output buffer, never ahead of it.
/// The caller writes the buffer out.
fn admit(
    shared: &Shared,
    conn: &Conn,
    version: u16,
    node: NodeId,
    accepted: &ServerMsg,
) -> Result<(), String> {
    if version != PROTOCOL_VERSION {
        return Err(format!("protocol v{version} unsupported"));
    }
    if shared.pipeline.lock().scene().node(node).is_none() {
        return Err(format!("{node} is not part of the emulated scene"));
    }
    let mux = conn.state == SessionState::Mux;
    let mut clients = shared.clients.lock();
    if clients.contains_key(&node) {
        return Err(format!("{node} is already connected"));
    }
    clients.insert(
        node,
        ClientEntry {
            conn: Arc::clone(&conn.shared),
            mux,
            delivered: shared
                .registry
                .counter(&format!("poem_client_deliveries_total{{node=\"{}\"}}", node.0)),
        },
    );
    cork_conn(shared, &conn.shared, accepted);
    drop(clients);
    conn.shared.nodes.lock().insert(node);
    shared.metrics.clients_connected.add(1);
    Ok(())
}

/// Sends a refusal and closes the connection once it flushed.
fn refuse(shared: &Shared, conn: &mut Conn, msg: ServerMsg) {
    send_conn(shared, &conn.shared, &msg);
    conn.shared.close_after_flush();
}

/// Queues one message on a connection without touching the socket,
/// evicting the connection when its consumer is stalled or its buffer
/// would overflow. `Some(first)` when the message was queued: `first` is
/// set when nothing was queued ahead of it, so the caller owes the
/// connection an [`uncork_conn`].
fn cork_conn(shared: &Shared, conn: &ConnShared, msg: &ServerMsg) -> Option<bool> {
    match conn.cork(msg, shared.write_buffer_cap, shared.write_timeout) {
        Enqueue::Queued { first } => Some(first),
        Enqueue::Stalled | Enqueue::Overflow => {
            // The consumer stalled past the write timeout or its backlog
            // hit the cap: evict so it can't absorb buffer memory and
            // scan-thread time again and again.
            shared.metrics.writebuf_evictions.inc();
            conn.close();
            shared.reactor.wake_owner(conn);
            None
        }
        Enqueue::Closed | Enqueue::Unencodable => None,
    }
}

/// Writes out what [`cork_conn`] queued. What the socket does not take is
/// the owning worker's to finish — the write itself never blocks, so a
/// wedged client costs the calling thread nothing.
fn uncork_conn(shared: &Shared, conn: &ConnShared) {
    match conn.flush(shared.write_timeout) {
        Ok(_) => {
            if conn.backlog() > 0 {
                shared.reactor.wake_owner(conn);
            }
        }
        Err(e) => {
            if e.kind() == io::ErrorKind::TimedOut {
                shared.metrics.writebuf_evictions.inc();
            }
            conn.close();
            shared.reactor.wake_owner(conn);
        }
    }
}

/// Queues and writes one control message: the worker-side counterpart of
/// the scan thread's [`FirePass`].
fn send_conn(shared: &Shared, conn: &ConnShared, msg: &ServerMsg) {
    if cork_conn(shared, conn, msg).is_some() {
        uncork_conn(shared, conn);
    }
}

/// Tears down one reaped connection: every VMN still attached to it is
/// deregistered (guarded by identity, so a node that already re-registered
/// on a fresh connection is left alone) and the conn leaves the registry.
fn deregister_conn(shared: &Shared, conn: &Conn) {
    let nodes: Vec<NodeId> = std::mem::take(&mut *conn.shared.nodes.lock()).into_iter().collect();
    for node in nodes {
        let mut clients = shared.clients.lock();
        if clients.get(&node).is_some_and(|e| Arc::ptr_eq(&e.conn, &conn.shared)) {
            clients.remove(&node);
            drop(clients);
            shared.metrics.clients_connected.sub(1);
            shared.metrics.disconnects.inc();
        }
    }
    shared.reactor.conns.lock().remove(&conn.shared.id);
}

/// Longest single condvar wait: bounds how stale the loop's view of
/// `running` and of the schedule head can get.
const MAX_WAIT: Duration = Duration::from_millis(50);

/// Longest single spin stretch: a spinning scan thread re-checks the
/// schedule head at least this often, so a newly scheduled *earlier*
/// deadline is never ignored for longer than this.
const MAX_SPIN: EmuDuration = EmuDuration::from_nanos(5_000_000);

/// The scanning thread (§3.2 steps 5–6).
///
/// Every pass pops all entries due at `now`, in `(due, seq)` order, and
/// hands them to the one fire path ([`FirePass::fire`]); between passes
/// the gap to the next deadline is waited out as [`SleepPolicy`] says:
///
/// * **Naive** — one condvar wait floored at 50 µs; the OS wake-up error
///   lands directly in the firing lag. Kept as the E16 baseline.
/// * **Hybrid** — condvar-sleep down to `deadline − guard`, then spin the
///   rest; `guard` is recalibrated online by a [`GuardBand`] fed with the
///   wake-up error of every timed-out wait, so the spin phase is exactly
///   as wide as this host's timers are sloppy. A band wider than the gap
///   between deadlines leaves only spinning and so no samples to shrink
///   it again; every such spin ages the band instead
///   ([`GuardBand::decay`]).
/// * **Spin** — busy-wait whole gaps (one core pinned), condvar-sleeping
///   only while the schedule is empty.
/// * **Auto** — Hybrid while the loop keeps up; once the overload duty
///   cycle over a sliding [`DutyCycle`] window crosses its engage
///   threshold, waits fall back to coarse Naive sleeps
///   (`poem_auto_batch_mode` = 1) until the duty cycle decays below the
///   disengage threshold.
///
/// Load adaptation is accounting, not a second send path: a pass whose
/// head has fallen further behind than the overload threshold (or that
/// runs with `Auto` engaged) counts in `poem_scan_batch_drains_total` and
/// raises `poem_scan_overload` until the loop catches up.
fn scan_loop(shared: Arc<Shared>, policy: SleepPolicy, overload_threshold: EmuDuration) {
    let mut guard = GuardBand::standard();
    let mut duty = DutyCycle::standard();
    let mut pass = FirePass::default();
    // Whether a coarse (sleeping) wait ran since the last pass fired.
    let mut slept_since_fire = false;
    let mut schedule = shared.schedule.lock();
    while shared.running.load(Ordering::Acquire) {
        let now = shared.clock.now();
        if let Some(head) = schedule.next_due().filter(|due| *due <= now) {
            let lag_overload = now.since(head) >= overload_threshold;
            let degraded = lag_overload || (policy == SleepPolicy::Auto && duty.engaged());
            while let Some((due, d)) = schedule.pop_due(now) {
                shared.metrics.event_lag_ns.observe(lag_ns(now, due));
                pass.due.push(d);
            }
            shared.metrics.schedule_depth.set(schedule.len() as i64);
            if degraded {
                shared.metrics.overload.set(lag_overload as i64);
                shared.metrics.batch_drains.inc();
                if policy == SleepPolicy::Auto {
                    let engaged = duty.observe(lag_overload);
                    shared.metrics.auto_batch_mode.set(engaged as i64);
                }
            }
            // Send outside the schedule lock so receivers keep scheduling.
            drop(schedule);
            pass.fire(&shared, now);
            slept_since_fire = false;
            schedule = shared.schedule.lock();
            continue;
        }
        shared.metrics.overload.set(0);
        // Caught-up pass: decay the auto-mode duty cycle and resolve
        // which wait strategy this iteration uses.
        let effective = if policy == SleepPolicy::Auto {
            let engaged = duty.observe(false);
            shared.metrics.auto_batch_mode.set(engaged as i64);
            if engaged {
                SleepPolicy::Naive
            } else {
                SleepPolicy::Hybrid
            }
        } else {
            policy
        };
        match (effective, schedule.next_due()) {
            (SleepPolicy::Naive, Some(due)) => {
                let wait = (due - now).to_std().max(Duration::from_micros(50));
                timed_wait(&shared, &mut schedule, wait.min(MAX_WAIT), &mut guard);
            }
            (SleepPolicy::Hybrid, Some(due)) => {
                let gap_ns = lag_ns(due, now);
                let guard_ns = guard.current_ns();
                if gap_ns > guard_ns {
                    // Coarse phase: sleep to the guard-band edge.
                    let wait = Duration::from_nanos(gap_ns - guard_ns).min(MAX_WAIT);
                    timed_wait(&shared, &mut schedule, wait, &mut guard);
                    slept_since_fire = true;
                } else {
                    // Precision phase: spin out the last guard-band span.
                    drop(schedule);
                    spin_until(&shared, due);
                    if !slept_since_fire {
                        guard.decay();
                    }
                    schedule = shared.schedule.lock();
                }
            }
            (SleepPolicy::Spin, Some(due)) => {
                drop(schedule);
                spin_until(&shared, due);
                schedule = shared.schedule.lock();
            }
            (SleepPolicy::Auto, Some(due)) => {
                // Unreachable in practice — Auto resolves to Naive or
                // Hybrid above — but a coarse wait keeps the match total
                // without a panic path on the hostile-input surface.
                let wait = (due - now).to_std().max(Duration::from_micros(50));
                timed_wait(&shared, &mut schedule, wait.min(MAX_WAIT), &mut guard);
            }
            // Empty schedule: block until a receiver schedules something
            // (the timeout is only a liveness backstop). The timed-out
            // wake still calibrates the guard band, so sparse traffic
            // keeps the estimate fresh.
            (_, None) => timed_wait(&shared, &mut schedule, MAX_WAIT, &mut guard),
        }
    }
}

/// `later − earlier` in nanoseconds, zero when negative.
fn lag_ns(later: EmuTime, earlier: EmuTime) -> u64 {
    later.since(earlier).as_nanos().max(0) as u64
}

/// One condvar wait on the schedule, measuring the wake-up error (how far
/// past the requested instant the OS actually delivered the timeout) into
/// the histogram and the guard-band calibrator. Notified (non-timeout)
/// wakes carry no timer-error signal and are skipped.
fn timed_wait(
    shared: &Shared,
    schedule: &mut parking_lot::MutexGuard<'_, ForwardSchedule<Delivery>>,
    wait: Duration,
    guard: &mut GuardBand,
) {
    let start = shared.clock.now();
    let result = shared.schedule_cv.wait_for(schedule, wait);
    if result.timed_out() {
        let target = start + EmuDuration::from_nanos(wait.as_nanos() as i64);
        let err_ns = lag_ns(shared.clock.now(), target);
        shared.metrics.wake_error_ns.observe(err_ns);
        guard.observe(err_ns);
    }
}

/// Busy-waits (yielding periodically) until `due`, shutdown, or the
/// [`MAX_SPIN`] re-check bound, whichever comes first. Runs *without* the
/// schedule lock so receiver threads keep scheduling while we spin.
fn spin_until(shared: &Shared, due: EmuTime) {
    let cap = shared.clock.now() + MAX_SPIN;
    let deadline = if due <= cap { due } else { cap };
    let mut spins = 0u32;
    while shared.clock.now() < deadline {
        if !shared.running.load(Ordering::Acquire) {
            return;
        }
        spins = spins.wrapping_add(1);
        if spins.is_multiple_of(64) {
            std::thread::yield_now();
        } else {
            std::hint::spin_loop();
        }
    }
}

/// One receiver's share of the frame being assembled.
struct FrameCopy {
    to: NodeId,
    fire_at: EmuTime,
    delivered: Arc<Counter>,
}

/// Whether two deliveries carry clones of one ingested packet: the same
/// header over the very same payload allocation (an id alone is chosen by
/// the client and proves nothing).
fn same_packet(a: &EmuPacket, b: &EmuPacket) -> bool {
    (a.id, a.src, a.dst, a.channel, a.radio, a.sent_at)
        == (b.id, b.src, b.dst, b.channel, b.radio, b.sent_at)
        && a.payload.len() == b.payload.len()
        && std::ptr::eq(a.payload.as_ptr(), b.payload.as_ptr())
}

/// The fire path (§3.2 step 6, plus step-7 recording): the scan thread's
/// state across passes, kept for its allocations.
///
/// A pass takes every delivery that came due together. Consecutive copies
/// of one packet for sessions of one mux connection share a `DeliverMany`
/// frame; a lone mux copy travels as `DeliverTo`, a legacy session's as
/// `Deliver`. Frames are encoded straight into the connections' output
/// buffers and each touched connection is written once when the pass ends
/// (or sooner, past the reactor's cork limit). Grouping changes the
/// framing only: transport faults intercept per receiver before it, and
/// every copy keeps its own `Forward` record (in fire order), deadline
/// accounting and counter ticks.
#[derive(Default)]
struct FirePass {
    /// Deliveries popped this pass, in `(due, seq)` order.
    due: Vec<Delivery>,
    /// `due[i]`'s receiver as the client map had it when the pass began.
    targets: Vec<Option<ClientEntry>>,
    /// The frame being assembled: its connection, whether that is a mux
    /// connection, and the packet.
    frame: Option<(Arc<ConnShared>, bool, EmuPacket)>,
    /// The frame's receivers, in fire order.
    copies: Vec<FrameCopy>,
    /// The receiver-list allocation each `DeliverMany` borrows.
    to: Vec<NodeId>,
    /// Connections owed a write when the pass ends.
    corked: Vec<Arc<ConnShared>>,
}

impl FirePass {
    /// Fires everything in `due`, popped from the schedule at `now`.
    fn fire(&mut self, shared: &Shared, now: EmuTime) {
        {
            let clients = shared.clients.lock();
            self.targets.extend(self.due.iter().map(|d| clients.get(&d.to).cloned()));
        }
        let stalls = shared.faults.get().filter(|f| f.stalling());
        let mut due = std::mem::take(&mut self.due);
        let mut targets = std::mem::take(&mut self.targets);
        for (d, target) in due.drain(..).zip(targets.drain(..)) {
            let gate = match stalls {
                Some(book) => book.gate(d, now),
                None => Gate::Pass(d),
            };
            match gate {
                Gate::Pass(d) => self.route(shared, d, target, now),
                Gate::Held => {}
                Gate::Overflow(d) => {
                    self.emit(shared);
                    shared.record_disconnected(d.packet.id, d.to, now);
                }
                // Every held copy is addressed to this copy's receiver.
                Gate::Released(d, held) => {
                    for d in held.into_iter().chain([d]) {
                        self.route(shared, d, target.clone(), now);
                    }
                }
            }
        }
        self.due = due;
        self.targets = targets;
        self.emit(shared);
        for conn in self.corked.drain(..) {
            uncork_conn(shared, &conn);
        }
    }

    /// Adds one copy to the frame being assembled, emitting that frame
    /// first when the copy cannot share it. A copy whose receiver is not
    /// connected becomes a `Disconnected` drop.
    fn route(&mut self, shared: &Shared, d: Delivery, client: Option<ClientEntry>, now: EmuTime) {
        let Some(client) = client else {
            self.emit(shared);
            shared.metrics.note_lag(lag_ns(now, d.fire_at));
            shared.record_disconnected(d.packet.id, d.to, now);
            return;
        };
        let shares = client.mux
            && self.frame.as_ref().is_some_and(|(conn, _, packet)| {
                Arc::ptr_eq(conn, &client.conn) && same_packet(packet, &d.packet)
            });
        if !shares {
            self.emit(shared);
            self.frame = Some((client.conn, client.mux, d.packet));
        }
        self.copies.push(FrameCopy { to: d.to, fire_at: d.fire_at, delivered: client.delivered });
    }

    /// Queues the frame being assembled on its connection and accounts for
    /// every copy it carries: the firing lag (`forwarded_at − fire_at`)
    /// feeds `poem_scan_lag_ns` and, past the 100 µs on-time budget, the
    /// severity-bucketed `poem_deadline_miss_total` counters — copies
    /// released from a stall included; they *are* late, that is what the
    /// fault injected. A frame the connection cannot take costs each of
    /// its copies a `Disconnected` drop.
    fn emit(&mut self, shared: &Shared) {
        let Some((conn, mux, packet)) = self.frame.take() else {
            return;
        };
        let id = packet.id;
        // Read once per frame, immediately before the frame is appended.
        let at = shared.clock.now();
        let msg = match (mux, self.copies.as_slice()) {
            (false, _) => ServerMsg::Deliver { packet, forwarded_at: at },
            (true, [only]) => ServerMsg::DeliverTo { to: only.to, packet, forwarded_at: at },
            (true, many) => {
                self.to.extend(many.iter().map(|c| c.to));
                let to = std::mem::take(&mut self.to);
                ServerMsg::DeliverMany { to, packet, forwarded_at: at }
            }
        };
        let queued = cork_conn(shared, &conn, &msg);
        if let ServerMsg::DeliverMany { mut to, .. } = msg {
            to.clear();
            self.to = to;
        }
        for c in &self.copies {
            shared.metrics.note_lag(lag_ns(at, c.fire_at));
        }
        match queued {
            Some(first) => {
                shared.metrics.delivery_frames.inc();
                shared.metrics.deliveries_sent.add(self.copies.len() as u64);
                for c in &self.copies {
                    c.delivered.inc();
                }
                shared.recorder.record_traffic_many(
                    self.copies.iter().map(|c| TrafficRecord::Forward { id, to: c.to, at }),
                );
                if first {
                    self.corked.push(conn);
                }
            }
            None => {
                for c in &self.copies {
                    shared.record_disconnected(id, c.to, at);
                }
            }
        }
        self.copies.clear();
    }
}

impl Shared {
    fn record_disconnected(&self, id: PacketId, to: NodeId, at: EmuTime) {
        self.metrics.drops_disconnected.inc();
        self.recorder.record_traffic(TrafficRecord::Drop {
            id,
            to,
            at,
            reason: poem_record::DropReason::Disconnected,
        });
    }

    /// The fault executor, created on first use.
    fn faults(&self) -> &FaultExecutor {
        self.faults.get_or_init(|| FaultExecutor::new(&self.registry, Arc::clone(&self.recorder)))
    }

    /// Applies a scene op now: the pipeline, then the worker fleet's
    /// mirror, if one is attached.
    fn apply_op(&self, op: SceneOp) -> Result<(), SceneError> {
        let now = self.clock.now();
        let mut pipeline = self.pipeline.lock();
        pipeline.apply_op(now, op.clone())?;
        // Mirror order must match pipeline apply order, so the round-trip
        // runs under the pipeline guard.
        let mirrored = self.on_fleet(|coord| coord.apply_op(now, &op, pipeline.scene()));
        drop(pipeline);
        Self::teardown(mirrored);
        Ok(())
    }

    /// Runs `f` on the attached worker fleet under the cluster mutex, which
    /// serializes the coordinator wire protocol. `Ok(None)` with no fleet
    /// attached. A failure logs and detaches the fleet, handing it back
    /// for [`Self::teardown`] — real-time cluster use is best-effort, and
    /// forwarding falls back to the local pipeline.
    fn on_fleet<T>(
        &self,
        f: impl FnOnce(&mut Coordinator) -> Result<T, ClusterError>,
    ) -> Result<Option<T>, Option<Box<Coordinator>>> {
        let mut cluster = self.cluster.lock();
        let Some(coord) = cluster.as_deref_mut() else { return Ok(None) };
        f(coord).map(Some).map_err(|e| {
            eprintln!("cluster failure, falling back to local forwarding: {e}");
            cluster.take()
        })
    }

    /// Shuts down a fleet [`Self::on_fleet`] detached. Teardown blocks on
    /// the wire: callers run it with every lock released.
    fn teardown<T>(outcome: Result<T, Option<Box<Coordinator>>>) {
        if let Err(Some(mut coord)) = outcome {
            coord.shutdown();
        }
    }

    /// Sleeps for `d` or until shutdown wakes the periodic threads,
    /// whichever comes first. Returns `true` while the server is still
    /// running, so `while shared.interruptible_sleep(step) { … }` never
    /// runs a step after `running` flips.
    fn interruptible_sleep(&self, d: Duration) -> bool {
        let mut guard = self.shutdown_mx.lock();
        if !self.running.load(Ordering::Acquire) {
            return false;
        }
        self.shutdown_cv.wait_for(&mut guard, d);
        self.running.load(Ordering::Acquire)
    }

    /// Deregisters `node`. A legacy session loses its whole connection; a
    /// mux virtual session is detached (with a `Detached` notice) while
    /// the socket and its sibling sessions stay up. Returns `false` when
    /// the node was not connected.
    fn evict(&self, node: NodeId) -> bool {
        let Some(entry) = self.clients.lock().remove(&node) else {
            return false;
        };
        self.metrics.clients_connected.sub(1);
        self.metrics.disconnects.inc();
        if entry.mux {
            entry.conn.nodes.lock().remove(&node);
            let notice = ServerMsg::Detached { node, reason: "evicted".into() };
            let _ = entry.conn.post(&notice, self.write_buffer_cap);
        } else {
            entry.conn.close();
        }
        self.reactor.wake_owner(&entry.conn);
        true
    }

    /// Folds reactor-side state into the metrics registry: the live-conn
    /// gauge and the (monotonic) wake total.
    fn refresh_reactor_metrics(&self) {
        self.metrics.reactor_conns.set(self.reactor.conns.lock().len() as i64);
        let total = self.reactor.total_wakes();
        let seen = self.wakes_seen.swap(total, Ordering::Relaxed);
        if total > seen {
            self.metrics.reactor_wakes.add(total - seen);
        }
    }
}

fn mobility_loop(shared: Arc<Shared>, step: Duration) {
    // Shutdown-aware sleep: a plain `thread::sleep(step)` here used to
    // stall shutdown join for up to a step *and* integrate mobility once
    // more after `running` flipped.
    while shared.interruptible_sleep(step) {
        let now = shared.clock.now();
        let mut pipeline = shared.pipeline.lock();
        if !pipeline.scene().nodes().any(|v| v.mobility.is_mobile()) {
            continue;
        }
        pipeline.advance_mobility(now);
        // The sync must see the freshly-advanced scene under the same
        // pipeline guard.
        let synced = shared.on_fleet(|coord| coord.sync(now, pipeline.scene()));
        drop(pipeline);
        Shared::teardown(synced);
    }
}

/// Real-time ingest of one pass's packet batch: through the attached
/// worker fleet when one exists (a single coordinator round-trip for the
/// whole batch — everything a pass read together travels as one
/// `IngestBatch`), else the local pipeline under one lock acquisition.
/// Best-effort: any cluster failure logs, tears the fleet down, and the
/// batch (plus all later ones) is decided locally.
fn ingest_batch_best_effort(
    shared: &Shared,
    pkts: &[EmuPacket],
    received_at: EmuTime,
) -> Vec<Delivery> {
    let settled = shared.on_fleet(|coord| coord.ingest_batch(pkts, received_at, &shared.recorder));
    if let Ok(Some(settled)) = settled {
        return settled;
    }
    Shared::teardown(settled);
    let mut pipeline = shared.pipeline.lock();
    let mut out = Vec::new();
    for pkt in pkts {
        out.extend(pipeline.ingest(pkt, received_at));
    }
    out
}

/// Step-7 companion: periodically appends a [`MetricsRecord`] snapshot of
/// every counter, gauge and histogram to the record log, so
/// post-emulation replay can plot pipeline health — deadline misses and
/// lag distributions included — over the run.
fn metrics_loop(shared: Arc<Shared>, interval: Duration) {
    while shared.interruptible_sleep(interval) {
        shared.metrics.schedule_depth.set(shared.schedule.lock().len() as i64);
        let snap = shared.registry.snapshot();
        shared.recorder.record_metrics(MetricsRecord {
            at: shared.clock.now(),
            counters: snap.counters,
            gauges: snap.gauges,
            histograms: snap
                .histograms
                .into_iter()
                .map(|(name, h)| (name, HistogramRow::from(&h)))
                .collect(),
        });
    }
}

/// Executes a [`FaultPlan`] against wall-clock time (the real-time
/// counterpart of `SimNet::install_faults`).
fn fault_driver(shared: Arc<Shared>, plan: FaultPlan, wires: Option<Arc<WireFaultHub>>) {
    let mut host =
        RealTimeHost { shared: &shared, wires: wires.as_deref(), timeline: ForwardSchedule::new() };
    for spec in plan.specs() {
        host.timeline.schedule(spec.at, FaultStep::Inject(spec.kind.clone()));
    }
    while shared.running.load(Ordering::Acquire) && !host.timeline.is_empty() {
        let now = shared.clock.now();
        if let Some((_, step)) = host.timeline.pop_due(now) {
            shared.faults().step(&mut host, now, step);
            continue;
        }
        let wait = host
            .timeline
            .next_due()
            .map(|due| (due - now).to_std())
            .unwrap_or(Duration::from_millis(20));
        std::thread::sleep(wait.clamp(Duration::from_millis(1), Duration::from_millis(20)));
    }
}

/// The wall-clock side of the fault executor: one fault driver's
/// timeline over the shared server state.
struct RealTimeHost<'a> {
    shared: &'a Shared,
    wires: Option<&'a WireFaultHub>,
    timeline: ForwardSchedule<FaultStep>,
}

impl FaultHost for RealTimeHost<'_> {
    fn with_scene<R>(&self, f: impl FnOnce(&Scene) -> R) -> R {
        f(self.shared.pipeline.lock().scene())
    }

    fn apply(&mut self, op: SceneOp) -> bool {
        self.shared.apply_op(op).is_ok()
    }

    /// Streams registered with the hub keep mangling until reconfigured.
    fn wire(&mut self, kind: &FaultKind, _node: NodeId, _set: impl FnOnce(&mut WireProbs)) {
        if let Some(hub) = self.wires {
            hub.configure(kind);
        }
    }

    /// The real skew and jitter live client-side in a `ChaosClock`; the
    /// server only records and counts the injection.
    fn clock(&mut self, _node: NodeId, _set: impl FnOnce(&mut ClockFault)) {}

    fn disconnect(&mut self, node: NodeId) {
        self.shared.evict(node);
    }

    /// A crashed VMN loses its process along with its radios.
    fn park(&mut self, node: NodeId) {
        self.shared.evict(node);
    }

    /// A restarted VMN's client reconnects on its own.
    fn revive(&mut self, _node: NodeId) {}

    fn redeliver(&mut self, held: Vec<Delivery>) {
        if held.is_empty() {
            return;
        }
        let now = self.shared.clock.now();
        let mut schedule = self.shared.schedule.lock();
        for d in held {
            schedule.schedule(now, d);
        }
        self.shared.schedule_cv.notify_all();
    }

    fn schedule(&mut self, at: EmuTime, step: FaultStep) {
        self.timeline.schedule(at, step);
    }
}

/// Convenience: the emulation duration a `bytes`-sized payload needs on an
/// ideal `bps` link — used by examples to pace real-time sends.
pub fn pacing_interval(bytes: usize, bps: f64) -> EmuDuration {
    EmuDuration::from_secs_f64(bytes as f64 * 8.0 / bps)
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::Bytes;
    use poem_client::EmuClient;
    use poem_core::clock::WallClock;
    use poem_core::linkmodel::LinkParams;
    use poem_core::mobility::MobilityModel;
    use poem_core::packet::Destination;
    use poem_core::radio::RadioConfig;
    use poem_core::{ChannelId, Point};
    use poem_proto::{MsgReader, MsgWriter};
    use poem_record::FaultRecord;

    fn test_scene() -> Scene {
        let mut s = Scene::new();
        for (id, x) in [(1u32, 0.0), (2u32, 60.0), (3u32, 120.0)] {
            s.apply(
                EmuTime::ZERO,
                &SceneOp::AddNode {
                    id: NodeId(id),
                    pos: Point::new(x, 0.0),
                    radios: RadioConfig::single(ChannelId(1), 100.0),
                    mobility: MobilityModel::Stationary,
                    link: LinkParams::ideal(8e6),
                },
            )
            .unwrap();
        }
        s
    }

    fn start_server() -> Arc<ServerHandle> {
        let clock: Arc<dyn Clock> = Arc::new(WallClock::new());
        ServerHandle::start(test_scene(), clock, ServerConfig::default()).unwrap()
    }

    fn connect(server: &ServerHandle, id: u32) -> EmuClient {
        let clock: Arc<dyn Clock> = Arc::new(WallClock::new());
        EmuClient::connect_tcp(
            server.addr(),
            NodeId(id),
            RadioConfig::single(ChannelId(1), 100.0),
            clock,
        )
        .unwrap()
    }

    #[test]
    fn clients_register_and_exchange_traffic() {
        let server = start_server();
        let c1 = connect(&server, 1);
        let c2 = connect(&server, 2);
        c1.sync_clock(3).unwrap();
        c2.sync_clock(3).unwrap();

        c1.send(ChannelId(1), Destination::Broadcast, Bytes::from_static(b"ping"))
            .unwrap()
            .expect("tuned radio");
        let (pkt, _) = c2.recv_timeout(Duration::from_secs(5)).unwrap();
        assert_eq!(pkt.src, NodeId(1));
        assert_eq!(&pkt.payload[..], b"ping");

        c1.close().unwrap();
        c2.close().unwrap();
        server.shutdown();
    }

    #[test]
    fn out_of_range_node_hears_nothing() {
        let server = start_server();
        let c1 = connect(&server, 1);
        let c3 = connect(&server, 3); // at x=120, range 100 from node 1
        c1.send(ChannelId(1), Destination::Broadcast, Bytes::from_static(b"x")).unwrap().unwrap();
        assert!(c3.recv_timeout(Duration::from_millis(300)).is_err());
        drop((c1, c3));
        server.shutdown();
    }

    #[test]
    fn unknown_vmn_is_refused() {
        let server = start_server();
        let clock: Arc<dyn Clock> = Arc::new(WallClock::new());
        let err = EmuClient::connect_tcp(server.addr(), NodeId(99), RadioConfig::none(), clock)
            .unwrap_err();
        assert!(matches!(err, poem_client::ClientError::Refused(_)), "{err}");
        server.shutdown();
    }

    #[test]
    fn duplicate_vmn_is_refused() {
        let server = start_server();
        let _c1 = connect(&server, 1);
        let clock: Arc<dyn Clock> = Arc::new(WallClock::new());
        let err = EmuClient::connect_tcp(
            server.addr(),
            NodeId(1),
            RadioConfig::single(ChannelId(1), 100.0),
            clock,
        )
        .unwrap_err();
        assert!(matches!(err, poem_client::ClientError::Refused(_)), "{err}");
        server.shutdown();
    }

    #[test]
    fn scene_op_takes_effect_for_subsequent_traffic() {
        let server = start_server();
        let c1 = connect(&server, 1);
        let c2 = connect(&server, 2);
        // Retune node 2 away: broadcast no longer reaches it.
        server
            .apply_op(SceneOp::SetRadioChannel {
                id: NodeId(2),
                radio: poem_core::RadioId(0),
                channel: ChannelId(7),
            })
            .unwrap();
        c1.send(ChannelId(1), Destination::Broadcast, Bytes::from_static(b"y")).unwrap().unwrap();
        assert!(c2.recv_timeout(Duration::from_millis(300)).is_err());
        drop((c1, c2));
        server.shutdown();
    }

    #[test]
    fn traffic_is_recorded_with_client_stamps() {
        let server = start_server();
        let c1 = connect(&server, 1);
        let c2 = connect(&server, 2);
        c1.sync_clock(2).unwrap();
        c1.send(ChannelId(1), Destination::Unicast(NodeId(2)), Bytes::from_static(b"z"))
            .unwrap()
            .unwrap();
        let _ = c2.recv_timeout(Duration::from_secs(5)).unwrap();
        // Give the recorder a beat.
        std::thread::sleep(Duration::from_millis(50));
        let traffic = server.recorder().traffic();
        assert!(traffic.iter().any(|r| matches!(r, TrafficRecord::Ingress { .. })));
        assert!(traffic.iter().any(|r| matches!(r, TrafficRecord::Forward { .. })));
        drop((c1, c2));
        server.shutdown();
    }

    #[test]
    fn shutdown_is_idempotent() {
        let server = start_server();
        server.shutdown();
        server.shutdown();
    }

    #[test]
    fn server_metrics_cover_ingest_drops_schedule_and_scan_lag() {
        let clock: Arc<dyn Clock> = Arc::new(WallClock::new());
        let config =
            ServerConfig { metrics_interval: Duration::from_millis(20), ..ServerConfig::default() };
        let server = ServerHandle::start(test_scene(), clock, config).unwrap();
        let c1 = connect(&server, 1);
        let c2 = connect(&server, 2);
        c1.send(ChannelId(1), Destination::Broadcast, Bytes::from_static(b"m")).unwrap().unwrap();
        let _ = c2.recv_timeout(Duration::from_secs(5)).unwrap();
        // Unicast towards the out-of-range node 3 → a NoRoute drop.
        c1.send(ChannelId(1), Destination::Unicast(NodeId(3)), Bytes::from_static(b"n"))
            .unwrap()
            .unwrap();
        // Let the metrics thread take at least one periodic snapshot.
        std::thread::sleep(Duration::from_millis(120));

        let snap = server.metrics();
        assert!(!snap.is_empty());
        assert!(snap.counter("poem_ingest_packets_total").unwrap_or(0) >= 2);
        assert!(snap.counter("poem_deliveries_sent_total").unwrap_or(0) >= 1);
        assert!(snap.counter_family("poem_drops_total") >= 1);
        assert_eq!(snap.gauge("poem_clients_connected"), Some(2));
        // The delivery fired, so the scan thread observed its lag and the
        // depth gauge has been written (possibly back to zero).
        let lag = snap.histogram("poem_scan_lag_ns").expect("scan lag histogram");
        assert!(lag.count >= 1);
        assert!(snap.gauge("poem_schedule_depth").is_some());
        assert!(snap.counter("poem_client_deliveries_total{node=\"2\"}").unwrap_or(0) >= 1);

        let metrics_log = server.recorder().metrics();
        assert!(!metrics_log.is_empty(), "periodic MetricsRecord snapshots");
        let last = metrics_log.last().unwrap().clone();
        assert!(last.counter("poem_ingest_packets_total").unwrap_or(0) >= 1);

        drop((c1, c2));
        server.shutdown();
    }

    #[test]
    fn fault_driver_runs_a_scripted_plan_over_tcp() {
        let server = start_server();
        let c1 = connect(&server, 1);
        let _c2 = connect(&server, 2);
        let script = crate::script::Script::parse(
            "at 0.1 fault disconnect VMN2\n\
             at 0.1 fault skew VMN1 0.25",
        )
        .unwrap();
        let driver = server.spawn_fault_driver(script.faults(), None).unwrap();
        driver.join().unwrap();
        // The plan ran to completion: node 2 was kicked, node 1 kept.
        assert_eq!(server.connected(), vec![NodeId(1)]);
        let faults = server.recorder().faults();
        assert!(
            faults.iter().any(|f| matches!(
                f,
                FaultRecord::Transport { node: NodeId(2), action, .. } if action == "disconnect"
            )),
            "{faults:?}"
        );
        assert!(faults.iter().any(|f| matches!(f, FaultRecord::Clock { node: NodeId(1), .. })));
        let snap = server.metrics();
        assert_eq!(snap.counter("poem_faults_injected_total{kind=\"disconnect\"}"), Some(1));
        drop(c1);
        server.shutdown();
    }

    #[test]
    fn stalled_client_hears_nothing_until_release() {
        let server = start_server();
        let c1 = connect(&server, 1);
        let c2 = connect(&server, 2);
        let mut plan = FaultPlan::new();
        plan.push(
            EmuTime::ZERO,
            FaultKind::Stall { node: NodeId(2), duration: EmuDuration::from_millis(700) },
        );
        let driver = server.spawn_fault_driver(&plan, None).unwrap();
        // Give the driver a beat to install the stall, then send into it.
        std::thread::sleep(Duration::from_millis(100));
        c1.send(ChannelId(1), Destination::Unicast(NodeId(2)), Bytes::from_static(b"held"))
            .unwrap()
            .unwrap();
        assert!(
            c2.recv_timeout(Duration::from_millis(250)).is_err(),
            "delivery leaked through the stall"
        );
        // After release the parked copy goes out.
        let (pkt, _) = c2.recv_timeout(Duration::from_secs(5)).unwrap();
        assert_eq!(&pkt.payload[..], b"held");
        driver.join().unwrap();
        let faults = server.recorder().faults();
        assert!(
            faults.iter().any(|f| matches!(
                f,
                FaultRecord::Transport { node: NodeId(2), action, .. } if action == "release"
            )),
            "{faults:?}"
        );
        drop((c1, c2));
        server.shutdown();
    }

    #[test]
    fn slow_consumer_is_evicted_on_write_timeout() {
        let clock: Arc<dyn Clock> = Arc::new(WallClock::new());
        let config = ServerConfig {
            write_timeout: Some(Duration::from_millis(200)),
            ..ServerConfig::default()
        };
        let server = ServerHandle::start(test_scene(), clock, config).unwrap();
        let c1 = connect(&server, 1);
        // A hand-rolled node-2 client that registers and then never reads:
        // its socket buffers fill and the bounded delivery write times out.
        let stream = TcpStream::connect(server.addr()).unwrap();
        let mut w = MsgWriter::new(stream.try_clone().unwrap());
        let mut r = MsgReader::new(stream.try_clone().unwrap());
        w.send(&ClientMsg::hello(NodeId(2))).unwrap();
        assert!(matches!(r.recv::<ServerMsg>().unwrap(), ServerMsg::Welcome { .. }));

        let payload = Bytes::from(vec![0u8; 64 * 1024]);
        let deadline = std::time::Instant::now() + Duration::from_secs(20);
        loop {
            c1.send(ChannelId(1), Destination::Unicast(NodeId(2)), payload.clone())
                .unwrap()
                .unwrap();
            std::thread::sleep(Duration::from_millis(50));
            if server.connected() == vec![NodeId(1)] {
                break; // evicted
            }
            assert!(std::time::Instant::now() < deadline, "slow consumer never evicted");
        }
        assert!(server.metrics().counter("poem_client_disconnects_total").unwrap_or(0) >= 1);
        drop((c1, stream));
        server.shutdown();
    }

    #[test]
    fn disconnected_client_reconnects_with_backoff() {
        let server = start_server();
        let c2 = connect(&server, 2);
        assert!(server.disconnect(NodeId(2)));
        assert!(!server.disconnect(NodeId(2)), "second disconnect finds nothing");
        // The eviction freed the identity synchronously, so the retrying
        // reconnect succeeds (and resets its backoff budget).
        let clock: Arc<dyn Clock> = Arc::new(WallClock::new());
        let mut backoff = poem_client::Backoff::standard(EmuRng::seed(9));
        let c2b = EmuClient::connect_tcp_with_retry(
            server.addr(),
            NodeId(2),
            RadioConfig::single(ChannelId(1), 100.0),
            clock,
            &mut backoff,
        )
        .unwrap();
        assert_eq!(backoff.attempt(), 0);
        assert!(server.connected().contains(&NodeId(2)));
        // Against a dead port the same path exhausts its budget with Io.
        let clock: Arc<dyn Clock> = Arc::new(WallClock::new());
        let mut tiny = poem_client::Backoff::new(
            EmuDuration::from_millis(1),
            EmuDuration::from_millis(4),
            2,
            EmuRng::seed(10),
        );
        let err = EmuClient::connect_tcp_with_retry(
            "127.0.0.1:1",
            NodeId(2),
            RadioConfig::none(),
            clock,
            &mut tiny,
        )
        .unwrap_err();
        assert!(matches!(err, poem_client::ClientError::Io(_)), "{err}");
        assert_eq!(tiny.attempt(), 2);
        drop((c2, c2b));
        server.shutdown();
    }

    #[test]
    fn expired_stall_flushes_held_in_order_before_later_packets() {
        let server = start_server();
        // Node 2 broadcasts to nodes 1 and 3, two sessions of one mux
        // connection: each broadcast's copies fire as one group.
        let c2 = connect(&server, 2);
        let clock: Arc<dyn Clock> = Arc::new(WallClock::new());
        let mux = poem_client::MuxClient::connect_tcp(server.addr(), clock).unwrap();
        let radios = RadioConfig::single(ChannelId(1), 100.0);
        let sessions =
            mux.attach_many(&[(NodeId(1), radios.clone()), (NodeId(3), radios)]).unwrap();
        let (s1, s3) = (&sessions[0], &sessions[1]);
        // Inject the transport stall with no fault driver popping the
        // timeline: its Release step will never run, which is exactly the
        // regression — the held copies used to stay parked forever and
        // later packets overtook them.
        let stall = FaultKind::Stall { node: NodeId(3), duration: EmuDuration::from_millis(300) };
        let mut host =
            RealTimeHost { shared: &server.shared, wires: None, timeline: ForwardSchedule::new() };
        server.shared.faults().step(&mut host, server.clock().now(), FaultStep::Inject(stall));
        let broadcast = |payload: &'static [u8]| {
            c2.send(ChannelId(1), Destination::Broadcast, Bytes::from_static(payload))
                .unwrap()
                .unwrap();
        };
        let heard = |s: &poem_client::MuxSession, n: usize| -> Vec<Bytes> {
            (0..n).map(|_| s.recv_timeout(Duration::from_secs(5)).unwrap().0.payload).collect()
        };
        for payload in [&b"one"[..], b"two", b"three"] {
            broadcast(payload);
            // Distinct fire_at stamps, so order through the park path is
            // meaningful.
            std::thread::sleep(Duration::from_millis(20));
        }
        // The stall takes node 3's copy out of each group; its sibling's
        // goes out on time.
        assert_eq!(heard(s1, 3), [&b"one"[..], b"two", b"three"].map(Bytes::from_static));
        assert!(s3.recv_timeout(Duration::from_millis(100)).is_err(), "stall leaked a delivery");
        // Let the stall expire, then send one more packet: it must flush
        // the parked copies ahead of itself instead of overtaking them.
        std::thread::sleep(Duration::from_millis(300));
        broadcast(b"four");
        assert_eq!(heard(s3, 4), [&b"one"[..], b"two", b"three", b"four"].map(Bytes::from_static));
        assert_eq!(heard(s1, 1), [Bytes::from_static(b"four")]);
        assert!(!server.shared.faults().stalling(), "expired entry must be dropped");
        // Every copy has its own Forward record, parked or not.
        let forwards = |to: u32| {
            let traffic = server.recorder().traffic();
            traffic
                .iter()
                .filter(|r| matches!(r, TrafficRecord::Forward { to: t, .. } if *t == NodeId(to)))
                .count()
        };
        assert_eq!((forwards(1), forwards(3)), (4, 4));
        // The inline release is recorded like a driver-run one.
        let faults = server.recorder().faults();
        assert!(
            faults.iter().any(|f| matches!(
                f,
                FaultRecord::Transport { node: NodeId(3), action, .. } if action == "release"
            )),
            "{faults:?}"
        );
        // Deadline accounting saw the deliberately late deadlines: the
        // three parked copies fired ≥ 300 ms past fire_at → severe misses.
        let snap = server.metrics();
        assert!(
            snap.counter("poem_deadline_miss_total{severity=\"severe\"}").unwrap_or(0) >= 3,
            "{snap:?}"
        );
        // And the idle condvar timeouts along the way calibrated the
        // wake-up-error histogram.
        assert!(snap.histogram("poem_wake_error_ns").map(|h| h.count).unwrap_or(0) >= 1);
        drop((c2, sessions));
        mux.close().unwrap();
        server.shutdown();
    }

    #[test]
    fn rapid_deliveries_preserve_order_under_hybrid_scan() {
        // Same source, same size → nondecreasing fire_at; equal deadlines
        // must come out FIFO through pop and batch-drain alike.
        let server = start_server();
        let c1 = connect(&server, 1);
        let c2 = connect(&server, 2);
        for i in 0..20u8 {
            c1.send(ChannelId(1), Destination::Unicast(NodeId(2)), Bytes::from(vec![i]))
                .unwrap()
                .unwrap();
        }
        let mut got = Vec::new();
        for _ in 0..20 {
            let (pkt, _) = c2.recv_timeout(Duration::from_secs(5)).unwrap();
            got.push(pkt.payload[0]);
        }
        assert_eq!(got, (0..20).collect::<Vec<u8>>());
        drop((c1, c2));
        server.shutdown();
    }

    #[test]
    fn all_sleep_policies_deliver_traffic() {
        for policy in [SleepPolicy::Naive, SleepPolicy::Hybrid, SleepPolicy::Spin] {
            let clock: Arc<dyn Clock> = Arc::new(WallClock::new());
            let config = ServerConfig { sleep_policy: policy, ..ServerConfig::default() };
            let server = ServerHandle::start(test_scene(), clock, config).unwrap();
            let c1 = connect(&server, 1);
            let c2 = connect(&server, 2);
            c1.send(ChannelId(1), Destination::Broadcast, Bytes::from_static(b"p"))
                .unwrap()
                .unwrap();
            let (pkt, _) = c2.recv_timeout(Duration::from_secs(5)).unwrap();
            assert_eq!(&pkt.payload[..], b"p", "policy {policy}");
            drop((c1, c2));
            server.shutdown();
        }
    }

    #[test]
    fn overloaded_schedule_batch_drains() {
        let server = start_server();
        let c1 = connect(&server, 1);
        let c2 = connect(&server, 2);
        // Wedge the schedule: the receiver thread ingests (stamping
        // fire_at) and then blocks scheduling until we let go, so the
        // head of the schedule is far past the overload threshold the
        // moment it becomes visible.
        {
            let _wedge = server.shared.schedule.lock();
            c1.send(ChannelId(1), Destination::Unicast(NodeId(2)), Bytes::from_static(b"late"))
                .unwrap()
                .unwrap();
            std::thread::sleep(Duration::from_millis(60));
        }
        let (pkt, _) = c2.recv_timeout(Duration::from_secs(5)).unwrap();
        assert_eq!(&pkt.payload[..], b"late");
        let snap = server.metrics();
        assert!(snap.counter("poem_scan_batch_drains_total").unwrap_or(0) >= 1, "{snap:?}");
        // 60 ms behind its deadline → counted as a severe miss.
        assert!(snap.counter("poem_deadline_miss_total{severity=\"severe\"}").unwrap_or(0) >= 1);
        drop((c1, c2));
        server.shutdown();
    }

    #[test]
    fn auto_policy_batch_drains_under_load_and_still_delivers() {
        let clock: Arc<dyn Clock> = Arc::new(WallClock::new());
        let config = ServerConfig { sleep_policy: SleepPolicy::Auto, ..ServerConfig::default() };
        let server = ServerHandle::start(test_scene(), clock, config).unwrap();
        let c1 = connect(&server, 1);
        let c2 = connect(&server, 2);
        // Same wedge as `overloaded_schedule_batch_drains`: hold the
        // schedule lock across a send so the head is already far past the
        // overload threshold when the scan loop sees it.
        {
            let _wedge = server.shared.schedule.lock();
            c1.send(ChannelId(1), Destination::Unicast(NodeId(2)), Bytes::from_static(b"late"))
                .unwrap()
                .unwrap();
            std::thread::sleep(Duration::from_millis(60));
        }
        let (pkt, _) = c2.recv_timeout(Duration::from_secs(5)).unwrap();
        assert_eq!(&pkt.payload[..], b"late");
        let snap = server.metrics();
        // Auto keeps the overload batch-drain path live…
        assert!(snap.counter("poem_scan_batch_drains_total").unwrap_or(0) >= 1, "{snap:?}");
        // …and registers its mode gauge (0 here: one lagged pass out of a
        // 64-pass window is nowhere near the 50 % engage threshold).
        assert!(snap.gauge("poem_auto_batch_mode").is_some(), "{snap:?}");
        // Normal traffic still flows once the backlog is drained.
        c1.send(ChannelId(1), Destination::Unicast(NodeId(2)), Bytes::from_static(b"after"))
            .unwrap()
            .unwrap();
        let (pkt, _) = c2.recv_timeout(Duration::from_secs(5)).unwrap();
        assert_eq!(&pkt.payload[..], b"after");
        drop((c1, c2));
        server.shutdown();
    }

    #[test]
    fn shutdown_interrupts_long_periodic_sleeps() {
        let clock: Arc<dyn Clock> = Arc::new(WallClock::new());
        let config = ServerConfig {
            mobility_step: Duration::from_secs(30),
            metrics_interval: Duration::from_secs(30),
            ..ServerConfig::default()
        };
        let mut scene = test_scene();
        scene
            .apply(
                EmuTime::ZERO,
                &SceneOp::AddNode {
                    id: NodeId(4),
                    pos: Point::new(500.0, 0.0),
                    radios: RadioConfig::single(ChannelId(1), 50.0),
                    mobility: MobilityModel::Linear { direction_deg: 0.0, speed: 100.0 },
                    link: LinkParams::ideal(8e6),
                },
            )
            .unwrap();
        let server = ServerHandle::start(scene, clock, config).unwrap();
        std::thread::sleep(Duration::from_millis(50));
        let begun = std::time::Instant::now();
        server.shutdown();
        // The periodic threads used to sleep out their full intervals
        // (30 s here) before noticing `running` had flipped.
        assert!(begun.elapsed() < Duration::from_secs(5), "shutdown took {:?}", begun.elapsed());
        // And the interrupted mobility sleep must NOT integrate one last
        // step after shutdown.
        let pos = server.with_scene(|s| s.node(NodeId(4)).unwrap().pos);
        assert_eq!((pos.x, pos.y), (500.0, 0.0));
    }

    #[test]
    fn pacing_parks_bursts_and_still_delivers_everything_in_order() {
        let clock: Arc<dyn Clock> = Arc::new(WallClock::new());
        let config = ServerConfig {
            pacing: Some(PacingConfig { rate_pps: 200.0, burst: 4, queue_cap: 64 }),
            ..ServerConfig::default()
        };
        let server = ServerHandle::start(test_scene(), clock, config).unwrap();
        let c1 = connect(&server, 1);
        let c2 = connect(&server, 2);
        // 20 back-to-back sends against a 4-token burst: the tail parks in
        // the paced queue and trickles out at the sustained rate.
        for i in 0..20u8 {
            c1.send(ChannelId(1), Destination::Unicast(NodeId(2)), Bytes::from(vec![i]))
                .unwrap()
                .unwrap();
        }
        let mut got = Vec::new();
        for _ in 0..20 {
            let (pkt, _) = c2.recv_timeout(Duration::from_secs(10)).unwrap();
            got.push(pkt.payload[0]);
        }
        // The paced queue is FIFO, so pacing never reorders a session.
        assert_eq!(got, (0..20).collect::<Vec<u8>>());
        let snap = server.metrics();
        assert!(snap.counter("poem_session_paced_total").unwrap_or(0) >= 1, "{snap:?}");
        drop((c1, c2));
        server.shutdown();
    }

    #[test]
    fn shutdown_closes_every_session_and_empties_the_registry() {
        let server = start_server();
        let c1 = connect(&server, 1);
        let _c2 = connect(&server, 2);
        // One client leaves cleanly, one stays connected through shutdown.
        c1.close().unwrap();
        std::thread::sleep(Duration::from_millis(50));
        server.shutdown();
        // The workers joined (shutdown returned), reaping every
        // connection out of the reactor registry on the way down.
        assert!(server.shared.reactor.conns.lock().is_empty());
        assert_eq!(server.connected(), vec![]);
    }
}
