//! Deterministic in-process emulation harness (virtual time).
//!
//! [`SimNet`] hosts every emulation client in one process: each VMN's
//! protocol code (a [`ClientApp`] over a [`QueueNic`]) runs against the
//! same [`Pipeline`] the real-time TCP server uses, but time is *virtual* —
//! a discrete-event loop pops the forward schedule and jumps the clock, so
//! a 60-second experiment runs in milliseconds and every run with the same
//! seed is bit-identical. This is what makes the paper's experiments
//! CI-reproducible (the TCP frontend exercises the same pipeline in real
//! time).

use crate::engine::{Delivery, Pipeline};
use crate::faults::{ClockFault, FaultExecutor, FaultHost, FaultStep, Gate, WireProbs};
use bytes::Bytes;
use poem_chaos::{FaultKind, FaultPlan};
use poem_client::nic::QueueNic;
use poem_client::ClientApp;
use poem_cluster::{ClusterConfig, ClusterError, Coordinator};
use poem_core::linkmodel::{DelayModel, LinkParams};
use poem_core::mobility::MobilityModel;
use poem_core::radio::RadioConfig;
use poem_core::scene::{Scene, SceneError, SceneOp};
use poem_core::{EmuDuration, EmuPacket, EmuRng, EmuTime, ForwardSchedule, NodeId, Point};
use poem_record::{Recorder, TrafficRecord};
use std::collections::BTreeMap;
use std::sync::Arc;

/// Harness configuration.
#[derive(Debug, Clone, Copy)]
pub struct SimConfig {
    /// Seed for every stochastic decision (loss draws, mobility).
    pub seed: u64,
    /// How often mobility is integrated (and positions recorded).
    pub mobility_step: EmuDuration,
    /// Optional model extensions (MAC, power).
    pub models: crate::engine::PipelineConfig,
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig {
            seed: 0,
            mobility_step: EmuDuration::from_millis(100),
            models: crate::engine::PipelineConfig::default(),
        }
    }
}

enum SimEvent {
    /// A scheduled packet forward (§3.2 steps 5–6).
    Deliver(Delivery),
    /// A client app's timer.
    Tick(NodeId),
    /// Periodic mobility integration.
    Mobility,
    /// A scripted scene operation.
    Op(SceneOp),
    /// A step of an installed [`FaultPlan`]: an injection or a restore.
    Fault(FaultStep),
}

struct SimNode {
    nic: QueueNic,
    app: Box<dyn ClientApp>,
}

/// The sim harness's fault-injection state: the executor, a packet-level
/// wire sink, stamp-rewriting clock faults, and parked crashed clients.
/// Lives behind an `Option` so a chaos-free run is bit-for-bit the run it
/// always was: the chaos RNG is a separate stream
/// (`poem_chaos::chaos_rng`), and nothing here exists before a fault.
struct SimChaos {
    exec: Arc<FaultExecutor>,
    rng: EmuRng,
    wire: BTreeMap<NodeId, WireProbs>,
    clocks: BTreeMap<NodeId, ClockFault>,
    parked: BTreeMap<NodeId, SimNode>,
}

impl SimChaos {
    /// Runs one outbound packet through the sender's wire and clock
    /// faults. Fixed draw order (clock → corrupt → truncate → duplicate →
    /// reorder) keeps runs reproducible; faults with probability 0 draw
    /// nothing at all. Returns the copies to ingest plus an extra delivery
    /// delay when the frame was reordered.
    fn transform(&mut self, mut pkt: EmuPacket, now: EmuTime) -> (Vec<EmuPacket>, EmuDuration) {
        let node = pkt.src;
        if let Some(cf) = self.clocks.get(&node).copied() {
            let mut stamp = pkt.sent_at + cf.skew;
            let std_ns = cf.jitter.as_nanos();
            if std_ns > 0 {
                let j = self.rng.gaussian(0.0, std_ns as f64).abs();
                stamp += EmuDuration::from_nanos(j as i64);
            }
            pkt.sent_at = stamp;
        }
        let Some(probs) = self.wire.get(&node).copied() else {
            return (vec![pkt], EmuDuration::ZERO);
        };
        if self.rng.chance(probs.corrupt) && !pkt.payload.is_empty() {
            let i = self.rng.index(pkt.payload.len());
            let mask = self.rng.range_u64(1, 256) as u8;
            let mut body = pkt.payload.to_vec();
            body[i] ^= mask;
            pkt.payload = Bytes::from(body);
            self.exec.note_wire(now, "wire_corrupt", &pkt);
        }
        if self.rng.chance(probs.truncate) && !pkt.payload.is_empty() {
            let keep = self.rng.index(pkt.payload.len());
            let mut body = pkt.payload.to_vec();
            body.truncate(keep);
            pkt.payload = Bytes::from(body);
            self.exec.note_wire(now, "wire_truncate", &pkt);
        }
        let copies = if self.rng.chance(probs.duplicate) {
            self.exec.note_wire(now, "wire_duplicate", &pkt);
            vec![pkt.clone(), pkt]
        } else {
            vec![pkt]
        };
        let delay = if self.rng.chance(probs.reorder) {
            self.exec.note_wire(now, "wire_reorder", &copies[0]);
            EmuDuration::from_nanos(self.rng.range_u64(1_000_000, 50_000_001) as i64)
        } else {
            EmuDuration::ZERO
        };
        (copies, delay)
    }
}

/// One packet waiting in the lookahead window for its decision.
struct Pending {
    /// The harness clock when the packet was ingested: its receipt stamp,
    /// and the earliest its copies are scheduled for.
    now: EmuTime,
    /// The chaos reorder delay drawn for it at ingest.
    extra_delay: EmuDuration,
    /// First of the schedule sequence numbers reserved for its copies, so
    /// they pop among equal due times as if scheduled at ingest.
    seq: u64,
}

/// A slot in the traffic log's order while the window is open.
enum Staged {
    /// A row already known (a copy of earlier, decided traffic fired).
    Row(TrafficRecord),
    /// The next pending packet's ingress and drop rows belong here.
    Packet,
}

/// The lookahead window: packets ingested but not yet decided. A
/// decision is a pure function of `(mirror scene, packet)` and no copy of
/// a packet can fire before [`SimNet::earliest_fire`], so decisions are
/// deferred — and shipped one batch per shard — until the event loop is
/// about to pop an event a pending copy could precede, a scene change is
/// about to reach the mirrors, or the public call that opened the window
/// returns. Open ⇔ `pkts` is non-empty.
#[derive(Default)]
struct Window {
    pkts: Vec<EmuPacket>,
    /// Index-aligned with `pkts`.
    pending: Vec<Pending>,
    /// Every traffic row since the window opened, in log order; replayed
    /// into the append-only recorder at close.
    staged: Vec<Staged>,
    /// The earliest instant any pending packet's copy can fire.
    closes_before: EmuTime,
}

/// Distributed-mode state: the worker fleet, the open lookahead window,
/// and the first failure, if any. Distributed execution is all-or-nothing
/// — after a cluster error the harness stops producing traffic outcomes
/// rather than silently falling back to local decisions (which would fork
/// the record log).
struct ClusterState {
    coord: Coordinator,
    window: Window,
    error: Option<ClusterError>,
}

/// The single-process deterministic emulation.
pub struct SimNet {
    pipeline: Pipeline,
    schedule: ForwardSchedule<SimEvent>,
    nodes: BTreeMap<NodeId, SimNode>,
    now: EmuTime,
    seed: u64,
    mobility_step: EmuDuration,
    mobility_armed: bool,
    chaos: Option<Box<SimChaos>>,
    cluster: Option<Box<ClusterState>>,
}

impl SimNet {
    /// An empty harness.
    pub fn new(config: SimConfig) -> Self {
        let recorder = Arc::new(Recorder::new());
        SimNet {
            pipeline: Pipeline::with_config(
                Scene::new(),
                recorder,
                EmuRng::seed(config.seed),
                config.models,
            ),
            schedule: ForwardSchedule::new(),
            nodes: BTreeMap::new(),
            now: EmuTime::ZERO,
            seed: config.seed,
            mobility_step: config.mobility_step,
            mobility_armed: false,
            chaos: None,
            cluster: None,
        }
    }

    /// Switches the harness to distributed execution: spawns
    /// `config.workers` `poem-shardd` processes, ships them the current
    /// scene, and from here on routes every packet decision through the
    /// cluster. The coordinator inherits the harness seed and the
    /// pipeline's decision base, so the merged record log is
    /// byte-identical to a local run of the same scenario. If empirical
    /// profiles are in play, install the library locally first and pass
    /// the same text in `config.profiles`.
    ///
    /// Only the baseline models distribute: a MAC discipline or power
    /// metering couples every transmission globally and is refused.
    pub fn attach_cluster(&mut self, mut config: ClusterConfig) -> Result<(), ClusterError> {
        if self.pipeline.mac() != poem_core::mac::MacModel::None {
            return Err(ClusterError::Unsupported("MAC models (medium state is global)"));
        }
        if self.pipeline.energy().is_some() {
            return Err(ClusterError::Unsupported("power metering (energy ledger is global)"));
        }
        config.seed = self.seed;
        let coord = Coordinator::launch(
            config,
            self.pipeline.decide_base(),
            self.pipeline.scene(),
            self.pipeline.metrics_registry(),
        )?;
        self.cluster =
            Some(Box::new(ClusterState { coord, window: Window::default(), error: None }));
        Ok(())
    }

    /// The first cluster failure, if distributed execution broke down.
    /// Virtual-time drivers should treat `Some` as a failed run.
    pub fn cluster_error(&self) -> Option<&ClusterError> {
        self.cluster.as_ref().and_then(|c| c.error.as_ref())
    }

    /// The cluster coordinator, when distributed execution is attached.
    pub fn cluster(&self) -> Option<&Coordinator> {
        self.cluster.as_ref().map(|c| &c.coord)
    }

    /// Tears the worker fleet down (orderly shutdown, then kill). The
    /// harness reverts to local execution.
    pub fn shutdown_cluster(&mut self) {
        if let Some(mut cl) = self.cluster.take() {
            cl.coord.shutdown();
        }
    }

    /// Runs `f` on the worker fleet, after deciding everything ingested
    /// against the mirrors as they were. The first failure sticks.
    fn on_fleet(
        &mut self,
        f: impl FnOnce(&mut Coordinator, EmuTime, &Scene) -> Result<(), ClusterError>,
    ) {
        self.close_window();
        let Some(cl) = self.cluster.as_mut().filter(|cl| cl.error.is_none()) else { return };
        if let Err(e) = f(&mut cl.coord, self.now, self.pipeline.scene()) {
            cl.error = Some(e);
        }
    }

    /// The earliest a copy of `pkt`, ingested now, can be scheduled for:
    /// `max(now, sent_at + floor)`, `floor` being the smallest propagation
    /// delay the sender's link can decide — the fixed part of its
    /// [`DelayModel`], or a bound profile's smallest row/state delay if
    /// that is less. Transmission time only adds to it, so leaving it out
    /// keeps the bound exact integer arithmetic. A link that can decide a
    /// negative delay bounds nothing beyond `now`.
    fn earliest_fire(&self, pkt: &EmuPacket) -> EmuTime {
        let Some(sender) = self.pipeline.scene().node(pkt.src) else { return self.now };
        let analytic = match sender.link.delay {
            DelayModel::Constant(d) => d,
            DelayModel::PerDistance { fixed, per_unit } if !per_unit.is_negative() => fixed,
            DelayModel::PerDistance { .. } => return self.now,
        };
        let profiled = sender
            .link
            .profile
            .and_then(|pid| self.pipeline.profile_book()?.delay_floor(pid))
            .unwrap_or(analytic);
        let floor = analytic.min(profiled);
        if floor.is_negative() {
            return self.now;
        }
        self.now.max(pkt.sent_at + floor)
    }

    /// Distributed ingest: the packet joins the lookahead window (see
    /// [`Window`]) with the clock and chaos delay of this instant, and
    /// room for its copies is reserved in the schedule.
    fn window_push(&mut self, pkt: EmuPacket, extra_delay: EmuDuration) {
        let earliest = self.earliest_fire(&pkt);
        // A packet has at most one copy per other node in the scene.
        let slots = self.pipeline.scene().len().max(1) as u64;
        let Some(cl) = self.cluster.as_mut() else { return };
        if cl.error.is_some() {
            return;
        }
        let w = &mut cl.window;
        w.closes_before = if w.pkts.is_empty() { earliest } else { w.closes_before.min(earliest) };
        w.pending.push(Pending { now: self.now, extra_delay, seq: self.schedule.reserve(slots) });
        w.pkts.push(pkt);
        w.staged.push(Staged::Packet);
    }

    /// True when a window is open and the next event (due `next_due`)
    /// could come after a copy of a pending packet.
    fn window_blocks(&self, next_due: Option<EmuTime>) -> bool {
        self.cluster.as_ref().is_some_and(|cl| {
            !cl.window.pkts.is_empty() && next_due.is_none_or(|due| due >= cl.window.closes_before)
        })
    }

    /// Closes the lookahead window: one decision batch per involved
    /// shard, one wait, then the staged rows replayed in order — each
    /// pending packet settled where it was ingested, with the clock and
    /// chaos delay captured then, its copies listed under the sequence
    /// numbers reserved then. If the fleet fails, the rows of traffic
    /// decided earlier are still written; the pending packets record
    /// nothing, as a failed batch never has.
    fn close_window(&mut self) {
        let Some(cl) = self.cluster.as_mut() else { return };
        let ClusterState { coord, window, error } = &mut **cl;
        let Some(first) = window.pending.first() else { return };
        let recorder = self.pipeline.recorder();
        // The frame carries one receipt stamp; workers decide without it.
        let mut decided = match coord.decide(&window.pkts, first.now) {
            Ok(batch) => Some(batch),
            Err(e) => {
                *error = Some(e);
                None
            }
        };
        let mut packets = window.pkts.iter().zip(&window.pending).enumerate();
        let mut copies = Vec::new();
        for slot in window.staged.drain(..) {
            let (idx, (pkt, p)) = match slot {
                Staged::Row(row) => {
                    recorder.record_traffic(row);
                    continue;
                }
                Staged::Packet => match packets.next() {
                    Some(next) => next,
                    None => continue,
                },
            };
            let Some(batch) = decided.as_mut() else { continue };
            if let Err(e) = coord.settle(batch, idx, pkt, p.now, recorder, &mut copies) {
                *error = Some(e);
                decided = None;
                copies.clear();
            }
            for (k, d) in copies.drain(..).enumerate() {
                let at = d.fire_at.max(p.now) + p.extra_delay;
                self.schedule.schedule_reserved(at, p.seq + k as u64, SimEvent::Deliver(d));
            }
        }
        window.pkts.clear();
        window.pending.clear();
    }

    /// Appends a traffic row — behind the open window's pending packets,
    /// if there is one, so the log keeps its order. (Takes the fields it
    /// needs: `fire_delivery` calls it holding a borrow of `nodes`.)
    fn record_traffic(
        cluster: &mut Option<Box<ClusterState>>,
        recorder: &Recorder,
        row: TrafficRecord,
    ) {
        match cluster.as_mut().map(|cl| &mut cl.window).filter(|w| !w.pkts.is_empty()) {
            Some(w) => w.staged.push(Staged::Row(row)),
            None => recorder.record_traffic(row),
        }
    }

    /// Current virtual time.
    pub fn now(&self) -> EmuTime {
        self.now
    }

    /// The emulated scene.
    pub fn scene(&self) -> &Scene {
        self.pipeline.scene()
    }

    /// The run's recorder (traffic + scene logs).
    pub fn recorder(&self) -> Arc<Recorder> {
        Arc::clone(self.pipeline.recorder())
    }

    /// Number of hosted clients.
    pub fn client_count(&self) -> usize {
        self.nodes.len()
    }

    /// A point-in-time snapshot of the pipeline's metrics (ingest and drop
    /// counters, latency histogram, recorder buffering) — the sim-harness
    /// counterpart of [`crate::ServerHandle::metrics`].
    pub fn metrics(&self) -> poem_obs::MetricsSnapshot {
        self.pipeline.metrics()
    }

    /// Read access to the pipeline (MAC/energy statistics).
    pub fn pipeline(&self) -> &Pipeline {
        &self.pipeline
    }

    /// Mutable access to the pipeline (battery assignment etc.).
    pub fn pipeline_mut(&mut self) -> &mut Pipeline {
        &mut self.pipeline
    }

    /// Adds a VMN to the scene and hosts `app` as its client. The app's
    /// `on_start` runs immediately (at the current virtual time).
    #[allow(clippy::too_many_arguments)]
    pub fn add_node(
        &mut self,
        id: NodeId,
        pos: Point,
        radios: RadioConfig,
        mobility: MobilityModel,
        link: LinkParams,
        app: Box<dyn ClientApp>,
    ) -> Result<(), SceneError> {
        self.apply_op(SceneOp::AddNode { id, pos, radios: radios.clone(), mobility, link })?;
        self.start_app(id, SimNode { nic: QueueNic::new(id, radios), app });
        self.close_window();
        if mobility != MobilityModel::Stationary && !self.mobility_armed {
            self.mobility_armed = true;
            self.schedule.schedule(self.now + self.mobility_step, SimEvent::Mobility);
        }
        Ok(())
    }

    /// Hosts `app` as the client of an *existing* scene node — the
    /// virtual analogue of a TCP client connecting to a server-created
    /// VMN. Lets scenario scripts build the scene (`add` lines) and the
    /// harness attach traffic afterwards. Replaces any previous app on
    /// the node.
    pub fn attach_app(&mut self, id: NodeId, app: Box<dyn ClientApp>) -> Result<(), SceneError> {
        let Some(v) = self.scene().node(id) else {
            return Err(SceneError::UnknownNode(id));
        };
        let radios = v.radios.clone();
        self.start_app(id, SimNode { nic: QueueNic::new(id, radios), app });
        self.close_window();
        Ok(())
    }

    /// Hosts `node` as `id`'s client: runs its `on_start` now and pumps
    /// whatever it sends.
    fn start_app(&mut self, id: NodeId, mut node: SimNode) {
        node.nic.set_now(self.now);
        if let Some(delay) = node.app.on_start(&mut node.nic) {
            self.schedule.schedule(self.now + delay, SimEvent::Tick(id));
        }
        self.nodes.insert(id, node);
        self.pump(id);
    }

    /// Applies a scene op right now (the GUI's "real-time scene
    /// construction").
    pub fn apply_op(&mut self, op: SceneOp) -> Result<(), SceneError> {
        self.pipeline.apply_op(self.now, op.clone())?;
        self.on_fleet(|coord, now, scene| coord.apply_op(now, &op, scene));
        self.after_op(&op);
        Ok(())
    }

    /// Schedules a scene op for a future virtual time (scenario script).
    pub fn schedule_op(&mut self, at: EmuTime, op: SceneOp) {
        self.schedule.schedule(at, SimEvent::Op(op));
    }

    /// Installs an empirical profile library, seeded with the scenario
    /// seed so profile-driven regime draws replay deterministically.
    pub fn install_profiles(&mut self, library: poem_profiles::ProfileLibrary) {
        self.pipeline.install_profiles(library, self.seed);
    }

    fn ensure_chaos(&mut self) -> &mut SimChaos {
        let (seed, pipeline) = (self.seed, &self.pipeline);
        self.chaos.get_or_insert_with(|| {
            let recorder = Arc::clone(pipeline.recorder());
            Box::new(SimChaos {
                exec: Arc::new(FaultExecutor::new(pipeline.metrics_registry(), recorder)),
                rng: poem_chaos::chaos_rng(seed),
                wire: BTreeMap::new(),
                clocks: BTreeMap::new(),
                parked: BTreeMap::new(),
            })
        })
    }

    /// Installs a fault plan: past-due faults apply immediately, the rest
    /// are scheduled at their injection times.
    pub fn install_faults(&mut self, plan: &FaultPlan) {
        if plan.is_empty() {
            return;
        }
        self.ensure_chaos();
        for spec in plan.specs() {
            if spec.at <= self.now {
                self.apply_fault(spec.kind.clone());
            } else {
                FaultHost::schedule(self, spec.at, FaultStep::Inject(spec.kind.clone()));
            }
        }
    }

    /// Injects one fault right now.
    pub fn apply_fault(&mut self, kind: FaultKind) {
        self.fault_step(FaultStep::Inject(kind));
    }

    fn fault_step(&mut self, step: FaultStep) {
        let exec = Arc::clone(&self.ensure_chaos().exec);
        exec.step(self, self.now, step);
    }

    /// Keeps local NIC state consistent after an op.
    fn after_op(&mut self, op: &SceneOp) {
        match op {
            SceneOp::RemoveNode { id } => {
                self.nodes.remove(id);
            }
            SceneOp::SetRadioChannel { id, .. }
            | SceneOp::SetRadioRange { id, .. }
            | SceneOp::SetRadios { id, .. } => {
                let radios = self.pipeline.scene().node(*id).map(|v| v.radios.clone());
                if let (Some(radios), Some(node)) = (radios, self.nodes.get_mut(id)) {
                    node.nic.set_radios(radios);
                }
            }
            _ => {}
        }
    }

    /// Drains everything the node's protocol just sent and runs it through
    /// the pipeline (steps 1–4).
    fn pump(&mut self, id: NodeId) {
        let Some(node) = self.nodes.get_mut(&id) else { return };
        let outbound = node.nic.drain_outbound();
        for pkt in outbound {
            let (copies, extra_delay) = match self.chaos.as_mut() {
                Some(chaos) => chaos.transform(pkt, self.now),
                None => (vec![pkt], EmuDuration::ZERO),
            };
            for pkt in copies {
                // In-process transport: the server "receives" instantly.
                // Distributed mode defers the decision to the shard owning
                // the sender instead of deciding locally.
                if self.cluster.is_some() {
                    self.window_push(pkt, extra_delay);
                    continue;
                }
                for d in self.pipeline.ingest(&pkt, self.now) {
                    let at = d.fire_at.max(self.now) + extra_delay;
                    self.schedule.schedule(at, SimEvent::Deliver(d));
                }
            }
        }
    }

    /// Runs the event loop until virtual time `t_end` (inclusive). Events
    /// scheduled during the run are processed if they fall before the end.
    pub fn run_until(&mut self, t_end: EmuTime) {
        loop {
            let next_due = self.schedule.next_due();
            if self.window_blocks(next_due) {
                self.close_window();
                continue;
            }
            if next_due.is_none_or(|due| due > t_end) {
                break;
            }
            let Some((at, ev)) = self.schedule.pop_next() else { break };
            self.now = self.now.max(at);
            match ev {
                SimEvent::Deliver(d) => self.fire_delivery(d),
                SimEvent::Tick(id) => {
                    if let Some(node) = self.nodes.get_mut(&id) {
                        node.nic.set_now(self.now);
                        if let Some(delay) = node.app.on_tick(&mut node.nic) {
                            self.schedule.schedule(self.now + delay, SimEvent::Tick(id));
                        }
                        self.pump(id);
                    }
                }
                SimEvent::Mobility => {
                    self.pipeline.advance_mobility(self.now);
                    // Rebalance, ship position updates, run a lockstep barrier.
                    self.on_fleet(|coord, now, scene| coord.sync(now, scene));
                    self.schedule.schedule(self.now + self.mobility_step, SimEvent::Mobility);
                }
                SimEvent::Op(op) => {
                    // Scripted ops were validated by the author; a failure
                    // here (e.g. removing an already-removed node) is
                    // recorded nowhere and simply skipped.
                    let _ = self.apply_op(op);
                }
                SimEvent::Fault(step) => self.fault_step(step),
            }
        }
        self.close_window();
        self.now = self.now.max(t_end);
        if self.mobility_armed {
            self.pipeline.advance_mobility(self.now);
            self.on_fleet(|coord, now, scene| coord.sync(now, scene));
        }
    }

    /// Steps 5–6: gates a due delivery through the stall book, hands it
    /// to its client and lets the protocol react.
    fn fire_delivery(&mut self, d: Delivery) {
        let gate = match &self.chaos {
            Some(chaos) => chaos.exec.gate(d, self.now),
            None => Gate::Pass(d),
        };
        match gate {
            Gate::Pass(d) => self.deliver(d),
            Gate::Held => {}
            // Slow-reader overflow: the copy is lost exactly as if the
            // client were gone, keeping drop accounting whole.
            Gate::Overflow(d) => self.undeliverable(&d),
            Gate::Released(d, held) => {
                self.redeliver(held);
                self.deliver(d);
            }
        }
    }

    fn deliver(&mut self, d: Delivery) {
        let Some(node) = self.nodes.get_mut(&d.to) else {
            self.undeliverable(&d);
            return;
        };
        let row = Pipeline::forward_row(&d, self.now);
        Self::record_traffic(&mut self.cluster, self.pipeline.recorder(), row);
        node.nic.set_now(self.now);
        node.app.on_packet(&mut node.nic, d.packet);
        self.pump(d.to);
    }

    fn undeliverable(&mut self, d: &Delivery) {
        let row = self.pipeline.undeliverable_row(d, self.now);
        Self::record_traffic(&mut self.cluster, self.pipeline.recorder(), row);
    }
}

/// The virtual-time side of the fault executor.
impl FaultHost for SimNet {
    fn with_scene<R>(&self, f: impl FnOnce(&Scene) -> R) -> R {
        f(self.pipeline.scene())
    }

    fn apply(&mut self, op: SceneOp) -> bool {
        self.apply_op(op).is_ok()
    }

    fn wire(&mut self, _kind: &FaultKind, node: NodeId, set: impl FnOnce(&mut WireProbs)) {
        set(self.ensure_chaos().wire.entry(node).or_default());
    }

    fn clock(&mut self, node: NodeId, set: impl FnOnce(&mut ClockFault)) {
        set(self.ensure_chaos().clocks.entry(node).or_default());
    }

    /// The VMN stays in the scene; copies addressed to it now resolve as
    /// disconnected drops, as on the TCP frontend.
    fn disconnect(&mut self, node: NodeId) {
        self.nodes.remove(&node);
    }

    fn park(&mut self, node: NodeId) {
        if let Some(client) = self.nodes.remove(&node) {
            self.ensure_chaos().parked.insert(node, client);
        }
    }

    /// Reboots the parked client app on the re-added node.
    fn revive(&mut self, id: NodeId) {
        let Some(mut node) = self.ensure_chaos().parked.remove(&id) else { return };
        if let Some(v) = self.pipeline.scene().node(id) {
            node.nic.set_radios(v.radios.clone());
        }
        self.start_app(id, node);
    }

    fn redeliver(&mut self, held: Vec<Delivery>) {
        for d in held {
            self.deliver(d);
        }
    }

    fn schedule(&mut self, at: EmuTime, step: FaultStep) {
        self.schedule.schedule(at, SimEvent::Fault(step));
    }
}

impl std::fmt::Debug for SimNet {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SimNet")
            .field("now", &self.now)
            .field("clients", &self.nodes.len())
            .field("pending_events", &self.schedule.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::Bytes;
    use parking_lot::Mutex;
    use poem_client::nic::Nic;
    use poem_core::packet::Destination;
    use poem_core::{ChannelId, EmuPacket};
    use poem_record::TrafficRecord;

    /// Broadcasts one beacon per second; counts everything it hears.
    struct Beacon {
        channel: ChannelId,
        heard: Arc<Mutex<Vec<(NodeId, EmuTime)>>>,
    }

    impl ClientApp for Beacon {
        fn on_start(&mut self, nic: &mut dyn Nic) -> Option<EmuDuration> {
            nic.send(self.channel, Destination::Broadcast, Bytes::from_static(b"hello"));
            Some(EmuDuration::from_secs(1))
        }
        fn on_packet(&mut self, nic: &mut dyn Nic, pkt: EmuPacket) {
            self.heard.lock().push((pkt.src, nic.now()));
        }
        fn on_tick(&mut self, nic: &mut dyn Nic) -> Option<EmuDuration> {
            nic.send(self.channel, Destination::Broadcast, Bytes::from_static(b"hello"));
            Some(EmuDuration::from_secs(1))
        }
    }

    type HeardLog = Arc<Mutex<Vec<(NodeId, EmuTime)>>>;

    fn beacon_pair() -> (SimNet, HeardLog, HeardLog) {
        let mut net = SimNet::new(SimConfig::default());
        let heard1 = Arc::new(Mutex::new(Vec::new()));
        let heard2 = Arc::new(Mutex::new(Vec::new()));
        for (id, x, heard) in [(1u32, 0.0, &heard1), (2u32, 50.0, &heard2)] {
            net.add_node(
                NodeId(id),
                Point::new(x, 0.0),
                RadioConfig::single(ChannelId(1), 100.0),
                MobilityModel::Stationary,
                LinkParams::ideal(8e6),
                Box::new(Beacon { channel: ChannelId(1), heard: Arc::clone(heard) }),
            )
            .unwrap();
        }
        (net, heard1, heard2)
    }

    #[test]
    fn beacons_cross_between_neighbors() {
        let (mut net, heard1, heard2) = beacon_pair();
        net.run_until(EmuTime::from_secs(10));
        // Node 1 started before node 2 existed, so its very first beacon
        // found no neighbors; thereafter one beacon/second each way.
        let h1 = heard1.lock();
        let h2 = heard2.lock();
        assert!(h1.len() >= 9, "node1 heard {}", h1.len());
        assert!(h2.len() >= 9, "node2 heard {}", h2.len());
        assert!(h1.iter().all(|&(src, _)| src == NodeId(2)));
        assert!(h2.iter().all(|&(src, _)| src == NodeId(1)));
    }

    #[test]
    fn delivery_time_includes_transmission_delay() {
        let (mut net, _h1, heard2) = beacon_pair();
        net.run_until(EmuTime::from_secs(2));
        let h2 = heard2.lock();
        // 33-byte frame at 8 Mbps = 33 µs after the (integer-second) send.
        let (_, at) = h2[0];
        let sub_second = at.as_nanos() % 1_000_000_000;
        assert_eq!(sub_second, 33_000, "{at}");
    }

    #[test]
    fn run_is_deterministic() {
        let run = || {
            let (mut net, _, heard2) = beacon_pair();
            net.run_until(EmuTime::from_secs(30));
            let v = heard2.lock().clone();
            (v, net.recorder().counts())
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn scheduled_op_fires_at_its_time() {
        let (mut net, _h1, heard2) = beacon_pair();
        // At t=5.5 s, move node 2 out of range.
        net.schedule_op(
            EmuTime::from_millis(5_500),
            SceneOp::MoveNode { id: NodeId(2), pos: Point::new(500.0, 0.0) },
        );
        net.run_until(EmuTime::from_secs(10));
        let h2 = heard2.lock();
        // Node 2 did not exist yet for node 1's start beacon; beacons at
        // 1..=5 s are heard, later ones are lost to the move.
        assert_eq!(h2.len(), 5, "{h2:?}");
        assert!(h2.iter().all(|&(_, at)| at <= EmuTime::from_secs(6)));
    }

    #[test]
    fn removing_node_stops_its_app_and_deliveries() {
        let (mut net, h1, _h2) = beacon_pair();
        net.schedule_op(EmuTime::from_millis(3_500), SceneOp::RemoveNode { id: NodeId(2) });
        net.run_until(EmuTime::from_secs(10));
        assert_eq!(net.client_count(), 1);
        let heard_after: Vec<_> =
            h1.lock().iter().filter(|&&(_, at)| at > EmuTime::from_secs(4)).cloned().collect();
        assert!(heard_after.is_empty(), "{heard_after:?}");
    }

    #[test]
    fn mobility_is_integrated_and_recorded() {
        let mut net = SimNet::new(SimConfig::default());
        net.add_node(
            NodeId(1),
            Point::ORIGIN,
            RadioConfig::single(ChannelId(1), 100.0),
            MobilityModel::Linear { direction_deg: 0.0, speed: 10.0 },
            LinkParams::ideal(8e6),
            Box::new(poem_client::app::IdleApp),
        )
        .unwrap();
        net.run_until(EmuTime::from_secs(5));
        let pos = net.scene().node(NodeId(1)).unwrap().pos;
        assert!((pos.x - 50.0).abs() < 1e-6, "{pos}");
        // Scene log: 1 AddNode + 50 mobility MoveNodes (100 ms step).
        let scene_log = net.recorder().scene();
        assert_eq!(scene_log.len(), 51, "{}", scene_log.len());
    }

    #[test]
    fn sim_harness_exposes_pipeline_metrics() {
        let (mut net, _h1, _h2) = beacon_pair();
        net.run_until(EmuTime::from_secs(5));
        let snap = net.metrics();
        assert!(!snap.is_empty());
        // 2 start beacons + 2×5 ticks ingested (see
        // traffic_is_recorded_end_to_end for the tally).
        assert_eq!(snap.counter("poem_ingest_packets_total"), Some(12));
        assert!(snap.counter("poem_ingest_deliveries_total").unwrap_or(0) >= 9);
        assert!(snap.counter("poem_recorder_traffic_records_total").unwrap_or(0) >= 12);
    }

    #[test]
    fn traffic_is_recorded_end_to_end() {
        let (mut net, _h1, _h2) = beacon_pair();
        net.run_until(EmuTime::from_secs(5));
        let rec = net.recorder();
        let traffic = rec.traffic();
        let ingress = traffic.iter().filter(|r| matches!(r, TrafficRecord::Ingress { .. })).count();
        let forwards =
            traffic.iter().filter(|r| matches!(r, TrafficRecord::Forward { .. })).count();
        // 2 start beacons + 2×5 ticks = 12 ingress. Forwards: node 1's
        // start beacon found no neighbor yet, and the two t=5 s beacons'
        // deliveries (t=5 s + 33 µs) fall beyond the run end → 9.
        assert_eq!(ingress, 12);
        assert_eq!(forwards, 9);
    }

    #[test]
    fn zero_probability_plan_is_a_behavioral_noop() {
        let run = |with_plan: bool| {
            let (mut net, _h1, heard2) = beacon_pair();
            if with_plan {
                let mut plan = FaultPlan::new();
                plan.push(EmuTime::ZERO, FaultKind::WireCorrupt { node: NodeId(1), prob: 0.0 });
                plan.push(EmuTime::ZERO, FaultKind::WireReorder { node: NodeId(2), prob: 0.0 });
                net.install_faults(&plan);
            }
            net.run_until(EmuTime::from_secs(10));
            let out = (heard2.lock().clone(), net.recorder().traffic(), net.recorder().scene());
            out
        };
        // Zero-probability faults draw nothing from the (separate) chaos
        // stream and never perturb the pipeline stream: identical logs.
        assert_eq!(run(false), run(true));
    }

    #[test]
    fn duplicate_fault_doubles_deliveries() {
        let (mut net, _h1, heard2) = beacon_pair();
        let mut plan = FaultPlan::new();
        plan.push(EmuTime::ZERO, FaultKind::WireDuplicate { node: NodeId(1), prob: 1.0 });
        net.install_faults(&plan);
        net.run_until(EmuTime::from_secs(5));
        // Beacons from node 1 at 1..4 s (the start beacon found no
        // neighbor; the 5 s one lands past the run end) arrive twice each.
        let h2 = heard2.lock();
        let from1 = h2.iter().filter(|&&(src, _)| src == NodeId(1)).count();
        assert_eq!(from1, 8, "{h2:?}");
        let wire = poem_record::FaultQuery::new(&net.recorder().faults()).counts().wire;
        assert!(wire >= 5, "{wire}");
    }

    #[test]
    fn stall_holds_then_flushes_deliveries() {
        let (mut net, _h1, heard2) = beacon_pair();
        let mut plan = FaultPlan::new();
        plan.push(
            EmuTime::from_millis(1_500),
            FaultKind::Stall { node: NodeId(2), duration: EmuDuration::from_secs(3) },
        );
        net.install_faults(&plan);
        net.run_until(EmuTime::from_secs(8));
        let h2 = heard2.lock();
        // Nothing lands in (1.5 s, 4.5 s); the held beacons flush at 4.5 s.
        assert!(
            h2.iter()
                .all(|&(_, at)| at <= EmuTime::from_millis(1_500)
                    || at >= EmuTime::from_millis(4_500))
        );
        let flushed = h2.iter().filter(|&&(_, at)| at == EmuTime::from_millis(4_500)).count();
        assert_eq!(flushed, 3, "{h2:?}");
        // 7 beacons heard in total (1..7 s): none were lost, only delayed.
        assert_eq!(h2.len(), 7, "{h2:?}");
    }

    #[test]
    fn second_stall_extends_the_first_and_keeps_its_copies() {
        let (mut net, _h1, heard2) = beacon_pair();
        let mut plan = FaultPlan::new();
        plan.push(
            EmuTime::from_millis(1_500),
            FaultKind::Stall { node: NodeId(2), duration: EmuDuration::from_secs(3) },
        )
        .push(
            EmuTime::from_millis(3_500),
            FaultKind::Stall { node: NodeId(2), duration: EmuDuration::from_secs(1) },
        );
        net.install_faults(&plan);
        // Every beacon of 1..7 s has fired by 7.5 s; nothing is in flight.
        net.run_until(EmuTime::from_millis(7_500));
        let heard = heard2.lock().len();
        assert_eq!(heard, 7, "the copies held by the first stall were lost");
        let traffic = net.recorder().traffic();
        let to2 = poem_record::TrafficQuery::new(&traffic).to(NodeId(2)).copy_counts();
        assert_eq!((to2.forwarded, to2.disconnected), (7, 0), "{to2:?}");
        // Every copy the pipeline scheduled has a Forward or Drop row.
        let all = poem_record::TrafficQuery::new(&traffic).copy_counts();
        assert_eq!(
            Some(all.forwarded + all.disconnected),
            net.metrics().counter("poem_ingest_deliveries_total"),
            "{all:?}"
        );
    }

    #[test]
    fn slow_reader_overflow_drops_are_accounted() {
        let (mut net, _h1, heard2) = beacon_pair();
        let mut plan = FaultPlan::new();
        plan.push(
            EmuTime::from_millis(1_500),
            FaultKind::SlowReader {
                node: NodeId(2),
                buffer: 1,
                duration: EmuDuration::from_secs(3),
            },
        );
        net.install_faults(&plan);
        net.run_until(EmuTime::from_secs(8));
        // Beacons at 2,3,4 s hit the stall; one is held, two overflow.
        let counts =
            poem_record::TrafficQuery::new(&net.recorder().traffic()).to(NodeId(2)).copy_counts();
        assert_eq!(counts.disconnected, 2, "{counts:?}");
        assert_eq!(heard2.lock().len(), 5);
    }

    #[test]
    fn disconnect_turns_copies_into_disconnected_drops() {
        let (mut net, _h1, heard2) = beacon_pair();
        let mut plan = FaultPlan::new();
        plan.push(EmuTime::from_millis(2_500), FaultKind::Disconnect { node: NodeId(2) });
        net.install_faults(&plan);
        net.run_until(EmuTime::from_secs(6));
        assert_eq!(net.client_count(), 1);
        // The VMN is still in the scene, so copies route but can't deliver.
        assert!(net.scene().node(NodeId(2)).is_some());
        let counts =
            poem_record::TrafficQuery::new(&net.recorder().traffic()).to(NodeId(2)).copy_counts();
        assert!(counts.disconnected >= 3, "{counts:?}");
        assert!(heard2.lock().iter().all(|&(_, at)| at < EmuTime::from_millis(2_500)));
    }

    #[test]
    fn crash_with_restart_revives_node_and_app() {
        let (mut net, _h1, heard2) = beacon_pair();
        let mut plan = FaultPlan::new();
        plan.push(
            EmuTime::from_millis(2_500),
            FaultKind::Crash { node: NodeId(2), restart_after: Some(EmuDuration::from_secs(3)) },
        );
        net.install_faults(&plan);
        net.run_until(EmuTime::from_secs(9));
        assert_eq!(net.client_count(), 2);
        assert!(net.scene().node(NodeId(2)).is_some());
        let h2 = heard2.lock();
        // Crashed from 2.5 s to 5.5 s; hears again after reviving.
        assert!(h2.iter().any(|&(_, at)| at > EmuTime::from_millis(5_500)), "{h2:?}");
        assert!(h2
            .iter()
            .all(|&(_, at)| at < EmuTime::from_millis(2_500) || at > EmuTime::from_millis(5_500)));
        let faults = net.recorder().faults();
        assert!(faults.iter().any(
            |f| matches!(f, poem_record::FaultRecord::Scene { action, .. } if action.starts_with("restore"))
        ));
    }

    #[test]
    fn jam_silences_the_channel_then_restores() {
        let (mut net, _h1, heard2) = beacon_pair();
        let mut plan = FaultPlan::new();
        plan.push(
            EmuTime::from_millis(1_500),
            FaultKind::Jam {
                channel: poem_core::ChannelId(1),
                duration: EmuDuration::from_secs(3),
            },
        );
        net.install_faults(&plan);
        net.run_until(EmuTime::from_secs(8));
        let h2 = heard2.lock();
        // Radios dark in (1.5 s, 4.5 s): jammed broadcasts find no
        // neighbors at all, so the window is silent (no copies, not even
        // drops), and beacons resume once the restore legs fire.
        assert!(h2
            .iter()
            .all(|&(_, at)| at < EmuTime::from_millis(1_500) || at > EmuTime::from_millis(4_500)));
        assert!(h2.iter().any(|&(_, at)| at > EmuTime::from_millis(4_500)), "{h2:?}");
        let counts = poem_record::TrafficQuery::new(&net.recorder().traffic()).copy_counts();
        // Baseline at 8 s is 15 forwards; the 6 jammed beacons (3 per
        // node) never became copies.
        assert_eq!(counts.forwarded, 9, "{counts:?}");
        let faults = net.recorder().faults();
        assert!(faults.iter().any(
            |f| matches!(f, poem_record::FaultRecord::Scene { action, .. } if action.contains("restore"))
        ));
    }

    #[test]
    fn clock_skew_shifts_client_stamps() {
        let (mut net, _h1, _h2) = beacon_pair();
        let mut plan = FaultPlan::new();
        plan.push(
            EmuTime::from_millis(500),
            FaultKind::ClockSkew { node: NodeId(1), offset: EmuDuration::from_secs(2) },
        );
        net.install_faults(&plan);
        net.run_until(EmuTime::from_secs(4));
        let skews: Vec<_> = net
            .recorder()
            .traffic()
            .iter()
            .filter_map(|r| match *r {
                TrafficRecord::Ingress { src: NodeId(1), sent_at, received_at, .. } => {
                    Some(sent_at - received_at)
                }
                _ => None,
            })
            .collect();
        // Beacons after the injection carry stamps 2 s ahead of server time.
        assert!(skews.iter().skip(1).all(|&d| d == EmuDuration::from_secs(2)), "{skews:?}");
        assert_eq!(skews[0], EmuDuration::ZERO);
    }

    #[test]
    fn chaos_runs_are_deterministic_per_seed() {
        let run = |seed| {
            let mut net = SimNet::new(SimConfig { seed, ..SimConfig::default() });
            let heard = Arc::new(Mutex::new(Vec::new()));
            for (id, x) in [(1u32, 0.0), (2u32, 50.0)] {
                net.add_node(
                    NodeId(id),
                    Point::new(x, 0.0),
                    RadioConfig::single(ChannelId(1), 100.0),
                    MobilityModel::Stationary,
                    LinkParams::ideal(8e6),
                    Box::new(Beacon { channel: ChannelId(1), heard: Arc::clone(&heard) }),
                )
                .unwrap();
            }
            let mut plan = FaultPlan::new();
            plan.push(EmuTime::ZERO, FaultKind::WireCorrupt { node: NodeId(1), prob: 0.4 });
            plan.push(EmuTime::ZERO, FaultKind::WireReorder { node: NodeId(2), prob: 0.4 });
            plan.push(
                EmuTime::from_secs(3),
                FaultKind::ClockJitter { node: NodeId(2), std_dev: EmuDuration::from_millis(2) },
            );
            net.install_faults(&plan);
            net.run_until(EmuTime::from_secs(10));
            let out = (net.recorder().traffic(), net.recorder().faults(), heard.lock().clone());
            out
        };
        assert_eq!(run(11), run(11));
        // And the chaos stream actually depends on the seed.
        assert_ne!(run(11).1, run(12).1);
    }

    #[test]
    fn channel_isolation_in_harness() {
        let mut net = SimNet::new(SimConfig::default());
        let heard = Arc::new(Mutex::new(Vec::new()));
        net.add_node(
            NodeId(1),
            Point::ORIGIN,
            RadioConfig::single(ChannelId(1), 100.0),
            MobilityModel::Stationary,
            LinkParams::ideal(8e6),
            Box::new(Beacon { channel: ChannelId(1), heard: Arc::new(Mutex::new(Vec::new())) }),
        )
        .unwrap();
        // Same spot, different channel: never hears anything.
        net.add_node(
            NodeId(2),
            Point::new(1.0, 0.0),
            RadioConfig::single(ChannelId(2), 100.0),
            MobilityModel::Stationary,
            LinkParams::ideal(8e6),
            Box::new(Beacon { channel: ChannelId(2), heard: Arc::clone(&heard) }),
        )
        .unwrap();
        net.run_until(EmuTime::from_secs(5));
        assert!(heard.lock().is_empty());
    }
}
