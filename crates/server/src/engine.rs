//! The transport-independent emulation pipeline (§3.2 steps 2–4, 7).
//!
//! Both server frontends — the real-time TCP server and the deterministic
//! in-process harness — drive the same [`Pipeline`]: it owns the scene,
//! makes the per-packet routing and drop/forward-time decisions (with the
//! kernel a cluster's workers share, `poem_cluster::decide`), and
//! records everything (traffic and scene) for statistics and replay. The
//! frontends differ only in where packets come from and how the resulting
//! deliveries are clocked out (wall-clock scanning thread vs. virtual-time
//! event loop).

use poem_cluster::decide::{decide_packet, settle_packet, SettleCounters};
use poem_core::energy::{EnergyBook, PowerProfile};
use poem_core::mac::{CollisionDomain, MacModel, Transmission};
use poem_core::scene::{Scene, SceneError, SceneOp};
use poem_core::{EmuDuration, EmuPacket, EmuRng, EmuTime, NodeId};
use poem_obs::{Counter, Histogram, Registry};
use poem_profiles::{ProfileBook, ProfileLibrary};
use poem_proto::TargetDecision;
use poem_record::{DropReason, Recorder, SceneRecord, TrafficRecord};
use std::sync::Arc;

pub use poem_cluster::decide::Delivery;

/// Ingest-latency samples are timed once every this many packets: two
/// monotonic clock reads cost tens of nanoseconds, a visible fraction of a
/// sub-microsecond ingest, so the histogram is populated by sampling while
/// the counters (one relaxed `fetch_add` each) count every packet.
const LATENCY_SAMPLE_EVERY: u32 = 64;

/// Bucket bounds (ns) for per-ingest latency: 250 ns … 1 ms.
const INGEST_LATENCY_BOUNDS: &[u64] =
    &[250, 500, 1_000, 2_000, 4_000, 8_000, 16_000, 64_000, 256_000, 1_000_000];

/// The pipeline's handles into its [`Registry`] (see DESIGN.md "Metrics").
#[derive(Debug)]
struct PipelineMetrics {
    settle: SettleCounters,
    drops_disconnected: Arc<Counter>,
    csma_deferrals: Arc<Counter>,
    profile_decides: Arc<Counter>,
    ingest_latency_ns: Arc<Histogram>,
}

impl PipelineMetrics {
    fn new(registry: &Registry) -> Self {
        PipelineMetrics {
            settle: SettleCounters::new(registry),
            drops_disconnected: registry.counter("poem_drops_total{reason=\"disconnected\"}"),
            csma_deferrals: registry.counter("poem_csma_deferrals_total"),
            profile_decides: registry.counter("poem_profile_decides_total"),
            ingest_latency_ns: registry.histogram("poem_ingest_latency_ns", INGEST_LATENCY_BOUNDS),
        }
    }
}

/// Optional model extensions applied by the pipeline (the §7 future-work
/// models; both default to off, matching the paper's baseline).
#[derive(Debug, Clone, Copy, Default)]
pub struct PipelineConfig {
    /// MAC discipline per channel.
    pub mac: MacModel,
    /// Power metering; `None` disables the energy ledger.
    pub power: Option<PowerProfile>,
}

/// The emulation engine shared by every server frontend.
#[derive(Debug)]
pub struct Pipeline {
    scene: Scene,
    recorder: Arc<Recorder>,
    /// Mobility stream: field sampling and waypoint draws. Forwarding
    /// decisions do NOT draw from here — see `decide_base`.
    rng: EmuRng,
    /// Base of the per-packet decision stream: every loss / bandwidth /
    /// delay draw for a packet comes from
    /// [`poem_core::rng::decide_rng`]`(decide_base, pkt.id)`, making the
    /// decisions a pure function of `(seed, packet id)` — the property
    /// that lets a distributed cluster run reproduce this pipeline byte
    /// for byte regardless of which worker decides which packet.
    decide_base: u64,
    mac: MacModel,
    collisions: CollisionDomain,
    energy: Option<EnergyBook>,
    registry: Arc<Registry>,
    metrics: PipelineMetrics,
    /// Empirical link profiles, when the scenario installed a library.
    profiles: Option<ProfileBook>,
    latency_sample_tick: u32,
    /// Reused routing and outcome buffers: steady-state ingest allocates
    /// nothing beyond the delivery vector it returns.
    route_scratch: Vec<NodeId>,
    decisions: Vec<TargetDecision>,
}

impl Pipeline {
    /// Builds a pipeline over an initial scene with the baseline models
    /// (no MAC, no energy metering).
    pub fn new(scene: Scene, recorder: Arc<Recorder>, rng: EmuRng) -> Self {
        Self::with_config(scene, recorder, rng, PipelineConfig::default())
    }

    /// Builds a pipeline with explicit model extensions.
    pub fn with_config(
        scene: Scene,
        recorder: Arc<Recorder>,
        mut rng: EmuRng,
        config: PipelineConfig,
    ) -> Self {
        // One draw splits the seed stream in two: the remainder drives
        // mobility, the drawn value bases the per-packet decision streams.
        let decide_base = rng.next_u64();
        let energy = config.power.map(|p| {
            let mut book = EnergyBook::new(p);
            for v in scene.nodes() {
                book.open(v.id, EmuTime::ZERO, None);
            }
            book
        });
        let registry = Arc::new(Registry::new());
        let metrics = PipelineMetrics::new(&registry);
        recorder.register_metrics(&registry);
        Pipeline {
            scene,
            recorder,
            rng,
            decide_base,
            mac: config.mac,
            collisions: CollisionDomain::new(),
            energy,
            registry,
            metrics,
            profiles: None,
            latency_sample_tick: 0,
            route_scratch: Vec::new(),
            decisions: Vec::new(),
        }
    }

    /// The pipeline's metric registry. Frontends share it: the TCP server
    /// registers its scheduling/session instruments here so one snapshot
    /// covers the whole emulation ([`crate::ServerHandle::metrics`]).
    pub fn metrics_registry(&self) -> &Arc<Registry> {
        &self.registry
    }

    /// A point-in-time snapshot of every pipeline metric.
    pub fn metrics(&self) -> poem_obs::MetricsSnapshot {
        self.registry.snapshot()
    }

    /// Copies destroyed by MAC collisions so far.
    pub fn collision_drops(&self) -> u64 {
        self.metrics.settle.collisions()
    }

    /// Transmissions deferred by CSMA carrier sensing so far.
    pub fn csma_deferrals(&self) -> u64 {
        self.metrics.csma_deferrals.get()
    }

    /// The energy ledger, when power metering is on.
    pub fn energy(&self) -> Option<&EnergyBook> {
        self.energy.as_ref()
    }

    /// Mutable access to the energy ledger (battery assignment etc.).
    pub fn energy_mut(&mut self) -> Option<&mut EnergyBook> {
        self.energy.as_mut()
    }

    /// Read access to the scene.
    pub fn scene(&self) -> &Scene {
        &self.scene
    }

    /// Base of the per-packet decision RNG stream. A cluster coordinator
    /// hands this to its shard workers so their decisions reproduce this
    /// pipeline's exactly.
    pub fn decide_base(&self) -> u64 {
        self.decide_base
    }

    /// The configured MAC discipline.
    pub fn mac(&self) -> MacModel {
        self.mac
    }

    /// Records the current scene's nodes as `AddNode` ops at `at`, so a
    /// replay of the scene log reconstructs runs whose initial scene was
    /// built *before* the pipeline existed (the TCP server is handed a
    /// ready-made scene).
    pub fn record_initial_scene(&self, at: EmuTime) {
        for v in self.scene.nodes() {
            self.recorder.record_scene(SceneRecord::new(
                at,
                SceneOp::AddNode {
                    id: v.id,
                    pos: v.pos,
                    radios: v.radios.clone(),
                    mobility: v.mobility,
                    link: v.link,
                },
            ));
        }
    }

    /// The shared recorder.
    pub fn recorder(&self) -> &Arc<Recorder> {
        &self.recorder
    }

    /// Installs an empirical profile library. `seed` must be the scenario
    /// seed; regime chains draw from `seed ^ PROFILE_STREAM` (mixed per
    /// link), so profile randomness never perturbs the packet RNG stream
    /// and replay under a fixed seed stays byte-identical.
    pub fn install_profiles(&mut self, library: ProfileLibrary, seed: u64) {
        self.profiles = Some(ProfileBook::new(library, seed));
    }

    /// The installed profile book, if any.
    pub fn profile_book(&self) -> Option<&ProfileBook> {
        self.profiles.as_ref()
    }

    /// Applies a scene operation at `at`, recording it on success — the
    /// server-side effect of every GUI/script action.
    pub fn apply_op(&mut self, at: EmuTime, op: SceneOp) -> Result<(), SceneError> {
        self.scene.apply(at, &op)?;
        if let Some(book) = self.energy.as_mut() {
            match &op {
                SceneOp::AddNode { id, .. } => book.open(*id, at, None),
                SceneOp::RemoveNode { id } => book.close(*id),
                _ => {}
            }
        }
        self.recorder.record_scene(SceneRecord::new(at, op));
        Ok(())
    }

    /// Integrates mobility up to `to` and records the resulting positions
    /// of mobile nodes as `MoveNode` ops, so replay is exact without
    /// re-randomization.
    pub fn advance_mobility(&mut self, to: EmuTime) {
        if to <= self.scene.mobility_horizon() {
            return;
        }
        self.scene.advance_mobility(to, &mut self.rng);
        let moved: Vec<(NodeId, poem_core::Point)> =
            self.scene.nodes().filter(|v| v.mobility.is_mobile()).map(|v| (v.id, v.pos)).collect();
        for (id, pos) in moved {
            self.recorder.record_scene(SceneRecord::new(to, SceneOp::MoveNode { id, pos }));
        }
    }

    /// Steps 2–3 for one received packet: decides it with the shared
    /// kernel ([`decide_packet`]) and settles the outcomes
    /// ([`settle_packet`]: ingress and drop rows, counters, the surviving
    /// deliveries for the frontend to schedule, step 4). The MAC and
    /// energy layers wrap the kernel: the transmission's (CSMA-deferred)
    /// start is the decision base, and a forwarded copy that collides at
    /// its receiver is dropped instead.
    ///
    /// `received_at` is the server's receipt time (recorded so the
    /// difference to the client stamp — the serialization error a purely
    /// centralized recorder would suffer — is itself measurable).
    pub fn ingest(&mut self, pkt: &EmuPacket, received_at: EmuTime) -> Vec<Delivery> {
        self.latency_sample_tick = self.latency_sample_tick.wrapping_add(1);
        // The sampled wall-clock duration feeds a latency histogram and
        // never influences a pipeline decision, so replay is unaffected.
        // poem-lint: allow(determinism_taint): observability-only latency sample
        let timer = self
            .latency_sample_tick
            .is_multiple_of(LATENCY_SAMPLE_EVERY)
            .then(std::time::Instant::now);
        // Sender-side MAC/energy bookkeeping: the transmission occupies
        // the medium around the sender for its airtime. With neither layer
        // on, nothing reads it and no medium state exists to prune.
        let layered = self.mac != MacModel::None || self.energy.is_some();
        let tx = if layered { self.sender_transmission(pkt) } else { None };
        let airtime = tx.map(|t| t.end - t.start);
        if let (Some(book), Some(airtime)) = (self.energy.as_mut(), airtime) {
            book.meter_tx(pkt.src, airtime);
        }
        let base = tx.map_or(pkt.sent_at, |t| t.start);
        let profiled = decide_packet(
            &self.scene,
            self.profiles.as_mut(),
            self.decide_base,
            base,
            pkt,
            &mut self.route_scratch,
            &mut self.decisions,
        );
        // Skipping the add when no profile decided keeps an atomic
        // read-modify-write off the common, profile-free path.
        if profiled > 0 {
            self.metrics.profile_decides.add(profiled);
        }
        let mac_tx = tx.filter(|_| self.mac != MacModel::None);
        // A copy survives the MAC unless its reception collides at the
        // receiver; a surviving one is metered there.
        let admit = |to| {
            let collides = mac_tx.is_some_and(|tx| {
                self.scene
                    .node(to)
                    .is_some_and(|v| self.collisions.collides(pkt.channel, v.pos, &tx))
            });
            if let (false, Some(book), Some(airtime)) = (collides, self.energy.as_mut(), airtime) {
                book.meter_rx(to, airtime);
            }
            !collides
        };
        // Sized by the route, as copies can only go to routed targets: an
        // empty route allocates nothing.
        let mut out = Vec::with_capacity(self.route_scratch.len());
        settle_packet(
            pkt,
            received_at,
            base,
            &self.decisions,
            &self.metrics.settle,
            &self.recorder,
            admit,
            &mut out,
        );
        // The transmission happened whatever its copies' fates, and can
        // interfere with later ones.
        if let Some(tx) = mac_tx {
            self.collisions.register(pkt.channel, tx);
        }
        if let Some(t0) = timer {
            self.metrics.ingest_latency_ns.observe(t0.elapsed().as_nanos() as u64);
        }
        out
    }

    /// Builds the sender-side [`Transmission`] for a packet: position,
    /// range and airtime, with the start deferred under CSMA.
    fn sender_transmission(&mut self, pkt: &EmuPacket) -> Option<Transmission> {
        let sender = self.scene.node(pkt.src)?;
        let range = sender.radios.range_on(pkt.channel)?;
        let link = sender.link.with_range(range);
        let airtime = link.bandwidth.transmission_time(pkt.wire_size(), 0.0);
        let pos = sender.pos;
        let start = match self.mac {
            MacModel::Csma => {
                self.collisions.prune(pkt.sent_at);
                let deferred = self.collisions.medium_free_at(pkt.channel, pos, pkt.sent_at);
                if deferred > pkt.sent_at {
                    self.metrics.csma_deferrals.inc();
                }
                deferred
            }
            _ => {
                self.collisions.prune(pkt.sent_at);
                pkt.sent_at
            }
        };
        Some(Transmission {
            sender: pkt.src,
            pos,
            range,
            start,
            end: start + airtime.max(EmuDuration::from_nanos(1)),
        })
    }

    /// Step 6 bookkeeping: the row saying a delivery fired at `at`. The
    /// frontend appends it to the recorder — at once, or in its place in a
    /// staged sequence.
    pub fn forward_row(delivery: &Delivery, at: EmuTime) -> TrafficRecord {
        TrafficRecord::Forward { id: delivery.packet.id, to: delivery.to, at }
    }

    /// Counts a delivery that could not be handed to its client (gone
    /// between scheduling and firing) and returns the row saying so.
    pub fn undeliverable_row(&self, delivery: &Delivery, at: EmuTime) -> TrafficRecord {
        self.metrics.drops_disconnected.inc();
        TrafficRecord::Drop {
            id: delivery.packet.id,
            to: delivery.to,
            at,
            reason: DropReason::Disconnected,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use poem_core::linkmodel::LinkParams;
    use poem_core::mobility::MobilityModel;
    use poem_core::packet::{Destination, HEADER_BYTES};
    use poem_core::radio::RadioConfig;
    use poem_core::{ChannelId, EmuDuration, PacketId, Point, RadioId};

    fn scene_two_nodes(link: LinkParams) -> Scene {
        let mut s = Scene::new();
        for (id, x) in [(1u32, 0.0), (2u32, 60.0)] {
            s.apply(
                EmuTime::ZERO,
                &SceneOp::AddNode {
                    id: NodeId(id),
                    pos: Point::new(x, 0.0),
                    radios: RadioConfig::single(ChannelId(1), 100.0),
                    mobility: MobilityModel::Stationary,
                    link,
                },
            )
            .unwrap();
        }
        s
    }

    fn pkt(id: u64, dst: Destination, sent_at: EmuTime) -> EmuPacket {
        EmuPacket::new(
            PacketId(id),
            NodeId(1),
            dst,
            ChannelId(1),
            RadioId(0),
            sent_at,
            vec![0u8; 1000 - HEADER_BYTES],
        )
    }

    #[test]
    fn ingest_schedules_forward_at_client_stamp_plus_model_delay() {
        let mut p = Pipeline::new(
            scene_two_nodes(LinkParams::ideal(8e6)),
            Arc::new(Recorder::new()),
            EmuRng::seed(1),
        );
        let sent = EmuTime::from_millis(100);
        let out = p.ingest(&pkt(1, Destination::Broadcast, sent), EmuTime::from_millis(103));
        assert_eq!(out.len(), 1);
        // 1000 B at 8 Mbps = 1 ms after the CLIENT stamp, not the server
        // receipt.
        assert_eq!(out[0].fire_at, sent + EmuDuration::from_millis(1));
        assert_eq!(out[0].to, NodeId(2));
    }

    #[test]
    fn ingest_records_ingress_and_forward() {
        let rec = Arc::new(Recorder::new());
        let mut p = Pipeline::new(
            scene_two_nodes(LinkParams::ideal(8e6)),
            Arc::clone(&rec),
            EmuRng::seed(1),
        );
        let out = p.ingest(&pkt(7, Destination::Broadcast, EmuTime::ZERO), EmuTime::ZERO);
        rec.record_traffic(Pipeline::forward_row(&out[0], out[0].fire_at));
        let traffic = rec.traffic();
        assert_eq!(traffic.len(), 2);
        assert!(matches!(traffic[0], TrafficRecord::Ingress { id: PacketId(7), .. }));
        assert!(matches!(
            traffic[1],
            TrafficRecord::Forward { id: PacketId(7), to: NodeId(2), .. }
        ));
    }

    #[test]
    fn unicast_to_unreachable_records_noroute() {
        let rec = Arc::new(Recorder::new());
        let mut p = Pipeline::new(
            scene_two_nodes(LinkParams::ideal(8e6)),
            Arc::clone(&rec),
            EmuRng::seed(1),
        );
        let out = p.ingest(&pkt(1, Destination::Unicast(NodeId(9)), EmuTime::ZERO), EmuTime::ZERO);
        assert!(out.is_empty());
        let traffic = rec.traffic();
        assert!(matches!(
            traffic[1],
            TrafficRecord::Drop { reason: DropReason::NoRoute, to: NodeId(9), .. }
        ));
    }

    #[test]
    fn lossy_link_records_loss_drops() {
        let rec = Arc::new(Recorder::new());
        // Constant 100 % loss.
        let link = LinkParams { p0: 1.0, p1: 1.0, d0: 0.0, ..LinkParams::ideal(8e6) };
        let mut p = Pipeline::new(scene_two_nodes(link), Arc::clone(&rec), EmuRng::seed(1));
        let out = p.ingest(&pkt(1, Destination::Broadcast, EmuTime::ZERO), EmuTime::ZERO);
        assert!(out.is_empty());
        assert!(matches!(rec.traffic()[1], TrafficRecord::Drop { reason: DropReason::Loss, .. }));
    }

    fn lib_one_trace(name: &str, loss: f64, bps: f64, delay_s: f64) -> ProfileLibrary {
        ProfileLibrary::parse(&format!(
            "profile {name} trace\nat 0 loss {loss} bps {bps} delay {delay_s}\nend\n"
        ))
        .unwrap()
    }

    #[test]
    fn profile_snapshot_overrides_the_analytic_models() {
        // Analytic params say 100 % loss; the bound profile says 0 % at
        // 8 Mbps + 2 ms. The profile must win for the bound sender.
        let link = LinkParams { p0: 1.0, p1: 1.0, d0: 0.0, ..LinkParams::ideal(1e6) };
        let mut scene = scene_two_nodes(link);
        scene
            .apply(
                EmuTime::ZERO,
                &SceneOp::SetLinkProfile { id: NodeId(1), profile: Some(poem_core::ProfileId(0)) },
            )
            .unwrap();
        let mut p = Pipeline::new(scene, Arc::new(Recorder::new()), EmuRng::seed(1));
        p.install_profiles(lib_one_trace("clean", 0.0, 8e6, 0.002), 1);
        let sent = EmuTime::from_millis(100);
        let out = p.ingest(&pkt(1, Destination::Broadcast, sent), sent);
        assert_eq!(out.len(), 1);
        // 1000 B at 8 Mbps = 1 ms serialization + 2 ms profile delay.
        assert_eq!(out[0].fire_at, sent + EmuDuration::from_millis(3));
        assert_eq!(p.metrics_registry().snapshot().counter("poem_profile_decides_total"), Some(1));
    }

    #[test]
    fn profile_outage_drops_what_analytic_models_would_forward() {
        let mut scene = scene_two_nodes(LinkParams::ideal(8e6));
        scene
            .apply(
                EmuTime::ZERO,
                &SceneOp::SetLinkProfile { id: NodeId(1), profile: Some(poem_core::ProfileId(0)) },
            )
            .unwrap();
        let rec = Arc::new(Recorder::new());
        let mut p = Pipeline::new(scene, Arc::clone(&rec), EmuRng::seed(1));
        p.install_profiles(lib_one_trace("outage", 1.0, 8e6, 0.0), 1);
        let out = p.ingest(&pkt(1, Destination::Broadcast, EmuTime::ZERO), EmuTime::ZERO);
        assert!(out.is_empty());
        assert!(matches!(rec.traffic()[1], TrafficRecord::Drop { reason: DropReason::Loss, .. }));
    }

    #[test]
    fn unbound_or_unknown_profile_falls_back_to_analytic_models() {
        // A library is installed but the sender is not bound: analytic
        // ideal link forwards at its own 1 ms serialization time.
        let mut p = Pipeline::new(
            scene_two_nodes(LinkParams::ideal(8e6)),
            Arc::new(Recorder::new()),
            EmuRng::seed(1),
        );
        p.install_profiles(lib_one_trace("outage", 1.0, 8e6, 0.0), 1);
        let out = p.ingest(&pkt(1, Destination::Broadcast, EmuTime::ZERO), EmuTime::ZERO);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].fire_at, EmuTime::from_millis(1));

        // Bound to an id the library does not have: same fallback.
        let mut scene = scene_two_nodes(LinkParams::ideal(8e6));
        scene
            .apply(
                EmuTime::ZERO,
                &SceneOp::SetLinkProfile { id: NodeId(1), profile: Some(poem_core::ProfileId(9)) },
            )
            .unwrap();
        let mut p = Pipeline::new(scene, Arc::new(Recorder::new()), EmuRng::seed(1));
        p.install_profiles(lib_one_trace("outage", 1.0, 8e6, 0.0), 1);
        let out = p.ingest(&pkt(1, Destination::Broadcast, EmuTime::ZERO), EmuTime::ZERO);
        assert_eq!(out.len(), 1, "unknown profile id must fall back, not drop");
        assert_eq!(p.metrics_registry().snapshot().counter("poem_profile_decides_total"), Some(0));
    }

    #[test]
    fn profile_decides_preserve_reachability_gating() {
        // The bound profile says the link is perfect, but the peer is out
        // of radio range: the gate (reachability) still rules, exactly as
        // for the analytic models, so binding a profile can never create
        // links the scene does not have.
        let mut scene = scene_two_nodes(LinkParams::ideal(8e6));
        scene
            .apply(EmuTime::ZERO, &SceneOp::MoveNode { id: NodeId(2), pos: Point::new(500.0, 0.0) })
            .unwrap();
        scene
            .apply(
                EmuTime::ZERO,
                &SceneOp::SetLinkProfile { id: NodeId(1), profile: Some(poem_core::ProfileId(0)) },
            )
            .unwrap();
        let mut p = Pipeline::new(scene, Arc::new(Recorder::new()), EmuRng::seed(1));
        p.install_profiles(lib_one_trace("clean", 0.0, 8e6, 0.0), 1);
        let out = p.ingest(&pkt(1, Destination::Broadcast, EmuTime::ZERO), EmuTime::ZERO);
        assert!(out.is_empty());
    }

    #[test]
    fn drop_records_are_stamped_from_the_client_base_not_server_receipt() {
        // Regression: drops used to be stamped with the server's receipt
        // time while forwards used the client stamp, putting the two legs
        // of a packet's fate on different time axes.
        let rec = Arc::new(Recorder::new());
        let link = LinkParams { p0: 1.0, p1: 1.0, d0: 0.0, ..LinkParams::ideal(8e6) };
        let mut p = Pipeline::new(scene_two_nodes(link), Arc::clone(&rec), EmuRng::seed(1));
        let sent = EmuTime::from_millis(100);
        let received = EmuTime::from_millis(137); // skewed transport
        let out = p.ingest(&pkt(1, Destination::Broadcast, sent), received);
        assert!(out.is_empty());
        match rec.traffic()[1] {
            TrafficRecord::Drop { at, reason: DropReason::Loss, .. } => {
                assert_eq!(at, sent, "loss drop must carry the client-stamp base");
            }
            ref other => panic!("{other:?}"),
        }
        // Same for a unicast routing failure.
        let out = p.ingest(&pkt(2, Destination::Unicast(NodeId(9)), sent), received);
        assert!(out.is_empty());
        match rec.traffic()[3] {
            TrafficRecord::Drop { at, reason: DropReason::NoRoute, .. } => {
                assert_eq!(at, sent, "noroute drop must carry the client-stamp base");
            }
            ref other => panic!("{other:?}"),
        }
    }

    #[test]
    fn pipeline_metrics_cover_ingest_and_drops() {
        let rec = Arc::new(Recorder::new());
        let mut p = Pipeline::new(
            scene_two_nodes(LinkParams::ideal(8e6)),
            Arc::clone(&rec),
            EmuRng::seed(1),
        );
        let out = p.ingest(&pkt(1, Destination::Broadcast, EmuTime::ZERO), EmuTime::ZERO);
        p.ingest(&pkt(2, Destination::Unicast(NodeId(9)), EmuTime::ZERO), EmuTime::ZERO);
        rec.record_traffic(p.undeliverable_row(&out[0], EmuTime::from_millis(5)));
        let snap = p.metrics();
        assert_eq!(snap.counter("poem_ingest_packets_total"), Some(2));
        assert_eq!(snap.counter("poem_ingest_deliveries_total"), Some(1));
        assert_eq!(snap.counter("poem_drops_total{reason=\"noroute\"}"), Some(1));
        assert_eq!(snap.counter("poem_drops_total{reason=\"disconnected\"}"), Some(1));
        // The shared recorder's own instruments ride in the same registry.
        assert_eq!(
            snap.counter("poem_recorder_traffic_records_total"),
            Some(rec.counts().0 as u64)
        );
        // The text exposition renders the same numbers.
        assert!(snap.to_text().contains("poem_ingest_packets_total 2"));
    }

    #[test]
    fn ingest_latency_histogram_fills_under_sampling() {
        let mut p = Pipeline::new(
            scene_two_nodes(LinkParams::ideal(8e6)),
            Arc::new(Recorder::new()),
            EmuRng::seed(1),
        );
        for i in 0..(LATENCY_SAMPLE_EVERY as u64 * 3) {
            p.ingest(&pkt(i, Destination::Broadcast, EmuTime::ZERO), EmuTime::ZERO);
        }
        let snap = p.metrics();
        let h = snap.histogram("poem_ingest_latency_ns").expect("registered");
        assert_eq!(h.count, 3, "one sample per {LATENCY_SAMPLE_EVERY} packets");
    }

    #[test]
    fn apply_op_records_scene() {
        let rec = Arc::new(Recorder::new());
        let mut p = Pipeline::new(Scene::new(), Arc::clone(&rec), EmuRng::seed(1));
        p.apply_op(
            EmuTime::from_secs(1),
            SceneOp::AddNode {
                id: NodeId(1),
                pos: Point::ORIGIN,
                radios: RadioConfig::single(ChannelId(1), 50.0),
                mobility: MobilityModel::Stationary,
                link: LinkParams::default(),
            },
        )
        .unwrap();
        assert_eq!(rec.scene().len(), 1);
        // A rejected op is not recorded.
        assert!(p.apply_op(EmuTime::from_secs(2), SceneOp::RemoveNode { id: NodeId(9) }).is_err());
        assert_eq!(rec.scene().len(), 1);
    }

    #[test]
    fn mobility_advance_records_positions_for_replay() {
        let rec = Arc::new(Recorder::new());
        let mut p = Pipeline::new(Scene::new(), Arc::clone(&rec), EmuRng::seed(1));
        p.apply_op(
            EmuTime::ZERO,
            SceneOp::AddNode {
                id: NodeId(1),
                pos: Point::ORIGIN,
                radios: RadioConfig::single(ChannelId(1), 100.0),
                mobility: MobilityModel::Linear { direction_deg: 0.0, speed: 10.0 },
                link: LinkParams::default(),
            },
        )
        .unwrap();
        p.advance_mobility(EmuTime::from_secs(1));
        p.advance_mobility(EmuTime::from_secs(2));
        let ops = rec.scene();
        assert_eq!(ops.len(), 3); // AddNode + 2 MoveNode
        match &ops[2].op {
            SceneOp::MoveNode { id, pos } => {
                assert_eq!(*id, NodeId(1));
                assert!((pos.x - 20.0).abs() < 1e-9);
            }
            other => panic!("{other:?}"),
        }
        // Replaying the log reproduces the final position exactly.
        let engine = poem_record::ReplayEngine::new(ops);
        let replayed = engine.scene_at(EmuTime::from_secs(2)).unwrap();
        assert!((replayed.node(NodeId(1)).unwrap().pos.x - 20.0).abs() < 1e-9);
    }

    #[test]
    fn undeliverable_records_disconnected() {
        let rec = Arc::new(Recorder::new());
        let mut p = Pipeline::new(
            scene_two_nodes(LinkParams::ideal(8e6)),
            Arc::clone(&rec),
            EmuRng::seed(1),
        );
        let out = p.ingest(&pkt(1, Destination::Broadcast, EmuTime::ZERO), EmuTime::ZERO);
        rec.record_traffic(p.undeliverable_row(&out[0], EmuTime::from_millis(5)));
        assert!(matches!(
            rec.traffic()[1],
            TrafficRecord::Drop { reason: DropReason::Disconnected, .. }
        ));
    }

    #[test]
    fn broadcast_fans_out_to_all_neighbors() {
        let mut scene = scene_two_nodes(LinkParams::ideal(8e6));
        scene
            .apply(
                EmuTime::ZERO,
                &SceneOp::AddNode {
                    id: NodeId(3),
                    pos: Point::new(0.0, 50.0),
                    radios: RadioConfig::single(ChannelId(1), 100.0),
                    mobility: MobilityModel::Stationary,
                    link: LinkParams::ideal(8e6),
                },
            )
            .unwrap();
        let mut p = Pipeline::new(scene, Arc::new(Recorder::new()), EmuRng::seed(1));
        let out = p.ingest(&pkt(1, Destination::Broadcast, EmuTime::ZERO), EmuTime::ZERO);
        let mut tos: Vec<NodeId> = out.iter().map(|d| d.to).collect();
        tos.sort_unstable();
        assert_eq!(tos, vec![NodeId(2), NodeId(3)]);
        // Payload buffers are shared across the fan-out.
        assert_eq!(out[0].packet.payload.as_ptr(), out[1].packet.payload.as_ptr());
    }
}

#[cfg(test)]
mod model_ext_tests {
    use super::*;
    use poem_core::linkmodel::LinkParams;
    use poem_core::mobility::MobilityModel;
    use poem_core::packet::{Destination, HEADER_BYTES};
    use poem_core::radio::RadioConfig;
    use poem_core::{ChannelId, PacketId, Point, RadioId};

    /// Dense single-channel scene: everyone hears everyone.
    fn dense_scene(n: u32) -> Scene {
        let mut s = Scene::new();
        for i in 1..=n {
            s.apply(
                EmuTime::ZERO,
                &SceneOp::AddNode {
                    id: NodeId(i),
                    pos: Point::new(i as f64 * 10.0, 0.0),
                    radios: RadioConfig::single(ChannelId(1), 500.0),
                    mobility: MobilityModel::Stationary,
                    link: LinkParams::ideal(8e6),
                },
            )
            .unwrap();
        }
        s
    }

    fn pipeline(mac: MacModel, power: Option<PowerProfile>, n: u32) -> Pipeline {
        Pipeline::with_config(
            dense_scene(n),
            Arc::new(Recorder::new()),
            EmuRng::seed(1),
            PipelineConfig { mac, power },
        )
    }

    fn pkt(id: u64, src: u32, sent_at: EmuTime) -> EmuPacket {
        EmuPacket::new(
            PacketId(id),
            NodeId(src),
            Destination::Broadcast,
            ChannelId(1),
            RadioId(0),
            sent_at,
            vec![0u8; 1000 - HEADER_BYTES],
        )
    }

    #[test]
    fn aloha_collides_simultaneous_transmissions() {
        let mut p = pipeline(MacModel::Aloha, None, 3);
        let t = EmuTime::from_millis(10);
        // First transmission registers cleanly and is delivered.
        let out1 = p.ingest(&pkt(1, 1, t), t);
        assert_eq!(out1.len(), 2);
        // Simultaneous second transmission: receptions collide (the first
        // is audible everywhere in this dense scene).
        let out2 = p.ingest(&pkt(2, 2, t), t);
        assert!(out2.is_empty(), "{out2:?}");
        assert_eq!(p.collision_drops(), 2);
        let drops = p
            .recorder()
            .traffic()
            .iter()
            .filter(|r| matches!(r, TrafficRecord::Drop { reason: DropReason::Collision, .. }))
            .count();
        assert_eq!(drops, 2);
    }

    #[test]
    fn aloha_spaced_transmissions_do_not_collide() {
        let mut p = pipeline(MacModel::Aloha, None, 3);
        // 1000 B at 8 Mbps = 1 ms airtime; space sends 2 ms apart.
        let out1 = p.ingest(&pkt(1, 1, EmuTime::from_millis(10)), EmuTime::from_millis(10));
        let out2 = p.ingest(&pkt(2, 2, EmuTime::from_millis(12)), EmuTime::from_millis(12));
        assert_eq!(out1.len(), 2);
        assert_eq!(out2.len(), 2);
        assert_eq!(p.collision_drops(), 0);
    }

    #[test]
    fn csma_defers_instead_of_colliding() {
        let mut p = pipeline(MacModel::Csma, None, 3);
        let t = EmuTime::from_millis(10);
        let out1 = p.ingest(&pkt(1, 1, t), t);
        let out2 = p.ingest(&pkt(2, 2, t), t);
        // CSMA: the second sender hears the first and defers by one
        // airtime (1 ms) instead of colliding.
        assert_eq!(out1.len(), 2);
        assert_eq!(out2.len(), 2);
        assert_eq!(p.collision_drops(), 0);
        assert_eq!(p.csma_deferrals(), 1);
        let fire1 = out1[0].fire_at;
        let fire2 = out2[0].fire_at;
        assert_eq!(fire2 - fire1, EmuDuration::from_millis(1), "{fire1} vs {fire2}");
    }

    #[test]
    fn csma_hidden_terminal_still_collides() {
        // Senders A (x=0) and C (x=300) cannot hear each other (range
        // 180) but both reach B (x=150): the hidden-terminal case.
        let mut s = Scene::new();
        for (id, x) in [(1u32, 0.0), (2u32, 150.0), (3u32, 300.0)] {
            s.apply(
                EmuTime::ZERO,
                &SceneOp::AddNode {
                    id: NodeId(id),
                    pos: Point::new(x, 0.0),
                    radios: RadioConfig::single(ChannelId(1), 180.0),
                    mobility: MobilityModel::Stationary,
                    link: LinkParams::ideal(8e6),
                },
            )
            .unwrap();
        }
        let mut p = Pipeline::with_config(
            s,
            Arc::new(Recorder::new()),
            EmuRng::seed(1),
            PipelineConfig { mac: MacModel::Csma, power: None },
        );
        let t = EmuTime::from_millis(5);
        let out1 = p.ingest(&pkt(1, 1, t), t);
        assert_eq!(out1.len(), 1, "A reaches only B");
        let out3 = p.ingest(&pkt(2, 3, t), t);
        // C did not defer (A inaudible at C) and its reception at B
        // collides with A's ongoing transmission.
        assert_eq!(p.csma_deferrals(), 0);
        assert!(out3.is_empty());
        assert_eq!(p.collision_drops(), 1);
    }

    #[test]
    fn no_mac_never_collides() {
        let mut p = pipeline(MacModel::None, None, 5);
        let t = EmuTime::from_millis(1);
        for i in 0..10u64 {
            let src = (i % 5 + 1) as u32;
            p.ingest(&pkt(i, src, t), t);
        }
        assert_eq!(p.collision_drops(), 0);
    }

    #[test]
    fn energy_meters_tx_and_rx_airtime() {
        let profile = PowerProfile { tx_w: 2.0, rx_w: 1.5, idle_w: 1.0 };
        let mut p = pipeline(MacModel::None, Some(profile), 3);
        let t = EmuTime::from_millis(10);
        // One broadcast from node 1: 1 ms tx at node 1, 1 ms rx at 2 and 3.
        let out = p.ingest(&pkt(1, 1, t), t);
        assert_eq!(out.len(), 2);
        let book = p.energy().unwrap();
        let a1 = book.account(NodeId(1)).unwrap();
        assert_eq!(a1.tx_time, EmuDuration::from_millis(1));
        assert_eq!(a1.tx_packets, 1);
        let a2 = book.account(NodeId(2)).unwrap();
        assert_eq!(a2.rx_time, EmuDuration::from_millis(1));
        assert_eq!(a2.rx_packets, 1);
        // Energy at t = 1 s: node 1 idles 1 s (1 J) + 1 ms × (2−1) W.
        let consumed = a1.consumed_j(profile, EmuTime::from_secs(1));
        assert!((consumed - 1.001).abs() < 1e-9, "{consumed}");
    }

    #[test]
    fn energy_accounts_follow_scene_ops() {
        let mut p = pipeline(MacModel::None, Some(PowerProfile::wifi_11b()), 2);
        p.apply_op(
            EmuTime::from_secs(5),
            SceneOp::AddNode {
                id: NodeId(9),
                pos: Point::new(500.0, 500.0),
                radios: RadioConfig::single(ChannelId(1), 10.0),
                mobility: MobilityModel::Stationary,
                link: LinkParams::default(),
            },
        )
        .unwrap();
        assert!(p.energy().unwrap().account(NodeId(9)).is_some());
        p.apply_op(EmuTime::from_secs(6), SceneOp::RemoveNode { id: NodeId(9) }).unwrap();
        assert!(p.energy().unwrap().account(NodeId(9)).is_none());
    }

    #[test]
    fn battery_depletion_is_reportable() {
        let profile = PowerProfile { tx_w: 2.0, rx_w: 1.5, idle_w: 1.0 };
        let mut p = pipeline(MacModel::None, Some(profile), 2);
        p.energy_mut().unwrap().set_battery(NodeId(1), Some(3.0));
        assert!(p.energy().unwrap().depleted(EmuTime::from_secs(2)).is_empty());
        assert_eq!(p.energy().unwrap().depleted(EmuTime::from_secs(4)), vec![NodeId(1)]);
    }
}
