//! The per-packet decision kernel and the settle step after it (§3.2
//! steps 2–4).
//!
//! [`decide_packet`] is the one place a packet is routed, gated against
//! its sender's empirical profile, fallen back to the analytic link
//! model, and drawn for: one draw per target **in canonical (ascending
//! id) target order** from the packet's own
//! [`poem_core::rng::decide_rng`] stream. `Pipeline::ingest` calls it on
//! the authoritative scene; a shard worker calls it on its mirror. The
//! stream is a pure function of `(decide_base, packet id)` and the mirror
//! holds every node within radio range of the sender (the halo
//! invariant), so both get the same outcomes no matter which process
//! decides or in what order packets arrive.
//!
//! [`settle_packet`] is the one place those outcomes become the ingress
//! row, drop rows, counter increments and surviving [`Delivery`]s —
//! called by `Pipeline::ingest` and by [`crate::Coordinator::settle`], so
//! a clustered run logs and counts exactly what a local one does.

use poem_core::linkmodel::ForwardDecision;
use poem_core::packet::Destination;
use poem_core::rng::decide_rng;
use poem_core::scene::Scene;
use poem_core::{EmuPacket, EmuTime, NodeId};
use poem_obs::{Counter, Registry};
use poem_profiles::ProfileBook;
use poem_proto::{TargetDecision, WireDecision};
use poem_record::{DropReason, Recorder, TrafficRecord};
use std::sync::Arc;

/// One delivery produced by deciding a packet: forward a copy to `to`
/// when the emulation clock reaches `fire_at`.
#[derive(Debug, Clone, PartialEq)]
pub struct Delivery {
    /// Receiving VMN.
    pub to: NodeId,
    /// Forward time: `t_receipt + size/bandwidth + delay`, where
    /// `t_receipt` is the **client's** parallel timestamp (§3.2 step 3:
    /// "from the receipt time that is stamped by clients").
    pub fire_at: EmuTime,
    /// The packet (payload shared, not copied).
    pub packet: EmuPacket,
}

/// Decides one packet against `scene` (authoritative or mirror),
/// replacing `out` with the per-target outcomes in canonical order: an
/// unreachable unicast yields a single `NoRoute` entry, a neighborless
/// broadcast nothing. `base` is the start of the forward-time axis — the
/// CSMA-deferred transmission start locally, the client stamp on a
/// worker (which never runs a MAC). `targets` is a reused routing
/// buffer. Returns how many outcomes came from a profile snapshot.
pub fn decide_packet(
    scene: &Scene,
    mut book: Option<&mut ProfileBook>,
    decide_base: u64,
    base: EmuTime,
    pkt: &EmuPacket,
    targets: &mut Vec<NodeId>,
    out: &mut Vec<TargetDecision>,
) -> u64 {
    out.clear();
    scene.route_into(pkt.src, pkt.channel, pkt.dst, targets);
    if targets.is_empty() {
        out.extend(unrouted(pkt));
        return 0;
    }
    let mut rng = decide_rng(decide_base, pkt.id);
    // Without an installed library no binding can apply: skip the lookup.
    let sender_profile = if book.is_some() { scene.link_profile(pkt.src) } else { None };
    let mut profiled = 0;
    for &to in targets.iter() {
        // A bound profile (with a library installed and the id known)
        // replaces the analytic ramps — but only across a link the scene
        // has, so binding a profile never creates reachability.
        let from_profile = match (sender_profile, book.as_deref_mut()) {
            (Some(pid), Some(book)) => scene
                .link_gate(pkt.src, to, pkt.channel)
                .and_then(|_| book.snapshot(pid, pkt.src, to, base))
                .map(|snap| snap.decide(pkt.wire_size(), &mut rng)),
            _ => None,
        };
        profiled += u64::from(from_profile.is_some());
        let decision = from_profile
            .or_else(|| scene.decide(pkt.src, to, pkt.channel, pkt.wire_size(), &mut rng));
        let decision = match decision {
            Some(ForwardDecision::ForwardAfter(d)) => WireDecision::Forward { fire_at: base + d },
            Some(ForwardDecision::Drop) => WireDecision::Loss,
            None => WireDecision::NoRoute,
        };
        out.push(TargetDecision { to, decision });
    }
    profiled
}

/// What an empty route decides: a routing failure worth recording for a
/// unicast (the protocol under test believed it had a link), nothing for
/// a broadcast.
pub fn unrouted(pkt: &EmuPacket) -> Option<TargetDecision> {
    match pkt.dst {
        Destination::Unicast(to) => Some(TargetDecision { to, decision: WireDecision::NoRoute }),
        Destination::Broadcast => None,
    }
}

/// The counters [`settle_packet`] moves, looked up by name in a registry
/// (see DESIGN.md "Metrics"): the pipeline and a coordinator launched on
/// its registry share them.
#[derive(Debug, Clone)]
pub struct SettleCounters {
    packets: Arc<Counter>,
    deliveries: Arc<Counter>,
    loss: Arc<Counter>,
    noroute: Arc<Counter>,
    collision: Arc<Counter>,
}

impl SettleCounters {
    /// Registers (or finds) the settle counters in `registry`.
    pub fn new(registry: &Registry) -> Self {
        SettleCounters {
            packets: registry.counter("poem_ingest_packets_total"),
            deliveries: registry.counter("poem_ingest_deliveries_total"),
            loss: registry.counter("poem_drops_total{reason=\"loss\"}"),
            noroute: registry.counter("poem_drops_total{reason=\"noroute\"}"),
            collision: registry.counter("poem_drops_total{reason=\"collision\"}"),
        }
    }

    /// Copies destroyed by MAC collisions so far.
    pub fn collisions(&self) -> u64 {
        self.collision.get()
    }
}

/// Settles one decided packet: counts it, records its ingress (stamped
/// `received_at`) and then one drop row per lost or unroutable target in
/// `decisions` order, and appends each surviving copy to `out`. Drop rows
/// are stamped `base`, the same client-stamp axis the forward times sit
/// on (§3.2 step 3), not the server receipt time. `admit` is asked once
/// per forwarded copy; a refusal is a MAC collision at that receiver.
#[allow(clippy::too_many_arguments)]
pub fn settle_packet(
    pkt: &EmuPacket,
    received_at: EmuTime,
    base: EmuTime,
    decisions: &[TargetDecision],
    counters: &SettleCounters,
    recorder: &Recorder,
    mut admit: impl FnMut(NodeId) -> bool,
    out: &mut Vec<Delivery>,
) {
    counters.packets.inc();
    recorder.record_traffic(TrafficRecord::ingress(pkt, received_at));
    let before = out.len();
    for td in decisions {
        let (counter, reason) = match td.decision {
            WireDecision::Forward { fire_at } if admit(td.to) => {
                out.push(Delivery { to: td.to, fire_at, packet: pkt.clone() });
                continue;
            }
            WireDecision::Forward { .. } => (&counters.collision, DropReason::Collision),
            WireDecision::Loss => (&counters.loss, DropReason::Loss),
            WireDecision::NoRoute => (&counters.noroute, DropReason::NoRoute),
        };
        counter.inc();
        recorder.record_traffic(TrafficRecord::Drop { id: pkt.id, to: td.to, at: base, reason });
    }
    counters.deliveries.add((out.len() - before) as u64);
}

#[cfg(test)]
mod tests {
    use super::*;
    use poem_core::linkmodel::LinkParams;
    use poem_core::mobility::MobilityModel;
    use poem_core::radio::RadioConfig;
    use poem_core::scene::SceneOp;
    use poem_core::{ChannelId, EmuTime, PacketId, Point, RadioId};

    fn scene_pair(link: LinkParams) -> Scene {
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

    fn pkt(id: u64, dst: Destination) -> EmuPacket {
        EmuPacket::new(
            PacketId(id),
            NodeId(1),
            dst,
            ChannelId(1),
            RadioId(0),
            EmuTime::from_millis(50),
            vec![0u8; 100],
        )
    }

    /// The kernel's outcomes for `pkt`, based at its client stamp.
    fn decide(scene: &Scene, decide_base: u64, pkt: &EmuPacket) -> Vec<TargetDecision> {
        let mut out = Vec::new();
        decide_packet(scene, None, decide_base, pkt.sent_at, pkt, &mut Vec::new(), &mut out);
        out
    }

    #[test]
    fn ideal_link_forwards_and_unreachable_unicast_noroutes() {
        let scene = scene_pair(LinkParams::ideal(8e6));
        let out = decide(&scene, 7, &pkt(1, Destination::Broadcast));
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].to, NodeId(2));
        assert!(matches!(out[0].decision, WireDecision::Forward { .. }));

        let out = decide(&scene, 7, &pkt(2, Destination::Unicast(NodeId(9))));
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].to, NodeId(9));
        assert!(matches!(out[0].decision, WireDecision::NoRoute));
    }

    #[test]
    fn decisions_are_independent_of_processing_order() {
        let scene = scene_pair(LinkParams { p0: 0.5, p1: 0.5, ..LinkParams::ideal(8e6) });
        let a: Vec<_> =
            (0..64).map(|i| decide(&scene, 3, &pkt(i, Destination::Broadcast))).collect();
        let b: Vec<_> =
            (0..64).rev().map(|i| decide(&scene, 3, &pkt(i, Destination::Broadcast))).collect();
        let b: Vec<_> = b.into_iter().rev().collect();
        assert_eq!(a, b, "per-packet streams must not couple packets");
    }

    #[test]
    fn settle_maps_outcomes_to_rows_counters_and_copies() {
        let registry = Registry::new();
        let counters = SettleCounters::new(&registry);
        let recorder = Recorder::new();
        let p = pkt(4, Destination::Broadcast);
        let base = EmuTime::from_millis(60);
        let decisions = [2, 3, 5, 7].map(|id| TargetDecision {
            to: NodeId(id),
            decision: match id {
                2 | 7 => WireDecision::Forward { fire_at: EmuTime::from_millis(70) },
                3 => WireDecision::Loss,
                _ => WireDecision::NoRoute,
            },
        });
        let mut out = Vec::new();
        let received = EmuTime::from_millis(90);
        settle_packet(
            &p,
            received,
            base,
            &decisions,
            &counters,
            &recorder,
            |to| to != NodeId(7),
            &mut out,
        );
        assert_eq!(out.iter().map(|d| d.to).collect::<Vec<_>>(), vec![NodeId(2)]);
        let reasons: Vec<_> = recorder
            .traffic()
            .iter()
            .map(|r| match *r {
                TrafficRecord::Ingress { received_at, .. } => {
                    assert_eq!(received_at, received);
                    None
                }
                TrafficRecord::Drop { to, at, reason, .. } => {
                    assert_eq!(at, base, "drops sit on the decision base");
                    Some((to, reason))
                }
                ref other => panic!("{other:?}"),
            })
            .collect();
        assert_eq!(
            reasons,
            vec![
                None,
                Some((NodeId(3), DropReason::Loss)),
                Some((NodeId(5), DropReason::NoRoute)),
                Some((NodeId(7), DropReason::Collision)),
            ]
        );
        let snap = registry.snapshot();
        assert_eq!(snap.counter("poem_ingest_packets_total"), Some(1));
        assert_eq!(snap.counter("poem_ingest_deliveries_total"), Some(1));
        assert_eq!(snap.counter_family("poem_drops_total"), 3);
        assert_eq!(counters.collisions(), 1);
    }
}
