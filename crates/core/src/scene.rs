//! The emulated network scene (§3.2).
//!
//! The emulation server "creates the desired network scene by controlling
//! the topology and configuring the wireless circumstance parameters". A
//! [`Scene`] holds every Virtual MANET Node ([`Vmn`]) with its position,
//! radios, mobility and link parameters, and keeps the channel-ID indexed
//! neighbor tables up to date incrementally as [`SceneOp`]s are applied.
//!
//! The op vocabulary is exactly what the paper's GUI exposes: "dragging and
//! dropping VMNs anywhere, double-clicking the VMN to activate
//! configuration dialogue-boxes anytime" — move node, shrink radio range,
//! switch channels, change link parameters, add/remove nodes
//! ("moving out some nodes ... to emulate a military attack", §2.2).
//!
//! [`Scene::route`] and [`Scene::decide`] implement the per-packet steps 2
//! and 3 of the server pipeline: neighbor lookup in the channel-indexed
//! table, then the drop/forward-time decision under the sender's link
//! model.

use crate::geom::Point;
use crate::ids::{ChannelId, NodeId, ProfileId, RadioId};
use crate::linkmodel::{ForwardDecision, LinkParams};
use crate::mobility::{Arena, MobilityModel, MobilityState};
use crate::neighbor::{ChannelIndexedTables, NeighborTables};
use crate::packet::{Destination, EmuPacket};
use crate::radio::RadioConfig;
use crate::rng::EmuRng;
use crate::time::EmuTime;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::fmt;

/// A Virtual MANET Node: the server-side image of one emulation client.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Vmn {
    /// Node identity.
    pub id: NodeId,
    /// Current position.
    pub pos: Point,
    /// Radio configuration (channels + ranges).
    pub radios: RadioConfig,
    /// Mobility model governing autonomous movement.
    pub mobility: MobilityModel,
    /// Runtime state of the mobility model.
    pub mob_state: MobilityState,
    /// Wireless circumstance parameters for this node's transmissions.
    pub link: LinkParams,
}

impl Vmn {
    /// A stationary node with the given radios and ideal link parameters.
    pub fn stationary(id: NodeId, pos: Point, radios: RadioConfig) -> Self {
        Vmn {
            id,
            pos,
            radios,
            mobility: MobilityModel::Stationary,
            mob_state: MobilityState::Still,
            link: LinkParams::default(),
        }
    }
}

/// A scene-construction operation — the GUI/script vocabulary.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum SceneOp {
    /// Adds a node to the scene.
    AddNode {
        /// New node id (must be unused).
        id: NodeId,
        /// Initial position.
        pos: Point,
        /// Radio configuration.
        radios: RadioConfig,
        /// Mobility model.
        mobility: MobilityModel,
        /// Link parameters.
        link: LinkParams,
    },
    /// Removes a node ("moving out some nodes").
    RemoveNode {
        /// Node to remove.
        id: NodeId,
    },
    /// Drag-and-drop: teleports a node to a new position.
    MoveNode {
        /// Node to move.
        id: NodeId,
        /// New position.
        pos: Point,
    },
    /// Retunes one radio to a new channel ("switching the channel").
    SetRadioChannel {
        /// Target node.
        id: NodeId,
        /// Radio slot.
        radio: RadioId,
        /// New channel.
        channel: ChannelId,
    },
    /// Changes one radio's transmission range ("changing the radio range").
    SetRadioRange {
        /// Target node.
        id: NodeId,
        /// Radio slot.
        radio: RadioId,
        /// New range, units.
        range: f64,
    },
    /// Replaces a node's whole radio configuration.
    SetRadios {
        /// Target node.
        id: NodeId,
        /// New configuration.
        radios: RadioConfig,
    },
    /// Replaces a node's mobility model.
    SetMobility {
        /// Target node.
        id: NodeId,
        /// New model.
        model: MobilityModel,
    },
    /// Reconfigures a node's wireless circumstance parameters
    /// ("lowering some link's bandwidth").
    SetLinkParams {
        /// Target node.
        id: NodeId,
        /// New parameters.
        params: LinkParams,
    },
    /// Binds a node's transmissions to an empirical link profile (or back
    /// to the analytic models with `None`). The id refers into the
    /// scenario's profile library.
    SetLinkProfile {
        /// Target node.
        id: NodeId,
        /// Profile to drive this node's links, or `None` for analytic.
        profile: Option<ProfileId>,
    },
    /// Installs or clears the arena bounds.
    SetArena {
        /// New arena, or `None` for an unbounded plane.
        arena: Option<Arena>,
    },
}

impl fmt::Display for SceneOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SceneOp::AddNode { id, pos, .. } => write!(f, "add {id} at {pos}"),
            SceneOp::RemoveNode { id } => write!(f, "remove {id}"),
            SceneOp::MoveNode { id, pos } => write!(f, "move {id} to {pos}"),
            SceneOp::SetRadioChannel { id, radio, channel } => {
                write!(f, "retune {id}/{radio} to {channel}")
            }
            SceneOp::SetRadioRange { id, radio, range } => {
                write!(f, "set {id}/{radio} range to {range}")
            }
            SceneOp::SetRadios { id, .. } => write!(f, "reconfigure radios of {id}"),
            SceneOp::SetMobility { id, .. } => write!(f, "set mobility of {id}"),
            SceneOp::SetLinkParams { id, .. } => write!(f, "set link params of {id}"),
            SceneOp::SetLinkProfile { id, profile: Some(p) } => {
                write!(f, "bind {id} to {p}")
            }
            SceneOp::SetLinkProfile { id, profile: None } => {
                write!(f, "unbind link profile of {id}")
            }
            SceneOp::SetArena { .. } => write!(f, "set arena"),
        }
    }
}

/// Why a scene operation was rejected.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SceneError {
    /// The referenced node does not exist.
    UnknownNode(NodeId),
    /// `AddNode` with an id already in use.
    DuplicateNode(NodeId),
    /// The referenced radio slot does not exist on the node.
    NoSuchRadio(NodeId, RadioId),
    /// A numeric parameter was not finite or was negative.
    BadParameter(&'static str),
}

impl fmt::Display for SceneError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SceneError::UnknownNode(n) => write!(f, "unknown node {n}"),
            SceneError::DuplicateNode(n) => write!(f, "node {n} already exists"),
            SceneError::NoSuchRadio(n, r) => write!(f, "{n} has no {r}"),
            SceneError::BadParameter(what) => write!(f, "bad parameter: {what}"),
        }
    }
}

impl std::error::Error for SceneError {}

/// The full emulated network state.
#[derive(Debug, Default)]
pub struct Scene {
    nodes: BTreeMap<NodeId, Vmn>,
    tables: ChannelIndexedTables,
    arena: Option<Arena>,
    /// Time up to which mobility has been integrated.
    mobility_horizon: EmuTime,
}

impl Scene {
    /// An empty scene.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// True when no nodes exist.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Node state, if present.
    pub fn node(&self, id: NodeId) -> Option<&Vmn> {
        self.nodes.get(&id)
    }

    /// All nodes, ascending by id.
    pub fn nodes(&self) -> impl Iterator<Item = &Vmn> {
        self.nodes.values()
    }

    /// The current arena bounds.
    pub fn arena(&self) -> Option<&Arena> {
        self.arena.as_ref()
    }

    /// Read access to the channel-indexed neighbor tables.
    pub fn tables(&self) -> &ChannelIndexedTables {
        &self.tables
    }

    /// Applies one scene operation at time `at`.
    ///
    /// `at` is only bookkeeping here (mobility advances are explicit via
    /// [`Scene::advance_mobility`]); the server records `(at, op)` pairs to
    /// the scene log for post-emulation replay.
    pub fn apply(&mut self, at: EmuTime, op: &SceneOp) -> Result<(), SceneError> {
        self.mobility_horizon = self.mobility_horizon.max(at);
        match op {
            SceneOp::AddNode { id, pos, radios, mobility, link } => {
                if self.nodes.contains_key(id) {
                    return Err(SceneError::DuplicateNode(*id));
                }
                if !pos.is_finite() {
                    return Err(SceneError::BadParameter("position must be finite"));
                }
                let vmn = Vmn {
                    id: *id,
                    pos: *pos,
                    radios: radios.clone(),
                    mobility: *mobility,
                    mob_state: MobilityState::init(mobility),
                    link: *link,
                };
                self.tables.insert_node(*id, *pos, radios.clone());
                self.nodes.insert(*id, vmn);
                Ok(())
            }
            SceneOp::RemoveNode { id } => {
                self.nodes.remove(id).ok_or(SceneError::UnknownNode(*id))?;
                self.tables.remove_node(*id);
                Ok(())
            }
            SceneOp::MoveNode { id, pos } => {
                if !pos.is_finite() {
                    return Err(SceneError::BadParameter("position must be finite"));
                }
                let v = self.nodes.get_mut(id).ok_or(SceneError::UnknownNode(*id))?;
                v.pos = *pos;
                self.tables.update_position(*id, *pos);
                Ok(())
            }
            SceneOp::SetRadioChannel { id, radio, channel } => {
                let v = self.nodes.get_mut(id).ok_or(SceneError::UnknownNode(*id))?;
                v.radios
                    .set_channel(*radio, *channel)
                    .ok_or(SceneError::NoSuchRadio(*id, *radio))?;
                self.tables.update_radios(*id, v.radios.clone());
                Ok(())
            }
            SceneOp::SetRadioRange { id, radio, range } => {
                if !range.is_finite() || *range < 0.0 {
                    return Err(SceneError::BadParameter("range must be finite and ≥ 0"));
                }
                let v = self.nodes.get_mut(id).ok_or(SceneError::UnknownNode(*id))?;
                v.radios.set_range(*radio, *range).ok_or(SceneError::NoSuchRadio(*id, *radio))?;
                self.tables.update_radios(*id, v.radios.clone());
                Ok(())
            }
            SceneOp::SetRadios { id, radios } => {
                let v = self.nodes.get_mut(id).ok_or(SceneError::UnknownNode(*id))?;
                v.radios = radios.clone();
                self.tables.update_radios(*id, radios.clone());
                Ok(())
            }
            SceneOp::SetMobility { id, model } => {
                let v = self.nodes.get_mut(id).ok_or(SceneError::UnknownNode(*id))?;
                v.mobility = *model;
                v.mob_state = MobilityState::init(model);
                Ok(())
            }
            SceneOp::SetLinkParams { id, params } => {
                let v = self.nodes.get_mut(id).ok_or(SceneError::UnknownNode(*id))?;
                v.link = *params;
                Ok(())
            }
            SceneOp::SetLinkProfile { id, profile } => {
                let v = self.nodes.get_mut(id).ok_or(SceneError::UnknownNode(*id))?;
                v.link.profile = *profile;
                Ok(())
            }
            SceneOp::SetArena { arena } => {
                self.arena = *arena;
                Ok(())
            }
        }
    }

    /// Integrates every node's mobility model from the last horizon up to
    /// `to`, updating positions and neighbor tables. No-op for `to` at or
    /// before the horizon.
    ///
    /// Two passes: independent movers first, then group members relative
    /// to their (already updated) leader — the reference-point group
    /// mobility semantics. A member whose leader has left the scene holds
    /// its position.
    pub fn advance_mobility(&mut self, to: EmuTime, rng: &mut EmuRng) {
        if to <= self.mobility_horizon {
            return;
        }
        let dt = (to - self.mobility_horizon).as_secs_f64();
        self.mobility_horizon = to;
        let arena = self.arena;
        let mut moved: Vec<(NodeId, Point)> = self
            .nodes
            .values_mut()
            .filter(|v| v.mobility.is_mobile() && v.mobility.leader().is_none())
            .map(|v| {
                let new_pos = v.mob_state.advance(&v.mobility, v.pos, dt, rng, arena.as_ref());
                v.pos = new_pos;
                (v.id, new_pos)
            })
            .collect();
        // Second pass: group members follow their leader's new position.
        let member_ids: Vec<NodeId> =
            self.nodes.values().filter(|v| v.mobility.leader().is_some()).map(|v| v.id).collect();
        for id in member_ids {
            let leader = self.nodes[&id].mobility.leader().expect("filtered members");
            let Some(leader_pos) = self.nodes.get(&leader).map(|l| l.pos) else {
                continue;
            };
            let v = self.nodes.get_mut(&id).expect("member exists");
            let model = v.mobility;
            let new_pos =
                v.mob_state.advance_following(&model, v.pos, leader_pos, dt, rng, arena.as_ref());
            v.pos = new_pos;
            moved.push((id, new_pos));
        }
        self.tables.update_positions(&moved);
    }

    /// Applies a run of `MoveNode`s at `at` as one bulk relink — what a
    /// shard worker does with the position updates of one sync.
    ///
    /// Validates each move as [`Scene::apply`] would (a non-finite
    /// position is a [`SceneError::BadParameter`], an unknown node a
    /// [`SceneError::UnknownNode`]). On the first invalid move, the moves
    /// before it are applied and its error is returned — the state and
    /// the error applying the run one op at a time would leave.
    pub fn move_nodes(&mut self, at: EmuTime, moves: &[(NodeId, Point)]) -> Result<(), SceneError> {
        self.mobility_horizon = self.mobility_horizon.max(at);
        for (k, &(id, pos)) in moves.iter().enumerate() {
            let vmn = if pos.is_finite() {
                self.nodes.get_mut(&id).ok_or(SceneError::UnknownNode(id))
            } else {
                Err(SceneError::BadParameter("position must be finite"))
            };
            match vmn {
                Ok(v) => v.pos = pos,
                Err(e) => {
                    self.tables.update_positions(&moves[..k]);
                    return Err(e);
                }
            }
        }
        self.tables.update_positions(moves);
        Ok(())
    }

    /// Time up to which mobility has been integrated.
    pub fn mobility_horizon(&self) -> EmuTime {
        self.mobility_horizon
    }

    /// Step 2 of the per-packet pipeline: the set of clients a packet from
    /// `src` on `channel` must be considered for. Unicast narrows the
    /// neighbor set to the target; broadcast takes the whole `NT(src, ch)`.
    pub fn route(&self, src: NodeId, channel: ChannelId, dst: Destination) -> Vec<NodeId> {
        let mut out = Vec::new();
        self.route_into(src, channel, dst, &mut out);
        out
    }

    /// [`Scene::route`] into a caller-provided buffer (cleared first) —
    /// the hot-path form: a reused buffer makes routing allocation-free
    /// in steady state.
    pub fn route_into(
        &self,
        src: NodeId,
        channel: ChannelId,
        dst: Destination,
        out: &mut Vec<NodeId>,
    ) {
        out.clear();
        self.tables.neighbors_into(src, channel, out);
        if let Destination::Unicast(d) = dst {
            let hit = out.binary_search(&d).is_ok();
            out.clear();
            if hit {
                out.push(d);
            }
        }
    }

    /// Step 3: the drop/forward-time decision for one `(src → dst)` copy
    /// of a packet of `bytes` on `channel`, under the sender's link
    /// parameters materialized at its current radio range.
    pub fn decide(
        &self,
        src: NodeId,
        dst: NodeId,
        channel: ChannelId,
        bytes: usize,
        rng: &mut EmuRng,
    ) -> Option<ForwardDecision> {
        let s = self.nodes.get(&src)?;
        let d = self.nodes.get(&dst)?;
        let range = s.radios.range_on(channel)?;
        let r = s.pos.distance(d.pos);
        Some(s.link.with_range(range).decide(bytes, r, rng))
    }

    /// The profile bound to `src`'s transmissions, if any.
    pub fn link_profile(&self, src: NodeId) -> Option<ProfileId> {
        self.nodes.get(&src).and_then(|v| v.link.profile)
    }

    /// Reachability gate for a profile-driven transmission: `Some(r)` when
    /// both endpoints exist and the sender is tuned on `channel` — the same
    /// preconditions [`Scene::decide`] enforces before consulting the
    /// analytic models. The distance is returned for diagnostics; the
    /// profile backends are time-indexed, not distance-indexed.
    pub fn link_gate(&self, src: NodeId, dst: NodeId, channel: ChannelId) -> Option<f64> {
        let s = self.nodes.get(&src)?;
        let d = self.nodes.get(&dst)?;
        s.radios.range_on(channel)?;
        Some(s.pos.distance(d.pos))
    }

    /// Steps 2+3 for a whole packet: routes it and returns, per reachable
    /// destination, the forwarding decision.
    pub fn dispatch(&self, pkt: &EmuPacket, rng: &mut EmuRng) -> Vec<(NodeId, ForwardDecision)> {
        self.route(pkt.src, pkt.channel, pkt.dst)
            .into_iter()
            .filter_map(|dst| {
                self.decide(pkt.src, dst, pkt.channel, pkt.wire_size(), rng).map(|dec| (dst, dec))
            })
            .collect()
    }

    /// Loss probability of the `src → dst` link on `channel` right now,
    /// under the current scene — the "expected" value the Fig. 10 curves
    /// are drawn from.
    pub fn loss_probability(&self, src: NodeId, dst: NodeId, channel: ChannelId) -> Option<f64> {
        let s = self.nodes.get(&src)?;
        let d = self.nodes.get(&dst)?;
        let range = s.radios.range_on(channel)?;
        if !d.radios.listens_on(channel) {
            return Some(1.0);
        }
        let r = s.pos.distance(d.pos);
        Some(s.link.with_range(range).loss.probability(r))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::RadioId;
    use crate::linkmodel::ForwardDecision;
    use crate::neighbor::check_against_brute_force;
    use crate::packet::HEADER_BYTES;
    use crate::PacketId;

    fn add(scene: &mut Scene, id: u32, x: f64, y: f64, ch: u16, range: f64) {
        scene
            .apply(
                EmuTime::ZERO,
                &SceneOp::AddNode {
                    id: NodeId(id),
                    pos: Point::new(x, y),
                    radios: RadioConfig::single(ChannelId(ch), range),
                    mobility: MobilityModel::Stationary,
                    link: LinkParams::ideal(8e6),
                },
            )
            .unwrap();
    }

    #[test]
    fn add_and_remove_nodes() {
        let mut s = Scene::new();
        add(&mut s, 1, 0.0, 0.0, 1, 100.0);
        add(&mut s, 2, 50.0, 0.0, 1, 100.0);
        assert_eq!(s.len(), 2);
        assert_eq!(s.route(NodeId(1), ChannelId(1), Destination::Broadcast), vec![NodeId(2)]);
        s.apply(EmuTime::ZERO, &SceneOp::RemoveNode { id: NodeId(2) }).unwrap();
        assert!(s.route(NodeId(1), ChannelId(1), Destination::Broadcast).is_empty());
        assert_eq!(s.len(), 1);
    }

    #[test]
    fn duplicate_add_rejected() {
        let mut s = Scene::new();
        add(&mut s, 1, 0.0, 0.0, 1, 100.0);
        let err = s
            .apply(
                EmuTime::ZERO,
                &SceneOp::AddNode {
                    id: NodeId(1),
                    pos: Point::ORIGIN,
                    radios: RadioConfig::none(),
                    mobility: MobilityModel::Stationary,
                    link: LinkParams::default(),
                },
            )
            .unwrap_err();
        assert_eq!(err, SceneError::DuplicateNode(NodeId(1)));
    }

    #[test]
    fn ops_on_unknown_node_rejected() {
        let mut s = Scene::new();
        for op in [
            SceneOp::RemoveNode { id: NodeId(9) },
            SceneOp::MoveNode { id: NodeId(9), pos: Point::ORIGIN },
            SceneOp::SetMobility { id: NodeId(9), model: MobilityModel::Stationary },
            SceneOp::SetLinkParams { id: NodeId(9), params: LinkParams::default() },
            SceneOp::SetRadioRange { id: NodeId(9), radio: RadioId(0), range: 1.0 },
        ] {
            assert_eq!(s.apply(EmuTime::ZERO, &op), Err(SceneError::UnknownNode(NodeId(9))));
        }
    }

    #[test]
    fn bad_parameters_rejected() {
        let mut s = Scene::new();
        add(&mut s, 1, 0.0, 0.0, 1, 100.0);
        assert!(matches!(
            s.apply(
                EmuTime::ZERO,
                &SceneOp::MoveNode { id: NodeId(1), pos: Point::new(f64::NAN, 0.0) }
            ),
            Err(SceneError::BadParameter(_))
        ));
        assert!(matches!(
            s.apply(
                EmuTime::ZERO,
                &SceneOp::SetRadioRange { id: NodeId(1), radio: RadioId(0), range: -5.0 }
            ),
            Err(SceneError::BadParameter(_))
        ));
        assert!(matches!(
            s.apply(
                EmuTime::ZERO,
                &SceneOp::SetRadioRange { id: NodeId(1), radio: RadioId(3), range: 5.0 }
            ),
            Err(SceneError::NoSuchRadio(_, _))
        ));
    }

    #[test]
    fn drag_and_drop_updates_neighborhood() {
        let mut s = Scene::new();
        add(&mut s, 1, 0.0, 0.0, 1, 100.0);
        add(&mut s, 2, 300.0, 0.0, 1, 100.0);
        assert!(s.route(NodeId(1), ChannelId(1), Destination::Broadcast).is_empty());
        s.apply(
            EmuTime::from_secs(1),
            &SceneOp::MoveNode { id: NodeId(2), pos: Point::new(80.0, 0.0) },
        )
        .unwrap();
        assert_eq!(s.route(NodeId(1), ChannelId(1), Destination::Broadcast), vec![NodeId(2)]);
        check_against_brute_force(s.tables()).unwrap();
    }

    #[test]
    fn move_nodes_fails_where_single_moves_would() {
        let at = EmuTime::from_secs(3);
        for run in [
            [(1, 10.0), (2, f64::NAN), (9, 0.0)],
            [(1, 10.0), (9, 0.0), (2, f64::NAN)],
            [(2, 40.0), (1, 20.0), (2, 60.0)],
        ] {
            let run: Vec<(NodeId, Point)> =
                run.iter().map(|&(id, x)| (NodeId(id), Point::new(x, 0.0))).collect();
            let mut bulk = Scene::new();
            let mut single = Scene::new();
            for s in [&mut bulk, &mut single] {
                add(s, 1, 0.0, 0.0, 1, 100.0);
                add(s, 2, 150.0, 0.0, 1, 100.0);
            }
            let got = bulk.move_nodes(at, &run).err();
            let want = run
                .iter()
                .map(|&(id, pos)| single.apply(at, &SceneOp::MoveNode { id, pos }))
                .find_map(Result::err);
            assert_eq!(got, want, "{run:?}");
            assert_eq!(bulk.mobility_horizon(), single.mobility_horizon());
            for id in [NodeId(1), NodeId(2)] {
                assert_eq!(bulk.node(id).unwrap().pos, single.node(id).unwrap().pos, "{run:?}");
                assert_eq!(
                    bulk.route(id, ChannelId(1), Destination::Broadcast),
                    single.route(id, ChannelId(1), Destination::Broadcast),
                    "{run:?}"
                );
            }
            check_against_brute_force(bulk.tables()).unwrap();
        }
    }

    #[test]
    fn channel_switch_disconnects() {
        let mut s = Scene::new();
        add(&mut s, 1, 0.0, 0.0, 1, 200.0);
        add(&mut s, 2, 100.0, 0.0, 1, 200.0);
        s.apply(
            EmuTime::ZERO,
            &SceneOp::SetRadioChannel { id: NodeId(2), radio: RadioId(0), channel: ChannelId(5) },
        )
        .unwrap();
        assert!(s.route(NodeId(1), ChannelId(1), Destination::Broadcast).is_empty());
        assert_eq!(s.loss_probability(NodeId(1), NodeId(2), ChannelId(1)), Some(1.0));
    }

    #[test]
    fn unicast_routing_respects_neighborhood() {
        let mut s = Scene::new();
        add(&mut s, 1, 0.0, 0.0, 1, 100.0);
        add(&mut s, 2, 50.0, 0.0, 1, 100.0);
        add(&mut s, 3, 90.0, 0.0, 1, 100.0);
        assert_eq!(
            s.route(NodeId(1), ChannelId(1), Destination::Unicast(NodeId(2))),
            vec![NodeId(2)]
        );
        // Node 3 is in range of 1 (90 ≤ 100) so unicast reaches it directly,
        // but a node out of range is unreachable.
        assert_eq!(
            s.route(NodeId(1), ChannelId(1), Destination::Unicast(NodeId(3))),
            vec![NodeId(3)]
        );
        s.apply(EmuTime::ZERO, &SceneOp::MoveNode { id: NodeId(3), pos: Point::new(150.0, 0.0) })
            .unwrap();
        assert!(s.route(NodeId(1), ChannelId(1), Destination::Unicast(NodeId(3))).is_empty());
    }

    #[test]
    fn dispatch_forwards_on_ideal_link() {
        let mut s = Scene::new();
        add(&mut s, 1, 0.0, 0.0, 1, 100.0);
        add(&mut s, 2, 60.0, 0.0, 1, 100.0);
        let pkt = EmuPacket::new(
            PacketId(1),
            NodeId(1),
            Destination::Broadcast,
            ChannelId(1),
            RadioId(0),
            EmuTime::ZERO,
            vec![0u8; 1000 - HEADER_BYTES],
        );
        let mut rng = EmuRng::seed(1);
        let out = s.dispatch(&pkt, &mut rng);
        assert_eq!(out.len(), 1);
        let (dst, dec) = out[0];
        assert_eq!(dst, NodeId(2));
        // 1000 bytes at 8 Mbps = 1 ms transmission time.
        assert_eq!(dec, ForwardDecision::ForwardAfter(crate::EmuDuration::from_millis(1)));
    }

    #[test]
    fn mobility_advance_moves_nodes_and_tables() {
        let mut s = Scene::new();
        add(&mut s, 1, 0.0, 0.0, 1, 100.0);
        s.apply(
            EmuTime::ZERO,
            &SceneOp::AddNode {
                id: NodeId(2),
                pos: Point::new(90.0, 0.0),
                radios: RadioConfig::single(ChannelId(1), 100.0),
                mobility: MobilityModel::Linear { direction_deg: 0.0, speed: 10.0 },
                link: LinkParams::ideal(8e6),
            },
        )
        .unwrap();
        let mut rng = EmuRng::seed(7);
        assert_eq!(s.route(NodeId(1), ChannelId(1), Destination::Broadcast), vec![NodeId(2)]);
        // After 2 s node 2 is at x = 110 > range 100.
        s.advance_mobility(EmuTime::from_secs(2), &mut rng);
        assert!(s.route(NodeId(1), ChannelId(1), Destination::Broadcast).is_empty());
        assert_eq!(s.node(NodeId(2)).unwrap().pos, Point::new(110.0, 0.0));
        check_against_brute_force(s.tables()).unwrap();
        // Advancing to a past time is a no-op.
        s.advance_mobility(EmuTime::from_secs(1), &mut rng);
        assert_eq!(s.node(NodeId(2)).unwrap().pos, Point::new(110.0, 0.0));
        assert_eq!(s.mobility_horizon(), EmuTime::from_secs(2));
    }

    #[test]
    fn loss_probability_tracks_distance_and_params() {
        let mut s = Scene::new();
        add(&mut s, 1, 0.0, 0.0, 1, 200.0);
        add(&mut s, 2, 125.0, 0.0, 1, 200.0);
        s.apply(
            EmuTime::ZERO,
            &SceneOp::SetLinkParams { id: NodeId(1), params: LinkParams::table3() },
        )
        .unwrap();
        // Table-3 model at r=125: 0.5 (see linkmodel tests).
        let p = s.loss_probability(NodeId(1), NodeId(2), ChannelId(1)).unwrap();
        assert!((p - 0.5).abs() < 1e-9, "{p}");
    }

    #[test]
    fn set_mobility_resets_state() {
        let mut s = Scene::new();
        add(&mut s, 1, 0.0, 0.0, 1, 100.0);
        s.apply(
            EmuTime::ZERO,
            &SceneOp::SetMobility {
                id: NodeId(1),
                model: MobilityModel::Linear { direction_deg: 90.0, speed: 5.0 },
            },
        )
        .unwrap();
        let mut rng = EmuRng::seed(3);
        s.advance_mobility(EmuTime::from_secs(4), &mut rng);
        let p = s.node(NodeId(1)).unwrap().pos;
        assert!(p.distance(Point::new(0.0, 20.0)) < 1e-9, "{p}");
    }

    #[test]
    fn arena_constrains_scene_mobility() {
        let mut s = Scene::new();
        s.apply(EmuTime::ZERO, &SceneOp::SetArena { arena: Some(Arena::new(50.0, 50.0)) }).unwrap();
        s.apply(
            EmuTime::ZERO,
            &SceneOp::AddNode {
                id: NodeId(1),
                pos: Point::new(25.0, 25.0),
                radios: RadioConfig::single(ChannelId(1), 10.0),
                mobility: MobilityModel::Linear { direction_deg: 0.0, speed: 100.0 },
                link: LinkParams::default(),
            },
        )
        .unwrap();
        let mut rng = EmuRng::seed(4);
        s.advance_mobility(EmuTime::from_secs(10), &mut rng);
        assert_eq!(s.node(NodeId(1)).unwrap().pos, Point::new(50.0, 25.0));
    }

    #[test]
    fn link_profile_binding_round_trips_through_ops() {
        let mut s = Scene::new();
        add(&mut s, 1, 0.0, 0.0, 1, 100.0);
        assert_eq!(s.link_profile(NodeId(1)), None);
        s.apply(
            EmuTime::ZERO,
            &SceneOp::SetLinkProfile { id: NodeId(1), profile: Some(crate::ProfileId(2)) },
        )
        .unwrap();
        assert_eq!(s.link_profile(NodeId(1)), Some(crate::ProfileId(2)));
        s.apply(EmuTime::ZERO, &SceneOp::SetLinkProfile { id: NodeId(1), profile: None }).unwrap();
        assert_eq!(s.link_profile(NodeId(1)), None);
        assert_eq!(
            s.apply(EmuTime::ZERO, &SceneOp::SetLinkProfile { id: NodeId(9), profile: None }),
            Err(SceneError::UnknownNode(NodeId(9)))
        );
    }

    #[test]
    fn link_gate_mirrors_decide_preconditions() {
        let mut s = Scene::new();
        add(&mut s, 1, 0.0, 0.0, 1, 100.0);
        add(&mut s, 2, 60.0, 0.0, 1, 100.0);
        assert_eq!(s.link_gate(NodeId(1), NodeId(2), ChannelId(1)), Some(60.0));
        // Same None cases as decide: missing node, untuned channel.
        assert!(s.link_gate(NodeId(1), NodeId(9), ChannelId(1)).is_none());
        assert!(s.link_gate(NodeId(9), NodeId(2), ChannelId(1)).is_none());
        assert!(s.link_gate(NodeId(1), NodeId(2), ChannelId(7)).is_none());
    }

    #[test]
    fn decide_missing_entities_yield_none() {
        let mut s = Scene::new();
        add(&mut s, 1, 0.0, 0.0, 1, 100.0);
        let mut rng = EmuRng::seed(5);
        assert!(s.decide(NodeId(1), NodeId(9), ChannelId(1), 100, &mut rng).is_none());
        assert!(s.decide(NodeId(9), NodeId(1), ChannelId(1), 100, &mut rng).is_none());
        // Source not tuned to the channel:
        assert!(s.decide(NodeId(1), NodeId(1), ChannelId(7), 100, &mut rng).is_none());
    }
}

#[cfg(test)]
mod group_mobility_tests {
    use super::*;
    use crate::ChannelId;

    fn group_scene() -> Scene {
        let mut s = Scene::new();
        // Leader marches east; two members in formation behind it.
        s.apply(
            EmuTime::ZERO,
            &SceneOp::AddNode {
                id: NodeId(1),
                pos: Point::new(0.0, 0.0),
                radios: RadioConfig::single(ChannelId(1), 100.0),
                mobility: MobilityModel::Linear { direction_deg: 0.0, speed: 10.0 },
                link: LinkParams::default(),
            },
        )
        .unwrap();
        for (id, y) in [(2u32, 20.0), (3u32, -20.0)] {
            s.apply(
                EmuTime::ZERO,
                &SceneOp::AddNode {
                    id: NodeId(id),
                    pos: Point::new(-10.0, y),
                    radios: RadioConfig::single(ChannelId(1), 100.0),
                    mobility: MobilityModel::GroupMember { leader: NodeId(1), max_wander: 3.0 },
                    link: LinkParams::default(),
                },
            )
            .unwrap();
        }
        s
    }

    #[test]
    fn members_follow_the_marching_leader() {
        let mut s = group_scene();
        let mut rng = EmuRng::seed(5);
        for step in 1..=100u64 {
            s.advance_mobility(EmuTime::from_millis(step * 100), &mut rng);
        }
        // After 10 s the leader is at x = 100.
        let leader = s.node(NodeId(1)).unwrap().pos;
        assert!((leader.x - 100.0).abs() < 1e-6, "{leader}");
        // Members hold formation (offset ± wander radius).
        for (id, y) in [(2u32, 20.0), (3u32, -20.0)] {
            let m = s.node(NodeId(id)).unwrap().pos;
            let reference = Point::new(leader.x - 10.0, y);
            assert!(
                m.distance(reference) <= 3.0 + 1e-9,
                "{id} strayed: {m} vs reference {reference}"
            );
        }
        crate::neighbor::check_against_brute_force(s.tables()).unwrap();
    }

    #[test]
    fn member_with_missing_leader_holds_position() {
        let mut s = group_scene();
        s.apply(EmuTime::ZERO, &SceneOp::RemoveNode { id: NodeId(1) }).unwrap();
        let before = s.node(NodeId(2)).unwrap().pos;
        let mut rng = EmuRng::seed(6);
        s.advance_mobility(EmuTime::from_secs(5), &mut rng);
        assert_eq!(s.node(NodeId(2)).unwrap().pos, before);
    }

    #[test]
    fn group_stays_connected_while_marching() {
        let mut s = group_scene();
        let mut rng = EmuRng::seed(7);
        for step in 1..=200u64 {
            s.advance_mobility(EmuTime::from_millis(step * 100), &mut rng);
            // The whole formation stays within radio range of the leader.
            let nbrs = s.route(NodeId(1), ChannelId(1), Destination::Broadcast);
            assert_eq!(nbrs.len(), 2, "formation broke at step {step}: {nbrs:?}");
        }
    }
}
