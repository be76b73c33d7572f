//! Per-fault-kind metrics and scene-fault compilation.
//!
//! Scene faults (flap, crash, jam) are not new scene machinery — they
//! *compile* to legs of existing [`SceneOp`]s against the current scene:
//! an injection leg applied at fault time and restore legs applied after
//! the fault's duration. One fault executor in `poem-server` runs the legs
//! for both the deterministic sim harness and the real-time server, each
//! leg through that frontend's own scene-op path, which is what keeps the
//! two frontends behaviorally aligned.

use crate::plan::{FaultKind, KIND_NAMES};
use poem_core::scene::{Scene, SceneOp};
use poem_core::{ChannelId, EmuDuration, EmuTime, NodeId, RadioId};
use poem_obs::{Counter, Gauge, Registry};
use std::sync::Arc;

/// Per-fault-kind injection counters plus an active-fault gauge, exported
/// through `poem-obs` as `poem_faults_injected_total{kind="…"}` and
/// `poem_faults_active`.
#[derive(Clone)]
pub struct ChaosMetrics {
    injected: Vec<(&'static str, Arc<Counter>)>,
    active: Arc<Gauge>,
}

impl ChaosMetrics {
    /// Registers the chaos metric family in `registry`.
    pub fn register(registry: &Registry) -> Self {
        let injected = KIND_NAMES
            .iter()
            .map(|name| {
                (*name, registry.counter(&format!("poem_faults_injected_total{{kind=\"{name}\"}}")))
            })
            .collect();
        ChaosMetrics { injected, active: registry.gauge("poem_faults_active") }
    }

    /// Counts one injection of the named kind (see
    /// [`crate::plan::KIND_NAMES`]); unknown names are ignored.
    pub fn injected(&self, kind_name: &str) {
        if let Some((_, c)) = self.injected.iter().find(|(n, _)| *n == kind_name) {
            c.inc();
        }
    }

    /// Total injections across every kind.
    pub fn injected_total(&self) -> u64 {
        self.injected.iter().map(|(_, c)| c.get()).sum()
    }

    /// A timed fault became active.
    pub fn activate(&self) {
        self.active.add(1);
    }

    /// A timed fault expired or was restored.
    pub fn deactivate(&self) {
        self.active.sub(1);
    }
}

impl std::fmt::Debug for ChaosMetrics {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ChaosMetrics")
            .field("injected_total", &self.injected_total())
            .field("active", &self.active.get())
            .finish()
    }
}

/// Compiles a link flap into shrink + restore legs against the node's
/// *current* range. `None` when the node or radio slot does not exist.
pub fn flap_legs(
    scene: &Scene,
    now: EmuTime,
    node: NodeId,
    radio: RadioId,
    factor: f64,
    duration: EmuDuration,
) -> Option<Vec<(EmuTime, SceneOp)>> {
    let current = scene.node(node)?.radios.get(radio)?.range;
    let shrunk = (current * factor.max(0.0)).max(0.0);
    Some(vec![
        (now, SceneOp::SetRadioRange { id: node, radio, range: shrunk }),
        (now + duration, SceneOp::SetRadioRange { id: node, radio, range: current }),
    ])
}

/// Compiles a per-channel jam: every radio tuned to `channel` goes dark
/// now and restores after `duration`. Empty when nothing listens there.
pub fn jam_legs(
    scene: &Scene,
    now: EmuTime,
    channel: ChannelId,
    duration: EmuDuration,
) -> Vec<(EmuTime, SceneOp)> {
    let mut legs = Vec::new();
    for vmn in scene.nodes() {
        for (slot, radio) in vmn.radios.radios().iter().enumerate() {
            if radio.channel != channel {
                continue;
            }
            let id = vmn.id;
            let slot = RadioId(slot as u8);
            legs.push((now, SceneOp::SetRadioRange { id, radio: slot, range: 0.0 }));
            legs.push((
                now + duration,
                SceneOp::SetRadioRange { id, radio: slot, range: radio.range },
            ));
        }
    }
    // Injection legs first, restores after, each group in node order.
    legs.sort_by_key(|(at, _)| *at);
    legs
}

/// Compiles a crash into a `RemoveNode` leg plus, when `restart_after` is
/// set, an `AddNode` restore leg rebuilt from the node's current
/// configuration. `None` when the node does not exist.
pub fn crash_legs(
    scene: &Scene,
    now: EmuTime,
    node: NodeId,
    restart_after: Option<EmuDuration>,
) -> Option<(SceneOp, Option<(EmuTime, SceneOp)>)> {
    let vmn = scene.node(node)?;
    let restore = restart_after.map(|d| {
        (
            now + d,
            SceneOp::AddNode {
                id: node,
                pos: vmn.pos,
                radios: vmn.radios.clone(),
                mobility: vmn.mobility,
                link: vmn.link,
            },
        )
    });
    Some((SceneOp::RemoveNode { id: node }, restore))
}

/// Emits the injection-time fault record for a non-wire kind (wire kinds
/// record per occurrence instead, at the interposer).
pub fn injection_record(kind: &FaultKind, at: EmuTime) -> Option<poem_record::FaultRecord> {
    use poem_record::FaultRecord;
    match kind {
        FaultKind::WireCorrupt { .. }
        | FaultKind::WireTruncate { .. }
        | FaultKind::WireDuplicate { .. }
        | FaultKind::WireReorder { .. } => None,
        FaultKind::Disconnect { node } => {
            Some(FaultRecord::Transport { at, node: *node, action: "disconnect".to_string() })
        }
        FaultKind::Stall { node, .. } => {
            Some(FaultRecord::Transport { at, node: *node, action: "stall".to_string() })
        }
        FaultKind::SlowReader { node, .. } => {
            Some(FaultRecord::Transport { at, node: *node, action: "slow_reader".to_string() })
        }
        FaultKind::LinkFlap { node, .. } => {
            Some(FaultRecord::Scene { at, action: format!("link_flap {node}") })
        }
        FaultKind::Crash { node, .. } => {
            Some(FaultRecord::Scene { at, action: format!("crash {node}") })
        }
        FaultKind::Jam { channel, .. } => {
            Some(FaultRecord::Scene { at, action: format!("jam ch{}", channel.0) })
        }
        FaultKind::ClockSkew { node, offset } => {
            Some(FaultRecord::Clock { at, node: *node, offset_ns: offset.as_nanos() })
        }
        FaultKind::ClockJitter { node, std_dev } => {
            Some(FaultRecord::Clock { at, node: *node, offset_ns: std_dev.as_nanos() })
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use poem_core::linkmodel::LinkParams;
    use poem_core::mobility::MobilityModel;
    use poem_core::radio::RadioConfig;
    use poem_core::Point;

    fn two_node_scene() -> Scene {
        let mut scene = Scene::new();
        for (id, ch) in [(1u32, 1u16), (2, 1), (3, 2)] {
            scene
                .apply(
                    EmuTime::ZERO,
                    &SceneOp::AddNode {
                        id: NodeId(id),
                        pos: Point::new(id as f64 * 10.0, 0.0),
                        radios: RadioConfig::single(ChannelId(ch), 100.0),
                        mobility: MobilityModel::Stationary,
                        link: LinkParams::default(),
                    },
                )
                .unwrap();
        }
        scene
    }

    #[test]
    fn flap_shrinks_then_restores() {
        let scene = two_node_scene();
        let legs = flap_legs(
            &scene,
            EmuTime::from_secs(5),
            NodeId(1),
            RadioId(0),
            0.2,
            EmuDuration::from_secs(3),
        )
        .unwrap();
        assert_eq!(legs.len(), 2);
        assert!(
            matches!(legs[0].1, SceneOp::SetRadioRange { range, .. } if (range - 20.0).abs() < 1e-9)
        );
        assert_eq!(legs[1].0, EmuTime::from_secs(8));
        assert!(matches!(legs[1].1, SceneOp::SetRadioRange { range, .. } if range == 100.0));
        assert!(flap_legs(&scene, EmuTime::ZERO, NodeId(9), RadioId(0), 0.5, EmuDuration::ZERO)
            .is_none());
    }

    #[test]
    fn jam_darkens_only_the_channel() {
        let scene = two_node_scene();
        let legs = jam_legs(&scene, EmuTime::from_secs(1), ChannelId(1), EmuDuration::from_secs(2));
        // Nodes 1 and 2 listen on ch1; node 3 (ch2) is untouched.
        assert_eq!(legs.len(), 4);
        let dark: Vec<NodeId> = legs
            .iter()
            .filter(|(at, _)| *at == EmuTime::from_secs(1))
            .map(|(_, op)| match op {
                SceneOp::SetRadioRange { id, range, .. } => {
                    assert_eq!(*range, 0.0);
                    *id
                }
                other => panic!("{other:?}"),
            })
            .collect();
        assert_eq!(dark, vec![NodeId(1), NodeId(2)]);
        assert!(legs.iter().any(|(at, op)| *at == EmuTime::from_secs(3)
            && matches!(op, SceneOp::SetRadioRange { range, .. } if *range == 100.0)));
    }

    #[test]
    fn crash_captures_restore_config() {
        let scene = two_node_scene();
        let (remove, restore) =
            crash_legs(&scene, EmuTime::from_secs(2), NodeId(2), Some(EmuDuration::from_secs(4)))
                .unwrap();
        assert_eq!(remove, SceneOp::RemoveNode { id: NodeId(2) });
        let (at, add) = restore.unwrap();
        assert_eq!(at, EmuTime::from_secs(6));
        assert!(matches!(
            add,
            SceneOp::AddNode { id, pos, .. } if id == NodeId(2) && pos == Point::new(20.0, 0.0)
        ));
        let (_, no_restart) = crash_legs(&scene, EmuTime::ZERO, NodeId(1), None).unwrap();
        assert!(no_restart.is_none());
        assert!(crash_legs(&scene, EmuTime::ZERO, NodeId(9), None).is_none());
    }

    #[test]
    fn metrics_count_per_kind() {
        let reg = Registry::new();
        let m = ChaosMetrics::register(&reg);
        m.injected("jam");
        m.injected("jam");
        m.injected("clock_skew");
        m.injected("not_a_kind");
        m.activate();
        let snap = reg.snapshot();
        assert_eq!(snap.counter("poem_faults_injected_total{kind=\"jam\"}"), Some(2));
        assert_eq!(snap.counter("poem_faults_injected_total{kind=\"clock_skew\"}"), Some(1));
        assert_eq!(snap.gauge("poem_faults_active"), Some(1));
        assert_eq!(m.injected_total(), 3);
        m.deactivate();
        assert_eq!(reg.snapshot().gauge("poem_faults_active"), Some(0));
    }

    #[test]
    fn injection_records_match_layers() {
        use poem_record::FaultRecord;
        let at = EmuTime::from_secs(1);
        assert!(
            injection_record(&FaultKind::WireCorrupt { node: NodeId(1), prob: 0.1 }, at).is_none()
        );
        assert!(matches!(
            injection_record(&FaultKind::Disconnect { node: NodeId(1) }, at),
            Some(FaultRecord::Transport { .. })
        ));
        assert!(matches!(
            injection_record(
                &FaultKind::Jam { channel: ChannelId(2), duration: EmuDuration::ZERO },
                at
            ),
            Some(FaultRecord::Scene { .. })
        ));
        assert!(matches!(
            injection_record(
                &FaultKind::ClockSkew { node: NodeId(1), offset: EmuDuration::from_millis(3) },
                at
            ),
            Some(FaultRecord::Clock { offset_ns: 3_000_000, .. })
        ));
    }
}
