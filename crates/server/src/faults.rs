//! The one fault executor both frontends drive.
//!
//! A [`FaultPlan`](poem_chaos::FaultPlan) entry becomes a
//! [`FaultStep::Inject`] on the frontend's timeline — [`crate::SimNet`]'s
//! event queue under virtual time, the fault driver thread's schedule
//! under wall-clock time. [`FaultExecutor::step`] runs each step: it holds
//! the only dispatch over [`FaultKind`], the only stall book, and the only
//! writer of injection, release, restore and expiry [`FaultRecord`]s, and
//! it puts every restore step back on the caller's timeline. What differs
//! between the frontends sits behind [`FaultHost`].

use crate::engine::Delivery;
use parking_lot::Mutex;
use poem_chaos::engine::{crash_legs, flap_legs, injection_record, jam_legs};
use poem_chaos::{ChaosMetrics, FaultKind};
use poem_core::scene::{Scene, SceneOp};
use poem_core::{EmuDuration, EmuPacket, EmuTime, NodeId};
use poem_obs::Registry;
use poem_record::{FaultRecord, Recorder};
use std::collections::BTreeMap;
use std::sync::Arc;

/// One entry on a frontend's fault timeline.
pub(crate) enum FaultStep {
    /// A plan entry comes due.
    Inject(FaultKind),
    /// A restore leg of a link flap or a jam.
    Op(SceneOp),
    /// A stall's deadline: release what it holds.
    Release(NodeId),
    /// A crashed node restarts with the configuration it crashed with.
    Revive(NodeId, SceneOp),
    /// A link flap or a jam ran out: close its books.
    Expire(String),
}

/// What the stall book does with a copy about to fire.
pub(crate) enum Gate {
    /// No stall in force against the receiver.
    Pass(Delivery),
    /// Held until the stall ends.
    Held,
    /// Past a slow reader's buffer: lost as a `Disconnected` drop.
    Overflow(Delivery),
    /// The stall's deadline has passed: the copies it held go out first,
    /// in their original fire order, then this one.
    Released(Delivery, Vec<Delivery>),
}

/// Packet-level wire-fault probabilities of one sender.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct WireProbs {
    pub(crate) corrupt: f64,
    pub(crate) truncate: f64,
    pub(crate) duplicate: f64,
    pub(crate) reorder: f64,
}

/// The clock fault on one sender's stamps.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct ClockFault {
    pub(crate) skew: EmuDuration,
    pub(crate) jitter: EmuDuration,
}

/// What a frontend does for the executor.
pub(crate) trait FaultHost {
    /// Runs `f` over the current scene.
    fn with_scene<R>(&self, f: impl FnOnce(&Scene) -> R) -> R;
    /// Applies a scene op through the frontend's own path: pipeline, then
    /// cluster mirror, then NIC or session upkeep. `false` when the scene
    /// refused it.
    fn apply(&mut self, op: SceneOp) -> bool;
    /// Hands a wire fault to the frontend's wire sink: a sink that takes
    /// the whole `kind`, or `set` over `node`'s packet-level probabilities.
    fn wire(&mut self, kind: &FaultKind, node: NodeId, set: impl FnOnce(&mut WireProbs));
    /// Hands a clock fault on `node`'s stamps to the frontend.
    fn clock(&mut self, node: NodeId, set: impl FnOnce(&mut ClockFault));
    /// Drops `node`'s client; the VMN stays in the scene.
    fn disconnect(&mut self, node: NodeId);
    /// Takes a crashing node's client down.
    fn park(&mut self, node: NodeId);
    /// Brings a crashed node's client back once its `AddNode` applied.
    fn revive(&mut self, node: NodeId);
    /// Fires the copies a released stall held, in order.
    fn redeliver(&mut self, held: Vec<Delivery>);
    /// Puts a step on the frontend's timeline.
    fn schedule(&mut self, at: EmuTime, step: FaultStep);
}

/// The timed scene-op legs a flap or jam compiles to.
type Legs = Vec<(EmuTime, SceneOp)>;

/// A stall or slow reader in force against one receiver.
struct Stall {
    until: EmuTime,
    /// `None` holds everything; `Some(n)` holds `n` copies and drops the
    /// overflow.
    capacity: Option<u32>,
    held: Vec<Delivery>,
}

/// The fault executor: chaos metrics, the fault log and the stall book.
pub(crate) struct FaultExecutor {
    metrics: ChaosMetrics,
    recorder: Arc<Recorder>,
    stalls: Mutex<BTreeMap<NodeId, Stall>>,
}

impl FaultExecutor {
    pub(crate) fn new(registry: &Registry, recorder: Arc<Recorder>) -> Self {
        FaultExecutor {
            metrics: ChaosMetrics::register(registry),
            recorder,
            stalls: Mutex::new(BTreeMap::new()),
        }
    }

    /// Runs one timeline step at `now`.
    pub(crate) fn step(&self, host: &mut impl FaultHost, now: EmuTime, step: FaultStep) {
        match step {
            FaultStep::Inject(kind) => self.inject(host, now, kind),
            FaultStep::Op(op) => {
                host.apply(op);
            }
            FaultStep::Release(node) => host.redeliver(self.release(node, now).unwrap_or_default()),
            FaultStep::Revive(node, add) => {
                self.close(FaultRecord::Scene { at: now, action: format!("restore {node}") });
                if host.apply(add) {
                    host.revive(node);
                }
            }
            FaultStep::Expire(action) => self.close(FaultRecord::Scene { at: now, action }),
        }
    }

    fn inject(&self, host: &mut impl FaultHost, now: EmuTime, kind: FaultKind) {
        if let Some(rec) = injection_record(&kind, now) {
            self.recorder.record_fault(rec);
        }
        // Wire kinds count per occurrence, at the sink; the rest count here.
        if kind.layer() != "wire" {
            self.metrics.injected(kind.name());
        }
        match kind {
            FaultKind::WireCorrupt { node, prob } => host.wire(&kind, node, |w| w.corrupt = prob),
            FaultKind::WireTruncate { node, prob } => host.wire(&kind, node, |w| w.truncate = prob),
            FaultKind::WireDuplicate { node, prob } => {
                host.wire(&kind, node, |w| w.duplicate = prob)
            }
            FaultKind::WireReorder { node, prob } => host.wire(&kind, node, |w| w.reorder = prob),
            FaultKind::Disconnect { node } => host.disconnect(node),
            FaultKind::Stall { node, duration } => self.stall(host, node, now + duration, None),
            FaultKind::SlowReader { node, buffer, duration } => {
                self.stall(host, node, now + duration, Some(buffer))
            }
            FaultKind::LinkFlap { node, radio, factor, duration } => {
                let legs = host.with_scene(|s| flap_legs(s, now, node, radio, factor, duration));
                let expire = (now + duration, format!("link_flap {node} restore"));
                self.timed(host, now, legs.unwrap_or_default(), expire);
            }
            FaultKind::Jam { channel, duration } => {
                let legs = host.with_scene(|s| jam_legs(s, now, channel, duration));
                let expire = (now + duration, format!("jam ch{} restore", channel.0));
                self.timed(host, now, legs, expire);
            }
            FaultKind::Crash { node, restart_after } => {
                let legs = host.with_scene(|s| crash_legs(s, now, node, restart_after));
                let Some((remove, restore)) = legs else { return };
                host.park(node);
                if host.apply(remove) {
                    if let Some((at, add)) = restore {
                        self.metrics.activate();
                        host.schedule(at, FaultStep::Revive(node, add));
                    }
                }
            }
            FaultKind::ClockSkew { node, offset } => host.clock(node, |c| c.skew = offset),
            FaultKind::ClockJitter { node, std_dev } => host.clock(node, |c| c.jitter = std_dev),
        }
    }

    /// A flap or jam: applies the legs due now, schedules the rest, and
    /// closes the books at the fault's end. No legs, no fault.
    fn timed(&self, host: &mut impl FaultHost, now: EmuTime, legs: Legs, end: (EmuTime, String)) {
        if legs.is_empty() {
            return;
        }
        self.metrics.activate();
        for (at, op) in legs {
            if at <= now {
                host.apply(op);
            } else {
                host.schedule(at, FaultStep::Op(op));
            }
        }
        host.schedule(end.0, FaultStep::Expire(end.1));
    }

    /// Starts a stall, or extends the one in force: a re-stall moves
    /// `until` out (never in), takes the new capacity, and keeps the
    /// copies already held.
    fn stall(&self, host: &mut impl FaultHost, node: NodeId, until: EmuTime, cap: Option<u32>) {
        let mut stalls = self.stalls.lock();
        let st = stalls.entry(node).or_insert_with(|| {
            self.metrics.activate();
            Stall { until, capacity: cap, held: Vec::new() }
        });
        st.until = st.until.max(until);
        st.capacity = cap;
        drop(stalls);
        host.schedule(until, FaultStep::Release(node));
    }

    /// Whether any stall is in force (expired ones not yet released
    /// included).
    pub(crate) fn stalling(&self) -> bool {
        !self.stalls.lock().is_empty()
    }

    /// Gates a copy about to fire at `now` through the stall book. A
    /// stall whose deadline has passed is released by the first gate that
    /// finds it, so a late `Release` step can never let later copies
    /// overtake held ones.
    pub(crate) fn gate(&self, d: Delivery, now: EmuTime) -> Gate {
        let mut stalls = self.stalls.lock();
        let Some(st) = stalls.get_mut(&d.to) else { return Gate::Pass(d) };
        if now >= st.until {
            let held = stalls.remove(&d.to).map(|st| st.held).unwrap_or_default();
            drop(stalls);
            self.close(FaultRecord::Transport { at: now, node: d.to, action: "release".into() });
            return Gate::Released(d, held);
        }
        if st.capacity.is_some_and(|cap| st.held.len() >= cap as usize) {
            return Gate::Overflow(d);
        }
        st.held.push(d);
        Gate::Held
    }

    /// Ends `node`'s stall at its deadline. `None` when a gate released it
    /// already, or a re-stall moved the deadline out.
    fn release(&self, node: NodeId, now: EmuTime) -> Option<Vec<Delivery>> {
        let mut stalls = self.stalls.lock();
        if stalls.get(&node)?.until > now {
            return None;
        }
        let held = stalls.remove(&node)?.held;
        drop(stalls);
        self.close(FaultRecord::Transport { at: now, node, action: "release".into() });
        Some(held)
    }

    /// A timed fault ended: the gauge drops and the log says how.
    fn close(&self, rec: FaultRecord) {
        self.metrics.deactivate();
        self.recorder.record_fault(rec);
    }

    /// Counts and records one wire-fault occurrence at a packet sink.
    pub(crate) fn note_wire(&self, at: EmuTime, action: &str, pkt: &EmuPacket) {
        self.metrics.injected(action);
        let (node, bytes) = (pkt.src, pkt.wire_size() as u32);
        self.recorder.record_fault(FaultRecord::Wire { at, node, action: action.into(), bytes });
    }
}
