//! The cluster coordinator: spawns `poem-shardd` workers, feeds each its
//! mirror sub-scene (owned nodes plus halo), fans decision batches out to
//! the shard owning each packet's sender, and settles the results into
//! the record log in exactly the order the single-process pipeline would
//! have produced — the byte-identity contract.
//!
//! The coordinator holds **no authoritative scene**: the embedding
//! server's pipeline scene stays the single source of truth, and every
//! method that needs node state takes it as an argument. What the
//! coordinator does own is *placement*: the [`TilePartition`] (pins +
//! tile overrides), the current [`Membership`], and the worker
//! connections.
//!
//! Timeout handling never consults a wall clock (`crates/cluster` is in
//! the workspace determinism scope): waits are counted in poll ticks on
//! sockets with a read timeout, so "how long did we wait" is `polls ×
//! poll_tick` — reproducible arithmetic, not `Instant::now`.

use crate::decide::{settle_packet, unrouted, Delivery, SettleCounters};
use crate::error::ClusterError;
use poem_core::partition::{Membership, TilePartition};
use poem_core::scene::{Scene, SceneOp};
use poem_core::{EmuPacket, EmuTime, NodeId};
use poem_obs::{Counter, Gauge, Registry};
use poem_proto::{ClusterMsg, FrameDecoder, MsgWriter, TargetDecision, PROTOCOL_VERSION};
use poem_record::Recorder;
use std::collections::{BTreeMap, BTreeSet};
use std::io::Read;
use std::net::{TcpListener, TcpStream};
use std::path::PathBuf;
use std::process::{Child, Command, Stdio};
use std::time::Duration;

/// Cluster deployment parameters.
#[derive(Debug, Clone)]
pub struct ClusterConfig {
    /// Worker process count (≥ 1).
    pub workers: u32,
    /// Spatial tile edge; must be ≥ the longest radio range in the scene.
    pub tile_edge: f64,
    /// Emulation seed, shipped to workers so their profile books match
    /// the coordinator side.
    pub seed: u64,
    /// Empirical profile library text to install on every worker.
    pub profiles: Option<String>,
    /// DUNE-style placement constraints: nodes pinned to a shard.
    pub pins: Vec<(NodeId, u32)>,
    /// Owned-node imbalance (spread over mean, percent) above which the
    /// rebalancer migrates tiles at sync points. `0` disables.
    pub rebalance_threshold_pct: f64,
    /// Upper bound on tile migrations per sync.
    pub max_moves_per_sync: u32,
    /// Socket poll granularity for worker reads.
    pub poll_tick: Duration,
    /// Polls before an unresponsive worker is declared hung.
    pub poll_limit: u32,
    /// Explicit `poem-shardd` binary path; when unset, resolution falls
    /// back to `POEM_SHARDD`, then the running executable's ancestor
    /// directories, then `PATH`.
    pub binary: Option<PathBuf>,
}

impl Default for ClusterConfig {
    fn default() -> Self {
        ClusterConfig {
            workers: 2,
            tile_edge: 250.0,
            seed: 0,
            profiles: None,
            pins: Vec::new(),
            rebalance_threshold_pct: 0.0,
            max_moves_per_sync: 4,
            poll_tick: Duration::from_millis(20),
            poll_limit: 500,
            binary: None,
        }
    }
}

/// Cross-shard `Forward` notices wait on the target owner's link for the
/// next frame bound there; a link nothing else is written to (a shard that
/// only listens, a scene that never syncs) is written once this many bytes
/// of them have queued. A bound on memory, not a tuning point: the notices
/// are accounting only.
const NOTICE_CORK_BYTES: usize = 64 * 1024;

/// What the fleet decided for one batch of packets:
/// [`Coordinator::decide`]'s result, consumed packet by packet by
/// [`Coordinator::settle`].
#[derive(Debug)]
pub struct Decided {
    /// The shard that decided each packet; `None` for an unknown sender.
    owners: Vec<Option<u32>>,
    /// Per-packet outcomes, taken as each packet settles.
    targets: Vec<Option<Vec<TargetDecision>>>,
}

/// One live worker connection.
struct WorkerLink {
    shard: u32,
    child: Child,
    writer: MsgWriter<TcpStream>,
    /// Read half: a stream clone with a read timeout of one poll tick.
    rx: TcpStream,
    decoder: FrameDecoder,
}

/// Per-cluster observability instruments.
struct ClusterMetrics {
    batches: std::sync::Arc<Counter>,
    forward_local: std::sync::Arc<Counter>,
    forward_cross: std::sync::Arc<Counter>,
    halo_updates: std::sync::Arc<Counter>,
    halo_nodes: std::sync::Arc<Gauge>,
    rebalance_moves: std::sync::Arc<Counter>,
    barriers: std::sync::Arc<Counter>,
    shard_owned: Vec<std::sync::Arc<Gauge>>,
}

impl ClusterMetrics {
    fn new(registry: &Registry, shards: u32) -> Self {
        ClusterMetrics {
            batches: registry.counter("poem_cluster_batches_total"),
            forward_local: registry.counter("poem_cluster_forward_total{kind=\"local\"}"),
            forward_cross: registry.counter("poem_cluster_forward_total{kind=\"cross\"}"),
            halo_updates: registry.counter("poem_cluster_halo_updates_total"),
            halo_nodes: registry.gauge("poem_cluster_halo_nodes"),
            rebalance_moves: registry.counter("poem_cluster_rebalance_moves_total"),
            barriers: registry.counter("poem_cluster_barriers_total"),
            shard_owned: (0..shards)
                .map(|s| registry.gauge(&format!("poem_cluster_shard_owned{{shard=\"{s}\"}}")))
                .collect(),
        }
    }
}

/// The coordinator for one distributed emulation.
pub struct Coordinator {
    cfg: ClusterConfig,
    partition: TilePartition,
    membership: Membership,
    workers: Vec<WorkerLink>,
    epoch: u64,
    metrics: ClusterMetrics,
    /// The packet, copy and drop counters the embedding pipeline moves
    /// for the packets it decides itself.
    counters: SettleCounters,
}

/// Resolves the worker binary: explicit config path, then the
/// `POEM_SHARDD` environment variable, then a `poem-shardd` sitting next
/// to (or above) the running executable — which finds the cargo target
/// directory from test binaries — then bare `poem-shardd` on `PATH`.
fn shardd_binary(cfg: &ClusterConfig) -> PathBuf {
    if let Some(p) = &cfg.binary {
        return p.clone();
    }
    if let Ok(p) = std::env::var("POEM_SHARDD") {
        if !p.is_empty() {
            return PathBuf::from(p);
        }
    }
    if let Ok(exe) = std::env::current_exe() {
        for dir in exe.ancestors().skip(1) {
            let cand = dir.join("poem-shardd");
            if cand.is_file() {
                return cand;
            }
        }
    }
    PathBuf::from("poem-shardd")
}

/// The node an op concerns, used to route it to the workers mirroring
/// that node. `SetArena` is global (`None` → broadcast).
fn subject_of(op: &SceneOp) -> Option<NodeId> {
    match op {
        SceneOp::AddNode { id, .. }
        | SceneOp::RemoveNode { id }
        | SceneOp::MoveNode { id, .. }
        | SceneOp::SetRadioChannel { id, .. }
        | SceneOp::SetRadioRange { id, .. }
        | SceneOp::SetRadios { id, .. }
        | SceneOp::SetMobility { id, .. }
        | SceneOp::SetLinkParams { id, .. }
        | SceneOp::SetLinkProfile { id, .. } => Some(*id),
        SceneOp::SetArena { .. } => None,
    }
}

/// Whether an op can change placement. [`Membership`] is a function of
/// node ids and positions, so an op that neither adds, removes nor moves
/// a node (and leaves the arena alone) cannot.
fn changes_membership(op: &SceneOp) -> bool {
    match op {
        SceneOp::AddNode { .. }
        | SceneOp::RemoveNode { .. }
        | SceneOp::MoveNode { .. }
        | SceneOp::SetArena { .. } => true,
        SceneOp::SetRadioChannel { .. }
        | SceneOp::SetRadioRange { .. }
        | SceneOp::SetRadios { .. }
        | SceneOp::SetMobility { .. }
        | SceneOp::SetLinkParams { .. }
        | SceneOp::SetLinkProfile { .. } => false,
    }
}

/// Whether a worker whose mirror goes from `old` to `new` gets the op
/// itself: global ops always, node ops when the subject is mirrored before
/// and after (a subject entering or leaving travels in the halo diff).
fn mirrors_subject(
    subject: Option<NodeId>,
    old: &BTreeSet<NodeId>,
    new: &BTreeSet<NodeId>,
) -> bool {
    subject.is_none_or(|id| old.contains(&id) && new.contains(&id))
}

/// The longest radio range an op can introduce, if any — checked against
/// the tile edge so a runtime reconfiguration cannot silently break the
/// halo invariant.
fn op_max_range(op: &SceneOp) -> Option<f64> {
    match op {
        SceneOp::AddNode { radios, .. } | SceneOp::SetRadios { radios, .. } => radios
            .radios()
            .iter()
            .map(|r| r.range)
            .fold(None, |m: Option<f64>, r| Some(m.map_or(r, |v| v.max(r)))),
        SceneOp::SetRadioRange { range, .. } => Some(*range),
        _ => None,
    }
}

fn is_poll_expiry(e: &std::io::Error) -> bool {
    matches!(e.kind(), std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut)
}

/// Receives one message from a worker, polling in `poll_tick` steps and
/// watching the child process so a dead or hung shard surfaces as a
/// structured error instead of a stuck barrier.
fn recv_from(
    link: &mut WorkerLink,
    poll_tick: Duration,
    poll_limit: u32,
) -> Result<ClusterMsg, ClusterError> {
    let mut polls: u32 = 0;
    let mut buf = [0u8; 16 * 1024];
    loop {
        if let Some(msg) = link.decoder.next_msg::<ClusterMsg>()? {
            return Ok(msg);
        }
        match link.rx.read(&mut buf) {
            Ok(0) => {
                let status = link.child.try_wait().ok().flatten().and_then(|s| s.code());
                return Err(ClusterError::ShardDied { shard: link.shard, status });
            }
            Ok(n) => link.decoder.feed(&buf[..n]),
            Err(e) if is_poll_expiry(&e) => {
                if let Ok(Some(status)) = link.child.try_wait() {
                    return Err(ClusterError::ShardDied {
                        shard: link.shard,
                        status: status.code(),
                    });
                }
                polls += 1;
                if polls >= poll_limit.max(1) {
                    return Err(ClusterError::ShardTimeout {
                        shard: link.shard,
                        waited: poll_tick * polls,
                    });
                }
            }
            Err(e) => return Err(ClusterError::Io(e)),
        }
    }
}

/// Kills and reaps a set of children — launch-failure cleanup.
struct ChildGuard(Vec<Child>);

impl Drop for ChildGuard {
    fn drop(&mut self) {
        for c in &mut self.0 {
            let _ = c.kill();
            let _ = c.wait();
        }
    }
}

impl Coordinator {
    /// Spawns the worker fleet, ships every worker its mirror sub-scene,
    /// and runs the first barrier. `decide_base` must be the embedding
    /// pipeline's decision-stream base so worker decisions land on the
    /// same per-packet streams, and `registry` its metric registry so
    /// settled packets move the pipeline's packet, copy and drop counters.
    pub fn launch(
        cfg: ClusterConfig,
        decide_base: u64,
        scene: &Scene,
        registry: &Registry,
    ) -> Result<Self, ClusterError> {
        let max_range = scene
            .nodes()
            .flat_map(|v| v.radios.radios().iter().map(|r| r.range))
            .fold(0.0_f64, f64::max);
        if max_range > cfg.tile_edge {
            return Err(ClusterError::TileTooSmall { tile_edge: cfg.tile_edge, max_range });
        }
        let mut partition = TilePartition::new(cfg.workers, cfg.tile_edge);
        for &(node, shard) in &cfg.pins {
            partition.pin(node, shard);
        }
        let membership = partition.membership(scene.nodes().map(|v| (v.id, v.pos)));

        let listener = TcpListener::bind(("127.0.0.1", 0))?;
        let addr = listener.local_addr()?;
        listener.set_nonblocking(true)?;
        let binary = shardd_binary(&cfg);
        let n = cfg.workers.max(1) as usize;
        let mut guard = ChildGuard(Vec::with_capacity(n));
        for _ in 0..n {
            let child = Command::new(&binary)
                .arg(addr.to_string())
                .stdin(Stdio::null())
                .spawn()
                .map_err(|source| ClusterError::Spawn { binary: binary.clone(), source })?;
            guard.0.push(child);
        }

        // Accept one connection per spawned worker. Workers are
        // interchangeable until Assign names their shard, so the i-th
        // accepted connection simply becomes shard i.
        let mut streams: Vec<TcpStream> = Vec::with_capacity(n);
        let mut polls: u32 = 0;
        while streams.len() < n {
            match listener.accept() {
                Ok((s, _)) => {
                    s.set_nodelay(true)?;
                    streams.push(s);
                }
                Err(e) if is_poll_expiry(&e) => {
                    for (i, c) in guard.0.iter_mut().enumerate() {
                        if let Ok(Some(status)) = c.try_wait() {
                            return Err(ClusterError::ShardDied {
                                shard: i as u32,
                                status: status.code(),
                            });
                        }
                    }
                    polls += 1;
                    if polls >= cfg.poll_limit.max(1) {
                        return Err(ClusterError::ShardTimeout {
                            shard: streams.len() as u32,
                            waited: cfg.poll_tick * polls,
                        });
                    }
                    std::thread::sleep(cfg.poll_tick);
                }
                Err(e) => return Err(ClusterError::Io(e)),
            }
        }

        let children = std::mem::take(&mut guard.0);
        drop(guard);
        let mut workers = Vec::with_capacity(n);
        for (i, (stream, child)) in streams.into_iter().zip(children).enumerate() {
            let rx = stream.try_clone()?;
            rx.set_read_timeout(Some(cfg.poll_tick))?;
            workers.push(WorkerLink {
                shard: i as u32,
                child,
                writer: MsgWriter::new(stream),
                rx,
                decoder: FrameDecoder::new(),
            });
        }

        let metrics = ClusterMetrics::new(registry, cfg.workers.max(1));
        let counters = SettleCounters::new(registry);
        let mut coord =
            Coordinator { cfg, partition, membership, workers, epoch: 0, metrics, counters };

        // Handshake: assignment, mirror sub-scene, arena, first barrier —
        // queued per worker and written once, by the barrier.
        let shards = coord.cfg.workers.max(1);
        for link in &mut coord.workers {
            link.writer.queue(&ClusterMsg::Assign {
                version: PROTOCOL_VERSION,
                shard: link.shard,
                shards,
                seed: coord.cfg.seed,
                decide_base,
                profiles: coord.cfg.profiles.clone(),
            })?;
            let enter: Vec<SceneOp> = coord.membership.members[&link.shard]
                .iter()
                .filter_map(|id| scene.node(*id))
                .map(add_op)
                .collect();
            coord.metrics.halo_updates.inc();
            link.writer.queue(&ClusterMsg::HaloUpdate {
                at: EmuTime::ZERO,
                enter,
                leave: Vec::new(),
            })?;
            if scene.arena().is_some() {
                link.writer.queue(&ClusterMsg::Op {
                    at: EmuTime::ZERO,
                    op: SceneOp::SetArena { arena: scene.arena().copied() },
                })?;
            }
        }
        coord.barrier()?;
        Ok(coord)
    }

    /// Shard count.
    pub fn shards(&self) -> u32 {
        self.cfg.workers.max(1)
    }

    /// OS process ids of the shard workers, in shard order — for
    /// operators (and fault-injection tests) that need to reach the
    /// fleet from outside.
    pub fn worker_pids(&self) -> Vec<u32> {
        self.workers.iter().map(|w| w.child.id()).collect()
    }

    /// Mirrors one scene operation across the fleet. `scene_after` is the
    /// authoritative scene *with the op already applied*; membership
    /// changes (adds, removes, tile-crossing moves) are shipped as halo
    /// diffs built from it, everything else as the op itself to the
    /// workers already mirroring the subject. Each worker gets its frames
    /// in one write.
    pub fn apply_op(
        &mut self,
        at: EmuTime,
        op: &SceneOp,
        scene_after: &Scene,
    ) -> Result<(), ClusterError> {
        if let Some(range) = op_max_range(op) {
            if range > self.partition.tile_edge() {
                return Err(ClusterError::TileTooSmall {
                    tile_edge: self.partition.tile_edge(),
                    max_range: range,
                });
            }
        }
        // Placement is a function of node ids and positions alone: only
        // ops that can change those pay for recomputing it.
        let new = changes_membership(op)
            .then(|| self.partition.membership(scene_after.nodes().map(|v| (v.id, v.pos))));
        let subject = subject_of(op);
        for link in &mut self.workers {
            let old_m = &self.membership.members[&link.shard];
            let new_m = new.as_ref().map_or(old_m, |n| &n.members[&link.shard]);
            if mirrors_subject(subject, old_m, new_m) {
                link.writer.queue(&ClusterMsg::Op { at, op: op.clone() })?;
            }
            let enter: Vec<SceneOp> = new_m
                .difference(old_m)
                .filter_map(|id| scene_after.node(*id))
                .map(add_op)
                .collect();
            let leave: Vec<NodeId> = old_m.difference(new_m).copied().collect();
            if !enter.is_empty() || !leave.is_empty() {
                self.metrics.halo_updates.inc();
                link.writer.queue(&ClusterMsg::HaloUpdate { at, enter, leave })?;
            }
            link.writer.flush()?;
        }
        if let Some(new) = new {
            self.membership = new;
            self.update_gauges();
        }
        Ok(())
    }

    /// Synchronization point, called once per mobility step after the
    /// authoritative scene's mobility advance: optionally rebalances
    /// placement, ships position updates and halo diffs, and runs a
    /// barrier so every worker has consumed them before the next batch.
    /// Everything bound for one worker, barrier included, is one write;
    /// its `MoveNode`s arrive back to back, which is what lets the worker
    /// relink them in bulk.
    pub fn sync(&mut self, at: EmuTime, scene: &Scene) -> Result<(), ClusterError> {
        self.rebalance(scene);
        let new = self.partition.membership(scene.nodes().map(|v| (v.id, v.pos)));
        for link in &mut self.workers {
            let old_m = &self.membership.members[&link.shard];
            let new_m = &new.members[&link.shard];
            for id in old_m.intersection(new_m) {
                let Some(v) = scene.node(*id) else { continue };
                // Stationary nodes never move; skip the no-op update.
                if matches!(v.mobility, poem_core::mobility::MobilityModel::Stationary) {
                    continue;
                }
                link.writer
                    .queue(&ClusterMsg::Op { at, op: SceneOp::MoveNode { id: *id, pos: v.pos } })?;
            }
            let enter: Vec<SceneOp> =
                new_m.difference(old_m).filter_map(|id| scene.node(*id)).map(add_op).collect();
            let leave: Vec<NodeId> = old_m.difference(new_m).copied().collect();
            if !enter.is_empty() || !leave.is_empty() {
                self.metrics.halo_updates.inc();
                link.writer.queue(&ClusterMsg::HaloUpdate { at, enter, leave })?;
            }
        }
        self.membership = new;
        self.barrier()
    }

    /// Greedy constraint-respecting rebalancer: while owned-node spread
    /// exceeds the threshold, migrate the most-loaded shard's
    /// least-populated tile to the least-loaded shard. Pinned nodes never
    /// count toward a migration (their placement is a constraint) and
    /// never move. Placement changes cannot change results — decisions
    /// ride per-packet RNG streams — so this is purely a load lever.
    fn rebalance(&mut self, scene: &Scene) {
        if self.cfg.rebalance_threshold_pct <= 0.0 || self.shards() < 2 {
            return;
        }
        for _ in 0..self.cfg.max_moves_per_sync {
            let mut owned = vec![0u64; self.shards() as usize];
            // Unpinned node count per tile on the most-loaded shard.
            let mut donor_tiles: BTreeMap<(i64, i64), u64> = BTreeMap::new();
            for v in scene.nodes() {
                owned[self.partition.owner_of(v.id, v.pos) as usize] += 1;
            }
            let total: u64 = owned.iter().sum();
            if total == 0 {
                return;
            }
            let max_s = (0..owned.len()).max_by_key(|&s| owned[s]).unwrap_or(0);
            let min_s = (0..owned.len()).min_by_key(|&s| owned[s]).unwrap_or(0);
            let mean = total as f64 / owned.len() as f64;
            let spread_pct = (owned[max_s] - owned[min_s]) as f64 / mean * 100.0;
            if spread_pct <= self.cfg.rebalance_threshold_pct {
                return;
            }
            for v in scene.nodes() {
                if self.partition.pins().contains_key(&v.id) {
                    continue;
                }
                let tile = self.partition.tile_of(v.pos);
                if self.partition.owner_of_tile(tile) == max_s as u32 {
                    *donor_tiles.entry(tile).or_insert(0) += 1;
                }
            }
            // Least-populated occupied tile: the cheapest migration that
            // still makes progress (ties resolve in tile order —
            // deterministic).
            let Some((&tile, _)) = donor_tiles.iter().min_by_key(|&(tile, count)| (*count, *tile))
            else {
                return;
            };
            self.partition.reassign_tile(tile, min_s as u32);
            self.metrics.rebalance_moves.inc();
        }
    }

    /// Fans a batch of ingress packets out to their owner shards, waits
    /// for every decision, and settles results **in batch order** with
    /// per-packet records exactly as the single-process pipeline emits
    /// them: [`Coordinator::decide`], then [`Coordinator::settle`] for
    /// every packet at the one `received_at`.
    pub fn ingest_batch(
        &mut self,
        pkts: &[EmuPacket],
        received_at: EmuTime,
        recorder: &Recorder,
    ) -> Result<Vec<Delivery>, ClusterError> {
        let mut decided = self.decide(pkts, received_at)?;
        let mut out = Vec::new();
        for (idx, pkt) in pkts.iter().enumerate() {
            self.settle(&mut decided, idx, pkt, received_at, recorder, &mut out)?;
        }
        Ok(out)
    }

    /// The wire half of a batch: ships one `Batch` frame to every shard
    /// owning a sender in `pkts` and collects the replies. Decisions are a
    /// pure function of `(mirror scene, packet)`, so nothing observable
    /// happens here — no record, no counter a log depends on — until
    /// [`Coordinator::settle`] consumes the result.
    pub fn decide(
        &mut self,
        pkts: &[EmuPacket],
        received_at: EmuTime,
    ) -> Result<Decided, ClusterError> {
        let mut owners: Vec<Option<u32>> = Vec::with_capacity(pkts.len());
        let mut per_shard: BTreeMap<u32, Vec<(u32, EmuPacket)>> = BTreeMap::new();
        for (idx, pkt) in pkts.iter().enumerate() {
            let owner = self.membership.owner.get(&pkt.src).copied();
            owners.push(owner);
            if let Some(s) = owner {
                per_shard.entry(s).or_default().push((idx as u32, pkt.clone()));
            }
        }
        let involved: Vec<u32> = per_shard.keys().copied().collect();
        for (shard, batch) in per_shard {
            self.metrics.batches.inc();
            self.workers[shard as usize]
                .writer
                .send(&ClusterMsg::Batch { received_at, pkts: batch })?;
        }
        let mut targets: Vec<Option<Vec<TargetDecision>>> = vec![None; pkts.len()];
        for shard in involved {
            let link = &mut self.workers[shard as usize];
            match recv_from(link, self.cfg.poll_tick, self.cfg.poll_limit)? {
                ClusterMsg::BatchResult { results } => {
                    for pd in results {
                        let slot = targets.get_mut(pd.idx as usize).ok_or_else(|| {
                            ClusterError::Protocol {
                                shard,
                                detail: format!("decision for unknown batch index {}", pd.idx),
                            }
                        })?;
                        *slot = Some(pd.targets);
                    }
                }
                other => {
                    return Err(ClusterError::Protocol {
                        shard,
                        detail: format!("expected BatchResult, got {other:?}"),
                    })
                }
            }
        }
        Ok(Decided { owners, targets })
    }

    /// The record half, for packet `idx` of a decided batch: settles the
    /// worker's outcomes exactly as the pipeline settles its own
    /// ([`settle_packet`], off the client stamp — workers run no MAC),
    /// appends the surviving copies to `out`, and counts local versus
    /// cross-shard forwards. A cross-shard notice is queued on the target
    /// owner's link and leaves with the next write to it (see
    /// `NOTICE_CORK_BYTES`). Callers settle a batch's packets in order,
    /// each once.
    pub fn settle(
        &mut self,
        decided: &mut Decided,
        idx: usize,
        pkt: &EmuPacket,
        received_at: EmuTime,
        recorder: &Recorder,
        out: &mut Vec<Delivery>,
    ) -> Result<(), ClusterError> {
        let decider = decided.owners.get(idx).copied().flatten();
        let decisions = match decider {
            // Unknown sender: the pipeline's routing comes up empty.
            None => unrouted(pkt).into_iter().collect(),
            Some(shard) => {
                decided.targets.get_mut(idx).and_then(Option::take).ok_or_else(|| {
                    ClusterError::Protocol {
                        shard,
                        detail: format!("no decision returned for {}", pkt.id),
                    }
                })?
            }
        };
        let settled = out.len();
        settle_packet(
            pkt,
            received_at,
            pkt.sent_at,
            &decisions,
            &self.counters,
            recorder,
            |_| true,
            out,
        );
        for d in &out[settled..] {
            match self.membership.owner.get(&d.to) {
                Some(&owner) if Some(owner) != decider => {
                    self.metrics.forward_cross.inc();
                    let writer = &mut self.workers[owner as usize].writer;
                    writer.queue(&ClusterMsg::Forward {
                        id: pkt.id,
                        to: d.to,
                        fire_at: d.fire_at,
                    })?;
                    if writer.queued() >= NOTICE_CORK_BYTES {
                        writer.flush()?;
                    }
                }
                _ => self.metrics.forward_local.inc(),
            }
        }
        Ok(())
    }

    /// Runs one barrier: every worker acknowledges the epoch after
    /// reporting its metrics, so all prior messages on every link have
    /// been consumed. The worker's reported mirror size is cross-checked
    /// against the coordinator's member set — a mismatch means halo
    /// bookkeeping diverged and the run cannot be trusted.
    fn barrier(&mut self) -> Result<(), ClusterError> {
        self.epoch += 1;
        let epoch = self.epoch;
        for link in &mut self.workers {
            link.writer.send(&ClusterMsg::Barrier { epoch })?;
        }
        let (tick, limit) = (self.cfg.poll_tick, self.cfg.poll_limit);
        for i in 0..self.workers.len() {
            let expect_members = self.membership.members[&(i as u32)].len() as u64;
            let link = &mut self.workers[i];
            match recv_from(link, tick, limit)? {
                ClusterMsg::Metrics { shard, member_nodes, .. } => {
                    if shard != link.shard {
                        return Err(ClusterError::Protocol {
                            shard: link.shard,
                            detail: format!("metrics claim shard {shard}"),
                        });
                    }
                    if member_nodes != expect_members {
                        return Err(ClusterError::Protocol {
                            shard: link.shard,
                            detail: format!(
                                "mirror holds {member_nodes} nodes, coordinator expects {expect_members}"
                            ),
                        });
                    }
                }
                other => {
                    return Err(ClusterError::Protocol {
                        shard: link.shard,
                        detail: format!("expected Metrics, got {other:?}"),
                    })
                }
            }
            match recv_from(link, tick, limit)? {
                ClusterMsg::BarrierAck { epoch: e, shard } => {
                    if e != epoch || shard != link.shard {
                        return Err(ClusterError::Protocol {
                            shard: link.shard,
                            detail: format!("barrier ack ({e}, {shard}) for epoch {epoch}"),
                        });
                    }
                }
                other => {
                    return Err(ClusterError::Protocol {
                        shard: link.shard,
                        detail: format!("expected BarrierAck, got {other:?}"),
                    })
                }
            }
        }
        self.metrics.barriers.inc();
        self.update_gauges();
        Ok(())
    }

    fn update_gauges(&self) {
        let mut owned = vec![0i64; self.shards() as usize];
        for &s in self.membership.owner.values() {
            if let Some(slot) = owned.get_mut(s as usize) {
                *slot += 1;
            }
        }
        let mut halo = 0i64;
        for (shard, members) in &self.membership.members {
            halo += members.len() as i64 - owned.get(*shard as usize).copied().unwrap_or(0);
        }
        for (s, count) in owned.iter().enumerate() {
            self.metrics.shard_owned[s].set(*count);
        }
        self.metrics.halo_nodes.set(halo);
    }

    /// Orderly teardown: asks every worker to exit, reaps each with a
    /// bounded poll, and kills stragglers. Send failures are ignored —
    /// a worker that already died needs no goodbye.
    pub fn shutdown(&mut self) {
        for link in &mut self.workers {
            let _ = link.writer.send(&ClusterMsg::Shutdown);
        }
        for link in &mut self.workers {
            let mut polls = 0;
            loop {
                match link.child.try_wait() {
                    Ok(Some(_)) | Err(_) => break,
                    Ok(None) => {
                        polls += 1;
                        if polls >= self.cfg.poll_limit.max(1) {
                            let _ = link.child.kill();
                            let _ = link.child.wait();
                            break;
                        }
                        std::thread::sleep(self.cfg.poll_tick);
                    }
                }
            }
        }
        self.workers.clear();
    }
}

impl Drop for Coordinator {
    fn drop(&mut self) {
        for link in &mut self.workers {
            let _ = link.child.kill();
            let _ = link.child.wait();
        }
    }
}

/// Builds the `AddNode` op that reconstructs `v` on a worker mirror
/// (mobility runtime state stays coordinator-side; workers never
/// integrate motion).
fn add_op(v: &poem_core::scene::Vmn) -> SceneOp {
    SceneOp::AddNode {
        id: v.id,
        pos: v.pos,
        radios: v.radios.clone(),
        mobility: v.mobility,
        link: v.link,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use poem_core::linkmodel::LinkParams;
    use poem_core::mobility::MobilityModel;
    use poem_core::radio::RadioConfig;
    use poem_core::{ChannelId, Point};

    fn scene_of(n: u32, spacing: f64, range: f64) -> Scene {
        let mut s = Scene::new();
        for i in 0..n {
            s.apply(
                EmuTime::ZERO,
                &SceneOp::AddNode {
                    id: NodeId(i),
                    pos: Point::new(f64::from(i) * spacing, 0.0),
                    radios: RadioConfig::single(ChannelId(1), range),
                    mobility: MobilityModel::Stationary,
                    link: LinkParams::ideal(8e6),
                },
            )
            .unwrap();
        }
        s
    }

    #[test]
    fn launch_rejects_tile_edge_below_radio_range() {
        let scene = scene_of(4, 50.0, 300.0);
        let cfg = ClusterConfig { tile_edge: 100.0, ..ClusterConfig::default() };
        match Coordinator::launch(cfg, 1, &scene, &Registry::new()) {
            Err(ClusterError::TileTooSmall { tile_edge, max_range }) => {
                assert_eq!(tile_edge, 100.0);
                assert_eq!(max_range, 300.0);
            }
            other => panic!("{:?}", other.map(|_| ())),
        }
    }

    #[test]
    fn launch_surfaces_missing_binary_as_spawn_error() {
        let scene = scene_of(2, 50.0, 100.0);
        let cfg = ClusterConfig {
            tile_edge: 100.0,
            binary: Some(PathBuf::from("/nonexistent/poem-shardd")),
            ..ClusterConfig::default()
        };
        match Coordinator::launch(cfg, 1, &scene, &Registry::new()) {
            Err(ClusterError::Spawn { binary, .. }) => {
                assert_eq!(binary, PathBuf::from("/nonexistent/poem-shardd"));
            }
            other => panic!("{:?}", other.map(|_| ())),
        }
    }

    /// A spawnable binary that is not a worker (never connects / exits
    /// immediately) must surface as ShardDied or ShardTimeout — never a
    /// hang.
    #[test]
    fn launch_detects_worker_that_never_connects() {
        let scene = scene_of(2, 50.0, 100.0);
        let cfg = ClusterConfig {
            tile_edge: 100.0,
            binary: Some(PathBuf::from("/bin/false")),
            poll_tick: Duration::from_millis(5),
            poll_limit: 200,
            ..ClusterConfig::default()
        };
        match Coordinator::launch(cfg, 1, &scene, &Registry::new()) {
            Err(ClusterError::ShardDied { .. }) | Err(ClusterError::ShardTimeout { .. }) => {}
            other => panic!("{:?}", other.map(|_| ())),
        }
    }

    #[test]
    fn subject_routing_distinguishes_global_ops() {
        assert_eq!(subject_of(&SceneOp::SetArena { arena: None }), None);
        assert_eq!(
            subject_of(&SceneOp::MoveNode { id: NodeId(7), pos: Point::new(1.0, 2.0) }),
            Some(NodeId(7))
        );
    }

    /// Ops that neither add, remove nor move a node skip the placement
    /// rebuild in `apply_op`: the rebuild would have returned what is
    /// already held, and the op still goes to exactly the workers
    /// mirroring its subject.
    #[test]
    fn reconfiguring_ops_leave_membership_alone_and_reach_the_subjects_mirrors() {
        // Node 0 deep inside shard 0's territory, node 2 deep inside shard
        // 1's, node 1 owned by shard 0 next to node 3 owned by shard 1 —
        // so 1 and 3 are mirrored on both shards, 0 and 2 on one each.
        let mut scene = scene_of(3, 1_000.0, 100.0);
        scene
            .apply(
                EmuTime::ZERO,
                &SceneOp::AddNode {
                    id: NodeId(3),
                    pos: Point::new(1_050.0, 0.0),
                    radios: RadioConfig::single(ChannelId(1), 100.0),
                    mobility: MobilityModel::Stationary,
                    link: LinkParams::ideal(8e6),
                },
            )
            .unwrap();
        let mut partition = TilePartition::new(2, 100.0);
        for (node, shard) in [(0, 0), (1, 0), (2, 1), (3, 1)] {
            partition.pin(NodeId(node), shard);
        }
        let placement = |scene: &Scene| partition.membership(scene.nodes().map(|v| (v.id, v.pos)));
        let before = placement(&scene);
        let mirrors = |id: u32| -> Vec<u32> {
            (0..2).filter(|s| before.members[s].contains(&NodeId(id))).collect()
        };
        assert_eq!((mirrors(0), mirrors(1), mirrors(2)), (vec![0], vec![0, 1], vec![1]));

        let id = NodeId(0);
        let skipped = [
            SceneOp::SetRadioChannel { id, radio: poem_core::RadioId(0), channel: ChannelId(2) },
            SceneOp::SetRadioRange { id, radio: poem_core::RadioId(0), range: 80.0 },
            SceneOp::SetRadios { id, radios: RadioConfig::single(ChannelId(3), 90.0) },
            SceneOp::SetMobility {
                id,
                model: MobilityModel::Linear { direction_deg: 0.0, speed: 1.0 },
            },
            SceneOp::SetLinkParams { id, params: LinkParams::table3() },
            SceneOp::SetLinkProfile { id, profile: Some(poem_core::ProfileId(0)) },
        ];
        for op in &skipped {
            assert!(!changes_membership(op), "{op}");
            scene.apply(EmuTime::from_secs(1), op).unwrap();
            assert_eq!(placement(&scene), before, "{op} moved a node between mirrors");
        }
        for subject in 0..4u32 {
            let reached: Vec<u32> = (0..2)
                .filter(|s| {
                    let m = &before.members[s];
                    mirrors_subject(Some(NodeId(subject)), m, m)
                })
                .collect();
            assert_eq!(reached, mirrors(subject), "node {subject}");
        }
        // The ops that can change placement keep the full path.
        for op in [
            SceneOp::RemoveNode { id },
            SceneOp::MoveNode { id, pos: Point::new(1.0, 1.0) },
            SceneOp::SetArena { arena: None },
        ] {
            assert!(changes_membership(&op), "{op}");
        }
    }

    #[test]
    fn op_range_guard_sees_radio_changes() {
        assert_eq!(
            op_max_range(&SceneOp::SetRadioRange {
                id: NodeId(1),
                radio: poem_core::RadioId(0),
                range: 400.0
            }),
            Some(400.0)
        );
        assert_eq!(op_max_range(&SceneOp::RemoveNode { id: NodeId(1) }), None);
    }

    #[test]
    fn binary_resolution_prefers_explicit_config() {
        let cfg = ClusterConfig {
            binary: Some(PathBuf::from("/tmp/custom-shardd")),
            ..ClusterConfig::default()
        };
        assert_eq!(shardd_binary(&cfg), PathBuf::from("/tmp/custom-shardd"));
    }
}
