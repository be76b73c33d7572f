//! The parallelized server cluster — §7's future work: "expand the one
//! server to a parallelized cluster to conquer the performance bottleneck
//! so as to support fine-granularity performance evaluations".
//!
//! [`ClusterPipeline`] shards the per-packet work (§3.2 steps 2–3: the
//! neighbor lookup and the drop/forward-time decisions) across worker
//! shards by source VMN. The scene stays **centralized** behind a
//! read-write lock — preserving PoEm's consistency argument: scene
//! construction is still a single serialized writer, only the
//! embarrassingly parallel per-packet decisions fan out. Each shard owns
//! an independent RNG (forked from the cluster seed), so runs are
//! deterministic *per shard assignment*.
//!
//! Batches are executed by a pool of long-lived per-shard worker threads
//! fed over channels — spawning threads per batch costs more than small
//! batches take to process. The pool preserves the sequential contract:
//! shard `i`'s packets are processed in batch order against shard `i`'s
//! RNG, so results are bit-identical to the scoped-spawn baseline
//! ([`ClusterPipeline::ingest_batch_sharded_spawning`], kept for E15).
//!
//! # Lock order
//!
//! **`scene` before any shard lock.** Every path that needs both takes
//! the scene lock (read or write) first and a shard's mutex second,
//! matching [`ClusterPipeline::apply_op`]'s scene-first writes. The pair
//! is declared (`scene < shard_slot`) in `LOCK_ORDER.decl`, which
//! poem-lint's `lock_graph` rule reads, so an inversion fails CI.
//!
//! The cluster path implements the paper's baseline models; the optional
//! MAC collision domain is inherently a global serialization point and is
//! deliberately not offered here (see DESIGN.md).

use crate::engine::Delivery;
use crossbeam::channel::{self, Receiver, Sender};
use crossbeam::thread;
use parking_lot::{Mutex, RwLock};
use poem_core::linkmodel::ForwardDecision;
use poem_core::packet::Destination;
use poem_core::partition::Partitioner;
use poem_core::scene::{Scene, SceneError, SceneOp};
use poem_core::{EmuPacket, EmuRng, EmuTime, NodeId, Point};
use poem_obs::{Counter, Gauge, Histogram, MetricsSnapshot, Registry};
use poem_record::{DropReason, Recorder, SceneRecord, TrafficRecord};
use std::sync::Arc;

/// Bucket bounds (packets) for the per-call batch-size distribution.
const BATCH_SIZE_BOUNDS: &[u64] = &[8, 32, 128, 512, 2_048, 8_192, 32_768];

/// Cluster sizing.
#[derive(Debug, Clone, Copy)]
pub struct ClusterConfig {
    /// Number of worker shards (≥ 1).
    pub shards: usize,
    /// Seed forked into every shard's RNG.
    pub seed: u64,
}

impl Default for ClusterConfig {
    fn default() -> Self {
        ClusterConfig { shards: 4, seed: 0 }
    }
}

struct Shard {
    rng: EmuRng,
    /// Per-shard recorder — shards never contend on the log lock; the
    /// logs are merged (time-ordered) on demand.
    recorder: Arc<Recorder>,
    /// Packets this shard has ingested
    /// (`poem_shard_ingest_total{shard="i"}`).
    ingested: Arc<Counter>,
    /// Reused routing buffer: steady-state shard ingest allocates nothing
    /// beyond the delivery vector.
    scratch: Vec<NodeId>,
}

/// One unit of batch work for a shard worker: the shard's slice of the
/// batch, processed in order against the shard's RNG.
struct Job {
    pkts: Vec<EmuPacket>,
    received_at: EmuTime,
    reply: Sender<(usize, Vec<Delivery>)>,
}

/// Long-lived per-shard worker threads fed over channels. Dropping the
/// pool disconnects every job lane, which the workers observe as shutdown.
struct WorkerPool {
    /// One job lane per shard; index = shard index.
    jobs: Vec<Sender<Job>>,
    handles: Mutex<Vec<Option<std::thread::JoinHandle<()>>>>,
}

impl WorkerPool {
    fn start(scene: Arc<RwLock<Scene>>, shards: Arc<Vec<Mutex<Shard>>>) -> WorkerPool {
        let n = shards.len();
        let mut jobs = Vec::with_capacity(n);
        let mut handles = Vec::with_capacity(n);
        for idx in 0..n {
            let (tx, rx) = channel::unbounded::<Job>();
            let scene = Arc::clone(&scene);
            let shards = Arc::clone(&shards);
            handles.push(Some(std::thread::spawn(move || shard_worker(idx, &scene, &shards, &rx))));
            jobs.push(tx);
        }
        WorkerPool { jobs, handles: Mutex::new(handles) }
    }

    /// A job lane disconnected mid-batch: a worker died. Join whatever
    /// finished and re-raise the worker's panic payload on the caller
    /// rather than failing with a misleading channel error.
    fn propagate_failure(&self) -> ! {
        // Take the finished handles out under the lock, then join with the
        // lock released: join() can block arbitrarily long, and a worker's
        // panic handler must still be able to reach the pool.
        let finished: Vec<_> = {
            let mut handles = self.handles.lock();
            handles
                .iter_mut()
                .filter(|s| s.as_ref().is_some_and(std::thread::JoinHandle::is_finished))
                .filter_map(Option::take)
                .collect()
        };
        for h in finished {
            if let Err(payload) = h.join() {
                std::panic::resume_unwind(payload);
            }
        }
        // Unreachable while the pool owns the senders: a lane only
        // disconnects when its worker exits, and workers only exit by
        // panicking or by pool shutdown.
        std::panic::resume_unwind(Box::new(String::from(
            "shard worker lane disconnected without a panic",
        )))
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        // Disconnect every lane; each worker's recv() then errors and its
        // loop exits.
        self.jobs.clear();
        // Drain under the lock, join outside it: joining with the pool
        // mutex held would stall anyone probing the pool while the last
        // workers wind down.
        let taken: Vec<_> = {
            let mut handles = self.handles.lock();
            handles.iter_mut().filter_map(Option::take).collect()
        };
        for h in taken {
            // A panicked worker already surfaced through the batch
            // path; don't double-panic during unwind.
            let _ = h.join();
        }
    }
}

/// Body of one pooled worker: drain jobs for shard `idx` until the lane
/// disconnects. Per job, locks follow the module's declared order (scene
/// before shard) and the shard's packets run sequentially in batch order —
/// the determinism contract `batch_is_deterministic_for_fixed_shards`
/// asserts.
fn shard_worker(
    idx: usize,
    scene_lock: &RwLock<Scene>,
    shards: &[Mutex<Shard>],
    rx: &Receiver<Job>,
) {
    while let Ok(job) = rx.recv() {
        let scene = scene_lock.read();
        let shard_slot = &shards[idx];
        let mut shard = shard_slot.lock();
        shard.ingested.add(job.pkts.len() as u64);
        let recorder = Arc::clone(&shard.recorder);
        let mut targets = std::mem::take(&mut shard.scratch);
        let mut out = Vec::new();
        for pkt in &job.pkts {
            ingest_on(
                &scene,
                &recorder,
                &mut shard.rng,
                pkt,
                job.received_at,
                &mut targets,
                &mut out,
            );
        }
        shard.scratch = targets;
        drop(shard);
        drop(scene);
        // The batch caller may itself be gone (propagating another
        // shard's failure); a dead reply lane is not this worker's error.
        let _ = job.reply.send((idx, out));
    }
}

/// A sharded emulation pipeline.
pub struct ClusterPipeline {
    scene: Arc<RwLock<Scene>>,
    shards: Arc<Vec<Mutex<Shard>>>,
    /// Shard-assignment strategy, shared with the multi-process cluster
    /// coordinator via `poem_core::partition` so the two sharding modes
    /// cannot drift apart.
    partitioner: Partitioner,
    /// Scene-op log (single writer, so unsharded).
    recorder: Arc<Recorder>,
    mobility_rng: Mutex<EmuRng>,
    registry: Arc<Registry>,
    /// Distribution of `ingest_batch*` call sizes (packets).
    batch_size: Arc<Histogram>,
    /// Shard imbalance of the most recent batch: `100·(max−mean)/mean`
    /// over the per-shard partition sizes (0 = perfectly balanced).
    imbalance_pct: Arc<Gauge>,
    pool: WorkerPool,
}

impl ClusterPipeline {
    /// Builds a cluster over an initial scene and starts its shard
    /// workers.
    pub fn new(scene: Scene, recorder: Arc<Recorder>, config: ClusterConfig) -> Self {
        // Constructor precondition on operator-supplied config, checked once
        // at startup — not reachable from client traffic.
        // poem-lint: allow(panic_safety): startup config validation
        assert!(config.shards >= 1, "a cluster needs at least one shard");
        let registry = Arc::new(Registry::new());
        let mut root = EmuRng::seed(config.seed);
        let shards: Arc<Vec<Mutex<Shard>>> = Arc::new(
            (0..config.shards)
                .map(|i| {
                    Mutex::new(Shard {
                        rng: root.fork(),
                        recorder: Arc::new(Recorder::new()),
                        ingested: registry
                            .counter(&format!("poem_shard_ingest_total{{shard=\"{i}\"}}")),
                        scratch: Vec::new(),
                    })
                })
                .collect(),
        );
        let scene = Arc::new(RwLock::new(scene));
        let pool = WorkerPool::start(Arc::clone(&scene), Arc::clone(&shards));
        ClusterPipeline {
            scene,
            shards,
            partitioner: Partitioner::Modulo { shards: config.shards as u32 },
            recorder,
            mobility_rng: Mutex::new(root.fork()),
            batch_size: registry.histogram("poem_batch_size_packets", BATCH_SIZE_BOUNDS),
            imbalance_pct: registry.gauge("poem_shard_imbalance_pct"),
            registry,
            pool,
        }
    }

    /// The cluster's metric registry.
    pub fn metrics_registry(&self) -> &Arc<Registry> {
        &self.registry
    }

    /// A point-in-time snapshot of every cluster metric.
    pub fn metrics(&self) -> MetricsSnapshot {
        self.registry.snapshot()
    }

    /// Number of worker shards.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// The shard that owns a source VMN. Delegates to the shared
    /// [`Partitioner`]; the in-process cluster uses the position-free
    /// modulo strategy, so the position argument is immaterial.
    pub fn shard_of(&self, node: NodeId) -> usize {
        self.partitioner.owner_of(node, Point::ORIGIN) as usize
    }

    /// The scene-op recorder (traffic records live in per-shard logs;
    /// see [`ClusterPipeline::traffic_merged`]).
    pub fn recorder(&self) -> &Arc<Recorder> {
        &self.recorder
    }

    /// All shards' traffic records merged into one time-ordered log.
    pub fn traffic_merged(&self) -> Vec<TrafficRecord> {
        let mut all: Vec<TrafficRecord> = Vec::new();
        for shard in self.shards.iter() {
            all.extend(shard.lock().recorder.traffic());
        }
        all.sort_by_key(|r| r.at());
        all
    }

    /// Runs `f` with read access to the scene.
    pub fn with_scene<R>(&self, f: impl FnOnce(&Scene) -> R) -> R {
        f(&self.scene.read())
    }

    /// Applies a scene op (single serialized writer — the centralized
    /// scene-construction path).
    pub fn apply_op(&self, at: EmuTime, op: SceneOp) -> Result<(), SceneError> {
        self.scene.write().apply(at, &op)?;
        self.recorder.record_scene(SceneRecord::new(at, op));
        Ok(())
    }

    /// Integrates mobility up to `to` (serialized writer) and records the
    /// resulting positions of mobile nodes as `MoveNode` ops — the same
    /// contract as [`crate::engine::Pipeline::advance_mobility`], so
    /// cluster runs replay exactly without re-randomization.
    pub fn advance_mobility(&self, to: EmuTime) {
        let mut rng = self.mobility_rng.lock();
        let mut scene = self.scene.write();
        if to <= scene.mobility_horizon() {
            return;
        }
        scene.advance_mobility(to, &mut rng);
        let moved: Vec<(NodeId, Point)> =
            scene.nodes().filter(|v| v.mobility.is_mobile()).map(|v| (v.id, v.pos)).collect();
        drop(scene);
        drop(rng);
        for (id, pos) in moved {
            self.recorder.record_scene(SceneRecord::new(to, SceneOp::MoveNode { id, pos }));
        }
    }

    /// Ingests one packet on its owning shard (steps 2–3).
    ///
    /// Lock order: scene read-lock first, then the shard mutex (see the
    /// module header).
    pub fn ingest(&self, pkt: &EmuPacket, received_at: EmuTime) -> Vec<Delivery> {
        let scene = self.scene.read();
        let shard_slot = &self.shards[self.shard_of(pkt.src)];
        let mut shard = shard_slot.lock();
        let recorder = Arc::clone(&shard.recorder);
        shard.ingested.inc();
        let mut targets = std::mem::take(&mut shard.scratch);
        let mut out = Vec::new();
        ingest_on(&scene, &recorder, &mut shard.rng, pkt, received_at, &mut targets, &mut out);
        shard.scratch = targets;
        out
    }

    /// Ingests a batch in parallel: packets are partitioned by their
    /// owning shard and each shard processes its share on its own worker
    /// thread. Returns all deliveries (ordering: by shard, then by the
    /// batch order within a shard — deterministic for a fixed shard
    /// count).
    pub fn ingest_batch(&self, batch: &[EmuPacket], received_at: EmuTime) -> Vec<Delivery> {
        self.ingest_batch_sharded(batch, received_at).into_iter().flatten().collect()
    }

    /// Like [`ClusterPipeline::ingest_batch`] but returns one delivery
    /// vector per shard, skipping the serial merge — the fast path when
    /// the consumer (e.g. per-shard scanning threads) can work sharded.
    /// Executes on the persistent worker pool.
    pub fn ingest_batch_sharded(
        &self,
        batch: &[EmuPacket],
        received_at: EmuTime,
    ) -> Vec<Vec<Delivery>> {
        let n = self.shards.len();
        let partitions = self.partition(batch);
        let (reply_tx, reply_rx) = channel::unbounded();
        for (idx, pkts) in partitions.into_iter().enumerate() {
            let job = Job { pkts, received_at, reply: reply_tx.clone() };
            if self.pool.jobs[idx].send(job).is_err() {
                self.pool.propagate_failure();
            }
        }
        drop(reply_tx);
        let mut results: Vec<Vec<Delivery>> = (0..n).map(|_| Vec::new()).collect();
        for _ in 0..n {
            match reply_rx.recv() {
                Ok((idx, out)) => results[idx] = out,
                Err(_) => self.pool.propagate_failure(),
            }
        }
        results
    }

    /// The pre-pool batch path: spawns one scoped thread per shard per
    /// batch. Semantically identical to
    /// [`ClusterPipeline::ingest_batch_sharded`]; kept as the baseline
    /// experiment E15 measures the worker pool against.
    pub fn ingest_batch_sharded_spawning(
        &self,
        batch: &[EmuPacket],
        received_at: EmuTime,
    ) -> Vec<Vec<Delivery>> {
        let partitions = self.partition(batch);
        let mut results: Vec<Vec<Delivery>> = Vec::with_capacity(self.shards.len());
        let scope_result = thread::scope(|scope| {
            let handles: Vec<_> = partitions
                .iter()
                .enumerate()
                .map(|(i, part)| {
                    let scene_lock = &self.scene;
                    let shards = &self.shards;
                    scope.spawn(move |_| {
                        let scene = scene_lock.read();
                        let shard_slot = &shards[i];
                        let mut shard = shard_slot.lock();
                        shard.ingested.add(part.len() as u64);
                        let recorder = Arc::clone(&shard.recorder);
                        let mut targets = std::mem::take(&mut shard.scratch);
                        let mut out = Vec::new();
                        for pkt in part {
                            ingest_on(
                                &scene,
                                &recorder,
                                &mut shard.rng,
                                pkt,
                                received_at,
                                &mut targets,
                                &mut out,
                            );
                        }
                        shard.scratch = targets;
                        out
                    })
                })
                .collect();
            for h in handles {
                match h.join() {
                    Ok(out) => results.push(out),
                    // A shard worker panicked: re-raise its payload on the
                    // caller rather than aborting with a misleading message.
                    Err(payload) => std::panic::resume_unwind(payload),
                }
            }
        });
        if let Err(payload) = scope_result {
            std::panic::resume_unwind(payload);
        }
        results
    }

    /// Splits a batch into per-shard slices (owned: payloads are
    /// refcounted, so the clones are cheap) and refreshes the batch
    /// metrics.
    fn partition(&self, batch: &[EmuPacket]) -> Vec<Vec<EmuPacket>> {
        let mut partitions: Vec<Vec<EmuPacket>> = vec![Vec::new(); self.shards.len()];
        for pkt in batch {
            partitions[self.shard_of(pkt.src)].push(pkt.clone());
        }
        self.batch_size.observe(batch.len() as u64);
        self.imbalance_pct.set(imbalance_pct(&partitions));
        partitions
    }
}

impl std::fmt::Debug for ClusterPipeline {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ClusterPipeline")
            .field("shards", &self.shards.len())
            .field("nodes", &self.scene.read().len())
            .finish()
    }
}

/// Shard imbalance of one batch partitioning: `100·(max−mean)/mean` over
/// the per-shard sizes, 0 for an empty batch.
fn imbalance_pct(partitions: &[Vec<EmuPacket>]) -> i64 {
    let total: usize = partitions.iter().map(Vec::len).sum();
    if total == 0 || partitions.is_empty() {
        return 0;
    }
    let max = partitions.iter().map(Vec::len).max().unwrap_or(0) as f64;
    let mean = total as f64 / partitions.len() as f64;
    (100.0 * (max - mean) / mean).round() as i64
}

/// The shared per-packet decision logic (identical semantics to
/// [`crate::engine::Pipeline::ingest`] with the baseline models). Drops
/// are stamped with the client's `sent_at` — the same base the forward
/// times use — not the server receipt time. Deliveries are appended to
/// `out`; `targets` is a reused routing buffer, so the steady-state path
/// performs no heap allocation of its own.
fn ingest_on(
    scene: &Scene,
    recorder: &Recorder,
    rng: &mut EmuRng,
    pkt: &EmuPacket,
    received_at: EmuTime,
    targets: &mut Vec<NodeId>,
    out: &mut Vec<Delivery>,
) {
    recorder.record_traffic(TrafficRecord::ingress(pkt, received_at));
    scene.route_into(pkt.src, pkt.channel, pkt.dst, targets);
    if targets.is_empty() {
        if let Destination::Unicast(d) = pkt.dst {
            recorder.record_traffic(TrafficRecord::Drop {
                id: pkt.id,
                to: d,
                at: pkt.sent_at,
                reason: DropReason::NoRoute,
            });
        }
        return;
    }
    out.reserve(targets.len());
    for &to in targets.iter() {
        match scene.decide(pkt.src, to, pkt.channel, pkt.wire_size(), rng) {
            Some(ForwardDecision::ForwardAfter(d)) => {
                out.push(Delivery { to, fire_at: pkt.sent_at + d, packet: pkt.clone() });
            }
            Some(ForwardDecision::Drop) => {
                recorder.record_traffic(TrafficRecord::Drop {
                    id: pkt.id,
                    to,
                    at: pkt.sent_at,
                    reason: DropReason::Loss,
                });
            }
            None => {
                recorder.record_traffic(TrafficRecord::Drop {
                    id: pkt.id,
                    to,
                    at: pkt.sent_at,
                    reason: DropReason::NoRoute,
                });
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use poem_core::linkmodel::LinkParams;
    use poem_core::mobility::MobilityModel;
    use poem_core::packet::HEADER_BYTES;
    use poem_core::radio::RadioConfig;
    use poem_core::{ChannelId, PacketId, Point, RadioId};

    fn grid_scene(n: u32) -> Scene {
        let mut s = Scene::new();
        let side = (n as f64).sqrt().ceil() as u32;
        for i in 0..n {
            s.apply(
                EmuTime::ZERO,
                &SceneOp::AddNode {
                    id: NodeId(i),
                    pos: Point::new((i % side) as f64 * 80.0, (i / side) as f64 * 80.0),
                    radios: RadioConfig::single(ChannelId(1), 170.0),
                    mobility: MobilityModel::Stationary,
                    link: LinkParams::ideal(8e6),
                },
            )
            .unwrap();
        }
        s
    }

    fn pkt(id: u64, src: u32) -> EmuPacket {
        EmuPacket::new(
            PacketId(id),
            NodeId(src),
            Destination::Broadcast,
            ChannelId(1),
            RadioId(0),
            EmuTime::from_micros(id),
            vec![0u8; 500 - HEADER_BYTES],
        )
    }

    #[test]
    fn single_shard_matches_pipeline_semantics() {
        let rec_cluster = Arc::new(Recorder::new());
        let cluster = ClusterPipeline::new(
            grid_scene(16),
            Arc::clone(&rec_cluster),
            ClusterConfig { shards: 1, seed: 9 },
        );
        let rec_single = Arc::new(Recorder::new());
        let mut single = crate::engine::Pipeline::new(
            grid_scene(16),
            Arc::clone(&rec_single),
            // The cluster's one shard forks from the root RNG — mirror it.
            {
                let mut root = EmuRng::seed(9);
                root.fork()
            },
        );
        for i in 0..50u64 {
            let p = pkt(i, (i % 16) as u32);
            let a = cluster.ingest(&p, p.sent_at);
            let b = single.ingest(&p, p.sent_at);
            assert_eq!(a, b, "packet {i}");
        }
        // Traffic goes to the shard log; scene ops to the shared one.
        assert_eq!(cluster.traffic_merged().len(), rec_single.traffic().len());
        let _ = rec_cluster;
    }

    #[test]
    fn batch_covers_every_packet_exactly_once() {
        let cluster = ClusterPipeline::new(
            grid_scene(25),
            Arc::new(Recorder::new()),
            ClusterConfig { shards: 4, seed: 1 },
        );
        let batch: Vec<EmuPacket> = (0..200).map(|i| pkt(i, (i % 25) as u32)).collect();
        let _out = cluster.ingest_batch(&batch, EmuTime::from_millis(1));
        let traffic = cluster.traffic_merged();
        let ingress = traffic.iter().filter(|r| matches!(r, TrafficRecord::Ingress { .. })).count();
        assert_eq!(ingress, 200);
        // Ideal links: every in-range copy becomes a delivery, none drop.
        let drops = traffic.iter().filter(|r| matches!(r, TrafficRecord::Drop { .. })).count();
        assert_eq!(drops, 0);
        assert!(!_out.is_empty());
        // Each packet fans out to its sender's full neighbor set.
        let expected: usize = batch
            .iter()
            .map(|p| cluster.with_scene(|s| s.route(p.src, p.channel, p.dst).len()))
            .sum();
        assert_eq!(_out.len(), expected);
    }

    #[test]
    fn batch_is_deterministic_for_fixed_shards() {
        let run = || {
            let cluster = ClusterPipeline::new(
                grid_scene(25),
                Arc::new(Recorder::new()),
                ClusterConfig { shards: 4, seed: 7 },
            );
            let batch: Vec<EmuPacket> = (0..100).map(|i| pkt(i, (i % 25) as u32)).collect();
            cluster
                .ingest_batch(&batch, EmuTime::ZERO)
                .into_iter()
                .map(|d| (d.packet.id, d.to, d.fire_at))
                .collect::<Vec<_>>()
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn pool_and_spawning_batch_paths_agree() {
        // The worker pool must be bit-identical to the per-batch spawn
        // baseline: same partitioning, same per-shard order, same RNG
        // draws.
        let mk = || {
            ClusterPipeline::new(
                grid_scene(25),
                Arc::new(Recorder::new()),
                ClusterConfig { shards: 4, seed: 7 },
            )
        };
        let batch: Vec<EmuPacket> = (0..150).map(|i| pkt(i, (i % 25) as u32)).collect();
        let pooled = mk().ingest_batch_sharded(&batch, EmuTime::ZERO);
        let spawned = mk().ingest_batch_sharded_spawning(&batch, EmuTime::ZERO);
        assert_eq!(pooled, spawned);
    }

    #[test]
    fn worker_pool_survives_many_batches_and_shuts_down_cleanly() {
        let cluster = ClusterPipeline::new(
            grid_scene(9),
            Arc::new(Recorder::new()),
            ClusterConfig { shards: 3, seed: 1 },
        );
        let mut total = 0usize;
        for round in 0..20u64 {
            let batch: Vec<EmuPacket> =
                (0..30).map(|i| pkt(round * 30 + i, ((round * 30 + i) % 9) as u32)).collect();
            total += cluster.ingest_batch(&batch, EmuTime::ZERO).len();
        }
        assert!(total > 0);
        // Dropping the cluster joins its workers (hangs here = leak).
        drop(cluster);
    }

    #[test]
    fn scene_ops_remain_centralized_and_visible_to_all_shards() {
        let cluster = ClusterPipeline::new(
            grid_scene(4),
            Arc::new(Recorder::new()),
            ClusterConfig { shards: 4, seed: 1 },
        );
        // Remove node 1; every shard's next lookup sees it gone.
        cluster.apply_op(EmuTime::from_secs(1), SceneOp::RemoveNode { id: NodeId(1) }).unwrap();
        for src in [0u32, 2, 3] {
            let out = cluster.ingest(&pkt(100 + src as u64, src), EmuTime::from_secs(1));
            assert!(out.iter().all(|d| d.to != NodeId(1)), "shard for {src} saw a ghost");
        }
        assert_eq!(cluster.with_scene(|s| s.len()), 3);
    }

    #[test]
    fn mobility_advances_under_the_cluster() {
        let mut scene = grid_scene(1);
        scene
            .apply(
                EmuTime::ZERO,
                &SceneOp::AddNode {
                    id: NodeId(99),
                    pos: Point::ORIGIN,
                    radios: RadioConfig::single(ChannelId(1), 100.0),
                    mobility: MobilityModel::Linear { direction_deg: 0.0, speed: 10.0 },
                    link: LinkParams::default(),
                },
            )
            .unwrap();
        let cluster =
            ClusterPipeline::new(scene, Arc::new(Recorder::new()), ClusterConfig::default());
        cluster.advance_mobility(EmuTime::from_secs(3));
        let pos = cluster.with_scene(|s| s.node(NodeId(99)).unwrap().pos);
        assert!((pos.x - 30.0).abs() < 1e-6, "{pos}");
    }

    #[test]
    fn cluster_mobility_records_positions_for_replay() {
        // Mirrors `mobility_advance_records_positions_for_replay` on the
        // single pipeline: cluster runs must replay exactly too.
        let rec = Arc::new(Recorder::new());
        let cluster =
            ClusterPipeline::new(Scene::new(), Arc::clone(&rec), ClusterConfig::default());
        cluster
            .apply_op(
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
        cluster.advance_mobility(EmuTime::from_secs(1));
        cluster.advance_mobility(EmuTime::from_secs(2));
        // A repeated horizon is a no-op and must not re-record.
        cluster.advance_mobility(EmuTime::from_secs(2));
        let ops = rec.scene();
        assert_eq!(ops.len(), 3, "AddNode + one MoveNode per advance");
        match &ops[2].op {
            SceneOp::MoveNode { id, pos } => {
                assert_eq!(*id, NodeId(1));
                assert!((pos.x - 20.0).abs() < 1e-9);
            }
            other => panic!("{other:?}"),
        }
        let engine = poem_record::ReplayEngine::new(ops);
        let replayed = engine.scene_at(EmuTime::from_secs(2)).unwrap();
        assert!((replayed.node(NodeId(1)).unwrap().pos.x - 20.0).abs() < 1e-9);
    }

    #[test]
    fn cluster_metrics_cover_shards_and_batches() {
        let cluster = ClusterPipeline::new(
            grid_scene(25),
            Arc::new(Recorder::new()),
            ClusterConfig { shards: 4, seed: 1 },
        );
        // 100 batched + 1 single ingest from source 2 (shard 2).
        let batch: Vec<EmuPacket> = (0..100).map(|i| pkt(i, (i % 25) as u32)).collect();
        cluster.ingest_batch(&batch, EmuTime::ZERO);
        cluster.ingest(&pkt(200, 2), EmuTime::ZERO);
        let snap = cluster.metrics();
        assert!(!snap.is_empty());
        let per_shard: u64 = (0..4)
            .map(|i| snap.counter(&format!("poem_shard_ingest_total{{shard=\"{i}\"}}")).unwrap())
            .sum();
        assert_eq!(per_shard, 101);
        let h = snap.histogram("poem_batch_size_packets").unwrap();
        assert_eq!((h.count, h.sum), (1, 100));
        // 25 sources round-robin over 4 shards: shard 0 owns 7 of them →
        // visibly imbalanced, and the gauge is non-negative by definition.
        assert!(snap.gauge("poem_shard_imbalance_pct").unwrap() >= 0);
    }

    #[test]
    fn cluster_drops_are_stamped_with_the_client_stamp() {
        // A unicast to a non-neighbor records NoRoute at the client stamp.
        let cluster = ClusterPipeline::new(
            grid_scene(4),
            Arc::new(Recorder::new()),
            ClusterConfig { shards: 2, seed: 1 },
        );
        let sent = EmuTime::from_micros(55);
        let p = EmuPacket::new(
            PacketId(1),
            NodeId(0),
            Destination::Unicast(NodeId(77)),
            ChannelId(1),
            RadioId(0),
            sent,
            vec![0u8; 64],
        );
        let out = cluster.ingest(&p, EmuTime::from_secs(9)); // late receipt
        assert!(out.is_empty());
        match cluster.traffic_merged()[1] {
            TrafficRecord::Drop { at, reason: DropReason::NoRoute, .. } => assert_eq!(at, sent),
            ref other => panic!("{other:?}"),
        }
    }

    #[test]
    #[should_panic(expected = "at least one shard")]
    fn zero_shards_rejected() {
        let _ = ClusterPipeline::new(
            Scene::new(),
            Arc::new(Recorder::new()),
            ClusterConfig { shards: 0, seed: 0 },
        );
    }
}
