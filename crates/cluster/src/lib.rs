//! # poem-cluster — multi-process distributed emulation
//!
//! Scales one emulation across worker processes by sharding the scene
//! spatially (grid-aligned tiles, composing with the per-channel spatial
//! grid in `poem-core`) and giving each shard worker a **mirror
//! sub-scene**: the nodes it owns plus a halo — every node within one
//! tile index of an owned node. With the tile edge at least the longest
//! radio range, the halo is a superset of every neighbor an owned sender
//! can reach, so routing on the mirror is exact.
//!
//! Determinism is the organizing constraint. Forwarding decisions draw
//! from per-packet RNG streams ([`poem_core::rng::decide_rng`]) that are
//! pure functions of `(decide_base, packet id)`, and the coordinator
//! settles worker results back into the record log in the exact order
//! the single-process pipeline would have emitted them — so a virtual-
//! time run distributed over N workers produces a record log
//! **byte-identical** to the same scenario in one process, and placement
//! (pins, rebalancing) is free to change *where* work happens without
//! changing *what* is computed.
//!
//! Layout:
//!
//! * [`coordinator`] — spawns and drives the worker fleet: membership,
//!   halo diffs, batch fan-out, lockstep barriers, greedy rebalancing,
//!   structured failure detection (dead/hung shard, never a silent hang).
//! * [`worker`] — the `poem-shardd` serve loop (the binary itself lives
//!   in `poem-server`, which owns the CLI surface).
//! * [`decide`] — the per-packet decision kernel and settle step, shared
//!   by workers, the coordinator and `Pipeline::ingest`.
//! * [`error`] — structured cluster failures.

pub mod coordinator;
pub mod decide;
pub mod error;
pub mod worker;

pub use coordinator::{ClusterConfig, Coordinator, Decided};
pub use decide::Delivery;
pub use error::ClusterError;
