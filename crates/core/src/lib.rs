//! # poem-core — emulation substrate for PoEm
//!
//! PoEm ("A Portable Real-time Emulator for Testing Multi-Radio MANETs",
//! Jiang & Zhang, 2006) is a client/server MANET emulator. This crate holds
//! everything the emulator's semantics are built from, independent of any
//! transport or thread architecture:
//!
//! * [`time`] / [`clock`] — nanosecond emulation time, virtual (discrete
//!   event) and wall clocks, and the paper's §4.1 lightweight clock
//!   synchronization algorithm.
//! * [`geom`] — 2-D positions and kinematics.
//! * [`mobility`] — the §4.3.1 generalized 4-tuple mobility model and the
//!   classic presets it diverges to (random walk, random waypoint, ...).
//! * [`linkmodel`] — the §4.3.2 distance-driven packet-loss, Gaussian
//!   bandwidth and delay models, and the §3.2 forward-time computation.
//! * [`radio`] / [`neighbor`] — multi-radio node configuration and the
//!   paper's key data structure, the **channel-ID indexed neighbor table**
//!   (§4.2), next to the unified-table baseline it is compared against.
//! * [`scene`] — the emulated network scene: virtual MANET nodes (VMNs),
//!   the GUI's scene-operation vocabulary, and per-packet forwarding
//!   decisions.
//! * [`partition`] — shard ownership for clustered runs: modulo and
//!   grid-aligned spatial tile partitioning with pins, tile overrides,
//!   and 3×3 halo membership.
//! * [`schedule`] — the server's forward schedule (§3.2 steps 4–6).
//! * [`sleep`] — real-time scan-loop sleep policies (naive / hybrid /
//!   spin) and the online guard-band calibrator behind the hybrid one.
//! * [`packet`] — emulated packets as exchanged between clients.
//! * [`stats`] — windowed loss/throughput/delay statistics used by the
//!   evaluation.
//!
//! Everything here is deterministic given a seed: all randomness is drawn
//! from explicitly passed [`rng::EmuRng`] values and time only advances when
//! a clock is told to advance (in virtual mode).
//!
//! # Example: a scene making a forwarding decision
//!
//! ```
//! use poem_core::linkmodel::{ForwardDecision, LinkParams};
//! use poem_core::mobility::MobilityModel;
//! use poem_core::neighbor::NeighborTables as _;
//! use poem_core::radio::RadioConfig;
//! use poem_core::scene::{Scene, SceneOp};
//! use poem_core::{ChannelId, EmuRng, EmuTime, NodeId, Point};
//!
//! let mut scene = Scene::new();
//! for (id, x) in [(1u32, 0.0), (2u32, 80.0)] {
//!     scene.apply(EmuTime::ZERO, &SceneOp::AddNode {
//!         id: NodeId(id),
//!         pos: Point::new(x, 0.0),
//!         radios: RadioConfig::single(ChannelId(1), 200.0),
//!         mobility: MobilityModel::Stationary,
//!         link: LinkParams::ideal(8e6),
//!     }).unwrap();
//! }
//! // Step 2: NT(VMN1, ch1) = {VMN2}.
//! assert_eq!(scene.tables().neighbors(NodeId(1), ChannelId(1)), vec![NodeId(2)]);
//! // Step 3: the drop/forward-time decision (ideal link: always forwards;
//! // 1000 bytes at 8 Mbps = 1 ms).
//! let mut rng = EmuRng::seed(1);
//! match scene.decide(NodeId(1), NodeId(2), ChannelId(1), 1000, &mut rng) {
//!     Some(ForwardDecision::ForwardAfter(d)) => assert_eq!(d.as_nanos(), 1_000_000),
//!     other => panic!("{other:?}"),
//! }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod clock;
pub mod energy;
pub mod geom;
pub mod ids;
pub mod linkmodel;
pub mod mac;
pub mod mobility;
pub mod neighbor;
pub mod packet;
pub mod partition;
pub mod radio;
pub mod rng;
pub mod scene;
pub mod schedule;
pub mod sleep;
pub mod stats;
pub mod time;

pub use clock::{Clock, VirtualClock, WallClock};
pub use energy::{EnergyBook, PowerProfile};
pub use geom::Point;
pub use ids::{ChannelId, NodeId, PacketId, ProfileId, RadioId};
pub use linkmodel::{BandwidthModel, DelayModel, LinkModel, LinkSnapshot, LossModel};
pub use mac::{CollisionDomain, MacModel};
pub use mobility::{FieldSpec, MobilityModel, MobilityState};
pub use neighbor::{ChannelIndexedTables, NeighborTables, UnifiedTable};
pub use packet::EmuPacket;
pub use partition::{Membership, TilePartition};
pub use radio::Radio;
pub use rng::{decide_rng, EmuRng, DECIDE_STREAM};
pub use scene::{Scene, SceneOp, Vmn};
pub use schedule::ForwardSchedule;
pub use sleep::{GuardBand, SleepPolicy};
pub use time::{EmuDuration, EmuTime};
