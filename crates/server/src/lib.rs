//! # poem-server — the PoEm central emulation server
//!
//! "PoEm emulation server accepts connections from emulation clients and
//! forwards the packets to their corresponding clients according to the
//! emulated network scene." (§3.2)
//!
//! Two frontends over one engine:
//!
//! * [`engine::Pipeline`] — the per-packet steps 2–4 and the recording
//!   step 7, transport-independent.
//! * [`server::ServerHandle`] — the real-time TCP server with the paper's
//!   thread architecture, its receive path run by a readiness reactor
//!   ([`reactor`]) hosting sessions as explicit state machines
//!   ([`session`]) with timer-wheel deadlines ([`timer`]) — plus the
//!   scheduling/scanning thread and mobility integration.
//! * [`sim::SimNet`] — the deterministic in-process harness: the same
//!   pipeline driven by a virtual-time event loop, hosting
//!   [`poem_client::ClientApp`]s directly. Every experiment in the
//!   evaluation runs here reproducibly; the TCP frontend demonstrates the
//!   deployed mode.
//! * [`viz`] — text rendering of scenes and neighbor tables (the GUI
//!   replacement).
//!
//! Fault injection (`poem-chaos`) plugs into both frontends through one
//! executor: `fault …` script lines become a [`poem_chaos::FaultPlan`]
//! whose steps [`sim::SimNet::install_faults`] queues under virtual time
//! and [`server::ServerHandle::spawn_fault_driver`] runs under wall-clock
//! time. The executor (`faults`) holds the one dispatch over every fault
//! kind, the one stall book and the fault log; each frontend only supplies
//! its own scene-op path, wire sink, clock handling, disconnect, and crash
//! park and revive.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod engine;
pub(crate) mod faults;
pub(crate) mod reactor;
pub mod script;
pub mod server;
pub(crate) mod session;
pub mod sim;
pub(crate) mod timer;
pub mod viz;

pub use engine::{Delivery, Pipeline, PipelineConfig};
pub use script::{Script, ScriptEntry};
pub use server::{ServerConfig, ServerHandle};
pub use session::PacingConfig;
pub use sim::{SimConfig, SimNet};
