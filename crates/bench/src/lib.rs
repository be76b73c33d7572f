//! # poem-bench — the experiment harness
//!
//! One runner per table/figure of the paper's evaluation (see DESIGN.md's
//! experiment index). The binaries under `src/bin/` print the regenerated
//! artifacts; the Criterion benches under `benches/` measure the
//! performance-sensitive machinery (neighbor-table updates, the packet
//! pipeline, the recorder, the models). Workspace-level integration tests
//! assert the *shapes* the paper reports.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod chart;
pub mod experiments;
pub mod scenes;

pub use experiments::{
    cluster_scaleout, energy, fault_sweep, fig10, fig2, fig3, fig5, fig6, hotpath, mac, overhead,
    rt_fidelity, scenario_matrix, sessions, table2,
};
