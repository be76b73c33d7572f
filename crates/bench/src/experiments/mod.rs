//! Experiment runners, one per table/figure (DESIGN.md experiment index).

pub mod cluster_scaleout;
pub mod energy;
pub mod fault_sweep;
pub mod fig10;
pub mod fig2;
pub mod fig3;
pub mod fig5;
pub mod fig6;
pub mod hotpath;
pub mod mac;
pub mod overhead;
pub mod rt_fidelity;
pub mod scenario_matrix;
pub mod sessions;
pub mod table2;
