//! # llmsched-bench — experiment harness
//!
//! Shared machinery for regenerating every table and figure of the paper's
//! evaluation (§V): the scheduler roster, training pipeline, workload
//! runners, and plain-text/CSV reporting. Each figure/table has a binary
//! (`fig1_characterization`, `fig7_simulation`, …) built on this crate.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cli;
pub mod report;
pub mod roster;
pub mod runner;
pub mod sweep;
pub mod trace;

pub use report::{jct_summary_cells, write_csv, Table, JCT_SUMMARY_HEADER};
pub use roster::{Policy, TrainedArtifacts};
pub use runner::{run_policy, ExperimentConfig};
pub use trace::{export_trace, export_trace_or_die, print_timeseries};
