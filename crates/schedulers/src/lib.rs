//! # llmsched-schedulers — baseline scheduling policies
//!
//! The six baselines the paper compares LLMSched against (§V, *Baselines*),
//! plus the SRTF scheme used inside the ablations:
//!
//! * [`basic::Fcfs`] — First Come First Serve (Spark's default);
//! * [`basic::Fair`] — Fair Scheduling (equal running-task shares);
//! * [`basic::Sjf`] — Shortest Job First on historical app means;
//! * [`basic::Srtf`] — Shortest Remaining Time First on static estimates;
//! * [`argus::Argus`] — topology-aware stage ranking (depth, children,
//!   tasks);
//! * [`decima::DecimaLike`] — Decima's deployed behavior (single-stage
//!   dispatch, shortest-remaining-work job) without the RL machinery;
//! * [`carbyne::CarbyneLike`] — altruistic fair sharing with leftover
//!   redistribution.
//!
//! FCFS, SJF and SRTF are one key-ordered policy, [`basic::Ordered`], over
//! the [`basic::JobOrder`] keys [`basic::Arrival`],
//! [`basic::HistoricalMean`] and [`basic::RemainingEstimate`]; the three
//! names are type aliases of it. Every baseline that orders more than one
//! stage emits through one class-aware free-capacity budget, and the
//! `::rebuild()` reference paths emit through its unbounded form.
//!
//! All baselines receive the same prior information the paper grants them:
//! per-application historical duration averages ([`util::AppPriors`]) and
//! the DAG structure from the LLM DAG model.
//!
//! ## Example
//!
//! ```
//! use llmsched_schedulers::prelude::*;
//! use llmsched_sim::prelude::*;
//! use llmsched_workloads::prelude::*;
//! use llmsched_dag::time::SimDuration;
//!
//! let training = training_jobs(&[AppKind::CodeGeneration, AppKind::WebSearch], 30, 1);
//! let priors = AppPriors::from_training(&training, SimDuration::from_millis(20));
//!
//! let w = generate_workload(WorkloadKind::ChainLike, 10, 0.9, 2);
//! let cfg = WorkloadKind::ChainLike.default_cluster();
//! let result = simulate(&cfg, &w.templates, w.jobs, &mut Sjf::new(priors));
//! assert_eq!(result.incomplete, 0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod argus;
pub mod basic;
pub mod carbyne;
pub mod decima;
pub mod testkit;
pub mod util;

/// Convenient glob-import of every baseline.
pub mod prelude {
    pub use crate::argus::Argus;
    pub use crate::basic::{Fair, Fcfs, Sjf, Srtf};
    pub use crate::carbyne::CarbyneLike;
    pub use crate::decima::DecimaLike;
    pub use crate::util::AppPriors;
}
