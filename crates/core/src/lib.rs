//! # llmsched-core — the LLMSched uncertainty-aware scheduler
//!
//! The paper's primary contribution (§IV), built on the substrates in this
//! workspace:
//!
//! * [`profiler`] — the Bayesian-network-based profiler (§IV-B): per-app
//!   BNs over discretized stage durations, dynamic-placeholder structure
//!   statistics, evidence extraction from running jobs;
//! * [`store`] — the observation-driven [`store::ProfileStore`]: versioned
//!   immutable profile snapshots, streaming updates from the engine's
//!   `StageObserved` deltas, cold-start bootstrapping, drift-triggered
//!   re-learning (frozen mode reproduces the classic profiler exactly);
//! * [`estimator`] — BN-posterior remaining-duration estimates with the
//!   Eq. 2 batching-aware calibration;
//! * [`uncertainty`] — the entropy-based uncertainty-reduction
//!   quantification of Eqs. 3–6;
//! * [`belief`] — persistent per-job beliefs (evidence mask, posterior
//!   work estimate, memoized Eq. 6 scores) driving the delta-driven
//!   incremental scheduling core;
//! * [`scheduler`] — Algorithm 1: ε-greedy combination of
//!   Most-Uncertainty-Reduction-First (within non-overlapping job sets,
//!   with task sampling) and Shortest-Remaining-Time-First.
//!
//! The §V-C ablations are configuration flags on
//! [`scheduler::LlmSchedConfig`]: `use_bn = false` reproduces *LLMSched
//! w/o BN*, `use_uncertainty = false` reproduces *LLMSched w/o
//! uncertainty*.
//!
//! ## Example: train, schedule, simulate
//!
//! ```
//! use llmsched_core::prelude::*;
//! use llmsched_sim::prelude::*;
//! use llmsched_workloads::prelude::*;
//!
//! // Offline: profile historical jobs.
//! let templates = all_templates();
//! let corpus = training_jobs(&AppKind::ALL, 50, 7);
//! let profiler = Profiler::train(&templates, &corpus, &ProfilerConfig::default());
//!
//! // Online: schedule a mixed workload.
//! let mut sched = LlmSched::new(profiler, LlmSchedConfig::default());
//! let w = generate_workload(WorkloadKind::Mixed, 15, 0.9, 3);
//! let result = simulate(&WorkloadKind::Mixed.default_cluster(),
//!                       &w.templates, w.jobs, &mut sched);
//! assert_eq!(result.incomplete, 0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod belief;
pub mod estimator;
pub mod profiler;
pub mod scheduler;
pub mod store;
pub mod uncertainty;

/// Convenient glob-import of the LLMSched surface.
pub mod prelude {
    pub use crate::belief::{BeliefStore, JobBelief};
    pub use crate::estimator::{
        batching_calibration, remaining_work, remaining_work_with, StageBand, WorkEstimate,
        INTERVAL_TAIL_MASS,
    };
    pub use crate::profiler::{
        AppProfile, DynamicStats, Profiler, ProfilerConfig, StructureLearner,
    };
    pub use crate::scheduler::{LlmSched, LlmSchedConfig, LlmSchedConfigError};
    pub use crate::store::{
        ProfileSnapshot, ProfileStore, ProfileStoreConfig, ProfileStoreConfigError, ProfileUpdate,
        ProfileVersion,
    };
    pub use crate::uncertainty::{uncertainty_reduction, MiEstimator};
}
