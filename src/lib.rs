//! # llmsched — uncertainty-aware scheduling for compound LLM applications
//!
//! A from-scratch Rust reproduction of **LLMSched** (Zhu, Chen, Fan, Zhu —
//! ICDCS 2025, arXiv:2504.03444): an uncertainty-aware scheduler that cuts
//! the average job completion time of *compound LLM applications* — jobs
//! whose DAGs mix LLM inference stages, regular tool stages, and
//! LLM-generated dynamic stages — by profiling inter-stage correlations
//! with Bayesian networks, quantifying the uncertainty each stage resolves
//! (Shannon entropy / mutual information), and ε-greedily combining a
//! Most-Uncertainty-Reduction-First exploration list with a
//! Shortest-Remaining-Time-First exploitation list.
//!
//! This facade crate re-exports the whole workspace:
//!
//! | Crate | Contents |
//! |---|---|
//! | [`dag`] | the LLM DAG model (templates, jobs, reveal protocol) |
//! | [`cluster`] | serving-cluster model: replica groups, latency curves, routing policies |
//! | [`sim`] | discrete-event cluster simulator with batching LLM executors |
//! | [`bayes`] | discrete Bayesian networks + information theory |
//! | [`workloads`] | the six compound-application generators, mixes, and non-stationary scenarios (drift, cold start) |
//! | [`schedulers`] | baselines: FCFS, Fair, SJF, SRTF, Argus, Decima-like, Carbyne-like |
//! | [`core`] | LLMSched itself: profiler, versioned online [`ProfileStore`], estimator, Eq. 3–6, Algorithm 1 |
//! | [`telemetry`] | observability: zero-cost-when-off probes, trace export, windowed time-series, decision provenance |
//!
//! ## Quickstart
//!
//! ```
//! use llmsched::prelude::*;
//!
//! // 1. Offline: profile historical jobs of every application.
//! let templates = all_templates();
//! let corpus = training_jobs(&AppKind::ALL, 60, 7);
//! let profiler = Profiler::train(&templates, &corpus, &ProfilerConfig::default());
//!
//! // 2. Online: schedule a mixed workload on a small cluster.
//! let mut sched = LlmSched::new(profiler, LlmSchedConfig::default());
//! let w = generate_workload(WorkloadKind::Mixed, 20, 0.9, 42);
//! let result = simulate(&WorkloadKind::Mixed.default_cluster(),
//!                       &w.templates, w.jobs, &mut sched);
//! assert_eq!(result.incomplete, 0);
//! println!("average JCT: {:.1}s", result.avg_jct_secs());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use llmsched_bayes as bayes;
pub use llmsched_cluster as cluster;
pub use llmsched_core as core;
pub use llmsched_dag as dag;
pub use llmsched_schedulers as schedulers;
pub use llmsched_sim as sim;
pub use llmsched_telemetry as telemetry;
pub use llmsched_workloads as workloads;

// The profiling/belief surface, re-exported at the crate root so examples
// and downstream users need no per-crate imports: the batch profiler, the
// versioned online profile store, and the delta-driven belief state.
pub use llmsched_core::belief::{BeliefStore, JobBelief};
pub use llmsched_core::profiler::{
    AppProfile, DynamicStats, Profiler, ProfilerConfig, StructureLearner,
};
pub use llmsched_core::scheduler::{LlmSched, LlmSchedConfig, LlmSchedConfigError};
pub use llmsched_core::store::{
    ProfileSnapshot, ProfileStore, ProfileStoreConfig, ProfileStoreConfigError, ProfileUpdate,
    ProfileVersion,
};

/// One import for the whole public API.
pub mod prelude {
    pub use llmsched_bayes::prelude::*;
    pub use llmsched_core::prelude::*;
    pub use llmsched_dag::prelude::*;
    pub use llmsched_schedulers::prelude::*;
    pub use llmsched_sim::prelude::*;
    pub use llmsched_workloads::prelude::*;
}
