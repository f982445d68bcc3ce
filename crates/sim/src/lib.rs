//! # llmsched-sim — discrete-event cluster simulator for compound LLM jobs
//!
//! The serving substrate of the LLMSched reproduction (§II-B and §V of the
//! paper): a cluster of **regular executors** (one task each) and **LLM
//! executors** (continuous batching up to a max batch size, with a
//! batch-size-dependent decode-latency curve [`latency::LatencyProfile`]).
//!
//! Scheduling policies implement [`scheduler::Scheduler`] and are invoked at
//! every decision point with a filtered [`scheduler::SchedContext`]; the
//! engine enforces the paper's reveal protocol, so policies can only observe
//! what a real serving frontend could (revealed structure, completed-stage
//! durations, executor occupancy).
//!
//! The engine↔scheduler seam is **delta-driven**: the engine keeps a
//! persistent sorted job index and streams
//! [`SchedDelta`](scheduler::SchedDelta)s (arrivals, stage completions,
//! reveals, job completions, task dispatch/finish counts) through
//! [`Scheduler::on_delta`](scheduler::Scheduler::on_delta) before each
//! decision point, so policies maintain persistent state instead of
//! rebuilding their view per event. The [`incr`] module provides the
//! standard toolkit (ordered job indices, estimate caches with
//! delta-driven dirtiness); `DESIGN.md` §7 specifies the contract.
//!
//! LLM serving is pluggable: the engine drives an
//! [`exec::ExecutorBackend`] trait object, and four backends ship
//! (selected by [`engine::EngineMode`]): the analytic rate-rescaling
//! backend [`exec::AnalyticExec`] — the paper's *simulator* — the
//! token-level continuous-batching backend [`exec::TokenExec`] standing
//! in for the paper's GPU *testbed*, the heterogeneous routed
//! multi-replica backend [`exec::ClusterExec`], and the disaggregated
//! prefill/decode backend [`exec::DisaggExec`]. Cluster topologies
//! (replica groups, routing policies, disaggregation layouts) are
//! described by `llmsched-cluster`'s
//! [`ClusterSpec`](llmsched_cluster::ClusterSpec), threaded through
//! [`engine::ClusterConfig::spec`]. New serving models plug in behind the
//! same trait without touching the event loop.
//!
//! ## Example: simulate one job under a trivial FCFS-ish policy
//!
//! ```
//! use llmsched_dag::prelude::*;
//! use llmsched_sim::prelude::*;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! struct EveryReadyTask;
//! impl Scheduler for EveryReadyTask {
//!     fn name(&self) -> &str { "every-ready-task" }
//!     fn schedule(&mut self, ctx: &SchedContext<'_>) -> Preference {
//!         let mut p = Preference::new();
//!         for job in &ctx.jobs {
//!             for &s in job.ready_stage_ids() {
//!                 p.push_stage_tasks(job, s);
//!             }
//!         }
//!         p
//!     }
//! }
//!
//! let mut b = TemplateBuilder::new(AppId(0), "demo");
//! let gen = b.llm("gen");
//! let exec = b.regular("exec");
//! b.edge(gen, exec);
//! let template = b.build()?;
//! let job = JobSpec::new(JobId(0), &template, SimTime::ZERO, vec![
//!     StageSpec::executing("gen", StageKind::Llm,
//!         vec![TaskWork::Llm { prompt_tokens: 32, output_tokens: 64 }]),
//!     StageSpec::executing("exec", StageKind::Regular,
//!         vec![TaskWork::Regular { duration: SimDuration::from_millis(500) }]),
//! ], vec![])?;
//!
//! let templates: TemplateSet = [template].into_iter().collect();
//! let result = simulate(&ClusterConfig::default(), &templates, vec![job],
//!                       &mut EveryReadyTask);
//! assert_eq!(result.jobs.len(), 1);
//! assert_eq!(result.incomplete, 0);
//! # Ok(())
//! # }
//! ```

// `deny`, not `forbid`: the crate is unsafe-free except for the narrowly
// scoped `#[allow(unsafe_code)]` blocks inside `par`'s persistent worker
// pool (lifetime-erased job publication + index-exclusive result slots),
// each of which carries its SAFETY argument inline.
#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod engine;
pub mod event;
pub mod exec;
pub mod incr;
pub mod metrics;
pub mod par;
pub mod scheduler;
pub mod state;

// The latency model moved to the cluster crate (specs carry per-group
// curves); re-exported here so `llmsched_sim::latency::…` paths keep
// working.
pub use llmsched_cluster::latency;

// The observability layer (probes, trace export, windowed time-series)
// lives in its own dependency-light crate; re-exported so simulator users
// reach it as `llmsched_sim::telemetry::…`.
pub use llmsched_telemetry as telemetry;

/// Convenient glob-import of the simulator's public surface.
pub mod prelude {
    pub use crate::engine::{simulate, simulate_probed, ClusterConfig, EngineMode};
    pub use crate::exec::{
        AnalyticExec, ClusterExec, DisaggExec, ExecutorBackend, LlmTaskRef, StepOutcome, TokenExec,
    };
    pub use crate::incr::{DeltaIndex, EstimateCache, FiniteF64};
    pub use crate::latency::{LatencyProfile, LatencyProfileError};
    pub use crate::metrics::{
        JctPercentiles, JobOutcome, SchedOverheadPercentiles, SimResult, Utilization,
    };
    pub use crate::par::{ParStats, Parallelism, ShardStats};
    pub use crate::scheduler::{Preference, SchedContext, SchedDelta, Scheduler, TaskRef};
    pub use crate::state::{Existence, JobRt, LlmExecutorView, StageView};
    pub use crate::telemetry::{
        NoopProbe, Probe, ProbeEvent, TimeSeries, TraceConfig, TraceRecorder, WindowConfig,
    };
    pub use llmsched_cluster::{
        ClusterSpec, DisaggSpec, ReplicaGroup, ReplicaView, RouteRequest, Router, RoutingPolicy,
    };
}
