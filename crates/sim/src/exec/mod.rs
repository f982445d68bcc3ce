//! The pluggable LLM executor layer.
//!
//! The engine used to hardcode the paper's two serving fidelities as an
//! inlined enum; every future resource model (paged/chunked batching,
//! multi-replica sharding, disaggregated prefill) would have grown that
//! match. This module splits the concern behind a trait boundary, the way
//! DSLab's dslab-dag keeps resource models behind its scheduler/resource
//! traits:
//!
//! * [`ExecutorBackend`] — what the engine needs from a pool of LLM
//!   executors: **place** a task on an executor (routing), **admit** it
//!   into a batch, advance a backend timer (**step**), remove a finished
//!   task (**drain**), and keep a [`SlotLedger`] of per-executor
//!   occupancy and capacity.
//! * [`SlotLedger`] — the pool accounting every backend shares: the
//!   scheduler-visible per-executor views plus integer pool totals
//!   (occupied slots, busy executors, full executors, total slots). A
//!   backend updates it at each occupancy change; the engine's
//!   utilization integrals, capacity checks and scheduler views read it
//!   without walking the pool, and it owns the one least-loaded
//!   placement rule ([`SlotLedger::least_loaded`]).
//! * [`cluster::ClusterExec`] — the paper's *simulator*: rate-rescaling
//!   batching that settles decode progress on every membership change and
//!   re-times the batch at the new rate, keeping one live finish event
//!   per busy replica (its earliest finisher), over the flat replica
//!   table of a [`ClusterSpec`](llmsched_cluster::ClusterSpec). Each
//!   replica carries its group's latency curve and batch capacity, and
//!   placement follows the spec's
//!   [`RoutingPolicy`](llmsched_cluster::RoutingPolicy). The default
//!   spec is the paper's homogeneous least-loaded pool.
//! * [`token_level::TokenExec`] — the paper's *testbed* stand-in:
//!   per-iteration continuous batching (requests join at iteration
//!   boundaries, every iteration costs `l(batch)` and emits `chunk`
//!   tokens per request), with one [`Event::LlmStep`] wake-up per batch
//!   change: a busy unit computes the boundary where its next task
//!   finishes instead of stepping to it.
//! * [`disagg::DisaggExec`] — disaggregated prefill/decode serving: a
//!   request first occupies a dedicated prefill replica for
//!   `prompt_tokens × prefill_per_token`, pays a KV-cache
//!   `transfer_delay`, and only then joins a decode batch on the replica
//!   the router chose at admission. Decode proceeds analytically
//!   (rate-rescaling, the same per-replica batch model as
//!   [`cluster::ClusterExec`]), so the backend is event-sparse: one
//!   [`Event::LlmStep`] per admitted task (the prefill→decode handoff)
//!   plus one [`Event::TaskFinish`] per decode membership change, for
//!   the busy replica's earliest finisher.
//! * [`pool`] — the [`EngineMode`] → backend factory.
//!
//! Backends interact with the engine through [`ExecCtx`]: they may read
//! the clock and the reference latency curve, and post [`Event`]s into
//! the engine's queue — either a [`Event::TaskFinish`] for a task whose
//! completion time is now known (analytic re-timing) or a
//! [`Event::LlmStep`] wake-up for their own deferred work (the
//! token-level backend's decode stretches, the disaggregated backend's
//! prefill→decode handoffs). Apart from the finish epochs that posting
//! or cancelling a [`Event::TaskFinish`] bumps, the engine remains the
//! only place that mutates job/stage/task state; the reveal protocol of
//! §IV-A never leaks into backends.

mod batching;
pub mod cluster;
pub mod disagg;
mod ledger;
pub mod pool;
pub mod token_level;

pub use cluster::ClusterExec;
pub use disagg::DisaggExec;
pub use ledger::SlotLedger;
pub use pool::{build_backend, EngineMode};
pub use token_level::TokenExec;

use llmsched_dag::time::SimTime;
use llmsched_dag::work::LlmWork;
use llmsched_telemetry::{Probe, ProbeEvent};

use crate::event::{Event, EventQueue};
use crate::latency::LatencyProfile;
use crate::state::JobRt;

/// Identifies one LLM task by the engine's dense coordinates.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct LlmTaskRef {
    /// Dense job index in the engine's job table.
    pub job: usize,
    /// Stage id within the job.
    pub stage: u32,
    /// Task index within the stage.
    pub task: u32,
}

/// The slice of engine state a backend may touch while handling a hook.
///
/// Rebuilt per call; borrows the engine's clock, the shared decode-latency
/// curve, the event queue and the job table. Backends schedule events only
/// through [`ExecCtx::post_finish`] and [`ExecCtx::post_step`], which push
/// straight into the engine's queue — so a hook's events take their
/// sequence numbers in emission order, and the job table is touched only
/// to bump the epochs of the tasks whose finish events are posted or
/// cancelled.
#[derive(Debug)]
pub struct ExecCtx<'a> {
    /// Current simulation time.
    pub now: SimTime,
    /// The reference decode-latency curve
    /// ([`ClusterConfig::latency`](crate::engine::ClusterConfig::latency)).
    /// Only [`TokenExec`] decodes with it; the replica-table backends
    /// carry per-group curves.
    pub latency: &'a LatencyProfile,
    /// The engine's event queue.
    pub(crate) queue: &'a mut EventQueue,
    /// The engine's job table (for per-task finish epochs).
    pub(crate) jobs: &'a mut [JobRt],
    /// The run's telemetry probe, present only while one is enabled —
    /// `None` costs backends a single branch per emission (see
    /// [`ExecCtx::emit`]).
    pub probe: Option<&'a mut dyn Probe>,
}

impl ExecCtx<'_> {
    /// Delivers `ev` to the probe if one is enabled. Call sites build the
    /// event inline, so a disabled probe pays only the `None` check.
    pub fn emit(&mut self, ev: ProbeEvent) {
        if let Some(p) = self.probe.as_mut() {
            p.record(&ev);
        }
    }

    /// Schedules `task` to finish at `at`, invalidating any finish event
    /// posted for it earlier (per-task epochs make stale events no-ops).
    /// The replica-table backends keep one such event live per busy
    /// replica: the batch's earliest finisher.
    pub fn post_finish(&mut self, task: LlmTaskRef, at: SimTime) {
        debug_assert!(
            at >= self.now,
            "backends never post into the past (remaining decode time is \
             non-negative)"
        );
        let epoch = self.jobs[task.job].bump_task_epoch(task.stage, task.task);
        self.queue.push(
            at,
            Event::TaskFinish {
                job: task.job,
                stage: task.stage,
                task: task.task,
                epoch,
            },
        );
    }

    /// Invalidates any finish event posted for `task` without posting a
    /// new one. A re-timing replica cancels the event it posted last: its
    /// task may have drained, or may no longer finish first.
    pub fn cancel_finish(&mut self, task: LlmTaskRef) {
        self.jobs[task.job].bump_task_epoch(task.stage, task.task);
    }

    /// Schedules a backend wake-up ([`Event::LlmStep`]) for executor
    /// `exec` at `at`; `epoch` must match the backend's current step epoch
    /// when the event fires, or the step is discarded as stale.
    pub fn post_step(&mut self, exec: usize, epoch: u64, at: SimTime) {
        self.queue.push(at, Event::LlmStep { exec, epoch });
    }
}

#[cfg(test)]
impl<'a> ExecCtx<'a> {
    /// A probe-less context over test-owned engine state.
    pub(crate) fn for_test(
        now: SimTime,
        latency: &'a LatencyProfile,
        queue: &'a mut EventQueue,
        jobs: &'a mut [JobRt],
    ) -> Self {
        ExecCtx {
            now,
            latency,
            queue,
            jobs,
            probe: None,
        }
    }
}

/// A pool of LLM executors under one batching/serving model.
///
/// The engine owns exactly one backend (chosen from
/// [`pool::EngineMode`] via [`pool::build_backend`]) and talks to it only
/// through this trait:
///
/// * [`place`](ExecutorBackend::place) when the dispatcher routes a
///   ready LLM task (least-loaded through the ledger, or the replica
///   table's [`RoutingPolicy`](llmsched_cluster::RoutingPolicy)),
/// * [`admit`](ExecutorBackend::admit) when the dispatcher places a task
///   on the chosen executor,
/// * [`step`](ExecutorBackend::step) when a [`Event::LlmStep`] the
///   backend posted comes due,
/// * [`drain`](ExecutorBackend::drain) when a task's completion is
///   processed (the batch slot must be released synchronously),
/// * [`ledger`](ExecutorBackend::ledger) whenever placement, capacity
///   checks, utilization accounting or the scheduler-visible
///   [`LlmExecutorView`](crate::state::LlmExecutorView)s need batch
///   sizes. The engine never walks the pool itself: every pool-wide
///   figure it needs is an O(1) read of the ledger's totals.
///
/// # Invariants
///
/// Implementations must keep, for every executor index `e`:
///
/// 1. the ledger's occupancy of `e` equals admitted − finished − drained
///    tasks for `e`: the backend reports every occupancy change to its
///    [`SlotLedger`] where it happens — in `admit`, in a `step` that
///    finishes tasks, and in `drain` (admission is synchronous, whatever
///    internal join staging — or prefill transit — is used);
/// 2. a task admitted exactly once is eventually reported finished
///    exactly once — via a posted [`Event::TaskFinish`] or an entry
///    [`step`](ExecutorBackend::step) appends to `finished` — provided
///    posted events keep being delivered;
/// 3. `drain` of a task already removed by
///    [`step`](ExecutorBackend::step) is a no-op (the engine always
///    drains on completion, including completions the backend itself
///    reported);
/// 4. `place` only returns executors whose ledger occupancy is below
///    their capacity.
pub trait ExecutorBackend: std::fmt::Debug {
    /// Short backend family name (e.g. `"cluster"`, `"token-level"`).
    fn name(&self) -> &'static str;

    /// Full self-description for results and reports; backends with a
    /// configurable routing policy append it (e.g. `"cluster/jsq"`).
    fn descriptor(&self) -> String {
        self.name().to_string()
    }

    /// The pool's slot ledger: one entry per LLM executor (for
    /// disaggregated backends: the decode replicas — prefill replicas
    /// are internal), with the slots each holds (running, staged to
    /// join at the next boundary, or in prefill transit toward it) and
    /// its batch capacity.
    fn ledger(&self) -> &SlotLedger;

    /// Routes `task` to an executor with a free slot, or `None` when the
    /// pool is full. The default is least-loaded placement
    /// ([`SlotLedger::least_loaded`]: fewest occupied slots, then most
    /// free slots, then lowest index). The replica-table backends follow
    /// their spec's [`RoutingPolicy`](llmsched_cluster::RoutingPolicy):
    /// least-loaded, and session affinity's spill, through the same
    /// ledger rule, and join-shortest-queue over per-replica queued
    /// tokens kept current at each occupancy change.
    fn place(&mut self, task: LlmTaskRef, work: LlmWork) -> Option<usize> {
        let _ = (task, work);
        self.ledger().least_loaded()
    }

    /// Admits `task` (with token counts `work`) into executor `exec`'s
    /// batch. Called by the dispatcher after readiness checks, with `exec`
    /// the executor [`place`](ExecutorBackend::place) chose.
    fn admit(&mut self, exec: usize, task: LlmTaskRef, work: LlmWork, cx: &mut ExecCtx<'_>);

    /// Handles a [`Event::LlmStep`] wake-up this backend posted earlier.
    /// Appends the tasks whose decoding completed, in completion order,
    /// to `finished` (a buffer the engine lends and reuses; it runs its
    /// completion cascade for each entry) and returns whether the step
    /// changed any state a scheduler could observe. Stale epochs and
    /// no-op steps append nothing and return `false`, which suppresses a
    /// scheduler invocation.
    fn step(
        &mut self,
        exec: usize,
        epoch: u64,
        cx: &mut ExecCtx<'_>,
        finished: &mut Vec<LlmTaskRef>,
    ) -> bool;

    /// Releases `task`'s batch slot on executor `exec`. Called by the
    /// engine for every LLM task completion; must be a no-op if the
    /// backend already removed the task during the step that finished it.
    fn drain(&mut self, exec: usize, task: LlmTaskRef, cx: &mut ExecCtx<'_>);
}
