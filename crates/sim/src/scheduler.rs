//! The scheduler interface: what every policy (the baselines and LLMSched
//! itself) implements, and the context the engine hands it at each decision
//! point.

use llmsched_dag::ids::{AppId, JobId, StageId};
use llmsched_dag::template::TemplateSet;
use llmsched_dag::time::{SimDuration, SimTime};

use crate::latency::LatencyProfile;
use crate::state::{JobRt, LlmExecutorView};

/// One incremental state change, emitted by the engine between scheduler
/// invocations.
///
/// Deltas are the contract that lets policies keep *persistent* state
/// (sorted job indices, cached estimates, Bayesian beliefs) instead of
/// rebuilding their view of the cluster from scratch at every decision
/// point. The engine accumulates deltas while it applies events and
/// delivers the whole batch — in emission order — through
/// [`Scheduler::on_delta`] immediately before the next
/// [`Scheduler::schedule`] call; the same batch is visible as
/// [`SchedContext::deltas`]. See `DESIGN.md` §7 for the full ordering and
/// coalescing guarantees.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SchedDelta {
    /// A job arrived and is now schedulable.
    JobArrived {
        /// The job.
        job: JobId,
        /// Its arrival time.
        arrival: SimTime,
    },
    /// A stage completed (executed to completion, voided, or a placeholder
    /// auto-completing). Completed-stage durations — the Bayesian evidence —
    /// can only change under one of these deltas.
    StageCompleted {
        /// The job.
        job: JobId,
        /// The completed stage.
        stage: StageId,
    },
    /// A stage's existence was revealed (hidden generated stage became
    /// known, or an undetermined padded stage resolved). Visibility — and
    /// therefore any cached topology feature — can only change under one
    /// of these deltas.
    StageRevealed {
        /// The job.
        job: JobId,
        /// The revealed stage.
        stage: StageId,
        /// True if the stage will execute; false if it voided.
        executes: bool,
    },
    /// A job finished all stages and left the active set. Per-job scheduler
    /// state may be evicted deterministically on this delta; no further
    /// deltas for the job will follow.
    JobCompleted {
        /// The job.
        job: JobId,
    },
    /// The engine started `count` tasks of one stage from the previous
    /// invocation's preference lists. Consecutive same-stage dispatches are
    /// coalesced.
    TasksDispatched {
        /// The job.
        job: JobId,
        /// The stage whose tasks started.
        stage: StageId,
        /// Number of tasks started.
        count: u32,
    },
    /// `count` running tasks of one stage finished (the stage itself may
    /// still be incomplete). Together with [`SchedDelta::TasksDispatched`]
    /// this keeps per-job running-task counts reconstructible without
    /// scanning. Consecutive same-stage finishes are coalesced.
    TasksFinished {
        /// The job.
        job: JobId,
        /// The stage whose tasks finished.
        stage: StageId,
        /// Number of tasks finished.
        count: u32,
    },
    /// A *template* stage's true batch-1 duration became observable (the
    /// stage completed): the profiler-grade observation feeding online
    /// profile updates. Voided stages observe zero; dynamic placeholders
    /// aggregate their generated stages' realized work. Emitted
    /// immediately after the stage's [`SchedDelta::StageCompleted`];
    /// generated stages (which carry no BN variable) emit none.
    StageObserved {
        /// The job.
        job: JobId,
        /// The job's application (so observation consumers need no
        /// job-to-app side table).
        app: AppId,
        /// The completed template stage.
        stage: StageId,
        /// Batch-1-normalized realized duration.
        nominal: SimDuration,
    },
    /// A dynamic placeholder's structural outcome, one delta per generated
    /// stage: candidate `candidate` was instantiated in this job. Emitted
    /// at placeholder completion, before the placeholder's own
    /// [`SchedDelta::StageObserved`].
    DynCandidateObserved {
        /// The job.
        job: JobId,
        /// The placeholder (template stage id).
        placeholder: StageId,
        /// Index into the placeholder's candidate set.
        candidate: u32,
    },
    /// A dynamic placeholder's structural outcome, one delta per inner
    /// edge between generated stages, mapped to candidate indices (the
    /// Eq. 4 edge-frequency observation).
    DynEdgeObserved {
        /// The job.
        job: JobId,
        /// The placeholder (template stage id).
        placeholder: StageId,
        /// Candidate index of the edge's source stage.
        from: u32,
        /// Candidate index of the edge's target stage.
        to: u32,
    },
}

impl SchedDelta {
    /// The job this delta concerns.
    pub fn job(&self) -> JobId {
        match *self {
            SchedDelta::JobArrived { job, .. }
            | SchedDelta::StageCompleted { job, .. }
            | SchedDelta::StageRevealed { job, .. }
            | SchedDelta::JobCompleted { job }
            | SchedDelta::TasksDispatched { job, .. }
            | SchedDelta::TasksFinished { job, .. }
            | SchedDelta::StageObserved { job, .. }
            | SchedDelta::DynCandidateObserved { job, .. }
            | SchedDelta::DynEdgeObserved { job, .. } => job,
        }
    }

    /// True for the observation deltas feeding online profile updates
    /// ([`SchedDelta::StageObserved`] and the dynamic-structure pair) —
    /// pure information, never a scheduling-state change.
    pub fn is_observation(&self) -> bool {
        matches!(
            self,
            SchedDelta::StageObserved { .. }
                | SchedDelta::DynCandidateObserved { .. }
                | SchedDelta::DynEdgeObserved { .. }
        )
    }
}

/// Reference to one schedulable task.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TaskRef {
    /// The job.
    pub job: JobId,
    /// The stage within the job.
    pub stage: StageId,
    /// The task index within the stage.
    pub task: u32,
}

/// The engine's active-job projection: a borrowed view over the dense job
/// table filtered to active (arrived, incomplete) jobs, ascending by
/// [`JobId`].
///
/// This replaces the old per-invocation `Vec<&JobRt>` collect — the view
/// is two borrowed slices, so building a [`SchedContext`] allocates
/// nothing. Index and iteration semantics are unchanged: `jobs[i]` is the
/// i-th active job, iteration ascends by `JobId`.
#[derive(Debug, Clone, Copy)]
pub struct ActiveJobs<'a> {
    all: &'a [JobRt],
    /// `None` means every entry of `all` is active (hand-built test
    /// contexts); otherwise the sorted dense indices of active jobs.
    active: Option<&'a [u32]>,
}

impl<'a> ActiveJobs<'a> {
    /// A view in which every job of `all` is active — the constructor for
    /// hand-built contexts (tests, probes). `all` must ascend by `JobId`.
    pub fn dense(all: &'a [JobRt]) -> Self {
        ActiveJobs { all, active: None }
    }

    /// The engine's projection: `active` holds sorted dense indices into
    /// `all`.
    pub fn projected(all: &'a [JobRt], active: &'a [u32]) -> Self {
        ActiveJobs {
            all,
            active: Some(active),
        }
    }

    /// Number of active jobs.
    pub fn len(&self) -> usize {
        match self.active {
            Some(a) => a.len(),
            None => self.all.len(),
        }
    }

    /// True if no jobs are active.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The i-th active job (ascending by `JobId`).
    ///
    /// # Panics
    /// Panics if `i >= self.len()`.
    pub fn get(&self, i: usize) -> &'a JobRt {
        match self.active {
            Some(a) => &self.all[a[i] as usize],
            None => &self.all[i],
        }
    }

    /// Iterates the active jobs in ascending `JobId` order.
    pub fn iter(&self) -> ActiveJobsIter<'a> {
        ActiveJobsIter { jobs: *self, i: 0 }
    }

    /// Binary-searches the active set for `id`, returning its position.
    pub fn position_of(&self, id: JobId) -> Option<usize> {
        let (mut lo, mut hi) = (0usize, self.len());
        while lo < hi {
            let mid = lo + (hi - lo) / 2;
            match self.get(mid).id().cmp(&id) {
                std::cmp::Ordering::Less => lo = mid + 1,
                std::cmp::Ordering::Greater => hi = mid,
                std::cmp::Ordering::Equal => return Some(mid),
            }
        }
        None
    }
}

impl std::ops::Index<usize> for ActiveJobs<'_> {
    type Output = JobRt;
    fn index(&self, i: usize) -> &JobRt {
        self.get(i)
    }
}

impl<'a> IntoIterator for &ActiveJobs<'a> {
    type Item = &'a JobRt;
    type IntoIter = ActiveJobsIter<'a>;
    fn into_iter(self) -> ActiveJobsIter<'a> {
        self.iter()
    }
}

/// Iterator over [`ActiveJobs`].
#[derive(Debug, Clone)]
pub struct ActiveJobsIter<'a> {
    jobs: ActiveJobs<'a>,
    i: usize,
}

impl<'a> Iterator for ActiveJobsIter<'a> {
    type Item = &'a JobRt;
    fn next(&mut self) -> Option<&'a JobRt> {
        (self.i < self.jobs.len()).then(|| {
            let j = self.jobs.get(self.i);
            self.i += 1;
            j
        })
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let n = self.jobs.len() - self.i;
        (n, Some(n))
    }
}

impl ExactSizeIterator for ActiveJobsIter<'_> {}

/// Ordered scheduling preferences: the engine starts tasks from the front of
/// each list as capacity allows (Algorithm 1 returns exactly these two
/// lists, `T_r` and `T_l`).
#[derive(Debug, Clone, Default)]
pub struct Preference {
    /// Preference order for regular-executor tasks.
    pub regular: Vec<TaskRef>,
    /// Preference order for LLM-executor tasks.
    pub llm: Vec<TaskRef>,
}

impl Preference {
    /// An empty preference (schedule nothing).
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends all unstarted ready tasks of `stage`, routed to the matching
    /// list by the stage's kind. Convenience shared by every scheduler.
    pub fn push_stage_tasks(&mut self, job: &JobRt, stage: StageId) {
        use llmsched_dag::job::StageKind;
        let list = match job.visible_kind(stage) {
            Some(StageKind::Regular) => &mut self.regular,
            Some(StageKind::Llm) => &mut self.llm,
            Some(StageKind::DynamicPlaceholder) | None => return,
        };
        for task in job.unstarted_tasks(stage) {
            list.push(TaskRef {
                job: job.id(),
                stage,
                task,
            });
        }
    }

    /// Appends a *prefix* of the unstarted ready tasks of `stage` — used by
    /// Algorithm 1's task sampling (line 15). `fraction` is clamped to
    /// [0, 1]; at least one task is sampled from a non-empty stage.
    pub fn push_stage_sample(&mut self, job: &JobRt, stage: StageId, fraction: f64) {
        use llmsched_dag::job::StageKind;
        let list = match job.visible_kind(stage) {
            Some(StageKind::Regular) => &mut self.regular,
            Some(StageKind::Llm) => &mut self.llm,
            Some(StageKind::DynamicPlaceholder) | None => return,
        };
        let n = job.unstarted_count(stage);
        if n == 0 {
            return;
        }
        let f = fraction.clamp(0.0, 1.0);
        let k = ((n as f64 * f).ceil() as usize).max(1).min(n);
        for task in job.unstarted_tasks(stage).take(k) {
            list.push(TaskRef {
                job: job.id(),
                stage,
                task,
            });
        }
    }

    /// Total number of task references across both lists.
    pub fn len(&self) -> usize {
        self.regular.len() + self.llm.len()
    }

    /// True if both lists are empty.
    pub fn is_empty(&self) -> bool {
        self.regular.is_empty() && self.llm.is_empty()
    }
}

/// Everything a scheduler may consult at a decision point.
///
/// Lifetimes borrow from the engine. The `jobs` view is a borrow of the
/// engine's persistent sorted job index (an ordered set of active jobs,
/// kept incrementally across events) — constructing a context allocates
/// nothing; policies that maintain their own state via
/// [`SchedContext::deltas`] / [`Scheduler::on_delta`] need not rescan it.
#[derive(Debug)]
pub struct SchedContext<'a> {
    /// Current simulation time.
    pub now: SimTime,
    /// Active (arrived, incomplete) jobs, ascending by `JobId`.
    pub jobs: ActiveJobs<'a>,
    /// State changes since the previous scheduler invocation, in emission
    /// order (the same batch delivered through [`Scheduler::on_delta`]).
    pub deltas: &'a [SchedDelta],
    /// LLM executor occupancy, as reported by the active
    /// [`ExecutorBackend`](crate::exec::ExecutorBackend) (the engine
    /// refreshes one reused buffer per invocation).
    pub llm_executors: &'a [LlmExecutorView],
    /// Descriptor of the active executor backend (e.g. `"analytic"`,
    /// `"cluster/jsq"`): lets fidelity-aware policies and the Eq. 2
    /// calibration know which serving model — and routing policy —
    /// produced the occupancy view.
    pub backend: &'a str,
    /// Total number of regular executors.
    pub regular_total: usize,
    /// Currently busy regular executors.
    pub regular_busy: usize,
    /// Number of ready, unstarted tasks across active jobs — the amount of
    /// work a preference could actually start right now. Zero means this
    /// invocation cannot dispatch anything; policies short-circuit on it
    /// (and the engine's coalescing skips such invocations entirely when
    /// [`ClusterConfig::coalescing`](crate::engine::ClusterConfig) is on),
    /// so policy state evolves identically either way.
    pub dispatchable: usize,
    /// [`SchedContext::dispatchable`] restricted to regular-executor
    /// stages. Informational split for policies that want per-class
    /// frontier sizes without rescanning.
    pub dispatchable_regular: usize,
    /// [`SchedContext::dispatchable`] restricted to LLM-executor stages.
    pub dispatchable_llm: usize,
    /// Engine-computed capacity verdict: true iff at least one ready,
    /// unstarted task could start *right now* — a free regular executor
    /// with ready regular work, or a free LLM batch slot with ready LLM
    /// work. This is exactly the predicate the engine's capacity-aware
    /// elision uses (see [`ClusterConfig::elision`](crate::engine::ClusterConfig)):
    /// a policy that early-returns an empty preference whenever
    /// `!could_dispatch` — before touching any RNG or order-dependent
    /// state — may declare [`Scheduler::is_work_conserving`] and have
    /// such invocations elided entirely, bit-identically. The field is
    /// engine-computed (not derived from the views) so the policy-side
    /// early-return and the engine-side elision can never disagree.
    pub could_dispatch: bool,
    /// Registered application templates.
    pub templates: &'a TemplateSet,
    /// The cluster's decode-latency curve (public knowledge: providers
    /// profile their own engines; Eq. 2 relies on it).
    pub latency: &'a LatencyProfile,
}

impl SchedContext<'_> {
    /// Free regular-executor count.
    pub fn regular_free(&self) -> usize {
        self.regular_total - self.regular_busy
    }

    /// Total free LLM batch slots across executors.
    pub fn llm_free_slots(&self) -> usize {
        self.llm_executors.iter().map(|e| e.free_slots()).sum()
    }

    /// Average batch size over busy LLM executors (1 if all idle) — the
    /// `b_t` plugged into Eq. (2) when predicting run-time durations.
    pub fn average_busy_batch(&self) -> f64 {
        crate::state::average_busy_batch(self.llm_executors)
    }

    /// Looks up an active job by id. `jobs` is ascending by `JobId`, so
    /// this is a binary search.
    pub fn job(&self, id: JobId) -> Option<&JobRt> {
        self.job_index(id).map(|i| self.jobs.get(i))
    }

    /// The position of an active job within [`SchedContext::jobs`], found
    /// by binary search over the ascending `JobId` order.
    pub fn job_index(&self, id: JobId) -> Option<usize> {
        self.jobs.position_of(id)
    }
}

/// A scheduling policy.
///
/// The engine calls [`Scheduler::schedule`] after every event batch (job
/// arrival, task completion, stage reveal) and dispatches tasks from the
/// returned preference lists in order, subject to executor capacity and
/// readiness. Invalid or stale [`TaskRef`]s are skipped silently, so a
/// scheduler may cheaply resubmit its full preference each time.
pub trait Scheduler {
    /// Human-readable policy name (used in reports).
    fn name(&self) -> &str;

    /// Produces scheduling preferences for the current cluster state.
    fn schedule(&mut self, ctx: &SchedContext<'_>) -> Preference;

    /// Observes one state change. The engine delivers the pending delta
    /// batch in emission order immediately before each [`Scheduler::schedule`]
    /// call; stateless policies may ignore it (the default is a no-op).
    ///
    /// Wrapper schedulers (recorders, probes) MUST forward this hook to
    /// their inner policy, or the inner policy's persistent state goes
    /// silently stale.
    fn on_delta(&mut self, delta: &SchedDelta) {
        let _ = delta;
    }

    /// Clears all persistent state. Called by the engine once at the start
    /// of every simulation, so a scheduler instance can be reused across
    /// runs. The default is a no-op.
    fn reset(&mut self) {}

    /// Toggles decision-provenance collection. The engine calls this once
    /// per run, after [`Scheduler::reset`], with `true` iff a telemetry
    /// probe is enabled; policies that can explain their choices (e.g.
    /// LLMSched's posterior state) start recording
    /// [`DecisionRecord`](llmsched_telemetry::DecisionRecord)s. The
    /// default ignores it. Wrapper schedulers MUST forward this hook.
    ///
    /// Recording must be observation-only: it must not touch any RNG or
    /// other schedule-relevant state (the probe-on/probe-off equivalence
    /// suite enforces bit-identical schedules).
    fn set_telemetry(&mut self, enabled: bool) {
        let _ = enabled;
    }

    /// Moves the provenance records accumulated since the last drain into
    /// `out` (appending; emission order). The engine drains after every
    /// invocation and stamps each record's `at`/`seq`. The default leaves
    /// `out` untouched. Wrapper schedulers MUST forward this hook.
    fn drain_provenance(&mut self, out: &mut Vec<llmsched_telemetry::DecisionRecord>) {
        let _ = out;
    }

    /// Declares that this policy is *work-conserving*: whenever
    /// [`SchedContext::could_dispatch`] is false, its [`Scheduler::schedule`]
    /// returns an empty preference without touching any RNG or other
    /// order-dependent state. The engine may then elide such invocations
    /// entirely (skipping the decision point — and, in the partitioned
    /// engine, its barrier) when
    /// [`ClusterConfig::elision`](crate::engine::ClusterConfig) is on,
    /// with bit-identical results guaranteed by `tests/elision_equiv.rs`.
    ///
    /// The default is `false` (never elide), so policies that don't opt
    /// in see identical behavior. Wrapper schedulers MUST forward this
    /// hook, or elision silently turns off under them.
    fn is_work_conserving(&self) -> bool {
        false
    }
}

/// Blanket impl so `Box<dyn Scheduler>` is itself a scheduler — lets the
/// bench harness treat heterogeneous policies uniformly.
impl<S: Scheduler + ?Sized> Scheduler for Box<S> {
    fn name(&self) -> &str {
        (**self).name()
    }

    fn schedule(&mut self, ctx: &SchedContext<'_>) -> Preference {
        (**self).schedule(ctx)
    }

    fn on_delta(&mut self, delta: &SchedDelta) {
        (**self).on_delta(delta)
    }

    fn reset(&mut self) {
        (**self).reset()
    }

    fn set_telemetry(&mut self, enabled: bool) {
        (**self).set_telemetry(enabled)
    }

    fn drain_provenance(&mut self, out: &mut Vec<llmsched_telemetry::DecisionRecord>) {
        (**self).drain_provenance(out)
    }

    fn is_work_conserving(&self) -> bool {
        (**self).is_work_conserving()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use llmsched_dag::prelude::*;

    fn job_with_parallel_stage(n_tasks: usize) -> crate::state::JobRt {
        let mut b = TemplateBuilder::new(AppId(0), "wide");
        let s = b.regular("wide");
        b.typical_tasks(s, n_tasks as u32);
        let t = b.build().unwrap();
        let tasks = vec![
            TaskWork::Regular {
                duration: SimDuration::from_secs(1)
            };
            n_tasks
        ];
        let spec = JobSpec::new(
            JobId(3),
            &t,
            SimTime::ZERO,
            vec![StageSpec::executing("wide", StageKind::Regular, tasks)],
            vec![],
        )
        .unwrap();
        crate::state::JobRt::new(spec)
    }

    #[test]
    fn push_stage_tasks_routes_by_kind() {
        let job = job_with_parallel_stage(3);
        let mut p = Preference::new();
        p.push_stage_tasks(&job, StageId(0));
        assert_eq!(p.regular.len(), 3);
        assert!(p.llm.is_empty());
        assert_eq!(
            p.regular[0],
            TaskRef {
                job: JobId(3),
                stage: StageId(0),
                task: 0
            }
        );
    }

    #[test]
    fn sampling_takes_ceil_fraction_with_min_one() {
        let job = job_with_parallel_stage(10);
        let mut p = Preference::new();
        p.push_stage_sample(&job, StageId(0), 0.25);
        assert_eq!(p.regular.len(), 3); // ceil(10 * 0.25)

        let mut p = Preference::new();
        p.push_stage_sample(&job, StageId(0), 0.0);
        assert_eq!(p.regular.len(), 1); // at least one task

        let mut p = Preference::new();
        p.push_stage_sample(&job, StageId(0), 5.0);
        assert_eq!(p.regular.len(), 10); // clamped to all
    }

    #[test]
    fn job_lookup_binary_searches_the_ascending_list() {
        let mut b = TemplateBuilder::new(AppId(0), "wide");
        let s = b.regular("wide");
        b.typical_tasks(s, 1);
        let t = b.build().unwrap();
        let jobs: Vec<crate::state::JobRt> = [2u64, 5, 9]
            .iter()
            .map(|&id| {
                let spec = JobSpec::new(
                    JobId(id),
                    &t,
                    SimTime::ZERO,
                    vec![StageSpec::executing(
                        "wide",
                        StageKind::Regular,
                        vec![TaskWork::Regular {
                            duration: SimDuration::from_secs(1),
                        }],
                    )],
                    vec![],
                )
                .unwrap();
                crate::state::JobRt::new(spec)
            })
            .collect();
        let latency = crate::latency::LatencyProfile::default();
        let templates: TemplateSet = std::iter::empty().collect();
        let ctx = SchedContext {
            now: SimTime::ZERO,
            jobs: ActiveJobs::dense(&jobs),
            deltas: &[],
            llm_executors: &[],
            backend: "analytic",
            regular_total: 1,
            regular_busy: 0,
            dispatchable: jobs.iter().map(|j| j.ready_unstarted_tasks()).sum(),
            dispatchable_regular: jobs.iter().map(|j| j.ready_unstarted_by_class().0).sum(),
            dispatchable_llm: jobs.iter().map(|j| j.ready_unstarted_by_class().1).sum(),
            could_dispatch: true,
            templates: &templates,
            latency: &latency,
        };
        assert_eq!(ctx.job(JobId(5)).map(|j| j.id()), Some(JobId(5)));
        assert_eq!(ctx.job_index(JobId(9)), Some(2));
        assert_eq!(ctx.job_index(JobId(2)), Some(0));
        assert!(ctx.job(JobId(4)).is_none());
        assert!(ctx.job(JobId(100)).is_none());
    }

    #[test]
    fn preference_len_counts_both_lists() {
        let mut p = Preference::new();
        assert!(p.is_empty());
        p.regular.push(TaskRef {
            job: JobId(0),
            stage: StageId(0),
            task: 0,
        });
        p.llm.push(TaskRef {
            job: JobId(0),
            stage: StageId(1),
            task: 0,
        });
        assert_eq!(p.len(), 2);
        assert!(!p.is_empty());
    }
}
