//! Runtime state of jobs, stages and tasks inside the engine, plus the
//! *filtered* read-only views handed to schedulers.
//!
//! The engine owns the hidden [`JobSpec`] ground truth; scheduler code only
//! receives [`JobRt`] references whose public methods expose exactly the
//! information the paper's reveal protocol allows: template structure,
//! revealed existence, task counts of known stages, task progress, and
//! batch-1-normalized durations of *completed* stages.
//!
//! # Memory layout
//!
//! Runtime state is struct-of-arrays over the job's stage and task spaces:
//! one dense array per field, with tasks addressed through the spec's flat
//! task arena ([`JobSpec::task_range`]). The visible and ready stage sets
//! are maintained *incrementally* at the state transitions that can change
//! them, so [`JobRt::visible_stage_ids`] / [`JobRt::ready_stage_ids`]
//! return borrowed slices and [`JobRt::unstarted_tasks`] /
//! [`JobRt::visible_preds`] / [`JobRt::visible_succs`] return lazy
//! iterators — the per-event allocation churn of the old per-stage
//! `Vec<TaskRt>` layout is gone. See `DESIGN.md` §9.

use llmsched_dag::ids::{AppId, JobId, StageId};
use llmsched_dag::job::{JobSpec, StageKind};
use llmsched_dag::time::SimTime;

/// Scheduler-visible existence of a stage.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Existence {
    /// The stage will execute.
    Known,
    /// Whether the stage executes is still unknown (padded chain stage whose
    /// revealing stage has not completed).
    Undetermined,
    /// The stage was revealed as not executing; it is complete with zero
    /// duration.
    Void,
}

/// Internal visibility of a stage (superset of [`Existence`]: generated
/// stages start entirely hidden).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Visibility {
    Hidden,
    Undetermined,
    Known,
    Void,
}

/// Execution state of a single task.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum TaskState {
    NotStarted,
    /// Running; for LLM tasks, `exec` is the executor index.
    Running {
        exec: Option<u32>,
    },
    Done,
}

/// Runtime record of one job: hidden spec + visible progress, stored as
/// struct-of-arrays over the stage/task spaces.
#[derive(Debug)]
pub struct JobRt {
    pub(crate) spec: JobSpec,
    // ---- per-stage arrays ----
    vis: Vec<Visibility>,
    done: Vec<bool>,
    done_at: Vec<Option<SimTime>>,
    started_at: Vec<Option<SimTime>>,
    tasks_done: Vec<u32>,
    tasks_running: Vec<u32>,
    /// Predecessors (over the *full* hidden DAG) not yet complete.
    preds_remaining: Vec<u32>,
    // ---- per-task arrays, indexed by the spec's flat task arena ----
    task_state: Vec<TaskState>,
    /// Re-timing epoch; finish events from older epochs are stale. A
    /// backend bumps it when it posts the task's finish event and when it
    /// cancels it (the replica re-timed and its earliest finisher may
    /// have changed), so at most the latest posted event is live.
    task_epoch: Vec<u32>,
    /// Batch-1-equivalent duration in seconds, set at completion. For
    /// regular tasks this equals the actual duration; for LLM tasks it is
    /// `total_tokens × l(1)` — what the task *would* have taken alone.
    task_nominal: Vec<f64>,
    // ---- incrementally maintained index sets (ascending) ----
    visible: Vec<StageId>,
    ready: Vec<StageId>,
    pub(crate) arrived: bool,
    pub(crate) completed_at: Option<SimTime>,
    pub(crate) stages_remaining: usize,
}

/// Inserts into an ascending id vector (no-op if present).
fn insert_sorted(set: &mut Vec<StageId>, s: StageId) {
    if let Err(pos) = set.binary_search(&s) {
        set.insert(pos, s);
    }
}

/// Removes from an ascending id vector (no-op if absent).
fn remove_sorted(set: &mut Vec<StageId>, s: StageId) {
    if let Ok(pos) = set.binary_search(&s) {
        set.remove(pos);
    }
}

impl JobRt {
    /// Builds the initial runtime state for a job spec (template stages
    /// visible, padded stages undetermined, generated stages hidden).
    ///
    /// Used by the engine at arrival; public so downstream crates can unit
    /// test schedulers against hand-built jobs without running a
    /// simulation.
    pub fn new(spec: JobSpec) -> Self {
        let n = spec.len();
        let vis: Vec<Visibility> = (0..n)
            .map(|i| {
                let sid = StageId(i as u32);
                if spec.is_generated(sid) {
                    Visibility::Hidden
                } else if spec.stage(sid).revealed_by.is_some() {
                    Visibility::Undetermined
                } else {
                    Visibility::Known
                }
            })
            .collect();
        let preds_remaining: Vec<u32> = (0..n)
            .map(|i| spec.dag().predecessors(i).len() as u32)
            .collect();
        let n_tasks = spec.total_tasks();
        let mut rt = JobRt {
            vis,
            done: vec![false; n],
            done_at: vec![None; n],
            started_at: vec![None; n],
            tasks_done: vec![0; n],
            tasks_running: vec![0; n],
            preds_remaining,
            task_state: vec![TaskState::NotStarted; n_tasks],
            task_epoch: vec![0; n_tasks],
            task_nominal: vec![0.0; n_tasks],
            visible: Vec::new(),
            ready: Vec::new(),
            arrived: false,
            completed_at: None,
            stages_remaining: n,
            spec,
        };
        rt.visible = (0..n as u32)
            .map(StageId)
            .filter(|&s| rt.vis[s.index()] != Visibility::Hidden)
            .collect();
        rt.ready = (0..n as u32)
            .map(StageId)
            .filter(|&s| rt.in_ready_set(s.0))
            .collect();
        rt
    }

    /// The ready-set membership predicate: schedulable *and* still holding
    /// unstarted tasks.
    fn in_ready_set(&self, stage: u32) -> bool {
        let sid = StageId(stage);
        self.stage_ready(sid) && {
            let i = stage as usize;
            (self.tasks_done[i] + self.tasks_running[i]) < self.n_stage_tasks(stage) as u32
        }
    }

    /// Re-evaluates one stage's ready-set membership after a transition.
    fn refresh_ready(&mut self, stage: u32) {
        let sid = StageId(stage);
        if self.in_ready_set(stage) {
            insert_sorted(&mut self.ready, sid);
        } else {
            remove_sorted(&mut self.ready, sid);
        }
    }

    // ------------------------------------------------------------------
    // Engine-side mutation API (keeps the index sets consistent).
    // ------------------------------------------------------------------

    #[inline]
    fn tix(&self, stage: u32, task: u32) -> usize {
        self.spec.task_range(StageId(stage)).start + task as usize
    }

    pub(crate) fn n_stage_tasks(&self, stage: u32) -> usize {
        self.spec.task_range(StageId(stage)).len()
    }

    pub(crate) fn vis_of(&self, stage: u32) -> Visibility {
        self.vis[stage as usize]
    }

    pub(crate) fn is_done(&self, stage: u32) -> bool {
        self.done[stage as usize]
    }

    pub(crate) fn preds_remaining_of(&self, stage: u32) -> u32 {
        self.preds_remaining[stage as usize]
    }

    pub(crate) fn task_state_of(&self, stage: u32, task: u32) -> TaskState {
        self.task_state[self.tix(stage, task)]
    }

    pub(crate) fn task_epoch_of(&self, stage: u32, task: u32) -> u32 {
        self.task_epoch[self.tix(stage, task)]
    }

    /// Invalidates the task's posted finish events; returns the new epoch.
    pub(crate) fn bump_task_epoch(&mut self, stage: u32, task: u32) -> u32 {
        let ix = self.tix(stage, task);
        self.task_epoch[ix] += 1;
        self.task_epoch[ix]
    }

    /// Transitions a task to running; returns its current epoch.
    pub(crate) fn start_task(
        &mut self,
        stage: u32,
        task: u32,
        exec: Option<u32>,
        now: SimTime,
    ) -> u32 {
        let ix = self.tix(stage, task);
        debug_assert_eq!(self.task_state[ix], TaskState::NotStarted);
        self.task_state[ix] = TaskState::Running { exec };
        self.started_at[stage as usize].get_or_insert(now);
        self.tasks_running[stage as usize] += 1;
        // Starting a task can only *exhaust* the stage's unstarted set.
        if self.tasks_done[stage as usize] + self.tasks_running[stage as usize]
            >= self.n_stage_tasks(stage) as u32
        {
            remove_sorted(&mut self.ready, StageId(stage));
        }
        self.task_epoch[ix]
    }

    /// Records a task completion (state + counters + nominal duration);
    /// returns true when this was the stage's last task. Ready membership
    /// is untouched: `done + running` is invariant under a finish.
    pub(crate) fn record_task_done(&mut self, stage: u32, task: u32, nominal: f64) -> bool {
        let ix = self.tix(stage, task);
        debug_assert!(matches!(self.task_state[ix], TaskState::Running { .. }));
        self.task_state[ix] = TaskState::Done;
        self.task_nominal[ix] = nominal;
        self.tasks_running[stage as usize] -= 1;
        self.tasks_done[stage as usize] += 1;
        self.tasks_done[stage as usize] as usize == self.n_stage_tasks(stage)
    }

    /// Marks a stage complete.
    pub(crate) fn mark_stage_done(&mut self, stage: u32, now: SimTime) {
        debug_assert!(!self.done[stage as usize], "stage completed twice");
        self.done[stage as usize] = true;
        self.done_at[stage as usize] = Some(now);
        self.stages_remaining -= 1;
        remove_sorted(&mut self.ready, StageId(stage));
    }

    /// One predecessor of `stage` completed.
    pub(crate) fn dec_preds(&mut self, stage: u32) {
        self.preds_remaining[stage as usize] -= 1;
        if self.preds_remaining[stage as usize] == 0 {
            self.refresh_ready(stage);
        }
    }

    /// Reveals a stage's existence (`Known` or `Void`), maintaining the
    /// visible and ready sets.
    pub(crate) fn set_visibility(&mut self, stage: u32, vis: Visibility) {
        debug_assert!(matches!(vis, Visibility::Known | Visibility::Void));
        let was_hidden = self.vis[stage as usize] == Visibility::Hidden;
        self.vis[stage as usize] = vis;
        if was_hidden {
            insert_sorted(&mut self.visible, StageId(stage));
        }
        if vis == Visibility::Known {
            self.refresh_ready(stage);
        }
    }

    // ------------------------------------------------------------------
    // Scheduler-visible API (leaks nothing the reveal protocol forbids).
    // ------------------------------------------------------------------

    /// The job id.
    pub fn id(&self) -> JobId {
        self.spec.id()
    }

    /// The application the job instantiates.
    pub fn app(&self) -> AppId {
        self.spec.app()
    }

    /// Submission time.
    pub fn arrival(&self) -> SimTime {
        self.spec.arrival()
    }

    /// Number of template stages (visible from the application template).
    pub fn template_len(&self) -> usize {
        self.spec.template_len()
    }

    /// True once every stage has completed (or voided).
    pub fn is_complete(&self) -> bool {
        self.completed_at.is_some()
    }

    /// Completion time, if complete.
    pub fn completed_at(&self) -> Option<SimTime> {
        self.completed_at
    }

    /// Ids of all currently *visible* stages (template stages plus revealed
    /// generated stages), ascending. Borrow of the incrementally
    /// maintained set — no allocation.
    pub fn visible_stage_ids(&self) -> &[StageId] {
        &self.visible
    }

    /// True if `stage` is currently visible.
    pub fn is_visible(&self, stage: StageId) -> bool {
        self.vis
            .get(stage.index())
            .map(|&v| v != Visibility::Hidden)
            .unwrap_or(false)
    }

    /// The kind of a visible stage (`None` for hidden / out-of-range
    /// stages) — the allocation-free fast path for policies that only
    /// need class routing, not a full [`StageView`].
    pub fn visible_kind(&self, stage: StageId) -> Option<StageKind> {
        (self.is_visible(stage)).then(|| self.spec.stage(stage).kind)
    }

    /// A filtered snapshot of one stage.
    ///
    /// Returns `None` for hidden (not yet revealed) or out-of-range stages.
    pub fn stage_view(&self, stage: StageId) -> Option<StageView<'_>> {
        let i = stage.index();
        let vis = *self.vis.get(i)?;
        if vis == Visibility::Hidden {
            return None;
        }
        let sspec = self.spec.stage(stage);
        let existence = match vis {
            Visibility::Known => Existence::Known,
            Visibility::Undetermined => Existence::Undetermined,
            Visibility::Void => Existence::Void,
            Visibility::Hidden => unreachable!("filtered above"),
        };
        let completed_nominal_secs = if self.done[i] && vis == Visibility::Known {
            Some(self.task_nominal[self.spec.task_range(stage)].iter().sum())
        } else if vis == Visibility::Void {
            Some(0.0)
        } else {
            None
        };
        Some(StageView {
            id: stage,
            name: &sspec.name,
            kind: sspec.kind,
            existence,
            // Task count is only public knowledge once execution is certain.
            n_tasks: (vis == Visibility::Known).then(|| self.n_stage_tasks(stage.0)),
            tasks_done: self.tasks_done[i] as usize,
            tasks_running: self.tasks_running[i] as usize,
            done: self.done[i],
            done_at: self.done_at[i],
            started_at: self.started_at[i],
            ready: self.stage_ready(stage),
            completed_nominal_secs,
            parent_dynamic: sspec.parent_dynamic,
            candidate: sspec.candidate,
            is_generated: self.spec.is_generated(stage),
        })
    }

    /// True if `stage` can run tasks now: revealed as executing, all
    /// predecessors complete, and not itself complete.
    pub fn stage_ready(&self, stage: StageId) -> bool {
        let i = stage.index();
        self.vis[i] == Visibility::Known
            && !self.done[i]
            && self.preds_remaining[i] == 0
            && self.spec.stage(stage).kind != StageKind::DynamicPlaceholder
    }

    /// Ids of stages that are ready and still have unstarted tasks,
    /// ascending. Borrow of the incrementally maintained set — no
    /// allocation.
    pub fn ready_stage_ids(&self) -> &[StageId] {
        &self.ready
    }

    /// Indices of unstarted tasks of a ready stage (empty if not ready),
    /// ascending. Lazy iterator over the flat task arena.
    pub fn unstarted_tasks(&self, stage: StageId) -> impl Iterator<Item = u32> + '_ {
        let range = if self.stage_ready(stage) {
            self.spec.task_range(stage)
        } else {
            0..0
        };
        self.task_state[range]
            .iter()
            .enumerate()
            .filter_map(|(i, &s)| (s == TaskState::NotStarted).then_some(i as u32))
    }

    /// Unstarted tasks across the job's ready stages, by executor class:
    /// `(regular, llm)` — the job's contribution to the engine's
    /// dispatchable-work counts. Dynamic placeholders never enter the
    /// ready set (they auto-complete), so the two classes partition the
    /// total. A zero sum skips a decision point, and the halves drive
    /// capacity-aware decision-point elision: an invocation can be
    /// skipped when neither class has both ready work *and* a free
    /// executor of that class. O(ready stages).
    pub fn ready_unstarted_by_class(&self) -> (usize, usize) {
        let (mut regular, mut llm) = (0usize, 0usize);
        for &s in &self.ready {
            let n = self.unstarted_count(s);
            match self.spec.stage(s).kind {
                llmsched_dag::job::StageKind::Regular => regular += n,
                llmsched_dag::job::StageKind::Llm => llm += n,
                llmsched_dag::job::StageKind::DynamicPlaceholder => {
                    debug_assert_eq!(n, 0, "placeholders are never ready with tasks")
                }
            }
        }
        (regular, llm)
    }

    /// Number of unstarted tasks of a ready stage (0 if not ready).
    pub fn unstarted_count(&self, stage: StageId) -> usize {
        if !self.stage_ready(stage) {
            return 0;
        }
        let i = stage.index();
        self.n_stage_tasks(stage.0) - (self.tasks_done[i] + self.tasks_running[i]) as usize
    }

    /// Visible predecessor stages of `stage` (hidden generated stages are
    /// omitted, exactly as a real scheduler would see the DAG).
    pub fn visible_preds(&self, stage: StageId) -> impl Iterator<Item = StageId> + '_ {
        self.spec
            .dag()
            .predecessors(stage.index())
            .iter()
            .map(|&p| StageId(p))
            .filter(|&p| self.is_visible(p))
    }

    /// Visible successor stages of `stage`.
    pub fn visible_succs(&self, stage: StageId) -> impl Iterator<Item = StageId> + '_ {
        self.spec
            .dag()
            .successors(stage.index())
            .iter()
            .map(|&s| StageId(s))
            .filter(|&s| self.is_visible(s))
    }

    /// Batch-1-normalized duration (seconds) of a *completed* stage: the
    /// evidence variable the Bayesian profiler conditions on. Dynamic
    /// placeholders aggregate their generated stages' durations.
    pub fn completed_nominal_secs(&self, stage: StageId) -> Option<f64> {
        let i = stage.index();
        if i >= self.done.len() || !self.done[i] {
            return None;
        }
        match self.vis[i] {
            Visibility::Void => Some(0.0),
            Visibility::Known if self.spec.stage(stage).kind == StageKind::DynamicPlaceholder => {
                let mut sum = 0.0;
                for &c in self.spec.children_of_dynamic(stage) {
                    sum += self.completed_nominal_secs(c)?;
                }
                Some(sum)
            }
            Visibility::Known => Some(self.task_nominal[self.spec.task_range(stage)].iter().sum()),
            _ => None,
        }
    }

    /// Number of tasks currently running across the job (the Fair
    /// scheduler's notion of a job's current service share).
    pub fn running_tasks(&self) -> usize {
        self.tasks_running.iter().map(|&r| r as usize).sum()
    }
}

/// A filtered, scheduler-safe snapshot of one stage.
#[derive(Debug, Clone)]
pub struct StageView<'a> {
    /// Stage id within the job.
    pub id: StageId,
    /// Stage name.
    pub name: &'a str,
    /// Stage kind.
    pub kind: StageKind,
    /// Revealed existence.
    pub existence: Existence,
    /// Task count, only for stages whose execution is certain.
    pub n_tasks: Option<usize>,
    /// Completed task count.
    pub tasks_done: usize,
    /// Currently running task count.
    pub tasks_running: usize,
    /// True once the stage completed (or voided).
    pub done: bool,
    /// Completion time.
    pub done_at: Option<SimTime>,
    /// First task start time.
    pub started_at: Option<SimTime>,
    /// True if the stage can run tasks now.
    pub ready: bool,
    /// Batch-1-normalized duration, only for completed stages.
    pub completed_nominal_secs: Option<f64>,
    /// For generated stages: the placeholder they expand.
    pub parent_dynamic: Option<StageId>,
    /// For generated stages: candidate-set index.
    pub candidate: Option<usize>,
    /// True if the stage was generated at runtime.
    pub is_generated: bool,
}

/// Public occupancy info of one LLM executor.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LlmExecutorView {
    /// Executor index.
    pub index: usize,
    /// Number of co-batched running requests.
    pub batch_len: usize,
    /// Maximum batch size.
    pub max_batch: usize,
}

impl LlmExecutorView {
    /// Free batch slots.
    pub fn free_slots(&self) -> usize {
        self.max_batch - self.batch_len
    }
}

/// Average current batch size over non-empty LLM executors (1 if all
/// are idle), walking the views: the reference that
/// [`SlotLedger::average_busy_batch`](crate::exec::SlotLedger::average_busy_batch),
/// which Eq. (2) calibration reads, is checked against.
pub fn average_busy_batch(execs: &[LlmExecutorView]) -> f64 {
    let (mut sum, mut busy) = (0usize, 0usize);
    for e in execs {
        if e.batch_len > 0 {
            sum += e.batch_len;
            busy += 1;
        }
    }
    if busy == 0 {
        1.0
    } else {
        sum as f64 / busy as f64
    }
}

/// Fixtures shared by the in-crate unit tests of the executor layer.
#[cfg(test)]
pub(crate) mod test_support {
    use super::JobRt;
    use llmsched_dag::prelude::*;

    /// A [`JobRt`] with one LLM stage of `n_tasks` 100-token tasks —
    /// enough runtime state for backends to bump task epochs against.
    pub(crate) fn job_with_llm_tasks(n_tasks: u32) -> JobRt {
        let mut b = TemplateBuilder::new(AppId(0), "exec_fixture");
        let s = b.llm("gen");
        b.typical_tasks(s, n_tasks);
        let t = b.build().expect("valid fixture template");
        let tasks = vec![
            TaskWork::Llm {
                prompt_tokens: 0,
                output_tokens: 100
            };
            n_tasks as usize
        ];
        let spec = JobSpec::new(
            JobId(0),
            &t,
            SimTime::ZERO,
            vec![StageSpec::executing("gen", StageKind::Llm, tasks)],
            vec![],
        )
        .expect("valid fixture job");
        JobRt::new(spec)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use llmsched_dag::prelude::*;

    fn toy_job() -> JobRt {
        let mut b = TemplateBuilder::new(AppId(0), "toy");
        let g = b.llm("gen");
        let e = b.regular("exec");
        let g2 = b.llm("gen2");
        b.edge(g, e);
        b.edge(e, g2);
        b.revealed_by(g2, e);
        let t = b.build().unwrap();
        let stages = vec![
            StageSpec::executing(
                "gen",
                StageKind::Llm,
                vec![TaskWork::Llm {
                    prompt_tokens: 0,
                    output_tokens: 10,
                }],
            ),
            StageSpec::executing(
                "exec",
                StageKind::Regular,
                vec![TaskWork::Regular {
                    duration: SimDuration::from_secs(1),
                }],
            ),
            StageSpec {
                executed: false,
                tasks: vec![],
                revealed_by: Some(e),
                ..StageSpec::executing("gen2", StageKind::Llm, vec![])
            },
        ];
        JobRt::new(JobSpec::new(JobId(0), &t, SimTime::ZERO, stages, vec![]).unwrap())
    }

    #[test]
    fn initial_visibility() {
        let j = toy_job();
        assert_eq!(
            j.visible_stage_ids(),
            vec![StageId(0), StageId(1), StageId(2)]
        );
        assert_eq!(
            j.stage_view(StageId(0)).unwrap().existence,
            Existence::Known
        );
        assert_eq!(
            j.stage_view(StageId(2)).unwrap().existence,
            Existence::Undetermined
        );
        // Undetermined stages do not disclose their task count.
        assert_eq!(j.stage_view(StageId(2)).unwrap().n_tasks, None);
    }

    #[test]
    fn readiness_follows_dependencies() {
        let j = toy_job();
        assert!(j.stage_ready(StageId(0)));
        assert!(!j.stage_ready(StageId(1)));
        assert_eq!(j.ready_stage_ids(), vec![StageId(0)]);
        assert_eq!(j.unstarted_tasks(StageId(0)).collect::<Vec<_>>(), vec![0]);
        assert_eq!(j.unstarted_tasks(StageId(1)).count(), 0);
        assert_eq!(j.unstarted_count(StageId(0)), 1);
        assert_eq!(j.unstarted_count(StageId(1)), 0);
    }

    #[test]
    fn dispatch_and_finish_maintain_ready_set() {
        let mut j = toy_job();
        let epoch = j.start_task(0, 0, Some(0), SimTime::ZERO);
        assert_eq!(epoch, 0);
        // Last unstarted task started: stage leaves the ready set.
        assert!(j.ready_stage_ids().is_empty());
        assert!(j.stage_ready(StageId(0)), "still schedulable per se");
        let stage_done = j.record_task_done(0, 0, 0.1);
        assert!(stage_done);
        j.mark_stage_done(0, SimTime::ZERO);
        j.dec_preds(1);
        // Downstream stage becomes ready once its predecessor completes.
        assert_eq!(j.ready_stage_ids(), vec![StageId(1)]);
        assert_eq!(
            j.stage_view(StageId(0)).unwrap().completed_nominal_secs,
            Some(0.1)
        );
    }

    #[test]
    fn reveal_updates_visible_set() {
        let mut j = toy_job();
        assert!(j.is_visible(StageId(2)));
        j.set_visibility(2, Visibility::Void);
        assert_eq!(j.stage_view(StageId(2)).unwrap().existence, Existence::Void);
        assert_eq!(
            j.stage_view(StageId(2)).unwrap().completed_nominal_secs,
            Some(0.0),
            "void stages always view as zero-duration"
        );
        assert_eq!(
            j.completed_nominal_secs(StageId(2)),
            None,
            "…but observe nothing until actually completed"
        );
    }

    #[test]
    fn average_batch_ignores_idle_executors() {
        let execs = vec![
            LlmExecutorView {
                index: 0,
                batch_len: 0,
                max_batch: 8,
            },
            LlmExecutorView {
                index: 1,
                batch_len: 4,
                max_batch: 8,
            },
            LlmExecutorView {
                index: 2,
                batch_len: 2,
                max_batch: 8,
            },
        ];
        assert!((average_busy_batch(&execs) - 3.0).abs() < 1e-9);
        assert_eq!(average_busy_batch(&[]), 1.0);
        assert_eq!(execs[0].free_slots(), 8);
    }

    #[test]
    fn completed_nominal_hidden_until_done() {
        let j = toy_job();
        assert_eq!(j.completed_nominal_secs(StageId(0)), None);
        assert_eq!(
            j.stage_view(StageId(0)).unwrap().completed_nominal_secs,
            None
        );
    }
}
