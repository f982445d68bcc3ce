//! Job specifications: the hidden ground truth of one runtime instance of a
//! compound LLM application.
//!
//! A [`JobSpec`] records everything that *will* happen when the job runs —
//! which padded stages actually execute, what the dynamic stages expand to,
//! and every task's work content. Schedulers never see a `JobSpec`; the
//! simulator reveals information through the protocol of §IV-A:
//!
//! * stage existence marked `revealed_by = Some(s)` becomes known when stage
//!   `s` completes (chain padding);
//! * stages generated by a dynamic placeholder (and their edges) appear when
//!   the placeholder's preceding LLM stage completes;
//! * durations are observable only for completed stages.

use std::fmt;
use std::ops::Range;

use crate::csr::{Csr, CsrDag};
use crate::ids::{AppId, JobId, StageId};
use crate::template::{Template, TemplateStageKind};
use crate::time::{SimDuration, SimTime};
use crate::work::{ExecutorClass, TaskWork};

/// Kind of a realized stage inside a job.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum StageKind {
    /// Non-LLM tasks on regular executors.
    Regular,
    /// LLM inference tasks on LLM executors.
    Llm,
    /// A dynamic placeholder: carries no tasks; completes when all stages
    /// generated under it complete.
    DynamicPlaceholder,
}

impl StageKind {
    /// The executor class of the stage's tasks, if any.
    pub fn class(self) -> Option<ExecutorClass> {
        match self {
            StageKind::Regular => Some(ExecutorClass::Regular),
            StageKind::Llm => Some(ExecutorClass::Llm),
            StageKind::DynamicPlaceholder => None,
        }
    }
}

/// One structural fact of a dynamic placeholder's realized expansion, in
/// candidate terms (the Eq. 4 statistics count these).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DynOutcome {
    /// The candidate with this index was instantiated.
    Candidate(u32),
    /// An inner edge ran between two instantiated candidates
    /// `(from, to)`.
    Edge(u32, u32),
}

/// Ground truth for one stage of a job.
#[derive(Debug, Clone)]
pub struct StageSpec {
    /// Stage name (template name, or candidate name for generated stages).
    pub name: String,
    /// Stage kind.
    pub kind: StageKind,
    /// Whether the stage actually executes. Padded chain stages beyond the
    /// realized iteration count carry `false` and complete instantly as
    /// *void* once revealed.
    pub executed: bool,
    /// The stage's tasks (empty for placeholders and void stages).
    pub tasks: Vec<TaskWork>,
    /// Completion of this stage reveals whether `self` executes. `None`
    /// means existence is known at arrival. Generated stages carry the
    /// dynamic placeholder's preceding LLM stage here.
    pub revealed_by: Option<StageId>,
    /// For generated stages: the dynamic placeholder they belong to.
    pub parent_dynamic: Option<StageId>,
    /// For generated stages: index into the placeholder's candidate set.
    pub candidate: Option<usize>,
}

impl StageSpec {
    /// Convenience constructor for an always-executing stage.
    pub fn executing(name: impl Into<String>, kind: StageKind, tasks: Vec<TaskWork>) -> Self {
        StageSpec {
            name: name.into(),
            kind,
            executed: true,
            tasks,
            revealed_by: None,
            parent_dynamic: None,
            candidate: None,
        }
    }

    /// Total nominal work of the stage's own tasks at batch-1 decode latency.
    pub fn own_nominal_duration(&self, per_token_b1: SimDuration) -> SimDuration {
        if !self.executed {
            return SimDuration::ZERO;
        }
        self.tasks
            .iter()
            .map(|t| t.nominal_duration(per_token_b1))
            .sum()
    }
}

/// Errors detected while validating a [`JobSpec`] against its [`Template`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum JobSpecError {
    /// The job has fewer stages than the template.
    MissingTemplateStages {
        /// Template stage count.
        expected: usize,
        /// Supplied stage count.
        got: usize,
    },
    /// Stage `stage`'s kind differs from the template's.
    KindMismatch {
        /// The offending stage.
        stage: StageId,
    },
    /// A task's executor class does not match its stage kind, or a
    /// placeholder carries tasks.
    TaskClassMismatch {
        /// The offending stage.
        stage: StageId,
    },
    /// An executing non-placeholder stage has no tasks.
    NoTasks {
        /// The offending stage.
        stage: StageId,
    },
    /// A stage is void (`executed == false`) but has no `revealed_by`, so its
    /// non-execution could never become known.
    VoidWithoutReveal {
        /// The offending stage.
        stage: StageId,
    },
    /// An edge references an unknown stage.
    UnknownStage(StageId),
    /// The combined stage graph has a cycle.
    Cyclic,
    /// A generated stage has no `parent_dynamic`, or points at a
    /// non-placeholder.
    BadParentDynamic {
        /// The offending stage.
        stage: StageId,
    },
    /// A generated stage's candidate index is out of range for its
    /// placeholder's candidate set.
    BadCandidate {
        /// The offending stage.
        stage: StageId,
    },
    /// A generated stage is not sandwiched between its placeholder's
    /// preceding LLM stage and the placeholder itself.
    GeneratedNotEnclosed {
        /// The offending stage.
        stage: StageId,
    },
    /// A template-range stage claims to be generated.
    TemplateStageWithParent {
        /// The offending stage.
        stage: StageId,
    },
}

impl fmt::Display for JobSpecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            JobSpecError::MissingTemplateStages { expected, got } => {
                write!(
                    f,
                    "job has {got} stages, template requires at least {expected}"
                )
            }
            JobSpecError::KindMismatch { stage } => write!(f, "stage {stage} kind mismatch"),
            JobSpecError::TaskClassMismatch { stage } => {
                write!(f, "stage {stage} has tasks of the wrong executor class")
            }
            JobSpecError::NoTasks { stage } => write!(f, "executing stage {stage} has no tasks"),
            JobSpecError::VoidWithoutReveal { stage } => {
                write!(f, "void stage {stage} has no revealing stage")
            }
            JobSpecError::UnknownStage(s) => write!(f, "edge references unknown stage {s}"),
            JobSpecError::Cyclic => write!(f, "job stage graph contains a cycle"),
            JobSpecError::BadParentDynamic { stage } => {
                write!(
                    f,
                    "generated stage {stage} has an invalid parent placeholder"
                )
            }
            JobSpecError::BadCandidate { stage } => {
                write!(
                    f,
                    "generated stage {stage} has an out-of-range candidate index"
                )
            }
            JobSpecError::GeneratedNotEnclosed { stage } => {
                write!(
                    f,
                    "generated stage {stage} not enclosed by its plan and placeholder"
                )
            }
            JobSpecError::TemplateStageWithParent { stage } => {
                write!(
                    f,
                    "template stage {stage} must not have a parent placeholder"
                )
            }
        }
    }
}

impl std::error::Error for JobSpecError {}

/// The hidden ground truth of one job.
#[derive(Debug, Clone)]
pub struct JobSpec {
    id: JobId,
    app: AppId,
    arrival: SimTime,
    stages: Vec<StageSpec>,
    /// All edges: template edges first, then generated edges.
    edges: Vec<(StageId, StageId)>,
    /// Number of leading entries of `edges` that come from the template.
    static_edge_count: usize,
    template_len: usize,
    dag: CsrDag,
    /// Reveal arena: row `s` lists the stages whose existence is revealed
    /// by completion of stage `s`.
    reveals: Csr<StageId>,
    /// Dynamic-expansion arena: row `s` lists the generated stages whose
    /// `parent_dynamic` is `s` (empty for non-placeholders).
    dyn_children: Csr<StageId>,
    /// Task arena: every stage's tasks concatenated in stage order; row
    /// ranges double as flat task handles for SoA runtime state.
    tasks: Csr<TaskWork>,
}

impl JobSpec {
    /// Builds and validates a job spec.
    ///
    /// `stages` must start with one entry per template stage (same ids) and
    /// may continue with stages generated under dynamic placeholders.
    /// `generated_edges` are the runtime-revealed edges that involve
    /// generated stages (plan → generated, generated → generated,
    /// generated → placeholder).
    ///
    /// # Errors
    /// Returns a [`JobSpecError`] describing the first violated invariant.
    pub fn new(
        id: JobId,
        template: &Template,
        arrival: SimTime,
        stages: Vec<StageSpec>,
        generated_edges: Vec<(StageId, StageId)>,
    ) -> Result<Self, JobSpecError> {
        let tlen = template.len();
        if stages.len() < tlen {
            return Err(JobSpecError::MissingTemplateStages {
                expected: tlen,
                got: stages.len(),
            });
        }
        let n = stages.len();
        let check = |s: StageId| {
            if s.index() < n {
                Ok(())
            } else {
                Err(JobSpecError::UnknownStage(s))
            }
        };

        // Template-range stages must agree with the template.
        for (i, stage) in stages.iter().take(tlen).enumerate() {
            let sid = StageId(i as u32);
            let tkind = &template.stage(sid).kind;
            let matches = matches!(
                (tkind, stage.kind),
                (TemplateStageKind::Regular, StageKind::Regular)
                    | (TemplateStageKind::Llm, StageKind::Llm)
                    | (
                        TemplateStageKind::Dynamic { .. },
                        StageKind::DynamicPlaceholder
                    )
            );
            if !matches {
                return Err(JobSpecError::KindMismatch { stage: sid });
            }
            if stage.parent_dynamic.is_some() {
                return Err(JobSpecError::TemplateStageWithParent { stage: sid });
            }
        }

        // Per-stage invariants.
        for (i, stage) in stages.iter().enumerate() {
            let sid = StageId(i as u32);
            match stage.kind {
                StageKind::DynamicPlaceholder => {
                    if !stage.tasks.is_empty() {
                        return Err(JobSpecError::TaskClassMismatch { stage: sid });
                    }
                }
                StageKind::Regular | StageKind::Llm => {
                    let want = stage.kind.class().expect("non-placeholder has a class");
                    if stage.tasks.iter().any(|t| t.class() != want) {
                        return Err(JobSpecError::TaskClassMismatch { stage: sid });
                    }
                    if stage.executed && stage.tasks.is_empty() {
                        return Err(JobSpecError::NoTasks { stage: sid });
                    }
                }
            }
            if !stage.executed && stage.revealed_by.is_none() {
                return Err(JobSpecError::VoidWithoutReveal { stage: sid });
            }
            if let Some(r) = stage.revealed_by {
                check(r)?;
            }
        }

        // Generated stages must be properly attached.
        for (i, stage) in stages.iter().enumerate().skip(tlen) {
            let sid = StageId(i as u32);
            let parent = stage
                .parent_dynamic
                .ok_or(JobSpecError::BadParentDynamic { stage: sid })?;
            if parent.index() >= tlen {
                return Err(JobSpecError::BadParentDynamic { stage: sid });
            }
            let TemplateStageKind::Dynamic { candidates, .. } = &template.stage(parent).kind else {
                return Err(JobSpecError::BadParentDynamic { stage: sid });
            };
            match stage.candidate {
                Some(c) if c < candidates.len() => {}
                _ => return Err(JobSpecError::BadCandidate { stage: sid }),
            }
        }

        // Assemble the full graph: template edges + generated edges.
        let mut edges: Vec<(StageId, StageId)> = template.edges().to_vec();
        let static_edge_count = edges.len();
        edges.extend(generated_edges);
        for &(u, v) in &edges {
            check(u)?;
            check(v)?;
        }
        let dag = CsrDag::from_edges(
            n,
            &edges.iter().map(|&(u, v)| (u.0, v.0)).collect::<Vec<_>>(),
        );
        if !dag.is_acyclic() {
            return Err(JobSpecError::Cyclic);
        }

        // Generated stages must sit between their plan stage and placeholder,
        // so the reveal order and the placeholder barrier are consistent.
        for (i, stage) in stages.iter().enumerate().skip(tlen) {
            let sid = StageId(i as u32);
            let parent = stage.parent_dynamic.expect("checked above");
            let TemplateStageKind::Dynamic { preceding_llm, .. } = &template.stage(parent).kind
            else {
                unreachable!("checked above");
            };
            let anc = dag.ancestors(i);
            let desc = dag.descendants(i);
            if !anc.contains(&preceding_llm.0) || !desc.contains(&parent.0) {
                return Err(JobSpecError::GeneratedNotEnclosed { stage: sid });
            }
        }

        // Hot-path arenas: reveal lists, dynamic-expansion children and the
        // flat task table, all derived once from the validated stages.
        let reveals = Csr::from_row_fn(n, |r| {
            stages
                .iter()
                .enumerate()
                .filter(move |(_, s)| s.revealed_by == Some(StageId(r as u32)))
                .map(|(i, _)| StageId(i as u32))
        });
        let dyn_children = Csr::from_row_fn(n, |d| {
            stages
                .iter()
                .enumerate()
                .filter(move |(_, s)| s.parent_dynamic == Some(StageId(d as u32)))
                .map(|(i, _)| StageId(i as u32))
        });
        let tasks = Csr::from_row_fn(n, |i| stages[i].tasks.iter().copied());

        Ok(JobSpec {
            id,
            app: template.app(),
            arrival,
            stages,
            edges,
            static_edge_count,
            template_len: tlen,
            dag,
            reveals,
            dyn_children,
            tasks,
        })
    }

    /// The job id.
    pub fn id(&self) -> JobId {
        self.id
    }

    /// The application this job instantiates.
    pub fn app(&self) -> AppId {
        self.app
    }

    /// Submission time.
    pub fn arrival(&self) -> SimTime {
        self.arrival
    }

    /// All stages (template stages first, then generated stages).
    pub fn stages(&self) -> &[StageSpec] {
        &self.stages
    }

    /// A stage by id.
    ///
    /// # Panics
    /// Panics if `id` is out of range.
    pub fn stage(&self, id: StageId) -> &StageSpec {
        &self.stages[id.index()]
    }

    /// Total number of stages, including generated ones.
    pub fn len(&self) -> usize {
        self.stages.len()
    }

    /// True if the job has no stages (never the case for validated specs).
    pub fn is_empty(&self) -> bool {
        self.stages.is_empty()
    }

    /// Number of template stages (ids below this are template stages).
    pub fn template_len(&self) -> usize {
        self.template_len
    }

    /// True if `id` refers to a runtime-generated stage.
    pub fn is_generated(&self, id: StageId) -> bool {
        id.index() >= self.template_len
    }

    /// The complete edge list (template edges first).
    pub fn edges(&self) -> &[(StageId, StageId)] {
        &self.edges
    }

    /// The edges revealed only at runtime (those involving generated stages).
    pub fn generated_edges(&self) -> &[(StageId, StageId)] {
        &self.edges[self.static_edge_count..]
    }

    /// The complete stage DAG (CSR adjacency; borrow-returning queries).
    pub fn dag(&self) -> &CsrDag {
        &self.dag
    }

    /// Ids of stages whose existence is revealed by completion of `stage`.
    pub fn revealed_by(&self, stage: StageId) -> &[StageId] {
        self.reveals.row(stage.index())
    }

    /// Ids of generated stages belonging to placeholder `dynamic`.
    pub fn children_of_dynamic(&self, dynamic: StageId) -> &[StageId] {
        self.dyn_children.row(dynamic.index())
    }

    /// The structural outcome of placeholder `dynamic`: one
    /// [`DynOutcome::Candidate`] per generated stage, in stage order, then
    /// one [`DynOutcome::Edge`] per generated edge between two of them,
    /// in edge order. Empty for a stage that is not a placeholder.
    pub fn dynamic_outcome(&self, dynamic: StageId) -> impl Iterator<Item = DynOutcome> + '_ {
        let candidate = move |s: StageId| {
            let s = self.stage(s);
            if s.parent_dynamic == Some(dynamic) {
                s.candidate.map(|c| c as u32)
            } else {
                None
            }
        };
        let candidates = self
            .children_of_dynamic(dynamic)
            .iter()
            .filter_map(move |&g| candidate(g).map(DynOutcome::Candidate));
        let edges = self
            .generated_edges()
            .iter()
            .filter_map(move |&(u, v)| Some(DynOutcome::Edge(candidate(u)?, candidate(v)?)));
        candidates.chain(edges)
    }

    /// The tasks of one stage, borrowed from the flat task arena.
    pub fn stage_tasks(&self, stage: StageId) -> &[TaskWork] {
        self.tasks.row(stage.index())
    }

    /// One task's work content.
    ///
    /// # Panics
    /// Panics if `stage` or `task` is out of range.
    pub fn task_work(&self, stage: StageId, task: u32) -> TaskWork {
        self.tasks.row(stage.index())[task as usize]
    }

    /// The flat task-arena index range of `stage` — the handle space SoA
    /// runtime state (task status/epoch/duration arrays) is laid out in.
    pub fn task_range(&self, stage: StageId) -> Range<usize> {
        self.tasks.range(stage.index())
    }

    /// Total task count across all stages (the flat task arena's length).
    pub fn total_tasks(&self) -> usize {
        self.tasks.total_len()
    }

    /// Nominal duration of a stage at batch-1 decode latency: 0 for void
    /// stages; for placeholders, the summed work of their generated stages
    /// (the paper treats the dynamic stage's duration as the realized work of
    /// the generated plan).
    pub fn stage_nominal_duration(&self, stage: StageId, per_token_b1: SimDuration) -> SimDuration {
        let s = self.stage(stage);
        match s.kind {
            StageKind::DynamicPlaceholder => self
                .children_of_dynamic(stage)
                .iter()
                .map(|&c| self.stage(c).own_nominal_duration(per_token_b1))
                .sum(),
            _ => s.own_nominal_duration(per_token_b1),
        }
    }

    /// Total nominal work of the job (sum over non-placeholder stages).
    pub fn total_nominal_duration(&self, per_token_b1: SimDuration) -> SimDuration {
        self.stages
            .iter()
            .filter(|s| s.kind != StageKind::DynamicPlaceholder)
            .map(|s| s.own_nominal_duration(per_token_b1))
            .sum()
    }

    /// A lower bound on the job's completion time under *any* schedule:
    /// the critical path where each stage costs its largest single task at
    /// batch-1 latency (tasks within a stage may run in parallel; no executor
    /// can decode faster than batch size 1).
    pub fn critical_path_lower_bound(&self, per_token_b1: SimDuration) -> SimDuration {
        let weights: Vec<f64> = self
            .stages
            .iter()
            .map(|s| {
                if !s.executed || s.kind == StageKind::DynamicPlaceholder {
                    0.0
                } else {
                    s.tasks
                        .iter()
                        .map(|t| t.nominal_duration(per_token_b1).as_secs_f64())
                        .fold(0.0, f64::max)
                }
            })
            .collect();
        SimDuration::from_secs_f64(self.dag.critical_path(&weights))
    }

    /// Per-*template*-stage nominal durations in seconds (void = 0 s,
    /// placeholders aggregate their generated stages). This is the training
    /// vector the Bayesian profiler consumes (§IV-B, footnote 2).
    pub fn template_stage_durations_secs(&self, per_token_b1: SimDuration) -> Vec<f64> {
        (0..self.template_len)
            .map(|i| {
                self.stage_nominal_duration(StageId(i as u32), per_token_b1)
                    .as_secs_f64()
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::template::{Candidate, TemplateBuilder};

    fn per_token() -> SimDuration {
        SimDuration::from_millis(20)
    }

    fn reg_task(secs: f64) -> TaskWork {
        TaskWork::Regular {
            duration: SimDuration::from_secs_f64(secs),
        }
    }

    fn llm_task(tokens: u32) -> TaskWork {
        TaskWork::Llm {
            prompt_tokens: 0,
            output_tokens: tokens,
        }
    }

    fn chain_template() -> Template {
        // gen (LLM) -> exec (regular) -> gen2 (LLM, padded) -> exec2 (regular, padded)
        let mut b = TemplateBuilder::new(AppId(1), "chain");
        let g1 = b.llm("gen1");
        let e1 = b.regular("exec1");
        let g2 = b.llm("gen2");
        let e2 = b.regular("exec2");
        b.edge(g1, e1);
        b.edge(e1, g2);
        b.edge(g2, e2);
        b.revealed_by(g2, e1);
        b.revealed_by(e2, e1);
        b.build().unwrap()
    }

    fn chain_job(executed_second_iter: bool) -> JobSpec {
        let t = chain_template();
        let stages = vec![
            StageSpec::executing("gen1", StageKind::Llm, vec![llm_task(100)]),
            StageSpec {
                revealed_by: None,
                ..StageSpec::executing("exec1", StageKind::Regular, vec![reg_task(1.0)])
            },
            StageSpec {
                executed: executed_second_iter,
                revealed_by: Some(StageId(1)),
                tasks: if executed_second_iter {
                    vec![llm_task(50)]
                } else {
                    vec![]
                },
                ..StageSpec::executing("gen2", StageKind::Llm, vec![])
            },
            StageSpec {
                executed: executed_second_iter,
                revealed_by: Some(StageId(1)),
                tasks: if executed_second_iter {
                    vec![reg_task(0.5)]
                } else {
                    vec![]
                },
                ..StageSpec::executing("exec2", StageKind::Regular, vec![])
            },
        ];
        JobSpec::new(JobId(0), &t, SimTime::ZERO, stages, vec![]).unwrap()
    }

    fn planning_template() -> Template {
        let mut b = TemplateBuilder::new(AppId(2), "plan");
        let plan = b.llm("plan");
        let dynamic = b.dynamic(
            "exec",
            plan,
            vec![
                Candidate {
                    name: "tool_a".into(),
                    class: ExecutorClass::Regular,
                },
                Candidate {
                    name: "tool_b".into(),
                    class: ExecutorClass::Regular,
                },
            ],
        );
        b.edge(plan, dynamic);
        b.build().unwrap()
    }

    fn planning_job() -> JobSpec {
        let t = planning_template();
        let plan = StageId(0);
        let dynamic = StageId(1);
        let stages = vec![
            StageSpec::executing("plan", StageKind::Llm, vec![llm_task(40)]),
            StageSpec::executing("exec", StageKind::DynamicPlaceholder, vec![]),
            StageSpec {
                revealed_by: Some(plan),
                parent_dynamic: Some(dynamic),
                candidate: Some(0),
                ..StageSpec::executing("tool_a", StageKind::Regular, vec![reg_task(2.0)])
            },
            StageSpec {
                revealed_by: Some(plan),
                parent_dynamic: Some(dynamic),
                candidate: Some(1),
                ..StageSpec::executing("tool_b", StageKind::Regular, vec![reg_task(3.0)])
            },
        ];
        let g2 = StageId(2);
        let g3 = StageId(3);
        JobSpec::new(
            JobId(1),
            &t,
            SimTime::from_secs_f64(1.0),
            stages,
            vec![
                (plan, g2),
                (plan, g3),
                (g2, g3),
                (g2, dynamic),
                (g3, dynamic),
            ],
        )
        .unwrap()
    }

    #[test]
    fn chain_job_validates_and_reveals() {
        let j = chain_job(true);
        assert_eq!(j.len(), 4);
        assert_eq!(j.template_len(), 4);
        assert_eq!(j.revealed_by(StageId(1)), vec![StageId(2), StageId(3)]);
        assert!(!j.is_generated(StageId(3)));
    }

    #[test]
    fn void_stages_have_zero_duration() {
        let j = chain_job(false);
        assert_eq!(
            j.stage_nominal_duration(StageId(2), per_token()),
            SimDuration::ZERO
        );
        let durs = j.template_stage_durations_secs(per_token());
        assert_eq!(durs.len(), 4);
        assert_eq!(durs[2], 0.0);
        assert_eq!(durs[3], 0.0);
        assert!(durs[0] > 0.0);
    }

    #[test]
    fn planning_job_expansion() {
        let j = planning_job();
        assert_eq!(j.template_len(), 2);
        assert!(j.is_generated(StageId(2)));
        assert_eq!(
            j.children_of_dynamic(StageId(1)),
            vec![StageId(2), StageId(3)]
        );
        // Placeholder duration aggregates generated work: 2 + 3 s.
        assert_eq!(
            j.stage_nominal_duration(StageId(1), per_token()),
            SimDuration::from_secs_f64(5.0)
        );
        // Generated edges are the runtime-revealed ones.
        assert_eq!(j.generated_edges().len(), 5);
    }

    #[test]
    fn dynamic_outcome_lists_candidates_then_inner_edges() {
        let j = planning_job();
        let outcome: Vec<DynOutcome> = j.dynamic_outcome(StageId(1)).collect();
        // Of the five generated edges only g2 -> g3 joins two candidates.
        assert_eq!(
            outcome,
            vec![
                DynOutcome::Candidate(0),
                DynOutcome::Candidate(1),
                DynOutcome::Edge(0, 1)
            ]
        );
        assert_eq!(j.dynamic_outcome(StageId(0)).count(), 0);
    }

    #[test]
    fn total_and_critical_path() {
        let j = planning_job();
        // plan 40 tokens * 20ms = 0.8s; tools 2 + 3s. Total work 5.8s.
        assert_eq!(
            j.total_nominal_duration(per_token()),
            SimDuration::from_secs_f64(5.8)
        );
        // Critical path: plan -> tool_a -> tool_b (serial via g2 -> g3 edge).
        assert_eq!(
            j.critical_path_lower_bound(per_token()),
            SimDuration::from_secs_f64(5.8)
        );
    }

    #[test]
    fn rejects_missing_template_stage() {
        let t = chain_template();
        let err = JobSpec::new(JobId(0), &t, SimTime::ZERO, vec![], vec![]).unwrap_err();
        assert_eq!(
            err,
            JobSpecError::MissingTemplateStages {
                expected: 4,
                got: 0
            }
        );
    }

    #[test]
    fn rejects_kind_mismatch() {
        let t = chain_template();
        let stages = vec![
            StageSpec::executing("gen1", StageKind::Regular, vec![reg_task(1.0)]), // should be LLM
            StageSpec::executing("exec1", StageKind::Regular, vec![reg_task(1.0)]),
            StageSpec::executing("gen2", StageKind::Llm, vec![llm_task(1)]),
            StageSpec::executing("exec2", StageKind::Regular, vec![reg_task(1.0)]),
        ];
        let err = JobSpec::new(JobId(0), &t, SimTime::ZERO, stages, vec![]).unwrap_err();
        assert_eq!(err, JobSpecError::KindMismatch { stage: StageId(0) });
    }

    #[test]
    fn rejects_task_class_mismatch() {
        let t = chain_template();
        let stages = vec![
            StageSpec::executing("gen1", StageKind::Llm, vec![reg_task(1.0)]), // regular task in LLM stage
            StageSpec::executing("exec1", StageKind::Regular, vec![reg_task(1.0)]),
            StageSpec::executing("gen2", StageKind::Llm, vec![llm_task(1)]),
            StageSpec::executing("exec2", StageKind::Regular, vec![reg_task(1.0)]),
        ];
        let err = JobSpec::new(JobId(0), &t, SimTime::ZERO, stages, vec![]).unwrap_err();
        assert_eq!(err, JobSpecError::TaskClassMismatch { stage: StageId(0) });
    }

    #[test]
    fn rejects_void_without_reveal() {
        let t = chain_template();
        let stages = vec![
            StageSpec::executing("gen1", StageKind::Llm, vec![llm_task(10)]),
            StageSpec::executing("exec1", StageKind::Regular, vec![reg_task(1.0)]),
            StageSpec {
                executed: false,
                tasks: vec![],
                revealed_by: None, // invalid: void but never revealed
                ..StageSpec::executing("gen2", StageKind::Llm, vec![])
            },
            StageSpec {
                executed: false,
                tasks: vec![],
                revealed_by: Some(StageId(1)),
                ..StageSpec::executing("exec2", StageKind::Regular, vec![])
            },
        ];
        let err = JobSpec::new(JobId(0), &t, SimTime::ZERO, stages, vec![]).unwrap_err();
        assert_eq!(err, JobSpecError::VoidWithoutReveal { stage: StageId(2) });
    }

    #[test]
    fn rejects_unenclosed_generated_stage() {
        let t = planning_template();
        let plan = StageId(0);
        let dynamic = StageId(1);
        let stages = vec![
            StageSpec::executing("plan", StageKind::Llm, vec![llm_task(40)]),
            StageSpec::executing("exec", StageKind::DynamicPlaceholder, vec![]),
            StageSpec {
                revealed_by: Some(plan),
                parent_dynamic: Some(dynamic),
                candidate: Some(0),
                ..StageSpec::executing("tool_a", StageKind::Regular, vec![reg_task(2.0)])
            },
        ];
        // Missing edges plan -> g and g -> dynamic.
        let err = JobSpec::new(JobId(0), &t, SimTime::ZERO, stages, vec![]).unwrap_err();
        assert_eq!(
            err,
            JobSpecError::GeneratedNotEnclosed { stage: StageId(2) }
        );
    }

    #[test]
    fn rejects_bad_candidate_index() {
        let t = planning_template();
        let plan = StageId(0);
        let dynamic = StageId(1);
        let g = StageId(2);
        let stages = vec![
            StageSpec::executing("plan", StageKind::Llm, vec![llm_task(40)]),
            StageSpec::executing("exec", StageKind::DynamicPlaceholder, vec![]),
            StageSpec {
                revealed_by: Some(plan),
                parent_dynamic: Some(dynamic),
                candidate: Some(99),
                ..StageSpec::executing("tool_x", StageKind::Regular, vec![reg_task(2.0)])
            },
        ];
        let err = JobSpec::new(
            JobId(0),
            &t,
            SimTime::ZERO,
            stages,
            vec![(plan, g), (g, dynamic)],
        )
        .unwrap_err();
        assert_eq!(err, JobSpecError::BadCandidate { stage: g });
    }

    #[test]
    fn rejects_cyclic_generated_edges() {
        let t = planning_template();
        let plan = StageId(0);
        let dynamic = StageId(1);
        let g2 = StageId(2);
        let g3 = StageId(3);
        let mk = |name: &str, c: usize| StageSpec {
            revealed_by: Some(plan),
            parent_dynamic: Some(dynamic),
            candidate: Some(c),
            ..StageSpec::executing(name, StageKind::Regular, vec![reg_task(1.0)])
        };
        let stages = vec![
            StageSpec::executing("plan", StageKind::Llm, vec![llm_task(40)]),
            StageSpec::executing("exec", StageKind::DynamicPlaceholder, vec![]),
            mk("tool_a", 0),
            mk("tool_b", 1),
        ];
        let err = JobSpec::new(
            JobId(0),
            &t,
            SimTime::ZERO,
            stages,
            vec![(plan, g2), (g2, g3), (g3, g2), (g2, dynamic), (g3, dynamic)],
        )
        .unwrap_err();
        assert_eq!(err, JobSpecError::Cyclic);
    }
}
