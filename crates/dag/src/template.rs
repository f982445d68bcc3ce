//! Application templates: the *public* structure of a compound LLM
//! application, shared by the workload generator, the profiler and the
//! schedulers.
//!
//! A template is the paper's LLM DAG model (§IV-A): a DAG over regular
//! stages, LLM stages and dynamic stages. Chain-like applications are padded
//! to their maximum iteration count, with each padded stage carrying a
//! `revealed_by` marker — the stage whose completion determines whether the
//! padded stage actually executes. Dynamic stages carry a candidate set from
//! which the preceding LLM stage generates concrete stages at runtime.

use std::fmt;

use crate::csr::CsrDag;
use crate::ids::{AppId, StageId};
use crate::work::ExecutorClass;

/// A stage candidate inside a dynamic stage's candidate set (e.g. the tools
/// "text translation", "image segmentation", "object detection" in task
/// automation, Fig. 4).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Candidate {
    /// Human-readable candidate name.
    pub name: String,
    /// Whether the candidate runs on a regular or LLM executor.
    pub class: ExecutorClass,
}

/// Kind of a template stage.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TemplateStageKind {
    /// One or more non-LLM tasks on regular executors.
    Regular,
    /// One or more LLM inference tasks on LLM executors.
    Llm,
    /// A placeholder for LLM-generated stages and their dependencies.
    Dynamic {
        /// The set of stages the LLM may instantiate.
        candidates: Vec<Candidate>,
        /// The LLM stage whose output determines the generated plan; the
        /// dynamic stage's structure is revealed when this stage completes.
        preceding_llm: StageId,
    },
}

impl TemplateStageKind {
    /// The executor class of the stage's own tasks, if it has any.
    /// Dynamic placeholders carry no tasks of their own.
    pub fn class(&self) -> Option<ExecutorClass> {
        match self {
            TemplateStageKind::Regular => Some(ExecutorClass::Regular),
            TemplateStageKind::Llm => Some(ExecutorClass::Llm),
            TemplateStageKind::Dynamic { .. } => None,
        }
    }

    /// True if this is a dynamic placeholder.
    pub fn is_dynamic(&self) -> bool {
        matches!(self, TemplateStageKind::Dynamic { .. })
    }
}

/// A stage in an application template.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TemplateStage {
    /// Human-readable name ("code gen", "task plan", …).
    pub name: String,
    /// Stage kind.
    pub kind: TemplateStageKind,
    /// If `Some(s)`, whether this stage executes is unknown until stage `s`
    /// completes (chain padding, §IV-A). `None` means the stage always
    /// executes and is known at job arrival.
    pub revealed_by: Option<StageId>,
    /// Nominal number of tasks in this stage (used by topology features such
    /// as Argus's task-count rank; actual jobs may vary).
    pub typical_tasks: u32,
}

/// A validated application template.
///
/// Construct with [`TemplateBuilder`]; the builder enforces the structural
/// invariants documented on [`TemplateError`].
#[derive(Debug, Clone)]
pub struct Template {
    app: AppId,
    name: String,
    stages: Vec<TemplateStage>,
    edges: Vec<(StageId, StageId)>,
    dag: CsrDag,
}

impl Template {
    /// The application id.
    pub fn app(&self) -> AppId {
        self.app
    }

    /// The application name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The template stages, indexed by [`StageId`].
    pub fn stages(&self) -> &[TemplateStage] {
        &self.stages
    }

    /// A stage by id.
    ///
    /// # Panics
    /// Panics if `id` is out of range.
    pub fn stage(&self, id: StageId) -> &TemplateStage {
        &self.stages[id.index()]
    }

    /// Number of template stages.
    pub fn len(&self) -> usize {
        self.stages.len()
    }

    /// True if the template has no stages (never the case for built
    /// templates; kept for `len`/`is_empty` pairing).
    pub fn is_empty(&self) -> bool {
        self.stages.is_empty()
    }

    /// The static edge list.
    pub fn edges(&self) -> &[(StageId, StageId)] {
        &self.edges
    }

    /// The template DAG (node `i` = stage `i`).
    pub fn dag(&self) -> &CsrDag {
        &self.dag
    }

    /// Ids of all dynamic placeholder stages.
    pub fn dynamic_stages(&self) -> Vec<StageId> {
        self.stages
            .iter()
            .enumerate()
            .filter(|(_, s)| s.kind.is_dynamic())
            .map(|(i, _)| StageId(i as u32))
            .collect()
    }
}

/// Errors detected while building a [`Template`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TemplateError {
    /// The template has no stages.
    Empty,
    /// An edge or reference names a stage id that does not exist.
    UnknownStage(StageId),
    /// The stage graph contains a cycle.
    Cyclic,
    /// A `revealed_by` reference does not point to an ancestor of the stage,
    /// so the reveal could happen after the stage becomes runnable.
    RevealNotAncestor {
        /// The padded stage.
        stage: StageId,
        /// The stage claimed to reveal it.
        revealed_by: StageId,
    },
    /// A dynamic stage's `preceding_llm` is not an LLM stage.
    PrecedingNotLlm {
        /// The dynamic placeholder.
        dynamic: StageId,
        /// The offending preceding stage.
        preceding: StageId,
    },
    /// A dynamic stage's `preceding_llm` is not an ancestor of the dynamic
    /// stage, so the plan could be needed before it is generated.
    PrecedingNotAncestor {
        /// The dynamic placeholder.
        dynamic: StageId,
        /// The offending preceding stage.
        preceding: StageId,
    },
    /// A dynamic stage has an empty candidate set.
    NoCandidates(StageId),
}

impl fmt::Display for TemplateError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TemplateError::Empty => write!(f, "template has no stages"),
            TemplateError::UnknownStage(s) => write!(f, "reference to unknown stage {s}"),
            TemplateError::Cyclic => write!(f, "stage graph contains a cycle"),
            TemplateError::RevealNotAncestor { stage, revealed_by } => {
                write!(
                    f,
                    "stage {stage} revealed by {revealed_by}, which is not an ancestor"
                )
            }
            TemplateError::PrecedingNotLlm { dynamic, preceding } => {
                write!(
                    f,
                    "dynamic stage {dynamic} preceded by non-LLM stage {preceding}"
                )
            }
            TemplateError::PrecedingNotAncestor { dynamic, preceding } => {
                write!(
                    f,
                    "dynamic stage {dynamic} preceded by {preceding}, which is not an ancestor"
                )
            }
            TemplateError::NoCandidates(s) => {
                write!(f, "dynamic stage {s} has an empty candidate set")
            }
        }
    }
}

impl std::error::Error for TemplateError {}

/// A registry of templates keyed by [`AppId`], shared between the workload
/// generator, the simulator and the schedulers.
#[derive(Debug, Clone, Default)]
pub struct TemplateSet {
    inner: std::collections::BTreeMap<AppId, Template>,
}

impl TemplateSet {
    /// Creates an empty set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Inserts a template, replacing any previous template of the same app.
    pub fn insert(&mut self, template: Template) {
        self.inner.insert(template.app(), template);
    }

    /// Looks up the template for `app`.
    pub fn get(&self, app: AppId) -> Option<&Template> {
        self.inner.get(&app)
    }

    /// The template for `app`.
    ///
    /// # Panics
    /// Panics if `app` is not registered.
    pub fn expect(&self, app: AppId) -> &Template {
        self.inner
            .get(&app)
            .unwrap_or_else(|| panic!("no template registered for {app}"))
    }

    /// Iterates over templates in `AppId` order.
    pub fn iter(&self) -> impl Iterator<Item = &Template> {
        self.inner.values()
    }

    /// Number of registered templates.
    pub fn len(&self) -> usize {
        self.inner.len()
    }

    /// True if no templates are registered.
    pub fn is_empty(&self) -> bool {
        self.inner.is_empty()
    }
}

impl FromIterator<Template> for TemplateSet {
    fn from_iter<I: IntoIterator<Item = Template>>(iter: I) -> Self {
        let mut set = TemplateSet::new();
        for t in iter {
            set.insert(t);
        }
        set
    }
}

/// Incremental builder for [`Template`] (C-BUILDER).
///
/// # Examples
///
/// ```
/// use llmsched_dag::template::TemplateBuilder;
/// use llmsched_dag::ids::AppId;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut b = TemplateBuilder::new(AppId(0), "toy");
/// let gen = b.llm("generate");
/// let exec = b.regular("execute");
/// b.edge(gen, exec);
/// let template = b.build()?;
/// assert_eq!(template.len(), 2);
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct TemplateBuilder {
    app: AppId,
    name: String,
    stages: Vec<TemplateStage>,
    edges: Vec<(StageId, StageId)>,
}

impl TemplateBuilder {
    /// Starts a template for application `app` named `name`.
    pub fn new(app: AppId, name: impl Into<String>) -> Self {
        TemplateBuilder {
            app,
            name: name.into(),
            stages: Vec::new(),
            edges: Vec::new(),
        }
    }

    fn push(&mut self, stage: TemplateStage) -> StageId {
        self.stages.push(stage);
        StageId((self.stages.len() - 1) as u32)
    }

    /// Adds a regular stage that always executes.
    pub fn regular(&mut self, name: impl Into<String>) -> StageId {
        self.push(TemplateStage {
            name: name.into(),
            kind: TemplateStageKind::Regular,
            revealed_by: None,
            typical_tasks: 1,
        })
    }

    /// Adds an LLM stage that always executes.
    pub fn llm(&mut self, name: impl Into<String>) -> StageId {
        self.push(TemplateStage {
            name: name.into(),
            kind: TemplateStageKind::Llm,
            revealed_by: None,
            typical_tasks: 1,
        })
    }

    /// Adds a dynamic placeholder whose plan is produced by `preceding_llm`.
    pub fn dynamic(
        &mut self,
        name: impl Into<String>,
        preceding_llm: StageId,
        candidates: Vec<Candidate>,
    ) -> StageId {
        self.push(TemplateStage {
            name: name.into(),
            kind: TemplateStageKind::Dynamic {
                candidates,
                preceding_llm,
            },
            revealed_by: None,
            typical_tasks: 1,
        })
    }

    /// Marks `stage` as a padded stage whose execution is revealed when
    /// `revealed_by` completes (chain-like applications).
    ///
    /// # Panics
    /// Panics if `stage` is out of range (a builder misuse, not input data).
    pub fn revealed_by(&mut self, stage: StageId, revealed_by: StageId) -> &mut Self {
        self.stages[stage.index()].revealed_by = Some(revealed_by);
        self
    }

    /// Sets the nominal task count of `stage`.
    ///
    /// # Panics
    /// Panics if `stage` is out of range.
    pub fn typical_tasks(&mut self, stage: StageId, n: u32) -> &mut Self {
        self.stages[stage.index()].typical_tasks = n;
        self
    }

    /// Adds a dependency edge `from -> to`.
    pub fn edge(&mut self, from: StageId, to: StageId) -> &mut Self {
        self.edges.push((from, to));
        self
    }

    /// Validates and builds the template.
    ///
    /// # Errors
    /// Returns a [`TemplateError`] if the structure violates any of the
    /// documented invariants (cycles, dangling references, non-ancestor
    /// reveals, malformed dynamic stages).
    pub fn build(self) -> Result<Template, TemplateError> {
        let n = self.stages.len();
        if n == 0 {
            return Err(TemplateError::Empty);
        }
        let check = |s: StageId| {
            if s.index() < n {
                Ok(())
            } else {
                Err(TemplateError::UnknownStage(s))
            }
        };
        for &(u, v) in &self.edges {
            check(u)?;
            check(v)?;
        }
        let dag = CsrDag::from_edges(
            n,
            &self
                .edges
                .iter()
                .map(|&(u, v)| (u.0, v.0))
                .collect::<Vec<_>>(),
        );
        if !dag.is_acyclic() {
            return Err(TemplateError::Cyclic);
        }
        for (i, stage) in self.stages.iter().enumerate() {
            let sid = StageId(i as u32);
            if let Some(r) = stage.revealed_by {
                check(r)?;
                if !dag.ancestors(i).contains(&r.0) {
                    return Err(TemplateError::RevealNotAncestor {
                        stage: sid,
                        revealed_by: r,
                    });
                }
            }
            if let TemplateStageKind::Dynamic {
                candidates,
                preceding_llm,
            } = &stage.kind
            {
                check(*preceding_llm)?;
                if candidates.is_empty() {
                    return Err(TemplateError::NoCandidates(sid));
                }
                let pre = &self.stages[preceding_llm.index()];
                if !matches!(pre.kind, TemplateStageKind::Llm) {
                    return Err(TemplateError::PrecedingNotLlm {
                        dynamic: sid,
                        preceding: *preceding_llm,
                    });
                }
                if !dag.ancestors(i).contains(&preceding_llm.0) {
                    return Err(TemplateError::PrecedingNotAncestor {
                        dynamic: sid,
                        preceding: *preceding_llm,
                    });
                }
            }
        }
        Ok(Template {
            app: self.app,
            name: self.name,
            stages: self.stages,
            edges: self.edges,
            dag,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cand(name: &str) -> Candidate {
        Candidate {
            name: name.into(),
            class: ExecutorClass::Regular,
        }
    }

    #[test]
    fn builds_simple_chain() {
        let mut b = TemplateBuilder::new(AppId(0), "chain");
        let a = b.llm("gen");
        let c = b.regular("exec");
        b.edge(a, c);
        let t = b.build().unwrap();
        assert_eq!(t.len(), 2);
        assert_eq!(t.name(), "chain");
        assert_eq!(t.stage(a).kind, TemplateStageKind::Llm);
        assert!(t.dynamic_stages().is_empty());
    }

    #[test]
    fn rejects_empty() {
        assert_eq!(
            TemplateBuilder::new(AppId(0), "e").build().unwrap_err(),
            TemplateError::Empty
        );
    }

    #[test]
    fn rejects_cycle() {
        let mut b = TemplateBuilder::new(AppId(0), "cyc");
        let a = b.llm("a");
        let c = b.regular("b");
        b.edge(a, c);
        b.edge(c, a);
        assert_eq!(b.build().unwrap_err(), TemplateError::Cyclic);
    }

    #[test]
    fn rejects_unknown_edge_endpoint() {
        let mut b = TemplateBuilder::new(AppId(0), "bad");
        let a = b.llm("a");
        b.edge(a, StageId(9));
        assert_eq!(
            b.build().unwrap_err(),
            TemplateError::UnknownStage(StageId(9))
        );
    }

    #[test]
    fn rejects_reveal_by_non_ancestor() {
        let mut b = TemplateBuilder::new(AppId(0), "bad");
        let a = b.llm("a");
        let c = b.regular("b"); // no edge a -> c
        b.revealed_by(c, a);
        assert_eq!(
            b.build().unwrap_err(),
            TemplateError::RevealNotAncestor {
                stage: c,
                revealed_by: a
            }
        );
    }

    #[test]
    fn accepts_reveal_by_ancestor() {
        let mut b = TemplateBuilder::new(AppId(0), "ok");
        let a = b.llm("a");
        let c = b.regular("b");
        b.edge(a, c);
        b.revealed_by(c, a);
        assert!(b.build().is_ok());
    }

    #[test]
    fn dynamic_requires_llm_ancestor() {
        // preceding is regular -> error
        let mut b = TemplateBuilder::new(AppId(0), "bad");
        let r = b.regular("plan");
        let d = b.dynamic("dyn", r, vec![cand("t1")]);
        b.edge(r, d);
        assert_eq!(
            b.build().unwrap_err(),
            TemplateError::PrecedingNotLlm {
                dynamic: d,
                preceding: r
            }
        );

        // preceding is llm but not an ancestor -> error
        let mut b = TemplateBuilder::new(AppId(0), "bad2");
        let l = b.llm("plan");
        let d = b.dynamic("dyn", l, vec![cand("t1")]);
        assert_eq!(
            b.build().unwrap_err(),
            TemplateError::PrecedingNotAncestor {
                dynamic: d,
                preceding: l
            }
        );
    }

    #[test]
    fn dynamic_requires_candidates() {
        let mut b = TemplateBuilder::new(AppId(0), "bad");
        let l = b.llm("plan");
        let d = b.dynamic("dyn", l, vec![]);
        b.edge(l, d);
        assert_eq!(b.build().unwrap_err(), TemplateError::NoCandidates(d));
    }

    #[test]
    fn task_automation_like_template() {
        // Fig. 4 right: task plan (LLM) -> dynamic {3 tools}.
        let mut b = TemplateBuilder::new(AppId(5), "task_automation");
        let plan = b.llm("task plan");
        let dynamic = b.dynamic(
            "plan exec",
            plan,
            vec![cand("text trans"), cand("img seg"), cand("obj detec")],
        );
        b.edge(plan, dynamic);
        let t = b.build().unwrap();
        assert_eq!(t.dynamic_stages(), vec![dynamic]);
        match &t.stage(dynamic).kind {
            TemplateStageKind::Dynamic {
                candidates,
                preceding_llm,
            } => {
                assert_eq!(candidates.len(), 3);
                assert_eq!(*preceding_llm, plan);
            }
            other => panic!("expected dynamic stage, got {other:?}"),
        }
    }

    #[test]
    fn error_display_is_informative() {
        let e = TemplateError::RevealNotAncestor {
            stage: StageId(2),
            revealed_by: StageId(5),
        };
        assert!(e.to_string().contains("S2"));
        assert!(e.to_string().contains("S5"));
    }
}
