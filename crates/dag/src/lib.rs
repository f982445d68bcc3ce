//! # llmsched-dag — the LLM DAG model
//!
//! The DAG-based model for compound LLM applications from *LLMSched*
//! (ICDCS 2025), §IV-A. A compound LLM application is described by a
//! [`template::Template`] — a DAG over three kinds of stages:
//!
//! * **regular stages** ([`job::StageKind::Regular`]) — non-LLM tasks that run
//!   on regular executors (containers);
//! * **LLM stages** ([`job::StageKind::Llm`]) — autoregressive inference
//!   tasks that run on batching LLM executors;
//! * **dynamic stages** ([`template::TemplateStageKind::Dynamic`]) —
//!   placeholders for LLM-generated stages drawn from a candidate set.
//!
//! Structural uncertainty is resolved by two mechanisms:
//!
//! * chain-like applications are padded to their maximum iteration count,
//!   with padded stages carrying `revealed_by` markers;
//! * planning applications expand their dynamic placeholder when its
//!   preceding LLM stage completes.
//!
//! A [`job::JobSpec`] is the hidden ground truth of one runtime instance; the
//! simulator (in `llmsched-sim`) reveals it to schedulers incrementally.
//!
//! ## Example
//!
//! ```
//! use llmsched_dag::prelude::*;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! // A two-stage code-generation-like template.
//! let mut b = TemplateBuilder::new(AppId(0), "toy_codegen");
//! let gen = b.llm("code gen");
//! let exec = b.regular("code exec");
//! b.edge(gen, exec);
//! let template = b.build()?;
//!
//! // One concrete job of that application.
//! let stages = vec![
//!     StageSpec::executing("code gen", StageKind::Llm,
//!         vec![TaskWork::Llm { prompt_tokens: 200, output_tokens: 150 }]),
//!     StageSpec::executing("code exec", StageKind::Regular,
//!         vec![TaskWork::Regular { duration: SimDuration::from_millis(400) }]),
//! ];
//! let job = JobSpec::new(JobId(0), &template, SimTime::ZERO, stages, vec![])?;
//! assert_eq!(job.len(), 2);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod csr;
pub mod hash;
pub mod ids;
pub mod job;
pub mod template;
pub mod time;
pub mod work;

/// Convenient glob-import of the common model types.
pub mod prelude {
    pub use crate::csr::{Csr, CsrDag};
    pub use crate::ids::{AppId, JobId, StageId, TaskId};
    pub use crate::job::{DynOutcome, JobSpec, JobSpecError, StageKind, StageSpec};
    pub use crate::template::{
        Candidate, Template, TemplateBuilder, TemplateError, TemplateSet, TemplateStage,
        TemplateStageKind,
    };
    pub use crate::time::{SimDuration, SimTime};
    pub use crate::work::{ExecutorClass, LlmWork, TaskWork};
}

/// Stage-graph queries as a [`template::Template`] serves them: the
/// [`csr::CsrDag`] that [`template::TemplateBuilder::build`] stores, checked
/// end to end from builder edges (the stand-alone CSR type is covered in
/// `csr::tests`).
#[cfg(test)]
mod graph {
    mod tests {
        use crate::prelude::*;

        /// A template over `n` regular stages with the given edges.
        fn template(n: usize, edges: &[(u32, u32)]) -> Result<Template, TemplateError> {
            let mut b = TemplateBuilder::new(AppId(0), "graph");
            for i in 0..n {
                b.regular(format!("s{i}"));
            }
            for &(u, v) in edges {
                b.edge(StageId(u), StageId(v));
            }
            b.build()
        }

        fn diamond() -> Template {
            // 0 -> 1 -> 3, 0 -> 2 -> 3
            template(4, &[(0, 1), (0, 2), (1, 3), (2, 3)]).unwrap()
        }

        #[test]
        fn topo_order_is_stable_and_valid() {
            let t = diamond();
            assert_eq!(t.dag().topo_order(), Some(vec![0, 1, 2, 3]));
            // Smallest index first among ready stages, whatever the edge order.
            let t = template(4, &[(2, 3), (1, 3), (0, 2), (0, 1)]).unwrap();
            assert_eq!(t.dag().topo_order(), Some(vec![0, 1, 2, 3]));
        }

        #[test]
        fn cycle_detected() {
            assert_eq!(
                template(2, &[(0, 1), (1, 0)]).err(),
                Some(TemplateError::Cyclic)
            );
            assert_eq!(template(1, &[(0, 0)]).err(), Some(TemplateError::Cyclic));
        }

        #[test]
        fn descendants_follow_directed_paths() {
            let t = diamond();
            assert_eq!(t.dag().descendants(0), vec![1, 2, 3]);
            assert_eq!(t.dag().descendants(1), vec![3]);
            assert_eq!(t.dag().descendants(3), Vec::<u32>::new());
        }

        #[test]
        fn ancestors_mirror_descendants() {
            let t = diamond();
            let g = t.dag();
            assert_eq!(g.ancestors(3), vec![0, 1, 2]);
            assert_eq!(g.ancestors(0), Vec::<u32>::new());
            for u in 0..g.len() {
                for v in g.descendants(u) {
                    assert!(g.ancestors(v as usize).contains(&(u as u32)));
                }
            }
        }

        #[test]
        fn critical_path_weighted() {
            let t = diamond();
            // Path 0 -> 2 -> 3 is heavier: 1 + 5 + 1 = 7.
            assert_eq!(t.dag().critical_path(&[1.0, 2.0, 5.0, 1.0]), 7.0);
        }

        #[test]
        fn duplicate_edges_ignored() {
            let t = template(2, &[(0, 1), (0, 1)]).unwrap();
            assert_eq!(t.dag().successors(0), &[1]);
            assert_eq!(t.dag().predecessors(1), &[0]);
        }

        #[test]
        fn empty_graph() {
            assert_eq!(template(0, &[]).err(), Some(TemplateError::Empty));
            let t = template(1, &[]).unwrap();
            assert_eq!(t.dag().topo_order(), Some(vec![0]));
            assert_eq!(t.dag().critical_path(&[0.0]), 0.0);
        }
    }
}
