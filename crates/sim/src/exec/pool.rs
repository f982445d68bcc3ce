//! Fidelity selection: the one place an [`EngineMode`] becomes an
//! [`ExecutorBackend`]. Pool-wide occupancy figures live in each
//! backend's [`SlotLedger`](super::SlotLedger).

use llmsched_cluster::ClusterSpec;

use super::{ClusterExec, DisaggExec, ExecutorBackend, TokenExec};
use crate::engine::ClusterConfig;

/// LLM execution fidelity: which [`ExecutorBackend`] a simulation runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum EngineMode {
    /// Rate-rescaling analytic batching (fast; the paper's simulator) on
    /// a routed replica table ([`ClusterExec`]): [`ClusterConfig::spec`]
    /// if given, else a homogeneous least-loaded pool from the scalar
    /// fields.
    #[default]
    Analytic,
    /// Per-iteration continuous batching (the paper's testbed stand-in);
    /// sized by the scalar fields only.
    TokenLevel,
    /// Disaggregated prefill/decode serving ([`DisaggExec`]); uses
    /// [`ClusterConfig::spec`], or a derived layout with one dedicated
    /// prefill replica when none is given.
    Disagg,
}

/// Builds the executor backend a cluster configuration asks for. The only
/// place the workspace dispatches on [`EngineMode`]; everything downstream
/// of here is trait-object code.
///
/// # Panics
/// Panics if the spec in use (explicit, or derived from zero scalar
/// fields) is invalid, or lacks a disaggregation layout in
/// [`EngineMode::Disagg`]; [`ClusterConfig::validate`] reports these as
/// errors instead.
pub fn build_backend(cfg: &ClusterConfig) -> Box<dyn ExecutorBackend> {
    match cfg.mode {
        EngineMode::Analytic => {
            let spec = cfg.spec.clone().unwrap_or_else(|| {
                ClusterSpec::homogeneous(cfg.llm_executors, cfg.max_batch, cfg.latency.clone())
            });
            Box::new(ClusterExec::new(&spec))
        }
        EngineMode::TokenLevel => Box::new(TokenExec::new(
            cfg.llm_executors,
            cfg.max_batch,
            cfg.iteration_chunk,
        )),
        EngineMode::Disagg => {
            let spec = cfg.spec.clone().unwrap_or_else(|| {
                ClusterSpec::disaggregated(cfg.llm_executors, cfg.max_batch, cfg.latency.clone())
            });
            Box::new(DisaggExec::new(&spec))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::latency::LatencyProfile;
    use llmsched_cluster::{ReplicaGroup, RoutingPolicy};

    fn cfg(mode: EngineMode) -> ClusterConfig {
        ClusterConfig {
            regular_executors: 1,
            llm_executors: 3,
            max_batch: 4,
            latency: LatencyProfile::default(),
            mode,
            iteration_chunk: 2,
            spec: None,
            decision_horizon: 0.0,
        }
    }

    #[test]
    fn factory_builds_the_requested_backend() {
        let a = build_backend(&cfg(EngineMode::Analytic));
        assert_eq!(a.name(), "cluster");
        assert_eq!(a.descriptor(), "cluster/least-loaded");
        assert_eq!(a.ledger().views().len(), 3);
        let t = build_backend(&cfg(EngineMode::TokenLevel));
        assert_eq!(t.name(), "token-level");
        assert_eq!(t.ledger().views().len(), 3);
    }

    #[test]
    fn cluster_modes_derive_specs_from_scalar_fields() {
        let c = build_backend(&cfg(EngineMode::Analytic));
        assert_eq!(c.ledger().total_slots(), 12);
        assert!((0..3).all(|e| c.ledger().capacity(e) == 4));

        let d = build_backend(&cfg(EngineMode::Disagg));
        assert_eq!(d.name(), "disagg");
        // Decode replicas mirror llm_executors; prefill is internal.
        assert_eq!(d.ledger().views().len(), 3);
        assert_eq!(d.ledger().total_slots(), 12);
    }

    #[test]
    fn explicit_spec_overrides_scalar_fields() {
        // Analytic mode with a heterogeneous spec builds the routed
        // replica table the spec describes, not the scalar-field pool.
        let spec = ClusterSpec::new(
            vec![
                ReplicaGroup::new("fast", 1, 8, LatencyProfile::default()),
                ReplicaGroup::new("slow", 2, 2, LatencyProfile::default()),
            ],
            RoutingPolicy::JoinShortestQueue,
        );
        let c = build_backend(&ClusterConfig {
            spec: Some(spec),
            ..cfg(EngineMode::Analytic)
        });
        assert_eq!(c.ledger().views().len(), 3);
        assert_eq!(c.descriptor(), "cluster/jsq");
        assert_eq!(
            (0..3).map(|e| c.ledger().capacity(e)).collect::<Vec<_>>(),
            [8, 2, 2]
        );
        assert_eq!(c.ledger().total_slots(), 12);
    }

    #[test]
    fn empty_pool_has_no_placement() {
        // Analytic mode rejects an empty pool at the spec; the scalar
        // token-level pool builds one.
        let cfg = ClusterConfig {
            llm_executors: 0,
            ..cfg(EngineMode::TokenLevel)
        };
        let mut be = build_backend(&cfg);
        assert!(!be.ledger().has_free_slot());
        assert_eq!(
            be.place(
                super::super::LlmTaskRef {
                    job: 0,
                    stage: 0,
                    task: 0
                },
                llmsched_dag::work::LlmWork {
                    prompt_tokens: 0,
                    output_tokens: 1
                }
            ),
            None
        );
        assert!(be.ledger().views().is_empty());
        assert_eq!(be.ledger().totals(), (0, 0, 0, 0));
    }
}
