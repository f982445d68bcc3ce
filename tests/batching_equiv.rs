//! Decision batching at ε = 0 (DESIGN.md §14): a zero decision horizon is
//! the exact engine. The ε > 0 relaxation's determinism, invocation
//! saving, drift bound and folded-provenance accounting are checked in
//! `equivalence.rs`.

mod common;

use llmsched::prelude::*;

use common::{assert_same, fingerprint, matrix};

/// The ε = 0 leg: every policy × mix × backend with the decision horizon
/// set to zero explicitly reproduces the default-configured reference
/// (which the matrix already requires to defer nothing), down to the
/// four-way decision-point total, and defers no decision point either.
#[test]
fn horizon_zero_is_bit_identical_for_every_policy_mix_backend_and_engine() {
    matrix(|cell, _, reference| {
        let label = &cell.label;
        let exact = ClusterConfig {
            decision_horizon: 0.0,
            ..cell.cfg.clone()
        };
        let (zero, fp) = fingerprint(&exact, cell.w, &mut *cell.build(false), true);
        assert_same(&fp, reference, &format!("{label}: ε = 0"));
        assert_eq!(zero.sched_deferred, 0, "{label}: ε = 0 deferred");
    });
}
