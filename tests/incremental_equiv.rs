//! Incremental ≡ rebuild on the equivalence matrix, and stock LLMSched's
//! golden schedules.
//!
//! The delta-driven schedulers must reproduce the rebuild-per-call
//! reference schedulers bit for bit on every matrix cell. The toggles all
//! compare two runs over the same engine, so an engine-side bug that
//! moves both still passes them; the absolute golden pins catch it.

mod common;

use llmsched::prelude::*;
use llmsched_bench::Policy;

use common::{build, cluster, fingerprint, matrix, small};

/// Stock LLMSched's golden schedules on the matrix workloads:
/// `(mix, mode, avg-JCT f64 bits, engine events)`. The Analytic rows were
/// captured before the versioned profile store existed (frozen profile
/// updates must reproduce them), the TokenLevel and Disagg rows before
/// executor occupancy moved into the shared slot ledger. Analytic runs
/// the homogeneous least-loaded replica table, so its rows also hold the
/// routed placement and batch timing exact. The Analytic and Disagg
/// event counts were re-captured when analytic decode moved to one live
/// finish event per busy replica, and the TokenLevel counts (4946 / 10221
/// / 2007 / 894 before) when token-level decode moved to one wake-up per
/// batch change instead of one per iteration. Neither moved an avg-JCT
/// bit.
const GOLDEN: [(WorkloadKind, EngineMode, u64, u64); 12] = [
    (
        WorkloadKind::Mixed,
        EngineMode::Analytic,
        0x4035d5b500276d2b,
        161,
    ),
    (
        WorkloadKind::Predefined,
        EngineMode::Analytic,
        0x40402f78eacd68d4,
        257,
    ),
    (
        WorkloadKind::ChainLike,
        EngineMode::Analytic,
        0x402321c952c4c8f2,
        74,
    ),
    (
        WorkloadKind::Planning,
        EngineMode::Analytic,
        0x401f56f39085f4a2,
        82,
    ),
    (
        WorkloadKind::Mixed,
        EngineMode::TokenLevel,
        0x4035d7e24febd09e,
        187,
    ),
    (
        WorkloadKind::Mixed,
        EngineMode::Disagg,
        0x403fa1efd86a8fc2,
        210,
    ),
    (
        WorkloadKind::Predefined,
        EngineMode::TokenLevel,
        0x40402e257a0d0c58,
        322,
    ),
    (
        WorkloadKind::Predefined,
        EngineMode::Disagg,
        0x404604e90d75338a,
        331,
    ),
    (
        WorkloadKind::ChainLike,
        EngineMode::TokenLevel,
        0x40232f1a99087a23,
        96,
    ),
    (
        WorkloadKind::ChainLike,
        EngineMode::Disagg,
        0x4023807e78abe348,
        98,
    ),
    (
        WorkloadKind::Planning,
        EngineMode::TokenLevel,
        0x401f63587a149915,
        96,
    ),
    (
        WorkloadKind::Planning,
        EngineMode::Disagg,
        0x401f9abdfed3b015,
        97,
    ),
];

/// The rebuild leg: every policy × mix × backend, the rebuild-per-call
/// reference schedulers against the delta-driven ones.
#[test]
fn every_policy_every_mix_every_backend() {
    matrix(|cell, _, reference| {
        // The rebuild path promises the schedule, not the provenance of
        // the preferences it proposes.
        let (_, fp) = fingerprint(cell.cfg, cell.w, &mut *cell.build(true), true);
        let label = &cell.label;
        assert_eq!(fp.schedule, reference.schedule, "{label}: rebuild path");
        assert_eq!(
            fp.timeseries, reference.timeseries,
            "{label}: rebuild series"
        );
    });
}

/// Runs stock LLMSched on each golden `(mix, mode)` whose backend `pins`
/// selects and asserts its engine event count and the bit pattern of its
/// average JCT. Returns how many pins were checked.
fn assert_golden(pins: impl Fn(EngineMode) -> bool) -> usize {
    let mut checked = 0;
    for &(kind, mode, bits, events) in GOLDEN.iter().filter(|g| pins(g.1)) {
        let mut sched = build(Policy::LlmSched, false, false);
        let (r, fp) = fingerprint(&cluster(kind, mode), &small(kind), &mut *sched, false);
        let label = format!("{} / {mode:?}", kind.name());
        assert_eq!(fp.schedule.events, events, "{label}: engine events moved");
        assert_eq!(
            fp.schedule.avg_jct_bits,
            bits,
            "{label}: avg JCT bits moved ({} vs golden {})",
            r.avg_jct_secs(),
            f64::from_bits(bits)
        );
        checked += 1;
    }
    checked
}

/// Frozen profile updates (the default) are bit-identical to the
/// profiler that predates the versioned profile store: the Analytic pins.
#[test]
fn frozen_profile_update_is_bit_identical_to_pre_store_schedules() {
    assert_eq!(assert_golden(|m| m == EngineMode::Analytic), 4);
}

/// The same pins for token-level continuous batching and disaggregated
/// prefill/decode, whose engine-side capacity and occupancy accounting
/// the rebuild leg cannot see.
#[test]
fn token_level_and_disagg_schedules_are_pinned() {
    assert_eq!(assert_golden(|m| m != EngineMode::Analytic), 8);
}
