//! Probe-on ≡ probe-off (DESIGN.md §11): attaching a recording probe
//! never changes a schedule, and the disabled probe observes nothing.

mod common;

use llmsched::prelude::*;
use llmsched::telemetry::DecisionList;
use llmsched_bench::Policy;

use common::{assert_same, build, cluster, fingerprint, matrix, small, Fingerprint, MODES};

/// The probe-off leg: every policy × mix × backend run unprobed
/// reproduces the probed reference's schedule and grows no time-series.
#[test]
fn probed_runs_are_bit_identical_for_every_policy_mix_and_backend() {
    matrix(|cell, _, reference| {
        let label = &cell.label;
        let (_, fp) = fingerprint(cell.cfg, cell.w, &mut *cell.build(false), false);
        assert_eq!(fp.schedule, reference.schedule, "{label}: probe off");
        assert!(
            fp.timeseries.is_none(),
            "{label}: unprobed run grew a series"
        );
        assert!(
            reference.timeseries.is_some(),
            "{label}: probed run lost its series"
        );
    });
}

/// `simulate_probed` with a [`NoopProbe`] is `simulate`: the disabled
/// path observes nothing (no time-series, no scheduler provenance).
#[test]
fn noop_probe_is_indistinguishable_from_simulate() {
    for kind in [WorkloadKind::Mixed, WorkloadKind::Planning] {
        let w = small(kind);
        for mode in MODES {
            let cfg = cluster(kind, mode);
            let mut sched = build(Policy::LlmSched, false, false);
            let r = simulate_probed(
                &cfg,
                &w.templates,
                w.jobs.clone(),
                &mut *sched,
                &mut NoopProbe,
            );
            assert!(r.timeseries.is_none(), "noop probe grew a series");
            let (_, plain) =
                fingerprint(&cfg, &w, &mut *build(Policy::LlmSched, false, false), false);
            assert_same(
                &Fingerprint::of(&r, &[]),
                &plain,
                &format!("noop / {} / {mode:?}", kind.name()),
            );
        }
    }
}

/// LLMSched at the benchmark's concurrency: 300 Mixed jobs at λ = 24 on
/// the analytic cluster ×48, where nearly every exploration group holds a
/// single (job, stage) candidate. The unprobed run pushes such a
/// candidate unscored; the probed run scores it for its record. Both
/// must schedule alike, and every explore record carries its score.
#[test]
fn llmsched_probe_is_inert_at_benchmark_concurrency() {
    let w = generate_workload(WorkloadKind::Mixed, 300, 24.0, 5);
    let base = WorkloadKind::Mixed.default_cluster();
    let cfg = ClusterConfig {
        regular_executors: base.regular_executors * 48,
        llm_executors: base.llm_executors * 48,
        ..base
    };
    let run = |probed| {
        fingerprint(
            &cfg,
            &w,
            &mut *build(Policy::LlmSched, false, false),
            probed,
        )
    };
    let (r, probed) = run(true);
    let (_, plain) = run(false);
    assert_eq!(r.incomplete, 0);
    assert_eq!(plain.schedule, probed.schedule, "probe off");
    let explored: Vec<_> = probed
        .decisions
        .iter()
        .filter(|d| d.list == DecisionList::Explore)
        .collect();
    assert!(!explored.is_empty(), "nothing explored");
    assert!(
        explored.iter().all(|d| d.reduction.is_some()),
        "an explore record lost its Eq. 6 score"
    );
}
