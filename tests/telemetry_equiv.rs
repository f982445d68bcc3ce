//! Probe-on ≡ probe-off (DESIGN.md §11): attaching a recording probe
//! never changes a schedule, and the disabled probe observes nothing.

mod common;

use llmsched::prelude::*;
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
