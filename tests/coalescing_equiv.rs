//! Decision-point coalescing (DESIGN.md §12): a decision point with
//! nothing dispatchable is skipped instead of invoking the policy, and
//! the schedule must not notice.

mod common;

use llmsched::prelude::*;
use llmsched_bench::Policy;

use common::{assert_same, build, cluster, fingerprint, matrix, small, MODES};

/// The coalescing-off leg: every policy × mix × backend with coalescing
/// off reproduces the coalesced reference's schedule, decision
/// provenance and time-series, skipping nothing and never invoking the
/// policy less often.
#[test]
fn coalesced_runs_are_bit_identical_for_every_policy_mix_and_backend() {
    let mut skipped = 0;
    matrix(|cell, r, reference| {
        let label = &cell.label;
        let uncoalesced = ClusterConfig {
            coalescing: false,
            ..cell.cfg.clone()
        };
        let (off, fp) = fingerprint(&uncoalesced, cell.w, &mut *cell.build(false), true);
        assert_same(&fp, reference, &format!("{label}: coalescing off"));
        assert_eq!(off.sched_skipped, 0, "{label}: uncoalesced run skipped");
        assert!(
            r.sched_calls <= off.sched_calls,
            "{label}: coalescing added invocations"
        );
        skipped += r.sched_skipped;
    });
    assert!(skipped > 0, "coalescing never engaged across the matrix");
}

/// `sched_calls` counts real invocations only: the uncoalesced count is
/// an upper bound the coalesced run approaches from below, and the
/// dispatch moments, which define the schedule, survive verbatim.
#[test]
fn coalescing_only_skips_empty_decision_points() {
    for kind in WorkloadKind::ALL {
        let w = small(kind);
        for mode in MODES {
            let label = format!("FCFS / {} / {mode:?}", kind.name());
            let cfg = cluster(kind, mode);
            let uncoalesced = ClusterConfig {
                coalescing: false,
                ..cfg.clone()
            };
            let (on, fp_on) = fingerprint(&cfg, &w, &mut *build(Policy::Fcfs, false, false), false);
            let (off, fp_off) = fingerprint(
                &uncoalesced,
                &w,
                &mut *build(Policy::Fcfs, false, false),
                false,
            );
            assert!(
                on.sched_calls <= off.sched_calls,
                "{label}: coalescing added invocations"
            );
            assert_eq!(fp_on.schedule, fp_off.schedule, "{label}: schedule moved");
        }
    }
}
