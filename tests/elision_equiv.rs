//! Decision-point elision (DESIGN.md §13): a policy that opts into
//! `is_work_conserving` is not invoked at a capacity-starved decision
//! point, and the schedule must not notice. The opt-in is the one switch
//! for elision. A decision point with nothing ready never reaches any
//! policy (§12); the elision-off wrapper checks that on every call.

mod common;

use llmsched::prelude::*;
use llmsched::telemetry::DecisionRecord;
use llmsched_bench::Policy;

use common::{assert_same, build, cluster, fingerprint, matrix, small, MODES};

/// Elision off: forwards every hook to the wrapped policy but declines
/// `is_work_conserving`, so the engine invokes it at every
/// capacity-starved decision point it would otherwise elide. It also
/// asserts the engine's contract on `schedule`: every call has ready
/// work.
struct NoElision(Box<dyn Scheduler>);

impl Scheduler for NoElision {
    fn name(&self) -> &str {
        self.0.name()
    }

    fn schedule(&mut self, ctx: &SchedContext<'_>) -> Preference {
        assert!(
            ctx.dispatchable_regular + ctx.dispatchable_llm > 0,
            "{} invoked with nothing ready at {}",
            self.0.name(),
            ctx.now
        );
        self.0.schedule(ctx)
    }

    fn on_delta(&mut self, d: &SchedDelta) {
        self.0.on_delta(d);
    }

    fn reset(&mut self) {
        self.0.reset();
    }

    fn set_telemetry(&mut self, enabled: bool) {
        self.0.set_telemetry(enabled);
    }

    fn drain_provenance(&mut self, out: &mut Vec<DecisionRecord>) {
        self.0.drain_provenance(out);
    }
}

/// The elision-off leg: every policy × mix × backend run through
/// [`NoElision`] reproduces the reference's schedule, decision provenance
/// and time-series, and elides nothing. Both skips engage somewhere in
/// the matrix, so neither contract holds vacuously.
#[test]
fn elided_runs_are_bit_identical_for_every_policy_mix_and_backend() {
    let (mut elided, mut skipped) = (0, 0);
    matrix(|cell, r, reference| {
        let label = &cell.label;
        let mut unelided = NoElision(cell.build(false));
        let (off, fp) = fingerprint(cell.cfg, cell.w, &mut unelided, true);
        assert_same(&fp, reference, &format!("{label}: elision off"));
        assert_eq!(off.sched_elided, 0, "{label}: unelided run elided");
        elided += r.sched_elided;
        skipped += r.sched_skipped;
    });
    assert!(elided > 0, "elision never engaged across the matrix");
    assert!(skipped > 0, "no empty decision point across the matrix");
}

/// Stock LLMSched advances its ε-draw stream even at capacity-starved
/// decision points, so it does not opt in, and the engine never elides
/// it.
#[test]
fn stock_llmsched_is_never_elided() {
    for kind in WorkloadKind::ALL {
        let w = small(kind);
        for mode in MODES {
            let mut sched = build(Policy::LlmSched, false, false);
            assert!(!sched.is_work_conserving(), "stock LLMSched opted in");
            let (r, _) = fingerprint(&cluster(kind, mode), &w, &mut *sched, false);
            assert_eq!(
                r.sched_elided,
                0,
                "{} / {mode:?}: engine elided a non-work-conserving policy",
                kind.name()
            );
        }
    }
}
