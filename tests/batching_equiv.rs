//! Batching equivalence: bounded-staleness decision batching (DESIGN.md
//! §14) defers decision points that fall within ε simulated seconds of
//! the previous scheduler invocation and folds them into one batched
//! invocation at the horizon edge. The contract has two legs:
//!
//! 1. **ε = 0 is exact.** `decision_horizon: Some(0.0)` (and `None`, the
//!    default) must produce the bit-identical schedule to a
//!    pre-batching engine — same event count, same makespan, same
//!    completion set, the exact f64 bit pattern of the average JCT,
//!    the same [`DecisionRecord`] provenance stream and windowed
//!    time-series — for every policy, every workload mix and the
//!    analytic and disagg backends. No decision point may be
//!    deferred at ε = 0.
//!
//! 2. **ε > 0 is a deterministic relaxation.** The relaxed schedule is
//!    still a function of (workload, cluster, ε) alone: repeated runs of
//!    the same relaxed configuration land on the same bits, deferral
//!    saves policy invocations across the matrix, and the avg-JCT drift
//!    against the exact schedule stays bounded (the tight 0.5% production gate lives in
//!    `scale_throughput --check`; this suite pins a loose sanity bound
//!    so a broken fold shows up as a test failure, not a bench report).
//!
//! The accounting invariant ties the modes together: every decision
//! point keeps its sequence number whether it ran, was coalesced,
//! elided, or deferred, so the four-way total
//! `sched_calls + sched_skipped + sched_elided + sched_deferred` is
//! conserved, and the `folded` counts on [`ProbeEvent::SchedInvoked`]
//! records sum to exactly the deferred total.

use std::sync::OnceLock;

use llmsched::prelude::*;
use llmsched::telemetry::DecisionRecord;
use llmsched_sim::engine::simulate_probed;

fn artifacts() -> &'static (Profiler, AppPriors) {
    static ART: OnceLock<(Profiler, AppPriors)> = OnceLock::new();
    ART.get_or_init(|| {
        let templates = all_templates();
        let corpus = training_jobs(&AppKind::ALL, 60, 1);
        let cfg = ProfilerConfig::default();
        let profiler = Profiler::train(&templates, &corpus, &cfg);
        let priors = AppPriors::from_training(&corpus, cfg.per_token_b1);
        (profiler, priors)
    })
}

const POLICIES: [&str; 8] = [
    "FCFS", "SJF", "Fair", "Argus", "Decima", "Carbyne", "SRTF", "LLMSched",
];

fn build(policy: &str) -> Box<dyn Scheduler> {
    let (profiler, priors) = artifacts();
    match policy {
        "FCFS" => Box::new(Fcfs::new()),
        "SJF" => Box::new(Sjf::new(priors.clone())),
        "Fair" => Box::new(Fair::new()),
        "Argus" => Box::new(Argus::new()),
        "Decima" => Box::new(DecimaLike::new(priors.clone())),
        "Carbyne" => Box::new(CarbyneLike::new(priors.clone())),
        "SRTF" => Box::new(Srtf::new(priors.clone())),
        "LLMSched" => Box::new(LlmSched::new(
            profiler.clone(),
            LlmSchedConfig {
                work_conserving: true,
                ..LlmSchedConfig::default()
            },
        )),
        _ => unreachable!("unknown policy {policy}"),
    }
}

/// One probed run at the given horizon. `dense` switches to a workload
/// with back-to-back decision points so that ε > 0 actually defers;
/// ε = 0 equivalence is indifferent to density, and the exact matrix is
/// big enough that it wants the small workload.
fn run(
    kind: WorkloadKind,
    mode: EngineMode,
    policy: &str,
    horizon: Option<f64>,
    dense: bool,
) -> (SimResult, Vec<DecisionRecord>, u64) {
    let (n, lambda) = if dense { (40, 6.0) } else { (10, 0.9) };
    let w = generate_workload_with(kind, n, &ArrivalProcess::Poisson { lambda }, 11);
    let mut cfg = kind.default_cluster();
    cfg.mode = mode;
    cfg.decision_horizon = horizon;
    let mut sched = build(policy);
    let mut rec = TraceRecorder::new(TraceConfig {
        window: Some(WindowConfig::new(
            SimDuration::from_secs(5),
            SimDuration::from_secs(60),
        )),
    });
    let r = simulate_probed(&cfg, &w.templates, w.jobs, &mut sched, &mut rec);
    let mut folded_total = 0u64;
    let decisions = rec
        .events()
        .iter()
        .filter_map(|e| match e {
            ProbeEvent::Decision(d) => Some(*d),
            ProbeEvent::SchedInvoked { folded, .. } => {
                folded_total += u64::from(*folded);
                None
            }
            _ => None,
        })
        .collect();
    (r, decisions, folded_total)
}

fn assert_equiv(a: &SimResult, b: &SimResult, label: &str) {
    assert_eq!(a.events, b.events, "{label}: engine event counts");
    assert_eq!(a.makespan, b.makespan, "{label}: makespans");
    assert_eq!(a.incomplete, b.incomplete, "{label}: stranded jobs");
    let completions = |r: &SimResult| {
        let mut v: Vec<_> = r.jobs.iter().map(|j| (j.id, j.completion)).collect();
        v.sort();
        v
    };
    assert_eq!(completions(a), completions(b), "{label}: completions");
    assert_eq!(
        a.avg_jct_secs().to_bits(),
        b.avg_jct_secs().to_bits(),
        "{label}: avg JCT bit pattern"
    );
    assert_eq!(a.timeseries, b.timeseries, "{label}: time-series");
}

/// Leg 1, the full matrix: every policy × mix × backend. `Some(0.0)`
/// vs the `None` default must be bit-identical end to end — results,
/// decision provenance, time-series — and neither side may defer a
/// single decision point.
#[test]
fn horizon_zero_is_bit_identical_for_every_policy_mix_backend_and_engine() {
    let modes = [EngineMode::Analytic, EngineMode::Disagg];
    for kind in WorkloadKind::ALL {
        for mode in modes {
            for policy in POLICIES {
                let (zero, dec_zero, _) = run(kind, mode, policy, Some(0.0), false);
                let (off, dec_off, _) = run(kind, mode, policy, None, false);
                let label = format!("{policy} / {} / {mode:?}", kind.name());
                assert_equiv(&zero, &off, &label);
                assert_eq!(dec_zero, dec_off, "{label}: decision provenance");
                assert_eq!(zero.sched_deferred, 0, "{label}: ε=0 deferred");
                assert_eq!(off.sched_deferred, 0, "{label}: default deferred");
                assert_eq!(
                    zero.sched_calls + zero.sched_skipped + zero.sched_elided,
                    off.sched_calls + off.sched_skipped + off.sched_elided,
                    "{label}: decision-point count"
                );
            }
        }
    }
}

/// Leg 2a: the relaxation is deterministic — two relaxed runs of the
/// same configuration land on the same bits, with identical provenance
/// and deferral counts. Deferred decision points save policy
/// invocations *in aggregate*: each batched invocation replaces every
/// decision point folded into it, so a window that folds k points
/// trades k invocations for 1. Windows that fold a single point are
/// net-zero, and because ε > 0 genuinely moves the schedule, downstream
/// decision patterns shift — individual combos can come out a few
/// invocations worse. The suite therefore asserts the *net* saving
/// across the matrix is positive, not per-combo monotonicity.
#[test]
fn relaxed_runs_are_deterministic_and_save_invocations() {
    const EPS: f64 = 0.2;
    let mut total_deferred = 0u64;
    let mut invocations_saved = 0i64;
    for kind in [WorkloadKind::Mixed, WorkloadKind::Planning] {
        for mode in [EngineMode::Analytic, EngineMode::Disagg] {
            for policy in ["FCFS", "SRTF", "LLMSched"] {
                let label = format!("{policy} / {} / {mode:?}", kind.name());
                let (relaxed, dec_relaxed, _) = run(kind, mode, policy, Some(EPS), true);
                let (again, dec_again, _) = run(kind, mode, policy, Some(EPS), true);
                assert_equiv(&relaxed, &again, &label);
                assert_eq!(dec_relaxed, dec_again, "{label}: relaxed provenance");
                assert_eq!(
                    relaxed.sched_deferred, again.sched_deferred,
                    "{label}: deferral counts"
                );
                assert_eq!(relaxed.incomplete, 0, "{label}: relaxed run stranded jobs");
                total_deferred += relaxed.sched_deferred;
                let (exact, _, _) = run(kind, mode, policy, None, true);
                invocations_saved += exact.sched_calls as i64 - relaxed.sched_calls as i64;
                // Loose drift sanity (the 0.5% gate is scale_throughput's):
                // a broken fold that strands or starves jobs blows far
                // past 10% immediately.
                let drift =
                    (relaxed.avg_jct_secs() - exact.avg_jct_secs()).abs() / exact.avg_jct_secs();
                assert!(
                    drift < 0.10,
                    "{label}: relaxed avg JCT drifted {:.1}% from exact",
                    drift * 100.0
                );
            }
        }
    }
    assert!(
        total_deferred > 0,
        "batching never deferred a decision point across the matrix"
    );
    assert!(
        invocations_saved > 0,
        "batching never saved a policy invocation across the matrix"
    );
}

/// The four-way accounting invariant and its provenance mirror: every
/// decision point is exactly one of {invoked, coalesced, elided,
/// deferred}, and the `folded` counts carried by `SchedInvoked` probe
/// records sum to the deferred total — each deferred point is folded
/// into exactly one batched invocation.
#[test]
fn folded_provenance_accounts_for_every_deferred_decision_point() {
    for (policy, mode) in [
        ("LLMSched", EngineMode::Analytic),
        ("SRTF", EngineMode::Disagg),
        ("FCFS", EngineMode::Analytic),
    ] {
        let (r, _, folded) = run(WorkloadKind::Mixed, mode, policy, Some(0.2), true);
        assert!(
            r.sched_deferred > 0,
            "{policy}/{mode:?}: nothing deferred at ε=0.2s"
        );
        assert_eq!(
            folded, r.sched_deferred,
            "{policy}/{mode:?}: folded provenance vs deferred count"
        );
    }
}
