//! Elision equivalence: capacity-aware decision-point elision (DESIGN.md
//! §13) skips scheduler invocations at which no work-conserving policy
//! could dispatch — ready tasks exist, but no executor of any ready class
//! has a free slot. The skip must be **invisible**: an eliding run and a
//! non-eliding run of the same workload must produce the bit-identical
//! schedule — same engine event count, same makespan, same completion
//! set, the exact f64 bit pattern of the average JCT — *and* identical
//! telemetry: the same [`DecisionRecord`] stream and the same windowed
//! time-series, for every policy, every workload mix, the
//! analytic/cluster/disagg backends, and the partitioned engine (where an
//! elided decision point is an elided *barrier*).
//!
//! The accounting invariant ties the two modes together: every decision
//! point keeps its sequence number whether it ran, was coalesced, or was
//! elided, so `sched_calls + sched_skipped + sched_elided` is the same
//! total either way, and provenance `seq` values match exactly.

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
        // Work-conserving mode: LLMSched early-returns before any RNG
        // draw whenever nothing could dispatch, making it elision-safe
        // (the stock config keeps drawing there and must not be elided —
        // `is_work_conserving` stays false and the engine leaves it
        // alone; covered by `stock_llmsched_is_never_elided`).
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

fn run(
    kind: WorkloadKind,
    mode: EngineMode,
    policy: &str,
    par: Parallelism,
    elision: bool,
) -> (SimResult, Vec<DecisionRecord>) {
    let w = generate_workload(kind, 10, 0.9, 11);
    let mut cfg = kind.default_cluster();
    cfg.mode = mode;
    cfg.parallelism = par;
    cfg.elision = elision;
    let mut sched = build(policy);
    let mut rec = TraceRecorder::new(TraceConfig {
        window: Some(WindowConfig::new(
            SimDuration::from_secs(5),
            SimDuration::from_secs(60),
        )),
    });
    let r = simulate_probed(&cfg, &w.templates, w.jobs, &mut sched, &mut rec);
    let decisions = rec
        .events()
        .iter()
        .filter_map(|e| match e {
            ProbeEvent::Decision(d) => Some(*d),
            _ => None,
        })
        .collect();
    (r, decisions)
}

fn assert_equiv(on: &SimResult, off: &SimResult, label: &str) {
    assert_eq!(on.events, off.events, "{label}: engine event counts");
    assert_eq!(on.makespan, off.makespan, "{label}: makespans");
    assert_eq!(on.incomplete, off.incomplete, "{label}: stranded jobs");
    let completions = |r: &SimResult| {
        let mut v: Vec<_> = r.jobs.iter().map(|j| (j.id, j.completion)).collect();
        v.sort();
        v
    };
    assert_eq!(completions(on), completions(off), "{label}: completions");
    assert_eq!(
        on.avg_jct_secs().to_bits(),
        off.avg_jct_secs().to_bits(),
        "{label}: avg JCT bit pattern"
    );
    // The accounting invariant: eliding never loses a decision point.
    assert_eq!(off.sched_elided, 0, "{label}: non-eliding run elided");
    assert_eq!(
        on.sched_calls + on.sched_skipped + on.sched_elided,
        off.sched_calls + off.sched_skipped,
        "{label}: decision-point count"
    );
    assert_eq!(on.timeseries, off.timeseries, "{label}: time-series");
}

/// The full sequential matrix: every policy × mix × backend, elision on
/// vs off (coalescing at its default on both sides), plus identical
/// decision provenance.
#[test]
fn elided_runs_are_bit_identical_for_every_policy_mix_and_backend() {
    let modes = [
        EngineMode::Analytic,
        EngineMode::Cluster,
        EngineMode::Disagg,
    ];
    let mut total_elided = 0u64;
    for kind in WorkloadKind::ALL {
        for mode in modes {
            for policy in POLICIES {
                let (on, dec_on) = run(kind, mode, policy, Parallelism::Off, true);
                let (off, dec_off) = run(kind, mode, policy, Parallelism::Off, false);
                let label = format!("{policy} / {} / {:?}", kind.name(), mode);
                assert_equiv(&on, &off, &label);
                // Elided opportunities had nothing dispatchable, so the
                // DecisionRecord streams match record-for-record: same
                // seq, same at, same posterior state.
                assert_eq!(dec_on, dec_off, "{label}: decision provenance");
                total_elided += on.sched_elided;
            }
        }
    }
    assert!(
        total_elided > 0,
        "elision never engaged across the whole matrix"
    );
}

/// Elision composes with conservative-window partitioned stepping: on
/// and off land on the oracle's bits, and an elided decision point is an
/// elided barrier — the eliding run takes no more barriers than the
/// non-eliding one.
#[test]
fn elision_composes_with_the_partitioned_engine() {
    let mut barriers_saved = 0u64;
    for kind in [WorkloadKind::Mixed, WorkloadKind::Planning] {
        for mode in [EngineMode::Analytic, EngineMode::Disagg] {
            for policy in ["FCFS", "SRTF", "LLMSched"] {
                let (oracle, dec_oracle) = run(kind, mode, policy, Parallelism::Off, false);
                for parts in [2usize, 4] {
                    let par = Parallelism::Partitioned(parts);
                    let (on, dec_on) = run(kind, mode, policy, par, true);
                    let (off, dec_off) = run(kind, mode, policy, par, false);
                    let label = format!("{policy} / {} / {:?} / p{parts}", kind.name(), mode);
                    assert_equiv(&on, &off, &label);
                    assert_equiv(&on, &oracle, &format!("{label} vs oracle"));
                    assert_eq!(dec_on, dec_oracle, "{label}: provenance vs oracle");
                    assert_eq!(dec_off, dec_oracle, "{label}: provenance (off)");
                    // Small default clusters can clamp the shard count to
                    // 1 (sequential path, no ParStats); those combos
                    // still pin result equivalence above.
                    let (b_on, b_off) = (
                        on.par.as_ref().map_or(0, |s| s.barriers),
                        off.par.as_ref().map_or(0, |s| s.barriers),
                    );
                    assert!(
                        b_on <= b_off,
                        "{label}: elision added barriers ({b_on} > {b_off})"
                    );
                    barriers_saved += b_off - b_on;
                }
            }
        }
    }
    assert!(
        barriers_saved > 0,
        "elision never saved a barrier on the partitioned engine"
    );
}

/// A policy that does not declare itself work-conserving is never elided
/// — stock LLMSched advances its ε-draw stream even at capacity-starved
/// decision points, so eliding it would change the schedule; the engine
/// must leave it alone even with elision enabled.
#[test]
fn stock_llmsched_is_never_elided() {
    let (profiler, _) = artifacts();
    for kind in [WorkloadKind::Mixed, WorkloadKind::ChainLike] {
        let w = generate_workload(kind, 10, 0.9, 11);
        let mut cfg = kind.default_cluster();
        cfg.elision = true;
        let mut sched = LlmSched::new(profiler.clone(), LlmSchedConfig::default());
        let r = simulate(&cfg, &w.templates, w.jobs, &mut sched);
        assert_eq!(
            r.sched_elided,
            0,
            "{}: engine elided a non-work-conserving policy",
            kind.name()
        );
    }
}
