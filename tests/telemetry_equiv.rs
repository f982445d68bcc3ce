//! Telemetry equivalence: the observability layer is **observation-only**
//! (DESIGN.md §11). A run with a recording probe attached — full event
//! tracing, windowed aggregation, scheduler decision provenance — must
//! produce the bit-identical schedule of the same run under the default
//! [`NoopProbe`]: same engine event count, same makespan, same completion
//! set, the exact f64 bit pattern of the average JCT. For every policy,
//! every workload mix and the analytic and disagg backends.
//!
//! The suite also pins the export schema end-to-end: every JSONL line and
//! the Chrome `trace_event` document a real simulation produces must pass
//! the crate's JSON validator and carry the required fields.

use std::sync::OnceLock;

use llmsched::prelude::*;
use llmsched::telemetry::json::validate;
use llmsched::telemetry::DecisionList;
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
        "LLMSched" => Box::new(LlmSched::new(profiler.clone(), LlmSchedConfig::default())),
        _ => unreachable!("unknown policy {policy}"),
    }
}

fn window_cfg() -> WindowConfig {
    WindowConfig::new(SimDuration::from_secs(5), SimDuration::from_secs(60))
}

fn run_off(kind: WorkloadKind, mode: EngineMode, policy: &str) -> SimResult {
    let w = generate_workload(kind, 10, 0.9, 11);
    let mut cfg = kind.default_cluster();
    cfg.mode = mode;
    let mut sched = build(policy);
    simulate(&cfg, &w.templates, w.jobs, &mut sched)
}

fn run_on(kind: WorkloadKind, mode: EngineMode, policy: &str) -> (SimResult, TraceRecorder) {
    let w = generate_workload(kind, 10, 0.9, 11);
    let mut cfg = kind.default_cluster();
    cfg.mode = mode;
    let mut sched = build(policy);
    let mut rec = TraceRecorder::new(TraceConfig {
        window: Some(window_cfg()),
    });
    let r = simulate_probed(&cfg, &w.templates, w.jobs, &mut sched, &mut rec);
    (r, rec)
}

fn assert_equiv(probed: &SimResult, plain: &SimResult, label: &str) {
    assert_eq!(probed.events, plain.events, "{label}: engine event counts");
    assert_eq!(probed.makespan, plain.makespan, "{label}: makespans");
    assert_eq!(probed.incomplete, plain.incomplete, "{label}: stranded");
    let completions = |r: &SimResult| {
        let mut v: Vec<_> = r.jobs.iter().map(|j| (j.id, j.completion)).collect();
        v.sort();
        v
    };
    assert_eq!(
        completions(probed),
        completions(plain),
        "{label}: completion sets"
    );
    assert_eq!(
        probed.avg_jct_secs().to_bits(),
        plain.avg_jct_secs().to_bits(),
        "{label}: avg JCT bit pattern"
    );
}

/// The full matrix: attaching a recording probe never changes a schedule.
#[test]
fn probed_runs_are_bit_identical_for_every_policy_mix_and_backend() {
    let modes = [EngineMode::Analytic, EngineMode::Disagg];
    for kind in WorkloadKind::ALL {
        for mode in modes {
            for policy in POLICIES {
                let plain = run_off(kind, mode, policy);
                let (probed, rec) = run_on(kind, mode, policy);
                let label = format!("{policy} / {} / {:?}", kind.name(), mode);
                assert_equiv(&probed, &plain, &label);
                assert!(
                    !rec.events().is_empty(),
                    "{label}: enabled probe recorded nothing"
                );
                assert!(
                    probed.timeseries.is_some(),
                    "{label}: probed run lost its time-series"
                );
                assert!(
                    plain.timeseries.is_none(),
                    "{label}: unprobed run grew a time-series"
                );
            }
        }
    }
}

/// `simulate_probed` with a `NoopProbe` is `simulate`: the disabled path
/// truly is zero-observation (no time-series, no scheduler telemetry).
#[test]
fn noop_probe_is_indistinguishable_from_simulate() {
    for kind in [WorkloadKind::Mixed, WorkloadKind::Planning] {
        let w = generate_workload(kind, 10, 0.9, 11);
        let mut sched = build("LLMSched");
        let mut probe = NoopProbe;
        let r = simulate_probed(
            &kind.default_cluster(),
            &w.templates,
            w.jobs,
            &mut sched,
            &mut probe,
        );
        let plain = run_off(kind, EngineMode::Analytic, "LLMSched");
        assert_equiv(&r, &plain, &format!("noop / {}", kind.name()));
    }
}

/// LLMSched's decision provenance: every dispatch of an LLMSched run is
/// explained by a [`DecisionRecord`] with coherent posterior state.
#[test]
fn llmsched_runs_carry_decision_provenance() {
    let (r, rec) = run_on(WorkloadKind::Mixed, EngineMode::Analytic, "LLMSched");
    let decisions: Vec<_> = rec
        .events()
        .iter()
        .filter_map(|e| match e {
            ProbeEvent::Decision(d) => Some(*d),
            _ => None,
        })
        .collect();
    assert!(!decisions.is_empty(), "LLMSched run produced no provenance");
    let known_jobs: std::collections::BTreeSet<_> = r.jobs.iter().map(|j| j.id).collect();
    let mut explore = 0usize;
    for d in &decisions {
        assert!(known_jobs.contains(&d.job), "provenance names unknown job");
        assert!(d.tasks > 0, "a decision must attach at least one task ref");
        assert!(
            d.seq < r.sched_calls + r.sched_skipped,
            "seq beyond the decision-point count"
        );
        assert!(
            d.expected_work.is_finite() && d.expected_work >= 0.0,
            "posterior work estimate must be finite"
        );
        assert!(
            d.interval.0 <= d.interval.1,
            "support interval must be ordered"
        );
        match d.list {
            DecisionList::Explore => {
                explore += 1;
                assert!(
                    d.reduction.is_some(),
                    "explore emissions are Eq. 6 score-driven"
                );
            }
            DecisionList::Exploit | DecisionList::Tail => {
                assert!(d.reduction.is_none(), "non-explore emission with a score");
            }
        }
    }
    assert!(explore > 0, "the exploration list never emitted");
    // Records arrive in engine emission order: seq non-decreasing, rank
    // increasing within an invocation.
    for w in decisions.windows(2) {
        assert!(w[0].seq <= w[1].seq, "provenance seq went backwards");
        if w[0].seq == w[1].seq {
            assert!(w[0].rank < w[1].rank, "provenance rank not increasing");
        }
    }
    // Baselines keep no posterior state and emit none.
    let (_, rec_fcfs) = run_on(WorkloadKind::Mixed, EngineMode::Analytic, "FCFS");
    assert!(
        !rec_fcfs
            .events()
            .iter()
            .any(|e| matches!(e, ProbeEvent::Decision(_))),
        "FCFS should have no provenance"
    );
}

/// End-to-end export schema: a real run's JSONL and Chrome trace validate
/// and carry the fields the observability contract promises.
#[test]
fn exports_from_a_real_run_validate_and_carry_required_fields() {
    let (r, rec) = run_on(WorkloadKind::Mixed, EngineMode::Analytic, "LLMSched");
    let series = r.timeseries.as_ref();
    let jsonl = rec.jsonl(series);
    for (i, line) in jsonl.lines().enumerate() {
        validate(line).unwrap_or_else(|e| panic!("JSONL line {}: {e}: {line}", i + 1));
        assert!(line.starts_with("{\"type\":\""), "untagged line: {line}");
    }
    for needle in [
        "\"type\":\"job_arrived\"",
        "\"type\":\"task_dispatched\"",
        "\"type\":\"task_finished\"",
        "\"type\":\"stage_completed\"",
        "\"type\":\"job_completed\"",
        "\"type\":\"sched_invoked\"",
        "\"type\":\"decision\"",
        "\"type\":\"batch_admit\"",
        "\"type\":\"batch_drain\"",
        "\"type\":\"routed\"",
        "\"type\":\"util_sample\"",
        "\"type\":\"window\"",
        "\"evidence_mask\":",
        "\"profile_version\":",
        "\"expected_work\":",
        "\"jct_p99\":",
        "\"slo_attainment\":",
        "\"goodput\":",
        "\"mean_queue_depth\":",
    ] {
        assert!(jsonl.contains(needle), "JSONL missing {needle}");
    }
    let chrome = rec.chrome_trace(series);
    validate(&chrome).unwrap_or_else(|e| panic!("chrome trace: {e}"));
    for needle in [
        "\"traceEvents\"",
        "\"ph\":\"M\"",
        "\"ph\":\"X\"",
        "\"ph\":\"i\"",
        "\"ph\":\"C\"",
        "\"name\":\"queue_depth\"",
        "\"name\":\"window\"",
        "\"name\":\"schedule#0\"",
    ] {
        assert!(chrome.contains(needle), "chrome trace missing {needle}");
    }
}

/// The windowed series is a complete account of the run: arrivals and
/// completions across rows sum to the job count, rows are contiguous, and
/// the utilization/depth trajectories stay in range.
#[test]
fn timeseries_accounts_for_every_job() {
    let (r, _rec) = run_on(WorkloadKind::Mixed, EngineMode::Analytic, "LLMSched");
    let ts = r.timeseries.as_ref().expect("series");
    assert_eq!(ts.width, window_cfg().width);
    assert_eq!(ts.slo, window_cfg().slo);
    let arrivals: u64 = ts.rows.iter().map(|w| w.arrivals).sum();
    let completions: u64 = ts.rows.iter().map(|w| w.completions).sum();
    assert_eq!(arrivals, r.jobs.len() as u64);
    assert_eq!(completions, r.jobs.len() as u64);
    for (i, row) in ts.rows.iter().enumerate() {
        assert_eq!(row.index, i as u64, "rows must be contiguous");
        assert_eq!(row.start.0, i as u64 * ts.width.0);
        assert!((0.0..=1.0).contains(&row.slo_attainment));
        assert!((0.0..=1.0).contains(&row.regular_util));
        assert!((0.0..=1.0).contains(&row.llm_util));
        assert!(row.mean_queue_depth >= 0.0);
        assert!(row.goodput >= 0.0);
    }
    let last = ts.rows.last().expect("non-empty series");
    assert!(
        last.end.0 >= r.makespan.0,
        "series must cover the full makespan"
    );
}
