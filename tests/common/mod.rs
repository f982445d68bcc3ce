//! Shared fixtures for the root integration tests: one set of training
//! artifacts, the policy roster, the run [`Fingerprint`] every
//! bit-identity contract compares, the equivalence [`matrix`] each
//! contract runs its toggle over, and a reveal-order recorder.

// Each test binary compiles this module and uses a subset of it.
#![allow(dead_code)]

use std::collections::HashMap;
use std::sync::OnceLock;

use llmsched::prelude::*;
use llmsched::telemetry::DecisionRecord;
use llmsched_bench::{Policy, TrainedArtifacts};

/// The training artifacts every equivalence test builds its policies
/// from: 60 historical jobs per application, seed 1.
pub fn artifacts() -> &'static TrainedArtifacts {
    static ART: OnceLock<TrainedArtifacts> = OnceLock::new();
    ART.get_or_init(|| TrainedArtifacts::train(60, 1))
}

/// The equivalence roster: every policy of Fig. 7/8 plus SRTF, and
/// LLMSched once more in work-conserving mode (`true`), the only LLMSched
/// the engine elides.
pub const ROSTER: [(Policy, bool); 9] = [
    (Policy::Fcfs, false),
    (Policy::Sjf, false),
    (Policy::Fair, false),
    (Policy::Argus, false),
    (Policy::Decima, false),
    (Policy::Carbyne, false),
    (Policy::Srtf, false),
    (Policy::LlmSched, false),
    (Policy::LlmSched, true),
];

/// Builds `policy` from the shared artifacts: on the rebuild-per-call
/// reference path if `rebuild`, and with LLMSched work-conserving if
/// `work_conserving` (baselines ignore the flag).
pub fn build(policy: Policy, work_conserving: bool, rebuild: bool) -> Box<dyn Scheduler> {
    let cfg = LlmSchedConfig {
        work_conserving,
        ..LlmSchedConfig::default()
    };
    artifacts().build_mode(policy, Some(cfg), rebuild)
}

/// `kind`'s default cluster on backend `mode`.
pub fn cluster(kind: WorkloadKind, mode: EngineMode) -> ClusterConfig {
    ClusterConfig {
        mode,
        ..kind.default_cluster()
    }
}

/// Every executor backend the matrix sweeps.
pub const MODES: [EngineMode; 3] = [
    EngineMode::Analytic,
    EngineMode::TokenLevel,
    EngineMode::Disagg,
];

/// The matrix workload of mix `kind`: 10 jobs at λ = 0.9, seed 11.
pub fn small(kind: WorkloadKind) -> Workload {
    generate_workload(kind, 10, 0.9, 11)
}

/// One cell of the equivalence [`matrix`]: a roster policy on a mix's
/// matrix workload and default cluster, on one backend.
pub struct Cell<'a> {
    pub label: String,
    pub cfg: &'a ClusterConfig,
    pub w: &'a Workload,
    pub policy: Policy,
    pub work_conserving: bool,
}

impl Cell<'_> {
    /// A fresh copy of the cell's policy, on the rebuild path if
    /// `rebuild`.
    pub fn build(&self, rebuild: bool) -> Box<dyn Scheduler> {
        build(self.policy, self.work_conserving, rebuild)
    }
}

/// The equivalence matrix: every [`ROSTER`] policy on every mix and every
/// backend. Each cell runs the default configuration once, probed, as the
/// reference and checks what holds of every reference: the default
/// decision horizon, ε = 0, is exact and defers nothing (DESIGN.md §14),
/// and a policy that does not opt into `is_work_conserving` is never
/// elided. `toggle` then gets the cell, the reference run and its
/// fingerprint, runs the cell with one exactness-preserving toggle
/// (elision off, probe off, the rebuild path) and compares.
pub fn matrix(mut toggle: impl FnMut(&Cell<'_>, &SimResult, &Fingerprint)) {
    for kind in WorkloadKind::ALL {
        let w = small(kind);
        for mode in MODES {
            let cfg = cluster(kind, mode);
            for (policy, work_conserving) in ROSTER {
                let wc_mark = if work_conserving {
                    " (work-conserving)"
                } else {
                    ""
                };
                let cell = Cell {
                    label: format!("{}{wc_mark} / {} / {mode:?}", policy.name(), kind.name()),
                    cfg: &cfg,
                    w: &w,
                    policy,
                    work_conserving,
                };
                let mut sched = cell.build(false);
                let (r, reference) = fingerprint(&cfg, &w, &mut *sched, true);
                let label = &cell.label;
                assert_eq!(r.sched_deferred, 0, "{label}: exact mode deferred");
                if !sched.is_work_conserving() {
                    assert_eq!(
                        r.sched_elided, 0,
                        "{label}: elided a policy that did not opt in"
                    );
                }
                toggle(&cell, &r, &reference);
            }
        }
    }
}

/// The window every probed run aggregates: 5 s rows, 60 s SLO.
pub fn window() -> WindowConfig {
    WindowConfig::new(SimDuration::from_secs(5), SimDuration::from_secs(60))
}

/// Runs `sched` on `w` under `cfg` with a full trace recorder and the
/// standard [`window`] attached.
pub fn run_probed(
    cfg: &ClusterConfig,
    w: &Workload,
    sched: &mut dyn Scheduler,
) -> (SimResult, TraceRecorder) {
    let mut rec = TraceRecorder::new(TraceConfig {
        window: Some(window()),
    });
    let r = simulate_probed(cfg, &w.templates, w.jobs.clone(), sched, &mut rec);
    (r, rec)
}

/// What a run's schedule is, independent of any probe.
#[derive(Debug, PartialEq)]
pub struct Schedule {
    pub events: u64,
    pub makespan: SimTime,
    pub incomplete: usize,
    /// `(job, completion)` sorted by job.
    pub completions: Vec<(JobId, SimTime)>,
    pub avg_jct_bits: u64,
    /// `calls + skipped + elided + deferred`: every decision point is
    /// exactly one of the four.
    pub decision_points: u64,
}

/// Everything a bit-identity contract compares about one run.
#[derive(Debug)]
pub struct Fingerprint {
    pub schedule: Schedule,
    /// Decision provenance in emission order (empty when unprobed).
    pub decisions: Vec<DecisionRecord>,
    /// Deferred decision points folded into invocations, summed over the
    /// `SchedInvoked` records (0 when unprobed).
    pub folded: u64,
    /// The windowed series (`None` when unprobed).
    pub timeseries: Option<TimeSeries>,
}

impl Fingerprint {
    /// Fingerprints `r` with the probe events `trace` recorded alongside.
    pub fn of(r: &SimResult, trace: &[ProbeEvent]) -> Self {
        let mut completions: Vec<_> = r.jobs.iter().map(|j| (j.id, j.completion)).collect();
        completions.sort();
        let mut decisions = Vec::new();
        let mut folded = 0;
        for e in trace {
            match e {
                ProbeEvent::Decision(d) => decisions.push(*d),
                ProbeEvent::SchedInvoked { folded: f, .. } => folded += u64::from(*f),
                _ => {}
            }
        }
        Fingerprint {
            schedule: Schedule {
                events: r.events,
                makespan: r.makespan,
                incomplete: r.incomplete,
                completions,
                avg_jct_bits: r.avg_jct_secs().to_bits(),
                decision_points: r.sched_calls
                    + r.sched_skipped
                    + r.sched_elided
                    + r.sched_deferred,
            },
            decisions,
            folded,
            timeseries: r.timeseries.clone(),
        }
    }
}

/// Asserts `got` matches `want` part by part, naming the part that
/// differs.
pub fn assert_same(got: &Fingerprint, want: &Fingerprint, label: &str) {
    assert_eq!(got.schedule, want.schedule, "{label}: schedule");
    let n = got.decisions.len().max(want.decisions.len());
    if let Some(i) = (0..n).find(|&i| got.decisions.get(i) != want.decisions.get(i)) {
        panic!(
            "{label}: decision provenance differs at record {i}: {:?} vs {:?}",
            got.decisions.get(i),
            want.decisions.get(i)
        );
    }
    assert_eq!(got.folded, want.folded, "{label}: folded decision points");
    assert_eq!(got.timeseries, want.timeseries, "{label}: time-series");
}

/// Runs `sched` on `w` under `cfg`, probed by [`run_probed`] or not, and
/// fingerprints the run.
pub fn fingerprint(
    cfg: &ClusterConfig,
    w: &Workload,
    sched: &mut dyn Scheduler,
    probed: bool,
) -> (SimResult, Fingerprint) {
    if probed {
        let (r, rec) = run_probed(cfg, w, sched);
        assert!(
            !rec.events().is_empty(),
            "an enabled probe recorded nothing"
        );
        let fp = Fingerprint::of(&r, rec.events());
        (r, fp)
    } else {
        let r = simulate(cfg, &w.templates, w.jobs.clone(), sched);
        let fp = Fingerprint::of(&r, &[]);
        (r, fp)
    }
}

/// Wraps a scheduler and records, per job, every stage id in the order it
/// first became visible to the policy. It keeps the default
/// `is_work_conserving` (false), so the engine never elides it and every
/// decision point with ready work is observed.
pub struct RevealRecorder<S> {
    inner: S,
    pub seen: HashMap<JobId, Vec<StageId>>,
}

impl<S: Scheduler> RevealRecorder<S> {
    pub fn new(inner: S) -> Self {
        RevealRecorder {
            inner,
            seen: HashMap::new(),
        }
    }
}

impl<S: Scheduler> Scheduler for RevealRecorder<S> {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn schedule(&mut self, ctx: &SchedContext<'_>) -> Preference {
        for job in &ctx.jobs {
            let rec = self.seen.entry(job.id()).or_default();
            for &s in job.visible_stage_ids() {
                if !rec.contains(&s) {
                    rec.push(s);
                }
            }
        }
        self.inner.schedule(ctx)
    }

    // Wrappers must keep the inner policy on the delta stream.
    fn on_delta(&mut self, d: &SchedDelta) {
        self.inner.on_delta(d);
    }

    fn reset(&mut self) {
        self.inner.reset();
    }
}
