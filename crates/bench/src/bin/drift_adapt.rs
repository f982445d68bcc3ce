//! **Drift adaptation** — frozen vs online profiling under
//! non-stationary traffic: the evaluation for the versioned
//! [`ProfileStore`] path (observation-driven snapshots, cold-start
//! bootstrapping, re-learning at doubling milestones and on drift).
//!
//! Two scenarios, each run with the same workload under two schedulers
//! that differ **only** in profile-update cadence:
//!
//! * **drift** — a Chain-like mix in which code-generation jobs speed up
//!   to 0.3x their trained durations mid-run ([`DriftSpec`]). The frozen
//!   profiler keeps predicting the old regime, so SRTF delays jobs that
//!   are now short; the online store re-discretizes and re-learns the
//!   window, restoring the cross-app ordering. Most of those re-fits
//!   come at the store's observation-count doublings: the likelihood
//!   drift trigger rarely fires on a duration scale shift.
//! * **cold_start** — a Mixed mix in which code generation is held out of
//!   the training corpus entirely. The frozen profiler never learns it
//!   (zero-work estimates forever); the online store bootstraps a profile
//!   from a Laplace prior after a handful of completions and converges.
//!
//! Metrics: average JCT per mode, plus *calibration error over time* —
//! the bias between prior-predicted total work at arrival and realized
//! nominal work (`|Σpred/Σtruth − 1|`), bucketed into completion-order
//! thirds.
//!
//! Usage:
//!   cargo run --release -p llmsched-bench --bin drift_adapt
//!     [--quick]        # one seed, smaller workloads (CI)
//!     [--check]        # exit non-zero unless online beats frozen on the
//!                      # drift mix and cold-start calibration error falls
//!     [--out <path>]   # default results/drift_adapt.json
//!     [--trace <prefix>]  # export a probed online drift run as
//!                         # <prefix>.jsonl + <prefix>.trace.json (with
//!                         # decision provenance: evidence masks, profile
//!                         # versions, posterior work estimates)
//!     [--timeseries]      # print that run's windowed time-series

use std::collections::HashMap;
use std::fmt::Write as _;

use llmsched_bayes::network::Evidence;
use llmsched_bench::cli::{Cli, Flag};
use llmsched_core::prelude::*;
use llmsched_dag::ids::{AppId, JobId};
use llmsched_dag::time::SimDuration;
use llmsched_sim::engine::{simulate, simulate_probed};
use llmsched_sim::scheduler::{Preference, SchedContext, SchedDelta, Scheduler};
use llmsched_sim::telemetry::{TraceConfig, TraceRecorder, WindowConfig};
use llmsched_workloads::prelude::*;

/// One completed job's calibration sample, in completion order.
struct Sample {
    app: AppId,
    /// Prior predicted total work at arrival (batch-1 seconds).
    pred: f64,
    /// Realized nominal work (batch-1 seconds).
    truth: f64,
}

/// Wraps LLMSched to record, per job, the prior work prediction at
/// arrival (from the scheduler's own profile store) and the realized
/// nominal work (accumulated from `StageObserved` deltas).
struct CalibProbe {
    inner: LlmSched,
    truth: HashMap<JobId, f64>,
    pred: HashMap<JobId, f64>,
    arrivals: Vec<JobId>,
    samples: Vec<Sample>,
    apps: HashMap<JobId, AppId>,
}

impl CalibProbe {
    fn new(inner: LlmSched) -> Self {
        CalibProbe {
            inner,
            truth: HashMap::new(),
            pred: HashMap::new(),
            arrivals: Vec::new(),
            samples: Vec::new(),
            apps: HashMap::new(),
        }
    }
}

impl Scheduler for CalibProbe {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn on_delta(&mut self, d: &SchedDelta) {
        match *d {
            SchedDelta::StageObserved {
                job, app, nominal, ..
            } => {
                *self.truth.entry(job).or_insert(0.0) += nominal.as_secs_f64();
                self.apps.insert(job, app);
            }
            SchedDelta::JobArrived { job, .. } => self.arrivals.push(job),
            SchedDelta::JobCompleted { job } => {
                let truth = self.truth.remove(&job).unwrap_or(0.0);
                if let (Some(pred), Some(app)) = (self.pred.remove(&job), self.apps.remove(&job)) {
                    if truth > 0.0 {
                        self.samples.push(Sample { app, pred, truth });
                    }
                }
            }
            _ => {}
        }
        // Wrappers must forward the delta stream (DESIGN.md §7.4).
        self.inner.on_delta(d);
    }

    fn schedule(&mut self, ctx: &SchedContext<'_>) -> Preference {
        // Record prior predictions for this batch's arrivals against the
        // store state *before* it absorbs the batch's observations.
        for id in std::mem::take(&mut self.arrivals) {
            let Some(job) = ctx.job(id) else { continue };
            let pred = match self.inner.profile_store().profile(job.app()) {
                Some(p) => remaining_work_with(p, job, &Evidence::new(), true, INTERVAL_TAIL_MASS)
                    .expected(1.0),
                None => 0.0,
            };
            self.pred.insert(id, pred);
        }
        self.inner.schedule(ctx)
    }

    fn reset(&mut self) {
        self.truth.clear();
        self.pred.clear();
        self.arrivals.clear();
        self.samples.clear();
        self.apps.clear();
        self.inner.reset();
    }

    // Wrappers must forward the telemetry hooks (DESIGN.md §11): without
    // these the probed `--trace` run would lose LLMSched's provenance.
    fn set_telemetry(&mut self, enabled: bool) {
        self.inner.set_telemetry(enabled);
    }

    fn drain_provenance(&mut self, out: &mut Vec<llmsched_sim::telemetry::DecisionRecord>) {
        self.inner.drain_provenance(out);
    }

    // Forwarded so capacity-aware elision sees the wrapped policy's real
    // contract; the probe itself only records, never decides.
    fn is_work_conserving(&self) -> bool {
        self.inner.is_work_conserving()
    }
}

/// Calibration *bias* of completion-order thirds:
/// `|Σ predicted / Σ realized − 1|` per bucket. Bias isolates how well
/// the profile tracks the live distribution — per-job relative errors
/// would conflate it with the apps' intrinsic duration variance, which no
/// profile can remove.
fn thirds(samples: &[&Sample]) -> [f64; 3] {
    let n = samples.len();
    let mut out = [0.0; 3];
    if n == 0 {
        return out;
    }
    for (b, chunk) in [
        &samples[..n / 3],
        &samples[n / 3..2 * n / 3],
        &samples[2 * n / 3..],
    ]
    .iter()
    .enumerate()
    {
        let pred: f64 = chunk.iter().map(|s| s.pred).sum();
        let truth: f64 = chunk.iter().map(|s| s.truth).sum();
        out[b] = if truth > 0.0 {
            (pred / truth - 1.0).abs()
        } else {
            0.0
        };
    }
    out
}

struct RunOut {
    avg_jct: f64,
    calib_thirds: [f64; 3],
    holdout_thirds: [f64; 3],
    final_version: u64,
}

fn store_for(
    templates: &llmsched_dag::template::TemplateSet,
    corpus: &[llmsched_dag::job::JobSpec],
    online: bool,
) -> ProfileStore {
    ProfileStore::train(
        templates,
        corpus,
        ProfileStoreConfig {
            update: if online {
                ProfileUpdate::PerCompletion
            } else {
                ProfileUpdate::Frozen
            },
            window_cap: 128,
        },
    )
}

fn run_one(
    w: Workload,
    corpus: &[llmsched_dag::job::JobSpec],
    online: bool,
    probe_app: AppId,
) -> RunOut {
    let store = store_for(&w.templates, corpus, online);
    let sched = LlmSched::with_store(store, LlmSchedConfig::default());
    let mut probe = CalibProbe::new(sched);
    let cfg = w.kind.default_cluster();
    let r = simulate(&cfg, &w.templates, w.jobs, &mut probe);
    assert_eq!(r.incomplete, 0, "run stranded jobs");
    let all: Vec<&Sample> = probe.samples.iter().collect();
    let hold: Vec<&Sample> = probe
        .samples
        .iter()
        .filter(|s| s.app == probe_app)
        .collect();
    RunOut {
        avg_jct: r.avg_jct_secs(),
        calib_thirds: thirds(&all),
        holdout_thirds: thirds(&hold),
        final_version: probe.inner.profile_store().version(probe_app).0,
    }
}

fn drift_workload(n: usize, seed: u64) -> Workload {
    // One app shifts to 0.3x a third of the way in: differential drift is
    // what flips cross-app SRTF ordering (uniform drift is scale
    // invariant), and a speed-up makes the frozen profiler *overestimate*
    // — it keeps scheduling now-short jobs late.
    let at = n as f64 / 0.9 / 3.0;
    let drift = DriftSpec::new(at, 0.3, vec![AppKind::CodeGeneration]);
    generate_drift_workload(WorkloadKind::ChainLike, n, 0.9, seed, &drift)
}

fn main() {
    let args = Cli::new(
        "drift_adapt",
        &[
            Flag::switch("--quick"),
            Flag::switch("--check"),
            Flag::value("--out", "path"),
            Flag::optional("--trace", "prefix"),
            Flag::switch("--timeseries"),
        ],
    )
    .parse();
    let quick = args.has("--quick");
    let check = args.has("--check");
    let out = args
        .value("--out")
        .unwrap_or("results/drift_adapt.json")
        .to_string();
    let trace: Option<String> = args
        .value_or("--trace", "results/drift_trace")
        .map(str::to_string);
    let timeseries = args.has("--timeseries");

    let seeds: &[u64] = if quick { &[11] } else { &[11, 29, 47] };
    let n_drift = if quick { 160 } else { 400 };
    let n_cold = if quick { 140 } else { 300 };
    let drifted_app = AppKind::CodeGeneration.app_id();

    let mut json = String::from("{\n  \"bench\": \"drift_adapt\",\n  \"scenarios\": {\n");

    // ---- Scenario 1: mid-run drift ------------------------------------
    println!("== drift: Chain-like, code_generation shifts to 0.3x at t = T/3 ==");
    println!(
        "{:>6} {:>10} {:>14} {:>14} {:>26}",
        "seed", "mode", "avg JCT (s)", "snapshots", "calib err (thirds)"
    );
    let corpus = training_jobs(
        &WorkloadKind::ChainLike.apps(),
        if quick { 60 } else { 100 },
        1,
    );
    let (mut frozen_sum, mut online_sum) = (0.0, 0.0);
    let mut drift_rows = String::new();
    let drift_points: Vec<(u64, bool)> = seeds
        .iter()
        .flat_map(|&s| [(s, false), (s, true)])
        .collect();
    let drift_results = llmsched_bench::sweep::map(&drift_points, |&(seed, online)| {
        run_one(drift_workload(n_drift, seed), &corpus, online, drifted_app)
    });
    for (&(seed, online), r) in drift_points.iter().zip(&drift_results) {
        {
            let mode = if online { "online" } else { "frozen" };
            println!(
                "{:>6} {:>10} {:>14.2} {:>14} {:>26}",
                seed,
                mode,
                r.avg_jct,
                r.final_version,
                format!(
                    "{:.3}/{:.3}/{:.3}",
                    r.calib_thirds[0], r.calib_thirds[1], r.calib_thirds[2]
                ),
            );
            if online {
                online_sum += r.avg_jct;
            } else {
                frozen_sum += r.avg_jct;
            }
            let _ = writeln!(
                drift_rows,
                "      {{\"seed\": {seed}, \"mode\": \"{mode}\", \"avg_jct_secs\": {:.4}, \
                 \"calib_thirds\": [{:.4}, {:.4}, {:.4}]}},",
                r.avg_jct, r.calib_thirds[0], r.calib_thirds[1], r.calib_thirds[2]
            );
        }
    }
    let (frozen_jct, online_jct) = (
        frozen_sum / seeds.len() as f64,
        online_sum / seeds.len() as f64,
    );
    let gain = (frozen_jct - online_jct) / frozen_jct * 100.0;
    println!(
        "mean avg JCT: frozen {frozen_jct:.2}s, online {online_jct:.2}s ({gain:+.1}% improvement)\n"
    );
    let _ = writeln!(
        json,
        "    \"drift\": {{\n      \"frozen_mean_jct\": {frozen_jct:.4},\n      \
         \"online_mean_jct\": {online_jct:.4},\n      \"runs\": [\n{}      ]}},",
        drift_rows.trim_end_matches(",\n").to_string() + "\n"
    );

    // ---- Scenario 2: cold start ---------------------------------------
    println!("== cold start: Mixed, code_generation has zero training history ==");
    println!(
        "{:>6} {:>10} {:>14} {:>14} {:>26}",
        "seed", "mode", "avg JCT (s)", "snapshots", "holdout err (thirds)"
    );
    let cold_kinds = cold_start_training_kinds(WorkloadKind::Mixed, &[AppKind::CodeGeneration]);
    let cold_corpus = training_jobs(&cold_kinds, if quick { 60 } else { 100 }, 1);
    let mut cold_first = 0.0;
    let mut cold_last = 0.0;
    let mut cold_rows = String::new();
    let cold_points: Vec<(u64, bool)> = seeds
        .iter()
        .flat_map(|&s| [(s, false), (s, true)])
        .collect();
    let cold_results = llmsched_bench::sweep::map(&cold_points, |&(seed, online)| {
        let w = generate_workload(WorkloadKind::Mixed, n_cold, 0.9, seed);
        run_one(w, &cold_corpus, online, drifted_app)
    });
    for (&(seed, online), r) in cold_points.iter().zip(&cold_results) {
        {
            let mode = if online { "online" } else { "frozen" };
            println!(
                "{:>6} {:>10} {:>14.2} {:>14} {:>26}",
                seed,
                mode,
                r.avg_jct,
                r.final_version,
                format!(
                    "{:.3}/{:.3}/{:.3}",
                    r.holdout_thirds[0], r.holdout_thirds[1], r.holdout_thirds[2]
                ),
            );
            if online {
                cold_first += r.holdout_thirds[0];
                cold_last += r.holdout_thirds[2];
                assert!(
                    r.final_version > 0,
                    "cold-start app must bootstrap a profile online"
                );
            } else {
                assert_eq!(r.final_version, 0, "frozen must never learn the holdout");
            }
            let _ = writeln!(
                cold_rows,
                "      {{\"seed\": {seed}, \"mode\": \"{mode}\", \"avg_jct_secs\": {:.4}, \
                 \"holdout_calib_thirds\": [{:.4}, {:.4}, {:.4}]}},",
                r.avg_jct, r.holdout_thirds[0], r.holdout_thirds[1], r.holdout_thirds[2]
            );
        }
    }
    let (cold_first, cold_last) = (
        cold_first / seeds.len() as f64,
        cold_last / seeds.len() as f64,
    );
    println!(
        "cold-start holdout calibration error: first third {cold_first:.3} -> last third {cold_last:.3}\n"
    );
    let _ = writeln!(
        json,
        "    \"cold_start\": {{\n      \"holdout_err_first_third\": {cold_first:.4},\n      \
         \"holdout_err_last_third\": {cold_last:.4},\n      \"runs\": [\n{}      ]}}\n  }}\n}}",
        cold_rows.trim_end_matches(",\n").to_string() + "\n"
    );

    if let Some(dir) = std::path::Path::new(&out).parent() {
        std::fs::create_dir_all(dir).expect("create output dir");
    }
    std::fs::write(&out, &json).expect("write drift_adapt.json");
    println!("wrote {out}");

    // Probed online drift run: the trace where decision provenance earns
    // its keep — evidence masks and profile versions advance mid-run as
    // the online store re-learns the drifted app.
    if trace.is_some() || timeseries {
        let w = drift_workload(n_drift, seeds[0]);
        let store = store_for(&w.templates, &corpus, true);
        let sched = LlmSched::with_store(store, LlmSchedConfig::default());
        let mut probe = CalibProbe::new(sched);
        let mut rec = TraceRecorder::new(TraceConfig {
            window: Some(WindowConfig::new(
                SimDuration::from_secs(30),
                SimDuration::from_secs(60),
            )),
        });
        let cfg = w.kind.default_cluster();
        let r = simulate_probed(&cfg, &w.templates, w.jobs, &mut probe, &mut rec);
        assert_eq!(r.incomplete, 0, "probed run stranded jobs");
        println!(
            "probed online drift run: {} probe events",
            rec.events().len()
        );
        if timeseries {
            let ts = r
                .timeseries
                .as_ref()
                .expect("probed run aggregates windows");
            llmsched_bench::print_timeseries(ts);
        }
        if let Some(prefix) = &trace {
            llmsched_bench::export_trace_or_die(prefix, &rec, &r, true);
        }
    }

    if check {
        let mut ok = true;
        if online_jct >= frozen_jct {
            eprintln!(
                "FAIL: online profiling must improve drift-mix avg JCT \
                 (frozen {frozen_jct:.2}s vs online {online_jct:.2}s)"
            );
            ok = false;
        }
        if cold_last >= cold_first {
            eprintln!(
                "FAIL: cold-start calibration error must fall over the run \
                 ({cold_first:.3} -> {cold_last:.3})"
            );
            ok = false;
        }
        if !ok {
            std::process::exit(1);
        }
        println!("check passed: online beats frozen under drift; cold-start calibration converges");
    }
}
