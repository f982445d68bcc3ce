//! **Scale throughput** — the repo's performance trajectory: how many jobs
//! per wall-clock second the simulator + scheduler pipeline sustains as the
//! workload grows to production-ish sizes, and what the delta-driven
//! incremental scheduling core buys over the rebuild-per-call reference
//! path (bit-identical schedules, very different overhead).
//!
//! Sweeps 10k/50k/100k-job Mixed workloads under LLMSched across the two
//! decode models — the analytic routed replica table and the
//! disaggregated prefill/decode backend (incremental path) — plus
//! rebuild-path reference runs for the speedup ratio (both backends in
//! `--quick` mode; analytic-only on the full sweep, where a disagg 50k
//! rebuild would take minutes). Sweep rows run under the documented
//! bounded-staleness decision horizon ([`DECISION_HORIZON_SECS`]; rebuild
//! rows stay exact), with one exact (ε = 0) twin per backend at the
//! smallest sweep size so the avg-JCT drift the relaxation buys its
//! throughput with is always on record. Writes `BENCH_scale.json` at the
//! repo root, including the host's `hw_threads`.
//!
//! Usage:
//!
//! ```text
//!   cargo run --release -p llmsched-bench --bin scale_throughput
//!     [--quick]            # one small sweep (CI)
//!     [--runs <n>]         # repeat every row n times, report the
//!                          # median-of-n wall clock (default 1)
//!     [--horizon <secs>]   # bounded-staleness horizon ε ≥ 0 for the
//!                          # sweep rows (default DECISION_HORIZON_SECS;
//!                          # 0 = exact)
//!     [--floor <jobs/s>]   # exit non-zero if any incremental run
//!                          # simulates fewer jobs/sec than this
//!     [--check]            # exit non-zero if disagg throughput decays
//!                          # from 10k to 50k jobs, any row spends more
//!                          # than the ceiling of its wall clock inside
//!                          # the scheduler, or the ε>0 avg-JCT drift vs
//!                          # the ε=0 twin exceeds 0.5% on any backend
//!     [--out <path>]       # default BENCH_scale.json
//!     [--no-coalescing]    # A/B switch: disable scheduler invocation
//!                          # coalescing (schedules stay bit-identical)
//!     [--jobs <n>]         # one incremental sweep at a custom job
//!                          # count (n ≥ 1)
//! ```
//!
//! An unknown flag, a flag missing its value, an unparsable value or an
//! out-of-range one (`--runs 0`, `--jobs 0`, a negative or non-finite
//! `--horizon`) exits with status 2 and a usage line, before any output
//! is written.

use std::fmt::Write as _;
use std::sync::OnceLock;
use std::time::Instant;

use llmsched_bench::cli::{Args, Cli, Flag};
use llmsched_bench::{ExperimentConfig, Policy, TrainedArtifacts};
use llmsched_core::prelude::LlmSchedConfig;
use llmsched_sim::engine::{ClusterConfig, EngineMode};
use llmsched_workloads::prelude::WorkloadKind;

/// Cluster scale factor. The Mixed default cluster is tuned for the
/// paper's 300-job runs at λ = 0.9 jobs/s, which by Little's law keeps
/// only ~15 jobs in flight — far too few to stress a scheduler. The
/// scale sweep multiplies executors and raises the arrival rate,
/// pushing the steady-state active set into the hundreds: the regime
/// where per-invocation scheduler cost actually shows. The cluster is
/// scaled *more* than the arrival rate so the queue stays stable — in
/// an overloaded system the active set grows with the job count and
/// every run (most of all the rebuild reference) turns quadratic.
const CLUSTER_SCALE: usize = 48;

/// Arrival rate: high enough for hundreds of jobs in flight, safely
/// below the scaled service capacity.
const LAMBDA: f64 = 24.0;

/// The documented default bounded-staleness horizon (ε, simulated
/// seconds) the sweep's incremental rows run under: decision
/// points within ε of the previous invocation are folded into one batched
/// invocation at the horizon edge (DESIGN.md §14). 30 ms sits where the
/// measured trade-off curve bends: avg-JCT drift stays at 0.1–0.46%
/// across backends (under the gated 0.5%), scheduler invocations drop to
/// the ~1/ε flush cadence (~1.4/job at 100k, from 5.1 exact). Drift
/// scales roughly
/// linearly in ε (measured 0.22% at 20 ms, 0.51–0.79% at 40 ms), so
/// 40 ms already breaches the gate on the disagg backend. Override with
/// `--horizon` (0 = exact); rebuild reference rows and the ε=0 drift
/// twins always run exact.
const DECISION_HORIZON_SECS: f64 = 0.03;

/// `--check`: ceiling on `|avg_jct(ε) − avg_jct(0)| / avg_jct(0)`.
const JCT_DRIFT_CEILING: f64 = 0.005;

/// How one sweep point exercises the engine + scheduler pipeline.
#[derive(Clone, Copy, PartialEq)]
enum Path {
    /// Delta-driven scheduling (the default).
    Incremental,
    /// Rebuild-per-call scheduling reference (quadratic blow-up).
    Rebuild,
}

impl Path {
    fn name(self) -> &'static str {
        match self {
            Path::Incremental => "incremental",
            Path::Rebuild => "rebuild",
        }
    }
}

struct Run {
    jobs: usize,
    backend: String,
    path: &'static str,
    /// The bounded-staleness horizon this row ran under (0 = exact).
    decision_horizon_secs: f64,
    wall_secs: f64,
    jobs_per_sec: f64,
    events: u64,
    sched_calls: u64,
    /// Decision points skipped by scheduler invocation coalescing
    /// (`sched_calls + coalesced + elided + deferred` is the total).
    coalesced_sched_calls: u64,
    /// Decision points elided by the capacity-aware check (no free slot
    /// of any ready class; the sweep runs LLMSched in work-conserving
    /// mode, so elision is live on these rows).
    elided_sched_calls: u64,
    /// Decision points deferred under the bounded-staleness horizon and
    /// folded into batched invocations (0 on exact rows).
    deferred_sched_calls: u64,
    /// Total scheduler wall clock over run wall clock — the Amdahl
    /// denominator the elision and batching work attacks.
    sched_time_fraction: f64,
    sched_mean_ms: f64,
    sched_p50_ms: f64,
    sched_p99_ms: f64,
    avg_jct_secs: f64,
}

/// The command line, parsed once on first use (exits with status 2 on a
/// bad one).
fn args() -> &'static Args {
    static ARGS: OnceLock<Args> = OnceLock::new();
    ARGS.get_or_init(|| {
        Cli::new(
            "scale_throughput",
            &[
                Flag::switch("--quick"),
                Flag::value("--runs", "n"),
                Flag::value("--horizon", "secs"),
                Flag::value("--floor", "jobs/s"),
                Flag::switch("--check"),
                Flag::value("--out", "path"),
                Flag::switch("--no-coalescing"),
                Flag::value("--jobs", "n"),
            ],
        )
        .parse()
    })
}

/// `--horizon` override, defaulting to [`DECISION_HORIZON_SECS`]. A
/// negative or non-finite horizon exits 2 (`ClusterConfig::validate`
/// would reject it only after training).
fn sweep_horizon() -> f64 {
    match args().get::<f64>("--horizon") {
        None => DECISION_HORIZON_SECS,
        Some(h) if h.is_finite() && h >= 0.0 => h,
        Some(_) => args().reject("--horizon"),
    }
}

/// `--runs` repetition count (median-of-n wall), defaulting to 1.
fn measure_runs() -> usize {
    match args().get("--runs") {
        None => 1,
        Some(0) => args().reject("--runs"),
        Some(n) => n,
    }
}

fn scaled_cluster(mode: EngineMode) -> ClusterConfig {
    let base = WorkloadKind::Mixed.default_cluster();
    // The derived disagg layout pins a single prefill replica — a
    // bottleneck that overloads at this arrival rate. Scale the prefill
    // pool with the cluster.
    let spec = (mode == EngineMode::Disagg).then(|| {
        let mut s = llmsched_sim::prelude::ClusterSpec::disaggregated(
            base.llm_executors * CLUSTER_SCALE,
            base.max_batch,
            base.latency.clone(),
        );
        s.groups[0].replicas = CLUSTER_SCALE;
        s
    });
    ClusterConfig {
        regular_executors: base.regular_executors * CLUSTER_SCALE,
        llm_executors: base.llm_executors * CLUSTER_SCALE,
        mode,
        spec,
        ..base
    }
}

fn exp_for(n_jobs: usize, mode: EngineMode, path: Path, horizon_secs: f64) -> ExperimentConfig {
    let mut cluster = scaled_cluster(mode);
    if args().has("--no-coalescing") {
        cluster.coalescing = false;
    }
    // Bounded-staleness decision batching (DESIGN.md §14). The rebuild
    // reference and the ε=0 drift twins pass 0.0: exact mode.
    cluster.decision_horizon = horizon_secs;
    ExperimentConfig {
        n_jobs,
        mode,
        lambda: LAMBDA,
        cluster: Some(cluster),
        rebuild: path == Path::Rebuild,
        // Work-conserving mode opts LLMSched into capacity-aware
        // decision-point elision. Off by default in golden runs because
        // it moves the ε-draw stream; the throughput sweep is where it
        // earns its keep.
        llmsched: Some(LlmSchedConfig {
            work_conserving: true,
            ..LlmSchedConfig::default()
        }),
        ..ExperimentConfig::paper_default(WorkloadKind::Mixed, 42)
    }
}

fn run_one(art: &TrainedArtifacts, n_jobs: usize, mode: EngineMode, path: Path, eps: f64) -> Run {
    let exp = exp_for(n_jobs, mode, path, eps);
    // Median-of-n: the simulation is deterministic (every repeat produces
    // the bit-identical schedule), so repeats only re-sample wall clock —
    // the row keeps the median repeat's timing wholesale.
    let mut timed: Vec<(f64, llmsched_sim::metrics::SimResult)> = (0..measure_runs())
        .map(|_| {
            let start = Instant::now();
            let r = llmsched_bench::run_policy(art, Policy::LlmSched, &exp);
            (start.elapsed().as_secs_f64(), r)
        })
        .collect();
    timed.sort_by(|a, b| a.0.partial_cmp(&b.0).expect("finite walls"));
    let (wall, r) = timed.swap_remove(timed.len() / 2);
    assert_eq!(r.incomplete, 0, "scale run stranded jobs");
    let p = r.sched_overhead_percentiles();
    Run {
        jobs: n_jobs,
        backend: r.backend.clone(),
        path: path.name(),
        decision_horizon_secs: eps,
        wall_secs: wall,
        jobs_per_sec: n_jobs as f64 / wall,
        events: r.events,
        sched_calls: r.sched_calls,
        coalesced_sched_calls: r.sched_skipped,
        elided_sched_calls: r.sched_elided,
        deferred_sched_calls: r.sched_deferred,
        sched_time_fraction: r.sched_wall.as_secs_f64() / wall,
        sched_mean_ms: r.sched_overhead_ms(),
        sched_p50_ms: p.p50_ms,
        sched_p99_ms: p.p99_ms,
        avg_jct_secs: r.avg_jct_secs(),
    }
}

fn to_json(
    runs: &[Run],
    quick: bool,
    speedups: &[(usize, String, f64)],
    drifts: &[(String, f64)],
) -> String {
    let hw = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    let mut s = String::new();
    s.push_str("{\n");
    let _ = writeln!(s, "  \"bench\": \"scale_throughput\",");
    let _ = writeln!(s, "  \"policy\": \"LLMSched\",");
    let _ = writeln!(s, "  \"workload\": \"Mixed\",");
    let _ = writeln!(s, "  \"cluster_scale\": {CLUSTER_SCALE},");
    let _ = writeln!(s, "  \"hw_threads\": {hw},");
    let _ = writeln!(s, "  \"decision_horizon_secs\": {},", sweep_horizon());
    let _ = writeln!(s, "  \"measure_runs\": {},", measure_runs());
    let _ = writeln!(s, "  \"quick\": {quick},");
    s.push_str("  \"runs\": [\n");
    for (i, r) in runs.iter().enumerate() {
        let _ = write!(
            s,
            "    {{\"jobs\": {}, \"backend\": \"{}\", \"path\": \"{}\", \
             \"decision_horizon_secs\": {}, \
             \"wall_secs\": {:.3}, \"jobs_per_sec\": {:.1}, \"events\": {}, \
             \"sched_calls\": {}, \"coalesced_sched_calls\": {}, \
             \"elided_sched_calls\": {}, \"deferred_sched_calls\": {}, \
             \"sched_time_fraction\": {:.4}, \"sched_mean_ms\": {:.4}, \
             \"sched_p50_ms\": {:.4}, \"sched_p99_ms\": {:.4}, \
             \"avg_jct_secs\": {:.3}}}",
            r.jobs,
            r.backend,
            r.path,
            r.decision_horizon_secs,
            r.wall_secs,
            r.jobs_per_sec,
            r.events,
            r.sched_calls,
            r.coalesced_sched_calls,
            r.elided_sched_calls,
            r.deferred_sched_calls,
            r.sched_time_fraction,
            r.sched_mean_ms,
            r.sched_p50_ms,
            r.sched_p99_ms,
            r.avg_jct_secs,
        );
        s.push_str(if i + 1 < runs.len() { ",\n" } else { "\n" });
    }
    s.push_str("  ],\n");
    s.push_str("  \"speedup_incremental_vs_rebuild\": {");
    for (i, (jobs, backend, x)) in speedups.iter().enumerate() {
        let _ = write!(
            s,
            "{}\"{jobs}/{backend}\": {x:.2}",
            if i > 0 { ", " } else { "" }
        );
    }
    s.push_str("},\n");
    s.push_str("  \"jct_drift_vs_exact\": {");
    for (i, (backend, d)) in drifts.iter().enumerate() {
        let _ = write!(s, "{}\"{backend}\": {d:.5}", if i > 0 { ", " } else { "" });
    }
    s.push_str("}\n}\n");
    s
}

fn main() {
    let args = args();
    let quick = args.has("--quick");
    let floor: Option<f64> = args.get("--floor");
    let check = args.has("--check");
    let out = args
        .value("--out")
        .unwrap_or("BENCH_scale.json")
        .to_string();
    // Tuning escape hatch: one incremental sweep at a custom job count
    // (zero jobs has no throughput and no JCT to report).
    let jobs_override: Option<usize> = match args.get("--jobs") {
        Some(0) => args.reject("--jobs"),
        n => n,
    };
    let eps = sweep_horizon();
    // Reject a bad `--runs` before the training step, not after it (as
    // `--horizon` and `--jobs` above).
    measure_runs();

    let art = TrainedArtifacts::train(if quick { 100 } else { 200 }, 1);
    let override_sweep = [jobs_override.unwrap_or(0)];
    let sweep: &[usize] = match jobs_override {
        Some(_) => &override_sweep,
        None if quick => &[2_000],
        None => &[10_000, 50_000, 100_000],
    };
    // Every backend even in quick mode: the drift and scheduler-fraction
    // gates (`--check`) must cover both decode models in CI.
    let backends: &[EngineMode] = &[EngineMode::Analytic, EngineMode::Disagg];
    // Rebuild reference runs: both backends in quick mode (the
    // speedup-vs-rebuild column is per backend); analytic-only on the
    // full sweep, where the quadratic reference already takes ~2 minutes
    // at 50k — the 100k rebuild is omitted entirely, it's the blow-up
    // the incremental core exists to avoid.
    let rebuild_sweep: &[usize] = match jobs_override {
        Some(_) => &[],
        None if quick => &[2_000],
        None => &[10_000, 50_000],
    };
    let rebuild_backends: &[EngineMode] = if quick {
        backends
    } else {
        &[EngineMode::Analytic]
    };

    println!(
        "{:>8} {:>22} {:>12} {:>10} {:>10} {:>10} {:>10} {:>10} {:>8} {:>10} {:>10}",
        "jobs",
        "backend",
        "path",
        "wall s",
        "jobs/s",
        "mean ms",
        "p50 ms",
        "p99 ms",
        "sched%",
        "elided",
        "deferred"
    );
    fn record(runs: &mut Vec<Run>, r: Run) {
        println!(
            "{:>8} {:>22} {:>12} {:>10.2} {:>10.1} {:>10.4} {:>10.4} {:>10.4} {:>8.1} {:>10} {:>10}",
            r.jobs,
            r.backend,
            r.path,
            r.wall_secs,
            r.jobs_per_sec,
            r.sched_mean_ms,
            r.sched_p50_ms,
            r.sched_p99_ms,
            r.sched_time_fraction * 100.0,
            r.elided_sched_calls,
            r.deferred_sched_calls
        );
        runs.push(r);
    }
    let mut runs: Vec<Run> = Vec::new();
    for &n in sweep {
        for &mode in backends {
            record(&mut runs, run_one(&art, n, mode, Path::Incremental, eps));
        }
    }
    // ε=0 twins at the smallest sweep size: the exact-schedule reference
    // the drift gate (and anyone reading BENCH_scale.json) compares the
    // relaxed rows against. Skipped when the sweep itself is exact.
    if eps > 0.0 {
        for &mode in backends {
            record(
                &mut runs,
                run_one(&art, sweep[0], mode, Path::Incremental, 0.0),
            );
        }
    }
    for &n in rebuild_sweep {
        for &mode in rebuild_backends {
            record(&mut runs, run_one(&art, n, mode, Path::Rebuild, 0.0));
        }
    }

    let speedups: Vec<(usize, String, f64)> = runs
        .iter()
        .filter(|r| r.path == "rebuild")
        .map(|reb| {
            // Rebuild rows always run exact, so pair them with the ε=0
            // incremental twin when one exists at this size (smallest
            // sweep point) — comparing against a relaxed row would fold
            // the batching win into the incremental-vs-rebuild ratio.
            let inc = runs
                .iter()
                .filter(|r| {
                    r.jobs == reb.jobs && r.path == "incremental" && r.backend == reb.backend
                })
                .min_by(|a, b| {
                    a.decision_horizon_secs
                        .partial_cmp(&b.decision_horizon_secs)
                        .expect("finite horizons")
                })
                .expect("every rebuild row has an incremental twin");
            (
                reb.jobs,
                reb.backend.clone(),
                inc.jobs_per_sec / reb.jobs_per_sec,
            )
        })
        .collect();
    for (n, backend, x) in &speedups {
        println!("speedup @ {n} jobs / {backend} (incremental vs rebuild): {x:.2}x");
    }

    // Avg-JCT drift of the relaxed rows against their ε=0 twins, per
    // backend at the smallest sweep size (the relaxation's cost in
    // schedule quality — gated under `--check`).
    let drifts: Vec<(String, f64)> = runs
        .iter()
        .filter(|r| r.jobs == sweep[0] && r.path == "incremental" && r.decision_horizon_secs == 0.0)
        .filter_map(|exact| {
            let relaxed = runs.iter().find(|r| {
                r.jobs == exact.jobs
                    && r.path == "incremental"
                    && r.backend == exact.backend
                    && r.decision_horizon_secs > 0.0
            })?;
            let d = (relaxed.avg_jct_secs - exact.avg_jct_secs).abs() / exact.avg_jct_secs;
            Some((exact.backend.clone(), d))
        })
        .collect();
    for (backend, d) in &drifts {
        println!(
            "avg-JCT drift @ {} jobs / {backend} (ε={eps}s vs exact): {:.3}%",
            sweep[0],
            d * 100.0
        );
    }

    std::fs::write(&out, to_json(&runs, quick, &speedups, &drifts))
        .expect("write BENCH_scale.json");
    println!("wrote {out}");

    if let Some(floor) = floor {
        let worst = runs
            .iter()
            .filter(|r| r.path == "incremental")
            .map(|r| r.jobs_per_sec)
            .fold(f64::INFINITY, f64::min);
        if worst < floor {
            eprintln!("FAIL: {worst:.1} simulated jobs/sec is below the floor of {floor:.1}");
            std::process::exit(1);
        }
        println!("floor check passed: {worst:.1} >= {floor:.1} jobs/sec");
    }

    if check {
        // Bounded-staleness drift gate: the relaxation buys its deleted
        // invocations with decision latency; the avg-JCT it
        // costs must stay bounded. Exact-mode sweeps (ε = 0) have no
        // drift to gate.
        for (backend, d) in &drifts {
            if *d > JCT_DRIFT_CEILING {
                eprintln!(
                    "FAIL: ε={eps}s avg-JCT drift on {backend} is {:.3}% \
                     (ceiling {:.1}%)",
                    d * 100.0,
                    JCT_DRIFT_CEILING * 100.0
                );
                std::process::exit(1);
            }
        }
        if eps > 0.0 {
            assert!(
                !drifts.is_empty(),
                "drift gate matched no (relaxed, exact) row pairs"
            );
            println!(
                "jct-drift check passed: all backends within {:.1}% of the exact schedule",
                JCT_DRIFT_CEILING * 100.0
            );
        }

        // Scaling regression gate: disagg throughput used to *decay* with
        // job count (a per-placement router-view allocation — 5,061
        // jobs/s at 10k fell to 3,978 at 50k before the reused scratch
        // buffer landed). Throughput at 50k must stay within 15% of the
        // 10k figure; noise runs well under that, the regressed backend
        // sat at −21%. A quick/override sweep doesn't produce the two
        // disagg rows the gate needs, so run them on demand — the gate
        // works in CI without paying for the full sweep.
        let tput = |runs: &[Run], jobs: usize| {
            runs.iter()
                .find(|r| {
                    r.jobs == jobs
                        && r.path == "incremental"
                        && r.backend.starts_with("disagg")
                        && r.decision_horizon_secs == eps
                })
                .map(|r| r.jobs_per_sec)
        };
        for jobs in [10_000, 50_000] {
            if tput(&runs, jobs).is_none() {
                record(
                    &mut runs,
                    run_one(&art, jobs, EngineMode::Disagg, Path::Incremental, eps),
                );
            }
        }
        let (small, large) = (
            tput(&runs, 10_000).expect("disagg 10k run"),
            tput(&runs, 50_000).expect("disagg 50k run"),
        );
        let ratio = large / small;
        if ratio < 0.85 {
            eprintln!(
                "FAIL: disagg throughput decays with scale: {small:.1} jobs/s at 10k \
                 -> {large:.1} at 50k ({:.0}%)",
                (ratio - 1.0) * 100.0
            );
            std::process::exit(1);
        }
        println!(
            "scaling check passed: disagg {small:.1} jobs/s at 10k -> {large:.1} at 50k \
             ({ratio:.2}x)"
        );

        // Scheduler-fraction gate: invocation coalescing + capacity-aware
        // elision exist to keep the serial scheduler term of Amdahl's law
        // bounded. LLMSched's BN inference legitimately dominates this
        // pipeline (incremental rows measure 73–79% of wall inside the
        // scheduler under exact decision timing), so the ceiling is a
        // regression tripwire above that band, not an aspiration: a
        // breach means per-invocation cost or the skip/elide/defer
        // machinery genuinely regressed. Rebuild rows are exempt — the
        // quadratic reference path sits at ~97% by design.
        const SCHED_FRACTION_CEILING: f64 = 0.85;
        for r in runs.iter().filter(|r| r.path != "rebuild") {
            if r.sched_time_fraction > SCHED_FRACTION_CEILING {
                eprintln!(
                    "FAIL: {} jobs ({} / {}) spends {:.1}% of wall inside the scheduler \
                     (ceiling {:.0}%)",
                    r.jobs,
                    r.backend,
                    r.path,
                    r.sched_time_fraction * 100.0,
                    SCHED_FRACTION_CEILING * 100.0
                );
                std::process::exit(1);
            }
        }
        println!(
            "scheduler-fraction check passed: all rows under {:.0}% of wall",
            SCHED_FRACTION_CEILING * 100.0
        );
    }
}
