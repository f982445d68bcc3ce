//! Micro-benchmarks (plain timing harness, no external deps):
//!
//! * `schedule/...` — end-to-end simulation of a small workload per policy
//!   (the per-decision overhead behind Table I, in miniature);
//! * `bn/...` — Bayesian-network inference primitives (posterior marginal
//!   and joint, the inner loops of the profiler), and the scheduler's
//!   per-evidence posterior build with its elimination plan compiled
//!   fresh (`posterior_build_cold`) or cached (`posterior_build_warm`),
//!   each timed over [`BUILDS`] builds per iteration;
//! * `uncertainty/...` — the Eq. 6 computation (capped exact joint);
//! * `engine/...` — raw event throughput of the two executor backends.
//!
//! Run with `cargo bench -p llmsched-bench`. Criterion is unavailable in
//! this offline workspace, so each benchmark is timed with
//! [`std::time::Instant`] over a fixed iteration count and reported as
//! min / mean / max wall-clock per iteration.

use std::hint::black_box;
use std::time::Instant;

use llmsched_bayes::network::Evidence;
use llmsched_bench::{run_policy, ExperimentConfig, Policy, TrainedArtifacts};
use llmsched_core::estimator::{EvidencePosteriors, PosteriorPlans};
use llmsched_core::prelude::*;
use llmsched_sim::engine::EngineMode;
use llmsched_sim::state::JobRt;
use llmsched_workloads::prelude::*;

/// Times `iters` runs of `f` and prints per-iteration statistics.
fn bench(group: &str, name: &str, iters: usize, mut f: impl FnMut()) {
    // One warm-up pass keeps first-touch allocation out of the numbers.
    f();
    let mut samples = Vec::with_capacity(iters);
    for _ in 0..iters {
        let t0 = Instant::now();
        f();
        samples.push(t0.elapsed().as_secs_f64());
    }
    let min = samples.iter().copied().fold(f64::INFINITY, f64::min);
    let max = samples.iter().copied().fold(0.0f64, f64::max);
    let mean = samples.iter().sum::<f64>() / samples.len() as f64;
    println!(
        "{group}/{name:<28} {iters:>3} iters  min {:>9.3} ms  mean {:>9.3} ms  max {:>9.3} ms",
        min * 1e3,
        mean * 1e3,
        max * 1e3
    );
}

/// Posterior builds per `bn/posterior_build_*` iteration: one build takes
/// microseconds, below the harness's resolution.
const BUILDS: usize = 1_000;

fn artifacts() -> TrainedArtifacts {
    TrainedArtifacts::train(60, 1)
}

fn bench_schedulers(art: &TrainedArtifacts) {
    for policy in [Policy::Fcfs, Policy::Sjf, Policy::Carbyne, Policy::LlmSched] {
        bench("schedule", policy.name(), 10, || {
            let exp = ExperimentConfig {
                n_jobs: 30,
                ..ExperimentConfig::paper_default(WorkloadKind::Mixed, 5)
            };
            black_box(run_policy(art, policy, &exp).avg_jct_secs());
        });
    }
}

fn bench_bn() {
    let templates = all_templates();
    let corpus = training_jobs(&[AppKind::SequenceSorting], 300, 2);
    let profiler = Profiler::train(&templates, &corpus, &ProfilerConfig::default());
    let p = profiler
        .profile(AppKind::SequenceSorting.app_id())
        .expect("trained");
    let mut ev = Evidence::new();
    ev.insert(0, 1);

    bench("bn", "posterior_marginal", 20, || {
        black_box(p.net().posterior_marginal(9, &ev));
    });
    bench("bn", "posterior_joint3", 20, || {
        black_box(p.net().posterior_joint(&[3, 7, 9], &ev));
    });
    // One evidence state's posterior build: compile the observed set's
    // plan and run it, or run the plan already cached.
    bench("bn", "posterior_build_cold", 20, || {
        for _ in 0..BUILDS {
            let mut plans = PosteriorPlans::default();
            black_box(EvidencePosteriors::build(
                p,
                &ev,
                true,
                INTERVAL_TAIL_MASS,
                &mut plans,
            ));
        }
    });
    let mut plans = PosteriorPlans::default();
    bench("bn", "posterior_build_warm", 20, || {
        for _ in 0..BUILDS {
            black_box(EvidencePosteriors::build(
                p,
                &ev,
                true,
                INTERVAL_TAIL_MASS,
                &mut plans,
            ));
        }
    });
    bench("bn", "train_profile_sorting_300", 20, || {
        black_box(Profiler::train(&templates, &corpus, &ProfilerConfig::default()).len());
    });
}

fn bench_uncertainty() {
    let templates = all_templates();
    let corpus = training_jobs(&[AppKind::SequenceSorting], 300, 2);
    let profiler = Profiler::train(&templates, &corpus, &ProfilerConfig::default());
    let p = profiler
        .profile(AppKind::SequenceSorting.app_id())
        .expect("trained");
    let job = JobRt::new(corpus[0].clone());
    let ev = Evidence::new();

    bench("uncertainty", "eq6_exact_joint3", 20, || {
        black_box(uncertainty_reduction(
            p,
            &job,
            llmsched_dag::ids::StageId(0),
            &ev,
        ));
    });
    bench("uncertainty", "remaining_work", 20, || {
        black_box(remaining_work(p, &job, &ev, true).expected(1.1));
    });
}

fn bench_engine(art: &TrainedArtifacts) {
    for (name, mode) in [
        ("analytic_30jobs", EngineMode::Analytic),
        ("token_level_30jobs", EngineMode::TokenLevel),
    ] {
        bench("engine", name, 10, || {
            let mut cluster = WorkloadKind::ChainLike.default_cluster();
            cluster.mode = mode;
            cluster.iteration_chunk = 8;
            let exp = ExperimentConfig {
                n_jobs: 30,
                mode,
                cluster: Some(cluster),
                ..ExperimentConfig::paper_default(WorkloadKind::ChainLike, 7)
            };
            black_box(run_policy(art, Policy::Fcfs, &exp).events);
        });
    }
}

fn main() {
    // `cargo test` compiles bench targets with --test; don't run the full
    // suite there.
    if std::env::args().any(|a| a == "--test") {
        println!("microbench: skipped under test harness");
        return;
    }
    let art = artifacts();
    bench_schedulers(&art);
    bench_bn();
    bench_uncertainty();
    bench_engine(&art);
}
