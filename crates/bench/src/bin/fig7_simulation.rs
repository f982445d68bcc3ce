//! **Fig. 7** — simulation results: average JCT of the seven policies on
//! the four workload types, for 100/200/300/400 jobs at λ = 0.9 (analytic
//! engine — the paper's simulator).
//!
//! Paper shape to reproduce: LLMSched lowest everywhere (reductions of
//! 36–79% / 14–46% / 36–67% / 24–52% across the four workloads), the gap
//! widening with job count; Decima catastrophic on Planning (omitted from
//! the paper's plot, > 100 s).
//!
//! Writes `results/fig7.csv`.
//!
//! Usage: `cargo run --release -p llmsched-bench --bin fig7_simulation
//!         [--quick] [--seeds N]`

use llmsched_bench::cli::{Cli, Flag};
use llmsched_bench::runner::run_policies_parallel;
use llmsched_bench::{write_csv, ExperimentConfig, Policy, Table, TrainedArtifacts};
use llmsched_workloads::prelude::WorkloadKind;

fn main() {
    let args = Cli::new(
        "fig7_simulation",
        &[Flag::switch("--quick"), Flag::value("--seeds", "n")],
    )
    .parse();
    let quick = args.has("--quick");
    let seeds: u64 = args.get("--seeds").unwrap_or(if quick { 1 } else { 2 });
    let job_counts: Vec<usize> = if quick {
        vec![100, 200]
    } else {
        vec![100, 200, 300, 400]
    };

    let art = TrainedArtifacts::train(
        if quick {
            150
        } else {
            llmsched_bench::roster::DEFAULT_TRAINING_PER_APP
        },
        1,
    );
    let mut table = Table::new(vec!["workload", "n_jobs", "policy", "avg_jct_s"]);

    for kind in WorkloadKind::ALL {
        println!("== {} workload ==", kind.name());
        println!(
            "{:<10} {}",
            "n_jobs",
            Policy::FIG7.map(|p| format!("{:>10}", p.name())).join(" ")
        );
        for &n_jobs in &job_counts {
            let mut sums = vec![0.0f64; Policy::FIG7.len()];
            for seed in 0..seeds {
                let exp = ExperimentConfig {
                    n_jobs,
                    ..ExperimentConfig::paper_default(kind, 42 + seed)
                };
                let results = run_policies_parallel(&art, &Policy::FIG7, &exp);
                for (i, r) in results.iter().enumerate() {
                    assert_eq!(r.incomplete, 0, "{} stranded jobs", r.scheduler);
                    sums[i] += r.avg_jct_secs();
                }
            }
            let means: Vec<f64> = sums.iter().map(|s| s / seeds as f64).collect();
            println!(
                "{:<10} {}",
                n_jobs,
                means
                    .iter()
                    .map(|m| format!("{m:>10.1}"))
                    .collect::<Vec<_>>()
                    .join(" ")
            );
            for (p, m) in Policy::FIG7.iter().zip(&means) {
                table.row(vec![
                    kind.name().to_string(),
                    n_jobs.to_string(),
                    p.name().to_string(),
                    format!("{m:.2}"),
                ]);
            }
            let ours = means[Policy::FIG7.len() - 1];
            let best_baseline = means[..Policy::FIG7.len() - 1]
                .iter()
                .copied()
                .fold(f64::INFINITY, f64::min);
            let worst_baseline = means[..Policy::FIG7.len() - 1]
                .iter()
                .copied()
                .fold(0.0, f64::max);
            println!(
                "           LLMSched reduction: {:.0}% vs best baseline, {:.0}% vs worst",
                (1.0 - ours / best_baseline) * 100.0,
                (1.0 - ours / worst_baseline) * 100.0
            );
        }
        println!();
    }
    let path = write_csv(&table, "fig7");
    println!("wrote {}", path.display());
}
