//! **Fig. 8 + Table I** — testbed results: average JCT of every policy on
//! the four workloads (λ = 0.9, 300 jobs) under the **token-level**
//! continuous-batching engine (the GPU-testbed stand-in, DESIGN.md §6),
//! plus the per-invocation scheduling overhead of Table I measured on the
//! same runs.
//!
//! Paper shape: results consistent with the simulator (Fig. 7); LLMSched
//! reduces 45–66% / 26–46% / 35–45% / 38–51%; overheads — simple
//! heuristics < 1 ms, LLMSched < 3 ms, Decima/Carbyne the slowest.
//!
//! Writes `results/fig8.csv` and `results/table1.csv`.
//!
//! Usage: `cargo run --release -p llmsched-bench --bin fig8_testbed [--quick]`

use llmsched_bench::cli::{Cli, Flag};
use llmsched_bench::runner::run_policies_parallel;
use llmsched_bench::{write_csv, ExperimentConfig, Policy, Table, TrainedArtifacts};
use llmsched_sim::engine::EngineMode;
use llmsched_workloads::prelude::WorkloadKind;

fn main() {
    let quick = Cli::new("fig8_testbed", &[Flag::switch("--quick")])
        .parse()
        .has("--quick");
    let n_jobs = if quick { 120 } else { 300 };
    let chunk = if quick { 8 } else { 4 };

    let art = TrainedArtifacts::train(
        if quick {
            150
        } else {
            llmsched_bench::roster::DEFAULT_TRAINING_PER_APP
        },
        1,
    );
    let mut fig8 = Table::new(vec!["workload", "policy", "avg_jct_s"]);
    let mut table1 = Table::new(vec!["workload", "policy", "overhead_ms"]);

    for kind in WorkloadKind::ALL {
        let mut cluster = kind.default_cluster();
        cluster.iteration_chunk = chunk;
        let exp = ExperimentConfig {
            n_jobs,
            mode: EngineMode::TokenLevel,
            cluster: Some(cluster),
            ..ExperimentConfig::paper_default(kind, 42)
        };
        let results = run_policies_parallel(&art, &Policy::FIG7, &exp);
        println!(
            "== {} workload (token-level, {n_jobs} jobs) ==",
            kind.name()
        );
        for r in &results {
            assert_eq!(r.incomplete, 0, "{} stranded jobs", r.scheduler);
            println!(
                "  {:<10} avg JCT {:>8.1}s   overhead {:>7.3} ms over {} invocations",
                r.scheduler,
                r.avg_jct_secs(),
                r.sched_overhead_ms(),
                r.sched_calls
            );
            fig8.row(vec![
                kind.name().to_string(),
                r.scheduler.clone(),
                format!("{:.2}", r.avg_jct_secs()),
            ]);
            table1.row(vec![
                kind.name().to_string(),
                r.scheduler.clone(),
                format!("{:.4}", r.sched_overhead_ms()),
            ]);
        }
        let ours = results.last().expect("llmsched last").avg_jct_secs();
        let best = results[..results.len() - 1]
            .iter()
            .map(|r| r.avg_jct_secs())
            .fold(f64::INFINITY, f64::min);
        println!(
            "  -> LLMSched reduction vs best baseline: {:.0}%\n",
            (1.0 - ours / best) * 100.0
        );
    }
    println!("wrote {}", write_csv(&fig8, "fig8").display());
    println!("wrote {}", write_csv(&table1, "table1").display());
}
