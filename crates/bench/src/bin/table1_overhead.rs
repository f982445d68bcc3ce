//! **Table I** — scheduling overhead per invocation (ms) for every method
//! on the four workloads, measured on analytic-engine runs at the paper's
//! defaults (300 jobs, λ = 0.9). Each cell reports `mean (p50/p99)`: the
//! mean is the paper's metric, the percentiles expose invocation-time
//! spikes (cache re-keys, BN inference on evidence changes) a mean hides.
//!
//! Paper shape: FCFS/SJF/Fair/Argus well under 1 ms; LLMSched under 3 ms
//! (its figure includes BN inference and entropy calculation); Decima and
//! Carbyne the most expensive of their groups.
//!
//! Writes `results/table1_analytic.csv`.
//!
//! Usage: `cargo run --release -p llmsched-bench --bin table1_overhead [--quick]`

use llmsched_bench::cli::{Cli, Flag};
use llmsched_bench::{run_policy, write_csv, ExperimentConfig, Policy, Table, TrainedArtifacts};
use llmsched_workloads::prelude::WorkloadKind;

fn main() {
    let quick = Cli::new("table1_overhead", &[Flag::switch("--quick")])
        .parse()
        .has("--quick");
    let n_jobs = if quick { 100 } else { 300 };
    let art = TrainedArtifacts::train(
        if quick {
            150
        } else {
            llmsched_bench::roster::DEFAULT_TRAINING_PER_APP
        },
        1,
    );

    let mut table = Table::new(vec![
        "policy",
        "Mixed",
        "Mixed p50",
        "Mixed p99",
        "Predefined",
        "Predefined p50",
        "Predefined p99",
        "Chain-like",
        "Chain-like p50",
        "Chain-like p99",
        "Planning",
        "Planning p50",
        "Planning p99",
    ]);
    println!(
        "{:<12} {:>22} {:>22} {:>22} {:>22}   mean (p50/p99) ms per invocation",
        "policy", "Mixed", "Predefined", "Chain-like", "Planning"
    );
    for policy in Policy::FIG7 {
        let mut cells = vec![policy.name().to_string()];
        let mut row_print = format!("{:<12}", policy.name());
        for kind in WorkloadKind::ALL {
            let exp = ExperimentConfig {
                n_jobs,
                ..ExperimentConfig::paper_default(kind, 42)
            };
            let r = run_policy(&art, policy, &exp);
            let ms = r.sched_overhead_ms();
            let p = r.sched_overhead_percentiles();
            cells.push(format!("{ms:.3}"));
            cells.push(format!("{:.3}", p.p50_ms));
            cells.push(format!("{:.3}", p.p99_ms));
            row_print.push_str(&format!(
                " {:>22}",
                format!("{ms:.3} ({:.3}/{:.3})", p.p50_ms, p.p99_ms)
            ));
        }
        println!("{row_print}");
        table.row(cells);
    }
    println!("\nwrote {}", write_csv(&table, "table1_analytic").display());
}
