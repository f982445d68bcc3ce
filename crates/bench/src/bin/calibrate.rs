//! Cluster-load calibration helper (not a paper figure).
//!
//! Runs FCFS on each workload mix at the paper's default parameters and
//! reports executor utilization, so the per-mix executor counts in
//! `WorkloadKind::default_cluster` can be tuned to the paper's ~85%
//! moderate-load setting (§V, *Parameter setting*).
//!
//! Usage: `cargo run --release -p llmsched-bench --bin calibrate [n_jobs]`

use llmsched_bench::cli::Cli;
use llmsched_bench::{run_policy, ExperimentConfig, Policy, Table, TrainedArtifacts};
use llmsched_workloads::prelude::WorkloadKind;

fn main() {
    let args = Cli::new("calibrate", &[]).with_positional("n_jobs").parse();
    let n_jobs: usize = args.positional().unwrap_or(300);
    let art = TrainedArtifacts::train(llmsched_bench::roster::DEFAULT_TRAINING_PER_APP, 1);
    let mut table = Table::new(vec![
        "workload",
        "policy",
        "avg_jct_s",
        "makespan_s",
        "reg_util",
        "llm_slot_util",
        "llm_active",
        "incomplete",
    ]);
    for kind in WorkloadKind::ALL {
        for policy in [
            Policy::Fcfs,
            Policy::Sjf,
            Policy::Fair,
            Policy::Argus,
            Policy::Decima,
            Policy::Carbyne,
            Policy::LlmSchedNoUncertainty,
            Policy::LlmSchedNoBn,
            Policy::LlmSched,
        ] {
            let exp = ExperimentConfig {
                n_jobs,
                ..ExperimentConfig::paper_default(kind, 42)
            };
            let r = run_policy(&art, policy, &exp);
            table.row(vec![
                kind.name().to_string(),
                policy.name().to_string(),
                format!("{:.1}", r.avg_jct_secs()),
                format!("{:.0}", r.makespan.as_secs_f64()),
                format!("{:.2}", r.utilization.regular_busy_frac),
                format!("{:.2}", r.utilization.llm_slot_frac),
                format!("{:.2}", r.utilization.llm_active_frac),
                r.incomplete.to_string(),
            ]);
        }
    }
    println!("{}", table.render());
}
