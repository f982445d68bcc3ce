//! **Fig. 10** — ablation study: *LLMSched w/o BN* (static historical
//! means instead of posterior updates) and *LLMSched w/o uncertainty*
//! (pure SRTF, no exploration list) versus full LLMSched, normalized, on
//! all four workloads.
//!
//! Paper shape: w/o BN is 5–20% worse, w/o uncertainty 12–21% worse;
//! on Mixed, w/o BN outperforms w/o uncertainty.
//!
//! Also includes the BN structure-learner ablation called out in
//! DESIGN.md (hill-climb vs Chow-Liu).
//!
//! Writes `results/fig10.csv`.
//!
//! Usage: `cargo run --release -p llmsched-bench --bin fig10_ablation [--quick]`

use llmsched_bench::cli::{Cli, Flag};
use llmsched_bench::{run_policy, write_csv, ExperimentConfig, Policy, Table, TrainedArtifacts};
use llmsched_core::prelude::*;
use llmsched_workloads::prelude::*;

fn main() {
    let quick = Cli::new("fig10_ablation", &[Flag::switch("--quick")])
        .parse()
        .has("--quick");
    let n_jobs = if quick { 120 } else { 300 };
    let per_app = if quick {
        150
    } else {
        llmsched_bench::roster::DEFAULT_TRAINING_PER_APP
    };
    let art = TrainedArtifacts::train(per_app, 1);

    let mut table = Table::new(vec!["workload", "variant", "avg_jct_s", "norm_jct"]);
    println!("Fig. 10 — ablation (normalized to full LLMSched):");
    for kind in WorkloadKind::ALL {
        let exp = ExperimentConfig {
            n_jobs,
            ..ExperimentConfig::paper_default(kind, 42)
        };
        let variants = [
            Policy::LlmSched,
            Policy::LlmSchedNoBn,
            Policy::LlmSchedNoUncertainty,
        ];
        let jcts =
            llmsched_bench::sweep::map(&variants, |&p| run_policy(&art, p, &exp).avg_jct_secs());
        let (full, no_bn, no_unc) = (jcts[0], jcts[1], jcts[2]);
        println!(
            "  {:<11} full {:>7.1}s | w/o BN {:>7.1}s ({:+.0}%) | w/o uncertainty {:>7.1}s ({:+.0}%)",
            kind.name(),
            full,
            no_bn,
            (no_bn / full - 1.0) * 100.0,
            no_unc,
            (no_unc / full - 1.0) * 100.0,
        );
        for (name, v) in [
            ("LLMSched", full),
            ("LLMSched w/o BN", no_bn),
            ("LLMSched w/o uncertainty", no_unc),
        ] {
            table.row(vec![
                kind.name().to_string(),
                name.to_string(),
                format!("{v:.2}"),
                format!("{:.4}", v / full),
            ]);
        }
    }
    println!("wrote {}", write_csv(&table, "fig10").display());

    // --- Extra design-choice ablation (DESIGN.md §4) --------------------
    println!("\nBN structure-learner ablation (Mixed):");
    let templates = all_templates();
    let corpus = training_jobs(&AppKind::ALL, per_app, 1);
    for (label, learner) in [
        ("hill-climb BIC", StructureLearner::HillClimb),
        ("Chow-Liu tree", StructureLearner::ChowLiu),
    ] {
        let cfg = ProfilerConfig { learner };
        let profiler = Profiler::train(&templates, &corpus, &cfg);
        let mut sched = LlmSched::new(profiler, LlmSchedConfig::default());
        let w = generate_workload(WorkloadKind::Mixed, n_jobs, 0.9, 42);
        let r = llmsched_sim::engine::simulate(
            &WorkloadKind::Mixed.default_cluster(),
            &w.templates,
            w.jobs,
            &mut sched,
        );
        println!("  {label:<22} avg JCT {:>7.1}s", r.avg_jct_secs());
    }
}
