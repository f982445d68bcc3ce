//! **Fig. 9** — sensitivity analysis of LLMSched:
//!
//! * (a) exploration probability ε sweep (paper: U-shaped normalized JCT —
//!   a balance between exploration and exploitation);
//! * (b) task sampling ratio r sweep (paper: U-shaped — too small is
//!   inaccurate, too large delays small jobs);
//! * (c) job arrival rate λ ∈ {0.6, 0.9, 1.2} per workload (normalized to
//!   λ = 0.9).
//!
//! Writes `results/fig9{a,b,c}.csv`.
//!
//! Usage: `cargo run --release -p llmsched-bench --bin fig9_sensitivity [--quick]`

use llmsched_bench::cli::{Cli, Flag};
use llmsched_bench::{run_policy, write_csv, ExperimentConfig, Policy, Table, TrainedArtifacts};
use llmsched_core::prelude::LlmSchedConfig;
use llmsched_workloads::prelude::WorkloadKind;

fn main() {
    let quick = Cli::new("fig9_sensitivity", &[Flag::switch("--quick")])
        .parse()
        .has("--quick");
    let n_jobs = if quick { 120 } else { 300 };
    let art = TrainedArtifacts::train(
        if quick {
            150
        } else {
            llmsched_bench::roster::DEFAULT_TRAINING_PER_APP
        },
        1,
    );
    let base = |kind, seed| ExperimentConfig {
        n_jobs,
        ..ExperimentConfig::paper_default(kind, seed)
    };

    // --- (a) ε sweep on the Planning workload (the mix where exploration
    //     has the most to reveal; the Mixed curve is flatter). -----------
    println!("Fig. 9a — exploration probability ε (Planning, normalized):");
    let eps_values = [0.0, 0.2, 0.4, 0.6, 0.8, 1.0];
    let jcts = llmsched_bench::sweep::map(&eps_values, |&eps| {
        let exp = ExperimentConfig {
            llmsched: Some(LlmSchedConfig {
                epsilon: eps,
                ..Default::default()
            }),
            ..base(WorkloadKind::Planning, 42)
        };
        run_policy(&art, Policy::LlmSched, &exp).avg_jct_secs()
    });
    let best = jcts.iter().copied().fold(f64::INFINITY, f64::min);
    let mut t = Table::new(vec!["epsilon", "avg_jct_s", "norm_jct"]);
    for (&eps, &j) in eps_values.iter().zip(&jcts) {
        println!("  eps {eps:>3.1}: {j:>7.1}s  norm {:.3}", j / best);
        t.row(vec![
            format!("{eps}"),
            format!("{j:.2}"),
            format!("{:.4}", j / best),
        ]);
    }
    write_csv(&t, "fig9a");

    // --- (b) sampling ratio r sweep -----------------------------------
    println!("\nFig. 9b — task sampling ratio r (Mixed, normalized):");
    let r_values = [0.1, 0.2, 0.4, 0.6, 0.8, 1.0];
    let jcts = llmsched_bench::sweep::map(&r_values, |&r| {
        let exp = ExperimentConfig {
            llmsched: Some(LlmSchedConfig {
                sampling_ratio: r,
                ..Default::default()
            }),
            ..base(WorkloadKind::Mixed, 42)
        };
        run_policy(&art, Policy::LlmSched, &exp).avg_jct_secs()
    });
    let best = jcts.iter().copied().fold(f64::INFINITY, f64::min);
    let mut t = Table::new(vec!["sampling_ratio", "avg_jct_s", "norm_jct"]);
    for (&r, &j) in r_values.iter().zip(&jcts) {
        println!("  r {r:>3.1}: {j:>7.1}s  norm {:.3}", j / best);
        t.row(vec![
            format!("{r}"),
            format!("{j:.2}"),
            format!("{:.4}", j / best),
        ]);
    }
    write_csv(&t, "fig9b");

    // --- (c) arrival rate λ per workload, normalized to λ = 0.9 --------
    println!("\nFig. 9c — arrival rate λ (normalized to 0.9 per workload):");
    let mut t = Table::new(vec!["workload", "lambda", "avg_jct_s", "norm_jct"]);
    let lambdas = [0.6, 0.9, 1.2];
    for kind in WorkloadKind::ALL {
        let js = llmsched_bench::sweep::map(&lambdas, |&lambda| {
            let exp = ExperimentConfig {
                lambda,
                ..base(kind, 42)
            };
            run_policy(&art, Policy::LlmSched, &exp).avg_jct_secs()
        });
        // Normalize to the λ = 0.9 run (index 1).
        let ref_jct = js[1];
        print!("  {:<11}", kind.name());
        for (&lambda, &j) in lambdas.iter().zip(&js) {
            print!("  λ={lambda}: {:>6.2}", j / ref_jct);
            t.row(vec![
                kind.name().to_string(),
                format!("{lambda}"),
                format!("{j:.2}"),
                format!("{:.4}", j / ref_jct),
            ]);
        }
        println!();
    }
    write_csv(&t, "fig9c");
}
