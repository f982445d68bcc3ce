//! **Fig. 5** — Pearson-correlation heatmaps of stage durations for
//! (a) sequence sorting and (b) code generation.
//!
//! The paper reports e.g. corr(S0, S3) ≈ 0.7 for sorting and
//! corr(S3, S6) ≈ 0.9 for code generation (unexecuted stages count as 0 s,
//! footnote 2). Writes `results/fig5{a,b}.csv`.
//!
//! Usage: `cargo run --release -p llmsched-bench --bin fig5_heatmap [--quick]`

use llmsched_bayes::stats::pearson_matrix;
use llmsched_bench::cli::{Cli, Flag};
use llmsched_bench::{write_csv, Table};
use llmsched_dag::ids::JobId;
use llmsched_dag::time::{SimDuration, SimTime};
use llmsched_workloads::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn heatmap(kind: AppKind, n_jobs: usize, seed: u64) -> Vec<Vec<f64>> {
    let per_token = SimDuration::from_secs_f64(NOMINAL_PER_TOKEN_SECS);
    let g = kind.generator();
    let mut rng = StdRng::seed_from_u64(seed);
    let n_stages = g.template().len();
    let mut cols: Vec<Vec<f64>> = vec![Vec::with_capacity(n_jobs); n_stages];
    for i in 0..n_jobs {
        let j = g.generate(JobId(i as u64), SimTime::ZERO, &mut rng);
        for (s, d) in j
            .template_stage_durations_secs(per_token)
            .iter()
            .enumerate()
        {
            cols[s].push(*d);
        }
    }
    pearson_matrix(&cols)
}

fn print_and_save(name: &str, label: &str, m: &[Vec<f64>]) {
    println!("Fig. 5{label} — {name} stage-duration Pearson matrix:");
    print!("      ");
    for j in 0..m.len() {
        print!("S{j:<5}");
    }
    println!();
    let header: Vec<String> = std::iter::once("stage".to_string())
        .chain((0..m.len()).map(|j| format!("S{j}")))
        .collect();
    let mut t = Table::new(header);
    for (i, row) in m.iter().enumerate() {
        print!("S{i:<4} ");
        let mut cells = vec![format!("S{i}")];
        for v in row {
            print!("{v:>5.2} ");
            cells.push(format!("{v:.3}"));
        }
        println!();
        t.row(cells);
    }
    write_csv(&t, &format!("fig5{label}"));
    println!();
}

fn main() {
    let quick = Cli::new("fig5_heatmap", &[Flag::switch("--quick")])
        .parse()
        .has("--quick");
    let n = if quick { 150 } else { 500 };

    let sorting = heatmap(AppKind::SequenceSorting, n, 2);
    print_and_save("sequence sorting", "a", &sorting);
    println!(
        "  corr(S0, S3) = {:.2}   (paper: ~0.7)\n  corr(S0, S9) = {:.2}\n",
        sorting[0][3], sorting[0][9]
    );

    let codegen = heatmap(AppKind::CodeGeneration, n * 2, 3);
    print_and_save("code generation", "b", &codegen);
    // Stage ids: 1 = code gen 1, 4 = code gen 2 (paper's S3/S6 use its own
    // numbering; the claim is that successive code-gen stages correlate
    // at ~0.9).
    println!(
        "  corr(code gen 1, code gen 2) = {:.2}   (paper: ~0.9)\n  corr(reflex 2, code gen 2) = {:.2}",
        codegen[1][4], codegen[3][4]
    );
}
