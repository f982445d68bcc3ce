//! **Fig. 1** — workload characterization of three representative compound
//! LLM applications:
//!
//! * (a) job-duration distribution of sequence sorting (paper: 10–300 s);
//! * (b) chain-length distribution of code generation (paper: 3–15);
//! * (c) generated-stage distribution of task automation (paper: 1–8).
//!
//! Prints probability densities per bin (the paper's y-axis) and writes
//! `results/fig1{a,b,c}.csv`.
//!
//! Usage: `cargo run --release -p llmsched-bench --bin fig1_characterization [--quick]`

use llmsched_bayes::stats::Histogram;
use llmsched_bench::cli::{Cli, Flag};
use llmsched_bench::{write_csv, Table};
use llmsched_dag::ids::{JobId, StageId};
use llmsched_dag::time::{SimDuration, SimTime};
use llmsched_workloads::apps::codegen::chain_length;
use llmsched_workloads::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() {
    let quick = Cli::new("fig1_characterization", &[Flag::switch("--quick")])
        .parse()
        .has("--quick");
    let per_token = SimDuration::from_secs_f64(NOMINAL_PER_TOKEN_SECS);
    let mut rng = StdRng::seed_from_u64(1);

    // (a) 500 synthetic sequences (paper's dataset size).
    let n_sort = if quick { 100 } else { 500 };
    let g = AppKind::SequenceSorting.generator();
    let durs: Vec<f64> = (0..n_sort)
        .map(|i| {
            g.generate(JobId(i as u64), SimTime::ZERO, &mut rng)
                .total_nominal_duration(per_token)
                .as_secs_f64()
        })
        .collect();
    let hist = Histogram::new(&durs, 12);
    let mut t = Table::new(vec!["duration_s", "density"]);
    println!("Fig. 1a — sequence sorting job duration ({n_sort} jobs):");
    for (b, d) in hist.densities().iter().enumerate() {
        let c = hist.bin_center(b);
        println!(
            "  {:>6.0}s  {:.4}  {}",
            c,
            d,
            "#".repeat((d * 400.0) as usize)
        );
        t.row(vec![format!("{c:.1}"), format!("{d:.6}")]);
    }
    let lo = durs.iter().copied().fold(f64::INFINITY, f64::min);
    let hi = durs.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    println!("  span: {lo:.0}s … {hi:.0}s   (paper: ~10 … ~300 s)\n");
    write_csv(&t, "fig1a");

    // (b) Chain length on 974 MBPP-like tasks.
    let n_cg = if quick { 200 } else { 974 };
    let g = AppKind::CodeGeneration.generator();
    let mut counts = std::collections::BTreeMap::new();
    for i in 0..n_cg {
        let j = g.generate(JobId(i as u64), SimTime::ZERO, &mut rng);
        *counts.entry(chain_length(&j)).or_insert(0usize) += 1;
    }
    let mut t = Table::new(vec!["chain_length", "density"]);
    println!("Fig. 1b — code generation chain length ({n_cg} jobs):");
    for (len, c) in &counts {
        let d = *c as f64 / n_cg as f64;
        println!(
            "  len {:>2}  {:.3}  {}",
            len,
            d,
            "#".repeat((d * 80.0) as usize)
        );
        t.row(vec![len.to_string(), format!("{d:.4}")]);
    }
    println!(
        "  support: {:?}   (paper: 3 … 15)\n",
        counts.keys().collect::<Vec<_>>()
    );
    write_csv(&t, "fig1b");

    // (c) Generated stages in task automation.
    let n_ta = if quick { 500 } else { 3000 };
    let g = AppKind::TaskAutomation.generator();
    let mut counts = std::collections::BTreeMap::new();
    for i in 0..n_ta {
        let j = g.generate(JobId(i as u64), SimTime::ZERO, &mut rng);
        *counts
            .entry(j.children_of_dynamic(StageId(1)).len())
            .or_insert(0usize) += 1;
    }
    let mut t = Table::new(vec!["generated_stages", "density"]);
    println!("Fig. 1c — task automation generated stages ({n_ta} jobs):");
    for (m, c) in &counts {
        let d = *c as f64 / n_ta as f64;
        println!(
            "  m = {:>2}  {:.3}  {}",
            m,
            d,
            "#".repeat((d * 80.0) as usize)
        );
        t.row(vec![m.to_string(), format!("{d:.4}")]);
    }
    println!(
        "  support: {:?}   (paper: 1 … 8)",
        counts.keys().collect::<Vec<_>>()
    );
    write_csv(&t, "fig1c");
}
