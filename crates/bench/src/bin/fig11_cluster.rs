//! **Fig. 11** (extension) — cluster-scale serving sweep: replica-pool
//! shapes × routing policies × arrival processes, on both the aggregated
//! heterogeneous replica table (`EngineMode::Analytic` with an explicit
//! spec) and the disaggregated prefill/decode backend.
//!
//! Every sweep point runs the same FCFS policy on the same seeded
//! workload, so differences isolate the *serving substrate*: how much
//! tail latency a routing policy buys under bursty (MMPP) and diurnal
//! arrivals, and what the prefill/decode split costs or saves per shape.
//! Points run on parallel threads (one per configuration).
//!
//! Writes `results/fig11_cluster.csv`.
//!
//! Usage: `cargo run --release -p llmsched-bench --bin fig11_cluster
//!         [--quick] [--jobs N] [--slo SECS] [--trace <prefix>]
//!         [--timeseries]`
//!
//! `--trace` re-runs the first sweep point with a recording probe and
//! exports `<prefix>.jsonl` + `<prefix>.trace.json` (Perfetto-loadable,
//! with routing/batch-occupancy tracks); `--timeseries` prints its
//! windowed tail-latency/SLO trajectory.

use llmsched_bench::cli::{Cli, Flag};
use llmsched_bench::{jct_summary_cells, write_csv, Table, JCT_SUMMARY_HEADER};
use llmsched_dag::time::SimDuration;
use llmsched_schedulers::prelude::Fcfs;
use llmsched_sim::prelude::*;
use llmsched_workloads::prelude::*;

/// A named replica-pool shape (decode groups only; disagg runs prepend a
/// prefill pool).
struct Shape {
    name: &'static str,
    groups: Vec<ReplicaGroup>,
}

/// The reference curve slowed by `factor` — an older GPU SKU.
fn slowed(factor: u64) -> LatencyProfile {
    let points = LatencyProfile::default()
        .points()
        .iter()
        .map(|&(b, l)| (b, l * factor))
        .collect();
    LatencyProfile::new(points).expect("scaled curve stays monotone")
}

fn shapes() -> Vec<Shape> {
    vec![
        Shape {
            name: "2x8",
            groups: vec![ReplicaGroup::new("pool", 2, 8, LatencyProfile::default())],
        },
        Shape {
            name: "4x4",
            groups: vec![ReplicaGroup::new("pool", 4, 4, LatencyProfile::default())],
        },
        Shape {
            name: "hetero",
            groups: vec![
                ReplicaGroup::new("fast", 1, 8, LatencyProfile::default()),
                ReplicaGroup::new("slow", 3, 4, slowed(2)),
            ],
        },
    ]
}

/// One sweep point: everything needed to build and run a simulation.
struct Point {
    shape: &'static str,
    routing: RoutingPolicy,
    arrivals: ArrivalProcess,
    mode: EngineMode,
    spec: ClusterSpec,
}

fn main() {
    let args = Cli::new(
        "fig11_cluster",
        &[
            Flag::switch("--quick"),
            Flag::value("--jobs", "n"),
            Flag::value("--slo", "secs"),
            Flag::optional("--trace", "prefix"),
            Flag::switch("--timeseries"),
        ],
    )
    .parse();
    let quick = args.has("--quick");
    let n_jobs: usize = args.get("--jobs").unwrap_or(if quick { 40 } else { 150 });
    let slo = SimDuration::from_secs_f64(args.get("--slo").unwrap_or(60.0));
    let trace: Option<String> = args
        .value_or("--trace", "results/fig11_trace")
        .map(str::to_string);
    let timeseries = args.has("--timeseries");
    let seed = 42u64;

    let arrival_processes = [ArrivalProcess::bursty(0.9), ArrivalProcess::diurnal(0.9)];

    // Build the cartesian sweep: shape × routing × arrivals × backend.
    let mut points = Vec::new();
    for shape in shapes() {
        for routing in RoutingPolicy::ALL {
            for arrivals in arrival_processes {
                let agg = ClusterSpec::new(shape.groups.clone(), routing);
                points.push(Point {
                    shape: shape.name,
                    routing,
                    arrivals,
                    mode: EngineMode::Analytic,
                    spec: agg,
                });
                let mut groups = vec![ReplicaGroup::new(
                    "prefill",
                    1,
                    1,
                    LatencyProfile::default(),
                )];
                groups.extend(shape.groups.clone());
                let mut disagg = ClusterSpec::new(groups, routing);
                disagg.disagg = Some(DisaggSpec::with_defaults(0));
                points.push(Point {
                    shape: shape.name,
                    routing,
                    arrivals,
                    mode: EngineMode::Disagg,
                    spec: disagg,
                });
            }
        }
    }

    println!(
        "fig11_cluster: {} sweep points ({} jobs each, SLO {}s), running on parallel threads",
        points.len(),
        n_jobs,
        slo.as_secs_f64()
    );

    // Bounded worker pool; results come back in sweep order.
    let results: Vec<SimResult> = llmsched_bench::sweep::map(&points, |p| {
        let w = generate_workload_with(WorkloadKind::Mixed, n_jobs, &p.arrivals, seed);
        let cfg = ClusterConfig {
            regular_executors: 4,
            mode: p.mode,
            spec: Some(p.spec.clone()),
            ..ClusterConfig::default()
        };
        simulate(&cfg, &w.templates, w.jobs, &mut Fcfs::new())
    });

    let mut header = vec!["shape", "routing", "arrivals", "backend"];
    header.extend(JCT_SUMMARY_HEADER);
    header.push("events");
    let mut table = Table::new(header);
    for (p, r) in points.iter().zip(&results) {
        assert_eq!(r.incomplete, 0, "{} {} stranded jobs", p.shape, r.backend);
        let mut row = vec![
            p.shape.to_string(),
            p.routing.name().to_string(),
            p.arrivals.name().to_string(),
            r.backend.clone(),
        ];
        row.extend(jct_summary_cells(r, slo));
        row.push(r.events.to_string());
        table.row(row);
    }
    println!("{}", table.render());

    // Headline: best routing policy per (shape, arrivals) on p99.
    let p99s: Vec<f64> = results.iter().map(|r| r.jct_percentiles().p99).collect();
    for shape in shapes() {
        for arrivals in arrival_processes {
            let (p, r, p99) = points
                .iter()
                .zip(results.iter().zip(&p99s))
                .filter(|(p, _)| p.shape == shape.name && p.arrivals == arrivals)
                .map(|(p, (r, &p99))| (p, r, p99))
                .min_by(|a, b| a.2.partial_cmp(&b.2).expect("finite p99"))
                .expect("non-empty sweep");
            println!(
                "best p99 on {}/{}: {} + {} ({:.1}s)",
                shape.name,
                arrivals.name(),
                r.backend,
                p.routing.name(),
                p99
            );
        }
    }

    let path = write_csv(&table, "fig11_cluster");
    println!("wrote {}", path.display());

    // Probed re-run of the first sweep point (routing + batch-occupancy
    // tracks are the cluster-specific payoff; FCFS keeps no posterior
    // state, so no provenance records are expected).
    if trace.is_some() || timeseries {
        let p = &points[0];
        let mut rec = TraceRecorder::new(TraceConfig {
            window: Some(WindowConfig::new(SimDuration::from_secs(30), slo)),
        });
        let w = generate_workload_with(WorkloadKind::Mixed, n_jobs, &p.arrivals, seed);
        let cfg = ClusterConfig {
            regular_executors: 4,
            mode: p.mode,
            spec: Some(p.spec.clone()),
            ..ClusterConfig::default()
        };
        let r = simulate_probed(&cfg, &w.templates, w.jobs, &mut Fcfs::new(), &mut rec);
        assert_eq!(r.incomplete, 0, "probed run stranded jobs");
        println!(
            "probed run ({}/{}/{}): {} probe events",
            p.shape,
            p.routing.name(),
            p.arrivals.name(),
            rec.events().len()
        );
        if timeseries {
            let ts = r
                .timeseries
                .as_ref()
                .expect("probed run aggregates windows");
            llmsched_bench::print_timeseries(ts);
        }
        if let Some(prefix) = &trace {
            llmsched_bench::export_trace_or_die(prefix, &rec, &r, false);
        }
    }
}
