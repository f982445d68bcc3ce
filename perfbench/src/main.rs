//! `perfbench`: the repository's benchmark binary. It generates one named
//! workload from a seed, runs `llmsched_sim::engine::simulate` on it
//! repeatedly for a fixed host-time budget, checks that every repeat is
//! correct and bit-identical, and prints its metrics. README.md explains
//! the workloads, the metrics and the layer map.
//!
//! Usage (normally through `run.py`, which builds this package first):
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//!           [--trace-out <dir>] [--git-sha <sha>] [--rustc <version>]
//! ```
//!
//! With `--trace 0` the last output line carries the end-to-end metrics;
//! with `--trace 1` it carries the per-layer metrics of a traced run and
//! the span file is written to `--trace-out`. The process exits non-zero
//! if any correctness check fails.

mod alloc;
mod measure;
mod placement;
mod trace;
mod workload;

use std::path::PathBuf;
use std::time::Instant;

use llmsched_schedulers::prelude::Fcfs;
use llmsched_sim::telemetry::json;

use measure::{fastest, median, Checks, Measured};
use trace::Spans;
use workload::{Trained, Workload};

#[global_allocator]
static GLOBAL: alloc::Counting = alloc::Counting;

/// Set-up repetitions per run; `setup_s` is their median.
const SETUP_REPS: usize = 15;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    trace_out: PathBuf,
    git_sha: String,
    rustc: String,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut trace_out = PathBuf::from(".bench_build/perfbench");
    let mut git_sha = "unknown".to_string();
    let mut rustc = "unknown".to_string();
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(&value).ok_or_else(|| {
                    let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
                    format!("unknown workload {value:?}; expected one of {names:?}")
                })?);
            }
            "--seed" => seed = Some(value.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s.is_finite() && s > 0.0) {
                    return Err(format!("--seconds must be positive, got {value}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got {value}")),
                });
            }
            "--trace-out" => trace_out = PathBuf::from(value),
            "--git-sha" => git_sha = value,
            "--rustc" => rustc = value,
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        trace_out,
        git_sha,
        rustc,
    })
}

/// Peak resident set size of this process, in MB (10^6 bytes).
fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib * 1024.0 / 1e6)
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string())
}

/// Host seconds of every timed set-up.
#[derive(Default)]
struct SetupTimes {
    total: Vec<f64>,
    generate: Vec<f64>,
    train: Vec<f64>,
}

impl SetupTimes {
    fn time(&mut self, w: Workload, seed: u64) -> workload::Setup {
        let s = w.setup(seed);
        self.generate.push((s.generated - s.started).as_secs_f64());
        self.train.push((s.trained_at - s.generated).as_secs_f64());
        self.total.push((s.trained_at - s.started).as_secs_f64());
        s
    }
}

/// A named metric with its unit.
struct Metric {
    name: &'static str,
    unit: &'static str,
    value: f64,
}

fn metric(name: &'static str, unit: &'static str, value: f64) -> Metric {
    Metric { name, unit, value }
}

fn metrics_json(ms: &[Metric]) -> String {
    let cells: Vec<String> = ms
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                json::escape(m.name),
                json::num(m.value),
                json::escape(m.unit)
            )
        })
        .collect();
    format!("{{{}}}", cells.join(", "))
}

fn print_table(title: &str, ms: &[Metric]) {
    println!("{title}");
    for m in ms {
        println!("  {:<32} {:>16.6} {}", m.name, m.value, m.unit);
    }
}

/// `a / b`, or 0 when there is nothing to divide by.
fn ratio(a: f64, b: f64) -> f64 {
    if b > 0.0 {
        a / b
    } else {
        0.0
    }
}

/// The nearest-rank `p`-quantile of a sorted, non-empty sample, as
/// `SimResult` computes its percentiles.
fn nearest_rank(sorted: &[f64], p: f64) -> f64 {
    sorted[((p * (sorted.len() - 1) as f64).round() as usize).min(sorted.len() - 1)]
}

fn end_to_end(m: &Measured, n: usize, setup_s: &[f64], rss: f64) -> Vec<Metric> {
    // Each instance's call at its fastest: the fastest call's time outside
    // the scheduler plus every scheduler invocation at its fastest.
    let fastest_calls: f64 = m
        .instances
        .iter()
        .map(|run| {
            fastest(&run.untraced, |r| r.engine).engine
                + run
                    .fastest_decisions
                    .iter()
                    .map(std::time::Duration::as_secs_f64)
                    .sum::<f64>()
        })
        .sum();
    let sorted = |v: Vec<f64>| {
        let mut v = v;
        v.sort_by(|a, b| a.partial_cmp(b).expect("finite sample"));
        v
    };
    let jcts = sorted(
        m.instances
            .iter()
            .flat_map(|r| r.jcts.iter().copied())
            .collect(),
    );
    let decisions_us = sorted(
        m.instances
            .iter()
            .flat_map(|r| r.fastest_decisions.iter().map(|d| d.as_secs_f64() * 1e6))
            .collect(),
    );
    vec![
        metric(
            "jobs_per_s",
            "1/s",
            (n * m.instances.len()) as f64 / fastest_calls,
        ),
        // Every invocation of every instance, each at its fastest.
        metric("decision_p50_us", "us", nearest_rank(&decisions_us, 0.50)),
        metric("decision_p99_us", "us", nearest_rank(&decisions_us, 0.99)),
        metric(
            "avg_jct_s",
            "s",
            jcts.iter().sum::<f64>() / jcts.len() as f64,
        ),
        metric("p99_jct_s", "s", nearest_rank(&jcts, 0.99)),
        metric("setup_s", "s", median(setup_s)),
        metric("peak_rss_mb", "MB", rss),
    ]
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let origin = Instant::now();
    let w = args.workload;
    let n = w.jobs();

    // Set-up: generation plus training. The first one is used; the
    // others are timed between measurement rotations, so that one burst
    // of load from other tenants cannot slow them all.
    let mut times = SetupTimes::default();
    let setup = times.time(w, args.seed);
    let k = setup.instances.len();
    let n_total = n * k;

    let manifest = format!(
        "{{\"git_sha\": \"{}\", \"rustc\": \"{}\", \"cpu\": \"{}\", \"nproc\": {}, \
         \"workload\": \"{}\", \"seed\": {}, \"instances\": {k}, \"jobs_per_instance\": {n}, \
         \"training_jobs_per_app\": {}, \"lambda\": {}, \"cluster_scale\": {}, \
         \"seconds\": {}, \"setup_reps\": {SETUP_REPS}}}",
        json::escape(&args.git_sha),
        json::escape(&args.rustc),
        json::escape(&cpu_model()),
        std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get),
        w.name(),
        args.seed,
        if setup.policies[0].is_llmsched() {
            workload::TRAINING_PER_APP
        } else {
            0
        },
        json::num(workload::LAMBDA),
        workload::CLUSTER_SCALE,
        json::num(args.seconds),
    );
    println!("manifest {manifest}");

    let cfgs: Vec<_> = (0..k).map(|i| w.cluster(i)).collect();
    let mut checks = Checks::default();
    let mut more_setups = || {
        if times.total.len() < SETUP_REPS {
            times.time(w, args.seed);
        }
    };
    let m = match &setup.policies[0] {
        Trained::Fcfs => measure::measure(
            &cfgs,
            &setup.instances,
            args.seconds,
            args.trace,
            origin,
            |_| Fcfs::new(),
            |_| 0,
            &mut checks,
            &mut more_setups,
        ),
        Trained::Frozen(_) | Trained::Online(_) => measure::measure(
            &cfgs,
            &setup.instances,
            args.seconds,
            args.trace,
            origin,
            |k| setup.policies[k].llmsched(),
            workload::store_versions,
            &mut checks,
            &mut more_setups,
        ),
    };
    while times.total.len() < SETUP_REPS {
        times.time(w, args.seed);
    }

    let rss = peak_rss_mb();
    checks.check(rss.is_some(), || {
        "could not read VmHWM from /proc/self/status".into()
    });
    let e2e = end_to_end(&m, n, &times.total, rss.unwrap_or(0.0));
    let fingerprint = m
        .instances
        .iter()
        .fold(0u64, |h, r| h.rotate_left(13) ^ r.reference.fp.hash);
    let first = &m.instances[0].reference;
    println!(
        "workload {}: {k} instances x {n} jobs, {} untraced rounds, schedule fingerprint \
         {fingerprint:016x}, {} decision samples per simulate call on instance 0 ({}), \
         jobs_incomplete_frac {}",
        w.name(),
        m.instances[0].untraced.len(),
        first.decision_samples,
        if first.samples_exact {
            "exact"
        } else {
            "decimated"
        },
        m.failed as f64 / m.attempted as f64,
    );
    for (i, run) in m.instances.iter().enumerate() {
        let walls: Vec<String> = run
            .untraced
            .iter()
            .map(|r| format!("{:.3}", r.wall))
            .collect();
        println!("  instance {i} untraced walls (s): [{}]", walls.join(", "));
    }
    print_table(
        "end-to-end (host time, except *_jct_s in simulated seconds):",
        &e2e,
    );

    let mut per_layer = Vec::new();
    if args.trace {
        let chosen: Vec<&measure::Traced> = m
            .instances
            .iter()
            .map(|run| fastest(&run.traced, |t| t.wall))
            .collect();
        let sum = |f: &dyn Fn(&measure::Traced) -> f64| chosen.iter().map(|t| f(t)).sum::<f64>();
        let fp_sum = |f: &dyn Fn(&measure::Fingerprint) -> u64| {
            m.instances.iter().map(|r| f(&r.reference.fp)).sum::<u64>() as f64
        };
        let probe_sum = |f: &dyn Fn(&trace::CountProbe) -> u64| {
            m.instances
                .iter()
                .map(|r| f(r.probe.as_ref().expect("traced runs probe every instance")))
                .sum::<u64>() as f64
        };
        let nf = n_total as f64;
        let wall = sum(&|t| t.wall);
        let schedule_s = sum(&|t| t.stats.schedule_ns as f64 * 1e-9);
        let on_delta_s = sum(&|t| t.stats.on_delta_ns as f64 * 1e-9);
        let self_s = wall - schedule_s - on_delta_s;
        let calls = sum(&|t| t.stats.calls as f64);
        let deltas = sum(&|t| t.stats.deltas as f64);
        let proposed = sum(&|t| t.stats.proposed as f64);
        let sched_allocs = sum(&|t| t.stats.allocs as f64);
        let events = fp_sum(&|f| f.events);
        let points = fp_sum(&|f| f.decision_points());
        let invocations = fp_sum(&|f| f.sched_calls);
        let admits = probe_sum(&|p| p.batch_admits);
        let tasks: usize = setup
            .instances
            .iter()
            .flat_map(|i| &i.jobs)
            .map(|j| j.stages().iter().map(|s| s.tasks.len()).sum::<usize>())
            .sum();
        per_layer = vec![
            metric("workloads.generate_s", "s", median(&times.generate)),
            metric("workloads.tasks_per_job", "count", tasks as f64 / nf),
            metric("core.profiler.train_s", "s", median(&times.train)),
            metric(
                "core.store.snapshots",
                "count",
                m.instances.iter().map(|r| r.snapshots).sum::<u64>() as f64,
            ),
            metric("scheduler.calls", "count", calls),
            metric("scheduler.schedule_s", "s", schedule_s),
            metric(
                "scheduler.us_per_call",
                "us",
                ratio(schedule_s * 1e6, calls),
            ),
            metric("scheduler.on_delta_s", "s", on_delta_s),
            metric("scheduler.deltas", "count", deltas),
            metric(
                "scheduler.ns_per_delta",
                "ns",
                ratio(on_delta_s * 1e9, deltas),
            ),
            metric("scheduler.proposed_tasks", "count", proposed),
            metric(
                "scheduler.dispatch_yield",
                "ratio",
                ratio(sum(&|t| t.stats.dispatched as f64), proposed),
            ),
            metric(
                "scheduler.wall_share",
                "ratio",
                (schedule_s + on_delta_s) / wall,
            ),
            metric("sim.simulate_s", "s", wall),
            metric("sim.engine.self_s", "s", self_s),
            metric("sim.engine.events", "count", events),
            metric("sim.engine.ns_per_event", "ns", self_s * 1e9 / events),
            metric("sim.engine.events_per_job", "count", events / nf),
            metric("sim.engine.decision_points", "count", points),
            metric("sim.engine.invocations_per_job", "count", invocations / nf),
            metric(
                "sim.engine.skip_ratio",
                "ratio",
                ratio(points - invocations, points),
            ),
            metric("sim.exec.batch_admits", "count", admits),
            metric(
                "sim.exec.mean_admit_occupancy",
                "slots",
                ratio(probe_sum(&|p| p.admit_occupancy), admits),
            ),
            metric("cluster.routed", "count", probe_sum(&|p| p.routed)),
            metric(
                "alloc.scheduler_per_call",
                "count",
                ratio(sched_allocs, calls),
            ),
            metric(
                "alloc.engine_per_job",
                "count",
                (sum(&|t| t.allocs as f64) - sched_allocs) / nf,
            ),
            metric(
                "alloc.peak_live_mb",
                "MB",
                chosen.iter().map(|t| t.peak_live_bytes).max().unwrap_or(0) as f64 / 1e6,
            ),
            metric("trace.overhead", "ratio", nf / wall / e2e[0].value),
        ];
        print_table(
            &format!(
                "per-layer (sums over instances of the fastest traced repeat, \
                 {} traced rounds; trace.overhead = traced / untraced jobs_per_s):",
                m.instances[0].traced.len()
            ),
            &per_layer,
        );

        // Spans: set-up plus each instance's chosen traced repeat.
        let mut spans = Spans::new(origin);
        let root = spans.push("setup", setup.started, setup.trained_at, None);
        spans.push(
            "workloads.generate",
            setup.started,
            setup.generated,
            Some(root),
        );
        spans.push(
            "core.profiler.train",
            setup.generated,
            setup.trained_at,
            Some(root),
        );
        for t in &chosen {
            spans.append(&t.spans);
        }
        println!("spans (count, total s, self s):");
        for (name, count, total, own) in spans.summary() {
            println!("  {name:<24} {count:>9} {total:>12.6} {own:>12.6}");
        }
        let doc = spans.chrome_json(&manifest);
        match json::validate(&doc) {
            Ok(()) => {
                let path = args.trace_out.join(format!("{}.trace.json", w.name()));
                let written = std::fs::create_dir_all(&args.trace_out)
                    .and_then(|()| std::fs::write(&path, &doc));
                checks.check(written.is_ok(), || {
                    format!("could not write {}: {written:?}", path.display())
                });
                println!("wrote {}", path.display());
            }
            Err(e) => checks.check(false, || format!("span export is not valid JSON: {e}")),
        }
    }

    let correct = checks.failures.is_empty();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        m.attempted,
        m.failed,
        metrics_json(if args.trace { &per_layer } else { &e2e }),
    );
    if !correct {
        std::process::exit(1);
    }
}
