//! Model tests for the CSR arenas: seeded random sweeps pin [`CsrDag`]
//! and the [`JobSpec`] reveal/children/task arenas against naive
//! `Vec<Vec<_>>` reference implementations (what the pre-arena layout
//! computed), including duplicate-edge suppression and insertion order.

use llmsched_dag::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The naive adjacency model the arena replaced: per-node `Vec`s with
/// first-insertion-wins duplicate suppression.
struct NaiveDag {
    succ: Vec<Vec<u32>>,
    pred: Vec<Vec<u32>>,
}

impl NaiveDag {
    fn from_edges(n: usize, edges: &[(u32, u32)]) -> Self {
        let mut succ = vec![Vec::new(); n];
        let mut pred = vec![Vec::new(); n];
        for &(u, v) in edges {
            if !succ[u as usize].contains(&v) {
                succ[u as usize].push(v);
                pred[v as usize].push(u);
            }
        }
        NaiveDag { succ, pred }
    }

    /// Reference reachability: ascending indices reachable from `u`.
    fn descendants(&self, u: usize) -> Vec<u32> {
        let mut seen = vec![false; self.succ.len()];
        let mut stack = vec![u];
        while let Some(x) = stack.pop() {
            for &v in &self.succ[x] {
                if !seen[v as usize] {
                    seen[v as usize] = true;
                    stack.push(v as usize);
                }
            }
        }
        (0..self.succ.len() as u32)
            .filter(|&v| seen[v as usize])
            .collect()
    }

    /// Reference critical path without a topological sort: the heaviest
    /// path ending at each node, by memoized recursion over predecessors,
    /// maximized over nodes. Each step adds the node's weight to the best
    /// predecessor value, the same additions in the same order as a
    /// forward relaxation, so the result is bit-identical.
    fn critical_path(&self, weight: &[f64]) -> f64 {
        fn ending_at(g: &NaiveDag, w: &[f64], v: usize, memo: &mut [Option<f64>]) -> f64 {
            if let Some(x) = memo[v] {
                return x;
            }
            let mut best = 0.0f64;
            for &u in &g.pred[v] {
                best = best.max(ending_at(g, w, u as usize, memo));
            }
            let x = best + w[v];
            memo[v] = Some(x);
            x
        }
        let mut memo = vec![None; self.succ.len()];
        (0..self.succ.len())
            .map(|v| ending_at(self, weight, v, &mut memo))
            .fold(0.0, f64::max)
    }
}

/// Random edge list over `n` nodes, with deliberate duplicates. Edges are
/// generated forward (`u < v`) so the graph is acyclic and usable for the
/// order-sensitive queries too.
fn random_edges(rng: &mut StdRng, n: usize) -> Vec<(u32, u32)> {
    let m = rng.gen_range(0..(n * 2).max(1));
    let mut edges = Vec::with_capacity(m);
    for _ in 0..m {
        if n < 2 {
            break;
        }
        let u = rng.gen_range(0..n as u32 - 1);
        let v = rng.gen_range(u + 1..n as u32);
        edges.push((u, v));
        if rng.gen_bool(0.2) {
            edges.push((u, v)); // duplicate: both models must suppress it
        }
    }
    edges
}

#[test]
fn csr_adjacency_matches_naive_model_on_random_dags() {
    for case in 0..200u64 {
        let mut rng = StdRng::seed_from_u64(0xC5A0 + case);
        let n = rng.gen_range(1..24usize);
        let edges = random_edges(&mut rng, n);
        let csr = CsrDag::from_edges(n, &edges);
        let naive = NaiveDag::from_edges(n, &edges);
        assert_eq!(csr.len(), n);
        for u in 0..n {
            assert_eq!(
                csr.successors(u),
                naive.succ[u].as_slice(),
                "case {case}: successors of {u} diverged"
            );
            assert_eq!(
                csr.predecessors(u),
                naive.pred[u].as_slice(),
                "case {case}: predecessors of {u} diverged"
            );
            assert_eq!(csr.out_degree(u), naive.succ[u].len());
            assert_eq!(csr.descendants(u), naive.descendants(u), "case {case}");
        }
        // Forward-only edges: always acyclic, topo order must exist and
        // respect every edge.
        let order = csr.topo_order().expect("forward edge lists are acyclic");
        let pos: Vec<usize> = {
            let mut p = vec![0; n];
            for (i, &v) in order.iter().enumerate() {
                p[v as usize] = i;
            }
            p
        };
        for &(u, v) in &edges {
            assert!(
                pos[u as usize] < pos[v as usize],
                "case {case}: order violates {u}->{v}"
            );
        }
        let weights: Vec<f64> = (0..n).map(|_| rng.gen_range(0.0..10.0)).collect();
        assert_eq!(
            csr.critical_path(&weights).to_bits(),
            naive.critical_path(&weights).to_bits(),
            "case {case}: weighted critical paths diverged"
        );
    }
}

#[test]
fn csr_matches_builder_dag_on_random_graphs() {
    // The stage graph `TemplateBuilder::build` stores must be the CSR of
    // the builder's edge list, duplicates and insertion order included.
    for case in 0..100u64 {
        let mut rng = StdRng::seed_from_u64(0xD1A6 + case);
        let n = rng.gen_range(1..16usize);
        let edges = random_edges(&mut rng, n);
        let mut b = TemplateBuilder::new(AppId(0), "random");
        for i in 0..n {
            b.regular(format!("s{i}"));
        }
        for &(u, v) in &edges {
            b.edge(StageId(u), StageId(v));
        }
        let template = b.build().expect("forward edge lists are acyclic");
        let builder = template.dag();
        let csr = CsrDag::from_edges(n, &edges);
        let naive = NaiveDag::from_edges(n, &edges);
        assert_eq!(builder.len(), n);
        for u in 0..n {
            assert_eq!(builder.successors(u), csr.successors(u), "case {case}");
            assert_eq!(
                builder.predecessors(u),
                naive.pred[u].as_slice(),
                "case {case}"
            );
        }
        assert_eq!(builder.topo_order(), csr.topo_order(), "case {case}");
        let weights: Vec<f64> = (0..n).map(|_| rng.gen_range(0.0..10.0)).collect();
        assert_eq!(
            builder.critical_path(&weights).to_bits(),
            naive.critical_path(&weights).to_bits(),
            "case {case}: weighted critical paths diverged"
        );
    }
}

/// Builds a padded-chain job spec with `iters` revealed iterations, then
/// checks the reveal / task arenas against naive scans over the stages.
#[test]
fn jobspec_arenas_match_naive_scans() {
    for case in 0..50u64 {
        let mut rng = StdRng::seed_from_u64(0xA3E0 + case);
        let iters = rng.gen_range(2..6usize);
        let mut b = TemplateBuilder::new(AppId(0), "chain_model");
        let mut prev: Option<StageId> = None;
        let mut ids = Vec::new();
        for i in 0..iters {
            let g = b.llm(format!("gen{i}"));
            let e = b.regular(format!("exec{i}"));
            b.edge(g, e);
            if let Some(p) = prev {
                b.edge(p, g);
                b.revealed_by(g, p);
                b.revealed_by(e, p);
            }
            prev = Some(e);
            ids.push((g, e));
        }
        let t = b.build().expect("valid chain template");
        let executed = rng.gen_range(1..=iters);
        let stages: Vec<StageSpec> = ids
            .iter()
            .enumerate()
            .flat_map(|(i, &_ids)| {
                let runs = i < executed;
                let reveal = (i > 0).then(|| ids[i - 1].1);
                let n_tasks = rng.gen_range(1..4usize);
                let llm = StageSpec {
                    executed: runs,
                    revealed_by: reveal,
                    tasks: if runs {
                        vec![
                            TaskWork::Llm {
                                prompt_tokens: 5,
                                output_tokens: 10
                            };
                            n_tasks
                        ]
                    } else {
                        vec![]
                    },
                    ..StageSpec::executing(format!("gen{i}"), StageKind::Llm, vec![])
                };
                let reg = StageSpec {
                    executed: runs,
                    revealed_by: reveal,
                    tasks: if runs {
                        vec![TaskWork::Regular {
                            duration: SimDuration::from_millis(100),
                        }]
                    } else {
                        vec![]
                    },
                    ..StageSpec::executing(format!("exec{i}"), StageKind::Regular, vec![])
                };
                [llm, reg]
            })
            .collect();
        let spec = JobSpec::new(JobId(case), &t, SimTime::ZERO, stages, vec![]).expect("valid job");

        // Reveal arena vs naive scan.
        for s in 0..spec.len() as u32 {
            let sid = StageId(s);
            let naive: Vec<StageId> = (0..spec.len() as u32)
                .map(StageId)
                .filter(|&r| spec.stage(r).revealed_by == Some(sid))
                .collect();
            assert_eq!(spec.revealed_by(sid), naive.as_slice(), "case {case}");
            let naive_children: Vec<StageId> = (0..spec.len() as u32)
                .map(StageId)
                .filter(|&r| spec.stage(r).parent_dynamic == Some(sid))
                .collect();
            assert_eq!(spec.children_of_dynamic(sid), naive_children.as_slice());
            // Task arena vs the per-stage vectors.
            assert_eq!(spec.stage_tasks(sid), spec.stage(sid).tasks.as_slice());
            assert_eq!(spec.task_range(sid).len(), spec.stage(sid).tasks.len());
            for (k, &w) in spec.stage(sid).tasks.iter().enumerate() {
                assert_eq!(spec.task_work(sid, k as u32), w);
            }
        }
        let total: usize = (0..spec.len() as u32)
            .map(|s| spec.stage(StageId(s)).tasks.len())
            .sum();
        assert_eq!(spec.total_tasks(), total);
    }
}
