//! Property-based tests for the probabilistic substrate: factor algebra,
//! information-theoretic bounds, discretization partitioning and BN
//! posterior sanity.
//!
//! Written as seeded-random sweeps (many cases per property, deterministic
//! per seed) rather than with `proptest`: this workspace builds offline,
//! so the shrinking machinery is traded for reproducible case generation
//! on the vendored [`rand`] subset.

use llmsched_bayes::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Number of random cases checked per property.
const CASES: u64 = 64;

/// A random normalized probability table over `k` values (entries bounded
/// away from zero, like the original `0.01..1.0` strategy).
fn prob_vec(rng: &mut StdRng, k: usize) -> Vec<f64> {
    let v: Vec<f64> = (0..k).map(|_| rng.gen_range(0.01..1.0)).collect();
    let s: f64 = v.iter().sum();
    v.into_iter().map(|x| x / s).collect()
}

/// 0 ≤ H(X) ≤ log₂ k for any distribution over k values.
#[test]
fn entropy_bounds() {
    for seed in 0..CASES {
        let mut rng = StdRng::seed_from_u64(seed);
        let p = prob_vec(&mut rng, 6);
        let h = entropy(&p);
        assert!(h >= 0.0, "seed {seed}: H={h} negative");
        assert!(
            h <= (6f64).log2() + 1e-9,
            "seed {seed}: H={h} above log2(6)"
        );
    }
}

/// Binary entropy is symmetric and maximized at 1/2.
#[test]
fn binary_entropy_properties() {
    for seed in 0..CASES {
        let mut rng = StdRng::seed_from_u64(seed);
        let p: f64 = rng.gen_range(0.0..1.0);
        let h = binary_entropy(p);
        assert!((0.0..=1.0 + 1e-12).contains(&h), "seed {seed}: H_b={h}");
        assert!(
            (h - binary_entropy(1.0 - p)).abs() < 1e-9,
            "seed {seed}: asymmetric at {p}"
        );
        assert!(
            h <= binary_entropy(0.5) + 1e-12,
            "seed {seed}: above the p=1/2 maximum"
        );
    }
}

/// 0 ≤ I(X;Y) ≤ min(H(X), H(Y)) for any joint.
#[test]
fn mutual_information_bounds() {
    for seed in 0..CASES {
        let mut rng = StdRng::seed_from_u64(seed);
        let joint = prob_vec(&mut rng, 12);
        let f = Factor::new(vec![0, 1], vec![3, 4], joint);
        let mi = mutual_information(&f, 0, &[1]);
        let hx = entropy(f.marginalize_to(&[0]).values());
        let hy = entropy(f.marginalize_to(&[1]).values());
        assert!(mi >= -1e-12, "seed {seed}: I={mi} negative");
        assert!(
            mi <= hx.min(hy) + 1e-9,
            "seed {seed}: I={mi} > min(H)={}",
            hx.min(hy)
        );
    }
}

/// Factor product then marginalization is order-independent.
#[test]
fn factor_product_marginal_consistency() {
    for seed in 0..CASES {
        let mut rng = StdRng::seed_from_u64(seed);
        let pa = prob_vec(&mut rng, 3);
        let pb = prob_vec(&mut rng, 4);
        let fa = Factor::new(vec![0], vec![3], pa);
        let fb = Factor::new(vec![1], vec![4], pb.clone());
        let joint = fa.product(&fb);
        // Marginalizing the independent product recovers the operand.
        let back = joint.marginalize_to(&[1]);
        for (x, y) in back.values().iter().zip(&pb) {
            assert!(
                (x - y).abs() < 1e-9,
                "seed {seed}: marginal {x} != operand {y}"
            );
        }
        assert!(
            (joint.sum() - 1.0).abs() < 1e-9,
            "seed {seed}: joint not normalized"
        );
    }
}

/// Discretizer bins partition: every value maps to exactly one valid bin,
/// and a point-mass posterior's expectation equals that bin's mean.
#[test]
fn discretizer_partitions() {
    for seed in 0..CASES {
        let mut rng = StdRng::seed_from_u64(seed);
        let n_samples = rng.gen_range(5..60usize);
        let samples: Vec<f64> = (0..n_samples).map(|_| rng.gen_range(0.0..500.0)).collect();
        let probes: Vec<f64> = (0..20).map(|_| rng.gen_range(-10.0..600.0)).collect();
        let d = Discretizer::fit(&samples, 6);
        assert!(
            d.n_bins() >= 1 && d.n_bins() <= 7,
            "seed {seed}: {} bins",
            d.n_bins()
        );
        for x in samples.iter().chain(&probes) {
            let b = d.bin(*x);
            assert!(
                b < d.n_bins(),
                "seed {seed}: value {x} fell in invalid bin {b}"
            );
        }
        for b in 0..d.n_bins() {
            let mut p = vec![0.0; d.n_bins()];
            p[b] = 1.0;
            assert!(
                (d.expectation(&p) - d.bin_mean(b)).abs() < 1e-9,
                "seed {seed}: point-mass expectation drifted in bin {b}"
            );
        }
    }
}

/// Quantile intervals are nested: a wider tail mass never widens the
/// interval, and the interval is always inside the support.
#[test]
fn quantile_intervals_nested() {
    for seed in 0..CASES {
        let mut rng = StdRng::seed_from_u64(seed);
        let raw = prob_vec(&mut rng, 6);
        let q1: f64 = rng.gen_range(0.0..0.25);
        let q2: f64 = rng.gen_range(0.25..0.49);
        let samples: Vec<f64> = (1..=12).map(|i| i as f64).collect();
        let d = Discretizer::fit(&samples, 6);
        let p = &raw[..d.n_bins().min(raw.len())];
        let p: Vec<f64> = {
            let mut v = p.to_vec();
            while v.len() < d.n_bins() {
                v.push(0.01);
            }
            let s: f64 = v.iter().sum();
            v.into_iter().map(|x| x / s).collect()
        };
        let (lo1, hi1) = d.quantile_interval(&p, q1);
        let (lo2, hi2) = d.quantile_interval(&p, q2);
        assert!(
            lo1 <= lo2 + 1e-9 && hi2 <= hi1 + 1e-9,
            "seed {seed}: tighter q must nest: [{lo2},{hi2}] within [{lo1},{hi1}]"
        );
        assert!(
            lo1 >= 0.0 && hi1 <= 12.0 + 1e-9,
            "seed {seed}: interval escaped support"
        );
    }
}

/// Posterior marginals sum to 1 under *arbitrary evidence masks*: any
/// subset of variables observed at any values, on randomly learned
/// structures — the profiler-facing sanity property (a job's evidence is
/// exactly such a mask over completed stages).
#[test]
fn posterior_marginals_normalize_under_arbitrary_evidence_masks() {
    for seed in 0..CASES {
        let mut rng = StdRng::seed_from_u64(seed);
        let n_vars = rng.gen_range(3..6usize);
        let card: Vec<usize> = (0..n_vars).map(|_| rng.gen_range(2..5usize)).collect();
        let n_rows = rng.gen_range(20..60usize);
        let rows: Vec<Vec<usize>> = (0..n_rows)
            .map(|_| card.iter().map(|&c| rng.gen_range(0..c)).collect())
            .collect();
        let data = DiscreteData::new(rows, card.clone()).expect("valid rows");
        let order: Vec<usize> = (0..n_vars).collect();
        let parents = learn_order_hill_climb(&data, &order, 2);
        let net = BayesNet::fit(&data, parents, 1.0).expect("valid structure");
        // A handful of random masks per case.
        for _ in 0..6 {
            let mut ev = Evidence::new();
            for (v, &c) in card.iter().enumerate() {
                if rng.gen_bool(0.5) {
                    ev.insert(v, rng.gen_range(0..c));
                }
            }
            for var in 0..n_vars {
                let p = net.posterior_marginal(var, &ev);
                let sum: f64 = p.iter().sum();
                assert!(
                    (sum - 1.0).abs() < 1e-9,
                    "seed {seed}: mask {ev:?}, var {var}: posterior sums to {sum}"
                );
                assert!(
                    p.iter().all(|&x| (-1e-12..=1.0 + 1e-9).contains(&x)),
                    "seed {seed}: mask {ev:?}, var {var}: invalid mass {p:?}"
                );
            }
        }
    }
}

/// Streaming parameter learning equals batch fitting: a network updated
/// one observation at a time through [`SuffStats`] column updates matches
/// `BayesNet::fit` on the same rows, CPT for CPT, under random data and
/// random learned structures.
#[test]
fn streaming_updates_match_batch_fit() {
    for seed in 0..CASES {
        let mut rng = StdRng::seed_from_u64(seed);
        let n_vars = rng.gen_range(2..5usize);
        let card: Vec<usize> = (0..n_vars).map(|_| rng.gen_range(2..4usize)).collect();
        let n_rows = rng.gen_range(10..50usize);
        let rows: Vec<Vec<usize>> = (0..n_rows)
            .map(|_| card.iter().map(|&c| rng.gen_range(0..c)).collect())
            .collect();
        let data = DiscreteData::new(rows.clone(), card.clone()).expect("valid rows");
        let order: Vec<usize> = (0..n_vars).collect();
        let parents = learn_order_hill_climb(&data, &order, 2);
        let alpha = rng.gen_range(0.1..2.0);
        let batch = BayesNet::fit(&data, parents.clone(), alpha).expect("valid structure");

        let mut stats = SuffStats::new(card.clone(), parents).expect("valid structure");
        let mut streamed = stats.fit(alpha);
        for row in &rows {
            stats.observe(row);
            stats.update_columns(&mut streamed, row, alpha);
        }
        // Compare every posterior marginal under empty evidence and one
        // random mask (exercises every CPT through elimination).
        let mut ev = Evidence::new();
        for (v, &c) in card.iter().enumerate() {
            if rng.gen_bool(0.4) {
                ev.insert(v, rng.gen_range(0..c));
            }
        }
        for mask in [Evidence::new(), ev] {
            for var in 0..n_vars {
                let pb = batch.posterior_marginal(var, &mask);
                let ps = streamed.posterior_marginal(var, &mask);
                for (x, y) in pb.iter().zip(&ps) {
                    assert!(
                        (x - y).abs() < 1e-12,
                        "seed {seed}: var {var} mask {mask:?}: batch {x} vs streamed {y}"
                    );
                }
            }
        }
    }
}

/// BN posteriors are normalized for every evidence assignment, and
/// conditioning on a variable's own value yields a point mass.
#[test]
fn bn_posteriors_normalize() {
    for seed in 0..CASES {
        let mut rng = StdRng::seed_from_u64(seed);
        let n_rows = rng.gen_range(30..80usize);
        let data: Vec<Vec<usize>> = (0..n_rows)
            .map(|_| {
                vec![
                    rng.gen_range(0..3usize),
                    rng.gen_range(0..2usize),
                    rng.gen_range(0..2usize),
                ]
            })
            .collect();
        let data = DiscreteData::new(data, vec![3, 2, 2]).expect("valid rows");
        let parents = learn_order_hill_climb(&data, &[0, 1, 2], 2);
        let net = BayesNet::fit(&data, parents, 1.0).expect("valid structure");
        for v0 in 0..3 {
            let mut ev = Evidence::new();
            ev.insert(0, v0);
            for var in 1..3 {
                let p = net.posterior_marginal(var, &ev);
                let sum: f64 = p.iter().sum();
                assert!(
                    (sum - 1.0).abs() < 1e-9,
                    "seed {seed}: posterior sums to {sum}"
                );
                assert!(p.iter().all(|&x| x >= -1e-12), "seed {seed}: negative mass");
            }
            let self_p = net.posterior_marginal(0, &ev);
            assert_eq!(
                self_p[v0], 1.0,
                "seed {seed}: self-conditioning not a point mass"
            );
        }
    }
}

/// A network over random cardinalities with random parent sets (each
/// variable draws up to `max_parents` parents among its predecessors) and
/// CPTs fitted to random rows.
fn random_net(rng: &mut StdRng, max_vars: usize, max_parents: usize) -> (BayesNet, Vec<usize>) {
    let n_vars = rng.gen_range(1..max_vars + 1);
    let card: Vec<usize> = (0..n_vars).map(|_| rng.gen_range(2..6usize)).collect();
    let parents: Vec<Vec<usize>> = (0..n_vars)
        .map(|v| {
            let mut ps: Vec<usize> = (0..v).filter(|_| rng.gen_bool(0.5)).collect();
            while ps.len() > max_parents {
                ps.remove(rng.gen_range(0..ps.len()));
            }
            ps
        })
        .collect();
    let n_rows = rng.gen_range(5..60usize);
    let rows: Vec<Vec<usize>> = (0..n_rows)
        .map(|_| card.iter().map(|&c| rng.gen_range(0..c)).collect())
        .collect();
    let data = DiscreteData::new(rows, card.clone()).expect("valid rows");
    let alpha = rng.gen_range(0.1..2.0);
    let net = BayesNet::fit(&data, parents, alpha).expect("parents precede children");
    (net, card)
}

/// The shared-prefix all-marginals routine returns, for every variable,
/// the exact bits of the per-variable `posterior_marginal_with` query —
/// on random structures and cardinalities, under no evidence, random
/// masks, and all-but-one-observed masks.
#[test]
fn shared_prefix_marginals_match_per_variable_queries_bitwise() {
    for seed in 0..CASES {
        let mut rng = StdRng::seed_from_u64(seed);
        let (net, card) = random_net(&mut rng, 8, 3);
        let n = card.len();
        let mut masks = vec![Evidence::new()];
        for _ in 0..4 {
            let mut ev = Evidence::new();
            for (v, &c) in card.iter().enumerate() {
                if rng.gen_bool(0.5) {
                    ev.insert(v, rng.gen_range(0..c));
                }
            }
            masks.push(ev);
        }
        let free = rng.gen_range(0..n);
        masks.push(
            (0..n)
                .filter(|&v| v != free)
                .map(|v| (v, rng.gen_range(0..card[v])))
                .collect(),
        );
        for ev in masks {
            let pool = net.reduced_cpts(&ev);
            let all = net.posterior_marginals_with(&pool, &ev);
            assert_eq!(all.len(), n, "seed {seed}: one marginal per variable");
            for (var, got) in all.iter().enumerate() {
                let want = net.posterior_marginal_with(&pool, var, &ev);
                let bits = |p: &[f64]| p.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                assert_eq!(
                    bits(got),
                    bits(&want),
                    "seed {seed}: mask {ev:?}, var {var}: {got:?} vs {want:?}"
                );
            }
        }
    }
}

/// Reference factor algebra with the straightforward layout: decode every
/// flat index into an assignment by div/mod and look each operand up.
mod reference {
    use llmsched_bayes::prelude::Factor;

    fn decode(mut idx: usize, card: &[usize]) -> Vec<usize> {
        let mut a = vec![0; card.len()];
        for k in (0..card.len()).rev() {
            a[k] = idx % card[k];
            idx /= card[k];
        }
        a
    }

    fn lookup(f: &Factor, vars: &[usize], assign: &[usize]) -> f64 {
        let sub: Vec<usize> = f
            .vars()
            .iter()
            .map(|v| assign[vars.iter().position(|x| x == v).unwrap()])
            .collect();
        f.at(&sub)
    }

    pub fn product(a: &Factor, b: &Factor) -> Factor {
        let mut vars: Vec<usize> = a.vars().iter().chain(b.vars()).copied().collect();
        vars.sort_unstable();
        vars.dedup();
        let card: Vec<usize> = vars
            .iter()
            .map(|v| {
                let (f, p) = match a.vars().iter().position(|x| x == v) {
                    Some(p) => (a, p),
                    None => (b, b.vars().iter().position(|x| x == v).unwrap()),
                };
                f.card()[p]
            })
            .collect();
        let size: usize = card.iter().product();
        let values = (0..size)
            .map(|i| {
                let asg = decode(i, &card);
                lookup(a, &vars, &asg) * lookup(b, &vars, &asg)
            })
            .collect();
        Factor::new(vars, card, values)
    }

    pub fn sum_out(f: &Factor, var: usize) -> Factor {
        let p = f.vars().iter().position(|&v| v == var).unwrap();
        let mut vars = f.vars().to_vec();
        let mut card = f.card().to_vec();
        vars.remove(p);
        let vcard = card.remove(p);
        let size: usize = card.iter().product();
        let values = (0..size)
            .map(|i| {
                let mut asg = decode(i, &card);
                asg.insert(p, 0);
                let mut sum = 0.0;
                for x in 0..vcard {
                    asg[p] = x;
                    sum += f.at(&asg);
                }
                sum
            })
            .collect();
        Factor::new(vars, card, values)
    }

    pub fn reduce(f: &Factor, var: usize, value: usize) -> Factor {
        let p = f.vars().iter().position(|&v| v == var).unwrap();
        let mut vars = f.vars().to_vec();
        let mut card = f.card().to_vec();
        vars.remove(p);
        card.remove(p);
        let size: usize = card.iter().product();
        let values = (0..size)
            .map(|i| {
                let mut asg = decode(i, &card);
                asg.insert(p, value);
                f.at(&asg)
            })
            .collect();
        Factor::new(vars, card, values)
    }

    /// Single-target-set elimination: ascending order, every merge
    /// starting from the unit factor, the final joint built up from the
    /// unit factor and marginalized onto the targets.
    pub fn eliminate_to_joint(factors: &[Factor], targets: &[usize]) -> Factor {
        let mut pool: Vec<Factor> = factors.to_vec();
        let mut all_vars: Vec<usize> = pool.iter().flat_map(|f| f.vars().to_vec()).collect();
        all_vars.sort_unstable();
        all_vars.dedup();
        for v in all_vars {
            if targets.contains(&v) {
                continue;
            }
            let mut merged: Option<Factor> = None;
            let mut kept = Vec::new();
            for f in pool {
                if f.vars().contains(&v) {
                    merged = Some(product(merged.as_ref().unwrap_or(&Factor::unit()), &f));
                } else {
                    kept.push(f);
                }
            }
            pool = kept;
            if let Some(m) = merged {
                pool.push(sum_out(&m, v));
            }
        }
        let mut joint = Factor::unit();
        for f in &pool {
            joint = product(&joint, f);
        }
        let mut joint = joint.marginalize_to(targets);
        joint.normalize();
        joint
    }
}

fn bits_of(f: &Factor) -> (Vec<usize>, Vec<usize>, Vec<u64>) {
    (
        f.vars().to_vec(),
        f.card().to_vec(),
        f.values().iter().map(|x| x.to_bits()).collect(),
    )
}

/// The odometer/block kernels and the pooled elimination reproduce the
/// decoded reference bit for bit: products, sums, reductions, and joint
/// posteriors over random target sets of random networks.
#[test]
fn factor_kernels_match_decoded_reference_bitwise() {
    for seed in 0..CASES {
        let mut rng = StdRng::seed_from_u64(seed);
        let (net, card) = random_net(&mut rng, 7, 3);
        let n = card.len();
        let mut ev = Evidence::new();
        for (v, &c) in card.iter().enumerate() {
            if rng.gen_bool(0.3) {
                ev.insert(v, rng.gen_range(0..c));
            }
        }
        let pool = net.reduced_cpts(&Evidence::new());
        // Kernel by kernel over pairs of CPT tables.
        for a in &pool {
            for b in &pool {
                assert_eq!(
                    bits_of(&a.product(b)),
                    bits_of(&reference::product(a, b)),
                    "seed {seed}: product"
                );
            }
            for (k, &v) in a.vars().iter().enumerate() {
                assert_eq!(
                    bits_of(&a.sum_out(v)),
                    bits_of(&reference::sum_out(a, v)),
                    "seed {seed}: sum_out {v}"
                );
                let val = rng.gen_range(0..a.card()[k]);
                assert_eq!(
                    bits_of(&a.reduce(v, val)),
                    bits_of(&reference::reduce(a, v, val)),
                    "seed {seed}: reduce {v}={val}"
                );
            }
        }
        // Whole eliminations under evidence.
        let reduced = net.reduced_cpts(&ev);
        let free: Vec<usize> = (0..n).filter(|v| !ev.contains_key(v)).collect();
        if free.is_empty() {
            continue;
        }
        let targets: Vec<usize> = free.iter().copied().filter(|_| rng.gen_bool(0.4)).collect();
        let targets = if targets.is_empty() {
            vec![free[0]]
        } else {
            targets
        };
        assert_eq!(
            bits_of(&eliminate_to_joint(&reduced, &targets)),
            bits_of(&reference::eliminate_to_joint(&reduced, &targets)),
            "seed {seed}: joint over {targets:?} given {ev:?}"
        );
    }
}
