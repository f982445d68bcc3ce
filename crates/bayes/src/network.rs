//! Discrete Bayesian networks: parameter learning, exact inference and
//! ancestral sampling.
//!
//! This is the from-scratch replacement for the PyAgrum toolbox the paper
//! uses (§V, *Implementation*): networks are small (one node per template
//! stage), so maximum-likelihood CPTs with Laplace smoothing plus exact
//! variable elimination ([`crate::plan`]) cover everything the profiler
//! needs.

use std::collections::BTreeMap;

use crate::dataset::DiscreteData;
use crate::factor::{card_to_row_major, Factor};
use crate::online::SuffStats;
use crate::plan::{EliminationPlan, PlanScratch};

/// Evidence: observed values for a subset of variables.
pub type Evidence = BTreeMap<usize, usize>;

/// A discrete Bayesian network over variables `0..n`.
#[derive(Debug, Clone)]
pub struct BayesNet {
    card: Vec<usize>,
    parents: Vec<Vec<usize>>,
    /// CPT for variable `i`: a factor over `parents(i) ∪ {i}` whose entries
    /// are `P(i = v | parents = u)`.
    cpts: Vec<Factor>,
    /// Every variable's descendants, ascending (the structure is fixed
    /// once fitted, and Eq. 6 scoring asks for them on every score).
    descendants: Vec<Vec<usize>>,
}

/// Errors from [`BayesNet::fit`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BayesNetError {
    /// `parents` or `card` length differs from the variable count.
    ArityMismatch,
    /// A parent reference is out of range or self-referential.
    BadParent {
        /// The child variable.
        var: usize,
    },
    /// The parent graph has a directed cycle.
    Cyclic,
}

impl std::fmt::Display for BayesNetError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BayesNetError::ArityMismatch => write!(f, "parents/cardinality arity mismatch"),
            BayesNetError::BadParent { var } => write!(f, "variable {var} has an invalid parent"),
            BayesNetError::Cyclic => write!(f, "parent graph contains a cycle"),
        }
    }
}

impl std::error::Error for BayesNetError {}

impl BayesNet {
    /// Learns CPTs by maximum likelihood with Laplace smoothing `alpha`
    /// from discretized data, under the given parent sets: the data's
    /// [`SuffStats`] count tables, normalized once.
    ///
    /// # Errors
    /// Returns [`BayesNetError`] if the parent structure is malformed or
    /// cyclic.
    pub fn fit(
        data: &DiscreteData,
        parents: Vec<Vec<usize>>,
        alpha: f64,
    ) -> Result<Self, BayesNetError> {
        Ok(SuffStats::from_data(data, parents)?.fit(alpha))
    }

    /// Checks that `parents` is an acyclic structure over `n` variables.
    pub(crate) fn check_structure(parents: &[Vec<usize>], n: usize) -> Result<(), BayesNetError> {
        if parents.len() != n {
            return Err(BayesNetError::ArityMismatch);
        }
        for (v, ps) in parents.iter().enumerate() {
            if ps.iter().any(|&p| p >= n || p == v) {
                return Err(BayesNetError::BadParent { var: v });
            }
        }
        if topo_order(parents).is_none() {
            return Err(BayesNetError::Cyclic);
        }
        Ok(())
    }

    /// A network over a structure [`BayesNet::check_structure`] accepted,
    /// with one CPT per variable.
    pub(crate) fn from_cpts(card: Vec<usize>, parents: Vec<Vec<usize>>, cpts: Vec<Factor>) -> Self {
        let descendants = (0..card.len())
            .map(|v| descendants_of(&parents, v))
            .collect();
        BayesNet {
            card,
            parents,
            cpts,
            descendants,
        }
    }

    /// Number of variables.
    pub fn n_vars(&self) -> usize {
        self.card.len()
    }

    /// Cardinality of each variable.
    pub fn cardinalities(&self) -> &[usize] {
        &self.card
    }

    /// Parent sets (the learned structure).
    pub fn parents(&self) -> &[Vec<usize>] {
        &self.parents
    }

    /// Directed edges `u -> v` of the network.
    pub fn edges(&self) -> Vec<(usize, usize)> {
        let mut e = Vec::new();
        for (v, ps) in self.parents.iter().enumerate() {
            for &p in ps {
                e.push((p, v));
            }
        }
        e.sort_unstable();
        e
    }

    /// Variables reachable from `var` by directed paths (the paper's
    /// Eq. (1) correlation set), ascending.
    pub fn descendants(&self, var: usize) -> &[usize] {
        &self.descendants[var]
    }

    /// A topological order of the network.
    pub fn topological_order(&self) -> Vec<usize> {
        topo_order(&self.parents).expect("fitted networks are acyclic")
    }

    /// Every CPT, indexed by variable: a factor over `parents(v) ∪ {v}`.
    /// These are the leaves the network's [`EliminationPlan`]s run on:
    /// [`EliminationPlan::marginals`] over them gives every unobserved
    /// variable's [`BayesNet::posterior_marginal`], bit for bit.
    pub fn cpts(&self) -> &[Factor] {
        &self.cpts
    }

    /// Compiles the joint posterior over `targets` under the `observed`
    /// variables (ascending); run it on [`BayesNet::cpts`]. Its first
    /// result is bit-identical to [`BayesNet::posterior_joint`]; one more
    /// follows per `keeps` entry, the joint's marginal onto it
    /// ([`EliminationPlan::joint_with_marginals`]).
    ///
    /// # Panics
    /// Panics if a target is observed or out of range, or a `keeps` entry
    /// is not a subset of `targets`.
    pub fn joint_plan(
        &self,
        observed: &[usize],
        targets: &[usize],
        keeps: &[&[usize]],
    ) -> EliminationPlan {
        for t in targets {
            assert!(*t < self.n_vars(), "target {t} out of range");
            assert!(
                observed.binary_search(t).is_err(),
                "target {t} is already observed"
            );
        }
        EliminationPlan::joint_with_marginals(&self.cpts, observed, targets, keeps)
    }

    /// Normalized joint posterior over `targets` given `evidence`: a
    /// one-shot [`BayesNet::joint_plan`] compile and run.
    ///
    /// # Panics
    /// Panics if a target is observed in `evidence` or out of range.
    pub fn posterior_joint(&self, targets: &[usize], evidence: &Evidence) -> Factor {
        let observed: Vec<usize> = evidence.keys().copied().collect();
        self.joint_plan(&observed, targets, &[])
            .run(&self.cpts, evidence, &mut PlanScratch::default())
            .factor(0)
    }

    /// Posterior marginal `P(var | evidence)` as a probability vector.
    ///
    /// If `var` is itself observed, returns a point mass on the observed
    /// value (convenient for "remaining duration" scans over all stages).
    pub fn posterior_marginal(&self, var: usize, evidence: &Evidence) -> Vec<f64> {
        if let Some(&val) = evidence.get(&var) {
            let mut p = vec![0.0; self.card[var]];
            p[val] = 1.0;
            return p;
        }
        self.posterior_joint(&[var], evidence).into_values()
    }

    /// Ancestral sample of all variables.
    pub fn sample<R: rand::Rng>(&self, rng: &mut R) -> Vec<usize> {
        let order = self.topological_order();
        let mut out = vec![0usize; self.n_vars()];
        for v in order {
            let mut f = self.cpts[v].clone();
            for &p in &self.parents[v] {
                f = f.reduce(p, out[p]);
            }
            // f is now a distribution over v alone.
            let u: f64 = rng.gen();
            let mut acc = 0.0;
            let mut chosen = self.card[v] - 1;
            for (i, &pv) in f.values().iter().enumerate() {
                acc += pv;
                if u < acc {
                    chosen = i;
                    break;
                }
            }
            out[v] = chosen;
        }
        out
    }

    /// log₂-likelihood of one complete observation row under the network.
    ///
    /// # Panics
    /// Panics if the row arity differs from the network's.
    pub fn row_log2_likelihood(&self, row: &[usize]) -> f64 {
        assert_eq!(row.len(), self.n_vars(), "row arity mismatch");
        let mut total = 0.0;
        for v in 0..self.n_vars() {
            let mut f = self.cpts[v].clone();
            for &p in &self.parents[v] {
                f = f.reduce(p, row[p]);
            }
            total += f.values()[row[v]].max(1e-300).log2();
        }
        total
    }

    /// Average log₂-likelihood per row of `data` under the network
    /// (diagnostic for structure-learning tests; the online drift
    /// trigger's baseline equals it).
    ///
    /// # Panics
    /// Panics if the data arity differs from the network's.
    pub fn mean_log2_likelihood(&self, data: &DiscreteData) -> f64 {
        assert_eq!(data.n_vars(), self.n_vars(), "data arity mismatch");
        let total: f64 = data
            .rows()
            .iter()
            .map(|row| self.row_log2_likelihood(row))
            .sum();
        total / data.n_rows().max(1) as f64
    }

    /// Mutable access to variable `v`'s CPT — for the online learner's
    /// in-place column updates (crate-internal).
    pub(crate) fn cpt_mut(&mut self, v: usize) -> &mut Factor {
        &mut self.cpts[v]
    }

    /// Variable `v`'s CPT (crate-internal; the online learner reads table
    /// entries directly through the shared family layout).
    pub(crate) fn cpt(&self, v: usize) -> &Factor {
        &self.cpts[v]
    }
}

/// The table layout of one CPT family: `scope = sorted(parents ∪ {v})`,
/// row-major with the last scope variable fastest — shared by
/// [`BayesNet::fit`] and the online sufficient-statistic counters so batch
/// and streaming parameter learning agree bit-for-bit.
#[derive(Debug, Clone)]
pub(crate) struct FamilyLayout {
    /// Sorted, de-duplicated scope.
    pub(crate) scope: Vec<usize>,
    /// Cardinalities aligned with `scope`.
    pub(crate) scard: Vec<usize>,
    /// Strides aligned with `scope` (last variable stride 1).
    strides: Vec<usize>,
    /// Position of `var` within `scope`.
    vpos: usize,
}

impl FamilyLayout {
    pub(crate) fn new(var: usize, parents: &[usize], card: &[usize]) -> Self {
        let mut scope: Vec<usize> = parents.to_vec();
        scope.push(var);
        scope.sort_unstable();
        scope.dedup();
        let scard: Vec<usize> = scope.iter().map(|&s| card[s]).collect();
        let mut strides = scard.clone();
        card_to_row_major(&mut strides);
        let vpos = scope.iter().position(|&s| s == var).expect("var in scope");
        FamilyLayout {
            scope,
            scard,
            strides,
            vpos,
        }
    }

    /// Number of count/value table entries.
    pub(crate) fn size(&self) -> usize {
        self.scard.iter().product()
    }

    /// Flat table index of one full observation row.
    pub(crate) fn index_of(&self, row: &[usize]) -> usize {
        self.scope
            .iter()
            .zip(&self.strides)
            .map(|(&s, &st)| row[s] * st)
            .sum()
    }

    /// Flat index of the first entry (child value 0) of the column `row`
    /// falls into, plus the child's stride — the column is
    /// `base + val * stride` for `val in 0..vcard`.
    pub(crate) fn column_of(&self, row: &[usize]) -> (usize, usize) {
        let base: usize = self
            .scope
            .iter()
            .zip(&self.strides)
            .enumerate()
            .map(|(k, (&s, &st))| if k == self.vpos { 0 } else { row[s] * st })
            .sum();
        (base, self.strides[self.vpos])
    }

    /// Cardinality of the child variable.
    pub(crate) fn vcard(&self) -> usize {
        self.scard[self.vpos]
    }

    /// Normalizes a count table into CPT values `P(v | parents)` with
    /// Laplace smoothing `alpha`, per parent assignment.
    pub(crate) fn normalize(&self, counts: &[f64], alpha: f64) -> Vec<f64> {
        let size = self.size();
        assert_eq!(counts.len(), size, "count table size mismatch");
        let vcard = self.vcard();
        let mut values = vec![0.0f64; size];
        let outer = size / vcard;
        let mut assign = vec![0usize; self.scope.len()];
        for o in 0..outer {
            // Decode `o` over the scope minus v (same order).
            let mut rem = o;
            for k in (0..self.scope.len()).rev() {
                if k == self.vpos {
                    continue;
                }
                assign[k] = rem % self.scard[k];
                rem /= self.scard[k];
            }
            let mut total = 0.0;
            for val in 0..vcard {
                assign[self.vpos] = val;
                let idx: usize = assign.iter().zip(&self.strides).map(|(&a, &s)| a * s).sum();
                total += counts[idx];
            }
            for val in 0..vcard {
                assign[self.vpos] = val;
                let idx: usize = assign.iter().zip(&self.strides).map(|(&a, &s)| a * s).sum();
                values[idx] = (counts[idx] + alpha) / (total + alpha * vcard as f64);
            }
        }
        values
    }
}

/// Variables reachable from `var` by directed paths, ascending.
fn descendants_of(parents: &[Vec<usize>], var: usize) -> Vec<usize> {
    let n = parents.len();
    let mut children = vec![Vec::new(); n];
    for (v, ps) in parents.iter().enumerate() {
        for &p in ps {
            children[p].push(v);
        }
    }
    let mut seen = vec![false; n];
    let mut stack = vec![var];
    while let Some(x) = stack.pop() {
        for &c in &children[x] {
            if !seen[c] {
                seen[c] = true;
                stack.push(c);
            }
        }
    }
    (0..n).filter(|&v| seen[v]).collect()
}

/// Kahn topological order over a parent-list structure; `None` if cyclic.
fn topo_order(parents: &[Vec<usize>]) -> Option<Vec<usize>> {
    let n = parents.len();
    let mut indeg: Vec<usize> = parents.iter().map(|p| p.len()).collect();
    let mut children = vec![Vec::new(); n];
    for (v, ps) in parents.iter().enumerate() {
        for &p in ps {
            children[p].push(v);
        }
    }
    let mut frontier: Vec<usize> = (0..n).filter(|&v| indeg[v] == 0).collect();
    frontier.sort_unstable();
    let mut order = Vec::with_capacity(n);
    let mut qi = 0;
    while qi < frontier.len() {
        let u = frontier[qi];
        qi += 1;
        order.push(u);
        for &c in &children[u] {
            indeg[c] -= 1;
            if indeg[c] == 0 {
                frontier.push(c);
            }
        }
    }
    (order.len() == n).then_some(order)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::DiscreteData;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// Rows where B copies A 90% of the time; A is fair.
    fn noisy_copy_data(n: usize) -> DiscreteData {
        let mut rows = Vec::with_capacity(n);
        for i in 0..n {
            let a = i % 2;
            // Deterministic 90%: flip on every 10th row of each parity.
            let flip = (i / 2) % 10 == 0;
            let b = if flip { 1 - a } else { a };
            rows.push(vec![a, b]);
        }
        DiscreteData::new(rows, vec![2, 2]).unwrap()
    }

    #[test]
    fn fit_learns_noisy_copy_cpt() {
        let data = noisy_copy_data(400);
        let net = BayesNet::fit(&data, vec![vec![], vec![0]], 0.0).unwrap();
        let e = Evidence::new();
        let pa = net.posterior_marginal(0, &e);
        assert!((pa[0] - 0.5).abs() < 0.02);
        let mut ev = Evidence::new();
        ev.insert(0, 1);
        let pb = net.posterior_marginal(1, &ev);
        assert!(
            (pb[1] - 0.9).abs() < 0.02,
            "P(B=1|A=1) should be ~0.9, got {}",
            pb[1]
        );
    }

    #[test]
    fn posterior_flows_against_edges_too() {
        let data = noisy_copy_data(400);
        let net = BayesNet::fit(&data, vec![vec![], vec![0]], 0.0).unwrap();
        let mut ev = Evidence::new();
        ev.insert(1, 0); // observe the child
        let pa = net.posterior_marginal(0, &ev);
        assert!(
            pa[0] > 0.85,
            "observing B=0 should make A=0 likely, got {:?}",
            pa
        );
    }

    #[test]
    fn observed_variable_is_point_mass() {
        let data = noisy_copy_data(40);
        let net = BayesNet::fit(&data, vec![vec![], vec![0]], 1.0).unwrap();
        let mut ev = Evidence::new();
        ev.insert(0, 1);
        assert_eq!(net.posterior_marginal(0, &ev), vec![0.0, 1.0]);
    }

    #[test]
    fn smoothing_avoids_zero_probabilities() {
        // B never differs from A in data, but alpha keeps P(B≠A) > 0.
        let rows: Vec<Vec<usize>> = (0..50).map(|i| vec![i % 2, i % 2]).collect();
        let data = DiscreteData::new(rows, vec![2, 2]).unwrap();
        let net = BayesNet::fit(&data, vec![vec![], vec![0]], 1.0).unwrap();
        let mut ev = Evidence::new();
        ev.insert(0, 0);
        let pb = net.posterior_marginal(1, &ev);
        assert!(pb[1] > 0.0 && pb[1] < 0.1);
    }

    #[test]
    fn descendants_follow_directed_paths() {
        let rows: Vec<Vec<usize>> = (0..20).map(|i| vec![i % 2, i % 2, i % 2]).collect();
        let data = DiscreteData::new(rows, vec![2, 2, 2]).unwrap();
        // Chain 0 -> 1 -> 2.
        let net = BayesNet::fit(&data, vec![vec![], vec![0], vec![1]], 1.0).unwrap();
        assert_eq!(net.descendants(0), vec![1, 2]);
        assert_eq!(net.descendants(2), Vec::<usize>::new());
        assert_eq!(net.edges(), vec![(0, 1), (1, 2)]);
    }

    #[test]
    fn joint_posterior_sums_to_one() {
        let data = noisy_copy_data(100);
        let net = BayesNet::fit(&data, vec![vec![], vec![0]], 1.0).unwrap();
        let j = net.posterior_joint(&[0, 1], &Evidence::new());
        assert!((j.sum() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn rejects_bad_structures() {
        let data = noisy_copy_data(10);
        assert_eq!(
            BayesNet::fit(&data, vec![vec![]], 1.0).unwrap_err(),
            BayesNetError::ArityMismatch
        );
        assert_eq!(
            BayesNet::fit(&data, vec![vec![5], vec![]], 1.0).unwrap_err(),
            BayesNetError::BadParent { var: 0 }
        );
        assert_eq!(
            BayesNet::fit(&data, vec![vec![1], vec![0]], 1.0).unwrap_err(),
            BayesNetError::Cyclic
        );
    }

    #[test]
    fn sampling_reproduces_the_joint() {
        let data = noisy_copy_data(1000);
        let net = BayesNet::fit(&data, vec![vec![], vec![0]], 0.0).unwrap();
        let mut rng = StdRng::seed_from_u64(7);
        let n = 20_000;
        let mut agree = 0;
        for _ in 0..n {
            let s = net.sample(&mut rng);
            if s[0] == s[1] {
                agree += 1;
            }
        }
        let frac = agree as f64 / n as f64;
        assert!(
            (frac - 0.9).abs() < 0.02,
            "agreement should be ~0.9, got {frac}"
        );
    }

    #[test]
    fn likelihood_prefers_true_structure() {
        let data = noisy_copy_data(400);
        let dependent = BayesNet::fit(&data, vec![vec![], vec![0]], 1.0).unwrap();
        let independent = BayesNet::fit(&data, vec![vec![], vec![]], 1.0).unwrap();
        assert!(
            dependent.mean_log2_likelihood(&data) > independent.mean_log2_likelihood(&data),
            "modeling the dependency must improve likelihood"
        );
    }
}
