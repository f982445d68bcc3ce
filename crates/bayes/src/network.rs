//! Discrete Bayesian networks: parameter learning, exact inference and
//! ancestral sampling.
//!
//! This is the from-scratch replacement for the PyAgrum toolbox the paper
//! uses (§V, *Implementation*): networks are small (one node per template
//! stage), so maximum-likelihood CPTs with Laplace smoothing plus exact
//! variable elimination cover everything the profiler needs.

use std::collections::BTreeMap;

use crate::dataset::DiscreteData;
use crate::factor::{eliminate_to_joint, eliminate_to_marginals, Factor};

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
    /// from discretized data, under the given parent sets.
    ///
    /// # Errors
    /// Returns [`BayesNetError`] if the parent structure is malformed or
    /// cyclic.
    pub fn fit(
        data: &DiscreteData,
        parents: Vec<Vec<usize>>,
        alpha: f64,
    ) -> Result<Self, BayesNetError> {
        let n = data.n_vars();
        let card = data.cardinalities().to_vec();
        if parents.len() != n {
            return Err(BayesNetError::ArityMismatch);
        }
        for (v, ps) in parents.iter().enumerate() {
            if ps.iter().any(|&p| p >= n || p == v) {
                return Err(BayesNetError::BadParent { var: v });
            }
        }
        if topo_order(&parents).is_none() {
            return Err(BayesNetError::Cyclic);
        }

        let mut cpts = Vec::with_capacity(n);
        for (v, ps) in parents.iter().enumerate() {
            let fam = FamilyLayout::new(v, ps, &card);
            // Count joint occurrences over the scope.
            let mut counts = vec![0.0f64; fam.size()];
            for row in data.rows() {
                counts[fam.index_of(row)] += 1.0;
            }
            let values = fam.normalize(&counts, alpha);
            cpts.push(Factor::new(fam.scope, fam.scard, values));
        }
        Ok(BayesNet {
            card,
            parents,
            cpts,
        })
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
    /// Eq. (1) correlation set).
    pub fn descendants(&self, var: usize) -> Vec<usize> {
        let n = self.n_vars();
        let mut children = vec![Vec::new(); n];
        for (v, ps) in self.parents.iter().enumerate() {
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

    /// A topological order of the network.
    pub fn topological_order(&self) -> Vec<usize> {
        topo_order(&self.parents).expect("fitted networks are acyclic")
    }

    /// All CPTs reduced by `evidence` (dropping observed variables).
    ///
    /// Public so posterior consumers that query many marginals/joints
    /// under *one* evidence state (the scheduler's per-evidence caches)
    /// can build this factor pool once and reuse it via
    /// [`BayesNet::posterior_joint_with`] /
    /// [`BayesNet::posterior_marginal_with`] — the single-query entry
    /// points delegate to the same code, so cached and uncached paths
    /// produce bit-identical values.
    pub fn reduced_cpts(&self, evidence: &Evidence) -> Vec<Factor> {
        self.cpts
            .iter()
            .map(|cpt| {
                let mut f = std::borrow::Cow::Borrowed(cpt);
                for (&var, &val) in evidence {
                    if f.vars().contains(&var) {
                        f = std::borrow::Cow::Owned(f.reduce(var, val));
                    }
                }
                f.into_owned()
            })
            .collect()
    }

    /// Normalized joint posterior over `targets` given `evidence`.
    ///
    /// # Panics
    /// Panics if a target is observed in `evidence` or out of range.
    pub fn posterior_joint(&self, targets: &[usize], evidence: &Evidence) -> Factor {
        self.posterior_joint_with(&self.reduced_cpts(evidence), targets, evidence)
    }

    /// [`BayesNet::posterior_joint`] over a prebuilt
    /// [`BayesNet::reduced_cpts`] pool — `reduced` must have been built
    /// from the same `evidence`.
    pub fn posterior_joint_with(
        &self,
        reduced: &[Factor],
        targets: &[usize],
        evidence: &Evidence,
    ) -> Factor {
        for t in targets {
            assert!(*t < self.n_vars(), "target {t} out of range");
            assert!(!evidence.contains_key(t), "target {t} is already observed");
        }
        eliminate_to_joint(reduced, targets)
    }

    /// Posterior marginal `P(var | evidence)` as a probability vector.
    ///
    /// If `var` is itself observed, returns a point mass on the observed
    /// value (convenient for "remaining duration" scans over all stages).
    pub fn posterior_marginal(&self, var: usize, evidence: &Evidence) -> Vec<f64> {
        if evidence.contains_key(&var) {
            return self.posterior_marginal_with(&[], var, evidence);
        }
        self.posterior_marginal_with(&self.reduced_cpts(evidence), var, evidence)
    }

    /// [`BayesNet::posterior_marginal`] over a prebuilt
    /// [`BayesNet::reduced_cpts`] pool (ignored for observed variables).
    pub fn posterior_marginal_with(
        &self,
        reduced: &[Factor],
        var: usize,
        evidence: &Evidence,
    ) -> Vec<f64> {
        if let Some(&val) = evidence.get(&var) {
            let mut p = vec![0.0; self.card[var]];
            p[val] = 1.0;
            return p;
        }
        self.posterior_joint_with(reduced, &[var], evidence)
            .into_values()
    }

    /// Every variable's [`BayesNet::posterior_marginal_with`] in one pass,
    /// indexed by variable: observed variables get their point mass, the
    /// rest come from one shared-prefix elimination over `reduced`
    /// ([`eliminate_to_marginals`]). Bit-identical to querying each
    /// variable separately, at about half the elimination work.
    pub fn posterior_marginals_with(
        &self,
        reduced: &[Factor],
        evidence: &Evidence,
    ) -> Vec<Vec<f64>> {
        let mut out: Vec<Vec<f64>> = (0..self.n_vars())
            .map(|v| match evidence.get(&v) {
                Some(&val) => {
                    let mut p = vec![0.0; self.card[v]];
                    p[val] = 1.0;
                    p
                }
                None => Vec::new(),
            })
            .collect();
        for (v, f) in eliminate_to_marginals(reduced) {
            out[v] = f.into_values();
        }
        assert!(
            out.iter().all(|p| !p.is_empty()),
            "an unobserved variable is in no factor of the reduced pool"
        );
        out
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
    /// (diagnostic for structure-learning tests and the online drift
    /// trigger's baseline).
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
        let strides = strides_of(&scard);
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

fn strides_of(card: &[usize]) -> Vec<usize> {
    let mut s = vec![1usize; card.len()];
    for i in (0..card.len().saturating_sub(1)).rev() {
        s[i] = s[i + 1] * card[i + 1];
    }
    s
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
