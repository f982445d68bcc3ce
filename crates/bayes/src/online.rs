//! Streaming Bayesian parameter learning: per-family sufficient-statistic
//! counters with O(1)-per-observation CPT updates, plus a cheap
//! log-likelihood drift trigger that recommends structure re-learning only
//! when the data has actually moved.
//!
//! Batch fitting ([`BayesNet::fit`]) is [`SuffStats::from_data`]: count
//! joint family occurrences over a full dataset, then normalize once.
//! [`SuffStats`] keeps exactly those count tables alive between
//! observations, so absorbing one new row is one counter increment plus
//! one column renormalization per family — no retraining pass over
//! historical data. A network streamed one row at a time is therefore
//! **bit-identical** to one fitted on the same rows in batch (pinned by
//! tests).
//!
//! [`OnlineNet`] puts a fitted network online: it keeps the fit's counters
//! and [`BayesNet`] live and adds a BIC-flavored drift detector that
//! tracks an EWMA of per-row log₂-likelihood against the baseline
//! recorded at the fit. A sustained drop means the current
//! structure+parameters explain incoming data measurably worse — the
//! "BIC delta" of keeping the stale model — and only then is the
//! expensive re-fit recommended. The network keeps no rows: whoever owns
//! the observation window re-fits from it. A network that is never
//! updated needs none of this: it is just [`SuffStats::fit`]'s output.

use crate::dataset::DiscreteData;
use crate::factor::Factor;
use crate::network::{BayesNet, BayesNetError, FamilyLayout};

/// Per-family sufficient statistics for a fixed structure: the same count
/// tables [`BayesNet::fit`] builds, kept alive for streaming updates.
#[derive(Debug, Clone)]
pub struct SuffStats {
    card: Vec<usize>,
    parents: Vec<Vec<usize>>,
    layouts: Vec<FamilyLayout>,
    counts: Vec<Vec<f64>>,
    n_obs: u64,
}

impl SuffStats {
    /// Empty counters for the given structure.
    ///
    /// # Errors
    /// Returns [`BayesNetError`] if the parent structure is malformed or
    /// a cardinality is zero.
    pub fn new(card: Vec<usize>, parents: Vec<Vec<usize>>) -> Result<Self, BayesNetError> {
        if card.contains(&0) {
            return Err(BayesNetError::ArityMismatch);
        }
        BayesNet::check_structure(&parents, card.len())?;
        let layouts: Vec<FamilyLayout> = (0..card.len())
            .map(|v| FamilyLayout::new(v, &parents[v], &card))
            .collect();
        let counts = layouts.iter().map(|l| vec![0.0f64; l.size()]).collect();
        Ok(SuffStats {
            card,
            parents,
            layouts,
            counts,
            n_obs: 0,
        })
    }

    /// Counters filled from a dataset (the batch starting point).
    ///
    /// # Errors
    /// Returns [`BayesNetError`] if the structure is malformed.
    pub fn from_data(data: &DiscreteData, parents: Vec<Vec<usize>>) -> Result<Self, BayesNetError> {
        let mut s = SuffStats::new(data.cardinalities().to_vec(), parents)?;
        // Family by family, so each count table stays hot across the rows.
        for (layout, counts) in s.layouts.iter().zip(&mut s.counts) {
            for row in data.rows() {
                counts[layout.index_of(row)] += 1.0;
            }
        }
        s.n_obs = data.n_rows() as u64;
        Ok(s)
    }

    /// Number of variables.
    pub fn n_vars(&self) -> usize {
        self.card.len()
    }

    /// Observations absorbed so far.
    pub fn n_obs(&self) -> u64 {
        self.n_obs
    }

    /// The structure the counters are conditioned on.
    pub fn parents(&self) -> &[Vec<usize>] {
        &self.parents
    }

    /// Absorbs one complete observation row: one counter increment per
    /// family.
    ///
    /// # Panics
    /// Panics if the row arity or a value is out of range.
    pub fn observe(&mut self, row: &[usize]) {
        assert_eq!(row.len(), self.n_vars(), "row arity mismatch");
        for (v, &x) in row.iter().enumerate() {
            assert!(x < self.card[v], "value out of range for variable {v}");
        }
        for (layout, counts) in self.layouts.iter().zip(&mut self.counts) {
            counts[layout.index_of(row)] += 1.0;
        }
        self.n_obs += 1;
    }

    /// Fits a network from the current counters with Laplace smoothing
    /// `alpha` — what [`BayesNet::fit`] returns on the same rows.
    pub fn fit(&self, alpha: f64) -> BayesNet {
        let cpts = self
            .layouts
            .iter()
            .zip(&self.counts)
            .map(|(l, counts)| {
                Factor::new(l.scope.clone(), l.scard.clone(), l.normalize(counts, alpha))
            })
            .collect();
        BayesNet::from_cpts(self.card.clone(), self.parents.clone(), cpts)
    }

    /// log₂-likelihood of one complete row under `net`, read off the CPT
    /// tables through the shared family layout — no factor clones or
    /// reductions, unlike the general-purpose
    /// [`BayesNet::row_log2_likelihood`]. This is the streaming hot path
    /// (every absorbed observation is scored for the drift signal).
    ///
    /// # Panics
    /// Panics if `net` was fitted under a different structure or arity.
    pub fn row_log2_likelihood(&self, net: &BayesNet, row: &[usize]) -> f64 {
        assert_eq!(net.n_vars(), self.n_vars(), "network arity mismatch");
        assert_eq!(net.parents(), self.parents.as_slice(), "structure mismatch");
        self.layouts
            .iter()
            .enumerate()
            .map(|(v, layout)| net.cpt(v).values()[layout.index_of(row)].max(1e-300).log2())
            .sum()
    }

    /// Renormalizes, in `net`, exactly the CPT columns `row` touched —
    /// the O(1)-per-family half of a streaming update. Call after
    /// [`SuffStats::observe`] on the same row.
    ///
    /// # Panics
    /// Panics if `net` was fitted under a different structure or arity.
    pub fn update_columns(&self, net: &mut BayesNet, row: &[usize], alpha: f64) {
        assert_eq!(net.n_vars(), self.n_vars(), "network arity mismatch");
        assert_eq!(net.parents(), self.parents.as_slice(), "structure mismatch");
        for (v, layout) in self.layouts.iter().enumerate() {
            let (base, stride) = layout.column_of(row);
            let vcard = layout.vcard();
            let counts = &self.counts[v];
            let mut total = 0.0;
            for val in 0..vcard {
                total += counts[base + val * stride];
            }
            let values = net.cpt_mut(v).values_mut();
            for val in 0..vcard {
                let idx = base + val * stride;
                values[idx] = (counts[idx] + alpha) / (total + alpha * vcard as f64);
            }
        }
    }
}

/// EWMA smoothing factor of the per-row log₂-likelihood drift signal.
const EWMA_ALPHA: f64 = 0.08;

/// A re-fit is recommended when the EWMA log₂-likelihood sits this many
/// bits below the baseline recorded at the fit.
const DRIFT_THRESHOLD_BITS: f64 = 1.0;

/// Observations a network must absorb before it recommends a re-fit: the
/// backoff between drift re-fits, and the EWMA's warm-up length.
const RELEARN_BACKOFF: usize = 24;

/// A Bayesian network maintained online: live CPTs backed by
/// [`SuffStats`], plus the drift trigger that recommends a re-fit. The
/// re-fit itself (fresh bins, structure and counters) is the owner's job:
/// it puts the new fit online with [`OnlineNet::new`].
#[derive(Debug, Clone)]
pub struct OnlineNet {
    alpha: f64,
    stats: SuffStats,
    net: BayesNet,
    /// Mean per-row log₂-likelihood at the fit.
    baseline_ll: f64,
    ewma_ll: Option<f64>,
    obs_since_fit: usize,
}

impl OnlineNet {
    /// Puts a fit online: `net` is `stats.fit(alpha)`, and `stats` counted
    /// the rows of `data`. The drift baseline is the data's mean row
    /// log₂-likelihood under `net` — bit-identical to
    /// [`BayesNet::mean_log2_likelihood`], read through the counters'
    /// family layout.
    ///
    /// # Panics
    /// Panics if `net` was fitted under a different structure or arity
    /// than `stats`, or a row of `data` is out of range.
    pub fn new(stats: SuffStats, net: BayesNet, data: &DiscreteData, alpha: f64) -> Self {
        let total: f64 = data
            .rows()
            .iter()
            .map(|row| stats.row_log2_likelihood(&net, row))
            .sum();
        let baseline_ll = total / data.n_rows().max(1) as f64;
        OnlineNet {
            alpha,
            stats,
            net,
            baseline_ll,
            ewma_ll: None,
            obs_since_fit: 0,
        }
    }

    /// The live network.
    pub fn net(&self) -> &BayesNet {
        &self.net
    }

    /// Observations absorbed (including the fitting data).
    pub fn n_obs(&self) -> u64 {
        self.stats.n_obs()
    }

    /// Current drift signal: baseline minus EWMA log₂-likelihood, in bits
    /// (positive = incoming data fits worse than at the fit).
    pub fn drift_bits(&self) -> f64 {
        self.ewma_ll.map_or(0.0, |e| self.baseline_ll - e)
    }

    /// Absorbs one observation: O(1) counter + CPT-column update per
    /// family. Returns `true` when the drift trigger recommends a re-fit:
    /// at least 24 rows since the fit (`RELEARN_BACKOFF`), and a drift
    /// signal above 1 bit (`DRIFT_THRESHOLD_BITS`).
    ///
    /// # Panics
    /// Panics if the row arity or a value is out of range.
    pub fn observe(&mut self, row: &[usize]) -> bool {
        // Score the row under the *current* model first: the drift signal
        // is a true out-of-sample likelihood.
        let ll = self.stats.row_log2_likelihood(&self.net, row);
        self.ewma_ll = Some(match self.ewma_ll {
            None => ll,
            Some(e) => e + EWMA_ALPHA * (ll - e),
        });
        self.stats.observe(row);
        self.stats.update_columns(&mut self.net, row, self.alpha);
        self.obs_since_fit += 1;
        self.obs_since_fit >= RELEARN_BACKOFF && self.drift_bits() > DRIFT_THRESHOLD_BITS
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::structure::learn_order_hill_climb;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn coupled_rows(n: usize, seed: u64, flip: f64) -> Vec<Vec<usize>> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n)
            .map(|_| {
                let a = rng.gen_range(0..3usize);
                let b = if rng.gen_bool(flip) {
                    rng.gen_range(0..3)
                } else {
                    a
                };
                vec![a, b]
            })
            .collect()
    }

    #[test]
    fn streaming_fit_matches_batch_fit_exactly() {
        let rows = coupled_rows(300, 1, 0.2);
        let card = vec![3, 3];
        let data = DiscreteData::new(rows.clone(), card.clone()).unwrap();
        let parents = vec![vec![], vec![0]];
        let batch = BayesNet::fit(&data, parents.clone(), 1.0).unwrap();

        let mut stats = SuffStats::new(card, parents).unwrap();
        let mut streamed = stats.fit(1.0);
        for row in &rows {
            stats.observe(row);
            stats.update_columns(&mut streamed, row, 1.0);
        }
        for v in 0..2 {
            assert_eq!(
                batch.posterior_marginal(v, &Default::default()),
                streamed.posterior_marginal(v, &Default::default()),
                "marginal {v} diverged"
            );
        }
        // Full-table equality via the refit path too.
        let refit = stats.fit(1.0);
        for v in 0..2 {
            assert_eq!(
                refit.posterior_marginal(v, &Default::default()),
                batch.posterior_marginal(v, &Default::default())
            );
        }
    }

    #[test]
    fn layout_likelihood_matches_general_path() {
        let rows = coupled_rows(200, 9, 0.15);
        let data = DiscreteData::new(rows.clone(), vec![3, 3]).unwrap();
        let parents = vec![vec![], vec![0]];
        let net = BayesNet::fit(&data, parents.clone(), 1.0).unwrap();
        let stats = SuffStats::from_data(&data, parents).unwrap();
        for row in rows.iter().take(40) {
            assert_eq!(
                stats.row_log2_likelihood(&net, row),
                net.row_log2_likelihood(row),
                "fast-path likelihood diverged on {row:?}"
            );
        }
    }

    fn online(data: &DiscreteData, parents: Vec<Vec<usize>>) -> OnlineNet {
        let stats = SuffStats::from_data(data, parents).unwrap();
        let net = stats.fit(1.0);
        OnlineNet::new(stats, net, data, 1.0)
    }

    #[test]
    fn drift_baseline_is_the_mean_row_likelihood() {
        let data = DiscreteData::new(coupled_rows(300, 2, 0.2), vec![3, 3]).unwrap();
        let net = online(&data, vec![vec![], vec![0]]);
        assert_eq!(
            net.baseline_ll,
            net.net().mean_log2_likelihood(&data),
            "the layout baseline must match the general path bit for bit"
        );
    }

    #[test]
    fn drift_trigger_fires_only_when_data_moves() {
        let pre = DiscreteData::new(coupled_rows(400, 3, 0.1), vec![3, 3]).unwrap();
        let parents = learn_order_hill_climb(&pre, &[0, 1], 2);
        assert_eq!(parents, vec![vec![], vec![0]], "the coupling is learned");
        let mut net = online(&pre, parents.clone());

        // Stationary continuation: no recommendation.
        let mut fired = false;
        for row in coupled_rows(200, 4, 0.1) {
            fired |= net.observe(&row);
        }
        assert!(!fired, "stationary data must not trigger a re-fit");

        // Shifted regime: variable 1 decouples and concentrates on value 2.
        let mut rng = StdRng::seed_from_u64(5);
        let mut shifted = Vec::new();
        let mut recommended = false;
        while !recommended && shifted.len() < 400 {
            let row = vec![rng.gen_range(0..3usize), 2];
            recommended = net.observe(&row);
            shifted.push(row);
        }
        assert!(
            recommended,
            "drifted data must trigger within 400 rows (drift {} bits)",
            net.drift_bits()
        );
        assert!(net.drift_bits() > DRIFT_THRESHOLD_BITS);

        // The owner's re-fit: a fresh network on the new regime's rows
        // starts from a zero drift signal and honours the backoff again.
        let post = DiscreteData::new(shifted, vec![3, 3]).unwrap();
        let mut refit = online(&post, parents);
        assert_eq!(refit.drift_bits(), 0.0, "a fit resets the baseline");
        for _ in 1..RELEARN_BACKOFF {
            assert!(!refit.observe(&[0, 0]), "backoff holds after a fit");
        }
    }

    #[test]
    fn suffstats_rejects_bad_rows() {
        let mut s = SuffStats::new(vec![2, 2], vec![vec![], vec![0]]).unwrap();
        s.observe(&[1, 0]);
        assert_eq!(s.n_obs(), 1);
        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            s.observe(&[2, 0]);
        }));
        assert!(r.is_err(), "out-of-range value must panic");
    }
}
