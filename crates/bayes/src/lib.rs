//! # llmsched-bayes — discrete Bayesian networks and information theory
//!
//! The probabilistic substrate of the LLMSched reproduction, replacing the
//! PyAgrum toolbox used by the paper (§IV-B, §IV-C):
//!
//! * [`discretize`] — equal-frequency duration binning (≤ 6 intervals, with
//!   a reserved zero bin for non-execution);
//! * [`dataset`] — discretized training tables;
//! * [`structure`] — deterministic structure learning (order-constrained
//!   BIC hill-climbing and Chow-Liu);
//! * [`network`] — CPT fitting with Laplace smoothing, exact
//!   posterior inference, ancestral sampling;
//! * [`plan`] — compiled variable elimination: one plan per observed
//!   variable set, run allocation-free under any evidence values;
//! * [`online`] — streaming parameter learning: per-family
//!   sufficient-statistic counters, O(1) CPT updates per observation, and
//!   the drift trigger that schedules structure re-learns;
//! * [`factor`] — the underlying discrete-factor algebra;
//! * [`info`] — Shannon entropy (Eq. 3), binary entropy (Eq. 4 terms) and
//!   mutual information (Eq. 5);
//! * [`stats`] — Pearson correlation and histograms for the
//!   workload-characterization figures (Figs. 1, 5).
//!
//! ## Example: profile two correlated stage durations
//!
//! ```
//! use llmsched_bayes::dataset::DiscreteData;
//! use llmsched_bayes::network::{BayesNet, Evidence};
//! use llmsched_bayes::structure::learn_order_hill_climb;
//!
//! // Stage 1's duration tracks stage 0's (two jobs out of ten deviate).
//! let samples: Vec<Vec<f64>> = (0..200)
//!     .map(|i| {
//!         let fast = i % 10 < 5;
//!         let deviate = i % 10 >= 8;
//!         let s0 = if fast { 1.0 } else { 10.0 };
//!         let s1 = if fast != deviate { 1.0 } else { 10.0 };
//!         vec![s0, s1]
//!     })
//!     .collect();
//!
//! let (discretizers, data) = DiscreteData::discretize(&samples, 6);
//! let parents = learn_order_hill_climb(&data, &[0, 1], 3);
//! assert_eq!(parents[1], vec![0]); // the dependency is recovered
//!
//! let net = BayesNet::fit(&data, parents, 1.0).unwrap();
//! let mut evidence = Evidence::new();
//! evidence.insert(0, discretizers[0].bin(10.0)); // observed: stage 0 slow
//! let posterior = net.posterior_marginal(1, &evidence);
//! let expected = discretizers[1].expectation(&posterior);
//! assert!(expected > 5.0); // stage 1 now expected slow as well
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod dataset;
pub mod discretize;
pub mod factor;
pub mod info;
pub mod network;
pub mod online;
pub mod plan;
pub mod stats;
pub mod structure;

/// Convenient glob-import of the probabilistic toolbox.
pub mod prelude {
    pub use crate::dataset::{DiscreteData, DiscreteDataError};
    pub use crate::discretize::Discretizer;
    pub use crate::factor::{eliminate_to_joint, Factor};
    pub use crate::info::{binary_entropy, entropy, mutual_information, mutual_information_of};
    pub use crate::network::{BayesNet, BayesNetError, Evidence};
    pub use crate::online::{OnlineNet, SuffStats};
    pub use crate::plan::{EliminationPlan, PlanOutputs, PlanScratch};
    pub use crate::stats::{mean, pearson, pearson_matrix, range, std_dev, variance, Histogram};
    pub use crate::structure::{empirical_mi, family_bic, learn_chow_liu, learn_order_hill_climb};
}
