//! Information-theoretic quantities: Shannon entropy (Eq. 3), mutual
//! information between a stage and the joint of its correlated stages
//! (Eq. 5), and the binary entropies composing a dynamic stage's node+edge
//! entropy (Eq. 4).

use crate::factor::Factor;

/// Shannon entropy `H(X) = −Σ p log₂ p` of a probability vector (Eq. 3).
///
/// Zero-probability entries contribute nothing; the vector need not be
/// perfectly normalized (it is renormalized internally).
pub fn entropy(p: &[f64]) -> f64 {
    let sum: f64 = p.iter().sum();
    if sum <= 0.0 {
        return 0.0;
    }
    let mut h = 0.0;
    for &pi in p {
        let q = pi / sum;
        if q > 0.0 {
            h -= q * q.log2();
        }
    }
    h.max(0.0)
}

/// Entropy of a Bernoulli(p) variable — the `H(I_c)` and `H(I_e)` terms of
/// the dynamic-stage uncertainty (Eq. 4).
pub fn binary_entropy(p: f64) -> f64 {
    let p = p.clamp(0.0, 1.0);
    if p <= 0.0 || p >= 1.0 {
        return 0.0;
    }
    -(p * p.log2() + (1.0 - p) * (1.0 - p).log2())
}

/// Mutual information `I(Ys ; X)` in bits, computed from a *normalized
/// joint* factor whose scope contains `x` and every variable in `ys`
/// (Eq. 5, generalized to a joint Y as used in Eq. 6).
///
/// `I = H(X) + H(Ys) − H(X, Ys)`, all terms read off the same joint, which
/// keeps the estimate internally consistent.
///
/// # Panics
/// Panics if `x` or any of `ys` is missing from the joint's scope, or if
/// `ys` contains `x`.
pub fn mutual_information(joint: &Factor, x: usize, ys: &[usize]) -> f64 {
    assert!(joint.vars().contains(&x), "x not in joint scope");
    assert!(!ys.contains(&x), "ys must not contain x");
    for y in ys {
        assert!(joint.vars().contains(y), "y={y} not in joint scope");
    }
    if ys.is_empty() {
        return 0.0;
    }
    let mut keep: Vec<usize> = ys.to_vec();
    keep.push(x);
    keep.sort_unstable();
    keep.dedup();
    let joint_xy = joint.marginalize_to(&keep);
    let mut ys_sorted = ys.to_vec();
    ys_sorted.sort_unstable();
    mutual_information_of(
        joint_xy.marginalize_to(&[x]).values(),
        joint_xy.marginalize_to(&ys_sorted).values(),
        joint_xy.values(),
    )
}

/// `I = H(X) + H(Ys) − H(X, Ys)` from the three tables
/// [`mutual_information`] reads off its joint: the marginal of X, the
/// marginal of Ys, and the joint over both, each row-major as a
/// [`Factor`] lays it out. Lets a caller that computed those tables
/// elsewhere (a compiled [`EliminationPlan`](crate::plan::EliminationPlan)
/// with marginal outputs) skip building factors.
pub fn mutual_information_of(px: &[f64], pys: &[f64], pxy: &[f64]) -> f64 {
    let hx = entropy(px);
    let hy = entropy(pys);
    let hxy = entropy(pxy);
    (hx + hy - hxy).max(0.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn entropy_bounds() {
        assert_eq!(entropy(&[1.0]), 0.0);
        assert_eq!(entropy(&[0.5, 0.5]), 1.0);
        assert!((entropy(&[0.25; 4]) - 2.0).abs() < 1e-12);
        assert_eq!(entropy(&[0.0, 0.0]), 0.0);
        assert_eq!(entropy(&[1.0, 0.0]), 0.0);
    }

    #[test]
    fn entropy_renormalizes() {
        assert!((entropy(&[2.0, 2.0]) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn binary_entropy_shape() {
        assert_eq!(binary_entropy(0.0), 0.0);
        assert_eq!(binary_entropy(1.0), 0.0);
        assert!((binary_entropy(0.5) - 1.0).abs() < 1e-12);
        assert!(binary_entropy(0.1) < binary_entropy(0.3));
        // Symmetry.
        assert!((binary_entropy(0.2) - binary_entropy(0.8)).abs() < 1e-12);
    }

    #[test]
    fn mi_of_independent_vars_is_zero() {
        // P(X)P(Y), both fair coins.
        let j = Factor::new(vec![0, 1], vec![2, 2], vec![0.25; 4]);
        assert!(mutual_information(&j, 0, &[1]).abs() < 1e-12);
    }

    #[test]
    fn mi_of_identical_vars_is_their_entropy() {
        // X = Y, fair: I = H = 1 bit.
        let j = Factor::new(vec![0, 1], vec![2, 2], vec![0.5, 0.0, 0.0, 0.5]);
        assert!((mutual_information(&j, 0, &[1]) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn mi_against_joint_of_two_targets() {
        // X fair; Y1 = X; Y2 independent fair.
        // Joint over (x, y1, y2), last var fastest.
        let mut values = vec![0.0; 8];
        for x in 0..2 {
            for y1 in 0..2 {
                for y2 in 0..2 {
                    if y1 == x {
                        values[x * 4 + y1 * 2 + y2] = 0.25;
                    }
                }
            }
        }
        let j = Factor::new(vec![0, 1, 2], vec![2, 2, 2], values);
        let mi = mutual_information(&j, 0, &[1, 2]);
        assert!(
            (mi - 1.0).abs() < 1e-12,
            "I(X; Y1,Y2) = H(X) = 1 bit, got {mi}"
        );
        // And X tells nothing about Y2 alone.
        assert!(mutual_information(&j, 0, &[2]).abs() < 1e-12);
    }

    #[test]
    fn mi_is_symmetric_for_pairs() {
        let j = Factor::new(vec![0, 1], vec![2, 2], vec![0.4, 0.1, 0.1, 0.4]);
        let a = mutual_information(&j, 0, &[1]);
        let b = mutual_information(&j, 1, &[0]);
        assert!((a - b).abs() < 1e-12);
        assert!(a > 0.0);
    }

    #[test]
    fn empty_target_set_is_zero() {
        let j = Factor::new(vec![0], vec![2], vec![0.5, 0.5]);
        assert_eq!(mutual_information(&j, 0, &[]), 0.0);
    }
}
