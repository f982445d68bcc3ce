//! Discrete factors and variable elimination — the exact-inference engine
//! under the Bayesian profiler.
//!
//! A [`Factor`] is a non-negative table over a sorted set of discrete
//! variables. Values are stored row-major with the **last** variable varying
//! fastest. Networks in this project are tiny (≤ ~12 variables of
//! cardinality ≤ 7), so exact variable elimination is cheap and fully
//! deterministic.

use std::borrow::Cow;

/// A table over a sorted list of discrete variables.
#[derive(Debug, Clone, PartialEq)]
pub struct Factor {
    /// Variable ids, strictly ascending.
    vars: Vec<usize>,
    /// Cardinality of each variable, aligned with `vars`.
    card: Vec<usize>,
    /// Row-major values, last variable fastest.
    values: Vec<f64>,
}

impl Factor {
    /// Creates a factor.
    ///
    /// # Panics
    /// Panics if `vars` is not strictly ascending, lengths mismatch, or the
    /// value count differs from the product of cardinalities.
    pub fn new(vars: Vec<usize>, card: Vec<usize>, values: Vec<f64>) -> Self {
        assert_eq!(vars.len(), card.len(), "vars/card length mismatch");
        assert!(
            vars.windows(2).all(|w| w[0] < w[1]),
            "vars must be strictly ascending"
        );
        assert!(
            card.iter().all(|&c| c > 0),
            "cardinalities must be positive"
        );
        let size: usize = card.iter().product();
        assert_eq!(values.len(), size, "value count must equal the table size");
        Factor { vars, card, values }
    }

    /// The constant factor 1 over no variables.
    pub fn unit() -> Self {
        Factor {
            vars: vec![],
            card: vec![],
            values: vec![1.0],
        }
    }

    /// The factor's variables (ascending).
    pub fn vars(&self) -> &[usize] {
        &self.vars
    }

    /// Cardinalities aligned with [`Factor::vars`].
    pub fn card(&self) -> &[usize] {
        &self.card
    }

    /// Raw values (row-major, last variable fastest).
    pub fn values(&self) -> &[f64] {
        &self.values
    }

    /// Mutable raw values — for the online learner's in-place CPT column
    /// renormalization (crate-internal; the table shape never changes).
    pub(crate) fn values_mut(&mut self) -> &mut [f64] {
        &mut self.values
    }

    /// Number of table entries.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// True for the empty-scope unit factor.
    pub fn is_empty(&self) -> bool {
        self.vars.is_empty()
    }

    /// Consumes the factor, returning its raw values.
    pub fn into_values(self) -> Vec<f64> {
        self.values
    }

    /// Value at a full assignment (aligned with `vars`).
    ///
    /// # Panics
    /// Panics if the assignment arity or any value is out of range.
    pub fn at(&self, assignment: &[usize]) -> f64 {
        assert_eq!(
            assignment.len(),
            self.vars.len(),
            "assignment arity mismatch"
        );
        // Row-major flat index by Horner's rule (last variable fastest).
        let mut idx = 0;
        for (&a, &c) in assignment.iter().zip(&self.card) {
            assert!(a < c, "assignment out of range");
            idx = idx * c + a;
        }
        self.values[idx]
    }

    /// Pointwise product of two factors over the union of their scopes.
    pub fn product(&self, other: &Factor) -> Factor {
        // Union of scopes, merging cardinalities.
        let cap = self.vars.len() + other.vars.len();
        let mut vars: Vec<usize> = Vec::with_capacity(cap);
        let mut card: Vec<usize> = Vec::with_capacity(cap);
        let (mut i, mut j) = (0, 0);
        while i < self.vars.len() || j < other.vars.len() {
            let take_left =
                j >= other.vars.len() || (i < self.vars.len() && self.vars[i] <= other.vars[j]);
            if take_left {
                let v = self.vars[i];
                vars.push(v);
                card.push(self.card[i]);
                if j < other.vars.len() && other.vars[j] == v {
                    assert_eq!(
                        other.card[j], self.card[i],
                        "cardinality conflict for var {v}"
                    );
                    j += 1;
                }
                i += 1;
            } else {
                vars.push(other.vars[j]);
                card.push(other.card[j]);
                j += 1;
            }
        }
        let size: usize = card.iter().product();
        let n = vars.len();
        let mut values = vec![0.0; size];
        with_index_scratch(3 * n, |scratch| {
            // Per-union-variable strides into each operand (0 when
            // absent), so the enumeration below walks both tables with an
            // odometer increment instead of a div/mod decode per entry.
            // The (li, ri) pair visited for every flat index is exactly the
            // decoded assignment's, so the output table is bit-identical.
            let (lstr, rest) = scratch.split_at_mut(n);
            let (rstr, assign) = rest.split_at_mut(n);
            operand_strides(&vars, &self.vars, &self.card, lstr);
            operand_strides(&vars, &other.vars, &other.card, rstr);
            let (mut li, mut ri) = (0usize, 0usize);
            for value in values.iter_mut() {
                *value = self.values[li] * other.values[ri];
                for k in (0..n).rev() {
                    assign[k] += 1;
                    li += lstr[k];
                    ri += rstr[k];
                    if assign[k] < card[k] {
                        break;
                    }
                    assign[k] = 0;
                    li -= lstr[k] * card[k];
                    ri -= rstr[k] * card[k];
                }
            }
        });
        Factor { vars, card, values }
    }

    /// Locates `var` at scope position `p` and splits the layout around
    /// it into `(p, outer, card[p], inner)`: `outer` and `inner` count the
    /// entries of the variables before and after `p`. Row-major order
    /// makes the flat index `(a · card[p] + x) · inner + b` for outer row
    /// `a`, value `x` and inner offset `b`.
    fn split_at_var(&self, var: usize) -> (usize, usize, usize, usize) {
        let p = self
            .vars
            .iter()
            .position(|&v| v == var)
            .expect("var not in scope");
        let outer: usize = self.card[..p].iter().product();
        let inner: usize = self.card[p + 1..].iter().product();
        (p, outer, self.card[p], inner)
    }

    /// Scope and cardinalities without position `p`.
    fn scope_without(&self, p: usize) -> (Vec<usize>, Vec<usize>) {
        let n = self.vars.len() - 1;
        let mut vars = Vec::with_capacity(n);
        let mut card = Vec::with_capacity(n);
        vars.extend_from_slice(&self.vars[..p]);
        vars.extend_from_slice(&self.vars[p + 1..]);
        card.extend_from_slice(&self.card[..p]);
        card.extend_from_slice(&self.card[p + 1..]);
        (vars, card)
    }

    /// Sums out variable `var`, removing it from the scope.
    ///
    /// # Panics
    /// Panics if `var` is not in the factor's scope.
    pub fn sum_out(&self, var: usize) -> Factor {
        let (p, outer, vcard, inner) = self.split_at_var(var);
        let (vars, card) = self.scope_without(p);
        // Output entry `a · inner + b` sums the source column
        // `a · vcard · inner + b + x · inner` over `x` in ascending order.
        let mut values = Vec::with_capacity(outer * inner);
        for a in 0..outer {
            let row = a * vcard * inner;
            for b in 0..inner {
                let mut sum = 0.0;
                for x in 0..vcard {
                    sum += self.values[row + b + x * inner];
                }
                values.push(sum);
            }
        }
        Factor { vars, card, values }
    }

    /// Conditions on `var = value`, removing it from the scope.
    ///
    /// # Panics
    /// Panics if `var` is not in scope or `value` is out of range.
    pub fn reduce(&self, var: usize, value: usize) -> Factor {
        let (p, outer, vcard, inner) = self.split_at_var(var);
        assert!(value < vcard, "evidence value out of range");
        let (vars, card) = self.scope_without(p);
        // Each outer row keeps the contiguous `inner` block at `value`.
        let mut values = Vec::with_capacity(outer * inner);
        for a in 0..outer {
            let start = (a * vcard + value) * inner;
            values.extend_from_slice(&self.values[start..start + inner]);
        }
        Factor { vars, card, values }
    }

    /// Marginal over a subset of the scope (sums out everything else).
    ///
    /// # Panics
    /// Panics if `keep` contains a variable outside the scope.
    pub fn marginalize_to(&self, keep: &[usize]) -> Factor {
        for v in keep {
            assert!(self.vars.contains(v), "variable {v} not in scope");
        }
        let mut f = self.clone();
        let drop: Vec<usize> = self
            .vars
            .iter()
            .copied()
            .filter(|v| !keep.contains(v))
            .collect();
        for v in drop {
            f = f.sum_out(v);
        }
        f
    }

    /// Normalizes in place to sum 1; an all-zero factor becomes uniform.
    pub fn normalize(&mut self) {
        let sum: f64 = self.values.iter().sum();
        if sum > 0.0 {
            for v in &mut self.values {
                *v /= sum;
            }
        } else {
            let u = 1.0 / self.values.len() as f64;
            self.values.fill(u);
        }
    }

    /// Total mass.
    pub fn sum(&self) -> f64 {
        self.values.iter().sum()
    }
}

/// Per-call index scratch of up to this many entries lives on the stack;
/// factors here span at most a dozen variables, so the heap fallback is
/// only for unusually wide tables.
const INLINE_SCRATCH: usize = 48;

/// Runs `f` over a zeroed `len`-entry index scratch slice.
fn with_index_scratch<R>(len: usize, f: impl FnOnce(&mut [usize]) -> R) -> R {
    if len <= INLINE_SCRATCH {
        f(&mut [0usize; INLINE_SCRATCH][..len])
    } else {
        f(&mut vec![0usize; len])
    }
}

/// Fills `out[k]` with the stride of `union[k]` in the operand laid out
/// over `vars`/`card` (a sorted subset of the sorted `union`), or 0 when
/// the operand does not mention it.
fn operand_strides(union: &[usize], vars: &[usize], card: &[usize], out: &mut [usize]) {
    let mut stride = 1;
    let mut i = vars.len();
    for k in (0..union.len()).rev() {
        if i > 0 && vars[i - 1] == union[k] {
            i -= 1;
            out[k] = stride;
            stride *= card[i];
        } else {
            out[k] = 0;
        }
    }
}

/// Working set of a variable elimination: input factors are only ever
/// *read* (products take references), so the pool borrows them and owns
/// nothing but intermediate results.
type Pool<'a> = Vec<Cow<'a, Factor>>;

/// Ascending list of every variable mentioned by `pool`.
fn scope_of(pool: &[Cow<'_, Factor>]) -> Vec<usize> {
    let mut all_vars: Vec<usize> = Vec::new();
    for f in pool {
        for &v in f.vars() {
            if !all_vars.contains(&v) {
                all_vars.push(v);
            }
        }
    }
    all_vars.sort_unstable();
    all_vars
}

/// One elimination step: multiplies every factor mentioning `v` in pool
/// order, sums `v` out and appends the result after the untouched
/// factors, which keep their order. `spare` is an empty buffer the pool
/// swaps with, so a step allocates only the new tables.
///
/// A merge starts from its first factor as-is: the unit-factor product it
/// replaces computes `1.0 * x`, which is `x` exactly.
fn eliminate_var<'a>(pool: &mut Pool<'a>, spare: &mut Pool<'a>, v: usize) {
    let mut merged: Option<Cow<'a, Factor>> = None;
    for f in pool.drain(..) {
        if f.vars().contains(&v) {
            merged = Some(match merged {
                None => f,
                Some(m) => Cow::Owned(times(m, &f)),
            });
        } else {
            spare.push(f);
        }
    }
    std::mem::swap(pool, spare);
    if let Some(m) = merged {
        pool.push(Cow::Owned(m.sum_out(v)));
    }
}

/// The normalized product of an eliminated pool, in pool order. Every
/// non-target variable is gone, so the product's scope is exactly the
/// targets: no further marginalization is needed.
fn normalized_product(pool: Pool<'_>) -> Factor {
    let mut factors = pool.into_iter();
    let mut joint = factors.next().unwrap_or(Cow::Owned(Factor::unit()));
    for f in factors {
        joint = Cow::Owned(times(joint, &f));
    }
    let mut joint = joint.into_owned();
    joint.normalize();
    joint
}

/// `acc.product(f)`, computed in `acc`'s own table when `acc` is owned
/// and `f`'s scope is a subset of its scope. The output layout is then
/// `acc`'s, and every entry is the same `acc[i] * f[ri]` product, so the
/// result is bit-identical to [`Factor::product`] without allocating.
/// (Eliminations multiply many summed-out scalars into one table; this
/// is what keeps those steps allocation-free.)
fn times(acc: Cow<'_, Factor>, f: &Factor) -> Factor {
    let mut acc = match acc {
        Cow::Owned(acc) if f.vars.iter().all(|v| acc.vars.binary_search(v).is_ok()) => acc,
        acc => return acc.product(f),
    };
    if let [c] = f.values[..] {
        for value in acc.values.iter_mut() {
            *value *= c;
        }
        return acc;
    }
    let n = acc.vars.len();
    with_index_scratch(2 * n, |scratch| {
        let (fstr, assign) = scratch.split_at_mut(n);
        operand_strides(&acc.vars, &f.vars, &f.card, fstr);
        let mut fi = 0usize;
        for value in acc.values.iter_mut() {
            *value *= f.values[fi];
            for k in (0..n).rev() {
                assign[k] += 1;
                fi += fstr[k];
                if assign[k] < acc.card[k] {
                    break;
                }
                assign[k] = 0;
                fi -= fstr[k] * acc.card[k];
            }
        }
    });
    acc
}

/// Exact variable elimination.
///
/// Multiplies `factors` (each already reduced by evidence), eliminates every
/// variable not in `targets` (ascending order — networks here are tiny), and
/// returns the normalized joint over `targets` (ascending).
///
/// # Panics
/// Panics if a target variable does not appear in any factor.
pub fn eliminate_to_joint(factors: &[Factor], targets: &[usize]) -> Factor {
    let mut pool: Pool<'_> = factors.iter().map(Cow::Borrowed).collect();
    let all_vars = scope_of(&pool);
    for t in targets {
        assert!(
            all_vars.contains(t),
            "target variable {t} not in any factor"
        );
    }
    let mut spare = Vec::with_capacity(pool.len());
    for v in all_vars {
        if !targets.contains(&v) {
            eliminate_var(&mut pool, &mut spare, v);
        }
    }
    normalized_product(pool)
}

/// Every single-variable posterior of `factors`: one normalized marginal
/// per mentioned variable, ascending, each bit-identical to
/// `eliminate_to_joint(factors, &[v])`.
///
/// The single-target elimination for `t = all_vars[k]` eliminates
/// `all_vars[..k]` and then `all_vars[k + 1..]`, and its first `k` steps
/// never touch `t`. So those steps are run once, as a shared prefix pool
/// that advances by one variable per target, and each target only
/// finishes the suffix from a borrowed copy of it. Pool order and every
/// floating-point operation are the same as the per-target runs; only the
/// repeated prefix work is gone (about half the elimination steps).
pub fn eliminate_to_marginals(factors: &[Factor]) -> Vec<(usize, Factor)> {
    let mut prefix: Pool<'_> = factors.iter().map(Cow::Borrowed).collect();
    let all_vars = scope_of(&prefix);
    let mut spare = Vec::with_capacity(prefix.len());
    let mut out = Vec::with_capacity(all_vars.len());
    for (k, &t) in all_vars.iter().enumerate() {
        let mut pool: Pool<'_> = prefix.iter().map(|f| Cow::Borrowed(&**f)).collect();
        let mut pool_spare = Vec::with_capacity(pool.len());
        for &v in &all_vars[k + 1..] {
            eliminate_var(&mut pool, &mut pool_spare, v);
        }
        out.push((t, normalized_product(pool)));
        if k + 1 < all_vars.len() {
            eliminate_var(&mut prefix, &mut spare, t);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// P(A) with P(A=1)=0.6.
    fn pa() -> Factor {
        Factor::new(vec![0], vec![2], vec![0.4, 0.6])
    }

    /// P(B|A): B=A with probability 0.9.
    fn pb_given_a() -> Factor {
        // Layout: vars [0,1], last var (B) fastest: (a0b0, a0b1, a1b0, a1b1).
        Factor::new(vec![0, 1], vec![2, 2], vec![0.9, 0.1, 0.1, 0.9])
    }

    #[test]
    fn product_of_independent_tables() {
        let f = pa().product(&Factor::new(vec![1], vec![2], vec![0.5, 0.5]));
        assert_eq!(f.vars(), &[0, 1]);
        assert!((f.at(&[1, 0]) - 0.3).abs() < 1e-12);
        assert!((f.sum() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn product_is_commutative() {
        let ab = pa().product(&pb_given_a());
        let ba = pb_given_a().product(&pa());
        assert_eq!(ab.vars(), ba.vars());
        for (x, y) in ab.values().iter().zip(ba.values()) {
            assert!((x - y).abs() < 1e-12);
        }
    }

    #[test]
    fn sum_out_gives_marginal() {
        let joint = pa().product(&pb_given_a());
        let pb = joint.sum_out(0);
        assert_eq!(pb.vars(), &[1]);
        // P(B=1) = 0.4*0.1 + 0.6*0.9 = 0.58.
        assert!((pb.at(&[1]) - 0.58).abs() < 1e-12);
    }

    #[test]
    fn reduce_conditions_on_evidence() {
        let joint = pa().product(&pb_given_a());
        let mut pa_given_b1 = joint.reduce(1, 1);
        pa_given_b1.normalize();
        // P(A=1|B=1) = 0.54 / 0.58.
        assert!((pa_given_b1.at(&[1]) - 0.54 / 0.58).abs() < 1e-12);
    }

    #[test]
    fn marginalize_to_subset() {
        let joint = pa().product(&pb_given_a());
        let m = joint.marginalize_to(&[0]);
        assert_eq!(m.vars(), &[0]);
        assert!((m.at(&[1]) - 0.6).abs() < 1e-12);
    }

    #[test]
    fn normalize_handles_zero_mass() {
        let mut f = Factor::new(vec![0], vec![3], vec![0.0, 0.0, 0.0]);
        f.normalize();
        for &v in f.values() {
            assert!((v - 1.0 / 3.0).abs() < 1e-12);
        }
    }

    #[test]
    fn unit_factor_is_identity() {
        let f = pa();
        let g = Factor::unit().product(&f);
        assert_eq!(f, g);
    }

    #[test]
    fn elimination_matches_direct_marginalization() {
        let factors = vec![pa(), pb_given_a()];
        let pb = eliminate_to_joint(&factors, &[1]);
        assert!((pb.at(&[1]) - 0.58).abs() < 1e-12);
        assert!((pb.sum() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn elimination_with_evidence() {
        // Condition on B=1 by reducing the CPT before elimination.
        let factors = vec![pa(), pb_given_a().reduce(1, 1)];
        let pa_post = eliminate_to_joint(&factors, &[0]);
        assert!((pa_post.at(&[1]) - 0.54 / 0.58).abs() < 1e-12);
    }

    #[test]
    fn joint_over_multiple_targets() {
        let factors = vec![pa(), pb_given_a()];
        let j = eliminate_to_joint(&factors, &[0, 1]);
        assert_eq!(j.vars(), &[0, 1]);
        assert!((j.at(&[1, 1]) - 0.54).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "strictly ascending")]
    fn unsorted_vars_panic() {
        let _ = Factor::new(vec![1, 0], vec![2, 2], vec![0.25; 4]);
    }

    #[test]
    #[should_panic(expected = "table size")]
    fn wrong_size_panics() {
        let _ = Factor::new(vec![0], vec![3], vec![0.5, 0.5]);
    }

    #[test]
    fn three_var_chain_inference() {
        // A -> B -> C, all binary, noisy copies (0.8 fidelity).
        let pa = Factor::new(vec![0], vec![2], vec![0.5, 0.5]);
        let pba = Factor::new(vec![0, 1], vec![2, 2], vec![0.8, 0.2, 0.2, 0.8]);
        let pcb = Factor::new(vec![1, 2], vec![2, 2], vec![0.8, 0.2, 0.2, 0.8]);
        // P(C=1 | A=1): 0.8*0.8 + 0.2*0.2 = 0.68.
        let factors = vec![pa.reduce(0, 1), pba.reduce(0, 1), pcb];
        let pc = eliminate_to_joint(&factors, &[2]);
        assert!((pc.at(&[1]) - 0.68).abs() < 1e-12);
    }
}
