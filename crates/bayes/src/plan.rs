//! Compiled variable elimination: the exact-inference engine under the
//! Bayesian profiler.
//!
//! Everything symbolic about an elimination depends only on the leaf
//! factors' scopes and on *which* variables are observed, never on the
//! observed values or the table entries:
//!
//! * which leaves an observation reduces, and at which stride its value
//!   offsets the leaf's table;
//! * the pool order, which factors merge at each step, and every
//!   intermediate scope, stride and table size;
//! * for the all-marginals pass, the shared prefix of the per-target
//!   eliminations.
//!
//! An [`EliminationPlan`] decides all of that once. Running it is a list
//! of flat kernels over one reused arena ([`PlanScratch`]): each kernel
//! walks its scope with an odometer, multiplies its operands left to
//! right and either sums one variable out into its output or writes the
//! final product, which is then normalized. The leaves are copied whole
//! to the front of the arena and read through evidence-value offsets, so
//! no reduced table is ever built, and a run allocates nothing once the
//! scratch has grown to the plan's size. Two more things are decided at
//! compile time: an elimination step that another target's suffix
//! already computed from the same operands is emitted once and shared,
//! and a kernel keeps the leading partial products of its fold that do
//! not depend on the innermost dimensions instead of recomputing them.
//!
//! Floating-point semantics are those of pooled elimination: ascending
//! elimination order; a step multiplies every pool factor mentioning the
//! variable in pool order, sums the variable out in ascending value
//! order, and appends the result after the untouched factors; the final
//! joint is the pool's product in pool order, normalized. Every output
//! entry is therefore the same left fold of the same operands as the
//! table-by-table algorithm, bit for bit (DESIGN.md §9.5).

use std::collections::HashMap;

use crate::factor::{card_to_row_major, normalize_table, Factor};
use crate::network::Evidence;

/// Where a kernel operand's entries live.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum Src {
    /// Leaf factor `i`, read from its evidence-dependent base offset.
    Leaf(usize),
    /// An earlier kernel's output, starting at this arena offset.
    Buf(usize),
}

/// What a kernel does with each product of its operands.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Mode {
    /// An elimination step: accumulate into the output, which drops one
    /// variable of the scope (its output stride is 0).
    SumOut,
    /// A final product: write every entry, then normalize the output.
    Product,
}

/// One fused product-and-sum over a scope of `n` variables with `m`
/// operands. Its index data lives in the plan's `data`, starting at
/// `at`: the scope's `n` cardinalities, then the operand strides
/// dimension-major (`n · m` entries, stride of operand `o` along
/// dimension `d` at `d · m + o`, 0 where `o` does not mention it), then
/// the output stride of each dimension (`n` entries), then each
/// operand's fold level (`m` entries: the product of operands `0..=o`
/// depends on dimensions `0..level` only, so it is recomputed only when
/// one of those moves). Its operands are `srcs[src..src + m]`, in
/// multiplication order.
#[derive(Debug, Clone, Copy)]
struct Kernel {
    at: usize,
    n: usize,
    src: usize,
    m: usize,
    /// Number of scope entries (the product of the cardinalities).
    size: usize,
    /// Output region: arena offset and length.
    out: usize,
    len: usize,
    mode: Mode,
}

/// One result table of a plan over `n` variables, whose ids and
/// cardinalities sit at `data[vars..vars + 2n]`.
#[derive(Debug, Clone, Copy)]
struct Output {
    vars: usize,
    n: usize,
    at: usize,
    len: usize,
}

/// A factor in the symbolic pool: `n` variables and their strides, at
/// `sym[at..at + 2n]` in the compiler.
#[derive(Debug, Clone, Copy)]
struct Sym {
    at: usize,
    n: usize,
    src: Src,
}

/// A compiled variable elimination over fixed leaf scopes and a fixed
/// set of observed variables; see the [module docs](self).
///
/// Build one with [`EliminationPlan::joint`],
/// [`EliminationPlan::joint_with_marginals`] or
/// [`EliminationPlan::marginals`] (a network's leaves are its
/// [`BayesNet::cpts`]) and [`run`](EliminationPlan::run) it under any
/// evidence *values* for the observed set it was compiled for.
///
/// [`BayesNet::cpts`]: crate::network::BayesNet::cpts
#[derive(Debug, Clone)]
pub struct EliminationPlan {
    /// Arena offset of every leaf's table, plus the end of the last one:
    /// a run copies leaf `i` to `leaf_at[i]..leaf_at[i + 1]`.
    leaf_at: Vec<usize>,
    /// Observed variables (ascending) and their cardinalities.
    observed: Vec<usize>,
    observed_card: Vec<usize>,
    /// `(leaf, stride)` of every leaf whose scope holds observed variable
    /// `j`, at `obs_leaves[obs_at[j]..obs_at[j + 1]]`: a leaf is read from
    /// its arena offset plus `Σ value · stride` over its observations.
    obs_leaves: Vec<(usize, usize)>,
    obs_at: Vec<usize>,
    /// The largest `m + n` and row length over the kernels.
    max_index: usize,
    max_row: usize,
    kernels: Vec<Kernel>,
    srcs: Vec<Src>,
    /// Kernel and output index data (see [`Kernel`], [`Output`]).
    data: Vec<usize>,
    outputs: Vec<Output>,
    /// Arena entries a run needs.
    arena: usize,
}

/// Reusable run buffers for [`EliminationPlan::run`]: the value arena,
/// the per-leaf read offsets, and one kernel's odometer, partial products
/// and row. Grows to the largest plan it has run and then never allocates
/// again.
#[derive(Debug, Clone, Default)]
pub struct PlanScratch {
    values: Vec<f64>,
    bases: Vec<usize>,
    run: Run,
}

/// The normalized result tables of one [`EliminationPlan::run`].
#[derive(Debug, Clone, Copy)]
pub struct PlanOutputs<'a> {
    plan: &'a EliminationPlan,
    values: &'a [f64],
}

impl<'a> PlanOutputs<'a> {
    /// Number of result tables.
    pub fn len(&self) -> usize {
        self.plan.outputs.len()
    }

    /// True when the plan has no result tables.
    pub fn is_empty(&self) -> bool {
        self.plan.outputs.is_empty()
    }

    /// The variables (ascending) and row-major values of result `k`.
    pub fn get(&self, k: usize) -> (&'a [usize], &'a [f64]) {
        let o = self.plan.outputs[k];
        self.plan.output(o, self.values)
    }

    /// Every result in order: for a marginals plan one single-variable
    /// table per unobserved variable, ascending.
    pub fn iter(&self) -> impl Iterator<Item = (&'a [usize], &'a [f64])> + 'a {
        let (plan, values) = (self.plan, self.values);
        plan.outputs.iter().map(move |&o| plan.output(o, values))
    }

    /// Result `k` as an owned [`Factor`].
    pub fn factor(&self, k: usize) -> Factor {
        let o = self.plan.outputs[k];
        let (vars, values) = self.plan.output(o, self.values);
        let card = &self.plan.data[o.vars + o.n..o.vars + 2 * o.n];
        Factor::new(vars.to_vec(), card.to_vec(), values.to_vec())
    }
}

/// The compiler's state: the cardinality of every variable seen, the
/// symbolic pool's scope storage, and the plan under construction.
struct Compiler {
    card: Vec<usize>,
    sym: Vec<usize>,
    plan: EliminationPlan,
    /// Reused buffers: a kernel's scope, and a step's merged factors.
    scope: Vec<usize>,
    merged: Vec<Sym>,
    /// Every elimination step emitted so far, by (variable, operands),
    /// when steps may repeat (the all-marginals pass; a single
    /// elimination never repeats one).
    steps: Option<HashMap<(usize, Vec<Src>), Sym>>,
}

impl Compiler {
    fn vars(&self, f: Sym) -> &[usize] {
        &self.sym[f.at..f.at + f.n]
    }

    /// Emits one kernel over the union scope of `ops`. For
    /// [`Mode::SumOut`] the output drops `sum`; for [`Mode::Product`] it
    /// keeps the whole scope. Returns the output as a pool factor.
    fn kernel(&mut self, ops: &[Sym], sum: Option<usize>, mode: Mode) -> Sym {
        let mut scope = std::mem::take(&mut self.scope);
        scope.clear();
        for &f in ops {
            scope.extend_from_slice(self.vars(f));
        }
        scope.sort_unstable();
        scope.dedup();
        let (n, m) = (scope.len(), ops.len());
        let data = &mut self.plan.data;
        let at = data.len();
        data.extend(scope.iter().map(|&v| self.card[v]));
        data.resize(at + n + n * m, 0);
        for (o, &f) in ops.iter().enumerate() {
            let (vars, strides) = self.sym[f.at..f.at + 2 * f.n].split_at(f.n);
            for (v, &st) in vars.iter().zip(strides) {
                let d = scope.binary_search(v).expect("operand var in scope");
                data[at + n + d * m + o] = st;
            }
        }
        // The output: the scope without `sum`, row-major.
        let out_at = self.sym.len();
        self.sym
            .extend(scope.iter().copied().filter(|&v| Some(v) != sum));
        let out_n = self.sym.len() - out_at;
        for j in out_at..out_at + out_n {
            self.sym.push(self.card[self.sym[j]]);
        }
        card_to_row_major(&mut self.sym[out_at + out_n..]);
        for &v in &scope {
            let out_vars = &self.sym[out_at..out_at + out_n];
            data.push(match out_vars.binary_search(&v) {
                Ok(p) => self.sym[out_at + out_n + p],
                Err(_) => 0,
            });
        }
        // Fold levels: the product of operands `0..=o` varies with
        // dimensions `0..level` only.
        let mut level = 0;
        for o in 0..m {
            let deepest = (0..n).rev().find(|&d| data[at + n + d * m + o] != 0);
            level = level.max(deepest.map_or(0, |d| d + 1));
            data.push(level);
        }
        let size = data[at..at + n].iter().product();
        let len: usize = (0..out_n)
            .map(|j| self.card[self.sym[out_at + j]])
            .product();
        let out = self.plan.arena;
        self.plan.arena += len;
        self.plan.max_index = self.plan.max_index.max(m + n);
        self.plan.max_row = self
            .plan
            .max_row
            .max(data[at..at + n].last().copied().unwrap_or(1));
        let src = self.plan.srcs.len();
        self.plan.srcs.extend(ops.iter().map(|f| f.src));
        self.plan.kernels.push(Kernel {
            at,
            n,
            src,
            m,
            size,
            out,
            len,
            mode,
        });
        self.scope = scope;
        Sym {
            at: out_at,
            n: out_n,
            src: Src::Buf(out),
        }
    }

    /// One elimination step: merges every factor mentioning `v` in pool
    /// order, sums `v` out and appends the result after the untouched
    /// factors, which keep their order.
    fn eliminate(&mut self, pool: &mut Vec<Sym>, v: usize) {
        let mut merged = std::mem::take(&mut self.merged);
        merged.clear();
        merged.extend(pool.iter().filter(|&&f| self.vars(f).contains(&v)));
        pool.retain(|&f| !self.vars(f).contains(&v));
        if !merged.is_empty() {
            // A step is a pure function of its operands: when another
            // target's suffix already summed `v` out of the same factors,
            // its output is reused (same operations on the same inputs).
            let key = self
                .steps
                .as_ref()
                .map(|_| (v, merged.iter().map(|f| f.src).collect()));
            let out = match key.as_ref().and_then(|k| self.steps.as_ref()?.get(k)) {
                Some(&out) => out,
                None => {
                    let out = self.kernel(&merged, Some(v), Mode::SumOut);
                    if let (Some(steps), Some(key)) = (self.steps.as_mut(), key) {
                        steps.insert(key, out);
                    }
                    out
                }
            };
            pool.push(out);
        }
        self.merged = merged;
    }

    /// The normalized product of an eliminated pool, recorded as a
    /// result table.
    fn finish(&mut self, pool: &[Sym]) -> Sym {
        let out = self.kernel(pool, None, Mode::Product);
        self.record(out);
        out
    }

    /// The marginal of `table` onto `keep`, recorded as a result table:
    /// every other variable summed out in ascending order, one kernel
    /// each, as [`Factor::marginalize_to`] does.
    fn marginal(&mut self, table: Sym, keep: &[usize]) {
        let vars = self.vars(table);
        for v in keep {
            assert!(vars.contains(v), "variable {v} not in scope");
        }
        let drop: Vec<usize> = vars.iter().copied().filter(|v| !keep.contains(v)).collect();
        let mut out = table;
        for v in drop {
            out = self.kernel(&[out], Some(v), Mode::SumOut);
        }
        self.record(out);
    }

    fn record(&mut self, out: Sym) {
        let vars = self.plan.data.len();
        let scope = &self.sym[out.at..out.at + out.n];
        self.plan.data.extend_from_slice(scope);
        self.plan.data.extend(scope.iter().map(|&v| self.card[v]));
        let Src::Buf(at) = out.src else {
            unreachable!("kernels write the arena")
        };
        self.plan.outputs.push(Output {
            vars,
            n: out.n,
            at,
            len: self.plan.data[vars + out.n..].iter().product(),
        });
    }
}

impl EliminationPlan {
    /// The compiler over the leaf pool, the pool, and the sorted
    /// variables it mentions.
    fn start(leaves: &[Factor], observed: &[usize]) -> (Compiler, Vec<Sym>, Vec<usize>) {
        assert!(
            observed.windows(2).all(|w| w[0] < w[1]),
            "observed variables must be strictly ascending"
        );
        let n_card = leaves
            .iter()
            .flat_map(|f| f.vars().iter().map(|&v| v + 1))
            .chain(observed.iter().map(|&v| v + 1))
            .max()
            .unwrap_or(0);
        let mut card = vec![0usize; n_card];
        for f in leaves {
            for (&v, &c) in f.vars().iter().zip(f.card()) {
                assert!(
                    card[v] == 0 || card[v] == c,
                    "cardinality conflict for var {v}"
                );
                card[v] = c;
            }
        }
        let mut leaf_at = Vec::with_capacity(leaves.len() + 1);
        leaf_at.push(0);
        for f in leaves {
            leaf_at.push(leaf_at.last().copied().unwrap_or(0) + f.len());
        }
        let mut plan = EliminationPlan {
            arena: leaf_at.last().copied().unwrap_or(0),
            leaf_at,
            observed: observed.to_vec(),
            observed_card: observed.iter().map(|&v| card[v]).collect(),
            obs_leaves: Vec::new(),
            obs_at: Vec::with_capacity(observed.len() + 1),
            max_index: 0,
            max_row: 0,
            kernels: Vec::new(),
            srcs: Vec::new(),
            data: Vec::new(),
            outputs: Vec::new(),
        };
        let mut sym = Vec::new();
        let mut strides = Vec::new();
        let mut pool = Vec::with_capacity(leaves.len());
        let mut obs = Vec::new();
        for (i, f) in leaves.iter().enumerate() {
            strides.clear();
            strides.extend_from_slice(f.card());
            card_to_row_major(&mut strides);
            let at = sym.len();
            for (&v, &st) in f.vars().iter().zip(&strides) {
                match observed.binary_search(&v) {
                    Ok(j) => obs.push((j, i, st)),
                    Err(_) => sym.push(v),
                }
            }
            let n = sym.len() - at;
            for (&v, &st) in f.vars().iter().zip(&strides) {
                if observed.binary_search(&v).is_err() {
                    sym.push(st);
                }
            }
            pool.push(Sym {
                at,
                n,
                src: Src::Leaf(i),
            });
        }
        obs.sort_unstable();
        for j in 0..observed.len() {
            plan.obs_at.push(plan.obs_leaves.len());
            plan.obs_leaves.extend(
                obs.iter()
                    .filter(|&&(o, _, _)| o == j)
                    .map(|&(_, leaf, st)| (leaf, st)),
            );
        }
        plan.obs_at.push(plan.obs_leaves.len());
        let mut all_vars: Vec<usize> = pool
            .iter()
            .flat_map(|f| sym[f.at..f.at + f.n].iter().copied())
            .collect();
        all_vars.sort_unstable();
        all_vars.dedup();
        let compiler = Compiler {
            card,
            sym,
            plan,
            scope: Vec::new(),
            merged: Vec::new(),
            steps: None,
        };
        (compiler, pool, all_vars)
    }

    /// Compiles the normalized joint over `targets` of the product of
    /// `leaves`, with the `observed` variables (ascending) conditioned on
    /// at run time. Every other variable is eliminated in ascending
    /// order. The plan has one result: the joint over the sorted targets.
    ///
    /// # Panics
    /// Panics if a target variable is observed or appears in no leaf, or
    /// if `observed` is not strictly ascending.
    pub fn joint(leaves: &[Factor], observed: &[usize], targets: &[usize]) -> Self {
        Self::joint_with_marginals(leaves, observed, targets, &[])
    }

    /// [`joint`](Self::joint), followed by one more result per `keeps`
    /// entry: the joint's marginal onto that subset of the targets,
    /// bit-identical to [`Factor::marginalize_to`] on the joint (the
    /// other targets summed out in ascending order, not renormalized).
    ///
    /// # Panics
    /// As [`joint`](Self::joint), and if a `keeps` entry holds a variable
    /// outside `targets`.
    pub fn joint_with_marginals(
        leaves: &[Factor],
        observed: &[usize],
        targets: &[usize],
        keeps: &[&[usize]],
    ) -> Self {
        let (mut c, mut pool, all_vars) = Self::start(leaves, observed);
        for t in targets {
            assert!(
                all_vars.contains(t),
                "target variable {t} not in any factor"
            );
        }
        for &v in &all_vars {
            if !targets.contains(&v) {
                c.eliminate(&mut pool, v);
            }
        }
        let joint = c.finish(&pool);
        for keep in keeps {
            c.marginal(joint, keep);
        }
        c.plan
    }

    /// Compiles every single-variable posterior of the product of
    /// `leaves` under the `observed` variables (ascending): one result per
    /// unobserved variable, ascending, each bit-identical to the
    /// [`joint`](Self::joint) plan over that variable alone.
    ///
    /// The single-target elimination for `t = all_vars[k]` eliminates
    /// `all_vars[..k]`, then `all_vars[k + 1..]`, and its first `k` steps
    /// never touch `t`. So those steps are compiled once, as a shared
    /// prefix pool that advances by one variable per target, and each
    /// target only adds the kernels of its suffix.
    ///
    /// # Panics
    /// Panics if `observed` is not strictly ascending.
    pub fn marginals(leaves: &[Factor], observed: &[usize]) -> Self {
        let (mut c, mut prefix, all_vars) = Self::start(leaves, observed);
        c.steps = Some(HashMap::new());
        let mut pool = Vec::with_capacity(prefix.len());
        for (k, &t) in all_vars.iter().enumerate() {
            pool.clone_from(&prefix);
            for &v in &all_vars[k + 1..] {
                c.eliminate(&mut pool, v);
            }
            c.finish(&pool);
            if k + 1 < all_vars.len() {
                c.eliminate(&mut prefix, t);
            }
        }
        c.plan
    }

    fn output<'v>(&'v self, o: Output, values: &'v [f64]) -> (&'v [usize], &'v [f64]) {
        (
            &self.data[o.vars..o.vars + o.n],
            &values[o.at..o.at + o.len],
        )
    }

    /// Runs the plan on `leaves` (the factors it was compiled against,
    /// with the same scopes) under `evidence`, whose keys must be exactly
    /// the plan's observed set. Allocation-free once `scratch` has grown
    /// to this plan's size.
    ///
    /// # Panics
    /// Panics if the leaves or the evidence keys do not match the plan,
    /// or an evidence value is out of its variable's range.
    pub fn run<'a>(
        &'a self,
        leaves: &[Factor],
        evidence: &Evidence,
        scratch: &'a mut PlanScratch,
    ) -> PlanOutputs<'a> {
        assert!(
            leaves.len() + 1 == self.leaf_at.len()
                && leaves
                    .iter()
                    .zip(self.leaf_at.windows(2))
                    .all(|(f, w)| f.len() == w[1] - w[0]),
            "leaves do not match the plan"
        );
        assert_eq!(
            evidence.len(),
            self.observed.len(),
            "evidence does not match the plan's observed set"
        );
        let PlanScratch { values, bases, run } = scratch;
        if values.len() < self.arena {
            values.resize(self.arena, 0.0);
        }
        run.index.resize(run.index.len().max(self.max_index), 0);
        run.partial
            .resize(run.partial.len().max(self.max_index), 0.0);
        run.row.resize(run.row.len().max(self.max_row), 0.0);
        // The leaves go to the front of the arena, and each is read from
        // the offset its observed values select.
        bases.clear();
        bases.extend_from_slice(&self.leaf_at[..leaves.len()]);
        for (f, &at) in leaves.iter().zip(&self.leaf_at) {
            values[at..at + f.len()].copy_from_slice(f.values());
        }
        for (j, ((&var, &val), (&want, &card))) in evidence
            .iter()
            .zip(self.observed.iter().zip(&self.observed_card))
            .enumerate()
        {
            assert_eq!(var, want, "evidence does not match the plan's observed set");
            assert!(val < card, "evidence value out of range");
            for &(leaf, stride) in &self.obs_leaves[self.obs_at[j]..self.obs_at[j + 1]] {
                bases[leaf] += val * stride;
            }
        }
        for k in &self.kernels {
            let (read, rest) = values.split_at_mut(k.out);
            self.run_kernel(k, bases, read, &mut rest[..k.len], run);
        }
        PlanOutputs { plan: self, values }
    }

    /// Runs one kernel into `out`. `read` is the arena before `out`: the
    /// leaves and every earlier kernel's output.
    ///
    /// The scope is walked in row-major order, one row of the last
    /// dimension at a time, and every entry is the left fold
    /// `((f0 · f1) · f2) …` of the pooled products, summed into (or
    /// written to) the output in that order. The fold's leading partial
    /// products that do not depend on the row are kept in `partial` and
    /// recomputed only when a dimension they depend on moves, so each is
    /// the same product of the same two values as a full recomputation.
    fn run_kernel(&self, k: &Kernel, bases: &[usize], read: &[f64], out: &mut [f64], s: &mut Run) {
        let (n, m) = (k.n, k.m);
        let card = &self.data[k.at..k.at + n];
        let strides = &self.data[k.at + n..k.at + n + n * m];
        let out_strides = &self.data[k.at + n + n * m..k.at + 2 * n + n * m];
        let levels = &self.data[k.at + 2 * n + n * m..k.at + 2 * n + n * m + m];
        let (idx, assign) = s.index[..m + n].split_at_mut(m);
        let partial = &mut s.partial[..m];
        assign.fill(0);
        for (i, src) in idx.iter_mut().zip(&self.srcs[k.src..k.src + m]) {
            *i = match *src {
                Src::Leaf(leaf) => bases[leaf],
                Src::Buf(at) => at,
            };
        }
        // The last dimension is the row; a scalar scope is one row of one.
        let (row_len, row_out) = match n {
            0 => (1, 0),
            _ => (card[n - 1], out_strides[n - 1]),
        };
        let row_stride = |o: usize| match n {
            0 => 0,
            _ => strides[(n - 1) * m + o],
        };
        // Operands before `first` fold into a row-invariant partial.
        let first = levels.iter().position(|&l| l == n).unwrap_or(m);
        let refresh = |partial: &mut [f64], idx: &[usize], from: usize| {
            for j in from..first {
                partial[j] = match j {
                    0 => read[idx[0]],
                    _ => partial[j - 1] * read[idx[j]],
                };
            }
        };
        refresh(partial, idx, 0);
        let row = &mut s.row[..row_len];
        if k.mode == Mode::SumOut {
            out.fill(0.0);
        }
        let mut oi = 0usize;
        for _ in 0..k.size / row_len {
            match (first, m) {
                // An empty pool is the unit factor.
                (_, 0) => row.fill(1.0),
                (0, _) => fill_row(row, read, idx[0], row_stride(0)),
                (j, m) if j == m => row.fill(partial[m - 1]),
                (j, _) => scale_row(row, partial[j - 1], read, idx[j], row_stride(j)),
            }
            for (o, &i) in idx.iter().enumerate().skip(first + 1) {
                mul_row(row, read, i, row_stride(o));
            }
            match (k.mode, row_out) {
                // Summing out the row's own variable: one entry takes
                // the whole row, in ascending order.
                (Mode::SumOut, 0) => {
                    let mut acc = out[oi];
                    for &r in row.iter() {
                        acc += r;
                    }
                    out[oi] = acc;
                }
                (Mode::SumOut, _) => {
                    for (o, &r) in out[oi..].iter_mut().step_by(row_out).zip(row.iter()) {
                        *o += r;
                    }
                }
                (Mode::Product, _) => {
                    for (o, &r) in out[oi..].iter_mut().step_by(row_out.max(1)).zip(row.iter()) {
                        *o = r;
                    }
                }
            }
            // Advance the odometer over the dimensions before the row,
            // then refresh the partials that depend on the one that moved.
            for d in (0..n.saturating_sub(1)).rev() {
                let st = &strides[d * m..(d + 1) * m];
                assign[d] += 1;
                for (i, s) in idx.iter_mut().zip(st) {
                    *i += s;
                }
                oi += out_strides[d];
                if assign[d] < card[d] {
                    refresh(partial, idx, levels.partition_point(|&l| l <= d));
                    break;
                }
                assign[d] = 0;
                for (i, s) in idx.iter_mut().zip(st) {
                    *i -= s * card[d];
                }
                oi -= out_strides[d] * card[d];
            }
        }
        if k.mode == Mode::Product {
            normalize_table(out);
        }
    }
}

/// One kernel's run buffers: operand offsets and odometer, the fold's
/// partial products, and the row.
#[derive(Debug, Clone, Default)]
struct Run {
    index: Vec<usize>,
    partial: Vec<f64>,
    row: Vec<f64>,
}

/// `row[x] = p · f[at + x · stride]`.
fn scale_row(row: &mut [f64], p: f64, f: &[f64], at: usize, stride: usize) {
    if stride == 0 {
        row.fill(p * f[at]);
    } else {
        for (r, &v) in row.iter_mut().zip(f[at..].iter().step_by(stride)) {
            *r = p * v;
        }
    }
}

/// `row[x] = f[at + x · stride]`.
fn fill_row(row: &mut [f64], f: &[f64], at: usize, stride: usize) {
    if stride == 0 {
        row.fill(f[at]);
    } else if stride == 1 {
        row.copy_from_slice(&f[at..at + row.len()]);
    } else {
        for (r, &v) in row.iter_mut().zip(f[at..].iter().step_by(stride)) {
            *r = v;
        }
    }
}

/// `row[x] *= f[at + x · stride]`.
fn mul_row(row: &mut [f64], f: &[f64], at: usize, stride: usize) {
    if stride == 0 {
        let v = f[at];
        for r in row.iter_mut() {
            *r *= v;
        }
    } else if stride == 1 {
        let len = row.len();
        for (r, &v) in row.iter_mut().zip(&f[at..at + len]) {
            *r *= v;
        }
    } else {
        for (r, &v) in row.iter_mut().zip(f[at..].iter().step_by(stride)) {
            *r *= v;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// P(A), P(B|A), P(C|B) over binary variables 0, 1, 2.
    fn chain() -> Vec<Factor> {
        vec![
            Factor::new(vec![0], vec![2], vec![0.3, 0.7]),
            Factor::new(vec![0, 1], vec![2, 2], vec![0.9, 0.1, 0.2, 0.8]),
            Factor::new(vec![1, 2], vec![2, 2], vec![0.6, 0.4, 0.25, 0.75]),
        ]
    }

    #[test]
    fn one_plan_serves_every_evidence_value() {
        let leaves = chain();
        let plan = EliminationPlan::joint(&leaves, &[0], &[2]);
        let mut scratch = PlanScratch::default();
        for a in 0..2 {
            let ev: Evidence = [(0, a)].into_iter().collect();
            let got = plan.run(&leaves, &ev, &mut scratch).factor(0);
            // P(C | A=a) by reducing the leaves and eliminating B.
            let reduced = [
                leaves[0].reduce(0, a),
                leaves[1].reduce(0, a),
                leaves[2].clone(),
            ];
            let mut want = reduced[1].product(&reduced[2]).sum_out(1);
            for f in &reduced[..1] {
                want = f.product(&want);
            }
            want.normalize();
            for (x, y) in got.values().iter().zip(want.values()) {
                assert!((x - y).abs() < 1e-15);
            }
        }
    }

    #[test]
    fn marginals_cover_every_unobserved_variable() {
        let leaves = chain();
        let plan = EliminationPlan::marginals(&leaves, &[1]);
        let mut scratch = PlanScratch::default();
        let ev: Evidence = [(1, 1)].into_iter().collect();
        let out = plan.run(&leaves, &ev, &mut scratch);
        let vars: Vec<&[usize]> = out.iter().map(|(v, _)| v).collect();
        assert_eq!(vars, vec![&[0][..], &[2][..]]);
        for (_, p) in out.iter() {
            assert!((p.iter().sum::<f64>() - 1.0).abs() < 1e-12);
        }
    }

    #[test]
    fn a_run_after_the_first_does_not_grow_the_scratch() {
        let leaves = chain();
        let plan = EliminationPlan::marginals(&leaves, &[]);
        let mut scratch = PlanScratch::default();
        plan.run(&leaves, &Evidence::new(), &mut scratch);
        let cap = scratch.values.capacity();
        plan.run(&leaves, &Evidence::new(), &mut scratch);
        assert_eq!(scratch.values.capacity(), cap);
        assert_eq!(scratch.values.len(), plan.arena);
    }

    #[test]
    #[should_panic(expected = "observed set")]
    fn evidence_outside_the_observed_set_is_rejected() {
        let leaves = chain();
        let plan = EliminationPlan::joint(&leaves, &[0], &[2]);
        let ev: Evidence = [(1, 0)].into_iter().collect();
        plan.run(&leaves, &ev, &mut PlanScratch::default());
    }
}
