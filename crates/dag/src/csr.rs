//! Flat CSR-style arenas: the hot-path storage layout for per-stage lists.
//!
//! A [`Csr`] packs `n` variable-length rows into one backing `Vec` plus an
//! `n + 1` offset table — the classic compressed-sparse-row layout used by
//! graph engines and discrete-event frameworks (dslab keeps its DAGs and
//! event payloads in exactly this shape). Reading a row is two offset
//! loads and a slice borrow: no per-row allocation, no pointer chasing,
//! and rows of one structure share a single cache-friendly arena.
//!
//! [`CsrDag`] is the crate's one directed-graph type, built on two such
//! arenas (forward and reverse adjacency). Every graph here is constructed
//! once and then only queried: a [`Template`](crate::template::Template)'s
//! static structure and a [`JobSpec`](crate::job::JobSpec)'s adjacency,
//! which is on the simulator's per-event path.

use std::ops::Range;

/// `n` variable-length rows packed into one backing arena.
///
/// Row order and within-row element order are exactly the insertion order
/// of the builder input; [`Csr::row`] returns a borrowed slice.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Csr<T> {
    /// `rows + 1` offsets into `data`; row `i` spans
    /// `data[offsets[i]..offsets[i + 1]]`.
    offsets: Vec<u32>,
    data: Vec<T>,
}

impl<T> Csr<T> {
    /// An arena with zero rows.
    pub fn new() -> Self {
        Csr {
            offsets: vec![0],
            data: Vec::new(),
        }
    }

    /// Builds an arena of `n` rows, filling row `i` from `row(i)`.
    pub fn from_row_fn<I, F>(n: usize, mut row: F) -> Self
    where
        I: IntoIterator<Item = T>,
        F: FnMut(usize) -> I,
    {
        let mut offsets = Vec::with_capacity(n + 1);
        let mut data = Vec::new();
        offsets.push(0u32);
        for i in 0..n {
            data.extend(row(i));
            offsets.push(u32::try_from(data.len()).expect("csr arena larger than u32::MAX"));
        }
        Csr { offsets, data }
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.offsets.len() - 1
    }

    /// True if the arena has zero rows.
    pub fn is_empty(&self) -> bool {
        self.rows() == 0
    }

    /// Total number of stored elements across all rows.
    pub fn total_len(&self) -> usize {
        self.data.len()
    }

    /// The elements of row `i`.
    ///
    /// # Panics
    /// Panics if `i >= self.rows()`.
    pub fn row(&self, i: usize) -> &[T] {
        &self.data[self.range(i)]
    }

    /// The arena index range of row `i` — stable handles into
    /// [`Csr::items`], usable as flat indices by parallel SoA arrays.
    ///
    /// # Panics
    /// Panics if `i >= self.rows()`.
    pub fn range(&self, i: usize) -> Range<usize> {
        self.offsets[i] as usize..self.offsets[i + 1] as usize
    }

    /// Length of row `i`.
    pub fn row_len(&self, i: usize) -> usize {
        (self.offsets[i + 1] - self.offsets[i]) as usize
    }

    /// The whole backing arena, rows concatenated in order.
    pub fn items(&self) -> &[T] {
        &self.data
    }
}

impl<T, I: IntoIterator<Item = T>> FromIterator<I> for Csr<T> {
    /// Collects an iterator of rows into an arena.
    fn from_iter<It: IntoIterator<Item = I>>(rows: It) -> Self {
        let mut offsets = vec![0u32];
        let mut data = Vec::new();
        for r in rows {
            data.extend(r);
            offsets.push(u32::try_from(data.len()).expect("csr arena larger than u32::MAX"));
        }
        Csr { offsets, data }
    }
}

/// A read-only DAG over nodes `0..n` stored as two CSR arenas (forward and
/// reverse adjacency).
///
/// Construction dedupes edges, first insertion winning; the model tests
/// pin every query against a naive `Vec<Vec<_>>` reference model.
#[derive(Debug, Clone, Default)]
pub struct CsrDag {
    succ: Csr<u32>,
    pred: Csr<u32>,
}

impl CsrDag {
    /// Builds the graph from an edge list; duplicate edges are ignored
    /// (first insertion wins).
    ///
    /// # Panics
    /// Panics if an edge references a node `>= n`.
    pub fn from_edges(n: usize, edges: &[(u32, u32)]) -> Self {
        for &(u, v) in edges {
            assert!(
                (u as usize) < n && (v as usize) < n,
                "edge ({u},{v}) out of range"
            );
        }
        // Two counting passes per direction build the arenas without any
        // per-node list; duplicate suppression scans the row filled so far
        // (rows are tiny in every workload this crate models).
        let succ = Self::direction(n, edges.iter().copied());
        let pred = Self::direction(n, edges.iter().map(|&(u, v)| (v, u)));
        CsrDag { succ, pred }
    }

    fn direction(n: usize, edges: impl Iterator<Item = (u32, u32)> + Clone) -> Csr<u32> {
        let mut counts = vec![0u32; n + 1];
        for (u, _) in edges.clone() {
            counts[u as usize + 1] += 1;
        }
        let mut offsets = counts;
        for i in 0..n {
            offsets[i + 1] += offsets[i];
        }
        // `fill[i]` marks how much of row i is populated; the slice scan
        // below it suppresses duplicates in first-insertion order.
        let mut fill = vec![0u32; n];
        let mut data = vec![0u32; offsets[n] as usize];
        for (u, v) in edges {
            let base = offsets[u as usize] as usize;
            let len = fill[u as usize] as usize;
            if !data[base..base + len].contains(&v) {
                data[base + len] = v;
                fill[u as usize] += 1;
            }
        }
        // Compact duplicate slack out of the arena.
        let mut compact = Vec::with_capacity(data.len());
        let mut new_offsets = Vec::with_capacity(n + 1);
        new_offsets.push(0u32);
        for i in 0..n {
            let base = offsets[i] as usize;
            compact.extend_from_slice(&data[base..base + fill[i] as usize]);
            new_offsets.push(compact.len() as u32);
        }
        Csr {
            offsets: new_offsets,
            data: compact,
        }
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.succ.rows()
    }

    /// True if the graph has no nodes.
    pub fn is_empty(&self) -> bool {
        self.succ.is_empty()
    }

    /// Successors of `u`, in first-insertion order.
    pub fn successors(&self, u: usize) -> &[u32] {
        self.succ.row(u)
    }

    /// Predecessors of `u`, in first-insertion order.
    pub fn predecessors(&self, u: usize) -> &[u32] {
        self.pred.row(u)
    }

    /// Out-degree of `u`.
    pub fn out_degree(&self, u: usize) -> usize {
        self.succ.row_len(u)
    }

    /// In-degree of `u`.
    pub fn in_degree(&self, u: usize) -> usize {
        self.pred.row_len(u)
    }

    /// Kahn topological order with stable (smallest-index-first)
    /// tie-breaking; `None` if the graph has a cycle.
    pub fn topo_order(&self) -> Option<Vec<u32>> {
        let n = self.len();
        let mut indeg: Vec<u32> = (0..n).map(|v| self.in_degree(v) as u32).collect();
        let mut frontier: std::collections::BinaryHeap<std::cmp::Reverse<u32>> = (0..n as u32)
            .filter(|&v| indeg[v as usize] == 0)
            .map(std::cmp::Reverse)
            .collect();
        let mut order = Vec::with_capacity(n);
        while let Some(std::cmp::Reverse(u)) = frontier.pop() {
            order.push(u);
            for &v in self.successors(u as usize) {
                indeg[v as usize] -= 1;
                if indeg[v as usize] == 0 {
                    frontier.push(std::cmp::Reverse(v));
                }
            }
        }
        (order.len() == n).then_some(order)
    }

    /// True if the graph is acyclic.
    pub fn is_acyclic(&self) -> bool {
        self.topo_order().is_some()
    }

    /// All nodes reachable from `u` (excluding `u`), ascending.
    pub fn descendants(&self, u: usize) -> Vec<u32> {
        self.reach(u, |g, x| g.successors(x))
    }

    /// All nodes that reach `u` (excluding `u`), ascending.
    pub fn ancestors(&self, u: usize) -> Vec<u32> {
        self.reach(u, |g, x| g.predecessors(x))
    }

    fn reach(&self, u: usize, next: impl Fn(&Self, usize) -> &[u32]) -> Vec<u32> {
        let mut seen = vec![false; self.len()];
        let mut stack = vec![u as u32];
        while let Some(x) = stack.pop() {
            for &v in next(self, x as usize) {
                if !seen[v as usize] {
                    seen[v as usize] = true;
                    stack.push(v);
                }
            }
        }
        seen.iter()
            .enumerate()
            .filter(|&(_, &s)| s)
            .map(|(i, _)| i as u32)
            .collect()
    }

    /// Weighted critical-path length: the maximum over all paths of the
    /// sum of node weights (zero-weight nodes, e.g. void stages,
    /// contribute nothing).
    ///
    /// # Panics
    /// Panics if the graph is cyclic or `weight.len() != self.len()`.
    pub fn critical_path(&self, weight: &[f64]) -> f64 {
        assert_eq!(weight.len(), self.len(), "weight vector length mismatch");
        let order = self
            .topo_order()
            .expect("critical_path() requires an acyclic graph");
        let mut best = vec![0.0f64; self.len()];
        let mut max = 0.0f64;
        for &u in &order {
            let through = best[u as usize] + weight[u as usize];
            max = max.max(through);
            for &v in self.successors(u as usize) {
                if through > best[v as usize] {
                    best[v as usize] = through;
                }
            }
        }
        max
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn diamond() -> CsrDag {
        CsrDag::from_edges(4, &[(0, 1), (0, 2), (1, 3), (2, 3)])
    }

    #[test]
    fn csr_rows_preserve_insertion_order() {
        let c: Csr<u32> = [vec![3, 1], vec![], vec![7]].into_iter().collect();
        assert_eq!(c.rows(), 3);
        assert_eq!(c.row(0), &[3, 1]);
        assert_eq!(c.row(1), &[] as &[u32]);
        assert_eq!(c.row(2), &[7]);
        assert_eq!(c.range(2), 2..3);
        assert_eq!(c.items(), &[3, 1, 7]);
        assert_eq!(c.total_len(), 3);
    }

    #[test]
    fn from_row_fn_matches_collect() {
        let rows = [vec![1u32, 2], vec![], vec![5]];
        let a = Csr::from_row_fn(3, |i| rows[i].clone());
        let b: Csr<u32> = rows.into_iter().collect();
        assert_eq!(a, b);
    }

    #[test]
    fn empty_csr() {
        let c: Csr<u32> = Csr::new();
        assert!(c.is_empty());
        assert_eq!(c.rows(), 0);
        assert_eq!(c.total_len(), 0);
    }

    #[test]
    fn adjacency_matches_builder_dag() {
        let g = diamond();
        assert_eq!(g.successors(0), &[1, 2]);
        assert_eq!(g.predecessors(3), &[1, 2]);
        assert_eq!(g.out_degree(0), 2);
        assert_eq!(g.in_degree(0), 0);
        assert_eq!(g.topo_order(), Some(vec![0, 1, 2, 3]));
        assert!(g.is_acyclic());
    }

    #[test]
    fn duplicate_edges_ignored_first_wins() {
        let g = CsrDag::from_edges(3, &[(0, 2), (0, 1), (0, 2), (0, 1)]);
        assert_eq!(g.successors(0), &[2, 1]);
        assert_eq!(g.predecessors(2), &[0]);
    }

    #[test]
    fn cycle_detected() {
        let g = CsrDag::from_edges(2, &[(0, 1), (1, 0)]);
        assert_eq!(g.topo_order(), None);
        assert!(!g.is_acyclic());
    }

    #[test]
    fn reachability_and_critical_path() {
        let g = diamond();
        assert_eq!(g.descendants(0), vec![1, 2, 3]);
        assert_eq!(g.descendants(1), vec![3]);
        assert_eq!(g.descendants(3), Vec::<u32>::new());
        assert_eq!(g.ancestors(3), vec![0, 1, 2]);
        assert_eq!(g.ancestors(0), Vec::<u32>::new());
        assert_eq!(g.critical_path(&[1.0, 2.0, 5.0, 1.0]), 7.0);
    }

    #[test]
    fn empty_graph() {
        let g = CsrDag::from_edges(0, &[]);
        assert!(g.is_empty());
        assert_eq!(g.topo_order(), Some(vec![]));
        assert_eq!(g.critical_path(&[]), 0.0);
    }
}
