//! Matrix-free linear operators over a graph.
//!
//! The estimators never need an explicit matrix for the operators below; they
//! only need `y = Op · x`. Keeping them matrix-free means SMM's iterations
//! (Algorithm 2) scan each adjacency list sequentially — the cache-friendly
//! access pattern the paper credits for SMM's advantage over naïve traversal —
//! and the Lanczos/CG routines can run on graphs where an explicit `f64`
//! matrix would be wasteful.

use er_graph::{Graph, OverlayGraph};

/// A real linear operator on `R^n`.
pub trait LinearOperator {
    /// Dimension `n` of the (square) operator.
    fn dim(&self) -> usize;

    /// Computes `y = A x`. `y` is overwritten and must have length `dim()`.
    fn apply(&self, x: &[f64], y: &mut [f64]);

    /// Convenience allocation wrapper around [`apply`](Self::apply).
    fn apply_vec(&self, x: &[f64]) -> Vec<f64> {
        let mut y = vec![0.0; self.dim()];
        self.apply(x, &mut y);
        y
    }
}

/// The adjacency operator `A`: `(Ax)(u) = Σ_{v ∈ N(u)} x(v)`.
pub struct AdjacencyOp<'g> {
    graph: &'g Graph,
}

impl<'g> AdjacencyOp<'g> {
    /// Wraps a graph.
    pub fn new(graph: &'g Graph) -> Self {
        AdjacencyOp { graph }
    }
}

impl LinearOperator for AdjacencyOp<'_> {
    fn dim(&self) -> usize {
        self.graph.num_nodes()
    }

    fn apply(&self, x: &[f64], y: &mut [f64]) {
        for u in self.graph.nodes() {
            let mut acc = 0.0;
            for &v in self.graph.neighbors(u) {
                acc += x[v];
            }
            y[u] = acc;
        }
    }
}

/// The random-walk transition operator `P = D⁻¹A`:
/// `(Px)(u) = (1 / d(u)) Σ_{v ∈ N(u)} x(v)`.
///
/// Applied to the one-hot vector `e_s`, `i` applications give the vector
/// `v ↦ p_i(v, s)` used by SMM (Eq. (15) of the paper).
pub struct TransitionOp<'g> {
    graph: &'g Graph,
}

impl<'g> TransitionOp<'g> {
    /// Wraps a graph.
    pub fn new(graph: &'g Graph) -> Self {
        TransitionOp { graph }
    }

    /// The underlying graph.
    pub fn graph(&self) -> &Graph {
        self.graph
    }
}

impl LinearOperator for TransitionOp<'_> {
    fn dim(&self) -> usize {
        self.graph.num_nodes()
    }

    fn apply(&self, x: &[f64], y: &mut [f64]) {
        for u in self.graph.nodes() {
            let d = self.graph.degree(u);
            if d == 0 {
                y[u] = 0.0;
                continue;
            }
            let mut acc = 0.0;
            for &v in self.graph.neighbors(u) {
                acc += x[v];
            }
            y[u] = acc / d as f64;
        }
    }
}

/// The symmetric normalised adjacency `N = D^{-1/2} A D^{-1/2}`:
/// `(Nx)(u) = Σ_{v ∈ N(u)} x(v) / √(d(u) d(v))`.
///
/// `N` is similar to `P` (`N = D^{1/2} P D^{-1/2}`), so they share the same
/// spectrum; being symmetric, `N` is the operator we hand to Lanczos when
/// estimating λ₂ and λₙ for the refined walk length of Theorem 3.1.
pub struct NormalizedAdjacencyOp<'g> {
    graph: &'g Graph,
    inv_sqrt_deg: Vec<f64>,
}

impl<'g> NormalizedAdjacencyOp<'g> {
    /// Wraps a graph, precomputing `1/√d(v)`.
    pub fn new(graph: &'g Graph) -> Self {
        let inv_sqrt_deg = graph
            .nodes()
            .map(|v| {
                let d = graph.degree(v);
                if d == 0 {
                    0.0
                } else {
                    1.0 / (d as f64).sqrt()
                }
            })
            .collect();
        NormalizedAdjacencyOp {
            graph,
            inv_sqrt_deg,
        }
    }

    /// The (unit-norm) Perron eigenvector of `N`, `φ₁(v) = √(d(v) / 2m)`,
    /// associated with eigenvalue 1. Known in closed form, which lets the
    /// Lanczos driver deflate it and expose λ₂ as the new extreme eigenvalue.
    pub fn perron_vector(&self) -> Vec<f64> {
        let two_m = self.graph.num_directed_edges() as f64;
        self.graph
            .nodes()
            .map(|v| (self.graph.degree(v) as f64 / two_m).sqrt())
            .collect()
    }
}

impl LinearOperator for NormalizedAdjacencyOp<'_> {
    fn dim(&self) -> usize {
        self.graph.num_nodes()
    }

    fn apply(&self, x: &[f64], y: &mut [f64]) {
        // D^{-1/2} x once per call rather than once per edge: the same
        // products summed in the same order, so the same bits.
        let scaled: Vec<f64> = x
            .iter()
            .zip(&self.inv_sqrt_deg)
            .map(|(a, b)| a * b)
            .collect();
        for u in self.graph.nodes() {
            let mut acc = 0.0;
            for &v in self.graph.neighbors(u) {
                acc += scaled[v];
            }
            y[u] = acc * self.inv_sqrt_deg[u];
        }
    }
}

/// The combinatorial Laplacian `L = D − A`:
/// `(Lx)(u) = d(u)·x(u) − Σ_{v ∈ N(u)} x(v)`.
pub struct LaplacianOp<'g> {
    graph: &'g Graph,
}

impl<'g> LaplacianOp<'g> {
    /// Wraps a graph.
    pub fn new(graph: &'g Graph) -> Self {
        LaplacianOp { graph }
    }
}

impl LinearOperator for LaplacianOp<'_> {
    fn dim(&self) -> usize {
        self.graph.num_nodes()
    }

    fn apply(&self, x: &[f64], y: &mut [f64]) {
        for u in self.graph.nodes() {
            let mut acc = 0.0;
            for &v in self.graph.neighbors(u) {
                acc += x[v];
            }
            y[u] = self.graph.degree(u) as f64 * x[u] - acc;
        }
    }
}

/// The combinatorial Laplacian of an [`OverlayGraph`]:
/// `(Lx)(u) = d(u)·x(u) − Σ_{v ∈ N(u)} x(v)` with degrees and neighbour sets
/// read through the overlay's merged view (base CSR ± per-node deltas).
///
/// This is the solve substrate of incremental dynamic serving: between
/// snapshot refreshes the evolving edge set lives only in the overlay, and
/// the one CG solve a Sherman–Morrison update needs (`w = L⁺ b_e`) runs
/// against this operator without materialising a CSR.
pub struct OverlayLaplacianOp<'g> {
    overlay: &'g OverlayGraph,
    degrees: Vec<f64>,
}

impl<'g> OverlayLaplacianOp<'g> {
    /// Wraps an overlay, precomputing current (merged) degrees.
    pub fn new(overlay: &'g OverlayGraph) -> Self {
        let degrees = (0..overlay.num_nodes())
            .map(|v| overlay.degree(v) as f64)
            .collect();
        OverlayLaplacianOp { overlay, degrees }
    }

    /// Jacobi preconditioner entries `1 / max(d(v), 1)` for the CG solver.
    pub fn inv_degrees(&self) -> Vec<f64> {
        self.degrees.iter().map(|&d| 1.0 / d.max(1.0)).collect()
    }
}

impl LinearOperator for OverlayLaplacianOp<'_> {
    fn dim(&self) -> usize {
        self.overlay.num_nodes()
    }

    fn apply(&self, x: &[f64], y: &mut [f64]) {
        for u in 0..self.overlay.num_nodes() {
            let mut acc = 0.0;
            self.overlay.for_each_neighbor(u, |v| acc += x[v]);
            y[u] = self.degrees[u] * x[u] - acc;
        }
    }
}

/// A deflated operator `A − λ q qᵀ` (used to strip the known Perron pair from
/// `N` so that Lanczos converges to λ₂ rather than to the trivial eigenvalue 1).
pub struct DeflatedOp<'a, Op: LinearOperator> {
    inner: &'a Op,
    q: Vec<f64>,
    lambda: f64,
}

impl<'a, Op: LinearOperator> DeflatedOp<'a, Op> {
    /// Wraps `inner`, removing the rank-one component `lambda · q qᵀ`.
    /// `q` should be unit-norm.
    pub fn new(inner: &'a Op, q: Vec<f64>, lambda: f64) -> Self {
        debug_assert_eq!(inner.dim(), q.len());
        DeflatedOp { inner, q, lambda }
    }
}

impl<Op: LinearOperator> LinearOperator for DeflatedOp<'_, Op> {
    fn dim(&self) -> usize {
        self.inner.dim()
    }

    fn apply(&self, x: &[f64], y: &mut [f64]) {
        self.inner.apply(x, y);
        let proj: f64 = crate::vector::dot(&self.q, x) * self.lambda;
        for (yi, qi) in y.iter_mut().zip(&self.q) {
            *yi -= proj * qi;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::vector;
    use er_graph::generators;

    #[test]
    fn transition_rows_sum_to_one() {
        let g = generators::barabasi_albert(100, 3, 5).unwrap();
        let op = TransitionOp::new(&g);
        let ones = vec![1.0; g.num_nodes()];
        let y = op.apply_vec(&ones);
        for (v, &val) in y.iter().enumerate() {
            assert!((val - 1.0).abs() < 1e-12, "row {v} sums to {val}");
        }
    }

    #[test]
    fn transition_preserves_probability_mass_under_transpose_dynamics() {
        // Applying P to e_s gives p_1(v, s) over v; by reversibility the total
        // mass is sum_v p_1(v,s) which need not be 1, but p_1(s, v) summed over
        // v is 1. Check the reversibility identity d(s) p_i(s,v) = d(v) p_i(v,s)
        // for i = 1 explicitly.
        let g = generators::social_network_like(200, 8.0, 2).unwrap();
        let op = TransitionOp::new(&g);
        let s = 3;
        let p1_to_s = op.apply_vec(&vector::unit(g.num_nodes(), s)); // v -> p_1(v, s)
        for v in g.nodes() {
            let p_sv = if g.has_edge(s, v) {
                1.0 / g.degree(s) as f64
            } else {
                0.0
            };
            let lhs = g.degree(s) as f64 * p_sv;
            let rhs = g.degree(v) as f64 * p1_to_s[v];
            assert!((lhs - rhs).abs() < 1e-12);
        }
    }

    #[test]
    fn adjacency_and_laplacian_are_consistent() {
        let g = generators::complete(5).unwrap();
        let n = g.num_nodes();
        let x: Vec<f64> = (0..n).map(|i| (i as f64 + 1.0) * 0.5).collect();
        let a = AdjacencyOp::new(&g).apply_vec(&x);
        let l = LaplacianOp::new(&g).apply_vec(&x);
        for v in 0..n {
            let expected = g.degree(v) as f64 * x[v] - a[v];
            assert!((l[v] - expected).abs() < 1e-12);
        }
        // L applied to the constant vector is zero.
        let ones = vec![1.0; n];
        let lz = LaplacianOp::new(&g).apply_vec(&ones);
        assert!(vector::norm2(&lz) < 1e-12);
    }

    #[test]
    fn normalized_adjacency_perron_pair() {
        let g = generators::social_network_like(150, 10.0, 7).unwrap();
        let op = NormalizedAdjacencyOp::new(&g);
        let phi = op.perron_vector();
        assert!((vector::norm2(&phi) - 1.0).abs() < 1e-9, "unit norm");
        let y = op.apply_vec(&phi);
        assert!(
            vector::max_abs_diff(&y, &phi) < 1e-9,
            "N phi = phi for the Perron vector"
        );
    }

    #[test]
    fn normalized_adjacency_is_symmetric() {
        let g = generators::barabasi_albert(60, 4, 9).unwrap();
        let n = g.num_nodes();
        let op = NormalizedAdjacencyOp::new(&g);
        // <N x, y> == <x, N y> for a couple of random-ish vectors
        let x: Vec<f64> = (0..n).map(|i| ((i * 37 + 11) % 17) as f64 / 17.0).collect();
        let y: Vec<f64> = (0..n).map(|i| ((i * 13 + 5) % 23) as f64 / 23.0).collect();
        let nx = op.apply_vec(&x);
        let ny = op.apply_vec(&y);
        assert!((vector::dot(&nx, &y) - vector::dot(&x, &ny)).abs() < 1e-9);
    }

    #[test]
    fn deflation_removes_perron_direction() {
        let g = generators::complete(6).unwrap();
        let op = NormalizedAdjacencyOp::new(&g);
        let phi = op.perron_vector();
        let defl = DeflatedOp::new(&op, phi.clone(), 1.0);
        let y = defl.apply_vec(&phi);
        assert!(
            vector::norm2(&y) < 1e-9,
            "deflated operator annihilates phi"
        );
    }

    #[test]
    fn overlay_laplacian_matches_collapsed_laplacian() {
        let g = generators::social_network_like(120, 6.0, 4).unwrap();
        let removable = g.neighbors(3)[0];
        let mut overlay = OverlayGraph::new(std::sync::Arc::new(g));
        overlay.insert_edge(0, 60);
        overlay.insert_edge(7, 91);
        overlay.remove_edge(3, removable);
        let collapsed = overlay.collapse();
        let n = collapsed.num_nodes();
        let x: Vec<f64> = (0..n).map(|i| ((i * 29 + 3) % 13) as f64 / 13.0).collect();
        let via_overlay = OverlayLaplacianOp::new(&overlay).apply_vec(&x);
        let via_csr = LaplacianOp::new(&collapsed).apply_vec(&x);
        assert!(vector::max_abs_diff(&via_overlay, &via_csr) < 1e-12);
    }

    #[test]
    fn apply_vec_matches_apply() {
        let g = generators::cycle(9).unwrap();
        let op = TransitionOp::new(&g);
        let x: Vec<f64> = (0..9).map(|i| i as f64).collect();
        let mut y = vec![0.0; 9];
        op.apply(&x, &mut y);
        assert_eq!(y, op.apply_vec(&x));
        assert_eq!(op.dim(), 9);
        assert_eq!(op.graph().num_nodes(), 9);
    }
}
