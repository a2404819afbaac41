//! The diagonal of the Laplacian pseudo-inverse.
//!
//! Every column-based identity for effective resistance,
//! `r(s, t) = L†(s, s) + L†(t, t) − 2 L†(s, t)`, needs the diagonal of `L†`.
//! A single column is one Laplacian solve, but the diagonal touches every
//! column: [`pseudo_inverse_diagonal`] pays one conjugate-gradient solve per
//! node, exact up to solver tolerance, `O(n · m)` per build (fine up to a few
//! thousand nodes).

use er_graph::Graph;
use er_linalg::LaplacianSolver;
use er_walks::par;

/// Computes the diagonal of the Laplacian pseudo-inverse, one CG solve per
/// node.
///
/// The returned vector has length `n`; entry `v` is `L†(v, v)`, which equals
/// the average of `r(v, u)` over the "electrical" distribution and is always
/// non-negative. The solves fan out over `threads` workers (0 = all cores)
/// of the deterministic parallel layer; the result is identical at any
/// thread count.
pub fn pseudo_inverse_diagonal(graph: &Graph, threads: usize) -> Vec<f64> {
    let n = graph.num_nodes();
    let solver = LaplacianSolver::for_ground_truth(graph);
    par::par_map_indexed(n as u64, 0, threads, |v, _| {
        let mut rhs = vec![0.0; n];
        rhs[v as usize] = 1.0;
        let (x, _) = solver.solve(&rhs);
        x[v as usize]
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use er_graph::generators;
    use er_linalg::DenseMatrix;

    #[test]
    fn exact_strategies_agree_on_small_graphs() {
        let g = generators::social_network_like(60, 6.0, 3).unwrap();
        let by_solves = pseudo_inverse_diagonal(&g, par::AUTO);
        let dense = DenseMatrix::laplacian(&g).pseudo_inverse(1e-9);
        for (v, &d) in by_solves.iter().enumerate() {
            assert!(
                (d - dense.get(v, v)).abs() < 1e-6,
                "node {v}: {d} vs {}",
                dense.get(v, v)
            );
            assert!(d > 0.0);
        }
    }

    #[test]
    fn diagonal_recovers_known_complete_graph_value() {
        // For K_n, L† = (I - J/n) / n, so every diagonal entry is (n-1)/n².
        let n = 8;
        let g = generators::complete(n).unwrap();
        let diag = pseudo_inverse_diagonal(&g, par::AUTO);
        let expected = (n as f64 - 1.0) / (n as f64 * n as f64);
        for &d in &diag {
            assert!((d - expected).abs() < 1e-9, "{d} vs {expected}");
        }
    }
}
