//! Conjugate-gradient solver for graph Laplacian systems.
//!
//! The Laplacian `L = D − A` of a connected graph is positive semi-definite
//! with a one-dimensional null space spanned by the all-ones vector. For a
//! right-hand side `b ⊥ 1` the system `L x = b` has a unique solution in
//! `1⊥`, and plain CG converges to it as long as iterates are kept centred.
//!
//! Effective resistance follows directly:
//! `r(s, t) = (e_s − e_t)ᵀ L† (e_s − e_t) = (e_s − e_t)ᵀ x` where
//! `L x = e_s − e_t`. This solver therefore doubles as a high-precision
//! ground-truth oracle (cross-checking the SMM-based ground truth of the
//! paper's Section 5.1) and as the Laplacian-solve primitive of the RP sketch.

use crate::ops::{LaplacianOp, LinearOperator, OverlayLaplacianOp};
use crate::vector;
use er_graph::{Graph, OverlayGraph};

/// Outcome of a CG solve.
#[derive(Clone, Debug, PartialEq)]
pub struct CgOutcome {
    /// Number of iterations performed.
    pub iterations: usize,
    /// Final residual norm `‖b − Lx‖₂`.
    pub residual_norm: f64,
    /// Whether the target tolerance was reached.
    pub converged: bool,
}

/// Conjugate-gradient Laplacian solver with Jacobi (diagonal) preconditioning.
pub struct LaplacianSolver<'g> {
    graph: &'g Graph,
    op: LaplacianOp<'g>,
    tolerance: f64,
    max_iterations: usize,
}

impl<'g> LaplacianSolver<'g> {
    /// Creates a solver with the given relative tolerance and iteration cap.
    pub fn new(graph: &'g Graph, tolerance: f64, max_iterations: usize) -> Self {
        LaplacianSolver {
            graph,
            op: LaplacianOp::new(graph),
            tolerance,
            max_iterations,
        }
    }

    /// Creates a solver with defaults suitable for ground-truth computation
    /// (tolerance 1e-10, iteration cap 10·n).
    pub fn for_ground_truth(graph: &'g Graph) -> Self {
        LaplacianSolver::new(graph, 1e-10, 10 * graph.num_nodes().max(100))
    }

    /// Solves `L x = b`, returning the minimum-norm solution (centred so that
    /// `Σ x(v) = 0`) and the solve outcome. The right-hand side is centred
    /// internally, so callers may pass any `b`.
    pub fn solve(&self, b: &[f64]) -> (Vec<f64>, CgOutcome) {
        let n = self.graph.num_nodes();
        assert_eq!(b.len(), n);
        let inv_diag: Vec<f64> = self
            .graph
            .nodes()
            .map(|v| 1.0 / (self.graph.degree(v).max(1) as f64))
            .collect();
        solve_preconditioned(&self.op, &inv_diag, b, self.tolerance, self.max_iterations)
    }

    /// Computes the exact effective resistance `r(s, t)` by a single Laplacian
    /// solve with right-hand side `e_s − e_t`.
    pub fn effective_resistance(&self, s: usize, t: usize) -> f64 {
        if s == t {
            return 0.0;
        }
        let n = self.graph.num_nodes();
        let mut b = vec![0.0; n];
        b[s] = 1.0;
        b[t] = -1.0;
        let (x, _) = self.solve(&b);
        x[s] - x[t]
    }
}

/// Jacobi-preconditioned CG for a singular-consistent system `Op x = b` over
/// any matrix-free [`LinearOperator`] whose null space is spanned by the
/// all-ones vector (a graph Laplacian in any representation). The right-hand
/// side is centred internally and iterates are kept in `1⊥`, exactly as
/// [`LaplacianSolver::solve`] — which delegates here, so the float-op
/// sequence (and therefore every bit of every ground-truth answer) is shared
/// between the CSR path and the overlay path.
pub fn solve_preconditioned<Op: LinearOperator>(
    op: &Op,
    inv_diag: &[f64],
    b: &[f64],
    tolerance: f64,
    max_iterations: usize,
) -> (Vec<f64>, CgOutcome) {
    let n = op.dim();
    assert_eq!(b.len(), n);
    assert_eq!(inv_diag.len(), n);
    let mut rhs = b.to_vec();
    vector::remove_mean(&mut rhs);

    let mut x = vec![0.0; n];
    let mut r = rhs.clone();
    let mut z: Vec<f64> = r.iter().zip(inv_diag).map(|(ri, di)| ri * di).collect();
    vector::remove_mean(&mut z);
    let mut p = z.clone();
    let mut rz = vector::dot(&r, &z);
    let b_norm = vector::norm2(&rhs).max(1e-300);

    let mut iterations = 0;
    let mut converged = vector::norm2(&r) / b_norm <= tolerance;
    while !converged && iterations < max_iterations {
        iterations += 1;
        let ap = op.apply_vec(&p);
        let p_ap = vector::dot(&p, &ap);
        if p_ap.abs() < 1e-300 {
            break;
        }
        let alpha = rz / p_ap;
        vector::axpy(alpha, &p, &mut x);
        vector::axpy(-alpha, &ap, &mut r);
        if vector::norm2(&r) / b_norm <= tolerance {
            converged = true;
            break;
        }
        z = r.iter().zip(inv_diag).map(|(ri, di)| ri * di).collect();
        vector::remove_mean(&mut z);
        let rz_new = vector::dot(&r, &z);
        let beta = rz_new / rz;
        rz = rz_new;
        for i in 0..n {
            p[i] = z[i] + beta * p[i];
        }
    }
    vector::remove_mean(&mut x);
    let mut residual = op.apply_vec(&x);
    for i in 0..n {
        residual[i] = rhs[i] - residual[i];
    }
    let residual_norm = vector::norm2(&residual);
    (
        x,
        CgOutcome {
            iterations,
            residual_norm,
            converged: converged || residual_norm / b_norm <= tolerance,
        },
    )
}

/// Solves `L x = b` against the merged view of an [`OverlayGraph`] — no CSR
/// materialisation, same CG sequence as the ground-truth solver. This is how
/// a Sherman–Morrison update obtains `w = L⁺ b_e` when one of the edge's
/// endpoint columns is not resident.
pub fn solve_overlay_laplacian(
    overlay: &OverlayGraph,
    b: &[f64],
    tolerance: f64,
    max_iterations: usize,
) -> (Vec<f64>, CgOutcome) {
    let op = OverlayLaplacianOp::new(overlay);
    let inv_diag = op.inv_degrees();
    solve_preconditioned(&op, &inv_diag, b, tolerance, max_iterations)
}

#[cfg(test)]
mod tests {
    use super::*;
    use er_graph::generators;

    #[test]
    fn solves_laplacian_system_on_path() {
        let g = generators::path(10).unwrap();
        let solver = LaplacianSolver::for_ground_truth(&g);
        for (s, t, expected) in [(0, 9, 9.0), (2, 5, 3.0), (4, 4, 0.0)] {
            let r = solver.effective_resistance(s, t);
            assert!((r - expected).abs() < 1e-7, "r({s},{t}) = {r}");
        }
    }

    #[test]
    fn effective_resistance_on_complete_graph() {
        let n = 12;
        let g = generators::complete(n).unwrap();
        let solver = LaplacianSolver::for_ground_truth(&g);
        let r = solver.effective_resistance(0, 5);
        assert!((r - 2.0 / n as f64).abs() < 1e-8);
    }

    #[test]
    fn effective_resistance_on_cycle() {
        // r(s, t) on C_n with hop distance k is k (n - k) / n.
        let n = 9;
        let g = generators::cycle(n).unwrap();
        let solver = LaplacianSolver::for_ground_truth(&g);
        for k in 1..n {
            let r = solver.effective_resistance(0, k);
            let hops = k.min(n - k) as f64;
            let expected = (k as f64) * (n as f64 - k as f64) / n as f64;
            // either direction around the cycle gives the same value
            let _ = hops;
            assert!((r - expected).abs() < 1e-7, "r(0,{k}) = {r} vs {expected}");
        }
    }

    #[test]
    fn cg_reports_convergence_metadata() {
        let g = generators::social_network_like(200, 8.0, 4).unwrap();
        let solver = LaplacianSolver::new(&g, 1e-8, 2000);
        let mut b = vec![0.0; g.num_nodes()];
        b[0] = 1.0;
        b[17] = -1.0;
        let (x, outcome) = solver.solve(&b);
        assert!(outcome.converged, "outcome {outcome:?}");
        assert!(outcome.iterations > 0);
        assert!(outcome.residual_norm < 1e-6);
        // solution is centred
        assert!(crate::vector::sum(&x).abs() < 1e-8);
    }

    #[test]
    fn agreement_with_dense_pseudo_inverse() {
        let g = generators::social_network_like(60, 6.0, 8).unwrap();
        let solver = LaplacianSolver::for_ground_truth(&g);
        let pinv = crate::dense::DenseMatrix::laplacian(&g).pseudo_inverse(1e-9);
        let n = g.num_nodes();
        for &(s, t) in &[(0usize, 1usize), (3, 40), (10, 59), (25, 26)] {
            let mut x = vec![0.0; n];
            x[s] += 1.0;
            x[t] -= 1.0;
            let y = pinv.mat_vec(&x);
            let exact: f64 = x.iter().zip(&y).map(|(a, b)| a * b).sum();
            let cg = solver.effective_resistance(s, t);
            assert!((exact - cg).abs() < 1e-6, "({s},{t}): {exact} vs {cg}");
        }
    }

    #[test]
    fn overlay_solve_is_bit_identical_to_csr_solve() {
        // A clean overlay over g must reproduce the CSR solver bit-for-bit:
        // same operator values, same preconditioner, same CG sequence.
        let g = generators::social_network_like(150, 7.0, 6).unwrap();
        let n = g.num_nodes();
        let mut b = vec![0.0; n];
        b[4] = 1.0;
        b[99] = -1.0;
        let (x_csr, out_csr) = LaplacianSolver::for_ground_truth(&g).solve(&b);
        let overlay = er_graph::OverlayGraph::new(std::sync::Arc::new(g));
        let (x_ovl, out_ovl) = solve_overlay_laplacian(&overlay, &b, 1e-10, 10 * n.max(100));
        assert_eq!(out_csr, out_ovl);
        for i in 0..n {
            assert_eq!(x_csr[i].to_bits(), x_ovl[i].to_bits(), "component {i}");
        }
    }

    #[test]
    fn overlay_solve_tracks_mutated_resistance() {
        // After overlay mutations, the overlay solve must agree with a
        // ground-truth solve on the collapsed graph to solver precision.
        let g = generators::social_network_like(120, 6.0, 11).unwrap();
        let removable = g.neighbors(10)[0];
        let mut overlay = er_graph::OverlayGraph::new(std::sync::Arc::new(g));
        overlay.insert_edge(2, 87);
        overlay.insert_edge(30, 55);
        overlay.remove_edge(10, removable);
        let collapsed = overlay.collapse();
        let n = collapsed.num_nodes();
        let mut b = vec![0.0; n];
        b[2] = 1.0;
        b[87] = -1.0;
        let (x_ovl, out) = solve_overlay_laplacian(&overlay, &b, 1e-10, 10 * n);
        assert!(out.converged);
        let solver = LaplacianSolver::for_ground_truth(&collapsed);
        let r_direct = solver.effective_resistance(2, 87);
        assert!((x_ovl[2] - x_ovl[87] - r_direct).abs() < 1e-8);
    }

    #[test]
    fn triangle_inequality_of_effective_resistance() {
        // ER is a metric; spot-check the triangle inequality via CG solves.
        let g = generators::barabasi_albert(150, 4, 10).unwrap();
        let solver = LaplacianSolver::for_ground_truth(&g);
        let (a, b, c) = (3, 77, 120);
        let rab = solver.effective_resistance(a, b);
        let rbc = solver.effective_resistance(b, c);
        let rac = solver.effective_resistance(a, c);
        assert!(rac <= rab + rbc + 1e-9);
    }
}
