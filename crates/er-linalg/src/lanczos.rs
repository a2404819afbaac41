//! Lanczos iteration for extreme eigenvalues of symmetric operators.
//!
//! The refined walk length of Theorem 3.1 (Eq. (6)) and Peng et al.'s length
//! (Eq. (5)) both need `λ = max{|λ₂|, |λₙ|}`, the second-largest-magnitude
//! eigenvalue of the transition matrix `P`. The paper computes it once per
//! graph with ARPACK; we substitute a Lanczos iteration with full
//! reorthogonalization applied to the symmetric normalised adjacency
//! `N = D^{-1/2} A D^{-1/2}` (similar to `P`, hence the same spectrum),
//! after deflating the known Perron pair `(1, φ₁)` so the extreme Ritz values
//! converge to λ₂ and λₙ instead of the trivial eigenvalue 1.
//!
//! For small graphs (n ≤ 256) the dense Jacobi eigendecomposition is used
//! instead, which is exact and fast at that size.

use crate::dense::DenseMatrix;
use crate::ops::{DeflatedOp, LinearOperator, NormalizedAdjacencyOp};
use crate::vector;
use er_graph::Graph;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Result of a Lanczos run.
#[derive(Clone, Debug)]
pub struct LanczosResult {
    /// Ritz values (approximate eigenvalues), sorted in descending order.
    pub ritz_values: Vec<f64>,
    /// Number of Lanczos iterations actually performed.
    pub iterations: usize,
    /// Whether the Krylov space became invariant (β ≈ 0) before `max_iter`.
    pub invariant_subspace: bool,
}

impl LanczosResult {
    /// Largest Ritz value.
    pub fn max(&self) -> f64 {
        self.ritz_values.first().copied().unwrap_or(0.0)
    }

    /// Smallest Ritz value.
    pub fn min(&self) -> f64 {
        self.ritz_values.last().copied().unwrap_or(0.0)
    }
}

/// Runs the Lanczos iteration with full reorthogonalization on a symmetric
/// operator and returns the Ritz values of the resulting tridiagonal matrix.
///
/// `max_iter` bounds the Krylov dimension; `seed` fixes the random start
/// vector so results are reproducible.
pub fn lanczos<Op: LinearOperator>(op: &Op, max_iter: usize, seed: u64) -> LanczosResult {
    let q = seeded_start(op.dim(), seed);
    lanczos_core(op, max_iter, q, false).0
}

/// Like [`lanczos`], but takes an optional warm-start vector and returns a
/// Ritz vector alongside the result, for warm-starting the *next* run.
///
/// `start` is used (normalised) when it has the right dimension and a
/// nonzero norm; otherwise the seeded random start of [`lanczos`] is used.
/// The returned vector is the normalised sum of the extreme Ritz vectors
/// (largest + smallest Ritz value) — a Krylov start that re-converges to
/// both spectral extremes in a handful of iterations when the operator has
/// only drifted slightly, which is exactly the incremental-refresh situation
/// after a small mutation burst.
pub fn lanczos_with_start<Op: LinearOperator>(
    op: &Op,
    max_iter: usize,
    seed: u64,
    start: Option<&[f64]>,
) -> (LanczosResult, Option<Vec<f64>>) {
    let n = op.dim();
    let q = match start {
        Some(s) if s.len() == n && vector::norm2(s) > 1e-12 => {
            let mut q = s.to_vec();
            let norm = vector::norm2(&q);
            vector::scale(1.0 / norm, &mut q);
            q
        }
        _ => seeded_start(n, seed),
    };
    lanczos_core(op, max_iter, q, true)
}

/// The reproducible random start vector shared by the cold and warm drivers.
fn seeded_start(n: usize, seed: u64) -> Vec<f64> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut q: Vec<f64> = (0..n).map(|_| rng.gen::<f64>() - 0.5).collect();
    let norm = vector::norm2(&q);
    vector::scale(1.0 / norm, &mut q);
    q
}

fn lanczos_core<Op: LinearOperator>(
    op: &Op,
    max_iter: usize,
    mut q: Vec<f64>,
    want_ritz_vector: bool,
) -> (LanczosResult, Option<Vec<f64>>) {
    let n = op.dim();
    let k_max = max_iter.min(n);

    let mut basis: Vec<Vec<f64>> = Vec::with_capacity(k_max);
    let mut alphas: Vec<f64> = Vec::with_capacity(k_max);
    let mut betas: Vec<f64> = Vec::with_capacity(k_max);
    let mut invariant = false;

    let mut q_prev: Vec<f64> = vec![0.0; n];
    let mut beta_prev = 0.0_f64;

    for _ in 0..k_max {
        basis.push(q.clone());
        let mut w = op.apply_vec(&q);
        // w -= beta_prev * q_prev
        vector::axpy(-beta_prev, &q_prev, &mut w);
        let alpha = vector::dot(&q, &w);
        vector::axpy(-alpha, &q, &mut w);
        // Full reorthogonalization against every stored basis vector. O(k·n)
        // per step but rock-solid against the loss of orthogonality that
        // plain Lanczos suffers, and cheap at the Krylov sizes we use.
        for b in &basis {
            let proj = vector::dot(b, &w);
            vector::axpy(-proj, b, &mut w);
        }
        alphas.push(alpha);
        let beta = vector::norm2(&w);
        if beta < 1e-12 {
            invariant = true;
            break;
        }
        betas.push(beta);
        q_prev = std::mem::replace(&mut q, w);
        vector::scale(1.0 / beta, &mut q);
        beta_prev = beta;
    }

    // Eigenvalues of the k×k symmetric tridiagonal matrix via dense Jacobi
    // (k is small, ≤ max_iter).
    let k = alphas.len();
    let mut t = DenseMatrix::zeros(k);
    for i in 0..k {
        t.set(i, i, alphas[i]);
        if i + 1 < k {
            t.set(i, i + 1, betas[i]);
            t.set(i + 1, i, betas[i]);
        }
    }
    let (ritz_values, tridiag_vectors) = t.symmetric_eigen();
    // Ritz vector for a tridiagonal eigenpair (θ, s): y = Σ_i basis[i]·s(i).
    // The warm-start vector combines the extreme pairs so the next Krylov
    // space reaches both ends of the spectrum immediately.
    let ritz_vector = if want_ritz_vector && k > 0 {
        let mut y = vec![0.0; n];
        for (i, b) in basis.iter().enumerate() {
            let coeff = tridiag_vectors.get(i, 0) + tridiag_vectors.get(i, k - 1);
            vector::axpy(coeff, b, &mut y);
        }
        let norm = vector::norm2(&y);
        if norm > 1e-12 {
            vector::scale(1.0 / norm, &mut y);
            Some(y)
        } else {
            None
        }
    } else {
        None
    };
    (
        LanczosResult {
            ritz_values,
            iterations: k,
            invariant_subspace: invariant,
        },
        ritz_vector,
    )
}

/// Spectral bounds of the random-walk transition matrix `P` of a graph:
/// returns `(λ₂, λₙ)`, the second-largest and the smallest eigenvalue.
///
/// This is the preprocessing step of Section 3.1 in the paper; the caller
/// derives `λ = max{|λ₂|, |λₙ|}` and plugs it into Eq. (5) or Eq. (6).
pub fn spectral_bounds(g: &Graph, max_iter: usize, seed: u64) -> (f64, f64) {
    let n = g.num_nodes();
    if n <= 256 {
        // Exact dense path for small graphs: eigenvalues of N.
        let mut nmat = DenseMatrix::zeros(n);
        for u in g.nodes() {
            for &v in g.neighbors(u) {
                let w = 1.0 / ((g.degree(u) as f64).sqrt() * (g.degree(v) as f64).sqrt());
                nmat.set(u, v, w);
            }
        }
        let (vals, _) = nmat.symmetric_eigen();
        let lambda2 = vals.get(1).copied().unwrap_or(0.0);
        let lambdan = vals.last().copied().unwrap_or(0.0);
        return (lambda2, lambdan);
    }
    let op = NormalizedAdjacencyOp::new(g);
    let phi = op.perron_vector();
    let deflated = DeflatedOp::new(&op, phi, 1.0);
    let res = lanczos(&deflated, max_iter, seed);
    (res.max().min(1.0), res.min().max(-1.0))
}

/// Warm-startable variant of [`spectral_bounds`]: returns the `(λ₂, λₙ)`
/// bounds plus a Ritz vector for warm-starting the next call.
///
/// With `start = None` and the same `max_iter`, the bounds are identical to
/// [`spectral_bounds`] (same seeded start, same iteration). With a `start`
/// carried over from the previous call on a slightly-mutated graph, a much
/// smaller `max_iter` (a third of the cold budget) reaches the same accuracy
/// — this is how the dynamic service refreshes λ after a mutation burst
/// without paying 120 cold iterations. On the dense exact path (n ≤ 256)
/// there is no iteration to warm, so the returned vector is `None`.
pub fn spectral_bounds_warm(
    g: &Graph,
    max_iter: usize,
    seed: u64,
    start: Option<&[f64]>,
) -> ((f64, f64), Option<Vec<f64>>) {
    let n = g.num_nodes();
    if n <= 256 {
        return (spectral_bounds(g, max_iter, seed), None);
    }
    let op = NormalizedAdjacencyOp::new(g);
    let phi = op.perron_vector();
    let deflated = DeflatedOp::new(&op, phi, 1.0);
    let (res, ritz_vector) = lanczos_with_start(&deflated, max_iter, seed, start);
    ((res.max().min(1.0), res.min().max(-1.0)), ritz_vector)
}

/// `λ = max{|λ₂|, |λₙ|}` for a graph, clamped away from 1 for numerical
/// safety (a value of exactly 1 would make the walk lengths of Eq. (5)/(6)
/// infinite; connected non-bipartite graphs always have λ < 1).
pub fn lambda_max_magnitude(g: &Graph, max_iter: usize, seed: u64) -> f64 {
    let (l2, ln) = spectral_bounds(g, max_iter, seed);
    let lambda = l2.abs().max(ln.abs());
    lambda.clamp(1e-9, 1.0 - 1e-9)
}

#[cfg(test)]
mod tests {
    use super::*;
    use er_graph::generators;

    #[test]
    fn lanczos_finds_extremes_of_dense_matrix() {
        // Use the Laplacian of K_6: eigenvalues {0, 6, 6, 6, 6, 6}.
        let g = generators::complete(6).unwrap();
        let l = crate::sparse::CsrMatrix::laplacian(&g);
        let res = lanczos(&l, 6, 1);
        assert!((res.max() - 6.0).abs() < 1e-6, "max ritz {}", res.max());
        assert!(res.min().abs() < 1e-6, "min ritz {}", res.min());
    }

    #[test]
    fn spectral_bounds_of_complete_graph() {
        // P of K_n has eigenvalues 1 and -1/(n-1) (with multiplicity n-1).
        let g = generators::complete(10).unwrap();
        let (l2, ln) = spectral_bounds(&g, 30, 2);
        assert!((l2 - (-1.0 / 9.0)).abs() < 1e-8, "lambda2 {l2}");
        assert!((ln - (-1.0 / 9.0)).abs() < 1e-8, "lambdan {ln}");
    }

    #[test]
    fn spectral_bounds_of_cycle() {
        // P of the n-cycle has eigenvalues cos(2 pi k / n).
        let n = 11;
        let g = generators::cycle(n).unwrap();
        let (l2, ln) = spectral_bounds(&g, 30, 3);
        let expected_l2 = (2.0 * std::f64::consts::PI / n as f64).cos();
        let expected_ln = (2.0 * std::f64::consts::PI * 5.0 / n as f64).cos();
        assert!((l2 - expected_l2).abs() < 1e-8, "{l2} vs {expected_l2}");
        assert!((ln - expected_ln).abs() < 1e-8, "{ln} vs {expected_ln}");
    }

    #[test]
    fn lanczos_path_matches_dense_path_on_midsize_graph() {
        // Force the Lanczos path by checking a graph just above the dense
        // cutoff against the dense Jacobi result computed here directly.
        let g = generators::social_network_like(300, 8.0, 9).unwrap();
        let n = g.num_nodes();
        let mut nmat = DenseMatrix::zeros(n);
        for u in g.nodes() {
            for &v in g.neighbors(u) {
                let w = 1.0 / ((g.degree(u) as f64).sqrt() * (g.degree(v) as f64).sqrt());
                nmat.set(u, v, w);
            }
        }
        let (vals, _) = nmat.symmetric_eigen();
        let dense_l2 = vals[1];
        let dense_ln = *vals.last().unwrap();
        let (l2, ln) = spectral_bounds(&g, 120, 7);
        assert!(
            (l2 - dense_l2).abs() < 1e-4,
            "lanczos {l2} dense {dense_l2}"
        );
        assert!(
            (ln - dense_ln).abs() < 1e-4,
            "lanczos {ln} dense {dense_ln}"
        );
    }

    #[test]
    fn lambda_is_strictly_inside_unit_interval() {
        for seed in 0..3 {
            let g = generators::barabasi_albert(400, 3, seed).unwrap();
            let lambda = lambda_max_magnitude(&g, 80, seed);
            assert!(lambda > 0.0 && lambda < 1.0, "lambda {lambda}");
        }
    }

    #[test]
    fn warm_variant_without_start_matches_cold_bounds_bitwise() {
        let g = generators::barabasi_albert(500, 3, 13).unwrap();
        let cold = spectral_bounds(&g, 60, 21);
        let (warm, ritz) = spectral_bounds_warm(&g, 60, 21, None);
        assert_eq!(cold.0.to_bits(), warm.0.to_bits());
        assert_eq!(cold.1.to_bits(), warm.1.to_bits());
        assert!(ritz.is_some(), "large graph returns a warm-start vector");
    }

    #[test]
    fn warm_start_reaches_cold_accuracy_with_a_third_of_the_iterations() {
        let g = generators::social_network_like(600, 8.0, 5).unwrap();
        let (reference, ritz) = spectral_bounds_warm(&g, 120, 0xd1a, None);
        let start = ritz.expect("warm vector");
        // Re-run on the same graph with a much smaller budget from the warm
        // start: the extremes are already in the start vector's Krylov space.
        let (warm, _) = spectral_bounds_warm(&g, 40, 0xd1a, Some(&start));
        assert!(
            (warm.0 - reference.0).abs() < 1e-6,
            "{} vs {}",
            warm.0,
            reference.0
        );
        assert!(
            (warm.1 - reference.1).abs() < 1e-6,
            "{} vs {}",
            warm.1,
            reference.1
        );
        // And a cold run at the same reduced budget is (weakly) worse.
        let cold_small = spectral_bounds(&g, 40, 0xd1a);
        assert!((warm.0 - reference.0).abs() <= (cold_small.0 - reference.0).abs() + 1e-9);
    }

    #[test]
    fn dense_path_returns_no_warm_vector() {
        let g = generators::complete(10).unwrap();
        let (bounds, ritz) = spectral_bounds_warm(&g, 30, 2, None);
        assert!(ritz.is_none());
        assert!((bounds.0 - (-1.0 / 9.0)).abs() < 1e-8);
    }

    #[test]
    fn lanczos_reports_invariant_subspace_on_tiny_rank() {
        // The star graph's normalised adjacency has rank 2; starting Lanczos
        // on it should terminate early with an invariant subspace.
        let g = generators::star(50).unwrap();
        let op = NormalizedAdjacencyOp::new(&g);
        let res = lanczos(&op, 40, 5);
        assert!(res.iterations < 40);
        assert!(res.invariant_subspace);
        // extreme eigenvalues of N for the star are +1 and -1
        assert!((res.max() - 1.0).abs() < 1e-8);
        assert!((res.min() + 1.0).abs() < 1e-8);
    }
}
