//! Lanczos iteration for extreme eigenvalues of symmetric operators.
//!
//! The refined walk length of Theorem 3.1 (Eq. (6)) and Peng et al.'s length
//! (Eq. (5)) both need `λ = max{|λ₂|, |λₙ|}`, the second-largest-magnitude
//! eigenvalue of the transition matrix `P`. The paper computes it once per
//! graph with ARPACK; we substitute a Lanczos iteration applied to the
//! symmetric normalised adjacency `N = D^{-1/2} A D^{-1/2}` (similar to `P`,
//! hence the same spectrum), after deflating the known Perron pair `(1, φ₁)`
//! so the extreme Ritz values converge to λ₂ and λₙ instead of the trivial
//! eigenvalue 1.
//!
//! **The recurrence.** Each step is the plain three-term recurrence
//! `β_{j+1} q_{j+1} = A q_j − α_j q_j − β_j q_{j−1}`, `α_j = q_jᵀ A q_j`:
//! one operator application and O(n) vector work on three reused buffers,
//! so k steps cost k applications plus O(k·n). There is no
//! reorthogonalization against earlier basis vectors.
//!
//! **Why the extremes survive without reorthogonalization.** In floating
//! point the basis loses orthogonality, but only along Ritz vectors that
//! have already converged (Paige). The tridiagonal `T_k` then grows further
//! copies of those converged Ritz values, and every Ritz value stays within
//! O(ε‖A‖) of the spectrum. The two extreme Ritz values, the only ones read
//! here, converge first; a lost-orthogonality copy can repeat them but never
//! move them. Interior Ritz values may repeat.
//!
//! **When the basis is stored.** Only when the caller asks for a Ritz vector
//! ([`lanczos_with_start`], [`spectral_bounds_warm`]: the dynamic service's
//! refresh); the cold path holds three length-n vectors whatever k is.
//!
//! **The tridiagonal solve.** [`tridiagonal_eigen`] diagonalises `T_k` by
//! implicit QL with Wilkinson shifts, O(k²) for the eigenvalues. Eigenvectors
//! cost O(k²) each and are computed only for the Ritz vector.
//!
//! For small graphs (n ≤ 256) the dense Jacobi eigendecomposition of `N` is
//! used instead, which is exact and fast at that size.

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
    /// Without reorthogonalization a converged Ritz value can appear more
    /// than once; interior values may repeat, the extremes do not move.
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

/// Runs the three-term Lanczos recurrence on a symmetric operator and
/// returns the Ritz values of the resulting tridiagonal matrix. Stores no
/// basis.
///
/// `max_iter` bounds the Krylov dimension; `seed` fixes the random start
/// vector so results are reproducible.
pub fn lanczos<Op: LinearOperator>(op: &Op, max_iter: usize, seed: u64) -> LanczosResult {
    let q = seeded_start(op.dim(), seed);
    lanczos_core(op, max_iter, q, false).0
}

/// Like [`lanczos`], but takes an optional warm-start vector and returns a
/// Ritz vector alongside the result, for warm-starting the *next* run. This
/// is the variant that stores the Lanczos basis (`k` vectors of length n).
///
/// `start` is used (normalised) when it has the right dimension and a
/// nonzero norm; otherwise the seeded random start of [`lanczos`] is used.
/// The returned vector is the normalised sum of the extreme Ritz vectors
/// (largest + smallest Ritz value), each taken from a tridiagonal
/// eigenvector whose first component is ≥ 0, i.e. with a non-negative
/// overlap with this run's start. It is a Krylov start that re-converges to
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

    // Kept only to assemble the Ritz vector. One allocation per vector: a
    // single k×n block (19 MB at n = 20k, k = 120) fragments the heap across
    // the dynamic service's refreshes and raised its peak RSS by a fifth.
    let mut basis: Vec<Vec<f64>> = Vec::new();
    let mut alphas: Vec<f64> = Vec::with_capacity(k_max);
    let mut betas: Vec<f64> = Vec::with_capacity(k_max);
    let mut invariant = false;

    let mut q_prev: Vec<f64> = vec![0.0; n];
    let mut w: Vec<f64> = vec![0.0; n];
    let mut beta_prev = 0.0_f64;

    for _ in 0..k_max {
        if want_ritz_vector {
            basis.push(q.clone());
        }
        op.apply(&q, &mut w);
        vector::axpy(-beta_prev, &q_prev, &mut w);
        let alpha = vector::dot(&q, &w);
        vector::axpy(-alpha, &q, &mut w);
        alphas.push(alpha);
        let beta = vector::norm2(&w);
        if beta < 1e-12 {
            invariant = true;
            break;
        }
        betas.push(beta);
        // q_{j-1} ← q_j, q_j ← w / β; the old q_{j-1} becomes the next w.
        std::mem::swap(&mut q_prev, &mut q);
        std::mem::swap(&mut q, &mut w);
        vector::scale(1.0 / beta, &mut q);
        beta_prev = beta;
    }

    // The last β is the residual norm, not an entry of T_k.
    let k = alphas.len();
    let extremes = [0, k.saturating_sub(1)];
    let wanted: &[usize] = if want_ritz_vector && k > 0 {
        &extremes
    } else {
        &[]
    };
    let (ritz_values, vectors) = tridiagonal_eigen(&alphas, &betas[..k.saturating_sub(1)], wanted);
    // Ritz vector for a tridiagonal eigenpair (θ, s): y = Σ_i basis[i]·s(i).
    // The warm-start vector combines the extreme pairs so the next Krylov
    // space reaches both ends of the spectrum immediately.
    let ritz_vector = match &vectors[..] {
        [top, bottom] => {
            let mut y = vec![0.0; n];
            for (i, b) in basis.iter().enumerate() {
                vector::axpy(top[i] + bottom[i], b, &mut y);
            }
            let norm = vector::norm2(&y);
            (norm > 1e-12).then(|| {
                vector::scale(1.0 / norm, &mut y);
                y
            })
        }
        _ => None,
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

/// QL sweeps allowed per eigenvalue before [`tridiagonal_eigen`] accepts the
/// current diagonal entry (two or three suffice in practice).
const MAX_QL_SWEEPS: usize = 60;

/// Eigen-decomposition of the symmetric tridiagonal matrix with diagonal
/// `diag` and off-diagonal `off` (`off[i]` couples rows `i` and `i + 1`).
///
/// Returns the eigenvalues in descending order, and one unit eigenvector
/// for each entry of `vectors`, an index into those eigenvalues. Each
/// eigenvector is signed so that its first component is ≥ 0.
///
/// Implicit QL with Wilkinson shifts (the iteration of EISPACK's `imtql2`,
/// without its dense eigenvector accumulation): O(k²) for all eigenvalues
/// of a k×k matrix. The
/// plane rotations are recorded only when `vectors` is non-empty, and each
/// requested eigenvector is their product applied to a unit vector, O(k²)
/// per vector. Eigenvectors of a split matrix (a zero off-diagonal) stay
/// within their block, so repeated eigenvalues from different blocks get
/// orthogonal vectors.
///
/// # Panics
///
/// If `off.len() + 1 != diag.len()` for a non-empty `diag`, or an index in
/// `vectors` is out of range.
pub fn tridiagonal_eigen(
    diag: &[f64],
    off: &[f64],
    vectors: &[usize],
) -> (Vec<f64>, Vec<Vec<f64>>) {
    let k = diag.len();
    assert_eq!(off.len(), k.saturating_sub(1), "off-diagonal length");
    let mut d = diag.to_vec();
    // e[k − 1] = 0 closes the last block.
    let mut e = off.to_vec();
    e.push(0.0);
    let record = !vectors.is_empty();
    // (i, c, s): the rotation in the (i, i + 1) plane applied by one QL step.
    let mut rotations: Vec<(usize, f64, f64)> = Vec::new();

    for l in 0..k {
        for _ in 0..MAX_QL_SWEEPS {
            // The block l..=m ends at the first negligible off-diagonal.
            let mut m = l;
            while m + 1 < k {
                let dd = d[m].abs() + d[m + 1].abs();
                if e[m].abs() + dd == dd {
                    break;
                }
                m += 1;
            }
            if m == l {
                break;
            }
            // Wilkinson shift from the leading 2×2 block.
            let mut g = (d[l + 1] - d[l]) / (2.0 * e[l]);
            let mut r = g.hypot(1.0);
            g = d[m] - d[l] + e[l] / (g + if g >= 0.0 { r } else { -r });
            let (mut s, mut c, mut p) = (1.0, 1.0, 0.0);
            let mut split = false;
            for i in (l..m).rev() {
                let f = s * e[i];
                let b = c * e[i];
                r = f.hypot(g);
                e[i + 1] = r;
                if r == 0.0 {
                    // Underflow split the block at i + 1: sweep again.
                    d[i + 1] -= p;
                    e[m] = 0.0;
                    split = true;
                    break;
                }
                s = f / r;
                c = g / r;
                g = d[i + 1] - p;
                r = (d[i] - g) * s + 2.0 * c * b;
                p = s * r;
                d[i + 1] = g + p;
                g = c * r - b;
                if record {
                    rotations.push((i, c, s));
                }
            }
            if !split {
                d[l] -= p;
                e[l] = g;
                e[m] = 0.0;
            }
        }
    }

    let mut order: Vec<usize> = (0..k).collect();
    order.sort_by(|&a, &b| d[b].total_cmp(&d[a]));
    let values = order.iter().map(|&i| d[i]).collect();
    // The eigenvector matrix is Z = R_1 R_2 ⋯ R_N (the rotations in the
    // order applied), so column j is R_1(R_2(⋯(R_N e_j))).
    let vectors = vectors
        .iter()
        .map(|&index| {
            let mut z = vec![0.0; k];
            z[order[index]] = 1.0;
            for &(i, c, s) in rotations.iter().rev() {
                let (zi, zn) = (z[i], z[i + 1]);
                z[i] = c * zi + s * zn;
                z[i + 1] = c * zn - s * zi;
            }
            if z[0] < 0.0 {
                vector::scale(-1.0, &mut z);
            }
            z
        })
        .collect();
    (values, vectors)
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
/// [`spectral_bounds`] (same seeded start, same iteration); only this
/// variant stores the Lanczos basis, to build the Ritz vector. With a `start`
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
        let l = crate::ops::LaplacianOp::new(&g);
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
            (l2 - dense_l2).abs() < 1e-10,
            "lanczos {l2} dense {dense_l2}"
        );
        assert!(
            (ln - dense_ln).abs() < 1e-10,
            "lanczos {ln} dense {dense_ln}"
        );
    }

    #[test]
    fn cold_budget_bounds_match_the_reorthogonalized_recording() {
        // (λ₂, λₙ) at the cold budget and preprocessing seed, recorded with
        // the full-reorthogonalization Lanczos and dense Jacobi this module
        // used before. A dense reference at n = 2000 takes minutes in a
        // debug build; these recordings stand in for it.
        let cases = [
            (
                generators::barabasi_albert(2000, 3, 5).unwrap(),
                7.216811100625167e-1,
                -7.232829489843873e-1,
            ),
            (
                generators::social_network_like(2000, 8.0, 5).unwrap(),
                6.419494009556245e-1,
                -6.394156742370063e-1,
            ),
            (
                generators::watts_strogatz(2000, 6, 0.05, 5).unwrap(),
                9.887826086849582e-1,
                -5.668378167050263e-1,
            ),
            (
                generators::community_social_network(2000, 10.0, 8, 0.05, 5).unwrap(),
                9.862777533979381e-1,
                -5.738546601294875e-1,
            ),
            (
                generators::barbell(400, 20).unwrap(),
                9.999994034380428e-1,
                -9.88836193219819e-1,
            ),
        ];
        for (g, recorded_l2, recorded_ln) in cases {
            let (l2, ln) = spectral_bounds(&g, 120, 0xe16e);
            assert!(
                (l2 - recorded_l2).abs() < 1e-11,
                "n = {}: λ₂ {l2} vs {recorded_l2}",
                g.num_nodes()
            );
            assert!(
                (ln - recorded_ln).abs() < 1e-11,
                "n = {}: λₙ {ln} vs {recorded_ln}",
                g.num_nodes()
            );
        }
    }

    /// Checks [`tridiagonal_eigen`] against the dense Jacobi solver: every
    /// eigenvalue within 1e-12·max|T|, the eigenvectors orthonormal within
    /// 1e-12, each residual ‖Tv − θv‖ ≤ 1e-12 and each first component ≥ 0.
    fn check_tridiagonal(diag: &[f64], off: &[f64]) {
        let k = diag.len();
        let mut t = DenseMatrix::zeros(k);
        for i in 0..k {
            t.set(i, i, diag[i]);
            if i + 1 < k {
                t.set(i, i + 1, off[i]);
                t.set(i + 1, i, off[i]);
            }
        }
        let scale = diag.iter().chain(off).fold(0.0_f64, |m, x| m.max(x.abs()));
        let all: Vec<usize> = (0..k).collect();
        let (values, vectors) = tridiagonal_eigen(diag, off, &all);
        let (dense, _) = t.symmetric_eigen();
        assert_eq!(values.len(), k);
        for (i, (ql, jacobi)) in values.iter().zip(&dense).enumerate() {
            assert!(
                (ql - jacobi).abs() <= 1e-12 * scale,
                "k = {k}, eigenvalue {i}: QL {ql} vs Jacobi {jacobi}"
            );
        }
        for (i, v) in vectors.iter().enumerate() {
            assert!(v[0] >= 0.0, "k = {k}, vector {i} starts negative");
            let residual: f64 = t
                .mat_vec(v)
                .iter()
                .zip(v)
                .map(|(tv, x)| (tv - values[i] * x).powi(2))
                .sum::<f64>()
                .sqrt();
            assert!(
                residual <= 1e-12,
                "k = {k}, vector {i}: residual {residual:e}"
            );
            for (j, u) in vectors.iter().enumerate() {
                let expected = if i == j { 1.0 } else { 0.0 };
                let dot = vector::dot(v, u);
                assert!(
                    (dot - expected).abs() <= 1e-12,
                    "k = {k}: <v{i}, v{j}> = {dot:e}"
                );
            }
        }
    }

    fn random_tridiagonal(k: usize, seed: u64) -> (Vec<f64>, Vec<f64>) {
        let mut rng = StdRng::seed_from_u64(seed);
        let diag = (0..k).map(|_| 2.0 * rng.gen::<f64>() - 1.0).collect();
        let off = (1..k).map(|_| 2.0 * rng.gen::<f64>() - 1.0).collect();
        (diag, off)
    }

    #[test]
    fn tridiagonal_eigen_matches_jacobi_on_random_matrices() {
        for (k, seed) in [(1, 11), (2, 12), (40, 13), (120, 14)] {
            let (diag, off) = random_tridiagonal(k, seed);
            check_tridiagonal(&diag, &off);
        }
    }

    #[test]
    fn tridiagonal_eigen_handles_a_zero_off_diagonal() {
        // Two independent blocks, 17×17 and 23×23.
        let (diag, mut off) = random_tridiagonal(40, 15);
        off[16] = 0.0;
        check_tridiagonal(&diag, &off);
    }

    #[test]
    fn tridiagonal_eigen_handles_a_repeated_eigenvalue() {
        // The same 5×5 block twice: every eigenvalue has multiplicity two.
        let (block_diag, block_off) = random_tridiagonal(5, 16);
        let diag: Vec<f64> = block_diag.iter().chain(&block_diag).copied().collect();
        let mut off = block_off.clone();
        off.push(0.0);
        off.extend_from_slice(&block_off);
        let (values, _) = tridiagonal_eigen(&diag, &off, &[]);
        for pair in values.chunks_exact(2) {
            assert!((pair[0] - pair[1]).abs() <= 1e-14, "{pair:?}");
        }
        check_tridiagonal(&diag, &off);
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
