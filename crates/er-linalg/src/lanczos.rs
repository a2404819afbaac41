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
//! **Certified bounds, and when a run stops.** A Ritz value lies inside the
//! spectrum, so on its own it is a lower bound on λ₂ and an upper bound on
//! λₙ: the wrong side for Eq. (6), whose truncation error stays within ε/2
//! only for a λ at least the true value. Every run therefore also tracks the
//! residual `r = β_k·|e_kᵀz|` of its two extreme Ritz pairs `(θ, z)` (`z` a
//! unit eigenvector of `T_k`, `β_k` the norm of the next Lanczos residual):
//! `θ` lies within `r` of an eigenvalue, and `θ₂ + r₂`, `θₙ − rₙ` are the
//! practical outward bounds of Zhou & Li ("Bounding the spectrum of large
//! Hermitian matrices", Linear Algebra Appl. 435, 2011). [`spectral_bounds`]
//! and [`spectral_bounds_warm`] stop at the first step where both residuals
//! are at most [`CERTIFICATION_TOLERANCE`]` · (1 − λ_θ)`, with
//! `λ_θ = max(|θ₂|, |θₙ|)`, and return those bounds. A run that reaches its
//! step cap first returns its Ritz values unchanged. Cold runs certify after
//! 23 to 103 steps on the graphs the tests use, and after 44 to 72 on the
//! benchmark's 20,000- and 100,000-node graphs; a warm run from the previous
//! Ritz vector after a burst of three edge mutations certifies after 2 or 3.
//!
//! **When the basis is stored.** Only when the caller asks for a Ritz vector
//! ([`lanczos_with_start`], [`spectral_bounds_warm`]: the dynamic service's
//! refresh); the cold path holds three length-n vectors whatever k is.
//!
//! **The tridiagonal solves.** [`tridiagonal_eigen`] diagonalises `T_k` once
//! per run, by implicit QL with Wilkinson shifts: O(k²) for the eigenvalues,
//! and O(k²) per eigenvector, computed only for the Ritz vector. The
//! per-step residuals come from O(k) work instead: each extreme eigenvalue
//! of `T_k` by bisection on Sturm counts, then the last entry of its
//! eigenvector by one step of inverse iteration.
//!
//! For small graphs (n ≤ 256) the dense Jacobi eigendecomposition of `N` is
//! used instead, which is exact and fast at that size.

use crate::dense::DenseMatrix;
use crate::ops::{DeflatedOp, LinearOperator, NormalizedAdjacencyOp};
use crate::vector;
use er_graph::Graph;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Residual tolerance τ of a certified run: [`spectral_bounds`] and
/// [`spectral_bounds_warm`] stop once both extreme residuals are at most
/// `τ·(1 − λ_θ)`. The certified λ̄ then exceeds the Ritz value λ_θ by at most
/// `τ·(1 − λ_θ)`, so the gap `1 − λ̄` keeps at least `1 − τ` of the Ritz gap,
/// and Eq. (6)'s walk length grows by at most about 2τ relative for λ ≥ 0.3.
pub const CERTIFICATION_TOLERANCE: f64 = 0.01;

/// Result of a Lanczos run.
#[derive(Clone, Debug)]
pub struct LanczosResult {
    /// Ritz values (approximate eigenvalues), sorted in descending order.
    /// Without reorthogonalization a converged Ritz value can appear more
    /// than once; interior values may repeat, the extremes do not move.
    pub ritz_values: Vec<f64>,
    /// Residual estimates `β_k·|e_kᵀz|` of the largest and of the smallest
    /// Ritz pair, in that order. Each extreme Ritz value lies within its
    /// residual of an eigenvalue of the operator.
    pub residuals: (f64, f64),
    /// Number of Lanczos iterations actually performed.
    pub iterations: usize,
    /// Whether the Krylov space became invariant (β ≈ 0) before `max_iter`.
    pub invariant_subspace: bool,
    /// Whether the run stopped because both residuals met the certification
    /// tolerance; only the spectral-bounds functions ([`spectral_bounds`],
    /// [`spectral_bounds_warm`], [`measure_spectral_bounds`]) set one.
    pub certified: bool,
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
    lanczos_core(op, max_iter, q, false, None).0
}

/// Like [`lanczos`], but takes an optional warm-start vector and returns a
/// Ritz vector alongside the result, for warm-starting the *next* run. This
/// is the variant that stores the Lanczos basis (`k` vectors of length n).
/// Like [`lanczos`] it runs all `max_iter` steps unless the Krylov space
/// becomes invariant.
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
    lanczos_core(
        op,
        max_iter,
        start_vector(op.dim(), seed, start),
        true,
        None,
    )
}

/// `start` normalised when it has dimension `n` and a nonzero norm;
/// otherwise the seeded random start.
fn start_vector(n: usize, seed: u64, start: Option<&[f64]>) -> Vec<f64> {
    match start {
        Some(s) if s.len() == n && vector::norm2(s) > 1e-12 => {
            let mut q = s.to_vec();
            let norm = vector::norm2(&q);
            vector::scale(1.0 / norm, &mut q);
            q
        }
        _ => seeded_start(n, seed),
    }
}

/// The reproducible random start vector shared by the cold and warm drivers.
fn seeded_start(n: usize, seed: u64) -> Vec<f64> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut q: Vec<f64> = (0..n).map(|_| rng.gen::<f64>() - 0.5).collect();
    let norm = vector::norm2(&q);
    vector::scale(1.0 / norm, &mut q);
    q
}

/// The recurrence behind every entry point. With a `tolerance` τ the run
/// stops at the first step where both extreme residuals are at most
/// `τ·(1 − λ_θ)`, `λ_θ = max(|θ₂|, |θₙ|)`; without one it runs `max_iter`
/// steps.
fn lanczos_core<Op: LinearOperator>(
    op: &Op,
    max_iter: usize,
    mut q: Vec<f64>,
    want_ritz_vector: bool,
    tolerance: Option<f64>,
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
    let mut certified = false;

    let mut q_prev: Vec<f64> = vec![0.0; n];
    let mut w: Vec<f64> = vec![0.0; n];
    let mut beta_prev = 0.0_f64;
    // β_k: the norm of the last residual, which scales both residuals.
    let mut residual_norm = 0.0_f64;

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
        residual_norm = beta;
        if beta < 1e-12 {
            invariant = true;
            break;
        }
        if let Some(tau) = tolerance {
            let ((top, r_top), (bottom, r_bottom)) = extreme_pairs(&alphas, &betas, beta);
            if r_top.max(r_bottom) <= tau * (1.0 - top.abs().max(bottom.abs())) {
                certified = true;
                break;
            }
        }
        betas.push(beta);
        // q_{j-1} ← q_j, q_j ← w / β; the old q_{j-1} becomes the next w.
        std::mem::swap(&mut q_prev, &mut q);
        std::mem::swap(&mut q, &mut w);
        vector::scale(1.0 / beta, &mut q);
        beta_prev = beta;
    }

    // After a full run the last β is the residual norm, not an entry of T_k.
    let k = alphas.len();
    let off = &betas[..k.saturating_sub(1)];
    let extremes = [0, k.saturating_sub(1)];
    let wanted: &[usize] = if want_ritz_vector && k > 0 {
        &extremes
    } else {
        &[]
    };
    let (ritz_values, vectors) = tridiagonal_eigen(&alphas, off, wanted);
    let residuals = if k == 0 {
        (0.0, 0.0)
    } else {
        let ((_, r_top), (_, r_bottom)) = extreme_pairs(&alphas, off, residual_norm);
        (r_top, r_bottom)
    };
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
            residuals,
            iterations: k,
            invariant_subspace: invariant,
            certified,
        },
        ritz_vector,
    )
}

/// The extreme eigenpairs of the Lanczos tridiagonal `T_k` (diagonal
/// `diag`, off-diagonal `off ≥ 0`) as `((θ_max, r_max), (θ_min, r_min))`,
/// each residual `r = beta·|e_kᵀz|` for the pair's unit eigenvector `z`.
/// O(k) per Sturm count; about a hundred counts in all.
///
/// The smallest eigenvalue of `T_k` is minus the largest of `−T_k`, whose
/// sign-flipped similarity `S(−T_k)S`, `S = diag(1, −1, 1, …)`, has
/// diagonal `−diag`, the same off-diagonal, and eigenvectors that differ
/// from `T_k`'s only in the signs of their entries.
fn extreme_pairs(diag: &[f64], off: &[f64], beta: f64) -> ((f64, f64), (f64, f64)) {
    let (top, top_last) = top_eigenpair(diag, off);
    let negated: Vec<f64> = diag.iter().map(|d| -d).collect();
    let (neg_bottom, bottom_last) = top_eigenpair(&negated, off);
    ((top, beta * top_last), (-neg_bottom, beta * bottom_last))
}

/// The largest eigenvalue of the symmetric tridiagonal matrix `T` with
/// diagonal `diag` and non-negative off-diagonal `off`, and the last entry
/// of its unit eigenvector.
///
/// A shift σ lies above the spectrum exactly when every LDLᵀ pivot of
/// `σI − T` is positive (Sylvester), so bisection between the largest
/// diagonal entry and the Gershgorin bound brackets the eigenvalue to
/// within 2ε‖T‖. At the bracket's upper end `σI − T` is positive definite,
/// and one solve `(σI − T)x = 1` is a step of inverse iteration from the
/// all-ones vector. With non-negative off-diagonals the eigenvector is
/// non-negative (Perron–Frobenius), so that start overlaps it by at least
/// 1 and one step suffices; and every quantity of the solve but the pivots
/// is a sum of non-negative terms. A non-finite result reports the last
/// entry as 1, the largest it can be, which never certifies a run.
fn top_eigenpair(diag: &[f64], off: &[f64]) -> (f64, f64) {
    let k = diag.len();
    let (mut lo, mut hi, mut norm) = (f64::NEG_INFINITY, f64::NEG_INFINITY, 0.0_f64);
    for (i, &d) in diag.iter().enumerate() {
        let radius = i.checked_sub(1).map_or(0.0, |j| off[j]) + off.get(i).copied().unwrap_or(0.0);
        // A diagonal entry is a Rayleigh quotient, so at most the eigenvalue.
        lo = lo.max(d);
        hi = hi.max(d + radius);
        norm = norm.max(d.abs() + radius);
    }
    let tol = 2.0 * f64::EPSILON * norm;
    hi += 2.0 * tol + f64::MIN_POSITIVE;
    let mut pivots = vec![0.0; k];
    while hi - lo > tol {
        let mid = 0.5 * (lo + hi);
        if mid <= lo || mid >= hi {
            break;
        }
        if shifted_pivots(mid, diag, off, &mut pivots) {
            hi = mid;
        } else {
            lo = mid;
        }
    }
    if !shifted_pivots(hi, diag, off, &mut pivots) {
        return (hi, 1.0);
    }
    // x = L⁻ᵀ D⁻¹ L⁻¹ 1 for σI − T = L D Lᵀ; the forward pass fills x with
    // y = L⁻¹ 1, the backward pass overwrites it.
    let mut x = vec![1.0; k];
    for i in 1..k {
        x[i] += off[i - 1] / pivots[i - 1] * x[i - 1];
    }
    x[k - 1] /= pivots[k - 1];
    for i in (0..k - 1).rev() {
        x[i] = (x[i] + off[i] * x[i + 1]) / pivots[i];
    }
    let largest = x.iter().fold(0.0_f64, |m, &v| m.max(v));
    let norm = x.iter().map(|v| (v / largest).powi(2)).sum::<f64>().sqrt();
    let last = x[k - 1] / largest / norm;
    (hi, if last.is_finite() { last } else { 1.0 })
}

/// Writes the LDLᵀ pivots of `σI − T` into `pivots` (`T` as in
/// [`top_eigenpair`]) and reports whether all are positive, stopping at the
/// first that is not.
fn shifted_pivots(sigma: f64, diag: &[f64], off: &[f64], pivots: &mut [f64]) -> bool {
    let mut previous = f64::INFINITY;
    for (i, (&d, pivot)) in diag.iter().zip(pivots.iter_mut()).enumerate() {
        let coupling = i.checked_sub(1).map_or(0.0, |j| off[j] * off[j] / previous);
        *pivot = sigma - d - coupling;
        if *pivot > 0.0 {
            previous = *pivot;
        } else {
            return false;
        }
    }
    true
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
/// Above 256 nodes the pair comes from Lanczos, which stops once certified
/// (see the [module docs](self)): the pair is then an outward bound, `λ₂`
/// from above and `λₙ` from below. A run that spends all `max_iter` steps
/// uncertified returns its Ritz values, which lie inside. Use
/// [`measure_spectral_bounds`] to learn which one a call returned.
pub fn spectral_bounds(g: &Graph, max_iter: usize, seed: u64) -> (f64, f64) {
    measure_spectral_bounds(g, max_iter, seed, None, false)
        .0
        .pair()
}

/// Warm-startable variant of [`spectral_bounds`]: returns the `(λ₂, λₙ)`
/// bounds plus a Ritz vector for warm-starting the next call.
///
/// With `start = None` and the same `max_iter`, the bounds are identical to
/// [`spectral_bounds`] (same seeded start, same iteration, same stopping
/// step); only this variant stores the Lanczos basis, to build the Ritz
/// vector. With a `start` carried over from the previous call on a
/// slightly mutated graph, the run certifies after a few steps instead of
/// the dozens a cold run takes: this is how the dynamic service refreshes λ
/// after a mutation burst, with `max_iter` capped at a third of the cold
/// budget. On the dense exact path (n ≤ 256) there is no iteration to warm,
/// so the returned vector is `None`.
pub fn spectral_bounds_warm(
    g: &Graph,
    max_iter: usize,
    seed: u64,
    start: Option<&[f64]>,
) -> ((f64, f64), Option<Vec<f64>>) {
    let (bounds, ritz_vector) = measure_spectral_bounds(g, max_iter, seed, start, true);
    (bounds.pair(), ritz_vector)
}

/// `(λ₂, λₙ)` of a graph's transition matrix and how they were measured.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct SpectralBounds {
    /// λ₂; an upper bound on it when `certified`.
    pub lambda2: f64,
    /// λₙ; a lower bound on it when `certified`.
    pub lambda_n: f64,
    /// Lanczos steps run; 0 on the dense path.
    pub steps: usize,
    /// Whether the pair encloses the true `(λ₂, λₙ)`: exact on the dense
    /// path, residual-bounded after a Lanczos run that certified or reached
    /// an invariant subspace. Otherwise the pair is the Ritz values of a run
    /// that reached its step cap, which lie inside the spectrum.
    pub certified: bool,
}

impl SpectralBounds {
    /// `(λ₂, λₙ)`.
    pub fn pair(&self) -> (f64, f64) {
        (self.lambda2, self.lambda_n)
    }
}

/// The one spectral measurement behind [`spectral_bounds`] and
/// [`spectral_bounds_warm`]: dense eigenvalues for n ≤ 256, otherwise a
/// Lanczos run of at most `max_iter` steps from `start` (or the seeded
/// random start) that stops once certified. The Lanczos basis is stored,
/// and a Ritz vector for the next warm start returned, only when
/// `keep_ritz_vector` is set and the Lanczos path runs.
pub fn measure_spectral_bounds(
    g: &Graph,
    max_iter: usize,
    seed: u64,
    start: Option<&[f64]>,
    keep_ritz_vector: bool,
) -> (SpectralBounds, Option<Vec<f64>>) {
    if g.num_nodes() <= 256 {
        // Exact dense path for small graphs: eigenvalues of N.
        let vals = dense_spectrum(g);
        let bounds = SpectralBounds {
            lambda2: vals.get(1).copied().unwrap_or(0.0),
            lambda_n: vals.last().copied().unwrap_or(0.0),
            steps: 0,
            certified: true,
        };
        return (bounds, None);
    }
    let tolerance = Some(CERTIFICATION_TOLERANCE);
    let (res, ritz_vector) =
        transition_lanczos(g, max_iter, seed, start, keep_ritz_vector, tolerance);
    let certified = res.certified || res.invariant_subspace;
    let (top, bottom) = if certified {
        (res.max() + res.residuals.0, res.min() - res.residuals.1)
    } else {
        (res.max(), res.min())
    };
    let bounds = SpectralBounds {
        lambda2: top.min(1.0),
        lambda_n: bottom.max(-1.0),
        steps: res.iterations,
        certified,
    };
    (bounds, ritz_vector)
}

/// The eigenvalues of `N`, descending, by dense Jacobi.
fn dense_spectrum(g: &Graph) -> Vec<f64> {
    let mut nmat = DenseMatrix::zeros(g.num_nodes());
    for u in g.nodes() {
        for &v in g.neighbors(u) {
            let w = 1.0 / ((g.degree(u) as f64).sqrt() * (g.degree(v) as f64).sqrt());
            nmat.set(u, v, w);
        }
    }
    nmat.symmetric_eigen().0
}

/// Lanczos on `N` with its Perron pair `(1, φ₁)` deflated to `(0, φ₁)`, so
/// the extremes are λ₂ and λₙ. When λ₂ < 0 (a complete graph) the deflated
/// 0 tops the spectrum instead: still an upper bound on λ₂, and
/// `λ = |λₙ|` either way.
fn transition_lanczos(
    g: &Graph,
    max_iter: usize,
    seed: u64,
    start: Option<&[f64]>,
    keep_ritz_vector: bool,
    tolerance: Option<f64>,
) -> (LanczosResult, Option<Vec<f64>>) {
    let op = NormalizedAdjacencyOp::new(g);
    let phi = op.perron_vector();
    let deflated = DeflatedOp::new(&op, phi, 1.0);
    let q = start_vector(g.num_nodes(), seed, start);
    lanczos_core(&deflated, max_iter, q, keep_ritz_vector, tolerance)
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

    /// `(λ₂, λₙ)` from the extreme Ritz values of a 1,000-step run, which
    /// stand in for the truth where a dense solve is too slow.
    fn reference_pair(g: &Graph) -> (f64, f64) {
        let run = transition_lanczos(g, 1000, 1, None, false, None).0;
        (run.max(), run.min())
    }

    /// Checks a certified run against the true pair: from `start`, or cold
    /// when it is `None`, the run certifies, its bounds are its extreme Ritz
    /// values pushed out by their residuals, they enclose the truth, and λ̄
    /// exceeds the Ritz λ_θ by at most τ(1 − λ_θ). Returns the bounds.
    ///
    /// The truth is known only to the rounding of one application of `N`,
    /// about `d_max·ε`, so the enclosure is checked to that resolution. On
    /// the barbell's 400-cliques the dense Jacobi, 120-step and 1,000-step
    /// values of λₙ differ by up to 7e-14, while the certified residual
    /// there is 9e-15.
    fn assert_certified(
        g: &Graph,
        max_iter: usize,
        seed: u64,
        start: Option<&[f64]>,
        (l2, ln): (f64, f64),
    ) -> SpectralBounds {
        let n = g.num_nodes();
        let (bounds, _) = measure_spectral_bounds(g, max_iter, seed, start, false);
        assert_eq!(
            bounds.pair(),
            spectral_bounds_warm(g, max_iter, seed, start).0
        );
        let tau = Some(CERTIFICATION_TOLERANCE);
        let run = transition_lanczos(g, max_iter, seed, start, false, tau).0;
        assert!(bounds.certified && run.certified, "n = {n}: {bounds:?}");
        assert_eq!(bounds.steps, run.iterations);
        let outward = (run.max() + run.residuals.0, run.min() - run.residuals.1);
        assert_eq!(bounds.pair(), (outward.0.min(1.0), outward.1.max(-1.0)));
        let rounding = g.max_degree() as f64 * f64::EPSILON;
        assert!(
            l2 <= bounds.lambda2 + rounding && bounds.lambda_n - rounding <= ln,
            "n = {n}: truth ({l2}, {ln}) outside {bounds:?}"
        );
        let lambda_theta = run.max().abs().max(run.min().abs());
        let lambda_bar = bounds.lambda2.abs().max(bounds.lambda_n.abs());
        assert!(
            lambda_bar - lambda_theta <= CERTIFICATION_TOLERANCE * (1.0 - lambda_theta),
            "n = {n}: λ̄ {lambda_bar} vs λ_θ {lambda_theta}"
        );
        bounds
    }

    #[test]
    fn lanczos_path_matches_dense_path_on_midsize_graph() {
        // Force the Lanczos path by checking a graph just above the dense
        // cutoff against the dense Jacobi result computed here directly.
        let g = generators::social_network_like(300, 8.0, 9).unwrap();
        let vals = dense_spectrum(&g);
        let dense_l2 = vals[1];
        let dense_ln = *vals.last().unwrap();
        // The full 120-step run's Ritz values.
        let run = transition_lanczos(&g, 120, 7, None, false, None).0;
        assert_eq!(run.iterations, 120);
        let (l2, ln) = (run.max(), run.min());
        assert!(
            (l2 - dense_l2).abs() < 1e-10,
            "lanczos {l2} dense {dense_l2}"
        );
        assert!(
            (ln - dense_ln).abs() < 1e-10,
            "lanczos {ln} dense {dense_ln}"
        );
        assert_certified(&g, 120, 7, None, (dense_l2, dense_ln));
    }

    #[test]
    fn cold_budget_bounds_match_the_reorthogonalized_recording() {
        // The extreme Ritz values of 120 cold steps at the preprocessing
        // seed, recorded with the full-reorthogonalization Lanczos and
        // dense Jacobi this module used before. A dense reference at
        // n = 2000 takes minutes in a debug build; these recordings stand
        // in for it, and a 1,000-step run stands in for the truth.
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
            let run = transition_lanczos(&g, 120, 0xe16e, None, false, None).0;
            let (l2, ln) = (run.max(), run.min());
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
            assert_certified(&g, 120, 0xe16e, None, reference_pair(&g));
        }
    }

    #[test]
    fn a_run_capped_before_certifying_returns_its_ritz_values() {
        // Five cold steps certify nothing here; the pair is the bits the
        // Ritz-valued implementation returned for the same call.
        let g = generators::social_network_like(600, 8.0, 5).unwrap();
        let (bounds, _) = measure_spectral_bounds(&g, 5, 0xe16e, None, false);
        assert!(!bounds.certified);
        assert_eq!(bounds.steps, 5);
        assert_eq!(bounds.lambda2.to_bits(), 0x3fe19d8130804e0d);
        assert_eq!(bounds.lambda_n.to_bits(), 0xbfe1e3d95059ebf1);
        let run = transition_lanczos(&g, 5, 0xe16e, None, false, None).0;
        assert_eq!(bounds.pair(), (run.max(), run.min()));
    }

    #[test]
    fn extreme_pairs_match_the_ql_eigenvectors() {
        for (k, seed) in [(1, 21), (2, 22), (7, 23), (40, 24), (120, 25)] {
            let (diag, off) = random_tridiagonal(k, seed);
            let off: Vec<f64> = off.iter().map(|b| b.abs()).collect();
            let beta = 0.5;
            let ((top, r_top), (bottom, r_bottom)) = extreme_pairs(&diag, &off, beta);
            let (values, vectors) = tridiagonal_eigen(&diag, &off, &[0, k - 1]);
            assert!(
                (top - values[0]).abs() <= 1e-14,
                "k = {k}: {top} vs {}",
                values[0]
            );
            assert!(
                (bottom - values[k - 1]).abs() <= 1e-14,
                "k = {k}: {bottom} vs {}",
                values[k - 1]
            );
            for (residual, vector) in [(r_top, &vectors[0]), (r_bottom, &vectors[1])] {
                let expected = beta * vector[k - 1].abs();
                assert!(
                    (residual - expected).abs() <= 1e-12,
                    "k = {k}: residual {residual:e} vs {expected:e}"
                );
            }
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
        let (reference, ritz) = transition_lanczos(&g, 120, 0xd1a, None, true, None);
        let start = ritz.expect("warm vector");
        // Re-run on the same graph with a much smaller budget from the warm
        // start: the extremes are already in the start vector's Krylov space.
        let warm = transition_lanczos(&g, 40, 0xd1a, Some(&start), false, None).0;
        assert!(
            (warm.max() - reference.max()).abs() < 1e-6,
            "{} vs {}",
            warm.max(),
            reference.max()
        );
        assert!(
            (warm.min() - reference.min()).abs() < 1e-6,
            "{} vs {}",
            warm.min(),
            reference.min()
        );
        // And a cold run at the same reduced budget is (weakly) worse.
        let cold_small = transition_lanczos(&g, 40, 0xd1a, None, false, None).0;
        assert!(
            (warm.max() - reference.max()).abs()
                <= (cold_small.max() - reference.max()).abs() + 1e-9
        );

        // Certified, the warm start needs a few steps where the cold start
        // needs dozens, and both enclose the truth.
        let truth = reference_pair(&g);
        let cold = assert_certified(&g, 120, 0xd1a, None, truth);
        let ritz = measure_spectral_bounds(&g, 120, 0xd1a, None, true).1;
        let warm = assert_certified(&g, 40, 0xd1a, ritz.as_deref(), truth);
        assert!(
            warm.steps <= 3 && cold.steps > 10 * warm.steps,
            "{cold:?} {warm:?}"
        );
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
