//! Rank-1 Sherman–Morrison updates of Laplacian pseudo-inverse state.
//!
//! Inserting or deleting an edge `e = {u, v}` changes the Laplacian by a
//! rank-1 term: `L' = L ± b_e b_eᵀ` with `b_e = e_u − e_v`. As long as the
//! graph stays connected (the null space is still `span{1}`), the
//! pseudo-inverse moves by Sherman–Morrison:
//!
//! ```text
//! L'⁺ = L⁺ ∓ (w wᵀ) / (1 ± bᵀw),   w = L⁺ b_e
//! ```
//!
//! so *everything the serving stack keeps resident* — L⁺ columns in the
//! INDEX tier and the L⁺ diagonal — updates in `O(n)` per resident vector
//! instead of a CG re-solve from scratch. Note
//! `bᵀw = w[u] − w[v] = r(u, v)`, the effective resistance of the mutated
//! edge in the *old* graph: insertion denominators are `1 + r > 1` (always
//! safe), deletion denominators are `1 − r`, which approaches zero exactly
//! when the deleted edge carries all current between its endpoints (a
//! bridge). [`RankOneUpdate::for_delete`] therefore refuses near-singular
//! deletions and the caller falls back to fresh CG solves.
//!
//! Drift: each update multiplies the resident state's error by a modest
//! factor (`1/den` in the worst case), so callers cap the number of chained
//! updates with a re-solve-every-K refresh. The dynamic service does both —
//! K-bounded refresh for bit-identity, residual-checked CG fallback for
//! safety.

use crate::vector;

/// Default floor for the deletion denominator `1 − r(u, v)`. Deleting an
/// edge whose resistance is within this floor of 1 (a bridge or near-bridge)
/// is numerically unstable under Sherman–Morrison; callers should re-solve.
pub const MIN_DELETE_DENOMINATOR: f64 = 1e-6;

/// A prepared rank-1 Laplacian-pseudo-inverse update for one edge mutation.
///
/// Build one per mutation from `w = L⁺ (e_u − e_v)` (either a difference of
/// two resident columns or one CG solve), then apply it to every resident
/// vector in `O(n)` each.
///
/// ```
/// use er_graph::generators;
/// use er_linalg::{LaplacianSolver, RankOneUpdate};
///
/// let g = generators::complete(6).unwrap();
/// let solver = LaplacianSolver::for_ground_truth(&g);
/// let n = g.num_nodes();
/// let (u, v) = (0, 3);
/// let mut b = vec![0.0; n];
/// b[u] = 1.0;
/// b[v] = -1.0;
/// let (w, _) = solver.solve(&b);
///
/// // Deleting {0, 3} from K_6: the denominator 1 − r(0, 3) = 1 − 1/3 is
/// // comfortably positive, so the update is accepted...
/// let update = RankOneUpdate::for_delete(w.clone(), u, v, 1e-6).expect("not a bridge");
/// // ...and `w` itself is `L⁺ b_e`, so its update gives the new resistance,
/// // which matches K_6 minus one edge.
/// let mut w_new = w;
/// update.apply_column(&mut w_new);
/// assert!((w_new[u] - w_new[v] - 0.5).abs() < 1e-9);
/// ```
#[derive(Clone, Debug)]
pub struct RankOneUpdate {
    w: Vec<f64>,
    /// The Sherman–Morrison denominator `1 ± r(u, v)`.
    den: f64,
    /// `+1.0` for an insertion (`L' = L + b bᵀ`), `−1.0` for a deletion.
    sign: f64,
    u: usize,
    v: usize,
}

impl RankOneUpdate {
    /// Prepares the update for inserting edge `{u, v}`, given `w = L⁺ b_e`
    /// on the graph *before* the insertion. Always well-conditioned: the
    /// denominator is `1 + r(u, v) ≥ 1`.
    pub fn for_insert(w: Vec<f64>, u: usize, v: usize) -> RankOneUpdate {
        let den = 1.0 + (w[u] - w[v]);
        RankOneUpdate {
            w,
            den,
            sign: 1.0,
            u,
            v,
        }
    }

    /// Prepares the update for deleting edge `{u, v}`, given `w = L⁺ b_e` on
    /// the graph *before* the deletion. Returns `None` when the denominator
    /// `1 − r(u, v)` is at or below `min_denominator` — the edge is a bridge
    /// (deletion disconnects) or close enough that Sherman–Morrison would
    /// amplify error unacceptably; the caller should re-solve with CG.
    pub fn for_delete(
        w: Vec<f64>,
        u: usize,
        v: usize,
        min_denominator: f64,
    ) -> Option<RankOneUpdate> {
        let den = 1.0 - (w[u] - w[v]);
        if den <= min_denominator {
            return None;
        }
        Some(RankOneUpdate {
            w,
            den,
            sign: -1.0,
            u,
            v,
        })
    }

    /// Updates a resident L⁺ column (or any vector of the form `L⁺ y`) in
    /// place: `x' = x − σ · ((x[u] − x[v]) / den) · w`. `O(n)`; a centred
    /// input stays centred because `w` is centred.
    pub fn apply_column(&self, x: &mut [f64]) {
        let coeff = self.sign * (x[self.u] - x[self.v]) / self.den;
        vector::axpy(-coeff, &self.w, x);
    }

    /// Updates the resident L⁺ diagonal in place:
    /// `diag'(i) = diag(i) − σ · w(i)² / den`. `O(n)`.
    pub fn apply_diagonal(&self, diag: &mut [f64]) {
        let scale = self.sign / self.den;
        for (d, &wi) in diag.iter_mut().zip(&self.w) {
            *d -= scale * wi * wi;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::solver::LaplacianSolver;
    use er_graph::{generators, GraphBuilder};

    fn solve_b(g: &er_graph::Graph, u: usize, v: usize) -> Vec<f64> {
        let mut b = vec![0.0; g.num_nodes()];
        b[u] = 1.0;
        b[v] = -1.0;
        LaplacianSolver::for_ground_truth(g).solve(&b).0
    }

    #[test]
    fn insert_update_matches_fresh_solve() {
        let g = generators::social_network_like(80, 6.0, 3).unwrap();
        let (u, v) = (5, 61);
        assert!(!g.has_edge(u, v));
        let w = solve_b(&g, u, v);
        let update = RankOneUpdate::for_insert(w, u, v);
        assert!(update.den > 1.0, "insertion denominator 1 + r(u, v)");

        // Maintain the column of node 12 and L⁺(e_7 − e_40), whose
        // difference at 7 and 40 is r(7, 40).
        let mut e = vec![0.0; g.num_nodes()];
        e[12] = 1.0;
        let (mut col, _) = LaplacianSolver::for_ground_truth(&g).solve(&e);
        update.apply_column(&mut col);
        let mut w_740 = solve_b(&g, 7, 40);
        update.apply_column(&mut w_740);
        let r_new = w_740[7] - w_740[40];

        let mut edges: Vec<(usize, usize)> = g.edges().collect();
        edges.push((u.min(v), u.max(v)));
        let g2 = GraphBuilder::from_edges(g.num_nodes(), edges)
            .build()
            .unwrap();
        let solver2 = LaplacianSolver::for_ground_truth(&g2);
        let (fresh_col, _) = solver2.solve(&e);
        assert!(
            crate::vector::max_abs_diff(&col, &fresh_col) < 1e-7,
            "column drift {}",
            crate::vector::max_abs_diff(&col, &fresh_col)
        );
        let r_fresh = solver2.effective_resistance(7, 40);
        assert!((r_new - r_fresh).abs() < 1e-8);
    }

    #[test]
    fn delete_update_matches_fresh_solve() {
        // Complete graph: every deletion is far from disconnecting.
        let g = generators::complete(10).unwrap();
        let (u, v) = (2, 7);
        let w = solve_b(&g, u, v);
        let update = RankOneUpdate::for_delete(w, u, v, MIN_DELETE_DENOMINATOR).unwrap();

        let mut diag = vec![0.0; g.num_nodes()];
        let solver = LaplacianSolver::for_ground_truth(&g);
        for i in 0..g.num_nodes() {
            let mut e = vec![0.0; g.num_nodes()];
            e[i] = 1.0;
            diag[i] = solver.solve(&e).0[i];
        }
        update.apply_diagonal(&mut diag);

        let edges: Vec<(usize, usize)> = g
            .edges()
            .filter(|&(a, b)| (a, b) != (u.min(v), u.max(v)))
            .collect();
        let g2 = GraphBuilder::from_edges(g.num_nodes(), edges)
            .build()
            .unwrap();
        let solver2 = LaplacianSolver::for_ground_truth(&g2);
        for i in 0..g.num_nodes() {
            let mut e = vec![0.0; g.num_nodes()];
            e[i] = 1.0;
            let fresh = solver2.solve(&e).0[i];
            assert!((diag[i] - fresh).abs() < 1e-8, "diag[{i}]");
        }
        // r'(0, 1) from the updated L⁺(e_0 − e_1) agrees with the fresh
        // graph too.
        let mut w_01 = solve_b(&g, 0, 1);
        update.apply_column(&mut w_01);
        let r_new = w_01[0] - w_01[1];
        assert!((r_new - solver2.effective_resistance(0, 1)).abs() < 1e-9);
    }

    #[test]
    fn bridge_deletion_is_refused() {
        // A path graph: every edge is a bridge, r(u, u+1) = 1 exactly.
        let g = generators::path(8).unwrap();
        let w = solve_b(&g, 3, 4);
        assert!(RankOneUpdate::for_delete(w, 3, 4, MIN_DELETE_DENOMINATOR).is_none());
    }

    #[test]
    fn near_bridge_deletion_is_refused_at_loose_threshold() {
        // Two cliques joined by two parallel paths: deleting one of them
        // leaves the graph connected but the denominator is small.
        let mut edges = Vec::new();
        for a in 0..4usize {
            for b in (a + 1)..4 {
                edges.push((a, b));
                edges.push((a + 4, b + 4));
            }
        }
        edges.push((0, 4)); // link 1
        edges.push((1, 5)); // link 2
        let g = GraphBuilder::from_edges(8, edges).build().unwrap();
        let w = solve_b(&g, 0, 4);
        let r = w[0] - w[4];
        assert!(r > 0.5, "two parallel links: r(0,4) = {r}");
        // Tight threshold accepts; a loose "stability" threshold refuses.
        assert!(RankOneUpdate::for_delete(w.clone(), 0, 4, 1e-6).is_some());
        assert!(RankOneUpdate::for_delete(w, 0, 4, 0.5).is_none());
    }

    #[test]
    fn chained_updates_stay_close_then_refresh_restores_exactness() {
        let g = generators::social_network_like(60, 6.0, 9).unwrap();
        let n = g.num_nodes();
        let mut edges: std::collections::BTreeSet<(usize, usize)> = g.edges().collect();
        let mut current = g.clone();
        let mut e0 = vec![0.0; n];
        e0[17] = 1.0;
        let mut col = LaplacianSolver::for_ground_truth(&current).solve(&e0).0;

        let stream = [(0usize, 30usize), (1, 45), (2, 50), (3, 33), (8, 59)];
        for &(u, v) in &stream {
            let key = (u.min(v), u.max(v));
            let insert = !edges.contains(&key);
            let w = solve_b(&current, u, v);
            let update = if insert {
                edges.insert(key);
                RankOneUpdate::for_insert(w, u, v)
            } else {
                edges.remove(&key);
                RankOneUpdate::for_delete(w, u, v, MIN_DELETE_DENOMINATOR).unwrap()
            };
            update.apply_column(&mut col);
            current = GraphBuilder::from_edges(n, edges.iter().copied())
                .build()
                .unwrap();
        }
        let fresh = LaplacianSolver::for_ground_truth(&current).solve(&e0).0;
        let drift = crate::vector::max_abs_diff(&col, &fresh);
        assert!(drift < 1e-6, "drift after 5 chained updates: {drift}");
        // A refresh (re-solve) is exact by construction.
        col = fresh.clone();
        assert_eq!(crate::vector::max_abs_diff(&col, &fresh), 0.0);
    }
}
