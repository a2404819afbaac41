//! Cost-based query routing.
//!
//! The paper's Section 5 evaluation shows no single estimator dominates: the
//! cheapest method depends on the query shape (arbitrary pair vs. edge vs.
//! one-source-many-targets), the accuracy target and the graph. One routing
//! function encodes those trade-offs;
//! [`ResistanceService::plan`](crate::ResistanceService::plan) calls it per
//! request with the graph's node count, its spectral gap and whether the
//! INDEX tier is built, unless the caller forces a backend.
//!
//! Routing rules (first match wins):
//!
//! 1. Source-shaped queries (`SingleSource`, `Diagonal`, `TopK`) go to the
//!    column-based [`ErIndex`](er_index::ErIndex) backend — one Laplacian
//!    solve answers a whole row, which no pairwise sampler can match.
//! 2. `Accuracy::Exact` pair queries go to the index when it is already
//!    built (marginal cost: one cached column) or when the batch re-uses one
//!    source heavily on a graph of at most [`EXACT_NODE_THRESHOLD`] nodes;
//!    otherwise to EXACT-CG, one conjugate-gradient solve per pair with no
//!    preprocessing.
//! 3. `Accuracy::Epsilon` batches that re-use one source at least
//!    [`REPEATED_SOURCE_THRESHOLD`] times go to the index once it exists
//!    (repeated-source workloads amortise its columns).
//! 4. `Accuracy::Epsilon` pair/batch queries route on the **spectral gap**
//!    `1 − λ` of
//!    [`GraphContext::spectral_gap`](er_core::GraphContext::spectral_gap): a
//!    gap below [`SLOW_MIXING_GAP`] marks a slow-mixing graph (long refined
//!    walk lengths, expensive Monte Carlo tails — the regime the
//!    `planner_calibration` sweep showed is CG-bound regardless of size), so
//!    the query is answered exactly (EXACT-CG; the index when a
//!    repeated-source batch makes building it worthwhile on a graph of at
//!    most [`EXACT_NODE_THRESHOLD`] nodes). Graphs at or below
//!    [`EXACT_NODE_THRESHOLD`] nodes take the same exact tier even when
//!    fast-mixing, because a CG solve undercuts sampling outright at that
//!    size.
//! 5. Remaining `Accuracy::Epsilon` queries are fast-mixing and large: edge
//!    sets go to the batch-native HAY backend (one pool of spanning trees
//!    scores the whole set); everything else goes to GEER, which applies
//!    the paper's Eq. 17 walk-vs-SpMV switch rule per pair — the regime
//!    where its sampling bound is cheapest.
//! 6. `Accuracy::WalkBudget` requests explicitly ask for budgeted sampling:
//!    edge sets go to HAY (budget = trees), pairs and batches to GEER
//!    (budget = walks of its AMC tail). GEER's SMM prefix spends no walks,
//!    so it answers any budget, from the prefix alone when the budget does
//!    not cover one AMC batch; AMC alone refuses such a budget with
//!    `BudgetExceeded`.
//!
//! The three thresholds are constants, calibrated by the
//! `planner_calibration` sweep
//! (`cargo run --release -p er-bench --bin planner_calibration`) and a
//! spectral probe over the generator families.

use crate::capability::QueryShape;
use crate::query::{Accuracy, Query};
use er_graph::NodeId;
use std::collections::HashMap;

/// At or below this many nodes a CG solve per query is cheaper than any
/// sampling scheme, so ε requests are answered exactly. Below this size CG
/// undercuts sampling on every family the `planner_calibration` sweep
/// covers, while fast-mixing graphs above it flip to GEER; slow-mixing
/// graphs stay exact at any size through [`SLOW_MIXING_GAP`].
pub const EXACT_NODE_THRESHOLD: usize = 256;

/// A batch whose most frequent endpoint appears in at least this many
/// distinct pairs counts as a repeated-source workload.
pub const REPEATED_SOURCE_THRESHOLD: usize = 16;

/// Spectral gaps `1 − λ` strictly below this mark the graph slow-mixing: ε
/// pair/batch queries are answered exactly (EXACT-CG/INDEX) no matter the
/// node count, because the refined walk length — and with it GEER's whole
/// sampling budget — scales like `1/gap`. Social-network-like and
/// Barabási–Albert graphs sit at a gap of ≈ 0.38–0.46 across sizes, while
/// Watts–Strogatz small-world rings sit at ≈ 0.02–0.03, so 0.1 separates
/// the families cleanly.
pub const SLOW_MIXING_GAP: f64 = 0.1;

/// The backends the service can route to: seven er-core estimators and the
/// er-index column index, the eight paths `tests/conformance.rs` checks
/// against ground truth.
///
/// Each backend is sized for the accuracy a request asks for: `Exact` to
/// solver tolerance, ε with probability at least 1 − δ. The service
/// therefore serves neither the landmark bounds of
/// [`er_index::LandmarkIndex`], whose midpoint ignores ε, nor
/// [`er_core::Mc`], whose trial count assumes `r(s, t) ≤ γ`, which the
/// service cannot check. The Section 5 baselines [`er_core::Tp`],
/// [`er_core::Tpc`] and [`er_core::Rp`] stay library-only as well, because
/// no check holds them to ε: TP and TPC take minutes per graph at their
/// paper sample sizes, and RP's sketch takes `24 ln n / ε²` Laplacian solves
/// before its first answer.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum BackendChoice {
    /// GEER (Algorithm 3) — SMM prefix + AMC tail with the Eq. 17 switch.
    Geer,
    /// AMC (Algorithm 1) — adaptive Monte Carlo with Bernstein stopping.
    Amc,
    /// SMM (Algorithm 2) — deterministic sparse matrix–vector iterations.
    Smm,
    /// MC2 — edge-query Monte Carlo.
    Mc2,
    /// HAY — spanning-tree sampling, batch-native over edge sets.
    Hay,
    /// EXACT — dense Laplacian pseudo-inverse (node-capped).
    ExactDense,
    /// EXACT-CG — one conjugate-gradient Laplacian solve per query.
    ExactCg,
    /// The column-based [`ErIndex`](er_index::ErIndex): single-source rows,
    /// pseudo-inverse diagonal, nearest-neighbour search, exact pairs.
    Index,
}

impl BackendChoice {
    /// Short stable display name, reported as [`Response::backend`](crate::Response::backend).
    pub fn name(&self) -> &'static str {
        match self {
            BackendChoice::Geer => "GEER",
            BackendChoice::Amc => "AMC",
            BackendChoice::Smm => "SMM",
            BackendChoice::Mc2 => "MC2",
            BackendChoice::Hay => "HAY",
            BackendChoice::ExactDense => "EXACT",
            BackendChoice::ExactCg => "EXACT-CG",
            BackendChoice::Index => "INDEX",
        }
    }

    /// Whether the backend computes resistances exactly (to solver
    /// tolerance) rather than sampling them. Only these may answer an
    /// [`Accuracy::Exact`] request that overrides the planner.
    pub fn is_exact(&self) -> bool {
        matches!(
            self,
            BackendChoice::ExactDense | BackendChoice::ExactCg | BackendChoice::Index
        )
    }

    /// Whether this backend can answer queries of `shape`: INDEX answers
    /// every shape, MC2 and HAY only edge sets, and every other backend the
    /// pair shapes. The service rejects a mismatched override before paying
    /// any backend construction cost.
    pub fn answers(&self, shape: QueryShape) -> bool {
        match self {
            BackendChoice::Index => true,
            BackendChoice::Mc2 | BackendChoice::Hay => shape == QueryShape::EdgeSet,
            _ => shape.is_pairwise(),
        }
    }

    /// Parses the names accepted by the CLI's `--backend` flag
    /// (case-insensitive, `-`/`_` equivalent).
    pub fn parse(raw: &str) -> Option<BackendChoice> {
        let canon = raw.to_ascii_lowercase().replace('_', "-");
        Some(match canon.as_str() {
            "geer" => BackendChoice::Geer,
            "amc" => BackendChoice::Amc,
            "smm" => BackendChoice::Smm,
            "mc2" => BackendChoice::Mc2,
            "hay" => BackendChoice::Hay,
            "exact" | "exact-dense" => BackendChoice::ExactDense,
            "exact-cg" | "cg" => BackendChoice::ExactCg,
            "index" => BackendChoice::Index,
            _ => return None,
        })
    }
}

/// Routes a query to the cheapest capable backend under the given accuracy
/// target. `nodes` is the graph's node count, `gap` its spectral gap
/// `1 − λ`, and `index_ready` whether the service has already paid for its
/// [`ErIndex`](er_index::ErIndex) tier (diagonal + column cache), which
/// makes index answers marginally free.
///
/// The decision is a pure function of its arguments, so the routing table
/// is unit-testable without building a service.
pub(crate) fn route(
    query: &Query,
    accuracy: Accuracy,
    nodes: usize,
    gap: f64,
    index_ready: bool,
) -> BackendChoice {
    match query.shape() {
        QueryShape::SingleSource | QueryShape::Diagonal | QueryShape::TopK => BackendChoice::Index,
        shape @ (QueryShape::Pair | QueryShape::Batch | QueryShape::EdgeSet) => {
            // Fewer pairs than the threshold can never reach it, so single
            // pairs and small batches skip the count and its allocations.
            let repeated_source = match query {
                Query::Batch { pairs } | Query::EdgeSet { edges: pairs } => {
                    pairs.len() >= REPEATED_SOURCE_THRESHOLD
                        && dominant_source_count(pairs) >= REPEATED_SOURCE_THRESHOLD
                }
                _ => false,
            };
            let small = nodes <= EXACT_NODE_THRESHOLD;
            match accuracy {
                Accuracy::Exact => {
                    // The index is only worth *building* (n diagonal
                    // solves) on small graphs; on large graphs it is used
                    // when already paid for, and EXACT-CG (one solve per
                    // pair) wins otherwise.
                    if index_ready || (repeated_source && small) {
                        BackendChoice::Index
                    } else {
                        BackendChoice::ExactCg
                    }
                }
                Accuracy::Epsilon { .. } => {
                    // Slow mixing (rule 4): a small spectral gap blows up
                    // the refined walk length, so CG wins on pair/batch
                    // queries regardless of size. Edge sets stay with
                    // HAY whose tree pool does not depend on mixing.
                    let exact_tier =
                        small || (shape != QueryShape::EdgeSet && gap < SLOW_MIXING_GAP);
                    if index_ready && repeated_source {
                        BackendChoice::Index
                    } else if exact_tier {
                        // Building the index (n diagonal solves) for one
                        // batch only pays on small graphs; a slow-mixing
                        // *large* repeated-source batch takes per-pair CG.
                        if repeated_source && small {
                            BackendChoice::Index
                        } else {
                            BackendChoice::ExactCg
                        }
                    } else if shape == QueryShape::EdgeSet {
                        BackendChoice::Hay
                    } else {
                        BackendChoice::Geer
                    }
                }
                Accuracy::WalkBudget(_) => {
                    if shape == QueryShape::EdgeSet {
                        BackendChoice::Hay
                    } else {
                        BackendChoice::Geer
                    }
                }
            }
        }
    }
}

/// The number of distinct (unordered, non-self) pairs in which the most
/// frequent endpoint participates — the repeated-source signal.
fn dominant_source_count(pairs: &[(NodeId, NodeId)]) -> usize {
    let mut seen = std::collections::HashSet::new();
    let mut counts: HashMap<NodeId, usize> = HashMap::new();
    for &(s, t) in pairs {
        if s == t {
            continue;
        }
        let key = (s.min(t), s.max(t));
        if seen.insert(key) {
            *counts.entry(key.0).or_insert(0) += 1;
            *counts.entry(key.1).or_insert(0) += 1;
        }
    }
    counts.values().copied().max().unwrap_or(0)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A social/BA-like spectral gap, well above [`SLOW_MIXING_GAP`].
    const FAST: f64 = 0.4;
    /// A small-world-like spectral gap, below [`SLOW_MIXING_GAP`].
    const SLOW: f64 = 0.03;

    /// A one-source batch of `count` distinct pairs.
    fn one_source_batch(count: usize) -> Query {
        Query::batch((1..=count).map(|t| (0usize, t)).collect())
    }

    #[test]
    fn source_shapes_always_go_to_the_index() {
        for accuracy in [
            Accuracy::default(),
            Accuracy::Exact,
            Accuracy::WalkBudget(10),
        ] {
            for query in [Query::single_source(0), Query::Diagonal, Query::top_k(0, 5)] {
                assert_eq!(
                    route(&query, accuracy, 1_000_000, FAST, false),
                    BackendChoice::Index,
                    "{query:?} under {accuracy:?}"
                );
            }
        }
    }

    #[test]
    fn small_graphs_are_answered_exactly_even_for_epsilon_requests() {
        let q = Query::pair(0, 1);
        assert_eq!(
            route(&q, Accuracy::default(), 200, FAST, false),
            BackendChoice::ExactCg
        );
        assert_eq!(
            route(&q, Accuracy::default(), 100_000, FAST, false),
            BackendChoice::Geer,
            "above the threshold, on a fast-mixing graph, sampling wins"
        );
    }

    #[test]
    fn spectral_gap_routes_slow_mixing_graphs_to_the_exact_tier() {
        let q = Query::pair(0, 1);
        // A small-world-like gap: exact even though the graph is far above
        // the node-count threshold.
        assert_eq!(
            route(&q, Accuracy::default(), 100_000, SLOW, false),
            BackendChoice::ExactCg
        );
        // A social/BA-like gap: GEER.
        assert_eq!(
            route(&q, Accuracy::default(), 100_000, FAST, false),
            BackendChoice::Geer
        );
        // The rule only applies to ε targets and pair/batch shapes: edge
        // sets keep HAY, budget requests keep GEER, exact requests were
        // already exact.
        let edges = Query::edge_set(vec![(0, 1)]);
        assert_eq!(
            route(&edges, Accuracy::default(), 100_000, SLOW, false),
            BackendChoice::Hay
        );
        assert_eq!(
            route(&q, Accuracy::WalkBudget(100), 100_000, SLOW, false),
            BackendChoice::Geer
        );
        // Slow-mixing large repeated-source batch: per-pair CG, not an
        // index build (n solves), unless the index already exists.
        let batch = one_source_batch(39);
        assert_eq!(
            route(&batch, Accuracy::default(), 100_000, SLOW, false),
            BackendChoice::ExactCg
        );
        assert_eq!(
            route(&batch, Accuracy::default(), 100_000, SLOW, true),
            BackendChoice::Index
        );
    }

    #[test]
    fn spectral_rule_crosses_the_threshold_in_both_directions_on_real_families() {
        use er_core::GraphContext;
        use er_graph::generators;
        // Lanczos-measured spectra: a Barabási–Albert graph mixes fast
        // (gap ≈ 0.41), a Watts–Strogatz ring mixes slowly (gap ≈ 0.03).
        let ba = GraphContext::preprocess(generators::barabasi_albert(500, 5, 5).unwrap()).unwrap();
        let ws =
            GraphContext::preprocess(generators::watts_strogatz(500, 6, 0.1, 5).unwrap()).unwrap();
        let (ba_gap, ws_gap) = (ba.spectral_gap(), ws.spectral_gap());
        assert!(ba_gap > SLOW_MIXING_GAP, "BA gap {ba_gap}");
        assert!(ws_gap < SLOW_MIXING_GAP, "WS gap {ws_gap}");
        let q = Query::pair(0, 1);
        let nodes = 100_000; // well past the node-count threshold
        assert_eq!(
            route(&q, Accuracy::default(), nodes, ba_gap, false),
            BackendChoice::Geer
        );
        assert_eq!(
            route(&q, Accuracy::default(), nodes, ws_gap, false),
            BackendChoice::ExactCg
        );
    }

    #[test]
    fn each_threshold_flips_its_rule_at_its_boundary() {
        let q = Query::pair(0, 1);
        let eps = Accuracy::default();
        // Node count: at the threshold ε is answered exactly, one above it
        // a fast-mixing graph samples.
        assert_eq!(
            route(&q, eps, EXACT_NODE_THRESHOLD, FAST, false),
            BackendChoice::ExactCg
        );
        assert_eq!(
            route(&q, eps, EXACT_NODE_THRESHOLD + 1, FAST, false),
            BackendChoice::Geer
        );
        // Spectral gap: strictly below the threshold is slow-mixing.
        assert_eq!(
            route(&q, eps, 100_000, SLOW_MIXING_GAP - 1e-9, false),
            BackendChoice::ExactCg
        );
        assert_eq!(
            route(&q, eps, 100_000, SLOW_MIXING_GAP, false),
            BackendChoice::Geer
        );
        // Repeated source: a one-source batch of the threshold's size rides
        // the built index, one pair fewer does not.
        assert_eq!(
            route(
                &one_source_batch(REPEATED_SOURCE_THRESHOLD - 1),
                eps,
                100_000,
                FAST,
                true
            ),
            BackendChoice::Geer
        );
        assert_eq!(
            route(
                &one_source_batch(REPEATED_SOURCE_THRESHOLD),
                eps,
                100_000,
                FAST,
                true
            ),
            BackendChoice::Index
        );
    }

    #[test]
    fn edge_sets_route_to_hay_and_budgets_to_geer() {
        let edges = Query::edge_set(vec![(0, 1), (1, 2)]);
        assert_eq!(
            route(&edges, Accuracy::default(), 100_000, FAST, false),
            BackendChoice::Hay
        );
        assert_eq!(
            route(&edges, Accuracy::WalkBudget(100), 100_000, FAST, false),
            BackendChoice::Hay
        );
        for query in [Query::pair(0, 9), Query::batch(vec![(0, 9), (3, 4)])] {
            for nodes in [100, 100_000] {
                assert_eq!(
                    route(&query, Accuracy::WalkBudget(100), nodes, FAST, false),
                    BackendChoice::Geer,
                    "{query:?} on {nodes} nodes"
                );
            }
        }
    }

    #[test]
    fn repeated_source_batches_prefer_the_index() {
        let batch = one_source_batch(39);
        // Small graph: the index is worth building outright.
        assert_eq!(
            route(&batch, Accuracy::default(), 200, FAST, false),
            BackendChoice::Index
        );
        // Large graph, index not built: GEER (building a full diagonal for
        // one batch would be n solves).
        assert_eq!(
            route(&batch, Accuracy::default(), 100_000, FAST, false),
            BackendChoice::Geer
        );
        // Large graph, index already paid for: re-use it.
        assert_eq!(
            route(&batch, Accuracy::default(), 100_000, FAST, true),
            BackendChoice::Index
        );
    }

    #[test]
    fn exact_accuracy_routes_to_cg_or_index() {
        let q = Query::pair(0, 1);
        assert_eq!(
            route(&q, Accuracy::Exact, 100_000, FAST, false),
            BackendChoice::ExactCg
        );
        assert_eq!(
            route(&q, Accuracy::Exact, 100_000, FAST, true),
            BackendChoice::Index
        );
        // A repeated-source exact batch justifies *building* the index only
        // on small graphs: on a large graph without an index, per-pair CG
        // beats the n-solve diagonal build.
        let batch = one_source_batch(39);
        assert_eq!(
            route(&batch, Accuracy::Exact, 200, FAST, false),
            BackendChoice::Index
        );
        assert_eq!(
            route(&batch, Accuracy::Exact, 100_000, FAST, false),
            BackendChoice::ExactCg
        );
        assert_eq!(
            route(&batch, Accuracy::Exact, 100_000, FAST, true),
            BackendChoice::Index
        );
    }

    #[test]
    fn dominant_source_ignores_duplicates_and_self_pairs() {
        assert_eq!(dominant_source_count(&[]), 0);
        assert_eq!(dominant_source_count(&[(3, 3)]), 0);
        // (0,1) repeated and reversed counts once; 0 appears in two distinct pairs.
        assert_eq!(dominant_source_count(&[(0, 1), (1, 0), (0, 2), (5, 5)]), 2);
    }

    #[test]
    fn backend_names_parse_back() {
        for choice in [
            BackendChoice::Geer,
            BackendChoice::Amc,
            BackendChoice::Smm,
            BackendChoice::Mc2,
            BackendChoice::Hay,
            BackendChoice::ExactDense,
            BackendChoice::ExactCg,
            BackendChoice::Index,
        ] {
            assert_eq!(
                BackendChoice::parse(choice.name()),
                Some(choice),
                "{choice:?}"
            );
        }
        assert_eq!(BackendChoice::parse("cg"), Some(BackendChoice::ExactCg));
        assert_eq!(BackendChoice::parse("bogus"), None);
        // The landmark bounds and MC are not served: they miss ε. TP, TPC
        // and RP are not served either: no conformance check covers them.
        for unserved in ["landmark", "mc", "tp", "tpc", "rp"] {
            assert_eq!(BackendChoice::parse(unserved), None, "{unserved}");
        }
    }
}
