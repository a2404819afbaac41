//! Capability- and cost-based query planning.
//!
//! The paper's Section 5 evaluation shows no single estimator dominates: the
//! cheapest method depends on the query shape (arbitrary pair vs. edge vs.
//! one-source-many-targets), the accuracy target and the graph size. The
//! [`Planner`] encodes those trade-offs as explicit, testable routing rules;
//! [`ResistanceService`](crate::ResistanceService) consults it per request
//! unless the caller forces a backend.
//!
//! Routing rules (first match wins):
//!
//! 1. Source-shaped queries (`SingleSource`, `Diagonal`, `TopK`) go to the
//!    column-based [`ErIndex`](er_index::ErIndex) backend — one Laplacian
//!    solve answers a whole row, which no pairwise sampler can match.
//! 2. `Accuracy::Exact` pair queries go to the index when it is already
//!    built (marginal cost: one cached column) or when the batch re-uses one
//!    source heavily; otherwise to EXACT-CG, one conjugate-gradient solve per
//!    pair with no preprocessing.
//! 3. `Accuracy::Epsilon` batches that re-use one source at least
//!    [`PlannerConfig::repeated_source_threshold`] times go to the index once
//!    it exists (repeated-source workloads amortise its columns).
//! 4. `Accuracy::Epsilon` pair/batch queries route on the **spectral gap**
//!    `1 − λ` reported by [`GraphSignals::lambda`]: a gap below
//!    [`PlannerConfig::lambda_gap_threshold`] marks a slow-mixing graph
//!    (long refined walk lengths, expensive Monte Carlo tails — the regime
//!    the `planner_calibration` sweep showed is CG-bound regardless of
//!    size), so the query is answered exactly (EXACT-CG; the index when a
//!    repeated-source batch makes building it worthwhile on a graph at or
//!    below [`PlannerConfig::exact_node_threshold`] nodes). Node count is
//!    only the fallback signal: graphs at or below `exact_node_threshold`
//!    take the same exact tier even when fast-mixing (or when λ is
//!    unknown), because a CG solve undercuts sampling outright at that
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
//! The spectral signal reaches the planner through [`GraphSignals`]: the
//! service fills it from
//! [`GraphContext::spectral_gap`](er_core::GraphContext::spectral_gap) (the
//! documented clamped accessor), callers routing without a preprocessed
//! context use [`GraphSignals::of_nodes`] and get the node-count fallback.

use crate::capability::QueryShape;
use crate::query::{Accuracy, Query};
use er_graph::NodeId;
use std::collections::HashMap;

/// The backends the service can route to. The first ten wrap the er-core
/// estimators one-to-one; the last wraps the er-index column index.
///
/// Each backend is sized for the accuracy a request asks for: `Exact` to
/// solver tolerance, ε with probability at least 1 − δ. The service
/// therefore serves neither the landmark bounds of
/// [`er_index::LandmarkIndex`], whose midpoint ignores ε, nor
/// [`er_core::Mc`], whose trial count assumes `r(s, t) ≤ γ`, which the
/// service cannot check.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum BackendChoice {
    /// GEER (Algorithm 3) — SMM prefix + AMC tail with the Eq. 17 switch.
    Geer,
    /// AMC (Algorithm 1) — adaptive Monte Carlo with Bernstein stopping.
    Amc,
    /// SMM (Algorithm 2) — deterministic sparse matrix–vector iterations.
    Smm,
    /// TP — truncated-path Monte Carlo.
    Tp,
    /// TPC — truncated-path with collision counting.
    Tpc,
    /// RP — random-projection sketch.
    Rp,
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
            BackendChoice::Tp => "TP",
            BackendChoice::Tpc => "TPC",
            BackendChoice::Rp => "RP",
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
            "tp" => BackendChoice::Tp,
            "tpc" => BackendChoice::Tpc,
            "rp" => BackendChoice::Rp,
            "mc2" => BackendChoice::Mc2,
            "hay" => BackendChoice::Hay,
            "exact" | "exact-dense" => BackendChoice::ExactDense,
            "exact-cg" | "cg" => BackendChoice::ExactCg,
            "index" => BackendChoice::Index,
            _ => return None,
        })
    }
}

/// What the planner knows about the *graph* when routing: the node count
/// plus, when a preprocessed [`GraphContext`](er_core::GraphContext) is at
/// hand, the spectral radius λ of the transition matrix that drives the
/// spectral-gap rule (rule 4 of the module docs).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct GraphSignals {
    /// Number of nodes in the graph.
    pub nodes: usize,
    /// `λ = max{|λ₂|, |λₙ|}` as reported by
    /// [`GraphContext::lambda`](er_core::GraphContext::lambda) (clamped into
    /// `(0, 1)` there); `None` when no spectral preprocessing is available,
    /// which disables the gap rule and falls back to node count.
    pub lambda: Option<f64>,
}

impl GraphSignals {
    /// Signals with node count only — the spectral rule is skipped.
    pub fn of_nodes(nodes: usize) -> GraphSignals {
        GraphSignals {
            nodes,
            lambda: None,
        }
    }

    /// Attaches the spectral radius λ from a preprocessed context.
    #[must_use]
    pub fn with_lambda(mut self, lambda: f64) -> GraphSignals {
        self.lambda = Some(lambda);
        self
    }

    /// Whether the graph mixes slowly under the given gap threshold:
    /// `1 − λ < gap_threshold`. Unknown λ is never considered slow (the
    /// planner then falls back to node count alone).
    pub fn is_slow_mixing(&self, gap_threshold: f64) -> bool {
        self.lambda
            .map(|lambda| 1.0 - lambda < gap_threshold)
            .unwrap_or(false)
    }
}

/// What the planner can observe about the service when routing (planning is
/// stateful: an already-built index changes the cheapest choice).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PlannerState {
    /// Whether the service has already paid for its [`ErIndex`] tier
    /// (diagonal + column cache), making index answers marginally free.
    ///
    /// [`ErIndex`]: er_index::ErIndex
    pub index_ready: bool,
}

/// The planner's tunable thresholds.
///
/// The defaults are calibrated from the `planner_calibration` sweep
/// (`cargo run --release -p er-bench --bin planner_calibration`) and a
/// spectral probe over the generator families: social-network-like and
/// Barabási–Albert graphs sit at a gap of ≈ 0.38–0.46 across sizes, while
/// Watts–Strogatz small-world rings sit at ≈ 0.02–0.03 — a
/// `lambda_gap_threshold` of 0.1 separates the families cleanly. With the
/// spectral rule carrying the slow-mixing cases, the node-count fallback
/// drops to 256: below that size CG undercuts sampling on every family the
/// sweep covers, while fast-mixing graphs above it flip to GEER.
///
/// ```
/// use er_service::{Planner, PlannerConfig};
///
/// let config = PlannerConfig::default()
///     .with_exact_node_threshold(2048)
///     .with_repeated_source_threshold(8)
///     .with_lambda_gap_threshold(0.05);
/// let planner = Planner::new(config);
/// assert_eq!(planner.config().exact_node_threshold, 2048);
/// ```
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct PlannerConfig {
    /// At or below this many nodes, a CG solve per query is cheaper than any
    /// sampling scheme, so ε-accuracy requests are answered exactly. This is
    /// the *fallback* size signal; the spectral-gap rule below dominates it
    /// when λ is known.
    pub exact_node_threshold: usize,
    /// A batch whose most frequent endpoint appears in at least this many
    /// distinct pairs counts as a repeated-source workload.
    pub repeated_source_threshold: usize,
    /// Spectral gaps `1 − λ` strictly below this mark the graph slow-mixing:
    /// ε pair/batch queries are answered exactly (EXACT-CG/INDEX) no matter
    /// the node count, because the refined walk length — and with it GEER's
    /// whole sampling budget — scales like `1/gap`.
    pub lambda_gap_threshold: f64,
}

impl Default for PlannerConfig {
    fn default() -> Self {
        PlannerConfig {
            exact_node_threshold: 256,
            repeated_source_threshold: 16,
            lambda_gap_threshold: 0.1,
        }
    }
}

impl PlannerConfig {
    /// Sets the node count at or below which ε requests are answered exactly.
    #[must_use]
    pub fn with_exact_node_threshold(mut self, nodes: usize) -> Self {
        self.exact_node_threshold = nodes;
        self
    }

    /// Sets the repeated-source batch threshold.
    #[must_use]
    pub fn with_repeated_source_threshold(mut self, count: usize) -> Self {
        self.repeated_source_threshold = count.max(1);
        self
    }

    /// Sets the spectral-gap threshold below which ε requests are answered
    /// exactly. `0.0` disables the spectral rule (no gap is below it).
    #[must_use]
    pub fn with_lambda_gap_threshold(mut self, gap: f64) -> Self {
        self.lambda_gap_threshold = gap;
        self
    }
}

/// The routing policy: a pure function of a [`PlannerConfig`].
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct Planner {
    config: PlannerConfig,
}

impl Planner {
    /// A planner with explicit thresholds.
    pub fn new(config: PlannerConfig) -> Planner {
        Planner { config }
    }

    /// The thresholds in force.
    pub fn config(&self) -> PlannerConfig {
        self.config
    }
    /// Routes a query to the cheapest capable backend under the given
    /// accuracy target and graph signals.
    ///
    /// The decision is a pure function of its arguments, so the routing
    /// table is unit-testable without building a service.
    pub fn route(
        &self,
        query: &Query,
        accuracy: Accuracy,
        signals: GraphSignals,
        state: PlannerState,
    ) -> BackendChoice {
        let n = signals.nodes;
        match query.shape() {
            QueryShape::SingleSource | QueryShape::Diagonal | QueryShape::TopK => {
                BackendChoice::Index
            }
            shape @ (QueryShape::Pair | QueryShape::Batch | QueryShape::EdgeSet) => {
                let repeated_source =
                    dominant_source_count(&query.pairs()) >= self.config.repeated_source_threshold;
                match accuracy {
                    Accuracy::Exact => {
                        // The index is only worth *building* (n diagonal
                        // solves) on small graphs; on large graphs it is used
                        // when already paid for, and EXACT-CG (one solve per
                        // pair) wins otherwise.
                        if state.index_ready
                            || (repeated_source && n <= self.config.exact_node_threshold)
                        {
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
                        let exact_tier = n <= self.config.exact_node_threshold
                            || (shape != QueryShape::EdgeSet
                                && signals.is_slow_mixing(self.config.lambda_gap_threshold));
                        if state.index_ready && repeated_source {
                            BackendChoice::Index
                        } else if exact_tier {
                            // Building the index (n diagonal solves) for one
                            // batch only pays on small graphs; a slow-mixing
                            // *large* repeated-source batch takes per-pair CG.
                            if repeated_source && n <= self.config.exact_node_threshold {
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
}

/// The number of distinct (unordered, non-self) pairs in which the most
/// frequent endpoint participates — the planner's repeated-source signal.
pub fn dominant_source_count(pairs: &[(NodeId, NodeId)]) -> usize {
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

    fn planner() -> Planner {
        Planner::default()
    }

    #[test]
    fn source_shapes_always_go_to_the_index() {
        let p = planner();
        for accuracy in [
            Accuracy::default(),
            Accuracy::Exact,
            Accuracy::WalkBudget(10),
        ] {
            for query in [Query::single_source(0), Query::Diagonal, Query::top_k(0, 5)] {
                assert_eq!(
                    p.route(
                        &query,
                        accuracy,
                        GraphSignals::of_nodes(1_000_000),
                        PlannerState::default()
                    ),
                    BackendChoice::Index,
                    "{query:?} under {accuracy:?}"
                );
            }
        }
    }

    #[test]
    fn small_graphs_are_answered_exactly_even_for_epsilon_requests() {
        let p = planner();
        let q = Query::pair(0, 1);
        assert_eq!(
            p.route(
                &q,
                Accuracy::default(),
                GraphSignals::of_nodes(200),
                PlannerState::default()
            ),
            BackendChoice::ExactCg
        );
        assert_eq!(
            p.route(
                &q,
                Accuracy::default(),
                GraphSignals::of_nodes(100_000),
                PlannerState::default()
            ),
            BackendChoice::Geer,
            "above the threshold, without spectral signals, sampling wins"
        );
    }

    #[test]
    fn spectral_gap_routes_slow_mixing_graphs_to_the_exact_tier() {
        let p = planner();
        let q = Query::pair(0, 1);
        // A small-world-like λ (gap ≈ 0.03, below the 0.1 default): exact
        // even though the graph is far above the node-count threshold.
        let slow = GraphSignals::of_nodes(100_000).with_lambda(0.97);
        assert_eq!(
            p.route(&q, Accuracy::default(), slow, PlannerState::default()),
            BackendChoice::ExactCg
        );
        // A social/BA-like λ (gap ≈ 0.4): GEER.
        let fast = GraphSignals::of_nodes(100_000).with_lambda(0.6);
        assert_eq!(
            p.route(&q, Accuracy::default(), fast, PlannerState::default()),
            BackendChoice::Geer
        );
        // The rule only applies to ε targets and pair/batch shapes: edge
        // sets keep HAY, budget requests keep GEER, exact requests were
        // already exact.
        let edges = Query::edge_set(vec![(0, 1)]);
        assert_eq!(
            p.route(&edges, Accuracy::default(), slow, PlannerState::default()),
            BackendChoice::Hay
        );
        assert_eq!(
            p.route(&q, Accuracy::WalkBudget(100), slow, PlannerState::default()),
            BackendChoice::Geer
        );
        // Slow-mixing large repeated-source batch: per-pair CG, not an
        // index build (n solves), unless the index already exists.
        let batch = Query::batch((1..40).map(|t| (0usize, t)).collect());
        assert_eq!(
            p.route(&batch, Accuracy::default(), slow, PlannerState::default()),
            BackendChoice::ExactCg
        );
        assert_eq!(
            p.route(
                &batch,
                Accuracy::default(),
                slow,
                PlannerState { index_ready: true }
            ),
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
        assert!(ba.spectral_gap() > 0.1, "BA gap {}", ba.spectral_gap());
        assert!(ws.spectral_gap() < 0.1, "WS gap {}", ws.spectral_gap());
        let q = Query::pair(0, 1);
        let nodes = 100_000; // well past the node-count fallback
        let ba_signals = GraphSignals::of_nodes(nodes).with_lambda(ba.lambda());
        let ws_signals = GraphSignals::of_nodes(nodes).with_lambda(ws.lambda());
        // Default threshold 0.1 separates the families.
        let p = planner();
        assert_eq!(
            p.route(&q, Accuracy::default(), ba_signals, PlannerState::default()),
            BackendChoice::Geer
        );
        assert_eq!(
            p.route(&q, Accuracy::default(), ws_signals, PlannerState::default()),
            BackendChoice::ExactCg
        );
        // Crossing upward: a threshold above the BA gap pulls BA into the
        // exact tier too.
        let strict = Planner::new(PlannerConfig::default().with_lambda_gap_threshold(0.9));
        assert_eq!(
            strict.route(&q, Accuracy::default(), ba_signals, PlannerState::default()),
            BackendChoice::ExactCg
        );
        // Crossing downward: a threshold below the WS gap (or 0, disabling
        // the rule) releases WS to GEER.
        let lax = Planner::new(PlannerConfig::default().with_lambda_gap_threshold(0.01));
        assert_eq!(
            lax.route(&q, Accuracy::default(), ws_signals, PlannerState::default()),
            BackendChoice::Geer
        );
        let off = Planner::new(PlannerConfig::default().with_lambda_gap_threshold(0.0));
        assert_eq!(
            off.route(&q, Accuracy::default(), ws_signals, PlannerState::default()),
            BackendChoice::Geer
        );
    }

    #[test]
    fn edge_sets_route_to_hay_and_budgets_to_geer() {
        let p = planner();
        let big = GraphSignals::of_nodes(100_000);
        let edges = Query::edge_set(vec![(0, 1), (1, 2)]);
        assert_eq!(
            p.route(&edges, Accuracy::default(), big, PlannerState::default()),
            BackendChoice::Hay
        );
        assert_eq!(
            p.route(
                &edges,
                Accuracy::WalkBudget(100),
                big,
                PlannerState::default()
            ),
            BackendChoice::Hay
        );
        for query in [Query::pair(0, 9), Query::batch(vec![(0, 9), (3, 4)])] {
            for nodes in [100, 100_000] {
                assert_eq!(
                    p.route(
                        &query,
                        Accuracy::WalkBudget(100),
                        GraphSignals::of_nodes(nodes),
                        PlannerState::default()
                    ),
                    BackendChoice::Geer,
                    "{query:?} on {nodes} nodes"
                );
            }
        }
    }

    #[test]
    fn repeated_source_batches_prefer_the_index() {
        let p = planner();
        let pairs: Vec<_> = (1..40).map(|t| (0usize, t)).collect();
        let batch = Query::batch(pairs);
        // Small graph: the index is worth building outright.
        assert_eq!(
            p.route(
                &batch,
                Accuracy::default(),
                GraphSignals::of_nodes(200),
                PlannerState::default()
            ),
            BackendChoice::Index
        );
        // Large graph, index not built: GEER (building a full diagonal for
        // one batch would be n solves).
        assert_eq!(
            p.route(
                &batch,
                Accuracy::default(),
                GraphSignals::of_nodes(100_000),
                PlannerState::default()
            ),
            BackendChoice::Geer
        );
        // Large graph, index already paid for: re-use it.
        assert_eq!(
            p.route(
                &batch,
                Accuracy::default(),
                GraphSignals::of_nodes(100_000),
                PlannerState { index_ready: true }
            ),
            BackendChoice::Index
        );
    }

    #[test]
    fn exact_accuracy_routes_to_cg_or_index() {
        let p = planner();
        let q = Query::pair(0, 1);
        let big = GraphSignals::of_nodes(100_000);
        assert_eq!(
            p.route(&q, Accuracy::Exact, big, PlannerState::default()),
            BackendChoice::ExactCg
        );
        assert_eq!(
            p.route(&q, Accuracy::Exact, big, PlannerState { index_ready: true }),
            BackendChoice::Index
        );
        // A repeated-source exact batch justifies *building* the index only
        // on small graphs: on a large graph without an index, per-pair CG
        // (16 solves) beats the n-solve diagonal build.
        let batch = Query::batch((1..40).map(|t| (0usize, t)).collect());
        assert_eq!(
            p.route(
                &batch,
                Accuracy::Exact,
                GraphSignals::of_nodes(200),
                PlannerState::default()
            ),
            BackendChoice::Index
        );
        assert_eq!(
            p.route(&batch, Accuracy::Exact, big, PlannerState::default()),
            BackendChoice::ExactCg
        );
        assert_eq!(
            p.route(
                &batch,
                Accuracy::Exact,
                big,
                PlannerState { index_ready: true }
            ),
            BackendChoice::Index
        );
    }

    #[test]
    fn planner_config_thresholds_steer_routing() {
        // Raising the exact-node threshold pulls a mid-sized graph back into
        // the exact tier; lowering it pushes a small graph to sampling.
        let q = Query::pair(0, 1);
        let eager = Planner::new(PlannerConfig::default().with_exact_node_threshold(100_000));
        assert_eq!(
            eager.route(
                &q,
                Accuracy::default(),
                GraphSignals::of_nodes(50_000),
                PlannerState::default()
            ),
            BackendChoice::ExactCg
        );
        let lazy = Planner::new(PlannerConfig::default().with_exact_node_threshold(10));
        assert_eq!(
            lazy.route(
                &q,
                Accuracy::default(),
                GraphSignals::of_nodes(500),
                PlannerState::default()
            ),
            BackendChoice::Geer
        );
        // A lower repeated-source threshold routes smaller one-source batches
        // to the index.
        let batch = Query::batch((1..5).map(|t| (0usize, t)).collect());
        let keen = Planner::new(PlannerConfig::default().with_repeated_source_threshold(4));
        assert_eq!(
            keen.route(
                &batch,
                Accuracy::default(),
                GraphSignals::of_nodes(100_000),
                PlannerState { index_ready: true }
            ),
            BackendChoice::Index
        );
        assert_eq!(
            Planner::default().route(
                &batch,
                Accuracy::default(),
                GraphSignals::of_nodes(100_000),
                PlannerState { index_ready: true }
            ),
            BackendChoice::Geer,
            "default threshold (16) leaves a 4-pair batch with GEER"
        );
        // The threshold floor: 0 is clamped to 1.
        assert_eq!(
            PlannerConfig::default()
                .with_repeated_source_threshold(0)
                .repeated_source_threshold,
            1
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
            BackendChoice::Tp,
            BackendChoice::Tpc,
            BackendChoice::Rp,
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
        // The landmark bounds and MC are not served: they miss ε.
        assert_eq!(BackendChoice::parse("landmark"), None);
        assert_eq!(BackendChoice::parse("mc"), None);
    }
}
