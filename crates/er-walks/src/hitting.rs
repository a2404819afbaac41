//! First-hit and escape-probability walks (the MC and MC2 baselines).
//!
//! Two layers live here:
//!
//! * Single-walk reference functions ([`escape_walk`], [`first_hit_walk`])
//!   that step one walk at a time — the executable specification the batch
//!   layer is tested against, and still the right tool for one-off trials.
//! * Lane-batched bulk trials ([`escape_trials`], [`first_hit_trials`]) that
//!   run whole trial budgets on the zero-allocation kernel's variable-length
//!   lockstep driver
//!   ([`WalkKernel::batch_until`](crate::kernel::WalkKernel::batch_until)):
//!   every lane carries its own termination predicate and retired lanes are
//!   refilled immediately, so the dependent cache-miss chains of concurrent
//!   walks overlap from the first trial to the last. Trial `i` draws from
//!   stream `(seed, i)` with exactly the draw schedule of the single-walk
//!   functions, so the MC and MC2 estimators produced bit-identical values
//!   when they moved onto this path; the `threads` fan-out uses
//!   [`par::par_fold_ranges`] with commutative integer tallies, so results
//!   are also bit-identical at any thread count.

use crate::kernel::WalkKernel;
use crate::par;
use er_graph::{Graph, NodeId};
use rand::Rng;

/// Outcome of an escape-probability walk used by the MC baseline.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum EscapeOutcome {
    /// The walk reached the target `t` before returning to the source `s`.
    ReachedTarget {
        /// Number of steps taken.
        steps: usize,
    },
    /// The walk returned to `s` before reaching `t`.
    ReturnedToSource {
        /// Number of steps taken.
        steps: usize,
    },
    /// The step cap was hit before either event (reported so callers can
    /// account for truncation instead of silently mislabelling the walk).
    Truncated,
}

/// Runs one escape-probability trial for the MC estimator: start at `s`, take
/// simple random-walk steps, and stop on the first return to `s` or the first
/// visit to `t`.
///
/// The escape probability `Pr[hit t before returning to s]` equals
/// `1 / (d(s) · r(s, t))`, which is the identity the MC baseline inverts.
/// `max_steps` guards against pathologically long excursions (the paper's MC
/// has no cap and its worst-case time reflects that; the cap only matters for
/// adversarial inputs and is reported via [`EscapeOutcome::Truncated`]).
pub fn escape_walk<R: Rng + ?Sized>(
    graph: &Graph,
    s: NodeId,
    t: NodeId,
    max_steps: usize,
    rng: &mut R,
) -> EscapeOutcome {
    debug_assert_ne!(s, t);
    let mut current = s;
    for step in 1..=max_steps {
        current = match graph.random_neighbor(current, rng) {
            Some(next) => next,
            None => return EscapeOutcome::Truncated,
        };
        if current == t {
            return EscapeOutcome::ReachedTarget { steps: step };
        }
        if current == s {
            return EscapeOutcome::ReturnedToSource { steps: step };
        }
    }
    EscapeOutcome::Truncated
}

/// Outcome tallies of a bulk escape-trial run ([`escape_trials`]).
///
/// Field-wise integer addition is the merge, so tallies are commutative and
/// the parallel fan-out is thread-count invariant.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct EscapeTally {
    /// Walks that reached `t` before returning to `s` (the "escapes").
    pub reached: u64,
    /// Walks that returned to `s` first.
    pub returned: u64,
    /// Walks that hit the step cap (or an isolated node) undecided.
    pub truncated: u64,
    /// Total steps charged: actual steps for decided walks, `max_steps` for
    /// truncated ones — the accounting the MC estimator has always used.
    pub steps: u64,
}

impl EscapeTally {
    /// Total number of trials tallied.
    pub fn trials(&self) -> u64 {
        self.reached + self.returned + self.truncated
    }

    fn merge(&mut self, other: EscapeTally) {
        self.reached += other.reached;
        self.returned += other.returned;
        self.truncated += other.truncated;
        self.steps += other.steps;
    }
}

/// Runs `trials` escape-probability trials for the pair `(s, t)` on the
/// lane-batched kernel, fanned out over `threads` workers (0 = all cores).
///
/// Trial `i` draws from RNG stream `(seed, i)` with exactly the draw
/// schedule of [`escape_walk`], so the tally is a pure function of
/// `(graph, s, t, max_steps, trials, seed)` — bit-identical at any thread
/// count.
pub fn escape_trials(
    graph: &Graph,
    s: NodeId,
    t: NodeId,
    max_steps: usize,
    trials: u64,
    seed: u64,
    threads: usize,
) -> EscapeTally {
    debug_assert_ne!(s, t);
    let kernel = WalkKernel::new(graph);
    par::par_fold_ranges(
        trials,
        threads,
        EscapeTally::default,
        |range, tally: &mut EscapeTally| {
            kernel.batch_until(
                s,
                max_steps,
                seed,
                range,
                &|_prev, next, _steps| {
                    if next == t {
                        Some(true)
                    } else if next == s {
                        Some(false)
                    } else {
                        None
                    }
                },
                &mut |_, verdict, steps| match verdict {
                    Some(true) => {
                        tally.reached += 1;
                        tally.steps += steps;
                    }
                    Some(false) => {
                        tally.returned += 1;
                        tally.steps += steps;
                    }
                    None => {
                        tally.truncated += 1;
                        tally.steps += max_steps as u64;
                    }
                },
            );
        },
        |total, part| total.merge(part),
    )
}

/// Outcome of a first-hit walk used by the MC2 baseline.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FirstHitOutcome {
    /// The walk reached `t`; `via_direct_edge` records whether the final step
    /// used the edge `(s, t)` itself (i.e. the walk was at `s` and stepped to
    /// `t`), which is the event whose probability equals `r(s, t)` for
    /// `(s, t) ∈ E`.
    Hit {
        /// Whether the arriving step traversed the query edge `(s, t)`.
        via_direct_edge: bool,
        /// Number of steps taken.
        steps: usize,
    },
    /// The step cap was reached before hitting `t`.
    Truncated,
}

/// Runs one first-hit trial for the MC2 estimator: walk from `s` until the
/// first visit to `t` and report whether the arriving step used edge `(s, t)`.
pub fn first_hit_walk<R: Rng + ?Sized>(
    graph: &Graph,
    s: NodeId,
    t: NodeId,
    max_steps: usize,
    rng: &mut R,
) -> FirstHitOutcome {
    debug_assert_ne!(s, t);
    let mut current = s;
    for step in 1..=max_steps {
        let next = match graph.random_neighbor(current, rng) {
            Some(next) => next,
            None => return FirstHitOutcome::Truncated,
        };
        if next == t {
            return FirstHitOutcome::Hit {
                via_direct_edge: current == s,
                steps: step,
            };
        }
        current = next;
    }
    FirstHitOutcome::Truncated
}

/// Outcome tallies of a bulk first-hit run ([`first_hit_trials`]).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FirstHitTally {
    /// Walks whose first visit to `t` arrived over the edge `(s, t)` itself.
    pub via_edge: u64,
    /// Walks that hit `t` by any other arriving step.
    pub indirect: u64,
    /// Walks that hit the step cap (or an isolated node) before reaching `t`.
    pub truncated: u64,
    /// Total steps charged: actual steps for hits, `max_steps` for truncated
    /// walks.
    pub steps: u64,
}

impl FirstHitTally {
    /// Total number of trials tallied.
    pub fn trials(&self) -> u64 {
        self.via_edge + self.indirect + self.truncated
    }

    fn merge(&mut self, other: FirstHitTally) {
        self.via_edge += other.via_edge;
        self.indirect += other.indirect;
        self.truncated += other.truncated;
        self.steps += other.steps;
    }
}

/// Runs `trials` first-hit trials for the pair `(s, t)` on the lane-batched
/// kernel, fanned out over `threads` workers (0 = all cores). Same
/// determinism contract as [`escape_trials`]; per-trial draw schedule is
/// exactly [`first_hit_walk`]'s.
pub fn first_hit_trials(
    graph: &Graph,
    s: NodeId,
    t: NodeId,
    max_steps: usize,
    trials: u64,
    seed: u64,
    threads: usize,
) -> FirstHitTally {
    debug_assert_ne!(s, t);
    let kernel = WalkKernel::new(graph);
    par::par_fold_ranges(
        trials,
        threads,
        FirstHitTally::default,
        |range, tally: &mut FirstHitTally| {
            kernel.batch_until(
                s,
                max_steps,
                seed,
                range,
                &|prev, next, _steps| (next == t).then_some(prev == s),
                &mut |_, verdict, steps| match verdict {
                    Some(true) => {
                        tally.via_edge += 1;
                        tally.steps += steps;
                    }
                    Some(false) => {
                        tally.indirect += 1;
                        tally.steps += steps;
                    }
                    None => {
                        tally.truncated += 1;
                        tally.steps += max_steps as u64;
                    }
                },
            );
        },
        |total, part| total.merge(part),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use er_graph::generators;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn escape_walk_terminates_with_named_outcome() {
        let g = generators::social_network_like(100, 8.0, 2).unwrap();
        let mut rng = StdRng::seed_from_u64(3);
        let mut reached = 0;
        let mut returned = 0;
        for _ in 0..200 {
            match escape_walk(&g, 0, 50, 100_000, &mut rng) {
                EscapeOutcome::ReachedTarget { steps } => {
                    assert!(steps >= 1);
                    reached += 1;
                }
                EscapeOutcome::ReturnedToSource { steps } => {
                    assert!(steps >= 2, "a return needs at least two steps");
                    returned += 1;
                }
                EscapeOutcome::Truncated => panic!("cap should not be hit on this graph"),
            }
        }
        assert!(reached > 0 && returned > 0);
    }

    #[test]
    fn escape_probability_matches_er_on_path_endpoints() {
        // On a 2-node path (single edge), r(0, 1) = 1 and d(0) = 1, so the
        // escape probability must be exactly 1: the first step always hits t.
        let g = generators::path(2).unwrap();
        let mut rng = StdRng::seed_from_u64(1);
        for _ in 0..50 {
            assert!(matches!(
                escape_walk(&g, 0, 1, 10, &mut rng),
                EscapeOutcome::ReachedTarget { steps: 1 }
            ));
        }
        // The bulk tally agrees: every trial escapes in one step.
        let tally = escape_trials(&g, 0, 1, 10, 500, 7, 1);
        assert_eq!(tally.reached, 500);
        assert_eq!(tally.returned + tally.truncated, 0);
        assert_eq!(tally.steps, 500);
    }

    #[test]
    fn escape_probability_on_triangle() {
        // Triangle: r(s, t) = 2/3, d(s) = 2, escape prob = 1/(d(s) r) = 3/4.
        let g = generators::complete(3).unwrap();
        let trials = 40_000;
        let tally = escape_trials(&g, 0, 1, 10_000, trials, 11, 1);
        assert_eq!(tally.trials(), trials);
        assert_eq!(tally.truncated, 0);
        let p = tally.reached as f64 / trials as f64;
        assert!((p - 0.75).abs() < 0.01, "escape probability {p}");
    }

    #[test]
    fn first_hit_via_edge_probability_on_triangle() {
        // For an edge (s, t) of the triangle, r(s, t) = 2/3 equals the
        // probability the first visit to t arrives over the edge (s, t).
        let g = generators::complete(3).unwrap();
        let trials = 40_000;
        let tally = first_hit_trials(&g, 0, 1, 10_000, trials, 13, 1);
        assert_eq!(tally.trials(), trials);
        assert_eq!(tally.truncated, 0);
        let p = tally.via_edge as f64 / trials as f64;
        assert!(
            (p - 2.0 / 3.0).abs() < 0.01,
            "first-hit-via-edge probability {p}"
        );
    }

    #[test]
    fn bulk_trials_match_single_walk_outcomes_stream_for_stream() {
        // The bulk tallies must equal running the single-walk reference on
        // each trial's stream — the lanes only overlap memory accesses.
        let g = generators::social_network_like(150, 7.0, 4).unwrap();
        let (s, t, max_steps, seed) = (0, 75, 400, 0x5eed);
        for trials in [1u64, 5, 16, 61, 200] {
            let bulk = escape_trials(&g, s, t, max_steps, trials, seed, 1);
            let mut reference = EscapeTally::default();
            for i in 0..trials {
                let mut rng = crate::par::stream_rng(seed, i);
                match escape_walk(&g, s, t, max_steps, &mut rng) {
                    EscapeOutcome::ReachedTarget { steps } => {
                        reference.reached += 1;
                        reference.steps += steps as u64;
                    }
                    EscapeOutcome::ReturnedToSource { steps } => {
                        reference.returned += 1;
                        reference.steps += steps as u64;
                    }
                    EscapeOutcome::Truncated => {
                        reference.truncated += 1;
                        reference.steps += max_steps as u64;
                    }
                }
            }
            assert_eq!(bulk, reference, "{trials} escape trials");

            let bulk = first_hit_trials(&g, s, t, max_steps, trials, seed, 1);
            let mut reference = FirstHitTally::default();
            for i in 0..trials {
                let mut rng = crate::par::stream_rng(seed, i);
                match first_hit_walk(&g, s, t, max_steps, &mut rng) {
                    FirstHitOutcome::Hit {
                        via_direct_edge,
                        steps,
                    } => {
                        if via_direct_edge {
                            reference.via_edge += 1;
                        } else {
                            reference.indirect += 1;
                        }
                        reference.steps += steps as u64;
                    }
                    FirstHitOutcome::Truncated => {
                        reference.truncated += 1;
                        reference.steps += max_steps as u64;
                    }
                }
            }
            assert_eq!(bulk, reference, "{trials} first-hit trials");
        }
    }

    #[test]
    fn bulk_trials_are_thread_count_invariant() {
        let g = generators::social_network_like(200, 8.0, 9).unwrap();
        let base = escape_trials(&g, 0, 100, 10_000, 5_000, 42, 1);
        let base_hit = first_hit_trials(&g, 0, 100, 10_000, 3_000, 42, 1);
        for threads in [2, 8] {
            assert_eq!(base, escape_trials(&g, 0, 100, 10_000, 5_000, 42, threads));
            assert_eq!(
                base_hit,
                first_hit_trials(&g, 0, 100, 10_000, 3_000, 42, threads)
            );
        }
    }

    #[test]
    fn truncation_is_reported() {
        let g = generators::path(50).unwrap();
        let mut rng = StdRng::seed_from_u64(5);
        // 1-step cap cannot reach node 49 from node 0
        assert_eq!(
            escape_walk(&g, 0, 49, 1, &mut rng),
            EscapeOutcome::Truncated
        );
        assert_eq!(
            first_hit_walk(&g, 0, 49, 1, &mut rng),
            FirstHitOutcome::Truncated
        );
        let tally = escape_trials(&g, 0, 49, 1, 100, 5, 1);
        assert_eq!(tally.truncated, 100);
        assert_eq!(tally.steps, 100, "truncated walks charge max_steps each");
    }
}
