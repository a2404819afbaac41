//! Random-walk engine for effective-resistance estimation.
//!
//! Every Monte Carlo estimator in the paper is built from one of a handful of
//! walk primitives, which live here so `er-core` can stay focused on the
//! estimation logic:
//!
//! * [`truncated`] — fixed-length simple random walks: TP's per-length walk
//!   endpoints (AMC's walk pairs and TPC's half-length collision walks run on
//!   the kernel's batched drivers).
//! * [`hitting`] — first-hit and escape-probability walks (the MC and MC2
//!   baselines, which walk until they reach the target or return to the
//!   source), as single-walk references plus lane-batched bulk trials on
//!   the kernel's variable-length lockstep driver.
//! * [`spanning`] — uniform spanning-tree sampling with Wilson's algorithm
//!   (the HAY baseline: `r(e) = Pr[e ∈ UST]`), as a single-tree reference
//!   plus a multi-root lockstep driver that grows several trees at once with
//!   per-tree draw schedules preserved bit for bit.
//! * [`kernel`] — the zero-allocation walk kernel: per-walk
//!   [`kernel::StreamRng`] streams, division-free CSR stepping
//!   with [`kernel::LANES`]-wide lockstep batching, and reusable
//!   epoch-stamped sparse tallies ([`kernel::WalkScratch`] /
//!   [`kernel::ScratchPool`]).
//! * [`par`] — the deterministic parallel sampling layer: indexed fan-out of
//!   sampling tasks over scoped threads with per-task RNG streams derived from
//!   `(seed, index)`, bit-identical at any thread count.
//!
//! All primitives take an explicit `&mut impl Rng`, so estimators control
//! seeding and reproducibility end to end; the bulk operations additionally
//! accept a thread count and guarantee the result does not depend on it.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod engine;
pub mod hitting;
pub mod kernel;
pub mod par;
pub mod spanning;
pub mod truncated;

pub use engine::{EndpointHistogram, WalkEngine};
pub use hitting::{
    escape_trials, escape_walk, first_hit_trials, first_hit_walk, EscapeOutcome, EscapeTally,
    FirstHitOutcome, FirstHitTally,
};
pub use kernel::{ScratchPool, StreamRng, WalkKernel, WalkScratch};
pub use par::{
    mix_seed, par_fold_indexed, par_fold_ranges, par_map_indexed, resolve_threads, stream_rng,
};
pub use spanning::{sample_spanning_tree, sample_spanning_trees, SpanningTree};
pub use truncated::walk_endpoint;
