//! Deterministic parallel execution of indexed sampling tasks.
//!
//! Every Monte Carlo loop in the workspace has the same shape: run `n`
//! independent sampling tasks (walk pairs, escape trials, spanning trees,
//! per-edge queries) and fold their results into an accumulator. This module
//! fans those loops out over a pool of scoped threads while keeping the output
//! **bit-identical for a fixed seed at any thread count**, including one:
//!
//! * Task `i` draws its randomness from a private RNG stream derived by a
//!   SplitMix64 mix of `(seed, i)` ([`stream_rng`], a
//!   [`crate::kernel::StreamRng`] from the walk kernel), so no
//!   task's randomness depends on which thread runs it or on how many tasks
//!   ran before it.
//! * Tasks are grouped into fixed-size chunks ([`CHUNK`]) whose boundaries
//!   depend only on `n`, never on the thread count. Each chunk folds its tasks
//!   in index order; chunk results are then merged in chunk order on the
//!   calling thread. Floating-point accumulation order is therefore a pure
//!   function of `(n, seed)`.
//!
//! The thread pool is a simple atomic work queue over `std::thread::scope`
//! (the build environment has no crates.io access, so `rayon` is unavailable;
//! scoped threads also let tasks borrow the graph directly). Workers steal
//! whole chunks, so load imbalance is bounded by one chunk per worker.

use crate::kernel::StreamRng;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};

/// Thread-count value meaning "use all available cores".
pub const AUTO: usize = 0;

/// Number of indexed tasks per chunk. Fixed (never derived from the thread
/// count) so the merge tree — and hence every floating-point sum — is
/// identical at any parallelism level.
pub const CHUNK: u64 = 1024;

/// The machine's available parallelism, resolved once per process.
///
/// `std::thread::available_parallelism` can hit the filesystem (cgroup
/// limits) on every call, and [`resolve_threads`] sits in per-query loops, so
/// the lookup is cached behind a `OnceLock`.
fn available_parallelism_cached() -> usize {
    static AVAILABLE: OnceLock<usize> = OnceLock::new();
    *AVAILABLE.get_or_init(|| {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    })
}

/// Resolves a `threads` knob: [`AUTO`] (0) becomes the number of available
/// cores; explicit values are clamped to a sane ceiling (8× the available
/// cores, at least 64) so a wild `--threads` value cannot exhaust the
/// process thread limit — `std::thread::Scope::spawn` panics on spawn
/// failure, and oversubscription past this point only adds overhead anyway.
/// Results never depend on the resolved count, so clamping is safe.
pub fn resolve_threads(threads: usize) -> usize {
    let available = available_parallelism_cached();
    if threads == AUTO {
        available
    } else {
        threads.min((8 * available).max(64))
    }
}

#[inline]
fn splitmix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Mixes a base seed with a stream index into a well-separated derived seed
/// (two SplitMix64 rounds; nearby `(seed, stream)` pairs map to statistically
/// independent values).
#[inline]
pub fn mix_seed(seed: u64, stream: u64) -> u64 {
    splitmix(seed ^ splitmix(stream))
}

/// The RNG stream of task `index` under `seed`: a
/// [`crate::kernel::StreamRng`] whose state is derived from
/// [`mix_seed`]`(seed, index)`. This is the single derivation rule every
/// parallel sampler in the workspace uses — and it is cheap enough (four
/// SplitMix64 rounds, 16 bytes of state, no heap) to call once per walk
/// inside the hot loop.
#[inline]
pub fn stream_rng(seed: u64, index: u64) -> StreamRng {
    StreamRng::new(seed, index)
}

/// Runs `n` indexed sampling tasks and folds their results deterministically.
///
/// Task `i` receives its own RNG ([`stream_rng`]`(seed, i)`) and a mutable
/// chunk accumulator created by `new_acc`. Chunk accumulators are merged into
/// one result in chunk order via `merge`. The output is a pure function of
/// `(n, seed, task)` — `threads` only changes wall-clock time.
pub fn par_fold_indexed<A, N, T, M>(
    n: u64,
    seed: u64,
    threads: usize,
    new_acc: N,
    task: T,
    merge: M,
) -> A
where
    A: Send,
    N: Fn() -> A + Sync,
    T: Fn(u64, &mut StreamRng, &mut A) + Sync,
    M: FnMut(&mut A, A),
{
    par_fold_ranges(
        n,
        threads,
        new_acc,
        |range, acc| {
            for i in range {
                let mut rng = stream_rng(seed, i);
                task(i, &mut rng, acc);
            }
        },
        merge,
    )
}

/// Runs a task over chunked index ranges and folds the per-chunk accumulators
/// in chunk order — the range-based backbone of [`par_fold_indexed`].
///
/// `task` receives each [`CHUNK`]-sized range exactly once (boundaries depend
/// only on `n`) and must process its indices in order, deriving any
/// randomness from the index alone; the batched
/// [`WalkKernel`](crate::kernel::WalkKernel) drivers — fixed-length
/// (`batch_endpoints`/`batch_visits`), variable-length (`batch_until`, which
/// refills retired lanes from the range) and paired (`batch_pairs`) — do
/// exactly that while keeping several walks of the range in flight at once.
/// Chunk results are merged in chunk order, so the output is a pure function
/// of `(n, task)` for index-ordered sinks; commutative tallies are pure in
/// `(n, task)` regardless of sink order.
pub fn par_fold_ranges<A, N, T, M>(n: u64, threads: usize, new_acc: N, task: T, mut merge: M) -> A
where
    A: Send,
    N: Fn() -> A + Sync,
    T: Fn(std::ops::Range<u64>, &mut A) + Sync,
    M: FnMut(&mut A, A),
{
    let mut total = new_acc();
    if n == 0 {
        return total;
    }
    let chunks = n.div_ceil(CHUNK);
    let run_chunk = |c: u64| {
        let mut acc = new_acc();
        task(c * CHUNK..((c + 1) * CHUNK).min(n), &mut acc);
        acc
    };

    let workers = resolve_threads(threads).min(chunks as usize);
    if workers <= 1 {
        for c in 0..chunks {
            merge(&mut total, run_chunk(c));
        }
        return total;
    }

    let next = AtomicU64::new(0);
    let results: Mutex<Vec<Option<A>>> = Mutex::new((0..chunks).map(|_| None).collect());
    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| loop {
                let c = next.fetch_add(1, Ordering::Relaxed);
                if c >= chunks {
                    break;
                }
                let acc = run_chunk(c);
                let mut slots = results.lock().unwrap_or_else(|e| e.into_inner());
                slots[c as usize] = Some(acc);
            });
        }
    });
    let slots = results.into_inner().unwrap_or_else(|e| e.into_inner());
    for acc in slots {
        merge(&mut total, acc.expect("scope joined every worker"));
    }
    total
}

/// Runs `n` indexed sampling tasks and collects their results in index order
/// (the `Vec`-producing counterpart of [`par_fold_indexed`]).
pub fn par_map_indexed<T, F>(n: u64, seed: u64, threads: usize, task: F) -> Vec<T>
where
    T: Send,
    F: Fn(u64, &mut StreamRng) -> T + Sync,
{
    par_fold_indexed(
        n,
        seed,
        threads,
        Vec::new,
        |i, rng, acc: &mut Vec<T>| acc.push(task(i, rng)),
        |total, part| total.extend(part),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::Rng;

    fn noisy_sum(n: u64, seed: u64, threads: usize) -> f64 {
        par_fold_indexed(
            n,
            seed,
            threads,
            || 0.0f64,
            |i, rng, acc| {
                // A value whose accumulation order matters in floating point.
                *acc += rng.gen::<f64>() * (1.0 + i as f64).ln();
            },
            |total, part| *total += part,
        )
    }

    #[test]
    fn identical_results_at_any_thread_count() {
        for n in [0u64, 1, 7, CHUNK, CHUNK + 1, 5 * CHUNK + 13] {
            let base = noisy_sum(n, 42, 1);
            for threads in [2, 3, 8] {
                let parallel = noisy_sum(n, 42, threads);
                assert_eq!(
                    base.to_bits(),
                    parallel.to_bits(),
                    "n={n} threads={threads}"
                );
            }
        }
    }

    #[test]
    fn different_seeds_give_different_results() {
        assert_ne!(noisy_sum(1000, 1, 4), noisy_sum(1000, 2, 4));
    }

    #[test]
    fn map_preserves_index_order() {
        let out = par_map_indexed(3 * CHUNK + 5, 7, 8, |i, _| i * 2);
        assert_eq!(out.len() as u64, 3 * CHUNK + 5);
        for (i, &v) in out.iter().enumerate() {
            assert_eq!(v, i as u64 * 2);
        }
    }

    #[test]
    fn streams_are_independent_of_task_count() {
        // The stream of index i must not depend on n: running more tasks
        // leaves earlier tasks' randomness unchanged.
        let a = par_map_indexed(10, 5, 2, |_, rng| rng.gen::<u64>());
        let b = par_map_indexed(2000, 5, 2, |_, rng| rng.gen::<u64>());
        assert_eq!(a[..10], b[..10]);
    }

    #[test]
    fn fold_ranges_covers_every_index_once_in_chunk_order() {
        let out = par_fold_ranges(
            2 * CHUNK + 17,
            8,
            Vec::new,
            |range, acc: &mut Vec<u64>| acc.extend(range),
            |total, part| total.extend(part),
        );
        assert_eq!(out, (0..2 * CHUNK + 17).collect::<Vec<_>>());
    }

    #[test]
    fn resolve_threads_auto_is_positive_and_wild_values_are_clamped() {
        assert!(resolve_threads(AUTO) >= 1);
        assert_eq!(resolve_threads(3), 3);
        let cores = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1);
        assert!(resolve_threads(usize::MAX) <= (8 * cores).max(64));
    }
}
