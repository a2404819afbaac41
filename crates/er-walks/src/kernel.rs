//! Zero-allocation walk kernel: the single hot loop every estimator bottoms
//! out in.
//!
//! Profiling after the parallel layer landed showed the per-walk *constant
//! factor* dominating bulk sampling: each walk built a full `StdRng` (six
//! SplitMix64 rounds into 32 bytes of state), every step re-sliced the
//! adjacency list and went through the `gen_range` trait machinery, and every
//! bulk tally zeroed an O(n) dense vector even though a length-ℓ walk touches
//! at most ℓ nodes. This module removes all three costs:
//!
//! * [`StreamRng`] — a 16-byte xoroshiro128++ stream initialised with four
//!   SplitMix64 rounds (no heap, no seed-array expansion). Stream `i` under a
//!   seed is a pure function of `(seed, i)`, so the parallel layer keeps its
//!   bit-identical-at-any-thread-count guarantee.
//! * [`WalkKernel`] — walk stepping directly over the borrowed CSR arrays:
//!   the row offset and degree are loaded once per step and the neighbour
//!   index comes from Lemire's widening-multiply bounded reduction
//!   (one 64×64→128 multiply, no division, no rejection loop). The batched
//!   drivers — fixed-length ([`WalkKernel::batch_endpoints`],
//!   [`WalkKernel::batch_visits`]), variable-length
//!   ([`WalkKernel::batch_until`]) and paired ([`WalkKernel::batch_pairs`]) —
//!   additionally run [`LANES`] independent walks in lockstep so the
//!   dependent cache-miss chains of concurrent walks overlap instead of
//!   serialising — random walking is latency-bound, not compute-bound.
//! * [`WalkScratch`] / [`ScratchPool`] — reusable epoch-stamped sparse
//!   tallies: bumping a node count is O(1), "resetting" is an epoch
//!   increment, and merging walks the touched-node list instead of a full
//!   O(n) vector. Workers borrow scratches from a shared pool, so steady-state
//!   bulk operations allocate nothing.
//!
//! [`par_tally`] and [`par_tally_sparse`] fan tally workloads out over chunked
//! index ranges exactly like [`crate::par`], with the same determinism
//! argument: per-walk RNG streams depend only on `(seed, walk index)`, chunk
//! boundaries depend only on the task count, and the merge is integer
//! addition, which is commutative and associative.

use crate::par;
use er_graph::{Graph, NodeId};
use rand::{splitmix64, RngCore};
use std::ops::Range;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// Lockstep lane width: how many independent walks each batched driver keeps
/// in flight at once, so their dependent cache-miss chains overlap.
///
/// One width serves every graph: measured single-threaded on a 2-vCPU VM,
/// neither 8 nor 32 lanes beat 16 outside run-to-run noise on CSRs from
/// 176 KB to 54 MB. Every driver is results-neutral in the width: per-walk
/// draws come from per-walk streams, and per-walk results are reported
/// either in index order or into commutative accumulators.
pub const LANES: usize = 16;

// The lockstep drivers track live lanes in the low bits of a u64 mask.
const _: () = assert!(LANES < 64, "lane masks are u64");

/// A 16-byte xoroshiro128++ generator, the RNG stream of one walk.
///
/// Construction is four SplitMix64 rounds from `(seed, stream)` — cheap
/// enough to build one per walk inside the hot loop. Implements
/// [`rand::RngCore`], so all higher-level sampling (`gen`, `gen_range`,
/// `SliceRandom`) works on it unchanged.
#[derive(Clone, Debug)]
pub struct StreamRng {
    s0: u64,
    s1: u64,
}

impl StreamRng {
    /// The RNG stream of task `stream` under `seed`; the single derivation
    /// rule every parallel sampler in the workspace uses.
    #[inline]
    pub fn new(seed: u64, stream: u64) -> Self {
        let mut sm = par::mix_seed(seed, stream);
        let s0 = splitmix64(&mut sm);
        let s1 = splitmix64(&mut sm);
        if s0 | s1 == 0 {
            // xoroshiro requires a non-zero state; SplitMix64 reaches the
            // all-zero pair with probability 2⁻¹²⁸, but stay total anyway.
            return StreamRng {
                s0: 0x9e37_79b9_7f4a_7c15,
                s1: 0,
            };
        }
        StreamRng { s0, s1 }
    }
}

impl RngCore for StreamRng {
    #[inline]
    fn next_u64(&mut self) -> u64 {
        let s0 = self.s0;
        let mut s1 = self.s1;
        let result = s0.wrapping_add(s1).rotate_left(17).wrapping_add(s0);
        s1 ^= s0;
        self.s0 = s0.rotate_left(49) ^ s1 ^ (s1 << 21);
        self.s1 = s1.rotate_left(28);
        result
    }
}

/// Maps a uniform 64-bit draw onto `[0, n)` by widening multiply (Lemire's
/// bounded reduction without the rejection step; the bias of ≤ n/2⁶⁴ is far
/// below statistical relevance for graph sampling, and matches what the
/// `rand` shim's `gen_range` does).
#[inline]
fn bounded(draw: u64, n: u64) -> u64 {
    ((draw as u128 * n as u128) >> 64) as u64
}

/// Borrowed view of a graph's CSR arrays with allocation-free walk stepping.
///
/// `Copy`, so closures can capture it by value and the optimiser sees two
/// loop-invariant slices instead of a `&Graph` indirection per step.
#[derive(Clone, Copy, Debug)]
pub struct WalkKernel<'g> {
    offsets: &'g [usize],
    neighbors: &'g [NodeId],
}

impl<'g> WalkKernel<'g> {
    /// Creates a kernel over `graph`'s CSR arrays.
    #[inline]
    pub fn new(graph: &'g Graph) -> Self {
        let (offsets, neighbors) = graph.csr();
        WalkKernel { offsets, neighbors }
    }

    /// Number of nodes in the underlying CSR (the offsets array has one
    /// entry per node plus a sentinel).
    pub fn num_nodes(&self) -> usize {
        self.offsets.len() - 1
    }

    /// One step of the simple random walk from `v`: a uniformly random
    /// neighbour, or `None` if `v` is isolated. Degree and row offset are
    /// loaded once; the neighbour index is a single widening multiply.
    #[inline]
    pub fn step<R: RngCore + ?Sized>(&self, v: NodeId, rng: &mut R) -> Option<NodeId> {
        let lo = self.offsets[v];
        let degree = self.offsets[v + 1] - lo;
        if degree == 0 {
            return None;
        }
        Some(self.neighbors[lo + bounded(rng.next_u64(), degree as u64) as usize])
    }

    /// Runs one length-`len` walk from `start`; returns the endpoint and the
    /// steps actually taken (fewer than `len` only if the walk reaches an
    /// isolated node).
    #[inline]
    pub fn endpoint<R: RngCore + ?Sized>(
        &self,
        start: NodeId,
        len: usize,
        rng: &mut R,
    ) -> (NodeId, u64) {
        let mut current = start;
        let mut steps = 0;
        for _ in 0..len {
            match self.step(current, rng) {
                Some(next) => {
                    current = next;
                    steps += 1;
                }
                None => break,
            }
        }
        (current, steps)
    }

    /// Runs one length-`len` walk from `start`, calling `visit` on each of
    /// the visited nodes (steps 1..=len; the start node is not visited).
    /// Returns the steps actually taken.
    #[inline]
    pub fn for_each_visit<R: RngCore + ?Sized>(
        &self,
        start: NodeId,
        len: usize,
        rng: &mut R,
        mut visit: impl FnMut(NodeId),
    ) -> u64 {
        let mut current = start;
        let mut steps = 0;
        for _ in 0..len {
            match self.step(current, rng) {
                Some(next) => {
                    current = next;
                    steps += 1;
                    visit(current);
                }
                None => break,
            }
        }
        steps
    }

    /// Runs the walks with indices `range` (RNG stream `(seed, i)` for walk
    /// `i`), a lane block at a time in lockstep, and reports each walk's
    /// endpoint and step count to `sink` **in index order**.
    ///
    /// Lockstep execution only reorders the memory accesses of independent
    /// walks, never the draws within one walk, so every walk's result is
    /// identical to running [`WalkKernel::endpoint`] on its own stream.
    pub fn batch_endpoints(
        &self,
        start: NodeId,
        len: usize,
        seed: u64,
        range: Range<u64>,
        sink: &mut impl FnMut(u64, NodeId, u64),
    ) {
        self.lockstep(start, len, seed, range, &mut |_| {}, sink)
    }

    /// Runs the walks with indices `range`, a lane block at a time in
    /// lockstep, calling `visit` on every visited node of every walk and
    /// returning the total steps taken.
    ///
    /// The order in which different walks' visits interleave depends on the
    /// lane layout, so `visit` must feed a commutative accumulator (node
    /// counts); each individual walk still visits its nodes in walk order.
    pub fn batch_visits(
        &self,
        start: NodeId,
        len: usize,
        seed: u64,
        range: Range<u64>,
        visit: &mut impl FnMut(NodeId),
    ) -> u64 {
        let mut total_steps = 0u64;
        self.lockstep(start, len, seed, range, visit, &mut |_, _, steps| {
            total_steps += steps
        });
        total_steps
    }

    /// Runs the **variable-length** walks with indices `range` in lockstep
    /// lanes, each walk stepping until `judge` returns a verdict or
    /// `max_steps` is reached; retired lanes are refilled from the pending
    /// range in the same round, so the memory-level parallelism never drains
    /// while work remains — unlike the fixed-length drivers, whose lanes all
    /// retire together.
    ///
    /// Each step draws one `u64` from the walk's own stream (`(seed, i)` for
    /// walk `i`) and moves to a uniformly random neighbour `next`; `judge`
    /// then sees `(previous, next, steps_taken)`. A `Some` verdict retires
    /// the walk; exhausting `max_steps` (or stranding on an isolated node)
    /// retires it with `None`. Every walk's draw sequence is identical to
    /// stepping it alone on its own stream, so porting a sequential
    /// walk-until loop onto this driver preserves its values bit for bit.
    ///
    /// `sink` receives `(index, verdict, steps)` once per walk in **retire
    /// order**, which depends on the refill schedule (a pure function of
    /// `(seed, range)`, not of thread count). Feed a commutative accumulator
    /// (outcome counts, step totals); the bulk escape/first-hit tallies do.
    pub fn batch_until<V, J>(
        &self,
        start: NodeId,
        max_steps: usize,
        seed: u64,
        range: Range<u64>,
        judge: &J,
        sink: &mut impl FnMut(u64, Option<V>, u64),
    ) where
        J: Fn(NodeId, NodeId, u64) -> Option<V>,
    {
        if max_steps == 0 {
            // Every walk truncates before its first step.
            for i in range {
                sink(i, None, 0);
            }
            return;
        }
        let mut next_index = range.start;
        let mut rngs: [StreamRng; LANES] = std::array::from_fn(|_| StreamRng::new(0, 0));
        let mut current = [start; LANES];
        let mut steps = [0u64; LANES];
        let mut index = [0u64; LANES];
        let mut alive: u64 = 0;
        for lane in 0..LANES {
            if next_index < range.end {
                rngs[lane] = StreamRng::new(seed, next_index);
                index[lane] = next_index;
                next_index += 1;
                alive |= 1 << lane;
            }
        }
        while alive != 0 {
            for lane in 0..LANES {
                if alive & (1 << lane) == 0 {
                    continue;
                }
                // `Some(verdict)` retires the lane this round.
                let retired = match self.step(current[lane], &mut rngs[lane]) {
                    Some(next) => {
                        steps[lane] += 1;
                        match judge(current[lane], next, steps[lane]) {
                            Some(v) => Some(Some(v)),
                            None => {
                                current[lane] = next;
                                if steps[lane] as usize >= max_steps {
                                    Some(None)
                                } else {
                                    None
                                }
                            }
                        }
                    }
                    None => Some(None),
                };
                if let Some(verdict) = retired {
                    sink(index[lane], verdict, steps[lane]);
                    if next_index < range.end {
                        rngs[lane] = StreamRng::new(seed, next_index);
                        index[lane] = next_index;
                        current[lane] = start;
                        steps[lane] = 0;
                        next_index += 1;
                    } else {
                        alive &= !(1 << lane);
                    }
                }
            }
        }
    }

    /// Runs the **walk pairs** with indices `range` in lockstep lanes: pair
    /// `i` draws from stream `(seed, i)` and runs a length-`len` walk from
    /// `s` followed by a length-`len` walk from `t` **on the same stream, in
    /// that order** — exactly the draw schedule of stepping the pair alone —
    /// while the s-walks (then t-walks) of a whole lane block advance
    /// together so their cache misses overlap.
    ///
    /// `visit_s` / `visit_t` fold each visited node into the pair's private
    /// accumulator in walk order (s-walk first), and `finish` receives
    /// `(index, accumulator, steps)` **in index order**, so floating-point
    /// accumulation per pair and across pairs is bit-identical to the
    /// sequential loop. This is AMC's walk-pair driver.
    #[allow(clippy::too_many_arguments)]
    pub fn batch_pairs<A, VS, VT>(
        &self,
        s: NodeId,
        t: NodeId,
        len: usize,
        seed: u64,
        range: Range<u64>,
        visit_s: &VS,
        visit_t: &VT,
        finish: &mut impl FnMut(u64, A, u64),
    ) where
        A: Default + Copy,
        VS: Fn(NodeId, &mut A),
        VT: Fn(NodeId, &mut A),
    {
        let mut i = range.start;
        while i < range.end {
            let block = ((range.end - i).min(LANES as u64)) as usize;
            // Streams beyond the block are never drawn from; building them
            // unconditionally keeps the array initialisation branch-free.
            let mut rngs: [StreamRng; LANES] =
                std::array::from_fn(|lane| StreamRng::new(seed, i + lane as u64));
            let mut acc = [A::default(); LANES];
            let mut steps = [0u64; LANES];
            // s-phase, then t-phase, each pair continuing on its own stream.
            self.pair_phase(s, len, block, &mut rngs, &mut acc, &mut steps, visit_s);
            self.pair_phase(t, len, block, &mut rngs, &mut acc, &mut steps, visit_t);
            for lane in 0..block {
                finish(i + lane as u64, acc[lane], steps[lane]);
            }
            i += block as u64;
        }
    }

    /// The fixed-length lockstep driver behind [`WalkKernel::batch_endpoints`]
    /// and [`WalkKernel::batch_visits`]: full blocks of [`LANES`] walks
    /// advance together (a dead lane — one that hit an isolated node — is
    /// dropped from the `alive` mask), the remainder runs sequentially.
    /// `on_step` fires for every visited node of every walk (lane-interleaved
    /// across walks, walk-ordered within one); `finish` fires once per walk
    /// with `(index, endpoint, steps)` **in index order**. Unused callbacks
    /// monomorphise away.
    #[inline]
    fn lockstep(
        &self,
        start: NodeId,
        len: usize,
        seed: u64,
        range: Range<u64>,
        on_step: &mut impl FnMut(NodeId),
        finish: &mut impl FnMut(u64, NodeId, u64),
    ) {
        let mut i = range.start;
        while i + LANES as u64 <= range.end {
            let mut rngs: [StreamRng; LANES] =
                std::array::from_fn(|lane| StreamRng::new(seed, i + lane as u64));
            let mut current = [start; LANES];
            let mut steps = [0u64; LANES];
            let mut alive: u64 = if len == 0 { 0 } else { (1 << LANES) - 1 };
            for _ in 0..len {
                if alive == 0 {
                    break;
                }
                for lane in 0..LANES {
                    if alive & (1 << lane) != 0 {
                        match self.step(current[lane], &mut rngs[lane]) {
                            Some(next) => {
                                current[lane] = next;
                                steps[lane] += 1;
                                on_step(next);
                            }
                            None => alive &= !(1 << lane),
                        }
                    }
                }
            }
            for lane in 0..LANES {
                finish(i + lane as u64, current[lane], steps[lane]);
            }
            i += LANES as u64;
        }
        for j in i..range.end {
            let mut rng = StreamRng::new(seed, j);
            let mut current = start;
            let mut steps = 0;
            while steps < len as u64 {
                match self.step(current, &mut rng) {
                    Some(next) => {
                        current = next;
                        steps += 1;
                        on_step(next);
                    }
                    None => break,
                }
            }
            finish(j, current, steps);
        }
    }

    /// One phase of [`WalkKernel::batch_pairs`]: the first `block` lanes
    /// walk `len` steps from `start` in lockstep, each continuing on its own
    /// stream and folding visits into its own accumulator; a lane hitting an
    /// isolated node goes dead for the rest of the phase.
    #[inline]
    #[allow(clippy::too_many_arguments)]
    fn pair_phase<A>(
        &self,
        start: NodeId,
        len: usize,
        block: usize,
        rngs: &mut [StreamRng; LANES],
        acc: &mut [A; LANES],
        steps: &mut [u64; LANES],
        visit: &impl Fn(NodeId, &mut A),
    ) {
        let mut current = [start; LANES];
        let mut alive: u64 = if len == 0 { 0 } else { (1 << block) - 1 };
        for _ in 0..len {
            if alive == 0 {
                break;
            }
            for lane in 0..block {
                if alive & (1 << lane) != 0 {
                    match self.step(current[lane], &mut rngs[lane]) {
                        Some(next) => {
                            current[lane] = next;
                            steps[lane] += 1;
                            visit(next, &mut acc[lane]);
                        }
                        None => alive &= !(1 << lane),
                    }
                }
            }
        }
    }
}

/// A reusable epoch-stamped sparse tally over ids `0..n`.
///
/// `counts[v]` is valid only while `stamps[v]` equals the current epoch, so
/// [`WalkScratch::begin`] "clears" the whole tally by incrementing one
/// counter — no O(n) zeroing. The touched-id list makes merging O(ids
/// actually hit) instead of O(n). When the 32-bit epoch wraps, the stamps are
/// bulk-reset once so a stale stamp can never collide with a future epoch.
#[derive(Clone, Debug)]
pub struct WalkScratch {
    counts: Vec<u64>,
    stamps: Vec<u32>,
    touched: Vec<NodeId>,
    epoch: u32,
    steps: u64,
}

impl WalkScratch {
    /// Creates a scratch over ids `0..n`. This is the only O(n) moment in the
    /// scratch's lifetime; everything afterwards is proportional to the work
    /// actually done.
    pub fn new(n: usize) -> Self {
        WalkScratch {
            counts: vec![0; n],
            stamps: vec![0; n],
            touched: Vec::new(),
            epoch: 0,
            steps: 0,
        }
    }

    /// Number of distinct ids the scratch can tally.
    pub fn id_space(&self) -> usize {
        self.counts.len()
    }

    /// Starts a fresh tally: all counts read as zero, the touched list and
    /// step counter are empty. O(1) except once every 2³²−1 calls, when the
    /// epoch wraps and the stamps are bulk-reset.
    pub fn begin(&mut self) {
        self.touched.clear();
        self.steps = 0;
        self.epoch = self.epoch.wrapping_add(1);
        if self.epoch == 0 {
            self.stamps.fill(0);
            self.epoch = 1;
        }
    }

    /// Increments the tally of `id`.
    #[inline]
    pub fn bump(&mut self, id: NodeId) {
        if self.stamps[id] == self.epoch {
            self.counts[id] += 1;
        } else {
            self.stamps[id] = self.epoch;
            self.counts[id] = 1;
            self.touched.push(id);
        }
    }

    /// Adds to the scratch's step counter (bulk walk cost accounting).
    #[inline]
    pub fn add_steps(&mut self, steps: u64) {
        self.steps += steps;
    }

    /// Steps recorded since [`WalkScratch::begin`].
    pub fn steps(&self) -> u64 {
        self.steps
    }

    /// Current tally of `id` (zero unless bumped since the last `begin`).
    pub fn count(&self, id: NodeId) -> u64 {
        if self.stamps[id] == self.epoch {
            self.counts[id]
        } else {
            0
        }
    }

    /// The ids bumped since the last `begin`, in first-touch order.
    pub fn touched(&self) -> &[NodeId] {
        &self.touched
    }

    /// Adds the tally into a dense vector; O(touched ids).
    pub fn merge_into_dense(&self, dense: &mut [u64]) {
        for &id in &self.touched {
            dense[id] += self.counts[id];
        }
    }

    /// The tally as `(id, count)` pairs sorted by id; O(touched · log touched).
    pub fn to_sorted_pairs(&self) -> Vec<(NodeId, u64)> {
        let mut pairs: Vec<(NodeId, u64)> = self
            .touched
            .iter()
            .map(|&id| (id, self.counts[id]))
            .collect();
        pairs.sort_unstable_by_key(|&(id, _)| id);
        pairs
    }

    /// Test hook: jump to an arbitrary epoch so the wraparound path can be
    /// exercised without 2³² `begin` calls.
    #[doc(hidden)]
    pub fn force_epoch(&mut self, epoch: u32) {
        self.epoch = epoch;
    }
}

/// A shared pool of [`WalkScratch`] instances, one per concurrently active
/// worker, so repeated bulk operations reuse their tally buffers instead of
/// reallocating them.
#[derive(Debug)]
pub struct ScratchPool {
    id_space: usize,
    slots: Mutex<Vec<WalkScratch>>,
}

impl ScratchPool {
    /// Creates an empty pool of scratches over ids `0..n`; scratches are
    /// created lazily on first use.
    pub fn new(n: usize) -> Self {
        ScratchPool {
            id_space: n,
            slots: Mutex::new(Vec::new()),
        }
    }

    /// Number of distinct ids the pool's scratches tally.
    pub fn id_space(&self) -> usize {
        self.id_space
    }

    /// Number of idle scratches currently parked in the pool.
    pub fn idle(&self) -> usize {
        self.slots.lock().unwrap_or_else(|e| e.into_inner()).len()
    }

    /// Borrows a scratch (reusing an idle one if available). The caller must
    /// call [`WalkScratch::begin`] before tallying and should return the
    /// scratch with [`ScratchPool::put`] when done.
    pub fn take(&self) -> WalkScratch {
        self.slots
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .pop()
            .unwrap_or_else(|| WalkScratch::new(self.id_space))
    }

    /// Returns a scratch to the pool for reuse.
    pub fn put(&self, scratch: WalkScratch) {
        debug_assert_eq!(scratch.id_space(), self.id_space);
        self.slots
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .push(scratch);
    }
}

/// Runs a tally workload over `n` indexed tasks and returns the dense count
/// vector plus the total steps recorded.
///
/// `task` receives a contiguous index range (a [`par::CHUNK`]-sized chunk
/// whose boundaries depend only on `n`) and a scratch that is already
/// `begin`-ed; it tallies with [`WalkScratch::bump`] and accounts steps with
/// [`WalkScratch::add_steps`]. Per-walk determinism is the task's
/// responsibility: derive walk `i`'s randomness from its index (the batched
/// [`WalkKernel`] drivers do exactly that), and the result is bit-identical
/// at any thread count because integer tally merging is commutative and
/// associative.
pub fn par_tally<T>(n: u64, threads: usize, pool: &ScratchPool, task: T) -> (Vec<u64>, u64)
where
    T: Fn(Range<u64>, &mut WalkScratch) + Sync,
{
    let dense = vec![0u64; pool.id_space()];
    par_tally_into(n, threads, pool, task, dense, |scratch, dense| {
        scratch.merge_into_dense(dense)
    })
}

/// [`par_tally`] returning the counts as `(id, count)` pairs sorted by id —
/// for workloads whose tallies are sparse relative to the id space (TPC's
/// endpoint multisets) and whose consumers want ordered iteration.
pub fn par_tally_sparse<T>(
    n: u64,
    threads: usize,
    pool: &ScratchPool,
    task: T,
) -> (Vec<(NodeId, u64)>, u64)
where
    T: Fn(Range<u64>, &mut WalkScratch) + Sync,
{
    let map = std::collections::BTreeMap::new();
    let (map, steps) = par_tally_into(n, threads, pool, task, map, |scratch, map| {
        for &id in scratch.touched() {
            *map.entry(id).or_insert(0) += scratch.count(id);
        }
    });
    (map.into_iter().collect(), steps)
}

/// The shared worker scaffolding of [`par_tally`] / [`par_tally_sparse`]:
/// chunked atomic dispatch over pooled scratches, with `drain` folding each
/// worker's finished scratch into the accumulator (under the merge lock in
/// the parallel case). `drain` must be commutative across scratches — integer
/// tally addition is — so the accumulator is thread-count invariant.
fn par_tally_into<A, T, D>(
    n: u64,
    threads: usize,
    pool: &ScratchPool,
    task: T,
    mut acc: A,
    drain: D,
) -> (A, u64)
where
    A: Send,
    T: Fn(Range<u64>, &mut WalkScratch) + Sync,
    D: Fn(&WalkScratch, &mut A) + Sync,
{
    if n == 0 {
        return (acc, 0);
    }
    let chunks = n.div_ceil(par::CHUNK);
    let workers = par::resolve_threads(threads).min(chunks as usize);
    if workers <= 1 {
        let mut scratch = pool.take();
        scratch.begin();
        task(0..n, &mut scratch);
        drain(&scratch, &mut acc);
        let steps = scratch.steps();
        pool.put(scratch);
        return (acc, steps);
    }

    let next = AtomicU64::new(0);
    let merged = Mutex::new((acc, 0u64));
    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| {
                let mut scratch = pool.take();
                scratch.begin();
                loop {
                    let c = next.fetch_add(1, Ordering::Relaxed);
                    if c >= chunks {
                        break;
                    }
                    task(c * par::CHUNK..((c + 1) * par::CHUNK).min(n), &mut scratch);
                }
                let mut guard = merged.lock().unwrap_or_else(|e| e.into_inner());
                drain(&scratch, &mut guard.0);
                guard.1 += scratch.steps();
                drop(guard);
                pool.put(scratch);
            });
        }
    });
    merged.into_inner().unwrap_or_else(|e| e.into_inner())
}

#[cfg(test)]
mod tests {
    use super::*;
    use er_graph::generators;
    use rand::Rng;

    #[test]
    fn stream_rng_is_deterministic_and_stream_separated() {
        let draws = |seed, stream| {
            let mut rng = StreamRng::new(seed, stream);
            (0..4).map(|_| rng.next_u64()).collect::<Vec<_>>()
        };
        assert_eq!(draws(7, 3), draws(7, 3));
        assert_ne!(draws(7, 3), draws(7, 4));
        assert_ne!(draws(7, 3), draws(8, 3));
        // Rng trait methods work through the RngCore impl.
        let mut rng = StreamRng::new(1, 0);
        let x: f64 = rng.gen();
        assert!((0.0..1.0).contains(&x));
        assert!(rng.gen_range(0..10usize) < 10);
    }

    #[test]
    fn kernel_step_matches_graph_random_neighbor_draws() {
        // The kernel's widening-multiply pick consumes one u64 per step and
        // selects the same neighbour as Graph::random_neighbor on the same
        // stream (both use the Lemire reduction over the sorted row).
        let g = generators::social_network_like(300, 9.0, 5).unwrap();
        let kernel = WalkKernel::new(&g);
        let mut a = StreamRng::new(11, 0);
        let mut b = StreamRng::new(11, 0);
        let mut u = 0;
        let mut v = 0;
        for _ in 0..200 {
            u = kernel.step(u, &mut a).unwrap();
            v = g.random_neighbor(v, &mut b).unwrap();
            assert_eq!(u, v);
        }
    }

    #[test]
    fn kernel_handles_isolated_nodes_and_zero_length() {
        let g = er_graph::GraphBuilder::new(3)
            .add_edge(0, 1)
            .build()
            .unwrap();
        let kernel = WalkKernel::new(&g);
        let mut rng = StreamRng::new(0, 0);
        assert_eq!(kernel.step(2, &mut rng), None);
        assert_eq!(kernel.endpoint(2, 5, &mut rng), (2, 0));
        assert_eq!(kernel.endpoint(0, 0, &mut rng), (0, 0));
        let mut visited = Vec::new();
        let steps = kernel.for_each_visit(0, 3, &mut rng, |v| visited.push(v));
        assert_eq!(steps, 3);
        assert_eq!(visited.len(), 3);
    }

    #[test]
    fn batched_endpoints_match_sequential_per_stream_walks() {
        // Lockstep lanes must not change any individual walk: endpoints and
        // steps must equal a per-walk sequential run on the same streams, and
        // the sink must observe them in index order.
        let g = generators::barabasi_albert(500, 4, 2).unwrap();
        let kernel = WalkKernel::new(&g);
        let (seed, len) = (0xabcd, 13);
        for range in [0..(3 * LANES as u64 + 5), 7..7, 2..LANES as u64 - 1] {
            let mut batched = Vec::new();
            kernel.batch_endpoints(0, len, seed, range.clone(), &mut |i, end, steps| {
                batched.push((i, end, steps));
            });
            let sequential: Vec<(u64, NodeId, u64)> = range
                .clone()
                .map(|i| {
                    let mut rng = StreamRng::new(seed, i);
                    let (end, steps) = kernel.endpoint(0, len, &mut rng);
                    (i, end, steps)
                })
                .collect();
            assert_eq!(batched, sequential, "range {range:?}");
        }
    }

    #[test]
    fn batched_visits_match_sequential_multiset_and_steps() {
        let g = generators::social_network_like(200, 7.0, 8).unwrap();
        let kernel = WalkKernel::new(&g);
        let (seed, len, n_walks) = (99, 9, 2 * LANES as u64 + 3);
        let mut batched = vec![0u64; g.num_nodes()];
        let steps_b = kernel.batch_visits(4, len, seed, 0..n_walks, &mut |v| batched[v] += 1);
        let mut sequential = vec![0u64; g.num_nodes()];
        let mut steps_s = 0;
        for i in 0..n_walks {
            let mut rng = StreamRng::new(seed, i);
            steps_s += kernel.for_each_visit(4, len, &mut rng, |v| sequential[v] += 1);
        }
        assert_eq!(batched, sequential);
        assert_eq!(steps_b, steps_s);
    }

    #[test]
    fn batch_until_matches_per_walk_reference_and_refills_lanes() {
        // Walk until first return to the start (or the cap): compare the
        // variable-length lockstep driver against stepping each stream
        // alone, across ranges that exercise refill (more pending walks
        // than lanes), a partial first block and an empty range.
        let g = generators::social_network_like(300, 7.0, 6).unwrap();
        let kernel = WalkKernel::new(&g);
        let (start, max_steps, seed) = (5, 200, 0xface);
        let judge = |_prev: NodeId, next: NodeId, _steps: u64| (next == start).then_some(());
        let reference = |range: Range<u64>| {
            let mut out = Vec::new();
            for i in range {
                let mut rng = StreamRng::new(seed, i);
                let mut current = start;
                let mut result = (i, None, max_steps as u64);
                for step in 1..=max_steps as u64 {
                    let Some(next) = kernel.step(current, &mut rng) else {
                        result = (i, None, step - 1);
                        break;
                    };
                    if next == start {
                        result = (i, Some(()), step);
                        break;
                    }
                    current = next;
                }
                out.push(result);
            }
            out.sort_unstable();
            out
        };
        let lanes = LANES as u64;
        for range in [0u64..5, 7..7, 0..lanes, 3..(3 * lanes + 17)] {
            let mut got = Vec::new();
            kernel.batch_until(
                start,
                max_steps,
                seed,
                range.clone(),
                &judge,
                &mut |i, v, s| {
                    got.push((i, v, s));
                },
            );
            assert_eq!(
                got.len() as u64,
                range.end - range.start,
                "every walk retires exactly once ({range:?})"
            );
            got.sort_unstable();
            assert_eq!(got, reference(range.clone()), "{range:?}");
        }
        // A zero step cap truncates every walk before its first draw.
        let mut got = Vec::new();
        kernel.batch_until(start, 0, seed, 4..9, &judge, &mut |i, v, s| {
            got.push((i, v, s))
        });
        assert_eq!(got, (4..9).map(|i| (i, None, 0)).collect::<Vec<_>>());
    }

    #[test]
    fn batch_pairs_matches_sequential_pair_walks_bit_for_bit() {
        // Pair i must see exactly the draw schedule and float accumulation
        // order of running its s-walk then t-walk alone on stream (seed, i),
        // and finish must fire in index order.
        let g = generators::social_network_like(200, 9.0, 1).unwrap();
        let kernel = WalkKernel::new(&g);
        let (s, t, len, seed) = (0usize, 100usize, 13usize, 0x9a12u64);
        let weight = |u: NodeId| (u as f64 + 1.0).ln();
        let reference: Vec<(u64, f64, u64)> = (0..(2 * LANES + 9) as u64)
            .map(|i| {
                let mut rng = StreamRng::new(seed, i);
                let mut z = 0.0;
                let mut steps = 0;
                steps += kernel.for_each_visit(s, len, &mut rng, |u| z += weight(u));
                steps += kernel.for_each_visit(t, len, &mut rng, |u| z -= 0.5 * weight(u));
                (i, z, steps)
            })
            .collect();
        for (range, expect) in [
            (0u64..reference.len() as u64, &reference[..]),
            (0..5, &reference[..5]), // fewer pairs than one block
            (9..9, &reference[..0]), // empty
        ] {
            let mut got = Vec::new();
            kernel.batch_pairs(
                s,
                t,
                len,
                seed,
                range,
                &|u, z: &mut f64| *z += weight(u),
                &|u, z: &mut f64| *z -= 0.5 * weight(u),
                &mut |i, z, steps| got.push((i, z, steps)),
            );
            assert_eq!(got.len(), expect.len());
            for (g_r, e_r) in got.iter().zip(expect) {
                assert_eq!(g_r.0, e_r.0, "index order preserved");
                assert_eq!(g_r.1.to_bits(), e_r.1.to_bits(), "pair {}", g_r.0);
                assert_eq!(g_r.2, e_r.2);
            }
        }
    }

    #[test]
    fn scratch_tallies_and_resets_without_zeroing() {
        let mut scratch = WalkScratch::new(10);
        scratch.begin();
        scratch.bump(3);
        scratch.bump(3);
        scratch.bump(7);
        scratch.add_steps(5);
        assert_eq!(scratch.count(3), 2);
        assert_eq!(scratch.count(7), 1);
        assert_eq!(scratch.count(0), 0);
        assert_eq!(scratch.steps(), 5);
        assert_eq!(scratch.touched(), &[3, 7]);
        assert_eq!(scratch.to_sorted_pairs(), vec![(3, 2), (7, 1)]);

        // A new tally sees none of the old counts.
        scratch.begin();
        assert_eq!(scratch.count(3), 0);
        assert_eq!(scratch.steps(), 0);
        assert!(scratch.touched().is_empty());
        scratch.bump(3);
        assert_eq!(scratch.count(3), 1, "stale count must not leak through");
    }

    #[test]
    fn scratch_epoch_wraparound_clears_stale_stamps() {
        let mut scratch = WalkScratch::new(4);
        scratch.begin();
        scratch.bump(1);
        scratch.bump(2);
        // Jump to the last epoch before the wrap and tally under it.
        scratch.force_epoch(u32::MAX - 1);
        scratch.begin(); // epoch == u32::MAX
        scratch.bump(2);
        scratch.bump(2);
        assert_eq!(scratch.count(2), 2);
        scratch.begin(); // wraps: stamps bulk-reset, epoch == 1
        assert_eq!(scratch.count(1), 0);
        assert_eq!(scratch.count(2), 0);
        scratch.bump(2);
        assert_eq!(
            scratch.count(2),
            1,
            "post-wrap tally must start from zero, not a stale pre-wrap count"
        );
        // The dangerous case: ids stamped before the wrap at epoch 1 must not
        // alias the post-wrap epoch 1 — the bulk reset guarantees it.
        assert_eq!(scratch.count(1), 0);
        let mut second_cycle = WalkScratch::new(4);
        second_cycle.begin(); // epoch 1, stamps id 0
        second_cycle.bump(0);
        second_cycle.force_epoch(u32::MAX);
        second_cycle.begin(); // wraps back to epoch 1
        assert_eq!(
            second_cycle.count(0),
            0,
            "epoch reuse after wrap must not resurrect old counts"
        );
    }

    #[test]
    fn pool_reuses_scratches() {
        let pool = ScratchPool::new(6);
        assert_eq!(pool.idle(), 0);
        let mut a = pool.take();
        a.begin();
        a.bump(5);
        pool.put(a);
        assert_eq!(pool.idle(), 1);
        // The reused scratch starts clean after begin().
        let mut b = pool.take();
        assert_eq!(pool.idle(), 0);
        b.begin();
        assert_eq!(b.count(5), 0);
        pool.put(b);
    }

    #[test]
    fn par_tally_is_thread_count_invariant_and_reuses_the_pool() {
        let g = generators::social_network_like(150, 8.0, 3).unwrap();
        let kernel = WalkKernel::new(&g);
        let pool = ScratchPool::new(g.num_nodes());
        let run = |threads: usize, seed: u64| {
            par_tally(5_000, threads, &pool, |range, scratch| {
                kernel.batch_endpoints(0, 10, seed, range, &mut |_, end, steps| {
                    scratch.bump(end);
                    scratch.add_steps(steps);
                })
            })
        };
        let (base_counts, base_steps) = run(1, 42);
        assert_eq!(base_counts.iter().sum::<u64>(), 5_000);
        assert_eq!(base_steps, 50_000);
        for threads in [2, 8] {
            let (counts, steps) = run(threads, 42);
            assert_eq!(base_counts, counts, "counts differ at {threads} threads");
            assert_eq!(base_steps, steps);
        }
        // A second bulk call on the same pool reuses scratches and must not
        // see stale tallies from the first.
        assert!(pool.idle() >= 1);
        let (again, _) = run(1, 42);
        assert_eq!(base_counts, again, "scratch reuse leaked stale counts");
        let (other_seed, _) = run(1, 43);
        assert_ne!(base_counts, other_seed);
    }

    #[test]
    fn par_tally_sparse_matches_dense_counts() {
        let g = generators::barabasi_albert(120, 3, 1).unwrap();
        let kernel = WalkKernel::new(&g);
        let pool = ScratchPool::new(g.num_nodes());
        let task = |range: std::ops::Range<u64>, scratch: &mut WalkScratch| {
            kernel.batch_endpoints(3, 6, 9, range, &mut |_, end, steps| {
                scratch.bump(end);
                scratch.add_steps(steps);
            })
        };
        let (dense, dense_steps) = par_tally(3_000, 1, &pool, task);
        for threads in [1, 4] {
            let (sparse, steps) = par_tally_sparse(3_000, threads, &pool, task);
            assert_eq!(steps, dense_steps);
            assert!(sparse.windows(2).all(|w| w[0].0 < w[1].0), "sorted by id");
            let mut from_sparse = vec![0u64; g.num_nodes()];
            for &(id, c) in &sparse {
                from_sparse[id] += c;
            }
            assert_eq!(from_sparse, dense);
        }
        let (empty, steps) = par_tally_sparse(0, 2, &pool, task);
        assert!(empty.is_empty());
        assert_eq!(steps, 0);
    }
}
