//! Uniform spanning-tree sampling with Wilson's algorithm.
//!
//! The HAY baseline \[29\] estimates the effective resistance of an *edge*
//! `(s, t) ∈ E` through the matrix-tree identity
//! `r(s, t) = Pr[(s, t) ∈ T]` where `T` is a uniformly random spanning tree.
//! Wilson's algorithm samples exact uniform spanning trees by stitching
//! together loop-erased random walks, in expected time proportional to the
//! mean hitting time of the graph.

use crate::kernel::{StreamRng, WalkKernel};
use er_graph::{Graph, NodeId};
use rand::Rng;
use std::ops::Range;

/// A sampled spanning tree, stored as `parent[v]` pointers towards the root
/// (with `parent[root] == root`).
#[derive(Clone, Debug)]
pub struct SpanningTree {
    root: NodeId,
    parent: Vec<NodeId>,
}

impl SpanningTree {
    /// The root node the tree was grown towards.
    pub fn root(&self) -> NodeId {
        self.root
    }

    /// Returns `true` if the undirected edge `{u, v}` belongs to the tree.
    pub fn contains_edge(&self, u: NodeId, v: NodeId) -> bool {
        u != v && (self.parent[u] == v || self.parent[v] == u)
    }

    /// The `n − 1` undirected edges of the tree.
    pub fn edges(&self) -> Vec<(NodeId, NodeId)> {
        let mut edges = Vec::with_capacity(self.parent.len().saturating_sub(1));
        self.for_each_edge(|u, v| edges.push((u, v)));
        edges
    }

    /// Calls `f` on each of the `n − 1` undirected edges `(u, v)` (with
    /// `u < v`) without materialising them — the allocation-free counterpart
    /// of [`SpanningTree::edges`] for per-tree hot loops.
    pub fn for_each_edge(&self, mut f: impl FnMut(NodeId, NodeId)) {
        for (v, &p) in self.parent.iter().enumerate() {
            if v != p {
                if v < p {
                    f(v, p);
                } else {
                    f(p, v);
                }
            }
        }
    }

    /// Number of nodes spanned.
    pub fn num_nodes(&self) -> usize {
        self.parent.len()
    }
}

/// Samples a uniform spanning tree of a connected graph with Wilson's
/// algorithm, rooted at `root`.
///
/// The graph must be connected, and callers must check that first (as
/// `er-core` and `er-sparsify` do): in a disconnected graph the loop-erased
/// walk from a node outside `root`'s component never reaches the tree and
/// loops forever, in debug and release builds alike. The one case that
/// panics instead is reaching an isolated node.
pub fn sample_spanning_tree<R: Rng + ?Sized>(
    graph: &Graph,
    root: NodeId,
    rng: &mut R,
) -> SpanningTree {
    let n = graph.num_nodes();
    let kernel = WalkKernel::new(graph);
    let mut in_tree = vec![false; n];
    let mut parent: Vec<NodeId> = (0..n).collect();
    in_tree[root] = true;

    // `next[v]` records the successor of v on the current loop-erased walk.
    let mut next = vec![usize::MAX; n];
    for start in 0..n {
        if in_tree[start] {
            continue;
        }
        // Random walk from `start` until it hits the tree, remembering only
        // the latest successor of each visited node (this implicitly erases
        // loops: revisiting a node overwrites the old successor). Steps go
        // through the walk kernel (one row load + widening multiply each).
        let mut u = start;
        while !in_tree[u] {
            let v = kernel
                .step(u, rng)
                .expect("connected graph has no isolated nodes");
            next[u] = v;
            u = v;
        }
        // Retrace the loop-erased path and attach it to the tree.
        let mut u = start;
        while !in_tree[u] {
            in_tree[u] = true;
            parent[u] = next[u];
            u = next[u];
        }
    }
    SpanningTree { root, parent }
}

/// Cap on the total per-lane Wilson state (≈ 17 bytes per node per lane:
/// in-tree flag + parent + loop-erasure successor). A graph big enough to
/// bind this cap is past the last-level cache anyway, where fewer deeper
/// lanes beat many thrashing ones — and since each tree is a pure function
/// of `(seed, index)`, shrinking the lane count never changes a value.
const WILSON_STATE_BUDGET: usize = 64 << 20;

/// Below this CSR footprint [`sample_spanning_trees`] takes the single-lane
/// sequential fast path: steps on a cache-resident graph are hits, so
/// lockstep has no miss latency to hide and only adds per-step lane
/// overhead. A lane-count sweep when this driver landed put the crossover
/// between a ~1.4 MiB CSR (every lane count loses) and a ~2.7 MiB CSR (2–3
/// lanes win ~1.25x).
const WILSON_SEQUENTIAL_CSR_BYTES: usize = 2 << 20;

/// Lockstep lane count for out-of-cache graphs. Each Wilson lane drags its
/// own O(n) in-tree/parent/successor state through the cache, so — unlike
/// the O(1)-state walk lanes — a few deep lanes beat a full lane block: the
/// same sweep peaked at 2–3 lanes (~1.15–1.25x over sequential) and gave
/// the whole win back by 8–16 lanes.
const WILSON_WIDE_LANES: usize = 3;

/// Per-lane state of one in-flight Wilson tree: its index and RNG stream,
/// the tree under construction (the `parent` vector doubles as the final
/// [`SpanningTree`]), the in-tree flags, the loop-erasure successor array,
/// the start-node scan cursor and the walk position.
struct WilsonLane {
    index: u64,
    rng: StreamRng,
    tree: SpanningTree,
    in_tree: Vec<bool>,
    next: Vec<NodeId>,
    /// Scan position of the sequential `for start in 0..n` loop; the current
    /// walk segment started here.
    cursor: NodeId,
    /// Current position of the walk segment.
    u: NodeId,
    steps: u64,
}

impl WilsonLane {
    fn new(n: usize, root: NodeId) -> WilsonLane {
        WilsonLane {
            index: 0,
            rng: StreamRng::new(0, 0),
            tree: SpanningTree {
                root,
                parent: (0..n).collect(),
            },
            in_tree: vec![false; n],
            next: vec![usize::MAX; n],
            cursor: 0,
            u: root,
            steps: 0,
        }
    }

    /// Resets the lane for tree `index` on stream `(seed, index)`. Returns
    /// `false` if the tree is already complete (single-node graph), in which
    /// case the caller emits it without any lockstep rounds.
    fn begin(&mut self, seed: u64, index: u64) -> bool {
        self.index = index;
        self.rng = StreamRng::new(seed, index);
        self.steps = 0;
        self.in_tree.fill(false);
        self.in_tree[self.tree.root] = true;
        for (v, p) in self.tree.parent.iter_mut().enumerate() {
            *p = v;
        }
        // `next` needs no reset: the retrace only reads successors of nodes
        // visited by the current walk segment, which were all just written —
        // the same argument that lets the sequential sampler keep `next`
        // across segments.
        self.cursor = 0;
        self.find_start()
    }

    /// Advances the cursor to the next node outside the tree and begins a
    /// walk segment there; `false` means the tree is complete.
    fn find_start(&mut self) -> bool {
        while self.cursor < self.in_tree.len() {
            if !self.in_tree[self.cursor] {
                self.u = self.cursor;
                return true;
            }
            self.cursor += 1;
        }
        false
    }

    /// Retraces the loop-erased path of the finished walk segment (the walk
    /// just hit the tree at `self.u`) and attaches it.
    fn attach(&mut self) {
        let mut u = self.cursor;
        while !self.in_tree[u] {
            self.in_tree[u] = true;
            self.tree.parent[u] = self.next[u];
            u = self.next[u];
        }
        self.cursor += 1;
    }
}

/// Samples the uniform spanning trees with indices `range` — tree `i` from
/// RNG stream `(seed, i)` — running several trees' loop-erased walks in
/// lockstep lanes, and reports each finished tree to `sink` as
/// `(index, &tree, walk_steps)`.
///
/// Each tree owns one lane: its own RNG stream, in-tree flags and
/// loop-erasure state. Lockstep execution only interleaves the memory
/// accesses of *different* trees; within one tree the draw schedule is
/// exactly that of [`sample_spanning_tree`] on the same stream, so every
/// tree's edge set (and parent orientation) is bit-identical to the
/// sequential sampler — at any lane count or thread count. A lane whose
/// tree completes refills from the pending range in the same round, so the
/// memory-level parallelism never drains while trees remain.
///
/// `sink` fires once per tree in **retire order** (a pure function of
/// `(seed, range)` and the graph, not of thread count); feed commutative
/// accumulators — tree-membership counts and step totals are.
/// `walk_steps` is the tree's true loop-erased-walk step count (one RNG draw
/// per step), which the HAY cost accounting reports instead of the old
/// `n − 1` lower bound.
///
/// Lane count is picked by CSR footprint: a cache-resident graph takes the
/// single-lane fast path — its steps are cache hits, so there is no miss
/// latency for lockstep to hide and the lane machinery would only cost —
/// while a larger graph runs a few (currently 3) trees in lockstep. Unlike
/// plain walk lanes, every Wilson lane drags O(n) tree state with it, so a
/// few deep lanes beat a full lane block.
///
/// The graph must be connected, as for [`sample_spanning_tree`].
pub fn sample_spanning_trees(
    graph: &Graph,
    root: NodeId,
    seed: u64,
    range: Range<u64>,
    sink: &mut impl FnMut(u64, &SpanningTree, u64),
) {
    let csr_bytes = (graph.num_nodes() + 1 + 2 * graph.num_edges()) * std::mem::size_of::<NodeId>();
    let lanes = if csr_bytes <= WILSON_SEQUENTIAL_CSR_BYTES {
        1
    } else {
        WILSON_WIDE_LANES
    };
    run_lockstep(WalkKernel::new(graph), root, seed, range, lanes, sink)
}

/// Runs one reusable lane straight through the range — the cache-resident
/// fast path, equivalent to [`sample_spanning_tree`] per index but without
/// per-tree allocations or the lockstep round loop.
fn run_sequential(
    kernel: WalkKernel<'_>,
    root: NodeId,
    seed: u64,
    range: Range<u64>,
    sink: &mut impl FnMut(u64, &SpanningTree, u64),
) {
    let mut lane = WilsonLane::new(kernel.num_nodes(), root);
    for index in range {
        if lane.begin(seed, index) {
            loop {
                let v = kernel
                    .step(lane.u, &mut lane.rng)
                    .expect("connected graph has no isolated nodes");
                lane.steps += 1;
                lane.next[lane.u] = v;
                lane.u = v;
                if lane.in_tree[lane.u] {
                    lane.attach();
                    if !lane.find_start() {
                        break;
                    }
                }
            }
        }
        sink(lane.index, &lane.tree, lane.steps);
    }
}

fn run_lockstep(
    kernel: WalkKernel<'_>,
    root: NodeId,
    seed: u64,
    range: Range<u64>,
    lanes: usize,
    sink: &mut impl FnMut(u64, &SpanningTree, u64),
) {
    if range.is_empty() {
        return;
    }
    let n = kernel.num_nodes();
    let per_lane_bytes = n.max(1) * (std::mem::size_of::<NodeId>() * 2 + 1);
    let lanes = lanes
        .min((WILSON_STATE_BUDGET / per_lane_bytes).max(1))
        .min((range.end - range.start).min(64) as usize)
        .max(1);
    if lanes == 1 {
        return run_sequential(kernel, root, seed, range, sink);
    }

    let mut lane_state: Vec<WilsonLane> = (0..lanes).map(|_| WilsonLane::new(n, root)).collect();
    let mut next_index = range.start;
    let mut alive: u64 = 0;

    // Fills `lane` with the next pending tree, emitting any trees that are
    // complete at birth (single-node graphs take zero walk steps); returns
    // whether the lane is live afterwards.
    let refill = |lane: &mut WilsonLane,
                  next_index: &mut u64,
                  sink: &mut dyn FnMut(u64, &SpanningTree, u64)| {
        while *next_index < range.end {
            let index = *next_index;
            *next_index += 1;
            if lane.begin(seed, index) {
                return true;
            }
            sink(lane.index, &lane.tree, lane.steps);
        }
        false
    };

    for (lane, state) in lane_state.iter_mut().enumerate() {
        if refill(state, &mut next_index, sink) {
            alive |= 1 << lane;
        }
    }
    while alive != 0 {
        for (lane, state) in lane_state.iter_mut().enumerate() {
            if alive & (1 << lane) == 0 {
                continue;
            }
            let v = kernel
                .step(state.u, &mut state.rng)
                .expect("connected graph has no isolated nodes");
            state.steps += 1;
            state.next[state.u] = v;
            state.u = v;
            if state.in_tree[state.u] {
                state.attach();
                if !state.find_start() {
                    sink(state.index, &state.tree, state.steps);
                    if !refill(state, &mut next_index, sink) {
                        alive &= !(1 << lane);
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use er_graph::generators;
    use rand::rngs::StdRng;
    use rand::{RngCore, SeedableRng};
    use std::collections::HashSet;

    /// Wraps a [`StreamRng`] and counts its `next_u64` draws, so the
    /// sequential reference exposes its draw schedule length.
    struct CountingRng {
        inner: StreamRng,
        draws: u64,
    }

    impl RngCore for CountingRng {
        fn next_u64(&mut self) -> u64 {
            self.draws += 1;
            self.inner.next_u64()
        }
    }

    /// The sequential reference for tree `i` under `seed`: the tree plus the
    /// number of RNG draws its loop-erased walks consumed.
    fn sequential_tree(g: &Graph, root: NodeId, seed: u64, i: u64) -> (SpanningTree, u64) {
        let mut rng = CountingRng {
            inner: StreamRng::new(seed, i),
            draws: 0,
        };
        let tree = sample_spanning_tree(g, root, &mut rng);
        (tree, rng.draws)
    }

    /// Every tree the lockstep driver emits at `lanes` lanes, as
    /// `(index, parent, steps)` sorted by index.
    fn lockstep_trees(
        g: &Graph,
        root: NodeId,
        seed: u64,
        range: Range<u64>,
        lanes: usize,
    ) -> Vec<(u64, Vec<NodeId>, u64)> {
        let mut got = Vec::new();
        run_lockstep(
            WalkKernel::new(g),
            root,
            seed,
            range,
            lanes,
            &mut |i, t, s| {
                assert_eq!(t.root(), root);
                got.push((i, t.parent.clone(), s));
            },
        );
        got.sort_unstable_by_key(|e| e.0);
        got
    }

    /// Asserts that `got` holds exactly the sequential sampler's tree and
    /// draw count for every index of `range`.
    fn assert_sequential_bits(
        g: &Graph,
        root: NodeId,
        seed: u64,
        range: Range<u64>,
        got: &[(u64, Vec<NodeId>, u64)],
    ) {
        assert_eq!(got.len() as u64, range.end - range.start);
        for ((gi, gparent, gsteps), i) in got.iter().zip(range) {
            let (tree, draws) = sequential_tree(g, root, seed, i);
            assert_eq!(*gi, i);
            assert_eq!(*gparent, tree.parent, "tree {i}");
            assert_eq!(*gsteps, draws, "draw schedule of tree {i}");
        }
    }

    #[test]
    fn lockstep_trees_match_sequential_draw_schedules_at_every_lane_count() {
        // Every tree the lockstep driver emits must equal the sequential
        // sampler's tree on the same stream — same parent orientation, not
        // just the same edge set — and its reported step count must equal
        // the sequential draw count (one draw per step), at every lane count.
        let g = generators::social_network_like(180, 7.0, 12).unwrap();
        let (root, seed) = (3, 0x717e);
        for lanes in [2, 3, 8, 16] {
            // Offset range: stream derivation must follow the absolute index.
            for range in [5u64..77, 0..1, 9..9, 0..3] {
                let got = lockstep_trees(&g, root, seed, range.clone(), lanes);
                assert_sequential_bits(&g, root, seed, range, &got);
            }
        }
    }

    #[test]
    fn lockstep_refill_churn_preserves_every_tree() {
        // A tiny graph retires trees quickly, churning the refill path many
        // times per lane; every pending tree must still be emitted exactly
        // once with its sequential bits — through the CSR-footprint entry
        // (the sequential fast path on a graph this small) and through 8-lane
        // lockstep.
        let g = generators::complete(5).unwrap();
        let (seed, range) = (42u64, 0u64..257);
        let mut fast_path = Vec::new();
        sample_spanning_trees(&g, 0, seed, range.clone(), &mut |i, t, s| {
            fast_path.push((i, t.parent.clone(), s));
        });
        assert_sequential_bits(&g, 0, seed, range.clone(), &fast_path);
        let lockstep = lockstep_trees(&g, 0, seed, range.clone(), 8);
        assert_sequential_bits(&g, 0, seed, range, &lockstep);
    }

    #[test]
    fn lockstep_handles_degenerate_graphs() {
        // Single-node graph: every tree is complete at birth, zero steps —
        // on both the fast path and the lockstep refill path (where `begin`
        // returns false and the refill loop emits the tree itself).
        let singleton = er_graph::GraphBuilder::new(1).build().unwrap();
        let mut emitted = Vec::new();
        sample_spanning_trees(&singleton, 0, 7, 0..5, &mut |i, t, s| {
            emitted.push((i, t.edges().len(), s));
        });
        assert_eq!(emitted, (0..5).map(|i| (i, 0, 0)).collect::<Vec<_>>());
        let lockstep = lockstep_trees(&singleton, 0, 7, 0..5, 8);
        assert_eq!(
            lockstep,
            (0..5).map(|i| (i, vec![0], 0)).collect::<Vec<_>>()
        );

        // Two-node path: one forced edge, but the walk still draws.
        let p2 = generators::path(2).unwrap();
        sample_spanning_trees(&p2, 0, 7, 0..4, &mut |_, t, s| {
            assert_eq!(t.edges(), vec![(0, 1)]);
            assert!(s >= 1);
        });
    }

    #[test]
    fn out_of_cache_graphs_take_the_lockstep_route_with_sequential_bits() {
        // A 2.6 MB CSR is past `WILSON_SEQUENTIAL_CSR_BYTES`, so the public
        // entry runs `WILSON_WIDE_LANES` lanes, and five trees make lanes
        // refill. Every tree must still be the sequential sampler's.
        let g = generators::barabasi_albert(25_000, 6, 0x25).unwrap();
        let csr_bytes = (g.num_nodes() + 1 + 2 * g.num_edges()) * std::mem::size_of::<NodeId>();
        assert!(csr_bytes > WILSON_SEQUENTIAL_CSR_BYTES, "{csr_bytes} bytes");
        let (root, seed, range) = (0, 0x3a7e, 3u64..8);
        let mut got = Vec::new();
        sample_spanning_trees(&g, root, seed, range.clone(), &mut |i, t, s| {
            got.push((i, t.parent.clone(), s));
        });
        got.sort_unstable_by_key(|e| e.0);
        assert_sequential_bits(&g, root, seed, range, &got);
    }

    fn is_spanning_tree(g: &Graph, tree: &SpanningTree) -> bool {
        let edges = tree.edges();
        if edges.len() != g.num_nodes() - 1 {
            return false;
        }
        // all tree edges are graph edges
        if !edges.iter().all(|&(u, v)| g.has_edge(u, v)) {
            return false;
        }
        // connectivity of the tree: union-find over tree edges
        let mut parent: Vec<usize> = (0..g.num_nodes()).collect();
        fn find(parent: &mut Vec<usize>, x: usize) -> usize {
            if parent[x] != x {
                let r = find(parent, parent[x]);
                parent[x] = r;
            }
            parent[x]
        }
        for &(u, v) in &edges {
            let (ru, rv) = (find(&mut parent, u), find(&mut parent, v));
            if ru == rv {
                return false; // cycle
            }
            parent[ru] = rv;
        }
        let root = find(&mut parent, 0);
        (0..g.num_nodes()).all(|v| find(&mut parent, v) == root)
    }

    #[test]
    fn sampled_trees_are_spanning_trees() {
        let g = generators::social_network_like(120, 6.0, 4).unwrap();
        let mut rng = StdRng::seed_from_u64(8);
        for i in 0..10 {
            let tree = sample_spanning_tree(&g, i % g.num_nodes(), &mut rng);
            assert_eq!(tree.num_nodes(), g.num_nodes());
            assert!(
                is_spanning_tree(&g, &tree),
                "sample {i} is not a spanning tree"
            );
        }
    }

    #[test]
    fn tree_of_a_tree_is_itself() {
        let g = generators::path(20).unwrap();
        let mut rng = StdRng::seed_from_u64(2);
        let tree = sample_spanning_tree(&g, 0, &mut rng);
        let edges: HashSet<_> = tree.edges().into_iter().collect();
        let expected: HashSet<_> = g.edges().collect();
        assert_eq!(edges, expected);
        assert_eq!(tree.root(), 0);
    }

    #[test]
    fn contains_edge_matches_edge_list() {
        let g = generators::complete(8).unwrap();
        let mut rng = StdRng::seed_from_u64(3);
        let tree = sample_spanning_tree(&g, 5, &mut rng);
        let edges: HashSet<_> = tree.edges().into_iter().collect();
        for u in 0..8 {
            for v in 0..8 {
                let key = if u < v { (u, v) } else { (v, u) };
                assert_eq!(tree.contains_edge(u, v), u != v && edges.contains(&key));
            }
        }
    }

    #[test]
    fn uniformity_on_triangle() {
        // The triangle has 3 spanning trees, each omitting one edge; every
        // edge appears in exactly 2 of 3 trees, so empirical edge frequencies
        // must approach 2/3 (which is also r(u, v), the HAY identity).
        let g = generators::complete(3).unwrap();
        let mut rng = StdRng::seed_from_u64(17);
        let trials = 30_000;
        let mut counts = [0usize; 3];
        for _ in 0..trials {
            let tree = sample_spanning_tree(&g, 0, &mut rng);
            if tree.contains_edge(0, 1) {
                counts[0] += 1;
            }
            if tree.contains_edge(1, 2) {
                counts[1] += 1;
            }
            if tree.contains_edge(0, 2) {
                counts[2] += 1;
            }
        }
        for (i, &c) in counts.iter().enumerate() {
            let freq = c as f64 / trials as f64;
            assert!((freq - 2.0 / 3.0).abs() < 0.01, "edge {i} frequency {freq}");
        }
    }

    #[test]
    fn uniformity_on_square_with_diagonal() {
        // Graph: square 0-1-2-3-0 plus diagonal 0-2. Spanning trees: 8 total
        // (by the matrix-tree theorem). Edge (0,2) ER = 1/2, so it should
        // appear in half of the sampled trees.
        let g = er_graph::GraphBuilder::from_edges(4, vec![(0, 1), (1, 2), (2, 3), (3, 0), (0, 2)])
            .build()
            .unwrap();
        let mut rng = StdRng::seed_from_u64(29);
        let trials = 30_000;
        let mut diag = 0usize;
        for _ in 0..trials {
            if sample_spanning_tree(&g, 1, &mut rng).contains_edge(0, 2) {
                diag += 1;
            }
        }
        let freq = diag as f64 / trials as f64;
        assert!((freq - 0.5).abs() < 0.01, "diagonal frequency {freq}");
    }
}
