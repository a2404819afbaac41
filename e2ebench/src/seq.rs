//! Seeded operation sequences.
//!
//! Every request and mutation a workload sends is a pure function of the
//! workload seed and the workload's fixed graph, so each run with one seed
//! replays the same sequence: misses, evictions and full rebuilds fall at
//! the same places in every run.

use er_graph::{Graph, NodeId};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::HashSet;

/// Salts that split one workload seed into independent streams.
const UNIVERSE_SALT: u64 = 0x756e_6976_6572_7365;
const ZIPF_SALT: u64 = 0x7a69_7066_7374_7265;
const COLD_SALT: u64 = 0x636f_6c64_7061_6972;
const MUTATION_SALT: u64 = 0x6d75_7461_7469_6f6e;
const CHECK_SALT: u64 = 0x6368_6563_6b70_7473;

/// A pair query `(s, t)`.
pub type Pair = (NodeId, NodeId);

/// One edge mutation.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Mutation {
    /// Insert the (absent) edge `{u, v}`.
    Insert(NodeId, NodeId),
    /// Delete the edge `{u, v}`, which an earlier `Insert` added.
    Delete(NodeId, NodeId),
}

/// One step group of the mutation stream: the mutations, then the reads.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Burst {
    pub mutations: Vec<Mutation>,
    pub reads: Vec<Pair>,
}

fn stream(seed: u64, salt: u64) -> StdRng {
    StdRng::seed_from_u64(seed ^ salt)
}

/// The canonical orientation of a pair, `(min, max)`.
pub fn canonical((s, t): Pair) -> Pair {
    (s.min(t), s.max(t))
}

fn random_pair(rng: &mut StdRng, n: usize) -> Pair {
    loop {
        let s = rng.gen_range(0..n);
        let t = rng.gen_range(0..n);
        if s != t {
            return (s, t);
        }
    }
}

/// `len` uniformly random pairs of distinct nodes, no two equal up to
/// orientation. The set only filters repeats; the order comes from the RNG.
fn distinct(rng: &mut StdRng, n: usize, len: usize) -> Vec<Pair> {
    let mut seen = HashSet::with_capacity(len);
    let mut out = Vec::with_capacity(len);
    while out.len() < len {
        let pair = random_pair(rng, n);
        if seen.insert(canonical(pair)) {
            out.push(pair);
        }
    }
    out
}

/// `len` requests drawn zipf(`exponent`) over a seeded universe of
/// `universe` distinct pairs on `n` nodes.
pub fn zipf_pairs(n: usize, universe: usize, exponent: f64, len: usize, seed: u64) -> Vec<Pair> {
    let universe = distinct(&mut stream(seed, UNIVERSE_SALT), n, universe);
    let mut cdf = Vec::with_capacity(universe.len());
    let mut total = 0.0;
    for rank in 1..=universe.len() {
        total += (rank as f64).powf(-exponent);
        cdf.push(total);
    }
    let mut rng = stream(seed, ZIPF_SALT);
    (0..len)
        .map(|_| {
            let u = rng.gen::<f64>() * total;
            let rank = cdf.partition_point(|&c| c <= u).min(universe.len() - 1);
            universe[rank]
        })
        .collect()
}

/// `len` distinct, uniformly random pairs on `n` nodes: no pair repeats, so
/// a cache never hits.
pub fn distinct_pairs(n: usize, len: usize, seed: u64) -> Vec<Pair> {
    distinct(&mut stream(seed, COLD_SALT), n, len)
}

/// Length of the shortest prefix of `pairs` that holds `count` distinct
/// pairs (up to orientation), or `pairs.len()` if it never does.
pub fn prefix_with_distinct(pairs: &[Pair], count: usize) -> usize {
    let mut seen = HashSet::with_capacity(count);
    for (i, &pair) in pairs.iter().enumerate() {
        if seen.len() == count {
            return i;
        }
        seen.insert(canonical(pair));
    }
    pairs.len()
}

/// Whether burst `index` is a correctness checkpoint: about one burst in
/// `every`, chosen by the seed.
pub fn is_checkpoint(seed: u64, index: usize, every: u64) -> bool {
    let mut x =
        (seed ^ CHECK_SALT).wrapping_add((index as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15));
    x = rand::splitmix64(&mut x);
    x.is_multiple_of(every)
}

/// The endless, seeded mutation stream of `mutation_stream`.
///
/// Each burst inserts `inserts` random non-edges, deletes `deletes` edges an
/// earlier insert added (so a delete never disconnects the graph: what
/// remains always contains the connected base graph), then reads `reads`
/// distinct random pairs.
pub struct MutationStream<'g> {
    graph: &'g Graph,
    rng: StdRng,
    live: Vec<Pair>,
    live_set: HashSet<Pair>,
    inserts: usize,
    deletes: usize,
    reads: usize,
}

impl<'g> MutationStream<'g> {
    pub fn new(graph: &'g Graph, inserts: usize, deletes: usize, reads: usize, seed: u64) -> Self {
        MutationStream {
            graph,
            rng: stream(seed, MUTATION_SALT),
            live: Vec::new(),
            live_set: HashSet::new(),
            inserts,
            deletes,
            reads,
        }
    }

    fn is_edge(&self, (u, v): Pair) -> bool {
        self.graph.has_edge(u, v) || self.live_set.contains(&(u, v))
    }
}

impl Iterator for MutationStream<'_> {
    type Item = Burst;

    fn next(&mut self) -> Option<Burst> {
        let n = self.graph.num_nodes();
        let mut mutations = Vec::with_capacity(self.inserts + self.deletes);
        for _ in 0..self.inserts {
            let edge = loop {
                let edge = canonical(random_pair(&mut self.rng, n));
                if !self.is_edge(edge) {
                    break edge;
                }
            };
            self.live.push(edge);
            self.live_set.insert(edge);
            mutations.push(Mutation::Insert(edge.0, edge.1));
        }
        for _ in 0..self.deletes.min(self.live.len()) {
            let edge = self
                .live
                .swap_remove(self.rng.gen_range(0..self.live.len()));
            self.live_set.remove(&edge);
            mutations.push(Mutation::Delete(edge.0, edge.1));
        }
        let reads = distinct(&mut self.rng, n, self.reads);
        Some(Burst { mutations, reads })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use er_graph::generators;

    fn bursts(graph: &Graph, seed: u64, count: usize) -> Vec<Burst> {
        MutationStream::new(graph, 2, 1, 8, seed)
            .take(count)
            .collect()
    }

    #[test]
    fn one_seed_gives_one_sequence() {
        assert_eq!(
            zipf_pairs(500, 200, 1.0, 3000, 9),
            zipf_pairs(500, 200, 1.0, 3000, 9)
        );
        assert_eq!(distinct_pairs(500, 300, 9), distinct_pairs(500, 300, 9));
        let g = generators::barabasi_albert(400, 4, 3).unwrap();
        assert_eq!(bursts(&g, 9, 50), bursts(&g, 9, 50));
    }

    #[test]
    fn two_seeds_give_different_sequences() {
        assert_ne!(
            zipf_pairs(500, 200, 1.0, 3000, 9),
            zipf_pairs(500, 200, 1.0, 3000, 10)
        );
        assert_ne!(distinct_pairs(500, 300, 9), distinct_pairs(500, 300, 10));
        let g = generators::barabasi_albert(400, 4, 3).unwrap();
        assert_ne!(bursts(&g, 9, 50), bursts(&g, 10, 50));
    }

    #[test]
    fn distinct_pairs_never_repeat() {
        let pairs = distinct_pairs(60, 1000, 4);
        let keys: HashSet<Pair> = pairs.iter().map(|&p| canonical(p)).collect();
        assert_eq!(keys.len(), pairs.len());
        assert!(pairs.iter().all(|&(s, t)| s != t && s < 60 && t < 60));
    }

    #[test]
    fn zipf_prefix_reaches_the_requested_distinct_count() {
        let pairs = zipf_pairs(500, 400, 1.0, 20_000, 2);
        let len = prefix_with_distinct(&pairs, 100);
        let distinct_in = |end: usize| {
            pairs[..end]
                .iter()
                .map(|&p| canonical(p))
                .collect::<HashSet<Pair>>()
                .len()
        };
        assert_eq!(distinct_in(len), 100);
        assert_eq!(distinct_in(len - 1), 99, "the prefix is the shortest one");
    }

    #[test]
    fn mutations_insert_non_edges_and_delete_only_earlier_inserts() {
        let g = generators::barabasi_albert(300, 4, 5).unwrap();
        let mut live = HashSet::new();
        for burst in bursts(&g, 1, 200) {
            for m in burst.mutations {
                match m {
                    Mutation::Insert(u, v) => {
                        assert!(!g.has_edge(u, v));
                        assert!(live.insert((u, v)), "inserted a present edge");
                    }
                    Mutation::Delete(u, v) => {
                        assert!(live.remove(&(u, v)), "deleted an edge no insert added");
                    }
                }
            }
            assert_eq!(burst.reads.len(), 8);
        }
    }
}
