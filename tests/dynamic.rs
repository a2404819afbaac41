//! Incremental dynamic serving: the refresh contract (a full rebuild is
//! bit-identical to a cold build and drops carried state, whichever read
//! triggers it) and epoch-swap concurrency semantics. `tests/conformance.rs`
//! checks the carried state's answers against ground truth.

use std::sync::Arc;

use effective_resistance::graph::{generators, transform};
use effective_resistance::{Accuracy, ApproxConfig, DynamicResistanceService, Query, Request};

fn config() -> ApproxConfig {
    ApproxConfig::with_epsilon(0.05)
}

/// After the K-th mutation the refresh is a full cold rebuild: answers are
/// bit-identical to a service built from scratch on the mutated graph.
#[test]
fn full_refresh_is_bit_identical_to_cold_rebuild() {
    let g = generators::social_network_like(150, 8.0, 4).unwrap();
    let dynamic = DynamicResistanceService::from_graph(&g, config()).with_refresh_interval(4);
    dynamic.resistance(0, 75).unwrap();
    assert_eq!(dynamic.snapshot_full_rebuilds(), 1, "initial build is full");

    let inserts = [(0usize, 75usize), (10, 90), (20, 100)];
    let removed = g.edges().nth(7).unwrap();
    for &(u, v) in &inserts {
        assert!(dynamic.insert_edge(u, v).unwrap());
    }
    assert!(dynamic.remove_edge(removed.0, removed.1).unwrap());

    // Fourth mutation reaches the refresh interval: the next snapshot is a
    // full rebuild, dropping all carried and warm state.
    dynamic.refresh().unwrap();
    assert_eq!(dynamic.snapshot_full_rebuilds(), 2);

    let mutated = transform::add_edges(&g, &inserts).unwrap();
    let mutated = transform::remove_edges(&mutated, &[removed]).unwrap();
    let cold = DynamicResistanceService::from_graph(&mutated, config());
    for &(s, t) in &[(0usize, 75usize), (5, 120), (33, 140), (20, 100)] {
        let warm_bits = dynamic.resistance(s, t).unwrap().to_bits();
        let cold_bits = cold.resistance(s, t).unwrap().to_bits();
        assert_eq!(warm_bits, cold_bits, "({s}, {t}) must match a cold build");
    }
}

/// A full rebuild that a ground-truth read triggers drops the carried INDEX
/// state just as one that a query triggers does: the next `Exact` pair on
/// the source is solved afresh by CG, not answered from state chained
/// through a rank-1 update across the rebuild.
#[test]
fn rebuild_triggered_by_resistance_exact_drops_carried_state() {
    let g = generators::social_network_like(80, 6.0, 9).unwrap();
    let dynamic = DynamicResistanceService::from_graph(&g, config()).with_refresh_interval(2);
    let s = 3;
    let row = dynamic
        .submit(&Request::new(Query::single_source(s)))
        .unwrap();
    assert_eq!(row.backend, "INDEX");
    assert!(dynamic.insert_edge(1, 41).unwrap());
    assert!(dynamic.insert_edge(2, 42).unwrap());
    assert_eq!(dynamic.sm_updates(), 2, "INDEX state is carried");
    // The second mutation reached the interval: this read's refresh is full.
    dynamic.resistance_exact(0, 40).unwrap();
    assert_eq!(dynamic.snapshot_full_rebuilds(), 2);
    assert!(dynamic.insert_edge(4, 44).unwrap());

    let exact = dynamic
        .submit(&Request::new(Query::pair(s, 50)).with_accuracy(Accuracy::Exact))
        .unwrap();
    assert_eq!(exact.backend, "EXACT-CG");
    assert_eq!(dynamic.sm_updates(), 2, "nothing carried past the rebuild");
}

/// Two services fed the same queries carry the same INDEX columns through a
/// Sherman–Morrison update, so their post-mutation answers agree bit for
/// bit. 70 sources overflow the 64-column cache, so this pins the eviction
/// rule as well as the carry.
#[test]
fn carried_index_state_is_identical_across_runs() {
    let g = generators::social_network_like(300, 8.0, 4).unwrap();
    let replay = || {
        let dynamic = DynamicResistanceService::from_graph(&g, config());
        let mut bits = Vec::new();
        let mut rows = || {
            for s in 0..70 {
                let row = dynamic
                    .submit(&Request::new(Query::single_source(s)))
                    .unwrap();
                bits.extend(row.values.iter().map(|v| v.to_bits()));
            }
        };
        rows();
        assert!(dynamic.insert_edge(0, 5).unwrap());
        rows();
        assert!(dynamic.sm_updates() > 0, "INDEX state is carried");
        bits
    };
    assert!(
        replay() == replay(),
        "post-mutation rows differ between runs"
    );
}

/// Readers pinned on an old epoch keep answering bit-identically at the old
/// version while a mutation burst lands; new admissions see the new version.
fn epoch_swap_with_pinned_readers(threads: usize) {
    let g = generators::social_network_like(120, 7.0, 3).unwrap();
    let dynamic = DynamicResistanceService::from_graph(&g, config());
    dynamic.resistance(1, 60).unwrap();
    let pinned = dynamic.epoch().expect("first query installed an epoch");
    let v0 = pinned.version();
    let request = Request::new(Query::pair(1, 60)).with_accuracy(config().into());
    let baseline = pinned.service().submit(&request).unwrap().value();

    std::thread::scope(|scope| {
        for _ in 0..threads {
            let pinned = Arc::clone(&pinned);
            let request = &request;
            scope.spawn(move || {
                for _ in 0..25 {
                    let value = pinned.service().submit(request).unwrap().value();
                    assert_eq!(
                        value.to_bits(),
                        baseline.to_bits(),
                        "pinned epoch must keep serving old-version bits"
                    );
                }
            });
        }
        // Concurrent mutation burst with interleaved fresh admissions: every
        // submit completes (stale epoch serves if the updater is busy).
        for i in 0..8usize {
            dynamic.insert_edge(i, 60 + i).unwrap_or(false);
            dynamic.submit(&request).unwrap();
        }
    });

    assert_eq!(pinned.version(), v0, "pinned epoch never changes version");
    dynamic.resistance(1, 60).unwrap();
    let fresh = dynamic.epoch().unwrap();
    assert!(
        fresh.version() > v0,
        "new admissions must see the post-burst version"
    );
}

#[test]
fn epoch_swap_single_reader() {
    epoch_swap_with_pinned_readers(1);
}

#[test]
fn epoch_swap_two_readers() {
    epoch_swap_with_pinned_readers(2);
}

#[test]
fn epoch_swap_eight_readers() {
    epoch_swap_with_pinned_readers(8);
}
