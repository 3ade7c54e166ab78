//! Zero-allocation regression test for the exact FedL projection — the
//! inner loop of every PGD backtrack in the regret comparator's
//! hindsight solve. The projection keeps no scratch at all: its passes
//! read the input in place, so even the first call must not touch the
//! heap, on the participation-only path and on the budget search alike.
//!
//! Kept to a single `#[test]` so no sibling test can allocate
//! concurrently while the measured region runs.

use fedl_linalg::alloc_counter::CountingAllocator;
use fedl_solver::FedlSet;

#[global_allocator]
static ALLOC: CountingAllocator = CountingAllocator::new();

/// Asserts that some execution of `run` allocates nothing. The libtest
/// harness's main thread can allocate concurrently with the measured
/// window (event plumbing), so a dirty window is retried — a hot loop
/// that genuinely allocates per call fails every attempt.
fn assert_allocation_free(what: &str, mut run: impl FnMut()) {
    for attempt in 0..5 {
        let allocs = ALLOC.allocations();
        let bytes = ALLOC.bytes();
        run();
        if ALLOC.allocations() == allocs && ALLOC.bytes() == bytes {
            return;
        }
        eprintln!("{what}: allocation in measured window (attempt {attempt}); retrying");
    }
    panic!("{what} allocated in every measured window");
}

#[test]
fn fedl_projection_is_allocation_free() {
    let k = 64;
    let costs: Vec<f64> = (0..k).map(|i| 0.5 + (i % 11) as f64).collect();
    let total: f64 = costs.iter().sum();
    // A slack cap (participation floor only) and a binding one (both
    // multipliers searched).
    let slack = FedlSet::new(&costs, 8, 2.0 * total, 6.0);
    let binding = FedlSet::new(&costs, 8, 20.0, 6.0);
    let mut v = vec![0.0f64; k + 1];
    let (mut floor_only, mut budget_searched) = (0, 0);

    assert_allocation_free("FedL projection", || {
        for round in 0..10u32 {
            for set in [&slack, &binding] {
                for (i, x) in v.iter_mut().enumerate() {
                    *x = 0.5 * ((i as u32 + round) as f64 / 5.0).cos() - 0.3;
                }
                let m = set.project_with_multipliers(&mut v);
                if m.budget > 0.0 {
                    budget_searched += 1;
                } else if m.participation > 0.0 {
                    floor_only += 1;
                }
            }
        }
    });
    assert!(floor_only > 0 && budget_searched > 0, "{floor_only} / {budget_searched}");
    // The last projection still lands in the binding set.
    let spend: f64 = v.iter().zip(&costs).map(|(x, c)| x * c).sum();
    assert!(v[..k].iter().all(|&x| (0.0..=1.0).contains(&x)));
    assert!(v[..k].iter().sum::<f64>() >= 8.0 - 1e-9);
    assert!(spend <= 20.0 + 1e-9, "spend {spend}");
}
