//! Property and stress tests for the scoped thread pool — the substrate
//! the deterministic parallel engine (reachability, state graphs,
//! sweeps, ablation batches) stands on.
//!
//! The contracts exercised here:
//! * `par_map` / `par_map_chunked` equal `Iterator::map` for every pool
//!   size, input length, and chunk size — order preserved, no items
//!   lost or duplicated;
//! * a panicking job poisons its scope: siblings still run, the panic
//!   surfaces at the `scope`/`par_map` call site, and the pool stays
//!   usable afterwards;
//! * nested scopes never deadlock, even on a pool of size 1, because a
//!   waiting scope helps run queued work.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};

use a4a_rt::prop::check_with;
use a4a_rt::{Config, Pool};

#[test]
fn par_map_equals_map_for_random_inputs() {
    check_with(&Config::with_cases(64), "par_map_equals_map", |g| {
        let threads = g.usize(1..9);
        let len = g.usize(0..257);
        let pool = Pool::new(threads);
        let items: Vec<u64> = (0..len as u64).map(|i| i.wrapping_mul(g.any_u64())).collect();
        let expected: Vec<u64> = items
            .iter()
            .map(|x| x.wrapping_mul(2654435761).rotate_left(7))
            .collect();
        let got = pool.par_map(items, |x| x.wrapping_mul(2654435761).rotate_left(7));
        if got != expected {
            return Err(a4a_rt::PropError::Fail(format!(
                "threads={threads} len={len}: par_map differs from map"
            )));
        }
        Ok(())
    });
}

#[test]
fn par_map_chunked_equals_map_for_random_chunk_sizes() {
    check_with(&Config::with_cases(64), "par_map_chunked_equals_map", |g| {
        let threads = g.usize(1..9);
        let len = g.usize(0..129);
        // Chunk sizes from degenerate (1) through larger-than-input.
        let chunk = g.usize(1..(len + 8));
        let pool = Pool::new(threads);
        let items: Vec<usize> = (0..len).collect();
        let expected: Vec<usize> = items.iter().map(|x| x * 3 + 1).collect();
        let got = pool.par_map_chunked(chunk, items, |x| x * 3 + 1);
        if got != expected {
            return Err(a4a_rt::PropError::Fail(format!(
                "threads={threads} len={len} chunk={chunk}: chunked map differs"
            )));
        }
        Ok(())
    });
}

#[test]
fn par_map_range_equals_map_for_random_ranges() {
    check_with(&Config::with_cases(64), "par_map_range_equals_map", |g| {
        let threads = g.usize(1..9);
        let start = g.usize(0..100);
        let len = g.usize(0..257);
        let pool = Pool::new(threads);
        let expected: Vec<usize> = (start..start + len).map(|i| i * 7 + 3).collect();
        let got = pool.par_map_range(start..start + len, |i| i * 7 + 3);
        if got != expected {
            return Err(a4a_rt::PropError::Fail(format!(
                "threads={threads} start={start} len={len}: par_map_range differs"
            )));
        }
        Ok(())
    });
}

#[test]
fn par_map_range_borrows_without_cloning() {
    // The whole point of the range variant: index into shared state
    // instead of cloning the frontier into the pool.
    let arena: Vec<String> = (0..100).map(|i| format!("s{i}")).collect();
    for threads in [1, 2, 8] {
        let got = Pool::new(threads).par_map_range(10..90, |i| arena[i].len());
        let want: Vec<usize> = (10..90).map(|i| arena[i].len()).collect();
        assert_eq!(got, want, "t{threads}");
    }
}

#[test]
fn par_map_panic_propagates_and_pool_survives() {
    for threads in [1, 2, 8] {
        let pool = Pool::new(threads);
        let result = catch_unwind(AssertUnwindSafe(|| {
            pool.par_map((0..64u32).collect::<Vec<_>>(), |x| {
                if x == 37 {
                    panic!("boom on {x}");
                }
                x
            })
        }));
        assert!(result.is_err(), "t{threads}: panic must reach the caller");
        // The pool is not torn down by a poisoned scope: the next map on
        // the same pool still works and is still ordered.
        let ok = pool.par_map((0..64u32).collect::<Vec<_>>(), |x| x + 1);
        assert_eq!(ok, (1..65).collect::<Vec<u32>>(), "t{threads}: reuse");
    }
}

#[test]
fn scope_panic_runs_siblings_to_completion() {
    for threads in [1, 2, 4] {
        let pool = Pool::new(threads);
        let done = AtomicUsize::new(0);
        let result = catch_unwind(AssertUnwindSafe(|| {
            pool.scope(|s| {
                for i in 0..32 {
                    let done = &done;
                    s.spawn(move || {
                        if i == 5 {
                            panic!("poison");
                        }
                        done.fetch_add(1, Ordering::Relaxed);
                    });
                }
            })
        }));
        assert!(result.is_err(), "t{threads}: scope must panic");
        // Poisoning is deferred: every sibling job ran before the scope
        // surfaced the panic.
        assert_eq!(done.load(Ordering::Relaxed), 31, "t{threads}: siblings");
    }
}

#[test]
fn nested_scopes_do_not_deadlock_on_tiny_pools() {
    for threads in [1, 2] {
        let pool = Pool::new(threads);
        let count = AtomicUsize::new(0);
        pool.scope(|outer| {
            for _ in 0..4 {
                let count = &count;
                let pool_ref = &pool;
                outer.spawn(move || {
                    pool_ref.scope(|inner| {
                        for _ in 0..4 {
                            inner.spawn(move || {
                                count.fetch_add(1, Ordering::Relaxed);
                            });
                        }
                    });
                });
            }
        });
        assert_eq!(count.load(Ordering::Relaxed), 16, "t{threads}");
    }
}

#[test]
fn nested_par_map_is_correct() {
    for threads in [1, 2, 8] {
        let pool = Pool::new(threads);
        let got = pool.par_map((0..16u64).collect::<Vec<_>>(), |i| {
            // Each outer item runs an inner map on the same pool.
            pool.par_map((0..8u64).collect::<Vec<_>>(), |j| i * 100 + j)
                .iter()
                .sum::<u64>()
        });
        let want: Vec<u64> = (0..16u64)
            .map(|i| (0..8u64).map(|j| i * 100 + j).sum())
            .collect();
        assert_eq!(got, want, "t{threads}");
    }
}

#[test]
fn results_are_identical_across_pool_sizes() {
    // The determinism contract in one line: the same input and closure
    // give byte-identical output on every pool size.
    let items: Vec<u64> = (0..500).collect();
    let baseline = Pool::new(1).par_map(items.clone(), |x| x.wrapping_mul(x) ^ 0xA4A);
    for threads in [2, 3, 8] {
        let got = Pool::new(threads).par_map(items.clone(), |x| x.wrapping_mul(x) ^ 0xA4A);
        assert_eq!(got, baseline, "t{threads}");
    }
}

#[test]
fn pools_shut_down_without_hanging() {
    // A worker between its shutdown check and its wait must still be
    // woken by `Drop for Pool`, or `join` blocks forever. The window is
    // narrow: 20 000 short-lived pools hung the unlocked version in 5 of
    // 6 runs. A watchdog turns a hang into a failure.
    let (done_tx, done_rx) = std::sync::mpsc::channel();
    let churn = std::thread::spawn(move || {
        for i in 0..20_000u64 {
            let pool = Pool::new(2 + (i % 3) as usize);
            let got = pool.par_map_range(0..4, |j| j as u64 + i);
            assert_eq!(got, (0..4).map(|j| j + i).collect::<Vec<u64>>());
            drop(pool);
        }
        done_tx.send(()).expect("watchdog is waiting");
    });
    let outcome = done_rx.recv_timeout(std::time::Duration::from_secs(120));
    assert!(
        !matches!(outcome, Err(std::sync::mpsc::RecvTimeoutError::Timeout)),
        "creating and dropping pools hung (lost shutdown wake-up)"
    );
    churn.join().expect("pool churn panicked");
}
