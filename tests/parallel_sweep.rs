//! The work-stealing pool's contract with the simulator: parallel
//! `par_iter().map().collect()` must be byte-identical to a sequential
//! loop for any input and any thread count, and a panicking cell must
//! reach the caller — never hang the pool or silently drop other cells.

use iscope::experiments::{sweep, sweep_sequential, ThreadPoolBuilder};
use iscope::GreenDatacenterSim;
use iscope_sched::Scheme;
use proptest::prelude::*;
use rayon::prelude::*;

fn pool(threads: usize) -> iscope::experiments::ThreadPool {
    ThreadPoolBuilder::new()
        .num_threads(threads)
        .build()
        .expect("pool build cannot fail")
}

/// A cheap but order-sensitive cell function: any misrouted index or
/// dropped cell changes the output bytes.
fn mix(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E3779B97F4A7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
    z ^ (z >> 31)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Arbitrary inputs × arbitrary thread counts: the parallel map must
    /// collect exactly the sequential result, byte for byte.
    #[test]
    fn par_map_collect_is_byte_identical_to_sequential(
        xs in proptest::collection::vec(any::<u64>(), 0..300),
        threads in 1usize..9,
    ) {
        let seq: Vec<u64> = xs.iter().map(|&x| mix(x)).collect();
        let par: Vec<u64> =
            pool(threads).install(|| xs.par_iter().map(|&x| mix(x)).collect());
        prop_assert_eq!(par, seq);
    }

    /// Same through the sweep API the experiments actually call, with a
    /// string payload so result routing (not just arithmetic) is tested.
    #[test]
    fn sweep_is_byte_identical_to_sequential(
        xs in proptest::collection::vec(any::<u32>(), 0..64),
        threads in 1usize..6,
    ) {
        let cell = |&x: &u32| format!("{}:{}", x, mix(x as u64));
        let seq = sweep_sequential(&xs, cell);
        let par = pool(threads).install(|| sweep(&xs, cell));
        prop_assert_eq!(par, seq);
    }
}

/// Full simulation cells (the real payload): reports must match the
/// sequential sweep field-for-field on real worker threads.
#[test]
fn simulation_sweep_matches_sequential_on_worker_threads() {
    let params = [Scheme::BinRan, Scheme::ScanEffi, Scheme::ScanFair];
    let cell = |scheme: &Scheme| {
        GreenDatacenterSim::builder()
            .fleet_size(24)
            .synthetic_jobs(30)
            .scheme(*scheme)
            .seed(7)
            .build()
            .run()
    };
    let seq = sweep_sequential(&params, cell);
    for threads in [2, 4] {
        let par = pool(threads).install(|| sweep(&params, cell));
        assert_eq!(par.len(), seq.len());
        for (a, b) in par.iter().zip(&seq) {
            assert_eq!(a.scheme, b.scheme);
            assert_eq!(a.ledger, b.ledger, "{threads} threads changed the ledger");
            assert_eq!(a.deadline_misses, b.deadline_misses);
            assert_eq!(a.usage_hours, b.usage_hours);
        }
    }
}

/// A panicking cell must propagate to the caller as a panic — not hang
/// the join, not yield a truncated result vector.
#[test]
fn panicking_cell_propagates_and_does_not_hang() {
    let xs: Vec<u64> = (0..97).collect();
    let result = std::panic::catch_unwind(|| {
        pool(4).install(|| {
            let _: Vec<u64> = xs
                .par_iter()
                .map(|&x| {
                    if x == 41 {
                        panic!("cell 41 exploded")
                    } else {
                        mix(x)
                    }
                })
                .collect();
        })
    });
    assert!(result.is_err(), "the cell panic must reach the caller");
    // The pool must still be usable afterwards (no poisoned state).
    let ok: Vec<u64> = pool(4).install(|| xs.par_iter().map(|&x| mix(x)).collect());
    assert_eq!(ok.len(), xs.len());
}

/// The panic must also propagate when it fires on the caller's own
/// sequential path (1 thread) — same surface, same contract.
#[test]
fn panicking_cell_propagates_sequentially_too() {
    let xs = [1u64, 2, 3];
    let result = std::panic::catch_unwind(|| {
        pool(1).install(|| {
            let _: Vec<u64> = xs
                .par_iter()
                .map(|&x| if x == 2 { panic!() } else { x })
                .collect();
        })
    });
    assert!(result.is_err());
}

/// Regression for a lock-order deadlock in the work-stealing loop: two
/// idle workers stealing from each other must never wait on each other's
/// deque locks. Many tiny sweeps at 2–8 workers maximise idle stealing;
/// the sweeps run on a spawned thread so a hang fails this test after the
/// timeout instead of stalling the whole suite.
#[test]
fn many_tiny_sweeps_never_deadlock() {
    let (done, finished) = std::sync::mpsc::channel();
    let sweeps = std::thread::spawn(move || {
        for round in 0..200u64 {
            for threads in 2..=8 {
                let xs: Vec<u64> = (0..(round % 13)).map(|x| x + round).collect();
                let seq: Vec<u64> = xs.iter().map(|&x| mix(x)).collect();
                let par: Vec<u64> =
                    pool(threads).install(|| xs.par_iter().map(|&x| mix(x)).collect());
                assert_eq!(par, seq, "round {round}, {threads} threads");
            }
        }
        done.send(())
            .expect("watchdog receiver outlives the sweeps");
    });
    match finished.recv_timeout(std::time::Duration::from_secs(120)) {
        Err(std::sync::mpsc::RecvTimeoutError::Timeout) => {
            panic!("work-stealing sweeps deadlocked: no result within the watchdog timeout")
        }
        // Finished, or panicked before sending: joining surfaces the panic.
        _ => sweeps.join().expect("sweep thread panicked"),
    }
}
