//! Property-based tests for the simulation engine invariants.

use iscope_dcsim::{EventQueue, Running, SimDuration, SimRng, SimTime};
use proptest::prelude::*;

proptest! {
    /// Events always pop in non-decreasing time order regardless of the
    /// insertion order, and equal-time events pop FIFO.
    #[test]
    fn event_queue_pops_sorted(times in proptest::collection::vec(0u64..10_000, 1..200)) {
        let mut q = EventQueue::new();
        for (i, &t) in times.iter().enumerate() {
            q.schedule(SimTime::from_millis(t), i);
        }
        let mut last: Option<(SimTime, usize)> = None;
        while let Some((t, i)) = q.pop() {
            if let Some((lt, li)) = last {
                prop_assert!(t >= lt);
                if t == lt {
                    prop_assert!(i > li, "FIFO violated at equal timestamps");
                }
            }
            last = Some((t, i));
        }
    }

    /// Re-priming `pending_events()` into a fresh queue (the resume path)
    /// reproduces the original firing sequence, equal-time ties included:
    /// after any interleaving of schedules and pops, the same follow-up
    /// schedules and pops on both queues yield the same `(time, payload)`
    /// sequence.
    #[test]
    fn pending_events_reprime_replays_the_run(
        before in proptest::collection::vec(0u64..6, 0..120),
        after in proptest::collection::vec(0u64..6, 0..60),
    ) {
        // An op below `POP` schedules at now + op ms, `POP` and above pop:
        // small offsets make equal-time ties common.
        const POP: u64 = 4;
        let mut q = EventQueue::new();
        let mut id = 0u32;
        for &op in &before {
            if op < POP {
                q.schedule(q.now() + SimDuration::from_millis(op), id);
                id += 1;
            } else {
                q.pop();
            }
        }
        let mut fresh = EventQueue::new();
        for (at, ev) in q.pending_events() {
            fresh.schedule(at, ev);
        }
        fresh.advance_to(q.now());
        for &op in &after {
            prop_assert_eq!(fresh.now(), q.now());
            if op < POP {
                let at = q.now() + SimDuration::from_millis(op);
                q.schedule(at, id);
                fresh.schedule(at, id);
                id += 1;
            } else {
                prop_assert_eq!(fresh.pop(), q.pop());
            }
        }
        let drain = |q: &mut EventQueue<u32>| std::iter::from_fn(|| q.pop()).collect::<Vec<_>>();
        prop_assert_eq!(drain(&mut fresh), drain(&mut q));
    }

    /// Welford mean/variance agree with the two-pass batch formulas.
    #[test]
    fn running_matches_two_pass(xs in proptest::collection::vec(-1e6f64..1e6, 2..500)) {
        let mut r = Running::new();
        for &x in &xs {
            r.push(x);
        }
        let n = xs.len() as f64;
        let mean = xs.iter().sum::<f64>() / n;
        let var = xs.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n;
        prop_assert!((r.mean() - mean).abs() <= 1e-6 * mean.abs().max(1.0));
        prop_assert!((r.variance() - var).abs() <= 1e-5 * var.abs().max(1.0));
    }

    /// Merging split accumulators equals accumulating the whole stream.
    #[test]
    fn running_merge_associative(
        xs in proptest::collection::vec(-1e3f64..1e3, 2..300),
        split in 0usize..300,
    ) {
        let split = split.min(xs.len());
        let mut whole = Running::new();
        for &x in &xs { whole.push(x); }
        let mut a = Running::new();
        let mut b = Running::new();
        for &x in &xs[..split] { a.push(x); }
        for &x in &xs[split..] { b.push(x); }
        a.merge(&b);
        prop_assert_eq!(a.count(), whole.count());
        prop_assert!((a.mean() - whole.mean()).abs() < 1e-6);
        prop_assert!((a.variance() - whole.variance()).abs() < 1e-4);
    }

    /// Samplers stay within their mathematical supports.
    #[test]
    fn sampler_supports(seed in any::<u64>()) {
        let mut rng = SimRng::new(seed);
        for _ in 0..100 {
            prop_assert!(rng.weibull(2.0, 8.0) >= 0.0);
            prop_assert!(rng.exponential(0.5) >= 0.0);
            prop_assert!(rng.lognormal(0.0, 1.0) > 0.0);
            let u = rng.uniform();
            prop_assert!((0.0..1.0).contains(&u));
        }
    }

    /// Derived RNG streams are reproducible and label-sensitive.
    #[test]
    fn derived_rng_reproducible(seed in any::<u64>(), label in "[a-z]{1,12}") {
        let mut a = SimRng::derive(seed, &label);
        let mut b = SimRng::derive(seed, &label);
        for _ in 0..16 {
            prop_assert_eq!(a.uniform().to_bits(), b.uniform().to_bits());
        }
    }

    /// sample_indices returns k distinct in-range indices for all valid k<=n.
    #[test]
    fn sample_indices_always_distinct(seed in any::<u64>(), n in 1usize..200, frac in 0.0f64..=1.0) {
        let k = ((n as f64) * frac) as usize;
        let mut rng = SimRng::new(seed);
        let ids = rng.sample_indices(n, k);
        prop_assert_eq!(ids.len(), k);
        let mut sorted = ids.clone();
        sorted.sort_unstable();
        sorted.dedup();
        prop_assert_eq!(sorted.len(), k);
        prop_assert!(ids.iter().all(|&i| i < n));
    }
}
