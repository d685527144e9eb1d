//! Property-based tests for placement policies: for arbitrary pool states
//! every policy returns valid, blocked-respecting, width-correct sets, and
//! feasibility claims are honest.

use iscope_dcsim::{SimDuration, SimRng, SimTime};
use iscope_pvmodel::{ChipId, CpuBoundness, DvfsConfig, Fleet, OperatingPlan, VariationParams};
use iscope_sched::{
    ChipIndexes, EfficiencyPlacement, FairPlacement, PlaceScratch, Placement, ProcView,
    RandomPlacement,
};
use iscope_workload::{Job, JobId, Urgency};
use proptest::prelude::*;

const POOL: usize = 24;

#[derive(Debug, Clone)]
struct PoolState {
    avail_s: Vec<u32>,
    usage_s: Vec<u32>,
    blocked: Vec<bool>,
}

fn pool_strategy() -> impl Strategy<Value = PoolState> {
    (
        proptest::collection::vec(0u32..5000, POOL),
        proptest::collection::vec(0u32..100_000, POOL),
        proptest::collection::vec(any::<bool>(), POOL),
    )
        .prop_map(|(avail_s, usage_s, mut blocked)| {
            // Keep at least half the pool in service.
            let mut blocked_count = blocked.iter().filter(|&&b| b).count();
            for b in blocked.iter_mut() {
                if blocked_count <= POOL / 2 {
                    break;
                }
                if *b {
                    *b = false;
                    blocked_count -= 1;
                }
            }
            PoolState {
                avail_s,
                usage_s,
                blocked,
            }
        })
}

fn fleet() -> Fleet {
    Fleet::generate(
        POOL,
        DvfsConfig::paper_default(),
        &VariationParams::default(),
        77,
    )
}

fn job(cpus: u32, runtime_s: u32, deadline_s: u32) -> Job {
    Job {
        id: JobId(0),
        submit: SimTime::ZERO,
        cpus,
        runtime_at_fmax: SimDuration::from_secs(runtime_s as u64),
        gamma: CpuBoundness::FULL,
        deadline: SimTime::from_secs(deadline_s as u64),
        urgency: Urgency::Low,
    }
}

/// Heavy-blocking regression: with two thirds of the pool out of
/// service, random placement must still find the feasible set that
/// exists (the 8 idle unblocked chips) instead of exhausting its
/// retries on blocked draws and degrading to an infeasible answer.
#[test]
fn random_placement_survives_heavy_blocking() {
    let f = fleet();
    let plan = OperatingPlan::oracle(&f);
    let avail = vec![SimTime::ZERO; POOL];
    let usage = vec![SimDuration::ZERO; POOL];
    let blocked: Vec<bool> = (0..POOL).map(|i| i >= POOL / 3).collect();
    let j = job(8, 100, 1_000_000);
    let scratch = PlaceScratch::default();
    let view = ProcView {
        now: SimTime::ZERO,
        avail: &avail,
        usage: &usage,
        plan: &plan,
        dvfs: &f.dvfs,
        blocked: &blocked,
        in_service: blocked.iter().filter(|&&b| !b).count(),
        index: None,
        scratch: &scratch,
    };
    for seed in 0..64 {
        let mut rng = SimRng::new(seed);
        let d = RandomPlacement.place(&j, &view, false, &mut rng);
        assert!(
            d.is_feasible(),
            "seed {seed}: feasible set exists but was missed"
        );
        assert!(
            d.chips().iter().all(|&c| !blocked[c.0 as usize]),
            "seed {seed}: blocked chip chosen"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Structural invariants: right width, distinct chips, no blocked
    /// chips, and `Feasible` only when the deadline actually holds.
    #[test]
    fn placements_are_valid(
        state in pool_strategy(),
        cpus in 1u32..=8,
        runtime_s in 10u32..5000,
        deadline_s in 10u32..20_000,
        surplus in any::<bool>(),
        seed in any::<u64>(),
    ) {
        let f = fleet();
        let plan = OperatingPlan::oracle(&f);
        let avail: Vec<SimTime> = state.avail_s.iter().map(|&s| SimTime::from_secs(s as u64)).collect();
        let usage: Vec<SimDuration> = state.usage_s.iter().map(|&s| SimDuration::from_secs(s as u64)).collect();
        let j = job(cpus, runtime_s, deadline_s);
        let scratch = PlaceScratch::default();
        let mut rng = SimRng::new(seed);
        for policy in [
            &RandomPlacement as &dyn Placement,
            &EfficiencyPlacement,
            &FairPlacement,
        ] {
            let view = ProcView {
                now: SimTime::ZERO,
                avail: &avail,
                usage: &usage,
                plan: &plan,
                dvfs: &f.dvfs,
                blocked: &state.blocked,
                in_service: state.blocked.iter().filter(|&&b| !b).count(),
                index: None,
                scratch: &scratch,
            };
            let d = policy.place(&j, &view, surplus, &mut rng);
            let chips = d.chips();
            prop_assert_eq!(chips.len(), cpus as usize, "{}", policy.name());
            let mut sorted: Vec<u32> = chips.iter().map(|c| c.0).collect();
            sorted.sort_unstable();
            sorted.dedup();
            prop_assert_eq!(sorted.len(), cpus as usize, "{}: duplicates", policy.name());
            prop_assert!(
                chips.iter().all(|&c| !state.blocked[c.0 as usize]),
                "{}: blocked chip chosen", policy.name()
            );
            if d.is_feasible() {
                prop_assert!(
                    view.meets_deadline(&j, chips),
                    "{}: feasible claim is false", policy.name()
                );
            }
        }
    }

    /// When an idle, unblocked pool exists and the deadline is generous,
    /// every policy finds a feasible placement.
    #[test]
    fn generous_deadlines_are_always_feasible(
        cpus in 1u32..=8,
        surplus in any::<bool>(),
        seed in any::<u64>(),
    ) {
        let f = fleet();
        let plan = OperatingPlan::oracle(&f);
        let avail = vec![SimTime::ZERO; POOL];
        let usage = vec![SimDuration::ZERO; POOL];
        let blocked = vec![false; POOL];
        let j = job(cpus, 100, 1_000_000);
        let scratch = PlaceScratch::default();
        let mut rng = SimRng::new(seed);
        for policy in [
            &RandomPlacement as &dyn Placement,
            &EfficiencyPlacement,
            &FairPlacement,
        ] {
            let view = ProcView {
                now: SimTime::ZERO,
                avail: &avail,
                usage: &usage,
                plan: &plan,
                dvfs: &f.dvfs,
                blocked: &blocked,
                in_service: blocked.iter().filter(|&&b| !b).count(),
                index: None,
                scratch: &scratch,
            };
            let d = policy.place(&j, &view, surplus, &mut rng);
            prop_assert!(d.is_feasible(), "{}", policy.name());
        }
    }

    /// Effi is deterministic; Fair under scarcity equals Effi exactly.
    #[test]
    fn effi_is_deterministic_and_fair_degenerates(
        state in pool_strategy(),
        cpus in 1u32..=6,
        seed in any::<u64>(),
    ) {
        let f = fleet();
        let plan = OperatingPlan::oracle(&f);
        let avail: Vec<SimTime> = state.avail_s.iter().map(|&s| SimTime::from_secs(s as u64)).collect();
        let usage: Vec<SimDuration> = state.usage_s.iter().map(|&s| SimDuration::from_secs(s as u64)).collect();
        let j = job(cpus, 60, 50_000);
        let scratch = PlaceScratch::default();
        let view = || ProcView {
            now: SimTime::ZERO,
            avail: &avail,
            usage: &usage,
            plan: &plan,
            dvfs: &f.dvfs,
            blocked: &state.blocked,
            in_service: state.blocked.iter().filter(|&&b| !b).count(),
            index: None,
            scratch: &scratch,
        };
        let mut rng = SimRng::new(seed);
        let a = EfficiencyPlacement.place(&j, &view(), false, &mut rng);
        let b = EfficiencyPlacement.place(&j, &view(), false, &mut rng);
        prop_assert_eq!(a.chips(), b.chips(), "Effi must ignore the RNG");
        let c = FairPlacement.place(&j, &view(), false, &mut rng);
        prop_assert_eq!(a.chips(), c.chips(), "Fair without surplus is Effi");
    }

    /// Indexed and linear candidate extraction agree decision for
    /// decision: the same arbitrary pool state (busy/idle mix, skewed
    /// usage, blocked chips) driven through every policy in both surplus
    /// modes must place identically whether or not the view carries a
    /// [`ChipIndexes`], with identical RNG consumption. In debug builds
    /// the indexed leg additionally cross-checks itself in the dispatch.
    #[test]
    fn indexed_extraction_matches_linear(
        state in pool_strategy(),
        cpus in 1u32..=8,
        runtime_s in 10u32..5000,
        deadline_s in 10u32..20_000,
        surplus in any::<bool>(),
        seed in any::<u64>(),
    ) {
        let f = fleet();
        let plan = OperatingPlan::oracle(&f);
        let avail: Vec<SimTime> = state.avail_s.iter().map(|&s| SimTime::from_secs(s as u64)).collect();
        let usage: Vec<SimDuration> = state.usage_s.iter().map(|&s| SimDuration::from_secs(s as u64)).collect();
        let j = job(cpus, runtime_s, deadline_s);
        let scratch = PlaceScratch::default();
        let mut idx = ChipIndexes::new(POOL);
        for (i, &u) in usage.iter().enumerate() {
            idx.set_usage(ChipId(i as u32), u);
        }
        // Decisions run at now = 0, so every chip's stored avail is
        // `>= now` and any busy/idle split reproduces the clamped order;
        // declare the chips with future reservations busy.
        idx.rebuild_avail(&avail, |i| avail[i] > SimTime::ZERO);
        let in_service = state.blocked.iter().filter(|&&b| !b).count();
        for policy in [
            &RandomPlacement as &dyn Placement,
            &EfficiencyPlacement,
            &FairPlacement,
        ] {
            let mk_view = |index| ProcView {
                now: SimTime::ZERO,
                avail: &avail,
                usage: &usage,
                plan: &plan,
                dvfs: &f.dvfs,
                blocked: &state.blocked,
                in_service,
                index,
                scratch: &scratch,
            };
            let mut rng_linear = SimRng::new(seed);
            let mut rng_indexed = SimRng::new(seed);
            let linear = policy.place(&j, &mk_view(None), surplus, &mut rng_linear);
            let indexed = policy.place(&j, &mk_view(Some(&idx)), surplus, &mut rng_indexed);
            prop_assert_eq!(&linear, &indexed, "{} diverged", policy.name());
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(200))]

    /// The indexed walks against the linear ones over fleets several
    /// 64-position ranking blocks long (the last block partial), at
    /// `now = 0` or later, with idle, queued and blocked chips mixed.
    /// Each case runs sixteen rounds of three arrivals (Effi, Fair in
    /// surplus, Fair in scarcity), applying one decision and advancing
    /// the clock (queues that drain go idle and gain usage) between
    /// rounds, so the ranking blocks follow placements and drains as they
    /// do in a run. Between rounds the index also takes a queue replay
    /// (`rebuild_avail` with a few chips changed and the rest as they
    /// were) and a re-scan (`set_ranking` with one chip moved across
    /// several blocks). The clock sometimes stops exactly on a drain
    /// instant and leaves that chip busy, so an occupied chip ties the
    /// drained ones at `now`. Widths include zero. Chips at the doubling
    /// boundaries of each arrival's width are blocked, so blocked chips
    /// sit inside partial first and last chunks of a round. Latest starts
    /// fall before `now`, exactly on a chip's drain instant, after every
    /// chip, or in between, so the latest-start bound cuts every way
    /// through the walks. In debug builds every walk also checks each
    /// ranking block against the chips' availability state.
    #[test]
    fn multi_block_walks_match_linear(
        chips in 130usize..=400,
        seed in any::<u64>(),
    ) {
        let chips = if chips % 64 == 0 { chips + 1 } else { chips };
        let f = Fleet::generate(
            chips,
            DvfsConfig::paper_default(),
            &VariationParams::default(),
            77,
        );
        let mut plan = OperatingPlan::oracle(&f);
        let mut rng = SimRng::new(seed);
        let mut now_ms = if rng.chance(0.2) {
            0
        } else {
            3_600_000 + rng.index(3_600_000) as u64
        };
        // A loaded fleet has whole blocks without an idle chip.
        let idle_share = [0.0, 0.02, 0.3][rng.index(3)];
        let mut avail: Vec<SimTime> = (0..chips)
            .map(|_| {
                let ms = if rng.chance(idle_share) {
                    now_ms.saturating_sub(rng.index(3_600_000) as u64)
                } else {
                    now_ms + 1 + rng.index(7_200_000) as u64
                };
                SimTime::from_millis(ms)
            })
            .collect();
        let mut busy: Vec<bool> = avail.iter().map(|a| a.as_millis() > now_ms).collect();
        let mut usage: Vec<SimDuration> = (0..chips)
            .map(|_| SimDuration::from_millis(rng.index(36_000_000) as u64))
            .collect();
        let scattered: Vec<bool> = (0..chips).map(|_| rng.chance(0.15)).collect();
        let mut idx = ChipIndexes::new(chips);
        for (i, &u) in usage.iter().enumerate() {
            idx.set_usage(ChipId(i as u32), u);
        }
        idx.rebuild_avail(&avail, |i| busy[i]);
        idx.set_ranking(plan.ranking());
        let scratch = PlaceScratch::default();
        for step in 0..16 {
            // One arrival per policy, each with its own width and latest
            // start, so a walk meets the blocks the walk before it left.
            let mut blocked = scattered.clone();
            let mut in_service = blocked.iter().filter(|&&b| !b).count();
            let widths: Vec<usize> = (0..3)
                .map(|_| if rng.chance(0.1) { 0 } else { 1 + rng.index(48) })
                .collect();
            for &w in &widths {
                // Block the chips on both sides of each doubling
                // boundary, while enough chips stay in service.
                let mut k = w.max(1);
                while k < chips {
                    for p in [k - 1, k] {
                        let c = plan.ranking()[p].0 as usize;
                        if in_service > 64 && !blocked[c] && rng.chance(0.5) {
                            blocked[c] = true;
                            in_service -= 1;
                        }
                    }
                    k *= 2;
                }
            }
            let mut drains: Vec<u64> = (0..chips)
                .filter(|&i| !blocked[i])
                .map(|i| avail[i].as_millis().max(now_ms))
                .collect();
            drains.sort_unstable();
            let mut arrivals = Vec::new();
            for &w in &widths {
                let runtime_ms = 60_000 + rng.index(3_600_000) as u64;
                let deadline_ms = match rng.index(4) {
                    // Latest start before `now`, or before time zero.
                    0 => rng.index((now_ms + runtime_ms) as usize) as u64,
                    // Exactly on a chip's (clamped) drain instant, near
                    // the `w`-th earliest so the walk has to go deep.
                    1 => drains[rng.index(drains.len().min(2 * w + 8))] + runtime_ms,
                    // After every chip drains.
                    2 => avail.iter().map(|a| a.as_millis()).max().unwrap_or(0).max(now_ms)
                        + 1 + rng.index(600_000) as u64 + runtime_ms,
                    _ => now_ms + rng.index(7_200_000) as u64 + runtime_ms,
                };
                arrivals.push(Job {
                    deadline: SimTime::from_millis(deadline_ms),
                    runtime_at_fmax: SimDuration::from_millis(runtime_ms),
                    ..job(w as u32, 0, 0)
                });
            }
            let mut decisions = Vec::new();
            {
                let mk_view = |index| ProcView {
                    now: SimTime::from_millis(now_ms),
                    avail: &avail,
                    usage: &usage,
                    plan: &plan,
                    dvfs: &f.dvfs,
                    blocked: &blocked,
                    in_service,
                    index,
                    scratch: &scratch,
                };
                for ((policy, surplus), j) in [
                    (&EfficiencyPlacement as &dyn Placement, false),
                    (&FairPlacement, true),
                    (&FairPlacement, false),
                ]
                .into_iter()
                .zip(&arrivals)
                {
                    let mut rng_linear = SimRng::new(seed);
                    let mut rng_indexed = SimRng::new(seed);
                    let linear = policy.place(j, &mk_view(None), surplus, &mut rng_linear);
                    let indexed = policy.place(j, &mk_view(Some(&idx)), surplus, &mut rng_indexed);
                    prop_assert_eq!(
                        &linear, &indexed,
                        "{} (surplus {}) diverged at step {}", policy.name(), surplus, step
                    );
                    decisions.push(indexed);
                }
            }
            // Queue the gang as the simulator does: every chip drains when
            // the gang that starts on the latest of them finishes.
            let applied = step % decisions.len();
            let placed = decisions[applied].chips();
            let runtime_ms = arrivals[applied].runtime_at_fmax.as_millis();
            let start = placed
                .iter()
                .map(|c| avail[c.0 as usize].as_millis())
                .fold(now_ms, u64::max);
            for &c in placed {
                let i = c.0 as usize;
                avail[i] = SimTime::from_millis(start + runtime_ms);
                busy[i] = true;
                idx.chip_busy(c, avail[i]);
            }
            // Advance the clock, sometimes exactly onto the next drain.
            let next_drain = (0..chips)
                .filter(|&i| busy[i])
                .map(|i| avail[i].as_millis())
                .filter(|&t| t > now_ms)
                .min();
            now_ms = match next_drain {
                Some(t) if rng.chance(0.3) => t,
                _ => now_ms + rng.index(1_800_000) as u64,
            };
            for i in 0..chips {
                let t = avail[i].as_millis();
                // A chip draining exactly at `now` may stay busy a while.
                if busy[i] && (t < now_ms || (t == now_ms && rng.chance(0.5))) {
                    busy[i] = false;
                    usage[i] += SimDuration::from_millis(runtime_ms);
                    idx.chip_idle(ChipId(i as u32));
                    idx.set_usage(ChipId(i as u32), usage[i]);
                }
            }
            match step % 4 {
                // A queue replay: a few projections move (busy to idle,
                // idle to busy, a drain later or earlier, never before
                // `now`), the rest are rewritten unchanged.
                1 => {
                    for _ in 0..1 + rng.index(8) {
                        let i = rng.index(chips);
                        if busy[i] && rng.chance(0.3) {
                            busy[i] = false;
                            avail[i] = SimTime::from_millis(now_ms);
                        } else {
                            busy[i] = true;
                            avail[i] = SimTime::from_millis(now_ms + rng.index(7_200_000) as u64);
                        }
                    }
                    idx.rebuild_avail(&avail, |i| busy[i]);
                }
                // A re-scan: one chip takes another's estimates several
                // blocks away and lands next to it in the ranking.
                3 => {
                    let from = rng.index(chips);
                    let span = 64 * (2 + rng.index(3)) + rng.index(64);
                    let to = if rng.chance(0.5) {
                        from.saturating_sub(span)
                    } else {
                        (from + span).min(chips - 1)
                    };
                    let (chip, target) = (plan.ranking()[from], plan.ranking()[to].0 as usize);
                    let (voltages, est) = plan.rows();
                    let (voltages, est) = (voltages[target].clone(), est[target].clone());
                    plan.update_chip(chip, voltages, est);
                    idx.set_ranking(plan.ranking());
                }
                _ => {}
            }
        }
    }
}
