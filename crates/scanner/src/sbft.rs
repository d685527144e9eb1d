//! Software-based functional failing tests (§III.A).
//!
//! An SBFT is an assembly-language program whose final result is checked
//! against a precomputed correct value: if the core executed every
//! instruction correctly, the checksum matches; any timing failure at an
//! unsafe (f, V) point corrupts it. We model the program as a short
//! sequence of integer operations executed exactly when the operating
//! point is stable, and with per-operation bit flips when it is not —
//! the observable behaviour (deterministic pass / overwhelmingly likely
//! fail) matches the real technique without simulating a pipeline.
//!
//! The generator draws each instruction as one of four `Op` kinds, but
//! the program stores it as a `Step`: one fixed arithmetic form of which
//! every kind is an exact special case. Executing an unstable point (the
//! scan's hot loop: every core × level ends on one) is then a straight run
//! of the same arithmetic per instruction, with no branch on the randomly
//! drawn kind, and returns the bits the per-kind form would.

use iscope_dcsim::{SimDuration, SimRng};
use iscope_pvmodel::{Core, FreqLevel};

/// Which stability test the profiler runs (§III.C).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TestKind {
    /// Software-based functional failing test: 29 seconds per point \[20\].
    Sbft,
    /// Mprime-style stress test: 10 minutes per point (§V.A).
    Stress,
}

impl TestKind {
    /// Wall-clock duration of one test execution at one (f, V) point.
    pub fn duration(self) -> SimDuration {
        match self {
            TestKind::Sbft => SimDuration::from_secs(29),
            TestKind::Stress => SimDuration::from_mins(10),
        }
    }
}

/// Outcome of one stability test at one operating point.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TestOutcome {
    /// Result checksum matched the precomputed value.
    Pass,
    /// Result checksum mismatched — the core misbehaved.
    Fail,
}

/// Accumulator value every execution of a test program starts from.
const PROGRAM_SEED: u64 = 0x5EED_CAFE_F00D_D00D;

/// A generated functional test program: an operation stream with its
/// precomputed correct result.
#[derive(Debug, Clone)]
pub struct TestProgram {
    steps: Vec<Step>,
    expected: u64,
}

/// One synthetic instruction of the test program.
#[derive(Debug, Clone, Copy)]
enum Op {
    /// Wrapping add with an immediate.
    Add(u64),
    /// Wrapping multiply with an odd immediate (invertible mod 2^64).
    Mul(u64),
    /// XOR with a right-shifted copy of the accumulator.
    XorShift(u32),
    /// Rotate left.
    Rotl(u32),
}

impl Op {
    /// The op as a [`Step`]: its own operand in its own field, every other
    /// field at its identity (`xor_mask` 0, `mul` 1, `add` 0, `rot` 0).
    fn step(self) -> Step {
        let identity = Step {
            xor_mask: 0,
            shift: 0,
            mul: 1,
            add: 0,
            rot: 0,
        };
        match self {
            Op::Add(add) => Step { add, ..identity },
            Op::Mul(mul) => Step { mul, ..identity },
            Op::XorShift(shift) => Step {
                xor_mask: !0,
                shift,
                ..identity
            },
            Op::Rotl(rot) => Step { rot, ..identity },
        }
    }
}

/// One instruction in the form every [`Op`] reduces to:
/// `acc = rotl((acc ^ ((acc >> shift) & xor_mask)) * mul + add, rot)`,
/// with wrapping arithmetic.
#[derive(Debug, Clone, Copy)]
struct Step {
    xor_mask: u64,
    shift: u32,
    mul: u64,
    add: u64,
    rot: u32,
}

impl Step {
    fn apply(&self, acc: u64) -> u64 {
        (acc ^ ((acc >> self.shift) & self.xor_mask))
            .wrapping_mul(self.mul)
            .wrapping_add(self.add)
            .rotate_left(self.rot)
    }
}

impl TestProgram {
    /// Generates a program of `len` operations; the expected result is
    /// computed by a faultless reference execution (this mirrors automatic
    /// SBFT generation \[20, 21\], where the checker only needs the final
    /// value).
    pub fn generate(len: usize, rng: &mut SimRng) -> TestProgram {
        assert!(len > 0, "empty test program tests nothing");
        let steps: Vec<Step> = (0..len)
            .map(|_| match rng.index(4) {
                0 => Op::Add(rng.next_seed()),
                1 => Op::Mul(rng.next_seed() | 1),
                2 => Op::XorShift(1 + rng.index(31) as u32),
                _ => Op::Rotl(1 + rng.index(63) as u32),
            })
            .map(Op::step)
            .collect();
        let expected = Self::execute_ops(&steps, PROGRAM_SEED, &mut |x| x);
        TestProgram { steps, expected }
    }

    /// Number of operations.
    pub fn len(&self) -> usize {
        self.steps.len()
    }

    /// True if the program is empty (never constructed this way).
    pub fn is_empty(&self) -> bool {
        self.steps.is_empty()
    }

    /// Executes `steps` from `seed`, passing the accumulator through
    /// `corrupt` after every step (the identity for the reference run).
    /// Each step is the same branch-free [`Step::apply`], so the loop's
    /// only data-dependent branches are the ones inside `corrupt`.
    fn execute_ops(steps: &[Step], seed: u64, corrupt: &mut impl FnMut(u64) -> u64) -> u64 {
        let mut acc = seed;
        for step in steps {
            acc = corrupt(step.apply(acc));
        }
        acc
    }

    /// Runs the program on a core at `(level, voltage)` and checks the
    /// result. On a stable point execution is exact, so the result is
    /// `expected` by construction and the test passes without executing
    /// or drawing any randomness. On an unstable point every operation
    /// flips a random bit with probability `fault_rate`, so with a program
    /// of a few hundred ops a miss is vanishingly unlikely. The draws are
    /// exactly those of `rng.chance(fault_rate)` once per operation and
    /// `rng.index(64)` once per flip, in program order.
    pub fn run(
        &self,
        core: &Core,
        level: FreqLevel,
        voltage: f64,
        gpu_enabled: bool,
        fault_rate: f64,
        rng: &mut SimRng,
    ) -> TestOutcome {
        if core.stable_at(level, voltage, gpu_enabled) {
            return TestOutcome::Pass;
        }
        // `rng.chance(p)` is `x * 2^-53 < p.clamp(0, 1)` for the draw's top
        // 53 bits `x`. Scaling by 2^53 is exact, and an integer is below a
        // real exactly when it is below the real's ceiling (NaN casts to
        // 0, which no draw is below), so this integer compare makes the
        // same draw and the same decision without the per-op conversion.
        let threshold = (fault_rate.clamp(0.0, 1.0) * (1u64 << 53) as f64).ceil() as u64;
        let result = Self::execute_ops(&self.steps, PROGRAM_SEED, &mut |x| {
            if rng.next_seed() >> 11 < threshold {
                x ^ (1u64 << rng.index(64))
            } else {
                x
            }
        });
        if result == self.expected {
            TestOutcome::Pass
        } else {
            TestOutcome::Fail
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use iscope_dcsim::SimRng;
    use iscope_pvmodel::{Chip, ChipId, DvfsConfig, VariationParams};
    use proptest::prelude::*;

    impl Op {
        /// Textbook semantics of each op, the reference [`Op::step`] must
        /// reproduce.
        fn apply(self, acc: u64) -> u64 {
            match self {
                Op::Add(k) => acc.wrapping_add(k),
                Op::Mul(k) => acc.wrapping_mul(k),
                Op::XorShift(s) => acc ^ (acc >> s),
                Op::Rotl(r) => acc.rotate_left(r),
            }
        }
    }

    fn core() -> (Core, DvfsConfig) {
        let dvfs = DvfsConfig::paper_default();
        let mut rng = SimRng::new(2);
        let chip = Chip::generate(ChipId(0), &dvfs, &VariationParams::default(), &mut rng);
        (chip.cores[0].clone(), dvfs)
    }

    #[test]
    fn durations_match_paper() {
        assert_eq!(TestKind::Sbft.duration(), SimDuration::from_secs(29));
        assert_eq!(TestKind::Stress.duration(), SimDuration::from_secs(600));
    }

    #[test]
    fn stable_point_always_passes() {
        let (core, dvfs) = core();
        let mut rng = SimRng::new(3);
        let prog = TestProgram::generate(256, &mut rng);
        let top = dvfs.max_level();
        for _ in 0..50 {
            assert_eq!(
                prog.run(&core, top, dvfs.v_nom(top), false, 0.02, &mut rng),
                TestOutcome::Pass
            );
        }
    }

    #[test]
    fn unstable_point_fails_with_high_probability() {
        let (core, dvfs) = core();
        let mut rng = SimRng::new(4);
        let prog = TestProgram::generate(256, &mut rng);
        let top = dvfs.max_level();
        let v_bad = core.vmin(top) - 0.005;
        let fails = (0..200)
            .filter(|_| prog.run(&core, top, v_bad, false, 0.02, &mut rng) == TestOutcome::Fail)
            .count();
        assert!(fails >= 198, "only {fails}/200 failures below Min Vdd");
    }

    #[test]
    fn gpu_enabled_raises_the_failing_threshold() {
        let (core, dvfs) = core();
        let mut rng = SimRng::new(5);
        let prog = TestProgram::generate(256, &mut rng);
        let top = dvfs.max_level();
        // A point between vmin and vmin+gpu_delta: passes GPU-off,
        // fails GPU-on.
        let v = core.vmin(top) + core.gpu_vmin_delta / 2.0;
        if core.gpu_vmin_delta > 1e-6 {
            assert_eq!(
                prog.run(&core, top, v, false, 0.05, &mut rng),
                TestOutcome::Pass
            );
            assert_eq!(
                prog.run(&core, top, v, true, 0.05, &mut rng),
                TestOutcome::Fail
            );
        }
    }

    #[test]
    fn program_generation_is_deterministic() {
        let mut a = SimRng::new(6);
        let mut b = SimRng::new(6);
        let pa = TestProgram::generate(64, &mut a);
        let pb = TestProgram::generate(64, &mut b);
        assert_eq!(pa.expected, pb.expected);
        assert_eq!(pa.len(), 64);
    }

    #[test]
    #[should_panic(expected = "empty test program")]
    fn rejects_zero_length() {
        let mut rng = SimRng::new(7);
        TestProgram::generate(0, &mut rng);
    }

    /// Pins the checksum arithmetic itself. `expected` comes from the same
    /// kernel as every run, so a wrong step would still fail every
    /// unstable point and pass every stable one; only fixed values catch
    /// it. Both are the values of the textbook semantics, `Op::apply`.
    #[test]
    fn checksum_arithmetic_is_pinned() {
        let prog = TestProgram::generate(512, &mut SimRng::new(1));
        assert_eq!(prog.expected, 0xefcd_767e_eb4e_240f);
        let mut i = 0u64;
        let raw = TestProgram::execute_ops(&prog.steps, PROGRAM_SEED, &mut |x| {
            i += 1;
            if i.is_multiple_of(7) {
                x ^ (1u64 << (i % 64))
            } else {
                x
            }
        });
        assert_eq!(raw, 0xe7a5_9cc9_7e8b_5f1b);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// Every op's step form computes exactly what the op does.
        #[test]
        fn step_form_matches_textbook_ops(
            kind in 0u8..4,
            imm in any::<u64>(),
            amount in 0u32..64,
            acc in any::<u64>(),
        ) {
            let op = match kind {
                0 => Op::Add(imm),
                1 => Op::Mul(imm),
                2 => Op::XorShift(amount),
                _ => Op::Rotl(amount),
            };
            prop_assert_eq!(op.step().apply(acc), op.apply(acc), "{:?} on {:#x}", op, acc);
        }
    }
}
