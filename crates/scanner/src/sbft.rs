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
    ops: Vec<Op>,
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

impl TestProgram {
    /// Generates a program of `len` operations; the expected result is
    /// computed by a faultless reference execution (this mirrors automatic
    /// SBFT generation \[20, 21\], where the checker only needs the final
    /// value).
    pub fn generate(len: usize, rng: &mut SimRng) -> TestProgram {
        assert!(len > 0, "empty test program tests nothing");
        let ops: Vec<Op> = (0..len)
            .map(|_| match rng.index(4) {
                0 => Op::Add(rng.next_seed()),
                1 => Op::Mul(rng.next_seed() | 1),
                2 => Op::XorShift(1 + rng.index(31) as u32),
                _ => Op::Rotl(1 + rng.index(63) as u32),
            })
            .collect();
        let expected = Self::execute_ops(&ops, PROGRAM_SEED, &mut |x| x);
        TestProgram { ops, expected }
    }

    /// Number of operations.
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// True if the program is empty (never constructed this way).
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }

    fn execute_ops(ops: &[Op], seed: u64, corrupt: &mut impl FnMut(u64) -> u64) -> u64 {
        let mut acc = seed;
        for op in ops {
            acc = match *op {
                Op::Add(k) => acc.wrapping_add(k),
                Op::Mul(k) => acc.wrapping_mul(k),
                Op::XorShift(s) => acc ^ (acc >> s),
                Op::Rotl(r) => acc.rotate_left(r),
            };
            acc = corrupt(acc);
        }
        acc
    }

    /// Runs the program on a core at `(level, voltage)` and checks the
    /// result. On a stable point execution is exact, so the result is
    /// `expected` by construction and the test passes without executing
    /// or drawing any randomness. On an unstable point every operation
    /// flips a random bit with probability `fault_rate`, so with a program
    /// of a few hundred ops a miss is vanishingly unlikely.
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
        let result = Self::execute_ops(&self.ops, PROGRAM_SEED, &mut |x| {
            if rng.chance(fault_rate) {
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
}
