//! `iscope-exp memory-smoke` — a run's peak memory follows its live work,
//! not the length of its trace.
//!
//! Streams ScanFair on a 2,000-chip fleet at 4,000 jobs per simulated day
//! (seed 42), first for 4 days and then for 16 days, in one process. Each
//! leg holds about the same number of live jobs, while the long one
//! admits four times as many. The process's resident high-water mark
//! (`VmHWM` in `/proc/self/status`) is read after each leg; the smoke
//! fails if the 16-day figure exceeds [`MAX_GROWTH`] times the 4-day one.

use iscope::prelude::*;
use iscope::StreamDriver;
use iscope_workload::SyntheticSource;

const FLEET: usize = 2_000;
const JOBS_PER_DAY: usize = 4_000;
const SHORT_DAYS: u64 = 4;
const LONG_DAYS: u64 = 16;
/// The bound on the 16-day high-water mark over the 4-day one. A job table
/// that kept a 160-byte row per admitted job grew it 2.3-fold in this
/// shape.
pub const MAX_GROWTH: f64 = 1.5;

/// What one leg reports.
struct Leg {
    days: u64,
    admitted: usize,
    peak_live_jobs: usize,
    /// The process's resident high-water mark after the leg, in KiB.
    vm_hwm_kib: u64,
}

/// Runs one streamed leg of `days` and reads the high-water mark after it.
fn leg(days: u64) -> Leg {
    let span = SimDuration::from_hours(24 * days);
    let sim = GreenDatacenterSim::builder()
        .fleet_size(FLEET)
        .workload(Workload::new(vec![]))
        .scheme(Scheme::ScanFair)
        .supply(Supply::hybrid_farm(
            &WindFarm::default(),
            span + SimDuration::from_hours(48),
            FLEET as f64 / 4800.0,
            42,
        ))
        .seed(42);
    let trace = SyntheticTrace {
        num_jobs: JOBS_PER_DAY * days as usize,
        span,
        ..SyntheticTrace::default()
    };
    let source = SyntheticSource::new(trace, Shaper::default(), 42);
    let (report, _, stream) = StreamDriver::new(sim.build().into_input(), source)
        .run()
        .expect("synthetic sources cannot fail");
    Leg {
        days,
        admitted: report.jobs,
        peak_live_jobs: stream.peak_live_jobs,
        vm_hwm_kib: vm_hwm_kib().expect("memory-smoke reads VmHWM from /proc/self/status"),
    }
}

/// The process's resident high-water mark in KiB, where the platform
/// reports one.
fn vm_hwm_kib() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

/// CI gate: the 16-day leg's high-water mark stays within [`MAX_GROWTH`]
/// of the 4-day leg's.
pub fn smoke() {
    let legs = [leg(SHORT_DAYS), leg(LONG_DAYS)];
    for l in &legs {
        println!(
            "memory-smoke {:>2} days: {:>6} admitted, {:>5} peak live, VmHWM {:.2} MiB",
            l.days,
            l.admitted,
            l.peak_live_jobs,
            l.vm_hwm_kib as f64 / 1024.0
        );
        assert_eq!(
            l.admitted,
            JOBS_PER_DAY * l.days as usize,
            "memory-smoke: a leg lost jobs"
        );
    }
    let growth = legs[1].vm_hwm_kib as f64 / legs[0].vm_hwm_kib as f64;
    assert!(
        growth <= MAX_GROWTH,
        "memory-smoke: VmHWM grew {growth:.2}x from {SHORT_DAYS} to {LONG_DAYS} days \
         (bound {MAX_GROWTH}x)"
    );
    println!(
        "memory-smoke OK: VmHWM grew {growth:.2}x from {SHORT_DAYS} to {LONG_DAYS} days \
         (bound {MAX_GROWTH}x)"
    );
}
