//! End-to-end simulation benchmarks: whole runs through the public
//! builder, at bench scale — the criterion-tracked counterpart of the
//! headline numbers `iscope-exp bench-report` records in
//! `BENCH_sim.json`.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use iscope::prelude::*;
use iscope_dcsim::SimDuration;
use iscope_sched::Scheme;
use iscope_workload::SyntheticTrace;
use std::hint::black_box;

/// A shrunk headline scenario: same shape (ScanFair, hybrid wind, wide
/// gangs, day-long submissions) at one tenth the fleet so a criterion
/// sample finishes in seconds.
fn scaled_headline(fleet: usize, jobs: usize) -> GreenDatacenterSim {
    GreenDatacenterSim::builder()
        .fleet_size(fleet)
        .synthetic_trace(SyntheticTrace {
            num_jobs: jobs,
            max_cpus: (fleet / 10).max(8) as u32,
            ..SyntheticTrace::default()
        })
        .scheme(Scheme::ScanFair)
        .supply(Supply::hybrid_farm(
            &WindFarm::default(),
            SimDuration::from_hours(48),
            fleet as f64 / 4800.0,
            42,
        ))
        .seed(42)
}

fn bench_e2e_scaling(c: &mut Criterion) {
    let mut g = c.benchmark_group("e2e_scanfair_hybrid");
    g.sample_size(10);
    for &(fleet, jobs) in &[(120usize, 500usize), (480, 2000)] {
        g.bench_with_input(
            BenchmarkId::from_parameter(format!("{fleet}procs_{jobs}jobs")),
            &(fleet, jobs),
            |b, &(fleet, jobs)| b.iter(|| black_box(scaled_headline(fleet, jobs).build().run())),
        );
    }
    g.finish();
}

fn bench_all_schemes(c: &mut Criterion) {
    let mut g = c.benchmark_group("e2e_schemes");
    g.sample_size(10);
    for scheme in [
        Scheme::BinRan,
        Scheme::BinEffi,
        Scheme::ScanRan,
        Scheme::ScanEffi,
        Scheme::ScanFair,
    ] {
        g.bench_function(scheme.name(), |b| {
            b.iter(|| {
                black_box(
                    GreenDatacenterSim::builder()
                        .fleet_size(240)
                        .synthetic_jobs(1000)
                        .scheme(scheme)
                        .seed(42)
                        .build()
                        .run(),
                )
            })
        });
    }
    g.finish();
}

criterion_group!(e2e, bench_e2e_scaling, bench_all_schemes);
criterion_main!(e2e);
