//! Benchmarks of the extension modules: forecasting, battery stepping,
//! aging/wear reports, staleness analysis, and the in-situ profiling run.

use criterion::{criterion_group, criterion_main, Criterion};
use iscope::prelude::*;
use iscope::InSituConfig;
use iscope_dcsim::SimDuration;
use iscope_energy::{smooth_against_demand, Battery, PersistenceForecast, SolarFarm};
use iscope_pvmodel::{AgingModel, DvfsConfig, Fleet, OperatingPlan, VariationParams, WearReport};
use iscope_scanner::{analyse_staleness, ScannerConfig, TestKind};
use iscope_sched::Scheme;
use std::hint::black_box;

fn bench_forecast(c: &mut Criterion) {
    let mut g = c.benchmark_group("forecast");
    let trace = WindFarm::default().generate(SimDuration::from_hours(24 * 30), 3);
    g.bench_function("fit_30_days", |b| {
        b.iter(|| black_box(PersistenceForecast::fit(&trace, trace.len())))
    });
    let model = PersistenceForecast::fit(&trace, trace.len());
    g.bench_function("horizon_average_6h", |b| {
        b.iter(|| black_box(model.horizon_average(500_000.0, SimDuration::from_hours(6))))
    });
    g.finish();
}

fn bench_battery(c: &mut Criterion) {
    let trace = WindFarm::default()
        .generate(SimDuration::from_hours(24 * 30), 5)
        .plus(&SolarFarm::default().generate(SimDuration::from_hours(24 * 30), 5));
    c.bench_function("battery_smooth_30_days", |b| {
        let battery = Battery::sized_for(300_000.0, 2.0);
        b.iter(|| black_box(smooth_against_demand(&trace, 300_000.0, battery)))
    });
}

fn bench_wear(c: &mut Criterion) {
    let dvfs = DvfsConfig::paper_default();
    let fleet = Fleet::generate(4800, dvfs.clone(), &VariationParams::default(), 3);
    let plan = OperatingPlan::oracle(&fleet);
    let top = fleet.dvfs.max_level();
    let usage: Vec<f64> = (0..4800).map(|i| (i % 97) as f64 * 100.0).collect();
    let voltages: Vec<f64> = fleet
        .chips
        .iter()
        .map(|chip| plan.applied_voltage(chip.id, top))
        .collect();
    let aging = AgingModel::default();
    let mut g = c.benchmark_group("aging");
    g.bench_function("wear_report_4800", |b| {
        b.iter(|| {
            black_box(WearReport::from_usage(
                &aging,
                &fleet.dvfs,
                &fleet.chips,
                &usage,
                &voltages,
                0.5,
            ))
        })
    });
    g.bench_function("staleness_4800", |b| {
        b.iter(|| black_box(analyse_staleness(&fleet, &plan, &aging, 5000.0)))
    });
    g.finish();
}

fn bench_in_situ(c: &mut Criterion) {
    let mut g = c.benchmark_group("in_situ");
    g.sample_size(10);
    g.bench_function("sbft_run_48_chips", |b| {
        b.iter(|| {
            black_box(
                GreenDatacenterSim::builder()
                    .fleet_size(48)
                    .synthetic_trace(SyntheticTrace {
                        num_jobs: 120,
                        max_cpus: 8,
                        ..SyntheticTrace::default()
                    })
                    .scheme(Scheme::ScanRan)
                    .in_situ_profiling(InSituConfig {
                        scanner: ScannerConfig {
                            test_kind: TestKind::Sbft,
                            ..ScannerConfig::default()
                        },
                        ..InSituConfig::default()
                    })
                    .seed(3)
                    .build()
                    .run(),
            )
        })
    });
    g.finish();
}

criterion_group!(
    name = benches;
    config = Criterion::default().sample_size(20);
    targets = bench_forecast, bench_battery, bench_wear, bench_in_situ
);
criterion_main!(benches);
