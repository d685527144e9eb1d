//! The carbon/price accounting locks:
//!
//! * **Off ⇒ bit-identical.** A constant price trace at the flat book
//!   price, and a `CarbonConfig` with no thresholds, must each produce a
//!   run byte-identical — whole-report JSON and telemetry JSONL — to a
//!   run with the feature absent, across all five schemes and seeds. The
//!   integrators are designed for this: `SignalMeter` only flushes on a
//!   bitwise value change, and a neutral config is dropped at
//!   construction so no gate, event, or RNG draw ever observes it.
//! * **Booked == derived.** On trace-free runs the time-integrated
//!   `costs.utility_usd` must equal `kWh × flat price` to the bit.
//! * **The policies work and stay conservative.** Deferral and
//!   suspend/resume runs under strict audit must finish every job, book
//!   emissions, and actually exercise their mechanism.

use iscope::prelude::*;
use iscope::telemetry::render_jsonl;
use iscope::{AuditConfig, RunReport, TelemetryConfig};
use iscope_dcsim::SimDuration;
use iscope_energy::SignalTrace;

fn base(scheme: Scheme, seed: u64) -> GreenDatacenterSim {
    let farm = WindFarm::default();
    GreenDatacenterSim::builder()
        .fleet_size(48)
        .scheme(scheme)
        .synthetic_trace(SyntheticTrace {
            num_jobs: 120,
            max_cpus: 16,
            ..SyntheticTrace::default()
        })
        .supply(Supply::hybrid_farm(
            &farm,
            SimDuration::from_hours(96),
            1.0,
            7,
        ))
        .seed(seed)
        .audit(AuditConfig::default())
        .telemetry(TelemetryConfig::default())
}

fn hybrid() -> Supply {
    Supply::hybrid_farm(&WindFarm::default(), SimDuration::from_hours(96), 1.0, 7)
}

/// Whole-report and telemetry byte identity (strict: the `Debug`
/// rendering covers every field, and f64 `Debug` output round-trips
/// exactly, so nothing drifts silently).
fn assert_bytes_equal(a: &RunReport, b: &RunReport, label: &str) {
    assert_eq!(
        format!("{a:?}"),
        format!("{b:?}"),
        "{label}: report diverged"
    );
    let at = render_jsonl(a.telemetry.as_deref().unwrap_or(&[]));
    let bt = render_jsonl(b.telemetry.as_deref().unwrap_or(&[]));
    assert_eq!(at, bt, "{label}: telemetry bytes diverged");
}

#[test]
fn constant_price_trace_is_bit_identical_to_flat_price() {
    // The trace holds the flat book price (0.13) in every cell, so the
    // booking arithmetic must be literally the same multiplications.
    for scheme in Scheme::ALL {
        for seed in [11, 42] {
            let plain = base(scheme, seed).build().run();
            let traced = base(scheme, seed)
                .supply(hybrid().with_utility_price(SignalTrace::constant(
                    SimDuration::from_mins(30),
                    0.13,
                    192,
                )))
                .build()
                .run();
            assert_bytes_equal(&plain, &traced, &format!("{scheme:?} seed {seed}"));
        }
    }
}

#[test]
fn neutral_carbon_config_is_bit_identical_to_none() {
    // No thresholds set: the config must be dropped at construction, so
    // no CarbonSample event is ever scheduled.
    for scheme in Scheme::ALL {
        for seed in [11, 42] {
            let plain = base(scheme, seed).build().run();
            let neutral = base(scheme, seed)
                .carbon(iscope_sched::CarbonConfig::default())
                .build()
                .run();
            assert_bytes_equal(&plain, &neutral, &format!("{scheme:?} seed {seed}"));
            assert!(neutral.carbon.is_none(), "neutral config must report None");
        }
    }
}

#[test]
fn integrated_cost_equals_flat_cost_without_traces() {
    for scheme in Scheme::ALL {
        let r = base(scheme, 42).build().run();
        assert_eq!(
            r.costs.utility_usd.to_bits(),
            r.utility_cost_usd().to_bits(),
            "{scheme:?}: trace-free integral must equal kWh × flat price exactly"
        );
        assert_eq!(r.costs.gco2, 0.0, "{scheme:?}: no trace, no emissions");
        assert_eq!(
            r.costs.wind_usd.to_bits(),
            r.ledger.wind_cost_usd(&r.prices).to_bits(),
            "{scheme:?}: wind share stays on the flat PPA price"
        );
    }
}

// Utility-only on purpose: the schemes keep demand inside the wind
// budget whenever one exists, which would zero the utility-side
// integrals this file is exercising.
fn dirty_supply() -> Supply {
    Supply::utility_only()
        .with_carbon(SignalTrace::diurnal(
            SimDuration::from_mins(30),
            SimDuration::from_hours(96),
            420.0,
            180.0,
            18.0,
        ))
        .with_utility_price(SignalTrace::time_of_use(
            SimDuration::from_mins(30),
            SimDuration::from_hours(96),
            0.08,
            0.30,
            16.0,
            21.0,
        ))
}

#[test]
fn deferral_scheme_holds_arrivals_under_strict_audit() {
    // Strict audit: the auditor's independent ∫ intensity × utility_W and
    // ∫ price × draw_W integrals panic the run if they diverge from the
    // booked meters by more than 1e-9 relative.
    let r = base(Scheme::ScanFair, 42)
        .supply(dirty_supply())
        .carbon(iscope_sched::CarbonConfig::deferral(450.0))
        .build()
        .run();
    let stats = r.carbon.expect("active policy must report stats");
    assert!(stats.deferrals > 0, "diurnal peak must defer something");
    assert_eq!(stats.suspensions, 0, "deferral-only policy never preempts");
    assert!(r.costs.gco2 > 0.0, "emissions booked from the trace");
    assert_eq!(r.jobs, 120, "every job still completes");
    assert!(r.audit.expect("audit on").clean());
}

#[test]
fn suspend_scheme_preempts_and_requeues_under_strict_audit() {
    let r = base(Scheme::ScanFair, 42)
        .supply(dirty_supply())
        .carbon(iscope_sched::CarbonConfig::suspend_resume(480.0))
        .build()
        .run();
    let stats = r.carbon.expect("active policy must report stats");
    assert!(stats.suspensions > 0, "diurnal peak must preempt something");
    assert!(
        stats.wasted_kwh > 0.0,
        "a preempted attempt charges its energy as waste"
    );
    assert_eq!(r.jobs, 120, "every suspended gang must finish eventually");
    assert!(r.audit.expect("audit on").clean());
}

#[test]
fn telemetry_carries_cumulative_integrals() {
    let r = base(Scheme::ScanFair, 42)
        .supply(dirty_supply())
        .build()
        .run();
    let records = r.telemetry.as_ref().expect("telemetry on");
    let last = records.last().expect("records exist");
    // The channels are cumulative previews; the final record is within
    // one open segment of the closed books.
    assert!(last.gco2 > 0.0 && last.gco2 <= r.costs.gco2 * (1.0 + 1e-9));
    assert!(last.cost_usd > 0.0);
    let mut prev = (0.0, 0.0);
    for rec in records {
        assert!(
            rec.gco2 >= prev.0 && rec.cost_usd >= prev.1,
            "cumulative channels must be monotone"
        );
        prev = (rec.gco2, rec.cost_usd);
    }
}
