//! `iscope-exp federation` — the multi-site geo-routing sweep.
//!
//! A federation splits the experiment fleet evenly across N sites, each
//! with its own wind trace, and routes the single global arrival stream
//! with a pluggable policy (DESIGN.md §3e). The sweep crosses:
//!
//! * **site count** — 2 and 4 sites (total fleet held constant, so every
//!   cell draws on the same aggregate wind farm);
//! * **router** — the weather-oblivious `static-hash` baseline vs the
//!   `follow-surplus` policy that sends each gang to the site with the
//!   largest forecast renewable surplus over the gang's own runtime;
//! * **weather correlation `rho`** — 0 (independent sites) to 1 (one
//!   continent-wide front), via [`correlated_wind_supplies`].
//!
//! Expected shape: with independent weather (`rho = 0`) the surplus
//! follower diversifies across fronts and lifts the federation's
//! renewable share well above the hash baseline; as `rho → 1` every site
//! sees the same sky, the diversification gain vanishes, and whatever
//! margin remains comes from demand-aware load balancing alone (surplus
//! = forecast − demand, so identical forecasts leave only the demand
//! term). Fault injection stays on so failed gangs exercise the WAN
//! migration path (`migrations` column).

use crate::common::{ExpConfig, ExpScale, ExpTable};
use iscope::prelude::*;
use iscope::{
    correlated_wind_supplies, run_federation, AuditConfig, FaultInjectionConfig, FederationInput,
    FollowSurplusRouter, NullRouter, Router, StaticHashRouter, TelemetryConfig,
};

/// Weather-correlation points swept (weight of the shared front).
pub const RHO_POINTS: [f64; 3] = [0.0, 0.5, 1.0];

/// Federation sizes swept (total fleet is divided evenly).
pub const SITE_POINTS: [usize; 2] = [2, 4];

/// WAN delay a migrated gang pays before placement at its destination.
pub const WAN_DELAY_MINS: u64 = 2;

/// Output of the federation experiment.
#[derive(Debug, Clone)]
pub struct FederationSweep {
    /// Renewable share of federation energy (%), per `router@sites` row.
    pub wind_fraction: ExpTable,
    /// Utility energy (kWh) drawn from the grid.
    pub utility_kwh: ExpTable,
    /// Cross-site WAN migrations (failed gangs moved between sites).
    pub migrations: ExpTable,
}

iscope::to_val!(FederationSweep, |f| {
    "wind_fraction" => f.wind_fraction,
    "utility_kwh" => f.utility_kwh,
    "migrations" => f.migrations,
});

/// Accelerated failure model so retries (and thus migrations) actually
/// fire inside an experiment-scale run — same knob as `audit-smoke`.
fn faults() -> FaultInjectionConfig {
    FaultInjectionConfig {
        model: iscope_pvmodel::FailureModel {
            time_acceleration: 1500.0,
            ..iscope_pvmodel::FailureModel::default()
        },
        ..FaultInjectionConfig::default()
    }
}

/// Assembles one federated scenario: `sites` equal ScanFair fleets under
/// correlated per-site weather at `rho`, one global workload, and
/// `router`. The aggregate wind farm matches the single-site experiment
/// (each site gets `1/sites` of it), and gang widths are clamped to half
/// a site's fleet so every job fits anywhere the router sends it.
pub fn scenario(
    cfg: &ExpConfig,
    sites: usize,
    rho: f64,
    router: Box<dyn Router>,
) -> FederationInput {
    assert!(
        sites > 0 && cfg.fleet_size.is_multiple_of(sites),
        "uneven fleet split"
    );
    let per_site = cfg.fleet_size / sites;
    let max_cpus = cfg.max_cpus.min((per_site as u32 / 2).max(1));
    let supplies = correlated_wind_supplies(
        &WindFarm::default(),
        None,
        cfg.wind_span,
        cfg.wind_scale / sites as f64,
        rho,
        cfg.seed,
        sites,
    );
    let mut inputs = Vec::with_capacity(sites);
    let mut workload = None;
    for supply in supplies {
        let b = GreenDatacenterSim::builder()
            .fleet_size(per_site)
            .synthetic_trace(SyntheticTrace {
                num_jobs: cfg.jobs,
                max_cpus,
                ..SyntheticTrace::default()
            })
            .scheme(Scheme::ScanFair)
            .supply(supply)
            .fault_injection(faults())
            .seed(cfg.seed);
        let b = if cfg.audit {
            b.audit(AuditConfig::default())
        } else {
            b
        };
        let built = b.build();
        if workload.is_none() {
            workload = Some(built.workload().clone());
        }
        inputs.push(built.into_input());
    }
    FederationInput {
        sites: inputs,
        workload: workload.expect("at least one site"),
        router,
        wan_delay: SimDuration::from_mins(WAN_DELAY_MINS),
        reroute_retries: true,
    }
}

/// A named router constructor (fresh router per run, seeded from the
/// experiment config).
type RouterMaker = (&'static str, fn(u64) -> Box<dyn Router>);

/// One sweep cell: router name + constructor, site count, weather rho.
type GridCell = (&'static str, fn(u64) -> Box<dyn Router>, usize, f64);

/// Runs the sites x router x weather-correlation sweep.
pub fn run(cfg: &ExpConfig) -> FederationSweep {
    let mk_router: [RouterMaker; 2] = [
        ("static-hash", |seed| Box::new(StaticHashRouter { seed })),
        ("follow-surplus", |_| Box::new(FollowSurplusRouter)),
    ];
    // Flatten the sites × router × rho grid into one parallel sweep
    // (each cell builds its own router and scenario, independently
    // seeded), then fold the results back into row-major tables.
    let mut grid: Vec<GridCell> = Vec::new();
    for (name, mk) in mk_router {
        for &sites in &SITE_POINTS {
            for &rho in &RHO_POINTS {
                grid.push((name, mk, sites, rho));
            }
        }
    }
    let reports = iscope::experiments::sweep(&grid, |&(_, mk, sites, rho)| {
        run_federation(scenario(cfg, sites, rho, mk(cfg.seed)))
    });

    let mut rows_wind = Vec::new();
    let mut rows_util = Vec::new();
    let mut rows_mig = Vec::new();
    for (row, chunk) in grid
        .chunks(RHO_POINTS.len())
        .zip(reports.chunks(RHO_POINTS.len()))
    {
        let (name, _, sites, _) = row[0];
        let label = format!("{name}@{sites}");
        rows_wind.push((
            label.clone(),
            chunk.iter().map(|r| 100.0 * r.wind_fraction()).collect(),
        ));
        rows_util.push((
            label.clone(),
            chunk.iter().map(|r| r.utility_kwh()).collect(),
        ));
        rows_mig.push((label, chunk.iter().map(|r| r.migrations as f64).collect()));
    }
    let columns: Vec<String> = RHO_POINTS.iter().map(|r| format!("rho={r}")).collect();
    let table = |id: &str, title: &str, rows| ExpTable {
        id: id.into(),
        title: title.into(),
        columns: columns.clone(),
        rows,
    };
    FederationSweep {
        wind_fraction: table(
            "federation",
            "renewable share of federation energy (%) vs weather correlation",
            rows_wind,
        ),
        utility_kwh: table(
            "federation_utility",
            "utility energy (kWh) vs weather correlation",
            rows_util,
        ),
        migrations: table(
            "federation_migrations",
            "cross-site WAN migrations vs weather correlation",
            rows_mig,
        ),
    }
}

impl FederationSweep {
    /// Follow-surplus minus static-hash renewable share, in percentage
    /// points, at `sites` sites and the `rho_ix`-th correlation point —
    /// the sweep's headline (the diversification gain of geo-routing).
    pub fn surplus_gain_pp(&self, sites: usize, rho_ix: usize) -> f64 {
        let row = |name: &str| {
            self.wind_fraction
                .row(&format!("{name}@{sites}"))
                .expect("router row")
        };
        row("follow-surplus")[rho_ix] - row("static-hash")[rho_ix]
    }

    /// Renders the three tables plus the headline gains.
    pub fn render(&self) -> String {
        format!(
            "{}\n{}\n{}\n## federation headlines\n\
             follow-surplus over static-hash, 4 sites, independent weather: {:+.1} pp wind share\n\
             ... under one continent-wide front (rho=1):                    {:+.1} pp wind share\n",
            self.wind_fraction.render(),
            self.utility_kwh.render(),
            self.migrations.render(),
            self.surplus_gain_pp(4, 0),
            self.surplus_gain_pp(4, RHO_POINTS.len() - 1),
        )
    }
}

/// `iscope-exp fed-smoke` — CI gate over the federation layer:
///
/// 1. a 2-site federated run under the strict conservation auditor and
///    fault injection closes every site's books (rel residual < 1e-9);
/// 2. a 1-site federation under [`NullRouter`] is bit-identical to the
///    plain [`GreenDatacenterSim`] run of the same scenario (the full
///    lock lives in `tests/federation_equivalence.rs`; this leg keeps
///    the property visible in CI logs on every push).
pub fn smoke() {
    // Leg 1: strict per-site audit on a federated run.
    let mut cfg = ExpConfig::new(ExpScale::Fast);
    cfg.audit = true;
    let report = run_federation(scenario(&cfg, 2, 0.5, Box::new(FollowSurplusRouter)));
    assert_eq!(report.sites.len(), 2, "fed-smoke: wrong site count");
    assert_eq!(report.jobs(), cfg.jobs, "fed-smoke: lost jobs in routing");
    for site in &report.sites {
        let audit = site.audit.as_ref().expect("audited site carries a report");
        assert!(
            audit.clean(),
            "fed-smoke: a site breached invariants: {:?}",
            audit.violations
        );
        assert!(
            audit.energy_rel_residual < 1e-9,
            "fed-smoke: site energy books do not close: residual {:.2e}",
            audit.energy_rel_residual
        );
    }
    println!("fed-smoke 2-site audit ok: {}", report.summary());

    // Leg 2: 1-site federation parity against the plain single-site run.
    let fleet = 120usize;
    let plain_sim = || {
        GreenDatacenterSim::builder()
            .fleet_size(fleet)
            .synthetic_trace(SyntheticTrace {
                num_jobs: 500,
                max_cpus: 16,
                ..SyntheticTrace::default()
            })
            .scheme(Scheme::ScanFair)
            .supply(Supply::hybrid_farm(
                &WindFarm::default(),
                SimDuration::from_hours(96),
                fleet as f64 / 4800.0,
                42,
            ))
            .fault_injection(faults())
            .audit(AuditConfig::default())
            .telemetry(TelemetryConfig::default())
            .seed(42)
    };
    let plain = plain_sim().build().run();
    let built = plain_sim().build();
    let workload = built.workload().clone();
    let fed = run_federation(FederationInput {
        sites: vec![built.into_input()],
        workload,
        router: Box::new(NullRouter),
        wan_delay: SimDuration::from_mins(WAN_DELAY_MINS),
        reroute_retries: false,
    });
    let site = &fed.sites[0];
    assert_eq!(
        format!("{site:?}"),
        format!("{plain:?}"),
        "fed-smoke: 1-site federation diverged from the plain run"
    );
    println!(
        "fed-smoke parity ok: 1-site null-router federation bit-identical \
         to the plain run ({} jobs, faults on)",
        plain.jobs
    );
    println!("fed-smoke OK");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn four_site_surplus_follower_beats_static_hash() {
        let sweep = run(&ExpConfig::new(ExpScale::Fast));
        // Independent weather: following the forecast surplus must lift
        // the renewable share over weather-oblivious hashing.
        let gain = sweep.surplus_gain_pp(4, 0);
        assert!(
            gain > 0.0,
            "follow-surplus must beat static-hash at rho=0: {:+.2} pp\n{}",
            gain,
            sweep.wind_fraction.render()
        );
        // Perfectly correlated weather leaves little to harvest: the gain
        // shrinks (allowing noise) relative to the independent case.
        let flat = sweep.surplus_gain_pp(4, RHO_POINTS.len() - 1);
        assert!(
            flat < gain,
            "diversification gain should shrink as weather correlates: \
             rho=0 {gain:+.2} pp vs rho=1 {flat:+.2} pp"
        );
    }

    #[test]
    fn migrations_fire_and_jobs_are_conserved() {
        let cfg = ExpConfig::new(ExpScale::Fast);
        let r = run_federation(scenario(&cfg, 2, 0.0, Box::new(FollowSurplusRouter)));
        assert_eq!(r.jobs(), cfg.jobs, "jobs lost in routing/migration");
        assert_eq!(r.routed_jobs as usize, cfg.jobs);
        let per_site: Vec<usize> = r.sites.iter().map(|s| s.jobs).collect();
        assert!(
            per_site.iter().all(|&j| j > 0),
            "surplus routing starved a site entirely: {per_site:?}"
        );
    }
}
