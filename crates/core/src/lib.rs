//! # iscope — hardware profile-guided green datacenter scheduling
//!
//! A from-scratch reproduction of *"Exploring Hardware Profile-Guided
//! Green Datacenter Scheduling"* (Tang et al., ICPP 2015): the iScope
//! power-management framework, its scanner and scheduler, and the
//! simulation substrates its evaluation runs on.
//!
//! ## Quickstart
//!
//! ```
//! use iscope::prelude::*;
//!
//! let report = GreenDatacenterSim::builder()
//!     .fleet_size(48)                 // processors (paper: 4800)
//!     .scheme(Scheme::ScanFair)       // the iScope default scheme
//!     .synthetic_jobs(30)             // LLNL-Thunder-like workload
//!     .supply(Supply::utility_only())
//!     .seed(42)
//!     .build()
//!     .run();
//! println!("{}", report.summary());
//! ```
//!
//! ## Crate map
//!
//! * [`iscope_dcsim`] — deterministic discrete-event engine.
//! * [`iscope_pvmodel`] — process variation, power, binning, Eq-1/2/3.
//! * [`iscope_energy`] — wind farm, power traces, prices.
//! * [`iscope_workload`] — SWF parser, synthetic traces, urgency shaping.
//! * [`iscope_scanner`] — SBFT profiling protocol and overhead model.
//! * [`iscope_sched`] — the five Table 2 schemes and DVFS matching.
//! * this crate — the simulation wiring, builder API, reports, sweeps.

#![warn(missing_docs)]

pub mod config;
pub mod experiments;
pub mod federation;
pub mod report;
pub mod simulation;
mod site;
pub mod snapshot;
pub mod telemetry;

pub use config::{GreenDatacenterSim, SimRun};
pub use federation::{
    correlated_wind_supplies, run_federation, FederationInput, FollowSurplusRouter, NullRouter,
    Router, SiteView, StaticHashRouter,
};
pub use report::{
    AuditReport, CarbonStats, FaultStats, FederationReport, ProfilingStats, RunReport,
};
pub use simulation::{
    run_simulation, AuditConfig, DeferralConfig, Driver, DvfsMode, FaultInjectionConfig,
    InSituConfig, InputPlan, PhaseTimers, ReprofileConfig, RunStats, SimDriver, SimInput,
    StreamDriver, StreamStats, SurplusSignal,
};
pub use snapshot::SnapshotError;
pub use telemetry::{TelemetryConfig, TelemetryRecord};

/// One-stop imports for examples and downstream users.
pub mod prelude {
    pub use crate::config::GreenDatacenterSim;
    pub use crate::report::RunReport;
    pub use iscope_dcsim::{SimDuration, SimTime};
    pub use iscope_energy::{Battery, PowerTrace, PriceBook, SignalTrace, Supply, WindFarm};
    pub use iscope_pvmodel::{CoolingModel, DvfsConfig, Fleet, OperatingPlan, VariationParams};
    pub use iscope_scanner::{Scanner, ScannerConfig, TestKind};
    pub use iscope_sched::CarbonConfig;
    pub use iscope_sched::Scheme;
    pub use iscope_workload::{Shaper, SyntheticTrace, Workload};
}
