//! # iscope-pvmodel — process variation, power, and timing models
//!
//! The hidden hardware truth of a green datacenter's fleet and the models
//! that turn operating points into watts and seconds:
//!
//! * [`params`] — variation statistics (`alpha ~ N(7.5, 0.75)`,
//!   `beta ~ Poisson(65)`, Min Vdd margins calibrated to the paper's
//!   measured A10-5800K band).
//! * [`freq`] — DVFS levels (5 levels, 750 MHz – 2 GHz) and the nominal
//!   V(f) curve (1.375 V at the top level).
//! * [`chip`] — chips/cores with true per-core Min Vdd(f) curves and the
//!   stability oracle the scanner probes.
//! * [`power`] — Eq-1 unfolded with explicit voltage dependence.
//! * [`exectime`] — Eq-3 execution time under DVFS with CPU-boundness.
//! * [`cooling`] — Eq-2 COP cooling model.
//! * [`binning`] — factory efficiency bins with worst-case voltage
//!   (Table 1 metadata included).
//! * [`plan`] — [`OperatingPlan`]: applied voltages + scheduler-visible
//!   power estimates under Bin vs Scan knowledge.
//! * [`population`] — [`Fleet`] generation.

#![warn(missing_docs)]

pub mod aging;
pub mod binning;
pub mod chip;
pub mod cooling;
pub mod exectime;
pub mod failure;
pub mod freq;
pub mod params;
pub mod plan;
pub mod population;
pub mod power;

pub use aging::{AgingModel, WearReport};
pub use binning::{Bin, BinId, Binning, OpteronBin, OPTERON_6300_BINS};
pub use chip::{Chip, ChipId, Core, CoreId};
pub use cooling::CoolingModel;
pub use exectime::{exec_time_secs, speed_factor, CpuBoundness};
pub use failure::FailureModel;
pub use freq::{DvfsConfig, FreqLevel};
pub use params::VariationParams;
pub use plan::{
    microwatts_to_watts, watts_to_microwatts, OperatingPlan, MICROWATTS_PER_WATT, SCAN_GUARDBAND_V,
};
pub use population::Fleet;
pub use power::PowerModel;
