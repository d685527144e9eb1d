//! # iscope-scanner — dynamic hardware scanning (the iScope scanner)
//!
//! The software toolchain that gives a green datacenter "a fairly complete
//! view of the underlying hardware" (§III):
//!
//! * [`sbft`] — software-based functional failing tests and stress tests
//!   (29 s vs 10 min per operating point) probing the cores' stability
//!   oracle.
//! * [`records`] — the descending voltage grid and one chip's scan
//!   records ([`ChipScan`]) with the stage-6 inference (a fail forces
//!   lower voltages to fail), yielding measured Min Vdd per core per
//!   frequency bin.
//! * [`protocol`] — the master/slave profiling protocol of Fig. 3 and the
//!   [`Scanner`], whose fleet scan folds chip scans into a [`ScanReport`].
//! * [`opportunistic`] — low-utilization window analysis (Fig. 10) and
//!   campaign-length estimation.
//! * [`overhead`] — the §VI.E energy-cost arithmetic (230/598 and
//!   11.2/28.9 USD figures reproduce exactly).
//! * [`staleness`] — how long a scanned plan stays safe as chips age, and
//!   the implied re-profiling cadence (the §III.C periodic-profiling
//!   argument, quantified).

#![warn(missing_docs)]

pub mod opportunistic;
pub mod overhead;
pub mod protocol;
pub mod records;
pub mod sbft;
pub mod staleness;

pub use opportunistic::{analyse_windows, estimate_campaign, CampaignEstimate, WindowReport};
pub use overhead::{OverheadModel, ProfilingCost};
pub use protocol::{with_nominal_fallback, ScanReport, Scanner, ScannerConfig};
pub use records::{ChipScan, VoltageGrid};
pub use sbft::{TestKind, TestOutcome, TestProgram};
pub use staleness::{
    analyse_staleness, safe_reprofile_interval_hours, ReprofilePolicy, StalenessReport,
};
