//! # iscope-workload — parallel workload substrate
//!
//! Jobs for the green-datacenter simulator:
//!
//! * [`job`] — rigid parallel [`Job`]s with HU/LU deadlines, collected in
//!   a [`Workload`]; includes the Fig. 10 required-processor trace.
//! * [`swf`] — a faithful Standard Workload Format parser/writer so real
//!   Parallel Workloads Archive logs (e.g. LLNL Thunder) can be dropped in.
//! * [`synthetic`] — an LLNL-Thunder-calibrated synthetic generator
//!   (diurnal submissions, power-of-two sizes, log-normal runtimes).
//! * [`shaping`] — the [`Shaper`]: urgency classes (`N(4, 2)` / `N(12, 2)`
//!   deadline factors), CPU-boundness, and the arrival-rate knob.

#![warn(missing_docs)]

pub mod job;
pub mod shaping;
pub mod source;
pub mod stats;
pub mod swf;
pub mod synthetic;

pub use job::{Job, JobId, Urgency, Workload};
pub use shaping::Shaper;
pub use source::{JobSource, SourceError, SwfSource, SyntheticSource, WorkloadSource};
pub use stats::WorkloadStats;
pub use swf::{parse_swf, parse_swf_line, write_swf, SwfError, SwfRecord};
pub use synthetic::{raw_jobs_from_swf, RawJob, SyntheticTrace};
