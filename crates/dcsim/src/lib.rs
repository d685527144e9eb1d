//! # iscope-dcsim — deterministic discrete-event simulation engine
//!
//! The substrate every other iScope crate runs on:
//!
//! * [`time`] — integer-millisecond [`SimTime`]/[`SimDuration`] clock.
//! * [`event`] — [`EventQueue`] with FIFO tie-breaking.
//! * [`engine`] — the [`Engine`]/[`Model`] one-event step.
//! * [`rng`] — seeded [`SimRng`] with Normal / Poisson / Weibull /
//!   LogNormal samplers (implemented in-crate; see DESIGN.md §6).
//! * [`stats`] — Welford accumulators, histograms and quantiles.
//! * [`trace`] — fixed-interval samplers for the power-trace figures.
//!
//! Everything is deterministic given a seed: equal-time events pop in
//! insertion order, all randomness flows from [`SimRng`], and no
//! wall-clock or hash-order dependence exists anywhere in the engine.

#![warn(missing_docs)]

pub mod engine;
pub mod event;
pub mod rng;
pub mod stats;
pub mod time;
pub mod trace;

pub use engine::{Ctx, Engine, Model};
pub use event::EventQueue;
pub use rng::{RngSnapshot, SimRng};
pub use stats::{Histogram, Running};
pub use time::{SimDuration, SimTime};
pub use trace::{RowSampler, Sampler, TimeSeries};
