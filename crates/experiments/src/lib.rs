//! # iscope-experiments — every table and figure of the paper
//!
//! One module per evaluation artifact; the `iscope-exp` binary dispatches
//! to them and writes JSON into `results/`. See DESIGN.md §5 for the
//! experiment index and EXPERIMENTS.md for paper-vs-measured records.

#![warn(missing_docs)]

pub mod ablations;
pub mod audit;
pub mod bench_report;
pub mod carbon;
pub mod common;
pub mod federation;
pub mod fig10;
pub mod fig4;
pub mod fig5;
pub mod fig6;
pub mod fig7;
pub mod fig8;
pub mod fig9;
pub mod fork;
pub mod insitu;
pub mod lifetime;
pub mod memory;
pub mod resume;
pub mod sensitivity;
pub mod tables;
