//! # iscope-sched — variation-aware scheduling (the iScope scheduler)
//!
//! The decision-making half of iScope (§IV):
//!
//! * [`view`] — the scheduler's snapshot of the pool ([`ProcView`]).
//! * [`index`] — persistent tournament-tree indexes over the pool
//!   orderings ([`ChipIndexes`]), so placements extract candidates in
//!   O(k log F) instead of scanning the fleet.
//! * [`placement`] — the Ran / Effi / Fair placement rules with gang
//!   semantics and deadline feasibility.
//! * [`scheme`] — the five evaluated [`Scheme`]s of Table 2 (profiling
//!   strategy × scheduling rule) and their operating-plan construction.
//! * [`dvfs`] — greedy supply/demand budget matching: scale down while
//!   deadlines allow, restore when the renewable budget recovers.
//! * [`recovery`] — bounded-retry policy for gangs killed by runtime
//!   timing failures.
//! * [`carbon`] — carbon/price-aware deferral and suspend/resume policy
//!   composing with any base scheme ([`CarbonConfig`]).

#![warn(missing_docs)]

pub mod carbon;
pub mod dvfs;
pub mod index;
pub mod placement;
pub mod recovery;
pub mod scheme;
pub mod view;

pub use carbon::CarbonConfig;
pub use dvfs::{match_budget, DvfsCandidate, MatchOutcome};
pub use index::{validate_key_range, ChipIndexes, KeyRangeError};
pub use placement::{
    EfficiencyPlacement, FairPlacement, Placement, PlacementDecision, RandomPlacement,
};
pub use recovery::RetryPolicy;
pub use scheme::{Profiling, Scheme};
pub use view::{PlaceScratch, ProcView};
