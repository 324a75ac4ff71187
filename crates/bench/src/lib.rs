//! Experiment harness for the LVQ paper's evaluation (§VII).
//!
//! Each experiment module regenerates one table or figure:
//!
//! | paper artefact | module | what it reports |
//! |---|---|---|
//! | Table I  | [`experiments::tables`] | blocks merged per height |
//! | Table II | [`experiments::tables`] | sub-segment division |
//! | Table III| [`experiments::tables`] | planted probe footprints |
//! | Fig. 12  | [`experiments::fig12`]  | result size, 4 schemes × 6 addresses |
//! | Fig. 13  | [`experiments::bf_sweep`] | result size vs BF size (LVQ) |
//! | Fig. 14  | [`experiments::bf_sweep`] | BMT-branch share of the result |
//! | Fig. 15  | [`experiments::bf_sweep`] | endpoint count vs BF size |
//! | Fig. 16  | [`experiments::fig16`]  | endpoint count vs segment length |
//! | (extra)  | [`experiments::storage`]| light-node storage per scheme |
//!
//! Four more modules — [`experiments::chaos`], [`experiments::quorum`],
//! [`experiments::reorg`] and [`experiments::crashloop`] — hard-assert
//! serving invariants instead of reporting a figure. Wall-clock
//! measurements live in the separate `perfbench` package.
//!
//! Experiments run at two scales: [`Scale::Small`] (seconds, shapes
//! only) and [`Scale::Paper`] (the paper's 4,096-block setup; minutes).
//! The `repro` binary drives them: `repro all --scale paper`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod experiments;
pub mod report;
mod scale;
mod workloads;

pub use scale::Scale;
pub use workloads::{build_workload, built_probes, WorkloadSpec};
