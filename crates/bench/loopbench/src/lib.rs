#![forbid(unsafe_code)]
//! # loopbench — the closed-loop benchmark of the DeepDive datacenter
//!
//! One command runs one workload for a set number of host seconds, as
//! repeated episodes in one process.  Each episode generates its inputs
//! from the seed, builds the system through its public API
//! (`DatacenterService`, `EpochEngine`, `DeepDive`, `Cluster`) and drives
//! the closed loop — service → engine → controller → migrations — for a
//! fixed number of simulated epochs.  The engine and the controller share
//! one `WorkerPool` of `ExecutionMode::from_env()` lanes.
//!
//! * [`workload`] — the three workloads and one episode of each;
//! * [`trace`] — the span recorder of the traced run;
//! * [`gate`] — output digests and the correctness checks;
//! * [`metrics`] — metric definitions and how each is computed;
//! * [`run`] — a whole run and its one-line JSON result.

pub mod gate;
pub mod metrics;
pub mod run;
pub mod trace;
pub mod workload;
