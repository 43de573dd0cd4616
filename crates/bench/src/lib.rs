#![forbid(unsafe_code)]
//! # bench — experiment harness regenerating every figure of the paper
//!
//! Each figure or table of DeepDive's evaluation has a corresponding bench
//! target under `benches/` that (a) re-runs the experiment on the simulated
//! substrate and prints the same series/rows the paper reports, and (b)
//! feeds a representative kernel of that experiment to Criterion so `cargo
//! bench` also produces timing numbers.
//!
//! The heavy lifting lives here, in plain library code, so integration tests
//! can assert the *qualitative* claims (who wins, what is detected, which
//! resource is blamed) without going through Criterion:
//!
//! * [`setup`] — builders for the victim/aggressor VMs and clusters used
//!   across experiments.
//! * [`figures`] — one function per figure, returning printable data.
//!
//! The four throughput benches (`resolver_throughput`,
//! `cluster_throughput`, `controller_throughput`, `datacenter_throughput`)
//! additionally dump machine-readable JSON at the workspace root through
//! [`dump`], whose schema table the `check_bench_json` bin validates in CI.

pub mod dump;
pub mod figures;
pub mod setup;

pub use figures::*;
pub use setup::*;
