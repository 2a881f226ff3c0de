//! The repository benchmark: host-time and simulated metrics of the
//! ORCHESTRA reproduction over three closed-loop workloads, driven from
//! one process and one thread through the public API.
//!
//! See `perfbench/README.md` for the workloads, the metrics and which
//! layer metric should move which end-to-end metric.

pub mod clock;
pub mod gen;
pub mod report;
pub mod trace;
pub mod workloads;
