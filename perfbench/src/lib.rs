//! The rowfpga layout benchmark.
//!
//! One command runs one workload — a fixed set of designs, chips and an
//! annealing schedule, all read from the pinned files under `inputs/` —
//! and prints one JSON line of metrics. With tracing off it times the
//! public flow entries (`SimultaneousPlaceRoute::run`,
//! `SequentialPlaceRoute::run`) and reports the end-to-end metrics; with
//! tracing on it re-drives the same flows through the public calls the
//! engine makes, times each layer from outside the program, and reports
//! the per-layer metrics. Every layout that is timed is checked first
//! ([`check`]).
//!
//! The benchmark changes no library code: everything here goes through
//! the public APIs of `netlist`, `arch`, `place`, `route`, `timing`,
//! `anneal`, `core` and `baseline`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod check;
pub mod error;
pub mod fold;
pub mod inputs;
pub mod probe;
pub mod report;
pub mod run;
pub mod trace;

pub use error::BenchError;
