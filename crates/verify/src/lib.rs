//! Differential fuzzing and invariant oracles for the simultaneous
//! place-and-route engine.
//!
//! The engine's entire speedup over re-running placement and routing from
//! scratch rests on incremental state staying equivalent to full
//! re-evaluation (paper §3.3–3.5). This crate attacks that claim head-on:
//!
//! * [`gen`] draws random row-based architectures (row counts, channel
//!   widths, segmentation profiles) and random netlists from a seed;
//! * [`invariants`] is a library of structural checks — segment-ownership
//!   exclusivity, segmentation legality, pinmap/site consistency,
//!   feedthrough conservation, Elmore-delay sanity — callable from any
//!   test;
//! * [`script`] records replayable move sequences whose every subsequence
//!   stays legal, the property that makes shrinking possible;
//! * [`oracle`] compares the incremental engine against from-scratch
//!   rebuilds: occupancy vs routes, incremental vs full timing (to ULP
//!   tolerance), apply-then-undo identity, checkpoint round trips,
//!   checkpoint crash windows and K-replica determinism;
//! * [`shrink`] reduces failing scripts to 1-minimal repros with ddmin;
//! * [`repro`] persists a failure as `.arch`, `.net` and JSON sidecar
//!   files that replay deterministically;
//! * [`harness`] ties it all together into the fuzzing campaign behind
//!   `rowfpga fuzz`, including (under the `fault-inject` feature) the
//!   planted-fault self-test proving the oracles catch every corruption
//!   kind the engine can inject.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod gen;
pub mod harness;
pub mod invariants;
pub mod oracle;
pub mod repro;
pub mod script;
pub mod shrink;

pub use gen::{random_case, CaseConfig, FuzzCase};
pub use harness::{check_script, replay_repro, run_fuzz, FuzzConfig, FuzzFailure, FuzzReport};
#[cfg(feature = "fault-inject")]
pub use harness::{run_fuzz_with_faults, FaultReport, FaultTrial};
pub use invariants::{check_all, Violation};
pub use oracle::{
    checkpoint_crash_windows, checkpoint_roundtrip, differential_audit, replica_determinism,
    rollback_identity, ulp_distance, OracleFailure, StateDigest, TIMING_ULPS,
};
pub use repro::Repro;
pub use script::{op_to_move, random_script, replay, MoveScript, ScriptOp};
pub use shrink::ddmin;
