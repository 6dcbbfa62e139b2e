//! Static and incremental timing analysis for row-based FPGA layout.
//!
//! Antifuse interconnect makes delay a function of the *number of
//! antifuses* on a path at least as much as of its length (paper §2.1), so
//! the worst-case delay term `T` of the simultaneous layout cost function is
//! computed from the physical embedding:
//!
//! * **Elmore delay** ([`elmore_sink_delays`]) over the exact RC tree of a
//!   fully embedded net — every claimed segment contributes distributed
//!   wire RC and every programmed antifuse a series resistance and shunt
//!   capacitance (paper §3.5, first moment of the AWE analysis the authors
//!   scored with RICE \[12\]);
//! * **spatial-extent estimates** ([`estimate_sink_delay`]) for nets that
//!   are not yet physically embedded, relating the net's bounding box to
//!   the probable number of antifuses it will encounter;
//! * a full **static timing analysis** ([`Sta`]) used to score finished
//!   layouts of both flows, including critical-path extraction;
//! * the **incremental engine** ([`TimingState`]): cells are levelized once
//!   (connectivity only), and after each move the changed nets' delays are
//!   recomputed and propagated through a bitset frontier of affected
//!   cells over a topological order, swept upward until it empties (paper
//!   §3.5 and Figure 5), with transactional undo for rejected moves.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod delay;
mod elmore;
mod estimate;
mod sta;
mod state;

pub use delay::{
    cell_intrinsic_delay, endpoint_intrinsic_delay, net_sink_delays, net_sink_delays_into,
};
pub use elmore::{elmore_sink_delays, elmore_sink_delays_into, ElmoreScratch};
pub use estimate::estimate_sink_delay;
pub use sta::{CriticalPath, PathElement, Sta};
pub use state::TimingState;
