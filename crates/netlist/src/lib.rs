//! # terse-netlist
//!
//! Gate-level netlist substrate for the TERSE framework.
//!
//! The paper analyzes the synthesized netlist of the LEON3 integer unit; that
//! netlist (and the Synopsys flow that produces it) is unobtainable, so this
//! crate builds the closest synthetic equivalent: a *real* gate-level netlist
//! of a 6-stage in-order integer pipeline, generated structurally from
//! textbook arithmetic circuits. Every gate carries an actual boolean
//! function, so the paper's notion of *activation* (Definition 3.2 — a gate
//! is activated in a cycle if its output net changes value) is computed by
//! genuinely simulating the circuit, cycle by cycle. This is what produces
//! value-dependent critical paths: an `add` with a long carry propagation
//! activates a long path through the ripple-carry chain, a short one does
//! not.
//!
//! Contents:
//!
//! * [`bitset`] — a compact bit set used for per-cycle activation sets (the
//!   `VCD(t)` of the paper's Algorithm 1).
//! * [`gate`] — gate kinds and boolean evaluation.
//! * [`netlist`] — the netlist graph: gates, fanin/fanout, flip-flop
//!   *endpoints* (classified control vs data, Section 4 of the paper),
//!   levelization, named buses, and 2-D placement for the spatial-correlation
//!   model.
//! * [`builder`] — incremental netlist construction.
//! * [`circuits`] — structural generators: ripple-carry adder/subtractor,
//!   barrel shifter, logic unit, comparators, array multiplier, mux trees,
//!   decoders and pseudo-random control clouds.
//! * [`pipeline`] — the 6-stage integer pipeline netlist (the LEON3
//!   substitute) with named stage input banks for co-simulation.
//! * [`sim`] — the cycle-accurate boolean simulator producing
//!   [`activity::ActivityTrace`]s (the VCD substitute).
//!
//! # Example
//!
//! ```
//! use terse_netlist::builder::NetlistBuilder;
//! use terse_netlist::gate::GateKind;
//! use terse_netlist::sim::Simulator;
//!
//! # fn main() -> Result<(), terse_netlist::NetlistError> {
//! // A 1-bit toggling circuit: ff feeds an inverter feeding the ff.
//! let mut b = NetlistBuilder::new(1);
//! let ff = b.flip_flop("state", terse_netlist::netlist::EndpointClass::Data, 0)?;
//! let inv = b.gate(GateKind::Not, &[ff], 0)?;
//! b.connect_ff_input(ff, inv)?;
//! let netlist = b.finish()?;
//! let mut sim = Simulator::new(&netlist);
//! sim.step(); // q: 0 -> comb computes 1
//! sim.step(); // q captures 1, comb computes 0
//! assert!(sim.value(inv) == false);
//! # Ok(())
//! # }
//! ```

// Numeric-kernel idioms used intentionally throughout this crate:
// `!(x >= 0.0)` rejects NaN along with negatives, and index loops run over
// several parallel arrays at once.
#![allow(clippy::neg_cmp_op_on_partial_ord, clippy::needless_range_loop)]
#![warn(missing_docs)]
pub mod activity;
pub mod bitset;
pub mod builder;
pub mod circuits;
pub mod consts;
pub mod gate;
pub mod netlist;
pub mod pipeline;
pub mod signature;
pub mod sim;

pub use activity::ActivityTrace;
pub use bitset::BitSet;
pub use builder::NetlistBuilder;
pub use consts::{eval_with, stable_values, stable_values_with, Tri, ValueConstraints};
pub use gate::{GateId, GateKind};
pub use netlist::{EndpointClass, Netlist};
pub use pipeline::{PipelineConfig, PipelineNetlist};
pub use sim::Simulator;

use std::fmt;

/// Error type for netlist construction and queries.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum NetlistError {
    /// A referenced gate id does not exist.
    UnknownGate {
        /// The offending id value.
        id: u32,
    },
    /// A named bus or port was not found.
    UnknownName {
        /// The name that failed to resolve.
        name: String,
    },
    /// A bus name was registered twice.
    DuplicateName {
        /// The duplicated name.
        name: String,
    },
    /// A gate received the wrong number of inputs for its kind.
    BadFaninCount {
        /// The gate kind.
        kind: &'static str,
        /// Expected input count.
        expected: usize,
        /// Provided input count.
        got: usize,
    },
    /// The combinational part of the netlist contains a cycle.
    CombinationalCycle,
    /// A stage index was out of range.
    BadStage {
        /// The offending stage.
        stage: usize,
        /// Number of stages in the netlist.
        stages: usize,
    },
    /// A flip-flop was left without a D input connection.
    UnconnectedFlipFlop {
        /// The flip-flop id.
        id: u32,
    },
}

impl fmt::Display for NetlistError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NetlistError::UnknownGate { id } => write!(f, "unknown gate id {id}"),
            NetlistError::UnknownName { name } => write!(f, "unknown bus or port name `{name}`"),
            NetlistError::DuplicateName { name } => write!(f, "duplicate bus name `{name}`"),
            NetlistError::BadFaninCount {
                kind,
                expected,
                got,
            } => write!(f, "gate kind {kind} expects {expected} inputs, got {got}"),
            NetlistError::CombinationalCycle => {
                write!(f, "combinational logic contains a cycle")
            }
            NetlistError::BadStage { stage, stages } => {
                write!(f, "stage {stage} out of range for {stages}-stage netlist")
            }
            NetlistError::UnconnectedFlipFlop { id } => {
                write!(f, "flip-flop {id} has no D input connected")
            }
        }
    }
}

impl std::error::Error for NetlistError {}

/// Crate-wide result alias.
pub type Result<T, E = NetlistError> = std::result::Result<T, E>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn errors_are_displayable_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<NetlistError>();
        let e = NetlistError::CombinationalCycle;
        assert!(!e.to_string().is_empty());
    }
}
