//! # terse-sim
//!
//! Simulation substrate: the TERSE-32 architectural simulator, execution
//! profiling, gate-level co-simulation, error-correction emulation, and the
//! Monte Carlo error-injection baseline.
//!
//! The paper's flow (its Figures 1 and 2) needs three kinds of simulation:
//!
//! 1. **Functional simulation** of the program to produce signal activity
//!    (the VCD input of Algorithm 1). [`cosim::CoSim`] drives the gate-level
//!    pipeline netlist of `terse-netlist` with architecturally computed
//!    values, one retired instruction per cycle, recording the per-cycle
//!    activation sets and which instruction occupies which stage when.
//! 2. **Architecture-level datapath activity characterization** — the paper
//!    instruments native binaries via LLVM to evaluate its trained datapath
//!    timing model at speed; our [`machine::Machine`] +
//!    [`profile::Profiler`] play that role, recording block execution
//!    counts, edge activations, and per-instruction timing *features*
//!    ([`features::InstFeatures`]) for both the normal previous-instruction
//!    state and the state the error-correction scheme leaves behind
//!    (Section 4.1's `p^c` vs `p^e` distinction).
//! 3. **Monte Carlo ground truth** ([`monte_carlo`]) — the paper could not
//!    afford Monte Carlo verification of its limit-theorem approximations;
//!    we can on small programs, and use it to validate the estimator.
//!
//! # Example
//!
//! ```
//! use terse_isa::assemble;
//! use terse_sim::machine::Machine;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let p = assemble("addi r1, r0, 2\naddi r2, r0, 3\nadd r3, r1, r2\nhalt\n")?;
//! let mut m = Machine::new(&p, 64);
//! m.run(&p, 100)?;
//! assert_eq!(m.reg(3), 5);
//! # Ok(())
//! # }
//! ```

// Numeric-kernel idioms used intentionally throughout this crate:
// `!(x >= 0.0)` rejects NaN along with negatives, and index loops run over
// several parallel arrays at once.
#![allow(clippy::neg_cmp_op_on_partial_ord, clippy::needless_range_loop)]
#![warn(missing_docs)]
#![deny(clippy::undocumented_unsafe_blocks)]
pub mod correction;
pub mod cosim;
pub mod features;
pub mod machine;
pub mod monte_carlo;
pub mod profile;
pub mod sweep;

pub use correction::CorrectionScheme;
pub use cosim::{CoSim, CosimStats};
pub use features::InstFeatures;
pub use machine::{Machine, Retired};
pub use profile::{ProfileResult, Profiler};
pub use sweep::Checkpoint;

use std::fmt;

/// Errors from simulation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SimError {
    /// A data-memory access fell outside the allocated memory.
    MemoryOutOfBounds {
        /// The offending word address.
        address: u32,
        /// The memory size in words.
        size: usize,
    },
    /// The PC left the instruction memory without reaching `halt`.
    PcOutOfRange {
        /// The offending PC.
        pc: u32,
    },
    /// The instruction budget was exhausted before `halt`.
    InstructionBudgetExhausted {
        /// The budget that was exceeded.
        budget: u64,
    },
    /// A netlist interaction failed (bus name mismatch etc.).
    Netlist(String),
    /// A Monte Carlo checkpoint file could not be read, written, or did not
    /// match the run it was resumed into.
    Checkpoint(String),
    /// A Monte Carlo grid ran out of its cell budget; the checkpoint (if
    /// any) holds the completed cells and a re-run resumes from it.
    Interrupted {
        /// Grid cells already completed (and checkpointed).
        completed: usize,
        /// Total cells in the grid.
        total: usize,
    },
    /// A Monte Carlo call's traces query more distinct slack keys, or
    /// resolve to more slack classes, than a `u32` trace entry can number.
    SlackClassOverflow,
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::MemoryOutOfBounds { address, size } => {
                write!(f, "memory access at word {address} outside size {size}")
            }
            SimError::PcOutOfRange { pc } => write!(f, "pc {pc} outside instruction memory"),
            SimError::InstructionBudgetExhausted { budget } => {
                write!(f, "instruction budget {budget} exhausted before halt")
            }
            SimError::Netlist(m) => write!(f, "netlist interaction failed: {m}"),
            SimError::Checkpoint(m) => write!(f, "monte carlo checkpoint failed: {m}"),
            SimError::Interrupted { completed, total } => write!(
                f,
                "monte carlo grid interrupted after {completed}/{total} cells \
                 (checkpointed; re-run to resume)"
            ),
            SimError::SlackClassOverflow => {
                write!(f, "monte carlo traces need more than 2^32 slack class ids")
            }
        }
    }
}

impl std::error::Error for SimError {}

impl From<terse_netlist::NetlistError> for SimError {
    fn from(e: terse_netlist::NetlistError) -> Self {
        SimError::Netlist(e.to_string())
    }
}

/// Crate-wide result alias.
pub type Result<T, E = SimError> = std::result::Result<T, E>;

#[cfg(test)]
mod tests {
    #[test]
    fn error_traits() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<super::SimError>();
    }
}
