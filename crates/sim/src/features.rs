//! Per-instruction timing features — the architecturally visible quantities
//! the trained datapath timing model consumes (the paper's Section 4,
//! "Datapath DTS Characterization" / "Datapath Activity Characterization").
//!
//! The key physical effects a value-aware datapath timing model must see:
//!
//! * **carry-chain length** — how far a carry actually propagates through
//!   the adder/subtractor (the dominant value dependence of ALU delay);
//! * **shift amount** — which mux layers of the barrel shifter switch;
//! * **operand width** — how many partial-product rows of the multiplier
//!   are non-trivial;
//! * **input toggles** — Hamming distance between this instruction's
//!   operands and the values previously on the ALU input buses, which
//!   determines *how much* of the logic switches at all (and is exactly
//!   what the error-correction scheme perturbs: after a flush/replay the
//!   previous bus values differ, which is why `p^e ≠ p^c`).

use crate::machine::Retired;
use terse_isa::Opcode;

/// The feature vector of one dynamic instruction instance.
///
/// `Hash`/`Eq` let the estimation pipeline memoize per-feature model
/// evaluations (identical feature vectors recur heavily across samples and
/// edge contexts).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct InstFeatures {
    /// The operation (selects the functional unit).
    pub opcode: Opcode,
    /// Longest carry-propagation run the adder/subtractor actually sees
    /// (0–32; 0 for non-add/sub operations).
    pub carry_chain: u8,
    /// Effective shift amount (0–31; 0 for non-shifts).
    pub shift_amount: u8,
    /// Larger operand bit-width for multiplies (0 otherwise).
    pub mul_width: u8,
    /// Hamming distance between operand A and the previous value on bus A.
    pub toggle_a: u8,
    /// Hamming distance between operand B and the previous value on bus B.
    pub toggle_b: u8,
}

impl InstFeatures {
    /// The previous-bus state a feature extraction is relative to.
    pub const FLUSHED_BUS: (u32, u32) = (0, 0);
}

/// The running bus state used to compute toggle features.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct BusState {
    /// Last value driven on operand bus A.
    pub a: u32,
    /// Last value driven on operand bus B.
    pub b: u32,
}

impl BusState {
    /// The state after a pipeline flush / replay bubble: buses parked at
    /// zero (the `nop` operand values) — the paper emulates exactly this by
    /// inserting a `nop` before each instruction when extracting `p^e`.
    pub fn flushed() -> Self {
        BusState { a: 0, b: 0 }
    }

    /// Advances the bus state past an instruction.
    pub fn advance(&mut self, r: &Retired) {
        let (a, b) = operand_values(r);
        self.a = a;
        self.b = b;
    }
}

/// The values an instruction drives on the two ALU operand buses.
pub fn operand_values(r: &Retired) -> (u32, u32) {
    let b = if r.inst.opcode.is_itype() || r.inst.opcode == Opcode::Ld {
        r.inst.imm.cast_unsigned()
    } else {
        r.rs2_val
    };
    (r.rs1_val, b)
}

/// Longest run of consecutive carry-propagate positions actually traversed
/// by a carry in `a + b + cin`.
///
/// Word-level: the carry into every bit is `(a + b + cin) ^ a ^ b`, a carry
/// is propagated where it meets a propagate position (`a ^ b`), and each
/// `m &= m >> 1` shortens every run of ones by one, so the step count to
/// zero is the longest run.
pub fn carry_chain_length(a: u32, b: u32, cin: bool) -> u8 {
    let carries = a.wrapping_add(b).wrapping_add(u32::from(cin)) ^ a ^ b;
    let mut m = (a ^ b) & carries;
    let mut best = 0u8;
    while m != 0 {
        m &= m >> 1;
        best += 1;
    }
    best
}

/// Extracts the feature vector of a retired instruction relative to a bus
/// state (normal execution uses the running state; `p^e` extraction uses
/// [`BusState::flushed`]).
pub fn extract(r: &Retired, bus: BusState) -> InstFeatures {
    let (a, b) = operand_values(r);
    // The raw carry run is capped at the highest sum bit the operation can
    // actually flip: a carry that ripples high but produces identical sum
    // bits (e.g. `x − x`, or `0xFFFFFFFF + 1` wrapping to 0) activates no
    // data-endpoint path beyond the last changing sum position.
    let sum_cap = |raw: u8, result: u32| -> u8 { raw.min((32 - result.leading_zeros()) as u8) };
    let carry_chain = match r.inst.opcode {
        Opcode::Add | Opcode::Addi | Opcode::Ld | Opcode::St | Opcode::Jal => {
            sum_cap(carry_chain_length(a, b, false), a.wrapping_add(b))
        }
        Opcode::Sub
        | Opcode::Beq
        | Opcode::Bne
        | Opcode::Blt
        | Opcode::Bge
        | Opcode::Slt
        | Opcode::Sltu
        | Opcode::Slti => sum_cap(carry_chain_length(a, !b, true), a.wrapping_sub(b)),
        _ => 0,
    };
    let shift_amount = match r.inst.opcode {
        Opcode::Sll | Opcode::Srl | Opcode::Sra => (b & 31) as u8,
        Opcode::Slli | Opcode::Srli | Opcode::Srai => (r.inst.imm as u32 & 31) as u8,
        _ => 0,
    };
    let mul_width = if r.inst.opcode == Opcode::Mul {
        (32 - a.leading_zeros().min(31)).max(32 - b.leading_zeros().min(31)) as u8
    } else {
        0
    };
    InstFeatures {
        opcode: r.inst.opcode,
        carry_chain,
        shift_amount,
        mul_width,
        toggle_a: (a ^ bus.a).count_ones() as u8,
        toggle_b: (b ^ bus.b).count_ones() as u8,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use terse_isa::Instruction;

    fn retired(inst: Instruction, rs1_val: u32, rs2_val: u32) -> Retired {
        Retired {
            index: 0,
            inst,
            rs1_val,
            rs2_val,
            result: 0,
            mem_addr: None,
            loaded: None,
            taken: None,
            next_pc: 1,
        }
    }

    #[test]
    fn carry_chain_known_cases() {
        // 0xFFFF + 1 ripples a carry through 16 propagate positions... the
        // generate at bit 0 (1+1) then propagates through bits 1..15 of a.
        assert_eq!(carry_chain_length(0xFFFF, 1, false), 15);
        // No carries at all.
        assert_eq!(carry_chain_length(0b1010, 0b0101, false), 0);
        // Full 31-bit propagate: a = 0x7FFFFFFF, b = 1.
        assert_eq!(carry_chain_length(0x7FFF_FFFF, 1, false), 30);
        // All-ones plus all-ones: every position generates, no long chains
        // of pure propagation (p = 0 everywhere).
        assert_eq!(carry_chain_length(u32::MAX, u32::MAX, false), 0);
        // Subtraction x − x via a + !b + 1 propagates through every bit.
        assert_eq!(carry_chain_length(0x1234, !0x1234, true), 32);
    }

    #[test]
    fn add_features() {
        let add = Instruction::rtype(Opcode::Add, 3, 1, 2);
        let f = extract(&retired(add, 0xFFFF, 1), BusState::flushed());
        assert_eq!(f.carry_chain, 15);
        assert_eq!(f.shift_amount, 0);
        assert_eq!(f.mul_width, 0);
        assert_eq!(f.toggle_a, 16); // 0xFFFF vs 0
        assert_eq!(f.toggle_b, 1);
    }

    #[test]
    fn immediate_operand_used_for_itype() {
        let addi = Instruction::itype(Opcode::Addi, 3, 1, 0x7F);
        let f = extract(
            &retired(addi, 0, 999 /* ignored rs2 */),
            BusState::flushed(),
        );
        assert_eq!(f.toggle_b, 7); // imm 0x7F has 7 bits
    }

    #[test]
    fn shift_and_mul_features() {
        let sll = Instruction::rtype(Opcode::Sll, 3, 1, 2);
        let f = extract(&retired(sll, 0xFF, 13), BusState::flushed());
        assert_eq!(f.shift_amount, 13);
        let mul = Instruction::rtype(Opcode::Mul, 3, 1, 2);
        let f = extract(&retired(mul, 0xFF, 0x3), BusState::flushed());
        assert_eq!(f.mul_width, 8);
    }

    #[test]
    fn toggles_depend_on_bus_state() {
        let add = Instruction::rtype(Opcode::Add, 3, 1, 2);
        let r = retired(add, 0xAAAA, 0x5555);
        let f_flushed = extract(&r, BusState::flushed());
        let f_same = extract(
            &r,
            BusState {
                a: 0xAAAA,
                b: 0x5555,
            },
        );
        assert_eq!(f_same.toggle_a, 0);
        assert_eq!(f_same.toggle_b, 0);
        assert!(f_flushed.toggle_a > 0);
        // This asymmetry is precisely why p^c ≠ p^e.
        assert_ne!(f_flushed, f_same);
    }

    #[test]
    fn bus_state_advance() {
        let add = Instruction::rtype(Opcode::Add, 3, 1, 2);
        let r = retired(add, 7, 9);
        let mut bus = BusState::flushed();
        bus.advance(&r);
        assert_eq!(bus, BusState { a: 7, b: 9 });
    }
}
