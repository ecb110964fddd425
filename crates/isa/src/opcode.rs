//! The TERSE-32 instruction repertoire.

/// Operation codes. The 6-bit encoding value of each opcode is its
/// discriminant.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
#[repr(u8)]
pub enum Opcode {
    /// No operation.
    Nop = 0,
    /// `rd ← rs1 + rs2`
    Add = 1,
    /// `rd ← rs1 − rs2`
    Sub = 2,
    /// `rd ← rs1 & rs2`
    And = 3,
    /// `rd ← rs1 | rs2`
    Or = 4,
    /// `rd ← rs1 ^ rs2`
    Xor = 5,
    /// `rd ← rs1 << rs2[4:0]`
    Sll = 6,
    /// `rd ← rs1 >> rs2[4:0]` (logical)
    Srl = 7,
    /// `rd ← rs1 >> rs2[4:0]` (arithmetic)
    Sra = 8,
    /// `rd ← low32(rs1 × rs2)`
    Mul = 9,
    /// `rd ← (rs1 <ₛ rs2) ? 1 : 0`
    Slt = 10,
    /// `rd ← (rs1 <ᵤ rs2) ? 1 : 0`
    Sltu = 11,
    /// `rd ← rs1 + imm`
    Addi = 16,
    /// `rd ← rs1 & zext(imm)`
    Andi = 17,
    /// `rd ← rs1 | zext(imm)`
    Ori = 18,
    /// `rd ← rs1 ^ zext(imm)`
    Xori = 19,
    /// `rd ← rs1 << imm[4:0]`
    Slli = 20,
    /// `rd ← rs1 >> imm[4:0]` (logical)
    Srli = 21,
    /// `rd ← rs1 >> imm[4:0]` (arithmetic)
    Srai = 22,
    /// `rd ← (rs1 <ₛ imm) ? 1 : 0`
    Slti = 23,
    /// `rd ← imm << 16`
    Lui = 24,
    /// `rd ← dmem[rs1 + imm]`
    Ld = 32,
    /// `dmem[rs1 + imm] ← rs2`
    St = 33,
    /// Branch to absolute target `imm` if `rs1 == rs2`.
    Beq = 40,
    /// Branch if `rs1 != rs2`.
    Bne = 41,
    /// Branch if `rs1 <ₛ rs2`.
    Blt = 42,
    /// Branch if `rs1 ≥ₛ rs2`.
    Bge = 43,
    /// Jump-and-link to absolute target `imm`; `rd ← return address`.
    Jal = 48,
    /// Indirect jump to the address in `rs1` (used for returns).
    Jr = 49,
    /// Stop execution.
    Halt = 63,
}

impl Opcode {
    /// All opcodes, in encoding order.
    pub const ALL: [Opcode; 29] = [
        Opcode::Nop,
        Opcode::Add,
        Opcode::Sub,
        Opcode::And,
        Opcode::Or,
        Opcode::Xor,
        Opcode::Sll,
        Opcode::Srl,
        Opcode::Sra,
        Opcode::Mul,
        Opcode::Slt,
        Opcode::Sltu,
        Opcode::Addi,
        Opcode::Andi,
        Opcode::Ori,
        Opcode::Xori,
        Opcode::Slli,
        Opcode::Srli,
        Opcode::Srai,
        Opcode::Slti,
        Opcode::Lui,
        Opcode::Ld,
        Opcode::St,
        Opcode::Beq,
        Opcode::Bne,
        Opcode::Blt,
        Opcode::Bge,
        Opcode::Jal,
        Opcode::Jr,
    ];

    /// Decodes a 6-bit opcode field.
    pub fn from_code(code: u8) -> Option<Opcode> {
        if code == 63 {
            return Some(Opcode::Halt);
        }
        Opcode::ALL.iter().copied().find(|o| *o as u8 == code)
    }

    /// The 6-bit encoding value.
    pub fn code(self) -> u8 {
        self as u8
    }

    /// The assembly mnemonic.
    pub fn mnemonic(self) -> &'static str {
        match self {
            Opcode::Nop => "nop",
            Opcode::Add => "add",
            Opcode::Sub => "sub",
            Opcode::And => "and",
            Opcode::Or => "or",
            Opcode::Xor => "xor",
            Opcode::Sll => "sll",
            Opcode::Srl => "srl",
            Opcode::Sra => "sra",
            Opcode::Mul => "mul",
            Opcode::Slt => "slt",
            Opcode::Sltu => "sltu",
            Opcode::Addi => "addi",
            Opcode::Andi => "andi",
            Opcode::Ori => "ori",
            Opcode::Xori => "xori",
            Opcode::Slli => "slli",
            Opcode::Srli => "srli",
            Opcode::Srai => "srai",
            Opcode::Slti => "slti",
            Opcode::Lui => "lui",
            Opcode::Ld => "ld",
            Opcode::St => "st",
            Opcode::Beq => "beq",
            Opcode::Bne => "bne",
            Opcode::Blt => "blt",
            Opcode::Bge => "bge",
            Opcode::Jal => "jal",
            Opcode::Jr => "jr",
            Opcode::Halt => "halt",
        }
    }

    /// Parses a mnemonic.
    pub fn from_mnemonic(s: &str) -> Option<Opcode> {
        Opcode::ALL
            .iter()
            .copied()
            .chain(std::iter::once(Opcode::Halt))
            .find(|o| o.mnemonic() == s)
    }

    /// Register-register ALU operations.
    pub fn is_rtype(self) -> bool {
        matches!(
            self,
            Opcode::Add
                | Opcode::Sub
                | Opcode::And
                | Opcode::Or
                | Opcode::Xor
                | Opcode::Sll
                | Opcode::Srl
                | Opcode::Sra
                | Opcode::Mul
                | Opcode::Slt
                | Opcode::Sltu
        )
    }

    /// Register-immediate ALU operations.
    pub fn is_itype(self) -> bool {
        matches!(
            self,
            Opcode::Addi
                | Opcode::Andi
                | Opcode::Ori
                | Opcode::Xori
                | Opcode::Slli
                | Opcode::Srli
                | Opcode::Srai
                | Opcode::Slti
                | Opcode::Lui
        )
    }

    /// Conditional branches.
    pub fn is_branch(self) -> bool {
        matches!(self, Opcode::Beq | Opcode::Bne | Opcode::Blt | Opcode::Bge)
    }

    /// Memory accesses.
    pub fn is_memory(self) -> bool {
        matches!(self, Opcode::Ld | Opcode::St)
    }

    /// Whether the instruction writes a destination register.
    pub fn writes_rd(self) -> bool {
        self.is_rtype() || self.is_itype() || matches!(self, Opcode::Ld | Opcode::Jal)
    }
}

impl std::fmt::Display for Opcode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.mnemonic())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn code_roundtrip() {
        for op in Opcode::ALL.iter().copied().chain([Opcode::Halt]) {
            assert_eq!(Opcode::from_code(op.code()), Some(op), "{op}");
        }
        assert_eq!(Opcode::from_code(62), None);
    }

    #[test]
    fn mnemonic_roundtrip() {
        for op in Opcode::ALL.iter().copied().chain([Opcode::Halt]) {
            assert_eq!(Opcode::from_mnemonic(op.mnemonic()), Some(op));
        }
        assert_eq!(Opcode::from_mnemonic("bogus"), None);
    }

    #[test]
    fn classification_is_consistent() {
        for op in Opcode::ALL.iter().copied().chain([Opcode::Halt]) {
            // R-type and I-type are disjoint.
            assert!(!(op.is_rtype() && op.is_itype()), "{op}");
        }
        assert!(Opcode::Ld.writes_rd());
        assert!(!Opcode::St.writes_rd());
        assert!(Opcode::Jal.writes_rd());
        assert!(!Opcode::Beq.writes_rd());
    }

    #[test]
    fn codes_fit_six_bits() {
        for op in Opcode::ALL.iter().copied().chain([Opcode::Halt]) {
            assert!(op.code() < 64);
        }
    }
}
