//! The TERSE-32 functional machine: architectural state and single-step
//! execution semantics.

use crate::{Result, SimError};
use terse_isa::{Instruction, Opcode, Program};

/// Everything observable about one retired instruction — the raw material
/// for timing features, co-simulation and profiling.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Retired {
    /// Static instruction index (the PC it executed at).
    pub index: u32,
    /// The instruction itself.
    pub inst: Instruction,
    /// Value read from `rs1` (0 when unused).
    pub rs1_val: u32,
    /// Value read from `rs2` (0 when unused).
    pub rs2_val: u32,
    /// The ALU/effective result (register write value, store value, branch
    /// comparison difference…).
    pub result: u32,
    /// Effective memory word address for loads/stores.
    pub mem_addr: Option<u32>,
    /// Value loaded from memory.
    pub loaded: Option<u32>,
    /// Branch outcome, for branches.
    pub taken: Option<bool>,
    /// The PC of the next instruction.
    pub next_pc: u32,
}

/// The architectural machine: 32 registers (r0 wired to zero), PC, and a
/// word-addressed data memory.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Machine {
    regs: [u32; 32],
    pc: u32,
    dmem: Vec<u32>,
    halted: bool,
    retired: u64,
}

impl Machine {
    /// Creates a machine for `program`, with a data memory of at least
    /// `dmem_words` words, initialized from the program's data segment.
    pub fn new(program: &Program, dmem_words: usize) -> Self {
        let mut dmem = vec![0u32; dmem_words.max(program.data().len())];
        dmem[..program.data().len()].copy_from_slice(program.data());
        Machine {
            regs: [0; 32],
            pc: 0,
            dmem,
            halted: false,
            retired: 0,
        }
    }

    /// Current PC.
    pub fn pc(&self) -> u32 {
        self.pc
    }

    /// Whether the machine has executed `halt`.
    pub fn halted(&self) -> bool {
        self.halted
    }

    /// Number of retired instructions.
    pub fn retired(&self) -> u64 {
        self.retired
    }

    /// Reads a register (r0 always reads zero).
    pub fn reg(&self, r: u8) -> u32 {
        if r == 0 {
            0
        } else {
            self.regs[r as usize]
        }
    }

    /// Writes a register (writes to r0 are discarded).
    pub fn set_reg(&mut self, r: u8, v: u32) {
        if r != 0 {
            self.regs[r as usize] = v;
        }
    }

    /// Reads a data-memory word.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::MemoryOutOfBounds`] for addresses past the end.
    pub fn load(&self, addr: u32) -> Result<u32> {
        self.dmem
            .get(addr as usize)
            .copied()
            .ok_or(SimError::MemoryOutOfBounds {
                address: addr,
                size: self.dmem.len(),
            })
    }

    /// Writes a data-memory word.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::MemoryOutOfBounds`] for addresses past the end.
    pub fn store(&mut self, addr: u32, v: u32) -> Result<()> {
        let size = self.dmem.len();
        match self.dmem.get_mut(addr as usize) {
            Some(slot) => {
                *slot = v;
                Ok(())
            }
            None => Err(SimError::MemoryOutOfBounds {
                address: addr,
                size,
            }),
        }
    }

    /// The whole data memory (for result inspection in tests/examples).
    pub fn dmem(&self) -> &[u32] {
        &self.dmem
    }

    /// Executes one instruction and returns what retired.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::PcOutOfRange`] or
    /// [`SimError::MemoryOutOfBounds`]; the machine is left un-advanced on
    /// error.
    pub fn step(&mut self, program: &Program) -> Result<Retired> {
        if self.halted {
            return Err(SimError::PcOutOfRange { pc: self.pc });
        }
        let idx = self.pc;
        let inst = *program
            .instructions()
            .get(idx as usize)
            .ok_or(SimError::PcOutOfRange { pc: idx })?;
        let rs1_val = self.reg(inst.rs1);
        let rs2_val = self.reg(inst.rs2);
        let imm = inst.imm;
        let imm_u16 = (imm as u32) & 0xFFFF; // zero-extended field for logic immediates
        let mut result = 0u32;
        let mut mem_addr = None;
        let mut loaded = None;
        let mut taken = None;
        let mut next_pc = idx + 1;
        match inst.opcode {
            Opcode::Nop => {}
            Opcode::Add => result = rs1_val.wrapping_add(rs2_val),
            Opcode::Sub => result = rs1_val.wrapping_sub(rs2_val),
            Opcode::And => result = rs1_val & rs2_val,
            Opcode::Or => result = rs1_val | rs2_val,
            Opcode::Xor => result = rs1_val ^ rs2_val,
            Opcode::Sll => result = rs1_val.wrapping_shl(rs2_val & 31),
            Opcode::Srl => result = rs1_val.wrapping_shr(rs2_val & 31),
            Opcode::Sra => result = (rs1_val as i32).wrapping_shr(rs2_val & 31) as u32,
            Opcode::Mul => result = rs1_val.wrapping_mul(rs2_val),
            Opcode::Slt => result = u32::from(rs1_val.cast_signed() < rs2_val.cast_signed()),
            Opcode::Sltu => result = u32::from(rs1_val < rs2_val),
            Opcode::Addi => result = rs1_val.wrapping_add(imm as u32),
            Opcode::Andi => result = rs1_val & imm_u16,
            Opcode::Ori => result = rs1_val | imm_u16,
            Opcode::Xori => result = rs1_val ^ imm_u16,
            Opcode::Slli => result = rs1_val.wrapping_shl(imm as u32 & 31),
            Opcode::Srli => result = rs1_val.wrapping_shr(imm as u32 & 31),
            Opcode::Srai => result = (rs1_val as i32).wrapping_shr(imm as u32 & 31) as u32,
            Opcode::Slti => result = u32::from(rs1_val.cast_signed() < imm),
            Opcode::Lui => result = imm_u16 << 16,
            Opcode::Ld => {
                let addr = rs1_val.wrapping_add(imm as u32);
                let v = self.load(addr)?;
                mem_addr = Some(addr);
                loaded = Some(v);
                result = v;
            }
            Opcode::St => {
                let addr = rs1_val.wrapping_add(imm as u32);
                self.store(addr, rs2_val)?;
                mem_addr = Some(addr);
                result = rs2_val;
            }
            Opcode::Beq | Opcode::Bne | Opcode::Blt | Opcode::Bge => {
                let cond = match inst.opcode {
                    Opcode::Beq => rs1_val == rs2_val,
                    Opcode::Bne => rs1_val != rs2_val,
                    Opcode::Blt => rs1_val.cast_signed() < rs2_val.cast_signed(),
                    _ => rs1_val.cast_signed() >= rs2_val.cast_signed(),
                };
                taken = Some(cond);
                result = rs1_val.wrapping_sub(rs2_val);
                if cond {
                    next_pc = imm.cast_unsigned();
                }
            }
            Opcode::Jal => {
                result = idx + 1; // link value
                next_pc = imm.cast_unsigned();
            }
            Opcode::Jr => {
                next_pc = rs1_val;
            }
            Opcode::Halt => {
                self.halted = true;
                next_pc = idx;
            }
        }
        if let Some(rd) = inst.destination() {
            self.set_reg(rd, result);
        }
        self.pc = next_pc;
        self.retired += 1;
        Ok(Retired {
            index: idx,
            inst,
            rs1_val,
            rs2_val,
            result,
            mem_addr,
            loaded,
            taken,
            next_pc,
        })
    }

    /// Runs until `halt` or the instruction budget is exhausted; returns
    /// the number of retired instructions.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InstructionBudgetExhausted`] if the program does
    /// not halt in time, plus any per-step error.
    pub fn run(&mut self, program: &Program, budget: u64) -> Result<u64> {
        let start = self.retired;
        while !self.halted {
            if self.retired - start >= budget {
                return Err(SimError::InstructionBudgetExhausted { budget });
            }
            self.step(program)?;
        }
        Ok(self.retired - start)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use terse_isa::assemble;

    fn run_src(src: &str) -> Machine {
        let p = assemble(src).unwrap();
        let mut m = Machine::new(&p, 1024);
        m.run(&p, 100_000).unwrap();
        m
    }

    #[test]
    fn arithmetic_semantics() {
        let m = run_src(
            r"
            addi r1, r0, 7
            addi r2, r0, -3
            add  r3, r1, r2      # 4
            sub  r4, r1, r2      # 10
            mul  r5, r1, r1      # 49
            slt  r6, r2, r1      # 1 (signed)
            sltu r7, r2, r1      # 0 (0xFFFFFFFD unsigned is big)
            halt
        ",
        );
        assert_eq!(m.reg(3), 4);
        assert_eq!(m.reg(4), 10);
        assert_eq!(m.reg(5), 49);
        assert_eq!(m.reg(6), 1);
        assert_eq!(m.reg(7), 0);
    }

    #[test]
    fn shift_and_logic_semantics() {
        let m = run_src(
            r"
            li   r1, 0xF0F0F0F0
            srli r2, r1, 4       # 0x0F0F0F0F
            srai r3, r1, 4       # 0xFF0F0F0F
            slli r4, r1, 4       # 0x0F0F0F00
            andi r5, r1, 0xFF    # 0xF0
            ori  r6, r0, 0x1234
            xori r7, r6, 0x00FF
            halt
        ",
        );
        assert_eq!(m.reg(2), 0x0F0F_0F0F);
        assert_eq!(m.reg(3), 0xFF0F_0F0F);
        assert_eq!(m.reg(4), 0x0F0F_0F00);
        assert_eq!(m.reg(5), 0xF0);
        assert_eq!(m.reg(7), 0x1234 ^ 0xFF);
    }

    #[test]
    fn li_negative_value() {
        let m = run_src("li r1, -1\nli r2, -123456\nhalt\n");
        assert_eq!(m.reg(1), u32::MAX);
        assert_eq!(m.reg(2) as i32, -123456);
    }

    #[test]
    fn memory_and_loops() {
        // Sum data[0..5] into r10.
        let m = run_src(
            r"
            .data
            arr: .word 3, 1, 4, 1, 5
            .text
                la   r1, arr
                addi r2, r0, 5
            loop:
                ld   r3, r1, 0
                add  r10, r10, r3
                addi r1, r1, 1
                addi r2, r2, -1
                bne  r2, r0, loop
                st   r10, r0, 100
                halt
        ",
        );
        assert_eq!(m.reg(10), 14);
        assert_eq!(m.dmem()[100], 14);
    }

    #[test]
    fn call_return_and_link() {
        let m = run_src(
            r"
            main:
                addi r1, r0, 5
                call double
                call double
                halt
            double:
                add r1, r1, r1
                ret
        ",
        );
        assert_eq!(m.reg(1), 20);
    }

    #[test]
    fn r0_is_hardwired_zero() {
        let m = run_src("addi r0, r0, 99\nadd r1, r0, r0\nhalt\n");
        assert_eq!(m.reg(0), 0);
        assert_eq!(m.reg(1), 0);
    }

    #[test]
    fn branch_directions() {
        let m = run_src(
            r"
                addi r1, r0, -5
                addi r2, r0, 3
                blt  r1, r2, neg     # taken (signed)
                addi r9, r0, 111
            neg:
                bge  r2, r1, done    # taken
                addi r9, r0, 222
            done:
                halt
        ",
        );
        assert_eq!(m.reg(9), 0);
    }

    #[test]
    fn retired_metadata() {
        let p = assemble("addi r1, r0, 1\nbeq r1, r1, 3\nnop\nhalt\n").unwrap();
        let mut m = Machine::new(&p, 16);
        let r0 = m.step(&p).unwrap();
        assert_eq!(r0.index, 0);
        assert_eq!(r0.result, 1);
        let r1 = m.step(&p).unwrap();
        assert_eq!(r1.taken, Some(true));
        assert_eq!(r1.next_pc, 3);
        let r2 = m.step(&p).unwrap();
        assert_eq!(r2.inst.opcode, Opcode::Halt);
        assert!(m.halted());
    }

    #[test]
    fn out_of_bounds_memory_detected() {
        let p = assemble("ld r1, r0, 9999\nhalt\n").unwrap();
        let mut m = Machine::new(&p, 16);
        assert!(matches!(
            m.step(&p),
            Err(SimError::MemoryOutOfBounds { address: 9999, .. })
        ));
    }

    #[test]
    fn budget_exhaustion_detected() {
        let p = assemble("loop: j loop\nhalt\n").unwrap();
        let mut m = Machine::new(&p, 16);
        assert!(matches!(
            m.run(&p, 100),
            Err(SimError::InstructionBudgetExhausted { budget: 100 })
        ));
    }
}
