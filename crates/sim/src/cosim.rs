//! Gate-level co-simulation: driving the pipeline netlist with
//! architecturally computed values, one retired instruction per cycle.
//!
//! This produces the paper's Algorithm 1 inputs (Figure 1): the per-cycle
//! activation sets `VCD(t)` plus the stage-occupancy map that Algorithm 2
//! needs (the instruction fed at cycle `t` occupies stage `s` at cycle
//! `t + s` on the ideal in-order pipeline).
//!
//! The stage input banks are forced from architectural state each cycle —
//! instruction words, decoded fields, operand values, results, load data —
//! so the combinational clouds compute on *real program values* and the
//! activation sets genuinely reflect instruction sequence and operands.
//! Banks that only feed measurement endpoints (fetch/decode control clouds)
//! are left to capture naturally.

use crate::machine::{Machine, Retired};
use crate::Result;
use std::collections::VecDeque;
use terse_isa::{Opcode, Program};
use terse_netlist::pipeline::{PipelineNetlist, STAGE_COUNT};
use terse_netlist::{ActivityTrace, Simulator};

/// EX-stage control word for an opcode, matching the pipeline netlist's
/// `b3.ex_ctl` bit assignments:
/// bit0 `use_imm`, bit1 `sub_en`, bits2–3 logic-unit op, bit4 shift-right,
/// bit5 shift-arith, bits6–7 result select (00 add/sub, 01 logic, 10 shift,
/// 11 mul), bits 8–11 an opcode hash (drives the EX control cloud).
pub fn ex_control_word(op: Opcode) -> u64 {
    let mut w: u64 = 0;
    let set = |w: &mut u64, bit: usize| *w |= 1 << bit;
    match op {
        Opcode::Sub | Opcode::Slt | Opcode::Sltu | Opcode::Slti => set(&mut w, 1),
        _ => {}
    }
    if op.is_branch() {
        set(&mut w, 1); // compare via subtraction
    }
    // Logic-unit op encoding: 00 AND, 01 OR, 10 XOR, 11 pass-B.
    let (sel, lu) = match op {
        Opcode::And | Opcode::Andi => (0b01u64, 0b00u64),
        Opcode::Or | Opcode::Ori => (0b01, 0b01),
        Opcode::Xor | Opcode::Xori => (0b01, 0b10),
        Opcode::Lui => (0b01, 0b11),
        Opcode::Sll | Opcode::Slli => (0b10, 0b00),
        Opcode::Srl | Opcode::Srli => (0b10, 0b00),
        Opcode::Sra | Opcode::Srai => (0b10, 0b00),
        Opcode::Mul => (0b11, 0b00),
        _ => (0b00, 0b00),
    };
    w |= lu << 2;
    match op {
        Opcode::Srl | Opcode::Srli => w |= 1 << 4,
        Opcode::Sra | Opcode::Srai => w |= (1 << 4) | (1 << 5),
        _ => {}
    }
    w |= sel << 6;
    w |= ((op.code() as u64).wrapping_mul(0x9E) & 0xF) << 8;
    w
}

/// ID-stage control word (drives the `b2.op_ctl` bank: bit0 selects the
/// immediate operand in RA; upper bits exercise the decode qualifier fan).
pub fn id_control_word(op: Opcode) -> u64 {
    let mut w = 0u64;
    if op.is_itype() || matches!(op, Opcode::Ld | Opcode::St) {
        w |= 1;
    }
    w |= (op.code() as u64) << 8;
    w |= ((op.code() as u64).wrapping_mul(0x3B) & 0x7F) << 1;
    w
}

/// ME-stage control word (drives the `b4.mctl` bank: bit0 is the load
/// select for the write-back mux; upper bits exercise the ME cloud).
pub fn me_control_word(op: Opcode) -> u64 {
    u64::from(op == Opcode::Ld) | (((op.code() as u64).wrapping_mul(0x5D) & 0x7E) & !1)
}

/// WB-stage control word (drives the `b5.wctl` bank: bit0 is the commit
/// qualifier gating the result bus).
pub fn wb_control_word(op: Opcode) -> u64 {
    1 | (((op.code() as u64) << 1) & 0x3E)
}

/// The co-simulation trace: activation sets plus the feed schedule.
#[derive(Debug, Clone)]
pub struct CoSimTrace {
    /// Per-cycle activation sets (`VCD(t)`).
    pub activity: ActivityTrace,
    /// The static instruction index fed into IF at each cycle (None during
    /// drain).
    pub fed: Vec<Option<u32>>,
    /// The retired-instruction records, in feed order.
    pub retired: Vec<Retired>,
}

impl CoSimTrace {
    /// Number of simulated cycles.
    pub fn cycles(&self) -> usize {
        self.fed.len()
    }

    /// The cycle at which instruction number `k` (k-th fed) occupies
    /// pipeline stage `s`.
    pub fn cycle_of(&self, k: usize, stage: usize) -> usize {
        k + stage
    }
}

/// Drives a [`PipelineNetlist`] from retired-instruction streams.
#[derive(Debug)]
pub struct CoSim<'n> {
    pipeline: &'n PipelineNetlist,
    sim: Simulator<'n>,
    /// Stage occupancy window: `window[s]` is the instruction currently in
    /// stage `s` (IF = 0 … WB = 5).
    window: VecDeque<Option<Retired>>,
}

impl<'n> CoSim<'n> {
    /// Creates a co-simulator over a pipeline netlist.
    pub fn new(pipeline: &'n PipelineNetlist) -> Self {
        let mut window = VecDeque::with_capacity(STAGE_COUNT);
        for _ in 0..STAGE_COUNT {
            window.push_back(None);
        }
        CoSim {
            pipeline,
            sim: Simulator::new(pipeline.netlist()),
            window,
        }
    }

    /// Total combinational gate evaluations performed so far — the work
    /// metric event-driven propagation reduces.
    pub fn gates_evaluated(&self) -> u64 {
        self.sim.gates_evaluated()
    }

    /// Cycles simulated so far.
    pub fn cycles_simulated(&self) -> u64 {
        self.sim.cycle()
    }

    /// Feeds one instruction (or a drain bubble) into IF and advances one
    /// clock cycle, returning the cycle's activation set.
    ///
    /// # Errors
    ///
    /// Returns [`crate::SimError::Netlist`] on bank mismatches (impossible
    /// for pipelines built by `PipelineNetlist::build`).
    pub fn feed(&mut self, r: Option<Retired>) -> Result<terse_netlist::BitSet> {
        failpoints::fail_point!("sim::cosim", |_| Err(crate::SimError::Netlist(
            "injected co-simulation fault".into()
        )));
        self.window.pop_back();
        self.window.push_front(r);
        self.force_banks()?;
        Ok(self.sim.step())
    }

    fn force_banks(&mut self) -> Result<()> {
        let sim = &mut self.sim;
        let enc = |r: &Retired| r.inst.encode().unwrap_or(0) as u64;
        // Stage 0 inputs: the instruction entering IF.
        if let Some(Some(i0)) = self.window.front().map(|x| x.as_ref()) {
            sim.force_ff_bus("b0.pc", (i0.index as u64) << 2)?;
            sim.set_input_bus("imem.instr", enc(i0))?;
        }
        // Redirect: if the instruction in ID is a taken branch, IF sees a
        // redirect to its target.
        let id = self.window.get(1).and_then(|x| x.as_ref());
        let taken = id.and_then(|r| r.taken).unwrap_or(false)
            || id.is_some_and(|r| matches!(r.inst.opcode, Opcode::Jal | Opcode::Jr));
        let redirect = self
            .pipeline
            .netlist()
            .bus("redirect.taken")?
            .first()
            .copied();
        if let Some(g) = redirect {
            sim.set_input(g, taken);
        }
        sim.set_input_bus(
            "redirect.target",
            id.map(|r| (r.next_pc as u64) << 2).unwrap_or(0),
        )?;
        // Stage 1 inputs (ID): the fetched instruction.
        if let Some(i1) = id {
            sim.force_ff_bus("b1.instr", enc(i1))?;
            sim.force_ff_bus("b1.pc", (i1.index as u64) << 2)?;
        }
        // Stage 2 inputs (RA): decoded fields.
        if let Some(i2) = self.window.get(2).and_then(|x| x.as_ref()) {
            sim.force_ff_bus("b2.rs1", i2.inst.rs1 as u64)?;
            sim.force_ff_bus("b2.rs2", i2.inst.rs2 as u64)?;
            sim.force_ff_bus("b2.rd", i2.inst.rd as u64)?;
            sim.force_ff_bus("b2.imm", u64::from(i2.inst.imm.cast_unsigned()))?;
            sim.force_ff_bus("b2.op_ctl", id_control_word(i2.inst.opcode))?;
            sim.force_ff_bus("b2.pc", (i2.index as u64) << 2)?;
            // Register-file read data and forwarding sources.
            sim.set_input_bus("rf.rs1_data", i2.rs1_val as u64)?;
            sim.set_input_bus("rf.rs2_data", i2.rs2_val as u64)?;
        }
        let ex = self.window.get(3).and_then(|x| x.as_ref());
        let me = self.window.get(4).and_then(|x| x.as_ref());
        sim.set_input_bus("bypass.ex", ex.map(|r| r.result as u64).unwrap_or(0))?;
        sim.set_input_bus("bypass.me", me.map(|r| r.result as u64).unwrap_or(0))?;
        sim.set_input_bus("fwd.ex_rd", ex.map(|r| r.inst.rd as u64).unwrap_or(0))?;
        sim.set_input_bus("fwd.me_rd", me.map(|r| r.inst.rd as u64).unwrap_or(0))?;
        // Stage 3 inputs (EX): operand values and control.
        if let Some(i3) = ex {
            let use_imm = i3.inst.opcode.is_itype() || i3.inst.opcode.is_memory();
            let op_b = if use_imm {
                i3.inst.imm.cast_unsigned()
            } else {
                i3.rs2_val
            };
            sim.force_ff_bus("b3.op_a", i3.rs1_val as u64)?;
            sim.force_ff_bus("b3.op_b", op_b as u64)?;
            sim.force_ff_bus("b3.store", i3.rs2_val as u64)?;
            sim.force_ff_bus("b3.ex_ctl", ex_control_word(i3.inst.opcode))?;
        }
        // Stage 4 inputs (ME): results and memory interface.
        if let Some(i4) = me {
            sim.force_ff_bus("b4.alu", i4.result as u64)?;
            sim.force_ff_bus("b4.addr", i4.mem_addr.unwrap_or(0) as u64)?;
            sim.force_ff_bus("b4.store", i4.rs2_val as u64)?;
            sim.force_ff_bus("b4.mctl", me_control_word(i4.inst.opcode))?;
            sim.set_input_bus("dmem.rdata", i4.loaded.unwrap_or(0) as u64)?;
        }
        // Stage 5 inputs (WB).
        if let Some(i5) = self.window.get(5).and_then(|x| x.as_ref()) {
            sim.force_ff_bus("b5.wb", i5.result as u64)?;
            sim.force_ff_bus("b5.wctl", wb_control_word(i5.inst.opcode))?;
        }
        Ok(())
    }

    /// Runs a whole program through the machine and the pipeline netlist,
    /// collecting the activity trace. Feeds `STAGE_COUNT` drain cycles after
    /// the final instruction so every instruction traverses all stages.
    ///
    /// # Errors
    ///
    /// Propagates machine errors and [`crate::SimError::Netlist`].
    pub fn run_program(
        pipeline: &'n PipelineNetlist,
        program: &Program,
        machine: &mut Machine,
        budget: u64,
    ) -> Result<CoSimTrace> {
        let mut cosim = CoSim::new(pipeline);
        let mut activity = ActivityTrace::new(pipeline.netlist().gate_count());
        let mut fed = Vec::new();
        let mut retired = Vec::new();
        let mut count = 0u64;
        while !machine.halted() {
            if count >= budget {
                return Err(crate::SimError::InstructionBudgetExhausted { budget });
            }
            let r = machine.step(program)?;
            count += 1;
            fed.push(Some(r.index));
            retired.push(r);
            let act = cosim.feed(Some(r))?;
            activity.push(act);
        }
        for _ in 0..STAGE_COUNT {
            fed.push(None);
            let act = cosim.feed(None)?;
            activity.push(act);
        }
        Ok(CoSimTrace {
            activity,
            fed,
            retired,
        })
    }
}

/// Aggregated co-simulation work counters, accumulated across many
/// [`CoSim`] instances (model training spins up one per characterized
/// edge). Cheap to copy; sums are exact.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CosimStats {
    /// Netlist clock cycles simulated.
    pub cycles: u64,
    /// Combinational gate evaluations performed.
    pub gates_evaluated: u64,
}

impl CosimStats {
    /// Folds a finished co-simulator's counters into the totals.
    pub fn absorb(&mut self, cosim: &CoSim<'_>) {
        self.cycles += cosim.cycles_simulated();
        self.gates_evaluated += cosim.gates_evaluated();
    }

    /// Sums two counter sets.
    pub fn merge(&mut self, other: CosimStats) {
        self.cycles += other.cycles;
        self.gates_evaluated += other.gates_evaluated;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use terse_isa::assemble;
    use terse_netlist::pipeline::PipelineConfig;

    fn pipeline() -> PipelineNetlist {
        PipelineNetlist::build(PipelineConfig::default()).unwrap()
    }

    #[test]
    fn control_words_distinguish_units() {
        let add = ex_control_word(Opcode::Add);
        let sub = ex_control_word(Opcode::Sub);
        let mul = ex_control_word(Opcode::Mul);
        let srl = ex_control_word(Opcode::Srl);
        assert_eq!(add & 0b10, 0);
        assert_eq!(sub & 0b10, 0b10);
        assert_eq!((mul >> 6) & 0b11, 0b11);
        assert_eq!((srl >> 6) & 0b11, 0b10);
        assert_eq!(srl >> 4 & 1, 1);
        // Immediate selection in ID.
        assert_eq!(id_control_word(Opcode::Addi) & 1, 1);
        assert_eq!(id_control_word(Opcode::Add) & 1, 0);
    }

    #[test]
    fn run_program_produces_full_trace() {
        let p = pipeline();
        let prog = assemble(
            r"
                addi r1, r0, 100
                addi r2, r0, 55
                add  r3, r1, r2
                mul  r4, r1, r2
                halt
        ",
        )
        .unwrap();
        let mut m = Machine::new(&prog, 64);
        let trace = CoSim::run_program(&p, &prog, &mut m, 1000).unwrap();
        assert_eq!(trace.retired.len(), 5);
        assert_eq!(trace.cycles(), 5 + STAGE_COUNT);
        // Instruction k occupies stage s at cycle k+s.
        assert_eq!(trace.cycle_of(2, 3), 5);
        // Activity exists: some gates toggle in EX cycles.
        assert!(trace.activity.mean_activity_factor() > 0.0);
    }

    #[test]
    fn activity_depends_on_operand_values() {
        let p = pipeline();
        // Same instruction sequence, different operand values: the long
        // carry case must activate more adder gates in the EX window.
        let run = |a: i64, b: i64| {
            let prog =
                assemble(&format!("li r1, {a}\nli r2, {b}\nadd r3, r1, r2\nhalt\n")).unwrap();
            let mut m = Machine::new(&prog, 16);
            let trace = CoSim::run_program(&p, &prog, &mut m, 100).unwrap();
            // The add is fed at cycle 4 (after 2×2 li instructions) and is
            // in EX at cycle 4+3.
            trace.activity.cycle(4 + 3).count()
        };
        let long_carry = run(0x0FFF_FFFF, 1);
        let short_carry = run(0, 0);
        assert!(
            long_carry > short_carry,
            "long {long_carry} vs short {short_carry}"
        );
    }

    #[test]
    fn deterministic_across_runs() {
        let p = pipeline();
        let prog = assemble("addi r1, r0, 42\nadd r2, r1, r1\nhalt\n").unwrap();
        let t1 = {
            let mut m = Machine::new(&prog, 16);
            CoSim::run_program(&p, &prog, &mut m, 100).unwrap()
        };
        let t2 = {
            let mut m = Machine::new(&prog, 16);
            CoSim::run_program(&p, &prog, &mut m, 100).unwrap()
        };
        assert_eq!(t1.activity, t2.activity);
    }
}
