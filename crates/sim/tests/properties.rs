//! Property-based tests for the simulator: machine semantics against a
//! Rust reference interpreter, and profiler conservation laws.

use proptest::prelude::*;
use terse_isa::{Cfg, Instruction, Opcode, Program};
use terse_sim::machine::Machine;
use terse_sim::profile::Profiler;

/// Reference semantics for the ALU subset.
fn reference_alu(op: Opcode, a: u32, b: u32, imm: i32) -> u32 {
    match op {
        Opcode::Add => a.wrapping_add(b),
        Opcode::Sub => a.wrapping_sub(b),
        Opcode::And => a & b,
        Opcode::Or => a | b,
        Opcode::Xor => a ^ b,
        Opcode::Sll => a.wrapping_shl(b & 31),
        Opcode::Srl => a.wrapping_shr(b & 31),
        Opcode::Sra => (a as i32).wrapping_shr(b & 31) as u32,
        Opcode::Mul => a.wrapping_mul(b),
        Opcode::Slt => u32::from((a as i32) < (b as i32)),
        Opcode::Sltu => u32::from(a < b),
        Opcode::Addi => a.wrapping_add(imm as u32),
        Opcode::Andi => a & (imm as u32 & 0xFFFF),
        Opcode::Ori => a | (imm as u32 & 0xFFFF),
        Opcode::Xori => a ^ (imm as u32 & 0xFFFF),
        _ => unreachable!(),
    }
}

fn arb_alu_op() -> impl Strategy<Value = Opcode> {
    prop::sample::select(vec![
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
    ])
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn alu_matches_reference(op in arb_alu_op(), a in any::<u32>(), b in any::<u32>()) {
        // Set r1 = a, r2 = b via lui/ori, then apply the op.
        let set = |rd: u8, v: u32| -> Vec<Instruction> {
            vec![
                Instruction::itype(Opcode::Lui, rd, 0, ((v >> 16) as u16 as i16) as i32),
                Instruction::itype(Opcode::Ori, rd, rd, ((v & 0xFFFF) as u16 as i16) as i32),
            ]
        };
        let mut insts = set(1, a);
        insts.extend(set(2, b));
        insts.push(Instruction::rtype(op, 3, 1, 2));
        insts.push(Instruction::halt());
        let program = Program::new(insts, vec![], Default::default(), Default::default()).unwrap();
        let mut m = Machine::new(&program, 16);
        m.run(&program, 100).unwrap();
        prop_assert_eq!(m.reg(3), reference_alu(op, a, b, 0));
    }

    #[test]
    fn immediate_ops_match_reference(
        op in prop::sample::select(vec![Opcode::Addi, Opcode::Andi, Opcode::Ori, Opcode::Xori]),
        a in any::<u32>(),
        imm in -32768i32..32768,
    ) {
        let mut insts = vec![
            Instruction::itype(Opcode::Lui, 1, 0, ((a >> 16) as u16 as i16) as i32),
            Instruction::itype(Opcode::Ori, 1, 1, ((a & 0xFFFF) as u16 as i16) as i32),
            Instruction::itype(op, 3, 1, imm),
            Instruction::halt(),
        ];
        let _ = &mut insts;
        let program = Program::new(insts, vec![], Default::default(), Default::default()).unwrap();
        let mut m = Machine::new(&program, 16);
        m.run(&program, 100).unwrap();
        prop_assert_eq!(m.reg(3), reference_alu(op, a, 0, imm));
    }

    #[test]
    fn memory_roundtrip(addr in 0u32..1000, value in any::<u32>()) {
        let insts = vec![
            Instruction::itype(Opcode::Lui, 1, 0, ((value >> 16) as u16 as i16) as i32),
            Instruction::itype(Opcode::Ori, 1, 1, ((value & 0xFFFF) as u16 as i16) as i32),
            Instruction::itype(Opcode::Addi, 2, 0, (addr & 0x7FFF) as i32),
            Instruction { opcode: Opcode::St, rd: 0, rs1: 2, rs2: 1, imm: 0 },
            Instruction::itype(Opcode::Ld, 3, 2, 0),
            Instruction::halt(),
        ];
        let program = Program::new(insts, vec![], Default::default(), Default::default()).unwrap();
        let mut m = Machine::new(&program, 1 << 15);
        m.run(&program, 100).unwrap();
        prop_assert_eq!(m.reg(3), value);
    }

    #[test]
    fn profiler_conservation_laws(n in 1u32..40) {
        // For a counted loop: edge counts into a block sum to its
        // executions (minus the initial entry), and instruction totals are
        // consistent with block counts × block sizes.
        let src = format!(
            "addi r1, r0, {n}\nloop: addi r1, r1, -1\nbne r1, r0, loop\nhalt\n"
        );
        let program = terse_isa::assemble(&src).unwrap();
        let cfg = Cfg::from_program(&program);
        let prof = Profiler::default().profile(&program, &cfg, |_| {}).unwrap();
        for b in cfg.blocks() {
            let incoming: u64 = prof
                .edge_counts
                .iter()
                .filter(|((_, to), _)| *to == b.id)
                .map(|(_, &c)| c)
                .sum();
            let entry_bonus = u64::from(b.id == cfg.block_containing(0));
            prop_assert_eq!(incoming + entry_bonus, prof.block_counts[b.id.index()]);
        }
        let total_from_blocks: u64 = cfg
            .blocks()
            .iter()
            .map(|b| prof.block_counts[b.id.index()] * b.len() as u64)
            .sum();
        prop_assert_eq!(total_from_blocks, prof.total_instructions);
    }

    #[test]
    fn carry_chain_feature_within_bounds(
        a in any::<u32>(),
        b in any::<u32>(),
        cin in any::<bool>(),
        k in 0u32..32,
    ) {
        // Besides random operands, `b = !a ^ (1 << k)` propagates at every
        // bit but `k`, where both operands agree: the longest runs there are.
        for (a, b) in [(a, b), (a, !a ^ (1 << k)), (a, !a)] {
            let c = terse_sim::features::carry_chain_length(a, b, cin);
            prop_assert_eq!(c, carry_chain_reference(a, b, cin), "a = {:#x}, b = {:#x}", a, b);
            prop_assert!(c <= 32);
            // A chain requires at least one propagate position.
            if c > 0 {
                prop_assert!((a ^ b) != 0 || cin);
            }
        }
    }
}

/// The bit-serial carry chain: ripple `a + b + cin` one position at a time
/// and track the longest run of positions a carry propagates through.
fn carry_chain_reference(a: u32, b: u32, cin: bool) -> u8 {
    // Carry into bit i+1: c_{i+1} = g_i | (p_i & c_i).
    let mut c = cin;
    let mut run = 0u8;
    let mut best = 0u8;
    for i in 0..32 {
        let ai = a >> i & 1 == 1;
        let bi = b >> i & 1 == 1;
        let g = ai && bi;
        let p = ai ^ bi;
        if p && c {
            run += 1;
            best = best.max(run);
        } else {
            run = 0;
        }
        c = g || (p && c);
    }
    best
}
