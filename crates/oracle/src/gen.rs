//! Seeded random generators shared by the differential test suites.
//!
//! Everything here is a pure function of its `seed` argument (the generators
//! draw from `terse-stats`' xoshiro256** just like the rest of the
//! workspace), so a failing property case is reproducible from the one seed
//! the proptest shim persists.

use terse_isa::{Instruction, Opcode, Program};
use terse_netlist::builder::NetlistBuilder;
use terse_netlist::netlist::EndpointClass;
use terse_netlist::sim::Simulator;
use terse_netlist::{BitSet, GateKind, Netlist};
use terse_sta::variation::VariationConfig;
use terse_sta::CanonicalRv;
use terse_stats::rng::Xoshiro256;

/// A random single-stage netlist small enough for exhaustive path
/// enumeration: two launching flip-flops (one per endpoint class), `gates`
/// random combinational gates with random placement (so spatial variation
/// coefficients differ per gate), and two capturing flip-flops, again one
/// per class. Every flip-flop's D input is connected, so all four are
/// endpoints of stage 0.
///
/// # Panics
///
/// Panics if `gates == 0` (a netlist with no combinational logic has no
/// paths worth enumerating) or on internal builder misuse (a bug).
pub fn random_netlist(seed: u64, gates: usize) -> Netlist {
    let (b, _) = build_random_netlist(seed, gates);
    b.finish().expect("random netlist is a DAG by construction")
}

/// Gate handles of the shared random-netlist construction, kept so the
/// defect injectors can anchor their corruption on known gates.
struct NetlistHandles {
    src0: terse_netlist::gate::GateId,
    cap_d: terse_netlist::gate::GateId,
}

/// The common random-netlist construction behind [`random_netlist`] and
/// [`random_netlist_with_defect`]. Every gate the random fan-in draws
/// leave unused is OR-folded into the control-capture cone, so the valid
/// artifact has no floating nets (the fold happens after all RNG draws,
/// keeping seed streams identical to earlier revisions up to that point).
fn build_random_netlist(seed: u64, gates: usize) -> (NetlistBuilder, NetlistHandles) {
    assert!(gates > 0, "random_netlist needs at least one gate");
    let mut rng = Xoshiro256::seed_from_u64(seed);
    let mut b = NetlistBuilder::new(1);
    let s0 = b.flip_flop("src0", EndpointClass::Data, 0).expect("src0");
    let s1 = b
        .flip_flop("src1", EndpointClass::Control, 0)
        .expect("src1");
    let mut pool = vec![s0, s1];
    // Flip-flops never float (their Q legitimately may go unused), so the
    // two sources start `used`; combinational pool gates must be consumed.
    let mut used = vec![true, true];
    const UNARY: [GateKind; 2] = [GateKind::Buf, GateKind::Not];
    const BINARY: [GateKind; 5] = [
        GateKind::And,
        GateKind::Or,
        GateKind::Xor,
        GateKind::Nand,
        GateKind::Nor,
    ];
    for _ in 0..gates {
        let x = rng.next_range(0.0, 0.95) as f32;
        let y = rng.next_range(0.0, 0.95) as f32;
        b.set_region(x, y, x + 0.05, y + 0.05);
        let ai = rng.next_below(pool.len() as u64) as usize;
        let a = pool[ai];
        used[ai] = true;
        let g = if rng.next_below(4) == 0 {
            let kind = UNARY[rng.next_below(2) as usize];
            b.gate(kind, &[a], 0).expect("unary gate")
        } else {
            let ci = rng.next_below(pool.len() as u64) as usize;
            let c = pool[ci];
            used[ci] = true;
            let kind = BINARY[rng.next_below(5) as usize];
            b.gate(kind, &[a, c], 0).expect("binary gate")
        };
        pool.push(g);
        used.push(false);
    }
    // Capture endpoints hang off late gates so most of the logic is on some
    // path; the launch endpoints' own D inputs close the state loop.
    let last_idx = pool.len() - 1;
    let last = pool[last_idx];
    let near_idx = pool.len() - 1 - rng.next_below(pool.len().min(4) as u64) as usize;
    let near_last = pool[near_idx];
    used[last_idx] = true;
    used[near_idx] = true;
    // OR-fold any still-unused gate into the control cone: everything the
    // random draws orphaned now reaches the cap_c/src1 endpoints.
    let mut carry = near_last;
    for (i, &g) in pool.iter().enumerate() {
        if !used[i] {
            carry = b.gate(GateKind::Or, &[carry, g], 0).expect("fold gate");
        }
    }
    let d0 = b.flip_flop("cap_d", EndpointClass::Data, 0).expect("cap_d");
    let d1 = b
        .flip_flop("cap_c", EndpointClass::Control, 0)
        .expect("cap_c");
    b.connect_ff_input(d0, last).expect("connect cap_d");
    b.connect_ff_input(d1, carry).expect("connect cap_c");
    b.connect_ff_input(s0, last).expect("connect src0");
    b.connect_ff_input(s1, carry).expect("connect src1");
    (
        b,
        NetlistHandles {
            src0: s0,
            cap_d: d0,
        },
    )
}

/// A structural netlist defect class for static-analyzer fixtures.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NetlistDefect {
    /// Two combinational gates rewired into a cycle.
    CombinationalLoop,
    /// A combinational gate whose output drives nothing.
    FloatingNet,
    /// A flip-flop whose D input was never connected.
    UndrivenNet,
    /// A flip-flop with two D drivers.
    MultiDriver,
}

impl NetlistDefect {
    /// All defect classes, for exhaustive fixture sweeps.
    pub const ALL: [NetlistDefect; 4] = [
        NetlistDefect::CombinationalLoop,
        NetlistDefect::FloatingNet,
        NetlistDefect::UndrivenNet,
        NetlistDefect::MultiDriver,
    ];

    /// The diagnostic code `terse-analyze` must report for this defect.
    pub fn expected_code(self) -> &'static str {
        match self {
            NetlistDefect::CombinationalLoop => "NL001",
            NetlistDefect::FloatingNet => "NL004",
            NetlistDefect::UndrivenNet => "NL002",
            NetlistDefect::MultiDriver => "NL003",
        }
    }
}

/// A [`random_netlist`] deliberately corrupted with one structural defect,
/// assembled through `finish_unchecked` (the checked `finish` would reject
/// some of these outright).
///
/// # Panics
///
/// Panics if `gates == 0` or on internal builder misuse (a bug).
pub fn random_netlist_with_defect(seed: u64, gates: usize, defect: NetlistDefect) -> Netlist {
    let (mut b, h) = build_random_netlist(seed, gates);
    match defect {
        NetlistDefect::CombinationalLoop => {
            let g1 = b.gate(GateKind::Buf, &[h.src0], 0).expect("loop gate 1");
            let g2 = b.gate(GateKind::Buf, &[g1], 0).expect("loop gate 2");
            b.rewire_fanin(g1, &[g2]).expect("rewire into a cycle");
        }
        NetlistDefect::FloatingNet => {
            let _ = b.gate(GateKind::Buf, &[h.src0], 0).expect("floating gate");
        }
        NetlistDefect::UndrivenNet => {
            let _ = b
                .flip_flop("undriven", EndpointClass::Data, 0)
                .expect("undriven ff");
        }
        NetlistDefect::MultiDriver => {
            b.add_ff_driver(h.cap_d, h.src0).expect("second driver");
        }
    }
    b.finish_unchecked()
}

/// A random activation set: each gate is independently activated with
/// probability `density`. Unrealizable activation patterns are *on purpose*
/// — the DTA engine must handle any `VCD(t)` bit set, and arbitrary subsets
/// stress the activated-path search harder than simulator traces.
pub fn random_vcd(n: &Netlist, seed: u64, density: f64) -> BitSet {
    let mut rng = Xoshiro256::seed_from_u64(seed);
    let mut v = BitSet::new(n.gate_count());
    for g in n.gate_ids() {
        if rng.next_f64() < density {
            v.insert(g.index());
        }
    }
    v
}

/// A *realizable* activation set: force every flip-flop to a random state,
/// clock once, re-force, and clock again — the second edge's toggle set is
/// what a co-simulation trace would record for this cycle.
pub fn simulated_vcd(n: &Netlist, seed: u64) -> BitSet {
    let mut rng = Xoshiro256::seed_from_u64(seed);
    let mut sim = Simulator::new(n);
    for round in 0..2 {
        for g in n.gate_ids() {
            match n.kind(g) {
                GateKind::FlipFlop => sim.force_ff(g, rng.next_u64() & 1 == 1),
                GateKind::Input => sim.set_input(g, rng.next_u64() & 1 == 1),
                _ => {}
            }
        }
        if round == 0 {
            let _ = sim.step();
        }
    }
    sim.step()
}

/// A random set of canonical slack RVs over `var_count` shared variables:
/// means in `[lo_mean, hi_mean]`, sparse random sensitivities, and a random
/// independent residual. Distinct means (jittered per index) keep
/// mean-sorting orders unambiguous for the metamorphic properties.
pub fn random_slacks(seed: u64, n: usize, var_count: usize) -> Vec<CanonicalRv> {
    let mut rng = Xoshiro256::seed_from_u64(seed);
    (0..n)
        .map(|i| {
            let mean = rng.next_range(20.0, 120.0) + i as f64 * 1e-3;
            let coeffs: Vec<f64> = (0..var_count)
                .map(|_| {
                    if rng.next_below(2) == 0 {
                        rng.next_range(-1.5, 1.5)
                    } else {
                        0.0
                    }
                })
                .collect();
            CanonicalRv::with_sensitivities(mean, coeffs, rng.next_range(0.01, 1.0))
        })
        .collect()
}

/// A random valid [`VariationConfig`]: random sigma, 1–3 quad-tree levels,
/// and random variance shares normalized to sum to one.
pub fn random_variation_config(seed: u64) -> VariationConfig {
    let mut rng = Xoshiro256::seed_from_u64(seed);
    let g = rng.next_range(0.05, 1.0);
    let s = rng.next_range(0.05, 1.0);
    let i = rng.next_range(0.05, 1.0);
    let t = g + s + i;
    let share_global = g / t;
    let share_spatial = s / t;
    VariationConfig {
        sigma_rel: rng.next_range(0.01, 0.08),
        levels: 1 + rng.next_below(3) as usize,
        share_global,
        share_spatial,
        share_indep: 1.0 - share_global - share_spatial,
    }
}

/// A random straight-line + branches program suitable for CFG-invariant
/// checks: `body` ALU instructions, `branches` conditional branches with
/// in-range targets, and a final `halt`. No indirect jumps and no interior
/// `halt`, so every non-entry block stays reachable through a static edge
/// (fall-through or branch target).
///
/// # Panics
///
/// Panics if `body == 0` or on an internal program-construction error.
pub fn random_program(seed: u64, body: usize, branches: usize) -> Program {
    assert!(body > 0, "random_program needs a non-empty body");
    let mut rng = Xoshiro256::seed_from_u64(seed);
    const RTYPE: [Opcode; 6] = [
        Opcode::Add,
        Opcode::Sub,
        Opcode::And,
        Opcode::Or,
        Opcode::Xor,
        Opcode::Mul,
    ];
    const BRANCH: [Opcode; 4] = [Opcode::Beq, Opcode::Bne, Opcode::Blt, Opcode::Bge];
    let mut insts: Vec<Instruction> = (0..body)
        .map(|_| {
            if rng.next_below(3) == 0 {
                Instruction::itype(
                    Opcode::Addi,
                    rng.next_below(32) as u8,
                    rng.next_below(32) as u8,
                    rng.next_range(-64.0, 64.0) as i32,
                )
            } else {
                Instruction::rtype(
                    RTYPE[rng.next_below(6) as usize],
                    rng.next_below(32) as u8,
                    rng.next_below(32) as u8,
                    rng.next_below(32) as u8,
                )
            }
        })
        .collect();
    for _ in 0..branches {
        let pos = rng.next_below(insts.len() as u64 + 1) as usize;
        let target = rng.next_below(insts.len() as u64 + 1) as i32;
        let opcode = BRANCH[rng.next_below(4) as usize];
        let rs1 = rng.next_below(32) as u8;
        let rs2 = rng.next_below(32) as u8;
        // `beq r0, r0` is the unconditional pseudo-jump: its fall-through
        // edge is suppressed, which would break this generator's "every
        // block reachable by a static edge" guarantee. Keep the draw
        // count identical and nudge one register off zero.
        let rs2 = if opcode == Opcode::Beq && rs1 == 0 && rs2 == 0 {
            1
        } else {
            rs2
        };
        insts.insert(
            pos,
            Instruction {
                opcode,
                rd: 0,
                rs1,
                rs2,
                imm: target,
            },
        );
    }
    insts.push(Instruction::halt());
    Program::new(insts, vec![], Default::default(), Default::default())
        .expect("generated instructions are well-formed")
}

/// A CFG defect class for static-analyzer fixtures.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CfgDefect {
    /// A block no static edge can reach (dead code behind a pseudo-jump).
    UnreachableBlock,
    /// A successor edge pointing at a block id the CFG does not have.
    DanglingEdge,
    /// A plain (non-terminated) block whose fall-through edge was dropped.
    MissingTerminator,
    /// Two blocks merged so a branch target lands mid-block.
    LeaderMismatch,
}

impl CfgDefect {
    /// All defect classes, for exhaustive fixture sweeps.
    pub const ALL: [CfgDefect; 4] = [
        CfgDefect::UnreachableBlock,
        CfgDefect::DanglingEdge,
        CfgDefect::MissingTerminator,
        CfgDefect::LeaderMismatch,
    ];

    /// The diagnostic code `terse-analyze` must report for this defect.
    pub fn expected_code(self) -> &'static str {
        match self {
            CfgDefect::UnreachableBlock => "CF001",
            CfgDefect::DanglingEdge => "CF002",
            CfgDefect::MissingTerminator => "CF003",
            CfgDefect::LeaderMismatch => "CF005",
        }
    }
}

/// A random program plus a CFG corrupted with one defect class. The
/// unreachable-block case is expressed in the program itself (the CFG is
/// then the faithful `from_program` derivation); the other three corrupt
/// the graph object through `Cfg::from_raw_parts`, producing shapes
/// `from_program` can never emit.
///
/// # Panics
///
/// Panics if `body < 2` or on an internal program-construction error.
pub fn random_cfg_with_defect(
    seed: u64,
    body: usize,
    defect: CfgDefect,
) -> (Program, terse_isa::Cfg) {
    use terse_isa::{BasicBlock, BlockId, Cfg};
    assert!(body >= 2, "defect CFGs need at least two body instructions");
    match defect {
        CfgDefect::UnreachableBlock => {
            // [j +2; dead alu; body…; halt] — the dead instruction's block
            // has no incoming static edge.
            let base = random_program(seed, body, 0);
            let mut insts = vec![
                Instruction {
                    opcode: Opcode::Beq,
                    rd: 0,
                    rs1: 0,
                    rs2: 0,
                    imm: 2,
                },
                Instruction::rtype(Opcode::Add, 1, 1, 1),
            ];
            // The base program has no branches, so shifting it by two
            // instructions invalidates no targets.
            insts.extend_from_slice(base.instructions());
            let p = Program::new(insts, vec![], Default::default(), Default::default())
                .expect("defect program is well-formed");
            let cfg = Cfg::from_program(&p);
            (p, cfg)
        }
        CfgDefect::DanglingEdge => {
            let p = random_program(seed, body, 1);
            let cfg = Cfg::from_program(&p);
            let blocks = cfg.blocks().to_vec();
            let m = blocks.len();
            let mut succs: Vec<Vec<BlockId>> = blocks
                .iter()
                .map(|b| cfg.successors(b.id).to_vec())
                .collect();
            succs[0].push(BlockId(m as u32 + 7));
            let bad = Cfg::from_raw_parts(blocks, succs, cfg.indirect_blocks().to_vec(), p.len());
            (p, bad)
        }
        CfgDefect::MissingTerminator => {
            let (p, cfg) = branch_back_program(seed, body);
            let blocks = cfg.blocks().to_vec();
            let mut succs: Vec<Vec<BlockId>> = blocks
                .iter()
                .map(|b| cfg.successors(b.id).to_vec())
                .collect();
            // Block 0 is a single plain ALU instruction; dropping its edge
            // leaves a non-terminated block with no fall-through.
            succs[0].clear();
            let bad = Cfg::from_raw_parts(blocks, succs, cfg.indirect_blocks().to_vec(), p.len());
            (p, bad)
        }
        CfgDefect::LeaderMismatch => {
            let (p, cfg) = branch_back_program(seed, body);
            // Merge blocks 0 and 1: the branch target (instruction 1) now
            // lands mid-block.
            let old = cfg.blocks();
            debug_assert!(old.len() >= 3);
            let blocks = vec![
                BasicBlock {
                    id: BlockId(0),
                    start: old[0].start,
                    end: old[1].end,
                },
                BasicBlock {
                    id: BlockId(1),
                    start: old[2].start,
                    end: old[2].end,
                },
            ];
            // Merged block ends with the back-branch: target lands in the
            // merged block itself; fall-through reaches the halt block.
            let succs = vec![vec![BlockId(0), BlockId(1)], Vec::new()];
            let bad = Cfg::from_raw_parts(blocks, succs, Vec::new(), p.len());
            (p, bad)
        }
    }
}

/// `[alu × body; bne r1, r2 -> 1; halt]` and its faithful CFG: block 0 is
/// the first ALU instruction alone (the branch target makes instruction 1
/// a leader), block 1 ends with the branch, block 2 is the halt.
fn branch_back_program(seed: u64, body: usize) -> (Program, terse_isa::Cfg) {
    let base = random_program(seed, body, 0);
    let mut insts: Vec<Instruction> = base.instructions().to_vec();
    let halt = insts.pop().expect("base program ends with halt");
    debug_assert_eq!(halt.opcode, Opcode::Halt);
    insts.push(Instruction {
        opcode: Opcode::Bne,
        rd: 0,
        rs1: 1,
        rs2: 2,
        imm: 1,
    });
    insts.push(halt);
    let p = Program::new(insts, vec![], Default::default(), Default::default())
        .expect("branch-back program is well-formed");
    let cfg = terse_isa::Cfg::from_program(&p);
    (p, cfg)
}

/// A slack-RV defect class for static-analyzer fixtures.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SlackDefect {
    /// One RV's mean is NaN.
    NanMean,
    /// One RV has an infinite sensitivity coefficient.
    InfCoeff,
    /// One RV is exactly deterministic where variation is enabled.
    DegenerateVariance,
    /// One RV carries a longer sensitivity basis than the rest.
    VarCountMismatch,
}

impl SlackDefect {
    /// All defect classes, for exhaustive fixture sweeps.
    pub const ALL: [SlackDefect; 4] = [
        SlackDefect::NanMean,
        SlackDefect::InfCoeff,
        SlackDefect::DegenerateVariance,
        SlackDefect::VarCountMismatch,
    ];

    /// The diagnostic code `terse-analyze` must report for this defect.
    pub fn expected_code(self) -> &'static str {
        match self {
            SlackDefect::NanMean => "SL001",
            SlackDefect::InfCoeff => "SL001",
            SlackDefect::DegenerateVariance => "SL002",
            SlackDefect::VarCountMismatch => "SL003",
        }
    }
}

/// A [`random_slacks`] set with one RV poisoned by the given defect (at
/// index `n / 2`, so the reference basis taken from the first RV stays
/// valid).
///
/// # Panics
///
/// Panics if `n < 2`.
pub fn random_slacks_with_defect(
    seed: u64,
    n: usize,
    var_count: usize,
    defect: SlackDefect,
) -> Vec<CanonicalRv> {
    assert!(n >= 2, "defect slack sets need at least two RVs");
    let mut rvs = random_slacks(seed, n, var_count);
    let idx = n / 2;
    rvs[idx] = match defect {
        SlackDefect::NanMean => {
            CanonicalRv::with_sensitivities(f64::NAN, vec![0.0; var_count], 0.1)
        }
        SlackDefect::InfCoeff => {
            let mut coeffs = vec![0.0; var_count.max(1)];
            coeffs[0] = f64::INFINITY;
            CanonicalRv::with_sensitivities(50.0, coeffs, 0.1)
        }
        SlackDefect::DegenerateVariance => {
            CanonicalRv::with_sensitivities(50.0, vec![0.0; var_count], 0.0)
        }
        SlackDefect::VarCountMismatch => {
            CanonicalRv::with_sensitivities(50.0, vec![0.1; var_count + 1], 0.1)
        }
    };
    rvs
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn netlists_are_reproducible() {
        let a = random_netlist(42, 10);
        let b = random_netlist(42, 10);
        assert_eq!(a.gate_count(), b.gate_count());
        for g in a.gate_ids() {
            assert_eq!(a.kind(g), b.kind(g));
            assert_eq!(a.fanin(g), b.fanin(g));
        }
        // All four named flip-flops are endpoints of stage 0.
        assert_eq!(a.endpoints(0).unwrap().len(), 4);
    }

    #[test]
    fn variation_configs_are_valid() {
        for seed in 0..200 {
            let cfg = random_variation_config(seed);
            let n = random_netlist(seed + 1, 5);
            let lib = terse_sta::delay::DelayLibrary::normalized_45nm();
            assert!(
                terse_sta::variation::VariationModel::new(&n, &lib, cfg).is_ok(),
                "seed {seed}: {cfg:?}"
            );
        }
    }

    #[test]
    fn simulated_vcd_is_subset_of_gates() {
        let n = random_netlist(7, 12);
        let v = simulated_vcd(&n, 99);
        assert!(v.iter().all(|i| i < n.gate_count()));
    }

    #[test]
    fn random_programs_assemble_into_cfgs() {
        for seed in 0..50 {
            let p = random_program(seed, 8, 3);
            let cfg = terse_isa::Cfg::from_program(&p);
            assert!(!cfg.is_empty());
            let total: usize = cfg.blocks().iter().map(|b| b.len()).sum();
            assert_eq!(total, p.len());
        }
    }
}
