//! No-panic robustness harness: malformed, mutated, and truncated inputs
//! must surface as typed errors (or valid results), **never** as panics.
//!
//! Three ingestion boundaries are fuzzed with seeded mutations of
//! `oracle::gen` artifacts:
//!
//! 1. `isa::assemble` on mutated/truncated disassembly text;
//! 2. the netlist builder on random (frequently ill-typed) op sequences;
//! 3. trace ingestion — the DTA engine on arbitrary and truncated VCD
//!    activation sets, and the architectural simulator on programs with
//!    wild branch targets and memory offsets.
//!
//! Counterexample seeds are persisted by the proptest shim under
//! `crates/oracle/proptests/` and replayed first on the next run.

use oracle::gen;
use proptest::prelude::*;
use terse_isa::{assemble, disassemble, Instruction, Opcode, Program};
use terse_netlist::builder::NetlistBuilder;
use terse_netlist::netlist::EndpointClass;
use terse_netlist::{BitSet, GateKind};
use terse_sim::machine::Machine;
use terse_sta::delay::{DelayLibrary, TimingConstraints};
use terse_stats::rng::Xoshiro256;

/// Deterministically mutates ASCII source text: byte substitutions, line
/// deletions/duplications, and a final truncation. Operates on `char`
/// boundaries so the result is always a valid `&str`.
fn mutate_source(src: &str, seed: u64) -> String {
    let mut rng = Xoshiro256::seed_from_u64(seed);
    let mut lines: Vec<String> = src.lines().map(str::to_owned).collect();
    // Structural mutations: drop or duplicate a few lines.
    for _ in 0..rng.next_below(4) {
        if lines.is_empty() {
            break;
        }
        let at = rng.next_below(lines.len() as u64) as usize;
        if rng.next_below(2) == 0 {
            lines.remove(at);
        } else {
            let dup = lines[at].clone();
            lines.insert(at, dup);
        }
    }
    let mut text: Vec<char> = lines.join("\n").chars().collect();
    // Character mutations: splice in bytes an assembler must reject or
    // reinterpret (garbage punctuation, digits, stray commas).
    const NOISE: &[char] = &['#', ',', ':', 'r', '9', 'x', '(', '!', ' ', '\t', '\u{3bb}'];
    for _ in 0..rng.next_below(12) {
        if text.is_empty() {
            break;
        }
        let at = rng.next_below(text.len() as u64) as usize;
        let c = NOISE[rng.next_below(NOISE.len() as u64) as usize];
        if rng.next_below(2) == 0 {
            text[at] = c;
        } else {
            text.insert(at, c);
        }
    }
    // Truncation: keep a random prefix (possibly empty — an empty program
    // is itself an error case the assembler must type).
    let keep = rng.next_below(text.len() as u64 + 1) as usize;
    text.truncate(keep);
    text.into_iter().collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    /// The assembler on mutated/truncated source: any outcome but a panic.
    #[test]
    fn assemble_never_panics_on_mutated_source(
        seed in 0u64..1_000_000,
        body in 1usize..12,
        branches in 0usize..4,
    ) {
        let program = gen::random_program(seed, body, branches);
        let src = disassemble(&program);
        // The unmutated round trip must assemble.
        prop_assert!(assemble(&src).is_ok(), "clean disassembly must assemble");
        for round in 0..8u64 {
            let mutated = mutate_source(&src, seed ^ (round << 32));
            // Ok (mutation happened to stay well-formed) or a typed error —
            // a panic aborts the test.
            let _ = assemble(&mutated);
        }
    }

    /// The netlist builder under random op sequences: wrong arities,
    /// out-of-range stages, double-connected flip-flops, duplicate names —
    /// every misuse is a typed `NetlistError`, never a panic.
    #[test]
    fn netlist_builder_never_panics_on_garbage_ops(
        seed in 0u64..1_000_000,
        ops in 4usize..40,
    ) {
        let mut rng = Xoshiro256::seed_from_u64(seed);
        let stages = 1 + rng.next_below(3) as usize;
        let mut b = NetlistBuilder::new(stages);
        let mut pool: Vec<terse_netlist::GateId> = Vec::new();
        let mut ffs: Vec<terse_netlist::GateId> = Vec::new();
        const KINDS: &[GateKind] = &[
            GateKind::Buf,
            GateKind::Not,
            GateKind::And,
            GateKind::Or,
            GateKind::Xor,
            GateKind::Nand,
            GateKind::Nor,
            GateKind::FlipFlop, // not constructible via `gate` — must error
            GateKind::Input,    // likewise
        ];
        for step in 0..ops {
            // Stages beyond `stages` are deliberately generated.
            let stage = rng.next_below(stages as u64 + 2) as usize;
            match rng.next_below(6) {
                0 => {
                    if let Ok(id) = b.input(&format!("in{step}"), stage) {
                        pool.push(id);
                    }
                }
                1 => {
                    let class = if rng.next_below(2) == 0 {
                        EndpointClass::Data
                    } else {
                        EndpointClass::Control
                    };
                    // Duplicate names are generated on purpose.
                    if let Ok(id) = b.flip_flop(&format!("ff{}", step % 3), class, stage) {
                        ffs.push(id);
                        pool.push(id);
                    }
                }
                2 => {
                    if let Ok(id) = b.tie(rng.next_below(2) == 1, stage) {
                        pool.push(id);
                    }
                }
                3 if !pool.is_empty() => {
                    let kind = KINDS[rng.next_below(KINDS.len() as u64) as usize];
                    // Random fanin arity 0..=3, frequently wrong for `kind`.
                    let arity = rng.next_below(4) as usize;
                    let fanin: Vec<_> = (0..arity)
                        .map(|_| pool[rng.next_below(pool.len() as u64) as usize])
                        .collect();
                    if let Ok(id) = b.gate(kind, &fanin, stage) {
                        pool.push(id);
                    }
                }
                4 if !ffs.is_empty() && !pool.is_empty() => {
                    // Sometimes a non-flip-flop target, sometimes a double
                    // connection: both must be typed errors.
                    let target = if rng.next_below(3) == 0 {
                        pool[rng.next_below(pool.len() as u64) as usize]
                    } else {
                        ffs[rng.next_below(ffs.len() as u64) as usize]
                    };
                    let driver = pool[rng.next_below(pool.len() as u64) as usize];
                    let _ = b.connect_ff_input(target, driver);
                }
                _ if !pool.is_empty() => {
                    let width = 1 + rng.next_below(3) as usize;
                    let ids: Vec<_> = (0..width)
                        .map(|_| pool[rng.next_below(pool.len() as u64) as usize])
                        .collect();
                    let _ = b.name_bus(&format!("bus{}", step % 2), &ids);
                }
                _ => {}
            }
        }
        // `finish` validates the whole structure; Ok or typed error.
        let _ = b.finish();
    }

    /// Trace ingestion: the DTA engine on arbitrary activation sets —
    /// including unrealizable patterns, the empty set, and *truncated*
    /// bit sets shorter than the gate count (a cut-off VCD).
    #[test]
    fn dta_engine_never_panics_on_arbitrary_vcds(
        seed in 0u64..1_000_000,
        gates in 1usize..14,
        density in 0.0f64..1.0,
    ) {
        let netlist = gen::random_netlist(seed, gates);
        let engine = terse_dta::engine::DtsEngine::new(
            &netlist,
            DelayLibrary::normalized_45nm(),
            gen::random_variation_config(seed),
            TimingConstraints::with_period(50.0),
        )
        .expect("engine construction on a valid netlist");
        let full = gen::random_vcd(&netlist, seed ^ 1, density);
        let empty = BitSet::new(netlist.gate_count());
        // A truncated trace: capacity smaller than the gate count, as if
        // the VCD stream was cut off mid-cycle.
        let mut truncated = BitSet::new(netlist.gate_count() / 2 + 1);
        let mut rng = Xoshiro256::seed_from_u64(seed ^ 2);
        for i in 0..truncated.capacity() {
            if rng.next_f64() < density {
                truncated.insert(i);
            }
        }
        for vcd in [&full, &empty, &truncated] {
            for filter in [
                terse_dta::engine::EndpointFilter::All,
                terse_dta::engine::EndpointFilter::Control,
                terse_dta::engine::EndpointFilter::Data,
            ] {
                // Stage 0 exists; stage 7 usually does not — both must
                // come back as `Ok`/`Err`, never a panic.
                let _ = engine.stage_dts(0, vcd, filter);
                let _ = engine.stage_dts(7, vcd, filter);
            }
        }
    }

    /// The architectural simulator on programs with wild branch targets and
    /// memory offsets: out-of-range PCs and addresses are typed errors.
    #[test]
    fn machine_never_panics_on_wild_programs(
        seed in 0u64..1_000_000,
        len in 1usize..16,
    ) {
        let mut rng = Xoshiro256::seed_from_u64(seed);
        const BRANCH: [Opcode; 4] = [Opcode::Beq, Opcode::Bne, Opcode::Blt, Opcode::Bge];
        let insts: Vec<Instruction> = (0..len)
            .map(|_| match rng.next_below(5) {
                0 => Instruction {
                    // Branch to an arbitrary (usually out-of-range) target.
                    opcode: BRANCH[rng.next_below(4) as usize],
                    rd: 0,
                    rs1: rng.next_below(32) as u8,
                    rs2: rng.next_below(32) as u8,
                    imm: rng.next_range(-1e6, 1e6) as i32,
                },
                1 => Instruction::itype(
                    Opcode::Ld,
                    rng.next_below(32) as u8,
                    rng.next_below(32) as u8,
                    rng.next_range(-1e6, 1e6) as i32,
                ),
                2 => Instruction::itype(
                    Opcode::St,
                    0,
                    rng.next_below(32) as u8,
                    rng.next_range(-1e6, 1e6) as i32,
                ),
                3 => Instruction::itype(
                    Opcode::Jal,
                    rng.next_below(32) as u8,
                    0,
                    rng.next_range(-1e6, 1e6) as i32,
                ),
                _ => Instruction::rtype(
                    Opcode::Add,
                    rng.next_below(32) as u8,
                    rng.next_below(32) as u8,
                    rng.next_below(32) as u8,
                ),
            })
            .collect();
        // Note: often no `halt` — the budget must end the run with a typed
        // error, not a hang or panic.
        let program = Program::new(insts, vec![], Default::default(), Default::default())
            .expect("non-empty instruction vector");
        let mut machine = Machine::new(&program, 64);
        let _ = machine.run(&program, 2_000);
    }
}
