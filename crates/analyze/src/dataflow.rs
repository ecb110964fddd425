//! Abstract-interpretation dataflow framework over the ISA CFG.
//!
//! A generic monotone-framework fixpoint engine (worklist over
//! [`terse_isa::Cfg`], forward or backward, lattice described by the
//! [`Analysis`] trait) plus four concrete passes over the 32-register
//! file:
//!
//! * [`ReachingDefs`] — which definition sites can reach each use.
//! * [`Liveness`] — backward live-register bitmasks.
//! * [`ConstProp`] — constant propagation with the exact wrapping
//!   semantics of `terse_sim::machine`.
//! * [`IntervalAnalysis`] — unsigned value ranges per register, checked
//!   for internal consistency by DF005.
//!
//! # Termination and order-independence
//!
//! All four lattices are **finite-height**, so the worklist iteration
//! converges to the unique least fixpoint regardless of pop order
//! (Fifo vs Lifo both land on identical facts — property-tested).
//! Intervals achieve finite height without widening by restricting
//! bounds to a *ladder*: exact values up to 256, then powers of two and
//! `2^k - 1` values (see [`Interval::normalized`]). The [`Analysis::widen`]
//! hook exists for lattices of unbounded height; every shipped pass keeps
//! the identity default precisely to preserve order-independence.
//!
//! # Indirect jumps
//!
//! `jr` successors are unknown statically. Under the ISA's call/return
//! discipline (`r31` written only by `jal`, `jr` only through `r31`) an
//! indirect block can only land on a `jal` return site, so the solver
//! augments the edge set with `jr-block -> every return site`. The
//! [`call_return_discipline`] predicate reports whether a program obeys
//! the discipline; a consumer deriving *proofs* from these edges, or
//! from any bound that assumes `jr` lands only on a return site, must
//! downgrade to value-free reasoning when it is broken.
//!
//! # Diagnostics
//!
//! | code  | severity | meaning |
//! |-------|----------|---------|
//! | DF001 | warning  | dead register write (value never read) |
//! | DF002 | warning  | register read before any definition (machine zero-init) |
//! | DF003 | warning  | branch outcome statically constant |
//! | DF004 | warning  | always-taken `beq rX, rX` with a dead fall-through edge |
//! | DF005 | error    | empty interval at a reachable instruction (internal inconsistency) |
//!
//! DF005 cannot arise from the analysis itself (transfers preserve
//! non-emptiness on reachable paths); it guards against corrupted or
//! hand-built solutions injected through [`check_intervals`], and the
//! oracle fixtures exercise exactly that path.

use crate::{AnalysisReport, Severity};
use std::collections::VecDeque;
use std::fmt::Debug;
use terse_isa::{Cfg, ControlKind, Instruction, Opcode, Program};

/// Flow direction of an analysis.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Direction {
    /// Facts flow from predecessors to successors.
    Forward,
    /// Facts flow from successors to predecessors.
    Backward,
}

/// Worklist scheduling policy. Both orders reach the same least
/// fixpoint (finite-height monotone frameworks); having two lets the
/// property tests assert exactly that.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum WorklistOrder {
    /// Pop the oldest pending block (round-robin flavour).
    #[default]
    Fifo,
    /// Pop the newest pending block (depth-first flavour).
    Lifo,
}

/// A monotone dataflow problem: a (bounded) join-semilattice of facts
/// plus per-instruction transfer functions.
pub trait Analysis {
    /// The lattice element attached to each block boundary.
    type Fact: Clone + PartialEq + Debug;

    /// Flow direction.
    fn direction(&self) -> Direction;

    /// The least lattice element (identity of `join`).
    fn bottom(&self) -> Self::Fact;

    /// An extra fact joined into a block's input independent of edges:
    /// the program-entry fact for forward analyses, exit facts (halt /
    /// indirect-jump blocks) for backward ones. `None` means nothing.
    fn boundary(&self, program: &Program, cfg: &Cfg, block: usize) -> Option<Self::Fact>;

    /// `into = into ⊔ other`. Must be commutative, associative and
    /// idempotent (property-tested for the shipped passes).
    fn join(&self, into: &mut Self::Fact, other: &Self::Fact);

    /// Widening hook for unbounded lattices, applied whenever a block's
    /// input is recomputed. The default (return the new joined fact
    /// unchanged) is exact and keeps the fixpoint order-independent;
    /// only override for lattices where chains do not stabilise.
    fn widen(&self, _old: &Self::Fact, new: Self::Fact) -> Self::Fact {
        new
    }

    /// In-place transfer of one instruction. For backward analyses the
    /// solver applies instructions in reverse program order and `fact`
    /// is the fact *after* the instruction on entry.
    fn transfer_inst(&self, index: usize, inst: &Instruction, fact: &mut Self::Fact);
}

/// Fixpoint facts at both ends of every block, indexed by block id.
#[derive(Debug, Clone)]
pub struct Solution<F> {
    /// Fact at the block's first instruction (before it executes).
    pub entry: Vec<F>,
    /// Fact after the block's last instruction.
    pub exit: Vec<F>,
}

/// Static successor/predecessor lists augmented with the call/return
/// edges an indirect (`jr`) block can take: one edge to every `jal`
/// return site. Out-of-range edge targets (a corrupted CFG) are
/// dropped; the CF pass diagnoses those separately. The lists are only
/// sound proofs when [`call_return_discipline`] holds.
fn augmented_edges(program: &Program, cfg: &Cfg) -> (Vec<Vec<usize>>, Vec<Vec<usize>>) {
    let m = cfg.len();
    let insts = program.instructions();
    let mut succs: Vec<Vec<usize>> = cfg
        .blocks()
        .iter()
        .map(|b| {
            cfg.successors(b.id)
                .iter()
                .map(|s| s.index())
                .filter(|&i| i < m)
                .collect()
        })
        .collect();
    let mut return_sites: Vec<usize> = Vec::new();
    for b in cfg.blocks() {
        if !b.is_empty()
            && b.end as usize <= insts.len()
            && insts[(b.end - 1) as usize].opcode == Opcode::Jal
        {
            if let Some(site) = cfg.blocks().iter().position(|x| x.start == b.end) {
                if !return_sites.contains(&site) {
                    return_sites.push(site);
                }
            }
        }
    }
    for b in cfg.indirect_blocks() {
        if b.index() >= m {
            continue;
        }
        for &site in &return_sites {
            if !succs[b.index()].contains(&site) {
                succs[b.index()].push(site);
            }
        }
    }
    let mut preds: Vec<Vec<usize>> = vec![Vec::new(); m];
    for (b, ss) in succs.iter().enumerate() {
        for &s in ss {
            if !preds[s].contains(&b) {
                preds[s].push(b);
            }
        }
    }
    (succs, preds)
}

/// Whether every indirect jump can only be a function return: `jr`
/// reads `r31` exclusively, and `r31` is written only by `jal`. When
/// this fails, facts derived through the augmented return edges are
/// not sound proofs (a computed goto could land anywhere).
pub fn call_return_discipline(program: &Program) -> bool {
    program.instructions().iter().all(|inst| {
        let jr_ok = inst.opcode != Opcode::Jr || inst.rs1 == 31;
        let link_ok = inst.opcode == Opcode::Jal || inst.destination() != Some(31);
        jr_ok && link_ok
    })
}

/// Blocks statically reachable from the entry over the augmented edge
/// set (so `jal` return sites count as reachable when the program has
/// indirect blocks, matching `cfg_pass::reachability`).
fn reachable_blocks(program: &Program, cfg: &Cfg) -> Vec<bool> {
    let m = cfg.len();
    let mut reachable = vec![false; m];
    if m == 0 {
        return reachable;
    }
    let (succs, _) = augmented_edges(program, cfg);
    let insts = program.instructions();
    let has_indirect = !cfg.indirect_blocks().is_empty();
    let mut stack = vec![0usize];
    while let Some(b) = stack.pop() {
        if reachable[b] {
            continue;
        }
        reachable[b] = true;
        for &s in &succs[b] {
            stack.push(s);
        }
        // A return site resumes after its `jal` even if the callee's
        // `jr` block was not itself reached yet.
        let blk = &cfg.blocks()[b];
        if has_indirect
            && !blk.is_empty()
            && blk.end as usize <= insts.len()
            && insts[(blk.end - 1) as usize].opcode == Opcode::Jal
        {
            if let Some(site) = cfg.blocks().iter().position(|x| x.start == blk.end) {
                stack.push(site);
            }
        }
    }
    reachable
}

/// Runs `analysis` to its least fixpoint over `cfg` with the given
/// worklist policy and returns per-block entry/exit facts.
pub fn solve<A: Analysis>(
    analysis: &A,
    program: &Program,
    cfg: &Cfg,
    order: WorklistOrder,
) -> Solution<A::Fact> {
    let m = cfg.len();
    let insts = program.instructions();
    let (succs, preds) = augmented_edges(program, cfg);
    let (dep_in, dep_out): (&Vec<Vec<usize>>, &Vec<Vec<usize>>) = match analysis.direction() {
        Direction::Forward => (&preds, &succs),
        Direction::Backward => (&succs, &preds),
    };

    // `input[b]` is the joined fact entering the block transfer (block
    // entry for forward, block exit for backward); `output[b]` is the
    // transferred fact on the other side.
    let mut input: Vec<A::Fact> = (0..m).map(|_| analysis.bottom()).collect();
    let mut output: Vec<A::Fact> = (0..m).map(|_| analysis.bottom()).collect();

    let transfer_block = |analysis: &A, b: usize, fact: &mut A::Fact| {
        let blk = &cfg.blocks()[b];
        let range = blk.range();
        if range.end > insts.len() {
            return; // corrupted partition; CF004 diagnoses it
        }
        match analysis.direction() {
            Direction::Forward => {
                for i in range {
                    analysis.transfer_inst(i, &insts[i], fact);
                }
            }
            Direction::Backward => {
                for i in range.rev() {
                    analysis.transfer_inst(i, &insts[i], fact);
                }
            }
        }
    };

    let mut queue: VecDeque<usize> = (0..m).collect();
    let mut queued = vec![true; m];
    let mut first = vec![true; m];
    while let Some(b) = match order {
        WorklistOrder::Fifo => queue.pop_front(),
        WorklistOrder::Lifo => queue.pop_back(),
    } {
        queued[b] = false;
        let mut fresh = analysis.bottom();
        if let Some(extra) = analysis.boundary(program, cfg, b) {
            analysis.join(&mut fresh, &extra);
        }
        for &d in &dep_in[b] {
            analysis.join(&mut fresh, &output[d]);
        }
        let fresh = analysis.widen(&input[b], fresh);
        if !first[b] && fresh == input[b] {
            continue;
        }
        first[b] = false;
        input[b] = fresh.clone();
        let mut out = fresh;
        transfer_block(analysis, b, &mut out);
        if out != output[b] {
            output[b] = out;
            for &d in &dep_out[b] {
                if !queued[d] {
                    queued[d] = true;
                    queue.push_back(d);
                }
            }
        }
    }

    match analysis.direction() {
        Direction::Forward => Solution {
            entry: input,
            exit: output,
        },
        Direction::Backward => Solution {
            entry: output,
            exit: input,
        },
    }
}

// ---------------------------------------------------------------------
// Reaching definitions
// ---------------------------------------------------------------------

/// Sentinel definition site meaning "the machine's zero-initialised
/// value at program entry".
pub const ENTRY_DEF: u32 = u32::MAX;

/// Reaching definitions: per register, the sorted set of instruction
/// indices (or [`ENTRY_DEF`]) whose definition may reach this point.
pub struct ReachingDefs;

/// Fact type of [`ReachingDefs`]: 32 sorted, deduplicated def-site sets.
pub type DefSites = Vec<Vec<u32>>;

impl Analysis for ReachingDefs {
    type Fact = DefSites;

    fn direction(&self) -> Direction {
        Direction::Forward
    }

    fn bottom(&self) -> DefSites {
        vec![Vec::new(); 32]
    }

    fn boundary(&self, _program: &Program, _cfg: &Cfg, block: usize) -> Option<DefSites> {
        (block == 0).then(|| {
            let mut f = vec![Vec::new(); 32];
            for r in f.iter_mut().skip(1) {
                r.push(ENTRY_DEF);
            }
            f
        })
    }

    fn join(&self, into: &mut DefSites, other: &DefSites) {
        for (a, b) in into.iter_mut().zip(other) {
            for &d in b {
                if let Err(pos) = a.binary_search(&d) {
                    a.insert(pos, d);
                }
            }
        }
    }

    fn transfer_inst(&self, index: usize, inst: &Instruction, fact: &mut DefSites) {
        if let Some(rd) = inst.destination() {
            fact[rd as usize] = vec![index as u32];
        }
    }
}

// ---------------------------------------------------------------------
// Liveness
// ---------------------------------------------------------------------

/// Backward liveness; the fact is a register bitmask (bit `r` set ⇔
/// `rN` live). `r0` is never live (reads are the hardwired zero).
pub struct Liveness;

/// All registers except `r0` — the conservative exit fact at an
/// indirect jump (the continuation is unknown statically).
pub const ALL_LIVE: u32 = !1;

impl Analysis for Liveness {
    type Fact = u32;

    fn direction(&self) -> Direction {
        Direction::Backward
    }

    fn bottom(&self) -> u32 {
        0
    }

    fn boundary(&self, program: &Program, cfg: &Cfg, block: usize) -> Option<u32> {
        let blk = &cfg.blocks()[block];
        let insts = program.instructions();
        if blk.is_empty() || blk.end as usize > insts.len() {
            return None;
        }
        match ControlKind::of(&insts[(blk.end - 1) as usize]) {
            ControlKind::Halt => Some(0),
            ControlKind::Indirect => Some(ALL_LIVE),
            _ => None,
        }
    }

    fn join(&self, into: &mut u32, other: &u32) {
        *into |= other;
    }

    fn transfer_inst(&self, _index: usize, inst: &Instruction, fact: &mut u32) {
        if let Some(rd) = inst.destination() {
            *fact &= !(1u32 << rd);
        }
        for r in inst.sources() {
            if r != 0 {
                *fact |= 1u32 << r;
            }
        }
    }
}

// ---------------------------------------------------------------------
// Constant propagation
// ---------------------------------------------------------------------

/// Per-register constant lattice: `Undef ⊑ Const(v) ⊑ Varies`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CVal {
    /// No execution reaches this point yet (lattice bottom).
    Undef,
    /// Every execution reaching this point sees exactly this value.
    Const(u32),
    /// More than one value is possible (lattice top).
    Varies,
}

impl CVal {
    fn join(self, other: CVal) -> CVal {
        match (self, other) {
            (CVal::Undef, x) | (x, CVal::Undef) => x,
            (CVal::Const(a), CVal::Const(b)) if a == b => self,
            _ => CVal::Varies,
        }
    }

    fn map2(self, other: CVal, f: impl FnOnce(u32, u32) -> u32) -> CVal {
        match (self, other) {
            (CVal::Undef, _) | (_, CVal::Undef) => CVal::Undef,
            (CVal::Const(a), CVal::Const(b)) => CVal::Const(f(a, b)),
            _ => CVal::Varies,
        }
    }

    fn map(self, f: impl FnOnce(u32) -> u32) -> CVal {
        self.map2(CVal::Const(0), |a, _| f(a))
    }
}

/// Constant propagation with the machine's exact wrapping/shift-mask
/// semantics (`terse_sim::machine` is the ground truth being mirrored).
pub struct ConstProp;

/// Fact type of [`ConstProp`]: one [`CVal`] per architectural register.
pub type ConstFact = Vec<CVal>;

fn cval(fact: &ConstFact, r: u8) -> CVal {
    if r == 0 {
        CVal::Const(0)
    } else {
        fact[r as usize]
    }
}

impl Analysis for ConstProp {
    type Fact = ConstFact;

    fn direction(&self) -> Direction {
        Direction::Forward
    }

    fn bottom(&self) -> ConstFact {
        vec![CVal::Undef; 32]
    }

    fn boundary(&self, _program: &Program, _cfg: &Cfg, block: usize) -> Option<ConstFact> {
        (block == 0).then(|| vec![CVal::Const(0); 32])
    }

    fn join(&self, into: &mut ConstFact, other: &ConstFact) {
        for (a, b) in into.iter_mut().zip(other) {
            *a = a.join(*b);
        }
    }

    fn transfer_inst(&self, _index: usize, inst: &Instruction, fact: &mut ConstFact) {
        let Some(rd) = inst.destination() else {
            return;
        };
        let a = cval(fact, inst.rs1);
        let b = cval(fact, inst.rs2);
        let imm = inst.imm;
        let imm_u16 = (imm as u32) & 0xFFFF;
        let v = match inst.opcode {
            Opcode::Add => a.map2(b, u32::wrapping_add),
            Opcode::Sub => a.map2(b, u32::wrapping_sub),
            Opcode::And => a.map2(b, |x, y| x & y),
            Opcode::Or => a.map2(b, |x, y| x | y),
            Opcode::Xor => a.map2(b, |x, y| x ^ y),
            Opcode::Sll => a.map2(b, |x, y| x.wrapping_shl(y & 31)),
            Opcode::Srl => a.map2(b, |x, y| x.wrapping_shr(y & 31)),
            Opcode::Sra => a.map2(b, |x, y| (x as i32).wrapping_shr(y & 31) as u32),
            Opcode::Mul => a.map2(b, u32::wrapping_mul),
            Opcode::Slt => a.map2(b, |x, y| u32::from((x as i32) < (y as i32))),
            Opcode::Sltu => a.map2(b, |x, y| u32::from(x < y)),
            Opcode::Addi => a.map(|x| x.wrapping_add(imm as u32)),
            Opcode::Andi => a.map(|x| x & imm_u16),
            Opcode::Ori => a.map(|x| x | imm_u16),
            Opcode::Xori => a.map(|x| x ^ imm_u16),
            Opcode::Slli => a.map(|x| x.wrapping_shl(imm as u32 & 31)),
            Opcode::Srli => a.map(|x| x.wrapping_shr(imm as u32 & 31)),
            Opcode::Srai => a.map(|x| (x as i32).wrapping_shr(imm as u32 & 31) as u32),
            Opcode::Slti => a.map(|x| u32::from((x as i32) < imm)),
            Opcode::Lui => CVal::Const(imm_u16 << 16),
            // Loads depend on memory, `jal` writes a return address the
            // lattice does not track — both are simply non-constant.
            _ => CVal::Varies,
        };
        fact[rd as usize] = v;
    }
}

// ---------------------------------------------------------------------
// Interval analysis
// ---------------------------------------------------------------------

/// An unsigned value range `[lo, hi]` over `u32` values, held in `u64`
/// so transfer arithmetic cannot overflow. Empty iff `lo > hi`.
///
/// Lattice elements are kept *normalized* ([`Interval::normalized`]):
/// bounds live on a finite ladder (exact up to 256, then `2^k` /
/// `2^k - 1`), which makes the join (interval hull) a finite-height,
/// exactly associative semilattice — no widening needed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Interval {
    /// Inclusive lower bound.
    pub lo: u64,
    /// Inclusive upper bound.
    pub hi: u64,
}

const U32MAX: u64 = u32::MAX as u64;
/// Bounds at or below this value are kept exact by the ladder.
const LADDER_EXACT: u64 = 256;

impl Interval {
    /// The empty interval (lattice bottom).
    pub const EMPTY: Interval = Interval { lo: 1, hi: 0 };
    /// The full `u32` range (lattice top).
    pub const TOP: Interval = Interval { lo: 0, hi: U32MAX };

    /// A single exact value.
    pub fn point(v: u32) -> Interval {
        Interval {
            lo: v as u64,
            hi: v as u64,
        }
    }

    /// Whether no value is contained.
    pub fn is_empty(self) -> bool {
        self.lo > self.hi
    }

    /// Whether `v` is contained.
    pub fn contains(self, v: u32) -> bool {
        !self.is_empty() && self.lo <= v as u64 && v as u64 <= self.hi
    }

    /// Interval hull (the lattice join).
    pub fn join(self, other: Interval) -> Interval {
        if self.is_empty() {
            other
        } else if other.is_empty() {
            self
        } else {
            Interval {
                lo: self.lo.min(other.lo),
                hi: self.hi.max(other.hi),
            }
        }
    }

    /// Snaps the bounds outward onto the ladder (`lo` down, `hi` up).
    /// Idempotent and monotone; the hull of two normalized intervals is
    /// itself normalized, so lattice joins never need re-snapping.
    pub fn normalized(self) -> Interval {
        if self.is_empty() {
            return Interval::EMPTY;
        }
        Interval {
            lo: ladder_down(self.lo),
            hi: ladder_up(self.hi.min(U32MAX)),
        }
    }
}

/// Largest ladder value `≤ x` (for `x ≤ u32::MAX + small` sums the
/// caller has already range-checked).
fn ladder_down(x: u64) -> u64 {
    if x <= LADDER_EXACT {
        return x;
    }
    let p = 63 - x.leading_zeros();
    let ones = (1u64 << (p + 1)) - 1;
    if x == ones {
        ones
    } else {
        1u64 << p
    }
}

/// Smallest ladder value `≥ x` (capped at `u32::MAX`, which is on the
/// ladder).
fn ladder_up(x: u64) -> u64 {
    if x <= LADDER_EXACT {
        return x;
    }
    let p = 63 - x.leading_zeros();
    if x == 1u64 << p {
        x
    } else {
        (1u64 << (p + 1)) - 1
    }
}

/// All-ones cover of `x`: the smallest `2^k - 1 ≥ x`.
fn ones_cover(x: u64) -> u64 {
    if x == 0 {
        0
    } else {
        (1u64 << (64 - x.leading_zeros())) - 1
    }
}

/// Interval (value-range) analysis over the unsigned register file,
/// mirroring the machine's wrapping semantics conservatively.
pub struct IntervalAnalysis;

/// Fact type of [`IntervalAnalysis`]: one [`Interval`] per register.
pub type IntervalFact = Vec<Interval>;

fn ival(fact: &IntervalFact, r: u8) -> Interval {
    if r == 0 {
        Interval::point(0)
    } else {
        fact[r as usize]
    }
}

/// `a + c (mod 2^32)` for a constant `c`: exact when no value wraps or
/// every value wraps, `TOP` when the range straddles the wrap point.
fn add_const(a: Interval, c: u32) -> Interval {
    let lo = a.lo + c as u64;
    let hi = a.hi + c as u64;
    if hi <= U32MAX {
        Interval { lo, hi }
    } else if lo > U32MAX {
        Interval {
            lo: lo - (1u64 << 32),
            hi: hi - (1u64 << 32),
        }
    } else {
        Interval::TOP
    }
}

/// Result interval of one instruction's register write, `None` when the
/// instruction writes no register. Empty operands yield an empty result
/// (unreachable code stays at bottom).
fn interval_result(inst: &Instruction, fact: &IntervalFact) -> Option<Interval> {
    inst.destination()?;
    let a = ival(fact, inst.rs1);
    let b = ival(fact, inst.rs2);
    let imm = inst.imm;
    let imm_u16 = ((imm as u32) & 0xFFFF) as u64;
    let uses_b = inst.opcode.is_rtype();
    if a.is_empty() && !matches!(inst.opcode, Opcode::Lui | Opcode::Ld | Opcode::Jal) {
        return Some(Interval::EMPTY);
    }
    if uses_b && b.is_empty() {
        return Some(Interval::EMPTY);
    }
    let shift_const =
        |iv: Interval| -> Option<u32> { (iv.lo == iv.hi).then_some((iv.lo as u32) & 31) };
    let r = match inst.opcode {
        Opcode::Add => {
            let hi = a.hi + b.hi;
            if hi <= U32MAX {
                Interval {
                    lo: a.lo + b.lo,
                    hi,
                }
            } else {
                Interval::TOP
            }
        }
        Opcode::Addi => add_const(a, imm as u32),
        Opcode::Sub => {
            if a.lo >= b.hi {
                Interval {
                    lo: a.lo - b.hi,
                    hi: a.hi - b.lo,
                }
            } else {
                Interval::TOP
            }
        }
        Opcode::And => Interval {
            lo: 0,
            hi: a.hi.min(b.hi),
        },
        Opcode::Andi => Interval {
            lo: 0,
            hi: a.hi.min(imm_u16),
        },
        Opcode::Or => Interval {
            lo: a.lo.max(b.lo),
            hi: ones_cover(a.hi | b.hi),
        },
        Opcode::Ori => Interval {
            lo: a.lo.max(imm_u16),
            hi: ones_cover(a.hi | imm_u16),
        },
        Opcode::Xor => Interval {
            lo: 0,
            hi: ones_cover(a.hi | b.hi),
        },
        Opcode::Xori => Interval {
            lo: 0,
            hi: ones_cover(a.hi | imm_u16),
        },
        Opcode::Sll | Opcode::Slli => {
            let s = if inst.opcode == Opcode::Slli {
                Some(imm as u32 & 31)
            } else {
                shift_const(b)
            };
            match s {
                Some(s) if a.hi << s <= U32MAX => Interval {
                    lo: a.lo << s,
                    hi: a.hi << s,
                },
                _ if a.hi == 0 => Interval { lo: 0, hi: 0 },
                _ => Interval::TOP,
            }
        }
        Opcode::Srl | Opcode::Srli => {
            let s = if inst.opcode == Opcode::Srli {
                Some(imm as u32 & 31)
            } else {
                shift_const(b)
            };
            match s {
                Some(s) => Interval {
                    lo: a.lo >> s,
                    hi: a.hi >> s,
                },
                None => Interval { lo: 0, hi: a.hi },
            }
        }
        Opcode::Sra | Opcode::Srai => {
            // For values with bit 31 clear, arithmetic == logical shift;
            // a possibly-negative operand smears sign bits -> TOP.
            if a.hi <= i32::MAX as u64 {
                let s = if inst.opcode == Opcode::Srai {
                    Some(imm as u32 & 31)
                } else {
                    shift_const(b)
                };
                match s {
                    Some(s) => Interval {
                        lo: a.lo >> s,
                        hi: a.hi >> s,
                    },
                    None => Interval { lo: 0, hi: a.hi },
                }
            } else {
                Interval::TOP
            }
        }
        Opcode::Mul => {
            if a.hi.checked_mul(b.hi).is_some_and(|h| h <= U32MAX) {
                Interval {
                    lo: a.lo * b.lo,
                    hi: a.hi * b.hi,
                }
            } else {
                Interval::TOP
            }
        }
        Opcode::Slt | Opcode::Sltu | Opcode::Slti => Interval { lo: 0, hi: 1 },
        Opcode::Lui => Interval::point(((imm as u32) & 0xFFFF) << 16),
        // Loads read arbitrary memory; `jal` writes a return address the
        // register lattice does not track.
        _ => Interval::TOP,
    };
    Some(r.normalized())
}

impl Analysis for IntervalAnalysis {
    type Fact = IntervalFact;

    fn direction(&self) -> Direction {
        Direction::Forward
    }

    fn bottom(&self) -> IntervalFact {
        vec![Interval::EMPTY; 32]
    }

    fn boundary(&self, _program: &Program, _cfg: &Cfg, block: usize) -> Option<IntervalFact> {
        (block == 0).then(|| vec![Interval::point(0); 32])
    }

    fn join(&self, into: &mut IntervalFact, other: &IntervalFact) {
        for (a, b) in into.iter_mut().zip(other) {
            *a = a.join(*b);
        }
    }

    fn transfer_inst(&self, _index: usize, inst: &Instruction, fact: &mut IntervalFact) {
        let Some(rd) = inst.destination() else {
            return;
        };
        if let Some(r) = interval_result(inst, fact) {
            fact[rd as usize] = r;
        }
    }
}

// ---------------------------------------------------------------------
// DF diagnostics
// ---------------------------------------------------------------------

/// Runs all four passes and appends DF001–DF004 findings (DF005 is
/// checked against the freshly computed interval solution and cannot
/// fire unless that solution was corrupted — see [`check_intervals`]).
pub fn analyze_dataflow(program: &Program, cfg: &Cfg, report: &mut AnalysisReport) {
    let reachable = reachable_blocks(program, cfg);
    let live = solve(&Liveness, program, cfg, WorklistOrder::Fifo);
    check_dead_writes(program, cfg, &live, &reachable, report);
    let defs = solve(&ReachingDefs, program, cfg, WorklistOrder::Fifo);
    check_use_before_def(program, cfg, &defs, &reachable, report);
    let consts = solve(&ConstProp, program, cfg, WorklistOrder::Fifo);
    check_branches(program, cfg, &consts, &reachable, report);
    let intervals = solve(&IntervalAnalysis, program, cfg, WorklistOrder::Fifo);
    check_intervals(program, cfg, &intervals, report);
}

/// DF001 — a register write whose value no execution path reads.
fn check_dead_writes(
    program: &Program,
    cfg: &Cfg,
    live: &Solution<u32>,
    reachable: &[bool],
    report: &mut AnalysisReport,
) {
    let insts = program.instructions();
    for (b, blk) in cfg.blocks().iter().enumerate() {
        if !reachable[b] || blk.end as usize > insts.len() {
            continue;
        }
        let mut fact = live.exit[b];
        for i in blk.range().rev() {
            let inst = &insts[i];
            if let Some(rd) = inst.destination() {
                if fact & (1u32 << rd) == 0 {
                    report.push(
                        "DF001",
                        Severity::Warning,
                        format!("inst {i}"),
                        format!(
                            "register r{rd} written by {:?} is never read afterwards",
                            inst.opcode
                        ),
                        "dead write: remove the instruction or use its result",
                    );
                }
            }
            Liveness.transfer_inst(i, inst, &mut fact);
        }
    }
}

/// DF002 — a register read that some path reaches without any prior
/// definition (the machine zero-initialises, so this is legal but
/// almost always an omission).
fn check_use_before_def(
    program: &Program,
    cfg: &Cfg,
    defs: &Solution<DefSites>,
    reachable: &[bool],
    report: &mut AnalysisReport,
) {
    let insts = program.instructions();
    for (b, blk) in cfg.blocks().iter().enumerate() {
        if !reachable[b] || blk.end as usize > insts.len() {
            continue;
        }
        let mut fact = defs.entry[b].clone();
        for i in blk.range() {
            let inst = &insts[i];
            for r in inst.sources() {
                if r != 0 && fact[r as usize].contains(&ENTRY_DEF) {
                    report.push(
                        "DF002",
                        Severity::Warning,
                        format!("inst {i}"),
                        format!("register r{r} is read but a path from entry never defines it"),
                        "use before def: initialise the register (the machine zero-fills)",
                    );
                }
            }
            ReachingDefs.transfer_inst(i, inst, &mut fact);
        }
    }
}

/// DF003 / DF004 — branches whose outcome is statically decided, by
/// constant operands or by structure (`rX` compared with itself). The
/// `beq r0, r0` pseudo-jump is the one sanctioned always-taken form
/// and is skipped.
fn check_branches(
    program: &Program,
    cfg: &Cfg,
    consts: &Solution<ConstFact>,
    reachable: &[bool],
    report: &mut AnalysisReport,
) {
    let insts = program.instructions();
    for (b, blk) in cfg.blocks().iter().enumerate() {
        if !reachable[b] || blk.end as usize > insts.len() {
            continue;
        }
        let mut fact = consts.entry[b].clone();
        for i in blk.range() {
            let inst = &insts[i];
            if inst.opcode.is_branch() {
                let same = inst.rs1 == inst.rs2;
                if same && inst.opcode == Opcode::Beq && inst.rs1 == 0 {
                    // pseudo-jump `j target`
                } else if same && inst.opcode == Opcode::Beq {
                    report.push(
                        "DF004",
                        Severity::Warning,
                        format!("inst {i}"),
                        format!(
                            "beq r{0}, r{0} is always taken but keeps a dead fall-through edge",
                            inst.rs1
                        ),
                        "use the `j` pseudo-jump (beq r0, r0) so the CFG drops the dead edge",
                    );
                } else if same {
                    let taken = inst.opcode == Opcode::Bge; // x<x never, x>=x always
                    report.push(
                        "DF003",
                        Severity::Warning,
                        format!("inst {i}"),
                        format!(
                            "{:?} r{1}, r{1} compares a register with itself and is {2}",
                            inst.opcode,
                            inst.rs1,
                            if taken { "always taken" } else { "never taken" }
                        ),
                        "statically decided branch: fold it away",
                    );
                } else if let (CVal::Const(x), CVal::Const(y)) =
                    (cval(&fact, inst.rs1), cval(&fact, inst.rs2))
                {
                    let taken = match inst.opcode {
                        Opcode::Beq => x == y,
                        Opcode::Bne => x != y,
                        Opcode::Blt => (x as i32) < (y as i32),
                        _ => (x as i32) >= (y as i32),
                    };
                    report.push(
                        "DF003",
                        Severity::Warning,
                        format!("inst {i}"),
                        format!(
                            "branch operands are the constants {x} and {y}; {:?} is {}",
                            inst.opcode,
                            if taken { "always taken" } else { "never taken" }
                        ),
                        "statically decided branch: fold it away",
                    );
                }
            }
            ConstProp.transfer_inst(i, inst, &mut fact);
        }
    }
}

/// DF005 — an empty operand interval at a reachable instruction. The
/// shipped transfer functions preserve non-emptiness along reachable
/// paths, so a hit means the solution object was corrupted (oracle
/// fixtures inject exactly that); severity is `Error` because a fact
/// derived from an empty interval would be a proof from an impossible
/// premise.
pub fn check_intervals(
    program: &Program,
    cfg: &Cfg,
    intervals: &Solution<IntervalFact>,
    report: &mut AnalysisReport,
) {
    let insts = program.instructions();
    let reachable = reachable_blocks(program, cfg);
    for (b, blk) in cfg.blocks().iter().enumerate() {
        if !reachable[b] || blk.end as usize > insts.len() || b >= intervals.entry.len() {
            continue;
        }
        let mut fact = intervals.entry[b].clone();
        for i in blk.range() {
            let inst = &insts[i];
            for r in inst.sources() {
                if r != 0 && fact[r as usize].is_empty() {
                    report.push(
                        "DF005",
                        Severity::Error,
                        format!("inst {i}"),
                        format!("operand register r{r} has an empty interval on a reachable path"),
                        "internal inconsistency: the interval solution is corrupt; recompute it",
                    );
                }
            }
            IntervalAnalysis.transfer_inst(i, inst, &mut fact);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use terse_isa::assemble;

    fn setup(src: &str) -> (Program, Cfg) {
        let p = assemble(src).expect("test program assembles");
        let cfg = Cfg::from_program(&p);
        (p, cfg)
    }

    fn run_df(src: &str) -> AnalysisReport {
        let (p, cfg) = setup(src);
        let mut r = AnalysisReport::new();
        analyze_dataflow(&p, &cfg, &mut r);
        r
    }

    #[test]
    fn ladder_round_trip() {
        for x in [0u64, 1, 7, 255, 256, 257, 300, 511, 512, 513, U32MAX] {
            assert!(ladder_down(x) <= x && x <= ladder_up(x));
            assert_eq!(ladder_down(ladder_down(x)), ladder_down(x));
            assert_eq!(ladder_up(ladder_up(x)), ladder_up(x));
        }
        assert_eq!(ladder_down(300), 256);
        assert_eq!(ladder_up(300), 511);
        assert_eq!(ladder_up(512), 512);
        assert_eq!(ladder_down(511), 511);
    }

    #[test]
    fn straight_line_constants_and_intervals() {
        let (p, cfg) =
            setup("addi r1, r0, 5\naddi r2, r1, 3\nadd r3, r1, r2\nst r3, r0, 0\nhalt\n");
        let consts = solve(&ConstProp, &p, &cfg, WorklistOrder::Fifo);
        let exit = &consts.exit[0];
        assert_eq!(exit[1], CVal::Const(5));
        assert_eq!(exit[2], CVal::Const(8));
        assert_eq!(exit[3], CVal::Const(13));
        let intervals = solve(&IntervalAnalysis, &p, &cfg, WorklistOrder::Fifo);
        let exit = &intervals.exit[0];
        assert_eq!(exit[1], Interval::point(5));
        assert_eq!(exit[2], Interval::point(8));
        assert_eq!(exit[3], Interval::point(13));
    }

    #[test]
    fn loop_intervals_stay_bounded_and_converge() {
        let (p, cfg) = setup(
            r"
                addi r1, r0, 0
            loop:
                addi r1, r1, 1
                andi r3, r1, 15
                st   r3, r0, 0
                bne  r3, r0, loop
                halt
            ",
        );
        let fifo = solve(&IntervalAnalysis, &p, &cfg, WorklistOrder::Fifo);
        let lifo = solve(&IntervalAnalysis, &p, &cfg, WorklistOrder::Lifo);
        assert_eq!(fifo.entry, lifo.entry, "fixpoint is order-independent");
        assert_eq!(fifo.exit, lifo.exit);
        // The raw counter climbs the ladder to TOP (no branch-condition
        // refinement, by design), but the masked value stays in [0, 15].
        let r3 = fifo.exit[1][3];
        assert!(!r3.is_empty() && r3.hi <= 15, "{r3:?}");
        let r1 = fifo.exit[1][1];
        assert_eq!(r1, Interval::TOP, "counter legitimately saturates");
    }

    #[test]
    fn liveness_and_dead_write() {
        let r = run_df("addi r1, r0, 1\naddi r2, r0, 2\nst r1, r0, 0\nhalt\n");
        // r2's write is never read.
        assert!(r.has_code("DF001"), "{}", r.render_text());
        assert_eq!(
            r.diagnostics().iter().filter(|d| d.code == "DF001").count(),
            1
        );
    }

    #[test]
    fn use_before_def_fires_on_uninitialised_read() {
        let r = run_df("add r2, r1, r1\nst r2, r0, 0\nhalt\n");
        assert!(r.has_code("DF002"), "{}", r.render_text());
    }

    #[test]
    fn const_branch_and_always_taken_beq() {
        let r = run_df(
            r"
                addi r1, r0, 4
                addi r2, r0, 4
                beq  r1, r2, out
                st   r1, r0, 0
            out:
                st   r2, r0, 1
                halt
            ",
        );
        assert!(r.has_code("DF003"), "{}", r.render_text());
        let r2 = run_df(
            r"
                ld   r1, r0, 0
                beq  r1, r1, out
                st   r1, r0, 0
            out:
                halt
            ",
        );
        assert!(r2.has_code("DF004"), "{}", r2.render_text());
        assert!(!r2.has_code("DF003"));
    }

    #[test]
    fn pseudo_jump_not_flagged_and_clean_program_is_clean() {
        let r = run_df(
            r"
                ld   r1, r0, 0
                j    body
            body:
                addi r1, r1, 1
                st   r1, r0, 0
                halt
            ",
        );
        assert!(
            !r.has_code("DF003") && !r.has_code("DF004"),
            "{}",
            r.render_text()
        );
        assert!(r.is_clean(), "{}", r.render_text());
    }

    #[test]
    fn call_return_facts_flow_and_discipline_detected() {
        let (p, cfg) = setup(
            r"
            main:
                addi r1, r0, 7
                call fn
                st   r2, r0, 0
                halt
            fn:
                addi r2, r1, 1
                ret
            ",
        );
        assert!(call_return_discipline(&p));
        let consts = solve(&ConstProp, &p, &cfg, WorklistOrder::Fifo);
        // The return site (st block) sees the callee's r2 = 8.
        let site = cfg
            .blocks()
            .iter()
            .position(|b| p.instructions()[b.start as usize].opcode == Opcode::St)
            .expect("store block");
        assert_eq!(consts.entry[site][2], CVal::Const(8));
        let r = {
            let mut rep = AnalysisReport::new();
            analyze_dataflow(&p, &cfg, &mut rep);
            rep
        };
        assert!(r.is_clean(), "{}", r.render_text());
    }

    #[test]
    fn jr_through_scratch_register_breaks_discipline() {
        let (p, _) = setup("addi r5, r0, 0\njr r5\nhalt\n");
        assert!(!call_return_discipline(&p));
    }

    #[test]
    fn df005_fires_only_on_injected_corruption() {
        let (p, cfg) = setup("add r2, r1, r1\nst r2, r0, 0\nhalt\n");
        let mut sol = solve(&IntervalAnalysis, &p, &cfg, WorklistOrder::Fifo);
        let mut clean = AnalysisReport::new();
        check_intervals(&p, &cfg, &sol, &mut clean);
        assert!(clean.is_clean());
        // r1 is read at inst 0 before any write: an empty interval
        // there is exactly the inconsistency DF005 guards against.
        sol.entry[0][1] = Interval::EMPTY;
        let mut rep = AnalysisReport::new();
        check_intervals(&p, &cfg, &sol, &mut rep);
        assert!(rep.has_code("DF005"), "{}", rep.render_text());
        assert!(rep.has_errors());
    }
}
