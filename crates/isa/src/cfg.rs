//! Control-flow graph construction — the `B_1 … B_m` decomposition of the
//! paper's Section 4.
//!
//! Basic blocks are maximal straight-line instruction runs; leaders are the
//! entry instruction, every branch/jump target, and every instruction
//! following a control-flow instruction. Static edges cover branches
//! (taken + fall-through), unconditional jumps, and calls; indirect jumps
//! (`jr`, used for returns) contribute *dynamic* edges that the profiling
//! simulator reports — matching the paper, which measures edge activation
//! probabilities from program runs anyway.

use crate::inst::Instruction;
use crate::opcode::Opcode;
use crate::program::Program;

/// Decoded control-transfer behaviour of one instruction — the single
/// source of truth for leader derivation and static edge construction,
/// shared between [`Cfg::from_program`] and the static analyzer's
/// structural re-derivation so the two can never drift.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ControlKind {
    /// Not a control-flow instruction: execution falls through.
    FallThrough,
    /// Conditional branch to `target`. `falls_through` is `false` for the
    /// `beq r0, r0` pseudo-jump, which is always taken.
    Branch {
        /// Instruction index of the branch target.
        target: u32,
        /// Whether the fall-through edge is real.
        falls_through: bool,
    },
    /// Unconditional direct jump or call to `target`.
    Jump {
        /// Instruction index of the jump target.
        target: u32,
    },
    /// Indirect jump — successors are discovered dynamically at profile
    /// time.
    Indirect,
    /// Program termination.
    Halt,
}

impl ControlKind {
    /// Classifies an instruction's control-transfer behaviour.
    pub fn of(inst: &Instruction) -> ControlKind {
        match inst.opcode {
            op if op.is_branch() => ControlKind::Branch {
                target: inst.imm as u32,
                // `beq r0, r0` compares the hardwired zero register with
                // itself: always taken, so the fall-through edge is dead.
                falls_through: !(inst.opcode == Opcode::Beq && inst.rs1 == 0 && inst.rs2 == 0),
            },
            Opcode::Jal => ControlKind::Jump {
                target: inst.imm as u32,
            },
            Opcode::Jr => ControlKind::Indirect,
            Opcode::Halt => ControlKind::Halt,
            _ => ControlKind::FallThrough,
        }
    }

    /// Whether the instruction transfers control (ends a basic block).
    pub fn is_control(&self) -> bool {
        !matches!(self, ControlKind::FallThrough)
    }

    /// The static branch/jump target, if any.
    pub fn static_target(&self) -> Option<u32> {
        match *self {
            ControlKind::Branch { target, .. } | ControlKind::Jump { target } => Some(target),
            _ => None,
        }
    }
}

/// Identifier of a basic block (dense index).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct BlockId(pub u32);

impl BlockId {
    /// The dense index.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl std::fmt::Display for BlockId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "B{}", self.0)
    }
}

/// A basic block: instructions `start..end` of the program.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BasicBlock {
    /// This block's id.
    pub id: BlockId,
    /// First instruction index (inclusive).
    pub start: u32,
    /// Past-the-end instruction index.
    pub end: u32,
}

impl BasicBlock {
    /// Number of instructions in the block (`n_i` in the paper).
    pub fn len(&self) -> usize {
        (self.end - self.start) as usize
    }

    /// Whether the block is empty (never true for constructed CFGs).
    pub fn is_empty(&self) -> bool {
        self.start == self.end
    }

    /// The instruction indices of the block.
    pub fn range(&self) -> std::ops::Range<usize> {
        self.start as usize..self.end as usize
    }
}

/// The control-flow graph of a program.
///
/// # Example
/// ```
/// use terse_isa::{assemble, Cfg};
/// # fn main() -> Result<(), terse_isa::IsaError> {
/// let p = assemble("addi r1, r0, 3\nloop: addi r1, r1, -1\nbne r1, r0, loop\nhalt\n")?;
/// let cfg = Cfg::from_program(&p);
/// assert_eq!(cfg.blocks().len(), 3);
/// // The loop block has two successors: itself and the halt block.
/// let loop_block = cfg.block_containing(1);
/// assert_eq!(cfg.successors(loop_block).len(), 2);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Cfg {
    blocks: Vec<BasicBlock>,
    block_of: Vec<BlockId>,
    succs: Vec<Vec<BlockId>>,
    preds: Vec<Vec<BlockId>>,
    /// Blocks ending in an indirect jump (their successor sets are
    /// completed dynamically at profile time).
    indirect: Vec<BlockId>,
}

impl Cfg {
    /// Builds the CFG of a program.
    pub fn from_program(program: &Program) -> Self {
        let insts = program.instructions();
        let n = insts.len();
        // Leaders.
        let mut leader = vec![false; n];
        if n > 0 {
            leader[0] = true;
        }
        for (i, inst) in insts.iter().enumerate() {
            let kind = ControlKind::of(inst);
            if let Some(t) = kind.static_target() {
                if (t as usize) < n {
                    leader[t as usize] = true;
                }
            }
            if kind.is_control() && i + 1 < n {
                leader[i + 1] = true;
            }
        }
        // Blocks.
        let mut blocks = Vec::new();
        let mut block_of = Vec::with_capacity(n);
        let mut start = 0usize;
        for i in 0..n {
            if i > 0 && leader[i] {
                let id = BlockId(blocks.len() as u32);
                blocks.push(BasicBlock {
                    id,
                    start: start as u32,
                    end: i as u32,
                });
                start = i;
            }
        }
        if n > 0 {
            let id = BlockId(blocks.len() as u32);
            blocks.push(BasicBlock {
                id,
                start: start as u32,
                end: n as u32,
            });
        }
        for b in &blocks {
            for _ in b.range() {
                block_of.push(b.id);
            }
        }
        // Static edges.
        let m = blocks.len();
        let mut succs: Vec<Vec<BlockId>> = vec![Vec::new(); m];
        let mut preds: Vec<Vec<BlockId>> = vec![Vec::new(); m];
        let mut indirect = Vec::new();
        let block_at = |idx: usize| -> Option<BlockId> { block_of.get(idx).copied() };
        for b in &blocks {
            let last = &insts[(b.end - 1) as usize];
            let add = |succ: Option<BlockId>, succs: &mut Vec<Vec<BlockId>>| {
                if let Some(s) = succ {
                    if !succs[b.id.index()].contains(&s) {
                        succs[b.id.index()].push(s);
                    }
                }
            };
            match ControlKind::of(last) {
                ControlKind::Branch {
                    target,
                    falls_through,
                } => {
                    add(block_at(target as usize), &mut succs);
                    if falls_through {
                        add(block_at(b.end as usize), &mut succs);
                    }
                }
                ControlKind::Jump { target } => add(block_at(target as usize), &mut succs),
                ControlKind::Indirect => indirect.push(b.id),
                ControlKind::Halt => {}
                ControlKind::FallThrough => add(block_at(b.end as usize), &mut succs),
            }
        }
        for (i, ss) in succs.iter().enumerate() {
            for s in ss {
                preds[s.index()].push(BlockId(i as u32));
            }
        }
        Cfg {
            blocks,
            block_of,
            succs,
            preds,
            indirect,
        }
    }

    /// Assembles a CFG directly from parts, with **no** consistency
    /// checking against any program.
    ///
    /// This is a fixture-injection API for the static analyzer's test
    /// corpus: it can express deliberately broken graphs (dangling edges,
    /// merged leaders, missing fall-throughs) that `from_program` can
    /// never produce. `block_of` is derived from the block ranges
    /// (in-range instructions only); `preds` is the transpose of `succs`
    /// restricted to in-range targets, so a dangling successor edge has
    /// no predecessor image — exactly the asymmetry the CF002 pass
    /// reports.
    pub fn from_raw_parts(
        blocks: Vec<BasicBlock>,
        mut succs: Vec<Vec<BlockId>>,
        indirect: Vec<BlockId>,
        program_len: usize,
    ) -> Self {
        let m = blocks.len();
        succs.resize(m, Vec::new());
        let mut block_of = vec![BlockId(0); program_len];
        for b in &blocks {
            for i in b.range() {
                if let Some(slot) = block_of.get_mut(i) {
                    *slot = b.id;
                }
            }
        }
        let mut preds: Vec<Vec<BlockId>> = vec![Vec::new(); m];
        for (i, ss) in succs.iter().enumerate() {
            for s in ss {
                if s.index() < m {
                    preds[s.index()].push(BlockId(i as u32));
                }
            }
        }
        Cfg {
            blocks,
            block_of,
            succs,
            preds,
            indirect,
        }
    }

    /// The basic blocks in program order.
    pub fn blocks(&self) -> &[BasicBlock] {
        &self.blocks
    }

    /// The block containing instruction `idx`.
    ///
    /// # Panics
    ///
    /// Panics if `idx` is out of range.
    pub fn block_containing(&self, idx: usize) -> BlockId {
        self.block_of[idx]
    }

    /// Static successor blocks.
    ///
    /// # Panics
    ///
    /// Panics if `b` is out of range.
    pub fn successors(&self, b: BlockId) -> &[BlockId] {
        &self.succs[b.index()]
    }

    /// Static predecessor blocks.
    ///
    /// # Panics
    ///
    /// Panics if `b` is out of range.
    pub fn predecessors(&self, b: BlockId) -> &[BlockId] {
        &self.preds[b.index()]
    }

    /// Blocks terminated by an indirect jump (dynamic successor discovery).
    pub fn indirect_blocks(&self) -> &[BlockId] {
        &self.indirect
    }

    /// Number of blocks (`m` in the paper).
    pub fn len(&self) -> usize {
        self.blocks.len()
    }

    /// Whether the CFG has no blocks (empty programs cannot be assembled).
    pub fn is_empty(&self) -> bool {
        self.blocks.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::asm::assemble;

    #[test]
    fn straight_line_is_one_block() {
        let p = assemble("addi r1, r0, 1\nadd r2, r1, r1\nhalt\n").unwrap();
        let cfg = Cfg::from_program(&p);
        assert_eq!(cfg.len(), 1);
        assert_eq!(cfg.blocks()[0].len(), 3);
        assert!(cfg.successors(BlockId(0)).is_empty());
    }

    #[test]
    fn loop_structure() {
        let p = assemble(
            r"
                addi r1, r0, 3
            loop:
                addi r1, r1, -1
                bne r1, r0, loop
                halt
        ",
        )
        .unwrap();
        let cfg = Cfg::from_program(&p);
        assert_eq!(cfg.len(), 3);
        let loop_b = cfg.block_containing(1);
        assert_eq!(cfg.successors(loop_b), &[loop_b, cfg.block_containing(3)]);
        // Predecessors of the loop block: entry and itself.
        let preds = cfg.predecessors(loop_b);
        assert_eq!(preds.len(), 2);
        assert!(preds.contains(&cfg.block_containing(0)));
        assert!(preds.contains(&loop_b));
    }

    #[test]
    fn block_partition_covers_program_exactly() {
        let p = assemble(
            r"
                addi r1, r0, 10
            a:
                addi r1, r1, -1
                beq r1, r0, b
                bne r1, r0, a
            b:
                st r1, r0, 0
                halt
        ",
        )
        .unwrap();
        let cfg = Cfg::from_program(&p);
        let total: usize = cfg.blocks().iter().map(BasicBlock::len).sum();
        assert_eq!(total, p.len());
        // Blocks are contiguous and ordered.
        let mut next = 0;
        for b in cfg.blocks() {
            assert_eq!(b.start, next);
            next = b.end;
        }
        assert_eq!(next as usize, p.len());
        // Every instruction maps to the block containing it.
        for (i, _) in p.instructions().iter().enumerate() {
            let b = cfg.block_containing(i);
            let blk = cfg.blocks()[b.index()];
            assert!(blk.range().contains(&i));
        }
    }

    #[test]
    fn call_and_return_blocks() {
        let p = assemble(
            r"
            main:
                call fn
                halt
            fn:
                addi r1, r1, 1
                ret
        ",
        )
        .unwrap();
        let cfg = Cfg::from_program(&p);
        // Blocks: [call], [halt], [fn body incl ret].
        assert_eq!(cfg.len(), 3);
        let call_b = cfg.block_containing(0);
        let fn_b = cfg.block_containing(p.text_label("fn").unwrap() as usize);
        assert_eq!(cfg.successors(call_b), &[fn_b]);
        // The return block is indirect: no static successors, flagged.
        assert!(cfg.successors(fn_b).is_empty());
        assert_eq!(cfg.indirect_blocks(), &[fn_b]);
    }

    #[test]
    fn unconditional_pseudo_jump_has_single_successor() {
        let p = assemble(
            r"
                j end
                nop
            end:
                halt
        ",
        )
        .unwrap();
        let cfg = Cfg::from_program(&p);
        let first = cfg.block_containing(0);
        assert_eq!(cfg.successors(first).len(), 1);
        assert_eq!(cfg.successors(first)[0], cfg.block_containing(2));
    }
}
