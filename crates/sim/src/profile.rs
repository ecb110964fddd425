//! Execution profiling: block execution counts, edge activations, and
//! per-instruction feature samples.
//!
//! This is the "Datapath Activity Characterization" of the paper's Section 4
//! (there implemented as LLVM instrumentation of native binaries; here as
//! direct collection during architectural simulation — the same quantities
//! are produced):
//!
//! * `e_i` — executions of each basic block (Section 5's weights);
//! * edge activation counts — the `p^a` numerators of Eq. 2;
//! * per static instruction, reservoir-sampled feature vectors in both
//!   previous-state variants (normal vs post-correction), from which the
//!   datapath timing model later derives the `p^c` / `p^e` conditional
//!   error probabilities.

use crate::features::{extract, BusState, InstFeatures};
use crate::machine::Machine;
use crate::Result;
use std::collections::HashMap;
use terse_isa::{BlockId, Cfg, Program};
use terse_stats::rng::Xoshiro256;

/// Profiling configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Profiler {
    /// Maximum feature samples retained per static instruction (reservoir).
    pub max_feature_samples: usize,
    /// Dynamic instruction budget per run.
    pub budget: u64,
    /// Data memory size in words.
    pub dmem_words: usize,
    /// Reservoir-sampling seed.
    pub seed: u64,
}

impl Default for Profiler {
    fn default() -> Self {
        Profiler {
            max_feature_samples: 64,
            budget: 50_000_000,
            dmem_words: 1 << 16,
            seed: 0x5EED,
        }
    }
}

/// The result of profiling one program run.
#[derive(Debug, Clone, PartialEq)]
pub struct ProfileResult {
    /// Executions of each basic block (`e_i`).
    pub block_counts: Vec<u64>,
    /// Dynamic edge traversal counts, including edges of indirect jumps
    /// discovered at run time.
    pub edge_counts: HashMap<(BlockId, BlockId), u64>,
    /// Total retired instructions.
    pub total_instructions: u64,
    /// Per static instruction: sampled features under normal previous
    /// state (the `p^c` variant).
    pub features_normal: Vec<Vec<InstFeatures>>,
    /// Per static instruction: sampled features relative to the corrected
    /// (flushed) previous state (the `p^e` variant).
    pub features_corrected: Vec<Vec<InstFeatures>>,
    /// Per static instruction: a representative `(rs1, rs2)` operand value
    /// pair (first dynamic occurrence) — the control-characterization hint.
    pub operand_reps: Vec<Option<(u32, u32)>>,
}

impl Profiler {
    /// Profiles one run of `program` (with `init` applied to the machine
    /// before execution — the input-dataset hook).
    ///
    /// # Errors
    ///
    /// Propagates machine errors ([`crate::SimError`]).
    pub fn profile(
        &self,
        program: &Program,
        cfg: &Cfg,
        init: impl FnOnce(&mut Machine),
    ) -> Result<ProfileResult> {
        failpoints::fail_point!("sim::profile", |_| Err(
            crate::SimError::InstructionBudgetExhausted { budget: 0 }
        ));
        let n_static = program.len();
        let mut machine = Machine::new(program, self.dmem_words);
        init(&mut machine);
        let mut block_counts = vec![0u64; cfg.len()];
        let mut edge_counts: HashMap<(BlockId, BlockId), u64> = HashMap::new();
        let mut features_normal: Vec<Vec<InstFeatures>> = vec![Vec::new(); n_static];
        let mut features_corrected: Vec<Vec<InstFeatures>> = vec![Vec::new(); n_static];
        let mut operand_reps: Vec<Option<(u32, u32)>> = vec![None; n_static];
        let mut seen: Vec<u64> = vec![0; n_static];
        let mut rng = Xoshiro256::seed_from_u64(self.seed);
        let mut bus = BusState::flushed();
        let mut prev_block: Option<BlockId> = None;
        let mut total = 0u64;
        while !machine.halted() {
            if total >= self.budget {
                return Err(crate::SimError::InstructionBudgetExhausted {
                    budget: self.budget,
                });
            }
            let r = machine.step(program)?;
            total += 1;
            let idx = r.index as usize;
            let block = cfg.block_containing(idx);
            if idx == cfg.blocks()[block.index()].start as usize {
                block_counts[block.index()] += 1;
                if let Some(pb) = prev_block {
                    *edge_counts.entry((pb, block)).or_insert(0) += 1;
                }
            }
            prev_block = Some(block);
            if operand_reps[idx].is_none() {
                operand_reps[idx] = Some((r.rs1_val, r.rs2_val));
            }
            // Reservoir-sample features (both previous-state variants from
            // the same dynamic instance, so they stay paired).
            let fn_ = extract(&r, bus);
            let fc = extract(&r, BusState::flushed());
            seen[idx] += 1;
            let k = self.max_feature_samples;
            if features_normal[idx].len() < k {
                features_normal[idx].push(fn_);
                features_corrected[idx].push(fc);
            } else {
                let j = rng.next_below(seen[idx]) as usize;
                if j < k {
                    features_normal[idx][j] = fn_;
                    features_corrected[idx][j] = fc;
                }
            }
            bus.advance(&r);
        }
        Ok(ProfileResult {
            block_counts,
            edge_counts,
            total_instructions: total,
            features_normal,
            features_corrected,
            operand_reps,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use terse_isa::assemble;

    fn loop_program() -> (Program, Cfg) {
        let p = assemble(
            r"
                addi r1, r0, 10      # B0
            loop:
                addi r1, r1, -1      # B1
                bne  r1, r0, loop
                halt                 # B2
        ",
        )
        .unwrap();
        let cfg = Cfg::from_program(&p);
        (p, cfg)
    }

    #[test]
    fn block_counts_match_execution() {
        let (p, cfg) = loop_program();
        let prof = Profiler::default().profile(&p, &cfg, |_| {}).unwrap();
        assert_eq!(prof.block_counts, vec![1, 10, 1]);
        assert_eq!(prof.total_instructions, 1 + 20 + 1);
    }

    #[test]
    fn edge_counts_match_execution() {
        let (p, cfg) = loop_program();
        let prof = Profiler::default().profile(&p, &cfg, |_| {}).unwrap();
        let b1 = cfg.block_containing(1);
        let b0 = cfg.block_containing(0);
        let b2 = cfg.block_containing(3);
        assert_eq!(prof.edge_counts[&(b0, b1)], 1);
        assert_eq!(prof.edge_counts[&(b1, b1)], 9);
        assert_eq!(prof.edge_counts[&(b1, b2)], 1);
    }

    #[test]
    fn edge_conservation_property() {
        // Σ incoming edge counts of b = executions of b (minus 1 for the
        // entry block's initial entry).
        let (p, cfg) = loop_program();
        let prof = Profiler::default().profile(&p, &cfg, |_| {}).unwrap();
        for b in cfg.blocks() {
            let incoming: u64 = prof
                .edge_counts
                .iter()
                .filter(|((_, to), _)| *to == b.id)
                .map(|(_, &c)| c)
                .sum();
            let expected =
                prof.block_counts[b.id.index()] - u64::from(b.id == cfg.block_containing(0));
            assert_eq!(incoming, expected, "block {}", b.id);
        }
    }

    #[test]
    fn features_are_paired_and_capped() {
        let (p, cfg) = loop_program();
        let prof = Profiler {
            max_feature_samples: 4,
            ..Profiler::default()
        }
        .profile(&p, &cfg, |_| {})
        .unwrap();
        // The loop body addi executes 10 times but keeps ≤ 4 samples.
        assert!(prof.features_normal[1].len() <= 4);
        assert_eq!(
            prof.features_normal[1].len(),
            prof.features_corrected[1].len()
        );
        // Corrected-state features always measure toggles against zero.
        for f in &prof.features_corrected[1] {
            assert!(f.toggle_a <= 32);
        }
    }

    #[test]
    fn init_hook_changes_execution() {
        let p = assemble(
            r"
                ld r1, r0, 0
            loop:
                addi r1, r1, -1
                bne r1, r0, loop
                halt
        ",
        )
        .unwrap();
        let cfg = Cfg::from_program(&p);
        let prof3 = Profiler::default()
            .profile(&p, &cfg, |m| m.store(0, 3).unwrap())
            .unwrap();
        let prof7 = Profiler::default()
            .profile(&p, &cfg, |m| m.store(0, 7).unwrap())
            .unwrap();
        let b1 = cfg.block_containing(1).index();
        assert_eq!(prof3.block_counts[b1], 3);
        assert_eq!(prof7.block_counts[b1], 7);
    }
}
