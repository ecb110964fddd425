//! The assembled instruction error model (Section 4.1).
//!
//! An instruction's dynamic timing slack is the statistical minimum of its
//! control-network slack (tabulated per block × incoming edge by
//! [`crate::control`]) and its datapath slack (evaluated from features by
//! [`crate::datapath`]). With process variation the slack is a Gaussian in
//! canonical form, so the instruction's *error probability* is
//! `Pr(DTS < 0)` — unconditionally for the analytic pipeline, or
//! conditioned on a manufactured chip's shared variation draw for the Monte
//! Carlo baseline.

use crate::control::ControlDtsTable;
use crate::datapath::{primary_feature, unit_of, DatapathModel, FuncUnit};
use terse_isa::{BlockId, Cfg};
use terse_sim::features::InstFeatures;
use terse_sim::monte_carlo::InstErrorModel;
use terse_sta::statmin::statistical_min;
use terse_sta::CanonicalRv;

/// Everything a dynamic instance's slack depends on: the static
/// instruction, the resolved entered-block edge, and the functional unit
/// with its primary activating feature level. The key space is bounded by
/// the static program, not by trace length.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SlackKey {
    index: u32,
    edge: Option<BlockId>,
    unit: FuncUnit,
    level: u8,
}

/// The per-program instruction error model.
#[derive(Debug, Clone)]
pub struct InstructionErrorModel {
    control: ControlDtsTable,
    datapath: DatapathModel,
    /// Block id of each static instruction.
    block_of: Vec<BlockId>,
    /// Block start index of each static instruction's block.
    block_start: Vec<u32>,
}

impl InstructionErrorModel {
    /// Assembles the model from its two characterized halves.
    pub fn new(cfg: &Cfg, control: ControlDtsTable, datapath: DatapathModel) -> Self {
        let mut block_of = Vec::new();
        let mut block_start = Vec::new();
        for b in cfg.blocks() {
            for _ in b.range() {
                block_of.push(b.id);
                block_start.push(b.start);
            }
        }
        InstructionErrorModel {
            control,
            datapath,
            block_of,
            block_start,
        }
    }

    /// The control table.
    pub fn control(&self) -> &ControlDtsTable {
        &self.control
    }

    /// The datapath model.
    pub fn datapath(&self) -> &DatapathModel {
        &self.datapath
    }

    /// The block containing a static instruction.
    pub fn block_of(&self, index: u32) -> BlockId {
        self.block_of[index as usize]
    }

    /// The statistical DTS of a dynamic instance of instruction `index`,
    /// entered-block edge `edge` (predecessor block; `None` = program
    /// entry), with datapath features `f`. Returns `None` when neither the
    /// control table nor the datapath model covers the instruction (an
    /// instruction with no timing exposure).
    pub fn slack_rv(
        &self,
        edge: Option<BlockId>,
        index: u32,
        f: &InstFeatures,
    ) -> Option<CanonicalRv> {
        self.slack_at(edge, index, unit_of(f.opcode), primary_feature(f))
    }

    /// [`InstructionErrorModel::slack_rv`] with the features reduced to
    /// the datapath unit and its primary feature level.
    fn slack_at(
        &self,
        edge: Option<BlockId>,
        index: u32,
        unit: FuncUnit,
        level: u8,
    ) -> Option<CanonicalRv> {
        let block = self.block_of[index as usize];
        let k = (index - self.block_start[index as usize]) as usize;
        let mut slacks: Vec<CanonicalRv> = Vec::with_capacity(2);
        if let Some(ctl) = self
            .control
            .get_or_any(block, edge)
            .and_then(|v| v.get(k))
            .and_then(|o| o.as_ref())
        {
            slacks.push(ctl.clone());
        }
        if let Some(dp) = self.datapath.slack_at(unit, level) {
            slacks.push(dp);
        }
        if slacks.is_empty() {
            return None;
        }
        statistical_min(&slacks).ok()
    }

    /// The entered-block edge of a dynamic instance: when the previous
    /// retired instruction was in a different block (or this instruction
    /// starts its block), the edge's tail; otherwise `None`, and the model
    /// falls back to any characterized context for the block.
    fn entered_edge(&self, prev_index: Option<u32>, index: u32) -> Option<BlockId> {
        prev_index.map(|p| self.block_of[p as usize]).filter(|&pb| {
            pb != self.block_of[index as usize] || self.block_start[index as usize] == index
        })
    }

    /// Unconditional error probability (over process variation) of a
    /// dynamic instance — the paper's Section 4.1 quantity whose
    /// distribution over inputs forms `p^c` / `p^e`.
    pub fn error_probability_rv(&self, edge: Option<BlockId>, index: u32, f: &InstFeatures) -> f64 {
        self.slack_rv(edge, index, f)
            .map(|s| s.prob_negative())
            .unwrap_or(0.0)
    }
}

/// The Monte Carlo engine's view: a query's slack is resolved from its
/// [`SlackKey`], and the chip-conditional and marginal probabilities are
/// the trait's provided methods over that slack.
impl InstErrorModel for InstructionErrorModel {
    type SlackKey = SlackKey;

    fn slack_key(&self, prev_index: Option<u32>, index: u32, features: &InstFeatures) -> SlackKey {
        SlackKey {
            index,
            edge: self.entered_edge(prev_index, index),
            unit: unit_of(features.opcode),
            level: primary_feature(features),
        }
    }

    fn slack(&self, key: SlackKey) -> Option<CanonicalRv> {
        self.slack_at(key.edge, key.index, key.unit, key.level)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::control::{characterization_edges, characterize_control};
    use crate::engine::DtsEngine;
    use terse_isa::{assemble, Cfg, Opcode};
    use terse_netlist::pipeline::{PipelineConfig, PipelineNetlist};
    use terse_sta::analysis::Sta;
    use terse_sta::delay::{DelayLibrary, TimingConstraints};
    use terse_sta::variation::VariationConfig;
    use terse_stats::rng::Xoshiro256;

    fn build_model() -> (InstructionErrorModel, Cfg, PipelineNetlist, f64) {
        let p = PipelineNetlist::build(PipelineConfig::default()).unwrap();
        let prog = assemble(
            r"
                addi r1, r0, 4
            loop:
                add  r2, r2, r1
                addi r1, r1, -1
                bne  r1, r0, loop
                halt
        ",
        )
        .unwrap();
        let cfg = Cfg::from_program(&prog);
        let lib = DelayLibrary::normalized_45nm();
        let sta = Sta::new(p.netlist(), &lib);
        let t = sta.min_period() / 1.15;
        let eng = DtsEngine::new(
            p.netlist(),
            lib,
            VariationConfig::default(),
            TimingConstraints::with_period(t),
        )
        .unwrap();
        let b0 = cfg.block_containing(0);
        let b1 = cfg.block_containing(1);
        let b2 = cfg.block_containing(4);
        let edges = characterization_edges(&cfg, vec![(b0, b1), (b1, b1), (b1, b2)]);
        let control = characterize_control(&p, &prog, &cfg, &eng, &edges, &|_| (3, 1)).unwrap();
        let datapath = DatapathModel::train(&p, &eng).unwrap();
        let model = InstructionErrorModel::new(&cfg, control, datapath);
        (model, cfg, p, t)
    }

    fn feat(op: Opcode, carry: u8) -> InstFeatures {
        InstFeatures {
            opcode: op,
            carry_chain: carry,
            shift_amount: 0,
            mul_width: 0,
            toggle_a: carry,
            toggle_b: 1,
        }
    }

    #[test]
    fn slack_combines_control_and_datapath() {
        let (model, cfg, _p, _t) = build_model();
        let b1 = cfg.block_containing(1);
        // Instruction 1 is the add at the top of the loop.
        let s = model
            .slack_rv(Some(b1), 1, &feat(Opcode::Add, 8))
            .expect("covered");
        // The combined slack is ≤ the datapath slack alone (stat-min).
        let dp = model.datapath().slack(&feat(Opcode::Add, 8)).unwrap();
        assert!(s.mean() <= dp.mean() + 1e-9);
        assert_eq!(model.block_of(1), b1);
    }

    #[test]
    fn longer_carry_is_riskier() {
        let (model, cfg, _p, _t) = build_model();
        let b1 = cfg.block_containing(1);
        let p_short = model.error_probability_rv(Some(b1), 1, &feat(Opcode::Add, 0));
        let p_long = model.error_probability_rv(Some(b1), 1, &feat(Opcode::Add, 31));
        assert!(
            p_long >= p_short,
            "p(31)={p_long} should be >= p(0)={p_short}"
        );
    }

    #[test]
    fn chip_conditional_probability_varies_by_chip() {
        let (model, cfg, p, t) = build_model();
        let _ = (cfg, t);
        let lib = DelayLibrary::normalized_45nm();
        let vm = terse_sta::variation::VariationModel::new(
            p.netlist(),
            &lib,
            VariationConfig::default(),
        )
        .unwrap();
        let mut rng = Xoshiro256::seed_from_u64(42);
        // Find a feature point near the error crossover (unconditional
        // probability away from 0 and 1) — chip-to-chip spread is largest
        // there. Scan carries and multiplier widths.
        let candidates: Vec<InstFeatures> = (0u8..=31)
            .map(|c| feat(Opcode::Add, c))
            .chain((1u8..=31).map(|w| InstFeatures {
                opcode: Opcode::Mul,
                carry_chain: 0,
                shift_amount: 0,
                mul_width: w,
                toggle_a: w,
                toggle_b: w,
            }))
            .collect();
        let edge = Some(model.block_of(0));
        let f = candidates
            .iter()
            .max_by(|a, b| {
                let pa = model.error_probability_rv(edge, 1, a);
                let pb = model.error_probability_rv(edge, 1, b);
                let score = |p: f64| p.min(1.0 - p);
                score(pa).total_cmp(&score(pb))
            })
            .copied()
            .expect("non-empty candidate set");
        let uncond = model.error_probability_rv(edge, 1, &f);
        let probs: Vec<f64> = (0..64)
            .map(|_| {
                let chip = vm.sample_chip(&mut rng);
                model.error_probability(Some(0), 1, &f, &chip)
            })
            .collect();
        assert!(probs.iter().all(|&p| (0.0..=1.0).contains(&p)));
        let avg = probs.iter().sum::<f64>() / probs.len() as f64;
        // The chip-average must track the unconditional probability.
        assert!((avg - uncond).abs() < 0.15, "avg {avg} vs uncond {uncond}");
        if uncond > 0.02 && uncond < 0.98 {
            // Near the crossover, chips must disagree.
            let min = probs.iter().copied().fold(f64::INFINITY, f64::min);
            let max = probs.iter().copied().fold(0.0f64, f64::max);
            assert!(max > min, "probs should vary across chips: {probs:?}");
        }
    }

    /// A model of a kernel that exercises every datapath unit over several
    /// blocks, characterized on every CFG edge.
    fn kernel_model() -> (InstructionErrorModel, terse_isa::Program) {
        let p = PipelineNetlist::build(PipelineConfig::default()).unwrap();
        let prog = assemble(
            r"
                li   r5, 0x00FF00FF
                addi r1, r0, 9
            outer:
                add  r2, r2, r1
                xor  r3, r2, r5
                srl  r4, r3, r1
                andi r7, r1, 1
                beq  r7, r0, even
                mul  r6, r4, r1
            even:
                sub  r2, r2, r6
                addi r1, r1, -1
                bne  r1, r0, outer
                halt
        ",
        )
        .unwrap();
        let cfg = Cfg::from_program(&prog);
        let lib = DelayLibrary::normalized_45nm();
        let t = Sta::new(p.netlist(), &lib).min_period() / 1.15;
        let eng = DtsEngine::new(
            p.netlist(),
            lib,
            VariationConfig::default(),
            TimingConstraints::with_period(t),
        )
        .unwrap();
        let profiled: Vec<(BlockId, BlockId)> = cfg
            .blocks()
            .iter()
            .flat_map(|b| cfg.successors(b.id).iter().map(move |&s| (b.id, s)))
            .collect();
        let edges = characterization_edges(&cfg, profiled);
        let control = characterize_control(&p, &prog, &cfg, &eng, &edges, &|_| (3, 1)).unwrap();
        let datapath = DatapathModel::train(&p, &eng).unwrap();
        let model = InstructionErrorModel::new(&cfg, control, datapath);
        (model, prog)
    }

    fn bits(s: Option<&CanonicalRv>) -> Option<(u64, u64, Vec<u64>)> {
        s.map(|s| {
            let coeffs = s.coeffs().iter().map(|c| c.to_bits()).collect();
            (s.mean().to_bits(), s.indep().to_bits(), coeffs)
        })
    }

    #[test]
    fn slack_keys_resolve_to_slack_rv_bitwise() {
        use std::collections::HashSet;
        use terse_sim::features::{extract, BusState};
        use terse_sim::machine::Machine;
        let (model, prog) = kernel_model();
        let mut machine = Machine::new(&prog, 64);
        // Every query the Monte Carlo grid can make: both the normal bus
        // and the post-error (flushed) bus at every retired instruction.
        let mut bus = BusState::flushed();
        let mut prev: Option<u32> = None;
        let (mut queries, mut keys) = (HashSet::new(), HashSet::new());
        let mut exposed = 0usize;
        while !machine.halted() {
            let r = machine.step(&prog).unwrap();
            for b in [bus, BusState::flushed()] {
                let f = extract(&r, b);
                // The edge rule written out independently of the model: a
                // block is entered from the previous instruction's block
                // when that is another block, or when this instruction
                // starts its block (a self-loop back edge).
                let here = model.block_of(r.index);
                let starts_block = r.index == 0 || model.block_of(r.index - 1) != here;
                let edge = prev
                    .map(|p| model.block_of(p))
                    .filter(|&pb| pb != here || starts_block);
                let want = model.slack_rv(edge, r.index, &f);
                let key = model.slack_key(prev, r.index, &f);
                let got = model.slack(key);
                assert_eq!(
                    bits(got.as_ref()),
                    bits(want.as_ref()),
                    "index {} prev {prev:?} features {f:?}",
                    r.index
                );
                exposed += usize::from(got.is_some());
                queries.insert((prev, r.index, f));
                keys.insert(key);
            }
            prev = Some(r.index);
            bus.advance(&r);
        }
        assert!(exposed > 0, "the kernel must have timing exposure");
        // Toggle counts and carry lengths the datapath table does not read
        // collapse: the key space is coarser than the query space.
        assert!(
            keys.len() < queries.len(),
            "{} keys vs {} queries",
            keys.len(),
            queries.len()
        );
    }

    #[test]
    fn uncovered_instruction_is_error_free() {
        let (model, cfg, _p, _t) = build_model();
        // The halt (no datapath unit, control covered though) — if control
        // has a slot it may still be Some; exercise the API contract only.
        let b2 = cfg.block_containing(4);
        let p =
            model.error_probability_rv(Some(cfg.block_containing(1)), 4, &feat(Opcode::Halt, 0));
        assert!((0.0..=1.0).contains(&p));
        let _ = b2;
    }
}
