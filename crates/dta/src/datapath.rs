//! The trained datapath timing model (Section 4, "Datapath DTS
//! Characterization" — the \[2]-style higher-level model).
//!
//! "Estimating DTS of the datapath is much simpler than the control
//! network", so instead of gate-level analysis on every dynamic
//! instruction, the model is *trained once*: Algorithm 1 measures the DTS
//! of data endpoints while the processor runs special instruction sequences
//! and operand values that selectively activate specific timing paths
//! (carry chains of a chosen length, shifts of a chosen amount, multiplier
//! rows of a chosen width), and the results are tabulated per functional
//! unit against the activating feature. At inference time the model is a
//! table lookup + linear interpolation on architecturally visible features —
//! no gate-level work.

use crate::engine::{DtsEngine, EndpointFilter};
use crate::{DtaError, Result};
use rayon::prelude::*;
use std::collections::HashMap;
use terse_isa::{Instruction, Opcode};
use terse_netlist::pipeline::{PipelineNetlist, STAGE_COUNT};
use terse_netlist::ActivityTrace;
use terse_sim::cosim::{CoSim, CoSimTrace, CosimStats};
use terse_sim::features::InstFeatures;
use terse_sim::machine::Retired;
use terse_sta::CanonicalRv;

/// The functional unit an opcode exercises in EX.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum FuncUnit {
    /// Adder/subtractor (also address generation, compares, branches).
    AddSub,
    /// Bitwise logic unit.
    Logic,
    /// Barrel shifter.
    Shift,
    /// Array multiplier.
    Mul,
    /// No datapath activity (nop/halt/jr) — control network only.
    None,
}

/// The functional unit of an opcode.
pub fn unit_of(op: Opcode) -> FuncUnit {
    match op {
        Opcode::Add
        | Opcode::Addi
        | Opcode::Sub
        | Opcode::Slt
        | Opcode::Sltu
        | Opcode::Slti
        | Opcode::Ld
        | Opcode::St
        | Opcode::Beq
        | Opcode::Bne
        | Opcode::Blt
        | Opcode::Bge
        | Opcode::Jal => FuncUnit::AddSub,
        Opcode::And
        | Opcode::Andi
        | Opcode::Or
        | Opcode::Ori
        | Opcode::Xor
        | Opcode::Xori
        | Opcode::Lui => FuncUnit::Logic,
        Opcode::Sll | Opcode::Slli | Opcode::Srl | Opcode::Srli | Opcode::Sra | Opcode::Srai => {
            FuncUnit::Shift
        }
        Opcode::Mul => FuncUnit::Mul,
        Opcode::Nop | Opcode::Halt | Opcode::Jr => FuncUnit::None,
    }
}

/// The primary activating feature the model is trained against, per unit.
pub fn primary_feature(f: &InstFeatures) -> u8 {
    match unit_of(f.opcode) {
        FuncUnit::AddSub => f.carry_chain,
        FuncUnit::Shift => f.shift_amount,
        FuncUnit::Mul => f.mul_width,
        FuncUnit::Logic => f.toggle_a.max(f.toggle_b),
        FuncUnit::None => 0,
    }
}

/// The trained datapath timing model: per (unit, feature level), the
/// statistical DTS of the data endpoints measured by Algorithm 1.
#[derive(Debug, Clone)]
pub struct DatapathModel {
    table: HashMap<FuncUnit, Vec<(u8, CanonicalRv)>>,
}

impl DatapathModel {
    /// Trains the model on a pipeline, measuring data-endpoint DTS while
    /// directed instruction sequences activate each unit at each feature
    /// level.
    ///
    /// # Errors
    ///
    /// Propagates co-simulation and DTA errors.
    pub fn train(pipeline: &PipelineNetlist, engine: &DtsEngine<'_>) -> Result<Self> {
        let mut stats = CosimStats::default();
        Self::train_with(pipeline, engine, &mut stats)
    }

    /// [`DatapathModel::train`], folding the directed-sequence
    /// co-simulation work counters into `stats`.
    ///
    /// The 44 directed sequences (4 units × 11 feature levels) are measured
    /// in parallel on the calling thread's pool; the model, the counters
    /// and the reported error are the same for every thread count.
    ///
    /// # Errors
    ///
    /// Propagates co-simulation and DTA errors.
    pub fn train_with(
        pipeline: &PipelineNetlist,
        engine: &DtsEngine<'_>,
        stats: &mut CosimStats,
    ) -> Result<Self> {
        // One unit per directed sequence, fanned out; measurements come
        // back in (unit, level) order, counters are summed in that order
        // and the lowest-index error wins, whatever the schedule.
        let measured: Vec<(Option<CanonicalRv>, CosimStats)> = (0..TRAINED_UNITS.len()
            * TRAINING_LEVELS.len())
            .into_par_iter()
            .map(|i| {
                let unit = TRAINED_UNITS[i / TRAINING_LEVELS.len()];
                let level = TRAINING_LEVELS[i % TRAINING_LEVELS.len()];
                let (trace, target, stats) = training_trace(pipeline, unit, level)?;
                Ok((
                    engine.inst_dts(&trace, target, EndpointFilter::Data)?,
                    stats,
                ))
            })
            .collect::<Result<_>>()?;
        let mut table: HashMap<FuncUnit, Vec<(u8, CanonicalRv)>> = HashMap::new();
        for (unit, row) in TRAINED_UNITS
            .iter()
            .zip(measured.chunks(TRAINING_LEVELS.len()))
        {
            let mut entries = Vec::new();
            for (&level, (dts, unit_stats)) in TRAINING_LEVELS.iter().zip(row) {
                stats.merge(*unit_stats);
                if let Some(rv) = dts {
                    entries.push((level, rv.clone()));
                }
            }
            if entries.is_empty() {
                return Err(DtaError::MissingCharacterization {
                    key: format!("datapath unit {unit:?}"),
                });
            }
            table.insert(*unit, entries);
        }
        Ok(DatapathModel { table })
    }

    /// The statistical datapath slack of an instruction with the given
    /// features; `None` for units with no datapath activity.
    pub fn slack(&self, f: &InstFeatures) -> Option<CanonicalRv> {
        self.slack_at(unit_of(f.opcode), primary_feature(f))
    }

    /// The statistical datapath slack of `unit` activated at primary
    /// feature `level` (see [`primary_feature`]) — everything
    /// [`DatapathModel::slack`] reads from the features.
    pub fn slack_at(&self, unit: FuncUnit, level: u8) -> Option<CanonicalRv> {
        if unit == FuncUnit::None {
            return None;
        }
        Some(interpolate(self.table.get(&unit)?, level))
    }

    /// Trained feature levels of a unit (for reporting/tests).
    pub fn levels(&self, unit: FuncUnit) -> Vec<u8> {
        self.table
            .get(&unit)
            .map(|v| v.iter().map(|&(l, _)| l).collect())
            .unwrap_or_default()
    }
}

/// Linear interpolation of canonical forms over the trained feature grid.
fn interpolate(entries: &[(u8, CanonicalRv)], x: u8) -> CanonicalRv {
    debug_assert!(!entries.is_empty());
    if x <= entries[0].0 {
        return entries[0].1.clone();
    }
    if x >= entries[entries.len() - 1].0 {
        return entries[entries.len() - 1].1.clone();
    }
    for w in entries.windows(2) {
        let (x0, ref a) = w[0];
        let (x1, ref b) = w[1];
        if x >= x0 && x <= x1 {
            let t = (x - x0) as f64 / (x1 - x0) as f64;
            let mean = a.mean() * (1.0 - t) + b.mean() * t;
            let coeffs: Vec<f64> = a
                .coeffs()
                .iter()
                .zip(b.coeffs())
                .map(|(ca, cb)| ca * (1.0 - t) + cb * t)
                .collect();
            let indep = a.indep() * (1.0 - t) + b.indep() * t;
            return CanonicalRv::with_sensitivities(mean, coeffs, indep);
        }
    }
    entries[entries.len() - 1].1.clone()
}

/// Operand values that activate a unit at a chosen feature level.
fn training_operands(unit: FuncUnit, level: u8) -> (u32, u32) {
    match unit {
        // Carry chain of `level`: level+1 low ones plus +1.
        FuncUnit::AddSub => {
            if level == 0 {
                (0, 0)
            } else {
                let ones = (level as u32 + 1).min(32);
                let a = if ones >= 32 {
                    u32::MAX
                } else {
                    (1u32 << ones) - 1
                };
                (a, 1)
            }
        }
        // Toggle count of `level`: level one-bits against a flushed bus.
        FuncUnit::Logic => {
            let bits = level.min(32) as u32;
            let v = if bits >= 32 {
                u32::MAX
            } else {
                (1u32 << bits) - 1
            };
            (v, v)
        }
        // Shift amount = level.
        FuncUnit::Shift => (u32::MAX, level as u32 & 31),
        // Operand width = level.
        FuncUnit::Mul => {
            let w = level.clamp(1, 32) as u32;
            let v = if w >= 32 { u32::MAX } else { (1u32 << w) - 1 };
            (v, v)
        }
        FuncUnit::None => (0, 0),
    }
}

/// The functional units the model is trained for, in training order.
pub const TRAINED_UNITS: [FuncUnit; 4] = [
    FuncUnit::AddSub,
    FuncUnit::Logic,
    FuncUnit::Shift,
    FuncUnit::Mul,
];

/// The feature levels each unit is trained at. The top carry level is 30,
/// not 31: the 31-chain training vector (`0xFFFFFFFF + 1`) wraps to zero,
/// so none of its sum bits toggle and the measurement misses the
/// data-endpoint path entirely. Features above 30 clamp to the level-30
/// entry.
pub const TRAINING_LEVELS: [u8; 11] = [0, 2, 4, 6, 8, 12, 16, 20, 24, 28, 30];

/// The directed training sequence of `unit` at feature `level`: `nop*; op;
/// nop*` co-simulated with the level's operands. Returns the trace, the
/// position of the target instruction in it, and the co-simulation
/// counters.
///
/// # Errors
///
/// Propagates co-simulation errors; [`DtaError::MissingCharacterization`]
/// for [`FuncUnit::None`], which has no training sequence.
pub fn training_trace(
    pipeline: &PipelineNetlist,
    unit: FuncUnit,
    level: u8,
) -> Result<(CoSimTrace, usize, CosimStats)> {
    let opcode = match unit {
        FuncUnit::AddSub => Opcode::Add,
        FuncUnit::Logic => Opcode::Xor,
        FuncUnit::Shift => Opcode::Srl,
        FuncUnit::Mul => Opcode::Mul,
        FuncUnit::None => {
            return Err(DtaError::MissingCharacterization {
                key: "datapath training sequence for FuncUnit::None".into(),
            })
        }
    };
    let target = Instruction::rtype(opcode, 3, 1, 2);
    let (a, b) = training_operands(unit, level);
    let mut stream: Vec<Retired> = Vec::new();
    let mk_nop = |idx: u32| Retired {
        index: idx,
        inst: Instruction::nop(),
        rs1_val: 0,
        rs2_val: 0,
        result: 0,
        mem_addr: None,
        loaded: None,
        taken: None,
        next_pc: idx + 1,
    };
    for i in 0..3u32 {
        stream.push(mk_nop(i));
    }
    let target_pos = stream.len();
    stream.push(Retired {
        index: 3,
        inst: target,
        rs1_val: a,
        rs2_val: b,
        result: a.wrapping_add(b),
        mem_addr: None,
        loaded: None,
        taken: None,
        next_pc: 4,
    });
    for i in 4..6u32 {
        stream.push(mk_nop(i));
    }
    let mut cosim = CoSim::new(pipeline);
    let mut activity = ActivityTrace::new(pipeline.netlist().gate_count());
    let mut fed = Vec::new();
    for r in &stream {
        fed.push(Some(r.index));
        activity.push(cosim.feed(Some(*r))?);
    }
    for _ in 0..STAGE_COUNT {
        fed.push(None);
        activity.push(cosim.feed(None)?);
    }
    let mut stats = CosimStats::default();
    stats.absorb(&cosim);
    let trace = CoSimTrace {
        activity,
        fed,
        retired: stream,
    };
    Ok((trace, target_pos, stats))
}

#[cfg(test)]
mod tests {
    use super::*;
    use terse_netlist::pipeline::PipelineConfig;
    use terse_sta::analysis::Sta;
    use terse_sta::delay::{DelayLibrary, TimingConstraints};
    use terse_sta::variation::VariationConfig;

    fn setup() -> (PipelineNetlist, f64) {
        let p = PipelineNetlist::build(PipelineConfig::default()).unwrap();
        let lib = DelayLibrary::normalized_45nm();
        let sta = Sta::new(p.netlist(), &lib);
        let t = sta.min_period() / 1.15;
        (p, t)
    }

    fn engine(p: &PipelineNetlist, t: f64) -> DtsEngine<'_> {
        DtsEngine::new(
            p.netlist(),
            DelayLibrary::normalized_45nm(),
            VariationConfig::default(),
            TimingConstraints::with_period(t),
        )
        .unwrap()
    }

    fn features(op: Opcode, carry: u8, shift: u8, mul: u8, tog: u8) -> InstFeatures {
        InstFeatures {
            opcode: op,
            carry_chain: carry,
            shift_amount: shift,
            mul_width: mul,
            toggle_a: tog,
            toggle_b: tog,
        }
    }

    #[test]
    fn unit_classification() {
        assert_eq!(unit_of(Opcode::Add), FuncUnit::AddSub);
        assert_eq!(unit_of(Opcode::Beq), FuncUnit::AddSub);
        assert_eq!(unit_of(Opcode::Xori), FuncUnit::Logic);
        assert_eq!(unit_of(Opcode::Srai), FuncUnit::Shift);
        assert_eq!(unit_of(Opcode::Mul), FuncUnit::Mul);
        assert_eq!(unit_of(Opcode::Nop), FuncUnit::None);
    }

    #[test]
    fn trained_model_is_monotone_in_carry_chain() {
        let (p, t) = setup();
        let eng = engine(&p, t);
        let model = DatapathModel::train(&p, &eng).unwrap();
        let s0 = model
            .slack(&features(Opcode::Add, 0, 0, 0, 1))
            .unwrap()
            .mean();
        let s31 = model
            .slack(&features(Opcode::Add, 31, 0, 0, 32))
            .unwrap()
            .mean();
        assert!(
            s31 < s0,
            "long carry must be tighter: slack(31)={s31} slack(0)={s0}"
        );
    }

    #[test]
    fn mul_table_is_measured_and_bracketing() {
        // Note: the *activated* multiplier path is not monotone in operand
        // width — toggle-based activation breaks chains wherever a gate's
        // output happens not to change (the low product of MAX×MAX is 1, so
        // all-ones operands cancel massively). That value dependence is
        // precisely the DTS effect the paper exploits; the trained table
        // simply reproduces the measurements. Check structural properties:
        // valid entries, and interpolation bracketed by its neighbors.
        let (p, t) = setup();
        let eng = engine(&p, t);
        let model = DatapathModel::train(&p, &eng).unwrap();
        let levels = model.levels(FuncUnit::Mul);
        assert!(levels.len() >= 3, "levels = {levels:?}");
        for w in levels.windows(2) {
            let (l0, l1) = (w[0], w[1]);
            let mid = l0 + (l1 - l0) / 2;
            let s0 = model
                .slack(&features(Opcode::Mul, 0, 0, l0, l0))
                .unwrap()
                .mean();
            let s1 = model
                .slack(&features(Opcode::Mul, 0, 0, l1, l1))
                .unwrap()
                .mean();
            let sm = model
                .slack(&features(Opcode::Mul, 0, 0, mid, mid))
                .unwrap()
                .mean();
            assert!(
                sm >= s0.min(s1) - 1e-9 && sm <= s0.max(s1) + 1e-9,
                "interp at {mid} = {sm} outside [{s0}, {s1}]"
            );
        }
    }

    #[test]
    fn no_datapath_unit_returns_none() {
        let (p, t) = setup();
        let eng = engine(&p, t);
        let model = DatapathModel::train(&p, &eng).unwrap();
        assert!(model.slack(&features(Opcode::Nop, 0, 0, 0, 0)).is_none());
        assert!(model.slack(&features(Opcode::Jr, 0, 0, 0, 0)).is_none());
    }

    #[test]
    fn interpolation_between_levels() {
        let (p, t) = setup();
        let eng = engine(&p, t);
        let model = DatapathModel::train(&p, &eng).unwrap();
        let lo = model.slack(&features(Opcode::Add, 8, 0, 0, 9)).unwrap();
        let mid = model.slack(&features(Opcode::Add, 10, 0, 0, 11)).unwrap();
        let hi = model.slack(&features(Opcode::Add, 12, 0, 0, 13)).unwrap();
        // 10 lies between the trained levels 8 and 12.
        assert!(mid.mean() <= lo.mean() + 1e-9);
        assert!(mid.mean() >= hi.mean() - 1e-9);
        assert_eq!(model.levels(FuncUnit::AddSub).first(), Some(&0));
    }
}
