//! The pre-screen's two references: the unpruned answer and the
//! certificate check.
//!
//! `Framework::train_model` always attaches the workload's `PrunePlan` to
//! its engine, so every `(instruction, stage)` pair the plan proves immune
//! is skipped and left out of the instruction-DTS statistical min. Neither
//! reference shares that shortcut:
//!
//! * [`unpruned_model`] — the same training through `terse-dta` with no
//!   plan attached: every pair is computed and enters the min. Pruning is
//!   exact where it matters when λ from the two models agrees bitwise.
//! * [`CertificateCheck`] — Algorithm 2 the obvious way: compute *every*
//!   stage's DTS with a plan-free engine, assert that each stage the plan
//!   proves immune sits at least `k_sigma − 2` standard deviations above
//!   zero, and leave it out of the min. [`check_training`] runs it over
//!   every trace training builds (control edges and datapath directed
//!   sequences), so it recomputes every pair pruned training skips, and
//!   its slacks and pair counts must equal pruned training's bit for bit.

use std::fmt;
use terse::{Framework, TerseError, Workload};
use terse_dta::control::{characterize_control, edge_trace, training_inputs, ControlEdge};
use terse_dta::datapath::{training_trace, TRAINED_UNITS, TRAINING_LEVELS};
use terse_dta::{
    DatapathModel, DtaError, DtsEngine, EndpointFilter, InstructionErrorModel, OperandHint,
    PrescreenStats, PrunePlan,
};
use terse_isa::{Cfg, Program};
use terse_netlist::pipeline::PipelineNetlist;
use terse_sim::cosim::CoSimTrace;
use terse_sim::profile::ProfileResult;
use terse_sta::statmin::statistical_min;
use terse_sta::CanonicalRv;

/// Why a certificate check stopped.
#[derive(Debug)]
pub enum CheckError {
    /// A pair the plan proves immune computed a slack less than
    /// `k_sigma − 2` standard deviations above zero: the certificate is
    /// unsound.
    Violation {
        /// Pipeline stage of the pair.
        stage: usize,
        /// Program instruction index, if the trace was program-tagged.
        index: Option<u32>,
        /// Computed slack mean.
        mean: f64,
        /// Computed slack standard deviation.
        sd: f64,
    },
    /// The engine failed.
    Dta(DtaError),
    /// The framework could not build the plan or the engine.
    Framework(TerseError),
}

impl fmt::Display for CheckError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CheckError::Violation {
                stage,
                index,
                mean,
                sd,
            } => write!(
                f,
                "certificate violation at stage {stage} (instruction {index:?}): \
                 slack mean {mean} sd {sd}"
            ),
            CheckError::Dta(e) => write!(f, "{e}"),
            CheckError::Framework(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for CheckError {}

impl From<DtaError> for CheckError {
    fn from(e: DtaError) -> Self {
        CheckError::Dta(e)
    }
}

impl From<TerseError> for CheckError {
    fn from(e: TerseError) -> Self {
        CheckError::Framework(e)
    }
}

/// The certificate checker over one plan-free engine, with the pair counts
/// of every instruction checked so far.
pub struct CertificateCheck<'a, 'n> {
    engine: &'a DtsEngine<'n>,
    plan: &'a PrunePlan,
    stats: PrescreenStats,
}

impl<'a, 'n> CertificateCheck<'a, 'n> {
    /// A checker of `plan`'s certificates. `engine` must have no plan
    /// attached, so every stage it is asked for is computed.
    pub fn new(engine: &'a DtsEngine<'n>, plan: &'a PrunePlan) -> Self {
        assert!(
            engine.prune_plan().is_none(),
            "the certificate check needs a plan-free engine"
        );
        CertificateCheck {
            engine,
            plan,
            stats: PrescreenStats::default(),
        }
    }

    /// Pairs consulted and pairs proven immune so far — the counters a
    /// pruned engine records over the same instructions.
    pub fn stats(&self) -> PrescreenStats {
        self.stats
    }

    /// The instruction DTS pruned Algorithm 2 must return for the
    /// instruction fed at cycle `k`: every stage is computed; a stage the
    /// plan proves immune must clear its certificate and is left out of
    /// the statistical min. A plan whose certificates do not cover the
    /// engine's clock proves nothing, and nothing is counted.
    ///
    /// # Errors
    ///
    /// [`CheckError::Violation`] for an immune stage whose slack
    /// contradicts the certificate; engine errors otherwise.
    pub fn inst_dts(
        &mut self,
        trace: &CoSimTrace,
        k: usize,
        filter: EndpointFilter,
        program_index: Option<u32>,
    ) -> Result<Option<CanonicalRv>, CheckError> {
        let applies = self.plan.applies_at(self.engine.clock_period());
        let mut kept = Vec::new();
        for s in 0..self.engine.netlist().stage_count() {
            if k + s >= trace.activity.len() {
                break;
            }
            let dts = self
                .engine
                .stage_dts(s, trace.activity.cycle(k + s), filter)?;
            let immune = applies && self.plan.immune(s, filter, program_index);
            if applies {
                self.stats.pairs_total += 1;
                self.stats.pairs_pruned += u64::from(immune);
            }
            match dts {
                Some(dts) if immune => {
                    let sd = dts.variance().max(0.0).sqrt();
                    if dts.mean() - (self.plan.k_sigma() - 2.0) * sd < 0.0 {
                        return Err(CheckError::Violation {
                            stage: s,
                            index: program_index,
                            mean: dts.mean(),
                            sd,
                        });
                    }
                }
                Some(dts) => kept.push(dts),
                None => {}
            }
        }
        if kept.is_empty() {
            return Ok(None);
        }
        Ok(Some(statistical_min(&kept).map_err(DtaError::from)?))
    }

    /// Control characterization, checked: per edge (in `edges` order), the
    /// control DTS of every block instruction on the edge's
    /// characterization trace.
    ///
    /// # Errors
    ///
    /// As [`CertificateCheck::inst_dts`], plus co-simulation errors.
    pub fn control(
        &mut self,
        pipeline: &PipelineNetlist,
        program: &Program,
        cfg: &Cfg,
        edges: &[ControlEdge],
        operand_hint: &OperandHint,
    ) -> Result<Vec<Vec<Option<CanonicalRv>>>, CheckError> {
        let mut table = Vec::with_capacity(edges.len());
        for &(pred, block) in edges {
            let (trace, body, _) = edge_trace(pipeline, program, cfg, pred, block, operand_hint)?;
            let mut slacks = Vec::with_capacity(body.len());
            for k in body {
                let index = trace.retired[k].index;
                slacks.push(self.inst_dts(&trace, k, EndpointFilter::Control, Some(index))?);
            }
            table.push(slacks);
        }
        Ok(table)
    }

    /// Datapath training, checked: the data-endpoint DTS of every directed
    /// sequence, in `TRAINED_UNITS × TRAINING_LEVELS` order.
    ///
    /// # Errors
    ///
    /// As [`CertificateCheck::inst_dts`], plus co-simulation errors.
    pub fn datapath(
        &mut self,
        pipeline: &PipelineNetlist,
    ) -> Result<Vec<Option<CanonicalRv>>, CheckError> {
        let mut out = Vec::with_capacity(TRAINED_UNITS.len() * TRAINING_LEVELS.len());
        for unit in TRAINED_UNITS {
            for level in TRAINING_LEVELS {
                let (trace, target, _) = training_trace(pipeline, unit, level)?;
                out.push(self.inst_dts(&trace, target, EndpointFilter::Data, None)?);
            }
        }
        Ok(out)
    }
}

/// The unpruned reference model: `fw`'s training of `w` with no plan
/// attached, so every `(instruction, stage)` pair is computed.
///
/// # Errors
///
/// Propagates engine and DTA errors.
pub fn unpruned_model(
    fw: &Framework,
    w: &Workload,
    cfg: &Cfg,
    profiles: &[ProfileResult],
) -> Result<InstructionErrorModel, TerseError> {
    let engine = fw.engine()?;
    let (edges, hints) = training_inputs(cfg, w.program(), profiles);
    let hint = move |i: u32| hints[i as usize];
    let control = characterize_control(fw.pipeline(), w.program(), cfg, &engine, &edges, &hint)?;
    let datapath = DatapathModel::train(fw.pipeline(), &engine)?;
    Ok(InstructionErrorModel::new(cfg, control, datapath))
}

/// Everything [`check_training`] recomputed.
#[derive(Debug)]
pub struct CheckedTraining {
    /// The characterized control edges.
    pub edges: Vec<ControlEdge>,
    /// Per edge, the control DTS of every block instruction.
    pub control: Vec<Vec<Option<CanonicalRv>>>,
    /// The datapath directed-sequence DTS, in
    /// `TRAINED_UNITS × TRAINING_LEVELS` order.
    pub datapath: Vec<Option<CanonicalRv>>,
    /// Pair counts over control and datapath training.
    pub stats: PrescreenStats,
}

/// Checks every certificate `fw`'s training of `w` relies on: builds the
/// plan `train_model` attaches ([`Framework::prune_plan`]) and runs
/// [`CertificateCheck`] over every control edge and every datapath
/// directed sequence, with `fw`'s plan-free engine.
///
/// # Errors
///
/// [`CheckError::Violation`] for an unsound certificate; plan-building
/// and engine errors as [`CheckError::Framework`], DTA and co-simulation
/// errors as [`CheckError::Dta`].
pub fn check_training(
    fw: &Framework,
    w: &Workload,
    cfg: &Cfg,
    profiles: &[ProfileResult],
) -> Result<CheckedTraining, CheckError> {
    let plan = fw.prune_plan(w.program())?;
    let engine = fw.engine()?;
    let (edges, hints) = training_inputs(cfg, w.program(), profiles);
    let hint = move |i: u32| hints[i as usize];
    let mut check = CertificateCheck::new(&engine, &plan);
    let control = check.control(fw.pipeline(), w.program(), cfg, &edges, &hint)?;
    let datapath = check.datapath(fw.pipeline())?;
    Ok(CheckedTraining {
        edges,
        control,
        datapath,
        stats: check.stats(),
    })
}
