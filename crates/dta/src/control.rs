//! Control-network DTS characterization (Section 4 of the paper).
//!
//! "Each time a basic block is executed on an in-order processor, the
//! control network … performs the same task. Therefore, in most cases, the
//! same set of timing paths in the control network are activated every
//! time." So the expensive gate-level DTA runs *once per basic block* — and
//! per incoming CFG edge, because an entering block shares the pipeline
//! with the tail of its predecessor — and the results are tabulated for
//! reuse over billions of dynamic executions.

use crate::engine::{DtsEngine, EndpointFilter};
use crate::Result;
use rayon::prelude::*;
use std::collections::HashMap;
use std::ops::Range;
use terse_isa::{BlockId, Cfg, Instruction, Opcode, Program};
use terse_netlist::pipeline::{PipelineNetlist, STAGE_COUNT};
use terse_netlist::ActivityTrace;
use terse_sim::cosim::{CoSim, CoSimTrace, CosimStats};
use terse_sim::machine::Retired;
use terse_sim::profile::ProfileResult;
use terse_sta::CanonicalRv;

/// Per-(block, incoming edge) control DTS of every instruction in the
/// block. The edge key `None` is the program-entry context (flushed
/// pipeline).
#[derive(Debug, Clone, Default)]
pub struct ControlDtsTable {
    entries: HashMap<(BlockId, Option<BlockId>), Vec<Option<CanonicalRv>>>,
}

impl ControlDtsTable {
    /// The per-instruction control slacks for a block entered via `edge`.
    pub fn get(&self, block: BlockId, edge: Option<BlockId>) -> Option<&[Option<CanonicalRv>]> {
        self.entries.get(&(block, edge)).map(Vec::as_slice)
    }

    /// Like [`ControlDtsTable::get`] but falls back to any characterized
    /// edge of the block (used when a dynamic edge was never characterized,
    /// e.g. an indirect jump discovered late).
    pub fn get_or_any(
        &self,
        block: BlockId,
        edge: Option<BlockId>,
    ) -> Option<&[Option<CanonicalRv>]> {
        self.get(block, edge).or_else(|| {
            self.entries
                .iter()
                .filter(|((b, _), _)| *b == block)
                .map(|(_, v)| v.as_slice())
                .next()
        })
    }

    /// Number of characterized (block, edge) contexts.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether nothing has been characterized.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// All characterized keys (sorted, for deterministic reporting).
    pub fn keys(&self) -> Vec<(BlockId, Option<BlockId>)> {
        // terse-analyze: allow(AZ002): collected then sorted immediately.
        let mut v: Vec<_> = self.entries.keys().copied().collect();
        v.sort();
        v
    }
}

/// Representative `(rs1, rs2)` operand values per static instruction index.
/// `Sync`, because edges are characterized in parallel.
pub type OperandHint = dyn Fn(u32) -> (u32, u32) + Sync;

/// A characterized control edge: `(predecessor, block)`, with `None` for
/// the program-entry context.
pub type ControlEdge = (Option<BlockId>, BlockId);

/// Builds a synthetic retired-instruction record for characterization: the
/// control network sees instruction encodings and PCs; operand values come
/// from the `operand_hint` (typically profile-representative values, or
/// zeros when unknown).
fn synth_retired(index: u32, inst: Instruction, next_index: u32, hint: &OperandHint) -> Retired {
    let (rs1_val, rs2_val) = hint(index);
    let taken = if inst.opcode.is_branch() {
        Some(inst.imm.cast_unsigned() == next_index)
    } else {
        None
    };
    Retired {
        index,
        inst,
        rs1_val,
        rs2_val,
        result: rs1_val.wrapping_add(rs2_val),
        mem_addr: if inst.opcode.is_memory() {
            Some(rs1_val.wrapping_add(inst.imm as u32))
        } else {
            None
        },
        loaded: if inst.opcode == Opcode::Ld {
            Some(0)
        } else {
            None
        },
        taken,
        next_pc: next_index,
    }
}

/// Characterizes the control network of a program: for every basic block
/// and every incoming edge in `edges` (pass the profiler's dynamic edge set
/// plus `(None, entry)`), co-simulates the predecessor tail followed by the
/// block ([`edge_traces`]) and records each instruction's control-endpoint
/// DTS ([`control_table`]).
///
/// `operand_hint(instr_index)` supplies representative operand values for
/// the synthetic execution (zeros are acceptable; profile means are
/// better).
///
/// # Errors
///
/// Propagates co-simulation and DTA errors.
pub fn characterize_control(
    pipeline: &PipelineNetlist,
    program: &Program,
    cfg: &Cfg,
    engine: &DtsEngine<'_>,
    edges: &[ControlEdge],
    operand_hint: &OperandHint,
) -> Result<ControlDtsTable> {
    let (traces, _) = edge_traces(pipeline, program, cfg, edges, operand_hint)?;
    control_table(engine, &traces)
}

/// The co-simulated characterization trace of one control edge
/// ([`edge_trace`]). It depends on the pipeline, the program and the
/// operand hints, not on the clock period, so one set of traces serves
/// every operating point.
#[derive(Debug)]
pub struct EdgeTrace {
    /// The characterized `(predecessor, block)` edge.
    edge: ControlEdge,
    /// The co-simulated stream: predecessor tail, block, drain.
    trace: CoSimTrace,
    /// Positions of the block's instructions in `trace.retired`.
    body: Range<usize>,
}

/// The characterization traces of `edges`, in edge order, and the summed
/// co-simulation counters.
///
/// Edges are co-simulated in parallel, one edge per unit, on the calling
/// thread's pool; the traces, the counters and the reported error are the
/// same for every thread count.
///
/// # Errors
///
/// Propagates co-simulation errors (the lowest-index edge's error wins).
pub fn edge_traces(
    pipeline: &PipelineNetlist,
    program: &Program,
    cfg: &Cfg,
    edges: &[ControlEdge],
    operand_hint: &OperandHint,
) -> Result<(Vec<EdgeTrace>, CosimStats)> {
    // Results come back in edge order and counters are summed in that
    // order, whatever the schedule.
    let units: Vec<(EdgeTrace, CosimStats)> = edges
        .par_iter()
        .map(|&(pred, block)| {
            let (trace, body, stats) =
                edge_trace(pipeline, program, cfg, pred, block, operand_hint)?;
            let edge = (pred, block);
            Ok((EdgeTrace { edge, trace, body }, stats))
        })
        .collect::<Result<_>>()?;
    let mut stats = CosimStats::default();
    let mut traces = Vec::with_capacity(units.len());
    for (trace, unit_stats) in units {
        stats.merge(unit_stats);
        traces.push(trace);
    }
    Ok((traces, stats))
}

/// Algorithm 2 on control endpoints over characterization traces: the
/// control DTS of every block instruction on each edge's trace, at
/// `engine`'s period (and under its prune plan, if one is attached).
///
/// Edges are processed in parallel, one edge per unit, on the calling
/// thread's pool; the table and the reported error are the same for every
/// thread count.
///
/// # Errors
///
/// Propagates DTA errors (the lowest-index edge's error wins).
pub fn control_table(engine: &DtsEngine<'_>, traces: &[EdgeTrace]) -> Result<ControlDtsTable> {
    let units: Vec<Vec<Option<CanonicalRv>>> = traces
        .par_iter()
        .map(|t| {
            t.body
                .clone()
                .map(|k| {
                    engine.inst_dts_for(
                        &t.trace,
                        k,
                        EndpointFilter::Control,
                        Some(t.trace.retired[k].index),
                    )
                })
                .collect::<Result<_>>()
        })
        .collect::<Result<_>>()?;
    let mut table = ControlDtsTable::default();
    for (t, slacks) in traces.iter().zip(units) {
        let (pred, block) = t.edge;
        table.entries.insert((block, pred), slacks);
    }
    Ok(table)
}

/// The characterization trace of one `(pred, block)` edge: co-simulates up
/// to `STAGE_COUNT` tail instructions of the predecessor followed by the
/// block and the drain. Returns the trace, the positions of the block's
/// instructions in it, and the co-simulation counters.
///
/// # Errors
///
/// Propagates co-simulation errors.
pub fn edge_trace(
    pipeline: &PipelineNetlist,
    program: &Program,
    cfg: &Cfg,
    pred: Option<BlockId>,
    block: BlockId,
    operand_hint: &OperandHint,
) -> Result<(CoSimTrace, Range<usize>, CosimStats)> {
    let blk = cfg.blocks()[block.index()];
    // Build the instruction stream: up to STAGE_COUNT tail instructions
    // of the predecessor (pipeline sharing), then the block.
    let mut stream: Vec<(u32, Instruction)> = Vec::new();
    if let Some(p) = pred {
        let pb = cfg.blocks()[p.index()];
        let tail_len = (pb.len()).min(STAGE_COUNT);
        for i in (pb.end as usize - tail_len)..pb.end as usize {
            // terse-analyze: allow(AZ005): stream indices are program positions, < 2^32.
            stream.push((i as u32, program.instructions()[i]));
        }
    }
    let body_start = stream.len();
    for i in blk.range() {
        // terse-analyze: allow(AZ005): stream indices are program positions, < 2^32.
        stream.push((i as u32, program.instructions()[i]));
    }
    // Synthesize retirements (next index = following stream element).
    let retired: Vec<Retired> = stream
        .iter()
        .enumerate()
        .map(|(k, &(idx, inst))| {
            let next = stream.get(k + 1).map(|&(ni, _)| ni).unwrap_or(idx + 1);
            synth_retired(idx, inst, next, operand_hint)
        })
        .collect();
    // Co-simulate the stream plus drain.
    let mut cosim = CoSim::new(pipeline);
    let mut activity = ActivityTrace::new(pipeline.netlist().gate_count());
    let mut fed = Vec::new();
    for r in &retired {
        fed.push(Some(r.index));
        activity.push(cosim.feed(Some(*r))?);
    }
    for _ in 0..STAGE_COUNT {
        fed.push(None);
        activity.push(cosim.feed(None)?);
    }
    let mut stats = CosimStats::default();
    stats.absorb(&cosim);
    let body = body_start..retired.len();
    let trace = CoSimTrace {
        activity,
        fed,
        retired,
    };
    Ok((trace, body, stats))
}

/// The control edges and per-instruction operand hints training
/// characterizes for `profiles`: every profiled edge plus program entry
/// ([`characterization_edges`]), and each static instruction's first
/// observed representative operands (`(0, 0)` when no profile saw it).
pub fn training_inputs(
    cfg: &Cfg,
    program: &Program,
    profiles: &[ProfileResult],
) -> (Vec<ControlEdge>, Vec<(u32, u32)>) {
    let mut profiled: Vec<(BlockId, BlockId)> = profiles
        .iter()
        // terse-analyze: allow(AZ002): collected, sorted and deduped below.
        .flat_map(|p| p.edge_counts.keys().copied())
        .collect();
    profiled.sort();
    profiled.dedup();
    let hints = (0..program.len())
        .map(|i| {
            profiles
                .iter()
                .find_map(|p| p.operand_reps[i])
                .unwrap_or((0, 0))
        })
        .collect();
    (characterization_edges(cfg, profiled), hints)
}

/// The edge set to characterize: all profiled dynamic edges plus the
/// program-entry context.
pub fn characterization_edges(
    cfg: &Cfg,
    profiled: impl IntoIterator<Item = (BlockId, BlockId)>,
) -> Vec<ControlEdge> {
    let mut edges: Vec<ControlEdge> = Vec::new();
    edges.push((None, cfg.block_containing(0)));
    for (from, to) in profiled {
        edges.push((Some(from), to));
    }
    edges.sort();
    edges.dedup();
    edges
}

#[cfg(test)]
mod tests {
    use super::*;
    use terse_isa::assemble;
    use terse_netlist::pipeline::PipelineConfig;
    use terse_sta::analysis::Sta;
    use terse_sta::delay::{DelayLibrary, TimingConstraints};
    use terse_sta::variation::VariationConfig;

    fn setup() -> (PipelineNetlist, Program, Cfg) {
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
        (p, prog, cfg)
    }

    fn engine(p: &PipelineNetlist) -> DtsEngine<'_> {
        let lib = DelayLibrary::normalized_45nm();
        let sta = Sta::new(p.netlist(), &lib);
        let t = sta.min_period() / 1.15;
        DtsEngine::new(
            p.netlist(),
            lib,
            VariationConfig::default(),
            TimingConstraints::with_period(t),
        )
        .unwrap()
    }

    #[test]
    fn characterizes_all_edges() {
        let (p, prog, cfg) = setup();
        let eng = engine(&p);
        let b0 = cfg.block_containing(0);
        let b1 = cfg.block_containing(1);
        let b2 = cfg.block_containing(4);
        let edges = characterization_edges(&cfg, vec![(b0, b1), (b1, b1), (b1, b2)]);
        assert_eq!(edges.len(), 4); // entry + 3
        let table = characterize_control(&p, &prog, &cfg, &eng, &edges, &|_| (0, 0)).unwrap();
        assert_eq!(table.len(), 4);
        // Every characterized block has one slack slot per instruction.
        let v = table.get(b1, Some(b1)).unwrap();
        assert_eq!(v.len(), cfg.blocks()[b1.index()].len());
        // Instructions flowing through a live pipeline have control DTS.
        assert!(v.iter().any(Option::is_some));
    }

    #[test]
    fn edge_context_changes_dts() {
        // Entering the loop block from the entry block vs from itself puts
        // different predecessor instructions in the pipeline — the control
        // DTS of the block's instructions generally differs somewhere.
        let (p, prog, cfg) = setup();
        let eng = engine(&p);
        let b0 = cfg.block_containing(0);
        let b1 = cfg.block_containing(1);
        let edges = vec![(Some(b0), b1), (Some(b1), b1)];
        let table = characterize_control(&p, &prog, &cfg, &eng, &edges, &|_| (0, 0)).unwrap();
        let from_entry = table.get(b1, Some(b0)).unwrap();
        let from_self = table.get(b1, Some(b1)).unwrap();
        assert!(from_entry[0].is_some() && from_self[0].is_some());
        let all_equal = from_entry.iter().zip(from_self).all(|(x, y)| match (x, y) {
            (Some(x), Some(y)) => (x.mean() - y.mean()).abs() < 1e-12,
            (None, None) => true,
            _ => false,
        });
        assert!(!all_equal, "edge context should matter somewhere");
    }

    #[test]
    fn get_or_any_falls_back() {
        let (p, prog, cfg) = setup();
        let eng = engine(&p);
        let b1 = cfg.block_containing(1);
        let b0 = cfg.block_containing(0);
        let table =
            characterize_control(&p, &prog, &cfg, &eng, &[(Some(b0), b1)], &|_| (0, 0)).unwrap();
        assert!(table.get(b1, Some(b1)).is_none());
        assert!(table.get_or_any(b1, Some(b1)).is_some());
        assert!(table.get_or_any(b0, None).is_none());
        assert_eq!(table.keys(), vec![(b1, Some(b0))]);
    }

    #[test]
    fn operand_hint_reaches_the_datapath_side() {
        // Condition codes are data endpoints (Section 4), so operand values
        // influence the *data*-filtered DTS; the control table itself is
        // operand-independent by design (same task every block execution).
        // Check both: the control table is well-formed under different
        // hints, and a data-filtered characterization pass sees the hint.
        let (p, prog, cfg) = setup();
        let eng = engine(&p);
        let b1 = cfg.block_containing(1);
        let edges = [(Some(b1), b1)];
        let t_zero = characterize_control(&p, &prog, &cfg, &eng, &edges, &|_| (0, 0)).unwrap();
        let t_vals =
            characterize_control(&p, &prog, &cfg, &eng, &edges, &|_| (0x7FFF_FFFF, 1)).unwrap();
        let a = t_zero.get(b1, Some(b1)).unwrap();
        let b = t_vals.get(b1, Some(b1)).unwrap();
        assert_eq!(a.len(), b.len());
        assert!(a.iter().any(Option::is_some));
        assert!(b.iter().any(Option::is_some));
    }
}
