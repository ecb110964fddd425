//! The 6-stage in-order integer pipeline netlist — the LEON3 substitute.
//!
//! The paper evaluates the integer unit of LEON3 (SPARC V8, in-order) after
//! synthesis on 45 nm TSMC. We cannot run that flow, so this module builds a
//! comparable gate-level pipeline from the structural generators of
//! [`crate::circuits`]:
//!
//! | stage | name | logic | capturing endpoints |
//! |---|---|---|---|
//! | 0 | IF | PC incrementer, redirect mux, fetch control cloud | `b1.pc` `b1.instr` `b1.fctl` (+ `b0.pc` loop) |
//! | 1 | ID | opcode one-hot decoder, decode qualifier cloud, immediate sign-extend | `b2.*` |
//! | 2 | RA | bypass/forwarding muxes, forward-match comparators | `b3.*` |
//! | 3 | EX | adder/subtractor, logic unit, barrel shifter, array multiplier, branch compare | `b4.*` |
//! | 4 | ME | load aligner, address-decode cloud, result mux | `b5.*` |
//! | 5 | WB | writeback mux/buffers, commit control cloud | `b6.*` |
//!
//! Endpoints are classified per the paper's Section 4: operand/result/address
//! registers are *data* endpoints; PC, instruction, decode and control-signal
//! registers are *control* endpoints.
//!
//! The pipeline is driven by co-simulation (see `terse-sim`): the
//! architectural simulator forces the stage input banks and external ports
//! (instruction word, register file reads, load data) with real program
//! values each cycle, and the combinational clouds compute — so activation
//! (`VCD`) and therefore dynamic timing slack genuinely depend on operand
//! values and instruction sequence.

use crate::builder::NetlistBuilder;
use crate::circuits::{
    array_multiplier_low, barrel_shifter, decoder, equality, logic_unit, mux2_bus, mux_tree,
    random_cloud, ripple_carry_adder, zero_detect,
};
use crate::gate::{GateId, GateKind};
use crate::netlist::{EndpointClass, Netlist};
use crate::Result;

/// Configuration of the synthetic pipeline.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PipelineConfig {
    /// Datapath width in bits. The default (and the only width the
    /// co-simulator drives) is 32; tests use narrower pipelines for speed.
    pub width: usize,
    /// Multiplier operand width (low-product array); defaults to `width`.
    pub mul_width: usize,
    /// Gate count of each control cloud (scaled per stage).
    pub cloud_gates: usize,
    /// Seed for the pseudo-random control clouds.
    pub seed: u64,
}

impl Default for PipelineConfig {
    fn default() -> Self {
        PipelineConfig {
            width: 32,
            // LEON3's multiplier is a multi-cycle/pipelined unit that does
            // not dominate single-cycle timing; modeling it at half operand
            // width keeps the adder (whose carry chains every program
            // exercises) the critical single-cycle unit, as in a
            // synthesis-balanced design.
            mul_width: 16,
            cloud_gates: 300,
            seed: 0xDAC1_9001,
        }
    }
}

impl PipelineConfig {
    /// A small pipeline for fast unit tests (8-bit datapath, small clouds).
    pub fn small() -> Self {
        PipelineConfig {
            width: 8,
            mul_width: 8,
            cloud_gates: 60,
            seed: 0xDAC1_9001,
        }
    }
}

/// Number of pipeline stages (fixed at 6, matching the paper's 6-stage
/// LEON3 integer pipeline and its 24-cycle replay penalty).
pub const STAGE_COUNT: usize = 6;

/// The built pipeline netlist plus its configuration.
///
/// # Example
/// ```
/// use terse_netlist::pipeline::{PipelineConfig, PipelineNetlist};
///
/// # fn main() -> Result<(), terse_netlist::NetlistError> {
/// let p = PipelineNetlist::build(PipelineConfig::small())?;
/// assert_eq!(p.netlist().stage_count(), 6);
/// // Every stage has capturing endpoints.
/// for s in 0..6 {
///     assert!(!p.netlist().endpoints(s)?.is_empty());
/// }
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct PipelineNetlist {
    netlist: Netlist,
    config: PipelineConfig,
}

impl PipelineNetlist {
    /// Builds the pipeline netlist.
    ///
    /// # Errors
    ///
    /// Propagates [`crate::NetlistError`] from construction (cannot occur
    /// for a valid configuration; surfaced for API honesty).
    ///
    /// # Panics
    ///
    /// Panics if `config.width` is 0 or `config.mul_width > config.width`.
    pub fn build(config: PipelineConfig) -> Result<Self> {
        assert!(config.width > 0, "pipeline width must be positive");
        assert!(
            config.mul_width <= config.width && config.mul_width > 0,
            "mul_width must be in 1..=width"
        );
        let w = config.width;
        let mut b = NetlistBuilder::new(STAGE_COUNT);
        let seed = config.seed;

        // ----- Stage 0: IF ------------------------------------------------
        b.set_region(0.00, 0.0, 0.15, 1.0);
        let b0_pc = b.flip_flop_bus("b0.pc", w, EndpointClass::Control, 0)?;
        let imem = b.input_bus("imem.instr", w, 0)?;
        let redirect_taken = b.input("redirect.taken", 0)?;
        let redirect_tgt = b.input_bus("redirect.target", w, 0)?;
        // PC + 4 (ripple incrementer adding the constant 4).
        let (pc4, _c) = {
            let zero = b.tie(false, 0)?;
            let one = b.tie(true, 0)?;
            let mut four = vec![zero; w];
            if w > 2 {
                four[2] = one;
            }
            ripple_carry_adder(&mut b, 0, &b0_pc, &four, zero)?
        };
        let pc_next = mux2_bus(&mut b, 0, redirect_taken, &pc4, &redirect_tgt)?;
        for (ff, d) in b0_pc.iter().zip(&pc_next) {
            b.connect_ff_input(*ff, *d)?;
        }
        // Fetch control cloud over PC and redirect bits.
        let mut fetch_ins = b0_pc.clone();
        fetch_ins.push(redirect_taken);
        let fctl = random_cloud(
            &mut b,
            0,
            &fetch_ins,
            config.cloud_gates / 2,
            8,
            seed ^ 0xF0,
        )?;
        // Instruction path: gated by a fetch-valid qualifier.
        let valid = fctl[0];
        let instr_gated: Vec<GateId> = imem
            .iter()
            .map(|&i| b.gate(GateKind::And, &[i, valid], 0))
            .collect::<Result<_>>()?;
        connect_bank(&mut b, "b1.pc", &pc4, EndpointClass::Control, 0)?;
        connect_bank(&mut b, "b1.instr", &instr_gated, EndpointClass::Control, 0)?;
        connect_bank(&mut b, "b1.fctl", &fctl, EndpointClass::Control, 0)?;

        // ----- Stage 1: ID ------------------------------------------------
        b.set_region(0.17, 0.0, 0.32, 1.0);
        let b1_instr: Vec<GateId> = b.bus_ids("b1.instr");
        let b1_pc: Vec<GateId> = b.bus_ids("b1.pc");
        // Opcode = top 6 bits (or the whole word for narrow test widths).
        let opc_bits = 6.min(w);
        let opcode: Vec<GateId> = b1_instr[w - opc_bits..].to_vec();
        let onehot = decoder(&mut b, 1, &opcode)?;
        // Decode qualifier cloud over the one-hot lines and low instr bits.
        let mut dec_ins = onehot.clone();
        dec_ins.extend_from_slice(&b1_instr[..w.min(8)]);
        let op_ctl = random_cloud(&mut b, 1, &dec_ins, config.cloud_gates, 16, seed ^ 0xD1)?;
        // Immediate: sign-extend the low half of the instruction word.
        let imm_lo = w / 2;
        let sign = b1_instr[imm_lo.saturating_sub(1).min(w - 1)];
        let mut imm = Vec::with_capacity(w);
        for &bit in b1_instr.iter().take(imm_lo) {
            imm.push(b.gate(GateKind::Buf, &[bit], 1)?);
        }
        while imm.len() < w {
            imm.push(b.gate(GateKind::Buf, &[sign], 1)?);
        }
        // Register indices (5-bit fields, wrapped for narrow widths).
        let idx_w = 5.min(w);
        let rs1: Vec<GateId> = buf_bus(&mut b, 1, &b1_instr[..idx_w])?;
        let rs2: Vec<GateId> = buf_bus(&mut b, 1, &b1_instr[w - idx_w..])?;
        let rd: Vec<GateId> = buf_bus(
            &mut b,
            1,
            &b1_instr[(w / 2).saturating_sub(idx_w)..][..idx_w],
        )?;
        let pc_fwd = buf_bus(&mut b, 1, &b1_pc)?;
        // Serial decode-qualifier chain (priority/parity style) — the long
        // control-network path real decoders have. Its *activated* depth is
        // the highest position where the running parity of consecutive
        // instruction words differs cycle-to-cycle, so the control DTS of a
        // basic block genuinely depends on its instruction sequence and
        // entry edge (Section 4's per-block, per-edge characterization).
        // A fan of staggered-depth qualifier chains: each is headed by a
        // different instruction bit and mixes a few live bits early (so its
        // activation depends on the block's instruction sequence) before
        // running through quasi-static high-PC taps (so a surviving toggle
        // propagates to full depth). Depths straddle the band just below
        // the EX critical path: per block, a *subset* of chains activates
        // deeply, which is what makes control DTS a smooth per-block,
        // per-edge quantity rather than an all-or-nothing cliff.
        let n_chains = 16.min(2 * w);
        let base_len = w + w / 4; // 40 at the 32-bit width
        let mut qchain = Vec::with_capacity(n_chains);
        for k in 0..n_chains {
            let chain_len = base_len + k;
            let mut qs = b1_instr[(k * 5 + 1) % w];
            for i in 1..chain_len {
                let tap = if i < 10 {
                    b1_instr[(k * 3 + i * 2) % w]
                } else {
                    b1_pc[(w - 1) - ((i + k) % (w / 2))]
                };
                qs = b.gate(GateKind::Xor, &[qs, tap], 1)?;
            }
            qchain.push(qs);
        }
        connect_bank(&mut b, "b2.qchain", &qchain, EndpointClass::Control, 1)?;
        connect_bank(&mut b, "b2.op_ctl", &op_ctl, EndpointClass::Control, 1)?;
        connect_bank(&mut b, "b2.imm", &imm, EndpointClass::Data, 1)?;
        connect_bank(&mut b, "b2.rs1", &rs1, EndpointClass::Control, 1)?;
        connect_bank(&mut b, "b2.rs2", &rs2, EndpointClass::Control, 1)?;
        connect_bank(&mut b, "b2.rd", &rd, EndpointClass::Control, 1)?;
        connect_bank(&mut b, "b2.pc", &pc_fwd, EndpointClass::Control, 1)?;

        // ----- Stage 2: RA (operand select / bypass) -----------------------
        b.set_region(0.34, 0.0, 0.49, 1.0);
        let rf_rs1 = b.input_bus("rf.rs1_data", w, 2)?;
        let rf_rs2 = b.input_bus("rf.rs2_data", w, 2)?;
        let byp_ex = b.input_bus("bypass.ex", w, 2)?;
        let byp_me = b.input_bus("bypass.me", w, 2)?;
        let ex_rd = b.input_bus("fwd.ex_rd", 5.min(w), 2)?;
        let me_rd = b.input_bus("fwd.me_rd", 5.min(w), 2)?;
        let b2_rs1 = b.bus_ids("b2.rs1");
        let b2_rs2 = b.bus_ids("b2.rs2");
        let b2_imm = b.bus_ids("b2.imm");
        let b2_ctl = b.bus_ids("b2.op_ctl");
        // Forward-match comparators (control logic).
        let m_ex1 = equality(&mut b, 2, &b2_rs1, &ex_rd)?;
        let m_me1 = equality(&mut b, 2, &b2_rs1, &me_rd)?;
        let m_ex2 = equality(&mut b, 2, &b2_rs2, &ex_rd)?;
        let m_me2 = equality(&mut b, 2, &b2_rs2, &me_rd)?;
        // Operand A: rf / bypass.ex / bypass.me / rf (mux tree on matches).
        let op_a = mux_tree(
            &mut b,
            2,
            &[m_ex1, m_me1],
            &[
                rf_rs1.clone(),
                byp_ex.clone(),
                byp_me.clone(),
                rf_rs1.clone(),
            ],
        )?;
        // Operand B: (rf/bypass as A) then imm-select on a decode control.
        let op_b_fwd = mux_tree(
            &mut b,
            2,
            &[m_ex2, m_me2],
            &[
                rf_rs2.clone(),
                byp_ex.clone(),
                byp_me.clone(),
                rf_rs2.clone(),
            ],
        )?;
        let use_imm = b2_ctl[0];
        let op_b = mux2_bus(&mut b, 2, use_imm, &op_b_fwd, &b2_imm)?;
        let store_data = buf_bus(&mut b, 2, &op_b_fwd)?;
        let mut ra_ins = vec![m_ex1, m_me1, m_ex2, m_me2];
        ra_ins.extend_from_slice(&b2_ctl);
        let ex_ctl = random_cloud(&mut b, 2, &ra_ins, config.cloud_gates / 2, 12, seed ^ 0xA2)?;
        connect_bank(&mut b, "b3.op_a", &op_a, EndpointClass::Data, 2)?;
        connect_bank(&mut b, "b3.op_b", &op_b, EndpointClass::Data, 2)?;
        connect_bank(&mut b, "b3.store", &store_data, EndpointClass::Data, 2)?;
        connect_bank(&mut b, "b3.ex_ctl", &ex_ctl, EndpointClass::Control, 2)?;

        // ----- Stage 3: EX -------------------------------------------------
        let b3_a = b.bus_ids("b3.op_a");
        let b3_b = b.bus_ids("b3.op_b");
        let b3_store = b.bus_ids("b3.store");
        let b3_ctl = b.bus_ids("b3.ex_ctl");
        // ALU control lines come from the forced control bank.
        let sub_en = b3_ctl[1];
        let lu_op0 = b3_ctl[2];
        let lu_op1 = b3_ctl[3];
        let sh_right = b3_ctl[4];
        let sh_arith = b3_ctl[5];
        let sel0 = b3_ctl[6];
        let sel1 = b3_ctl[7];
        // Adder/subtractor (XOR-conditioned B, carry-in = sub).
        b.set_region(0.51, 0.00, 0.66, 0.30);
        let bx: Vec<GateId> = b3_b
            .iter()
            .map(|&x| b.gate(GateKind::Xor, &[x, sub_en], 3))
            .collect::<Result<_>>()?;
        let (addsub, cout) = ripple_carry_adder(&mut b, 3, &b3_a, &bx, sub_en)?;
        // Logic unit.
        b.set_region(0.51, 0.32, 0.66, 0.50);
        let logic = logic_unit(&mut b, 3, &b3_a, &b3_b, lu_op0, lu_op1)?;
        // Shifter (amount = low bits of B).
        b.set_region(0.51, 0.52, 0.66, 0.70);
        let sh_bits = (usize::BITS as usize - (w - 1).leading_zeros() as usize).max(1);
        let shift = barrel_shifter(&mut b, 3, &b3_a, &b3_b[..sh_bits], sh_right, sh_arith)?;
        // Multiplier (low product over the configured operand width).
        b.set_region(0.51, 0.72, 0.66, 1.00);
        let mw = config.mul_width;
        let prod_lo = array_multiplier_low(&mut b, 3, &b3_a[..mw], &b3_b[..mw])?;
        let mut product = prod_lo;
        let zero3 = b.tie(false, 3)?;
        while product.len() < w {
            product.push(zero3);
        }
        // Result select.
        b.set_region(0.51, 0.30, 0.66, 0.55);
        let alu = mux_tree(
            &mut b,
            3,
            &[sel0, sel1],
            &[addsub.clone(), logic, shift, product],
        )?;
        // Branch condition flags: zero/negative/carry. Condition codes are
        // *data* endpoints per the paper's Section 4 classification ("the
        // set of data endpoints includes endpoints that hold the operands
        // and results of instructions, including condition codes").
        let is_zero = zero_detect(&mut b, 3, &addsub)?;
        let neg = addsub[addsub.len() - 1]; // datapath width is fixed and > 0
        let brctl = [is_zero, neg, cout];
        let addr = buf_bus(&mut b, 3, &addsub)?;
        let store_fwd = buf_bus(&mut b, 3, &b3_store)?;
        connect_bank(&mut b, "b4.alu", &alu, EndpointClass::Data, 3)?;
        connect_bank(&mut b, "b4.addr", &addr, EndpointClass::Data, 3)?;
        connect_bank(&mut b, "b4.store", &store_fwd, EndpointClass::Data, 3)?;
        connect_bank(&mut b, "b4.br", &brctl, EndpointClass::Data, 3)?;
        let mctl_in: Vec<GateId> = b3_ctl.to_vec();
        let mctl = random_cloud(&mut b, 3, &mctl_in, config.cloud_gates / 3, 8, seed ^ 0xE3)?;
        connect_bank(&mut b, "b4.mctl", &mctl, EndpointClass::Control, 3)?;

        // ----- Stage 4: ME ---------------------------------------------------
        b.set_region(0.68, 0.0, 0.83, 1.0);
        let dmem = b.input_bus("dmem.rdata", w, 4)?;
        let b4_alu = b.bus_ids("b4.alu");
        let b4_addr = b.bus_ids("b4.addr");
        let b4_mctl = b.bus_ids("b4.mctl");
        // Load aligner: shift read data right by 8·addr[0..2] (byte select).
        let zero4 = b.tie(false, 4)?;
        let mut amt = vec![zero4; 3.min(w.max(4) - 1)];
        // amount bits [3]=addr0, [4]=addr1 → shift of 8/16/24 for w=32;
        // narrow test pipelines just shift by addr0.
        if w >= 32 {
            amt = vec![zero4, zero4, zero4, b4_addr[0], b4_addr[1]];
        } else if w >= 4 {
            amt = vec![zero4, b4_addr[0]];
        }
        let one4 = b.tie(true, 4)?;
        let aligned = barrel_shifter(&mut b, 4, &dmem, &amt, one4, zero4)?;
        let is_load = b4_mctl[0];
        let wb_data = mux2_bus(&mut b, 4, is_load, &b4_alu, &aligned)?;
        let mut me_ins = b4_addr.clone();
        me_ins.extend_from_slice(&b4_mctl);
        let wctl = random_cloud(&mut b, 4, &me_ins, config.cloud_gates / 3, 6, seed ^ 0xB4)?;
        connect_bank(&mut b, "b5.wb", &wb_data, EndpointClass::Data, 4)?;
        connect_bank(&mut b, "b5.wctl", &wctl, EndpointClass::Control, 4)?;

        // ----- Stage 5: WB ---------------------------------------------------
        b.set_region(0.85, 0.0, 1.00, 1.0);
        let b5_wb = b.bus_ids("b5.wb");
        let b5_wctl = b.bus_ids("b5.wctl");
        let commit = b5_wctl[0];
        let result: Vec<GateId> = b5_wb
            .iter()
            .map(|&x| b.gate(GateKind::And, &[x, commit], 5))
            .collect::<Result<_>>()?;
        let cctl = random_cloud(&mut b, 5, &b5_wctl, config.cloud_gates / 4, 4, seed ^ 0xC5)?;
        connect_bank(&mut b, "b6.result", &result, EndpointClass::Data, 5)?;
        connect_bank(&mut b, "b6.cctl", &cctl, EndpointClass::Control, 5)?;

        let netlist = b.finish()?;
        Ok(PipelineNetlist { netlist, config })
    }

    /// The underlying netlist.
    pub fn netlist(&self) -> &Netlist {
        &self.netlist
    }

    /// The configuration the pipeline was built with.
    pub fn config(&self) -> PipelineConfig {
        self.config
    }
}

/// Creates a flip-flop bank named `name` capturing `bus` in `stage`.
fn connect_bank(
    b: &mut NetlistBuilder,
    name: &str,
    bus: &[GateId],
    class: EndpointClass,
    stage: usize,
) -> Result<Vec<GateId>> {
    let ffs = b.flip_flop_bus(name, bus.len(), class, stage)?;
    for (ff, src) in ffs.iter().zip(bus) {
        b.connect_ff_input(*ff, *src)?;
    }
    Ok(ffs)
}

/// Buffers every bit of a bus (used to keep cross-stage feedthroughs as real
/// gates so they appear in activity and timing).
fn buf_bus(b: &mut NetlistBuilder, stage: usize, bus: &[GateId]) -> Result<Vec<GateId>> {
    bus.iter()
        .map(|&x| b.gate(GateKind::Buf, &[x], stage))
        .collect()
}

/// Convenience accessor used during construction (names are registered
/// before later stages reference them).
trait BusIds {
    fn bus_ids(&self, name: &str) -> Vec<GateId>;
}

impl BusIds for NetlistBuilder {
    fn bus_ids(&self, name: &str) -> Vec<GateId> {
        self.peek_bus(name)
            // terse-analyze: allow(AZ001): build() registers every bus before use.
            .unwrap_or_else(|| panic!("bus `{name}` must be registered before use"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sim::Simulator;

    #[test]
    fn small_pipeline_builds() {
        let p = PipelineNetlist::build(PipelineConfig::small()).unwrap();
        let n = p.netlist();
        assert_eq!(n.stage_count(), STAGE_COUNT);
        for s in 0..STAGE_COUNT {
            assert!(
                !n.endpoints(s).unwrap().is_empty(),
                "stage {s} has no endpoints"
            );
        }
        // Both endpoint classes are present.
        let mut has_ctl = false;
        let mut has_data = false;
        for e in n.all_endpoints() {
            match n.endpoint_class(e).unwrap() {
                EndpointClass::Control => has_ctl = true,
                EndpointClass::Data => has_data = true,
            }
        }
        assert!(has_ctl && has_data);
    }

    #[test]
    fn default_pipeline_has_realistic_size() {
        let p = PipelineNetlist::build(PipelineConfig::default()).unwrap();
        let gc = p.netlist().gate_count();
        assert!(gc > 5_000, "gate count {gc} too small to be interesting");
        assert!(gc < 100_000, "gate count {gc} unexpectedly large");
        // Logic depth should peak in EX (the multiplier/adder stage).
        let depth = p.netlist().logic_depth_by_stage();
        let max_stage = depth
            .iter()
            .enumerate()
            .max_by_key(|(_, &d)| d)
            .map(|(s, _)| s)
            .unwrap();
        assert_eq!(max_stage, 3, "depths = {depth:?}");
    }

    #[test]
    fn ex_stage_computes_addition() {
        let p = PipelineNetlist::build(PipelineConfig::small()).unwrap();
        let n = p.netlist();
        let w = p.config().width;
        let mut sim = Simulator::new(n);
        // Force EX inputs: op_a = 5, op_b = 7, control = add (all zero,
        // result select 00 = addsub with sub_en=0).
        sim.force_ff_bus("b3.op_a", 5).unwrap();
        sim.force_ff_bus("b3.op_b", 7).unwrap();
        sim.force_ff_bus("b3.ex_ctl", 0).unwrap();
        sim.step(); // banks appear, EX computes
        sim.step(); // b4 captures
        let alu = sim.bus_value("b4.alu").unwrap();
        assert_eq!(alu, 12 & ((1 << w) - 1));
    }

    #[test]
    fn ex_stage_computes_subtraction_and_mul() {
        let p = PipelineNetlist::build(PipelineConfig::small()).unwrap();
        let n = p.netlist();
        let mut sim = Simulator::new(n);
        // sub_en = ctl bit 1 → value 0b10; select 00 keeps addsub.
        sim.force_ff_bus("b3.op_a", 9).unwrap();
        sim.force_ff_bus("b3.op_b", 3).unwrap();
        sim.force_ff_bus("b3.ex_ctl", 0b10).unwrap();
        sim.step();
        sim.step();
        assert_eq!(sim.bus_value("b4.alu").unwrap(), 6);
        // Multiplier: select = 11 → ctl bits 6,7 set.
        let mut sim = Simulator::new(n);
        sim.force_ff_bus("b3.op_a", 6).unwrap();
        sim.force_ff_bus("b3.op_b", 7).unwrap();
        sim.force_ff_bus("b3.ex_ctl", 0b1100_0000).unwrap();
        sim.step();
        sim.step();
        assert_eq!(sim.bus_value("b4.alu").unwrap(), 42);
    }

    #[test]
    fn pc_increments_through_if_stage() {
        let p = PipelineNetlist::build(PipelineConfig::default()).unwrap();
        let mut sim = Simulator::new(p.netlist());
        sim.force_ff_bus("b0.pc", 0x100).unwrap();
        sim.set_input("redirect.taken".parse_id(&p), false);
        sim.step();
        sim.step();
        assert_eq!(sim.bus_value("b1.pc").unwrap(), 0x104);
    }

    /// Test-only sugar for 1-bit port lookup.
    trait ParseId {
        fn parse_id(&self, p: &PipelineNetlist) -> crate::gate::GateId;
    }
    impl ParseId for str {
        fn parse_id(&self, p: &PipelineNetlist) -> crate::gate::GateId {
            p.netlist().bus(self).unwrap()[0]
        }
    }
}
