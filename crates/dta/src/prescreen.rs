//! Static error-immunity pre-screening of `(instruction, stage)` pairs.
//!
//! The per-instruction error model pays full dynamic timing analysis
//! for every `(instruction, stage)` pair, even when the values that can
//! reach a stage only exercise short paths. This module proves — before
//! the simulator runs — that some pairs can *never* violate the clock
//! period at the operating point, so [`crate::engine::DtsEngine`] can
//! skip them.
//!
//! # The certificate
//!
//! Every gate delay in the variation model is Gaussian with standard
//! deviation `σ_rel · nominal` ([`VariationConfig::sigma_rel`]), and
//! correlations never exceed 1, so the delay of any path `p` has
//! `sd(p) ≤ σ_rel · nominal(p)`. If `A` upper-bounds the nominal data
//! arrival of every *activatable* path into an endpoint, then every
//! activated-path slack at clock period `T` satisfies
//!
//! ```text
//! mean(slack) = T − nominal(p) ≥ T − A
//! sd(slack)   ≤ σ_rel · nominal(p) ≤ σ_rel · A
//! ```
//!
//! so `(1 + k·σ_rel) · A ≤ T` certifies `mean(slack) ≥ k · sd(slack)`
//! for every such path — a `k`-sigma guarantee that the endpoint cannot
//! violate the clock (`k = 8`, i.e. a one-sided tail below
//! `10⁻¹⁵`). An endpoint with `A = −∞` (no transition can ever reach
//! it) is immune unconditionally.
//!
//! The arrival bound `A` comes from [`Sta::masked_arrival`] under a
//! sound three-valued abstraction of the values the co-simulation can
//! drive ([`terse_netlist::consts`]). One set of constraints yields two
//! tables:
//!
//! * **Value-free** — no value assumptions beyond the netlist's own
//!   `Tie` constants; every bank in [`terse_sim::cosim::FORCED_BANKS`]
//!   may hold any value. Sound for every trace, including the
//!   synthetic datapath-training streams.
//! * **Program-tagged** — the same constraints plus the program-counter
//!   pin: PC banks and the redirect target stay below
//!   `4·(len + stages + 1)`. Forced PC values are `index·4`, and unforced
//!   IF cycles occur only during the trailing drain, each advancing the
//!   PC by 4 — a bound the bit-level abstraction cannot derive itself
//!   because of abstract carry ripple. Pinning the redirect target is
//!   sound only under the call/return discipline (a `jr` may land only
//!   on a `jal`-written return address); a program that breaks it gets
//!   the value-free table for tagged traces too.
//!
//! Tagged traces carry a program index
//! ([`crate::engine::DtsEngine::inst_dts_for`]); untagged traces use the
//! value-free table alone.
//!
//! Pruned stages are *excluded* from the instruction-DTS statistical
//! min. Training always runs with a plan attached; the unpruned answer
//! and a checker that recomputes every pruned pair and asserts its
//! certificate live in the `oracle` crate as test-only references.

use crate::engine::EndpointFilter;
use crate::{DtaError, Result};
use std::sync::atomic::{AtomicU64, Ordering};
use terse_isa::{Opcode, Program};
use terse_netlist::{stable_values_with, EndpointClass, Netlist, Tri, ValueConstraints};
use terse_sim::cosim::FORCED_BANKS;
use terse_sta::analysis::Sta;
use terse_sta::delay::DelayLibrary;
use terse_sta::variation::VariationConfig;

/// Certificate margin in gate-delay sigmas: a one-sided tail below
/// `10⁻¹⁵`.
const K_SIGMA: f64 = 8.0;

/// Pair counters observed while a plan was consulted.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PrescreenStats {
    /// `(instruction, stage)` pairs the plan was consulted for.
    pub pairs_total: u64,
    /// Pairs proven immune, and so skipped.
    pub pairs_pruned: u64,
}

impl PrescreenStats {
    /// Fraction of pairs pruned (0 when nothing was consulted).
    pub fn ratio(&self) -> f64 {
        if self.pairs_total == 0 {
            0.0
        } else {
            // terse-analyze: allow(AZ005): u64→f64 for a ratio readout.
            self.pairs_pruned as f64 / self.pairs_total as f64
        }
    }
}

/// Filter slots: All / Control / Data.
fn slot(filter: EndpointFilter) -> usize {
    match filter {
        EndpointFilter::All => 0,
        EndpointFilter::Control => 1,
        EndpointFilter::Data => 2,
    }
}

/// A static immunity proof set for one (netlist, program, operating
/// point) triple, consumed by the engine's Algorithm 2 loop.
#[derive(Debug)]
pub struct PrunePlan {
    t_clk: f64,
    /// Per stage × filter: immune with no value assumptions.
    value_free: Vec<[bool; 3]>,
    /// Per stage × filter: immune for traces tagged with a program index.
    tagged: Vec<[bool; 3]>,
    pairs_total: AtomicU64,
    pairs_pruned: AtomicU64,
}

impl PrunePlan {
    /// The certificate margin in sigmas.
    pub fn k_sigma(&self) -> f64 {
        K_SIGMA
    }

    /// The clock period the certificates were proven at.
    pub fn t_clk(&self) -> f64 {
        self.t_clk
    }

    /// Whether the certificates carry over to an engine clocked at
    /// `t_clk`: immunity at a period extends to any slower clock.
    pub fn applies_at(&self, t_clk: f64) -> bool {
        t_clk >= self.t_clk
    }

    /// Whether the pair `(program_index, stage)` is proven immune for
    /// the endpoint class selection `filter`. `program_index` is `None`
    /// for traces not derived from the plan's program (synthetic
    /// datapath training), which restricts the proof to the value-free
    /// table.
    pub fn immune(&self, stage: usize, filter: EndpointFilter, program_index: Option<u32>) -> bool {
        let table = if program_index.is_some() {
            &self.tagged
        } else {
            &self.value_free
        };
        table.get(stage).is_some_and(|m| m[slot(filter)])
    }

    /// Records one consulted pair.
    pub fn record(&self, pruned: bool) {
        self.pairs_total.fetch_add(1, Ordering::Relaxed);
        if pruned {
            self.pairs_pruned.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Counters accumulated so far.
    pub fn stats(&self) -> PrescreenStats {
        PrescreenStats {
            pairs_total: self.pairs_total.load(Ordering::Relaxed),
            pairs_pruned: self.pairs_pruned.load(Ordering::Relaxed),
        }
    }
}

/// Pins a named bus to "value < 2^bits": low bits vary, high bits are
/// asserted constant zero on every cycle (caller-proven invariant).
fn pin_upper_zero(c: &mut ValueConstraints, netlist: &Netlist, name: &str, bits: usize) {
    if let Ok(bus) = netlist.bus(name) {
        for (j, g) in bus.iter().enumerate() {
            c.pinned[g.index()] = Some(if j < bits { Tri::Unknown } else { Tri::Zero });
        }
    }
}

/// Per-stage × per-filter certificate evaluation: a slot is immune iff
/// *every* admitted endpoint of the stage satisfies the scaled arrival
/// bound (vacuously immune when the stage has no such endpoint).
fn certify(
    sta: &Sta<'_>,
    netlist: &Netlist,
    vals: &[Tri],
    factor: f64,
    t_clk: f64,
) -> Result<Vec<[bool; 3]>> {
    let arr = sta.masked_arrival(vals);
    let mut out = Vec::with_capacity(netlist.stage_count());
    for s in 0..netlist.stage_count() {
        let mut ok = [true; 3];
        let endpoints = netlist
            .endpoints(s)
            .map_err(|e| DtaError::Sim(e.to_string()))?;
        for &e in endpoints {
            let class = netlist.endpoint_class(e).ok_or_else(|| {
                DtaError::Sim(format!("stage endpoint {} is not a flip-flop", e.index()))
            })?;
            let a = sta.masked_endpoint_arrival(e, &arr)?;
            if a == f64::NEG_INFINITY || factor * a <= t_clk {
                continue;
            }
            ok[0] = false;
            match class {
                EndpointClass::Control => ok[1] = false,
                EndpointClass::Data => ok[2] = false,
            }
        }
        out.push(ok);
    }
    Ok(out)
}

/// Whether every indirect jump can only be a function return: `jr`
/// reads `r31` exclusively, and `r31` is written only by `jal`. When
/// this fails, a computed goto could land anywhere, so the redirect
/// target cannot be pinned.
fn call_return_discipline(program: &Program) -> bool {
    program.instructions().iter().all(|inst| {
        let jr_ok = inst.opcode != Opcode::Jr || inst.rs1 == 31;
        let link_ok = inst.opcode == Opcode::Jal || inst.destination() != Some(31);
        jr_ok && link_ok
    })
}

/// Builds a [`PrunePlan`] for a pipeline netlist, a program, and an
/// operating point.
///
/// The tagged table assumes characterization streams built from this
/// program, whose forced PC values are instruction addresses. Traces not
/// satisfying that contract must be analyzed with `program_index = None`.
///
/// # Errors
///
/// Rejects a non-positive `t_clk` and propagates netlist/STA errors.
pub fn build_plan(
    netlist: &Netlist,
    lib: &DelayLibrary,
    variation: &VariationConfig,
    t_clk: f64,
    program: &Program,
) -> Result<PrunePlan> {
    if !(t_clk > 0.0) {
        return Err(DtaError::InvalidParameter {
            name: "t_clk",
            value: t_clk,
        });
    }
    let sta = Sta::new(netlist, lib);
    let factor = 1.0 + K_SIGMA * variation.sigma_rel;

    // Value-free: forced banks are explicitly unknown; everything else
    // defaults (inputs unknown, unforced flip-flops iterate reset +
    // capture).
    let mut c = ValueConstraints::new(netlist.gate_count());
    for name in FORCED_BANKS {
        if let Ok(bus) = netlist.bus(name) {
            for g in bus {
                c.cover[g.index()] = Some(Tri::Unknown);
            }
        }
    }
    let value_free = certify(
        &sta,
        netlist,
        &stable_values_with(netlist, &c),
        factor,
        t_clk,
    )?;

    let tagged = if call_return_discipline(program) {
        // Program-counter banks: forced values are `index·4 < 4·len`, and
        // unforced IF cycles occur only during the ≤ stage_count trailing
        // drain cycles of a run, each advancing the PC by 4 (see module
        // docs). The bit-level fixpoint cannot carry this bound through
        // the incrementer, so it is pinned.
        let pc_bound = 4 * (program.len() as u64 + netlist.stage_count() as u64 + 1);
        let pc_bits = (u64::BITS - pc_bound.leading_zeros()) as usize;
        for name in ["b0.pc", "b1.pc", "b2.pc", "redirect.target"] {
            pin_upper_zero(&mut c, netlist, name, pc_bits);
        }
        certify(
            &sta,
            netlist,
            &stable_values_with(netlist, &c),
            factor,
            t_clk,
        )?
    } else {
        value_free.clone()
    };

    Ok(PrunePlan {
        t_clk,
        value_free,
        tagged,
        pairs_total: AtomicU64::new(0),
        pairs_pruned: AtomicU64::new(0),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use terse_isa::assemble;
    use terse_netlist::pipeline::{PipelineConfig, PipelineNetlist};

    const FILTERS: [EndpointFilter; 3] = [
        EndpointFilter::All,
        EndpointFilter::Control,
        EndpointFilter::Data,
    ];

    fn setup() -> (PipelineNetlist, Program) {
        let p = PipelineNetlist::build(PipelineConfig::small()).unwrap();
        (p, loop_program())
    }

    fn loop_program() -> Program {
        assemble(
            r"
                addi r1, r0, 4
            loop:
                add  r2, r2, r1
                addi r1, r1, -1
                bne  r1, r0, loop
                halt
        ",
        )
        .unwrap()
    }

    fn plan_at(p: &PipelineNetlist, prog: &Program, overclock: f64) -> PrunePlan {
        let lib = DelayLibrary::normalized_45nm();
        let t = Sta::new(p.netlist(), &lib).min_period() / overclock;
        build_plan(p.netlist(), &lib, &VariationConfig::default(), t, prog).unwrap()
    }

    #[test]
    fn plan_levels_are_nested() {
        let (p, prog) = setup();
        let plan = plan_at(&p, &prog, 1.15);
        for s in 0..p.netlist().stage_count() {
            // Anything immune value-free stays immune for tagged traces
            // (the PC pin only tightens the abstraction).
            for f in FILTERS {
                if plan.immune(s, f, None) {
                    assert!(plan.immune(s, f, Some(0)), "stage {s} {f:?}");
                }
            }
            // All-filter immunity implies both class filters.
            if plan.immune(s, EndpointFilter::All, Some(1)) {
                assert!(plan.immune(s, EndpointFilter::Control, Some(1)));
                assert!(plan.immune(s, EndpointFilter::Data, Some(1)));
            }
        }

        // On the default pipeline at the calibrated overclock, the PC pin
        // proves the IF control endpoints immune for tagged traces only:
        // untagged datapath streams never get it.
        let full = PipelineNetlist::build(PipelineConfig::default()).unwrap();
        let plan = plan_at(&full, &prog, 1.33);
        assert!(plan.immune(0, EndpointFilter::Control, Some(0)));
        assert!(!plan.immune(0, EndpointFilter::Control, None));

        // A `jr` through a register other than r31 breaks the
        // call/return discipline, so the redirect target cannot be pinned
        // and tagged traces get the value-free table.
        let computed_goto = assemble("addi r5, r0, 8\njr r5\nhalt\n").unwrap();
        assert!(!call_return_discipline(&computed_goto));
        let plan = plan_at(&full, &computed_goto, 1.33);
        for s in 0..full.netlist().stage_count() {
            for f in FILTERS {
                assert_eq!(
                    plan.immune(s, f, Some(0)),
                    plan.immune(s, f, None),
                    "stage {s} {f:?}"
                );
            }
        }
    }

    #[test]
    fn call_return_program_obeys_discipline() {
        let p = assemble(
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
        )
        .unwrap();
        assert!(call_return_discipline(&p));
    }

    #[test]
    fn jr_through_scratch_register_breaks_discipline() {
        let p = assemble("addi r5, r0, 0\njr r5\nhalt\n").unwrap();
        assert!(!call_return_discipline(&p));
    }

    #[test]
    fn relaxed_clock_proves_everything_overclocked_does_not_prove_ex() {
        let (p, prog) = setup();
        let sta = Sta::new(p.netlist(), &DelayLibrary::normalized_45nm());
        // At 2× the sign-off period every stage satisfies the
        // certificate with the 8-sigma margin.
        let relaxed = plan_at(&p, &prog, 0.5);
        for s in 0..p.netlist().stage_count() {
            assert!(
                relaxed.immune(s, EndpointFilter::All, Some(0)),
                "stage {s} at relaxed clock"
            );
        }
        // Overclocked beyond sign-off, the critical stage cannot be
        // proven immune (its nominal arrival alone exceeds the period).
        let tight = plan_at(&p, &prog, 1.15);
        let crit = sta.critical_stage();
        assert!(!tight.immune(crit, EndpointFilter::All, Some(0)));
        assert!(tight.applies_at(sta.min_period()));
        assert!(!tight.applies_at(sta.min_period() / 2.0));
    }

    #[test]
    fn counters_accumulate() {
        let (p, prog) = setup();
        let lib = DelayLibrary::normalized_45nm();
        let plan =
            build_plan(p.netlist(), &lib, &VariationConfig::default(), 100.0, &prog).unwrap();
        plan.record(true);
        plan.record(false);
        plan.record(true);
        let s = plan.stats();
        assert_eq!((s.pairs_total, s.pairs_pruned), (3, 2));
        assert!((s.ratio() - 2.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn rejects_bad_parameters() {
        let (p, prog) = setup();
        let lib = DelayLibrary::normalized_45nm();
        let v = VariationConfig::default();
        assert!(build_plan(p.netlist(), &lib, &v, -1.0, &prog).is_err());
    }
}
