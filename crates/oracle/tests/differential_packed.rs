//! Differential suite for the bit-parallel layer: the 64-lane packed
//! simulator and the compiled op tape against the scalar gate-by-gate
//! simulator, and the lane-grouped Monte Carlo grid against its scalar
//! reference.
//!
//! Lane packing and tape compilation are *exact* optimizations — not
//! approximations — so every property here demands **bitwise** agreement:
//! `BitSet` equality on per-lane activation sets, boolean equality on every
//! net in every lane, and `u64` equality on every Monte Carlo cell count.
//! Ragged populations (lanes < 64, chips % 64 ≠ 0) and per-lane forced
//! flip-flop writes are first-class cases, not afterthoughts.

use oracle::gen;
use oracle::grid::error_counts_scalar;
use proptest::prelude::*;
use terse_isa::assemble;
use terse_netlist::gate::GateKind;
use terse_netlist::pipeline::{PipelineConfig, PipelineNetlist};
use terse_netlist::sim::{SimStrategy, Simulator};
use terse_netlist::PackedSimulator;
use terse_sim::correction::CorrectionScheme;
use terse_sim::features::InstFeatures;
use terse_sim::monte_carlo::{error_counts, InstErrorModel, MonteCarloConfig};
use terse_sta::delay::DelayLibrary;
use terse_sta::variation::{ChipSample, VariationModel};
use terse_sta::CanonicalRv;
use terse_stats::rng::Xoshiro256;

const ALL_STRATEGIES: [SimStrategy; 4] = [
    SimStrategy::FullScan,
    SimStrategy::EventDriven,
    SimStrategy::CompiledTape,
    SimStrategy::Packed,
];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// A packed simulator carrying `lanes` independent stimuli (including
    /// ragged lane counts below the 64-lane word width) is bitwise
    /// identical, lane for lane, to that many scalar simulators — toggle
    /// sets and every gate value, every cycle, under random per-lane
    /// flip-flop forcing.
    #[test]
    fn packed_lanes_match_per_lane_scalar_runs(
        seed in 0u64..1_000_000,
        gates in 1usize..12,
        cycles in 2usize..8,
        lanes in prop_oneof![1usize..8, Just(63usize), Just(64usize)],
    ) {
        let n = gen::random_netlist(seed, gates);
        let mut packed = PackedSimulator::new(&n, lanes);
        let mut scalars: Vec<Simulator<'_>> = (0..lanes)
            .map(|_| Simulator::with_strategy(&n, SimStrategy::FullScan))
            .collect();
        let mut rng = Xoshiro256::seed_from_u64(seed ^ 0x9ACC);
        for cycle in 0..cycles {
            for g in n.gate_ids() {
                match n.kind(g) {
                    GateKind::FlipFlop => {
                        // Force a random subset of lanes, each with its own
                        // bit — the other lanes keep their captured state.
                        let vals = rng.next_u64();
                        let mask = rng.next_u64() & rng.next_u64();
                        for (lane, scalar) in scalars.iter_mut().enumerate() {
                            if mask >> lane & 1 == 1 {
                                let v = vals >> lane & 1 == 1;
                                packed.force_ff(g, lane, v);
                                scalar.force_ff(g, v);
                            }
                        }
                    }
                    GateKind::Input => {
                        let vals = rng.next_u64();
                        for (lane, scalar) in scalars.iter_mut().enumerate() {
                            let v = vals >> lane & 1 == 1;
                            packed.set_input(g, lane, v);
                            scalar.set_input(g, v);
                        }
                    }
                    _ => {}
                }
            }
            packed.step();
            for (lane, scalar) in scalars.iter_mut().enumerate() {
                let want = scalar.step();
                let got = packed.lane_activation(lane);
                prop_assert_eq!(
                    &want, &got,
                    "cycle {}, lane {}: activation sets diverged", cycle, lane
                );
                for g in n.gate_ids() {
                    prop_assert_eq!(
                        scalar.value(g), packed.value(g, lane),
                        "cycle {}, lane {}: value of {:?} diverged", cycle, lane, g
                    );
                }
            }
        }
    }

    /// All four gate-evaluation strategies — scalar full scan, scalar
    /// event-driven, compiled-tape full sweep, and the packed dirty-span
    /// tape — produce identical activation sets and values on random
    /// netlists, while the tape sweep evaluates exactly as many ops as the
    /// full scan and the dirty-span variant never evaluates more.
    #[test]
    fn all_strategies_agree_on_random_netlists(
        seed in 0u64..1_000_000,
        gates in 1usize..14,
        cycles in 2usize..10,
    ) {
        let n = gen::random_netlist(seed, gates);
        let mut sims: Vec<Simulator<'_>> = ALL_STRATEGIES
            .iter()
            .map(|&s| Simulator::with_strategy(&n, s))
            .collect();
        let mut rng = Xoshiro256::seed_from_u64(seed ^ 0x57A7);
        for cycle in 0..cycles {
            for g in n.gate_ids() {
                match n.kind(g) {
                    GateKind::FlipFlop if rng.next_below(3) == 0 => {
                        let v = rng.next_u64() & 1 == 1;
                        for s in &mut sims {
                            s.force_ff(g, v);
                        }
                    }
                    GateKind::Input => {
                        let v = rng.next_u64() & 1 == 1;
                        for s in &mut sims {
                            s.set_input(g, v);
                        }
                    }
                    _ => {}
                }
            }
            let reference = sims[0].step();
            for (k, s) in sims.iter_mut().enumerate().skip(1) {
                let got = s.step();
                prop_assert_eq!(
                    &reference, &got,
                    "cycle {}, strategy {:?}: activations diverged", cycle, ALL_STRATEGIES[k]
                );
            }
            for g in n.gate_ids() {
                for (k, s) in sims.iter().enumerate().skip(1) {
                    prop_assert_eq!(
                        sims[0].value(g), s.value(g),
                        "cycle {}, strategy {:?}: value of {:?} diverged",
                        cycle, ALL_STRATEGIES[k], g
                    );
                }
            }
        }
        // Tape position count == topo order length, so the full tape sweep
        // performs exactly the full scan's work; dirty spans only subtract.
        prop_assert_eq!(sims[2].gates_evaluated(), sims[0].gates_evaluated());
        prop_assert!(sims[3].gates_evaluated() <= sims[2].gates_evaluated());
    }
}

/// A tiny model whose slack depends on the toggle features and, through a
/// shared-component sensitivity, on the chip — so lane divergence
/// (post-error flushed-bus features) matters. `vars` is the chip
/// population's shared-variable count.
struct ToggleModel {
    vars: usize,
}
impl InstErrorModel for ToggleModel {
    type SlackKey = (u8, u8, u8);
    fn slack_key(&self, _prev: Option<u32>, _index: u32, f: &InstFeatures) -> (u8, u8, u8) {
        (f.toggle_a, f.toggle_b, f.carry_chain)
    }
    fn slack(&self, (a, b, carry): (u8, u8, u8)) -> Option<CanonicalRv> {
        // Equal toggle sums share a mean and a residual, so distinct keys
        // share classes; the sign of the chip sensitivity still tells
        // `(a, b)` from `(b, a)`, so interning must compare every component.
        let mut coeffs = vec![0.0; self.vars];
        if let Some(c) = coeffs.first_mut() {
            *c = if a >= b { 2.5 } else { -2.5 };
        }
        let mean = 36.0 - f64::from(a) - f64::from(b) - f64::from(carry) / 4.0;
        Some(CanonicalRv::with_sensitivities(mean, coeffs, 5.0))
    }
}

fn sample_chips(n: usize, seed: u64) -> Vec<ChipSample> {
    let netlist = gen::random_netlist(7, 4);
    let lib = DelayLibrary::normalized_45nm();
    let model = VariationModel::new(&netlist, &lib, gen::random_variation_config(seed))
        .expect("variation model");
    let mut rng = Xoshiro256::seed_from_u64(seed);
    (0..n).map(|_| model.sample_chip(&mut rng)).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// The lane-grouped Monte Carlo grid is bitwise identical to the scalar
    /// cell-per-chip reference across ragged populations straddling the
    /// 64-lane group boundary.
    #[test]
    fn packed_mc_grid_matches_scalar_reference(
        chips in prop_oneof![1usize..4, 62usize..67],
        inputs in 1usize..3,
        seed in 0u64..1_000_000,
    ) {
        let p = assemble(
            "li r1, 0xFFFF\nadd r2, r1, r1\nxor r3, r2, r1\nadd r4, r3, r2\nhalt\n",
        )
        .expect("assembles");
        let cs = sample_chips(chips, seed ^ 0xC41F);
        let cfg = MonteCarloConfig { seed, ..MonteCarloConfig::default() };
        let scheme = CorrectionScheme::paper_default();
        let init = |i: usize, m: &mut terse_sim::machine::Machine| {
            m.store(0, i as u32).expect("store");
        };
        let model = ToggleModel { vars: cs[0].shared_draw().len() };
        let scalar = error_counts_scalar(&p, &model, &cs, inputs, scheme, init, cfg)
            .expect("scalar grid");
        let packed = error_counts(&p, &model, &cs, inputs, scheme, init, cfg)
            .expect("packed grid");
        prop_assert_eq!(scalar, packed, "lane packing must be bitwise exact");
    }
}

/// Per-lane forced flip-flop bus writes on the real pipeline netlist: 64
/// packed lanes each carrying a distinct instruction-bank state are bitwise
/// identical to 64 scalar co-simulation style runs.
#[test]
fn forced_ff_bus_writes_are_lane_exact_on_the_pipeline() {
    let p = PipelineNetlist::build(PipelineConfig::default()).expect("pipeline");
    let n = p.netlist();
    let lanes = 64usize;
    let mut packed = PackedSimulator::new(n, lanes);
    let mut scalars: Vec<Simulator<'_>> = (0..lanes)
        .map(|_| Simulator::with_strategy(n, SimStrategy::EventDriven))
        .collect();
    let mut rng = Xoshiro256::seed_from_u64(0xB00B5);
    for cycle in 0..6 {
        for (lane, scalar) in scalars.iter_mut().enumerate() {
            // Distinct per-lane operand and control state, as a co-simulator
            // would force between clock edges.
            let a = rng.next_u64() & 0xFFFF_FFFF;
            let b = rng.next_u64() & 0xFFFF_FFFF;
            let ctl = rng.next_u64() & 0xFF;
            packed.force_ff_bus("b3.op_a", lane, a).expect("bus");
            packed.force_ff_bus("b3.op_b", lane, b).expect("bus");
            packed.force_ff_bus("b3.ex_ctl", lane, ctl).expect("bus");
            scalar.force_ff_bus("b3.op_a", a).expect("bus");
            scalar.force_ff_bus("b3.op_b", b).expect("bus");
            scalar.force_ff_bus("b3.ex_ctl", ctl).expect("bus");
        }
        packed.step();
        let mut diverged_lanes = 0usize;
        for (lane, scalar) in scalars.iter_mut().enumerate() {
            let want = scalar.step();
            let got = packed.lane_activation(lane);
            assert_eq!(want, got, "cycle {cycle}, lane {lane}: activations");
            if !want.is_empty() {
                diverged_lanes += 1;
            }
            // Spot-check the captured ME-stage result bank in every lane.
            assert_eq!(
                scalar.bus_value("b4.alu").expect("bus"),
                packed.bus_value("b4.alu", lane).expect("bus"),
                "cycle {cycle}, lane {lane}: b4.alu bus value"
            );
        }
        assert!(diverged_lanes > 0, "stimulus must activate logic");
    }
}
