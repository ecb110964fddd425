//! The packed Monte Carlo grid on the *trained* instruction error model
//! against the one-cell-per-chip reference.
//!
//! `terse_sim::monte_carlo` resolves each call's queries to a few shared
//! slack classes and reads chip probabilities from per-lane-group tables;
//! `oracle::grid::error_counts_scalar` executes every `(chip, input)` cell
//! alone and asks the model for every retired instruction's probability.
//! On real MiBench kernels — many blocks, every datapath unit, loop bodies
//! that re-query the same slacks — the count matrices must agree bit for
//! bit, for the plain grid and for a checkpointed grid whose resumes cut
//! through a lane group.
//!
//! The post-error bus changes these kernels' slack keys (logic-unit toggle
//! levels) but not their slacks: a logic instruction's datapath slack lies
//! so far above its control slack that the statistical min returns the
//! control slack at every toggle level, so those keys intern into the
//! normal-bus classes. Bus-state handling is therefore checked by a
//! toggle-sensitive toy model (`ToggleModel`, under random chip
//! populations straddling the 64-lane group boundary); the MiBench cases
//! check classes, tables and lane alignment on the real model.

use oracle::gen;
use oracle::grid::error_counts_scalar;
use proptest::prelude::*;
use terse::Framework;
use terse_isa::{assemble, Cfg};
use terse_sim::correction::CorrectionScheme;
use terse_sim::features::InstFeatures;
use terse_sim::monte_carlo::{
    error_counts, error_counts_checkpointed, slack_class_stats, InstErrorModel, McCheckpoint,
    MonteCarloConfig,
};
use terse_sim::SimError;
use terse_sta::delay::DelayLibrary;
use terse_sta::variation::{ChipSample, VariationModel};
use terse_sta::CanonicalRv;
use terse_stats::rng::Xoshiro256;
use terse_workloads::DatasetSize;

/// 70 chips: one full 64-lane group plus a ragged 6-lane tail.
const CHIPS: usize = 70;
const INPUTS: usize = 2;

fn check_kernel(name: &str) {
    let spec = terse_workloads::by_name(name).expect("kernel exists");
    let w = spec
        .workload(DatasetSize::Small, INPUTS, 0x5EED)
        .expect("workload");
    let fw = Framework::builder()
        .samples(INPUTS)
        .build()
        .expect("framework");
    let cfg = Cfg::from_program(w.program());
    let profiles = fw.profile_workload(&w, &cfg).expect("profiles");
    let model = fw.train_model(&w, &cfg, &profiles).expect("model");
    let chips = fw.sample_chips(CHIPS, 0xC41F5).expect("chips");
    let mc = MonteCarloConfig {
        seed: 0xD1FF,
        ..MonteCarloConfig::default()
    };
    let init = |i: usize, m: &mut terse_sim::Machine| w.init_input(i, m);
    let scheme = fw.correction();

    let reference =
        error_counts_scalar(w.program(), &model, &chips, INPUTS, scheme, init, mc).expect("scalar");
    let packed =
        error_counts(w.program(), &model, &chips, INPUTS, scheme, init, mc).expect("packed");
    assert_eq!(reference, packed, "{name}: packed grid vs reference");
    assert!(
        packed.iter().flatten().any(|&c| c > 0),
        "{name}: the kernel must err at the default operating point"
    );
    let stats = slack_class_stats(w.program(), &model, INPUTS, scheme, init, mc).expect("stats");
    assert!(
        0 < stats.classes && stats.classes <= stats.queries,
        "{name}: {stats:?}"
    );

    // Budget-sliced checkpointed run: the first slice stops 45 cells in
    // (chip 22, input 1 pending), so the next slice resumes group 0 with a
    // partial live mask.
    let mut path = std::env::temp_dir();
    path.push(format!("oracle_mc_grid_{name}_{}.bin", std::process::id()));
    let _ = std::fs::remove_file(&path);
    let mut slices = 0;
    let resumed = loop {
        let ck = McCheckpoint::new(&path, 37).with_cell_budget(45);
        match error_counts_checkpointed(w.program(), &model, &chips, INPUTS, scheme, init, mc, &ck)
        {
            Ok(counts) => break counts,
            Err(SimError::Interrupted { .. }) => slices += 1,
            Err(e) => panic!("{name}: {e}"),
        }
    };
    assert!(slices >= 2, "{name}: the grid must have been resumed");
    assert_eq!(reference, resumed, "{name}: resumed grid vs reference");
    assert!(
        !path.exists(),
        "{name}: the finished run removes its checkpoint"
    );
}

#[test]
fn packed_grid_matches_reference_on_bitcount() {
    check_kernel("bitcount");
}

#[test]
fn packed_grid_matches_reference_on_dijkstra() {
    check_kernel("dijkstra");
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
