//! The packed Monte Carlo grid on the *trained* instruction error model
//! against the one-cell-per-chip reference.
//!
//! `terse_sim::monte_carlo` runs each input once, records its trajectory as
//! a trace of a few shared slack classes, and replays the trace for 64
//! chips at a time against per-lane-group tables of integer thresholds;
//! `oracle::grid::error_counts_scalar` executes every `(chip, input)` cell
//! alone, asks the model for every retired instruction's probability and
//! draws with `next_f64() < p`.
//! On real MiBench kernels — many blocks, every datapath unit, loop bodies
//! that re-query the same slacks — the count matrices must agree bit for
//! bit, for the plain grid and for a checkpointed grid whose resumes cut
//! through a lane group.
//!
//! The checkpointed grid batches whole `(lane group, input)` tasks per
//! flush while its budget counts cells, so on a ragged toy grid every
//! flush interval × cell budget combination, at 1 and 2 threads, must
//! reproduce both the plain grid and the reference; and a checkpoint cut
//! chip-major through a lane group, as cell-sized batches left it, must
//! resume to the same counts.
//!
//! The marginalized grid runs the same traces and lane kernel with reps
//! in place of chips; it must equal `error_counts_marginalized_scalar`, the
//! per-cell loop with `marginal_probability`, on the MiBench kernels and
//! on the toy model.
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
use oracle::grid::{error_counts_marginalized_scalar, error_counts_scalar};
use proptest::prelude::*;
use terse::Framework;
use terse_isa::{assemble, Cfg};
use terse_sim::correction::CorrectionScheme;
use terse_sim::features::InstFeatures;
use terse_sim::monte_carlo::{
    error_counts, error_counts_marginalized, error_counts_with, InstErrorModel, MonteCarloConfig,
};
use terse_sim::{Checkpoint, SimError};
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
    let marginalized_reference =
        error_counts_marginalized_scalar(w.program(), &model, CHIPS, INPUTS, scheme, init, mc)
            .expect("marginalized scalar");
    let marginalized =
        error_counts_marginalized(w.program(), &model, CHIPS, INPUTS, scheme, init, mc)
            .expect("marginalized");
    assert_eq!(
        marginalized_reference, marginalized,
        "{name}: marginalized grid vs reference"
    );

    // Budget-sliced checkpointed run: the first slice stops 45 cells in
    // (chip 22, input 1 pending), so the next slice resumes group 0 with a
    // partial live mask.
    let mut path = std::env::temp_dir();
    path.push(format!("oracle_mc_grid_{name}_{}.bin", std::process::id()));
    let _ = std::fs::remove_file(&path);
    let ck = Checkpoint::new(&path, 37);
    let mut slices = 0;
    let resumed = loop {
        let sliced = error_counts_with(
            w.program(),
            &model,
            &chips,
            INPUTS,
            scheme,
            init,
            mc,
            Some(&ck),
            Some(45),
        );
        match sliced {
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

#[test]
fn packed_grid_matches_reference_on_typeset() {
    check_kernel("typeset");
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

/// A loop whose operand comes from the input, long enough that the toggle
/// model errs on most cells.
const LOOP: &str = "ld r5, r0, 0\nli r1, 0xFFFF\naddi r2, r0, 40\nloop: add r3, r1, r5\nxor r4, r3, r1\naddi r2, r2, -1\nbne r2, r0, loop\nhalt\n";

fn loop_init(i: usize, m: &mut terse_sim::machine::Machine) {
    m.store(0, 0x0F0F ^ (i as u32) << 3).expect("store");
}

/// Runs the checkpointed grid to completion with `budget` cells per call,
/// looping on `Interrupted`; returns the counts and the number of calls.
fn run_sliced(
    p: &terse_isa::Program,
    model: &ToggleModel,
    cs: &[ChipSample],
    inputs: usize,
    cfg: MonteCarloConfig,
    ck: &Checkpoint,
    budget: Option<usize>,
) -> (Vec<Vec<u64>>, usize) {
    let scheme = CorrectionScheme::paper_default();
    let mut calls = 0;
    loop {
        calls += 1;
        match error_counts_with(
            p,
            model,
            cs,
            inputs,
            scheme,
            loop_init,
            cfg,
            Some(ck),
            budget,
        ) {
            Ok(counts) => return (counts, calls),
            Err(SimError::Interrupted { completed, total }) => {
                assert!(
                    completed < total,
                    "an interrupted call leaves cells pending"
                );
            }
            Err(e) => panic!("sliced grid: {e}"),
        }
    }
}

/// Every flush interval (in tasks) × cell budget, at 1 and 2 threads, on a
/// 70-chip × 2-input grid: one full lane group and a ragged 6-lane tail.
#[test]
fn checkpointed_grid_matches_reference_for_every_batch_shape() {
    let p = assemble(LOOP).expect("assembles");
    let cs = sample_chips(CHIPS, 0x5EED);
    let model = ToggleModel {
        vars: cs[0].shared_draw().len(),
    };
    let cfg = MonteCarloConfig {
        seed: 0xBA7C,
        ..MonteCarloConfig::default()
    };
    let scheme = CorrectionScheme::paper_default();
    let reference =
        error_counts_scalar(&p, &model, &cs, INPUTS, scheme, loop_init, cfg).expect("scalar");
    let plain = error_counts(&p, &model, &cs, INPUTS, scheme, loop_init, cfg).expect("packed");
    assert_eq!(reference, plain, "packed grid vs reference");
    assert!(
        plain.iter().flatten().any(|&c| c > 0),
        "the toy grid must err"
    );
    let cells = CHIPS * INPUTS;
    for threads in [1, 2] {
        let pool = rayon::ThreadPoolBuilder::new()
            .num_threads(threads)
            .build()
            .expect("pool");
        for every_n in [1, 2, 3, 7, 1000] {
            for budget in [None, Some(1), Some(5), Some(64)] {
                let mut path = std::env::temp_dir();
                path.push(format!(
                    "oracle_mc_shapes_{threads}_{every_n}_{budget:?}_{}.bin",
                    std::process::id()
                ));
                let _ = std::fs::remove_file(&path);
                let ck = Checkpoint::new(&path, every_n);
                let (counts, calls) =
                    pool.install(|| run_sliced(&p, &model, &cs, INPUTS, cfg, &ck, budget));
                let shape = format!("threads {threads}, every_n {every_n}, budget {budget:?}");
                assert_eq!(counts, plain, "{shape}: sliced grid vs plain grid");
                assert_eq!(counts, reference, "{shape}: sliced grid vs reference");
                assert_eq!(
                    calls,
                    budget.map_or(1, |b| cells.div_ceil(b)),
                    "{shape}: the budget counts cells"
                );
                assert!(
                    !path.exists(),
                    "{shape}: the finished run removes its checkpoint"
                );
            }
        }
    }
}

/// The marginalized grid against its per-cell reference on the toy loop,
/// for rep counts on both sides of the 64-lane boundary.
#[test]
fn marginalized_grid_matches_reference() {
    let p = assemble(LOOP).expect("assembles");
    let cs = sample_chips(1, 0x3A5);
    let model = ToggleModel {
        vars: cs[0].shared_draw().len(),
    };
    let scheme = CorrectionScheme::paper_default();
    for (reps, inputs, seed) in [
        (1, 1, 1u64),
        (63, 2, 2),
        (64, 3, 3),
        (70, 2, 4),
        (130, 1, 5),
    ] {
        let cfg = MonteCarloConfig {
            seed,
            ..MonteCarloConfig::default()
        };
        let reference =
            error_counts_marginalized_scalar(&p, &model, reps, inputs, scheme, loop_init, cfg)
                .expect("scalar");
        let packed = error_counts_marginalized(&p, &model, reps, inputs, scheme, loop_init, cfg)
            .expect("packed");
        assert_eq!(reference, packed, "{reps} reps x {inputs} inputs");
        assert_eq!(packed.len(), reps * inputs);
        assert!(packed.iter().any(|&c| c > 0), "the toy grid must err");
    }
}

/// The `TERSEMC1` context hash, as the format defines it: FNV-1a in shape
/// with multiplier `0x1000_0000_01b3` over the little-endian seed, budget,
/// data-memory words, chips, inputs and program length.
fn mc_context(cfg: MonteCarloConfig, chips: usize, inputs: usize, program_len: usize) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for v in [
        cfg.seed,
        cfg.budget,
        cfg.dmem_words as u64,
        chips as u64,
        inputs as u64,
        program_len as u64,
    ] {
        for b in v.to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x1000_0000_01b3);
        }
    }
    h
}

/// A checkpoint written with chip-major cell batches of 4 — cells 0..4
/// (chips 0–1, both inputs) of a 64 × 2 grid — cuts through both of the
/// grid's tasks; the resumed run finishes them with partial live masks.
#[test]
fn cell_batch_checkpoint_resumes_bitwise() {
    const GRID_CHIPS: usize = 64;
    let p = assemble(LOOP).expect("assembles");
    let cs = sample_chips(GRID_CHIPS, 0xCE11);
    let model = ToggleModel {
        vars: cs[0].shared_draw().len(),
    };
    let cfg = MonteCarloConfig::default();
    let scheme = CorrectionScheme::paper_default();
    let reference =
        error_counts_scalar(&p, &model, &cs, INPUTS, scheme, loop_init, cfg).expect("scalar");
    let plain = error_counts(&p, &model, &cs, INPUTS, scheme, loop_init, cfg).expect("packed");
    assert_eq!(reference, plain, "packed grid vs reference");
    // The TERSEMC1 image, word by word.
    let done: Vec<usize> = (0..4).collect();
    let mut image = b"TERSEMC1".to_vec();
    for word in [
        mc_context(cfg, GRID_CHIPS, INPUTS, p.len()),
        (GRID_CHIPS * INPUTS) as u64,
        done.len() as u64,
    ] {
        image.extend_from_slice(&word.to_le_bytes());
    }
    for &cell in &done {
        image.extend_from_slice(&(cell as u64).to_le_bytes());
        image.extend_from_slice(&plain[cell / INPUTS][cell % INPUTS].to_le_bytes());
    }
    let mut path = std::env::temp_dir();
    path.push(format!("oracle_mc_cell_batch_{}.bin", std::process::id()));
    let _ = std::fs::remove_file(&path);
    terse_analyze::integrity::store_checkpoint(&path, &image).expect("store image");
    let ck = Checkpoint::new(&path, 4);
    // A one-cell slice proves the image loaded: 4 stored + 1 computed.
    let sliced = error_counts_with(
        &p,
        &model,
        &cs,
        INPUTS,
        scheme,
        loop_init,
        cfg,
        Some(&ck),
        Some(1),
    );
    assert!(
        matches!(
            sliced,
            Err(SimError::Interrupted {
                completed: 5,
                total: 128
            })
        ),
        "{sliced:?}"
    );
    let (resumed, calls) = run_sliced(&p, &model, &cs, INPUTS, cfg, &ck, None);
    assert_eq!(calls, 1);
    assert_eq!(resumed, plain, "resumed grid vs plain grid");
    assert_eq!(resumed, reference, "resumed grid vs reference");
    assert!(!path.exists(), "the finished run removes its checkpoint");
}
