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
//! normal-bus classes. Bus-state handling is therefore checked by the
//! toggle-sensitive toy model of `differential_packed.rs`; this suite
//! checks classes, tables and lane alignment on the real model.

use oracle::grid::error_counts_scalar;
use terse::Framework;
use terse_isa::Cfg;
use terse_sim::monte_carlo::{
    error_counts, error_counts_checkpointed, slack_class_stats, McCheckpoint, MonteCarloConfig,
};
use terse_sim::SimError;
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
