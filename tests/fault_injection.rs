//! Fault-injection suite (runs with `--features failpoints`).
//!
//! Every named fail point compiled into the workspace is driven here, and
//! every injected fault must surface as a **typed error** at the crate
//! boundary — never a panic, never a silently wrong result. The catalog
//! (see DESIGN.md §12):
//!
//! | fail point        | site                               | injected error |
//! |-------------------|------------------------------------|----------------|
//! | `isa::assemble`   | assembly parsing                   | `IsaError::Syntax` |
//! | `netlist::finish` | netlist construction               | `NetlistError::CombinationalCycle` |
//! | `sim::profile`    | execution profiling                | `SimError::InstructionBudgetExhausted` |
//! | `sim::cosim`      | gate-level co-simulation           | `SimError::Netlist` |
//! | `sim::mc_cell`    | Monte Carlo grid cell              | `SimError::InstructionBudgetExhausted` |
//! | `sta::statmin`    | statistical-min reduction          | `StaError::MalformedPath` |
//! | `stats::lu`       | LU factorization                   | `StatsError::SingularMatrix` |
//! | `stats::cholesky` | Cholesky factorization             | `StatsError::NotPositiveDefinite` |
//! | `errmodel::solve` | marginal-probability solver        | `ErrModelError::SingularSystem` |
//! | `terse::estimate` | estimation pipeline entry          | `TerseError::Config` |
//!
//! Tests hold a [`FailScenario`] for their whole body: it serializes
//! scenarios across test threads and clears the registry on entry and drop,
//! so points configured here can never leak into other tests.

use failpoints::FailScenario;
use terse::{Framework, TerseError, Workload};
use terse_isa::Cfg;
use terse_sim::correction::CorrectionScheme;
use terse_sim::monte_carlo::{self, InstErrorModel, MonteCarloConfig};
use terse_sim::{InstFeatures, Profiler, SimError};
use terse_stats::{Matrix, StatsError};

fn small_framework() -> Framework {
    Framework::builder()
        .samples(2)
        .profiler(Profiler {
            max_feature_samples: 8,
            budget: 100_000,
            dmem_words: 4096,
            seed: 1,
        })
        .build()
        .expect("framework builds with no faults configured")
}

fn loop_workload() -> Workload {
    Workload::from_asm(
        "fi-loop",
        r"
            addi r1, r0, 5
            li   r2, 0x1234
        loop:
            add  r3, r3, r2
            addi r1, r1, -1
            bne  r1, r0, loop
            halt
    ",
    )
    .expect("assembles with no faults configured")
}

#[test]
fn ingestion_faults_are_typed_errors() {
    let _scenario = FailScenario::setup();
    // Assembly parsing.
    failpoints::cfg("isa::assemble", "return").unwrap();
    let err = Workload::from_asm("fi", "halt\n").unwrap_err();
    assert!(matches!(err, TerseError::Isa(_)), "{err}");
    assert!(err.to_string().contains("injected"), "{err}");
    failpoints::remove("isa::assemble");
    // Netlist construction (hit while the builder assembles the pipeline).
    failpoints::cfg("netlist::finish", "return").unwrap();
    let err = Framework::builder().build().unwrap_err();
    assert!(matches!(err, TerseError::Netlist(_)), "{err}");
    failpoints::remove("netlist::finish");
    // With every point removed the same calls succeed.
    assert!(Workload::from_asm("fi", "halt\n").is_ok());
    assert!(Framework::builder().build().is_ok());
}

#[test]
fn simulation_faults_are_typed_errors() {
    let _scenario = FailScenario::setup();
    let fw = small_framework();
    let w = loop_workload();
    let cfg = Cfg::from_program(w.program());
    // Trace ingestion / profiling.
    failpoints::cfg("sim::profile", "return").unwrap();
    let err = fw.profile_workload(&w, &cfg).unwrap_err();
    assert!(
        matches!(
            err,
            TerseError::Sim(SimError::InstructionBudgetExhausted { budget: 0 })
        ),
        "{err}"
    );
    failpoints::remove("sim::profile");
    let profiles = fw.profile_workload(&w, &cfg).expect("profiling recovers");
    // Gate-level co-simulation (hit during control characterization).
    failpoints::cfg("sim::cosim", "return").unwrap();
    let err = fw.train_model(&w, &cfg, &profiles).unwrap_err();
    assert!(matches!(err, TerseError::Dta(_)), "{err}");
    assert!(err.to_string().contains("injected"), "{err}");
    failpoints::remove("sim::cosim");
    // Statistical-min reduction (hit during DTA training).
    failpoints::cfg("sta::statmin", "return").unwrap();
    let err = fw.train_model(&w, &cfg, &profiles).unwrap_err();
    assert!(err.to_string().contains("injected"), "{err}");
    failpoints::remove("sta::statmin");
    assert!(fw.train_model(&w, &cfg, &profiles).is_ok());
}

/// Zero-probability toy model for driving the Monte Carlo grid: no
/// instruction has a slack, so none can err.
struct NeverFails;
impl InstErrorModel for NeverFails {
    type SlackKey = ();
    fn slack_key(&self, _prev: Option<u32>, _index: u32, _f: &InstFeatures) {}
    fn slack(&self, _key: ()) -> Option<terse_sta::CanonicalRv> {
        None
    }
}

#[test]
fn monte_carlo_cell_faults_are_typed_errors() {
    let _scenario = FailScenario::setup();
    let w = loop_workload();
    failpoints::cfg("sim::mc_cell", "return").unwrap();
    let err = monte_carlo::error_counts_marginalized(
        w.program(),
        &NeverFails,
        2,
        1,
        CorrectionScheme::paper_default(),
        |_, _| {},
        MonteCarloConfig::default(),
    )
    .unwrap_err();
    assert!(
        matches!(err, SimError::InstructionBudgetExhausted { budget: 0 }),
        "{err}"
    );
    failpoints::remove("sim::mc_cell");
    let counts = monte_carlo::error_counts_marginalized(
        w.program(),
        &NeverFails,
        2,
        1,
        CorrectionScheme::paper_default(),
        |_, _| {},
        MonteCarloConfig::default(),
    )
    .expect("recovers once the point is removed");
    assert_eq!(counts, vec![0, 0]);
}

#[test]
fn linear_algebra_faults_are_typed_errors() {
    let _scenario = FailScenario::setup();
    let spd = Matrix::from_rows(&[&[2.0, 0.5], &[0.5, 1.0]]).unwrap();
    // LU factorization.
    failpoints::cfg("stats::lu", "return").unwrap();
    assert!(matches!(spd.lu(), Err(StatsError::SingularMatrix)));
    failpoints::remove("stats::lu");
    assert!(spd.lu().is_ok());
    // Cholesky factorization.
    failpoints::cfg("stats::cholesky", "return").unwrap();
    assert!(matches!(
        spd.cholesky(),
        Err(StatsError::NotPositiveDefinite { .. })
    ));
    failpoints::remove("stats::cholesky");
    assert!(spd.cholesky().is_ok());
}

#[test]
fn estimation_faults_are_typed_errors() {
    let _scenario = FailScenario::setup();
    let fw = small_framework();
    let w = loop_workload();
    let cfg = Cfg::from_program(w.program());
    let profiles = fw.profile_workload(&w, &cfg).expect("profiles");
    let model = fw.train_model(&w, &cfg, &profiles).expect("model");
    // Marginal solver.
    failpoints::cfg("errmodel::solve", "return").unwrap();
    let err = fw.estimate(&w, &cfg, &profiles, &model).unwrap_err();
    assert!(
        matches!(
            err,
            TerseError::ErrModel(terse_errmodel::ErrModelError::SingularSystem { .. })
        ),
        "{err}"
    );
    failpoints::remove("errmodel::solve");
    // LU failure inside the per-SCC system solve (the loop block is a
    // cyclic SCC, so the solver genuinely reaches the factorization).
    failpoints::cfg("stats::lu", "return").unwrap();
    let err = fw.estimate(&w, &cfg, &profiles, &model).unwrap_err();
    assert!(matches!(err, TerseError::ErrModel(_)), "{err}");
    failpoints::remove("stats::lu");
    // Estimation pipeline entry.
    failpoints::cfg("terse::estimate", "return").unwrap();
    let err = fw.estimate(&w, &cfg, &profiles, &model).unwrap_err();
    assert!(matches!(err, TerseError::Config(_)), "{err}");
    assert!(err.to_string().contains("injected"), "{err}");
    failpoints::remove("terse::estimate");
    // Full recovery once everything is removed.
    assert!(fw.estimate(&w, &cfg, &profiles, &model).is_ok());
}

#[test]
fn transient_faults_recover() {
    let _scenario = FailScenario::setup();
    let fw = small_framework();
    let w = loop_workload();
    let cfg = Cfg::from_program(w.program());
    // `1*return`: exactly one profiling call fails, the next succeeds —
    // the shape of a transient ingestion fault.
    failpoints::cfg("sim::profile", "1*return").unwrap();
    let before = failpoints::hit_count();
    assert!(fw.profile_workload(&w, &cfg).is_err());
    assert!(fw.profile_workload(&w, &cfg).is_ok());
    assert_eq!(failpoints::hit_count(), before + 1);
}
