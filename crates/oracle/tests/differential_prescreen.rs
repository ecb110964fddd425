//! Differential suite for the static error-immunity pre-screen.
//!
//! Training always attaches a `PrunePlan`, which marks (instruction, stage)
//! pairs whose certified slack bound proves them immune at the working
//! clock, so their per-stage DTS work is skipped. Two references from
//! `oracle::prescreen` check it: the certificate check, which computes
//! every skipped pair with a plan-free engine and fails if a certificate is
//! ever violated, and the unpruned model, trained with no plan attached.
//! Properties, checked over seeded loop programs at the overclocks in
//! `OVERCLOCKS` through the *public* control-characterization path:
//!
//! * **Immunity soundness** — the certificate check always returns `Ok`:
//!   no statically-certified-immune pair is ever observed critical.
//! * **Prune ≡ certificate check** — the control DTS table produced with
//!   pruning and the one the check assembles from every recomputed pair
//!   are bitwise identical (both drop the certified stages from the
//!   statistical min), the pair counts agree, and the plan actually prunes
//!   a meaningful fraction of pairs.
//! * **Prune vs unpruned** — against the unpruned table, no pruned slack's
//!   mean drops, the per-instruction shift in mean and σ stays within a
//!   recorded bound, and where the unpruned slack sits less than `k_sigma`
//!   standard deviations above zero, pruning leaves its mean, σ and
//!   independent residual bitwise unchanged and moves its sensitivity
//!   coefficients by at most 1e-90.
//!
//! One pipeline netlist is shared across cases (it does not depend on the
//! seed); programs, plans, and engines are per case. The engines run the
//! production configuration, the one the framework builds.
//!
//! The remaining tests run the same two references on one co-simulated
//! program trace, on a full `Framework::run`, and on the 12 MiBench
//! kernels through the default framework: the certificate check passes
//! and reproduces the trained tables and pair counts, the pair counts
//! match the recorded ones, a digest of λ, the control table and the
//! datapath table matches a recorded value at both overclocks, and the
//! unpruned model gives bitwise the same λ samples and control means and
//! σs.

use oracle::prescreen::{check_training, unpruned_model, CertificateCheck, CheckedTraining};
use proptest::prelude::*;
use std::fmt::Write as _;
use std::sync::{Arc, OnceLock};
use terse::{ErrorRateEstimate, Framework, OperatingConfig, Workload};
use terse_dta::control::characterization_edges;
use terse_dta::datapath::{TRAINED_UNITS, TRAINING_LEVELS};
use terse_dta::{
    build_plan, characterize_control, ControlDtsTable, DtsEngine, EndpointFilter,
    InstructionErrorModel,
};
use terse_isa::{assemble, BlockId, Cfg, Program};
use terse_netlist::pipeline::{PipelineConfig, PipelineNetlist};
use terse_sim::cosim::CoSim;
use terse_sim::machine::Machine;
use terse_sim::profile::Profiler;
use terse_sta::analysis::Sta;
use terse_sta::delay::{DelayLibrary, TimingConstraints};
use terse_sta::variation::VariationConfig;
use terse_sta::CanonicalRv;
use terse_workloads::DatasetSize;

fn pipeline() -> &'static PipelineNetlist {
    static P: OnceLock<PipelineNetlist> = OnceLock::new();
    P.get_or_init(|| PipelineNetlist::build(PipelineConfig::small()).expect("small pipeline"))
}

/// An engine clocked at the sign-off period divided by `overclock`.
fn engine(p: &PipelineNetlist, overclock: f64) -> DtsEngine<'_> {
    let lib = DelayLibrary::normalized_45nm();
    let sta = Sta::new(p.netlist(), &lib);
    let t = sta.min_period() / overclock;
    DtsEngine::new(
        p.netlist(),
        lib,
        VariationConfig::default(),
        TimingConstraints::with_period(t),
    )
    .expect("valid engine inputs")
}

/// A seeded counted loop: init, a chain of ALU ops, decrement, back-branch,
/// halt. Shaped like the paper's kernel loops; every seed varies the trip
/// count, chain length, opcode mix, and operand registers.
fn loop_program(seed: u64, chain: usize) -> Program {
    const OPS: [&str; 4] = ["add", "xor", "or", "and"];
    let mut rng = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(1);
    let mut next = move || {
        rng ^= rng << 13;
        rng ^= rng >> 7;
        rng ^= rng << 17;
        rng
    };
    let mut src = String::new();
    let _ = writeln!(src, "addi r1, r0, {}", 1 + next() % 7);
    let _ = writeln!(src, "addi r2, r0, {}", next() % 64);
    src.push_str("loop:\n");
    for _ in 0..chain.max(1) {
        let op = OPS[(next() % 4) as usize];
        let rs2 = 1 + next() % 2; // r1 or r2
        let _ = writeln!(src, "{op} r3, r3, r{rs2}");
    }
    src.push_str("addi r1, r1, -1\nbne r1, r0, loop\nhalt\n");
    assemble(&src).expect("generated loop assembles")
}

/// Every static CFG edge, plus the program-entry pseudo-edge.
fn all_edges(cfg: &Cfg) -> Vec<(Option<BlockId>, BlockId)> {
    let mut profiled: Vec<(BlockId, BlockId)> = Vec::new();
    for (i, _) in cfg.blocks().iter().enumerate() {
        let b = cfg.block_containing(cfg.blocks()[i].range().start);
        for &s in cfg.successors(b) {
            profiled.push((b, s));
        }
    }
    characterization_edges(cfg, profiled)
}

fn assert_rv_bitwise_eq(a: &Option<CanonicalRv>, b: &Option<CanonicalRv>, ctx: &str) {
    match (a, b) {
        (None, None) => {}
        (Some(a), Some(b)) => {
            assert_eq!(a.mean().to_bits(), b.mean().to_bits(), "mean {ctx}");
            assert_eq!(a.indep().to_bits(), b.indep().to_bits(), "indep {ctx}");
            let (ca, cb) = (a.coeffs(), b.coeffs());
            assert_eq!(ca.len(), cb.len(), "coeff len {ctx}");
            for (x, y) in ca.iter().zip(cb) {
                assert_eq!(x.to_bits(), y.to_bits(), "coeff {ctx}");
            }
        }
        _ => panic!("presence mismatch {ctx}: {a:?} vs {b:?}"),
    }
}

/// The pruned control table against the certificate check's rows (one per
/// edge, in `edges` order), bitwise.
fn assert_table_matches_check(
    table: &ControlDtsTable,
    checked: &[Vec<Option<CanonicalRv>>],
    edges: &[(Option<BlockId>, BlockId)],
    ctx: &str,
) {
    assert_eq!(table.len(), checked.len(), "{ctx}: table sizes differ");
    for (&(pred, block), row) in edges.iter().zip(checked) {
        let entry = table.get(block, pred).expect("pruned table entry");
        assert_eq!(entry.len(), row.len(), "{ctx}: slot count");
        for (slot, (x, y)) in entry.iter().zip(row).enumerate() {
            assert_rv_bitwise_eq(x, y, &format!("{ctx} {pred:?}->{block:?} slot {slot}"));
        }
    }
}

/// How far pruning moves the control slacks from the unpruned (`Off`)
/// ones: the largest per-instruction shift in mean and in σ; and, over
/// slots whose unpruned slack sits less than `k_sigma` σ above zero, the
/// smallest `mean / σ` of one whose mean, σ or independent residual moved,
/// and the largest absolute sensitivity-coefficient difference. Dropping
/// certified stages can only remove operands from the statistical min, so
/// every pruned mean must sit at or above the unpruned one.
struct PruneShift {
    mean: f64,
    sd: f64,
    moved_min_z: f64,
    near_coeff: f64,
}

fn prune_shift(
    prune: &ControlDtsTable,
    off: &ControlDtsTable,
    edges: &[(Option<BlockId>, BlockId)],
    k_sigma: f64,
    ctx: &str,
) -> PruneShift {
    assert_eq!(prune.len(), off.len(), "{ctx}: table sizes differ");
    let mut shift = PruneShift {
        mean: 0.0,
        sd: 0.0,
        moved_min_z: f64::INFINITY,
        near_coeff: 0.0,
    };
    for &(pred, block) in edges {
        let vp = prune.get(block, pred).expect("prune table entry");
        let vo = off.get(block, pred).expect("off table entry");
        assert_eq!(vp.len(), vo.len(), "{ctx}: slot count");
        for (slot, (x, y)) in vp.iter().zip(vo).enumerate() {
            let ctx = format!("{ctx} {pred:?}->{block:?} slot {slot}");
            match (x, y) {
                (None, None) => {}
                (Some(x), Some(y)) => {
                    assert!(
                        x.mean() >= y.mean() - 1e-9,
                        "{ctx}: pruned mean {} below unpruned {}",
                        x.mean(),
                        y.mean()
                    );
                    shift.mean = shift.mean.max(x.mean() - y.mean());
                    shift.sd = shift.sd.max((x.sd() - y.sd()).abs());
                    let z = y.mean() / y.sd();
                    if z < k_sigma {
                        let moved = x.mean().to_bits() != y.mean().to_bits()
                            || x.sd().to_bits() != y.sd().to_bits()
                            || x.indep().to_bits() != y.indep().to_bits();
                        if moved {
                            shift.moved_min_z = shift.moved_min_z.min(z);
                        }
                        assert_eq!(x.coeffs().len(), y.coeffs().len(), "{ctx}: coeff len");
                        for (a, b) in x.coeffs().iter().zip(y.coeffs()) {
                            shift.near_coeff = shift.near_coeff.max((a - b).abs());
                        }
                    }
                }
                _ => panic!("presence mismatch {ctx}: {x:?} vs {y:?}"),
            }
        }
    }
    shift
}

/// Overclocks the property draws from: the paper's 1.15× and two near the
/// certificate's reach, where a plan built without the k-sigma margin
/// skips pairs that the unpruned table shows are within k_sigma σ of
/// failing. Past 2.0× the near-critical coefficient bound of 1e-90 no
/// longer holds (DESIGN §19.4).
const OVERCLOCKS: [f64; 3] = [1.15, 1.8, 2.0];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn prescreen_oracle_sees_no_violations_and_prune_is_bitwise_identical(
        seed in 0u64..1_000_000,
        chain in 1usize..5,
        overclock in prop::sample::select(OVERCLOCKS.to_vec()),
    ) {
        let ctx = format!("seed {seed} at {overclock}x");
        let p = pipeline();
        let prog = loop_program(seed, chain);
        let cfg = Cfg::from_program(&prog);
        let edges = all_edges(&cfg);
        let base = engine(p, overclock);
        let lib = DelayLibrary::normalized_45nm();
        let off = characterize_control(p, &prog, &cfg, &base, &edges, &|_| (0, 0))
            .expect("unpruned characterization");
        let prune_plan = Arc::new(
            build_plan(
                p.netlist(),
                &lib,
                &VariationConfig::default(),
                base.clock_period(),
                &prog,
            )
            .expect("plan builds"),
        );
        let mut eng = engine(p, overclock);
        eng.set_prune_plan(Arc::clone(&prune_plan));
        let pruned = characterize_control(p, &prog, &cfg, &eng, &edges, &|_| (0, 0))
            .expect("pruned characterization");
        // The check recomputes every pruned pair against its immunity
        // certificate — `Err` means a statically-certified-immune pair was
        // observed critical.
        let mut check = CertificateCheck::new(&base, &prune_plan);
        let checked = check.control(p, &prog, &cfg, &edges, &|_| (0, 0));
        prop_assert!(
            checked.is_ok(),
            "{ctx}: certificate violation: {:?}",
            checked.err()
        );
        assert_table_matches_check(&pruned, &checked.unwrap(), &edges, &ctx);
        prop_assert_eq!(check.stats(), prune_plan.stats(), "{}: pair counts", ctx);
        // Pruning moves slacks that sit far from failing by up to 114.5 in
        // mean and 5.0 in σ over these cases (at 1.15x; none moves at 1.8x
        // or 2.0x). Under the greedy statistical min, a slack less than
        // k_sigma σ from failing keeps its mean, σ and residual bitwise;
        // only its sensitivity coefficients move, by the Φ(−α) tails of the
        // excluded stages (at most 2.3e-102 measured, DESIGN §19.4) — so no
        // error probability moves. Fail loudly if that ever changes.
        let shift = prune_shift(&pruned, &off, &edges, prune_plan.k_sigma(), &ctx);
        prop_assert!(shift.mean <= 120.0, "{ctx}: mean shift {}", shift.mean);
        prop_assert!(shift.sd <= 6.0, "{ctx}: σ shift {}", shift.sd);
        prop_assert!(
            shift.moved_min_z == f64::INFINITY,
            "{ctx}: a slack only {}σ from failing moved its mean, σ or residual",
            shift.moved_min_z
        );
        prop_assert!(
            shift.near_coeff <= 1e-90,
            "{ctx}: a coefficient within k_sigma σ of failing moved by {:e}",
            shift.near_coeff
        );
        let stats = prune_plan.stats();
        prop_assert!(stats.pairs_total > 0, "{ctx}: empty plan");
        prop_assert!(
            stats.pairs_pruned * 5 >= stats.pairs_total,
            "{ctx}: expected ≥20% pruning, got {stats:?}"
        );
    }
}

/// `(kernel, pairs_pruned, pairs_total)` of training on every MiBench kernel at `Small`, 2 input draws, seed 7, on a fresh framework
/// (so the datapath training pairs are counted too). The counts are the
/// same at both overclocks.
const KERNEL_PAIRS: [(&str, u64, u64); 12] = [
    ("basicmath", 595, 714),
    ("bitcount", 905, 1086),
    ("dijkstra", 565, 678),
    ("patricia", 610, 732),
    ("pgp.encode", 420, 504),
    ("pgp.decode", 425, 510),
    ("tiff2bw", 410, 492),
    ("typeset", 455, 546),
    ("ghostscript", 935, 1122),
    ("stringsearch", 550, 660),
    ("gsm.encode", 655, 786),
    ("gsm.decode", 570, 684),
];

/// FNV-1a over the little-endian bytes of one word.
fn fnv(h: &mut u64, x: u64) {
    for b in x.to_le_bytes() {
        *h ^= u64::from(b);
        *h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
}

fn fnv_rv(h: &mut u64, rv: Option<&CanonicalRv>) {
    let Some(rv) = rv else {
        fnv(h, u64::MAX);
        return;
    };
    fnv(h, rv.mean().to_bits());
    fnv(h, rv.indep().to_bits());
    fnv(h, rv.coeffs().len() as u64);
    for c in rv.coeffs() {
        fnv(h, c.to_bits());
    }
}

/// Folds every control slack (keys in sorted order) and every trained
/// datapath slack of a model into `h`.
fn fnv_model(h: &mut u64, model: &InstructionErrorModel) {
    let control = model.control();
    for (block, edge) in control.keys() {
        fnv(h, block.index() as u64);
        fnv(h, edge.map_or(u64::MAX, |e| e.index() as u64));
        for rv in control.get(block, edge).expect("listed key") {
            fnv_rv(h, rv.as_ref());
        }
    }
    let datapath = model.datapath();
    for unit in TRAINED_UNITS {
        for level in datapath.levels(unit) {
            fnv(h, u64::from(level));
            fnv_rv(h, datapath.slack_at(unit, level).as_ref());
        }
    }
}

/// λ samples bitwise equal, and every control slot present in both with
/// bitwise-equal mean and σ.
fn assert_lambda_and_control_bitwise_eq(
    est: &ErrorRateEstimate,
    model: &InstructionErrorModel,
    off_est: &ErrorRateEstimate,
    off_model: &InstructionErrorModel,
    ctx: &str,
) {
    let bits = |e: &ErrorRateEstimate| -> Vec<u64> {
        e.lambda.samples().iter().map(|l| l.to_bits()).collect()
    };
    assert_eq!(
        bits(est),
        bits(off_est),
        "{ctx}: λ samples, pruned vs unpruned"
    );
    let (control, off_control) = (model.control(), off_model.control());
    assert_eq!(control.keys(), off_control.keys(), "{ctx}: control keys");
    for (block, edge) in control.keys() {
        let a = control.get(block, edge).expect("listed key");
        let b = off_control.get(block, edge).expect("listed key");
        assert_eq!(a.len(), b.len(), "{ctx}: slot count");
        for (slot, (x, y)) in a.iter().zip(b).enumerate() {
            let at = format!("{ctx} {block:?} {edge:?} slot {slot}");
            match (x, y) {
                (None, None) => {}
                (Some(x), Some(y)) => {
                    assert_eq!(x.mean().to_bits(), y.mean().to_bits(), "{at}: mean");
                    assert_eq!(x.sd().to_bits(), y.sd().to_bits(), "{at}: σ");
                }
                _ => panic!("{at}: presence mismatch {x:?} vs {y:?}"),
            }
        }
    }
}

/// The certificate check reproduces a pruned model bitwise: every control
/// slot of every characterized edge, and every trained datapath level (a
/// sequence with no data-endpoint activity trains no level).
fn assert_model_matches_check(model: &InstructionErrorModel, checked: &CheckedTraining, ctx: &str) {
    let control = model.control();
    assert_eq!(
        control.keys().len(),
        checked.edges.len(),
        "{ctx}: control keys"
    );
    for (&(pred, block), row) in checked.edges.iter().zip(&checked.control) {
        let entry = control.get(block, pred).expect("characterized edge");
        assert_eq!(entry.len(), row.len(), "{ctx}: slot count");
        for (slot, (x, y)) in entry.iter().zip(row).enumerate() {
            assert_rv_bitwise_eq(x, y, &format!("{ctx} {pred:?}->{block:?} slot {slot}"));
        }
    }
    let datapath = model.datapath();
    for (unit, row) in TRAINED_UNITS
        .iter()
        .zip(checked.datapath.chunks(TRAINING_LEVELS.len()))
    {
        let trained: Vec<u8> = TRAINING_LEVELS
            .iter()
            .zip(row)
            .filter(|(_, rv)| rv.is_some())
            .map(|(&level, _)| level)
            .collect();
        assert_eq!(datapath.levels(*unit), trained, "{ctx}: {unit:?} levels");
        for (&level, rv) in TRAINING_LEVELS.iter().zip(row) {
            if rv.is_some() {
                assert_rv_bitwise_eq(
                    &datapath.slack_at(*unit, level),
                    rv,
                    &format!("{ctx} {unit:?} level {level}"),
                );
            }
        }
    }
}

#[test]
fn prune_and_oracle_prescreen_are_bitwise_identical() {
    let p = PipelineNetlist::build(PipelineConfig::default()).expect("pipeline");
    let src = "li r1, 5\nloop: add r2, r2, r1\naddi r1, r1, -1\nbne r1, r0, loop\nhalt\n";
    let prog = assemble(src).expect("assembles");
    let t = {
        let mut m = Machine::new(&prog, 64);
        CoSim::run_program(&p, &prog, &mut m, 1000).expect("co-simulation")
    };
    let base = engine(&p, 1.15);
    let plan = Arc::new(
        build_plan(
            p.netlist(),
            &DelayLibrary::normalized_45nm(),
            &VariationConfig::default(),
            base.clock_period(),
            &prog,
        )
        .expect("plan builds"),
    );
    let mut pruned = engine(&p, 1.15);
    pruned.set_prune_plan(Arc::clone(&plan));
    let mut check = CertificateCheck::new(&base, &plan);
    for k in 0..t.retired.len() {
        let idx = Some(t.retired[k].index);
        for filter in [EndpointFilter::All, EndpointFilter::Control] {
            // The check computes every pruned pair and tests it against
            // the certificate — an Err here is a soundness bug.
            let a = pruned.inst_dts_for(&t, k, filter, idx).expect("pruned DTS");
            let b = check
                .inst_dts(&t, k, filter, idx)
                .expect("certificate holds");
            assert_rv_bitwise_eq(&a, &b, &format!("k{k} {filter:?}"));
            // Excluding provably-loose stages leaves the estimate no
            // looser: pruned-pair slacks sit far enough above the binding
            // stage that Clark's min is dominated by it.
            let free = base.inst_dts(&t, k, filter).expect("unpruned DTS");
            if let (Some(a), Some(free)) = (&a, &free) {
                assert!(a.mean() >= free.mean() - 1e-9, "k{k} {filter:?}");
            }
        }
    }
    let stats = plan.stats();
    assert_eq!(check.stats(), stats, "pair counts");
    assert!(stats.pairs_total > 0);
    assert!(
        stats.pairs_pruned * 5 >= stats.pairs_total,
        "expected ≥20% pruning, got {stats:?}"
    );
}

#[test]
fn prescreened_run_matches_oracle_and_reports_pruning() {
    let src = r"
        addi r1, r0, 6
        li   r2, 0xF0F0F
    loop:
        add  r3, r3, r2
        addi r1, r1, -1
        bne  r1, r0, loop
        halt
    ";
    let fw = || {
        Framework::builder()
            .samples(2)
            .profiler(Profiler {
                max_feature_samples: 8,
                budget: 100_000,
                dmem_words: 4096,
                seed: 1,
            })
            .build()
            .expect("framework")
    };
    let w = Workload::from_asm("pre", src).expect("workload");
    let cfg = Cfg::from_program(w.program());
    let report = fw().run(&w).expect("run");
    let stats = report.prescreen.expect("prescreen stats in report");
    assert!(stats.pairs_total > 0);
    assert!(
        stats.pairs_pruned * 5 >= stats.pairs_total,
        "expected ≥20% pruning, got {stats:?}"
    );
    assert!(report.perf_summary().contains("prescreen:"));
    // The certificate check recomputes every pair the run skipped, on a
    // fresh framework, so datapath training is counted on both sides.
    let reference = fw();
    let profiles = reference.profile_workload(&w, &cfg).expect("profile");
    let checked = check_training(&reference, &w, &cfg, &profiles).expect("certificates hold");
    assert_eq!(checked.stats, stats, "pair counts");
    // The check shares pruning's exclusion rule, so the check that matters
    // is against the unpruned answer: every pair computed.
    let off_model = unpruned_model(&reference, &w, &cfg, &profiles).expect("unpruned training");
    let off = reference
        .estimate(&w, &cfg, &profiles, &off_model)
        .expect("unpruned estimate");
    let (lp, lf) = (&report.estimate.lambda, &off.lambda);
    assert_eq!(lp.samples().len(), lf.samples().len());
    for (a, b) in lp.samples().iter().zip(lf.samples()) {
        assert_eq!(a.to_bits(), b.to_bits(), "pruned λ {a} vs unpruned λ {b}");
    }
}

#[test]
fn prescreen_pins_pruning_and_results_on_mibench_kernels() {
    for (op, expected_digest) in [
        (OperatingConfig::calibrated(), 0xa954_20bf_1569_ee94),
        (OperatingConfig::paper(), 0xbc7c_c015_7869_d432),
    ] {
        let mut digest = 0xcbf2_9ce4_8422_2325_u64;
        let specs = terse_workloads::all();
        assert_eq!(specs.len(), KERNEL_PAIRS.len());
        for (spec, &(name, pruned, total)) in specs.into_iter().zip(&KERNEL_PAIRS) {
            assert_eq!(spec.name, name, "kernel order");
            let ctx = format!("{name} at {}x", op.overclock);
            let w = spec.workload(DatasetSize::Small, 2, 7).expect("workload");
            let cfg = Cfg::from_program(w.program());
            // The default framework: training prunes.
            let fw = Framework::builder()
                .operating(op)
                .samples(2)
                .build()
                .expect("framework");
            let profiles = fw.profile_workload(&w, &cfg).expect("profile");
            let model = fw.train_model(&w, &cfg, &profiles).expect("training");
            let stats = fw.prescreen_stats();
            assert_eq!(
                (stats.pairs_pruned, stats.pairs_total),
                (pruned, total),
                "{ctx}: (pruned, total) pairs"
            );
            // The certificate check recomputes every pruned pair, checks
            // its certificate, and reproduces the trained tables.
            let checked = check_training(&fw, &w, &cfg, &profiles);
            assert!(
                checked.is_ok(),
                "{ctx}: certificate violation: {:?}",
                checked.err()
            );
            let checked = checked.unwrap();
            assert_eq!(checked.stats, stats, "{ctx}: checked pairs");
            assert_model_matches_check(&model, &checked, &ctx);
            let est = fw.estimate(&w, &cfg, &profiles, &model).expect("estimate");
            // Pruning moves no λ sample and no control mean or σ.
            let off_model = unpruned_model(&fw, &w, &cfg, &profiles).expect("unpruned training");
            let off_est = fw
                .estimate(&w, &cfg, &profiles, &off_model)
                .expect("unpruned estimate");
            assert_lambda_and_control_bitwise_eq(&est, &model, &off_est, &off_model, &ctx);
            for l in est.lambda.samples() {
                fnv(&mut digest, l.to_bits());
            }
            fnv_model(&mut digest, &model);
        }
        assert_eq!(digest, expected_digest, "digest at {}x", op.overclock);
    }
}
