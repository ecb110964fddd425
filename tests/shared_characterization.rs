//! One characterization, many operating points: training from a shared
//! [`Characterization`] must give, at every point, the model and the
//! estimate that `train_model` gives from the same profiles, bit for bit;
//! and a characterization is refused, with a typed error, by a framework
//! or workload it was not built for.

use terse::{
    Characterization, Framework, FrameworkBuilder, OperatingConfig, PipelineConfig, TerseError,
    Workload,
};
use terse_dta::datapath::FuncUnit;
use terse_dta::InstructionErrorModel;
use terse_isa::Cfg;
use terse_sim::profile::Profiler;

/// A serve-shaped framework: small pipeline, paper operating point at
/// `overclock`, two samples, one thread.
fn builder(overclock: f64) -> FrameworkBuilder {
    Framework::builder()
        .pipeline(PipelineConfig::small())
        .operating(OperatingConfig {
            overclock,
            ..OperatingConfig::paper()
        })
        .samples(2)
        .threads(1)
}

fn kernel() -> Workload {
    terse_workloads::by_name("bitcount")
        .expect("registered")
        .workload(terse_workloads::DatasetSize::Small, 2, 0x5EED)
        .expect("workload")
}

type RvBits = (u64, Vec<u64>, u64);

fn rv_bits(rv: &terse_sta::CanonicalRv) -> RvBits {
    (
        rv.mean().to_bits(),
        rv.coeffs().iter().map(|c| c.to_bits()).collect(),
        rv.indep().to_bits(),
    )
}

/// Every control slack, keyed by context, and every datapath slack, as
/// bits.
type ModelBits = (Vec<(String, Vec<Option<RvBits>>)>, Vec<Option<RvBits>>);

fn model_bits(model: &InstructionErrorModel) -> ModelBits {
    let control = model
        .control()
        .keys()
        .into_iter()
        .map(|(block, edge)| {
            let slacks = model.control().get(block, edge).expect("characterized");
            let bits = slacks.iter().map(|s| s.as_ref().map(rv_bits)).collect();
            (format!("{block:?}/{edge:?}"), bits)
        })
        .collect();
    let datapath = [
        FuncUnit::AddSub,
        FuncUnit::Logic,
        FuncUnit::Shift,
        FuncUnit::Mul,
    ]
    .into_iter()
    .flat_map(|unit| (0..=32u8).map(move |level| (unit, level)))
    .map(|(unit, level)| {
        model
            .datapath()
            .slack_at(unit, level)
            .map(|rv| rv_bits(&rv))
    })
    .collect();
    (control, datapath)
}

#[test]
fn shared_characterization_trains_bitwise_like_train_model_at_each_point() {
    let w = kernel();
    let cfg = Cfg::from_program(w.program());
    let first = builder(1.15).build().expect("framework");
    let profiles = first.profile_workload(&w, &cfg).expect("profiles");
    let ch = first
        .characterize(&w, &cfg, profiles)
        .expect("characterization");
    let mut per_point = Vec::new();
    for overclock in [1.15, 1.33] {
        let fw = builder(overclock).build().expect("framework");
        let shared = fw.train_from(&w, &cfg, &ch).expect("shared model");
        // The reference: a fresh framework that profiles and trains on
        // its own.
        let reference_fw = builder(overclock).build().expect("framework");
        let profiles = reference_fw.profile_workload(&w, &cfg).expect("profiles");
        let reference = reference_fw
            .train_model(&w, &cfg, &profiles)
            .expect("reference model");
        let bits = model_bits(&shared);
        assert!(bits.0.len() > 4, "only {} control contexts", bits.0.len());
        assert_eq!(
            bits,
            model_bits(&reference),
            "model differs at {overclock}×"
        );
        per_point.push(bits);
        let est = fw
            .estimate(&w, &cfg, ch.profiles(), &shared)
            .expect("shared estimate");
        let est_ref = reference_fw
            .estimate(&w, &cfg, &profiles, &reference)
            .expect("reference estimate");
        assert_eq!(
            est.to_value().render(),
            est_ref.to_value().render(),
            "estimate differs at {overclock}×"
        );
    }
    assert_ne!(per_point[0], per_point[1], "the two periods train alike");
}

fn characterize(fw: &Framework, w: &Workload) -> Characterization {
    let cfg = Cfg::from_program(w.program());
    let profiles = fw.profile_workload(w, &cfg).expect("profiles");
    fw.characterize(w, &cfg, profiles)
        .expect("characterization")
}

#[test]
fn a_foreign_characterization_is_a_typed_error() {
    let w = Workload::from_asm(
        "loop",
        "addi r1, r0, 4\nloop: add r2, r2, r1\naddi r1, r1, -1\nbne r1, r0, loop\nhalt\n",
    )
    .expect("workload");
    let cfg = Cfg::from_program(w.program());
    let ch = characterize(&builder(1.15).build().expect("framework"), &w);
    let other_pipeline = PipelineConfig {
        seed: PipelineConfig::small().seed ^ 1,
        ..PipelineConfig::small()
    };
    let other_program = Workload::from_asm("other", "addi r1, r0, 1\nhalt\n").expect("workload");
    let cases = [
        (
            "pipeline configuration",
            builder(1.33).pipeline(other_pipeline),
            &w,
        ),
        ("sample count", builder(1.33).samples(3), &w),
        (
            "profiler",
            builder(1.33).profiler(Profiler {
                seed: 7,
                ..Profiler::default()
            }),
            &w,
        ),
        ("program", builder(1.33), &other_program),
    ];
    for (what, b, workload) in cases {
        let fw = b.build().expect("framework");
        let err = fw
            .train_from(workload, &Cfg::from_program(workload.program()), &ch)
            .expect_err(what);
        assert!(
            matches!(&err, TerseError::Characterization(m) if m.contains(what)),
            "{what}: {err}"
        );
        assert_eq!(fw.cosim_stats(), Default::default(), "{what}: no work done");
    }
    // The matching framework trains.
    assert!(builder(1.33)
        .build()
        .expect("framework")
        .train_from(&w, &cfg, &ch)
        .is_ok());
}
