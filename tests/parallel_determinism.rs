//! The parallel layer's core contract: thread count is a performance knob,
//! never a semantic one. Every result here must be **bitwise identical**
//! across thread counts and across repeated runs.

use terse::{Checkpoint, Framework, Workload};
use terse_isa::Cfg;
use terse_sim::monte_carlo::{self, MonteCarloConfig};

fn kernel() -> Workload {
    Workload::from_asm(
        "det-kernel",
        r"
            ld   r1, r0, 0
            li   r6, 0x00FFFFFF
        loop:
            add  r2, r2, r6
            mul  r3, r1, r2
            sub  r4, r3, r2
            addi r1, r1, -1
            bne  r1, r0, loop
            halt
        ",
    )
    .expect("assembles")
    .with_input(|m| m.store(0, 12).expect("store"))
    .with_input(|m| m.store(0, 23).expect("store"))
}

/// Builds the model once and returns everything the MC grid needs.
fn setup(fw: &Framework) -> (Workload, terse_dta::instmodel::InstructionErrorModel) {
    let w = kernel();
    let cfg = Cfg::from_program(w.program());
    let profiles = fw.profile_workload(&w, &cfg).expect("profiles");
    let model = fw.train_model(&w, &cfg, &profiles).expect("model");
    (w, model)
}

#[test]
fn error_counts_identical_across_thread_counts() {
    let fw = Framework::builder().samples(2).build().expect("framework");
    let (w, model) = setup(&fw);
    let chips = fw.sample_chips(6, 0xDE7).expect("chips");
    let grid = |threads: usize| {
        let pool = rayon::ThreadPoolBuilder::new()
            .num_threads(threads)
            .build()
            .expect("pool");
        pool.install(|| {
            monte_carlo::error_counts(
                w.program(),
                &model,
                &chips,
                2,
                fw.correction(),
                |idx, m| w.init_input(idx, m),
                MonteCarloConfig::default(),
            )
            .expect("monte carlo")
        })
    };
    let serial = grid(1);
    assert_eq!(serial, grid(4), "4 threads changed the count matrix");
    assert_eq!(serial, grid(7), "7 threads changed the count matrix");
    // Repeated runs under the same seed are identical too.
    assert_eq!(serial, grid(1));
    assert_eq!(serial, grid(4));
}

#[test]
fn error_counts_marginalized_identical_across_thread_counts() {
    let fw = Framework::builder().samples(2).build().expect("framework");
    let (w, model) = setup(&fw);
    let grid = |threads: usize| {
        let pool = rayon::ThreadPoolBuilder::new()
            .num_threads(threads)
            .build()
            .expect("pool");
        pool.install(|| {
            monte_carlo::error_counts_marginalized(
                w.program(),
                &model,
                5,
                2,
                fw.correction(),
                |idx, m| w.init_input(idx, m),
                MonteCarloConfig::default(),
            )
            .expect("monte carlo")
        })
    };
    let serial = grid(1);
    assert_eq!(serial, grid(3), "3 threads changed the marginalized counts");
    assert_eq!(serial, grid(1), "repeat run diverged");
}

#[test]
fn sample_chips_identical_across_thread_counts() {
    let one = Framework::builder().threads(1).build().expect("framework");
    let many = Framework::builder().threads(5).build().expect("framework");
    let a = one.sample_chips(16, 0xABCD).expect("chips");
    let b = many.sample_chips(16, 0xABCD).expect("chips");
    assert_eq!(a, b, "thread count changed the sampled chip population");
    // And a repeated draw under the same seed is the same population.
    assert_eq!(a, one.sample_chips(16, 0xABCD).expect("chips"));
}

#[test]
fn kill_at_checkpoint_then_resume_is_bitwise_identical_across_thread_counts() {
    // The uninterrupted reference run (machine-default thread count).
    let reference = Framework::builder()
        .samples(2)
        .build()
        .expect("framework")
        .run(&kernel())
        .expect("reference run");
    // The run's profile → train → estimate flow, with the estimate sweep
    // checkpointed and (optionally) cut by a block budget.
    let estimate = |fw: &Framework, ckpt: &Checkpoint, block_budget: Option<usize>| {
        let w = kernel();
        let cfg = Cfg::from_program(w.program());
        let profiles = fw.profile_workload(&w, &cfg).expect("profiles");
        let model = fw.train_model(&w, &cfg, &profiles).expect("model");
        fw.estimate_with(&w, &cfg, &profiles, &model, Some(ckpt), block_budget)
    };
    // For each resume thread count: "kill" a run mid-estimate (the block
    // budget flushes the completed prefix and aborts, exactly like a kill
    // arriving right after a checkpoint write), then resume from the file
    // and demand the uninterrupted result, bit for bit.
    for threads in [1usize, 4] {
        let path = std::env::temp_dir().join(format!(
            "terse-det-resume-{threads}-{}.ckpt",
            std::process::id()
        ));
        let ckpt = Checkpoint::new(&path, 1);
        let killed = estimate(
            &Framework::builder().samples(2).build().expect("framework"),
            &ckpt,
            Some(2),
        );
        assert!(
            matches!(killed, Err(terse::TerseError::Interrupted { .. })),
            "expected an interrupted run"
        );
        assert!(path.exists(), "partial checkpoint persisted");
        let resumed = estimate(
            &Framework::builder()
                .samples(2)
                .threads(threads)
                .build()
                .expect("framework"),
            &ckpt,
            None,
        )
        .expect("resumed run");
        assert!(!path.exists(), "checkpoint removed after completion");
        assert_eq!(
            reference
                .estimate
                .lambda
                .samples()
                .iter()
                .map(|v| v.to_bits())
                .collect::<Vec<_>>(),
            resumed
                .lambda
                .samples()
                .iter()
                .map(|v| v.to_bits())
                .collect::<Vec<_>>(),
            "λ samples differ after resume with {threads} threads"
        );
        assert_eq!(
            reference.estimate.mean_error_rate().to_bits(),
            resumed.mean_error_rate().to_bits(),
            "mean error rate differs after resume with {threads} threads"
        );
        assert_eq!(
            reference.estimate.dk_lambda.to_bits(),
            resumed.dk_lambda.to_bits(),
            "Stein bound differs after resume with {threads} threads"
        );
    }
}

#[test]
fn mc_checkpointed_grid_matches_plain_across_thread_counts() {
    let fw = Framework::builder().samples(2).build().expect("framework");
    let (w, model) = setup(&fw);
    let chips = fw.sample_chips(4, 0xDE7).expect("chips");
    let plain = monte_carlo::error_counts(
        w.program(),
        &model,
        &chips,
        2,
        fw.correction(),
        |idx, m| w.init_input(idx, m),
        MonteCarloConfig::default(),
    )
    .expect("plain grid");
    for threads in [1usize, 3] {
        let path = std::env::temp_dir().join(format!(
            "terse-det-mc-{threads}-{}.ckpt",
            std::process::id()
        ));
        let ckpt = Checkpoint::new(&path, 3);
        let pool = rayon::ThreadPoolBuilder::new()
            .num_threads(threads)
            .build()
            .expect("pool");
        let checkpointed = pool.install(|| {
            monte_carlo::error_counts_with(
                w.program(),
                &model,
                &chips,
                2,
                fw.correction(),
                |idx, m| w.init_input(idx, m),
                MonteCarloConfig::default(),
                Some(&ckpt),
                None,
            )
            .expect("checkpointed grid")
        });
        assert_eq!(plain, checkpointed, "{threads} threads changed the grid");
        assert!(!path.exists(), "checkpoint removed after completion");
    }
}

#[test]
fn full_flow_estimate_bitwise_identical_across_thread_counts() {
    let run = |threads: usize| {
        let fw = Framework::builder()
            .samples(2)
            .threads(threads)
            .build()
            .expect("framework");
        fw.run(&kernel()).expect("run")
    };
    let a = run(1);
    let b = run(6);
    assert_eq!(
        a.estimate.lambda.mean().to_bits(),
        b.estimate.lambda.mean().to_bits(),
        "λ mean differs across thread counts"
    );
    assert_eq!(
        a.estimate.lambda.sd().to_bits(),
        b.estimate.lambda.sd().to_bits(),
        "λ sd differs across thread counts"
    );
    assert_eq!(
        a.estimate.mean_error_rate().to_bits(),
        b.estimate.mean_error_rate().to_bits(),
        "mean error rate differs across thread counts"
    );
}

/// Every bit of a canonical form: mean, each sensitivity, residual.
fn rv_bits(rv: &terse_sta::CanonicalRv) -> (u64, Vec<u64>, u64) {
    (
        rv.mean().to_bits(),
        rv.coeffs().iter().map(|c| c.to_bits()).collect(),
        rv.indep().to_bits(),
    )
}

/// Training fans out over control edges and datapath directed sequences,
/// and every unit consults one shared stage-DTS cache. With 4 entries the
/// cache evicts while units race on it, so the hit/miss split may vary —
/// but not a single slack may, and the number of lookups is fixed by the
/// work itself.
#[test]
fn training_bitwise_identical_across_thread_counts_with_evicting_cache() {
    use terse_dta::datapath::FuncUnit;
    let spec = terse_workloads::by_name("typeset").expect("registered");
    let w = spec
        .workload(terse_workloads::DatasetSize::Small, 2, 0x7EA1)
        .expect("workload");
    let cfg = Cfg::from_program(w.program());
    let train = |threads: usize| {
        let fw = Framework::builder()
            .samples(2)
            .threads(threads)
            .dta_cache(4)
            .build()
            .expect("framework");
        let profiles = fw.profile_workload(&w, &cfg).expect("profiles");
        let model = fw.train_model(&w, &cfg, &profiles).expect("model");
        let control: Vec<_> = model
            .control()
            .keys()
            .into_iter()
            .map(|(block, edge)| {
                let slacks = model.control().get(block, edge).expect("characterized");
                let bits: Vec<_> = slacks.iter().map(|s| s.as_ref().map(rv_bits)).collect();
                ((block, edge), bits)
            })
            .collect();
        let datapath: Vec<_> = [
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
        let cache = fw.dta_cache_stats().expect("cache enabled");
        (
            control,
            datapath,
            cache.hits + cache.misses,
            cache.evictions,
        )
    };
    let (control, datapath, lookups, evictions) = train(1);
    assert!(control.len() > 4, "only {} control contexts", control.len());
    assert!(evictions > 0, "a 4-entry cache must evict during training");
    for threads in [2, 7] {
        let (c, d, l, _) = train(threads);
        assert_eq!(c, control, "control table differs at {threads} threads");
        assert_eq!(d, datapath, "datapath model differs at {threads} threads");
        assert_eq!(l, lookups, "cache lookups differ at {threads} threads");
    }
}
