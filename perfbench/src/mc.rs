//! `mc_validation`: the paper's flow, then per-chip Monte Carlo against
//! the analytic estimate.
//!
//! Every pass starts with a set-up on the `typeset` kernel with `Small`
//! inputs and no instruction scaling (as `ablation_mc` does): a fresh
//! `Framework`, preflight, profile, train, estimate λ, and draw the chip
//! batches. Then one op is one `monte_carlo::error_counts` call on a
//! 256-chip batch times 4 inputs, over every batch. Every set-up must
//! reproduce λ bitwise, and every pass after the first repeats the batches
//! and checks they count bitwise the same. The counts pooled over the
//! first pass give `ks_chip_mc`. Width T = 2.
//!
//! Set-up runs once per pass, not once per run, so the set-ups sample the
//! same host states as the passes and `setup_s` can use the same
//! fastest-share estimator as `wall_s`.

use crate::trace::{median_self_ms, Tracer};
use crate::{derive_seed, pinned, secs, Fnv, Metric, Outcome, Pass, Plan, RunClock, Samples};
use std::time::Instant;
use terse::{ErrorRateEstimate, Framework, FrameworkBuilder, Workload};
use terse_dta::InstructionErrorModel;
use terse_isa::{Cfg, Program};
use terse_sim::machine::Machine;
use terse_sim::monte_carlo::{self, MonteCarloConfig};
use terse_workloads::{BenchmarkSpec, DatasetSize};

/// The pinned thread width.
pub const THREADS: usize = 2;

/// Per-layer metrics this workload measures.
pub const LAYERS: &[&str] = &[
    "core.build_ms",
    "analyze.preflight_ms",
    "sim.profile_ms",
    "dta.train_ms",
    "dta.datapath_train_ms",
    "errmodel.estimate_ms",
    "dta.cache_hit_ratio",
    "dta.cache_lookups",
    "sim.cosim_cycles",
    "netlist.gates_evaluated",
    "sta.sample_chips_ms",
    "sim.mc_grid_ms",
    "errmodel.ks_chip_mc",
];

/// Share of passes (and of set-ups), fastest first, the timings use.
const KEEP: f64 = 0.5;

struct Sizes {
    samples: usize,
    chips_per_batch: usize,
    batches: usize,
}

/// Everything set-up produces.
struct Trained {
    fw: Framework,
    model: InstructionErrorModel,
    estimate: ErrorRateEstimate,
    chips: Vec<terse_sta::variation::ChipSample>,
    preflight_clean: bool,
}

/// Runs the workload.
///
/// # Errors
///
/// When the program fails or the run cannot be measured.
pub fn run(plan: &Plan, tracer: &mut Tracer) -> Result<Outcome, String> {
    pinned(THREADS, || body(plan, tracer))
}

fn builder(samples: usize) -> FrameworkBuilder {
    Framework::builder().samples(samples).threads(THREADS)
}

/// The `typeset` program with `samples` `Small` inputs from the run's
/// dataset seed.
fn workload(spec: &'static BenchmarkSpec, samples: usize, plan: &Plan) -> Result<Workload, String> {
    let program = spec.program().map_err(|e| format!("assemble: {e}"))?;
    let mut workload = Workload::new("typeset-mc", program.clone());
    let dataset_seed = derive_seed(plan.seed, 1);
    for s in 0..samples {
        let (p, fill) = (program.clone(), spec.fill);
        workload.push_input(move |m| {
            fill(
                m,
                &p,
                dataset_seed.wrapping_add(s as u64),
                DatasetSize::Small,
            )
        });
    }
    Ok(workload)
}

/// Build → preflight → profile → train → estimate → sample the chips.
fn set_up(
    workload: &Workload,
    z: &Sizes,
    plan: &Plan,
    tracer: &Tracer,
    op: u64,
) -> Result<Trained, terse::TerseError> {
    let fw = tracer.span("core.build", op, || builder(z.samples).build())?;
    let report = tracer.span("analyze.preflight", op, || fw.preflight(workload))?;
    let cfg = Cfg::from_program(workload.program());
    let profiles = tracer.span("sim.profile", op, || fw.profile_workload(workload, &cfg))?;
    let model = tracer.span("dta.train", op, || {
        fw.train_model(workload, &cfg, &profiles)
    })?;
    let estimate = tracer.span("errmodel.estimate", op, || {
        fw.estimate(workload, &cfg, &profiles, &model)
    })?;
    let chips = tracer.span("sta.sample_chips", op, || {
        fw.sample_chips(z.chips_per_batch * z.batches, derive_seed(plan.seed, 2))
    })?;
    Ok(Trained {
        fw,
        model,
        estimate,
        chips,
        preflight_clean: !report.has_errors(),
    })
}

fn counts(
    t: &Trained,
    workload: &Workload,
    spec: &'static BenchmarkSpec,
    batch: usize,
    z: &Sizes,
    plan: &Plan,
) -> Result<Vec<Vec<u64>>, String> {
    let chips = &t.chips[batch * z.chips_per_batch..(batch + 1) * z.chips_per_batch];
    let program: &Program = workload.program();
    let dataset_seed = derive_seed(plan.seed, 1);
    let fill = spec.fill;
    monte_carlo::error_counts(
        program,
        &t.model,
        chips,
        z.samples,
        t.fw.correction(),
        |idx, m: &mut Machine| {
            fill(
                m,
                program,
                dataset_seed.wrapping_add(idx as u64),
                DatasetSize::Small,
            )
        },
        MonteCarloConfig {
            seed: derive_seed(plan.seed, 3),
            ..MonteCarloConfig::default()
        },
    )
    .map_err(|e| format!("monte carlo batch {batch}: {e}"))
}

/// Kolmogorov distance between the Eq. 14 nominal CDF and the empirical
/// CDF of the pooled per-chip counts, over every count k.
fn ks_distance(estimate: &ErrorRateEstimate, pooled: &[u64]) -> Result<f64, String> {
    let mut sorted = pooled.to_vec();
    sorted.sort_unstable();
    let n = sorted.len() as f64;
    let max_k = sorted.last().copied().unwrap_or(0);
    let mut ks = 0.0f64;
    let mut below = 0usize;
    for k in 0..=max_k {
        while below < sorted.len() && sorted[below] <= k {
            below += 1;
        }
        let nominal = estimate
            .rate_cdf(k as f64 / estimate.total_instructions)
            .map_err(|e| format!("rate cdf: {e}"))?
            .nominal;
        ks = ks.max((below as f64 / n - nominal).abs());
    }
    Ok(ks)
}

/// One `DatapathModel::train` on the engine of a fresh framework from
/// `builder`, whose stage-DTS cache is still empty: the cold datapath
/// training every new framework pays.
///
/// # Errors
///
/// When the framework cannot be built or training fails.
pub(crate) fn datapath_train(tracer: &Tracer, builder: FrameworkBuilder) -> Result<(), String> {
    let fw = tracer
        .span("core.build", 0, || builder.build())
        .map_err(|e| format!("framework build: {e}"))?;
    tracer
        .span("dta.datapath_train", 0, || {
            let engine = fw.engine()?;
            terse_dta::DatapathModel::train(fw.pipeline(), &engine).map_err(terse::TerseError::from)
        })
        .map(drop)
        .map_err(|e| format!("datapath train: {e}"))
}

/// The framework's co-simulation and DTS-cache counters after one set-up.
fn dta_counters(
    cosim: terse_sim::CosimStats,
    cache: Option<terse_dta::DtsCacheStats>,
) -> Vec<Metric> {
    let (hits, misses) = cache.map_or((0, 0), |c| (c.hits, c.misses));
    let lookups = hits + misses;
    let ratio = if lookups > 0 {
        hits as f64 / lookups as f64
    } else {
        0.0
    };
    vec![
        Metric::new("dta.cache_hit_ratio", ratio, "ratio"),
        Metric::new("dta.cache_lookups", lookups as f64, "count"),
        Metric::new("sim.cosim_cycles", cosim.cycles as f64, "count"),
        Metric::new(
            "netlist.gates_evaluated",
            cosim.gates_evaluated as f64,
            "count",
        ),
    ]
}

fn body(plan: &Plan, tracer: &mut Tracer) -> Result<Outcome, String> {
    let z = if plan.smoke {
        Sizes {
            samples: 2,
            chips_per_batch: 64,
            batches: 2,
        }
    } else {
        Sizes {
            samples: 4,
            chips_per_batch: 256,
            batches: 32,
        }
    };
    let spec = terse_workloads::by_name("typeset").ok_or("typeset kernel missing")?;
    let workload = workload(spec, z.samples, plan)?;
    let trace_on = tracer.enabled();
    let mut s = Samples::new(KEEP);

    let mut lambda_bits: Option<u64> = None;
    let mut setup_stable = true;
    let mut preflight_clean = true;
    let mut counters = None;
    let mut estimate = None;
    let mut first: Vec<Vec<Vec<u64>>> = Vec::new();
    let mut repeat_stable = true;
    let (mut attempted, mut failed) = (0u64, 0u64);
    let clock = RunClock::start(plan);
    let mut pass = 0usize;
    while clock.more(pass, s.enough(plan)) {
        let traced = trace_on && pass.is_multiple_of(2);
        tracer.set_enabled(traced);
        let op0 = (pass * z.batches) as u64;
        let t = Instant::now();
        let trained = tracer
            .span("setup", op0, || set_up(&workload, &z, plan, tracer, op0))
            .map_err(|e| format!("mc set-up: {e}"))?;
        let setup_s = secs(t);
        let bits = trained.estimate.lambda.mean().to_bits();
        setup_stable &= *lambda_bits.get_or_insert(bits) == bits;
        preflight_clean &= trained.preflight_clean;
        counters.get_or_insert_with(|| (trained.fw.cosim_stats(), trained.fw.dta_cache_stats()));

        let cpu0 = crate::procfs::cpu_seconds()?;
        let t_pass = Instant::now();
        let mut latency_ms = Vec::with_capacity(z.batches);
        for batch in 0..z.batches {
            let op = op0 + batch as u64;
            attempted += 1;
            let t_op = Instant::now();
            let got = tracer.span("sim.mc_grid", op, || {
                counts(&trained, &workload, spec, batch, &z, plan)
            });
            latency_ms.push(secs(t_op) * 1e3);
            match got {
                Ok(c) if pass == 0 => first.push(c),
                Ok(c) => repeat_stable &= first.get(batch) == Some(&c),
                Err(e) => {
                    failed += 1;
                    eprintln!("{e}");
                }
            }
        }
        s.push(Pass {
            setup_s,
            wall_s: secs(t_pass),
            cpu_s: crate::procfs::cpu_seconds()? - cpu0,
            traced,
            latency_ms,
        });
        // Every set-up reproduces this estimate (checked above).
        estimate.get_or_insert(trained.estimate);
        pass += 1;
    }
    tracer.set_enabled(trace_on);

    let estimate = estimate.ok_or("no set-up ran")?;
    let pooled: Vec<u64> = first
        .iter()
        .flat_map(|c| monte_carlo::pooled_counts(c))
        .collect();
    let ks = ks_distance(&estimate, &pooled)?;
    let mut digest = Fnv::default();
    digest.write_u64(estimate.lambda.mean().to_bits());
    for c in &pooled {
        digest.write_u64(*c);
    }
    let lambda = estimate.lambda.mean();
    let mc_mean = pooled.iter().sum::<u64>() as f64 / pooled.len().max(1) as f64;
    let cells: usize = first.first().map_or(0, |c| c.iter().map(Vec::len).sum());
    let metrics = if trace_on {
        datapath_train(tracer, builder(z.samples))?;
        let spans = tracer.spans();
        let (cosim, cache) = counters.unwrap_or_default();
        let mut m = s.trace_common(THREADS, spans.len());
        m.extend(
            [
                ("core.build_ms", "core.build"),
                ("analyze.preflight_ms", "analyze.preflight"),
                ("sim.profile_ms", "sim.profile"),
                ("dta.train_ms", "dta.train"),
                ("dta.datapath_train_ms", "dta.datapath_train"),
                ("errmodel.estimate_ms", "errmodel.estimate"),
                ("sta.sample_chips_ms", "sta.sample_chips"),
                ("sim.mc_grid_ms", "sim.mc_grid"),
            ]
            .into_iter()
            .map(|(metric, span)| Metric::new(metric, median_self_ms(&spans, span), "ms")),
        );
        m.extend(dta_counters(cosim, cache));
        m.push(Metric::new("errmodel.ks_chip_mc", ks, "ratio"));
        m
    } else {
        s.end_to_end(plan)?
    };
    Ok(Outcome {
        workload: "mc_validation",
        threads: THREADS,
        attempted,
        failed,
        checks: vec![
            ("setup_lambda_bitwise_stable".into(), setup_stable),
            (
                "lambda_finite_positive".into(),
                lambda.is_finite() && lambda > 0.0,
            ),
            ("preflight_clean".into(), preflight_clean),
            (
                "repeated_batch_counts_bitwise_equal".into(),
                repeat_stable && pass > 1,
            ),
            ("every_batch_counted".into(), first.len() == z.batches),
            ("ks_in_unit_interval".into(), (0.0..=1.0).contains(&ks)),
        ],
        digest: digest.finish(),
        metrics,
        layers: LAYERS,
        notes: vec![
            s.pass_note(),
            format!(
                "passes={pass} batches={} chips_per_batch={} inputs={} cells_per_batch={cells} \
                 lane_occupancy={}",
                z.batches,
                z.chips_per_batch,
                z.samples,
                monte_carlo::lane_occupancy(z.chips_per_batch)
            ),
            format!("ks_chip_mc={ks} analytic_lambda={lambda} per_chip_mc_mean={mc_mean}"),
        ],
    })
}
