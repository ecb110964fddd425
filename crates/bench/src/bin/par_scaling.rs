//! Parallel scaling of the data-parallel execution layer: serial (1 thread)
//! vs N-thread wall time for the Monte Carlo validation grid (both the
//! scalar cell-per-chip backend and the 64-lane packed backend) and the
//! full analytic flow, plus the determinism check that makes the comparison
//! meaningful — counts and estimates must be **bitwise identical** across
//! thread counts *and* backends.
//!
//! ```text
//! cargo run --release -p terse-bench --bin par_scaling
//! ```
//!
//! Writes `results/BENCH_parallel.json` (the common
//! `{bench, config, wall_ms, speedup, checks, detail}` envelope) and prints
//! the same JSON to stdout. Both variants record the thread
//! count they actually ran with — on a single-core host the parallel run
//! degenerates to one worker and the speedup is necessarily ~1.0; the JSON
//! makes that visible instead of looking like a broken harness. The
//! framework run also records its per-phase wall-clock split
//! (simulation / training / estimation), since the phases parallelize
//! differently (the profiling and estimation sweeps fan out per
//! sample/block; training is dominated by gate-level DTA).

use std::time::Instant;
use terse_bench::{default_framework, workload_of, BenchEnvelope, HarnessConfig};
use terse_serve::json::Value;
use terse_sim::monte_carlo::{self, MonteCarloConfig};

/// Chips in the MC grid (the acceptance grid from the issue).
const CHIPS: usize = 16;
/// Inputs per chip in the MC grid.
const INPUTS: usize = 4;
/// Timed repetitions; the minimum is reported.
const REPS: usize = 3;

fn time_min<T>(reps: usize, mut f: impl FnMut() -> T) -> (f64, T) {
    let mut best = f64::INFINITY;
    let mut out = None;
    for _ in 0..reps {
        let t = Instant::now();
        let v = f();
        best = best.min(t.elapsed().as_secs_f64());
        out = Some(v);
    }
    (best, out.expect("reps >= 1"))
}

fn main() {
    let wall = Instant::now();
    let host = std::thread::available_parallelism().map_or(1, |n| n.get());
    let cfg = HarnessConfig {
        samples: INPUTS,
        ..HarnessConfig::default()
    };

    // --- Monte Carlo grid: serial vs all-cores error_counts --------------
    let fw = default_framework(&cfg).expect("framework");
    let spec = terse_workloads::by_name("typeset").expect("typeset exists");
    let w = workload_of(spec, &cfg).expect("workload");
    let isa_cfg = terse_isa::Cfg::from_program(w.program());
    let profiles = fw.profile_workload(&w, &isa_cfg).expect("profiles");
    let model = fw.train_model(&w, &isa_cfg, &profiles).expect("model");
    let chips = fw.sample_chips(CHIPS, 0xC0FFEE).expect("chips");

    // `num_threads(0)` asks rayon for the machine default, i.e. all cores.
    // Both backends (the scalar cell-per-chip reference and the 64-lane
    // packed grid) sweep the same thread counts; every matrix must be
    // bitwise identical to every other.
    let mc = |threads: usize, packed: bool| {
        let pool = rayon::ThreadPoolBuilder::new()
            .num_threads(threads)
            .build()
            .expect("pool");
        let used = pool.current_num_threads();
        let counts = pool.install(|| {
            if packed {
                monte_carlo::error_counts(
                    w.program(),
                    &model,
                    &chips,
                    INPUTS,
                    fw.correction(),
                    |idx, m| w.init_input(idx, m),
                    MonteCarloConfig::default(),
                )
            } else {
                oracle::grid::error_counts_scalar(
                    w.program(),
                    &model,
                    &chips,
                    INPUTS,
                    fw.correction(),
                    |idx, m| w.init_input(idx, m),
                    MonteCarloConfig::default(),
                )
            }
            .expect("monte carlo")
        });
        (counts, used)
    };
    let (mc_serial_s, (counts_serial, mc_serial_threads)) = time_min(REPS, || mc(1, false));
    let (mc_par_s, (counts_par, mc_par_threads)) = time_min(REPS, || mc(0, false));
    let (mc_packed_serial_s, (counts_packed_serial, _)) = time_min(REPS, || mc(1, true));
    let (mc_packed_par_s, (counts_packed_par, _)) = time_min(REPS, || mc(0, true));
    let mc_identical = counts_serial == counts_par
        && counts_serial == counts_packed_serial
        && counts_serial == counts_packed_par;
    assert!(
        mc_identical,
        "thread count or lane packing changed the MC count matrix"
    );

    // --- Full analytic flow: Framework::run at 1 thread vs all cores -----
    let run_with = |threads: usize| {
        let fw = terse::Framework::builder()
            .samples(cfg.samples)
            .threads(threads)
            .build()
            .expect("framework");
        fw.run(&w).expect("run")
    };
    let (run_serial_s, report_serial) = time_min(REPS, || run_with(1));
    let (run_par_s, report_par) = time_min(REPS, || run_with(0));
    let run_identical = report_serial.estimate.lambda.mean().to_bits()
        == report_par.estimate.lambda.mean().to_bits()
        && report_serial.estimate.lambda.sd().to_bits()
            == report_par.estimate.lambda.sd().to_bits();
    assert!(run_identical, "thread count changed the analytic estimate");

    let phases = |r: &terse::Report| {
        format!(
            "{{\n        \"simulation_s\": {:.6},\n        \"training_s\": {:.6},\n        \"estimation_s\": {:.6}\n      }}",
            r.timings.simulation_s, r.timings.training_s, r.timings.estimation_s
        )
    };
    let detail = format!(
        "{{\n  \"mc_grid\": {{\n    \"workload\": \"{name}\",\n    \"chips\": {CHIPS},\n    \"inputs\": {INPUTS},\n    \"serial\": {{ \"threads\": {mc_serial_threads}, \"wall_s\": {mc_serial_s:.6} }},\n    \"parallel\": {{ \"threads\": {mc_par_threads}, \"wall_s\": {mc_par_s:.6} }},\n    \"speedup\": {mc_speedup:.3},\n    \"packed_serial\": {{ \"threads\": 1, \"wall_s\": {mc_packed_serial_s:.6} }},\n    \"packed_parallel\": {{ \"threads\": {mc_par_threads}, \"wall_s\": {mc_packed_par_s:.6} }},\n    \"packed_speedup_serial\": {packed_speedup_serial:.3},\n    \"packed_speedup_parallel\": {packed_speedup_parallel:.3},\n    \"bitwise_identical\": {mc_identical}\n  }},\n  \"framework_run\": {{\n    \"workload\": \"{name}\",\n    \"samples\": {samples},\n    \"serial\": {{\n      \"threads\": 1,\n      \"wall_s\": {run_serial_s:.6},\n      \"phases\": {serial_phases}\n    }},\n    \"parallel\": {{\n      \"threads\": {host},\n      \"wall_s\": {run_par_s:.6},\n      \"phases\": {par_phases}\n    }},\n    \"speedup\": {run_speedup:.3},\n    \"bitwise_identical\": {run_identical}\n  }}\n}}\n",
        name = w.name(),
        samples = cfg.samples,
        mc_speedup = mc_serial_s / mc_par_s,
        packed_speedup_serial = mc_serial_s / mc_packed_serial_s,
        packed_speedup_parallel = mc_par_s / mc_packed_par_s,
        run_speedup = run_serial_s / run_par_s,
        serial_phases = phases(&report_serial),
        par_phases = phases(&report_par),
    );
    let env = BenchEnvelope {
        bench: "parallel",
        config: Value::Obj(vec![
            ("host_threads".into(), Value::Num(host as f64)),
            ("workload".into(), Value::Str(w.name().into())),
            ("chips".into(), Value::Num(CHIPS as f64)),
            ("inputs".into(), Value::Num(INPUTS as f64)),
            ("samples".into(), Value::Num(cfg.samples as f64)),
        ]),
        wall_ms: wall.elapsed().as_secs_f64() * 1e3,
        // Headline: thread scaling of the scalar MC grid.
        speedup: mc_serial_s / mc_par_s,
        checks: vec![
            ("mc_bitwise_identical".into(), mc_identical),
            ("run_bitwise_identical".into(), run_identical),
        ],
        detail: Value::parse(&detail).expect("detail json"),
    };
    match env.write() {
        Ok(path) => eprintln!("wrote {}", path.display()),
        Err(e) => eprintln!("could not write results artifact: {e}"),
    }
}
