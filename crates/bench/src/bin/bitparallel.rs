//! Bit-parallel execution benchmark: the 64-lane packed Monte Carlo grid
//! against the scalar cell-per-chip reference.
//!
//! ```text
//! cargo run --release -p terse-bench --bin bitparallel
//! ```
//!
//! Writes `results/BENCH_bitparallel.json` (the common
//! `{bench, config, wall_ms, speedup, checks, detail}` envelope) and prints
//! the same JSON to stdout. The comparison is only meaningful because the
//! packed grid is **exact**: the run aborts unless its count matrix is
//! bitwise identical to the scalar one. The MC-grid speedup at equal thread
//! counts is asserted to be at least 10x — the structural floor of packing
//! 64 chips per machine execution plus the slack-class tables (one slack
//! resolution per distinct query per call, one probability per class and
//! chip). `detail.mc_grid` also records the distinct `queries` and
//! `slack_classes` of one call.
//!
//! Environment knobs (for the CI smoke job):
//!
//! * `TERSE_BENCH_SMOKE=1` — smaller chip population and dataset.

use std::time::Instant;
use terse_bench::{workload_of, BenchEnvelope, HarnessConfig};
use terse_serve::json::Value;
use terse_sim::monte_carlo::{self, MonteCarloConfig, LANE_GROUP};
use terse_workloads::DatasetSize;

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

struct McResult {
    chips: usize,
    inputs: usize,
    scalar_s: f64,
    packed_s: f64,
    identical: bool,
    lane_occupancy: f64,
    errors_total: u64,
    classes: monte_carlo::SlackClassStats,
}

/// Times the scalar and lane-grouped MC grids on the trained instruction
/// error model at equal thread counts and bit-compares the count matrices.
fn bench_mc(cfg: &HarnessConfig, chips_n: usize, threads: usize) -> McResult {
    let fw = terse::Framework::builder()
        .samples(cfg.samples)
        .threads(threads)
        .build()
        .expect("framework");
    let spec = terse_workloads::by_name("typeset").expect("typeset exists");
    let w = workload_of(spec, cfg).expect("workload");
    let isa_cfg = terse_isa::Cfg::from_program(w.program());
    let profiles = fw.profile_workload(&w, &isa_cfg).expect("profiles");
    let model = fw.train_model(&w, &isa_cfg, &profiles).expect("model");
    let chips = fw.sample_chips(chips_n, 0xB17).expect("chips");
    let inputs = cfg.samples;

    let pool = rayon::ThreadPoolBuilder::new()
        .num_threads(threads)
        .build()
        .expect("pool");
    let (scalar_s, counts_scalar) = time_min(REPS, || {
        pool.install(|| {
            oracle::grid::error_counts_scalar(
                w.program(),
                &model,
                &chips,
                inputs,
                fw.correction(),
                |idx, m| w.init_input(idx, m),
                MonteCarloConfig::default(),
            )
            .expect("scalar grid")
        })
    });
    let (packed_s, counts_packed) = time_min(REPS, || {
        pool.install(|| {
            monte_carlo::error_counts(
                w.program(),
                &model,
                &chips,
                inputs,
                fw.correction(),
                |idx, m| w.init_input(idx, m),
                MonteCarloConfig::default(),
            )
            .expect("packed grid")
        })
    });
    let identical = counts_scalar == counts_packed;
    assert!(identical, "packed MC grid diverged from the scalar grid");
    let classes = monte_carlo::slack_class_stats(
        w.program(),
        &model,
        inputs,
        fw.correction(),
        |idx, m| w.init_input(idx, m),
        MonteCarloConfig::default(),
    )
    .expect("slack classes");
    McResult {
        chips: chips_n,
        inputs,
        scalar_s,
        packed_s,
        identical,
        lane_occupancy: monte_carlo::lane_occupancy(chips_n),
        errors_total: counts_packed.iter().flatten().sum(),
        classes,
    }
}

fn main() {
    let wall = Instant::now();
    let smoke = std::env::var("TERSE_BENCH_SMOKE").is_ok_and(|v| v != "0");
    let host = std::thread::available_parallelism().map_or(1, |n| n.get());
    let cfg = HarnessConfig {
        samples: 2,
        size: if smoke {
            DatasetSize::Small
        } else {
            DatasetSize::Large
        },
        ..HarnessConfig::default()
    };
    // A ragged population (not a multiple of 64) keeps the tail-handling
    // path on the timed run.
    let chips_n = if smoke { 130 } else { 322 };

    eprintln!(
        "[mc] {chips_n} chips x {} inputs, scalar vs packed...",
        cfg.samples
    );
    let mc = bench_mc(&cfg, chips_n, host);
    let mc_speedup = mc.scalar_s / mc.packed_s;
    eprintln!(
        "[mc] scalar {:.3}s / packed {:.3}s ({:.1}x), {:.1}% lane occupancy, {} errors, \
         {} queries -> {} slack classes per call",
        mc.scalar_s,
        mc.packed_s,
        mc_speedup,
        mc.lane_occupancy * 100.0,
        mc.errors_total,
        mc.classes.queries,
        mc.classes.classes
    );
    // The acceptance gate: the structural floor of 64-way packing leaves a
    // wide margin over 10x even on noisy shared runners.
    assert!(
        mc_speedup >= 10.0,
        "packed MC grid speedup {mc_speedup:.2}x below the 10x floor"
    );

    let detail = format!(
        "{{\n  \"mc_grid\": {{\n    \"workload\": \"typeset\",\n    \"chips\": {chips},\n    \"inputs\": {inputs},\n    \"lane_group\": {LANE_GROUP},\n    \"lane_occupancy\": {occ:.6},\n    \"scalar_s\": {mc_scalar:.6},\n    \"packed_s\": {mc_packed:.6},\n    \"speedup\": {mc_speedup:.3},\n    \"bitwise_identical\": {mc_id},\n    \"errors_total\": {errors},\n    \"queries\": {queries},\n    \"slack_classes\": {slack_classes}\n  }}\n}}\n",
        chips = mc.chips,
        inputs = mc.inputs,
        occ = mc.lane_occupancy,
        mc_scalar = mc.scalar_s,
        mc_packed = mc.packed_s,
        mc_id = mc.identical,
        errors = mc.errors_total,
        queries = mc.classes.queries,
        slack_classes = mc.classes.classes,
    );
    let env = BenchEnvelope {
        bench: "bitparallel",
        config: Value::Obj(vec![
            ("host_threads".into(), Value::Num(host as f64)),
            ("dataset".into(), Value::Str(format!("{:?}", cfg.size))),
            ("chips".into(), Value::Num(mc.chips as f64)),
            ("inputs".into(), Value::Num(mc.inputs as f64)),
        ]),
        wall_ms: wall.elapsed().as_secs_f64() * 1e3,
        // Headline: the 64-lane packed MC grid vs the scalar reference.
        speedup: mc_speedup,
        checks: vec![
            ("mc_bitwise_identical".into(), mc.identical),
            ("mc_speedup_floor_10x".into(), mc_speedup >= 10.0),
        ],
        detail: Value::parse(&detail).expect("detail json"),
    };
    match env.write() {
        Ok(path) => eprintln!("wrote {}", path.display()),
        Err(e) => eprintln!("could not write results artifact: {e}"),
    }
}
