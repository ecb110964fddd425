//! Bit-parallel execution benchmark: the 64-lane packed Monte Carlo grid
//! against the scalar cell-per-chip reference, and the compiled-tape packed
//! netlist kernel against per-lane scalar simulation.
//!
//! ```text
//! cargo run --release -p terse-bench --bin bitparallel
//! ```
//!
//! Writes `results/BENCH_bitparallel.json` (the common
//! `{bench, config, wall_ms, speedup, checks, detail}` envelope) and prints
//! the same JSON to stdout. The comparison is only meaningful because both layers are
//! **exact**: the run aborts unless the packed MC count matrix is bitwise
//! identical to the scalar one and the packed per-lane activation sets match
//! the scalar simulators gate for gate. The MC-grid speedup at equal thread
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
use terse_netlist::gate::GateKind;
use terse_netlist::sim::{SimStrategy, Simulator};
use terse_netlist::PackedSimulator;
use terse_serve::json::Value;
use terse_sim::monte_carlo::{self, MonteCarloConfig, LANE_GROUP};
use terse_stats::rng::Xoshiro256;
use terse_workloads::DatasetSize;

/// Timed repetitions; the minimum is reported.
const REPS: usize = 3;
/// Cycles of the packed-vs-scalar netlist kernel comparison.
const KERNEL_CYCLES: usize = 200;

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

struct KernelResult {
    cycles: usize,
    tape_ops: usize,
    scalar_s: f64,
    packed_s: f64,
    identical: bool,
    packed_ops_executed: u64,
    packed_ops_skipped: u64,
    scalar_gate_evals: u64,
}

/// Runs 64 lanes of random flip-flop stimulus on the pipeline netlist —
/// once as 64 scalar full-scan simulators, once as one packed simulator —
/// timing both and checking every lane's activation set bit for bit.
fn bench_kernel(cycles: usize) -> KernelResult {
    let p = terse_netlist::pipeline::PipelineNetlist::build(
        terse_netlist::pipeline::PipelineConfig::default(),
    )
    .expect("pipeline");
    let n = p.netlist();
    let ffs: Vec<_> = n
        .gate_ids()
        .filter(|&g| n.kind(g) == GateKind::FlipFlop)
        .collect();
    // Force a sparse random subset each cycle, distinct per lane.
    let stimulus = |rng: &mut Xoshiro256| -> Vec<(usize, u64, u64)> {
        ffs.iter()
            .enumerate()
            .filter_map(|(i, _)| {
                if rng.next_below(8) == 0 {
                    Some((i, rng.next_u64(), rng.next_u64()))
                } else {
                    None
                }
            })
            .collect()
    };

    let (scalar_s, (scalar_acts, scalar_gate_evals)) = time_min(REPS, || {
        let mut sims: Vec<Simulator<'_>> = (0..LANE_GROUP)
            .map(|_| Simulator::with_strategy(n, SimStrategy::FullScan))
            .collect();
        let mut rng = Xoshiro256::seed_from_u64(0xB17BEA7);
        let mut acts = Vec::new();
        for _ in 0..cycles {
            for (i, vals, mask) in stimulus(&mut rng) {
                for (lane, sim) in sims.iter_mut().enumerate() {
                    if mask >> lane & 1 == 1 {
                        sim.force_ff(ffs[i], vals >> lane & 1 == 1);
                    }
                }
            }
            for sim in sims.iter_mut() {
                acts.push(sim.step());
            }
        }
        let evals: u64 = sims.iter().map(Simulator::gates_evaluated).sum();
        (acts, evals)
    });
    let (packed_s, (packed_acts, ops_executed, ops_skipped, tape_ops)) = time_min(REPS, || {
        let mut sim = PackedSimulator::new(n, LANE_GROUP);
        let mut rng = Xoshiro256::seed_from_u64(0xB17BEA7);
        let mut acts = Vec::new();
        for _ in 0..cycles {
            for (i, vals, mask) in stimulus(&mut rng) {
                for lane in 0..LANE_GROUP {
                    if mask >> lane & 1 == 1 {
                        sim.force_ff(ffs[i], lane, vals >> lane & 1 == 1);
                    }
                }
            }
            sim.step();
            for lane in 0..LANE_GROUP {
                acts.push(sim.lane_activation(lane));
            }
        }
        (acts, sim.ops_executed(), sim.ops_skipped(), sim.tape_len())
    });
    let identical = scalar_acts == packed_acts;
    assert!(identical, "packed lane activations diverged from scalar");
    KernelResult {
        cycles,
        tape_ops,
        scalar_s,
        packed_s,
        identical,
        packed_ops_executed: ops_executed,
        packed_ops_skipped: ops_skipped,
        scalar_gate_evals,
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

    eprintln!("[kernel] 64-lane pipeline netlist, {KERNEL_CYCLES} cycles...");
    let k = bench_kernel(KERNEL_CYCLES);
    let kernel_speedup = k.scalar_s / k.packed_s;
    let ops_per_cycle = k.packed_ops_executed as f64 / k.cycles as f64;
    eprintln!(
        "[kernel] scalar {:.3}s / packed {:.3}s ({:.1}x), {:.0} ops/cycle of {} tape ops",
        k.scalar_s, k.packed_s, kernel_speedup, ops_per_cycle, k.tape_ops
    );

    let detail = format!(
        "{{\n  \"mc_grid\": {{\n    \"workload\": \"typeset\",\n    \"chips\": {chips},\n    \"inputs\": {inputs},\n    \"lane_group\": {LANE_GROUP},\n    \"lane_occupancy\": {occ:.6},\n    \"scalar_s\": {mc_scalar:.6},\n    \"packed_s\": {mc_packed:.6},\n    \"speedup\": {mc_speedup:.3},\n    \"bitwise_identical\": {mc_id},\n    \"errors_total\": {errors},\n    \"queries\": {queries},\n    \"slack_classes\": {slack_classes}\n  }},\n  \"netlist_kernel\": {{\n    \"lanes\": {LANE_GROUP},\n    \"cycles\": {cycles},\n    \"tape_ops\": {tape_ops},\n    \"scalar_s\": {k_scalar:.6},\n    \"packed_s\": {k_packed:.6},\n    \"speedup\": {k_speedup:.3},\n    \"packed_ops_per_cycle\": {opc:.3},\n    \"packed_ops_executed\": {ope},\n    \"packed_ops_skipped\": {ops},\n    \"scalar_gate_evals\": {sge},\n    \"bitwise_identical\": {k_id}\n  }}\n}}\n",
        chips = mc.chips,
        inputs = mc.inputs,
        occ = mc.lane_occupancy,
        mc_scalar = mc.scalar_s,
        mc_packed = mc.packed_s,
        mc_id = mc.identical,
        errors = mc.errors_total,
        queries = mc.classes.queries,
        slack_classes = mc.classes.classes,
        cycles = k.cycles,
        tape_ops = k.tape_ops,
        k_scalar = k.scalar_s,
        k_packed = k.packed_s,
        k_speedup = kernel_speedup,
        opc = ops_per_cycle,
        ope = k.packed_ops_executed,
        ops = k.packed_ops_skipped,
        sge = k.scalar_gate_evals,
        k_id = k.identical,
    );
    let env = BenchEnvelope {
        bench: "bitparallel",
        config: Value::Obj(vec![
            ("host_threads".into(), Value::Num(host as f64)),
            ("dataset".into(), Value::Str(format!("{:?}", cfg.size))),
            ("chips".into(), Value::Num(mc.chips as f64)),
            ("inputs".into(), Value::Num(mc.inputs as f64)),
            ("kernel_cycles".into(), Value::Num(KERNEL_CYCLES as f64)),
        ]),
        wall_ms: wall.elapsed().as_secs_f64() * 1e3,
        // Headline: the 64-lane packed MC grid vs the scalar reference.
        speedup: mc_speedup,
        checks: vec![
            ("mc_bitwise_identical".into(), mc.identical),
            ("kernel_bitwise_identical".into(), k.identical),
            ("mc_speedup_floor_10x".into(), mc_speedup >= 10.0),
        ],
        detail: Value::parse(&detail).expect("detail json"),
    };
    match env.write() {
        Ok(path) => eprintln!("wrote {}", path.display()),
        Err(e) => eprintln!("could not write results artifact: {e}"),
    }
}
