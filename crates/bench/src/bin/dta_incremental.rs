//! Incremental-DTA benchmark: cold- vs warm-cache stage-DTS sweeps with the
//! activation-signature memo — on loop-heavy workloads where activation
//! sets repeat across iterations — and the static error-immunity pre-screen
//! (pruned vs oracle training wall clock, λ compared bitwise).
//!
//! ```text
//! cargo run --release -p terse-bench --bin dta_incremental
//! ```
//!
//! Writes `results/BENCH_dta_incremental.json` (the common
//! `{bench, config, wall_ms, speedup, checks, detail}` envelope) and prints
//! the same JSON to stdout. Every compared variant is checked **bitwise**
//! against the reference (uncached DTA, unpruned training) before any
//! speedup is reported; the run aborts if anything diverges.
//!
//! Environment knobs (for the CI smoke job):
//!
//! * `TERSE_BENCH_SMOKE=1` — small datasets, short sweeps.
//! * `TERSE_BENCH_CYCLES=N` — cap the DTA sweep at `N` cycles.

use std::sync::Arc;
use std::time::Instant;
use terse_bench::BenchEnvelope;
use terse_dta::{DtaMode, DtsCache, DtsEngine, EndpointFilter, PrescreenConfig, PrescreenMode};
use terse_netlist::pipeline::STAGE_COUNT;
use terse_netlist::{ActivityTrace, BitSet};
use terse_serve::json::Value;
use terse_sim::cosim::CoSim;
use terse_sim::Machine;
use terse_sta::canonical::CanonicalRv;
use terse_sta::delay::{DelayLibrary, TimingConstraints};
use terse_sta::statmin::MinOrdering;
use terse_sta::variation::VariationConfig;
use terse_workloads::DatasetSize;

/// Timed repetitions per variant; the minimum is reported.
const REPS: usize = 3;
/// Machine instruction budget per workload execution.
const BUDGET: u64 = 5_000_000;

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

/// Bitwise fingerprint of a stage-DTS result (mean, residual-inclusive
/// variance and every sensitivity coefficient).
fn rv_bits(rv: &Option<CanonicalRv>) -> Vec<u64> {
    match rv {
        None => vec![u64::MAX],
        Some(rv) => {
            let mut v = vec![rv.mean().to_bits(), rv.variance().to_bits()];
            v.extend(rv.coeffs().iter().map(|c| c.to_bits()));
            v
        }
    }
}

struct DtaResult {
    sweep_cycles: usize,
    uncached_s: f64,
    cold_s: f64,
    warm_s: f64,
    identical: bool,
    hits: u64,
    misses: u64,
    evictions: u64,
    collisions: u64,
    entries: usize,
}

/// Sweeps stage DTS over every (cycle, stage) pair of the trace prefix —
/// uncached, then cold-cache, then warm-cache — and bit-compares all three.
fn bench_dta(
    engine: &mut DtsEngine<'_>,
    activity: &ActivityTrace,
    sweep_cycles: usize,
    stages: usize,
) -> DtaResult {
    let cycles: Vec<&BitSet> = activity.iter().take(sweep_cycles).collect();
    let sweep = |engine: &DtsEngine<'_>| -> Vec<Vec<u64>> {
        let mut out = Vec::with_capacity(cycles.len() * stages);
        for vcd in &cycles {
            for s in 0..stages {
                let dts = engine.stage_dts(s, vcd, EndpointFilter::All).expect("dts");
                out.push(rv_bits(&dts));
            }
        }
        out
    };
    engine.clear_cache();
    let (uncached_s, reference) = time_min(REPS, || sweep(engine));
    let cache = Arc::new(DtsCache::new(4096));
    engine.set_cache(Arc::clone(&cache));
    // Cold: every distinct masked activation set misses and is stored.
    let (cold_s, cold) = time_min(1, || sweep(engine));
    // Warm: the same sweep again — repeats now hit the memo.
    let (warm_s, warm) = time_min(REPS, || sweep(engine));
    let identical = reference == cold && reference == warm;
    let stats = cache.stats();
    DtaResult {
        sweep_cycles: cycles.len(),
        uncached_s,
        cold_s,
        warm_s,
        identical,
        hits: stats.hits,
        misses: stats.misses,
        evictions: stats.evictions,
        collisions: stats.collisions,
        entries: stats.entries,
    }
}

fn main() {
    let wall = Instant::now();
    let smoke = std::env::var("TERSE_BENCH_SMOKE").is_ok_and(|v| v != "0");
    let sweep_cap = std::env::var("TERSE_BENCH_CYCLES")
        .ok()
        .and_then(|v| v.parse::<usize>().ok())
        .unwrap_or(if smoke { 96 } else { 512 });
    let size = if smoke {
        DatasetSize::Small
    } else {
        DatasetSize::Large
    };
    let host = std::thread::available_parallelism().map_or(1, |n| n.get());

    let fw = terse::Framework::builder().build().expect("framework");
    let pipeline = fw.pipeline();
    let op = fw.operating_point();

    let mut rows = Vec::new();
    let mut all_identical = true;
    let mut warm_not_slower = true;
    let mut min_warm_speedup = f64::INFINITY;
    for name in ["bitcount", "dijkstra"] {
        eprintln!("[{name}] simulating ({size:?})...");
        let spec = terse_workloads::by_name(name).expect("known workload");
        let w = spec.workload(size, 1, 0xDAC19).expect("workload");
        let mut machine = Machine::new(w.program(), 1 << 16);
        w.init_input(0, &mut machine);
        let activity = CoSim::run_program(pipeline, w.program(), &mut machine, BUDGET)
            .expect("co-simulation")
            .activity;

        eprintln!("[{name}] DTA sweep over {sweep_cap} cycles x {STAGE_COUNT} stages...");
        let mut engine = DtsEngine::new(
            pipeline.netlist(),
            DelayLibrary::normalized_45nm(),
            VariationConfig::default(),
            TimingConstraints::with_period(op.working_period),
            DtaMode::default(),
            MinOrdering::default(),
        )
        .expect("engine");
        let dta = bench_dta(&mut engine, &activity, sweep_cap, STAGE_COUNT);
        warm_not_slower &= dta.warm_s <= dta.cold_s;
        min_warm_speedup = min_warm_speedup.min(dta.uncached_s / dta.warm_s);
        assert!(dta.identical, "{name}: cached stage DTS diverged");
        // The CI smoke gate: a warm cache must never lose to a cold one.
        // The margin is structural (pure lookups vs full DTA searches), so
        // this is safe even on noisy shared runners.
        assert!(
            dta.warm_s <= dta.cold_s,
            "{name}: warm-cache sweep ({:.6}s) slower than cold ({:.6}s)",
            dta.warm_s,
            dta.cold_s
        );
        eprintln!(
            "[{name}] dta: uncached {:.3}s / cold {:.3}s / warm {:.3}s ({:.2}x warm), {} hits / {} misses",
            dta.uncached_s,
            dta.cold_s,
            dta.warm_s,
            dta.uncached_s / dta.warm_s,
            dta.hits,
            dta.misses
        );
        all_identical &= dta.identical;

        rows.push(format!(
            "    {{\n      \"name\": \"{name}\",\n      \"cycles\": {cycles},\n      \"dta\": {{\n        \"sweep_cycles\": {sweep_cycles},\n        \"stages\": {STAGE_COUNT},\n        \"uncached_s\": {uncached_s:.6},\n        \"cold_cache_s\": {cold_s:.6},\n        \"warm_cache_s\": {warm_s:.6},\n        \"warm_speedup\": {warm_speedup:.3},\n        \"cold_overhead\": {cold_overhead:.3},\n        \"cache\": {{\n          \"hits\": {hits},\n          \"misses\": {misses},\n          \"evictions\": {evictions},\n          \"collisions\": {collisions},\n          \"entries\": {entries}\n        }},\n        \"bitwise_identical\": {dta_id}\n      }}\n    }}",
            cycles = activity.len(),
            sweep_cycles = dta.sweep_cycles,
            uncached_s = dta.uncached_s,
            cold_s = dta.cold_s,
            warm_s = dta.warm_s,
            warm_speedup = dta.uncached_s / dta.warm_s,
            cold_overhead = dta.cold_s / dta.uncached_s,
            hits = dta.hits,
            misses = dta.misses,
            evictions = dta.evictions,
            collisions = dta.collisions,
            entries = dta.entries,
            dta_id = dta.identical,
        ));
    }

    // --- Static pre-screen: pruned vs oracle training, λ bitwise --------
    //
    // For each workload the full pipeline runs twice: once with the
    // pre-screen in `Prune` mode (certified-immune (instruction, stage)
    // pairs skipped) and once in `Oracle` mode (every pruned pair still
    // computed and checked against its certificate — the unpruned-work
    // baseline). λ must agree bitwise; the plan must prune ≥20% of pairs.
    let mut pre_rows = Vec::new();
    let mut lambda_bitwise = true;
    let mut pruned_ok = true;
    for name in ["bitcount", "dijkstra", "stringsearch"] {
        eprintln!("[{name}] prescreen: pruned vs oracle run (Small)...");
        let spec = terse_workloads::by_name(name).expect("known workload");
        let w = spec
            .workload(DatasetSize::Small, 1, 0xDAC19)
            .expect("workload");
        let run_with = |mode: PrescreenMode| {
            let f = terse::Framework::builder()
                .samples(2)
                .prescreen(PrescreenConfig::with_mode(mode))
                .build()
                .expect("framework");
            f.run(&w).expect("prescreened run")
        };
        let pruned = run_with(PrescreenMode::Prune);
        let oracle = run_with(PrescreenMode::Oracle);
        let (lp, lo) = (&pruned.estimate.lambda, &oracle.estimate.lambda);
        let identical = lp.samples().len() == lo.samples().len()
            && lp
                .samples()
                .iter()
                .zip(lo.samples())
                .all(|(a, b)| a.to_bits() == b.to_bits());
        assert!(identical, "{name}: pruned λ diverged from oracle λ");
        lambda_bitwise &= identical;
        let stats = pruned.prescreen.expect("prescreen stats");
        let frac = stats.pairs_pruned as f64 / stats.pairs_total.max(1) as f64;
        assert!(
            stats.pairs_pruned * 5 >= stats.pairs_total,
            "{name}: expected ≥20% pruning, got {stats:?}"
        );
        pruned_ok &= stats.pairs_pruned * 5 >= stats.pairs_total;
        eprintln!(
            "[{name}] prescreen: train {:.3}s pruned / {:.3}s oracle, {}/{} pairs pruned ({:.0}%), λ bitwise: {identical}",
            pruned.timings.training_s,
            oracle.timings.training_s,
            stats.pairs_pruned,
            stats.pairs_total,
            frac * 100.0
        );
        pre_rows.push(format!(
            "    {{\"name\": \"{name}\", \"prune_train_s\": {:.6}, \"oracle_train_s\": {:.6}, \"pairs_total\": {}, \"pairs_pruned\": {}, \"pruned_fraction\": {frac:.3}, \"lambda_bitwise\": {identical}}}",
            pruned.timings.training_s, oracle.timings.training_s, stats.pairs_total, stats.pairs_pruned
        ));
    }

    let detail = format!(
        "{{\n  \"bitwise_identical\": {all_identical},\n  \"workloads\": [\n{}\n  ],\n  \"prescreen\": [\n{}\n  ]\n}}\n",
        rows.join(",\n"),
        pre_rows.join(",\n")
    );
    let env = BenchEnvelope {
        bench: "dta_incremental",
        config: Value::Obj(vec![
            ("host_threads".into(), Value::Num(host as f64)),
            ("dataset".into(), Value::Str(format!("{size:?}"))),
            ("sweep_cycles".into(), Value::Num(sweep_cap as f64)),
        ]),
        wall_ms: wall.elapsed().as_secs_f64() * 1e3,
        // Headline: the smallest warm-cache DTA speedup across workloads.
        speedup: min_warm_speedup,
        checks: vec![
            ("bitwise_identical".into(), all_identical),
            ("warm_not_slower_than_cold".into(), warm_not_slower),
            ("prescreen_lambda_bitwise".into(), lambda_bitwise),
            ("prescreen_pruned_ge_20pct".into(), pruned_ok),
        ],
        detail: Value::parse(&detail).expect("detail json"),
    };
    match env.write() {
        Ok(path) => eprintln!("wrote {}", path.display()),
        Err(e) => eprintln!("could not write results artifact: {e}"),
    }
}
