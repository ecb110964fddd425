//! Tiny run of every workload, untraced and traced: each must pass its
//! output checks and emit the metrics `BENCHMARK.json` lists, in order and
//! with the listed unit. Every end-to-end metric, and every per-layer
//! metric the workload owns, must read above zero.
//!
//! ```text
//! cargo test --release --manifest-path perfbench/Cargo.toml
//! ```

use perfbench::{run_workload, BenchSpec, Plan};
use std::path::PathBuf;

fn spec() -> BenchSpec {
    BenchSpec::load(&PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json"))
        .expect("BENCHMARK.json beside the benchmark")
}

fn smoke(workload: &str, trace: bool) {
    let spec = spec();
    let plan = Plan {
        seed: 7,
        seconds: 0.01,
        trace,
        smoke: true,
        work_dir: PathBuf::from(env!("CARGO_TARGET_TMPDIR"))
            .join(format!("smoke-{workload}-{trace}")),
    };
    let out = run_workload(workload, &plan, &spec, None).expect("smoke run");
    assert!(
        out.correct(),
        "{workload}: checks {:?}, failed {}",
        out.checks,
        out.failed
    );
    assert!(out.attempted > 0);
    let got: Vec<(String, String)> = out
        .metrics
        .iter()
        .map(|m| {
            assert!(m.value.is_finite(), "{workload}: {} = {}", m.name, m.value);
            (m.name.clone(), m.unit.clone())
        })
        .collect();
    let want = if trace {
        &spec.per_layer
    } else {
        &spec.end_to_end
    };
    assert_eq!(
        &got, want,
        "{workload} (trace {trace}) metric names and units"
    );
    let owned = out.owned_layers();
    for m in &out.metrics {
        // `cpu_s` counts 10 ms clock ticks, which a smoke pass can undercut;
        // the tracing overhead is a difference of medians and may be < 0.
        let measured = if trace {
            owned.contains(&m.name.as_str()) && m.name != "trace.overhead_s"
        } else {
            m.name != "cpu_s"
        };
        if measured {
            assert!(m.value > 0.0, "{workload}: {} reads {}", m.name, m.value);
        }
    }
}

#[test]
fn every_workload_emits_every_end_to_end_metric() {
    for w in &spec().workloads {
        smoke(w, false);
    }
}

#[test]
fn every_workload_emits_its_per_layer_metrics() {
    for w in &spec().workloads {
        smoke(w, true);
    }
}

#[test]
fn every_listed_per_layer_metric_has_an_owner() {
    // A metric no workload owns would read 0 on every traced run.
    let owners: Vec<&str> = perfbench::COMMON_LAYERS
        .iter()
        .chain(perfbench::mc::LAYERS)
        .chain(perfbench::serve_loop::LAYERS)
        .copied()
        .collect();
    for (name, _) in &spec().per_layer {
        assert!(owners.contains(&name.as_str()), "{name} has no owner");
    }
}

#[test]
fn unknown_workload_is_refused() {
    let plan = Plan {
        seed: 1,
        seconds: 0.01,
        trace: false,
        smoke: true,
        work_dir: PathBuf::from(env!("CARGO_TARGET_TMPDIR")),
    };
    assert!(run_workload("nope", &plan, &spec(), None).is_err());
}
