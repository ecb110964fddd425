//! **Ablation D** (timing) — Algorithm 1's activation search three ways:
//! the paper's literal path-peeling loop (pop paths of each EX endpoint in
//! decreasing criticality until one is activated), and the engine's two
//! modes — enumeration restricted to the activated subgraph and the
//! single-pass longest-activated-path DP. All three find the same
//! most-critical activated path; the bench shows why the framework "does
//! not suffer from the long simulation times of other path-based
//! techniques".

use criterion::{criterion_group, criterion_main, Criterion};
use terse_dta::engine::{DtaMode, DtsEngine, EndpointFilter};
use terse_isa::assemble;
use terse_netlist::pipeline::{PipelineConfig, PipelineNetlist};
use terse_sim::cosim::CoSim;
use terse_sim::machine::Machine;
use terse_sta::analysis::Sta;
use terse_sta::delay::{DelayLibrary, TimingConstraints};
use terse_sta::paths::PathEnumerator;
use terse_sta::statmin::MinOrdering;
use terse_sta::variation::VariationConfig;

/// Paths popped per endpoint before the peeling loop gives up — the bound
/// on its pathological case (an endpoint with no activated path pops its
/// whole path set).
const MAX_POPS: usize = 100_000;

fn bench_dta(c: &mut Criterion) {
    let pipeline = PipelineNetlist::build(PipelineConfig::default()).unwrap();
    let lib = DelayLibrary::normalized_45nm();
    let sta = Sta::new(pipeline.netlist(), &lib);
    let period = sta.min_period() / 1.33;
    let prog = assemble(
        "li r1, 0x7FFFFFFF\nli r2, 12345\nadd r3, r1, r2\nmul r4, r2, r2\nxor r5, r3, r4\nhalt\n",
    )
    .unwrap();
    let mut machine = Machine::new(&prog, 64);
    let trace = CoSim::run_program(&pipeline, &prog, &mut machine, 100).unwrap();
    let vcd = trace.activity.cycle(4 + 3); // the add in EX
    let ex_endpoints = pipeline.netlist().endpoints(3).unwrap();

    let mut group = c.benchmark_group("dta/stage_dts_ex");
    group.bench_function("faithful_peeling", |b| {
        b.iter(|| {
            ex_endpoints
                .iter()
                .map(|&e| {
                    PathEnumerator::new(&sta, e)
                        .unwrap()
                        .take(MAX_POPS)
                        .find(|p| p.is_activated(vcd))
                })
                .collect::<Vec<_>>()
        })
    });
    let modes = [
        (
            "restricted_search",
            DtaMode::RestrictedSearch { candidates: 4 },
        ),
        ("activated_subgraph", DtaMode::ActivatedSubgraph),
    ];
    for (name, mode) in modes {
        let engine = DtsEngine::new(
            pipeline.netlist(),
            lib.clone(),
            VariationConfig::default(),
            TimingConstraints::with_period(period),
            mode,
            MinOrdering::AscendingMean,
        )
        .unwrap();
        group.bench_function(name, |b| {
            b.iter(|| engine.stage_dts(3, vcd, EndpointFilter::All).unwrap())
        });
    }
    group.finish();
}

criterion_group!(benches, bench_dta);
criterion_main!(benches);
