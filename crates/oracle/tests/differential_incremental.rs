//! Differential suite for the incremental-DTA layer: the memoized engine and
//! the event-driven simulator against their exhaustive counterparts (the
//! uncached engine, and the full-scan reference [`oracle::sim::FullScan`]).
//!
//! The memo cache and event-driven gate evaluation are *exact*
//! optimizations — not approximations — so every property here demands
//! **bitwise** agreement (`f64::to_bits` on means, variances and every
//! sensitivity coefficient; `BitSet` equality on toggle sets), not epsilon
//! closeness. The suite deliberately drives the cache through its unhappy
//! paths too: capacity-1 eviction churn and truncated-signature collisions,
//! where correctness rests entirely on the exact toggle-set verification.

use std::sync::Arc;

use oracle::gen;
use oracle::sim::FullScan;
use proptest::prelude::*;
use terse_dta::{DtsCache, DtsEngine, EndpointFilter};
use terse_netlist::pipeline::{PipelineConfig, PipelineNetlist};
use terse_netlist::sim::Simulator;
use terse_netlist::{BitSet, GateId, GateKind, Netlist};
use terse_sta::analysis::Sta;
use terse_sta::delay::DelayLibrary;
use terse_sta::TimingConstraints;
use terse_stats::rng::Xoshiro256;

/// The speculative clock period used throughout: 15% past the STA limit.
fn speculative_period(sta: &Sta<'_>) -> f64 {
    sta.min_period() / 1.15
}

/// The engine as the framework runs it.
fn engine(netlist: &Netlist, seed: u64, t_clk: f64) -> DtsEngine<'_> {
    DtsEngine::new(
        netlist,
        DelayLibrary::normalized_45nm(),
        gen::random_variation_config(seed),
        TimingConstraints::with_period(t_clk),
    )
    .expect("valid engine inputs")
}

const FILTERS: [EndpointFilter; 3] = [
    EndpointFilter::All,
    EndpointFilter::Control,
    EndpointFilter::Data,
];

/// Bitwise fingerprint of a stage-DTS result.
fn rv_bits(rv: &Option<terse_sta::CanonicalRv>) -> Vec<u64> {
    match rv {
        None => vec![u64::MAX],
        Some(rv) => {
            let mut v = vec![rv.mean().to_bits(), rv.variance().to_bits()];
            v.extend(rv.coeffs().iter().map(|c| c.to_bits()));
            v
        }
    }
}

/// A small pool of activation sets mixing arbitrary bit patterns with
/// realizable simulator traces (the cache must be exact on both).
fn vcd_pool(n: &Netlist, seed: u64, density: f64) -> Vec<BitSet> {
    vec![
        gen::random_vcd(n, seed ^ 0xA1, density),
        gen::simulated_vcd(n, seed ^ 0xB2),
        gen::random_vcd(n, seed ^ 0xC3, (density * 0.5).max(0.05)),
    ]
}

/// Sweeps every (vcd, filter) query once and fingerprints each answer.
fn sweep(eng: &DtsEngine<'_>, vcds: &[BitSet]) -> Vec<Vec<u64>> {
    let mut out = Vec::with_capacity(vcds.len() * FILTERS.len());
    for vcd in vcds {
        for filter in FILTERS {
            let dts = eng.stage_dts(0, vcd, filter).expect("stage_dts");
            out.push(rv_bits(&dts));
        }
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// The memoized engine is bitwise identical to the uncached engine, on
    /// both arbitrary and realizable activation sets —
    /// including the repeat pass where every query is served from the cache.
    #[test]
    fn cached_stage_dts_bitwise_matches_uncached(
        seed in 0u64..1_000_000,
        gates in 1usize..10,
        density in 0.2f64..1.0,
    ) {
        let n = gen::random_netlist(seed, gates);
        let t = speculative_period(&Sta::new(&n, &DelayLibrary::normalized_45nm()));
        let vcds = vcd_pool(&n, seed, density);
        let plain = engine(&n, seed ^ 0x7E57, t);
        let mut cached = engine(&n, seed ^ 0x7E57, t);
        let cache = Arc::new(DtsCache::new(64));
        cached.set_cache(Arc::clone(&cache));
        let want = sweep(&plain, &vcds);
        let cold = sweep(&cached, &vcds);
        let warm = sweep(&cached, &vcds);
        prop_assert_eq!(&want, &cold, "cold pass diverged");
        prop_assert_eq!(&want, &warm, "warm pass diverged");
        let stats = cache.stats();
        prop_assert!(stats.misses > 0, "nothing was ever computed");
        // The warm pass re-issues every cold query, so hits are certain.
        prop_assert!(stats.hits >= want.len() as u64, "{stats:?}");
        prop_assert_eq!(stats.collisions, 0, "full-width signatures collided");
    }

    /// A capacity-1 cache churns through eviction on every distinct
    /// activation set yet never corrupts an answer.
    #[test]
    fn capacity_one_cache_evicts_and_stays_exact(
        seed in 0u64..1_000_000,
        gates in 1usize..10,
        density in 0.2f64..1.0,
    ) {
        let n = gen::random_netlist(seed, gates);
        let t = speculative_period(&Sta::new(&n, &DelayLibrary::normalized_45nm()));
        let vcds = vcd_pool(&n, seed, density);
        let plain = engine(&n, seed ^ 0xCA11, t);
        let mut cached = engine(&n, seed ^ 0xCA11, t);
        let cache = Arc::new(DtsCache::new(1));
        cached.set_cache(Arc::clone(&cache));
        let want = sweep(&plain, &vcds);
        for pass in 0..2 {
            let got = sweep(&cached, &vcds);
            prop_assert_eq!(&want, &got, "pass {} diverged", pass);
        }
        let stats = cache.stats();
        prop_assert!(stats.entries <= 1, "{stats:?}");
        // Distinct answers imply distinct keys, and two keys cannot share
        // one slot without evicting.
        let first = rv_bits(&plain.stage_dts(0, &vcds[0], EndpointFilter::All).expect("dts"));
        let second = rv_bits(&plain.stage_dts(0, &vcds[2], EndpointFilter::All).expect("dts"));
        if first != second {
            prop_assert!(stats.evictions > 0, "{stats:?}");
        }
    }

    /// With the signature truncated to zero bits every activation set maps to
    /// the same key; the exact toggle-set verification must detect each
    /// collision, fall back to recomputation, and keep answers bitwise exact.
    #[test]
    fn truncated_signature_collisions_fall_back_to_exact(
        seed in 0u64..1_000_000,
        gates in 1usize..10,
        density in 0.2f64..1.0,
    ) {
        let n = gen::random_netlist(seed, gates);
        let t = speculative_period(&Sta::new(&n, &DelayLibrary::normalized_45nm()));
        let vcds = vcd_pool(&n, seed, density);
        let plain = engine(&n, seed ^ 0xC0DE, t);
        let mut cached = engine(&n, seed ^ 0xC0DE, t);
        let cache = Arc::new(DtsCache::with_signature_mask(64, 0));
        cached.set_cache(Arc::clone(&cache));
        let want = sweep(&plain, &vcds);
        for pass in 0..2 {
            let got = sweep(&cached, &vcds);
            prop_assert_eq!(&want, &got, "pass {} diverged", pass);
        }
        // Different answers for two sets under one filter mean their masked
        // toggle sets differ, so alternating them through one degenerate key
        // must have tripped the collision counter.
        let per_vcd: Vec<&[Vec<u64>]> = want.chunks(FILTERS.len()).collect();
        if per_vcd.iter().any(|c| *c != per_vcd[0]) {
            let stats = cache.stats();
            prop_assert!(stats.collisions > 0, "{stats:?}");
        }
    }

    /// The event-driven simulator produces exactly the full-scan reference's
    /// toggle sets and gate values, cycle for cycle, on random netlists
    /// under random input/flip-flop stimulus — while evaluating no more
    /// gates.
    #[test]
    fn event_driven_simulator_matches_full_scan(
        seed in 0u64..1_000_000,
        gates in 1usize..16,
        cycles in 2usize..12,
    ) {
        let n = gen::random_netlist(seed, gates);
        let mut full = FullScan::new(&n);
        let mut event = Simulator::new(&n);
        let mut rng = Xoshiro256::seed_from_u64(seed ^ 0x51u64);
        for cycle in 0..cycles {
            for g in n.gate_ids() {
                match n.kind(g) {
                    // Re-force state only some cycles, so others exercise the
                    // free-running feedback path where few gates toggle.
                    GateKind::FlipFlop if rng.next_below(3) == 0 => {
                        let v = rng.next_u64() & 1 == 1;
                        full.force_ff(g, v);
                        event.force_ff(g, v);
                    }
                    GateKind::Input => {
                        let v = rng.next_u64() & 1 == 1;
                        full.set_input(g, v);
                        event.set_input(g, v);
                    }
                    _ => {}
                }
            }
            let tf = full.step();
            let te = event.step();
            prop_assert_eq!(&tf, &te, "cycle {}: toggle sets diverged", cycle);
            for g in n.gate_ids() {
                prop_assert_eq!(
                    full.value(g), event.value(g),
                    "cycle {}: value of gate {:?} diverged", cycle, g
                );
            }
        }
        prop_assert!(
            event.gates_evaluated() <= full.gates_evaluated(),
            "event-driven evaluated more gates ({}) than the full scan ({})",
            event.gates_evaluated(),
            full.gates_evaluated()
        );
    }
}

/// Steps both simulators, checks the activation sets and every gate value,
/// and returns the activation set.
fn step_both(
    full: &mut FullScan<'_>,
    event: &mut Simulator<'_>,
    n: &Netlist,
    cycle: usize,
) -> BitSet {
    let af = full.step();
    let ae = event.step();
    assert_eq!(af, ae, "activation sets diverged at cycle {cycle}");
    for g in n.gate_ids() {
        assert_eq!(
            full.value(g),
            event.value(g),
            "value of {g:?} diverged at cycle {cycle}"
        );
    }
    ae
}

/// The pipeline netlist under co-simulation-shaped stimulus: every cycle a
/// random subset of flip-flops is forced and every input port is driven —
/// 256 cycles, with the event-driven simulator doing strictly less work than
/// the full scan.
#[test]
fn event_driven_matches_full_scan_on_the_pipeline() {
    let p = PipelineNetlist::build(PipelineConfig::default()).expect("pipeline");
    let n = p.netlist();
    let mut full = FullScan::new(n);
    let mut event = Simulator::new(n);
    let mut rng = Xoshiro256::seed_from_u64(0x5EED_CAFE);
    for cycle in 0..256 {
        for g in n.gate_ids() {
            match n.kind(g) {
                GateKind::FlipFlop if rng.next_below(8) == 0 => {
                    let v = rng.next_u64() & 1 == 1;
                    full.force_ff(g, v);
                    event.force_ff(g, v);
                }
                GateKind::Input => {
                    let v = rng.next_u64() & 1 == 1;
                    full.set_input(g, v);
                    event.set_input(g, v);
                }
                _ => {}
            }
        }
        step_both(&mut full, &mut event, n, cycle);
    }
    assert!(
        event.gates_evaluated() < full.gates_evaluated(),
        "event {} vs full {}",
        event.gates_evaluated(),
        full.gates_evaluated()
    );
}

/// Whole-bank writes through `force_ff_bus`, as a co-simulator makes them
/// between clock edges: the EX operand and control banks take a fresh
/// random value every cycle for 256 cycles, and the captured ME-stage
/// result bank `b4.alu` matches the reference bit for bit.
#[test]
fn forced_ff_bus_writes_match_full_scan_on_the_pipeline() {
    let p = PipelineNetlist::build(PipelineConfig::default()).expect("pipeline");
    let n = p.netlist();
    let mut full = FullScan::new(n);
    let mut event = Simulator::new(n);
    let mut rng = Xoshiro256::seed_from_u64(0xB00B5);
    let bus_value = |full: &FullScan<'_>, ids: &[GateId]| {
        ids.iter()
            .enumerate()
            .fold(0u64, |v, (i, &g)| v | u64::from(full.value(g)) << i)
    };
    let mut active_cycles = 0usize;
    for cycle in 0..256 {
        for (bus, mask) in [
            ("b3.op_a", 0xFFFF_FFFF),
            ("b3.op_b", 0xFFFF_FFFF),
            ("b3.ex_ctl", 0xFF),
        ] {
            let v = rng.next_u64() & mask;
            event.force_ff_bus(bus, v).expect("bus");
            for (i, &g) in n.bus(bus).expect("bus").iter().enumerate() {
                full.force_ff(g, i < 64 && v >> i & 1 == 1);
            }
        }
        if !step_both(&mut full, &mut event, n, cycle).is_empty() {
            active_cycles += 1;
        }
        assert_eq!(
            event.bus_value("b4.alu").expect("bus"),
            bus_value(&full, n.bus("b4.alu").expect("bus")),
            "b4.alu diverged at cycle {cycle}"
        );
    }
    assert!(active_cycles > 0, "stimulus must activate logic");
}
