//! Differential suite: the DTA engine as the framework runs it, the paper's
//! literal path-peeling loop, and the activated path machinery in
//! `terse-sta` against the exhaustive DFS oracle — and, on the pipeline,
//! which is too deep for the DFS, against the activated-subgraph DP of
//! [`oracle::paths`].
//!
//! Every property builds one small random netlist and one activation set,
//! computes the same quantity with the implementation under test and with
//! [`oracle::exhaustive`]'s brute force, and demands agreement — exact for
//! deterministic quantities (path delays, candidate sets, statmin inputs),
//! statistical for the Monte Carlo diff.
//!
//! Exact-ties caveat: distinct activated paths can tie exactly in nominal
//! delay (equal gate-kind multisets), making "the most critical path"
//! ambiguous — both implementations are right while disagreeing on the
//! winner's slack RV. Exact-agreement properties therefore skip tied cases
//! (detected by [`oracle::exhaustive::has_delay_ties`]); delay-level
//! comparisons stay valid regardless.

use oracle::exhaustive::{
    self, activated_paths, has_delay_ties, most_critical_activated_delay, CandidatePolicy,
    ExhaustiveOracle,
};
use oracle::gen;
use oracle::paths::{longest_activated_path, ActivatedDp};
use oracle::statmin::monte_carlo_min;
use proptest::prelude::*;
use terse_dta::engine::CANDIDATES;
use terse_dta::{DtsEngine, EndpointFilter};
use terse_isa::assemble;
use terse_netlist::pipeline::{PipelineConfig, PipelineNetlist};
use terse_sim::cosim::CoSim;
use terse_sim::machine::Machine;
use terse_sta::analysis::Sta;
use terse_sta::delay::DelayLibrary;
use terse_sta::paths::PathEnumerator;
use terse_sta::TimingConstraints;

/// The speculative clock period used throughout: 15% past the STA limit.
fn speculative_period(sta: &Sta<'_>) -> f64 {
    sta.min_period() / 1.15
}

fn engine(netlist: &terse_netlist::Netlist, seed: u64, t_clk: f64) -> DtsEngine<'_> {
    DtsEngine::new(
        netlist,
        DelayLibrary::normalized_45nm(),
        gen::random_variation_config(seed),
        TimingConstraints::with_period(t_clk),
    )
    .expect("valid engine inputs")
}

fn oracle_for(netlist: &terse_netlist::Netlist, seed: u64, t_clk: f64) -> ExhaustiveOracle<'_> {
    ExhaustiveOracle::new(
        netlist,
        DelayLibrary::normalized_45nm(),
        gen::random_variation_config(seed),
        t_clk,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The activated-subgraph DP's path delay equals the brute-force maximum
    /// over all activated paths — exactly, for every endpoint, both on
    /// arbitrary bit sets and on realizable simulator traces.
    #[test]
    fn subgraph_dp_matches_brute_force(
        seed in 0u64..1_000_000,
        gates in 1usize..12,
        density in 0.2f64..1.0,
        realizable in 0u8..2,
    ) {
        let n = gen::random_netlist(seed, gates);
        let lib = DelayLibrary::normalized_45nm();
        let sta = Sta::new(&n, &lib);
        let vcd = if realizable == 1 {
            gen::simulated_vcd(&n, seed ^ 0x5EED)
        } else {
            gen::random_vcd(&n, seed ^ 0x5EED, density)
        };
        for &e in n.endpoints(0).unwrap() {
            let brute = most_critical_activated_delay(&n, &sta, e, &vcd);
            let dp = longest_activated_path(&sta, e, &vcd).unwrap();
            match (brute, dp) {
                (None, None) => {}
                (Some(b), Some(p)) => {
                    let d = p.delay_nominal(&sta);
                    prop_assert!((b - d).abs() < 1e-9, "brute {b} vs dp {d}");
                }
                (b, p) => prop_assert!(false, "activation disagreement: {b:?} vs {:?}", p.map(|p| p.delay_nominal(&sta))),
            }
        }
    }

    /// The restricted enumerator yields exactly the activated path set, in
    /// decreasing-delay order — same count, same delay multiset, sorted.
    #[test]
    fn restricted_enumerator_yields_activated_set(
        seed in 0u64..1_000_000,
        gates in 1usize..10,
        density in 0.2f64..1.0,
    ) {
        let n = gen::random_netlist(seed, gates);
        let lib = DelayLibrary::normalized_45nm();
        let sta = Sta::new(&n, &lib);
        let vcd = gen::random_vcd(&n, seed ^ 0xACE, density);
        for &e in n.endpoints(0).unwrap() {
            let brute: Vec<f64> = activated_paths(&n, &sta, e, &vcd)
                .iter()
                .map(|p| p.delay_nominal(&sta))
                .collect();
            let lazy: Vec<f64> = PathEnumerator::restricted(&sta, e, &vcd)
                .unwrap()
                .map(|p| p.delay_nominal(&sta))
                .collect();
            prop_assert_eq!(brute.len(), lazy.len());
            for (b, l) in brute.iter().zip(&lazy) {
                prop_assert!((b - l).abs() < 1e-9, "brute {b} vs lazy {l}");
            }
            for w in lazy.windows(2) {
                prop_assert!(w[0] >= w[1] - 1e-9, "unsorted: {} then {}", w[0], w[1]);
            }
        }
    }

    /// Faithful peeling (the paper's literal loop over the global criticality
    /// order) finds a path with exactly the brute-force maximum delay.
    #[test]
    fn faithful_peeling_finds_most_critical_delay(
        seed in 0u64..1_000_000,
        gates in 1usize..10,
        density in 0.3f64..1.0,
    ) {
        let n = gen::random_netlist(seed, gates);
        let lib = DelayLibrary::normalized_45nm();
        let sta = Sta::new(&n, &lib);
        let vcd = gen::random_vcd(&n, seed ^ 0xBEEF, density);
        for &e in n.endpoints(0).unwrap() {
            let brute = most_critical_activated_delay(&n, &sta, e, &vcd);
            let peeled = PathEnumerator::new(&sta, e)
                .unwrap()
                .find(|p| p.is_activated(&vcd));
            match (brute, peeled) {
                (None, None) => {}
                (Some(b), Some(p)) => {
                    let d = p.delay_nominal(&sta);
                    prop_assert!((b - d).abs() < 1e-9, "brute {b} vs peeled {d}");
                }
                (b, p) => prop_assert!(false, "activation disagreement: {b:?} vs {:?}", p.map(|p| p.delay_nominal(&sta))),
            }
        }
    }

    /// The engine's stage DTS equals the oracle's DTS over the top
    /// [`CANDIDATES`] activated paths of every endpoint (same percentile
    /// re-ranking, same statmin inputs) — on tie-free activation sets.
    #[test]
    fn restricted_search_stage_dts_matches_oracle(
        seed in 0u64..1_000_000,
        gates in 1usize..10,
        density in 0.2f64..1.0,
    ) {
        let n = gen::random_netlist(seed, gates);
        let t = speculative_period(&Sta::new(&n, &DelayLibrary::normalized_45nm()));
        let orc = oracle_for(&n, seed ^ 0x11, t);
        let vcd = gen::random_vcd(&n, seed ^ 0x22, density);
        if orc.stage_has_ties(0, &vcd, 1e-9) {
            return; // ambiguous winner: both answers are right
        }
        let eng = engine(&n, seed ^ 0x11, t);
        for filter in [EndpointFilter::All, EndpointFilter::Control, EndpointFilter::Data] {
            let got = eng.stage_dts(0, &vcd, filter).unwrap();
            let want = orc.stage_dts(0, &vcd, filter, CandidatePolicy::Top(CANDIDATES));
            match (got, want) {
                (None, None) => {}
                (Some(g), Some(w)) => {
                    prop_assert!((g.mean() - w.mean()).abs() < 1e-9, "{filter:?}: {} vs {}", g.mean(), w.mean());
                    prop_assert!((g.sd() - w.sd()).abs() < 1e-9, "{filter:?}: {} vs {}", g.sd(), w.sd());
                }
                (g, w) => prop_assert!(false, "{filter:?}: presence disagreement {g:?} vs {w:?}"),
            }
        }
    }

    /// The endpoint-class filters partition the stage: the control and data
    /// AP sets are disjoint pieces of the full set, in both implementations.
    #[test]
    fn endpoint_filters_partition_ap(
        seed in 0u64..1_000_000,
        gates in 1usize..10,
        density in 0.2f64..1.0,
    ) {
        let n = gen::random_netlist(seed, gates);
        let t = speculative_period(&Sta::new(&n, &DelayLibrary::normalized_45nm()));
        let orc = oracle_for(&n, seed ^ 0x55, t);
        let vcd = gen::random_vcd(&n, seed ^ 0x66, density);
        let all = orc.stage_ap_slacks(0, &vcd, EndpointFilter::All, CandidatePolicy::All);
        let ctl = orc.stage_ap_slacks(0, &vcd, EndpointFilter::Control, CandidatePolicy::All);
        let dat = orc.stage_ap_slacks(0, &vcd, EndpointFilter::Data, CandidatePolicy::All);
        prop_assert_eq!(all.len(), ctl.len() + dat.len());
    }

    /// The engine's analytic stage DTS tracks a dense Monte Carlo min over
    /// the oracle's assembled AP slack set (the ground-truth distribution of
    /// Algorithm 1's output) within Clark error plus sampling noise.
    #[test]
    fn stage_dts_tracks_monte_carlo(
        seed in 0u64..1_000_000,
        gates in 1usize..10,
        density in 0.3f64..1.0,
    ) {
        const SAMPLES: usize = 40_000;
        let n = gen::random_netlist(seed, gates);
        let t = speculative_period(&Sta::new(&n, &DelayLibrary::normalized_45nm()));
        let orc = oracle_for(&n, seed ^ 0x77, t);
        let vcd = gen::random_vcd(&n, seed ^ 0x88, density);
        let ap = orc.stage_ap_slacks(0, &vcd, EndpointFilter::All, CandidatePolicy::Top(CANDIDATES));
        if ap.is_empty() {
            return;
        }
        let eng = engine(&n, seed ^ 0x77, t);
        let got = eng.stage_dts(0, &vcd, EndpointFilter::All).unwrap().expect("non-empty AP");
        let (mc_mean, mc_var) = monte_carlo_min(&ap, SAMPLES, seed ^ 0x99).unwrap();
        let mc_var = mc_var.max(0.0); // sample-variance cancellation on deterministic sets
        let scale = ap.iter().map(terse_sta::CanonicalRv::sd).fold(1e-3, f64::max);
        let se = scale / (SAMPLES as f64).sqrt();
        prop_assert!(
            (got.mean() - mc_mean).abs() < 0.15 * scale + 5.0 * se,
            "analytic {} vs mc {mc_mean} (scale {scale})",
            got.mean()
        );
        prop_assert!(
            (got.sd() - mc_var.sqrt()).abs() < 0.25 * scale + 5.0 * se,
            "analytic sd {} vs mc {} (scale {scale})",
            got.sd(),
            mc_var.sqrt()
        );
    }
}

/// The restricted search's first path — the path Algorithm 1 ranks first —
/// has the delay of the activated-subgraph DP's longest activated path, for
/// every endpoint of every stage on every cycle of a pipeline trace.
#[test]
fn restricted_search_first_path_matches_dp_reference_on_pipeline() {
    let p = PipelineNetlist::build(PipelineConfig::default()).expect("pipeline");
    let prog =
        assemble("li r1, 0xFFFFFF\nadd r2, r1, r1\nmul r3, r1, r1\nhalt\n").expect("program");
    let mut m = Machine::new(&prog, 64);
    let trace = CoSim::run_program(&p, &prog, &mut m, 1000).expect("co-simulation");
    let n = p.netlist();
    let sta = Sta::new(n, &DelayLibrary::normalized_45nm());
    let mut compared = 0usize;
    for t in 0..trace.activity.len() {
        let vcd = trace.activity.cycle(t);
        let dp = ActivatedDp::new(&sta, vcd);
        for s in 0..n.stage_count() {
            for &e in n.endpoints(s).expect("stage in range") {
                let first = PathEnumerator::restricted(&sta, e, vcd)
                    .expect("endpoint")
                    .next()
                    .map(|p| p.delay_nominal(&sta));
                let want = dp
                    .path_to(&sta, e)
                    .expect("endpoint")
                    .map(|p| p.delay_nominal(&sta));
                match (first, want) {
                    (None, None) => {}
                    (Some(f), Some(w)) => {
                        assert!((f - w).abs() < 1e-9, "cycle {t} stage {s}: {f} vs DP {w}");
                        compared += 1;
                    }
                    (f, w) => panic!("cycle {t} stage {s}: activation disagreement {f:?} vs {w:?}"),
                }
            }
        }
    }
    assert!(compared > 0, "trace activated no path");
}

/// The heavyweight exhaustive sweep: larger netlists (deeper DFS), denser
/// seeds, the engine as the framework runs it against the oracle's top
/// [`CANDIDATES`] per endpoint. Scheduled CI only.
#[test]
#[ignore = "slow exhaustive suite: cargo test -p oracle -- --ignored"]
fn stage_dts_matches_oracle_exhaustive() {
    let mut checked = 0usize;
    let mut tied = 0usize;
    // Enough seeds that at least 200 are tie-free.
    for seed in 0..384 {
        let gates = 4 + (seed as usize % 13);
        let n = gen::random_netlist(seed, gates);
        let t = speculative_period(&Sta::new(&n, &DelayLibrary::normalized_45nm()));
        let orc = oracle_for(&n, seed ^ 0xE1, t);
        let vcd = gen::random_vcd(&n, seed ^ 0xE2, 0.3 + (seed as f64 % 7.0) / 10.0);
        if orc.stage_has_ties(0, &vcd, 1e-9) {
            tied += 1;
            continue;
        }
        let eng = engine(&n, seed ^ 0xE1, t);
        let got = eng.stage_dts(0, &vcd, EndpointFilter::All).unwrap();
        let want = orc.stage_dts(
            0,
            &vcd,
            EndpointFilter::All,
            CandidatePolicy::Top(CANDIDATES),
        );
        match (got, want) {
            (None, None) => {}
            (Some(g), Some(w)) => {
                assert!(
                    (g.mean() - w.mean()).abs() < 1e-9 && (g.sd() - w.sd()).abs() < 1e-9,
                    "seed {seed}: ({}, {}) vs ({}, {})",
                    g.mean(),
                    g.sd(),
                    w.mean(),
                    w.sd()
                );
            }
            (g, w) => panic!("seed {seed}: presence disagreement {g:?} vs {w:?}"),
        }
        checked += 1;
    }
    // The tie-skip must not hollow the sweep out (one case per seed).
    assert!(
        checked >= 200,
        "too few tie-free cases: {checked} checked, {tied} tied"
    );
}

/// Full-activation sanity at scale: with every gate toggling, the subgraph
/// DP, the restricted search's first path, the brute-force maximum, and
/// plain STA all collapse to the same number on netlists too deep for the
/// fast suite. Scheduled CI only.
#[test]
#[ignore = "slow exhaustive suite: cargo test -p oracle -- --ignored"]
fn full_activation_collapses_to_sta_exhaustive() {
    for seed in 0..96 {
        let n = gen::random_netlist(seed * 7 + 1, 16);
        let lib = DelayLibrary::normalized_45nm();
        let sta = Sta::new(&n, &lib);
        let mut vcd = terse_netlist::BitSet::new(n.gate_count());
        for g in n.gate_ids() {
            vcd.insert(g.index());
        }
        for &e in n.endpoints(0).unwrap() {
            let brute = most_critical_activated_delay(&n, &sta, e, &vcd).unwrap();
            let block = sta.endpoint_arrival(e).unwrap();
            let dp = longest_activated_path(&sta, e, &vcd)
                .unwrap()
                .expect("fully-activated endpoint has a path")
                .delay_nominal(&sta);
            let first = PathEnumerator::restricted(&sta, e, &vcd)
                .unwrap()
                .next()
                .expect("fully-activated endpoint has a path")
                .delay_nominal(&sta);
            assert!(
                (brute - block).abs() < 1e-9,
                "seed {seed}: brute {brute} vs sta {block}"
            );
            assert!(
                (dp - block).abs() < 1e-9,
                "seed {seed}: dp {dp} vs sta {block}"
            );
            assert!(
                (first - block).abs() < 1e-9,
                "seed {seed}: restricted search {first} vs sta {block}"
            );
        }
        let _ = has_delay_ties(&n, &sta, n.endpoints(0).unwrap()[2], &vcd, 1e-9);
        let _ = exhaustive::all_paths(&n, n.endpoints(0).unwrap()[2]);
    }
}
